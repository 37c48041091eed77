//! Real TCP transport: one listener per node, a reader thread per inbound
//! connection, and lazily-dialed outbound connections used
//! unidirectionally (if `i` and `j` both send, two connections exist —
//! each carries one direction, which keeps connection setup free of
//! identity handshakes: the MAC on every frame is the identity).
//!
//! Reader threads verify MACs — over the payload bytes they read off the
//! socket — before frames reach the inbound queue, so the application
//! only ever sees authenticated traffic; drops are counted in
//! [`TransportStats`].

use crate::frame::{Frame, FrameReadError};
use crate::{RecvError, SendError, Transport, TransportStats};
use csm_network::auth::KeyRegistry;
use csm_network::NodeId;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Poll interval of the nonblocking accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(2);
/// Read timeout on inbound sockets (lets reader threads observe shutdown).
const READ_POLL: Duration = Duration::from_millis(100);
/// Bound on a blocked outbound write: a peer that accepts connections but
/// never drains its socket must not wedge the sender's round loop.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);
/// Cap on concurrent inbound connections (and hence reader threads).
/// Connections are unauthenticated until their first frame's MAC
/// verifies, so without a cap any remote could exhaust threads/memory.
const MAX_INBOUND_CONNECTIONS: usize = 256;

/// One node's endpoint on a TCP mesh.
pub struct TcpTransport {
    id: NodeId,
    registry: Arc<KeyRegistry>,
    local_addr: SocketAddr,
    peer_addrs: Mutex<Vec<Option<SocketAddr>>>,
    outbound: Vec<Mutex<Option<TcpStream>>>,
    inbound_tx: Sender<Frame>,
    rx: Mutex<Receiver<Frame>>,
    stats: Arc<TransportStats>,
    shutdown: Arc<AtomicBool>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("id", &self.id)
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// Binds `listen` and starts accepting. The mesh size is
    /// `registry.len()`; peer addresses are supplied later via
    /// [`set_peer_addr`](Self::set_peer_addr) /
    /// [`set_peer_addrs`](Self::set_peer_addrs).
    pub fn bind(
        id: NodeId,
        registry: Arc<KeyRegistry>,
        listen: SocketAddr,
    ) -> std::io::Result<Self> {
        let n = registry.len();
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (inbound_tx, rx) = mpsc::channel::<Frame>();
        let stats = Arc::new(TransportStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));

        {
            let tx = inbound_tx.clone();
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            let registry = Arc::clone(&registry);
            thread::Builder::new()
                .name(format!("csm-accept-{}", id.0))
                .spawn(move || accept_loop(listener, registry, tx, stats, shutdown))
                .expect("spawn accept thread");
        }

        Ok(TcpTransport {
            id,
            registry,
            local_addr,
            peer_addrs: Mutex::new(vec![None; n]),
            outbound: (0..n).map(|_| Mutex::new(None)).collect(),
            inbound_tx,
            rx: Mutex::new(rx),
            stats,
            shutdown,
        })
    }

    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Registers one peer's listen address. A connection to its previous
    /// address is dropped, so the next send dials the new one (a peer that
    /// restarted on a fresh port is reached at once, not after a send into
    /// the dead socket fails).
    pub fn set_peer_addr(&self, peer: NodeId, addr: SocketAddr) {
        self.peer_addrs.lock().expect("peer_addrs poisoned")[peer.0] = Some(addr);
        *self.outbound[peer.0].lock().expect("outbound poisoned") = None;
    }

    /// Registers every peer's listen address (index = node id).
    pub fn set_peer_addrs(&self, addrs: &[SocketAddr]) {
        let mut slots = self.peer_addrs.lock().expect("peer_addrs poisoned");
        for (slot, addr) in slots.iter_mut().zip(addrs) {
            *slot = Some(*addr);
        }
    }

    fn ensure_connected(&self, to: NodeId) -> Result<(), SendError> {
        let mut slot = self.outbound[to.0].lock().expect("outbound poisoned");
        if slot.is_some() {
            return Ok(());
        }
        let addr = self.peer_addrs.lock().expect("peer_addrs poisoned")[to.0]
            .ok_or(SendError::UnknownPeer(to))?;
        let stream =
            TcpStream::connect_timeout(&addr, Duration::from_millis(500)).map_err(SendError::Io)?;
        stream.set_nodelay(true).map_err(SendError::Io)?;
        // a peer that accepts but never reads must not wedge our round
        // loop once its socket buffer fills: bound every write
        stream
            .set_write_timeout(Some(WRITE_TIMEOUT))
            .map_err(SendError::Io)?;
        *slot = Some(stream);
        Ok(())
    }

    fn send_bytes(&self, to: NodeId, bytes: &[u8]) -> Result<(), SendError> {
        self.ensure_connected(to)?;
        let mut slot = self.outbound[to.0].lock().expect("outbound poisoned");
        let stream = slot.as_mut().ok_or(SendError::Disconnected(to))?;
        match stream.write_all(bytes).and_then(|()| stream.flush()) {
            Ok(()) => Ok(()),
            Err(e) => {
                *slot = None; // drop the broken/stalled connection; redial next send
                Err(SendError::Io(e))
            }
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    registry: Arc<KeyRegistry>,
    tx: Sender<Frame>,
    stats: Arc<TransportStats>,
    shutdown: Arc<AtomicBool>,
) {
    let active_readers = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if active_readers.load(Ordering::Relaxed) >= MAX_INBOUND_CONNECTIONS {
                    drop(stream); // over cap: refuse by closing immediately
                    continue;
                }
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(READ_POLL));
                let tx = tx.clone();
                let stats = Arc::clone(&stats);
                let shutdown = Arc::clone(&shutdown);
                let registry = Arc::clone(&registry);
                let counter = Arc::clone(&active_readers);
                counter.fetch_add(1, Ordering::Relaxed);
                let spawned = thread::Builder::new()
                    .name("csm-reader".into())
                    .spawn(move || {
                        reader_loop(stream, registry, tx, stats, shutdown);
                        counter.fetch_sub(1, Ordering::Relaxed);
                    });
                if spawned.is_err() {
                    // thread exhaustion: undo the count; the connection is
                    // dropped and the peer will redial
                    active_readers.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => break,
        }
    }
}

/// Fills `buf` completely, preserving partial progress across read
/// timeouts (unlike `read_exact`, which discards consumed bytes on a
/// timeout and would desynchronize the frame stream when a frame's bytes
/// straddle a `READ_POLL` window). Timeouts only poll the shutdown flag.
fn fill_resumable(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shutdown.load(Ordering::Relaxed) {
                    return Err(ErrorKind::ConnectionAborted.into());
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one `[len][body]` frame's body, tolerating mid-frame read
/// timeouts.
fn read_body_resumable(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
) -> Result<Vec<u8>, FrameReadError> {
    let mut len_bytes = [0u8; 4];
    fill_resumable(stream, &mut len_bytes, shutdown)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > crate::MAX_FRAME_BYTES {
        return Err(FrameReadError::TooLarge(len));
    }
    let mut body = vec![0u8; len];
    fill_resumable(stream, &mut body, shutdown)?;
    Ok(body)
}

fn reader_loop(
    mut stream: TcpStream,
    registry: Arc<KeyRegistry>,
    tx: Sender<Frame>,
    stats: Arc<TransportStats>,
    shutdown: Arc<AtomicBool>,
) {
    while !shutdown.load(Ordering::Relaxed) {
        let Ok(body) = read_body_resumable(&mut stream, &shutdown) else {
            break; // EOF, shutdown, I/O failure, or oversized frame
        };
        // a dropped frame leaves the stream synchronized: the length
        // prefix still framed its body
        if let Some(frame) = stats.admit(&body, &registry) {
            if tx.send(frame).is_err() {
                break; // application endpoint dropped
            }
        }
    }
}

impl Transport for TcpTransport {
    fn local_id(&self) -> NodeId {
        self.id
    }

    fn n(&self) -> usize {
        self.outbound.len()
    }

    fn send(&self, to: NodeId, frame: Frame) -> Result<(), SendError> {
        if to.0 >= self.n() {
            return Err(SendError::UnknownPeer(to));
        }
        if to == self.id {
            // loop back through the verified inbound path
            if frame.verify(&self.registry) {
                self.stats.count_delivered();
                self.inbound_tx
                    .send(frame)
                    .map_err(|_| SendError::Disconnected(to))?;
            } else {
                self.stats.count_bad_mac(frame.sig.signer);
            }
            return Ok(());
        }
        self.send_bytes(to, &frame.to_wire_bytes())
    }

    fn broadcast_upto(&self, limit: usize, frame: &Frame) -> Result<(), SendError> {
        // encode once; best-effort delivery to every peer so one stalled
        // or dead peer cannot starve the rest of the broadcast
        let bytes = frame.to_wire_bytes();
        let mut first_err = None;
        for peer in 0..limit.min(self.n()) {
            if peer == self.id.0 {
                continue;
            }
            if let Err(e) = self.send_bytes(NodeId(peer), &bytes) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Frame, RecvError> {
        let rx = self.rx.lock().expect("tcp transport rx poisoned");
        rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvError::Timeout,
            RecvTimeoutError::Disconnected => RecvError::Disconnected,
        })
    }

    fn stats(&self) -> &TransportStats {
        &self.stats
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// Convenience constructor for an all-loopback, in-process mesh (each node
/// still talks real TCP through the kernel).
#[derive(Debug)]
pub struct TcpMesh;

impl TcpMesh {
    /// Binds `registry.len()` transports on ephemeral loopback ports and
    /// cross-registers their addresses.
    pub fn launch_loopback(registry: Arc<KeyRegistry>) -> std::io::Result<Vec<TcpTransport>> {
        let n = registry.len();
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            nodes.push(TcpTransport::bind(
                NodeId(i),
                Arc::clone(&registry),
                "127.0.0.1:0".parse().expect("loopback addr parses"),
            )?);
        }
        let addrs: Vec<SocketAddr> = nodes.iter().map(TcpTransport::local_addr).collect();
        for node in &nodes {
            node.set_peer_addrs(&addrs);
        }
        Ok(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Payload;

    fn mesh(n: usize) -> (Vec<TcpTransport>, KeyRegistry) {
        let registry = KeyRegistry::new(n, 13);
        let nodes = TcpMesh::launch_loopback(Arc::new(registry.clone())).expect("mesh binds");
        (nodes, registry)
    }

    #[test]
    fn tcp_point_to_point() {
        let (nodes, reg) = mesh(3);
        let frame = Frame::sign(Payload::Ping { nonce: 77 }, &reg, NodeId(0));
        nodes[0].send(NodeId(1), frame.clone()).unwrap();
        let got = nodes[1].recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got, frame);
    }

    #[test]
    fn tcp_broadcast_and_self_loop() {
        let (nodes, reg) = mesh(4);
        let frame = Frame::sign(Payload::Ping { nonce: 5 }, &reg, NodeId(2));
        nodes[2].broadcast_others(frame.clone()).unwrap();
        nodes[2].send(NodeId(2), frame).unwrap();
        for node in &nodes {
            let got = node.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(got.sig.signer, NodeId(2));
        }
    }

    #[test]
    fn tcp_redials_a_peer_rebound_on_a_fresh_port() {
        let (mut nodes, reg) = mesh(2);
        let ping = |nonce| Frame::sign(Payload::Ping { nonce }, &reg, NodeId(0));
        nodes[0].send(NodeId(1), ping(1)).unwrap();
        assert_eq!(
            nodes[1].recv_timeout(Duration::from_secs(2)).unwrap(),
            ping(1)
        );
        // node 1 dies with its sockets and comes back on another port
        drop(nodes.pop());
        let reborn = TcpTransport::bind(
            NodeId(1),
            Arc::new(reg.clone()),
            "127.0.0.1:0".parse().unwrap(),
        )
        .unwrap();
        nodes[0].set_peer_addr(NodeId(1), reborn.local_addr());
        // the very next send reaches it: no frame goes into the dead socket
        nodes[0].send(NodeId(1), ping(2)).unwrap();
        assert_eq!(
            reborn.recv_timeout(Duration::from_secs(2)).unwrap(),
            ping(2)
        );
    }

    #[test]
    fn tcp_drops_forged_frames() {
        let (nodes, reg) = mesh(3);
        let forged = Frame::forge(Payload::Ping { nonce: 1 }, &reg, NodeId(0), NodeId(2));
        nodes[0].send(NodeId(1), forged).unwrap();
        // a genuine frame sent after the forgery must be the first delivered
        let genuine = Frame::sign(Payload::Ping { nonce: 2 }, &reg, NodeId(0));
        nodes[0].send(NodeId(1), genuine.clone()).unwrap();
        let got = nodes[1].recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got, genuine);
        let (_delivered, bad_mac, _malformed) = nodes[1].stats().snapshot();
        assert_eq!(bad_mac, 1);
    }
}
