//! In-process transport: an `n`-node mesh of mpsc channels.
//!
//! Frames cross the mesh as encoded bytes (the same `[len][body]` framing
//! TCP uses) so the codec and MAC paths are exercised identically to the
//! real network backend — a frame that would be rejected on the wire is
//! rejected here too. The receiver MACs the payload bytes it received.

use crate::frame::Frame;
use crate::{RecvError, SendError, Transport, TransportStats};
use csm_network::auth::KeyRegistry;
use csm_network::NodeId;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Builder for an in-process mesh.
#[derive(Debug)]
pub struct MemMesh;

impl MemMesh {
    /// Creates one [`MemTransport`] per registered node, fully connected.
    pub fn build(registry: Arc<KeyRegistry>) -> Vec<MemTransport> {
        let n = registry.len();
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel::<Vec<u8>>();
            senders.push(tx);
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| MemTransport {
                id: NodeId(i),
                registry: Arc::clone(&registry),
                peers: senders.clone(),
                rx: Mutex::new(rx),
                stats: TransportStats::default(),
            })
            .collect()
    }
}

/// One node's endpoint in a [`MemMesh`].
#[derive(Debug)]
pub struct MemTransport {
    id: NodeId,
    registry: Arc<KeyRegistry>,
    peers: Vec<Sender<Vec<u8>>>,
    rx: Mutex<Receiver<Vec<u8>>>,
    stats: TransportStats,
}

impl Transport for MemTransport {
    fn local_id(&self) -> NodeId {
        self.id
    }

    fn n(&self) -> usize {
        self.peers.len()
    }

    fn send(&self, to: NodeId, frame: Frame) -> Result<(), SendError> {
        let tx = self.peers.get(to.0).ok_or(SendError::UnknownPeer(to))?;
        tx.send(frame.to_wire_bytes())
            .map_err(|_| SendError::Disconnected(to))
    }

    fn broadcast_upto(&self, limit: usize, frame: &Frame) -> Result<(), SendError> {
        // encode once and share the bytes; best-effort across peers
        let bytes = frame.to_wire_bytes();
        let mut first_err = None;
        for (peer, tx) in self.peers.iter().take(limit).enumerate() {
            if peer == self.id.0 {
                continue;
            }
            if tx.send(bytes.clone()).is_err() {
                first_err.get_or_insert(SendError::Disconnected(NodeId(peer)));
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Frame, RecvError> {
        let deadline = std::time::Instant::now() + timeout;
        let rx = self.rx.lock().expect("mem transport rx poisoned");
        loop {
            let now = std::time::Instant::now();
            let remaining = deadline.saturating_duration_since(now);
            let bytes = rx.recv_timeout(remaining).map_err(|e| match e {
                RecvTimeoutError::Timeout => RecvError::Timeout,
                RecvTimeoutError::Disconnected => RecvError::Disconnected,
            })?;
            match framed_body(&bytes) {
                Some(body) => {
                    if let Some(frame) = self.stats.admit(body, &self.registry) {
                        return Ok(frame);
                    }
                }
                None => self.stats.count_malformed(),
            }
            // dropped frame: keep waiting within the same deadline
        }
    }

    fn stats(&self) -> &TransportStats {
        &self.stats
    }
}

/// The body of one `[len][body]` buffer, if its prefix frames it exactly.
fn framed_body(bytes: &[u8]) -> Option<&[u8]> {
    let (len, body) = bytes.split_first_chunk::<4>()?;
    (u32::from_le_bytes(*len) as usize == body.len()).then_some(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Payload;

    fn mesh(n: usize) -> Vec<MemTransport> {
        MemMesh::build(Arc::new(KeyRegistry::new(n, 7)))
    }

    fn ping(registry: &KeyRegistry, from: usize, nonce: u64) -> Frame {
        Frame::sign(Payload::Ping { nonce }, registry, NodeId(from))
    }

    #[test]
    fn point_to_point_delivery() {
        let nodes = mesh(3);
        let reg = KeyRegistry::new(3, 7);
        nodes[0]
            .send(NodeId(2), ping(&reg, 0, 11))
            .expect("send ok");
        let got = nodes[2].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(got.payload, Payload::Ping { nonce: 11 });
        assert_eq!(got.sig.signer, NodeId(0));
    }

    #[test]
    fn broadcast_reaches_everyone_but_self() {
        let nodes = mesh(4);
        let reg = KeyRegistry::new(4, 7);
        nodes[1].broadcast_others(ping(&reg, 1, 5)).unwrap();
        for (i, node) in nodes.iter().enumerate() {
            if i == 1 {
                assert_eq!(
                    node.recv_timeout(Duration::from_millis(50)),
                    Err(RecvError::Timeout)
                );
            } else {
                assert!(node.recv_timeout(Duration::from_secs(1)).is_ok());
            }
        }
    }

    #[test]
    fn forged_frames_dropped_with_stat() {
        let nodes = mesh(3);
        let reg = KeyRegistry::new(3, 7);
        // node 0 impersonates node 1
        let forged = Frame::forge(Payload::Ping { nonce: 9 }, &reg, NodeId(0), NodeId(1));
        nodes[0].send(NodeId(2), forged).unwrap();
        assert_eq!(
            nodes[2].recv_timeout(Duration::from_millis(50)),
            Err(RecvError::Timeout)
        );
        assert_eq!(nodes[2].stats().snapshot(), (0, 1, 0));
        // attributed to the *claimed* signer, node 1
        assert_eq!(nodes[2].stats().bad_mac_by_peer(), vec![(1, 1)]);
    }

    #[test]
    fn tampered_bytes_are_dropped_and_counted() {
        let nodes = mesh(3);
        let reg = KeyRegistry::new(3, 7);
        let wire = ping(&reg, 0, 21).to_wire_bytes();
        let tamper = |pos: usize, to: u8| {
            let mut bytes = wire.clone();
            bytes[pos] = to;
            nodes[0].peers[2].send(bytes).unwrap();
        };
        // a flipped tag bit and a flipped payload byte: bad MACs
        let (tag_at, nonce_at) = (wire.len() - 8, 4 + 1 + 1);
        tamper(tag_at, wire[tag_at] ^ 1);
        tamper(nonce_at, wire[nonce_at] ^ 1);
        // a peer on the byte-wise MAC of wire version 1: malformed
        tamper(4, 1);
        assert_eq!(
            nodes[2].recv_timeout(Duration::from_millis(50)),
            Err(RecvError::Timeout)
        );
        assert_eq!(nodes[2].stats().snapshot(), (0, 2, 1));
        assert_eq!(nodes[2].stats().bad_mac_by_peer(), vec![(0, 2)]);
    }

    #[test]
    fn unknown_peer_rejected() {
        let nodes = mesh(2);
        let reg = KeyRegistry::new(2, 7);
        assert!(matches!(
            nodes[0].send(NodeId(9), ping(&reg, 0, 1)),
            Err(SendError::UnknownPeer(NodeId(9)))
        ));
    }
}
