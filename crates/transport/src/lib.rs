//! # csm-transport
//!
//! The real transport substrate for CSM nodes: authenticated,
//! length-prefixed binary frames ([`Frame`]) moved over actual I/O. Two
//! backends implement the same [`Transport`] interface:
//!
//! * [`mem::MemMesh`] — an in-process channel mesh (deterministic-ish,
//!   zero syscalls; the unit-test and benchmarking substrate), and
//! * [`tcp::TcpTransport`] — real loopback/LAN TCP sockets with a reader
//!   thread per inbound connection.
//!
//! The seeded virtual-clock [`sim::SimNet`] fabric moves the same
//! [`Frame`]s without the trait: the `csm-chaos` harness pops its
//! deliveries and timers and feeds them to the gateway core directly.
//!
//! Authentication reuses `csm_network::auth` keyed MACs, carrying the
//! paper's authenticated-Byzantine model (§2.1) onto the wire: both
//! backends verify every inbound frame's MAC against the claimed signer
//! and drop failures (counted in [`TransportStats`]), so impersonated or
//! tampered frames never reach protocol logic. Equivocation — properly
//! signed but inconsistent payloads — passes through, exactly as the model
//! allows.
//!
//! Concurrency model: the environment this crate builds in has no async
//! runtime available (no registry access for `tokio`), so "async" I/O is
//! provided with dedicated reader threads feeding `mpsc` channels — the
//! [`Transport::recv_timeout`] interface is identical to what a
//! tokio-backed implementation would expose, and backends can be swapped
//! under the same trait when a runtime becomes available.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod frame;
pub mod mem;
pub mod sim;
pub mod tcp;
pub mod wire;

pub use frame::{
    Frame, Payload, PreparedCertWire, ViewChangeWire, MAX_FRAME_BYTES, PHASE_COMMIT, PHASE_PREPARE,
    PHASE_PRE_PREPARE, WIRE_VERSION,
};
pub use wire::{Wire, WireError, WireReader};

use csm_network::auth::KeyRegistry;
use csm_network::NodeId;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Failure sending a frame.
#[derive(Debug)]
pub enum SendError {
    /// The destination id is not part of the mesh.
    UnknownPeer(NodeId),
    /// The peer's channel / socket is gone.
    Disconnected(NodeId),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::UnknownPeer(id) => write!(f, "unknown peer {}", id.0),
            SendError::Disconnected(id) => write!(f, "peer {} disconnected", id.0),
            SendError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for SendError {}

/// Failure receiving a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No frame arrived within the timeout.
    Timeout,
    /// Every inbound path has shut down.
    Disconnected,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Disconnected => write!(f, "transport disconnected"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Inbound-path counters (monotonic).
#[derive(Debug, Default)]
pub struct TransportStats {
    /// Frames delivered to the application.
    pub delivered: AtomicU64,
    /// Frames dropped because the MAC did not verify for the claimed
    /// signer (tampering or impersonation).
    pub dropped_bad_mac: AtomicU64,
    /// Frames dropped because the body failed to decode.
    pub dropped_malformed: AtomicU64,
    /// Bad-MAC drops keyed by the *claimed* signer — who each rejected
    /// frame pretended to be. The claim is the only attribution a failed
    /// MAC admits (the true sender is unknowable), and it is exactly the
    /// telemetry question: which identities are being forged.
    bad_mac_by_claimed: Mutex<BTreeMap<usize, u64>>,
}

impl TransportStats {
    /// Snapshot of the counters as `(delivered, bad_mac, malformed)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.delivered.load(Ordering::Relaxed),
            self.dropped_bad_mac.load(Ordering::Relaxed),
            self.dropped_malformed.load(Ordering::Relaxed),
        )
    }

    /// The per-claimed-signer breakdown of bad-MAC drops, sorted by id.
    pub fn bad_mac_by_peer(&self) -> Vec<(usize, u64)> {
        let map = self.bad_mac_by_claimed.lock().expect("stats poisoned");
        map.iter().map(|(&k, &v)| (k, v)).collect()
    }

    pub(crate) fn count_delivered(&self) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_bad_mac(&self, claimed: NodeId) {
        self.dropped_bad_mac.fetch_add(1, Ordering::Relaxed);
        let mut map = self.bad_mac_by_claimed.lock().expect("stats poisoned");
        *map.entry(claimed.0).or_insert(0) += 1;
    }

    pub(crate) fn count_malformed(&self) {
        self.dropped_malformed.fetch_add(1, Ordering::Relaxed);
    }

    /// The inbound check both backends make on a received frame body:
    /// decode it and verify its MAC over the payload bytes received (no
    /// re-encoding), counting it as delivered, as a bad MAC against its
    /// claimed signer, or as malformed. Returns the delivered frame.
    pub(crate) fn admit(&self, body: &[u8], registry: &KeyRegistry) -> Option<Frame> {
        let Ok((frame, signed)) = Frame::decode_signed(body) else {
            self.count_malformed();
            return None;
        };
        if registry.verify_bytes(signed, &frame.sig) {
            self.count_delivered();
            Some(frame)
        } else {
            self.count_bad_mac(frame.sig.signer);
            None
        }
    }
}

/// A point-to-point + broadcast frame mover for one node of an `n`-node
/// mesh. Implementations authenticate inbound frames (MAC verification
/// against the claimed signer) before delivery.
pub trait Transport: Send {
    /// This node's id.
    fn local_id(&self) -> NodeId;

    /// Mesh size.
    fn n(&self) -> usize;

    /// Sends a frame to one peer. Sending to self is allowed and delivers
    /// through the normal inbound path.
    fn send(&self, to: NodeId, frame: Frame) -> Result<(), SendError>;

    /// Sends a frame to every peer except this node. Delivery is
    /// best-effort: every peer is attempted even if some fail, and the
    /// first error (if any) is returned afterwards — one dead or stalled
    /// peer must not starve the rest of the broadcast.
    fn broadcast_others(&self, frame: Frame) -> Result<(), SendError> {
        self.broadcast_upto(self.n(), &frame)
    }

    /// Sends a frame to peers `0..limit` except this node — the
    /// cluster-scoped broadcast used when the mesh also hosts client
    /// endpoints (ids `>= limit`) that must not receive protocol gossip.
    /// Best-effort like [`broadcast_others`](Self::broadcast_others).
    fn broadcast_upto(&self, limit: usize, frame: &Frame) -> Result<(), SendError> {
        let mut first_err = None;
        for peer in 0..limit.min(self.n()) {
            if peer != self.local_id().0 {
                if let Err(e) = self.send(NodeId(peer), frame.clone()) {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Blocks up to `timeout` for the next authenticated frame.
    fn recv_timeout(&self, timeout: Duration) -> Result<Frame, RecvError>;

    /// Inbound-path counters.
    fn stats(&self) -> &TransportStats;
}

/// A shared endpoint is still an endpoint: every [`Transport`] method
/// takes `&self`, so an `Arc`-held transport can be driven by a node
/// runtime while an external supervisor keeps a handle to it (e.g. to
/// update a restarted peer's address mid-run — the crash-recovery
/// harness's rejoin path).
impl<T: Transport + Sync> Transport for Arc<T> {
    fn local_id(&self) -> NodeId {
        (**self).local_id()
    }

    fn n(&self) -> usize {
        (**self).n()
    }

    fn send(&self, to: NodeId, frame: Frame) -> Result<(), SendError> {
        (**self).send(to, frame)
    }

    fn broadcast_upto(&self, limit: usize, frame: &Frame) -> Result<(), SendError> {
        (**self).broadcast_upto(limit, frame)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Frame, RecvError> {
        (**self).recv_timeout(timeout)
    }

    fn stats(&self) -> &TransportStats {
        (**self).stats()
    }
}
