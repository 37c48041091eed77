//! A deterministic discrete-event network fabric (`SimNet`).
//!
//! Unlike [`crate::mem::MemMesh`] (real channels, real clocks, thread
//! scheduling nondeterminism) the fabric here owns a **virtual clock**:
//! every queued delivery and timer is keyed `(due_time, sequence)`, and
//! [`SimNet::pop`] advances the clock to the earliest pending event.
//! Runs are a pure function of the seed — the chaos harness
//! (`csm-chaos`) replays whole cluster scenarios bit-for-bit from one
//! `u64`.
//!
//! Per-ordered-pair [`LinkState`]s model partitions (link down), fixed
//! plus jittered latency (jitter also reorders), probabilistic drops and
//! duplications — all drawn from the fabric's own SplitMix64 stream, so
//! the fault pattern is part of the seed's determinism contract.
//!
//! Time is a unitless `u64` tick counter; by convention the chaos layer
//! treats ticks as virtual microseconds. Nothing here reads a real
//! clock or sleeps, which is what lets a 10k-client scenario run in
//! wall-clock seconds.

use crate::Frame;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// SplitMix64 step (same generator the engine uses for command
/// derivation): the fabric's only randomness source.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The state of one *ordered* link `(from, to)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkState {
    /// Whether the link delivers at all (a partition is links down).
    pub up: bool,
    /// Fixed one-way latency in virtual ticks.
    pub latency: u64,
    /// Uniform extra delay in `[0, jitter]` ticks — also the reordering
    /// source (two frames sent in order can land out of order).
    pub jitter: u64,
    /// Per-frame drop probability in parts per thousand.
    pub drop_permille: u16,
    /// Per-frame duplication probability in parts per thousand (the copy
    /// lands one jitter draw later).
    pub dup_permille: u16,
}

impl Default for LinkState {
    fn default() -> Self {
        LinkState {
            up: true,
            latency: 500,
            jitter: 0,
            drop_permille: 0,
            dup_permille: 0,
        }
    }
}

/// One event popped from the fabric.
#[derive(Debug, Clone)]
pub enum SimEvent {
    /// A frame crossing the (virtual) wire arrived at `to`.
    Deliver {
        /// Sending endpoint.
        from: usize,
        /// Receiving endpoint.
        to: usize,
        /// The frame, exactly as sent (authentication is the receiver's
        /// business, as on a real wire).
        frame: Frame,
    },
    /// A timer set by `owner` fired. `token` is opaque to the fabric.
    Timer {
        /// The endpoint that armed the timer.
        owner: usize,
        /// Caller-defined discriminator.
        token: u64,
    },
}

/// The deterministic discrete-event fabric: a virtual clock over a
/// totally ordered event queue, with per-link fault state.
#[derive(Debug)]
pub struct SimNet {
    endpoints: usize,
    now: u64,
    seq: u64,
    rng: u64,
    default_link: LinkState,
    links: BTreeMap<(usize, usize), LinkState>,
    queue: BinaryHeap<Queued>,
}

/// A queued event; the heap pops the smallest `(due_time, sequence)`.
#[derive(Debug)]
struct Queued {
    key: Reverse<(u64, u64)>,
    event: SimEvent,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl SimNet {
    /// A fabric of `endpoints` ids with every link at `default_link`,
    /// seeded for all jitter/drop/dup draws.
    pub fn new(endpoints: usize, seed: u64, default_link: LinkState) -> Self {
        SimNet {
            endpoints,
            now: 0,
            seq: 0,
            rng: splitmix64(seed ^ 0x51E7),
            default_link,
            links: BTreeMap::new(),
            queue: BinaryHeap::new(),
        }
    }

    /// The virtual clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of endpoints.
    pub fn endpoints(&self) -> usize {
        self.endpoints
    }

    /// Pending queued events (deliveries + timers).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    fn roll(&mut self) -> u64 {
        self.rng = splitmix64(self.rng);
        self.rng
    }

    fn link(&self, from: usize, to: usize) -> LinkState {
        *self.links.get(&(from, to)).unwrap_or(&self.default_link)
    }

    /// Overrides one ordered link's state (asymmetric delay is setting
    /// only one direction).
    pub fn set_link(&mut self, from: usize, to: usize, state: LinkState) {
        self.links.insert((from, to), state);
    }

    /// Current state of an ordered link.
    pub fn link_state(&self, from: usize, to: usize) -> LinkState {
        self.link(from, to)
    }

    /// Cuts every link between set `a` and set `b`, both directions.
    pub fn partition(&mut self, a: &[usize], b: &[usize]) {
        for &x in a {
            for &y in b {
                let mut ab = self.link(x, y);
                ab.up = false;
                self.links.insert((x, y), ab);
                let mut ba = self.link(y, x);
                ba.up = false;
                self.links.insert((y, x), ba);
            }
        }
    }

    /// Brings every link back up (latency/jitter/fault overrides are
    /// kept; only the partition bit is cleared).
    pub fn heal_all(&mut self) {
        self.default_link.up = true;
        for state in self.links.values_mut() {
            state.up = true;
        }
    }

    fn enqueue_at(&mut self, due: u64, event: SimEvent) {
        let key = Reverse((due.max(self.now), self.seq));
        self.seq += 1;
        self.queue.push(Queued { key, event });
    }

    /// Sends `frame` from `from` to `to` through the link's current
    /// state: dropped links and drop rolls discard it, jitter perturbs
    /// the delivery time, duplication queues a second copy.
    pub fn send(&mut self, from: usize, to: usize, frame: Frame) {
        if to >= self.endpoints {
            return;
        }
        let link = self.link(from, to);
        if !link.up {
            return;
        }
        if link.drop_permille > 0 && (self.roll() % 1000) < u64::from(link.drop_permille) {
            return;
        }
        let jitter = if link.jitter > 0 {
            self.roll() % (link.jitter + 1)
        } else {
            0
        };
        let due = self.now + link.latency + jitter;
        let dup = link.dup_permille > 0 && (self.roll() % 1000) < u64::from(link.dup_permille);
        if dup {
            let extra = if link.jitter > 0 {
                self.roll() % (link.jitter + 1)
            } else {
                0
            };
            self.enqueue_at(
                due + 1 + extra,
                SimEvent::Deliver {
                    from,
                    to,
                    frame: frame.clone(),
                },
            );
        }
        self.enqueue_at(due, SimEvent::Deliver { from, to, frame });
    }

    /// Sends `frame` from `from` to every endpoint in `0..limit` except
    /// itself (the cluster-scoped broadcast shape).
    pub fn broadcast_upto(&mut self, from: usize, limit: usize, frame: &Frame) {
        for to in 0..limit.min(self.endpoints) {
            if to != from {
                self.send(from, to, frame.clone());
            }
        }
    }

    /// Arms a timer for `owner` at absolute virtual time `at`.
    pub fn set_timer(&mut self, owner: usize, at: u64, token: u64) {
        self.enqueue_at(at, SimEvent::Timer { owner, token });
    }

    /// Pops the earliest pending event, advancing the virtual clock to
    /// its due time. `None` means the simulation is quiescent.
    pub fn pop(&mut self) -> Option<(u64, SimEvent)> {
        let Queued {
            key: Reverse((due, _)),
            event,
        } = self.queue.pop()?;
        self.now = self.now.max(due);
        Some((due, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Payload;
    use csm_network::auth::KeyRegistry;
    use csm_network::NodeId;

    fn ping(registry: &KeyRegistry, from: usize, token: u64) -> Frame {
        Frame::sign(Payload::Ping { nonce: token }, registry, NodeId(from))
    }

    #[test]
    fn deliveries_follow_virtual_latency_order() {
        let mut net = SimNet::new(3, 1, LinkState::default());
        let registry = KeyRegistry::new(3, 9);
        net.set_link(
            0,
            2,
            LinkState {
                latency: 5_000,
                ..LinkState::default()
            },
        );
        net.send(0, 2, ping(&registry, 0, 1)); // due at 5000
        net.send(0, 1, ping(&registry, 0, 2)); // due at 500
        let (t1, e1) = net.pop().unwrap();
        let (t2, e2) = net.pop().unwrap();
        assert_eq!((t1, t2), (500, 5_000));
        assert!(matches!(e1, SimEvent::Deliver { to: 1, .. }));
        assert!(matches!(e2, SimEvent::Deliver { to: 2, .. }));
        assert_eq!(net.now(), 5_000);
    }

    #[test]
    fn partition_drops_and_heal_restores() {
        let mut net = SimNet::new(4, 2, LinkState::default());
        let registry = KeyRegistry::new(4, 9);
        net.partition(&[0, 1], &[2, 3]);
        net.send(0, 2, ping(&registry, 0, 1));
        net.send(2, 1, ping(&registry, 2, 2));
        net.send(0, 1, ping(&registry, 0, 3)); // same side: unaffected
        assert_eq!(net.pending(), 1);
        net.heal_all();
        net.send(0, 2, ping(&registry, 0, 4));
        assert_eq!(net.pending(), 2);
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        let run = |seed: u64| {
            let link = LinkState {
                jitter: 400,
                drop_permille: 300,
                dup_permille: 200,
                ..LinkState::default()
            };
            let mut net = SimNet::new(2, seed, link);
            let registry = KeyRegistry::new(2, 9);
            for i in 0..50 {
                net.send(0, 1, ping(&registry, 0, i));
            }
            let mut arrivals = Vec::new();
            while let Some((t, SimEvent::Deliver { frame, .. })) = net.pop() {
                let Payload::Ping { nonce: token } = frame.payload else {
                    continue;
                };
                arrivals.push((t, token));
            }
            arrivals
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds draw different faults");
    }

    #[test]
    fn timers_interleave_with_deliveries() {
        let mut net = SimNet::new(2, 3, LinkState::default());
        let registry = KeyRegistry::new(2, 9);
        net.set_timer(1, 100, 42);
        net.send(0, 1, ping(&registry, 0, 1)); // due 500
        net.set_timer(0, 900, 7);
        let order: Vec<u64> = std::iter::from_fn(|| net.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![100, 500, 900]);
    }
}
