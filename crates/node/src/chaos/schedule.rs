//! The chaos `Schedule`: a seeded program of link, node, and load events
//! executed on the virtual clock.
//!
//! A schedule is plain data — a sorted list of `(tick, event)` pairs plus
//! the seed that feeds every random decision of the run (link jitter,
//! drop rolls, command values). Running the same `(config, schedule)`
//! twice replays bit-for-bit: the virtual clock, the event queue, and the
//! seeded RNG are the only sources of ordering, and none of them read
//! wall-clock time. [`random_schedule`] derives a bounded schedule from a
//! single seed — the generator used by the randomized CI job and the
//! `csm-node chaos --random` sweep — and always ends with a heal + probe
//! burst so liveness-on-heal is checkable.

use csm_transport::sim::LinkState;

/// One scheduled fault/load injection, applied at its virtual tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Cut every link between node set `a` and node set `b` (both
    /// directions). Sets may be any subset of the cluster; unlisted
    /// nodes keep all their links.
    Partition {
        /// One side of the cut.
        a: Vec<usize>,
        /// The other side.
        b: Vec<usize>,
    },
    /// Restore every cut link (latency/jitter/drop overrides persist).
    Heal,
    /// Override one directed link's delivery characteristics
    /// (latency/jitter/drop/duplication — and `up`, so a one-way cut is
    /// expressible: asymmetric partitions are exactly the regime the
    /// leader-echo hole needs).
    SetLink {
        /// Sending endpoint.
        from: usize,
        /// Receiving endpoint.
        to: usize,
        /// The new link state.
        link: LinkState,
    },
    /// Hard-kill a node: it stops sending, receiving, and ticking. A
    /// durable node can come back via [`ChaosEvent::Restart`]; a plain
    /// (non-durable) node stays dead, like a crash fault.
    Crash {
        /// The node to kill.
        node: usize,
    },
    /// Restart a crashed durable node through the real recovery path:
    /// reopen the store, replay `snapshot + log`, then resync from peers.
    /// Ignored for plain clusters (documented: a plain crash is final).
    Restart {
        /// The node to restart.
        node: usize,
    },
    /// Stop a node's clock: deliveries and timers buffer until resume
    /// (models a long GC/scheduling stall, not a crash — no state is
    /// lost and no recovery path runs).
    Pause {
        /// The node to pause.
        node: usize,
    },
    /// Resume a paused node, delivering everything buffered while it
    /// was stalled.
    Resume {
        /// The node to resume.
        node: usize,
    },
    /// A client load burst: `clients` consecutive virtual clients
    /// (starting at index `first_client`) each submit `commands`
    /// seeded commands against the admission quotas.
    Burst {
        /// First client index (0-based; mesh id is `cluster + index`).
        first_client: usize,
        /// How many consecutive clients fire.
        clients: usize,
        /// Commands per client in this burst.
        commands: usize,
        /// Marks the liveness probe: every command of a probe burst must
        /// be acknowledged by the end of the run (asserted after the
        /// final heal — the liveness-on-heal check).
        probe: bool,
    },
    /// A hostile client: client `client` broadcasts a `Submit` it signed
    /// with its *own* key but naming client `victim` — at the victim's
    /// next sequence number, where a queued copy would do most damage.
    /// Every honest node must drop it at intake; a node that queues it
    /// poisons every batch it later leads (no validator accepts the
    /// forged row).
    SpoofedSubmit {
        /// The spoofing client's index.
        client: usize,
        /// The impersonated client's index.
        victim: usize,
    },
}

/// A seeded, bounded chaos program over a virtual-clock cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Seeds every random decision of the run (fabric jitter/drop rolls
    /// and generated command values). The replay contract: same config +
    /// same schedule (including this seed) ⇒ bit-identical traces.
    pub seed: u64,
    /// Virtual ticks to run (1 tick = 1 µs of virtual time). Events
    /// still queued past the horizon are not executed.
    pub horizon: u64,
    /// The event program, applied at the given virtual ticks. Kept
    /// sorted by tick (ties execute in list order).
    pub events: Vec<(u64, ChaosEvent)>,
}

impl Schedule {
    /// A schedule with no injected faults or load: the cluster idles
    /// until the horizon.
    pub fn quiet(seed: u64, horizon: u64) -> Self {
        Schedule {
            seed,
            horizon,
            events: Vec::new(),
        }
    }

    /// Appends an event (builder-style), keeping the list sorted.
    #[must_use]
    pub fn at(mut self, tick: u64, event: ChaosEvent) -> Self {
        self.events.push((tick, event));
        self.events.sort_by_key(|(t, _)| *t);
        self
    }

    /// The probe `(client, commands)` load implied by the schedule's
    /// probe bursts (empty when no probe burst is scheduled).
    pub fn probe_load(&self) -> Vec<(usize, usize)> {
        self.events
            .iter()
            .filter_map(|(_, e)| match e {
                ChaosEvent::Burst {
                    first_client,
                    clients,
                    commands,
                    probe: true,
                } => Some((*first_client, *clients, *commands)),
                _ => None,
            })
            .flat_map(|(first, n, cmds)| (first..first + n).map(move |c| (c, cmds)))
            .collect()
    }
}

/// `splitmix64` — the repo's standard seeded stream (also used by the
/// digest and the sim fabric), good enough for schedule generation.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Derives a bounded random schedule from one seed: 1–2 partitions (each
/// healed), a few latency/jitter link overrides, a pause/resume stall,
/// optionally a crash/restart pair (durable clusters), and 1–3 client
/// bursts — then always a final [`ChaosEvent::Heal`] followed by a probe
/// burst, so every generated schedule ends in a checkable
/// liveness-on-heal window.
///
/// Bounds (relative to the default Δ = 500 ticks): override latency ≤
/// 1 500 ticks and drop ≤ 30 %, so a healed network always satisfies the
/// staging/exchange timeouts and the probe can complete.
pub fn random_schedule(seed: u64, cluster: usize, clients: usize, durable: bool) -> Schedule {
    let mut rng = Rng(splitmix64(seed ^ 0xC0A5));
    let horizon = 400_000; // 0.4 virtual seconds
    let heal_at = horizon * 3 / 5;
    let mut s = Schedule::quiet(seed, horizon);

    // opening load
    let burst_clients = (1 + rng.below(clients.min(8) as u64)) as usize;
    s = s.at(
        1_000,
        ChaosEvent::Burst {
            first_client: 0,
            clients: burst_clients,
            commands: 1 + rng.below(3) as usize,
            probe: false,
        },
    );

    // partitions, each healed before the final heal anyway
    for _ in 0..=rng.below(2) {
        let start = 10_000 + rng.below(heal_at / 2);
        let cut = 1 + rng.below((cluster - 1) as u64) as usize;
        let a: Vec<usize> = (0..cut).collect();
        let b: Vec<usize> = (cut..cluster).collect();
        s = s.at(start, ChaosEvent::Partition { a, b });
        s = s.at(start + 20_000 + rng.below(40_000), ChaosEvent::Heal);
    }

    // asymmetric latency / lossy-link overrides (bounded to keep the
    // healed network inside the protocol timeouts)
    for _ in 0..rng.below(3) {
        let from = rng.below(cluster as u64) as usize;
        let to = rng.below(cluster as u64) as usize;
        s = s.at(
            5_000 + rng.below(heal_at),
            ChaosEvent::SetLink {
                from,
                to,
                link: LinkState {
                    up: true,
                    latency: 500 + rng.below(1_000),
                    jitter: rng.below(200),
                    drop_permille: rng.below(300) as u16,
                    dup_permille: rng.below(100) as u16,
                },
            },
        );
    }

    // one stall (pause/resume) — and, on durable clusters, one real
    // crash/restart through the recovery path
    let stalled = rng.below(cluster as u64) as usize;
    let stall_at = 20_000 + rng.below(heal_at / 2);
    s = s.at(stall_at, ChaosEvent::Pause { node: stalled });
    s = s.at(
        stall_at + 5_000 + rng.below(20_000),
        ChaosEvent::Resume { node: stalled },
    );
    if durable {
        let victim = rng.below(cluster as u64) as usize;
        let crash_at = 30_000 + rng.below(heal_at / 2);
        s = s.at(crash_at, ChaosEvent::Crash { node: victim });
        s = s.at(
            crash_at + 10_000 + rng.below(30_000),
            ChaosEvent::Restart { node: victim },
        );
    }

    // mid-run load
    for _ in 0..rng.below(2) {
        let first = rng.below(clients.max(1) as u64) as usize;
        let n = (1 + rng.below(4)) as usize;
        s = s.at(
            10_000 + rng.below(heal_at),
            ChaosEvent::Burst {
                first_client: first.min(clients.saturating_sub(n)),
                clients: n.min(clients),
                commands: 1 + rng.below(2) as usize,
                probe: false,
            },
        );
    }

    // the closing contract: heal everything, reset every override to the
    // default link, then probe
    s = s.at(heal_at, ChaosEvent::Heal);
    for from in 0..cluster {
        for to in 0..cluster {
            if from != to {
                s = s.at(
                    heal_at + 1,
                    ChaosEvent::SetLink {
                        from,
                        to,
                        link: LinkState::default(),
                    },
                );
            }
        }
    }
    s.at(
        heal_at + 10_000,
        ChaosEvent::Burst {
            first_client: 0,
            clients: clients.clamp(1, 3),
            commands: 1,
            probe: true,
        },
    )
}

/// [`random_schedule`] restricted to Dolev–Strong's fault model: DS
/// tolerates any `b < N` *Byzantine* nodes but assumes synchrony — every
/// honest-to-honest message delivered within Δ. A partition or a dropped
/// relay violates that assumption and lets the leader's side decide the
/// value while the cut side times out to the shared ⊥ fallback: a
/// genuine per-round digest split that no later evidence can flag (see
/// `docs/CHAOS.md`). So this generator keeps the stalls, crashes,
/// duplication, and bounded extra latency — faults DS repairs through
/// the desync/resync path — and draws no partition and no lossy link.
pub fn random_schedule_sync(seed: u64, cluster: usize, clients: usize, durable: bool) -> Schedule {
    let mut rng = Rng(splitmix64(seed ^ 0x5D5C));
    let horizon = 400_000;
    let heal_at = horizon * 3 / 5;
    let mut s = Schedule::quiet(seed, horizon);

    s = s.at(
        1_000,
        ChaosEvent::Burst {
            first_client: 0,
            clients: (1 + rng.below(clients.min(8) as u64)) as usize,
            commands: 1 + rng.below(3) as usize,
            probe: false,
        },
    );

    // latency-only overrides, still inside the relay-round bound Δ
    for _ in 0..rng.below(3) {
        let from = rng.below(cluster as u64) as usize;
        let to = rng.below(cluster as u64) as usize;
        s = s.at(
            5_000 + rng.below(heal_at),
            ChaosEvent::SetLink {
                from,
                to,
                link: LinkState {
                    up: true,
                    latency: 500 + rng.below(1_000),
                    jitter: rng.below(200),
                    drop_permille: 0,
                    dup_permille: rng.below(100) as u16,
                },
            },
        );
    }

    let stalled = rng.below(cluster as u64) as usize;
    let stall_at = 20_000 + rng.below(heal_at / 2);
    s = s.at(stall_at, ChaosEvent::Pause { node: stalled });
    s = s.at(
        stall_at + 5_000 + rng.below(20_000),
        ChaosEvent::Resume { node: stalled },
    );
    if durable {
        let victim = rng.below(cluster as u64) as usize;
        let crash_at = 30_000 + rng.below(heal_at / 2);
        s = s.at(crash_at, ChaosEvent::Crash { node: victim });
        s = s.at(
            crash_at + 10_000 + rng.below(30_000),
            ChaosEvent::Restart { node: victim },
        );
    }

    for _ in 0..rng.below(2) {
        let first = rng.below(clients.max(1) as u64) as usize;
        let n = (1 + rng.below(4)) as usize;
        s = s.at(
            10_000 + rng.below(heal_at),
            ChaosEvent::Burst {
                first_client: first.min(clients.saturating_sub(n)),
                clients: n.min(clients),
                commands: 1 + rng.below(2) as usize,
                probe: false,
            },
        );
    }

    // same closing contract as `random_schedule`: restore the default
    // links, then probe into the quiet tail
    for from in 0..cluster {
        for to in 0..cluster {
            if from != to {
                s = s.at(
                    heal_at + 1,
                    ChaosEvent::SetLink {
                        from,
                        to,
                        link: LinkState::default(),
                    },
                );
            }
        }
    }
    s.at(
        heal_at + 10_000,
        ChaosEvent::Burst {
            first_client: 0,
            clients: clients.clamp(1, 3),
            commands: 1,
            probe: true,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_schedule_is_deterministic_and_ends_with_probe() {
        let a = random_schedule(42, 4, 6, true);
        let b = random_schedule(42, 4, 6, true);
        assert_eq!(a, b);
        assert!(
            !a.probe_load().is_empty(),
            "generator must schedule a probe"
        );
        let heal = a
            .events
            .iter()
            .rposition(|(_, e)| matches!(e, ChaosEvent::Heal))
            .expect("generator must heal");
        let probe = a
            .events
            .iter()
            .rposition(|(_, e)| matches!(e, ChaosEvent::Burst { probe: true, .. }))
            .expect("probe burst");
        assert!(a.events[heal].0 < a.events[probe].0, "probe follows heal");
        assert!(a.events[probe].0 < a.horizon);
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            random_schedule(1, 4, 6, false),
            random_schedule(2, 4, 6, false)
        );
    }

    #[test]
    fn builder_keeps_events_sorted() {
        let s = Schedule::quiet(7, 100)
            .at(50, ChaosEvent::Heal)
            .at(10, ChaosEvent::Crash { node: 0 });
        assert_eq!(s.events[0].0, 10);
        assert_eq!(s.events[1].0, 50);
    }
}
