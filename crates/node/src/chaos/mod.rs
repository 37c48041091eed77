//! # Deterministic chaos harness (`csm-chaos`)
//!
//! A discrete-event simulation of a whole CSM cluster — gateways,
//! durable stores, consensus backends, recovery paths, and a client
//! swarm — driven by a single seed on a virtual clock. The network is
//! the seeded [`csm_transport::sim::SimNet`] fabric; every node is the
//! production [`crate::core::GatewayCore`] — the same round machine
//! `run_gateway` drives on a wall clock — stepped by the fabric's
//! deliveries and timers, so protocol decisions (staging, exchange,
//! decode, desync, resync, WAL-before-ack) are the *shipping code*
//! exercised without threads or wall-clock time. What the harness still
//! fakes is the world around the core: links, the clock, the transport's
//! MAC check, and process crashes (`docs/CHAOS.md`).
//!
//! ## The replay contract
//!
//! A run is a pure function of `(ChaosConfig, Schedule)`: the virtual
//! clock, the fabric's seeded jitter/drop rolls, and the schedule are
//! the only sources of ordering. [`runner::replay_check`] double-runs a
//! schedule and compares telemetry traces, per-round commit digests,
//! client acknowledgements, and ledgers bit-for-bit.
//!
//! ## What a run checks (the audit in `runner`)
//!
//! * **S1 — contained splits.** For every wire round, all honest nodes
//!   that still *vouch* for the round (have not fail-stopped on the
//!   desync check, resynced past it, or crashed) agree on one commit
//!   digest. A divergence the protocol *detects* (fail-stop/resync) is
//!   containment working — the documented leader-echo holes make
//!   detected divergence reachable; an *unflagged* split is a safety
//!   violation.
//! * **S2 — no lost acknowledged command.** A client acknowledgement
//!   requires `b + 1` matching replies, hence at least one honest
//!   committer: every acked `(client, seq)` must appear in some honest
//!   node's committed ledger, and some honest node must have replied the
//!   acked output (`WrongAck` otherwise: more than `b` nodes lied
//!   alike). Durable restarts additionally assert the replayed dedup
//!   horizons cover everything the node replied to before crashing
//!   (WAL-before-ack made durable).
//! * **S3 — liveness on heal.** Every generated schedule ends with a
//!   full heal followed by a *probe* burst; scenarios assert the probe
//!   is fully acknowledged by the horizon.
//!
//! ## Sizing note: when can a partition split commits?
//!
//! Commit digests cover the *decoded* word, so a batch divergence among
//! `≤ b` nodes is corrected by the Reed–Solomon decode (they commit the
//! majority's digest) and a divergence among `> b` nodes makes the word
//! undecodable everywhere (nobody commits). The only way two honest
//! groups commit *different* digests for a round is a partition where
//! both sides decode from their own results alone — which needs the
//! minority to reach the code dimension: `minority ≥ d^cap(K−1) + 1`.
//! Under leader-echo the committing majority needs `N − b` nodes, so the
//! minority has at most `b`: **sizing the code dimension above `b` makes
//! partition-split commits impossible**, while `dim ≤ b` (large fault
//! provisioning over a small code) admits the documented split-then-
//! desync/resync flow — exercised by the `asymmetric_delay_leader`
//! scenario. See `docs/CHAOS.md`.

pub mod client;
pub mod runner;
pub mod scenarios;
pub mod schedule;
pub mod shrink;

pub use runner::{
    replay_check, run_schedule, run_schedule_with_telemetry, ChaosConfig, ChaosRun, NodeOutcome,
    Violation,
};
pub use schedule::{random_schedule, random_schedule_sync, ChaosEvent, Schedule};

/// Fabric timer tokens. Bits 60–63 hold the kind — a node timer's
/// [`TimerKind`](crate::core::TimerKind), or one of the harness kinds
/// below — bits 52–59 the arming node's restart count (so a timer armed
/// before a crash is dead after the restart), bits 20–51 a 32-bit `a`
/// field (the round) and bits 0–19 a 20-bit `b` field (the timer epoch).
pub(crate) mod token {
    use crate::core::{TimerId, TimerKind};

    /// Client retry tick (owner is the client endpoint; `a` = client
    /// index, `b` = seq).
    pub(crate) const K_RETRY: u64 = 7;
    /// Schedule control event (`a` = event index).
    pub(crate) const K_CONTROL: u64 = 15;

    const NODE_KINDS: [TimerKind; TimerKind::COUNT] = [
        TimerKind::Next,
        TimerKind::Stage,
        TimerKind::Exchange,
        TimerKind::Pbft,
        TimerKind::Resync,
        TimerKind::Decode,
    ];

    /// A core timer armed during the node's `life`-th life.
    pub(crate) fn pack_timer(id: TimerId, life: u64) -> u64 {
        pack(id.kind as u64, life, id.round, id.epoch)
    }

    /// The core timer behind `t`, if the node's current `life` armed it.
    pub(crate) fn unpack_timer(t: u64, life: u64) -> Option<TimerId> {
        let kind = *NODE_KINDS.get(kind(t) as usize)?;
        (epoch(t) == life & 0xFF).then_some(TimerId {
            kind,
            round: a(t),
            epoch: b(t),
        })
    }

    /// Packs `(kind, epoch, a, b)` into one token.
    pub(crate) fn pack(kind: u64, epoch: u64, a: u64, b: u64) -> u64 {
        (kind << 60) | ((epoch & 0xFF) << 52) | ((a & 0xFFFF_FFFF) << 20) | (b & 0xF_FFFF)
    }

    /// The token's kind bits.
    pub(crate) fn kind(t: u64) -> u64 {
        t >> 60
    }

    /// The token's epoch bits.
    pub(crate) fn epoch(t: u64) -> u64 {
        (t >> 52) & 0xFF
    }

    /// The token's `a` field.
    pub(crate) fn a(t: u64) -> u64 {
        (t >> 20) & 0xFFFF_FFFF
    }

    /// The token's `b` field.
    pub(crate) fn b(t: u64) -> u64 {
        t & 0xF_FFFF
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn token_roundtrip() {
            let id = TimerId {
                kind: TimerKind::Pbft,
                round: 123_456,
                epoch: 77,
            };
            let t = pack_timer(id, 3);
            assert_eq!((epoch(t), a(t), b(t)), (3, 123_456, 77));
            assert_eq!(unpack_timer(t, 3), Some(id));
            // a timer from an earlier life, or a harness token, is not
            // a node timer
            assert_eq!(unpack_timer(t, 4), None);
            assert_eq!(unpack_timer(pack(K_RETRY, 3, 1, 2), 3), None);
        }

        #[test]
        fn token_fields_mask() {
            let t = pack(K_RETRY, 0x1FF, u64::MAX, u64::MAX);
            assert_eq!(epoch(t), 0xFF);
            assert_eq!(a(t), 0xFFFF_FFFF);
            assert_eq!(b(t), 0xF_FFFF);
        }
    }
}
