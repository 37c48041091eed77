//! The event taxonomy: pipeline phases and typed incident events, with
//! `(node, round, peer)` attribution.
//!
//! Phases partition one committed round's wall clock; events mark the
//! discrete incidents the round loop, consensus drivers, and recovery
//! path can observe. Both are deliberately small closed enums — the
//! snapshot wire format and the flight-recorder dump schema name them by
//! the strings returned from [`Phase::as_str`] / [`Event::name`], so
//! adding a variant is a documented schema change (see
//! `docs/OBSERVABILITY.md`).

/// One timed segment of a round's pipeline.
///
/// The `consensus.*` sub-phases nest inside [`Phase::Consensus`]; the
/// top-level phases ([`Phase::is_top_level`]) partition the round, so
/// their durations sum to ≈ [`Phase::Round`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The whole batch-agreement call, whatever the backend.
    Consensus,
    /// Leader proposal / PBFT pre-prepare (sub-phase).
    ConsensusPropose,
    /// Dolev–Strong relay rounds (sub-phase).
    ConsensusRelay,
    /// PBFT prepare quorum (sub-phase).
    ConsensusPrepare,
    /// PBFT commit quorum / leader-echo adoption (sub-phase).
    ConsensusCommit,
    /// PBFT view-change interludes (sub-phase).
    ConsensusViewChange,
    /// Coded transition execution (encode + evaluate).
    Execute,
    /// The §5.2 result exchange (Δ-deadline / cutoff wait).
    Exchange,
    /// Reed–Solomon decode + commit of the finalized word.
    Decode,
    /// Write-ahead-log append + fsync (durable gateways only).
    WalFsync,
    /// Client reply fan-out.
    Reply,
    /// The whole round, begin to reply — the end-to-end reference the
    /// top-level phases are validated against.
    Round,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 12] = [
        Phase::Consensus,
        Phase::ConsensusPropose,
        Phase::ConsensusRelay,
        Phase::ConsensusPrepare,
        Phase::ConsensusCommit,
        Phase::ConsensusViewChange,
        Phase::Execute,
        Phase::Exchange,
        Phase::Decode,
        Phase::WalFsync,
        Phase::Reply,
        Phase::Round,
    ];

    /// The snapshot/dump schema name of this phase.
    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::Consensus => "consensus",
            Phase::ConsensusPropose => "consensus.propose",
            Phase::ConsensusRelay => "consensus.relay",
            Phase::ConsensusPrepare => "consensus.prepare",
            Phase::ConsensusCommit => "consensus.commit",
            Phase::ConsensusViewChange => "consensus.view-change",
            Phase::Execute => "execute",
            Phase::Exchange => "exchange",
            Phase::Decode => "decode",
            Phase::WalFsync => "wal-fsync",
            Phase::Reply => "reply",
            Phase::Round => "round",
        }
    }

    /// Whether this phase is part of the non-overlapping top-level
    /// partition of a round (sub-phases and the round total are not).
    pub fn is_top_level(&self) -> bool {
        matches!(
            self,
            Phase::Consensus
                | Phase::Execute
                | Phase::Exchange
                | Phase::Decode
                | Phase::WalFsync
                | Phase::Reply
        )
    }

    /// Parses a schema name back into a phase.
    pub fn from_str_opt(s: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.as_str() == s)
    }
}

/// A discrete incident, attributed via the carrying [`EventRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The transport dropped a frame whose MAC did not verify for the
    /// claimed signer (the record's `peer`): tampering or impersonation.
    MacRejected,
    /// The decoder identified the record's `peer` as having broadcast an
    /// erroneous coded result (Byzantine detection as a side effect of
    /// decoding, §5.2).
    EquivocationDetected,
    /// A state-transfer `StateChunk` served by the record's `peer` failed
    /// the digest check against the `b + 1`-corroborated commit digest:
    /// the peer vouched for results it does not hold.
    StateChunkRejected,
    /// A client submit was dropped because the admission queue was full.
    AdmissionDrop {
        /// The dropped client's id.
        client: u64,
    },
    /// A client submit was deduplicated against the committed horizon.
    DedupHit {
        /// The deduplicated client's id.
        client: u64,
    },
    /// A retried submit was answered from the reply cache.
    ReplyCacheHit {
        /// The retrying client's id.
        client: u64,
    },
    /// A cached reply was evicted by the global cache cap.
    ReplyCacheEviction {
        /// The evicted client's id.
        client: u64,
    },
    /// Staging quorum never formed; the node fell back to its own batch.
    StageFallback,
    /// Consensus yielded no decided batch; the empty round fallback ran.
    EmptyRound,
    /// A PBFT view change installed a new view.
    ViewChange {
        /// The view that was installed.
        view: u64,
    },
    /// The durable gateway triggered a mid-loop state resync.
    Resync,
    /// A plain gateway detected commit-digest divergence and fail-stopped.
    Desync,
    /// The finalized word failed to decode within the provisioned bound.
    DecodeFailure,
}

impl Event {
    /// The snapshot/dump schema name (doubles as the counter name the
    /// [`crate::RecordingSink`] aggregates under).
    pub fn name(&self) -> &'static str {
        match self {
            Event::MacRejected => "mac_rejected",
            Event::EquivocationDetected => "equivocation_detected",
            Event::StateChunkRejected => "state_chunk_rejected",
            Event::AdmissionDrop { .. } => "admission_drop",
            Event::DedupHit { .. } => "dedup_hit",
            Event::ReplyCacheHit { .. } => "reply_cache_hit",
            Event::ReplyCacheEviction { .. } => "reply_cache_eviction",
            Event::StageFallback => "stage_fallback",
            Event::EmptyRound => "empty_round",
            Event::ViewChange { .. } => "view_change",
            Event::Resync => "resync",
            Event::Desync => "desync",
            Event::DecodeFailure => "decode_failure",
        }
    }

    /// The event's scalar detail (client id or view number), if any.
    pub fn detail(&self) -> Option<u64> {
        match self {
            Event::AdmissionDrop { client }
            | Event::DedupHit { client }
            | Event::ReplyCacheHit { client }
            | Event::ReplyCacheEviction { client } => Some(*client),
            Event::ViewChange { view } => Some(*view),
            _ => None,
        }
    }

    /// Whether per-peer counters are kept for this event kind (bounded:
    /// peers are cluster ids, so at most `N` counters per kind).
    pub fn per_peer(&self) -> bool {
        matches!(
            self,
            Event::MacRejected | Event::EquivocationDetected | Event::StateChunkRejected
        )
    }
}

/// One recorded event with full attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Microseconds since the sink's epoch (monotonic clock).
    pub at_us: u64,
    /// The observing node.
    pub node: usize,
    /// The round the observation belongs to.
    pub round: u64,
    /// The attributed peer (claimed signer, detected equivocator, …).
    pub peer: Option<usize>,
    /// What happened.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_roundtrip_and_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for p in Phase::ALL {
            assert!(seen.insert(p.as_str()), "duplicate name {}", p.as_str());
            assert_eq!(Phase::from_str_opt(p.as_str()), Some(p));
        }
        assert_eq!(Phase::from_str_opt("nope"), None);
    }

    #[test]
    fn top_level_phases_exclude_subphases_and_total() {
        assert!(Phase::Consensus.is_top_level());
        assert!(!Phase::ConsensusPropose.is_top_level());
        assert!(!Phase::Round.is_top_level());
    }

    #[test]
    fn event_details_and_peer_policy() {
        assert_eq!(Event::ViewChange { view: 3 }.detail(), Some(3));
        assert_eq!(Event::AdmissionDrop { client: 9 }.detail(), Some(9));
        assert_eq!(Event::MacRejected.detail(), None);
        assert!(Event::MacRejected.per_peer());
        assert!(Event::EquivocationDetected.per_peer());
        assert!(Event::StateChunkRejected.per_peer());
        assert_eq!(Event::StateChunkRejected.detail(), None);
        assert!(!Event::EmptyRound.per_peer());
    }
}
