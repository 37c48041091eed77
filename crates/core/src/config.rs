//! Cluster configuration: synchrony, coding mode, fault injection.

use csm_algebra::{Field, Poly};
use csm_network::NodeId;
use csm_reed_solomon::{BerlekampMassey, Decoder, Gao, RsError};

/// The network model the cluster operates under (§2.1), determining which
/// decoding bound applies (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SynchronyMode {
    /// Synchronous: all `N` results arrive; decoding tolerates
    /// `2b + 1 ≤ N − d(K−1)`.
    #[default]
    Synchronous,
    /// Partially synchronous: nodes decode from the first `N − b` results
    /// (a withheld result is indistinguishable from a slow one), so
    /// decoding tolerates `3b + 1 ≤ N − d(K−1)`.
    PartiallySynchronous,
}

/// Where the coding work happens (§5.2 vs §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CodingMode {
    /// Every node encodes its own coded command (O(K) each) and decodes
    /// the full result vector itself (§5.2).
    #[default]
    Distributed,
    /// A single worker performs all encoding/decoding with fast polynomial
    /// algorithms; a random committee of auditors verifies via INTERMIX
    /// (§6). Requires the synchronous broadcast assumptions of Theorem 1.
    Centralized {
        /// Soundness parameter: probability that no auditor is honest.
        epsilon: f64,
        /// Assumed adversarial fraction (for committee sizing).
        mu: f64,
    },
}

/// Which Reed–Solomon decoder nodes run on a word their verify-first guess
/// could not explain. Both return the same answers; they differ in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecoderKind {
    /// Berlekamp–Massey on the syndromes: `O(N²)`, the cheapest at every
    /// size the `rs_decode` bench covers.
    #[default]
    BerlekampMassey,
    /// Gao (extended Euclidean; quasi-linear with fast polynomial
    /// arithmetic, but a larger constant than the syndrome decoder up to
    /// `N = 128`). Kept as an independent reference.
    Gao,
}

impl Decoder for DecoderKind {
    fn decode<F: Field>(&self, xs: &[F], ys: &[F], k: usize) -> Result<Poly<F>, RsError> {
        match self {
            DecoderKind::BerlekampMassey => BerlekampMassey.decode(xs, ys, k),
            DecoderKind::Gao => Gao.decode(xs, ys, k),
        }
    }
}

/// How the consensus phase is performed each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsensusMode {
    /// Commands are taken as already agreed (consensus cost is excluded
    /// from the throughput metric anyway, §2.2). Use the explicit modes
    /// for end-to-end security experiments.
    #[default]
    Trusted,
    /// Run Dolev–Strong authenticated broadcast with a rotating leader
    /// (synchronous networks; any `b < N`).
    DolevStrong,
    /// Run PBFT with a rotating primary (partially synchronous;
    /// `b < N/3`).
    Pbft,
}

/// Byzantine behaviour assigned to a node in the *execution phase*.
///
/// (Under [`ConsensusMode::DolevStrong`] and [`ConsensusMode::Pbft`], a
/// Byzantine node also misbehaves in the consensus phase: a Dolev–Strong
/// leader equivocates, and every other Byzantine voter stays silent.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultSpec {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Broadcasts a uniformly random wrong result `g_i` every round.
    CorruptResult,
    /// Broadcasts a result with a fixed offset added to every coordinate —
    /// a "plausible-looking" corruption.
    OffsetResult,
    /// Sends nothing. Under synchrony this is detectable (erasure); under
    /// partial synchrony it is indistinguishable from network delay and
    /// costs the stronger `3b` bound.
    Withhold,
    /// Sends *different* wrong results to different receivers
    /// (equivocation). Remark in §5.2: the reconstructed polynomials at
    /// honest nodes are identical even under equivocation.
    Equivocate,
    /// Executes honestly but corrupts its own stored coded state, poisoning
    /// its future results (tests multi-round containment).
    CorruptStateUpdate,
}

impl FaultSpec {
    /// Whether this node counts as Byzantine.
    pub fn is_byzantine(&self) -> bool {
        !matches!(self, FaultSpec::Honest)
    }
}

/// Full cluster configuration.
#[derive(Debug, Clone)]
pub struct CsmConfig {
    /// Number of nodes `N`.
    pub n: usize,
    /// Number of state machines `K`.
    pub k: usize,
    /// Network model.
    pub synchrony: SynchronyMode,
    /// Coding mode.
    pub coding: CodingMode,
    /// Decoder selection.
    pub decoder: DecoderKind,
    /// Consensus mode.
    pub consensus: ConsensusMode,
    /// The maximum number of faults the deployment is provisioned for
    /// (`b = µN`); used for erasure thresholds in partial synchrony and
    /// for the client's `b + 1` matching rule.
    pub assumed_faults: usize,
    /// Per-node fault injection (defaults to all honest).
    pub faults: Vec<(NodeId, FaultSpec)>,
    /// Seed for all randomness (keys, committee election, corruptions).
    pub seed: u64,
}

impl CsmConfig {
    /// A default configuration for `n` nodes and `k` machines, all honest,
    /// synchronous, distributed coding, assumed faults `⌊n/3⌋`.
    pub fn new(n: usize, k: usize) -> Self {
        CsmConfig {
            n,
            k,
            synchrony: SynchronyMode::default(),
            coding: CodingMode::default(),
            decoder: DecoderKind::default(),
            consensus: ConsensusMode::default(),
            assumed_faults: n / 3,
            faults: Vec::new(),
            seed: 0xC5_11,
        }
    }

    /// The fault spec of a node.
    pub fn fault_of(&self, node: NodeId) -> FaultSpec {
        self.faults
            .iter()
            .find(|(id, _)| *id == node)
            .map(|(_, f)| *f)
            .unwrap_or(FaultSpec::Honest)
    }

    /// Number of injected Byzantine nodes.
    pub fn num_byzantine(&self) -> usize {
        self.faults.iter().filter(|(_, f)| f.is_byzantine()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_honest_synchronous() {
        let c = CsmConfig::new(9, 3);
        assert_eq!(c.synchrony, SynchronyMode::Synchronous);
        assert_eq!(c.fault_of(NodeId(5)), FaultSpec::Honest);
        assert_eq!(c.num_byzantine(), 0);
        assert_eq!(c.assumed_faults, 3);
    }

    #[test]
    fn fault_lookup() {
        let mut c = CsmConfig::new(4, 2);
        c.faults.push((NodeId(2), FaultSpec::CorruptResult));
        assert_eq!(c.fault_of(NodeId(2)), FaultSpec::CorruptResult);
        assert!(c.fault_of(NodeId(2)).is_byzantine());
        assert!(!c.fault_of(NodeId(0)).is_byzantine());
        assert_eq!(c.num_byzantine(), 1);
    }
}
