//! The pieces of the execution-phase result exchange (§5.2) that every
//! node shares: the result behaviours, the canonical result form, the
//! equivocation schedule and the receiver's word finalization.
//!
//! Every node broadcasts its signed result `g_i`; Byzantine nodes may
//! equivocate (a different value per receiver), withhold or impersonate;
//! receivers verify MACs, and finalize their word
//!
//! * at the known delivery deadline (synchronous), or
//! * upon holding `N − b` results (partially synchronous — a node cannot
//!   wait for more, §5.2: "the remaining honest nodes should start decoding
//!   upon receiving N − b computation results to ensure liveness").
//!
//! `csm-node`'s `GatewayCore` runs this exchange over the transport
//! mesh; [`crate::CsmCluster`] models it *logically* (every honest
//! receiver's word is constructed directly).

use crate::config::SynchronyMode;
use csm_algebra::Field;

/// How a node behaves in the exchange.
#[derive(Debug, Clone)]
pub enum ResultBehavior<F> {
    /// Broadcasts this result to everyone.
    Honest(Vec<F>),
    /// Sends a differently-perturbed copy of the base result to each
    /// receiver (equivocation).
    Equivocate(Vec<F>),
    /// Sends nothing.
    Withhold,
    /// Sends a result with a forged signature claiming another node
    /// produced it (must be dropped by every verifier).
    Impersonate {
        /// The spoofed sender id.
        spoof: usize,
        /// The payload to inject.
        forged: Vec<F>,
    },
}

/// A receiver's word: slot `i` holds the (first, authenticated) result
/// received from sender `i`, or `None` for an erasure.
pub type Word<F> = Vec<Option<Vec<F>>>;

/// Canonical form of a result message: sender id plus the canonical
/// `u64` encoding of every field element. The transport runtime sends these
/// `u64`s as the wire payload (the frame MAC covers the encoded bytes and
/// the round number).
pub fn canonical<F: Field>(sender: usize, v: &[F]) -> (usize, Vec<u64>) {
    (sender, v.iter().map(|x| x.to_canonical_u64()).collect())
}

/// The additive-noise schedule an equivocator uses: receiver `j` gets the
/// base result perturbed by this value, so any two receivers can prove the
/// equivocation against each other. `GatewayCore`'s wall-clock and
/// virtual-clock drivers therefore cast the same equivocator.
pub fn equivocation_noise(receiver: usize) -> u64 {
    1 + (receiver as u64).wrapping_mul(0x9E37) % 65_521
}

/// The pure §5.2 receiver finalization state machine, independent of any
/// I/O substrate; `csm-node`'s `GatewayCore` drives it.
///
/// * [`record`](Self::record) — first result from each sender wins; under
///   partial synchrony the word freezes as soon as `N − b` results are
///   held (§5.2 liveness cutoff).
/// * Under synchrony the word never freezes itself: the driver decodes
///   it as it stands at the known delivery deadline Δ (or earlier, once
///   it certifies).
#[derive(Debug, Clone)]
pub struct ReceiverCore<F> {
    synchrony: SynchronyMode,
    cutoff: usize,
    received: Word<F>,
    finalized: bool,
}

impl<F: Clone> ReceiverCore<F> {
    /// A fresh receiver for an `n`-node exchange provisioned for
    /// `assumed_faults` Byzantine nodes.
    ///
    /// # Panics
    ///
    /// Panics if `assumed_faults >= n`.
    pub fn new(n: usize, synchrony: SynchronyMode, assumed_faults: usize) -> Self {
        assert!(assumed_faults < n, "cutoff N - b must be positive");
        ReceiverCore {
            synchrony,
            cutoff: n - assumed_faults,
            received: vec![None; n],
            finalized: false,
        }
    }

    /// Accepts an authenticated result from `from`. Returns `true` if this
    /// record finalized the word (partial-synchrony cutoff reached).
    /// Results arriving after finalization, duplicate senders, and
    /// out-of-range senders are ignored.
    pub fn record(&mut self, from: usize, vector: Vec<F>) -> bool {
        if self.finalized || from >= self.received.len() || self.received[from].is_some() {
            return false;
        }
        self.received[from] = Some(vector);
        if self.synchrony == SynchronyMode::PartiallySynchronous
            && self.results_held() >= self.cutoff
        {
            self.finalized = true;
            return true;
        }
        false
    }

    /// Whether the word is frozen.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Number of results currently held.
    pub fn results_held(&self) -> usize {
        self.received.iter().filter(|r| r.is_some()).count()
    }

    /// The current word (final iff [`is_finalized`](Self::is_finalized)).
    pub fn word(&self) -> &Word<F> {
        &self.received
    }

    /// Consumes the core, yielding the word.
    pub fn into_word(self) -> Word<F> {
        self.received
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csm_algebra::Fp61;

    fn f(v: u64) -> Fp61 {
        Fp61::from_u64(v)
    }

    #[test]
    fn receiver_core_first_result_wins() {
        let mut core: ReceiverCore<Fp61> = ReceiverCore::new(4, SynchronyMode::Synchronous, 1);
        assert!(!core.record(1, vec![f(10)]));
        assert!(!core.record(1, vec![f(99)])); // duplicate sender ignored
        assert!(!core.record(7, vec![f(1)])); // out of range ignored
        assert_eq!(core.word()[1].as_deref(), Some(&[f(10)][..]));
        assert_eq!(core.results_held(), 1);
        assert!(!core.is_finalized());
    }

    #[test]
    fn receiver_core_partial_synchrony_cutoff() {
        let (n, b) = (6, 2);
        let mut core: ReceiverCore<Fp61> =
            ReceiverCore::new(n, SynchronyMode::PartiallySynchronous, b);
        for i in 0..n - b - 1 {
            assert!(!core.record(i, vec![f(i as u64)]));
        }
        assert!(!core.is_finalized());
        // the (N - b)-th result freezes the word
        assert!(core.record(n - b - 1, vec![f(9)]));
        assert!(core.is_finalized());
        assert_eq!(core.results_held(), n - b);
        // results after the freeze are ignored
        assert!(!core.record(n - 1, vec![f(2)]));
        assert_eq!(core.results_held(), n - b);
    }

    #[test]
    fn receiver_core_synchronous_never_cuts_off_early() {
        let n = 5;
        let mut core: ReceiverCore<Fp61> = ReceiverCore::new(n, SynchronyMode::Synchronous, 2);
        for i in 0..n {
            assert!(!core.record(i, vec![f(i as u64)]));
        }
        // synchronous receivers wait for the deadline even with all results
        assert!(!core.is_finalized());
    }
}
