//! The word a receiver decodes in the execution-phase result exchange
//! (§5.2).
//!
//! Every node broadcasts its signed result `g_i`; Byzantine nodes may
//! equivocate (a different value per receiver), withhold or impersonate.
//! Receivers verify MACs, collect the first result per sender into their
//! word, and decode it at the known delivery deadline (synchronous) or
//! upon holding `N − b` results (partially synchronous).
//!
//! `csm-node`'s gateway core runs this exchange over the transport mesh
//! (its `core::exchange` module holds the receiver's rules);
//! [`crate::CsmCluster`] models it *logically* (every honest receiver's
//! word is constructed directly).

/// A receiver's word: slot `i` holds the (first, authenticated) result
/// received from sender `i`, or `None` for an erasure.
pub type Word<F> = Vec<Option<Vec<F>>>;
