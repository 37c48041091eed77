//! # csm-consensus
//!
//! The consensus protocols CSM runs in its consensus phase (§3): "We use
//! the Byzantine generals protocol in the consensus phase" (synchronous)
//! and "we employ the PBFT protocol, which requires at least `N = 3b + 1`
//! nodes" (partially synchronous). CSM itself "uses the same consensus
//! protocols \[as SMR\] to decide on the input commands" (§1, Related
//! Works).
//!
//! The [`batch`] module holds exactly one implementation of each, as a
//! **sans-I/O message-passing state machine** over a round's command
//! batch: Dolev–Strong ([`batch::DsBatch`], any `b < N`, the `b + 1 ≤ N`
//! column of Table 2) and PBFT ([`batch::PbftBatch`], `b < N/3`, the
//! `3b + 1 ≤ N` column). The `csm-node` gateway drives them over a live
//! transport mesh (see `docs/PROTOCOL.md` at the repo root), and the
//! module's lock-step drivers run them in memory for the modelled
//! `CsmCluster` and the property tests.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
