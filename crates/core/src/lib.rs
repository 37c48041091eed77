//! # csm-core
//!
//! The Coded State Machine (Li et al., PODC 2019): run `K` state machines
//! on `N` Byzantine-prone nodes with simultaneously linear-scaling
//! security, storage efficiency, and throughput.
//!
//! * [`engine`] — the sans-I/O per-round execution spine
//!   ([`CodedMachine`] + [`RoundEngine`]): encode → execute → decode →
//!   update as pure calls, shared by the simulator and the `csm-node`
//!   transport runtime.
//! * [`CsmClusterBuilder`] / [`CsmCluster`] — the coded cluster (§5, §6):
//!   the simulator driver over `N` [`RoundEngine`]s, with consensus,
//!   logical exchange, op accounting, and optionally INTERMIX-verified
//!   centralized coding.
//! * [`replication`] — the SMR baselines of §3 with the same interface.
//! * [`metrics`] — Table 1 / Table 2 formulas as code.
//! * [`client`] — the `b + 1` matching output-delivery rule.
//! * [`digest`] — the shared result digest both paths gossip/compare.
//!
//! See the crate-level example on [`CsmClusterBuilder`] for a five-line
//! quickstart, and the repository's `examples/` directory for full
//! scenarios.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
mod cluster;
mod codebook;
pub mod commands;
mod config;
pub mod digest;
pub mod engine;
mod error;
pub mod exchange;
pub mod metrics;
pub mod random_allocation;
pub mod replication;

pub use cluster::{CsmCluster, CsmClusterBuilder, RoundOps, RoundReport};
pub use codebook::Codebook;
pub use config::{CodingMode, ConsensusMode, CsmConfig, DecoderKind, FaultSpec, SynchronyMode};
pub use digest::digest_results;
pub use engine::{CodedMachine, DecodedRound, ResultAction, RoundCommit, RoundEngine};
pub use error::CsmError;
