//! # csm-node
//!
//! Hosts CSM nodes end-to-end over real I/O: a client-serving round of
//! **admit → agree → execute → exchange → decode → log → reply**, with
//! the §5.2 result exchange running on a [`csm_transport::Transport`]
//! (in-process channels or loopback/LAN TCP).
//!
//! * [`csm_core::engine::RoundEngine`] — the sans-I/O coded-execution
//!   lifecycle (shared with the modelled `CsmCluster`; *any*
//!   [`csm_statemachine::PolyTransition`] machine runs here unchanged).
//! * [`core::GatewayCore`] — the round loop, as one sans-I/O machine
//!   (`step(now, event) -> effects`): admit external `Submit` frames,
//!   agree each round's batch behind a rotating leader, execute,
//!   exchange, decode, log before acknowledging, answer read-only `Query`
//!   frames from committed state, fan `Reply` frames back to clients, and
//!   resync via `b + 1`-verified state transfer (the §1/§3 deployment
//!   model; the client side is the `csm-client` crate).
//! * [`gateway::run_gateway`] / [`recovery::run_durable_gateway`] — the
//!   core's wall-clock driver over any [`csm_transport::Transport`],
//!   plain or with durable coded state (`csm-storage`: write-ahead log,
//!   periodic coded-state snapshots, crash recovery).
//! * [`chaos`] — the core's virtual-clock driver: whole-cluster fault
//!   schedules over a seeded fabric, replayable bit-for-bit.
//! * [`workload`] — the wall-clock cluster harness: gateway threads plus
//!   closed-loop `csm-client` endpoints on one mesh, and the bank-chain
//!   verdict (the `csm-node gateway` / `audit` subcommands run on it).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod consensus;
pub mod core;
pub mod gateway;
pub mod recovery;
pub mod workload;

pub use consensus::{ConsensusKind, StagingFault};
pub use core::GatewayCore;
pub use csm_core::digest::digest_results;
pub use csm_core::engine::{CodedMachine, DecodedRound, RoundCommit, RoundEngine};
pub use gateway::{
    run_gateway, ExchangeTiming, GatewayConfig, GatewayReport, GatewaySpec, GatewayStats,
};
pub use recovery::{open_store, run_durable_gateway, DurabilityConfig, RecoveryInfo};

use csm_network::auth::KeyRegistry;
use std::str::FromStr;
use std::sync::Arc;

/// How a node behaves in every round's exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BehaviorKind {
    /// Broadcast the true coded result.
    Honest,
    /// Send a differently-perturbed result to each receiver.
    Equivocate,
    /// Send nothing.
    Withhold,
    /// Forge frames claiming the next node produced them.
    Impersonate,
}

impl FromStr for BehaviorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "honest" => Ok(BehaviorKind::Honest),
            "equivocate" => Ok(BehaviorKind::Equivocate),
            "withhold" => Ok(BehaviorKind::Withhold),
            "impersonate" => Ok(BehaviorKind::Impersonate),
            other => Err(format!(
                "unknown behavior {other:?} (want honest|equivocate|withhold|impersonate)"
            )),
        }
    }
}

/// Builds the key registry every node of a cluster derives from the
/// shared seed (stand-in for PKI setup; see `csm_network::auth`).
pub fn cluster_registry(n: usize, seed: u64) -> Arc<KeyRegistry> {
    Arc::new(KeyRegistry::new(n, seed ^ 0xC5_11))
}

/// Builds the key registry for a client-serving deployment: ids
/// `0..cluster` are the CSM nodes, ids `cluster..cluster + clients` are
/// client endpoints on the same mesh. Key derivation matches
/// [`cluster_registry`], so node identities are unchanged by adding
/// clients.
pub fn mesh_registry(cluster: usize, clients: usize, seed: u64) -> Arc<KeyRegistry> {
    Arc::new(KeyRegistry::new(cluster + clients, seed ^ 0xC5_11))
}
