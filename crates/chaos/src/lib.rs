//! # csm-chaos — the deterministic chaos harness, as a crate
//!
//! A thin facade over [`csm_node::chaos`]: seeded discrete-event
//! simulation of a whole CSM cluster (the production gateway core with
//! its consensus backends, durable stores and recovery, plus a client
//! swarm) on a virtual clock,
//! with a curated scenario corpus, a random-schedule generator, and a
//! greedy failing-seed shrinker. See `docs/CHAOS.md` for the model and
//! the safety/liveness checks (S1–S3), and `csm-node chaos --help` for
//! the CLI entry point.
//!
//! ```
//! use csm_chaos::{run_schedule, ChaosConfig, Schedule};
//!
//! let config = ChaosConfig::new(4, 2, 1);
//! let run = run_schedule(&config, &Schedule::quiet(7, 20_000));
//! assert!(run.clean());
//! ```

pub use csm_node::chaos::runner::MachineSpec;
pub use csm_node::chaos::{
    random_schedule, random_schedule_sync, replay_check, run_schedule, run_schedule_with_telemetry,
    ChaosConfig, ChaosEvent, ChaosRun, NodeOutcome, Schedule, Violation,
};
pub use csm_node::chaos::{scenarios, shrink};
pub use csm_node::consensus::{ConsensusKind, StagingFault};
pub use csm_node::BehaviorKind;

/// The deterministic event alphabet recorded in replay traces.
pub use csm_telemetry::Event;
/// The fabric link model, re-exported for schedule construction.
pub use csm_transport::sim::LinkState;
