//! # coded-state-machine
//!
//! A full Rust reproduction of **Coded State Machine — Scaling State Machine
//! Execution under Byzantine Faults** (Li, Sahraei, Yu, Avestimehr, Kannan,
//! Viswanath; PODC 2019, arXiv:1906.10817).
//!
//! This facade crate re-exports the public API of every subsystem:
//!
//! * [`algebra`] — finite fields, polynomials, subproduct trees, matrices.
//! * [`rs`] — Reed–Solomon coding: verify-first decoding with decode
//!   plans, Berlekamp–Massey (default) and Gao decoders.
//! * [`statemachine`] — multivariate-polynomial state machines and the
//!   Appendix-A Boolean compiler.
//! * [`network`] — node identity and keyed-MAC message authentication.
//! * [`consensus`] — Dolev–Strong broadcast and PBFT as sans-I/O batch
//!   machines, with one lock-step driver each.
//! * [`intermix`] — the INTERMIX verifiable matrix–vector multiplication.
//! * [`csm`] — the Coded State Machine cluster, SMR baselines, and metrics.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```
//! use coded_state_machine::csm::{CsmClusterBuilder, FaultSpec};
//! use coded_state_machine::statemachine::machines::bank_machine;
//! use coded_state_machine::algebra::{Field, Fp61};
//!
//! // 8 nodes, 2 machines, 1 Byzantine node corrupting its results.
//! let mut cluster = CsmClusterBuilder::new(8, 2)
//!     .transition(bank_machine::<Fp61>())
//!     .initial_states(vec![vec![Fp61::from_u64(100)], vec![Fp61::from_u64(200)]])
//!     .fault(7, FaultSpec::CorruptResult)
//!     .build()
//!     .unwrap();
//!
//! // Deposit 10 into machine 0, withdraw 50 from machine 1.
//! let report = cluster
//!     .step(vec![vec![Fp61::from_u64(10)], vec![-Fp61::from_u64(50)]])
//!     .unwrap();
//! assert_eq!(report.outputs[0][0], Fp61::from_u64(110));
//! assert_eq!(report.outputs[1][0], Fp61::from_u64(150));
//! ```

pub use csm_algebra as algebra;
pub use csm_consensus as consensus;
pub use csm_core as csm;
pub use csm_intermix as intermix;
pub use csm_network as network;
pub use csm_reed_solomon as rs;
pub use csm_statemachine as statemachine;
