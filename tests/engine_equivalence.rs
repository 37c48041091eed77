//! Guards the `RoundEngine` extraction from two directions:
//!
//! 1. **Property test** — a `RoundEngine` per node, driven step-by-step
//!    through the sans-I/O event contract (encode → execute → fault →
//!    logical exchange → decode → commit), is output-equivalent to
//!    `CsmCluster::step` across random machines, fault assignments, and
//!    synchrony modes: same decoded outputs and next states, same
//!    detected Byzantine nodes, same per-node coded states after every
//!    round, and the same commit digest the real runtime would gossip —
//!    whichever of the three decoders each side runs.
//!
//! 2. **Byzantine behaviors over real TCP** — withhold and impersonate
//!    nodes run a *non-bank* machine (the compiled Boolean counter over
//!    GF(2¹⁶)) through the engine on real sockets, and the honest
//!    majority still commits identical states matching the uncoded
//!    reference execution.

use coded_state_machine::algebra::{Field, Fp61, Gf2_16};
use coded_state_machine::csm::engine::{sim_receiver_word, CodedMachine, RoundEngine};
use coded_state_machine::csm::exchange::Word;
use coded_state_machine::csm::metrics::csm_max_machines;
use coded_state_machine::csm::{CsmClusterBuilder, DecoderKind, FaultSpec, SynchronyMode};
use coded_state_machine::statemachine::machines::{
    auction_machine, bank_machine, interest_machine, kv_machine, power_machine,
};
use coded_state_machine::statemachine::PolyTransition;
use csm_node::ExchangeTiming;
use csm_node::{cluster_registry, counter_spec, run_node, BehaviorKind, NodeReport};
use csm_transport::tcp::TcpMesh;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

// ------------------------------------------------------------------ part 1

#[derive(Debug, Clone, Copy)]
enum MachineKind {
    Bank,
    Interest,
    Power(u32),
    Auction,
    Kv(usize),
}

fn machine_kind() -> impl Strategy<Value = MachineKind> {
    prop_oneof![
        Just(MachineKind::Bank),
        Just(MachineKind::Interest),
        (1u32..4).prop_map(MachineKind::Power),
        Just(MachineKind::Auction),
        (1usize..4).prop_map(MachineKind::Kv),
    ]
}

fn instantiate<F: Field>(kind: MachineKind) -> PolyTransition<F> {
    match kind {
        MachineKind::Bank => bank_machine(),
        MachineKind::Interest => interest_machine(),
        MachineKind::Power(d) => power_machine(d),
        MachineKind::Auction => auction_machine(),
        MachineKind::Kv(slots) => kv_machine(slots),
    }
}

fn fault_menu(i: usize) -> FaultSpec {
    match i % 5 {
        0 => FaultSpec::CorruptResult,
        1 => FaultSpec::OffsetResult,
        2 => FaultSpec::Equivocate,
        3 => FaultSpec::CorruptStateUpdate,
        _ => FaultSpec::Withhold,
    }
}

fn decoder_kind() -> impl Strategy<Value = DecoderKind> {
    prop_oneof![Just(DecoderKind::default()), Just(DecoderKind::Gao)]
}

#[derive(Debug, Clone)]
struct Scenario {
    kind: MachineKind,
    n: usize,
    b: usize,
    sync: SynchronyMode,
    /// The decoder of the reference cluster and of the engines: any pairing
    /// must commit the same rounds.
    decoders: (DecoderKind, DecoderKind),
    seed: u64,
    rounds: usize,
    raw: Vec<u64>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        machine_kind(),
        8usize..20,
        0usize..4,
        prop::bool::ANY,
        (decoder_kind(), decoder_kind()),
        any::<u64>(),
        1usize..4,
        prop::collection::vec(any::<u64>(), 64),
    )
        .prop_map(|(kind, n, b, psync, dec, seed, rounds, raw)| Scenario {
            kind,
            n,
            b,
            sync: if psync {
                SynchronyMode::PartiallySynchronous
            } else {
                SynchronyMode::Synchronous
            },
            decoders: dec,
            seed,
            rounds,
            raw,
        })
}

/// Drives one scenario both ways and asserts equivalence round by round.
fn run_equivalence<F: Field>(s: &Scenario) -> Result<(), TestCaseError> {
    let transition = instantiate::<F>(s.kind);
    let d = transition.degree();
    let k = csm_max_machines(s.n, s.b, d, s.sync);
    if k == 0 {
        return Ok(()); // configuration unsupportable; nothing to check
    }
    let (cluster_decoder, engine_decoder) = s.decoders;
    let sd = transition.state_dim();
    let xd = transition.input_dim();
    let mut raw = s.raw.iter().cycle().copied();
    let states: Vec<Vec<F>> = (0..k)
        .map(|_| (0..sd).map(|_| F::from_u64(raw.next().unwrap())).collect())
        .collect();
    let faults: Vec<FaultSpec> = (0..s.n)
        .map(|i| {
            if i >= s.n - s.b {
                fault_menu(s.n - 1 - i)
            } else {
                FaultSpec::Honest
            }
        })
        .collect();

    // reference: the cluster's own step loop
    let mut builder = CsmClusterBuilder::<F>::new(s.n, k)
        .transition(transition.clone())
        .initial_states(states.clone())
        .synchrony(s.sync)
        .decoder(cluster_decoder)
        .assumed_faults(s.b)
        .seed(s.seed);
    for (i, f) in faults.iter().enumerate() {
        if f.is_byzantine() {
            builder = builder.fault(i, *f);
        }
    }
    let mut cluster = builder.build().expect("valid configuration");

    // the engine path: one RoundEngine per node over a shared machine
    let machine = Arc::new(
        CodedMachine::<F>::new(s.n, k, transition, engine_decoder)
            .expect("same shape as the cluster"),
    );
    let mut engines: Vec<RoundEngine<F>> = (0..s.n)
        .map(|i| {
            RoundEngine::new(Arc::clone(&machine), i, &states)
                .expect("same states as the cluster")
                .with_fault(faults[i])
        })
        .collect();
    // corruption values need not match the cluster's RNG stream: decoding
    // corrects them to the same polynomial either way — that robustness
    // is part of what this test demonstrates
    let mut rng = StdRng::seed_from_u64(s.seed ^ 0xE46);

    for round in 0..s.rounds as u64 {
        let cmds: Vec<Vec<F>> = (0..k)
            .map(|_| (0..xd).map(|_| F::from_u64(raw.next().unwrap())).collect())
            .collect();
        let report = cluster.step(cmds.clone()).expect("within bound");

        // --- engine path: the sans-I/O event sequence, driven manually ---
        let results: Vec<Option<Vec<F>>> = engines
            .iter()
            .map(|e| {
                let g = e.execute(&cmds).expect("well-shaped commands");
                e.apply_result_fault(g, &mut rng)
            })
            .collect();
        // every honest receiver decodes its own logical-exchange word and
        // must agree with the cluster's canonical decode
        let mut canonical = None;
        for j in 0..s.n {
            if faults[j].is_byzantine() {
                continue;
            }
            let word: Word<F> = sim_receiver_word(&results, j, &faults, s.sync, s.b, round);
            let decoded = engines[j].decode(&word).expect("within bound");
            prop_assert_eq!(&decoded.new_states, &report.new_states, "receiver {}", j);
            prop_assert_eq!(&decoded.outputs, &report.outputs, "receiver {}", j);
            if canonical.is_none() {
                // cluster merges detections across distinct words; each
                // receiver's set must at least be a subset of the merge
                for e in &decoded.detected_error_nodes {
                    prop_assert!(report.detected_error_nodes.contains(e));
                }
                prop_assert_eq!(decoded.digest(), report.digest, "digest is shared");
                canonical = Some(decoded);
            }
        }
        let decoded = canonical.expect("at least one honest node");
        // χ at every node, then the coded states must match the cluster's
        for (i, e) in engines.iter_mut().enumerate() {
            let commit = e.commit(&decoded);
            prop_assert_eq!(commit.round, round);
            prop_assert_eq!(commit.digest, report.digest);
            prop_assert_eq!(
                cluster.coded_state(i),
                e.coded_state(),
                "node {} coded state after round {}",
                i,
                round
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn engine_matches_cluster_step_fp61(s in scenario()) {
        run_equivalence::<Fp61>(&s)?;
    }

    #[test]
    fn engine_matches_cluster_step_gf2m(s in scenario()) {
        run_equivalence::<Gf2_16>(&s)?;
    }
}

// ------------------------------------------------------------------ part 2

/// Withhold + impersonate nodes run the Boolean counter machine (degree 3
/// over GF(2¹⁶)) through the engine on real TCP; the honest majority
/// commits identical states equal to the uncoded reference execution.
#[test]
fn tcp_nonbank_machine_survives_withhold_and_impersonate() {
    let n = 10;
    let k = 2;
    let rounds = 3;
    let byzantine = [3usize, 6];
    let registry = cluster_registry(n, 909);
    let mesh = TcpMesh::launch_loopback(Arc::clone(&registry)).expect("bind loopback mesh");
    let handles: Vec<_> = mesh
        .into_iter()
        .enumerate()
        .map(|(i, transport)| {
            let registry = Arc::clone(&registry);
            let behavior = match i {
                3 => BehaviorKind::Withhold,
                6 => BehaviorKind::Impersonate,
                _ => BehaviorKind::Honest,
            };
            let spec = counter_spec(n, k, 2, 909, rounds, behavior).expect("valid counter spec");
            let timing = ExchangeTiming::synchronous(2, Duration::from_millis(300));
            thread::spawn(move || run_node(transport, registry, timing, &spec))
        })
        .collect();
    let mut reports: Vec<NodeReport<Gf2_16>> = handles
        .into_iter()
        .map(|h| h.join().expect("node thread"))
        .collect();
    reports.sort_by_key(|r| r.id);

    // honest agreement on every round's digest
    for round in 0..rounds as usize {
        let digests: Vec<u64> = reports
            .iter()
            .filter(|r| !byzantine.contains(&r.id))
            .map(|r| {
                r.commits[round]
                    .as_ref()
                    .unwrap_or_else(|| panic!("node {} missed round {round}", r.id))
                    .digest
            })
            .collect();
        assert_eq!(digests.len(), n - byzantine.len());
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "round {round}: honest digests diverge"
        );
    }

    // decoded states equal the uncoded reference execution
    let spec = counter_spec(n, k, 2, 909, rounds, BehaviorKind::Honest).unwrap();
    let mut states = spec.initial_states.clone();
    let sd = spec.machine.transition().state_dim();
    for round in 0..rounds {
        let cmds = spec.commands(round);
        let expected: Vec<Vec<Gf2_16>> = states
            .iter()
            .zip(&cmds)
            .map(|(s, x)| spec.machine.transition().apply_flat(s, x).unwrap())
            .collect();
        for report in reports.iter().filter(|r| !byzantine.contains(&r.id)) {
            let commit = report.commits[round as usize].as_ref().unwrap();
            assert_eq!(
                &commit.results, &expected,
                "node {} round {round} decoded the true results",
                report.id
            );
            // withholder's slot is an erasure; impersonator's forged
            // frames were dropped by MAC verification, so its slot is
            // empty too
            assert_eq!(commit.results_held, n - 2);
        }
        states = expected.iter().map(|r| r[..sd].to_vec()).collect();
    }
}
