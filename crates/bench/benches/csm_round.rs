//! End-to-end round benchmarks: one CSM round (distributed vs centralized
//! coding, BM vs Gao decoding) against the SMR baselines, wall-clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csm_algebra::{Field, Fp61};
use csm_core::metrics::csm_max_machines;
use csm_core::replication::{FullReplicationCluster, PartialReplicationCluster};
use csm_core::{CodingMode, CsmClusterBuilder, DecoderKind, FaultSpec, SynchronyMode};
use csm_statemachine::machines::bank_machine;

fn f(v: u64) -> Fp61 {
    Fp61::from_u64(v)
}

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("one_round");
    for n in [16usize, 32] {
        let b = n / 4;
        let k = csm_max_machines(n, b, 1, SynchronyMode::Synchronous);
        let states: Vec<Vec<Fp61>> = (0..k as u64).map(|i| vec![f(i + 1)]).collect();
        let cmds: Vec<Vec<Fp61>> = (0..k as u64).map(|i| vec![f(i + 2)]).collect();

        for (label, coding, decoder) in [
            (
                "csm_dist_bm",
                CodingMode::Distributed,
                DecoderKind::default(),
            ),
            ("csm_dist_gao", CodingMode::Distributed, DecoderKind::Gao),
            (
                "csm_centralized",
                CodingMode::Centralized {
                    epsilon: 1e-4,
                    mu: 0.25,
                },
                DecoderKind::Gao,
            ),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |bch, _| {
                bch.iter_batched(
                    || {
                        let mut builder = CsmClusterBuilder::<Fp61>::new(n, k)
                            .transition(bank_machine::<Fp61>())
                            .initial_states(states.clone())
                            .coding(coding)
                            .decoder(decoder)
                            .assumed_faults(b);
                        for i in 0..b {
                            builder = builder.fault(i, FaultSpec::CorruptResult);
                        }
                        builder.build().unwrap()
                    },
                    |mut cluster| cluster.step(cmds.clone()).unwrap(),
                    criterion::BatchSize::SmallInput,
                )
            });
        }

        group.bench_with_input(BenchmarkId::new("full_replication", n), &n, |bch, _| {
            bch.iter_batched(
                || {
                    FullReplicationCluster::new(
                        n,
                        bank_machine::<Fp61>(),
                        states.clone(),
                        vec![],
                        b,
                        1,
                    )
                    .unwrap()
                },
                |mut cluster| cluster.step(&cmds).unwrap(),
                criterion::BatchSize::SmallInput,
            )
        });

        if n % k == 0 {
            group.bench_with_input(BenchmarkId::new("partial_replication", n), &n, |bch, _| {
                bch.iter_batched(
                    || {
                        PartialReplicationCluster::new(
                            n,
                            bank_machine::<Fp61>(),
                            states.clone(),
                            vec![],
                            0,
                        )
                        .unwrap()
                    },
                    |mut cluster| cluster.step(&cmds).unwrap(),
                    criterion::BatchSize::SmallInput,
                )
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = group;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = benches
}
criterion_main!(group);
