//! The per-layer ledger rows the bench cannot get from spans: timed direct
//! calls into each layer's public functions, at the workloads' shapes.
//! Every row is the median of several fixed-size batches.

use crate::stats::{median, Rng};
use csm_algebra::{distinct_elements, Field, Fp61, Gf2_16, Matrix, Poly};
use csm_core::DecoderKind;
use csm_network::auth::KeyRegistry;
use csm_network::NodeId;
use csm_node::CodedMachine;
use csm_statemachine::machines::bank_machine;
use csm_storage::{CommitRecord, NodeStore};
use csm_telemetry::{NullSink, Phase, RecordingSink, RoundSpan, Sink};
use csm_transport::mem::MemMesh;
use csm_transport::{Frame, Payload, Transport, Wire};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCHES: usize = 7;

/// Nanoseconds per call of `f`: the median of [`BATCHES`] batches of
/// `iters` calls each, after one discarded warm-up batch.
pub fn time_ns<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut batch = || {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        t.elapsed().as_nanos() as f64 / iters as f64
    };
    batch();
    median(&(0..BATCHES).map(|_| batch()).collect::<Vec<_>>())
}

fn bank(n: usize, k: usize) -> CodedMachine<Fp61> {
    CodedMachine::new(n, k, bank_machine(), DecoderKind::default()).expect("ledger shape fits")
}

/// A codeword of `machine`'s code with `errors` corrupted symbols and
/// `erasures` missing ones.
fn word(
    machine: &CodedMachine<Fp61>,
    rng: &mut Rng,
    errors: usize,
    erasures: usize,
) -> Vec<Option<Fp61>> {
    let msg: Vec<Fp61> = (0..machine.code().dim())
        .map(|_| Fp61::from_u64(rng.next()))
        .collect();
    let mut w: Vec<Option<Fp61>> = machine
        .code()
        .encode(&msg)
        .expect("message fits the code")
        .into_iter()
        .map(Some)
        .collect();
    let n = w.len();
    for e in 0..errors {
        let at = (e * 3 + 1) % n;
        w[at] = w[at].map(|y| y + Fp61::from_u64(1 + rng.below(9999)));
    }
    for e in 0..erasures {
        w[(e * 3) % n] = None;
    }
    w
}

fn algebra(seed: u64, out: &mut BTreeMap<&'static str, f64>) {
    let mut rng = Rng(seed ^ 0xA16E);
    let xs: Vec<Fp61> = (0..256).map(|_| Fp61::from_u64(rng.next())).collect();
    let gs: Vec<Gf2_16> = (0..256).map(|_| Gf2_16::from_u64(rng.next())).collect();
    out.insert(
        "algebra.fp61_mul_ns",
        time_ns(400, || xs.iter().fold(Fp61::ONE, |a, &x| a * black_box(x))) / 256.0,
    );
    out.insert(
        "algebra.gf16_mul_ns",
        time_ns(400, || {
            gs.iter().fold(Gf2_16::ONE, |a, &x| a * black_box(x))
        }) / 256.0,
    );
    let nonzero = xs.iter().copied().find(|x| !x.is_zero()).expect("nonzero");
    out.insert(
        "algebra.fp61_inv_ns",
        time_ns(2_000, || black_box(nonzero).inverse()),
    );
    let points: Vec<Fp61> = distinct_elements(0, 32);
    let poly = Poly::new(xs[..8].to_vec());
    out.insert(
        "algebra.poly_eval_us",
        time_ns(2_000, || poly.eval_many(&points)) / 1e3,
    );
    out.insert(
        "algebra.interpolate_us",
        time_ns(2_000, || Poly::interpolate(&points[..8], &xs[..8])) / 1e3,
    );
    // Berlekamp–Welch at N = 32, dim 8 solves a 32-row system
    let system = Matrix::vandermonde(&points, 32);
    out.insert(
        "algebra.solve_us",
        time_ns(20, || system.solve(&xs[..32])) / 1e3,
    );
}

fn reed_solomon(seed: u64, out: &mut BTreeMap<&'static str, f64>) {
    let mut rng = Rng(seed ^ 0x55D);
    let big = bank(32, 8);
    let msg: Vec<Fp61> = (0..8).map(|_| Fp61::from_u64(rng.next())).collect();
    out.insert(
        "reed-solomon.encode_us",
        time_ns(2_000, || big.code().encode(&msg)) / 1e3,
    );
    let mut decode = |name, machine: &CodedMachine<Fp61>, errors, erasures, iters| {
        let w = word(machine, &mut rng, errors, erasures);
        machine
            .decode_coordinate(&w)
            .expect("ledger word is within the decoding radius");
        out.insert(name, time_ns(iters, || machine.decode_coordinate(&w)) / 1e3);
    };
    decode("reed-solomon.decode_clean_us", &big, 0, 0, 60);
    decode("reed-solomon.decode_err_us", &big, 8, 0, 60);
    decode("reed-solomon.decode_erasure_us", &bank(8, 4), 1, 1, 2_000);
    decode("reed-solomon.decode_small_us", &bank(4, 2), 0, 0, 5_000);
}

fn statemachine(out: &mut BTreeMap<&'static str, f64>) {
    let t = bank_machine::<Fp61>();
    let (s, x) = ([Fp61::from_u64(100)], [Fp61::from_u64(7)]);
    out.insert(
        "statemachine.apply_flat_ns",
        time_ns(20_000, || t.apply_flat(black_box(&s), black_box(&x))),
    );
    let batch: Vec<Vec<Fp61>> = (1..=4).map(|v| vec![Fp61::from_u64(v)]).collect();
    out.insert(
        "statemachine.fold_commands_ns",
        time_ns(20_000, || t.fold_commands(black_box(&batch))),
    );
}

fn transport(seed: u64, out: &mut BTreeMap<&'static str, f64>) {
    // a Result frame and a Submit frame as the bank clusters send them
    let registry = Arc::new(KeyRegistry::new(10, seed));
    let result = Payload::Result {
        round: 1234,
        sender: 3,
        values: vec![seed | 1, seed.rotate_left(7) | 1],
    };
    let submit = Payload::Submit {
        shard: 1,
        client: 8,
        seq: 77,
        command: vec![42],
    };
    let bytes = result.to_bytes();
    let sig = registry.sign(NodeId(3), &bytes);
    out.insert(
        "network.mac_sign_ns",
        time_ns(20_000, || registry.sign(NodeId(3), black_box(&bytes))),
    );
    out.insert(
        "network.mac_verify_ns",
        time_ns(20_000, || registry.verify(black_box(&bytes), &sig)),
    );
    let frame = Frame::sign(result.clone(), &registry, NodeId(3));
    let wire = frame.to_wire_bytes();
    out.insert(
        "transport.frame_sign_ns",
        time_ns(10_000, || Frame::sign(result.clone(), &registry, NodeId(3))),
    );
    out.insert(
        "transport.frame_encode_ns",
        time_ns(10_000, || frame.to_wire_bytes()),
    );
    out.insert(
        "transport.frame_decode_ns",
        time_ns(10_000, || Frame::read_from(&mut &wire[..])),
    );
    out.insert(
        "transport.frame_verify_ns",
        time_ns(10_000, || frame.verify(&registry)),
    );
    out.insert("transport.result_frame_bytes", wire.len() as f64);
    out.insert(
        "transport.submit_frame_bytes",
        Frame::sign(submit, &registry, NodeId(8))
            .to_wire_bytes()
            .len() as f64,
    );
    let mesh = MemMesh::build(Arc::clone(&registry));
    out.insert(
        "transport.mem_hop_us",
        time_ns(5_000, || {
            mesh[3].send(NodeId(4), frame.clone()).expect("mesh is up");
            mesh[4]
                .recv_timeout(Duration::from_secs(1))
                .expect("delivered")
        }) / 1e3,
    );
}

fn storage(dir: &Path, out: &mut BTreeMap<&'static str, f64>) {
    // one sim_faults burst per record: 16 commands, cap 4 on 4 shards
    const CMDS: u64 = 16;
    let record = |round: u64| CommitRecord {
        round,
        digest: round.wrapping_mul(0x9E37_79B9),
        batch: (0..CMDS)
            .map(|c| vec![8 + c, round, c % 4, round ^ c, 1 + c])
            .collect(),
        state_delta: vec![round + 1],
        protocol: 0,
        batch_cap: 4,
    };
    let store_dir = dir.join("ledger-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let (mut store, _) = NodeStore::open(&store_dir, 7).expect("open ledger store");
    let mut round = 0;
    let append_ns = time_ns(64, || {
        round += 1;
        store.append_commit(&record(round)).expect("wal append")
    });
    out.insert("storage.wal_append_us", append_ns / 1e3);
    out.insert(
        "storage.wal_bytes_per_cmd",
        store.wal_bytes() as f64 / (store.wal_records() * CMDS) as f64,
    );
    let records = store.wal_records() as f64;
    drop(store);
    let replay_ns = time_ns(3, || {
        let (_, recovered) = NodeStore::open(&store_dir, 7).expect("reopen ledger store");
        assert_eq!(recovered.records.len() as f64, records);
    });
    out.insert(
        "storage.wal_replay_us_per_record",
        replay_ns / 1e3 / records,
    );
    let (mut store, _) = NodeStore::open(&store_dir, 7).expect("reopen ledger store");
    let horizons: Vec<(u64, u64)> = (0..CMDS).map(|c| (8 + c, 1000 + c)).collect();
    out.insert(
        "storage.snapshot_write_us",
        time_ns(50, || {
            store
                .install_snapshot(9, vec![123_456_789], horizons.clone())
                .expect("snapshot install")
        }) / 1e3,
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);
}

fn telemetry(out: &mut BTreeMap<&'static str, f64>) {
    let span = |sink: &dyn Sink| {
        let mut s = RoundSpan::start(sink, 1, 9);
        s.mark(Phase::Consensus);
        s.mark(Phase::Execute);
        s.mark(Phase::Exchange);
        s.mark(Phase::Decode);
        s.mark(Phase::Reply);
        s.finish();
    };
    out.insert(
        "telemetry.null_span_ns",
        time_ns(20_000, || span(&NullSink)),
    );
    let recording = RecordingSink::new();
    out.insert(
        "telemetry.recording_span_ns",
        time_ns(5_000, || span(&recording)),
    );
}

/// Every workload-independent ledger row. `scratch` holds the durable
/// store the storage rows write.
pub fn ledger(seed: u64, scratch: &Path) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    algebra(seed, &mut out);
    reed_solomon(seed, &mut out);
    statemachine(&mut out);
    transport(seed, &mut out);
    storage(scratch, &mut out);
    telemetry(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ns_grows_with_the_work() {
        let spin = |n: u64| move || (0..n).fold(1u64, |a, i| black_box(a.wrapping_mul(31) ^ i));
        let (small, large) = (time_ns(200, spin(100)), time_ns(200, spin(10_000)));
        assert!(large > 10.0 * small, "{small} ns vs {large} ns");
    }

    #[test]
    fn ledger_words_stay_inside_the_decoding_radius() {
        let mut rng = Rng(3);
        for (machine, errors, erasures) in
            [(bank(32, 8), 8, 0), (bank(8, 4), 1, 1), (bank(4, 2), 0, 0)]
        {
            let w = word(&machine, &mut rng, errors, erasures);
            assert_eq!(w.iter().filter(|s| s.is_none()).count(), erasures);
            let decoded = machine.decode_coordinate(&w).expect("decodes");
            assert_eq!(decoded.error_positions().len(), errors);
        }
    }
}
