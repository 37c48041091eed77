//! Transport throughput: frames/second moved through the in-memory
//! channel mesh vs. real loopback TCP, for small (Ping) and result-sized
//! frames. Seeds the perf trajectory for batching / sharding PRs: the gap
//! between the two backends is the budget later transport work can spend.
//!
//! `frame_auth` times one frame's authentication alone — sign, verify,
//! and a receiver's decode plus MAC over the received payload bytes — for
//! the frames a bank cluster sends most: a `Result`, a 4-row `Stage` and
//! a `Submit`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use csm_network::auth::KeyRegistry;
use csm_network::NodeId;
use csm_transport::mem::MemMesh;
use csm_transport::tcp::TcpMesh;
use csm_transport::{Frame, Payload, Transport};
use std::sync::Arc;
use std::time::Duration;

const BATCH: usize = 256;

fn result_frame(reg: &KeyRegistry, values: usize) -> Frame {
    Frame::sign(
        Payload::Result {
            round: 1,
            sender: 0,
            values: (0..values as u64).collect(),
        },
        reg,
        NodeId(0),
    )
}

/// Sends `BATCH` frames from node 0 to node 1 and drains them — one
/// round-trip through encode → (channel | socket) → decode → verify.
fn pump<T: Transport>(sender: &T, receiver: &T, frame: &Frame) {
    for _ in 0..BATCH {
        sender
            .send(NodeId(1), frame.clone())
            .expect("bench send failed");
    }
    for _ in 0..BATCH {
        receiver
            .recv_timeout(Duration::from_secs(5))
            .expect("bench recv failed");
    }
}

/// A `Result`, a 4-row `Stage` (one bank row per shard: client, seq,
/// shard, client tag, amount) and a `Submit`, as a bank cluster sends them.
fn auth_payloads() -> [(&'static str, Payload); 3] {
    [
        (
            "result",
            Payload::Result {
                round: 1234,
                sender: 3,
                values: vec![0x1234_5678_9ABC, 0x0FED_CBA9_8765],
            },
        ),
        (
            "stage_4",
            Payload::Stage {
                round: 1234,
                sender: 3,
                commands: (0..4)
                    .map(|shard| vec![8 + shard, 77, shard, 0xC0DE ^ shard, 42])
                    .collect(),
            },
        ),
        (
            "submit",
            Payload::Submit {
                shard: 1,
                client: 8,
                seq: 77,
                command: vec![42],
            },
        ),
    ]
}

fn frame_auth(c: &mut Criterion) {
    let registry = KeyRegistry::new(10, 7);
    let mut group = c.benchmark_group("frame_auth");
    for (label, payload) in auth_payloads() {
        let frame = Frame::sign(payload.clone(), &registry, NodeId(3));
        let wire = frame.to_wire_bytes();
        group.bench_function(format!("sign/{label}"), |b| {
            b.iter(|| Frame::sign(black_box(payload.clone()), &registry, NodeId(3)));
        });
        group.bench_function(format!("verify/{label}"), |b| {
            b.iter(|| black_box(&frame).verify(&registry));
        });
        group.bench_function(format!("decode_verify/{label}"), |b| {
            b.iter(|| {
                let (frame, signed) =
                    Frame::decode_signed(black_box(&wire[4..])).expect("genuine frame decodes");
                assert!(registry.verify_bytes(signed, &frame.sig));
                frame
            });
        });
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    let registry = Arc::new(KeyRegistry::new(2, 7));
    let mem = MemMesh::build(Arc::clone(&registry));
    let tcp = TcpMesh::launch_loopback(Arc::clone(&registry)).expect("loopback mesh");

    let mut group = c.benchmark_group("transport_frames");
    for (label, values) in [
        ("ping_sized", 0usize),
        ("result_16", 16),
        ("result_256", 256),
    ] {
        let frame = result_frame(&registry, values);
        group.bench_with_input(BenchmarkId::new("mem", label), &frame, |b, frame| {
            b.iter(|| pump(&mem[0], &mem[1], frame));
        });
        group.bench_with_input(
            BenchmarkId::new("tcp_loopback", label),
            &frame,
            |b, frame| {
                b.iter(|| pump(&tcp[0], &tcp[1], frame));
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = group;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = frame_auth, benches
}
criterion_main!(group);
