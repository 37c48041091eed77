//! The client path end to end (§1/§3): external clients submit bank
//! deposits to a live 8-node CSM cluster over an in-process mesh, the
//! per-round leader batches them, and every client accepts its output
//! only after `b + 1` bit-identical replies — despite node 0 equivocating
//! (on results *and* replies) and node 1 withholding both.
//!
//! ```sh
//! cargo run --release --example client_cluster
//! ```

use csm_node::workload::{
    one_equivocator_one_withholder, run_mem_workload, verify_bank_outcome, WorkloadConfig,
};
use std::time::Duration;

fn main() {
    let cfg = WorkloadConfig {
        cluster: 8,
        shards: 4,
        assumed_faults: 2,
        clients: 8,
        commands_per_client: 2,
        delta: Duration::from_millis(40),
        partial_sync: false,
        batch_cap: 1,
        seed: 9,
        consensus: csm_node::ConsensusKind::LeaderEcho,
        scrape: true,
        flight_dir: None,
    };
    println!(
        "cluster: N = {}, K = {} bank shards, b = {} (accept at {} matching replies)",
        cfg.cluster,
        cfg.shards,
        cfg.assumed_faults,
        cfg.assumed_faults + 1
    );
    println!("byzantine: node 0 equivocates, node 1 withholds");
    println!(
        "clients: {} closed-loop, {} deposits each\n",
        cfg.clients, cfg.commands_per_client
    );

    let outcome = run_mem_workload(&cfg, one_equivocator_one_withholder);

    for c in &outcome.clients {
        for r in &c.receipts {
            println!(
                "client {:2} seq {} -> shard {} round {:3}: balance {:5} \
                 ({} matching replies, {:5.1} ms)",
                c.index,
                r.seq,
                r.shard,
                r.round,
                r.output[0],
                r.matching,
                r.latency.as_secs_f64() * 1e3,
            );
        }
    }

    let lat = outcome.merged_latencies();
    println!(
        "\ncommitted {}/{} commands in {:.2}s  ({:.1} cmds/s, p50 {:.0} ms, p99 {:.0} ms)",
        outcome.committed(),
        (cfg.clients * cfg.commands_per_client) as u64,
        outcome.client_elapsed.as_secs_f64(),
        outcome.commands_per_sec(),
        lat.p50().as_secs_f64() * 1e3,
        lat.p99().as_secs_f64() * 1e3,
    );

    verify_bank_outcome(&cfg, &outcome, &[0, 1]).expect("client-path verification");
    println!("verified: every accepted output matches the honest state machine");

    // the same mesh also answers telemetry scrapes (docs/OBSERVABILITY.md)
    println!(
        "\ntelemetry: scraped {} node snapshots",
        outcome.telemetry.len()
    );
    if let Some((node, snap)) = outcome.telemetry.iter().find(|(n, _)| *n == 2) {
        for p in &snap.phases {
            println!(
                "node {node} phase {:18} p50 {:6.1} ms  p99 {:6.1} ms  ({} samples)",
                p.phase,
                p.p50_us as f64 / 1e3,
                p.p99_us as f64 / 1e3,
                p.count
            );
        }
        println!(
            "node {node} pinned the equivocator {} times, rejected {} forged MACs",
            snap.counter("equivocation_detected.peer0"),
            snap.counter("mac_rejected")
        );
    }
}
