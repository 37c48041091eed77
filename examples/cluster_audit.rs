//! The cluster auditor end to end: run a Byzantine bank workload on an
//! in-process mesh (node 0 equivocating, node 1 withholding), scrape
//! every gateway's telemetry, and merge the snapshots into one
//! `csm-auditor` cluster model — the corroborated Byzantine scorecard
//! (convictions need `b + 1` distinct reporters), the cross-node
//! median-round gantt with straggler spread, and the Δ-slack profile
//! (how much deadline headroom an optimistic fast path could reclaim).
//!
//! ```sh
//! cargo run --release --example cluster_audit
//! ```

use csm_auditor::{AuditConfig, ClusterAudit};
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
        seed: 17,
        consensus: csm_node::ConsensusKind::LeaderEcho,
        scrape: true,
        flight_dir: None,
    };
    println!(
        "cluster: N = {}, K = {}, b = {} — node 0 equivocates, node 1 withholds\n",
        cfg.cluster, cfg.shards, cfg.assumed_faults
    );

    let outcome = run_mem_workload(&cfg, one_equivocator_one_withholder);
    verify_bank_outcome(&cfg, &outcome, &[0, 1]).expect("client-path verification");

    // the auditor is pure client-side analysis over the scraped
    // snapshots: no keys, no frames, no protocol feedback
    let audit = ClusterAudit::build(
        AuditConfig {
            cluster: cfg.cluster,
            assumed_faults: cfg.assumed_faults,
        },
        &outcome.telemetry,
    );
    print!("{}", audit.render_text());

    // the conviction rule in action: both cast members cross the b + 1
    // distinct-reporter threshold, nobody else is accused
    assert_eq!(audit.convicted_peers(), vec![0, 1]);
    for score in &audit.scorecard.peers {
        assert!(
            [0, 1].contains(&score.peer),
            "honest node {} accused",
            score.peer
        );
    }
    println!(
        "\nconvicted: {:?} — every conviction corroborated by >= {} distinct reporters",
        audit.convicted_peers(),
        audit.scorecard.need
    );

    // the withholder forces every round to sit out the full exchange
    // window, so the measured Δ-slack is the fast-path headroom
    if let Some(ms) = audit.slack_p50_ms("exchange") {
        println!(
            "exchange slack p50: {ms} ms of the {} ms delta window — \
             headroom an optimistic fast path could reclaim",
            cfg.delta.as_millis()
        );
    }

    println!("\n-- prometheus exposition (excerpt) --");
    for line in audit
        .render_prometheus()
        .lines()
        .filter(|l| l.starts_with("csm_peer_") || l.starts_with("# TYPE csm_peer"))
    {
        println!("{line}");
    }
}
