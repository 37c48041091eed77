//! `sim_faults`: the whole cluster on the virtual clock, under faults.
//!
//! N = 8, K = 4, b = 2, durable (WAL + snapshots), `batch_cap` 4, the
//! chaos harness's default backend and link (Δ = 2 000 ticks). Node 0
//! equivocates throughout; 16 clients each submit one command every
//! 32 000 ticks (open loop on the virtual clock); node 7 is partitioned
//! at ¼ of the span and healed at ⅜; node 5 crashes at ½ and restarts at
//! ⅝; a probe burst closes the run. One thread and no sleeps: wall time
//! is the cluster's total CPU plus its store flushes.

use crate::block::Block;
use crate::spans::Tracer;
use crate::stats::process_cpu_ns;
use csm_chaos::{run_schedule, BehaviorKind, ChaosConfig, ChaosEvent, ChaosRun, Schedule};
use std::hash::{Hash, Hasher};
use std::time::Instant;

pub const NODES: usize = 8;
const CLIENTS: usize = 16;
const BURST_EVERY: u64 = 32_000;
const PROBE_CLIENTS: usize = 3;

pub fn config() -> ChaosConfig {
    let mut c = ChaosConfig::new(NODES, 4, 2);
    c.batch_cap = 4;
    c.clients = CLIENTS;
    c.durable = true;
    c.behaviors = vec![(0, BehaviorKind::Equivocate)];
    c.check_liveness = true;
    c
}

/// The fault schedule for `bursts` load bursts.
pub fn schedule(seed: u64, bursts: u64) -> Schedule {
    let span = bursts * BURST_EVERY;
    let burst = |clients, probe| ChaosEvent::Burst {
        first_client: 0,
        clients,
        commands: 1,
        probe,
    };
    let mut events: Vec<(u64, ChaosEvent)> = (0..bursts)
        .map(|i| (1_000 + i * BURST_EVERY, burst(CLIENTS, false)))
        .collect();
    events.extend([
        (
            span / 4,
            ChaosEvent::Partition {
                a: vec![7],
                b: (0..7).collect(),
            },
        ),
        (span * 3 / 8, ChaosEvent::Heal),
        (span / 2, ChaosEvent::Crash { node: 5 }),
        (span * 5 / 8, ChaosEvent::Restart { node: 5 }),
        (span + BURST_EVERY, burst(PROBE_CLIENTS, true)),
    ]);
    events.sort_by_key(|(tick, _)| *tick);
    Schedule {
        seed,
        horizon: span + 8 * BURST_EVERY,
        events,
    }
}

/// What `setup_s` times here, as on `live_*`: a cluster built (stores
/// opened) and driven until it has acknowledged its first commands — one
/// probe burst, three rounds on the virtual clock — then torn down. A
/// quiet schedule alone is 0.2 ms of mostly file-system calls, which a
/// noisy hour on this box slows by half while the CPU-bound blocks slow
/// by a tenth. The seed is fixed: it only moves link jitter, and with it
/// whether the horizon cuts the cluster off in its third or its fourth
/// round (a quarter of the time measured).
pub fn setup_once() {
    let first_ack = Schedule {
        seed: 1,
        horizon: 10_000,
        events: vec![(
            1_000,
            ChaosEvent::Burst {
                first_client: 0,
                clients: PROBE_CLIENTS,
                commands: 1,
                probe: true,
            },
        )],
    };
    let run = run_schedule(&config(), &first_ack);
    assert!(
        run.clean() && run.acked.len() == PROBE_CLIENTS,
        "set-up: {} of {PROBE_CLIENTS} commands acknowledged, violations {:?}",
        run.acked.len(),
        run.violations
    );
}

/// Counts and commit digests that the replay contract says must repeat
/// exactly on every block.
fn fingerprint(run: &ChaosRun) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    run.acked.hash(&mut h);
    run.events.len().hash(&mut h);
    for n in &run.nodes {
        (
            n.resyncs,
            n.decode_failures,
            n.commands_committed,
            n.final_round,
        )
            .hash(&mut h);
        n.digest_history.hash(&mut h);
    }
    h.finish()
}

pub fn run_block(seed: u64, bursts: u64, tracer: &mut Tracer) -> Block {
    let (config, schedule) = (config(), schedule(seed, bursts));
    let submitted = bursts * CLIENTS as u64 + PROBE_CLIENTS as u64;

    let started = Instant::now();
    let cpu_started = process_cpu_ns();
    let span = tracer.begin("chaos.run_schedule", 0, None);
    let run = run_schedule(&config, &schedule);
    tracer.end(span);
    let cpu_s = (process_cpu_ns() - cpu_started) as f64 / 1e9;
    let wall_s = started.elapsed().as_secs_f64();

    let acked = run.acked.len() as u64;
    let mut block = Block {
        wall_s,
        cpu_s,
        attempted: submitted,
        failed: submitted.saturating_sub(acked),
        fingerprint: Some(fingerprint(&run)),
        ..Block::default()
    };
    // no client waits here, so a block is one sample: the wall time the
    // cluster takes per burst window of 16 commands
    block.latencies_ms = vec![wall_s * 1e3 / bursts as f64];
    if !run.clean() {
        block.fail(format!("audit violations: {:?}", run.violations));
    } else if !run.unacked_probes.is_empty() {
        block.fail(format!(
            "{} probe commands unacked",
            run.unacked_probes.len()
        ));
    } else if acked != submitted {
        block.fail(format!("acked {acked} of {submitted} submitted commands"));
    }

    if tracer.is_on() {
        let rounds = run.nodes.iter().map(|n| n.final_round).max().unwrap_or(0);
        let sum = |f: fn(&csm_chaos::NodeOutcome) -> u64| run.nodes.iter().map(f).sum::<u64>();
        let l = &mut block.layer;
        l.insert(
            "chaos.rounds_per_kcmd",
            rounds as f64 * 1e3 / acked.max(1) as f64,
        );
        l.insert("chaos.resyncs", sum(|n| n.resyncs) as f64);
        l.insert("chaos.decode_failures", sum(|n| n.decode_failures) as f64);
        l.insert(
            "chaos.telemetry_events_per_cmd",
            run.events.len() as f64 / acked.max(1) as f64,
        );
        l.insert("chaos.violations", run.violations.len() as f64);
    }
    block
}
