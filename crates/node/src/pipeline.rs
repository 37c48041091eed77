//! Real-time round pipelining (§2.2): "the consensus phase of later
//! rounds can be performed in parallel with the execution phase of the
//! current round" — here over actual sockets and wall-clock time.
//!
//! # How the overlap works
//!
//! Each round needs its command batch *staged* before execution: every
//! node broadcasts a signed [`csm_transport::Payload::Stage`] vote for the
//! batch, and the batch is final once (a) the staging window
//! [`PipelineConfig::stage_delta`] has elapsed since this node's vote —
//! the synchronous-model guarantee that every honest vote has landed, so
//! a proposer equivocating on the batch would be visible — and (b) a
//! quorum of bit-identical votes is held.
//!
//! * **Sequential** (`window = 0`): round `t`'s vote goes out when round
//!   `t − 1` commits, so every round pays `stage_delta` *then* the
//!   exchange's Δ — the two latencies serialize.
//! * **Pipelined** (`window ≥ 1`): votes for rounds `t+1 … t+window` go
//!   out *before* round `t`'s exchange starts. The staging window elapses
//!   while the exchange blocks on its own Δ-deadline, and the incoming
//!   votes are absorbed by the exchange loop's frame dispatch (the same
//!   future-round buffering that handles early results). By the time
//!   round `t` commits, round `t+1`'s batch is already final — the
//!   per-round cost drops from `stage_delta + Δ` to `max(stage_delta, Δ)`,
//!   the paper's pipeline bound.
//!
//! The in-flight window is bounded (`window` rounds plus the runtime's
//! `ROUND_LOOKAHEAD` absorption cap), so a fast node cannot flood slow
//! peers with unbounded future state.

use crate::runtime::{ExchangeTiming, NodeRuntime};
use crate::{wire_behavior, EngineSpec, NodeReport, RoundEngine};
use csm_algebra::Field;
use csm_network::auth::KeyRegistry;
use csm_transport::Transport;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Staging/pipelining parameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// How many rounds ahead staging votes are sent: `0` is strictly
    /// sequential (stage, then execute), `1` overlaps round `t + 1`'s
    /// staging with round `t`'s execution, and larger windows tolerate
    /// slower staging quorums.
    pub window: u64,
    /// The staging window: a batch is not final until this long after the
    /// node's own vote went out (all honest votes have landed under the
    /// synchronous model).
    pub stage_delta: Duration,
    /// Bit-identical votes required for a batch to be final. `N − b` is
    /// the natural choice (every honest node votes the same derived
    /// batch).
    pub quorum: usize,
    /// Hard cap on waiting for the quorum past the staging window, so a
    /// silent network cannot wedge the pipeline. On expiry the node falls
    /// back to its own derived batch.
    pub stage_timeout: Duration,
}

impl PipelineConfig {
    /// A sequential baseline configuration (no overlap).
    pub fn sequential(stage_delta: Duration, quorum: usize) -> Self {
        PipelineConfig {
            window: 0,
            stage_delta,
            quorum,
            stage_timeout: stage_delta * 4 + Duration::from_secs(2),
        }
    }

    /// A pipelined configuration staging one round ahead.
    pub fn pipelined(stage_delta: Duration, quorum: usize) -> Self {
        PipelineConfig {
            window: 1,
            ..Self::sequential(stage_delta, quorum)
        }
    }
}

/// A [`NodeReport`] plus pipeline timing diagnostics.
#[derive(Debug, Clone)]
pub struct PipelineReport<F> {
    /// The per-round commits.
    pub report: NodeReport<F>,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
    /// Time spent *blocked* waiting for staging (window + quorum). Near
    /// zero when pipelining hides the staging latency.
    pub stage_blocked: Duration,
    /// Rounds where the quorum never formed and the node fell back to its
    /// own derived batch.
    pub stage_fallbacks: u64,
    /// Wall-clock duration of each round (staging wait + execute +
    /// exchange + commit), for latency-distribution reporting.
    pub round_wall: Vec<Duration>,
    /// Per-round wall of the staging wait (window + quorum), aligned
    /// with `round_wall`. Measured directly (no sink indirection), so
    /// benchmarks get a per-phase breakdown at zero telemetry cost.
    pub stage_wall: Vec<Duration>,
    /// Per-round wall of coded execution (encode + evaluate).
    pub execute_wall: Vec<Duration>,
    /// Per-round wall of the §5.2 result exchange.
    pub exchange_wall: Vec<Duration>,
    /// Per-round wall of Reed–Solomon decode + commit.
    pub decode_wall: Vec<Duration>,
}

/// Runs the multi-round node loop with staged, optionally pipelined
/// command batches. With `cfg.window = 0` this is the sequential baseline
/// measured against; with `cfg.window ≥ 1` round `t + 1`'s staging
/// overlaps round `t`'s execution.
///
/// # Panics
///
/// Panics if the spec's machine does not match the transport's mesh size
/// or the initial states are malformed.
pub fn run_pipelined<F: Field, T: Transport>(
    transport: T,
    registry: Arc<KeyRegistry>,
    timing: ExchangeTiming,
    spec: &EngineSpec<F>,
    cfg: &PipelineConfig,
) -> PipelineReport<F> {
    let n = transport.n();
    let id = transport.local_id().0;
    assert_eq!(spec.machine.n(), n, "machine sized for a different mesh");
    let mut rt = NodeRuntime::new(transport, registry, timing);
    let mut engine = RoundEngine::new(Arc::clone(&spec.machine), id, &spec.initial_states)
        .expect("spec states match the machine");
    let mut commits = Vec::with_capacity(spec.rounds as usize);
    let mut staged_at: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut stage_blocked = Duration::ZERO;
    let mut stage_fallbacks = 0u64;
    let mut round_wall = Vec::with_capacity(spec.rounds as usize);
    let mut stage_wall = Vec::with_capacity(spec.rounds as usize);
    let mut execute_wall = Vec::with_capacity(spec.rounds as usize);
    let mut exchange_wall = Vec::with_capacity(spec.rounds as usize);
    let mut decode_wall = Vec::with_capacity(spec.rounds as usize);
    let started = Instant::now();

    for round in 0..spec.rounds {
        let round_started = Instant::now();
        // send staging votes for this round and the window ahead (bounded
        // in-flight: at most `window + 1` rounds are ever staged early)
        let horizon = round.saturating_add(cfg.window).min(spec.rounds - 1);
        for r in round..=horizon {
            staged_at.entry(r).or_insert_with(|| {
                rt.announce_stage(r, spec.wire_commands(r));
                Instant::now()
            });
        }

        // the staging window for *this* round: already elapsed when the
        // vote went out a whole exchange earlier (the pipelined case)
        let deadline = staged_at[&round] + cfg.stage_delta;
        stage_blocked += rt.pump_until(deadline);
        let commands = match rt
            .wait_for_stage(round, cfg.quorum, cfg.stage_timeout)
            .and_then(|batch| spec.commands_from_wire(&batch))
        {
            Some(agreed) => agreed,
            None => {
                // liveness fallback: every honest node derives the same
                // batch, so executing our own keeps the cluster in step
                stage_fallbacks += 1;
                spec.commands(round)
            }
        };

        stage_wall.push(round_started.elapsed());

        let execute_started = Instant::now();
        let g = engine
            .execute(&commands)
            .expect("staged commands are well-shaped");
        let behavior = wire_behavior(id, n, spec.machine.result_dim(), spec.behavior, g);
        execute_wall.push(execute_started.elapsed());
        let exchange_started = Instant::now();
        let word = rt.run_exchange_round(round, &behavior);
        exchange_wall.push(exchange_started.elapsed());
        let decode_started = Instant::now();
        let commit = engine.commit_word(&word);
        if let Some(c) = &commit {
            rt.announce_commit(round, c.digest);
        }
        decode_wall.push(decode_started.elapsed());
        commits.push(commit);
        staged_at.remove(&round);
        round_wall.push(round_started.elapsed());
    }

    PipelineReport {
        report: NodeReport { id, commits },
        elapsed: started.elapsed(),
        stage_blocked,
        stage_fallbacks,
        round_wall,
        stage_wall,
        execute_wall,
        exchange_wall,
        decode_wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bank_spec, cluster_registry, BehaviorKind};
    use csm_algebra::Fp61;
    use csm_transport::mem::MemMesh;
    use std::thread;

    fn run_mesh(
        n: usize,
        rounds: u64,
        cfg: PipelineConfig,
        behavior_of: impl Fn(usize) -> BehaviorKind,
    ) -> Vec<PipelineReport<Fp61>> {
        let registry = cluster_registry(n, 55);
        let base = bank_spec(n, 2, 55, rounds, BehaviorKind::Honest).unwrap();
        let mesh = MemMesh::build(Arc::clone(&registry));
        let mut handles = Vec::new();
        for (i, transport) in mesh.into_iter().enumerate() {
            let registry = Arc::clone(&registry);
            let cfg = cfg.clone();
            let mut spec = base.clone();
            spec.behavior = behavior_of(i);
            let timing = ExchangeTiming::synchronous(1, Duration::from_millis(120));
            handles.push(thread::spawn(move || {
                run_pipelined(transport, registry, timing, &spec, &cfg)
            }));
        }
        let mut reports: Vec<PipelineReport<Fp61>> = handles
            .into_iter()
            .map(|h| h.join().expect("node thread"))
            .collect();
        reports.sort_by_key(|r| r.report.id);
        reports
    }

    fn assert_all_agree(reports: &[PipelineReport<Fp61>], byzantine: &[usize], rounds: u64) {
        let honest: Vec<_> = reports
            .iter()
            .filter(|r| !byzantine.contains(&r.report.id))
            .collect();
        for r in &honest {
            assert_eq!(r.report.digests().len(), rounds as usize);
        }
        for round in 0..rounds as usize {
            let digests: Vec<u64> = honest
                .iter()
                .map(|r| r.report.commits[round].as_ref().unwrap().digest)
                .collect();
            assert!(digests.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn pipelined_run_commits_and_overlaps_staging() {
        let n = 6;
        let rounds = 4;
        let stage = Duration::from_millis(80);
        let reports = run_mesh(n, rounds, PipelineConfig::pipelined(stage, n - 1), |_| {
            BehaviorKind::Honest
        });
        assert_all_agree(&reports, &[], rounds);
        for r in &reports {
            assert_eq!(r.stage_fallbacks, 0, "quorum formed every round");
            // only the pipeline-fill round blocks on staging; later
            // windows elapse during the 120ms exchanges
            assert!(
                r.stage_blocked < stage * 2,
                "node {} blocked {:?} on staging",
                r.report.id,
                r.stage_blocked
            );
        }
    }

    #[test]
    fn sequential_run_pays_the_staging_window_every_round() {
        let n = 5;
        let rounds = 3;
        let stage = Duration::from_millis(80);
        let reports = run_mesh(n, rounds, PipelineConfig::sequential(stage, n - 1), |_| {
            BehaviorKind::Honest
        });
        assert_all_agree(&reports, &[], rounds);
        for r in &reports {
            assert!(
                r.stage_blocked >= stage.mul_f64(0.9) * (rounds as u32),
                "sequential staging must serialize: blocked only {:?}",
                r.stage_blocked
            );
        }
    }

    #[test]
    fn pipelined_survives_equivocator() {
        let n = 8;
        let rounds = 4;
        let reports = run_mesh(
            n,
            rounds,
            PipelineConfig::pipelined(Duration::from_millis(60), n - 2),
            |i| {
                if i == 0 {
                    BehaviorKind::Equivocate
                } else {
                    BehaviorKind::Honest
                }
            },
        );
        assert_all_agree(&reports, &[0], rounds);
    }
}
