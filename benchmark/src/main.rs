//! The repo benchmark. One command runs a workload as fixed-work blocks,
//! checks its outputs, and prints every metric by name with its unit; the
//! last line of standard output is the result as one JSON object.
//!
//! ```text
//! csm-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! csm-benchmark [--seed N] [--seconds S]        # every workload, both modes
//! csm-benchmark --selfcheck [--seconds S]       # the suite twice, A/A
//! ```
//!
//! See `README.md` in this directory for what is measured and why.

mod block;
mod coded;
mod json;
mod layers;
mod live;
mod selfcheck;
mod sim;
mod spans;
mod spec;
mod stats;

use block::Block;
use spans::Tracer;
use spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 20_190_729;

#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Multiplies every block's operation count (`smoke.sh` uses 0.05).
    scale: f64,
    /// Measured blocks per run; derived from `--seconds` when absent.
    blocks: Option<usize>,
    selfcheck: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        scale: 1.0,
        blocks: None,
        selfcheck: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?} (want one of {WORKLOADS:?})"
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--scale" => {
                args.scale = value("a number")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--blocks" => {
                args.blocks = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--blocks: {e}"))?,
                );
            }
            "--trace" => {
                // `--trace 0|1` as the driver passes it; bare `--trace` means on
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.scale > 0.0) || args.blocks == Some(0) {
        return Err("--seconds, --scale and --blocks must be positive".into());
    }
    Ok(args)
}

/// The benchmark's own directory inside the checkout it was built in.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where durable stores go: tmpfs when the box has one, because on the
/// sandbox disk most of a durable run is the disk's fsync (measured:
/// `sim_faults` runs 5.3x slower there), which this box cannot speak for.
/// Without `/dev/shm` they go under `benchmark/out/`.
fn scratch_dir() -> (PathBuf, bool) {
    let name = format!("csm-benchmark-{}", std::process::id());
    let shm = Path::new("/dev/shm").join(&name);
    if std::fs::create_dir_all(&shm).is_ok() {
        return (shm, true);
    }
    let fallback = bench_dir().join("out").join(name);
    std::fs::create_dir_all(&fallback).expect("create a scratch directory");
    (fallback, false)
}

/// One workload's fixed-work block, at `scale`.
fn run_block(workload: &str, seed: u64, scale: f64, tracer: &mut Tracer) -> Block {
    let ops = |full: usize| ((full as f64 * scale).round() as usize).max(2);
    match workload {
        "coded_clean" => coded::run_block(&coded::Params::new(0, ops(340)), seed, tracer),
        "coded_byz" => coded::run_block(&coded::Params::new(8, ops(300)), seed, tracer),
        "sim_faults" => sim::run_block(seed, ops(750) as u64, tracer),
        "live_steady" => live::run_block(&live::Params::steady(ops(1000)), seed, tracer),
        "live_byz" => live::run_block(&live::Params::byz(ops(22)), seed, tracer),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Fresh set-ups, timed, for workloads whose blocks do not build their
/// own cluster. Empty for `live_*`. A run takes them twice, before its
/// first and after its last block, so that one noisy moment cannot shift
/// them all; not between blocks, where their allocations moved
/// `sim_faults`' peak RSS by 6 % from run to run.
fn setup_samples(workload: &str) -> Vec<f64> {
    let time = |f: &dyn Fn()| {
        (0..101)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect()
    };
    match workload {
        "coded_clean" | "coded_byz" => time(&|| {
            std::hint::black_box(coded::build(&coded::Params::new(0, 1)));
        }),
        "sim_faults" => time(&sim::setup_once),
        _ => Vec::new(),
    }
}

/// Measured blocks per run (pairs of blocks per traced run) when they fit.
const BLOCKS: usize = 7;
const TRACED_PAIRS: usize = 5;

/// One run's blocks, kept inside `--seconds`.
struct Run<'a> {
    workload: &'a str,
    args: &'a Args,
    started: Instant,
    /// The longest any block of this run has taken, teardown included.
    slowest_s: f64,
    setups: Vec<f64>,
}

impl<'a> Run<'a> {
    fn new(workload: &'a str, args: &'a Args) -> Self {
        Run {
            workload,
            args,
            started: Instant::now(),
            slowest_s: 0.0,
            setups: setup_samples(workload),
        }
    }

    /// Runs one block. A `live_*` block in which the box held an honest
    /// gateway up for longer than Δ says so: it counts like any other
    /// block, and the note explains the failures that follow from it.
    fn block(&mut self, traced: bool) -> (Block, Tracer) {
        let (workload, args) = (self.workload, self.args);
        let mut tracer = if traced { Tracer::on() } else { Tracer::off() };
        let t = Instant::now();
        let block = run_block(workload, args.seed, args.scale, &mut tracer);
        let took_s = t.elapsed().as_secs_f64();
        self.slowest_s = self.slowest_s.max(took_s);
        println!(
            "block {workload} wall_s {} cpu_s {} committed {} took_s {took_s}",
            block.wall_s,
            block.cpu_s,
            block.committed(),
        );
        if let Some(why) = &block.stalled {
            println!("note {workload}: {why}");
        }
        (block, tracer)
    }

    /// The run's set-up samples, once its blocks are done.
    fn setups(mut self) -> Vec<f64> {
        self.setups.extend(setup_samples(self.workload));
        self.setups
    }

    /// Whether two more blocks fit: `have` is short of `most` (`--blocks`
    /// when given), and unless `--blocks` says how many to run, what is
    /// left of `--seconds` holds two blocks as slow as the slowest so far
    /// (a `live_byz` cluster takes 0.04 to 1.4 s to stop).
    fn two_more_fit(&self, have: usize, most: usize) -> bool {
        match self.args.blocks {
            Some(n) => have < n,
            None => {
                let spent_s = self.started.elapsed().as_secs_f64();
                have < most && spent_s + 2.0 * self.slowest_s <= self.args.seconds
            }
        }
    }
}

/// One metric of a finished run.
#[derive(Debug)]
struct Reported {
    metric: Metric,
    value: f64,
    /// First and third quartile over the run's blocks, where the metric
    /// has one value per block.
    block_quartiles: Option<(f64, f64)>,
}

/// A finished run: what the result line carries.
#[derive(Debug)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// In declaration order.
    metrics: Vec<Reported>,
    errors: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Counts every block's operations and collects what went wrong; a
/// deterministic workload whose blocks disagree fails as a whole.
fn tally(blocks: &[Block]) -> (u64, u64, Vec<String>) {
    let attempted: u64 = blocks.iter().map(|b| b.attempted).sum();
    let mut failed: u64 = blocks.iter().map(|b| b.failed).sum();
    let mut errors: Vec<String> = blocks.iter().filter_map(|b| b.error.clone()).collect();
    let prints: Vec<u64> = blocks.iter().filter_map(|b| b.fingerprint).collect();
    if prints.windows(2).any(|w| w[0] != w[1]) {
        failed = attempted;
        errors.push("blocks of one seed gave different counts or commit digests".into());
    }
    (attempted, failed, errors)
}

fn run_end_to_end(workload: &str, args: &Args) -> Outcome {
    let mut run = Run::new(workload, args);
    let (warmup, _) = run.block(false);
    // an odd count, so the median block is one of the blocks
    let mut blocks = vec![run.block(false).0];
    while run.two_more_fit(blocks.len(), BLOCKS) {
        blocks.push(run.block(false).0);
        if args.blocks.is_none() {
            blocks.push(run.block(false).0);
        }
    }
    let setups = &run.setups();
    let values = block::end_to_end(&blocks, setups);
    let per_block: Vec<_> = blocks
        .iter()
        .map(|b| block::end_to_end(std::slice::from_ref(b), setups))
        .collect();
    let metrics = END_TO_END
        .iter()
        .map(|m| Reported {
            metric: *m,
            value: values[m.name],
            block_quartiles: Some(quartiles(
                &per_block.iter().map(|b| b[m.name]).collect::<Vec<_>>(),
            )),
        })
        .collect();
    // the warm-up block is not measured, but its outputs are still checked
    blocks.push(warmup);
    let (attempted, failed, errors) = tally(&blocks);
    Outcome {
        attempted,
        failed,
        metrics,
        errors,
    }
}

fn run_traced(workload: &str, args: &Args, scratch: &Path) -> Outcome {
    let mut run = Run::new(workload, args);
    let mut values = layers::ledger(args.seed, scratch);
    let (warmup, _) = run.block(false);
    // untraced and traced blocks alternate, so both see the same machine
    let (mut plain, mut traced, mut last_trace) = (Vec::new(), Vec::new(), Tracer::off());
    while plain.is_empty() || run.two_more_fit(plain.len(), TRACED_PAIRS) {
        plain.push(run.block(false).0);
        let (block, trace) = run.block(true);
        traced.push(block);
        last_trace = trace;
    }
    let out = bench_dir().join("out");
    let span_file = out.join(format!("trace_{workload}.json"));
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&span_file, last_trace.to_json(workload)))
        .unwrap_or_else(|e| panic!("write {}: {e}", span_file.display()));
    println!(
        "spans {} ({} spans)",
        span_file.display(),
        last_trace.spans.len()
    );

    values.extend(block::layer_medians(&traced));
    let wall = |bs: &[Block]| median(&bs.iter().map(|b| b.wall_s).collect::<Vec<_>>());
    let cpu_us_per_cmd = block::cpu_us_per_cmd(&plain);
    values.insert("process.cpu_us_per_cmd", cpu_us_per_cmd);
    values.insert(
        "trace.overhead_pct",
        100.0 * (wall(&traced) / wall(&plain) - 1.0),
    );
    values.insert("trace.spans", last_trace.spans.len() as f64);
    if workload.starts_with("coded") {
        values.insert("core.machine_build_ms", median(&run.setups()) * 1e3);
    } else {
        values.insert(
            "ledger.coverage_pct",
            ledger_estimate(workload, &values, cpu_us_per_cmd),
        );
    }
    let walls: Vec<f64> = plain.iter().map(|b| b.wall_s).collect();
    values.insert("harness.blocks", (plain.len() + traced.len()) as f64);
    values.insert("harness.block_wall_s", median(&walls));
    values.insert("harness.block_spread_pct", 100.0 * stats::spread(&walls));

    let mut blocks = plain;
    blocks.extend(traced);
    blocks.push(warmup);
    let (attempted, failed, errors) = tally(&blocks);
    values.insert("harness.failed_share", failed as f64 / attempted as f64);
    let stalled = blocks.iter().filter(|b| b.stalled.is_some()).count();
    values.insert("node.stalled_blocks", stalled as f64);
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "undeclared per-layer metric {name}"
        );
    }
    Outcome {
        attempted,
        failed,
        // a layer that is not on this workload's path did no work: 0
        metrics: PER_LAYER
            .iter()
            .map(|m| Reported {
                metric: *m,
                value: values.get(m.name).copied().unwrap_or(0.0),
                block_quartiles: None,
            })
            .collect(),
        errors,
    }
}

/// `ledger.coverage_pct` where the bench cannot wrap the layers in spans:
/// Σ(layer cost × operations per command) over the measured CPU per
/// command, from the ledger rows and the counts the run exposes. An
/// estimate, reported and not asserted.
fn ledger_estimate(workload: &str, v: &BTreeMap<&'static str, f64>, cpu_us_per_cmd: f64) -> f64 {
    let row = |name: &str| v.get(name).copied().unwrap_or(0.0);
    let us_per_cmd = if workload == "sim_faults" {
        // per command: a Submit to every node, a Reply from every node;
        // per round and node: one decode per result coordinate, one WAL append
        let n = sim::NODES as f64;
        let node_rounds = row("chaos.rounds_per_kcmd") / 1e3 * n;
        let frame_us = (row("transport.frame_sign_ns")
            + row("transport.frame_encode_ns")
            + row("transport.frame_decode_ns")
            + row("transport.frame_verify_ns"))
            / 1e3;
        2.0 * n * frame_us
            + node_rounds
                * (2.0 * row("reed-solomon.decode_erasure_us") + row("storage.wal_append_us"))
    } else {
        // every delivered frame crossed the mesh once; every node decodes
        // each round's word coordinate by coordinate and times its phases
        let rs = if workload == "live_byz" {
            row("reed-solomon.decode_erasure_us")
        } else {
            row("reed-solomon.decode_small_us")
        };
        row("transport.frames_per_cmd") * row("transport.mem_hop_us")
            + row("node.decodes_per_cmd") * (2.0 * rs + row("telemetry.recording_span_ns") / 1e3)
    };
    100.0 * us_per_cmd / cpu_us_per_cmd
}

/// Prints every metric by name with its unit, then the result line.
fn report(workload: &str, args: &Args, outcome: &Outcome) {
    for r in &outcome.metrics {
        let blocks = r
            .block_quartiles
            .map_or(String::new(), |(q1, q3)| format!(" q1 {q1} q3 {q3}"));
        println!(
            "metric {workload} {} {} {}{blocks}",
            r.metric.name, r.value, r.metric.unit
        );
    }
    for e in &outcome.errors {
        println!("error {workload}: {e}");
    }
    println!(
        "run {workload} seed {} trace {} correct {} attempted {} failed {}",
        args.seed,
        u8::from(args.trace),
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    println!("{}", result_line(outcome));
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric a `{value, unit}` pair.
fn result_line(outcome: &Outcome) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, r) in outcome.metrics.iter().enumerate() {
        let (name, value, unit) = (r.metric.name, r.value, r.metric.unit);
        assert!(value.is_finite(), "{name} is not a number: {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

/// Runs one workload and reports it; whether every check passed.
fn run_workload(workload: &str, args: &Args) -> bool {
    let (scratch, on_tmpfs) = scratch_dir();
    // SAFETY-free: set before any thread exists; the chaos harness puts
    // its durable stores under `std::env::temp_dir()`
    std::env::set_var("TMPDIR", &scratch);
    println!(
        "workload {workload} seed {} seconds {} scale {} nproc {} store_on_tmpfs={on_tmpfs}",
        args.seed,
        args.seconds,
        args.scale,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let outcome = if args.trace {
        run_traced(workload, args, &scratch)
    } else {
        run_end_to_end(workload, args)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    report(workload, args, &outcome);
    outcome.correct()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("csm-benchmark: {e}");
        std::process::exit(2);
    });
    if args.selfcheck {
        std::process::exit(selfcheck::selfcheck(&args));
    }
    match &args.workload {
        Some(workload) => std::process::exit(i32::from(!run_workload(workload, &args))),
        None => std::process::exit(selfcheck::suite(&args)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Value;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args(&[
            "--workload",
            "sim_faults",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload.as_deref(), Some("sim_faults"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(
            !args(&["--trace", "0", "--seed", "3"])
                .expect("parses")
                .trace
        );
        assert!(args(&["--trace"]).expect("parses").trace);
        assert_eq!(args(&[]).expect("parses").seed, DEFAULT_SEED);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn blocks_come_in_pairs_while_they_fit_into_the_seconds() {
        let mut a = args(&["--seconds", "20"]).expect("parses");
        let mut run = Run::new("coded_clean", &a);
        run.slowest_s = 2.2;
        assert!(run.two_more_fit(1, BLOCKS) && run.two_more_fit(5, BLOCKS));
        assert!(!run.two_more_fit(7, BLOCKS), "never more than BLOCKS");
        // a slow teardown seen once is assumed for the blocks to come
        run.slowest_s = 11.0;
        assert!(!run.two_more_fit(1, BLOCKS));
        // `--blocks` is exact, whatever the clock says
        a.blocks = Some(3);
        let mut run = Run::new("coded_clean", &a);
        run.slowest_s = 100.0;
        assert!(run.two_more_fit(1, BLOCKS) && run.two_more_fit(2, BLOCKS));
        assert!(!run.two_more_fit(3, BLOCKS));
    }

    fn outcome(table: &[Metric], failed: u64) -> Outcome {
        Outcome {
            attempted: 1000,
            failed,
            metrics: table
                .iter()
                .enumerate()
                .map(|(i, m)| Reported {
                    metric: *m,
                    value: 1.5 + i as f64 / 7.0,
                    block_quartiles: None,
                })
                .collect(),
            errors: Vec::new(),
        }
    }

    #[test]
    fn result_line_is_the_contract_object() {
        for table in [&END_TO_END[..], &PER_LAYER[..]] {
            let v = json::parse(&result_line(&outcome(table, 0))).expect("result line parses");
            let keys: Vec<&str> = v
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
            let metrics = v
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            // printed set == declared set, both directions, names legal
            assert_eq!(
                metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                table.iter().map(|m| m.name).collect::<Vec<_>>()
            );
            for ((name, value), m) in metrics.iter().zip(table) {
                assert!(spec::legal_name(name));
                assert_eq!(value.get("unit").and_then(Value::as_str), Some(m.unit));
                assert!(value.get("value").and_then(Value::as_f64).is_some());
                assert_eq!(value.as_object().map(<[_]>::len), Some(2));
            }
        }
    }

    #[test]
    fn failures_reach_the_result_line() {
        let v = json::parse(&result_line(&outcome(&END_TO_END, 25))).expect("parses");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(25.0));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(1000.0));
    }

    #[test]
    fn disagreeing_blocks_fail_the_whole_run() {
        let b = |print| Block {
            attempted: 10,
            fingerprint: Some(print),
            ..Block::default()
        };
        assert_eq!(tally(&[b(1), b(1)]).1, 0);
        let (attempted, failed, errors) = tally(&[b(1), b(2)]);
        assert_eq!((attempted, failed, errors.len()), (20, 20, 1));
    }

    #[test]
    fn a_stalled_block_counts_like_any_other() {
        // the box's stall explains the failures; it does not excuse them
        let limping = Block {
            attempted: 10,
            failed: 4,
            error: Some("honest nodes 1 and 2 committed different digests".into()),
            stalled: Some("honest node 2 fail-stopped on the desync check".into()),
            ..Block::default()
        };
        let fine = Block {
            attempted: 10,
            ..Block::default()
        };
        let (attempted, failed, errors) = tally(&[fine, limping]);
        assert_eq!((attempted, failed, errors.len()), (20, 4, 1));
    }

    /// Small blocks: one twentieth of the operation counts.
    fn small_block(workload: &str, seed: u64) -> Block {
        run_block(workload, seed, 0.05, &mut Tracer::off())
    }

    #[test]
    fn deterministic_workloads_repeat_and_a_fresh_seed_still_passes() {
        for workload in ["coded_clean", "coded_byz", "sim_faults"] {
            let (a, b) = (small_block(workload, 11), small_block(workload, 11));
            assert_eq!(a.error, None, "{workload}");
            assert_eq!((a.failed, b.failed), (0, 0), "{workload}");
            assert!(a.fingerprint.is_some(), "{workload} has counts to compare");
            assert_eq!(
                a.fingerprint, b.fingerprint,
                "{workload}: same seed, same counts and digests"
            );
            assert_eq!(a.attempted, b.attempted);
            // a seed that was never used while sizing the workloads
            let c = small_block(workload, 0xFEED_5EED);
            assert_eq!(
                (c.failed, c.error.clone()),
                (0, None),
                "{workload} on a fresh seed"
            );
            assert_ne!(
                a.fingerprint, c.fingerprint,
                "{workload}: the seed changes the commands"
            );
        }
    }

    #[test]
    fn live_workloads_pass_their_checks_on_two_seeds() {
        for workload in ["live_steady", "live_byz"] {
            for seed in [11, 0xFEED_5EED] {
                let b = small_block(workload, seed);
                assert_eq!(
                    (b.failed, b.error.clone()),
                    (0, None),
                    "{workload} seed {seed}"
                );
                assert_eq!(b.latencies_ms.len() as u64, b.attempted);
                assert!(b.setup_s.is_some_and(|s| s > 0.0));
            }
        }
    }

    #[test]
    fn a_wrong_result_fails_the_block() {
        // the check itself: a round whose reference disagrees is caught
        let mut tracer = Tracer::on();
        let block = coded::run_block(&coded::Params::new(8, 3), 5, &mut tracer);
        assert_eq!(block.failed, 0);
        assert_eq!(block.layer["core.detected_errors_per_round"], 8.0);
        assert_eq!(block.layer["core.decodes_per_cmd"], 1.0);
        // spans partition the round: self times sum to the root spans
        let selfs: u64 = tracer.self_times_ns().values().sum();
        assert_eq!(selfs, tracer.root_ns());
        // more corrupted nodes than the code corrects: every round fails
        let broken = coded::run_block(&coded::Params::new(13, 3), 5, &mut Tracer::off());
        assert_eq!(broken.failed, broken.attempted);
        assert!(broken.error.is_some());
    }
}
