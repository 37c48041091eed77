//! The suite (every workload, both modes) and `--selfcheck` (the suite's
//! end-to-end half twice, back to back, compared at half bound). Each
//! workload runs in its own child process, so `peak_rss_mb` is its own.

use crate::json::{self, Value};
use crate::spec::{END_TO_END, WORKLOADS};
use crate::Args;
use std::collections::BTreeMap;
use std::process::Command;

/// One child run that passed its checks, read back from its standard
/// output: metric name → (value, block quartiles when the child printed
/// them).
type ChildRun = BTreeMap<String, (f64, Option<(f64, f64)>)>;

/// Reads a run's `metric` lines (for the block quartiles) and its result
/// line (the last line, for everything else).
fn read_run(stdout: &str) -> Result<ChildRun, String> {
    let last = stdout.lines().last().ok_or("no output")?;
    let result = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let mut metrics = BTreeMap::new();
    for (name, m) in result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?
    {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or("metric without value")?;
        metrics.insert(name.clone(), (value, None));
    }
    for line in stdout.lines() {
        // metric <workload> <name> <value> <unit> q1 <q1> q3 <q3>
        let f: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", _, name, _, _, "q1", q1, "q3", q3] = f[..] {
            if let (Some(slot), Ok(q1), Ok(q3)) = (metrics.get_mut(name), q1.parse(), q3.parse()) {
                slot.1 = Some((q1, q3));
            }
        }
    }
    Ok(metrics)
}

fn run_child(workload: &str, args: &Args, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--scale", &args.scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(blocks) = args.blocks {
        cmd.args(["--blocks", &blocks.to_string()]);
    }
    // `output` waits for the child to end
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    // a run that fails a correctness check exits non-zero, like a crash
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        return Err(format!("{workload} exited with {}", out.status));
    }
    read_run(&stdout)
}

/// Runs every workload untraced and traced; the exit status is non-zero
/// if any run failed a correctness check.
pub fn suite(args: &Args) -> i32 {
    let mut bad = Vec::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            if let Err(e) = run_child(workload, args, trace) {
                bad.push(format!("{workload} (trace {}): {e}", u8::from(trace)));
            }
        }
    }
    for b in &bad {
        println!("FAILED {b}");
    }
    println!("suite {}", if bad.is_empty() { "OK" } else { "FAILED" });
    i32::from(!bad.is_empty())
}

/// A/A: two back-to-back passes of the same code must agree on every
/// `workload/metric` within half the declared bound.
pub fn selfcheck(args: &Args) -> i32 {
    let mut passes: Vec<BTreeMap<&str, ChildRun>> = Vec::new();
    for _ in 0..2 {
        let mut pass = BTreeMap::new();
        for workload in WORKLOADS {
            match run_child(workload, args, false) {
                Ok(run) => {
                    pass.insert(workload, run);
                }
                Err(e) => {
                    println!("selfcheck FAILED: {e}");
                    return 1;
                }
            }
        }
        passes.push(pass);
    }
    let mut failures = 0;
    println!(
        "{:<12} {:<15} {:<7} {:>14} {:>14} {:>24} {:>8} {:>7}  verdict",
        "workload", "metric", "better", "A", "B", "blocks q1..q3 (A)", "diff%", "limit%"
    );
    for workload in WORKLOADS {
        let (a, b) = (&passes[0][workload], &passes[1][workload]);
        for m in &END_TO_END {
            let ((va, qa), (vb, _)) = (a[m.name], b[m.name]);
            let diff = (vb - va).abs() / va;
            let ok = diff <= m.bound / 2.0;
            failures += i32::from(!ok);
            let (q1, q3) = qa.unwrap_or((va, va));
            println!(
                "{workload:<12} {:<15} {:<7} {va:>14.4} {vb:>14.4} {:>24} {:>8.2} {:>7.1}  {}",
                m.name,
                m.better,
                format!("{q1:.4}..{q3:.4}"),
                100.0 * diff,
                50.0 * m.bound,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    println!("selfcheck {}", if failures == 0 { "PASS" } else { "FAIL" });
    i32::from(failures != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_reads_back() {
        let out = "workload coded_clean seed 1\n\
                   metric coded_clean cmds_per_s 1234.5 1/s q1 1200 q3 1250.25\n\
                   metric coded_clean p50_ms 2.5 ms q1 2.4 q3 2.6\n\
                   run coded_clean seed 1 trace 0 correct true attempted 10 failed 0\n\
                   {\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                   {\"cmds_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
                   \"p50_ms\": {\"value\": 2.5, \"unit\": \"ms\"}}}";
        let run = read_run(out).expect("reads");
        assert_eq!(run["cmds_per_s"], (1234.5, Some((1200.0, 1250.25))));
        assert_eq!(run["p50_ms"].0, 2.5);
        assert!(read_run("").is_err());
        assert!(read_run("not json").is_err());
    }
}
