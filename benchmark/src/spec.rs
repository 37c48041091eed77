//! What the benchmark declares: its workloads and metrics, by name. The
//! same tables are written out in `BENCHMARK.json` (a test holds the two
//! together) and explained in `README.md`.

/// A declared metric: name, unit, direction, and for end-to-end metrics
/// the share of the parent's median by which it may get worse.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    e2e(name, unit, better, 0.0)
}

pub const WORKLOADS: [&str; 5] = [
    "coded_clean",
    "coded_byz",
    "sim_faults",
    "live_steady",
    "live_byz",
];

/// Printed by every `--trace 0` run, on every workload.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("cmds_per_s", "1/s", "higher", 0.25),
    e2e("p50_ms", "ms", "lower", 0.25),
    e2e("p90_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
];

/// Printed by every `--trace 1` run. A row whose layer is not on the
/// workload's path reads 0 there.
pub const PER_LAYER: [Metric; 66] = [
    layer("process.cpu_us_per_cmd", "us", "lower"),
    layer("algebra.fp61_mul_ns", "ns", "lower"),
    layer("algebra.fp61_inv_ns", "ns", "lower"),
    layer("algebra.gf16_mul_ns", "ns", "lower"),
    layer("algebra.poly_eval_us", "us", "lower"),
    layer("algebra.interpolate_us", "us", "lower"),
    layer("algebra.solve_us", "us", "lower"),
    layer("reed-solomon.encode_us", "us", "lower"),
    layer("reed-solomon.decode_clean_us", "us", "lower"),
    layer("reed-solomon.decode_err_us", "us", "lower"),
    layer("reed-solomon.decode_erasure_us", "us", "lower"),
    layer("reed-solomon.decode_small_us", "us", "lower"),
    layer("statemachine.apply_flat_ns", "ns", "lower"),
    layer("statemachine.fold_commands_ns", "ns", "lower"),
    layer("core.encode_commands_us", "us", "lower"),
    layer("core.execute_batched_us", "us", "lower"),
    layer("core.decode_word_us", "us", "lower"),
    layer("core.commit_us", "us", "lower"),
    layer("core.digest_ns", "ns", "lower"),
    layer("core.decode_share", "ratio", "lower"),
    layer("core.decodes_per_cmd", "count", "lower"),
    layer("core.detected_errors_per_round", "count", "lower"),
    layer("core.machine_build_ms", "ms", "lower"),
    layer("core.replication_us_per_cmd", "us", "lower"),
    layer("core.coded_over_replication", "ratio", "lower"),
    layer("network.mac_sign_ns", "ns", "lower"),
    layer("network.mac_verify_ns", "ns", "lower"),
    layer("transport.frame_sign_ns", "ns", "lower"),
    layer("transport.frame_encode_ns", "ns", "lower"),
    layer("transport.frame_decode_ns", "ns", "lower"),
    layer("transport.frame_verify_ns", "ns", "lower"),
    layer("transport.result_frame_bytes", "bytes", "lower"),
    layer("transport.submit_frame_bytes", "bytes", "lower"),
    layer("transport.mem_hop_us", "us", "lower"),
    layer("transport.frames_per_cmd", "count", "lower"),
    layer("storage.wal_append_us", "us", "lower"),
    layer("storage.wal_replay_us_per_record", "us", "lower"),
    layer("storage.snapshot_write_us", "us", "lower"),
    layer("storage.wal_bytes_per_cmd", "bytes", "lower"),
    layer("node.rounds_per_s", "1/s", "higher"),
    layer("node.empty_round_share", "ratio", "lower"),
    layer("node.cmds_per_round", "count", "higher"),
    layer("node.replies_per_cmd", "count", "lower"),
    layer("node.stage_fallbacks", "count", "lower"),
    layer("node.rejected_share", "ratio", "lower"),
    layer("node.decodes_per_cmd", "count", "lower"),
    layer("node.stalled_blocks", "count", "lower"),
    layer("client.attempts_per_cmd", "count", "lower"),
    layer("client.matching_replies", "count", "higher"),
    layer("client.p99_ms", "ms", "lower"),
    layer("chaos.rounds_per_kcmd", "count", "lower"),
    layer("chaos.resyncs", "count", "lower"),
    layer("chaos.decode_failures", "count", "lower"),
    layer("chaos.telemetry_events_per_cmd", "count", "lower"),
    layer("chaos.violations", "count", "lower"),
    layer("telemetry.null_span_ns", "ns", "lower"),
    layer("telemetry.recording_span_ns", "ns", "lower"),
    layer("gen.late_p99_ms", "ms", "lower"),
    layer("gen.late_max_ms", "ms", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.spans", "count", "lower"),
    layer("ledger.coverage_pct", "%", "higher"),
    layer("harness.failed_share", "ratio", "lower"),
    layer("harness.blocks", "count", "higher"),
    layer("harness.block_wall_s", "s", "lower"),
    layer("harness.block_spread_pct", "%", "lower"),
];

#[cfg(test)]
/// Whether `name` is a legal contract name: starts with a letter or a
/// digit, then at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn legal_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 << 10, "BENCHMARK.json over 64 KiB");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
    }

    fn keys(v: &Value) -> Vec<&str> {
        v.as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    #[test]
    fn names_are_legal_and_used_once() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(legal_name(name), "illegal name {name:?}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(!legal_name("") && !legal_name(".x") && !legal_name("a b") && !legal_name("µs"));
        assert!(!legal_name(&"x".repeat(65)));
    }

    #[test]
    fn manifest_declares_exactly_what_the_harness_prints() {
        let m = manifest();
        assert_eq!(
            keys(&m),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let declared = |section: &str| -> Vec<&Value> {
            m.get(section)
                .and_then(Value::as_array)
                .expect(section)
                .iter()
                .collect()
        };

        let workloads = declared("workloads");
        assert_eq!(
            workloads
                .iter()
                .map(|w| str_field(w, "name"))
                .collect::<Vec<_>>(),
            WORKLOADS
        );
        for w in workloads {
            assert_eq!(keys(w), ["name", "why"]);
            let why = str_field(w, "why");
            assert!(
                why.chars().count() <= 200 && !why.contains('\n'),
                "why of {w:?}"
            );
        }

        for (section, table, with_bound) in [
            ("end_to_end", &END_TO_END[..], true),
            ("per_layer", &PER_LAYER[..], false),
        ] {
            let rows = declared(section);
            // both directions: same names, same order, nothing extra
            assert_eq!(
                rows.iter()
                    .map(|r| str_field(r, "name"))
                    .collect::<Vec<_>>(),
                table.iter().map(|t| t.name).collect::<Vec<_>>(),
                "{section} names"
            );
            for (row, metric) in rows.iter().zip(table) {
                let expected: &[&str] = if with_bound {
                    &["name", "unit", "better", "bound"]
                } else {
                    &["name", "unit", "better"]
                };
                assert_eq!(keys(row), expected, "{}", metric.name);
                assert_eq!(str_field(row, "unit"), metric.unit, "{}", metric.name);
                assert_eq!(str_field(row, "better"), metric.better, "{}", metric.name);
                assert!(metric.unit.len() <= 16 && metric.unit.is_ascii());
                if with_bound {
                    let bound = row.get("bound").and_then(Value::as_f64).expect("bound");
                    assert_eq!(bound, metric.bound, "{}", metric.name);
                    assert!(bound > 0.0 && bound <= 0.25);
                }
            }
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn manifest_command_and_paths_stay_inside_the_benchmark() {
        let m = manifest();
        let paths: Vec<&str> = m
            .get("paths")
            .and_then(Value::as_array)
            .expect("paths")
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
        let command: Vec<&str> = m
            .get("command")
            .and_then(Value::as_array)
            .expect("command")
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert!(!command.is_empty() && command.len() <= 32);
        for arg in &command {
            assert!(
                arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
                "{arg}"
            );
        }
        assert!(command.contains(&"benchmark/Cargo.toml"));
        let seconds = m
            .get("run_seconds")
            .and_then(Value::as_f64)
            .expect("run_seconds");
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        // 4 + 22 runs per workload, with set-up and two builds, in 3420 s
        let runs = 4.0 + 22.0 * WORKLOADS.len() as f64;
        assert!(runs * (seconds + 8.0) + 2.0 * 60.0 < 3420.0);
    }
}
