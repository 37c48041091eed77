//! What one fixed-work block measures, and how blocks reduce to metrics.

use crate::stats::{median, percentile};
use std::collections::BTreeMap;

/// One block: the same seed and the same operations every time, so blocks
/// differ only by what the machine was doing meanwhile.
#[derive(Debug, Default)]
pub struct Block {
    /// Wall time of the measured interval, seconds.
    pub wall_s: f64,
    /// Process CPU time (all threads) over the same interval, seconds.
    pub cpu_s: f64,
    /// Operations the block attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, gave up, missed their limit,
    /// decoded wrongly or failed the correctness check.
    pub failed: u64,
    /// Latency samples, milliseconds: one per command where a client
    /// waits (`live_*`), else the block's mean time per unit of work.
    pub latencies_ms: Vec<f64>,
    /// Set-up time when the block builds its own cluster (`live_*`).
    pub setup_s: Option<f64>,
    /// Hash of the counts and commit digests that must repeat exactly on
    /// every block of a deterministic workload.
    pub fingerprint: Option<u64>,
    /// The first failed correctness check, if any.
    pub error: Option<String>,
    /// Set when the box held an honest gateway up for longer than Δ (see
    /// `live::stall`). Diagnosis only: the block counts like any other.
    pub stalled: Option<String>,
    /// Per-layer observations of this block, by per-layer metric name.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Block {
    /// Correct committed commands.
    pub fn committed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Fails the whole block: every command counts as failed.
    pub fn fail(&mut self, why: String) {
        self.failed = self.attempted;
        self.error.get_or_insert(why);
    }
}

/// The end-to-end metrics of a run, each the median over its blocks.
/// `setup_s` comes from the blocks when they carry one, else from
/// `setup_samples` (fresh builds timed before the blocks).
pub fn end_to_end(blocks: &[Block], setup_samples: &[f64]) -> BTreeMap<&'static str, f64> {
    let over = |f: &dyn Fn(&Block) -> f64| median(&blocks.iter().map(f).collect::<Vec<_>>());
    let per_block_setup: Vec<f64> = blocks.iter().filter_map(|b| b.setup_s).collect();
    let setup = if per_block_setup.is_empty() {
        setup_samples
    } else {
        &per_block_setup
    };
    BTreeMap::from([
        ("setup_s", median(setup)),
        ("cmds_per_s", over(&|b| b.committed() as f64 / b.wall_s)),
        ("p50_ms", over(&|b| percentile(&b.latencies_ms, 0.50))),
        ("p90_ms", over(&|b| percentile(&b.latencies_ms, 0.90))),
        ("peak_rss_mb", crate::stats::peak_rss_mib()),
    ])
}

/// Process CPU, all threads, per correct committed command: the median
/// block. Per-layer, not end-to-end: on `live_*` the same commands cost
/// 88 to 235 µs each depending on what else the box is doing.
pub fn cpu_us_per_cmd(blocks: &[Block]) -> f64 {
    let per_block: Vec<f64> = blocks
        .iter()
        .map(|b| b.cpu_s * 1e6 / b.committed().max(1) as f64)
        .collect();
    median(&per_block)
}

/// Median over blocks of every per-layer observation the blocks carry.
pub fn layer_medians(blocks: &[Block]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for b in blocks {
        for (name, v) in &b.layer {
            by_name.entry(name).or_default().push(*v);
        }
    }
    by_name
        .into_iter()
        .map(|(name, vs)| (name, median(&vs)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(wall_s: f64, attempted: u64, failed: u64) -> Block {
        Block {
            wall_s,
            cpu_s: wall_s / 2.0,
            attempted,
            failed,
            latencies_ms: vec![1.0, 2.0, 3.0, 4.0],
            ..Block::default()
        }
    }

    #[test]
    fn metrics_are_the_median_block() {
        let blocks = [block(1.0, 100, 0), block(4.0, 100, 0), block(2.0, 100, 0)];
        let m = end_to_end(&blocks, &[0.5, 0.1, 0.3]);
        assert_eq!(m["cmds_per_s"], 50.0);
        assert_eq!(cpu_us_per_cmd(&blocks), 10_000.0);
        assert_eq!(m["p50_ms"], 2.0);
        assert_eq!(m["p90_ms"], 4.0);
        assert_eq!(m["setup_s"], 0.3);
    }

    #[test]
    fn failures_count_against_attempted_not_against_throughput() {
        let mut b = block(1.0, 100, 10);
        assert_eq!(b.committed(), 90);
        let m = end_to_end(std::slice::from_ref(&b), &[1.0]);
        assert_eq!(m["cmds_per_s"], 90.0);
        b.fail("digest mismatch".into());
        assert_eq!((b.failed, b.committed()), (100, 0));
        b.fail("second".into());
        assert_eq!(b.error.as_deref(), Some("digest mismatch"));
    }

    #[test]
    fn block_setup_wins_over_prebuilt_samples() {
        let mut b = block(1.0, 10, 0);
        b.setup_s = Some(0.07);
        assert_eq!(end_to_end(&[b], &[9.0])["setup_s"], 0.07);
    }
}
