//! Measurement helpers: exact percentiles from raw samples, the
//! median-of-blocks reduction, quartiles as Python's
//! `statistics.quantiles(n=4)` computes them (so `--selfcheck` reads the
//! same spread the driver does), the process CPU clock and peak RSS.

/// Exact nearest-rank percentile of raw samples (`q` in `(0, 1]`): the
/// smallest sample with at least `q` of the samples at or below it. No
/// samples (a block in which nothing was acknowledged) read 0.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a set of values (mean of the two middle ones when even).
///
/// # Panics
///
/// Panics on an empty set.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile, by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. Fewer than two values have no
/// spread: both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range over the median — the spread the driver compares
/// with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used, all threads, in nanoseconds. Read from
/// the kernel's nanosecond clock, never from `/proc` ticks (10 ms each).
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this benchmark builds for) that outlives
    // the call, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The harness's only randomness — the workspace's SplitMix64, chained —
/// so inputs are a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = csm_core::digest::splitmix64(self.0);
        self.0
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.50), 50.0);
        assert_eq!(percentile(&samples, 0.90), 90.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // never interpolates: the result is always one of the samples
        assert_eq!(percentile(&[1.0, 2.0, 10.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 10.0], 0.7), 10.0);
    }

    #[test]
    fn median_of_blocks_ignores_one_slow_block() {
        assert_eq!(median(&[2.0, 2.1, 9.0, 1.9, 2.05]), 2.05);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cpu_clock_advances_with_work_and_rss_is_read() {
        let before = process_cpu_ns();
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        let used = process_cpu_ns() - before;
        // nanosecond resolution: far finer than a 10 ms /proc tick
        assert!(
            used > 0 && !used.is_multiple_of(10_000_000),
            "cpu ns = {used}"
        );
        assert!(peak_rss_mib() > 0.5);
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let (mut a, mut b, mut c) = (Rng(9), Rng(9), Rng(10));
        let xs: Vec<u64> = (0..4).map(|_| a.next()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next()).collect::<Vec<_>>());
        assert!(a.below(5) < 5);
    }
}
