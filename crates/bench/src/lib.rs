//! # csm-bench
//!
//! The harness regenerating every table and figure of the CSM paper:
//!
//! | binary | artifact |
//! |--------|----------|
//! | `table1` | Table 1 — security / storage / throughput, all schemes |
//! | `table2` | Table 2 — bounds on `b`, empirically probed |
//! | `fig_scaling` | Theorem 1/2 — `K(N)` scaling at fixed `µ`, `ν` |
//! | `fig_throughput` | §6 — coding cost: per-node naive vs centralized fast |
//! | `fig_intermix` | §6.1 — INTERMIX role costs vs `K` |
//! | `fig_tradeoff` | §1/§3 — security vs `K` at fixed `N` |
//! | `fig_boolean` | Appendix A — Boolean machines through CSM |
//! | `fig_random_allocation` | §7 — random sharding vs CSM under a dynamic adversary |
//!
//! Criterion microbenchmarks live in `benches/`. The [`workload`] and
//! [`recovery`] modules are the client-workload and kill-and-rejoin
//! harnesses the integration tests and examples drive. Performance
//! numbers come from the repo benchmark (`benchmark/`), not from here.

#![warn(missing_docs)]

pub mod recovery;
pub mod workload;

use csm_algebra::OpCounts;

/// Renders an aligned text table (the binaries' output format).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        println!("| {} |", joined.join(" | "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

/// Mean of total per-node operation counts.
pub fn mean_total(per_node: &[OpCounts]) -> f64 {
    if per_node.is_empty() {
        return 0.0;
    }
    per_node.iter().map(|o| o.total()).sum::<u64>() as f64 / per_node.len() as f64
}

/// Max of total per-node operation counts.
pub fn max_total(per_node: &[OpCounts]) -> u64 {
    per_node.iter().map(|o| o.total()).max().unwrap_or(0)
}

/// Formats a float compactly.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(42.31), "42.3");
        assert_eq!(fmt(1.5), "1.500");
    }

    #[test]
    fn mean_and_max() {
        let counts = vec![
            OpCounts {
                adds: 1,
                muls: 1,
                invs: 0,
            },
            OpCounts {
                adds: 3,
                muls: 3,
                invs: 0,
            },
        ];
        assert_eq!(mean_total(&counts), 4.0);
        assert_eq!(max_total(&counts), 6);
        assert_eq!(mean_total(&[]), 0.0);
    }
}
