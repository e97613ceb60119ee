//! Text rendering of the paper's tables and figure data.

use crate::experiment::Evaluation;
use seda_protect::SchemeInfo;
use seda_scalesim::NpuConfig;
use std::fmt::Write as _;

/// Renders Table I: the qualitative comparison of SeDA's three MAC
/// granularities.
pub fn table1() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table I: Multi-level integrity verification granularity");
    let _ = writeln!(
        s,
        "{:<10} {:<12} {:<26} {:<12}",
        "Granularity", "Flexibility", "Off-chip access overhead", "Storage"
    );
    let _ = writeln!(
        s,
        "{:<10} {:<12} {:<26} {:<12}",
        "optBlk", "high", "per-block MAC if stored", "Off-chip"
    );
    let _ = writeln!(
        s,
        "{:<10} {:<12} {:<26} {:<12}",
        "layer", "medium", "0 (folded on-chip)", "Off/On-chip"
    );
    let _ = writeln!(
        s,
        "{:<10} {:<12} {:<26} {:<12}",
        "model", "low", "0", "On-chip"
    );
    s
}

/// Renders Table II from the two NPU configurations.
pub fn table2(configs: &[NpuConfig]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table II: DNN simulation configurations");
    let mut header = format!("{:<12}", "Metric");
    for c in configs {
        let _ = write!(header, "{:<28}", c.name);
    }
    let _ = writeln!(s, "{header}");
    let row = |label: &str, f: &dyn Fn(&NpuConfig) -> String| {
        let mut r = format!("{label:<12}");
        for c in configs {
            let _ = write!(r, "{:<28}", f(c));
        }
        r
    };
    let _ = writeln!(
        s,
        "{}",
        row("PE", &|c| format!("{} x {} systolic array", c.rows, c.cols))
    );
    let _ = writeln!(
        s,
        "{}",
        row("Bandwidth", &|c| format!(
            "{:.0} GB/s with {} channels",
            c.dram_bandwidth / 1e9,
            c.dram_channels
        ))
    );
    let _ = writeln!(
        s,
        "{}",
        row("Frequency", &|c| format!("{:.2} GHz", c.clock_hz / 1e9))
    );
    let _ = writeln!(
        s,
        "{}",
        row("SRAM", &|c| if c.sram_bytes >= 1 << 20 {
            format!("{} MB", c.sram_bytes >> 20)
        } else {
            format!("{} KB", c.sram_bytes >> 10)
        })
    );
    let _ = writeln!(s, "{}", row("Precision", &|_| "1-B per element".to_owned()));
    s
}

/// Renders Table III from scheme descriptors.
pub fn table3(schemes: &[SchemeInfo]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table III: Comparison of memory protection schemes");
    let _ = writeln!(
        s,
        "{:<10} {:<26} {:<34} {:<24} {:<8} {:<8}",
        "Scheme",
        "Encryption granularity",
        "Integrity granularity",
        "Off-chip access",
        "Tiling",
        "Scalable"
    );
    for i in schemes {
        let _ = writeln!(
            s,
            "{:<10} {:<26} {:<34} {:<24} {:<8} {:<8}",
            i.name,
            i.encryption_granularity,
            i.integrity_granularity,
            i.offchip_metadata,
            if i.tiling_aware { "yes" } else { "no" },
            if i.encryption_scalable { "yes" } else { "no" },
        );
    }
    s
}

/// Renders a Fig. 5-style table: normalized traffic per workload/scheme.
pub fn figure5(eval: &Evaluation) -> String {
    figure(eval, "Fig. 5: normalized memory traffic", |o| {
        o.traffic_norm
    })
}

/// Renders a Fig. 6-style table: normalized runtime per workload/scheme.
pub fn figure6(eval: &Evaluation) -> String {
    figure(eval, "Fig. 6: normalized performance (runtime)", |o| {
        o.perf_norm
    })
}

fn figure(
    eval: &Evaluation,
    title: &str,
    f: impl Fn(&crate::experiment::SchemeOutcome) -> f64,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title} — {} NPU", eval.npu);
    let mut header = format!("{:<10}", "workload");
    if let Some(w) = eval.workloads.first() {
        for o in &w.outcomes {
            let _ = write!(header, "{:>10}", o.scheme);
        }
    }
    let _ = writeln!(s, "{header}");
    for w in &eval.workloads {
        let mut row = format!("{:<10}", w.workload);
        for o in &w.outcomes {
            let _ = write!(row, "{:>10.4}", f(o));
        }
        let _ = writeln!(s, "{row}");
    }
    // Average row, as in the figures.
    let n = eval.workloads.len() as f64;
    let mut row = format!("{:<10}", "avg");
    if let Some(w0) = eval.workloads.first() {
        for i in 0..w0.outcomes.len() {
            let sum: f64 = eval.workloads.iter().map(|w| f(&w.outcomes[i])).sum();
            let _ = write!(row, "{:>10.4}", sum / n);
        }
    }
    let _ = writeln!(s, "{row}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{evaluations_of, lineup};
    use seda_models::zoo;
    use seda_protect::paper_lineup;

    #[test]
    fn tables_render_nonempty() {
        assert!(table1().contains("optBlk"));
        let t2 = table2(&[NpuConfig::server(), NpuConfig::edge()]);
        assert!(t2.contains("256 x 256"));
        assert!(t2.contains("480 KB"));
        let infos: Vec<_> = paper_lineup().iter().map(|s| s.info()).collect();
        let t3 = table3(&infos);
        assert!(t3.contains("SGX-64B"));
        assert!(t3.contains("SeDA"));
    }

    #[test]
    fn figure_tables_include_average() {
        let eval = &evaluations_of(&lineup(&[NpuConfig::edge()], &[zoo::lenet()]).run())[0];
        let f5 = figure5(eval);
        assert!(f5.contains("avg"));
        assert!(f5.contains("let"));
        let f6 = figure6(eval);
        assert!(f6.contains("baseline"));
    }
}

/// Renders a horizontal ASCII bar chart of labelled values (used by the
/// figure binaries to visualize scheme means in the terminal).
pub fn bar_chart(title: &str, rows: &[(String, f64)], width: usize) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let max = rows.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
    if rows.is_empty() || max <= 0.0 || max.is_nan() {
        let _ = writeln!(s, "  (no data)");
        return s;
    }
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, value) in rows {
        let bars = ((value / max) * width as f64).round() as usize;
        let _ = writeln!(
            s,
            "  {label:<label_w$} {:<width$} {value:.4}",
            "#".repeat(bars.max(1))
        );
    }
    s
}

#[cfg(test)]
mod bar_tests {
    use super::*;

    #[test]
    fn bars_scale_with_values() {
        let rows = vec![("a".to_owned(), 1.0), ("b".to_owned(), 2.0)];
        let chart = bar_chart("t", &rows, 20);
        let lines: Vec<&str> = chart.lines().collect();
        let count = |s: &str| s.matches('#').count();
        assert_eq!(count(lines[2]), 20, "max value fills the width");
        assert_eq!(count(lines[1]), 10);
    }

    #[test]
    fn empty_chart_is_graceful() {
        assert!(bar_chart("t", &[], 10).contains("no data"));
    }

    #[test]
    fn tiny_values_still_visible() {
        let rows = vec![("x".to_owned(), 0.0001), ("y".to_owned(), 1.0)];
        let chart = bar_chart("t", &rows, 30);
        assert!(chart.lines().nth(1).unwrap().contains('#'));
    }
}
