//! `compare <a.json> <b.json>`: the no-regression rule applied to two
//! result files written by `run` — one row per workload × end-to-end metric.

use crate::jsonio::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};

/// What the runs of one metric on two commits say about the second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Median within the bound, spread within the bound.
    Unchanged,
    Improved,
    /// Median worse than the first's by more than the bound.
    Regression,
    /// The run-to-run spread exceeds the bound, and the runs overlap:
    /// the metric cannot tell the two apart.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative worsening of median `b` against median `a` (positive = worse).
fn worsening(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (median(a), median(b));
    match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

/// Applies `bound` to the runs `a` (first commit) and `b` (second commit).
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let worse = worsening(a, b, better);
    let noisy = spread(a).max(spread(b)) > bound;
    if noisy {
        // Only a clean separation of every run speaks through the noise.
        let sign = if better == Better::Lower { 1.0 } else { -1.0 };
        let lo = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
        let hi = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
        return if hi(b) < lo(a) {
            Verdict::Improved
        } else if lo(b) > hi(a) && worse > bound {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn numbers(value: Option<&Value>) -> Vec<f64> {
    value
        .and_then(Value::as_array)
        .map_or_else(Vec::new, |items| items.iter().filter_map(Value::as_f64).collect())
}

fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

fn failed_ratio(workload: &Value) -> f64 {
    let sum = |key: &str| numbers(workload.get(key)).iter().sum::<f64>();
    sum("failed") / sum("attempted").max(1.0)
}

/// Compares two parsed result files; returns the printed rows and whether
/// the second one regressed.
pub fn compare_documents(a: &Value, b: &Value) -> (Vec<String>, bool) {
    let mut rows = Vec::new();
    let mut regressed = false;
    rows.push(format!(
        "{:<12} {:<12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "worse", "spread a", "spread b", "bound"
    ));
    for spec in crate::workloads::ALL {
        let (Some(wa), Some(wb)) = (workload(a, spec.name), workload(b, spec.name)) else {
            rows.push(format!("{:<12} missing from one of the files", spec.name));
            regressed = true;
            continue;
        };
        for metric in END_TO_END {
            let values = |w: &Value| {
                numbers(
                    w.get("end_to_end")
                        .and_then(|e| e.get(metric.name))
                        .and_then(|m| m.get("values")),
                )
            };
            let (va, vb) = (values(wa), values(wb));
            if va.is_empty() || vb.is_empty() {
                rows.push(format!("{:<12} {:<12} no samples", spec.name, metric.name));
                regressed = true;
                continue;
            }
            let outcome = verdict(&va, &vb, metric.better, metric.bound);
            regressed |= outcome == Verdict::Regression;
            rows.push(format!(
                "{:<12} {:<12} {:>12.5} {:>12.5} {:>+7.1}% {:>7.1}% {:>7.1}% {:>5.0}%  {}",
                spec.name,
                metric.name,
                median(&va),
                median(&vb),
                100.0 * worsening(&va, &vb, metric.better),
                100.0 * spread(&va),
                100.0 * spread(&vb),
                100.0 * metric.bound,
                outcome.name()
            ));
        }
        let (fa, fb) = (failed_ratio(wa), failed_ratio(wb));
        let higher = fb > fa;
        regressed |= higher;
        rows.push(format!(
            "{:<12} {:<12} {:>12.5} {:>12.5} {:>47}",
            spec.name,
            "failed_ratio",
            fa,
            fb,
            if higher { "REGRESSION (bound 0)" } else { "unchanged" }
        ));
        // Exact counts: a difference is information, not a regression — a
        // change may be meant to move them.
        for layer in PER_LAYER.iter().filter(|layer| layer.exact) {
            let value = |w: &Value| {
                w.get("per_layer")
                    .and_then(|p| p.get(layer.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
            };
            if let (Some(x), Some(y)) = (value(wa), value(wb)) {
                if x != y {
                    rows.push(format!(
                        "{:<12} {:<34} {x} -> {y}  exact count differs",
                        spec.name, layer.name
                    ));
                }
            }
        }
    }
    (rows, regressed)
}

/// The `compare` subcommand: prints the rows, returns the exit code.
pub fn run(path_a: &str, path_b: &str) -> i32 {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|error| format!("{path}: {error}"))
            .and_then(|text| jsonio::parse(&text).map_err(|error| format!("{path}: {error}")))
    };
    match (read(path_a), read(path_b)) {
        (Ok(a), Ok(b)) => {
            let (rows, regressed) = compare_documents(&a, &b);
            for row in rows {
                println!("{row}");
            }
            i32::from(regressed)
        }
        (Err(error), _) | (_, Err(error)) => {
            eprintln!("compare: {error}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_bound_separates_unchanged_regression_and_improved() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |by: f64| a.map(|x| x * by);
        assert_eq!(verdict(&a, &shift(1.02), Better::Lower, 0.05), Verdict::Unchanged);
        assert_eq!(verdict(&a, &shift(1.08), Better::Lower, 0.05), Verdict::Regression);
        assert_eq!(verdict(&a, &shift(0.90), Better::Lower, 0.05), Verdict::Improved);
        // Direction flips for a throughput.
        assert_eq!(verdict(&a, &shift(0.90), Better::Higher, 0.05), Verdict::Regression);
        assert_eq!(verdict(&a, &shift(1.08), Better::Higher, 0.05), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [90.0, 110.0, 95.0, 105.0, 100.0];
        assert_eq!(verdict(&noisy, &noisy, Better::Lower, 0.05), Verdict::Unresolved);
        // ... unless every run of the second beats every run of the first.
        let clearly_better = noisy.map(|x| x * 0.5);
        assert_eq!(verdict(&noisy, &clearly_better, Better::Lower, 0.05), Verdict::Improved);
        let clearly_worse = noisy.map(|x| x * 2.0);
        assert_eq!(verdict(&noisy, &clearly_worse, Better::Lower, 0.05), Verdict::Regression);
    }

    fn document(unit_ms: &[f64], failed: f64, iters: f64) -> Value {
        let values = unit_ms.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
        let workloads: Vec<String> = crate::workloads::ALL
            .iter()
            .map(|w| {
                format!(
                    r#"{{"name": "{}", "attempted": [10, 10], "failed": [{failed}, 0],
                        "end_to_end": {{"unit_ms": {{"unit": "ms", "values": [{values}]}},
                                        "setup_s": {{"unit": "s", "values": [1.0, 1.0]}}}},
                        "per_layer": {{"solver.poisson_iters": {{"unit": "count", "value": {iters}}}}}}}"#,
                    w.name
                )
            })
            .collect();
        jsonio::parse(&format!(r#"{{"workloads": [{}]}}"#, workloads.join(", ")))
            .expect("test document")
    }

    #[test]
    fn documents_compare_row_by_row_and_flag_regressions() {
        let base = document(&[100.0, 100.5, 99.5], 0.0, 24.0);
        let (rows, regressed) = compare_documents(&base, &base);
        assert!(!regressed, "{rows:#?}");
        assert_eq!(rows.len(), 1 + crate::workloads::ALL.len() * (END_TO_END.len() + 1));

        let slower = document(&[150.0, 151.0, 149.0], 0.0, 24.0);
        let (rows, regressed) = compare_documents(&base, &slower);
        assert!(regressed);
        assert!(rows.iter().any(|r| r.contains("unit_ms") && r.contains("REGRESSION")));

        let failing = document(&[100.0, 100.5, 99.5], 1.0, 25.0);
        let (rows, regressed) = compare_documents(&base, &failing);
        assert!(regressed, "a higher failed_ratio is a regression");
        assert!(rows.iter().any(|r| r.contains("solver.poisson_iters") && r.contains("24 -> 25")));
    }
}
