//! # lv-metrics
//!
//! Metrics, statistics and reporting for the long-vector reproduction.
//!
//! Section 2.2 of the paper defines the metrics every figure is built from:
//! the vector instruction mix `Mv = iv/it`, the vector activity `Av = cv/ct`,
//! the vector CPI `Cv = cv/iv`, the average vector length `AVL` and the
//! vector occupancy `Ev = AVL/vlmax`.  [`summary`] computes them from the
//! simulator's per-phase hardware counters.  [`regression`] provides the
//! ordinary-least-squares multiple linear regression (and its coefficient of
//! determination R²) used by Table 6 to correlate phase-1/phase-8 cycles with
//! cache misses and memory-instruction ratios.  [`report`] renders the
//! tables/series of every experiment as aligned text, Markdown or CSV.
//! [`tracecheck`] validates `lv-trace` span logs for CI (structure,
//! timestamp order, per-rank nesting); [`metricscheck`] does the same for
//! the fleet-metrics exposition (Prometheus text format structure).  Both
//! report through [`GateReport`].  Nothing here measures time: the
//! repository's one benchmark is the `benchmark/` package.

#![warn(missing_docs)]

pub mod metricscheck;
pub mod regression;
pub mod report;
pub mod summary;
pub mod tracecheck;

pub use metricscheck::validate_prometheus;
pub use regression::{linear_regression, GateCheck, GateReport, RegressionResult};
pub use report::Table;
pub use summary::{PhaseMetrics, RunMetrics};
pub use tracecheck::validate_trace_jsonl;
