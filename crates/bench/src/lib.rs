//! Shared plumbing for the paper bench target.
//!
//! Every table/figure of the paper is a row of the one `paper` target under
//! `benches/`; the rows build the same memoized [`Runner`] workload and print
//! an [`lv_metrics::Table`] with the rows/series the paper reports.  The
//! workload size can be overridden with the `LV_BENCH_ELEMENTS` environment
//! variable (default: 1000 elements), and the sweep always uses the paper's
//! six `VECTOR_SIZE` values.

#![warn(missing_docs)]

use lv_core::experiment::{Runner, SweepConfig};
use lv_metrics::Table;

/// Default number of mesh elements for the simulation benches.
pub const DEFAULT_ELEMENTS: usize = 1000;

/// The element count a value of `LV_BENCH_ELEMENTS` asks for: the default
/// when the variable is unset, an error naming the value when it is not a
/// positive integer.
pub fn parse_elements(value: Option<&str>) -> Result<usize, String> {
    let Some(value) = value else {
        return Ok(DEFAULT_ELEMENTS);
    };
    match value.parse::<usize>() {
        Ok(elements) if elements > 0 => Ok(elements),
        _ => Err(format!("LV_BENCH_ELEMENTS={value:?} is not a positive element count")),
    }
}

/// Number of mesh elements requested via `LV_BENCH_ELEMENTS` (or the
/// default).
///
/// # Errors
/// See [`parse_elements`].
pub fn bench_elements() -> Result<usize, String> {
    let value = std::env::var_os("LV_BENCH_ELEMENTS");
    parse_elements(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
}

/// Builds the standard bench runner: a lid-driven-cavity mesh of at least
/// `elements` elements and the paper's `VECTOR_SIZE` sweep.
pub fn bench_runner(elements: usize) -> Runner {
    Runner::new(SweepConfig { min_elements: elements, ..SweepConfig::default() })
}

/// Prints a reproduced table in the uniform bench output format (aligned
/// text followed by CSV for post-processing).
pub fn print_table(table: &Table) {
    println!("{}", table.to_aligned_text());
    println!("CSV:");
    println!("{}", table.to_csv());
}

/// Prints the standard bench header (workload description).
pub fn print_header(name: &str, runner: &Runner) {
    println!("=== {name} ===");
    println!(
        "workload: {} hexahedral elements, VECTOR_SIZE sweep {:?}\n",
        runner.mesh().num_elements(),
        runner.vector_sizes()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elements_default_when_unset_and_fail_loudly_when_unparsable() {
        assert_eq!(parse_elements(None), Ok(DEFAULT_ELEMENTS));
        assert_eq!(parse_elements(Some("125")), Ok(125));
        for bad in ["abc", "0", "", "-3", "1e3"] {
            let error = parse_elements(Some(bad)).expect_err(bad);
            assert!(error.contains(&format!("{bad:?}")), "{error}");
        }
    }

    #[test]
    fn print_helpers_do_not_panic() {
        let mut t = Table::new("t", &["a"]);
        t.add_row(vec!["1".into()]);
        print_table(&t);
    }
}
