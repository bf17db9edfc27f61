//! The paper's evaluation, end to end: the iterative co-design methodology
//! of Section 3 on the simulated RISC-V VEC prototype, then every table,
//! figure and ablation of `lv_core::reproduce::CATALOGUE`.
//!
//! ```text
//! cargo run --release --example codesign_sweep -- [--elements N] [NAME ...]
//! cargo run --release --example codesign_sweep -- --elements 125 fig11_speedup_riscv ablation_fsm240
//! ```
//!
//! A `NAME` is a catalogue row or `codesign_loop` (the loop's report and its
//! two headline numbers); no name runs the loop and then every row.  Rows
//! run in catalogue order, each once, on one memoized `Runner` over a mesh
//! of at least `N` elements (default 1000), so a simulated run several of
//! them read is executed once.  Each prints a header, its table as aligned
//! text, then `CSV:` and the table as CSV.  An unknown name or a malformed
//! `--elements` exits 2 (parsed by `alya_longvec::cli::CodesignSweep`).

use alya_longvec::cli::CodesignSweep;
use alya_longvec::prelude::*;
use alya_longvec::say;

fn header(title: &str, runner: &Runner) {
    say!("=== {title} ===");
    say!(
        "workload: {} hexahedral elements, VECTOR_SIZE sweep {:?}\n",
        runner.mesh().num_elements(),
        runner.vector_sizes()
    );
}

fn codesign_loop(runner: &mut Runner) {
    header("Section 3: the co-design loop on RISC-V VEC at VECTOR_SIZE=240", runner);
    let report = run_codesign_loop(runner, PlatformKind::RiscvVec, 240);
    say!("{}", report.to_text());
    for step in &report.steps {
        for remark in &step.motivating_remarks {
            say!("    {remark}");
        }
    }
    let scalar = RunKey::scalar_baseline(PlatformKind::RiscvVec);
    let best = RunKey::optimized(PlatformKind::RiscvVec, 240, OptLevel::Vec1);
    let best256 = RunKey::optimized(PlatformKind::RiscvVec, 256, OptLevel::Vec1);
    say!("\nheadline numbers:");
    say!(
        "  final speed-up vs scalar at VECTOR_SIZE=240: {:.2}x (paper: 7.6x)",
        runner.speedup(best, scalar)
    );
    say!(
        "  VECTOR_SIZE=240 vs 256 (the FSM sweet spot): {:.3}x (paper: 240 is fastest)",
        runner.speedup(best, best256)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = CodesignSweep::parse(&args).unwrap_or_else(|error| {
        eprintln!("codesign_sweep: {error}");
        std::process::exit(2);
    });
    let mut runner =
        Runner::new(SweepConfig { min_elements: cli.elements, ..SweepConfig::default() });
    if cli.codesign_loop {
        codesign_loop(&mut runner);
    }
    let rows = reproduce::CATALOGUE.iter().filter(|row| cli.rows.contains(&row.0));
    for (i, (_, title, table)) in rows.enumerate() {
        if cli.codesign_loop || i > 0 {
            say!("");
        }
        header(title, &runner);
        let table = table(&mut runner);
        say!("{}", table.to_aligned_text());
        say!("CSV:");
        say!("{}", table.to_csv());
    }
}
