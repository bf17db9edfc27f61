//! The co-design campaign of the paper, end to end: run the iterative
//! methodology of Section 3 on the simulated RISC-V VEC prototype, then print
//! the headline results (Figure 11 and Figure 12) for a full
//! `VECTOR_SIZE` sweep on the three platforms.
//!
//! ```text
//! cargo run --release --example codesign_sweep -- [elements]
//! ```

use alya_longvec::prelude::*;
use lv_core::experiment::SweepConfig;
use lv_core::reproduce;

fn main() {
    let min_elements: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1000);

    let config = SweepConfig { min_elements, ..SweepConfig::default() };
    let mut runner = Runner::new(config);
    println!("workload: lid-driven-cavity mesh with {} elements\n", runner.mesh().num_elements());

    // ---------------------------------------------------- the co-design loop
    let report = run_codesign_loop(&mut runner, PlatformKind::RiscvVec, 240);
    println!("{}", report.to_text());
    for step in &report.steps {
        for remark in &step.motivating_remarks {
            println!("    {remark}");
        }
    }

    // -------------------------------------------------------- headline plots
    println!();
    println!("{}", reproduce::fig11_speedup(&mut runner).to_aligned_text());
    println!("{}", reproduce::fig12_portability(&mut runner).to_aligned_text());
    println!("{}", reproduce::fig13_mn4_phase2(&mut runner).to_aligned_text());

    // ------------------------------------------------------------- takeaways
    let scalar = RunKey::scalar_baseline(PlatformKind::RiscvVec);
    let best = RunKey::optimized(PlatformKind::RiscvVec, 240, OptLevel::Vec1);
    let best256 = RunKey::optimized(PlatformKind::RiscvVec, 256, OptLevel::Vec1);
    println!("headline numbers:");
    println!(
        "  final speed-up vs scalar at VECTOR_SIZE=240: {:.2}x (paper: 7.6x)",
        runner.speedup(best, scalar)
    );
    println!(
        "  VECTOR_SIZE=240 vs 256 (the FSM sweet spot): {:.3}x (paper: 240 is fastest)",
        runner.speedup(best, best256)
    );
}
