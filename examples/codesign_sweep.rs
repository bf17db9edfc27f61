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
use std::time::Instant;

fn main() {
    let min_elements: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1000);

    let config = SweepConfig { min_elements, ..SweepConfig::default() };
    let mut runner = Runner::new(config.clone());
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

    // ------------------------------------------------- where host time goes
    // The cost of simulating, per run kind (README, "The simulated path:
    // where host time goes"): a fresh runner on the same mesh, so nothing
    // is served from the cache.
    let mut fresh = Runner::with_mesh(runner.mesh().clone(), config);
    println!("\nhost cost of one simulated run:");
    println!("  {:<34} {:>12} {:>9} {:>9}", "run", "instructions", "host ms", "ns/instr");
    for (label, key) in [
        ("RISC-V VEC scalar baseline", scalar),
        ("RISC-V VEC VS 16 VEC1", RunKey::optimized(PlatformKind::RiscvVec, 16, OptLevel::Vec1)),
        ("RISC-V VEC VS 240 VEC1", best),
        ("MareNostrum 4 VS 240 vanilla", RunKey::vanilla(PlatformKind::MareNostrum4, 240)),
    ] {
        let start = Instant::now();
        let instructions = fresh.run(key).counters.total().instructions;
        let host_s = start.elapsed().as_secs_f64();
        println!(
            "  {label:<34} {instructions:>12} {:>9.2} {:>9.2}",
            1e3 * host_s,
            1e9 * host_s / instructions as f64
        );
    }
}
