//! One function per table and figure of the paper's evaluation.
//!
//! Every function returns an [`lv_metrics::Table`] whose rows/series match
//! what the paper reports; the `paper` bench target in `crates/bench` prints
//! them, and EXPERIMENTS.md records the measured values next to the paper's.
//!
//! The platform for the single-machine experiments (Tables 3–6, Figures 2–11)
//! is the RISC-V VEC prototype; Figures 12–13 sweep the other platforms.

use crate::experiment::{RunKey, Runner};
use lv_kernel::OptLevel;
use lv_metrics::{linear_regression, Table};
use lv_sim::platform::{Platform, PlatformKind};

/// Table 2: hardware/software characteristics of the three platforms.
pub fn table2_platforms() -> Table {
    let platforms: Vec<Platform> =
        PlatformKind::ALL.iter().map(|&k| Platform::from_kind(k)).collect();
    let mut headers = vec!["Characteristic"];
    for p in &platforms {
        headers.push(p.kind.name());
    }
    let mut table =
        Table::new("Table 2: HPC platforms, hardware configuration (per core)", &headers);
    let rows = platforms[0].table2_row();
    for (i, (label, _)) in rows.iter().enumerate() {
        let mut cells = vec![label.to_string()];
        for p in &platforms {
            cells.push(p.table2_row()[i].1.clone());
        }
        table.add_row(cells);
    }
    table
}

/// Table 3: percentage of total cycles spent per phase when running the
/// mini-app scalar (vectorization disabled) on the RISC-V VEC prototype.
pub fn table3_scalar_phase_share(runner: &mut Runner) -> Table {
    let metrics = runner.metrics(RunKey::scalar_baseline(PlatformKind::RiscvVec));
    let mut table = Table::new(
        "Table 3: percentage of total cycles per phase (scalar execution)",
        &["phase 1", "phase 2", "phase 3", "phase 4", "phase 5", "phase 6", "phase 7", "phase 8"],
    );
    let cells = metrics.phases.iter().map(|p| format!("{:.1}%", 100.0 * p.cycle_share)).collect();
    table.add_row(cells);
    table
}

/// Figure 2: total cycles of the vanilla auto-vectorized mini-app versus
/// `VECTOR_SIZE`.
pub fn fig2_vanilla_total_cycles(runner: &mut Runner) -> Table {
    let mut table = Table::new(
        "Figure 2: total cycles, vanilla mini-app with auto-vectorization (RISC-V VEC)",
        &["VECTOR_SIZE", "total cycles", "relative to VS=16"],
    );
    let base = runner.cycles(RunKey::vanilla(PlatformKind::RiscvVec, 16));
    for &vs in &runner.vector_sizes().to_vec() {
        let cycles = runner.cycles(RunKey::vanilla(PlatformKind::RiscvVec, vs));
        table.add_row(vec![
            vs.to_string(),
            format!("{cycles:.0}"),
            format!("{:.2}", cycles / base),
        ]);
    }
    table
}

/// Table 4: vector instruction mix `Mv` per phase and `VECTOR_SIZE` for the
/// vanilla auto-vectorized mini-app.
pub fn table4_vector_mix(runner: &mut Runner) -> Table {
    let mut table = Table::new(
        "Table 4: vanilla vector instruction mix Mv [%] (phase x VECTOR_SIZE)",
        &["VECTOR_SIZE", "ph1", "ph2", "ph3", "ph4", "ph5", "ph6", "ph7", "ph8"],
    );
    for &vs in &runner.vector_sizes().to_vec() {
        let metrics = runner.metrics(RunKey::vanilla(PlatformKind::RiscvVec, vs));
        let mut cells = vec![vs.to_string()];
        cells.extend(metrics.phases.iter().map(|p| format!("{:.0}", 100.0 * p.vector_mix)));
        table.add_row(cells);
    }
    table
}

/// Figure 3: absolute number of vector instructions by type versus
/// `VECTOR_SIZE` (vanilla auto-vectorized mini-app).
pub fn fig3_instruction_types(runner: &mut Runner) -> Table {
    let mut table = Table::new(
        "Figure 3: number and type of vector instructions (vanilla, RISC-V VEC)",
        &[
            "VECTOR_SIZE",
            "vector arithmetic",
            "vector memory",
            "vector control",
            "total",
            "memory share",
        ],
    );
    for &vs in &runner.vector_sizes().to_vec() {
        let m = runner.metrics(RunKey::vanilla(PlatformKind::RiscvVec, vs));
        let arith: u64 = m.phases.iter().map(|p| p.vector_arith_instructions).sum();
        let mem: u64 = m.phases.iter().map(|p| p.vector_mem_instructions).sum();
        let total: u64 = m.phases.iter().map(|p| p.vector_instructions).sum();
        let control = total - arith - mem;
        let memory_share = if total > 0 { mem as f64 / total as f64 } else { 0.0 };
        table.add_row(vec![
            vs.to_string(),
            arith.to_string(),
            mem.to_string(),
            control.to_string(),
            total.to_string(),
            format!("{:.0}%", 100.0 * memory_share),
        ]);
    }
    table
}

/// Table 5: vector CPI, average vector length and number of vector
/// instructions of phase 6 versus `VECTOR_SIZE` (vanilla).
pub fn table5_phase6(runner: &mut Runner) -> Table {
    let mut table = Table::new(
        "Table 5: vCPI, AVL and vector instructions of phase 6 (vanilla, RISC-V VEC)",
        &["VECTOR_SIZE", "vCPI", "AVL", "vector instructions"],
    );
    for &vs in &runner.vector_sizes().to_vec() {
        let m = runner.metrics(RunKey::vanilla(PlatformKind::RiscvVec, vs));
        let p6 = m.phase(6);
        table.add_row(vec![
            vs.to_string(),
            format!("{:.2}", p6.vector_cpi),
            format!("{:.0}", p6.avg_vector_length),
            p6.vector_instructions.to_string(),
        ]);
    }
    table
}

fn phase_share_table(runner: &mut Runner, title: &str, opt: OptLevel) -> Table {
    let mut table =
        Table::new(title, &["VECTOR_SIZE", "ph1", "ph2", "ph3", "ph4", "ph5", "ph6", "ph7", "ph8"]);
    for &vs in &runner.vector_sizes().to_vec() {
        let m = runner.metrics(RunKey::optimized(PlatformKind::RiscvVec, vs, opt));
        let mut cells = vec![vs.to_string()];
        cells.extend(m.phases.iter().map(|p| format!("{:.1}%", 100.0 * p.cycle_share)));
        table.add_row(cells);
    }
    table
}

/// Figure 4: percentage of cycles per phase for the vanilla auto-vectorized
/// mini-app.
pub fn fig4_phase_share_vanilla(runner: &mut Runner) -> Table {
    phase_share_table(
        runner,
        "Figure 4: percentage of cycles per phase (vanilla auto-vectorized)",
        OptLevel::Original,
    )
}

/// Figures 5 and 6: absolute cycles of phase 2 for the original, VEC2 and
/// IVEC2 versions.
pub fn fig5_fig6_phase2_cycles(runner: &mut Runner) -> Table {
    let mut table = Table::new(
        "Figures 5-6: phase-2 cycles per optimization (RISC-V VEC)",
        &["VECTOR_SIZE", "Original", "VEC2", "IVEC2", "IVEC2 speedup vs Original"],
    );
    for &vs in &runner.vector_sizes().to_vec() {
        let orig = runner
            .metrics(RunKey::optimized(PlatformKind::RiscvVec, vs, OptLevel::Original))
            .phase(2)
            .cycles;
        let vec2 = runner
            .metrics(RunKey::optimized(PlatformKind::RiscvVec, vs, OptLevel::Vec2))
            .phase(2)
            .cycles;
        let ivec2 = runner
            .metrics(RunKey::optimized(PlatformKind::RiscvVec, vs, OptLevel::IVec2))
            .phase(2)
            .cycles;
        table.add_row(vec![
            vs.to_string(),
            format!("{orig:.0}"),
            format!("{vec2:.0}"),
            format!("{ivec2:.0}"),
            format!("{:.2}x", orig / ivec2),
        ]);
    }
    table
}

/// Figure 7: absolute cycles of phase 1 for the original and VEC1 versions.
pub fn fig7_phase1_cycles(runner: &mut Runner) -> Table {
    let mut table = Table::new(
        "Figure 7: phase-1 cycles per optimization (RISC-V VEC)",
        &["VECTOR_SIZE", "Original", "VEC1", "VEC1 speedup"],
    );
    for &vs in &runner.vector_sizes().to_vec() {
        let orig = runner
            .metrics(RunKey::optimized(PlatformKind::RiscvVec, vs, OptLevel::IVec2))
            .phase(1)
            .cycles;
        let vec1 = runner
            .metrics(RunKey::optimized(PlatformKind::RiscvVec, vs, OptLevel::Vec1))
            .phase(1)
            .cycles;
        table.add_row(vec![
            vs.to_string(),
            format!("{orig:.0}"),
            format!("{vec1:.0}"),
            format!("{:.2}x", orig / vec1),
        ]);
    }
    table
}

/// Figure 8: percentage of cycles per phase after all optimizations.
pub fn fig8_phase_share_optimized(runner: &mut Runner) -> Table {
    phase_share_table(
        runner,
        "Figure 8: percentage of cycles per phase (after all optimizations)",
        OptLevel::Vec1,
    )
}

/// Figure 9: per-phase cycles relative to the `VECTOR_SIZE = 16`
/// configuration (after all optimizations); values above 100% reveal the
/// phases that get slower as `VECTOR_SIZE` grows.
pub fn fig9_relative_cycles(runner: &mut Runner) -> Table {
    let mut table = Table::new(
        "Figure 9: percentage of cycles w.r.t. VECTOR_SIZE = 16 (per phase, lower is better)",
        &["VECTOR_SIZE", "ph1", "ph2", "ph3", "ph4", "ph5", "ph6", "ph7", "ph8"],
    );
    let base = runner.metrics(RunKey::optimized(PlatformKind::RiscvVec, 16, OptLevel::Vec1));
    for &vs in &runner.vector_sizes().to_vec() {
        let m = runner.metrics(RunKey::optimized(PlatformKind::RiscvVec, vs, OptLevel::Vec1));
        let mut cells = vec![vs.to_string()];
        for (p, b) in m.phases.iter().zip(&base.phases) {
            let pct = if b.cycles > 0.0 { 100.0 * p.cycles / b.cycles } else { 0.0 };
            cells.push(format!("{pct:.0}%"));
        }
        table.add_row(cells);
    }
    table
}

/// Figure 10: vector occupancy `Ev` per phase (after all optimizations).
/// Phase 8 is omitted by the paper because it executes no vector
/// instructions; it reads 0 here.
pub fn fig10_occupancy(runner: &mut Runner) -> Table {
    let mut table = Table::new(
        "Figure 10: vector occupancy per phase [%] (higher is better)",
        &["VECTOR_SIZE", "ph1", "ph2", "ph3", "ph4", "ph5", "ph6", "ph7", "ph8"],
    );
    for &vs in &runner.vector_sizes().to_vec() {
        let m = runner.metrics(RunKey::optimized(PlatformKind::RiscvVec, vs, OptLevel::Vec1));
        let mut cells = vec![vs.to_string()];
        cells.extend(m.phases.iter().map(|p| format!("{:.0}", 100.0 * p.occupancy)));
        table.add_row(cells);
    }
    table
}

/// Table 6: coefficient of determination of the multiple linear regression of
/// phase-1 / phase-8 cycles against L1 data-cache misses per
/// kilo-instruction and the fraction of memory instructions, across the
/// `VECTOR_SIZE` sweep.
pub fn table6_regression(runner: &mut Runner) -> Table {
    let mut table = Table::new(
        "Table 6: coefficient of determination (cycles vs L1 DCM/kinstr + memory-instruction %)",
        &["Phase", "CoD (R^2)"],
    );
    for phase in [1u8, 8u8] {
        let mut cycles = Vec::new();
        let mut dcm = Vec::new();
        let mut memfrac = Vec::new();
        for &vs in &runner.vector_sizes().to_vec() {
            let m = runner.metrics(RunKey::optimized(PlatformKind::RiscvVec, vs, OptLevel::Vec1));
            let p = m.phase(phase);
            cycles.push(p.cycles);
            dcm.push(p.l1_dcm_per_kinstr);
            memfrac.push(p.memory_instruction_fraction);
        }
        let fit = linear_regression(&cycles, &[dcm, memfrac]);
        table.add_row(vec![format!("Phase {phase}"), format!("{:.3}", fit.r_squared)]);
    }
    table
}

/// Figure 11: speed-up of every (cumulative) optimization level with respect
/// to the scalar execution at `VECTOR_SIZE = 16`, on the RISC-V VEC
/// prototype.
pub fn fig11_speedup(runner: &mut Runner) -> Table {
    let mut table = Table::new(
        "Figure 11: speed-up vs scalar VECTOR_SIZE=16 (RISC-V VEC)",
        &["VECTOR_SIZE", "Original (autovec)", "VEC2", "IVEC2", "VEC1"],
    );
    let baseline = RunKey::scalar_baseline(PlatformKind::RiscvVec);
    for &vs in &runner.vector_sizes().to_vec() {
        let mut cells = vec![vs.to_string()];
        for opt in OptLevel::ALL {
            let speedup =
                runner.speedup(RunKey::optimized(PlatformKind::RiscvVec, vs, opt), baseline);
            cells.push(format!("{speedup:.2}"));
        }
        table.add_row(cells);
    }
    table
}

/// Figure 12: speed-up of the final optimized code with respect to the
/// vanilla auto-vectorized code, on the three platforms.
pub fn fig12_portability(runner: &mut Runner) -> Table {
    let mut table = Table::new(
        "Figure 12: speed-up of the optimizations vs the vanilla auto-vectorized code",
        &["VECTOR_SIZE", "RISC-V VEC", "NEC SX-Aurora", "MareNostrum 4"],
    );
    for &vs in &runner.vector_sizes().to_vec() {
        let mut cells = vec![vs.to_string()];
        for platform in PlatformKind::ALL {
            let speedup = runner.speedup(
                RunKey::optimized(platform, vs, OptLevel::Vec1),
                RunKey::vanilla(platform, vs),
            );
            cells.push(format!("{speedup:.2}"));
        }
        table.add_row(cells);
    }
    table
}

/// Figure 13: overall and phase-2 speed-up of the optimizations on
/// MareNostrum 4.
pub fn fig13_mn4_phase2(runner: &mut Runner) -> Table {
    let mut table = Table::new(
        "Figure 13: MareNostrum 4 speed-up of the optimizations (overall and phase 2)",
        &["VECTOR_SIZE", "mini-app speed-up", "phase-2 speed-up"],
    );
    for &vs in &runner.vector_sizes().to_vec() {
        let overall = runner.speedup(
            RunKey::optimized(PlatformKind::MareNostrum4, vs, OptLevel::Vec1),
            RunKey::vanilla(PlatformKind::MareNostrum4, vs),
        );
        let p2_before =
            runner.metrics(RunKey::vanilla(PlatformKind::MareNostrum4, vs)).phase(2).cycles;
        let p2_after = runner
            .metrics(RunKey::optimized(PlatformKind::MareNostrum4, vs, OptLevel::Vec1))
            .phase(2)
            .cycles;
        table.add_row(vec![
            vs.to_string(),
            format!("{overall:.2}"),
            format!("{:.2}", p2_before / p2_after),
        ]);
    }
    table
}

/// Regenerates every table and figure, in paper order.
pub fn generate_all(runner: &mut Runner) -> Vec<Table> {
    vec![
        table2_platforms(),
        table3_scalar_phase_share(runner),
        fig2_vanilla_total_cycles(runner),
        table4_vector_mix(runner),
        fig3_instruction_types(runner),
        table5_phase6(runner),
        fig4_phase_share_vanilla(runner),
        fig5_fig6_phase2_cycles(runner),
        fig7_phase1_cycles(runner),
        fig8_phase_share_optimized(runner),
        fig9_relative_cycles(runner),
        fig10_occupancy(runner),
        table6_regression(runner),
        fig11_speedup(runner),
        fig12_portability(runner),
        fig13_mn4_phase2(runner),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SweepConfig;

    fn runner() -> Runner {
        // Restrict the sweep to three VECTOR_SIZE values so the debug-build
        // test stays fast; the headline checks below only need the extremes.
        Runner::new(SweepConfig {
            min_elements: 125,
            vector_sizes: vec![16, 240, 256],
            ..SweepConfig::default()
        })
    }

    #[test]
    fn table2_has_three_platform_columns() {
        let t = table2_platforms();
        assert_eq!(t.headers.len(), 4);
        assert!(t.num_rows() >= 5);
    }

    #[test]
    fn table3_shares_sum_to_about_100_percent() {
        let mut r = runner();
        let t = table3_scalar_phase_share(&mut r);
        let total: f64 =
            t.rows[0].iter().map(|c| c.trim_end_matches('%').parse::<f64>().unwrap()).sum();
        assert!((total - 100.0).abs() < 1.0, "total = {total}");
    }

    #[test]
    fn table4_gather_phases_have_zero_mix_in_vanilla() {
        let mut r = runner();
        let t = table4_vector_mix(&mut r);
        for row in &t.rows {
            assert_eq!(row[1], "0", "phase 1 must not vectorize in the vanilla code");
            assert_eq!(row[2], "0", "phase 2 must not vectorize in the vanilla code");
            assert_eq!(row[8], "0", "phase 8 must never vectorize");
        }
    }

    #[test]
    fn fig11_headline_speedup_shape() {
        let mut r = runner();
        let t = fig11_speedup(&mut r);
        // Row for VECTOR_SIZE = 240: the fully-optimized column must beat the
        // vanilla column, and the VS=240 speedup must exceed the VS=16 one.
        let parse = |s: &str| s.parse::<f64>().unwrap();
        let row16 = &t.rows[0];
        let row240 = &t.rows[1];
        assert!(parse(&row240[4]) > parse(&row240[1]), "VEC1 must beat vanilla at VS=240");
        assert!(parse(&row240[4]) > parse(&row16[4]), "speedup must grow with VECTOR_SIZE");
        assert!(parse(&row240[4]) > 3.0, "final speedup at VS=240 should be several x");
    }

    #[test]
    fn fig12_riscv_gains_exceed_one() {
        let mut r = runner();
        let t = fig12_portability(&mut r);
        for row in &t.rows {
            let riscv: f64 = row[1].parse().unwrap();
            assert!(riscv >= 1.0, "optimizations must not slow the RISC-V VEC down");
        }
    }

    #[test]
    fn generate_all_produces_all_sixteen_artifacts() {
        let mut r = runner();
        let all = generate_all(&mut r);
        assert_eq!(all.len(), 16);
        for t in &all {
            assert!(t.num_rows() > 0, "{} is empty", t.title);
        }
    }
}
