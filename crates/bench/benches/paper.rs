//! The paper's evaluation, one row per table, figure and ablation.
//!
//! ```text
//! cargo bench -p lv-bench --bench paper                      # everything
//! cargo bench -p lv-bench --bench paper -- fig11_speedup_riscv table6_regression
//! ```
//!
//! Without a name every row runs; rows run in the order of
//! [`reproduce::generate_all`], then the ablations, however they were named;
//! an unknown name exits 2 with the list.  The tables and figures share one memoized [`Runner`], so
//! a simulated run that several of them read is executed once.  Set
//! `LV_BENCH_ELEMENTS` to change the workload size.

use lv_bench::{bench_elements, bench_runner, print_header, print_table};
use lv_core::experiment::{Runner, SweepConfig};
use lv_core::{reproduce, RunKey};
use lv_kernel::{KernelConfig, OptLevel, SimulatedMiniApp};
use lv_mesh::BoxMeshBuilder;
use lv_metrics::Table;
use lv_sim::memory::MemoryModel;
use lv_sim::platform::{Platform, PlatformKind};

enum Body {
    /// A table of the shared sweep, printed under the workload header.
    Sweep(fn(&mut Runner) -> Table),
    /// Runs simulations of its own (or, for Table 2, none) on a mesh of the
    /// given size and prints what it finds.
    Own(fn(usize)),
}
use Body::{Own, Sweep};

/// Selector, title, body.
const TARGETS: [(&str, &str, Body); 20] = [
    ("table2_platforms", "Table 2: platform characteristics", Own(table2_platforms)),
    (
        "table3_scalar_phase_cycles",
        "Table 3: percentage of cycles per phase, scalar run",
        Sweep(reproduce::table3_scalar_phase_share),
    ),
    (
        "fig2_vanilla_cycles",
        "Figure 2: total cycles of the vanilla auto-vectorized mini-app",
        Sweep(reproduce::fig2_vanilla_total_cycles),
    ),
    (
        "table4_vector_mix",
        "Table 4: vector instruction mix per phase and VECTOR_SIZE",
        Sweep(reproduce::table4_vector_mix),
    ),
    (
        "fig3_instruction_types",
        "Figure 3: number and type of vector instructions",
        Sweep(reproduce::fig3_instruction_types),
    ),
    (
        "table5_phase6_vcpi",
        "Table 5: vCPI, AVL and vector instructions of phase 6",
        Sweep(reproduce::table5_phase6),
    ),
    (
        "fig4_phase_breakdown",
        "Figure 4: percentage of cycles per phase (vanilla)",
        Sweep(reproduce::fig4_phase_share_vanilla),
    ),
    (
        "fig5_phase2_vec2",
        "Figure 5: phase-2 cycles, original vs VEC2",
        Sweep(reproduce::fig5_fig6_phase2_cycles),
    ),
    (
        "fig6_phase2_ivec2",
        "Figure 6: phase-2 cycles, original vs VEC2 vs IVEC2",
        Sweep(reproduce::fig5_fig6_phase2_cycles),
    ),
    (
        "fig7_phase1_vec1",
        "Figure 7: phase-1 cycles, original vs VEC1",
        Sweep(reproduce::fig7_phase1_cycles),
    ),
    (
        "fig8_breakdown_optimized",
        "Figure 8: percentage of cycles per phase after all optimizations",
        Sweep(reproduce::fig8_phase_share_optimized),
    ),
    (
        "fig9_relative_cycles",
        "Figure 9: cycles relative to VECTOR_SIZE=16 per phase",
        Sweep(reproduce::fig9_relative_cycles),
    ),
    ("fig10_occupancy", "Figure 10: vector occupancy per phase", Sweep(reproduce::fig10_occupancy)),
    (
        "table6_regression",
        "Table 6: coefficient of determination for phases 1 and 8",
        Sweep(reproduce::table6_regression),
    ),
    (
        "fig11_speedup_riscv",
        "Figure 11: speed-up vs scalar VECTOR_SIZE=16 on RISC-V VEC",
        Sweep(reproduce::fig11_speedup),
    ),
    (
        "fig12_portability",
        "Figure 12: speed-up of the optimizations on the three platforms",
        Sweep(reproduce::fig12_portability),
    ),
    (
        "fig13_mn4_phase2",
        "Figure 13: MareNostrum 4 overall and phase-2 speed-up",
        Sweep(reproduce::fig13_mn4_phase2),
    ),
    (
        "ablation_cache",
        "Ablation: cache hierarchy vs flat memory (phase-8 VECTOR_SIZE sensitivity)",
        Own(ablation_cache),
    ),
    (
        "ablation_fsm240",
        "Ablation: FSM x40 sweet spot (VECTOR_SIZE 240 vs 256)",
        Own(ablation_fsm240),
    ),
    (
        "ablation_indexed_mem",
        "Ablation: indexed (gather/scatter) access cost on NEC SX-Aurora",
        Own(ablation_indexed_mem),
    ),
];

fn table2_platforms(_elements: usize) {
    print_table(&reproduce::table2_platforms());
}

/// Ablation: the data-cache model.
///
/// Section 5 of the paper explains the `VECTOR_SIZE` sensitivity of the
/// non-vectorized phases (1 and 8) with L1 data-cache misses (Table 6).  This
/// runs the optimized mini-app with the full cache hierarchy and with a flat
/// always-hit memory, and reports the phase-8 cycle growth between
/// `VECTOR_SIZE = 16` and `512` in both cases: with a flat memory the growth
/// (mostly) disappears, confirming the cache hierarchy is what produces the
/// paper's Figure 9 curves.
fn ablation_cache(elements: usize) {
    let mut table = Table::new(
        "Phase-8 cycles at VECTOR_SIZE 16 and 512",
        &["memory model", "VS=16", "VS=512", "growth"],
    );
    let mut growths = Vec::new();
    for (label, model) in
        [("L1+L2 caches", MemoryModel::Caches), ("flat memory", MemoryModel::Flat)]
    {
        let mut runner = Runner::new(SweepConfig {
            min_elements: elements,
            vector_sizes: vec![16, 512],
            memory_model: model,
            ..SweepConfig::default()
        });
        let mut phase8 = |vs| {
            runner
                .metrics(RunKey::optimized(PlatformKind::RiscvVec, vs, OptLevel::Vec1))
                .phase(8)
                .cycles
        };
        let (small, large) = (phase8(16), phase8(512));
        let growth = large / small;
        growths.push(growth);
        table.add_row(vec![
            label.into(),
            format!("{small:.0}"),
            format!("{large:.0}"),
            format!("{growth:.2}x"),
        ]);
    }
    print_table(&table);

    assert!(
        growths[0] > growths[1],
        "the cache model must be responsible for the extra phase-8 growth"
    );
    println!(
        "phase-8 cycle growth 16 -> 512: {:.2}x with caches, {:.2}x with flat memory",
        growths[0], growths[1]
    );
}

/// Ablation: the "multiple of 40" FSM throughput effect.
///
/// The paper's co-design feedback to the hardware team is that the RISC-V VEC
/// prototype is faster at vector length 240 than at its full 256-element
/// capacity, because the Vitruvius FSM processes groups of 8 lanes × 5 steps.
/// This runs the fully-optimized mini-app at `VECTOR_SIZE` 240 and 256 with
/// the FSM effect enabled (the default platform model) and disabled, showing
/// that the 240-beats-256 result disappears without it.
fn ablation_fsm240(elements: usize) {
    // Reference numbers through the standard runner (FSM enabled).
    let mut runner = Runner::new(SweepConfig {
        min_elements: elements,
        vector_sizes: vec![240, 256],
        ..SweepConfig::default()
    });
    let enabled_240 = runner.cycles(RunKey::optimized(PlatformKind::RiscvVec, 240, OptLevel::Vec1));
    let enabled_256 = runner.cycles(RunKey::optimized(PlatformKind::RiscvVec, 256, OptLevel::Vec1));

    // Same runs with the FSM effect switched off.
    let mut no_fsm = Platform::riscv_vec();
    no_fsm.fsm_chunk = None;
    no_fsm.fsm_penalty = 1.0;
    let mesh = BoxMeshBuilder::with_at_least(elements).lid_driven_cavity().build();
    let disabled = |vs| {
        SimulatedMiniApp::new(&mesh, KernelConfig::new(vs, OptLevel::Vec1))
            .run(no_fsm, true)
            .total_cycles()
    };
    let (disabled_240, disabled_256) = (disabled(240), disabled(256));

    let mut table = Table::new(
        "FSM ablation: total cycles of the fully optimized mini-app",
        &["configuration", "VS=240", "VS=256", "240/256 ratio"],
    );
    table.add_row(vec![
        "FSM effect modelled (prototype)".into(),
        format!("{enabled_240:.0}"),
        format!("{enabled_256:.0}"),
        format!("{:.3}", enabled_240 / enabled_256),
    ]);
    table.add_row(vec![
        "FSM effect disabled".into(),
        format!("{disabled_240:.0}"),
        format!("{disabled_256:.0}"),
        format!("{:.3}", disabled_240 / disabled_256),
    ]);
    print_table(&table);

    assert!(
        enabled_240 <= enabled_256,
        "with the FSM effect, VS=240 must not be slower than VS=256"
    );
    println!(
        "with the FSM model VS=240 is {:.1}% faster than VS=256; without it the gap is {:.1}%",
        100.0 * (1.0 - enabled_240 / enabled_256),
        100.0 * (1.0 - disabled_240 / disabled_256)
    );
}

/// Ablation: the cost of indexed (gather/scatter) vector memory accesses.
///
/// Figure 12 of the paper shows the SX-Aurora speed-up dropping at
/// `VECTOR_SIZE = 512` because the growing weight of the non-vectorized,
/// indexed-access-heavy phase 8 outweighs the vector gains.  This sweeps the
/// per-element indexed-access cost of the SX-Aurora model and reports where
/// the optimizations' benefit peaks.
fn ablation_indexed_mem(elements: usize) {
    let mesh = BoxMeshBuilder::with_at_least(elements).lid_driven_cavity().build();
    let mut table = Table::new(
        "Final-vs-vanilla speed-up on SX-Aurora as a function of the indexed-access cost",
        &["indexed cost [cycles/element]", "VS=240 speed-up", "VS=512 speed-up"],
    );
    for cost in [0.25, 0.5, 0.9, 1.5, 3.0] {
        let mut platform = Platform::sx_aurora();
        platform.indexed_cost_per_element = cost;
        let mut speedups = Vec::new();
        for vs in [240usize, 512] {
            let vanilla = SimulatedMiniApp::new(&mesh, KernelConfig::new(vs, OptLevel::Original))
                .run(platform, true)
                .total_cycles();
            let optimized = SimulatedMiniApp::new(&mesh, KernelConfig::new(vs, OptLevel::Vec1))
                .run(platform, true)
                .total_cycles();
            speedups.push(vanilla / optimized);
        }
        table.add_row(vec![
            format!("{cost:.2}"),
            format!("{:.2}", speedups[0]),
            format!("{:.2}", speedups[1]),
        ]);
    }
    print_table(&table);
    println!("higher indexed costs inflate phase 8 and erode the VS=512 benefit, as in Figure 12");
}

fn main() {
    // `cargo bench` appends `--bench` to the arguments of every target.
    let names: Vec<String> = std::env::args().skip(1).filter(|arg| arg != "--bench").collect();
    let unknown: Vec<&str> = names
        .iter()
        .map(String::as_str)
        .filter(|name| TARGETS.iter().all(|(known, ..)| known != name))
        .collect();
    if !unknown.is_empty() {
        eprintln!("paper: unknown name(s) {unknown:?}; the names are:");
        for (name, title, _) in &TARGETS {
            eprintln!("  {name:<28}{title}");
        }
        std::process::exit(2);
    }
    let elements = bench_elements().unwrap_or_else(|error| {
        eprintln!("paper: {error}");
        std::process::exit(2);
    });

    let mut runner = bench_runner(elements);
    let selected =
        TARGETS.iter().filter(|(name, ..)| names.is_empty() || names.iter().any(|n| n == name));
    for (i, (_, title, body)) in selected.enumerate() {
        if i > 0 {
            println!();
        }
        match body {
            Sweep(table) => {
                print_header(title, &runner);
                print_table(&table(&mut runner));
            }
            Own(run) => {
                println!("=== {title} ===\n");
                run(elements);
            }
        }
    }
}
