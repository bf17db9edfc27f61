//! Integration test: the qualitative claims of the paper's evaluation hold
//! in the simulated reproduction (the *shape* of the results — who wins,
//! roughly by how much, where the crossovers are — not the absolute cycle
//! counts).

use alya_longvec::prelude::*;
use lv_core::experiment::SweepConfig;
use lv_sim::counters::PhaseId;
use lv_sim::memory::MemoryModel;

fn runner() -> Runner {
    Runner::new(SweepConfig {
        // 10^3 elements: large enough that the partially-filled last chunk of
        // each VECTOR_SIZE does not distort the averages, small enough for CI.
        min_elements: 1000,
        vector_sizes: vec![16, 64, 240, 256],
        ..SweepConfig::default()
    })
}

#[test]
fn scalar_baseline_is_dominated_by_the_compute_phases() {
    // Table 3: phases 6, 7, 3 and 4 account for ~90% of the scalar cycles.
    let mut r = runner();
    let m = r.metrics(RunKey::scalar_baseline(PlatformKind::RiscvVec));
    let compute_share: f64 = [3u8, 4, 6, 7].iter().map(|&p| m.phase(p).cycle_share).sum();
    assert!(compute_share > 0.75, "compute phases account for {compute_share:.2}");
    assert_eq!(m.dominant_phase().phase, 6, "phase 6 must dominate the scalar run");
}

#[test]
fn vanilla_vectorization_shifts_the_bottleneck_to_the_gather_phases() {
    // Figure 4: after auto-vectorization the non-vectorized phases (1, 2, 8)
    // consume a much larger share than in the scalar run.
    let mut r = runner();
    let scalar = r.metrics(RunKey::scalar_baseline(PlatformKind::RiscvVec));
    let vanilla = r.metrics(RunKey::vanilla(PlatformKind::RiscvVec, 240));
    let share =
        |m: &RunMetrics| -> f64 { [1u8, 2, 8].iter().map(|&p| m.phase(p).cycle_share).sum() };
    assert!(
        share(&vanilla) > 2.0 * share(&scalar),
        "gather/scatter share must grow: scalar {:.3} vs vanilla {:.3}",
        share(&scalar),
        share(&vanilla)
    );
}

#[test]
fn vec2_is_counterproductive_and_ivec2_fixes_it() {
    // Figures 5 and 6.
    let mut r = runner();
    let p2 = |m: &RunMetrics| m.phase(2).cycles;
    for &vs in &[64usize, 240, 256] {
        let original = r.metrics(RunKey::optimized(PlatformKind::RiscvVec, vs, OptLevel::Original));
        let vec2 = r.metrics(RunKey::optimized(PlatformKind::RiscvVec, vs, OptLevel::Vec2));
        let ivec2 = r.metrics(RunKey::optimized(PlatformKind::RiscvVec, vs, OptLevel::IVec2));
        assert!(
            p2(&vec2) > p2(&original),
            "VS={vs}: VEC2 must be slower than the original in phase 2"
        );
        assert!(
            p2(&ivec2) < p2(&original),
            "VS={vs}: IVEC2 must be faster than the original in phase 2"
        );
    }
    // The phase-2 improvement grows with VECTOR_SIZE (Figure 6).
    let gain = |r: &mut Runner, vs: usize| {
        let o = r.metrics(RunKey::optimized(PlatformKind::RiscvVec, vs, OptLevel::Original));
        let i = r.metrics(RunKey::optimized(PlatformKind::RiscvVec, vs, OptLevel::IVec2));
        o.phase(2).cycles / i.phase(2).cycles
    };
    assert!(gain(&mut r, 240) > gain(&mut r, 16));
}

#[test]
fn full_optimization_reaches_a_large_speedup_at_vs240() {
    // Figure 11: up to 7.6x vs scalar at VECTOR_SIZE = 240; and VS=240 must
    // not be slower than VS=256 (the FSM co-design observation).
    let mut r = runner();
    let scalar = RunKey::scalar_baseline(PlatformKind::RiscvVec);
    let s240 = r.speedup(RunKey::optimized(PlatformKind::RiscvVec, 240, OptLevel::Vec1), scalar);
    let s256 = r.speedup(RunKey::optimized(PlatformKind::RiscvVec, 256, OptLevel::Vec1), scalar);
    let s16 = r.speedup(RunKey::optimized(PlatformKind::RiscvVec, 16, OptLevel::Vec1), scalar);
    assert!(s240 > 4.0, "speed-up at VS=240 = {s240:.2} (paper: 7.6)");
    assert!(s240 >= s256, "VS=240 ({s240:.2}) must be at least as fast as VS=256 ({s256:.2})");
    assert!(s240 > s16, "speed-up must grow with VECTOR_SIZE");
}

#[test]
fn final_code_beats_vanilla_autovectorization() {
    // Conclusions: up to ~1.3x over the compiler-only version on RISC-V VEC.
    let mut r = runner();
    for &vs in &[64usize, 240, 256] {
        let gain = r.speedup(
            RunKey::optimized(PlatformKind::RiscvVec, vs, OptLevel::Vec1),
            RunKey::vanilla(PlatformKind::RiscvVec, vs),
        );
        assert!(gain > 1.0, "VS={vs}: final vs vanilla = {gain:.2}");
    }
}

#[test]
fn optimizations_are_portable_to_the_other_platforms() {
    // Figure 12: the refactors never hurt, and help on the long-vector NEC
    // machine as well.
    let mut r = runner();
    for platform in PlatformKind::ALL {
        for &vs in &[64usize, 240] {
            let gain = r.speedup(
                RunKey::optimized(platform, vs, OptLevel::Vec1),
                RunKey::vanilla(platform, vs),
            );
            assert!(
                gain > 0.99,
                "{platform:?} VS={vs}: optimizations must not degrade performance ({gain:.2})"
            );
        }
    }
    let aurora = r.speedup(
        RunKey::optimized(PlatformKind::SxAurora, 240, OptLevel::Vec1),
        RunKey::vanilla(PlatformKind::SxAurora, 240),
    );
    assert!(aurora > 1.1, "SX-Aurora should clearly benefit (paper: 1.64x), got {aurora:.2}");
}

#[test]
fn phase8_never_vectorizes_and_its_weight_grows_with_vector_size() {
    // Figures 8 and 9: phase 8 stays scalar and its share keeps growing as
    // VECTOR_SIZE increases.
    let mut r = runner();
    let share8 = |r: &mut Runner, vs: usize| {
        let m = r.metrics(RunKey::optimized(PlatformKind::RiscvVec, vs, OptLevel::Vec1));
        (m.phase(8).cycle_share, m.phase(8).vector_instructions)
    };
    let (small_share, small_vec) = share8(&mut r, 16);
    let (large_share, large_vec) = share8(&mut r, 256);
    assert_eq!(small_vec, 0);
    assert_eq!(large_vec, 0);
    assert!(
        large_share > small_share,
        "phase-8 share must grow with VECTOR_SIZE ({small_share:.3} -> {large_share:.3})"
    );

    // The `ablation_cache` row: the growth comes from the cache hierarchy,
    // so over the same mesh an always-hit memory grows less.
    let growth = |r: &mut Runner| {
        let mut phase8 = |vs| {
            r.metrics(RunKey::optimized(PlatformKind::RiscvVec, vs, OptLevel::Vec1)).phase(8).cycles
        };
        phase8(256) / phase8(16)
    };
    let flat_config = SweepConfig { memory_model: MemoryModel::Flat, ..r.config().clone() };
    let mut flat = Runner::with_mesh(r.mesh().clone(), flat_config);
    let (cached, flat) = (growth(&mut r), growth(&mut flat));
    assert!(cached > flat, "phase-8 growth 16 -> 256: {cached:.3}x with caches, {flat:.3}x flat");
}

#[test]
fn occupancy_approaches_one_at_the_register_capacity() {
    // Figure 10: occupancy of the vectorized phases reaches ~100% when
    // VECTOR_SIZE matches the 256-element registers.
    let mut r = runner();
    let m = r.metrics(RunKey::optimized(PlatformKind::RiscvVec, 256, OptLevel::Vec1));
    for phase in [3u8, 4, 6, 7] {
        assert!(
            m.phase(phase).occupancy > 0.95,
            "phase {phase} occupancy = {:.2}",
            m.phase(phase).occupancy
        );
    }
    let m16 = r.metrics(RunKey::optimized(PlatformKind::RiscvVec, 16, OptLevel::Vec1));
    assert!(m16.phase(6).occupancy < 0.1);
}

#[test]
fn phase6_vcpi_and_instruction_count_follow_table5() {
    // Table 5: increasing VECTOR_SIZE raises the AVL and the vCPI of phase 6
    // while the number of vector instructions drops roughly inversely.
    let mut r = runner();
    let metrics = |r: &mut Runner, vs: usize| {
        let m = r.metrics(RunKey::vanilla(PlatformKind::RiscvVec, vs));
        let p6 = m.phase(6);
        (p6.vector_cpi, p6.avg_vector_length, p6.vector_instructions)
    };
    let (cpi16, avl16, n16) = metrics(&mut r, 16);
    let (cpi240, avl240, n240) = metrics(&mut r, 240);
    assert!(avl240 > avl16 * 10.0);
    assert!(cpi240 > cpi16, "vCPI must grow with the vector length");
    assert!(n16 > n240 * 5, "instruction count must drop sharply ({n16} vs {n240})");
    // The counters come from a PhaseId region, so make sure phase 6 is the
    // phase the paper says it is (arithmetic heavy).
    let m = r.metrics(RunKey::vanilla(PlatformKind::RiscvVec, 240));
    assert!(m.phase(6).flops > m.phase(2).flops);
    let p6 = r.run(RunKey::vanilla(PlatformKind::RiscvVec, 240)).counters.phase(PhaseId::new(6));
    assert!(p6.vector_arith > 0);
}

#[test]
fn table6_regression_explains_phase1_and_phase8_cycles() {
    use lv_core::reproduce;
    let mut r = runner();
    let table = reproduce::table6_regression(&mut r);
    for row in &table.rows {
        let r2: f64 = row[1].parse().unwrap();
        assert!(
            r2 > 0.6,
            "{}: R^2 = {r2} — cache misses and memory-instruction ratio should explain the cycles",
            row[0]
        );
    }
}

// ------------------------------------------------------------------ goldens
//
// The claims above are bands; the two tests below pin the simulated path bit
// for bit.  The constants were recorded at the commit before the simulator's
// hot path was rewritten (PR 14) and must only ever change together with a
// deliberate change of the timing model, the workload descriptors or the
// code generator — never with a host-speed optimisation.

/// Byte-wise FNV-1a over a stream of `u64` words (little-endian).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn counters(&mut self, counters: &lv_sim::counters::HwCounters) {
        for (phase, c) in counters.phases() {
            self.word(phase.number().unwrap_or(0) as u64);
            for word in [
                c.cycles.to_bits(),
                c.vector_cycles.to_bits(),
                c.instructions,
                c.vector_instructions,
                c.vector_arith,
                c.vector_mem,
                c.vector_control,
                c.vector_config,
                c.scalar_instructions,
                c.memory_instructions,
                c.vl_sum,
                c.flops.to_bits(),
                c.l1_misses,
                c.l2_misses,
                c.bytes,
            ] {
                self.word(word);
            }
        }
    }

    fn codegen(&mut self, stats: &lv_compiler::codegen::CodegenStats) {
        for word in [
            stats.vector_chunks,
            stats.scalar_iterations,
            stats.vector_instructions,
            stats.scalar_instructions,
        ] {
            self.word(word);
        }
    }
}

#[test]
fn simulated_sweep_counters_match_the_pinned_golden() {
    // 10³ jittered mesh; 3 platforms × {scalar baseline, VECTOR_SIZE 16 and
    // 240 × {vanilla, VEC2, IVEC2, VEC1}} = 27 runs.
    const COUNTERS: u64 = 0xdb31_e624_aa91_3279;
    const CODEGEN: u64 = 0x15d2_78ed_1a3b_b8af;
    let mut r = runner();
    let (mut counters, mut codegen) = (Fnv1a::new(), Fnv1a::new());
    for platform in PlatformKind::ALL {
        let mut keys = vec![RunKey::scalar_baseline(platform)];
        for vs in [16usize, 240] {
            keys.push(RunKey::vanilla(platform, vs));
            for opt in [OptLevel::Vec2, OptLevel::IVec2, OptLevel::Vec1] {
                keys.push(RunKey::optimized(platform, vs, opt));
            }
        }
        for key in keys {
            let run = r.run(key);
            counters.counters(&run.counters);
            codegen.codegen(&run.codegen);
        }
    }
    assert_eq!(
        (counters.0, codegen.0),
        (COUNTERS, CODEGEN),
        "simulated counters / CodegenStats drifted: got ({:#018x}, {:#018x})",
        counters.0,
        codegen.0
    );
}

#[test]
fn traced_chunk_matches_the_pinned_golden() {
    // One traced VECTOR_SIZE-64 chunk of the 4³ mesh, final code (VEC1), on
    // the RISC-V VEC machine: the tracer's CSV, the counters and the
    // CodegenStats — the only tier-1 consumer of the enabled tracer.
    const CSV: u64 = 0xebb7_212c_97d5_47be;
    const CSV_ROWS: usize = 61_956;
    const COUNTERS: u64 = 0x66fe_e197_a93e_d252;
    const CODEGEN: u64 = 0x5536_8e25_f561_8c36;
    let mesh = BoxMeshBuilder::new(4, 4, 4).build();
    let config = KernelConfig::new(64, OptLevel::Vec1);
    let builder = lv_kernel::workload::WorkloadBuilder::new(&mesh, config);
    let chunks = lv_mesh::chunks::ElementChunks::new(&mesh, 64);
    let vectorizer = lv_compiler::vectorizer::Vectorizer::new(256);
    let mut machine = Machine::with_config(
        Platform::riscv_vec(),
        MachineConfig { memory_model: lv_sim::memory::MemoryModel::Caches, trace: Some(0) },
    );
    let mut stats = lv_compiler::codegen::CodegenStats::default();
    for (phase, nest) in builder.phase_nests(&chunks.chunks()[0]) {
        machine.begin_phase(phase);
        stats.merge(lv_compiler::codegen::emit_loop_nest(
            &mut machine,
            &nest,
            &vectorizer.plan(&nest),
        ));
        machine.end_phase();
    }
    let csv = machine.tracer().to_csv();
    let (mut csv_hash, mut counters, mut codegen) = (Fnv1a::new(), Fnv1a::new(), Fnv1a::new());
    csv_hash.bytes(csv.as_bytes());
    counters.counters(machine.counters());
    codegen.codegen(&stats);
    assert_eq!(machine.tracer().dropped(), 0);
    assert_eq!(
        (csv_hash.0, csv.lines().count() - 1, counters.0, codegen.0),
        (CSV, CSV_ROWS, COUNTERS, CODEGEN),
        "traced chunk drifted: got ({:#018x}, {}, {:#018x}, {:#018x})",
        csv_hash.0,
        csv.lines().count() - 1,
        counters.0,
        codegen.0
    );
}
