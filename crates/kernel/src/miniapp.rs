//! The simulated mini-app: runs the eight phases of the assembly kernel on
//! the `lv-sim` machine model by compiling the workload loop nests with the
//! `lv-compiler` auto-vectorizer model and emitting the resulting instruction
//! streams.
//!
//! One [`SimulatedMiniApp::run`] corresponds to one execution of the mini-app
//! on one platform: the same mesh sweep the numeric path performs, but
//! producing per-phase hardware counters (cycles, instruction mix, AVL, cache
//! misses) instead of numbers — exactly the observables the paper's tables
//! and figures are built from.

use crate::config::KernelConfig;
use crate::workload::WorkloadBuilder;
use lv_compiler::codegen::{emit_loop_nest, CodegenStats};
use lv_compiler::vectorizer::{Remark, VectorizationPlan, Vectorizer};
use lv_mesh::chunks::ElementChunks;
use lv_mesh::Mesh;
use lv_sim::counters::{HwCounters, PhaseId};
use lv_sim::engine::{Machine, MachineConfig};
use lv_sim::platform::Platform;

/// Result of one simulated mini-app execution.
#[derive(Debug, Clone)]
pub struct MiniAppRun {
    /// Platform the run was simulated on.
    pub platform: Platform,
    /// Kernel configuration (VECTOR_SIZE, optimization level, scheme).
    pub config: KernelConfig,
    /// Whether auto-vectorization was enabled.
    pub vectorized: bool,
    /// Per-phase hardware counters.
    pub counters: HwCounters,
    /// Compiler remarks of the first chunk (identical for every full chunk).
    pub remarks: Vec<Remark>,
    /// Code-generation statistics accumulated over the whole run.
    pub codegen: CodegenStats,
    /// Number of elements processed.
    pub elements: usize,
}

impl MiniAppRun {
    /// Total simulated cycles.
    pub fn total_cycles(&self) -> f64 {
        self.counters.total_cycles()
    }

    /// Cycles spent in one phase.
    pub fn phase_cycles(&self, phase: PhaseId) -> f64 {
        self.counters.phase(phase).cycles
    }

    /// Speed-up of this run relative to another run of the same workload.
    pub fn speedup_over(&self, baseline: &MiniAppRun) -> f64 {
        baseline.total_cycles() / self.total_cycles()
    }
}

/// The simulated mini-app bound to a mesh and a configuration.
#[derive(Debug, Clone)]
pub struct SimulatedMiniApp {
    config: KernelConfig,
    chunks: ElementChunks,
    builder: WorkloadBuilder,
    elements: usize,
}

impl SimulatedMiniApp {
    /// Creates a simulated mini-app for `mesh` under `config`.
    pub fn new(mesh: &Mesh, config: KernelConfig) -> Self {
        let problems = config.validate();
        assert!(problems.is_empty(), "invalid kernel configuration: {problems:?}");
        SimulatedMiniApp {
            config,
            chunks: ElementChunks::new(mesh, config.vector_size),
            builder: WorkloadBuilder::new(mesh, config),
            elements: mesh.num_elements(),
        }
    }

    /// The kernel configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Number of kernel calls (`VECTOR_SIZE` blocks).
    pub fn num_chunks(&self) -> usize {
        self.chunks.num_chunks()
    }

    /// Runs the mini-app on `platform` with auto-vectorization enabled or
    /// disabled, using the default machine configuration (cache model on,
    /// trace off).
    pub fn run(&self, platform: Platform, vectorize: bool) -> MiniAppRun {
        self.run_with(platform, vectorize, MachineConfig::default())
    }

    /// Runs the mini-app with an explicit simulator configuration (used by
    /// the trace example and the cache-ablation bench).
    pub fn run_with(
        &self,
        platform: Platform,
        vectorize: bool,
        machine_config: MachineConfig,
    ) -> MiniAppRun {
        let vectorizer =
            if vectorize { Vectorizer::new(platform.vlmax) } else { Vectorizer::disabled() };
        let mut machine = Machine::with_config(platform, machine_config);
        let mut remarks: Vec<Remark> = Vec::new();
        let mut codegen = CodegenStats::default();

        // A plan depends on the shape of a nest — code variant, scheme and
        // the trip counts, i.e. the chunk length — and not on where the
        // chunk starts: every full chunk shares the plans of the first one
        // and only a shorter last chunk is planned again.
        let mut plans: Vec<VectorizationPlan> = Vec::new();
        let mut planned_len = None;
        for chunk in self.chunks.iter() {
            let nests = self.builder.phase_nests(chunk);
            if planned_len != Some(chunk.len) {
                plans = nests.iter().map(|(_, nest)| vectorizer.plan(nest)).collect();
                if planned_len.is_none() {
                    remarks = plans.iter().flat_map(|p| p.remarks.iter().cloned()).collect();
                }
                planned_len = Some(chunk.len);
            }
            for ((phase, nest), plan) in nests.iter().zip(&plans) {
                machine.begin_phase(*phase);
                codegen.merge(emit_loop_nest(&mut machine, nest, plan));
                machine.end_phase();
            }
        }

        MiniAppRun {
            platform,
            config: self.config,
            vectorized: vectorize,
            counters: machine.into_counters(),
            remarks,
            codegen,
            elements: self.elements,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptLevel;
    use lv_mesh::structured::BoxMeshBuilder;
    use lv_sim::platform::Platform;

    fn mesh() -> Mesh {
        // Small mesh: keeps the scalar simulation fast in debug test builds
        // while still spanning several chunks for the small VECTOR_SIZEs.
        BoxMeshBuilder::new(5, 5, 5).build() // 125 elements
    }

    fn run(vs: usize, opt: OptLevel, vectorize: bool) -> MiniAppRun {
        let m = mesh();
        let app = SimulatedMiniApp::new(&m, KernelConfig::new(vs, opt));
        app.run(Platform::riscv_vec(), vectorize)
    }

    #[test]
    fn scalar_run_has_no_vector_instructions() {
        let r = run(16, OptLevel::Original, false);
        assert_eq!(r.counters.total().vector_instructions, 0);
        assert!(r.counters.total().instructions > 0);
        assert!(!r.vectorized);
        assert_eq!(r.elements, 125);
    }

    #[test]
    fn vectorized_run_emits_vector_instructions_and_is_faster() {
        let scalar = run(64, OptLevel::Original, false);
        let vector = run(64, OptLevel::Original, true);
        assert!(vector.counters.total().vector_instructions > 0);
        assert!(
            vector.total_cycles() < scalar.total_cycles(),
            "vectorized {} should beat scalar {}",
            vector.total_cycles(),
            scalar.total_cycles()
        );
        assert!(vector.speedup_over(&scalar) > 1.5);
    }

    #[test]
    fn all_phases_record_cycles() {
        let r = run(64, OptLevel::Original, true);
        for phase in PhaseId::ALL {
            assert!(r.phase_cycles(phase) > 0.0, "{phase:?} recorded no cycles");
        }
    }

    #[test]
    fn flops_are_independent_of_vectorization_and_variant() {
        let a = run(64, OptLevel::Original, false);
        let b = run(64, OptLevel::Original, true);
        let c = run(64, OptLevel::Vec1, true);
        let fa = a.counters.total().flops;
        let fb = b.counters.total().flops;
        let fc = c.counters.total().flops;
        assert!((fa - fb).abs() / fa < 1e-9, "scalar {fa} vs vector {fb}");
        assert!((fa - fc).abs() / fa < 1e-9, "original {fa} vs VEC1 {fc}");
    }

    #[test]
    fn phase2_avl_matches_the_paper_story() {
        // VEC2: AVL of phase 2 ≈ 4;  IVEC2: AVL = VECTOR_SIZE (capped at 125
        // elements here the last chunk is shorter, so compare ranges).
        let vec2 = run(64, OptLevel::Vec2, true);
        let ivec2 = run(64, OptLevel::IVec2, true);
        let p2 = PhaseId::new(2);
        let avl_vec2 = vec2.counters.phase(p2).avg_vector_length();
        let avl_ivec2 = ivec2.counters.phase(p2).avg_vector_length();
        assert!((avl_vec2 - 4.0).abs() < 0.5, "VEC2 AVL = {avl_vec2}");
        assert!(avl_ivec2 > 50.0, "IVEC2 AVL = {avl_ivec2}");
    }

    #[test]
    fn ivec2_is_faster_than_vec2_in_phase2() {
        let original = run(64, OptLevel::Original, true);
        let vec2 = run(64, OptLevel::Vec2, true);
        let ivec2 = run(64, OptLevel::IVec2, true);
        let p2 = PhaseId::new(2);
        // The paper: enabling vectorization of phase 2 with AVL 4 (VEC2) is
        // counter-productive; the interchange (IVEC2) makes it much faster
        // than both.
        assert!(vec2.phase_cycles(p2) > original.phase_cycles(p2));
        assert!(ivec2.phase_cycles(p2) < original.phase_cycles(p2));
        assert!(ivec2.phase_cycles(p2) < vec2.phase_cycles(p2));
    }

    #[test]
    fn vec1_speeds_up_phase1() {
        let ivec2 = run(64, OptLevel::IVec2, true);
        let vec1 = run(64, OptLevel::Vec1, true);
        let p1 = PhaseId::new(1);
        assert!(vec1.phase_cycles(p1) < ivec2.phase_cycles(p1));
    }

    #[test]
    fn remarks_are_collected() {
        let r = run(64, OptLevel::Original, true);
        assert!(!r.remarks.is_empty());
        assert!(r.remarks.iter().any(|rm| rm.vectorized));
        assert!(r.remarks.iter().any(|rm| !rm.vectorized));
    }

    #[test]
    fn chunk_count_follows_vector_size() {
        let m = mesh();
        let app = SimulatedMiniApp::new(&m, KernelConfig::new(16, OptLevel::Original));
        assert_eq!(app.num_chunks(), 8); // ceil(125 / 16)
        let app = SimulatedMiniApp::new(&m, KernelConfig::new(240, OptLevel::Original));
        assert_eq!(app.num_chunks(), 1);
    }
}
