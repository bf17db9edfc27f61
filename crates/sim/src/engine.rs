//! The simulated machine: issues instructions, charges cycles according to
//! the platform timing model, drives the cache hierarchy and maintains the
//! per-phase hardware counters and the optional Vehave-style trace.

use crate::counters::{HwCounters, PhaseCounters, PhaseId};
use crate::isa::{Instruction, InstructionClass, MemPattern, VectorOp};
use crate::memory::{CacheSim, MemoryModel};
use crate::platform::Platform;
use crate::trace::{TraceEvent, Tracer};

/// Construction-time options of a [`Machine`].
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Memory model (full cache simulation or flat memory).
    pub memory_model: MemoryModel,
    /// Vector-instruction trace: `None` disables tracing, `Some(limit)`
    /// enables it with an event cap (`0` = unlimited).
    pub trace: Option<usize>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig { memory_model: MemoryModel::Caches, trace: None }
    }
}

/// A single simulated core of one of the modelled platforms.
///
/// The machine is fed a stream of [`Instruction`]s (normally produced by the
/// `lv-compiler` code generator walking the kernel's loop nests) and
/// accumulates cycles, instruction counts, vector lengths and cache misses in
/// per-phase [`HwCounters`].
#[derive(Debug, Clone)]
pub struct Machine {
    platform: Platform,
    cache: CacheSim,
    counters: HwCounters,
    tracer: Tracer,
    current_phase: PhaseId,
    /// Issue cycle of the next traced instruction.  Only trace events carry
    /// it, so it stands still while the tracer is disabled.
    clock: f64,
}

impl Machine {
    /// Creates a machine for `platform` with the default configuration
    /// (cache model on, trace off).
    pub fn new(platform: Platform) -> Self {
        Self::with_config(platform, MachineConfig::default())
    }

    /// Creates a machine with an explicit [`MachineConfig`].
    pub fn with_config(platform: Platform, config: MachineConfig) -> Self {
        let cache = CacheSim::with_model(platform.cache, config.memory_model);
        let tracer = match config.trace {
            Some(limit) => Tracer::enabled(limit),
            None => Tracer::disabled(),
        };
        Machine {
            platform,
            cache,
            counters: HwCounters::new(),
            tracer,
            current_phase: PhaseId::Other,
            clock: 0.0,
        }
    }

    /// The platform this machine models.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Selects the phase subsequent instructions are attributed to.
    pub fn begin_phase(&mut self, phase: PhaseId) {
        self.current_phase = phase;
    }

    /// Returns to the "other" (uninstrumented) region.
    pub fn end_phase(&mut self) {
        self.current_phase = PhaseId::Other;
    }

    /// The currently active phase.
    pub fn current_phase(&self) -> PhaseId {
        self.current_phase
    }

    /// Runs `f` with `phase` active, restoring the previous phase afterwards.
    pub fn in_phase<R>(&mut self, phase: PhaseId, f: impl FnOnce(&mut Self) -> R) -> R {
        let previous = self.current_phase;
        self.current_phase = phase;
        let result = f(self);
        self.current_phase = previous;
        result
    }

    /// Issues one instruction, charging its cycles to the current phase, and
    /// returns the cycle cost.
    pub fn issue(&mut self, instr: &Instruction) -> f64 {
        let (cost, l1_misses, l2_misses) = self.cost_of(instr);
        self.counters.phase_mut(self.current_phase).record(instr, cost, l1_misses, l2_misses);
        self.trace(instr, cost, 1);
        cost
    }

    /// Issues `n` identical copies of a *non-memory* instruction, leaving
    /// every counter and the trace exactly as `n` calls of
    /// [`Machine::issue`] would — the floating-point ones are therefore
    /// accumulated addend by addend, never as `cost * n` — and returns the
    /// total cost.  Memory instructions must be issued one by one because
    /// each one carries its own address stream.
    ///
    /// # Panics
    /// Panics if `instr` carries a memory access.
    pub fn issue_repeated(&mut self, instr: &Instruction, n: u64) -> f64 {
        assert!(instr.mem.is_none(), "issue_repeated cannot be used for memory instructions");
        if n == 0 {
            // Nothing issued: the current phase must not even be listed.
            return 0.0;
        }
        let (cost, _, _) = self.cost_of(instr);
        self.counters.phase_mut(self.current_phase).record_repeated(instr, cost, n);
        self.trace(instr, cost, n);
        cost * n as f64
    }

    /// Stamps `n` back-to-back issues of `instr` into the trace, advancing
    /// the clock by `cost` after each (no-op while the tracer is disabled).
    #[inline]
    fn trace(&mut self, instr: &Instruction, cost: f64, n: u64) {
        if !self.tracer.is_enabled() {
            return;
        }
        for _ in 0..n {
            self.tracer.record(TraceEvent {
                cycle: self.clock,
                phase: self.current_phase,
                class: instr.class,
                op: instr.op,
                pattern: instr.mem.as_ref().map(|m| m.pattern),
                vl: instr.vl,
                cost,
            });
            self.clock += cost;
        }
    }

    /// Cycle cost (plus cache misses) of an instruction under the platform
    /// timing model, without recording it.
    #[inline(always)]
    fn cost_of(&mut self, instr: &Instruction) -> (f64, u64, u64) {
        let p = &self.platform;
        // Only memory instructions drive the cache hierarchy.
        let (l1, l2) = match &instr.mem {
            Some(mem) if instr.class.is_memory() => {
                let res = self.cache.access(mem);
                (res.l1_misses, res.l2_misses)
            }
            _ => (0, 0),
        };
        // Miss latency is partially hidden by the (modest) memory-level
        // parallelism of the scalar pipeline, with the same overlap factor as
        // the vector memory unit.  (The miss counts are far below 2^63, so
        // the conversion through `i64` is exact and a single instruction.)
        let miss_cycles = (l1 as i64 as f64 * p.l1_miss_penalty
            + l2 as i64 as f64 * p.l2_miss_penalty)
            * (1.0 - p.mem_overlap);
        let cost = match instr.class {
            InstructionClass::ScalarOp => p.scalar_cpi,
            InstructionClass::ScalarFp => {
                p.scalar_cpi * instr.op.map_or(1.0, VectorOp::throughput_factor)
            }
            InstructionClass::ScalarMem => p.scalar_cpi + p.scalar_mem_extra + miss_cycles,
            InstructionClass::VectorConfig => 1.0,
            InstructionClass::VectorArith => {
                let factor = instr.op.map_or(1.0, VectorOp::throughput_factor);
                p.vector_issue_overhead + p.vector_arith_cycles(instr.vl) * factor
            }
            InstructionClass::VectorControl => {
                p.vector_issue_overhead + 0.5 * (instr.vl as f64 / p.lanes as f64).ceil().max(1.0)
            }
            InstructionClass::VectorMem => {
                let pattern =
                    instr.mem.as_ref().map(|m| m.pattern).unwrap_or(MemPattern::UnitStride);
                let stream = match pattern {
                    MemPattern::UnitStride => p.vector_unit_stride_cycles(instr.vl),
                    MemPattern::Strided => p.vector_strided_cycles(instr.vl),
                    MemPattern::Indexed => p.vector_indexed_cycles(instr.vl),
                };
                p.vector_mem_issue_overhead + stream + miss_cycles
            }
        };
        (cost, l1, l2)
    }

    /// Accumulated counters.
    pub fn counters(&self) -> &HwCounters {
        &self.counters
    }

    /// Counters of a single phase.
    pub fn phase_counters(&self, phase: PhaseId) -> PhaseCounters {
        self.counters.phase(phase)
    }

    /// Total simulated cycles so far.
    pub fn total_cycles(&self) -> f64 {
        self.counters.total_cycles()
    }

    /// Consumes the machine, returning its counters.
    pub fn into_counters(self) -> HwCounters {
        self.counters
    }

    /// The vector-instruction trace (empty when tracing is disabled).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The cache simulator (for direct inspection in tests and ablations).
    pub fn cache(&self) -> &CacheSim {
        &self.cache
    }

    /// Resets counters, caches, the trace and the clock, keeping the
    /// platform and configuration.
    pub fn reset(&mut self) {
        self.counters = HwCounters::new();
        self.cache.reset();
        self.tracer.clear();
        self.current_phase = PhaseId::Other;
        self.clock = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::MemAccess;
    use crate::platform::Platform;

    fn machine() -> Machine {
        Machine::new(Platform::riscv_vec())
    }

    #[test]
    fn scalar_instruction_costs_scalar_cpi() {
        let mut m = machine();
        let cost = m.issue(&Instruction::scalar_op());
        assert!((cost - m.platform().scalar_cpi).abs() < 1e-12);
        assert_eq!(m.counters().total().instructions, 1);
    }

    #[test]
    fn vector_fma_cost_matches_platform_model() {
        let mut m = machine();
        let cost = m.issue(&Instruction::vector_arith(VectorOp::Fma, 256));
        let expected = m.platform().vector_issue_overhead + m.platform().vector_arith_cycles(256);
        assert!((cost - expected).abs() < 1e-9);
        let c = m.phase_counters(PhaseId::Other);
        assert_eq!(c.vector_instructions, 1);
        assert_eq!(c.flops, 512.0);
    }

    #[test]
    fn short_vectors_are_inefficient_per_element() {
        // The per-element cost of VL=4 must be much higher than VL=256 —
        // this is why the VEC2 optimization hurts in the paper.
        let mut m = machine();
        let c4 = m.issue(&Instruction::vector_arith(VectorOp::Add, 4)) / 4.0;
        let c256 = m.issue(&Instruction::vector_arith(VectorOp::Add, 256)) / 256.0;
        assert!(c4 > 5.0 * c256, "vl=4 per-element {c4} vs vl=256 {c256}");
    }

    #[test]
    fn phases_attribute_cycles_correctly() {
        let mut m = machine();
        m.begin_phase(PhaseId::new(6));
        m.issue(&Instruction::vector_arith(VectorOp::Fma, 128));
        m.end_phase();
        m.issue(&Instruction::scalar_op());
        assert!(m.phase_counters(PhaseId::new(6)).cycles > 0.0);
        assert!(m.phase_counters(PhaseId::Other).cycles > 0.0);
        assert_eq!(m.phase_counters(PhaseId::new(6)).instructions, 1);
    }

    #[test]
    fn in_phase_restores_previous_phase() {
        let mut m = machine();
        m.begin_phase(PhaseId::new(3));
        m.in_phase(PhaseId::new(5), |m| {
            m.issue(&Instruction::scalar_op());
        });
        assert_eq!(m.current_phase(), PhaseId::new(3));
        assert_eq!(m.phase_counters(PhaseId::new(5)).instructions, 1);
    }

    #[test]
    fn memory_misses_increase_cost() {
        let mut m = machine();
        // Cold access: misses both levels.
        let acc = MemAccess::unit_stride(0x10_0000, 8, 8, false);
        let cold = m.issue(&Instruction::vector_mem(8, acc));
        // Warm access: same line, hits.
        let warm = m.issue(&Instruction::vector_mem(8, acc));
        assert!(cold > warm, "cold {cold} should exceed warm {warm}");
        assert!(m.counters().total().l1_misses >= 1);
    }

    #[test]
    fn indexed_access_costs_more_than_unit_stride() {
        let mut m = machine();
        let unit = MemAccess::unit_stride(0, 256, 8, false);
        let lanes: Vec<u32> = (0..256).collect();
        let idx = MemAccess::indexed(0, &lanes, 8, false);
        let cost_unit = m.issue(&Instruction::vector_mem(256, unit));
        m.reset();
        let cost_idx = m.issue(&Instruction::vector_mem(256, idx));
        assert!(cost_idx > cost_unit);
    }

    #[test]
    fn issue_repeated_matches_individual_issues() {
        use crate::oracle::{counter_bits, event_bits};
        use crate::platform::PlatformKind;
        // `issue_repeated(i, n)` is `n` × `issue(i)` to the last bit — every
        // counter, the clock and every trace event — for a scalar, an
        // arithmetic and a control instruction on all three platforms.  The
        // costs involved (1.4, 1.1, 0.45, 38.88, …) are not exact in binary,
        // so a clock advanced by `cost * n` would differ.
        let traced = MachineConfig { memory_model: MemoryModel::Caches, trace: Some(0) };
        for kind in PlatformKind::ALL {
            for instr in [
                Instruction::scalar_fp(VectorOp::Div),
                Instruction::vector_arith(VectorOp::Mul, 240),
                Instruction::vector_control(100),
            ] {
                let mut a = Machine::with_config(Platform::from_kind(kind), traced);
                let mut b = Machine::with_config(Platform::from_kind(kind), traced);
                for m in [&mut a, &mut b] {
                    m.begin_phase(PhaseId::new(6));
                    m.issue(&Instruction::scalar_op());
                }
                let total = a.issue_repeated(&instr, 37);
                let mut cost = 0.0;
                for _ in 0..37 {
                    cost = b.issue(&instr);
                }
                assert_eq!(total.to_bits(), (cost * 37.0).to_bits());
                let (ca, cb) =
                    (a.phase_counters(PhaseId::new(6)), b.phase_counters(PhaseId::new(6)));
                assert_eq!(counter_bits(&ca), counter_bits(&cb), "{kind:?} {instr:?}");
                assert_eq!(a.counters(), b.counters());
                assert_eq!(a.clock.to_bits(), b.clock.to_bits(), "{kind:?} {instr:?}: clock");
                assert_eq!(a.tracer().events().len(), 38);
                for (ea, eb) in a.tracer().events().iter().zip(b.tracer().events()) {
                    assert_eq!(event_bits(ea), event_bits(eb), "{kind:?} {instr:?}");
                }
            }
        }
    }

    #[test]
    fn issuing_nothing_leaves_the_phase_unlisted() {
        let mut m = machine();
        m.begin_phase(PhaseId::new(4));
        assert_eq!(m.issue_repeated(&Instruction::scalar_op(), 0), 0.0);
        assert_eq!(m.counters().phases().count(), 0);
    }

    #[test]
    #[should_panic]
    fn issue_repeated_rejects_memory_instructions() {
        let mut m = machine();
        let acc = MemAccess::unit_stride(0, 8, 8, false);
        m.issue_repeated(&Instruction::vector_mem(8, acc), 2);
    }

    #[test]
    fn tracing_records_vector_and_scalar_events() {
        let mut m = Machine::with_config(
            Platform::riscv_vec(),
            MachineConfig { memory_model: MemoryModel::Caches, trace: Some(0) },
        );
        m.begin_phase(PhaseId::new(2));
        m.issue(&Instruction::vector_config(256));
        m.issue(&Instruction::vector_mem(256, MemAccess::unit_stride(0, 256, 8, false)));
        assert_eq!(m.tracer().events().len(), 2);
        assert_eq!(m.tracer().events()[1].vl, 256);
        assert_eq!(m.tracer().events()[1].phase, PhaseId::new(2));
    }

    #[test]
    fn flat_memory_model_removes_miss_cycles() {
        let acc = MemAccess::unit_stride(0, 4096, 8, false);
        let mut cached = Machine::new(Platform::riscv_vec());
        let mut flat = Machine::with_config(
            Platform::riscv_vec(),
            MachineConfig { memory_model: MemoryModel::Flat, trace: None },
        );
        let c = cached.issue(&Instruction::vector_mem(256, acc));
        let f = flat.issue(&Instruction::vector_mem(256, acc));
        assert!(c > f, "cached cold access {c} must cost more than flat {f}");
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = machine();
        m.begin_phase(PhaseId::new(1));
        m.issue(&Instruction::scalar_op());
        m.reset();
        assert_eq!(m.total_cycles(), 0.0);
        assert_eq!(m.current_phase(), PhaseId::Other);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut m = machine();
        let mut last = 0.0;
        for _ in 0..5 {
            m.issue(&Instruction::vector_arith(VectorOp::Add, 64));
            assert!(m.total_cycles() > last);
            last = m.total_cycles();
        }
    }
}
