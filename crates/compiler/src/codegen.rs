//! Code generation: walking a planned loop nest and emitting the resulting
//! scalar / vector instruction stream into a simulated [`Machine`].
//!
//! The generated stream follows what the EPI compiler produces for the two
//! execution strategies:
//!
//! * **vectorized loops** execute chunk by chunk (VLA semantics): one
//!   `vsetvl`, then one vector instruction per memory reference and per
//!   floating-point operation of every statement, with unit-stride, strided
//!   or indexed vector memory instructions depending on how each array
//!   subscript varies along the vectorized dimension;
//! * **scalar loops** execute iteration by iteration: loop-control overhead,
//!   one scalar memory instruction per reference, one scalar FP instruction
//!   per operation — plus the re-load of the loop bound on every iteration
//!   when the trip count is a run-time value (the behaviour the paper
//!   observed for the `VECTOR_DIM` dummy argument).
//!
//! The walk executes every iteration of every loop, so addresses are lowered
//! rather than interpreted: on entry, a loop turns the references of the
//! statements directly in its body into `LoweredIndex` forms in its own
//! iteration number (outer loop variables folded in), kept on one stack that
//! nested loops push onto and pop from.  The lowered form of a reference
//! yields the same element index as [`IndexExpr::eval`] at every iteration,
//! so the emitted stream does not depend on it.

use crate::ir::{IndexExpr, Loop, LoopItem, LoopNest, MemRef, Statement};
use crate::vectorizer::{LoopDecision, VectorizationPlan};
use lv_sim::engine::Machine;
use lv_sim::isa::{Instruction, MemAccess};

/// Synthetic stack address from which run-time loop bounds are re-loaded.
const BOUND_BASE_ADDR: u64 = 0xFFFF_0000_0000;

/// Summary of what code generation emitted (used by tests and by the
/// experiment driver's sanity checks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodegenStats {
    /// Number of vectorized chunks executed (one `vsetvl` each).
    pub vector_chunks: u64,
    /// Number of scalar loop iterations executed.
    pub scalar_iterations: u64,
    /// Vector instructions emitted (arithmetic + memory + control).
    pub vector_instructions: u64,
    /// Scalar instructions emitted (including loop control and `vsetvl`).
    pub scalar_instructions: u64,
}

impl CodegenStats {
    /// Accumulates another statistics record into this one (used when a
    /// kernel emits several loop nests per phase).
    pub fn merge(&mut self, other: CodegenStats) {
        self.vector_chunks += other.vector_chunks;
        self.scalar_iterations += other.scalar_iterations;
        self.vector_instructions += other.vector_instructions;
        self.scalar_instructions += other.scalar_instructions;
    }
}

/// Emits the instruction stream of one execution of `nest` (under `plan`)
/// into `machine`, returning emission statistics.
pub fn emit_loop_nest(
    machine: &mut Machine,
    nest: &LoopNest,
    plan: &VectorizationPlan,
) -> CodegenStats {
    let mut emitter = Emitter {
        machine,
        plan,
        indices: vec![0; nest.num_levels],
        lowered: Vec::new(),
        lanes: Vec::new(),
        stats: CodegenStats::default(),
    };
    let first = emitter.lower(&nest.items, None);
    emitter.emit_body(&nest.items, first, 0);
    emitter.stats
}

/// The element index of one memory reference as a function of the iteration
/// number of the loop directly around its statement, with every outer loop
/// variable already folded in.  A loop lowers the references of its own
/// statements once per entry; each iteration (or vector chunk) then costs a
/// multiply-add, plus one table read for a gather, instead of re-evaluating
/// the affine forms term by term.
#[derive(Debug, Clone, Copy)]
enum LoweredIndex<'n> {
    /// `element(iter) = elem0 + iter * coef`.
    Linear { elem0: i64, coef: i64 },
    /// `element(iter) = table[t0 + iter * tstride] * scale + off0 + iter * ocoef`
    /// with `tstride != 0`: vectorizing the loop makes it a gather/scatter.
    Gather { table: &'n [u32], t0: i64, tstride: i64, scale: i64, off0: i64, ocoef: i64 },
}

impl<'n> LoweredIndex<'n> {
    /// Lowers `index` for the loop at `level` (`None`: a statement outside
    /// every loop), with the outer iteration numbers in `indices`.
    fn new(index: &'n IndexExpr, level: Option<usize>, indices: &[usize]) -> Self {
        match index {
            IndexExpr::Affine(a) => {
                let (elem0, coef) = a.split_at(level, indices);
                LoweredIndex::Linear { elem0, coef }
            }
            IndexExpr::Indirect { table, table_index, scale, offset } => {
                let (t0, tstride) = table_index.split_at(level, indices);
                let (off0, ocoef) = offset.split_at(level, indices);
                debug_assert!(t0 >= 0, "negative table index");
                if tstride == 0 {
                    // The same table entry on every iteration.
                    let elem0 = table[t0 as usize] as i64 * scale + off0;
                    LoweredIndex::Linear { elem0, coef: ocoef }
                } else {
                    LoweredIndex::Gather { table, t0, tstride, scale: *scale, off0, ocoef }
                }
            }
        }
    }

    /// Element index touched by iteration `iter`.
    #[inline]
    fn element(&self, iter: usize) -> i64 {
        let iter = iter as i64;
        match *self {
            LoweredIndex::Linear { elem0, coef } => elem0 + iter * coef,
            LoweredIndex::Gather { table, t0, tstride, scale, off0, ocoef } => {
                table[(t0 + iter * tstride) as usize] as i64 * scale + off0 + iter * ocoef
            }
        }
    }
}

/// The state of one walk over a loop nest.
struct Emitter<'m, 'n> {
    machine: &'m mut Machine,
    plan: &'n VectorizationPlan,
    /// Current iteration number per loop level (0 outside the loop).
    indices: Vec<usize>,
    /// Stack of lowered references: each loop being executed owns the tail
    /// it pushed on entry, one entry per reference of its own statements in
    /// body order.
    lowered: Vec<LoweredIndex<'n>>,
    /// Lane-index buffer shared by every gather/scatter of the walk.
    lanes: Vec<u32>,
    stats: CodegenStats,
}

impl<'n> Emitter<'_, 'n> {
    /// Pushes the lowered references of the statements directly in `items`
    /// for the loop at `level` about to be entered, and returns the position
    /// of the first; the loop truncates `lowered` back to it on exit.
    fn lower(&mut self, items: &'n [LoopItem], level: Option<usize>) -> usize {
        let first = self.lowered.len();
        for item in items {
            if let LoopItem::Stmt(s) = item {
                for mem in &s.mem {
                    self.lowered.push(LoweredIndex::new(&mem.index, level, &self.indices));
                }
            }
        }
        first
    }

    /// Emits iteration `iter` of a scalar loop body (or the top-level items
    /// with `iter == 0`) whose references were lowered from `first` on.
    fn emit_body(&mut self, items: &'n [LoopItem], first: usize, iter: usize) {
        let mut next = first;
        for item in items {
            match item {
                LoopItem::Stmt(s) => {
                    self.emit_scalar_statement(s, next, iter);
                    next += s.mem.len();
                }
                LoopItem::Loop(l) => self.emit_loop(l),
            }
        }
    }

    fn scalar_op(&mut self) {
        self.machine.issue(&Instruction::scalar_op());
        self.stats.scalar_instructions += 1;
    }

    fn emit_loop(&mut self, l: &'n Loop) {
        let plan = self.plan;
        let decision = l.is_innermost().then(|| plan.decision(l.level)).flatten();
        match decision {
            Some(LoopDecision::Vectorized { chunks }) => self.emit_vectorized_loop(l, chunks),
            _ => self.emit_scalar_loop(l),
        }
    }

    /// Emits a loop executed with vector instructions, chunk by chunk.
    fn emit_vectorized_loop(&mut self, l: &'n Loop, chunks: &[usize]) {
        // Loop setup (induction variable initialization).
        self.scalar_op();

        let first = self.lower(&l.body, Some(l.level));
        let mut start = 0usize;
        for &vl in chunks {
            self.machine.issue(&Instruction::vector_config(vl));
            self.stats.scalar_instructions += 1;
            self.stats.vector_chunks += 1;

            let mut slot = first;
            for stmt in l.statements() {
                // Per-chunk loop control / address bookkeeping.
                self.scalar_op();
                for mem in &stmt.mem {
                    self.emit_vector_mem(mem, slot, start, vl);
                    slot += 1;
                }
                for &(op, count) in &stmt.flops {
                    self.machine.issue_repeated(&Instruction::vector_arith(op, vl), count as u64);
                    self.stats.vector_instructions += count as u64;
                }
            }
            start += vl;
        }
        self.lowered.truncate(first);

        // Loop exit branch.
        self.scalar_op();
    }

    /// Emits the vector memory instruction(s) of the reference lowered at
    /// `slot` for the chunk of `vl` iterations from `start`.
    fn emit_vector_mem(&mut self, mem: &MemRef, slot: usize, start: usize, vl: usize) {
        let lowered = self.lowered[slot];
        let access = match lowered {
            LoweredIndex::Gather { .. } => {
                // Gather / scatter: the element index of every lane.
                self.lanes.clear();
                self.lanes.extend((start..start + vl).map(|iter| {
                    let elem = lowered.element(iter);
                    debug_assert!(elem >= 0, "negative element index for array {}", mem.array);
                    elem as u32
                }));
                MemAccess::indexed(mem.base, &self.lanes, mem.elem_bytes, mem.is_store)
            }
            LoweredIndex::Linear { elem0, coef } => {
                // Affine (or indirection-invariant) reference: the stride
                // between two consecutive lanes; a single lane counts as
                // unit-stride.
                let first = mem.element_address(elem0 + start as i64 * coef);
                let elem_bytes = mem.elem_bytes as i64;
                let stride = if vl > 1 { coef * elem_bytes } else { elem_bytes };
                if stride == 0 {
                    // Invariant along the vectorized dimension: one scalar
                    // load plus a broadcast into a vector register.
                    let access = MemAccess::unit_stride(first, 1, mem.elem_bytes, mem.is_store);
                    self.machine.issue(&Instruction::scalar_mem(access));
                    self.machine.issue(&Instruction::vector_control(vl));
                    self.stats.scalar_instructions += 1;
                    self.stats.vector_instructions += 1;
                    return;
                }
                if stride == elem_bytes {
                    MemAccess::unit_stride(first, vl, mem.elem_bytes, mem.is_store)
                } else {
                    MemAccess::strided(first, stride, vl, mem.elem_bytes, mem.is_store)
                }
            }
        };
        self.machine.issue(&Instruction::vector_mem(vl, access));
        self.stats.vector_instructions += 1;
    }

    /// Emits a loop executed scalar, iteration by iteration.
    fn emit_scalar_loop(&mut self, l: &'n Loop) {
        // Loop setup.
        self.scalar_op();

        let trip = l.trip.value();
        let reload_bound = !l.trip.is_compile_time();
        let bound_addr = BOUND_BASE_ADDR + l.level as u64 * 64;

        let first = self.lower(&l.body, Some(l.level));
        for iter in 0..trip {
            self.indices[l.level] = iter;
            // Induction variable increment + compare + branch.
            self.scalar_op();
            self.stats.scalar_iterations += 1;
            if reload_bound {
                // The compiler re-loads the run-time bound from the stack on every
                // iteration (the paper's phase-2 observation).
                let access = MemAccess::unit_stride(bound_addr, 1, 8, false);
                self.machine.issue(&Instruction::scalar_mem(access));
                self.stats.scalar_instructions += 1;
            }
            self.emit_body(&l.body, first, iter);
        }
        self.indices[l.level] = 0;
        self.lowered.truncate(first);
    }

    /// Emits the scalar form of one statement for iteration `iter` of its
    /// loop; its references were lowered from `first` on.
    fn emit_scalar_statement(&mut self, stmt: &Statement, first: usize, iter: usize) {
        if stmt.int_ops > 0 {
            self.machine.issue_repeated(&Instruction::scalar_op(), stmt.int_ops as u64);
            self.stats.scalar_instructions += stmt.int_ops as u64;
        }
        for (mem, lowered) in stmt.mem.iter().zip(&self.lowered[first..]) {
            let addr = mem.element_address(lowered.element(iter));
            let access = MemAccess::unit_stride(addr, 1, mem.elem_bytes, mem.is_store);
            self.machine.issue(&Instruction::scalar_mem(access));
            self.stats.scalar_instructions += 1;
        }
        for &(op, count) in &stmt.flops {
            self.machine.issue_repeated(&Instruction::scalar_fp(op), count as u64);
            self.stats.scalar_instructions += count as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AffineExpr, IndexExpr, LoopNest, Statement, TripCount};
    use crate::vectorizer::Vectorizer;
    use lv_sim::counters::PhaseId;
    use lv_sim::isa::{MemPattern, VectorOp};
    use lv_sim::platform::Platform;
    use std::sync::Arc;

    fn machine() -> Machine {
        Machine::new(Platform::riscv_vec())
    }

    /// `do ivect = 1, 240: c[ivect] += a[ivect] * b` — a simple axpy-like
    /// nest with one invariant operand.
    fn axpy_nest(trip: TripCount) -> LoopNest {
        let stmt = Statement::new("axpy")
            .with_flops(VectorOp::Fma, 1)
            .with_mem(MemRef::load("a", 0, IndexExpr::Affine(AffineExpr::term(0, 1))))
            .with_mem(MemRef::load("b", 1 << 20, IndexExpr::Affine(AffineExpr::constant(0))))
            .with_mem(MemRef::store("c", 2 << 20, IndexExpr::Affine(AffineExpr::term(0, 1))));
        let l = Loop::new("ivect", 0, trip).with_stmt(stmt);
        LoopNest::new("axpy", vec![LoopItem::Loop(l)], 1)
    }

    #[test]
    fn vectorized_axpy_emits_long_vector_instructions() {
        let nest = axpy_nest(TripCount::Const(240));
        let plan = Vectorizer::new(256).plan(&nest);
        let mut m = machine();
        m.begin_phase(PhaseId::new(6));
        let stats = emit_loop_nest(&mut m, &nest, &plan);
        assert_eq!(stats.vector_chunks, 1);
        assert!(stats.vector_instructions >= 3); // 2 vmem + 1 fma (+ broadcast)
        let c = m.phase_counters(PhaseId::new(6));
        assert_eq!(c.avg_vector_length(), 240.0);
        assert!(c.vector_mix() > 0.3);
        // FLOP count: 240 FMAs = 480 FLOPs.
        assert_eq!(c.flops, 480.0);
    }

    #[test]
    fn scalar_axpy_matches_flop_count_of_vector_version() {
        let nest = axpy_nest(TripCount::Const(240));
        let scalar_plan = Vectorizer::disabled().plan(&nest);
        let vector_plan = Vectorizer::new(256).plan(&nest);
        let mut ms = machine();
        emit_loop_nest(&mut ms, &nest, &scalar_plan);
        let mut mv = machine();
        emit_loop_nest(&mut mv, &nest, &vector_plan);
        assert_eq!(ms.counters().total().flops, mv.counters().total().flops);
        assert_eq!(ms.counters().total().vector_instructions, 0);
        assert!(mv.counters().total().vector_instructions > 0);
    }

    #[test]
    fn vectorized_version_is_faster_than_scalar() {
        let nest = axpy_nest(TripCount::Const(240));
        let mut ms = machine();
        emit_loop_nest(&mut ms, &nest, &Vectorizer::disabled().plan(&nest));
        let mut mv = machine();
        emit_loop_nest(&mut mv, &nest, &Vectorizer::new(256).plan(&nest));
        assert!(
            mv.total_cycles() < ms.total_cycles(),
            "vector {} should beat scalar {}",
            mv.total_cycles(),
            ms.total_cycles()
        );
    }

    #[test]
    fn runtime_bound_adds_reload_instructions() {
        let const_nest = axpy_nest(TripCount::Const(64));
        let runtime_nest = axpy_nest(TripCount::Runtime(64));
        let mut mc = machine();
        emit_loop_nest(&mut mc, &const_nest, &Vectorizer::disabled().plan(&const_nest));
        let mut mr = machine();
        emit_loop_nest(&mut mr, &runtime_nest, &Vectorizer::disabled().plan(&runtime_nest));
        // 64 extra scalar loads for the bound.
        assert_eq!(mr.counters().total().instructions, mc.counters().total().instructions + 64);
    }

    #[test]
    fn invariant_operand_becomes_broadcast() {
        let nest = axpy_nest(TripCount::Const(128));
        let plan = Vectorizer::new(256).plan(&nest);
        let mut m = Machine::with_config(
            Platform::riscv_vec(),
            lv_sim::engine::MachineConfig {
                memory_model: lv_sim::memory::MemoryModel::Caches,
                trace: Some(0),
            },
        );
        emit_loop_nest(&mut m, &nest, &plan);
        // The invariant `b` load appears as a scalar memory access plus a
        // vector control (broadcast) instruction in the trace.
        let classes = m.tracer().class_histogram();
        assert!(
            classes.get(&lv_sim::isa::InstructionClass::VectorControl).copied().unwrap_or(0) >= 1
        );
        assert!(classes.get(&lv_sim::isa::InstructionClass::ScalarMem).copied().unwrap_or(0) >= 1);
    }

    #[test]
    fn gather_reference_emits_indexed_vector_access() {
        // b[idx[i]] gather over the vectorized loop.
        let table = Arc::new((0..256u32).map(|i| (i * 7) % 256).collect::<Vec<_>>());
        let stmt = Statement::new("gather").with_mem(MemRef::load(
            "coords",
            0,
            IndexExpr::Indirect {
                table,
                table_index: AffineExpr::term(0, 1),
                scale: 3,
                offset: AffineExpr::constant(1),
            },
        ));
        let l = Loop::new("ivect", 0, TripCount::Const(64)).with_stmt(stmt);
        let nest = LoopNest::new("gather", vec![LoopItem::Loop(l)], 1);
        let plan = Vectorizer::new(256).plan(&nest);
        let mut m = Machine::with_config(
            Platform::riscv_vec(),
            lv_sim::engine::MachineConfig {
                memory_model: lv_sim::memory::MemoryModel::Caches,
                trace: Some(0),
            },
        );
        emit_loop_nest(&mut m, &nest, &plan);
        let gather_events: Vec<_> =
            m.tracer().events().iter().filter(|e| e.pattern == Some(MemPattern::Indexed)).collect();
        assert_eq!(gather_events.len(), 1);
        assert_eq!(gather_events[0].vl, 64);
    }

    #[test]
    fn strided_reference_emits_strided_vector_access() {
        // a[4*i] : stride of 4 elements.
        let stmt = Statement::new("strided").with_mem(MemRef::load(
            "a",
            0,
            IndexExpr::Affine(AffineExpr::term(0, 4)),
        ));
        let l = Loop::new("ivect", 0, TripCount::Const(32)).with_stmt(stmt);
        let nest = LoopNest::new("strided", vec![LoopItem::Loop(l)], 1);
        let plan = Vectorizer::new(256).plan(&nest);
        let mut m = Machine::with_config(
            Platform::riscv_vec(),
            lv_sim::engine::MachineConfig {
                memory_model: lv_sim::memory::MemoryModel::Caches,
                trace: Some(0),
            },
        );
        emit_loop_nest(&mut m, &nest, &plan);
        assert!(m.tracer().events().iter().any(|e| e.pattern == Some(MemPattern::Strided)));
    }

    #[test]
    fn vs512_runs_two_chunks_on_a_256_machine() {
        let nest = axpy_nest(TripCount::Const(512));
        let plan = Vectorizer::new(256).plan(&nest);
        let mut m = machine();
        let stats = emit_loop_nest(&mut m, &nest, &plan);
        assert_eq!(stats.vector_chunks, 2);
        assert_eq!(m.counters().total().avg_vector_length(), 256.0);
    }

    #[test]
    fn nested_scalar_loops_execute_every_iteration() {
        let stmt = Statement::new("s").with_flops(VectorOp::Add, 1);
        let inner = Loop::new("j", 1, TripCount::Const(5)).with_stmt(stmt);
        let outer = Loop::new("i", 0, TripCount::Const(7)).with_loop(inner);
        let nest = LoopNest::new("nested", vec![LoopItem::Loop(outer)], 2);
        let plan = Vectorizer::disabled().plan(&nest);
        let mut m = machine();
        let stats = emit_loop_nest(&mut m, &nest, &plan);
        assert_eq!(stats.scalar_iterations, 7 + 7 * 5);
        assert_eq!(m.counters().total().flops, 35.0);
    }

    #[test]
    fn single_lane_tail_chunk_is_emitted_as_unit_stride() {
        // 257 iterations on a 256-element machine: the one-lane tail has no
        // second lane to take a stride from, so even the invariant operand
        // `b` is a unit-stride vector access there instead of a broadcast.
        let nest = axpy_nest(TripCount::Const(257));
        let plan = Vectorizer::new(256).plan(&nest);
        let mut m = Machine::with_config(
            Platform::riscv_vec(),
            lv_sim::engine::MachineConfig {
                memory_model: lv_sim::memory::MemoryModel::Caches,
                trace: Some(0),
            },
        );
        let stats = emit_loop_nest(&mut m, &nest, &plan);
        assert_eq!(stats.vector_chunks, 2);
        let tail: Vec<_> = m.tracer().events().iter().filter(|e| e.vl == 1).collect();
        let unit = tail.iter().filter(|e| e.pattern == Some(MemPattern::UnitStride)).count();
        assert_eq!(unit, 3, "a, b and c are all unit-stride in the tail: {tail:?}");
        let classes = m.tracer().class_histogram();
        assert_eq!(classes[&lv_sim::isa::InstructionClass::VectorControl], 1);
    }

    #[test]
    fn lowered_index_matches_direct_evaluation() {
        // Every shape a reference takes — a level repeated or absent, a
        // negative coefficient, an indirection whose table index, offset or
        // both follow the lowered loop — evaluated at every iteration of each
        // of three levels under several outer iteration states.
        let table = Arc::new((0..64u32).map(|i| (i * 37 + 5) % 101).collect::<Vec<_>>());
        let indirect = |table_index: AffineExpr, offset: AffineExpr| IndexExpr::Indirect {
            table: Arc::clone(&table),
            table_index,
            scale: 3,
            offset,
        };
        let exprs = [
            IndexExpr::Affine(AffineExpr::constant(7)),
            IndexExpr::Affine(
                AffineExpr::term(0, 1).plus_term(1, 12).plus_term(2, 4).plus_const(9),
            ),
            IndexExpr::Affine(AffineExpr::term(1, 5).plus_term(1, -2).plus_const(40)),
            IndexExpr::Affine(AffineExpr::term(2, -3).plus_const(100)),
            indirect(AffineExpr::term(0, 8).plus_term(1, 1).plus_const(2), AffineExpr::term(2, 1)),
            indirect(AffineExpr::term(1, 2), AffineExpr::term(1, 1).plus_term(0, 7)),
            indirect(
                AffineExpr::term(0, 3).plus_term(0, -3).plus_const(11),
                AffineExpr::constant(1),
            ),
        ];
        for expr in &exprs {
            for level in 0..3 {
                for outer in [[0usize, 0, 0], [3, 1, 2], [1, 3, 0]] {
                    let mut indices = outer;
                    let lowered = LoweredIndex::new(expr, Some(level), &indices);
                    let gathers = matches!(lowered, LoweredIndex::Gather { .. });
                    assert_eq!(gathers, expr.is_indexed_in(level), "{expr:?} at level {level}");
                    for iter in 0..4 {
                        indices[level] = iter;
                        assert_eq!(lowered.element(iter), expr.eval(&indices), "{expr:?}");
                    }
                }
            }
            let outside = LoweredIndex::new(expr, None, &[2, 1, 3]);
            assert_eq!(outside.element(0), expr.eval(&[2, 1, 3]));
        }
    }
}
