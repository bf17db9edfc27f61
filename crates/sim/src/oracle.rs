//! Differential oracle for the simulator's hot path (test-only).
//!
//! The reference below is the implementation the crate shipped before the
//! hot path was rewritten, kept verbatim: instructions that own their index
//! vector, a `BTreeMap` of per-phase counters filled by one `record` call per
//! instruction, a stamp-based LRU cache array and an `access` that walks
//! every element of every access.  The tests drive the reference and the
//! production [`Machine`] with the same seeded instruction stream and demand
//! the same bits everywhere: every counter of every phase, the cache totals
//! and every trace event.

use crate::counters::{PhaseCounters, PhaseId};
use crate::engine::{Machine, MachineConfig};
use crate::isa::{Instruction, InstructionClass, MemAccess, MemPattern, VectorOp};
use crate::memory::{AccessResult, CacheConfig, CacheLevel, MemoryModel};
use crate::platform::{Platform, PlatformKind};
use crate::trace::TraceEvent;
use std::collections::BTreeMap;

/// Every field of a counter set as raw bits, in declaration order.
pub(crate) fn counter_bits(c: &PhaseCounters) -> [u64; 15] {
    [
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
    ]
}

/// Every field of a trace event, floats as raw bits.
pub(crate) fn event_bits(
    e: &TraceEvent,
) -> (u64, PhaseId, InstructionClass, Option<VectorOp>, Option<MemPattern>, usize, u64) {
    (e.cycle.to_bits(), e.phase, e.class, e.op, e.pattern, e.vl, e.cost.to_bits())
}

// ------------------------------------------------------------- the reference

/// The memory descriptor as it was: it owns the lane indices.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RefMemAccess {
    pub pattern: MemPattern,
    pub is_store: bool,
    pub base: u64,
    pub stride: i64,
    pub count: usize,
    pub elem_bytes: u32,
    pub indices: Vec<u32>,
}

impl RefMemAccess {
    pub(crate) fn of(mem: &MemAccess) -> Self {
        RefMemAccess {
            pattern: mem.pattern,
            is_store: mem.is_store,
            base: mem.base,
            stride: mem.stride,
            count: mem.count,
            elem_bytes: mem.elem_bytes,
            indices: mem.indices.to_vec(),
        }
    }

    fn element_addresses(&self) -> impl Iterator<Item = u64> + '_ {
        let base = self.base;
        let stride = self.stride;
        let elem_bytes = self.elem_bytes as u64;
        (0..self.count).map(move |i| match self.pattern {
            MemPattern::Indexed => base + self.indices[i] as u64 * elem_bytes,
            _ => (base as i64 + i as i64 * stride) as u64,
        })
    }

    fn bytes(&self) -> u64 {
        self.count as u64 * self.elem_bytes as u64
    }
}

/// The instruction as it was.
#[derive(Debug, Clone, PartialEq)]
struct RefInstruction {
    class: InstructionClass,
    op: Option<VectorOp>,
    vl: usize,
    mem: Option<RefMemAccess>,
}

impl RefInstruction {
    fn of(instr: &Instruction) -> Self {
        RefInstruction {
            class: instr.class,
            op: instr.op,
            vl: instr.vl,
            mem: instr.mem.as_ref().map(RefMemAccess::of),
        }
    }

    fn flops(&self) -> f64 {
        match (self.class, self.op) {
            (InstructionClass::VectorArith, Some(op)) => op.flops_per_element() * self.vl as f64,
            (InstructionClass::ScalarFp, Some(op)) => op.flops_per_element(),
            _ => 0.0,
        }
    }
}

/// `PhaseCounters::record` as it was: one call per issued instruction.
fn ref_record(
    c: &mut PhaseCounters,
    instr: &RefInstruction,
    cycles: f64,
    l1_misses: u64,
    l2_misses: u64,
) {
    c.cycles += cycles;
    c.instructions += 1;
    c.flops += instr.flops();
    c.l1_misses += l1_misses;
    c.l2_misses += l2_misses;
    if let Some(mem) = &instr.mem {
        c.bytes += mem.bytes();
    }
    match instr.class {
        InstructionClass::VectorArith => {
            c.vector_instructions += 1;
            c.vector_arith += 1;
            c.vector_cycles += cycles;
            c.vl_sum += instr.vl as u64;
        }
        InstructionClass::VectorMem => {
            c.vector_instructions += 1;
            c.vector_mem += 1;
            c.memory_instructions += 1;
            c.vector_cycles += cycles;
            c.vl_sum += instr.vl as u64;
        }
        InstructionClass::VectorControl => {
            c.vector_instructions += 1;
            c.vector_control += 1;
            c.vector_cycles += cycles;
            c.vl_sum += instr.vl as u64;
        }
        InstructionClass::VectorConfig => {
            c.vector_config += 1;
            c.scalar_instructions += 1;
        }
        InstructionClass::ScalarMem => {
            c.scalar_instructions += 1;
            c.memory_instructions += 1;
        }
        InstructionClass::ScalarOp | InstructionClass::ScalarFp => {
            c.scalar_instructions += 1;
        }
    }
}

/// The cache level as it was: LRU by access stamps.
#[derive(Debug, Clone)]
struct RefCacheArray {
    sets: usize,
    ways: usize,
    line_shift: u32,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
}

impl RefCacheArray {
    fn new(sets: usize, ways: usize, line_bytes: usize) -> Self {
        RefCacheArray {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
        }
    }

    fn access_line(&mut self, line_addr: u64) -> bool {
        self.clock += 1;
        let set = (line_addr as usize) & (self.sets - 1);
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        // Hit?
        if let Some(way) = slots.iter().position(|&t| t == line_addr) {
            self.stamps[base + way] = self.clock;
            return true;
        }
        // Miss: fill the LRU way.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for way in 0..self.ways {
            let idx = base + way;
            if self.tags[idx] == u64::MAX {
                victim = way;
                break;
            }
            if self.stamps[idx] < oldest {
                oldest = self.stamps[idx];
                victim = way;
            }
        }
        self.tags[base + victim] = line_addr;
        self.stamps[base + victim] = self.clock;
        false
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }
}

/// The cache simulator as it was: every access is walked element by element,
/// with one loop per memory model.
#[derive(Debug, Clone)]
pub(crate) struct RefCacheSim {
    model: MemoryModel,
    l1: RefCacheArray,
    l2: RefCacheArray,
    pub l1_accesses: u64,
    pub l1_misses: u64,
    pub l2_misses: u64,
}

impl RefCacheSim {
    pub(crate) fn new(config: CacheConfig, model: MemoryModel) -> Self {
        let l1 = RefCacheArray::new(config.sets(CacheLevel::L1), config.l1_ways, config.line_bytes);
        let l2 = RefCacheArray::new(config.sets(CacheLevel::L2), config.l2_ways, config.line_bytes);
        RefCacheSim { model, l1, l2, l1_accesses: 0, l1_misses: 0, l2_misses: 0 }
    }

    pub(crate) fn access(&mut self, mem: &RefMemAccess) -> AccessResult {
        let mut result = AccessResult::default();
        if self.model == MemoryModel::Flat {
            // Count the touched lines for bandwidth purposes but never miss.
            let mut last_line = u64::MAX;
            for addr in mem.element_addresses() {
                let line = self.l1.line_of(addr);
                if line != last_line {
                    result.lines += 1;
                    last_line = line;
                }
            }
            self.l1_accesses += result.lines;
            return result;
        }
        let mut last_line = u64::MAX;
        for addr in mem.element_addresses() {
            let line = self.l1.line_of(addr);
            // Consecutive elements on the same line count as a single line
            // access (what a real vector memory unit coalesces).
            if line == last_line {
                continue;
            }
            last_line = line;
            result.lines += 1;
            self.l1_accesses += 1;
            if !self.l1.access_line(line) {
                result.l1_misses += 1;
                self.l1_misses += 1;
                if !self.l2.access_line(line) {
                    result.l2_misses += 1;
                    self.l2_misses += 1;
                }
            }
        }
        result
    }
}

/// The machine as it was, tracer always on; `issue_repeated(i, n)` is by
/// definition `n` issues.
struct RefMachine {
    platform: Platform,
    cache: RefCacheSim,
    phases: BTreeMap<PhaseId, PhaseCounters>,
    events: Vec<TraceEvent>,
    current_phase: PhaseId,
    clock: f64,
}

impl RefMachine {
    fn new(platform: Platform, model: MemoryModel) -> Self {
        RefMachine {
            platform,
            cache: RefCacheSim::new(platform.cache, model),
            phases: BTreeMap::new(),
            events: Vec::new(),
            current_phase: PhaseId::Other,
            clock: 0.0,
        }
    }

    fn issue(&mut self, instr: &RefInstruction) -> f64 {
        let (cost, l1_misses, l2_misses) = self.cost_of(instr);
        ref_record(
            self.phases.entry(self.current_phase).or_default(),
            instr,
            cost,
            l1_misses,
            l2_misses,
        );
        self.events.push(TraceEvent {
            cycle: self.clock,
            phase: self.current_phase,
            class: instr.class,
            op: instr.op,
            pattern: instr.mem.as_ref().map(|m| m.pattern),
            vl: instr.vl,
            cost,
        });
        self.clock += cost;
        cost
    }

    fn cost_of(&mut self, instr: &RefInstruction) -> (f64, u64, u64) {
        let p = self.platform;
        match instr.class {
            InstructionClass::ScalarOp => (p.scalar_cpi, 0, 0),
            InstructionClass::ScalarFp => {
                let factor = instr.op.map_or(1.0, VectorOp::throughput_factor);
                (p.scalar_cpi * factor, 0, 0)
            }
            InstructionClass::ScalarMem => {
                let (l1, l2) = self.simulate_memory(instr);
                let cost = p.scalar_cpi
                    + p.scalar_mem_extra
                    + (l1 as f64 * p.l1_miss_penalty + l2 as f64 * p.l2_miss_penalty)
                        * (1.0 - p.mem_overlap);
                (cost, l1, l2)
            }
            InstructionClass::VectorConfig => (1.0, 0, 0),
            InstructionClass::VectorArith => {
                let factor = instr.op.map_or(1.0, VectorOp::throughput_factor);
                let cost = p.vector_issue_overhead + p.vector_arith_cycles(instr.vl) * factor;
                (cost, 0, 0)
            }
            InstructionClass::VectorControl => {
                let cost = p.vector_issue_overhead
                    + 0.5 * (instr.vl as f64 / p.lanes as f64).ceil().max(1.0);
                (cost, 0, 0)
            }
            InstructionClass::VectorMem => {
                let pattern =
                    instr.mem.as_ref().map(|m| m.pattern).unwrap_or(MemPattern::UnitStride);
                let stream = match pattern {
                    MemPattern::UnitStride => p.vector_unit_stride_cycles(instr.vl),
                    MemPattern::Strided => p.vector_strided_cycles(instr.vl),
                    MemPattern::Indexed => p.vector_indexed_cycles(instr.vl),
                };
                let (l1, l2) = self.simulate_memory(instr);
                let miss_cycles = (l1 as f64 * p.l1_miss_penalty + l2 as f64 * p.l2_miss_penalty)
                    * (1.0 - p.mem_overlap);
                (p.vector_mem_issue_overhead + stream + miss_cycles, l1, l2)
            }
        }
    }

    fn simulate_memory(&mut self, instr: &RefInstruction) -> (u64, u64) {
        match &instr.mem {
            Some(mem) => {
                let res = self.cache.access(mem);
                (res.l1_misses, res.l2_misses)
            }
            None => (0, 0),
        }
    }
}

// ---------------------------------------------------------------- the stream

/// SplitMix64: the seeded generator of the instruction stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.range(0, items.len() as u64 - 1) as usize]
    }
}

const OPS: [VectorOp; 5] =
    [VectorOp::Add, VectorOp::Mul, VectorOp::Fma, VectorOp::Div, VectorOp::Cmp];

/// A memory access with everything the cache walk branches on drawn at
/// random: pattern, element size, aligned or unaligned base inside a few
/// regions that alias in both cache levels, a stride below / at / above the
/// line size, zero or negative, or scattered lane indices.
fn random_access<'a>(rng: &mut Rng, count: usize, lanes: &'a mut Vec<u32>) -> MemAccess<'a> {
    let elem_bytes = rng.pick(&[4u32, 8]);
    let region = rng.pick(&[0x0010_0000u64, 0x1000_0000, 0x1004_0000, 0x3000_0000]);
    let mut base = region + rng.range(0, 1 << 16) * elem_bytes as u64;
    if rng.range(0, 3) == 0 {
        base += rng.range(1, 7); // unaligned
    }
    let is_store = rng.range(0, 1) == 1;
    match rng.range(0, 2) {
        0 => MemAccess::unit_stride(base, count, elem_bytes, is_store),
        1 => {
            let stride = rng.pick(&[0i64, 4, 12, 24, 64, 128, 136, 4096, -8, -64, -200]);
            // Keep every address of a descending access positive.
            let base = base + (count as u64) * stride.unsigned_abs();
            MemAccess::strided(base, stride, count, elem_bytes, is_store)
        }
        _ => {
            let span = rng.pick(&[16u64, 1 << 10, 1 << 18]);
            lanes.clear();
            lanes.extend((0..count).map(|_| rng.range(0, span) as u32));
            MemAccess::indexed(base, lanes, elem_bytes, is_store)
        }
    }
}

/// Drives the reference and two production machines (traced and untraced)
/// with one seeded stream of at least `min_instructions` instructions and
/// compares everything observable.
fn run_differential(kind: PlatformKind, model: MemoryModel, seed: u64, min_instructions: u64) {
    let platform = Platform::from_kind(kind);
    let mut reference = RefMachine::new(platform, model);
    let mut traced =
        Machine::with_config(platform, MachineConfig { memory_model: model, trace: Some(0) });
    let mut untraced =
        Machine::with_config(platform, MachineConfig { memory_model: model, trace: None });
    let mut rng = Rng(seed);
    let mut lanes = Vec::new();
    let mut issued = 0u64;
    let mut classes_seen = [false; 7];
    let mut patterns_seen = [false; 3];

    while issued < min_instructions {
        if rng.range(0, 15) == 0 {
            let phase = match rng.range(0, 8) {
                0 => PhaseId::Other,
                n => PhaseId::new(n as u8),
            };
            reference.current_phase = phase;
            traced.begin_phase(phase);
            untraced.begin_phase(phase);
        }
        let vl = rng.range(1, 512) as usize;
        let class = rng.range(0, 6);
        classes_seen[class as usize] = true;
        let instr = match class {
            0 => Instruction::scalar_op(),
            1 => Instruction::scalar_fp(rng.pick(&OPS)),
            2 => Instruction::scalar_mem(random_access(&mut rng, 1, &mut lanes)),
            3 => Instruction::vector_config(vl),
            4 => Instruction::vector_arith(rng.pick(&OPS), vl),
            5 => Instruction::vector_mem(vl, random_access(&mut rng, vl, &mut lanes)),
            _ => Instruction::vector_control(vl),
        };
        if let Some(mem) = &instr.mem {
            patterns_seen[mem.pattern as usize] = true;
        }
        let ref_instr = RefInstruction::of(&instr);
        // Half of the non-memory instructions go through `issue_repeated`.
        if instr.mem.is_none() && rng.range(0, 1) == 0 {
            let n = rng.range(0, 40);
            for _ in 0..n {
                reference.issue(&ref_instr);
            }
            let total = traced.issue_repeated(&instr, n);
            untraced.issue_repeated(&instr, n);
            let cost = reference.events.last().map_or(0.0, |e| e.cost);
            assert_eq!(total.to_bits(), if n == 0 { 0 } else { (cost * n as f64).to_bits() });
            issued += n;
        } else {
            let expected = reference.issue(&ref_instr);
            let cost = traced.issue(&instr);
            untraced.issue(&instr);
            assert_eq!(cost.to_bits(), expected.to_bits(), "cost of {instr:?}");
            issued += 1;
        }
    }
    assert!(classes_seen.iter().all(|&s| s) && patterns_seen.iter().all(|&s| s));
    if model == MemoryModel::Caches {
        // The stream must exercise hits and misses of both levels.
        let c = &reference.cache;
        assert!(0 < c.l2_misses && c.l2_misses < c.l1_misses && c.l1_misses < c.l1_accesses);
        assert!(10 * c.l2_misses < 9 * c.l1_misses, "L2 never hits: {c:?}");
    }

    for machine in [&traced, &untraced] {
        let got: Vec<_> = machine.counters().phases().map(|(p, c)| (p, counter_bits(c))).collect();
        let want: Vec<_> = reference.phases.iter().map(|(p, c)| (*p, counter_bits(c))).collect();
        assert_eq!(got, want, "{kind:?}/{model:?}: per-phase counters");
        assert_eq!(machine.counters().total().instructions, issued);
        let cache = machine.cache();
        assert_eq!(
            (cache.l1_accesses(), cache.l1_misses(), cache.l2_misses()),
            (reference.cache.l1_accesses, reference.cache.l1_misses, reference.cache.l2_misses),
            "{kind:?}/{model:?}: cache totals"
        );
    }
    assert_eq!(traced.tracer().events().len(), reference.events.len());
    for (i, (got, want)) in traced.tracer().events().iter().zip(&reference.events).enumerate() {
        assert_eq!(event_bits(got), event_bits(want), "{kind:?}/{model:?}: trace event {i}");
    }
    assert!(untraced.tracer().events().is_empty());
}

#[test]
fn production_machine_matches_the_reference_bit_for_bit() {
    for (i, kind) in PlatformKind::ALL.into_iter().enumerate() {
        for (j, model) in [MemoryModel::Caches, MemoryModel::Flat].into_iter().enumerate() {
            run_differential(kind, model, 0x5eed + (2 * i + j) as u64, 100_000);
        }
    }
}
