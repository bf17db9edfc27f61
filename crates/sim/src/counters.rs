//! Hardware counters.
//!
//! Section 2.2 of the paper derives all of its metrics from a handful of
//! counters: total cycles `ct`, vector cycles `cv`, total instructions `it`,
//! vector instructions `iv`, the accumulated vector length of the vector
//! instructions (for AVL), and the L1/L2 data-cache misses.  All of them are
//! collected *per phase* (the mini-app is instrumented into 8 regions), so
//! the counters here are a per-phase table plus an aggregate.

use crate::isa::{Instruction, InstructionClass};
use serde::{Deserialize, Serialize};

/// Identifier of an instrumented region of the mini-app.
///
/// Phases 1–8 follow the paper's decomposition of the Nastin assembly;
/// [`PhaseId::Other`] collects everything executed outside an instrumented
/// region (negligible in practice, but kept so no cycle is ever lost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PhaseId {
    /// One of the eight instrumented phases (1-based, as in the paper).
    Phase(u8),
    /// Uninstrumented code.
    Other,
}

impl PhaseId {
    /// The eight phases of the mini-app, in order.
    pub const ALL: [PhaseId; 8] = [
        PhaseId::Phase(1),
        PhaseId::Phase(2),
        PhaseId::Phase(3),
        PhaseId::Phase(4),
        PhaseId::Phase(5),
        PhaseId::Phase(6),
        PhaseId::Phase(7),
        PhaseId::Phase(8),
    ];

    /// Creates a phase id from a 1-based number.
    ///
    /// # Panics
    /// Panics if `n` is not in `1..=8`.
    pub fn new(n: u8) -> Self {
        assert!((1..=8).contains(&n), "phase number must be 1..=8, got {n}");
        PhaseId::Phase(n)
    }

    /// The 1-based phase number, or `None` for [`PhaseId::Other`].
    pub fn number(self) -> Option<u8> {
        match self {
            PhaseId::Phase(n) => Some(n),
            PhaseId::Other => None,
        }
    }

    /// Number of distinct phase ids: the eight phases plus
    /// [`PhaseId::Other`].
    const COUNT: usize = 9;

    /// Position of this id in `Phase(1), …, Phase(8), Other` — the `Ord`
    /// order, and the slot of its counters in [`HwCounters`].
    ///
    /// # Panics
    /// Panics on a `Phase(n)` built around [`PhaseId::new`] with `n` outside
    /// `1..=8`.
    #[inline]
    fn slot(self) -> usize {
        match self {
            PhaseId::Phase(n) => {
                assert!((1..=8).contains(&n), "phase number must be 1..=8, got {n}");
                n as usize - 1
            }
            PhaseId::Other => 8,
        }
    }

    /// The id whose counters live in `slot` (inverse of [`PhaseId::slot`]).
    fn from_slot(slot: usize) -> Self {
        if slot < 8 {
            PhaseId::Phase(slot as u8 + 1)
        } else {
            PhaseId::Other
        }
    }

    /// Display label ("phase 1" … "phase 8", "other").
    pub fn label(self) -> String {
        match self {
            PhaseId::Phase(n) => format!("phase {n}"),
            PhaseId::Other => "other".to_string(),
        }
    }
}

/// Counters accumulated for a single phase (or for the whole run).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseCounters {
    /// Total cycles `ct`.
    pub cycles: f64,
    /// Cycles spent executing vector instructions `cv` (including vector
    /// memory accesses).
    pub vector_cycles: f64,
    /// Total instructions `it`.
    pub instructions: u64,
    /// Vector instructions `iv` (arithmetic + memory + control lane).
    pub vector_instructions: u64,
    /// Vector arithmetic instructions.
    pub vector_arith: u64,
    /// Vector memory instructions.
    pub vector_mem: u64,
    /// Vector control-lane instructions.
    pub vector_control: u64,
    /// Vector-configuration (`vsetvl`) instructions.
    pub vector_config: u64,
    /// Scalar instructions (all classes).
    pub scalar_instructions: u64,
    /// Memory instructions, scalar or vector (used by the Table 6
    /// regression: "percentage of memory instructions").
    pub memory_instructions: u64,
    /// Sum of the VL of every vector instruction (AVL = this / `iv`).
    pub vl_sum: u64,
    /// Floating-point operations executed.
    pub flops: f64,
    /// L1 data-cache misses.
    pub l1_misses: u64,
    /// L2 data-cache misses.
    pub l2_misses: u64,
    /// Bytes moved to/from memory by memory instructions.
    pub bytes: u64,
}

impl PhaseCounters {
    /// Records one issued instruction costing `cycles` and causing the given
    /// cache misses.
    #[inline]
    pub fn record(&mut self, instr: &Instruction, cycles: f64, l1_misses: u64, l2_misses: u64) {
        self.l1_misses += l1_misses;
        self.l2_misses += l2_misses;
        if let Some(mem) = &instr.mem {
            self.bytes += mem.bytes();
        }
        self.record_repeated(instr, cycles, 1);
    }

    /// Records `n` issues of an instruction costing `cycles` each (the part
    /// of [`PhaseCounters::record`] that does not depend on the memory
    /// access).  The integer counters move by `n`; the floating-point ones
    /// receive `n` separate addends, because `n` additions of `cycles` and
    /// one addition of `cycles * n` round differently and every counter must
    /// read what `n` single issues would have left.
    #[inline]
    pub(crate) fn record_repeated(&mut self, instr: &Instruction, cycles: f64, n: u64) {
        let flops = instr.flops();
        let is_vector = instr.class.is_vector();
        // Independent dependency chains in one loop: the adds of the three
        // accumulators overlap.
        let (mut ct, mut cv, mut fl) = (self.cycles, self.vector_cycles, self.flops);
        for _ in 0..n {
            ct += cycles;
            fl += flops;
            if is_vector {
                cv += cycles;
            }
        }
        (self.cycles, self.vector_cycles, self.flops) = (ct, cv, fl);
        self.instructions += n;
        match instr.class {
            InstructionClass::VectorArith => {
                self.vector_instructions += n;
                self.vector_arith += n;
                self.vl_sum += n * instr.vl as u64;
            }
            InstructionClass::VectorMem => {
                self.vector_instructions += n;
                self.vector_mem += n;
                self.memory_instructions += n;
                self.vl_sum += n * instr.vl as u64;
            }
            InstructionClass::VectorControl => {
                self.vector_instructions += n;
                self.vector_control += n;
                self.vl_sum += n * instr.vl as u64;
            }
            InstructionClass::VectorConfig => {
                self.vector_config += n;
                self.scalar_instructions += n;
            }
            InstructionClass::ScalarMem => {
                self.scalar_instructions += n;
                self.memory_instructions += n;
            }
            InstructionClass::ScalarOp | InstructionClass::ScalarFp => {
                self.scalar_instructions += n;
            }
        }
    }

    /// Adds another counter set to this one.
    pub fn merge(&mut self, other: &PhaseCounters) {
        self.cycles += other.cycles;
        self.vector_cycles += other.vector_cycles;
        self.instructions += other.instructions;
        self.vector_instructions += other.vector_instructions;
        self.vector_arith += other.vector_arith;
        self.vector_mem += other.vector_mem;
        self.vector_control += other.vector_control;
        self.vector_config += other.vector_config;
        self.scalar_instructions += other.scalar_instructions;
        self.memory_instructions += other.memory_instructions;
        self.vl_sum += other.vl_sum;
        self.flops += other.flops;
        self.l1_misses += other.l1_misses;
        self.l2_misses += other.l2_misses;
        self.bytes += other.bytes;
    }

    /// Average vector length of the vector instructions (AVL), or 0 when no
    /// vector instruction was executed.
    pub fn avg_vector_length(&self) -> f64 {
        if self.vector_instructions == 0 {
            0.0
        } else {
            self.vl_sum as f64 / self.vector_instructions as f64
        }
    }

    /// Vector instruction mix `Mv = iv / it` (0 when nothing was executed).
    pub fn vector_mix(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.vector_instructions as f64 / self.instructions as f64
        }
    }

    /// Vector activity `Av = cv / ct`.
    pub fn vector_activity(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.vector_cycles / self.cycles
        }
    }

    /// Vector CPI `Cv = cv / iv`.
    pub fn vector_cpi(&self) -> f64 {
        if self.vector_instructions == 0 {
            0.0
        } else {
            self.vector_cycles / self.vector_instructions as f64
        }
    }

    /// Fraction of all instructions that are memory instructions.
    pub fn memory_instruction_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.memory_instructions as f64 / self.instructions as f64
        }
    }

    /// L1 data-cache misses per kilo-instruction (the DCM/kinstr regressor of
    /// Table 6).
    pub fn l1_misses_per_kiloinstruction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l1_misses as f64 * 1000.0 / self.instructions as f64
        }
    }
}

/// The full counter state of a simulated run: one [`PhaseCounters`] per phase
/// plus helpers for totals.
///
/// The nine counter sets live in a fixed array (phase 1 … phase 8, other);
/// a mask remembers which of them were ever handed out by
/// [`HwCounters::phase_mut`].  Only those *touched* phases are listed,
/// summed, merged and compared: a phase that never executed is absent, not
/// present with zeros, and `==` tells the two apart.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HwCounters {
    /// Counters by `PhaseId::slot`; an untouched slot is all zeros.
    phases: [PhaseCounters; PhaseId::COUNT],
    /// Bit `slot` is set once `phase_mut` returned that slot.
    touched: u16,
}

impl HwCounters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable access to the counters of `phase`, creating them if needed.
    #[inline]
    pub fn phase_mut(&mut self, phase: PhaseId) -> &mut PhaseCounters {
        let slot = phase.slot();
        self.touched |= 1 << slot;
        &mut self.phases[slot]
    }

    /// Counters of `phase` (zeros if the phase never executed).
    pub fn phase(&self, phase: PhaseId) -> PhaseCounters {
        self.phases[phase.slot()]
    }

    /// Iterator over the recorded phases in order (phase 1 … phase 8, then
    /// [`PhaseId::Other`]); phases that never executed are skipped.
    pub fn phases(&self) -> impl Iterator<Item = (PhaseId, &PhaseCounters)> {
        self.phases
            .iter()
            .enumerate()
            .filter(|(slot, _)| self.touched & (1 << slot) != 0)
            .map(|(slot, counters)| (PhaseId::from_slot(slot), counters))
    }

    /// Aggregate counters over every phase.
    pub fn total(&self) -> PhaseCounters {
        let mut total = PhaseCounters::default();
        for (_, c) in self.phases() {
            total.merge(c);
        }
        total
    }

    /// Total cycles across all phases.
    pub fn total_cycles(&self) -> f64 {
        self.phases().map(|(_, c)| c.cycles).sum()
    }

    /// Fraction of the total cycles spent in `phase`.
    pub fn phase_cycle_share(&self, phase: PhaseId) -> f64 {
        let total = self.total_cycles();
        if total == 0.0 {
            0.0
        } else {
            self.phase(phase).cycles / total
        }
    }

    /// Merges another counter set (e.g. from a second chunk of elements).
    pub fn merge(&mut self, other: &HwCounters) {
        for (phase, counters) in other.phases() {
            self.phase_mut(phase).merge(counters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instruction, MemAccess, VectorOp};

    #[test]
    fn phase_id_constructors() {
        assert_eq!(PhaseId::new(3).number(), Some(3));
        assert_eq!(PhaseId::Other.number(), None);
        assert_eq!(PhaseId::new(1).label(), "phase 1");
        assert_eq!(PhaseId::Other.label(), "other");
        assert_eq!(PhaseId::ALL.len(), 8);
    }

    #[test]
    #[should_panic]
    fn phase_id_out_of_range() {
        let _ = PhaseId::new(9);
    }

    #[test]
    fn record_vector_arith_updates_vector_counters() {
        let mut c = PhaseCounters::default();
        c.record(&Instruction::vector_arith(VectorOp::Fma, 240), 30.0, 0, 0);
        assert_eq!(c.instructions, 1);
        assert_eq!(c.vector_instructions, 1);
        assert_eq!(c.vector_arith, 1);
        assert_eq!(c.vl_sum, 240);
        assert_eq!(c.flops, 480.0);
        assert_eq!(c.vector_cycles, 30.0);
        assert_eq!(c.cycles, 30.0);
        assert_eq!(c.avg_vector_length(), 240.0);
        assert_eq!(c.vector_mix(), 1.0);
        assert_eq!(c.vector_cpi(), 30.0);
    }

    #[test]
    fn record_scalar_does_not_touch_vector_counters() {
        let mut c = PhaseCounters::default();
        c.record(&Instruction::scalar_op(), 1.0, 0, 0);
        c.record(&Instruction::scalar_fp(VectorOp::Mul), 1.0, 0, 0);
        assert_eq!(c.vector_instructions, 0);
        assert_eq!(c.vector_cycles, 0.0);
        assert_eq!(c.scalar_instructions, 2);
        assert_eq!(c.vector_mix(), 0.0);
        assert_eq!(c.avg_vector_length(), 0.0);
        assert_eq!(c.vector_cpi(), 0.0);
        assert_eq!(c.flops, 1.0);
    }

    #[test]
    fn record_memory_counts_misses_and_bytes() {
        let mut c = PhaseCounters::default();
        let acc = MemAccess::unit_stride(0, 256, 8, false);
        c.record(&Instruction::vector_mem(256, acc), 40.0, 5, 2);
        assert_eq!(c.memory_instructions, 1);
        assert_eq!(c.vector_mem, 1);
        assert_eq!(c.l1_misses, 5);
        assert_eq!(c.l2_misses, 2);
        assert_eq!(c.bytes, 2048);
        assert_eq!(c.memory_instruction_fraction(), 1.0);
        assert!((c.l1_misses_per_kiloinstruction() - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn vector_config_counts_as_scalar_side() {
        let mut c = PhaseCounters::default();
        c.record(&Instruction::vector_config(256), 1.0, 0, 0);
        assert_eq!(c.vector_config, 1);
        assert_eq!(c.vector_instructions, 0, "vsetvl is not a vector instruction in Fig. 1");
        assert_eq!(c.vl_sum, 0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = PhaseCounters::default();
        a.record(&Instruction::vector_arith(VectorOp::Add, 64), 8.0, 1, 0);
        let mut b = PhaseCounters::default();
        b.record(&Instruction::vector_arith(VectorOp::Add, 128), 16.0, 0, 0);
        a.merge(&b);
        assert_eq!(a.vector_instructions, 2);
        assert_eq!(a.vl_sum, 192);
        assert_eq!(a.cycles, 24.0);
        assert_eq!(a.avg_vector_length(), 96.0);
    }

    #[test]
    fn hw_counters_phase_shares_sum_to_one() {
        let mut hw = HwCounters::new();
        for (i, phase) in PhaseId::ALL.iter().enumerate() {
            hw.phase_mut(*phase).record(&Instruction::scalar_op(), (i + 1) as f64, 0, 0);
        }
        let share_sum: f64 = PhaseId::ALL.iter().map(|p| hw.phase_cycle_share(*p)).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
        assert_eq!(hw.total().instructions, 8);
        assert!(hw.phase_cycle_share(PhaseId::new(8)) > hw.phase_cycle_share(PhaseId::new(1)));
    }

    #[test]
    fn hw_counters_merge() {
        let mut a = HwCounters::new();
        a.phase_mut(PhaseId::new(1)).record(&Instruction::scalar_op(), 2.0, 0, 0);
        let mut b = HwCounters::new();
        b.phase_mut(PhaseId::new(1)).record(&Instruction::scalar_op(), 3.0, 0, 0);
        b.phase_mut(PhaseId::new(2)).record(&Instruction::scalar_op(), 5.0, 0, 0);
        a.merge(&b);
        assert_eq!(a.phase(PhaseId::new(1)).cycles, 5.0);
        assert_eq!(a.phase(PhaseId::new(2)).cycles, 5.0);
        assert_eq!(a.total_cycles(), 10.0);
    }

    #[test]
    fn unrecorded_phase_reads_as_zero() {
        let hw = HwCounters::new();
        assert_eq!(hw.phase(PhaseId::new(4)).cycles, 0.0);
        assert_eq!(hw.total_cycles(), 0.0);
        assert_eq!(hw.phase_cycle_share(PhaseId::new(4)), 0.0);
    }

    #[test]
    fn phases_lists_exactly_the_touched_phases_in_order() {
        let mut hw = HwCounters::new();
        assert_eq!(hw.phases().count(), 0);
        // Touched out of order, one of them without recording anything.
        for phase in [PhaseId::Other, PhaseId::new(8), PhaseId::new(2), PhaseId::new(5)] {
            hw.phase_mut(phase).record(&Instruction::scalar_op(), 1.5, 0, 0);
        }
        hw.phase_mut(PhaseId::new(1));
        let listed: Vec<PhaseId> = hw.phases().map(|(p, _)| p).collect();
        assert_eq!(
            listed,
            [PhaseId::new(1), PhaseId::new(2), PhaseId::new(5), PhaseId::new(8), PhaseId::Other]
        );
        let mut sorted = listed.clone();
        sorted.sort();
        assert_eq!(sorted, listed, "the listing follows the `Ord` of `PhaseId`");
        assert_eq!(hw.phases().next().unwrap().1, &PhaseCounters::default());
        assert_eq!(hw.total().instructions, 4);
        assert_eq!(hw.total_cycles(), 6.0);

        // All nine, in the order phase 1 … phase 8, other.
        for phase in PhaseId::ALL {
            hw.phase_mut(phase);
        }
        let all: Vec<PhaseId> = hw.phases().map(|(p, _)| p).collect();
        assert_eq!(all[..8], PhaseId::ALL);
        assert_eq!(all[8], PhaseId::Other);
    }

    #[test]
    fn an_untouched_phase_is_absent_not_zero() {
        // A phase that was handed out but recorded nothing is an entry (as
        // in a map keyed by phase): it makes a difference to `==` and
        // survives `merge`.
        let empty = HwCounters::new();
        let mut touched = HwCounters::new();
        touched.phase_mut(PhaseId::new(3));
        assert_ne!(empty, touched);
        assert_eq!(touched.phase(PhaseId::new(3)), empty.phase(PhaseId::new(3)));

        let mut merged = HwCounters::new();
        merged.merge(&empty);
        assert_eq!(merged, empty);
        merged.merge(&touched);
        assert_eq!(merged, touched);
        assert_eq!(merged.phases().map(|(p, _)| p).collect::<Vec<_>>(), [PhaseId::new(3)]);

        // Merging never lists a phase only the target knows as untouched.
        let mut a = HwCounters::new();
        a.phase_mut(PhaseId::new(7)).record(&Instruction::scalar_op(), 2.0, 0, 0);
        let mut b = touched.clone();
        b.merge(&a);
        assert_eq!(
            b.phases().map(|(p, c)| (p, c.instructions)).collect::<Vec<_>>(),
            [(PhaseId::new(3), 0), (PhaseId::new(7), 1)]
        );
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "phase number must be 1..=8")]
    fn a_phase_number_built_around_new_is_rejected() {
        HwCounters::new().phase_mut(PhaseId::Phase(9));
    }

    #[test]
    fn record_repeated_is_n_records() {
        for instr in [
            Instruction::scalar_op(),
            Instruction::scalar_fp(VectorOp::Fma),
            Instruction::vector_config(64),
            Instruction::vector_arith(VectorOp::Fma, 240),
            Instruction::vector_control(17),
        ] {
            let (mut a, mut b) = (PhaseCounters::default(), PhaseCounters::default());
            a.record_repeated(&instr, 1.4, 23);
            for _ in 0..23 {
                b.record(&instr, 1.4, 0, 0);
            }
            assert_eq!(crate::oracle::counter_bits(&a), crate::oracle::counter_bits(&b));
            assert_ne!(b.cycles, 1.4 * 23.0, "23 additions of 1.4 are not 1.4 * 23");
        }
    }
}
