//! The simulated instruction set, following the instruction hierarchy of
//! Figure 1 of the paper: instructions are **scalar**, **vector
//! configuration** (`vsetvl`-style) or **vector**, and vector instructions
//! subdivide into **arithmetic**, **memory** and **control-lane**
//! instructions.

use serde::{Deserialize, Serialize};

/// Kind of arithmetic performed by a vector arithmetic instruction.
///
/// The distinction matters only for FLOP accounting (an FMA counts as two
/// floating-point operations per element); all arithmetic instructions share
/// the same lane-throughput timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VectorOp {
    /// Vector addition / subtraction.
    Add,
    /// Vector multiplication.
    Mul,
    /// Fused multiply-add (2 FLOP per element).
    Fma,
    /// Division or square root (counted as one FLOP per element; the timing
    /// model charges a throughput penalty).
    Div,
    /// Comparison / min / max / select.
    Cmp,
}

impl VectorOp {
    /// Floating-point operations per element for this operation.
    pub const fn flops_per_element(self) -> f64 {
        match self {
            VectorOp::Fma => 2.0,
            VectorOp::Add | VectorOp::Mul | VectorOp::Div | VectorOp::Cmp => 1.0,
        }
    }

    /// Relative throughput cost versus an FMA (divisions are far slower on
    /// every modelled machine).
    pub const fn throughput_factor(self) -> f64 {
        match self {
            VectorOp::Div => 4.0,
            _ => 1.0,
        }
    }
}

/// Memory access pattern of a (scalar or vector) memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemPattern {
    /// Consecutive addresses (one element after another).
    UnitStride,
    /// Constant non-unit stride between elements.
    Strided,
    /// Indexed / gather-scatter: each element carries its own address
    /// (the access pattern of phases 1, 2 and 8 through `lnods`).
    Indexed,
}

/// Description of the memory touched by a memory instruction, used by the
/// cache model.  Addresses are byte addresses in a flat simulated address
/// space; the kernel crate assigns each global array a distinct base address.
///
/// The descriptor is `Copy` and owns nothing: an indexed access borrows its
/// lane indices from the caller (the code generator keeps one buffer for
/// every gather it emits), so building and issuing a memory instruction never
/// allocates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MemAccess<'a> {
    /// Access pattern.
    pub pattern: MemPattern,
    /// Whether the access is a store (`true`) or a load (`false`).
    pub is_store: bool,
    /// Base byte address of the first element.
    pub base: u64,
    /// Byte stride between consecutive elements (8 for unit-stride
    /// double-precision accesses).
    pub stride: i64,
    /// Number of elements accessed (the VL of a vector access, 1 for scalar).
    pub count: usize,
    /// Size of each element in bytes.
    pub elem_bytes: u32,
    /// Explicit element offsets (in elements, relative to `base`) for indexed
    /// accesses.  Empty for unit-stride/strided accesses.
    pub indices: &'a [u32],
}

impl<'a> MemAccess<'a> {
    /// A unit-stride access of `count` elements of `elem_bytes` bytes.
    #[inline]
    pub fn unit_stride(base: u64, count: usize, elem_bytes: u32, is_store: bool) -> Self {
        MemAccess {
            pattern: MemPattern::UnitStride,
            is_store,
            base,
            stride: elem_bytes as i64,
            count,
            elem_bytes,
            indices: &[],
        }
    }

    /// A strided access (`stride` in bytes between consecutive elements).
    #[inline]
    pub fn strided(base: u64, stride: i64, count: usize, elem_bytes: u32, is_store: bool) -> Self {
        MemAccess {
            pattern: MemPattern::Strided,
            is_store,
            base,
            stride,
            count,
            elem_bytes,
            indices: &[],
        }
    }

    /// An indexed (gather/scatter) access: element `i` touches
    /// `base + indices[i] * elem_bytes`.
    #[inline]
    pub fn indexed(base: u64, indices: &'a [u32], elem_bytes: u32, is_store: bool) -> Self {
        MemAccess {
            pattern: MemPattern::Indexed,
            is_store,
            base,
            stride: 0,
            count: indices.len(),
            elem_bytes,
            indices,
        }
    }

    /// Byte address of element `i` (`i < count`).
    #[inline]
    pub fn element_address(&self, i: usize) -> u64 {
        match self.pattern {
            MemPattern::Indexed => self.base + self.indices[i] as u64 * self.elem_bytes as u64,
            _ => (self.base as i64 + i as i64 * self.stride) as u64,
        }
    }

    /// Iterates over the byte address of each accessed element.
    pub fn element_addresses(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.count).map(move |i| self.element_address(i))
    }

    /// Total bytes moved by the access.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.count as u64 * self.elem_bytes as u64
    }
}

/// Coarse class of an instruction (the hierarchy of Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum InstructionClass {
    /// Scalar integer/address arithmetic or branch.
    ScalarOp,
    /// Scalar floating-point arithmetic.
    ScalarFp,
    /// Scalar load or store.
    ScalarMem,
    /// Vector configuration (`vsetvl`): sets the VL/element width of the
    /// following vector instructions.
    VectorConfig,
    /// Vector arithmetic executed on the VPU.
    VectorArith,
    /// Vector memory access executed on the VPU.
    VectorMem,
    /// Vector control-lane instruction (moves, shifts, sign extensions —
    /// no arithmetic result and no memory traffic).
    VectorControl,
}

impl InstructionClass {
    /// Whether this class executes on the vector unit (i.e. counts towards
    /// `iv` and `cv` in the metrics of Section 2.2).
    pub const fn is_vector(self) -> bool {
        matches!(
            self,
            InstructionClass::VectorArith
                | InstructionClass::VectorMem
                | InstructionClass::VectorControl
        )
    }

    /// Whether this class is a memory instruction (scalar or vector).
    pub const fn is_memory(self) -> bool {
        matches!(self, InstructionClass::ScalarMem | InstructionClass::VectorMem)
    }

    /// Short label used in traces and figures.
    pub const fn label(self) -> &'static str {
        match self {
            InstructionClass::ScalarOp => "scalar",
            InstructionClass::ScalarFp => "scalar-fp",
            InstructionClass::ScalarMem => "scalar-mem",
            InstructionClass::VectorConfig => "vconfig",
            InstructionClass::VectorArith => "varith",
            InstructionClass::VectorMem => "vmem",
            InstructionClass::VectorControl => "vctrl",
        }
    }
}

/// One simulated instruction.
///
/// Construction helpers cover every case the kernel and compiler crates emit.
/// An instruction is a small `Copy` value that owns nothing (see
/// [`MemAccess`]), so the emitters build one per issue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Instruction<'a> {
    /// Coarse class.
    pub class: InstructionClass,
    /// Arithmetic operation (for `ScalarFp` and `VectorArith`).
    pub op: Option<VectorOp>,
    /// Vector length in elements (0 for scalar instructions; 1…vlmax for
    /// vector instructions).
    pub vl: usize,
    /// Memory access descriptor (for `ScalarMem` and `VectorMem`).
    pub mem: Option<MemAccess<'a>>,
}

impl<'a> Instruction<'a> {
    /// A scalar integer/branch instruction.
    #[inline]
    pub fn scalar_op() -> Self {
        Instruction { class: InstructionClass::ScalarOp, op: None, vl: 0, mem: None }
    }

    /// A scalar floating-point instruction.
    #[inline]
    pub fn scalar_fp(op: VectorOp) -> Self {
        Instruction { class: InstructionClass::ScalarFp, op: Some(op), vl: 0, mem: None }
    }

    /// A scalar memory instruction touching `mem`.
    #[inline]
    pub fn scalar_mem(mem: MemAccess<'a>) -> Self {
        Instruction { class: InstructionClass::ScalarMem, op: None, vl: 0, mem: Some(mem) }
    }

    /// A vector-configuration (`vsetvl`) instruction establishing `vl`.
    #[inline]
    pub fn vector_config(vl: usize) -> Self {
        Instruction { class: InstructionClass::VectorConfig, op: None, vl, mem: None }
    }

    /// A vector arithmetic instruction of length `vl`.
    #[inline]
    pub fn vector_arith(op: VectorOp, vl: usize) -> Self {
        Instruction { class: InstructionClass::VectorArith, op: Some(op), vl, mem: None }
    }

    /// A vector memory instruction of length `vl` touching `mem`.
    #[inline]
    pub fn vector_mem(vl: usize, mem: MemAccess<'a>) -> Self {
        Instruction { class: InstructionClass::VectorMem, op: None, vl, mem: Some(mem) }
    }

    /// A vector control-lane instruction (register move / shuffle) of length
    /// `vl`.
    #[inline]
    pub fn vector_control(vl: usize) -> Self {
        Instruction { class: InstructionClass::VectorControl, op: None, vl, mem: None }
    }

    /// Floating-point operations performed by this instruction.
    #[inline]
    pub fn flops(&self) -> f64 {
        match (self.class, self.op) {
            (InstructionClass::VectorArith, Some(op)) => op.flops_per_element() * self.vl as f64,
            (InstructionClass::ScalarFp, Some(op)) => op.flops_per_element(),
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_predicates() {
        assert!(InstructionClass::VectorArith.is_vector());
        assert!(InstructionClass::VectorMem.is_vector());
        assert!(InstructionClass::VectorControl.is_vector());
        assert!(!InstructionClass::VectorConfig.is_vector());
        assert!(!InstructionClass::ScalarOp.is_vector());
        assert!(InstructionClass::ScalarMem.is_memory());
        assert!(InstructionClass::VectorMem.is_memory());
        assert!(!InstructionClass::VectorArith.is_memory());
    }

    #[test]
    fn flop_accounting() {
        assert_eq!(Instruction::vector_arith(VectorOp::Fma, 256).flops(), 512.0);
        assert_eq!(Instruction::vector_arith(VectorOp::Add, 240).flops(), 240.0);
        assert_eq!(Instruction::scalar_fp(VectorOp::Fma).flops(), 2.0);
        assert_eq!(Instruction::scalar_op().flops(), 0.0);
        assert_eq!(Instruction::vector_config(256).flops(), 0.0);
    }

    #[test]
    fn unit_stride_addresses() {
        let m = MemAccess::unit_stride(1000, 4, 8, false);
        let addrs: Vec<u64> = m.element_addresses().collect();
        assert_eq!(addrs, vec![1000, 1008, 1016, 1024]);
        assert_eq!(m.bytes(), 32);
    }

    #[test]
    fn strided_addresses() {
        let m = MemAccess::strided(0, 24, 3, 8, true);
        let addrs: Vec<u64> = m.element_addresses().collect();
        assert_eq!(addrs, vec![0, 24, 48]);
        assert!(m.is_store);
    }

    #[test]
    fn indexed_addresses() {
        let m = MemAccess::indexed(100, &[0, 10, 3], 8, false);
        let addrs: Vec<u64> = m.element_addresses().collect();
        assert_eq!(addrs, vec![100, 180, 124]);
        assert_eq!(m.count, 3);
        assert_eq!(m.pattern, MemPattern::Indexed);
    }

    #[test]
    fn vector_op_properties() {
        assert_eq!(VectorOp::Fma.flops_per_element(), 2.0);
        assert_eq!(VectorOp::Add.flops_per_element(), 1.0);
        assert!(VectorOp::Div.throughput_factor() > VectorOp::Mul.throughput_factor());
    }

    #[test]
    fn labels_are_distinct() {
        use std::collections::HashSet;
        let labels: HashSet<_> = [
            InstructionClass::ScalarOp,
            InstructionClass::ScalarFp,
            InstructionClass::ScalarMem,
            InstructionClass::VectorConfig,
            InstructionClass::VectorArith,
            InstructionClass::VectorMem,
            InstructionClass::VectorControl,
        ]
        .iter()
        .map(|c| c.label())
        .collect();
        assert_eq!(labels.len(), 7);
    }
}
