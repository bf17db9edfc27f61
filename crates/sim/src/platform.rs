//! Platform descriptions: the hardware parameters of Table 2 plus the timing
//! constants the engine needs.
//!
//! Three vector platforms are modelled after the paper, plus a purely scalar
//! configuration used for the baseline of Table 3 and Figure 11 ("scalar
//! execution with vectorization disabled").

use crate::memory::CacheConfig;
use serde::{Deserialize, Serialize};

/// Identifies one of the modelled machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformKind {
    /// EPI RISC-V vector prototype (Avispado + Vitruvius VPU, RVV 0.7.1).
    RiscvVec,
    /// NEC SX-Aurora TSUBASA VE20B vector engine.
    SxAurora,
    /// MareNostrum 4 node: Intel Xeon Platinum 8160 with AVX-512.
    MareNostrum4,
}

impl PlatformKind {
    /// All modelled platforms, in the order used by Figure 12.
    pub const ALL: [PlatformKind; 3] =
        [PlatformKind::RiscvVec, PlatformKind::SxAurora, PlatformKind::MareNostrum4];

    /// Human-readable platform name as used in the paper.
    pub const fn name(self) -> &'static str {
        match self {
            PlatformKind::RiscvVec => "RISC-V VEC",
            PlatformKind::SxAurora => "NEC SX-Aurora",
            PlatformKind::MareNostrum4 => "MareNostrum 4",
        }
    }
}

/// Full description of a platform: ISA capacity, vector timing, scalar
/// timing, memory system.  All timing quantities are in core clock cycles, so
/// results are frequency independent (the paper reports cycles as well).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    /// Which machine this is.
    pub kind: PlatformKind,
    /// Maximum vector length in double-precision elements
    /// (`vlmax`: 256 for RISC-V VEC and SX-Aurora, 8 for AVX-512).
    pub vlmax: usize,
    /// Number of FPU lanes operating in parallel on a vector instruction
    /// (8 for Vitruvius, 32 for SX-Aurora, 8 for AVX-512).
    pub lanes: usize,
    /// Core frequency in MHz (informational; reported in Table 2).
    pub frequency_mhz: f64,
    /// Sustained memory bandwidth in bytes per cycle (Table 2).
    pub bandwidth_bytes_per_cycle: f64,
    /// Peak floating-point throughput in FLOP per cycle (Table 2).
    pub flops_per_cycle: f64,
    /// Fixed decode/issue/dispatch overhead charged to every vector
    /// arithmetic / control instruction, in cycles.
    pub vector_issue_overhead: f64,
    /// Fixed overhead charged to every vector *memory* instruction, in
    /// cycles: address generation on the scalar core plus dispatch through
    /// the core→VPU memory queue.  On the RISC-V VEC prototype this is large
    /// enough that short-vector memory instructions (the AVL ≈ 4 accesses
    /// produced by the VEC2 refactor) are slower than the scalar loop they
    /// replace — the effect behind Figure 5.
    pub vector_mem_issue_overhead: f64,
    /// Cycles per instruction of the scalar pipeline (amortized; < 1 for the
    /// superscalar Xeon, > 1 for the simple in-order Avispado core).
    pub scalar_cpi: f64,
    /// Extra cycles charged to a scalar memory instruction on top of
    /// `scalar_cpi` when it hits in L1.
    pub scalar_mem_extra: f64,
    /// Granularity (in elements) of the vector FSM: throughput is maximized
    /// when VL is a multiple of this value.  `None` disables the effect.
    /// The Vitruvius FSM processes groups of 8 lanes × 5 sub-steps = 40
    /// elements, which is why VECTOR_SIZE = 240 beats 256 in the paper.
    pub fsm_chunk: Option<usize>,
    /// Relative slowdown applied to the element-throughput of arithmetic
    /// vector instructions whose VL is *not* a multiple of `fsm_chunk`.
    pub fsm_penalty: f64,
    /// Cycles per element for strided vector memory accesses.
    pub strided_cost_per_element: f64,
    /// Cycles per element for indexed (gather/scatter) vector memory
    /// accesses.  Dominates phase 8 and explains the SX-Aurora drop at
    /// VECTOR_SIZE = 512 in Figure 12.
    pub indexed_cost_per_element: f64,
    /// Additional latency (cycles) charged per L1 miss that hits in L2.
    pub l1_miss_penalty: f64,
    /// Additional latency (cycles) charged per L2 miss (to main memory).
    pub l2_miss_penalty: f64,
    /// Fraction of vector memory latency that can be hidden by overlapping
    /// with arithmetic (0 = no overlap, 1 = fully hidden).  The paper notes
    /// the RISC-V VEC pipelines are "not fully overlapped".
    pub mem_overlap: f64,
    /// Cache hierarchy configuration.
    pub cache: CacheConfig,
}

impl Platform {
    /// The EPI RISC-V VEC prototype: a single Avispado in-order scalar core
    /// coupled with the Vitruvius VPU (8 lanes, 16-kbit registers), 1 MB of
    /// L2, running at 50 MHz on the FPGA SDV.
    pub fn riscv_vec() -> Self {
        Platform {
            kind: PlatformKind::RiscvVec,
            vlmax: 256,
            lanes: 8,
            frequency_mhz: 50.0,
            bandwidth_bytes_per_cycle: 64.0,
            flops_per_cycle: 16.0,
            vector_issue_overhead: 6.0,
            vector_mem_issue_overhead: 24.0,
            scalar_cpi: 1.4,
            scalar_mem_extra: 1.0,
            fsm_chunk: Some(40),
            fsm_penalty: 1.09,
            strided_cost_per_element: 0.25,
            indexed_cost_per_element: 0.5,
            l1_miss_penalty: 8.0,
            l2_miss_penalty: 24.0,
            mem_overlap: 0.65,
            cache: CacheConfig::riscv_vec(),
        }
    }

    /// The NEC SX-Aurora VE20B vector engine: 256-element registers, 32
    /// parallel FPU pipes (an FMA over a full register graduates in 8
    /// cycles), very high memory bandwidth.
    pub fn sx_aurora() -> Self {
        Platform {
            kind: PlatformKind::SxAurora,
            vlmax: 256,
            lanes: 32,
            frequency_mhz: 1600.0,
            bandwidth_bytes_per_cycle: 120.0,
            flops_per_cycle: 192.0,
            vector_issue_overhead: 4.0,
            vector_mem_issue_overhead: 12.0,
            scalar_cpi: 1.1,
            scalar_mem_extra: 1.0,
            fsm_chunk: None,
            fsm_penalty: 1.0,
            strided_cost_per_element: 0.25,
            indexed_cost_per_element: 0.9,
            l1_miss_penalty: 12.0,
            l2_miss_penalty: 60.0,
            mem_overlap: 0.6,
            cache: CacheConfig::sx_aurora(),
        }
    }

    /// A MareNostrum 4 core: Intel Xeon Platinum 8160 (Skylake-SP) with
    /// AVX-512 — short 8-element vectors, two FMA ports, deep out-of-order
    /// scalar pipeline.
    pub fn marenostrum4() -> Self {
        Platform {
            kind: PlatformKind::MareNostrum4,
            vlmax: 8,
            lanes: 16, // two 8-wide FMA ports
            frequency_mhz: 2100.0,
            bandwidth_bytes_per_cycle: 11.2,
            flops_per_cycle: 32.0,
            vector_issue_overhead: 0.5,
            vector_mem_issue_overhead: 1.0,
            scalar_cpi: 0.45,
            scalar_mem_extra: 0.5,
            fsm_chunk: None,
            fsm_penalty: 1.0,
            strided_cost_per_element: 0.35,
            indexed_cost_per_element: 0.7,
            l1_miss_penalty: 12.0,
            l2_miss_penalty: 45.0,
            mem_overlap: 0.7,
            cache: CacheConfig::marenostrum4(),
        }
    }

    /// Builds the platform corresponding to a [`PlatformKind`].
    pub fn from_kind(kind: PlatformKind) -> Self {
        match kind {
            PlatformKind::RiscvVec => Self::riscv_vec(),
            PlatformKind::SxAurora => Self::sx_aurora(),
            PlatformKind::MareNostrum4 => Self::marenostrum4(),
        }
    }

    /// Peak double-precision GFLOPS of one core (frequency × FLOP/cycle).
    pub fn peak_gflops(&self) -> f64 {
        self.frequency_mhz * 1e6 * self.flops_per_cycle / 1e9
    }

    /// Effective per-element throughput multiplier for an arithmetic vector
    /// instruction of length `vl`: 1.0 when the FSM is perfectly utilized,
    /// `fsm_penalty` otherwise.
    pub fn fsm_factor(&self, vl: usize) -> f64 {
        match self.fsm_chunk {
            Some(chunk) if vl % chunk != 0 => self.fsm_penalty,
            _ => 1.0,
        }
    }

    /// Execution cycles of an arithmetic vector instruction of length `vl`
    /// (excluding issue overhead): `ceil(vl / lanes)` scaled by the FSM
    /// factor.  For the RISC-V VEC this gives the documented ≈32 cycles for a
    /// 256-element FMA and ≈30 cycles for 240 elements.
    pub fn vector_arith_cycles(&self, vl: usize) -> f64 {
        if vl == 0 {
            return 0.0;
        }
        let chunks = (vl as f64 / self.lanes as f64).ceil();
        chunks * self.fsm_factor(vl)
    }

    /// Execution cycles of a unit-stride vector memory instruction of `vl`
    /// double-precision elements, excluding cache penalties and issue
    /// overhead: bytes moved divided by the sustained bandwidth.
    pub fn vector_unit_stride_cycles(&self, vl: usize) -> f64 {
        (vl as f64 * 8.0) / self.bandwidth_bytes_per_cycle
    }

    /// Execution cycles of a strided vector memory instruction (excluding
    /// cache penalties and issue overhead).
    pub fn vector_strided_cycles(&self, vl: usize) -> f64 {
        self.vector_unit_stride_cycles(vl) + vl as f64 * self.strided_cost_per_element
    }

    /// Execution cycles of an indexed (gather/scatter) vector memory
    /// instruction (excluding cache penalties and issue overhead).
    pub fn vector_indexed_cycles(&self, vl: usize) -> f64 {
        self.vector_unit_stride_cycles(vl) + vl as f64 * self.indexed_cost_per_element
    }

    /// The Table 2 row for this platform, as (label, value) pairs; used by
    /// the `table2_platforms` row of the `paper` bench target.
    pub fn table2_row(&self) -> Vec<(&'static str, String)> {
        vec![
            ("Architecture", self.kind.name().to_string()),
            ("vlmax [DP elements]", self.vlmax.to_string()),
            ("FPU lanes", self.lanes.to_string()),
            ("Frequency [MHz]", format!("{:.0}", self.frequency_mhz)),
            ("Bandwidth [Bytes/cycle]", format!("{:.2}", self.bandwidth_bytes_per_cycle)),
            ("Throughput [FLOP/cycle]", format!("{:.0}", self.flops_per_cycle)),
            ("Peak [GFLOPS/core]", format!("{:.1}", self.peak_gflops())),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_kinds_build() {
        for kind in PlatformKind::ALL {
            let p = Platform::from_kind(kind);
            assert_eq!(p.kind, kind);
            assert!(p.vlmax > 0 && p.lanes > 0);
            assert!(!p.kind.name().is_empty());
        }
    }

    #[test]
    fn riscv_vec_fma_latency_matches_paper() {
        // "one vector FMA takes around 32 cycles with a vector length of 256"
        let p = Platform::riscv_vec();
        let full = p.vector_arith_cycles(256);
        assert!((full - 32.0 * p.fsm_penalty).abs() < 1e-9);
        // ... and fewer cycles with a lower vector length.
        assert!(p.vector_arith_cycles(128) < full);
        assert!(p.vector_arith_cycles(16) < p.vector_arith_cycles(64));
    }

    #[test]
    fn riscv_vec_240_beats_256_per_element() {
        // The FSM sweet spot: per-element cost at VL=240 must be lower than
        // at VL=256 (this is the co-design feedback of Section 7).
        let p = Platform::riscv_vec();
        let per_elem_240 = p.vector_arith_cycles(240) / 240.0;
        let per_elem_256 = p.vector_arith_cycles(256) / 256.0;
        assert!(
            per_elem_240 < per_elem_256,
            "VL=240 ({per_elem_240}) should beat VL=256 ({per_elem_256})"
        );
    }

    #[test]
    fn sx_aurora_fma_latency_matches_paper() {
        // "a vector FMA instruction performs 512 FLOPS and needs 8 cycles"
        let p = Platform::sx_aurora();
        assert!((p.vector_arith_cycles(256) - 8.0).abs() < 1e-9);
        assert_eq!(p.fsm_chunk, None);
    }

    #[test]
    fn mn4_vectors_are_short() {
        let p = Platform::marenostrum4();
        assert_eq!(p.vlmax, 8);
        assert!(p.vector_arith_cycles(8) <= 1.0);
    }

    #[test]
    fn peak_gflops_matches_table2() {
        // RISC-V VEC: 16 GFLOPS at 1 GHz, i.e. 0.8 at the 50 MHz FPGA.
        assert!((Platform::riscv_vec().peak_gflops() - 0.8).abs() < 1e-9);
        // SX-Aurora: 307.2 GFLOPS per core.
        assert!((Platform::sx_aurora().peak_gflops() - 307.2).abs() < 1e-6);
        // MN4: 67.2 GFLOPS per core.
        assert!((Platform::marenostrum4().peak_gflops() - 67.2).abs() < 1e-6);
    }

    #[test]
    fn memory_cost_ordering() {
        // Indexed accesses must never be cheaper than strided, and strided
        // never cheaper than unit-stride, for any platform and VL.
        for kind in PlatformKind::ALL {
            let p = Platform::from_kind(kind);
            for vl in [1, 4, 8, 64, 240, 256] {
                let u = p.vector_unit_stride_cycles(vl);
                let s = p.vector_strided_cycles(vl);
                let i = p.vector_indexed_cycles(vl);
                assert!(u <= s && s <= i, "{kind:?} vl={vl}: {u} {s} {i}");
            }
        }
    }

    #[test]
    fn fsm_factor_only_penalizes_non_multiples() {
        let p = Platform::riscv_vec();
        assert_eq!(p.fsm_factor(240), 1.0);
        assert_eq!(p.fsm_factor(40), 1.0);
        assert_eq!(p.fsm_factor(80), 1.0);
        assert!(p.fsm_factor(256) > 1.0);
        assert!(p.fsm_factor(16) > 1.0);
        let aurora = Platform::sx_aurora();
        assert_eq!(aurora.fsm_factor(256), 1.0);
    }

    #[test]
    fn table2_rows_have_consistent_shape() {
        let rows: Vec<_> =
            PlatformKind::ALL.iter().map(|&k| Platform::from_kind(k).table2_row()).collect();
        for row in &rows {
            assert_eq!(row.len(), rows[0].len());
        }
    }
}
