//! Set-associative cache model producing the L1/L2 data-cache-miss counters
//! the paper uses to explain the behaviour of the non-vectorized phases
//! (Section 5, Table 6).
//!
//! The model is a classic two-level inclusive write-allocate cache with LRU
//! replacement.  It only tracks *which lines are resident*, not their
//! contents — that is all the paper's counters (`mL1`, `mL2`) need.

use crate::isa::{MemAccess, MemPattern};
use serde::{Deserialize, Serialize};

/// Identifies a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CacheLevel {
    /// First-level data cache.
    L1,
    /// Second-level (last-level on the RISC-V prototype) cache.
    L2,
}

/// Geometry of a two-level data-cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Cache line size in bytes (shared by both levels).
    pub line_bytes: usize,
    /// L1 capacity in bytes.
    pub l1_bytes: usize,
    /// L1 associativity (ways).
    pub l1_ways: usize,
    /// L2 capacity in bytes.
    pub l2_bytes: usize,
    /// L2 associativity (ways).
    pub l2_ways: usize,
}

impl CacheConfig {
    /// The RISC-V VEC FPGA prototype: 32 KiB L1D, 1 MiB L2 (Section 2.1.3).
    pub fn riscv_vec() -> Self {
        CacheConfig {
            line_bytes: 64,
            l1_bytes: 32 * 1024,
            l1_ways: 8,
            l2_bytes: 1024 * 1024,
            l2_ways: 16,
        }
    }

    /// NEC SX-Aurora VE20B: large LLC per core pair; modelled as 64 KiB "L1"
    /// (vector data buffer) plus 16 MiB shared LLC slice.
    pub fn sx_aurora() -> Self {
        CacheConfig {
            line_bytes: 128,
            l1_bytes: 64 * 1024,
            l1_ways: 8,
            l2_bytes: 16 * 1024 * 1024,
            l2_ways: 16,
        }
    }

    /// Intel Xeon Platinum 8160 (MareNostrum 4): 32 KiB L1D, 1 MiB L2 per
    /// core.
    pub fn marenostrum4() -> Self {
        CacheConfig {
            line_bytes: 64,
            l1_bytes: 32 * 1024,
            l1_ways: 8,
            l2_bytes: 1024 * 1024,
            l2_ways: 16,
        }
    }

    /// Number of sets of the given level.
    pub fn sets(&self, level: CacheLevel) -> usize {
        let (bytes, ways) = match level {
            CacheLevel::L1 => (self.l1_bytes, self.l1_ways),
            CacheLevel::L2 => (self.l2_bytes, self.l2_ways),
        };
        bytes / (self.line_bytes * ways)
    }
}

/// Result of looking an access up in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessResult {
    /// Distinct cache lines touched by the access.
    pub lines: u64,
    /// Lines that missed in L1.
    pub l1_misses: u64,
    /// Lines that missed in L2 as well.
    pub l2_misses: u64,
}

/// A single set-associative cache level with LRU replacement.
///
/// Each set keeps its resident lines in recency order, most recently used
/// first and empty ways (`u64::MAX`) last, so the order itself is the LRU
/// state: a lookup is one pass that moves the line to the front, and a miss
/// drops whatever falls off the end — an empty way while there is one, the
/// least recently used line otherwise.
#[derive(Debug, Clone)]
struct CacheArray {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `tags[set * ways + rank]`, rank 0 = most recently used.
    tags: Vec<u64>,
}

impl CacheArray {
    fn new(sets: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        CacheArray {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; sets * ways],
        }
    }

    /// Accesses the line `line_addr`; returns `true` on hit.
    #[inline]
    fn access_line(&mut self, line_addr: u64) -> bool {
        let set = (line_addr as usize) & (self.sets - 1);
        // Shift the lines ahead of `line_addr` one rank down while looking
        // for it, so it ends up in front whether it was resident or not.
        let mut moved = line_addr;
        for slot in &mut self.tags[set * self.ways..][..self.ways] {
            moved = std::mem::replace(slot, moved);
            if moved == line_addr {
                return true;
            }
        }
        false
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    fn flush(&mut self) {
        self.tags.fill(u64::MAX);
    }
}

/// Behavioural knobs of the memory model used by the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryModel {
    /// Full two-level cache simulation (default).
    Caches,
    /// Flat memory: every access hits; used by `ablation_cache` to show that
    /// the phase-1/phase-8 VECTOR_SIZE sensitivity comes from the caches.
    Flat,
}

/// Two-level data-cache simulator.
#[derive(Debug, Clone)]
pub struct CacheSim {
    config: CacheConfig,
    model: MemoryModel,
    l1: CacheArray,
    l2: CacheArray,
    l1_accesses: u64,
    l1_misses: u64,
    l2_misses: u64,
}

impl CacheSim {
    /// Creates a cache simulator for `config` with the full cache model.
    pub fn new(config: CacheConfig) -> Self {
        Self::with_model(config, MemoryModel::Caches)
    }

    /// Creates a cache simulator with an explicit [`MemoryModel`].
    pub fn with_model(config: CacheConfig, model: MemoryModel) -> Self {
        let l1 = CacheArray::new(config.sets(CacheLevel::L1), config.l1_ways, config.line_bytes);
        let l2 = CacheArray::new(config.sets(CacheLevel::L2), config.l2_ways, config.line_bytes);
        CacheSim { config, model, l1, l2, l1_accesses: 0, l1_misses: 0, l2_misses: 0 }
    }

    /// The configuration of the hierarchy.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The active memory model.
    pub fn model(&self) -> MemoryModel {
        self.model
    }

    /// Simulates one (scalar or vector) memory access and returns the line /
    /// miss breakdown.
    ///
    /// Consecutive elements on the same line count as a single line access
    /// (what a real vector memory unit coalesces).  An access whose elements
    /// advance by at most one line — a scalar access, or any stride in
    /// `1..=line_bytes` — touches every line from its first element's to its
    /// last element's exactly once and in order, so those lines are visited
    /// directly; indexed accesses and zero, negative or wider strides are
    /// walked element by element.
    #[inline]
    pub fn access(&mut self, mem: &MemAccess) -> AccessResult {
        let mut result = AccessResult::default();
        if mem.count == 0 {
            return result;
        }
        let line_bytes = 1i64 << self.l1.line_shift;
        let contiguous = mem.pattern != MemPattern::Indexed
            && (mem.count == 1 || (0 < mem.stride && mem.stride <= line_bytes));
        if contiguous {
            let first = self.l1.line_of(mem.base);
            let last = self.l1.line_of(mem.element_address(mem.count - 1));
            for line in first..=last {
                self.touch_line(line, &mut result);
            }
        } else {
            let mut last_line = u64::MAX;
            for addr in mem.element_addresses() {
                let line = self.l1.line_of(addr);
                if line != last_line {
                    last_line = line;
                    self.touch_line(line, &mut result);
                }
            }
        }
        self.l1_accesses += result.lines;
        self.l1_misses += result.l1_misses;
        self.l2_misses += result.l2_misses;
        result
    }

    /// One line access: counted for bandwidth purposes under either model,
    /// looked up in the hierarchy only under [`MemoryModel::Caches`] (flat
    /// memory never misses).
    #[inline(always)]
    fn touch_line(&mut self, line: u64, result: &mut AccessResult) {
        result.lines += 1;
        if self.model == MemoryModel::Caches && !self.l1.access_line(line) {
            result.l1_misses += 1;
            if !self.l2.access_line(line) {
                result.l2_misses += 1;
            }
        }
    }

    /// Total line accesses observed at L1.
    pub fn l1_accesses(&self) -> u64 {
        self.l1_accesses
    }

    /// Total L1 misses.
    pub fn l1_misses(&self) -> u64 {
        self.l1_misses
    }

    /// Total L2 misses.
    pub fn l2_misses(&self) -> u64 {
        self.l2_misses
    }

    /// Empties both levels and clears the statistics.
    pub fn reset(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.l1_accesses = 0;
        self.l1_misses = 0;
        self.l2_misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::MemAccess;

    #[test]
    fn config_set_counts_are_powers_of_two() {
        for cfg in [CacheConfig::riscv_vec(), CacheConfig::sx_aurora(), CacheConfig::marenostrum4()]
        {
            assert!(cfg.sets(CacheLevel::L1).is_power_of_two());
            assert!(cfg.sets(CacheLevel::L2).is_power_of_two());
        }
    }

    #[test]
    fn repeated_access_hits_after_first_miss() {
        let mut sim = CacheSim::new(CacheConfig::riscv_vec());
        let acc = MemAccess::unit_stride(0x1000, 8, 8, false);
        let first = sim.access(&acc);
        assert_eq!(first.lines, 1); // 64 bytes fit in one line
        assert_eq!(first.l1_misses, 1);
        assert_eq!(first.l2_misses, 1);
        let second = sim.access(&acc);
        assert_eq!(second.l1_misses, 0);
        assert_eq!(second.l2_misses, 0);
        assert_eq!(sim.l1_misses(), 1);
    }

    #[test]
    fn unit_stride_coalesces_lines() {
        let mut sim = CacheSim::new(CacheConfig::riscv_vec());
        // 256 doubles = 2048 bytes = 32 lines of 64 bytes.
        let acc = MemAccess::unit_stride(0, 256, 8, false);
        let res = sim.access(&acc);
        assert_eq!(res.lines, 32);
    }

    #[test]
    fn indexed_access_touches_scattered_lines() {
        let mut sim = CacheSim::new(CacheConfig::riscv_vec());
        // Indices far apart: each element is its own line.
        let indices: Vec<u32> = (0..16).map(|i| i * 1024).collect();
        let acc = MemAccess::indexed(0, &indices, 8, false);
        let res = sim.access(&acc);
        assert_eq!(res.lines, 16);
        assert_eq!(res.l1_misses, 16);
    }

    #[test]
    fn working_set_larger_than_l1_misses_on_reuse() {
        let mut sim = CacheSim::new(CacheConfig::riscv_vec());
        // Stream 64 KiB (twice the 32 KiB L1), then re-stream it: the second
        // pass must still miss in L1 (capacity) but hit in L2.
        let stream = MemAccess::unit_stride(0, 8192, 8, false);
        sim.access(&stream);
        let second = sim.access(&stream);
        assert!(second.l1_misses > 0, "L1 capacity misses expected");
        assert_eq!(second.l2_misses, 0, "second pass must hit in L2");
    }

    #[test]
    fn working_set_within_l1_fully_hits_on_reuse() {
        let mut sim = CacheSim::new(CacheConfig::riscv_vec());
        let stream = MemAccess::unit_stride(0, 1024, 8, false); // 8 KiB
        sim.access(&stream);
        let second = sim.access(&stream);
        assert_eq!(second.l1_misses, 0);
    }

    #[test]
    fn flat_model_never_misses() {
        let mut sim = CacheSim::with_model(CacheConfig::riscv_vec(), MemoryModel::Flat);
        let stream = MemAccess::unit_stride(0, 1 << 20, 8, false);
        let res = sim.access(&stream);
        assert_eq!(res.l1_misses, 0);
        assert_eq!(res.l2_misses, 0);
        assert!(res.lines > 0);
        assert_eq!(sim.l1_misses(), 0);
    }

    #[test]
    fn reset_clears_state_and_counters() {
        let mut sim = CacheSim::new(CacheConfig::riscv_vec());
        let acc = MemAccess::unit_stride(0, 64, 8, false);
        sim.access(&acc);
        assert!(sim.l1_misses() > 0);
        sim.reset();
        assert_eq!(sim.l1_misses(), 0);
        // After reset the same access misses again (caches are cold).
        let res = sim.access(&acc);
        assert!(res.l1_misses > 0);
    }

    #[test]
    fn conflict_misses_with_power_of_two_stride() {
        // Accessing many addresses that map to the same set must evict.
        let cfg = CacheConfig::riscv_vec();
        let mut sim = CacheSim::new(cfg);
        let set_span = (cfg.l1_bytes / cfg.l1_ways) as u64; // bytes covered per way
                                                            // 2 * ways distinct lines, all in set 0.
        for i in 0..(2 * cfg.l1_ways as u64) {
            let acc = MemAccess::unit_stride(i * set_span, 1, 8, false);
            sim.access(&acc);
        }
        // Re-access the first line: it must have been evicted from L1.
        let res = sim.access(&MemAccess::unit_stride(0, 1, 8, false));
        assert_eq!(res.l1_misses, 1);
        assert_eq!(res.l2_misses, 0, "L2 is big enough to keep it");
    }

    #[test]
    fn both_models_count_the_lines_of_the_element_walk() {
        use crate::oracle::{RefCacheSim, RefMemAccess};
        // Every branch of the walk — contiguous (unit stride, strides below
        // and at the line size, single elements), element by element (zero,
        // negative and wider strides, indexed) — with aligned and unaligned
        // bases and 4- and 8-byte elements: the flat and the cached model
        // report the lines the reference element walk counts, and so does
        // `l1_accesses`.
        let lanes: Vec<u32> = (0..97u32).map(|i| (i * 29) % 61 + (i % 3) * 500).collect();
        for cfg in [CacheConfig::riscv_vec(), CacheConfig::sx_aurora()] {
            let line = cfg.line_bytes as i64;
            let mut flat = CacheSim::with_model(cfg, MemoryModel::Flat);
            let mut cached = CacheSim::with_model(cfg, MemoryModel::Caches);
            let mut reference = RefCacheSim::new(cfg, MemoryModel::Caches);
            for elem_bytes in [4u32, 8] {
                for base in [0x4000u64, 0x4003, 0x403c, 0x7fff] {
                    let eb = elem_bytes as i64;
                    let strides = [eb, eb + 4, line - 4, line, line + 8, 3 * line, 0, -eb, -line];
                    for count in [1usize, 2, 97] {
                        let mut accesses = vec![
                            MemAccess::unit_stride(base, count, elem_bytes, false),
                            MemAccess::indexed(base, &lanes[..count], elem_bytes, true),
                        ];
                        for stride in strides {
                            // Far enough up that a descending access stays positive.
                            let base = base + 97 * 3 * line as u64;
                            accesses
                                .push(MemAccess::strided(base, stride, count, elem_bytes, false));
                        }
                        for acc in &accesses {
                            let want = reference.access(&RefMemAccess::of(acc));
                            let got = cached.access(acc);
                            assert_eq!(got, want, "{acc:?}");
                            assert_eq!(flat.access(acc).lines, want.lines, "{acc:?}");
                            assert_eq!(flat.l1_accesses(), cached.l1_accesses());
                        }
                    }
                }
            }
            assert_eq!(flat.l1_misses() + flat.l2_misses(), 0);
            assert_eq!(cached.l1_accesses(), reference.l1_accesses);
            assert_eq!(cached.l1_misses(), reference.l1_misses);
            assert_eq!(cached.l2_misses(), reference.l2_misses);
        }
    }

    #[test]
    fn line_counts_of_hand_checked_accesses() {
        let mut sim = CacheSim::with_model(CacheConfig::riscv_vec(), MemoryModel::Flat);
        let mut lines = |acc: MemAccess| sim.access(&acc).lines;
        // 30 doubles from 4 bytes before a line boundary: bytes 60..300.
        assert_eq!(lines(MemAccess::unit_stride(60, 30, 8, false)), 5);
        // 240 doubles = 1920 bytes = 30 lines when aligned, 31 when not.
        assert_eq!(lines(MemAccess::unit_stride(0x1000, 240, 8, false)), 30);
        assert_eq!(lines(MemAccess::unit_stride(0x1008, 240, 8, false)), 31);
        // A straddling element counts for the line of its first byte only.
        assert_eq!(lines(MemAccess::unit_stride(60, 1, 8, false)), 1);
        // Stride = line: one line per element; stride 0: one line in all.
        assert_eq!(lines(MemAccess::strided(0, 64, 10, 8, false)), 10);
        assert_eq!(lines(MemAccess::strided(0, 0, 10, 8, false)), 1);
        // Descending by 16 bytes from 1024: 10 elements reach down to 880.
        assert_eq!(lines(MemAccess::strided(1024, -16, 10, 8, false)), 4);
        // Indexed: consecutive lanes on one line coalesce, a return does not.
        assert_eq!(lines(MemAccess::indexed(0, &[0, 1, 8, 9, 0], 8, false)), 3);
        assert_eq!(lines(MemAccess::unit_stride(0, 0, 8, false)), 0);
    }
}
