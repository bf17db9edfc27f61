//! # lv-runtime
//!
//! The shared worker-pool runtime of the reproduction: a persistent thread
//! "team" with a low-latency fork/join dispatch, a team-wide barrier, static
//! range partitioning and a deterministic blocked reduction — the execution
//! substrate both the mesh-colored assembly sweep (`lv-kernel`) and the
//! parallel Krylov subsystem (`lv-solver`) run on.
//!
//! The paper's co-design story is about keeping *every* phase of a CFD time
//! step on the fast path.  PR 2 multi-threaded the assembly with one-off
//! `std::thread::scope` machinery; this crate extracts and generalizes that
//! machinery so a full time step — assembly, boundary conditions, three
//! Krylov solves — shares **one** pool of workers, spawned once per run
//! instead of once per sweep (the OP2 "reusable parallel-execution layer"
//! idea applied to the mini-app).
//!
//! Four building blocks:
//!
//! * [`Team`] — `threads - 1` persistent OS workers plus the calling thread.
//!   [`Team::run`] executes one closure on every rank and returns when all
//!   ranks finished; [`Team::barrier`] synchronizes the ranks *inside* a
//!   running job (the colored sweep separates its colors with it).  Dispatch
//!   is epoch-based with a bounded spin before parking on a condvar, so
//!   back-to-back BLAS-1 sized jobs do not pay a futex round-trip each; the
//!   barrier waits the same way.
//! * [`partition`] — the static contiguous `div_ceil` split every consumer
//!   uses.  The split depends only on `(len, parts)`, never on timing, which
//!   is one half of the determinism story.
//! * [`blocked_reduce`] + [`SharedSliceMut`] — the other half: reductions
//!   are computed per fixed-size block (block boundaries independent of the
//!   thread count) and the block partials are combined in block order on the
//!   caller, so a dot product is **bitwise identical for every thread
//!   count**, including the serial one.
//! * [`lanes`] — how wide one instruction is, decided per host instead of
//!   per build: [`Lanes::selected`] detects AVX2 once per process and
//!   [`multiversion!`] compiles a unit-stride kernel twice from one source
//!   (the build's baseline target features, and an `avx2` clone) with a
//!   dispatcher between them.  A clone performs the baseline's IEEE
//!   operations in the baseline's order on more independent elements per
//!   instruction, so lane count is the fourth mechanism — beside the static
//!   partition, the fixed-block reduction and, in `lv-kernel`, the mesh
//!   coloring — under which a result cannot depend on where it was
//!   computed: not on the thread count, and not on the host's vector width.

#![warn(missing_docs)]

pub mod lanes;
mod reduce;
mod shared;
mod team;

pub use lanes::Lanes;
pub use reduce::{block_range, blocked_reduce, num_blocks, REDUCTION_BLOCK};
pub use shared::SharedSliceMut;
pub use team::Team;

// Telemetry types, re-exported so consumers that already depend on the
// runtime can trace without naming `lv-trace` themselves.
pub use lv_trace::{Trace, TraceConfig};

use std::ops::Range;

/// The static contiguous partition of `0..len` into `parts` shares: share
/// `part` owns `partition(len, parts, part)`.
///
/// Shares are `div_ceil(len, parts)` wide (the trailing ones may be empty),
/// exactly the split the colored assembly sweep has always used.  The
/// partition depends only on the arguments — never on timing — so any
/// computation whose per-element work is order-independent is bitwise
/// reproducible under it.
#[inline]
pub fn partition(len: usize, parts: usize, part: usize) -> Range<usize> {
    let per = len.div_ceil(parts.max(1));
    let lo = (part * per).min(len);
    let hi = ((part + 1) * per).min(len);
    lo..hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_exactly_once() {
        for len in [0usize, 1, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 7, 13] {
                let mut covered = vec![0u32; len];
                for part in 0..parts {
                    for i in partition(len, parts, part) {
                        covered[i] += 1;
                    }
                }
                assert!(covered.iter().all(|&c| c == 1), "len={len} parts={parts}");
            }
        }
    }

    #[test]
    fn partition_is_contiguous_and_ordered() {
        let mut end = 0;
        for part in 0..5 {
            let r = partition(103, 5, part);
            assert_eq!(r.start, end);
            end = r.end;
        }
        assert_eq!(end, 103);
    }

    #[test]
    fn more_parts_than_items_leaves_trailing_parts_empty() {
        let occupied: Vec<Range<usize>> =
            (0..8).map(|p| partition(3, 8, p)).filter(|r| !r.is_empty()).collect();
        assert_eq!(occupied, vec![0..1, 1..2, 2..3]);
    }
}
