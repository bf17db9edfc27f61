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
//!   is one half of the determinism story.  [`for_each_share`] is the one
//!   way a rank gets mutable output: the output is cut into the partition's
//!   shares with `split_at_mut` before the dispatch and each rank is handed
//!   its own, so the borrow checker — not an `unsafe` contract — proves that
//!   no row is written by two ranks.
//! * [`blocked_reduce`] — the other half: reductions are computed per
//!   fixed-size block (block boundaries independent of the thread count) and
//!   the block partials are combined in block order on the caller, so a dot
//!   product is **bitwise identical for every thread count**, including the
//!   serial one.
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
mod team;

pub use lanes::Lanes;
pub use reduce::{block_range, blocked_reduce, num_blocks, REDUCTION_BLOCK};
pub use team::Team;

// Telemetry types, re-exported so consumers that already depend on the
// runtime can trace without naming `lv-trace` themselves.
pub use lv_trace::{Trace, TraceConfig};

use std::ops::Range;
use std::sync::Mutex;

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

/// An output that can be cut into the row shares of a static partition: a
/// mutable slice, an array of them (several columns) or a pair (`x` and
/// `b`, `div` and `rhs`).
///
/// A slice holding `k` entries per row hands each share `k` entries per row
/// of its range: one for a vector or a per-rank item, `NDIME` for a nodal
/// vector field, `W` for the partials of a `W`-wide reduction block, one per
/// diagonal for a `DiaMatrix`'s value array.
pub trait Share: Send + Sized {
    /// Cuts the first `rows` of the `held` rows this output holds off its
    /// front and returns them.
    ///
    /// # Panics
    /// Panics if a slice does not hold a whole number of entries per row.
    fn split_rows(&mut self, rows: usize, held: usize) -> Self;
}

impl<T: Send> Share for &mut [T] {
    fn split_rows(&mut self, rows: usize, held: usize) -> Self {
        let per_row = self.len().checked_div(held).unwrap_or(0);
        assert_eq!(self.len(), per_row * held, "a share output must hold whole rows");
        let (front, back) = std::mem::take(self).split_at_mut(rows * per_row);
        *self = back;
        front
    }
}

impl<S: Share, const W: usize> Share for [S; W] {
    fn split_rows(&mut self, rows: usize, held: usize) -> Self {
        std::array::from_fn(|c| self[c].split_rows(rows, held))
    }
}

impl<A: Share, B: Share> Share for (A, B) {
    fn split_rows(&mut self, rows: usize, held: usize) -> Self {
        (self.0.split_rows(rows, held), self.1.split_rows(rows, held))
    }
}

/// Runs `body(range, share)` with each rank's own rows of `out`, which holds
/// `rows` rows: across `team`, or once on the caller with `0..rows` and the
/// whole of `out` — no dispatch, no allocation — when there is no team or
/// it has one thread (a caller below its serial cutoff passes `None`).
///
/// `out` is cut into the shares before the dispatch and every rank is
/// handed its own, so no two ranks can reach the same row.  Shares are
/// `granule`-rounded: rank `r` owns rows `r·w..(r+1)·w` (clamped to `rows`)
/// with `w = ⌈⌈rows / granule⌉ / threads⌉ · granule`, so with `granule` 1
/// they are exactly [`partition`]`(rows, threads, r)` and otherwise whole
/// granules (a `DiaMatrix`'s storage blocks).  Every rank runs `body`, a
/// rank past the last row with an empty range and share, so a body may
/// stage its work with [`Team::barrier`].
///
/// # Panics
/// Panics if `granule` is 0, or like [`Share::split_rows`].
pub fn for_each_share<S: Share>(
    team: Option<&Team>,
    rows: usize,
    granule: usize,
    mut out: S,
    body: impl Fn(Range<usize>, S) + Sync,
) {
    assert!(granule > 0, "a share granule holds at least one row");
    let Some(team) = team.filter(|team| team.num_threads() > 1) else {
        return body(0..rows, out);
    };
    let threads = team.num_threads();
    let width = rows.div_ceil(granule).div_ceil(threads) * granule;
    let shares: Vec<_> = (0..threads)
        .map(|rank| {
            let range = (rank * width).min(rows)..((rank + 1) * width).min(rows);
            let share = out.split_rows(range.len(), rows - range.start);
            Mutex::new(Some((range, share)))
        })
        .collect();
    team.run(&|rank| {
        // Each lock is taken once, by its own rank: never contended.
        let taken = shares[rank].lock().expect("no body runs under a share lock").take();
        let (range, share) = taken.expect("one share per rank");
        body(range, share);
    });
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

    /// Runs [`for_each_share`] on a team of `threads` over `n` rows of a
    /// pair — an index column and a two-entry-per-row column — and returns
    /// the ranges the ranks received, in rank order of their starts, after
    /// checking that every row was written once, by the rank that owns it.
    fn shares_of(n: usize, threads: usize, granule: usize) -> Vec<Range<usize>> {
        let team = Team::new(threads);
        let mut index = vec![usize::MAX; n];
        let mut pairs = vec![0u32; 2 * n];
        let ranges = Mutex::new(Vec::new());
        for_each_share(Some(&team), n, granule, (&mut index[..], &mut pairs[..]), |rows, share| {
            let (index, pairs) = share;
            assert_eq!(index.len(), rows.len());
            assert_eq!(pairs.len(), 2 * rows.len());
            for (slot, row) in index.iter_mut().zip(rows.clone()) {
                assert_eq!(*slot, usize::MAX, "row {row} handed out twice");
                *slot = row;
            }
            pairs.iter_mut().for_each(|p| *p += 1);
            ranges.lock().unwrap().push(rows);
        });
        assert_eq!(index, (0..n).collect::<Vec<_>>(), "n={n} threads={threads}");
        assert!(pairs.iter().all(|&p| p == 1), "n={n} threads={threads}");
        let mut ranges = ranges.into_inner().unwrap();
        assert_eq!(ranges.len(), threads, "every rank runs the body once");
        ranges.sort_by_key(|r| (r.start, r.end));
        ranges
    }

    #[test]
    fn shares_tile_the_rows_exactly_once_in_partition_order() {
        for n in [0usize, 1, 7, 1000, 4 * REDUCTION_BLOCK + 3] {
            for threads in [1usize, 2, 3, 4, 7] {
                // Rank order is start order: the partition ascends.
                let expect: Vec<_> = (0..threads).map(|r| partition(n, threads, r)).collect();
                assert_eq!(shares_of(n, threads, 1), expect, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn a_granule_rounded_share_holds_whole_granules() {
        for (n, threads) in [(1000usize, 3usize), (1100, 2), (1100, 7), (255, 4)] {
            let ranges = shares_of(n, threads, 256);
            let width = n.div_ceil(256).div_ceil(threads) * 256;
            for range in ranges.iter().filter(|r| !r.is_empty()) {
                assert_eq!(range.start % 256, 0, "n={n} threads={threads}: {range:?}");
                assert!(range.len() == width || range.end == n, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn the_serial_path_receives_the_whole_output() {
        let one = Team::new(1);
        for team in [None, Some(&one)] {
            let mut data = vec![0.0f64; 37];
            let (addr, len) = (data.as_ptr().addr(), data.len());
            let calls = std::sync::atomic::AtomicUsize::new(0);
            for_each_share(team, 37, 1, [&mut data[..]], |rows, [share]| {
                assert_eq!(rows, 0..37);
                assert_eq!((share.as_ptr().addr(), share.len()), (addr, len));
                calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
            assert_eq!(calls.into_inner(), 1);
        }
    }
}
