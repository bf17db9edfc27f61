//! Row-class storage for lattice operators whose rows repeat: the stencil of
//! a uniform box, stored once per *distinct* row instead of once per row.
//!
//! A [`DiaMatrix`] level streams every coefficient of every row on every
//! traversal — 3.9 MB of `f32` at 33³ nodes, six times per
//! V-cycle.  On a uniform lattice those rows are, in the cycle's `f32`, a few
//! dozen stencils: one per position class of the box (corner / edge / face /
//! interior in each direction, 27 of them) plus the handful a pressure pin
//! disturbs.  [`RowClasses`] stores exactly that:
//!
//! * a **table** of at most [`MAX_CLASSES`] classes, each the
//!   `(col − row, coefficient)` *taps* of one distinct row in ascending
//!   offset order, and
//! * the **runs** `(start, len, class)` of consecutive rows that share a
//!   class — at 33³ nodes 3 267 of them, ~40 KB with the table, against the
//!   3.9 MB of diagonals it replaces.
//!
//! **What a class keeps.**  An entry is rounded to `T` once and kept unless
//! it is an exact zero or smaller than `T`'s epsilon times the row's own
//! diagonal entry `|a_ii|`.  The second rule is what makes a uniform lattice
//! classify: the trilinear Laplacian couples face neighbours with an exact
//! `0`, which quadrature leaves as noise of ~1e-20 beside a diagonal of
//! ~1e-1.  Integrated element by element (a jittered box) that noise is
//! different in every row, and in `f64` no two rows agree; an unjittered
//! box takes `K` from one reference element as position-class stencils, so
//! its noise is one value per class, and its pinned `f64` level 0 has 34
//! exact classes (27 positions and the seven neighbours of the pin, whose
//! coupling to it was zeroed) and its Galerkin levels at most 34 keys
//! (`multigrid::galerkin_on_lattices` computes them once per key).  In
//! the cycle's `f32` the rule drops the noise and a level of the cavity has
//! 31 classes.  Taps are stored entries, so no tap of any row of a run
//! ever points outside the matrix.
//!
//! **Same bits as the diagonals.**  A row sums its taps in ascending offset
//! order from `+0.0` — the order and the start of the `DiaMatrix` kernels —
//! and a dropped entry there contributes `0·x = ±0.0`, which leaves a sum
//! that started at `+0.0` unchanged.  So for finite `x`
//! [`jacobi_range`](RowClasses::jacobi_range) and
//! [`residual_range`](RowClasses::residual_range) are `to_bits` equal to the
//! `DiaMatrix<T>` kernels of the same names on [`flushed`] — the matrix with
//! the dropped entries zeroed — for every row range and both lane widths.
//! Against the *unflushed* diagonals a result could move only where a term
//! below `ε·|a_ii|·|x|` tips a rounding; on the 33³ cavity no row of a sweep
//! does.
//!
//! **The vector length is the run length.**  Per run the taps are broadcast
//! and the rows go through in unit-stride windows of 16 and 8 — two windows
//! to a pass over the taps wherever the run holds two, so a coefficient is
//! fetched and an index checked once for both — the last window of a run
//! overlapping its predecessor (the sweep writes a second vector, so
//! recomputing a row rewrites the same bits); a run — or the part of one a
//! row range leaves — shorter than 8 goes row by row.  Both kernels are
//! written once and multiversioned with [`lv_runtime::multiversion!`] like
//! the diagonal ones: a window of 16 `f32` is four SSE2 or two AVX2
//! registers.  On a machine with longer vectors the kernel would not change
//! but the *row order* would have to: an x-line of a 33³ box gives runs of
//! 31, which is all the vector length this storage can offer.
//!
//! **When it pays.**  Classes win where the diagonals do not fit in cache
//! and the runs are long; on a small level the diagonals are cache-resident
//! and a run of 7 is one overlapped window per 7 rows.
//! [`from_dia_with_long_runs`](RowClasses::from_dia_with_long_runs) — what a
//! multigrid level asks — therefore answers `None` unless at least half the
//! rows lie in runs of [`LONG_RUN`] rows or more.
//!
//! **Built from the diagonals, in two passes.**  First the runs: block by
//! block and diagonal by diagonal — unit stride, the layout's own order —
//! every value is rounded and flushed and compared with the row above, and a
//! row that differs anywhere starts a run; the run rule is settled here,
//! block by block, as soon as the short runs hold a majority of the rows
//! (9 µs on the 729-row level a fleet job rebuilds every slice, 1.1 ms on
//! the 35 937-row one that passes).  Then, only for a matrix that
//! qualifies, the table: the first row of each run is compared, entry by
//! entry, with the classes found so far.  No hashing anywhere — rows share a
//! class only if every kept entry agrees in every bit.

use crate::csr::CsrMatrix;
use crate::dia::{disjoint, DiaMatrix, Scalar, BLOCK_ROWS, MAX_DIAGONALS};
use std::ops::Range;

/// Most classes a [`RowClasses`] table holds (a run names its class in one
/// byte); a matrix with more distinct rows does not repeat enough to pay.
pub const MAX_CLASSES: usize = 255;

/// Rows a run needs to count as long: one full window of the kernels.
pub const LONG_RUN: usize = 16;

// The two window widths of the kernels, in rows.
const WIDE: usize = 16;
const NARROW: usize = 8;

/// One tap of a class: the `col − row` offset and the coefficient.
type Tap<T> = (isize, T);

/// `len` consecutive rows from `start` that all carry the taps of `class`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    start: u32,
    len: u32,
    class: u8,
}

impl Run {
    #[inline(always)]
    fn rows(&self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A square sparse matrix as a table of distinct rows and the runs of rows
/// that carry them, stored and applied in the scalar `T`.
#[derive(Debug, Clone, PartialEq)]
pub struct RowClasses<T: Scalar> {
    n: usize,
    // Class `c` is `taps[class_ptr[c]..class_ptr[c + 1]]`, offsets strictly
    // ascending, no coefficient a zero.
    class_ptr: Vec<usize>,
    taps: Vec<Tap<T>>,
    // Ascending and contiguous: they tile `0..n`, and for every row of a run
    // and every tap of its class `row + offset` lies in `0..n`.
    runs: Vec<Run>,
}

/// The smallest magnitude a class keeps in a row whose diagonal entry is
/// `diagonal`: `T`'s epsilon relative to it, with the entry rounded to `T`.
#[inline(always)]
fn threshold<T: Scalar>(diagonal: f64) -> f64 {
    T::EPSILON * T::from_f64(diagonal).to_f64().abs()
}

/// `value` rounded to `T` as a class sees it in a row with that
/// [`threshold`]: itself, or `+0.0` when it lies below the threshold.  What
/// comes out is a tap unless it is a zero (a NaN is below nothing and stays).
#[inline(always)]
fn kept<T: Scalar>(value: f64, threshold: f64) -> T {
    let value = T::from_f64(value);
    if value.to_f64().abs() < threshold {
        T::ZERO
    } else {
        value
    }
}

/// `matrix` as a [`RowClasses<T>`] sees it: every entry a class leaves out
/// (see the module docs) set to `+0.0`, the others untouched.  The class
/// kernels carry the bits of the `DiaMatrix<T>` kernels on this matrix.
pub fn flushed<T: Scalar>(matrix: &CsrMatrix) -> CsrMatrix {
    let mut flushed = matrix.clone();
    let diagonal = matrix.diagonal();
    let (row_ptr, _, values) = flushed.pattern_and_values_mut();
    for (row, entries) in row_ptr.windows(2).enumerate() {
        let threshold = threshold::<T>(diagonal[row]);
        for value in &mut values[entries[0]..entries[1]] {
            if kept::<T>(*value, threshold) == T::ZERO {
                *value = 0.0;
            }
        }
    }
    flushed
}

impl<T: Scalar> RowClasses<T> {
    /// Converts `matrix` — its values rounded to `T`, whatever it stores —
    /// or returns `None` when it has more than [`MAX_CLASSES`] distinct rows
    /// or no rows at all.
    pub fn from_dia<U: Scalar>(matrix: &DiaMatrix<U>) -> Option<RowClasses<T>> {
        Self::build(matrix, false)
    }

    /// [`from_dia`](Self::from_dia) for a matrix the storage pays on: `None`
    /// also when fewer than half the rows lie in runs of at least
    /// [`LONG_RUN`] rows — decided in the pass that finds the runs, as soon
    /// as the short ones hold a majority, before any table is built.
    pub fn from_dia_with_long_runs<U: Scalar>(matrix: &DiaMatrix<U>) -> Option<RowClasses<T>> {
        Self::build(matrix, true)
    }

    fn build<U: Scalar>(matrix: &DiaMatrix<U>, long_runs: bool) -> Option<RowClasses<T>> {
        let n = matrix.dim();
        if n == 0 || u32::try_from(n).is_err() {
            return None;
        }
        let diagonal = matrix.offsets().binary_search(&0).ok();

        // First pass, the runs: a row either repeats its predecessor or
        // starts a run.  Block by block and diagonal by diagonal — unit
        // stride, like everything else that reads this layout.
        let mut runs: Vec<Run> = Vec::new();
        let mut short_rows = 0;
        // The last row of the block before, as the classes see it.
        let mut above = [T::ZERO; MAX_DIAGONALS];
        for block_start in (0..n).step_by(BLOCK_ROWS) {
            let (values, len) = matrix.block(block_start);
            let mut thresholds = [0.0; BLOCK_ROWS];
            if let Some(k) = diagonal {
                for (threshold, value) in thresholds.iter_mut().zip(&values[k * len..][..len]) {
                    *threshold = self::threshold::<T>(value.to_f64());
                }
            }
            let mut repeats = [true; BLOCK_ROWS];
            // One diagonal of the block as the classes see it.
            let mut seen = [T::ZERO; BLOCK_ROWS];
            for (stored, above) in values.chunks_exact(len).zip(&mut above) {
                for ((seen, stored), threshold) in seen.iter_mut().zip(stored).zip(&thresholds) {
                    *seen = kept(stored.to_f64(), *threshold);
                }
                repeats[0] &= seen[0] == *above;
                for (repeat, pair) in repeats[1..].iter_mut().zip(seen[..len].windows(2)) {
                    *repeat &= pair[1] == pair[0];
                }
                *above = seen[len - 1];
            }
            for (i, &repeat) in repeats[..len].iter().enumerate() {
                match runs.last_mut() {
                    Some(run) if repeat => run.len += 1,
                    closed => {
                        let closed = closed.map_or(0, |run| run.len as usize);
                        short_rows += if closed < LONG_RUN { closed } else { 0 };
                        runs.push(Run { start: (block_start + i) as u32, len: 1, class: 0 });
                    }
                }
            }
            if long_runs && 2 * short_rows > n {
                return None;
            }
        }
        let classes = RowClasses { n, class_ptr: vec![0], taps: Vec::new(), runs };
        if long_runs && 2 * classes.rows_in_long_runs() < n {
            return None;
        }
        classes.with_table(matrix, diagonal)
    }

    /// Second pass, the table: the first row of every run either is a class
    /// already or becomes the next one — compared entry by entry, and bit by
    /// bit: a tap is never a zero, so coefficients that compare equal are
    /// the same bits (and a NaN, equal to nothing, founds a class of its own
    /// every time).
    fn with_table<U: Scalar>(
        mut self,
        matrix: &DiaMatrix<U>,
        diagonal: Option<usize>,
    ) -> Option<RowClasses<T>> {
        let mut head: Vec<Tap<T>> = Vec::with_capacity(MAX_DIAGONALS);
        for at in 0..self.runs.len() {
            let row = self.runs[at].start as usize;
            let threshold = diagonal.map_or(0.0, |k| threshold::<T>(matrix.entry(k, row).to_f64()));
            head.clear();
            for (k, &offset) in matrix.offsets().iter().enumerate() {
                let value: T = kept(matrix.entry(k, row).to_f64(), threshold);
                if value != T::ZERO {
                    head.push((offset, value));
                }
            }
            let known = (0..self.num_classes()).find(|&class| self.class_taps(class) == head);
            let class = match known {
                Some(class) => class,
                None if self.num_classes() == MAX_CLASSES => return None,
                None => {
                    self.taps.extend_from_slice(&head);
                    self.class_ptr.push(self.taps.len());
                    self.num_classes() - 1
                }
            };
            self.runs[at].class = class as u8;
        }
        debug_assert!(
            self.runs.iter().all(|run| self.class_taps(run.class as usize).iter().all(|tap| {
                let rows = run.rows();
                rows.start.checked_add_signed(tap.0).is_some()
                    && (rows.end - 1).checked_add_signed(tap.0).is_some_and(|col| col < self.n)
            })),
            "a tap is a stored entry of every row of its runs, so it stays inside the matrix"
        );
        Some(self)
    }

    /// Matrix dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Distinct rows in the table.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.class_ptr.len() - 1
    }

    /// Runs of consecutive rows sharing a class.
    #[cfg(test)]
    fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Rows of the longest run — the vector length the storage offers.
    pub fn longest_run(&self) -> usize {
        self.runs.iter().map(|run| run.len as usize).max().unwrap_or(0)
    }

    /// Rows that lie in runs of at least [`LONG_RUN`] rows.
    pub fn rows_in_long_runs(&self) -> usize {
        let long = self.runs.iter().map(|run| run.len as usize).filter(|&len| len >= LONG_RUN);
        long.sum()
    }

    /// The `(col − row, coefficient)` taps of class `class`, ascending.
    #[inline(always)]
    fn class_taps(&self, class: usize) -> &[Tap<T>] {
        &self.taps[self.class_ptr[class]..self.class_ptr[class + 1]]
    }

    /// Bytes one fused sweep moves: the run list and the class table — all
    /// there is of the operator — plus the four vectors of
    /// [`jacobi_range`](Self::jacobi_range) (`x`, `b`, `inv_diag` read, `xn`
    /// written) at `size_of::<T>()` per row.  A `DiaMatrix` charges its
    /// values alone, which dwarf its vectors; here the vectors are the
    /// traffic.
    pub fn streamed_bytes(&self) -> usize {
        std::mem::size_of_val(&self.runs[..])
            + std::mem::size_of_val(&self.taps[..])
            + std::mem::size_of_val(&self.class_ptr[..])
            + 4 * self.n * std::mem::size_of::<T>()
    }

    /// Modeled flops of one product: one multiply-add per tap a row keeps —
    /// 21 on an interior row of the trilinear Laplacian, not the 27 its
    /// pattern has.
    pub fn apply_flops(&self) -> u64 {
        let kept = |run: &Run| run.len as u64 * self.class_taps(run.class as usize).len() as u64;
        2 * self.runs.iter().map(kept).sum::<u64>()
    }

    /// The shared core of the two kernels: for every window of `rows` —
    /// 16, 8 or 1 consecutive rows of one run — `finish(first_row, sums,
    /// out)` with `sums[i] = (A·x)[first_row + i]` and `out` the window's
    /// part of `result`.  A window may repeat rows of the window before it,
    /// never rows outside `rows`.
    #[inline(always)]
    fn for_each_window(
        &self,
        x: &[T],
        rows: Range<usize>,
        result: &mut [T],
        finish: impl Fn(usize, &[T], &mut [T]),
    ) {
        assert_eq!(x.len(), self.n);
        assert!(rows.end <= self.n, "row range {rows:?} out of bounds for dim {}", self.n);
        assert_eq!(result.len(), rows.len(), "output length must match the row range");
        debug_assert!(disjoint(x, result), "the sweep cannot run in place");
        let first = self.runs.partition_point(|run| run.rows().end <= rows.start);
        for run in &self.runs[first..] {
            let (lo, hi) = (rows.start.max(run.start as usize), rows.end.min(run.rows().end));
            if lo >= hi {
                break;
            }
            let taps = self.class_taps(run.class as usize);
            let out = |row: usize| row - rows.start;
            let mut row = lo;
            if hi - lo < NARROW {
                while row < hi {
                    let mut sum = T::ZERO;
                    for &(offset, coefficient) in taps {
                        sum += coefficient * x[row.wrapping_add_signed(offset)];
                    }
                    finish(row, &[sum], &mut result[out(row)..][..1]);
                    row += 1;
                }
                continue;
            }
            if hi - lo < WIDE {
                let [first, last] = window_pair_sums::<T, NARROW>(taps, x, lo, hi - NARROW);
                finish(lo, &first, &mut result[out(lo)..][..NARROW]);
                finish(hi - NARROW, &last, &mut result[out(hi - NARROW)..][..NARROW]);
                continue;
            }
            while hi - row >= 2 * WIDE {
                let [first, second] = window_pair_sums::<T, WIDE>(taps, x, row, row + WIDE);
                finish(row, &first, &mut result[out(row)..][..WIDE]);
                finish(row + WIDE, &second, &mut result[out(row + WIDE)..][..WIDE]);
                row += 2 * WIDE;
            }
            // What is left ends with the run: the last window steps back
            // over rows already written, and writes them the same bits.
            if hi - row > WIDE {
                let [first, last] = window_pair_sums::<T, WIDE>(taps, x, row, hi - WIDE);
                finish(row, &first, &mut result[out(row)..][..WIDE]);
                finish(hi - WIDE, &last, &mut result[out(hi - WIDE)..][..WIDE]);
            } else if hi - row > NARROW {
                let sums = window_sums::<T, WIDE>(taps, x, hi - WIDE);
                finish(hi - WIDE, &sums, &mut result[out(hi - WIDE)..][..WIDE]);
            } else if hi > row {
                let sums = window_sums::<T, NARROW>(taps, x, hi - NARROW);
                finish(hi - NARROW, &sums, &mut result[out(hi - NARROW)..][..NARROW]);
            }
        }
    }

    #[inline(always)]
    fn jacobi_body(
        &self,
        x: &[T],
        b: &[T],
        inv_diag: &[T],
        omega: T,
        rows: Range<usize>,
        xn: &mut [T],
    ) {
        assert_eq!(b.len(), self.n);
        assert_eq!(inv_diag.len(), self.n);
        self.for_each_window(x, rows, xn, |row, sums, out| {
            let window = row..row + sums.len();
            let (xs, bs, ds) = (&x[window.clone()], &b[window.clone()], &inv_diag[window]);
            for ((((out, sum), xi), bi), di) in out.iter_mut().zip(sums).zip(xs).zip(bs).zip(ds) {
                *out = *xi + omega * ((*bi - *sum) * *di);
            }
        });
    }

    #[inline(always)]
    fn residual_body(&self, x: &[T], b: &[T], rows: Range<usize>, r: &mut [T]) {
        assert_eq!(b.len(), self.n);
        self.for_each_window(x, rows, r, |row, sums, out| {
            for ((out, sum), bi) in out.iter_mut().zip(sums).zip(&b[row..row + sums.len()]) {
                *out = *bi - *sum;
            }
        });
    }

    lv_runtime::multiversion! {
        /// One damped-Jacobi sweep over `rows`:
        /// `xn[i] = x[r] + ω·((b[r] − (A·x)[r])·inv_diag[r])` with
        /// `r = rows.start + i` — [`DiaMatrix::jacobi_range`] of
        /// [`flushed`], bit for bit.  `xn` is the other half of a ping-pong
        /// pair: every row reads the *old* `x` of its neighbours.
        ///
        /// [`DiaMatrix::jacobi_range`]: crate::dia::DiaMatrix::jacobi_range
        ///
        /// # Panics
        /// Panics if a vector does not match the dimension, `rows` is out of
        /// bounds, or `xn` does not match `rows`.
        pub fn jacobi_range(
            &self,
            x: &[T],
            b: &[T],
            inv_diag: &[T],
            omega: T,
            rows: Range<usize>,
            xn: &mut [T],
        ) = Self::jacobi_body, at jacobi_range_at, clone jacobi_avx2;
    }

    lv_runtime::multiversion! {
        /// The residual over `rows`:
        /// `r[i] = b[rows.start + i] − (A·x)[rows.start + i]` —
        /// [`DiaMatrix::residual_range`] of [`flushed`], bit for bit.
        ///
        /// [`DiaMatrix::residual_range`]: crate::dia::DiaMatrix::residual_range
        ///
        /// # Panics
        /// Panics if a vector does not match the dimension, `rows` is out of
        /// bounds, or `r` does not match `rows`.
        pub fn residual_range(&self, x: &[T], b: &[T], rows: Range<usize>, r: &mut [T])
            = Self::residual_body, at residual_range_at, clone residual_avx2;
    }
}

/// [`window_sums`] of two windows of one class, `first ≤ second`, in one pass
/// over the taps: each coefficient is fetched and each index checked once
/// for both.
#[inline(always)]
fn window_pair_sums<T: Scalar, const W: usize>(
    taps: &[Tap<T>],
    x: &[T],
    first: usize,
    second: usize,
) -> [[T; W]; 2] {
    let mut sums = [[T::ZERO; W]; 2];
    let gap = second - first;
    for &(offset, coefficient) in taps {
        let xs = &x[first.wrapping_add_signed(offset)..][..gap + W];
        let [near, far] = &mut sums;
        for (sum, xv) in near.iter_mut().zip(&xs[..W]) {
            *sum += coefficient * *xv;
        }
        for (sum, xv) in far.iter_mut().zip(&xs[gap..]) {
            *sum += coefficient * *xv;
        }
    }
    sums
}

/// `sums[i] = Σ_taps coefficient·x[row + i + offset]` for `W` consecutive
/// rows of one class: the taps are broadcast, the rows are the lanes, and
/// every row adds its taps in ascending offset order from `+0.0`.
///
/// # Panics
/// Panics if a tap of one of the rows points outside `x` (which the
/// construction rules out).
#[inline(always)]
fn window_sums<T: Scalar, const W: usize>(taps: &[Tap<T>], x: &[T], row: usize) -> [T; W] {
    let mut sums = [T::ZERO; W];
    for &(offset, coefficient) in taps {
        // A wrapped index is out of bounds like any other.
        let xs = &x[row.wrapping_add_signed(offset)..][..W];
        for (sum, xv) in sums.iter_mut().zip(xs) {
            *sum += coefficient * *xv;
        }
    }
    sums
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dia::tests::awkward_vector;

    /// A 9-point stencil on an `nx × ny` lattice as a uniform box assembles
    /// it: every row of one position class carries the same diagonal and
    /// corner couplings, the four edge couplings are an exact `0` left as
    /// noise below `f64`'s epsilon — different in every row — and `pins`
    /// are decoupled rows with explicit zeros around them.
    pub(crate) fn noisy_lattice(nx: usize, ny: usize, pins: &[usize]) -> CsrMatrix {
        let n = nx * ny;
        let mut dense = vec![vec![0.0; n]; n];
        for j in 0..ny as isize {
            for i in 0..nx as isize {
                let row = (j * nx as isize + i) as usize;
                for (dj, di) in (-1..=1).flat_map(|dj| (-1..=1).map(move |di| (dj, di))) {
                    let (jj, ii) = (j + dj, i + di);
                    if !(0..ny as isize).contains(&jj) || !(0..nx as isize).contains(&ii) {
                        continue;
                    }
                    let noise = 1e-18 * ((row * 7 + (dj + 3 * di + 4) as usize) % 13 + 1) as f64;
                    dense[row][(jj * nx as isize + ii) as usize] = match (dj != 0, di != 0) {
                        (false, false) => 3.0,
                        (true, true) => -0.25,
                        _ => noise * if row % 2 == 0 { 1.0 } else { -1.0 },
                    };
                }
            }
        }
        let mut csr = CsrMatrix::from_dense(&dense);
        csr.pin_rows_symmetric(pins);
        csr
    }

    fn classes_of<T: Scalar>(csr: &CsrMatrix) -> Option<RowClasses<T>> {
        RowClasses::from_dia(&DiaMatrix::<T>::from_csr(csr)?)
    }

    fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
        v.iter().map(|e| e.to_f64().to_bits()).collect()
    }

    /// Both kernels of `classes` against the `DiaMatrix<T>` kernels of the
    /// flushed matrix, bit for bit, over `ranges`.
    fn assert_kernels_match_the_flushed_diagonals<T: Scalar>(
        csr: &CsrMatrix,
        ranges: &[Range<usize>],
        what: &str,
    ) {
        let classes = classes_of::<T>(csr).unwrap_or_else(|| panic!("{what}: classifies"));
        let reference = DiaMatrix::<T>::from_csr(&flushed::<T>(csr)).expect("the same pattern");
        let n = csr.dim();
        let narrow = |v: Vec<f64>| v.into_iter().map(T::from_f64).collect::<Vec<T>>();
        let (x, b) = (narrow(awkward_vector(n, 51)), narrow(awkward_vector(n, 53)));
        let inv_diag = narrow(crate::krylov::inverse_diagonal(csr));
        let omega = T::from_f64(0.8);
        for rows in ranges {
            let nan = || vec![T::from_f64(f64::NAN); rows.len()];
            let (mut got, mut want) = (nan(), nan());
            classes.jacobi_range(&x, &b, &inv_diag, omega, rows.clone(), &mut got);
            reference.jacobi_range(&x, &b, &inv_diag, omega, rows.clone(), &mut want);
            assert_eq!(bits(&got), bits(&want), "{what}: sweep over {rows:?}");
            let (mut got, mut want) = (nan(), nan());
            classes.residual_range(&x, &b, rows.clone(), &mut got);
            reference.residual_range(&x, &b, rows.clone(), &mut want);
            assert_eq!(bits(&got), bits(&want), "{what}: residual over {rows:?}");
        }
    }

    /// Full, mid-run, mid-window, one-row and empty ranges, and every static
    /// partition a team of 1, 2 or 4 hands out.
    fn probe_ranges(n: usize, nx: usize) -> Vec<Range<usize>> {
        let mut ranges = vec![
            0..n,
            nx + 5..n - nx - 3,      // starts and ends inside a run
            2 * nx + 1..2 * nx + 18, // one wide window and a single row of a run
            3 * nx + 2..3 * nx + 9,  // less than a narrow window
            3 * nx + 2..3 * nx + 10, // exactly one
            n / 2..n / 2 + 1,
            n - 1..n,
            n / 3..n / 3,
        ];
        for threads in [2usize, 4] {
            ranges.extend((0..threads).map(|rank| lv_runtime::partition(n, threads, rank)));
        }
        ranges
    }

    #[test]
    fn class_kernels_carry_the_bits_of_the_flushed_diagonals() {
        // Runs of 35 (wide + narrow + overlapped windows), of 14 (narrow
        // ones only) and of 3 (row by row); pins inside a run, at its
        // start and in a corner.
        for (nx, ny, pins) in [(37, 19, vec![0, 90, 38]), (16, 9, vec![7]), (5, 6, vec![])] {
            let csr = noisy_lattice(nx, ny, &pins);
            let ranges = probe_ranges(nx * ny, nx);
            let what = format!("{nx} x {ny}");
            assert_kernels_match_the_flushed_diagonals::<f32>(&csr, &ranges, &what);
            assert_kernels_match_the_flushed_diagonals::<f64>(&csr, &ranges, &what);
            // The noise is really there, and really dropped.
            assert!(flushed::<f64>(&csr) != csr, "{what}: nothing was flushed");
            assert_eq!(flushed::<f32>(&csr), flushed::<f64>(&csr));
            // Rounded on the way in or beforehand: the same classes.
            let wide: DiaMatrix = DiaMatrix::from_csr(&csr).expect("nine diagonals");
            assert_eq!(RowClasses::<f32>::from_dia(&wide), classes_of::<f32>(&csr));
        }
    }

    /// Every way a row range can clip a run of 78: each length from one row
    /// to the whole run, from either end — all the window combinations.
    #[test]
    fn every_clipped_length_of_a_run_carries_the_same_bits() {
        let (nx, ny) = (80, 3);
        let csr = noisy_lattice(nx, ny, &[]);
        let run = nx + 1..2 * nx - 1;
        let ranges: Vec<Range<usize>> = (1..=run.len())
            .flat_map(|len| [run.start..run.start + len, run.end - len..run.end])
            .collect();
        assert_kernels_match_the_flushed_diagonals::<f32>(&csr, &ranges, "80 x 3");
        assert_kernels_match_the_flushed_diagonals::<f64>(&csr, &ranges, "80 x 3");
    }

    #[test]
    fn census_runs_taps_and_traffic_model() {
        let (nx, ny) = (37, 19);
        let classes = classes_of::<f32>(&noisy_lattice(nx, ny, &[])).expect("classifies");
        // Corner / edge / interior in each direction.
        assert_eq!(classes.num_classes(), 9);
        assert_eq!(classes.num_runs(), 3 * ny);
        assert_eq!(classes.longest_run(), nx - 2);
        assert_eq!(classes.rows_in_long_runs(), (nx - 2) * ny);
        // An interior row keeps its diagonal and four corner couplings.
        let interior = classes.runs.iter().find(|run| run.start as usize == nx + 1).unwrap();
        let taps = classes.class_taps(interior.class as usize);
        let offsets: Vec<isize> = taps.iter().map(|tap| tap.0).collect();
        assert_eq!(
            offsets,
            [-(nx as isize) - 1, -(nx as isize) + 1, 0, nx as isize - 1, nx as isize + 1]
        );
        assert!(taps.iter().all(|tap| tap.1 == 3.0 || tap.1 == -0.25));
        // Every tap of every row stays inside the matrix.
        for run in &classes.runs {
            for &(offset, _) in classes.class_taps(run.class as usize) {
                assert!(run.rows().start as isize + offset >= 0);
                assert!(run.rows().end as isize - 1 + offset < (nx * ny) as isize);
            }
        }
        // A row keeps its diagonal and the corner couplings it has: 4
        // inside, 2 along an edge of the box, 1 in a corner.
        let kept = 5 * (nx - 2) * (ny - 2) + 3 * 2 * ((nx - 2) + (ny - 2)) + 2 * 4;
        assert_eq!(classes.apply_flops(), 2 * kept as u64);
        let taps: usize = (0..9).map(|class| classes.class_taps(class).len()).sum();
        assert_eq!(
            classes.streamed_bytes(),
            classes.num_runs() * 12 + taps * 16 + 10 * 8 + 4 * nx * ny * 4
        );
    }

    #[test]
    fn the_run_rule_asks_for_half_the_rows_in_long_runs() {
        let long_runs = |csr: &CsrMatrix| {
            RowClasses::<f32>::from_dia_with_long_runs(&DiaMatrix::<f32>::from_csr(csr)?)
        };
        // Runs of 35 of 37 rows a line.
        let csr = noisy_lattice(37, 19, &[5]);
        assert_eq!(long_runs(&csr), classes_of::<f32>(&csr));
        assert!(long_runs(&csr).is_some());
        // Runs of 15 — one row short of a window — and of 7.
        for nx in [17, 9] {
            let csr = noisy_lattice(nx, 30, &[]);
            assert!(classes_of::<f32>(&csr).is_some_and(|c| c.rows_in_long_runs() == 0));
            assert!(long_runs(&csr).is_none(), "nx = {nx}");
        }
        // Exactly half the rows in long runs qualifies, one row fewer does
        // not: 16 repeating rows, then distinct ones.
        let half = |distinct: usize| {
            let n = 16 + distinct;
            let mut dense = vec![vec![0.0; n]; n];
            for (i, row) in dense.iter_mut().enumerate() {
                row[i] = if i < 16 { 2.0 } else { 3.0 + i as f64 };
            }
            CsrMatrix::from_dense(&dense)
        };
        assert!(long_runs(&half(16)).is_some_and(|c| c.num_classes() == 17));
        assert!(long_runs(&half(17)).is_none());
    }

    /// Distinct diagonal entries, one class a row.
    fn distinct_rows(n: usize) -> CsrMatrix {
        let mut dense = vec![vec![0.0; n]; n];
        for (i, row) in dense.iter_mut().enumerate() {
            row[i] = 2.0 + i as f64;
            row[(i + 1) % n] = -1.0;
        }
        CsrMatrix::from_dense(&dense)
    }

    #[test]
    fn a_table_holds_255_classes_and_not_one_more() {
        let fits = classes_of::<f32>(&distinct_rows(MAX_CLASSES)).expect("255 classes fit");
        assert_eq!((fits.num_classes(), fits.num_runs(), fits.longest_run()), (255, 255, 1));
        assert!(classes_of::<f32>(&distinct_rows(MAX_CLASSES + 1)).is_none());
        assert!(classes_of::<f32>(&distinct_rows(300)).is_none());
        let empty = DiaMatrix::<f32>::from_csr(&CsrMatrix::from_dense(&[])).expect("no offsets");
        assert!(RowClasses::<f32>::from_dia(&empty).is_none());
    }

    /// There is no signature to collide: rows share a class only if every
    /// kept entry agrees in every bit.  One bit of one coefficient, a
    /// coupling that is kept in one row and dropped in the other, or the
    /// same coefficients at other offsets — each splits a run and a class.
    #[test]
    fn rows_that_differ_anywhere_never_share_a_class() {
        let n = 40;
        let uniform = || {
            let mut dense = vec![vec![0.0; n]; n];
            for (i, row) in dense.iter_mut().enumerate() {
                row[i] = 2.0;
                row[(i + 1) % n] = -1.0;
                row[(i + 3) % n] = 1e-9; // below f32's epsilon beside 2.0
            }
            dense
        };
        // Rows 0..39 repeat; the coupling of the last one wraps around.
        let classes = |dense: &[Vec<f64>]| {
            classes_of::<f32>(&CsrMatrix::from_dense(dense)).expect("classifies")
        };
        let base = classes(&uniform());
        assert_eq!((base.num_classes(), base.num_runs(), base.longest_run()), (2, 2, 39));
        let forged: [fn(&mut Vec<Vec<f64>>); 3] = [
            |dense| dense[20][21] = f64::from(f32::from_bits((-1.0f32).to_bits() + 1)),
            |dense| dense[20][23] = 1e-6, // kept here, dropped in every other row
            |dense| dense[20].swap(21, 22), // the same coefficient, one column on
        ];
        for forge in forged {
            let mut dense = uniform();
            forge(&mut dense);
            let split = classes(&dense);
            // 0..20 | 20 | 21..39 | 39.
            assert_eq!((split.num_classes(), split.num_runs()), (3, 4));
            let odd = split.runs.iter().find(|run| run.start == 20).expect("row 20 starts a run");
            assert_eq!(odd.len, 1);
            assert!(split.runs.iter().filter(|run| run.class == odd.class).count() == 1);
        }
        // A NaN is equal to nothing, itself included: never in a run.
        let mut dense = uniform();
        for row in [10, 11] {
            dense[row][row + 1] = f64::NAN;
        }
        let poisoned = classes(&dense);
        assert_eq!((poisoned.num_classes(), poisoned.num_runs()), (4, 5));
    }

    #[test]
    #[should_panic(expected = "output length must match the row range")]
    fn mismatched_output_is_rejected() {
        let classes = classes_of::<f64>(&noisy_lattice(5, 4, &[])).expect("classifies");
        let (x, b) = (vec![1.0; 20], vec![1.0; 20]);
        classes.residual_range(&x, &b, 2..7, &mut [0.0; 4]);
    }
}
