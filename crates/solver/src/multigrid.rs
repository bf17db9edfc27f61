//! Geometric multigrid V-cycle preconditioning for the pressure Poisson
//! solve.
//!
//! The structured generators produce de-facto nested boxes (16³ ⊃ 8³ ⊃ 4³
//! …), so a geometric hierarchy is available for free: `lv-mesh` supplies
//! the nested lattices and trilinear stencils, this module turns them into
//! a V-cycle preconditioner:
//!
//! * the transfers, in one of two storages, chosen by the entries of `P`
//!   and by nothing else ([`TransferStorage`]): the **lattice stencil**
//!   when `P` names its two nested lattices ([`Interpolation::on_lattices`])
//!   and every entry, rounded to the cycle's scalar, is the trilinear
//!   stencil between them (weight 1 at even, ½ and ½ at odd fine indices
//!   per direction) — then the two lattice shapes are all the level keeps,
//!   and restriction and prolongation run by lattice index in x-line
//!   loops that load no index and no weight; the **CSR** [`Interpolation`]
//!   otherwise (a jittered finest lattice; `f64` weights that miss ½ by a
//!   rounding, as at 12³), stored twice — fine-row CSR for prolongation,
//!   coarse-row transpose for restriction.  Either way each transfer
//!   partitions disjoint output rows and sums each row in the same fixed
//!   order (ascending coarse id for prolongation, ascending fine id for
//!   restriction, from `+0.0`), so the two storages carry the same bits,
//!   and both are bitwise identical at every thread count — the same
//!   contract as the square kernels.  Every unjittered box takes the
//!   stencil in the cycle's `f32`;
//! * Galerkin coarse operators `A_c = Pᵀ·A·P`, computed serially at setup
//!   (deterministic, and SPD whenever `A` is SPD because `P` has full
//!   column rank) on diagonals, from the finest level's [`DiaMatrix`] down,
//!   with no CSR matrix ([`galerkin_on_lattices`]): where `P` is the exact
//!   trilinear stencil of two nested lattices — every level of an
//!   unjittered box ([`GeometricMultigrid::on_lattice_chain`]) — once per
//!   *key* (a coarse row's position class and the row classes of its `Pᵀ`
//!   support), 34 keys or fewer per level of a uniform box instead of a
//!   product per row; row by row elsewhere.  Either way each entry sums its
//!   terms in [`galerkin_coarse`]'s order, the CSR product kept as the
//!   oracle, and carries its bits.  Every level is
//!   kept in one of two storages, chosen by its matrix and by nothing else
//!   ([`LevelStorage`]) — as [`RowClasses`] (a table of the distinct rows
//!   and the runs of rows that carry them, see [`crate::classes`]) when at
//!   least half its rows lie in runs of 16 or more that share a row, as a
//!   [`DiaMatrix`] (block-major diagonals, no column indices — see
//!   [`crate::dia`]) otherwise.  The fine level of a uniform 32³ box takes
//!   classes (runs of 31; 3.9 MB of `f32` diagonals become ~40 KB and are
//!   never built); its 17³ / 9³ / 5³ levels, every level of a 16³ or
//!   smaller box and every graded or jittered lattice keep diagonals, where
//!   they are cache-resident or no two rows agree;
//! * damped-Jacobi smoothing (equal pre/post sweep counts), one fused
//!   `jacobi_range` pass per sweep ([`RowClasses::jacobi_range`] or
//!   [`DiaMatrix::jacobi_range`], the same expression tree) into a
//!   ping-pong buffer, partitioned over the caller's [`VectorOps`] team —
//!   each rank is handed its own rows of the buffer
//!   ([`lv_runtime::for_each_share`]) and each row's arithmetic is
//!   partition-independent, so every cycle is reproducible;
//! * a pivoted dense LU direct solve on the coarsest level, factored once.
//!   A *fixed* coarse solve keeps the V-cycle linear — a tolerance-based
//!   inner CG would make the preconditioner nonlinear and void the outer CG
//!   convergence theory.
//!
//! **Mixed precision.**  The cycle is written once, generic over the scalar
//! its levels, vectors and arithmetic use, and [`GeometricMultigrid`] runs it
//! in **`f32`** under an outer CG that stays `f64` (vectors, fine-grid
//! product, the ≤ 80-row LU): a level then streams 108 instead of 216 bytes
//! per row through four SSE2 lanes instead of two, and the sweep is close to
//! both limits at once.  The caller's residual enters through one pass that
//! scales it by an exact power of two, rounds it and takes the first sweep;
//! the correction leaves through the pass that widens and unscales it — the
//! cycle is linear, so the scale changes nothing but keeps `f32` away from
//! under- and overflow however small the CG residual gets.  The `f64`
//! instantiation of the same source exists under `#[cfg(test)]` only, where
//! it is held bit for bit to the CSR four-kernel cycle it descends from; the
//! `f32` one is held to *that* within a pinned multiple of `ε_f32`.  (The
//! storage choice is generic too: the `f64` cycle of a 1-D Laplacian runs on
//! classes and still carries the CSR bits — nothing there is below `f64`'s
//! epsilon, so nothing is dropped.)
//!
//! Damped Jacobi is self-adjoint in the `A` inner product and the pre/post
//! sweep counts match, so the exact V-cycle is a symmetric positive-definite
//! preconditioner.  The rounded one is that only up to `f32` rounding, says
//! so ([`Preconditioner::is_inexact`]), and [`mg_preconditioned_cg_on`] — the
//! one CG driver, against any [`LinearOperator`] backend for the fine-grid
//! product — then runs the flexible `β`, which keeps the iteration counts of
//! the all-`f64` cycle.  Results are bitwise identical across thread counts;
//! they are no longer the bits of the CSR cycle.

mod galerkin;

pub use galerkin::{exact_row_classes, galerkin_on_lattices};

use crate::classes::RowClasses;
use crate::csr::CsrMatrix;
use crate::dia::{DiaMatrix, Scalar};
use crate::krylov::{conjugate_gradient_with, SolveOptions, SolveOutcome, SolverError};
use crate::operator::{LinearOperator, Preconditioner};
use crate::parallel::VectorOps;
use lv_runtime::Team;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// Tuning knobs of the V-cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultigridOptions {
    /// Damped-Jacobi sweeps before *and* after each coarse correction
    /// (equal counts keep the preconditioner symmetric).
    pub smoothing_sweeps: usize,
    /// Jacobi damping factor ω in `x += ω·D⁻¹·(b − A·x)`.
    pub damping: f64,
    /// Hierarchy builders stop coarsening once a lattice has at most this
    /// many nodes; that level is solved directly (dense LU).
    pub max_coarse_nodes: usize,
}

impl Default for MultigridOptions {
    fn default() -> Self {
        // Three sweeps make the cavity pressure solve mesh-independent
        // (7 MG-CG iterations at 8³, 12³ and 16³ alike); two sweeps let the
        // count creep to 9 at 16³.
        MultigridOptions { smoothing_sweeps: 3, damping: 0.8, max_coarse_nodes: 80 }
    }
}

/// A rectangular interpolation (prolongation) operator `P` from a coarse
/// level to a fine level, stored in both orientations so prolongation and
/// restriction each own disjoint output rows.
#[derive(Debug, Clone)]
pub struct Interpolation {
    fine_nodes: usize,
    coarse_nodes: usize,
    // P by fine rows: fine node f interpolates from coarse cols.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    weights: Vec<f64>,
    // Pᵀ by coarse rows, entries ordered by ascending fine node — the fixed
    // accumulation order of the restriction.
    t_row_ptr: Vec<usize>,
    t_col_idx: Vec<usize>,
    t_weights: Vec<f64>,
    // The two lattices `P` connects, when the caller knows them.
    lattices: Option<NestedLattices>,
}

impl Interpolation {
    /// Builds the operator from fine-row CSR data (`row_ptr.len()` is the
    /// fine node count plus one; columns index coarse nodes and must be
    /// strictly increasing within a row).
    ///
    /// # Panics
    /// Panics on malformed CSR input.
    pub fn from_csr(
        coarse_nodes: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        weights: Vec<f64>,
    ) -> Self {
        assert!(!row_ptr.is_empty(), "row_ptr must hold at least the terminator");
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
        assert_eq!(col_idx.len(), weights.len());
        let fine_nodes = row_ptr.len() - 1;
        for f in 0..fine_nodes {
            assert!(row_ptr[f] <= row_ptr[f + 1], "row_ptr must be monotone");
            let cols = &col_idx[row_ptr[f]..row_ptr[f + 1]];
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "columns must be strictly increasing");
            assert!(cols.iter().all(|&c| c < coarse_nodes), "column out of range");
        }

        // Transpose by counting sort: per coarse row, entries appear in
        // ascending fine-node order — the deterministic restriction order.
        let mut counts = vec![0usize; coarse_nodes + 1];
        for &c in &col_idx {
            counts[c + 1] += 1;
        }
        for c in 0..coarse_nodes {
            counts[c + 1] += counts[c];
        }
        let t_row_ptr = counts.clone();
        let mut t_col_idx = vec![0usize; col_idx.len()];
        let mut t_weights = vec![0.0f64; col_idx.len()];
        let mut cursor = counts;
        for f in 0..fine_nodes {
            for idx in row_ptr[f]..row_ptr[f + 1] {
                let c = col_idx[idx];
                let slot = cursor[c];
                cursor[c] += 1;
                t_col_idx[slot] = f;
                t_weights[slot] = weights[idx];
            }
        }

        Interpolation {
            fine_nodes,
            coarse_nodes,
            row_ptr,
            col_idx,
            weights,
            t_row_ptr,
            t_col_idx,
            t_weights,
            lattices: None,
        }
    }

    /// Records that `P` maps a box lattice of `coarse` nodes per direction
    /// onto the nested lattice of `fine` nodes per direction (`x` fastest,
    /// `fine = 2·coarse − 1` per direction).  A V-cycle then applies `P` by
    /// lattice index, storing no entry of it, wherever its entries are the
    /// trilinear stencil in the cycle's scalar; elsewhere it keeps the CSR
    /// form (see [`TransferStorage`]).
    ///
    /// # Panics
    /// Panics when the lattices do not nest or their node counts are not the
    /// dimensions of `P`.
    pub fn on_lattices(self, fine: [usize; 3], coarse: [usize; 3]) -> Interpolation {
        assert!(
            (0..3).all(|d| coarse[d] >= 1 && fine[d] == 2 * coarse[d] - 1),
            "the fine lattice must have 2·c − 1 nodes where the coarse one has c: \
             {fine:?} over {coarse:?}"
        );
        let nodes = |p: [usize; 3]| p[0] * p[1] * p[2];
        assert_eq!(nodes(fine), self.fine_nodes, "fine lattice node count");
        assert_eq!(nodes(coarse), self.coarse_nodes, "coarse lattice node count");
        Interpolation { lattices: Some(NestedLattices { fine, coarse }), ..self }
    }

    /// The exact trilinear `P` from the box lattice of `coarse` nodes per
    /// direction onto the lattice it is every other node of (`2·c − 1`
    /// nodes where it has `c`): per direction weight 1 at an even fine
    /// index, ½ and ½ at an odd one, so every entry is 1, ½, ¼ or ⅛ exactly.
    /// The lattices are named ([`on_lattices`](Self::on_lattices)).  What
    /// [`GeometricMultigrid::on_lattice_chain`] interpolates with, stored.
    ///
    /// # Panics
    /// Panics if a direction has no node.
    pub fn trilinear(coarse: [usize; 3]) -> Interpolation {
        let lattices = NestedLattices::over(coarse);
        let fine = NestedLattices::nodes(lattices.fine);
        let (mut row_ptr, mut col_idx, mut weights) = (vec![0], Vec::new(), Vec::new());
        let mut row = Vec::new();
        for f in 0..fine {
            galerkin::stencil_row(&lattices, f, &mut row);
            col_idx.extend(row.iter().map(|&(c, _)| c));
            weights.extend(row.iter().map(|&(_, w)| w));
            row_ptr.push(col_idx.len());
        }
        Interpolation::from_csr(NestedLattices::nodes(coarse), row_ptr, col_idx, weights)
            .on_lattices(lattices.fine, coarse)
    }

    /// Fine-level dimension (rows of `P`).
    pub fn fine_nodes(&self) -> usize {
        self.fine_nodes
    }

    /// Coarse-level dimension (columns of `P`).
    pub fn coarse_nodes(&self) -> usize {
        self.coarse_nodes
    }

    /// `fine += P·coarse`, partitioned over disjoint fine rows, in the
    /// scalar of the vectors (each weight is cast to it as it is used).
    fn prolong_add<T: Scalar>(&self, ops: &VectorOps<'_>, coarse: &[T], fine: &mut [T]) {
        assert_eq!(coarse.len(), self.coarse_nodes);
        assert_eq!(fine.len(), self.fine_nodes);
        ops.for_each_share(self.fine_nodes, fine, |rows, slice| {
            for (offset, f) in rows.enumerate() {
                let mut sum = T::ZERO;
                for idx in self.row_ptr[f]..self.row_ptr[f + 1] {
                    sum += T::from_f64(self.weights[idx]) * coarse[self.col_idx[idx]];
                }
                slice[offset] += sum;
            }
        });
    }

    /// `coarse = Pᵀ·fine`, partitioned over disjoint coarse rows, in the
    /// scalar of the vectors.
    fn restrict<T: Scalar>(&self, ops: &VectorOps<'_>, fine: &[T], coarse: &mut [T]) {
        assert_eq!(fine.len(), self.fine_nodes);
        assert_eq!(coarse.len(), self.coarse_nodes);
        ops.for_each_share(self.coarse_nodes, coarse, |rows, slice| {
            for (offset, c) in rows.enumerate() {
                let mut sum = T::ZERO;
                for idx in self.t_row_ptr[c]..self.t_row_ptr[c + 1] {
                    sum += T::from_f64(self.t_weights[idx]) * fine[self.t_col_idx[idx]];
                }
                slice[offset] = sum;
            }
        });
    }
}

/// The fine nodes along one direction that interpolate from coarse node
/// `c` of it, ascending, with their weights: `2c` at 1, its neighbours
/// `2c ∓ 1` at ½ where the direction has them (`fine` nodes).
fn children(c: usize, fine: usize) -> impl Iterator<Item = (usize, f64)> {
    let (lo, hi) = ((2 * c).saturating_sub(1), (2 * c + 1).min(fine - 1));
    (lo..=hi).map(move |f| (f, if f == 2 * c { 1.0 } else { 0.5 }))
}

/// The coarse nodes fine node `f` of a direction interpolates from,
/// ascending, with their weights: `f / 2` at 1 for even `f`, its two
/// neighbours at ½ for odd `f`.
fn parents(f: usize) -> impl Iterator<Item = (usize, f64)> {
    let (lo, hi) = (f / 2, f.div_ceil(2));
    (lo..=hi).map(move |c| (c, if lo == hi { 1.0 } else { 0.5 }))
}

/// Two nested box lattices, as node counts per direction (`x` fastest):
/// the fine one has `2·c − 1` nodes where the coarse one has `c`.  As a
/// transfer, the trilinear stencil between them applied by lattice index —
/// the two shapes are all it stores.
///
/// Each output row sums its terms in the order of the CSR form, starting
/// from `+0.0` — ascending coarse id for prolongation, ascending fine id
/// for restriction — with the same weights, so it carries the CSR bits.
/// The rows of an x-line are the lanes, and the passes are shared by whole
/// x-lines: a row's arithmetic owes nothing to the partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NestedLattices {
    fine: [usize; 3],
    coarse: [usize; 3],
}

impl NestedLattices {
    /// Whether every entry of `p`, rounded to `T`, is the trilinear stencil
    /// of the two lattices: the same columns in the same order, and the
    /// product of the per-direction weights (1 or ½, so the product is
    /// exact in either precision).
    fn carries<T: Scalar>(&self, p: &Interpolation) -> bool {
        let ([fx, fy, fz], [cx, cy, _]) = (self.fine, self.coarse);
        let mut row = 0;
        for k in 0..fz {
            for j in 0..fy {
                for i in 0..fx {
                    let entries = p.row_ptr[row]..p.row_ptr[row + 1];
                    let mut stored = p.col_idx[entries.clone()].iter().zip(&p.weights[entries]);
                    for (ck, wk) in parents(k) {
                        for (cj, wj) in parents(j) {
                            for (ci, wi) in parents(i) {
                                let column = ci + cx * (cj + cy * ck);
                                let weight = T::from_f64(wi * wj * wk);
                                match stored.next() {
                                    Some((&c, &w)) if c == column && T::from_f64(w) == weight => {}
                                    _ => return false,
                                }
                            }
                        }
                    }
                    if stored.next().is_some() {
                        return false;
                    }
                    row += 1;
                }
            }
        }
        true
    }

    fn nodes(points: [usize; 3]) -> usize {
        points[0] * points[1] * points[2]
    }

    /// Entries of the stencil's `P`: per direction, one at each of the `c`
    /// even fine nodes and two at each of the `c − 1` odd ones.
    fn entries(&self) -> usize {
        self.coarse.iter().map(|&c| 3 * c - 2).product()
    }

    /// `coarse = Pᵀ·fine`, shared over whole coarse x-lines.  A coarse row
    /// adds, fine x-line by fine x-line in ascending order, that line's
    /// `2I − 1`, `2I` and `2I + 1` terms: its fine ids in ascending order.
    fn restrict<T: Scalar>(&self, ops: &VectorOps<'_>, fine: &[T], coarse: &mut [T]) {
        let ([fx, fy, fz], [cx, cy, cz]) = (self.fine, self.coarse);
        assert_eq!(fine.len(), Self::nodes(self.fine));
        assert_eq!(coarse.len(), Self::nodes(self.coarse));
        let half = T::from_f64(0.5);
        let team = ops.team_above_cutoff(coarse.len());
        lv_runtime::for_each_share(team, cy * cz, 1, coarse, |lines, out| {
            for (line, out) in lines.zip(out.chunks_exact_mut(cx)) {
                let (cj, ck) = (line % cy, line / cy);
                out.fill(T::ZERO);
                for (fk, wk) in children(ck, fz) {
                    for (fj, wj) in children(cj, fy) {
                        let w = T::from_f64(wj * wk);
                        let start = (fk * fy + fj) * fx;
                        restrict_line(&fine[start..start + fx], w, w * half, out);
                    }
                }
            }
        });
    }

    /// `fine += P·coarse`, shared over whole fine x-lines.  A fine row sums
    /// its (one, two or four) parent coarse x-lines in ascending order, two
    /// neighbours of each at an odd row, then adds the sum.
    fn prolong_add<T: Scalar>(&self, ops: &VectorOps<'_>, coarse: &[T], fine: &mut [T]) {
        let ([fx, fy, fz], [cx, cy, _]) = (self.fine, self.coarse);
        assert_eq!(fine.len(), Self::nodes(self.fine));
        assert_eq!(coarse.len(), Self::nodes(self.coarse));
        let half = T::from_f64(0.5);
        let team = ops.team_above_cutoff(fine.len());
        lv_runtime::for_each_share(team, fy * fz, 1, fine, |lines, out| {
            for (line, out) in lines.zip(out.chunks_exact_mut(fx)) {
                let (fj, fk) = (line % fy, line / fy);
                let (j0, j1, k0, k1) = (fj / 2, fj.div_ceil(2), fk / 2, fk.div_ceil(2));
                let at = |k: usize, j: usize, w: f64| {
                    let start = (k * cy + j) * cx;
                    (&coarse[start..start + cx], T::from_f64(w))
                };
                match (j0 == j1, k0 == k1) {
                    (true, true) => prolong_line([at(k0, j0, 1.0)], half, out),
                    (false, true) => prolong_line([at(k0, j0, 0.5), at(k0, j1, 0.5)], half, out),
                    (true, false) => prolong_line([at(k0, j0, 0.5), at(k1, j0, 0.5)], half, out),
                    (false, false) => prolong_line(
                        [at(k0, j0, 0.25), at(k0, j1, 0.25), at(k1, j0, 0.25), at(k1, j1, 0.25)],
                        half,
                        out,
                    ),
                }
            }
        });
    }
}

/// One fine x-line's terms of a restriction, added to its coarse x-line:
/// `out[I] += wh·row[2I − 1]`, `+= w·row[2I]`, `+= wh·row[2I + 1]`, the
/// terms the line has, in that order (`row` holds `2·out.len() − 1` nodes;
/// `w` is the line's weight, `wh` half of it).
#[inline(always)]
fn restrict_line<T: Scalar>(row: &[T], w: T, wh: T, out: &mut [T]) {
    let last = out.len() - 1;
    assert_eq!(row.len(), 2 * last + 1);
    out[0] += w * row[0];
    if last == 0 {
        return;
    }
    out[0] += wh * row[1];
    // Interior row `I` reads the pair (2I − 1, 2I) and the first of the
    // next pair, 2I + 1.
    let pairs = row[1..2 * last - 1].chunks_exact(2);
    let next = row[3..2 * last + 1].chunks_exact(2);
    for ((o, pair), next) in out[1..last].iter_mut().zip(pairs).zip(next) {
        let mut sum = *o;
        sum += wh * pair[0];
        sum += w * pair[1];
        sum += wh * next[0];
        *o = sum;
    }
    out[last] += wh * row[2 * last - 1];
    out[last] += w * row[2 * last];
}

/// One fine x-line of a prolongation from its `L` parent coarse x-lines
/// (`(line, weight)` in ascending order): an even row `2I` adds
/// `Σ w·c[I]`, an odd row `2I + 1` adds `Σ (w/2·c[I] + w/2·c[I + 1])`,
/// each sum taken from `+0.0` in that order.
#[inline(always)]
fn prolong_line<T: Scalar, const L: usize>(lines: [(&[T], T); L], half: T, fine: &mut [T]) {
    let last = lines[0].0.len() - 1;
    assert_eq!(fine.len(), 2 * last + 1);
    assert!(lines.iter().all(|(c, _)| c.len() == last + 1));
    let halves = lines.map(|(_, w)| w * half);
    for (i, pair) in fine[..2 * last].chunks_exact_mut(2).enumerate() {
        let mut even = T::ZERO;
        for (c, w) in lines {
            even += w * c[i];
        }
        let mut odd = T::ZERO;
        for ((c, _), wh) in lines.iter().zip(halves) {
            odd += wh * c[i];
            odd += wh * c[i + 1];
        }
        pair[0] += even;
        pair[1] += odd;
    }
    let mut even = T::ZERO;
    for (c, w) in lines {
        even += w * c[last];
    }
    fine[2 * last] += even;
}

/// How a level stores the transfer to the level below it — what
/// [`GeometricMultigrid::transfer_storage`] reports and the examples print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferStorage {
    /// The trilinear stencil of two nested lattices, applied by lattice
    /// index: no index and no weight is stored.
    Stencil,
    /// `P` and `Pᵀ` in CSR: a column index and an `f64` weight per entry.
    Csr {
        /// Entries of `P`.
        entries: usize,
    },
}

impl std::fmt::Display for TransferStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferStorage::Stencil => f.write_str("stencil"),
            TransferStorage::Csr { entries } => write!(f, "csr ({entries} entries)"),
        }
    }
}

/// The transfer between a level and the one below it, in the one storage
/// its entries chose: the lattice stencil where `P` is the trilinear
/// stencil of two nested lattices in the cycle's scalar, the CSR
/// [`Interpolation`] everywhere else (a jittered finest lattice, whose `P`
/// interpolates onto the nudged nodes; `f64` weights that miss ½ by a
/// rounding; a `P` that names no lattices).  Same bits either way.
#[derive(Debug, Clone)]
enum Transfer {
    Stencil(NestedLattices),
    Csr(Interpolation),
}

impl Transfer {
    /// The storage `p` asks for in the scalar `T`.  A stencil drops `p`.
    fn new<T: Scalar>(p: Interpolation) -> Transfer {
        match p.lattices {
            Some(lattices) if lattices.carries::<T>(&p) => Transfer::Stencil(lattices),
            _ => Transfer::Csr(p),
        }
    }

    fn storage(&self) -> TransferStorage {
        match self {
            Transfer::Stencil(_) => TransferStorage::Stencil,
            Transfer::Csr(p) => TransferStorage::Csr { entries: p.col_idx.len() },
        }
    }

    /// Modeled flops and bytes of one restriction or prolongation: a
    /// multiply-add per entry; the fine and the coarse vector once each,
    /// plus, in CSR, the 8-byte index and 8-byte weight of every entry.
    fn traffic<T: Scalar>(&self) -> (u64, u64) {
        let (fine, coarse, entries, per_entry) = match self {
            Transfer::Stencil(s) => {
                (NestedLattices::nodes(s.fine), NestedLattices::nodes(s.coarse), s.entries(), 0)
            }
            Transfer::Csr(p) => (p.fine_nodes, p.coarse_nodes, p.col_idx.len(), 16),
        };
        let vectors = (fine + coarse) * std::mem::size_of::<T>();
        (2 * entries as u64, (vectors + per_entry * entries) as u64)
    }

    fn restrict<T: Scalar>(&self, ops: &VectorOps<'_>, fine: &[T], coarse: &mut [T]) {
        match self {
            Transfer::Stencil(s) => s.restrict(ops, fine, coarse),
            Transfer::Csr(p) => p.restrict(ops, fine, coarse),
        }
    }

    fn prolong_add<T: Scalar>(&self, ops: &VectorOps<'_>, coarse: &[T], fine: &mut [T]) {
        match self {
            Transfer::Stencil(s) => s.prolong_add(ops, coarse, fine),
            Transfer::Csr(p) => p.prolong_add(ops, coarse, fine),
        }
    }
}

/// Galerkin triple product `A_c = Pᵀ·A·P` in CSR, assembled serially (a
/// fixed traversal order keeps the coarse operators identical for every
/// thread count).  Exact zeros of `A` — the entries Dirichlet pinning
/// cleared — are skipped, so pinned rows stay decoupled on every level.
/// The hierarchy builders compute their products on diagonals
/// ([`galerkin_on_lattices`]) in this order, with these bits; this is the
/// oracle the tests hold them to.
///
/// One coarse row at a time into a dense accumulator (Gustavson): row `ci`
/// walks the fine nodes `k` of `Pᵀ`'s row in ascending order, then `A`'s row
/// `k`, then `P`'s row `j` — so every coarse entry receives its
/// contributions in ascending `(k, jj, ll)` order, each starting from `0.0`.
///
/// # Panics
/// Panics when `a` and `p` disagree on the fine dimension.
pub fn galerkin_coarse(a: &CsrMatrix, p: &Interpolation) -> CsrMatrix {
    assert_eq!(a.dim(), p.fine_nodes);
    let (arp, aci, av) = (a.row_ptr(), a.col_idx(), a.values());
    let mut row_ptr = Vec::with_capacity(p.coarse_nodes + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    // `owner[cj] == ci` marks `acc[cj]` as live for the current row.
    let mut owner = vec![usize::MAX; p.coarse_nodes];
    let mut acc = vec![0.0f64; p.coarse_nodes];
    let mut touched: Vec<usize> = Vec::new();
    for ci in 0..p.coarse_nodes {
        touched.clear();
        for ii in p.t_row_ptr[ci]..p.t_row_ptr[ci + 1] {
            let k = p.t_col_idx[ii];
            let wi = p.t_weights[ii];
            for jj in arp[k]..arp[k + 1] {
                let akj = av[jj];
                if akj == 0.0 {
                    continue;
                }
                let j = aci[jj];
                let wa = wi * akj;
                for ll in p.row_ptr[j]..p.row_ptr[j + 1] {
                    let cj = p.col_idx[ll];
                    if owner[cj] != ci {
                        owner[cj] = ci;
                        acc[cj] = 0.0;
                        touched.push(cj);
                    }
                    acc[cj] += wa * p.weights[ll];
                }
            }
        }
        touched.sort_unstable();
        col_idx.extend_from_slice(&touched);
        vals.extend(touched.iter().map(|&cj| acc[cj]));
        row_ptr.push(col_idx.len());
    }
    let mut matrix = CsrMatrix::from_pattern(row_ptr, col_idx);
    let (_, _, values) = matrix.pattern_and_values_mut();
    values.copy_from_slice(&vals);
    matrix
}

/// The option checks every builder runs.
fn check_options(options: &MultigridOptions) {
    assert!(options.smoothing_sweeps >= 1, "at least one smoothing sweep");
    assert!(options.damping > 0.0, "damping must be positive");
}

/// A pivoted dense LU factorization of the coarsest operator, computed once
/// at setup; each V-cycle only runs the O(n²) triangular solves.
#[derive(Debug, Clone)]
struct DenseLu {
    n: usize,
    lu: Vec<f64>,
    pivots: Vec<usize>,
}

impl DenseLu {
    /// The factorization of `a`, or `None` when it is numerically singular.
    /// Every stored value lands at its `(row, row + offset)`; padding holds
    /// `+0.0`, as the dense matrix does where a CSR row has no entry.
    fn from_dia(a: &DiaMatrix) -> Option<DenseLu> {
        let n = a.dim();
        let mut dense = vec![0.0; n * n];
        for (k, &d) in a.offsets().iter().enumerate() {
            for r in 0..n {
                let c = r as isize + d;
                if (0..n as isize).contains(&c) {
                    dense[r * n + c as usize] = a.entry(k, r);
                }
            }
        }
        Self::factor(n, dense)
    }

    #[cfg(test)]
    fn from_csr(a: &CsrMatrix) -> Option<DenseLu> {
        let n = a.dim();
        let mut dense = vec![0.0; n * n];
        for r in 0..n {
            for idx in a.row_ptr()[r]..a.row_ptr()[r + 1] {
                dense[r * n + a.col_idx()[idx]] = a.values()[idx];
            }
        }
        Self::factor(n, dense)
    }

    /// Pivoted LU of the row-major `n × n` matrix `lu`, in place.
    fn factor(n: usize, mut lu: Vec<f64>) -> Option<DenseLu> {
        let mut pivots = vec![0usize; n];
        for col in 0..n {
            let mut best = col;
            let mut best_abs = lu[col * n + col].abs();
            for r in col + 1..n {
                let v = lu[r * n + col].abs();
                if v > best_abs {
                    best = r;
                    best_abs = v;
                }
            }
            if best_abs < 1e-300 {
                return None;
            }
            pivots[col] = best;
            if best != col {
                for c in 0..n {
                    lu.swap(col * n + c, best * n + c);
                }
            }
            let pivot = lu[col * n + col];
            for r in col + 1..n {
                let factor = lu[r * n + col] / pivot;
                lu[r * n + col] = factor;
                if factor != 0.0 {
                    for c in col + 1..n {
                        lu[r * n + c] -= factor * lu[col * n + c];
                    }
                }
            }
        }
        Some(DenseLu { n, lu, pivots })
    }

    fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        x.copy_from_slice(b);
        for col in 0..n {
            x.swap(col, self.pivots[col]);
        }
        for r in 1..n {
            let mut sum = x[r];
            for (l, xc) in self.lu[r * n..r * n + r].iter().zip(&x[..r]) {
                sum -= l * xc;
            }
            x[r] = sum;
        }
        for r in (0..n).rev() {
            let mut sum = x[r];
            for (l, xc) in self.lu[r * n + r + 1..r * n + n].iter().zip(&x[r + 1..n]) {
                sum -= l * xc;
            }
            x[r] = sum / self.lu[r * n + r];
        }
    }
}

/// How a level of the hierarchy stores its operator — what
/// [`GeometricMultigrid::level_storage`] reports and the examples print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelStorage {
    /// A table of the distinct rows and the runs that carry them
    /// ([`RowClasses`]): a level whose rows repeat in long runs.
    RowClasses {
        /// Distinct rows in the table.
        classes: usize,
    },
    /// Block-major diagonals ([`DiaMatrix`]): every other smoothed level.
    Diagonals {
        /// Distinct `col − row` offsets of the pattern.
        diagonals: usize,
    },
    /// The coarsest level: a dense LU factorization, no smoothing.
    DenseLu,
}

impl std::fmt::Display for LevelStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LevelStorage::RowClasses { classes } => write!(f, "{classes} row classes"),
            LevelStorage::Diagonals { diagonals } => write!(f, "{diagonals} diagonals"),
            LevelStorage::DenseLu => f.write_str("lu"),
        }
    }
}

/// The operator of one level, in the one storage the level's matrix chose:
/// row classes where at least half the rows lie in long runs of one class
/// (the fine level of a uniform 32³ box — 3.9 MB of `f32` diagonals as
/// ~40 KB), diagonals everywhere else (graded or jittered lattices, where
/// no two rows agree, and small levels, where the diagonals are
/// cache-resident and the runs too short to fill a window).  Same kernels,
/// same bits up to the sub-epsilon entries `f32` classes drop.  In `f64`
/// it is the outer CG's operator ([`GeometricMultigrid::fine_operator`]):
/// there the classes drop nothing but exact zeros, so its product is the
/// diagonals' bit for bit.
#[derive(Debug, Clone)]
pub enum LevelOperator<T: Scalar = f64> {
    /// The distinct rows and the runs that carry them.
    Classes(RowClasses<T>),
    /// Block-major diagonals.
    Diagonals(DiaMatrix<T>),
}

impl<T: Scalar> LevelOperator<T> {
    /// The storage of a level: its `classes` when
    /// [`RowClasses::from_dia_with_long_runs`] found that they pay, else
    /// `diagonals()` — which a level that takes classes never asks for.
    fn new(
        classes: Option<RowClasses<T>>,
        diagonals: impl FnOnce() -> DiaMatrix<T>,
    ) -> LevelOperator<T> {
        classes.map_or_else(|| LevelOperator::Diagonals(diagonals()), LevelOperator::Classes)
    }

    /// `matrix` in the storage its rows choose: its
    /// [`RowClasses::from_dia_with_long_runs`] where they pay, `matrix`
    /// itself otherwise.
    pub fn from_diagonals(matrix: DiaMatrix<T>) -> LevelOperator<T> {
        Self::new(RowClasses::from_dia_with_long_runs(&matrix), || matrix)
    }

    /// How the operator is stored — what the operator banner names.
    pub fn storage(&self) -> LevelStorage {
        match self {
            LevelOperator::Classes(c) => LevelStorage::RowClasses { classes: c.num_classes() },
            LevelOperator::Diagonals(d) => LevelStorage::Diagonals { diagonals: d.offsets().len() },
        }
    }

    /// Modeled flops and bytes of one traversal (a sweep or a residual):
    /// the operator's data, and for classes, whose data is a few dozen
    /// kilobytes, the four vectors of a sweep besides.
    fn traffic(&self) -> (u64, u64) {
        match self {
            LevelOperator::Classes(c) => {
                let vectors = 4 * c.dim() * std::mem::size_of::<T>();
                (c.apply_flops(), (c.streamed_bytes() + vectors) as u64)
            }
            LevelOperator::Diagonals(d) => (d.apply_flops(), d.streamed_bytes() as u64),
        }
    }

    fn jacobi_range(
        &self,
        x: &[T],
        b: &[T],
        inv_diag: &[T],
        omega: T,
        rows: Range<usize>,
        xn: &mut [T],
    ) {
        match self {
            LevelOperator::Classes(c) => c.jacobi_range(x, b, inv_diag, omega, rows, xn),
            LevelOperator::Diagonals(d) => d.jacobi_range(x, b, inv_diag, omega, rows, xn),
        }
    }

    fn residual_range(&self, x: &[T], b: &[T], rows: Range<usize>, r: &mut [T]) {
        match self {
            LevelOperator::Classes(c) => c.residual_range(x, b, rows, r),
            LevelOperator::Diagonals(d) => d.residual_range(x, b, rows, r),
        }
    }
}

impl LinearOperator for LevelOperator<f64> {
    fn dim(&self) -> usize {
        match self {
            LevelOperator::Classes(c) => c.dim(),
            LevelOperator::Diagonals(d) => d.dim(),
        }
    }

    fn apply_range(&self, x: &[f64], rows: Range<usize>, y: &mut [f64]) {
        match self {
            LevelOperator::Classes(c) => c.product_range(x, rows, y),
            LevelOperator::Diagonals(d) => d.product_into(x, rows, y),
        }
    }

    fn diagonal(&self) -> Vec<f64> {
        match self {
            LevelOperator::Classes(c) => c.diagonal(),
            LevelOperator::Diagonals(d) => d.diagonal(),
        }
    }

    fn streamed_bytes(&self) -> usize {
        match self {
            LevelOperator::Classes(c) => RowClasses::streamed_bytes(c),
            LevelOperator::Diagonals(d) => DiaMatrix::streamed_bytes(d),
        }
    }

    fn apply_flops(&self) -> u64 {
        match self {
            LevelOperator::Classes(c) => c.apply_flops(),
            LevelOperator::Diagonals(d) => d.apply_flops(),
        }
    }
}

/// One level of a hierarchy in the scalar `T`: the (Galerkin) operator and
/// its inverse diagonal for the smoother.  Read-only once built; the vectors
/// a cycle runs on are a [`LevelVectors`] of the cycle's own.
#[derive(Debug)]
struct Level<T: Scalar> {
    matrix: LevelOperator<T>,
    inv_diag: Vec<T>,
}

/// The vectors one cycle runs a level on.
#[derive(Debug, Clone)]
struct LevelVectors<T: Scalar> {
    x: Vec<T>,
    b: Vec<T>,
    // The down-leg residual — and, while smoothing, the write half of the
    // Jacobi ping-pong pair (`x` and `r` swap after every sweep).
    r: Vec<T>,
}

impl<T: Scalar> LevelVectors<T> {
    fn zeros(n: usize) -> LevelVectors<T> {
        LevelVectors { x: vec![T::ZERO; n], b: vec![T::ZERO; n], r: vec![T::ZERO; n] }
    }
}

impl<T: Scalar> Level<T> {
    /// The level whose operator is `exact` in `f64` and `matrix` in `T`.
    /// The inverse diagonal is taken in `f64` and rounded once.
    fn new(exact: &DiaMatrix, matrix: LevelOperator<T>) -> Level<T> {
        let inv_diag =
            crate::krylov::inverse_diagonal(exact).into_iter().map(T::from_f64).collect();
        Level { matrix, inv_diag }
    }

    fn rows(&self) -> usize {
        self.inv_diag.len()
    }

    /// The first sweep of a leg that starts from a zero iterate: the closed
    /// form `x = ω·D⁻¹·b` (A·0 vanishes), which touches no matrix.  With
    /// `entry = (rhs, scale)` the same pass first loads `b = rhs·scale`
    /// rounded to `T` — the cycle's way in from the caller's `f64` residual.
    fn sweep_from_zero(
        &self,
        v: &mut LevelVectors<T>,
        ops: &VectorOps<'_>,
        damping: T,
        entry: Option<(&[f64], f64)>,
    ) {
        let LevelVectors { x, b, .. } = v;
        let n = x.len();
        let inv_diag = &self.inv_diag;
        // The sweep this is the closed form of adds its correction to a
        // zero iterate; keeping the `0.0 +` keeps a `-0.0` correction the
        // `+0.0` it becomes there.
        let sweep = |bi: T, di: T| T::ZERO + damping * (bi * di);
        ops.for_each_share(n, (&mut x[..], &mut b[..]), |rows, (xs, bs)| {
            let ds = &inv_diag[rows.clone()];
            match entry {
                Some((rhs, scale)) => {
                    for (((xi, bi), di), ri) in xs.iter_mut().zip(bs).zip(ds).zip(&rhs[rows]) {
                        *bi = T::from_f64(ri * scale);
                        *xi = sweep(*bi, *di);
                    }
                }
                None => {
                    for ((xi, bi), di) in xs.iter_mut().zip(bs).zip(ds) {
                        *xi = sweep(*bi, *di);
                    }
                }
            }
        });
    }

    /// `sweeps` damped-Jacobi iterations on `A·x = b`, one dispatch and one
    /// pass over the operator each.
    fn smooth(&self, v: &mut LevelVectors<T>, ops: &VectorOps<'_>, sweeps: usize, damping: T) {
        let LevelVectors { x, b, r } = v;
        let Level { matrix, inv_diag } = self;
        let n = x.len();
        for _ in 0..sweeps {
            ops.for_each_share(n, &mut r[..], |rows, xn| {
                matrix.jacobi_range(x, b, inv_diag, damping, rows, xn);
            });
            std::mem::swap(x, r);
        }
    }

    /// `r = b − A·x`, one dispatch and one pass over the operator.
    fn residual(&self, v: &mut LevelVectors<T>, ops: &VectorOps<'_>) {
        let LevelVectors { x, b, r } = v;
        ops.for_each_share(x.len(), &mut r[..], |rows, rs| {
            self.matrix.residual_range(x, b, rows, rs);
        });
    }
}

/// `max |v|` over the entries that are not NaN — order-independent, so the
/// value (and the entry scale taken from it) owes nothing to a partition.
/// Eight running maxima keep the scan off one dependency chain.
fn max_abs(values: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let chunks = values.chunks_exact(8);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (m, v) in lanes.iter_mut().zip(chunk) {
            let a = v.abs();
            *m = if a > *m { a } else { *m };
        }
    }
    tail.iter().chain(&lanes).fold(0.0, |m, v| if v.abs() > m { v.abs() } else { m })
}

/// [`max_abs`] on the team of `ops`: each rank takes the maximum of its
/// share of the rows, and the partial maxima combine under the same
/// NaN-ignoring rule.  A maximum does not depend on the grouping, so the
/// value is the serial one, bit for bit, at every thread count.
fn max_abs_on(ops: &VectorOps<'_>, values: &[f64]) -> f64 {
    let n = values.len();
    let Some(team) = ops.team_above_cutoff(n) else {
        return max_abs(values);
    };
    let ranks = team.num_threads();
    let mut partials = vec![0.0f64; ranks];
    // One row of `partials` per rank, so each rank is handed its own.
    lv_runtime::for_each_share(Some(team), ranks, 1, &mut partials[..], |ranks_here, slots| {
        for (rank, slot) in ranks_here.zip(slots) {
            *slot = max_abs(&values[lv_runtime::partition(n, ranks, rank)]);
        }
    });
    max_abs(&partials)
}

/// The powers of two `(2^-e, 2^e)` with `e = ⌊log2 max⌋` read off the
/// exponent field, clamped so both stay normal `f64`s (a zero or subnormal
/// `max` scales by `2^1022`, an infinite one by `2^-1022`).  Multiplying by
/// either is exact short of under- and overflow.
fn entry_scale(max: f64) -> (f64, f64) {
    let e = (((max.to_bits() >> 52) & 0x7ff) as i64 - 1023).clamp(-1022, 1022);
    let pow2 = |e: i64| f64::from_bits(((1023 + e) as u64) << 52);
    (pow2(-e), pow2(e))
}

/// What a V-cycle reads and never writes: the levels (operators and
/// inverse diagonals), the transfers, the factored coarsest operator and
/// the smoother's parameters.  A pure function of the fine operator and the
/// interpolations, built once and shared by every clone of a cycle.
#[derive(Debug)]
struct Hierarchy<T: Scalar> {
    levels: Vec<Level<T>>,
    transfers: Vec<Transfer>,
    coarse_lu: DenseLu,
    sweeps: usize,
    damping: T,
}

/// The V-cycle proper, generic over the scalar its levels are stored and
/// smoothed in.  Production runs it at `f32` inside [`GeometricMultigrid`];
/// the `f64` instantiation exists for the tests, which hold it bit for bit
/// to the CSR reference cycle.
///
/// The hierarchy is shared; the vectors are the cycle's own.  A clone
/// allocates only them, and cycles run on clones give the bits of cycles
/// run on independently built instances: nothing a cycle writes outlives
/// it in a way the next cycle reads (every vector is written before it is
/// read).
#[derive(Debug, Clone)]
struct Cycle<T: Scalar> {
    hierarchy: Arc<Hierarchy<T>>,
    vectors: Vec<LevelVectors<T>>,
    // `f64` staging of the coarsest level's `b` and `x` around the LU solve.
    coarse_b: Vec<f64>,
    coarse_x: Vec<f64>,
}

/// How the builder is handed one level's `P`.
#[derive(Debug, Clone)]
enum Coarsening {
    /// The exact trilinear stencil of two nested lattices: the Galerkin
    /// product runs once per key ([`galerkin_on_lattices`]) and the
    /// transfer is the stencil.
    Lattice(NestedLattices),
    /// `P` entry by entry: the product runs row by row, and the transfer
    /// takes the storage its entries ask for ([`Transfer::new`]).
    Csr(Interpolation),
}

impl Coarsening {
    /// The transfer a cycle in `T` keeps.
    fn transfer<T: Scalar>(self) -> Transfer {
        match self {
            Coarsening::Lattice(lattices) => Transfer::Stencil(lattices),
            Coarsening::Csr(p) => Transfer::new::<T>(p),
        }
    }

    /// The transfer kept in CSR whatever its entries: the reference the
    /// tests hold the stencil transfers to.
    #[cfg(test)]
    fn csr_transfer(self) -> Transfer {
        match self {
            Coarsening::Lattice(lattices) => {
                Transfer::Csr(Interpolation::trilinear(lattices.coarse))
            }
            Coarsening::Csr(p) => Transfer::Csr(p),
        }
    }
}

impl<T: Scalar> Cycle<T> {
    /// See [`GeometricMultigrid::from_diagonals`], which also checks the
    /// arguments.  Each transfer takes the storage its entries ask for.
    fn new(
        fine: &DiaMatrix,
        interps: Vec<Interpolation>,
        options: &MultigridOptions,
    ) -> Option<Cycle<T>> {
        let coarsening = interps.into_iter().map(Coarsening::Csr).collect();
        Self::build(fine, None, coarsening, options, Coarsening::transfer::<T>)
    }

    /// [`Cycle::new`] with every transfer kept in CSR: the reference the
    /// tests hold the stencil transfers to.
    #[cfg(test)]
    fn with_csr_transfers(
        fine: &DiaMatrix,
        interps: Vec<Interpolation>,
        options: &MultigridOptions,
    ) -> Option<Cycle<T>> {
        let coarsening = interps.into_iter().map(Coarsening::Csr).collect();
        Self::build(fine, None, coarsening, options, Coarsening::csr_transfer)
    }

    /// The hierarchy of `fine` over `coarsening`, all on diagonals: each
    /// coarse level is the Galerkin product of the one above it in `f64`
    /// (once per key where `P` is a lattice stencil, row by row otherwise),
    /// filled in `T` straight from it; the `f64` form of a level is dropped
    /// once the next product and its inverse diagonal have read it, and the
    /// coarsest one's once it is factored.  `keys` are `fine`'s exact-bit
    /// row classes when the caller has them.
    fn build(
        fine: &DiaMatrix,
        mut keys: Option<Vec<u32>>,
        coarsening: Vec<Coarsening>,
        options: &MultigridOptions,
        transfer: fn(Coarsening) -> Transfer,
    ) -> Option<Cycle<T>> {
        let fine_operator =
            LevelOperator::new(RowClasses::from_dia_with_long_runs(fine), || fine.cast());
        let mut levels = vec![Level::new(fine, fine_operator)];
        let mut matrix = Cow::Borrowed(fine);
        // `keys`: the key ids of `matrix`'s rows when the caller or a
        // lattice product has them; a level that has none is classified
        // when a product asks.
        for step in &coarsening {
            let coarse = match step {
                Coarsening::Lattice(lattices) => {
                    let classes = keys.take().unwrap_or_else(|| exact_row_classes(&matrix));
                    let (coarse, coarse_keys) =
                        galerkin_on_lattices(&matrix, &classes, lattices.coarse)?;
                    keys = Some(coarse_keys);
                    coarse
                }
                Coarsening::Csr(p) => {
                    keys = None;
                    galerkin::galerkin_on_diagonals(&matrix, p)?
                }
            };
            let narrow = coarse.cast::<T>();
            let operator =
                LevelOperator::new(RowClasses::from_dia_with_long_runs(&narrow), || narrow);
            levels.push(Level::new(&coarse, operator));
            matrix = Cow::Owned(coarse);
        }
        let coarse_lu = DenseLu::from_dia(&matrix)?;
        let coarse = matrix.dim();
        drop(matrix);
        let vectors = levels.iter().map(|l| LevelVectors::zeros(l.rows())).collect();
        let transfers = coarsening.into_iter().map(transfer).collect();
        let hierarchy = Hierarchy {
            levels,
            transfers,
            coarse_lu,
            sweeps: options.smoothing_sweeps,
            damping: T::from_f64(options.damping),
        };
        Some(Cycle {
            hierarchy: Arc::new(hierarchy),
            vectors,
            coarse_b: vec![0.0; coarse],
            coarse_x: vec![0.0; coarse],
        })
    }

    /// One V-cycle: `z ≈ A⁻¹·rhs` starting from zero, bitwise identical for
    /// every thread count of `ops`.
    ///
    /// The cycle is linear, so it runs on `rhs·2^-e` with
    /// `e = ⌊log2 max|rhs|⌋` and hands back `z·2^e`: whatever the magnitude
    /// of the caller's residual, the levels see entries of at most 2 and
    /// `T` neither under- nor overflows (a zero `rhs` gives a zero `z`).
    /// Both factors are exact, so in `f64` they change no bit.  The
    /// maximum and the closing scaled copy run on the team like every
    /// other pass of the cycle.
    fn v_cycle(&mut self, ops: &VectorOps<'_>, rhs: &[f64], z: &mut [f64]) {
        let hierarchy = &*self.hierarchy;
        let Hierarchy { levels, transfers, coarse_lu, sweeps, damping } = hierarchy;
        let (sweeps, damping) = (*sweeps, *damping);
        let vectors = &mut self.vectors;
        let nl = levels.len();
        assert_eq!(rhs.len(), levels[0].rows());
        assert_eq!(z.len(), rhs.len());
        let trace = ops.trace();
        let cycle = trace.map(|t| t.span(lv_trace::spans::MG_VCYCLE, 0).iters(1));
        // Per-level event: `aux` carries the level index, `iters` the smooth
        // sweeps, and the traffic model counts the operator traversals and
        // the leg's transfer.
        let level_span = |l: usize, sweeps: u64, flops: u64, bytes: u64| {
            trace.map(|t| {
                t.span(lv_trace::spans::MG_LEVEL, 0)
                    .iters(sweeps)
                    .flops(flops)
                    .bytes(bytes)
                    .aux(l as u64)
            })
        };
        // A leg traverses the matrix `sweeps` times either way: down, the
        // first sweep from zero touches no matrix and the residual takes
        // its place; up, every sweep is one traversal.  Down ends in a
        // restriction, up starts with a prolongation: one transfer each.
        let leg_span = |l: usize| {
            let (flops, bytes) = levels[l].matrix.traffic();
            let (transfer_flops, transfer_bytes) = transfers[l].traffic::<T>();
            let sweeps = sweeps as u64;
            level_span(l, sweeps, sweeps * flops + transfer_flops, sweeps * bytes + transfer_bytes)
        };
        let (scale, unscale) = entry_scale(max_abs_on(ops, rhs));
        for l in 0..nl - 1 {
            let (fine_half, coarse_half) = vectors.split_at_mut(l + 1);
            let (level, v, next) = (&levels[l], &mut fine_half[l], &mut coarse_half[0]);
            let span = leg_span(l);
            level.sweep_from_zero(v, ops, damping, (l == 0).then_some((rhs, scale)));
            level.smooth(v, ops, sweeps - 1, damping);
            level.residual(v, ops);
            transfers[l].restrict(ops, &v.r, &mut next.b);
            drop(span);
        }
        {
            let last = vectors.last_mut().unwrap();
            // The two dense triangular solves: one multiply-add per LU entry.
            let dense = (coarse_lu.n * coarse_lu.n) as u64;
            let span = level_span(nl - 1, 0, 2 * dense, 8 * dense);
            for (wide, narrow) in self.coarse_b.iter_mut().zip(&last.b) {
                *wide = narrow.to_f64();
            }
            coarse_lu.solve_into(&self.coarse_b, &mut self.coarse_x);
            for (narrow, wide) in last.x.iter_mut().zip(&self.coarse_x) {
                *narrow = T::from_f64(*wide);
            }
            drop(span);
        }
        for l in (0..nl - 1).rev() {
            let (fine_half, coarse_half) = vectors.split_at_mut(l + 1);
            let (level, v, next) = (&levels[l], &mut fine_half[l], &coarse_half[0]);
            let span = leg_span(l);
            transfers[l].prolong_add(ops, &next.x, &mut v.x);
            level.smooth(v, ops, sweeps, damping);
            drop(span);
        }
        let x = &vectors[0].x;
        ops.for_each_share(z.len(), z, |rows, zs| {
            for (zi, xi) in zs.iter_mut().zip(&x[rows]) {
                *zi = xi.to_f64() * unscale;
            }
        });
        drop(cycle);
    }
}

/// The geometric multigrid V-cycle preconditioner.
///
/// Holds the level hierarchy — operators, inverse diagonals, transfers and
/// the coarse LU — behind an [`Arc`], and its own scratch vectors; apply it
/// through [`Preconditioner::apply`] or drive a full solve with
/// [`mg_preconditioned_cg_on`].  A clone shares the hierarchy and allocates
/// only the per-level vectors and the LU staging, so solvers that run
/// concurrently on one mesh build it once; cycles on a clone have the bits
/// of cycles on an instance built from scratch.
///
/// **Mixed precision.**  The cycle's levels, vectors and arithmetic are
/// `f32` — a preconditioner only has to be close to `A⁻¹`, and in `f32` a
/// level streams half the bytes through twice the vector lanes — under an
/// outer CG that keeps `f64` vectors and an `f64` fine-grid product
/// ([`fine_operator`](Self::fine_operator)); only the ≤ 80-row coarsest
/// LU solve stays `f64`.  A rounded cycle is no longer exactly one fixed
/// symmetric operator, which it says through
/// [`Preconditioner::is_inexact`]; CG answers with its flexible `β`.
#[derive(Debug, Clone)]
pub struct GeometricMultigrid {
    // The finest operator in `f64`, in the storage its rows chose — the
    // outer CG's; shared so the CG can run its product through it while the
    // preconditioner is borrowed mutably.  The cycle's levels are `f32`.
    fine: Arc<LevelOperator>,
    cycle: Cycle<f32>,
}

impl GeometricMultigrid {
    /// Builds the hierarchy from the finest (pinned) operator in CSR and
    /// the chain of interpolations: [`from_diagonals`](Self::from_diagonals)
    /// of [`DiaMatrix::from_csr`] of `fine`, or `None` when `fine` has more
    /// than [`crate::dia::MAX_DIAGONALS`] distinct offsets (e.g. a
    /// renumbered mesh) or that builder says `None`.
    ///
    /// # Panics
    /// As [`from_diagonals`](Self::from_diagonals).
    pub fn new(
        fine: &CsrMatrix,
        interps: Vec<Interpolation>,
        options: &MultigridOptions,
    ) -> Option<GeometricMultigrid> {
        Self::from_diagonals(&DiaMatrix::from_csr(fine)?, interps, options)
    }

    /// Builds the hierarchy from the finest (pinned) operator on its
    /// diagonals and the chain of interpolations (`interps[l]` maps level
    /// `l+1` → level `l`; coarse operators are Galerkin products, computed
    /// row by row on diagonals with the bits of [`galerkin_coarse`]; each
    /// transfer takes the storage its entries ask for,
    /// [`TransferStorage`]).  `fine`, in the storage its rows choose
    /// ([`LevelOperator::from_diagonals`]), becomes the hierarchy's
    /// [`fine_operator`](Self::fine_operator); the caller may drop its
    /// diagonals.  Returns `None` when a coarse level's pattern is not a
    /// lattice stencil (more than [`crate::dia::MAX_DIAGONALS`] distinct
    /// offsets — e.g. the level below a jittered box) or when the coarsest
    /// operator is numerically singular.
    ///
    /// # Panics
    /// Panics when the interpolation chain dimensions do not match, when
    /// the chain is empty, or on nonsensical options (zero sweeps,
    /// non-positive damping).
    pub fn from_diagonals(
        fine: &DiaMatrix,
        interps: Vec<Interpolation>,
        options: &MultigridOptions,
    ) -> Option<GeometricMultigrid> {
        assert!(!interps.is_empty(), "multigrid needs at least one coarse level");
        check_options(options);
        assert_eq!(interps[0].fine_nodes, fine.dim(), "finest interpolation mismatch");
        for pair in interps.windows(2) {
            assert_eq!(pair[0].coarse_nodes, pair[1].fine_nodes, "interpolation chain mismatch");
        }
        let cycle = Cycle::new(fine, interps, options)?;
        let fine = LevelOperator::new(RowClasses::from_dia_with_long_runs(fine), || fine.clone());
        Some(GeometricMultigrid { fine: Arc::new(fine), cycle })
    }

    /// Builds the hierarchy of the finest (pinned) operator `fine` of a box
    /// lattice over its chain of nested lattices, given as node counts per
    /// direction, finest first (`chain[0]` is `fine`'s lattice, each next
    /// one has `c` nodes where the one before has `2·c − 1`): every `P` is
    /// the exact trilinear stencil ([`Interpolation::trilinear`]), applied
    /// by lattice index and never stored, and every coarse operator the
    /// Galerkin product computed once per key ([`galerkin_on_lattices`]) —
    /// no CSR matrix anywhere.  The [`fine_operator`](Self::fine_operator)
    /// takes its row classes from the exact-bit classes the first product
    /// keys on ([`RowClasses::from_row_ids_with_long_runs`]), with no
    /// further scan of the values.  `None` as for
    /// [`from_diagonals`](Self::from_diagonals).
    ///
    /// # Panics
    /// Panics when the chain has fewer than two lattices, does not nest or
    /// does not start at `fine`'s row count, or on nonsensical options.
    pub fn on_lattice_chain(
        fine: &DiaMatrix,
        chain: &[[usize; 3]],
        options: &MultigridOptions,
    ) -> Option<GeometricMultigrid> {
        assert!(chain.len() >= 2, "multigrid needs at least one coarse level");
        check_options(options);
        assert_eq!(NestedLattices::nodes(chain[0]), fine.dim(), "finest lattice mismatch");
        let coarsening = chain
            .windows(2)
            .map(|pair| {
                let lattices = NestedLattices::over(pair[1]);
                assert_eq!(lattices.fine, pair[0], "the lattices of the chain must nest");
                Coarsening::Lattice(lattices)
            })
            .collect();
        let keys = exact_row_classes(fine);
        let classes = RowClasses::from_row_ids_with_long_runs(fine, &keys);
        let cycle =
            Cycle::build(fine, Some(keys), coarsening, options, Coarsening::transfer::<f32>)?;
        let fine = LevelOperator::new(classes, || fine.clone());
        Some(GeometricMultigrid { fine: Arc::new(fine), cycle })
    }

    /// Number of levels, finest included.
    pub fn num_levels(&self) -> usize {
        self.cycle.hierarchy.levels.len()
    }

    /// Rows per level, finest first.
    pub fn level_rows(&self) -> Vec<usize> {
        self.cycle.hierarchy.levels.iter().map(Level::rows).collect()
    }

    /// How each level stores its operator, finest first: the storage its
    /// matrix chose for every smoothed level, [`LevelStorage::DenseLu`] for
    /// the coarsest.  Reporting only — nothing selects a storage but the
    /// level's own rows.
    pub fn level_storage(&self) -> Vec<LevelStorage> {
        let levels = &self.cycle.hierarchy.levels;
        let smoothed = &levels[..levels.len() - 1];
        smoothed
            .iter()
            .map(|l| l.matrix.storage())
            .chain(std::iter::once(LevelStorage::DenseLu))
            .collect()
    }

    /// How each smoothed level stores the transfer to the level below it,
    /// finest first (one fewer than [`level_storage`](Self::level_storage)):
    /// [`TransferStorage::Stencil`] where its `P` is the trilinear stencil
    /// of the two lattices in the cycle's `f32`, CSR otherwise.  Reporting
    /// only — nothing selects a storage but the transfer's own entries.
    pub fn transfer_storage(&self) -> Vec<TransferStorage> {
        self.cycle.hierarchy.transfers.iter().map(Transfer::storage).collect()
    }

    /// The `f64` operator of the finest level — the matrix the hierarchy
    /// was built from, as its row classes where they pay (every product
    /// bit for bit the diagonals'), shared — hand it to
    /// [`mg_preconditioned_cg_on`] as the outer operator.  The coarse levels
    /// exist in the cycle's `f32` only.
    pub fn fine_operator(&self) -> Arc<LevelOperator> {
        Arc::clone(&self.fine)
    }

    /// One V-cycle: `z ≈ A⁻¹·rhs` starting from zero, a symmetric
    /// positive-definite linear map of `rhs` up to `f32` rounding, bitwise
    /// identical for every thread count of `ops` and exactly homogeneous
    /// under powers of two (`v_cycle(2^k·rhs) = 2^k·v_cycle(rhs)`).
    pub fn v_cycle(&mut self, ops: &mut VectorOps<'_>, rhs: &[f64], z: &mut [f64]) {
        self.cycle.v_cycle(ops, rhs, z);
    }
}

impl Preconditioner for GeometricMultigrid {
    fn apply(&mut self, ops: &mut VectorOps<'_>, r: &[f64], z: &mut [f64]) {
        self.v_cycle(ops, r, z);
    }

    fn is_inexact(&self) -> bool {
        true
    }
}

/// Multigrid-preconditioned Conjugate Gradient against any fine-grid
/// operator backend, on `team` (the V-cycle *is* the preconditioner).
pub fn mg_preconditioned_cg_on(
    team: &Team,
    operator: &dyn LinearOperator,
    multigrid: &mut GeometricMultigrid,
    b: &[f64],
    options: &SolveOptions,
) -> Result<SolveOutcome, SolverError> {
    conjugate_gradient_with(operator, b, options, &mut VectorOps::on_team(team), multigrid)
}

/// The V-cycle as it ran before the levels moved to diagonal storage —
/// CSR levels, a `BTreeMap` per coarse row in the Galerkin product, four
/// vector kernels per smoothing sweep.  The reference the tests hold the
/// `f64` instantiation of the production cycle to, bit for bit.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::collections::BTreeMap;

    pub(super) fn galerkin_coarse_btree(a: &CsrMatrix, p: &Interpolation) -> CsrMatrix {
        assert_eq!(a.dim(), p.fine_nodes);
        let (arp, aci, av) = (a.row_ptr(), a.col_idx(), a.values());
        let mut rows: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); p.coarse_nodes];
        for k in 0..p.fine_nodes {
            for ii in p.row_ptr[k]..p.row_ptr[k + 1] {
                let ci = p.col_idx[ii];
                let wi = p.weights[ii];
                for jj in arp[k]..arp[k + 1] {
                    let akj = av[jj];
                    if akj == 0.0 {
                        continue;
                    }
                    let j = aci[jj];
                    let wa = wi * akj;
                    for ll in p.row_ptr[j]..p.row_ptr[j + 1] {
                        *rows[ci].entry(p.col_idx[ll]).or_insert(0.0) += wa * p.weights[ll];
                    }
                }
            }
        }
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        for row in &rows {
            for (&c, &v) in row {
                col_idx.push(c);
                vals.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        let mut matrix = CsrMatrix::from_pattern(row_ptr, col_idx);
        let (_, _, values) = matrix.pattern_and_values_mut();
        values.copy_from_slice(&vals);
        matrix
    }

    struct CsrLevel {
        matrix: CsrMatrix,
        inv_diag: Vec<f64>,
        x: Vec<f64>,
        b: Vec<f64>,
        r: Vec<f64>,
        t: Vec<f64>,
    }

    impl CsrLevel {
        fn new(matrix: CsrMatrix) -> CsrLevel {
            let n = matrix.dim();
            let inv_diag = crate::krylov::inverse_diagonal(&matrix);
            let zeros = || vec![0.0; n];
            CsrLevel { matrix, inv_diag, x: zeros(), b: zeros(), r: zeros(), t: zeros() }
        }

        fn smooth(&mut self, ops: &mut VectorOps<'_>, sweeps: usize, damping: f64, zero: bool) {
            let mut remaining = sweeps;
            if zero {
                self.x.fill(0.0);
                ops.hadamard(&self.b, &self.inv_diag, &mut self.t);
                ops.axpy(damping, &self.t, &mut self.x);
                remaining -= 1;
            }
            for _ in 0..remaining {
                ops.spmv(&self.matrix, &self.x, &mut self.t);
                ops.scaled_diff(&self.b, 1.0, &self.t, &mut self.r);
                ops.hadamard(&self.r, &self.inv_diag, &mut self.t);
                ops.axpy(damping, &self.t, &mut self.x);
            }
        }
    }

    pub(super) struct CsrMultigrid {
        levels: Vec<CsrLevel>,
        interps: Vec<Interpolation>,
        coarse_lu: DenseLu,
        sweeps: usize,
        damping: f64,
    }

    impl CsrMultigrid {
        pub(super) fn new(
            fine: &CsrMatrix,
            interps: Vec<Interpolation>,
            options: &MultigridOptions,
        ) -> CsrMultigrid {
            let mut levels = vec![CsrLevel::new(fine.clone())];
            for p in &interps {
                let coarse = galerkin_coarse_btree(&levels.last().unwrap().matrix, p);
                levels.push(CsrLevel::new(coarse));
            }
            let coarse_lu = DenseLu::from_csr(&levels.last().unwrap().matrix).expect("SPD");
            let (sweeps, damping) = (options.smoothing_sweeps, options.damping);
            CsrMultigrid { levels, interps, coarse_lu, sweeps, damping }
        }

        /// The CSR operator of every level, finest first.
        pub(super) fn matrices(&self) -> Vec<&CsrMatrix> {
            self.levels.iter().map(|l| &l.matrix).collect()
        }
    }

    impl Preconditioner for CsrMultigrid {
        fn apply(&mut self, ops: &mut VectorOps<'_>, rhs: &[f64], z: &mut [f64]) {
            let nl = self.levels.len();
            self.levels[0].b.copy_from_slice(rhs);
            for l in 0..nl - 1 {
                let (fine_half, coarse_half) = self.levels.split_at_mut(l + 1);
                let level = &mut fine_half[l];
                level.smooth(ops, self.sweeps, self.damping, true);
                ops.spmv(&level.matrix, &level.x, &mut level.t);
                ops.scaled_diff(&level.b, 1.0, &level.t, &mut level.r);
                self.interps[l].restrict(ops, &level.r, &mut coarse_half[0].b);
            }
            let last = self.levels.last_mut().unwrap();
            self.coarse_lu.solve_into(&last.b, &mut last.x);
            for l in (0..nl - 1).rev() {
                let (fine_half, coarse_half) = self.levels.split_at_mut(l + 1);
                let level = &mut fine_half[l];
                self.interps[l].prolong_add(ops, &coarse_half[0].x, &mut level.x);
                level.smooth(ops, self.sweeps, self.damping, false);
            }
            z.copy_from_slice(&self.levels[0].x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::krylov::conjugate_gradient_on;

    /// 1-D Dirichlet Laplacian on `n` interior nodes of a unit interval.
    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut dense = vec![vec![0.0; n]; n];
        for (i, row) in dense.iter_mut().enumerate() {
            row[i] = 2.0;
            if i > 0 {
                row[i - 1] = -1.0;
            }
            if i + 1 < n {
                row[i + 1] = -1.0;
            }
        }
        CsrMatrix::from_dense(&dense)
    }

    /// Linear interpolation from `nc` coarse interior nodes to `2*nc + 1`
    /// fine interior nodes (the classic 1-D nested-grid prolongation).
    fn linear_interpolation_1d(nc: usize) -> Interpolation {
        let nf = 2 * nc + 1;
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut weights = Vec::new();
        for f in 0..nf {
            if f % 2 == 1 {
                col_idx.push(f / 2);
                weights.push(1.0);
            } else {
                if f > 0 {
                    col_idx.push(f / 2 - 1);
                    weights.push(0.5);
                }
                if f / 2 < nc {
                    col_idx.push(f / 2);
                    weights.push(0.5);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Interpolation::from_csr(nc, row_ptr, col_idx, weights)
    }

    fn interpolation_dense(p: &Interpolation) -> Vec<Vec<f64>> {
        let mut dense = vec![vec![0.0; p.coarse_nodes]; p.fine_nodes];
        for (f, row) in dense.iter_mut().enumerate() {
            for idx in p.row_ptr[f]..p.row_ptr[f + 1] {
                row[p.col_idx[idx]] = p.weights[idx];
            }
        }
        dense
    }

    #[test]
    fn restriction_is_the_exact_transpose_of_prolongation() {
        let p = linear_interpolation_1d(7);
        let dense = interpolation_dense(&p);
        let coarse_in: Vec<f64> = (0..7).map(|i| (i as f64 * 0.7).sin()).collect();
        let fine_in: Vec<f64> = (0..15).map(|i| (i as f64 * 0.3).cos()).collect();
        let ops = VectorOps::serial();

        let mut fine_out = vec![0.0; 15];
        p.prolong_add(&ops, &coarse_in, &mut fine_out);
        for f in 0..15 {
            let expect: f64 = (0..7).map(|c| dense[f][c] * coarse_in[c]).sum();
            assert!((fine_out[f] - expect).abs() < 1e-15);
        }

        let mut coarse_out = vec![0.0; 7];
        p.restrict(&ops, &fine_in, &mut coarse_out);
        for c in 0..7 {
            let expect: f64 = (0..15).map(|f| dense[f][c] * fine_in[f]).sum();
            assert!((coarse_out[c] - expect).abs() < 1e-15);
        }
    }

    #[test]
    fn galerkin_product_matches_dense_triple_product() {
        let a = laplacian_1d(15);
        let p = linear_interpolation_1d(7);
        let coarse = galerkin_coarse(&a, &p);
        let pd = interpolation_dense(&p);
        for i in 0..7 {
            for j in 0..7 {
                let mut expect = 0.0;
                for k in 0..15 {
                    for l in 0..15 {
                        expect += pd[k][i] * a.get(k, l) * pd[l][j];
                    }
                }
                assert!(
                    (coarse.get(i, j) - expect).abs() < 1e-12,
                    "coarse[{i}][{j}] = {} != {expect}",
                    coarse.get(i, j)
                );
            }
        }
        // The 1-D nested-grid Galerkin operator is the coarse Laplacian
        // scaled by 1/2 — a quick sanity anchor.
        assert!((coarse.get(3, 3) - 1.0).abs() < 1e-12);
        assert!((coarse.get(3, 4) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn dense_lu_matches_dense_solver() {
        let a = laplacian_1d(12);
        let b: Vec<f64> = (0..12).map(|i| ((i * 5 + 2) % 7) as f64 - 3.0).collect();
        let lu = DenseLu::from_csr(&a).expect("nonsingular");
        let mut x = vec![0.0; 12];
        lu.solve_into(&b, &mut x);
        let rows: Vec<Vec<f64>> = (0..12).map(|i| (0..12).map(|j| a.get(i, j)).collect()).collect();
        let expect = DenseMatrix::from_rows(&rows).solve(&b).unwrap();
        for i in 0..12 {
            assert!((x[i] - expect[i]).abs() < 1e-10, "component {i}");
        }
    }

    #[test]
    fn singular_coarse_operator_is_reported() {
        let n = 7;
        let singular = CsrMatrix::from_dense(&vec![vec![0.0; n]; n]);
        assert!(DenseLu::from_csr(&singular).is_none());
    }

    fn two_level_1d(nc: usize, options: &MultigridOptions) -> (CsrMatrix, GeometricMultigrid) {
        let nf = 2 * nc + 1;
        let a = laplacian_1d(nf);
        let p = linear_interpolation_1d(nc);
        let mg = GeometricMultigrid::new(&a, vec![p], options).expect("SPD hierarchy");
        (a, mg)
    }

    /// The `f64` instantiation of the production cycle: the same source run
    /// at the precision of the CSR reference, so the two can be compared
    /// bit for bit.  An exact cycle, hence plain-`β` CG.
    fn cycle_f64(a: &CsrMatrix, interps: Vec<Interpolation>) -> Cycle<f64> {
        let dia = DiaMatrix::from_csr(a).expect("a lattice stencil");
        Cycle::new(&dia, interps, &MultigridOptions::default()).expect("SPD hierarchy")
    }

    impl Preconditioner for Cycle<f64> {
        fn apply(&mut self, ops: &mut VectorOps<'_>, r: &[f64], z: &mut [f64]) {
            self.v_cycle(ops, r, z);
        }
    }

    /// The V-cycle must be a symmetric operator: `e_iᵀ·M⁻¹·e_j` computed
    /// both ways agrees to rounding — `f64` rounding for the exact cycle,
    /// `f32` rounding for the production one.  (Equal pre/post damped-Jacobi
    /// sweeps + Galerkin coarse operators + exact coarse solve ⇒ symmetric.)
    #[test]
    fn v_cycle_is_a_symmetric_preconditioner() {
        let (a, mut mg) = two_level_1d(15, &MultigridOptions::default());
        let mut exact = cycle_f64(&a, vec![linear_interpolation_1d(15)]);
        let n = 31;
        let mut ops = VectorOps::serial();
        for (i, j) in [(0usize, 7usize), (3, 19), (11, 30)] {
            let mut ei = vec![0.0; n];
            ei[i] = 1.0;
            let mut ej = vec![0.0; n];
            ej[j] = 1.0;
            let (mut mi, mut mj) = (vec![0.0; n], vec![0.0; n]);
            exact.v_cycle(&ops, &ei, &mut mi);
            exact.v_cycle(&ops, &ej, &mut mj);
            assert!(
                (mi[j] - mj[i]).abs() < 1e-13 * (1.0 + mi[j].abs()),
                "f64 asymmetry at ({i},{j}): {} vs {}",
                mi[j],
                mj[i]
            );
            mg.v_cycle(&mut ops, &ei, &mut mi);
            mg.v_cycle(&mut ops, &ej, &mut mj);
            assert!(
                (mi[j] - mj[i]).abs() < 16.0 * f64::from(f32::EPSILON) * (1.0 + mi[j].abs()),
                "f32 asymmetry at ({i},{j}): {} vs {}",
                mi[j],
                mj[i]
            );
        }
    }

    #[test]
    fn mgcg_beats_plain_cg_on_the_1d_laplacian() {
        let (a, mut mg) = two_level_1d(63, &MultigridOptions::default());
        let n = 127;
        let b: Vec<f64> = (0..n).map(|i| (i as f64 / n as f64 * 3.1).sin()).collect();
        let options = SolveOptions::default();
        let plain =
            conjugate_gradient_on(&Team::new(1), &a, &b, &options).expect("plain CG converges");
        let mgcg = mg_preconditioned_cg_on(&Team::new(1), &a, &mut mg, &b, &options)
            .expect("MG-CG converges");
        assert!(
            mgcg.iterations < plain.iterations / 2,
            "MG-CG ({}) should need far fewer iterations than CG ({})",
            mgcg.iterations,
            plain.iterations
        );
        let residual: Vec<f64> =
            a.mul_vec(&mgcg.solution).iter().zip(&b).map(|(ax, bi)| ax - bi).collect();
        let rel = residual.iter().map(|x| x * x).sum::<f64>().sqrt()
            / b.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(rel < 1e-9, "true residual {rel}");
    }

    /// The headline contract: V-cycles and full MG-CG solves are bitwise
    /// identical for threads ∈ {1, 2, 4}.  The fine level clears
    /// `SERIAL_CUTOFF` so the pooled paths really fork.
    #[test]
    fn mgcg_is_bitwise_reproducible_across_thread_counts() {
        let nc = 1023; // fine level: 2047 rows
        let (a, mut mg) = two_level_1d(nc, &MultigridOptions::default());
        let n = 2 * nc + 1;
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % 29) as f64 / 7.0 - 2.0).collect();
        let options = SolveOptions { tolerance: 1e-9, ..Default::default() };
        let reference = mg_preconditioned_cg_on(&Team::new(1), &a, &mut mg, &b, &options)
            .expect("serial MG-CG");
        for threads in [1usize, 2, 4] {
            let team = Team::new(threads);
            let got =
                mg_preconditioned_cg_on(&team, &a, &mut mg, &b, &options).expect("pooled MG-CG");
            assert_eq!(got.iterations, reference.iterations, "threads={threads}");
            for (x, y) in reference.residual_history.iter().zip(&got.residual_history) {
                assert_eq!(x.to_bits(), y.to_bits(), "history threads={threads}");
            }
            for (x, y) in reference.solution.iter().zip(&got.solution) {
                assert_eq!(x.to_bits(), y.to_bits(), "solution threads={threads}");
            }
        }
    }

    /// Node positions of a 1-D grid of `2^k + 1` points, nudged off uniform
    /// (ends fixed) so no two rows of the operators below repeat.
    fn jittered_grid(points: usize, seed: u64) -> Vec<f64> {
        let h = 1.0 / (points - 1) as f64;
        (0..points)
            .map(|i| {
                let t = (i as u64 + 1).wrapping_mul(6364136223846793005).wrapping_add(seed);
                let nudge = ((t >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                let inner = i > 0 && i + 1 < points;
                h * (i as f64 + if inner { 0.3 * nudge } else { 0.0 })
            })
            .collect()
    }

    /// Dense linear-FE stiffness and mass matrices of a 1-D grid.
    fn fe_1d(grid: &[f64]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let n = grid.len();
        let (mut k, mut m) = (vec![vec![0.0; n]; n], vec![vec![0.0; n]; n]);
        for e in 0..n - 1 {
            let h = grid[e + 1] - grid[e];
            for (a, b, sign, mass) in [
                (e, e, 1.0, 3.0),
                (e, e + 1, -1.0, 6.0),
                (e + 1, e, -1.0, 6.0),
                (e + 1, e + 1, 1.0, 3.0),
            ] {
                k[a][b] += sign / h;
                m[a][b] += h / mass;
            }
        }
        (k, m)
    }

    /// The trilinear-FE Laplacian `K⊗M⊗M + M⊗K⊗M + M⊗M⊗K` on the tensor
    /// grid, nodes in generator order (x fastest): the 27-point lattice
    /// stencil of the pressure operator, with row-dependent values.
    fn lattice_laplacian(grids: [&[f64]; 3]) -> CsrMatrix {
        let [(kx, mx), (ky, my), (kz, mz)] = grids.map(fe_1d);
        let [nx, ny, nz] = grids.map(<[f64]>::len);
        let near = |i: usize, n: usize| i.saturating_sub(1)..(i + 2).min(n);
        let mut row_ptr = vec![0];
        let (mut col_idx, mut vals) = (Vec::new(), Vec::new());
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    for k2 in near(k, nz) {
                        for j2 in near(j, ny) {
                            for i2 in near(i, nx) {
                                col_idx.push(i2 + nx * (j2 + ny * k2));
                                vals.push(
                                    kx[i][i2] * my[j][j2] * mz[k][k2]
                                        + mx[i][i2] * ky[j][j2] * mz[k][k2]
                                        + mx[i][i2] * my[j][j2] * kz[k][k2],
                                );
                            }
                        }
                    }
                    row_ptr.push(col_idx.len());
                }
            }
        }
        let mut matrix = CsrMatrix::from_pattern(row_ptr, col_idx);
        matrix.pattern_and_values_mut().2.copy_from_slice(&vals);
        matrix
    }

    /// 1-D linear interpolation weights from every other point of `grid`:
    /// per fine point, `(coarse index, weight)` pairs in ascending order.
    fn interpolation_weights_1d(grid: &[f64]) -> Vec<Vec<(usize, f64)>> {
        (0..grid.len())
            .map(|f| {
                if f % 2 == 0 {
                    vec![(f / 2, 1.0)]
                } else {
                    let w = (grid[f] - grid[f - 1]) / (grid[f + 1] - grid[f - 1]);
                    vec![(f / 2, 1.0 - w), (f / 2 + 1, w)]
                }
            })
            .collect()
    }

    /// Trilinear interpolation onto the tensor grid from its every-other-
    /// point coarsening.
    fn lattice_interpolation(grids: [&[f64]; 3]) -> Interpolation {
        tensor_interpolation(grids.map(interpolation_weights_1d))
    }

    /// The tensor product of per-direction weights (`[d][fine index]`, as
    /// `(coarse index, weight)` pairs in ascending order) between the two
    /// lattices, which it names.
    fn tensor_interpolation(weights_1d: [Vec<Vec<(usize, f64)>>; 3]) -> Interpolation {
        let [wx, wy, wz] = &weights_1d;
        let fine = [wx.len(), wy.len(), wz.len()];
        let [cx, cy, cz] = fine.map(|f| f / 2 + 1);
        let mut row_ptr = vec![0];
        let (mut col_idx, mut weights) = (Vec::new(), Vec::new());
        for wk in wz {
            for wj in wy {
                for wi in wx {
                    for &(k, a) in wk {
                        for &(j, b) in wj {
                            for &(i, c) in wi {
                                col_idx.push(i + cx * (j + cy * k));
                                weights.push(a * b * c);
                            }
                        }
                    }
                    row_ptr.push(col_idx.len());
                }
            }
        }
        Interpolation::from_csr(cx * cy * cz, row_ptr, col_idx, weights)
            .on_lattices(fine, [cx, cy, cz])
    }

    fn every_other(grid: &[f64]) -> Vec<f64> {
        grid.iter().copied().step_by(2).collect()
    }

    /// A three-level 17³ → 9³ → 5³ lattice problem, pinned at `pins(nx, ny, nz)`.
    fn lattice_problem(
        seed: u64,
        pins: impl Fn([usize; 3]) -> Vec<usize>,
    ) -> (CsrMatrix, Vec<Interpolation>) {
        let fine =
            [jittered_grid(17, seed), jittered_grid(17, seed + 1), jittered_grid(17, seed + 2)];
        // (Indexed, not `each_ref`: that is 1.77 and the workspace says 1.75.)
        fn slices(grids: &[Vec<f64>; 3]) -> [&[f64]; 3] {
            [0, 1, 2].map(|d| grids[d].as_slice())
        }
        let mid = [0, 1, 2].map(|d| every_other(&fine[d]));
        let mut a = lattice_laplacian(slices(&fine));
        a.pin_rows_symmetric(&pins([17, 17, 17]));
        let interps =
            vec![lattice_interpolation(slices(&fine)), lattice_interpolation(slices(&mid))];
        (a, interps)
    }

    /// The cavity's shape (one pinned node) and the channel's (a whole
    /// outflow plane pinned: rows of explicit zeros on every level).
    fn lattice_problems() -> Vec<(&'static str, CsrMatrix, Vec<Interpolation>)> {
        let (cavity, cavity_interps) = lattice_problem(11, |_| vec![0]);
        let (channel, channel_interps) =
            lattice_problem(23, |[nx, ny, nz]| (0..ny * nz).map(|row| nx - 1 + nx * row).collect());
        vec![("cavity", cavity, cavity_interps), ("channel", channel, channel_interps)]
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: entry {i} ({g} vs {w})");
        }
    }

    #[test]
    fn galerkin_product_is_bitwise_equal_to_the_btree_reference() {
        for (name, a, interps) in lattice_problems() {
            let (mut new, mut old) = (a.clone(), a);
            for (level, p) in interps.iter().enumerate() {
                new = galerkin_coarse(&new, p);
                old = oracle::galerkin_coarse_btree(&old, p);
                assert_eq!(new.row_ptr(), old.row_ptr(), "{name} level {}", level + 1);
                assert_eq!(new.col_idx(), old.col_idx(), "{name} level {}", level + 1);
                assert_same_bits(
                    new.values(),
                    old.values(),
                    &format!("{name} level {}", level + 1),
                );
                assert!(new.nnz() <= 27 * new.dim());
            }
        }
    }

    #[test]
    fn every_level_product_is_bitwise_equal_to_csr() {
        for (name, a, interps) in lattice_problems() {
            let reference = oracle::CsrMultigrid::new(&a, interps, &MultigridOptions::default());
            for (level, csr) in reference.matrices().into_iter().enumerate() {
                crate::dia::tests::assert_products_bitwise_equal(
                    csr,
                    &format!("{name} level {level}"),
                );
            }
        }
    }

    /// The lattice problems plus the 2047-row 1-D pair, each with a noisy
    /// right-hand side (`-0.0` and subnormals mixed in) that is zero on the
    /// pinned rows.
    fn cycle_problems() -> Vec<(&'static str, CsrMatrix, Vec<Interpolation>, Vec<f64>)> {
        let mut problems = lattice_problems();
        let nc = 1023;
        problems.push(("1-D", laplacian_1d(2 * nc + 1), vec![linear_interpolation_1d(nc)]));
        problems
            .into_iter()
            .map(|(name, a, interps)| {
                let mut rhs = crate::dia::tests::awkward_vector(a.dim(), 41);
                for (row, value) in rhs.iter_mut().enumerate() {
                    if a.get(row, row) == 1.0 {
                        *value = 0.0; // pinned rows carry a zero right-hand side
                    }
                }
                (name, a, interps, rhs)
            })
            .collect()
    }

    /// The pin: V-cycle output and the full MG-CG solve — solution,
    /// iteration count, residual history — carry the bits of the CSR /
    /// four-kernel algorithm they replaced, at every thread count, when the
    /// one cycle source runs in `f64`.
    #[test]
    fn v_cycle_and_mgcg_are_bitwise_equal_to_the_csr_four_kernel_reference() {
        let options = MultigridOptions::default();
        let solve = SolveOptions { tolerance: 1e-10, ..Default::default() };
        for (name, a, interps, rhs) in cycle_problems() {
            let n = a.dim();
            let mut reference = oracle::CsrMultigrid::new(&a, interps.clone(), &options);
            let mut mg = cycle_f64(&a, interps);
            let fine = DiaMatrix::from_csr(&a).expect("a lattice stencil");
            for threads in [1usize, 2, 4] {
                let team = Team::new(threads);
                let what = format!("{name}, {threads} threads");

                let (mut z_ref, mut z) = (vec![0.0; n], vec![0.0; n]);
                reference.apply(&mut VectorOps::on_team(&team), &rhs, &mut z_ref);
                mg.v_cycle(&VectorOps::on_team(&team), &rhs, &mut z);
                assert_same_bits(&z, &z_ref, &format!("V-cycle, {what}"));

                let want = conjugate_gradient_with(
                    &a,
                    &rhs,
                    &solve,
                    &mut VectorOps::on_team(&team),
                    &mut reference,
                )
                .expect("reference MG-CG converges");
                let got = conjugate_gradient_with(
                    &fine,
                    &rhs,
                    &solve,
                    &mut VectorOps::on_team(&team),
                    &mut mg,
                )
                .expect("MG-CG converges");
                assert_eq!(got.iterations, want.iterations, "iterations, {what}");
                assert_same_bits(&got.residual_history, &want.residual_history, &what);
                assert_same_bits(&got.solution, &want.solution, &what);
            }
        }
    }

    /// `‖z32 − z64‖∞ / (ε_f32·‖z64‖∞)` of one V-cycle on `rhs`, over the
    /// rows not in `skip`: the production `f32` cycle against the `f64`
    /// instantiation of the same source.
    fn f32_error_in_epsilons(
        mg: &mut GeometricMultigrid,
        exact: &mut Cycle<f64>,
        rhs: &[f64],
        skip: Option<usize>,
    ) -> f64 {
        let n = rhs.len();
        let (mut z64, mut z32) = (vec![0.0; n], vec![0.0; n]);
        exact.v_cycle(&VectorOps::serial(), rhs, &mut z64);
        mg.v_cycle(&mut VectorOps::serial(), rhs, &mut z32);
        assert!(z32.iter().all(|v| v.is_finite()));
        if let Some(row) = skip {
            (z64[row], z32[row]) = (0.0, 0.0);
        }
        let diff: Vec<f64> = z32.iter().zip(&z64).map(|(a, b)| a - b).collect();
        max_abs(&diff) / (f64::from(f32::EPSILON) * max_abs(&z64))
    }

    /// The rounded cycle differs from the exact one by rounding only.
    /// Measured: 2.10 ε_f32 (cavity lattice), 1.98 (channel), 0.71 (1-D),
    /// and 2.12 / 0.58 over the coupled rows when a pinned row carries the
    /// maximum; pinned with a factor of ~4 to spare.
    const F32_CYCLE_BOUND: f64 = 8.0;

    #[test]
    fn f32_cycle_stays_within_rounding_of_the_f64_cycle() {
        let options = MultigridOptions::default();
        for (name, a, interps, rhs) in cycle_problems() {
            let mut exact = cycle_f64(&a, interps.clone());
            let mut mg = GeometricMultigrid::new(&a, interps, &options).expect("lattice hierarchy");
            let ratio = f32_error_in_epsilons(&mut mg, &mut exact, &rhs, None);
            assert!(ratio > 0.0, "{name}: the f32 cycle cannot carry the f64 cycle's bits");
            assert!(ratio <= F32_CYCLE_BOUND, "{name}: ‖z32 − z64‖∞ = {ratio}·ε_f32·‖z64‖∞");

            // A decoupled (pinned) row that carries the maximum sets the
            // entry scale for everyone: the coupled rows, now a thousand
            // times smaller than the scale was chosen for, keep their
            // accuracy relative to themselves.
            if let Some(pin) = (0..a.dim()).find(|&row| a.get(row, row) == 1.0) {
                let mut on_a_pin = rhs.clone();
                on_a_pin[pin] = 1000.0;
                let ratio = f32_error_in_epsilons(&mut mg, &mut exact, &on_a_pin, Some(pin));
                assert!(ratio <= F32_CYCLE_BOUND, "{name}, maximum on a pinned row: {ratio}");
            }
        }
    }

    /// The production contract: the `f32` V-cycle and the flexible MG-CG
    /// solve it preconditions — solution, iteration count, residual history
    /// — are bitwise identical at every thread count (every fine level here
    /// clears `SERIAL_CUTOFF`, so the pooled paths really fork).
    #[test]
    fn f32_v_cycle_and_mgcg_are_bitwise_equal_across_thread_counts() {
        let options = MultigridOptions::default();
        let solve = SolveOptions { tolerance: 1e-10, ..Default::default() };
        for (name, a, interps, rhs) in cycle_problems() {
            let n = a.dim();
            let mut mg = GeometricMultigrid::new(&a, interps, &options).expect("lattice hierarchy");
            let fine = mg.fine_operator();
            let mut z_serial = vec![0.0; n];
            mg.v_cycle(&mut VectorOps::serial(), &rhs, &mut z_serial);
            let serial = mg_preconditioned_cg_on(&Team::new(1), &*fine, &mut mg, &rhs, &solve)
                .expect("converges");
            for threads in [1usize, 2, 4] {
                let team = Team::new(threads);
                let what = format!("{name}, {threads} threads");
                let mut z = vec![0.0; n];
                mg.v_cycle(&mut VectorOps::on_team(&team), &rhs, &mut z);
                assert_same_bits(&z, &z_serial, &format!("V-cycle, {what}"));
                let got = mg_preconditioned_cg_on(&team, &*fine, &mut mg, &rhs, &solve)
                    .expect("MG-CG converges");
                assert_eq!(got.iterations, serial.iterations, "iterations, {what}");
                assert_same_bits(&got.residual_history, &serial.residual_history, &what);
                assert_same_bits(&got.solution, &serial.solution, &what);
            }
        }
    }

    /// Clones share one hierarchy and nothing else: cycles run alternately
    /// on two clones, each on its own right-hand sides, give the bits of
    /// the same cycles on two instances built independently.
    #[test]
    fn clones_share_the_hierarchy_and_cycle_like_independent_instances() {
        let options = MultigridOptions::default();
        for (name, a, interps, rhs) in cycle_problems() {
            let n = a.dim();
            let build = || GeometricMultigrid::new(&a, interps.clone(), &options).expect("lattice");
            let (mut first, mut second) = (build(), build());
            let mut shared = first.clone();
            let mut other = shared.clone();
            assert!(Arc::ptr_eq(&shared.cycle.hierarchy, &other.cycle.hierarchy), "{name}");
            assert!(!Arc::ptr_eq(&first.cycle.hierarchy, &second.cycle.hierarchy), "{name}");
            let team = Team::new(2);
            let mut ops = VectorOps::on_team(&team);
            let inputs: Vec<Vec<f64>> =
                (0..4).map(|k| rhs.iter().map(|v| v * (1.0 + 0.25 * k as f64)).collect()).collect();
            for (k, input) in inputs.iter().enumerate() {
                let (own, clone) =
                    if k % 2 == 0 { (&mut first, &mut shared) } else { (&mut second, &mut other) };
                let (mut want, mut got) = (vec![0.0; n], vec![f64::NAN; n]);
                own.v_cycle(&mut ops, input, &mut want);
                clone.v_cycle(&mut ops, input, &mut got);
                assert_same_bits(&got, &want, &format!("{name}, cycle {k}"));
            }
        }
    }

    /// The cycle's entry maximum and its closing scaled copy run on the
    /// team: the maximum is the serial one to the bit at 1, 2 and 3
    /// threads (a NaN in the input included), and so is the whole cycle.
    #[test]
    fn the_entry_maximum_and_the_closing_copy_keep_the_serial_bits_on_every_team() {
        let n = 5 * lv_runtime::REDUCTION_BLOCK + 37;
        let mut values = crate::dia::tests::awkward_vector(n, 71);
        values[n / 2] = -7.5e3;
        let mut poisoned = values.clone();
        poisoned[n / 3] = f64::NAN;
        let (a, interps, rhs) = {
            let (_, a, interps, rhs) = cycle_problems().remove(0);
            (a, interps, rhs)
        };
        assert!(a.dim() >= crate::parallel::SERIAL_CUTOFF, "the passes must fork");
        let mut mg = GeometricMultigrid::new(&a, interps, &MultigridOptions::default())
            .expect("lattice hierarchy");
        let mut serial_z = vec![0.0; a.dim()];
        mg.v_cycle(&mut VectorOps::serial(), &rhs, &mut serial_z);
        for threads in [1usize, 2, 3] {
            let team = Team::new(threads);
            let ops = VectorOps::on_team(&team);
            for input in [&values, &poisoned] {
                assert_eq!(max_abs_on(&ops, input).to_bits(), max_abs(input).to_bits());
            }
            assert_eq!(max_abs_on(&ops, &poisoned), 7.5e3, "a NaN is not a magnitude");
            let mut z = vec![f64::NAN; a.dim()];
            mg.v_cycle(&mut VectorOps::on_team(&team), &rhs, &mut z);
            assert_same_bits(&z, &serial_z, &format!("V-cycle, {threads} threads"));
        }
    }

    /// The cycle is exactly homogeneous under powers of two: the entry
    /// scale maps `2^k·rhs` onto the very `f32` input `rhs` maps onto, and
    /// the exit scale is exact.  Without it `2^-300·rhs` would flush to
    /// zero in `f32` and `2^300·rhs` overflow.
    #[test]
    fn v_cycle_is_exactly_homogeneous_under_powers_of_two() {
        let options = MultigridOptions::default();
        for (name, a, interps, rhs) in cycle_problems() {
            let n = a.dim();
            // Ordinary magnitudes only, so `2^k·rhs` itself is exact.
            let rhs: Vec<f64> =
                rhs.iter().map(|&v| if v.abs() < 1e-300 { 0.0 } else { v }).collect();
            let mut on_a_pin = rhs.clone();
            if let Some(pin) = (0..n).find(|&row| a.get(row, row) == 1.0) {
                on_a_pin[pin] = 1000.0;
            }
            let mut mg = GeometricMultigrid::new(&a, interps, &options).expect("lattice hierarchy");
            let mut ops = VectorOps::serial();
            for (case, rhs) in [("noise", &rhs), ("maximum on a pinned row", &on_a_pin)] {
                let mut z = vec![0.0; n];
                mg.v_cycle(&mut ops, rhs, &mut z);
                for k in [-300, -40, 0, 40, 300] {
                    let factor = 2f64.powi(k);
                    let scaled: Vec<f64> = rhs.iter().map(|v| v * factor).collect();
                    let want: Vec<f64> = z.iter().map(|v| v * factor).collect();
                    let mut got = vec![f64::NAN; n];
                    mg.v_cycle(&mut ops, &scaled, &mut got);
                    assert_same_bits(&got, &want, &format!("{name}, {case}, k = {k}"));
                }
            }
            let mut z = vec![f64::NAN; n];
            mg.v_cycle(&mut ops, &vec![0.0; n], &mut z);
            assert_same_bits(&z, &vec![0.0; n], &format!("{name}, zero right-hand side"));
        }
    }

    #[test]
    fn entry_scale_is_an_exact_power_of_two_for_every_magnitude() {
        for (max, scale) in [
            (1.0, 1.0),
            (1.999, 1.0),
            (2.0, 0.5),
            (0.75, 2.0),
            (3e-200, 2f64.powi(663)),
            (0.0, 2f64.powi(1022)),
            (f64::MIN_POSITIVE / 4.0, 2f64.powi(1022)),
            (f64::MAX, 2f64.powi(-1022)),
            (f64::INFINITY, 2f64.powi(-1022)),
        ] {
            let (down, up) = entry_scale(max);
            assert_eq!(down, scale, "scale of {max:e}");
            assert_eq!(down * up, 1.0, "the pair of {max:e} must cancel");
        }
        assert_eq!(max_abs(&[]), 0.0);
        let noisy: Vec<f64> = (0..37).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        assert_eq!(max_abs(&noisy), 5.0);
        // A NaN is not a magnitude; it poisons the cycle's output, not the scale.
        assert_eq!(max_abs(&[1.0, f64::NAN, -3.0]), 3.0);
    }

    /// A tensor grid of `points` nodes per direction (x first), node `i` at
    /// `(i / (points − 1))^power`: uniform at 1, smoothly graded otherwise.
    fn tensor_grids(points: [usize; 3], power: f64) -> [Vec<f64>; 3] {
        points.map(|n| (0..n).map(|i| (i as f64 / (n - 1) as f64).powf(power)).collect())
    }

    /// The pinned lattice Laplacian of `grids` and the interpolations down
    /// two coarsenings.
    fn tensor_problem(grids: &[Vec<f64>; 3]) -> (CsrMatrix, Vec<Interpolation>) {
        fn slices(grids: &[Vec<f64>; 3]) -> [&[f64]; 3] {
            [0, 1, 2].map(|d| grids[d].as_slice())
        }
        let mid = [0, 1, 2].map(|d| every_other(&grids[d]));
        let mut a = lattice_laplacian(slices(grids));
        a.pin_rows_symmetric(&[0]);
        (a, vec![lattice_interpolation(slices(grids)), lattice_interpolation(slices(&mid))])
    }

    /// The storage is the matrix's choice: x-lines of 33 uniform nodes are
    /// runs of 31 and the level takes classes; the 17-node lines below it
    /// (runs of 15), a graded box, a jittered one and 300 blocks of
    /// repeating rows (long runs, but too many classes for the table) keep
    /// their diagonals — and with them, in `f64`, the bits of the CSR cycle.
    #[test]
    fn only_levels_whose_rows_repeat_in_long_runs_take_classes() {
        let options = MultigridOptions::default();
        let storage = |a: &CsrMatrix, interps: Vec<Interpolation>| {
            GeometricMultigrid::new(a, interps, &options).expect("SPD hierarchy").level_storage()
        };
        let diagonals = LevelStorage::Diagonals { diagonals: 27 };

        let (uniform, interps) = tensor_problem(&tensor_grids([33, 9, 9], 1.0));
        // 27 positions in the box, and the 7 neighbours of the pinned
        // corner (the cells are not cubes, so no coupling vanishes).
        let classes = LevelStorage::RowClasses { classes: 34 };
        assert_eq!(storage(&uniform, interps), [classes, diagonals, LevelStorage::DenseLu]);

        let (graded, interps) = tensor_problem(&tensor_grids([33, 9, 9], 1.3));
        assert_eq!(storage(&graded, interps), [diagonals, diagonals, LevelStorage::DenseLu]);
        for (_, jittered, interps) in lattice_problems() {
            assert_eq!(storage(&jittered, interps), [diagonals, diagonals, LevelStorage::DenseLu]);
        }

        // 4799 rows in blocks of 16 that share a diagonal entry: 300 classes.
        let mut blocks = laplacian_1d(4799);
        for row in 0..blocks.dim() {
            let slot = blocks.entry_index(row, row).expect("a diagonal entry");
            blocks.pattern_and_values_mut().2[slot] += 0.01 * (row / 16) as f64;
        }
        let interps: Vec<Interpolation> =
            [2399, 1199, 599, 299, 149, 74].map(linear_interpolation_1d).into();
        let mut exact = cycle_f64(&blocks, interps.clone());
        assert_eq!(
            exact.hierarchy.levels[0].matrix.storage(),
            LevelStorage::Diagonals { diagonals: 3 },
            "300 classes do not fit the table"
        );
        let mut reference = oracle::CsrMultigrid::new(&blocks, interps, &options);
        let rhs = crate::dia::tests::awkward_vector(blocks.dim(), 43);
        let (mut z, mut z_ref) = (vec![0.0; rhs.len()], vec![0.0; rhs.len()]);
        exact.v_cycle(&VectorOps::serial(), &rhs, &mut z);
        reference.apply(&mut VectorOps::serial(), &rhs, &mut z_ref);
        assert_same_bits(&z, &z_ref, "the diagonal path of the 300-class level");
    }

    /// A level on classes and the same level on the diagonals of the flushed
    /// matrix smooth and take residuals to the same bits, on teams that
    /// split the rows mid-run (2 673 rows: the pooled paths fork).
    #[test]
    fn a_class_level_carries_the_bits_of_its_flushed_diagonals_on_every_team() {
        let (a, _) = tensor_problem(&tensor_grids([33, 9, 9], 1.0));
        let exact: DiaMatrix = DiaMatrix::from_csr(&a).expect("a lattice stencil");
        let classes = RowClasses::<f32>::from_dia_with_long_runs(&exact).expect("runs of 31");
        let diagonals = DiaMatrix::<f32>::from_csr(&crate::classes::flushed::<f32>(&a))
            .expect("the same pattern");
        let on_classes = Level::new(&exact, LevelOperator::Classes(classes));
        let on_diagonals = Level::new(&exact, LevelOperator::Diagonals(diagonals));
        let n = a.dim();
        let noise = |seed| -> Vec<f32> {
            crate::dia::tests::awkward_vector(n, seed).into_iter().map(|v| v as f32).collect()
        };
        let bits = |v: &[f32]| v.iter().map(|e| e.to_bits()).collect::<Vec<u32>>();
        for threads in [1usize, 2, 4] {
            let team = Team::new(threads);
            let ops = VectorOps::on_team(&team);
            let [classes, diagonals] = [&on_classes, &on_diagonals].map(|level| {
                let mut v = LevelVectors { x: noise(61), b: noise(67), r: vec![0.0; n] };
                level.smooth(&mut v, &ops, 3, 0.8);
                level.residual(&mut v, &ops);
                v
            });
            assert_eq!(bits(&classes.x), bits(&diagonals.x), "sweeps, {threads} threads");
            assert_eq!(bits(&classes.r), bits(&diagonals.r), "residual, {threads} threads");
        }
    }

    #[test]
    fn a_level_that_is_not_a_lattice_stencil_yields_no_hierarchy() {
        // Same two-level problem, fine rows in a scrambled order: the
        // operator is as SPD as before but has no diagonal structure.
        let nc = 63;
        let n = 2 * nc + 1;
        let mut forward: Vec<usize> = (0..n).collect();
        let mut state = 99u64;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            forward.swap(i, (state >> 33) as usize % (i + 1));
        }
        let a = laplacian_1d(n).permuted(&forward);
        let p = linear_interpolation_1d(nc);
        let mut rows = vec![(vec![], vec![]); n];
        for f in 0..n {
            let range = p.row_ptr[f]..p.row_ptr[f + 1];
            rows[forward[f]] = (p.col_idx[range.clone()].to_vec(), p.weights[range].to_vec());
        }
        let mut row_ptr = vec![0];
        let (mut col_idx, mut weights) = (Vec::new(), Vec::new());
        for (cols, ws) in rows {
            col_idx.extend(cols);
            weights.extend(ws);
            row_ptr.push(col_idx.len());
        }
        let scrambled = Interpolation::from_csr(nc, row_ptr, col_idx, weights);
        assert!(
            GeometricMultigrid::new(&a, vec![scrambled], &MultigridOptions::default()).is_none()
        );
    }

    #[test]
    fn level_spans_record_the_true_traversal_counts() {
        use lv_runtime::TraceConfig;
        let options = MultigridOptions::default();
        let sweeps = options.smoothing_sweeps as u64;
        // The uniform 31-row level classifies — first row, 29 interior rows,
        // last row — and is charged the class form: the taps it keeps
        // (2 + 29·3 + 2) and its own bytes, three 12-byte runs, seven
        // 16-byte taps, four table pointers and the sweep's four `f32`
        // vectors.  The same level with a diagonal that grows along the rows
        // repeats nothing, keeps its three `f32` diagonals and is charged
        // every stored value, padding included.  Each leg also carries its
        // transfer: this 1-D `P` names no lattices and stays in CSR, 45
        // entries (the 15 odd fine rows take one, the 16 even rows two, but
        // the two end rows one), so a multiply-add per entry and the 31-
        // and 15-row `f32` vectors plus 16 bytes per entry.
        let uniform = laplacian_1d(31);
        let mut graded = uniform.clone();
        let diagonal: Vec<usize> = (0..31).map(|i| graded.entry_index(i, i).unwrap()).collect();
        for (i, slot) in diagonal.into_iter().enumerate() {
            graded.pattern_and_values_mut().2[slot] += 0.01 * i as f64;
        }
        let class_form = (2 * (2 + 29 * 3 + 2), 3 * 12 + 7 * 16 + 4 * 8 + 4 * 31 * 4);
        let diagonal_form = (2 * 3 * 31, 4 * 3 * 31);
        let transfer = (2 * 45, (31 + 15) * 4 + 16 * 45);
        for (a, storage, (flops, bytes)) in [
            (uniform, LevelStorage::RowClasses { classes: 3 }, class_form),
            (graded, LevelStorage::Diagonals { diagonals: 3 }, diagonal_form),
        ] {
            let mut mg = GeometricMultigrid::new(&a, vec![linear_interpolation_1d(15)], &options)
                .expect("SPD hierarchy");
            assert_eq!(mg.level_storage(), [storage, LevelStorage::DenseLu]);
            assert_eq!(mg.transfer_storage(), [TransferStorage::Csr { entries: 45 }]);
            let mut team = Team::with_trace(1, TraceConfig::default());
            let rhs = vec![1.0; a.dim()];
            let mut z = vec![0.0; a.dim()];
            mg.v_cycle(&mut VectorOps::on_team(&team), &rhs, &mut z);
            let trace = team.trace_mut().expect("traced team");
            let levels: Vec<_> = trace
                .events()
                .into_iter()
                .filter(|e| e.span == lv_trace::spans::MG_LEVEL)
                .collect();
            // Down leg of level 0, the dense coarsest solve, up leg of level 0.
            assert_eq!(levels.len(), 3);
            for leg in [&levels[0], &levels[2]] {
                assert_eq!(
                    (leg.iters, leg.flops, leg.bytes),
                    (sweeps, sweeps * flops + transfer.0, sweeps * bytes + transfer.1),
                    "{storage}"
                );
            }
            assert_eq!(
                (levels[1].iters, levels[1].flops, levels[1].bytes),
                (0, 2 * 15 * 15, 8 * 15 * 15)
            );
        }
    }

    /// Per-direction weights of the trilinear transfer onto a lattice of
    /// `points` nodes from its every-other-node coarsening, computed as
    /// `lv_mesh::trilinear_stencil` computes them on a unit box: the fine
    /// node at `i / (points − 1)`, located in its coarse cell by dividing by
    /// the coarse spacing.  Exact where the spacings are powers of two; at
    /// 12 elements a side a weight misses ½ (or 1) by an `f64` rounding.
    fn generator_weights_1d(points: usize) -> Vec<Vec<(usize, f64)>> {
        if points == 1 {
            return vec![vec![(0, 1.0)]];
        }
        let (dims, coarse_dims) = (points - 1, (points - 1) / 2);
        let spacing = 1.0 / coarse_dims as f64;
        (0..points)
            .map(|i| {
                let u = 1.0 * (i as f64 / dims as f64) / spacing;
                let c = (u.floor() as usize).min(coarse_dims - 1);
                let xi = u - c as f64;
                [(c, 1.0 - xi), (c + 1, xi)].into_iter().filter(|&(_, w)| w > 1e-12).collect()
            })
            .collect()
    }

    /// The transfer onto a lattice of `points` nodes per direction, with
    /// the generator's weights.
    fn generator_interpolation(points: [usize; 3]) -> Interpolation {
        tensor_interpolation(points.map(generator_weights_1d))
    }

    /// The transfer onto a lattice of `points` nodes per direction, with
    /// the exact weights 1 and ½.
    fn exact_interpolation(points: [usize; 3]) -> Interpolation {
        tensor_interpolation(points.map(|n| (0..n).map(|f| parents(f).collect()).collect()))
    }

    /// The lattices of the transfer tests: 8³, 12³ (not a power of two),
    /// 16³ and 32³ elements, a 16 × 8 × 4 box, and a line of nodes whose
    /// coarse level clears the serial cutoff.
    fn transfer_lattices() -> Vec<[usize; 3]> {
        let line = 2 * (2 * crate::parallel::SERIAL_CUTOFF + 5) + 1;
        vec![[9; 3], [13; 3], [17; 3], [33; 3], [17, 9, 5], [line, 1, 1]]
    }

    /// The stencil's restriction and prolongation of `p`, and the CSR
    /// ones, in `T` on 1, 2 and 3 threads, from the same noisy inputs
    /// (`-0.0` and subnormals mixed in), as bit patterns.
    fn stencil_and_csr_transfers<T: Scalar>(p: &Interpolation) -> [Vec<u64>; 2] {
        let lattices = p.lattices.expect("a transfer between lattices");
        let noise = |n, seed| -> Vec<T> {
            crate::dia::tests::awkward_vector(n, seed).into_iter().map(T::from_f64).collect()
        };
        let (fine, coarse) = (noise(p.fine_nodes, 3), noise(p.coarse_nodes, 5));
        let stencil = Transfer::Stencil(lattices);
        let csr = Transfer::Csr(p.clone());
        [&stencil, &csr].map(|transfer| {
            let mut bits = Vec::new();
            for threads in [1, 2, 3] {
                let team = Team::new(threads);
                let ops = VectorOps::on_team(&team);
                let mut restricted = vec![T::from_f64(f64::NAN); p.coarse_nodes];
                transfer.restrict(&ops, &fine, &mut restricted);
                let mut prolonged = noise(p.fine_nodes, 7);
                transfer.prolong_add(&ops, &coarse, &mut prolonged);
                let all = restricted.iter().chain(&prolonged);
                bits.extend(all.map(|v| v.to_f64().to_bits()));
            }
            bits
        })
    }

    /// The stencil transfers carry the bits of the CSR transfers of the
    /// same lattices, in `f32` from the generator's weights (which round to
    /// the stencil's there, 12³ included) and in `f64` from the exact ones,
    /// at every thread count.
    #[test]
    fn stencil_transfers_carry_the_bits_of_the_csr_transfers_on_every_team() {
        for points in transfer_lattices() {
            let generated = generator_interpolation(points);
            let exact = exact_interpolation(points);
            let lattices = generated.lattices.expect("named lattices");
            assert!(lattices.carries::<f32>(&generated), "{points:?}");
            assert!(lattices.carries::<f64>(&exact), "{points:?}");
            assert_eq!(lattices.entries(), exact.col_idx.len(), "{points:?}");
            let [stencil, csr] = stencil_and_csr_transfers::<f32>(&generated);
            assert!(stencil == csr, "f32 transfers of {points:?}");
            let [stencil, csr] = stencil_and_csr_transfers::<f64>(&exact);
            assert!(stencil == csr, "f64 transfers of {points:?}");
        }
    }

    /// The storage is the entries' choice: the generator's 12³ weights are
    /// the stencil in `f32` and not in `f64`; power-of-two lattices are it
    /// in both; a jittered finest lattice is it in neither, while the
    /// uniform lattice below it still is; a `P` that names no lattices, or
    /// names lattices its entries do not follow, stays CSR.
    #[test]
    fn a_transfer_takes_the_stencil_where_its_entries_round_to_it() {
        let options = MultigridOptions::default();
        let stencil = TransferStorage::Stencil;
        let csr = |p: &Interpolation| TransferStorage::Csr { entries: p.col_idx.len() };
        let storage = |a: &CsrMatrix, interps: &[Interpolation]| {
            let dia = DiaMatrix::from_csr(a).expect("a lattice stencil");
            let wide = Cycle::<f64>::new(&dia, interps.to_vec(), &options).expect("SPD");
            let narrow = GeometricMultigrid::new(a, interps.to_vec(), &options).expect("SPD");
            let wide: Vec<_> = wide.hierarchy.transfers.iter().map(Transfer::storage).collect();
            (narrow.transfer_storage(), wide)
        };

        let grids = tensor_grids([13; 3], 1.0);
        let mut twelve = lattice_laplacian([0, 1, 2].map(|d| grids[d].as_slice()));
        twelve.pin_rows_symmetric(&[0]);
        let interps = [generator_interpolation([13; 3]), generator_interpolation([7; 3])];
        let (narrow, wide) = storage(&twelve, &interps);
        assert_eq!(narrow, [stencil, stencil], "12³ in f32");
        assert_eq!(wide[0], csr(&interps[0]), "12³ in f64: the weights miss ½");

        let (uniform, interps) = tensor_problem(&tensor_grids([33, 9, 9], 1.0));
        assert_eq!(storage(&uniform, &interps), (vec![stencil; 2], vec![stencil; 2]));

        // Odd nodes nudged, even nodes on the lattice: the level below is
        // the uniform 9³ lattice.
        let nudged = [0, 1, 2].map(|d| {
            let mut grid = jittered_grid(17, 31 + d as u64);
            for (i, x) in grid.iter_mut().enumerate().step_by(2) {
                *x = i as f64 / 16.0;
            }
            grid
        });
        let (jittered, interps) = tensor_problem(&nudged);
        let (narrow, wide) = storage(&jittered, &interps);
        assert_eq!(narrow, [csr(&interps[0]), stencil], "jittered finest lattice, f32");
        assert_eq!(wide, [csr(&interps[0]), stencil], "jittered finest lattice, f64");

        let (a, interps) = two_level_1d_interpolations(15);
        assert_eq!(storage(&a, &interps).0, [csr(&interps[0])], "no lattices named");
        let (a, mut interps) = tensor_problem(&tensor_grids([33, 9, 9], 1.0));
        interps[0] = exact_interpolation([33, 9, 9]).on_lattices([33, 9, 9], [17, 5, 5]);
        interps[0].weights[7] *= 1.0 + 1e-6;
        assert_eq!(storage(&a, &interps).0[0], csr(&interps[0]), "an entry off the stencil");
    }

    fn two_level_1d_interpolations(nc: usize) -> (CsrMatrix, Vec<Interpolation>) {
        (laplacian_1d(2 * nc + 1), vec![linear_interpolation_1d(nc)])
    }

    /// Whole V-cycles on stencil transfers carry the bits of the same
    /// hierarchy with every transfer forced to CSR, in `f32` and `f64`, on
    /// 1, 2 and 3 threads — on the uniform power-of-two box (a stencil in
    /// both precisions), the 12³ lattice (a stencil in `f32`) and a
    /// 32 × 16 × 8 box.
    #[test]
    fn v_cycles_on_stencil_transfers_carry_the_bits_of_csr_transfers() {
        fn bits<T: Scalar>(a: &CsrMatrix, interps: &[Interpolation], rhs: &[f64]) -> [Vec<u64>; 2] {
            let options = MultigridOptions::default();
            let dia = DiaMatrix::from_csr(a).expect("a lattice stencil");
            let mut stencil = Cycle::<T>::new(&dia, interps.to_vec(), &options).expect("SPD");
            let storage = stencil.hierarchy.transfers.iter().map(Transfer::storage);
            assert!(storage.into_iter().any(|s| s == TransferStorage::Stencil));
            let mut csr =
                Cycle::<T>::with_csr_transfers(&dia, interps.to_vec(), &options).expect("SPD");
            [&mut stencil, &mut csr].map(|cycle| {
                let mut out = Vec::new();
                for threads in [1, 2, 3] {
                    let team = Team::new(threads);
                    let mut z = vec![f64::NAN; rhs.len()];
                    cycle.v_cycle(&VectorOps::on_team(&team), rhs, &mut z);
                    out.extend(z.iter().map(|v| v.to_bits()));
                }
                out
            })
        }
        let problem = |points: [usize; 3]| {
            let grids = tensor_grids(points, 1.0);
            let mut a = lattice_laplacian([0, 1, 2].map(|d| grids[d].as_slice()));
            a.pin_rows_symmetric(&[0]);
            let mid = points.map(|n| n / 2 + 1);
            let interps = vec![generator_interpolation(points), generator_interpolation(mid)];
            let rhs = crate::dia::tests::awkward_vector(a.dim(), 13);
            (a, interps, rhs)
        };
        for points in [[17; 3], [13; 3], [33, 17, 9]] {
            let (a, interps, rhs) = problem(points);
            let [stencil, csr] = bits::<f32>(&a, &interps, &rhs);
            assert!(stencil == csr, "f32 V-cycle on {points:?}");
            if points != [13; 3] {
                let [stencil, csr] = bits::<f64>(&a, &interps, &rhs);
                assert!(stencil == csr, "f64 V-cycle on {points:?}");
            }
        }
    }

    /// The traffic model of a transfer, on the 8³ → 4³ pair (9³ and 5³
    /// nodes, 13³ entries): a multiply-add per entry, the two vectors once
    /// each, and in CSR a 16-byte index and weight per entry on top.
    #[test]
    fn a_transfer_is_charged_its_vectors_and_in_csr_its_entries() {
        let p = exact_interpolation([9; 3]);
        let entries = 13 * 13 * 13;
        assert_eq!(p.col_idx.len(), entries);
        let stencil = Transfer::new::<f32>(p.clone());
        assert_eq!(stencil.storage(), TransferStorage::Stencil);
        let csr = Transfer::Csr(p);
        let vectors = (9 * 9 * 9 + 5 * 5 * 5) as u64;
        let flops = 2 * entries as u64;
        assert_eq!(stencil.traffic::<f32>(), (flops, 4 * vectors));
        assert_eq!(stencil.traffic::<f64>(), (flops, 8 * vectors));
        assert_eq!(csr.traffic::<f32>(), (flops, 4 * vectors + 16 * entries as u64));
    }

    /// A hierarchy built on a lattice chain — products once per key, the
    /// transfers never stored — is the hierarchy of the same exact
    /// transfers given entry by entry, multiplied row by row: the same
    /// storages and the same V-cycle bits on 1, 2 and 3 threads, on a
    /// uniform 32 × 16 × 8 box (few keys, classes on level 0) and a graded
    /// one (no two rows alike, a key per row).
    #[test]
    fn a_lattice_chain_is_the_hierarchy_of_its_transfers_given_entry_by_entry() {
        let options = MultigridOptions::default();
        let chain = [[33, 17, 9], [17, 9, 5], [9, 5, 3]];
        for (name, power) in [("uniform", 1.0), ("graded", 1.3)] {
            let (a, _) = tensor_problem(&tensor_grids(chain[0], power));
            let fine = DiaMatrix::from_csr(&a).expect("a lattice stencil");
            let interps = chain[1..].iter().map(|&c| Interpolation::trilinear(c)).collect();
            let mut lattice =
                GeometricMultigrid::on_lattice_chain(&fine, &chain, &options).expect(name);
            let mut stored =
                GeometricMultigrid::from_diagonals(&fine, interps, &options).expect(name);
            assert_eq!(lattice.level_storage(), stored.level_storage(), "{name}");
            assert_eq!(lattice.transfer_storage(), stored.transfer_storage(), "{name}");
            let rhs = crate::dia::tests::awkward_vector(a.dim(), 17);
            for threads in [1, 2, 3] {
                let team = Team::new(threads);
                let [got, want] = [&mut lattice, &mut stored].map(|mg| {
                    let mut z = vec![f64::NAN; rhs.len()];
                    mg.v_cycle(&mut VectorOps::on_team(&team), &rhs, &mut z);
                    z.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
                });
                assert!(got == want, "{name} on {threads} threads");
            }
        }
    }

    /// Lattice products of two matrices that are no Laplacians, each
    /// `from_csr` of `galerkin_coarse` bit for bit.  Under a diagonal
    /// matrix every fine row is one class, and only the position class
    /// tells a low coarse row from a high one, which read their support
    /// with mirrored weights: 27 keys.  A matrix that couples nodes two
    /// apart along the first x-line is no lattice stencil — rows of one
    /// class there reach different coarse columns, the last ones wrapping
    /// onto the next line — so the first row of the first such key shows
    /// it and the product runs row by row: a key per row.
    #[test]
    fn lattice_products_of_other_matrices_carry_the_bits_of_galerkin_coarse() {
        let coarse = [5, 3, 3];
        let fine = NestedLattices::over(coarse).fine;
        let n = NestedLattices::nodes(fine);
        let diagonal: Vec<Vec<f64>> = (0..n)
            .map(|row| (0..n).map(|col| if row == col { 2.5 } else { 0.0 }).collect())
            .collect();
        let (laplacian, _) = tensor_problem(&tensor_grids(fine, 1.0));
        let mut coupled: Vec<Vec<f64>> =
            (0..n).map(|row| (0..n).map(|col| laplacian.get(row, col)).collect()).collect();
        for (row, values) in coupled.iter_mut().enumerate().take(fine[0]) {
            values[row + 2] = 0.125;
        }
        for (name, dense, keys) in [("diagonal", diagonal, 27), ("coupled", coupled, 45)] {
            let a = CsrMatrix::from_dense(&dense);
            let dia: DiaMatrix = DiaMatrix::from_csr(&a).expect("a few diagonals");
            let want: DiaMatrix =
                DiaMatrix::from_csr(&galerkin_coarse(&a, &Interpolation::trilinear(coarse)))
                    .expect("a few diagonals");
            let (got, got_keys) =
                galerkin_on_lattices(&dia, &exact_row_classes(&dia), coarse).expect(name);
            assert_eq!(got.offsets(), want.offsets(), "{name}");
            let bits = |m: &DiaMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(bits(&got) == bits(&want), "{name}");
            assert_eq!(got_keys.iter().max().map(|&k| k + 1), Some(keys), "{name}");
        }
    }
}
