//! The parallel linear-algebra subsystem: row-partitioned SpMV and
//! deterministic BLAS-1 kernels on the shared worker pool.
//!
//! Every operation a Krylov iteration performs — SpMV, dot products, norms
//! and a handful of fused element-wise updates — exists here exactly once,
//! in a form that runs serially or across an [`lv_runtime::Team`]:
//!
//! * **SpMV** partitions the output rows statically: each rank is handed its
//!   own [`lv_runtime::partition`] share of the output by
//!   [`lv_runtime::for_each_share`] (cut with `split_at_mut`, no `unsafe`),
//!   each row accumulates in column order, so the product is bitwise
//!   identical for every thread count (no coloring needed — the ROADMAP
//!   observation that started this subsystem).
//! * **Element-wise updates** (`axpy` and friends) evaluate the same
//!   per-element expression under the same static partition — bitwise
//!   identical by construction.
//! * **Reductions** (`dot`, `norm`) use the fixed-block scheme of
//!   [`lv_runtime::blocked_reduce`]: block boundaries depend only on the
//!   length, partials combine in block order, so the value is bitwise
//!   identical for every thread count *including the serial path, which
//!   runs the very same blocked order*.
//!
//! The consequence the tests pin down: a CG or BiCGSTAB solve produces
//! **bitwise identical solutions, iteration counts and residual histories**
//! whether it runs serially or on a team of any size.

use crate::csr::CsrMatrix;
use crate::multivector::MultiVector;
use crate::operator::LinearOperator;
use lv_runtime::{blocked_reduce, for_each_share, Share, Team, Trace};
use std::ops::Range;

/// Element-wise operations on vectors shorter than this stay on the calling
/// thread even when a team is available: below it, the fork/join hand-shake
/// costs more than the loop.  Determinism is unaffected (the per-element
/// results do not depend on who computes them), only scheduling is.
pub const SERIAL_CUTOFF: usize = 1024;

/// The team a pass over `n` rows (or entries) runs on: `team` when `n`
/// clears [`SERIAL_CUTOFF`], the calling thread (`None`) otherwise.  Takes a
/// `&Team` or an `Option<&Team>`.
#[inline]
pub fn team_above_cutoff<'t>(team: impl Into<Option<&'t Team>>, n: usize) -> Option<&'t Team> {
    team.into().filter(|_| n >= SERIAL_CUTOFF)
}

/// Index of the first non-finite (NaN/±Inf) entry of `values`, scanning in
/// order; `None` when every entry is finite.
///
/// This is the guard the blocked reductions lean on: `dot`/`norm` results
/// involving a NaN are themselves NaN, so callers (the Krylov loops, the
/// driver's CFL controller) check the *reduced* value and use this scan only
/// to report **where** the poison sits — an O(n) diagnostic on the failure
/// path, free on the hot path.
pub fn first_non_finite(values: &[f64]) -> Option<usize> {
    values.iter().position(|v| !v.is_finite())
}

/// The vector/matrix kernels of a solve, bound to an optional worker team.
///
/// Holds the reduction scratch so per-iteration dot products do not
/// allocate.  Construct one per solve ([`VectorOps::serial`] or
/// [`VectorOps::on_team`]) and pass it to the Krylov drivers.
///
/// The `*_cols` kernels are the one body of each operation, generic over
/// the column width `W`: per active column they evaluate one expression per
/// entry, `active` masks columns that have converged (skipped, not dropped,
/// so a frozen column stays bit for bit at its converged value), and one
/// call pays one fork/join for all `W` columns.  The scalar names are their
/// one-column forwards, so a column of a wide call and a scalar call on that
/// column are the same instructions on the same data.
#[derive(Debug)]
pub struct VectorOps<'t> {
    team: Option<&'t Team>,
    /// Telemetry sink of the team, if any.  Kept separately from `team`
    /// because a one-thread team degrades `team` to `None` (serial
    /// scheduling) but must still record its solver events — the counter
    /// determinism suite compares 1-thread traces against multi-thread ones.
    trace: Option<&'t Trace>,
    scratch: Vec<f64>,
}

impl<'t> VectorOps<'t> {
    /// Serial kernels (the classic single-thread path).
    pub fn serial() -> Self {
        VectorOps { team: None, trace: None, scratch: Vec::new() }
    }

    /// Kernels running on `team`.  A one-thread team degrades to the serial
    /// path with zero dispatch (but keeps the team's trace, when present).
    pub fn on_team(team: &'t Team) -> Self {
        VectorOps {
            team: if team.num_threads() > 1 { Some(team) } else { None },
            trace: team.trace(),
            scratch: Vec::new(),
        }
    }

    /// The worker count this instance schedules for (1 when serial).
    pub fn threads(&self) -> usize {
        self.team.map_or(1, Team::num_threads)
    }

    /// The telemetry trace of the team these kernels run on, when tracing
    /// is enabled.  Instrumented solver loops record their per-iteration
    /// events through this accessor; `None` costs one branch per iteration.
    #[inline]
    pub fn trace(&self) -> Option<&'t Trace> {
        self.trace
    }

    /// The team a pass over `n` rows runs on ([`team_above_cutoff`] of
    /// this instance's team).
    #[inline]
    pub(crate) fn team_above_cutoff(&self, n: usize) -> Option<&'t Team> {
        team_above_cutoff(self.team, n)
    }

    /// The one place these kernels — and the multigrid cycle's — get
    /// mutable output: [`lv_runtime::for_each_share`] of the `n` rows of
    /// `out` on the team when `n` clears [`SERIAL_CUTOFF`], on the caller
    /// otherwise.  The shares are the static partition, so a row's result
    /// does not depend on the thread count.
    #[inline]
    pub(crate) fn for_each_share<S: Share>(
        &self,
        n: usize,
        out: S,
        body: impl Fn(Range<usize>, S) + Sync,
    ) {
        for_each_share(self.team_above_cutoff(n), n, 1, out, body);
    }

    /// [`for_each_share`](Self::for_each_share) of `W` output columns.
    ///
    /// # Panics
    /// Panics if an output column is not `n` long.
    fn for_column_ranges<const W: usize>(
        &self,
        n: usize,
        out: [&mut [f64]; W],
        f: impl Fn(Range<usize>, [&mut [f64]; W]) + Sync,
    ) {
        for column in &out {
            assert_eq!(column.len(), n, "output column length");
        }
        self.for_each_share(n, out, f);
    }

    /// The element-wise kernel driver: `update(c, range, out)` rewrites
    /// `out` — rows `range` of output column `c` — for every active column
    /// and every partition range.
    ///
    /// # Panics
    /// Panics if the `inputs` and `out` columns are not all equally long.
    fn for_active_columns<const W: usize>(
        &self,
        inputs: &[[&[f64]; W]],
        out: [&mut [f64]; W],
        active: [bool; W],
        update: impl Fn(usize, Range<usize>, &mut [f64]) + Sync,
    ) {
        let n = out.first().map_or(0, |column| column.len());
        for column in inputs.iter().flatten() {
            assert_eq!(column.len(), n, "input column length");
        }
        self.for_column_ranges(n, out, |range, columns| {
            for (c, column) in columns.into_iter().enumerate() {
                if active[c] {
                    update(c, range.clone(), column);
                }
            }
        });
    }

    /// `y = A·x` for any [`LinearOperator`] backend, row-partitioned across
    /// the team.  With a [`CsrMatrix`] this is exactly [`spmv`](Self::spmv).
    ///
    /// # Panics
    /// Panics if the vector lengths do not match the operator dimension.
    pub fn apply(&mut self, operator: &dyn LinearOperator, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), operator.dim());
        self.for_column_ranges(operator.dim(), [y], |rows, [slice]| {
            operator.apply_range(x, rows, slice);
        });
    }

    /// `y = A·x`, row-partitioned across the team.
    ///
    /// # Panics
    /// Panics if the vector lengths do not match the matrix dimension.
    pub fn spmv(&mut self, matrix: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        self.apply(matrix, x, y);
    }

    /// `y_c = A·x_c` for the active columns.  Three columns go through
    /// [`LinearOperator::apply3_range`] — one traversal of the operator for
    /// all of them on the backends that fuse it ([`CsrMatrix::spmm3_range`],
    /// [`crate::DiaMatrix::product3_into`]); any other width is one
    /// [`LinearOperator::apply_range`] per active column.  Either way each
    /// row of each column accumulates in the backend's fixed order, so a
    /// column's product does not depend on the width it was computed at.
    ///
    /// # Panics
    /// Panics if a column length does not match the operator dimension.
    pub(crate) fn spmm_cols<const W: usize>(
        &mut self,
        operator: &dyn LinearOperator,
        x: [&[f64]; W],
        y: [&mut [f64]; W],
        active: [bool; W],
    ) {
        self.for_column_ranges(operator.dim(), y, |rows, mut ys| {
            match (&x[..], &mut ys[..], &active[..]) {
                (&[x0, x1, x2], [y0, y1, y2], &[a0, a1, a2]) => {
                    operator.apply3_range([x0, x1, x2], rows, [y0, y1, y2], [a0, a1, a2]);
                }
                _ => {
                    for c in (0..W).filter(|&c| active[c]) {
                        operator.apply_range(x[c], rows.clone(), ys[c]);
                    }
                }
            }
        });
    }

    /// `Y = A·X` for the three components of a [`MultiVector`] in one
    /// traversal of the operator, also with a partial mask: an inactive
    /// component is neither read nor written.  Per active component the
    /// accumulation is bitwise identical to [`apply`](Self::apply).
    pub fn spmm3(
        &mut self,
        operator: &dyn LinearOperator,
        x: &MultiVector,
        y: &mut MultiVector,
        active: [bool; 3],
    ) {
        self.spmm_cols(operator, x.components(), y.components_mut(), active);
    }

    /// Blocked dot products `a_cᵀ b_c` of the active columns in one fused
    /// reduction (deterministic for every thread count and every width;
    /// inactive slots return 0).
    pub(crate) fn dot_cols<const W: usize>(
        &mut self,
        a: [&[f64]; W],
        b: [&[f64]; W],
        active: [bool; W],
    ) -> [f64; W] {
        let n = a.first().map_or(0, |column| column.len());
        for c in 0..W {
            assert_eq!(a[c].len(), n);
            assert_eq!(b[c].len(), n);
        }
        // Same cutoff as the element-wise ops: below it the fork/join costs
        // more than the reduction.  The serial path runs the identical
        // blocked order, so the value does not depend on the choice.
        let team = self.team_above_cutoff(n);
        blocked_reduce(team, n, &mut self.scratch, |r| {
            let mut sums = [0.0f64; W];
            for c in (0..W).filter(|&c| active[c]) {
                sums[c] = a[c][r.clone()].iter().zip(&b[c][r.clone()]).map(|(x, y)| x * y).sum();
            }
            sums
        })
    }

    /// Blocked Euclidean norms ‖a_c‖ of the active columns (0 for inactive
    /// ones).
    pub(crate) fn norm_cols<const W: usize>(
        &mut self,
        a: [&[f64]; W],
        active: [bool; W],
    ) -> [f64; W] {
        self.dot_cols(a, a, active).map(f64::sqrt)
    }

    /// Blocked dot product `aᵀb`.
    pub fn dot(&mut self, a: &[f64], b: &[f64]) -> f64 {
        self.dot_cols([a], [b], [true])[0]
    }

    /// Blocked Euclidean norm ‖a‖.
    pub fn norm(&mut self, a: &[f64]) -> f64 {
        self.norm_cols([a], [true])[0]
    }

    /// `y_c[i] += alpha_c * x_c[i]`.
    pub(crate) fn axpy_cols<const W: usize>(
        &mut self,
        alpha: [f64; W],
        x: [&[f64]; W],
        y: [&mut [f64]; W],
        active: [bool; W],
    ) {
        self.for_active_columns(&[x], y, active, |c, range, ys| {
            for (yi, xi) in ys.iter_mut().zip(&x[c][range]) {
                *yi += alpha[c] * xi;
            }
        });
    }

    /// `y[i] += alpha * x[i]`.
    pub fn axpy(&mut self, alpha: f64, x: &[f64], y: &mut [f64]) {
        self.axpy_cols([alpha], [x], [y], [true]);
    }

    /// `x_c[i] += alpha_c * p_c[i] + omega_c * s_c[i]` — the fused BiCGSTAB
    /// solution update, kept as one expression so every schedule reproduces
    /// the same rounding.
    pub(crate) fn axpy2_cols<const W: usize>(
        &mut self,
        alpha: [f64; W],
        p: [&[f64]; W],
        omega: [f64; W],
        s: [&[f64]; W],
        x: [&mut [f64]; W],
        active: [bool; W],
    ) {
        self.for_active_columns(&[p, s], x, active, |c, range, xs| {
            for ((xi, pi), si) in xs.iter_mut().zip(&p[c][range.clone()]).zip(&s[c][range]) {
                *xi += alpha[c] * pi + omega[c] * si;
            }
        });
    }

    /// `out_c[i] = a_c[i] * d[i]` — the Jacobi preconditioner application
    /// (`d` is shared by the columns: it depends only on the matrix).
    pub(crate) fn hadamard_cols<const W: usize>(
        &mut self,
        a: [&[f64]; W],
        d: &[f64],
        out: [&mut [f64]; W],
        active: [bool; W],
    ) {
        for column in &out {
            assert_eq!(column.len(), d.len(), "diagonal length");
        }
        self.for_active_columns(&[a], out, active, |c, range, os| {
            for ((oi, ai), di) in os.iter_mut().zip(&a[c][range.clone()]).zip(&d[range]) {
                *oi = ai * di;
            }
        });
    }

    /// `out[i] = a[i] * b[i]`.
    pub fn hadamard(&mut self, a: &[f64], b: &[f64], out: &mut [f64]) {
        self.hadamard_cols([a], b, [out], [true]);
    }

    /// `p[i] = z[i] + beta * p[i]` — the CG direction update.
    pub fn xpby(&mut self, z: &[f64], beta: f64, p: &mut [f64]) {
        self.for_active_columns(&[[z]], [p], [true], |_, range, ps| {
            for (pi, zi) in ps.iter_mut().zip(&z[range]) {
                *pi = zi + beta * *pi;
            }
        });
    }

    /// `out_c[i] = a_c[i] - k_c * b_c[i]` — residual-style updates
    /// (`s = r - alpha*v`, `r = s - omega*t`).
    pub(crate) fn scaled_diff_cols<const W: usize>(
        &mut self,
        a: [&[f64]; W],
        k: [f64; W],
        b: [&[f64]; W],
        out: [&mut [f64]; W],
        active: [bool; W],
    ) {
        self.for_active_columns(&[a, b], out, active, |c, range, os| {
            for ((oi, ai), bi) in os.iter_mut().zip(&a[c][range.clone()]).zip(&b[c][range]) {
                *oi = ai - k[c] * bi;
            }
        });
    }

    /// `out[i] = a[i] - c * b[i]`.
    pub fn scaled_diff(&mut self, a: &[f64], c: f64, b: &[f64], out: &mut [f64]) {
        self.scaled_diff_cols([a], [c], [b], [out], [true]);
    }

    /// `p_c[i] = r_c[i] + beta_c * (p_c[i] - omega_c * v_c[i])` — the
    /// BiCGSTAB direction update, fused so every schedule reproduces the
    /// same rounding.
    pub(crate) fn direction_update_cols<const W: usize>(
        &mut self,
        r: [&[f64]; W],
        beta: [f64; W],
        omega: [f64; W],
        v: [&[f64]; W],
        p: [&mut [f64]; W],
        active: [bool; W],
    ) {
        self.for_active_columns(&[r, v], p, active, |c, range, ps| {
            for ((pi, ri), vi) in ps.iter_mut().zip(&r[c][range.clone()]).zip(&v[c][range]) {
                *pi = ri + beta[c] * (*pi - omega[c] * vi);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_a(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.137).sin() * 3.0 + 0.25).collect()
    }

    fn vec_b(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.731).cos() - 0.125).collect()
    }

    fn tridiag(n: usize) -> CsrMatrix {
        let mut dense = vec![vec![0.0; n]; n];
        for (i, row) in dense.iter_mut().enumerate() {
            row[i] = 3.0 + (i % 5) as f64;
            if i > 0 {
                row[i - 1] = -1.25;
            }
            if i + 1 < n {
                row[i + 1] = -0.75;
            }
        }
        CsrMatrix::from_dense(&dense)
    }

    /// The contract the whole subsystem rests on: every kernel is bitwise
    /// identical between the serial path and teams of 1, 2 and 4 threads.
    /// `n` is chosen above `SERIAL_CUTOFF` so the team paths really fork.
    #[test]
    fn kernels_are_bitwise_identical_across_thread_counts() {
        let n = 4 * SERIAL_CUTOFF + 333;
        let a = vec_a(n);
        let b = vec_b(n);
        let m = tridiag(n);

        let mut serial = VectorOps::serial();
        let dot_s = serial.dot(&a, &b);
        let norm_s = serial.norm(&a);
        let mut spmv_s = vec![0.0; n];
        serial.spmv(&m, &a, &mut spmv_s);
        let mut axpy_s = b.clone();
        serial.axpy(1.5, &a, &mut axpy_s);

        for threads in [1usize, 2, 4] {
            let team = Team::new(threads);
            let mut ops = VectorOps::on_team(&team);
            assert_eq!(ops.dot(&a, &b).to_bits(), dot_s.to_bits(), "dot threads={threads}");
            assert_eq!(ops.norm(&a).to_bits(), norm_s.to_bits(), "norm threads={threads}");
            let mut y = vec![0.0; n];
            ops.spmv(&m, &a, &mut y);
            for (s, p) in spmv_s.iter().zip(&y) {
                assert_eq!(s.to_bits(), p.to_bits(), "spmv threads={threads}");
            }
            let mut y = b.clone();
            ops.axpy(1.5, &a, &mut y);
            for (s, p) in axpy_s.iter().zip(&y) {
                assert_eq!(s.to_bits(), p.to_bits(), "axpy threads={threads}");
            }
        }
    }

    #[test]
    fn fused_updates_match_their_scalar_expressions() {
        let n = 2 * SERIAL_CUTOFF + 7;
        let r = vec_a(n);
        let v = vec_b(n);
        let team = Team::new(3);
        let mut ops = VectorOps::on_team(&team);
        let (alpha, beta, omega) = (0.375, -1.5, 0.625);

        let mut p = vec_b(n);
        let expect: Vec<f64> =
            r.iter().zip(&p).zip(&v).map(|((ri, pi), vi)| ri + beta * (pi - omega * vi)).collect();
        ops.direction_update_cols([&r], [beta], [omega], [&v], [&mut p], [true]);
        assert_eq!(p, expect);

        let mut x = vec_a(n);
        let expect: Vec<f64> =
            x.iter().zip(&r).zip(&v).map(|((xi, pi), si)| xi + (alpha * pi + omega * si)).collect();
        ops.axpy2_cols([alpha], [&r], [omega], [&v], [&mut x], [true]);
        assert_eq!(x, expect);

        let mut out = vec![0.0; n];
        ops.hadamard(&r, &v, &mut out);
        assert_eq!(out, r.iter().zip(&v).map(|(a, b)| a * b).collect::<Vec<_>>());

        ops.scaled_diff(&r, omega, &v, &mut out);
        assert_eq!(out, r.iter().zip(&v).map(|(a, b)| a - omega * b).collect::<Vec<_>>());

        let mut p = vec_b(n);
        let expect: Vec<f64> = r.iter().zip(&p).map(|(zi, pi)| zi + beta * pi).collect();
        ops.xpby(&r, beta, &mut p);
        assert_eq!(p, expect);
    }

    #[test]
    fn short_vectors_stay_on_the_caller_and_stay_correct() {
        let n = 100; // below SERIAL_CUTOFF
        let a = vec_a(n);
        let b = vec_b(n);
        let team = Team::new(4);
        let mut ops = VectorOps::on_team(&team);
        let mut serial = VectorOps::serial();
        assert_eq!(ops.dot(&a, &b).to_bits(), serial.dot(&a, &b).to_bits());
        let mut y1 = b.clone();
        let mut y2 = b.clone();
        ops.axpy(0.5, &a, &mut y1);
        serial.axpy(0.5, &a, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn one_thread_team_degrades_to_serial() {
        let team = Team::new(1);
        let ops = VectorOps::on_team(&team);
        assert_eq!(ops.threads(), 1);
    }

    /// The non-finite scan pinpoints NaN and ±Inf alike, and the blocked
    /// reductions propagate (rather than mask) a poisoned entry — which is
    /// what lets the Krylov guards detect it from the reduced value alone.
    #[test]
    fn non_finite_entries_are_located_and_poison_reductions() {
        assert_eq!(first_non_finite(&[1.0, 2.0, 3.0]), None);
        assert_eq!(first_non_finite(&[1.0, f64::NAN, f64::INFINITY]), Some(1));
        assert_eq!(first_non_finite(&[f64::NEG_INFINITY]), Some(0));
        assert_eq!(first_non_finite(&[]), None);

        let n = 2 * SERIAL_CUTOFF;
        let mut a = vec_a(n);
        a[n / 2] = f64::NAN;
        for threads in [1usize, 2] {
            let team = Team::new(threads);
            let mut ops = VectorOps::on_team(&team);
            assert!(ops.norm(&a).is_nan(), "threads={threads}");
            assert!(ops.dot(&a, &a).is_nan(), "threads={threads}");
        }
    }

    fn multi(n: usize) -> MultiVector {
        MultiVector::from_columns([
            &vec_a(n),
            &vec_b(n),
            &(0..n).map(|i| ((i * 11 + 5) % 23) as f64 / 2.3 - 5.0).collect::<Vec<_>>(),
        ])
    }

    /// Each kernel at three columns reproduces, per column, its one-column
    /// call bit for bit, serially and across teams.
    #[test]
    fn three_wide_kernels_match_single_kernels_bitwise() {
        let n = 3 * SERIAL_CUTOFF + 111;
        let a = multi(n);
        let b = multi(n);
        let d = vec_a(n);
        let m = tridiag(n);
        let all = [true; 3];
        let (alpha, beta, omega) = ([0.5, -1.25, 2.0], [1.5, 0.25, -0.75], [0.125, -2.0, 0.5]);

        for threads in [1usize, 2, 4] {
            let team = Team::new(threads);
            let mut ops = VectorOps::on_team(&team);
            let mut single = VectorOps::serial();

            let mut y3 = MultiVector::zeros(n);
            ops.spmm3(&m, &a, &mut y3, all);
            let (a3, b3) = (a.components(), b.components());
            let dots = ops.dot_cols(a3, b3, all);
            let norms = ops.norm_cols(a3, all);
            let mut axpy_m = b.clone();
            ops.axpy_cols(alpha, a3, axpy_m.components_mut(), all);
            let mut had_m = MultiVector::zeros(n);
            ops.hadamard_cols(a3, &d, had_m.components_mut(), all);
            let mut diff_m = MultiVector::zeros(n);
            ops.scaled_diff_cols(a3, omega, b3, diff_m.components_mut(), all);
            let mut dir_m = b.clone();
            ops.direction_update_cols(a3, beta, omega, b3, dir_m.components_mut(), all);
            let mut axpy2_m = a.clone();
            ops.axpy2_cols(alpha, a3, omega, b3, axpy2_m.components_mut(), all);

            for c in 0..3 {
                let (ac, bc) = (a.component(c), b.component(c));
                let mut y = vec![0.0; n];
                single.spmv(&m, ac, &mut y);
                assert_eq!(y, y3.component(c), "spmm3 t={threads} c={c}");
                assert_eq!(
                    single.dot(ac, bc).to_bits(),
                    dots[c].to_bits(),
                    "dot t={threads} c={c}"
                );
                assert_eq!(single.norm(ac).to_bits(), norms[c].to_bits(), "norm t={threads} c={c}");
                let mut y = bc.to_vec();
                single.axpy(alpha[c], ac, &mut y);
                assert_eq!(y, axpy_m.component(c), "axpy t={threads} c={c}");
                let mut y = vec![0.0; n];
                single.hadamard(ac, &d, &mut y);
                assert_eq!(y, had_m.component(c), "hadamard t={threads} c={c}");
                let mut y = vec![0.0; n];
                single.scaled_diff(ac, omega[c], bc, &mut y);
                assert_eq!(y, diff_m.component(c), "scaled_diff t={threads} c={c}");
                let mut y = bc.to_vec();
                single.direction_update_cols([ac], [beta[c]], [omega[c]], [bc], [&mut y], [true]);
                assert_eq!(y, dir_m.component(c), "direction_update t={threads} c={c}");
                let mut y = ac.to_vec();
                single.axpy2_cols([alpha[c]], [ac], [omega[c]], [bc], [&mut y], [true]);
                assert_eq!(y, axpy2_m.component(c), "axpy2 t={threads} c={c}");
            }
        }
    }

    /// Masked components are frozen: their storage is untouched, the active
    /// components still match their single-kernel results.
    #[test]
    fn inactive_components_are_left_untouched() {
        let n = 2 * SERIAL_CUTOFF;
        let a = multi(n);
        let m = tridiag(n);
        let team = Team::new(2);
        let mut ops = VectorOps::on_team(&team);
        let mask = [true, false, true];

        let mut y = multi(n);
        let frozen = y.component(1).to_vec();
        ops.spmm3(&m, &a, &mut y, mask);
        assert_eq!(y.component(1), frozen.as_slice(), "spmm3 touched a masked component");
        let mut single = VectorOps::serial();
        let mut expect = vec![0.0; n];
        single.spmv(&m, a.component(2), &mut expect);
        assert_eq!(expect, y.component(2));

        let mut y = multi(n);
        let frozen = y.component(1).to_vec();
        ops.axpy_cols([2.0, 3.0, 4.0], a.components(), y.components_mut(), mask);
        assert_eq!(y.component(1), frozen.as_slice(), "axpy touched a masked component");

        let dots = ops.dot_cols(a.components(), a.components(), mask);
        assert_eq!(dots[1], 0.0, "masked dot slot must be zero");
        assert_eq!(dots[0].to_bits(), single.dot(a.component(0), a.component(0)).to_bits());
    }
}
