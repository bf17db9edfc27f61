//! The abstract linear-operator and preconditioner interfaces behind the
//! Krylov solvers.
//!
//! The pressure Poisson solve no longer has to run against an assembled
//! [`CsrMatrix`]: a matrix-free operator (one reference stiffness block plus
//! a per-element geometric factor, see `lv-kernel`) produces the same `A·x`
//! while streaming a fraction of the memory — the long-vector co-design
//! trade of the source paper applied to the solver half.  [`LinearOperator`]
//! is the seam: CG, BiCGSTAB and the multigrid preconditioner are written
//! against it, so the CSR, diagonal-storage ([`crate::DiaMatrix`]) and
//! matrix-free backends are interchangeable — the momentum solve of a time
//! step runs on whichever of the first two the mesh's node order allows,
//! through [`apply3_range`](LinearOperator::apply3_range), the
//! three-column product a backend can serve from one traversal of its
//! data.  [`Preconditioner`]
//! is the other seam: what CG applies between products, and whether it is
//! exactly one fixed operator (Jacobi) or only close to one (the `f32`
//! multigrid V-cycle) — which decides the `β` CG uses.
//!
//! The determinism contract carries over unchanged: an implementation's
//! [`apply_range`](LinearOperator::apply_range) writes **only** the rows it
//! was given and must compute each row identically no matter how `0..dim` is
//! partitioned.  Every backend in this workspace accumulates each output row
//! in a fixed order, so `A·x` is bitwise identical for every thread count.

use crate::csr::CsrMatrix;
use crate::parallel::VectorOps;
use std::ops::Range;

/// A square linear operator `y = A·x`, applicable one row-range at a time.
///
/// Implementations must be pure functions of `(x, rows)`: the rows outside
/// `rows` are never read or written, and a row's value may not depend on the
/// partition it was computed under (the bitwise-reproducibility contract of
/// the parallel solvers).
pub trait LinearOperator: Sync {
    /// Number of rows (= columns) of the operator.
    fn dim(&self) -> usize;

    /// Computes `y[i - rows.start] = (A·x)[i]` for `i ∈ rows`.
    ///
    /// `y` has exactly `rows.len()` entries; `x` is the full input vector.
    fn apply_range(&self, x: &[f64], rows: Range<usize>, y: &mut [f64]);

    /// The three products `y[c] = A·x[c]` over `rows` for the columns
    /// `active` marks — the product of a three-column Krylov solve (the
    /// momentum systems share one matrix).  An inactive column's output is
    /// left untouched.  Each active column must carry the bits of
    /// [`apply_range`](Self::apply_range) on it, which is what the default
    /// runs; a backend overrides this to serve all three columns from one
    /// traversal of its data.
    fn apply3_range(
        &self,
        x: [&[f64]; 3],
        rows: Range<usize>,
        y: [&mut [f64]; 3],
        active: [bool; 3],
    ) {
        for (c, yc) in y.into_iter().enumerate().filter(|(c, _)| active[*c]) {
            self.apply_range(x[c], rows.clone(), yc);
        }
    }

    /// The operator diagonal (for Jacobi-type preconditioning and smoothing).
    fn diagonal(&self) -> Vec<f64>;

    /// Bytes of operator data streamed by one full `A·x` — the bandwidth
    /// proxy reported when comparing CSR against matrix-free backends.
    /// Vector traffic (`x`, `y`) is excluded: it is identical for every
    /// backend.
    fn streamed_bytes(&self) -> usize;

    /// Modeled floating-point operations of one full `A·x` — the compute
    /// half of the traffic model ([`streamed_bytes`](Self::streamed_bytes)
    /// is the bandwidth half) that the telemetry roofline reports pair with
    /// measured wall-clock.  A function of the operator structure only, so
    /// it is deterministic across thread counts.  Defaults to 0 (unmodeled).
    fn apply_flops(&self) -> u64 {
        0
    }

    /// Full product `y = A·x` on the calling thread.
    ///
    /// # Panics
    /// Panics if `x` or `y` do not match [`dim`](Self::dim).
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim());
        assert_eq!(y.len(), self.dim());
        self.apply_range(x, 0..self.dim(), y);
    }
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        CsrMatrix::dim(self)
    }

    fn apply_range(&self, x: &[f64], rows: Range<usize>, y: &mut [f64]) {
        self.spmv_range(x, rows, y);
    }

    fn apply3_range(
        &self,
        x: [&[f64]; 3],
        rows: Range<usize>,
        y: [&mut [f64]; 3],
        active: [bool; 3],
    ) {
        self.spmm3_range(x, rows, y, active);
    }

    fn diagonal(&self) -> Vec<f64> {
        CsrMatrix::diagonal(self)
    }

    fn streamed_bytes(&self) -> usize {
        // values + col_idx per stored entry, plus the row pointer array.
        self.nnz() * (std::mem::size_of::<f64>() + std::mem::size_of::<usize>())
            + (CsrMatrix::dim(self) + 1) * std::mem::size_of::<usize>()
    }

    fn apply_flops(&self) -> u64 {
        // One multiply-add per stored entry.
        2 * self.nnz() as u64
    }
}

/// A preconditioner application `z = M⁻¹·r` inside a Krylov iteration.
///
/// Takes `&mut self` because stateful preconditioners (the multigrid
/// V-cycle) smooth into owned scratch vectors.  For plain CG the application
/// must be a fixed symmetric positive-definite linear operator — the same
/// `M` on every call — or the outer iteration loses its convergence
/// guarantee.  A preconditioner that is only *close* to such an operator (a
/// V-cycle that rounds to `f32` on the way) says so through
/// [`is_inexact`](Self::is_inexact), and CG then takes the flexible
/// (Polak–Ribière) `β`, which re-orthogonalises against what the application
/// actually returned.
pub trait Preconditioner {
    /// Computes `z = M⁻¹·r` using the caller's kernels (and therefore the
    /// caller's worker team and determinism contract).
    fn apply(&mut self, ops: &mut VectorOps<'_>, r: &[f64], z: &mut [f64]);

    /// Whether [`apply`](Self::apply) deviates from one fixed SPD linear
    /// map, e.g. by rounding to a lower precision.  A property of the
    /// preconditioner, not a setting: `false` unless an implementation
    /// knows better.
    fn is_inexact(&self) -> bool {
        false
    }
}

/// The Jacobi (inverse-diagonal) preconditioner of both Krylov solvers.
#[derive(Debug, Clone)]
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Builds the preconditioner from the operator diagonal.
    pub fn new(operator: &dyn LinearOperator) -> Self {
        JacobiPreconditioner { inv_diag: crate::krylov::inverse_diagonal(operator) }
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply(&mut self, ops: &mut VectorOps<'_>, r: &[f64], z: &mut [f64]) {
        ops.hadamard(r, &self.inv_diag, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tridiag(n: usize) -> CsrMatrix {
        let mut dense = vec![vec![0.0; n]; n];
        for (i, row) in dense.iter_mut().enumerate() {
            row[i] = 3.0 + (i % 4) as f64;
            if i > 0 {
                row[i - 1] = -1.0;
            }
            if i + 1 < n {
                row[i + 1] = -0.5;
            }
        }
        CsrMatrix::from_dense(&dense)
    }

    #[test]
    fn csr_operator_matches_spmv() {
        let a = tridiag(40);
        let x: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut via_trait = vec![0.0; 40];
        LinearOperator::apply(&a, &x, &mut via_trait);
        let direct = a.mul_vec(&x);
        assert_eq!(via_trait, direct);

        // Range application fills exactly the requested rows.
        let mut mid = vec![0.0; 10];
        a.apply_range(&x, 15..25, &mut mid);
        assert_eq!(mid.as_slice(), &direct[15..25]);
    }

    #[test]
    fn csr_diagonal_and_bytes() {
        let a = tridiag(8);
        assert_eq!(LinearOperator::diagonal(&a)[3], 3.0 + 3.0);
        let word = std::mem::size_of::<usize>();
        assert_eq!(a.streamed_bytes(), a.nnz() * (8 + word) + 9 * word);
        assert_eq!(a.apply_flops(), 2 * a.nnz() as u64);
    }

    #[test]
    fn jacobi_scales_by_the_inverse_diagonal() {
        let a = tridiag(16);
        let r: Vec<f64> = (0..16).map(|i| i as f64 - 7.5).collect();
        let mut z = vec![0.0; 16];
        let mut ops = VectorOps::serial();
        JacobiPreconditioner::new(&a).apply(&mut ops, &r, &mut z);
        for i in 0..16 {
            assert_eq!(z[i], r[i] * (1.0 / (3.0 + (i % 4) as f64)));
        }
    }
}
