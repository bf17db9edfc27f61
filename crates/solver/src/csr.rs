//! Compressed-sparse-row matrices.
//!
//! The global system matrix assembled by phase 8 of the mini-app is stored in
//! CSR form, built from the mesh node-to-node graph.  The scatter-add entry
//! point ([`CsrMatrix::add`]) is exactly the operation phase 8 performs for
//! every (element, local-row, local-column) triple.

use crate::multivector::MultiVector;
use serde::{Deserialize, Serialize};

/// A square sparse matrix in CSR format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Creates a zero matrix with the given sparsity pattern.
    ///
    /// The column indices of every row must be strictly increasing: sorted
    /// rows are a structural invariant of the type ([`entry_index`](Self::entry_index)
    /// locates columns by binary search).
    ///
    /// # Panics
    /// Panics if the pattern is malformed (row pointers not monotonically
    /// increasing, a column index out of range, or unsorted/duplicate
    /// columns within a row).
    pub fn from_pattern(row_ptr: Vec<usize>, col_idx: Vec<usize>) -> Self {
        assert!(!row_ptr.is_empty(), "row_ptr must have at least one entry");
        let n = row_ptr.len() - 1;
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len(), "row_ptr/col_idx mismatch");
        assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]), "row_ptr must be non-decreasing");
        assert!(col_idx.iter().all(|&c| c < n), "column index out of range");
        for row in 0..n {
            let cols = &col_idx[row_ptr[row]..row_ptr[row + 1]];
            assert!(
                cols.windows(2).all(|w| w[0] < w[1]),
                "columns of row {row} must be strictly increasing"
            );
        }
        let values = vec![0.0; col_idx.len()];
        CsrMatrix { n, row_ptr, col_idx, values }
    }

    /// Creates a matrix from an explicit dense triple (used in tests).
    pub fn from_dense(dense: &[Vec<f64>]) -> Self {
        let n = dense.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in dense {
            assert_eq!(row.len(), n, "dense matrix must be square");
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { n, row_ptr, col_idx, values }
    }

    /// Matrix dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointers.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Stored values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sets every stored value to zero (reused between time steps, so the
    /// sparsity allocation persists — the "workhorse collection" idiom).
    pub fn zero_values(&mut self) {
        self.values.fill(0.0);
    }

    /// Position of entry `(row, col)` in the value array, found by binary
    /// search within the (sorted) row.
    #[inline]
    pub fn entry_index(&self, row: usize, col: usize) -> Option<usize> {
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        self.col_idx[start..end].binary_search(&col).ok().map(|k| start + k)
    }

    /// Adds `value` to entry `(row, col)`.
    ///
    /// # Panics
    /// Panics if `(row, col)` is not part of the sparsity pattern.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        match self.entry_index(row, col) {
            Some(k) => self.values[k] += value,
            None => panic!("entry ({row}, {col}) not present in the sparsity pattern"),
        }
    }

    /// Returns entry `(row, col)` (0 if not stored).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.entry_index(row, col).map_or(0.0, |k| self.values[k])
    }

    /// Splits the matrix into its (shared) sparsity pattern and (mutable)
    /// values: `(row_ptr, col_idx, values)`.
    ///
    /// This is the entry point of the assembly sweeps: the caller scatters
    /// into the value storage at positions it precomputed from the pattern
    /// (the element→CSR slot map of `lv_mesh::MeshTopology`), from different
    /// threads for disjoint rows.
    pub fn pattern_and_values_mut(&mut self) -> (&[usize], &[usize], &mut [f64]) {
        (&self.row_ptr, &self.col_idx, &mut self.values)
    }

    /// The diagonal of the matrix.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.get(i, i)).collect()
    }

    /// Sparse matrix–vector product `y = A·x`.
    ///
    /// # Panics
    /// Panics if the vector lengths do not match the matrix dimension.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), self.n);
        self.spmv_range(x, 0..self.n, y);
    }

    /// Sparse matrix–vector product restricted to the rows of `rows`:
    /// `y[i] = (A·x)[rows.start + i]`, with `y.len() == rows.len()`.
    ///
    /// This is the row-partitioned entry point of the parallel solver path:
    /// output rows are disjoint, so concurrent callers with disjoint ranges
    /// need no synchronization, and each row is accumulated in column order
    /// regardless of the partition — the parallel product is **bitwise
    /// identical** to the serial one for every thread count.
    ///
    /// # Panics
    /// Panics if `x` does not match the matrix dimension, `rows` is out of
    /// bounds, or `y` does not match `rows`.
    pub fn spmv_range(&self, x: &[f64], rows: std::ops::Range<usize>, y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert!(rows.end <= self.n, "row range {rows:?} out of bounds for dim {}", self.n);
        assert_eq!(y.len(), rows.len(), "output length must match the row range");
        let first = rows.start;
        for (i, out) in y.iter_mut().enumerate() {
            let row = first + i;
            let start = self.row_ptr[row];
            let end = self.row_ptr[row + 1];
            let mut sum = 0.0;
            for k in start..end {
                sum += self.values[k] * x[self.col_idx[k]];
            }
            *out = sum;
        }
    }

    /// Convenience allocation-returning SpMV.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.spmv(x, &mut y);
        y
    }

    /// Sparse matrix–multi-vector product `Y = A·X` for three right-hand
    /// sides: one traversal of the matrix values and column indices serves
    /// all three vectors, which is where the memory-bound solver recovers
    /// bandwidth (the values/col_idx streams dominate SpMV traffic).
    ///
    /// Each component accumulates in column order with its own accumulator,
    /// so component `c` of the result is **bitwise identical** to
    /// `spmv(x.component(c), …)`.
    ///
    /// # Panics
    /// Panics if the multi-vector lengths do not match the matrix dimension.
    pub fn spmm3(&self, x: &MultiVector, y: &mut MultiVector) {
        assert_eq!(y.len(), self.n);
        let [y0, y1, y2] = y.components_mut();
        self.spmm3_range(x.components(), 0..self.n, [y0, y1, y2], [true; 3]);
    }

    /// [`spmm3`](Self::spmm3) restricted to the rows of `rows` — the
    /// row-partitioned entry point of the parallel multi-RHS path, with the
    /// same disjoint-output contract as [`spmv_range`](Self::spmv_range).
    ///
    /// `active` masks components: an inactive component's output slice is
    /// left untouched (and its `x` gathers skipped), while the traversal of
    /// the matrix values/column indices stays **single** regardless of the
    /// mask — that is the whole point of the fused path, and it must not be
    /// lost when the batched solvers freeze an early-converged component.
    /// The mask entries are loop-invariant, so the compiler unswitches the
    /// inner loop into straight-line variants.
    ///
    /// # Panics
    /// Panics if any input does not match the matrix dimension or any output
    /// slice does not match `rows`.
    pub fn spmm3_range(
        &self,
        x: [&[f64]; 3],
        rows: std::ops::Range<usize>,
        y: [&mut [f64]; 3],
        active: [bool; 3],
    ) {
        for xc in &x {
            assert_eq!(xc.len(), self.n);
        }
        assert!(rows.end <= self.n, "row range {rows:?} out of bounds for dim {}", self.n);
        let [y0, y1, y2] = y;
        assert_eq!(y0.len(), rows.len(), "output length must match the row range");
        assert_eq!(y1.len(), rows.len(), "output length must match the row range");
        assert_eq!(y2.len(), rows.len(), "output length must match the row range");
        let [x0, x1, x2] = x;
        let first = rows.start;
        for i in 0..rows.len() {
            let row = first + i;
            let start = self.row_ptr[row];
            let end = self.row_ptr[row + 1];
            let mut s0 = 0.0;
            let mut s1 = 0.0;
            let mut s2 = 0.0;
            for k in start..end {
                let a = self.values[k];
                let col = self.col_idx[k];
                if active[0] {
                    s0 += a * x0[col];
                }
                if active[1] {
                    s1 += a * x1[col];
                }
                if active[2] {
                    s2 += a * x2[col];
                }
            }
            if active[0] {
                y0[i] = s0;
            }
            if active[1] {
                y1[i] = s1;
            }
            if active[2] {
                y2[i] = s2;
            }
        }
    }

    /// The symmetrically permuted matrix `P·A·Pᵀ`: entry `(r, c)` moves to
    /// `(forward[r], forward[c])`.  Rows of the result are re-sorted so the
    /// strictly-increasing-columns invariant holds.
    ///
    /// This is how a node renumbering is pushed through an already assembled
    /// system; the permuted values are the same `f64`s (moved, never
    /// recombined), so permuting forth and back is lossless.
    ///
    /// # Panics
    /// Panics if `forward` is not a permutation of `0..dim()`.
    pub fn permuted(&self, forward: &[usize]) -> CsrMatrix {
        assert_eq!(forward.len(), self.n, "permutation must cover every row");
        let mut inverse = vec![usize::MAX; self.n];
        for (old, &new) in forward.iter().enumerate() {
            assert!(new < self.n, "forward map sends {old} outside the matrix");
            assert!(inverse[new] == usize::MAX, "forward map is not injective");
            inverse[new] = old;
        }
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        let mut entries: Vec<(usize, f64)> = Vec::new();
        row_ptr.push(0);
        for &old_row in &inverse {
            entries.clear();
            for k in self.row_ptr[old_row]..self.row_ptr[old_row + 1] {
                entries.push((forward[self.col_idx[k]], self.values[k]));
            }
            entries.sort_unstable_by_key(|&(col, _)| col);
            for &(col, value) in &entries {
                col_idx.push(col);
                values.push(value);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { n: self.n, row_ptr, col_idx, values }
    }

    /// Turns `row` into an identity row (zero off-diagonals, unit diagonal)
    /// without touching any right-hand side.
    pub fn dirichlet_row(&mut self, row: usize) {
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        for k in start..end {
            self.values[k] = if self.col_idx[k] == row { 1.0 } else { 0.0 };
        }
    }

    /// Applies a Dirichlet condition on `row`: zeroes the off-diagonal
    /// entries of the row, puts 1 on the diagonal, and sets `rhs[row]` to
    /// `value`.  (Column symmetrization is intentionally not performed; the
    /// Krylov solvers used here do not require symmetry.)
    pub fn apply_dirichlet(&mut self, row: usize, value: f64, rhs: &mut [f64]) {
        self.dirichlet_row(row);
        rhs[row] = value;
    }

    /// Pins a set of rows **symmetrically**: every pinned row *and* column
    /// is zeroed and the pinned diagonals set to 1.  Unlike
    /// [`dirichlet_row`](Self::dirichlet_row) this preserves symmetry, so a
    /// symmetric positive semi-definite operator (e.g. the pure-Neumann
    /// pressure Laplacian, whose kernel is the constants) stays symmetric —
    /// and becomes positive definite once at least one node per connected
    /// component is pinned.  The pinned unknowns are forced to zero, so the
    /// caller only has to zero the matching right-hand-side entries.
    pub fn pin_rows_symmetric(&mut self, rows: &[usize]) {
        let mut pinned = vec![false; self.n];
        for &row in rows {
            assert!(row < self.n, "pinned row {row} out of range");
            pinned[row] = true;
        }
        for row in 0..self.n {
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                let col = self.col_idx[k];
                if pinned[row] || pinned[col] {
                    self.values[k] = if row == col { 1.0 } else { 0.0 };
                }
            }
        }
    }

    /// Frobenius norm of the stored values.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Checks whether the matrix is (structurally and numerically) symmetric
    /// within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for row in 0..self.n {
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                let col = self.col_idx[k];
                if (self.values[k] - self.get(col, row)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        // Tridiagonal [-1, 2, -1] matrix.
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

    #[test]
    fn pin_rows_symmetric_preserves_symmetry_and_pins() {
        let mut m = laplacian_1d(6);
        m.pin_rows_symmetric(&[0, 3]);
        // Pinned rows and columns are identity rows/columns...
        assert!(m.is_symmetric(0.0), "symmetric elimination must stay symmetric");
        for &pin in &[0usize, 3] {
            assert_eq!(m.get(pin, pin), 1.0);
            for col in 0..6 {
                if col != pin {
                    assert_eq!(m.get(pin, col), 0.0, "row {pin} col {col}");
                    assert_eq!(m.get(col, pin), 0.0, "col {pin} row {col}");
                }
            }
        }
        // ...while untouched entries keep their values.
        assert_eq!(m.get(1, 1), 2.0);
        assert_eq!(m.get(1, 2), -1.0);
        assert_eq!(m.get(4, 5), -1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pin_rows_symmetric_rejects_out_of_range() {
        let mut m = laplacian_1d(4);
        m.pin_rows_symmetric(&[7]);
    }

    #[test]
    fn from_dense_roundtrip() {
        let m = laplacian_1d(5);
        assert_eq!(m.dim(), 5);
        assert_eq!(m.nnz(), 13);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(0, 1), -1.0);
        assert_eq!(m.get(0, 4), 0.0);
        assert!(m.is_symmetric(0.0));
    }

    #[test]
    fn from_pattern_starts_zeroed_and_accepts_adds() {
        let row_ptr = vec![0, 2, 4];
        let col_idx = vec![0, 1, 0, 1];
        let mut m = CsrMatrix::from_pattern(row_ptr, col_idx);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.frobenius_norm(), 0.0);
        m.add(0, 0, 2.0);
        m.add(0, 0, 0.5);
        m.add(1, 0, -1.0);
        assert_eq!(m.get(0, 0), 2.5);
        assert_eq!(m.get(1, 0), -1.0);
        m.zero_values();
        assert_eq!(m.frobenius_norm(), 0.0);
    }

    #[test]
    #[should_panic]
    fn add_outside_pattern_panics() {
        let mut m = CsrMatrix::from_pattern(vec![0, 1, 2], vec![0, 1]);
        m.add(0, 1, 1.0);
    }

    #[test]
    fn entry_index_finds_every_stored_column() {
        let m = laplacian_1d(7);
        for row in 0..7 {
            for k in m.row_ptr()[row]..m.row_ptr()[row + 1] {
                assert_eq!(m.entry_index(row, m.col_idx()[k]), Some(k));
            }
        }
        // Columns outside the tridiagonal band are not stored.
        assert_eq!(m.entry_index(0, 5), None);
        assert_eq!(m.entry_index(6, 0), None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_row_pattern_rejected() {
        // Row 0 of a 2x2 matrix has columns [1, 0]: in range, but not
        // strictly increasing.
        let _ = CsrMatrix::from_pattern(vec![0, 2, 2], vec![1, 0]);
    }

    #[test]
    fn pattern_and_values_mut_exposes_the_same_storage() {
        let mut m = laplacian_1d(4);
        let (row_ptr, col_idx, values) = m.pattern_and_values_mut();
        assert_eq!(row_ptr.len(), 5);
        assert_eq!(col_idx.len(), values.len());
        values[0] = 42.0;
        assert_eq!(m.get(0, 0), 42.0);
    }

    #[test]
    fn spmv_matches_dense_computation() {
        let m = laplacian_1d(6);
        let x: Vec<f64> = (0..6).map(|i| (i as f64 + 1.0).sin()).collect();
        let y = m.mul_vec(&x);
        for i in 0..6 {
            let mut expect = 2.0 * x[i];
            if i > 0 {
                expect -= x[i - 1];
            }
            if i + 1 < 6 {
                expect -= x[i + 1];
            }
            assert!((y[i] - expect).abs() < 1e-14);
        }
    }

    #[test]
    fn spmv_range_tiles_reproduce_the_full_product() {
        let m = laplacian_1d(23);
        let x: Vec<f64> = (0..23).map(|i| (i as f64 * 0.31).cos()).collect();
        let full = m.mul_vec(&x);
        for parts in [1usize, 2, 5] {
            let mut tiled = vec![0.0; 23];
            let per = 23usize.div_ceil(parts);
            for p in 0..parts {
                let rows = (p * per).min(23)..((p + 1) * per).min(23);
                let len = rows.len();
                m.spmv_range(&x, rows.clone(), &mut tiled[rows.start..rows.start + len]);
            }
            for (a, b) in full.iter().zip(&tiled) {
                assert_eq!(a.to_bits(), b.to_bits(), "parts={parts}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn spmv_range_rejects_out_of_bounds_rows() {
        let m = laplacian_1d(4);
        let x = vec![0.0; 4];
        let mut y = vec![0.0; 2];
        m.spmv_range(&x, 3..5, &mut y);
    }

    #[test]
    fn diagonal_extraction() {
        let m = laplacian_1d(4);
        assert_eq!(m.diagonal(), vec![2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn dirichlet_row_is_identity_after_application() {
        let mut m = laplacian_1d(5);
        let mut rhs = vec![1.0; 5];
        m.apply_dirichlet(2, 7.5, &mut rhs);
        assert_eq!(m.get(2, 2), 1.0);
        assert_eq!(m.get(2, 1), 0.0);
        assert_eq!(m.get(2, 3), 0.0);
        assert_eq!(rhs[2], 7.5);
    }

    #[test]
    #[should_panic]
    fn bad_pattern_rejected() {
        // column index 5 out of range for a 2x2 matrix
        let _ = CsrMatrix::from_pattern(vec![0, 1, 2], vec![0, 5]);
    }

    #[test]
    fn spmm3_components_match_single_spmv_bitwise() {
        let m = laplacian_1d(40);
        let x = MultiVector::from_columns([
            &(0..40).map(|i| (i as f64 * 0.3).sin()).collect::<Vec<_>>(),
            &(0..40).map(|i| (i as f64 * 0.7).cos() * 2.0).collect::<Vec<_>>(),
            &(0..40).map(|i| ((i * 7 + 1) % 13) as f64 - 6.0).collect::<Vec<_>>(),
        ]);
        let mut y = MultiVector::zeros(40);
        m.spmm3(&x, &mut y);
        for c in 0..3 {
            let single = m.mul_vec(x.component(c));
            for (a, b) in single.iter().zip(y.component(c)) {
                assert_eq!(a.to_bits(), b.to_bits(), "component {c}");
            }
        }
    }

    #[test]
    fn spmm3_range_tiles_reproduce_the_full_product() {
        let m = laplacian_1d(17);
        let x = MultiVector::from_columns([
            &(0..17).map(|i| i as f64).collect::<Vec<_>>(),
            &(0..17).map(|i| (i as f64).sqrt()).collect::<Vec<_>>(),
            &(0..17).map(|i| -(i as f64)).collect::<Vec<_>>(),
        ]);
        let mut full = MultiVector::zeros(17);
        m.spmm3(&x, &mut full);
        let mut tiled = MultiVector::zeros(17);
        for rows in [0..5usize, 5..11, 11..17] {
            let [y0, y1, y2] = tiled.components_mut();
            m.spmm3_range(
                x.components(),
                rows.clone(),
                [&mut y0[rows.clone()], &mut y1[rows.clone()], &mut y2[rows.clone()]],
                [true; 3],
            );
        }
        assert_eq!(full, tiled);
    }

    #[test]
    fn spmm3_range_mask_freezes_inactive_components() {
        let m = laplacian_1d(12);
        let x = MultiVector::from_columns([
            &(0..12).map(|i| i as f64).collect::<Vec<_>>(),
            &(0..12).map(|i| (i as f64 * 0.4).sin()).collect::<Vec<_>>(),
            &(0..12).map(|i| 2.0 - i as f64).collect::<Vec<_>>(),
        ]);
        let mut full = MultiVector::zeros(12);
        m.spmm3(&x, &mut full);
        let mut masked = MultiVector::zeros(12);
        masked.component_mut(1).fill(7.5);
        {
            let [y0, y1, y2] = masked.components_mut();
            m.spmm3_range(x.components(), 0..12, [y0, y1, y2], [true, false, true]);
        }
        assert_eq!(masked.component(0), full.component(0));
        assert_eq!(masked.component(1), &[7.5; 12], "inactive component was written");
        assert_eq!(masked.component(2), full.component(2));
    }

    #[test]
    fn permuted_matrix_moves_entries_and_roundtrips() {
        let m = laplacian_1d(6);
        // Reversal permutation: forward[i] = 5 - i.
        let forward: Vec<usize> = (0..6).map(|i| 5 - i).collect();
        let p = m.permuted(&forward);
        for r in 0..6 {
            for c in 0..6 {
                assert_eq!(p.get(forward[r], forward[c]).to_bits(), m.get(r, c).to_bits());
            }
        }
        // Applying the inverse permutation restores the original bit for bit.
        let mut inverse = vec![0usize; 6];
        for (old, &new) in forward.iter().enumerate() {
            inverse[new] = old;
        }
        assert_eq!(p.permuted(&inverse), m);
    }

    #[test]
    #[should_panic]
    fn permuted_rejects_non_permutations() {
        let m = laplacian_1d(3);
        let _ = m.permuted(&[0, 0, 1]);
    }

    #[test]
    #[should_panic]
    fn spmv_rejects_wrong_length() {
        let m = laplacian_1d(3);
        let x = vec![0.0; 4];
        let mut y = vec![0.0; 3];
        m.spmv(&x, &mut y);
    }
}
