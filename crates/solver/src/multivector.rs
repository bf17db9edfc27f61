//! The [`MultiVector`]: three vectors of equal length in SoA layout.
//!
//! A semi-implicit Navier–Stokes time step solves three momentum-increment
//! systems (x/y/z components) that share the same matrix.  Solving them one
//! by one streams the CSR values and column indices three times; a
//! multi-vector solve streams the matrix **once** per Krylov iteration
//! ([`crate::csr::CsrMatrix::spmm3`]) and pays one fork/join per fused
//! BLAS-1 operation instead of three (the column-generic kernels of
//! [`crate::parallel::VectorOps`] at width 3).
//!
//! The layout is structure-of-arrays — component `c` is the contiguous slice
//! `data[c*n .. (c+1)*n]` — so every per-component kernel sees exactly the
//! same unit-stride stream it would see in a single-RHS solve.  It is the
//! right-hand-side type of [`crate::krylov::bicgstab3_on`], whose columns are
//! *bitwise identical* to the single-RHS solves.

use serde::{Deserialize, Serialize};

/// Number of right-hand sides a [`MultiVector`] carries (the three momentum
/// components of a 3-D flow).
pub const NRHS: usize = 3;

/// Three equal-length vectors in SoA storage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiVector {
    n: usize,
    data: Vec<f64>,
}

impl MultiVector {
    /// Three zero vectors of length `n`.
    pub fn zeros(n: usize) -> Self {
        MultiVector { n, data: vec![0.0; NRHS * n] }
    }

    /// Builds a multi-vector from three equal-length columns.
    ///
    /// # Panics
    /// Panics if the columns differ in length.
    pub fn from_columns(columns: [&[f64]; NRHS]) -> Self {
        let n = columns[0].len();
        let mut data = Vec::with_capacity(NRHS * n);
        for col in columns {
            assert_eq!(col.len(), n, "multi-vector columns must have equal length");
            data.extend_from_slice(col);
        }
        MultiVector { n, data }
    }

    /// Builds a multi-vector from a node-interleaved array
    /// (`values[NRHS*node + c]`, the layout of the assembled right-hand
    /// side): de-interleaves into SoA.
    ///
    /// # Panics
    /// Panics if the length is not a multiple of [`NRHS`].
    pub fn from_interleaved(values: &[f64]) -> Self {
        assert_eq!(values.len() % NRHS, 0, "interleaved array length must be a multiple of 3");
        let n = values.len() / NRHS;
        let mut data = vec![0.0; NRHS * n];
        for node in 0..n {
            for c in 0..NRHS {
                data[c * n + node] = values[NRHS * node + c];
            }
        }
        MultiVector { n, data }
    }

    /// Re-interleaves the components into `out[NRHS*node + c]` form.
    pub fn to_interleaved(&self) -> Vec<f64> {
        let mut out = vec![0.0; NRHS * self.n];
        for c in 0..NRHS {
            for (node, &v) in self.component(c).iter().enumerate() {
                out[NRHS * node + c] = v;
            }
        }
        out
    }

    /// Length of each component vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the component vectors are empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Component `c` as a contiguous slice.
    #[inline]
    pub fn component(&self, c: usize) -> &[f64] {
        &self.data[c * self.n..(c + 1) * self.n]
    }

    /// Component `c` as a mutable contiguous slice.
    #[inline]
    pub fn component_mut(&mut self, c: usize) -> &mut [f64] {
        &mut self.data[c * self.n..(c + 1) * self.n]
    }

    /// All three components at once.
    #[inline]
    pub fn components(&self) -> [&[f64]; NRHS] {
        let (a, rest) = self.data.split_at(self.n);
        let (b, c) = rest.split_at(self.n);
        [a, b, c]
    }

    /// All three components at once, mutably (disjoint borrows out of the
    /// flat storage).
    #[inline]
    pub fn components_mut(&mut self) -> [&mut [f64]; NRHS] {
        let (a, rest) = self.data.split_at_mut(self.n);
        let (b, c) = rest.split_at_mut(self.n);
        [a, b, c]
    }

    /// Overwrites component `c` with `values`.
    ///
    /// # Panics
    /// Panics if the length does not match.
    pub fn set_component(&mut self, c: usize, values: &[f64]) {
        self.component_mut(c).copy_from_slice(values);
    }

    /// Sets every entry of every component to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_accessors() {
        let mut m = MultiVector::zeros(4);
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
        m.component_mut(1)[2] = 5.0;
        assert_eq!(m.component(1), &[0.0, 0.0, 5.0, 0.0]);
        assert_eq!(m.component(0), &[0.0; 4]);
        let [a, b, c] = m.components();
        assert_eq!((a.len(), b.len(), c.len()), (4, 4, 4));
        m.fill_zero();
        assert_eq!(m.component(1), &[0.0; 4]);
    }

    #[test]
    fn interleaved_roundtrip() {
        // values[3*node + c] for 2 nodes.
        let interleaved = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let m = MultiVector::from_interleaved(&interleaved);
        assert_eq!(m.len(), 2);
        assert_eq!(m.component(0), &[1.0, 4.0]);
        assert_eq!(m.component(1), &[2.0, 5.0]);
        assert_eq!(m.component(2), &[3.0, 6.0]);
        assert_eq!(m.to_interleaved(), interleaved);
    }

    #[test]
    fn from_columns_copies_each_component() {
        let m = MultiVector::from_columns([&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.component(2), &[5.0, 6.0]);
        let mut m = m;
        m.set_component(0, &[9.0, 8.0]);
        assert_eq!(m.component(0), &[9.0, 8.0]);
    }

    #[test]
    fn components_mut_are_disjoint() {
        let mut m = MultiVector::zeros(3);
        let [a, b, c] = m.components_mut();
        a[0] = 1.0;
        b[1] = 2.0;
        c[2] = 3.0;
        assert_eq!(m.component(0), &[1.0, 0.0, 0.0]);
        assert_eq!(m.component(1), &[0.0, 2.0, 0.0]);
        assert_eq!(m.component(2), &[0.0, 0.0, 3.0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_columns_rejected() {
        let _ = MultiVector::from_columns([&[1.0, 2.0], &[3.0], &[5.0, 6.0]]);
    }

    #[test]
    #[should_panic]
    fn non_multiple_interleaved_rejected() {
        let _ = MultiVector::from_interleaved(&[1.0, 2.0]);
    }
}
