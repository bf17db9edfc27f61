//! Block-major diagonal storage for lattice operators: the multigrid levels
//! and, since the momentum solve moved onto it, the assembled momentum
//! matrix of a time step.
//!
//! Every matrix the V-cycle touches lives on a generator-ordered box
//! lattice, and so does the node graph the momentum matrix is assembled
//! on: the pattern is at most 27 distinct `col − row` offsets (the pattern
//! is topological — jittered coordinates do not change it, a renumbered
//! node order does).  [`DiaMatrix`] stores exactly that: per block of
//! [`BLOCK_ROWS`] rows, one run of values per offset (ascending), zero
//! where the CSR row has no entry, and no column indices at all.  The
//! kernel is the paper's loop shape — for a block,
//! `for offset { for row in block { acc[row] += val[row]·x[row+offset] } }` —
//! unit stride in every stream, no gathers, and the vector lanes are
//! **rows**: nothing is reassociated, each row still adds its entries in
//! ascending column order.
//!
//! **Same bits as CSR.**  A row's sum starts at `+0.0` and can therefore
//! never be `-0.0`; a padded entry contributes `0.0·x = ±0.0`, and adding
//! `±0.0` to such a sum leaves it unchanged.  So for **finite** `x` a
//! [`DiaMatrix`] product is bitwise equal to [`CsrMatrix::spmv_range`] of
//! the matrix it was built from.  (A NaN/Inf in `x` would leak through a
//! padded zero into rows CSR keeps clean; the Krylov drivers reject
//! non-finite right-hand sides before the first product.)
//!
//! Besides the plain product there are three fused row-range kernels and
//! one fused block kernel.  Two are the smoother's — [`jacobi_range`](DiaMatrix::jacobi_range) and
//! [`residual_range`](DiaMatrix::residual_range) finish the row while its
//! sum is still in L1, so one smoothing sweep is one pass.  The third is
//! the momentum solve's: [`product3_into`](DiaMatrix::product3_into)
//! multiplies every run of values into **three** columns (the velocity
//! components share the matrix), so one traversal of the operator serves
//! all of them, as [`CsrMatrix::spmm3_range`] does with an index stream
//! and one add-chain per row; per column it is the one-column product,
//! bit for bit.  The block kernel is the momentum assembly's:
//! [`product3_and_update_on`](DiaMatrix::product3_and_update_on) runs the
//! same three-column product over a storage block and then hands the block
//! to the caller to update while it is still in cache — the mass added
//! from its class stencils, or from a second matrix of the same layout
//! ([`add_scaled_block_to`](DiaMatrix::add_scaled_block_to)).
//!
//! **Born on diagonals.**  The momentum matrix of a time step is not
//! converted from anything: on a mesh whose elements all share one
//! `(a, b) → diagonal` table (every generator box,
//! `lv_mesh::ElementDiagonals`) the step builds it in this layout from
//! [`zeros`](DiaMatrix::zeros) on — every value written once by the
//! element gather through [`value_position`] (`lv_kernel::momentum`), its
//! right-hand side taken and its mass block added through
//! [`product3_and_update_on`](DiaMatrix::product3_and_update_on) in one
//! traversal of each storage block, and its Dirichlet rows set by
//! [`dirichlet_row`](DiaMatrix::dirichlet_row).  Padding stays `+0.0`,
//! so given the same entries the values are those
//! [`from_csr`](DiaMatrix::from_csr) of the CSR twin would hold, bit for
//! bit; `from_csr` itself serves the multigrid levels, whose Galerkin
//! products are CSR.
//!
//! **One source, two widths.**  The five kernels — the product
//! ([`product_into`](DiaMatrix::product_into), which is
//! [`LinearOperator::apply_range`] for `f64`), `product3_into`
//! ([`LinearOperator::apply3_range`]), `jacobi_range`, `residual_range` and
//! the block kernel of `product3_and_update_on` — are multiversioned with
//! [`lv_runtime::multiversion!`]:
//! besides the copy at the build's baseline target features there is an
//! `avx2` clone (four `f64` or eight `f32` rows per instruction instead of
//! SSE2's two or four), and each entry point runs the one
//! [`lv_runtime::Lanes::selected`] picked for this host; the `*_at`
//! variants take the [`Lanes`] explicitly, for the
//! clone-against-baseline tests.  Lanes are rows and no row's arithmetic
//! changes with the register width, so the two copies — and the CSR
//! product — agree bit for bit.
//!
//! **One source, two precisions.**  The storage and every kernel are generic
//! over a sealed [`Scalar`] (`f64`, the default, or `f32`).  The `f64`
//! instantiation is the one described above and the only one that is a
//! [`LinearOperator`] — the outer Krylov product.  The `f32` instantiation
//! rounds each CSR value once in [`from_csr`](DiaMatrix::from_csr) and runs
//! the same loops on `f32` vectors: half the bytes per row and twice the
//! lanes per instruction, for the multigrid V-cycle that only has to be a
//! good preconditioner, not an exact one.
//!
//! **Not the only storage of a level.**  Where long runs of rows repeat — a
//! uniform box from 17 elements a side — the V-cycle keeps a level as
//! [`RowClasses`](crate::classes::RowClasses) instead, built from these
//! diagonals block by block and held to the bits of the two fused kernels
//! here.

use crate::csr::CsrMatrix;
use crate::operator::LinearOperator;
use crate::parallel::team_above_cutoff;
use lv_runtime::{for_each_share, Lanes, Share, Team};
use std::ops::{Add, AddAssign, Mul, Range, Sub};

/// Rows per storage block: every per-offset run of a block is this long
/// (shorter in the last block), so a block's working set — runs, the `x`
/// window and the output rows — stays L1/L2-resident while the offsets
/// stream over it.  256 is the paper's maximum vector length; the fused
/// three-column product measured flat from 64 to 512.
pub const BLOCK_ROWS: usize = 256;

/// Most distinct offsets a [`DiaMatrix`] stores; a pattern with more is not
/// a lattice stencil and padding it would cost more than CSR's indices.
pub const MAX_DIAGONALS: usize = 32;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// The scalar a [`DiaMatrix`] stores and computes in: `f64` or `f32`, and
/// nothing else (the trait is sealed).
pub trait Scalar:
    sealed::Sealed
    + Copy
    + PartialEq
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + AddAssign
{
    /// `+0.0`.
    const ZERO: Self;
    /// The share of a row's diagonal entry below which a
    /// [`RowClasses`](crate::RowClasses) in this precision drops an entry as
    /// quadrature noise: the epsilon in `f32`, `0` in `f64`, whose classes
    /// keep every entry that is not an exact zero.
    const NOISE: f64;
    /// `value` rounded to nearest in this precision (the identity for `f64`).
    fn from_f64(value: f64) -> Self;
    /// `self` widened to `f64` (exact).
    fn to_f64(self) -> f64;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const NOISE: f64 = 0.0;
    #[inline]
    fn from_f64(value: f64) -> f64 {
        value
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
}

impl Scalar for f32 {
    const ZERO: f32 = 0.0;
    const NOISE: f64 = f32::EPSILON as f64;
    #[inline]
    fn from_f64(value: f64) -> f32 {
        value as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
}

/// A square sparse matrix in block-major diagonal layout, stored and applied
/// in the scalar `T`.
#[derive(Debug, Clone, PartialEq)]
pub struct DiaMatrix<T: Scalar = f64> {
    n: usize,
    // Distinct `col − row` offsets, strictly ascending, each `|d| < n`.
    offsets: Vec<isize>,
    // Block `b` starts at `b·BLOCK_ROWS·offsets.len()` (every earlier block
    // is full); inside it, offset `k`'s run starts at `k·block_len`.
    values: Vec<T>,
}

impl<T: Scalar> DiaMatrix<T> {
    /// Converts `matrix`, or returns `None` when its pattern has more than
    /// [`MAX_DIAGONALS`] distinct offsets.  Explicitly stored zeros stay
    /// stored zeros; absent entries become padding zeros; every value is
    /// rounded to `T` once, as it is stored.
    pub fn from_csr(matrix: &CsrMatrix) -> Option<DiaMatrix<T>> {
        let n = matrix.dim();
        let (row_ptr, col_idx) = (matrix.row_ptr(), matrix.col_idx());

        // Offset discovery: a row's offsets ascend with its columns, so
        // each row is one merge against the sorted list found so far.
        let mut offsets: Vec<isize> = Vec::with_capacity(MAX_DIAGONALS);
        for row in 0..n {
            let mut k = 0;
            for &col in &col_idx[row_ptr[row]..row_ptr[row + 1]] {
                let d = col as isize - row as isize;
                while k < offsets.len() && offsets[k] < d {
                    k += 1;
                }
                if k == offsets.len() || offsets[k] != d {
                    if offsets.len() == MAX_DIAGONALS {
                        return None;
                    }
                    offsets.insert(k, d);
                }
            }
        }
        assert!(offsets.windows(2).all(|w| w[0] < w[1]), "offsets must be strictly ascending");
        assert!(offsets.iter().all(|d| d.unsigned_abs() < n), "offset outside the matrix");

        let mut values = vec![T::ZERO; n * offsets.len()];
        fill_rows(&offsets, 0..n, &mut values, matrix);
        Some(DiaMatrix { n, offsets, values })
    }

    /// The `n × n` matrix on the diagonals `offsets`, every value `+0.0` —
    /// the start of a matrix assembled in place (the element sweep adds to
    /// the entries at [`value_position`]).
    ///
    /// # Panics
    /// Panics if `offsets` is not strictly ascending, has more than
    /// [`MAX_DIAGONALS`] entries or one at or beyond `n` in magnitude.
    pub fn zeros(n: usize, offsets: Vec<isize>) -> DiaMatrix<T> {
        assert!(offsets.len() <= MAX_DIAGONALS, "more than {MAX_DIAGONALS} diagonals");
        assert!(offsets.windows(2).all(|w| w[0] < w[1]), "offsets must be strictly ascending");
        assert!(offsets.iter().all(|d| d.unsigned_abs() < n), "offset outside the matrix");
        DiaMatrix { values: vec![T::ZERO; n * offsets.len()], n, offsets }
    }

    /// The stored values of the entries of the CSR pattern
    /// `row_ptr`/`col_idx` into `values`, in the pattern's order — what
    /// [`from_csr`](Self::from_csr) read, handed back.  Staged like the
    /// fill: 16 rows of every diagonal at a time, one line per
    /// diagonal, so the runs 2 KiB apart are read line by line.
    ///
    /// # Panics
    /// Panics if the pattern has another row count, `values` another length
    /// than `col_idx`, or an entry lies on no stored diagonal.
    pub fn values_on_pattern(&self, row_ptr: &[usize], col_idx: &[usize], values: &mut [T]) {
        assert_eq!(row_ptr.len(), self.n + 1, "the pattern has another row count");
        assert_eq!(values.len(), col_idx.len(), "one value per entry of the pattern");
        let (nd, offsets) = (self.offsets.len(), &self.offsets);
        // `stage[j][k]`: the value of staged row `j` on diagonal `k`.
        let mut stage = [[T::ZERO; MAX_DIAGONALS]; STAGE_ROWS];
        for block_start in (0..self.n).step_by(BLOCK_ROWS) {
            let (block, block_len) = self.block(block_start);
            for i in (0..block_len).step_by(STAGE_ROWS) {
                let width = STAGE_ROWS.min(block_len - i);
                for k in 0..nd {
                    for (staged, &value) in
                        stage.iter_mut().zip(&block[k * block_len + i..][..width])
                    {
                        staged[k] = value;
                    }
                }
                for (j, staged) in stage.iter().enumerate().take(width) {
                    let row = block_start + i + j;
                    let entries = row_ptr[row]..row_ptr[row + 1];
                    // A row with an entry on every diagonal — every interior
                    // node of a lattice — is one comparison and one copy.
                    let cols = &col_idx[entries.clone()];
                    if cols.len() == nd
                        && cols
                            .iter()
                            .zip(offsets)
                            .all(|(&col, &d)| col as isize - row as isize == d)
                    {
                        values[entries].copy_from_slice(&staged[..nd]);
                        continue;
                    }
                    let mut k = 0;
                    for entry in entries {
                        let d = col_idx[entry] as isize - row as isize;
                        while k < nd && offsets[k] != d {
                            k += 1;
                        }
                        assert!(
                            k < nd,
                            "entry ({row}, {}) lies on no stored diagonal",
                            col_idx[entry]
                        );
                        values[entry] = staged[k];
                        k += 1;
                    }
                }
            }
        }
    }

    /// Whether `other` has this matrix's dimension and offsets, so its value
    /// array lines up with this one's entry for entry.
    pub fn same_layout<U: Scalar>(&self, other: &DiaMatrix<U>) -> bool {
        self.n == other.n && self.offsets == other.offsets
    }

    /// The same layout with every value rounded to `U` — what
    /// [`from_csr`](Self::from_csr) at `U` stores, without the second pass
    /// over the CSR matrix.
    pub(crate) fn cast<U: Scalar>(&self) -> DiaMatrix<U> {
        DiaMatrix {
            n: self.n,
            offsets: self.offsets.clone(),
            values: self.values.iter().map(|v| U::from_f64(v.to_f64())).collect(),
        }
    }

    /// Matrix dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The stored `col − row` offsets, strictly ascending.
    #[inline]
    pub fn offsets(&self) -> &[isize] {
        &self.offsets
    }

    /// The block that starts at row `block_start` (a multiple of
    /// [`BLOCK_ROWS`]): its values — one run per offset, back to back — and
    /// its length in rows.
    pub(crate) fn block(&self, block_start: usize) -> (&[T], usize) {
        debug_assert_eq!(block_start % BLOCK_ROWS, 0);
        let (nd, len) = (self.offsets.len(), BLOCK_ROWS.min(self.n - block_start));
        (&self.values[block_start * nd..(block_start + len) * nd], len)
    }

    /// The stored value of `row` on the `k`-th offset (padding reads `+0.0`).
    pub(crate) fn entry(&self, k: usize, row: usize) -> T {
        self.values[value_position(self.n, self.offsets.len(), k, row)]
    }

    /// The value array, block-major: entry `(k, row)` at
    /// [`value_position`].
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The value array, mutable: the layout stays what it is.
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Bytes one product streams: the padded value run at `size_of::<T>()`
    /// each; there is no index stream.
    pub fn streamed_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<T>()
    }

    /// Modeled flops of one product: one multiply-add per stored value,
    /// padding included.
    pub fn apply_flops(&self) -> u64 {
        2 * self.values.len() as u64
    }

    /// `acc[i] = (A·x)[rows.start + i]` — the shared core of the three
    /// kernels.  `rows` may start and end anywhere inside a block.
    #[inline(always)]
    fn product_body(&self, x: &[T], rows: Range<usize>, acc: &mut [T]) {
        assert_eq!(x.len(), self.n);
        assert!(rows.end <= self.n, "row range {rows:?} out of bounds for dim {}", self.n);
        assert_eq!(acc.len(), rows.len(), "output length must match the row range");
        debug_assert!(disjoint(x, acc), "the product cannot run in place");
        let nd = self.offsets.len();
        let mut lo = rows.start;
        while lo < rows.end {
            let block_start = lo - lo % BLOCK_ROWS;
            let block_len = BLOCK_ROWS.min(self.n - block_start);
            let hi = rows.end.min(block_start + block_len);
            let block = &self.values[block_start * nd..(block_start + block_len) * nd];
            let out = &mut acc[lo - rows.start..hi - rows.start];
            out.fill(T::ZERO);
            for (k, &d) in self.offsets.iter().enumerate() {
                // Rows whose column `row + d` falls outside the matrix hold
                // padding only: skip them instead of reading past `x`.
                let (below, above) = if d < 0 { (d.unsigned_abs(), 0) } else { (0, d as usize) };
                let first = lo.max(below);
                let last = hi.min(self.n - above);
                if first >= last {
                    continue;
                }
                let run = &block[k * block_len..(k + 1) * block_len];
                let vals = &run[first - block_start..last - block_start];
                let xs = &x[first - below + above..last - below + above];
                for ((s, v), xv) in out[first - lo..last - lo].iter_mut().zip(vals).zip(xs) {
                    *s += *v * *xv;
                }
            }
            lo = hi;
        }
    }

    /// [`product_body`](Self::product_body) for three columns in one
    /// traversal: every run of values is read once and multiplied into all
    /// three sums, each of which still adds its entries in ascending offset
    /// order from `+0.0` — column `c` carries the bits of the one-column
    /// product of `x[c]`.
    #[inline(always)]
    fn product3_body(&self, x: [&[T]; 3], rows: Range<usize>, acc: [&mut [T]; 3]) {
        let [x0, x1, x2] = x;
        let [acc0, acc1, acc2] = acc;
        for (xc, column) in [(x0, &*acc0), (x1, &*acc1), (x2, &*acc2)] {
            assert_eq!(xc.len(), self.n);
            assert_eq!(column.len(), rows.len(), "output length must match the row range");
            debug_assert!(disjoint(xc, column), "the product cannot run in place");
        }
        assert!(rows.end <= self.n, "row range {rows:?} out of bounds for dim {}", self.n);
        let nd = self.offsets.len();
        let mut lo = rows.start;
        while lo < rows.end {
            let block_start = lo - lo % BLOCK_ROWS;
            let block_len = BLOCK_ROWS.min(self.n - block_start);
            let hi = rows.end.min(block_start + block_len);
            let block = &self.values[block_start * nd..(block_start + block_len) * nd];
            let out = lo - rows.start..hi - rows.start;
            block_product3(
                &self.offsets,
                self.n,
                block_start,
                block_len,
                block,
                lo..hi,
                [x0, x1, x2],
                [&mut acc0[out.clone()], &mut acc1[out.clone()], &mut acc2[out]],
            );
            lo = hi;
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
        self.product_body(x, rows.clone(), xn);
        let (xs, bs, ds) = (&x[rows.clone()], &b[rows.clone()], &inv_diag[rows]);
        for (((out, xi), bi), di) in xn.iter_mut().zip(xs).zip(bs).zip(ds) {
            *out = *xi + omega * ((*bi - *out) * *di);
        }
    }

    #[inline(always)]
    fn residual_body(&self, x: &[T], b: &[T], rows: Range<usize>, r: &mut [T]) {
        assert_eq!(b.len(), self.n);
        self.product_body(x, rows.clone(), r);
        for (out, bi) in r.iter_mut().zip(&b[rows]) {
            *out = *bi - *out;
        }
    }

    lv_runtime::multiversion! {
        /// The product over `rows`: `y[i] = (A·x)[rows.start + i]`, in `T` —
        /// what [`LinearOperator::apply_range`] runs for `f64`.
        ///
        /// # Panics
        /// Panics if `x` does not match the dimension, `rows` is out of
        /// bounds, or `y` does not match `rows`.
        pub fn product_into(&self, x: &[T], rows: Range<usize>, y: &mut [T])
            = Self::product_body, at product_into_at, clone product_avx2;
    }

    lv_runtime::multiversion! {
        /// Three products over `rows` in one traversal of the matrix:
        /// `y[c][i] = (A·x[c])[rows.start + i]`, each column bit for bit
        /// what [`product_into`](Self::product_into) computes for it — the
        /// momentum solve's product (three velocity components, one
        /// matrix), [`LinearOperator::apply3_range`] for `f64`.
        ///
        /// # Panics
        /// Panics if a column of `x` does not match the dimension, `rows`
        /// is out of bounds, or a column of `y` does not match `rows`.
        pub fn product3_into(&self, x: [&[T]; 3], rows: Range<usize>, y: [&mut [T]; 3])
            = Self::product3_body, at product3_into_at, clone product3_avx2;
    }

    lv_runtime::multiversion! {
        /// One damped-Jacobi sweep over `rows`:
        /// `xn[i] = x[r] + ω·((b[r] − (A·x)[r])·inv_diag[r])` with
        /// `r = rows.start + i` — the exact expression tree of the
        /// product / difference / scale / update kernel sequence it replaces,
        /// so the iterate keeps its bits.  `xn` is the other half of a
        /// ping-pong pair: every row reads the *old* `x` of its neighbours.
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
        /// The residual over `rows`: `r[i] = b[rows.start + i] − (A·x)[rows.start + i]`.
        ///
        /// # Panics
        /// Panics if a vector does not match the dimension, `rows` is out of
        /// bounds, or `r` does not match `rows`.
        pub fn residual_range(&self, x: &[T], b: &[T], rows: Range<usize>, r: &mut [T])
            = Self::residual_body, at residual_range_at, clone residual_avx2;
    }
}

impl DiaMatrix<f64> {
    /// One traversal of every storage block, split by whole blocks across
    /// `team`: the three products `y_c = A·x_c` over the block's rows
    /// (each column bit for bit what [`product3_into`](Self::product3_into)
    /// gives it), handed to `finish(rows, y, values, out)` with the block's
    /// values and its rows of `out` — to update the block while it is in
    /// cache, after the products have read it.  The momentum step takes its
    /// right-hand side off `ν·K + C(u)` and only then adds `(ρ/Δt)·M`.
    /// Bitwise identical for every team size.
    ///
    /// # Panics
    /// Panics if a column of `x` does not match the dimension, or `out`
    /// does not hold whole rows.
    pub fn product3_and_update_on<S: Share>(
        &mut self,
        team: &Team,
        x: [&[f64]; 3],
        out: S,
        finish: impl Fn(Range<usize>, [&[f64]; 3], &mut [f64], S) + Sync,
    ) {
        self.product3_and_update_at(Lanes::selected(), team, x, out, finish);
    }

    /// [`product3_and_update_on`](Self::product3_and_update_on) with the
    /// block kernel at `lanes`: the baseline body or its wide clone, same
    /// bits.
    pub fn product3_and_update_at<S: Share>(
        &mut self,
        lanes: Lanes,
        team: &Team,
        x: [&[f64]; 3],
        out: S,
        finish: impl Fn(Range<usize>, [&[f64]; 3], &mut [f64], S) + Sync,
    ) {
        assert!(x.iter().all(|xc| xc.len() == self.n), "a column does not match the dimension");
        let (n, offsets) = (self.n, &self.offsets);
        let shares = (&mut self.values[..], out);
        for_each_share(team_above_cutoff(team, n), n, BLOCK_ROWS, shares, |rows, mut shares| {
            let mut y = [[0.0f64; BLOCK_ROWS]; 3];
            for block_start in rows.clone().step_by(BLOCK_ROWS) {
                let len = BLOCK_ROWS.min(n - block_start);
                let (block, out) = shares.split_rows(len, rows.end - block_start);
                let [y0, y1, y2] = &mut y;
                let y = [&mut y0[..len], &mut y1[..len], &mut y2[..len]];
                product3_block_at(lanes, offsets, n, block_start, block, x, y);
                let y = [&y0[..len], &y1[..len], &y2[..len]];
                finish(block_start..block_start + len, y, block, out);
            }
        });
    }

    /// `block += scale·A` over the storage block of `A` (this matrix) that
    /// starts at row `block_start`, entry by entry: how a
    /// [`product3_and_update_on`](Self::product3_and_update_on) update adds
    /// a matrix of the block's layout.
    ///
    /// # Panics
    /// Panics if `block` is not the size of that storage block.
    pub fn add_scaled_block_to(&self, block_start: usize, scale: f64, block: &mut [f64]) {
        let addend = self.block(block_start).0;
        assert_eq!(addend.len(), block.len(), "the addend matrix has another layout");
        for (value, &a) in block.iter_mut().zip(addend) {
            *value += scale * a;
        }
    }

    /// Makes `row` an identity row: `1.0` on the main diagonal, `+0.0` on
    /// every other — what [`CsrMatrix::dirichlet_row`] does to the CSR form,
    /// bit for bit (padding is `+0.0` already).
    ///
    /// # Panics
    /// Panics if the matrix stores no main diagonal or `row` is out of
    /// bounds.
    pub fn dirichlet_row(&mut self, row: usize) {
        assert!(row < self.n, "row {row} out of bounds for dim {}", self.n);
        let main = self.offsets.binary_search(&0).expect("a matrix with a main diagonal");
        let nd = self.offsets.len();
        for k in 0..nd {
            self.values[value_position(self.n, nd, k, row)] = if k == main { 1.0 } else { 0.0 };
        }
    }

    /// Whether the matrix is symmetric within `tol`: every stored value
    /// `(row, row + d)` against `(row + d, row)` on offset `−d`, which must
    /// be stored too wherever the first is not zero — what
    /// [`CsrMatrix::is_symmetric`] checks on the CSR form.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        let n = self.n as isize;
        self.offsets.iter().enumerate().all(|(k, &d)| {
            let mirror = self.offsets.binary_search(&-d).ok();
            (0..n).filter(|row| (0..n).contains(&(row + d))).all(|row| {
                let value = self.entry(k, row as usize);
                let other = mirror.map_or(0.0, |m| self.entry(m, (row + d) as usize));
                (value - other).abs() <= tol
            })
        })
    }

    /// Pins `rows` symmetrically: every entry of a pinned row and of a
    /// pinned column becomes `+0.0`, the pinned diagonals `1.0` — what
    /// [`CsrMatrix::pin_rows_symmetric`] does to the CSR form, so a matrix
    /// pinned here holds the values [`from_csr`](Self::from_csr) of the
    /// pinned CSR form holds, bit for bit (padding is `+0.0` already).
    ///
    /// # Panics
    /// Panics if a pinned row is out of bounds.
    pub fn pin_rows_symmetric(&mut self, rows: &[usize]) {
        let (n, nd) = (self.n, self.offsets.len());
        for &row in rows {
            assert!(row < n, "pinned row {row} out of range");
        }
        for &pin in rows {
            for (k, &d) in self.offsets.iter().enumerate() {
                self.values[value_position(n, nd, k, pin)] = if d == 0 { 1.0 } else { 0.0 };
                // Column `pin` of row `pin − d` sits on the same diagonal.
                let row = pin as isize - d;
                if d != 0 && (0..n as isize).contains(&row) {
                    self.values[value_position(n, nd, k, row as usize)] = 0.0;
                }
            }
        }
    }
}

/// Whether two slices share no byte — the no-alias precondition of the
/// kernels, which safe callers get from the borrow checker and the pooled
/// callers (raw disjoint row ranges) must uphold themselves.
pub(crate) fn disjoint<T>(a: &[T], b: &[T]) -> bool {
    let (a, b) = (a.as_ptr_range(), b.as_ptr_range());
    a.end <= b.start || b.end <= a.start
}

/// `s_c[i] += vals[i]·x_c[i]` for the three columns — one run of one
/// diagonal.  Seven separate slice parameters rather than arrays of them:
/// inlined, that is how the compiler learns the three outputs alias
/// nothing, and it vectorizes the rows without run-time overlap checks.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn accumulate3<T: Scalar>(
    vals: &[T],
    x0: &[T],
    x1: &[T],
    x2: &[T],
    s0: &mut [T],
    s1: &mut [T],
    s2: &mut [T],
) {
    let len = vals.len();
    let (x0, x1, x2) = (&x0[..len], &x1[..len], &x2[..len]);
    let (s0, s1, s2) = (&mut s0[..len], &mut s1[..len], &mut s2[..len]);
    for i in 0..len {
        let v = vals[i];
        s0[i] += v * x0[i];
        s1[i] += v * x1[i];
        s2[i] += v * x2[i];
    }
}

/// The three-column product over rows `rows` of the storage block that
/// starts at `block_start` and holds `block_len` rows, `block` being its
/// values: `acc_c[i] = (A·x_c)[rows.start + i]`, every sum from `+0.0` in
/// ascending offset order.  The per-block core of
/// [`DiaMatrix::product3_into`] and of the momentum block kernel.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn block_product3<T: Scalar>(
    offsets: &[isize],
    n: usize,
    block_start: usize,
    block_len: usize,
    block: &[T],
    rows: Range<usize>,
    x: [&[T]; 3],
    acc: [&mut [T]; 3],
) {
    let [x0, x1, x2] = x;
    let [out0, out1, out2] = acc;
    let (lo, hi) = (rows.start, rows.end);
    out0.fill(T::ZERO);
    out1.fill(T::ZERO);
    out2.fill(T::ZERO);
    for (k, &d) in offsets.iter().enumerate() {
        // Rows whose column `row + d` falls outside the matrix hold
        // padding only: skip them instead of reading past `x`.
        let (below, above) = if d < 0 { (d.unsigned_abs(), 0) } else { (0, d as usize) };
        let first = lo.max(below);
        let last = hi.min(n - above);
        if first >= last {
            continue;
        }
        let vals = &block[k * block_len..][first - block_start..last - block_start];
        let (window, sums) = (first - below + above..last - below + above, first - lo..last - lo);
        accumulate3(
            vals,
            &x0[window.clone()],
            &x1[window.clone()],
            &x2[window],
            &mut out0[sums.clone()],
            &mut out1[sums.clone()],
            &mut out2[sums],
        );
    }
}

/// The block kernel of [`DiaMatrix::product3_and_update_on`]: the three
/// products over the whole storage block (`block`, starting at row
/// `block_start`).
#[inline(always)]
fn product3_block_body(
    offsets: &[isize],
    n: usize,
    block_start: usize,
    block: &[f64],
    x: [&[f64]; 3],
    y: [&mut [f64]; 3],
) {
    let block_len = BLOCK_ROWS.min(n - block_start);
    assert_eq!(block.len(), block_len * offsets.len(), "one run per offset");
    block_product3(
        offsets,
        n,
        block_start,
        block_len,
        block,
        block_start..block_start + block_len,
        x,
        y,
    );
}

lv_runtime::multiversion! {
    /// [`product3_block_body`] at the host's lanes.
    pub(crate) fn product3_block(
        offsets: &[isize],
        n: usize,
        block_start: usize,
        block: &[f64],
        x: [&[f64]; 3],
        y: [&mut [f64]; 3],
    ) = product3_block_body, at product3_block_at;
}

/// Where entry `(k, row)` — `row`'s value on the `k`-th of `diagonals`
/// offsets — sits in the block-major value array of an `n`-row
/// [`DiaMatrix`]: its block's start, the `k`-th run of the block, the row's
/// place in the run.
#[inline]
pub fn value_position(n: usize, diagonals: usize, k: usize, row: usize) -> usize {
    let block_start = row - row % BLOCK_ROWS;
    block_start * diagonals + k * BLOCK_ROWS.min(n - block_start) + row % BLOCK_ROWS
}

/// Rows the fill stages before it stores them: two 64-byte lines of `f64`
/// per diagonal.  A block's runs sit `BLOCK_ROWS` values — exactly 2 KiB —
/// apart, so the entries of one row land in lines that all compete for the
/// same two L1 sets, and storing them entry by entry evicts each line
/// before its next row arrives.
const STAGE_ROWS: usize = 16;

/// Fills the runs of `rows` — whole blocks (or none), `values` being
/// exactly their part of the value array — from `matrix`: stored entries
/// rounded to `T`, `+0.0` where a row has no entry on a diagonal.
///
/// # Panics
/// Panics if an entry of `matrix` lies on none of `offsets`.
fn fill_rows<T: Scalar>(
    offsets: &[isize],
    rows: Range<usize>,
    values: &mut [T],
    matrix: &CsrMatrix,
) {
    let nd = offsets.len();
    assert!(nd <= MAX_DIAGONALS);
    assert!(rows.is_empty() || rows.start % BLOCK_ROWS == 0, "a fill starts on a block boundary");
    assert_eq!(values.len(), rows.len() * nd, "the value chunk must match the rows");
    let (row_ptr, col_idx, csr_values) = (matrix.row_ptr(), matrix.col_idx(), matrix.values());
    // `stage[j][k]`: the value of staged row `j` on diagonal `k`.
    let mut stage = [[T::ZERO; MAX_DIAGONALS]; STAGE_ROWS];
    for block_start in rows.clone().step_by(BLOCK_ROWS) {
        let block_len = BLOCK_ROWS.min(rows.end - block_start);
        let block = &mut values[(block_start - rows.start) * nd..][..block_len * nd];
        for i in (0..block_len).step_by(STAGE_ROWS) {
            let width = STAGE_ROWS.min(block_len - i);
            for (j, staged) in stage.iter_mut().enumerate().take(width) {
                let row = block_start + i + j;
                let entries = row_ptr[row]..row_ptr[row + 1];
                let (cols, vals) = (&col_idx[entries.clone()], &csr_values[entries]);
                // A row with an entry on every diagonal — every interior
                // node of a lattice — is one comparison of the two index
                // lists and one copy.
                let full = cols.len() == nd
                    && cols.iter().zip(offsets).all(|(&col, &d)| col as isize - row as isize == d);
                if full {
                    for (slot, &value) in staged.iter_mut().zip(vals) {
                        *slot = T::from_f64(value);
                    }
                    continue;
                }
                // Otherwise a merge: columns ascend within a row, and so do
                // the offsets.
                staged[..nd].fill(T::ZERO);
                let mut k = 0;
                for (&col, &value) in cols.iter().zip(vals) {
                    let d = col as isize - row as isize;
                    while k < nd && offsets[k] != d {
                        k += 1;
                    }
                    assert!(k < nd, "entry ({row}, {col}) lies on no stored diagonal");
                    staged[k] = T::from_f64(value);
                    k += 1;
                }
            }
            for k in 0..nd {
                let lines = &mut block[k * block_len + i..][..width];
                for (slot, staged) in lines.iter_mut().zip(&stage) {
                    *slot = staged[k];
                }
            }
        }
    }
}

impl LinearOperator for DiaMatrix<f64> {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply_range(&self, x: &[f64], rows: Range<usize>, y: &mut [f64]) {
        self.product_into(x, rows, y);
    }

    fn apply3_range(
        &self,
        x: [&[f64]; 3],
        rows: Range<usize>,
        y: [&mut [f64]; 3],
        active: [bool; 3],
    ) {
        if active == [true; 3] {
            return self.product3_into(x, rows, y);
        }
        for (c, yc) in y.into_iter().enumerate().filter(|(c, _)| active[*c]) {
            self.product_into(x[c], rows.clone(), yc);
        }
    }

    fn diagonal(&self) -> Vec<f64> {
        let nd = self.offsets.len();
        let Ok(k) = self.offsets.binary_search(&0) else {
            return vec![0.0; self.n];
        };
        let mut diag = Vec::with_capacity(self.n);
        for block_start in (0..self.n).step_by(BLOCK_ROWS) {
            let block_len = BLOCK_ROWS.min(self.n - block_start);
            let run = block_start * nd + k * block_len;
            diag.extend_from_slice(&self.values[run..run + block_len]);
        }
        diag
    }

    fn streamed_bytes(&self) -> usize {
        DiaMatrix::streamed_bytes(self)
    }

    fn apply_flops(&self) -> u64 {
        DiaMatrix::apply_flops(self)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::classes::RowClasses;
    use crate::multivector::MultiVector;
    use crate::parallel::VectorOps;
    use lv_runtime::{Lanes, Team};

    /// Tridiagonal with row-dependent values (so a shifted run would show).
    fn tridiag(n: usize) -> CsrMatrix {
        let mut dense = vec![vec![0.0; n]; n];
        for (i, row) in dense.iter_mut().enumerate() {
            row[i] = 3.0 + (i % 7) as f64 * 0.37;
            if i > 0 {
                row[i - 1] = -1.0 - (i % 3) as f64 * 0.11;
            }
            if i + 1 < n {
                row[i + 1] = -0.5 - (i % 5) as f64 * 0.07;
            }
        }
        CsrMatrix::from_dense(&dense)
    }

    /// A probe vector with the awkward finite values mixed in: `-0.0`,
    /// denormals of both signs, and ordinary noise.
    pub(crate) fn awkward_vector(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
                match t >> 61 {
                    0 => -0.0,
                    1 => f64::MIN_POSITIVE / 8.0,
                    2 => -f64::MIN_POSITIVE / 1024.0,
                    _ => ((t >> 11) as f64 / (1u64 << 53) as f64) - 0.5,
                }
            })
            .collect()
    }

    const MASKS: [[bool; 3]; 8] = [
        [true, true, true],
        [true, true, false],
        [true, false, true],
        [false, true, true],
        [true, false, false],
        [false, true, false],
        [false, false, true],
        [false, false, false],
    ];

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|e| e.to_bits()).collect()
    }

    fn columns_mut(y: &mut [Vec<f64>; 3]) -> [&mut [f64]; 3] {
        let [y0, y1, y2] = y;
        [y0, y1, y2]
    }

    /// `DiaMatrix` products vs the CSR ones, bit for bit, over the full
    /// range, unaligned / one-row / empty sub-ranges, and pooled partitions:
    /// the one-column product against `CsrMatrix::spmv_range`, and the
    /// three-column one — under all eight column masks — against
    /// `CsrMatrix::spmm3_range` (masked columns untouched) and against three
    /// one-column products.
    pub(crate) fn assert_products_bitwise_equal(csr: &CsrMatrix, label: &str) {
        let dia = DiaMatrix::from_csr(csr).unwrap_or_else(|| panic!("{label}: fits in DIA"));
        let n = csr.dim();
        let x = awkward_vector(n, 17);
        let expect = csr.mul_vec(&x);
        let x3 = [x.clone(), awkward_vector(n, 18), awkward_vector(n, 19)];
        let x3 = [&x3[0][..], &x3[1][..], &x3[2][..]];
        let ranges = [
            0..n,
            0..n.min(1),
            n / 3..n - n / 5,
            n.saturating_sub(1)..n,
            255..n.min(258),
            n / 2..n / 2,
        ];
        for rows in ranges {
            if rows.start > rows.end {
                continue;
            }
            let mut y = vec![f64::NAN; rows.len()];
            dia.apply_range(&x, rows.clone(), &mut y);
            for (i, (got, want)) in y.iter().zip(&expect[rows.clone()]).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "{label}: row {} of {rows:?}", i);
            }
            for mask in MASKS {
                // 7.5 marks what a masked column must leave alone.
                let untouched =
                    || -> [Vec<f64>; 3] { std::array::from_fn(|_| vec![7.5; rows.len()]) };
                let (mut want, mut got, mut single) = (untouched(), untouched(), untouched());
                csr.spmm3_range(x3, rows.clone(), columns_mut(&mut want), mask);
                dia.apply3_range(x3, rows.clone(), columns_mut(&mut got), mask);
                for c in (0..3).filter(|&c| mask[c]) {
                    dia.product_into(x3[c], rows.clone(), &mut single[c]);
                }
                for c in 0..3 {
                    let what = format!("{label}: column {c} of {rows:?} under {mask:?}");
                    assert_eq!(bits(&got[c]), bits(&want[c]), "{what} vs spmm3_range");
                    assert_eq!(bits(&got[c]), bits(&single[c]), "{what} vs product_into");
                }
            }
        }
        let x_mv = MultiVector::from_columns(x3);
        for threads in [1usize, 2, 4] {
            let team = Team::new(threads);
            let mut ops = VectorOps::on_team(&team);
            let mut y = vec![f64::NAN; n];
            ops.apply(&dia, &x, &mut y);
            for (row, (got, want)) in y.iter().zip(&expect).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "{label}: row {row}, {threads} threads");
            }
            for mask in [[true; 3], [true, false, true]] {
                let (mut want, mut got) = (x_mv.clone(), x_mv.clone());
                ops.spmm3(csr, &x_mv, &mut want, mask);
                ops.spmm3(&dia, &x_mv, &mut got, mask);
                for c in 0..3 {
                    assert_eq!(
                        bits(got.component(c)),
                        bits(want.component(c)),
                        "{label}: column {c} under {mask:?}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn tridiagonal_product_is_bitwise_equal_to_csr() {
        // Sizes around the block edge, none a multiple of it but one.
        for n in [1usize, 2, 5, 255, 256, 257, 700, 2 * 1024 + 333] {
            assert_products_bitwise_equal(&tridiag(n), &format!("tridiag({n})"));
        }
    }

    #[test]
    fn layout_offsets_diagonal_and_traffic_model() {
        let csr = tridiag(600);
        let dia = DiaMatrix::from_csr(&csr).expect("three diagonals");
        assert_eq!(dia.offsets(), &[-1, 0, 1]);
        assert_eq!(LinearOperator::diagonal(&dia), csr.diagonal());
        assert_eq!(dia.streamed_bytes(), 3 * 600 * 8);
        assert_eq!(dia.apply_flops(), 2 * 3 * 600);
        // No index stream: fewer bytes than CSR despite the padding.
        assert!(dia.streamed_bytes() < LinearOperator::streamed_bytes(&csr));
    }

    /// The `f32` instantiation: each value rounded once (the same storage
    /// whether filled from CSR or cast from the `f64` form), 4 bytes per
    /// stored value, and a product within the textbook rounding bound
    /// `(nd + 2)·ε_f32·(|A|·|x|)` of the `f64` one, row by row.
    #[test]
    fn f32_storage_rounds_once_and_its_product_stays_within_rounding() {
        let n = 3 * BLOCK_ROWS + 41;
        let mut csr = tridiag(n);
        csr.pin_rows_symmetric(&[0, n / 2]);
        let wide: DiaMatrix = DiaMatrix::from_csr(&csr).expect("three diagonals");
        let narrow = DiaMatrix::<f32>::from_csr(&csr).expect("three diagonals");
        assert_eq!(narrow, wide.cast::<f32>());
        assert_eq!(wide, wide.cast::<f64>());
        for (v32, v64) in narrow.values.iter().zip(&wide.values) {
            assert_eq!(v32.to_bits(), (*v64 as f32).to_bits());
        }
        assert_eq!(narrow.offsets(), wide.offsets());
        assert_eq!(narrow.streamed_bytes(), 3 * n * 4);
        assert_eq!(narrow.apply_flops(), wide.apply_flops());

        let x: Vec<f64> = awkward_vector(n, 29);
        let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        let abs = |v: &[f64]| v.iter().map(|e| e.abs()).collect::<Vec<f64>>();
        let magnitude = {
            let mut m = csr.clone();
            let values = abs(m.values());
            m.pattern_and_values_mut().2.copy_from_slice(&values);
            m.mul_vec(&abs(&x))
        };
        let y64 = csr.mul_vec(&x);
        let mut y32 = vec![f32::NAN; n];
        narrow.product_into(&x32, 0..n, &mut y32);
        let bound = (narrow.offsets().len() + 2) as f64 * f64::from(f32::EPSILON);
        for row in 0..n {
            let error = (f64::from(y32[row]) - y64[row]).abs();
            assert!(error <= bound * magnitude[row], "row {row}: {error:e}");
        }
        assert!((0..n).any(|row| f64::from(y32[row]) != y64[row]), "f32 must actually round");
    }

    #[test]
    fn explicit_zeros_and_missing_diagonal_are_handled() {
        // A pinned row keeps its explicit zeros; an empty main diagonal
        // reads back as zeros.
        let mut pinned = tridiag(300);
        pinned.pin_rows_symmetric(&[0, 128, 299]);
        assert_products_bitwise_equal(&pinned, "pinned tridiag");
        let shift =
            CsrMatrix::from_dense(&[vec![0.0, 2.0, 0.0], vec![0.0, 0.0, 3.0], vec![4.0, 0.0, 0.0]]);
        let dia = DiaMatrix::from_csr(&shift).expect("two diagonals");
        assert_eq!(dia.offsets(), &[-2, 1]);
        assert_eq!(LinearOperator::diagonal(&dia), vec![0.0; 3]);
        assert_products_bitwise_equal(&shift, "shift");
    }

    #[test]
    fn too_many_offsets_is_not_a_lattice() {
        let n = 40;
        let mut dense = vec![vec![0.0; n]; n];
        for (j, v) in dense[0].iter_mut().enumerate() {
            *v = 1.0 + j as f64;
        }
        assert!(DiaMatrix::<f64>::from_csr(&CsrMatrix::from_dense(&dense)).is_none());
        // Exactly MAX_DIAGONALS still fits.
        for v in dense[0].iter_mut().skip(MAX_DIAGONALS) {
            *v = 0.0;
        }
        let dia: DiaMatrix =
            DiaMatrix::from_csr(&CsrMatrix::from_dense(&dense)).expect("32 offsets fit");
        assert_eq!(dia.offsets().len(), MAX_DIAGONALS);
    }

    /// A 9-point stencil on an `nx × ny` lattice with entry values drawn
    /// from `seed`: nine diagonals, interior rows with an entry on each of
    /// them, edge and corner rows without — both branches of the fill.
    fn stencil9(nx: usize, ny: usize, seed: u64) -> CsrMatrix {
        let (mut row_ptr, mut col_idx) = (vec![0], Vec::new());
        for j in 0..ny as isize {
            for i in 0..nx as isize {
                for (dj, di) in (-1..=1).flat_map(|dj| (-1..=1).map(move |di| (dj, di))) {
                    let (jj, ii) = (j + dj, i + di);
                    if (0..ny as isize).contains(&jj) && (0..nx as isize).contains(&ii) {
                        col_idx.push(jj as usize * nx + ii as usize);
                    }
                }
                row_ptr.push(col_idx.len());
            }
        }
        let mut csr = CsrMatrix::from_pattern(row_ptr, col_idx);
        let values = awkward_vector(csr.nnz(), seed);
        csr.pattern_and_values_mut().2.copy_from_slice(&values);
        csr
    }

    /// Pinning on the diagonals holds what `from_csr` of the pinned CSR
    /// form holds, bit for bit: pins on the first and last rows, on two
    /// neighbours, mid-block and across a block edge, on lattices whose
    /// edge rows have padding on some diagonals (`-0.0` entries included).
    #[test]
    fn pinning_on_the_diagonals_is_from_csr_of_the_pinned_csr() {
        for (nx, ny) in [(40usize, 37usize), (7, 5), (3, 1)] {
            let n = nx * ny;
            let csr = stencil9(nx, ny, 6);
            let pins: Vec<usize> =
                [0, 1, nx, n / 2, 255, 256, n - 1].into_iter().filter(|&p| p < n).collect();
            let mut pinned: DiaMatrix = DiaMatrix::from_csr(&csr).expect("nine diagonals");
            pinned.pin_rows_symmetric(&pins);
            let mut twin = csr.clone();
            twin.pin_rows_symmetric(&pins);
            let want: DiaMatrix = DiaMatrix::from_csr(&twin).expect("nine diagonals");
            assert_eq!(pinned.offsets(), want.offsets(), "{nx} x {ny}");
            let bits = |m: &DiaMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(bits(&pinned) == bits(&want), "{nx} x {ny}");
            assert_eq!(pinned.is_symmetric(1e-12), twin.is_symmetric(1e-12), "{nx} x {ny}");
        }
        // A symmetric stencil stays symmetric when pinned; one entry off
        // the mirror is seen.
        let dense: Vec<Vec<f64>> = (0..12)
            .map(|i: usize| {
                (0..12).map(|j: usize| [0.0, -1.0, 2.0][2 - i.abs_diff(j).min(2)]).collect()
            })
            .collect();
        let mut laplacian: DiaMatrix =
            DiaMatrix::from_csr(&CsrMatrix::from_dense(&dense)).expect("tridiagonal");
        laplacian.pin_rows_symmetric(&[0, 5]);
        assert!(laplacian.is_symmetric(0.0));
        laplacian.values_mut()[value_position(12, 3, 2, 7)] += 1e-9;
        assert!(!laplacian.is_symmetric(1e-12) && laplacian.is_symmetric(1e-8));
    }

    /// A matrix assembled in place on its diagonals — `ν·K` seeded value by
    /// value, entries added at `value_position`, three products
    /// taken and `scale·M` added through `product3_and_update_on`, Dirichlet rows
    /// set — holds what `from_csr` of the same operations on its CSR twin
    /// holds, bit for bit (`-0.0` entries included, padding `+0.0`), and
    /// `finish` is handed the CSR products of the matrix before the
    /// addition: on teams that split blocks, at both lane widths, on sizes
    /// that end mid-block.
    #[test]
    fn a_matrix_born_on_diagonals_is_from_csr_of_its_csr_twin_bitwise() {
        let (nu, scale) = (0.7, 1.3);
        for (nx, ny) in [(40usize, 37usize), (7, 5), (16, 16), (3, 1)] {
            let n = nx * ny;
            let (stiffness, added, mass) =
                (stencil9(nx, ny, 3), stencil9(nx, ny, 4), stencil9(nx, ny, 5));
            let dirichlet = [0, n / 2, n - 1];
            let x: [Vec<f64>; 3] = std::array::from_fn(|c| awkward_vector(n, 20 + c as u64));
            let x = [&x[0][..], &x[1][..], &x[2][..]];

            // The CSR twin: the same operations entry by entry.
            let mut twin = stiffness.clone();
            let values = twin.pattern_and_values_mut().2;
            for ((v, k), a) in values.iter_mut().zip(stiffness.values()).zip(added.values()) {
                *v = nu * k;
                *v += a;
            }
            let products: Vec<Vec<u64>> = x.iter().map(|xc| bits(&twin.mul_vec(xc))).collect();
            for (v, m) in twin.pattern_and_values_mut().2.iter_mut().zip(mass.values()) {
                *v += scale * m;
            }
            for &row in &dirichlet {
                twin.dirichlet_row(row);
            }
            let want: DiaMatrix = DiaMatrix::from_csr(&twin).expect("nine diagonals");

            let (stiffness, mass): (DiaMatrix, DiaMatrix) =
                (DiaMatrix::from_csr(&stiffness).unwrap(), DiaMatrix::from_csr(&mass).unwrap());
            let nd = stiffness.offsets().len();
            for threads in [1usize, 2, 3] {
                let team = Team::new(threads);
                for lanes in [Lanes::Baseline, Lanes::selected()] {
                    let mut born = DiaMatrix::zeros(n, stiffness.offsets().to_vec());
                    for (value, &k) in born.values.iter_mut().zip(&stiffness.values) {
                        *value = nu * k;
                    }
                    for row in 0..n {
                        let entries = added.row_ptr()[row]..added.row_ptr()[row + 1];
                        for (&col, &a) in
                            added.col_idx()[entries.clone()].iter().zip(&added.values()[entries])
                        {
                            let k = born
                                .offsets()
                                .binary_search(&(col as isize - row as isize))
                                .unwrap();
                            born.values_mut()[value_position(n, nd, k, row)] += a;
                        }
                    }
                    let mut got = vec![f64::NAN; 3 * n];
                    born.product3_and_update_at(
                        lanes,
                        &team,
                        x,
                        &mut got[..],
                        |rows, y, block, out| {
                            for i in 0..rows.len() {
                                for c in 0..3 {
                                    out[3 * i + c] = y[c][i];
                                }
                            }
                            mass.add_scaled_block_to(rows.start, scale, block);
                        },
                    );
                    for &row in &dirichlet {
                        born.dirichlet_row(row);
                    }
                    let what = format!("{nx}x{ny}, {threads} threads, {lanes} lanes");
                    assert_eq!(bits(&born.values), bits(&want.values), "{what}");
                    for c in 0..3 {
                        let column: Vec<f64> = (0..n).map(|i| got[3 * i + c]).collect();
                        assert_eq!(bits(&column), products[c], "{what}: column {c}");
                    }
                }
            }
        }
    }

    /// Padding is `+0.0` after every in-place pass, whatever the stored
    /// entries hold — `-0.0` included — while a stored entry takes exactly
    /// what the pass computes for it.
    #[test]
    fn padding_stays_positive_zero_through_the_in_place_passes() {
        let (nx, ny) = (9, 6);
        let n = nx * ny;
        let mut ones = stencil9(nx, ny, 11);
        ones.pattern_and_values_mut().2.fill(1.0);
        let marked: DiaMatrix = DiaMatrix::from_csr(&ones).expect("nine diagonals");
        let padding: Vec<bool> = marked.values.iter().map(|&v| v == 0.0).collect();
        assert!(padding.iter().any(|&p| p), "edge rows leave padding");
        let team = Team::new(1);
        let x = vec![1.0; n];
        for fill in [-0.0, 0.0, 2.5, f64::MIN_POSITIVE] {
            let mut source = ones.clone();
            source.pattern_and_values_mut().2.fill(fill);
            let source: DiaMatrix = DiaMatrix::from_csr(&source).expect("nine diagonals");
            let mut dia = DiaMatrix::zeros(n, source.offsets().to_vec());
            dia.values.copy_from_slice(&source.values);
            dia.product3_and_update_on(
                &team,
                [&x, &x, &x],
                &mut [][..],
                |rows, _, block, _: &mut [f64]| source.add_scaled_block_to(rows.start, 1.0, block),
            );
            for (slot, value) in dia.values.iter().enumerate() {
                let want = if padding[slot] { 0.0f64 } else { fill + fill };
                assert_eq!(value.to_bits(), want.to_bits(), "slot {slot} with {fill:e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "the addend matrix has another layout")]
    fn adding_a_matrix_of_another_layout_panics() {
        let mut dia: DiaMatrix = DiaMatrix::from_csr(&stencil9(4, 3, 1)).expect("nine diagonals");
        let other: DiaMatrix = DiaMatrix::from_csr(&tridiag(12)).expect("three diagonals");
        let x = vec![0.0; 12];
        dia.product3_and_update_on(
            &Team::new(1),
            [&x, &x, &x],
            &mut [][..],
            |rows, _, block, _: &mut [f64]| other.add_scaled_block_to(rows.start, 1.0, block),
        );
    }

    /// The four-kernel sequence the fused sweep replaces, on the CSR matrix.
    pub(crate) fn jacobi_oracle(
        ops: &mut VectorOps<'_>,
        csr: &CsrMatrix,
        x: &mut [f64],
        b: &[f64],
        inv_diag: &[f64],
        omega: f64,
    ) {
        let n = x.len();
        let (mut t, mut r) = (vec![0.0; n], vec![0.0; n]);
        ops.spmv(csr, x, &mut t);
        ops.scaled_diff(b, 1.0, &t, &mut r);
        ops.hadamard(&r, inv_diag, &mut t);
        ops.axpy(omega, &t, x);
    }

    #[test]
    fn fused_kernels_match_the_four_kernel_sequence_bitwise() {
        let n = 5 * 1024 + 77;
        let mut csr = tridiag(n);
        csr.pin_rows_symmetric(&[0, n / 2]);
        let dia = DiaMatrix::from_csr(&csr).expect("tridiagonal");
        let inv_diag = crate::krylov::inverse_diagonal(&csr);
        let b = awkward_vector(n, 3);
        let x0 = awkward_vector(n, 5);
        let omega = 0.8;

        let mut serial = VectorOps::serial();
        let mut expect_x = x0.clone();
        jacobi_oracle(&mut serial, &csr, &mut expect_x, &b, &inv_diag, omega);
        let mut expect_r = vec![0.0; n];
        let mut t = vec![0.0; n];
        serial.spmv(&csr, &x0, &mut t);
        serial.scaled_diff(&b, 1.0, &t, &mut expect_r);

        // Every static partition the pooled dispatch can hand out (the
        // pooled path itself is pinned by the multigrid tests).
        for threads in [1usize, 2, 4] {
            let mut xn = vec![f64::NAN; n];
            let mut r = vec![f64::NAN; n];
            for rank in 0..threads {
                let rows = lv_runtime::partition(n, threads, rank);
                dia.jacobi_range(&x0, &b, &inv_diag, omega, rows.clone(), &mut xn[rows.clone()]);
                dia.residual_range(&x0, &b, rows.clone(), &mut r[rows]);
            }
            for i in 0..n {
                assert_eq!(xn[i].to_bits(), expect_x[i].to_bits(), "sweep row {i}, {threads} thr");
                assert_eq!(
                    r[i].to_bits(),
                    expect_r[i].to_bits(),
                    "residual row {i}, {threads} thr"
                );
            }
        }
    }

    /// The four kernels at `T` — and the two of the [`RowClasses`] of the
    /// same matrix — baseline body against wide clone, on row ranges that
    /// start and end mid-block (and mid-run), cover a single row, nothing at
    /// all, and a matrix with fewer rows than one register has lanes.  The
    /// tridiagonal matrices give the class kernels runs of one row, the
    /// lattice runs of 35: wide, narrow and overlapped windows.
    fn assert_clones_match_their_baseline<T: Scalar>() {
        let lanes = Lanes::selected();
        if lanes == Lanes::Baseline {
            println!("note: this host selects no wide lanes; nothing to compare");
            return;
        }
        let narrow = |v: Vec<f64>| v.into_iter().map(T::from_f64).collect::<Vec<T>>();
        let bits = |v: &[T]| v.iter().map(|e| e.to_f64().to_bits()).collect::<Vec<u64>>();
        let pinned_tridiag = |n: usize| {
            let mut csr = tridiag(n);
            csr.pin_rows_symmetric(&[n / 2]);
            csr
        };
        let matrices = [
            pinned_tridiag(3),
            pinned_tridiag(700),
            pinned_tridiag(2 * BLOCK_ROWS + 77),
            crate::classes::tests::noisy_lattice(37, 19, &[40]),
        ];
        for csr in matrices {
            let n = csr.dim();
            let dia = DiaMatrix::<T>::from_csr(&csr).expect("a lattice stencil");
            let classes = RowClasses::<T>::from_dia(&dia).expect("at most 255 distinct rows");
            let (x, b) = (narrow(awkward_vector(n, 41)), narrow(awkward_vector(n, 43)));
            let inv_diag = narrow(crate::krylov::inverse_diagonal(&csr));
            let omega = T::from_f64(0.8);
            let ranges = [
                0..n,
                n.min(5)..n - n.min(3),
                n.min(250)..n.min(260),
                n.min(255)..n.min(513),
                n - 1..n,
                0..1,
                n / 2..n / 2,
            ];
            for rows in ranges.into_iter().filter(|rows| rows.start <= rows.end) {
                let run = |lanes| {
                    let mut out = [(); 9].map(|()| vec![T::from_f64(f64::NAN); rows.len()]);
                    let [product, sweep, residual, y0, y1, y2, by_class, r_by_class, p_by_class] =
                        &mut out;
                    dia.product_into_at(lanes, &x, rows.clone(), product);
                    dia.jacobi_range_at(lanes, &x, &b, &inv_diag, omega, rows.clone(), sweep);
                    dia.residual_range_at(lanes, &x, &b, rows.clone(), residual);
                    dia.product3_into_at(lanes, [&x, &b, &inv_diag], rows.clone(), [y0, y1, y2]);
                    classes.jacobi_range_at(
                        lanes,
                        &x,
                        &b,
                        &inv_diag,
                        omega,
                        rows.clone(),
                        by_class,
                    );
                    classes.residual_range_at(lanes, &x, &b, rows.clone(), r_by_class);
                    classes.product_range_at(lanes, &x, rows.clone(), p_by_class);
                    out.map(|v| bits(&v))
                };
                assert_eq!(run(Lanes::Baseline), run(lanes), "n={n}, rows {rows:?}");
            }
        }
    }

    #[test]
    fn wide_clones_match_their_baseline_bodies_bitwise_in_both_precisions() {
        assert_clones_match_their_baseline::<f64>();
        assert_clones_match_their_baseline::<f32>();
    }

    #[test]
    #[should_panic(expected = "output length must match the row range")]
    fn mismatched_output_is_rejected() {
        let dia = DiaMatrix::from_csr(&tridiag(10)).expect("tridiagonal");
        let x = vec![1.0; 10];
        let mut y = vec![0.0; 4];
        dia.apply_range(&x, 2..7, &mut y);
    }

    #[test]
    fn the_alias_check_sees_overlap() {
        let v = vec![0.0; 8];
        assert!(disjoint(&v[..4], &v[4..]));
        assert!(disjoint(&v[4..], &v[..4]));
        assert!(!disjoint(&v[..5], &v[3..]));
        assert!(!disjoint(&v, &v[2..3]));
    }
}
