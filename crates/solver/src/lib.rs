//! # lv-solver
//!
//! Sparse linear-algebra substrate for the CFD reproduction.
//!
//! Section 2.3 of the paper notes that CFD applications are structured into
//! two primary operations: (i) matrix and right-hand-side assembly — the
//! mini-app the paper studies — and (ii) the algebraic linear solver.  The
//! mini-app stops after the assembly, but a usable reproduction needs the
//! solver half too so the examples can run complete time steps
//! (lid-driven cavity, channel flow).  This crate provides:
//!
//! * [`csr`] — a compressed-sparse-row matrix built from the mesh node graph,
//!   with scatter-add assembly (the destination of phase 8), SpMV, and
//!   Dirichlet row/column elimination;
//! * [`krylov`] — the two Krylov recurrences, each written once: CG over
//!   any operator and preconditioner (with the flexible `β` when the
//!   preconditioner says it is inexact), BiCGSTAB over any operator and a
//!   const column width (one column, or the three momentum components in
//!   one loop with one operator traversal per product, each column bitwise
//!   identical to its single-RHS solve); four entry points
//!   ([`conjugate_gradient_on`], [`bicgstab_on`], [`bicgstab3_on`],
//!   [`mg_preconditioned_cg_on`]), each on the caller's worker team with
//!   bitwise identical results for every thread count — a one-thread team
//!   runs the serial kernels;
//! * [`multivector`] — the three-RHS SoA vector of the momentum solve;
//! * [`operator`] — the [`LinearOperator`] abstraction the Krylov loops
//!   consume: anything that can apply `y = A·x` over a row range — one
//!   column or three at once — and expose its diagonal (assembled CSR,
//!   diagonal-storage and matrix-free operators alike);
//! * [`dia`] — [`DiaMatrix`], the block-major diagonal storage of a lattice
//!   stencil (no column indices, unit-stride row-vectorised kernels) with
//!   the fused Jacobi-sweep and residual kernels, the fused three-column
//!   product of the momentum solve and the in-place assembly passes of the
//!   momentum matrix (seed, right-hand side and mass, Dirichlet rows),
//!   generic over a sealed scalar: in `f64` its products are
//!   bitwise equal to CSR, in `f32` it is the half-size, twice-as-wide form
//!   the V-cycle runs on;
//! * [`classes`] — [`RowClasses`], the storage of a lattice operator whose
//!   rows repeat: a table of the distinct rows (31 on a uniform cavity level
//!   once rounded to `f32`) and the runs of rows that carry them, with the
//!   same fused sweep and residual kernels, bitwise equal to the diagonal
//!   ones — ~40 KB where the diagonals are 3.9 MB;
//! * [`multigrid`] — geometric-multigrid V-cycle (trilinear interpolation,
//!   Galerkin coarse operators kept per level as row classes where long
//!   runs of rows repeat and as [`DiaMatrix`] diagonals elsewhere, one fused
//!   pass per damped-Jacobi sweep, dense-LU coarsest solve) run in `f32`, and the
//!   `f64` flexible-CG solver [`mg_preconditioned_cg_on`] it preconditions,
//!   bitwise reproducible at every thread count;
//! * [`parallel`] — the deterministic parallel kernels behind them:
//!   row-partitioned SpMV and fixed-block BLAS-1 on an [`lv_runtime::Team`],
//!   one column-generic body per kernel;
//! * [`dense`] — a tiny dense solver used for cross-checking the sparse path
//!   in tests.

#![warn(missing_docs)]

pub mod classes;
pub mod csr;
pub mod dense;
pub mod dia;
pub mod krylov;
pub mod multigrid;
pub mod multivector;
pub mod operator;
pub mod parallel;

pub use classes::RowClasses;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use dia::DiaMatrix;
pub use krylov::{
    bicgstab3_on, bicgstab_on, conjugate_gradient_on, BreakdownKind, SolveOptions, SolveOutcome,
    SolverError,
};
pub use multigrid::{
    exact_row_classes, galerkin_coarse, galerkin_on_lattices, mg_preconditioned_cg_on,
    GeometricMultigrid, Interpolation, LevelOperator, LevelStorage, MultigridOptions,
    TransferStorage,
};
pub use multivector::{MultiVector, NRHS};
pub use operator::{JacobiPreconditioner, LinearOperator, Preconditioner};
pub use parallel::{first_non_finite, VectorOps};
