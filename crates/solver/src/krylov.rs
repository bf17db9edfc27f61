//! The Krylov solvers: preconditioned Conjugate Gradient (for the symmetric
//! pressure-like systems) and Jacobi-preconditioned BiCGSTAB (for the
//! non-symmetric convection-dominated momentum systems the Nastin assembly
//! produces).
//!
//! Each recurrence exists once.  CG is `conjugate_gradient_with`: any
//! [`LinearOperator`] under any [`Preconditioner`] (Jacobi here; the `f32`
//! V-cycle in [`crate::multigrid`], which reports itself inexact and gets
//! the flexible `β`).  BiCGSTAB is `bicgstab_cols`, over any
//! [`LinearOperator`] as well and generic over a const column width `W`: it
//! runs `W` right-hand sides that share the operator through one iteration
//! loop with per-column scalars, so an iteration pays one fork/join per
//! fused BLAS-1 operation for all columns and — at the three columns of a
//! momentum solve — **one** traversal of the operator
//! ([`LinearOperator::apply3_range`]: [`crate::csr::CsrMatrix::spmm3_range`],
//! or the index-free [`crate::DiaMatrix::product3_into`] with rows for
//! vector lanes) instead of three.  Every backend adds a row's entries in
//! one fixed order, so the storage an operator comes in moves no bit.  A
//! column that converges or breaks down early is **masked, not dropped**:
//! its vectors stay frozen while the others keep iterating, and every
//! kernel evaluates, per column, one expression per entry whatever the
//! width.  So column `c` of a wide solve and a one-column solve of `b_c`
//! return the same bits — solution, iteration count, residual history and
//! error alike — which the tests pin against a plain-loop oracle.
//!
//! Both run on the [`crate::parallel::VectorOps`] kernels and therefore
//! give **bitwise identical** results for every thread count: SpMV
//! partitions disjoint output rows, the element-wise updates evaluate the
//! same expressions under a static partition, and every reduction uses the
//! fixed-block deterministic order.  Every entry point runs on the caller's
//! [`Team`] (a time-step loop shares one set of workers between assembly and
//! solves); a one-thread team spawns no worker and runs the serial kernels
//! ([`VectorOps::on_team`]).

use crate::multivector::{MultiVector, NRHS};
use crate::operator::{JacobiPreconditioner, LinearOperator, Preconditioner};
use crate::parallel::VectorOps;
use lv_runtime::Team;
use lv_trace::{spans, SpanId};
use serde::{Deserialize, Serialize};

/// Modeled per-iteration cost of one CG iteration beyond the operator
/// application: the BLAS-1 flop count (dots, norms, axpys, the direction
/// update, the Jacobi application) per vector entry.  The byte constant
/// counts the vector streams of the same operations (8 bytes each).  These
/// are *models* — fixed functions of the iteration structure, chosen for
/// cross-backend consistency, not measured traffic.
pub(crate) const CG_BLAS1_FLOPS_PER_ENTRY: u64 = 13;
pub(crate) const CG_BLAS1_STREAMS_PER_ENTRY: u64 = 14;
/// What the flexible `β` adds to each of the two: one more dot product, a
/// multiply-add over two vector streams per entry.
pub(crate) const CG_FLEXIBLE_DOT_PER_ENTRY: u64 = 2;
/// Same model for one BiCGSTAB iteration (two operator applications, four
/// dots, two norms and six fused element-wise updates).
pub(crate) const BICGSTAB_BLAS1_FLOPS_PER_ENTRY: u64 = 26;
pub(crate) const BICGSTAB_BLAS1_STREAMS_PER_ENTRY: u64 = 30;

/// Options controlling an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolveOptions {
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Relative residual tolerance (‖r‖ / ‖b‖).
    pub tolerance: f64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions { max_iterations: 1000, tolerance: 1e-10 }
    }
}

/// Which Krylov recurrence denominator degenerated in a
/// [`SolverError::Breakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakdownKind {
    /// CG: the curvature `pᵀAp` vanished — the operator is not SPD for the
    /// current direction, or the direction itself collapsed.
    ZeroCurvature,
    /// BiCGSTAB: `ρ = (r₀, r)` vanished — the residual became orthogonal to
    /// the shadow residual.
    RhoVanished,
    /// BiCGSTAB: `(r₀, A·p̂)` vanished, so no step length α exists.
    ShadowDegenerate,
    /// BiCGSTAB: `tᵀt` vanished in the stabilization step.
    StagnantStabilizer,
    /// BiCGSTAB: the stabilization weight ω vanished, so the next iteration
    /// would divide by it.
    OmegaVanished,
    /// Forced by a deterministic fault-injection plan, not by arithmetic
    /// (the recovery-path test harness).
    Injected,
}

impl BreakdownKind {
    /// Human-readable description of the degenerate recurrence.
    pub fn describe(&self) -> &'static str {
        match self {
            BreakdownKind::ZeroCurvature => "curvature p'Ap vanished (operator not SPD?)",
            BreakdownKind::RhoVanished => "rho = (r0, r) vanished",
            BreakdownKind::ShadowDegenerate => "(r0, A*p) vanished, no step length exists",
            BreakdownKind::StagnantStabilizer => "t't vanished in the stabilization step",
            BreakdownKind::OmegaVanished => "stabilization weight omega vanished",
            BreakdownKind::Injected => "injected by the fault plan",
        }
    }
}

/// Why a solve failed.  Every failing variant carries enough diagnostics to
/// report *where* the iteration died (the failing iteration and the last
/// relative residual), so drivers can log a structured post-mortem instead
/// of a bare "breakdown".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SolverError {
    /// The iteration limit was reached before convergence; carries the last
    /// relative residual.
    NotConverged {
        /// Relative residual when the iteration limit was hit.
        final_residual: f64,
    },
    /// A breakdown occurred (zero denominator in the recurrences).
    Breakdown {
        /// Which recurrence denominator degenerated.
        kind: BreakdownKind,
        /// Iteration at which it degenerated (0-based; the iteration that
        /// was being computed, not the last completed one).
        iteration: usize,
        /// Last relative residual recorded before the breakdown
        /// (`INFINITY` when none was recorded yet).
        residual: f64,
    },
    /// A non-finite value (NaN/Inf) appeared in the right-hand side, the
    /// residual or an iterate.  The guards fire *before* the poisoned value
    /// can propagate, so a failed solve never silently returns a NaN
    /// trajectory.
    NonFinite {
        /// Iteration at which the non-finite value was detected (0 can also
        /// mean the inputs themselves were poisoned).
        iteration: usize,
        /// The offending relative residual (NaN/Inf by construction).
        residual: f64,
    },
    /// Input sizes are inconsistent.
    DimensionMismatch,
}

impl SolverError {
    /// A [`SolverError::Breakdown`] whose residual snapshot is the last
    /// entry of `history` (`INFINITY` when nothing was recorded yet).
    pub fn breakdown(kind: BreakdownKind, iteration: usize, history: &[f64]) -> Self {
        SolverError::Breakdown {
            kind,
            iteration,
            residual: history.last().copied().unwrap_or(f64::INFINITY),
        }
    }

    /// A [`SolverError::NonFinite`] raised because a recurrence scalar (a
    /// dot product like `pᵀAp` or `ρ`) went NaN/Inf — the iterate is already
    /// poisoned even if the residual history has not caught up, so the
    /// carried residual is NaN.
    pub fn non_finite_scalar(iteration: usize) -> Self {
        SolverError::NonFinite { iteration, residual: f64::NAN }
    }

    /// The relative residual the failure carries, when it has one.
    pub fn residual(&self) -> Option<f64> {
        match self {
            SolverError::NotConverged { final_residual } => Some(*final_residual),
            SolverError::Breakdown { residual, .. } => Some(*residual),
            SolverError::NonFinite { residual, .. } => Some(*residual),
            SolverError::DimensionMismatch => None,
        }
    }

    /// Whether this is a recurrence breakdown.
    pub fn is_breakdown(&self) -> bool {
        matches!(self, SolverError::Breakdown { .. })
    }

    /// Whether this failure was a NaN/Inf guard firing.
    pub fn is_non_finite(&self) -> bool {
        matches!(self, SolverError::NonFinite { .. })
    }
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::NotConverged { final_residual } => {
                write!(f, "not converged (final relative residual {final_residual:.3e})")
            }
            SolverError::Breakdown { kind, iteration, residual } => write!(
                f,
                "breakdown at iteration {iteration}: {} (last residual {residual:.3e})",
                kind.describe()
            ),
            SolverError::NonFinite { iteration, residual } => write!(
                f,
                "non-finite value at iteration {iteration} (residual {residual}); \
                 rejecting instead of iterating on NaN"
            ),
            SolverError::DimensionMismatch => write!(f, "input sizes are inconsistent"),
        }
    }
}

impl std::error::Error for SolverError {}

/// Result of a successful iterative solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveOutcome {
    /// The solution vector.
    pub solution: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Relative residual history.  Always seeded with the initial residual,
    /// so it is non-empty even for a zero-iteration solve (‖b‖ = 0 converges
    /// immediately with history `[0.0]`).
    pub residual_history: Vec<f64>,
}

impl SolveOutcome {
    /// Final relative residual (the last history entry; the history is never
    /// empty for an outcome produced by the solvers in this module).
    pub fn final_residual(&self) -> f64 {
        self.residual_history.last().copied().unwrap_or(f64::INFINITY)
    }
}

/// Inverse diagonal of any operator backend (1.0 for near-zero pivots).
pub(crate) fn inverse_diagonal(operator: &dyn LinearOperator) -> Vec<f64> {
    operator.diagonal().iter().map(|&d| if d.abs() > 1e-300 { 1.0 / d } else { 1.0 }).collect()
}

/// The immediately-converged outcome of a zero right-hand side.  The history
/// is seeded with the (zero) initial residual unconditionally: a
/// zero-iteration solve must still report `final_residual() == 0.0`, not
/// `INFINITY` from an empty history.
pub(crate) fn zero_rhs_outcome(n: usize) -> SolveOutcome {
    SolveOutcome { solution: vec![0.0; n], iterations: 0, residual_history: vec![0.0] }
}

/// Solves `A·x = b` with the Jacobi-preconditioned Conjugate Gradient method
/// on `team`, for any [`LinearOperator`] backend (assembled CSR or
/// matrix-free).  `A` must be symmetric positive definite for guaranteed
/// convergence.  A one-thread team runs the serial kernels.
pub fn conjugate_gradient_on(
    team: &Team,
    operator: &dyn LinearOperator,
    b: &[f64],
    options: &SolveOptions,
) -> Result<SolveOutcome, SolverError> {
    let mut precond = JacobiPreconditioner::new(operator);
    conjugate_gradient_with(operator, b, options, &mut VectorOps::on_team(team), &mut precond)
}

/// The shared preconditioned-CG driver.  `precond` applies a fixed SPD
/// operator (Jacobi) or says it is inexact (the `f32` multigrid V-cycle).
///
/// Under an inexact preconditioner the direction update takes the flexible
/// (Polak–Ribière) `β = z_new·(r_new − r_old) / (r_old·z_old)
/// = −α·(Ap·z_new) / (r·z)_old` instead of Fletcher–Reeves'
/// `(r·z)_new / (r·z)_old`: equal in exact arithmetic under a fixed `M`,
/// but it keeps the new direction `A`-conjugate to the last one when `z`
/// is only approximately `M⁻¹·r`.  It costs one more dot and no vector.
pub(crate) fn conjugate_gradient_with(
    operator: &dyn LinearOperator,
    b: &[f64],
    options: &SolveOptions,
    ops: &mut VectorOps<'_>,
    precond: &mut dyn Preconditioner,
) -> Result<SolveOutcome, SolverError> {
    let n = operator.dim();
    if b.len() != n {
        return Err(SolverError::DimensionMismatch);
    }
    let b_norm = ops.norm(b);
    if b_norm == 0.0 {
        return Ok(zero_rhs_outcome(n));
    }
    if !b_norm.is_finite() {
        // A NaN/Inf right-hand side would turn every later residual into
        // NaN; reject it at the door with a structured error.
        return Err(SolverError::NonFinite { iteration: 0, residual: b_norm });
    }

    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z = vec![0.0; n];
    precond.apply(ops, &r, &mut z);
    let mut p = z.clone();
    let mut rz = ops.dot(&r, &z);
    let mut history = vec![ops.norm(&r) / b_norm];
    let mut ap = vec![0.0; n];

    let flexible = precond.is_inexact();
    let extra_dot = if flexible { CG_FLEXIBLE_DOT_PER_ENTRY } else { 0 };
    let trace = ops.trace();
    let iter_flops = operator.apply_flops() + (CG_BLAS1_FLOPS_PER_ENTRY + extra_dot) * n as u64;
    let iter_bytes =
        operator.streamed_bytes() as u64 + (CG_BLAS1_STREAMS_PER_ENTRY + extra_dot) * 8 * n as u64;

    for iter in 0..options.max_iterations {
        // One timed event per iteration; early error returns drop (and
        // thereby record) the guard with zero tallies, which is itself
        // deterministic — the failing iteration is thread-invariant.
        let mut span = trace.map(|t| t.span(spans::CG_ITERATION, 0));
        ops.apply(operator, &p, &mut ap);
        let pap = ops.dot(&p, &ap);
        if !pap.is_finite() {
            return Err(SolverError::non_finite_scalar(iter));
        }
        if pap.abs() < 1e-300 {
            return Err(SolverError::breakdown(BreakdownKind::ZeroCurvature, iter, &history));
        }
        let alpha = rz / pap;
        ops.axpy(alpha, &p, &mut x);
        ops.axpy(-alpha, &ap, &mut r);
        let rel = ops.norm(&r) / b_norm;
        if !rel.is_finite() {
            return Err(SolverError::NonFinite { iteration: iter, residual: rel });
        }
        history.push(rel);
        if let Some(s) = span.take() {
            s.iters(1).flops(iter_flops).bytes(iter_bytes).aux(rel.to_bits()).finish();
        }
        if rel < options.tolerance {
            return Ok(SolveOutcome {
                solution: x,
                iterations: iter + 1,
                residual_history: history,
            });
        }
        precond.apply(ops, &r, &mut z);
        let rz_new = ops.dot(&r, &z);
        let beta = if flexible { -alpha * ops.dot(&ap, &z) / rz } else { rz_new / rz };
        rz = rz_new;
        ops.xpby(&z, beta, &mut p);
    }
    Err(SolverError::NotConverged { final_residual: *history.last().unwrap() })
}

/// Solves `A·x = b` with the Jacobi-preconditioned BiCGSTAB method on
/// `team`; works for non-symmetric systems such as the convection-dominated
/// momentum equations.
pub fn bicgstab_on(
    team: &Team,
    operator: &dyn LinearOperator,
    b: &[f64],
    options: &SolveOptions,
) -> Result<SolveOutcome, SolverError> {
    let [outcome] = bicgstab_cols(
        operator,
        [b],
        options,
        &mut VectorOps::on_team(team),
        spans::BICGSTAB_ITERATION,
    );
    outcome
}

/// Solves the three systems `A·x_c = b_c` in one BiCGSTAB loop on a
/// caller-provided worker team — the momentum solve of a time step.  Entry
/// `c` of the result is exactly what [`bicgstab_on`] returns for
/// `b.component(c)`.
pub fn bicgstab3_on(
    team: &Team,
    operator: &dyn LinearOperator,
    b: &MultiVector,
    options: &SolveOptions,
) -> [Result<SolveOutcome, SolverError>; NRHS] {
    let ops = &mut VectorOps::on_team(team);
    bicgstab_cols(operator, b.components(), options, ops, spans::BICGSTAB3_ITERATION)
}

/// `W` equally long zero vectors.
fn zeros<const W: usize>(n: usize) -> [Vec<f64>; W] {
    std::array::from_fn(|_| vec![0.0; n])
}

fn cols<const W: usize>(vectors: &[Vec<f64>; W]) -> [&[f64]; W] {
    std::array::from_fn(|c| vectors[c].as_slice())
}

fn cols_mut<const W: usize>(vectors: &mut [Vec<f64>; W]) -> [&mut [f64]; W] {
    let mut rest = vectors.iter_mut();
    std::array::from_fn(|_| rest.next().expect("W vectors").as_mut_slice())
}

/// Book-keeping of a `W`-column solve: which columns still iterate, their
/// finished results and their residual histories.
struct ColumnTracker<const W: usize> {
    active: [bool; W],
    results: [Option<Result<SolveOutcome, SolverError>>; W],
    histories: [Vec<f64>; W],
}

impl<const W: usize> ColumnTracker<W> {
    fn new() -> Self {
        ColumnTracker {
            active: [true; W],
            results: std::array::from_fn(|_| None),
            histories: std::array::from_fn(|_| Vec::new()),
        }
    }

    fn any_active(&self) -> bool {
        self.active.iter().any(|&a| a)
    }

    /// Bitmask of the active columns (bit `c` set when column `c` still
    /// iterates) — the `aux` payload of the iteration events.
    fn active_mask(&self) -> u64 {
        self.active.iter().enumerate().filter(|(_, &a)| a).map(|(c, _)| 1u64 << c).sum()
    }

    fn fail(&mut self, c: usize, error: SolverError) {
        self.results[c] = Some(Err(error));
        self.active[c] = false;
    }

    /// Fails column `c` with a [`SolverError::Breakdown`] whose residual
    /// snapshot is the column's last recorded relative residual.
    fn fail_breakdown(&mut self, c: usize, kind: BreakdownKind, iteration: usize) {
        let error = SolverError::breakdown(kind, iteration, &self.histories[c]);
        self.fail(c, error);
    }

    /// Per-column entry guard: a zero RHS converges immediately, a
    /// non-finite RHS is rejected with a structured error before any
    /// iteration can smear the NaN across the iterate.
    fn screen_rhs(&mut self, n: usize, b_norm: &[f64; W]) {
        for (c, &bn) in b_norm.iter().enumerate() {
            if bn == 0.0 {
                self.results[c] = Some(Ok(zero_rhs_outcome(n)));
                self.active[c] = false;
            } else if !bn.is_finite() {
                self.fail(c, SolverError::NonFinite { iteration: 0, residual: bn });
            }
        }
    }

    fn converge(&mut self, c: usize, x: &[Vec<f64>; W], iterations: usize) {
        self.results[c] = Some(Ok(SolveOutcome {
            solution: x[c].clone(),
            iterations,
            residual_history: std::mem::take(&mut self.histories[c]),
        }));
        self.active[c] = false;
    }

    /// Columns still active after the iteration limit: `NotConverged` with
    /// the last recorded relative residual.
    fn finish(mut self) -> [Result<SolveOutcome, SolverError>; W] {
        for c in 0..W {
            if self.active[c] {
                let final_residual =
                    *self.histories[c].last().expect("an active column has a seeded history");
                self.results[c] = Some(Err(SolverError::NotConverged { final_residual }));
            }
        }
        self.results.map(|r| r.expect("every column must be resolved"))
    }
}

/// The BiCGSTAB recurrence over `W` columns sharing `operator`, with
/// per-column scalars and a per-column mask.  A failed or converged column
/// turns every later kernel into a no-op for it, so with one column the
/// control flow is the textbook loop: the first failure or convergence is
/// followed by the `any_active` break.  One `iteration_span` event is
/// recorded per iteration (`iters` = active columns, `aux` = their mask).
fn bicgstab_cols<const W: usize>(
    operator: &dyn LinearOperator,
    b: [&[f64]; W],
    options: &SolveOptions,
    ops: &mut VectorOps<'_>,
    iteration_span: SpanId,
) -> [Result<SolveOutcome, SolverError>; W] {
    let n = operator.dim();
    if b.iter().any(|column| column.len() != n) {
        return std::array::from_fn(|_| Err(SolverError::DimensionMismatch));
    }
    let mut tracker = ColumnTracker::<W>::new();
    let b_norm = ops.norm_cols(b, [true; W]);
    tracker.screen_rhs(n, &b_norm);
    let inv_diag = inverse_diagonal(operator);

    let mut x = zeros::<W>(n);
    let mut r = b.map(<[f64]>::to_vec);
    let r0 = r.clone();
    let mut rho = [1.0f64; W];
    let mut alpha = [1.0f64; W];
    let mut omega = [1.0f64; W];
    let mut v = zeros::<W>(n);
    let mut p = zeros::<W>(n);
    let r_norm = ops.norm_cols(cols(&r), tracker.active);
    for c in 0..W {
        if tracker.active[c] {
            tracker.histories[c].push(r_norm[c] / b_norm[c]);
        }
    }
    let mut phat = zeros::<W>(n);
    let mut s = zeros::<W>(n);
    let mut shat = zeros::<W>(n);
    let mut t = zeros::<W>(n);

    let trace = ops.trace();
    // Two traversals of the operator per iteration, streamed once for all
    // the columns (the fused product) — as whatever backend runs stores
    // it; the multiply-adds and the BLAS-1 work are per active column.
    let traversal_bytes = 2 * operator.streamed_bytes() as u64;
    let column_flops = 2 * operator.apply_flops() + BICGSTAB_BLAS1_FLOPS_PER_ENTRY * n as u64;
    let column_bytes = BICGSTAB_BLAS1_STREAMS_PER_ENTRY * 8 * n as u64;

    for iter in 0..options.max_iterations {
        if !tracker.any_active() {
            break;
        }
        let active_count = tracker.active.iter().filter(|&&a| a).count() as u64;
        let _span = trace.map(|t| {
            t.span(iteration_span, 0)
                .iters(active_count)
                .flops(active_count * column_flops)
                .bytes(traversal_bytes + active_count * column_bytes)
                .aux(tracker.active_mask())
        });
        let rho_new = ops.dot_cols(cols(&r0), cols(&r), tracker.active);
        let mut beta = [0.0f64; W];
        for c in 0..W {
            if !tracker.active[c] {
                continue;
            }
            if !rho_new[c].is_finite() {
                tracker.fail(c, SolverError::non_finite_scalar(iter));
            } else if rho_new[c].abs() < 1e-300 {
                tracker.fail_breakdown(c, BreakdownKind::RhoVanished, iter);
            } else {
                beta[c] = (rho_new[c] / rho[c]) * (alpha[c] / omega[c]);
                rho[c] = rho_new[c];
            }
        }
        ops.direction_update_cols(
            cols(&r),
            beta,
            omega,
            cols(&v),
            cols_mut(&mut p),
            tracker.active,
        );
        ops.hadamard_cols(cols(&p), &inv_diag, cols_mut(&mut phat), tracker.active);
        ops.spmm_cols(operator, cols(&phat), cols_mut(&mut v), tracker.active);
        let r0v = ops.dot_cols(cols(&r0), cols(&v), tracker.active);
        for c in 0..W {
            if !tracker.active[c] {
                continue;
            }
            if !r0v[c].is_finite() {
                tracker.fail(c, SolverError::non_finite_scalar(iter));
            } else if r0v[c].abs() < 1e-300 {
                tracker.fail_breakdown(c, BreakdownKind::ShadowDegenerate, iter);
            } else {
                alpha[c] = rho[c] / r0v[c];
            }
        }
        ops.scaled_diff_cols(cols(&r), alpha, cols(&v), cols_mut(&mut s), tracker.active);
        let s_norm = ops.norm_cols(cols(&s), tracker.active);
        for c in 0..W {
            if !tracker.active[c] {
                continue;
            }
            let s_rel = s_norm[c] / b_norm[c];
            if !s_rel.is_finite() {
                tracker.fail(c, SolverError::NonFinite { iteration: iter, residual: s_rel });
                continue;
            }
            if s_rel < options.tolerance {
                // Early half-step convergence: apply the half update
                // `x += alpha * phat` to this column only.
                let mut only = [false; W];
                only[c] = true;
                ops.axpy_cols(alpha, cols(&phat), cols_mut(&mut x), only);
                tracker.histories[c].push(s_rel);
                tracker.converge(c, &x, iter + 1);
            }
        }
        if !tracker.any_active() {
            break;
        }
        ops.hadamard_cols(cols(&s), &inv_diag, cols_mut(&mut shat), tracker.active);
        ops.spmm_cols(operator, cols(&shat), cols_mut(&mut t), tracker.active);
        let tt = ops.dot_cols(cols(&t), cols(&t), tracker.active);
        for (c, ttc) in tt.iter().enumerate() {
            if !tracker.active[c] {
                continue;
            }
            if !ttc.is_finite() {
                tracker.fail(c, SolverError::non_finite_scalar(iter));
            } else if ttc.abs() < 1e-300 {
                tracker.fail_breakdown(c, BreakdownKind::StagnantStabilizer, iter);
            }
        }
        let ts = ops.dot_cols(cols(&t), cols(&s), tracker.active);
        for c in 0..W {
            if tracker.active[c] {
                omega[c] = ts[c] / tt[c];
            }
        }
        ops.axpy2_cols(alpha, cols(&phat), omega, cols(&shat), cols_mut(&mut x), tracker.active);
        ops.scaled_diff_cols(cols(&s), omega, cols(&t), cols_mut(&mut r), tracker.active);
        let rel = ops.norm_cols(cols(&r), tracker.active);
        for c in 0..W {
            if !tracker.active[c] {
                continue;
            }
            let rel_c = rel[c] / b_norm[c];
            if !rel_c.is_finite() {
                tracker.fail(c, SolverError::NonFinite { iteration: iter, residual: rel_c });
                continue;
            }
            tracker.histories[c].push(rel_c);
            if rel_c < options.tolerance {
                tracker.converge(c, &x, iter + 1);
            } else if omega[c].abs() < 1e-300 {
                tracker.fail_breakdown(c, BreakdownKind::OmegaVanished, iter);
            }
        }
    }
    tracker.finish()
}

/// The single-RHS BiCGSTAB loop as it stood before the recurrence became
/// column-generic, kept verbatim on plain serial loops (no [`VectorOps`]):
/// the reference every width of [`bicgstab_cols`] is held to, bit for bit.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::csr::CsrMatrix;
    use lv_runtime::REDUCTION_BLOCK;

    /// The fixed-block dot product, written out.
    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.chunks(REDUCTION_BLOCK)
            .zip(b.chunks(REDUCTION_BLOCK))
            .map(|(a, b)| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>())
            .sum()
    }

    fn norm(a: &[f64]) -> f64 {
        dot(a, a).sqrt()
    }

    pub(super) fn bicgstab(
        matrix: &CsrMatrix,
        b: &[f64],
        options: &SolveOptions,
    ) -> Result<SolveOutcome, SolverError> {
        let n = matrix.dim();
        if b.len() != n {
            return Err(SolverError::DimensionMismatch);
        }
        let b_norm = norm(b);
        if b_norm == 0.0 {
            return Ok(zero_rhs_outcome(n));
        }
        if !b_norm.is_finite() {
            return Err(SolverError::NonFinite { iteration: 0, residual: b_norm });
        }
        let inv_diag = inverse_diagonal(matrix);

        let mut x = vec![0.0; n];
        let mut r = b.to_vec();
        let r0 = r.clone();
        let mut rho = 1.0;
        let mut alpha = 1.0;
        let mut omega = 1.0;
        let mut v = vec![0.0; n];
        let mut p = vec![0.0; n];
        let mut history = vec![norm(&r) / b_norm];
        let mut phat = vec![0.0; n];
        let mut s = vec![0.0; n];
        let mut shat = vec![0.0; n];
        let mut t = vec![0.0; n];

        for iter in 0..options.max_iterations {
            let rho_new = dot(&r0, &r);
            if !rho_new.is_finite() {
                return Err(SolverError::non_finite_scalar(iter));
            }
            if rho_new.abs() < 1e-300 {
                return Err(SolverError::breakdown(BreakdownKind::RhoVanished, iter, &history));
            }
            let beta = (rho_new / rho) * (alpha / omega);
            rho = rho_new;
            for i in 0..n {
                p[i] = r[i] + beta * (p[i] - omega * v[i]);
            }
            for i in 0..n {
                phat[i] = p[i] * inv_diag[i];
            }
            matrix.spmv(&phat, &mut v);
            let r0v = dot(&r0, &v);
            if !r0v.is_finite() {
                return Err(SolverError::non_finite_scalar(iter));
            }
            if r0v.abs() < 1e-300 {
                return Err(SolverError::breakdown(
                    BreakdownKind::ShadowDegenerate,
                    iter,
                    &history,
                ));
            }
            alpha = rho / r0v;
            for i in 0..n {
                s[i] = r[i] - alpha * v[i];
            }
            let s_rel = norm(&s) / b_norm;
            if !s_rel.is_finite() {
                return Err(SolverError::NonFinite { iteration: iter, residual: s_rel });
            }
            if s_rel < options.tolerance {
                for i in 0..n {
                    x[i] += alpha * phat[i];
                }
                history.push(s_rel);
                return Ok(SolveOutcome {
                    solution: x,
                    iterations: iter + 1,
                    residual_history: history,
                });
            }
            for i in 0..n {
                shat[i] = s[i] * inv_diag[i];
            }
            matrix.spmv(&shat, &mut t);
            let tt = dot(&t, &t);
            if !tt.is_finite() {
                return Err(SolverError::non_finite_scalar(iter));
            }
            if tt.abs() < 1e-300 {
                return Err(SolverError::breakdown(
                    BreakdownKind::StagnantStabilizer,
                    iter,
                    &history,
                ));
            }
            omega = dot(&t, &s) / tt;
            for i in 0..n {
                x[i] += alpha * phat[i] + omega * shat[i];
            }
            for i in 0..n {
                r[i] = s[i] - omega * t[i];
            }
            let rel = norm(&r) / b_norm;
            if !rel.is_finite() {
                return Err(SolverError::NonFinite { iteration: iter, residual: rel });
            }
            history.push(rel);
            if rel < options.tolerance {
                return Ok(SolveOutcome {
                    solution: x,
                    iterations: iter + 1,
                    residual_history: history,
                });
            }
            if omega.abs() < 1e-300 {
                return Err(SolverError::breakdown(BreakdownKind::OmegaVanished, iter, &history));
            }
        }
        Err(SolverError::NotConverged { final_residual: *history.last().unwrap() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::dense::DenseMatrix;

    fn norm(a: &[f64]) -> f64 {
        a.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// 1-D Laplacian with Dirichlet boundary rows: SPD, well conditioned.
    fn laplacian(n: usize) -> CsrMatrix {
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

    /// A non-symmetric, diagonally dominant "convection-diffusion" matrix.
    fn convection(n: usize) -> CsrMatrix {
        let mut dense = vec![vec![0.0; n]; n];
        for (i, row) in dense.iter_mut().enumerate() {
            row[i] = 4.0;
            if i > 0 {
                row[i - 1] = -2.0;
            }
            if i + 1 < n {
                row[i + 1] = -0.5;
            }
        }
        CsrMatrix::from_dense(&dense)
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect()
    }

    /// A diagonally dominant SPD tridiagonal matrix (well conditioned at any
    /// size, unlike the Laplacian whose condition number grows like n²).
    fn spd_dominant(n: usize) -> CsrMatrix {
        let mut dense = vec![vec![0.0; n]; n];
        for (i, row) in dense.iter_mut().enumerate() {
            row[i] = 4.0 + (i % 3) as f64;
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
    fn cg_solves_spd_system() {
        let a = laplacian(50);
        let b = rhs(50);
        let out = conjugate_gradient_on(&Team::new(1), &a, &b, &SolveOptions::default()).unwrap();
        let residual: Vec<f64> =
            a.mul_vec(&out.solution).iter().zip(&b).map(|(ax, bi)| ax - bi).collect();
        assert!(norm(&residual) / norm(&b) < 1e-9);
        assert!(out.iterations <= 50, "CG must converge in at most n iterations");
        assert!(out.final_residual() < 1e-9);
    }

    /// A fixed SPD preconditioner that claims to be inexact: under it the
    /// flexible `β` is Fletcher–Reeves' in exact arithmetic, so the solve
    /// must agree with plain PCG to rounding — and the traffic model must
    /// charge exactly one more dot per iteration.
    #[test]
    fn flexible_beta_is_plain_cg_under_an_exact_preconditioner_plus_one_dot() {
        struct ClaimsInexact(JacobiPreconditioner);
        impl Preconditioner for ClaimsInexact {
            fn apply(&mut self, ops: &mut VectorOps<'_>, r: &[f64], z: &mut [f64]) {
                self.0.apply(ops, r, z);
            }
            fn is_inexact(&self) -> bool {
                true
            }
        }
        let n = 200;
        let a = spd_dominant(n);
        let b = rhs(n);
        let options = SolveOptions::default();
        let mut iteration_spans = Vec::new();
        let mut outcomes = Vec::new();
        for flexible in [false, true] {
            let mut team = Team::with_trace(1, lv_runtime::TraceConfig::default());
            let mut exact = JacobiPreconditioner::new(&a);
            let mut claiming = ClaimsInexact(exact.clone());
            let precond: &mut dyn Preconditioner =
                if flexible { &mut claiming } else { &mut exact };
            let outcome =
                conjugate_gradient_with(&a, &b, &options, &mut VectorOps::on_team(&team), precond)
                    .expect("converges");
            let events = team.trace_mut().expect("traced").events();
            let span = events.into_iter().find(|e| e.span == spans::CG_ITERATION).expect("a span");
            iteration_spans.push((span.flops, span.bytes));
            outcomes.push(outcome);
        }
        assert_eq!(outcomes[0].iterations, outcomes[1].iterations);
        for (x, y) in outcomes[0].solution.iter().zip(&outcomes[1].solution) {
            assert!((x - y).abs() <= 1e-9 * (1.0 + x.abs()));
        }
        let ((plain_flops, plain_bytes), (flex_flops, flex_bytes)) =
            (iteration_spans[0], iteration_spans[1]);
        assert_eq!(flex_flops - plain_flops, 2 * n as u64);
        assert_eq!(flex_bytes - plain_bytes, 2 * 8 * n as u64);
    }

    #[test]
    fn bicgstab_solves_nonsymmetric_system() {
        let a = convection(60);
        assert!(!a.is_symmetric(1e-12));
        let b = rhs(60);
        let out = bicgstab_on(&Team::new(1), &a, &b, &SolveOptions::default()).unwrap();
        let residual: Vec<f64> =
            a.mul_vec(&out.solution).iter().zip(&b).map(|(ax, bi)| ax - bi).collect();
        assert!(norm(&residual) / norm(&b) < 1e-8);
    }

    /// The traffic model of a BiCGSTAB iteration, pinned: the two operator
    /// traversals are streamed once per iteration whatever the width (the
    /// three-column product is one pass), multiply-adds and BLAS-1 streams
    /// are per active column, and both operator figures are the running
    /// backend's — so one column models exactly what it always did, and the
    /// diagonal storage reports its index-free, padding-included bytes.
    #[test]
    fn bicgstab_iteration_spans_charge_the_traversals_once_and_the_rest_per_column() {
        let n = 400;
        let csr = convection(n);
        let dia = crate::dia::DiaMatrix::<f64>::from_csr(&csr).expect("three diagonals");
        assert!(dia.streamed_bytes() < LinearOperator::streamed_bytes(&csr));
        // The columns converge at different iterations: events at partial widths.
        let mut unit = vec![0.0; n];
        unit[n / 2] = 1.0;
        let b = MultiVector::from_columns([&rhs(n), &unit, &rhs(n)]);
        let options = SolveOptions::default();
        let operators: [&dyn LinearOperator; 2] = [&csr, &dia];
        for operator in operators {
            let (flops, bytes) = (operator.apply_flops(), operator.streamed_bytes() as u64);
            let column_flops = 2 * flops + BICGSTAB_BLAS1_FLOPS_PER_ENTRY * n as u64;
            let column_bytes = BICGSTAB_BLAS1_STREAMS_PER_ENTRY * 8 * n as u64;
            let mut team = Team::with_trace(1, lv_runtime::TraceConfig::default());
            bicgstab_on(&team, operator, b.component(0), &options).expect("converges");
            for outcome in bicgstab3_on(&team, operator, &b, &options) {
                outcome.expect("converges");
            }
            let events = team.trace_mut().expect("traced").events();
            let mut widths = std::collections::BTreeSet::new();
            for event in events {
                let wide = event.span == spans::BICGSTAB3_ITERATION;
                if wide || event.span == spans::BICGSTAB_ITERATION {
                    widths.insert((wide, event.iters));
                    assert_eq!(event.flops, event.iters * column_flops);
                    assert_eq!(event.bytes, 2 * bytes + event.iters * column_bytes);
                }
            }
            let seen: Vec<_> = widths.into_iter().collect();
            assert_eq!(seen, [(false, 1), (true, 1), (true, 3)], "widths the model was pinned at");
        }
    }

    #[test]
    fn solutions_match_dense_solver() {
        let n = 12;
        let a = convection(n);
        let b = rhs(n);
        let dense_rows: Vec<Vec<f64>> =
            (0..n).map(|i| (0..n).map(|j| a.get(i, j)).collect()).collect();
        let dense = DenseMatrix::from_rows(&dense_rows);
        let x_dense = dense.solve(&b).unwrap();
        let x_iter = bicgstab_on(&Team::new(1), &a, &b, &SolveOptions::default()).unwrap().solution;
        for i in 0..n {
            assert!((x_dense[i] - x_iter[i]).abs() < 1e-7, "component {i}");
        }
    }

    #[test]
    fn zero_rhs_returns_zero_solution() {
        let a = laplacian(10);
        let out =
            conjugate_gradient_on(&Team::new(1), &a, &[0.0; 10], &SolveOptions::default()).unwrap();
        assert_eq!(out.solution, vec![0.0; 10]);
        assert_eq!(out.iterations, 0);
        let out = bicgstab_on(&Team::new(1), &a, &[0.0; 10], &SolveOptions::default()).unwrap();
        assert_eq!(out.iterations, 0);
    }

    /// Regression: a zero-iteration converged solve (‖b‖ = 0) must report a
    /// zero final residual from a seeded history — not `INFINITY` from an
    /// empty one.
    #[test]
    fn zero_iteration_solve_has_seeded_residual_history() {
        let a = laplacian(10);
        let opts = SolveOptions::default();
        for threads in [1usize, 2] {
            let team = Team::new(threads);
            let cg = conjugate_gradient_on(&team, &a, &[0.0; 10], &opts).unwrap();
            assert!(!cg.residual_history.is_empty(), "threads={threads}");
            assert_eq!(cg.final_residual(), 0.0, "threads={threads}");
            let bi = bicgstab_on(&team, &a, &[0.0; 10], &opts).unwrap();
            assert!(!bi.residual_history.is_empty(), "threads={threads}");
            assert_eq!(bi.final_residual(), 0.0, "threads={threads}");
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = laplacian(5);
        let err = conjugate_gradient_on(&Team::new(1), &a, &[1.0; 4], &SolveOptions::default())
            .unwrap_err();
        assert_eq!(err, SolverError::DimensionMismatch);
        let err = bicgstab_on(&Team::new(1), &a, &[1.0; 6], &SolveOptions::default()).unwrap_err();
        assert_eq!(err, SolverError::DimensionMismatch);
    }

    #[test]
    fn iteration_limit_reports_not_converged() {
        let a = laplacian(200);
        let b = rhs(200);
        let opts = SolveOptions { max_iterations: 2, tolerance: 1e-14 };
        match conjugate_gradient_on(&Team::new(1), &a, &b, &opts) {
            Err(SolverError::NotConverged { final_residual }) => {
                assert!(final_residual > 0.0);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn residual_history_is_monotone_enough_for_cg() {
        // CG residuals can oscillate slightly in finite precision, but the
        // last residual must be the smallest for an SPD system.
        let a = laplacian(40);
        let b = rhs(40);
        let out = conjugate_gradient_on(&Team::new(1), &a, &b, &SolveOptions::default()).unwrap();
        let last = out.final_residual();
        assert!(out.residual_history.iter().all(|&r| r >= last - 1e-15));
    }

    /// A NaN-poisoned right-hand side must be rejected with a structured
    /// `NonFinite` error at iteration 0 — never iterated on.
    #[test]
    fn nan_rhs_is_rejected_not_iterated() {
        let a = laplacian(20);
        let mut b = rhs(20);
        b[7] = f64::NAN;
        let opts = SolveOptions::default();
        for threads in [1usize, 2] {
            let team = Team::new(threads);
            match conjugate_gradient_on(&team, &a, &b, &opts) {
                Err(SolverError::NonFinite { iteration: 0, residual }) => {
                    assert!(residual.is_nan(), "threads={threads}");
                }
                other => panic!("expected NonFinite at iteration 0, got {other:?}"),
            }
            match bicgstab_on(&team, &a, &b, &opts) {
                Err(SolverError::NonFinite { iteration: 0, .. }) => {}
                other => panic!("expected NonFinite at iteration 0, got {other:?}"),
            }
        }
        // An Inf entry trips the same guard.
        let mut b = rhs(20);
        b[0] = f64::INFINITY;
        assert!(matches!(
            conjugate_gradient_on(&Team::new(1), &a, &b, &SolveOptions::default()),
            Err(SolverError::NonFinite { iteration: 0, .. })
        ));
    }

    /// Breakdown errors carry the failing iteration and a residual snapshot.
    #[test]
    fn breakdown_reports_kind_iteration_and_residual() {
        let err = SolverError::breakdown(BreakdownKind::RhoVanished, 5, &[1.0, 0.25]);
        assert_eq!(
            err,
            SolverError::Breakdown {
                kind: BreakdownKind::RhoVanished,
                iteration: 5,
                residual: 0.25
            }
        );
        assert!(err.is_breakdown());
        assert_eq!(err.residual(), Some(0.25));
        let msg = err.to_string();
        assert!(msg.contains("iteration 5"), "{msg}");
        assert!(msg.contains("rho"), "{msg}");
        // No history yet: the snapshot degrades to INFINITY, not a panic.
        let early = SolverError::breakdown(BreakdownKind::ZeroCurvature, 0, &[]);
        assert_eq!(early.residual(), Some(f64::INFINITY));
        assert!(SolverError::non_finite_scalar(3).is_non_finite());
    }

    /// The headline guarantee: solutions, iteration counts and residual
    /// histories on a shared team of 1, 2 or 4 threads are bitwise identical
    /// to a one-thread team's, which runs the serial kernels.
    #[test]
    fn solves_are_bitwise_reproducible_across_thread_counts() {
        let n = 5000; // above SERIAL_CUTOFF so the team paths really fork
        let a = convection(n);
        let b = rhs(n);
        let opts = SolveOptions { tolerance: 1e-9, ..Default::default() };

        let spd = spd_dominant(n);
        let cg_ref = conjugate_gradient_on(&Team::new(1), &spd, &b, &opts).unwrap();
        let bi_ref = bicgstab_on(&Team::new(1), &a, &b, &opts).unwrap();
        for threads in [1usize, 2, 4] {
            let team = Team::new(threads);
            let cg = conjugate_gradient_on(&team, &spd, &b, &opts).unwrap();
            assert_eq!(cg.iterations, cg_ref.iterations, "cg threads={threads}");
            assert_eq!(
                cg.residual_history.len(),
                cg_ref.residual_history.len(),
                "cg threads={threads}"
            );
            for (x, y) in cg_ref.residual_history.iter().zip(&cg.residual_history) {
                assert_eq!(x.to_bits(), y.to_bits(), "cg history threads={threads}");
            }
            for (x, y) in cg_ref.solution.iter().zip(&cg.solution) {
                assert_eq!(x.to_bits(), y.to_bits(), "cg solution threads={threads}");
            }

            let bi = bicgstab_on(&team, &a, &b, &opts).unwrap();
            assert_eq!(bi.iterations, bi_ref.iterations, "bicgstab threads={threads}");
            for (x, y) in bi_ref.residual_history.iter().zip(&bi.residual_history) {
                assert_eq!(x.to_bits(), y.to_bits(), "bicgstab history threads={threads}");
            }
            for (x, y) in bi_ref.solution.iter().zip(&bi.solution) {
                assert_eq!(x.to_bits(), y.to_bits(), "bicgstab solution threads={threads}");
            }
        }
    }

    /// A solve result flattened to exactly comparable parts (floats as bits,
    /// so NaN residuals compare too): `Ok` → solution, history, iterations;
    /// `Err` → the error's fields.
    fn result_bits(result: &Result<SolveOutcome, SolverError>) -> (String, Vec<u64>, usize) {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        match result {
            Ok(out) => {
                let mut all = bits(&out.solution);
                all.extend(bits(&out.residual_history));
                (format!("ok, history of {}", out.residual_history.len()), all, out.iterations)
            }
            Err(SolverError::NotConverged { final_residual }) => {
                ("not converged".into(), bits(&[*final_residual]), 0)
            }
            Err(SolverError::Breakdown { kind, iteration, residual }) => {
                (format!("{kind:?}"), bits(&[*residual]), *iteration)
            }
            Err(SolverError::NonFinite { iteration, residual }) => {
                ("non-finite".into(), bits(&[*residual]), *iteration)
            }
            Err(SolverError::DimensionMismatch) => ("dimension mismatch".into(), vec![], 0),
        }
    }

    fn breakdown_kind(
        result: &Result<SolveOutcome, SolverError>,
    ) -> Option<(BreakdownKind, usize)> {
        match result {
            Err(SolverError::Breakdown { kind, iteration, .. }) => Some((*kind, *iteration)),
            _ => None,
        }
    }

    type Outcomes = [Result<SolveOutcome, SolverError>; 3];

    /// One row of the BiCGSTAB contract table: a system, three right-hand
    /// sides, and a check that the row really exercises what its name says.
    struct Case {
        name: &'static str,
        matrix: CsrMatrix,
        b: [Vec<f64>; 3],
        options: SolveOptions,
        exercises: fn(&Outcomes) -> bool,
    }

    /// The BiCGSTAB contract, one table: for every way a column can end —
    /// and threads ∈ {1, 2, 3} — column `c` of the three-wide solve, the
    /// one-wide solve of column `c` and the plain-loop oracle agree on
    /// solution, iteration count, full residual history and error, to the bit.
    #[test]
    fn bicgstab_columns_match_single_solves_and_the_oracle_bitwise() {
        let rough = |n: usize| -> [Vec<f64>; 3] {
            [
                rhs(n),
                (0..n).map(|i| (i as f64 * 0.37).sin() * 2.0).collect(),
                (0..n).map(|i| ((i * 13 + 1) % 17) as f64 / 1.7 - 4.0).collect(),
            ]
        };
        let unit = |n: usize, i: usize| -> Vec<f64> {
            let mut e = vec![0.0; n];
            e[i] = 1.0;
            e
        };
        let dense = |rows: &[&[f64]]| {
            CsrMatrix::from_dense(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
        };
        let all_ok = |o: &Outcomes| o.iter().all(Result::is_ok);
        let defaults = SolveOptions::default();
        // `convection(n)` with node 0 cut off from the rest: e₀ is then an
        // eigenvector of A·D⁻¹, so its solve ends in the first half step.
        let decoupled = {
            let conv = convection(40);
            let mut rows: Vec<Vec<f64>> =
                (0..40).map(|i| (0..40).map(|j| conv.get(i, j)).collect()).collect();
            rows[0][1] = 0.0;
            rows[1][0] = 0.0;
            CsrMatrix::from_dense(&rows)
        };
        let with_column = |mut b: [Vec<f64>; 3], c: usize, column: Vec<f64>| {
            b[c] = column;
            b
        };
        let mut poisoned = rhs(300);
        poisoned[17] = f64::NAN;

        let cases = [
            Case {
                name: "converges (rows above SERIAL_CUTOFF, teams really fork)",
                matrix: convection(3000),
                b: rough(3000),
                options: SolveOptions { tolerance: 1e-9, ..defaults },
                exercises: all_ok,
            },
            Case {
                name: "staggered convergence",
                matrix: convection(400),
                b: with_column(rough(400), 1, unit(400, 200)),
                options: defaults,
                exercises: |o| {
                    let iters: Vec<usize> =
                        o.iter().map(|r| r.as_ref().unwrap().iterations).collect();
                    iters.iter().any(|&i| i != iters[0])
                },
            },
            Case {
                name: "half-step convergence of one column",
                matrix: decoupled,
                b: with_column(rough(40), 1, unit(40, 0)),
                options: defaults,
                exercises: |o| {
                    let early = o[1].as_ref().unwrap();
                    // One iteration, closed by the half step: `s` vanished
                    // exactly, which the full step's `r` cannot.
                    early.iterations == 1
                        && early.residual_history == [1.0, 0.0]
                        && o[0].as_ref().unwrap().iterations > 1
                        && o[2].as_ref().unwrap().iterations > 1
                },
            },
            Case {
                name: "zero RHS column",
                matrix: convection(50),
                b: [vec![1.0; 50], vec![0.0; 50], vec![1.0; 50]],
                options: defaults,
                exercises: |o| {
                    let zero = o[1].as_ref().unwrap();
                    zero.iterations == 0
                        && zero.final_residual() == 0.0
                        && zero.solution == vec![0.0; 50]
                        && o[0].as_ref().unwrap().final_residual() < 1e-9
                },
            },
            Case {
                name: "NaN RHS column",
                matrix: convection(300),
                b: with_column(rough(300), 0, poisoned),
                options: defaults,
                exercises: |o| {
                    matches!(o[0], Err(SolverError::NonFinite { iteration: 0, .. }))
                        && o[1].is_ok()
                        && o[2].is_ok()
                },
            },
            Case {
                // Row 0 has no off-diagonal entry, so with b = e₀ the first
                // iteration leaves r[0] = 0 exactly and ρ = (r₀, r) vanishes.
                name: "RhoVanished",
                matrix: dense(&[&[2.0, 0.0, 0.0], &[1.0, 3.0, 1.0], &[1.0, -1.0, 2.0]]),
                b: [unit(3, 0), vec![1.0, 2.0, 3.0], vec![-1.0, 0.5, 2.0]],
                options: defaults,
                exercises: |o| breakdown_kind(&o[0]) == Some((BreakdownKind::RhoVanished, 1)),
            },
            Case {
                // A rotation: (r₀, A·r₀) = 0 for every r₀.
                name: "ShadowDegenerate",
                matrix: dense(&[&[0.0, 1.0], &[-1.0, 0.0]]),
                b: [unit(2, 0), vec![1.0, 1.0], vec![0.0, -2.0]],
                options: defaults,
                exercises: |o| {
                    o.iter()
                        .all(|r| breakdown_kind(r) == Some((BreakdownKind::ShadowDegenerate, 0)))
                },
            },
            Case {
                // Singular: s = (0, -1) is in the null space, so t = A·ŝ = 0.
                name: "StagnantStabilizer",
                matrix: dense(&[&[1.0, 0.0], &[1.0, 0.0]]),
                b: [unit(2, 0), vec![2.0, 0.0], vec![1.0, 1.0]],
                options: defaults,
                exercises: |o| {
                    breakdown_kind(&o[0]) == Some((BreakdownKind::StagnantStabilizer, 0))
                },
            },
            Case {
                // t ⟂ s at the first iteration, so ω = 0 with r = s ≠ 0.
                name: "OmegaVanished",
                matrix: dense(&[&[1.0, 1.0], &[1.0, 0.0]]),
                b: [unit(2, 0), vec![1.0, 2.0], vec![3.0, -1.0]],
                options: defaults,
                exercises: |o| breakdown_kind(&o[0]) == Some((BreakdownKind::OmegaVanished, 0)),
            },
            Case {
                name: "iteration limit",
                matrix: convection(200),
                b: rough(200),
                options: SolveOptions { max_iterations: 2, tolerance: 1e-14 },
                exercises: |o| o.iter().all(|r| matches!(r, Err(SolverError::NotConverged { .. }))),
            },
            Case {
                name: "dimension mismatch",
                matrix: convection(5),
                b: rough(4),
                options: defaults,
                exercises: |o| o.iter().all(|r| r == &Err(SolverError::DimensionMismatch)),
            },
        ];

        for case in &cases {
            let Case { name, matrix, b, options, exercises } = case;
            let expect: Outcomes =
                std::array::from_fn(|c| oracle::bicgstab(matrix, &b[c], options));
            assert!(
                exercises(&expect),
                "{name}: the row does not exercise its subject: {expect:?}"
            );
            let b3 = MultiVector::from_columns([&b[0], &b[1], &b[2]]);
            for threads in [1usize, 2, 3] {
                let team = Team::new(threads);
                let wide = bicgstab3_on(&team, matrix, &b3, options);
                for c in 0..3 {
                    let what = format!("{name}, threads={threads}, column {c}");
                    let single = bicgstab_on(&team, matrix, &b[c], options);
                    assert_eq!(result_bits(&single), result_bits(&expect[c]), "{what}: W = 1");
                    assert_eq!(result_bits(&wide[c]), result_bits(&expect[c]), "{what}: W = 3");
                }
            }
        }
    }
}
