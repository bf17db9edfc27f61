//! The Chorin fractional-step time integrator.
//!
//! One [`Stepper::step_on`] call advances the state through the three
//! sub-steps of a pressure-projection scheme, all on **one** shared
//! [`Team`]:
//!
//! 1. **Predictor** — the semi-implicit momentum system
//!    `(ν·K + C(u) + (ρ/Δt)·M)·Δu = −(ν·K + C(u))·u − g(p)`, assembled by
//!    [`lv_kernel::assemble_momentum_on`] from only what the velocity
//!    changes, in this order: the matrix is seeded with `ν·K` (the
//!    stiffness [`lv_kernel::PressureOperators`] holds from set-up — the
//!    un-pinned pressure Laplacian); the colored parallel sweep — chunks of
//!    consecutive elements, colored against each other — adds the
//!    convection matrices `C(u)` and nothing else (the mini-app's phases 2
//!    and 5, a velocity-only phase 4, a phase 6 that integrates the matrix
//!    in reference space from the inverse Jacobians held since set-up in a
//!    [`lv_kernel::ConvectiveGeometry`], a matrix-only scatter; no phase 1,
//!    3 or 7); one row pass takes the right-hand side off the finished
//!    matrix, the weak pressure gradient `−∫ N_a ∂p/∂x_i` of the current
//!    pressure included; then `(ρ/Δt)·M` (the consistent mass, also held
//!    from set-up) is added — after the right-hand side, so `M·u` is never
//!    formed.  Nothing is cached across steps or keyed on Δt.  Then
//!    Dirichlet rows, and the batched (three-column) pooled BiCGSTAB
//!    momentum solve for the velocity increment → `u*`.  The matrix is born
//!    where it is solved: every element of the mesh's lattice puts its
//!    nodes at the same offsets from its first node, so the matrix lives on
//!    at most 27 block-major diagonals ([`MomentumStorage::Dia`]), which the
//!    seed, the sweep's scatter, the right-hand side and mass pass, the
//!    Dirichlet rows and the solve all use, with no CSR copy anywhere.
//! 2. **Pressure Poisson** — `L φ = −(ρ/Δt) d(u*)` with the mesh-true
//!    Laplacian assembled by [`lv_kernel::PressureOperators`] (symmetrically
//!    pinned per scenario), solved with pooled CG — preconditioned by the
//!    geometric-multigrid V-cycle whenever
//!    [`lv_kernel::build_pressure_multigrid`] finds a hierarchy for the mesh
//!    (a structured box lattice), plain Jacobi-preconditioned CG otherwise;
//!    the mesh decides, [`Stepper::multigrid_levels`] reports it.  Every
//!    CG — MG-CG, its in-step plain-CG fallback, and plain CG where the
//!    lattice has no hierarchy — iterates on one operator, the pinned
//!    Laplacian on its level-0 diagonals; no CSR copy is kept.
//! 3. **Correction** — `u ← u* − (Δt/ρ) M⁻¹ g(φ)` with the lumped-mass
//!    nodal gradient, re-imposition of the scenario's velocity BCs, and the
//!    incremental pressure update `p ← p + φ`.
//!
//! The weak gradient and divergence of all three read their coefficients
//! from position-class stencils on an unjittered box and per stored entry
//! on a jittered one ([`lv_kernel::GradientStorage`]); the lattice decides,
//! [`Stepper::describe_operators`] names it.
//!
//! A stepper runs on a mesh that carries its box lattice
//! ([`Mesh::lattice`], attached by the generators of
//! [`Scenario::build_mesh`]); it refuses a mesh built from raw arrays or
//! renumbered.
//!
//! The step ends with the kinetic energy `½ρ·uᵀ·M·u` through the resident
//! mass (one team pass over the diagonals `M` is held on;
//! [`Stepper::kinetic_energy`] stays the element quadrature, equal to
//! rounding).
//!
//! Every kernel in the chain (the colored assembly sweep, the row-partitioned
//! projection operators, pooled Krylov, fixed-order diagnostics) is bitwise
//! reproducible across thread counts, so a whole trajectory is **bitwise
//! identical for threads ∈ {1, 2, 4, …}** — which is
//! also what makes checkpoint/restart exactly resumable: the state is
//! `(step, time, velocity, pressure)` and the step map is a pure function
//! of it.
//!
//! Δt is either fixed ([`StepperConfig::fixed_dt`]) or CFL-adaptive
//! (`Δt = clamp(CFL·h/‖u‖_∞, DT_MIN, DT_MAX)`), recomputed from the state
//! at the start of every step — deterministic, and therefore restart-safe
//! without storing it.
//!
//! A stepper is two parts.  The [`Discretization`] is what is a pure
//! function of the scenario and the `VECTOR_SIZE` — the mesh, the assembly
//! with its topology, colouring and chunks, the convective geometry, the
//! projection operators, the pinned Laplacian's level-0 diagonals and the
//! multigrid hierarchy, the pins and `h` — and no step writes it: Δt goes
//! to the sweep as an argument.  The rest is the run's own: the state, the
//! momentum matrix and right-hand sides, the work buffers, the fault plan,
//! the stall detector and the V-cycle's vectors (a clone of the shared
//! [`GeometricMultigrid`], which shares its levels).  [`Stepper::new`],
//! [`Stepper::with_mesh`] and [`Stepper::from_state`] build a
//! discretization of their own; [`Stepper::from_shared`] — which they call
//! — runs on a shared one, so a service builds each (scenario, size) once
//! and every job on it runs the same operators, bit for bit.

use crate::fault::{FaultKind, FaultPlan};
use crate::scenario::Scenario;
use lv_kernel::{
    assemble_momentum_on, build_pressure_multigrid, solve_momentum_on, weak_divergence_vector_norm,
    ConvectiveGeometry, ElementWorkspace, KernelConfig, NastinAssembly, NoHierarchy, OptLevel,
    PressureOperators,
};
use lv_mesh::{Field, Mesh, VectorField};
use lv_runtime::Team;
use lv_solver::{
    conjugate_gradient_on, first_non_finite, mg_preconditioned_cg_on, BreakdownKind, DiaMatrix,
    GeometricMultigrid, MultigridOptions, SolveOptions, SolverError,
};
use lv_trace::{counters, spans, Event};
use std::sync::Arc;
use std::time::Instant;

/// Number of spatial dimensions (velocity components per node).
const NDIME: usize = lv_kernel::NDIME;

/// How a step's momentum matrix is stored, assembled and solved on — a
/// property of the mesh's lattice, see [`Stepper::momentum_storage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MomentumStorage {
    /// Block-major diagonals ([`lv_solver::DiaMatrix`]), assembled in
    /// place every step: every element of a box lattice in generator order
    /// puts its nodes at the same offsets from its first node, so its
    /// entries lie on at most 27 distinct `col − row` offsets, jittered or
    /// not.
    Dia {
        /// Distinct offsets of the pattern.
        diagonals: usize,
    },
}

impl std::fmt::Display for MomentumStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MomentumStorage::Dia { diagonals } => write!(f, "dia ({diagonals} diagonals)"),
        }
    }
}

/// Courant number of the adaptive time step: `Δt = CFL·h/‖u‖_∞`, clamped
/// to `[DT_MIN, DT_MAX]`.
const CFL: f64 = 0.4;

/// Lower Δt clamp of the CFL controller.
const DT_MIN: f64 = 1e-4;

/// Upper Δt clamp of the CFL controller.
const DT_MAX: f64 = 0.1;

/// Projection sweeps per step.  Each sweep solves one Poisson system and
/// applies one lumped-mass correction; because the correction is an
/// *approximate* projection (the FE Laplacian `L` is a consistent but not
/// exact stand-in for the discrete composition `D·M⁻¹·G`), the sweeps act as
/// Richardson iterations on the divergence constraint, contracting the weak
/// divergence by ~2× each.  1 is the classic scheme; 3 drives the
/// predictor's discrete divergence down by an order of magnitude.
const PROJECTION_SWEEPS: usize = 3;

/// Configuration of a [`Stepper`] run.
#[derive(Debug, Clone)]
pub struct StepperConfig {
    /// `VECTOR_SIZE` of the assembly and projection sweeps.
    pub vector_size: usize,
    /// Options of the momentum BiCGSTAB solve.  The default stops at a 1e-6
    /// relative residual (2000 iterations at most): the solve is for the
    /// velocity increment `Δu` from a zero guess, so a 1e-6 residual on it
    /// sits far below the step's O(Δt) error (~2.3e-3 on Taylor–Green at
    /// Δt = 0.01).  Solving on to 1e-10 takes ~1.7× the Krylov iterations
    /// of a step and moves no digit the step resolves.
    pub momentum_options: SolveOptions,
    /// Options of the pressure-Poisson CG solve of every projection sweep.
    /// The default stops at a 1e-6 relative residual (4000 iterations at
    /// most), for the same reason: the solve is for the pressure increment
    /// `φ` from a zero guess.
    pub poisson_options: SolveOptions,
    /// A fixed time step; `None` (the default) runs the CFL controller.
    pub fixed_dt: Option<f64>,
    /// Δt-backoff retry budget of [`Stepper::step_recovering_on`]: how many
    /// times a failed step may be rolled back and retried with Δt halved
    /// before the run surfaces a [`RunError`].
    pub max_dt_retries: usize,
    /// Deterministic fault schedule for testing the recovery paths
    /// (`None` in production runs).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for StepperConfig {
    fn default() -> Self {
        StepperConfig {
            vector_size: 128,
            momentum_options: SolveOptions { max_iterations: 2000, tolerance: 1e-6 },
            poisson_options: SolveOptions { max_iterations: 4000, tolerance: 1e-6 },
            fixed_dt: None,
            max_dt_retries: 3,
            fault_plan: None,
        }
    }
}

impl StepperConfig {
    /// Builder: fixed time step (disables the CFL controller).
    pub fn with_fixed_dt(mut self, dt: f64) -> Self {
        assert!(dt.is_finite() && dt > 0.0, "time step must be positive and finite");
        self.fixed_dt = Some(dt);
        self
    }

    /// Builder: `VECTOR_SIZE` of the sweeps.
    pub fn with_vector_size(mut self, vector_size: usize) -> Self {
        assert!(vector_size > 0, "VECTOR_SIZE must be positive");
        self.vector_size = vector_size;
        self
    }

    /// Builder: Δt-backoff retry budget of the recovering step loop.
    pub fn with_max_dt_retries(mut self, retries: usize) -> Self {
        self.max_dt_retries = retries;
        self
    }

    /// Builder: deterministic fault schedule (testing only).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// Steps on a residual plateau before the convergence-stall detector fires
/// (see [`Stepper::slow_convergence_events`]).
const STALL_WINDOW: usize = 8;

/// A step counts toward a plateau when its `max(momentum, poisson)`
/// residual exceeds this multiple of the larger solver tolerance (1e-5 at
/// the default tolerances).  Healthy runs converge *to* the tolerance, so
/// they never plateau above it.
const STALL_FACTOR: f64 = 10.0;

/// The convergence-stall detector: the residuals of the last `window`
/// successful steps, and how often a plateau above `threshold` fired.
/// Diagnostic only — never part of [`SimState`], never steers the run.
#[derive(Debug)]
struct StallDetector {
    window: usize,
    threshold: f64,
    residuals: std::collections::VecDeque<f64>,
    events: u64,
}

impl StallDetector {
    fn new(window: usize, threshold: f64) -> Self {
        assert!(window > 0, "the stall window needs at least one step");
        StallDetector { window, threshold, residuals: Default::default(), events: 0 }
    }

    /// Feeds one successful step's residual.  Returns whether a plateau
    /// fired (the window is then cleared, so the next event needs a fresh
    /// plateau).
    fn observe(&mut self, residual: f64) -> bool {
        self.residuals.push_back(residual);
        while self.residuals.len() > self.window {
            self.residuals.pop_front();
        }
        if self.residuals.len() < self.window {
            return false;
        }
        let oldest = *self.residuals.front().expect("window is full");
        let newest = *self.residuals.back().expect("window is full");
        // A plateau: every step in the window sits above the threshold and
        // the newest residual has not even halved against the oldest.
        let plateau = self.residuals.iter().all(|&r| r > self.threshold) && newest * 2.0 > oldest;
        if plateau {
            self.events += 1;
            self.residuals.clear();
        }
        plateau
    }
}

/// The complete simulation state: everything a checkpoint stores and a
/// restart needs.
#[derive(Debug, Clone)]
pub struct SimState {
    /// Completed steps.
    pub step: u64,
    /// Simulation time.
    pub time: f64,
    /// Nodal velocity.
    pub velocity: VectorField,
    /// Nodal pressure.
    pub pressure: Field,
}

/// Wall-clock of one step.  Where the time went inside the step is the
/// `driver/*` spans' to tell, on a traced team.
#[derive(Debug, Clone, Copy)]
pub struct StepTimings {
    total: f64,
}

impl StepTimings {
    /// The step's measured wall-clock, in seconds.
    pub fn total(&self) -> f64 {
        self.total
    }
}

/// Diagnostics and timings of one completed step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Step index after the step (1-based).
    pub step: u64,
    /// Simulation time after the step.
    pub time: f64,
    /// Δt used by the step.
    pub dt: f64,
    /// Total momentum (BiCGSTAB) iterations across the three components.
    pub momentum_iterations: usize,
    /// Worst final relative residual of the momentum components.
    pub momentum_residual: f64,
    /// Total pressure-Poisson CG iterations across the projection sweeps.
    pub poisson_iterations: usize,
    /// Worst final relative residual of the Poisson solves.
    pub poisson_residual: f64,
    /// Discrete divergence `‖d(u*)‖₂` of the predictor velocity (the weak
    /// divergence vector `d_a = ∫ N_a ∇·u` the projection drives to zero).
    pub divergence_pre: f64,
    /// Discrete divergence `‖d(u)‖₂` after the projection correction.
    pub divergence_post: f64,
    /// Kinetic energy `½ρ∫|u|²` after the step, as `½ρ·uᵀ·M·u` with the
    /// consistent mass ([`PressureOperators::kinetic_energy_on`]: bitwise
    /// equal across thread counts, equal to the quadrature of
    /// [`Stepper::kinetic_energy`] to rounding).
    pub kinetic_energy: f64,
    /// How many failed attempts preceded this step (Δt-backoff rollbacks of
    /// [`Stepper::step_recovering_on`]; always 0 on the plain
    /// [`Stepper::step_on`] path).
    pub retries: usize,
    /// How many projection sweeps fell back from MG-CG to plain CG after an
    /// MG-preconditioned breakdown.
    pub poisson_fallbacks: usize,
    /// Wall-clock of the step.
    pub timings: StepTimings,
}

/// Why a step failed.
#[derive(Debug, Clone, PartialEq)]
pub enum StepError {
    /// The momentum (predictor) solve failed.
    Momentum(SolverError),
    /// The pressure-Poisson solve failed.
    Poisson(SolverError),
    /// The CFL controller rejected its inputs: a non-finite `‖u‖_∞` or a
    /// non-finite/non-positive Δt candidate (never a silent NaN Δt).
    InvalidDt {
        /// The `‖u‖_∞` the controller saw (NaN when the velocity field
        /// contains a non-finite entry).
        umax: f64,
        /// The rejected Δt candidate.
        dt: f64,
    },
    /// The corrected velocity contains a non-finite entry — the trajectory
    /// blew up even though every solve nominally converged.
    NonFiniteVelocity {
        /// First offending index in the interleaved velocity values.
        index: usize,
    },
}

impl StepError {
    /// The phase of the fractional step that failed (`cfl` / `momentum` /
    /// `poisson` / `correction`), for diagnostics.
    pub fn phase(&self) -> &'static str {
        match self {
            StepError::Momentum(_) => "momentum",
            StepError::Poisson(_) => "poisson",
            StepError::InvalidDt { .. } => "cfl",
            StepError::NonFiniteVelocity { .. } => "correction",
        }
    }

    /// The last solver residual at failure, when a solver failed.
    pub fn residual(&self) -> Option<f64> {
        match self {
            StepError::Momentum(e) | StepError::Poisson(e) => e.residual(),
            _ => None,
        }
    }
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Momentum(e) => write!(f, "momentum solve failed: {e}"),
            StepError::Poisson(e) => write!(f, "pressure-Poisson solve failed: {e}"),
            StepError::InvalidDt { umax, dt } => write!(
                f,
                "CFL controller rejected the step: ‖u‖_∞ = {umax:e}, Δt candidate = {dt:e}"
            ),
            StepError::NonFiniteVelocity { index } => {
                write!(f, "velocity entry {index} is non-finite after the correction")
            }
        }
    }
}

impl std::error::Error for StepError {}

/// A run that could not be completed: the retry budget of
/// [`Stepper::step_recovering_on`] is exhausted (or recovery is disabled)
/// and the last attempt's failure is surfaced with its step context.
#[derive(Debug, Clone, PartialEq)]
pub struct RunError {
    /// 1-based index of the step that could not be completed.
    pub step: u64,
    /// Simulation time the run stalled at (the time *before* the failed
    /// step).
    pub time: f64,
    /// Attempts made on the step (1 + retries).
    pub attempts: usize,
    /// The failure of the final attempt.
    pub error: StepError,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {} failed in the {} phase after {} attempt(s) at t = {:.6}: {}",
            self.step,
            self.error.phase(),
            self.attempts,
            self.time,
            self.error
        )
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// What the pressure-Poisson solves of a stepper iterate on.
#[derive(Debug)]
struct PoissonSystem {
    /// The pinned Laplacian on its level-0 diagonals (the bits of the CSR
    /// matrix, half the traffic): the operator of every CG of the step —
    /// MG-CG's outer iteration, its in-step plain-CG fallback, and plain
    /// Jacobi-CG where the lattice has no hierarchy.  Shared with the
    /// hierarchy when there is one.
    fine: Arc<DiaMatrix>,
    /// The V-cycle hierarchy, or why the lattice has none.  A stepper runs
    /// its cycles on a clone: the levels shared, the vectors its own.
    multigrid: Result<GeometricMultigrid, NoHierarchy>,
}

/// The part of a stepper that is a pure function of the scenario and the
/// `VECTOR_SIZE`: the mesh and its assembly (topology, colouring, chunks),
/// the convective geometry, the projection operators (`K`, `M`, `C`), the
/// pinned Laplacian's level-0 diagonals with the multigrid hierarchy built
/// on them, the pressure pins and the characteristic length.  Nothing of
/// it changes once it is built — a step writes only the stepper's own
/// state, matrix and buffers — so steppers of any number of jobs on the
/// same (scenario, size) share one behind an [`Arc`]
/// ([`Stepper::from_shared`]) and run the operators an unshared stepper
/// runs, bit for bit.
#[derive(Debug)]
pub struct Discretization {
    scenario: Scenario,
    vector_size: usize,
    assembly: NastinAssembly,
    // What the convective sweep needs of the mesh — inverse Jacobians and
    // `gpvol` per chunk and integration point — integrated once: the mesh
    // does not move.
    geometry: ConvectiveGeometry,
    operators: PressureOperators,
    poisson: PoissonSystem,
    pins: Vec<usize>,
    h_char: f64,
}

impl Discretization {
    /// The discretization of `scenario` on its own mesh
    /// ([`Scenario::build_mesh`]) at `vector_size`.
    pub fn new(scenario: Scenario, vector_size: usize) -> Self {
        let mesh = scenario.build_mesh();
        Self::with_mesh(scenario, vector_size, mesh)
    }

    /// The discretization of `scenario` on a caller-provided mesh with a
    /// box lattice (e.g. a jittered box — the scenario only supplies
    /// physics, BCs and pins).
    ///
    /// # Panics
    /// Panics if the mesh has no box lattice ([`Mesh::lattice`] is `None`:
    /// it was built from raw arrays or renumbered), or if `vector_size` is
    /// zero.
    pub fn with_mesh(scenario: Scenario, vector_size: usize, mesh: Mesh) -> Self {
        assert!(
            mesh.lattice().is_some(),
            "the mesh has no box lattice: a stepper runs on a generator box"
        );
        let kernel_config = KernelConfig::new(vector_size, OptLevel::Vec1)
            .with_viscosity(scenario.viscosity)
            .with_density(scenario.density);
        let h_char = mesh.characteristic_length();
        let pins = scenario.pressure_pins(&mesh);
        // One node graph (and slot map, if anything asks for it) for both
        // operator sets.
        let assembly = NastinAssembly::new(mesh, kernel_config);
        let mesh = assembly.mesh();
        let geometry = assembly.convective_geometry();
        let operators = PressureOperators::with_topology(mesh, assembly.topology().clone());
        let mut laplacian = operators.assemble_laplacian();
        laplacian.pin_rows_symmetric(&pins);
        debug_assert!(laplacian.is_symmetric(1e-12), "pinned pressure Laplacian must stay SPD");
        // The V-cycle hierarchy is a pure function of the mesh and the
        // pinned Laplacian, so a restarted stepper rebuilds it identically
        // (bitwise) and trajectories stay exactly resumable.
        let multigrid = build_pressure_multigrid(mesh, &laplacian, &MultigridOptions::default());
        // Every Poisson solve runs on the level-0 diagonals — the
        // hierarchy's own when there is one.  The CSR Laplacian is freed
        // here.
        let fine = match &multigrid {
            Ok(multigrid) => multigrid.fine_operator(),
            Err(_) => Arc::new(
                DiaMatrix::from_csr(&laplacian)
                    .expect("a lattice's Laplacian has 27 diagonals at most"),
            ),
        };
        drop(laplacian);
        Discretization {
            scenario,
            vector_size,
            assembly,
            geometry,
            operators,
            poisson: PoissonSystem { fine, multigrid },
            pins,
            h_char,
        }
    }

    /// The scenario this discretizes.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The mesh.
    pub fn mesh(&self) -> &Mesh {
        self.assembly.mesh()
    }

    /// The scenario's initial state on this mesh (step 0, time 0).
    pub fn initial_state(&self) -> SimState {
        let (velocity, pressure) = self.scenario.initial_state(self.mesh());
        SimState { step: 0, time: 0.0, velocity, pressure }
    }
}

/// The fractional-step simulation driver: a shared, immutable
/// [`Discretization`] plus what is the run's own — the evolving
/// [`SimState`], the momentum matrix and right-hand sides, the work
/// buffers, the V-cycle's vectors, the fault plan and the stall detector.
#[derive(Debug)]
pub struct Stepper {
    config: StepperConfig,
    shared: Arc<Discretization>,
    // The shared hierarchy with this stepper's own cycle vectors (`None`
    // where the lattice has no hierarchy).
    multigrid: Option<GeometricMultigrid>,
    // Transient Δt multiplier of the retry loop (0.5^attempt); 1.0 outside
    // a recovery.  Not part of SimState: a successful step resets it, so
    // trajectories remain a pure function of the state.
    dt_backoff: f64,
    // The stepper's own mutable copy of the configured fault schedule:
    // fired faults stay spent across the rollback/retry of a recovery
    // (the snapshot covers SimState only).  `checkpoint_on` fires its
    // checkpoint faults.
    pub(crate) fault_plan: Option<FaultPlan>,
    state: SimState,
    stall: StallDetector,
    matrix: DiaMatrix,
    rhs: Vec<f64>,
    div: Vec<f64>,
    poisson_rhs: Vec<f64>,
    workspaces: Vec<ElementWorkspace>,
}

impl Stepper {
    /// Builds a stepper for `scenario` from its initial state.
    pub fn new(scenario: Scenario, config: StepperConfig) -> Self {
        let mesh = scenario.build_mesh();
        Self::with_mesh(scenario, config, mesh)
    }

    /// Builds a stepper on a caller-provided mesh with a box lattice (e.g.
    /// a jittered box — the scenario only supplies physics, BCs and initial
    /// fields).
    ///
    /// # Panics
    /// Panics if the mesh has no box lattice ([`Mesh::lattice`] is `None`:
    /// it was built from raw arrays or renumbered).
    pub fn with_mesh(scenario: Scenario, config: StepperConfig, mesh: Mesh) -> Self {
        let (velocity, pressure) = scenario.initial_state(&mesh);
        let state = SimState { step: 0, time: 0.0, velocity, pressure };
        Self::from_state(scenario, config, mesh, state)
    }

    /// Builds a stepper resuming from an existing state (the restart path;
    /// see [`crate::checkpoint`]) on a discretization of its own.
    ///
    /// # Panics
    /// Panics if the mesh has no box lattice (see
    /// [`with_mesh`](Self::with_mesh)) or the state's field sizes do not
    /// match the mesh.
    pub fn from_state(
        scenario: Scenario,
        config: StepperConfig,
        mesh: Mesh,
        state: SimState,
    ) -> Self {
        let shared = Discretization::with_mesh(scenario, config.vector_size, mesh);
        Self::from_shared(Arc::new(shared), config, state)
    }

    /// Builds a stepper at `state` on a shared discretization: only the
    /// run's own part is allocated — the momentum matrix, the right-hand
    /// sides, the V-cycle's vectors — and the step runs the operators of
    /// `shared`, so the trajectory has the bits of one on a discretization
    /// of its own.  Δt is validated and applied per step
    /// ([`checked_next_dt`](Self::checked_next_dt)), so an invalid fixed
    /// Δt surfaces as [`StepError::InvalidDt`] at step time.
    ///
    /// # Panics
    /// Panics if `config.vector_size` is not the one `shared` was built at,
    /// or the state's field sizes do not match the mesh.
    pub fn from_shared(
        shared: Arc<Discretization>,
        config: StepperConfig,
        state: SimState,
    ) -> Self {
        assert_eq!(
            config.vector_size, shared.vector_size,
            "the discretization was built at another VECTOR_SIZE"
        );
        let n = shared.mesh().num_nodes();
        assert_eq!(state.velocity.num_nodes(), n, "restart velocity does not match the mesh");
        assert_eq!(state.pressure.len(), n, "restart pressure does not match the mesh");
        let multigrid = shared.poisson.multigrid.as_ref().ok().cloned();
        let matrix = shared.assembly.new_momentum_matrix();
        let fault_plan = config.fault_plan.clone();
        let tolerance = config.momentum_options.tolerance.max(config.poisson_options.tolerance);
        Stepper {
            config,
            shared,
            multigrid,
            dt_backoff: 1.0,
            fault_plan,
            state,
            stall: StallDetector::new(STALL_WINDOW, STALL_FACTOR * tolerance),
            matrix,
            rhs: vec![0.0; NDIME * n],
            div: vec![0.0; n],
            poisson_rhs: vec![0.0; n],
            workspaces: Vec::new(),
        }
    }

    /// The shared part this stepper runs on.
    pub fn discretization(&self) -> &Arc<Discretization> {
        &self.shared
    }

    /// The scenario this stepper runs.
    pub fn scenario(&self) -> &Scenario {
        &self.shared.scenario
    }

    /// The stepper configuration.
    pub fn config(&self) -> &StepperConfig {
        &self.config
    }

    /// The mesh.
    pub fn mesh(&self) -> &Mesh {
        self.shared.mesh()
    }

    /// The current simulation state.
    pub fn state(&self) -> &SimState {
        &self.state
    }

    /// The projection operators (for external diagnostics).
    pub fn operators(&self) -> &PressureOperators {
        &self.shared.operators
    }

    /// The storage the momentum matrix is assembled and solved in: the
    /// diagonals of the mesh's lattice, a property of the mesh, not a
    /// setting.
    pub fn momentum_storage(&self) -> MomentumStorage {
        MomentumStorage::Dia { diagonals: self.matrix.offsets().len() }
    }

    /// One line naming the assembly schedule and the operators this stepper
    /// runs and why — what the examples print before the first step, so
    /// neither fallback is silent.
    pub fn describe_operators(&self) -> String {
        let pressure = match &self.shared.poisson.multigrid {
            Ok(mg) => {
                let names = |storage: Vec<String>| storage.join(" | ");
                let levels = names(mg.level_storage().iter().map(ToString::to_string).collect());
                let transfers =
                    names(mg.transfer_storage().iter().map(ToString::to_string).collect());
                format!("mgcg ({} levels: {levels}; transfers: {transfers})", mg.num_levels())
            }
            Err(cause) => format!("cg (no multigrid hierarchy: {cause})"),
        };
        // `4 colours × 64 chunks` when every colour holds as many, the total
        // otherwise.
        let schedule = self.shared.assembly.colored_chunks();
        let (colours, chunks) = (schedule.num_colors(), schedule.num_chunks());
        let even = (0..colours).all(|c| schedule.color_chunks(c).len() * colours == chunks);
        let chunks = if even {
            format!("{colours} colours × {} chunks", chunks / colours.max(1))
        } else {
            format!("{colours} colours, {chunks} chunks")
        };
        let operators = &self.shared.operators;
        let momentum =
            format!("{}; K, M: {}", self.momentum_storage(), operators.stiffness_source());
        format!(
            "operators: assembly {chunks} | momentum {momentum} | gradient {} | pressure {pressure}",
            operators.gradient_storage()
        )
    }

    /// Rows per multigrid level (finest first) when the pressure solve is
    /// MG-CG — the mesh has a hierarchy — and `None` when it is plain CG.
    pub fn multigrid_levels(&self) -> Option<Vec<usize>> {
        self.multigrid.as_ref().map(GeometricMultigrid::level_rows)
    }

    /// The Δt the next step will use, given the current state — the
    /// validated [`Stepper::checked_next_dt`], or NaN when the controller
    /// rejects its inputs (a preview must stay infallible).
    pub fn next_dt(&self) -> f64 {
        self.checked_next_dt().unwrap_or(f64::NAN)
    }

    /// The validated Δt of the next step, including any active retry
    /// backoff.
    ///
    /// # Errors
    /// Returns [`StepError::InvalidDt`] when `‖u‖_∞` is non-finite (the
    /// naive `max`-fold would silently mask NaN entries — Rust's `f64::max`
    /// returns the non-NaN operand) or when the Δt candidate comes out
    /// non-finite or non-positive, instead of letting a poisoned Δt start
    /// a NaN trajectory.
    pub fn checked_next_dt(&self) -> Result<f64, StepError> {
        let base = match self.config.fixed_dt {
            Some(dt) => dt,
            None => {
                let umax = if first_non_finite(self.state.velocity.as_slice()).is_some() {
                    f64::NAN
                } else {
                    self.state.velocity.max_magnitude()
                };
                if !umax.is_finite() {
                    return Err(StepError::InvalidDt { umax, dt: f64::NAN });
                }
                (CFL * self.shared.h_char / umax.max(1e-9)).clamp(DT_MIN, DT_MAX)
            }
        };
        // The backoff halving happens *after* the CFL clamp so a retry's
        // smaller Δt is not clamped back up to DT_MIN..DT_MAX.
        let dt = base * self.dt_backoff;
        if !dt.is_finite() || dt <= 0.0 {
            return Err(StepError::InvalidDt { umax: self.state.velocity.max_magnitude(), dt });
        }
        Ok(dt)
    }

    /// Kinetic energy of the current state by element quadrature (serial) —
    /// the diagnostic and the oracle of [`StepReport::kinetic_energy`],
    /// which a step computes through the consistent mass instead.
    pub fn kinetic_energy(&self) -> f64 {
        self.operators().kinetic_energy(&self.state.velocity, self.scenario().density)
    }

    /// Continuous `‖∇·u‖_{L2}` of the current state (the pointwise
    /// divergence of the Q1 interpolant; see
    /// [`PressureOperators::weak_divergence_norm`] for the discrete measure
    /// the projection controls).
    pub fn divergence_norm(&self) -> f64 {
        self.operators().divergence_l2(&self.state.velocity)
    }

    /// Discrete divergence `‖d(u)‖₂` of the current state.
    pub fn weak_divergence_norm(&self) -> f64 {
        self.operators().weak_divergence_norm(&self.state.velocity)
    }

    /// Continuous L2 error against the scenario's analytic velocity at the
    /// current time, for scenarios that have one.
    pub fn analytic_velocity_error(&self) -> Option<f64> {
        let time = self.state.time;
        // Probe whether the scenario has an analytic solution at all.
        let scenario = self.scenario();
        scenario.analytic_velocity(lv_mesh::Vec3::ZERO, time)?;
        Some(self.operators().velocity_l2_error(&self.state.velocity, |p| {
            scenario.analytic_velocity(p, time).expect("analytic solution probed above").to_array()
        }))
    }

    fn ensure_workspaces(&mut self, threads: usize) {
        while self.workspaces.len() < threads {
            self.workspaces.push(ElementWorkspace::new(self.config.vector_size));
        }
    }

    /// Advances the state by one fractional step on the caller's team.
    ///
    /// # Errors
    /// Returns [`StepError`] if the momentum or Poisson solve fails to
    /// converge; the state is left unchanged in that case only up to the
    /// failed sub-step (a failed run should be abandoned, not resumed).
    pub fn step_on(&mut self, team: &Team) -> Result<StepReport, StepError> {
        let trace = team.trace();
        let step_start = Instant::now();
        let dt = self.checked_next_dt()?;
        // The shared part is read-only: Δt goes to the sweep as an argument.
        let shared = Arc::clone(&self.shared);
        let Discretization { scenario, assembly, geometry, operators, poisson, pins, .. } =
            &*shared;
        let rho = scenario.density;
        let t_new = self.state.time + dt;
        let step_index = self.state.step + 1;
        // Supervision faults fire before any state is touched and on the
        // leader only (no team barrier is pending here, so a panic unwinds
        // cleanly through `catch_unwind` instead of deadlocking workers).
        if let Some(plan) = &mut self.fault_plan {
            if plan.fire(FaultKind::Stall, step_index) {
                crate::fault::busy_stall();
            }
            if plan.fire(FaultKind::Panic, step_index) {
                panic!("injected worker panic at step {step_index}");
            }
        }
        self.ensure_workspaces(team.num_threads());
        // Dropped (early-return) step spans record with iters = 0 — a failed
        // attempt; a completed step finishes with iters = 1.
        let step_span = trace.map(|t| t.span(spans::STEP, 0).aux(step_index));

        // --- 1. predictor: assemble + pressure force + Dirichlet ---------
        let phase = trace.map(|t| t.span(spans::ASSEMBLY, 0));
        // ν·K, the convective-only sweep, the right-hand side as a product
        // of the finished matrix (−∇p force included), (ρ/Δt)·M — in place,
        // in the storage the solve reads.
        assemble_momentum_on(
            team,
            assembly,
            geometry,
            operators,
            dt,
            &self.state.velocity,
            &self.state.pressure,
            &mut self.matrix,
            &mut self.rhs,
            &mut self.workspaces,
        );
        assembly.apply_dirichlet(&mut self.matrix, &mut self.rhs);
        if let Some(s) = phase {
            // The sweep reports its own model on `assembly/color_sweep`;
            // this span carries the global passes around it.
            s.iters(1)
                .flops(operators.momentum_pass_flops())
                .bytes(operators.momentum_pass_bytes())
                .finish();
        }

        // --- momentum solve → u* ------------------------------------------
        if let Some(plan) = &mut self.fault_plan {
            if plan.fire(FaultKind::PoisonRhs, step_index) {
                // A deterministic (seed, step)-derived entry turns NaN: the
                // solver's non-finite entry guards must catch it before a
                // single Krylov iteration runs.
                let at = plan.index(step_index, 0, self.rhs.len());
                self.rhs[at] = f64::NAN;
            }
            if plan.fire(FaultKind::MomentumBreakdown, step_index) {
                return Err(StepError::Momentum(SolverError::Breakdown {
                    kind: BreakdownKind::Injected,
                    iteration: 0,
                    residual: f64::INFINITY,
                }));
            }
        }
        let phase = trace.map(|t| t.span(spans::MOMENTUM, 0));
        let solve = solve_momentum_on(team, &self.matrix, &self.rhs, &self.config.momentum_options)
            .map_err(StepError::Momentum)?;
        for (v, d) in self.state.velocity.as_mut_slice().iter_mut().zip(&solve.increment) {
            *v += d;
        }
        scenario.apply_velocity_bcs(assembly.mesh(), &mut self.state.velocity, t_new);
        if let Some(s) = phase {
            s.iters(solve.total_iterations() as u64).aux(solve.worst_residual.to_bits()).finish();
        }

        // --- 2+3. projection sweeps: Poisson solve + correction -----------
        let mut poisson_iterations = 0;
        let mut poisson_residual = 0.0f64;
        let mut poisson_fallbacks = 0usize;
        let mut divergence_pre = 0.0f64;
        let scale = -rho / dt;
        let correction = dt / rho;
        for sweep in 0..PROJECTION_SWEEPS {
            let phase = trace.map(|t| t.span(spans::POISSON, 0));
            operators.poisson_rhs_on(
                team,
                &self.state.velocity,
                scale,
                &mut self.div,
                &mut self.poisson_rhs,
            );
            if sweep == 0 {
                // ‖d(u*)‖₂ of the raw predictor field, read off the first
                // sweep's divergence vector — no extra sweep over the mesh.
                divergence_pre = weak_divergence_vector_norm(&self.div);
            }
            for &pin in pins {
                self.poisson_rhs[pin] = 0.0;
            }
            let mut inject_mg = false;
            if let Some(plan) = &mut self.fault_plan {
                if plan.fire(FaultKind::PoissonBreakdown, step_index) {
                    // Fails the whole step (past the CG fallback): the
                    // Δt-backoff retry is the recovery under test.
                    return Err(StepError::Poisson(SolverError::Breakdown {
                        kind: BreakdownKind::Injected,
                        iteration: 0,
                        residual: f64::INFINITY,
                    }));
                }
                inject_mg = plan.fire(FaultKind::MultigridBreakdown, step_index);
            }
            // The fallback chain: an MG-preconditioned breakdown (a rank-
            // deficient coarse correction, an injected fault, ...) demotes
            // this sweep to plain Jacobi-CG on the identical system instead
            // of failing the step.  Only a plain-CG failure is terminal.
            // Both solvers iterate on one operator, the level-0 diagonals.
            let operator = &*poisson.fine;
            let mg_attempt = match &mut self.multigrid {
                Some(_) if inject_mg => Some(Err(SolverError::Breakdown {
                    kind: BreakdownKind::Injected,
                    iteration: 0,
                    residual: f64::INFINITY,
                })),
                Some(mg) => Some(mg_preconditioned_cg_on(
                    team,
                    operator,
                    mg,
                    &self.poisson_rhs,
                    &self.config.poisson_options,
                )),
                None => None,
            };
            let plain_cg = || {
                conjugate_gradient_on(
                    team,
                    operator,
                    &self.poisson_rhs,
                    &self.config.poisson_options,
                )
                .map_err(StepError::Poisson)
            };
            let phi = match mg_attempt {
                Some(Ok(phi)) => phi,
                Some(Err(_)) => {
                    poisson_fallbacks += 1;
                    if let Some(t) = trace {
                        t.record(Event {
                            aux: sweep as u64,
                            ..Event::instant(spans::POISSON_FALLBACK, 0, t.now_ns())
                        });
                        t.add(counters::POISSON_FALLBACKS, 1);
                    }
                    plain_cg()?
                }
                None => plain_cg()?,
            };
            poisson_iterations += phi.iterations;
            poisson_residual = poisson_residual.max(phi.final_residual());
            if let Some(s) = phase {
                s.iters(phi.iterations as u64).aux(phi.final_residual().to_bits()).finish();
            }

            let phase = trace.map(|t| t.span(spans::CORRECTION, 0));
            operators.correct_velocity_on(
                team,
                &phi.solution,
                correction,
                &mut self.state.velocity,
            );
            scenario.apply_velocity_bcs(assembly.mesh(), &mut self.state.velocity, t_new);
            for (p, f) in self.state.pressure.as_mut_slice().iter_mut().zip(&phi.solution) {
                *p += f;
            }
            if let Some(s) = phase {
                s.iters(1)
                    .aux(sweep as u64)
                    .flops(operators.gradient_flops())
                    .bytes(operators.streamed_bytes() as u64)
                    .finish();
            }
        }
        // Divergence blow-up guard: a step whose corrected velocity carries
        // a non-finite entry must fail structurally, never commit a NaN
        // state for the next step to trip over.
        if let Some(index) = first_non_finite(self.state.velocity.as_slice()) {
            return Err(StepError::NonFiniteVelocity { index });
        }
        operators.weak_divergence_on(team, &self.state.velocity, &mut self.div);
        let divergence_post = weak_divergence_vector_norm(&self.div);

        self.state.step += 1;
        self.state.time = t_new;
        let kinetic_energy = operators.kinetic_energy_on(team, &self.state.velocity, rho);
        // Convergence-stall detection: a pure function of the (bitwise
        // reproducible) residual history, so it fires at the same steps on
        // every thread count and never changes behaviour.
        let stalled = self.stall.observe(solve.worst_residual.max(poisson_residual));
        if let Some(t) = trace {
            t.add(counters::STEPS, 1);
            t.add(counters::MOMENTUM_ITERATIONS, solve.total_iterations() as u64);
            t.add(counters::POISSON_ITERATIONS, poisson_iterations as u64);
            if stalled {
                t.add(counters::SLOW_CONVERGENCE, 1);
            }
        }
        if let Some(s) = step_span {
            s.iters(1).finish();
        }
        Ok(StepReport {
            step: self.state.step,
            time: self.state.time,
            dt,
            momentum_iterations: solve.total_iterations(),
            momentum_residual: solve.worst_residual,
            poisson_iterations,
            poisson_residual,
            divergence_pre,
            divergence_post,
            kinetic_energy,
            retries: 0,
            poisson_fallbacks,
            timings: StepTimings { total: step_start.elapsed().as_secs_f64() },
        })
    }

    /// Runs `steps` fractional steps, returning the per-step reports.
    ///
    /// # Errors
    /// Stops at the first failed step (see [`Stepper::step_on`]).
    pub fn run_on(&mut self, team: &Team, steps: usize) -> Result<Vec<StepReport>, StepError> {
        let mut reports = Vec::with_capacity(steps);
        for _ in 0..steps {
            reports.push(self.step_on(team)?);
        }
        Ok(reports)
    }

    /// Advances the state by one step with automatic recovery: the state is
    /// snapshotted first, and a failed attempt (solver breakdown, NaN
    /// blow-up, rejected Δt) rolls back to the snapshot and retries with Δt
    /// halved — `0.5^attempt`, up to [`StepperConfig::max_dt_retries`]
    /// retries — before surfacing a [`RunError`].
    ///
    /// Every recovery decision is a pure function of the step state (no
    /// clocks, no randomness), so recovered trajectories are **bitwise
    /// identical across thread counts**, exactly like undisturbed ones.  A
    /// successful step resets the backoff: the next step runs at the full
    /// CFL Δt again.
    ///
    /// # Errors
    /// Returns [`RunError`] with the failing step, time, attempt count and
    /// final [`StepError`] once the retry budget is exhausted.
    pub fn step_recovering_on(&mut self, team: &Team) -> Result<StepReport, RunError> {
        let snapshot = self.state.clone();
        let mut attempt: usize = 0;
        loop {
            self.dt_backoff = 0.5f64.powi(attempt as i32);
            match self.step_on(team) {
                Ok(mut report) => {
                    self.dt_backoff = 1.0;
                    report.retries = attempt;
                    return Ok(report);
                }
                Err(error) => {
                    // Roll back whatever the failed attempt half-wrote.
                    self.state = snapshot.clone();
                    if let Some(t) = team.trace() {
                        t.record(Event {
                            aux: attempt as u64,
                            ..Event::instant(spans::RETRY, 0, t.now_ns())
                        });
                        t.add(counters::RETRIES, 1);
                    }
                    attempt += 1;
                    if attempt > self.config.max_dt_retries {
                        self.dt_backoff = 1.0;
                        return Err(RunError {
                            step: snapshot.step + 1,
                            time: snapshot.time,
                            attempts: attempt,
                            error,
                        });
                    }
                }
            }
        }
    }

    /// Runs `steps` recovering fractional steps
    /// (see [`Stepper::step_recovering_on`]).
    ///
    /// # Errors
    /// Stops at the first step whose retry budget is exhausted.
    pub fn run_recovering_on(
        &mut self,
        team: &Team,
        steps: usize,
    ) -> Result<Vec<StepReport>, RunError> {
        let mut reports = Vec::with_capacity(steps);
        for _ in 0..steps {
            reports.push(self.step_recovering_on(team)?);
        }
        Ok(reports)
    }

    /// The stepper's live fault schedule, fired entries included.  A
    /// supervisor that rebuilds a stepper after a failed slice carries this
    /// spent plan into the replacement so the retry sees a healthy system —
    /// the slice-level analogue of the fire-once rule inside
    /// [`Stepper::step_recovering_on`].
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// How often the convergence-stall detector has fired on this stepper:
    /// 8 consecutive successful steps whose `max(momentum, poisson)`
    /// residual stayed above 10 × the larger solver tolerance without
    /// halving across the window.  A healthy run converges to the tolerance every step, so this stays 0;
    /// a plateau means the solvers are succeeding but barely — the
    /// service-level early warning *before* retries start failing.
    /// Diagnostic only: firing never changes the trajectory.
    pub fn slow_convergence_events(&self) -> u64 {
        self.stall.events
    }

    /// Runs recovering steps until `target_step` is reached, at most `quota`
    /// of them, watching the wall-clock of each individual step against
    /// `step_deadline`.
    ///
    /// This is the preemption primitive of the simulation service: the
    /// supervisor hands out bounded slices, checkpoints between them, and
    /// treats a blown deadline as a stalled worker (the state after a slow
    /// step is still consistent — it is the *caller's* policy to discard it
    /// and retry from the last checkpoint, mirroring a real watchdog kill
    /// that could have landed mid-step).  Slicing never enters the
    /// trajectory: any sequence of slices replays the exact steps of one
    /// uninterrupted [`Stepper::run_recovering_on`].
    ///
    /// # Errors
    /// Stops at the first step whose Δt-retry budget is exhausted.
    ///
    /// # Panics
    /// Panics if `quota` is zero — a slice must make progress or the
    /// supervisor loop would spin forever.
    pub fn run_slice_on(
        &mut self,
        team: &Team,
        target_step: u64,
        quota: u64,
        step_deadline: Option<std::time::Duration>,
    ) -> Result<SliceReport, RunError> {
        assert!(quota > 0, "a slice needs a non-zero step quota");
        let mut reports = Vec::new();
        while self.state.step < target_step && (reports.len() as u64) < quota {
            let step_start = Instant::now();
            reports.push(self.step_recovering_on(team)?);
            let elapsed = step_start.elapsed();
            if let Some(deadline) = step_deadline {
                if elapsed > deadline {
                    let step = self.state.step;
                    return Ok(SliceReport {
                        reports,
                        end: SliceEnd::DeadlineExceeded { step, elapsed: elapsed.as_secs_f64() },
                    });
                }
            }
        }
        let end = if self.state.step >= target_step {
            SliceEnd::Completed
        } else {
            SliceEnd::QuotaExhausted
        };
        Ok(SliceReport { reports, end })
    }
}

/// Why a [`Stepper::run_slice_on`] slice stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum SliceEnd {
    /// The run reached its target step — the job is finished.
    Completed,
    /// The step quota ran out with work remaining — preempt, checkpoint,
    /// requeue.
    QuotaExhausted,
    /// One step exceeded the per-step watchdog deadline (`elapsed` is its
    /// wall-clock in seconds) — the supervisor treats the job as stalled.
    DeadlineExceeded {
        /// The step that blew the deadline (1-based, as in [`StepReport`]).
        step: u64,
        /// Wall-clock seconds that step took.
        elapsed: f64,
    },
}

/// The outcome of one bounded slice of a supervised run.
#[derive(Debug, Clone)]
pub struct SliceReport {
    /// Per-step reports of the steps the slice completed.
    pub reports: Vec<StepReport>,
    /// Why the slice stopped.
    pub end: SliceEnd,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioKind;

    fn quick_config() -> StepperConfig {
        StepperConfig::default().with_vector_size(32)
    }

    #[test]
    fn the_stall_detector_stays_quiet_on_healthy_runs_and_fires_on_forced_plateaus() {
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
        let team = Team::new(1);
        // Healthy: every solve converges to tolerance, so nothing sits
        // above 10x tolerance and the detector never fires.
        let mut healthy = Stepper::new(scenario.clone(), quick_config());
        healthy.run_recovering_on(&team, 4).expect("healthy run");
        assert_eq!(healthy.slow_convergence_events(), 0);

        // Forced: a window of 1 above a zero threshold makes every
        // successful step a plateau — and must not change the trajectory.
        let mut forced = Stepper::new(scenario, quick_config());
        forced.stall = StallDetector::new(1, 0.0);
        forced.run_recovering_on(&team, 4).expect("forced run");
        assert_eq!(forced.slow_convergence_events(), 4);
        for (a, b) in healthy
            .state()
            .velocity
            .as_slice()
            .iter()
            .chain(healthy.state().pressure.as_slice())
            .zip(
                forced.state().velocity.as_slice().iter().chain(forced.state().pressure.as_slice()),
            )
        {
            assert_eq!(a.to_bits(), b.to_bits(), "detection must never steer the run");
        }
    }

    #[test]
    fn the_stall_detector_needs_a_full_window_and_a_real_plateau() {
        let mut detector = StallDetector::new(3, 0.0);
        // Window not yet full: no verdicts.
        assert!(!detector.observe(1.0));
        assert!(!detector.observe(1.0));
        // Full window, flat residuals: fires once and clears the window.
        assert!(detector.observe(1.0));
        assert_eq!(detector.events, 1);
        assert!(!detector.observe(1.0), "the window restarts after a firing");
        // A residual that halves across the window is converging, not
        // plateauing.
        assert!(!detector.observe(0.9));
        assert!(!detector.observe(0.4));
        assert_eq!(detector.events, 1);
        // Flat but at or below the threshold: converged, not stalled.
        let mut converged = StallDetector::new(STALL_WINDOW, 1.0);
        for _ in 0..2 * STALL_WINDOW {
            assert!(!converged.observe(1.0));
        }
    }

    #[test]
    fn cavity_step_produces_flow_and_reduces_divergence() {
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 5);
        let mut stepper = Stepper::new(scenario, quick_config());
        assert_eq!(stepper.state().step, 0);
        assert!(stepper.kinetic_energy() > 0.0, "lid nodes already move");
        let team = Team::new(1);
        let report = stepper.step_on(&team).expect("step");
        assert_eq!(report.step, 1);
        assert!(report.dt > 0.0 && report.time > 0.0);
        assert!(report.momentum_iterations > 0);
        let config = stepper.config();
        assert!(report.momentum_residual < 100.0 * config.momentum_options.tolerance);
        assert!(report.poisson_iterations > 0);
        assert!(report.poisson_residual < 100.0 * config.poisson_options.tolerance);
        // The projection must reduce the divergence of the predictor field.
        assert!(report.divergence_post < report.divergence_pre);
        assert!(report.kinetic_energy > 0.0);
        assert!(report.timings.total() > 0.0);
        // Pressure is no longer the zero spectator field.
        assert!(stepper.state().pressure.max_abs() > 0.0);
        assert!(stepper.analytic_velocity_error().is_none());
    }

    #[test]
    fn the_step_total_is_the_externally_measured_step() {
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 6);
        let mut stepper = Stepper::new(scenario, quick_config());
        let team = Team::new(2);
        for _ in 0..3 {
            let t0 = Instant::now();
            let report = stepper.step_on(&team).expect("step");
            let measured = t0.elapsed().as_secs_f64();
            let total = report.timings.total();
            // The step's own stopwatch covers the whole step: within 1% of
            // the wall-clock around the call (the slack is the step_on call
            // overhead outside it), and never longer.
            assert!(total <= measured, "the step reports {total:.6}s of {measured:.6}s");
            assert!(
                measured - total <= 0.01 * measured,
                "the step reports {total:.6}s but took {measured:.6}s"
            );
        }
    }

    #[test]
    fn traced_step_records_phase_spans_and_counters() {
        use lv_runtime::TraceConfig;
        use lv_trace::summary::RunSummary;
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
        let mut stepper = Stepper::new(scenario, quick_config());
        let mut team = Team::with_trace(2, TraceConfig::default());
        let report = stepper.step_on(&team).expect("step");
        let summary = RunSummary::from_trace(team.trace_mut().expect("traced team"));
        // One step span, one assembly/momentum phase each, one poisson +
        // correction phase per projection sweep.
        let sweeps = PROJECTION_SWEEPS as u64;
        assert_eq!(summary.span("driver/step").map(|s| (s.events, s.iters)), Some((1, 1)));
        assert_eq!(summary.span("driver/assembly").map(|s| s.events), Some(1));
        assert_eq!(
            summary.span("driver/momentum").map(|s| s.iters),
            Some(report.momentum_iterations as u64)
        );
        assert_eq!(summary.span("driver/poisson").map(|s| s.events), Some(sweeps));
        assert_eq!(
            summary.span("driver/poisson").map(|s| s.iters),
            Some(report.poisson_iterations as u64)
        );
        assert_eq!(summary.span("driver/correction").map(|s| s.events), Some(sweeps));
        // Each correction carries the model of its gradient row pass.
        let operators = stepper.operators();
        assert_eq!(
            summary.span("driver/correction").map(|s| (s.flops, s.bytes)),
            Some((sweeps * operators.gradient_flops(), sweeps * operators.streamed_bytes() as u64))
        );
        // The instrumented kernels underneath reported their models.
        assert!(summary.span("assembly/color_sweep").is_some());
        assert!(summary.span("solver/cg/iteration").is_some());
        assert!(summary.counter("flops").unwrap() > 0);
        assert!(summary.counter("modeled_bytes").unwrap() > 0);
        assert_eq!(summary.counter("steps"), Some(1));
        assert_eq!(summary.counter("momentum_iterations"), Some(report.momentum_iterations as u64));
        assert_eq!(summary.counter("poisson_iterations"), Some(report.poisson_iterations as u64));
        assert_eq!(summary.counter("dropped_events"), Some(0));
    }

    #[test]
    fn assembly_spans_charge_the_reduced_sweep_and_the_global_passes() {
        use lv_runtime::TraceConfig;
        use lv_trace::summary::RunSummary;
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
        let mut stepper = Stepper::new(scenario, quick_config());
        let mut team = Team::with_trace(2, TraceConfig::default());
        stepper.step_on(&team).expect("step");
        let summary = RunSummary::from_trace(team.trace_mut().expect("traced team"));
        // The sweep of a step runs phases 4 (velocity only), 5, the
        // reference-space phase 6 over the resident geometry rows and a
        // matrix-only scatter: its span carries that count, not the full
        // mini-app's 9 600 flops and 1 472 bytes per element.
        let elements = stepper.mesh().num_elements() as u64;
        assert_eq!(
            summary.span("assembly/color_sweep").map(|s| (s.events, s.iters, s.flops, s.bytes)),
            Some((
                1,
                elements,
                elements * lv_kernel::phases::convective_flops_per_element(),
                elements * lv_kernel::phases::convective_bytes_per_element(),
            ))
        );
        assert_eq!(lv_kernel::phases::convective_flops_per_element(), 2264);
        assert_eq!(lv_kernel::phases::convective_bytes_per_element(), 2240);
        // The phase span carries the three global passes around the sweep
        // (ν·K fill, residual row pass, mass update) and only them.
        let operators = stepper.operators();
        assert_eq!(
            summary.span("driver/assembly").map(|s| (s.events, s.flops, s.bytes)),
            Some((1, operators.momentum_pass_flops(), operators.momentum_pass_bytes()))
        );
    }

    /// The element→CSR slot map is built on first use, and the steps of an
    /// unjittered box never use it; a jittered box scatters its per-entry
    /// `C` through it at set-up.
    #[test]
    fn only_a_jittered_box_builds_the_slot_map() {
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 6);
        let jittered =
            lv_mesh::BoxMeshBuilder::new(6, 6, 6).lid_driven_cavity().with_jitter(0.1, 3).build();
        for (mesh, built) in [(scenario.build_mesh(), false), (jittered, true)] {
            let mut stepper = Stepper::with_mesh(scenario.clone(), quick_config(), mesh);
            stepper.run_on(&Team::new(2), 2).expect("the box steps");
            assert_eq!(stepper.shared.assembly.topology().has_slot_map(), built);
        }
    }

    #[test]
    fn step_energy_through_the_mass_matches_the_quadrature_on_every_scenario() {
        for scenario in Scenario::registry() {
            let name = scenario.kind.name();
            let mut stepper = Stepper::new(scenario, quick_config());
            let team = Team::new(2);
            for _ in 0..2 {
                let report = stepper.step_on(&team).expect("step");
                let quadrature = stepper.kinetic_energy();
                assert!(
                    (report.kinetic_energy - quadrature).abs() <= 1e-13 * quadrature,
                    "{name}: the step reports {:e}, the quadrature {quadrature:e}",
                    report.kinetic_energy
                );
            }
        }
    }

    #[test]
    fn traced_recovery_records_retry_events() {
        use crate::fault::{FaultKind, FaultPlan};
        use lv_runtime::TraceConfig;
        use lv_trace::summary::RunSummary;
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
        let plan = FaultPlan::new(7).with_fault(FaultKind::MomentumBreakdown, 1);
        let mut stepper = Stepper::new(scenario, quick_config().with_fault_plan(plan));
        let mut team = Team::with_trace(1, TraceConfig::default());
        let report = stepper.step_recovering_on(&team).expect("recovery");
        assert_eq!(report.retries, 1);
        let summary = RunSummary::from_trace(team.trace_mut().expect("traced team"));
        assert_eq!(summary.counter("retries"), Some(1));
        assert_eq!(summary.span("driver/retry").map(|s| s.events), Some(1));
        // Two step spans were opened (the failed attempt and the success);
        // only the success carries iters = 1.
        assert_eq!(summary.span("driver/step").map(|s| (s.events, s.iters)), Some((2, 1)));
        assert_eq!(summary.counter("steps"), Some(1));
    }

    #[test]
    fn cfl_guard_rejects_nan_velocity() {
        // f64::max masks NaN, so without the explicit scan this would
        // silently produce the DT_MAX clamp instead of failing.
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
        let mut stepper = Stepper::new(scenario, quick_config());
        stepper.state.velocity.as_mut_slice()[17] = f64::NAN;
        match stepper.checked_next_dt() {
            Err(StepError::InvalidDt { umax, .. }) => assert!(umax.is_nan()),
            other => panic!("expected InvalidDt, got {other:?}"),
        }
        assert!(stepper.next_dt().is_nan(), "the infallible preview reports NaN");
        let team = Team::new(1);
        let err = stepper.step_on(&team).expect_err("step must reject the poisoned state");
        assert_eq!(err.phase(), "cfl");
    }

    #[test]
    fn cfl_guard_rejects_infinite_velocity() {
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
        let mut stepper = Stepper::new(scenario, quick_config());
        stepper.state.velocity.as_mut_slice()[3] = f64::INFINITY;
        match stepper.checked_next_dt() {
            Err(StepError::InvalidDt { umax, .. }) => assert!(umax.is_nan() || umax.is_infinite()),
            other => panic!("expected InvalidDt, got {other:?}"),
        }
    }

    #[test]
    fn cfl_guard_rejects_non_positive_fixed_dt() {
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
        for bad_dt in [0.0, -0.01, f64::NAN, f64::INFINITY] {
            let config = StepperConfig { fixed_dt: Some(bad_dt), ..quick_config() };
            let stepper = Stepper::new(scenario.clone(), config);
            match stepper.checked_next_dt() {
                Err(StepError::InvalidDt { dt, .. }) => {
                    assert!(!dt.is_finite() || dt <= 0.0, "rejected dt {dt}")
                }
                other => panic!("dt = {bad_dt}: expected InvalidDt, got {other:?}"),
            }
        }
    }

    #[test]
    fn injected_breakdown_recovers_with_halved_dt() {
        use crate::fault::{FaultKind, FaultPlan};
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
        let team = Team::new(1);
        let mut plain = Stepper::new(scenario.clone(), quick_config());
        let undisturbed = plain.step_on(&team).expect("healthy step");

        let plan = FaultPlan::new(7).with_fault(FaultKind::MomentumBreakdown, 1);
        let mut faulty = Stepper::new(scenario, quick_config().with_fault_plan(plan));
        let report = faulty.step_recovering_on(&team).expect("recovery");
        assert_eq!(report.step, 1);
        assert_eq!(report.retries, 1, "one rollback before the fault was spent");
        assert_eq!(
            report.dt.to_bits(),
            (undisturbed.dt * 0.5).to_bits(),
            "the retry runs at exactly half the CFL Δt"
        );
        // The backoff resets: the next step is back at the full CFL Δt.
        let next = faulty.step_recovering_on(&team).expect("next step");
        assert_eq!(next.retries, 0);
        assert!(next.dt > report.dt);
    }

    #[test]
    fn exhausted_retry_budget_surfaces_a_structured_run_error() {
        use crate::fault::{FaultKind, FaultPlan};
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
        let team = Team::new(1);
        // More scheduled breakdowns than the budget allows attempts.
        let mut plan = FaultPlan::new(7);
        for _ in 0..3 {
            plan = plan.with_fault(FaultKind::MomentumBreakdown, 1);
        }
        let config = quick_config().with_fault_plan(plan).with_max_dt_retries(2);
        let mut stepper = Stepper::new(scenario, config);
        let err = stepper.run_recovering_on(&team, 2).expect_err("budget exhausted");
        assert_eq!(err.step, 1);
        assert_eq!(err.attempts, 3, "1 attempt + 2 retries");
        assert_eq!(err.error.phase(), "momentum");
        assert_eq!(err.time, 0.0);
        let text = err.to_string();
        assert!(text.contains("step 1"), "{text}");
        assert!(text.contains("momentum"), "{text}");
        assert!(text.contains("injected"), "{text}");
        // The rollback left the state untouched.
        assert_eq!(stepper.state().step, 0);
        assert_eq!(stepper.state().time, 0.0);
    }

    #[test]
    fn mg_breakdown_falls_back_to_plain_cg_within_the_step() {
        use crate::fault::{FaultKind, FaultPlan};
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
        let team = Team::new(1);
        let plan = FaultPlan::new(7).with_fault(FaultKind::MultigridBreakdown, 1);
        let mut stepper = Stepper::new(scenario, quick_config().with_fault_plan(plan));
        assert!(stepper.multigrid_levels().is_some(), "the 4³ cavity runs MG-CG");
        let report = stepper.step_recovering_on(&team).expect("fallback absorbs the fault");
        assert_eq!(report.retries, 0, "the CG fallback succeeds inside the same attempt");
        assert_eq!(report.poisson_fallbacks, 1);
        let tolerance = stepper.config().poisson_options.tolerance;
        assert!(report.poisson_residual < 100.0 * tolerance, "the fallback solve still converges");
    }

    #[test]
    fn stall_fault_is_bounded_and_trajectory_neutral() {
        use crate::fault::{FaultKind, FaultPlan};
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
        let team = Team::new(1);
        let mut plain = Stepper::new(scenario.clone(), quick_config());
        plain.run_recovering_on(&team, 2).expect("healthy run");

        let plan = FaultPlan::new(3).with_fault(FaultKind::Stall, 2);
        let mut stalled = Stepper::new(scenario, quick_config().with_fault_plan(plan));
        let start = Instant::now();
        stalled.run_recovering_on(&team, 2).expect("a stall is not an error");
        let elapsed = start.elapsed();
        assert!(
            elapsed >= std::time::Duration::from_millis(crate::fault::STALL_MILLIS),
            "the stall actually waited ({elapsed:?})"
        );
        assert_eq!(stalled.fault_plan().map(FaultPlan::pending), Some(0), "stall spent");
        assert_eq!(
            stalled.state().velocity.as_slice()[7].to_bits(),
            plain.state().velocity.as_slice()[7].to_bits(),
            "a stall never enters the trajectory"
        );
        assert_eq!(stalled.state().time.to_bits(), plain.state().time.to_bits());
    }

    #[test]
    fn panic_fault_unwinds_and_is_catchable() {
        use crate::fault::{FaultKind, FaultPlan};
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
        let team = Team::new(1);
        let plan = FaultPlan::new(3).with_fault(FaultKind::Panic, 1);
        let mut stepper = Stepper::new(scenario, quick_config().with_fault_plan(plan));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stepper.step_recovering_on(&team)
        }));
        let payload = caught.expect_err("the injected panic must unwind");
        let message = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("injected worker panic at step 1"), "{message}");
        // The fault is spent: the supervisor's retry (same stepper or a
        // rebuilt one carrying the plan) completes.
        assert_eq!(stepper.fault_plan().map(FaultPlan::pending), Some(0));
        stepper.step_recovering_on(&team).expect("retry after the contained panic");
        assert_eq!(stepper.state().step, 1);
    }

    #[test]
    fn sliced_runs_replay_the_uninterrupted_trajectory() {
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
        let team = Team::new(1);
        let mut oracle = Stepper::new(scenario.clone(), quick_config());
        oracle.run_recovering_on(&team, 5).expect("uninterrupted run");

        let mut sliced = Stepper::new(scenario, quick_config());
        let mut slices = 0;
        loop {
            let slice = sliced.run_slice_on(&team, 5, 2, None).expect("slice");
            slices += 1;
            match slice.end {
                SliceEnd::Completed => break,
                SliceEnd::QuotaExhausted => assert_eq!(slice.reports.len(), 2),
                SliceEnd::DeadlineExceeded { .. } => panic!("no deadline was set"),
            }
        }
        assert_eq!(slices, 3, "5 steps in quota-2 slices: 2 + 2 + 1");
        assert_eq!(sliced.state().step, oracle.state().step);
        for (a, b) in
            sliced.state().velocity.as_slice().iter().zip(oracle.state().velocity.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "slicing never enters the trajectory");
        }
    }

    #[test]
    fn slice_deadline_reports_the_slow_step() {
        use crate::fault::{FaultKind, FaultPlan};
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
        let team = Team::new(1);
        let plan = FaultPlan::new(3).with_fault(FaultKind::Stall, 2);
        let mut stepper = Stepper::new(scenario, quick_config().with_fault_plan(plan));
        let deadline = std::time::Duration::from_millis(crate::fault::STALL_MILLIS / 2);
        let slice = stepper.run_slice_on(&team, 4, 4, Some(deadline)).expect("slice");
        match slice.end {
            SliceEnd::DeadlineExceeded { step, elapsed } => {
                assert_eq!(step, 2, "the stalled step is the one reported");
                assert!(elapsed > deadline.as_secs_f64());
            }
            other => panic!("expected a blown deadline, got {other:?}"),
        }
        assert_eq!(slice.reports.len(), 2, "the slice stopped right after the slow step");
    }

    #[test]
    fn cfl_controller_tracks_the_velocity_scale() {
        let stepper = Stepper::new(Scenario::new(ScenarioKind::LidDrivenCavity, 8), quick_config());
        // umax = 1 (the lid): dt = CFL · h = 0.4/8, inside [DT_MIN, DT_MAX].
        assert!((stepper.next_dt() - 0.05).abs() < 1e-12, "dt {}", stepper.next_dt());
        // A faster state: 0.4/8 / 1e4 = 5e-6 is clamped up to DT_MIN.
        let mut fast =
            Stepper::new(Scenario::new(ScenarioKind::LidDrivenCavity, 8), quick_config());
        fast.state.velocity.as_mut_slice()[0] = 1e4;
        assert_eq!(fast.next_dt(), DT_MIN);
        // A coarser cavity: 0.4/3 ≈ 0.133 is clamped down to DT_MAX.
        let coarse = Stepper::new(Scenario::new(ScenarioKind::LidDrivenCavity, 3), quick_config());
        assert_eq!(coarse.next_dt(), DT_MAX);
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
        let fixed = Stepper::new(scenario, quick_config().with_fixed_dt(0.025));
        assert_eq!(fixed.next_dt(), 0.025);
    }

    #[test]
    fn trajectory_is_bitwise_reproducible_across_thread_counts() {
        let scenario = Scenario::new(ScenarioKind::TaylorGreenVortex, 4);
        let mut reference: Option<SimState> = None;
        for threads in [1usize, 2, 3] {
            let mut stepper = Stepper::new(scenario.clone(), quick_config());
            let team = Team::new(threads);
            stepper.run_on(&team, 2).expect("run");
            let state = stepper.state();
            match &reference {
                None => reference = Some(state.clone()),
                Some(oracle) => {
                    assert_eq!(oracle.time.to_bits(), state.time.to_bits(), "t={threads}");
                    for (a, b) in oracle.velocity.as_slice().iter().zip(state.velocity.as_slice()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "velocity at {threads} threads");
                    }
                    for (a, b) in oracle.pressure.as_slice().iter().zip(state.pressure.as_slice()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "pressure at {threads} threads");
                    }
                }
            }
        }
    }

    #[test]
    fn multigrid_runs_where_the_mesh_has_a_hierarchy_and_cuts_iterations() {
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 8);
        let team = Team::new(1);
        let mut mgcg = Stepper::new(scenario.clone(), quick_config());
        assert_eq!(mgcg.multigrid_levels(), Some(vec![729, 125, 27]));
        // The same cavity with an injected breakdown for every sweep of the
        // step: each falls back to plain CG on the same level-0 operator.
        let plan = (0..PROJECTION_SWEEPS)
            .fold(FaultPlan::new(0), |plan, _| plan.with_fault(FaultKind::MultigridBreakdown, 1));
        let mut cg = Stepper::new(scenario, quick_config().with_fault_plan(plan));
        let mg_report = mgcg.step_on(&team).expect("mgcg step");
        let cg_report = cg.step_on(&team).expect("cg step");
        assert_eq!((mg_report.poisson_fallbacks, cg_report.poisson_fallbacks), (0, 3));
        assert!(
            mg_report.poisson_iterations < cg_report.poisson_iterations,
            "MG-CG {} vs CG {} iterations",
            mg_report.poisson_iterations,
            cg_report.poisson_iterations
        );
        // Both converge to the same tolerance: the physics diagnostics agree
        // to solver precision.
        assert!((mg_report.kinetic_energy - cg_report.kinetic_energy).abs() < 1e-8);
        assert!((mg_report.divergence_post - cg_report.divergence_post).abs() < 1e-8);
    }

    #[test]
    fn channel_scenario_steps_with_outflow_pins() {
        let scenario = Scenario::new(ScenarioKind::Channel, 3);
        let mut stepper = Stepper::new(scenario, quick_config());
        let team = Team::new(2);
        let report = stepper.step_on(&team).expect("channel step");
        assert!(report.divergence_post.is_finite());
        // The pinned outflow pressure stays exactly zero.
        let mesh = stepper.mesh().clone();
        for node in 0..mesh.num_nodes() {
            if mesh.boundary_tag(node) == lv_mesh::BoundaryTag::Outflow {
                assert_eq!(stepper.state().pressure.value(node), 0.0);
            }
        }
    }
}
