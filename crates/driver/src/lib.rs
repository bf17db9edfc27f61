//! # lv-driver
//!
//! The **fractional-step simulation driver**: the subsystem that turns the
//! repo's kernels — colored parallel assembly (`lv-kernel`), pooled/batched
//! Krylov solvers (`lv-solver`), the shared worker-pool runtime
//! (`lv-runtime`) and the mesh-true projection operators
//! ([`lv_kernel::projection`]) — into an end-to-end incompressible
//! Navier–Stokes solver.  Until this crate, every example stopped at the
//! momentum predictor with pressure identically zero; the driver closes the
//! loop with a Chorin pressure-projection step.
//!
//! * [`stepper`] — the [`Stepper`]: predictor → pressure Poisson →
//!   correction, all on one shared [`lv_runtime::Team`], CFL-adaptive Δt,
//!   per-step diagnostics, bitwise reproducible across thread counts;
//! * [`scenario`] — the [`Scenario`] registry: lid-driven cavity, channel,
//!   Taylor–Green vortex (with analytic error norms) and a decaying shear
//!   layer, each with its own BCs, initial fields and pressure pins;
//! * [`checkpoint`] — binary checkpoint/restart with bitwise-identical
//!   resumption, plus the [`CheckpointRing`] that rotates the last K
//!   generations and falls back past corrupt ones on load; a run saves and
//!   resumes itself through [`Stepper::checkpoint_on`] and
//!   [`Stepper::resume_on`];
//! * [`fault`] — the deterministic [`FaultPlan`] injection harness that
//!   exercises every recovery path (solver breakdowns, NaN-poisoned RHS,
//!   corrupted checkpoints) reproducibly in tests.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod fault;
pub mod scenario;
pub mod stepper;

pub use checkpoint::{
    load_checkpoint, save_checkpoint, Checkpoint, CheckpointRing, Resumed, RingRecovery,
};
pub use fault::{FaultKind, FaultPlan, STALL_MILLIS};
pub use scenario::{taylor_green_velocity, Scenario, ScenarioKind};
pub use stepper::{
    Discretization, MomentumStorage, RunError, SimState, SliceEnd, SliceReport, StepError,
    StepReport, StepTimings, Stepper, StepperConfig,
};
