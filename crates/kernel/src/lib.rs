//! # lv-kernel
//!
//! The **Nastin assembly mini-app**: a Rust re-implementation of the
//! matrix/right-hand-side assembly kernel the paper extracts from the Nastin
//! (incompressible Navier–Stokes) module of the Alya multi-physics code,
//! split into the same eight instrumented phases:
//!
//! | phase | contents (paper §2.3) |
//! |-------|------------------------|
//! | 1     | gather element connectivity and nodal coordinates (memory only) |
//! | 2     | gather nodal velocities / unknowns (memory only) |
//! | 3     | Jacobian, its inverse and Cartesian shape derivatives at the integration points |
//! | 4     | velocity and velocity-gradient interpolation at the integration points |
//! | 5     | stabilization parameters and time-integration arrays |
//! | 6     | convective term contribution to the elemental residual (heaviest FP phase) |
//! | 7     | viscous term contribution to the elemental matrices and RHS |
//! | 8     | validity check and scatter of elemental contributions into the global system |
//!
//! The kernel exists in two coupled forms:
//!
//! * the **numeric path** ([`assembly`]) actually computes the Navier–Stokes
//!   element integrals over a [`lv_mesh::Mesh`] and produces a global CSR
//!   matrix and RHS (consumed by `lv-solver` in the examples); it is what the
//!   benchmark's `assembly_vs` workload measures on the host CPU.  Each
//!   phase is one unit-stride slice kernel ([`phases`]) that two sweeps
//!   share: the mesh-order sweep on the calling thread
//!   ([`NastinAssembly::assemble_into_slices`]) and the chunk-colored
//!   multi-threaded sweep on a worker team ([`parallel`],
//!   [`NastinAssembly::assemble_parallel_into_on`]).  The original
//!   per-scalar accessor phases are the unit tests' oracle, compiled only
//!   under `#[cfg(test)]`.
//!   A time step (`lv_driver::Stepper`) assembles through
//!   [`assemble_momentum_on`] instead: the viscous and mass blocks held from
//!   set-up ([`PressureOperators`]; on an unjittered box written from the
//!   class stencils of one reference element), the convection as a lattice
//!   gather — element matrices from the mesh's inverse Jacobians
//!   ([`ConvectiveGeometry`], one entry on an unjittered box), summed row
//!   by row onto `ν·K`, no colours — and the right-hand side as one row
//!   product, into a momentum matrix born on the diagonals of the mesh's
//!   lattice ([`momentum`]) — the eight-phase sweep is its oracle;
//! * the **simulated path** ([`workload`] + [`miniapp`]) describes the same
//!   eight phases as `lv-compiler` loop nests — per code variant — and feeds
//!   the generated instruction streams to the `lv-sim` machine, producing the
//!   per-phase hardware counters every table and figure of the paper is
//!   derived from.
//!
//! The code variants are the paper's cumulative optimization levels:
//! `Original` → `Vec2` → `IVec2` → `Vec1` (see [`config::OptLevel`]).

#![warn(missing_docs)]

pub mod assembly;
pub mod config;
pub mod matrixfree;
pub mod miniapp;
pub mod momentum;
pub mod parallel;
pub mod phases;
pub mod projection;
mod stencil;
pub mod workload;
pub mod workspace;

pub use assembly::{
    AssemblyOutput, AssemblyStats, ConvectiveGeometry, DirichletRows, NastinAssembly,
};
pub use config::{KernelConfig, OptLevel, PAPER_VECTOR_SIZES};
pub use matrixfree::{
    build_pressure_multigrid, build_pressure_multigrid_on_diagonals, pressure_interpolations,
    MatrixFreeLaplacian, NoHierarchy,
};
pub use miniapp::{MiniAppRun, SimulatedMiniApp};
pub use momentum::{assemble_momentum_on, describe_gather, solve_momentum_on, MomentumSolve};
pub use projection::{
    pressure_laplacian, weak_divergence_vector_norm, GradientStorage, PressureOperators,
    StiffnessSource,
};
pub use workspace::{ElementWorkspace, WorkspaceViewsMut};

/// Spatial dimensions (3-D flow, as in the paper's production case).
pub const NDIME: usize = lv_mesh::NDIME;

/// Nodes per hexahedral element (`pnode`).
pub const PNODE: usize = lv_mesh::HEX8_NODES;

/// Integration points per hexahedral element (`pgaus`).
pub const PGAUS: usize = lv_mesh::HEX8_GAUSS;

/// Degrees of freedom gathered per node in phase 2 (three velocity
/// components plus pressure).
pub const NDOFN: usize = NDIME + 1;
