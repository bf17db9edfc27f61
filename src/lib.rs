//! # alya-longvec
//!
//! A from-scratch Rust reproduction of *“Exploiting long vectors with a CFD
//! code: a co-design show case”* (Blancafort et al., IPPS 2024,
//! arXiv:2411.00815).
//!
//! The workspace contains everything the paper's evaluation needs:
//!
//! * [`mesh`] (`lv-mesh`) — hexahedral meshes, Gauss quadrature, shape
//!   functions, nodal fields;
//! * [`sim`] (`lv-sim`) — the long-vector architecture simulator standing in
//!   for the RISC-V VEC prototype, NEC SX-Aurora and MareNostrum 4;
//! * [`compiler`] (`lv-compiler`) — the auto-vectorizer model (loop IR,
//!   legality analysis, loop transforms, code generation, remarks);
//! * [`kernel`] (`lv-kernel`) — the Nastin assembly mini-app: numeric path
//!   and simulated path, eight phases, four cumulative code variants;
//! * [`runtime`] (`lv-runtime`) — the shared worker-pool runtime: persistent
//!   thread team, barriers, static partitioning, deterministic blocked
//!   reductions;
//! * [`solver`] (`lv-solver`) — CSR matrices and Krylov solvers for complete
//!   CFD time steps, serial or on the shared pool with bitwise identical
//!   results;
//! * [`driver`] (`lv-driver`) — the fractional-step simulation driver:
//!   Chorin pressure projection over the mesh-true Laplacian/divergence/
//!   gradient operators, the scenario registry, CFL-adaptive Δt and binary
//!   checkpoint/restart with bitwise-identical resumption;
//! * [`trace`] (`lv-trace`) — the deterministic run-telemetry subsystem:
//!   per-rank span buffers, deterministic counters, line-JSON and
//!   Chrome-tracing sinks and the roofline-style
//!   [`trace::summary::RunSummary`];
//! * [`server`] (`lv-server`) — the supervised simulation service: a
//!   crash-safe job scheduler multiplexing journaled jobs over worker
//!   teams with preemptive checkpointing, watchdogs, panic containment
//!   and bounded retries;
//! * [`metrics`] (`lv-metrics`) — the Section 2.2 metrics, regression and
//!   report tables;
//! * [`core`] (`lv-core`) — the experiment runner, the per-table/figure
//!   reproduction functions and the co-design loop.
//!
//! See `examples/` for runnable entry points (their command lines are
//! parsed by [`cli`]); `codesign_sweep` prints every table, figure and
//! ablation of the paper, the rows of [`core::reproduce::CATALOGUE`].

pub mod cli;

pub use lv_compiler as compiler;
pub use lv_core as core;
pub use lv_driver as driver;
pub use lv_kernel as kernel;
pub use lv_mesh as mesh;
pub use lv_metrics as metrics;
pub use lv_runtime as runtime;
pub use lv_server as server;
pub use lv_sim as sim;
pub use lv_solver as solver;
pub use lv_trace as trace;

/// One-stop prelude for examples and downstream users.
pub mod prelude {
    pub use lv_core::prelude::*;
    pub use lv_driver::{Scenario, ScenarioKind, Stepper, StepperConfig};
    pub use lv_kernel::{KernelConfig, NastinAssembly, OptLevel, SimulatedMiniApp};
    pub use lv_mesh::{BoxMeshBuilder, ChannelMeshBuilder, Field, Mesh, VectorField};
    pub use lv_metrics::{RunMetrics, Table};
    pub use lv_runtime::Team;
    pub use lv_server::{JobSpec, JobStatus, Server, ServerConfig};
    pub use lv_sim::{Machine, MachineConfig, Platform, PlatformKind};
    pub use lv_solver::{
        bicgstab, bicgstab_on, conjugate_gradient, conjugate_gradient_on, CsrMatrix, SolveOptions,
    };
    pub use lv_trace::{summary::RunSummary, Trace, TraceConfig};
}
