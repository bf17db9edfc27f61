//! # lv-core
//!
//! The experiment layer of the reproduction: it ties the mesh, kernel,
//! compiler-model and simulator crates together and regenerates every table
//! and figure of the paper's evaluation.
//!
//! * [`experiment`] — the memoizing [`Runner`] that
//!   executes (and caches) simulated mini-app runs over the
//!   (platform × `VECTOR_SIZE` × optimization level × vectorization on/off)
//!   space, plus the sweep configuration;
//! * [`reproduce`] — one function per paper table/figure (Table 2 → Table 6,
//!   Figure 2 → Figure 13), each returning an [`lv_metrics::Table`] with the
//!   same rows/series the paper reports;
//! * [`codesign`] — the iterative co-design methodology of Section 3
//!   expressed as an executable loop: measure, find the limiting phase,
//!   apply the next refactor, repeat.
//!
//! The prelude re-exports the types an application needs to drive a full
//! study end to end.

#![warn(missing_docs)]

pub mod codesign;
pub mod experiment;
pub mod reproduce;

pub use codesign::{run_codesign_loop, CodesignReport, CodesignStep};
pub use experiment::{RunKey, Runner, SweepConfig};

/// Convenience re-exports for examples and downstream users.
pub mod prelude {
    pub use crate::codesign::run_codesign_loop;
    pub use crate::experiment::{RunKey, Runner, SweepConfig};
    pub use crate::reproduce;
    pub use lv_kernel::{KernelConfig, NastinAssembly, OptLevel, SimulatedMiniApp};
    pub use lv_mesh::{BoxMeshBuilder, ChannelMeshBuilder, Field, Mesh, VectorField};
    pub use lv_metrics::{RunMetrics, Table};
    pub use lv_sim::{Platform, PlatformKind};
}
