//! `lv-server`: the supervised simulation service.
//!
//! A crash-safe job scheduler over the `lv-driver` stepper: a queue of
//! [`JobSpec`]s is multiplexed across M worker [`lv_runtime::Team`]s by a
//! supervisor loop.  Jobs run in bounded slices (a step quota plus a
//! wall-clock watchdog per step), checkpoint into a per-job
//! [`lv_driver::CheckpointRing`] at every slice boundary, and resume on
//! *any* worker — or any later supervisor process — with zero trajectory
//! drift, because the trajectory is a pure function of the checkpointed
//! state.  Every lifecycle transition is written ahead to a line-JSON
//! journal ([`journal`]) and fsynced before it takes effect, so a
//! `kill -9`'d supervisor replays the log and picks every job back up from
//! its newest intact ring generation.  The job table is a fold of the same
//! records: [`JobEntry::apply`] turns each into a status and an attempt
//! count, after every append live and through [`ledger`] on replay, so a
//! live table and a replayed one agree row for row.
//!
//! Layering: `lv-server` sits strictly above `lv-driver` — it owns
//! scheduling, containment and persistence policy, and never reaches into
//! the numerics.  See `supervisor` for the containment ladder.
//!
//! Observability: the supervisor keeps a [`FleetMetrics`] registry
//! ([`metrics`]) whose deterministic counters are folded from journal
//! records, serves read-only introspection over a Unix socket next to the
//! journal ([`endpoint`]), and can reconstruct per-job and merged
//! Chrome-trace timelines from the journal after the fact ([`timeline`]).

#![warn(missing_docs)]

pub mod endpoint;
pub mod job;
pub mod journal;
pub mod metrics;
pub mod supervisor;
pub mod timeline;

pub use endpoint::{metrics_json_path, query, socket_path, Request};
pub use job::{tally, valid_job_id, JobEntry, JobError, JobSpec, JobStatus};
pub use journal::{ledger, replay_readonly, EventKind, Journal, Record, Replay};
pub use metrics::{FleetMetrics, JobProgress, FLEET_METRICS};
pub use supervisor::{ReplaySummary, RunReport, Server, ServerConfig};
pub use timeline::{chrome_timeline, slice_intervals, text_timeline, SliceInterval};
