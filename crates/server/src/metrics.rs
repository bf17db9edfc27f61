//! Fleet-level metrics: the supervisor's [`Registry`] instance plus the
//! journal fold that keeps its deterministic subset honest.
//!
//! The taxonomy in [`FLEET_METRICS`] splits exactly like the span/counter
//! tables in `lv-trace`:
//!
//! * the **deterministic** counters (jobs submitted/done/failed, retries,
//!   slices started/preempted, committed steps, slow-convergence events)
//!   are derived *only* from journal records, through one fold —
//!   [`FleetMetrics::apply_record`] — used both live (at append time) and
//!   on replay.  Replaying a journal therefore reproduces the live run's
//!   deterministic subset bit for bit, by construction;
//! * the **host-dependent** cells (queue/in-flight gauges, latency
//!   histograms in microseconds) are fed directly by the supervisor and
//!   are advisory — they never appear in a fingerprint.
//!
//! Committed steps are derived by pairing each job's last `running` record
//! with the `done`/`preempted` record that follows it; a `retrying` or
//! `failed` record discards the open pair, so steps burnt by a failed
//! attempt are never counted as progress.
//!
//! The document's `host` block says which vector lanes the supervising
//! process selected (`lv_runtime::lanes`) — host-dependent like the
//! histograms, so it is in no fingerprint, and a fold of somebody else's
//! journal ([`FleetMetrics::new`]) reports `"unknown"` rather than the
//! reader's own.
//!
//! [`JobProgress`] rows ride alongside: workers publish one after every
//! slice (steps done, sim time, last residuals, an EWMA step rate and the
//! ETA it implies).  They are wall-clock-based and advisory.

use crate::journal::{EventKind, Record};
use lv_runtime::Lanes;
use lv_trace::json::{JsonArray, JsonObject};
use lv_trace::metrics::{MetricKind, MetricSpec, MetricsSnapshot, Registry};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Jobs accepted into the journal (deterministic counter).
pub const JOBS_SUBMITTED: usize = 0;
/// Jobs that reached their target step (deterministic counter).
pub const JOBS_DONE: usize = 1;
/// Jobs that exhausted their retry budget (deterministic counter).
pub const JOBS_FAILED: usize = 2;
/// Retry transitions (deterministic counter).
pub const JOB_RETRIES: usize = 3;
/// Slices started, i.e. `running` records (deterministic counter).
pub const SLICES_STARTED: usize = 4;
/// Slices preempted at their quota (deterministic counter).
pub const SLICES_PREEMPTED: usize = 5;
/// Steps committed by completed slices (deterministic counter).
pub const STEPS_COMMITTED: usize = 6;
/// Convergence-stall detections journaled by workers (deterministic
/// counter).
pub const SLOW_CONVERGENCE: usize = 7;
/// Jobs waiting in the scheduler queue (gauge).
pub const QUEUE_DEPTH: usize = 8;
/// Jobs currently on a worker (gauge).
pub const JOBS_IN_FLIGHT: usize = 9;
/// Slice wall-clock latency histogram, microseconds: the whole slice, from
/// its set-up to its closing journal append.
pub const SLICE_US: usize = 10;
/// Queue wait (submit/requeue to pull) histogram, microseconds.
pub const QUEUE_WAIT_US: usize = 11;
/// Journal append+fsync latency histogram, microseconds.
pub const JOURNAL_FSYNC_US: usize = 12;
/// Watchdog margin (deadline minus the mean step time of a slice's steps)
/// histogram, microseconds; a shrinking margin predicts stall verdicts.
pub const WATCHDOG_MARGIN_US: usize = 13;

/// The fleet taxonomy.  Order is load-bearing: the `const` ids above index
/// into it.
pub const FLEET_METRICS: &[MetricSpec] = &[
    MetricSpec {
        name: "fleet_jobs_submitted_total",
        kind: MetricKind::Counter,
        deterministic: true,
        help: "jobs accepted into the journal",
    },
    MetricSpec {
        name: "fleet_jobs_done_total",
        kind: MetricKind::Counter,
        deterministic: true,
        help: "jobs that reached their target step",
    },
    MetricSpec {
        name: "fleet_jobs_failed_total",
        kind: MetricKind::Counter,
        deterministic: true,
        help: "jobs that exhausted their retry budget",
    },
    MetricSpec {
        name: "fleet_job_retries_total",
        kind: MetricKind::Counter,
        deterministic: true,
        help: "retry transitions across all jobs",
    },
    MetricSpec {
        name: "fleet_slices_started_total",
        kind: MetricKind::Counter,
        deterministic: true,
        help: "slices started (journalled running records)",
    },
    MetricSpec {
        name: "fleet_slices_preempted_total",
        kind: MetricKind::Counter,
        deterministic: true,
        help: "slices preempted at their step quota",
    },
    MetricSpec {
        name: "fleet_steps_committed_total",
        kind: MetricKind::Counter,
        deterministic: true,
        help: "time steps committed by completed slices",
    },
    MetricSpec {
        name: "fleet_slow_convergence_total",
        kind: MetricKind::Counter,
        deterministic: true,
        help: "convergence-stall detections journalled by workers",
    },
    MetricSpec {
        name: "fleet_queue_depth",
        kind: MetricKind::Gauge,
        deterministic: false,
        help: "jobs waiting in the scheduler queue",
    },
    MetricSpec {
        name: "fleet_jobs_in_flight",
        kind: MetricKind::Gauge,
        deterministic: false,
        help: "jobs currently running on a worker",
    },
    MetricSpec {
        name: "fleet_slice_us",
        kind: MetricKind::Histogram,
        deterministic: false,
        help: "slice wall-clock latency (set-up to closing journal append) in microseconds",
    },
    MetricSpec {
        name: "fleet_queue_wait_us",
        kind: MetricKind::Histogram,
        deterministic: false,
        help: "queue wait from enqueue to worker pull in microseconds",
    },
    MetricSpec {
        name: "fleet_journal_fsync_us",
        kind: MetricKind::Histogram,
        deterministic: false,
        help: "journal append plus fsync latency in microseconds",
    },
    MetricSpec {
        name: "fleet_watchdog_margin_us",
        kind: MetricKind::Histogram,
        deterministic: false,
        help: "watchdog deadline margin left after each slice in microseconds",
    },
];

/// Smoothing factor for the per-job EWMA step rate: heavy enough to damp
/// single-slice jitter, light enough to track a real slowdown in a few
/// slices.
pub const EWMA_ALPHA: f64 = 0.3;

/// Live progress of one job, published by its worker after every slice.
/// Everything here is advisory: `step_rate` and `eta_seconds` carry
/// wall-clock noise by definition.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProgress {
    /// Job id.
    pub id: String,
    /// Steps committed so far (resume step after the slice).
    pub steps_done: u64,
    /// The job's target step count.
    pub target_steps: u64,
    /// Simulated time reached.
    pub sim_time: f64,
    /// Worst momentum-solve residual of the last step.
    pub momentum_residual: f64,
    /// Pressure-Poisson residual of the last step.
    pub poisson_residual: f64,
    /// EWMA steps per second (0 until the first timed slice).
    pub step_rate: f64,
    /// Remaining steps over `step_rate` (0 when done or rate unknown).
    pub eta_seconds: f64,
}

impl JobProgress {
    /// Renders one line-JSON object (for `metrics.json` and the `jobs`
    /// endpoint verb).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .str("id", &self.id)
            .u64("steps_done", self.steps_done)
            .u64("target_steps", self.target_steps)
            .f64("sim_time", self.sim_time)
            .f64_exp("momentum_residual", self.momentum_residual)
            .f64_exp("poisson_residual", self.poisson_residual)
            .f64_fixed("step_rate", self.step_rate, 3)
            .f64_fixed("eta_seconds", self.eta_seconds, 3)
            .finish()
    }
}

/// The supervisor's metrics: one [`Registry`] over [`FLEET_METRICS`], the
/// running-step fold that feeds [`STEPS_COMMITTED`], and the per-job
/// progress board.
#[derive(Debug)]
pub struct FleetMetrics {
    registry: Registry,
    /// Last `running` step per job with an open (unresolved) slice.
    open_slices: Mutex<HashMap<String, u64>>,
    /// Progress rows, keyed by job id (sorted for stable rendering).
    progress: Mutex<BTreeMap<String, JobProgress>>,
    /// The lanes of the process whose workers step the fleet; `None` for a
    /// fold that runs nothing.
    host_lanes: Option<Lanes>,
}

impl Default for FleetMetrics {
    fn default() -> Self {
        FleetMetrics::new()
    }
}

impl FleetMetrics {
    /// A fresh, all-zero fleet registry that describes no host — what a
    /// read-only fold of a journal uses.
    pub fn new() -> FleetMetrics {
        FleetMetrics {
            registry: Registry::new(FLEET_METRICS),
            open_slices: Mutex::new(HashMap::new()),
            progress: Mutex::new(BTreeMap::new()),
            host_lanes: None,
        }
    }

    /// [`new`](Self::new) for the process that runs the fleet's workers: the
    /// document's `host` block names the lanes this process selected.
    pub fn on_this_host() -> FleetMetrics {
        FleetMetrics { host_lanes: Some(Lanes::selected()), ..FleetMetrics::new() }
    }

    /// The underlying registry, for the host-dependent cells (gauges and
    /// histograms).  Deterministic counters must go through
    /// [`FleetMetrics::apply_record`] only — that is what keeps live and
    /// replayed fingerprints identical.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Folds one journal record into the deterministic counters.  Called
    /// live right after every successful append, and by
    /// [`FleetMetrics::replay`] on startup — the same code path, so the
    /// two can never drift.
    pub fn apply_record(&self, record: &Record) {
        match record.event {
            EventKind::Submitted => self.registry.add(JOBS_SUBMITTED, 1),
            EventKind::Running => {
                self.registry.add(SLICES_STARTED, 1);
                let step = record.step.unwrap_or(0);
                self.open_slices.lock().unwrap().insert(record.job.clone(), step);
            }
            EventKind::Preempted => {
                self.registry.add(SLICES_PREEMPTED, 1);
                self.commit_steps(record);
            }
            EventKind::Retrying => {
                self.registry.add(JOB_RETRIES, 1);
                // The attempt's steps are discarded with its state.
                self.open_slices.lock().unwrap().remove(&record.job);
            }
            EventKind::Done => {
                self.registry.add(JOBS_DONE, 1);
                self.commit_steps(record);
            }
            EventKind::Failed => {
                self.registry.add(JOBS_FAILED, 1);
                self.open_slices.lock().unwrap().remove(&record.job);
            }
            // One record may batch a whole slice's detections (`steps`).
            EventKind::SlowConvergence => {
                self.registry.add(SLOW_CONVERGENCE, record.steps.unwrap_or(1));
            }
        }
    }

    /// Closes the job's open slice and credits the steps it committed.
    fn commit_steps(&self, record: &Record) {
        let Some(from) = self.open_slices.lock().unwrap().remove(&record.job) else {
            return;
        };
        let to = record.step.unwrap_or(from);
        self.registry.add(STEPS_COMMITTED, to.saturating_sub(from));
    }

    /// Folds a whole replayed journal (startup and `serve status` on a
    /// dead supervisor's journal).
    pub fn replay(&self, records: &[Record]) {
        for record in records {
            self.apply_record(record);
        }
    }

    /// Snapshot of every cell (see [`Registry::snapshot`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Publishes a job's post-slice progress row, folding `step_rate` into
    /// the EWMA of earlier slices and deriving `eta_seconds` from it.
    pub fn publish_progress(&self, mut update: JobProgress) {
        let mut progress = self.progress.lock().unwrap();
        if let Some(prev) = progress.get(&update.id) {
            if prev.step_rate > 0.0 && update.step_rate > 0.0 {
                update.step_rate =
                    EWMA_ALPHA * update.step_rate + (1.0 - EWMA_ALPHA) * prev.step_rate;
            }
        }
        let remaining = update.target_steps.saturating_sub(update.steps_done);
        update.eta_seconds = if update.step_rate > 0.0 && remaining > 0 {
            remaining as f64 / update.step_rate
        } else {
            0.0
        };
        progress.insert(update.id.clone(), update);
    }

    /// Every published progress row, sorted by job id.
    pub fn progress(&self) -> Vec<JobProgress> {
        self.progress.lock().unwrap().values().cloned().collect()
    }

    /// Renders the full observability document written to
    /// `<journal>.metrics.json` at every checkpoint and served by the
    /// `metrics json` endpoint verb: the snapshot, the progress board and
    /// the host block.
    pub fn document(&self) -> String {
        let snapshot = self.snapshot();
        let mut jobs = JsonArray::new();
        for row in self.progress() {
            jobs.push_raw(&row.to_json());
        }
        JsonObject::new()
            .u64("format", 1)
            .raw("metrics", &snapshot.to_json())
            .array("jobs", jobs)
            .object(
                "host",
                JsonObject::new()
                    .str("lanes", self.host_lanes.map_or(lv_trace::UNKNOWN_LANES, Lanes::name)),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use lv_driver::scenario::{Scenario, ScenarioKind};

    fn record(event: EventKind, job: &str, step: Option<u64>) -> Record {
        let mut r = Record::new(event, job);
        r.step = step;
        r
    }

    #[test]
    fn the_fold_counts_transitions_and_committed_steps() {
        let metrics = FleetMetrics::new();
        let spec = JobSpec::new("a", Scenario::new(ScenarioKind::LidDrivenCavity, 4), 5);
        metrics.apply_record(&Record::submitted(&spec));
        // Attempt 1: runs from 0, panics mid-slice, retries.
        metrics.apply_record(&record(EventKind::Running, "a", Some(0)));
        metrics.apply_record(&record(EventKind::Retrying, "a", None));
        // Attempt 2: 0 -> 2 (preempted), 2 -> 5 (done), one stall event.
        metrics.apply_record(&record(EventKind::Running, "a", Some(0)));
        metrics.apply_record(&record(EventKind::Preempted, "a", Some(2)));
        metrics.apply_record(&record(EventKind::Running, "a", Some(2)));
        metrics.apply_record(&record(EventKind::SlowConvergence, "a", Some(3)));
        metrics.apply_record(&record(EventKind::Done, "a", Some(5)));

        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.scalar("fleet_jobs_submitted_total"), Some(1));
        assert_eq!(snapshot.scalar("fleet_jobs_done_total"), Some(1));
        assert_eq!(snapshot.scalar("fleet_jobs_failed_total"), Some(0));
        assert_eq!(snapshot.scalar("fleet_job_retries_total"), Some(1));
        assert_eq!(snapshot.scalar("fleet_slices_started_total"), Some(3));
        assert_eq!(snapshot.scalar("fleet_slices_preempted_total"), Some(1));
        // The retried attempt's steps are not progress: 2 + 3 only.
        assert_eq!(snapshot.scalar("fleet_steps_committed_total"), Some(5));
        assert_eq!(snapshot.scalar("fleet_slow_convergence_total"), Some(1));
    }

    #[test]
    fn replaying_the_records_reproduces_the_live_fingerprint() {
        let spec = JobSpec::new("a", Scenario::new(ScenarioKind::TaylorGreenVortex, 4), 4);
        let records = vec![
            Record::submitted(&spec),
            record(EventKind::Running, "a", Some(0)),
            record(EventKind::Preempted, "a", Some(2)),
            record(EventKind::Running, "a", Some(2)),
            record(EventKind::Done, "a", Some(4)),
        ];
        let live = FleetMetrics::new();
        for r in &records {
            live.apply_record(r);
            // Host-dependent noise must never leak into the fingerprint.
            live.registry().set(QUEUE_DEPTH, 3);
            live.registry().observe(SLICE_US, 1234);
        }
        let replayed = FleetMetrics::new();
        replayed.replay(&records);
        assert_eq!(
            live.snapshot().deterministic_fingerprint(),
            replayed.snapshot().deterministic_fingerprint()
        );
        assert_eq!(replayed.snapshot().scalar("fleet_steps_committed_total"), Some(4));
    }

    #[test]
    fn progress_rows_smooth_the_rate_and_derive_an_eta() {
        let metrics = FleetMetrics::new();
        let row = |steps_done: u64, rate: f64| JobProgress {
            id: "a".into(),
            steps_done,
            target_steps: 10,
            sim_time: 0.1,
            momentum_residual: 1e-9,
            poisson_residual: 1e-7,
            step_rate: rate,
            eta_seconds: 0.0,
        };
        metrics.publish_progress(row(2, 10.0));
        let published = &metrics.progress()[0];
        assert_eq!(published.step_rate, 10.0);
        assert!((published.eta_seconds - 0.8).abs() < 1e-12, "{}", published.eta_seconds);

        metrics.publish_progress(row(4, 20.0));
        let published = &metrics.progress()[0];
        let expected = EWMA_ALPHA * 20.0 + (1.0 - EWMA_ALPHA) * 10.0;
        assert!((published.step_rate - expected).abs() < 1e-12);

        // Finished jobs stop advertising an ETA.
        metrics.publish_progress(row(10, 20.0));
        assert_eq!(metrics.progress()[0].eta_seconds, 0.0);
        let json = metrics.progress()[0].to_json();
        assert!(json.contains("\"id\": \"a\", \"steps_done\": 10"), "{json}");
        assert!(json.contains("\"eta_seconds\": 0.000"), "{json}");
    }

    #[test]
    fn the_document_embeds_snapshot_and_progress_board() {
        let metrics = FleetMetrics::new();
        let spec = JobSpec::new("j1", Scenario::new(ScenarioKind::LidDrivenCavity, 4), 2);
        metrics.apply_record(&Record::submitted(&spec));
        metrics.publish_progress(JobProgress {
            id: "j1".into(),
            steps_done: 1,
            target_steps: 2,
            sim_time: 0.01,
            momentum_residual: 1e-10,
            poisson_residual: 1e-8,
            step_rate: 0.0,
            eta_seconds: 0.0,
        });
        let doc = metrics.document();
        assert!(doc.starts_with("{\"format\": 1, \"metrics\": {"), "{doc}");
        assert!(doc.contains("\"name\": \"fleet_jobs_submitted_total\""), "{doc}");
        assert!(doc.contains("\"jobs\": [{\"id\": \"j1\""), "{doc}");
        // A fold describes no host; the supervisor's registry names its own.
        assert!(doc.ends_with("\"host\": {\"lanes\": \"unknown\"}}"), "{doc}");
        let host = format!("\"host\": {{\"lanes\": \"{}\"}}}}", Lanes::selected());
        assert!(FleetMetrics::on_this_host().document().ends_with(&host));
    }
}
