//! Job descriptions, lifecycle states and structured job errors.
//!
//! A [`JobSpec`] is everything needed to (re)create a run from nothing: the
//! scenario, the step target and an optional fault-injection spec — which is
//! why the journal can store specs as flat fields and a restarted supervisor
//! can rebuild its whole fleet from the log alone.  A [`JobEntry`] is a job's
//! row of the job table: its status and failed attempts are the fold of its
//! journal records, and [`JobEntry::apply`] is the one fold — the supervisor
//! runs it after every append, [`crate::journal::ledger`] on replay.
//! [`JobError`] is the structured form every contained failure (panic,
//! stall, exhausted Δt retries, checkpoint I/O) collapses into before the
//! retry policy sees it.

use crate::journal::{EventKind, Record};
use lv_driver::{RunError, Scenario};

/// Everything needed to (re)create one supervised run.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique job id; also the stem of the job's checkpoint-ring files, so
    /// it is restricted to `[A-Za-z0-9._-]` (see [`valid_job_id`]).
    pub id: String,
    /// The flow to run.
    pub scenario: Scenario,
    /// Target step count: the job is done when its state reaches this step.
    pub steps: u64,
    /// Optional [`lv_driver::FaultPlan`] CLI spec (`kind@step,...,seed=N`),
    /// journaled verbatim so a replayed supervisor re-arms the same faults.
    pub inject: Option<String>,
}

impl JobSpec {
    /// A job with no injected faults.
    pub fn new(id: impl Into<String>, scenario: Scenario, steps: u64) -> Self {
        JobSpec { id: id.into(), scenario, steps, inject: None }
    }

    /// Builder: attach a fault-injection spec.
    pub fn with_inject(mut self, spec: impl Into<String>) -> Self {
        self.inject = Some(spec.into());
        self
    }
}

/// Whether `id` is safe to use as a journal key and a checkpoint-file stem.
pub fn valid_job_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        && !id.starts_with('.')
}

/// Where a job is in its lifecycle: the state its last journaled
/// transition left it in (see [`JobEntry::apply`]).
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Submitted, never scheduled.
    Queued,
    /// A worker claimed a slice (the *last journaled* fact after a crash —
    /// replay treats it as "pending, resume from the ring").
    Running {
        /// Worker index that claimed the slice.
        worker: usize,
        /// Step the slice started from.
        step: u64,
    },
    /// Preempted at its slice quota and requeued, checkpointed at `step`.
    Preempted {
        /// Step of the checkpoint the job will resume from.
        step: u64,
    },
    /// A slice failed; the job is requeued after `attempt` failed attempts.
    Retrying {
        /// Failed attempts so far.
        attempt: u64,
    },
    /// Finished: the final state is the newest intact ring generation.
    Done {
        /// The final step.
        step: u64,
    },
    /// Retry budget exhausted (or the journal itself became unwritable).
    Failed {
        /// Human-readable cause, from the final [`JobError`].
        error: String,
    },
}

impl JobStatus {
    /// Whether the job needs no further scheduling.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobStatus::Done { .. } | JobStatus::Failed { .. })
    }

    /// Stable one-word name (the journal's event vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running { .. } => "running",
            JobStatus::Preempted { .. } => "preempted",
            JobStatus::Retrying { .. } => "retrying",
            JobStatus::Done { .. } => "done",
            JobStatus::Failed { .. } => "failed",
        }
    }
}

impl std::fmt::Display for JobStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobStatus::Queued => write!(f, "queued"),
            JobStatus::Running { worker, step } => write!(f, "running@{worker} (step {step})"),
            JobStatus::Preempted { step } => write!(f, "preempted (step {step})"),
            JobStatus::Retrying { attempt } => write!(f, "retrying (attempt {attempt})"),
            JobStatus::Done { step } => write!(f, "done (step {step})"),
            JobStatus::Failed { error } => write!(f, "failed: {error}"),
        }
    }
}

/// How many of `jobs` are done, failed and still pending, in that order —
/// the one count behind every fleet summary.
pub fn tally(jobs: &[JobEntry]) -> (usize, usize, usize) {
    jobs.iter().fold((0, 0, 0), |(done, failed, pending), job| match job.status {
        JobStatus::Done { .. } => (done + 1, failed, pending),
        JobStatus::Failed { .. } => (done, failed + 1, pending),
        _ => (done, failed, pending + 1),
    })
}

/// One job's row of the job table: its spec and the fold of its records.
#[derive(Debug, Clone)]
pub struct JobEntry {
    /// The spec, from the `submitted` record.
    pub spec: JobSpec,
    /// The state after the job's last transition record.
    pub status: JobStatus,
    /// Failed attempts so far: the highest `attempt` of the job's
    /// `retrying` and `failed` records.
    pub attempts: u64,
}

impl JobEntry {
    /// A submitted job: queued, no failed attempts.
    pub fn new(spec: JobSpec) -> JobEntry {
        JobEntry { spec, status: JobStatus::Queued, attempts: 0 }
    }

    /// Folds one of this job's records into the entry.  `submitted` (the
    /// entry itself) and `slow_convergence` (a diagnostic) change nothing.
    /// A `retrying` or `failed` record without an `attempt` counts as one
    /// more failed attempt.
    pub fn apply(&mut self, record: &Record) {
        let step = record.step.unwrap_or(0);
        self.status = match record.event {
            EventKind::Submitted | EventKind::SlowConvergence => return,
            EventKind::Running => {
                JobStatus::Running { worker: record.worker.unwrap_or(0) as usize, step }
            }
            EventKind::Preempted => JobStatus::Preempted { step },
            EventKind::Done => JobStatus::Done { step },
            EventKind::Retrying | EventKind::Failed => {
                let attempt = record.attempt.unwrap_or(self.attempts + 1);
                self.attempts = self.attempts.max(attempt);
                if record.event == EventKind::Retrying {
                    JobStatus::Retrying { attempt }
                } else {
                    let error = record.error.as_deref().unwrap_or("unknown");
                    JobStatus::Failed { error: error.to_string() }
                }
            }
        };
    }
}

/// A contained slice failure, as the retry policy sees it.
#[derive(Debug, Clone)]
pub enum JobError {
    /// A worker panicked inside the slice; `Team`'s panic-safe join plus
    /// the supervisor's `catch_unwind` turned it into this record.
    Panicked(String),
    /// The watchdog saw one step exceed its wall-clock deadline.
    Stalled {
        /// The offending step.
        step: u64,
        /// Wall-clock seconds the step took.
        elapsed: f64,
        /// The configured per-step deadline, seconds.
        deadline: f64,
    },
    /// The stepper exhausted its per-step Δt-retry budget.
    Run(RunError),
    /// Checkpoint-ring or journal I/O failed.
    Checkpoint(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(message) => write!(f, "worker panic: {message}"),
            JobError::Stalled { step, elapsed, deadline } => write!(
                f,
                "stalled: step {step} took {elapsed:.3}s (watchdog deadline {deadline:.3}s)"
            ),
            JobError::Run(error) => write!(f, "{error}"),
            JobError::Checkpoint(message) => write!(f, "checkpoint: {message}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_are_filename_safe() {
        assert!(valid_job_id("job-1"));
        assert!(valid_job_id("tg_8.retry"));
        assert!(!valid_job_id(""));
        assert!(!valid_job_id(".hidden"));
        assert!(!valid_job_id("a/b"));
        assert!(!valid_job_id("a b"));
        assert!(!valid_job_id(&"x".repeat(65)));
    }

    #[test]
    fn terminal_states_and_names() {
        assert!(JobStatus::Done { step: 4 }.is_terminal());
        assert!(JobStatus::Failed { error: "x".into() }.is_terminal());
        assert!(!JobStatus::Preempted { step: 4 }.is_terminal());
        assert_eq!(JobStatus::Running { worker: 1, step: 2 }.name(), "running");
        assert_eq!(JobStatus::Running { worker: 1, step: 2 }.to_string(), "running@1 (step 2)");
        assert_eq!(
            JobError::Stalled { step: 3, elapsed: 0.5, deadline: 0.1 }.to_string(),
            "stalled: step 3 took 0.500s (watchdog deadline 0.100s)"
        );
    }
}
