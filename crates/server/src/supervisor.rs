//! The supervisor: M worker `Team`s multiplexing a journaled job queue.
//!
//! Each worker owns one [`lv_runtime::Team`] and pulls jobs from a shared
//! queue.  A pulled job runs **one bounded slice** ([`Stepper::run_slice_on`]):
//! resume from the newest intact generation of the job's private
//! [`CheckpointRing`] (or from scratch), advance at most `slice_steps`
//! steps under a per-step wall-clock watchdog, checkpoint, and either
//! finish, requeue (preemption), or enter the retry path.  State travels
//! *only* through checkpoints, so a job hops freely between workers — and
//! between supervisor processes — with zero trajectory drift: the
//! trajectory is a pure function of the simulation state, never of the
//! schedule.  Both ends of a slice belong to the stepper:
//! [`Stepper::resume_on`] opens it and [`Stepper::checkpoint_on`] closes
//! it.  A job holds **one** [`FaultPlan`]: the stepper fires every kind,
//! checkpoint faults included, and the supervisor reads the plan back
//! after the checkpoint and on every failure path, carrying it into the
//! next slice's stepper so a fired fault never fires twice.
//!
//! What a stepper runs on is set up once per server and key: the server
//! keeps one [`Discretization`] per (scenario kind, resolution, viscosity,
//! density, `VECTOR_SIZE`), built lazily by the first slice of any job on
//! that key — never at [`Server::open`] or [`Server::submit`] — and shared
//! by every later slice ([`Stepper::from_shared`]).  A per-key
//! [`OnceLock`] runs at most one build even when two workers ask at once;
//! the `server/setup` span (`aux` 0 = built, 1 = reused) records which.
//!
//! Failure containment, from the inside out:
//!
//! 1. Δt-retry *inside* a step (PR 7's recovery, unchanged);
//! 2. `catch_unwind` around the slice: a worker panic (re-thrown by
//!    `Team`'s panic-safe join) becomes [`JobError::Panicked`];
//! 3. the watchdog: a step exceeding [`ServerConfig::step_deadline`]
//!    becomes [`JobError::Stalled`] and the slice's state is discarded —
//!    the retry replays from the last checkpoint;
//! 4. the per-job retry budget with exponential backoff; exhaustion
//!    degrades to a journaled `failed` record without touching the fleet;
//! 5. the write-ahead journal: every transition is fsynced before it takes
//!    effect, so `kill -9` at any instant loses at most the work since the
//!    last checkpoint — never a job, never a trajectory.

use crate::endpoint::{self, Request};
use crate::job::{tally, valid_job_id, JobEntry, JobError, JobSpec};
use crate::journal::{ledger, EventKind, Journal, Record};
use crate::metrics::{self, FleetMetrics, JobProgress};
use lv_driver::{
    CheckpointRing, Discretization, FaultPlan, Scenario, ScenarioKind, SliceEnd, Stepper,
    StepperConfig,
};
use lv_runtime::{Team, TraceConfig};
use lv_trace::json::JsonObject;
use lv_trace::summary::RunSummary;
use lv_trace::{sink, spans, Event};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Supervisor policy knobs.  All scheduling policy lives here; none of it
/// can reach a trajectory.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker `Team`s pulling jobs concurrently.
    pub workers: usize,
    /// Threads per worker team (jobs are bitwise identical across any
    /// value, so this is purely a throughput knob).
    pub threads_per_worker: usize,
    /// Step quota per slice: how long a job may hold a worker before it is
    /// preempted, checkpointed and requeued.
    pub slice_steps: u64,
    /// Watchdog: a single step exceeding this wall-clock deadline marks the
    /// job stalled (detected cooperatively at the step boundary — the
    /// injected [`FaultKind::Stall`](lv_driver::FaultKind::Stall) busy-wait
    /// is bounded, so detection is prompt).
    pub step_deadline: Duration,
    /// Slice-failure retry budget per job (panics, stalls, exhausted
    /// Δt-retries, checkpoint I/O).  Attempt `k` backs off
    /// `10 ms · 2^(k-1)` (capped at 2 s) before requeueing.
    pub max_job_retries: u64,
    /// Directory of the per-job checkpoint rings (`<dir>/<id>.ckpt.N`).
    pub checkpoint_dir: PathBuf,
    /// Ring depth per job.
    pub ring_depth: usize,
    /// Stop pulling work after this many slices — a graceful drain used by
    /// tests to emulate a supervisor dying mid-run (jobs stay pending in
    /// the journal, exactly as after a real kill).
    pub max_slices: Option<u64>,
    /// Arm per-worker `lv-trace` buffers (`server/*` spans).
    pub traced: bool,
    /// Print scheduling transitions to stdout (the CLI wants them; tests
    /// and the benchmark keep quiet).
    pub verbose: bool,
    /// Serve the read-only introspection socket at `<journal>.sock` while
    /// [`Server::run`] is live (see [`crate::endpoint`]).
    pub endpoint: bool,
    /// Write each worker's trace log to `<dir>/worker-<k>.trace.jsonl`
    /// when the run ends (implies `traced`).  `serve timeline` merges
    /// these with the journal.
    pub trace_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            threads_per_worker: 1,
            slice_steps: 4,
            step_deadline: Duration::from_secs(30),
            max_job_retries: 3,
            checkpoint_dir: std::env::temp_dir().join("lv-server"),
            ring_depth: 3,
            max_slices: None,
            traced: false,
            verbose: false,
            endpoint: false,
            trace_dir: None,
        }
    }
}

impl ServerConfig {
    /// The stepper configuration every job runs with (the fault plan is
    /// added per job).  Exposed so oracle runs in tests can match it exactly.
    pub fn stepper_config(&self) -> StepperConfig {
        StepperConfig::default()
    }

    /// The checkpoint ring of job `id`.
    fn ring(&self, id: &str) -> CheckpointRing {
        CheckpointRing::new(self.checkpoint_dir.join(format!("{id}.ckpt")), self.ring_depth.max(1))
    }

    /// Whether workers carry trace buffers ([`ServerConfig::trace_dir`]
    /// implies [`ServerConfig::traced`]).
    pub fn tracing(&self) -> bool {
        self.traced || self.trace_dir.is_some()
    }
}

/// What replaying the journal found at [`Server::open`] time.
#[derive(Debug, Clone, Default)]
pub struct ReplaySummary {
    /// Jobs in the journal.
    pub jobs: usize,
    /// Already finished.
    pub done: usize,
    /// Permanently failed.
    pub failed: usize,
    /// Pending: queued, or in flight when the previous supervisor died —
    /// these resume from their checkpoint rings.
    pub pending: usize,
    /// Whether a torn trailing journal line (an interrupted append) was
    /// truncated away.
    pub torn_tail: bool,
}

impl std::fmt::Display for ReplaySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "journal replay: {} job(s): {} done, {} failed, {} pending{}",
            self.jobs,
            self.done,
            self.failed,
            self.pending,
            if self.torn_tail { " (torn tail truncated)" } else { "" }
        )
    }
}

/// Fleet totals of one [`Server::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Jobs that finished.
    pub done: usize,
    /// Jobs that exhausted their retry budget.
    pub failed: usize,
    /// Jobs still pending (only possible when `max_slices` drained early).
    pub pending: usize,
    /// Slices executed across all workers.
    pub slices: u64,
}

impl RunReport {
    /// Whether every job finished.
    pub fn all_done(&self) -> bool {
        self.failed == 0 && self.pending == 0
    }
}

/// Base and cap of the exponential retry backoff.
const BACKOFF_BASE: Duration = Duration::from_millis(10);
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// One job's in-memory seat: its journal-folded entry plus the live fault
/// plan, parsed from the spec at the job's first slice and carried from
/// one slice's stepper to the next.  The plan is process-local on purpose —
/// after a crash it is re-parsed from the spec, which is sound because
/// trajectories are invariant to when (or how often) these faults fire.
#[derive(Debug)]
struct JobSlot {
    entry: JobEntry,
    plan: Option<FaultPlan>,
}

/// What decides a job's [`Discretization`]: the scenario's fields (the
/// floats by their bits — `Scenario` has no equality of its own) and the
/// `VECTOR_SIZE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DiscretizationKey {
    kind: ScenarioKind,
    resolution: usize,
    viscosity: u64,
    density: u64,
    vector_size: usize,
}

impl DiscretizationKey {
    fn new(scenario: &Scenario, vector_size: usize) -> Self {
        DiscretizationKey {
            kind: scenario.kind,
            resolution: scenario.resolution,
            viscosity: scenario.viscosity.to_bits(),
            density: scenario.density.to_bits(),
            vector_size,
        }
    }
}

/// The discretizations a server's slices run on, one per key, built by the
/// first slice that needs it and shared by every later one, and dropped
/// when the last queued or running job of the key ends
/// ([`Discretizations::release`]).  The map lock is held only to find a
/// key's cell; the cell's [`OnceLock`] runs at most one build per key, and
/// a second worker asking meanwhile waits for that build instead of
/// starting its own.
#[derive(Debug, Default)]
struct Discretizations {
    cells: Mutex<HashMap<DiscretizationKey, Arc<OnceLock<Arc<Discretization>>>>>,
}

impl Discretizations {
    /// The discretization of `scenario` at `vector_size`, and whether this
    /// call built it (`false`: an earlier slice did).
    fn get(&self, scenario: &Scenario, vector_size: usize) -> (Arc<Discretization>, bool) {
        let key = DiscretizationKey::new(scenario, vector_size);
        let cell = Arc::clone(self.cells.lock().unwrap().entry(key).or_default());
        let mut built = false;
        let shared = cell.get_or_init(|| {
            built = true;
            Arc::new(Discretization::new(scenario.clone(), vector_size))
        });
        (Arc::clone(shared), built)
    }

    /// Drops the discretization of `scenario` at `vector_size` unless a job
    /// of its key in `slots` is still queued or running — called after a
    /// job of the key reached a terminal state.  Every job updates its own
    /// status before it looks at the others', so of two jobs of a key that
    /// end at once at least one sees the other ended.  A slice that still
    /// holds the discretization keeps it alive until it drops it.
    fn release(&self, scenario: &Scenario, vector_size: usize, slots: &[Mutex<JobSlot>]) {
        let key = DiscretizationKey::new(scenario, vector_size);
        let live = slots.iter().any(|slot| {
            let entry = &slot.lock().unwrap().entry;
            !entry.status.is_terminal()
                && DiscretizationKey::new(&entry.spec.scenario, vector_size) == key
        });
        if !live {
            self.cells.lock().unwrap().remove(&key);
        }
    }
}

/// Every job's entry, in submission order.
fn snapshot(slots: &[Mutex<JobSlot>]) -> Vec<JobEntry> {
    slots.iter().map(|slot| slot.lock().unwrap().entry.clone()).collect()
}

/// Scheduler state under the queue mutex.  Queue entries carry their
/// enqueue instant so the pull side can observe the queue-wait histogram.
struct Sched {
    queue: VecDeque<(usize, Instant)>,
    active: usize,
    slices: u64,
    halted: bool,
}

struct Shared<'a> {
    config: &'a ServerConfig,
    journal: &'a Mutex<Journal>,
    slots: &'a [Mutex<JobSlot>],
    sched: Mutex<Sched>,
    cv: Condvar,
    /// The fleet registry (journal fold, gauges, latency histograms).
    metrics: &'a FleetMetrics,
    /// Where the metrics document is flushed at journal checkpoints.
    metrics_path: PathBuf,
    /// The server's discretizations, shared by its slices.
    discretizations: &'a Discretizations,
}

impl Shared<'_> {
    /// Refreshes the queue gauges from scheduler state (call under the
    /// sched lock, after any mutation).
    fn set_queue_gauges(&self, sched: &Sched) {
        let registry = self.metrics.registry();
        registry.set(metrics::QUEUE_DEPTH, sched.queue.len() as u64);
        registry.set(metrics::JOBS_IN_FLIGHT, sched.active as u64);
    }
}

/// The supervised simulation service (see the module docs).
pub struct Server {
    config: ServerConfig,
    journal: Mutex<Journal>,
    slots: Vec<Mutex<JobSlot>>,
    replay: ReplaySummary,
    summaries: Vec<RunSummary>,
    metrics: FleetMetrics,
    discretizations: Discretizations,
}

impl Server {
    /// Opens the service over the journal at `journal_path`, replaying any
    /// existing log into the in-memory job table and truncating a torn
    /// trailing line.  Creates `config.checkpoint_dir` if needed.
    ///
    /// # Errors
    /// Journal I/O failures, or `InvalidData` for a log this code could not
    /// have written (see [`crate::journal::ledger`]).
    pub fn open(journal_path: impl Into<PathBuf>, config: ServerConfig) -> io::Result<Server> {
        std::fs::create_dir_all(&config.checkpoint_dir)?;
        let (journal, replay) = Journal::open(journal_path)?;
        let entries = ledger(&replay.records)?;
        // The deterministic counters are a pure fold of the journal, so a
        // reopened supervisor starts exactly where the dead one's metrics
        // ended — same code path as the live fold in `journal_append`.
        let fleet = FleetMetrics::on_this_host();
        fleet.replay(&replay.records);
        let (done, failed, pending) = tally(&entries);
        let replay = ReplaySummary {
            jobs: entries.len(),
            done,
            failed,
            pending,
            torn_tail: replay.torn_tail,
        };
        let slots =
            entries.into_iter().map(|entry| Mutex::new(JobSlot { entry, plan: None })).collect();
        Ok(Server {
            config,
            journal: Mutex::new(journal),
            slots,
            replay,
            summaries: Vec::new(),
            metrics: fleet,
            discretizations: Discretizations::default(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// What the opening replay found.
    pub fn replay(&self) -> &ReplaySummary {
        &self.replay
    }

    /// The fleet metrics.
    pub fn metrics(&self) -> &FleetMetrics {
        &self.metrics
    }

    /// Submits a job: journals the `submitted` record (write-ahead), then
    /// queues it.  Nothing else is written: the metrics document is the
    /// run's to flush, and nothing is built until a slice needs it.
    ///
    /// # Errors
    /// `InvalidInput` for an invalid id, a duplicate id, or an inject spec
    /// that does not parse; otherwise journal I/O failures.
    pub fn submit(&mut self, spec: JobSpec) -> io::Result<()> {
        let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidInput, what);
        if !valid_job_id(&spec.id) {
            return Err(invalid(format!(
                "invalid job id '{}' (want 1-64 chars of [A-Za-z0-9._-], not starting with '.')",
                spec.id
            )));
        }
        if self.slots.iter().any(|s| s.lock().unwrap().entry.spec.id == spec.id) {
            return Err(invalid(format!("job id '{}' already in the journal", spec.id)));
        }
        if spec.steps == 0 {
            return Err(invalid(format!("job '{}' has a zero step target", spec.id)));
        }
        if let Some(inject) = &spec.inject {
            FaultPlan::parse(inject)
                .map_err(|e| invalid(format!("job '{}': bad inject spec: {e}", spec.id)))?;
        }
        let record = Record::submitted(&spec);
        let mut journal = self.journal.lock().unwrap();
        journal.append(record.clone())?;
        // One record and no document: a document a run left behind no
        // longer counts this job, so it goes, and `serve metrics` folds the
        // journal until the next run flushes one.
        let _ = std::fs::remove_file(endpoint::metrics_json_path(journal.path()));
        drop(journal);
        self.metrics.apply_record(&record);
        self.slots.push(Mutex::new(JobSlot { entry: JobEntry::new(spec), plan: None }));
        Ok(())
    }

    /// Snapshot of every job, in submission order.
    pub fn jobs(&self) -> Vec<JobEntry> {
        snapshot(&self.slots)
    }

    /// The checkpoint ring of `id` — where a finished job's final state
    /// lives (and a pending job's newest resume point).
    pub fn ring(&self, id: &str) -> CheckpointRing {
        self.config.ring(id)
    }

    /// Per-worker trace summaries of the last [`Server::run`] (empty unless
    /// [`ServerConfig::traced`]).
    pub fn trace_summaries(&self) -> &[RunSummary] {
        &self.summaries
    }

    /// Runs every pending job to completion (or failure), multiplexing them
    /// over [`ServerConfig::workers`] worker teams.  Returns the fleet
    /// totals; per-job outcomes are in [`Server::jobs`].
    pub fn run(&mut self) -> RunReport {
        let start = Instant::now();
        let queue: VecDeque<(usize, Instant)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| !slot.lock().unwrap().entry.status.is_terminal())
            .map(|(index, _)| (index, start))
            .collect();
        let journal_path = self.journal.lock().unwrap().path().to_path_buf();
        let shared = Shared {
            config: &self.config,
            journal: &self.journal,
            slots: &self.slots,
            sched: Mutex::new(Sched { queue, active: 0, slices: 0, halted: false }),
            cv: Condvar::new(),
            metrics: &self.metrics,
            metrics_path: endpoint::metrics_json_path(&journal_path),
            discretizations: &self.discretizations,
        };
        shared.set_queue_gauges(&shared.sched.lock().unwrap());
        let workers = self.config.workers.max(1);
        let mut summaries = Vec::new();
        let shared = &shared;
        let socket = self.config.endpoint.then(|| endpoint::socket_path(&journal_path));
        let stop = AtomicBool::new(false);
        let stop = &stop;
        std::thread::scope(|scope| {
            let endpoint_thread = socket.as_deref().and_then(|path| {
                match endpoint::bind(path) {
                    Ok(listener) => Some(scope.spawn(move || {
                        endpoint::serve(&listener, stop, |request| respond(request, shared));
                    })),
                    Err(e) => {
                        // Observability must never take down the fleet.
                        if shared.config.verbose {
                            say_line(std::format_args!(
                                "endpoint unavailable ({e}); running without it"
                            ));
                        }
                        None
                    }
                }
            });
            let handles: Vec<_> = (0..workers)
                .map(|worker| scope.spawn(move || worker_loop(worker, shared)))
                .collect();
            for handle in handles {
                if let Some(summary) = handle.join().expect("worker loop never panics") {
                    summaries.push(summary);
                }
            }
            stop.store(true, Ordering::Relaxed);
            if let Some(handle) = endpoint_thread {
                let _ = handle.join();
            }
        });
        if let Some(path) = &socket {
            let _ = std::fs::remove_file(path);
        }
        // Leave the final document behind for post-mortem clients.
        flush_metrics_json(shared.metrics, &shared.metrics_path);
        self.summaries = summaries;
        let slices = shared.sched.lock().unwrap().slices;
        let (done, failed, pending) = tally(&self.jobs());
        RunReport { done, failed, pending, slices }
    }
}

/// Verbose logging that survives a closed stdout: a supervisor must never
/// crash a worker (and with it the fleet) because `serve run | head` hung
/// up the pipe — `println!` would panic on the broken pipe.
fn say_line(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    let _ = out.write_fmt(line);
    let _ = out.write_all(b"\n");
}

/// `println!` that ignores I/O errors (see [`say_line`]).
macro_rules! say {
    ($($arg:tt)*) => { say_line(std::format_args!($($arg)*)) };
}

/// One worker: pull, slice, repeat until the queue drains (or the drain
/// limit halts the fleet).  Returns the team's trace summary when traced.
fn worker_loop(worker: usize, shared: &Shared<'_>) -> Option<RunSummary> {
    let mut team = if shared.config.tracing() {
        Team::with_trace(shared.config.threads_per_worker, TraceConfig::default())
    } else {
        Team::new(shared.config.threads_per_worker)
    };
    loop {
        let pulled = {
            let mut sched = shared.sched.lock().unwrap();
            loop {
                if sched.halted {
                    break None;
                }
                if let Some((index, enqueued)) = sched.queue.pop_front() {
                    sched.active += 1;
                    shared.set_queue_gauges(&sched);
                    shared
                        .metrics
                        .registry()
                        .observe(metrics::QUEUE_WAIT_US, enqueued.elapsed().as_micros() as u64);
                    break Some(index);
                }
                if sched.active == 0 {
                    break None;
                }
                sched = shared.cv.wait(sched).unwrap();
            }
        };
        let Some(index) = pulled else {
            shared.cv.notify_all();
            break;
        };
        let requeue = run_one_slice(worker, index, &team, shared);
        {
            let mut sched = shared.sched.lock().unwrap();
            sched.active -= 1;
            sched.slices += 1;
            if shared.config.max_slices.is_some_and(|max| sched.slices >= max) {
                sched.halted = true;
            }
            if requeue {
                sched.queue.push_back((index, Instant::now()));
            }
            shared.set_queue_gauges(&sched);
        }
        shared.cv.notify_all();
    }
    // Drain the trace once: the same events feed the on-disk log (for
    // `serve timeline`) and the in-memory summary.
    team.trace_mut().map(|trace| {
        let events = trace.events();
        let counters = trace.counter_rows();
        if let Some(dir) = &shared.config.trace_dir {
            let log = sink::write_jsonl(trace.lanes(), &events, &counters);
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(dir.join(format!("worker-{worker}.trace.jsonl")), log);
        }
        RunSummary {
            lanes: trace.lanes().to_string(),
            ..RunSummary::from_events(&events, counters)
        }
    })
}

/// Runs one slice of job `index` on `team`.  Returns whether the job goes
/// back into the queue (preempted or retrying).
fn run_one_slice(worker: usize, index: usize, team: &Team, shared: &Shared<'_>) -> bool {
    // The whole slice, set-up to the closing journal append.
    let started = Instant::now();
    let config = shared.config;
    let (spec, attempts, plan) = {
        let mut slot = shared.slots[index].lock().unwrap();
        let plan = slot.plan.take().unwrap_or_else(|| {
            slot.entry
                .spec
                .inject
                .as_deref()
                .map(|spec| FaultPlan::parse(spec).expect("inject specs are validated at open"))
                .unwrap_or_default()
        });
        (slot.entry.spec.clone(), slot.entry.attempts, plan)
    };
    let trace = team.trace();
    let ring = config.ring(&spec.id);
    // The slice span opens before the set-up, which is its first child.
    let slice_span = trace.map(|t| t.span(spans::SERVER_SLICE, 0).aux(index as u64));

    // --- set-up: the shared discretization (built by the first slice of
    // its key, reused by every other), then the newest intact ring
    // generation on it, or the initial state -----------------------------
    let setup_span = trace.map(|t| t.span(spans::SERVER_SETUP, 0));
    let stepper_config = config.stepper_config().with_fault_plan(plan);
    let vector_size = stepper_config.vector_size;
    let (discretization, built) = shared.discretizations.get(&spec.scenario, vector_size);
    let resumed = Stepper::resume_on(team, &discretization, stepper_config.clone(), &ring);
    let mut stepper = match resumed {
        Ok(resumed) => {
            let step = resumed.stepper.state().step;
            if config.verbose {
                for (slot_path, why) in &resumed.skipped {
                    say!(
                        "job {}: skipping damaged checkpoint generation {}: {why}",
                        spec.id,
                        slot_path.display()
                    );
                }
                say!(
                    "resuming job {} from ring generation {} (step {step})",
                    spec.id,
                    resumed.generation
                );
            }
            if let Some(t) = trace {
                t.record(Event {
                    aux: step,
                    ..Event::instant(spans::SERVER_RESUME, 0, t.now_ns())
                });
            }
            resumed.stepper
        }
        Err(e) => {
            // An empty ring is a first slice; an unusable one degrades to a
            // fresh start — the trajectory is the same one, replayed from
            // step 0.
            if config.verbose && e.kind() != io::ErrorKind::NotFound {
                say!("job {}: checkpoint ring unusable ({e}); restarting from step 0", spec.id);
            }
            let initial = discretization.initial_state();
            Stepper::from_shared(discretization, stepper_config, initial)
        }
    };
    if let Some(span) = setup_span {
        span.iters(1).aux(u64::from(!built)).finish();
    }
    let resume_step = stepper.state().step;

    // Write-ahead: claim the slice in the journal before computing.
    let mut running = Record::new(EventKind::Running, &spec.id);
    running.worker = Some(worker as u64);
    running.step = Some(resume_step);
    let claimed = journal_append(shared, team, index, &running).is_ok();

    // --- the record that ends the slice ----------------------------------
    let record = if !claimed {
        // The log is gone; without write-ahead there is no crash safety, so
        // the job fails in memory (the tail folds this record without
        // journaling it) and the fleet stays alive.
        let mut failed = Record::new(EventKind::Failed, &spec.id);
        failed.attempt = Some(attempts);
        failed.error = Some("journal unwritable".to_string());
        failed
    } else if resume_step >= spec.steps {
        // A `done` record lost to a crash after the final checkpoint: the
        // ring already holds the finished state, so just re-journal the fact.
        let mut done = Record::new(EventKind::Done, &spec.id);
        done.step = Some(resume_step);
        done.time = Some(stepper.state().time);
        done
    } else {
        // --- the slice itself, panic-contained ---------------------------
        let quota = config.slice_steps.max(1);
        let deadline = Some(config.step_deadline);
        let slice_start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            stepper.run_slice_on(team, spec.steps, quota, deadline)
        }));
        let slice_elapsed = slice_start.elapsed();
        let steps_done = stepper.state().step.saturating_sub(resume_step);
        if let Some(span) = slice_span {
            span.iters(steps_done).finish();
        }
        if steps_done > 0 {
            // Margin left under the per-step watchdog, using the slice's
            // mean step time: a shrinking margin predicts stall verdicts.
            let mean_step = slice_elapsed / steps_done as u32;
            let margin = config.step_deadline.saturating_sub(mean_step);
            let registry = shared.metrics.registry();
            registry.observe(metrics::WATCHDOG_MARGIN_US, margin.as_micros() as u64);
        }
        // Journal the slice's convergence-stall detections (the stepper is
        // slice-local, so this count is exactly this slice's).  A retried
        // slice replays its detections — deterministically, like every
        // other replayed transition.
        let stalls = stepper.slow_convergence_events();
        if stalls > 0 {
            let mut record = Record::new(EventKind::SlowConvergence, &spec.id);
            record.worker = Some(worker as u64);
            record.step = Some(stepper.state().step);
            record.steps = Some(stalls);
            let _ = journal_append(shared, team, index, &record);
            if config.verbose {
                say!(
                    "job {}: {stalls} slow-convergence event(s) in the slice ending at step {}",
                    spec.id,
                    stepper.state().step
                );
            }
        }

        let outcome = match result {
            Err(payload) => Err(JobError::Panicked(panic_message(payload))),
            Ok(Err(run_error)) => Err(JobError::Run(run_error)),
            Ok(Ok(slice)) => match slice.end {
                SliceEnd::DeadlineExceeded { step, elapsed } => Err(JobError::Stalled {
                    step,
                    elapsed,
                    deadline: config.step_deadline.as_secs_f64(),
                }),
                SliceEnd::Completed | SliceEnd::QuotaExhausted => stepper
                    .checkpoint_on(team, &ring)
                    .map(|(_, fault)| {
                        if let Some(done) = fault.filter(|_| config.verbose) {
                            say!("job {}: [inject] {done}", spec.id);
                        }
                        slice
                    })
                    .map_err(|e| JobError::Checkpoint(e.to_string())),
            },
        };
        match outcome {
            Ok(slice) => {
                publish_progress(shared, &spec, &stepper, &slice, steps_done, slice_elapsed);
                let mut record = if slice.end == SliceEnd::Completed {
                    let mut done = Record::new(EventKind::Done, &spec.id);
                    done.time = Some(stepper.state().time);
                    done
                } else {
                    let mut preempted = Record::new(EventKind::Preempted, &spec.id);
                    preempted.worker = Some(worker as u64);
                    preempted
                };
                record.step = Some(stepper.state().step);
                record
            }
            // --- the retry path: bounded, backed off, journaled ----------
            Err(error) => {
                let attempt = attempts + 1;
                let mut record = if attempt > config.max_job_retries {
                    Record::new(EventKind::Failed, &spec.id)
                } else {
                    let mut retrying = Record::new(EventKind::Retrying, &spec.id);
                    retrying.worker = Some(worker as u64);
                    retrying
                };
                record.attempt = Some(attempt);
                record.error = Some(error.to_string());
                record
            }
        }
    };

    // --- one tail for every transition: journal and fold the record ------
    if claimed {
        let _ = journal_append(shared, team, index, &record);
    } else {
        shared.slots[index].lock().unwrap().entry.apply(&record);
    }
    shared.metrics.registry().observe(metrics::SLICE_US, started.elapsed().as_micros() as u64);
    let (requeue, attempts) = {
        let mut slot = shared.slots[index].lock().unwrap();
        // Carry the spent plan into the next slice, read back after the
        // checkpoint and on every failure path alike: a fired fault stays
        // fired even when the slice's state is thrown away.
        slot.plan = stepper.fault_plan().cloned();
        (!slot.entry.status.is_terminal(), slot.entry.attempts)
    };
    if !requeue {
        shared.discretizations.release(&spec.scenario, vector_size, shared.slots);
    }
    let instant = match record.event {
        EventKind::Preempted => Some((spans::SERVER_PREEMPT, record.step)),
        EventKind::Retrying => Some((spans::SERVER_RETRY, record.attempt)),
        _ => None,
    };
    if let (Some(t), Some((span, aux))) = (trace, instant) {
        t.record(Event { aux: aux.unwrap_or(0), ..Event::instant(span, 0, t.now_ns()) });
    }
    if config.verbose {
        let (id, step) = (&spec.id, record.step.unwrap_or(0));
        let error = record.error.as_deref().unwrap_or("");
        match record.event {
            // A slice that ran always advances, so a `done` at the resume
            // step is one the ring already held.
            EventKind::Done if step == resume_step => {
                say!("job {id} done (step {step}, already complete in the ring)");
            }
            EventKind::Done => {
                let time = record.time.unwrap_or(0.0);
                say!("job {id} done (step {step}, t = {time:.4}, worker {worker})");
            }
            EventKind::Preempted => say!("job {id} preempted at step {step} (worker {worker})"),
            EventKind::Retrying => say!("job {id} retrying (attempt {attempts}): {error}"),
            _ => say!("job {id} FAILED after {attempts} attempt(s): {error}"),
        }
    }
    if record.event == EventKind::Retrying {
        let backoff = BACKOFF_BASE.saturating_mul(1u32 << (attempts - 1).min(16) as u32);
        std::thread::sleep(backoff.min(BACKOFF_CAP));
    }
    requeue
}

/// Publishes a job's post-slice [`JobProgress`] row: committed steps, sim
/// time, the last step's residuals, and the slice's raw step rate (the
/// registry folds it into the EWMA and derives the ETA).
fn publish_progress(
    shared: &Shared<'_>,
    spec: &JobSpec,
    stepper: &Stepper,
    slice: &lv_driver::SliceReport,
    steps_done: u64,
    elapsed: Duration,
) {
    let (momentum_residual, poisson_residual) = slice
        .reports
        .last()
        .map(|r| (r.momentum_residual, r.poisson_residual))
        .unwrap_or((0.0, 0.0));
    let secs = elapsed.as_secs_f64();
    let step_rate = if secs > 0.0 && steps_done > 0 { steps_done as f64 / secs } else { 0.0 };
    shared.metrics.publish_progress(JobProgress {
        id: spec.id.clone(),
        steps_done: stepper.state().step,
        target_steps: spec.steps,
        sim_time: stepper.state().time,
        momentum_residual,
        poisson_residual,
        step_rate,
        eta_seconds: 0.0,
    });
}

/// Appends under the journal mutex, recording a `server/journal` span,
/// the fsync-latency histogram, and the deterministic fold; then folds the
/// record into job `index`'s entry whether or not the append landed.  Every
/// non-`running` record is a journal checkpoint: the metrics document is
/// flushed to `<journal>.metrics.json` so a supervisor killed at any later
/// instant leaves its last state behind.
fn journal_append(
    shared: &Shared<'_>,
    team: &Team,
    index: usize,
    record: &Record,
) -> io::Result<u64> {
    let span = team.trace().map(|t| t.span(spans::SERVER_JOURNAL, 0));
    let start = Instant::now();
    let result = shared.journal.lock().unwrap().append(record.clone());
    let elapsed = start.elapsed();
    if let Some(span) = span {
        span.iters(1).finish();
    }
    if result.is_ok() {
        let fleet = shared.metrics;
        fleet.registry().observe(metrics::JOURNAL_FSYNC_US, elapsed.as_micros() as u64);
        fleet.apply_record(record);
        if record.event != EventKind::Running {
            flush_metrics_json(fleet, &shared.metrics_path);
        }
    }
    shared.slots[index].lock().unwrap().entry.apply(record);
    result
}

/// Writes the metrics document atomically (tmp + rename); errors are
/// swallowed — losing an advisory snapshot must never hurt the fleet.
fn flush_metrics_json(fleet: &FleetMetrics, path: &Path) {
    let tmp = path.with_extension("json.tmp");
    if std::fs::write(&tmp, fleet.document()).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// Answers one introspection request (see [`crate::endpoint`]).
fn respond(request: Request, shared: &Shared<'_>) -> String {
    match request {
        Request::Status => {
            let (done, failed, pending) = tally(&snapshot(shared.slots));
            let sched = shared.sched.lock().unwrap();
            let obj = JsonObject::new()
                .u64("format", 1)
                .bool("live", true)
                .usize("jobs", shared.slots.len())
                .usize("done", done)
                .usize("failed", failed)
                .usize("pending", pending)
                .usize("queue_depth", sched.queue.len())
                .usize("in_flight", sched.active)
                .u64("slices", sched.slices);
            drop(sched);
            let steps = shared.metrics.registry().value(metrics::STEPS_COMMITTED);
            let mut out = obj.u64("steps_committed", steps).finish();
            out.push('\n');
            out
        }
        Request::Jobs => {
            let mut out = String::new();
            for row in shared.metrics.progress() {
                out.push_str(&row.to_json());
                out.push('\n');
            }
            out
        }
        Request::MetricsJson => {
            let mut out = shared.metrics.document();
            out.push('\n');
            out
        }
        Request::MetricsProm => shared.metrics.snapshot().to_prometheus(),
    }
}

/// Renders a caught panic payload (what `panic!` carried).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else if let Some(message) = payload.downcast_ref::<&'static str>() {
        (*message).to_string()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobStatus;
    use lv_driver::{Scenario, ScenarioKind};

    fn test_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lv-server-unit-{tag}-{}", std::process::id()))
    }

    fn clean(dir: &std::path::Path) {
        let _ = std::fs::remove_dir_all(dir);
    }

    fn quick_config(dir: &std::path::Path) -> ServerConfig {
        ServerConfig {
            workers: 2,
            slice_steps: 2,
            checkpoint_dir: dir.join("ckpt"),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn a_small_fleet_runs_to_completion_and_journals_every_transition() {
        let dir = test_dir("fleet");
        clean(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let journal = dir.join("jobs.jsonl");
        let mut server = Server::open(&journal, quick_config(&dir)).expect("open");
        assert_eq!(server.replay().jobs, 0);
        server
            .submit(JobSpec::new("a", Scenario::new(ScenarioKind::LidDrivenCavity, 4), 5))
            .expect("submit");
        server
            .submit(JobSpec::new("b", Scenario::new(ScenarioKind::TaylorGreenVortex, 4), 3))
            .expect("submit");
        assert!(server
            .submit(JobSpec::new("a", Scenario::new(ScenarioKind::Channel, 3), 2))
            .is_err());
        assert!(server
            .submit(JobSpec::new("bad/id", Scenario::new(ScenarioKind::Channel, 3), 2))
            .is_err());

        let report = server.run();
        assert!(report.all_done(), "{report:?}");
        assert_eq!(report.done, 2);
        assert!(report.slices >= 5, "5 + 3 steps in quota-2 slices: {report:?}");
        for job in server.jobs() {
            assert!(
                matches!(job.status, JobStatus::Done { .. }),
                "{}: {}",
                job.spec.id,
                job.status
            );
        }
        // The final states live in the rings at the target steps.
        let recovery = server.ring("a").load_latest().expect("ring a");
        assert_eq!(recovery.checkpoint.step, 5);
        let recovery = server.ring("b").load_latest().expect("ring b");
        assert_eq!(recovery.checkpoint.step, 3);

        // A reopened server replays everything as done, with nothing to do.
        drop(server);
        let mut server = Server::open(&journal, quick_config(&dir)).expect("reopen");
        assert_eq!(server.replay().done, 2);
        assert_eq!(server.replay().pending, 0);
        let report = server.run();
        assert_eq!(report, RunReport { done: 2, failed: 0, pending: 0, slices: 0 });
        clean(&dir);
    }

    /// The discretization cache holds a key only while a job of it is
    /// queued or running: after a fleet over three sizes (one size with a
    /// short and a long job, so the short one ends while its key is still
    /// needed) every job is done and the cache is empty.
    #[test]
    fn the_discretization_cache_ends_empty_when_every_job_ends() {
        let dir = test_dir("evict");
        clean(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut server = Server::open(dir.join("jobs.jsonl"), quick_config(&dir)).expect("open");
        let cavity = |n| Scenario::new(ScenarioKind::LidDrivenCavity, n);
        for (id, n, steps) in [("short", 4, 1), ("long", 4, 5), ("six", 6, 3), ("eight", 8, 2)] {
            server.submit(JobSpec::new(id, cavity(n), steps)).expect("submit");
        }
        let report = server.run();
        assert!(report.all_done(), "{report:?}");
        assert_eq!(report.done, 4);
        assert!(server.discretizations.cells.lock().unwrap().is_empty());
        clean(&dir);
    }

    #[test]
    fn traced_run_records_server_spans() {
        let dir = test_dir("traced");
        clean(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut config = quick_config(&dir);
        config.workers = 1;
        config.traced = true;
        let mut server = Server::open(dir.join("jobs.jsonl"), config).expect("open");
        server
            .submit(JobSpec::new("t", Scenario::new(ScenarioKind::LidDrivenCavity, 4), 5))
            .expect("submit");
        assert!(server.run().all_done());
        let summaries = server.trace_summaries();
        assert_eq!(summaries.len(), 1);
        let slice = summaries[0].span("server/slice").expect("slice span");
        assert_eq!(slice.events, 3, "5 steps in quota-2 slices");
        assert_eq!(slice.iters, 5, "iters tallies the steps");
        let journal = summaries[0].span("server/journal").expect("journal span");
        assert!(journal.events >= 4, "running x3 + preempted x2 + done: {}", journal.events);
        assert!(summaries[0].span("server/resume").is_some(), "slices 2,3 resumed from the ring");
        assert!(summaries[0].span("server/preempt").is_some());
        clean(&dir);
    }

    #[test]
    fn metrics_fold_gauges_and_document_ride_along_with_a_run() {
        let dir = test_dir("metrics");
        clean(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let journal = dir.join("jobs.jsonl");
        let mut config = quick_config(&dir);
        config.trace_dir = Some(dir.join("traces"));
        let mut server = Server::open(&journal, config).expect("open");
        server
            .submit(JobSpec::new("m1", Scenario::new(ScenarioKind::LidDrivenCavity, 4), 5))
            .expect("submit");
        server
            .submit(JobSpec::new("m2", Scenario::new(ScenarioKind::TaylorGreenVortex, 4), 3))
            .expect("submit");
        assert!(server.run().all_done());

        let snapshot = server.metrics().snapshot();
        assert_eq!(snapshot.scalar("fleet_jobs_submitted_total"), Some(2));
        assert_eq!(snapshot.scalar("fleet_jobs_done_total"), Some(2));
        assert_eq!(snapshot.scalar("fleet_steps_committed_total"), Some(8));
        assert_eq!(snapshot.scalar("fleet_jobs_failed_total"), Some(0));
        // Quiescent fleet: nothing queued, nothing in flight.
        assert_eq!(snapshot.scalar("fleet_queue_depth"), Some(0));
        assert_eq!(snapshot.scalar("fleet_jobs_in_flight"), Some(0));
        // Every journal append fed the fsync histogram.
        let lv_trace::metrics::MetricData::Histogram(fsync) =
            &snapshot.metric("fleet_journal_fsync_us").expect("metric").value
        else {
            panic!("histogram expected")
        };
        assert!(fsync.count() >= 7, "submit x2 + running/preempted/done records");

        // Progress rows: both jobs finished, so no ETA is advertised.
        let progress = server.metrics().progress();
        assert_eq!(progress.len(), 2);
        assert_eq!(progress[0].id, "m1");
        assert_eq!(progress[0].steps_done, 5);
        assert!(progress[0].momentum_residual > 0.0);
        assert_eq!(progress[0].eta_seconds, 0.0);

        // The document survives the run for post-mortem clients.
        let doc = std::fs::read_to_string(crate::endpoint::metrics_json_path(&journal))
            .expect("metrics.json");
        assert!(doc.contains("\"name\": \"fleet_jobs_done_total\""), "{doc}");
        assert!(doc.contains("\"id\": \"m2\""), "{doc}");

        // Worker trace logs landed next to the run for `serve timeline`.
        let logs: Vec<_> = std::fs::read_dir(dir.join("traces"))
            .expect("trace dir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
            .collect();
        assert!(logs.iter().any(|n| n == "worker-0.trace.jsonl"), "{logs:?}");
        let log = std::fs::read_to_string(dir.join("traces").join(&logs[0])).expect("log");
        lv_trace::sink::parse_jsonl(&log).expect("worker log parses");
        clean(&dir);
    }

    #[test]
    fn the_endpoint_answers_while_the_fleet_runs_and_unbinds_after() {
        let dir = test_dir("endpoint");
        clean(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let journal = dir.join("jobs.jsonl");
        let mut config = quick_config(&dir);
        config.workers = 1;
        config.endpoint = true;
        let mut server = Server::open(&journal, config).expect("open");
        // A stall fault busy-waits ~400 ms inside the slice, giving the
        // client a generous window while the fleet is provably live (the
        // default 30 s watchdog never fires).
        server
            .submit(
                JobSpec::new("slow", Scenario::new(ScenarioKind::LidDrivenCavity, 4), 4)
                    .with_inject("stall@1,seed=3"),
            )
            .expect("submit");
        let socket = crate::endpoint::socket_path(&journal);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.run());
            let deadline = Instant::now() + Duration::from_secs(10);
            let status = loop {
                match crate::endpoint::query(&socket, "status") {
                    Ok(reply) => break reply,
                    Err(_) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => panic!("endpoint never came up: {e}"),
                }
            };
            assert!(status.contains("\"live\": true"), "{status}");
            assert!(status.contains("\"jobs\": 1"), "{status}");
            let prom = crate::endpoint::query(&socket, "metrics prom").expect("prom");
            assert!(prom.contains("# TYPE fleet_jobs_submitted_total counter"), "{prom}");
            let json = crate::endpoint::query(&socket, "metrics json").expect("json");
            assert!(json.starts_with("{\"format\": 1, \"metrics\": {"), "{json}");
            assert!(handle.join().expect("run").all_done());
        });
        // The socket is gone once the run ends.
        assert!(crate::endpoint::query(&socket, "status").is_err());
        assert!(!socket.exists());
        clean(&dir);
    }

    #[test]
    fn drained_supervisor_leaves_pending_jobs_journaled_for_the_next_one() {
        let dir = test_dir("drain");
        clean(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let journal = dir.join("jobs.jsonl");
        let mut config = quick_config(&dir);
        config.workers = 1;
        config.max_slices = Some(1);
        let mut server = Server::open(&journal, config).expect("open");
        server
            .submit(JobSpec::new("long", Scenario::new(ScenarioKind::LidDrivenCavity, 4), 6))
            .expect("submit");
        let report = server.run();
        assert_eq!(report.pending, 1);
        assert_eq!(report.slices, 1);
        drop(server);

        let mut server = Server::open(&journal, quick_config(&dir)).expect("reopen");
        assert_eq!(server.replay().pending, 1);
        let report = server.run();
        assert!(report.all_done(), "{report:?}");
        assert_eq!(server.ring("long").load_latest().expect("ring").checkpoint.step, 6);
        clean(&dir);
    }
}
