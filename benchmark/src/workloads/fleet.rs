//! `fleet_sat` — the same driver used differently: `lv-server` at its
//! defaults (`slice_steps` 4, ring 3, metrics on) draining a fleet of small
//! jobs over `T` one-thread workers.  Every problem is cache-resident and
//! below `SERIAL_CUTOFF`, each slice rebuilds its `Stepper`, and checkpoint
//! and fsync'd journal writes sit beside the compute — work moved into
//! set-up speeds `cavity32` and slows this.
//!
//! The fleet is a fixed multiset of jobs (cavity and Taylor–Green, 8³ with
//! one in eight at 12³, 8 to 16 steps); the seed only shuffles the order
//! they are submitted in — a fresh order for every drain of a run — so
//! every seed drains the same work.

use super::{hash_state, splitmix, step_layers, Ctx, Report, Size, Timed, Window};
use crate::metrics::Layers;
use crate::pace::{Pace, Paced, Sample};
use crate::spans::SpanLog;
use crate::{host, probes};
use lv_driver::{Scenario, ScenarioKind, Stepper};
use lv_runtime::Team;
use lv_server::{replay_readonly, FleetMetrics, JobSpec, RunReport, Server, ServerConfig};
use lv_trace::metrics::{MetricData, MetricsSnapshot};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One job of the fleet, before it has an id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Job {
    kind: ScenarioKind,
    resolution: usize,
    steps: u64,
}

impl Job {
    fn scenario(&self) -> Scenario {
        Scenario::new(self.kind, self.resolution)
    }
}

const KINDS: [ScenarioKind; 2] = [ScenarioKind::LidDrivenCavity, ScenarioKind::TaylorGreenVortex];

/// The fleet of `count` jobs in seed-shuffled order.
fn fleet(size: Size, count: usize, seed: u64) -> Vec<Job> {
    let (small, large, steps) = match size {
        Size::Full => (8, 12, [8, 12, 16]),
        Size::Smoke => (4, 5, [2, 3, 4]),
    };
    let mut jobs: Vec<Job> = (0..count)
        .map(|i| {
            if i % 8 == 0 {
                // The mid-size jobs all run the middle step count, which
                // keeps the distinct specs (and their oracle runs) at eight.
                Job { kind: KINDS[(i / 8) % 2], resolution: large, steps: steps[1] }
            } else {
                Job { kind: KINDS[i % 2], resolution: small, steps: steps[(i / 2) % 3] }
            }
        })
        .collect();
    let mut state = seed;
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
    }
    jobs
}

fn distinct(jobs: &[Job]) -> Vec<Job> {
    let mut specs: Vec<Job> = Vec::new();
    for job in jobs {
        if !specs.contains(job) {
            specs.push(*job);
        }
    }
    specs
}

static DRAINS: AtomicU64 = AtomicU64::new(0);

/// A fresh directory for one server (journal, rings), inside `out_dir`.
fn scratch_dir(out_dir: &Path) -> PathBuf {
    let dir = out_dir.join(format!(
        "fleet-{}-{}",
        std::process::id(),
        DRAINS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory inside the checkout");
    dir
}

fn server_config(dir: &Path, workers: usize, traced: bool) -> ServerConfig {
    ServerConfig {
        workers,
        threads_per_worker: 1,
        checkpoint_dir: dir.join("ckpt"),
        traced,
        ..ServerConfig::default()
    }
}

/// `Server::open` plus one submit per job: one set-up of this workload.
/// Returns the server, the set-up seconds and the mean seconds of a submit.
fn set_up(
    spans: &mut SpanLog,
    dir: &Path,
    config: ServerConfig,
    jobs: &[Job],
) -> (Server, f64, f64) {
    let open = spans.enter("setup");
    let (server, open_s) = spans.time("lv-server/Server::open", || {
        Server::open(dir.join("jobs.jsonl"), config).expect("journal opens")
    });
    let mut server = server;
    let ((), submit_s) = spans.time("lv-server/Server::submit (all jobs)", || {
        for (index, job) in jobs.iter().enumerate() {
            server
                .submit(JobSpec::new(format!("job-{index}"), job.scenario(), job.steps))
                .expect("submit");
        }
    });
    spans.exit(open);
    (server, open_s + submit_s, submit_s / jobs.len() as f64)
}

/// One drained fleet.
struct Drain {
    server: Server,
    dir: PathBuf,
    /// `Server::open` plus the submits, and the beats around them.
    setup: Sample,
    submit_mean_s: f64,
    /// `Server::run`, and the beats around it.
    drained: Sample,
    run: RunReport,
}

fn drain(
    spans: &mut SpanLog,
    pace: &mut Pace,
    out_dir: &Path,
    jobs: &[Job],
    (workers, traced): (usize, bool),
) -> Drain {
    let open = spans.enter(&format!("drain/w{workers}"));
    let dir = scratch_dir(out_dir);
    let ((server, submit_mean_s), setup) = pace.around(|| {
        let (server, setup_s, submit_mean_s) =
            set_up(spans, &dir, server_config(&dir, workers, traced), jobs);
        ((server, submit_mean_s), setup_s)
    });
    let mut server = server;
    let (run, drained) = pace.around(|| spans.time("lv-server/Server::run", || server.run()));
    spans.exit(open);
    Drain { server, dir, setup, submit_mean_s, drained, run }
}

/// The uninterrupted single-`Stepper` run a job must equal bit for bit.
/// Returns the final state hash and the seconds per step.
fn oracle(spans: &mut SpanLog, config: &ServerConfig, job: &Job) -> (u64, f64) {
    let team = Team::new(1);
    let mut stepper = Stepper::new(job.scenario(), config.stepper_config());
    let (result, _) = spans.time("lv-driver/Stepper::run_recovering_on (oracle)", || {
        stepper.run_recovering_on(&team, job.steps as usize)
    });
    match result {
        Ok(reports) => {
            let stepping: f64 = reports.iter().map(|r| r.timings.total()).sum();
            (hash_state(stepper.state()), stepping / job.steps as f64)
        }
        Err(error) => {
            eprintln!("oracle run of {job:?} failed: {error}");
            (0, 0.0)
        }
    }
}

/// `all_done()`, and the live metrics fingerprint equals the one folded
/// from the journal the drain wrote.
fn check_drain(report: &mut Report, jobs: &[Job], drained: &Drain) {
    report.attempted += jobs.len() as u64;
    report.failed += (jobs.len() - drained.run.done.min(jobs.len())) as u64;
    report.check(drained.run.all_done() && drained.run.done == jobs.len(), || {
        format!("the fleet did not drain: {:?}", drained.run)
    });
    let live = drained.server.metrics().snapshot().deterministic_fingerprint();
    match replay_readonly(&drained.dir.join("jobs.jsonl")) {
        Ok(replay) => {
            let folded = FleetMetrics::new();
            folded.replay(&replay.records);
            report.check(live == folded.snapshot().deterministic_fingerprint(), || {
                "live fleet-metrics fingerprint differs from the replayed one".to_string()
            });
        }
        Err(error) => report.problems.push(format!("journal unreadable: {error}")),
    }
}

/// One job per distinct spec ends bitwise equal to its oracle run.  Returns
/// the oracle seconds per step of every distinct spec.
fn check_oracles(
    spans: &mut SpanLog,
    report: &mut Report,
    jobs: &[Job],
    drained: &Drain,
) -> Vec<(Job, f64)> {
    let open = spans.enter("check/oracles");
    let mut step_times = Vec::new();
    for spec in distinct(jobs) {
        let index =
            jobs.iter().position(|job| *job == spec).expect("a distinct spec comes from the fleet");
        let (expected, step_s) = oracle(spans, drained.server.config(), &spec);
        step_times.push((spec, step_s));
        let got = drained
            .server
            .ring(&format!("job-{index}"))
            .load_latest()
            .and_then(|recovery| recovery.checkpoint.into_state(&spec.scenario().build_mesh()))
            .map(|state| hash_state(&state));
        let ok = matches!(got, Ok(hash) if hash == expected);
        if !ok {
            report.failed += 1;
        }
        report.check(ok, || {
            format!("job-{index} ({spec:?}) is not bitwise equal to its uninterrupted run")
        });
    }
    spans.exit(open);
    step_times
}

/// Jobs per drain: enough that `T` workers stay busy to the last slices,
/// few enough that a window holds a drain per ~1.5 s.
fn fleet_size(size: Size) -> usize {
    match size {
        Size::Full => 24,
        Size::Smoke => 8,
    }
}

pub fn timed(ctx: &Ctx, spans: &mut SpanLog) -> Timed {
    let workers = host::threads();
    let count = fleet_size(ctx.size);
    let mut report = Report::default();
    let mut pace = Pace::new();
    let mut per_job = Paced::new("job_s");
    let mut setups = Paced::new("setup");
    let window = Window::open(ctx.seconds);
    let mut last = 0.0;
    // Every drain submits the fleet in an order of its own, so the median
    // is over orders as well as over time.
    let mut order = ctx.seed;
    while per_job.samples.is_empty() || window.fits(last) {
        let jobs = fleet(ctx.size, count, splitmix(&mut order));
        let drained = drain(spans, &mut pace, &ctx.out_dir, &jobs, (workers, false));
        last = drained.setup.unit_s + drained.drained.unit_s;
        check_drain(&mut report, &jobs, &drained);
        if per_job.samples.is_empty() {
            check_oracles(spans, &mut report, &jobs, &drained);
        }
        per_job.push(Sample { unit_s: drained.drained.unit_s / count as f64, ..drained.drained });
        setups.push(drained.setup);
        let Drain { server, dir, .. } = drained;
        drop(server);
        let _ = std::fs::remove_dir_all(dir);
    }
    let jobs = fleet(ctx.size, count, ctx.seed);
    while setups.samples.len() < 9 {
        let dir = scratch_dir(&ctx.out_dir);
        let config = server_config(&dir, workers, false);
        setups.push(pace.around(|| ((), set_up(spans, &dir, config, &jobs).1)).1);
        let _ = std::fs::remove_dir_all(dir);
    }
    let job_s = per_job.paced_median();
    report.lines.push(format!(
        "{} (drain time / {count} jobs, {workers} workers); jobs_per_s = {:.2}",
        per_job.describe(1e3, "ms"),
        1.0 / job_s
    ));
    report.lines.push(setups.describe(1.0, "s"));
    let setup_s = setups.paced_median();
    Timed { report, unit_ms: 1e3 * job_s, setup_s, paced: vec![per_job, setups] }
}

fn histogram(snapshot: &MetricsSnapshot, name: &str) -> (f64, f64) {
    match snapshot.metric(name).map(|m| &m.value) {
        Some(MetricData::Histogram(data)) => (data.sum as f64, data.count() as f64),
        _ => (0.0, 0.0),
    }
}

pub fn traced(ctx: &Ctx, spans: &mut SpanLog, layers: &mut Layers) -> Report {
    host::probe(spans, layers);
    let jobs = fleet(ctx.size, fleet_size(ctx.size), ctx.seed);
    let workers = host::threads();
    let mut report = Report::default();
    let mut pace = Pace::new();

    let pass = spans.enter("pass");
    let drained = drain(spans, &mut pace, &ctx.out_dir, &jobs, (workers, true));
    check_drain(&mut report, &jobs, &drained);
    let step_times = check_oracles(spans, &mut report, &jobs, &drained);

    let snapshot = drained.server.metrics().snapshot();
    let scalar = |name: &str| snapshot.scalar(name).unwrap_or(0) as f64;
    let drain_s = drained.drained.unit_s;
    layers.set("server.jobs_per_s", jobs.len() as f64 / drain_s);
    layers.set("server.slices", scalar("fleet_slices_started_total"));
    layers.set("server.preemptions", scalar("fleet_slices_preempted_total"));
    layers.set("server.retries", scalar("fleet_job_retries_total"));
    layers.set("server.steps_committed", scalar("fleet_steps_committed_total"));
    let (slice_us, slices) = histogram(&snapshot, "fleet_slice_us");
    let (wait_us, waits) = histogram(&snapshot, "fleet_queue_wait_us");
    let (fsync_us, fsyncs) = histogram(&snapshot, "fleet_journal_fsync_us");
    layers.set("server.slice_mean_s", 1e-6 * slice_us / slices.max(1.0));
    layers.set("server.queue_wait_mean_s", 1e-6 * wait_us / waits.max(1.0));
    layers.set("server.fsync_mean_us", fsync_us / fsyncs.max(1.0));
    layers.set("server.fsync_count", fsyncs);
    layers.set("server.submit_mean_us", 1e6 * drained.submit_mean_s);
    // Seconds the committed steps take in uninterrupted runs, over the
    // seconds the workers spent in slices.
    let useful: f64 = jobs
        .iter()
        .map(|job| {
            job.steps as f64 * step_times.iter().find(|(spec, _)| spec == job).map_or(0.0, |t| t.1)
        })
        .sum();
    if slice_us > 0.0 {
        layers.set("server.useful_ratio", useful / (1e-6 * slice_us));
    }
    step_layers(layers, drained.server.trace_summaries());
    for (worker, summary) in drained.server.trace_summaries().iter().enumerate() {
        spans.attach(&format!("worker-{worker}"), summary.clone());
    }

    // The read side of the journal the drain wrote.
    let Drain { server, dir, .. } = drained;
    let config = server.config().clone();
    drop(server);
    let records = replay_readonly(&dir.join("jobs.jsonl")).map_or(0, |replay| replay.records.len());
    let (reopened, replay_s) = spans
        .time("lv-server/Server::open (replay)", || Server::open(dir.join("jobs.jsonl"), config));
    report.check(reopened.is_ok_and(|s| s.replay().done == jobs.len()), || {
        "the drained journal does not replay to a finished fleet".to_string()
    });
    layers.set("server.replay_s", replay_s);
    layers.set("server.replay_records_per_s", records as f64 / replay_s);
    let _ = std::fs::remove_dir_all(dir);

    let single = drain(spans, &mut pace, &ctx.out_dir, &jobs, (1, false));
    check_drain(&mut report, &jobs, &single);
    layers.set("server.worker_scaling", single.drained.unit_s / drain_s);
    let Drain { server, dir, .. } = single;
    drop(server);
    let _ = std::fs::remove_dir_all(dir);
    spans.exit(pass);

    // The layers under a job, on the problem most jobs run.
    let typical = jobs.iter().min_by_key(|job| job.resolution).expect("the fleet is not empty");
    probes::numeric_layers(
        spans,
        layers,
        &Scenario::new(KINDS[0], typical.resolution),
        workers,
        &ctx.out_dir,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_shuffles_the_same_multiset() {
        let key = |job: &Job| (job.kind.name(), job.resolution, job.steps);
        let count = fleet_size(Size::Full);
        let mut a = fleet(Size::Full, count, 1);
        let mut b = fleet(Size::Full, count, 2);
        assert_ne!(a, b, "the seed changes the order");
        assert_eq!(a, fleet(Size::Full, count, 1), "the same seed gives the same fleet");
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b, "and nothing but the order");
        assert_eq!(a.iter().filter(|job| job.resolution == 12).count(), 3, "one in eight at 12^3");
        assert_eq!(distinct(&a).len(), 8);
    }
}
