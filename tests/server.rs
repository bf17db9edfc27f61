//! Integration tests of the supervised simulation service — the end-to-end
//! contracts of the scheduler:
//!
//! * **Fleet determinism** — a mixed fleet (clean, stalled, panicking,
//!   checkpoint-corrupting, solver-faulted jobs) drained over 2 workers in
//!   small preempted slices finishes every trajectory **bitwise identical**
//!   to its uninterrupted single-run counterpart;
//! * **Watchdog** — an injected `stall@step` exceeds the per-step deadline,
//!   the job is killed at the slice boundary and the retry completes;
//! * **Crash recovery** — a supervisor halted mid-run (the in-process
//!   moral equivalent of `kill -9`: journal and rings on disk, process
//!   state gone) is replaced by a fresh `Server::open` that replays the
//!   journal and finishes every pending job, still bitwise clean;
//! * **Torn journal** — an interrupted append (half a line at the tail) is
//!   truncated on replay and the service keeps going;
//! * **Metrics determinism** — the deterministic counter subset of the
//!   fleet-metrics registry is a pure journal fold: replaying the journal
//!   reproduces the live fingerprint exactly (even past a torn tail), and
//!   the fingerprint is invariant across worker/thread/ring layouts.
//!
//! Scheduling, preemption, migration and retries must never enter a
//! trajectory: the only inputs are the scenario, the checkpointed state and
//! the Δt-relevant fault plan.

use lv_driver::{FaultPlan, Scenario, ScenarioKind, SimState, Stepper, StepperConfig};
use lv_runtime::Team;
use lv_server::{
    ledger, replay_readonly, FleetMetrics, JobEntry, JobSpec, JobStatus, Server, ServerConfig,
};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn assert_states_bitwise(oracle: &SimState, got: &SimState, what: &str) {
    assert_eq!(oracle.step, got.step, "{what}: step count");
    assert_eq!(oracle.time.to_bits(), got.time.to_bits(), "{what}: simulation time");
    for (i, (a, b)) in oracle.velocity.as_slice().iter().zip(got.velocity.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: velocity entry {i} ({a} vs {b})");
    }
    for (i, (a, b)) in oracle.pressure.as_slice().iter().zip(got.pressure.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: pressure entry {i} ({a} vs {b})");
    }
}

fn test_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lv-server-it-{tag}-{}", std::process::id()))
}

fn config(dir: &Path) -> ServerConfig {
    ServerConfig {
        workers: 2,
        threads_per_worker: 1,
        slice_steps: 2,
        step_deadline: Duration::from_millis(250),
        checkpoint_dir: dir.join("ckpt"),
        ..ServerConfig::default()
    }
}

/// The uninterrupted single-run counterpart of a job: same scenario, same
/// stepper configuration, same Δt-relevant fault plan, one team, no
/// preemption.
fn oracle_state(
    scenario: &Scenario,
    steps: usize,
    config: StepperConfig,
    plan: Option<FaultPlan>,
) -> SimState {
    let config = match plan {
        Some(plan) => config.with_fault_plan(plan),
        None => config,
    };
    let team = Team::new(1);
    let mut stepper = Stepper::new(scenario.clone(), config);
    stepper.run_recovering_on(&team, steps).expect("oracle run");
    stepper.state().clone()
}

/// A job table as comparable rows: id, status, failed attempts.
fn rows(jobs: &[JobEntry]) -> Vec<(String, JobStatus, u64)> {
    jobs.iter().map(|job| (job.spec.id.clone(), job.status.clone(), job.attempts)).collect()
}

/// The job table folded from the journal at `path`.
fn replayed_rows(path: &Path) -> Vec<(String, JobStatus, u64)> {
    rows(&ledger(&replay_readonly(path).expect("replay").records).expect("ledger"))
}

/// Loads the final state of a finished job from its checkpoint ring.
fn final_state(server: &Server, id: &str, scenario: &Scenario) -> SimState {
    let recovery = server.ring(id).load_latest().expect("finished job has a ring");
    recovery.checkpoint.into_state(&scenario.build_mesh()).expect("ring state decodes")
}

#[test]
fn a_faulted_fleet_finishes_bitwise_identical_to_uninterrupted_runs() {
    let dir = test_dir("fleet");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let cavity = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
    let cavity5 = Scenario::new(ScenarioKind::LidDrivenCavity, 5);
    let tg = Scenario::new(ScenarioKind::TaylorGreenVortex, 4);

    let mut server = Server::open(dir.join("jobs.jsonl"), config(&dir)).expect("open");
    // (id, scenario, steps, inject spec, Δt-relevant oracle plan)
    type FleetEntry<'a> = (&'a str, &'a Scenario, usize, Option<&'a str>, Option<&'a str>);
    let fleet: Vec<FleetEntry> = vec![
        ("clean", &cavity, 5, None, None),
        ("stalled", &cavity, 4, Some("stall@2,seed=3"), None),
        ("panicky", &tg, 4, Some("panic@2,seed=7"), None),
        ("corruptor", &cavity5, 5, Some("ckpt-flip@2,seed=11"), None),
        ("flipper", &cavity5, 5, Some("ckpt-flip@2,panic@3,seed=11"), None),
        (
            "faulted",
            &cavity,
            4,
            Some("momentum-breakdown@2,seed=42"),
            Some("momentum-breakdown@2,seed=42"),
        ),
    ];
    for (id, scenario, steps, inject, _) in &fleet {
        let mut spec = JobSpec::new(*id, (*scenario).clone(), *steps as u64);
        if let Some(inject) = inject {
            spec = spec.with_inject(*inject);
        }
        server.submit(spec).expect("submit");
    }

    let report = server.run();
    assert!(report.all_done(), "{report:?}");
    assert_eq!(report.done, fleet.len());

    let jobs = server.jobs();
    let attempts = |id: &str| jobs.iter().find(|j| j.spec.id == id).expect("job").attempts;
    assert!(attempts("stalled") >= 1, "the watchdog must have killed the stall at least once");
    assert!(attempts("panicky") >= 1, "the panic must have cost at least one retry");
    assert_eq!(attempts("clean"), 0, "the clean job never retries");
    // The flip spoils the only generation, so slice 2 replays steps 1-2
    // from scratch; the panic at 3 discards a slice; 2 + 2 + 2 + 1 steps
    // commit.  A flip that fired twice would replay more (or never
    // finish), which the bitwise oracle below cannot see.
    let flipper = FleetMetrics::new();
    let records = replay_readonly(&dir.join("jobs.jsonl")).expect("replay").records;
    flipper.replay(&records.into_iter().filter(|r| r.job == "flipper").collect::<Vec<_>>());
    assert_eq!(flipper.snapshot().scalar("fleet_steps_committed_total"), Some(7));

    let stepper_config = server.config().stepper_config();
    for (id, scenario, steps, _, oracle_plan) in &fleet {
        let plan = oracle_plan.map(|spec| FaultPlan::parse(spec).expect("oracle plan"));
        let oracle = oracle_state(scenario, *steps, stepper_config.clone(), plan);
        let got = final_state(&server, id, scenario);
        assert_states_bitwise(&oracle, &got, &format!("job {id}"));
    }

    // The journal recorded the containment, not just the outcomes.
    let journal = std::fs::read_to_string(dir.join("jobs.jsonl")).expect("journal");
    assert!(journal.contains("\"event\": \"retrying\""), "retries are journaled");
    assert!(journal.contains("\"event\": \"preempted\""), "preemptions are journaled");
    assert!(journal.contains("worker panic: injected worker panic at step 2"));
    assert!(journal.contains("stalled: step 2"), "the watchdog verdict is journaled");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fleet sets each (scenario, size) up once: over 2 workers, the slices
/// of jobs on 4 keys build exactly 4 discretizations and reuse them on
/// every other slice (the `server/setup` span's `aux`), and every job —
/// the panicking and the checkpoint-flipping one included — still ends on
/// the bits of its uninterrupted run.
#[test]
fn a_fleet_builds_each_discretization_once_and_keeps_every_trajectory() {
    let dir = test_dir("shared");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let cavity8 = Scenario::new(ScenarioKind::LidDrivenCavity, 8);
    let tg8 = Scenario::new(ScenarioKind::TaylorGreenVortex, 8);
    let cavity12 = Scenario::new(ScenarioKind::LidDrivenCavity, 12);
    let tg12 = Scenario::new(ScenarioKind::TaylorGreenVortex, 12);
    let fleet: Vec<(&str, &Scenario, usize, Option<&str>)> = vec![
        ("cavity8", &cavity8, 5, None),
        ("cavity8-panic", &cavity8, 4, Some("panic@3,seed=7")),
        ("tg8", &tg8, 4, None),
        ("tg8-flip", &tg8, 5, Some("ckpt-flip@2,seed=11")),
        ("cavity12", &cavity12, 3, None),
        ("tg12", &tg12, 3, None),
    ];
    let traces = dir.join("traces");
    let config = ServerConfig {
        step_deadline: Duration::from_secs(30),
        trace_dir: Some(traces.clone()),
        ..config(&dir)
    };
    let mut server = Server::open(dir.join("jobs.jsonl"), config).expect("open");
    for (id, scenario, steps, inject) in &fleet {
        let mut spec = JobSpec::new(*id, (*scenario).clone(), *steps as u64);
        if let Some(inject) = inject {
            spec = spec.with_inject(*inject);
        }
        server.submit(spec).expect("submit");
    }
    let report = server.run();
    assert!(report.all_done(), "{report:?}");

    let setup = lv_trace::spans::SERVER_SETUP;
    let (mut built, mut reused) = (0, 0);
    for worker in 0..2 {
        let log = std::fs::read_to_string(traces.join(format!("worker-{worker}.trace.jsonl")))
            .expect("worker trace log");
        let log = lv_trace::sink::parse_jsonl(&log).expect("the log parses");
        for event in log.events.iter().filter(|e| e.span == setup) {
            match event.aux {
                0 => built += 1,
                1 => reused += 1,
                aux => panic!("server/setup carries aux {aux}"),
            }
        }
    }
    assert_eq!(built, 4, "one build per (scenario, size)");
    assert_eq!(built + reused, report.slices, "every slice opens with one set-up");

    let stepper_config = server.config().stepper_config();
    for (id, scenario, steps, _) in &fleet {
        let oracle = oracle_state(scenario, *steps, stepper_config.clone(), None);
        assert_states_bitwise(&oracle, &final_state(&server, id, scenario), &format!("job {id}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `fleet_slice_us` times the whole slice: its sum over a traced run covers
/// at least every slice's set-up (`server/setup`) and steps (`driver/step`)
/// — the claim, the checkpoint and the closing journal append come on top.
#[test]
fn the_slice_histogram_covers_the_set_up_and_the_steps() {
    let dir = test_dir("slice-histogram");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let traces = dir.join("traces");
    let config = ServerConfig {
        step_deadline: Duration::from_secs(30),
        trace_dir: Some(traces.clone()),
        ..config(&dir)
    };
    let mut server = Server::open(dir.join("jobs.jsonl"), config).expect("open");
    for (id, kind) in
        [("cavity", ScenarioKind::LidDrivenCavity), ("tg", ScenarioKind::TaylorGreenVortex)]
    {
        server.submit(JobSpec::new(id, Scenario::new(kind, 8), 5)).expect("submit");
    }
    let report = server.run();
    assert!(report.all_done(), "{report:?}");

    let (mut setup_ns, mut step_ns, mut steps) = (0u64, 0u64, 0u64);
    for worker in 0..2 {
        let log = std::fs::read_to_string(traces.join(format!("worker-{worker}.trace.jsonl")))
            .expect("worker trace log");
        let log = lv_trace::sink::parse_jsonl(&log).expect("the log parses");
        for event in log.events.iter().filter(|e| e.rank == 0) {
            let ns = event.end_ns - event.start_ns;
            if event.span == lv_trace::spans::SERVER_SETUP {
                setup_ns += ns;
            } else if event.span == lv_trace::spans::STEP {
                (step_ns, steps) = (step_ns + ns, steps + 1);
            }
        }
    }
    assert_eq!(steps, 10, "every committed step is traced once");
    let snapshot = server.metrics().snapshot();
    let histogram = match snapshot.metric("fleet_slice_us").map(|m| &m.value) {
        Some(lv_trace::metrics::MetricData::Histogram(data)) => data.clone(),
        other => panic!("fleet_slice_us is {other:?}"),
    };
    assert_eq!(histogram.count(), report.slices, "one observation per slice");
    assert!(
        histogram.sum >= (setup_ns + step_ns) / 1000,
        "the slices sum to {} us, their set-ups to {} us and their steps to {} us",
        histogram.sum,
        setup_ns / 1000,
        step_ns / 1000
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_killed_supervisor_is_replaced_and_finishes_the_fleet_from_the_journal() {
    let dir = test_dir("kill");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let journal = dir.join("jobs.jsonl");
    let cavity = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
    let tg = Scenario::new(ScenarioKind::TaylorGreenVortex, 4);

    // Supervisor A dies after 3 slices: journal and rings survive on disk,
    // everything in memory is gone — the in-process equivalent of kill -9
    // (the real-signal version runs in CI's server-smoke job).
    let mut dying = ServerConfig { max_slices: Some(3), ..config(&dir) };
    dying.workers = 1;
    let mut server_a = Server::open(&journal, dying).expect("open A");
    server_a.submit(JobSpec::new("alpha", cavity.clone(), 6)).expect("submit");
    server_a.submit(JobSpec::new("beta", tg.clone(), 5)).expect("submit");
    let partial = server_a.run();
    assert!(partial.pending > 0, "the fleet must be unfinished: {partial:?}");
    drop(server_a);

    // Supervisor B replays the journal and finishes everything.
    let mut server_b = Server::open(&journal, config(&dir)).expect("open B");
    assert_eq!(server_b.replay().jobs, 2);
    assert!(server_b.replay().pending > 0, "replay must report recovered jobs");
    let report = server_b.run();
    assert!(report.all_done(), "{report:?}");
    for job in server_b.jobs() {
        assert!(matches!(job.status, JobStatus::Done { .. }), "{}: {}", job.spec.id, job.status);
    }

    let stepper_config = server_b.config().stepper_config();
    let oracle = oracle_state(&cavity, 6, stepper_config.clone(), None);
    assert_states_bitwise(&oracle, &final_state(&server_b, "alpha", &cavity), "job alpha");
    let oracle = oracle_state(&tg, 5, stepper_config, None);
    assert_states_bitwise(&oracle, &final_state(&server_b, "beta", &tg), "job beta");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_journal_tail_is_truncated_and_the_service_keeps_going() {
    let dir = test_dir("torn");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let journal = dir.join("jobs.jsonl");
    let cavity = Scenario::new(ScenarioKind::LidDrivenCavity, 4);

    let mut server = Server::open(&journal, config(&dir)).expect("open");
    server.submit(JobSpec::new("only", cavity.clone(), 3)).expect("submit");
    drop(server);

    // An append died mid-line (power cut between write and fsync).
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new().append(true).open(&journal).expect("journal");
    file.write_all(b"{\"seq\": 99, \"event\": \"runni").expect("torn append");
    drop(file);

    let mut server = Server::open(&journal, config(&dir)).expect("reopen");
    assert!(server.replay().torn_tail, "the torn tail must be reported");
    assert_eq!(server.replay().pending, 1);
    let report = server.run();
    assert!(report.all_done(), "{report:?}");
    let oracle = oracle_state(&cavity, 3, server.config().stepper_config(), None);
    assert_states_bitwise(&oracle, &final_state(&server, "only", &cavity), "job only");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance fleet of ISSUE 10: the same five-job faulted mix as
/// [`a_faulted_fleet_finishes_bitwise_identical_to_uninterrupted_runs`],
/// submitted in a fixed order.
fn submit_faulted_fleet(server: &mut Server) {
    let cavity = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
    let cavity5 = Scenario::new(ScenarioKind::LidDrivenCavity, 5);
    let tg = Scenario::new(ScenarioKind::TaylorGreenVortex, 4);
    let fleet: Vec<(&str, Scenario, u64, Option<&str>)> = vec![
        ("clean", cavity.clone(), 5, None),
        ("stalled", cavity.clone(), 4, Some("stall@2,seed=3")),
        ("panicky", tg, 4, Some("panic@2,seed=7")),
        ("corruptor", cavity5, 5, Some("ckpt-flip@2,seed=11")),
        ("faulted", cavity, 4, Some("momentum-breakdown@2,seed=42")),
    ];
    for (id, scenario, steps, inject) in fleet {
        let mut spec = JobSpec::new(id, scenario, steps);
        if let Some(inject) = inject {
            spec = spec.with_inject(inject);
        }
        server.submit(spec).expect("submit");
    }
}

#[test]
fn the_deterministic_metrics_subset_is_invariant_across_fleet_layouts() {
    // The deterministic counter subset is a pure fold of the journal, and
    // the journal's transition sequence is a function of each job's fault
    // plan and the slice quota alone — so its fingerprint may not depend
    // on how many workers, threads or ring generations drained the fleet.
    // The slice quota stays fixed (preemption counts *are* slice-shaped);
    // the third layout axis is the checkpoint ring depth.
    let mut prints: Vec<Vec<(String, u64)>> = Vec::new();
    for (workers, threads, ring) in [(1usize, 1usize, 2usize), (2, 1, 1), (2, 2, 3)] {
        let dir = test_dir(&format!("metrics-layout-{workers}-{threads}-{ring}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut cfg = config(&dir);
        cfg.workers = workers;
        cfg.threads_per_worker = threads;
        cfg.ring_depth = ring;
        let journal = dir.join("jobs.jsonl");
        let mut server = Server::open(&journal, cfg).expect("open");
        submit_faulted_fleet(&mut server);
        assert!(server.run().all_done());

        let live = server.metrics().snapshot().deterministic_fingerprint();
        // The journal alone reproduces the live subset (same fold).
        let folded = FleetMetrics::new();
        folded.replay(&replay_readonly(&journal).expect("replay").records);
        assert_eq!(
            folded.snapshot().deterministic_fingerprint(),
            live,
            "journal replay must reproduce the live deterministic counters"
        );
        assert_eq!(rows(&server.jobs()), replayed_rows(&journal), "live vs replayed job table");
        prints.push(live);
        let _ = std::fs::remove_dir_all(&dir);
    }
    for (i, print) in prints.iter().enumerate().skip(1) {
        assert_eq!(&prints[0], print, "layout {i} changed the deterministic metrics fingerprint");
    }
    // The subset is not vacuous: the fleet really did retry and preempt.
    let value = |name: &str| {
        prints[0]
            .iter()
            .find(|(key, _)| key.ends_with(name))
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("fingerprint misses {name}: {:?}", prints[0]))
    };
    assert_eq!(value("fleet_jobs_submitted_total"), 5);
    assert_eq!(value("fleet_jobs_done_total"), 5);
    assert_eq!(value("fleet_jobs_failed_total"), 0);
    assert!(value("fleet_job_retries_total") >= 2, "stalled + panicky must retry");
    assert!(value("fleet_slices_preempted_total") >= 1);
    // At least every target step was committed once; retried jobs that
    // fell back to an older ring generation re-commit a few on top (the
    // exact figure is pinned by the cross-layout fingerprint equality).
    assert!(value("fleet_steps_committed_total") >= 5 + 4 + 4 + 5 + 4);
}

#[test]
fn live_replayed_and_reopened_job_tables_agree_on_status_and_attempts() {
    let dir = test_dir("attempts");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let journal = dir.join("jobs.jsonl");
    let cavity = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
    let cfg = ServerConfig { max_job_retries: 1, ..config(&dir) };

    // One job runs out of retries: it panics once, retries, panics again.
    let mut server = Server::open(&journal, cfg.clone()).expect("open");
    server
        .submit(JobSpec::new("doomed", cavity.clone(), 4).with_inject("panic@1,panic@2,seed=5"))
        .expect("submit");
    server.submit(JobSpec::new("fine", cavity, 3)).expect("submit");
    let report = server.run();
    assert_eq!((report.done, report.failed, report.pending), (1, 1, 0), "{report:?}");

    let live = rows(&server.jobs());
    drop(server);
    let doomed = &live[0];
    assert!(matches!(doomed.1, JobStatus::Failed { .. }), "{doomed:?}");
    assert_eq!(doomed.2, 2, "two failed attempts exhaust a budget of one retry");
    assert!(matches!(live[1].1, JobStatus::Done { step: 3 }), "{:?}", live[1]);
    assert_eq!(live[1].2, 0);

    assert_eq!(replayed_rows(&journal), live, "the ledger of the journal is the live table");
    let reopened = Server::open(&journal, cfg).expect("reopen");
    assert_eq!(rows(&reopened.jobs()), live, "a reopened supervisor starts from the live table");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_replay_reproduces_the_live_metrics_even_past_a_torn_tail() {
    let dir = test_dir("metrics-torn");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let journal = dir.join("jobs.jsonl");
    let cavity = Scenario::new(ScenarioKind::LidDrivenCavity, 4);

    let mut server = Server::open(&journal, config(&dir)).expect("open");
    server.submit(JobSpec::new("one", cavity.clone(), 5)).expect("submit");
    server.submit(JobSpec::new("two", cavity, 3)).expect("submit");
    assert!(server.run().all_done());
    let live = server.metrics().snapshot().deterministic_fingerprint();
    drop(server);

    // A crash tore the next append mid-line: the read-only replay skips
    // the tail without touching the file, and the fold still lands on the
    // live fingerprint.
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new().append(true).open(&journal).expect("journal");
    file.write_all(b"{\"seq\": 99, \"event\": \"runni").expect("torn append");
    drop(file);
    let replay = replay_readonly(&journal).expect("replay");
    assert!(replay.torn_tail, "the torn tail must be reported");
    let folded = FleetMetrics::new();
    folded.replay(&replay.records);
    assert_eq!(folded.snapshot().deterministic_fingerprint(), live);

    // Reopening the supervisor truncates the tail and primes its registry
    // from the same fold — still the live fingerprint.
    let reopened = Server::open(&journal, config(&dir)).expect("reopen");
    assert_eq!(reopened.metrics().snapshot().deterministic_fingerprint(), live);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_and_thread_layout_never_changes_a_trajectory() {
    // The same job drained at three different pool layouts, each sliced and
    // preempted differently, lands on identical bits.
    let cavity = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
    let mut finals: Vec<SimState> = Vec::new();
    for (workers, threads, slice) in [(1usize, 1usize, 2u64), (2, 1, 1), (2, 2, 3)] {
        let dir = test_dir(&format!("layout-{workers}-{threads}-{slice}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut cfg = config(&dir);
        cfg.workers = workers;
        cfg.threads_per_worker = threads;
        cfg.slice_steps = slice;
        let mut server = Server::open(dir.join("jobs.jsonl"), cfg).expect("open");
        server.submit(JobSpec::new("migrant", cavity.clone(), 5)).expect("submit");
        assert!(server.run().all_done());
        finals.push(final_state(&server, "migrant", &cavity));
        let _ = std::fs::remove_dir_all(&dir);
    }
    for (i, state) in finals.iter().enumerate().skip(1) {
        assert_states_bitwise(&finals[0], state, &format!("layout {i}"));
    }
}
