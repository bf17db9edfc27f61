//! Integration tests of the recovery layer, driven by the deterministic
//! fault-injection harness — the end-to-end contracts of the robustness
//! subsystem:
//!
//! * **Recovery determinism** — a `FaultPlan`-injected breakdown at step k
//!   rolls back, retries with Δt halved, and the recovered trajectory is
//!   bitwise identical across thread counts {1, 2, 4} and identical to a
//!   rerun with the same seed;
//! * **NaN containment** — a NaN-poisoned momentum RHS surfaces as a
//!   structured non-finite solver error before a single Krylov iteration
//!   runs, and the retry completes the step;
//! * **Fallback chain** — an MG-preconditioned breakdown demotes the sweep
//!   to plain CG inside the same attempt (recorded in the report), without
//!   burning a Δt retry;
//! * **Ring fallback** — a corrupted newest checkpoint generation degrades
//!   a restart to the previous generation, bitwise identical to restarting
//!   from that generation directly;
//! * **Preemption races** — a ring generation truncated mid-rotation (the
//!   writer preempted or killed while the newest slot is in flight), or
//!   missing outright after an interrupted rotation, falls back to the
//!   previous intact generation with a bitwise-identical resume;
//! * **Structured failure** — an exhausted retry budget surfaces a
//!   `RunError` naming phase, step and attempts; no panics anywhere on the
//!   failure paths.

use alya_longvec::prelude::*;
use lv_driver::{CheckpointRing, Discretization, FaultKind, FaultPlan, SimState, StepReport};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

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

fn cavity_scenario() -> Scenario {
    Scenario::new(ScenarioKind::LidDrivenCavity, 6)
}

fn quick_config() -> StepperConfig {
    StepperConfig::default().with_vector_size(32)
}

/// Runs 4 recovering steps of the cavity under `plan` on `threads` workers,
/// returning the reports and the final state.
fn recovering_run(plan: FaultPlan, threads: usize) -> (Vec<StepReport>, SimState) {
    let team = Team::new(threads);
    let mut stepper = Stepper::new(cavity_scenario(), quick_config().with_fault_plan(plan));
    let reports = stepper.run_recovering_on(&team, 4).expect("recovering run");
    let state = stepper.state().clone();
    (reports, state)
}

#[test]
fn injected_breakdown_recovery_is_bitwise_identical_across_threads_and_reruns() {
    let plan = || FaultPlan::new(42).with_fault(FaultKind::MomentumBreakdown, 2);
    let mut oracle: Option<(Vec<StepReport>, SimState)> = None;
    for threads in THREAD_COUNTS {
        let (reports, state) = recovering_run(plan(), threads);
        assert_eq!(reports[1].retries, 1, "the fault costs exactly one rollback");
        assert_eq!(reports[0].retries, 0);
        assert_eq!(reports[2].retries, 0, "the backoff does not leak into later steps");
        match &oracle {
            None => oracle = Some((reports, state)),
            Some((oracle_reports, oracle_state)) => {
                assert_states_bitwise(
                    oracle_state,
                    &state,
                    &format!("recovered trajectory at {threads} threads"),
                );
                for (a, b) in oracle_reports.iter().zip(&reports) {
                    assert_eq!(a.dt.to_bits(), b.dt.to_bits(), "Δt at {threads} threads");
                    assert_eq!(a.retries, b.retries, "retries at {threads} threads");
                }
            }
        }
    }
    // Identical to a rerun with the same seed: the whole recovery is a pure
    // function of (state, plan).
    let (_, rerun_state) = recovering_run(plan(), 2);
    let (_, oracle_state) = oracle.expect("oracle recorded");
    assert_states_bitwise(&oracle_state, &rerun_state, "same-seed rerun");
}

#[test]
fn nan_poisoned_rhs_is_contained_and_recovered() {
    let plan = || FaultPlan::new(7).with_fault(FaultKind::PoisonRhs, 3);
    let mut oracle: Option<SimState> = None;
    for threads in THREAD_COUNTS {
        let (reports, state) = recovering_run(plan(), threads);
        assert_eq!(
            reports[2].retries, 1,
            "the poisoned RHS must cost exactly one rollback at {threads} threads"
        );
        // The recovered state is finite everywhere: the NaN never escaped
        // into the trajectory.
        assert!(state.velocity.as_slice().iter().all(|v| v.is_finite()));
        assert!(state.pressure.as_slice().iter().all(|p| p.is_finite()));
        match &oracle {
            None => oracle = Some(state),
            Some(oracle) => {
                assert_states_bitwise(oracle, &state, &format!("NaN recovery at {threads} threads"))
            }
        }
    }
}

#[test]
fn mg_breakdown_uses_the_cg_fallback_without_a_retry() {
    for threads in THREAD_COUNTS {
        let plan = FaultPlan::new(3).with_fault(FaultKind::MultigridBreakdown, 2);
        let (reports, _) = recovering_run(plan, threads);
        assert_eq!(reports[1].retries, 0, "the fallback absorbs the fault in-attempt");
        assert_eq!(reports[1].poisson_fallbacks, 1);
        assert_eq!(reports[0].poisson_fallbacks, 0);
        let tolerance = quick_config().poisson_options.tolerance;
        assert!(reports[1].poisson_residual < 100.0 * tolerance, "the fallback still converges");
    }
}

#[test]
fn corrupted_newest_checkpoint_degrades_to_the_previous_generation() {
    let base = std::env::temp_dir().join(format!("lv_fault_ring_test_{}", std::process::id()));
    let ring = CheckpointRing::new(&base, 3);
    for generation in 0..3 {
        std::fs::remove_file(ring.slot(generation)).ok();
    }

    // Save a generation after every step of a 3-step run; the stepper's
    // own `ckpt-flip@3` bit-flips the newest one as it is written.
    let team = Team::new(2);
    let scenario = cavity_scenario();
    let plan = FaultPlan::new(11).with_fault(FaultKind::CheckpointFlip, 3);
    let mut stepper = Stepper::new(scenario.clone(), quick_config().with_fault_plan(plan));
    for _ in 0..3 {
        stepper.step_on(&team).expect("step");
        stepper.checkpoint_on(&team, &ring).expect("ring save");
    }

    // Resuming from the fallback generation is bitwise identical to the
    // uninterrupted trajectory at the same step count.
    let shared = Arc::new(Discretization::new(scenario.clone(), quick_config().vector_size));
    let mut resumed =
        Stepper::resume_on(&team, &shared, quick_config(), &ring).expect("ring fallback");
    assert_eq!(resumed.generation, 1, "newest skipped, previous used");
    assert_eq!(resumed.stepper.state().step, 2);
    assert_eq!(resumed.skipped.len(), 1);
    resumed.stepper.step_on(&team).expect("resume step");

    let mut uninterrupted = Stepper::new(scenario, quick_config());
    for _ in 0..3 {
        uninterrupted.step_on(&team).expect("uninterrupted step");
    }
    assert_states_bitwise(uninterrupted.state(), resumed.stepper.state(), "ring-fallback restart");
    for generation in 0..3 {
        std::fs::remove_file(ring.slot(generation)).ok();
    }
}

/// Runs `steps` cavity steps saving a ring generation after each, then
/// hands the ring back for the test to damage.
fn seeded_ring(tag: &str, steps: usize) -> (CheckpointRing, Scenario) {
    let base = std::env::temp_dir().join(format!("lv_fault_{tag}_{}", std::process::id()));
    let ring = CheckpointRing::new(&base, 3);
    for generation in 0..3 {
        std::fs::remove_file(ring.slot(generation)).ok();
    }
    let team = Team::new(2);
    let scenario = cavity_scenario();
    let mut stepper = Stepper::new(scenario.clone(), quick_config());
    for _ in 0..steps {
        stepper.step_on(&team).expect("step");
        stepper.checkpoint_on(&team, &ring).expect("ring save");
    }
    (ring, scenario)
}

/// Resumes from `ring`'s newest intact generation and checks the finished
/// trajectory bitwise against the uninterrupted `total_steps`-step run.
fn assert_ring_resume_bitwise(ring: &CheckpointRing, scenario: &Scenario, total_steps: usize) {
    // Resume on a *different* pool size than the 2-thread writer: migration
    // across layouts must not cost a single bit.
    let team = Team::new(3);
    let shared = Arc::new(Discretization::new(scenario.clone(), quick_config().vector_size));
    let mut resumed =
        Stepper::resume_on(&team, &shared, quick_config(), ring).expect("ring fallback").stepper;
    while (resumed.state().step as usize) < total_steps {
        resumed.step_on(&team).expect("resume step");
    }
    let mut uninterrupted = Stepper::new(scenario.clone(), quick_config());
    for _ in 0..total_steps {
        uninterrupted.step_on(&team).expect("uninterrupted step");
    }
    assert_states_bitwise(uninterrupted.state(), resumed.state(), "preemption-race resume");
}

#[test]
fn generation_truncated_mid_rotation_falls_back_to_the_previous_intact_one() {
    let (ring, scenario) = seeded_ring("ring_truncated", 3);
    // Preempt the writer mid-flight: the newest slot holds half a record.
    let newest = ring.slot(0);
    let bytes = std::fs::read(&newest).expect("newest slot");
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).expect("truncate newest");

    let recovery = ring.load_latest().expect("ring fallback");
    assert_eq!(recovery.generation, 1, "torn newest skipped, previous used");
    assert_eq!(recovery.checkpoint.step, 2);
    assert_eq!(recovery.skipped.len(), 1, "the torn slot is reported");

    assert_ring_resume_bitwise(&ring, &scenario, 3);
    for generation in 0..3 {
        std::fs::remove_file(ring.slot(generation)).ok();
    }
}

#[test]
fn missing_newest_slot_after_an_interrupted_rotation_resumes_from_the_survivor() {
    let (ring, scenario) = seeded_ring("ring_missing", 3);
    // Die between the rotation (old slots shifted down) and the write of
    // the new slot 0: the newest generation is simply absent.
    std::fs::remove_file(ring.slot(0)).expect("drop newest");

    let recovery = ring.load_latest().expect("ring fallback");
    assert_eq!(recovery.generation, 1, "missing newest skipped silently");
    assert_eq!(recovery.checkpoint.step, 2);
    assert!(recovery.skipped.is_empty(), "a missing slot is not damage");

    assert_ring_resume_bitwise(&ring, &scenario, 3);
    for generation in 0..3 {
        std::fs::remove_file(ring.slot(generation)).ok();
    }
}

#[test]
fn exhausted_budget_is_a_structured_error_on_every_thread_count() {
    for threads in THREAD_COUNTS {
        let team = Team::new(threads);
        let mut plan = FaultPlan::new(5);
        for _ in 0..4 {
            plan = plan.with_fault(FaultKind::PoissonBreakdown, 2);
        }
        let config = quick_config().with_fault_plan(plan).with_max_dt_retries(2);
        let mut stepper = Stepper::new(cavity_scenario(), config);
        let err = stepper.run_recovering_on(&team, 4).expect_err("budget exhausted");
        assert_eq!(err.step, 2, "at {threads} threads");
        assert_eq!(err.attempts, 3);
        assert_eq!(err.error.phase(), "poisson");
        assert_eq!(stepper.state().step, 1, "rolled back to the last good step");
        let text = err.to_string();
        assert!(text.contains("step 2") && text.contains("poisson"), "{text}");
    }
}
