//! `cavity32` — the user's run: a lid-driven cavity at 32³ (32 768
//! elements, 35 937 rows) under the default `StepperConfig`, stepped on one
//! thread and on `T`.  At ~35× `SERIAL_CUTOFF` rows every pooled kernel
//! forks, and the ~12 MB CSR working set does not fit L2.  The mesh must
//! stay a box lattice for the multigrid path, so this workload is the same
//! for every seed.
//!
//! The legs advance in turn, one step each, so both see the same stretch of
//! host noise and each leg's samples span the whole measuring window.

use super::{
    furthest_from_roofline, hash_state, step_layers, sweep_balance, Ctx, Report, Size, Timed,
    Window,
};
use crate::metrics::Layers;
use crate::pace::{Pace, Paced};
use crate::spans::SpanLog;
use crate::{host, jsonio, probes, stats};
use lv_driver::{Scenario, ScenarioKind, Stepper, StepperConfig};
use lv_runtime::{Team, TraceConfig};
use lv_trace::summary::RunSummary;

/// Steps before the stopwatch starts (first-touch, workspace growth).
const WARM_UP: usize = 2;
/// The step at which the legs' states are compared and the kinetic energy
/// is checked against `reference.json`.
const CHECK_STEP: usize = 8;
/// Timed steps per leg of the traced pass.
const TRACED_STEPS: usize = 8;

fn scenario(size: Size) -> Scenario {
    let resolution = match size {
        Size::Full => 32,
        Size::Smoke => 8,
    };
    Scenario::new(ScenarioKind::LidDrivenCavity, resolution)
}

/// Kinetic energy after [`CHECK_STEP`] steps, from `reference.json`.
fn reference_energy(resolution: usize) -> f64 {
    let doc = jsonio::parse(include_str!("../../reference.json")).expect("reference.json parses");
    doc.get("cavity_kinetic_energy_step8")
        .and_then(|table| table.get(&resolution.to_string()))
        .and_then(jsonio::Value::as_f64)
        .unwrap_or_else(|| panic!("reference.json has no cavity entry for {resolution}"))
}

/// One leg: a stepper of its own, advanced on a team of `threads`.
struct Leg {
    threads: usize,
    team: Team,
    stepper: Stepper,
    setup_s: f64,
    /// Externally measured seconds of every timed step, and of all steps.
    steps: Paced,
    stepping_s: f64,
    retries: usize,
    /// `(state hash, kinetic energy)` after [`CHECK_STEP`] steps.
    check: Option<(u64, f64)>,
    failed: u64,
}

/// Mesh + team + stepper: one set-up of this workload.
fn set_up(spans: &mut SpanLog, scenario: &Scenario, threads: usize, traced: bool) -> Leg {
    let open = spans.enter("setup");
    let (mesh, mesh_s) = spans.time("lv-mesh/build_mesh", || scenario.build_mesh());
    let (team, team_s) = spans.time("lv-runtime/Team::new", || {
        if traced {
            Team::with_trace(threads, TraceConfig::default())
        } else {
            Team::new(threads)
        }
    });
    let (stepper, stepper_s) = spans.time("lv-driver/Stepper::with_mesh", || {
        Stepper::with_mesh(scenario.clone(), StepperConfig::default(), mesh)
    });
    spans.exit(open);
    Leg {
        threads,
        team,
        stepper,
        setup_s: mesh_s + team_s + stepper_s,
        steps: Paced::new(format!("step_s_t{threads}")),
        stepping_s: 0.0,
        retries: 0,
        check: None,
        failed: 0,
    }
}

impl Leg {
    fn step(&mut self, spans: &mut SpanLog, pace: &mut Pace, step: usize) -> f64 {
        let name = format!("lv-driver/Stepper::step_on (t{})", self.threads);
        let (result, sample) =
            pace.around(|| spans.time(&name, || self.stepper.step_on(&self.team)));
        let seconds = sample.unit_s;
        self.stepping_s += seconds;
        match result {
            Ok(report) => {
                self.retries += report.retries + report.poisson_fallbacks;
                if step > WARM_UP {
                    self.steps.push(sample);
                }
            }
            Err(error) => {
                eprintln!("cavity step {step} on {} thread(s) failed: {error}", self.threads);
                self.failed += 1;
            }
        }
        if step == CHECK_STEP && self.failed == 0 {
            self.check = Some((hash_state(self.stepper.state()), self.stepper.kinetic_energy()));
        }
        seconds
    }

    fn summary(&mut self) -> Option<RunSummary> {
        self.team.trace_mut().map(RunSummary::from_trace)
    }
}

/// Sets up one leg per `(threads, traced)` and advances them in turn: for
/// `window_s` seconds and at least to [`CHECK_STEP`], or for exactly
/// [`TRACED_STEPS`] timed steps when there is no window.
fn run_legs(
    spans: &mut SpanLog,
    pace: &mut Pace,
    scenario: &Scenario,
    specs: &[(usize, bool)],
    window_s: Option<f64>,
) -> Vec<Leg> {
    let mut legs: Vec<Leg> =
        specs.iter().map(|&(threads, traced)| set_up(spans, scenario, threads, traced)).collect();
    let open = spans.enter("legs");
    let window = Window::open(window_s.unwrap_or(f64::INFINITY));
    let mut round_s = 0.0;
    for step in 1.. {
        let wanted = match window_s {
            Some(_) => step <= CHECK_STEP || window.fits(round_s),
            None => step <= WARM_UP + TRACED_STEPS.max(CHECK_STEP - WARM_UP),
        };
        if !wanted || legs.iter().any(|leg| leg.failed > 0) {
            break;
        }
        round_s = legs.iter_mut().map(|leg| leg.step(spans, pace, step)).sum();
    }
    spans.exit(open);
    legs
}

/// The output checks shared by both passes; `legs[0]` runs on one thread.
fn check_legs(report: &mut Report, scenario: &Scenario, legs: &[Leg]) {
    for leg in legs {
        report.attempted += leg.steps.samples.len() as u64 + leg.failed;
        report.failed += leg.failed;
        report.check(leg.failed == 0 && leg.retries == 0, || {
            format!(
                "{} thread(s): {} failed step(s), {} retries/fallbacks",
                leg.threads, leg.failed, leg.retries
            )
        });
    }
    let Some((hash, energy)) = legs[0].check else {
        report.problems.push(format!("the 1-thread leg never reached step {CHECK_STEP}"));
        return;
    };
    for leg in &legs[1..] {
        report.check(leg.check.map(|c| c.0) == Some(hash), || {
            format!("state after step {CHECK_STEP} on {} thread(s) is not bitwise equal to the first leg's", leg.threads)
        });
    }
    let reference = reference_energy(scenario.resolution);
    report.check(((energy - reference) / reference).abs() <= 1e-6, || {
        format!("kinetic energy {energy:e} is not within 1e-6 of the reference {reference:e}")
    });
}

pub fn timed(ctx: &Ctx, spans: &mut SpanLog) -> Timed {
    let scenario = scenario(ctx.size);
    let threads = host::threads();
    let mut pace = Pace::new();
    let legs =
        run_legs(spans, &mut pace, &scenario, &[(1, false), (threads, false)], Some(ctx.seconds));

    let mut report = Report::default();
    check_legs(&mut report, &scenario, &legs);
    let mut paced: Vec<Paced> = legs.into_iter().map(|leg| leg.steps).collect();
    let mut setups = Paced::new("setup");
    for _ in 0..7 {
        setups.push(pace.around(|| ((), set_up(spans, &scenario, threads, false).setup_s)).1);
    }
    let setup_s = setups.paced_median();
    if paced.iter().any(|steps| steps.samples.is_empty()) {
        return Timed { report, unit_ms: f64::NAN, setup_s, paced };
    }
    let (step_t1, step_mt) = (paced[0].paced_median(), paced[1].paced_median());
    for steps in &paced {
        report.lines.push(steps.describe(1.0, "s"));
    }
    report.lines.push(format!(
        "parallel_eff = step_s_t1 / (T x step_s_mt) = {:.3} at T = {threads} (derived, not gated)",
        step_t1 / (threads as f64 * step_mt)
    ));
    report.lines.push(setups.describe(1.0, "s"));
    paced.push(setups);
    Timed { report, unit_ms: 1e3 * (step_t1 + step_mt), setup_s, paced }
}

pub fn traced(ctx: &Ctx, spans: &mut SpanLog, layers: &mut Layers) -> Report {
    let scenario = scenario(ctx.size);
    let threads = host::threads();
    host::probe(spans, layers);

    // An untraced 1-thread leg rides along: the tracing overhead is the
    // traced leg's step time over its.
    let pass = spans.enter("pass");
    let mut pace = Pace::new();
    let specs = [(1, true), (threads, true), (1, false)];
    let mut legs = run_legs(spans, &mut pace, &scenario, &specs, None);
    spans.exit(pass);

    let mut report = Report::default();
    check_legs(&mut report, &scenario, &legs);
    if legs.iter().any(|leg| leg.steps.samples.is_empty()) {
        return report;
    }
    let step_s: Vec<f64> = legs.iter().map(|leg| stats::lower_quartile(&leg.steps.raw())).collect();
    layers.set("driver.step_s_t1", step_s[0]);
    layers.set("driver.step_s_mt", step_s[1]);
    layers.set("driver.parallel_eff", step_s[0] / (threads as f64 * step_s[1]));
    layers.set("trace.overhead_ratio", step_s[0] / step_s[2] - 1.0);
    if let Some(summary) = legs[0].summary() {
        step_layers(layers, std::slice::from_ref(&summary));
        layers.set(
            "driver.layer_sum_ratio",
            summary.phase_seconds("driver/step") / legs[0].stepping_s,
        );
        spans.attach("t1", summary);
    }
    if let Some(summary) = legs[1].summary() {
        layers.set("kernel.sweep_balance", sweep_balance(&summary, threads));
        spans.attach("mt", summary);
    }
    drop(legs);

    probes::numeric_layers(spans, layers, &scenario, threads, &ctx.out_dir);

    report.lines.extend(furthest_from_roofline(layers));
    report.lines.push(format!(
        "the five per-step buckets sum to {:.1} % of the externally timed 1-thread steps",
        100.0 * layers.get("driver.layer_sum_ratio")
    ));
    report
}
