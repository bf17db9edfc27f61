//! Wall-clock measurement of full fractional steps — the engine behind the
//! `wallclock_driver` bench and the committed `BENCH_driver.json` artifact.
//!
//! Each case runs a fresh [`Stepper`] for a fixed number of steps on a
//! **traced** team of the requested size; the per-phase breakdown (assembly
//! / momentum / Poisson / correction / other) of the fastest repetition is
//! read off the [`RunSummary`] of the `lv-trace` span log — the bench no
//! longer keeps its own ad-hoc stopwatches.  Before any timing is trusted,
//! every multi-threaded trajectory is validated **bitwise** against the
//! single-threaded oracle — the driver's determinism contract — and the
//! measurement panics on the first deviating bit.

use crate::scenario::Scenario;
use crate::stepper::{SimState, StepTimings, Stepper, StepperConfig};
use lv_kernel::{build_pressure_multigrid, pressure_laplacian, MatrixFreeLaplacian};
use lv_runtime::Team;
use lv_solver::{
    conjugate_gradient, mg_preconditioned_cg, LinearOperator, MultigridOptions, SolveOptions,
};
use lv_trace::json::{JsonArray, JsonObject};
use lv_trace::summary::RunSummary;
use lv_trace::TraceConfig;

/// Timing of one `(threads,)` driver case.
#[derive(Debug, Clone)]
pub struct DriverMeasurement {
    /// Worker threads of the shared team.
    pub threads: usize,
    /// Total wall-clock seconds of the fastest repetition (all steps).
    pub seconds: f64,
    /// Per-phase breakdown of that repetition.
    pub timings: StepTimings,
    /// Speed-up over the single-threaded case.
    pub speedup: f64,
    /// Whether the final state matched the 1-thread oracle bit for bit.
    pub bitwise_equal: bool,
}

/// A full driver wall-clock comparison on one scenario.
#[derive(Debug, Clone)]
pub struct DriverBenchReport {
    /// Scenario registry name.
    pub scenario: String,
    /// Mesh elements.
    pub elements: usize,
    /// Mesh nodes (= solver rows per component).
    pub rows: usize,
    /// Steps per repetition.
    pub steps: usize,
    /// Repetitions per case.
    pub repetitions: usize,
    /// Per-thread-count measurements, 1-thread oracle first.
    pub cases: Vec<DriverMeasurement>,
}

fn assert_states_bitwise(oracle: &SimState, got: &SimState, threads: usize) {
    assert_eq!(oracle.step, got.step, "step count diverged at {threads} threads");
    assert_eq!(
        oracle.time.to_bits(),
        got.time.to_bits(),
        "simulation time diverged at {threads} threads"
    );
    for (a, b) in oracle.velocity.as_slice().iter().zip(got.velocity.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "velocity diverged at {threads} threads");
    }
    for (a, b) in oracle.pressure.as_slice().iter().zip(got.pressure.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "pressure diverged at {threads} threads");
    }
}

impl DriverBenchReport {
    /// Times `steps` fractional steps of `scenario` at every entry of
    /// `thread_counts` (the 1-thread case is always measured first as the
    /// oracle), `repetitions` fresh runs per case, keeping the fastest.
    ///
    /// # Panics
    /// Panics if a step fails to converge or a multi-threaded trajectory
    /// deviates from the single-threaded oracle in any bit.
    pub fn measure(
        scenario: &Scenario,
        config: StepperConfig,
        steps: usize,
        thread_counts: &[usize],
        repetitions: usize,
    ) -> Self {
        assert!(steps > 0 && repetitions > 0);
        let mesh = scenario.build_mesh();
        let mut cases = Vec::new();
        let mut oracle: Option<SimState> = None;
        let mut serial_seconds = f64::NAN;
        let mut counts: Vec<usize> = vec![1];
        counts.extend(thread_counts.iter().copied().filter(|&t| t > 1));
        for threads in counts {
            let mut team = Team::with_trace(threads, TraceConfig::default());
            let mut best_total = f64::INFINITY;
            let mut best_timings = StepTimings::default();
            let mut final_state: Option<SimState> = None;
            for _ in 0..repetitions {
                let mut stepper =
                    Stepper::with_mesh(scenario.clone(), config.clone(), mesh.clone());
                stepper.run_on(&team, steps).expect("driver step must converge");
                // One repetition's phase breakdown, read off the span log.
                let trace = team.trace_mut().expect("the bench team is traced");
                let summary = RunSummary::from_trace(trace);
                trace.clear_events();
                let total = summary.phase_seconds("driver/step");
                let mut timings = StepTimings {
                    assembly: summary.phase_seconds("driver/assembly"),
                    momentum: summary.phase_seconds("driver/momentum"),
                    poisson: summary.phase_seconds("driver/poisson"),
                    correction: summary.phase_seconds("driver/correction"),
                    other: 0.0,
                };
                timings.other = (total - timings.total()).max(0.0);
                if total < best_total {
                    best_total = total;
                    best_timings = timings;
                }
                final_state = Some(stepper.state().clone());
            }
            let final_state = final_state.expect("at least one repetition ran");
            let bitwise_equal = match &oracle {
                None => {
                    serial_seconds = best_total;
                    oracle = Some(final_state);
                    true
                }
                Some(oracle) => {
                    assert_states_bitwise(oracle, &final_state, threads);
                    true
                }
            };
            cases.push(DriverMeasurement {
                threads,
                seconds: best_total,
                timings: best_timings,
                speedup: serial_seconds / best_total,
                bitwise_equal,
            });
        }
        DriverBenchReport {
            scenario: scenario.kind.name().to_string(),
            elements: mesh.num_elements(),
            rows: mesh.num_nodes(),
            steps,
            repetitions,
            cases,
        }
    }

    /// JSON object via the shared [`lv_trace::json`] emitter (the offline
    /// `serde_json` shim cannot serialize).
    pub fn to_json(&self) -> String {
        let mut cases = JsonArray::new();
        for c in &self.cases {
            cases.push_object(
                JsonObject::new()
                    .usize("threads", c.threads)
                    .f64_fixed("seconds", c.seconds, 9)
                    .f64_fixed("assembly_seconds", c.timings.assembly, 9)
                    .f64_fixed("momentum_seconds", c.timings.momentum, 9)
                    .f64_fixed("poisson_seconds", c.timings.poisson, 9)
                    .f64_fixed("correction_seconds", c.timings.correction, 9)
                    .f64_fixed("other_seconds", c.timings.other, 9)
                    .f64_fixed("speedup", c.speedup, 4)
                    .bool("bitwise_equal", c.bitwise_equal),
            );
        }
        JsonObject::new()
            .str("scenario", &self.scenario)
            .usize("elements", self.elements)
            .usize("rows", self.rows)
            .usize("steps", self.steps)
            .usize("repetitions", self.repetitions)
            .array("cases", cases)
            .finish()
    }

    /// Aligned human-readable table.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "{}: {} elements / {} rows, {} step(s), min of {} rep(s)\n",
            self.scenario, self.elements, self.rows, self.steps, self.repetitions
        );
        for c in &self.cases {
            out.push_str(&format!(
                "  {:>2}t {:>9.3} ms  {:>5.2}x  (assembly {:.1}% | momentum {:.1}% | \
                 poisson {:.1}% | correction {:.1}% | other {:.1}%)  bitwise == 1t\n",
                c.threads,
                c.seconds * 1e3,
                c.speedup,
                100.0 * c.timings.assembly / c.seconds,
                100.0 * c.timings.momentum / c.seconds,
                100.0 * c.timings.poisson / c.seconds,
                100.0 * c.timings.correction / c.seconds,
                100.0 * c.timings.other / c.seconds,
            ));
        }
        out
    }
}

/// One resolution of the pressure-solver comparison: plain Jacobi-CG
/// against MG-CG on the identical pinned Poisson system, plus the
/// streamed-bytes bandwidth proxy of the assembled CSR operator against the
/// matrix-free one.
#[derive(Debug, Clone)]
pub struct PressureSolverCase {
    /// Elements per direction of the cavity box (`n³` mesh).
    pub resolution: usize,
    /// Solver rows (mesh nodes).
    pub rows: usize,
    /// Iterations of the Jacobi-CG solve.
    pub cg_iterations: usize,
    /// Fastest Jacobi-CG wall-clock (seconds).
    pub cg_seconds: f64,
    /// Iterations of the MG-CG solve.
    pub mgcg_iterations: usize,
    /// Fastest MG-CG wall-clock (seconds).
    pub mgcg_seconds: f64,
    /// Multigrid levels of the V-cycle hierarchy.
    pub mgcg_levels: usize,
    /// Bytes one CSR `A·x` streams (operator data only).
    pub csr_streamed_bytes: usize,
    /// Bytes one matrix-free `A·x` streams (operator data only).
    pub matrix_free_streamed_bytes: usize,
}

/// Measures the pressure-solver comparison on lid-driven-cavity boxes at the
/// given resolutions: the same deterministic right-hand side solved to the
/// driver's tolerance by Jacobi-CG and MG-CG (fastest of `repetitions`,
/// serial — iteration counts are thread-invariant by the determinism
/// contract).
///
/// # Panics
/// Panics if a solve fails to converge or the cavity box is not recognised
/// as a structured lattice (the multigrid glue must always succeed here).
pub fn measure_pressure_solvers(
    resolutions: &[usize],
    repetitions: usize,
) -> Vec<PressureSolverCase> {
    assert!(repetitions > 0);
    let options = SolveOptions { max_iterations: 4000, tolerance: 1e-10, ..Default::default() };
    let mut cases = Vec::new();
    for &n in resolutions {
        let scenario = Scenario::new(crate::scenario::ScenarioKind::LidDrivenCavity, n);
        let mesh = scenario.build_mesh();
        let pins = scenario.pressure_pins(&mesh);
        let laplacian = pressure_laplacian(&mesh, 128, &pins);
        let matrix_free = MatrixFreeLaplacian::new(&mesh, &pins);
        // A deterministic smooth-plus-noise RHS with the pinned rows zeroed —
        // representative of a projection right-hand side without depending
        // on the trajectory.
        let mut rhs: Vec<f64> = (0..laplacian.dim())
            .map(|i| {
                let t =
                    (i as u64).wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((t >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect();
        for &pin in &pins {
            rhs[pin] = 0.0;
        }

        let mut multigrid =
            build_pressure_multigrid(&mesh, &laplacian, &MultigridOptions::default())
                .expect("cavity boxes are structured lattices");
        let mgcg_levels = multigrid.num_levels();

        let mut cg_iterations = 0;
        let mut mgcg_iterations = 0;
        let cg_seconds = lv_trace::time_min(repetitions, || {
            let cg = conjugate_gradient(&laplacian, &rhs, &options).expect("CG converges");
            cg_iterations = cg.iterations;
        });
        let mgcg_seconds = lv_trace::time_min(repetitions, || {
            let mg = mg_preconditioned_cg(&laplacian, &mut multigrid, &rhs, &options)
                .expect("MG-CG converges");
            mgcg_iterations = mg.iterations;
        });

        cases.push(PressureSolverCase {
            resolution: n,
            rows: laplacian.dim(),
            cg_iterations,
            cg_seconds,
            mgcg_iterations,
            mgcg_seconds,
            mgcg_levels,
            csr_streamed_bytes: LinearOperator::streamed_bytes(&laplacian),
            matrix_free_streamed_bytes: matrix_free.streamed_bytes(),
        });
    }
    cases
}

/// Renders the `pressure_solver` cases as a JSON array via the shared
/// [`lv_trace::json`] emitter.
pub fn pressure_solver_cases_to_json(cases: &[PressureSolverCase]) -> String {
    let mut out = String::from("[\n");
    for (i, c) in cases.iter().enumerate() {
        out.push_str("    ");
        out.push_str(
            &JsonObject::new()
                .usize("resolution", c.resolution)
                .usize("rows", c.rows)
                .usize("cg_iterations", c.cg_iterations)
                .f64_fixed("cg_seconds", c.cg_seconds, 9)
                .usize("mgcg_iterations", c.mgcg_iterations)
                .f64_fixed("mgcg_seconds", c.mgcg_seconds, 9)
                .usize("mgcg_levels", c.mgcg_levels)
                .usize("csr_streamed_bytes", c.csr_streamed_bytes)
                .usize("matrix_free_streamed_bytes", c.matrix_free_streamed_bytes)
                .finish(),
        );
        out.push_str(if i + 1 < cases.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    out
}

/// Serializes driver reports (and the pressure-solver comparison, when
/// measured) as the `BENCH_driver.json` document.
pub fn driver_bench_to_json(
    host_threads: usize,
    reports: &[DriverBenchReport],
    pressure: &[PressureSolverCase],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"bench\": \"wallclock_driver\",\n  \"host_threads\": {host_threads},\n"
    ));
    out.push_str("  \"runs\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&r.to_json());
        out.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    if !pressure.is_empty() {
        out.push_str(",\n  \"pressure_solver\": ");
        out.push_str(&pressure_solver_cases_to_json(pressure));
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioKind;

    #[test]
    fn driver_bench_measures_validates_and_renders() {
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 4);
        let config = StepperConfig::default().with_vector_size(32);
        let report = DriverBenchReport::measure(&scenario, config, 1, &[2], 1);
        assert_eq!(report.cases.len(), 2);
        assert_eq!(report.cases[0].threads, 1);
        assert_eq!(report.cases[1].threads, 2);
        for c in &report.cases {
            assert!(c.seconds > 0.0 && c.seconds.is_finite());
            assert!(c.timings.total() > 0.0);
            assert!(c.bitwise_equal);
        }
        let json = report.to_json();
        assert!(json.contains("\"scenario\": \"cavity\""));
        assert!(json.contains("\"poisson_seconds\""));
        let doc = driver_bench_to_json(4, std::slice::from_ref(&report), &[]);
        assert!(doc.contains("\"bench\": \"wallclock_driver\""));
        assert!(doc.contains("\"host_threads\": 4"));
        assert!(!doc.contains("\"pressure_solver\""));
        assert!(report.to_text().contains("bitwise == 1t"));
    }

    #[test]
    fn pressure_solver_comparison_favors_multigrid() {
        let cases = measure_pressure_solvers(&[6, 8], 1);
        assert_eq!(cases.len(), 2);
        for c in &cases {
            assert_eq!(c.rows, (c.resolution + 1).pow(3));
            assert!(c.mgcg_iterations < c.cg_iterations, "MG-CG must cut iterations");
            assert!(c.mgcg_levels >= 2);
            assert!(c.matrix_free_streamed_bytes < c.csr_streamed_bytes);
            assert!(c.cg_seconds > 0.0 && c.mgcg_seconds > 0.0);
        }
        let doc = driver_bench_to_json(4, &[], &cases);
        assert!(doc.contains("\"pressure_solver\": ["));
        assert!(doc.contains("\"mgcg_iterations\""));
        assert!(doc.contains("\"matrix_free_streamed_bytes\""));
    }
}
