//! `assembly_vs` — the paper's mini-app, natively: the colored assembly
//! sweep over a seed-jittered 32³ cavity mesh on one thread, at semi-implicit
//! `VECTOR_SIZE` 16 / 128 / 240 and explicit 240.  `lv-kernel` does all the
//! work and `lv-solver` none, so an assembly change shows here ~5× larger
//! than in `cavity32`; the explicit leg runs the same kernels without
//! element matrices or CSR scatter, so a scatter gain that costs the gather
//! shows as one leg down and one up.

use super::{hash_f64s, sweep_balance, sweep_layers, Ctx, Report, Size, Timed, Window, FNV_OFFSET};
use crate::metrics::Layers;
use crate::pace::{Pace, Paced};
use crate::spans::SpanLog;
use crate::{host, probes, stats};
use lv_kernel::{ElementWorkspace, KernelConfig, NastinAssembly, OptLevel};
use lv_mesh::{BoxMeshBuilder, Field, Mesh, Vec3, VectorField};
use lv_runtime::{Team, TraceConfig};
use lv_solver::CsrMatrix;
use lv_trace::summary::RunSummary;

/// One leg of the `VECTOR_SIZE` ladder.
#[derive(Debug, Clone, Copy)]
struct LegSpec {
    vector_size: usize,
    explicit: bool,
    /// The per-layer metric this leg's ns/element is published under.
    metric: &'static str,
}

const LADDER: [LegSpec; 4] = [
    LegSpec { vector_size: 16, explicit: false, metric: "kernel.asm_ns_per_elem_vs16" },
    LegSpec { vector_size: 128, explicit: false, metric: "kernel.asm_ns_per_elem_vs128" },
    LegSpec { vector_size: 240, explicit: false, metric: "kernel.asm_ns_per_elem_vs240" },
    LegSpec { vector_size: 240, explicit: true, metric: "kernel.asm_ns_per_elem_vs240_explicit" },
];

/// Sweeps every leg runs at least, and the traced pass runs exactly.
const MIN_SWEEPS: usize = 8;

fn build_mesh(ctx: &Ctx) -> Mesh {
    let n = match ctx.size {
        Size::Full => 32,
        Size::Smoke => 8,
    };
    BoxMeshBuilder::new(n, n, n).lid_driven_cavity().with_jitter(0.15, ctx.seed).build()
}

fn kernel_config(spec: LegSpec) -> KernelConfig {
    let config = KernelConfig::new(spec.vector_size, OptLevel::Vec1);
    if spec.explicit {
        config.explicit_scheme()
    } else {
        config
    }
}

/// Mesh, team and the four assembly kernels: one set-up of this workload.
fn set_up(spans: &mut SpanLog, ctx: &Ctx, traced: bool) -> (Mesh, Team, Vec<NastinAssembly>, f64) {
    let open = spans.enter("setup");
    let (mesh, mesh_s) = spans.time("lv-mesh/build_mesh", || build_mesh(ctx));
    let (team, team_s) = spans.time("lv-runtime/Team::new", || {
        if traced {
            Team::with_trace(1, TraceConfig::default())
        } else {
            Team::new(1)
        }
    });
    let (kernels, kernels_s) = spans.time("lv-kernel/NastinAssembly::new x4", || {
        LADDER.iter().map(|&spec| NastinAssembly::new(mesh.clone(), kernel_config(spec))).collect()
    });
    spans.exit(open);
    (mesh, team, kernels, mesh_s + team_s + kernels_s)
}

/// The flow state the sweeps assemble: a Taylor–Green field with the cavity
/// boundary values, and a smooth pressure.
fn flow_state(mesh: &Mesh) -> (VectorField, Field) {
    let mut velocity = VectorField::taylor_green(mesh);
    velocity.apply_boundary_conditions(mesh, Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO);
    (velocity, Field::from_fn(mesh, |p| p.x * p.y - 0.5 * p.z))
}

fn hash_system(matrix: &CsrMatrix, rhs: &[f64]) -> u64 {
    hash_f64s(hash_f64s(FNV_OFFSET, matrix.values()), rhs)
}

fn max_abs_delta(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// One leg of the ladder with the storage its sweeps assemble into.
struct Leg<'a> {
    spec: LegSpec,
    kernel: &'a NastinAssembly,
    matrix: CsrMatrix,
    rhs: Vec<f64>,
    workspaces: Vec<ElementWorkspace>,
    sweeps: Paced,
    first_hash: Option<u64>,
    singular: usize,
}

impl<'a> Leg<'a> {
    fn new(spec: LegSpec, kernel: &'a NastinAssembly) -> Self {
        let name =
            format!("vs{}{}", spec.vector_size, if spec.explicit { "_explicit" } else { "" });
        Leg {
            spec,
            kernel,
            matrix: kernel.new_matrix(),
            rhs: vec![0.0; 3 * kernel.mesh().num_nodes()],
            workspaces: vec![ElementWorkspace::new(spec.vector_size)],
            sweeps: Paced::new(name),
            first_hash: None,
            singular: 0,
        }
    }

    fn name(&self) -> &str {
        &self.sweeps.name
    }

    fn sweep(
        &mut self,
        spans: &mut SpanLog,
        pace: &mut Pace,
        team: &Team,
        (velocity, pressure): &(VectorField, Field),
    ) -> f64 {
        let name = format!("lv-kernel/assemble_parallel_into_on ({})", self.name());
        let (stats, sample) = pace.around(|| {
            spans.time(&name, || {
                self.kernel.assemble_parallel_into_on(
                    team,
                    velocity,
                    pressure,
                    &mut self.matrix,
                    &mut self.rhs,
                    &mut self.workspaces,
                )
            })
        });
        self.sweeps.push(sample);
        self.singular += stats.singular_jacobians;
        self.first_hash.get_or_insert_with(|| hash_system(&self.matrix, &self.rhs));
        sample.unit_s
    }

    /// The output checks of this leg, after its last sweep.
    fn check(
        &mut self,
        spans: &mut SpanLog,
        report: &mut Report,
        (velocity, pressure): &(VectorField, Field),
    ) {
        let name = self.name().to_string();
        report.attempted += self.sweeps.samples.len() as u64;
        report
            .check(self.singular == 0, || format!("{name}: {} singular Jacobians", self.singular));
        report.check(self.first_hash == Some(hash_system(&self.matrix, &self.rhs)), || {
            format!("{name}: repeated sweeps are not bitwise equal")
        });
        // The serial slice path is the oracle; the colored schedule only
        // permutes the summation order.
        let mut oracle_matrix = self.kernel.new_matrix();
        let mut oracle_rhs = vec![0.0; self.rhs.len()];
        spans.time("lv-kernel/assemble_into_slices (oracle)", || {
            self.kernel.assemble_into_slices(
                velocity,
                pressure,
                &mut oracle_matrix,
                &mut oracle_rhs,
                &mut self.workspaces[0],
            )
        });
        let delta = max_abs_delta(self.matrix.values(), oracle_matrix.values())
            .max(max_abs_delta(&self.rhs, &oracle_rhs));
        report.check(delta <= 1e-11, || format!("{name}: {delta:e} off the slice-path oracle"));
    }
}

/// Sweeps the four legs in turn — so each leg's samples span the whole
/// window and all see the same stretch of host noise — for `window_s`
/// seconds, or [`MIN_SWEEPS`] times each without a window.
fn run_ladder<'a>(
    spans: &mut SpanLog,
    pace: &mut Pace,
    report: &mut Report,
    kernels: &'a [NastinAssembly],
    team: &Team,
    state: &(VectorField, Field),
    window_s: Option<f64>,
) -> Vec<Leg<'a>> {
    let open = spans.enter("ladder");
    let mut legs: Vec<Leg> =
        LADDER.iter().zip(kernels).map(|(&spec, kernel)| Leg::new(spec, kernel)).collect();
    let window = Window::open(window_s.unwrap_or(f64::INFINITY));
    let mut round_s = 0.0;
    for round in 0.. {
        if round >= MIN_SWEEPS && !(window_s.is_some() && window.fits(round_s)) {
            break;
        }
        round_s = legs.iter_mut().map(|leg| leg.sweep(spans, pace, team, state)).sum();
    }
    for leg in &mut legs {
        leg.check(spans, report, state);
    }
    spans.exit(open);
    legs
}

pub fn timed(ctx: &Ctx, spans: &mut SpanLog) -> Timed {
    let (mesh, team, kernels, _) = set_up(spans, ctx, false);
    let state = flow_state(&mesh);
    let elements = mesh.num_elements() as f64;
    let mut report = Report::default();
    let mut pace = Pace::new();
    let legs =
        run_ladder(spans, &mut pace, &mut report, &kernels, &team, &state, Some(ctx.seconds));
    let mut paced: Vec<Paced> = legs.into_iter().map(|leg| leg.sweeps).collect();
    let mut unit_s = 0.0;
    for sweeps in &paced {
        unit_s += sweeps.paced_median();
        report.lines.push(format!("asm_ns_per_elem_{}", sweeps.describe(1e9 / elements, "ns")));
    }
    drop((team, kernels));
    let mut setups = Paced::new("setup");
    for _ in 0..9 {
        setups.push(pace.around(|| ((), set_up(spans, ctx, false).3)).1);
    }
    report.lines.push(setups.describe(1.0, "s"));
    let setup_s = setups.paced_median();
    paced.push(setups);
    Timed { report, unit_ms: 1e3 * unit_s, setup_s, paced }
}

pub fn traced(ctx: &Ctx, spans: &mut SpanLog, layers: &mut Layers) -> Report {
    host::probe(spans, layers);
    let pass = spans.enter("pass");
    let (mesh, mut team, kernels, _) = set_up(spans, ctx, true);
    let state = flow_state(&mesh);
    let elements = mesh.num_elements() as f64;
    let mut report = Report::default();
    let mut pace = Pace::new();
    for leg in run_ladder(spans, &mut pace, &mut report, &kernels, &team, &state, None) {
        let sweep_s = stats::lower_quartile(&leg.sweeps.raw());
        layers.set(leg.spec.metric, 1e9 * sweep_s / elements);
        if leg.spec.vector_size == 128 {
            // The stepper's own configuration: what `kernel.assembly_s`
            // means in `cavity32`, minus pressure force and Dirichlet rows.
            layers.set("kernel.assembly_s", sweep_s);
        }
    }
    spans.exit(pass);

    if let Some(summary) = team.trace_mut().map(RunSummary::from_trace) {
        sweep_layers(layers, std::slice::from_ref(&summary));
        layers.set("kernel.sweep_balance", sweep_balance(&summary, 1));
        layers.set("trace.dropped_events", summary.counter("dropped_events").unwrap_or(0) as f64);
        spans.attach("t1", summary);
    }
    probes::mesh_layers(spans, layers, 128, || build_mesh(ctx));
    probes::runtime_layers(spans, layers, 1, mesh.num_nodes());
    report
}
