//! Layer probes: the public calls of `lv-mesh`, `lv-runtime`, `lv-kernel`,
//! `lv-solver` and `lv-driver` that a time step is built from, each timed on
//! its own on the workload's problem.  Bytes behind a GB/s figure are
//! computed from array sizes (they ignore cache misses).

use crate::metrics::Layers;
use crate::spans::SpanLog;
use crate::stats::median;
use lv_driver::{load_checkpoint, save_checkpoint, Scenario, Stepper, StepperConfig};
use lv_kernel::{build_pressure_multigrid, PressureOperators};
use lv_mesh::{ColoredChunks, ElementColoring, Mesh};
use lv_runtime::Team;
use lv_solver::{conjugate_gradient_on, LinearOperator, MultiVector, MultigridOptions, VectorOps};
use std::hint::black_box;
use std::path::Path;

/// Median seconds of `reps` calls of `f` under span `name`.
pub fn timed_median<R>(
    spans: &mut SpanLog,
    name: &str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| spans.time(name, || black_box(f())).1).collect();
    median(&samples)
}

/// A deterministic, non-trivial vector of `n` entries in `[-0.5, 0.5)`.
fn wave(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i as f64) * 0.618_033_988_749_895).fract() - 0.5).collect()
}

/// `lv-mesh`: building `mesh` (by `build`), coloring it and packing the
/// colored `VECTOR_SIZE` chunks — paid by every set-up, and by every slice
/// of a fleet job.
pub fn mesh_layers(
    spans: &mut SpanLog,
    layers: &mut Layers,
    vector_size: usize,
    build: impl Fn() -> Mesh,
) {
    let open = spans.enter("probes/lv-mesh");
    layers.set("mesh.build_s", timed_median(spans, "lv-mesh/build", 5, &build));
    let mesh = build();
    let mut schedule = None;
    let coloring_s = timed_median(spans, "lv-mesh/ElementColoring+ColoredChunks", 3, || {
        let coloring = ElementColoring::balanced(&mesh);
        schedule = Some(ColoredChunks::new(&coloring, vector_size));
    });
    layers.set("mesh.coloring_s", coloring_s);
    let schedule = schedule.expect("the closure ran");
    layers.set("mesh.colors", schedule.num_colors() as f64);
    layers.set("mesh.chunks", schedule.num_chunks() as f64);
    spans.exit(open);
}

/// `lv-runtime` at `threads`: spawning a team, one empty fork/join epoch,
/// and the blocked dot product over `n` entries.
pub fn runtime_layers(spans: &mut SpanLog, layers: &mut Layers, threads: usize, n: usize) {
    let open = spans.enter("probes/lv-runtime");
    layers.set(
        "runtime.team_spawn_s",
        timed_median(spans, "lv-runtime/Team::new", 9, || Team::new(threads)),
    );
    let team = Team::new(threads);
    const EPOCHS: usize = 2000;
    let ((), seconds) = spans.time("lv-runtime/Team::run x2000", || {
        for _ in 0..EPOCHS {
            team.run(&|rank| {
                black_box(rank);
            });
        }
    });
    layers.set("runtime.dispatch_us", 1e6 * seconds / EPOCHS as f64);
    let (a, b) = (wave(n), wave(n + 1)[1..].to_vec());
    let mut ops = VectorOps::on_team(&team);
    let dot_s = timed_median(spans, "lv-solver/VectorOps::dot", 200, || ops.dot(&a, &b));
    layers.set("runtime.dot_gbs", (2 * n * 8) as f64 / dot_s / 1e9);
    spans.exit(open);
}

/// The numeric stack under a time step of `scenario`, layer by layer:
/// mesh, runtime, the pressure operators, SpMV/SpMM, one plain CG solve
/// (the fallback path), multigrid set-up, stepper set-up and checkpoint I/O.
/// Kernel and solver calls run on one thread, the runtime probes on
/// `threads`.
pub fn numeric_layers(
    spans: &mut SpanLog,
    layers: &mut Layers,
    scenario: &Scenario,
    threads: usize,
    out_dir: &Path,
) {
    let config = StepperConfig::default();
    mesh_layers(spans, layers, config.vector_size, || scenario.build_mesh());
    let mesh = scenario.build_mesh();
    let n = mesh.num_nodes();
    runtime_layers(spans, layers, threads, n);

    let open = spans.enter("probes/numeric");
    let team = Team::new(1);
    let mut ops = VectorOps::on_team(&team);
    let pins = scenario.pressure_pins(&mesh);

    let mut built = None;
    let setup_s =
        timed_median(spans, "lv-kernel/PressureOperators::new+assemble_laplacian_on", 3, || {
            let operators = PressureOperators::new(&mesh, config.vector_size);
            let laplacian = operators.assemble_laplacian_on(&team);
            built = Some((operators, laplacian));
        });
    layers.set("kernel.operators_setup_s", setup_s);
    let (operators, mut laplacian) = built.expect("the closure ran");
    laplacian.pin_rows_symmetric(&pins);

    let matrix_free = operators.matrix_free_laplacian(&pins);
    let x = wave(n);
    let mut y = vec![0.0; n];
    layers.set(
        "kernel.mf_apply_s",
        timed_median(spans, "lv-kernel/MatrixFreeLaplacian apply", 9, || {
            ops.apply(&matrix_free, &x, &mut y)
        }),
    );

    let spmv_s =
        timed_median(spans, "lv-solver/VectorOps::spmv", 25, || ops.spmv(&laplacian, &x, &mut y));
    layers.set("solver.spmv_s", spmv_s);
    // Operator arrays plus one read of x and one write of y.
    let spmv_bytes = LinearOperator::streamed_bytes(&laplacian) + 2 * n * 8;
    layers.set("solver.spmv_gbs", spmv_bytes as f64 / spmv_s / 1e9);
    let x3 = MultiVector::from_columns([&x, &x, &x]);
    let mut y3 = MultiVector::zeros(n);
    layers.set(
        "solver.spmm3_s",
        timed_median(spans, "lv-solver/VectorOps::spmm3", 25, || {
            ops.spmm3(&laplacian, &x3, &mut y3, [true; 3])
        }),
    );

    // A consistent right-hand side: zero on the pinned rows, L·x elsewhere.
    let mut known = x.clone();
    for &pin in &pins {
        known[pin] = 0.0;
    }
    let rhs = laplacian.mul_vec(&known);
    let (solve, seconds) = spans.time("lv-solver/conjugate_gradient_on", || {
        conjugate_gradient_on(&team, &laplacian, &rhs, &config.poisson_options)
    });
    if let Ok(outcome) = solve {
        layers.set("solver.cg_iter_s", seconds / outcome.iterations.max(1) as f64);
    }
    let multigrid_s = timed_median(spans, "lv-kernel/build_pressure_multigrid", 3, || {
        build_pressure_multigrid(&mesh, &laplacian, &MultigridOptions::default())
    });
    layers.set("solver.mg_setup_s", multigrid_s);
    spans.exit(open);

    let open = spans.enter("probes/lv-driver");
    let mut stepper = None;
    let stepper_s = timed_median(spans, "lv-driver/Stepper::with_mesh", 3, || {
        stepper = Some(Stepper::with_mesh(scenario.clone(), config.clone(), mesh.clone()));
    });
    layers.set("driver.stepper_setup_s", stepper_s);
    let stepper = stepper.expect("the closure ran");
    let path = out_dir.join(format!("probe-{}.ckpt", std::process::id()));
    if std::fs::create_dir_all(out_dir).is_ok() {
        let save_s = timed_median(spans, "lv-driver/save_checkpoint", 5, || {
            save_checkpoint(&path, scenario, stepper.state()).expect("checkpoint written")
        });
        layers.set("driver.ckpt_save_s", save_s);
        layers.set("driver.ckpt_bytes", std::fs::metadata(&path).map_or(0, |m| m.len()) as f64);
        let load_s = timed_median(spans, "lv-driver/load_checkpoint", 5, || {
            load_checkpoint(&path).expect("checkpoint read back")
        });
        layers.set("driver.ckpt_load_s", load_s);
        let _ = std::fs::remove_file(&path);
    }
    spans.exit(open);
}
