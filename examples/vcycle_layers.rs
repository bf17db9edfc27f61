//! Level by level through the pressure multigrid of an `N³` lid-driven
//! cavity: what each level stores and how fast it streams — CSR against the
//! diagonal storage the V-cycle runs on (README "Level storage").
//!
//! Per level: rows, diagonals, operator bytes in both formats, and the
//! median wall-clock and GB/s of `CsrMatrix::spmv`, the `DiaMatrix`
//! product and one fused damped-Jacobi sweep, one thread; then one whole
//! V-cycle.  The two products are asserted bitwise equal on every level.
//!
//! ```text
//! cargo run --release --example vcycle_layers [-- <elements per side, default 32>]
//! ```

use alya_longvec::prelude::*;
use lv_kernel::{pressure_interpolations, pressure_laplacian};
use lv_solver::{
    galerkin_coarse, DiaMatrix, GeometricMultigrid, LinearOperator, MultigridOptions, VectorOps,
};
use std::time::Instant;

const REPEATS: usize = 15;

/// Median milliseconds of `REPEATS` runs of `f`.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            f();
            1e3 * start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[REPEATS / 2]
}

fn gbs(bytes: usize, ms: f64) -> f64 {
    bytes as f64 / (1e6 * ms)
}

fn main() {
    let n: usize = match std::env::args().nth(1) {
        Some(arg) => arg.parse().expect("elements per side must be a positive integer"),
        None => 32,
    };
    let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, n);
    let mesh = scenario.build_mesh();
    let pins = scenario.pressure_pins(&mesh);
    let options = MultigridOptions::default();
    let laplacian = pressure_laplacian(&mesh, 128, &pins);
    let interps = pressure_interpolations(&mesh, &options).expect("the cavity is a box lattice");

    // The CSR chain the hierarchy is built from (and then drops).
    let mut csr_levels = vec![laplacian];
    for p in &interps {
        let coarse = galerkin_coarse(csr_levels.last().expect("non-empty"), p);
        csr_levels.push(coarse);
    }

    println!("pressure multigrid of the {n}³ cavity, 1 thread, median of {REPEATS}");
    println!(
        "{:>5} {:>7} {:>5} {:>10} {:>10} | {:>9} {:>6} | {:>9} {:>6} | {:>9} {:>6}",
        "level",
        "rows",
        "diags",
        "CSR B",
        "DIA B",
        "spmv ms",
        "GB/s",
        "DIA ms",
        "GB/s",
        "sweep ms",
        "GB/s"
    );
    for (level, csr) in csr_levels.iter().enumerate() {
        let dia = DiaMatrix::from_csr(csr).expect("a lattice level fits the diagonal storage");
        let rows = csr.dim();
        let x: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.11).cos()).collect();
        let inv_diag: Vec<f64> = csr.diagonal().iter().map(|d| 1.0 / d).collect();
        let (mut y_csr, mut y_dia, mut xn) = (vec![0.0; rows], vec![0.0; rows], vec![0.0; rows]);

        let csr_ms = median_ms(|| csr.spmv(&x, &mut y_csr));
        let dia_ms = median_ms(|| LinearOperator::apply(&dia, &x, &mut y_dia));
        let sweep_ms = median_ms(|| dia.jacobi_range(&x, &b, &inv_diag, 0.8, 0..rows, &mut xn));
        assert!(
            y_csr.iter().zip(&y_dia).all(|(a, b)| a.to_bits() == b.to_bits()),
            "level {level}: DIA product differs from CSR"
        );
        std::hint::black_box(&xn);

        let (csr_bytes, dia_bytes) = (LinearOperator::streamed_bytes(csr), dia.streamed_bytes());
        println!(
            "{level:>5} {rows:>7} {:>5} {csr_bytes:>10} {dia_bytes:>10} | {csr_ms:>9.4} {:>6.1} | {dia_ms:>9.4} {:>6.1} | {sweep_ms:>9.4} {:>6.1}",
            dia.offsets().len(),
            gbs(csr_bytes, csr_ms),
            gbs(dia_bytes, dia_ms),
            gbs(dia_bytes, sweep_ms),
        );
    }

    let rows = csr_levels[0].dim();
    let mut multigrid =
        GeometricMultigrid::new(&csr_levels[0], interps, &options).expect("SPD lattice hierarchy");
    let rhs: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.23).sin()).collect();
    let mut z = vec![0.0; rows];
    let mut ops = VectorOps::serial();
    let cycle_ms = median_ms(|| multigrid.v_cycle(&mut ops, &rhs, &mut z));
    println!(
        "one V-cycle ({} levels, {} sweeps per leg): {cycle_ms:.4} ms",
        multigrid.num_levels(),
        options.smoothing_sweeps
    );
}
