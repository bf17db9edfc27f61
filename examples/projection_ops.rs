//! The projection operators of an `N³` lid-driven cavity as sparse row
//! products (README "Projection operators: one coefficient array"): what a
//! weak-divergence and a weak-gradient sweep stream and how fast, on one
//! thread and on `T = min(cores, 4)`, plus what the operators cost to set up.
//!
//! Per operator: rows, stored entries, modelled bytes, median wall-clock and
//! GB/s.  The `T`-thread results are asserted bitwise equal to the 1-thread
//! ones.
//!
//! ```text
//! cargo run --release --example projection_ops [-- <elements per side, default 32>]
//! ```

use alya_longvec::prelude::*;
use lv_kernel::PressureOperators;
use lv_runtime::Lanes;
use std::time::Instant;

const REPEATS: usize = 15;
const VECTOR_SIZE: usize = 128;

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

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn main() {
    let n: usize = match std::env::args().nth(1) {
        Some(arg) => arg.parse().expect("elements per side must be a positive integer"),
        None => 32,
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mesh = Scenario::new(ScenarioKind::LidDrivenCavity, n).build_mesh();

    let new_ms = median_ms(|| {
        std::hint::black_box(PressureOperators::new(&mesh, VECTOR_SIZE));
    });
    let ops = PressureOperators::new(&mesh, VECTOR_SIZE);
    let laplacian_ms = median_ms(|| {
        std::hint::black_box(ops.assemble_laplacian());
    });
    let (rows, nnz) = (mesh.num_nodes(), ops.assemble_laplacian().nnz());
    let bytes = ops.streamed_bytes();

    let velocity = VectorField::from_fn(&mesh, |p| {
        lv_mesh::Vec3::new((3.0 * p.y).sin() * p.z, p.x * p.x - p.z, (2.0 * p.x).cos() * p.y)
    });
    let pressure = Field::from_fn(&mesh, |p| (2.0 * p.x).sin() * p.y - 0.5 * p.z * p.z);

    println!("projection operators of the {n}³ cavity, {cores} cores, median of {REPEATS}");
    // The row products gather through the node graph and add each row in
    // order: no lane-parallel loop, hence no wide clone — the host's lanes
    // are printed so the numbers can be set beside the cloned kernels'.
    println!("host lanes: {} (the row products are not cloned)", Lanes::selected().describe());
    println!(
        "set-up: PressureOperators::new {new_ms:.2} ms, assemble_laplacian {laplacian_ms:.2} ms"
    );
    println!(
        "{:>10} {:>7} {:>7} {:>9} {:>10} | {:>9} {:>6}",
        "operator", "threads", "rows", "nnz", "bytes", "ms", "GB/s"
    );
    let mut reference: Option<(Vec<f64>, Vec<f64>)> = None;
    let mut thread_counts = vec![1, cores.min(4)];
    thread_counts.dedup();
    for threads in thread_counts {
        let team = Team::new(threads);
        let (mut div, mut grad) = (vec![0.0; rows], vec![0.0; 3 * rows]);
        let div_ms = median_ms(|| ops.weak_divergence_on(&team, &velocity, &mut div));
        let grad_ms = median_ms(|| ops.weak_gradient_on(&team, pressure.as_slice(), &mut grad));
        for (name, ms) in [("divergence", div_ms), ("gradient", grad_ms)] {
            println!(
                "{name:>10} {threads:>7} {rows:>7} {nnz:>9} {bytes:>10} | {ms:>9.4} {:>6.1}",
                bytes as f64 / (1e6 * ms)
            );
        }
        match &reference {
            None => reference = Some((div, grad)),
            Some((div_1, grad_1)) => {
                assert!(same_bits(div_1, &div), "divergence differs on {threads} threads");
                assert!(same_bits(grad_1, &grad), "gradient differs on {threads} threads");
                println!("1-thread and {threads}-thread results are bitwise equal");
            }
        }
    }
}
