//! Per-phase wall-clock of the slice-path assembly sweep: where a sweep's
//! time goes, phase by phase, in ns per element — the native counterpart of
//! the paper's per-phase cycle tables (README "The numeric fast path").
//!
//! Runs the mesh-order sweep of `NastinAssembly::assemble_into_slices` with
//! a timer around each phase call, on the jittered cavity of the
//! `assembly_vs` benchmark workload, one thread, at semi-implicit
//! `VECTOR_SIZE` 16 / 128 / 240 and explicit 240.
//!
//! ```text
//! cargo run --release --example assembly_phases [-- <elements per side, default 32>]
//! ```

use lv_kernel::phases;
use lv_kernel::{ElementWorkspace, KernelConfig, OptLevel};
use lv_mesh::quadrature::GaussRule;
use lv_mesh::{
    BoxMeshBuilder, ElementChunks, ElementKind, Field, Mesh, MeshTopology, ShapeTable, Vec3,
    VectorField,
};
use lv_solver::CsrMatrix;
use std::time::Instant;

const SWEEPS: usize = 7;

/// Seconds per phase of one sweep (phases 1–8 in slots 0–7).
fn timed_sweep(
    mesh: &Mesh,
    topology: &MeshTopology,
    config: &KernelConfig,
    (velocity, pressure): &(VectorField, Field),
    matrix: &mut CsrMatrix,
    rhs: &mut [f64],
) -> [f64; 8] {
    let shape = ShapeTable::new(ElementKind::Hex8, &GaussRule::hex_2x2x2());
    let chunks = ElementChunks::new(mesh, config.vector_size);
    let mut workspace = ElementWorkspace::new(config.vector_size);
    let h_char = mesh.characteristic_length();
    matrix.zero_values();
    rhs.fill(0.0);
    let mut seconds = [0.0; 8];
    for chunk in &chunks {
        workspace.reset();
        let mut v = workspace.views_mut();
        let mut mark = Instant::now();
        let mut lap = |phase: usize| {
            let now = Instant::now();
            seconds[phase - 1] += (now - mark).as_secs_f64();
            mark = now;
        };
        phases::phase1_gather_coords_slices(mesh, chunk, &mut v);
        lap(1);
        phases::phase2_gather_unknowns_slices(mesh, velocity, pressure, chunk, &mut v);
        lap(2);
        phases::phase3_jacobian_slices(&shape, &mut v);
        lap(3);
        phases::phase4_gauss_values_slices(&shape, &mut v);
        lap(4);
        phases::phase5_stabilization_slices(config, h_char, &mut v);
        lap(5);
        phases::phase6_convective_slices(&shape, config, &mut v);
        lap(6);
        phases::phase7_viscous_slices(&shape, config, &mut v);
        lap(7);
        phases::phase8_scatter_slices(mesh, topology, config, &v, matrix, rhs);
        lap(8);
    }
    seconds
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let n: usize = match std::env::args().nth(1) {
        Some(arg) => arg.parse().expect("elements per side must be a positive integer"),
        None => 32,
    };
    let mesh = BoxMeshBuilder::new(n, n, n).lid_driven_cavity().with_jitter(0.15, 1).build();
    let topology = MeshTopology::new(&mesh);
    let mut velocity = VectorField::taylor_green(&mesh);
    velocity.apply_boundary_conditions(&mesh, Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO);
    let state = (velocity, Field::from_fn(&mesh, |p| p.x * p.y - 0.5 * p.z));
    let mut matrix =
        CsrMatrix::from_pattern(topology.row_ptr().to_vec(), topology.col_idx().to_vec());
    let mut rhs = vec![0.0; 3 * mesh.num_nodes()];

    let configs = [(16, false), (128, false), (240, false), (240, true)].map(|(vs, explicit)| {
        let config = KernelConfig::new(vs, OptLevel::Vec1);
        if explicit {
            config.explicit_scheme()
        } else {
            config
        }
    });
    // The legs take their sweeps in turn, so all see the same stretch of
    // host noise.
    let mut sweeps = vec![Vec::new(); configs.len()];
    for _ in 0..SWEEPS {
        for (config, sweeps) in configs.iter().zip(&mut sweeps) {
            sweeps.push(timed_sweep(&mesh, &topology, config, &state, &mut matrix, &mut rhs));
        }
    }
    let table: Vec<Vec<f64>> = sweeps
        .iter()
        .map(|sweeps| {
            (0..8)
                .map(|p| {
                    let seconds = median(sweeps.iter().map(|s| s[p]).collect());
                    1e9 * seconds / mesh.num_elements() as f64
                })
                .collect()
        })
        .collect();

    println!(
        "slice-path assembly, {} elements, 1 thread, median of {SWEEPS} sweeps, ns per element",
        mesh.num_elements()
    );
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12}",
        "phase", "VS 16", "VS 128", "VS 240", "VS 240 expl."
    );
    for phase in 0..8 {
        print!("{:>6}", phase + 1);
        for leg in &table {
            print!(" {:>12.0}", leg[phase]);
        }
        println!();
    }
    print!("{:>6}", "sum");
    for leg in &table {
        print!(" {:>12.0}", leg.iter().sum::<f64>());
    }
    println!();
}
