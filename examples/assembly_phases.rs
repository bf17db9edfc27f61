//! Per-phase wall-clock of the slice-path assembly sweep: where a sweep's
//! time goes, phase by phase, in ns per element — the native counterpart of
//! the paper's per-phase cycle tables (README "The numeric fast path").
//!
//! Runs the mesh-order sweep of `NastinAssembly::assemble_into_slices` with
//! a timer around each phase call, on the jittered cavity of the
//! `assembly_vs` benchmark workload, one thread, at semi-implicit
//! `VECTOR_SIZE` 16 / 128 / 240 and explicit 240 — each at both widths of
//! the multiversioned phases 3–7 (`lv_runtime::lanes`): the baseline body,
//! then the clone this host selects.  Phases 1, 2 and 8 gather and scatter;
//! they have no clone and show the run-to-run noise of the pair.  The two
//! widths must assemble the same bits (asserted).
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
use lv_runtime::Lanes;
use lv_solver::CsrMatrix;
use std::time::Instant;

const SWEEPS: usize = 7;

/// Seconds per phase of one sweep (phases 1–8 in slots 0–7), phases 3–7 at
/// `lanes`.
fn timed_sweep(
    lanes: Lanes,
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
        phases::phase3_jacobian_slices_at(lanes, &shape, &mut v);
        lap(3);
        phases::phase4_gauss_values_slices_at(lanes, &shape, &mut v);
        lap(4);
        phases::phase5_stabilization_slices_at(lanes, config, h_char, &mut v);
        lap(5);
        phases::phase6_convective_slices_at(lanes, &shape, config, &mut v);
        lap(6);
        phases::phase7_viscous_slices_at(lanes, &shape, config, &mut v);
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
    // host noise; a leg is a configuration at one of the two widths.  Which
    // width of a configuration goes first alternates from sweep to sweep:
    // the second finds the mesh and the matrix in cache, which is most of
    // phases 1, 2 and 8 at `VECTOR_SIZE` 16.
    let widths = [Lanes::Baseline, Lanes::selected()];
    let legs: Vec<(&KernelConfig, Lanes)> =
        configs.iter().flat_map(|config| widths.map(|lanes| (config, lanes))).collect();
    let mut sweeps = vec![Vec::new(); legs.len()];
    let mut assembled = vec![Vec::new(); legs.len()];
    for sweep in 0..SWEEPS {
        for slot in 0..legs.len() {
            let leg = slot ^ (sweep & 1);
            let (config, lanes) = legs[leg];
            sweeps[leg].push(timed_sweep(
                lanes,
                &mesh,
                &topology,
                config,
                &state,
                &mut matrix,
                &mut rhs,
            ));
            if sweep + 1 == SWEEPS {
                assembled[leg] =
                    matrix.values().iter().chain(&rhs).map(|v| v.to_bits()).collect::<Vec<u64>>();
            }
        }
    }
    for pair in assembled.chunks(2) {
        assert!(pair[0] == pair[1], "the wide clones must assemble the baseline's bits");
    }
    // Rows 0–7: phases 1–8; row 8: their sum.
    let table: Vec<Vec<f64>> = sweeps
        .iter()
        .map(|sweeps| {
            let mut leg: Vec<f64> = (0..8)
                .map(|p| {
                    let seconds = median(sweeps.iter().map(|s| s[p]).collect());
                    1e9 * seconds / mesh.num_elements() as f64
                })
                .collect();
            leg.push(leg.iter().sum());
            leg
        })
        .collect();

    println!(
        "slice-path assembly, {} elements, 1 thread, median of {SWEEPS} sweeps, ns per element",
        mesh.num_elements()
    );
    println!(
        "host lanes: {}; each cell is baseline body | selected clone (phases 3-7 are cloned)",
        Lanes::selected().describe()
    );
    println!(
        "{:>6} {:>13} {:>13} {:>13} {:>13}",
        "phase", "VS 16", "VS 128", "VS 240", "VS 240 expl."
    );
    for row in 0..9 {
        let label = if row < 8 { (row + 1).to_string() } else { "sum".to_string() };
        print!("{label:>6}");
        for pair in table.chunks(2) {
            print!(" {:>6.0}|{:<6.0}", pair[0][row], pair[1][row]);
        }
        println!();
    }
}
