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
//! The fifth column, "VS 128 step", is the sweep a time step runs
//! (`NastinAssembly::assemble_convective_into_on`, in mesh order here like
//! the other columns): phases 1, 2, 3, the velocity-only phase 4, 5, the
//! matrix-only phase 6, no phase 7 and a matrix-only scatter.  Its row
//! "K,r,M" is what replaces the rest — the three global passes of
//! `lv_kernel::assemble_momentum_on` (`ν·K` fill, residual row pass, mass
//! update) on one thread, in ns per element so the column adds up.  The
//! reduced sweep must assemble, bit for bit, what the full phases assemble
//! with phase 7 skipped (asserted).
//!
//! ```text
//! cargo run --release --example assembly_phases [-- <elements per side, default 32>]
//! ```

use lv_kernel::phases;
use lv_kernel::{ElementWorkspace, KernelConfig, OptLevel, PressureOperators};
use lv_mesh::quadrature::GaussRule;
use lv_mesh::{
    BoxMeshBuilder, ElementChunks, ElementKind, Field, Mesh, MeshTopology, ShapeTable, Vec3,
    VectorField,
};
use lv_runtime::{Lanes, Team};
use lv_solver::CsrMatrix;
use std::time::Instant;

const SWEEPS: usize = 7;

/// Which phases a timed sweep runs.
#[derive(Clone, Copy, PartialEq)]
enum Sweep {
    /// The paper's eight phases.
    Full,
    /// The full phases with phase 7 skipped: what the step's sweep must
    /// reproduce bit for bit.
    FullWithoutViscous,
    /// The step's convective-only selection.
    Step,
}

/// Seconds per phase of one sweep (phases 1–8 in slots 0–7), phases 3–7 at
/// `lanes`.
#[allow(clippy::too_many_arguments)]
fn timed_sweep(
    lanes: Lanes,
    sweep: Sweep,
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
        if sweep == Sweep::Step {
            phases::phase4_gauss_velocity_slices_at(lanes, &shape, &mut v);
        } else {
            phases::phase4_gauss_values_slices_at(lanes, &shape, &mut v);
        }
        lap(4);
        phases::phase5_stabilization_slices_at(lanes, config, h_char, &mut v);
        lap(5);
        if sweep == Sweep::Step {
            phases::phase6_convective_matrix_slices_at(lanes, &shape, config, &mut v);
        } else {
            phases::phase6_convective_slices_at(lanes, &shape, config, &mut v);
        }
        lap(6);
        if sweep == Sweep::Full {
            phases::phase7_viscous_slices_at(lanes, &shape, config, &mut v);
        }
        lap(7);
        if sweep == Sweep::Step {
            // The matrix half of phase 8: element matrices through the slot
            // map, no right-hand side.
            let (_, _, values) = matrix.pattern_and_values_mut();
            for iv in 0..v.vs {
                let Some(elem) = v.element_ids[iv] else { continue };
                for (k, &slot) in topology.csr_slots(elem).iter().enumerate() {
                    values[slot as usize] += v.elauu[k * v.vs + iv];
                }
            }
        } else {
            phases::phase8_scatter_slices(mesh, topology, config, &v, matrix, rhs);
        }
        lap(8);
    }
    seconds
}

/// Seconds of the three global passes of `assemble_momentum_on` on one
/// thread: `ν·K` fill, residual row pass, mass update.
fn timed_passes(
    operators: &PressureOperators,
    config: &KernelConfig,
    (velocity, pressure): &(VectorField, Field),
    matrix: &mut CsrMatrix,
    rhs: &mut [f64],
) -> f64 {
    let team = Team::new(1);
    let start = Instant::now();
    operators.fill_viscous_on(&team, config.viscosity, matrix);
    operators.momentum_residual_on(&team, matrix, velocity, pressure.as_slice(), rhs);
    operators.add_mass_on(&team, config.density / config.dt, matrix);
    start.elapsed().as_secs_f64()
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
    let step_config = KernelConfig::new(128, OptLevel::Vec1);
    // The legs take their sweeps in turn, so all see the same stretch of
    // host noise; a leg is a configuration at one of the two widths.  Which
    // width of a configuration goes first alternates from sweep to sweep:
    // the second finds the mesh and the matrix in cache, which is most of
    // phases 1, 2 and 8 at `VECTOR_SIZE` 16.
    let widths = [Lanes::Baseline, Lanes::selected()];
    let legs: Vec<(&KernelConfig, Sweep, Lanes)> = configs
        .iter()
        .map(|config| (config, Sweep::Full))
        .chain([(&step_config, Sweep::Step)])
        .flat_map(|(config, sweep)| widths.map(|lanes| (config, sweep, lanes)))
        .collect();
    let mut sweeps = vec![Vec::new(); legs.len()];
    let mut assembled = vec![Vec::new(); legs.len()];
    for sweep in 0..SWEEPS {
        for slot in 0..legs.len() {
            let leg = slot ^ (sweep & 1);
            let (config, phases, lanes) = legs[leg];
            sweeps[leg].push(timed_sweep(
                lanes,
                phases,
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
    // The reduced phases against the full ones on what both write: the full
    // sweep with phase 7 skipped scatters the same element matrices (its
    // right-hand side, which the step's sweep does not have, is left out).
    timed_sweep(
        Lanes::Baseline,
        Sweep::FullWithoutViscous,
        &mesh,
        &topology,
        &step_config,
        &state,
        &mut matrix,
        &mut rhs,
    );
    let step_leg = assembled.last().expect("the step legs ran");
    assert!(
        matrix.values().iter().map(|v| v.to_bits()).eq(step_leg[..matrix.nnz()].iter().copied()),
        "the step's reduced phases must assemble the full phases' convection matrix"
    );

    let operators = PressureOperators::new(&mesh, step_config.vector_size);
    let passes_ns =
        1e9 * median(
            (0..SWEEPS)
                .map(|_| timed_passes(&operators, &step_config, &state, &mut matrix, &mut rhs))
                .collect(),
        ) / mesh.num_elements() as f64;

    // Rows 0–7: phases 1–8; row 8: the global passes (step column only);
    // row 9: the column's sum.
    let table: Vec<Vec<f64>> = sweeps
        .iter()
        .zip(&legs)
        .map(|(sweeps, (_, phases, _))| {
            let mut leg: Vec<f64> = (0..8)
                .map(|p| {
                    let seconds = median(sweeps.iter().map(|s| s[p]).collect());
                    1e9 * seconds / mesh.num_elements() as f64
                })
                .collect();
            leg.push(if *phases == Sweep::Step { passes_ns } else { 0.0 });
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
        "{:>6} {:>13} {:>13} {:>13} {:>13} {:>13}",
        "phase", "VS 16", "VS 128", "VS 240", "VS 240 expl.", "VS 128 step"
    );
    for row in 0..10 {
        let label = match row {
            0..=7 => (row + 1).to_string(),
            8 => "K,r,M".to_string(),
            _ => "sum".to_string(),
        };
        print!("{label:>6}");
        for pair in table.chunks(2) {
            print!(" {:>6.0}|{:<6.0}", pair[0][row], pair[1][row]);
        }
        println!();
    }
}
