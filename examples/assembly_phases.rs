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
//! The last two columns, "VS 128 step", are the sweep a time step runs
//! (`NastinAssembly::assemble_convective_into_on`) over the chunks of 128
//! consecutive elements — visited in mesh order like the other columns, then
//! in the order of their colors (`ColoredChunks::mesh_order`: the schedule
//! of the step; same chunks, so the difference is what the jump from one
//! chunk to the next of its color costs the gathers and the scatter).  Phase
//! 1 only notes the element ids, phase 3 does not run (0): the inverse
//! Jacobians and `gpvol` come from a table built once.  Row "J⁻¹" is a read
//! pass over the chunk's 640 B per element of that table just before phase
//! 6, so the column separates the stream from the arithmetic of the
//! reference-space phase 6; the step's own sweep has no such pass (phase 6
//! reads the rows itself, the prefetcher ahead of it), so the column's sum
//! is an upper bound.  Then the velocity-only phase 4, 5, no phase 7 and a
//! matrix-only scatter.  Row "K,r,M" is what replaces the rest — the three
//! global passes of `lv_kernel::assemble_momentum_on` (`ν·K` fill, residual
//! row pass, mass update) on one thread, in ns per element so the column
//! adds up.  A line below the table gives the one-off cost of the table.
//! The convection matrix of both columns must sit within 4 ε of each
//! momentum row's largest entry of what the full phases assemble with phase
//! 7 skipped (the step's selection before the table existed; asserted).
//!
//! ```text
//! cargo run --release --example assembly_phases [-- <elements per side, default 32>]
//! ```

use lv_kernel::phases::{self, GEOMETRY_ROWS};
use lv_kernel::{ElementWorkspace, KernelConfig, OptLevel, PressureOperators, PGAUS};
use lv_mesh::quadrature::GaussRule;
use lv_mesh::{
    BoxMeshBuilder, ColoredChunks, ElementKind, Field, Mesh, MeshTopology, ShapeTable, Vec3,
    VectorField,
};
use lv_runtime::{Lanes, Team};
use lv_solver::CsrMatrix;
use std::hint::black_box;
use std::time::Instant;

const SWEEPS: usize = 7;

/// Which phases a timed sweep runs.
#[derive(Clone, Copy, PartialEq)]
enum Sweep {
    /// The paper's eight phases.
    Full,
    /// The full phases with phase 7 skipped: the convection matrix the
    /// step's sweep must reproduce to rounding.
    FullWithoutViscous,
    /// The step's convective-only selection, chunks in mesh order.
    Step,
    /// The same, chunks in the order of their colors.
    StepColored,
}

impl Sweep {
    fn is_step(self) -> bool {
        matches!(self, Sweep::Step | Sweep::StepColored)
    }
}

/// The inverse Jacobians and `gpvol` of every chunk of `schedule`, by chunk
/// id: phase 1 and the Jacobian strip kernel of phase 3 at `lanes`.
fn geometry_table(lanes: Lanes, mesh: &Mesh, schedule: &ColoredChunks) -> Vec<f64> {
    let shape = ShapeTable::new(ElementKind::Hex8, &GaussRule::hex_2x2x2());
    let vs = schedule.vector_size();
    let mut workspace = ElementWorkspace::new(vs);
    let mut table = vec![0.0; schedule.num_chunks() * PGAUS * GEOMETRY_ROWS * vs];
    for (chunk_id, rows) in table.chunks_exact_mut(PGAUS * GEOMETRY_ROWS * vs).enumerate() {
        let mut v = workspace.views_mut();
        phases::phase1_gather_coords_slices(mesh, &schedule.slots(chunk_id), &mut v);
        phases::phase3_geometry_slices_at(lanes, &shape, &v, rows);
    }
    table
}

/// Seconds per phase of one sweep (phases 1–8 in slots 0–7, the table read
/// pass of a step sweep in slot 8), phases 3–7 at `lanes`.
#[allow(clippy::too_many_arguments)]
fn timed_sweep(
    lanes: Lanes,
    sweep: Sweep,
    mesh: &Mesh,
    topology: &MeshTopology,
    config: &KernelConfig,
    geometry: &[f64],
    (velocity, pressure): &(VectorField, Field),
    matrix: &mut CsrMatrix,
    rhs: &mut [f64],
) -> [f64; 9] {
    let shape = ShapeTable::new(ElementKind::Hex8, &GaussRule::hex_2x2x2());
    let vs = config.vector_size;
    let schedule = ColoredChunks::mesh_order(mesh, vs);
    // Chunk ids are color-major; sorted by first element they are the
    // serial sweep's `ElementChunks`.
    let mut order: Vec<usize> = (0..schedule.num_chunks()).collect();
    if sweep != Sweep::StepColored {
        order.sort_by_key(|&chunk_id| schedule.slots(chunk_id).elements[0]);
    }
    let mut workspace = ElementWorkspace::new(vs);
    let h_char = mesh.characteristic_length();
    matrix.zero_values();
    rhs.fill(0.0);
    let mut seconds = [0.0; 9];
    for chunk_id in order {
        let chunk = &schedule.slots(chunk_id);
        workspace.reset();
        let mut v = workspace.views_mut();
        let mut mark = Instant::now();
        let mut lap = |slot: usize| {
            let now = Instant::now();
            seconds[slot - 1] += (now - mark).as_secs_f64();
            mark = now;
        };
        if sweep.is_step() {
            phases::phase1_element_ids_slices(chunk, &mut v);
            lap(1);
            phases::phase2_gather_unknowns_slices(mesh, velocity, pressure, chunk, &mut v);
            lap(2);
            lap(3);
            phases::phase4_gauss_velocity_slices_at(lanes, &shape, &mut v);
            lap(4);
            phases::phase5_stabilization_slices_at(lanes, config, h_char, &mut v);
            lap(5);
            let rows =
                &geometry[chunk_id * PGAUS * GEOMETRY_ROWS * vs..][..PGAUS * GEOMETRY_ROWS * vs];
            // Eight independent sums: one chain of additions would time the
            // adder's latency, not the stream.
            black_box(rows.chunks_exact(8).fold([0.0f64; 8], |mut sums, eight| {
                sums.iter_mut().zip(eight).for_each(|(sum, x)| *sum += x);
                sums
            }));
            lap(9);
            phases::phase6_reference_convective_slices_at(lanes, &shape, config, rows, &mut v);
            lap(6);
            lap(7);
            // The matrix half of phase 8: element matrices through the slot
            // map, no right-hand side.
            let (_, _, values) = matrix.pattern_and_values_mut();
            for iv in 0..v.vs {
                let Some(elem) = v.element_ids[iv] else { continue };
                for (k, &slot) in topology.csr_slots(elem).iter().enumerate() {
                    values[slot as usize] += v.elauu[k * v.vs + iv];
                }
            }
            lap(8);
            continue;
        }
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
        if sweep == Sweep::Full {
            phases::phase7_viscous_slices_at(lanes, &shape, config, &mut v);
        }
        lap(7);
        phases::phase8_scatter_slices(mesh, topology, config, &v, matrix, rhs);
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

/// Worst deviation of the convection matrix `values` from `oracle` over the
/// rows of `rest`, in units of `ε × the largest entry of the momentum row`,
/// `rest + oracle`.
fn deviation_in_row_epsilons(rest: &CsrMatrix, values: &[f64], oracle: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    for row in rest.row_ptr().windows(2) {
        let row = row[0]..row[1];
        let momentum = rest.values()[row.clone()].iter().zip(&oracle[row.clone()]);
        let largest = momentum.fold(0.0f64, |m, (k, c)| m.max((k + c).abs()));
        for (x, y) in values[row.clone()].iter().zip(&oracle[row]) {
            worst = worst.max((x - y).abs() / (f64::EPSILON * largest));
        }
    }
    worst
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
    let widths = [Lanes::Baseline, Lanes::selected()];

    // The step's geometry table, built once per width: same bits, and the
    // one-off cost the step columns no longer pay per sweep.
    let step_schedule = ColoredChunks::mesh_order(&mesh, step_config.vector_size);
    let mut geometry = Vec::new();
    let table_ms = widths.map(|lanes| {
        1e3 * median(
            (0..SWEEPS)
                .map(|_| {
                    let start = Instant::now();
                    geometry = geometry_table(lanes, &mesh, &step_schedule);
                    start.elapsed().as_secs_f64()
                })
                .collect(),
        )
    });
    assert!(
        geometry_table(Lanes::Baseline, &mesh, &step_schedule)
            .iter()
            .zip(&geometry)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "the wide clone must build the baseline's table"
    );

    // The legs take their sweeps in turn, so all see the same stretch of
    // host noise; a leg is a configuration at one of the two widths.  Which
    // width of a configuration goes first alternates from sweep to sweep:
    // the second finds the mesh and the matrix in cache, which is most of
    // phases 1, 2 and 8 at `VECTOR_SIZE` 16.
    let legs: Vec<(&KernelConfig, Sweep, Lanes)> = configs
        .iter()
        .map(|config| (config, Sweep::Full))
        .chain([(&step_config, Sweep::Step), (&step_config, Sweep::StepColored)])
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
                &geometry,
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
    // The step's selection against the one it replaced: the full sweep with
    // phase 7 skipped scatters the convection matrix integrated from `gpcar`
    // (its right-hand side, which the step's sweep does not have, is left
    // out).  The same integrals in another operation order — and, for the
    // colored leg, another chunk order.
    timed_sweep(
        Lanes::Baseline,
        Sweep::FullWithoutViscous,
        &mesh,
        &topology,
        &step_config,
        &geometry,
        &state,
        &mut matrix,
        &mut rhs,
    );
    // Measured against the rows the solver sees, `ν·K + C(u) + (ρ/Δt)·M`:
    // the rows of `C(u)` alone cancel across elements (its Galerkin part is
    // antisymmetric), so their own largest entry is not the scale of their
    // rounding.
    let operators = PressureOperators::new(&mesh, step_config.vector_size);
    let mut rest = matrix.clone();
    let team = Team::new(1);
    operators.fill_viscous_on(&team, step_config.viscosity, &mut rest);
    operators.add_mass_on(&team, step_config.density / step_config.dt, &mut rest);
    let step_deviation: Vec<f64> = assembled[assembled.len() - 4..]
        .chunks(2)
        .map(|pair| {
            let values: Vec<f64> =
                pair[1][..matrix.nnz()].iter().map(|&b| f64::from_bits(b)).collect();
            deviation_in_row_epsilons(&rest, &values, matrix.values())
        })
        .collect();
    for (order, deviation) in ["mesh", "color"].iter().zip(&step_deviation) {
        assert!(
            *deviation <= 4.0,
            "the step's sweep in {order} order is {deviation} eps of a momentum row's largest \
             entry off the full phases' convection matrix"
        );
    }

    let passes_ns =
        1e9 * median(
            (0..SWEEPS)
                .map(|_| timed_passes(&operators, &step_config, &state, &mut matrix, &mut rhs))
                .collect(),
        ) / mesh.num_elements() as f64;

    // Rows 0–7: phases 1–8; row 8: the table read pass, row 9: the global
    // passes (step columns only); row 10: the column's sum.
    let table: Vec<Vec<f64>> = sweeps
        .iter()
        .zip(&legs)
        .map(|(sweeps, (_, phases, _))| {
            let mut leg: Vec<f64> = (0..9)
                .map(|p| {
                    let seconds = median(sweeps.iter().map(|s| s[p]).collect());
                    1e9 * seconds / mesh.num_elements() as f64
                })
                .collect();
            leg.push(if phases.is_step() { passes_ns } else { 0.0 });
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
        "{:>6} {:>13} {:>13} {:>13} {:>13} {:>13} {:>13}",
        "phase", "VS 16", "VS 128", "VS 240", "VS 240 expl.", "VS 128 step", "step, colored"
    );
    for row in 0..11 {
        let label = match row {
            0..=7 => (row + 1).to_string(),
            8 => "J⁻¹".to_string(),
            9 => "K,r,M".to_string(),
            _ => "sum".to_string(),
        };
        print!("{label:>6}");
        for pair in table.chunks(2) {
            print!(" {:>6.0}|{:<6.0}", pair[0][row], pair[1][row]);
        }
        println!();
    }
    println!(
        "step schedule: {} colors, {} chunks of {}; geometry table {:.1} MiB, built once in \
         {:.1}|{:.1} ms ({:.0}|{:.0} ns per element)",
        step_schedule.num_colors(),
        step_schedule.num_chunks(),
        step_schedule.vector_size(),
        (geometry.len() * 8) as f64 / (1 << 20) as f64,
        table_ms[0],
        table_ms[1],
        1e6 * table_ms[0] / mesh.num_elements() as f64,
        1e6 * table_ms[1] / mesh.num_elements() as f64,
    );
    println!(
        "step columns vs the gpcar selection they replace: {:.2} (mesh order) and {:.2} \
         (color order) eps of a momentum row's largest entry at worst",
        step_deviation[0], step_deviation[1]
    );
}
