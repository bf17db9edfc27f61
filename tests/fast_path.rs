//! Integration tests of the two public assembly sweeps: the mesh-order
//! sweep of the slice kernels and the mesh-colored multi-threaded sweep.
//! (The slice kernels against the per-scalar accessor oracle, bit for bit,
//! is a unit test of `lv-kernel`: the oracle is compiled only there.)
//!
//! Contract under test (see `crates/kernel/src/parallel.rs`):
//!
//! * **the colored sweep is bitwise reproducible for every thread count**
//!   and agrees with the mesh-order sweep to rounding accuracy (the colored
//!   schedule permutes the summation order — that is the documented,
//!   deliberate trade of atomic-free coloring);
//! * the element coloring and colored chunking uphold their node-disjoint
//!   invariants;
//! * a workspace full of stale garbage assembles to identical results (the
//!   cheap `reset` only clears the accumulators).

use alya_longvec::prelude::*;
use lv_kernel::{AssemblyOutput, ElementWorkspace};
use lv_mesh::coloring::{ColoredChunks, ElementColoring};
use lv_mesh::{ElementChunks, Vec3};
use lv_runtime::Team;

/// VECTOR_SIZE values exercised: 1 (degenerate), 8 (several full chunks),
/// 32 and 64 (one padded chunk on the 30- and 8-element meshes).
const VECTOR_SIZES: [usize; 4] = [1, 8, 32, 64];

fn cavity(nx: usize, ny: usize, nz: usize) -> Mesh {
    BoxMeshBuilder::new(nx, ny, nz).lid_driven_cavity().with_jitter(0.12, 23).build()
}

fn flow_state(mesh: &Mesh) -> (VectorField, lv_mesh::Field) {
    let mut velocity = VectorField::taylor_green(mesh);
    velocity.apply_boundary_conditions(mesh, Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO);
    (velocity, lv_mesh::Field::from_fn(mesh, |p| p.x * p.y - 0.5 * p.z))
}

fn assert_bitwise(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{k}]: {x} vs {y}");
    }
}

fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() < tol, "{what}[{k}]: {x} vs {y}");
    }
}

/// The colored sweep on a team of `threads`, one workspace per rank.
fn colored(
    asm: &NastinAssembly,
    velocity: &VectorField,
    pressure: &lv_mesh::Field,
    threads: usize,
) -> AssemblyOutput {
    let mut matrix = asm.new_matrix();
    let mut rhs = vec![0.0; 3 * asm.mesh().num_nodes()];
    let mut workspaces: Vec<ElementWorkspace> =
        (0..threads).map(|_| ElementWorkspace::new(asm.config().vector_size)).collect();
    let stats = asm.assemble_parallel_into_on(
        &Team::new(threads),
        velocity,
        pressure,
        &mut matrix,
        &mut rhs,
        &mut workspaces,
    );
    AssemblyOutput { matrix, rhs, stats }
}

/// The parallel path must be bitwise identical across thread counts
/// {1, 2, 4} for every `VECTOR_SIZE`, and must match the serial mesh-order
/// sweep to rounding accuracy.
#[test]
fn parallel_path_is_reproducible_and_matches_oracle() {
    let mesh = cavity(4, 4, 4);
    let (velocity, pressure) = flow_state(&mesh);
    for vs in VECTOR_SIZES {
        let asm = NastinAssembly::new(mesh.clone(), KernelConfig::new(vs, OptLevel::Vec1));
        let oracle = asm.assemble(&velocity, &pressure);
        let reference = colored(&asm, &velocity, &pressure, 1);
        assert_eq!(reference.stats.elements, oracle.stats.elements);
        assert_close(&oracle.rhs, &reference.rhs, 1e-11, &format!("rhs vs={vs}"));
        assert_close(
            oracle.matrix.values(),
            reference.matrix.values(),
            1e-11,
            &format!("matrix vs={vs}"),
        );
        for threads in [2usize, 4] {
            let out = colored(&asm, &velocity, &pressure, threads);
            assert_eq!(out.stats.elements, oracle.stats.elements);
            assert_eq!(out.stats.singular_jacobians, 0);
            assert_bitwise(&reference.rhs, &out.rhs, &format!("rhs vs={vs} threads={threads}"));
            assert_bitwise(
                reference.matrix.values(),
                out.matrix.values(),
                &format!("matrix vs={vs} threads={threads}"),
            );
        }
    }
}

/// The solved flow must not care which path assembled the system.
#[test]
fn solver_result_is_path_independent() {
    let mesh = cavity(3, 3, 3);
    let (velocity, pressure) = flow_state(&mesh);
    let asm = NastinAssembly::new(mesh.clone(), KernelConfig::new(16, OptLevel::Vec1));
    let mut serial = asm.assemble(&velocity, &pressure);
    let mut parallel = colored(&asm, &velocity, &pressure, 4);
    asm.apply_dirichlet(&mut serial.matrix, &mut serial.rhs);
    asm.apply_dirichlet(&mut parallel.matrix, &mut parallel.rhs);
    let n = mesh.num_nodes();
    let b_serial: Vec<f64> = (0..n).map(|i| serial.rhs[3 * i]).collect();
    let b_parallel: Vec<f64> = (0..n).map(|i| parallel.rhs[3 * i]).collect();
    let (team, options) = (Team::new(1), lv_solver::SolveOptions::default());
    let x_serial = lv_solver::bicgstab_on(&team, &serial.matrix, &b_serial, &options).unwrap();
    let x_parallel =
        lv_solver::bicgstab_on(&team, &parallel.matrix, &b_parallel, &options).unwrap();
    assert!(x_serial.final_residual() < 1e-8);
    assert!(x_parallel.final_residual() < 1e-8);
    assert_close(&x_serial.solution, &x_parallel.solution, 1e-6, "solution");
}

/// Coloring validity: no two elements of a color share a node, no two
/// chunks of a color share a node, and the chunking covers the mesh.
#[test]
fn coloring_invariants_hold_across_meshes_and_vector_sizes() {
    for mesh in [cavity(4, 4, 4), cavity(5, 3, 2), cavity(2, 2, 2)] {
        let coloring = ElementColoring::greedy(&mesh);
        let problems = coloring.validate(&mesh);
        assert!(problems.is_empty(), "{problems:?}");
        for vs in VECTOR_SIZES {
            let chunks = ColoredChunks::new(&coloring, vs);
            let problems = chunks.validate(&mesh);
            assert!(problems.is_empty(), "vs={vs}: {problems:?}");
            assert_eq!(chunks.num_elements(), mesh.num_elements());
        }
    }
}

/// The mesh-order chunking and the colored chunking cover the same element
/// set (sanity link between the two schedules).
#[test]
fn colored_schedule_covers_the_mesh_order_schedule() {
    let mesh = cavity(4, 3, 3);
    let coloring = ElementColoring::greedy(&mesh);
    let colored = ColoredChunks::new(&coloring, 16);
    let chunks = ElementChunks::new(&mesh, 16);
    let mut from_colored: Vec<usize> =
        (0..colored.num_chunks()).flat_map(|c| colored.slots(c).elements.to_vec()).collect();
    let mut from_order: Vec<usize> = chunks.iter().flat_map(|c| c.elements()).collect();
    from_colored.sort_unstable();
    from_order.sort_unstable();
    assert_eq!(from_colored, from_order);
}

/// A workspace full of stale garbage (poisoned, then merely `reset`) must
/// assemble to bitwise-identical results through the slice kernels: phases
/// 1–5 fully overwrite their arrays, `reset` clears the accumulators, and
/// phase 6 writes every scratch row it hoists a product into before reading
/// it (`poison` fills them all).  Checked on full chunks (VS 8, 16), a
/// padded last chunk (VS 24 on 64 elements) and a mostly-padding single
/// chunk (VS 240), both schemes.
#[test]
fn stale_workspace_produces_identical_results() {
    let mesh = cavity(4, 4, 4);
    let (velocity, pressure) = flow_state(&mesh);
    let n = 3 * mesh.num_nodes();
    for vs in [8usize, 16, 24, 240] {
        for semi_implicit in [true, false] {
            let mut config = KernelConfig::new(vs, OptLevel::Vec1);
            config.semi_implicit = semi_implicit;
            let asm = NastinAssembly::new(mesh.clone(), config);

            let mut fresh_ws = ElementWorkspace::new(vs);
            let mut fresh_matrix = asm.new_matrix();
            let mut fresh_rhs = vec![0.0; n];
            asm.assemble_into_slices(
                &velocity,
                &pressure,
                &mut fresh_matrix,
                &mut fresh_rhs,
                &mut fresh_ws,
            );

            for poison in [f64::NAN, 1e300, -3.5] {
                let mut ws = ElementWorkspace::new(vs);
                ws.poison(poison);
                let mut matrix = asm.new_matrix();
                let mut rhs = vec![0.0; n];
                asm.assemble_into_slices(&velocity, &pressure, &mut matrix, &mut rhs, &mut ws);
                let what = format!("vs={vs} semi={semi_implicit} poison={poison}");
                assert_bitwise(&fresh_rhs, &rhs, &format!("rhs {what}"));
                assert_bitwise(fresh_matrix.values(), matrix.values(), &format!("matrix {what}"));
            }
        }
    }
}

/// Degenerate scheduling edge cases: more threads than chunks, a mesh
/// smaller than one chunk, and VECTOR_SIZE=1.
#[test]
fn parallel_path_handles_degenerate_schedules() {
    let mesh = cavity(2, 2, 2); // 8 elements -> 8 colors of 1 element each
    let (velocity, pressure) = flow_state(&mesh);
    for vs in [1usize, 64] {
        let asm = NastinAssembly::new(mesh.clone(), KernelConfig::new(vs, OptLevel::Vec1));
        let oracle = asm.assemble(&velocity, &pressure);
        let out = colored(&asm, &velocity, &pressure, 8);
        assert_eq!(out.stats.elements, 8);
        assert_close(&oracle.rhs, &out.rhs, 1e-12, "rhs");
    }
}

/// The colored sweep adds the same elemental contributions as the mesh-order
/// sweep in another order, so the two differ by rounding only — pinned here
/// in units of `f64::EPSILON` × row scale on the 12³ jittered cavity.  The
/// scale of matrix row `a` is its largest `|A_ab|`; the scale of the RHS rows
/// of node `a` is the largest `|rhs|` over the nodes of its matrix row (a
/// node's own entries can cancel to far below the contributions summed into
/// them).  Measured: 1.70 and 1.69; an entry sums at most 8 contributions.
#[test]
fn colored_sweep_differs_from_mesh_order_by_summation_rounding_only() {
    const BOUND: f64 = 4.0;
    let mesh = cavity(12, 12, 12);
    let (velocity, pressure) = flow_state(&mesh);
    let asm = NastinAssembly::new(mesh.clone(), KernelConfig::new(128, OptLevel::Vec1));
    let (mut matrix, mut rhs) = (asm.new_matrix(), vec![0.0; 3 * mesh.num_nodes()]);
    let mut ws = ElementWorkspace::new(128);
    asm.assemble_into_slices(&velocity, &pressure, &mut matrix, &mut rhs, &mut ws);
    let colored = colored(&asm, &velocity, &pressure, 2);

    let max_abs = |values: &[f64]| values.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let (row_ptr, col_idx) = (matrix.row_ptr(), matrix.col_idx());
    let mut differing = 0usize;
    for node in 0..mesh.num_nodes() {
        let row = row_ptr[node]..row_ptr[node + 1];
        let scale = max_abs(&matrix.values()[row.clone()]);
        for k in row.clone() {
            let delta = (matrix.values()[k] - colored.matrix.values()[k]).abs();
            differing += usize::from(delta > 0.0);
            assert!(
                delta <= BOUND * f64::EPSILON * scale,
                "matrix entry ({node}, {}): {delta:e} against a row scale of {scale:e}",
                col_idx[k]
            );
        }
        let scale =
            col_idx[row].iter().map(|&b| max_abs(&rhs[3 * b..3 * b + 3])).fold(0.0, f64::max);
        let entries = 3 * node..3 * node + 3;
        for (x, y) in rhs[entries.clone()].iter().zip(&colored.rhs[entries]) {
            let delta = (x - y).abs();
            differing += usize::from(delta > 0.0);
            assert!(
                delta <= BOUND * f64::EPSILON * scale,
                "rhs of node {node}: {delta:e} against a neighbourhood scale of {scale:e}"
            );
        }
    }
    // The orders do differ: this is a rounding bound, not bitwise equality.
    assert!(differing > 0);
}
