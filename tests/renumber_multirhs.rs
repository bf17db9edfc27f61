//! Integration tests for the two memory-traffic optimizations of PR 4:
//!
//! 1. **Renumbering round-trip** — a node permutation commutes with the
//!    assembly bitwise: renumber → assemble → inverse-permute reproduces
//!    the original system bit for bit, for VS ∈ {8, 64} and worker counts
//!    ∈ {1, 4}.  (Element order, element-local node order and therefore
//!    every floating-point operation of the sweep are unchanged by a node
//!    permutation; the colored schedule depends only on element order and
//!    node-sharing structure, both permutation-invariant.)
//! 2. **Batched momentum solve** — the multi-RHS (SpMM-path) BiCGSTAB is
//!    bitwise identical to the three sequential single-RHS solves, per
//!    component, across thread counts ∈ {1, 2, 4}.

use lv_kernel::{solve_momentum_on, ElementWorkspace, KernelConfig, NastinAssembly, OptLevel};
use lv_mesh::renumber::NodePermutation;
use lv_mesh::{BoxMeshBuilder, Field, Mesh, Vec3, VectorField};
use lv_runtime::Team;
use lv_solver::{bicgstab3_on, bicgstab_on, CsrMatrix, MultiVector, SolveOptions};

const NDIME: usize = 3;

fn cavity(n: usize) -> Mesh {
    BoxMeshBuilder::new(n, n, n).lid_driven_cavity().with_jitter(0.1, 17).build()
}

fn state(mesh: &Mesh) -> (VectorField, Field) {
    let mut velocity = VectorField::taylor_green(mesh);
    velocity.apply_boundary_conditions(mesh, Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO);
    (velocity, Field::from_fn(mesh, |p| p.x * p.y - 0.5 * p.z))
}

/// Assembles with the requested worker count (the serial mesh-order sweep
/// for 1, the colored parallel sweep otherwise) and applies no Dirichlet rows —
/// the raw assembled system is what the permutation property is about.
fn assemble(mesh: &Mesh, vs: usize, threads: usize) -> (CsrMatrix, Vec<f64>) {
    let assembly = NastinAssembly::new(mesh.clone(), KernelConfig::new(vs, OptLevel::Vec1));
    let (velocity, pressure) = state(mesh);
    if threads == 1 {
        let out = assembly.assemble(&velocity, &pressure);
        (out.matrix, out.rhs)
    } else {
        let mut matrix = assembly.new_matrix();
        let mut rhs = vec![0.0; NDIME * mesh.num_nodes()];
        let mut workspaces: Vec<ElementWorkspace> =
            (0..threads).map(|_| ElementWorkspace::new(vs)).collect();
        assembly.assemble_parallel_into_on(
            &Team::new(threads),
            &velocity,
            &pressure,
            &mut matrix,
            &mut rhs,
            &mut workspaces,
        );
        (matrix, rhs)
    }
}

/// The tentpole property: renumber → assemble → inverse-permute is bitwise
/// identical to assembling the original mesh, across VS and worker counts.
#[test]
fn renumbered_assembly_inverse_permutes_to_the_original_bitwise() {
    let mesh = cavity(5);
    let perm = NodePermutation::scrambled(mesh.num_nodes(), 7);
    assert!(!perm.is_identity());
    let renumbered = mesh.renumber_nodes(&perm);
    for vs in [8usize, 64] {
        for threads in [1usize, 4] {
            let (matrix_o, rhs_o) = assemble(&mesh, vs, threads);
            let (matrix_r, rhs_r) = assemble(&renumbered, vs, threads);
            // Inverse-permute the renumbered system back onto the original
            // node order.
            let back = matrix_r.permuted(perm.inverse());
            assert_eq!(back.row_ptr(), matrix_o.row_ptr(), "vs={vs} threads={threads}");
            assert_eq!(back.col_idx(), matrix_o.col_idx(), "vs={vs} threads={threads}");
            for (a, b) in matrix_o.values().iter().zip(back.values()) {
                assert_eq!(a.to_bits(), b.to_bits(), "matrix vs={vs} threads={threads}");
            }
            let rhs_back = perm.inverted().permute_blocked(&rhs_r, NDIME);
            for (a, b) in rhs_o.iter().zip(&rhs_back) {
                assert_eq!(a.to_bits(), b.to_bits(), "rhs vs={vs} threads={threads}");
            }
        }
    }
}

/// Another scrambled ("imported") node order also round-trips — the
/// property does not depend on the permutation.
#[test]
fn scrambled_assembly_round_trips_bitwise() {
    let mesh = cavity(4);
    let perm = NodePermutation::scrambled(mesh.num_nodes(), 99);
    let scrambled = mesh.renumber_nodes(&perm);
    let (matrix_o, rhs_o) = assemble(&mesh, 16, 1);
    let (matrix_s, rhs_s) = assemble(&scrambled, 16, 1);
    let back = matrix_s.permuted(perm.inverse());
    for (a, b) in matrix_o.values().iter().zip(back.values()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let rhs_back = perm.inverted().permute_blocked(&rhs_s, NDIME);
    for (a, b) in rhs_o.iter().zip(&rhs_back) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Solving the renumbered system and inverse-permuting the solution
/// satisfies the *original* system (the full-pipeline consistency check:
/// mesh, boundary tags, fields and solver all see one coherent ordering).
#[test]
fn renumbered_solve_solves_the_original_system() {
    let mesh = cavity(5);
    let perm = NodePermutation::scrambled(mesh.num_nodes(), 7);
    let renumbered = mesh.renumber_nodes(&perm);
    let options = SolveOptions::default();

    let assemble_dirichlet = |m: &Mesh| {
        let assembly = NastinAssembly::new(m.clone(), KernelConfig::new(32, OptLevel::Vec1));
        let (velocity, pressure) = state(m);
        let mut out = assembly.assemble(&velocity, &pressure);
        assembly.apply_dirichlet(&mut out.matrix, &mut out.rhs);
        (out.matrix, out.rhs)
    };
    let (matrix_o, rhs_o) = assemble_dirichlet(&mesh);
    let (matrix_r, rhs_r) = assemble_dirichlet(&renumbered);

    let n = mesh.num_nodes();
    let b_o: Vec<f64> = (0..n).map(|i| rhs_o[NDIME * i]).collect();
    let b_r: Vec<f64> = (0..n).map(|i| rhs_r[NDIME * i]).collect();
    let solve_r = bicgstab_on(&Team::new(1), &matrix_r, &b_r, &options).expect("renumbered solve");
    let x_back = perm.inverted().permute_scalar(&solve_r.solution);

    // The inverse-permuted solution satisfies the original system to the
    // solver tolerance.
    let b_norm = b_o.iter().map(|v| v * v).sum::<f64>().sqrt();
    let ax = matrix_o.mul_vec(&x_back);
    let residual = ax.iter().zip(&b_o).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt() / b_norm;
    assert!(residual < 1e-7, "inverse-permuted solution residual {residual}");
}

/// The acceptance matrix: batched momentum solutions bitwise identical to
/// the sequential per-component solves for threads ∈ {1, 2, 4}.
#[test]
fn batched_momentum_solve_is_bitwise_identical_across_thread_counts() {
    let mesh = cavity(6);
    let assembly = NastinAssembly::new(mesh.clone(), KernelConfig::new(64, OptLevel::Vec1));
    let (velocity, pressure) = state(&mesh);
    let mut out = assembly.assemble(&velocity, &pressure);
    assembly.apply_dirichlet(&mut out.matrix, &mut out.rhs);
    let n = mesh.num_nodes();
    let b3 = MultiVector::from_interleaved(&out.rhs);
    let options = SolveOptions::default();

    for threads in [1usize, 2, 4] {
        let team = Team::new(threads);
        let batched = bicgstab3_on(&team, &out.matrix, &b3, &options);
        // The stepper-facing helper runs the same three-column solve.
        let helper =
            solve_momentum_on(&team, &out.matrix, &out.rhs, &options).expect("momentum helper");
        assert_eq!(helper.increment.len(), NDIME * n);
        for (c, outcome) in batched.iter().enumerate() {
            let single = bicgstab_on(&team, &out.matrix, b3.component(c), &options)
                .expect("sequential momentum solve");
            let got = outcome.as_ref().expect("batched momentum solve");
            assert_eq!(got.iterations, single.iterations, "threads={threads} c={c}");
            assert_eq!(
                got.residual_history.len(),
                single.residual_history.len(),
                "threads={threads} c={c}"
            );
            for (a, b) in single.residual_history.iter().zip(&got.residual_history) {
                assert_eq!(a.to_bits(), b.to_bits(), "history threads={threads} c={c}");
            }
            for (a, b) in single.solution.iter().zip(&got.solution) {
                assert_eq!(a.to_bits(), b.to_bits(), "solution threads={threads} c={c}");
            }
            assert_eq!(helper.iterations[c], single.iterations, "threads={threads} c={c}");
            for (node, a) in single.solution.iter().enumerate() {
                let b = helper.increment[NDIME * node + c];
                assert_eq!(a.to_bits(), b.to_bits(), "increment threads={threads} c={c}");
            }
        }
    }
}

/// The batched solve is also reproducible across thread counts (it inherits
/// the deterministic-kernels contract).
#[test]
fn batched_solve_is_reproducible_across_thread_counts() {
    let mesh = cavity(5);
    let assembly = NastinAssembly::new(mesh.clone(), KernelConfig::new(32, OptLevel::Vec1));
    let (velocity, pressure) = state(&mesh);
    let mut out = assembly.assemble(&velocity, &pressure);
    assembly.apply_dirichlet(&mut out.matrix, &mut out.rhs);
    let b3 = MultiVector::from_interleaved(&out.rhs);
    let options = SolveOptions::default();
    let reference = bicgstab3_on(&Team::new(1), &out.matrix, &b3, &options);
    for threads in [2usize, 4] {
        let team = Team::new(threads);
        let got = bicgstab3_on(&team, &out.matrix, &b3, &options);
        for c in 0..NDIME {
            let a = reference[c].as_ref().unwrap();
            let b = got[c].as_ref().unwrap();
            assert_eq!(a.iterations, b.iterations, "threads={threads} c={c}");
            for (x, y) in a.solution.iter().zip(&b.solution) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads={threads} c={c}");
            }
        }
    }
}
