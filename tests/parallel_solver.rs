//! Integration tests of the shared worker-pool runtime and the parallel
//! Krylov subsystem — the end-to-end contract of the multi-threaded time
//! step:
//!
//! * SpMV, dot and axpy on a team are **bitwise identical** to the serial
//!   implementations for threads ∈ {1, 2, 4} (row partitioning, static
//!   element-wise partitioning and the fixed-block reduction order);
//! * full CG/BiCGSTAB solves are reproducible: identical iteration counts
//!   and bitwise identical residual histories and solutions across thread
//!   counts, matching the serial oracle;
//! * one [`Team`] carries a complete time step — mesh-colored assembly
//!   sweep *and* Krylov solves on the same pool — and matches the
//!   all-serial time step.

use alya_longvec::prelude::*;
use lv_kernel::ElementWorkspace;
use lv_mesh::Vec3;
use lv_solver::VectorOps;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Rows above `lv_solver::parallel::SERIAL_CUTOFF` so the pooled kernels
/// really fork.
fn assembled_system() -> (CsrMatrix, Vec<f64>) {
    // 10^3 elements -> 11^3 = 1331 nodes, above the 1024-row serial cutoff.
    let mesh = BoxMeshBuilder::new(10, 10, 10).lid_driven_cavity().with_jitter(0.1, 13).build();
    let config = KernelConfig::new(64, OptLevel::Vec1);
    let assembly = NastinAssembly::new(mesh.clone(), config);
    let mut velocity = VectorField::taylor_green(&mesh);
    velocity.apply_boundary_conditions(&mesh, Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO);
    let pressure = Field::from_fn(&mesh, |p| p.x * p.y - 0.5 * p.z);
    let mut out = assembly.assemble(&velocity, &pressure);
    assembly.apply_dirichlet(&mut out.matrix, &mut out.rhs);
    let b: Vec<f64> = (0..mesh.num_nodes()).map(|i| out.rhs[3 * i]).collect();
    (out.matrix, b)
}

fn assert_bitwise(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{k}]: {x} vs {y}");
    }
}

/// BLAS-1/SpMV kernels: bitwise equality vs the serial implementations for
/// every thread count.
#[test]
fn pooled_kernels_match_serial_bitwise() {
    let (matrix, b) = assembled_system();
    let n = matrix.dim();
    assert!(n > lv_solver::parallel::SERIAL_CUTOFF, "workload must exceed the serial cutoff");
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.173).sin() + 0.2).collect();

    let mut serial = VectorOps::serial();
    let dot_oracle = serial.dot(&x, &b);
    let norm_oracle = serial.norm(&b);
    let mut spmv_oracle = vec![0.0; n];
    serial.spmv(&matrix, &x, &mut spmv_oracle);
    let mut axpy_oracle = b.clone();
    serial.axpy(-0.75, &x, &mut axpy_oracle);

    for threads in THREAD_COUNTS {
        let team = Team::new(threads);
        let mut ops = VectorOps::on_team(&team);
        assert_eq!(ops.dot(&x, &b).to_bits(), dot_oracle.to_bits(), "dot threads={threads}");
        assert_eq!(ops.norm(&b).to_bits(), norm_oracle.to_bits(), "norm threads={threads}");
        let mut y = vec![0.0; n];
        ops.spmv(&matrix, &x, &mut y);
        assert_bitwise(&spmv_oracle, &y, &format!("spmv threads={threads}"));
        let mut y = b.clone();
        ops.axpy(-0.75, &x, &mut y);
        assert_bitwise(&axpy_oracle, &y, &format!("axpy threads={threads}"));
    }
}

/// Full solves: identical iteration counts, bitwise identical residual
/// histories and solutions for threads ∈ {1, 2, 4}, matching the serial
/// oracle.
#[test]
fn full_solves_are_reproducible_across_thread_counts() {
    let (matrix, b) = assembled_system();
    assert!(
        !matrix.is_symmetric(1e-12),
        "the assembled momentum matrix must be non-symmetric — BiCGSTAB has to be exercised on \
         the operator a time step actually solves"
    );
    let options = SolveOptions { max_iterations: 2000, tolerance: 1e-9 };

    let oracle =
        bicgstab_on(&Team::new(1), &matrix, &b, &options).expect("serial BiCGSTAB must converge");
    assert!(oracle.final_residual() < 1e-9);
    for threads in THREAD_COUNTS {
        let team = Team::new(threads);
        let solve = bicgstab_on(&team, &matrix, &b, &options).expect("pooled solve");
        assert_eq!(solve.iterations, oracle.iterations, "threads={threads}");
        assert_bitwise(
            &oracle.residual_history,
            &solve.residual_history,
            &format!("bicgstab history threads={threads}"),
        );
        assert_bitwise(
            &oracle.solution,
            &solve.solution,
            &format!("bicgstab solution threads={threads}"),
        );
    }

    // CG on the real assembled pressure Laplacian (gauge-pinned SPD), the
    // operator the fractional-step driver's Poisson solve runs on.
    let mesh = BoxMeshBuilder::new(10, 10, 10).lid_driven_cavity().with_jitter(0.1, 13).build();
    let poisson = lv_kernel::pressure_laplacian(&mesh, &[0]);
    assert!(
        poisson.is_symmetric(1e-12),
        "the pinned pressure Laplacian must be symmetric — CG requires an SPD operator"
    );
    let b = {
        let mut b = b;
        b[0] = 0.0; // the pinned gauge unknown
        b
    };
    let oracle = conjugate_gradient_on(&Team::new(1), &poisson, &b, &options)
        .expect("serial CG must converge");
    for threads in THREAD_COUNTS {
        let team = Team::new(threads);
        let solve = conjugate_gradient_on(&team, &poisson, &b, &options).expect("pooled solve");
        assert_eq!(solve.iterations, oracle.iterations, "threads={threads}");
        assert_bitwise(
            &oracle.residual_history,
            &solve.residual_history,
            &format!("cg history threads={threads}"),
        );
        assert_bitwise(
            &oracle.solution,
            &solve.solution,
            &format!("cg solution threads={threads}"),
        );
    }
}

/// The tentpole end-to-end property: one pool carries assembly sweep and
/// solves of a full time step, across several steps, and reproduces the
/// all-serial time step (assembly to rounding accuracy — the colored
/// schedule permutes the summation order — and solve-on-pool bitwise given
/// its assembled input).
#[test]
fn one_pool_runs_a_full_time_step_end_to_end() {
    let mesh = BoxMeshBuilder::new(6, 6, 6).lid_driven_cavity().build();
    let config = KernelConfig::new(32, OptLevel::Vec1).with_viscosity(5e-2).with_dt(0.05);
    let assembly = NastinAssembly::new(mesh.clone(), config);
    let n = mesh.num_nodes();
    let options = SolveOptions::default();
    let lid = Vec3::new(1.0, 0.0, 0.0);

    let run_steps = |threads: usize| -> (VectorField, usize) {
        let team = Team::new(threads);
        let mut velocity = VectorField::zeros(&mesh);
        velocity.apply_boundary_conditions(&mesh, lid, Vec3::ZERO);
        let pressure = Field::zeros(&mesh);
        let mut matrix = assembly.new_matrix();
        let mut rhs = vec![0.0; 3 * n];
        let mut workspaces: Vec<ElementWorkspace> =
            (0..threads).map(|_| ElementWorkspace::new(32)).collect();
        let mut total_iters = 0;
        for _ in 0..2 {
            // Assembly and the three solves share `team` — no other threads
            // are spawned anywhere in this loop.
            assembly.assemble_parallel_into_on(
                &team,
                &velocity,
                &pressure,
                &mut matrix,
                &mut rhs,
                &mut workspaces,
            );
            assembly.apply_dirichlet(&mut matrix, &mut rhs);
            let mut increment = VectorField::zeros(&mesh);
            for dim in 0..3 {
                let b: Vec<f64> = (0..n).map(|i| rhs[3 * i + dim]).collect();
                let solve = bicgstab_on(&team, &matrix, &b, &options).expect("momentum solve");
                total_iters += solve.iterations;
                for (node, &du) in solve.solution.iter().enumerate() {
                    let mut v = increment.get(node);
                    v[dim] = du;
                    increment.set(node, v);
                }
            }
            velocity.axpy(1.0, &increment);
            velocity.apply_boundary_conditions(&mesh, lid, Vec3::ZERO);
        }
        (velocity, total_iters)
    };

    let (v1, iters1) = run_steps(1);
    for threads in [2usize, 4] {
        let (vt, iterst) = run_steps(threads);
        // The colored schedule is thread-count independent, so the whole
        // two-step trajectory is bitwise reproducible.
        assert_eq!(iterst, iters1, "threads={threads}");
        for node in 0..n {
            let a = v1.get(node);
            let b = vt.get(node);
            for dim in 0..3 {
                assert_eq!(
                    a[dim].to_bits(),
                    b[dim].to_bits(),
                    "velocity[{node}][{dim}] threads={threads}"
                );
            }
        }
    }
}
