//! Integration tests of the geometric-multigrid pressure solve and the
//! matrix-free Laplacian — the end-to-end contracts of the subsystem:
//!
//! * **Determinism** — the MG-CG solve of the 16³ cavity pressure system is
//!   bitwise identical for threads ∈ {1, 2, 4} (same solution bits, same
//!   iteration count), like every other kernel in the workspace;
//! * **Operator equivalence** — the matrix-free Laplacian matches the
//!   assembled+pinned CSR operator to ≤ 1e-12 on every registry scenario's
//!   mesh (and streams fewer bytes);
//! * **Mesh independence** — MG-CG iterations do not grow over
//!   8³ → 12³ → 16³ and stay at or below the ISSUE ceiling of 15 at 16³,
//!   while plain Jacobi-CG iterations grow with resolution;
//! * **Precision neutrality** — the V-cycle runs in `f32` under the `f64`
//!   CG; every Poisson solve of cavity / Taylor–Green / channel steps at 8³
//!   and 12³ takes the iterations the all-`f64` cycle took, and that is the
//!   flexible `β`'s doing (plain `β` pays on the gate's 16³ system);
//! * **Physics neutrality** — a cavity trajectory stepped with the MG-CG
//!   pressure path matches the trajectory of the same cavity with every
//!   projection sweep forced onto plain CG by an injected multigrid
//!   breakdown (both iterate on the same level-0 operator and solve the
//!   same system to 1e-10), with fewer Poisson iterations;
//! * **Level storage** — on every level of the jittered-cavity and channel
//!   hierarchies the diagonal-stored operator the V-cycle runs on produces
//!   the bits of the CSR operator it was converted from; a mesh whose node
//!   order hides the lattice does not fit and has no hierarchy;
//! * **Transfer storage** — every transfer of an unjittered box's pressure
//!   hierarchy is the lattice stencil (12³ included), and its V-cycles carry
//!   the bits of the same hierarchy on CSR transfers at every thread count.

use alya_longvec::prelude::*;
use lv_driver::{FaultKind, FaultPlan};
use lv_kernel::{
    build_pressure_multigrid, pressure_interpolations, pressure_laplacian, MatrixFreeLaplacian,
    NoHierarchy, PressureOperators,
};
use lv_mesh::renumber::NodePermutation;
use lv_solver::{
    conjugate_gradient_on, exact_row_classes, galerkin_coarse, galerkin_on_lattices,
    mg_preconditioned_cg_on, CsrMatrix, DiaMatrix, GeometricMultigrid, Interpolation,
    LinearOperator, MultigridOptions, TransferStorage, VectorOps,
};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// A deterministic noise vector (splitmix-style LCG, seedable).
fn probe(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
            ((t >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect()
}

#[test]
fn mgcg_solve_is_bitwise_reproducible_across_thread_counts() {
    let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 16);
    let mesh = scenario.build_mesh();
    let pins = scenario.pressure_pins(&mesh);
    let laplacian = pressure_laplacian(&mesh, &pins);
    let mut rhs = probe(laplacian.dim(), 99);
    for &pin in &pins {
        rhs[pin] = 0.0;
    }
    let options = SolveOptions { max_iterations: 200, tolerance: 1e-10 };

    let mut oracle: Option<(Vec<f64>, usize)> = None;
    for threads in THREAD_COUNTS {
        // A fresh hierarchy per team: its construction is serial and
        // deterministic, so this also checks setup reproducibility.
        let mut multigrid =
            build_pressure_multigrid(&mesh, &laplacian, &MultigridOptions::default())
                .expect("16³ cavity is a structured lattice");
        let team = Team::new(threads);
        let outcome = mg_preconditioned_cg_on(&team, &laplacian, &mut multigrid, &rhs, &options)
            .expect("MG-CG converges");
        match &oracle {
            None => oracle = Some((outcome.solution, outcome.iterations)),
            Some((solution, iterations)) => {
                assert_eq!(*iterations, outcome.iterations, "iterations at {threads} threads");
                for (i, (a, b)) in solution.iter().zip(&outcome.solution).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "solution entry {i} at {threads} threads ({a} vs {b})"
                    );
                }
            }
        }
    }
}

#[test]
fn matrix_free_matches_assembled_csr_on_every_registry_mesh() {
    for scenario in Scenario::registry() {
        let mesh = scenario.build_mesh();
        let pins = scenario.pressure_pins(&mesh);
        let csr = pressure_laplacian(&mesh, &pins);
        let matrix_free = MatrixFreeLaplacian::new(&mesh, &pins);
        assert_eq!(LinearOperator::dim(&matrix_free), csr.dim());

        let x = probe(csr.dim(), 7);
        let mut y = vec![0.0; csr.dim()];
        LinearOperator::apply(&matrix_free, &x, &mut y);
        let reference = csr.mul_vec(&x);
        for i in 0..csr.dim() {
            assert!(
                (y[i] - reference[i]).abs() <= 1e-12 * (1.0 + reference[i].abs()),
                "{}: row {i} matrix-free {} vs assembled {}",
                scenario.kind.name(),
                y[i],
                reference[i]
            );
        }
        assert!(
            matrix_free.streamed_bytes() < LinearOperator::streamed_bytes(&csr),
            "{}: matrix-free must stream fewer operator bytes",
            scenario.kind.name()
        );
    }
}

/// The pinned pressure system of the `n³` lid-driven cavity with a
/// deterministic noise right-hand side, pinned rows zeroed — representative
/// of a projection right-hand side without depending on a trajectory.
fn pinned_cavity_system(n: usize) -> (Mesh, CsrMatrix, Vec<f64>) {
    let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, n);
    let mesh = scenario.build_mesh();
    let pins = scenario.pressure_pins(&mesh);
    let laplacian = pressure_laplacian(&mesh, &pins);
    let mut rhs = probe(laplacian.dim(), 1442695040888963407);
    for &pin in &pins {
        rhs[pin] = 0.0;
    }
    (mesh, laplacian, rhs)
}

/// Poisson solve options at a 1e-10 relative residual — the tolerance
/// every count of this file was recorded at — with room for plain CG at
/// 16³.
fn poisson_options() -> SolveOptions {
    SolveOptions { max_iterations: 4000, tolerance: 1e-10 }
}

/// The stepper's defaults with both solves at [`poisson_options`]'s 1e-10,
/// not at the default 1e-6: the pinned per-step counts and the trajectory
/// comparison below were recorded there.
fn recorded_config() -> StepperConfig {
    let mut config = StepperConfig::default();
    for options in [&mut config.momentum_options, &mut config.poisson_options] {
        options.tolerance = poisson_options().tolerance;
    }
    config
}

#[test]
fn mgcg_iterations_are_mesh_independent_and_under_the_ceiling() {
    struct Case {
        resolution: usize,
        cg_iterations: usize,
        mgcg_iterations: usize,
    }
    let options = poisson_options();
    let team = Team::new(1);
    let cases: Vec<Case> = [8, 12, 16]
        .into_iter()
        .map(|resolution| {
            let (mesh, laplacian, rhs) = pinned_cavity_system(resolution);
            let mut multigrid =
                build_pressure_multigrid(&mesh, &laplacian, &MultigridOptions::default())
                    .expect("cavity boxes are structured lattices");
            let cg =
                conjugate_gradient_on(&team, &laplacian, &rhs, &options).expect("CG converges");
            let mg = mg_preconditioned_cg_on(&team, &laplacian, &mut multigrid, &rhs, &options)
                .expect("MG-CG converges");
            Case { resolution, cg_iterations: cg.iterations, mgcg_iterations: mg.iterations }
        })
        .collect();
    for pair in cases.windows(2) {
        assert!(
            pair[1].mgcg_iterations <= pair[0].mgcg_iterations,
            "MG-CG iterations grew {}³ → {}³ ({} → {})",
            pair[0].resolution,
            pair[1].resolution,
            pair[0].mgcg_iterations,
            pair[1].mgcg_iterations
        );
        assert!(
            pair[1].cg_iterations > pair[0].cg_iterations,
            "plain CG should need more iterations at higher resolution"
        );
    }
    let largest = cases.last().expect("three cases");
    assert!(
        largest.mgcg_iterations <= 15,
        "MG-CG took {} iterations at 16³ (ceiling 15)",
        largest.mgcg_iterations
    );
    assert!(largest.mgcg_iterations < largest.cg_iterations / 3);
}

/// The V-cycle runs in `f32` under the `f64` CG.  That it costs no
/// iteration is pinned here, step by step, against the counts the all-`f64`
/// cycle of the parent commit took on the same scenarios (recorded there
/// before the cycle changed precision).
#[test]
fn poisson_iterations_per_step_are_those_of_the_all_f64_cycle() {
    use ScenarioKind::{Channel, LidDrivenCavity, TaylorGreenVortex};
    let table: [(ScenarioKind, usize, [usize; 6]); 6] = [
        (LidDrivenCavity, 8, [22, 21, 21, 21, 21, 21]),
        (LidDrivenCavity, 12, [21, 21, 21, 21, 21, 21]),
        (TaylorGreenVortex, 8, [21, 21, 21, 21, 21, 21]),
        (TaylorGreenVortex, 12, [21, 21, 21, 21, 21, 21]),
        (Channel, 8, [18, 18, 18, 18, 18, 18]),
        (Channel, 12, [18, 18, 17, 16, 18, 18]),
    ];
    let team = Team::new(2);
    for (kind, resolution, expect) in table {
        let mut stepper = Stepper::new(Scenario::new(kind, resolution), recorded_config());
        assert!(stepper.multigrid_levels().is_some(), "{} {resolution}³", kind.name());
        let reports = stepper.run_on(&team, expect.len()).expect("the scenario steps");
        let got: Vec<usize> = reports.iter().map(|r| r.poisson_iterations).collect();
        assert_eq!(got, expect, "{} {resolution}³", kind.name());
        assert!(reports.iter().all(|r| r.retries == 0 && r.poisson_fallbacks == 0));
    }
}

/// Why CG asks the preconditioner whether it is inexact: on the 16³ system
/// of the mesh-independence gate, plain (Fletcher–Reeves) PCG around the
/// very same `f32` V-cycle needs more iterations than the flexible `β` the
/// library takes.  Dropping `GeometricMultigrid`'s `is_inexact` would turn
/// the library's count into the plain one.
#[test]
fn plain_beta_pays_for_the_rounded_cycle_and_flexible_beta_does_not() {
    let (mesh, laplacian, rhs) = pinned_cavity_system(16);
    let mut multigrid = build_pressure_multigrid(&mesh, &laplacian, &MultigridOptions::default())
        .expect("16³ cavity is a structured lattice");
    let options = poisson_options();
    let team = Team::new(1);
    let flexible = mg_preconditioned_cg_on(&team, &laplacian, &mut multigrid, &rhs, &options)
        .expect("MG-CG converges")
        .iterations;

    // Textbook PCG, `β = (r·z)_new / (r·z)_old`, on the public kernels.
    let n = rhs.len();
    let mut ops = VectorOps::serial();
    let b_norm = ops.norm(&rhs);
    let (mut r, mut z, mut ap) = (rhs.clone(), vec![0.0; n], vec![0.0; n]);
    multigrid.v_cycle(&mut ops, &r, &mut z);
    let mut p = z.clone();
    let mut rz = ops.dot(&r, &z);
    let mut plain = 0;
    loop {
        plain += 1;
        assert!(plain < 100, "plain PCG must still converge");
        ops.apply(&laplacian, &p, &mut ap);
        let alpha = rz / ops.dot(&p, &ap);
        ops.axpy(-alpha, &ap, &mut r);
        if ops.norm(&r) / b_norm < options.tolerance {
            break;
        }
        multigrid.v_cycle(&mut ops, &r, &mut z);
        let rz_new = ops.dot(&r, &z);
        ops.xpby(&z, rz_new / rz, &mut p);
        rz = rz_new;
    }
    assert_eq!(flexible, 7, "the gate's 16³ count");
    assert!(plain > flexible, "plain β took {plain} iterations, flexible β {flexible}");
}

#[test]
fn mgcg_trajectory_matches_cg_to_solver_tolerance() {
    let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 8);
    let team = Team::new(2);
    let config = recorded_config().with_vector_size(64);

    let mut mgcg = Stepper::new(scenario.clone(), config.clone());
    assert!(mgcg.multigrid_levels().is_some());
    let mg_reports = mgcg.run_on(&team, 3).expect("mgcg run");

    // The same cavity with a multigrid breakdown injected into each of the
    // three projection sweeps of every step: each sweep falls back to
    // plain CG on the hierarchy's level-0 operator.
    let mut plan = FaultPlan::new(0);
    for step in 1..=3 {
        for _sweep in 0..3 {
            plan = plan.with_fault(FaultKind::MultigridBreakdown, step);
        }
    }
    let mut cg = Stepper::new(scenario, config.with_fault_plan(plan));
    let cg_reports = cg.run_on(&team, 3).expect("cg run");
    assert!(mg_reports.iter().all(|r| r.poisson_fallbacks == 0));
    assert!(cg_reports.iter().all(|r| r.poisson_fallbacks == 3));

    let mg_poisson: usize = mg_reports.iter().map(|r| r.poisson_iterations).sum();
    let cg_poisson: usize = cg_reports.iter().map(|r| r.poisson_iterations).sum();
    assert!(mg_poisson < cg_poisson, "MG-CG {mg_poisson} vs CG {cg_poisson} Poisson iterations");

    // Identical physics to solver precision: both paths solve the same
    // systems to a 1e-10 relative residual, so the trajectories agree far
    // tighter than any physical scale.
    for (a, b) in mg_reports.iter().zip(&cg_reports) {
        assert_eq!(a.dt.to_bits(), b.dt.to_bits(), "Δt must not depend on the pressure path");
        assert!((a.kinetic_energy - b.kinetic_energy).abs() <= 1e-8 * (1.0 + b.kinetic_energy));
        assert!((a.divergence_post - b.divergence_post).abs() <= 1e-8);
    }
    for (a, b) in mgcg.state().pressure.as_slice().iter().zip(cg.state().pressure.as_slice()) {
        assert!((a - b).abs() <= 1e-7, "pressure fields diverged ({a} vs {b})");
    }
    for (a, b) in mgcg.state().velocity.as_slice().iter().zip(cg.state().velocity.as_slice()) {
        assert!((a - b).abs() <= 1e-8, "velocity fields diverged ({a} vs {b})");
    }
}

#[test]
fn registry_box_scenarios_get_the_multigrid_path_by_default() {
    for scenario in Scenario::registry() {
        let stepper = Stepper::new(scenario.clone(), StepperConfig::default().with_vector_size(64));
        let levels = stepper.multigrid_levels().unwrap_or_else(|| {
            panic!(
                "{}: registry meshes are structured boxes, multigrid must engage",
                scenario.kind.name()
            )
        });
        assert!(levels.len() >= 2, "{}: {:?}", scenario.kind.name(), levels);
        assert_eq!(levels[0], stepper.mesh().num_nodes());
    }
}

/// Like [`probe`], with the awkward finite values mixed in: `-0.0` and
/// denormals of both signs.
fn awkward_probe(n: usize, seed: u64) -> Vec<f64> {
    let mut x = probe(n, seed);
    for (i, v) in x.iter_mut().enumerate() {
        match i % 7 {
            1 => *v = -0.0,
            3 => *v = f64::MIN_POSITIVE / 8.0,
            5 => *v = -f64::MIN_POSITIVE / 1024.0,
            _ => {}
        }
    }
    x
}

/// `DiaMatrix` product vs `CsrMatrix::spmv_range`, bit for bit: ranges that
/// start and end inside a 256-row block, and the pooled partitions.
fn assert_diagonal_product_matches_csr(csr: &CsrMatrix, what: &str, seed: u64) {
    let dia = DiaMatrix::from_csr(csr).unwrap_or_else(|| panic!("{what} must fit"));
    assert!(dia.offsets().len() <= 27, "{what}: {:?}", dia.offsets());
    let n = csr.dim();
    let x = awkward_probe(n, seed);
    let expect = csr.mul_vec(&x);
    for rows in [0..n, 1..n - 1, n / 3..n - n / 5, 255..n.min(258)] {
        if rows.is_empty() {
            continue;
        }
        let mut y = vec![f64::NAN; rows.len()];
        dia.apply_range(&x, rows.clone(), &mut y);
        for (got, (row, want)) in y.iter().zip(rows.clone().zip(&expect[rows.clone()])) {
            assert_eq!(got.to_bits(), want.to_bits(), "{what} row {row}");
        }
    }
    for threads in THREAD_COUNTS {
        let team = Team::new(threads);
        let mut y = vec![f64::NAN; n];
        VectorOps::on_team(&team).apply(&dia, &x, &mut y);
        for (row, (got, want)) in y.iter().zip(&expect).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "{what} row {row} at {threads} threads");
        }
    }
}

#[test]
fn diagonal_levels_match_csr_bitwise_on_the_cavity_and_channel_chains() {
    let options = MultigridOptions::default();
    for kind in [ScenarioKind::LidDrivenCavity, ScenarioKind::Channel] {
        let scenario = Scenario::new(kind, 12);
        let mesh = scenario.build_mesh();
        let pins = scenario.pressure_pins(&mesh);
        if kind == ScenarioKind::Channel {
            assert!(pins.len() > 1, "the channel pins a whole outflow plane");
        }
        let interps = pressure_interpolations(&mesh, &options).expect("a box lattice");
        let mut csr = pressure_laplacian(&mesh, &pins);
        for level in 0..=interps.len() {
            let what = format!("{} level {level}", kind.name());
            assert_diagonal_product_matches_csr(&csr, &what, 31 + level as u64);
            if level < interps.len() {
                csr = galerkin_coarse(&csr, &interps[level]);
            }
        }
    }
}

/// A jittered box keeps the 27 diagonals on the fine level (the pattern is
/// topological) with every row's values different.  Its first *coarse*
/// level does not fit: the finest transfer interpolates onto the actual
/// node positions, a nudged coincident node picks up a full cell of
/// weights, and the Galerkin stencil widens to 5³ — such meshes step with
/// plain CG.
#[test]
fn a_jittered_box_fits_on_the_fine_level_only() {
    let mesh = BoxMeshBuilder::new(12, 12, 12).lid_driven_cavity().with_jitter(0.15, 5).build();
    let laplacian = pressure_laplacian(&mesh, &[0]);
    assert_diagonal_product_matches_csr(&laplacian, "jittered cavity", 77);

    let options = MultigridOptions::default();
    let interps = pressure_interpolations(&mesh, &options).expect("mild jitter keeps the lattice");
    let coarse = galerkin_coarse(&laplacian, &interps[0]);
    assert!(DiaMatrix::<f64>::from_csr(&coarse).is_none());
    let built = build_pressure_multigrid(&mesh, &laplacian, &options);
    assert_eq!(built.err(), Some(NoHierarchy::TooManyDiagonals));
}

/// Where a lattice has no hierarchy the step runs plain CG on the pinned
/// Laplacian's level-0 diagonals.  On the three such meshes of the
/// registry's kinds — a cavity whose lattice does not halve, a flat box of
/// unequal spacing, a jittered box whose coarse level is too wide — that
/// solve is the CSR solve to the bit (solution, iterations, final residual)
/// on 1, 2 and 3 threads: the step moved from one operator to the other
/// without moving its trajectory.
#[test]
fn plain_cg_on_the_level_0_diagonals_keeps_the_bits_of_the_csr_laplacian() {
    let cavity = Scenario::new(ScenarioKind::LidDrivenCavity, 7);
    let meshes = [
        ("cavity 7", cavity.build_mesh(), NoHierarchy::DoesNotHalve),
        (
            "flat 8x8x16",
            BoxMeshBuilder::new(8, 8, 16).lid_driven_cavity().build(),
            NoHierarchy::UnequalSpacing,
        ),
        (
            "jittered 12^3",
            BoxMeshBuilder::new(12, 12, 12).lid_driven_cavity().with_jitter(0.1, 5).build(),
            NoHierarchy::TooManyDiagonals,
        ),
    ];
    let options = StepperConfig::default().poisson_options;
    for (name, mesh, cause) in &meshes {
        let pins = cavity.pressure_pins(mesh);
        let csr = pressure_laplacian(mesh, &pins);
        let built = build_pressure_multigrid(mesh, &csr, &MultigridOptions::default());
        assert_eq!(built.err(), Some(*cause), "{name}");
        let dia: DiaMatrix = DiaMatrix::from_csr(&csr).expect("a lattice stencil");
        let mut rhs = probe(csr.dim(), 5);
        for &pin in &pins {
            rhs[pin] = 0.0;
        }
        for threads in [1, 2, 3] {
            let team = Team::new(threads);
            let want = conjugate_gradient_on(&team, &csr, &rhs, &options).expect("CSR CG");
            let got = conjugate_gradient_on(&team, &dia, &rhs, &options).expect("diagonal CG");
            let what = format!("{name} on {threads} thread(s)");
            assert!(want.iterations > 0, "{what}");
            assert_eq!(got.iterations, want.iterations, "{what}: iterations");
            let residuals = [got.final_residual(), want.final_residual()].map(f64::to_bits);
            assert_eq!(residuals[0], residuals[1], "{what}: final residual");
            for (i, (x, y)) in got.solution.iter().zip(&want.solution).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: solution entry {i}");
            }
        }
    }
}

/// The cavity's pinned Laplacian pushed through a scrambled node order has
/// no diagonal storage, and the scrambled mesh carries no lattice to build a
/// hierarchy on.  (A stepper refuses such a mesh outright: `tests/driver.rs`.)
#[test]
fn a_scrambled_node_order_does_not_fit_and_steps_with_plain_cg() {
    let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 8);
    let mesh = scenario.build_mesh();
    let perm = NodePermutation::scrambled(mesh.num_nodes(), 99);
    let scrambled = mesh.renumber_nodes(&perm);
    let laplacian = pressure_laplacian(&mesh, &scenario.pressure_pins(&mesh));
    let laplacian = laplacian.permuted(perm.forward());
    assert!(
        DiaMatrix::<f64>::from_csr(&laplacian).is_none(),
        "a scrambled Laplacian has no diagonals"
    );
    let built = build_pressure_multigrid(&scrambled, &laplacian, &MultigridOptions::default());
    assert_eq!(built.err(), Some(NoHierarchy::NoLattice));
}

/// The pressure transfers of `mesh` as `pressure_interpolations` builds
/// them, minus the lattices they connect: CSR operators a V-cycle can only
/// keep in CSR.
fn csr_pressure_interpolations(mesh: &Mesh) -> Vec<Interpolation> {
    let chain = mesh
        .lattice()
        .expect("a box lattice")
        .coarsening_chain(MultigridOptions::default().max_coarse_nodes);
    let csr = |coarse, points: &[[f64; 3]]| {
        let s = lv_mesh::trilinear_stencil(coarse, points);
        Interpolation::from_csr(s.coarse_nodes, s.row_ptr, s.col_idx, s.weights)
    };
    let nodes: Vec<[f64; 3]> = (0..mesh.num_nodes())
        .map(|n| {
            let p = mesh.node_coords(n);
            [p[0], p[1], p[2]]
        })
        .collect();
    let mut interps = vec![csr(&chain[1], &nodes)];
    for level in 1..chain.len() - 1 {
        interps.push(csr(&chain[level + 1], &chain[level].node_positions()));
    }
    interps
}

/// Every transfer of an unjittered box is applied by lattice index — at
/// 12³, whose `f64` weights miss ½ by a rounding, too — and the V-cycle on
/// those stencils carries the bits of the same hierarchy on the CSR
/// transfers, on 1, 2 and 3 threads: cavities at 8³, 12³ and 16³, the 8³
/// channel's long box and a 16 × 8 × 4 box of equal spacing.
#[test]
fn pressure_transfers_are_stencils_with_the_bits_of_their_csr_form() {
    let options = MultigridOptions::default();
    let cavity = |n| Scenario::new(ScenarioKind::LidDrivenCavity, n).build_mesh();
    let flat = BoxMeshBuilder::new(16, 8, 4)
        .lid_driven_cavity()
        .with_extent(lv_mesh::geometry::Point3::new(0.0, 0.0, 0.0), [4.0, 2.0, 1.0])
        .build();
    let meshes = [
        ("cavity 8", cavity(8)),
        ("cavity 12", cavity(12)),
        ("cavity 16", cavity(16)),
        ("channel 8", Scenario::new(ScenarioKind::Channel, 8).build_mesh()),
        ("box 16x8x4", flat),
    ];
    for (name, mesh) in &meshes {
        let laplacian = pressure_laplacian(mesh, &[0]);
        let interps = pressure_interpolations(mesh, &options).expect("a box lattice");
        let levels = interps.len();
        let mut stencil = GeometricMultigrid::new(&laplacian, interps, &options).expect(name);
        let mut csr =
            GeometricMultigrid::new(&laplacian, csr_pressure_interpolations(mesh), &options)
                .expect(name);
        assert_eq!(stencil.transfer_storage(), vec![TransferStorage::Stencil; levels], "{name}");
        let on_csr = csr.transfer_storage();
        assert!(on_csr.iter().all(|s| matches!(s, TransferStorage::Csr { .. })), "{name}");
        let rhs = awkward_probe(laplacian.dim(), 19);
        for threads in [1, 2, 3] {
            let team = Team::new(threads);
            let [want, got] = [&mut csr, &mut stencil].map(|mg| {
                let mut z = vec![f64::NAN; rhs.len()];
                mg.v_cycle(&mut VectorOps::on_team(&team), &rhs, &mut z);
                z.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
            });
            assert!(got == want, "{name}: V-cycle on {threads} threads");
        }
    }
}

/// Bit patterns of a diagonal matrix's values.
fn value_bits<T: Copy + Into<f64>>(values: &[T]) -> Vec<u64> {
    values.iter().map(|&v| v.into().to_bits()).collect()
}

/// `got` and `want` store the same offsets and the same value bits.
fn assert_same_diagonals(got: &DiaMatrix, want: &DiaMatrix, what: &str) {
    assert_eq!(got.offsets(), want.offsets(), "{what}: offsets");
    assert!(value_bits(got.values()) == value_bits(want.values()), "{what}: values");
}

/// The hierarchy a stepper builds on `scenario`'s mesh, level by level in
/// `f64`, against the CSR path it replaced: level 0 — `K`'s diagonals
/// pinned in place — is `DiaMatrix::from_csr` of the pinned CSR Laplacian,
/// and every coarse level, computed once per key on the lattice, is
/// `from_csr` of `galerkin_coarse` with the same exact `P`, bit for bit,
/// offsets included.  Returns the distinct exact rows of level 0 and the
/// keys of every coarse level.
fn assert_the_lattice_chain_is_the_csr_chain(scenario: &Scenario) -> Vec<usize> {
    let mesh = scenario.build_mesh();
    let pins = scenario.pressure_pins(&mesh);
    let what = format!("{} {}", scenario.kind.name(), scenario.resolution);
    let operators = PressureOperators::new(&mesh, 32);
    let mut dia = operators.pinned_laplacian(&pins);
    let mut csr = operators.assemble_laplacian();
    csr.pin_rows_symmetric(&pins);
    let level_0 = DiaMatrix::from_csr(&csr).expect("a lattice stencil");
    assert_same_diagonals(&dia, &level_0, &format!("{what} level 0"));
    drop(level_0);
    let mut classes = exact_row_classes(&dia);
    let distinct = |classes: &[u32]| classes.iter().max().map_or(0, |&c| c as usize + 1);
    let mut counts = vec![distinct(&classes)];
    let options = MultigridOptions::default();
    let chain = mesh.lattice().expect("a box lattice").coarsening_chain(options.max_coarse_nodes);
    for (level, lattice) in chain.iter().enumerate().skip(1) {
        let (coarse, keys) =
            galerkin_on_lattices(&dia, &classes, lattice.points()).expect("27 diagonals");
        csr = galerkin_coarse(&csr, &Interpolation::trilinear(lattice.points()));
        let want = DiaMatrix::from_csr(&csr).expect("a lattice stencil");
        assert_same_diagonals(&coarse, &want, &format!("{what} level {level}"));
        counts.push(distinct(&keys));
        (dia, classes) = (coarse, keys);
    }
    counts
}

/// The class-memoized products of the cavity, Taylor–Green and channel
/// boxes at 8, 12 and 16 elements a side carry the CSR chain's bits on
/// every level; the pinned fine level of the uniform boxes has 34 exact
/// `f64` rows at every size (27 positions and the seven neighbours of the
/// pin, whose coupling to it was zeroed), and each Galerkin level at most
/// 34 keys.
#[test]
fn lattice_products_carry_the_bits_of_galerkin_coarse_with_the_exact_transfer() {
    use ScenarioKind::{Channel, LidDrivenCavity, TaylorGreenVortex};
    for kind in [LidDrivenCavity, TaylorGreenVortex, Channel] {
        for resolution in [8, 12, 16] {
            let counts =
                assert_the_lattice_chain_is_the_csr_chain(&Scenario::new(kind, resolution));
            if kind != Channel {
                assert_uniform_counts(&counts, resolution);
            }
        }
    }
}

/// A uniform box's pinned level 0 has 34 exact rows and each Galerkin
/// level at most 34 keys.
fn assert_uniform_counts(counts: &[usize], resolution: usize) {
    assert_eq!(counts[0], 34, "{resolution}: {counts:?}");
    assert!(counts[1..].iter().all(|&keys| keys <= 34), "{resolution}: {counts:?}");
}

/// [`lattice_products_carry_the_bits_of_galerkin_coarse_with_the_exact_transfer`]
/// on the uniform boxes at 32 and 48 elements a side — the benchmark's
/// size and a size whose spacing is no power of two — and
/// [`the_exact_transfer_moves_the_coarse_operators_by_rounding_only`] there:
/// nothing moves at 32³; at 48³ the `f64` levels move within 33.8 / 41.1 /
/// 72.6 / 212.1 `ε` of the row's largest entry, the `f32` ones by
/// quadrature noise only.  Release only (`cargo test --release --test
/// multigrid -- --ignored`): the CSR chain it compares with takes minutes
/// in the debug profile.
#[test]
#[ignore]
fn lattice_products_carry_the_bits_of_galerkin_coarse_at_32_and_48() {
    for kind in [ScenarioKind::LidDrivenCavity, ScenarioKind::TaylorGreenVortex] {
        for resolution in [32, 48] {
            let counts =
                assert_the_lattice_chain_is_the_csr_chain(&Scenario::new(kind, resolution));
            assert_uniform_counts(&counts, resolution);
        }
    }
    let cavity = ScenarioKind::LidDrivenCavity;
    assert!(coarse_movement(cavity, 32).iter().all(|&m| m == [0.0; 2]), "32³ moved");
    let moved = coarse_movement(cavity, 48);
    assert_eq!(moved.len(), 4);
    for (level, ([wide, narrow], bound)) in moved.iter().zip([33.8, 41.1, 72.6, 212.1]).enumerate()
    {
        assert!(*wide > 0.0 && *wide <= bound, "48³ level {}: {wide} ε", level + 1);
        assert!(*narrow < 1e-6, "48³ level {}: {narrow} ε_f32", level + 1);
    }
}

/// Per coarse level, how far the hierarchy moved when its transfers went
/// from the generator's coordinates to the exact trilinear stencil: the
/// largest `|Δ|` of an `f64` entry in `ε` of its row's largest entry, and
/// the same of the entries rounded to the cycle's `f32`, in `f32`'s `ε`.
fn coarse_movement(kind: ScenarioKind, resolution: usize) -> Vec<[f64; 2]> {
    let scenario = Scenario::new(kind, resolution);
    let mesh = scenario.build_mesh();
    let options = MultigridOptions::default();
    let coordinate = pressure_interpolations(&mesh, &options).expect("a box lattice");
    let laplacian = pressure_laplacian(&mesh, &scenario.pressure_pins(&mesh));
    let chain = mesh.lattice().expect("a box lattice").coarsening_chain(options.max_coarse_nodes);
    let (mut old, mut new) = (laplacian.clone(), laplacian);
    let mut moved = Vec::new();
    for (p, lattice) in coordinate.iter().zip(&chain[1..]) {
        old = galerkin_coarse(&old, p);
        new = galerkin_coarse(&new, &Interpolation::trilinear(lattice.points()));
        assert_eq!(old.row_ptr(), new.row_ptr(), "{resolution}: the same pattern");
        assert_eq!(old.col_idx(), new.col_idx(), "{resolution}: the same pattern");
        let mut worst = [0.0f64; 2];
        for row in 0..new.dim() {
            let entries = new.row_ptr()[row]..new.row_ptr()[row + 1];
            let scale = new.values()[entries.clone()].iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (a, b) in old.values()[entries.clone()].iter().zip(&new.values()[entries]) {
                let narrow = f64::from(*a as f32) - f64::from(*b as f32);
                worst[0] = worst[0].max((a - b).abs() / (scale * f64::EPSILON));
                worst[1] = worst[1].max(narrow.abs() / (scale * f64::from(f32::EPSILON)));
            }
        }
        moved.push(worst);
    }
    moved
}

/// Where the generator's spacing is no power of two its coordinates
/// round, and so did the coordinate `P` the hierarchy interpolated with
/// until the stepper took the exact stencil: the coarse `f64` operators
/// move by that rounding, more with depth (each level is a product of the
/// one above).  Pinned per level of the cavity, in `ε` of the row's largest
/// entry: `f64` within 4.51 / 7.32 at 12³ and 25.9 / 21.4 / 12.94 at 24³.
/// In the cycle's `f32` only the quadrature noise that stands for the
/// trilinear Laplacian's exact zeros moves (below 10⁻⁶ `ε_f32` of the row),
/// so the V-cycle of these boxes keeps its bits.  At 16³ the coordinate
/// weights are exact already and nothing moves.
#[test]
fn the_exact_transfer_moves_the_coarse_operators_by_rounding_only() {
    let cavity = ScenarioKind::LidDrivenCavity;
    let bounds: [(usize, &[f64]); 2] = [(12, &[4.51, 7.32]), (24, &[25.9, 21.4, 12.94])];
    for (resolution, bound) in bounds {
        let moved = coarse_movement(cavity, resolution);
        assert_eq!(moved.len(), bound.len(), "{resolution}³");
        for (level, ([wide, narrow], bound)) in moved.iter().zip(bound).enumerate() {
            assert!(*wide > 0.0 && wide <= bound, "{resolution}³ level {}: {wide} ε", level + 1);
            assert!(*narrow < 1e-6, "{resolution}³ level {}: {narrow} ε_f32", level + 1);
        }
    }
    assert!(coarse_movement(cavity, 16).iter().all(|&m| m == [0.0; 2]), "16³ moved");
}
