//! The momentum-increment system of a semi-implicit time step: three
//! component systems sharing one assembled matrix, assembled on the
//! diagonals of the mesh's lattice and solved in one three-column loop.
//!
//! **Born where it is solved.**  Every element of a box lattice in
//! generator order — jittered or not — puts its nodes at the same offsets
//! from its first node, so each element entry `(a, b)` lies on the same
//! `col − row` diagonal in every element ([`lv_mesh::ElementDiagonals`], at
//! most 27 of them).  The matrix is an [`lv_solver::DiaMatrix`] on those
//! diagonals ([`NastinAssembly::new_momentum_matrix`]) that the step seeds,
//! scatters into, takes its right-hand side from, pins and solves on, with
//! no CSR form at any point.  Each entry receives its additions in a fixed
//! order and each row adds its entries in ascending column order from
//! `+0.0`, so the system is bitwise identical for every thread count.
//!
//! The solve is one [`lv_solver::bicgstab3_on`] three-column BiCGSTAB, so
//! one matrix traversal per Krylov iteration serves all three components
//! and each fused BLAS-1 operation pays one fork/join instead of three.
//! Per component the result is bit for bit what
//! [`lv_solver::bicgstab_on`] returns for that component alone (the
//! solver's contract, which a test below re-checks on an assembled system).

use crate::{
    AssemblyStats, ConvectiveGeometry, ElementWorkspace, NastinAssembly, PressureOperators,
};
use lv_mesh::{ElementDiagonals, Field, MeshTopology, VectorField};
use lv_runtime::Team;
use lv_solver::dia::MAX_DIAGONALS;
use lv_solver::{
    bicgstab3_on, DiaMatrix, LinearOperator, MultiVector, SolveOptions, SolverError, NRHS,
};

/// The diagonal table the momentum matrix of a mesh with `topology` is
/// assembled through, when its elements share one of at most
/// [`MAX_DIAGONALS`] offsets.
pub(crate) fn momentum_diagonals(topology: &MeshTopology) -> Option<&ElementDiagonals> {
    topology.element_diagonals().filter(|table| table.offsets().len() <= MAX_DIAGONALS)
}

/// Assembles the momentum-increment system of one semi-implicit time step,
/// `(ν·K + C(u) + (ρ/Δt)·M)·Δu = −(ν·K + C(u))·u − g(p)`, building only
/// what the velocity changes: the stiffness `K` and the consistent mass `M`
/// are resident in `operators` (on `matrix`'s diagonals) and the mesh's
/// inverse Jacobians in `geometry`
/// ([`NastinAssembly::convective_geometry`] of `assembly`), so the element
/// sweep integrates the convection operator `C(u)` alone and derives
/// nothing from the coordinates.  In this order, all on `team`:
///
/// 1. `matrix ← ν·K` ([`PressureOperators::fill_viscous_on`]) — instead of
///    a zero fill; one unit-stride stream;
/// 2. `matrix += C(u)` ([`NastinAssembly::assemble_convective_into_on`]),
///    the colored sweep;
/// 3. `rhs ← −matrix·u − g(p)`, then `matrix += (ρ/Δt)·M`
///    ([`PressureOperators::momentum_residual_and_mass_on`]) — the
///    right-hand side before the mass block exists, so `(ρ/Δt)·M·u` is
///    never formed; both in one traversal of each storage block.
///
/// `ν` and `ρ` are `assembly`'s configuration, `Δt` is `dt` (the
/// configuration's Δt is the mini-app's, not read here); nothing is kept
/// from one call to the next, and nothing of `assembly`, `geometry` or
/// `operators` is written, so any number of steppers may share them.  The result is the system
/// [`NastinAssembly::assemble_parallel_into_on`] followed by
/// [`PressureOperators::subtract_weak_gradient_on`] assembles — the paper's
/// eight phases, this function's oracle — in another summation order
/// (equal to a few ε of each row's largest entry, see the tests of
/// [`crate::assembly`]), and bitwise identical for every thread count.
/// Dirichlet rows are the caller's
/// ([`NastinAssembly::apply_dirichlet`]).
///
/// # Panics
/// Panics if `assembly` and `operators` were built on different node graphs
/// or for different meshes, if `matrix` is not on the diagonals `operators`
/// hold `K` and `M` on, if `geometry` is another schedule's, on an
/// explicit-scheme configuration, on a `dt` that is not positive, or on
/// mismatched array lengths.
#[allow(clippy::too_many_arguments)]
pub fn assemble_momentum_on(
    team: &Team,
    assembly: &NastinAssembly,
    geometry: &ConvectiveGeometry,
    operators: &PressureOperators,
    dt: f64,
    velocity: &VectorField,
    pressure: &Field,
    matrix: &mut DiaMatrix,
    rhs: &mut [f64],
    workspaces: &mut [ElementWorkspace],
) -> AssemblyStats {
    let config = assembly.config();
    operators.fill_viscous_on(team, config.viscosity, matrix);
    let stats = assembly
        .assemble_convective_into_on(team, geometry, dt, velocity, pressure, matrix, workspaces);
    let mass_scale = config.density / dt;
    operators.momentum_residual_and_mass_on(
        team,
        matrix,
        velocity,
        pressure.as_slice(),
        mass_scale,
        rhs,
    );
    stats
}

/// Result of one momentum solve (all three components).
#[derive(Debug, Clone)]
pub struct MomentumSolve {
    /// The velocity increment, node-interleaved (`increment[NRHS*node + c]`
    /// — the storage layout of a `lv_mesh::VectorField`).
    pub increment: Vec<f64>,
    /// Krylov iterations of each component solve.
    pub iterations: [usize; NRHS],
    /// Worst final relative residual across the components.
    pub worst_residual: f64,
}

impl MomentumSolve {
    /// Total Krylov iterations across the three components.
    pub fn total_iterations(&self) -> usize {
        self.iterations.iter().sum()
    }
}

/// Solves the three momentum-increment systems on the caller's worker team
/// in one three-column BiCGSTAB loop.
///
/// `operator` is the assembled momentum matrix (Dirichlet rows applied);
/// `rhs` is the assembled node-interleaved right-hand side
/// (`rhs[NRHS*node + c]`, Dirichlet rows already applied); the returned
/// increment uses the same layout.
///
/// # Errors
/// Returns the first component's solver error if any component fails to
/// converge or breaks down.
pub fn solve_momentum_on(
    team: &Team,
    operator: &dyn LinearOperator,
    rhs: &[f64],
    options: &SolveOptions,
) -> Result<MomentumSolve, SolverError> {
    let n = operator.dim();
    assert_eq!(rhs.len(), NRHS * n, "rhs must be the node-interleaved 3-component layout");
    let mut increment = vec![0.0; NRHS * n];
    let mut iterations = [0usize; NRHS];
    let mut worst_residual = 0.0f64;
    let b = MultiVector::from_interleaved(rhs);
    for (c, outcome) in bicgstab3_on(team, operator, &b, options).into_iter().enumerate() {
        let solve = outcome?;
        iterations[c] = solve.iterations;
        worst_residual = worst_residual.max(solve.final_residual());
        for (node, &du) in solve.solution.iter().enumerate() {
            increment[NRHS * node + c] = du;
        }
    }
    Ok(MomentumSolve { increment, iterations, worst_residual })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::NastinAssembly;
    use crate::config::{KernelConfig, OptLevel};
    use lv_mesh::structured::BoxMeshBuilder;
    use lv_mesh::{Field, Vec3, VectorField};
    use lv_solver::{bicgstab_on, CsrMatrix, DiaMatrix};

    /// The Dirichlet-applied momentum system of a jittered `n³` cavity.
    fn assembled_system(n: usize) -> (CsrMatrix, Vec<f64>) {
        let mesh = BoxMeshBuilder::new(n, n, n).lid_driven_cavity().with_jitter(0.1, 9).build();
        let asm = NastinAssembly::new(mesh.clone(), KernelConfig::new(32, OptLevel::Vec1));
        let mut velocity = VectorField::taylor_green(&mesh);
        velocity.apply_boundary_conditions(&mesh, Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO);
        let pressure = Field::from_fn(&mesh, |p| p.x * p.y);
        let mut out = asm.assemble(&velocity, &pressure);
        asm.apply_dirichlet(&mut out.matrix, &mut out.rhs);
        (out.matrix, out.rhs)
    }

    /// The three-column solve against three one-column solves of the same
    /// assembled system: same increments, iteration counts and residuals.
    #[test]
    fn batched_and_sequential_paths_are_bitwise_identical() {
        let (matrix, rhs) = assembled_system(4);
        let n = matrix.dim();
        let options = SolveOptions::default();
        for threads in [1usize, 2] {
            let team = Team::new(threads);
            let bat = solve_momentum_on(&team, &matrix, &rhs, &options).expect("momentum solve");
            let mut worst = 0.0f64;
            for c in 0..NRHS {
                let b: Vec<f64> = (0..n).map(|i| rhs[NRHS * i + c]).collect();
                let seq = bicgstab_on(&team, &matrix, &b, &options).expect("one-column solve");
                assert_eq!(seq.iterations, bat.iterations[c], "threads={threads} c={c}");
                worst = worst.max(seq.final_residual());
                for (node, du) in seq.solution.iter().enumerate() {
                    let got = bat.increment[NRHS * node + c];
                    assert_eq!(du.to_bits(), got.to_bits(), "threads={threads} c={c}");
                }
            }
            assert_eq!(worst.to_bits(), bat.worst_residual.to_bits(), "threads={threads}");
            assert!(bat.total_iterations() > 0);
            assert!(bat.worst_residual < 1e-8);
        }
    }

    /// The same solve on the assembled CSR matrix and on its diagonal
    /// storage, below and above the row count where the teams fork:
    /// increments, iteration counts and residuals agree to the bit.
    #[test]
    fn csr_and_diagonal_storage_give_the_same_solve_bitwise() {
        for n in [4usize, 11] {
            let (matrix, rhs) = assembled_system(n);
            let dia: DiaMatrix = DiaMatrix::from_csr(&matrix).expect("a generator-ordered box");
            assert_eq!(dia.offsets().len(), 27);
            let options = SolveOptions::default();
            for threads in [1usize, 2] {
                let team = Team::new(threads);
                let on_csr = solve_momentum_on(&team, &matrix, &rhs, &options).expect("CSR");
                let on_dia = solve_momentum_on(&team, &dia, &rhs, &options).expect("diagonals");
                let what = format!("{n}³ on {threads} thread(s)");
                assert_eq!(on_dia.iterations, on_csr.iterations, "{what}");
                assert!(on_csr.total_iterations() > 0, "{what}");
                assert_eq!(
                    on_dia.worst_residual.to_bits(),
                    on_csr.worst_residual.to_bits(),
                    "{what}"
                );
                for (i, (a, b)) in on_dia.increment.iter().zip(&on_csr.increment).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}: increment entry {i}");
                }
            }
        }
    }
}
