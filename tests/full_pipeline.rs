//! Integration test: the complete CFD pipeline across crates — mesh
//! generation, Nastin assembly, boundary conditions, Krylov solve, and a
//! velocity update — the stages `simulate cavity` runs through the
//! fractional-step driver, checked for physical sanity.

use alya_longvec::prelude::*;
use lv_mesh::Vec3;

fn kinetic_energy(v: &VectorField) -> f64 {
    (0..v.num_nodes()).map(|i| 0.5 * v.get(i).norm_sq()).sum()
}

#[test]
fn cavity_time_steps_converge_and_stay_bounded() {
    let mesh = BoxMeshBuilder::new(6, 6, 6).lid_driven_cavity().build();
    let config = KernelConfig::new(64, OptLevel::Vec1).with_viscosity(5e-2).with_dt(0.05);
    let assembly = NastinAssembly::new(mesh.clone(), config);

    let mut velocity = VectorField::zeros(&mesh);
    velocity.apply_boundary_conditions(&mesh, Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO);
    let pressure = Field::zeros(&mesh);

    let mut matrix = assembly.new_matrix();
    let mut rhs = vec![0.0; 3 * mesh.num_nodes()];
    let mut ws = lv_kernel::ElementWorkspace::new(config.vector_size);
    let mut energies = Vec::new();

    for _ in 0..3 {
        assembly.assemble_into_slices(&velocity, &pressure, &mut matrix, &mut rhs, &mut ws);
        assembly.apply_dirichlet(&mut matrix, &mut rhs);
        let n = mesh.num_nodes();
        let mut increment = VectorField::zeros(&mesh);
        for dim in 0..3 {
            let b: Vec<f64> = (0..n).map(|i| rhs[3 * i + dim]).collect();
            let solve = bicgstab_on(&Team::new(1), &matrix, &b, &SolveOptions::default())
                .expect("momentum solve must converge");
            assert!(solve.final_residual() < 1e-8);
            for (node, &du) in solve.solution.iter().enumerate() {
                let mut v = increment.get(node);
                v[dim] = du;
                increment.set(node, v);
            }
        }
        velocity.axpy(1.0, &increment);
        velocity.apply_boundary_conditions(&mesh, Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO);
        energies.push(kinetic_energy(&velocity));
    }

    // The flow must stay bounded (no blow-up) and develop some motion in the
    // interior driven by the lid.
    assert!(velocity.max_magnitude() <= 1.5, "velocity blew up: {}", velocity.max_magnitude());
    assert!(energies.iter().all(|e| e.is_finite()));
    let interior_motion: f64 = (0..mesh.num_nodes())
        .filter(|&n| mesh.boundary_tag(n) == lv_mesh::BoundaryTag::Interior)
        .map(|n| velocity.get(n).norm())
        .sum();
    assert!(interior_motion > 0.0, "the lid must drive interior flow");
}

#[test]
fn assembled_matrix_has_mass_term_scaling() {
    // Halving the time step doubles the mass contribution, so the matrix
    // diagonal must grow.
    let mesh = BoxMeshBuilder::new(4, 4, 4).build();
    let velocity = VectorField::taylor_green(&mesh);
    let pressure = Field::zeros(&mesh);

    let coarse =
        NastinAssembly::new(mesh.clone(), KernelConfig::new(32, OptLevel::Vec1).with_dt(0.1))
            .assemble(&velocity, &pressure);
    let fine =
        NastinAssembly::new(mesh.clone(), KernelConfig::new(32, OptLevel::Vec1).with_dt(0.05))
            .assemble(&velocity, &pressure);

    let sum_diag = |m: &CsrMatrix| -> f64 { m.diagonal().iter().sum() };
    assert!(sum_diag(&fine.matrix) > sum_diag(&coarse.matrix));
}

#[test]
fn channel_mesh_supports_the_same_pipeline() {
    let mesh = ChannelMeshBuilder::new(4, 3).build();
    let config = KernelConfig::new(48, OptLevel::IVec2);
    let assembly = NastinAssembly::new(mesh.clone(), config);
    let mut velocity = VectorField::constant(&mesh, Vec3::new(1.0, 0.0, 0.0));
    velocity.apply_boundary_conditions(&mesh, Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
    let pressure = Field::from_fn(&mesh, |p| 1.0 - p.x / 3.0);
    let mut out = assembly.assemble(&velocity, &pressure);
    assembly.apply_dirichlet(&mut out.matrix, &mut out.rhs);
    assert!(out.rhs.iter().all(|v| v.is_finite()));
    assert_eq!(out.stats.elements, mesh.num_elements());
    let b: Vec<f64> = (0..mesh.num_nodes()).map(|i| out.rhs[3 * i]).collect();
    let solve = bicgstab_on(&Team::new(1), &out.matrix, &b, &SolveOptions::default()).unwrap();
    assert!(solve.final_residual() < 1e-8);
}
