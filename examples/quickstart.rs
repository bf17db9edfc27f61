//! Quickstart: assemble the Navier–Stokes system on a small cavity mesh,
//! solve one momentum system, then simulate the same assembly kernel on the
//! RISC-V VEC prototype model and print the Section 2.2 vectorization
//! metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use alya_longvec::prelude::*;
use lv_mesh::Vec3;
use lv_sim::counters::PhaseId;

fn main() {
    // ---------------------------------------------------------------- mesh
    let mesh = BoxMeshBuilder::new(10, 10, 10).lid_driven_cavity().with_jitter(0.1, 7).build();
    println!(
        "mesh: {} hexahedral elements, {} nodes, volume {:.3}",
        mesh.num_elements(),
        mesh.num_nodes(),
        mesh.total_volume()
    );

    // ------------------------------------------------------ numeric assembly
    let config = KernelConfig::new(240, OptLevel::Vec1);
    let assembly = NastinAssembly::new(mesh.clone(), config);
    let mut velocity = VectorField::taylor_green(&mesh);
    velocity.apply_boundary_conditions(&mesh, Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO);
    let pressure = Field::zeros(&mesh);

    let mut output = assembly.assemble(&velocity, &pressure);
    assembly.apply_dirichlet(&mut output.matrix, &mut output.rhs);
    println!(
        "assembly: {} chunks of VECTOR_SIZE={}, {:.1} MFLOP, matrix nnz = {}",
        output.stats.chunks,
        config.vector_size,
        output.stats.flops / 1e6,
        output.matrix.nnz()
    );

    // Solve the x-momentum increment system.
    let n = mesh.num_nodes();
    let bx: Vec<f64> = (0..n).map(|i| output.rhs[3 * i]).collect();
    let solve = bicgstab_on(&Team::new(1), &output.matrix, &bx, &SolveOptions::default())
        .expect("momentum system must be solvable");
    println!(
        "solver: BiCGSTAB converged in {} iterations (residual {:.2e})",
        solve.iterations,
        solve.final_residual()
    );

    // --------------------------------------------------- simulated execution
    println!("\nsimulated execution on the RISC-V VEC prototype (VECTOR_SIZE = 240):");
    let app = SimulatedMiniApp::new(&mesh, config);
    let scalar = app.run(Platform::riscv_vec(), false);
    let vector = app.run(Platform::riscv_vec(), true);
    let metrics = RunMetrics::from_counters(&vector.counters, Platform::riscv_vec().vlmax);

    println!(
        "  scalar: {:>14.0} cycles   vectorized: {:>14.0} cycles   speed-up: {:.2}x",
        scalar.total_cycles(),
        vector.total_cycles(),
        vector.speedup_over(&scalar)
    );
    println!("  per-phase metrics (vectorized run):");
    println!("  {:>7} {:>10} {:>8} {:>8} {:>8} {:>8}", "phase", "cycles%", "Mv", "Av", "AVL", "Ev");
    for p in &metrics.phases {
        println!(
            "  {:>7} {:>9.1}% {:>8.2} {:>8.2} {:>8.1} {:>8.2}",
            p.phase,
            100.0 * p.cycle_share,
            p.vector_mix,
            p.vector_activity,
            p.avg_vector_length,
            p.occupancy
        );
    }
    let p6 = vector.counters.phase(PhaseId::new(6));
    println!(
        "  phase 6 executed {} vector instructions at vCPI {:.1}",
        p6.vector_instructions,
        p6.vector_cpi()
    );
}
