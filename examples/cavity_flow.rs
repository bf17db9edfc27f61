//! Lid-driven cavity flow — now a thin wrapper over the fractional-step
//! driver: every step runs predictor (colored parallel assembly + pooled
//! batched momentum solve), pressure-Poisson projection and velocity
//! correction on **one** shared worker pool, so the pressure field evolves
//! instead of staying the zero spectator it was when this example carried
//! its own hand-rolled momentum-only loop.
//!
//! The `order` argument still exercises the renumbering pipeline: `orig`
//! keeps the generator's (already bandwidth-optimal) node order, `scrambled`
//! emulates the arbitrary numbering of an imported unstructured mesh, and
//! `rcm` applies reverse Cuthill–McKee on top of the scramble.  The driver
//! runs on the renumbered mesh unchanged ([`Stepper::with_mesh`]).
//!
//! ```text
//! cargo run --release --example cavity_flow -- [steps] [threads] [orig|scrambled|rcm]
//! ```

use alya_longvec::prelude::*;
use lv_driver::{Scenario, ScenarioKind, Stepper, StepperConfig};
use lv_mesh::renumber::{reverse_cuthill_mckee, LocalityReport, NodePermutation};

fn main() {
    let steps: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(5);
    let threads: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(1).max(1);
    let order = match std::env::args().nth(3) {
        None => "orig".to_string(),
        Some(arg) => match arg.as_str() {
            "orig" | "scrambled" | "rcm" => arg,
            other => {
                eprintln!(
                    "unknown node order '{other}' (expected orig|scrambled|rcm), using 'orig'"
                );
                "orig".to_string()
            }
        },
    };

    let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 8);
    let config = StepperConfig::default();
    let mut mesh = scenario.build_mesh();
    match order.as_str() {
        "scrambled" | "rcm" => {
            // Emulate an imported unstructured mesh: scramble the generator's
            // lexicographic order (which is already bandwidth-optimal).
            let scramble = NodePermutation::scrambled(mesh.num_nodes(), 0x5eed);
            mesh = mesh.renumber_nodes(&scramble);
            let before = LocalityReport::measure(&mesh, config.vector_size);
            if order == "rcm" {
                mesh = mesh.renumber_nodes(&reverse_cuthill_mckee(&mesh));
                let after = LocalityReport::measure(&mesh, config.vector_size);
                println!(
                    "rcm renumbering: bandwidth {} -> {} ({:.1}x), mean chunk gather span \
                     {:.0} -> {:.0}",
                    before.bandwidth,
                    after.bandwidth,
                    before.bandwidth as f64 / after.bandwidth as f64,
                    before.mean_chunk_span,
                    after.mean_chunk_span
                );
            } else {
                println!(
                    "scrambled node order: bandwidth {}, mean chunk gather span {:.0}",
                    before.bandwidth, before.mean_chunk_span
                );
            }
        }
        _ => {}
    }

    println!(
        "lid-driven cavity: {} elements, nu = {}, {} steps, {} worker thread(s), {} node order",
        mesh.num_elements(),
        scenario.viscosity,
        steps,
        threads,
        order
    );
    // One pool for the whole run: assembly, momentum solve, Poisson solve
    // and correction of every step share these workers, and the trajectory
    // is bitwise identical for every thread count.
    let team = Team::new(threads);
    let mut stepper = Stepper::with_mesh(scenario, config, mesh);
    // The node order decides both operators: a scrambled or RCM order keeps
    // the CSR momentum matrix and loses the multigrid hierarchy.
    println!("{}", stepper.describe_operators());
    println!(
        "{:>5} {:>9} {:>8} {:>8} {:>12} {:>12} {:>16} {:>12}",
        "step", "dt", "mom-it", "poi-it", "div(pre)", "div(post)", "kinetic energy", "max |p|"
    );
    for _ in 0..steps {
        // Recovering steps: a transient solver failure rolls back and
        // retries with Δt halved; only an exhausted budget ends the run,
        // non-zero and with the phase/step/residual diagnostic, not a panic.
        let report = match stepper.step_recovering_on(&team) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "{:>5} {:>9.5} {:>8} {:>8} {:>12.3e} {:>12.3e} {:>16.6} {:>12.4}",
            report.step,
            report.dt,
            report.momentum_iterations,
            report.poisson_iterations,
            report.divergence_pre,
            report.divergence_post,
            report.kinetic_energy,
            stepper.state().pressure.max_abs()
        );
    }

    println!(
        "\nfinal maximum velocity magnitude: {:.4} (t = {:.3})",
        stepper.state().velocity.max_magnitude(),
        stepper.state().time
    );
    println!(
        "(the lid drives a recirculating vortex; interior velocities stay below the lid speed, \
         and the projection keeps the discrete divergence in check)"
    );
}
