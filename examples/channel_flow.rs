//! Channel flow: an inflow/outflow configuration (the external-aerodynamics
//! style workload that motivates the paper's introduction).  The time loop
//! is a thin wrapper over the fractional-step driver — predictor, pressure
//! Poisson (pinned on the outflow plane) and correction on one shared pool —
//! followed by the simulated cross-platform view of the mini-app.
//!
//! ```text
//! cargo run --release --example channel_flow -- [n] [steps] [threads]
//! ```

use alya_longvec::prelude::*;
use lv_driver::{Scenario, ScenarioKind, Stepper, StepperConfig};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(6);
    let steps: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(3);
    let threads: usize = std::env::args().nth(3).and_then(|s| s.parse().ok()).unwrap_or(1).max(1);

    let scenario = Scenario::new(ScenarioKind::Channel, n);
    let mut stepper = Stepper::new(scenario.clone(), StepperConfig::default());
    println!(
        "channel mesh: {} elements ({}x{}x{} cross-section blocks), {} steps, \
         {} worker thread(s)",
        stepper.mesh().num_elements(),
        4 * n,
        n,
        n,
        steps,
        threads
    );
    println!("{}", stepper.describe_operators());

    // ------------------------------------------------ fractional-step run
    // One shared pool drives assembly, momentum solve, Poisson projection
    // and correction; pressure is pinned to zero on the outflow plane.
    let team = Team::new(threads);
    println!(
        "{:>5} {:>9} {:>8} {:>8} {:>12} {:>12} {:>16}",
        "step", "dt", "mom-it", "poi-it", "div(pre)", "div(post)", "kinetic energy"
    );
    for _ in 0..steps {
        // Recovering steps: transient failures roll back and retry with Δt
        // halved; an exhausted budget exits non-zero with the structured
        // phase/step/residual diagnostic instead of panicking.
        let report = match stepper.step_recovering_on(&team) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "{:>5} {:>9.5} {:>8} {:>8} {:>12.3e} {:>12.3e} {:>16.6}",
            report.step,
            report.dt,
            report.momentum_iterations,
            report.poisson_iterations,
            report.divergence_pre,
            report.divergence_post,
            report.kinetic_energy
        );
    }
    println!(
        "after {} steps: t = {:.3}, max |u| = {:.4}, max |p| = {:.4}\n",
        steps,
        stepper.state().time,
        stepper.state().velocity.max_magnitude(),
        stepper.state().pressure.max_abs()
    );

    // ----------------------------------------- simulated cross-platform view
    let kernel_config = KernelConfig::new(240, OptLevel::Vec1)
        .with_viscosity(scenario.viscosity)
        .with_density(scenario.density);
    println!("simulated mini-app on the three platforms (scalar vs auto-vectorized, VEC1 code):");
    println!(
        "{:>15} {:>16} {:>16} {:>10} {:>8} {:>8}",
        "platform", "scalar cycles", "vector cycles", "speed-up", "Mv", "AVL"
    );
    let app = SimulatedMiniApp::new(stepper.mesh(), kernel_config);
    for kind in PlatformKind::ALL {
        let platform = Platform::from_kind(kind);
        let scalar = app.run(platform, false);
        let vector = app.run(platform, true);
        let m = RunMetrics::from_counters(&vector.counters, platform.vlmax);
        println!(
            "{:>15} {:>16.0} {:>16.0} {:>9.2}x {:>8.2} {:>8.1}",
            kind.name(),
            scalar.total_cycles(),
            vector.total_cycles(),
            vector.speedup_over(&scalar),
            m.overall.vector_mix,
            m.overall.avg_vector_length,
        );
    }
    println!(
        "\nlong-vector machines reach high AVL; AVX-512 is capped at 8 elements per instruction"
    );
}
