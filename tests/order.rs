//! Orders of accuracy of the fractional-step scheme, measured against the
//! Taylor–Green vortex's closed form (`Stepper::analytic_velocity_error`,
//! the continuous L2 velocity error):
//!
//! * **Time** — 8³ to t = 0.1 at fixed Δt 0.01, 0.005, 0.0025 and 0.00125.
//!   The mesh is the same in every run, so the space error cancels from the
//!   difference of two errors, and successive differences shrink by `2^p`
//!   for a scheme of order `p` in time.  The Chorin splitting is first order.
//! * **Space** — 8³, 12³ and 16³ to t = 0.02 at Δt 0.005 and 0.0025.  The
//!   time error is removed by Richardson extrapolation, `2·e(Δt/2) − e(Δt)`,
//!   exact for a first-order time error; the observed order between two
//!   meshes is `ln(E_coarse/E_fine) / ln(n_fine/n_coarse)`.  Q1 elements
//!   give 2 in the limit.  The order reads lower the longer the vortex
//!   decays (1.86 and 1.84 at t = 0.1, 1.96 at t = 0.02); the short run
//!   keeps the file inside ~20 s of the debug build.
//!
//! The bands sit around the values measured when the tests were written,
//! each stated beside its assertion; a change to the scheme that moves an
//! order outside its band fails here.  The values are the same to four
//! digits at a 1e-10 and at a 1e-6 solver tolerance.

use alya_longvec::prelude::*;

/// L2 velocity error of the `n³` Taylor–Green vortex at `final_time`,
/// stepped at the fixed `dt` with the default solver settings.
fn taylor_green_error(team: &Team, n: usize, dt: f64, final_time: f64) -> f64 {
    let steps = (final_time / dt).round() as usize;
    let scenario = Scenario::new(ScenarioKind::TaylorGreenVortex, n);
    let mut stepper = Stepper::new(scenario, StepperConfig::default().with_fixed_dt(dt));
    let reports = stepper.run_on(team, steps).expect("Taylor–Green steps");
    assert!(reports.iter().all(|r| r.poisson_fallbacks == 0));
    assert!((stepper.state().time - final_time).abs() < 1e-12, "t = {}", stepper.state().time);
    stepper.analytic_velocity_error().expect("Taylor–Green has a closed form")
}

#[test]
fn the_time_error_is_first_order() {
    let team = Team::new(1);
    let errors: Vec<f64> = [0.01, 0.005, 0.0025, 0.00125]
        .iter()
        .map(|&dt| taylor_green_error(&team, 8, dt, 0.1))
        .collect();
    // Halving Δt shrinks the error: the time error adds to the space error.
    assert!(errors.windows(2).all(|w| w[1] < w[0]), "{errors:?}");
    let differences: Vec<f64> = errors.windows(2).map(|w| w[0] - w[1]).collect();
    for pair in differences.windows(2) {
        // Measured 1.99 and 1.98: first order (second order would read 4).
        let ratio = pair[0] / pair[1];
        assert!((1.9..=2.1).contains(&ratio), "ratio {ratio} of {differences:?} ({errors:?})");
    }
}

#[test]
fn the_space_error_converges_at_nearly_second_order() {
    let team = Team::new(1);
    let resolutions = [8usize, 12, 16];
    let extrapolated: Vec<f64> = resolutions
        .iter()
        .map(|&n| {
            2.0 * taylor_green_error(&team, n, 0.0025, 0.02)
                - taylor_green_error(&team, n, 0.005, 0.02)
        })
        .collect();
    for (pair, errors) in resolutions.windows(2).zip(extrapolated.windows(2)) {
        // Measured 1.96 (8³ → 12³) and 1.96 (12³ → 16³).
        let order = (errors[0] / errors[1]).ln() / (pair[1] as f64 / pair[0] as f64).ln();
        assert!(
            (1.9..=2.0).contains(&order),
            "order {order} between {}³ and {}³ ({extrapolated:?})",
            pair[0],
            pair[1]
        );
    }
}
