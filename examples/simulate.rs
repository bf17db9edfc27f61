//! The scenario-driven simulation entry point: select any registered flow,
//! run it through the fractional-step driver (predictor → pressure Poisson →
//! correction on one shared worker pool), and optionally checkpoint/restart.
//!
//! ```text
//! cargo run --release --example simulate -- <scenario> [n] [steps] [threads] [flags]
//! cargo run --release --example simulate -- list
//! ```
//!
//! Scenarios: `cavity`, `channel`, `taylor-green`, `shear-layer` (see
//! `list`).  Flags:
//!
//! * `--checkpoint <path>` — write a checkpoint ring generation after the
//!   last step (slots `<path>.0` … `<path>.K-1`, newest first);
//! * `--every <k>` — additionally checkpoint every `k` steps;
//! * `--ring <K>` — checkpoint ring depth, at least 1 (default 3);
//! * `--restart <path>` — resume from the newest loadable generation of the
//!   `<path>.*` ring (corrupt newer generations are skipped and reported) —
//!   bitwise identical to the uninterrupted run, the driver's determinism
//!   contract;
//! * `--inject <spec>` — deterministic fault injection, e.g.
//!   `momentum-breakdown@3,poison-rhs@5,ckpt-flip@6,seed=42` (kinds:
//!   `momentum-breakdown`, `poisson-breakdown`, `mg-breakdown`,
//!   `poison-rhs`, `ckpt-flip`, `ckpt-truncate`, `stall`, `panic` — the
//!   last two target the `serve` supervision layer: here a `stall` only
//!   slows the step and a `panic` aborts); the stepper holds the one plan
//!   and fires the checkpoint faults on the generation it just wrote;
//! * `--max-retries <r>` — Δt-backoff retry budget per step (default 3);
//! * `--fixed-dt <dt>` — fixed time step (positive and finite) instead of
//!   the CFL controller;
//! * `--trace <path>` — run with the `lv-trace` telemetry subsystem armed:
//!   spans over every phase, solver iteration and checkpoint I/O land in
//!   per-rank buffers, the end-of-run roofline summary prints to stdout and
//!   the event log is written to `<path>`;
//! * `--trace-format <jsonl|chrome>` — event-log format: the replayable
//!   line-JSON log (default) or a Chrome-tracing document for
//!   `chrome://tracing` / <https://ui.perfetto.dev>; needs `--trace`.
//!
//! `taylor-green` with `n = 0` (the default) runs the 8³ → 12³ → 16³
//! resolution sweep and reports the analytic L2 velocity error at a common
//! final time — the error must decrease monotonically with resolution.  The
//! sweep writes no checkpoint, so it refuses `--checkpoint` and `--every`.
//!
//! Any failure (unreadable checkpoint, exhausted retry budget, solver
//! breakdown past recovery) exits non-zero with a diagnostic naming the
//! phase, step and residual — never a panic, a closed stdout included.
//! Exit codes are distinct per failure class so supervisors can react
//! without parsing stderr:
//!
//! | code | meaning                                                        |
//! |------|----------------------------------------------------------------|
//! | 0    | run completed (all contracts held)                             |
//! | 1    | generic I/O or contract failure (trace/checkpoint write, sweep)|
//! | 2    | invalid CLI (unknown scenario/flag/spec, missing or unparsable |
//! |      | value, zero threads, a Δt that is not positive and finite,     |
//! |      | extra positional argument; parsed by                           |
//! |      | `alya_longvec::cli::Simulate`)                                 |
//! | 3    | Δt-retry budget exhausted / unrecoverable solver breakdown     |
//! | 4    | corrupt or mismatched restart checkpoint (`InvalidData`)       |

use alya_longvec::cli::{CliError, Simulate, SimulateArgs, TraceFormat};
use alya_longvec::prelude::*;
use alya_longvec::say;
use lv_driver::{CheckpointRing, Discretization, Scenario, Stepper, StepperConfig};
use std::sync::Arc;

fn print_registry() {
    say!("registered scenarios (cargo run --release --example simulate -- <name> ...):\n");
    for scenario in Scenario::registry() {
        say!("  {:<14} {}", scenario.kind.name(), scenario.kind.describe());
    }
    say!("\nusage: simulate <scenario> [n] [steps] [threads] [--checkpoint p] [--every k]");
    say!("       [--ring K] [--restart p] [--fixed-dt dt] [--inject spec] [--max-retries r]");
    say!("       [--trace p] [--trace-format jsonl|chrome]");
}

/// Builds the worker team: traced (per-rank event buffers armed) when
/// `--trace` asked for telemetry, plain otherwise.
fn make_team(cli: &SimulateArgs) -> Team {
    if cli.trace.is_some() {
        Team::with_trace(cli.threads, TraceConfig::default())
    } else {
        Team::new(cli.threads)
    }
}

/// Prints the roofline summary and writes the event log of a traced run.
fn finish_trace(team: &mut Team, cli: &SimulateArgs) -> Result<(), String> {
    let Some(path) = &cli.trace else { return Ok(()) };
    let trace = team.trace_mut().expect("--trace armed the team's trace");
    let summary = RunSummary::from_trace(trace);
    say!("\n{}", summary.to_text());
    let (text, format) = match cli.trace_format {
        TraceFormat::Jsonl => (trace.write_jsonl(), "jsonl"),
        TraceFormat::Chrome => (trace.write_chrome(), "chrome"),
    };
    std::fs::write(path, text).map_err(|e| format!("writing trace to {path} failed: {e}"))?;
    say!("trace ({format}) -> {path}");
    Ok(())
}

fn stepper_config(cli: &SimulateArgs) -> StepperConfig {
    let mut config = StepperConfig::default().with_max_dt_retries(cli.max_retries);
    if let Some(dt) = cli.fixed_dt {
        config = config.with_fixed_dt(dt);
    }
    if let Some(plan) = &cli.inject {
        config = config.with_fault_plan(plan.clone());
    }
    config
}

/// Writes a checkpoint ring generation, the stepper's checkpoint fault for
/// the step included.  A traced run records the write as a
/// `driver/checkpoint/save` span.
fn write_checkpoint(
    stepper: &mut Stepper,
    team: &Team,
    ring: &CheckpointRing,
) -> Result<std::path::PathBuf, String> {
    let (newest, fault) = stepper
        .checkpoint_on(team, ring)
        .map_err(|e| format!("checkpoint ring save at {} failed: {e}", ring.slot(0).display()))?;
    if let Some(done) = fault {
        say!("      [inject] {done}");
    }
    Ok(newest)
}

/// The Taylor–Green convergence sweep: same physics and final time on three
/// meshes, reporting the analytic L2 velocity error and the projection's
/// divergence reduction.
fn taylor_green_sweep(cli: &SimulateArgs) -> Result<(), Failure> {
    let mut team = make_team(cli);
    say!(
        "Taylor–Green resolution sweep ({} steps, {} worker thread(s)):\n",
        cli.steps,
        cli.threads
    );
    say!(
        "{:>6} {:>10} {:>12} {:>15} {:>15} {:>8}",
        "mesh",
        "final t",
        "L2 error",
        "‖d‖ predictor",
        "‖d‖ projected",
        "drop"
    );
    let mut errors = Vec::new();
    let mut drops = Vec::new();
    for n in [8usize, 12, 16] {
        let scenario = Scenario::by_name("taylor-green", n).expect("registered");
        // Fixed Δt shared by all resolutions so every run reaches the same
        // final time and the error differences are spatial.
        let config = stepper_config(cli).with_fixed_dt(cli.fixed_dt.unwrap_or(0.01));
        let mut stepper = Stepper::new(scenario, config);
        let reports = stepper.run_recovering_on(&team, cli.steps).map_err(Failure::retries)?;
        // The step-1 divergence pair is the clean predictor-vs-projected
        // comparison: its predictor field is the raw momentum solve of an
        // unprojected state (later steps start already divergence-reduced).
        let first = reports.first().ok_or("taylor-green sweep needs at least one step")?;
        let error = stepper
            .analytic_velocity_error()
            .ok_or("taylor-green must report an analytic error")?;
        let drop = first.divergence_pre / first.divergence_post;
        say!(
            "{:>4}^3 {:>10.4} {:>12.4e} {:>15.4e} {:>15.4e} {:>7.1}x",
            n,
            stepper.state().time,
            error,
            first.divergence_pre,
            first.divergence_post,
            drop
        );
        errors.push(error);
        drops.push(drop);
    }
    let monotone = errors.windows(2).all(|w| w[1] < w[0]);
    say!(
        "\nanalytic L2 velocity error decreases monotonically with resolution: {}",
        if monotone { "yes" } else { "NO — spatial convergence broken" }
    );
    let reduced = drops.iter().skip(1).all(|&d| d >= 10.0);
    say!(
        "projection reduces the predictor's discrete divergence by >=10x (12^3, 16^3): {}",
        if reduced { "yes" } else { "NO — projection broken" }
    );
    if !monotone || !reduced {
        return Err("taylor-green sweep contract violated (see the report above)".into());
    }
    Ok(finish_trace(&mut team, cli)?)
}

/// A run failure carrying its process exit code (see the module docs):
/// `1` generic I/O or contract failure, `3` exhausted Δt-retry budget,
/// `4` corrupt or mismatched checkpoint, `2` a refused command line.
struct Failure {
    code: i32,
    message: String,
}

impl From<CliError> for Failure {
    fn from(error: CliError) -> Failure {
        Failure { code: 2, message: error.to_string() }
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure { code: 1, message }
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Failure {
        Failure { code: 1, message: message.to_string() }
    }
}

impl Failure {
    /// Exhausted per-step retry budget (or unrecoverable solver breakdown).
    fn retries(error: lv_driver::RunError) -> Failure {
        Failure { code: 3, message: error.to_string() }
    }

    /// Classifies a checkpoint error: `InvalidData` (damaged or mismatched
    /// restart data) exits 4, any other I/O failure exits 1.
    fn checkpoint(error: &std::io::Error, message: String) -> Failure {
        let code = if error.kind() == std::io::ErrorKind::InvalidData { 4 } else { 1 };
        Failure { code, message }
    }
}

fn main() {
    if let Err(failure) = run() {
        eprintln!("error: {}", failure.message);
        std::process::exit(failure.code);
    }
}

fn run() -> Result<(), Failure> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Simulate::parse(&args)? {
        Simulate::List => {
            print_registry();
            return Ok(());
        }
        Simulate::Run(cli) => cli,
    };
    if cli.is_sweep() {
        return taylor_green_sweep(&cli);
    }

    let n = if cli.n == 0 { 8 } else { cli.n };
    let scenario = Scenario::new(cli.kind, n);
    let config = stepper_config(&cli);
    let mut team = make_team(&cli);
    let mut stepper = match &cli.restart {
        None => Stepper::new(scenario.clone(), config),
        Some(path) => {
            let ring = CheckpointRing::new(path, cli.ring);
            let shared = Arc::new(Discretization::new(scenario.clone(), config.vector_size));
            let resumed = Stepper::resume_on(&team, &shared, config, &ring).map_err(|e| {
                Failure::checkpoint(&e, format!("no usable checkpoint at {path}: {e}"))
            })?;
            for (slot, why) in &resumed.skipped {
                say!("skipping damaged checkpoint generation {}: {why}", slot.display());
            }
            say!(
                "recovered from ring generation {} ({})",
                resumed.generation,
                resumed.path.display()
            );
            let state = resumed.stepper.state();
            say!(
                "restarting '{}' from {path}: step {}, t = {:.4}",
                scenario.kind.name(),
                state.step,
                state.time
            );
            resumed.stepper
        }
    };
    let ring = cli.checkpoint.as_deref().map(|path| CheckpointRing::new(path, cli.ring));

    let mesh_elements = stepper.mesh().num_elements();
    say!(
        "scenario '{}': {} elements, nu = {}, {} steps, {} worker thread(s)",
        scenario.kind.name(),
        mesh_elements,
        scenario.viscosity,
        cli.steps,
        cli.threads
    );
    say!("{}", stepper.describe_operators());
    say!(
        "{:>5} {:>9} {:>9} {:>7} {:>7} {:>12} {:>12} {:>14}",
        "step",
        "time",
        "dt",
        "mom-it",
        "poi-it",
        "div(pre)",
        "div(post)",
        "kinetic energy"
    );

    let final_step = stepper.state().step + cli.steps as u64;
    let mut final_saved = false;
    for _ in 0..cli.steps {
        let report = stepper.step_recovering_on(&team).map_err(Failure::retries)?;
        say!(
            "{:>5} {:>9.4} {:>9.5} {:>7} {:>7} {:>12.3e} {:>12.3e} {:>14.6}",
            report.step,
            report.time,
            report.dt,
            report.momentum_iterations,
            report.poisson_iterations,
            report.divergence_pre,
            report.divergence_post,
            report.kinetic_energy
        );
        if report.retries > 0 {
            say!(
                "      [recovered] {} rollback(s), step completed at Δt = {:.5}",
                report.retries,
                report.dt
            );
        }
        if report.poisson_fallbacks > 0 {
            say!(
                "      [recovered] {} projection sweep(s) fell back from MG-CG to plain CG",
                report.poisson_fallbacks
            );
        }
        if cli.every > 0 && report.step % cli.every as u64 == 0 {
            if let Some(ring) = &ring {
                let newest = write_checkpoint(&mut stepper, &team, ring)?;
                say!("      checkpoint -> {} (step {})", newest.display(), report.step);
                final_saved = stepper.state().step == final_step;
            }
        }
    }
    if let Some(err) = stepper.analytic_velocity_error() {
        say!("\nanalytic L2 velocity error at t = {:.4}: {err:.4e}", stepper.state().time);
    }
    if let Some(ring) = &ring {
        if !final_saved {
            let newest = write_checkpoint(&mut stepper, &team, ring)?;
            say!("\nfinal checkpoint -> {} (step {})", newest.display(), stepper.state().step);
        }
    }
    say!(
        "\nfinal state: t = {:.4}, max |u| = {:.4}, kinetic energy = {:.6}, ‖div u‖ = {:.3e}",
        stepper.state().time,
        stepper.state().velocity.max_magnitude(),
        stepper.kinetic_energy(),
        stepper.divergence_norm()
    );
    Ok(finish_trace(&mut team, &cli)?)
}
