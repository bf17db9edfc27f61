//! The command lines of the `simulate`, `serve` and `codesign_sweep`
//! examples: one flag walker and the three grammars built on it, so each
//! example is one parse call and its run logic.
//!
//! Every parser returns [`CliError`] for a command line it cannot run — an
//! unknown scenario, subcommand, row name or flag, a flag without its value,
//! a value that does not parse, a count that must be positive and is zero,
//! or two arguments that contradict each other — and the examples exit `2`
//! on it, before any work starts.  The message names the argument.
//!
//! [`say!`](crate::say) is the examples' `println!`: it ignores a stdout
//! that closed early (`simulate cavity 4 | head -3`), where `println!`
//! would panic, so a run completes and returns its own exit code.

use lv_core::reproduce::CATALOGUE;
use lv_driver::{FaultPlan, ScenarioKind};
use lv_server::ServerConfig;
use std::fmt;
use std::io::Write;
use std::str::FromStr;
use std::time::Duration;

/// A command line the examples refuse: exit `2`, the message on stderr.
#[derive(Debug, PartialEq, Eq)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

fn fail<T>(message: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(message.into()))
}

/// Writes `text` to stdout and ignores a failed write (see the module
/// docs); [`say!`](crate::say) adds the newline.
pub fn out(text: fmt::Arguments<'_>) {
    let _ = std::io::stdout().lock().write_fmt(text);
}

/// `println!` that survives a closed stdout (see [`out`]).
#[macro_export]
macro_rules! say {
    ($($arg:tt)*) => {
        $crate::cli::out(::std::format_args!("{}\n", ::std::format_args!($($arg)*)))
    };
}

/// `value` parsed for `what`, or an error naming both.
fn parse<T: FromStr>(value: &str, what: &str) -> Result<T, CliError> {
    value.parse().or_else(|_| fail(format!("{what}: cannot parse '{value}'")))
}

/// Like [`parse`], for a count that must be positive.
fn count<T: FromStr + Default + PartialEq>(value: &str, what: &str) -> Result<T, CliError> {
    let n = parse(value, what)?;
    if n == T::default() {
        return fail(format!("{what} must be positive (got '{value}')"));
    }
    Ok(n)
}

/// One argument of a command line: a `--flag` or a positional value.
enum Arg<'a> {
    Flag(&'a str),
    Positional(&'a str),
}

/// Walks a command line: each `--flag`, then — where the flag takes one —
/// the value after it, whatever it looks like.
struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    fn new(args: &'a [String]) -> Self {
        Args(args.iter())
    }

    fn next(&mut self) -> Option<Arg<'a>> {
        let arg = self.0.next()?;
        Some(if arg.starts_with("--") { Arg::Flag(arg) } else { Arg::Positional(arg) })
    }

    /// The value of `flag`.
    fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        match self.0.next() {
            Some(value) => Ok(value),
            None => fail(format!("{flag} needs a value")),
        }
    }

    fn parsed<T: FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        parse(self.value(flag)?, flag)
    }

    fn count<T: FromStr + Default + PartialEq>(&mut self, flag: &str) -> Result<T, CliError> {
        count(self.value(flag)?, flag)
    }
}

fn scenario(name: &str) -> Result<ScenarioKind, CliError> {
    ScenarioKind::from_name(name).map_or_else(
        || {
            let names: Vec<&str> = ScenarioKind::ALL.iter().map(|kind| kind.name()).collect();
            fail(format!("unknown scenario '{name}' ({})", names.join(", ")))
        },
        Ok,
    )
}

/// What `simulate` was asked to do.
#[derive(Debug, PartialEq)]
pub enum Simulate {
    /// `simulate` or `simulate list`: print the scenario registry.
    List,
    /// Run a scenario.
    Run(SimulateArgs),
}

/// The event-log format of a traced `simulate` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// The replayable line-JSON log.
    Jsonl,
    /// A Chrome-tracing document.
    Chrome,
}

/// `simulate <scenario> [n] [steps] [threads] [flags]` (the flags are
/// documented in the example).
#[derive(Debug, PartialEq)]
pub struct SimulateArgs {
    pub kind: ScenarioKind,
    /// Elements per side; `0` picks the scenario's default (the sweep, for
    /// `taylor-green`).
    pub n: usize,
    pub steps: usize,
    pub threads: usize,
    pub checkpoint: Option<String>,
    /// Checkpoint every `every` steps as well (`0`: only after the last).
    pub every: usize,
    /// Checkpoint ring depth, at least 1.
    pub ring: usize,
    pub restart: Option<String>,
    /// A positive, finite Δt.
    pub fixed_dt: Option<f64>,
    pub inject: Option<FaultPlan>,
    pub max_retries: usize,
    pub trace: Option<String>,
    pub trace_format: TraceFormat,
}

impl Simulate {
    /// Parses `simulate`'s arguments (the program name left out).
    pub fn parse(args: &[String]) -> Result<Simulate, CliError> {
        let name = args.first().map_or("list", String::as_str);
        let mut cli = SimulateArgs {
            kind: ScenarioKind::LidDrivenCavity,
            n: 0,
            steps: 10,
            threads: 1,
            checkpoint: None,
            every: 0,
            ring: 3,
            restart: None,
            fixed_dt: None,
            inject: None,
            max_retries: 3,
            trace: None,
            trace_format: TraceFormat::Jsonl,
        };
        let mut trace_format = None;
        let mut positional = 0;
        let mut args = Args::new(args.get(1..).unwrap_or_default());
        while let Some(arg) = args.next() {
            match arg {
                Arg::Flag(flag @ "--checkpoint") => cli.checkpoint = Some(args.value(flag)?.into()),
                Arg::Flag(flag @ "--every") => cli.every = args.parsed(flag)?,
                Arg::Flag(flag @ "--ring") => cli.ring = args.count(flag)?,
                Arg::Flag(flag @ "--restart") => cli.restart = Some(args.value(flag)?.into()),
                Arg::Flag(flag @ "--inject") => {
                    let plan = FaultPlan::parse(args.value(flag)?);
                    cli.inject = Some(plan.or_else(|e| fail(format!("{flag}: {e}")))?);
                }
                Arg::Flag(flag @ "--max-retries") => cli.max_retries = args.parsed(flag)?,
                Arg::Flag(flag @ "--fixed-dt") => {
                    let value = args.value(flag)?;
                    let dt: f64 = parse(value, flag)?;
                    if !(dt.is_finite() && dt > 0.0) {
                        return fail(format!("{flag} must be positive and finite (got '{value}')"));
                    }
                    cli.fixed_dt = Some(dt);
                }
                Arg::Flag(flag @ "--trace") => cli.trace = Some(args.value(flag)?.into()),
                Arg::Flag(flag @ "--trace-format") => {
                    trace_format = Some(match args.value(flag)? {
                        "jsonl" => TraceFormat::Jsonl,
                        "chrome" => TraceFormat::Chrome,
                        other => {
                            return fail(format!(
                                "{flag} must be 'jsonl' or 'chrome' (got '{other}')"
                            ))
                        }
                    });
                }
                Arg::Flag(flag) => return fail(format!("unknown flag {flag}")),
                Arg::Positional(value) => {
                    match positional {
                        0 => cli.n = parse(value, "n")?,
                        1 => cli.steps = parse(value, "steps")?,
                        2 => cli.threads = count(value, "threads")?,
                        _ => return fail(format!("too many positional arguments ('{value}')")),
                    }
                    positional += 1;
                }
            }
        }
        if cli.every > 0 && cli.checkpoint.is_none() {
            return fail("--every needs --checkpoint <path> to know where to write");
        }
        if trace_format.is_some() && cli.trace.is_none() {
            return fail("--trace-format needs --trace <path> to know where to write");
        }
        cli.trace_format = trace_format.unwrap_or(TraceFormat::Jsonl);
        if name == "list" {
            return Ok(Simulate::List);
        }
        cli.kind = scenario(name)?;
        if cli.is_sweep() && cli.checkpoint.is_some() {
            return fail(
                "--checkpoint/--every: the taylor-green sweep (n = 0) writes no checkpoint",
            );
        }
        Ok(Simulate::Run(cli))
    }
}

impl SimulateArgs {
    /// `taylor-green` at `n = 0` and no restart: the resolution sweep.
    pub fn is_sweep(&self) -> bool {
        self.kind == ScenarioKind::TaylorGreenVortex && self.n == 0 && self.restart.is_none()
    }
}

/// `serve`'s usage text.
const SERVE_USAGE: &str = "\
usage: serve <submit|run|status|metrics|timeline> --journal <path> [options]

serve submit   --journal J [--ckpt-dir D] <scenario> [n] [steps] [--id NAME] [--inject SPEC]
serve run      --journal J [--ckpt-dir D] [--workers M] [--threads T] [--slice K]
                 [--watchdog-ms W] [--max-retries R] [--max-slices N] [--ring K]
                 [--endpoint] [--trace-dir DIR]
serve status   --journal J [--follow]
serve metrics  --journal J [--format prom|json]
serve timeline --journal J <job>|--all [--chrome] [--trace-dir DIR]

scenarios: cavity, channel, taylor-green, shear-layer";

/// `serve <subcommand> --journal <path> [--ckpt-dir <dir>] ...`.
#[derive(Debug)]
pub struct Serve {
    pub journal: String,
    /// The supervisor's policy: the checkpoint directory (`--ckpt-dir`,
    /// default `<journal>.ckpt.d`) and, for `run`, every flag of it.
    pub config: ServerConfig,
    pub command: ServeCommand,
}

/// A `serve` subcommand and its own arguments.
#[derive(Debug, PartialEq, Eq)]
pub enum ServeCommand {
    /// Append one job to the journal.
    Submit(Submit),
    /// Replay the journal and drain it ([`Serve::config`] holds the flags).
    Run,
    /// The fleet summary; `follow` streams it while a supervisor lives.
    Status { follow: bool },
    /// The fleet metrics, as Prometheus text when `prom`, else JSON.
    Metrics { prom: bool },
    /// A job's timeline, or the fleet's when `job` is `None` (`--all`).
    Timeline { job: Option<String>, chrome: bool, trace_dir: Option<String> },
}

/// `serve submit`'s job.
#[derive(Debug, PartialEq, Eq)]
pub struct Submit {
    pub kind: ScenarioKind,
    /// The name as given, for the confirmation line.
    pub scenario: String,
    pub n: usize,
    pub steps: u64,
    pub id: Option<String>,
    /// A fault spec, checked by the server when it journals the job.
    pub inject: Option<String>,
}

impl Serve {
    /// Parses `serve`'s arguments (the program name left out).
    pub fn parse(args: &[String]) -> Result<Serve, CliError> {
        let subcommand = args.first().map_or("", String::as_str);
        if !["submit", "run", "status", "metrics", "timeline"].contains(&subcommand) {
            return fail(format!("unknown subcommand '{subcommand}'\n\n{SERVE_USAGE}"));
        }
        let (mut journal, mut ckpt_dir) = (None, None);
        let mut config = ServerConfig { verbose: subcommand == "run", ..ServerConfig::default() };
        let mut positional = Vec::new();
        let (mut all, mut follow, mut chrome) = (false, false, false);
        let (mut id, mut inject, mut format, mut trace_dir) = (None, None, None, None);
        let mut args = Args::new(&args[1..]);
        while let Some(arg) = args.next() {
            let flag = match arg {
                Arg::Positional(value) => {
                    positional.push(value.to_string());
                    continue;
                }
                Arg::Flag(flag) => flag,
            };
            match (subcommand, flag) {
                (_, "--journal") => journal = Some(args.value(flag)?.to_string()),
                (_, "--ckpt-dir") => ckpt_dir = Some(args.value(flag)?.to_string()),
                ("submit", "--id") => id = Some(args.value(flag)?.to_string()),
                ("submit", "--inject") => inject = Some(args.value(flag)?.to_string()),
                ("run", "--workers") => config.workers = args.count(flag)?,
                ("run", "--threads") => config.threads_per_worker = args.count(flag)?,
                ("run", "--slice") => config.slice_steps = args.count(flag)?,
                ("run", "--watchdog-ms") => {
                    config.step_deadline = Duration::from_millis(args.count(flag)?);
                }
                ("run", "--max-retries") => config.max_job_retries = args.parsed(flag)?,
                ("run", "--max-slices") => config.max_slices = Some(args.parsed(flag)?),
                ("run", "--ring") => config.ring_depth = args.count(flag)?,
                ("run", "--endpoint") => config.endpoint = true,
                ("run" | "timeline", "--trace-dir") => trace_dir = Some(args.value(flag)?),
                ("status", "--follow") => follow = true,
                ("timeline", "--chrome") => chrome = true,
                ("metrics", "--format") => format = Some(args.value(flag)?),
                ("timeline", "--all") => all = true,
                _ => return fail(format!("unknown {subcommand} flag {flag}")),
            }
        }
        let Some(journal) = journal else { return fail("--journal <path> is required") };
        config.checkpoint_dir = ckpt_dir.unwrap_or_else(|| format!("{journal}.ckpt.d")).into();
        if let (Some(value), "run" | "status" | "metrics") = (positional.first(), subcommand) {
            return fail(format!("{subcommand} takes no argument '{value}'"));
        }
        let command = match subcommand {
            "submit" => {
                let Some(name) = positional.first() else {
                    return fail("submit needs a scenario name");
                };
                if positional.len() > 3 {
                    return fail(format!("too many positional arguments ('{}')", positional[3]));
                }
                let n = positional.get(1).map_or(Ok(8), |n| parse(n, "n"))?;
                if n == 0 {
                    return fail("submit needs a concrete resolution (n > 0)");
                }
                ServeCommand::Submit(Submit {
                    kind: scenario(name)?,
                    scenario: name.clone(),
                    n,
                    steps: positional.get(2).map_or(Ok(10), |steps| parse(steps, "steps"))?,
                    id,
                    inject,
                })
            }
            "run" => {
                config.trace_dir = trace_dir.map(Into::into);
                ServeCommand::Run
            }
            "status" => ServeCommand::Status { follow },
            "metrics" => {
                let prom = match format.unwrap_or("json") {
                    "prom" => true,
                    "json" => false,
                    other => return fail(format!("--format must be prom or json, not '{other}'")),
                };
                ServeCommand::Metrics { prom }
            }
            _ => {
                if positional.len() > 1 {
                    return fail("timeline takes at most one job id");
                }
                let job = positional.pop();
                if all == job.is_some() {
                    return fail("timeline needs exactly one of a job id or --all");
                }
                let trace_dir = trace_dir.map(String::from);
                ServeCommand::Timeline { job, chrome, trace_dir }
            }
        };
        Ok(Serve { journal, config, command })
    }
}

/// The name `codesign_sweep` runs the Section-3 co-design loop under.
const CODESIGN_LOOP: &str = "codesign_loop";

/// `codesign_sweep [--elements N] [NAME ...]`: the co-design loop and the
/// rows of [`CATALOGUE`] to print, and the mesh size they run on.
#[derive(Debug, PartialEq, Eq)]
pub struct CodesignSweep {
    /// The mesh has at least this many elements (default 1000).
    pub elements: usize,
    /// Whether to run the co-design loop (the name `codesign_loop`).
    pub codesign_loop: bool,
    /// The selected rows' names, in catalogue order, each once.
    pub rows: Vec<&'static str>,
}

impl CodesignSweep {
    /// Parses `codesign_sweep`'s arguments (the program name left out); no
    /// name selects the loop and every row.
    pub fn parse(args: &[String]) -> Result<CodesignSweep, CliError> {
        let mut elements = 1000;
        let mut names = Vec::new();
        let mut args = Args::new(args);
        while let Some(arg) = args.next() {
            match arg {
                Arg::Flag(flag @ "--elements") => elements = args.count(flag)?,
                Arg::Flag(flag) => return fail(format!("unknown flag {flag}")),
                Arg::Positional(name) => names.push(name),
            }
        }
        let known = |name: &str| name == CODESIGN_LOOP || CATALOGUE.iter().any(|row| row.0 == name);
        if let Some(name) = names.iter().find(|name| !known(name)) {
            let mut message = format!("unknown name '{name}'; the names are:");
            message += &format!("\n  {CODESIGN_LOOP:<28}Section 3: the co-design loop");
            for (name, title, _) in &CATALOGUE {
                message += &format!("\n  {name:<28}{title}");
            }
            return fail(message);
        }
        let all = names.is_empty();
        Ok(CodesignSweep {
            elements,
            codesign_loop: all || names.contains(&CODESIGN_LOOP),
            rows: CATALOGUE
                .iter()
                .map(|row| row.0)
                .filter(|name| all || names.contains(name))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn simulate(line: &str) -> Result<Simulate, CliError> {
        Simulate::parse(&words(line))
    }

    fn run(line: &str) -> SimulateArgs {
        match simulate(line) {
            Ok(Simulate::Run(args)) => args,
            other => panic!("`{line}`: {other:?}"),
        }
    }

    fn serve(line: &str) -> Result<Serve, CliError> {
        Serve::parse(&words(line))
    }

    fn codesign(line: &str) -> Result<CodesignSweep, CliError> {
        CodesignSweep::parse(&words(line))
    }

    /// The command line is refused, and the message holds `names`.
    fn refused<T: fmt::Debug>(parsed: Result<T, CliError>, line: &str, names: &str) {
        match parsed {
            Err(e) => assert!(e.to_string().contains(names), "`{line}`: '{e}' names no '{names}'"),
            Ok(parsed) => panic!("`{line}` must be refused, parsed to {parsed:?}"),
        }
    }

    #[test]
    fn simulate_defaults_are_the_documented_ones() {
        assert_eq!(simulate(""), Ok(Simulate::List));
        assert_eq!(simulate("list"), Ok(Simulate::List));
        let args = run("cavity");
        assert_eq!(
            args,
            SimulateArgs {
                kind: ScenarioKind::LidDrivenCavity,
                n: 0,
                steps: 10,
                threads: 1,
                checkpoint: None,
                every: 0,
                ring: 3,
                restart: None,
                fixed_dt: None,
                inject: None,
                max_retries: 3,
                trace: None,
                trace_format: TraceFormat::Jsonl,
            }
        );
        assert!(!args.is_sweep());
        assert!(run("taylor-green").is_sweep());
        assert!(!run("taylor-green 0 4 1 --restart tg.ckpt").is_sweep());
    }

    #[test]
    fn simulate_takes_every_documented_flag() {
        let args = run("cavity 6 6 2 --checkpoint smoke.ckpt --every 2 --ring 4 \
             --inject momentum-breakdown@3,ckpt-flip@6,seed=11 --max-retries 5 \
             --fixed-dt 0.01 --trace t.json --trace-format chrome");
        assert_eq!(
            (args.kind, args.n, args.steps, args.threads),
            (ScenarioKind::LidDrivenCavity, 6, 6, 2)
        );
        assert_eq!(args.checkpoint.as_deref(), Some("smoke.ckpt"));
        assert_eq!((args.every, args.ring, args.max_retries), (2, 4, 5));
        assert_eq!(args.inject, FaultPlan::parse("momentum-breakdown@3,ckpt-flip@6,seed=11").ok());
        assert_eq!(args.fixed_dt, Some(0.01));
        assert_eq!(
            (args.trace.as_deref(), args.trace_format),
            (Some("t.json"), TraceFormat::Chrome)
        );
        assert_eq!(run("channel 4 2 1 --restart r.ckpt").restart.as_deref(), Some("r.ckpt"));
        assert_eq!(run("shear-layer --trace t.jsonl").trace_format, TraceFormat::Jsonl);
    }

    #[test]
    fn simulate_refuses_what_it_cannot_run() {
        for (line, names) in [
            // The malformed command lines of CI's smoke block.
            ("cavity 6 --steps 4", "--steps"),
            ("cavity 6 2 1 --fixed-dt 0.0x", "--fixed-dt"),
            ("cavity 6 2 1 --checkpoint", "--checkpoint"),
            ("taylor-green --checkpoint tg.ckpt --every 2", "taylor-green sweep"),
            ("cavity 6 2 1 --trace-format chrome", "--trace-format"),
            // A count that must be positive.
            ("cavity 4 1 0", "threads"),
            ("bogus 4", "bogus"),
            ("cavity 4 1 1 7", "'7'"),
            ("cavity x", "n"),
            ("cavity 4 -1", "steps"),
            ("cavity 4 1 1 --every 2", "--every"),
            ("cavity 4 1 1 --every", "--every"),
            ("cavity 4 1 1 --ring -1", "--ring"),
            ("cavity 4 1 1 --ring 0", "--ring"),
            ("cavity 4 1 1 --max-retries many", "--max-retries"),
            // The pressure path follows the mesh: there is no flag for it.
            ("cavity 4 1 1 --pressure-solver cg", "--pressure-solver"),
            // Δt must be a positive, finite number.
            ("cavity 4 1 1 --fixed-dt 0", "--fixed-dt"),
            ("cavity 4 1 1 --fixed-dt -1", "--fixed-dt"),
            ("cavity 4 1 1 --fixed-dt nan", "--fixed-dt"),
            ("cavity 4 1 1 --fixed-dt inf", "--fixed-dt"),
            ("cavity 4 1 1 --inject meteor@3", "--inject"),
            ("cavity 4 1 1 --trace t --trace-format xml", "--trace-format"),
            ("list --bogus", "--bogus"),
        ] {
            refused(simulate(line), line, names);
        }
    }

    #[test]
    fn serve_defaults_are_the_documented_ones() {
        let parsed = serve("submit --journal jobs.jsonl cavity").expect("a minimal submit");
        assert_eq!(parsed.journal, "jobs.jsonl");
        assert_eq!(
            parsed.command,
            ServeCommand::Submit(Submit {
                kind: ScenarioKind::LidDrivenCavity,
                scenario: "cavity".into(),
                n: 8,
                steps: 10,
                id: None,
                inject: None,
            })
        );
        let default_run = ServerConfig {
            checkpoint_dir: "jobs.jsonl.ckpt.d".into(),
            verbose: true,
            ..ServerConfig::default()
        };
        let parsed = serve("run --journal jobs.jsonl").expect("a minimal run");
        assert_eq!(parsed.command, ServeCommand::Run);
        assert_eq!(format!("{:?}", parsed.config), format!("{default_run:?}"));
        for (line, command) in [
            ("status --journal j", ServeCommand::Status { follow: false }),
            ("metrics --journal j", ServeCommand::Metrics { prom: false }),
            ("metrics --journal j --format json", ServeCommand::Metrics { prom: false }),
            ("metrics --format prom --journal j", ServeCommand::Metrics { prom: true }),
            ("status --follow --journal j", ServeCommand::Status { follow: true }),
            (
                "timeline --journal j --all",
                ServeCommand::Timeline { job: None, chrome: false, trace_dir: None },
            ),
            (
                "timeline --journal j job-2",
                ServeCommand::Timeline {
                    job: Some("job-2".into()),
                    chrome: false,
                    trace_dir: None,
                },
            ),
        ] {
            let parsed = serve(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            assert_eq!(parsed.command, command, "{line}");
            assert!(!parsed.config.verbose, "{line}");
        }
    }

    #[test]
    fn serve_takes_every_documented_flag() {
        let parsed = serve(
            "submit --journal jobs.jsonl cavity 8 10 --id flaky --inject panic@5,seed=7 \
             --ckpt-dir rings",
        )
        .expect("a full submit");
        assert_eq!(
            parsed.command,
            ServeCommand::Submit(Submit {
                kind: ScenarioKind::LidDrivenCavity,
                scenario: "cavity".into(),
                n: 8,
                steps: 10,
                id: Some("flaky".into()),
                inject: Some("panic@5,seed=7".into()),
            })
        );
        assert_eq!(parsed.config.checkpoint_dir, std::path::PathBuf::from("rings"));
        let run = ServerConfig {
            workers: 3,
            threads_per_worker: 2,
            slice_steps: 5,
            step_deadline: Duration::from_millis(250),
            max_job_retries: 0,
            checkpoint_dir: "rings".into(),
            ring_depth: 4,
            max_slices: Some(7),
            verbose: true,
            endpoint: true,
            trace_dir: Some("traces".into()),
            ..ServerConfig::default()
        };
        let parsed = serve("run --journal j --ckpt-dir rings --workers 3 --threads 2 --slice 5 \
             --watchdog-ms 250 --max-retries 0 --max-slices 7 --ring 4 --endpoint --trace-dir traces")
        .expect("a full run");
        assert_eq!(format!("{:?}", parsed.config), format!("{run:?}"));
        let parsed =
            serve("timeline --journal j --all --chrome --trace-dir traces").expect("chrome");
        assert_eq!(
            parsed.command,
            ServeCommand::Timeline { job: None, chrome: true, trace_dir: Some("traces".into()) }
        );
    }

    #[test]
    fn serve_refuses_what_it_cannot_run() {
        for (line, names) in [
            ("", "subcommand"),
            ("help", "usage"),
            ("stop --journal j", "stop"),
            // `--journal` is every subcommand's.
            ("submit cavity", "--journal"),
            ("run", "--journal"),
            ("status", "--journal"),
            ("metrics --format prom", "--journal"),
            ("timeline --all", "--journal"),
            ("status --journal", "--journal"),
            // A flag of another subcommand is unknown to this one.
            ("submit --journal j cavity --workers 2", "--workers"),
            ("run --journal j --id x", "--id"),
            ("status --journal j --bogus", "--bogus"),
            ("metrics --journal j --all", "--all"),
            ("timeline --journal j --all --follow", "--follow"),
            ("timeline --journal j", "exactly one"),
            ("timeline --journal j job-1 --all", "exactly one"),
            ("timeline --journal j job-1 job-2", "at most one"),
            ("submit --journal j", "scenario"),
            ("submit --journal j cavity 0", "n > 0"),
            ("submit --journal j vortex 8", "vortex"),
            ("submit --journal j cavity 8 10 1", "'1'"),
            ("submit --journal j cavity eight", "n"),
            ("submit --journal j cavity 8 --id", "--id"),
            ("metrics --journal j --format xml", "--format"),
            ("status --journal j now", "now"),
            // Counts that must be positive.
            ("run --journal j --workers 0", "--workers"),
            ("run --journal j --threads 0", "--threads"),
            ("run --journal j --slice 0", "--slice"),
            ("run --journal j --watchdog-ms 0", "--watchdog-ms"),
            ("run --journal j --ring 0", "--ring"),
            ("run --journal j --workers two", "--workers"),
            ("run --journal j --max-slices", "--max-slices"),
        ] {
            refused(serve(line), line, names);
        }
    }

    #[test]
    fn codesign_defaults_are_the_documented_ones() {
        let every_row: Vec<&str> = CATALOGUE.iter().map(|row| row.0).collect();
        assert_eq!(every_row.len(), 20);
        assert_eq!(
            codesign(""),
            Ok(CodesignSweep { elements: 1000, codesign_loop: true, rows: every_row.clone() })
        );
        assert_eq!(
            codesign("--elements 125"),
            Ok(CodesignSweep { elements: 125, codesign_loop: true, rows: every_row })
        );
        assert_eq!(
            codesign("codesign_loop"),
            Ok(CodesignSweep { elements: 1000, codesign_loop: true, rows: vec![] })
        );
        // Catalogue order, each row once, wherever the flag stands.
        assert_eq!(
            codesign("fig11_speedup_riscv table2_platforms --elements 8 fig11_speedup_riscv"),
            Ok(CodesignSweep {
                elements: 8,
                codesign_loop: false,
                rows: vec!["table2_platforms", "fig11_speedup_riscv"],
            })
        );
    }

    #[test]
    fn codesign_refuses_what_it_cannot_run() {
        for (line, names) in [
            // The malformed command lines of CI's smoke block.
            ("bogus", "'bogus'"),
            ("--elements 0", "--elements"),
            // A bare count is a name, not an element count.
            ("512", "'512'"),
            ("--elements abc", "--elements"),
            ("--elements -5", "--elements"),
            ("--elements", "--elements"),
            ("fig11_speedup_riscv --elements 0", "--elements"),
            ("--bogus", "--bogus"),
            // The refusal lists the names.
            ("bogus", "ablation_indexed_mem"),
            ("bogus", CODESIGN_LOOP),
        ] {
            refused(codesign(line), line, names);
        }
    }
}
