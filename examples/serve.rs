//! The supervised simulation service CLI: submit jobs into a journaled
//! queue, drain them over a pool of worker teams, and inspect the fleet.
//!
//! ```text
//! cargo run --release --example serve -- submit --journal jobs.jsonl cavity 8 20
//! cargo run --release --example serve -- run    --journal jobs.jsonl --workers 2 --endpoint
//! cargo run --release --example serve -- status --journal jobs.jsonl
//! cargo run --release --example serve -- metrics --journal jobs.jsonl --format prom
//! cargo run --release --example serve -- timeline --journal jobs.jsonl --all
//! ```
//!
//! Subcommands:
//!
//! * `submit --journal <path> <scenario> [n] [steps]` — append one job to
//!   the journal.  Flags: `--id <name>` (default `job-<k>`), `--inject
//!   <spec>` (the `simulate` fault grammar, e.g. `panic@5,seed=7`),
//!   `--ckpt-dir <dir>` (default `<journal>.ckpt.d`);
//! * `run` — replay the journal, then drain every pending job to
//!   completion.  Flags: `--workers <M>` (default 2), `--threads <T>` per
//!   worker (default 1), `--slice <K>` steps per slice (default 4),
//!   `--watchdog-ms <W>` per-step deadline (default 30000),
//!   `--max-retries <R>` (default 3), `--max-slices <N>` (graceful drain
//!   for tests), `--ring <K>` checkpoint depth (default 3), `--ckpt-dir`,
//!   `--endpoint` (serve the introspection socket at `<journal>.sock`),
//!   `--trace-dir <dir>` (write per-worker span logs for `timeline
//!   --chrome`);
//! * `status [--follow]` — one-line JSON fleet summary.  Asks the live
//!   supervisor over `<journal>.sock` first; when no supervisor is
//!   listening it replays the journal read-only and reports the ledger
//!   with `"live": false` instead of failing.  `--follow` streams a status
//!   line every half second while the supervisor lives, then prints the
//!   final offline snapshot.  A missing journal reports `no journal` and
//!   still exits 0 — absence of a fleet is an answer, not an error;
//! * `metrics [--format prom|json]` — the fleet-metrics snapshot (default
//!   json).  Socket first; then the `<journal>.metrics.json` document the
//!   dead supervisor flushed at its last checkpoint (json only); finally a
//!   read-only journal fold, which reconstructs the deterministic counters
//!   exactly but leaves host-dependent histograms empty;
//! * `timeline <job>|--all [--chrome] [--trace-dir <dir>]` — journal-derived
//!   timelines.  Text mode prints one line per record (`--all`) or one job's
//!   records; `--chrome` emits the merged Chrome-tracing document for the
//!   whole fleet (slices from the journal, one pid per worker, plus any
//!   per-worker span logs found in `--trace-dir`).
//!
//! `run` always prints the replay line (`journal replay: N job(s): ...`) —
//! after a crashed supervisor it reports how many jobs were recovered —
//! and exits `0` when no job failed, `1` when any did.  The inspection
//! subcommands (`status`, `metrics`, `timeline`) are read-only and exit
//! `0` whenever the journal could be reported on (even when missing or
//! with no supervisor alive), `1` on a corrupt journal.  CLI errors — a
//! missing `--journal`, an unknown subcommand or flag, a zero count of
//! `--workers`, `--threads`, `--slice`, `--watchdog-ms` or `--ring`; the
//! grammar is `alya_longvec::cli::Serve` — exit `2`, and so does a fault
//! spec the journal refuses.  No subcommand panics on a closed stdout.
//! Trajectories are bitwise independent of `--workers`, `--threads`,
//! `--slice` and of any preemption, migration or retry along the way.
//!
//! `run` and an offline `status` end with the same `  <id> <status>
//! (attempts N)` row per job: the live table, and the one the journal
//! replays to.

use alya_longvec::cli::{out, Serve, ServeCommand, Submit};
use alya_longvec::say;
use lv_driver::Scenario;
use lv_server::{
    chrome_timeline, ledger, metrics_json_path, query, replay_readonly, socket_path, tally,
    text_timeline, FleetMetrics, JobEntry, JobSpec, Replay, Server, ServerConfig,
};
use lv_trace::json::JsonObject;
use lv_trace::sink::{parse_jsonl, TraceLog};
use std::path::Path;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Serve { journal, config, command } = Serve::parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    match command {
        ServeCommand::Submit(job) => submit(&journal, config, job),
        ServeCommand::Run => run(&journal, config),
        ServeCommand::Status { follow } => status(&journal, follow),
        ServeCommand::Metrics { prom } => metrics(&journal, prom),
        ServeCommand::Timeline { job, chrome, trace_dir } => {
            timeline(&journal, job.as_deref(), chrome, trace_dir.as_deref())
        }
    }
}

fn open(journal: &str, config: ServerConfig) -> Server {
    Server::open(journal, config).unwrap_or_else(|e| {
        eprintln!("error: cannot open journal {journal}: {e}");
        std::process::exit(1);
    })
}

fn submit(journal: &str, config: ServerConfig, job: Submit) {
    let Submit { kind, scenario, n, steps, id, inject } = job;
    let mut server = open(journal, config);
    let id = id.unwrap_or_else(|| format!("job-{}", server.jobs().len() + 1));
    let mut spec = JobSpec::new(id.clone(), Scenario::new(kind, n), steps);
    if let Some(inject) = inject {
        spec = spec.with_inject(inject);
    }
    if let Err(e) = server.submit(spec) {
        if e.kind() == std::io::ErrorKind::InvalidInput {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        eprintln!("error: cannot journal the submission: {e}");
        std::process::exit(1);
    }
    say!("submitted job {id}: {scenario} n={n} for {steps} step(s)");
}

fn run(journal: &str, config: ServerConfig) {
    let mut server = open(journal, config);
    say!("{}", server.replay());
    // Worker panics are contained by the supervisor and journaled as retry
    // records; keep the default hook's multi-line backtrace out of the
    // service log.  The hook must not panic itself (stderr may be a broken
    // pipe), so write errors are ignored rather than unwound.
    std::panic::set_hook(Box::new(|info| {
        use std::io::Write;
        let _ = writeln!(std::io::stderr(), "[contained] {info}");
    }));
    let report = server.run();
    let _ = std::panic::take_hook();
    say!(
        "fleet: {} done, {} failed, {} pending in {} slice(s)",
        report.done,
        report.failed,
        report.pending,
        report.slices
    );
    say_jobs(&server.jobs());
    std::process::exit(if report.failed > 0 { 1 } else { 0 });
}

/// Read-only journal replay for the inspection subcommands.  `None` means
/// the journal does not exist — the caller reports that and exits 0, since
/// "no fleet" is a valid answer for a read-only query.  Corruption exits 1.
fn inspect_replay(journal: &str) -> Option<Replay> {
    match replay_readonly(Path::new(journal)) {
        Ok(replay) => Some(replay),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => {
            eprintln!("error: cannot replay journal {journal}: {e}");
            std::process::exit(1);
        }
    }
}

fn status(journal: &str, follow: bool) {
    let socket = socket_path(Path::new(journal));
    if follow {
        // Stream live status lines until the supervisor goes away, then
        // fall through to the final offline snapshot below.
        while let Ok(reply) = query(&socket, "status") {
            out(format_args!("{reply}"));
            std::thread::sleep(Duration::from_millis(500));
        }
    } else if let Ok(reply) = query(&socket, "status") {
        out(format_args!("{reply}"));
        return;
    }

    // No live supervisor: the journal *is* the fleet state.  Report the
    // replayed ledger and exit 0 — a dead supervisor is an observation.
    let Some(replay) = inspect_replay(journal) else {
        say!("no journal at {journal} (nothing to report)");
        return;
    };
    let entries = ledger(&replay.records).unwrap_or_else(|e| {
        eprintln!("error: journal {journal} is not a valid ledger: {e}");
        std::process::exit(1);
    });
    let (done, failed, pending) = tally(&entries);
    say!(
        "{}",
        JsonObject::new()
            .u64("format", 1)
            .bool("live", false)
            .usize("jobs", entries.len())
            .usize("done", done)
            .usize("failed", failed)
            .usize("pending", pending)
            .bool("torn_tail", replay.torn_tail)
            .finish()
    );
    say_jobs(&entries);
}

/// One row per job, the same for `run`'s live table and `status`'s
/// replayed one.
fn say_jobs(jobs: &[JobEntry]) {
    for job in jobs {
        say!("  {} {} (attempts {})", job.spec.id, job.status, job.attempts);
    }
}

fn metrics(journal: &str, prom: bool) {
    let socket = socket_path(Path::new(journal));
    let request = if prom { "metrics prom" } else { "metrics json" };
    if let Ok(reply) = query(&socket, request) {
        out(format_args!("{reply}"));
        return;
    }
    // Dead supervisor.  For JSON, prefer the document it flushed at its
    // last checkpoint (it carries the host-dependent histograms and the
    // progress board); otherwise fold the journal read-only, which
    // reconstructs exactly the deterministic counter subset.
    if !prom {
        if let Ok(doc) = std::fs::read_to_string(metrics_json_path(Path::new(journal))) {
            say!("{}", doc.trim_end());
            return;
        }
    }
    let Some(replay) = inspect_replay(journal) else {
        say!("no journal at {journal} (nothing to report)");
        return;
    };
    let fleet = FleetMetrics::new();
    fleet.replay(&replay.records);
    if prom {
        out(format_args!("{}", fleet.snapshot().to_prometheus()));
    } else {
        say!("{}", fleet.document());
    }
}

fn timeline(journal: &str, job: Option<&str>, chrome: bool, trace_dir: Option<&str>) {
    let Some(replay) = inspect_replay(journal) else {
        say!("no journal at {journal} (nothing to report)");
        return;
    };
    if chrome {
        // The Chrome document is always the merged fleet view (one pid per
        // worker); a job filter would leave dangling flow between workers.
        let logs = load_trace_logs(trace_dir);
        out(format_args!("{}", chrome_timeline(&replay.records, &logs)));
    } else {
        out(format_args!("{}", text_timeline(&replay.records, job)));
    }
}

/// Loads every `worker-<k>.trace.jsonl` span log in `dir` (the files
/// `serve run --trace-dir` writes), keyed by worker id for the Chrome
/// export's pid axis.  Unreadable or unparseable logs are skipped with a
/// note on stderr — a timeline with fewer lanes beats no timeline.
fn load_trace_logs(dir: Option<&str>) -> Vec<(u64, TraceLog)> {
    let Some(dir) = dir else { return Vec::new() };
    let mut logs = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("note: cannot read trace dir {dir}: {e}");
            return Vec::new();
        }
    };
    for entry in entries.filter_map(Result::ok) {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(worker) = name
            .strip_prefix("worker-")
            .and_then(|rest| rest.strip_suffix(".trace.jsonl"))
            .and_then(|id| id.parse::<u64>().ok())
        else {
            continue;
        };
        match std::fs::read_to_string(entry.path())
            .map_err(|e| e.to_string())
            .and_then(|text| parse_jsonl(&text))
        {
            Ok(log) => logs.push((worker, log)),
            Err(e) => eprintln!("note: skipping {name}: {e}"),
        }
    }
    logs.sort_by_key(|(worker, _)| *worker);
    logs
}
