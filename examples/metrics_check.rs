//! CI's metrics checker: validates a Prometheus text exposition scraped
//! from `serve metrics --format prom` (TYPE declarations, sample syntax,
//! counter naming, cumulative histogram buckets).
//!
//! ```text
//! serve metrics --journal jobs.jsonl --format prom > metrics.prom
//! cargo run --release --example metrics_check -- metrics.prom
//! ```
//!
//! Pass `-` to read the exposition from stdin, so CI can pipe the scrape
//! straight through without a temp file.  Exits 1 when a check fails, 2
//! on a malformed command line (an unknown `--flag` among them).
//!
//! Optional `--expect <name>` flags (repeatable) additionally require a
//! sample of that exact metric name to be present — CI uses this to pin
//! the deterministic counter subset (`fleet_jobs_submitted_total`, ...)
//! so a renamed or dropped metric fails the scrape, not a dashboard.

use lv_metrics::validate_prometheus;
use std::io::Read;

/// Refuses the command line with exit 2, as `simulate`, `serve` and
/// `codesign_sweep` do.
fn usage(why: &str) -> ! {
    eprintln!("{why}; usage: metrics_check <metrics.prom|-> [--expect NAME]...");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut path, mut expect) = (None, Vec::new());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--expect" => {
                expect.push(args.next().unwrap_or_else(|| usage("--expect needs a name")))
            }
            _ if arg.starts_with("--") => usage(&format!("unknown flag {arg}")),
            _ if path.is_some() => usage(&format!("unexpected argument {arg}")),
            _ => path = Some(arg),
        }
    }
    let Some(path) = path else { usage("no exposition given") };

    let text = if path == "-" {
        let mut text = String::new();
        if let Err(err) = std::io::stdin().read_to_string(&mut text) {
            eprintln!("cannot read stdin: {err}");
            std::process::exit(1);
        }
        text
    } else {
        match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("cannot read {path}: {err}");
                std::process::exit(1);
            }
        }
    };

    let mut report = validate_prometheus(&text);
    for name in &expect {
        // A sample line starts with the bare name followed by a space or a
        // label block; a HELP/TYPE comment alone does not count.
        let present = text.lines().any(|line| {
            line.strip_prefix(name.as_str())
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        });
        report.push(
            format!("metric {name} present"),
            present,
            if present { "found" } else { "no sample with that name" },
        );
    }

    println!("metrics exposition ({path}):");
    print!("{}", report.to_text());
    if report.passed() {
        println!("metrics check passed");
    } else {
        println!("metrics check FAILED");
        std::process::exit(1);
    }
}
