//! CI's trace checker: validates a `simulate --trace` line-JSON log
//! (structure, timestamp order, per-rank span nesting).
//!
//! ```text
//! cargo run --release --example trace_check -- <trace.jsonl>
//! ```
//!
//! Exits non-zero when any check fails.  What tracing costs is a number of
//! the benchmark (`trace.overhead_ratio` of a traced `cavity32` pass).

use lv_metrics::validate_trace_jsonl;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: trace_check <trace.jsonl>");
        std::process::exit(2);
    };

    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {path}: {err}");
            std::process::exit(1);
        }
    };
    let report = validate_trace_jsonl(&text);
    println!("trace log ({path}):");
    print!("{}", report.to_text());

    if report.passed() {
        println!("trace check passed");
    } else {
        println!("trace check FAILED");
        std::process::exit(1);
    }
}
