//! The repo's one benchmark.
//!
//! ```text
//! lv-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lv-benchmark run --out <file> [--seed <n>] [--seconds <s>] [--repeat <k>]
//! lv-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload in this
//! process, tracing off (`--trace 0`, the end-to-end metrics) or on
//! (`--trace 1`, the per-layer metrics), its outputs checked, and one JSON
//! object as the last line of standard output.  `run` drives that form
//! once per workload and pass, each in its own process, and writes a result
//! file; `compare` applies every metric's bound to two result files.

mod compare;
mod host;
mod jsonio;
mod metrics;
mod pace;
mod probes;
mod spans;
mod stats;
mod suite;
mod workloads;

use lv_trace::json::JsonObject;
use metrics::{Layers, END_TO_END};
use spans::SpanLog;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Report, Size};

const USAGE: &str =
    "usage: lv-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] [--samples <file>]
       lv-benchmark run --out <file> [--seed <n>] [--seconds <s>] [--repeat <k>]
       lv-benchmark compare <a.json> <b.json>";

/// `--key value` pairs of a command line.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    pub fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut rest = args.iter();
        while let Some(key) = rest.next() {
            let name =
                key.strip_prefix("--").ok_or_else(|| format!("unexpected argument '{key}'"))?;
            let value = rest.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().rev().find(|(key, _)| key == name).map(|(_, value)| value.as_str())
    }

    pub fn number<T: std::str::FromStr>(
        &self,
        name: &str,
        default: Option<T>,
    ) -> Result<T, String> {
        match (self.get(name), default) {
            (Some(text), _) => text.parse().map_err(|_| format!("--{name}: cannot read '{text}'")),
            (None, Some(value)) => Ok(value),
            (None, None) => Err(format!("--{name} is required")),
        }
    }
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each value with all its digits.
fn result_line(report: &Report, metrics: &[(&str, &str, f64)]) -> String {
    let mut object = JsonObject::new();
    for (name, unit, value) in metrics {
        let value = if value.is_finite() { *value } else { 0.0 };
        object = object.object(name, JsonObject::new().f64("value", value).str("unit", unit));
    }
    JsonObject::new()
        .bool("correct", report.problems.is_empty() && report.failed == 0)
        .u64("attempted", report.attempted.max(1))
        .u64("failed", report.failed)
        .object("metrics", object)
        .finish()
}

fn run_workload(flags: &Flags) -> Result<(), String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", known.join(", "))
    })?;
    let seconds: f64 = flags.number("seconds", None)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match flags.number::<u8>("trace", None)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, got {other}")),
    };
    let ctx = Ctx {
        seed: flags.number("seed", None)?,
        seconds,
        size: Size::Full,
        out_dir: PathBuf::from(flags.get("out-dir").unwrap_or("benchmark/out")),
    };
    println!(
        "workload {name}, seed {}, {seconds} s window, tracing {}, T = {} of {} cores",
        ctx.seed,
        if trace { "on" } else { "off" },
        host::threads(),
        host::nproc()
    );

    let mut spans = SpanLog::new(name, trace);
    let (report, metrics): (Report, Vec<(&str, &str, f64)>) = if trace {
        let mut layers = Layers::default();
        let report = (workload.traced)(&ctx, &mut spans, &mut layers);
        layers.set("proc.peak_rss_mib", host::peak_rss_mib());
        if let Err(error) = spans.write(&ctx.out_dir) {
            eprintln!("could not write the trace: {error}");
        }
        (report, layers.rows().map(|(layer, value)| (layer.name, layer.unit, value)).collect())
    } else {
        let mut timed = (workload.timed)(&ctx, &mut spans);
        if let Some(path) = flags.get("samples") {
            let csv: String = timed.paced.iter().map(pace::Paced::csv).collect();
            std::fs::write(path, csv).map_err(|error| format!("{path}: {error}"))?;
        }
        timed
            .report
            .lines
            .push(format!("peak RSS {:.1} MiB (VmHWM, not gated)", host::peak_rss_mib()));
        let values = [timed.unit_ms, timed.setup_s];
        (timed.report, END_TO_END.iter().zip(values).map(|(m, v)| (m.name, m.unit, v)).collect())
    };
    for line in &report.lines {
        println!("  {line}");
    }
    for problem in &report.problems {
        println!("  CHECK FAILED: {problem}");
    }
    for (name, unit, value) in &metrics {
        println!("  {name} = {value} {unit}");
    }
    println!(
        "  attempted {}, failed {}, {} output checks",
        report.attempted, report.failed, report.checks
    );
    println!("{}", result_line(&report, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(|flags| suite::run(&flags)),
        Some("compare") => match &args[1..] {
            [a, b] => return ExitCode::from(compare::run(a, b) as u8),
            _ => Err("compare takes two result files".to_string()),
        },
        _ => Flags::parse(&args).and_then(|flags| run_workload(&flags)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("lv-benchmark: {error}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_pairs_and_refuse_strays() {
        let args: Vec<String> =
            ["--seed", "7", "--trace", "1"].iter().map(|s| s.to_string()).collect();
        let flags = Flags::parse(&args).unwrap();
        assert_eq!(flags.number::<u64>("seed", None), Ok(7));
        assert_eq!(flags.number::<u64>("repeat", Some(3)), Ok(3));
        assert!(flags.number::<u64>("seconds", None).is_err());
        assert!(Flags::parse(&["stray".to_string()]).is_err());
        assert!(Flags::parse(&["--seed".to_string()]).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let report = Report { attempted: 12, failed: 0, ..Report::default() };
        let line = result_line(&report, &[("unit_ms", "ms", 1.25), ("setup_s", "s", f64::NAN)]);
        let value = jsonio::parse(&line).expect("one JSON object");
        let keys: Vec<&str> = value.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let unit_ms = value.get("metrics").and_then(|m| m.get("unit_ms")).unwrap();
        assert_eq!(unit_ms.get("value").and_then(jsonio::Value::as_f64), Some(1.25));
        assert_eq!(unit_ms.get("unit").and_then(jsonio::Value::as_str), Some("ms"));
        assert!(!line.contains('\n') && !line.contains("null"));
    }
}
