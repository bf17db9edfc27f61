//! `run --out <file>`: every workload in its own process — `--repeat` timed
//! runs (tracing off, consecutive seeds) and one shorter-lived traced pass
//! — collected into one result file with the host block.  The file is what
//! `compare` reads.

use crate::jsonio::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::{host, stats, workloads, Flags};
use lv_trace::json::{JsonArray, JsonObject};
use std::process::{Command, Stdio};

/// Runs this executable on one workload and returns the parsed last line.
/// The child's report lines are echoed, indented.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|error| format!("current_exe: {error}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|error| format!("{workload}: {error}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("    {line}");
    }
    if !output.status.success() {
        return Err(format!("{workload}: exited with {}", output.status));
    }
    jsonio::parse(last).map_err(|error| format!("{workload}: last line is not a result ({error})"))
}

fn metric_value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

fn count(result: &Value, key: &str) -> f64 {
    result.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn array(values: impl IntoIterator<Item = f64>) -> JsonArray {
    let mut out = JsonArray::new();
    for value in values {
        out.push_raw(&lv_trace::json::fmt_f64(value));
    }
    out
}

pub fn run(flags: &Flags) -> Result<(), String> {
    let out = flags.get("out").ok_or("run: --out <file> is required")?.to_string();
    let seed: u64 = flags.number("seed", Some(1))?;
    let seconds: f64 = flags.number("seconds", Some(30.0))?;
    let repeat: u64 = flags.number("repeat", Some(3))?;
    if repeat == 0 {
        return Err("run: --repeat must be at least 1".to_string());
    }

    let mut rows = JsonArray::new();
    let mut all_correct = true;
    for workload in workloads::ALL {
        println!("== {} ==", workload.name);
        let timed: Vec<Value> = (0..repeat)
            .map(|i| child(workload.name, seed + i, seconds, false))
            .collect::<Result<_, _>>()?;
        let traced = child(workload.name, seed, seconds, true)?;
        let correct = timed
            .iter()
            .chain([&traced])
            .all(|result| result.get("correct") == Some(&Value::Bool(true)));
        all_correct &= correct;

        let mut end_to_end = JsonObject::new();
        for metric in END_TO_END {
            let values: Vec<f64> =
                timed.iter().map(|result| metric_value(result, metric.name)).collect();
            println!(
                "  {:<12} median {:>12.5} {:<4} spread {:>5.1} % (bound {:.0} %, n = {})",
                metric.name,
                stats::median(&values),
                metric.unit,
                100.0 * stats::spread(&values),
                100.0 * metric.bound,
                values.len()
            );
            end_to_end = end_to_end.object(
                metric.name,
                JsonObject::new()
                    .str("unit", metric.unit)
                    .str("better", metric.better.name())
                    .f64("bound", metric.bound)
                    .f64("median", stats::median(&values))
                    .array("values", array(values)),
            );
        }
        let mut per_layer = JsonObject::new();
        for layer in PER_LAYER {
            per_layer = per_layer.object(
                layer.name,
                JsonObject::new()
                    .str("unit", layer.unit)
                    .str("better", layer.better.name())
                    .f64("value", metric_value(&traced, layer.name)),
            );
        }
        rows.push_object(
            JsonObject::new()
                .str("name", workload.name)
                .bool("correct", correct)
                .array("attempted", array(timed.iter().map(|result| count(result, "attempted"))))
                .array("failed", array(timed.iter().map(|result| count(result, "failed"))))
                .object("end_to_end", end_to_end)
                .object("per_layer", per_layer),
        );
    }

    let host = JsonObject::new()
        .usize("nproc", host::nproc())
        .usize("threads", host::threads())
        .u64("l2_kib", host::cache_kib(2))
        .u64("l3_kib", host::cache_kib(3))
        .str("rustc", &host::rustc_version());
    let document = JsonObject::new()
        .str("schema", "lv-benchmark/1")
        .u64("seed", seed)
        .f64("seconds", seconds)
        .u64("repeat", repeat)
        .object("host", host)
        .array("workloads", rows)
        .finish();
    std::fs::write(&out, document + "\n").map_err(|error| format!("{out}: {error}"))?;
    println!("wrote {out}");
    if all_correct {
        Ok(())
    } else {
        Err("an output check failed (see CHECK FAILED above)".to_string())
    }
}
