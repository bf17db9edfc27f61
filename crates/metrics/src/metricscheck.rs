//! CI check over `lv-server` fleet metrics: structural validation of the
//! Prometheus text exposition.
//!
//! The server smoke step in CI scrapes `serve metrics --format prom` from
//! a live fleet and feeds the text through [`validate_prometheus`].

use crate::regression::GateReport;
use std::collections::BTreeMap;

/// One parsed sample line: metric name, optional `le` label, value.
struct Sample {
    name: String,
    le: Option<String>,
    value: f64,
}

/// Splits a sample line (`name{labels} value`) into its parts.
fn parse_sample(line: &str) -> Option<Sample> {
    let (name_labels, value) = line.rsplit_once(' ')?;
    let value: f64 = value.trim().parse().ok()?;
    let (name, le) = match name_labels.split_once('{') {
        None => (name_labels.trim(), None),
        Some((name, rest)) => {
            let labels = rest.strip_suffix('}')?;
            let le = labels.split(',').find_map(|pair| {
                let (key, val) = pair.split_once('=')?;
                (key.trim() == "le").then(|| val.trim().trim_matches('"').to_string())
            });
            (name.trim(), le)
        }
    };
    if name.is_empty() || name.contains(char::is_whitespace) {
        return None;
    }
    Some(Sample { name: name.to_string(), le, value })
}

/// The base metric a sample belongs to: histogram series samples
/// (`_bucket`, `_sum`, `_count`) roll up to their histogram's name when
/// that name is declared as one.
fn base_name<'a>(name: &'a str, types: &BTreeMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).is_some_and(|kind| kind == "histogram") {
                return base;
            }
        }
    }
    name
}

/// Validates a Prometheus text exposition (what `serve metrics --format
/// prom` emits) for CI.
///
/// Checks, in order:
///
/// 1. **exposition parses** — every non-comment line is `name[{labels}]
///    value` with a finite value, and every `# TYPE` names a known kind;
/// 2. **samples typed** — every sample belongs to a `# TYPE`-declared
///    metric (histogram `_bucket`/`_sum`/`_count` series included);
/// 3. **counters named `_total`** — counter naming convention holds;
/// 4. **histograms cumulative** — per histogram, `_bucket` values are
///    non-decreasing in emission order, the series ends at `le="+Inf"`,
///    and the `+Inf` bucket equals `_count`.
pub fn validate_prometheus(text: &str) -> GateReport {
    let mut report = GateReport::default();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut bad_lines: Vec<String> = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            if let (Some("TYPE"), Some(name), Some(kind)) =
                (words.next(), words.next(), words.next())
            {
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                    bad_lines.push(format!("line {}: unknown TYPE '{kind}'", number + 1));
                }
                types.insert(name.to_string(), kind.to_string());
            }
            continue;
        }
        match parse_sample(line) {
            Some(sample) if sample.value.is_finite() => samples.push(sample),
            _ => bad_lines.push(format!("line {}: not a sample: '{line}'", number + 1)),
        }
    }
    report.push(
        "exposition parses",
        bad_lines.is_empty(),
        if bad_lines.is_empty() {
            format!("{} type decl(s), {} sample(s)", types.len(), samples.len())
        } else {
            bad_lines.join("; ")
        },
    );
    if !bad_lines.is_empty() {
        return report;
    }

    let untyped: Vec<&str> = samples
        .iter()
        .map(|s| base_name(&s.name, &types))
        .filter(|base| !types.contains_key(*base))
        .collect();
    report.push(
        "samples typed",
        untyped.is_empty(),
        if untyped.is_empty() {
            format!("all {} sample(s) declared", samples.len())
        } else {
            format!("undeclared: {}", untyped.join(", "))
        },
    );

    let unsuffixed: Vec<&String> = types
        .iter()
        .filter(|(name, kind)| kind.as_str() == "counter" && !name.ends_with("_total"))
        .map(|(name, _)| name)
        .collect();
    report.push(
        "counters named _total",
        unsuffixed.is_empty(),
        if unsuffixed.is_empty() {
            format!(
                "{} counter(s) conform",
                types.values().filter(|k| k.as_str() == "counter").count()
            )
        } else {
            format!(
                "bad counter name(s): {}",
                unsuffixed.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(", ")
            )
        },
    );

    let mut histogram_faults: Vec<String> = Vec::new();
    let mut histograms = 0usize;
    for (name, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        histograms += 1;
        let buckets: Vec<&Sample> =
            samples.iter().filter(|s| s.name == format!("{name}_bucket")).collect();
        let count = samples.iter().find(|s| s.name == format!("{name}_count"));
        if buckets.is_empty() || count.is_none() {
            histogram_faults.push(format!("{name}: missing _bucket or _count series"));
            continue;
        }
        let mut last = f64::NEG_INFINITY;
        for bucket in &buckets {
            if bucket.le.is_none() {
                histogram_faults.push(format!("{name}: bucket without an le label"));
            }
            if bucket.value < last {
                histogram_faults.push(format!("{name}: bucket counts decrease"));
            }
            last = bucket.value;
        }
        match buckets.last().and_then(|b| b.le.as_deref()) {
            Some("+Inf") => {
                let inf = buckets.last().expect("non-empty").value;
                let count = count.expect("checked").value;
                if inf != count {
                    histogram_faults.push(format!("{name}: +Inf bucket {inf} != _count {count}"));
                }
            }
            _ => histogram_faults.push(format!("{name}: series does not end at le=\"+Inf\"")),
        }
    }
    report.push(
        "histograms cumulative",
        histogram_faults.is_empty(),
        if histogram_faults.is_empty() {
            format!("{histograms} histogram(s) checked")
        } else {
            histogram_faults.join("; ")
        },
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_exposition() -> String {
        "# HELP fleet_jobs_submitted_total jobs accepted\n\
         # TYPE fleet_jobs_submitted_total counter\n\
         fleet_jobs_submitted_total 5\n\
         # HELP fleet_queue_depth queued jobs\n\
         # TYPE fleet_queue_depth gauge\n\
         fleet_queue_depth 2\n\
         # HELP fleet_slice_us slice latency\n\
         # TYPE fleet_slice_us histogram\n\
         fleet_slice_us_bucket{le=\"1023\"} 1\n\
         fleet_slice_us_bucket{le=\"2047\"} 3\n\
         fleet_slice_us_bucket{le=\"+Inf\"} 4\n\
         fleet_slice_us_sum 5000\n\
         fleet_slice_us_count 4\n"
            .to_string()
    }

    #[test]
    fn a_live_exposition_validates_clean() {
        let report = validate_prometheus(&sample_exposition());
        assert!(report.passed(), "{}", report.to_text());
        assert_eq!(report.checks.len(), 4);
        assert!(report.to_text().contains("sample(s)"));
        assert!(report.to_text().contains("1 histogram(s) checked"));
    }

    #[test]
    fn garbage_fails_the_parse_check() {
        let report = validate_prometheus("this is not prometheus\n");
        assert!(!report.passed(), "{}", report.to_text());
        assert!(report.to_text().contains("not a sample"));
    }

    #[test]
    fn undeclared_samples_and_bad_counter_names_fail() {
        let report = validate_prometheus("orphan_metric 3\n");
        assert!(!report.passed());
        assert!(report.to_text().contains("undeclared: orphan_metric"));

        let text = "# TYPE fleet_jobs counter\nfleet_jobs 1\n";
        let report = validate_prometheus(text);
        assert!(!report.passed());
        assert!(report.to_text().contains("bad counter name(s): fleet_jobs"));
    }

    #[test]
    fn broken_histograms_fail_the_cumulative_check() {
        let decreasing = sample_exposition().replace(
            "fleet_slice_us_bucket{le=\"2047\"} 3",
            "fleet_slice_us_bucket{le=\"2047\"} 0",
        );
        let report = validate_prometheus(&decreasing);
        assert!(!report.passed(), "{}", report.to_text());
        assert!(report.to_text().contains("bucket counts decrease"));

        let mismatched =
            sample_exposition().replace("fleet_slice_us_count 4", "fleet_slice_us_count 9");
        let report = validate_prometheus(&mismatched);
        assert!(!report.passed());
        assert!(report.to_text().contains("!= _count"));

        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        let report = validate_prometheus(no_inf);
        assert!(!report.passed());
        assert!(report.to_text().contains("does not end at le=\"+Inf\""));
    }

    #[test]
    fn the_real_registry_exposition_passes() {
        use lv_trace::metrics::{MetricKind, MetricSpec, Registry};
        static SPECS: &[MetricSpec] = &[
            MetricSpec {
                name: "x_total",
                kind: MetricKind::Counter,
                deterministic: true,
                help: "a counter",
            },
            MetricSpec {
                name: "x_us",
                kind: MetricKind::Histogram,
                deterministic: false,
                help: "a histogram",
            },
        ];
        let registry = Registry::new(SPECS);
        registry.add(0, 3);
        registry.observe(1, 7);
        registry.observe(1, 9000);
        let report = validate_prometheus(&registry.snapshot().to_prometheus());
        assert!(report.passed(), "{}", report.to_text());
    }
}
