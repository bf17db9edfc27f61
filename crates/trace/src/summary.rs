//! End-of-run aggregation: the roofline-style [`RunSummary`] table.
//!
//! The summary is built from integers only (event counts, nanosecond
//! totals, iteration/FLOP/byte tallies), so a summary computed live and one
//! replayed from a [`sink`](crate::sink) log compare with `==` — the replay
//! contract the telemetry tests pin down.  Derived rates (GFLOP/s, GB/s,
//! time shares) are computed at render time and never stored.

use crate::{spans, Event, Trace};

/// Aggregate of every event recorded under one span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Taxonomy path.
    pub path: String,
    /// Whether `events`/`iters`/`flops`/`bytes` are thread-count invariant.
    pub deterministic: bool,
    /// Recorded events.
    pub events: u64,
    /// Summed wall-clock nanoseconds (advisory; inclusive of nested spans).
    pub total_ns: u64,
    /// Summed iteration tallies.
    pub iters: u64,
    /// Summed modeled FLOPs.
    pub flops: u64,
    /// Summed modeled streamed bytes.
    pub bytes: u64,
}

impl SpanSummary {
    /// Wall-clock seconds (advisory).
    pub fn seconds(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Modeled bandwidth implied by the modeled bytes over the measured
    /// wall-clock, GB/s (`NaN` when no time was recorded).
    pub fn achieved_gbps(&self) -> f64 {
        self.bytes as f64 / self.total_ns as f64
    }

    /// Modeled compute rate over the measured wall-clock, GFLOP/s.
    pub fn achieved_gflops(&self) -> f64 {
        self.flops as f64 / self.total_ns as f64
    }
}

/// The end-of-run report: per-span aggregates plus the global counters, and
/// which vector lanes the host ran them at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// The vector lanes the recording host selected ([`Trace::lanes`]) —
    /// host-dependent, shown by [`to_text`](Self::to_text), never part of
    /// [`deterministic_fingerprint`](Self::deterministic_fingerprint).
    pub lanes: String,
    /// Per-span aggregates in taxonomy order; spans with zero events are
    /// omitted.
    pub spans: Vec<SpanSummary>,
    /// `(name, value, deterministic)` counter rows.
    pub counters: Vec<(String, u64, bool)>,
}

impl RunSummary {
    /// Aggregates `events` against span definitions `defs`
    /// (`(path, deterministic)` indexed by span id).
    pub fn aggregate(
        events: &[Event],
        defs: &[(String, bool)],
        counters: Vec<(String, u64, bool)>,
    ) -> RunSummary {
        let mut spans: Vec<SpanSummary> = defs
            .iter()
            .map(|(path, det)| SpanSummary {
                path: path.clone(),
                deterministic: *det,
                events: 0,
                total_ns: 0,
                iters: 0,
                flops: 0,
                bytes: 0,
            })
            .collect();
        for event in events {
            let Some(span) = spans.get_mut(event.span.0 as usize) else {
                continue;
            };
            span.events += 1;
            span.total_ns += event.end_ns.saturating_sub(event.start_ns);
            span.iters += event.iters;
            span.flops += event.flops;
            span.bytes += event.bytes;
        }
        spans.retain(|s| s.events > 0);
        RunSummary { lanes: crate::UNKNOWN_LANES.to_string(), spans, counters }
    }

    /// Aggregates `events` against the built-in taxonomy ([`spans::ALL`]).
    pub fn from_events(events: &[Event], counters: Vec<(String, u64, bool)>) -> RunSummary {
        let defs: Vec<(String, bool)> =
            spans::ALL.iter().map(|s| (s.path.to_string(), s.deterministic)).collect();
        RunSummary::aggregate(events, &defs, counters)
    }

    /// Drains a live [`Trace`] into its summary (events are left in place;
    /// `&mut` only guarantees no recorder is active).
    pub fn from_trace(trace: &mut Trace) -> RunSummary {
        let events = trace.events();
        RunSummary {
            lanes: trace.lanes().to_string(),
            ..RunSummary::from_events(&events, trace.counter_rows())
        }
    }

    /// The aggregate of span `path`, when any event was recorded under it.
    pub fn span(&self, path: &str) -> Option<&SpanSummary> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Value of counter `name`, when present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// Summed wall-clock seconds of span `path` (0.0 when absent).
    pub fn phase_seconds(&self, path: &str) -> f64 {
        self.span(path).map_or(0.0, SpanSummary::seconds)
    }

    /// The thread-count-invariant subset, flattened to `(label, value)`
    /// rows: every deterministic counter plus
    /// `events`/`iters`/`flops`/`bytes` of every deterministic span.  Two
    /// runs of the same scenario at different thread counts must produce
    /// `==` fingerprints — the determinism contract of the subsystem.
    pub fn deterministic_fingerprint(&self) -> Vec<(String, u64)> {
        let mut rows = Vec::new();
        for (name, value, det) in &self.counters {
            if *det {
                rows.push((format!("counter/{name}"), *value));
            }
        }
        for span in &self.spans {
            if !span.deterministic {
                continue;
            }
            rows.push((format!("span/{}/events", span.path), span.events));
            rows.push((format!("span/{}/iters", span.path), span.iters));
            rows.push((format!("span/{}/flops", span.path), span.flops));
            rows.push((format!("span/{}/bytes", span.path), span.bytes));
        }
        rows
    }

    /// Renders the roofline-style table: per-span time share (of the
    /// `driver/step` total when present), iterations, and the bandwidth /
    /// compute rate the modeled traffic implies over the measured wall
    /// clock.
    pub fn to_text(&self) -> String {
        let step_ns = self.span("driver/step").map_or(0, |s| s.total_ns);
        let mut out = String::from(
            "span                        events     time ms  share      iters   GFLOP/s      GB/s  det\n",
        );
        for span in &self.spans {
            let share = if step_ns > 0 {
                format!("{:5.1}%", span.total_ns as f64 / step_ns as f64 * 100.0)
            } else {
                "     -".to_string()
            };
            let rate = |v: f64| {
                if v.is_finite() && v > 0.0 {
                    format!("{v:9.2}")
                } else {
                    "        -".to_string()
                }
            };
            out.push_str(&format!(
                "{:<26} {:>7} {:>11.3} {:>6} {:>10} {} {}  {}\n",
                span.path,
                span.events,
                span.total_ns as f64 * 1e-6,
                share,
                span.iters,
                rate(span.achieved_gflops()),
                rate(span.achieved_gbps()),
                if span.deterministic { "yes" } else { "no" },
            ));
        }
        out.push_str(&format!("host:\n  {:<24} {:>14}  host-dependent\n", "lanes", self.lanes));
        out.push_str("counters:\n");
        for (name, value, det) in &self.counters {
            out.push_str(&format!(
                "  {:<24} {:>14}  {}\n",
                name,
                value,
                if *det { "deterministic" } else { "host-dependent" }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, SpanId, Trace, TraceConfig};

    fn event(span: SpanId, rank: u16, ns: (u64, u64), tallies: (u64, u64, u64)) -> Event {
        Event {
            span,
            rank,
            start_ns: ns.0,
            end_ns: ns.1,
            iters: tallies.0,
            flops: tallies.1,
            bytes: tallies.2,
            aux: 0,
        }
    }

    #[test]
    fn aggregation_sums_per_span_and_omits_empty_spans() {
        let events = vec![
            event(spans::STEP, 0, (0, 100), (0, 0, 0)),
            event(spans::POISSON, 0, (10, 40), (7, 100, 1000)),
            event(spans::POISSON, 0, (50, 90), (8, 200, 3000)),
        ];
        let summary = RunSummary::from_events(&events, vec![("steps".into(), 1, true)]);
        assert_eq!(summary.spans.len(), 2);
        let poisson = summary.span("driver/poisson").unwrap();
        assert_eq!(poisson.events, 2);
        assert_eq!(poisson.total_ns, 70);
        assert_eq!(poisson.iters, 15);
        assert_eq!(poisson.flops, 300);
        assert_eq!(poisson.bytes, 4000);
        assert!(summary.span("driver/momentum").is_none());
        assert_eq!(summary.counter("steps"), Some(1));
        assert_eq!(summary.phase_seconds("driver/poisson"), 70e-9);
    }

    #[test]
    fn fingerprint_excludes_host_dependent_rows() {
        let events = vec![
            event(spans::POISSON, 0, (0, 10), (7, 0, 0)),
            event(spans::ASSEMBLY_CHUNK, 1, (0, 5), (0, 10, 10)),
        ];
        let counters =
            vec![("steps".to_string(), 3, true), ("dropped_events".to_string(), 9, false)];
        let summary = RunSummary::from_events(&events, counters);
        let fingerprint = summary.deterministic_fingerprint();
        assert!(fingerprint.iter().any(|(k, v)| k == "counter/steps" && *v == 3));
        assert!(fingerprint.iter().any(|(k, v)| k == "span/driver/poisson/iters" && *v == 7));
        assert!(!fingerprint.iter().any(|(k, _)| k.contains("dropped_events")));
        assert!(!fingerprint.iter().any(|(k, _)| k.contains("assembly/chunk")));
    }

    #[test]
    fn fingerprints_ignore_wall_clock_differences() {
        let fast = vec![event(spans::POISSON, 0, (0, 10), (7, 100, 1000))];
        let slow = vec![event(spans::POISSON, 0, (5, 5000), (7, 100, 1000))];
        let counters = |v| vec![("steps".to_string(), v, true)];
        let a = RunSummary::from_events(&fast, counters(1));
        let b = RunSummary::from_events(&slow, counters(1));
        assert_ne!(a, b); // wall clock differs...
        assert_eq!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
        // ...the contract holds
    }

    #[test]
    fn the_lanes_are_shown_and_never_fingerprinted() {
        let run = |lanes| {
            let mut trace = Trace::new(1, TraceConfig::default()).with_lanes(lanes);
            trace.span(spans::POISSON, 0).iters(7).flops(100).bytes(800).finish();
            trace.add(crate::counters::STEPS, 1);
            RunSummary::from_trace(&mut trace)
        };
        let (wide, narrow) = (run("avx2"), run("baseline"));
        assert_eq!((wide.lanes.as_str(), narrow.lanes.as_str()), ("avx2", "baseline"));
        assert_ne!(wide, narrow);
        assert_eq!(wide.deterministic_fingerprint(), narrow.deterministic_fingerprint());
        assert!(wide.to_text().contains("avx2  host-dependent"), "{}", wide.to_text());
    }

    #[test]
    fn from_trace_matches_from_events_and_renders() {
        let mut trace = Trace::new(2, TraceConfig::default());
        trace.span(spans::STEP, 0).finish();
        trace.span(spans::MG_VCYCLE, 0).iters(1).flops(50).bytes(400).finish();
        trace.add(crate::counters::STEPS, 1);
        let summary = RunSummary::from_trace(&mut trace);
        let by_events = RunSummary::from_events(&trace.events(), trace.counter_rows());
        assert_eq!(summary, by_events);
        let text = summary.to_text();
        assert!(text.contains("solver/mg/vcycle"));
        assert!(text.contains("deterministic"));
        assert!(text.contains("steps"));
    }
}
