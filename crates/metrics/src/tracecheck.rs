//! CI check over `lv-trace` artifacts: structural validation of the
//! line-JSON span log.
//!
//! The trace smoke step in CI runs `simulate --trace run.jsonl`, then feeds
//! the file through [`validate_trace_jsonl`]: the log must parse, every
//! event must carry ordered timestamps, and the spans of each rank must
//! nest properly (a span closes inside whatever span encloses it — partial
//! overlaps on one rank mean the instrumentation is broken, not the code
//! under test).  What tracing costs is measured by the benchmark
//! (`trace.overhead_ratio` of a traced `cavity32` pass), not here.

use crate::regression::GateReport;
use lv_trace::sink::parse_jsonl;
use lv_trace::Event;

/// Validates a [`lv_trace::sink::write_jsonl`] log for CI.
///
/// Checks, in order:
///
/// 1. **parses** — the text is a well-formed log (meta record, dense span
///    taxonomy, counters, events);
/// 2. **timestamps ordered** — every event has `end_ns >= start_ns`;
/// 3. **spans nest** — per rank, no two span intervals partially overlap:
///    sorted by start time, each span either completes before the enclosing
///    one or closes strictly inside it.  Ranks record their own events from
///    their own call stacks, so anything else is an instrumentation bug.
///
/// Returns a [`GateReport`] whose details name the counts checked, so a CI
/// log shows *what* was validated, not just a green tick.
pub fn validate_trace_jsonl(text: &str) -> GateReport {
    let mut report = GateReport::default();
    let log = match parse_jsonl(text) {
        Ok(log) => log,
        Err(err) => {
            report.push("trace parses", false, err);
            return report;
        }
    };
    report.push(
        "trace parses",
        true,
        format!(
            "{} span def(s), {} counter(s), {} event(s), recorded at {} lanes",
            log.defs.len(),
            log.counters.len(),
            log.events.len(),
            log.lanes
        ),
    );

    let disordered = log.events.iter().filter(|e| e.end_ns < e.start_ns).count();
    report.push(
        "timestamps ordered",
        disordered == 0,
        if disordered == 0 {
            format!("end_ns >= start_ns on all {} event(s)", log.events.len())
        } else {
            format!("{disordered} event(s) with end_ns < start_ns")
        },
    );

    let ranks: Vec<u16> = {
        let mut r: Vec<u16> = log.events.iter().map(|e| e.rank).collect();
        r.sort_unstable();
        r.dedup();
        r
    };
    let mut straddles = Vec::new();
    for &rank in &ranks {
        let mut intervals: Vec<&Event> = log.events.iter().filter(|e| e.rank == rank).collect();
        // Start-ascending, then longest first: an enclosing span that opened
        // the same nanosecond as its child must be visited first.
        intervals.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.end_ns)));
        let mut stack: Vec<u64> = Vec::new();
        for event in intervals {
            while stack.last().is_some_and(|&end| end <= event.start_ns) {
                stack.pop();
            }
            if let Some(&enclosing_end) = stack.last() {
                if event.end_ns > enclosing_end {
                    straddles.push(format!(
                        "rank {rank}: [{}, {}] straddles a span ending at {enclosing_end}",
                        event.start_ns, event.end_ns
                    ));
                }
            }
            stack.push(event.end_ns);
        }
    }
    report.push(
        "spans nest",
        straddles.is_empty(),
        if straddles.is_empty() {
            format!("proper nesting on {} rank(s)", ranks.len())
        } else {
            straddles.join("; ")
        },
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_trace::{counters, spans, Trace, TraceConfig};

    fn sample_log() -> String {
        let mut trace = Trace::new(2, TraceConfig::default());
        {
            let step = trace.span(spans::STEP, 0);
            trace.span(spans::ASSEMBLY, 0).iters(1).finish();
            trace.span(spans::POISSON, 0).iters(9).flops(100).bytes(800).finish();
            trace.record(Event::instant(spans::ASSEMBLY_CHUNK, 1, trace.now_ns()));
            step.iters(1).finish();
        }
        trace.add(counters::STEPS, 1);
        trace.write_jsonl()
    }

    #[test]
    fn a_live_log_validates_clean() {
        let report = validate_trace_jsonl(&sample_log());
        assert!(report.passed(), "{}", report.to_text());
        assert_eq!(report.checks.len(), 3);
        assert!(report.to_text().contains("event(s)"));
        assert!(report.to_text().contains("rank(s)"));
    }

    #[test]
    fn a_malformed_log_fails_the_parse_check() {
        let report = validate_trace_jsonl("not a log\n");
        assert!(!report.passed());
        assert_eq!(report.checks.len(), 1);
        assert!(report.checks[0].detail.contains("line 1"));
    }

    #[test]
    fn straddling_spans_on_one_rank_fail_the_nesting_check() {
        // [0, 100] and [50, 150] on rank 0 partially overlap — impossible
        // from scoped instrumentation on one thread.
        let events = [
            Event { end_ns: 100, iters: 1, ..Event::instant(spans::STEP, 0, 0) },
            Event { end_ns: 150, iters: 1, ..Event::instant(spans::ASSEMBLY, 0, 50) },
        ];
        let text = lv_trace::sink::write_jsonl("baseline", &events, &[]);
        let report = validate_trace_jsonl(&text);
        assert!(!report.passed(), "{}", report.to_text());
        assert!(report.to_text().contains("straddles"));

        // The same two intervals on different ranks are independent stacks.
        let events = [
            Event { end_ns: 100, iters: 1, ..Event::instant(spans::STEP, 0, 0) },
            Event { end_ns: 150, iters: 1, ..Event::instant(spans::ASSEMBLY, 1, 50) },
        ];
        let text = lv_trace::sink::write_jsonl("baseline", &events, &[]);
        assert!(validate_trace_jsonl(&text).passed());
    }

    #[test]
    fn shared_boundaries_and_zero_width_spans_still_nest() {
        // A child opening the same ns as its parent, an instant event at
        // the parent's close, and back-to-back siblings sharing an edge.
        let events = [
            Event { end_ns: 100, iters: 1, ..Event::instant(spans::STEP, 0, 0) },
            Event { end_ns: 40, iters: 1, ..Event::instant(spans::ASSEMBLY, 0, 0) },
            Event { end_ns: 100, iters: 1, ..Event::instant(spans::POISSON, 0, 40) },
            Event::instant(spans::RETRY, 0, 100),
        ];
        let text = lv_trace::sink::write_jsonl("baseline", &events, &[]);
        let report = validate_trace_jsonl(&text);
        assert!(report.passed(), "{}", report.to_text());
    }

    #[test]
    fn reversed_timestamps_fail_the_order_check() {
        let events = [Event { end_ns: 5, ..Event::instant(spans::STEP, 0, 10) }];
        let text = lv_trace::sink::write_jsonl("baseline", &events, &[]);
        let report = validate_trace_jsonl(&text);
        assert!(!report.passed());
        assert!(report.to_text().contains("end_ns < start_ns"));
    }
}
