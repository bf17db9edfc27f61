//! Trace sinks and the replay parser.
//!
//! * [`write_jsonl`] — the line-JSON event log behind `simulate --trace`:
//!   one self-describing JSON object per line (`meta` — format, sizes and
//!   the vector lanes the recording host selected — then the span taxonomy,
//!   the counters and every event).  Every payload field is an integer, so
//!   a log replays to a bit-identical [`RunSummary`].
//! * [`parse_jsonl`] — the replay parser: each line goes through
//!   [`json::parse`], so a malformed line is refused with its line number,
//!   never read past.
//! * [`write_chrome`] — Chrome-tracing JSON (`--trace-format chrome`):
//!   complete `"ph": "X"` events, one `tid` per rank, loadable in
//!   `chrome://tracing` or <https://ui.perfetto.dev>.

use crate::json::{self, JsonArray, JsonObject, Value};
use crate::summary::RunSummary;
use crate::{spans, Event, SpanId, Trace};

/// Renders `events` + `counters` as the line-JSON log of a run whose host
/// selected `lanes` ([`Trace::lanes`]).
pub fn write_jsonl(lanes: &str, events: &[Event], counters: &[(String, u64, bool)]) -> String {
    let mut out = String::new();
    out.push_str(
        &JsonObject::new()
            .str("type", "meta")
            .u64("format", 1)
            .str("lanes", lanes)
            .usize("spans", spans::ALL.len())
            .usize("counters", counters.len())
            .usize("events", events.len())
            .finish(),
    );
    out.push('\n');
    for (id, info) in spans::ALL.iter().enumerate() {
        out.push_str(
            &JsonObject::new()
                .str("type", "span")
                .usize("id", id)
                .str("path", info.path)
                .bool("deterministic", info.deterministic)
                .finish(),
        );
        out.push('\n');
    }
    for (name, value, deterministic) in counters {
        out.push_str(
            &JsonObject::new()
                .str("type", "counter")
                .str("name", name)
                .u64("value", *value)
                .bool("deterministic", *deterministic)
                .finish(),
        );
        out.push('\n');
    }
    for event in events {
        out.push_str(
            &JsonObject::new()
                .str("type", "event")
                .u64("span", u64::from(event.span.0))
                .u64("rank", u64::from(event.rank))
                .u64("start_ns", event.start_ns)
                .u64("end_ns", event.end_ns)
                .u64("iters", event.iters)
                .u64("flops", event.flops)
                .u64("bytes", event.bytes)
                .u64("aux", event.aux)
                .finish(),
        );
        out.push('\n');
    }
    out
}

/// Renders `events` as a Chrome-tracing document (`ts`/`dur` in
/// microseconds, one `tid` per rank) under process id 0 — the single-run
/// export.  Multi-worker tooling must use [`write_chrome_with_pid`]
/// instead: two workers' rank-0 threads are unrelated, and folding them
/// onto one `(pid, tid)` track interleaves them in Perfetto.
pub fn write_chrome(events: &[Event]) -> String {
    write_chrome_with_pid(events, 0)
}

/// Renders `events` as a Chrome-tracing document under process id `pid`.
/// A merged fleet view gives each worker its own `pid` so every
/// `(worker, rank)` pair stays on its own track.
pub fn write_chrome_with_pid(events: &[Event], pid: u64) -> String {
    let mut rows = JsonArray::new();
    chrome_rows(&mut rows, events, pid);
    JsonObject::new().str("displayTimeUnit", "ns").array("traceEvents", rows).finish()
}

/// Appends the Chrome-tracing rows of `events` under `pid` to an existing
/// array — the merge primitive of `serve timeline`, which folds several
/// workers' logs (and journal-derived slice intervals) into one document.
pub fn chrome_rows(rows: &mut JsonArray, events: &[Event], pid: u64) {
    for event in events {
        let info = spans::info(event.span);
        let args = JsonObject::new()
            .u64("iters", event.iters)
            .u64("flops", event.flops)
            .u64("bytes", event.bytes)
            .u64("aux", event.aux);
        rows.push_object(
            JsonObject::new()
                .str("name", info.path)
                .str("cat", if info.deterministic { "deterministic" } else { "host" })
                .str("ph", "X")
                .f64_fixed("ts", event.start_ns as f64 / 1e3, 3)
                .f64_fixed("dur", (event.end_ns.saturating_sub(event.start_ns)) as f64 / 1e3, 3)
                .u64("pid", pid)
                .u64("tid", u64::from(event.rank))
                .object("args", args),
        );
    }
}

/// A parsed line-JSON log: the host's lanes and the span definitions it
/// carries, the counters and the events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// The vector lanes the recording host selected
    /// ([`UNKNOWN_LANES`](crate::UNKNOWN_LANES) for a log without the field).
    pub lanes: String,
    /// `(path, deterministic)` indexed by span id, as written in the log.
    pub defs: Vec<(String, bool)>,
    /// Counter rows `(name, value, deterministic)`.
    pub counters: Vec<(String, u64, bool)>,
    /// Every event, in log order.
    pub events: Vec<Event>,
}

impl TraceLog {
    /// Replays the log into its [`RunSummary`] — bit-identical to the
    /// summary of the live trace the log was written from.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            lanes: self.lanes.clone(),
            ..RunSummary::aggregate(&self.events, &self.defs, self.counters.clone())
        }
    }
}

/// Parses a [`write_jsonl`] log back into a [`TraceLog`].
///
/// # Errors
/// Returns a line-numbered message on the first line that is not a JSON
/// object of a known record type with every field it needs, in range.
pub fn parse_jsonl(text: &str) -> Result<TraceLog, String> {
    let mut log = TraceLog { lanes: crate::UNKNOWN_LANES.to_string(), ..TraceLog::default() };
    let mut saw_meta = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line}", lineno + 1);
        let record = json::parse(line).map_err(|e| err(&e))?;
        let get = |key: &str| record.get(key).ok_or_else(|| err(&format!("no {key}")));
        let text =
            |key: &str| get(key)?.as_str().ok_or_else(|| err(&format!("{key} not a string")));
        let flag = |key: &str| get(key)?.as_bool().ok_or_else(|| err(&format!("{key} not a bool")));
        let int = |key: &str| get(key)?.as_u64().ok_or_else(|| err(&format!("{key} not a u64")));
        match text("type")? {
            "meta" => {
                saw_meta = true;
                if let Some(lanes) = record.get("lanes").and_then(Value::as_str) {
                    log.lanes = lanes.to_string();
                }
            }
            "span" => {
                if int("id")? != log.defs.len() as u64 {
                    return Err(err("span ids must be dense and in order"));
                }
                log.defs.push((text("path")?.to_string(), flag("deterministic")?));
            }
            "counter" => log.counters.push((
                text("name")?.to_string(),
                int("value")?,
                flag("deterministic")?,
            )),
            "event" => {
                let narrow = |key: &str| {
                    u16::try_from(int(key)?).map_err(|_| err(&format!("{key} out of range")))
                };
                let span = narrow("span")?;
                if usize::from(span) >= log.defs.len() {
                    return Err(err("event references an undefined span"));
                }
                log.events.push(Event {
                    span: SpanId(span),
                    rank: narrow("rank")?,
                    start_ns: int("start_ns")?,
                    end_ns: int("end_ns")?,
                    iters: int("iters")?,
                    flops: int("flops")?,
                    bytes: int("bytes")?,
                    aux: int("aux")?,
                });
            }
            other => return Err(err(&format!("unknown record type {other:?}"))),
        }
    }
    if !saw_meta {
        return Err("no meta record — not an lv-trace log".to_string());
    }
    Ok(log)
}

impl Trace {
    /// Drains the trace into its line-JSON log.
    pub fn write_jsonl(&mut self) -> String {
        let events = self.events();
        write_jsonl(self.lanes(), &events, &self.counter_rows())
    }

    /// Drains the trace into a Chrome-tracing document.
    pub fn write_chrome(&mut self) -> String {
        let events = self.events();
        write_chrome(&events)
    }

    /// Drains the trace into a Chrome-tracing document under process id
    /// `pid` (one pid per worker in merged fleet views).
    pub fn write_chrome_with_pid(&mut self, pid: u64) -> String {
        let events = self.events();
        write_chrome_with_pid(&events, pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counters, TraceConfig};

    fn sample_trace() -> Trace {
        let trace = Trace::new(2, TraceConfig::default()).with_lanes("avx2");
        {
            let step = trace.span(spans::STEP, 0);
            trace.span(spans::POISSON, 0).iters(7).flops(123).bytes(4567).aux(99).finish();
            trace.record(Event::instant(spans::ASSEMBLY_CHUNK, 1, trace.now_ns()));
            step.finish();
        }
        trace.add(counters::STEPS, 1);
        trace.add(counters::POISSON_ITERATIONS, 7);
        trace
    }

    #[test]
    fn jsonl_replays_to_the_identical_summary() {
        let mut trace = sample_trace();
        let text = trace.write_jsonl();
        let live = RunSummary::from_trace(&mut trace);
        let log = parse_jsonl(&text).expect("log must parse");
        assert_eq!(log.defs.len(), spans::ALL.len());
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.lanes, "avx2");
        assert_eq!(log.summary(), live);
        // A log from before the header carried the lanes still replays.
        let old = text.replacen("\"lanes\": \"avx2\", ", "", 1);
        assert_ne!(old, text);
        assert_eq!(parse_jsonl(&old).expect("old log parses").lanes, crate::UNKNOWN_LANES);
    }

    #[test]
    fn jsonl_preserves_every_event_field() {
        let event = Event {
            span: spans::MG_LEVEL,
            rank: 3,
            start_ns: 1_000_000_007,
            end_ns: u64::MAX,
            iters: 42,
            flops: u64::MAX - 1,
            bytes: 7,
            aux: f64::to_bits(-1.5e-11),
        };
        let text = write_jsonl("baseline", &[event], &[("steps".to_string(), 0, true)]);
        let log = parse_jsonl(&text).unwrap();
        assert_eq!(log.events, vec![event]);
        assert_eq!(f64::from_bits(log.events[0].aux), -1.5e-11);
    }

    #[test]
    fn malformed_logs_are_rejected_with_line_numbers() {
        assert!(parse_jsonl("").unwrap_err().contains("no meta"));
        let mut good = sample_trace().write_jsonl();
        good.push_str("{\"type\": \"event\", \"span\": 9999}\n");
        let err = parse_jsonl(&good).unwrap_err();
        assert!(err.contains("undefined span") || err.contains("event field"), "{err}");
        let err = parse_jsonl("not json\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn out_of_range_ranks_and_spans_are_refused_with_line_numbers() {
        let text = write_jsonl("baseline", &[Event::instant(spans::STEP, 0, 5)], &[]);
        let n = text.lines().count();
        for (from, to) in [("\"rank\": 0", "\"rank\": 70000"), ("\"span\": 0", "\"span\": 65536")] {
            let err = parse_jsonl(&text.replacen(from, to, 1)).unwrap_err();
            assert!(err.starts_with(&format!("line {n}: {} out of range", &from[1..5])), "{err}");
        }
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_row_per_event() {
        let mut trace = sample_trace();
        let doc = trace.write_chrome();
        let value = json::parse(&doc).expect("valid JSON");
        let Some(Value::Array(rows)) = value.get("traceEvents") else { panic!("{doc}") };
        assert_eq!(rows.len(), 3);
        for row in rows {
            assert_eq!(row.get("ph").and_then(Value::as_str), Some("X"));
            assert!(row.get("ts").and_then(Value::as_f64).is_some());
            assert!(row.get("dur").and_then(Value::as_f64).is_some());
            assert!(row.get("name").and_then(Value::as_str).is_some());
        }
        let names: Vec<&str> =
            rows.iter().filter_map(|r| r.get("name").and_then(Value::as_str)).collect();
        assert!(names.contains(&"driver/step"));
        assert!(names.contains(&"driver/poisson"));
    }
}
