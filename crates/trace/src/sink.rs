//! Trace sinks and the replay parser.
//!
//! * [`write_jsonl`] — the line-JSON event log behind `simulate --trace`:
//!   one self-describing JSON object per line (`meta` — format, sizes and
//!   the vector lanes the recording host selected — then the span taxonomy,
//!   the counters and every event).  Every payload field is an integer, so
//!   a log replays to a bit-identical [`RunSummary`].
//! * [`parse_jsonl`] — the replay parser (hand-rolled: the log lines are
//!   flat, and keeping `lv-trace` dependency-free keeps `lv-runtime`
//!   dependency-light).
//! * [`write_chrome`] — Chrome-tracing JSON (`--trace-format chrome`):
//!   complete `"ph": "X"` events, one `tid` per rank, loadable in
//!   `chrome://tracing` or <https://ui.perfetto.dev>.

use crate::json::{JsonArray, JsonObject};
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
#[derive(Debug, Clone, PartialEq)]
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

fn find_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\": ");
    let start = line.find(&pattern)? + pattern.len();
    Some(&line[start..])
}

fn parse_u64(line: &str, key: &str) -> Option<u64> {
    let rest = find_value(line, key)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn parse_bool(line: &str, key: &str) -> Option<bool> {
    let rest = find_value(line, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

fn parse_str(line: &str, key: &str) -> Option<String> {
    let rest = find_value(line, key)?.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Parses a [`write_jsonl`] log back into a [`TraceLog`].
///
/// # Errors
/// Returns a line-numbered message on the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<TraceLog, String> {
    let mut log = TraceLog {
        lanes: crate::UNKNOWN_LANES.to_string(),
        defs: Vec::new(),
        counters: Vec::new(),
        events: Vec::new(),
    };
    let mut saw_meta = false;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line}", lineno + 1);
        if !(line.starts_with('{') && line.ends_with('}')) {
            return Err(err("not a JSON object"));
        }
        match parse_str(line, "type").ok_or_else(|| err("missing \"type\""))?.as_str() {
            "meta" => {
                saw_meta = true;
                if let Some(lanes) = parse_str(line, "lanes") {
                    log.lanes = lanes;
                }
            }
            "span" => {
                let id = parse_u64(line, "id").ok_or_else(|| err("span without id"))? as usize;
                let path = parse_str(line, "path").ok_or_else(|| err("span without path"))?;
                let det = parse_bool(line, "deterministic")
                    .ok_or_else(|| err("span without deterministic flag"))?;
                if id != log.defs.len() {
                    return Err(err("span ids must be dense and in order"));
                }
                log.defs.push((path, det));
            }
            "counter" => {
                let name = parse_str(line, "name").ok_or_else(|| err("counter without name"))?;
                let value = parse_u64(line, "value").ok_or_else(|| err("counter without value"))?;
                let det = parse_bool(line, "deterministic")
                    .ok_or_else(|| err("counter without deterministic flag"))?;
                log.counters.push((name, value, det));
            }
            "event" => {
                let field = |key: &str| parse_u64(line, key).ok_or_else(|| err("event field"));
                let span = field("span")?;
                if span as usize >= log.defs.len() {
                    return Err(err("event references an undefined span"));
                }
                log.events.push(Event {
                    span: SpanId(span as u16),
                    rank: field("rank")? as u16,
                    start_ns: field("start_ns")?,
                    end_ns: field("end_ns")?,
                    iters: field("iters")?,
                    flops: field("flops")?,
                    bytes: field("bytes")?,
                    aux: field("aux")?,
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
    fn chrome_export_is_valid_json_with_one_row_per_event() {
        let mut trace = sample_trace();
        let doc = trace.write_chrome();
        let value: serde_json::Value = serde_json::from_str(&doc).expect("valid JSON");
        let rows = value.get("traceEvents").and_then(serde_json::Value::as_array).expect("array");
        assert_eq!(rows.len(), 3);
        for row in rows {
            assert_eq!(row.get("ph").and_then(serde_json::Value::as_str), Some("X"));
            assert!(row.get("ts").and_then(serde_json::Value::as_f64).is_some());
            assert!(row.get("dur").and_then(serde_json::Value::as_f64).is_some());
            assert!(row.get("name").and_then(serde_json::Value::as_str).is_some());
        }
        let names: Vec<&str> =
            rows.iter().filter_map(|r| r.get("name").and_then(serde_json::Value::as_str)).collect();
        assert!(names.contains(&"driver/step"));
        assert!(names.contains(&"driver/poisson"));
    }
}
