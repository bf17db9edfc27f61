//! Benchmark-side spans: one per call into a layer, recorded from this
//! package's own files (spans inside the program are `lv-trace`'s job).
//!
//! Spans are kept in memory and written once, when the run ends.  Every
//! timed call goes through [`SpanLog::time`] in both modes, so the timed
//! and the traced pass execute the same code; with tracing off the log
//! keeps nothing.

use lv_trace::json::JsonObject;
use lv_trace::summary::RunSummary;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that was open when this one started.
    parent: Option<usize>,
}

/// Handle of an open parent span (see [`SpanLog::enter`]).
#[derive(Debug)]
pub struct Open(Option<usize>);

/// The in-memory span log of one workload run.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// `lv-trace` summaries of the traced teams and servers, by label.
    summaries: Vec<(String, RunSummary)>,
}

impl SpanLog {
    pub fn new(workload: &str, enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            summaries: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that other spans nest under; close it with
    /// [`exit`](Self::exit).
    pub fn enter(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name: name.to_string(), start_ns: now, end_ns: now, parent });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    pub fn exit(&mut self, open: Open) {
        if let Open(Some(index)) = open {
            self.spans[index].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans close in the order they opened");
        }
    }

    /// Runs `f` under a leaf span and returns its result with the elapsed
    /// seconds.  The stopwatch runs in both modes.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name);
        let start = Instant::now();
        let result = f();
        let seconds = start.elapsed().as_secs_f64();
        self.exit(open);
        (result, seconds)
    }

    /// Keeps an `lv-trace` summary to be written beside the spans.
    pub fn attach(&mut self, label: &str, summary: RunSummary) {
        if self.enabled {
            self.summaries.push((label.to_string(), summary));
        }
    }

    /// Writes `trace-<workload>.jsonl` into `dir`: one line per span
    /// (`id`, `parent`, `name`, `start_ns`, `end_ns`, `workload`), then one
    /// line per `lv-trace` span summary.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let line = JsonObject::new()
                .str("workload", &self.workload)
                .usize("id", id)
                .raw("parent", &parent)
                .str("name", &span.name)
                .u64("start_ns", span.start_ns)
                .u64("end_ns", span.end_ns);
            out.push_str(&line.finish());
            out.push('\n');
        }
        for (label, summary) in &self.summaries {
            for span in &summary.spans {
                let line = JsonObject::new()
                    .str("workload", &self.workload)
                    .str("lv_trace", label)
                    .str("span", &span.path)
                    .u64("events", span.events)
                    .u64("total_ns", span.total_ns)
                    .u64("iters", span.iters)
                    .u64("flops", span.flops)
                    .u64("bytes", span.bytes);
                out.push_str(&line.finish());
                out.push('\n');
            }
        }
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("trace-{}.jsonl", self.workload)), out)
    }

    #[cfg(test)]
    fn recorded(&self) -> Vec<(String, Option<usize>)> {
        self.spans.iter().map(|s| (s.name.clone(), s.parent)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_parent() {
        let mut log = SpanLog::new("w", true);
        let pass = log.enter("pass");
        let (value, seconds) = log.time("leaf", || 7);
        assert_eq!(value, 7);
        assert!(seconds >= 0.0);
        log.exit(pass);
        log.time("after", || ());
        assert_eq!(
            log.recorded(),
            [
                ("pass".to_string(), None),
                ("leaf".to_string(), Some(0)),
                ("after".to_string(), None)
            ]
        );
    }

    #[test]
    fn a_disabled_log_times_but_keeps_nothing() {
        let mut log = SpanLog::new("w", false);
        let pass = log.enter("pass");
        let ((), seconds) =
            log.time("leaf", || std::thread::sleep(std::time::Duration::from_millis(2)));
        log.exit(pass);
        assert!(seconds >= 0.002);
        assert!(log.recorded().is_empty());
    }
}
