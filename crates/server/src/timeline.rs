//! Journal-derived timelines: what the fleet did, reconstructed after the
//! fact from the one artefact that always survives — the journal — plus
//! any per-worker trace logs the run left behind.
//!
//! Two renderings:
//!
//! * [`text_timeline`] — a per-job, human-readable ledger of transitions
//!   with `+elapsed` offsets from the first journalled record;
//! * [`chrome_timeline`] — one merged Chrome-tracing document: each
//!   journal slice (a `running` record closed by the job's next record)
//!   becomes a complete `"ph": "X"` event on `pid = worker`, and each
//!   worker's trace log is folded in via [`lv_trace::sink::chrome_rows`]
//!   under the same pid, one tid per rank.  Journal slices sit on
//!   synthetic tids (`1000 + submit index`) so they never collide with
//!   rank tracks.
//!
//! Time-base caveat: journal rows carry wall-clock `at_ms` (rebased to the
//! first record), worker trace events carry their own monotonic-clock
//! epochs.  Tracks within one source line up exactly; *across* sources the
//! alignment is approximate — like every wall-clock reading in this repo,
//! it is advisory.

use crate::journal::{EventKind, Record};
use lv_trace::json::{JsonArray, JsonObject};
use lv_trace::sink::{chrome_rows, TraceLog};

/// One closed slice reconstructed from the journal: a `running` record and
/// the record that resolved it.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceInterval {
    /// Job id.
    pub job: String,
    /// Worker that ran the slice.
    pub worker: u64,
    /// Wall-clock start/end, milliseconds since the Unix epoch.
    pub start_ms: u64,
    /// Wall-clock end (equal to `start_ms` for an unresolved tail slice).
    pub end_ms: u64,
    /// Resume step the slice started from.
    pub from_step: u64,
    /// How the slice resolved (`preempted`, `done`, `retrying`, `failed`,
    /// or `running` if the journal ends mid-slice).
    pub outcome: &'static str,
}

/// Folds `records` into closed slice intervals (submit order preserved).
/// `slow_convergence` records are diagnostic and do not resolve a slice.
pub fn slice_intervals(records: &[Record]) -> Vec<SliceInterval> {
    let mut open: Vec<(String, u64, u64, u64)> = Vec::new(); // job, worker, start, step
    let mut intervals = Vec::new();
    for record in records {
        if record.event == EventKind::SlowConvergence {
            continue;
        }
        if let Some(at) = open.iter().position(|(job, ..)| *job == record.job) {
            let (job, worker, start_ms, from_step) = open.remove(at);
            intervals.push(SliceInterval {
                job,
                worker,
                start_ms,
                end_ms: record.at_ms.unwrap_or(start_ms).max(start_ms),
                from_step,
                outcome: record.event.name(),
            });
        }
        if record.event == EventKind::Running {
            open.push((
                record.job.clone(),
                record.worker.unwrap_or(0),
                record.at_ms.unwrap_or(0),
                record.step.unwrap_or(0),
            ));
        }
    }
    for (job, worker, start_ms, from_step) in open {
        intervals.push(SliceInterval {
            job,
            worker,
            start_ms,
            end_ms: start_ms,
            from_step,
            outcome: "running",
        });
    }
    intervals
}

/// Renders the journal as a human-readable timeline, optionally filtered
/// to one `job`.  Offsets are relative to the first record's `at_ms`
/// (records written before stamps existed print `+?`).
pub fn text_timeline(records: &[Record], job: Option<&str>) -> String {
    let epoch = records.iter().find_map(|r| r.at_ms);
    let mut out = String::new();
    let mut shown = 0usize;
    for record in records {
        if let Some(job) = job {
            if record.job != job {
                continue;
            }
        }
        shown += 1;
        let offset = match (epoch, record.at_ms) {
            (Some(epoch), Some(at)) => {
                format!("+{:9.3}s", at.saturating_sub(epoch) as f64 / 1e3)
            }
            _ => "+        ?s".to_string(),
        };
        out.push_str(&format!("{offset}  {:>16}  {}", record.event.name(), record.job));
        if let Some(worker) = record.worker {
            out.push_str(&format!("  worker={worker}"));
        }
        if let Some(step) = record.step {
            out.push_str(&format!("  step={step}"));
        }
        if let Some(attempt) = record.attempt {
            out.push_str(&format!("  attempt={attempt}"));
        }
        if let Some(error) = &record.error {
            out.push_str(&format!("  error=\"{error}\""));
        }
        out.push('\n');
    }
    if shown == 0 {
        out.push_str(match job {
            Some(job) => return format!("no journal records for job '{job}'\n"),
            None => "empty journal\n",
        });
    }
    out
}

/// Renders the merged Chrome-tracing document: journal slice intervals for
/// every job plus each `(pid, trace log)` pair in `worker_logs` (the pid
/// should be the worker index the log came from).
pub fn chrome_timeline(records: &[Record], worker_logs: &[(u64, TraceLog)]) -> String {
    let epoch = records.iter().find_map(|r| r.at_ms).unwrap_or(0);
    // Synthetic tid per job, in submit order.
    let mut jobs: Vec<&str> = Vec::new();
    for record in records {
        if !jobs.contains(&record.job.as_str()) {
            jobs.push(&record.job);
        }
    }
    let mut rows = JsonArray::new();
    for interval in slice_intervals(records) {
        let tid = 1000 + jobs.iter().position(|j| *j == interval.job).unwrap_or(0) as u64;
        let args =
            JsonObject::new().u64("from_step", interval.from_step).str("outcome", interval.outcome);
        rows.push_object(
            JsonObject::new()
                .str("name", &format!("slice {}", interval.job))
                .str("cat", "journal")
                .str("ph", "X")
                .f64_fixed("ts", interval.start_ms.saturating_sub(epoch) as f64 * 1e3, 3)
                .f64_fixed("dur", (interval.end_ms - interval.start_ms) as f64 * 1e3, 3)
                .u64("pid", interval.worker)
                .u64("tid", tid)
                .object("args", args),
        );
    }
    for (pid, log) in worker_logs {
        chrome_rows(&mut rows, &log.events, *pid);
    }
    JsonObject::new().str("displayTimeUnit", "ns").array("traceEvents", rows).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_trace::{spans, Event};

    fn record(event: EventKind, job: &str, worker: Option<u64>, at_ms: u64) -> Record {
        let mut r = Record::new(event, job);
        r.worker = worker;
        r.at_ms = Some(at_ms);
        r
    }

    fn fleet_records() -> Vec<Record> {
        let mut records = vec![
            record(EventKind::Submitted, "a", None, 1000),
            record(EventKind::Submitted, "b", None, 1001),
            record(EventKind::Running, "a", Some(0), 1010),
            record(EventKind::Running, "b", Some(1), 1012),
            record(EventKind::SlowConvergence, "a", None, 1200),
            record(EventKind::Preempted, "a", None, 1310),
            record(EventKind::Running, "a", Some(0), 1320),
            record(EventKind::Done, "a", None, 1500),
            record(EventKind::Failed, "b", None, 1600),
        ];
        records[6].step = Some(2);
        records[7].step = Some(4);
        records
    }

    #[test]
    fn intervals_pair_running_records_with_their_resolution() {
        let intervals = slice_intervals(&fleet_records());
        assert_eq!(intervals.len(), 3);
        assert_eq!(
            (intervals[0].job.as_str(), intervals[0].worker, intervals[0].outcome),
            ("a", 0, "preempted")
        );
        assert_eq!(intervals[0].end_ms - intervals[0].start_ms, 300);
        assert_eq!(intervals[1].from_step, 2);
        assert_eq!(intervals[1].outcome, "done");
        assert_eq!(
            (intervals[2].job.as_str(), intervals[2].worker, intervals[2].outcome),
            ("b", 1, "failed")
        );
    }

    #[test]
    fn an_unresolved_tail_slice_stays_visible() {
        let records = vec![
            record(EventKind::Submitted, "a", None, 10),
            record(EventKind::Running, "a", Some(1), 20),
        ];
        let intervals = slice_intervals(&records);
        assert_eq!(intervals.len(), 1);
        assert_eq!(intervals[0].outcome, "running");
        assert_eq!(intervals[0].start_ms, intervals[0].end_ms);
    }

    #[test]
    fn the_text_timeline_offsets_from_the_first_record() {
        let text = text_timeline(&fleet_records(), None);
        assert!(text.contains("+    0.000s"), "{text}");
        assert!(text.contains("+    0.310s         preempted  a"), "{text}");
        assert!(text.contains("slow_convergence  a"), "{text}");
        let only_b = text_timeline(&fleet_records(), Some("b"));
        assert!(!only_b.contains(" a"), "{only_b}");
        assert!(only_b.contains("failed  b"), "{only_b}");
        assert_eq!(text_timeline(&[], None), "empty journal\n");
        assert!(text_timeline(&fleet_records(), Some("ghost")).contains("no journal records"));
    }

    #[test]
    fn the_chrome_document_merges_journal_slices_and_worker_logs() {
        let log = TraceLog {
            lanes: "baseline".to_string(),
            defs: Vec::new(),
            counters: Vec::new(),
            events: vec![Event::instant(spans::STEP, 0, 5_000)],
        };
        let doc = chrome_timeline(&fleet_records(), &[(1, log)]);
        assert!(doc.starts_with("{\"displayTimeUnit\": \"ns\", \"traceEvents\": ["), "{doc}");
        // Journal slice for job a on worker 0, synthetic tid 1000.
        assert!(doc.contains("\"name\": \"slice a\""), "{doc}");
        assert!(doc.contains("\"cat\": \"journal\""), "{doc}");
        assert!(doc.contains("\"pid\": 0, \"tid\": 1000"), "{doc}");
        // Job b keeps its own track and worker pid.
        assert!(doc.contains("\"pid\": 1, \"tid\": 1001"), "{doc}");
        // The worker log rides along under its pid.
        assert!(doc.contains("\"name\": \"driver/step\""), "{doc}");
        assert!(doc.contains("\"outcome\": \"preempted\""), "{doc}");
    }
}
