//! The write-ahead job-state journal.
//!
//! One line-JSON record per transition, appended and fsynced *before* the
//! transition takes effect — the same durability discipline as the
//! checkpoint writer's tmp+fsync+rename.  A `kill -9`'d supervisor replays
//! the log: each job's `submitted` record rebuilds its [`JobSpec`], the last
//! transition decides whether it is finished or pending, and pending jobs
//! resume from their checkpoint rings.  A torn trailing line (the append the
//! kill interrupted) is detected and truncated away; corruption anywhere
//! *else* is refused loudly — a mid-file hole means the log is not ours.
//!
//! Records are written and read with [`lv_trace::json`]: a line is a
//! record only if it is one strict JSON object whose keys and value types
//! are exactly those [`Record::to_json_line`] writes.

use crate::job::{valid_job_id, JobEntry, JobSpec};
use lv_driver::{FaultPlan, Scenario, ScenarioKind};
use lv_trace::json::{self, JsonObject, Value::Null};
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// The transition vocabulary (also the `event` field values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A new job entered the queue; the record carries the full spec.
    Submitted,
    /// A worker claimed a slice starting at `step`.
    Running,
    /// Preempted at the slice quota, checkpointed at `step`, requeued.
    Preempted,
    /// A slice failed (`error`); the job is requeued as attempt `attempt`.
    Retrying,
    /// The job reached its target step.
    Done,
    /// Retry budget exhausted (`attempt`, `error`); the job is permanently
    /// failed.
    Failed,
    /// The stepper's convergence-stall detector fired during a slice
    /// (residual plateau at `step`).  Purely diagnostic: it never changes
    /// a job's lifecycle state — [`JobEntry::apply`] skips it, the metrics
    /// fold counts it.
    SlowConvergence,
}

impl EventKind {
    /// Stable journal name.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Submitted => "submitted",
            EventKind::Running => "running",
            EventKind::Preempted => "preempted",
            EventKind::Retrying => "retrying",
            EventKind::Done => "done",
            EventKind::Failed => "failed",
            EventKind::SlowConvergence => "slow_convergence",
        }
    }

    /// Parses a journal name (inverse of [`name`](Self::name)).
    pub fn from_name(name: &str) -> Option<EventKind> {
        match name {
            "submitted" => Some(EventKind::Submitted),
            "running" => Some(EventKind::Running),
            "preempted" => Some(EventKind::Preempted),
            "retrying" => Some(EventKind::Retrying),
            "done" => Some(EventKind::Done),
            "failed" => Some(EventKind::Failed),
            "slow_convergence" => Some(EventKind::SlowConvergence),
            _ => None,
        }
    }
}

/// One journal line: a transition plus whatever context it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Monotonic sequence number (assigned by [`Journal::append`]).
    pub seq: u64,
    /// Which transition this is.
    pub event: EventKind,
    /// The job it concerns.
    pub job: String,
    /// Worker index, for `running` / `preempted` / `retrying`.
    pub worker: Option<u64>,
    /// Step context (resume step, checkpoint step, or final step).
    pub step: Option<u64>,
    /// Simulation time, on `done`.
    pub time: Option<f64>,
    /// Failed-attempt count, on `retrying` and `failed`.
    pub attempt: Option<u64>,
    /// Error text, on `retrying` / `failed`.
    pub error: Option<String>,
    /// Scenario registry name, on `submitted`.
    pub scenario: Option<String>,
    /// Scenario resolution, on `submitted`.
    pub resolution: Option<u64>,
    /// Target step count, on `submitted`.
    pub steps: Option<u64>,
    /// Fault-injection spec, on `submitted`.
    pub inject: Option<String>,
    /// Wall-clock stamp, milliseconds since the Unix epoch, set by
    /// [`Journal::append`].  **Host-dependent** (it is the one field that
    /// is): timelines are built from it, the deterministic metrics fold
    /// ignores it.
    pub at_ms: Option<u64>,
}

impl Record {
    /// A bare record of `event` for `job` (seq filled in at append time).
    pub fn new(event: EventKind, job: impl Into<String>) -> Record {
        Record {
            seq: 0,
            event,
            job: job.into(),
            worker: None,
            step: None,
            time: None,
            attempt: None,
            error: None,
            scenario: None,
            resolution: None,
            steps: None,
            inject: None,
            at_ms: None,
        }
    }

    /// The `submitted` record carrying the full spec.
    pub fn submitted(spec: &JobSpec) -> Record {
        let mut record = Record::new(EventKind::Submitted, &spec.id);
        record.scenario = Some(spec.scenario.kind.name().to_string());
        record.resolution = Some(spec.scenario.resolution as u64);
        record.steps = Some(spec.steps);
        record.inject = spec.inject.clone();
        record
    }

    /// Serializes to one flat JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut obj = JsonObject::new()
            .u64("seq", self.seq)
            .str("event", self.event.name())
            .str("job", &self.job);
        if let Some(worker) = self.worker {
            obj = obj.u64("worker", worker);
        }
        if let Some(step) = self.step {
            obj = obj.u64("step", step);
        }
        if let Some(time) = self.time {
            obj = obj.f64("time", time);
        }
        if let Some(attempt) = self.attempt {
            obj = obj.u64("attempt", attempt);
        }
        if let Some(scenario) = &self.scenario {
            obj = obj.str("scenario", scenario);
        }
        if let Some(resolution) = self.resolution {
            obj = obj.u64("resolution", resolution);
        }
        if let Some(steps) = self.steps {
            obj = obj.u64("steps", steps);
        }
        if let Some(inject) = &self.inject {
            obj = obj.str("inject", inject);
        }
        if let Some(error) = &self.error {
            obj = obj.str("error", error);
        }
        if let Some(at_ms) = self.at_ms {
            obj = obj.u64("at_ms", at_ms);
        }
        obj.finish()
    }

    /// Parses one journal line; `None` when the line is not a well-formed
    /// record (the caller decides whether that means "torn tail" or
    /// "corrupt log"): not one JSON object, a key this code never writes,
    /// a field of the wrong type, or `seq`, `event` or `job` missing.
    pub fn parse(line: &str) -> Option<Record> {
        let (mut seq, mut event, mut job) = (None, None, None);
        let mut record = Record::new(EventKind::Submitted, "");
        for (key, value) in json::parse(line).ok()?.as_object()? {
            let text = || value.as_str().map(str::to_string);
            match key.as_str() {
                "seq" => seq = Some(value.as_u64()?),
                "event" => event = Some(EventKind::from_name(value.as_str()?)?),
                "job" => job = Some(text()?),
                "worker" => record.worker = Some(value.as_u64()?),
                "step" => record.step = Some(value.as_u64()?),
                // A non-finite time is written as `null`.
                "time" => record.time = if *value == Null { None } else { Some(value.as_f64()?) },
                "attempt" => record.attempt = Some(value.as_u64()?),
                "error" => record.error = Some(text()?),
                "scenario" => record.scenario = Some(text()?),
                "resolution" => record.resolution = Some(value.as_u64()?),
                "steps" => record.steps = Some(value.as_u64()?),
                "inject" => record.inject = Some(text()?),
                "at_ms" => record.at_ms = Some(value.as_u64()?),
                _ => return None,
            }
        }
        Some(Record { seq: seq?, event: event?, job: job?, ..record })
    }
}

/// What replaying an existing journal found.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Every intact record, in append order.
    pub records: Vec<Record>,
    /// Whether a torn trailing line (an interrupted append) was truncated
    /// away on open.
    pub torn_tail: bool,
}

/// The append-side handle: open once, fsync every record.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    next_seq: u64,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, replaying whatever
    /// is already there.  A torn trailing line is truncated so the next
    /// append starts on a clean line boundary.
    ///
    /// # Errors
    /// I/O errors, or `InvalidData` when a record *before* the tail is
    /// unparseable — a hole in the middle of a write-ahead log means it was
    /// not written by this code, and resuming from it would be a guess.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<(Journal, Replay)> {
        let path = path.into();
        let replay = match std::fs::read(&path) {
            Ok(bytes) => replay_bytes(&path, &bytes)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Replay::default(),
            Err(e) => return Err(e),
        };
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let next_seq = replay.records.last().map_or(0, |r| r.seq + 1);
        Ok((Journal { path, file, next_seq }, replay))
    }

    /// The journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `record` (stamping its sequence number and wall-clock
    /// `at_ms`) and fsyncs before returning — the transition may only take
    /// effect once this returns.
    ///
    /// # Errors
    /// The underlying write or fsync failure.
    pub fn append(&mut self, mut record: Record) -> io::Result<u64> {
        record.seq = self.next_seq;
        record.at_ms = Some(now_unix_ms());
        let mut line = record.to_json_line();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()?;
        self.next_seq += 1;
        Ok(record.seq)
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Read-only replay: parses the journal at `path` without creating,
/// locking or truncating anything — the inspection commands' view of a
/// journal that may still belong to a live supervisor.  A torn tail is
/// skipped (and reported via [`Replay::torn_tail`]) but left on disk for
/// the owning supervisor to truncate on its next open.
///
/// # Errors
/// I/O errors (including `NotFound` — inspection of a missing journal is
/// the caller's policy decision), or `InvalidData` on mid-file corruption,
/// same as [`Journal::open`].
pub fn replay_readonly(path: &Path) -> io::Result<Replay> {
    let bytes = std::fs::read(path)?;
    let (records, _, torn_tail) = scan_bytes(path, &bytes)?;
    Ok(Replay { records, torn_tail })
}

/// Replays journal bytes, truncating a torn tail in place (see
/// [`Journal::open`]).
fn replay_bytes(path: &Path, bytes: &[u8]) -> io::Result<Replay> {
    let (records, clean_end, torn_tail) = scan_bytes(path, bytes)?;
    if torn_tail {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(clean_end as u64)?;
        file.sync_data()?;
    }
    Ok(Replay { records, torn_tail })
}

/// Scans journal bytes into `(records, clean_end, torn_tail)` where
/// `clean_end` is the byte offset just past the last intact line.
fn scan_bytes(path: &Path, bytes: &[u8]) -> io::Result<(Vec<Record>, usize, bool)> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut clean_end = 0usize;
    while offset < bytes.len() {
        let line_end = bytes[offset..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|at| offset + at)
            .unwrap_or(bytes.len());
        let terminated = line_end < bytes.len();
        let line = &bytes[offset..line_end];
        let parsed = std::str::from_utf8(line).ok().and_then(Record::parse);
        match parsed {
            Some(record) if terminated => {
                records.push(record);
                clean_end = line_end + 1;
            }
            _ if line.iter().all(|b| b.is_ascii_whitespace()) => {
                // Blank line: harmless, keep scanning.
                if terminated {
                    clean_end = line_end + 1;
                }
            }
            _ => {
                // An unparseable or unterminated line.  Only acceptable as
                // the very last thing in the file — the append a crash
                // interrupted.
                let rest = &bytes[line_end..];
                let only_tail = rest.iter().all(|b| b.is_ascii_whitespace());
                if !only_tail {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "journal {} is corrupt mid-file (record {} unparseable with more \
                             records after it)",
                            path.display(),
                            records.len()
                        ),
                    ));
                }
                return Ok((records, clean_end, true));
            }
        }
        offset = line_end + 1;
    }
    Ok((records, clean_end, false))
}

/// Folds records into per-job entries, in submission order: each
/// `submitted` record opens an entry, and [`JobEntry::apply`] — the fold a
/// live supervisor runs after every append — folds in the rest.
///
/// # Errors
/// `InvalidData` when the log references an unknown job, an unknown
/// scenario, an invalid job id, or an unparseable inject spec — a journal
/// this code wrote can contain none of those.
pub fn ledger(records: &[Record]) -> io::Result<Vec<JobEntry>> {
    let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let mut entries: Vec<JobEntry> = Vec::new();
    for record in records {
        if record.event == EventKind::Submitted {
            if !valid_job_id(&record.job) {
                return Err(bad(format!("journal submits invalid job id '{}'", record.job)));
            }
            if entries.iter().any(|e| e.spec.id == record.job) {
                return Err(bad(format!("journal submits job '{}' twice", record.job)));
            }
            let name = record.scenario.as_deref().unwrap_or("");
            let kind = ScenarioKind::from_name(name).ok_or_else(|| {
                bad(format!("journal job '{}': unknown scenario '{name}'", record.job))
            })?;
            let resolution = record.resolution.unwrap_or(0) as usize;
            if resolution == 0 {
                return Err(bad(format!("journal job '{}': missing resolution", record.job)));
            }
            if let Some(spec) = &record.inject {
                FaultPlan::parse(spec).map_err(|e| {
                    bad(format!("journal job '{}': bad inject spec: {e}", record.job))
                })?;
            }
            let mut spec = JobSpec::new(
                record.job.clone(),
                Scenario::new(kind, resolution),
                record.steps.unwrap_or(0),
            );
            spec.inject = record.inject.clone();
            entries.push(JobEntry::new(spec));
            continue;
        }
        entries
            .iter_mut()
            .find(|e| e.spec.id == record.job)
            .ok_or_else(|| bad(format!("journal references unsubmitted job '{}'", record.job)))?
            .apply(record);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobStatus;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lv-journal-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn records_round_trip_through_json_lines() {
        let scenario = Scenario::new(ScenarioKind::TaylorGreenVortex, 8);
        let spec = JobSpec::new("tg-8", scenario, 12).with_inject("stall@3,seed=7");
        let submitted = Record::submitted(&spec);
        let reparsed = Record::parse(&submitted.to_json_line()).expect("parse");
        assert_eq!(reparsed, submitted);
        assert_eq!(reparsed.scenario.as_deref(), Some("taylor-green"));
        assert_eq!(reparsed.resolution, Some(8));
        assert_eq!(reparsed.inject.as_deref(), Some("stall@3,seed=7"));

        let mut failed = Record::new(EventKind::Failed, "tg-8");
        failed.seq = 9;
        failed.error = Some("quote \" backslash \\ newline \n tab \t done".to_string());
        let line = failed.to_json_line();
        assert_eq!(Record::parse(&line).expect("parse"), failed, "escapes survive: {line}");

        let mut done = Record::new(EventKind::Done, "tg-8");
        done.step = Some(12);
        done.time = Some(0.062_499_999_999_999_99);
        done.at_ms = Some(1_723_000_000_123);
        let reparsed = Record::parse(&done.to_json_line()).expect("parse");
        assert_eq!(reparsed.time.map(f64::to_bits), done.time.map(f64::to_bits));
        assert_eq!(reparsed.at_ms, Some(1_723_000_000_123));

        let stall = Record::new(EventKind::SlowConvergence, "tg-8");
        assert_eq!(Record::parse(&stall.to_json_line()).expect("parse").event, stall.event);
    }

    /// Lines a scanner for `"key": ` takes for records: junk after digits, a
    /// repeated key, a missing comma, a stray key, a wrong type, trailing text.
    #[test]
    fn lines_that_are_not_records_are_refused() {
        let tails = r#""a", "step": 1x2}
            "a", "step": 1, "step": 2}
            "a" "step": 1}
            "a", "stpe": 1}
            7}
            "a", "step": 1.5}
            "a"} {}"#;
        for tail in tails.lines() {
            let line = format!(r#"{{"seq": 3, "event": "done", "job": {}"#, tail.trim());
            assert_eq!(Record::parse(&line), None, "{line}");
        }
        let good = r#"{"seq": 3, "event": "done", "job": "a", "step": 1, "time": null}"#;
        assert_eq!(Record::parse(good).map(|r| (r.step, r.time)), Some((Some(1), None)));
    }

    #[test]
    fn append_fsyncs_lines_and_replay_reads_them_back() {
        let path = tmp("append");
        let _ = std::fs::remove_file(&path);
        let (mut journal, replay) = Journal::open(&path).expect("open fresh");
        assert!(replay.records.is_empty() && !replay.torn_tail);
        let spec = JobSpec::new("a", Scenario::new(ScenarioKind::LidDrivenCavity, 4), 3);
        journal.append(Record::submitted(&spec)).expect("append");
        let mut running = Record::new(EventKind::Running, "a");
        running.worker = Some(1);
        running.step = Some(0);
        journal.append(running).expect("append");
        drop(journal);

        let (journal, replay) = Journal::open(&path).expect("reopen");
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[0].seq, 0);
        assert_eq!(replay.records[1].seq, 1);
        assert_eq!(replay.records[1].event, EventKind::Running);
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume_cleanly() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = Journal::open(&path).expect("open");
        let spec = JobSpec::new("a", Scenario::new(ScenarioKind::LidDrivenCavity, 4), 3);
        journal.append(Record::submitted(&spec)).expect("append");
        drop(journal);
        // Emulate a kill mid-append: half a record, no newline.
        let mut bytes = std::fs::read(&path).expect("read");
        let intact = bytes.len();
        bytes.extend_from_slice(b"{\"seq\": 1, \"event\": \"runn");
        std::fs::write(&path, &bytes).expect("write");

        let (mut journal, replay) = Journal::open(&path).expect("reopen tolerates the tear");
        assert!(replay.torn_tail);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), intact as u64);
        // The next append lands on a clean line and the seq continues.
        let seq = journal.append(Record::new(EventKind::Done, "a")).expect("append");
        assert_eq!(seq, 1);
        drop(journal);
        let (_, replay) = Journal::open(&path).expect("final open");
        assert_eq!(replay.records.len(), 2);
        assert!(!replay.torn_tail);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_is_refused() {
        let path = tmp("midfile");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "garbage\n{\"seq\": 0, \"event\": \"done\", \"job\": \"a\"}\n")
            .expect("write");
        let err = Journal::open(&path).expect_err("a hole mid-log is not ours");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ledger_folds_transitions_and_counts_attempts() {
        let spec = JobSpec::new("a", Scenario::new(ScenarioKind::LidDrivenCavity, 4), 6)
            .with_inject("panic@2,seed=3");
        let mut records = vec![Record::submitted(&spec)];
        let mut running = Record::new(EventKind::Running, "a");
        running.worker = Some(0);
        running.step = Some(0);
        records.push(running);
        let mut retrying = Record::new(EventKind::Retrying, "a");
        retrying.attempt = Some(1);
        retrying.error = Some("worker panic: injected".into());
        records.push(retrying);
        let mut stall = Record::new(EventKind::SlowConvergence, "a");
        stall.step = Some(3);
        records.push(stall);
        let mut done = Record::new(EventKind::Done, "a");
        done.step = Some(6);
        records.push(done);

        let entries = ledger(&records).expect("ledger");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].spec.steps, 6);
        assert_eq!(entries[0].spec.inject.as_deref(), Some("panic@2,seed=3"));
        assert_eq!(entries[0].attempts, 1);
        assert_eq!(entries[0].status, JobStatus::Done { step: 6 });

        // A crash right after `running` leaves the job pending.
        let entries = ledger(&records[..2]).expect("ledger");
        assert_eq!(entries[0].status, JobStatus::Running { worker: 0, step: 0 });
        assert!(!entries[0].status.is_terminal());

        // A trailing slow_convergence record never disturbs the lifecycle
        // state (here: still retrying), but a ghost one is refused.
        let entries = ledger(&records[..4]).expect("ledger");
        assert_eq!(entries[0].status, JobStatus::Retrying { attempt: 1 });
        assert!(ledger(&[Record::new(EventKind::SlowConvergence, "ghost")]).is_err());

        // `failed` counts an attempt like `retrying`: its own `attempt`, or
        // one more when it carries none (as journaled before it did).
        for (attempt, attempts) in [(Some(2), 2), (None, 2), (Some(1), 1)] {
            let failed = Record { attempt, ..Record::new(EventKind::Failed, "a") };
            let entries = ledger(&[&records[..4], &[failed]].concat()).expect("ledger");
            assert_eq!(entries[0].attempts, attempts, "{attempt:?}");
            assert_eq!(entries[0].status, JobStatus::Failed { error: "unknown".into() });
        }

        // Logs this code would never write are refused.
        assert!(ledger(&[Record::new(EventKind::Done, "ghost")]).is_err());
        let mut bad = Record::submitted(&spec);
        bad.scenario = Some("no-such-flow".into());
        assert!(ledger(&[bad]).is_err());
        let mut bad = Record::submitted(&spec);
        bad.inject = Some("bogus@@".into());
        assert!(ledger(&[bad]).is_err());
    }
}
