//! Seeded hostile input against the parsers of bytes from outside the
//! process — the journal replay, the trace-log replay, the endpoint's
//! request line and the checkpoint loader: every truncation or byte edit
//! gets a value or a refusal, never a panic, and what is accepted is what
//! the writer writes back.

use lv_driver::{load_checkpoint, save_checkpoint, Checkpoint, Scenario, ScenarioKind, SimState};
use lv_server::{replay_readonly, EventKind::*, Record, Request};
use lv_trace::sink::{parse_jsonl, write_jsonl};
use lv_trace::{json, spans, Event};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::ErrorKind;

thread_local! {
    static LARGEST_ALLOCATION: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting the largest block each thread asks for —
/// how the checkpoint corpus sees what a forged length would allocate.
struct NoteLargest;

fn note(size: usize) {
    let _ = LARGEST_ALLOCATION.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; noting a size touches a `const`-initialised
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for NoteLargest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: NoteLargest = NoteLargest;

/// One to three byte edits (delete, insert, overwrite) of `bytes`, drawn
/// from a SplitMix64 stream at `seed`.
fn mutate(seed: &mut u64, bytes: &mut Vec<u8>) {
    let mut below = |n: usize| {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (*seed ^ (*seed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    for _ in 0..=below(3) {
        let (at, byte) = (below(bytes.len()), below(256) as u8);
        match below(3) {
            0 if bytes.len() > 1 => _ = bytes.remove(at),
            1 => bytes.insert(at, byte),
            _ => bytes[at] = byte,
        }
    }
}

const HOSTILE: &str = "q\"b\\s/ \u{0}\u{1f}\n\r\t\u{7f} é 漢 😀 \u{2028}";

/// Every event kind with every optional field, then a bare record: ids and
/// errors are hostile text, integers lie above 2^53, times at f64's edges.
fn journal() -> (Vec<Record>, String) {
    let full = Record {
        worker: Some(3),
        step: Some(10),
        attempt: Some(2),
        error: Some(HOSTILE.to_string()),
        scenario: Some("lid-driven-cavity".to_string()),
        resolution: Some(8),
        steps: Some(u64::MAX),
        inject: Some("panic@2,seed=7".to_string()),
        at_ms: Some((1 << 53) + 1),
        ..Record::new(Done, format!("job {HOSTILE}"))
    };
    let kinds = [Submitted, Running, Preempted, Retrying, Done, Failed, SlowConvergence];
    let times = [0.1, 1.0 / 3.0, f64::MAX, 5e-324, 1e22, 6.02214076e23, 2.5e-8];
    let mut records: Vec<Record> = (kinds.into_iter().zip(times).zip(0..))
        .map(|((event, time), seq)| Record { seq, event, time: Some(time), ..full.clone() })
        .collect();
    records.push(Record { seq: 7, ..Record::new(Done, HOSTILE) });
    let text = records.iter().map(|r| r.to_json_line() + "\n").collect();
    (records, text)
}

/// `replay_readonly` of `bytes`, through a file named for the test.
fn replay(test: &str, bytes: &[u8]) -> std::io::Result<lv_server::Replay> {
    let path = std::env::temp_dir().join(format!("lv-hostile-{test}-{}", std::process::id()));
    std::fs::write(&path, bytes).expect("write");
    let replay = replay_readonly(&path);
    let _ = std::fs::remove_file(&path);
    replay
}

#[test]
fn every_prefix_of_the_last_record_replays_as_a_torn_tail() {
    let (records, text) = journal();
    let intact = replay("prefix", text.as_bytes()).expect("the intact journal replays");
    assert_eq!((intact.records.as_slice(), intact.torn_tail), (records.as_slice(), false));
    let last = text[..text.len() - 1].rfind('\n').expect("two records") + 1;
    for cut in last + 1..text.len() {
        let torn = replay("prefix", &text.as_bytes()[..cut]).expect("a tear is no corruption");
        assert_eq!((torn.records.as_slice(), torn.torn_tail), (&records[..7], true), "{cut}");
    }
}

#[test]
fn a_mutated_mid_file_record_replays_or_is_invalid_data() {
    let (_, text) = journal();
    let lines: Vec<&str> = text.lines().collect();
    let (mut seed, mut refused) = (32, 0);
    for trial in 0..2000 {
        // Never the last record: records follow the damage.
        let victim = trial % (lines.len() - 1);
        let start: usize = lines[..victim].iter().map(|line| line.len() + 1).sum();
        let mut line = lines[victim].as_bytes().to_vec();
        mutate(&mut seed, &mut line);
        let mut bytes = text.clone().into_bytes();
        bytes.splice(start..start + lines[victim].len(), line);
        match replay("mutate", &bytes) {
            Ok(replay) => {
                assert!(!replay.torn_tail, "trial {trial}");
                let text = String::from_utf8(bytes).expect("accepted bytes are text");
                for line in text.lines().filter(|line| !line.trim().is_empty()) {
                    let record = Record::parse(line).filter(|_| json::parse(line).is_ok());
                    let record = record.unwrap_or_else(|| panic!("accepted, not JSON: {line}"));
                    assert_eq!(Record::parse(&record.to_json_line()), Some(record));
                }
            }
            Err(err) => {
                assert_eq!(err.kind(), ErrorKind::InvalidData, "trial {trial}: {err}");
                refused += 1;
            }
        }
    }
    // Edits inside a string value leave a record; most edits do not.
    assert!((1001..2000).contains(&refused), "{refused} of 2000 refused");
}

#[test]
fn a_truncated_or_mutated_trace_log_parses_or_is_refused() {
    let (start_ns, end_ns, flops) = (1 << 60, u64::MAX, (1 << 53) + 1);
    let event = Event { start_ns, end_ns, flops, aux: 7, ..Event::instant(spans::POISSON, 3, 0) };
    let counters = [("steps".to_string(), u64::MAX, true), (HOSTILE.to_string(), 3, false)];
    let text = write_jsonl(HOSTILE, &[Event::instant(spans::STEP, 0, 5), event], &counters);
    // Exact above 2^53, where an `f64` reader would round.
    let log = parse_jsonl(&text).expect("the intact log parses");
    assert_eq!((log.events[1], log.counters.as_slice()), (event, counters.as_slice()));

    // A log has no torn-tail tolerance: a cut last line is refused by number.
    let (lines, last) = (text.lines().count(), text[..text.len() - 1].rfind('\n').unwrap() + 1);
    for cut in (last + 1..text.len() - 1).filter(|&cut| text.is_char_boundary(cut)) {
        let err = parse_jsonl(&text[..cut]).expect_err("a cut line is no record");
        assert!(err.starts_with(&format!("line {lines}:")), "cut at {cut}: {err}");
    }

    let (mut seed, mut refused) = (32, 0);
    for _ in 0..2000 {
        let mut bytes = text.clone().into_bytes();
        mutate(&mut seed, &mut bytes);
        let mutated = String::from_utf8_lossy(&bytes);
        match parse_jsonl(&mutated) {
            Ok(log) => {
                let mut lines = mutated.lines().filter(|line| !line.trim().is_empty());
                assert!(lines.all(|line| json::parse(line).is_ok()), "{mutated}");
                let again = parse_jsonl(&write_jsonl(&log.lanes, &log.events, &log.counters));
                let again = again.expect("a rewritten log parses");
                assert_eq!((again.lanes, again.counters), (log.lanes, log.counters));
                assert_eq!(again.events, log.events);
            }
            Err(err) => {
                assert!(err.starts_with("line ") || err.starts_with("no meta"), "{err}");
                refused += 1;
            }
        }
    }
    assert!((1001..2000).contains(&refused), "{refused} of 2000 refused");
}

#[test]
fn a_mutated_request_line_is_a_request_only_when_its_words_are_one() {
    let canonical = ["status", "jobs", "metrics", "metrics json", "metrics prom"];
    let mut seed = 32;
    for trial in 0..4000 {
        let mut bytes = canonical[trial % canonical.len()].as_bytes().to_vec();
        mutate(&mut seed, &mut bytes);
        let line = String::from_utf8_lossy(&bytes);
        let words = line.split_whitespace().collect::<Vec<_>>().join(" ");
        if let Some(request) = Request::parse(&line) {
            assert!(canonical.contains(&words.as_str()), "{line:?} taken as {request:?}");
        }
    }
}

/// A saved 2³ cavity checkpoint's bytes: 27 nodes, so ~900 bytes of fields.
fn checkpoint() -> Vec<u8> {
    let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 2);
    let mesh = scenario.build_mesh();
    let (velocity, pressure) = scenario.initial_state(&mesh);
    let state = SimState { step: 7, time: 0.35, velocity, pressure };
    let path = std::env::temp_dir().join(format!("lv-hostile-save-{}", std::process::id()));
    save_checkpoint(&path, &scenario, &state).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    bytes
}

/// `payload` between the magic and a checksum that matches it: bytes that
/// pass the integrity check whatever they hold.
fn sealed(payload: &[u8]) -> Vec<u8> {
    let hash = payload.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    [b"LVCKPT01", payload, &hash.to_le_bytes()].concat()
}

/// `load_checkpoint` of `bytes`, through a file named for the test, and the
/// largest single block the load allocated.
fn load(test: &str, bytes: &[u8]) -> (std::io::Result<Checkpoint>, usize) {
    let path = std::env::temp_dir().join(format!("lv-hostile-{test}-{}", std::process::id()));
    std::fs::write(&path, bytes).expect("write");
    LARGEST_ALLOCATION.with(|largest| largest.set(0));
    let loaded = load_checkpoint(&path);
    let largest = LARGEST_ALLOCATION.with(Cell::get);
    let _ = std::fs::remove_file(&path);
    (loaded, largest)
}

#[test]
fn every_prefix_of_a_checkpoint_is_refused() {
    let bytes = checkpoint();
    let (intact, _) = load("ckpt-prefix", &bytes);
    assert_eq!(intact.expect("the intact checkpoint loads").step, 7);
    for cut in 0..bytes.len() {
        let err = load("ckpt-prefix", &bytes[..cut]).0.expect_err("a prefix is no checkpoint");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "cut at {cut}: {err}");
    }
}

#[test]
fn a_sealed_checkpoint_edit_decodes_exactly_or_is_invalid_data() {
    let bytes = checkpoint();
    let payload = &bytes[8..bytes.len() - 8];
    let (mut seed, mut refused) = (32, 0);
    for trial in 0..2000 {
        let mut edited = payload.to_vec();
        mutate(&mut seed, &mut edited);
        let file = sealed(&edited);
        let (loaded, largest) = load("ckpt-mutate", &file);
        assert!(largest <= file.len(), "trial {trial}: a {largest}-byte allocation");
        match loaded {
            // Accepted: every payload byte belongs to a field.
            Ok(c) => {
                let fields = 4 + c.scenario.len() + 4 + 4 * 8 + 8 + 8 * c.velocity.len();
                assert_eq!(fields + 8 + 8 * c.pressure.len(), edited.len(), "trial {trial}");
            }
            Err(err) => {
                assert_eq!(err.kind(), ErrorKind::InvalidData, "trial {trial}: {err}");
                refused += 1;
            }
        }
    }
    // Edits inside a value leave a checkpoint; most edits do not.
    assert!((1001..2000).contains(&refused), "{refused} of 2000 refused");
}

#[test]
fn forged_lengths_and_trailing_bytes_under_a_valid_checksum_are_invalid_data() {
    let bytes = checkpoint();
    let payload = &bytes[8..bytes.len() - 8];
    let field_len = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
    let velocity_at = 4 + ScenarioKind::LidDrivenCavity.name().len() + 4 + 4 * 8;
    let pressure_at = velocity_at + 8 + 8 * field_len(velocity_at) as usize;
    let forge = |at: usize, field: &[u8]| {
        let mut forged = payload.to_vec();
        forged[at..at + field.len()].copy_from_slice(field);
        forged
    };
    for (what, forged) in [
        ("a u32::MAX name length", forge(0, &u32::MAX.to_le_bytes())),
        ("a u64::MAX velocity length", forge(velocity_at, &u64::MAX.to_le_bytes())),
        ("a u64::MAX pressure length", forge(pressure_at, &u64::MAX.to_le_bytes())),
        (
            "a pressure length one too long",
            forge(pressure_at, &(field_len(pressure_at) + 1).to_le_bytes()),
        ),
        ("one more value after the pressure", [payload, &0.5f64.to_le_bytes()].concat()),
        ("a byte after the pressure", [payload, &[0]].concat()),
    ] {
        let file = sealed(&forged);
        let (loaded, largest) = load("ckpt-forged", &file);
        let err = loaded.expect_err(what);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
        assert!(largest <= file.len(), "{what}: a {largest}-byte allocation");
    }
}
