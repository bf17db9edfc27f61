//! The read-only introspection endpoint: a Unix-domain socket next to the
//! journal, speaking one-line requests and the repo's line-JSON (or
//! Prometheus text) replies.
//!
//! This is deliberately the thinnest possible wire surface: a client
//! connects, writes one request line (`status`, `jobs`, `metrics`,
//! `metrics json`, `metrics prom`), and reads the reply until EOF.  No
//! framing, no versioning beyond the `format` field already carried by
//! every JSON document, no writes — the socket can only observe the fleet,
//! never steer it.  The socket lives at `<journal>.sock` so a `serve
//! status` invocation needs nothing but the journal path it already has,
//! and a supervisor that died leaves its last [`crate::FleetMetrics`]
//! document behind at `<journal>.metrics.json` for the same clients to
//! fall back on.

use lv_trace::json::JsonObject;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How long the accept loop sleeps when idle.  Short enough that `serve
/// status --follow` feels live, long enough to stay invisible next to a
/// slice.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// The socket the supervisor for `journal` listens on.
pub fn socket_path(journal: &Path) -> PathBuf {
    PathBuf::from(format!("{}.sock", journal.display()))
}

/// Where the supervisor flushes its metrics document at every checkpoint —
/// the cold fallback when the socket is gone.
pub fn metrics_json_path(journal: &Path) -> PathBuf {
    PathBuf::from(format!("{}.metrics.json", journal.display()))
}

/// A parsed endpoint request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Fleet summary: deterministic counters plus gauges, one JSON object.
    Status,
    /// The per-job progress board, one JSON object per line.
    Jobs,
    /// The full metrics snapshot, JSON (`format` 1).
    MetricsJson,
    /// The full metrics snapshot, Prometheus text exposition.
    MetricsProm,
}

impl Request {
    /// Parses a request line (whitespace-insensitive).
    pub fn parse(line: &str) -> Option<Request> {
        let mut words = line.split_whitespace();
        let verb = words.next()?;
        let arg = words.next();
        if words.next().is_some() {
            return None;
        }
        match (verb, arg) {
            ("status", None) => Some(Request::Status),
            ("jobs", None) => Some(Request::Jobs),
            ("metrics", None | Some("json")) => Some(Request::MetricsJson),
            ("metrics", Some("prom")) => Some(Request::MetricsProm),
            _ => None,
        }
    }
}

/// Binds the endpoint socket, replacing a stale socket file left by a
/// killed supervisor.  The listener is nonblocking: it is driven by
/// [`serve`]'s poll loop so it can notice the stop flag.
///
/// # Errors
/// The underlying bind failure (e.g. the journal directory is gone).
pub fn bind(path: &Path) -> io::Result<UnixListener> {
    // A dead supervisor cannot unlink its socket; a live one holds the
    // journal's flock, so if we got this far the leftover file is stale.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// Serves requests until `stop` is set: accept, read one request line,
/// answer with `respond`, close.  Malformed requests get an
/// `{"error": ...}` line instead of a hangup so clients can tell a typo
/// from a dead supervisor.  Per-connection errors are swallowed — an
/// observer disconnecting mid-reply must never hurt the fleet.
pub fn serve(listener: &UnixListener, stop: &AtomicBool, respond: impl Fn(Request) -> String) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = answer(stream, &respond);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Handles one connection (blocking, bounded by the one-line protocol).
fn answer(stream: UnixStream, respond: &impl Fn(Request) -> String) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let line = read_request_line(&stream)?;
    let reply = match Request::parse(&line) {
        Some(request) => respond(request),
        None => unknown_request_reply(&line),
    };
    let mut stream = stream;
    stream.write_all(reply.as_bytes())?;
    stream.flush()
}

/// The reply to a line that is no request: one JSON line whose `error`
/// quotes the line back, escaped, so whatever the client sent cannot break
/// the line or add a field of its own.
fn unknown_request_reply(line: &str) -> String {
    let error = format!("unknown request '{}'; try status, jobs, metrics [json|prom]", line.trim());
    JsonObject::new().str("error", &error).finish() + "\n"
}

/// Reads bytes until the first newline or EOF (the request is one line)
/// and decodes them once, so a character split across two reads stays
/// whole.
fn read_request_line(mut stream: &UnixStream) -> io::Result<String> {
    let mut bytes = Vec::new();
    let mut buf = [0u8; 256];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        if let Some(end) = buf[..n].iter().position(|&b| b == b'\n') {
            bytes.extend_from_slice(&buf[..end]);
            break;
        }
        bytes.extend_from_slice(&buf[..n]);
        if bytes.len() > 1024 {
            break; // Absurd request; parse will reject it.
        }
    }
    Ok(String::from_utf8_lossy(&bytes).into_owned())
}

/// Client side: sends one request line to the socket at `path` and returns
/// the whole reply.
///
/// # Errors
/// Connect/read/write failures — `serve status` uses a connect failure as
/// the "no live supervisor" signal and falls back to journal replay.
pub fn query(path: &Path, request: &str) -> io::Result<String> {
    let mut stream = UnixStream::connect(path)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(request.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply)?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_trace::json::Value;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn requests_parse_and_reject() {
        assert_eq!(Request::parse("status"), Some(Request::Status));
        assert_eq!(Request::parse("  jobs "), Some(Request::Jobs));
        assert_eq!(Request::parse("metrics"), Some(Request::MetricsJson));
        assert_eq!(Request::parse("metrics json"), Some(Request::MetricsJson));
        assert_eq!(Request::parse("metrics prom"), Some(Request::MetricsProm));
        assert_eq!(Request::parse("metrics yaml"), None);
        assert_eq!(Request::parse("shutdown"), None);
        assert_eq!(Request::parse(""), None);
        assert_eq!(Request::parse("metrics prom extra"), None);
    }

    #[test]
    fn paths_sit_next_to_the_journal() {
        let journal = Path::new("/tmp/fleet/journal.jsonl");
        assert_eq!(socket_path(journal), Path::new("/tmp/fleet/journal.jsonl.sock"));
        assert_eq!(metrics_json_path(journal), Path::new("/tmp/fleet/journal.jsonl.metrics.json"));
    }

    #[test]
    fn the_socket_answers_one_request_per_connection() {
        let dir = std::env::temp_dir().join(format!("lv-endpoint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("journal.jsonl.sock");
        let listener = bind(&path).expect("bind");
        // Rebinding over a stale socket file must also work.
        drop(listener);
        let listener = bind(&path).expect("rebind over stale socket");

        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                serve(&listener, &stop, |request| match request {
                    Request::Status => "{\"ok\": true}\n".to_string(),
                    Request::Jobs => "[]\n".to_string(),
                    Request::MetricsJson => "{\"format\": 1}\n".to_string(),
                    Request::MetricsProm => "# TYPE x counter\nx 1\n".to_string(),
                });
            });
            assert_eq!(query(&path, "status").expect("status"), "{\"ok\": true}\n");
            assert_eq!(query(&path, "metrics prom").expect("prom"), "# TYPE x counter\nx 1\n");
            let err = query(&path, "metrics yaml").expect("reply");
            assert!(err.starts_with("{\"error\": "), "{err}");
            stop.store(true, Ordering::Relaxed);
        });
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_hostile_request_comes_back_quoted_in_one_json_line() {
        // Quotes that would close the string and forge a field, a
        // backslash, control characters, and a two-byte character at bytes
        // 255–256: split across the server's 256-byte reads.
        let mut request = String::from("x\", \"live\": true, \"y\": \"\\ \t\u{1}");
        while request.len() < 255 {
            request.push('a');
        }
        request.push_str("é tail");
        let dir = std::env::temp_dir().join(format!("lv-endpoint-hostile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("journal.jsonl.sock");
        let listener = bind(&path).expect("bind");
        let stop = AtomicBool::new(false);
        let reply = std::thread::scope(|scope| {
            scope.spawn(|| serve(&listener, &stop, |_| unreachable!("not a request")));
            let reply = query(&path, &request).expect("reply");
            stop.store(true, Ordering::Relaxed);
            reply
        });
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(reply.lines().count(), 1, "{reply:?}");
        // One object whose only member is `error`: a forged field would be
        // a second member, a cut-short string a different value.
        let error = format!("unknown request '{request}'; try status, jobs, metrics [json|prom]");
        let only_error = Value::Object(vec![("error".to_string(), Value::String(error))]);
        assert_eq!(lv_trace::json::parse(&reply), Ok(only_error));
    }
}
