//! # lv-trace
//!
//! Low-overhead, deterministic run telemetry for the CFD reproduction: the
//! measurement instrument the source paper's co-design loop is built on.
//!
//! * [`Trace`] — per-rank, pre-allocated event buffers.  Recording an
//!   [`Event`] takes no locks and performs no allocation: each rank owns a
//!   fixed-capacity buffer guarded by a lock-free busy flag, and a full (or
//!   contended) buffer *drops* the event and counts the drop instead of
//!   growing.  Buffers are drained at epoch boundaries (end of run, between
//!   steps) through `&mut` access.
//! * **Spans** — a static taxonomy ([`spans`]) of `(path, deterministic)`
//!   entries.  Deterministic spans are recorded once per *logical*
//!   occurrence (a solve, a Krylov iteration, a V-cycle level), so their
//!   event counts and integer counters are exactly equal at every thread
//!   count; host-dependent spans (per-rank assembly chunks) scale with the
//!   worker count and are excluded from determinism assertions.  Wall-clock
//!   timestamps are always advisory.
//! * **Counters** ([`counters`]) — global deterministic tallies (solver
//!   iterations, fallbacks, retries, modeled FLOPs and streamed bytes) that
//!   must be bitwise equal across thread counts.
//! * [`json`] — the one JSON layer: the hand-rolled emitter the trace
//!   sinks, the run summary and the metrics documents are written with,
//!   and the strict reader ([`json::parse`]) the replays read them with.
//! * [`metrics`] — the lock-light live-metrics registry (atomic counters,
//!   gauges, fixed-log2-bucket histograms) the simulation service exposes
//!   through its introspection endpoint.
//! * [`sink`] — line-JSON event logs, Chrome-tracing (Perfetto) export, and
//!   the replay parser.
//! * [`summary`] — the end-of-run [`RunSummary`](summary::RunSummary)
//!   roofline-style table: per-span time share, iterations, modeled traffic
//!   and the bandwidth it implies.
//!
//! The crate is dependency-free so `lv-runtime` can own a [`Trace`] per
//! [`Team`](../lv_runtime/struct.Team.html) without a cycle.

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod sink;
pub mod summary;

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Index into the static span taxonomy ([`spans::ALL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u16);

/// One entry of the span taxonomy.
#[derive(Debug, Clone, Copy)]
pub struct SpanInfo {
    /// Hierarchical path, e.g. `"solver/cg/iteration"`.
    pub path: &'static str,
    /// Whether the event count (and integer counters) of this span are
    /// thread-count invariant.  Wall-clock is advisory for *every* span.
    pub deterministic: bool,
}

/// The static span taxonomy.  Adding a span means adding a constant *and*
/// an [`ALL`](spans::ALL) entry; ids are indices into that table.
pub mod spans {
    use super::{SpanId, SpanInfo};

    /// One full time step (leader).
    pub const STEP: SpanId = SpanId(0);
    /// Momentum-system assembly phase of a step (leader).
    pub const ASSEMBLY: SpanId = SpanId(1);
    /// Momentum solve phase of a step (leader).
    pub const MOMENTUM: SpanId = SpanId(2);
    /// Pressure-Poisson solve phase of a step (leader).
    pub const POISSON: SpanId = SpanId(3);
    /// Velocity-correction phase of a step (leader).
    pub const CORRECTION: SpanId = SpanId(4);
    /// One colored assembly sweep (leader, wraps all colors).
    pub const ASSEMBLY_COLOR_SWEEP: SpanId = SpanId(5);
    /// One rank's share of one color (recorded *by that rank* — the event
    /// count scales with the worker count, hence host-dependent).
    pub const ASSEMBLY_CHUNK: SpanId = SpanId(6);
    /// One (MG-preconditioned or plain) CG iteration: `aux` carries the
    /// relative residual as `f64::to_bits`.
    pub const CG_ITERATION: SpanId = SpanId(7);
    /// One single-RHS BiCGSTAB iteration; `iters` = active columns (1),
    /// `aux` = their bitmask, like its 3-RHS sibling.
    pub const BICGSTAB_ITERATION: SpanId = SpanId(8);
    /// Unused: the batched CG it belonged to is gone.  The slot stays so
    /// the ids of the spans after it — and every recorded trace — keep
    /// their meaning.
    pub const CG3_ITERATION: SpanId = SpanId(9);
    /// One batched (3-RHS) BiCGSTAB iteration; `iters` = active components,
    /// `aux` = bitmask of the active components.
    pub const BICGSTAB3_ITERATION: SpanId = SpanId(10);
    /// One multigrid V-cycle application (leader).
    pub const MG_VCYCLE: SpanId = SpanId(11);
    /// Downward/upward work of one level of a V-cycle (`aux` = level index,
    /// finest = 0).
    pub const MG_LEVEL: SpanId = SpanId(12);
    /// Checkpoint write (leader).
    pub const CHECKPOINT_SAVE: SpanId = SpanId(13);
    /// Checkpoint read (leader).
    pub const CHECKPOINT_LOAD: SpanId = SpanId(14);
    /// One rejected step attempt rolled back by the recovery driver
    /// (`aux` = attempt index).
    pub const RETRY: SpanId = SpanId(15);
    /// One MG→CG pressure-solver fallback (`aux` = projection sweep index).
    pub const POISSON_FALLBACK: SpanId = SpanId(16);
    /// One bounded slice of a supervised job, from its set-up to its last
    /// step (`aux` = job index, `iters` = steps the slice completed).
    /// **Host-dependent**: slice boundaries follow wall-clock watchdogs and
    /// scheduling, never the trajectory.
    pub const SERVER_SLICE: SpanId = SpanId(17);
    /// A job preempted at its slice quota and requeued (`aux` = step).
    pub const SERVER_PREEMPT: SpanId = SpanId(18);
    /// A job resumed from its checkpoint ring (`aux` = resume step).
    pub const SERVER_RESUME: SpanId = SpanId(19);
    /// A failed slice scheduled for retry (`aux` = attempt index).
    pub const SERVER_RETRY: SpanId = SpanId(20);
    /// One write-ahead journal append (leader of the appending worker).
    pub const SERVER_JOURNAL: SpanId = SpanId(21);
    /// The set-up that opens a `server/slice`: the job's discretization
    /// taken from the server's cache, then the resume or the fresh start on
    /// it (`aux` = 0 when this slice built the discretization, 1 when it
    /// reused one).  Host-dependent: which slice of a key comes first is
    /// the scheduler's.
    pub const SERVER_SETUP: SpanId = SpanId(22);

    /// The taxonomy table; `SpanId(i)` indexes it.
    pub const ALL: &[SpanInfo] = &[
        SpanInfo { path: "driver/step", deterministic: true },
        SpanInfo { path: "driver/assembly", deterministic: true },
        SpanInfo { path: "driver/momentum", deterministic: true },
        SpanInfo { path: "driver/poisson", deterministic: true },
        SpanInfo { path: "driver/correction", deterministic: true },
        SpanInfo { path: "assembly/color_sweep", deterministic: true },
        SpanInfo { path: "assembly/chunk", deterministic: false },
        SpanInfo { path: "solver/cg/iteration", deterministic: true },
        SpanInfo { path: "solver/bicgstab/iteration", deterministic: true },
        SpanInfo { path: "solver/cg3/iteration", deterministic: true },
        SpanInfo { path: "solver/bicgstab3/iteration", deterministic: true },
        SpanInfo { path: "solver/mg/vcycle", deterministic: true },
        SpanInfo { path: "solver/mg/level", deterministic: true },
        SpanInfo { path: "checkpoint/save", deterministic: true },
        SpanInfo { path: "checkpoint/load", deterministic: true },
        SpanInfo { path: "driver/retry", deterministic: true },
        SpanInfo { path: "driver/poisson_fallback", deterministic: true },
        SpanInfo { path: "server/slice", deterministic: false },
        SpanInfo { path: "server/preempt", deterministic: false },
        SpanInfo { path: "server/resume", deterministic: false },
        SpanInfo { path: "server/retry", deterministic: false },
        SpanInfo { path: "server/journal", deterministic: false },
        SpanInfo { path: "server/setup", deterministic: false },
    ];

    /// Resolves a taxonomy path to its id (a linear scan over the tiny
    /// static table — only ever called when tracing is enabled).
    pub fn lookup(path: &str) -> Option<SpanId> {
        ALL.iter().position(|s| s.path == path).map(|i| SpanId(i as u16))
    }

    /// The [`SpanInfo`] of `id`.
    ///
    /// # Panics
    /// Panics when `id` is outside the taxonomy.
    pub fn info(id: SpanId) -> &'static SpanInfo {
        &ALL[id.0 as usize]
    }
}

/// Global deterministic counter ids and names.
pub mod counters {
    /// Completed time steps.
    pub const STEPS: usize = 0;
    /// Total momentum-solve Krylov iterations (summed over components).
    pub const MOMENTUM_ITERATIONS: usize = 1;
    /// Total pressure-Poisson Krylov iterations.
    pub const POISSON_ITERATIONS: usize = 2;
    /// MG→CG pressure-solver fallbacks.
    pub const POISSON_FALLBACKS: usize = 3;
    /// Step attempts rolled back by the recovery driver.
    pub const RETRIES: usize = 4;
    /// Checkpoints written.
    pub const CHECKPOINT_SAVES: usize = 5;
    /// Checkpoints read.
    pub const CHECKPOINT_LOADS: usize = 6;
    /// Modeled floating-point operations (per-phase tallies).
    pub const FLOPS: usize = 7;
    /// Modeled streamed bytes (`LinearOperator::streamed_bytes`-based
    /// traffic models; `LinearOperator` lives in `lv-solver`).
    pub const MODELED_BYTES: usize = 8;
    /// Events dropped because a rank buffer was full (or, on API misuse,
    /// contended).  **Host-dependent**: buffer pressure varies with the
    /// worker count.
    pub const DROPPED_EVENTS: usize = 9;
    /// Residual-plateau (slow-convergence) detections of the driver's
    /// stall detector.  Deterministic: residuals are bitwise reproducible,
    /// so the detector fires at the same steps on every layout.
    pub const SLOW_CONVERGENCE: usize = 10;

    /// `(name, deterministic)` per counter; the index is the counter id.
    pub const ALL: &[(&str, bool)] = &[
        ("steps", true),
        ("momentum_iterations", true),
        ("poisson_iterations", true),
        ("poisson_fallbacks", true),
        ("retries", true),
        ("checkpoint_saves", true),
        ("checkpoint_loads", true),
        ("flops", true),
        ("modeled_bytes", true),
        ("dropped_events", false),
        ("slow_convergence", true),
    ];
}

/// One telemetry record: a `(span, rank, t_start, t_end, counters)` tuple.
/// All fields are integers, so logs replay bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Taxonomy id.
    pub span: SpanId,
    /// Recording rank (0 = the leader / caller thread).
    pub rank: u16,
    /// Start, nanoseconds since the trace epoch (advisory).
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch (advisory; equals `start_ns`
    /// for instant events).
    pub end_ns: u64,
    /// Span-specific iteration tally (deterministic).
    pub iters: u64,
    /// Modeled floating-point operations (deterministic).
    pub flops: u64,
    /// Modeled streamed bytes (deterministic).
    pub bytes: u64,
    /// Span-specific payload, e.g. `f64::to_bits` of a residual
    /// (deterministic).
    pub aux: u64,
}

impl Event {
    /// An instant (zero-duration) event at `now_ns`.
    pub fn instant(span: SpanId, rank: u16, now_ns: u64) -> Event {
        Event { span, rank, start_ns: now_ns, end_ns: now_ns, iters: 0, flops: 0, bytes: 0, aux: 0 }
    }
}

/// Sizing knobs of a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Pre-allocated events per rank buffer; once full, further events are
    /// dropped (and counted), never allocated.
    pub events_per_rank: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        // ~200 events per step on the cavity scenario: room for hundreds of
        // steps per drain at ~1.8 MiB per rank.
        TraceConfig { events_per_rank: 32 * 1024 }
    }
}

/// One rank's pre-allocated event buffer behind a lock-free busy flag.  The
/// flag makes [`Trace::record`] safe under *any* calling pattern: the
/// intended one (each rank records only its own buffer, never contended) is
/// wait-free; a misuse that races two threads onto one rank drops the loser's
/// event instead of corrupting the buffer.
struct RankBuffer {
    busy: AtomicBool,
    events: UnsafeCell<Vec<Event>>,
}

// SAFETY: all access to `events` goes through the `busy` flag (acquire on
// entry, release on exit) or through `&mut self`, so the UnsafeCell is never
// aliased mutably.
unsafe impl Sync for RankBuffer {}

/// The telemetry collector: per-rank event buffers plus global atomic
/// counters, stamped against one [`Instant`] epoch.
///
/// Shared as `&Trace` with every recording site (the hot path); drained with
/// `&mut Trace` at epoch boundaries.
pub struct Trace {
    epoch: Instant,
    ranks: Box<[RankBuffer]>,
    counters: Box<[AtomicU64]>,
    lanes: &'static str,
}

/// The [`Trace::lanes`] of a trace nobody stamped (and of logs written
/// before the field existed).
pub const UNKNOWN_LANES: &str = "unknown";

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace").field("ranks", &self.ranks.len()).finish()
    }
}

impl Trace {
    /// A trace with one buffer per rank of a `ranks`-wide team.
    pub fn new(ranks: usize, config: TraceConfig) -> Trace {
        let ranks = (0..ranks.max(1))
            .map(|_| RankBuffer {
                busy: AtomicBool::new(false),
                events: UnsafeCell::new(Vec::with_capacity(config.events_per_rank)),
            })
            .collect();
        let counters = (0..counters::ALL.len()).map(|_| AtomicU64::new(0)).collect();
        Trace { epoch: Instant::now(), ranks, counters, lanes: UNKNOWN_LANES }
    }

    /// Stamps the trace with the vector lanes the recording process selected
    /// (`lv_runtime::lanes::Lanes::name`; `lv-runtime` does this for every
    /// traced team).  **Host-dependent** metadata: it is written to the log
    /// header and shown by the run summary, and it is in no deterministic
    /// fingerprint — the same run on a host without the wide lanes must
    /// fingerprint equal.
    pub fn with_lanes(mut self, lanes: &'static str) -> Trace {
        self.lanes = lanes;
        self
    }

    /// The lanes stamped by [`with_lanes`](Self::with_lanes), or
    /// [`UNKNOWN_LANES`].
    pub fn lanes(&self) -> &'static str {
        self.lanes
    }

    /// Rank buffers owned by this trace.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Nanoseconds since the trace epoch (the timestamp base of every
    /// event).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records `event` into its rank's buffer — lock-free, allocation-free.
    /// A full buffer, an out-of-range rank or (on API misuse) a contended
    /// rank drops the event and bumps [`counters::DROPPED_EVENTS`].
    ///
    /// The event's modeled tallies always feed the global
    /// [`counters::FLOPS`] / [`counters::MODELED_BYTES`] totals — *before*
    /// any drop decision, so the counters stay deterministic even under
    /// buffer pressure.
    pub fn record(&self, event: Event) {
        if event.flops > 0 {
            self.add(counters::FLOPS, event.flops);
        }
        if event.bytes > 0 {
            self.add(counters::MODELED_BYTES, event.bytes);
        }
        let Some(cell) = self.ranks.get(event.rank as usize) else {
            self.add(counters::DROPPED_EVENTS, 1);
            return;
        };
        if cell.busy.swap(true, Ordering::Acquire) {
            self.add(counters::DROPPED_EVENTS, 1);
            return;
        }
        // SAFETY: the busy flag grants exclusive access until released.
        let events = unsafe { &mut *cell.events.get() };
        if events.len() < events.capacity() {
            events.push(event);
        } else {
            self.add(counters::DROPPED_EVENTS, 1);
        }
        cell.busy.store(false, Ordering::Release);
    }

    /// Opens a span on `rank`, stamped now.  Finish it with
    /// [`SpanScope::finish`] (or let it drop).
    pub fn span(&self, span: SpanId, rank: u16) -> SpanScope<'_> {
        SpanScope {
            trace: self,
            event: Event { start_ns: self.now_ns(), ..Event::instant(span, rank, 0) },
        }
    }

    /// Adds `value` to counter `id` (a relaxed atomic add — integer adds
    /// commute, so totals stay deterministic).
    pub fn add(&self, id: usize, value: u64) {
        if let Some(counter) = self.counters.get(id) {
            counter.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Current value of counter `id` (0 for out-of-range ids).
    pub fn counter(&self, id: usize) -> u64 {
        self.counters.get(id).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// All counters as `(name, value, deterministic)` rows.
    pub fn counter_rows(&self) -> Vec<(String, u64, bool)> {
        counters::ALL
            .iter()
            .enumerate()
            .map(|(i, &(name, det))| (name.to_string(), self.counter(i), det))
            .collect()
    }

    /// Drains nothing — returns a snapshot of every buffered event, rank 0
    /// first, each rank's events in recording order.  `&mut` guarantees no
    /// recorder is live.
    pub fn events(&mut self) -> Vec<Event> {
        let mut out = Vec::new();
        for cell in self.ranks.iter_mut() {
            out.extend_from_slice(cell.events.get_mut());
        }
        out
    }

    /// Clears every rank buffer (counters are kept: they are run totals).
    pub fn clear_events(&mut self) {
        for cell in self.ranks.iter_mut() {
            cell.events.get_mut().clear();
        }
    }
}

/// An open span: records one [`Event`] on finish (explicit or on drop).
#[must_use = "a span records its event when finished/dropped"]
#[derive(Debug)]
pub struct SpanScope<'a> {
    trace: &'a Trace,
    event: Event,
}

impl SpanScope<'_> {
    /// Sets the iteration tally carried by the closing event.
    pub fn iters(mut self, iters: u64) -> Self {
        self.event.iters = iters;
        self
    }

    /// Sets the modeled FLOP tally carried by the closing event.
    pub fn flops(mut self, flops: u64) -> Self {
        self.event.flops = flops;
        self
    }

    /// Sets the modeled streamed-bytes tally carried by the closing event.
    pub fn bytes(mut self, bytes: u64) -> Self {
        self.event.bytes = bytes;
        self
    }

    /// Sets the span-specific payload carried by the closing event.
    pub fn aux(mut self, aux: u64) -> Self {
        self.event.aux = aux;
        self
    }

    /// Stamps the end time and records the event.
    pub fn finish(self) {}
}

impl Drop for SpanScope<'_> {
    fn drop(&mut self) {
        self.event.end_ns = self.trace.now_ns();
        self.trace.record(self.event);
    }
}

/// Opens a [`SpanScope`] by taxonomy path when tracing is enabled.
///
/// ```
/// # use lv_trace::{span, Trace, TraceConfig};
/// let tracer = Trace::new(1, TraceConfig::default());
/// let trace: Option<&Trace> = Some(&tracer);
/// let scope = span!(trace, "assembly/color_sweep");
/// drop(scope); // records the event
/// ```
///
/// Evaluates to `Option<SpanScope>`; with `None` (tracing off) the cost is
/// one branch.  An optional third argument gives the recording rank
/// (default 0, the leader).
#[macro_export]
macro_rules! span {
    ($trace:expr, $path:literal) => {
        $crate::span!($trace, $path, 0u16)
    };
    ($trace:expr, $path:literal, $rank:expr) => {
        ($trace)
            .and_then(|t: &$crate::Trace| $crate::spans::lookup($path).map(|id| t.span(id, $rank)))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_constants_index_their_table_rows() {
        assert_eq!(spans::ALL.len(), 23);
        assert_eq!(spans::info(spans::STEP).path, "driver/step");
        assert_eq!(spans::info(spans::ASSEMBLY_CHUNK).path, "assembly/chunk");
        assert!(!spans::info(spans::ASSEMBLY_CHUNK).deterministic);
        assert_eq!(spans::lookup("solver/mg/vcycle"), Some(spans::MG_VCYCLE));
        assert_eq!(spans::info(spans::SERVER_SLICE).path, "server/slice");
        assert_eq!(spans::lookup("server/journal"), Some(spans::SERVER_JOURNAL));
        assert_eq!(spans::info(spans::SERVER_SETUP).path, "server/setup");
        assert!(!spans::info(spans::SERVER_SETUP).deterministic);
        assert!(!spans::info(spans::SERVER_PREEMPT).deterministic);
        assert_eq!(spans::lookup("no/such/span"), None);
        assert_eq!(counters::ALL.len(), 11);
        assert_eq!(counters::ALL[counters::FLOPS].0, "flops");
        assert!(!counters::ALL[counters::DROPPED_EVENTS].1);
        assert!(counters::ALL[counters::SLOW_CONVERGENCE].1);
    }

    #[test]
    fn record_and_drain_preserves_rank_order() {
        let mut trace = Trace::new(2, TraceConfig { events_per_rank: 8 });
        trace.record(Event::instant(spans::STEP, 1, trace.now_ns()));
        trace.record(Event::instant(spans::ASSEMBLY, 0, trace.now_ns()));
        trace.record(Event::instant(spans::MOMENTUM, 0, trace.now_ns()));
        let events = trace.events();
        assert_eq!(events.len(), 3);
        // Rank 0's events first, in recording order, then rank 1's.
        assert_eq!(events[0].span, spans::ASSEMBLY);
        assert_eq!(events[1].span, spans::MOMENTUM);
        assert_eq!(events[2].span, spans::STEP);
        trace.clear_events();
        assert!(trace.events().is_empty());
    }

    #[test]
    fn full_buffer_drops_and_counts_instead_of_allocating() {
        let mut trace = Trace::new(1, TraceConfig { events_per_rank: 2 });
        for _ in 0..5 {
            trace.record(Event::instant(spans::STEP, 0, 0));
        }
        // Out-of-range rank is also a counted drop, not a panic.
        trace.record(Event::instant(spans::STEP, 7, 0));
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.counter(counters::DROPPED_EVENTS), 4);
    }

    #[test]
    fn span_scope_records_a_closed_interval_with_counters() {
        let mut trace = Trace::new(1, TraceConfig::default());
        trace.span(spans::POISSON, 0).iters(7).flops(100).bytes(800).aux(42).finish();
        let events = trace.events();
        assert_eq!(events.len(), 1);
        let e = events[0];
        assert_eq!(e.span, spans::POISSON);
        assert!(e.end_ns >= e.start_ns);
        assert_eq!((e.iters, e.flops, e.bytes, e.aux), (7, 100, 800, 42));
    }

    #[test]
    fn span_macro_resolves_paths_and_tolerates_disabled_tracing() {
        let mut trace = Trace::new(1, TraceConfig::default());
        {
            let scope = span!(Some(&trace), "driver/step");
            assert!(scope.is_some());
        }
        let none: Option<&Trace> = None;
        assert!(span!(none, "driver/step").is_none());
        assert_eq!(trace.events().len(), 1);
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let trace = Trace::new(4, TraceConfig::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        trace.add(counters::FLOPS, 3);
                    }
                });
            }
        });
        assert_eq!(trace.counter(counters::FLOPS), 12_000);
    }

    #[test]
    fn concurrent_ranks_record_without_loss() {
        let mut trace = Trace::new(4, TraceConfig { events_per_rank: 2048 });
        std::thread::scope(|s| {
            let trace = &trace;
            for rank in 0..4u16 {
                s.spawn(move || {
                    for i in 0..1000 {
                        trace.record(Event {
                            aux: i,
                            ..Event::instant(spans::ASSEMBLY_CHUNK, rank, trace.now_ns())
                        });
                    }
                });
            }
        });
        assert_eq!(trace.counter(counters::DROPPED_EVENTS), 0);
        let events = trace.events();
        assert_eq!(events.len(), 4000);
        // Per-rank recording order is preserved in the drain.
        for rank in 0..4u16 {
            let auxes: Vec<u64> = events.iter().filter(|e| e.rank == rank).map(|e| e.aux).collect();
            assert_eq!(auxes, (0..1000).collect::<Vec<u64>>());
        }
    }
}
