//! The persistent worker team: fork/join dispatch onto long-lived threads.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use lv_trace::{Trace, TraceConfig};

/// How many `spin_loop` iterations a thread burns waiting for the next job
/// (workers), for job completion (the leader) or for the other ranks at a
/// [`Team::barrier`] before parking on a condvar.  Back-to-back solver ops
/// and the colors of a sweep arrive microseconds apart, so a short spin
/// avoids a futex round-trip per op; the budget is zeroed when the team is
/// oversubscribed (more threads than cores), where spinning only steals
/// cycles from the thread doing the work.
const SPIN_LIMIT: u32 = 1 << 14;

/// Type-erased pointer to the job of the current epoch.
///
/// The fat pointer's lifetime is erased to `'static` by [`Team::run`]; it is
/// only dereferenced between the epoch announcement and the completion
/// hand-shake of that same `run` call, during which the underlying closure
/// is borrowed by `run`'s caller frame.
#[derive(Clone, Copy)]
struct JobSlot(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointer is published under the dispatch mutex and only
// dereferenced while the owning `Team::run` frame keeps the closure alive
// (see `JobSlot` docs).
unsafe impl Send for JobSlot {}

/// Dispatch state shared between the leader and the workers, protected by
/// the mutex in [`Control`].
struct DispatchState {
    /// Incremented once per dispatched job.
    epoch: u64,
    /// The job of the current epoch.
    job: Option<JobSlot>,
    /// Set once, on drop; workers exit their loop.
    shutdown: bool,
}

struct Control {
    state: Mutex<DispatchState>,
    /// Workers wait here for a new epoch.
    work_cv: Condvar,
    /// The leader waits here for `remaining` to reach zero.
    done_cv: Condvar,
    /// Lock-free mirror of `state.epoch` for the workers' spin phase.
    epoch: AtomicU64,
    /// Workers still running the current job.
    remaining: AtomicUsize,
    /// In-job rank synchronization: ranks that reached the barrier of the
    /// current round, reset by the last one to arrive ...
    barrier_arrived: AtomicUsize,
    /// ... which then opens the next round; waiting ranks spin on it, then
    /// park on `barrier_cv` (under the `state` mutex).
    barrier_round: AtomicU64,
    barrier_cv: Condvar,
    /// Guards against overlapping `run` calls.
    dispatching: AtomicBool,
    /// Payloads of worker panics, re-thrown by the leader after the join.
    panics: Mutex<Vec<Box<dyn std::any::Any + Send>>>,
    /// Spin budget chosen at construction (0 when oversubscribed).
    spin_limit: u32,
}

/// A persistent team of worker threads with fork/join dispatch.
///
/// `Team::new(t)` spawns `t - 1` OS threads once; every subsequent
/// [`run`](Team::run) reuses them.  The calling thread participates as rank
/// 0, so a team of `t` threads runs jobs at exactly `t`-way parallelism.
/// Dropping the team joins the workers.
///
/// ```
/// use lv_runtime::{for_each_share, Team};
///
/// let team = Team::new(4);
/// let mut data = vec![0usize; 100];
/// // One job on the team: each rank writes its own 25 rows.
/// for_each_share(Some(&team), 100, 1, &mut data[..], |rows, share| {
///     share.fill(rows.start / 25);
/// });
/// assert_eq!(data[0], 0);
/// assert_eq!(data[99], 3);
/// ```
pub struct Team {
    control: Arc<Control>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Per-rank telemetry buffers; `None` unless the team was built with
    /// [`Team::with_trace`], so untraced runs pay nothing.
    trace: Option<Trace>,
}

impl Team {
    /// Spawns a team of `threads` threads (clamped to at least 1): the
    /// calling thread plus `threads - 1` persistent workers.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get);
        // Oversubscribed teams park immediately: a spinning worker on a
        // busy core only delays the rank that has the actual work.
        let spin_limit = match cores {
            Ok(cores) if threads <= cores => SPIN_LIMIT,
            _ => 0,
        };
        Team::with_spin_limit(threads, spin_limit)
    }

    fn with_spin_limit(threads: usize, spin_limit: u32) -> Self {
        let control = Arc::new(Control {
            state: Mutex::new(DispatchState { epoch: 0, job: None, shutdown: false }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            epoch: AtomicU64::new(0),
            remaining: AtomicUsize::new(0),
            barrier_arrived: AtomicUsize::new(0),
            barrier_round: AtomicU64::new(0),
            barrier_cv: Condvar::new(),
            dispatching: AtomicBool::new(false),
            panics: Mutex::new(Vec::new()),
            spin_limit,
        });
        let workers = (1..threads)
            .map(|rank| {
                let control = Arc::clone(&control);
                std::thread::Builder::new()
                    .name(format!("lv-team-{rank}"))
                    .spawn(move || worker_loop(rank, &control))
                    .expect("failed to spawn team worker")
            })
            .collect();
        Team { control, workers, threads, trace: None }
    }

    /// Spawns a team like [`Team::new`] and attaches a [`Trace`] with one
    /// pre-allocated event buffer per rank.  Instrumented code reaches the
    /// trace through [`Team::trace`]; recording is lock-free and
    /// allocation-free on the hot path.  The trace is stamped with the
    /// [`Lanes`](crate::Lanes) this process selected, so every log and run
    /// summary says which copy of the multiversioned kernels it timed.
    pub fn with_trace(threads: usize, config: TraceConfig) -> Self {
        let mut team = Team::new(threads);
        let lanes = crate::Lanes::selected().name();
        team.trace = Some(Trace::new(team.threads, config).with_lanes(lanes));
        team
    }

    /// Number of threads in the team (including the caller's rank 0).
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// The telemetry trace, when the team was built with
    /// [`Team::with_trace`].
    #[inline]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Exclusive access to the trace, for draining events at epoch
    /// boundaries (no job may be running).
    #[inline]
    pub fn trace_mut(&mut self) -> Option<&mut Trace> {
        self.trace.as_mut()
    }

    /// Runs `job` on every rank (`0..num_threads()`) and returns once every
    /// rank has finished.  Rank 0 executes on the calling thread.
    ///
    /// Jobs must not call `run` again on the same team (the dispatch is a
    /// single fork/join level — nesting panics); use [`barrier`](Team::barrier)
    /// inside a job to stage work instead.
    ///
    /// # Panics
    /// Panics on nested or concurrent `run` calls.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        if self.workers.is_empty() {
            job(0);
            return;
        }
        assert!(
            !self.control.dispatching.swap(true, Ordering::Acquire),
            "Team::run is not reentrant: dispatch a single job and use barrier() inside it"
        );
        // SAFETY: the lifetime of `job` is erased so worker threads can hold
        // the pointer, but `run` does not return (and the pointer is
        // cleared) until every worker reported completion, so no worker
        // dereferences it after the closure's real lifetime ends.
        let job_static: &'static (dyn Fn(usize) + Sync + 'static) =
            unsafe { std::mem::transmute(job) };
        self.control.remaining.store(self.workers.len(), Ordering::Release);
        {
            let mut state = self.control.state.lock().expect("team mutex poisoned");
            state.epoch += 1;
            state.job = Some(JobSlot(job_static as *const _));
            self.control.epoch.store(state.epoch, Ordering::Release);
            self.control.work_cv.notify_all();
        }

        // Run rank 0 on the calling thread.  A panicking job must not
        // unwind past the completion hand-shake — the workers still hold the
        // lifetime-erased job pointer — so the panic is caught and re-thrown
        // after every rank has finished.
        let rank0 = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(0)));

        // Completion hand-shake: spin briefly, then park on `done_cv`.
        let mut spins = 0u32;
        while self.control.remaining.load(Ordering::Acquire) != 0 {
            if spins < self.control.spin_limit {
                std::hint::spin_loop();
                spins += 1;
            } else {
                let mut state = self.control.state.lock().expect("team mutex poisoned");
                while self.control.remaining.load(Ordering::Acquire) != 0 {
                    state = self.control.done_cv.wait(state).expect("team mutex poisoned");
                }
                break;
            }
        }
        self.control.state.lock().expect("team mutex poisoned").job = None;
        self.control.dispatching.store(false, Ordering::Release);

        let mut worker_panics: Vec<_> =
            self.control.panics.lock().expect("team mutex poisoned").drain(..).collect();
        if let Some(payload) = worker_panics.pop() {
            std::panic::resume_unwind(payload);
        }
        if let Err(payload) = rank0 {
            std::panic::resume_unwind(payload);
        }
    }

    /// Synchronizes all ranks of the team: everything a rank wrote before
    /// the barrier is visible to every rank after it.  Every rank of the
    /// currently running job must call it the same number of times (the
    /// colored sweep calls it once per color).  Like the dispatch, a waiting
    /// rank spins briefly (not at all on an oversubscribed team) before it
    /// parks.
    pub fn barrier(&self) {
        let control = &*self.control;
        // Current for every rank: nobody leaves round `r` before it opened,
        // and it cannot open again before this rank has arrived.
        let round = control.barrier_round.load(Ordering::Acquire);
        // AcqRel on the arrival count chains the ranks' writes to the last
        // arrival; its Release store of the round hands them to the waiters'
        // Acquire loads.
        if control.barrier_arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.threads {
            // Reset before the round opens: ranks enter the next barrier
            // only after they saw the new round.
            control.barrier_arrived.store(0, Ordering::Relaxed);
            // Under the lock, so the store cannot fall between a parking
            // rank's check of the round and its wait.
            let state = control.state.lock().expect("team mutex poisoned");
            control.barrier_round.store(round + 1, Ordering::Release);
            drop(state);
            control.barrier_cv.notify_all();
            return;
        }
        let mut spins = 0u32;
        while control.barrier_round.load(Ordering::Acquire) == round {
            if spins < control.spin_limit {
                std::hint::spin_loop();
                spins += 1;
            } else {
                let mut state = control.state.lock().expect("team mutex poisoned");
                while control.barrier_round.load(Ordering::Acquire) == round {
                    state = control.barrier_cv.wait(state).expect("team mutex poisoned");
                }
                break;
            }
        }
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        {
            let mut state = self.control.state.lock().expect("team mutex poisoned");
            state.shutdown = true;
            self.control.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            handle.join().expect("team worker panicked");
        }
    }
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team").field("threads", &self.threads).finish()
    }
}

fn worker_loop(rank: usize, control: &Control) {
    let mut seen_epoch = 0u64;
    loop {
        // Spin phase: the next job usually arrives within microseconds.
        let mut spins = 0u32;
        while spins < control.spin_limit && control.epoch.load(Ordering::Acquire) == seen_epoch {
            std::hint::spin_loop();
            spins += 1;
        }
        // Park phase (also the authoritative read of the dispatch state).
        let job = {
            let mut state = control.state.lock().expect("team mutex poisoned");
            while state.epoch == seen_epoch && !state.shutdown {
                state = control.work_cv.wait(state).expect("team mutex poisoned");
            }
            if state.shutdown {
                return;
            }
            seen_epoch = state.epoch;
            state.job.expect("a new epoch must carry a job")
        };
        // SAFETY: the leader keeps the closure alive until `remaining`
        // reaches zero (see `Team::run`).
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (unsafe { &*job.0 })(rank)));
        if let Err(payload) = outcome {
            // Recorded, not propagated: unwinding out of the loop would
            // leave `remaining` stuck and deadlock the leader.  (A panic
            // before a barrier other ranks wait on still deadlocks — jobs
            // that stage work with `barrier` must not panic in between.)
            control.panics.lock().expect("team mutex poisoned").push(payload);
        }
        if control.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last finisher: wake the leader if it parked.  Taking the lock
            // orders this notify after a concurrent leader's decision to
            // wait, so the wakeup cannot be missed.
            let _state = control.state.lock().expect("team mutex poisoned");
            control.done_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::for_each_share;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_rank_runs_exactly_once_per_job() {
        let team = Team::new(4);
        let counts: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..100 {
            team.run(&|rank| {
                counts[rank].fetch_add(1, Ordering::Relaxed);
            });
        }
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn single_thread_team_runs_inline() {
        let team = Team::new(1);
        assert_eq!(team.num_threads(), 1);
        let hits = AtomicUsize::new(0);
        team.run(&|rank| {
            assert_eq!(rank, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn zero_thread_request_is_clamped_to_one() {
        let team = Team::new(0);
        assert_eq!(team.num_threads(), 1);
    }

    #[test]
    fn disjoint_writes_through_row_shares() {
        let team = Team::new(3);
        let mut data = vec![usize::MAX; 1000];
        for_each_share(Some(&team), 1000, 1, &mut data[..], |rows, share| {
            share.fill(rows.start / 1000usize.div_ceil(3));
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i / 1000usize.div_ceil(3), "index {i}");
        }
    }

    #[test]
    fn barrier_stages_work_within_one_job() {
        // Phase A writes, barrier, phase B reads what *another* rank wrote
        // (relaxed: only the barrier orders it) into its own row share.
        let team = Team::new(4);
        let stage_a: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let mut stage_b = vec![0usize; 4];
        for_each_share(Some(&team), 4, 1, &mut stage_b[..], |rows, share| {
            let rank = rows.start;
            stage_a[rank].store(rank + 1, Ordering::Relaxed);
            team.barrier();
            share[0] = stage_a[(rank + 1) % 4].load(Ordering::Relaxed);
        });
        assert_eq!(stage_b, vec![2, 3, 4, 1]);
    }

    /// `rounds` barriers on `team`: before round `r` every rank writes `r`
    /// to its own cell (relaxed — only the barrier orders it), after it
    /// every rank must read `r` from every other rank's cell.  Two cell sets
    /// alternate, so the writes of round `r + 1` never touch what a slow
    /// reader of round `r` still looks at.
    fn assert_barrier_publishes_every_round(team: &Team, rounds: u64) {
        let threads = team.num_threads();
        let cells: Vec<AtomicU64> = (0..2 * threads).map(|_| AtomicU64::new(u64::MAX)).collect();
        let stale = AtomicUsize::new(0);
        team.run(&|rank| {
            for round in 0..rounds {
                let set = &cells[threads * (round % 2) as usize..][..threads];
                set[rank].store(round, Ordering::Relaxed);
                team.barrier();
                let missed = set.iter().filter(|c| c.load(Ordering::Relaxed) != round).count();
                stale.fetch_add(missed, Ordering::Relaxed);
            }
        });
        assert_eq!(stale.load(Ordering::Relaxed), 0, "a rank read a write of another round");
    }

    #[test]
    fn barrier_publishes_every_round_spinning_and_parking() {
        // Forced budgets, so both waits run whatever the host: the full
        // spin (which only ever parks when a rank is late) and the
        // oversubscribed team's immediate park.
        assert_barrier_publishes_every_round(&Team::with_spin_limit(4, SPIN_LIMIT), 10_000);
        assert_barrier_publishes_every_round(&Team::with_spin_limit(4, 0), 10_000);
        assert_barrier_publishes_every_round(&Team::new(1), 10);
    }

    #[test]
    fn sequential_jobs_see_previous_results() {
        let team = Team::new(2);
        let mut data = vec![1.0f64; 64];
        for step in 0..10 {
            for_each_share(Some(&team), 64, 1, &mut data[..], |_, share| {
                share.iter_mut().for_each(|x| *x *= 2.0);
            });
            assert_eq!(data[0], f64::powi(2.0, step + 1));
            assert_eq!(data[63], f64::powi(2.0, step + 1));
        }
    }

    #[test]
    #[should_panic(expected = "not reentrant")]
    fn nested_run_panics() {
        let team = Team::new(2);
        team.run(&|rank| {
            if rank == 0 {
                team.run(&|_| {});
            }
        });
    }

    #[test]
    fn traced_team_records_from_every_rank() {
        let mut team = Team::with_trace(4, TraceConfig::default());
        assert!(Team::new(4).trace().is_none());
        {
            let team_ref = &team;
            team_ref.run(&|rank| {
                let trace = team_ref.trace().expect("traced team");
                trace
                    .span(lv_trace::spans::ASSEMBLY_CHUNK, rank as u16)
                    .iters(rank as u64 + 1)
                    .finish();
            });
        }
        let events = team.trace_mut().expect("traced team").events();
        assert_eq!(events.len(), 4);
        // Drained rank-major: rank order is deterministic even though the
        // ranks recorded concurrently.
        let ranks: Vec<u16> = events.iter().map(|e| e.rank).collect();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn drop_joins_workers() {
        // Constructing and dropping many teams must not leak or deadlock.
        for threads in 1..=4 {
            let team = Team::new(threads);
            team.run(&|_| {});
            drop(team);
        }
    }
}
