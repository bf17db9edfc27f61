//! The host's pace.  This machine is a few cores of a shared host, and what
//! the neighbours do to the shared caches and memory moves every workload's
//! wall-clock by 20–40 % from one quarter of an hour to the next, while a
//! register-only loop does not move at all.  A wall-clock median gated at
//! any useful bound would fail on the weather alone.
//!
//! So every timed unit runs between two *beats*: one pass of a fixed
//! gather–update kernel of this package's own (no code of the repository
//! under it) over tables four times the L2.  A unit whose beats took `s`
//! times the reference beat is reported at its *paced time*
//! `unit / (1 + PACED_SHARE (s − 1))`: what it would have taken had the
//! host run at the reference pace.  The gated metrics are medians of paced
//! times; the plain wall-clock is printed beside them (README, "The pace").

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Entries of the table a beat gathers from and scatters into: 2 Mi `f64`
/// = 16 MiB each, beyond L2 whatever ran before the beat.
const TABLE: usize = 1 << 21;
/// Gather–update operations per beat.
const OPS: usize = 1 << 20;
/// A beat this recent also stands before the next unit.
const FRESH: Duration = Duration::from_millis(2);

/// Seconds of a beat at the reference pace: the median beat over the 72
/// runs [`PACED_SHARE`] was fitted and checked on (2 vCPUs of a shared
/// Sapphire Rapids host; its beats ran from 9 to 21 ms), so that a paced
/// time reads as the wall-clock of a usual hour there.  Only the anchor of
/// the scale: on another host every paced time is off by one constant
/// factor.
pub const REFERENCE_BEAT_S: f64 = 0.0125;

/// Share of a unit's time at the reference pace that scales with the beat.
/// One constant for every leg of every workload: over 18 runs of each in
/// two hours when a run's median beat lay anywhere between 0.9 and 1.5
/// times [`REFERENCE_BEAT_S`], the run-to-run spread of every workload's
/// `unit_ms` was smallest, and flat, for shares from 0.8 to 1.0 — at 0.9,
/// 5.6 / 2.2 / 5.2 / 4.7 % against 21 / 12 / 21 / 18 % for the plain
/// wall-clock.  Re-fit it from `--samples` files.
pub const PACED_SHARE: f64 = 0.9;

/// One timed unit and the mean of the beats on either side of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub unit_s: f64,
    pub beat_s: f64,
}

impl Sample {
    /// How many times slower than the reference the beats around this unit
    /// ran.
    pub fn slowdown(&self) -> f64 {
        self.beat_s / REFERENCE_BEAT_S
    }

    /// Seconds the unit would have taken at the reference pace.
    pub fn paced_s(&self) -> f64 {
        self.unit_s / (1.0 + PACED_SHARE * (self.slowdown() - 1.0))
    }
}

/// The beat kernel and its tables.
pub struct Pace {
    index: Vec<u32>,
    data: Vec<f64>,
    out: Vec<f64>,
    cursor: usize,
    last: Option<(Instant, f64)>,
}

impl Pace {
    pub fn new() -> Pace {
        // A fixed LCG: the same scattered addresses in every run.
        let mut state = 0x1234_5678_9abc_def0_u64;
        let index = (0..TABLE)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 33) % TABLE as u64) as u32
            })
            .collect();
        let data = (0..TABLE).map(|i| i as f64 * 1e-6).collect();
        Pace { index, data, out: vec![0.0; TABLE], cursor: 0, last: None }
    }

    /// One beat: [`OPS`] streamed reads, each updating a scattered entry.
    /// Returns its seconds.
    pub fn beat(&mut self) -> f64 {
        let from = self.cursor;
        self.cursor = (from + OPS) % TABLE;
        let start = Instant::now();
        for k in from..from + OPS {
            let j = self.index[k] as usize;
            self.out[j] += self.data[k] * 1.0001 + 0.5;
        }
        let seconds = start.elapsed().as_secs_f64();
        black_box(&mut self.out);
        self.last = Some((Instant::now(), seconds));
        seconds
    }

    /// Runs `unit`, which returns its own stopwatch reading beside its
    /// result, between two beats.  Back-to-back units share the beat
    /// between them.
    pub fn around<R>(&mut self, unit: impl FnOnce() -> (R, f64)) -> (R, Sample) {
        let before = match self.last {
            Some((at, seconds)) if at.elapsed() < FRESH => seconds,
            _ => self.beat(),
        };
        let (result, unit_s) = unit();
        let after = self.beat();
        (result, Sample { unit_s, beat_s: 0.5 * (before + after) })
    }
}

/// The samples of one leg of a workload.
#[derive(Debug, Clone)]
pub struct Paced {
    pub name: String,
    pub samples: Vec<Sample>,
}

impl Paced {
    pub fn new(name: impl Into<String>) -> Paced {
        Paced { name: name.into(), samples: Vec::new() }
    }

    pub fn push(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// Wall-clock seconds of every unit, as measured.
    pub fn raw(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.unit_s).collect()
    }

    /// Paced seconds of every unit.
    pub fn paced(&self) -> Vec<f64> {
        self.samples.iter().map(Sample::paced_s).collect()
    }

    /// The gated time of one unit of this leg.
    pub fn paced_median(&self) -> f64 {
        crate::stats::median(&self.paced())
    }

    /// `name: paced median; wall-clock median, tail, n; pace`, for the
    /// report (`scale` converts seconds to `unit`).
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let slowdowns: Vec<f64> = self.samples.iter().map(Sample::slowdown).collect();
        format!(
            "{}: paced median {:.4} {unit}; wall-clock {}, beats at {:.2}x the reference",
            self.name,
            self.paced_median() * scale,
            crate::stats::describe(&self.raw(), scale, unit),
            crate::stats::median(&slowdowns)
        )
    }

    /// `leg,unit_s,beat_s` lines: what [`PACED_SHARE`] is fitted on.
    pub fn csv(&self) -> String {
        self.samples.iter().map(|s| format!("{},{},{}\n", self.name, s.unit_s, s.beat_s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_beat_takes_time_and_moves_the_cursor() {
        let mut pace = Pace::new();
        assert!(pace.beat() > 0.0);
        assert_eq!(pace.cursor, OPS % TABLE);
        assert!(pace.beat() > 0.0);
        assert_eq!(pace.cursor, 0, "two beats walk the whole table");
    }

    #[test]
    fn a_unit_runs_between_two_beats() {
        let mut pace = Pace::new();
        let (result, first) = pace.around(|| ("done", 1.0));
        assert_eq!((result, first.unit_s), ("done", 1.0));
        assert!(first.beat_s > 0.0);
        // A unit that follows within FRESH takes the closing beat of the
        // one before it as its opening beat; either way it has both.
        let ((), second) = pace.around(|| ((), 2.0));
        assert!(second.unit_s == 2.0 && second.beat_s > 0.0);
    }

    #[test]
    fn paced_time_takes_out_the_paced_share_of_a_slowdown() {
        let slow = Sample { unit_s: 1.45, beat_s: 1.5 * REFERENCE_BEAT_S };
        assert!((slow.slowdown() - 1.5).abs() < 1e-12);
        // 1 s at the reference = 0.1 + 0.9 x 1.5 = 1.45 s at 1.5 beats.
        assert!((slow.paced_s() - 1.0).abs() < 1e-12);
        let usual = Sample { unit_s: 2.0, beat_s: REFERENCE_BEAT_S };
        assert_eq!(usual.paced_s(), 2.0);
    }

    #[test]
    fn a_leg_reports_the_median_of_its_paced_times() {
        let mut leg = Paced::new("leg");
        for (unit_s, pace) in [(1.0, 1.0), (1.9, 2.0), (9.0, 3.0)] {
            leg.push(Sample { unit_s, beat_s: pace * REFERENCE_BEAT_S });
        }
        assert_eq!(leg.raw(), [1.0, 1.9, 9.0]);
        // Paced times 1, 1 and 9 / 2.8.
        assert!((leg.paced_median() - 1.0).abs() < 1e-12);
        assert_eq!(leg.csv().lines().count(), 3);
    }
}
