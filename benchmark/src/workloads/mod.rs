//! The four workloads.  Each is a closed loop driven from this one process:
//! the next unit of work starts when the previous one has completed, on at
//! most `T = min(nproc, 4)` threads or workers.  The seed drives the mesh
//! jitter and the fleet order; the program only ever sees generated inputs.

use crate::metrics::Layers;
use crate::pace::Paced;
use crate::spans::SpanLog;
use lv_driver::SimState;
use lv_trace::summary::{RunSummary, SpanSummary};
use std::path::PathBuf;
use std::time::Instant;

pub mod assembly;
pub mod cavity;
pub mod codesign;
pub mod fleet;

/// Problem sizes: the published ones, or the 8³ sizes `cargo test` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// What one run of a workload is given.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the measuring window, seconds.
    pub seconds: f64,
    pub size: Size,
    /// Scratch and trace files go here (`benchmark/out` in a checkout).
    pub out_dir: PathBuf,
}

/// What every pass reports: operations attempted and failed, the output
/// checks that did not hold, and the human-readable lines.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks made so far.
    pub checks: u64,
    /// One entry per output check that failed; empty means correct.
    pub problems: Vec<String>,
    pub lines: Vec<String>,
}

impl Report {
    /// Records `problem` unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// Result of the timed pass (tracing off): the end-to-end metrics.
#[derive(Debug)]
pub struct Timed {
    pub report: Report,
    pub unit_ms: f64,
    pub setup_s: f64,
    /// Every leg's samples (the set-ups last), for `--samples`.
    pub paced: Vec<Paced>,
}

/// One workload: its name and its two passes.
pub struct Workload {
    pub name: &'static str,
    pub timed: fn(&Ctx, &mut SpanLog) -> Timed,
    pub traced: fn(&Ctx, &mut SpanLog, &mut Layers) -> Report,
}

pub const ALL: &[Workload] = &[
    Workload { name: "cavity32", timed: cavity::timed, traced: cavity::traced },
    Workload { name: "assembly_vs", timed: assembly::timed, traced: assembly::traced },
    Workload { name: "fleet_sat", timed: fleet::timed, traced: fleet::traced },
    Workload { name: "codesign16", timed: codesign::timed, traced: codesign::traced },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// A stopwatch over the measuring window of one leg.
pub struct Window {
    start: Instant,
    seconds: f64,
}

impl Window {
    pub fn open(seconds: f64) -> Window {
        Window { start: Instant::now(), seconds }
    }

    /// Whether another unit that takes about `next` seconds still fits.
    pub fn fits(&self, next: f64) -> bool {
        self.start.elapsed().as_secs_f64() + next <= self.seconds
    }
}

/// FNV-1a over the bits of a run of floats: equal hashes stand for bitwise
/// equal outputs in the checks.
pub fn hash_f64s(seed: u64, values: &[f64]) -> u64 {
    values.iter().fold(seed, |hash, v| (hash ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3))
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of a whole simulation state (step, time, velocity, pressure).
pub fn hash_state(state: &SimState) -> u64 {
    let head = hash_f64s(FNV_OFFSET ^ state.step, &[state.time]);
    hash_f64s(hash_f64s(head, state.velocity.as_slice()), state.pressure.as_slice())
}

/// SplitMix64: the generator behind the fleet shuffle.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Span `path` summed over `summaries` (one per traced team).
fn merged(summaries: &[RunSummary], path: &str) -> Option<SpanSummary> {
    let mut parts = summaries.iter().filter_map(|summary| summary.span(path));
    let mut sum = parts.next()?.clone();
    for part in parts {
        sum.events += part.events;
        sum.total_ns += part.total_ns;
        sum.iters += part.iters;
        sum.flops += part.flops;
        sum.bytes += part.bytes;
    }
    Some(sum)
}

/// Share of its roofline a group of spans reaches: achieved GFLOP/s over
/// `min(peak, bandwidth × flops/byte)`, in percent.  Flops and bytes are
/// the modelled tallies the spans carry, not hardware counts, and the
/// bandwidth is the cache-inclusive triad figure: a layer whose working set
/// sits in cache can read above 100.
fn roofline_pct(spans: &[&Option<SpanSummary>], triad_gbs: f64, peak_gflops: f64) -> f64 {
    let sum = |f: fn(&SpanSummary) -> u64| {
        spans.iter().filter_map(|s| s.as_ref()).map(f).sum::<u64>() as f64
    };
    let (flops, bytes, ns) = (sum(|s| s.flops), sum(|s| s.bytes), sum(|s| s.total_ns));
    if flops == 0.0 || bytes == 0.0 || ns == 0.0 {
        return 0.0;
    }
    100.0 * (flops / ns) / peak_gflops.min(triad_gbs * flops / bytes)
}

/// The per-step layer table, from the `lv-trace` summaries of the teams
/// that stepped (one traced `Team`, or a server's traced workers).  The
/// four phase spans plus the remainder of `driver/step` are exhaustive, so
/// the five buckets sum to the step by construction.  Needs the host
/// ceilings already in `layers`.
pub fn step_layers(layers: &mut Layers, summaries: &[RunSummary]) {
    let span = |path: &str| merged(summaries, path);
    let seconds = |path: &str| span(path).map_or(0.0, |s| s.seconds());
    let per_event = |path: &str| span(path).map_or(0.0, |s| s.seconds() / s.events.max(1) as f64);
    let steps = span("driver/step").map_or(0, |s| s.iters) as f64;
    if steps == 0.0 {
        return;
    }
    let phases = ["driver/assembly", "driver/momentum", "driver/poisson", "driver/correction"];
    layers.set("kernel.assembly_s", seconds(phases[0]) / steps);
    layers.set("solver.momentum_s", seconds(phases[1]) / steps);
    layers.set("solver.poisson_s", seconds(phases[2]) / steps);
    layers.set("kernel.correction_s", seconds(phases[3]) / steps);
    let in_phases: f64 = phases.iter().map(|path| seconds(path)).sum();
    layers.set("driver.other_s", (seconds("driver/step") - in_phases) / steps);

    let counter = |name: &str| summaries.iter().filter_map(|s| s.counter(name)).sum::<u64>() as f64;
    layers.set("solver.momentum_iters", counter("momentum_iterations"));
    layers.set("solver.poisson_iters", counter("poisson_iterations"));
    layers.set("driver.retries", counter("retries"));
    layers.set("driver.poisson_fallbacks", counter("poisson_fallbacks"));
    layers.set("trace.dropped_events", counter("dropped_events"));

    let sweep = span("assembly/color_sweep");
    let bicgstab = span("solver/bicgstab3/iteration");
    let (cg, levels) = (span("solver/cg/iteration"), span("solver/mg/level"));
    sweep_layers(layers, summaries);
    layers.set("solver.bicgstab3_iter_s", per_event("solver/bicgstab3/iteration"));
    layers.set("solver.mg_vcycle_s", per_event("solver/mg/vcycle"));
    // A CG iteration span closes before the V-cycle that preconditions the
    // next one, so one MG-CG iteration is the two together.
    let cg_events = cg.as_ref().map_or(1, |s| s.events.max(1)) as f64;
    layers.set(
        "solver.mgcg_iter_s",
        (seconds("solver/cg/iteration") + seconds("solver/mg/vcycle")) / cg_events,
    );

    let (triad, peak) = (layers.get("host.triad_gbs"), layers.get("host.fma_gflops"));
    let rows = [
        ("roofline.assembly_pct", roofline_pct(&[&sweep], triad, peak)),
        ("roofline.momentum_pct", roofline_pct(&[&bicgstab], triad, peak)),
        ("roofline.poisson_pct", roofline_pct(&[&cg, &levels], triad, peak)),
    ];
    for (name, pct) in rows {
        layers.set(name, pct);
    }
    let min = rows.iter().map(|row| row.1).filter(|pct| *pct > 0.0).fold(f64::INFINITY, f64::min);
    layers.set("roofline.min_pct", if min.is_finite() { min } else { 0.0 });
}

/// The colored assembly sweep, from the summaries of the teams that swept:
/// seconds per sweep and the modelled GFLOP/s it reaches.
pub fn sweep_layers(layers: &mut Layers, summaries: &[RunSummary]) {
    if let Some(sweep) = merged(summaries, "assembly/color_sweep") {
        layers.set("kernel.color_sweep_s", sweep.seconds() / sweep.events.max(1) as f64);
        layers.set("kernel.asm_gflops", sweep.achieved_gflops());
    }
}

/// Busy time of the per-rank assembly chunks over the time the sweeps held
/// all `threads` ranks: 1 when no rank ever waits at a color barrier.
pub fn sweep_balance(summary: &RunSummary, threads: usize) -> f64 {
    let sweeps = summary.phase_seconds("assembly/color_sweep");
    if sweeps == 0.0 {
        return 0.0;
    }
    summary.phase_seconds("assembly/chunk") / (threads as f64 * sweeps)
}

/// Which of the per-step layers sits furthest below its roofline, as a
/// sentence for the report.
pub fn furthest_from_roofline(layers: &Layers) -> Option<String> {
    [
        ("lv-kernel assembly", "roofline.assembly_pct"),
        ("lv-solver momentum", "roofline.momentum_pct"),
        ("lv-solver poisson", "roofline.poisson_pct"),
    ]
    .iter()
    .map(|(layer, name)| (layer, layers.get(name)))
    .filter(|(_, pct)| *pct > 0.0)
    .min_by(|a, b| a.1.total_cmp(&b.1))
    .map(|(layer, pct)| {
        format!("furthest from its roofline: {layer} at {pct:.1} % of min(peak, triad x flops/byte), modelled traffic")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, both passes, at smoke size: outputs check out, every
    /// end-to-end metric is positive, and the traced pass fills its layers.
    #[test]
    fn every_workload_runs_clean_at_smoke_size() {
        for workload in ALL {
            let out_dir = std::env::temp_dir().join(format!(
                "lv-benchmark-smoke-{}-{}",
                workload.name,
                std::process::id()
            ));
            let ctx = Ctx { seed: 7, seconds: 0.2, size: Size::Smoke, out_dir: out_dir.clone() };

            let mut spans = SpanLog::new(workload.name, false);
            let timed = (workload.timed)(&ctx, &mut spans);
            assert_eq!(timed.report.problems, Vec::<String>::new(), "{}", workload.name);
            assert!(timed.report.attempted > 0 && timed.report.failed == 0, "{}", workload.name);
            assert!(timed.unit_ms > 0.0 && timed.setup_s > 0.0, "{}", workload.name);

            let mut spans = SpanLog::new(workload.name, true);
            let mut layers = Layers::default();
            let report = (workload.traced)(&ctx, &mut spans, &mut layers);
            assert_eq!(report.problems, Vec::<String>::new(), "{} traced", workload.name);
            assert!(report.attempted > 0 && report.failed == 0, "{} traced", workload.name);
            assert!(layers.get("mesh.build_s") > 0.0, "{} measures its mesh", workload.name);
            assert!(layers.rows().all(|(_, v)| v.is_finite()), "{} layers finite", workload.name);
            spans.write(&out_dir).expect("trace file");
            let trace = out_dir.join(format!("trace-{}.jsonl", workload.name));
            let text = std::fs::read_to_string(trace).expect("trace written");
            assert!(text.lines().count() > 3, "{} recorded spans", workload.name);
            for line in text.lines() {
                crate::jsonio::parse(line).expect("every trace line is JSON");
            }
            let _ = std::fs::remove_dir_all(&out_dir);
        }
    }

    #[test]
    fn state_hashes_tell_bit_flips_apart() {
        let a = hash_f64s(FNV_OFFSET, &[1.0, 2.0, 3.0]);
        let b = hash_f64s(FNV_OFFSET, &[1.0, 2.0, f64::from_bits(3.0f64.to_bits() ^ 1)]);
        assert_ne!(a, b);
        assert_eq!(a, hash_f64s(FNV_OFFSET, &[1.0, 2.0, 3.0]));
    }
}
