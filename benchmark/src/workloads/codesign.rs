//! `codesign16` — the paper's currency: a fresh `lv_core::Runner` swept
//! over 3 platforms × 6 `VECTOR_SIZE` × {vanilla, VEC2, IVEC2, VEC1} plus
//! each platform's scalar baseline (75 simulated mini-app runs) on a
//! seed-jittered 16³ mesh, then `run_codesign_loop`.  `lv-compiler` and
//! `lv-sim` do all the work and the numeric stack none.  The simulated
//! counters repeat exactly, so a simulator speed-up must leave them
//! identical; they are reported as counts and never gated.

use super::{Ctx, Report, Size, Timed, Window, FNV_OFFSET};
use crate::metrics::Layers;
use crate::pace::{Pace, Paced, Sample};
use crate::spans::SpanLog;
use crate::{host, probes};
use lv_compiler::codegen::emit_loop_nest;
use lv_compiler::vectorizer::Vectorizer;
use lv_core::{run_codesign_loop, RunKey, Runner, SweepConfig};
use lv_kernel::workload::WorkloadBuilder;
use lv_kernel::{KernelConfig, OptLevel};
use lv_mesh::{BoxMeshBuilder, ElementChunks, Mesh};
use lv_metrics::RunMetrics;
use lv_sim::engine::Machine;
use lv_sim::platform::{Platform, PlatformKind};

const RISCV: PlatformKind = PlatformKind::RiscvVec;

fn build_mesh(ctx: &Ctx) -> Mesh {
    let n = match ctx.size {
        Size::Full => 16,
        // 10³: the smallest mesh tests/paper_claims.rs trusts the bands on.
        Size::Smoke => 10,
    };
    BoxMeshBuilder::new(n, n, n).lid_driven_cavity().with_jitter(0.15, ctx.seed).build()
}

/// Mesh plus `Runner`: one set-up of this workload.
fn set_up(spans: &mut SpanLog, ctx: &Ctx) -> (Runner, f64) {
    let open = spans.enter("setup");
    let (mesh, mesh_s) = spans.time("lv-mesh/build_mesh", || build_mesh(ctx));
    let (runner, runner_s) =
        spans.time("lv-core/Runner::with_mesh", || Runner::with_mesh(mesh, SweepConfig::default()));
    spans.exit(open);
    (runner, mesh_s + runner_s)
}

/// The keys of one platform's sweep, scalar baseline first.
fn platform_keys(platform: PlatformKind, vector_sizes: &[usize]) -> Vec<RunKey> {
    let mut keys = vec![RunKey::scalar_baseline(platform)];
    for &vs in vector_sizes {
        keys.push(RunKey::vanilla(platform, vs));
        keys.extend(
            [OptLevel::Vec2, OptLevel::IVec2, OptLevel::Vec1]
                .map(|opt| RunKey::optimized(platform, vs, opt)),
        );
    }
    keys
}

fn sweep_keys(runner: &Runner) -> Vec<RunKey> {
    PlatformKind::ALL.iter().flat_map(|&p| platform_keys(p, runner.vector_sizes())).collect()
}

/// Hash over every simulated counter of `keys` in `runner`.
fn fingerprint(runner: &mut Runner, keys: &[RunKey]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut mix = |bits: u64| hash = (hash ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
    for &key in keys {
        let run = runner.run(key);
        for (_, phase) in run.counters.phases() {
            for bits in [
                phase.cycles.to_bits(),
                phase.vector_cycles.to_bits(),
                phase.instructions,
                phase.vector_instructions,
                phase.vector_arith,
                phase.vector_mem,
                phase.vector_control,
                phase.vector_config,
                phase.scalar_instructions,
                phase.memory_instructions,
                phase.vl_sum,
                phase.flops.to_bits(),
                phase.l1_misses,
                phase.l2_misses,
                phase.bytes,
            ] {
                mix(bits);
            }
        }
    }
    hash
}

/// One full sweep on a fresh runner: every key, a beat between each two,
/// then the co-design loop (which re-reads the cached runs).  Returns the
/// runner, the sweep as one sample (seconds summed; the beats averaged by
/// the seconds they stood beside) and the set-up sample.
fn sweep(spans: &mut SpanLog, pace: &mut Pace, ctx: &Ctx) -> (Runner, Sample, Sample) {
    let open = spans.enter("sweep");
    let ((mut runner, _), setup) = pace.around(|| {
        let (runner, setup_s) = set_up(spans, ctx);
        ((runner, ()), setup_s)
    });
    let mut parts = Vec::new();
    for platform in PlatformKind::ALL {
        let keys = platform_keys(platform, runner.vector_sizes());
        let batch =
            spans.enter(&format!("lv-core/Runner::run x{} ({})", keys.len(), platform.name()));
        for key in keys {
            let ((), part) = pace.around(|| {
                spans.time("lv-core/Runner::run", || {
                    runner.run(key);
                })
            });
            parts.push(part);
        }
        spans.exit(batch);
    }
    let (_, part) = pace.around(|| {
        spans.time("lv-core/run_codesign_loop", || run_codesign_loop(&mut runner, RISCV, 240))
    });
    parts.push(part);
    spans.exit(open);
    let unit_s: f64 = parts.iter().map(|part| part.unit_s).sum();
    let beat_s = parts.iter().map(|part| part.unit_s * part.beat_s).sum::<f64>() / unit_s;
    (runner, Sample { unit_s, beat_s }, setup)
}

/// The bands of `tests/paper_claims.rs`, on the sweep's own runs: every
/// claim counts as attempted, every one outside its band as failed.
fn check_claims(report: &mut Report, r: &mut Runner) {
    let (checks, problems) = (report.checks, report.problems.len());
    let scalar = r.metrics(RunKey::scalar_baseline(RISCV));
    let vanilla240 = r.metrics(RunKey::vanilla(RISCV, 240));
    let compute: f64 = [3u8, 4, 6, 7].iter().map(|&p| scalar.phase(p).cycle_share).sum();
    report.check(compute > 0.75 && scalar.dominant_phase().phase == 6, || {
        format!("scalar run: compute phases hold {compute:.2} of the cycles, phase 6 must dominate")
    });
    let gather = |m: &RunMetrics| [1u8, 2, 8].iter().map(|&p| m.phase(p).cycle_share).sum::<f64>();
    report.check(gather(&vanilla240) > 2.0 * gather(&scalar), || {
        "vanilla vectorization must shift the bottleneck to the gather phases".to_string()
    });
    for vs in [64usize, 240, 256] {
        let phase2 =
            |r: &mut Runner, opt| r.metrics(RunKey::optimized(RISCV, vs, opt)).phase(2).cycles;
        let (original, vec2, ivec2) =
            (phase2(r, OptLevel::Original), phase2(r, OptLevel::Vec2), phase2(r, OptLevel::IVec2));
        report.check(vec2 > original && ivec2 < original, || {
            format!("VS={vs}: VEC2 must lose and IVEC2 must win in phase 2")
        });
        let gain =
            r.speedup(RunKey::optimized(RISCV, vs, OptLevel::Vec1), RunKey::vanilla(RISCV, vs));
        report.check(gain > 1.0, || format!("VS={vs}: final code vs vanilla = {gain:.2}"));
    }
    let speedup = |r: &mut Runner, vs| {
        r.speedup(RunKey::optimized(RISCV, vs, OptLevel::Vec1), RunKey::scalar_baseline(RISCV))
    };
    let (s16, s240, s256) = (speedup(r, 16), speedup(r, 240), speedup(r, 256));
    report.check(s240 > 4.0 && s240 >= s256 && s240 > s16, || {
        format!(
            "speed-ups over scalar: VS16 {s16:.2}, VS240 {s240:.2} (paper 7.6), VS256 {s256:.2}"
        )
    });
    for platform in PlatformKind::ALL {
        for vs in [64usize, 240] {
            let gain = r.speedup(
                RunKey::optimized(platform, vs, OptLevel::Vec1),
                RunKey::vanilla(platform, vs),
            );
            report.check(gain > 0.99, || {
                format!("{platform:?} VS={vs}: the refactors cost speed ({gain:.2})")
            });
        }
    }
    let aurora = r.speedup(
        RunKey::optimized(PlatformKind::SxAurora, 240, OptLevel::Vec1),
        RunKey::vanilla(PlatformKind::SxAurora, 240),
    );
    report.check(aurora > 1.1, || format!("SX-Aurora gains only {aurora:.2} (paper 1.64)"));
    let p8 = |r: &mut Runner, vs| {
        let m = r.metrics(RunKey::optimized(RISCV, vs, OptLevel::Vec1));
        (m.phase(8).cycle_share, m.phase(8).vector_instructions)
    };
    let ((share16, vec16), (share256, vec256)) = (p8(r, 16), p8(r, 256));
    report.check(vec16 == 0 && vec256 == 0 && share256 > share16, || {
        "phase 8 must stay scalar and its share must grow with VECTOR_SIZE".to_string()
    });
    let full = r.metrics(RunKey::optimized(RISCV, 256, OptLevel::Vec1));
    report.check([3u8, 4, 6, 7].iter().all(|&p| full.phase(p).occupancy > 0.95), || {
        "occupancy must reach the register capacity at VS=256".to_string()
    });
    let vanilla16 = r.metrics(RunKey::vanilla(RISCV, 16));
    let (a, b) = (vanilla16.phase(6), vanilla240.phase(6));
    report.check(
        b.avg_vector_length > 10.0 * a.avg_vector_length
            && b.vector_cpi > a.vector_cpi
            && a.vector_instructions > 5 * b.vector_instructions,
        || "phase-6 vCPI, AVL and instruction count must follow Table 5".to_string(),
    );
    report.attempted += report.checks - checks;
    report.failed += (report.problems.len() - problems) as u64;
}

pub fn timed(ctx: &Ctx, spans: &mut SpanLog) -> Timed {
    let mut report = Report::default();
    let mut pace = Pace::new();
    let mut sweeps = Paced::new("sweep_s");
    let mut setups = Paced::new("setup");
    let mut prints = Vec::new();
    let window = Window::open(ctx.seconds);
    let mut checked = None;
    while sweeps.samples.last().is_none_or(|last| window.fits(last.unit_s)) {
        let (mut runner, swept, setup) = sweep(spans, &mut pace, ctx);
        sweeps.push(swept);
        setups.push(setup);
        let keys = sweep_keys(&runner);
        report.attempted += keys.len() as u64;
        prints.push(fingerprint(&mut runner, &keys));
        checked = Some(runner);
    }
    let mut runner = checked.expect("at least one sweep ran");
    check_claims(&mut report, &mut runner);

    // Determinism: a fresh runner reproduces the RISC-V VECTOR_SIZE 240
    // column of the sweep counter for counter.
    let column = platform_keys(RISCV, &[240]);
    let (mut fresh, _) = set_up(spans, ctx);
    spans.time("lv-core/Runner::run (determinism column)", || {
        for &key in &column {
            fresh.run(key);
        }
    });
    report.check(fingerprint(&mut fresh, &column) == fingerprint(&mut runner, &column), || {
        "a fresh runner does not reproduce the simulated counters".to_string()
    });
    report.check(prints.iter().all(|p| *p == prints[0]), || {
        "sim_fingerprint differs between sweeps of one run".to_string()
    });
    while setups.samples.len() < 25 {
        setups.push(pace.around(|| ((), set_up(spans, ctx).1)).1);
    }
    report.lines.push(format!(
        "sim_fingerprint: {:016x} (every simulated counter of the 75 runs)",
        prints[0]
    ));
    report.lines.push(sweeps.describe(1.0, "s"));
    report.lines.push(setups.describe(1.0, "s"));
    let (unit_s, setup_s) = (sweeps.paced_median(), setups.paced_median());
    Timed { report, unit_ms: 1e3 * unit_s, setup_s, paced: vec![sweeps, setups] }
}

/// Host time of the two halves of one simulated run — planning the loop
/// nests and emitting them into the machine — on the first chunk of the
/// RISC-V VEC1 VECTOR_SIZE-240 configuration.
fn compiler_layers(spans: &mut SpanLog, layers: &mut Layers, mesh: &Mesh) {
    let open = spans.enter("probes/lv-compiler+lv-sim");
    let config = KernelConfig { semi_implicit: false, ..KernelConfig::new(240, OptLevel::Vec1) };
    let builder = WorkloadBuilder::new(mesh, config);
    let chunks = ElementChunks::new(mesh, 240);
    let chunk = chunks.iter().next().expect("the mesh has elements");
    let nests = builder.phase_nests(chunk);
    let platform = Platform::from_kind(RISCV);
    let vectorizer = Vectorizer::new(platform.vlmax);
    let mut plans = Vec::new();
    let plan_s = probes::timed_median(spans, "lv-compiler/Vectorizer::plan (8 phases)", 9, || {
        plans = nests.iter().map(|(_, nest)| vectorizer.plan(nest)).collect();
    });
    layers.set("compiler.plan_s", plan_s);
    let emit_s = probes::timed_median(spans, "lv-compiler/emit_loop_nest (8 phases)", 9, || {
        let mut machine = Machine::new(platform);
        for ((phase, nest), plan) in nests.iter().zip(&plans) {
            machine.begin_phase(*phase);
            emit_loop_nest(&mut machine, nest, plan);
            machine.end_phase();
        }
        machine.total_cycles()
    });
    layers.set("sim.emit_s", emit_s);
    spans.exit(open);
}

pub fn traced(ctx: &Ctx, spans: &mut SpanLog, layers: &mut Layers) -> Report {
    host::probe(spans, layers);
    let pass = spans.enter("pass");
    let (mut runner, swept, _) = sweep(spans, &mut Pace::new(), ctx);
    let seconds = swept.unit_s;
    spans.exit(pass);

    let mut report = Report::default();
    let keys = sweep_keys(&runner);
    report.attempted += keys.len() as u64;
    check_claims(&mut report, &mut runner);
    let print = fingerprint(&mut runner, &keys);
    report.lines.push(format!("sim_fingerprint: {print:016x}"));
    layers.set("sim.fingerprint48", (print & ((1 << 48) - 1)) as f64);

    let instructions: u64 =
        keys.iter().map(|&key| runner.run(key).counters.total().instructions).sum();
    layers.set("sim.instructions", instructions as f64);
    layers.set("sim.host_ns_per_instr", 1e9 * seconds / instructions as f64);
    let scalar = RunKey::scalar_baseline(RISCV);
    let (vanilla, best) =
        (RunKey::vanilla(RISCV, 240), RunKey::optimized(RISCV, 240, OptLevel::Vec1));
    layers.set("sim.cycles_scalar", runner.cycles(scalar));
    layers.set("sim.cycles_vs240_vec1", runner.cycles(best));
    layers.set("sim.speedup_vs240", runner.speedup(best, scalar));
    layers.set("sim.opt_vs_vanilla_vs240", runner.speedup(best, vanilla));
    let metrics = runner.metrics(best);
    layers.set("sim.vector_mix_vs240", metrics.overall.vector_mix);
    layers.set("sim.avg_vl_vs240", metrics.overall.avg_vector_length);
    layers.set("sim.vcpi_phase6_vs240", metrics.phase(6).vector_cpi);
    layers.set("sim.phase2_share_vs240", metrics.phase(2).cycle_share);
    layers.set("sim.l1_mpki_vs240", metrics.overall.l1_dcm_per_kinstr);

    compiler_layers(spans, layers, runner.mesh());
    probes::mesh_layers(spans, layers, 240, || build_mesh(ctx));
    report
}
