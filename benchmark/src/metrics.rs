//! The metric tables: every name, unit and direction the benchmark prints.
//! `BENCHMARK.json` lists the same names (a test below keeps the two in
//! step); `compare` reads the bounds from here.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: printed by every workload with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics.  Every workload reports every one, so each is
/// defined per workload rather than per code path:
///
/// * `unit_ms` — median paced time ([`crate::pace`]) of one unit of
///   the workload's work, summed over its legs: a cavity time step on 1
///   thread plus one on `T` threads; one assembly sweep at each of the four
///   `VECTOR_SIZE` configurations; one fleet job at saturation (drain time
///   ÷ jobs); one full co-design sweep;
/// * `setup_s` — median paced time of the workload's repeated set-up.
///
/// Peak memory is reported (`proc.peak_rss_mib`, per layer) but not gated:
/// on `fleet_sat` it depends on whether two mid-size jobs happen to be in
/// flight at once, and the program's own share of it spreads by a quarter
/// from run to run.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "unit_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// A per-layer metric: printed by every workload's traced pass; 0 where the
/// workload never calls the layer.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats exactly between runs of one commit (a count, not a timing).
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Lower, exact: false }
}

const fn rate(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Higher, exact: false }
}

const fn count(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Lower, exact: true }
}

const fn count_up(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Higher, exact: true }
}

/// The per-layer metrics, grouped by the crate (= layer) they measure.
pub const PER_LAYER: &[Layer] = &[
    // host: the ceilings the layers are read against (informational).
    count("host.nproc", "count"),
    count("host.threads", "count"),
    count("host.l2_kib", "KiB"),
    count("host.l3_kib", "KiB"),
    count("host.triad_array_mib", "MiB"),
    rate("host.triad_gbs", "GB/s"),
    rate("host.triad_mt_gbs", "GB/s"),
    rate("host.fma_gflops", "GFLOP/s"),
    // `VmHWM` of the traced pass's process.
    timing("proc.peak_rss_mib", "MiB"),
    // lv-mesh
    timing("mesh.build_s", "s"),
    timing("mesh.coloring_s", "s"),
    count("mesh.colors", "count"),
    count("mesh.chunks", "count"),
    // lv-runtime
    timing("runtime.team_spawn_s", "s"),
    timing("runtime.dispatch_us", "us"),
    rate("runtime.dot_gbs", "GB/s"),
    // lv-kernel
    timing("kernel.assembly_s", "s"),
    timing("kernel.correction_s", "s"),
    rate("kernel.asm_gflops", "GFLOP/s"),
    timing("kernel.color_sweep_s", "s"),
    rate("kernel.sweep_balance", "ratio"),
    timing("kernel.operators_setup_s", "s"),
    timing("kernel.mf_apply_s", "s"),
    timing("kernel.asm_ns_per_elem_vs16", "ns"),
    timing("kernel.asm_ns_per_elem_vs128", "ns"),
    timing("kernel.asm_ns_per_elem_vs240", "ns"),
    timing("kernel.asm_ns_per_elem_vs240_explicit", "ns"),
    // lv-solver
    timing("solver.momentum_s", "s"),
    timing("solver.poisson_s", "s"),
    count("solver.momentum_iters", "count"),
    count("solver.poisson_iters", "count"),
    timing("solver.bicgstab3_iter_s", "s"),
    timing("solver.mgcg_iter_s", "s"),
    timing("solver.mg_vcycle_s", "s"),
    timing("solver.mg_setup_s", "s"),
    timing("solver.spmv_s", "s"),
    rate("solver.spmv_gbs", "GB/s"),
    timing("solver.spmm3_s", "s"),
    timing("solver.cg_iter_s", "s"),
    // lv-driver
    timing("driver.step_s_t1", "s"),
    timing("driver.step_s_mt", "s"),
    rate("driver.parallel_eff", "ratio"),
    timing("driver.other_s", "s"),
    rate("driver.layer_sum_ratio", "ratio"),
    timing("driver.stepper_setup_s", "s"),
    timing("driver.ckpt_save_s", "s"),
    timing("driver.ckpt_load_s", "s"),
    count("driver.ckpt_bytes", "B"),
    count("driver.retries", "count"),
    count("driver.poisson_fallbacks", "count"),
    // lv-server
    rate("server.jobs_per_s", "1/s"),
    count("server.slices", "count"),
    count("server.preemptions", "count"),
    count("server.retries", "count"),
    count("server.steps_committed", "count"),
    timing("server.slice_mean_s", "s"),
    timing("server.queue_wait_mean_s", "s"),
    timing("server.fsync_mean_us", "us"),
    // Exact per journal record, but records follow the scheduling.
    Layer { name: "server.fsync_count", unit: "count", better: Better::Lower, exact: false },
    timing("server.submit_mean_us", "us"),
    rate("server.useful_ratio", "ratio"),
    rate("server.worker_scaling", "ratio"),
    timing("server.replay_s", "s"),
    rate("server.replay_records_per_s", "1/s"),
    // lv-trace
    timing("trace.overhead_ratio", "ratio"),
    count("trace.dropped_events", "count"),
    // lv-compiler / lv-sim / lv-core: host time of the simulator, then the
    // simulated results (exact counts, never gated).
    timing("compiler.plan_s", "s"),
    timing("sim.emit_s", "s"),
    timing("sim.host_ns_per_instr", "ns"),
    count("sim.instructions", "count"),
    count("sim.cycles_scalar", "cycles"),
    count("sim.cycles_vs240_vec1", "cycles"),
    count_up("sim.speedup_vs240", "ratio"),
    count_up("sim.opt_vs_vanilla_vs240", "ratio"),
    count_up("sim.vector_mix_vs240", "ratio"),
    count_up("sim.avg_vl_vs240", "elements"),
    count("sim.vcpi_phase6_vs240", "cycles"),
    count("sim.phase2_share_vs240", "ratio"),
    count("sim.l1_mpki_vs240", "1/kinstr"),
    count("sim.fingerprint48", "hash"),
    // Roofline position of the per-step layers (informational).
    rate("roofline.assembly_pct", "%"),
    rate("roofline.momentum_pct", "%"),
    rate("roofline.poisson_pct", "%"),
    rate("roofline.min_pct", "%"),
];

/// The per-layer values of one traced pass: every [`PER_LAYER`] name, 0
/// until the workload sets it.
#[derive(Debug, Clone)]
pub struct Layers {
    values: Vec<f64>,
}

impl Default for Layers {
    fn default() -> Self {
        Layers { values: vec![0.0; PER_LAYER.len()] }
    }
}

impl Layers {
    /// Sets metric `name`.
    ///
    /// # Panics
    /// Panics on a name missing from [`PER_LAYER`] — a typo in a workload,
    /// caught by the smoke tests.
    pub fn set(&mut self, name: &str, value: f64) {
        let index = PER_LAYER
            .iter()
            .position(|layer| layer.name == name)
            .unwrap_or_else(|| panic!("'{name}' is not a per-layer metric"));
        self.values[index] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        PER_LAYER
            .iter()
            .position(|layer| layer.name == name)
            .map_or(0.0, |index| self.values[index])
    }

    /// `(definition, value)` rows in table order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static Layer, f64)> + '_ {
        PER_LAYER.iter().zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonio::{self, Value};

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::workloads::ALL.iter().map(|w| w.name))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "'{name}' is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` at the repo root and the tables here describe the
    /// same benchmark.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = jsonio::parse(&text).expect("BENCHMARK.json parses");
        let field =
            |row: &Value, key: &str| row.get(key).and_then(Value::as_str).unwrap().to_owned();
        let rows = |key: &str| doc.get(key).and_then(Value::as_array).unwrap().to_vec();

        let listed: Vec<(String, String, String, f64)> = rows("end_to_end")
            .iter()
            .map(|r| {
                let bound = r.get("bound").and_then(Value::as_f64).unwrap();
                (field(r, "name"), field(r, "unit"), field(r, "better"), bound)
            })
            .collect();
        let here: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.name().into(), m.bound))
            .collect();
        assert_eq!(listed, here);

        let listed: Vec<(String, String, String)> = rows("per_layer")
            .iter()
            .map(|r| (field(r, "name"), field(r, "unit"), field(r, "better")))
            .collect();
        let here: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.name().into()))
            .collect();
        assert_eq!(listed, here);

        let listed: Vec<String> = rows("workloads").iter().map(|r| field(r, "name")).collect();
        let here: Vec<String> = crate::workloads::ALL.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(listed, here);
        for row in rows("workloads") {
            assert!(field(&row, "why").len() <= 200, "a why has at most 200 characters");
        }
        let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
