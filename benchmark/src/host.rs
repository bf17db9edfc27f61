//! The host block: what the numbers were measured on, and the two ceilings
//! (memory bandwidth, multiply-add rate) the layers are read against.
//! %-of-ceiling figures derived from these are informational only.

use crate::metrics::Layers;
use crate::spans::SpanLog;
use std::hint::black_box;
use std::time::Instant;

/// Logical cores of the host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Threads (or workers) of every parallel leg: `min(nproc, 4)`.
pub fn threads() -> usize {
    nproc().min(4)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Size in KiB of cpu0's unified cache at `level`, from sysfs (0 when the
/// host does not say).
pub fn cache_kib(level: u32) -> u64 {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |dir: &std::path::Path, file: &str| {
        std::fs::read_to_string(dir.join(file)).map(|s| s.trim().to_string()).unwrap_or_default()
    };
    let Ok(entries) = std::fs::read_dir(base) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|dir| read(dir, "level") == level.to_string() && read(dir, "type") == "Unified")
        .find_map(|dir| {
            let size = read(&dir, "size");
            let (digits, scale) = match size.strip_suffix('K') {
                Some(digits) => (digits, 1),
                None => (size.strip_suffix('M')?, 1024),
            };
            digits.parse::<u64>().ok().map(|n| n * scale)
        })
        .unwrap_or(0)
}

/// `rustc --version` of the toolchain on the path (the one `cargo run`
/// built this binary with).
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Elements per triad array: four times the L2 of the cores used (8 MiB at
/// least).  This VM reports a last-level cache in the hundreds of MiB, so
/// the arrays cannot exceed it and the figure is cache-inclusive.
fn triad_len(threads: usize) -> usize {
    let l2_bytes = cache_kib(2).max(512) as usize * 1024;
    (4 * l2_bytes * threads).max(8 << 20) / std::mem::size_of::<f64>()
}

/// STREAM triad `a = b + s·c` split over `threads` scoped threads; best of
/// `reps` passes, in GB/s (three arrays moved per pass).  The spawn sits
/// inside the stopwatch: ~0.1 ms against passes of several ms.
fn triad_gbs(threads: usize, len: usize, reps: usize) -> f64 {
    let mut a = vec![0.0f64; len];
    let b = vec![1.5f64; len];
    let c = vec![0.25f64; len];
    let per = len.div_ceil(threads.max(1));
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a.chunks_mut(per).zip(b.chunks(per)).zip(c.chunks(per)) {
                scope.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = *y + 3.0 * *z;
                    }
                });
            }
        });
        best = best.min(start.elapsed().as_secs_f64());
        black_box(&a);
    }
    (3 * len * std::mem::size_of::<f64>()) as f64 / best / 1e9
}

/// Multiply-add ceiling of this build's code generation on one core:
/// 32 independent `x·m + a` chains, in GFLOP/s.
fn fma_gflops() -> f64 {
    const CHAINS: usize = 32;
    const ITERS: usize = 4_000_000;
    let mut acc = [1.0f64; CHAINS];
    let (m, a) = (black_box(0.999_999_f64), black_box(1e-6_f64));
    let start = Instant::now();
    for _ in 0..ITERS {
        for x in &mut acc {
            *x = *x * m + a;
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    black_box(acc);
    (2 * CHAINS * ITERS) as f64 / seconds / 1e9
}

/// Measures the host block of a traced pass into `layers`.
pub fn probe(spans: &mut SpanLog, layers: &mut Layers) {
    let threads = threads();
    layers.set("host.nproc", nproc() as f64);
    layers.set("host.threads", threads as f64);
    layers.set("host.l2_kib", cache_kib(2) as f64);
    layers.set("host.l3_kib", cache_kib(3) as f64);
    let len = triad_len(threads);
    layers.set("host.triad_array_mib", (len * 8) as f64 / (1 << 20) as f64);
    let open = spans.enter("host/probes");
    let (gbs, _) = spans.time("host/triad_t1", || triad_gbs(1, len, 5));
    layers.set("host.triad_gbs", gbs);
    let (gbs, _) = spans.time("host/triad_mt", || triad_gbs(threads, len, 5));
    layers.set("host.triad_mt_gbs", gbs);
    let (gflops, _) = spans.time("host/fma", fma_gflops);
    layers.set("host.fma_gflops", gflops);
    spans.exit(open);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probes_report_positive_ceilings() {
        assert!(threads() >= 1 && threads() <= 4);
        assert!(peak_rss_mib() > 0.0);
        assert!(triad_gbs(2, 1 << 16, 2) > 0.0);
        assert!(fma_gflops() > 0.0);
    }
}
