//! Level by level through the pressure multigrid of an `N³` lid-driven
//! cavity: what each level stores and how fast it streams — CSR against the
//! diagonal storage in `f64` (the outer CG's product) and in `f32` (what the
//! V-cycle runs on; README "Level storage").
//!
//! Per level, first what is stored: rows, diagonals, the number of bitwise
//! distinct rows in `f64` (every one of them on a Galerkin level) and of row
//! classes in `f32` with the sub-epsilon entries dropped (`RowClasses`: a
//! few dozen), the longest run of rows sharing a class, the share of rows
//! in runs of at least `LONG_RUN` — the rule by which a level takes classes
//! — how many rows of a sweep the dropped entries move, and the operator
//! bytes as CSR, `f64` diagonals, `f32` diagonals and classes.  Then how it streams, one thread, median wall-clock and GB/s:
//! `CsrMatrix::spmv`, the `DiaMatrix` product and one fused damped-Jacobi
//! sweep in both precisions, and the same sweep over the row classes — each
//! kernel at both widths (`lv_runtime::lanes`): the baseline body, then the
//! clone this host selects; then one whole V-cycle on the storages the
//! hierarchy chose.  On every level the `f64` product is asserted bitwise
//! equal to CSR, the `f32` one within the rounding bound
//! `(diagonals + 2)·ε_f32·(|A|·|x|)` of it, row by row, every kernel's two
//! widths bitwise equal to each other, and the class sweep bitwise equal to
//! the diagonal sweep of the flushed matrix (`lv_solver::classes::flushed`).
//!
//! Last, the **momentum operator** of the same cavity (README "Mesh
//! renumbering and the multi-RHS momentum solve"): an assembled,
//! Dirichlet-applied system as the three-column product of a BiCGSTAB
//! iteration runs it — CSR `spmm3`, three diagonal-storage products, the
//! fused three-column kernel at both widths — and the per-step refill of the
//! diagonals from the CSR values, on 1 and `T = min(cores, 4)` threads; ms
//! and GB/s against the operator bytes each streams.  Every product is
//! asserted bitwise equal to `spmm3`, the refill to `DiaMatrix::from_csr`.
//!
//! ```text
//! cargo run --release --example vcycle_layers [-- <elements per side, default 32>]
//! ```

use alya_longvec::prelude::*;
use lv_kernel::{pressure_interpolations, pressure_laplacian, KernelConfig, NastinAssembly};
use lv_runtime::Lanes;
use lv_solver::classes::{flushed, LONG_RUN};
use lv_solver::dia::Scalar;
use lv_solver::{
    galerkin_coarse, CsrMatrix, DiaMatrix, GeometricMultigrid, LinearOperator, MultigridOptions,
    RowClasses, VectorOps,
};
use std::collections::HashSet;
use std::time::Instant;

const REPEATS: usize = 15;

/// Median milliseconds of `REPEATS` runs of `f`.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            f();
            1e3 * start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[REPEATS / 2]
}

fn gbs(bytes: usize, ms: f64) -> f64 {
    bytes as f64 / (1e6 * ms)
}

/// Median milliseconds of `kernel` at the baseline lanes and at the selected
/// ones, in that order.  `kernel` writes `out`, and the two widths must
/// leave the same bits there.
fn both_widths<T: Scalar>(out: &mut [T], mut kernel: impl FnMut(Lanes, &mut [T])) -> [f64; 2] {
    let mut bits = Vec::new();
    let ms = [Lanes::Baseline, Lanes::selected()].map(|lanes| {
        let ms = median_ms(|| kernel(lanes, out));
        bits.push(out.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<u64>>());
        ms
    });
    assert!(bits[0] == bits[1], "a wide clone moved a bit");
    ms
}

/// Rows of `csr` that differ in some bit of some `(col − row, value)` pair.
fn distinct_rows(csr: &CsrMatrix) -> usize {
    let (row_ptr, col_idx, values) = (csr.row_ptr(), csr.col_idx(), csr.values());
    let rows: HashSet<Vec<(isize, u64)>> = (0..csr.dim())
        .map(|row| {
            (row_ptr[row]..row_ptr[row + 1])
                .map(|idx| (col_idx[idx] as isize - row as isize, values[idx].to_bits()))
                .collect()
        })
        .collect();
    rows.len()
}

fn main() {
    let n: usize = match std::env::args().nth(1) {
        Some(arg) => arg.parse().expect("elements per side must be a positive integer"),
        None => 32,
    };
    let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, n);
    let mesh = scenario.build_mesh();
    let pins = scenario.pressure_pins(&mesh);
    let options = MultigridOptions::default();
    let laplacian = pressure_laplacian(&mesh, &pins);
    let interps = pressure_interpolations(&mesh, &options).expect("the cavity is a box lattice");

    // The CSR chain the hierarchy is built from (and then drops).
    let mut csr_levels = vec![laplacian];
    for p in &interps {
        let coarse = galerkin_coarse(csr_levels.last().expect("non-empty"), p);
        csr_levels.push(coarse);
    }

    println!("pressure multigrid of the {n}³ cavity, 1 thread, median of {REPEATS}");
    println!(
        "{:>5} {:>7} {:>5} {:>8} {:>7} {:>7} {:>9} {:>5} {:>10} {:>10} {:>10} {:>9}",
        "level",
        "rows",
        "diags",
        "distinct",
        "classes",
        "longest",
        "in long %",
        "moved",
        "CSR B",
        "DIA f64 B",
        "DIA f32 B",
        "classes B"
    );
    let mut timings = Vec::new();
    for (level, csr) in csr_levels.iter().enumerate() {
        let dia: DiaMatrix = DiaMatrix::from_csr(csr).expect("a lattice level fits the storage");
        let dia32 = DiaMatrix::<f32>::from_csr(csr).expect("the same pattern fits in f32");
        let rows = csr.dim();
        let x: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.11).cos()).collect();
        let inv_diag: Vec<f64> = csr.diagonal().iter().map(|d| 1.0 / d).collect();
        let narrow = |v: &[f64]| v.iter().map(|&e| e as f32).collect::<Vec<f32>>();
        let (x32, b32, inv_diag32) = (narrow(&x), narrow(&b), narrow(&inv_diag));
        let (mut y_csr, mut y_dia, mut xn) = (vec![0.0; rows], vec![0.0; rows], vec![0.0; rows]);
        let (mut y32, mut xn32) = (vec![0.0f32; rows], vec![0.0f32; rows]);

        let csr_ms = median_ms(|| csr.spmv(&x, &mut y_csr));
        let dia_ms = both_widths(&mut y_dia, |lanes, y| dia.product_into_at(lanes, &x, 0..rows, y));
        let dia32_ms =
            both_widths(&mut y32, |lanes, y| dia32.product_into_at(lanes, &x32, 0..rows, y));
        let sweep_ms = both_widths(&mut xn, |lanes, xn| {
            dia.jacobi_range_at(lanes, &x, &b, &inv_diag, 0.8, 0..rows, xn)
        });
        let sweep32_ms = both_widths(&mut xn32, |lanes, xn| {
            dia32.jacobi_range_at(lanes, &x32, &b32, &inv_diag32, 0.8, 0..rows, xn)
        });
        // The same sweep over the row classes (`f32`, sub-epsilon entries
        // dropped), whether or not the hierarchy would choose them here:
        // the bits of the diagonal sweep of the flushed matrix — and how
        // many rows that moves against the unflushed diagonals above.
        let classes = RowClasses::<f32>::from_dia(&dia32);
        let class_sweep = classes.as_ref().map(|classes| {
            let mut xn_classes = vec![0.0f32; rows];
            let ms = both_widths(&mut xn_classes, |lanes, xn| {
                classes.jacobi_range_at(lanes, &x32, &b32, &inv_diag32, 0.8, 0..rows, xn)
            });
            let same = |a: &[f32], b: &[f32]| a.iter().zip(b).filter(|(a, b)| a == b).count();
            let moved = rows - same(&xn_classes, &xn32);
            DiaMatrix::<f32>::from_csr(&flushed::<f32>(csr))
                .expect("the same pattern")
                .jacobi_range(&x32, &b32, &inv_diag32, 0.8, 0..rows, &mut xn32);
            assert!(
                same(&xn_classes, &xn32) == rows,
                "level {level}: the class sweep differs from the flushed diagonal sweep"
            );
            (classes.streamed_bytes(), ms, moved)
        });

        assert!(
            y_csr.iter().zip(&y_dia).all(|(a, b)| a.to_bits() == b.to_bits()),
            "level {level}: DIA product differs from CSR"
        );
        let abs = |v: &[f64]| v.iter().map(|e| e.abs()).collect::<Vec<f64>>();
        let mut magnitude = csr.clone();
        let abs_values = abs(csr.values());
        magnitude.pattern_and_values_mut().2.copy_from_slice(&abs_values);
        let magnitude = magnitude.mul_vec(&abs(&x));
        let bound = (dia32.offsets().len() + 2) as f64 * f64::from(f32::EPSILON);
        for row in 0..rows {
            let error = (f64::from(y32[row]) - y_csr[row]).abs();
            assert!(
                error <= bound * magnitude[row],
                "level {level} row {row}: f32 product off by {error:e}"
            );
        }

        let csr_bytes = LinearOperator::streamed_bytes(csr);
        let (dia_bytes, dia32_bytes) = (dia.streamed_bytes(), dia32.streamed_bytes());
        // Classes, longest run, share of rows in long runs, rows of the
        // sweep the dropped entries moved, bytes.
        let census = match (&classes, class_sweep) {
            (Some(c), Some((bytes, _, moved))) => [
                c.num_classes().to_string(),
                c.longest_run().to_string(),
                format!("{:.1}", 100.0 * c.rows_in_long_runs() as f64 / rows as f64),
                moved.to_string(),
                bytes.to_string(),
            ],
            _ => ["> 255", "-", "-", "-", "-"].map(String::from),
        };
        println!(
            "{level:>5} {rows:>7} {:>5} {:>8} {:>7} {:>7} {:>9} {:>5} {csr_bytes:>10} \
             {dia_bytes:>10} {dia32_bytes:>10} {:>9}",
            dia.offsets().len(),
            distinct_rows(csr),
            census[0],
            census[1],
            census[2],
            census[3],
            census[4],
        );
        timings.push((
            (csr_bytes, csr_ms),
            vec![
                Some((dia_bytes, dia_ms)),
                Some((dia32_bytes, dia32_ms)),
                Some((dia_bytes, sweep_ms)),
                Some((dia32_bytes, sweep32_ms)),
                class_sweep.map(|(bytes, ms, _)| (bytes, ms)),
            ],
        ));
    }
    println!(
        "classes: f32 rows with the entries below ε·|a_ii| dropped; a level takes them when \
         `in long %` — the rows in runs of {LONG_RUN} or more — reaches 50; `moved`: rows of \
         one sweep that differ from the unflushed f32 diagonals"
    );
    println!(
        "host lanes: {}; diagonal- and class-storage cells are baseline body | selected clone \
         (`classes`: the f32 sweep, GB/s against the runs, the table and the sweep's four \
         vectors)",
        Lanes::selected().describe()
    );
    print!("{:>5} | {:>7} {:>5}", "level", "spmv ms", "GB/s");
    for kernel in ["f64 ms", "f32 ms", "sweep64", "sweep32", "classes"] {
        print!(" | {kernel:>13} {:>11}", "GB/s");
    }
    println!();
    for (level, ((csr_bytes, csr_ms), kernels)) in timings.iter().enumerate() {
        print!("{level:>5} | {csr_ms:>7.4} {:>5.1}", gbs(*csr_bytes, *csr_ms));
        for kernel in kernels {
            match *kernel {
                Some((bytes, [narrow, wide])) => print!(
                    " | {narrow:>6.4}|{wide:<6.4} {:>5.1}|{:<5.1}",
                    gbs(bytes, narrow),
                    gbs(bytes, wide)
                ),
                None => print!(" | {:>13} {:>11}", "-", "-"),
            }
        }
        println!();
    }

    let rows = csr_levels[0].dim();
    let mut multigrid =
        GeometricMultigrid::new(&csr_levels[0], interps, &options).expect("SPD lattice hierarchy");
    let rhs: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.23).sin()).collect();
    let mut z = vec![0.0; rows];
    let mut ops = VectorOps::serial();
    let cycle_ms = median_ms(|| multigrid.v_cycle(&mut ops, &rhs, &mut z));
    let storage: Vec<String> = multigrid.level_storage().iter().map(ToString::to_string).collect();
    println!(
        "one f32 V-cycle ({} levels: {}; {} sweeps per leg): {cycle_ms:.4} ms",
        multigrid.num_levels(),
        storage.join(" | "),
        options.smoothing_sweeps
    );

    momentum_operator(&scenario, &mesh);
}

/// The momentum operator block: the three-column product on both storages
/// and the refill between them.
fn momentum_operator(scenario: &Scenario, mesh: &Mesh) {
    let assembly = NastinAssembly::new(mesh.clone(), KernelConfig::new(128, OptLevel::Vec1));
    let (mut velocity, pressure) = scenario.initial_state(mesh);
    // A flow with every component in it, so no column of the system is zero.
    for (i, v) in velocity.as_mut_slice().iter_mut().enumerate() {
        *v += 0.05 * (i as f64 * 0.13).sin();
    }
    let mut system = assembly.assemble(&velocity, &pressure);
    assembly.apply_dirichlet(&mut system.matrix, &mut system.rhs);
    let csr = system.matrix;
    let rows = csr.dim();
    let mut dia: DiaMatrix =
        DiaMatrix::from_csr(&assembly.new_matrix()).expect("a generator-ordered box fits");
    let filled = DiaMatrix::<f64>::from_csr(&csr).expect("the same pattern");

    let x: [Vec<f64>; 3] =
        std::array::from_fn(|c| system.rhs.iter().skip(c).step_by(3).copied().collect());
    let x = [&x[0][..], &x[1][..], &x[2][..]];
    // The three output columns, one after the other.
    let mut y = vec![0.0; 3 * rows];
    fn columns(y: &mut [f64]) -> [&mut [f64]; 3] {
        let (y0, rest) = y.split_at_mut(y.len() / 3);
        let (y1, y2) = rest.split_at_mut(rest.len() / 2);
        [y0, y1, y2]
    }
    let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let spmm3_ms = median_ms(|| csr.spmm3_range(x, 0..rows, columns(&mut y), [true; 3]));
    let expect = bits(&y);
    let three_ms = both_widths(&mut y, |lanes, y| {
        for (xc, yc) in x.into_iter().zip(columns(y)) {
            filled.product_into_at(lanes, xc, 0..rows, yc);
        }
    });
    assert!(bits(&y) == expect, "three diagonal-storage products differ from spmm3");
    let fused_ms =
        both_widths(&mut y, |lanes, y| filled.product3_into_at(lanes, x, 0..rows, columns(y)));
    assert!(bits(&y) == expect, "the fused three-column product differs from spmm3");

    let (csr_bytes, dia_bytes) = (LinearOperator::streamed_bytes(&csr), dia.streamed_bytes());
    println!(
        "momentum operator of the {rows}-row system: {} entries as CSR ({csr_bytes} B), {} \
         diagonals ({dia_bytes} B); three columns per product, cells are baseline body | \
         selected clone",
        csr.nnz(),
        dia.offsets().len()
    );
    println!("{:>22} | {:>13} {:>11} | {:>10}", "kernel", "ms", "GB/s", "operator B");
    println!(
        "{:>22} | {spmm3_ms:>13.4} {:>11.1} | {csr_bytes:>10}",
        "CSR spmm3",
        gbs(csr_bytes, spmm3_ms)
    );
    for (kernel, bytes, [narrow, wide]) in [
        ("3 x product_into", 3 * dia_bytes, three_ms),
        ("fused product3_into", dia_bytes, fused_ms),
    ] {
        println!(
            "{kernel:>22} | {narrow:>6.4}|{wide:<6.4} {:>5.1}|{:<5.1} | {bytes:>10}",
            gbs(bytes, narrow),
            gbs(bytes, wide)
        );
    }

    // The refill reads the CSR values and column indices and writes every
    // diagonal once.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut thread_counts = vec![1, cores.min(4)];
    thread_counts.dedup();
    for threads in thread_counts {
        let team = Team::new(threads);
        let refill_ms = median_ms(|| dia.refill_from_csr(&team, &csr));
        assert!(dia == filled, "the refill differs from DiaMatrix::from_csr");
        println!(
            "{:>22} | {refill_ms:>13.4} {:>11.1} | {:>10}",
            format!("refill, {threads} thread(s)"),
            gbs(csr_bytes + dia_bytes, refill_ms),
            csr_bytes + dia_bytes
        );
    }
}
