//! Wall-clock comparison driver for the serial vs pooled Krylov solvers —
//! and for the multi-RHS (SpMM) momentum path.
//!
//! The solver-side sibling of [`crate::numeric`]: assembles a cavity system
//! with the mini-app, then times SpMV, CG and BiCGSTAB serially and on
//! worker teams of the requested sizes.  BiCGSTAB (and the SpMV probe) run
//! on the assembled non-symmetric momentum matrix — asserted non-symmetric,
//! so the bench demonstrably covers the path the examples run; CG runs on
//! the **real assembled pressure Laplacian** (`∫ ∇N_a·∇N_b`, gauge-pinned,
//! asserted SPD — the operator `lv-driver`'s pressure-Poisson solve runs
//! on) — the two system kinds a Navier–Stokes time step actually solves.  On top
//! of the serial-vs-pooled axis, the comparison measures the multi-RHS
//! axis: three sequential SpMVs vs one fused [`CsrMatrix::spmm3`]
//! (`spmv3` / `spmm3` rows) and three sequential momentum solves vs one
//! batched [`lv_solver::bicgstab3_on`] (`bicgstab_x3` / `bicgstab3` rows).
//! Like the assembly comparison, every
//! timed parallel run is validated first — here the contract is *stronger*
//! than the assembly one: the deterministic kernels of
//! [`lv_solver::parallel`] make solutions, iteration counts and residual
//! histories **bitwise identical** to the serial oracle for every thread
//! count (and the batched solve bitwise identical to the sequential one,
//! per component), and the comparison panics on the first deviating bit.
//! It is the engine behind the `wallclock_solver` bench and the committed
//! `BENCH_solver.json` perf-trajectory artifact, which also records the
//! matrix [`lv_solver::ProfileStats`] and the [`RenumberingReport`] so the
//! bandwidth the RCM pass saves stays visible in the trajectory.

use lv_kernel::{KernelConfig, NastinAssembly};
use lv_mesh::renumber::{reverse_cuthill_mckee, LocalityReport, NodePermutation};
use lv_mesh::{Field, Mesh, VectorField};
use lv_runtime::Team;
use lv_solver::{
    bicgstab3_on, bicgstab_on, conjugate_gradient_on, CsrMatrix, MultiVector, ProfileStats,
    SolveOptions, SolveOutcome, VectorOps,
};
use lv_trace::json::{JsonArray, JsonObject};
use lv_trace::time_min;

/// Timing (and correctness) of one solver method at one thread count.
#[derive(Debug, Clone)]
pub struct SolverMeasurement {
    /// `"spmv"`, `"cg"` or `"bicgstab"`.
    pub method: &'static str,
    /// Worker threads (1 = the serial oracle).
    pub threads: usize,
    /// Minimum wall-clock seconds across the repetitions (one full solve,
    /// or one SpMV).
    pub seconds: f64,
    /// Speed-up with respect to the serial run of the same method.
    pub speedup: f64,
    /// Iterations of the solve (0 for `spmv`).
    pub iterations: usize,
    /// Final relative residual of the solve (0 for `spmv`).
    pub final_residual: f64,
    /// Whether solution, iteration count and residual history matched the
    /// serial oracle bit for bit (trivially true for the oracle itself).
    pub bitwise_equal: bool,
}

/// Result of a full serial-vs-parallel solver comparison on one mesh.
#[derive(Debug, Clone)]
pub struct SolverComparison {
    /// Rows of the solved system (mesh nodes).
    pub rows: usize,
    /// Stored non-zeros of the system matrix.
    pub nnz: usize,
    /// Elements of the workload mesh.
    pub elements: usize,
    /// Repetitions each measurement was timed for.
    pub repetitions: usize,
    /// Whether the assembled momentum matrix is numerically symmetric
    /// (must be `false`: BiCGSTAB is exercised on the true non-symmetric
    /// operator, not an SPD stand-in).
    pub momentum_symmetric: bool,
    /// Bandwidth of the momentum matrix pattern.
    pub bandwidth: usize,
    /// Row-span / fill statistics of the momentum matrix pattern.
    pub profile: ProfileStats,
    /// Per-(method, threads) measurements, serial first within each method.
    pub measurements: Vec<SolverMeasurement>,
}

fn assert_bitwise_outcome(oracle: &SolveOutcome, got: &SolveOutcome, what: &str) {
    assert_eq!(got.iterations, oracle.iterations, "{what}: iteration count diverged");
    assert_eq!(
        got.residual_history.len(),
        oracle.residual_history.len(),
        "{what}: history length diverged"
    );
    for (a, b) in oracle.residual_history.iter().zip(&got.residual_history) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: residual history diverged ({a} vs {b})");
    }
    for (a, b) in oracle.solution.iter().zip(&got.solution) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: solution diverged ({a} vs {b})");
    }
}

/// The pressure operator the CG rows exercise: the **real** finite-element
/// Laplacian `L_ab = ∫ ∇N_a·∇N_b dΩ` assembled from the mesh by
/// [`lv_kernel::projection`], symmetrically pinned at node 0 (the gauge of
/// the pure-Neumann operator) so it is symmetric positive definite.  This
/// replaced the synthetic shifted graph Laplacian the bench used before the
/// fractional-step driver existed: the CG measurements now run on exactly
/// the operator the driver's pressure-Poisson solve runs on.
///
/// # Panics
/// Panics if the assembled, pinned operator is not symmetric (the SPD
/// precondition of CG).
pub fn pressure_poisson(mesh: &Mesh, vector_size: usize) -> CsrMatrix {
    let matrix = lv_kernel::pressure_laplacian(mesh, vector_size, &[0]);
    assert!(
        matrix.is_symmetric(1e-12),
        "the pinned pressure Laplacian must be symmetric — CG requires an SPD operator"
    );
    matrix
}

impl SolverComparison {
    /// Runs the comparison on the systems built from `mesh` under `config`
    /// (the assembled momentum matrix for SpMV/BiCGSTAB, the SPD graph
    /// Laplacian on the same pattern for CG): serial oracles, then one
    /// measurement per entry of `thread_counts` on a team of that size (one
    /// team per count, reused across the methods — the pooled path), each
    /// validated bitwise against its oracle.
    ///
    /// # Panics
    /// Panics if any parallel run deviates from the serial oracle in any
    /// bit of the solution, the residual history or the iteration count.
    pub fn measure(
        mesh: &Mesh,
        config: KernelConfig,
        thread_counts: &[usize],
        repetitions: usize,
    ) -> Self {
        assert!(repetitions > 0, "need at least one repetition");
        let assembly = NastinAssembly::new(mesh.clone(), config);
        let mut velocity = VectorField::taylor_green(mesh);
        velocity.apply_boundary_conditions(
            mesh,
            lv_mesh::Vec3::new(1.0, 0.0, 0.0),
            lv_mesh::Vec3::ZERO,
        );
        let pressure = Field::from_fn(mesh, |p| p.x * p.y - 0.5 * p.z);
        let mut out = assembly.assemble(&velocity, &pressure);
        assembly.apply_dirichlet(&mut out.matrix, &mut out.rhs);
        let matrix = out.matrix;
        let momentum_symmetric = matrix.is_symmetric(1e-12);
        assert!(
            !momentum_symmetric,
            "the assembled momentum matrix must be non-symmetric — BiCGSTAB has to be \
             exercised on the operator the examples actually solve"
        );
        let poisson = pressure_poisson(mesh, config.vector_size);
        let n = mesh.num_nodes();
        let b: Vec<f64> = (0..n).map(|i| out.rhs[3 * i]).collect();
        // The Poisson RHS respects the gauge: the pinned unknown is zero.
        let b_poisson = {
            let mut b = b.clone();
            b[0] = 0.0;
            b
        };
        let b3 = MultiVector::from_interleaved(&out.rhs);
        let options = SolveOptions { max_iterations: 2000, tolerance: 1e-8, ..Default::default() };

        let mut measurements = Vec::new();

        // --- serial oracles ---------------------------------------------
        let x_probe: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % 31) as f64 / 31.0 - 0.5).collect();
        let mut y_oracle = vec![0.0; n];
        let spmv_serial = time_min(repetitions, || {
            VectorOps::serial().spmv(&matrix, &x_probe, &mut y_oracle);
        });
        measurements.push(SolverMeasurement {
            method: "spmv",
            threads: 1,
            seconds: spmv_serial,
            speedup: 1.0,
            iterations: 0,
            final_residual: 0.0,
            bitwise_equal: true,
        });

        let mut cg_oracle: Option<SolveOutcome> = None;
        let cg_serial = time_min(repetitions, || {
            cg_oracle = Some(
                lv_solver::conjugate_gradient(&poisson, &b_poisson, &options)
                    .expect("serial CG must converge on the SPD pressure system"),
            );
        });
        let cg_oracle = cg_oracle.unwrap();
        measurements.push(SolverMeasurement {
            method: "cg",
            threads: 1,
            seconds: cg_serial,
            speedup: 1.0,
            iterations: cg_oracle.iterations,
            final_residual: cg_oracle.final_residual(),
            bitwise_equal: true,
        });

        let mut bi_oracle: Option<SolveOutcome> = None;
        let bi_serial = time_min(repetitions, || {
            bi_oracle = Some(
                lv_solver::bicgstab(&matrix, &b, &options)
                    .expect("serial BiCGSTAB must converge on the assembled system"),
            );
        });
        let bi_oracle = bi_oracle.unwrap();
        measurements.push(SolverMeasurement {
            method: "bicgstab",
            threads: 1,
            seconds: bi_serial,
            speedup: 1.0,
            iterations: bi_oracle.iterations,
            final_residual: bi_oracle.final_residual(),
            bitwise_equal: true,
        });

        // --- the multi-RHS axis: 3 sequential streams vs one fused --------
        let x3 = MultiVector::from_columns([
            &x_probe,
            &(0..n).map(|i| ((i * 17 + 3) % 29) as f64 / 29.0 - 0.5).collect::<Vec<_>>(),
            &(0..n).map(|i| ((i * 23 + 11) % 37) as f64 / 37.0 - 0.5).collect::<Vec<_>>(),
        ]);
        // Both timed regions write into preallocated storage — the baseline
        // must not be charged allocations or copies the fused path skips.
        let mut y3_seq = MultiVector::zeros(n);
        let spmv3_serial = time_min(repetitions, || {
            let mut ops = VectorOps::serial();
            for c in 0..3 {
                ops.spmv(&matrix, x3.component(c), y3_seq.component_mut(c));
            }
        });
        measurements.push(SolverMeasurement {
            method: "spmv3",
            threads: 1,
            seconds: spmv3_serial,
            speedup: 1.0,
            iterations: 0,
            final_residual: 0.0,
            bitwise_equal: true,
        });

        let mut y3 = MultiVector::zeros(n);
        let spmm3_serial = time_min(repetitions, || {
            VectorOps::serial().spmm3(&matrix, &x3, &mut y3, [true; 3]);
        });
        assert_eq!(y3, y3_seq, "fused spmm3 deviated from three sequential SpMVs");
        measurements.push(SolverMeasurement {
            method: "spmm3",
            threads: 1,
            seconds: spmm3_serial,
            speedup: spmv3_serial / spmm3_serial,
            iterations: 0,
            final_residual: 0.0,
            bitwise_equal: true,
        });

        let mut seq3_oracle: Option<[SolveOutcome; 3]> = None;
        let seq3_serial = time_min(repetitions, || {
            let solves: Vec<SolveOutcome> = (0..3)
                .map(|c| {
                    lv_solver::bicgstab(&matrix, b3.component(c), &options)
                        .expect("serial per-component momentum solve must converge")
                })
                .collect();
            seq3_oracle = Some(solves.try_into().expect("three components"));
        });
        let seq3_oracle = seq3_oracle.unwrap();
        measurements.push(SolverMeasurement {
            method: "bicgstab_x3",
            threads: 1,
            seconds: seq3_serial,
            speedup: 1.0,
            iterations: seq3_oracle.iter().map(|s| s.iterations).sum(),
            final_residual: seq3_oracle
                .iter()
                .map(SolveOutcome::final_residual)
                .fold(0.0, f64::max),
            bitwise_equal: true,
        });

        let validate_batched = |outcomes: [Result<SolveOutcome, lv_solver::SolverError>; 3],
                                what: &str|
         -> [SolveOutcome; 3] {
            let outcomes = outcomes.map(|o| o.expect("batched momentum solve must converge"));
            for (c, (oracle, got)) in seq3_oracle.iter().zip(&outcomes).enumerate() {
                assert_bitwise_outcome(oracle, got, &format!("{what} component {c}"));
            }
            outcomes
        };
        let mut bi3: Option<[Result<SolveOutcome, lv_solver::SolverError>; 3]> = None;
        // Serial means a team of one: no worker is spawned, nothing dispatched.
        let serial_team = Team::new(1);
        let bi3_serial = time_min(repetitions, || {
            bi3 = Some(bicgstab3_on(&serial_team, &matrix, &b3, &options));
        });
        let bi3_outcomes = validate_batched(bi3.unwrap(), "serial batched BiCGSTAB");
        measurements.push(SolverMeasurement {
            method: "bicgstab3",
            threads: 1,
            seconds: bi3_serial,
            speedup: seq3_serial / bi3_serial,
            iterations: bi3_outcomes.iter().map(|s| s.iterations).sum(),
            final_residual: bi3_outcomes
                .iter()
                .map(SolveOutcome::final_residual)
                .fold(0.0, f64::max),
            bitwise_equal: true,
        });

        // --- pooled runs -------------------------------------------------
        for &threads in thread_counts {
            let threads = threads.max(1);
            if threads == 1 {
                continue; // that is the oracle row
            }
            let team = Team::new(threads);

            let mut y = vec![0.0; n];
            let seconds = time_min(repetitions, || {
                VectorOps::on_team(&team).spmv(&matrix, &x_probe, &mut y);
            });
            let bitwise = y_oracle.iter().zip(&y).all(|(a, c)| a.to_bits() == c.to_bits());
            assert!(bitwise, "parallel SpMV ({threads} threads) deviated from the serial oracle");
            measurements.push(SolverMeasurement {
                method: "spmv",
                threads,
                seconds,
                speedup: spmv_serial / seconds,
                iterations: 0,
                final_residual: 0.0,
                bitwise_equal: bitwise,
            });

            let mut cg: Option<SolveOutcome> = None;
            let seconds = time_min(repetitions, || {
                cg = Some(
                    conjugate_gradient_on(&team, &poisson, &b_poisson, &options)
                        .expect("pooled CG must converge on the SPD pressure system"),
                );
            });
            let cg = cg.unwrap();
            assert_bitwise_outcome(&cg_oracle, &cg, &format!("CG at {threads} threads"));
            measurements.push(SolverMeasurement {
                method: "cg",
                threads,
                seconds,
                speedup: cg_serial / seconds,
                iterations: cg.iterations,
                final_residual: cg.final_residual(),
                bitwise_equal: true,
            });

            let mut bi: Option<SolveOutcome> = None;
            let seconds = time_min(repetitions, || {
                bi = Some(
                    bicgstab_on(&team, &matrix, &b, &options)
                        .expect("pooled BiCGSTAB must converge on the assembled system"),
                );
            });
            let bi = bi.unwrap();
            assert_bitwise_outcome(&bi_oracle, &bi, &format!("BiCGSTAB at {threads} threads"));
            measurements.push(SolverMeasurement {
                method: "bicgstab",
                threads,
                seconds,
                speedup: bi_serial / seconds,
                iterations: bi.iterations,
                final_residual: bi.final_residual(),
                bitwise_equal: true,
            });

            let mut bi3: Option<[Result<SolveOutcome, lv_solver::SolverError>; 3]> = None;
            let seconds = time_min(repetitions, || {
                bi3 = Some(bicgstab3_on(&team, &matrix, &b3, &options));
            });
            let outcomes =
                validate_batched(bi3.unwrap(), &format!("batched BiCGSTAB at {threads} threads"));
            measurements.push(SolverMeasurement {
                method: "bicgstab3",
                threads,
                seconds,
                speedup: seq3_serial / seconds,
                iterations: outcomes.iter().map(|s| s.iterations).sum(),
                final_residual: outcomes
                    .iter()
                    .map(SolveOutcome::final_residual)
                    .fold(0.0, f64::max),
                bitwise_equal: true,
            });
        }

        SolverComparison {
            rows: matrix.dim(),
            nnz: matrix.nnz(),
            elements: mesh.num_elements(),
            repetitions,
            momentum_symmetric,
            bandwidth: matrix.bandwidth(),
            profile: matrix.profile_stats(),
            measurements,
        }
    }

    /// The measurement of `(method, threads)`, if present.
    pub fn measurement(&self, method: &str, threads: usize) -> Option<&SolverMeasurement> {
        self.measurements.iter().find(|m| m.method == method && m.threads == threads)
    }

    /// Best parallel speed-up of a method across the measured thread counts
    /// (NaN when only the serial row exists).
    pub fn best_parallel_speedup(&self, method: &str) -> f64 {
        self.measurements
            .iter()
            .filter(|m| m.method == method && m.threads > 1)
            .map(|m| m.speedup)
            .fold(f64::NAN, f64::max)
    }

    /// One JSON object per comparison, via the shared [`lv_trace::json`]
    /// emitter (the offline `serde_json` shim cannot serialize).
    pub fn to_json(&self) -> String {
        let mut cases = JsonArray::new();
        for m in &self.measurements {
            cases.push_object(
                JsonObject::new()
                    .str("method", m.method)
                    .usize("threads", m.threads)
                    .f64_fixed("seconds", m.seconds, 9)
                    .f64_fixed("speedup", m.speedup, 4)
                    .usize("iterations", m.iterations)
                    .f64_exp("final_residual", m.final_residual)
                    .bool("bitwise_equal", m.bitwise_equal),
            );
        }
        JsonObject::new()
            .usize("rows", self.rows)
            .usize("nnz", self.nnz)
            .usize("elements", self.elements)
            .usize("repetitions", self.repetitions)
            .bool("momentum_symmetric", self.momentum_symmetric)
            .usize("bandwidth", self.bandwidth)
            .usize("max_row_span", self.profile.max_row_span)
            .f64_fixed("mean_row_span", self.profile.mean_row_span, 2)
            .f64_fixed("nnz_per_row", self.profile.mean_nnz_per_row, 2)
            .array("cases", cases)
            .finish()
    }

    /// Aligned human-readable table of the comparison.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "{} rows, {} nnz ({} elements, min of {} reps); bandwidth {}, max row span {}, \
             {:.1} nnz/row, symmetric: {}\n",
            self.rows,
            self.nnz,
            self.elements,
            self.repetitions,
            self.bandwidth,
            self.profile.max_row_span,
            self.profile.mean_nnz_per_row,
            self.momentum_symmetric
        );
        for m in &self.measurements {
            out.push_str(&format!(
                "  {:<9} {:>2}t {:>10.3} ms  {:>6.2}x  {}\n",
                m.method,
                m.threads,
                m.seconds * 1e3,
                m.speedup,
                if m.iterations > 0 {
                    format!(
                        "{} iters, residual {:.2e} (bitwise == serial)",
                        m.iterations, m.final_residual
                    )
                } else {
                    "bitwise == serial".to_string()
                }
            ));
        }
        out
    }
}

/// The renumbering observables committed with the solver artifact: the
/// bandwidth and gather locality of the momentum-system pattern in the
/// "as-imported" (scrambled) node order versus after reverse Cuthill–McKee.
///
/// The structured generators number nodes lexicographically — already
/// bandwidth-optimal for a box, a luxury real unstructured meshes lack — so
/// the honest "before" state is a deterministic scramble emulating an
/// imported mesh; the generator-order bandwidth is recorded alongside as
/// the floor RCM is chasing.
#[derive(Debug, Clone)]
pub struct RenumberingReport {
    /// Mesh nodes (= matrix rows).
    pub rows: usize,
    /// Stored non-zeros of the pattern.
    pub nnz: usize,
    /// `VECTOR_SIZE` used for the gather-span metrics.
    pub vector_size: usize,
    /// Pattern bandwidth in the scrambled ("imported") order.
    pub bandwidth_before: usize,
    /// Pattern bandwidth after RCM.
    pub bandwidth_after: usize,
    /// Pattern bandwidth in the pristine generator order (the optimum RCM
    /// is chasing).
    pub bandwidth_generator: usize,
    /// `bandwidth_before / bandwidth_after`.
    pub bandwidth_ratio: f64,
    /// Max row span before RCM.
    pub max_row_span_before: usize,
    /// Max row span after RCM.
    pub max_row_span_after: usize,
    /// Mean phase-1/2 chunk gather span before RCM.
    pub mean_chunk_span_before: f64,
    /// Mean phase-1/2 chunk gather span after RCM.
    pub mean_chunk_span_after: f64,
}

impl RenumberingReport {
    /// Measures the renumbering win on `mesh`: scramble (seeded,
    /// deterministic), measure, RCM, measure again.
    pub fn measure(mesh: &Mesh, vector_size: usize, seed: u64) -> Self {
        let pattern = |m: &Mesh| {
            let (row_ptr, col_idx) = m.node_graph_csr();
            CsrMatrix::from_pattern(row_ptr, col_idx)
        };
        let generator_matrix = pattern(mesh);
        let scrambled = mesh.renumber_nodes(&NodePermutation::scrambled(mesh.num_nodes(), seed));
        let renumbered = scrambled.renumber_nodes(&reverse_cuthill_mckee(&scrambled));
        let before_matrix = pattern(&scrambled);
        let after_matrix = pattern(&renumbered);
        let before_locality = LocalityReport::measure(&scrambled, vector_size);
        let after_locality = LocalityReport::measure(&renumbered, vector_size);
        RenumberingReport {
            rows: mesh.num_nodes(),
            nnz: before_matrix.nnz(),
            vector_size,
            bandwidth_before: before_matrix.bandwidth(),
            bandwidth_after: after_matrix.bandwidth(),
            bandwidth_generator: generator_matrix.bandwidth(),
            // A diagonal-only pattern has bandwidth 0 before *and* after any
            // permutation; report a neutral 1.0 instead of inf/NaN.
            bandwidth_ratio: if after_matrix.bandwidth() == 0 {
                1.0
            } else {
                before_matrix.bandwidth() as f64 / after_matrix.bandwidth() as f64
            },
            max_row_span_before: before_matrix.profile_stats().max_row_span,
            max_row_span_after: after_matrix.profile_stats().max_row_span,
            mean_chunk_span_before: before_locality.mean_chunk_span,
            mean_chunk_span_after: after_locality.mean_chunk_span,
        }
    }

    /// JSON object via the shared [`lv_trace::json`] emitter (same
    /// reasoning as [`SolverComparison::to_json`]).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .usize("rows", self.rows)
            .usize("nnz", self.nnz)
            .usize("vector_size", self.vector_size)
            .usize("bandwidth_before", self.bandwidth_before)
            .usize("bandwidth_after", self.bandwidth_after)
            .usize("bandwidth_generator", self.bandwidth_generator)
            .f64_fixed("bandwidth_ratio", self.bandwidth_ratio, 2)
            .usize("max_row_span_before", self.max_row_span_before)
            .usize("max_row_span_after", self.max_row_span_after)
            .f64_fixed("mean_chunk_span_before", self.mean_chunk_span_before, 1)
            .f64_fixed("mean_chunk_span_after", self.mean_chunk_span_after, 1)
            .finish()
    }

    /// Human-readable summary line.
    pub fn to_text(&self) -> String {
        format!(
            "renumbering ({} rows, VS {}): bandwidth {} -> {} ({:.1}x; generator order {}), \
             max row span {} -> {}, mean chunk gather span {:.0} -> {:.0}\n",
            self.rows,
            self.vector_size,
            self.bandwidth_before,
            self.bandwidth_after,
            self.bandwidth_ratio,
            self.bandwidth_generator,
            self.max_row_span_before,
            self.max_row_span_after,
            self.mean_chunk_span_before,
            self.mean_chunk_span_after
        )
    }
}

/// Serializes a set of solver comparisons as the `BENCH_solver.json`
/// document.
pub fn solver_comparisons_to_json(host_threads: usize, comparisons: &[SolverComparison]) -> String {
    solver_bench_to_json(host_threads, comparisons, None)
}

/// Serializes the full solver artifact: comparisons plus the optional
/// renumbering section.
pub fn solver_bench_to_json(
    host_threads: usize,
    comparisons: &[SolverComparison],
    renumbering: Option<&RenumberingReport>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"bench\": \"wallclock_solver\",\n  \"host_threads\": {host_threads},\n"
    ));
    if let Some(report) = renumbering {
        out.push_str("  \"renumbering\": ");
        out.push_str(&report.to_json());
        out.push_str(",\n");
    }
    out.push_str("  \"comparisons\": [\n");
    for (i, c) in comparisons.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&c.to_json());
        out.push_str(if i + 1 < comparisons.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_kernel::OptLevel;
    use lv_mesh::BoxMeshBuilder;

    fn small_comparison() -> SolverComparison {
        let mesh = BoxMeshBuilder::new(5, 5, 5).lid_driven_cavity().with_jitter(0.1, 7).build();
        SolverComparison::measure(&mesh, KernelConfig::new(64, OptLevel::Vec1), &[1, 2], 1)
    }

    #[test]
    fn comparison_validates_and_reports_every_method() {
        let c = small_comparison();
        // serial spmv/cg/bicgstab + spmv3/spmm3/bicgstab_x3/bicgstab3 +
        // parallel-2t spmv/cg/bicgstab/bicgstab3
        assert_eq!(c.measurements.len(), 11);
        assert_eq!(c.elements, 125);
        assert_eq!(c.rows, 216);
        for m in &c.measurements {
            assert!(m.seconds > 0.0 && m.seconds.is_finite(), "{} {}t", m.method, m.threads);
            assert!(m.speedup > 0.0);
            assert!(m.bitwise_equal, "{} at {}t must match the oracle", m.method, m.threads);
        }
        let cg2 = c.measurement("cg", 2).unwrap();
        let cg1 = c.measurement("cg", 1).unwrap();
        assert_eq!(cg2.iterations, cg1.iterations);
        assert!(cg2.final_residual < 1e-8);
        assert!(c.best_parallel_speedup("cg") > 0.0);
        // The momentum matrix is the true non-symmetric operator and its
        // structure is recorded for the renumbering trajectory.
        assert!(!c.momentum_symmetric);
        assert!(c.bandwidth > 0);
        assert!(c.profile.max_row_span > 0);
        assert!(c.profile.mean_nnz_per_row > 1.0);
        // The batched solve covers all three components.
        let bi3 = c.measurement("bicgstab3", 1).unwrap();
        let seq3 = c.measurement("bicgstab_x3", 1).unwrap();
        assert_eq!(bi3.iterations, seq3.iterations);
        assert_eq!(bi3.final_residual.to_bits(), seq3.final_residual.to_bits());
        assert!(c.measurement("spmm3", 1).is_some());
    }

    #[test]
    fn json_and_text_render_without_serde() {
        let c = small_comparison();
        let json = c.to_json();
        assert!(json.contains("\"method\": \"cg\""));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"bitwise_equal\": true"));
        assert!(json.contains("\"momentum_symmetric\": false"));
        assert!(json.contains("\"bandwidth\": "));
        assert!(json.contains("\"method\": \"spmm3\""));
        assert!(json.contains("\"method\": \"bicgstab3\""));
        let doc = solver_comparisons_to_json(4, std::slice::from_ref(&c));
        assert!(doc.contains("\"bench\": \"wallclock_solver\""));
        assert!(doc.contains("\"host_threads\": 4"));
        assert!(!doc.contains("\"renumbering\""));
        let text = c.to_text();
        assert!(text.contains("bitwise == serial"));
        assert!(text.contains("bicgstab"));
        assert!(text.contains("bandwidth"));
    }

    #[test]
    fn renumbering_report_shows_the_rcm_win_and_renders() {
        let mesh = BoxMeshBuilder::new(6, 6, 6).lid_driven_cavity().build();
        let report = RenumberingReport::measure(&mesh, 64, 0x5eed);
        assert_eq!(report.rows, 343);
        assert!(report.bandwidth_before > report.bandwidth_after);
        assert!(report.bandwidth_ratio >= 2.0, "ratio {:.2}", report.bandwidth_ratio);
        assert!(report.bandwidth_generator <= report.bandwidth_after);
        assert!(report.mean_chunk_span_before > report.mean_chunk_span_after);
        let json = report.to_json();
        assert!(json.contains("\"bandwidth_ratio\""));
        assert!(report.to_text().contains("bandwidth"));
        let doc = solver_bench_to_json(2, &[], Some(&report));
        assert!(doc.contains("\"renumbering\": {\"rows\": 343"));
    }
}
