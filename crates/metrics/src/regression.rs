//! Regression, in both senses.
//!
//! **Statistical regression**: Table 6 of the paper explains the cycle
//! counts of the poorly-vectorized phases (1 and 8) with a multiple linear
//! regression against two independent variables — L1 data-cache misses per
//! kilo-instruction and the percentage of memory instructions — and reports
//! the coefficient of determination R² (0.903 and 0.966).
//! [`linear_regression`] provides exactly that fit.
//!
//! **Check reports**: [`GateReport`] is the list of named pass/fail checks
//! that the structural validators of this crate ([`crate::tracecheck`],
//! [`crate::metricscheck`]) report through.  Performance regressions are not
//! judged here: `benchmark/` is the repository's one yardstick.

use serde::{Deserialize, Serialize};

/// Result of a least-squares fit `y ≈ β₀ + Σ βⱼ xⱼ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionResult {
    /// Fitted coefficients: `coefficients[0]` is the intercept β₀,
    /// `coefficients[j]` (j ≥ 1) multiplies the j-th regressor.
    pub coefficients: Vec<f64>,
    /// Coefficient of determination R².
    pub r_squared: f64,
    /// Fitted values for each observation.
    pub fitted: Vec<f64>,
    /// Residuals (observed − fitted).
    pub residuals: Vec<f64>,
}

impl RegressionResult {
    /// Predicts `y` for a new observation of the regressors.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len() + 1, self.coefficients.len(), "regressor count mismatch");
        self.coefficients[0]
            + x.iter().zip(&self.coefficients[1..]).map(|(xi, bi)| xi * bi).sum::<f64>()
    }
}

/// Fits `y ≈ β₀ + Σ βⱼ xⱼ` by ordinary least squares.
///
/// `regressors` is a list of columns, each with one value per observation.
///
/// # Panics
/// Panics if the columns have inconsistent lengths or there are fewer
/// observations than coefficients.
pub fn linear_regression(y: &[f64], regressors: &[Vec<f64>]) -> RegressionResult {
    let n = y.len();
    let k = regressors.len() + 1; // + intercept
    assert!(n >= k, "need at least {k} observations, got {n}");
    for (j, col) in regressors.iter().enumerate() {
        assert_eq!(col.len(), n, "regressor {j} has {} values, expected {n}", col.len());
    }

    // Design matrix X (n × k) with a leading column of ones.
    let x = |i: usize, j: usize| -> f64 {
        if j == 0 {
            1.0
        } else {
            regressors[j - 1][i]
        }
    };

    // Normal equations: (XᵀX) β = Xᵀy, solved with Gaussian elimination with
    // partial pivoting (k is tiny — 3 for Table 6).
    let mut xtx = vec![vec![0.0; k]; k];
    let mut xty = vec![0.0; k];
    for (i, &yi) in y.iter().enumerate() {
        for a in 0..k {
            let xia = x(i, a);
            xty[a] += xia * yi;
            for (b, entry) in xtx[a].iter_mut().enumerate() {
                *entry += xia * x(i, b);
            }
        }
    }
    let beta = solve_small(&mut xtx, &mut xty);

    let fitted: Vec<f64> = (0..n).map(|i| (0..k).map(|j| beta[j] * x(i, j)).sum()).collect();
    let residuals: Vec<f64> = y.iter().zip(&fitted).map(|(yi, fi)| yi - fi).collect();
    let mean = y.iter().sum::<f64>() / n as f64;
    let ss_tot: f64 = y.iter().map(|yi| (yi - mean).powi(2)).sum();
    let ss_res: f64 = residuals.iter().map(|r| r * r).sum();
    let r_squared = if ss_tot > 0.0 { 1.0 - ss_res / ss_tot } else { 1.0 };

    RegressionResult { coefficients: beta, r_squared, fitted, residuals }
}

/// Solves a small dense symmetric system in place (Gaussian elimination with
/// partial pivoting).
fn solve_small(a: &mut [Vec<f64>], b: &mut [f64]) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        let mut pivot = col;
        for row in col + 1..n {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        assert!(a[pivot][col].abs() > 1e-300, "singular normal equations (collinear regressors)");
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            // Two distinct rows of `a` are read/written per iteration, so an
            // iterator form would need split_at_mut and obscure the
            // elimination; keep the textbook indexing.
            #[allow(clippy::needless_range_loop)]
            for j in col..n {
                a[row][j] -= f * a[col][j];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut s = b[col];
        for j in col + 1..n {
            s -= a[col][j] * x[j];
        }
        x[col] = s / a[col][col];
    }
    x
}

// ---------------------------------------------------------------------------
// Named pass/fail checks.
// ---------------------------------------------------------------------------

/// Outcome of one gate check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateCheck {
    /// What was checked.
    pub label: String,
    /// Whether the check passed.
    pub passed: bool,
    /// Human-readable evidence (measured values, thresholds, skip reasons).
    pub detail: String,
}

/// The outcome of validating one artifact.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Individual checks, in evaluation order.
    pub checks: Vec<GateCheck>,
}

impl GateReport {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Aligned text rendering (one line per check).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            out.push_str(&format!(
                "  [{}] {}: {}\n",
                if c.passed { "PASS" } else { "FAIL" },
                c.label,
                c.detail
            ));
        }
        out
    }

    /// Appends one check outcome.
    pub fn push(&mut self, label: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push(GateCheck { label: label.into(), passed, detail: detail.into() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_linear_relation_gives_r2_of_one() {
        // y = 3 + 2·x1 - 0.5·x2, no noise.
        let x1: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let x2: Vec<f64> = (0..12).map(|i| ((i * 7) % 5) as f64).collect();
        let y: Vec<f64> = x1.iter().zip(&x2).map(|(a, b)| 3.0 + 2.0 * a - 0.5 * b).collect();
        let fit = linear_regression(&y, &[x1, x2]);
        assert!((fit.r_squared - 1.0).abs() < 1e-10);
        assert!((fit.coefficients[0] - 3.0).abs() < 1e-9);
        assert!((fit.coefficients[1] - 2.0).abs() < 1e-9);
        assert!((fit.coefficients[2] + 0.5).abs() < 1e-9);
        assert!((fit.predict(&[10.0, 2.0]) - (3.0 + 20.0 - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn noisy_relation_gives_high_but_imperfect_r2() {
        let x1: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let noise = [
            0.3, -0.2, 0.5, -0.4, 0.1, 0.2, -0.3, 0.4, -0.1, 0.0, 0.25, -0.15, 0.35, -0.45, 0.05,
            0.15, -0.25, 0.45, -0.05, 0.1,
        ];
        let y: Vec<f64> = x1.iter().zip(noise.iter()).map(|(a, n)| 1.0 + 0.8 * a + n).collect();
        let fit = linear_regression(&y, &[x1]);
        assert!(fit.r_squared > 0.99 && fit.r_squared < 1.0);
        assert_eq!(fit.residuals.len(), 20);
    }

    #[test]
    fn uncorrelated_regressor_gives_low_r2() {
        let x: Vec<f64> = (0..10).map(|i| ((i * 13) % 7) as f64).collect();
        let y: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 5.0 } else { -5.0 }).collect();
        let fit = linear_regression(&y, &[x]);
        assert!(fit.r_squared < 0.5, "R² = {}", fit.r_squared);
    }

    #[test]
    fn constant_target_has_unit_r2() {
        let x: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let y = vec![4.0; 6];
        let fit = linear_regression(&y, &[x]);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    #[should_panic]
    fn too_few_observations_panics() {
        let _ = linear_regression(&[1.0, 2.0], &[vec![1.0, 2.0], vec![3.0, 4.0]]);
    }

    #[test]
    #[should_panic]
    fn collinear_regressors_panic() {
        let x1: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let x2: Vec<f64> = x1.iter().map(|v| 2.0 * v).collect();
        let y: Vec<f64> = x1.iter().map(|v| v + 1.0).collect();
        let _ = linear_regression(&y, &[x1, x2]);
    }
}
