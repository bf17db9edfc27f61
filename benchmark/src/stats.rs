//! Order statistics shared by the workloads, the suite and `compare`.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: a metric without a sample is a benchmark bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The lower quartile of `values` (the sample at rank `n / 4`): what the
/// traced pass, with its eight samples a leg, publishes per layer.  On a
/// shared host contention only ever slows a unit, and the faster quarter is
/// nearer to what the code costs than the median of so few.
///
/// # Panics
/// Panics on an empty slice.
pub fn lower_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "lower quartile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 4]
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the exclusive method) — the rule the driver applies to
/// the ten runs of a metric.  `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread of a metric: the distance between the first and third
/// quartile as a share of the median.  Falls back to the full range below
/// four samples, where the quartiles are extrapolated.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values).abs();
    if mid == 0.0 || values.len() < 2 {
        return 0.0;
    }
    let width = if values.len() >= 4 {
        let (q1, q3) = quartiles(values).expect("two or more samples");
        q3 - q1
    } else {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    };
    width / mid
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`; `None` below eleven samples.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    let len = values.len();
    if len <= BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = len - BEYOND;
    Some((100.0 * rank as f64 / len as f64, sorted[rank - 1]))
}

/// Median, tail percentile and sample count of one timing, rendered for
/// the human-readable lines (`scale` converts seconds to `unit`).
pub fn describe(samples: &[f64], scale: f64, unit: &str) -> String {
    let tail = match tail_percentile(samples) {
        Some((pct, value)) => format!("p{pct:.0} {:.4}", value * scale),
        None => "tail n/a (<11 samples)".to_string(),
    };
    format!("median {:.4} {unit}, {tail}, n = {}", median(samples) * scale, samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn the_lower_quartile_is_the_sample_at_a_quarter_of_the_ranks() {
        assert_eq!(lower_quartile(&[5.0]), 5.0);
        assert_eq!(lower_quartile(&[4.0, 3.0, 2.0, 1.0]), 2.0);
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&hundred), 26.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12, "{q1} {q3}");
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn spread_is_the_quartile_distance_over_the_median() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&values) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
        // Below four samples the full range stands in.
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn the_tail_percentile_keeps_ten_samples_beyond_it() {
        assert!(tail_percentile(&[1.0; 10]).is_none());
        // 11 samples: only the smallest has ten beyond it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (pct, value) = tail_percentile(&eleven).unwrap();
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-9);
        // 100 samples: p90 is sample 90, with 91..=100 beyond it.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((90.0, 90.0)));
        // 1000 samples: p99.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99.0, 990.0)));
    }
}
