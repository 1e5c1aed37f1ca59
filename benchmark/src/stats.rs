//! Order statistics for the benchmark's own samples: medians, the
//! "highest percentile with at least ten samples beyond it" rule, and the
//! quartile spread the driver judges steadiness by.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle order statistics for even counts);
/// 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Index (into the sorted sample of `n`) of the tail statistic reported
/// for a wanted quantile `q`: the nearest-rank `q`-quantile when at least
/// [`TAIL_SAMPLES_BEYOND`] samples lie beyond it, otherwise the highest
/// order statistic that still has that many beyond it, and never below
/// the median — a sample too small to support any tail reports its
/// median.
pub fn tail_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "tail of an empty sample");
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let supported = n.saturating_sub(TAIL_SAMPLES_BEYOND + 1);
    wanted.min(supported).max(n / 2)
}

/// The tail statistic of [`tail_index`] and the percentile it actually
/// is (`100 · (index + 1) / n`), so the printed line can say so.
pub fn tail(values: &[f64], q: f64) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let v = sorted(values);
    let i = tail_index(v.len(), q);
    (v[i], 100.0 * (i + 1) as f64 / v.len() as f64)
}

/// Quartiles by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, which is what the driver
/// computes spreads with.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    [at(1), at(2), at(3)]
}

/// Inter-quartile distance as a share of the median (0 when the median
/// is 0, i.e. for a constant-zero sample).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 200 samples: p90 is rank 180 (index 179) with 20 beyond it.
        assert_eq!(tail_index(200, 0.90), 179);
        // 100 samples: nearest-rank p90 is index 89 with exactly 10 beyond.
        assert_eq!(tail_index(100, 0.90), 89);
        // 50 samples: p90 would leave 5 beyond; fall back to index 39.
        assert_eq!(tail_index(50, 0.90), 39);
        // 1000 samples support p99 (10 beyond) but not p99.9.
        assert_eq!(tail_index(1000, 0.99), 989);
        assert_eq!(tail_index(1000, 0.999), 989);
        // Too small for any tail: the median.
        assert_eq!(tail_index(12, 0.90), 6);
        assert_eq!(tail_index(1, 0.90), 0);
    }

    #[test]
    fn tail_reports_the_percentile_it_used() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let (value, pct) = tail(&v, 0.90);
        assert_eq!(value, 40.0);
        assert!((pct - 80.0).abs() < 1e-9);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v, 0.90), (180.0, 90.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert!((q[0] - 2.75).abs() < 1e-12 && (q[1] - 5.5).abs() < 1e-12);
        assert!((q[2] - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
