//! Order statistics the reports are built from.

/// Median of a sample (mean of the two middle values for even sizes).
/// Panics on an empty sample: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` of the sample at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile a sample of `n` supports: `want` when at least
/// [`TAIL_SAMPLES`] samples lie beyond it, otherwise the highest whole
/// percentile that has that many beyond it (at least the median).
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    let beyond = |p: f64| n as f64 * (1.0 - p);
    if beyond(want) >= TAIL_SAMPLES as f64 - 1e-9 {
        return want;
    }
    let mut pct = (want * 100.0).floor() as u32;
    while pct > 50 && beyond(pct as f64 / 100.0) < TAIL_SAMPLES as f64 - 1e-9 {
        pct -= 1;
    }
    pct as f64 / 100.0
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 1 000 reads carry a p99, 999 do not.
        assert_eq!(supported_percentile(1000, 0.99), 0.99);
        assert_eq!(supported_percentile(999, 0.99), 0.98);
        // 240 updates support p95, 100 support p90, 50 only p80.
        assert_eq!(supported_percentile(240, 0.95), 0.95);
        assert_eq!(supported_percentile(100, 0.95), 0.90);
        assert_eq!(supported_percentile(100, 0.90), 0.90);
        assert_eq!(supported_percentile(50, 0.95), 0.80);
        // Tiny samples fall back to the median.
        assert_eq!(supported_percentile(12, 0.99), 0.50);
    }
}
