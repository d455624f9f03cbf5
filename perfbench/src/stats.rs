//! Summary statistics: medians, supported tails, geometric means.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile for it to mean anything.
pub const TAIL_BEYOND: usize = 10;

/// A latency summary: median, the highest supported tail, and how many
/// samples back them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile chosen by [`tail_percentile`] (e.g. 99.0).
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it,
/// on the ladder 99.9, 99, 95, 90, 75, 50. `None` below 20 samples, where
/// not even the median has ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    LADDER
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= TAIL_BEYOND)
}

/// The 1-based nearest rank of percentile `pct` among `n > 0` samples
/// (the tolerance keeps `99.9 × 10000 / 100` from rounding up a rank).
fn rank(n: usize, pct: f64) -> usize {
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile (`pct` in 0..=100) of sorted samples.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// Sorts `samples` and summarizes them. With too few samples for any
/// supported tail, the tail is the maximum and `tail_pct` is 100.
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let p50 = percentile_sorted(samples, 50.0);
    let (tail_pct, tail) = match tail_percentile(n) {
        Some(p) => (p, percentile_sorted(samples, p)),
        None => (100.0, samples.last().copied().unwrap_or(0.0)),
    };
    Summary {
        n,
        p50,
        tail_pct,
        tail,
    }
}

/// Per-engine summaries reduced across engines: geometric means of the
/// medians and of the tails, with the smallest sample count and tail
/// percentile among the engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Across {
    /// Geometric mean of the per-engine medians.
    pub p50: f64,
    /// Geometric mean of the per-engine tails.
    pub tail: f64,
    /// Fewest samples of any engine.
    pub n: usize,
    /// Lowest tail percentile of any engine.
    pub tail_pct: f64,
}

/// Summarizes each engine's samples and reduces them with [`Across`].
pub fn across(per_engine: &mut [Vec<f64>]) -> Across {
    let sums: Vec<Summary> = per_engine.iter_mut().map(|v| summarize(v)).collect();
    Across {
        p50: geomean(&sums.iter().map(|s| s.p50).collect::<Vec<_>>()),
        tail: geomean(&sums.iter().map(|s| s.tail).collect::<Vec<_>>()),
        n: sums.iter().map(|s| s.n).min().unwrap_or(0),
        tail_pct: sums.iter().map(|s| s.tail_pct).fold(100.0, f64::min),
    }
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0)
}

/// Geometric mean of positive values (0 when empty or any value is not
/// positive, so a missing measurement can never masquerade as a fast one).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0 || !v.is_finite()) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        // Exactly ten samples lie strictly above the chosen rank.
        for n in [20usize, 40, 100, 200, 1_000, 10_000] {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(n, p) >= TAIL_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_picks_values_by_nearest_rank() {
        let mut v: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        let s = summarize(&mut v);
        assert_eq!(s.n, 1_000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        let mut few = vec![3.0, 1.0, 2.0];
        let s = summarize(&mut few);
        assert_eq!((s.p50, s.tail_pct, s.tail), (2.0, 100.0, 3.0));
    }

    #[test]
    fn geomean_is_correct() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[7.5]) - 7.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
