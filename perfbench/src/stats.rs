//! Order statistics for the benchmark's repeated timings.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads printed here are the ones
//! a reader recomputes from the raw values. Percentiles of long series
//! (per-slice loop times) use the nearest-rank definition.

/// Percentiles tried, highest last, when choosing a tail to report.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count).
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, as `statistics.quantiles(values, n=4)`
/// gives them. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    // Python's integer arithmetic, including its extrapolation below the
    // first and above the last sample when there are few samples.
    let (n, m) = (n as i64, n as i64 + 1);
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile: the smallest sample with at least `p` % of
/// the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The small offset keeps exact products such as 99.99 % of 100,000
    // from rounding up a rank.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile of the ladder 50, 90, 95, 99, 99.9, 99.99
/// that still has [`TAIL_MIN_BEYOND`] samples above its nearest rank,
/// with its value; `None` when even the median has fewer beyond it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| n >= 1 && n - rank(n, p) >= TAIL_MIN_BEYOND)
        .map(|&p| (p, percentile(values, p)))
}

/// Repeated timings summarized: sample count, median and quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
        }
    }

    /// Quartile distance as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[2.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(v, n=4)`.
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[10.0, 1.0]), (-1.25, 12.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&[4.0, 2.0], 0.0), 2.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let series = |n: u32| -> Vec<f64> { (1..=n).map(f64::from).collect() };
        // Fewer than 20 samples: not even the median has 10 beyond it.
        assert_eq!(tail(&series(19)), None);
        assert_eq!(tail(&[]), None);
        // 20 samples: p50 is rank 10, with exactly 10 beyond.
        assert_eq!(tail(&series(20)), Some((50.0, 10.0)));
        // 100 samples: p90 is rank 90 (10 beyond); p95 has only 5.
        assert_eq!(tail(&series(100)), Some((90.0, 90.0)));
        // 720 hourly slices of a 30-day run: p99 is rank 713 (7 beyond),
        // so p95 (rank 684, 36 beyond) is the reportable tail.
        assert_eq!(tail(&series(720)), Some((95.0, 684.0)));
        // 1000 samples: p99 is rank 990, exactly 10 beyond.
        assert_eq!(tail(&series(1000)), Some((99.0, 990.0)));
        // 100,000 samples: p99.99 is rank 99,990.
        assert_eq!(tail(&series(100_000)), Some((99.99, 99_990.0)));
    }

    #[test]
    fn summary_reports_its_sample_count_and_spread() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.median, 2.5);
        assert_eq!((s.q1, s.q3), (1.25, 3.75));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        let one = Summary::of(&[0.0]);
        assert_eq!((one.n, one.spread()), (1, 0.0));
    }
}
