//! Summary statistics: quartiles as Python's `statistics.quantiles` gives
//! them, nearest-rank percentiles of large samples, and the rule for which
//! percentile a sample supports.

/// Percentiles the reports consider, in parts per [`LADDER_SCALE`], so the
/// tail counts below are exact.
const LADDER: [u64; 6] = [50_000, 90_000, 99_000, 99_900, 99_990, 99_999];
const LADDER_SCALE: u64 = 100_000;

/// How many samples must lie beyond a reported percentile.
const MIN_TAIL_SAMPLES: usize = 10;

/// Median, quartiles and sample count of one metric's samples in a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// First quartile (equal to the median below two samples).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v: Vec<f64> = values.to_vec();
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        let median = median_sorted(&v);
        let (q1, q3) = quartiles_sorted(&v).unwrap_or((median, median));
        Some(Summary {
            n: v.len(),
            median,
            q1,
            q3,
        })
    }
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile of sorted data by the "exclusive" method of
/// Python's `statistics.quantiles(data, n=4)`; `None` below two values.
pub fn quartiles_sorted(v: &[f64]) -> Option<(f64, f64)> {
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The value at percentile `p` (a fraction) of sorted data, by nearest
/// rank.
pub fn percentile_sorted(v: &[u64], p: f64) -> u64 {
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The highest percentile of [`LADDER`] that leaves at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it in a sample of `n`; `None` when
/// not even the median does.
pub fn highest_supported(n: usize) -> Option<f64> {
    let n = n as u64;
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - (n * p).div_ceil(LADDER_SCALE) >= MIN_TAIL_SAMPLES as u64)
        .map(|p| p as f64 / LADDER_SCALE as f64)
}

/// A label such as `p99.9` for a percentile given as a fraction.
pub fn percentile_label(p: f64) -> String {
    let pct = format!("{:.3}", p * 100.0);
    format!("p{}", pct.trim_end_matches('0').trim_end_matches('.'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&v), Some((1.5, 4.5)));
        // statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles_sorted(&[3.0, 7.0]), Some((2.0, 8.0)));
        assert_eq!(quartiles_sorted(&[1.0]), None);
    }

    #[test]
    fn summary_sorts_and_counts() {
        let s = Summary::of(&[9.0, 1.0, 5.0]).unwrap();
        assert_eq!((s.n, s.median), (3, 5.0));
        assert_eq!(Summary::of(&[4.0]).unwrap().q3, 4.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(180_000), Some(0.9999));
        assert_eq!(highest_supported(1_000_000), Some(0.99999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 500);
        assert_eq!(percentile_sorted(&v, 0.999), 999);
        assert_eq!(percentile_sorted(&v, 1.0), 1000);
        assert_eq!(percentile_sorted(&[7], 0.0), 7);
        assert_eq!(percentile_label(0.999), "p99.9");
        assert_eq!(percentile_label(0.5), "p50");
        assert_eq!(percentile_label(0.99999), "p99.999");
    }
}
