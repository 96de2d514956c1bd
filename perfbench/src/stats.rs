//! Order statistics for latency samples.
//!
//! A timing is reported as its median plus a *tail*: the highest
//! percentile of [`TAIL_CANDIDATES`] that still has at least
//! [`MIN_BEYOND`] samples beyond it, so a tail is never a single outlier.

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products (99.9% of 10 000) from rounding up.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] of `n`
/// samples strictly above its rank, or `None` when `n` is too small for
/// any (fewer than `2 × MIN_BEYOND` samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of already sorted `sorted`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median and tail of one set of latency samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Value at the tail percentile (the maximum when `n` is too small
    /// for any candidate).
    pub tail: f64,
    /// The percentile `tail` was read at; 100 means the maximum.
    pub tail_pct: f64,
}

/// Summarises `samples`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let (tail, tail_pct) = match tail_percentile(v.len()) {
        Some(p) => (percentile(&v, p), p),
        None => (*v.last().expect("non-empty"), 100.0),
    };
    Summary {
        n: v.len(),
        p50: percentile(&v, 50.0),
        tail,
        tail_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: rank(p50) = 10, exactly 10 beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        // 40: p75 has rank 30 → 10 beyond; p90 has 4.
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 0..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
                // No higher candidate qualifies.
                for &q in TAIL_CANDIDATES.iter().filter(|&&q| q > p) {
                    assert!(n - rank(n, q) < MIN_BEYOND, "n={n} q={q}");
                }
            }
        }
    }

    #[test]
    fn summary_reads_the_chosen_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.tail, 90.0);
        let few = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((few.tail, few.tail_pct), (3.0, 100.0));
    }
}
