//! The benchmark's own statistics: nearest-rank percentiles, the
//! "highest percentile with at least ten samples beyond it" rule, and
//! backlog-growth detection for open-loop ladder steps.

/// Nearest-rank percentile of an ascending-sorted slice, `q` in `[0, 1]`:
/// the smallest sample with at least `q` of the samples at or below it.
/// `None` when the slice is empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank_of(q, sorted.len()).clamp(1, sorted.len()) - 1])
}

/// 1-based nearest rank of quantile `q` among `n` samples. The epsilon
/// keeps products such as `0.99 * 1000` from rounding up a rank.
fn rank_of(q: f64, n: usize) -> usize {
    (q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Median (nearest rank) of unsorted samples; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(&sorted(samples), 0.5)
}

/// An ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail percentiles the benchmark may report, highest first.
pub const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.95, 0.9];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples strictly beyond its nearest-rank position, with its value.
/// `None` when even p90 is not supported (fewer than 100 samples).
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER.iter().find_map(|&q| {
        let rank = rank_of(q, sorted.len());
        (rank >= 1 && sorted.len() - rank >= 10).then(|| (q, sorted[rank - 1]))
    })
}

/// Whether a ladder step's backlog grew: `samples` are the outstanding
/// request counts taken at evenly spaced points through the step. The
/// backlog grows when the final count exceeds `threshold` and the second
/// half of the step averages more outstanding requests than the first.
pub fn backlog_grows(samples: &[u64], threshold: u64) -> bool {
    let Some(&last) = samples.last() else {
        return false;
    };
    if last <= threshold || samples.len() < 2 {
        return false;
    }
    let mid = samples.len() / 2;
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    mean(&samples[mid..]) > mean(&samples[..mid])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&s, 0.51), Some(6.0));
        assert_eq!(nearest_rank(&s, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&s, 0.99), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let mk = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(supported_tail(&mk(99)), None);
        assert_eq!(supported_tail(&mk(100)), Some((0.9, 90.0)));
        // p95 of 199 sits at rank 190: only 9 beyond it.
        assert_eq!(supported_tail(&mk(199)), Some((0.9, 180.0)));
        assert_eq!(supported_tail(&mk(200)), Some((0.95, 190.0)));
        assert_eq!(supported_tail(&mk(999)), Some((0.95, 950.0)));
        assert_eq!(supported_tail(&mk(1000)), Some((0.99, 990.0)));
        assert_eq!(supported_tail(&mk(10_000)), Some((0.999, 9990.0)));
    }

    #[test]
    fn backlog_growth_needs_a_rising_tail_over_the_threshold() {
        assert!(!backlog_grows(&[], 8));
        assert!(!backlog_grows(&[2, 3, 1, 2, 3, 2], 8), "steady and small");
        assert!(backlog_grows(&[2, 10, 20, 30, 40, 50], 8), "rising");
        assert!(!backlog_grows(&[50, 40, 30, 20, 12, 9], 8), "draining");
        assert!(!backlog_grows(&[0, 0, 0, 0, 0, 8], 8), "at threshold");
        assert!(backlog_grows(&[0, 0, 0, 0, 0, 9], 8), "late burst over it");
    }
}
