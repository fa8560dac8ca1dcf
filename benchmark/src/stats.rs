//! Order statistics over samples and the exact rank oracle.

/// Linearly interpolated `p`-quantile (`p` in `[0, 1]`) of unsorted
/// samples; `0.0` for an empty set.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which is how spreads of this
/// benchmark are judged. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let m = n + 1;
    let at = |i: usize| {
        let j = i * m / 4;
        let delta = (i * m - j * 4) as f64;
        let below = s[j.saturating_sub(1)];
        let above = s[j.min(n - 1)];
        (below * (4.0 - delta) + above * delta) / 4.0
    };
    (at(1), at(3))
}

/// Distance between the first and third quartile.
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

/// The highest of p99 and p99.9 that has at least ten samples above it,
/// with its label; `None` when even p99 has fewer.
pub fn supported_tail(values: &[f64]) -> Option<(&'static str, f64)> {
    [(0.999, "p999"), (0.99, "p99")]
        .into_iter()
        .find(|(p, _)| values.len() as f64 * (1.0 - p) >= 10.0)
        .map(|(p, label)| (label, percentile(values, p)))
}

/// Rank error of `answer` as the φ-quantile of a stream made of `passes`
/// copies of the multiset `sorted`. The answer's exact ranks form the
/// interval `[passes·#{< answer} + 1, passes·#{≤ answer}]` (ties share
/// it); the error is the distance from the target rank `⌈φ·N⌉` to that
/// interval, 0 when the target lies inside.
pub fn rank_error(sorted: &[u64], passes: u64, phi: f64, answer: u64) -> u64 {
    let n = sorted.len() as u64 * passes;
    let target = ((phi * n as f64).ceil() as u64).clamp(1, n);
    let below = sorted.partition_point(|&v| v < answer) as u64;
    let at_most = sorted.partition_point(|&v| v <= answer) as u64;
    let lo = passes * below + 1;
    let hi = passes * at_most;
    // At most one of the two is non-zero.
    (lo.saturating_sub(target)).max(target.saturating_sub(hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(iqr(&v), 5.5);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(supported_tail(&v), None);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v).map(|t| t.0), Some("p99"));
        let v: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(supported_tail(&v).map(|t| t.0), Some("p999"));
    }

    #[test]
    fn rank_interval_covers_ties() {
        // Ranks 1..=10 of [1, 2, 2, 2, 3, 4, 5, 6, 7, 8]: value 2 holds 2..=4.
        let s = [1, 2, 2, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(rank_error(&s, 1, 0.2, 2), 0); // target 2
        assert_eq!(rank_error(&s, 1, 0.4, 2), 0); // target 4
        assert_eq!(rank_error(&s, 1, 0.5, 2), 1); // target 5, interval ends at 4
        assert_eq!(rank_error(&s, 1, 0.1, 2), 1); // target 1, interval starts at 2
        assert_eq!(rank_error(&s, 1, 1.0, 8), 0);
        // A value above the data has the empty interval [11, 10].
        assert_eq!(rank_error(&s, 1, 0.5, 100), 6);
    }

    #[test]
    fn replayed_passes_scale_the_interval() {
        // Three passes over [1, 2, 2, 3]: value 2 holds ranks 4..=9 of 12.
        let s = [1, 2, 2, 3];
        assert_eq!(rank_error(&s, 3, 4.0 / 12.0, 2), 0);
        assert_eq!(rank_error(&s, 3, 9.0 / 12.0, 2), 0);
        assert_eq!(rank_error(&s, 3, 10.0 / 12.0, 2), 1);
        assert_eq!(rank_error(&s, 3, 3.0 / 12.0, 2), 1);
    }
}
