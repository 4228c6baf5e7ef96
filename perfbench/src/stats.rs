//! Summary statistics: a fixed-size latency histogram with nearest-rank
//! percentiles, the tail-percentile reporting rule, and ratios that
//! stay defined when their base is 0.

/// Zero-based index of the nearest-rank `q` percentile among `n`
/// samples.
fn rank_of(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // ceil(q·n) in integers (q in parts per million), so float rounding
    // cannot push an exact rank like 0.9 · 100 one place up.
    let ppm = (q.clamp(0.0, 1.0) * 1e6).round() as u128;
    let rank = (ppm * n as u128).div_ceil(1_000_000) as usize;
    Some(rank.clamp(1, n) - 1)
}

/// How many samples rank strictly after the nearest-rank `q`
/// percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    rank_of(n, q).map_or(0, |rank| n - rank - 1)
}

/// The fewest samples that must rank beyond a tail percentile before
/// it is reported: with fewer, one outlier decides its value.
pub const MIN_BEYOND: usize = 10;

/// The fewest samples for which [`Histogram::tail_percentile`] reports `q`.
pub fn min_samples_for(q: f64) -> usize {
    (1..).find(|&n| samples_beyond(n, q) >= MIN_BEYOND).unwrap_or(usize::MAX)
}

/// Smallest latency the histogram tells apart, ms (0.1 µs).
const LOWEST_MS: f64 = 1e-4;
/// Ratio of each bucket's upper edge to its lower edge: 0.2% wide.
const GROWTH: f64 = 1.002;
/// Buckets from [`LOWEST_MS`] up to about 350 s; slower samples land in
/// the last one.
const BUCKETS: usize = 11_000;

/// Latency histogram with log-spaced buckets 0.2% wide. Its size is
/// fixed when it is made, so the memory it takes does not grow with
/// the number of samples (a run's peak RSS would show it).
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    len: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { counts: vec![0; BUCKETS], len: 0 }
    }
}

impl Histogram {
    fn bucket(ms: f64) -> usize {
        if ms <= LOWEST_MS {
            return 0;
        }
        (((ms / LOWEST_MS).ln() / GROWTH.ln()) as usize).min(BUCKETS - 1)
    }

    /// Lower edge of bucket `i`, ms.
    fn edge(i: usize) -> f64 {
        LOWEST_MS * GROWTH.powi(i as i32)
    }

    pub fn record(&mut self, ms: f64) {
        self.counts[Histogram::bucket(ms)] += 1;
        self.len += 1;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.len += other.len;
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// The nearest-rank `q` percentile, placed inside its bucket by its
    /// rank among the bucket's samples; `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let rank = rank_of(self.len(), q)? as u64 + 1;
        let mut before = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            let count = u64::from(count);
            if before + count >= rank {
                let within = (rank - before) as f64 - 0.5;
                let (lo, hi) = (Histogram::edge(i), Histogram::edge(i + 1));
                return Some(lo + (hi - lo) * within / count as f64);
            }
            before += count;
        }
        None
    }

    /// A tail percentile, reported only when at least [`MIN_BEYOND`]
    /// samples rank beyond it.
    pub fn tail_percentile(&self, q: f64) -> Option<f64> {
        if samples_beyond(self.len(), q) < MIN_BEYOND {
            return None;
        }
        self.percentile(q)
    }
}

/// Median of unsorted values (mean of the middle pair for even
/// counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, defined as 0 when the base is 0: a ratio of outcomes to
/// attempts where nothing was attempted reports no waste rather than
/// NaN or infinity.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Histogram {
        let mut h = Histogram::default();
        for i in 1..=n {
            h.record(i as f64);
        }
        h
    }

    /// `got` lies in the same 0.2% bucket as `want`.
    fn close(got: Option<f64>, want: f64) -> bool {
        got.is_some_and(|got| (got / want - 1.0).abs() <= 0.002)
    }

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(rank_of(10, 0.5), Some(4));
        assert_eq!(rank_of(10, 0.9), Some(8));
        assert_eq!(rank_of(10, 1.0), Some(9));
        assert_eq!(rank_of(10, 0.0), Some(0));
        assert_eq!(rank_of(0, 0.5), None);
        let v = ramp(10);
        assert!(close(v.percentile(0.5), 5.0));
        assert!(close(v.percentile(0.9), 9.0));
        assert!(close(ramp(1).percentile(0.9), 1.0));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 99 samples: the p90 is the 90th, only 9 rank beyond it.
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(ramp(99).tail_percentile(0.9), None);
        // 100 samples: the p90 is the 90th and 10 rank beyond it.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(close(ramp(100).tail_percentile(0.9), 90.0));
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.5), 20);
        assert_eq!(Histogram::default().tail_percentile(0.9), None);
    }

    #[test]
    fn p99_needs_a_thousand() {
        assert_eq!(min_samples_for(0.99), 1000);
        assert_eq!(ramp(999).tail_percentile(0.99), None);
        assert!(close(ramp(1000).tail_percentile(0.99), 990.0));
    }

    #[test]
    fn histogram_percentiles_stay_within_a_bucket_of_exact() {
        let mut h = Histogram::default();
        let values: Vec<f64> = (1..=1000).map(|i| 0.05 + i as f64 * 0.001).collect();
        for &v in values.iter().rev() {
            h.record(v);
        }
        assert_eq!(h.len(), 1000);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = values[rank_of(values.len(), q).unwrap()];
            assert!(close(h.percentile(q), exact), "q {q}: {:?} vs {exact}", h.percentile(q));
        }
        assert_eq!(Histogram::default().percentile(0.5), None);
    }

    #[test]
    fn histogram_tail_rule_and_merge() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for i in 0..50 {
            a.record(1.0 + i as f64);
            b.record(100.0 + i as f64);
        }
        assert_eq!(a.tail_percentile(0.9), None);
        a.merge(&b);
        assert_eq!(a.len(), 100);
        assert!(close(a.tail_percentile(0.9), 139.0), "{:?}", a.tail_percentile(0.9));
        // Extremes land in the end buckets instead of overflowing.
        a.record(0.0);
        a.record(1e12);
        assert_eq!(a.len(), 102);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratios_with_zero_base() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert!(ratio(0.0, 0.0).is_finite());
    }
}
