//! Log-bucketed latency histogram.
//!
//! The histogram stores `u64` values (nanoseconds in this project) in
//! buckets whose width grows geometrically, giving a bounded relative error
//! of `1 / SUB_BUCKETS` (≈ 1.6%) at any magnitude while using a fixed, small
//! amount of memory, allocated on the first sample. This is the same design trade-off HdrHistogram makes;
//! it is implemented from scratch here because the experiments only need
//! recording, merging, and percentile queries.

/// Number of linear sub-buckets per power-of-two range. Must be a power of
/// two. 64 sub-buckets bound the relative quantization error to 1/64.
const SUB_BUCKETS: u64 = 64;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Number of power-of-two ranges covered: values up to 2^(6 + RANGES) - 1.
/// 48 ranges cover > 10^16 ns, far beyond any simulated latency.
const RANGES: usize = 48;
const BUCKETS: usize = RANGES * SUB_BUCKETS as usize;

/// A fixed-memory histogram of `u64` samples with ~1.6% relative error.
///
/// The 24 KiB of buckets are allocated on the first sample, so building
/// one (a machine's statistics hold eleven) costs no memory traffic until
/// it records.
///
/// # Examples
///
/// ```
/// let mut h = skyloft_metrics::Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.percentile(50.0);
/// assert!((450..=550).contains(&p50));
/// ```
#[derive(Clone)]
pub struct Histogram {
    /// `BUCKETS` counters, or empty until the first sample.
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    #[inline]
    fn index_of(value: u64) -> usize {
        // Values below SUB_BUCKETS map linearly into the first range.
        if value < SUB_BUCKETS {
            return value as usize;
        }
        // The highest set bit selects the range; the next SUB_BITS bits
        // select the sub-bucket within it. Off-scale values (range out of
        // bounds) saturate into the last bucket up front, so the common
        // in-range case needs no clamp on the computed index.
        let msb = 63 - value.leading_zeros();
        let range = (msb - SUB_BITS + 1) as usize;
        if range >= RANGES {
            return BUCKETS - 1;
        }
        let sub = (value >> (msb - SUB_BITS)) & (SUB_BUCKETS - 1);
        range * SUB_BUCKETS as usize + sub as usize
    }

    /// Returns a representative (upper-bound) value for a bucket index,
    /// the largest value that maps into the bucket.
    fn value_of(index: usize) -> u64 {
        if index < SUB_BUCKETS as usize {
            return index as u64;
        }
        let range = (index / SUB_BUCKETS as usize) as u32;
        let sub = (index % SUB_BUCKETS as usize) as u64;
        let base = 1u64 << (range + SUB_BITS - 1);
        let width = base >> SUB_BITS;
        base + sub * width + (width - 1)
    }

    /// The counter of `value`'s bucket, allocating the buckets on first use.
    #[inline]
    fn bucket(&mut self, value: u64) -> &mut u64 {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        &mut self.counts[Self::index_of(value)]
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        *self.bucket(value) += 1;
        self.total += 1;
        self.sum += value as u128;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Records `n` identical samples.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.bucket(value) += n;
        self.total += n;
        self.sum += value as u128 * n as u128;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Returns the value at percentile `p` (0.0..=100.0).
    ///
    /// The returned value is an upper bound of the bucket containing the
    /// requested rank, so it is within the histogram's relative error of the
    /// exact order statistic. Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp the bucket upper bound by the true max for a tighter
                // tail estimate.
                return Self::value_of(i).min(self.max);
            }
        }
        self.max
    }

    /// Number of recorded samples less than or equal to `value`, within
    /// the histogram's relative error: every bucket whose upper bound is
    /// `<= value` is counted in full, so a sample can be misattributed
    /// only when it shares a bucket with `value` itself (≈1.6% of the
    /// magnitude). Used for SLO-style "how many met the deadline" queries
    /// (goodput accounting).
    pub fn count_le(&self, value: u64) -> u64 {
        let mut n = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if Self::value_of(i) <= value {
                n += c;
            } else {
                break;
            }
        }
        n
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.is_empty() {
            self.counts.clone_from(&other.counts);
        } else {
            for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
                *a += *b;
            }
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Removes all samples.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.sum = 0;
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("min", &self.min())
            .field("mean", &self.mean())
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_value() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile(0.0), 42);
        assert_eq!(h.percentile(50.0), 42);
        assert_eq!(h.percentile(100.0), 42);
        assert_eq!(h.mean(), 42.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS - 1);
        // Values below SUB_BUCKETS are stored exactly.
        assert_eq!(h.percentile(100.0), SUB_BUCKETS - 1);
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = Histogram::new();
        for exp in 0..40u32 {
            let v = 1u64 << exp;
            h.clear();
            h.record(v);
            let got = h.percentile(50.0);
            let err = (got as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / SUB_BUCKETS as f64 + 1e-9, "v={v} got={got}");
        }
    }

    #[test]
    fn uniform_percentiles() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9] {
            let got = h.percentile(p) as f64;
            let want = p / 100.0 * 100_000.0;
            assert!(
                (got - want).abs() / want < 0.05,
                "p{p}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in 1..=1000u64 {
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.percentile(50.0), c.percentile(50.0));
        assert_eq!(a.percentile(99.0), c.percentile(99.0));
        assert_eq!(a.min(), c.min());
        assert_eq!(a.max(), c.max());
    }

    #[test]
    fn buckets_are_allocated_on_the_first_sample() {
        let empty = Histogram::new();
        assert_eq!(empty.counts.capacity(), 0);
        assert_eq!(empty.clone().counts.capacity(), 0);
        assert_eq!(empty.count_le(u64::MAX), 0);
        // Merging either way round matches recording into one histogram.
        let mut filled = Histogram::new();
        filled.record_n(300, 3);
        filled.record(7);
        let mut into_empty = Histogram::new();
        into_empty.merge(&filled);
        let mut from_empty = filled.clone();
        from_empty.merge(&Histogram::new());
        for h in [&into_empty, &from_empty] {
            assert_eq!(h.count(), 4);
            assert_eq!(h.count_le(7), 1);
            assert_eq!(h.percentile(50.0), filled.percentile(50.0));
            assert_eq!((h.min(), h.max()), (7, 300));
        }
        let mut both_empty = Histogram::new();
        both_empty.merge(&Histogram::new());
        assert_eq!(both_empty.counts.capacity(), 0);
    }

    #[test]
    fn record_n_matches_loop() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(777, 10);
        for _ in 0..10 {
            b.record(777);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.percentile(99.0), b.percentile(99.0));
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn count_le_exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        // Small values are stored exactly, so the query is exact too.
        assert_eq!(h.count_le(0), 1);
        assert_eq!(h.count_le(10), 11);
        assert_eq!(h.count_le(SUB_BUCKETS - 1), SUB_BUCKETS);
        assert_eq!(h.count_le(u64::MAX), SUB_BUCKETS);
    }

    #[test]
    fn count_le_bounded_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for cutoff in [100u64, 1_000, 25_000, 90_000] {
            let got = h.count_le(cutoff) as f64;
            let want = cutoff as f64;
            assert!(
                (got - want).abs() / want < 0.05,
                "count_le({cutoff}) = {got}, want ≈ {want}"
            );
        }
        assert_eq!(h.count_le(0), 0);
        assert_eq!(h.count_le(u64::MAX), 100_000);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(5);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn index_matches_clamped_reference() {
        // The saturating fast path must agree with the straightforward
        // compute-then-clamp formulation at every magnitude, including
        // range boundaries and off-scale values.
        let reference = |value: u64| -> usize {
            if value < SUB_BUCKETS {
                return value as usize;
            }
            let msb = 63 - value.leading_zeros();
            let range = (msb - SUB_BITS + 1) as usize;
            let sub = (value >> (msb - SUB_BITS)) & (SUB_BUCKETS - 1);
            (range * SUB_BUCKETS as usize + sub as usize).min(BUCKETS - 1)
        };
        for exp in 0..64u32 {
            let v = 1u64 << exp;
            for probe in [v.saturating_sub(1), v, v + 1, v + v / 3] {
                assert_eq!(
                    Histogram::index_of(probe),
                    reference(probe),
                    "probe={probe}"
                );
            }
        }
        assert_eq!(Histogram::index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(100.0) > 0);
    }
}
