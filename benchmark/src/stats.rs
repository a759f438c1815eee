//! Order statistics: every number the benchmark prints is a median over
//! windows, shown with the spread between the quartiles and the count.

/// Median, distance between the quartiles, and count of one series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub iqr: f64,
    pub n: usize,
}

impl Summary {
    /// The spread as a share of the median (0 when the median is 0).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr / self.median.abs()
        }
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), because that is the rule the benchmark's spreads are judged by.
/// Fewer than two values have no spread: all three cuts are the value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        _ => std::array::from_fn(|i| {
            let at = (i + 1) * (n + 1);
            let j = (at / 4).clamp(1, n - 1);
            let delta = at as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        }),
    }
}

/// Median, quartile spread and count of `values`.
pub fn summarize(values: &[f64]) -> Summary {
    let q = quartiles(values);
    Summary {
        median: q[1],
        iqr: q[2] - q[0],
        n: values.len(),
    }
}

/// The `q`-quantile (0..=1) of already sorted samples, interpolating
/// linearly between the two neighbouring ranks. 0 for no samples.
pub fn quantile_sorted<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo].into() * (1.0 - frac) + sorted[hi].into() * frac
}

/// Values below this are counted exactly; above it each power of two is cut
/// into `SUB` buckets, so a bucket is at most 1/32 of its value wide.
const EXACT: u32 = 64;
const SUB: u32 = 32;
const BUCKETS: usize = (EXACT + (32 - 6) * SUB) as usize;

/// A fixed-size log-linear histogram of `u32` durations, for the traced
/// runs that time every operation and cannot keep every sample.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u32; BUCKETS]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }
}

impl Histogram {
    #[inline]
    fn bucket(v: u32) -> usize {
        if v < EXACT {
            return v as usize;
        }
        let e = 31 - v.leading_zeros(); // >= 6
        let sub = (v >> (e - 5)) & (SUB - 1);
        (EXACT + (e - 6) * SUB + sub) as usize
    }

    /// The half-open value range `[lo, hi)` bucket `b` covers.
    fn bounds(b: usize) -> (f64, f64) {
        let b = b as u32;
        if b < EXACT {
            return (b as f64, b as f64 + 1.0);
        }
        let e = (b - EXACT) / SUB + 6;
        let sub = (b - EXACT) % SUB;
        let width = 1u64 << (e - 5);
        let lo = (1u64 << e) + sub as u64 * width;
        (lo as f64, (lo + width) as f64)
    }

    #[inline]
    pub fn record(&mut self, v: u32) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile, interpolated inside the bucket it falls in. 0 for
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0.0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c as f64 >= rank {
                let (lo, hi) = Self::bounds(b);
                return lo + (hi - lo) * ((rank - seen) / c as f64);
            }
            seen += c as f64;
        }
        Self::bounds(BUCKETS - 1).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn summary_reports_median_spread_and_count() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.iqr, 3.0); // quartiles 1.5 and 4.5
        assert_eq!(s.n, 5);
        assert_eq!(s.iqr_share(), 1.0);
        assert_eq!(summarize(&[]).iqr_share(), 0.0);
    }

    #[test]
    fn sample_quantiles_interpolate() {
        let s = [10u32, 20, 30, 40, 50];
        assert_eq!(quantile_sorted(&s, 0.5), 30.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0], 0.1), 1.1);
        assert_eq!(quantile_sorted(&s, 0.0), 10.0);
        assert_eq!(quantile_sorted(&s, 1.0), 50.0);
        assert_eq!(quantile_sorted(&s, 0.125), 15.0);
        assert_eq!(quantile_sorted::<u32>(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        // Every value lands in a bucket whose bounds contain it, and the
        // buckets are contiguous.
        for v in [
            0u32,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            65_535,
            1 << 20,
            u32::MAX,
        ] {
            let (lo, hi) = Histogram::bounds(Histogram::bucket(v));
            assert!(lo <= v as f64 && (v as f64) < hi, "{v} not in [{lo}, {hi})");
            assert!(hi - lo <= (v as f64 / 32.0).max(1.0) + 1e-9);
        }
        for b in 1..BUCKETS {
            assert_eq!(Histogram::bounds(b - 1).1, Histogram::bounds(b).0);
        }
    }

    #[test]
    fn histogram_quantiles_track_the_samples() {
        let mut h = Histogram::default();
        for v in 1..=10_000u32 {
            h.record(v);
        }
        for q in [0.5, 0.99, 0.999] {
            let want = q * 10_000.0;
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.02, "q{q}: {got} vs {want}");
        }
        let mut sum = Histogram::default();
        sum.merge(&h);
        sum.merge(&h);
        assert_eq!(sum.total, 20_000);
        assert!((sum.quantile(0.5) - h.quantile(0.5)).abs() < 1e-9);
        h.clear();
        assert_eq!(h.quantile(0.5), 0.0);
    }
}
