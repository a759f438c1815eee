//! Tiny fast PRNG for the driver's hot path, and the key hash built from
//! the same mixing function.

/// The splitmix64 output function: a bijection on `u64`.
#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// splitmix64 finalizer; used to sparsify keys (the paper hashes keys for
/// the ART benchmark so the trie does not benefit from dense packing).
#[inline]
pub fn sparsify(key: u64) -> u64 {
    mix(key.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// splitmix64: one multiply-xor-shift chain per output, passes BigCrush for
/// this use.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xDEAD_BEEF_FACE_CAFE,
        }
    }

    /// Next 64 random bits.
    #[inline(always)]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// Uniform in `[0, bound)`.
    #[inline(always)]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift range reduction; bias is negligible for benchmarks.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline(always)]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_in_range() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    /// splitmix64's finalizer is a bijection on `u64`, so distinct keys
    /// stay distinct.
    #[test]
    fn sparsify_is_injective_on_small_ranges() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let a = rng.below(1_000_000);
            let b = rng.below(1_000_000);
            if a != b {
                assert_ne!(sparsify(a), sparsify(b));
            }
        }
    }

    #[test]
    fn below_roughly_uniform() {
        let mut r = SplitMix64::new(11);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[r.below(8) as usize] += 1;
        }
        for c in counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} far from 10k"
            );
        }
    }
}
