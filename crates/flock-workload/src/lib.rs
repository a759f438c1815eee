//! # flock-workload — YCSB-style benchmark driver
//!
//! Reproduces the paper's workload methodology (§8 "Workloads"):
//!
//! * a key range `[0, r)` prefilled with half the keys;
//! * each thread performs a mix of lookups and updates, with updates split
//!   evenly between inserts and deletes, keeping the size stable;
//! * keys drawn from a zipfian distribution with parameter α
//!   (α = 0 is uniform; 0.75/0.9/0.99 skew toward hot keys, as in YCSB);
//! * timed runs with a warm-up run discarded and the mean ± σ of the
//!   remaining runs reported;
//! * oversubscription simply by requesting more threads than cores.
//!
//! The driver runs anything implementing [`flock_api::Map`] — the one map
//! interface of the workspace — so the Flock structures and the baselines
//! plug in directly, with no adapter layer.

#![warn(missing_docs)]

pub mod driver;
pub mod rng;
pub mod zipf;

pub use driver::{Config, Measurement, run_experiment};
pub use flock_api::Map;
pub use rng::SplitMix64;
pub use zipf::Zipfian;

/// splitmix64 finalizer; used to sparsify keys (the paper hashes keys for
/// the ART benchmark so the trie does not benefit from dense packing).
#[inline]
pub fn sparsify(key: u64) -> u64 {
    let mut x = key;
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
