//! Randomized property tests on the core invariants (self-contained: the
//! container has no third-party crates, so the generator is a seeded
//! splitmix64 sweep rather than proptest — many seeds, deterministic
//! replay by seed):
//!
//! * arbitrary op sequences on every structure match a `BTreeMap` oracle,
//!   at inline and at fat, heap-indirected values;
//! * packed-word encodings round-trip;
//! * the zipfian generator stays in range;
//! * `Mutable` agrees with a plain variable under arbitrary histories;
//! * structure-specific shape invariants hold after arbitrary histories.
//!
//! The key hash's injectivity is a flock-bench unit test.

use flock::api::{Indirect, Map, Value};
use flock_bench::SplitMix64;
use flock_conformance::{exclusive, oracle_check_as};

/// One seeded history of `ops` operations over keys `0..48`, checked
/// against the `BTreeMap` oracle of [`oracle_check_as`]. `value` maps the
/// oracle's op-index stamps into the map's value type. The seed is mixed
/// through splitmix64 first, so every test seed starts its own history.
fn oracle_case<V: Value, M: Map<u64, V>>(map: &M, seed: u64, ops: usize, value: impl Fn(u64) -> V) {
    let history = SplitMix64::new(seed).next_u64();
    oracle_check_as(map, ops, 48, history, |k| k, value);
}

/// Full 48-bit inline values: the stamp times an odd constant, mod 2^48, a
/// bijection on the 48-bit payload (the documented contract of every
/// packed slot in this workspace), so every stamp stays distinct while the
/// high payload bits are exercised too.
fn vf(stamp: u64) -> u64 {
    stamp.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1 << 48) - 1)
}

macro_rules! oracle_prop {
    ($name:ident, $make:expr, $check:expr) => {
        #[test]
        fn $name() {
            exclusive(|| {
                for seed in 0..24u64 {
                    let m = $make;
                    // Vary the history length with the seed, like a
                    // shrinking property-test would explore short and long
                    // sequences.
                    let ops = 40 + (seed as usize * 37) % 260;
                    oracle_case(&m, seed, ops, vf);
                    #[allow(clippy::redundant_closure_call)]
                    ($check)(&m);
                }
            });
        }
    };
}

oracle_prop!(
    dlist_matches_oracle,
    flock::ds::dlist::DList::new(),
    |m: &flock::ds::dlist::DList<u64, u64>| m.check_invariants()
);
oracle_prop!(
    lazylist_matches_oracle,
    flock::ds::lazylist::LazyList::new(),
    |m: &flock::ds::lazylist::LazyList<u64, u64>| m.check_invariants()
);
oracle_prop!(
    hashtable_matches_oracle,
    flock::ds::hashtable::HashTable::with_capacity(16),
    |_m: &flock::ds::hashtable::HashTable<u64, u64>| ()
);
oracle_prop!(
    leaftree_matches_oracle,
    flock::ds::leaftree::LeafTree::new(),
    |m: &flock::ds::leaftree::LeafTree<u64, u64>| m.check_invariants()
);
oracle_prop!(
    leaftreap_matches_oracle,
    flock::ds::leaftreap::LeafTreap::new(),
    |m: &flock::ds::leaftreap::LeafTreap<u64, u64>| m.check_invariants()
);
oracle_prop!(
    abtree_matches_oracle,
    flock::ds::abtree::ABTree::new(),
    |m: &flock::ds::abtree::ABTree<u64, u64>| m.check_invariants()
);
oracle_prop!(
    arttree_matches_oracle,
    flock::ds::arttree::ArtTree::new(),
    |m: &flock::ds::arttree::ArtTree<u64, u64>| m.check_invariants()
);

/// The same randomized histories at a fat, heap-indirected value type: the
/// oracle agreement must be representation-independent. The values use all
/// 64 bits of each word.
#[test]
fn fat_value_histories_match_oracle() {
    fn fat(stamp: u64) -> Indirect<[u64; 4]> {
        let v = flock_bench::sparsify(stamp);
        Indirect([v, !v, v ^ 0xABCD, v.rotate_left(9)])
    }
    exclusive(|| {
        for seed in 0..8u64 {
            let ops = 60 + (seed as usize * 31) % 200;
            oracle_case(&flock::ds::dlist::DList::new(), seed, ops, fat);
            oracle_case(
                &flock::ds::hashtable::HashTable::with_capacity(16),
                seed,
                ops,
                fat,
            );
            oracle_case(&flock::ds::leaftreap::LeafTreap::new(), seed, ops, fat);
            oracle_case(&flock::baselines::NatarajanBst::new(), seed, ops, fat);
            oracle_case(&flock::baselines::BlockingBst::new(), seed, ops, fat);
        }
        flock::epoch::flush_all();
    });
}

#[test]
fn baselines_match_oracle() {
    exclusive(|| {
        for seed in 0..16u64 {
            let ops = 40 + (seed as usize * 29) % 160;
            oracle_case(&flock::baselines::HarrisList::new(), seed, ops, vf);
            oracle_case(&flock::baselines::HarrisList::new_opt(), seed, ops, vf);
            oracle_case(&flock::baselines::NatarajanBst::new(), seed, ops, vf);
            oracle_case(&flock::baselines::EllenBst::new(), seed, ops, vf);
            oracle_case(&flock::baselines::BlockingBst::new(), seed, ops, vf);
            oracle_case(&flock::baselines::BlockingABTree::new(), seed, ops, vf);
        }
    });
}

#[test]
fn packed_value_roundtrip() {
    use flock::sync::{pack, unpack_tag, unpack_val};
    let mut rng = SplitMix64::new(0xBEEF);
    for _ in 0..10_000 {
        // TAG_LIMIT (0xFFFF) is reserved so u64::MAX can stay the empty-log
        // sentinel; pack() debug-asserts it is never used.
        let tag = (rng.next_u64() % u64::from(flock::sync::TAG_LIMIT)) as u16;
        let val = rng.next_u64() & ((1u64 << 48) - 1);
        let w = pack(tag, val);
        assert_eq!(unpack_tag(w), tag);
        assert_eq!(unpack_val(w), val);
    }
}

#[test]
fn zipfian_in_range() {
    let mut rng = SplitMix64::new(0xCAFE);
    for _ in 0..64 {
        let n = 1 + rng.below(100_000);
        let alpha = (rng.below(999) as f64) / 1000.0;
        let z = flock_bench::Zipfian::new(n, alpha);
        let mut zrng = SplitMix64::new(rng.next_u64());
        for _ in 0..64 {
            assert!(z.next(&mut zrng) < n, "n={n} alpha={alpha}");
        }
    }
}

/// Mutables agree with a plain variable under arbitrary single-threaded
/// operation sequences (load/store/cam).
#[test]
fn mutable_matches_reference() {
    exclusive(|| {
        for seed in 0..32u64 {
            let mut rng = SplitMix64::new(seed);
            let m = flock::core::Mutable::new(0u32);
            let mut reference = 0u32;
            for _ in 0..100 {
                let a = rng.next_u64() as u32;
                let b = rng.next_u64() as u32;
                match rng.below(3) {
                    0 => {
                        m.store(a);
                        reference = a;
                    }
                    1 => {
                        m.cam(a, b);
                        if reference == a {
                            reference = b;
                        }
                    }
                    _ => assert_eq!(m.load(), reference, "seed {seed}"),
                }
            }
            assert_eq!(m.load(), reference, "seed {seed}");
        }
    });
}
