//! # flock-api — the one public map interface of the Flock workspace
//!
//! Every concurrent map in this workspace — the seven Flock structures in
//! `flock-ds` and the five hand-crafted comparators in `flock-baselines` —
//! implements the single [`Map`] trait defined here. The benchmark driver
//! (`flock-workload`), the figure harness (`flock-bench`), the examples and
//! the integration tests are all written against this trait, so adding a
//! structure means implementing one interface, once.
//!
//! The trait is generic over [`Key`] and [`Value`], and — since the
//! `ValueRepr` refactor — so is **every structure in the registry**: the
//! paper's evaluation shape `Map<u64, u64>` is just one instantiation.
//! Keys need `Clone + Ord + Hash`; values need the
//! [`ValueRepr`](flock_sync::ValueRepr) representation layer — satisfied
//! directly by anything that fits a 48-bit payload (integers, flags), and
//! by [`Indirect<T>`](flock_epoch::Indirect) for *fat* values (structs,
//! strings, vectors), which ride behind an epoch-managed pointer. The
//! bench registry hands out `Box<dyn Map<u64, u64>>` for the paper's
//! workloads and `Box<dyn Map<u64, Indirect<[u64; 4]>>>` for the fat-value
//! workload; user code can instantiate any structure at any conforming
//! `(K, V)` pair.
//!
//! ## Conformance harness
//!
//! [`map_conformance!`] stamps out the shared test suite for one structure:
//! a sequential differential check against [`std::collections::BTreeMap`],
//! a partitioned multi-thread stress and an oversubscribed helping stress —
//! each in **both** lock modes where applicable — at three `(K, V)`
//! instantiations (`(u64, u64)`, a small-inline combo `(u32, u16)`, and a
//! heap-indirected fat combo `(u64, Indirect<[u64; 4]>)`), plus a
//! drop-exactly-once reclamation check for the indirect path and a native
//! `update` atomicity check (gated on [`Map::has_atomic_update`]) at the
//! same three instantiations — the fat one exercising the indirect-value
//! RMW end to end. Structures that ignore the lock mode (the baselines)
//! simply run the mode-sensitive suites twice:
//!
//! ```ignore
//! flock_api::map_conformance!(dlist, flock_ds::dlist::DList::new());
//! ```
//!
//! The `$make` expression must therefore be instantiable at every `(K, V)`
//! combination above — true for every registry structure since they are
//! generic.

#![warn(missing_docs)]

use std::fmt::Debug;
use std::hash::Hash;
use std::ops::Bound;

pub use flock_epoch::Indirect;
pub use flock_epoch::{EpochStats, PoolStats, epoch_stats, pool_stats};
pub use flock_sync::ValueRepr;

/// Marker bound for map keys: cheap to clone, totally ordered, hashable,
/// printable in assertions, and shareable across helper threads.
///
/// `Clone` (not `Copy`): fat keys — heap-owning types included — are
/// allowed wherever a structure's traversal only needs comparisons.
/// Structures clone keys into their nodes and into thunk captures.
pub trait Key: Clone + Ord + Hash + Debug + Send + Sync + 'static {}
impl<T: Clone + Ord + Hash + Debug + Send + Sync + 'static> Key for T {}

/// Marker bound for map values: anything with a 48-bit slot representation
/// ([`ValueRepr`], which implies `Clone + PartialEq`), printable in
/// assertions, and shareable across helper threads.
///
/// Inline types (integers, flags, anything ≤ 48 bits) qualify directly;
/// wrap anything bigger in [`Indirect<T>`] to store it behind an
/// epoch-managed pointer.
///
/// **48-bit contract for inline `u64`/`usize`:** the inline strategies for
/// the word-sized integers keep the long-standing packed-slot contract —
/// payloads must fit 48 bits (debug builds assert, release builds mask).
/// Structures that place values in packed slots (`hashtable`'s mutable
/// value slot, `blocking_bst`'s revive word) inherit it; use
/// `Indirect<u64>` when you need the full 64-bit range.
pub trait Value: ValueRepr + Debug + Send + Sync + 'static {}
impl<T: ValueRepr + Debug + Send + Sync + 'static> Value for T {}

/// A linearizable concurrent map.
///
/// All operations take `&self` and are safe to call from any number of
/// threads. The trait is object-safe at each instantiation: the bench
/// registry moves structures around as `Box<dyn Map<u64, u64>>` (paper
/// workloads) and `Box<dyn Map<u64, Indirect<[u64; 4]>>>` (fat-value
/// workload).
pub trait Map<K: Key, V: Value>: Send + Sync {
    /// Insert `(key, value)`. Returns `false` (leaving the map unchanged)
    /// if `key` was already present.
    fn insert(&self, key: K, value: V) -> bool;

    /// Remove `key`. Returns `false` if it was not present.
    fn remove(&self, key: K) -> bool;

    /// Look up `key`.
    fn get(&self, key: K) -> Option<V>;

    /// A short name for reports (e.g. `"dlist"`).
    fn name(&self) -> &'static str;

    /// Is `key` present?
    ///
    /// Provided in terms of [`Map::get`] — which **materializes the
    /// value**: for [`Indirect<V>`] fat values the default decodes and
    /// clones the boxed payload just to discard it. Structures with a
    /// presence-only existence check (no value decode, no clone) should
    /// override; every structure in this workspace's registry does, and
    /// the conformance harness's `contains_no_materialize` test pins it.
    fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Replace the value stored under an existing `key`. Returns `false`
    /// (inserting nothing) if `key` was absent.
    ///
    /// The default is the remove-then-insert composite, which is **not
    /// atomic**: a concurrent reader can observe the key absent mid-update,
    /// and a concurrent insert of the same key can win the re-insert race
    /// (in which case the update is dropped, matching a linearization where
    /// the remove and the concurrent insert both took effect). Structures
    /// should override this with a native in-place update where they can —
    /// and report the stronger contract through
    /// [`Map::has_atomic_update`]. **Every structure in this workspace's
    /// registry does**: all 7 Flock structures update a per-node value slot
    /// in place inside the owning lock's thunk
    /// (`flock_core::ValueSlot`), and all 5 baselines swap an atomic
    /// encoded-value word (or copy-on-write-replace the leaf under its
    /// lock) — so the composite below is reachable only from external
    /// `Map` implementations, never from the registry.
    fn update(&self, key: K, value: V) -> bool {
        if self.remove(key.clone()) {
            let _ = self.insert(key, value);
            true
        } else {
            false
        }
    }

    /// Capability probe: does [`Map::update`] linearize as a single atomic
    /// in-place replacement (no observable absence window, no lost-update
    /// race with concurrent inserts)?
    ///
    /// `false` (the default) means the composite contract documented on
    /// [`Map::update`] applies. Structures overriding `update` with a
    /// native read-modify-write must override this too; the conformance
    /// harness verifies the claim under concurrency at all three `(K, V)`
    /// instantiations. Every registry structure returns `true` (enforced
    /// by flock-bench's `composite_update_unreachable_from_registry`).
    fn has_atomic_update(&self) -> bool {
        false
    }

    /// Approximate element count, if the structure offers one.
    ///
    /// `None` (the default) means "not supported"; implementations that keep
    /// or can compute a count return `Some`. Concurrent mutations make any
    /// returned number a snapshot approximation.
    fn len_approx(&self) -> Option<usize> {
        None
    }
}

impl<K: Key, V: Value, M: Map<K, V> + ?Sized> Map<K, V> for &M {
    fn insert(&self, key: K, value: V) -> bool {
        (**self).insert(key, value)
    }
    fn remove(&self, key: K) -> bool {
        (**self).remove(key)
    }
    fn get(&self, key: K) -> Option<V> {
        (**self).get(key)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn contains(&self, key: K) -> bool {
        (**self).contains(key)
    }
    fn update(&self, key: K, value: V) -> bool {
        (**self).update(key, value)
    }
    fn has_atomic_update(&self) -> bool {
        (**self).has_atomic_update()
    }
    fn len_approx(&self) -> Option<usize> {
        (**self).len_approx()
    }
}

impl<K: Key, V: Value, M: Map<K, V> + ?Sized> Map<K, V> for Box<M> {
    fn insert(&self, key: K, value: V) -> bool {
        (**self).insert(key, value)
    }
    fn remove(&self, key: K) -> bool {
        (**self).remove(key)
    }
    fn get(&self, key: K) -> Option<V> {
        (**self).get(key)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn contains(&self, key: K) -> bool {
        (**self).contains(key)
    }
    fn update(&self, key: K, value: V) -> bool {
        (**self).update(key, value)
    }
    fn has_atomic_update(&self) -> bool {
        (**self).has_atomic_update()
    }
    fn len_approx(&self) -> Option<usize> {
        (**self).len_approx()
    }
}

/// Does `k` satisfy the lower bound of a range?
#[inline]
pub fn key_above_lower<K: Ord + ?Sized>(k: &K, lo: Bound<&K>) -> bool {
    match lo {
        Bound::Unbounded => true,
        Bound::Included(l) => k >= l,
        Bound::Excluded(l) => k > l,
    }
}

/// Does `k` satisfy the upper bound of a range?
#[inline]
pub fn key_below_upper<K: Ord + ?Sized>(k: &K, hi: Bound<&K>) -> bool {
    match hi {
        Bound::Unbounded => true,
        Bound::Included(h) => k <= h,
        Bound::Excluded(h) => k < h,
    }
}

/// Is `k` inside both bounds of a range?
#[inline]
pub fn key_in_range<K: Ord + ?Sized>(k: &K, lo: Bound<&K>, hi: Bound<&K>) -> bool {
    key_above_lower(k, lo) && key_below_upper(k, hi)
}

/// A [`Map`] whose keys support ordered traversal: range scans and full
/// ordered iteration.
///
/// ## Scan consistency contract
///
/// Range scans take **no locks**. Every implementation in this workspace
/// gives the same two-level guarantee (EXPERIMENTS.md §9 tabulates the
/// per-structure mechanism), checked for every ordered structure at three
/// `(K, V)` shapes by [`ordered_map_conformance!`]:
///
/// * **Per-entry atomicity** — each returned `(key, value)` pair was
///   simultaneously present in the map at some instant during the scan.
///   Entries are read through the version-validated optimistic path
///   (a `flock_core::read_validated`-style bracket under the entry's
///   owning lock), falling back to per-slot committed reads after a
///   bounded number of validation failures; either way a scan never
///   returns a torn value or a `(key, value)` pairing that never
///   coexisted.
/// * **Cross-entry weak consistency** — the scan as a whole is *not* an
///   atomic snapshot. Keys come back in strictly increasing order, each at
///   most once; a key present for the entire duration of the scan is
///   returned; keys inserted or removed mid-scan may or may not appear.
///   No key outside the requested bounds is ever returned.
pub trait OrderedMap<K: Key, V: Value>: Map<K, V> {
    /// All entries within the bounds, in ascending key order.
    fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)>;

    /// Ordered snapshot of the whole map — equivalent to
    /// `range(Bound::Unbounded, Bound::Unbounded)`.
    fn iter(&self) -> Vec<(K, V)> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Convenience form of [`OrderedMap::range`] over the standard range
    /// syntax: `map.scan(10..20)`, `map.scan(..=9)`, `map.scan(..)`.
    fn scan<R: std::ops::RangeBounds<K>>(&self, r: R) -> Vec<(K, V)>
    where
        Self: Sized,
    {
        self.range(r.start_bound(), r.end_bound())
    }
}

impl<K: Key, V: Value, M: OrderedMap<K, V> + ?Sized> OrderedMap<K, V> for &M {
    fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        (**self).range(lo, hi)
    }
    fn iter(&self) -> Vec<(K, V)> {
        (**self).iter()
    }
}

impl<K: Key, V: Value, M: OrderedMap<K, V> + ?Sized> OrderedMap<K, V> for Box<M> {
    fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        (**self).range(lo, hi)
    }
    fn iter(&self) -> Vec<(K, V)> {
        (**self).iter()
    }
}

pub mod testing {
    //! The shared conformance-test harness behind [`map_conformance!`]
    //! (also usable directly from hand-written tests).
    //!
    //! This module is compiled into the crate (not `#[cfg(test)]`) because
    //! downstream crates invoke it from *their* test builds.

    use super::{Indirect, Key, Map, OrderedMap, Value};
    use std::collections::BTreeMap;
    use std::ops::Bound;
    use std::sync::Arc;
    use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

    /// Process-wide lock serializing tests that touch the global lock mode:
    /// switching modes while another test's operations are in flight is
    /// unsupported (as in the paper's library), so mode-sensitive tests must
    /// not overlap within one test process.
    static MODE_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Run `test` under both lock modes (lock-free first), restoring
    /// lock-free afterwards. Serialized against every other mode-touching
    /// test in the process.
    pub fn both_modes(test: impl Fn()) {
        use flock_core::{LockMode, set_lock_mode};
        let _guard = MODE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for mode in [LockMode::LockFree, LockMode::Blocking] {
            set_lock_mode(mode);
            test();
        }
        set_lock_mode(LockMode::LockFree);
    }

    /// Run `test` in the (default) lock-free mode while holding the same
    /// exclusion as [`both_modes`].
    pub fn exclusive(test: impl Fn()) {
        let _guard = MODE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        flock_core::set_lock_mode(flock_core::LockMode::LockFree);
        test();
    }

    /// A tiny xorshift generator so the harness needs no external crates.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// The harness's fat value constructor: four words derived from `x`, so
    /// a decode of the wrong allocation (or a torn snapshot) cannot pass
    /// the equality checks. Cannot fit a 48-bit payload — it exercises the
    /// heap-indirected representation end to end.
    pub fn fat_value(x: u64) -> Indirect<[u64; 4]> {
        Indirect([x, x ^ 0xA5A5_A5A5_A5A5_A5A5, !x, x.rotate_left(17)])
    }

    /// Single-threaded differential test against a `BTreeMap` oracle, at an
    /// arbitrary `(K, V)` instantiation: `kf`/`vf` map the oracle's dense
    /// `u64` key ids and value stamps into the map's domain (`kf` must be
    /// injective on `0..key_range`).
    pub fn oracle_check_as<K, V, M, KF, VF>(
        map: &M,
        ops: usize,
        key_range: u64,
        seed: u64,
        kf: KF,
        vf: VF,
    ) where
        K: Key,
        V: Value,
        M: Map<K, V> + ?Sized,
        KF: Fn(u64) -> K,
        VF: Fn(u64) -> V,
    {
        let mut oracle = BTreeMap::new();
        let mut state = seed | 1;
        for i in 0..ops {
            let k = xorshift(&mut state) % key_range;
            let v = i as u64;
            match xorshift(&mut state) % 3 {
                0 => {
                    let expect = !oracle.contains_key(&k);
                    if expect {
                        oracle.insert(k, v);
                    }
                    assert_eq!(
                        map.insert(kf(k), vf(v)),
                        expect,
                        "insert({k}) disagreed with oracle at op {i}"
                    );
                }
                1 => {
                    let expect = oracle.remove(&k).is_some();
                    assert_eq!(
                        map.remove(kf(k)),
                        expect,
                        "remove({k}) disagreed with oracle at op {i}"
                    );
                }
                _ => {
                    assert_eq!(
                        map.get(kf(k)),
                        oracle.get(&k).map(|&x| vf(x)),
                        "get({k}) disagreed with oracle at op {i}"
                    );
                }
            }
        }
        // Final sweep: every oracle key must be present with the right value.
        for (k, v) in &oracle {
            assert_eq!(
                map.get(kf(*k)),
                Some(vf(*v)),
                "final sweep mismatch at key {k}"
            );
        }
        // Maintained/computed counters must be exact when quiescent.
        if let Some(n) = map.len_approx() {
            assert_eq!(
                n,
                oracle.len(),
                "quiescent len_approx disagrees with the oracle size"
            );
        }
    }

    /// Single-threaded differential test at the paper's `(u64, u64)` shape.
    pub fn oracle_check<M: Map<u64, u64> + ?Sized>(map: &M, ops: usize, key_range: u64, seed: u64) {
        oracle_check_as(map, ops, key_range, seed, |k| k, |v| v);
    }

    /// Multi-threaded stress test: per-key-partition determinism, at an
    /// arbitrary `(K, V)` instantiation (see [`oracle_check_as`] for the
    /// `kf`/`vf` contract; `kf` must be injective on the generated ids).
    ///
    /// Each thread owns a disjoint key partition (`id % threads == tid`),
    /// so per-thread sequential semantics must hold exactly even under full
    /// concurrency.
    pub fn partition_stress_as<K, V, M, KF, VF>(map: &M, threads: u64, ops: usize, kf: KF, vf: VF)
    where
        K: Key,
        V: Value,
        M: Map<K, V> + ?Sized,
        KF: Fn(u64) -> K + Sync,
        VF: Fn(u64) -> V + Sync,
    {
        std::thread::scope(|s| {
            for t in 0..threads {
                let map = &map;
                let kf = &kf;
                let vf = &vf;
                s.spawn(move || {
                    let mut present = BTreeMap::new();
                    let mut state = (t + 1) * 0x9E37_79B9;
                    for i in 0..ops {
                        let k = (xorshift(&mut state) % 512) * threads + t;
                        let v = i as u64;
                        match xorshift(&mut state) % 3 {
                            0 => {
                                let expect = !present.contains_key(&k);
                                if expect {
                                    present.insert(k, v);
                                }
                                assert_eq!(
                                    map.insert(kf(k), vf(v)),
                                    expect,
                                    "t{t} insert({k}) op {i}"
                                );
                            }
                            1 => {
                                let expect = present.remove(&k).is_some();
                                assert_eq!(map.remove(kf(k)), expect, "t{t} remove({k}) op {i}");
                            }
                            _ => {
                                assert_eq!(
                                    map.get(kf(k)),
                                    present.get(&k).map(|&x| vf(x)),
                                    "t{t} get({k}) op {i}"
                                );
                            }
                        }
                    }
                    for (k, v) in &present {
                        assert_eq!(map.get(kf(*k)), Some(vf(*v)), "t{t} final sweep key {k}");
                    }
                });
            }
        });
    }

    /// Multi-threaded partitioned stress at the paper's `(u64, u64)` shape.
    pub fn partition_stress<M: Map<u64, u64> + ?Sized>(map: &M, threads: u64, ops: usize) {
        partition_stress_as(map, threads, ops, |k| k, |v| v);
    }

    /// Oversubscribed stress: more threads than cores, so lock holders get
    /// descheduled mid-critical-section and (in lock-free mode) contenders
    /// must *help* them — the paper's headline path, exercised here by the
    /// tier-1 conformance suite rather than only by an example binary.
    ///
    /// Two phases per thread: a partitioned phase with exact per-partition
    /// oracle semantics, and a shared-hot-key phase (every thread hammers
    /// the same few keys, maximizing lock collisions) checked by invariant
    /// rather than oracle. Caller should run this in lock-free mode; it is
    /// also valid (just less interesting) under blocking locks.
    pub fn oversubscribed_stress<M: Map<u64, u64> + ?Sized>(map: &M, ops: usize) {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        // At least 4x oversubscription on small CI boxes, bounded so giant
        // dev machines do not turn the test into a thread-spawn benchmark.
        let threads = (2 * cores).clamp(8, 24) as u64;
        const HOT_KEYS: u64 = 4;
        std::thread::scope(|s| {
            for t in 0..threads {
                let map = &map;
                s.spawn(move || {
                    let mut present = BTreeMap::new();
                    let mut state = (t + 1) * 0x9E37_79B9;
                    for i in 0..ops {
                        // Shared phase: all threads fight over HOT_KEYS
                        // keys; return values are racy but every op must
                        // complete (helping keeps the system moving past
                        // descheduled holders).
                        let hot = xorshift(&mut state) % HOT_KEYS;
                        match xorshift(&mut state) % 3 {
                            0 => {
                                let _ = map.insert(hot, t);
                            }
                            1 => {
                                let _ = map.remove(hot);
                            }
                            _ => {
                                let _ = map.get(hot);
                            }
                        }
                        // Partitioned phase: exact sequential semantics on
                        // this thread's own keys, concurrently with the
                        // contention above.
                        let k = HOT_KEYS + (xorshift(&mut state) % 64) * threads + t;
                        let v = i as u64;
                        match xorshift(&mut state) % 3 {
                            0 => {
                                let expect = !present.contains_key(&k);
                                if expect {
                                    present.insert(k, v);
                                }
                                assert_eq!(map.insert(k, v), expect, "t{t} insert({k}) op {i}");
                            }
                            1 => {
                                let expect = present.remove(&k).is_some();
                                assert_eq!(map.remove(k), expect, "t{t} remove({k}) op {i}");
                            }
                            _ => {
                                assert_eq!(
                                    map.get(k),
                                    present.get(&k).copied(),
                                    "t{t} get({k}) op {i}"
                                );
                            }
                        }
                    }
                    for (k, v) in &present {
                        assert_eq!(map.get(*k), Some(*v), "t{t} final sweep key {k}");
                    }
                });
            }
        });
        // Quiescent cleanup of the contended keys: they must be in a
        // coherent present-or-absent state.
        for k in 0..HOT_KEYS {
            let present = map.contains(k);
            assert_eq!(map.remove(k), present, "hot key {k} in incoherent state");
            assert!(!map.contains(k), "hot key {k} still present after removal");
        }
    }

    /// Exercise the provided-method surface (`contains`, `update`,
    /// `len_approx`) against the primary operations.
    pub fn default_methods_check<M: Map<u64, u64> + ?Sized>(map: &M) {
        assert!(!map.contains(7));
        assert!(
            !map.update(7, 70),
            "update of an absent key must be a no-op"
        );
        assert!(!map.contains(7), "failed update must not insert");
        assert!(map.insert(7, 70));
        assert!(map.contains(7));
        assert!(map.update(7, 71));
        assert_eq!(map.get(7), Some(71));
        assert!(map.insert(8, 80));
        if let Some(n) = map.len_approx() {
            assert_eq!(n, 2, "quiescent len_approx must be exact");
        }
        assert!(map.remove(7));
        assert!(map.remove(8));
        assert!(!map.contains(7));
        assert!(!map.name().is_empty());
    }

    /// Verify a structure's [`Map::has_atomic_update`] claim under
    /// concurrency, at an arbitrary `(K, V)` instantiation (see
    /// [`oracle_check_as`] for the `kf`/`vf` contract — additionally `vf`
    /// must be injective on the value stamps used here, so a torn or stale
    /// decode cannot masquerade as a legal value): while one thread flips a
    /// key's value through `update`, readers must never observe the key
    /// absent nor any value outside the two being written. Structures on
    /// the composite default are skipped — their (non-atomic) contract is
    /// pinned by flock-api's own
    /// `default_update_composite_exposes_absence_window` test (and the
    /// bench registry asserts no registry structure falls back to it).
    pub fn update_atomicity_check_as<K, V, M, KF, VF>(map: &M, kf: KF, vf: VF)
    where
        K: Key,
        V: Value,
        M: Map<K, V> + ?Sized,
        KF: Fn(u64) -> K + Sync,
        VF: Fn(u64) -> V + Sync,
    {
        use std::sync::atomic::AtomicUsize;
        if !map.has_atomic_update() {
            return;
        }
        const KEY: u64 = 7;
        assert!(map.insert(kf(KEY), vf(1)));
        const READERS: usize = 3;
        let readers_done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..READERS {
                let map = &map;
                let kf = &kf;
                let vf = &vf;
                let readers_done = &readers_done;
                s.spawn(move || {
                    let (a, b) = (vf(1), vf(2));
                    for i in 0..3_000 {
                        let got = map.get(kf(KEY));
                        assert!(
                            got.as_ref() == Some(&a) || got.as_ref() == Some(&b),
                            "atomic update exposed {got:?} at read {i}"
                        );
                    }
                    readers_done.fetch_add(1, Relaxed);
                });
            }
            // Writer: flip 1 <-> 2 until every reader has finished.
            let mut v = 1u64;
            while readers_done.load(Relaxed) < READERS {
                v = 3 - v;
                assert!(map.update(kf(KEY), vf(v)), "native update of a present key");
            }
        });
        assert!(map.remove(kf(KEY)));
        assert!(
            !map.update(kf(KEY), vf(9)),
            "update of an absent key stays a no-op"
        );
        assert!(!map.contains(kf(KEY)), "failed update must not insert");
    }

    /// [`update_atomicity_check_as`] at the paper's `(u64, u64)` shape.
    pub fn update_atomicity_check<M: Map<u64, u64> + ?Sized>(map: &M) {
        update_atomicity_check_as(map, |k| k, |v| v);
    }

    /// Total constructions of [`DropTracked`] (including clones) — the
    /// materialization probe behind [`contains_no_materialize_check`].
    static TRACKED_CONSTRUCTED: AtomicIsize = AtomicIsize::new(0);

    /// Process-global, monotone count of [`DropTracked`] constructions so
    /// far (clones included). Diff two snapshots around an operation to
    /// count the payload materializations it performed; take them under
    /// [`exclusive`] so parallel tests cannot perturb the counter.
    pub fn tracked_constructions() -> isize {
        TRACKED_CONSTRUCTED.load(Relaxed)
    }

    /// A drop-counting payload for the indirect-path reclamation check:
    /// every construction (including clones) bumps the `live` counter it
    /// was created against, every drop decrements it, so leaks and double
    /// drops show up as a non-zero balance. The counter belongs to the
    /// check that made it — another test's late reclamation cannot move it.
    #[derive(Debug)]
    pub struct DropTracked(pub u64, Arc<AtomicIsize>);

    impl DropTracked {
        /// A new tracked instance carrying `v`, counted in `live`.
        pub fn new(v: u64, live: &Arc<AtomicIsize>) -> Self {
            live.fetch_add(1, Relaxed);
            TRACKED_CONSTRUCTED.fetch_add(1, Relaxed);
            DropTracked(v, Arc::clone(live))
        }
    }

    impl Clone for DropTracked {
        fn clone(&self) -> Self {
            DropTracked::new(self.0, &self.1)
        }
    }

    impl PartialEq for DropTracked {
        fn eq(&self, other: &Self) -> bool {
            self.0 == other.0
        }
    }

    impl Drop for DropTracked {
        fn drop(&mut self) {
            self.1.fetch_sub(1, Relaxed);
        }
    }

    /// Reclamation check for the indirect (fat value) path: hammer a map of
    /// `Indirect<DropTracked>` values with contended inserts, removes,
    /// updates and reads, drain it, drop it, flush the collector — and
    /// assert every tracked instance was dropped exactly once (a positive
    /// balance is a leak, a negative one a double drop).
    ///
    /// Takes a builder (not a reference) because the map itself must be
    /// dropped before the balance is taken.
    pub fn indirect_drop_check<M>(make: impl FnOnce() -> M)
    where
        M: Map<u64, Indirect<DropTracked>>,
    {
        let live = Arc::new(AtomicIsize::new(0));
        {
            let map = make();
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let (map, live) = (&map, &live);
                    s.spawn(move || {
                        let mut state = (t + 1) * 0x9E37_79B9;
                        for i in 0..400u64 {
                            let hot = xorshift(&mut state) % 16;
                            match xorshift(&mut state) % 4 {
                                0 => {
                                    let _ = map.insert(hot, Indirect(DropTracked::new(i, live)));
                                }
                                1 => {
                                    let _ = map.remove(hot);
                                }
                                2 => {
                                    let _ = map
                                        .update(hot, Indirect(DropTracked::new(i + 1_000, live)));
                                }
                                _ => {
                                    let _ = map.get(hot);
                                }
                            }
                        }
                    });
                }
            });
            for k in 0..16 {
                let _ = map.remove(k);
            }
            drop(map);
        }
        // The worker threads above were scope-joined, which waits for their
        // closures but NOT for their TLS destructors — and the destructor
        // is what hands a thread's epoch retire bag to the global orphan
        // list. Retry the flush until the stragglers have landed (bounded,
        // so a genuine leak still fails fast).
        for _ in 0..400 {
            flock_epoch::flush_all();
            if live.load(Relaxed) == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(
            live.load(Relaxed),
            0,
            "indirect reclamation imbalance: every retired fat value must be \
             dropped exactly once (positive = leak, negative = double drop)"
        );
    }

    /// Pin the presence-only `contains` contract on the fat-value path:
    /// [`Map::contains`] must not decode and clone an [`Indirect`] payload
    /// it only needs to *observe* — the default `get`-based composite does
    /// exactly that, so every registry structure overrides it. Call under
    /// [`exclusive`]: the construction counter is process-global.
    pub fn contains_no_materialize_check<M>(map: &M)
    where
        M: Map<u64, Indirect<DropTracked>>,
    {
        let live = Arc::new(AtomicIsize::new(0));
        assert!(map.insert(5, Indirect(DropTracked::new(50, &live))));
        let base = tracked_constructions();
        for _ in 0..64 {
            assert!(map.contains(5), "present key");
            assert!(!map.contains(6), "absent key");
        }
        assert_eq!(
            tracked_constructions() - base,
            0,
            "contains must be presence-only: no fat-value payload may be \
             decoded or cloned on the existence path"
        );
        let got = map.get(5);
        assert!(
            tracked_constructions() > base,
            "get must still materialize the value"
        );
        assert_eq!(got.map(|Indirect(d)| d.0), Some(50));
        assert!(map.remove(5));
        flock_epoch::flush_all();
    }

    /// Sequential differential check of [`OrderedMap::range`] and
    /// [`OrderedMap::iter`] against a `BTreeMap` oracle over a mix of bound
    /// shapes. `kf` must be strictly monotone (order-preserving) on
    /// `0..key_range`; `vf` injective on the value stamps.
    pub fn range_oracle_check_as<K, V, M, KF, VF>(
        map: &M,
        ops: usize,
        key_range: u64,
        seed: u64,
        kf: KF,
        vf: VF,
    ) where
        K: Key,
        V: Value,
        M: OrderedMap<K, V> + ?Sized,
        KF: Fn(u64) -> K,
        VF: Fn(u64) -> V,
    {
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        let mut state = seed | 1;
        let expect = |oracle: &BTreeMap<u64, u64>, lo: Bound<u64>, hi: Bound<u64>| -> Vec<(K, V)> {
            oracle
                .range((lo, hi))
                .map(|(k, v)| (kf(*k), vf(*v)))
                .collect()
        };
        for i in 0..ops {
            let k = xorshift(&mut state) % key_range;
            match xorshift(&mut state) % 4 {
                0 => {
                    let expect_new = !oracle.contains_key(&k);
                    if expect_new {
                        oracle.insert(k, i as u64);
                    }
                    assert_eq!(map.insert(kf(k), vf(i as u64)), expect_new, "insert({k})");
                }
                1 => {
                    let expect_hit = oracle.remove(&k).is_some();
                    assert_eq!(map.remove(kf(k)), expect_hit, "remove({k})");
                }
                _ => {
                    let a = xorshift(&mut state) % key_range;
                    let b = xorshift(&mut state) % key_range;
                    let (lo_id, hi_id) = (a.min(b), a.max(b));
                    let (klo, khi) = (kf(lo_id), kf(hi_id));
                    let (got, want) = match xorshift(&mut state) % 4 {
                        0 => (
                            map.range(Bound::Included(&klo), Bound::Excluded(&khi)),
                            expect(&oracle, Bound::Included(lo_id), Bound::Excluded(hi_id)),
                        ),
                        1 => (
                            map.range(Bound::Included(&klo), Bound::Included(&khi)),
                            expect(&oracle, Bound::Included(lo_id), Bound::Included(hi_id)),
                        ),
                        2 => (
                            map.range(Bound::Unbounded, Bound::Excluded(&khi)),
                            expect(&oracle, Bound::Unbounded, Bound::Excluded(hi_id)),
                        ),
                        _ => (
                            map.range(Bound::Excluded(&klo), Bound::Unbounded),
                            expect(&oracle, Bound::Excluded(lo_id), Bound::Unbounded),
                        ),
                    };
                    assert_eq!(got, want, "range disagreed with oracle at op {i}");
                }
            }
        }
        assert_eq!(
            map.iter(),
            expect(&oracle, Bound::Unbounded, Bound::Unbounded),
            "iter() disagreed with the full oracle"
        );
    }

    /// Concurrent scan-consistency check — the conformance teeth behind the
    /// [`OrderedMap`] contract: while a mutator flickers some keys and
    /// atomically flips the values of others, racing range scans must only
    /// ever return keys inside their linearization window, in strictly
    /// increasing order, with values drawn from each key's legal set — and
    /// must never miss a key that is present for the scan's whole duration.
    ///
    /// `kf` must be strictly monotone (order-preserving) on `0..64`; `vf`
    /// injective on stamps up to `64 + 1000`.
    pub fn scan_consistency_check_as<K, V, M, KF, VF>(map: &M, kf: KF, vf: VF)
    where
        K: Key,
        V: Value,
        M: OrderedMap<K, V> + Sync + ?Sized,
        KF: Fn(u64) -> K + Sync,
        VF: Fn(u64) -> V + Sync,
    {
        use std::sync::atomic::{AtomicBool, Ordering};
        const LO: u64 = 16; // scan window is [LO, HI)
        const HI: u64 = 48;
        const STAMP: u64 = 1_000; // alternate legal value stamp offset
        const SCANNERS: usize = 2;
        const SCANS: usize = 150;
        // Even keys (inside and outside the window) are permanent anchors;
        // odd keys inside the window flicker; nothing else ever exists.
        // Evens outside the window pin the "no key outside its bounds"
        // clause: they are always present yet must never be returned.
        for k in (0..64).step_by(2) {
            assert!(map.insert(kf(k), vf(k)));
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (stop, map, kf, vf) = (&stop, &map, &kf, &vf);
            // Mutator: flicker odd window keys through insert/remove; flip
            // even window values between their two legal stamps through
            // the (atomic) native update.
            s.spawn(move || {
                let mut state = 0x5EED_5EED_u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = LO + xorshift(&mut state) % (HI - LO);
                    if k % 2 == 1 {
                        if !map.insert(kf(k), vf(k)) {
                            let _ = map.remove(kf(k));
                        }
                    } else {
                        let stamp = if xorshift(&mut state).is_multiple_of(2) {
                            k
                        } else {
                            k + STAMP
                        };
                        assert!(map.update(kf(k), vf(stamp)), "even keys are permanent");
                    }
                }
            });
            let scanners: Vec<_> = (0..SCANNERS)
                .map(|t| {
                    s.spawn(move || {
                        let (lo_k, hi_k) = (kf(LO), kf(HI));
                        for scan in 0..SCANS {
                            let got = map.range(Bound::Included(&lo_k), Bound::Excluded(&hi_k));
                            for w in got.windows(2) {
                                assert!(
                                    w[0].0 < w[1].0,
                                    "t{t} scan {scan}: keys out of order or duplicated"
                                );
                            }
                            let mut seen_evens = 0usize;
                            for (k, v) in &got {
                                let id = (LO..HI).find(|i| kf(*i) == *k).unwrap_or_else(|| {
                                    panic!(
                                        "t{t} scan {scan}: key {k:?} observed outside its \
                                         linearization window"
                                    )
                                });
                                if id % 2 == 0 {
                                    assert!(
                                        *v == vf(id) || *v == vf(id + STAMP),
                                        "t{t} scan {scan}: torn or illegal value {v:?} for \
                                         key {id}"
                                    );
                                    seen_evens += 1;
                                } else {
                                    assert!(
                                        *v == vf(id),
                                        "t{t} scan {scan}: illegal value {v:?} for flicker \
                                         key {id}"
                                    );
                                }
                            }
                            assert_eq!(
                                seen_evens,
                                ((HI - LO) / 2) as usize,
                                "t{t} scan {scan}: a permanently-present key was missed"
                            );
                        }
                    })
                })
                .collect();
            for h in scanners {
                h.join().expect("scanner panicked");
            }
            stop.store(true, Ordering::Relaxed);
        });
        // Quiescent sweep: the permanent keys are all still there, ordered.
        let all = map.iter();
        let permanent: Vec<&K> = all
            .iter()
            .map(|(k, _)| k)
            .filter(|k| (0..64).step_by(2).any(|i| kf(i) == **k))
            .collect();
        assert_eq!(permanent.len(), 32, "quiescent sweep lost a permanent key");
    }

    /// Chaos-only progress validation (the `chaos` feature): stall one
    /// victim thread mid-critical-section through the fault-injection seams
    /// and check the paper's central claim *and its inversion* on one
    /// structure:
    ///
    /// * **lock-free mode** — the remaining worker threads must complete a
    ///   full quota of operations colliding with the stalled victim's lock
    ///   (helpers run the victim's thunk from its committed descriptor);
    /// * **blocking mode** — the *same schedule* must fail the quota:
    ///   nothing can help past a stalled TTAS holder, so colliding workers
    ///   spin until the victim is released. The asserted *failure* is the
    ///   documented inversion — it proves the stall really lands inside the
    ///   critical section, so the lock-free arm's pass is meaningful.
    ///
    /// Structures that never cross a flock seam (the hand-crafted baselines
    /// with their own node locks) complete the victim op unparked and the
    /// check returns vacuously — the chaos runner covers their stall
    /// behavior at the workload level instead.
    ///
    /// Call under [`exclusive`]: the chaos policy registry and the lock
    /// mode are process-global.
    #[cfg(feature = "chaos")]
    pub fn progress_under_stall_check<M, F>(make: F)
    where
        M: Map<u64, u64> + Sync,
        F: Fn() -> M,
    {
        use flock_core::{LockMode, set_lock_mode};
        use std::time::Duration;

        set_lock_mode(LockMode::LockFree);
        {
            let map = make();
            match stall::run_stalled_phase(&map, Duration::from_secs(60)) {
                // No flock seam crossed: nothing to stall here.
                None => return,
                Some(done) => assert!(
                    done >= stall::QUOTA,
                    "lock-free progress violated: only {done}/{} worker \
                     iterations completed with a victim stalled \
                     mid-critical-section",
                    stall::QUOTA
                ),
            }
        }
        flock_epoch::flush_all();

        set_lock_mode(LockMode::Blocking);
        {
            let map = make();
            if let Some(done) = stall::run_stalled_phase(&map, Duration::from_secs(2)) {
                assert!(
                    done < stall::QUOTA,
                    "blocking-mode inversion failed: workers met the quota \
                     ({done}) despite a stalled lock holder — the stall seam \
                     is not inside the blocking critical section"
                );
            }
        }
        flock_epoch::flush_all();
        set_lock_mode(LockMode::LockFree);
    }

    /// Strict companion to [`progress_under_stall_check`] for structures
    /// that are *known* to take a flock lock on the victim op (every
    /// structure in this workspace's registry): assert the stalled victim
    /// really parked at an in-critical-section seam
    /// (`InThunk`/`BlockingCritical`) instead of completing seam-free.
    /// This is the EXPERIMENTS.md §8 caveat made checkable — the victim op
    /// is a native `update` of a pre-inserted key, which always enters the
    /// owning lock's critical section. Call under [`exclusive`].
    #[cfg(feature = "chaos")]
    pub fn stall_seam_crossed_check<M, F>(make: F)
    where
        M: Map<u64, u64> + Sync,
        F: Fn() -> M,
    {
        use flock_core::{LockMode, set_lock_mode};
        use std::time::Duration;

        set_lock_mode(LockMode::LockFree);
        {
            let map = make();
            let crossed = stall::run_stalled_phase(&map, Duration::from_secs(60));
            assert!(
                crossed.is_some(),
                "victim op (native update of a present key) completed \
                 without crossing InThunk: the stall schedule is not \
                 exercising this structure's critical section"
            );
        }
        flock_epoch::flush_all();
    }

    /// The machinery behind [`progress_under_stall_check`].
    #[cfg(feature = "chaos")]
    mod stall {
        use super::Map;
        use flock_sync::chaos::{self, ChaosPolicy, Seam};
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::sync::{Arc, Condvar, Mutex};
        use std::time::{Duration, Instant};

        /// The key every thread collides on: the victim stalls holding the
        /// lock its operation on this key takes, and every worker iteration
        /// operates on the same key so it needs that lock (or, lock-free,
        /// helps past it).
        const HOT: u64 = 3;
        /// Worker iterations that must complete while the victim stays
        /// parked (lock-free) / must NOT complete (blocking).
        pub(super) const QUOTA: usize = 300;
        const WORKERS: usize = 2;

        /// Stalls exactly one designated thread, once, at its first
        /// critical-section seam; holds it parked until released.
        struct StallVictim {
            victim: Mutex<Option<std::thread::ThreadId>>,
            parked: AtomicBool,
            served: AtomicBool,
            released: Mutex<bool>,
            cv: Condvar,
        }

        impl StallVictim {
            fn new() -> Self {
                Self {
                    victim: Mutex::new(None),
                    parked: AtomicBool::new(false),
                    served: AtomicBool::new(false),
                    released: Mutex::new(false),
                    cv: Condvar::new(),
                }
            }

            /// Designate the calling thread as the victim.
            fn arm_current(&self) {
                *self.victim.lock().unwrap_or_else(|e| e.into_inner()) =
                    Some(std::thread::current().id());
            }

            fn release(&self) {
                *self.released.lock().unwrap_or_else(|e| e.into_inner()) = true;
                self.cv.notify_all();
            }
        }

        impl ChaosPolicy for StallVictim {
            fn at(&self, seam: Seam) {
                if !matches!(seam, Seam::InThunk | Seam::BlockingCritical) {
                    return;
                }
                if self.served.load(Ordering::Acquire) {
                    return;
                }
                let me = std::thread::current().id();
                if *self.victim.lock().unwrap_or_else(|e| e.into_inner()) != Some(me) {
                    return;
                }
                // Stall once: after release the victim's resumed run (and
                // any helped replay it performs) must pass through freely.
                self.served.store(true, Ordering::Release);
                self.parked.store(true, Ordering::Release);
                let mut rel = self.released.lock().unwrap_or_else(|e| e.into_inner());
                while !*rel {
                    rel = self.cv.wait(rel).unwrap_or_else(|e| e.into_inner());
                }
            }
        }

        /// One stalled-victim schedule against `map` in the *current* lock
        /// mode: victim starts an op on [`HOT`] and parks at its first seam;
        /// workers then run [`QUOTA`] colliding iterations. Returns how many
        /// iterations completed within `window` (the victim is always
        /// released afterwards so every thread joins), or `None` if the
        /// victim's op finished without crossing any seam.
        pub(super) fn run_stalled_phase<M: Map<u64, u64> + Sync>(
            map: &M,
            window: Duration,
        ) -> Option<usize> {
            let policy = Arc::new(StallVictim::new());
            chaos::set_chaos_policy(policy.clone());
            let completed = AtomicUsize::new(0);
            let victim_done = AtomicBool::new(false);
            // The victim op is a **native update of a pre-inserted key**:
            // update always enters the owning lock's critical section,
            // whereas an insert of a present key (and every get) returns
            // through outside-the-lock reads on several structures and
            // never crosses a seam — the EXPERIMENTS.md §8 caveat. The
            // pre-insert runs on this (unarmed) thread, so it cannot park.
            assert!(map.insert(HOT, 1), "pre-insert of the hot key");
            let result = std::thread::scope(|s| {
                {
                    let policy = Arc::clone(&policy);
                    let victim_done = &victim_done;
                    let map = &map;
                    s.spawn(move || {
                        policy.arm_current();
                        // Sentinel value fits the 48-bit inline payload.
                        let _ = map.update(HOT, (1 << 47) - 1);
                        victim_done.store(true, Ordering::Release);
                    });
                }
                // Wait until the victim is parked mid-critical-section —
                // or finished without hitting a seam (no flock locks).
                let t0 = Instant::now();
                loop {
                    if policy.parked.load(Ordering::Acquire) {
                        break;
                    }
                    if victim_done.load(Ordering::Acquire) {
                        return None;
                    }
                    assert!(
                        t0.elapsed() < Duration::from_secs(10),
                        "victim neither parked nor completed within 10s"
                    );
                    std::thread::yield_now();
                }
                for w in 0..WORKERS {
                    let completed = &completed;
                    let map = &map;
                    s.spawn(move || {
                        for i in 0..QUOTA / WORKERS {
                            let v = (w as u64 + 1) * 100_000 + i as u64;
                            // Every iteration crosses the owning lock at
                            // least twice (update of a present key, remove)
                            // regardless of how the structure fast-paths
                            // redundant inserts and gets.
                            let _ = map.insert(HOT, v);
                            let _ = map.get(HOT);
                            let _ = map.update(HOT, v + 1);
                            let _ = map.remove(HOT);
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
                let deadline = Instant::now() + window;
                while completed.load(Ordering::Relaxed) < QUOTA && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(10));
                }
                let done_in_window = completed.load(Ordering::Relaxed);
                // Release unconditionally so both arms join cleanly.
                policy.release();
                Some(done_in_window)
            });
            chaos::clear_chaos_policy();
            result
        }
    }
}

/// Stamp out the shared conformance suite for one map structure.
///
/// `$name` becomes a test module; `$make` is an expression building a fresh
/// instance (evaluated once per test) and must be *polymorphic in `(K, V)`*
/// — each generated test instantiates it at its own type pair:
///
/// * `(u64, u64)` — the paper's evaluation shape: differential oracle,
///   partitioned stress, provided-method check (each in both lock modes),
///   oversubscribed helping stress (lock-free), and the `update` atomicity
///   capability check.
/// * `(u32, u16)` — a small-inline combo exercising the non-`u64` inline
///   encodings (oracle + `update` atomicity).
/// * `(u64, Indirect<[u64; 4]>)` — a fat, heap-indirected value combo
///   (oracle, stress, and `update` atomicity over the indirect-value RMW).
/// * `(u64, Indirect<DropTracked>)` — the drop-exactly-once reclamation
///   check for the indirect path (inserts, removes, and native updates).
///
/// ```ignore
/// flock_api::map_conformance!(dlist, flock_ds::dlist::DList::new());
/// ```
#[macro_export]
macro_rules! map_conformance {
    ($name:ident, $make:expr) => {
        mod $name {
            #[allow(unused_imports)]
            use super::*;

            #[test]
            fn oracle() {
                $crate::testing::both_modes(|| {
                    let m = $make;
                    $crate::testing::oracle_check(&m, 3_000, 128, 42);
                });
            }

            #[test]
            fn partition_stress() {
                $crate::testing::both_modes(|| {
                    let m = $make;
                    $crate::testing::partition_stress(&m, 4, 1_200);
                });
            }

            #[test]
            fn default_methods() {
                $crate::testing::both_modes(|| {
                    let m = $make;
                    $crate::testing::default_methods_check(&m);
                });
            }

            #[test]
            fn oversubscribed_helping() {
                // Lock-free mode only: oversubscription is exactly the
                // regime where helping carries the system past descheduled
                // lock holders; under blocking locks the same schedule
                // merely spins, which the partition stress already covers.
                $crate::testing::exclusive(|| {
                    let m = $make;
                    $crate::testing::oversubscribed_stress(&m, 150);
                });
            }

            #[test]
            fn oracle_small_types() {
                $crate::testing::both_modes(|| {
                    let m = $make;
                    $crate::testing::oracle_check_as(
                        &m,
                        2_000,
                        128,
                        43,
                        |k| k as u32,
                        |v| v as u16,
                    );
                });
            }

            #[test]
            fn oracle_fat_values() {
                $crate::testing::both_modes(|| {
                    let m = $make;
                    $crate::testing::oracle_check_as(
                        &m,
                        2_000,
                        128,
                        44,
                        |k| k,
                        $crate::testing::fat_value,
                    );
                });
            }

            #[test]
            fn stress_fat_values() {
                $crate::testing::both_modes(|| {
                    let m = $make;
                    $crate::testing::partition_stress_as(
                        &m,
                        4,
                        600,
                        |k| k,
                        $crate::testing::fat_value,
                    );
                });
            }

            #[test]
            fn indirect_drops() {
                $crate::testing::exclusive(|| {
                    $crate::testing::indirect_drop_check(|| $make);
                });
            }

            #[test]
            fn contains_no_materialize() {
                $crate::testing::exclusive(|| {
                    let m = $make;
                    $crate::testing::contains_no_materialize_check(&m);
                });
            }

            #[test]
            fn update_atomicity() {
                $crate::testing::both_modes(|| {
                    let m = $make;
                    $crate::testing::update_atomicity_check(&m);
                });
            }

            #[test]
            fn update_atomicity_small_types() {
                $crate::testing::both_modes(|| {
                    let m = $make;
                    $crate::testing::update_atomicity_check_as(&m, |k| k as u32, |v| v as u16);
                });
            }

            /// Chaos-only (the stamping crate's `chaos` feature): one
            /// victim stalled mid-critical-section must not stop the other
            /// threads in lock-free mode, and must stop them in blocking
            /// mode — see
            /// [`progress_under_stall_check`]($crate::testing::progress_under_stall_check)
            /// for the full contract (baselines with their own locks skip
            /// vacuously).
            #[cfg(feature = "chaos")]
            #[test]
            fn progress_under_stall() {
                $crate::testing::exclusive(|| {
                    $crate::testing::progress_under_stall_check(|| $make);
                });
            }

            #[test]
            fn update_atomicity_fat_values() {
                // The native RMW over the indirect repr: every applied
                // update installs one fresh encoding and retires exactly
                // one displaced encoding (the reclamation half is pinned
                // by `indirect_drops`, whose workload includes `update`).
                $crate::testing::both_modes(|| {
                    let m = $make;
                    $crate::testing::update_atomicity_check_as(
                        &m,
                        |k| k,
                        $crate::testing::fat_value,
                    );
                });
            }
        }
    };
}

/// Stamp out the ordered-map conformance suite for one structure
/// implementing [`OrderedMap`]: a sequential differential range check
/// against a `BTreeMap` oracle (plain and fat values) and the concurrent
/// [`scan_consistency_check_as`](testing::scan_consistency_check_as) at
/// all three `(K, V)` shapes — scans racing inserts/removes/updates must
/// never observe a key outside its linearization window, a torn value, or
/// miss a permanently-present key.
///
/// ```ignore
/// flock_api::ordered_map_conformance!(dlist_ordered, flock_ds::dlist::DList::new());
/// ```
#[macro_export]
macro_rules! ordered_map_conformance {
    ($name:ident, $make:expr) => {
        mod $name {
            #[allow(unused_imports)]
            use super::*;

            #[test]
            fn range_oracle() {
                $crate::testing::both_modes(|| {
                    let m = $make;
                    $crate::testing::range_oracle_check_as(&m, 2_000, 128, 45, |k| k, |v| v);
                });
            }

            #[test]
            fn range_oracle_fat_values() {
                $crate::testing::both_modes(|| {
                    let m = $make;
                    $crate::testing::range_oracle_check_as(
                        &m,
                        1_200,
                        128,
                        46,
                        |k| k,
                        $crate::testing::fat_value,
                    );
                });
            }

            #[test]
            fn scan_consistency() {
                $crate::testing::both_modes(|| {
                    let m = $make;
                    $crate::testing::scan_consistency_check_as(&m, |k| k, |v| v);
                });
            }

            #[test]
            fn scan_consistency_small_types() {
                $crate::testing::both_modes(|| {
                    let m = $make;
                    $crate::testing::scan_consistency_check_as(&m, |k| k as u32, |v| v as u16);
                });
            }

            #[test]
            fn scan_consistency_fat_values() {
                $crate::testing::both_modes(|| {
                    let m = $make;
                    $crate::testing::scan_consistency_check_as(
                        &m,
                        |k| k,
                        $crate::testing::fat_value,
                    );
                });
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Mutex;

    /// Minimal reference implementation to validate the harness itself —
    /// generic like the real structures, with a *native* (mutex-atomic)
    /// `update` so the capability path of the harness is exercised here.
    struct MutexMap<K, V>(Mutex<HashMap<K, V>>);

    impl<K, V> MutexMap<K, V> {
        fn new() -> Self {
            Self(Mutex::new(HashMap::new()))
        }
    }

    impl<K: Key, V: Value> Map<K, V> for MutexMap<K, V> {
        fn insert(&self, key: K, value: V) -> bool {
            let mut m = self.0.lock().unwrap();
            if let std::collections::hash_map::Entry::Vacant(e) = m.entry(key) {
                e.insert(value);
                true
            } else {
                false
            }
        }
        fn remove(&self, key: K) -> bool {
            self.0.lock().unwrap().remove(&key).is_some()
        }
        fn get(&self, key: K) -> Option<V> {
            self.0.lock().unwrap().get(&key).cloned()
        }
        fn contains(&self, key: K) -> bool {
            // Presence-only: no value clone (the conformance harness's
            // `contains_no_materialize` pins this for every consumer).
            self.0.lock().unwrap().contains_key(&key)
        }
        fn name(&self) -> &'static str {
            "mutex_hashmap"
        }
        fn update(&self, key: K, value: V) -> bool {
            // Native atomic update: the whole map is one critical section.
            match self.0.lock().unwrap().get_mut(&key) {
                Some(slot) => {
                    *slot = value;
                    true
                }
                None => false,
            }
        }
        fn has_atomic_update(&self) -> bool {
            true
        }
        fn len_approx(&self) -> Option<usize> {
            Some(self.0.lock().unwrap().len())
        }
    }

    map_conformance!(mutex_hashmap, MutexMap::new());

    /// Delegating wrapper that observes the underlying map at the moment
    /// the default `update` composite calls back into `insert`: the window
    /// between its `remove` and `insert` halves, made deterministic.
    struct UpdateWindowProbe {
        inner: MutexMap<u64, u64>,
        absent_during_reinsert: std::sync::atomic::AtomicBool,
    }

    impl Map<u64, u64> for UpdateWindowProbe {
        fn insert(&self, key: u64, value: u64) -> bool {
            // The default composite reaches here after its remove half: the
            // key's absence is observable at this instant — this is the
            // documented non-atomicity window.
            if self.inner.get(key).is_none() {
                self.absent_during_reinsert
                    .store(true, std::sync::atomic::Ordering::SeqCst);
            }
            self.inner.insert(key, value)
        }
        fn remove(&self, key: u64) -> bool {
            self.inner.remove(key)
        }
        fn get(&self, key: u64) -> Option<u64> {
            self.inner.get(key)
        }
        fn name(&self) -> &'static str {
            "update_window_probe"
        }
    }

    /// Pin the documented behavior of the **default** `Map::update`: it is
    /// the non-atomic remove-then-insert composite, so the key is
    /// observably absent in between. This contract now applies only to
    /// `Map` implementations *outside* this workspace — every structure in
    /// the bench registry overrides `update` natively and flips
    /// `has_atomic_update()`, so the composite is unreachable from the
    /// registry (asserted by flock-bench's
    /// `composite_update_unreachable_from_registry`); the conformance
    /// harness's `update_atomicity*` tests assert the negation (no
    /// observable absence) for them. The probe below keeps the default's
    /// documented window pinned for external implementors.
    #[test]
    fn default_update_composite_exposes_absence_window() {
        use std::sync::atomic::Ordering::SeqCst;
        let probe = UpdateWindowProbe {
            inner: MutexMap::new(),
            absent_during_reinsert: std::sync::atomic::AtomicBool::new(false),
        };
        assert!(!probe.has_atomic_update(), "probe uses the composite");
        assert!(probe.insert(9, 90));
        probe.absent_during_reinsert.store(false, SeqCst); // ignore the initial insert

        assert!(Map::update(&probe, 9, 91), "update of a present key");
        assert!(
            probe.absent_during_reinsert.load(SeqCst),
            "the default update composite must pass through an observable \
             absent state between its remove and insert halves"
        );
        assert_eq!(probe.get(9), Some(91), "update result intact");

        // The absent-key contract of the composite: no phantom insert.
        probe.absent_during_reinsert.store(false, SeqCst);
        assert!(!Map::update(&probe, 555, 1), "absent key: update refused");
        assert_eq!(probe.get(555), None, "refused update must not insert");
    }

    #[test]
    fn trait_is_object_safe() {
        let boxed: Box<dyn Map<u64, u64>> = Box::new(MutexMap::new());
        assert!(boxed.insert(1, 2));
        assert_eq!(boxed.get(1), Some(2));
        assert!(boxed.contains(1));
        assert!(boxed.update(1, 3));
        assert_eq!(boxed.get(1), Some(3));
        assert_eq!(boxed.len_approx(), Some(1));
        assert!(boxed.remove(1));
        assert_eq!(boxed.name(), "mutex_hashmap");
    }

    #[test]
    fn trait_is_object_safe_at_fat_values() {
        let boxed: Box<dyn Map<u64, Indirect<String>>> = Box::new(MutexMap::new());
        assert!(boxed.insert(1, Indirect("fat".to_string())));
        assert_eq!(boxed.get(1), Some(Indirect("fat".to_string())));
        assert!(boxed.remove(1));
    }

    #[test]
    fn references_and_boxes_forward() {
        let m: MutexMap<u64, u64> = MutexMap::new();
        let r: &dyn Map<u64, u64> = &m;
        assert!((&r).insert(5, 6));
        assert_eq!(Map::get(&r, 5), Some(6));
        assert!((&r).has_atomic_update(), "capability forwards through refs");
    }
}
