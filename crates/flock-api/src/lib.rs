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
//! Keys need `Clone + Ord + Hash`; values need the [`ValueRepr`]
//! representation layer — satisfied directly by anything that fits a
//! 48-bit payload (integers, flags), and
//! by [`Indirect<T>`](flock_epoch::Indirect) for *fat* values (structs,
//! strings, vectors), which ride behind an epoch-managed pointer. The
//! bench registry hands out `Box<dyn Map<u64, u64>>` for the paper's
//! workloads and `Box<dyn Map<u64, Indirect<[u64; 4]>>>` for the fat-value
//! workload; user code can instantiate any structure at any conforming
//! `(K, V)` pair.
//!
//! The shared conformance suite every structure runs (`map_conformance!`
//! and `ordered_map_conformance!`) lives in the dev-only
//! `flock-conformance` crate, so none of it is compiled into a dependent's
//! build.

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
    /// Every structure in this workspace's registry overrides this with a
    /// native update that linearizes as one atomic in-place replacement —
    /// no observable absence window, no lost-update race with a concurrent
    /// insert: the 7 Flock structures store into a per-node value slot (a
    /// `flock_core::Mutable`) inside the owning lock's thunk, and the 5
    /// baselines swap an atomic encoded-value word (or copy-on-write-
    /// replace the leaf under its lock). The conformance harness checks
    /// that contract under concurrency for every one of them.
    ///
    /// The default, kept for external maps that only need the other
    /// methods, is the remove-then-insert composite, which is **not
    /// atomic**: a concurrent reader can observe the key absent mid-update,
    /// and a concurrent insert of the same key can win the re-insert race
    /// (the update is then dropped, matching a linearization where the
    /// remove and the concurrent insert both took effect).
    fn update(&self, key: K, value: V) -> bool {
        if self.remove(key.clone()) {
            let _ = self.insert(key, value);
            true
        } else {
            false
        }
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
/// `(K, V)` shapes by flock-conformance's `ordered_map_conformance!`:
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
