//! Separate-chaining hash table with one Flock lock per bucket, generic
//! over `(K, V)` and the hash function.
//!
//! The paper's `hashtable` (§7): a fixed array of buckets, each an unsorted
//! singly-linked chain guarded by the bucket's lock. Lookups traverse the
//! chain without locking; updates take the single bucket lock, re-find the
//! key under the lock, and splice. Chains are short (the benchmarks size the
//! table to the key range), so critical sections are tiny — which is exactly
//! why the paper observes the *highest* relative logging overhead here: the
//! lock-free mode's descriptor + log cost is not amortized by any search
//! time.
//!
//! Two things distinguish this structure in the generic workspace:
//!
//! * **A real hasher seam.** Bucket selection goes through
//!   [`std::hash::BuildHasher`]; the default [`FlockHashBuilder`] is a
//!   deterministic FNV-1a/mix64 combination (benchmarks need run-to-run
//!   stable placement), and [`HashTable::with_capacity_and_hasher`] accepts
//!   any substitute.
//! * **A native atomic [`Map::update`]** — the structure that proved the
//!   pattern every Flock structure now shares: each node stores its value
//!   in a lock-word-adjacent [`ValueSlot<V>`] read-modify-written in-thunk
//!   under the bucket lock — one idempotent store, no remove/insert
//!   composite, no observable absence window
//!   ([`Map::has_atomic_update`] returns `true`; the conformance harness
//!   verifies the claim). Fat (`Indirect`) values ride behind an
//!   epoch-managed pointer the store machinery retires exactly once.
//!   Because values live in a packed slot, inline `u64`/`usize` values
//!   inherit the workspace-wide 48-bit payload contract (debug-asserted;
//!   use `Indirect<u64>` for full-range values) — see [`flock_api::Value`].

use std::hash::{BuildHasher, Hasher};
use std::ops::ControlFlow;

use flock_api::{Key, Map, Value};
use flock_core::{Lock, Mutable, Sp, ValueSlot};
use flock_sync::ApproxLen;

use crate::mix64;

/// Deterministic default hasher: FNV-1a over the key's `Hash` bytes with a
/// mix64 finalizer. Stable across runs and processes (unlike
/// `RandomState`), which keeps benchmark bucket placement reproducible.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlockHashBuilder;

impl BuildHasher for FlockHashBuilder {
    type Hasher = FlockHasher;
    fn build_hasher(&self) -> FlockHasher {
        FlockHasher(0xCBF2_9CE4_8422_2325)
    }
}

/// Hasher produced by [`FlockHashBuilder`].
#[derive(Clone, Copy, Debug)]
pub struct FlockHasher(u64);

impl Hasher for FlockHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.0)
    }
}

struct Node<K: Key, V: Value> {
    next: Mutable<*mut Node<K, V>>,
    key: K,
    /// Lock-word-adjacent value slot: mutable in place under the bucket
    /// lock (native `update`), snapshot-readable without it.
    value: ValueSlot<V>,
}

struct Bucket<K: Key, V: Value> {
    lock: Lock,
    head: Mutable<*mut Node<K, V>>,
}

/// Fixed-capacity separate-chaining hash map.
pub struct HashTable<K: Key, V: Value, S = FlockHashBuilder> {
    buckets: Box<[Bucket<K, V>]>,
    mask: u64,
    hasher: S,
    /// Maintained element count backing `len_approx`.
    count: ApproxLen,
}

// SAFETY: mutation via per-bucket Flock locks + epoch reclamation; the
// hasher is only read.
unsafe impl<K: Key, V: Value, S: Send> Send for HashTable<K, V, S> {}
unsafe impl<K: Key, V: Value, S: Sync> Sync for HashTable<K, V, S> {}

impl<K: Key, V: Value> HashTable<K, V> {
    /// A table with at least `capacity` buckets (rounded up to a power of
    /// two) and the default deterministic hasher. Size it to the expected
    /// element count for O(1) chains.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_hasher(capacity, FlockHashBuilder)
    }
}

impl<K: Key, V: Value, S: BuildHasher + Send + Sync + 'static> HashTable<K, V, S> {
    /// A table with at least `capacity` buckets and a caller-supplied
    /// hash-function family (the hasher seam).
    pub fn with_capacity_and_hasher(capacity: usize, hasher: S) -> Self {
        let n = capacity.next_power_of_two().max(16);
        let buckets = (0..n)
            .map(|_| Bucket {
                lock: Lock::new(),
                head: Mutable::new(std::ptr::null_mut()),
            })
            .collect();
        Self {
            buckets,
            mask: (n - 1) as u64,
            hasher,
            count: ApproxLen::new(),
        }
    }

    #[inline]
    fn bucket(&self, k: &K) -> &Bucket<K, V> {
        &self.buckets[(self.hasher.hash_one(k) & self.mask) as usize]
    }

    /// Find `k` in the chain starting at `head`. Returns the node, if any.
    ///
    /// # Safety
    ///
    /// Caller must be epoch-pinned (or inside a thunk, where the loads are
    /// logged and the chain is protected by the bucket lock).
    unsafe fn chain_find(head: &Mutable<*mut Node<K, V>>, k: &K) -> *mut Node<K, V> {
        let mut p = head.load();
        while !p.is_null() {
            // SAFETY: epoch-pinned per contract.
            let n = unsafe { &*p };
            if n.key == *k {
                return p;
            }
            p = n.next.load();
        }
        std::ptr::null_mut()
    }

    /// Optimistic [`HashTable::chain_find`]: plain `Acquire` pointer loads,
    /// no thunk-log traffic. Only for bucket-lock version-validated read
    /// windows ([`flock_core::read_validated`]).
    ///
    /// # Safety
    ///
    /// Caller must be epoch-pinned and outside any thunk.
    unsafe fn chain_find_acquire(head: &Mutable<*mut Node<K, V>>, k: &K) -> *mut Node<K, V> {
        let mut p = head.load_acquire();
        while !p.is_null() {
            // SAFETY: epoch-pinned per contract.
            let n = unsafe { &*p };
            if n.key == *k {
                return p;
            }
            p = n.next.load_acquire();
        }
        std::ptr::null_mut()
    }

    /// Insert; `false` if present.
    pub fn insert(&self, k: K, v: V) -> bool {
        let b = self.bucket(&k);
        let added = crate::retry(|| {
            // Check outside the lock; also the loop's termination path when
            // the thunk observes the key under the lock.
            // SAFETY: pinned by `retry`.
            if !unsafe { Self::chain_find(&b.head, &k) }.is_null() {
                return ControlFlow::Break(false);
            }
            let head =
                Sp(&b.head as *const Mutable<*mut Node<K, V>> as *mut Mutable<*mut Node<K, V>>);
            let (k2, v2) = (k.clone(), v.clone());
            // `Some(false)`: the key appeared under the lock, re-check.
            ControlFlow::Continue(b.lock.try_lock(move || {
                // SAFETY: the bucket array lives as long as the table; every
                // runner of this thunk is epoch-protected.
                let head = unsafe { head.as_ref() };
                // Re-find under the lock: the chain is now stable.
                // SAFETY: under the bucket lock + epoch protection.
                if !unsafe { Self::chain_find(head, &k2) }.is_null() {
                    return false; // already present: retry loop re-checks
                }
                let old_head = head.load();
                let newn = flock_core::alloc(|| Node {
                    next: Mutable::new(old_head),
                    key: k2.clone(),
                    value: ValueSlot::new(v2.clone()),
                });
                head.store(newn);
                true
            }))
        });
        if added {
            self.count.inc();
        }
        added
    }

    /// Remove; `false` if absent.
    pub fn remove(&self, k: K) -> bool {
        let b = self.bucket(&k);
        let removed = crate::retry(|| {
            // SAFETY: pinned by `retry`.
            if unsafe { Self::chain_find(&b.head, &k) }.is_null() {
                return ControlFlow::Break(false);
            }
            let head =
                Sp(&b.head as *const Mutable<*mut Node<K, V>> as *mut Mutable<*mut Node<K, V>>);
            let k2 = k.clone();
            // `Some(false)`: the key vanished under the lock, re-check.
            ControlFlow::Continue(b.lock.try_lock(move || {
                // SAFETY: see insert.
                let head = unsafe { head.as_ref() };
                // Walk with the current "previous pointer cell" in hand so
                // the matching node can be spliced out.
                let mut prev_cell: &Mutable<*mut Node<K, V>> = head;
                let mut p = prev_cell.load();
                while !p.is_null() {
                    // SAFETY: under the bucket lock + epoch protection.
                    let n = unsafe { &*p };
                    if n.key == k2 {
                        prev_cell.store(n.next.load());
                        // SAFETY: unlinked above; idempotent retire.
                        unsafe { flock_core::retire(p) };
                        return true;
                    }
                    prev_cell = &n.next;
                    p = prev_cell.load();
                }
                false // vanished between check and lock: retry loop re-checks
            }))
        });
        if removed {
            self.count.dec();
        }
        removed
    }

    /// Native atomic update: replace the value stored under `k` in place,
    /// under the bucket lock — one idempotent slot store, no remove/insert
    /// composite, no absence window. Returns `false` (storing nothing) if
    /// `k` is absent.
    pub fn update(&self, k: K, v: V) -> bool {
        let b = self.bucket(&k);
        crate::retry(|| {
            // SAFETY: pinned by `retry`.
            if unsafe { Self::chain_find(&b.head, &k) }.is_null() {
                return ControlFlow::Break(false);
            }
            let head =
                Sp(&b.head as *const Mutable<*mut Node<K, V>> as *mut Mutable<*mut Node<K, V>>);
            let (k2, v2) = (k.clone(), v.clone());
            ControlFlow::Continue(b.lock.try_lock(move || {
                // SAFETY: see insert.
                let head = unsafe { head.as_ref() };
                // SAFETY: under the bucket lock + epoch protection.
                let p = unsafe { Self::chain_find(head, &k2) };
                if p.is_null() {
                    return false; // vanished between check and lock: re-check
                }
                // SAFETY: found under the lock; stable while we hold it.
                let n = unsafe { &*p };
                // In-thunk read-modify-write through the shared value-slot
                // primitive: the idempotent store keeps helpers agreeing on
                // one new encoding and retires the displaced one exactly
                // once (indirect values).
                n.value.set(v2.clone());
                true
            }))
        })
    }

    /// Wait-free lookup. Optimistic first: the chain walk and the value
    /// snapshot run under the bucket lock's version
    /// ([`flock_core::read_validated`]) with plain `Acquire` loads; a
    /// window in which a bucket critical section committed is discarded
    /// and, after the bounded retries, the committed-read path decides.
    pub fn get(&self, k: K) -> Option<V> {
        let _g = flock_epoch::pin();
        let b = self.bucket(&k);
        b.lock.read_validated(
            || {
                // SAFETY: pinned above; outside any thunk (the combinator
                // routes in-thunk callers to the fallback).
                let p = unsafe { Self::chain_find_acquire(&b.head, &k) };
                // SAFETY: non-null node found while pinned.
                (!p.is_null()).then(|| unsafe { &*p }.value.read_acquire())
            },
            || {
                // SAFETY: pinned above.
                let p = unsafe { Self::chain_find(&b.head, &k) };
                // SAFETY: non-null node found while pinned; the value slot
                // load snapshots under the same pin.
                (!p.is_null()).then(|| unsafe { &*p }.value.read())
            },
        )
    }

    /// Presence check that never materializes the value: the chain walk
    /// stops at key equality and the value slot is never decoded — routing
    /// through [`HashTable::get`] would clone a fat (`Indirect`) value just
    /// to drop it. Same optimistic/committed bracket as `get`.
    pub fn contains(&self, k: &K) -> bool {
        let _g = flock_epoch::pin();
        let b = self.bucket(k);
        b.lock.read_validated(
            // SAFETY: pinned above; outside any thunk (combinator contract).
            || !unsafe { Self::chain_find_acquire(&b.head, k) }.is_null(),
            // SAFETY: pinned above.
            || !unsafe { Self::chain_find(&b.head, k) }.is_null(),
        )
    }

    /// Buckets walked per epoch pin in [`HashTable::len`]: long enough to
    /// amortize the pin, short enough that reclamation is never stalled for
    /// the whole O(buckets + n) scan.
    const LEN_CHUNK_BUCKETS: usize = 64;

    /// Element count (O(buckets + n); tests/diagnostics).
    ///
    /// The walk is chunked: every 64 buckets (`LEN_CHUNK_BUCKETS`) the
    /// epoch pin is dropped and re-taken, so a concurrent writer's retired
    /// nodes can be reclaimed *during* the scan instead of piling up behind
    /// one scan-long reservation. The count stays what it always was — a
    /// racy snapshot summed bucket by bucket.
    pub fn len(&self) -> usize {
        self.len_chunked(|| {})
    }

    /// [`HashTable::len`] with a test observation hook: `between_chunks`
    /// runs after each chunk **while this thread holds no epoch pin**, which
    /// is what makes the periodic-repin behavior assertable via
    /// [`flock_epoch::epoch_stats`].
    fn len_chunked(&self, mut between_chunks: impl FnMut()) -> usize {
        let mut n = 0;
        for chunk in self.buckets.chunks(Self::LEN_CHUNK_BUCKETS) {
            {
                let _g = flock_epoch::pin();
                for b in chunk {
                    let mut p = b.head.load();
                    while !p.is_null() {
                        n += 1;
                        // SAFETY: pinned walk.
                        p = unsafe { &*p }.next.load();
                    }
                }
            }
            between_chunks();
        }
        n
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Key, V: Value, S> Drop for HashTable<K, V, S> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; retired nodes belong to the collector.
        unsafe {
            for b in self.buckets.iter() {
                let mut p = b.head.load();
                while !p.is_null() {
                    let next = (*p).next.load();
                    flock_epoch::free_now(p);
                    p = next;
                }
            }
        }
    }
}

impl<K: Key, V: Value, S: BuildHasher + Send + Sync + 'static> Map<K, V> for HashTable<K, V, S> {
    fn insert(&self, key: K, value: V) -> bool {
        HashTable::insert(self, key, value)
    }
    fn remove(&self, key: K) -> bool {
        HashTable::remove(self, key)
    }
    fn get(&self, key: K) -> Option<V> {
        HashTable::get(self, key)
    }
    fn contains(&self, key: K) -> bool {
        HashTable::contains(self, &key)
    }
    fn name(&self) -> &'static str {
        "hashtable"
    }
    fn update(&self, key: K, value: V) -> bool {
        HashTable::update(self, key, value)
    }
    fn has_atomic_update(&self) -> bool {
        true
    }
    fn len_approx(&self) -> Option<usize> {
        Some(self.count.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_api::testing as testutil;

    #[test]
    fn basic_ops() {
        testutil::both_modes(|| {
            let h: HashTable<u64, u64> = HashTable::with_capacity(64);
            assert!(h.insert(1, 10));
            assert!(!h.insert(1, 11));
            assert_eq!(h.get(1), Some(10));
            assert!(h.remove(1));
            assert!(!h.remove(1));
            assert_eq!(h.get(1), None);
        });
    }

    #[test]
    fn colliding_keys_share_chain() {
        testutil::both_modes(|| {
            // Tiny table forces collisions.
            let h: HashTable<u64, u64> = HashTable::with_capacity(1);
            for k in 0..64 {
                assert!(h.insert(k, k * 10));
            }
            assert_eq!(h.len(), 64);
            for k in 0..64 {
                assert_eq!(h.get(k), Some(k * 10));
            }
            for k in (0..64).step_by(2) {
                assert!(h.remove(k));
            }
            assert_eq!(h.len(), 32);
            for k in 0..64 {
                assert_eq!(h.get(k), (k % 2 == 1).then_some(k * 10));
            }
        });
    }

    #[test]
    fn native_update_in_place() {
        testutil::both_modes(|| {
            let h: HashTable<u64, u64> = HashTable::with_capacity(16);
            assert!(!h.update(1, 10), "update of an absent key refused");
            assert!(h.insert(1, 10));
            assert!(h.update(1, 11));
            assert_eq!(h.get(1), Some(11));
            assert_eq!(h.len(), 1, "update must not change the count");
            assert!(h.remove(1));
            assert!(!h.update(1, 12));
        });
    }

    #[test]
    fn native_update_fat_values() {
        testutil::both_modes(|| {
            use flock_core::Indirect;
            let h: HashTable<u64, Indirect<Vec<u64>>> = HashTable::with_capacity(16);
            assert!(h.insert(1, Indirect(vec![1, 2, 3])));
            assert!(h.update(1, Indirect(vec![4, 5, 6, 7])));
            assert_eq!(h.get(1), Some(Indirect(vec![4, 5, 6, 7])));
            assert!(h.remove(1));
            drop(h);
            flock_epoch::flush_all();
        });
    }

    #[test]
    fn custom_hasher_seam() {
        testutil::exclusive(|| {
            // A pathological single-bucket hasher still yields a correct
            // (if slow) table: everything collides into one chain.
            #[derive(Clone, Default)]
            struct OneBucket;
            impl std::hash::BuildHasher for OneBucket {
                type Hasher = Constant;
                fn build_hasher(&self) -> Constant {
                    Constant
                }
            }
            struct Constant;
            impl std::hash::Hasher for Constant {
                fn write(&mut self, _bytes: &[u8]) {}
                fn finish(&self) -> u64 {
                    0
                }
            }
            let h: HashTable<u64, u64, OneBucket> =
                HashTable::with_capacity_and_hasher(64, OneBucket);
            for k in 0..32 {
                assert!(h.insert(k, k + 1));
            }
            for k in 0..32 {
                assert_eq!(h.get(k), Some(k + 1));
            }
            assert_eq!(h.len(), 32);
        });
    }

    /// Satellite regression: `len` used to hold one epoch pin across the
    /// whole O(buckets + n) walk, stalling reclamation for its duration.
    /// The chunked walk provably drops the pin between chunks (thread-local
    /// `pinned_epoch` observation — immune to other test threads' pins) and
    /// lets the collector free garbage retired mid-scan *before* `len`
    /// returns.
    #[test]
    fn len_repins_between_chunks() {
        testutil::exclusive(|| {
            // 512 buckets → 8 chunk boundaries at 64 buckets/chunk.
            let h: HashTable<u64, u64> = HashTable::with_capacity(512);
            for k in 0..256 {
                assert!(h.insert(k, k));
            }
            let freed_before = flock_epoch::collector_stats().freed;
            let boundaries = std::cell::Cell::new(0usize);
            let freed_mid_walk = std::cell::Cell::new(false);
            let n = h.len_chunked(|| {
                boundaries.set(boundaries.get() + 1);
                assert_eq!(
                    flock_epoch::pinned_epoch(),
                    None,
                    "len still holds its epoch pin at a chunk boundary"
                );
                // Feed the collector at the first boundary, then let it run:
                // the freed counter moving while the walk is still in
                // progress is the observable improvement.
                if boundaries.get() == 1 {
                    let garbage = flock_epoch::alloc(0u64);
                    // SAFETY: fresh private allocation, never shared.
                    unsafe { flock_epoch::retire_orphan(garbage) };
                }
                flock_epoch::try_advance();
                flock_epoch::flush_all();
                freed_mid_walk.set(
                    freed_mid_walk.get() | (flock_epoch::collector_stats().freed > freed_before),
                );
            });
            assert_eq!(n, 256);
            assert!(
                boundaries.get() >= 8,
                "expected ≥ 8 chunk boundaries, saw {}",
                boundaries.get()
            );
            assert!(
                freed_mid_walk.get(),
                "reclamation made no progress while len was walking"
            );
        });
    }

    /// `contains` never decodes the value slot (presence-only read path).
    #[test]
    fn contains_presence_only() {
        testutil::both_modes(|| {
            let h: HashTable<u64, u64> = HashTable::with_capacity(16);
            assert!(!h.contains(&1));
            assert!(h.insert(1, 10));
            assert!(h.contains(&1));
            assert!(h.remove(1));
            assert!(!h.contains(&1));
        });
    }

    #[test]
    fn oracle() {
        testutil::both_modes(|| {
            let h: HashTable<u64, u64> = HashTable::with_capacity(32);
            testutil::oracle_check(&h, 3_000, 128, 99);
        });
    }

    #[test]
    fn concurrent_partitioned() {
        testutil::both_modes(|| {
            let h: HashTable<u64, u64> = HashTable::with_capacity(512);
            testutil::partition_stress(&h, 4, 1_500);
        });
    }
}
