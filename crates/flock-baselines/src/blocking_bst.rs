//! Bronson-style *blocking* optimistic internal BST with per-node spin
//! locks — the blocking strict-lock comparator class of the paper's
//! Figure 5 (`bronson`, `drachsler`). Generic over `(K, V)`.
//!
//! Internal (node-holds-key) BST with logical deletion: a node with two
//! children is deleted by clearing its `has_value` flag (it remains as a
//! routing node); nodes with at most one child are spliced out under
//! parent + node locks. Traversals take no locks; updates lock a small
//! neighborhood and validate.
//!
//! Values live in a **raw `ValueRepr` slot** (one atomic word of encoded
//! payload bits): an internal BST *revives* a routing node in place when
//! its key is re-inserted, and readers read the value without the node's
//! lock — so the value must be a single atomic word. Inline values are
//! stored as their own bits (note: like every 48-bit slot in this
//! workspace, u64 values must fit 48 bits); fat `Indirect<T>` values are
//! stored as an epoch-managed pointer, and a revive retires the displaced
//! encoding so concurrent readers keep a stable snapshot.
//!
//! Divergence from the original: no AVL rebalancing — the locking
//! discipline and optimistic validation match Bronson's practical
//! concurrent BST, but the shape is that of a randomized BST. Under the
//! evaluation's random keys the expected depth is `O(log n)`, so the
//! qualitative comparisons carry over; the absolute advantage Bronson's
//! balance gives on 100M-key trees does not.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use flock_sync::{ApproxLen, TtasLock};

use flock_api::{Key, Map, Value};

struct Node<K, V: Value> {
    /// `None` only on the root sentinel.
    key: Option<K>,
    /// Encoded `ValueRepr` payload bits of the current value. Meaningful
    /// only while `has_value` is true, but the encoding stays live (and is
    /// freed at node drop) even while logically deleted.
    value_bits: AtomicU64,
    /// False = routing node (logically deleted).
    has_value: AtomicBool,
    /// True once spliced out of the tree.
    removed: AtomicBool,
    left: AtomicUsize,
    right: AtomicUsize,
    lock: TtasLock,
    _v: std::marker::PhantomData<V>,
}

impl<K: Key, V: Value> Node<K, V> {
    fn new(key: Option<K>, value: V) -> Self {
        Self {
            key,
            value_bits: AtomicU64::new(V::encode(value)),
            has_value: AtomicBool::new(true),
            removed: AtomicBool::new(false),
            left: AtomicUsize::new(0),
            right: AtomicUsize::new(0),
            lock: TtasLock::new(),
            _v: std::marker::PhantomData,
        }
    }

    #[inline]
    fn child(&self, k: &K) -> &AtomicUsize {
        if self.key.as_ref().is_some_and(|x| k < x) {
            &self.left
        } else {
            &self.right
        }
    }

    /// Snapshot-decode the current value. Caller must be epoch-pinned.
    #[inline]
    fn value(&self) -> V {
        // SAFETY: `value_bits` always holds a live encoding — revives
        // retire the displaced one through the collector, and the final one
        // is freed only at node drop (post-grace for retired nodes); the
        // caller is pinned.
        unsafe { V::decode(self.value_bits.load(Ordering::SeqCst)) }
    }

    /// Replace the value under this node's lock, retiring the displaced
    /// encoding. Caller must hold `self.lock` and be epoch-pinned.
    #[inline]
    fn replace_value(&self, v: V) {
        let old = self.value_bits.swap(V::encode(v), Ordering::SeqCst);
        // SAFETY: `old` was displaced by the swap above, under the node
        // lock (no competing writer), and the caller is pinned; readers
        // that still decode it are protected by the grace period.
        unsafe { V::retire_bits(old) };
    }
}

impl<K, V: Value> Drop for Node<K, V> {
    fn drop(&mut self) {
        // The root sentinel (the only keyless node) carries no encoding —
        // its slot holds `SENTINEL_BITS`, which must not reach the repr's
        // dealloc hook.
        if self.key.is_some() {
            // SAFETY: exclusive access (drop); the final encoding is freed
            // exactly once. For nodes that went through the collector this
            // runs after the grace period.
            unsafe { V::dealloc_bits(self.value_bits.load(Ordering::Relaxed)) };
        }
    }
}

/// Blocking optimistic internal BST map.
pub struct BlockingBst<K: Key, V: Value> {
    /// Maintained element count backing `len_approx`.
    len: ApproxLen,
    /// Sentinel root; real tree hangs off `left` (sentinel key is +inf in
    /// spirit: every key routes left).
    root: *mut Node<K, V>,
}

// SAFETY: per-node spin locks for mutation; epoch reclamation.
unsafe impl<K: Key, V: Value> Send for BlockingBst<K, V> {}
unsafe impl<K: Key, V: Value> Sync for BlockingBst<K, V> {}

impl<K: Key, V: Value> Default for BlockingBst<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Value> BlockingBst<K, V> {
    /// An empty tree.
    pub fn new() -> Self {
        // The sentinel's value slot is never read (its key is `None`, so no
        // lookup ever matches it) and holds no encoding — `Node::drop`
        // skips the keyless sentinel.
        let root = flock_epoch::alloc(Node {
            key: None,
            value_bits: AtomicU64::new(SENTINEL_BITS),
            has_value: AtomicBool::new(false),
            removed: AtomicBool::new(false),
            left: AtomicUsize::new(0),
            right: AtomicUsize::new(0),
            lock: TtasLock::new(),
            _v: std::marker::PhantomData,
        });
        Self {
            root,
            len: ApproxLen::new(),
        }
    }

    /// Unlocked descent to the node with `k` (or its would-be parent).
    /// Returns `(parent, node_or_null)`.
    fn search(&self, k: &K) -> (*mut Node<K, V>, *mut Node<K, V>) {
        let mut parent = self.root;
        // SAFETY: caller pinned; nodes epoch-reclaimed. The sentinel routes
        // everything left (its key is None).
        let mut cur = unsafe { &*parent }.left.load(Ordering::SeqCst) as *mut Node<K, V>;
        while !cur.is_null() {
            // SAFETY: pinned.
            let c = unsafe { &*cur };
            if c.key.as_ref() == Some(k) {
                return (parent, cur);
            }
            parent = cur;
            cur = c.child(k).load(Ordering::SeqCst) as *mut Node<K, V>;
        }
        (parent, std::ptr::null_mut())
    }

    /// Insert; `false` if present.
    pub fn insert(&self, k: K, v: V) -> bool {
        let ok = self.insert_impl(k, v);
        if ok {
            self.len.inc();
        }
        ok
    }

    fn insert_impl(&self, k: K, v: V) -> bool {
        let _g = flock_epoch::pin();
        loop {
            let (parent, node) = self.search(&k);
            if !node.is_null() {
                // SAFETY: pinned.
                let n = unsafe { &*node };
                // Key node exists: revive it if it is a routing node.
                n.lock.acquire();
                let ok = if n.removed.load(Ordering::SeqCst) {
                    None // restart: spliced while we looked
                } else if n.has_value.load(Ordering::SeqCst) {
                    Some(false)
                } else {
                    n.replace_value(v.clone());
                    n.has_value.store(true, Ordering::SeqCst);
                    Some(true)
                };
                n.lock.release();
                if let Some(r) = ok {
                    return r;
                }
                continue;
            }
            // SAFETY: pinned.
            let p = unsafe { &*parent };
            p.lock.acquire();
            let cell = if parent == self.root {
                &p.left // sentinel routes everything left
            } else {
                p.child(&k)
            };
            let ok = if p.removed.load(Ordering::SeqCst) || cell.load(Ordering::SeqCst) != 0 {
                false // validate: parent gone or slot taken
            } else {
                let newn = flock_epoch::alloc(Node::new(Some(k.clone()), v.clone()));
                cell.store(newn as usize, Ordering::SeqCst);
                true
            };
            p.lock.release();
            if ok {
                return true;
            }
        }
    }

    /// Remove; `false` if absent.
    pub fn remove(&self, k: K) -> bool {
        let ok = self.remove_impl(&k);
        if ok {
            self.len.dec();
        }
        ok
    }

    fn remove_impl(&self, k: &K) -> bool {
        let _g = flock_epoch::pin();
        loop {
            let (parent, node) = self.search(k);
            if node.is_null() {
                return false;
            }
            // SAFETY: pinned.
            let p = unsafe { &*parent };
            let n = unsafe { &*node };
            p.lock.acquire();
            n.lock.acquire();
            enum Out {
                Done(bool),
                Retry,
            }
            let cell = if parent == self.root {
                &p.left
            } else {
                p.child(k)
            };
            let out = if p.removed.load(Ordering::SeqCst)
                || n.removed.load(Ordering::SeqCst)
                || cell.load(Ordering::SeqCst) != node as usize
            {
                Out::Retry
            } else if !n.has_value.load(Ordering::SeqCst) {
                Out::Done(false) // routing node: key logically absent
            } else {
                let l = n.left.load(Ordering::SeqCst);
                let r = n.right.load(Ordering::SeqCst);
                if l != 0 && r != 0 {
                    // Two children: logical delete; node stays for routing.
                    n.has_value.store(false, Ordering::SeqCst);
                } else {
                    // At most one child: splice out physically.
                    n.removed.store(true, Ordering::SeqCst);
                    cell.store(if l != 0 { l } else { r }, Ordering::SeqCst);
                    // SAFETY: unlinked above under both locks; unique retire.
                    unsafe { flock_epoch::retire(node) };
                }
                Out::Done(true)
            };
            n.lock.release();
            p.lock.release();
            match out {
                Out::Done(r) => return r,
                Out::Retry => continue,
            }
        }
    }

    /// Native atomic update: replace the value in place under the node's
    /// lock (the same slot-swap the revive path uses). Returns `false`
    /// (storing nothing) if `k` is absent. Readers snapshot the value word
    /// without the lock, so they see the old value or the new one — never
    /// absence.
    pub fn update(&self, k: K, v: V) -> bool {
        let _g = flock_epoch::pin();
        loop {
            let (_, node) = self.search(&k);
            if node.is_null() {
                return false;
            }
            // SAFETY: pinned.
            let n = unsafe { &*node };
            n.lock.acquire();
            let out = if n.removed.load(Ordering::SeqCst) {
                None // spliced while we looked: restart
            } else if n.has_value.load(Ordering::SeqCst) {
                n.replace_value(v.clone());
                Some(true)
            } else {
                Some(false) // routing node: key logically absent
            };
            n.lock.release();
            if let Some(r) = out {
                return r;
            }
        }
    }

    /// Wait-free lookup.
    pub fn get(&self, k: K) -> Option<V> {
        let _g = flock_epoch::pin();
        let (_, node) = self.search(&k);
        if node.is_null() {
            return None;
        }
        // SAFETY: pinned.
        let n = unsafe { &*node };
        (n.has_value.load(Ordering::SeqCst) && !n.removed.load(Ordering::SeqCst)).then(|| n.value())
    }

    /// Presence-only lookup: the same search as [`BlockingBst::get`]
    /// without decoding the value word.
    pub fn contains(&self, k: &K) -> bool {
        let _g = flock_epoch::pin();
        let (_, node) = self.search(k);
        if node.is_null() {
            return false;
        }
        // SAFETY: pinned.
        let n = unsafe { &*node };
        n.has_value.load(Ordering::SeqCst) && !n.removed.load(Ordering::SeqCst)
    }

    /// Element count (live keys; O(n)).
    pub fn len(&self) -> usize {
        let _g = flock_epoch::pin();
        // SAFETY: pinned walk.
        unsafe { Self::count((*self.root).left.load(Ordering::SeqCst) as *mut Node<K, V>) }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    unsafe fn count(n: *mut Node<K, V>) -> usize {
        if n.is_null() {
            return 0;
        }
        // SAFETY: pinned per caller.
        let node = unsafe { &*n };
        node.has_value.load(Ordering::SeqCst) as usize
            + unsafe {
                Self::count(node.left.load(Ordering::SeqCst) as *mut Node<K, V>)
                    + Self::count(node.right.load(Ordering::SeqCst) as *mut Node<K, V>)
            }
    }
}

/// Placeholder bits in the sentinel's never-read, never-freed value slot.
const SENTINEL_BITS: u64 = 0;

impl<K: Key, V: Value> Drop for BlockingBst<K, V> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; spliced nodes belong to the collector.
        unsafe fn free<K: Key, V: Value>(n: *mut Node<K, V>) {
            if n.is_null() {
                return;
            }
            // SAFETY: exclusive teardown.
            unsafe {
                free::<K, V>((*n).left.load(Ordering::SeqCst) as *mut Node<K, V>);
                free::<K, V>((*n).right.load(Ordering::SeqCst) as *mut Node<K, V>);
                flock_epoch::free_now(n);
            }
        }
        // SAFETY: exclusive access.
        unsafe { free::<K, V>(self.root) };
    }
}

impl<K: Key, V: Value> Map<K, V> for BlockingBst<K, V> {
    fn insert(&self, key: K, value: V) -> bool {
        BlockingBst::insert(self, key, value)
    }
    fn remove(&self, key: K) -> bool {
        BlockingBst::remove(self, key)
    }
    fn get(&self, key: K) -> Option<V> {
        BlockingBst::get(self, key)
    }
    fn contains(&self, key: K) -> bool {
        BlockingBst::contains(self, &key)
    }
    fn name(&self) -> &'static str {
        "bronson_style_bst"
    }
    fn update(&self, key: K, value: V) -> bool {
        BlockingBst::update(self, key, value)
    }
    fn has_atomic_update(&self) -> bool {
        true
    }
    fn len_approx(&self) -> Option<usize> {
        Some(self.len.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_api::testing as testutil;

    #[test]
    fn basic_ops() {
        let t: BlockingBst<u64, u64> = BlockingBst::new();
        assert!(t.insert(5, 50));
        assert!(!t.insert(5, 51));
        assert!(t.insert(3, 30));
        assert!(t.insert(8, 80));
        assert_eq!(t.get(5), Some(50));
        assert!(t.remove(5)); // two children: logical delete
        assert_eq!(t.get(5), None);
        assert!(t.insert(5, 55)); // revival of the routing node
        assert_eq!(t.get(5), Some(55));
        assert!(t.remove(3)); // leaf: physical splice
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn revive_with_fat_values_reclaims_displaced_encoding() {
        testutil::exclusive(|| {
            use flock_epoch::Indirect;
            let t: BlockingBst<u64, Indirect<Vec<u64>>> = BlockingBst::new();
            assert!(t.insert(5, Indirect(vec![5; 8])));
            assert!(t.insert(3, Indirect(vec![3; 8])));
            assert!(t.insert(8, Indirect(vec![8; 8])));
            assert!(t.remove(5)); // logical delete (two children)
            assert!(t.insert(5, Indirect(vec![55; 8]))); // revive: swaps encodings
            assert_eq!(t.get(5), Some(Indirect(vec![55; 8])));
            drop(t);
            flock_epoch::flush_all();
        });
    }

    #[test]
    fn oracle() {
        let t: BlockingBst<u64, u64> = BlockingBst::new();
        testutil::oracle_check(&t, 4_000, 256, 41);
    }

    #[test]
    fn concurrent_partitioned() {
        let t: BlockingBst<u64, u64> = BlockingBst::new();
        testutil::partition_stress(&t, 4, 1_500);
    }
}
