//! Natarajan–Mittal-style lock-free external BST (edge flagging/tagging).
//! Generic over `(K, V)`.
//!
//! Follows the design of "Fast Concurrent Lock-Free Binary Search Trees"
//! (PPoPP 2014): an external BST where *edges* (child pointers) carry two
//! low bits —
//!
//! * **FLAG**: set on the edge to a leaf whose deletion has been *injected*
//!   (the delete's linearization point);
//! * **TAG**: set on the sibling edge to freeze it while the leaf's parent
//!   is spliced out, so a racing insert below the sibling cannot be lost.
//!
//! One deviation from the original: traversals help *eagerly* —
//! a search that steps over a flagged or tagged edge first completes that
//! pending deletion and restarts. This keeps the tag chains of the original
//! at length one, which makes memory reclamation exact (the thread whose
//! CAS detaches a parent retires exactly that parent and its flagged leaf)
//! while preserving lock-freedom: every failed step completes someone's
//! operation.

use std::sync::atomic::{AtomicUsize, Ordering};

use flock_sync::ApproxLen;

use flock_api::{Key, Map, Value};

use crate::value_cell::ValueCell;

const FLAG: usize = 1;
const TAG: usize = 2;
const BITS: usize = FLAG | TAG;

#[inline]
fn ptr_of<K, V: Value>(w: usize) -> *mut Node<K, V> {
    (w & !BITS) as *mut Node<K, V>
}

#[inline]
fn flagged(w: usize) -> bool {
    w & FLAG != 0
}

#[inline]
fn tagged(w: usize) -> bool {
    w & TAG != 0
}

/// Key classes order sentinels above every finite key:
/// `Finite(_) < Inf0 < Inf1 < Inf2` (derived `Ord`, declaration order).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum KeyClass<K> {
    Finite(K),
    Inf0,
    Inf1,
    Inf2,
}

struct Node<K, V: Value> {
    key: KeyClass<K>,
    /// Atomic value cell (`None` on sentinel leaves and internals): swap-
    /// replaced in place by the native `update`, snapshot-read by `get`.
    value: Option<ValueCell<V>>,
    /// Child edges (internals only).
    left: AtomicUsize,
    right: AtomicUsize,
    is_leaf: bool,
}

impl<K: Key, V: Value> Node<K, V> {
    fn leaf(key: KeyClass<K>, value: Option<V>) -> Self {
        Self {
            key,
            value: value.map(ValueCell::new),
            left: AtomicUsize::new(0),
            right: AtomicUsize::new(0),
            is_leaf: true,
        }
    }

    fn internal(key: KeyClass<K>, left: *mut Node<K, V>, right: *mut Node<K, V>) -> Self {
        Self {
            key,
            value: None,
            left: AtomicUsize::new(left as usize),
            right: AtomicUsize::new(right as usize),
            is_leaf: false,
        }
    }

    /// The edge to follow for `k`, and its sibling.
    #[inline]
    fn edges_for(&self, k: &KeyClass<K>) -> (&AtomicUsize, &AtomicUsize) {
        if k < &self.key {
            (&self.left, &self.right)
        } else {
            (&self.right, &self.left)
        }
    }
}

/// Lock-free external BST map (Natarajan–Mittal style).
pub struct NatarajanBst<K: Key, V: Value> {
    /// Maintained element count backing `len_approx`.
    len: ApproxLen,
    /// Root sentinel structure: R(INF2) → { S(INF1) → {leaf INF0, leaf INF1},
    /// leaf INF2 }. All finite keys live under S.
    root: *mut Node<K, V>,
}

// SAFETY: CAS-based mutation; epoch reclamation.
unsafe impl<K: Key, V: Value> Send for NatarajanBst<K, V> {}
unsafe impl<K: Key, V: Value> Sync for NatarajanBst<K, V> {}

impl<K: Key, V: Value> Default for NatarajanBst<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of a descent: the last two internals and the leaf, plus the edge
/// word through which the leaf was reached.
struct Seek<K, V: Value> {
    gparent: *mut Node<K, V>,
    parent: *mut Node<K, V>,
    leaf: *mut Node<K, V>,
    leaf_edge_word: usize,
}

impl<K: Key, V: Value> NatarajanBst<K, V> {
    /// An empty tree.
    pub fn new() -> Self {
        let l0 = flock_epoch::alloc(Node::leaf(KeyClass::Inf0, None));
        let l1 = flock_epoch::alloc(Node::leaf(KeyClass::Inf1, None));
        let l2 = flock_epoch::alloc(Node::leaf(KeyClass::Inf2, None));
        let s = flock_epoch::alloc(Node::internal(KeyClass::Inf1, l0, l1));
        let r = flock_epoch::alloc(Node::internal(KeyClass::Inf2, s, l2));
        Self {
            root: r,
            len: ApproxLen::new(),
        }
    }

    /// Complete a pending deletion: `parent`'s `victim_side` edge is flagged
    /// (a leaf is being deleted). Freeze the sibling edge, switch
    /// `gparent`'s edge from `parent` to the sibling, and retire the
    /// detached pair if we won.
    ///
    /// `gp_edge` is the edge of `gparent` that currently points (cleanly) to
    /// `parent`.
    fn help_delete(
        &self,
        gp_edge: &AtomicUsize,
        parent: *mut Node<K, V>,
        victim_is_left: bool,
    ) -> bool {
        // SAFETY: caller pinned; parent reached through a live edge.
        let p = unsafe { &*parent };
        let (victim_edge, sibling_edge) = if victim_is_left {
            (&p.left, &p.right)
        } else {
            (&p.right, &p.left)
        };
        let vw = victim_edge.load(Ordering::SeqCst);
        if !flagged(vw) {
            return false; // stale request
        }
        // Freeze the sibling edge so a concurrent insert below it either
        // lands before the splice or fails.
        let sw = sibling_edge.fetch_or(TAG, Ordering::SeqCst) | TAG;
        // Splice: gparent's edge switches from (parent, clean) to the
        // sibling pointer, dropping TAG but preserving the sibling's FLAG.
        let new_word = sw & !TAG;
        if gp_edge
            .compare_exchange(
                parent as usize,
                new_word,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
        {
            // We detached parent and the flagged leaf: unique owner.
            // SAFETY: both unreachable now; retired once by the CAS winner.
            unsafe {
                flock_epoch::retire(parent);
                flock_epoch::retire(ptr_of::<K, V>(vw));
            }
            true
        } else {
            false
        }
    }

    /// Descend to the leaf for `k`, eagerly helping any flagged or tagged
    /// edge encountered (then restarting).
    fn seek(&self, k: &KeyClass<K>) -> Seek<K, V> {
        'restart: loop {
            let mut gparent = std::ptr::null_mut();
            let mut parent = self.root;
            // Edge of `gparent` that points to `parent` (none for root).
            let mut parent_edge: Option<&AtomicUsize> = None;
            loop {
                // SAFETY: pinned descent; nodes epoch-reclaimed.
                let p = unsafe { &*parent };
                let (edge, _) = p.edges_for(k);
                let w = edge.load(Ordering::SeqCst);
                let child = ptr_of::<K, V>(w);
                // SAFETY: as above.
                let c = unsafe { &*child };
                if c.is_leaf {
                    if (flagged(w) || tagged(w))
                        && let Some(pe) = parent_edge
                    {
                        // A deletion is pending right here; finish it first
                        // unless we are at the root sentinel level. If this
                        // edge is flagged, its leaf is the victim; if only
                        // tagged, the victim is on the other side.
                        let vil = if flagged(w) {
                            std::ptr::eq(edge, &p.left)
                        } else {
                            !std::ptr::eq(edge, &p.left)
                        };
                        self.help_delete(pe, parent, vil);
                        continue 'restart;
                    }
                    return Seek {
                        gparent,
                        parent,
                        leaf: child,
                        leaf_edge_word: w,
                    };
                }
                // Internal child: a tagged edge to an internal node means
                // `parent` is mid-splice — help and restart.
                if tagged(w)
                    && let Some(pe) = parent_edge
                {
                    let vil = !std::ptr::eq(edge, &p.left);
                    self.help_delete(pe, parent, vil);
                    continue 'restart;
                }
                gparent = parent;
                parent = child;
                parent_edge = Some(edge);
            }
        }
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
        let kc = KeyClass::Finite(k);
        let _g = flock_epoch::pin();
        loop {
            let s = self.seek(&kc);
            // SAFETY: pinned.
            let leaf = unsafe { &*s.leaf };
            if leaf.key == kc {
                return false;
            }
            // SAFETY: pinned.
            let p = unsafe { &*s.parent };
            let (edge, _) = p.edges_for(&kc);
            if flagged(s.leaf_edge_word) || tagged(s.leaf_edge_word) {
                continue; // seek will help next round
            }
            // Build internal(two leaves) routing on the larger key.
            let leaf_key = leaf.key.clone();
            let new_leaf = flock_epoch::alloc(Node::leaf(kc.clone(), Some(v.clone())));
            let new_internal = if kc < leaf_key {
                flock_epoch::alloc(Node::internal(leaf_key, new_leaf, s.leaf))
            } else {
                flock_epoch::alloc(Node::internal(kc.clone(), s.leaf, new_leaf))
            };
            if edge
                .compare_exchange(
                    s.leaf as usize,
                    new_internal as usize,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                return true;
            }
            // SAFETY: never published.
            unsafe {
                flock_epoch::free_now(new_internal);
                flock_epoch::free_now(new_leaf);
            }
        }
    }

    /// Remove; `false` if absent. Linearizes at the FLAG injection.
    pub fn remove(&self, k: K) -> bool {
        let ok = self.remove_impl(k);
        if ok {
            self.len.dec();
        }
        ok
    }

    fn remove_impl(&self, k: K) -> bool {
        let kc = KeyClass::Finite(k);
        let _g = flock_epoch::pin();
        loop {
            let s = self.seek(&kc);
            // SAFETY: pinned.
            let leaf = unsafe { &*s.leaf };
            if leaf.key != kc {
                return false;
            }
            // SAFETY: pinned.
            let p = unsafe { &*s.parent };
            let (edge, _) = p.edges_for(&kc);
            // Injection: flag the edge to the victim leaf.
            if edge
                .compare_exchange(
                    s.leaf as usize,
                    s.leaf as usize | FLAG,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                // Cleanup: splice parent + leaf out under the grandparent.
                if !s.gparent.is_null() {
                    // SAFETY: pinned.
                    let g = unsafe { &*s.gparent };
                    let (gp_edge, _) = g.edges_for(&kc);
                    let vil = std::ptr::eq(edge, &p.left);
                    if !self.help_delete(gp_edge, s.parent, vil) {
                        // Someone else finished the splice for us (or the
                        // neighborhood changed); a later seek cleans up.
                        // Drive it to completion so the flag never blocks.
                        loop {
                            let s2 = self.seek(&kc);
                            if s2.leaf != s.leaf {
                                break;
                            }
                        }
                    }
                }
                return true;
            }
            // Injection failed: either the leaf is being deleted by someone
            // else (flag), frozen (tag), or replaced. Re-seek and retry;
            // seek helps pending deletions.
        }
    }

    /// Read-only descent to the leaf covering `kc`: `(leaf, edge_word)`,
    /// where the edge word carries the deletion flag. Caller must be
    /// pinned. Shared by `get` and `update` so the FLAG semantics of the
    /// two can never diverge.
    fn descend(&self, kc: &KeyClass<K>) -> (*mut Node<K, V>, usize) {
        let mut cur = self.root;
        loop {
            // SAFETY: pinned descent per caller.
            let n = unsafe { &*cur };
            let (edge, _) = n.edges_for(kc);
            let w = edge.load(Ordering::SeqCst);
            let child = ptr_of::<K, V>(w);
            // SAFETY: pinned.
            if unsafe { &*child }.is_leaf {
                return (child, w);
            }
            cur = child;
        }
    }

    /// Lookup; absent if the leaf's edge carries a deletion flag.
    pub fn get(&self, k: K) -> Option<V> {
        let kc = KeyClass::Finite(k);
        let _g = flock_epoch::pin();
        let (leaf, w) = self.descend(&kc);
        // SAFETY: pinned.
        let c = unsafe { &*leaf };
        if c.key == kc && !flagged(w) {
            c.value.as_ref().map(ValueCell::load)
        } else {
            None
        }
    }

    /// Presence-only lookup: the same descent as [`NatarajanBst::get`]
    /// without decoding the value cell.
    pub fn contains(&self, k: K) -> bool {
        let kc = KeyClass::Finite(k);
        let _g = flock_epoch::pin();
        let (leaf, w) = self.descend(&kc);
        // SAFETY: pinned.
        unsafe { &*leaf }.key == kc && !flagged(w)
    }

    /// Native atomic update: one atomic swap of the leaf's value cell.
    /// Returns `false` (storing nothing) if `k` is absent.
    ///
    /// A key's leaf node is pointer-stable for the key's lifetime (inserts
    /// reuse the existing leaf when building the new internal), so the swap
    /// hits the one cell every reader of this key decodes. Linearizes at
    /// the swap when the leaf's edge is still unflagged there, and
    /// immediately before the concurrent remove's flag otherwise (the value
    /// written into an already-flagged leaf is unobservable, matching
    /// update-then-remove).
    pub fn update(&self, k: K, v: V) -> bool {
        let kc = KeyClass::Finite(k);
        let _g = flock_epoch::pin();
        let (leaf, w) = self.descend(&kc);
        // SAFETY: pinned.
        let c = unsafe { &*leaf };
        if c.key == kc && !flagged(w) {
            c.value
                .as_ref()
                .expect("finite-key leaf has a value cell")
                .replace(v);
            true
        } else {
            false
        }
    }

    /// Element count (O(n); tests/diagnostics).
    pub fn len(&self) -> usize {
        let _g = flock_epoch::pin();
        // SAFETY: pinned walk.
        unsafe { Self::count(self.root) }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    unsafe fn count(n: *mut Node<K, V>) -> usize {
        // SAFETY: pinned per caller.
        let node = unsafe { &*n };
        if node.is_leaf {
            return matches!(node.key, KeyClass::Finite(_)) as usize;
        }
        let lw = node.left.load(Ordering::SeqCst);
        let rw = node.right.load(Ordering::SeqCst);
        let mut total = 0;
        if !flagged(lw) {
            total += unsafe { Self::count(ptr_of::<K, V>(lw)) };
        }
        if !flagged(rw) {
            total += unsafe { Self::count(ptr_of::<K, V>(rw)) };
        }
        total
    }
}

impl<K: Key, V: Value> Drop for NatarajanBst<K, V> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; flagged leaves still linked are freed
        // here exactly once; already-detached nodes belong to the collector.
        unsafe fn free<K: Key, V: Value>(n: *mut Node<K, V>) {
            // SAFETY: exclusive teardown.
            unsafe {
                if !(*n).is_leaf {
                    free(ptr_of::<K, V>((*n).left.load(Ordering::SeqCst)));
                    free(ptr_of::<K, V>((*n).right.load(Ordering::SeqCst)));
                }
                flock_epoch::free_now(n);
            }
        }
        // SAFETY: exclusive access.
        unsafe { free(self.root) };
    }
}

impl<K: Key, V: Value> Map<K, V> for NatarajanBst<K, V> {
    fn insert(&self, key: K, value: V) -> bool {
        NatarajanBst::insert(self, key, value)
    }
    fn remove(&self, key: K) -> bool {
        NatarajanBst::remove(self, key)
    }
    fn get(&self, key: K) -> Option<V> {
        NatarajanBst::get(self, key)
    }
    fn contains(&self, key: K) -> bool {
        NatarajanBst::contains(self, key)
    }
    fn name(&self) -> &'static str {
        "natarajan"
    }
    fn update(&self, key: K, value: V) -> bool {
        NatarajanBst::update(self, key, value)
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
        let t: NatarajanBst<u64, u64> = NatarajanBst::new();
        assert!(t.is_empty());
        assert!(t.insert(5, 50));
        assert!(!t.insert(5, 51));
        assert!(t.insert(3, 30));
        assert!(t.insert(8, 80));
        assert_eq!(t.get(5), Some(50));
        assert!(t.remove(5));
        assert!(!t.remove(5));
        assert_eq!(t.get(5), None);
        assert_eq!(t.get(3), Some(30));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn sequential_fill_and_drain() {
        let t: NatarajanBst<u64, u64> = NatarajanBst::new();
        for k in 0..1_000 {
            assert!(t.insert(k, k * 2));
        }
        assert_eq!(t.len(), 1_000);
        for k in 0..1_000 {
            assert_eq!(t.get(k), Some(k * 2));
            assert!(t.remove(k));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn oracle() {
        let t: NatarajanBst<u64, u64> = NatarajanBst::new();
        testutil::oracle_check(&t, 4_000, 256, 31);
    }

    #[test]
    fn concurrent_partitioned() {
        let t: NatarajanBst<u64, u64> = NatarajanBst::new();
        testutil::partition_stress(&t, 4, 1_500);
    }

    #[test]
    fn concurrent_same_keys_contention() {
        // All threads fight over a tiny key space: exercises the
        // flag/tag/help paths heavily. Invariant: ops never crash and the
        // final state is a subset of the key space with coherent gets.
        let t: NatarajanBst<u64, u64> = NatarajanBst::new();
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    let mut state = tid + 1;
                    for _ in 0..4_000 {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let k = state % 8;
                        if state % 2 == 0 {
                            t.insert(k, k);
                        } else {
                            t.remove(k);
                        }
                    }
                });
            }
        });
        for k in 0..8 {
            if let Some(v) = t.get(k) {
                assert_eq!(v, k);
            }
        }
        assert!(t.len() <= 8);
    }
}
