//! Leaf-oriented (external) unbalanced binary search tree with optimistic
//! fine-grained locking — the paper's `leaftree` (§7) and the subject of its
//! Figure 4 try-lock vs strict-lock comparison. Generic over `(K, V)`.
//!
//! A leaf holds one key; an internal node holds one routing key (left
//! subtree `< key`, right subtree `>= key`). Lookups, updates, removes and
//! scans follow the crate's [tree protocol](crate#tree-protocol). An insert
//! locks the leaf's parent, validates, and swings the child pointer to a
//! fresh internal node with two leaves.
//!
//! Both locking disciplines of the paper are provided: [`LeafTree::new`]
//! uses try-locks (restart on busy), [`LeafTree::new_strict`] uses strict
//! locks (wait for the holder — helping it first in lock-free mode).

use std::ops::{Bound, ControlFlow};

use flock_api::{Key, Map, Value};
use flock_core::{Lock, Mutable, Sp};

use crate::tree::{Tree, TreeNode};

pub(crate) struct Node<K: Key, V: Value> {
    // Internal-node fields (unused in leaves).
    left: Mutable<*mut Node<K, V>>,
    right: Mutable<*mut Node<K, V>>,
    /// Marked obsolete by the splice that unlinks the node.
    lock: Lock,
    /// Routing key for internals; element key for leaves. `None` only on
    /// the anchor (no separator: everything routes left) and the empty
    /// placeholder leaf.
    key: Option<K>,
    /// Element value slot (leaves only).
    value: Option<Mutable<V>>,
    leaf: bool,
}

impl<K: Key, V: Value> Node<K, V> {
    fn new(key: Option<K>, value: Option<V>, kids: [*mut Self; 2], leaf: bool) -> Self {
        Self {
            left: Mutable::new(kids[0]),
            right: Mutable::new(kids[1]),
            lock: Lock::new(),
            key,
            value: value.map(Mutable::new),
            leaf,
        }
    }

    fn leaf(key: K, value: V) -> Self {
        let null = std::ptr::null_mut();
        Self::new(Some(key), Some(value), [null, null], true)
    }

    fn internal(key: K, left: *mut Self, right: *mut Self) -> Self {
        Self::new(Some(key), None, [left, right], false)
    }
}

impl<K: Key, V: Value> TreeNode for Node<K, V> {
    type K = K;
    type V = V;

    fn lock(&self) -> &Lock {
        &self.lock
    }
    fn is_leaf(&self) -> bool {
        self.leaf
    }
    fn seps(&self) -> &[K] {
        self.key.as_slice()
    }
    fn child(&self, i: usize) -> &Mutable<*mut Self> {
        if i == 0 { &self.left } else { &self.right }
    }
    fn entries(&self) -> impl Iterator<Item = (&K, &Mutable<V>)> {
        self.key.iter().zip(&self.value)
    }
    fn new_leaf(entries: &[(K, V)]) -> Self {
        debug_assert!(entries.len() <= 1);
        match entries.first() {
            Some((k, v)) => Self::leaf(k.clone(), v.clone()),
            None => Self::new(None, None, [std::ptr::null_mut(); 2], true),
        }
    }
    fn new_internal(seps: &[K], kids: &[*mut Self]) -> Self {
        let right = kids.get(1).copied().unwrap_or(std::ptr::null_mut());
        Self::new(seps.first().cloned(), None, [kids[0], right], false)
    }
}

/// Leaf-oriented unbalanced BST map.
pub struct LeafTree<K: Key, V: Value> {
    tree: Tree<Node<K, V>>,
}

impl<K: Key, V: Value> Default for LeafTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Value> LeafTree<K, V> {
    /// An empty tree using try-locks (the paper's preferred discipline).
    pub fn new() -> Self {
        Self {
            tree: Tree::new(false),
        }
    }

    /// An empty tree using strict locks (waits instead of restarting).
    pub fn new_strict() -> Self {
        Self {
            tree: Tree::new(true),
        }
    }

    /// Insert; `false` if present.
    pub fn insert(&self, k: K, v: V) -> bool {
        let added = crate::retry(|| {
            let at = self.tree.search(&k);
            // SAFETY: pinned by `retry`.
            if unsafe { &*at.l }.slot(&k).is_some() {
                return ControlFlow::Break(false);
            }
            let (sp, sl, pi, k2, v2) = (Sp(at.p), Sp(at.l), at.pi, k.clone(), v.clone());
            // SAFETY: pinned.
            ControlFlow::Continue(self.tree.acquire(unsafe { &*at.p }.lock(), move || {
                // SAFETY: thunk runners hold epoch protection.
                let (p, l) = unsafe { (sp.as_ref(), sl.as_ref()) };
                let cell = p.child(pi);
                if cell.load() != sl.ptr() {
                    return false; // validate
                }
                // Both allocations are their own idempotent allocs: a
                // nested plain `flock_epoch::alloc` inside the internal
                // node's init closure would leak one leaf per replayed run
                // (the loser's outer node is freed, but a plain nested
                // allocation inside it is not).
                let new_leaf = flock_core::alloc(|| Node::leaf(k2.clone(), v2.clone()));
                let Some(lk) = l.key.clone() else {
                    // Empty placeholder: replace it with the new leaf.
                    cell.store(new_leaf);
                    // SAFETY: placeholder unlinked above; retired once.
                    unsafe { flock_core::retire(sl.ptr()) };
                    return true;
                };
                // Split: a new internal with the old leaf and the new leaf.
                let newn = flock_core::alloc(|| {
                    if k2 < lk {
                        Node::internal(lk.clone(), new_leaf, sl.ptr())
                    } else {
                        Node::internal(k2.clone(), sl.ptr(), new_leaf)
                    }
                });
                cell.store(newn);
                true
            }))
        });
        if added {
            self.tree.count.inc();
        }
        added
    }

    /// Remove; `false` if absent.
    pub fn remove(&self, k: K) -> bool {
        self.tree.remove(&k)
    }

    /// Lookup: an optimistic read bracketed by the leaf's parent version,
    /// with a bounded fallback to the committed read.
    pub fn get(&self, k: K) -> Option<V> {
        self.tree.get(&k)
    }

    /// Presence-only lookup: no value decode, no clone, no validation.
    pub fn contains(&self, k: &K) -> bool {
        self.tree.contains(k)
    }

    /// Ordered range scan (see [`flock_api::OrderedMap`] for the
    /// consistency contract).
    pub fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        self.tree.range(lo, hi)
    }

    /// Native atomic update: replace the value stored under `k` in place,
    /// under the leaf's parent lock. Returns `false` (storing nothing) if
    /// `k` is absent.
    pub fn update(&self, k: K, v: V) -> bool {
        self.tree.update(&k, &v)
    }

    /// Element count (O(n) walk; tests/diagnostics).
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ordered snapshot — single-threaded use.
    pub fn collect(&self) -> Vec<(K, V)> {
        self.tree.collect()
    }

    /// Quiescent invariant check: BST routing holds, all leaves reachable on
    /// the correct side, no removed internals linked.
    pub fn check_invariants(&self) {
        self.tree.check_invariants(|_, _| {});
    }
}

impl<K: Key, V: Value> Map<K, V> for LeafTree<K, V> {
    fn insert(&self, key: K, value: V) -> bool {
        LeafTree::insert(self, key, value)
    }
    fn remove(&self, key: K) -> bool {
        LeafTree::remove(self, key)
    }
    fn get(&self, key: K) -> Option<V> {
        LeafTree::get(self, key)
    }
    fn contains(&self, key: K) -> bool {
        LeafTree::contains(self, &key)
    }
    fn name(&self) -> &'static str {
        if self.tree.is_strict() {
            "leaftree-strict"
        } else {
            "leaftree"
        }
    }
    fn update(&self, key: K, value: V) -> bool {
        LeafTree::update(self, key, value)
    }
    fn has_atomic_update(&self) -> bool {
        true
    }
    fn len_approx(&self) -> Option<usize> {
        Some(self.tree.count.get())
    }
}

impl<K: Key, V: Value> flock_api::OrderedMap<K, V> for LeafTree<K, V> {
    fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        LeafTree::range(self, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::tests::{TreeMap, native_update_in_place as update_body};
    use flock_conformance as testutil;

    impl TreeMap for LeafTree<u64, u64> {
        type Node = Node<u64, u64>;
        fn tree(&self) -> &Tree<Self::Node> {
            &self.tree
        }
        fn check_invariants(&self) {
            LeafTree::check_invariants(self)
        }
    }

    #[test]
    fn native_update_in_place() {
        testutil::both_modes(|| {
            update_body(LeafTree::new(), 16);
            update_body(LeafTree::new_strict(), 16);
        });
    }

    #[test]
    fn basic_ops() {
        testutil::both_modes(|| {
            let trees: [LeafTree<u64, u64>; 2] = [LeafTree::new(), LeafTree::new_strict()];
            for t in trees {
                assert!(t.is_empty());
                assert!(t.insert(5, 50));
                assert!(!t.insert(5, 51));
                assert!(t.insert(3, 30));
                assert!(t.insert(8, 80));
                assert!(t.insert(1, 10));
                assert_eq!(t.collect(), vec![(1, 10), (3, 30), (5, 50), (8, 80)]);
                assert!(t.remove(3));
                assert!(!t.remove(3));
                assert_eq!(t.get(3), None);
                assert_eq!(t.get(8), Some(80));
                t.check_invariants();
            }
        });
    }

    #[test]
    fn remove_down_to_empty_and_refill() {
        testutil::both_modes(|| {
            let t: LeafTree<u64, u64> = LeafTree::new();
            for k in 0..32 {
                assert!(t.insert(k, k));
            }
            for k in 0..32 {
                assert!(t.remove(k));
            }
            assert!(t.is_empty());
            for k in 0..32 {
                assert!(t.insert(k, k + 100));
            }
            assert_eq!(t.len(), 32);
            t.check_invariants();
        });
    }

    #[test]
    fn oracle() {
        testutil::both_modes(|| {
            let t: LeafTree<u64, u64> = LeafTree::new();
            testutil::oracle_check(&t, 4_000, 256, 5);
            t.check_invariants();
        });
    }

    #[test]
    fn oracle_strict() {
        testutil::both_modes(|| {
            let t: LeafTree<u64, u64> = LeafTree::new_strict();
            testutil::oracle_check(&t, 4_000, 256, 6);
            t.check_invariants();
        });
    }

    #[test]
    fn concurrent_partitioned() {
        testutil::both_modes(|| {
            let t: LeafTree<u64, u64> = LeafTree::new();
            testutil::partition_stress(&t, 4, 1_500);
            t.check_invariants();
        });
    }

    #[test]
    fn concurrent_partitioned_strict() {
        testutil::both_modes(|| {
            let t: LeafTree<u64, u64> = LeafTree::new_strict();
            testutil::partition_stress(&t, 4, 1_000);
            t.check_invariants();
        });
    }
}
