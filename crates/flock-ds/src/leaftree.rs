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
//! Both locking disciplines of the paper are provided: `LeafTree::new`
//! uses try-locks (restart on busy), `LeafTree::new_strict` uses strict
//! locks (wait for the holder — helping it first in lock-free mode).

use std::ops::ControlFlow;

use flock_api::{Key, Value};
use flock_core::{Lock, Mutable, Sp};

use crate::tree::{Tree, TreeNode};

/// A node of a [`LeafTree`]; its fields are private.
pub struct Node<K: Key, V: Value> {
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
    const NAME: &'static str = "leaftree";
    const STRICT_NAME: &'static str = "leaftree-strict";

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

    fn insert(tree: &Tree<Self>, k: K, v: V) -> bool {
        crate::retry(|| {
            let at = tree.search(&k);
            // SAFETY: pinned by `retry`.
            if unsafe { &*at.l }.slot(&k).is_some() {
                return ControlFlow::Break(false);
            }
            let (sp, sl, pi, k2, v2) = (Sp(at.p), Sp(at.l), at.pi, k.clone(), v.clone());
            // SAFETY: pinned.
            ControlFlow::Continue(tree.acquire(unsafe { &*at.p }.lock(), move || {
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
        })
    }
}

/// Leaf-oriented unbalanced BST map.
pub type LeafTree<K, V> = Tree<Node<K, V>>;

impl<K: Key, V: Value> LeafTree<K, V> {
    /// An empty tree using strict locks (waits instead of restarting).
    pub fn new_strict() -> Self {
        Self::empty(true)
    }
}

#[cfg(test)]
mod tests {
    crate::tree::tests::tree_tests!(LeafTree, [new, new_strict], 16, 256, 5);

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
    fn oracle_strict() {
        testutil::both_modes(|| {
            let t: LeafTree<u64, u64> = LeafTree::new_strict();
            testutil::oracle_check(&t, 4_000, 256, 6);
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
