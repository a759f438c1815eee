//! Leaf-oriented balanced BST (treap) with multi-entry leaves — the paper's
//! `leaftreap` (§7): "a leaf-oriented balanced BST with an optimization that
//! stores a batch of key-value pairs (up to 2 cachelines worth) in each leaf
//! to minimize height". Generic over `(K, V)`. Lookups, updates, removes
//! and scans follow the crate's [tree protocol](crate#tree-protocol).
//!
//! * **Leaves** hold up to [`LEAF_CAP`] sorted key-value pairs. A change of
//!   key set copies the leaf and swings the parent's child pointer (one
//!   idempotent store), so readers always see a consistent batch. Fat
//!   values ride inside the copied batch (the batch is part of the
//!   epoch-reclaimed node).
//! * **Internal (routing) nodes** carry a routing key and a *priority*
//!   (a deterministic hash of the key). Max-heap order on priorities makes
//!   the tree a treap: expected `O(log n)` height regardless of insertion
//!   order.
//! * **Rebalancing**: when a leaf split introduces a routing node whose
//!   priority beats its parent's, a separate fix-up loop rotates it upward,
//!   one rotation at a time, each under grandparent→parent→child locks
//!   (ancestor-first, so the simply-nested decreasing-order discipline the
//!   lock-freedom theorem needs is respected). Rotations are copy-on-write:
//!   fresh nodes replace the rotated pair, old ones are retired.

use std::hash::BuildHasher;
use std::ops::ControlFlow;

use flock_api::{Key, Value};
use flock_core::{Lock, Mutable, Sp};
use flock_sync::Backoff;

use crate::hashtable::FlockHashBuilder;
use crate::tree::{Tree, TreeNode};

/// Entries per leaf: 2 cachelines of 8-byte keys / 8-byte values.
pub const LEAF_CAP: usize = 8;

/// Deterministic treap priority for a routing key.
fn prio_of<K: Key>(k: &K) -> u64 {
    FlockHashBuilder.hash_one(k)
}

/// A node of a [`LeafTreap`]; its fields are private.
pub struct Node<K: Key, V: Value> {
    left: Mutable<*mut Node<K, V>>,
    right: Mutable<*mut Node<K, V>>,
    /// Marked obsolete by the rotation or splice that unlinks the node.
    lock: Lock,
    /// Routing key (internals; `None` on the anchor and on leaves — leaves
    /// are located by search position, not key).
    key: Option<K>,
    /// Treap priority (internal only).
    prio: u64,
    leaf: bool,
    /// Sorted batch (leaves only). The *key set* is immutable after
    /// construction (membership changes copy the leaf), but each entry's
    /// value lives in a [`Mutable`] stored into in place under the leaf's
    /// **parent** lock — native `update` without copying the batch.
    entries: Vec<(K, Mutable<V>)>,
}

impl<K: Key, V: Value> Node<K, V> {
    fn internal(key: K, left: *mut Node<K, V>, right: *mut Node<K, V>) -> Self {
        Self::new_internal(&[key], &[left, right])
    }
}

impl<K: Key, V: Value> TreeNode for Node<K, V> {
    type K = K;
    type V = V;
    const NAME: &'static str = "leaftreap";

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
        self.entries.iter().map(|(k, s)| (k, s))
    }
    fn new_leaf(entries: &[(K, V)]) -> Self {
        debug_assert!(entries.len() <= LEAF_CAP);
        let null = std::ptr::null_mut();
        Self {
            left: Mutable::new(null),
            right: Mutable::new(null),
            lock: Lock::new(),
            key: None,
            prio: 0,
            leaf: true,
            entries: entries
                .iter()
                .map(|(k, v)| (k.clone(), Mutable::new(v.clone())))
                .collect(),
        }
    }
    fn new_internal(seps: &[K], kids: &[*mut Self]) -> Self {
        let key = seps.first().cloned();
        Self {
            left: Mutable::new(kids[0]),
            right: Mutable::new(kids.get(1).copied().unwrap_or(std::ptr::null_mut())),
            lock: Lock::new(),
            // The anchor never loses a priority comparison.
            prio: key.as_ref().map_or(u64::MAX, prio_of),
            key,
            leaf: false,
            entries: Vec::new(),
        }
    }

    fn insert(tree: &Tree<Self>, k: K, v: V) -> bool {
        let _g = flock_epoch::pin();
        let added = crate::retry(|| {
            let at = tree.search(&k);
            // SAFETY: pinned by `retry`.
            if unsafe { &*at.l }.slot(&k).is_some() {
                return ControlFlow::Break(false);
            }
            let (sp, sl, pi, k2, v2) = (Sp(at.p), Sp(at.l), at.pi, k.clone(), v.clone());
            // SAFETY: pinned.
            ControlFlow::Continue(unsafe { &*at.p }.lock.try_lock(move || {
                // SAFETY: thunk runners hold epoch protection.
                let (p, l) = unsafe { (sp.as_ref(), sl.as_ref()) };
                let cell = p.child(pi);
                if cell.load() != sl.ptr() {
                    return false; // validate
                }
                let mut entries = l.snapshot();
                let pos = entries.partition_point(|(ek, _)| ek < &k2);
                entries.insert(pos, (k2.clone(), v2.clone()));
                if entries.len() <= LEAF_CAP {
                    let newl = flock_core::alloc(move || Node::new_leaf(&entries));
                    cell.store(newl);
                } else {
                    // Split into two half-leaves under a new routing node.
                    // Three separate idempotent allocs: nesting the leaf
                    // allocations inside the routing node's init closure
                    // would leak both halves on every replayed run.
                    let (lo, hi) = entries.split_at(entries.len() / 2);
                    let split_key = hi[0].0.clone();
                    let left = flock_core::alloc(|| Node::new_leaf(lo));
                    let right = flock_core::alloc(|| Node::new_leaf(hi));
                    let newi = flock_core::alloc(move || Node::internal(split_key, left, right));
                    cell.store(newi);
                }
                // SAFETY: old leaf unlinked above; idempotent retire.
                unsafe { flock_core::retire(sl.ptr()) };
                true
            }))
        });
        if added {
            // A split may have violated heap order; bubble the new routing
            // node up. Balance repair is separate from the insert's
            // linearization point.
            tree.fix_priorities(&k);
        }
        added
    }

    fn check_link(p: &Self, c: &Self) {
        assert!(c.prio <= p.prio, "treap heap order violated");
    }
}

/// Leaf-oriented treap map with batched leaves.
pub type LeafTreap<K, V> = Tree<Node<K, V>>;

impl<K: Key, V: Value> LeafTreap<K, V> {
    /// Restore the treap's max-heap priority order along `k`'s search path
    /// by rotating violating nodes upward, one COW rotation at a time.
    fn fix_priorities(&self, k: &K) {
        let mut backoff = Backoff::new();
        'outer: loop {
            // Find the first violation (child.prio > parent.prio) on the
            // path; the root's +inf priority stops the bubble at the top.
            let mut g = self.anchor;
            // SAFETY: pinned by callers of insert; nodes epoch-reclaimed.
            let mut p = unsafe { &*g }.child(0).load();
            if unsafe { &*p }.leaf {
                return;
            }
            loop {
                // SAFETY: pinned.
                let p_ref = unsafe { &*p };
                let c = p_ref.child(p_ref.route(k)).load();
                // SAFETY: pinned.
                let c_ref = unsafe { &*c };
                if c_ref.leaf {
                    return; // reached the leaf: no violations on this path
                }
                if c_ref.prio > p_ref.prio {
                    // Whether or not the rotation succeeds, re-walk: the
                    // neighborhood may have changed under us. Busy locks
                    // mean another repairer is in there — ease off first.
                    if self.rotate_up(g, p, c).is_none() {
                        backoff.snooze();
                    }
                    continue 'outer;
                }
                g = p;
                p = c;
            }
        }
    }

    /// One COW rotation lifting `c` above `p` under `g` (all validated under
    /// g → p → c locks). `None` = a lock on the path was busy;
    /// `Some(rotated)` otherwise.
    fn rotate_up(
        &self,
        g: *mut Node<K, V>,
        p: *mut Node<K, V>,
        c: *mut Node<K, V>,
    ) -> Option<bool> {
        let (sp_g, sp_p, sp_c) = (Sp(g), Sp(p), Sp(c));
        let rotate = move || {
            // SAFETY: thunk runners hold epoch protection.
            let g = unsafe { sp_g.as_ref() };
            let p = unsafe { sp_p.as_ref() };
            let c = unsafe { sp_c.as_ref() };
            let gcell = if g.left.load() == sp_p.ptr() {
                &g.left
            } else if g.right.load() == sp_p.ptr() {
                &g.right
            } else {
                return false;
            };
            let c_is_left = if p.left.load() == sp_c.ptr() {
                true
            } else if p.right.load() == sp_c.ptr() {
                false
            } else {
                return false;
            };
            if c.prio <= p.prio {
                return false; // already fixed by someone else
            }
            let pk = p.key.clone().expect("non-root internal has a key");
            let ck = c.key.clone().expect("non-root internal has a key");
            let (cl, cr) = (c.left.load(), c.right.load());
            let p_other = if c_is_left {
                p.right.load()
            } else {
                p.left.load()
            };
            // Two separate idempotent allocs (see insert's split):
            // a nested plain alloc would leak `new_p` per replay.
            let pk2 = pk.clone();
            let new_p = flock_core::alloc(move || {
                if c_is_left {
                    // Right rotation: p' = (pk, c.right, p.right).
                    Node::internal(pk2.clone(), cr, p_other)
                } else {
                    // Left rotation: p' = (pk, p.left, c.left).
                    Node::internal(pk2.clone(), p_other, cl)
                }
            });
            let new_top = flock_core::alloc(move || {
                if c_is_left {
                    // c' = (ck, c.left, p').
                    Node::internal(ck.clone(), cl, new_p)
                } else {
                    // c' = (ck, p', c.right).
                    Node::internal(ck.clone(), new_p, cr)
                }
            });
            p.lock.mark_obsolete();
            c.lock.mark_obsolete();
            gcell.store(new_top);
            // SAFETY: both replaced above; idempotent retires.
            unsafe {
                flock_core::retire(sp_p.ptr());
                flock_core::retire(sp_c.ptr());
            }
            true
        };
        // SAFETY: pinned by fix_priorities' caller; runners adopt that
        // epoch, so all three locks outlive them.
        unsafe { (*g).lock.try_lock_set([&(*p).lock, &(*c).lock], rotate) }
    }
}

#[cfg(test)]
mod tests {
    crate::tree::tests::tree_tests!(LeafTreap, [new], 64, 256, 11);
    use super::Node;

    #[test]
    fn splits_and_heap_order() {
        testutil::both_modes(|| {
            let t: LeafTreap<u64, u64> = LeafTreap::new();
            // Sequential keys are the adversarial case for an unbalanced
            // tree; the treap must stay heap-ordered and balanced.
            for k in 0..512 {
                assert!(t.insert(k, k * 2));
            }
            assert_eq!(t.len(), 512);
            for k in 0..512 {
                assert_eq!(t.get(k), Some(k * 2));
            }
            t.check_invariants();
        });
    }

    #[test]
    fn expected_logarithmic_depth() {
        testutil::exclusive(expected_logarithmic_depth_body);
    }

    fn expected_logarithmic_depth_body() {
        let t: LeafTreap<u64, u64> = LeafTreap::new();
        for k in 0..4096 {
            t.insert(k, k);
        }
        unsafe fn depth(n: *mut Node<u64, u64>) -> usize {
            // SAFETY: quiescent per caller.
            let node = unsafe { &*n };
            if node.leaf {
                1
            } else {
                1 + unsafe { depth(node.left.load()).max(depth(node.right.load())) }
            }
        }
        // SAFETY: quiescent single-threaded test.
        let d = unsafe { depth((*t.anchor).left.load()) };
        // 4096/8 = 512+ leaves; a treap's expected depth is ~2·ln(512) ≈ 13.
        // A sorted-insert degenerate tree would be ~512. Allow generous slack.
        assert!(d < 64, "treap degenerated: depth {d}");
        t.check_invariants();
    }

    #[test]
    fn drain_and_refill() {
        testutil::both_modes(|| {
            let t: LeafTreap<u64, u64> = LeafTreap::new();
            for k in 0..256 {
                assert!(t.insert(k, k));
            }
            for k in 0..256 {
                assert!(t.remove(k), "remove {k}");
            }
            assert!(t.is_empty());
            for k in (0..256).rev() {
                assert!(t.insert(k, k + 1));
            }
            assert_eq!(t.len(), 256);
            t.check_invariants();
        });
    }
}
