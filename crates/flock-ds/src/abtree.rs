//! (a,b)-tree with optimistic fine-grained locking — the paper's `abtree`
//! (§7), in the style of Srivastava-Brown optimistic B-trees. Generic over
//! `(K, V)`. Lookups, updates, removes and scans follow the crate's
//! [tree protocol](crate#tree-protocol).
//!
//! * A node's **key/value arrays and arity are immutable** after
//!   construction; any change to a node's key set *replaces* the node
//!   (copy-on-write) by swinging its parent's child pointer — a single
//!   idempotent store. Fat values ride inside the copied batch.
//! * **Child pointers are mutable in place** (they change when a child is
//!   replaced), guarded by the owning node's lock; holding a node's lock
//!   therefore stabilizes all of its child cells.
//! * A **split of child `c` under parent `p`** inserts a separator into `p`
//!   and so replaces `p` itself — done under `p`'s parent's lock, then `p`'s,
//!   then `c`'s (ancestor-first order). Inserts split full nodes on the way
//!   down and restart, so when the leaf is reached its parent has room.
//! * Deletes are **relaxed**: batches shrink by copy; an emptied leaf is
//!   spliced together with its separator; internal nodes collapse only when
//!   reduced to a single child. No proactive merging/borrowing — the classic
//!   relaxed-(a,b)-tree trade-off.

use std::ops::ControlFlow;

use flock_api::{Key, Value};
use flock_core::{Lock, Mutable, Sp};

use crate::tree::{Tree, TreeNode};

/// Maximum keys per leaf and separators per internal node ("b").
pub const B: usize = 12;

/// A node of an [`ABTree`]; its fields are private.
pub struct Node<K: Key, V: Value> {
    /// Marked obsolete by the split or splice that replaces the node.
    lock: Lock,
    is_leaf: bool,
    /// Leaf: element keys (sorted). Internal: separators
    /// (children = keys.len() + 1).
    keys: Vec<K>,
    /// Element value slots (leaves only; parallel to `keys`). The key set
    /// is immutable (membership changes copy the leaf), but each value is
    /// mutable in place under the leaf's **parent** lock — native `update`
    /// without copying the batch.
    vals: Vec<Mutable<V>>,
    children: [Mutable<*mut Node<K, V>>; B + 1],
}

impl<K: Key, V: Value> Node<K, V> {
    #[inline]
    fn is_full(&self) -> bool {
        self.keys.len() == B
    }

    /// The two halves of full node `n`, and the separator between them.
    /// `n`'s child cells are stable: the caller holds its lock.
    fn halves(n: &Self) -> (K, *mut Self, *mut Self) {
        let mid = n.keys.len() / 2;
        if n.is_leaf {
            let entries = n.snapshot();
            let (lo, hi) = entries.split_at(mid);
            let sep = hi[0].0.clone();
            (
                sep,
                flock_core::alloc(|| Self::new_leaf(lo)),
                flock_core::alloc(|| Self::new_leaf(hi)),
            )
        } else {
            let kids = n.kids();
            let (seps, sep) = (&n.keys, n.keys[mid].clone());
            let left = flock_core::alloc(|| Self::new_internal(&seps[..mid], &kids[..=mid]));
            let right =
                flock_core::alloc(|| Self::new_internal(&seps[mid + 1..], &kids[mid + 1..]));
            (sep, left, right)
        }
    }
}

impl<K: Key, V: Value> TreeNode for Node<K, V> {
    type K = K;
    type V = V;
    const NAME: &'static str = "abtree";

    fn lock(&self) -> &Lock {
        &self.lock
    }
    fn is_leaf(&self) -> bool {
        self.is_leaf
    }
    fn seps(&self) -> &[K] {
        &self.keys
    }
    fn child(&self, i: usize) -> &Mutable<*mut Self> {
        &self.children[i]
    }
    fn entries(&self) -> impl Iterator<Item = (&K, &Mutable<V>)> {
        self.keys.iter().zip(&self.vals)
    }
    fn new_leaf(entries: &[(K, V)]) -> Self {
        debug_assert!(entries.len() <= B);
        Self {
            lock: Lock::new(),
            is_leaf: true,
            keys: entries.iter().map(|(k, _)| k.clone()).collect(),
            vals: entries
                .iter()
                .map(|(_, v)| Mutable::new(v.clone()))
                .collect(),
            children: std::array::from_fn(|_| Mutable::new(std::ptr::null_mut())),
        }
    }
    fn new_internal(seps: &[K], kids: &[*mut Self]) -> Self {
        debug_assert_eq!(kids.len(), seps.len() + 1);
        debug_assert!(seps.len() <= B);
        let kid = |i| kids.get(i).copied().unwrap_or(std::ptr::null_mut());
        Self {
            lock: Lock::new(),
            is_leaf: false,
            keys: seps.to_vec(),
            vals: Vec::new(),
            children: std::array::from_fn(|i| Mutable::new(kid(i))),
        }
    }

    fn insert(tree: &Tree<Self>, k: K, v: V) -> bool {
        crate::retry(|| {
            let mut path = vec![tree.anchor];
            let at = tree.descend(&k, Mutable::load, |n| path.push(n));
            // SAFETY: pinned by `retry`.
            if unsafe { &*at.l }.slot(&k).is_some() {
                return ControlFlow::Break(false);
            }
            // Grow the tree when the root itself is full: it splits into two
            // halves under a fresh one-separator root, under the anchor's
            // lock. Handling the root first establishes the invariant that
            // when the loop below splits path[w], path[w-1] has room. A split
            // that ran or went stale restarts at once; a busy lock backs off.
            // SAFETY: pinned path nodes.
            if unsafe { &*path[1] }.is_full() {
                return ControlFlow::Continue(tree.split_root(path[1]).and(Some(false)));
            }
            // Preemptively split the shallowest full node along the path and
            // restart; by induction its parent always has separator room.
            for w in 2..path.len() {
                // SAFETY: pinned path nodes.
                if unsafe { &*path[w] }.is_full() {
                    let split = tree.split_child(path[w - 2], path[w - 1], path[w], &k);
                    return ControlFlow::Continue(split.and(Some(false)));
                }
            }
            let (sp, sl, pi, k2, v2) = (Sp(at.p), Sp(at.l), at.pi, k.clone(), v.clone());
            // SAFETY: pinned.
            ControlFlow::Continue(unsafe { &*at.p }.lock.try_lock(move || {
                // SAFETY: thunk runners hold epoch protection.
                let (p, l) = unsafe { (sp.as_ref(), sl.as_ref()) };
                let cell = p.child(pi);
                if cell.load() != sl.ptr() {
                    return false; // re-examine from the top
                }
                let mut entries = l.snapshot();
                let pos = entries.partition_point(|(ek, _)| ek < &k2);
                entries.insert(pos, (k2.clone(), v2.clone()));
                let newl = flock_core::alloc(move || Node::new_leaf(&entries));
                cell.store(newl);
                // SAFETY: replaced above; idempotent retire.
                unsafe { flock_core::retire(sl.ptr()) };
                true
            }))
        })
    }

    fn check_link(_: &Self, c: &Self) {
        assert!(c.keys.len() <= B);
        assert!(
            c.is_leaf || !c.keys.is_empty(),
            "internal node without separators"
        );
    }
}

/// Concurrent (a,b)-tree map.
pub type ABTree<K, V> = Tree<Node<K, V>>;

impl<K: Key, V: Value> ABTree<K, V> {
    /// Split full node `c` (child of `p`, grandchild of `g`): replaces `p`
    /// with a copy containing the new separator and the two halves of `c`.
    /// `None` = a lock on the g → p → c path was busy (caller should back
    /// off); `Some(applied)` = all three locks were taken and the plan
    /// either applied or had gone stale.
    fn split_child(
        &self,
        g: *mut Node<K, V>,
        p: *mut Node<K, V>,
        c: *mut Node<K, V>,
        k: &K,
    ) -> Option<bool> {
        let (sp_g, sp_p, sp_c) = (Sp(g), Sp(p), Sp(c));
        let k2 = k.clone();
        let split = move || {
            // SAFETY: thunk runners hold epoch protection.
            let (g, p, c) = unsafe { (sp_g.as_ref(), sp_p.as_ref(), sp_c.as_ref()) };
            if !c.is_full() || p.is_full() {
                return false; // stale plan; caller restarts
            }
            // Validate links (find c's slot in p, p's slot in g).
            let (gi, pi) = (g.route(&k2), p.route(&k2));
            if g.children[gi].load() != sp_p.ptr() || p.children[pi].load() != sp_c.ptr() {
                return false;
            }
            // New p with c's halves and the separator spliced in at pi.
            let (sep, left, right) = Node::halves(c);
            let (mut seps, mut kids) = (p.keys.clone(), p.kids());
            seps.insert(pi, sep);
            kids[pi] = left;
            kids.insert(pi + 1, right);
            let new_p = flock_core::alloc(move || Node::new_internal(&seps, &kids));
            p.lock.mark_obsolete();
            c.lock.mark_obsolete();
            g.children[gi].store(new_p);
            // SAFETY: p and c are replaced/unlinked; idempotent
            // retires fire once each.
            unsafe {
                flock_core::retire(sp_p.ptr());
                flock_core::retire(sp_c.ptr());
            }
            true
        };
        // SAFETY: pinned caller; runners adopt its epoch, so all three
        // locks outlive them.
        unsafe { (*g).lock.try_lock_set([&(*p).lock, &(*c).lock], split) }
    }

    /// Split a full root (leaf or internal) into two halves under a fresh
    /// one-separator root, under anchor → root locks.
    /// `None` = the anchor's or root's lock was busy; `Some(applied)`
    /// otherwise.
    fn split_root(&self, root: *mut Node<K, V>) -> Option<bool> {
        let (sp_a, sp_r) = (Sp(self.anchor), Sp(root));
        let split = move || {
            // SAFETY: thunk runners hold epoch protection.
            let (a, r) = unsafe { (sp_a.as_ref(), sp_r.as_ref()) };
            if a.children[0].load() != sp_r.ptr() || !r.is_full() {
                return false;
            }
            let (sep, left, right) = Node::halves(r);
            let new_root = flock_core::alloc(|| Node::new_internal(&[sep], &[left, right]));
            r.lock.mark_obsolete();
            a.children[0].store(new_root);
            // SAFETY: replaced above; idempotent retire.
            unsafe { flock_core::retire(sp_r.ptr()) };
            true
        };
        // SAFETY: pinned caller; the anchor lives as long as the tree, and
        // runners adopt the caller's epoch, so the root outlives them.
        unsafe { (*self.anchor).lock.try_lock_set([&(*root).lock], split) }
    }
}

#[cfg(test)]
mod tests {
    crate::tree::tests::tree_tests!(ABTree, [new], 200, 512, 21);

    #[test]
    fn grows_past_many_splits() {
        testutil::both_modes(|| {
            let t: ABTree<u64, u64> = ABTree::new();
            for k in 0..2_000 {
                assert!(t.insert(k, k * 3), "insert {k}");
            }
            assert_eq!(t.len(), 2_000);
            for k in 0..2_000 {
                assert_eq!(t.get(k), Some(k * 3), "get {k}");
            }
            t.check_invariants();
        });
    }

    #[test]
    fn reverse_and_shuffled_inserts() {
        testutil::both_modes(|| {
            let t: ABTree<u64, u64> = ABTree::new();
            for k in (0..1_000).rev() {
                assert!(t.insert(k, k));
            }
            // Interleave removes and re-inserts.
            for k in (0..1_000).step_by(3) {
                assert!(t.remove(k));
            }
            for k in (0..1_000).step_by(3) {
                assert!(t.insert(k, k + 7));
            }
            assert_eq!(t.len(), 1_000);
            t.check_invariants();
        });
    }

    #[test]
    fn drain_to_empty() {
        testutil::both_modes(|| {
            let t: ABTree<u64, u64> = ABTree::new();
            for k in 0..500 {
                assert!(t.insert(k, k));
            }
            for k in 0..500 {
                assert!(t.remove(k), "remove {k}");
            }
            assert!(t.is_empty());
            assert!(t.insert(1, 2));
            assert_eq!(t.get(1), Some(2));
        });
    }
}
