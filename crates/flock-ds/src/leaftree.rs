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
//!
//! # Layout
//!
//! Leaves and internal nodes share one [`Node`] of four words, 32 bytes
//! (one 32-B pool slot) for `<u64, u64>`:
//!
//! - `key`: an internal node's routing key or a leaf's element key;
//!   uninitialized on the anchor and on the empty leaf;
//! - `left`: an internal node's left child, or a leaf's value cell;
//! - `right`: an internal node's right child, or the node's kind tag:
//!   `LEAF`, `EMPTY` (the empty placeholder leaf) or `ANCHOR`;
//! - `lock`.
//!
//! `right`'s low three bits say which of these a node is: zero in a
//! child pointer (nodes are 8-aligned), a small nonzero tag otherwise, so
//! telling the kinds apart takes no 48-bit payload mask. A node's kind
//! never changes during its life. A leaf's and the anchor's `right`
//! are never written, and an internal node's is only ever stored a node
//! pointer (the insert's split, the remove's splice). So any read of it,
//! logged or not, inside a thunk or out, gives the same kind, and a
//! thunk may read a kind, and the key it implies, without a log entry:
//! every replay reads the same value. The descent reads an internal
//! node's kind once (`TreeNode::step`); the leaf it ends at, a second
//! time.
//!
//! [`Node`]'s `Drop` drops the key of a leaf or an internal node and the
//! value cell of a leaf, each once; a child cell needs no drop.

use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::ControlFlow;

use flock_api::{Key, Value};
use flock_core::{Lock, Mutable, Sp};

use crate::tree::{Tree, TreeNode};

/// The bits of `right` that hold a kind: zero in any node pointer.
const KIND_BITS: usize = 7;
/// The kind of an internal node with a key: `right` is its right child.
const INTERNAL: usize = 0;
/// `right`'s kind tag on a leaf holding one key.
const LEAF: usize = 1;
/// `right`'s kind tag on the empty placeholder leaf.
const EMPTY: usize = 2;
/// `right`'s kind tag on the anchor (internal, no key, one child).
const ANCHOR: usize = 3;

/// A node of a [`LeafTree`], a leaf or an internal node (module docs,
/// "Layout"); its fields are private.
pub struct Node<K: Key, V: Value> {
    /// Routing key for internals, element key for a `LEAF`.
    key: MaybeUninit<K>,
    /// An internal node's left child or a `LEAF`'s value.
    left: Slot<K, V>,
    /// An internal node's right child or the kind tag.
    right: Mutable<*mut Node<K, V>>,
    /// Marked obsolete by the splice that unlinks the node.
    lock: Lock,
}

/// A node's first cell. Both arms are one tagged word, so reading either
/// is sound on any node; the node's kind says which one it holds.
union Slot<K: Key, V: Value> {
    kid: ManuallyDrop<Mutable<*mut Node<K, V>>>,
    value: ManuallyDrop<Mutable<V>>,
}

impl<K: Key, V: Value> Slot<K, V> {
    fn kid(p: *mut Node<K, V>) -> Self {
        Self {
            kid: ManuallyDrop::new(Mutable::new(p)),
        }
    }
}

impl<K: Key, V: Value> Node<K, V> {
    fn new(key: MaybeUninit<K>, left: Slot<K, V>, right: *mut Self) -> Self {
        Self {
            key,
            left,
            right: Mutable::new(right),
            lock: Lock::new(),
        }
    }

    fn leaf(key: K, value: V) -> Self {
        let value = ManuallyDrop::new(Mutable::new(value));
        Self::new(MaybeUninit::new(key), Slot { value }, tag(LEAF))
    }

    fn internal(key: K, left: *mut Self, right: *mut Self) -> Self {
        Self::new(MaybeUninit::new(key), Slot::kid(left), right)
    }

    /// The node's kind: `INTERNAL` or a kind tag. Read unlogged: the kind
    /// never changes (module docs).
    #[inline]
    fn kind(&self) -> usize {
        const { assert!(align_of::<Self>() > KIND_BITS) };
        self.right.load_acquire() as usize & KIND_BITS
    }

    /// The key of a `LEAF`.
    #[inline]
    fn leaf_key(&self) -> Option<&K> {
        // SAFETY: a `LEAF`'s key is initialized.
        (self.kind() == LEAF).then(|| unsafe { self.key.assume_init_ref() })
    }
}

/// The kind tag `t` as a `right` cell's content.
fn tag<T>(t: usize) -> *mut T {
    std::ptr::without_provenance_mut(t)
}

impl<K: Key, V: Value> Drop for Node<K, V> {
    fn drop(&mut self) {
        if !std::mem::needs_drop::<K>() && !V::INDIRECT {
            return; // nothing to drop: no kind read
        }
        match self.kind() {
            INTERNAL => {
                // SAFETY: an internal node's key is initialized and dropped
                // once; its child cells hold plain pointers.
                unsafe { self.key.assume_init_drop() }
            }
            // SAFETY: a `LEAF` holds a key and a value cell, both
            // initialized; the node is dropped once, so are they.
            LEAF => unsafe {
                self.key.assume_init_drop();
                ManuallyDrop::drop(&mut self.left.value);
            },
            _ => {} // the anchor or the empty leaf
        }
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
    #[inline]
    fn is_leaf(&self) -> bool {
        self.routing().is_none()
    }
    #[inline]
    fn seps(&self) -> &[K] {
        self.routing().unwrap_or_default()
    }
    #[inline]
    fn routing(&self) -> Option<&[K]> {
        match self.kind() {
            // SAFETY: an internal node's key is initialized.
            INTERNAL => Some(std::slice::from_ref(unsafe { self.key.assume_init_ref() })),
            ANCHOR => Some(&[]),
            _ => None,
        }
    }
    /// One kind read routes an internal node. Telling a leaf from the
    /// anchor takes a second, once per descent; done on the first read's
    /// value, the step measured about 2 instructions longer.
    #[inline]
    fn step(&self, k: &K) -> Option<usize> {
        if self.kind() == INTERNAL {
            // SAFETY: an internal node's key is initialized.
            return Some(usize::from(k >= unsafe { self.key.assume_init_ref() }));
        }
        (self.kind() == ANCHOR).then_some(0)
    }
    #[inline]
    fn child(&self, i: usize) -> &Mutable<*mut Self> {
        if i == 0 {
            // SAFETY: a `Slot` is one tagged word either way (its docs).
            unsafe { &self.left.kid }
        } else {
            &self.right
        }
    }
    #[inline]
    fn entries(&self) -> impl Iterator<Item = (&K, &Mutable<V>)> {
        // SAFETY: a `LEAF`'s first cell is its value.
        self.leaf_key()
            .map(|k| (k, unsafe { &*self.left.value }))
            .into_iter()
    }
    fn new_leaf(entries: &[(K, V)]) -> Self {
        debug_assert!(entries.len() <= 1);
        match entries.first() {
            Some((k, v)) => Self::leaf(k.clone(), v.clone()),
            None => Self::new(
                MaybeUninit::uninit(),
                Slot::kid(std::ptr::null_mut()),
                tag(EMPTY),
            ),
        }
    }
    fn new_internal(seps: &[K], kids: &[*mut Self]) -> Self {
        debug_assert_eq!(kids.len(), seps.len() + 1);
        match seps.first() {
            Some(k) => Self::internal(k.clone(), kids[0], kids[1]),
            None => Self::new(MaybeUninit::uninit(), Slot::kid(kids[0]), tag(ANCHOR)),
        }
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
                let Some(lk) = l.leaf_key() else {
                    // Empty placeholder: replace it with the new leaf.
                    cell.store(new_leaf);
                    // SAFETY: placeholder unlinked above; retired once.
                    unsafe { flock_core::retire(sl.ptr()) };
                    return true;
                };
                // Split: a new internal with the old leaf and the new leaf.
                let newn = flock_core::alloc(|| {
                    if k2 < *lk {
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

    use std::collections::BTreeSet;
    use std::sync::Mutex;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
    use std::time::{Duration, Instant};

    use flock_epoch::Indirect;

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

    /// Ids of the [`Tracked`] instances alive now.
    static LIVE: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());
    static NEXT_ID: AtomicU64 = AtomicU64::new(0);
    /// Drops of an instance that was already dropped.
    static DOUBLE_DROPS: AtomicUsize = AtomicUsize::new(0);

    /// A key or value payload with drop glue. Every instance, clones
    /// included, has its own id in [`LIVE`] from its creation to its drop.
    /// It compares by `n`.
    #[derive(Debug)]
    struct Tracked {
        n: u64,
        id: u64,
    }

    impl Tracked {
        fn new(n: u64) -> Self {
            let id = NEXT_ID.fetch_add(1, Relaxed);
            LIVE.lock().unwrap().insert(id);
            Self { n, id }
        }
    }

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            Self::new(self.n)
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            let live = &mut LIVE.lock().unwrap_or_else(|e| e.into_inner());
            if !live.remove(&self.id) {
                DOUBLE_DROPS.fetch_add(1, Relaxed);
            }
        }
    }

    impl PartialEq for Tracked {
        fn eq(&self, other: &Self) -> bool {
            self.n == other.n
        }
    }
    impl Eq for Tracked {}
    impl PartialOrd for Tracked {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Tracked {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.n.cmp(&other.n)
        }
    }
    impl std::hash::Hash for Tracked {
        fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
            self.n.hash(h);
        }
    }

    /// A node drops its key (leaf or internal) and a leaf's value cell
    /// once: through splits, updates, the anchor's last leaf shrinking to
    /// the empty leaf, `g → p` splices and teardown, every key and value
    /// instance is dropped exactly once by the time the tree is gone and
    /// the collector has flushed.
    #[test]
    fn keys_and_values_drop_exactly_once() {
        let key = Tracked::new;
        let val = |n| Indirect(Tracked::new(n));
        testutil::both_modes(|| {
            for t in [LeafTree::new(), LeafTree::new_strict()] {
                // The first insert replaces the empty leaf, the rest split.
                for n in 0..16 {
                    assert!(t.insert(key(n), val(n)));
                }
                assert!(!t.insert(key(3), val(99)));
                for n in 0..16 {
                    assert!(t.update(key(n), val(n + 100)));
                }
                assert_eq!(t.get(key(5)).map(|v| v.0.n), Some(105));
                // `g → p` splices, down to one key; that last leaf, the
                // anchor's, then shrinks to the empty leaf.
                for n in 0..15 {
                    assert!(t.remove(key(n)));
                }
                assert!(t.remove(key(15)));
                assert!(t.is_empty());
                // Linked nodes of both kinds for the teardown.
                for n in 0..8 {
                    assert!(t.insert(key(n), val(n)));
                }
                t.check_invariants();
            }
            // `flush_all` returns early while a sibling test is pinned:
            // flush until every instance is gone, up to a deadline.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                flock_epoch::flush_all();
                if LIVE.lock().unwrap().is_empty() || Instant::now() > deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(DOUBLE_DROPS.load(Relaxed), 0, "an instance dropped twice");
            let leaked = LIVE.lock().unwrap().len();
            assert_eq!(leaked, 0, "{leaked} key or value instances never dropped");
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
