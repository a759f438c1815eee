//! Leaf-oriented (external) unbalanced binary search tree with optimistic
//! fine-grained locking — the paper's `leaftree` (§7) and the subject of its
//! Figure 4 try-lock vs strict-lock comparison. Generic over `(K, V)`.
//!
//! All keys live in leaves; internal nodes carry routing keys (left subtree
//! `< key`, right subtree `>= key`). Searches are lock-free. An insert locks
//! the leaf's parent, validates, and swings the child pointer to a fresh
//! internal node with two leaves. A remove locks grandparent then parent
//! (ancestor-first, satisfying the decreasing-lock-order requirement for
//! lock-freedom), validates, and splices the parent out, replacing it with
//! the leaf's sibling.
//!
//! Both locking disciplines of the paper are provided: [`LeafTree::new`]
//! uses try-locks (restart on busy), [`LeafTree::new_strict`] uses strict
//! locks (wait for the holder — helping it first in lock-free mode).

use flock_api::{Key, Map, Value};
use flock_core::{Lock, Mutable, Sp, UpdateOnce, ValueSlot};
use flock_sync::{ApproxLen, Backoff};

const KIND_INTERNAL: u8 = 0;
const KIND_LEAF: u8 = 1;
/// Placeholder leaf for an empty tree (no key).
const KIND_EMPTY: u8 = 2;

struct Node<K: Key, V: Value> {
    // Internal-node fields (unused in leaves).
    left: Mutable<*mut Node<K, V>>,
    right: Mutable<*mut Node<K, V>>,
    removed: UpdateOnce<bool>,
    lock: Lock,
    /// Routing key for internals; element key for leaves. `None` only on
    /// the root (which routes everything left) and the empty placeholder.
    key: Option<K>,
    /// Element value slot (leaves only): mutable in place under the leaf's
    /// **parent** lock — the lock every structural change to the leaf's
    /// child cell takes — so native `update` serializes with insert-split
    /// and remove while readers snapshot without locks.
    value: Option<ValueSlot<V>>,
    kind: u8,
    /// The root internal node routes everything left (acts as +inf).
    is_root: bool,
}

impl<K: Key, V: Value> Node<K, V> {
    fn internal(key: K, left: *mut Node<K, V>, right: *mut Node<K, V>) -> Self {
        Self {
            left: Mutable::new(left),
            right: Mutable::new(right),
            removed: UpdateOnce::new(false),
            lock: Lock::new(),
            key: Some(key),
            value: None,
            kind: KIND_INTERNAL,
            is_root: false,
        }
    }

    /// The root pseudo-internal: no key, routes everything left.
    fn root(left: *mut Node<K, V>) -> Self {
        Self {
            left: Mutable::new(left),
            right: Mutable::new(std::ptr::null_mut()),
            removed: UpdateOnce::new(false),
            lock: Lock::new(),
            key: None,
            value: None,
            kind: KIND_INTERNAL,
            is_root: true,
        }
    }

    fn leaf(key: K, value: V) -> Self {
        Self {
            left: Mutable::new(std::ptr::null_mut()),
            right: Mutable::new(std::ptr::null_mut()),
            removed: UpdateOnce::new(false),
            lock: Lock::new(),
            key: Some(key),
            value: Some(ValueSlot::new(value)),
            kind: KIND_LEAF,
            is_root: false,
        }
    }

    fn empty_leaf() -> Self {
        Self {
            left: Mutable::new(std::ptr::null_mut()),
            right: Mutable::new(std::ptr::null_mut()),
            removed: UpdateOnce::new(false),
            lock: Lock::new(),
            key: None,
            value: None,
            kind: KIND_EMPTY,
            is_root: false,
        }
    }

    /// Which child does `k` route to?
    #[inline]
    fn child_for(&self, k: &K) -> &Mutable<*mut Node<K, V>> {
        if self.is_root || self.key.as_ref().is_some_and(|x| k < x) {
            &self.left
        } else {
            &self.right
        }
    }

    /// Is this a real leaf holding exactly `k`?
    #[inline]
    fn holds(&self, k: &K) -> bool {
        self.kind == KIND_LEAF && self.key.as_ref() == Some(k)
    }
}

/// Leaf-oriented unbalanced BST map.
pub struct LeafTree<K: Key, V: Value> {
    root: *mut Node<K, V>,
    strict: bool,
    label: &'static str,
    /// Maintained element count backing `len_approx`.
    count: ApproxLen,
}

// SAFETY: mutation via Flock locks + epoch reclamation; root immutable.
unsafe impl<K: Key, V: Value> Send for LeafTree<K, V> {}
unsafe impl<K: Key, V: Value> Sync for LeafTree<K, V> {}

impl<K: Key, V: Value> Default for LeafTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Acquire `lock` with the structure's discipline and run `f`.
///
/// Strict locks always acquire (waiting/helping), so they can never report
/// busy; the try-lock discipline surfaces busy as `None`.
#[inline]
fn acquire<R, F>(lock: &Lock, strict: bool, f: F) -> Option<R>
where
    R: Send + 'static,
    F: Fn() -> R + Send + Sync + 'static,
{
    if strict {
        Some(lock.lock(f))
    } else {
        lock.try_lock(f)
    }
}

impl<K: Key, V: Value> LeafTree<K, V> {
    /// An empty tree using try-locks (the paper's preferred discipline).
    pub fn new() -> Self {
        Self::build(false, "leaftree")
    }

    /// An empty tree using strict locks (waits instead of restarting).
    pub fn new_strict() -> Self {
        Self::build(true, "leaftree-strict")
    }

    fn build(strict: bool, label: &'static str) -> Self {
        let empty = flock_epoch::alloc(Node::empty_leaf());
        Self {
            root: flock_epoch::alloc(Node::root(empty)),
            strict,
            label,
            count: ApproxLen::new(),
        }
    }

    /// Lock-free search: returns `(grandparent, parent, leaf)` for `k`.
    /// `grandparent` is null when `parent` is the root.
    #[allow(clippy::type_complexity)]
    fn search(&self, k: &K) -> (*mut Node<K, V>, *mut Node<K, V>, *mut Node<K, V>) {
        let mut gparent = std::ptr::null_mut();
        let mut parent = self.root;
        // SAFETY: caller pinned; nodes epoch-reclaimed.
        let mut cur = unsafe { (*parent).child_for(k).load() };
        while unsafe { &*cur }.kind == KIND_INTERNAL {
            gparent = parent;
            parent = cur;
            cur = unsafe { &*cur }.child_for(k).load();
        }
        (gparent, parent, cur)
    }

    /// Insert; `false` if present.
    pub fn insert(&self, k: K, v: V) -> bool {
        let _g = flock_epoch::pin();
        let mut backoff = Backoff::new();
        loop {
            let (_, parent, leaf) = self.search(&k);
            // SAFETY: epoch-pinned.
            let leaf_ref = unsafe { &*leaf };
            if leaf_ref.holds(&k) {
                return false;
            }
            let (sp_parent, sp_leaf) = (Sp(parent), Sp(leaf));
            let (k2, v2) = (k.clone(), v.clone());
            // SAFETY: epoch-pinned.
            let outcome = acquire(&unsafe { &*parent }.lock, self.strict, move || {
                // SAFETY: thunk runners hold epoch protection.
                let p = unsafe { sp_parent.as_ref() };
                let l = unsafe { sp_leaf.as_ref() };
                let cell = p.child_for(&k2);
                if p.removed.load() || cell.load() != sp_leaf.ptr() {
                    return false; // validate
                }
                if l.kind == KIND_EMPTY {
                    // Empty slot: replace placeholder with the new leaf.
                    let newl = flock_core::alloc(|| Node::leaf(k2.clone(), v2.clone()));
                    cell.store(newl);
                    // SAFETY: placeholder unlinked above; retired once.
                    unsafe { flock_core::retire(sp_leaf.ptr()) };
                    return true;
                }
                // Split: new internal with the old leaf and the new leaf.
                // Both allocations are their own idempotent allocs: a
                // nested plain `flock_epoch::alloc` inside the internal
                // node's init closure would leak one leaf per replayed run
                // (the loser's outer node is freed, but a plain nested
                // allocation inside it is not).
                let lk = l.key.clone().expect("real leaf has a key");
                let new_leaf = flock_core::alloc(|| Node::leaf(k2.clone(), v2.clone()));
                let newn = flock_core::alloc(|| {
                    if k2 < lk {
                        Node::internal(lk.clone(), new_leaf, sp_leaf.ptr())
                    } else {
                        Node::internal(k2.clone(), sp_leaf.ptr(), new_leaf)
                    }
                });
                cell.store(newn);
                true
            });
            match outcome {
                Some(true) => {
                    self.count.inc();
                    return true;
                }
                Some(false) => {}         // validation failed: re-search now
                None => backoff.snooze(), // parent lock busy (try-lock mode)
            }
        }
    }

    /// Remove; `false` if absent.
    pub fn remove(&self, k: K) -> bool {
        let _g = flock_epoch::pin();
        let mut backoff = Backoff::new();
        loop {
            let (gparent, parent, leaf) = self.search(&k);
            // SAFETY: epoch-pinned.
            let leaf_ref = unsafe { &*leaf };
            if !leaf_ref.holds(&k) {
                return false;
            }
            let outcome = if gparent.is_null() {
                // Leaf hangs directly off the root: swap in a placeholder.
                let (sp_parent, sp_leaf) = (Sp(parent), Sp(leaf));
                let k2 = k.clone();
                // SAFETY: epoch-pinned; parent == root.
                acquire(&unsafe { &*parent }.lock, self.strict, move || {
                    // SAFETY: thunk runners hold epoch protection.
                    let p = unsafe { sp_parent.as_ref() };
                    let cell = p.child_for(&k2);
                    if cell.load() != sp_leaf.ptr() {
                        return false;
                    }
                    let empty = flock_core::alloc(Node::empty_leaf);
                    cell.store(empty);
                    // SAFETY: unlinked above; idempotent retire.
                    unsafe { flock_core::retire(sp_leaf.ptr()) };
                    true
                })
            } else {
                let (sp_g, sp_p, sp_l) = (Sp(gparent), Sp(parent), Sp(leaf));
                let splice = move || {
                    // SAFETY: thunk runners hold epoch protection.
                    let g = unsafe { sp_g.as_ref() };
                    let p = unsafe { sp_p.as_ref() };
                    if g.removed.load() || p.removed.load() {
                        return false;
                    }
                    // Validate the two links and find which side of g the
                    // parent hangs on.
                    let gcell = if g.left.load() == sp_p.ptr() {
                        &g.left
                    } else if g.right.load() == sp_p.ptr() {
                        &g.right
                    } else {
                        return false;
                    };
                    let sibling = if p.left.load() == sp_l.ptr() {
                        p.right.load()
                    } else if p.right.load() == sp_l.ptr() {
                        p.left.load()
                    } else {
                        return false;
                    };
                    p.removed.store(true);
                    gcell.store(sibling); // splice parent + leaf out
                    // SAFETY: both unlinked above; idempotent retires.
                    unsafe {
                        flock_core::retire(sp_p.ptr());
                        flock_core::retire(sp_l.ptr());
                    }
                    true
                };
                // Ancestor-first lock order: grandparent, then parent. A
                // lock set has no waiting form, so strict mode nests.
                // SAFETY: epoch-pinned; runners adopt this epoch, so both
                // locks outlive them.
                let (g, p) = unsafe { (&*gparent, &*parent) };
                if self.strict {
                    Some(g.lock.lock(move || {
                        // SAFETY: as above.
                        unsafe { sp_p.as_ref() }.lock.lock(splice)
                    }))
                } else {
                    // SAFETY: as above.
                    unsafe { g.lock.try_lock_set([&p.lock], splice) }
                }
            };
            match outcome {
                Some(true) => {
                    self.count.dec();
                    return true;
                }
                Some(false) => {}         // validation failed: re-search now
                None => backoff.snooze(), // an ancestor lock was busy
            }
        }
    }

    /// Optimistic variant of [`LeafTree::search`]: plain `Acquire` child
    /// loads (no thunk-log traffic), returning only `(parent, leaf)`.
    fn search_acquire(&self, k: &K) -> (*mut Node<K, V>, *mut Node<K, V>) {
        let mut parent = self.root;
        // SAFETY: caller pinned; nodes epoch-reclaimed.
        let mut cur = unsafe { (*parent).child_for(k).load_acquire() };
        while unsafe { &*cur }.kind == KIND_INTERNAL {
            parent = cur;
            cur = unsafe { &*cur }.child_for(k).load_acquire();
        }
        (parent, cur)
    }

    /// Wait-free lookup — optimistic version-validated fast path with a
    /// bounded fallback to the committed read. The leaf's **parent** lock
    /// is the owning lock (every structural change to the leaf's child
    /// cell and every in-place value update acquires it), so an unchanged
    /// parent version across the read proves the `(key, value)` pair was
    /// simultaneously present.
    pub fn get(&self, k: K) -> Option<V> {
        let _g = flock_epoch::pin();
        flock_core::read_validated(
            || {
                let (parent, leaf) = self.search_acquire(&k);
                // SAFETY: epoch-pinned.
                let (p, l) = unsafe { (&*parent, &*leaf) };
                if !l.holds(&k) {
                    return Some(None); // absence needs no validation
                }
                let v0 = p.lock.version()?;
                if p.removed.load() || p.child_for(&k).load_acquire() != leaf {
                    return None; // stale path: retry / fall back
                }
                let v = l.value.as_ref().map(ValueSlot::read_acquire);
                p.lock.validate(v0).then_some(v)
            },
            || {
                let (_, _, leaf) = self.search(&k);
                // SAFETY: epoch-pinned.
                let l = unsafe { &*leaf };
                if l.holds(&k) {
                    l.value.as_ref().map(ValueSlot::read)
                } else {
                    None
                }
            },
        )
    }

    /// Presence-only lookup: leaf keys are immutable, so the search plus
    /// the key check suffices — no value decode, no clone, no validation.
    /// (Inside a thunk the committed search keeps helper replays
    /// deterministic.)
    pub fn contains(&self, k: &K) -> bool {
        let _g = flock_epoch::pin();
        if flock_core::in_thunk() {
            let (_, _, leaf) = self.search(k);
            // SAFETY: epoch-pinned.
            return unsafe { &*leaf }.holds(k);
        }
        let (_, leaf) = self.search_acquire(k);
        // SAFETY: epoch-pinned.
        unsafe { &*leaf }.holds(k)
    }

    /// Ordered range scan (see [`flock_api::OrderedMap`] for the
    /// consistency contract): an in-order routing-key-pruned walk reading
    /// each leaf's value under its parent lock's version, with a bounded
    /// fallback to the committed per-slot read.
    pub fn range(&self, lo: std::ops::Bound<&K>, hi: std::ops::Bound<&K>) -> Vec<(K, V)> {
        let _g = flock_epoch::pin();
        let mut out = Vec::new();
        // SAFETY: pinned walk.
        unsafe {
            self.range_walk(
                self.root,
                (*self.root).left.load_acquire(),
                lo,
                hi,
                &mut out,
            )
        };
        out
    }

    unsafe fn range_walk(
        &self,
        parent: *mut Node<K, V>,
        n: *mut Node<K, V>,
        lo: std::ops::Bound<&K>,
        hi: std::ops::Bound<&K>,
        out: &mut Vec<(K, V)>,
    ) {
        // SAFETY: pinned per caller.
        let node = unsafe { &*n };
        match node.kind {
            KIND_EMPTY => {}
            KIND_LEAF => {
                let k = node.key.clone().expect("real leaf has a key");
                if !flock_api::key_in_range(&k, lo, hi) {
                    return;
                }
                // SAFETY: pinned.
                let p = unsafe { &*parent };
                let v = flock_core::read_validated(
                    || {
                        let v0 = p.lock.version()?;
                        let v = node.value.as_ref().map(ValueSlot::read_acquire);
                        p.lock.validate(v0).then_some(v)
                    },
                    || node.value.as_ref().map(ValueSlot::read),
                );
                if let Some(v) = v {
                    out.push((k, v));
                }
            }
            _ => {
                // Internal: left subtree < key, right subtree >= key.
                let x = node.key.as_ref().expect("internal has a routing key");
                if flock_api::key_above_lower(x, lo) {
                    // The left subtree (keys < x) can still intersect.
                    unsafe { self.range_walk(n, node.left.load_acquire(), lo, hi, out) };
                }
                if flock_api::key_below_upper(x, hi) {
                    unsafe { self.range_walk(n, node.right.load_acquire(), lo, hi, out) };
                }
            }
        }
    }

    /// Native atomic update: replace the value stored under `k` in place —
    /// one idempotent slot store under the leaf's **parent** lock. Returns
    /// `false` (storing nothing) if `k` is absent.
    ///
    /// The parent's lock guards the child cell through which every
    /// structural change to this leaf goes (insert-split replaces the leaf,
    /// both remove paths hold the parent's lock before splicing), so
    /// validating `cell == leaf && !parent.removed` under it pins "the key
    /// is present" for the whole thunk: readers see the old value or the
    /// new one, never absence or a third value.
    pub fn update(&self, k: K, v: V) -> bool {
        let _g = flock_epoch::pin();
        let mut backoff = Backoff::new();
        loop {
            let (_, parent, leaf) = self.search(&k);
            // SAFETY: epoch-pinned.
            let leaf_ref = unsafe { &*leaf };
            if !leaf_ref.holds(&k) {
                return false;
            }
            let (sp_parent, sp_leaf) = (Sp(parent), Sp(leaf));
            let (k2, v2) = (k.clone(), v.clone());
            // SAFETY: epoch-pinned.
            let outcome = acquire(&unsafe { &*parent }.lock, self.strict, move || {
                // SAFETY: thunk runners hold epoch protection.
                let p = unsafe { sp_parent.as_ref() };
                let l = unsafe { sp_leaf.as_ref() };
                let cell = p.child_for(&k2);
                if p.removed.load() || cell.load() != sp_leaf.ptr() {
                    return false; // leaf replaced/spliced: re-search
                }
                l.value
                    .as_ref()
                    .expect("real leaf has a value slot")
                    .set(v2.clone());
                true
            });
            match outcome {
                Some(true) => return true,
                Some(false) => {}         // validation failed: re-search now
                None => backoff.snooze(), // parent lock busy (try-lock mode)
            }
        }
    }

    /// Element count (O(n) walk; tests/diagnostics).
    pub fn len(&self) -> usize {
        let _g = flock_epoch::pin();
        // SAFETY: pinned; quiescent callers get exact counts.
        unsafe { Self::count_nodes((*self.root).left.load()) }
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    unsafe fn count_nodes(n: *mut Node<K, V>) -> usize {
        // SAFETY: pinned walk per caller.
        let node = unsafe { &*n };
        match node.kind {
            KIND_LEAF => 1,
            KIND_EMPTY => 0,
            _ => unsafe {
                Self::count_nodes(node.left.load()) + Self::count_nodes(node.right.load())
            },
        }
    }

    /// Ordered snapshot — single-threaded use.
    pub fn collect(&self) -> Vec<(K, V)> {
        let _g = flock_epoch::pin();
        let mut out = Vec::new();
        // SAFETY: pinned walk.
        unsafe { Self::walk((*self.root).left.load(), &mut out) };
        out
    }

    unsafe fn walk(n: *mut Node<K, V>, out: &mut Vec<(K, V)>) {
        // SAFETY: pinned walk per caller.
        let node = unsafe { &*n };
        match node.kind {
            KIND_LEAF => {
                if let (Some(k), Some(v)) =
                    (node.key.clone(), node.value.as_ref().map(ValueSlot::read))
                {
                    out.push((k, v));
                }
            }
            KIND_EMPTY => {}
            _ => unsafe {
                Self::walk(node.left.load(), out);
                Self::walk(node.right.load(), out);
            },
        }
    }

    /// Quiescent invariant check: BST routing holds, all leaves reachable on
    /// the correct side, no removed internals linked.
    pub fn check_invariants(&self) {
        // SAFETY: quiescent per contract.
        unsafe {
            Self::check((*self.root).left.load(), None, None);
        }
    }

    unsafe fn check(n: *mut Node<K, V>, lo: Option<&K>, hi: Option<&K>) {
        // SAFETY: quiescent per caller.
        let node = unsafe { &*n };
        match node.kind {
            KIND_EMPTY => {}
            KIND_LEAF => {
                let k = node.key.as_ref().expect("real leaf has a key");
                if let Some(lo) = lo {
                    assert!(k >= lo, "leaf key below routing bound");
                }
                if let Some(hi) = hi {
                    assert!(k < hi, "leaf key above routing bound");
                }
            }
            _ => {
                assert!(!node.removed.load(), "removed internal reachable");
                let k = node.key.as_ref().expect("internal has a routing key");
                if let Some(lo) = lo {
                    assert!(k >= lo);
                }
                if let Some(hi) = hi {
                    assert!(k <= hi);
                }
                unsafe {
                    Self::check(node.left.load(), lo, Some(k));
                    Self::check(node.right.load(), Some(k), hi);
                }
            }
        }
    }
}

impl<K: Key, V: Value> Drop for LeafTree<K, V> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; retired nodes belong to the collector.
        unsafe fn free<K: Key, V: Value>(n: *mut Node<K, V>) {
            if n.is_null() {
                return;
            }
            // SAFETY: exclusive teardown.
            unsafe {
                let node = &*n;
                if node.kind == KIND_INTERNAL {
                    free(node.left.load());
                    free(node.right.load());
                }
                flock_epoch::free_now(n);
            }
        }
        // SAFETY: exclusive access.
        unsafe {
            free((*self.root).left.load());
            flock_epoch::free_now(self.root);
        }
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
        self.label
    }
    fn update(&self, key: K, value: V) -> bool {
        LeafTree::update(self, key, value)
    }
    fn has_atomic_update(&self) -> bool {
        true
    }
    fn len_approx(&self) -> Option<usize> {
        Some(self.count.get())
    }
}

impl<K: Key, V: Value> flock_api::OrderedMap<K, V> for LeafTree<K, V> {
    fn range(&self, lo: std::ops::Bound<&K>, hi: std::ops::Bound<&K>) -> Vec<(K, V)> {
        LeafTree::range(self, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_api::testing as testutil;

    #[test]
    fn native_update_in_place() {
        testutil::both_modes(|| {
            for t in [LeafTree::<u64, u64>::new(), LeafTree::new_strict()] {
                assert!(!t.update(1, 10), "update of an absent key refused");
                assert!(t.insert(1, 10));
                assert!(t.insert(2, 20));
                assert!(t.update(1, 11));
                assert_eq!(t.get(1), Some(11));
                assert_eq!(t.len(), 2, "update must not change the count");
                assert!(t.remove(1));
                assert!(!t.update(1, 12));
                t.check_invariants();
            }
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
