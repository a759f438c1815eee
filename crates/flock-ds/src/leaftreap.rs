//! Leaf-oriented balanced BST (treap) with multi-entry leaves — the paper's
//! `leaftreap` (§7): "a leaf-oriented balanced BST with an optimization that
//! stores a batch of key-value pairs (up to 2 cachelines worth) in each leaf
//! to minimize height". Generic over `(K, V)`.
//!
//! * **Leaves** hold up to [`LEAF_CAP`] sorted key-value pairs and are
//!   immutable: every modification copies the leaf and swings the parent's
//!   child pointer (one idempotent store) — so readers always see a
//!   consistent batch. Fat values ride inside the copied batch (the batch
//!   is part of the epoch-reclaimed node).
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
use std::ops::{Bound, ControlFlow};

use flock_api::{Key, Map, OrderedMap, Value, key_above_lower, key_below_upper, key_in_range};
use flock_core::{Lock, Mutable, Sp, ValueSlot};
use flock_sync::{ApproxLen, Backoff};

use crate::hashtable::FlockHashBuilder;

/// Entries per leaf: 2 cachelines of 8-byte keys / 8-byte values.
pub const LEAF_CAP: usize = 8;

const KIND_INTERNAL: u8 = 0;
const KIND_LEAF: u8 = 1;

/// Deterministic treap priority for a routing key.
fn prio_of<K: Key>(k: &K) -> u64 {
    FlockHashBuilder.hash_one(k)
}

struct Node<K: Key, V: Value> {
    left: Mutable<*mut Node<K, V>>,
    right: Mutable<*mut Node<K, V>>,
    /// Marked obsolete by the rotation or splice that unlinks the node.
    lock: Lock,
    /// Routing key (internals; `None` on the root and on leaves — leaves
    /// are located by search position, not key).
    key: Option<K>,
    /// Treap priority (internal only).
    prio: u64,
    kind: u8,
    is_root: bool,
    /// Sorted batch (leaves only). The *key set* is immutable after
    /// construction (membership changes copy the leaf), but each entry's
    /// value lives in a [`ValueSlot`] mutable in place under the leaf's
    /// **parent** lock — native `update` without copying the batch.
    entries: Vec<(K, ValueSlot<V>)>,
}

impl<K: Key, V: Value> Node<K, V> {
    fn internal(key: K, left: *mut Node<K, V>, right: *mut Node<K, V>) -> Self {
        let prio = prio_of(&key);
        Self {
            left: Mutable::new(left),
            right: Mutable::new(right),
            lock: Lock::new(),
            key: Some(key),
            prio,
            kind: KIND_INTERNAL,
            is_root: false,
            entries: Vec::new(),
        }
    }

    fn root(left: *mut Node<K, V>) -> Self {
        Self {
            left: Mutable::new(left),
            right: Mutable::new(std::ptr::null_mut()),
            lock: Lock::new(),
            key: None,
            prio: u64::MAX, // the root never loses a priority comparison
            kind: KIND_INTERNAL,
            is_root: true,
            entries: Vec::new(),
        }
    }

    fn leaf(entries: &[(K, V)]) -> Self {
        debug_assert!(entries.len() <= LEAF_CAP);
        Self {
            left: Mutable::new(std::ptr::null_mut()),
            right: Mutable::new(std::ptr::null_mut()),
            lock: Lock::new(),
            key: None,
            prio: 0,
            kind: KIND_LEAF,
            is_root: false,
            entries: entries
                .iter()
                .map(|(k, v)| (k.clone(), ValueSlot::new(v.clone())))
                .collect(),
        }
    }

    #[inline]
    fn child_for(&self, k: &K) -> &Mutable<*mut Node<K, V>> {
        if self.is_root || self.key.as_ref().is_some_and(|x| k < x) {
            &self.left
        } else {
            &self.right
        }
    }

    /// Position of `k` in this leaf's batch, if present.
    #[inline]
    fn find(&self, k: &K) -> Option<usize> {
        self.entries.iter().position(|(x, _)| x == k)
    }

    /// Value snapshot of the batch (for copy-on-write paths). Inside a
    /// thunk every slot read is committed, so all runners copy the same
    /// batch.
    fn entries_snapshot(&self) -> Vec<(K, V)> {
        self.entries
            .iter()
            .map(|(k, s)| (k.clone(), s.read()))
            .collect()
    }
}

/// Leaf-oriented treap map with batched leaves.
pub struct LeafTreap<K: Key, V: Value> {
    root: *mut Node<K, V>,
    /// Maintained element count backing `len_approx`.
    count: ApproxLen,
}

// SAFETY: mutation via Flock locks + epoch reclamation; root immutable.
unsafe impl<K: Key, V: Value> Send for LeafTreap<K, V> {}
unsafe impl<K: Key, V: Value> Sync for LeafTreap<K, V> {}

impl<K: Key, V: Value> Default for LeafTreap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Value> LeafTreap<K, V> {
    /// An empty treap.
    pub fn new() -> Self {
        let empty = flock_epoch::alloc(Node::leaf(&[]));
        Self {
            root: flock_epoch::alloc(Node::root(empty)),
            count: ApproxLen::new(),
        }
    }

    /// Lock-free search: `(grandparent, parent, leaf)`; grandparent is null
    /// when the parent is the root.
    #[allow(clippy::type_complexity)]
    fn search(&self, k: &K) -> (*mut Node<K, V>, *mut Node<K, V>, *mut Node<K, V>) {
        let mut g = std::ptr::null_mut();
        let mut p = self.root;
        // SAFETY: caller pinned; nodes epoch-reclaimed.
        let mut c = unsafe { (*p).child_for(k).load() };
        while unsafe { &*c }.kind == KIND_INTERNAL {
            g = p;
            p = c;
            c = unsafe { &*c }.child_for(k).load();
        }
        (g, p, c)
    }

    /// Insert; `false` if present.
    pub fn insert(&self, k: K, v: V) -> bool {
        let _g = flock_epoch::pin();
        let mut backoff = Backoff::new();
        loop {
            let (_, parent, leaf) = self.search(&k);
            // SAFETY: epoch-pinned.
            let leaf_ref = unsafe { &*leaf };
            if leaf_ref.find(&k).is_some() {
                return false;
            }
            let (sp_p, sp_l) = (Sp(parent), Sp(leaf));
            let (k2, v2) = (k.clone(), v.clone());
            // SAFETY: epoch-pinned.
            let outcome = unsafe { &*parent }.lock.try_lock(move || {
                // SAFETY: thunk runners hold epoch protection.
                let p = unsafe { sp_p.as_ref() };
                let l = unsafe { sp_l.as_ref() };
                let cell = p.child_for(&k2);
                if cell.load() != sp_l.ptr() {
                    return false; // validate
                }
                let mut entries = l.entries_snapshot();
                let pos = entries.partition_point(|(ek, _)| ek < &k2);
                entries.insert(pos, (k2.clone(), v2.clone()));
                if entries.len() <= LEAF_CAP {
                    let newl = flock_core::alloc(move || Node::leaf(&entries));
                    cell.store(newl);
                } else {
                    // Split into two half-leaves under a new routing node.
                    // Three separate idempotent allocs: nesting the leaf
                    // allocations inside the routing node's init closure
                    // would leak both halves on every replayed run.
                    let mid = entries.len() / 2;
                    let split_key = entries[mid].0.clone();
                    let lo = entries[..mid].to_vec();
                    let hi = entries[mid..].to_vec();
                    let left = flock_core::alloc(|| Node::leaf(&lo));
                    let right = flock_core::alloc(|| Node::leaf(&hi));
                    let newi =
                        flock_core::alloc(move || Node::internal(split_key.clone(), left, right));
                    cell.store(newi);
                }
                // SAFETY: old leaf unlinked above; idempotent retire.
                unsafe { flock_core::retire(sp_l.ptr()) };
                true
            });
            match outcome {
                Some(true) => {
                    // A split may have violated heap order; bubble the new
                    // routing node up. Balance repair is separate from the
                    // insert's linearization point.
                    self.fix_priorities(&k);
                    self.count.inc();
                    return true;
                }
                Some(false) => {}         // validation failed: re-search now
                None => backoff.snooze(), // parent lock busy
            }
        }
    }

    /// Restore the treap's max-heap priority order along `k`'s search path
    /// by rotating violating nodes upward, one COW rotation at a time.
    fn fix_priorities(&self, k: &K) {
        let mut backoff = Backoff::new();
        'outer: loop {
            // Find the first violation (child.prio > parent.prio) on the
            // path; the root's +inf priority stops the bubble at the top.
            let mut g = self.root;
            // SAFETY: pinned by callers of insert; nodes epoch-reclaimed.
            let mut p = unsafe { (*g).child_for(k).load() };
            if unsafe { &*p }.kind != KIND_INTERNAL {
                return;
            }
            loop {
                let c = unsafe { &*p }.child_for(k).load();
                // SAFETY: pinned.
                let c_ref = unsafe { &*c };
                if c_ref.kind != KIND_INTERNAL {
                    return; // reached the leaf: no violations on this path
                }
                if c_ref.prio > unsafe { &*p }.prio {
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

    /// Remove; `false` if absent.
    pub fn remove(&self, k: K) -> bool {
        let _g = flock_epoch::pin();
        let mut backoff = Backoff::new();
        loop {
            let (gparent, parent, leaf) = self.search(&k);
            // SAFETY: epoch-pinned.
            let leaf_ref = unsafe { &*leaf };
            if leaf_ref.find(&k).is_none() {
                return false;
            }
            let outcome = if leaf_ref.entries.len() > 1 || gparent.is_null() {
                // Shrink the batch (COW); also covers the directly-under-root
                // case, where an empty leaf may remain.
                let (sp_p, sp_l) = (Sp(parent), Sp(leaf));
                let k2 = k.clone();
                // SAFETY: epoch-pinned.
                unsafe { &*parent }.lock.try_lock(move || {
                    // SAFETY: thunk runners hold epoch protection.
                    let p = unsafe { sp_p.as_ref() };
                    let l = unsafe { sp_l.as_ref() };
                    let cell = p.child_for(&k2);
                    if cell.load() != sp_l.ptr() {
                        return false;
                    }
                    let Some(pos) = l.find(&k2) else { return false };
                    let mut entries = l.entries_snapshot();
                    entries.remove(pos);
                    let newl = flock_core::alloc(move || Node::leaf(&entries));
                    cell.store(newl);
                    // SAFETY: unlinked above; idempotent retire.
                    unsafe { flock_core::retire(sp_l.ptr()) };
                    true
                })
            } else {
                // Last entry of a non-root leaf: splice leaf + parent out.
                let (sp_g, sp_p, sp_l) = (Sp(gparent), Sp(parent), Sp(leaf));
                let k2 = k.clone();
                let splice = move || {
                    // SAFETY: thunk runners hold epoch protection.
                    let g = unsafe { sp_g.as_ref() };
                    let p = unsafe { sp_p.as_ref() };
                    let l = unsafe { sp_l.as_ref() };
                    if l.find(&k2).is_none() {
                        return false;
                    }
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
                    p.lock.mark_obsolete();
                    gcell.store(sibling);
                    // SAFETY: both unlinked above; idempotent retires.
                    unsafe {
                        flock_core::retire(sp_p.ptr());
                        flock_core::retire(sp_l.ptr());
                    }
                    true
                };
                // SAFETY: epoch-pinned; runners adopt this epoch, so both
                // locks outlive them.
                unsafe { (*gparent).lock.try_lock_set([&(*parent).lock], splice) }
            };
            match outcome {
                Some(true) => {
                    self.count.dec();
                    return true;
                }
                Some(false) => {}         // validation failed: re-search now
                None => backoff.snooze(), // a lock on the path was busy
            }
        }
    }

    /// Lock-free search with plain `Acquire` loads: `(parent, leaf)`.
    /// Used by the optimistic read paths, which never log their loads.
    fn search_acquire(&self, k: &K) -> (*mut Node<K, V>, *mut Node<K, V>) {
        let mut p = self.root;
        // SAFETY: caller pinned; nodes epoch-reclaimed.
        let mut c = unsafe { (*p).child_for(k).load_acquire() };
        while unsafe { &*c }.kind == KIND_INTERNAL {
            p = c;
            c = unsafe { &*c }.child_for(k).load_acquire();
        }
        (p, c)
    }

    /// Wait-free lookup. Optimistic first: an unlogged `Acquire` descent,
    /// the value slot read bracketed by the leaf's **parent** lock version
    /// (every batch replacement *and* every in-place `update` of this
    /// leaf's slots runs under that lock; rotations and splices mark the
    /// old parent's lock obsolete inside its own critical section). After
    /// [`flock_core::OPTIMISTIC_READ_ATTEMPTS`] failed validations — or
    /// inside a thunk, where unlogged loads would desynchronize helpers —
    /// falls back to the committed-read descent.
    pub fn get(&self, k: K) -> Option<V> {
        let _g = flock_epoch::pin();
        flock_core::read_validated(
            || {
                let (parent, leaf) = self.search_acquire(&k);
                // SAFETY: epoch-pinned.
                let (p, l) = unsafe { (&*parent, &*leaf) };
                let v0 = p.lock.version()?;
                if p.child_for(&k).load_acquire() != leaf {
                    return None;
                }
                let v = l.find(&k).map(|i| l.entries[i].1.read_acquire());
                p.lock.validate(v0).then_some(v)
            },
            || {
                let (_, _, leaf) = self.search(&k);
                // SAFETY: epoch-pinned.
                let l = unsafe { &*leaf };
                l.find(&k).map(|i| l.entries[i].1.read())
            },
        )
    }

    /// Presence check without materializing the value — no slot read, no
    /// decode, no clone (for `Indirect` fat values `get` clones the boxed
    /// payload just to drop it). A leaf's key set is immutable after
    /// construction, so reaching the leaf is itself the linearization
    /// point: no version validation is needed.
    pub fn contains(&self, k: &K) -> bool {
        let _g = flock_epoch::pin();
        if flock_core::in_thunk() {
            // Inside a thunk every load must be logged for replay.
            let (_, _, leaf) = self.search(k);
            // SAFETY: epoch-pinned.
            return unsafe { &*leaf }.find(k).is_some();
        }
        let (_, leaf) = self.search_acquire(k);
        // SAFETY: epoch-pinned.
        unsafe { &*leaf }.find(k).is_some()
    }

    /// Ordered range scan over `[lo, hi]` bounds. Each leaf batch is
    /// snapshot under a parent-lock version bracket (committed per-slot
    /// reads after bounded validation failures), so every reported entry
    /// was simultaneously present at some instant during the scan; see
    /// [`OrderedMap`] for the cross-entry contract.
    pub fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        let _g = flock_epoch::pin();
        let mut out = Vec::new();
        self.walk_from_root(lo, hi, &mut out);
        out
    }

    /// [`LeafTreap::range`]'s walk, restarted as [`crate::walk_restarting`]
    /// says. The caller is pinned.
    fn walk_from_root(&self, lo: Bound<&K>, hi: Bound<&K>, out: &mut Vec<(K, V)>) {
        crate::walk_restarting(lo, out, |from, out| {
            // SAFETY: pinned walk from the pseudo-root.
            unsafe { self.range_walk(self.root, (*self.root).left.load_acquire(), from, hi, out) }
        });
    }

    /// In-order walk pruned by the routing keys (left subtree `< x`,
    /// right subtree `>= x`). `parent` is the internal node whose child
    /// cell yielded `n` — its lock owns `n`'s slots when `n` is a leaf.
    /// `Break` = the walk reached a leaf of an obsolete parent.
    unsafe fn range_walk(
        &self,
        parent: *mut Node<K, V>,
        n: *mut Node<K, V>,
        lo: Bound<&K>,
        hi: Bound<&K>,
        out: &mut Vec<(K, V)>,
    ) -> ControlFlow<()> {
        // SAFETY: pinned per caller.
        let node = unsafe { &*n };
        if node.kind == KIND_LEAF {
            // SAFETY: pinned per caller.
            let p = unsafe { &*parent };
            let snap = |read: fn(&ValueSlot<V>) -> V| -> Vec<(K, V)> {
                node.entries
                    .iter()
                    .map(|(k, s)| (k.clone(), read(s)))
                    .collect()
            };
            // `None`: the parent is obsolete, restart.
            let snap = flock_core::read_validated(
                || {
                    let v0 = p.lock.version()?;
                    let e = snap(ValueSlot::read_acquire);
                    p.lock.validate(v0).then_some(Some(e))
                },
                || {
                    let e = snap(ValueSlot::read);
                    (!p.lock.is_obsolete()).then_some(e)
                },
            );
            let Some(snap) = snap else {
                return ControlFlow::Break(());
            };
            out.extend(snap.into_iter().filter(|(k, _)| key_in_range(k, lo, hi)));
            return ControlFlow::Continue(());
        }
        let x = node.key.as_ref().expect("non-root internal has a key");
        if key_above_lower(x, lo) {
            // Left subtree holds keys `< x`; skip it when they all fall
            // below the lower bound.
            let l = node.left.load_acquire();
            unsafe { self.range_walk(n, l, lo, hi, out) }?;
        }
        if key_below_upper(x, hi) {
            let r = node.right.load_acquire();
            unsafe { self.range_walk(n, r, lo, hi, out) }?;
        }
        ControlFlow::Continue(())
    }

    /// Native atomic update: replace the value stored under `k` in place —
    /// one idempotent slot store under the leaf's **parent** lock (the lock
    /// every copy-on-write replacement of this leaf takes), with the parent
    /// link validated under it. Returns `false` if `k` is absent. Readers
    /// see the old value or the new one, never absence or a third value —
    /// and the batch is not copied.
    pub fn update(&self, k: K, v: V) -> bool {
        let _g = flock_epoch::pin();
        let mut backoff = Backoff::new();
        loop {
            let (_, parent, leaf) = self.search(&k);
            // SAFETY: epoch-pinned.
            let leaf_ref = unsafe { &*leaf };
            if leaf_ref.find(&k).is_none() {
                return false;
            }
            let (sp_p, sp_l) = (Sp(parent), Sp(leaf));
            let (k2, v2) = (k.clone(), v.clone());
            // SAFETY: epoch-pinned.
            let outcome = unsafe { &*parent }.lock.try_lock(move || {
                // SAFETY: thunk runners hold epoch protection.
                let p = unsafe { sp_p.as_ref() };
                let l = unsafe { sp_l.as_ref() };
                let cell = p.child_for(&k2);
                if cell.load() != sp_l.ptr() {
                    return false; // leaf replaced under us: re-search
                }
                let Some(pos) = l.find(&k2) else { return false };
                l.entries[pos].1.set(v2.clone());
                true
            });
            match outcome {
                Some(true) => return true,
                Some(false) => {}         // validation failed: re-search now
                None => backoff.snooze(), // parent lock busy
            }
        }
    }

    /// Element count (O(n) walk; tests/diagnostics).
    pub fn len(&self) -> usize {
        let _g = flock_epoch::pin();
        // SAFETY: pinned walk.
        unsafe { Self::count_entries((*self.root).left.load()) }
    }

    /// Is the treap empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    unsafe fn count_entries(n: *mut Node<K, V>) -> usize {
        // SAFETY: pinned per caller.
        let node = unsafe { &*n };
        if node.kind == KIND_LEAF {
            node.entries.len()
        } else {
            unsafe {
                Self::count_entries(node.left.load()) + Self::count_entries(node.right.load())
            }
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
        // SAFETY: pinned per caller.
        let node = unsafe { &*n };
        if node.kind == KIND_LEAF {
            out.extend(node.entries_snapshot());
        } else {
            unsafe {
                Self::walk(node.left.load(), out);
                Self::walk(node.right.load(), out);
            }
        }
    }

    /// Quiescent invariant check: BST routing, heap priority order, sorted
    /// leaf batches within routing bounds.
    pub fn check_invariants(&self) {
        // SAFETY: quiescent per contract.
        unsafe {
            Self::check((*self.root).left.load(), None, None, u64::MAX);
        }
    }

    unsafe fn check(n: *mut Node<K, V>, lo: Option<&K>, hi: Option<&K>, max_prio: u64) {
        // SAFETY: quiescent per caller.
        let node = unsafe { &*n };
        if node.kind == KIND_LEAF {
            let e = &node.entries;
            assert!(e.windows(2).all(|w| w[0].0 < w[1].0), "unsorted leaf batch");
            for (k, _) in e {
                if let Some(lo) = lo {
                    assert!(k >= lo, "leaf key below bound");
                }
                if let Some(hi) = hi {
                    assert!(k < hi, "leaf key above bound");
                }
            }
        } else {
            assert!(!node.lock.is_obsolete(), "removed routing node reachable");
            assert!(node.prio <= max_prio, "treap heap order violated");
            let k = node.key.as_ref().expect("non-root internal has a key");
            if let Some(lo) = lo {
                assert!(k >= lo);
            }
            if let Some(hi) = hi {
                assert!(k <= hi);
            }
            unsafe {
                Self::check(node.left.load(), lo, Some(k), node.prio);
                Self::check(node.right.load(), Some(k), hi, node.prio);
            }
        }
    }
}

impl<K: Key, V: Value> Drop for LeafTreap<K, V> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; retired nodes belong to the collector.
        unsafe fn free<K: Key, V: Value>(n: *mut Node<K, V>) {
            if n.is_null() {
                return;
            }
            // SAFETY: exclusive teardown.
            unsafe {
                if (*n).kind == KIND_INTERNAL {
                    free((*n).left.load());
                    free((*n).right.load());
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

impl<K: Key, V: Value> Map<K, V> for LeafTreap<K, V> {
    fn insert(&self, key: K, value: V) -> bool {
        LeafTreap::insert(self, key, value)
    }
    fn remove(&self, key: K) -> bool {
        LeafTreap::remove(self, key)
    }
    fn get(&self, key: K) -> Option<V> {
        LeafTreap::get(self, key)
    }
    fn contains(&self, key: K) -> bool {
        LeafTreap::contains(self, &key)
    }
    fn name(&self) -> &'static str {
        "leaftreap"
    }
    fn update(&self, key: K, value: V) -> bool {
        LeafTreap::update(self, key, value)
    }
    fn has_atomic_update(&self) -> bool {
        true
    }
    fn len_approx(&self) -> Option<usize> {
        Some(self.count.get())
    }
}

impl<K: Key, V: Value> OrderedMap<K, V> for LeafTreap<K, V> {
    fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        LeafTreap::range(self, lo, hi)
    }
}

#[cfg(test)]
impl crate::stale_scan::ResumableScan for LeafTreap<u64, u64> {
    fn record(&self, k: u64) -> usize {
        self.search(&k).1 as usize
    }
    unsafe fn resume(&self, at: usize) -> Vec<(u64, u64)> {
        let (mut out, all) = (Vec::new(), Bound::Unbounded);
        // SAFETY: forwarded contract; `at` is an internal, so the parent
        // argument is never read.
        if unsafe { self.range_walk(self.root, at as *mut _, all, all, &mut out) }.is_break() {
            self.walk_from_root(all, all, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_api::testing as testutil;

    #[test]
    fn basic_ops() {
        testutil::both_modes(|| {
            let t: LeafTreap<u64, u64> = LeafTreap::new();
            assert!(t.insert(5, 50));
            assert!(!t.insert(5, 51));
            assert!(t.insert(3, 30));
            assert!(t.insert(8, 80));
            assert_eq!(t.collect(), vec![(3, 30), (5, 50), (8, 80)]);
            assert!(t.remove(5));
            assert_eq!(t.get(5), None);
            assert_eq!(t.get(8), Some(80));
            t.check_invariants();
        });
    }

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
            if node.kind == KIND_LEAF {
                1
            } else {
                1 + unsafe { depth(node.left.load()).max(depth(node.right.load())) }
            }
        }
        // SAFETY: quiescent single-threaded test.
        let d = unsafe { depth((*t.root).left.load()) };
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

    #[test]
    fn native_update_in_place() {
        testutil::both_modes(|| {
            let t: LeafTreap<u64, u64> = LeafTreap::new();
            assert!(!t.update(1, 10), "update of an absent key refused");
            // Fill past one leaf so updates hit interior leaves too.
            for k in 0..64 {
                assert!(t.insert(k, k));
            }
            for k in 0..64 {
                assert!(t.update(k, k + 1000));
            }
            for k in 0..64 {
                assert_eq!(t.get(k), Some(k + 1000));
            }
            assert_eq!(t.len(), 64, "update must not change the count");
            assert!(t.remove(7));
            assert!(!t.update(7, 1));
            t.check_invariants();
        });
    }

    #[test]
    fn oracle() {
        testutil::both_modes(|| {
            let t: LeafTreap<u64, u64> = LeafTreap::new();
            testutil::oracle_check(&t, 4_000, 256, 11);
            t.check_invariants();
        });
    }

    #[test]
    fn concurrent_partitioned() {
        testutil::both_modes(|| {
            let t: LeafTreap<u64, u64> = LeafTreap::new();
            testutil::partition_stress(&t, 4, 1_500);
            t.check_invariants();
        });
    }
}
