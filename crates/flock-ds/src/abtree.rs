//! (a,b)-tree with optimistic fine-grained locking — the paper's `abtree`
//! (§7), in the style of Srivastava-Brown optimistic B-trees. Generic over
//! `(K, V)`.
//!
//! Design rules that keep readers consistent without locks:
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
//!
//! A pseudo-root *anchor* (an internal node with zero keys and one child)
//! removes all root special cases.

use std::ops::{Bound, ControlFlow};

use flock_api::{Key, Map, Value};
use flock_core::{Lock, Mutable, Sp, ValueSlot};
use flock_sync::{ApproxLen, Backoff};

/// Maximum keys per leaf and separators per internal node ("b").
pub const B: usize = 12;

struct Node<K: Key, V: Value> {
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
    vals: Vec<ValueSlot<V>>,
    children: [Mutable<*mut Node<K, V>>; B + 1],
}

impl<K: Key, V: Value> Node<K, V> {
    fn empty_children() -> [Mutable<*mut Node<K, V>>; B + 1] {
        std::array::from_fn(|_| Mutable::new(std::ptr::null_mut()))
    }

    fn leaf(entries: &[(K, V)]) -> Self {
        debug_assert!(entries.len() <= B);
        Self {
            lock: Lock::new(),
            is_leaf: true,
            keys: entries.iter().map(|(k, _)| k.clone()).collect(),
            vals: entries
                .iter()
                .map(|(_, v)| ValueSlot::new(v.clone()))
                .collect(),
            children: Self::empty_children(),
        }
    }

    fn internal(seps: &[K], kids: &[*mut Node<K, V>]) -> Self {
        debug_assert_eq!(kids.len(), seps.len() + 1);
        debug_assert!(seps.len() <= B);
        let children = std::array::from_fn(|i| {
            Mutable::new(if i < kids.len() {
                kids[i]
            } else {
                std::ptr::null_mut()
            })
        });
        Self {
            lock: Lock::new(),
            is_leaf: false,
            keys: seps.to_vec(),
            vals: Vec::new(),
            children,
        }
    }

    /// Index of the child subtree that covers `k`
    /// (child `i` covers keys `< keys[i]`; the last child covers the rest;
    /// equal keys go right).
    #[inline]
    fn route(&self, k: &K) -> usize {
        self.keys.partition_point(|s| s <= k)
    }

    /// Position of `k` in a leaf, if present.
    #[inline]
    fn find(&self, k: &K) -> Option<usize> {
        debug_assert!(self.is_leaf);
        self.keys.iter().position(|x| x == k)
    }

    /// Key/value snapshot of a leaf (for copy-on-write paths). Inside a
    /// thunk every slot read is committed, so all runners copy the same
    /// batch.
    fn leaf_entries(&self) -> Vec<(K, V)> {
        self.keys
            .iter()
            .cloned()
            .zip(self.vals.iter().map(ValueSlot::read))
            .collect()
    }

    fn separators(&self) -> Vec<K> {
        self.keys.clone()
    }

    fn child_ptrs(&self) -> Vec<*mut Node<K, V>> {
        (0..=self.keys.len())
            .map(|i| self.children[i].load())
            .collect()
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.keys.len() == B
    }
}

/// Concurrent (a,b)-tree map.
pub struct ABTree<K: Key, V: Value> {
    /// Pseudo-root: zero keys, single child = the real root.
    anchor: *mut Node<K, V>,
    label: &'static str,
    /// Maintained element count backing `len_approx`.
    count: ApproxLen,
}

// SAFETY: mutation via Flock locks + epoch reclamation; anchor immutable.
unsafe impl<K: Key, V: Value> Send for ABTree<K, V> {}
unsafe impl<K: Key, V: Value> Sync for ABTree<K, V> {}

impl<K: Key, V: Value> Default for ABTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Value> ABTree<K, V> {
    /// An empty tree.
    pub fn new() -> Self {
        Self::with_label("abtree")
    }

    pub(crate) fn with_label(label: &'static str) -> Self {
        let root = flock_epoch::alloc(Node::leaf(&[]));
        let anchor = flock_epoch::alloc(Node::internal(&[], &[root]));
        Self {
            anchor,
            label,
            count: ApproxLen::new(),
        }
    }

    /// Walk to the leaf covering `k`, recording the path
    /// (`anchor` first, leaf last).
    fn path_to(&self, k: &K) -> Vec<*mut Node<K, V>> {
        let mut path = vec![self.anchor];
        // SAFETY: caller pinned; nodes epoch-reclaimed.
        let mut cur = unsafe { (*self.anchor).children[0].load() };
        loop {
            path.push(cur);
            // SAFETY: pinned.
            let n = unsafe { &*cur };
            if n.is_leaf {
                return path;
            }
            cur = n.children[n.route(k)].load();
        }
    }

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
            let g = unsafe { sp_g.as_ref() };
            let p = unsafe { sp_p.as_ref() };
            let c = unsafe { sp_c.as_ref() };
            if !c.is_full() || p.is_full() {
                return false; // stale plan; caller restarts
            }
            // Validate links (find c's slot in p, p's slot in g).
            let gi = g.route(&k2);
            if g.children[gi].load() != sp_p.ptr() {
                return false;
            }
            let pi = p.route(&k2);
            if p.children[pi].load() != sp_c.ptr() {
                return false;
            }
            // Build the two halves of c. c's child cells are stable
            // because we hold c's lock.
            let mid = c.keys.len() / 2;
            let (sep, left_ptr, right_ptr);
            if c.is_leaf {
                let entries = c.leaf_entries();
                sep = entries[mid].0.clone();
                let lo = entries[..mid].to_vec();
                let hi = entries[mid..].to_vec();
                left_ptr = flock_core::alloc(move || Node::leaf(&lo));
                right_ptr = flock_core::alloc(move || Node::leaf(&hi));
            } else {
                let seps = c.separators();
                let kids = c.child_ptrs();
                sep = seps[mid].clone();
                let lsep = seps[..mid].to_vec();
                let lkid = kids[..=mid].to_vec();
                let rsep = seps[mid + 1..].to_vec();
                let rkid = kids[mid + 1..].to_vec();
                let (lk, rk) = (SendPtrs(lkid), SendPtrs(rkid));
                left_ptr = flock_core::alloc(move || Node::internal(&lsep, &lk.0));
                right_ptr = flock_core::alloc(move || Node::internal(&rsep, &rk.0));
            }
            // New p with the separator spliced in at position pi.
            let mut nseps = p.separators();
            let mut nkids = p.child_ptrs();
            nseps.insert(pi, sep);
            nkids[pi] = left_ptr;
            nkids.insert(pi + 1, right_ptr);
            let nk = SendPtrs(nkids);
            let new_p = flock_core::alloc(move || Node::internal(&nseps, &nk.0));
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

    /// Insert; `false` if present.
    pub fn insert(&self, k: K, v: V) -> bool {
        let _g = flock_epoch::pin();
        let mut backoff = Backoff::new();
        'restart: loop {
            let path = self.path_to(&k);
            let leaf = *path.last().expect("path includes leaf");
            // SAFETY: epoch-pinned.
            let leaf_ref = unsafe { &*leaf };
            if leaf_ref.find(&k).is_some() {
                return false;
            }
            // Grow the tree when the root itself is full: it splits into two
            // halves under a fresh one-separator root, under the anchor's
            // lock. Handling the root first establishes the invariant that
            // when the loop below splits path[w], path[w-1] has room.
            // SAFETY: pinned path nodes.
            if unsafe { &*path[1] }.is_full() {
                if self.split_root(path[1]).is_none() {
                    backoff.snooze(); // anchor/root lock busy
                }
                continue 'restart;
            }
            // Preemptively split the shallowest full node along the path and
            // restart; by induction its parent always has separator room.
            for w in 2..path.len() {
                // SAFETY: pinned path nodes.
                if unsafe { &*path[w] }.is_full() {
                    let (g, p, c) = (path[w - 2], path[w - 1], path[w]);
                    if self.split_child(g, p, c, &k).is_none() {
                        backoff.snooze(); // a lock on the split path was busy
                    }
                    continue 'restart;
                }
            }
            let parent = path[path.len() - 2];
            let (sp_p, sp_l) = (Sp(parent), Sp(leaf));
            let (k2, v2) = (k.clone(), v.clone());
            // SAFETY: epoch-pinned.
            let outcome = unsafe { &*parent }.lock.try_lock(move || {
                // SAFETY: thunk runners hold epoch protection.
                let p = unsafe { sp_p.as_ref() };
                let l = unsafe { sp_l.as_ref() };
                let slot = p.route(&k2);
                if p.children[slot].load() != sp_l.ptr() {
                    return false;
                }
                if l.find(&k2).is_some() || l.is_full() {
                    return false; // re-examine from the top
                }
                let mut entries = l.leaf_entries();
                let pos = entries.partition_point(|(ek, _)| ek < &k2);
                entries.insert(pos, (k2.clone(), v2.clone()));
                let newl = flock_core::alloc(move || Node::leaf(&entries));
                p.children[slot].store(newl);
                // SAFETY: replaced above; idempotent retire.
                unsafe { flock_core::retire(sp_l.ptr()) };
                true
            });
            match outcome {
                Some(true) => {
                    self.count.inc();
                    return true;
                }
                Some(false) => {}         // validation failed / leaf full: replan
                None => backoff.snooze(), // parent lock busy
            }
            // Re-check for presence then retry.
            // SAFETY: pinned.
            let path2 = self.path_to(&k);
            let leaf2 = *path2.last().expect("leaf");
            if unsafe { &*leaf2 }.find(&k).is_some() {
                return false;
            }
        }
    }

    /// Split a full root (leaf or internal) into two halves under a fresh
    /// one-separator root, under anchor → root locks.
    /// `None` = the anchor's or root's lock was busy; `Some(applied)`
    /// otherwise.
    fn split_root(&self, root: *mut Node<K, V>) -> Option<bool> {
        let (sp_a, sp_r) = (Sp(self.anchor), Sp(root));
        let split = move || {
            // SAFETY: thunk runners hold epoch protection.
            let a = unsafe { sp_a.as_ref() };
            let r = unsafe { sp_r.as_ref() };
            if a.children[0].load() != sp_r.ptr() || !r.is_full() {
                return false;
            }
            let mid = r.keys.len() / 2;
            let (sep, left_ptr, right_ptr);
            if r.is_leaf {
                let entries = r.leaf_entries();
                sep = entries[mid].0.clone();
                let lo = entries[..mid].to_vec();
                let hi = entries[mid..].to_vec();
                left_ptr = flock_core::alloc(move || Node::leaf(&lo));
                right_ptr = flock_core::alloc(move || Node::leaf(&hi));
            } else {
                // Child cells stable: we hold the root's lock.
                let seps = r.separators();
                let kids = r.child_ptrs();
                sep = seps[mid].clone();
                let lsep = seps[..mid].to_vec();
                let lkid = SendPtrs(kids[..=mid].to_vec());
                let rsep = seps[mid + 1..].to_vec();
                let rkid = SendPtrs(kids[mid + 1..].to_vec());
                left_ptr = flock_core::alloc(move || Node::internal(&lsep, &lkid.0));
                right_ptr = flock_core::alloc(move || Node::internal(&rsep, &rkid.0));
            }
            let sep2 = sep.clone();
            let new_root = flock_core::alloc(move || {
                Node::internal(std::slice::from_ref(&sep2), &[left_ptr, right_ptr])
            });
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

    /// Remove; `false` if absent.
    pub fn remove(&self, k: K) -> bool {
        let _g = flock_epoch::pin();
        let mut backoff = Backoff::new();
        loop {
            let path = self.path_to(&k);
            let leaf = *path.last().expect("leaf");
            // SAFETY: epoch-pinned.
            let leaf_ref = unsafe { &*leaf };
            if leaf_ref.find(&k).is_none() {
                return false;
            }
            let parent = path[path.len() - 2];
            // SAFETY: pinned.
            let parent_ref = unsafe { &*parent };
            let outcome = if leaf_ref.keys.len() > 1 || parent_ref.keys.is_empty() {
                // Shrink by copy. (A root leaf may become empty.)
                let (sp_p, sp_l) = (Sp(parent), Sp(leaf));
                let k2 = k.clone();
                parent_ref.lock.try_lock(move || {
                    // SAFETY: thunk runners hold epoch protection.
                    let p = unsafe { sp_p.as_ref() };
                    let l = unsafe { sp_l.as_ref() };
                    let slot = p.route(&k2);
                    if p.children[slot].load() != sp_l.ptr() {
                        return false;
                    }
                    let Some(pos) = l.find(&k2) else { return false };
                    let mut entries = l.leaf_entries();
                    entries.remove(pos);
                    let newl = flock_core::alloc(move || Node::leaf(&entries));
                    p.children[slot].store(newl);
                    // SAFETY: replaced above; idempotent retire.
                    unsafe { flock_core::retire(sp_l.ptr()) };
                    true
                })
            } else {
                // Leaf will become empty: splice it and its separator out of
                // the parent (replace the parent), under g → p locks. If the
                // parent would be left with a single child, hoist that child.
                let g = path[path.len() - 3];
                let (sp_g, sp_p, sp_l) = (Sp(g), Sp(parent), Sp(leaf));
                let k2 = k.clone();
                let splice = move || {
                    // SAFETY: thunk runners hold epoch protection.
                    let g = unsafe { sp_g.as_ref() };
                    let p = unsafe { sp_p.as_ref() };
                    let l = unsafe { sp_l.as_ref() };
                    let gi = g.route(&k2);
                    if g.children[gi].load() != sp_p.ptr() {
                        return false;
                    }
                    let pi = p.route(&k2);
                    if p.children[pi].load() != sp_l.ptr() {
                        return false;
                    }
                    if l.find(&k2).is_none() || l.keys.len() != 1 {
                        return false;
                    }
                    let mut seps = p.separators();
                    let mut kids = p.child_ptrs();
                    kids.remove(pi);
                    seps.remove(if pi == 0 { 0 } else { pi - 1 });
                    let replacement = if seps.is_empty() {
                        kids[0] // hoist the single remaining child
                    } else {
                        let nk = SendPtrs(kids);
                        flock_core::alloc(move || Node::internal(&seps, &nk.0))
                    };
                    p.lock.mark_obsolete();
                    g.children[gi].store(replacement);
                    // SAFETY: p and l unlinked; idempotent retires.
                    unsafe {
                        flock_core::retire(sp_p.ptr());
                        flock_core::retire(sp_l.ptr());
                    }
                    true
                };
                // SAFETY: pinned; runners adopt this epoch, so both locks
                // outlive them.
                unsafe { (*g).lock.try_lock_set([&parent_ref.lock], splice) }
            };
            match outcome {
                Some(true) => {
                    self.count.dec();
                    return true;
                }
                Some(false) => {}         // validation failed: replan now
                None => backoff.snooze(), // a lock on the path was busy
            }
        }
    }

    /// One optimistic descent to the leaf covering `k`, version-validated
    /// against the leaf's **parent** lock — the lock every mutation of
    /// this leaf goes through (value updates in place, copy-on-write leaf
    /// replacement, splits and splices all acquire it), so "full packed
    /// word unchanged and unlocked at both observations" proves the leaf's
    /// child cell and value slots were untouched across the read. `read`
    /// extracts the answer from the (immutable-keyed) leaf with plain
    /// `Acquire` slot loads. `None` = validation failed, retry or fall
    /// back.
    fn descend_validated<R>(&self, k: &K, read: impl Fn(&Node<K, V>) -> R) -> Option<R> {
        // SAFETY: caller pinned; nodes epoch-reclaimed.
        let mut parent = self.anchor;
        let mut slot = 0usize;
        let mut cur = unsafe { (*self.anchor).children[0].load_acquire() };
        loop {
            // SAFETY: pinned.
            let n = unsafe { &*cur };
            if n.is_leaf {
                // SAFETY: pinned.
                let p = unsafe { &*parent };
                let v0 = p.lock.version()?;
                if p.children[slot].load_acquire() != cur {
                    return None; // leaf replaced between descent and version
                }
                let res = read(n);
                return p.lock.validate(v0).then_some(res);
            }
            parent = cur;
            slot = n.route(k);
            cur = n.children[slot].load_acquire();
        }
    }

    /// Wait-free lookup — optimistic version-validated fast path with a
    /// bounded fallback to the committed (thunk-logged) read.
    pub fn get(&self, k: K) -> Option<V> {
        let _g = flock_epoch::pin();
        flock_core::read_validated(
            || self.descend_validated(&k, |n| n.find(&k).map(|i| n.vals[i].read_acquire())),
            || {
                // Committed descent: SeqCst child loads, logged slot read.
                // SAFETY: pinned descent.
                let mut cur = unsafe { (*self.anchor).children[0].load() };
                loop {
                    // SAFETY: pinned.
                    let n = unsafe { &*cur };
                    if n.is_leaf {
                        return n.find(&k).map(|i| n.vals[i].read());
                    }
                    cur = n.children[n.route(&k)].load();
                }
            },
        )
    }

    /// Presence-only lookup: never decodes or clones a value. Key sets are
    /// immutable per leaf (membership changes replace the leaf), so the
    /// descent plus a leaf-identity re-check under the parent's version
    /// suffices — and the committed fallback needs no slot read at all.
    pub fn contains(&self, k: &K) -> bool {
        let _g = flock_epoch::pin();
        flock_core::read_validated(
            || self.descend_validated(k, |n| n.find(k).is_some()),
            || {
                // SAFETY: pinned descent.
                let mut cur = unsafe { (*self.anchor).children[0].load() };
                loop {
                    // SAFETY: pinned.
                    let n = unsafe { &*cur };
                    if n.is_leaf {
                        return n.find(k).is_some();
                    }
                    cur = n.children[n.route(k)].load();
                }
            },
        )
    }

    /// Ordered range scan (see [`flock_api::OrderedMap`] for the
    /// consistency contract): a separator-pruned walk that snapshots each
    /// covered leaf under its parent lock's version, falling back to
    /// per-slot committed reads for that leaf after bounded validation
    /// failures.
    pub fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        let _g = flock_epoch::pin();
        let mut out = Vec::new();
        self.walk_from_root(lo, hi, &mut out);
        out
    }

    /// [`ABTree::range`]'s walk, restarted as [`crate::walk_restarting`]
    /// says. The caller is pinned.
    fn walk_from_root(&self, lo: Bound<&K>, hi: Bound<&K>, out: &mut Vec<(K, V)>) {
        crate::walk_restarting(lo, out, |from, out| {
            // SAFETY: pinned walk; the anchor is never retired.
            let root = unsafe { (*self.anchor).children[0].load_acquire() };
            unsafe { self.range_walk(self.anchor, 0, root, from, hi, out) }
        });
    }

    /// `Break` = the walk reached a leaf of an obsolete parent.
    unsafe fn range_walk(
        &self,
        parent: *mut Node<K, V>,
        slot: usize,
        n: *mut Node<K, V>,
        lo: Bound<&K>,
        hi: Bound<&K>,
        out: &mut Vec<(K, V)>,
    ) -> ControlFlow<()> {
        // SAFETY: pinned per caller.
        let node = unsafe { &*n };
        if node.is_leaf {
            // SAFETY: pinned.
            let p = unsafe { &*parent };
            let snap = |read: fn(&ValueSlot<V>) -> V| -> Vec<(K, V)> {
                node.keys
                    .iter()
                    .cloned()
                    .zip(node.vals.iter().map(read))
                    .collect()
            };
            // `None`: the parent is obsolete, restart.
            let entries = flock_core::read_validated(
                || {
                    let v0 = p.lock.version()?;
                    if p.children[slot].load_acquire() != n {
                        return None;
                    }
                    let e = snap(ValueSlot::read_acquire);
                    p.lock.validate(v0).then_some(Some(e))
                },
                || {
                    let e = snap(ValueSlot::read);
                    (!p.lock.is_obsolete()).then_some(e)
                },
            );
            let Some(entries) = entries else {
                return ControlFlow::Break(());
            };
            out.extend(
                entries
                    .into_iter()
                    .filter(|(k, _)| flock_api::key_in_range(k, lo, hi)),
            );
        } else {
            for i in 0..=node.keys.len() {
                // Child i covers [keys[i-1], keys[i]) — equal keys route
                // right. Prune subtrees wholly outside the bounds.
                if i < node.keys.len() && !flock_api::key_above_lower(&node.keys[i], lo) {
                    continue; // everything in child i is < keys[i] <= lo
                }
                if i > 0 && !flock_api::key_below_upper(&node.keys[i - 1], hi) {
                    break; // child i (and all later) start at >= hi
                }
                unsafe { self.range_walk(n, i, node.children[i].load_acquire(), lo, hi, out) }?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Native atomic update: replace the value stored under `k` in place —
    /// one idempotent slot store under the leaf's **parent** lock (the lock
    /// every copy-on-write replacement of this leaf's child cell takes),
    /// with the parent link validated under it. Returns `false` if `k` is
    /// absent. Readers see the old value or the new one, never absence or a
    /// third value — and the batch is not copied.
    pub fn update(&self, k: K, v: V) -> bool {
        let _g = flock_epoch::pin();
        let mut backoff = Backoff::new();
        loop {
            let path = self.path_to(&k);
            let leaf = *path.last().expect("path includes leaf");
            // SAFETY: epoch-pinned.
            let leaf_ref = unsafe { &*leaf };
            if leaf_ref.find(&k).is_none() {
                return false;
            }
            let parent = path[path.len() - 2];
            let (sp_p, sp_l) = (Sp(parent), Sp(leaf));
            let (k2, v2) = (k.clone(), v.clone());
            // SAFETY: epoch-pinned.
            let outcome = unsafe { &*parent }.lock.try_lock(move || {
                // SAFETY: thunk runners hold epoch protection.
                let p = unsafe { sp_p.as_ref() };
                let l = unsafe { sp_l.as_ref() };
                let slot = p.route(&k2);
                if p.children[slot].load() != sp_l.ptr() {
                    return false; // leaf replaced under us: re-plan
                }
                let Some(pos) = l.find(&k2) else { return false };
                l.vals[pos].set(v2.clone());
                true
            });
            match outcome {
                Some(true) => return true,
                Some(false) => {}         // validation failed: re-plan now
                None => backoff.snooze(), // parent lock busy
            }
        }
    }

    /// Element count (O(n) walk; tests/diagnostics).
    pub fn len(&self) -> usize {
        let _g = flock_epoch::pin();
        // SAFETY: pinned walk.
        unsafe { Self::count_entries((*self.anchor).children[0].load()) }
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    unsafe fn count_entries(n: *mut Node<K, V>) -> usize {
        // SAFETY: pinned per caller.
        let node = unsafe { &*n };
        if node.is_leaf {
            node.keys.len()
        } else {
            (0..=node.keys.len())
                .map(|i| unsafe { Self::count_entries(node.children[i].load()) })
                .sum()
        }
    }

    /// Ordered snapshot — single-threaded use.
    pub fn collect(&self) -> Vec<(K, V)> {
        let _g = flock_epoch::pin();
        let mut out = Vec::new();
        // SAFETY: pinned walk.
        unsafe { Self::walk((*self.anchor).children[0].load(), &mut out) };
        out
    }

    unsafe fn walk(n: *mut Node<K, V>, out: &mut Vec<(K, V)>) {
        // SAFETY: pinned per caller.
        let node = unsafe { &*n };
        if node.is_leaf {
            out.extend(node.leaf_entries());
        } else {
            for i in 0..=node.keys.len() {
                unsafe { Self::walk(node.children[i].load(), out) };
            }
        }
    }

    /// Quiescent invariant check: separator routing, sorted leaves, arity.
    pub fn check_invariants(&self) {
        // SAFETY: quiescent per contract.
        unsafe {
            Self::check((*self.anchor).children[0].load(), None, None);
        }
    }

    unsafe fn check(n: *mut Node<K, V>, lo: Option<&K>, hi: Option<&K>) {
        // SAFETY: quiescent per caller.
        let node = unsafe { &*n };
        assert!(!node.lock.is_obsolete(), "removed node reachable");
        assert!(node.keys.len() <= B);
        let in_bounds = |k: &K| {
            if let Some(lo) = lo {
                assert!(k >= lo, "key below bound");
            }
            if let Some(hi) = hi {
                assert!(k < hi, "key above bound");
            }
        };
        if node.is_leaf {
            assert!(node.keys.windows(2).all(|w| w[0] < w[1]), "unsorted leaf");
            for k in &node.keys {
                in_bounds(k);
            }
        } else {
            assert!(!node.keys.is_empty(), "internal node without separators");
            assert!(
                node.keys.windows(2).all(|w| w[0] < w[1]),
                "unsorted separators"
            );
            for s in &node.keys {
                in_bounds(s);
            }
            for i in 0..=node.keys.len() {
                let clo = if i == 0 { lo } else { Some(&node.keys[i - 1]) };
                let chi = if i == node.keys.len() {
                    hi
                } else {
                    Some(&node.keys[i])
                };
                unsafe { Self::check(node.children[i].load(), clo, chi) };
            }
        }
    }
}

/// Send+Sync wrapper for a vector of node pointers captured by thunks
/// (pointer payloads are epoch-protected; see `flock_core::Sp`).
struct SendPtrs<K: Key, V: Value>(Vec<*mut Node<K, V>>);
// SAFETY: plain addresses; validity via the epoch collector.
unsafe impl<K: Key, V: Value> Send for SendPtrs<K, V> {}
unsafe impl<K: Key, V: Value> Sync for SendPtrs<K, V> {}

impl<K: Key, V: Value> Drop for ABTree<K, V> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; retired nodes belong to the collector.
        unsafe fn free<K: Key, V: Value>(n: *mut Node<K, V>) {
            if n.is_null() {
                return;
            }
            // SAFETY: exclusive teardown.
            unsafe {
                if !(*n).is_leaf {
                    for i in 0..=(*n).keys.len() {
                        free((*n).children[i].load());
                    }
                }
                flock_epoch::free_now(n);
            }
        }
        // SAFETY: exclusive access.
        unsafe {
            free((*self.anchor).children[0].load());
            flock_epoch::free_now(self.anchor);
        }
    }
}

impl<K: Key, V: Value> Map<K, V> for ABTree<K, V> {
    fn insert(&self, key: K, value: V) -> bool {
        ABTree::insert(self, key, value)
    }
    fn remove(&self, key: K) -> bool {
        ABTree::remove(self, key)
    }
    fn get(&self, key: K) -> Option<V> {
        ABTree::get(self, key)
    }
    fn contains(&self, key: K) -> bool {
        ABTree::contains(self, &key)
    }
    fn name(&self) -> &'static str {
        self.label
    }
    fn update(&self, key: K, value: V) -> bool {
        ABTree::update(self, key, value)
    }
    fn has_atomic_update(&self) -> bool {
        true
    }
    fn len_approx(&self) -> Option<usize> {
        Some(self.count.get())
    }
}

impl<K: Key, V: Value> flock_api::OrderedMap<K, V> for ABTree<K, V> {
    fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        ABTree::range(self, lo, hi)
    }
}

#[cfg(test)]
impl crate::stale_scan::ResumableScan for ABTree<u64, u64> {
    fn record(&self, k: u64) -> usize {
        let path = self.path_to(&k);
        path[path.len() - 2] as usize
    }
    unsafe fn resume(&self, at: usize) -> Vec<(u64, u64)> {
        let (mut out, all) = (Vec::new(), Bound::Unbounded);
        // SAFETY: forwarded contract; `at` is an internal, so the parent
        // and slot arguments are never read.
        if unsafe { self.range_walk(self.anchor, 0, at as *mut _, all, all, &mut out) }.is_break() {
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
            let t: ABTree<u64, u64> = ABTree::new();
            assert!(t.insert(5, 50));
            assert!(!t.insert(5, 51));
            assert!(t.insert(3, 30));
            assert!(t.insert(8, 80));
            assert_eq!(t.collect(), vec![(3, 30), (5, 50), (8, 80)]);
            assert!(t.remove(5));
            assert!(!t.remove(5));
            assert_eq!(t.get(8), Some(80));
            t.check_invariants();
        });
    }

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

    #[test]
    fn native_update_in_place() {
        testutil::both_modes(|| {
            let t: ABTree<u64, u64> = ABTree::new();
            assert!(!t.update(1, 10), "update of an absent key refused");
            // Enough keys for several splits, so updates hit deep leaves.
            for k in 0..200 {
                assert!(t.insert(k, k));
            }
            for k in 0..200 {
                assert!(t.update(k, k + 1000));
            }
            for k in 0..200 {
                assert_eq!(t.get(k), Some(k + 1000));
            }
            assert_eq!(t.len(), 200, "update must not change the count");
            assert!(t.remove(7));
            assert!(!t.update(7, 1));
            t.check_invariants();
        });
    }

    #[test]
    fn oracle() {
        testutil::both_modes(|| {
            let t: ABTree<u64, u64> = ABTree::new();
            testutil::oracle_check(&t, 4_000, 512, 21);
            t.check_invariants();
        });
    }

    #[test]
    fn concurrent_partitioned() {
        testutil::both_modes(|| {
            let t: ABTree<u64, u64> = ABTree::new();
            testutil::partition_stress(&t, 4, 1_500);
            t.check_invariants();
        });
    }
}
