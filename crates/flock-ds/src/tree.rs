//! The leaf-oriented tree protocol, written once. [`Tree`] is the one tree
//! type: [`crate::leaftree::LeafTree`], [`crate::leaftreap::LeafTreap`] and
//! [`crate::abtree::ABTree`] are aliases of it over their own node types.
//! A node type supplies, through [`TreeNode`], its layout, its name, its
//! `insert` (leaftree's leaf split, leaftreap's priorities and rotations,
//! abtree's preemptive splits) and its own check on a linked pair; [`Tree`]
//! owns the search, `get`, `contains`, `update`, `remove`, the range scan,
//! `len`, `collect`, the shared invariants, teardown, and the one `Map` and
//! `OrderedMap` impl.
//!
//! Routing: an internal node's separators are sorted, child `i` covers
//! `[seps[i-1], seps[i])`, and equal keys route right. A binary node has one
//! separator. The *anchor* at the top has none and one child: it is never
//! replaced, so no operation special-cases the root.
//!
//! The rules each tree's `insert` keeps too (the crate docs, "Tree
//! protocol"):
//! - **The parent lock owns a leaf.** A leaf's key set never changes. Every
//!   change to a leaf goes through its parent's child cell under the
//!   parent's lock: a copy that replaces it, an in-place value store, a
//!   split or a splice. A thunk validates `cell == leaf` under that lock.
//! - **Obsolete means unlinked.** The critical section that unlinks or
//!   replaces an internal node, or a node it splits, marks that node's lock
//!   obsolete. Holding a lock proves its node linked, and the child cells of
//!   an unlinked node never change again.
//! - **Ancestor-first lock order**, so a lock set or a nesting is the simply
//!   nested decreasing order the lock-freedom theorem asks for.
//!
//! Forms chosen where the trees could differ:
//! - Presence is read without a version bracket. `contains` and the absent
//!   case of `get` answer from the leaf the descent reaches, as the early
//!   exits of `insert`, `update` and `remove` do. Both rest on one
//!   argument: the reached leaf was linked when the descent read its
//!   parent's cell, or just before that parent was unlinked, since an
//!   unlinked node's cells are frozen.
//! - Every bracket re-checks the child cell after taking the parent's
//!   version. Without it, a leaf replaced under a still-linked parent
//!   between the descent and the version read would pass validation.
//! - Thunks find a child by the slot index the search recorded: separators
//!   never change, so the index names the same cell under the lock, and no
//!   thunk routes again.
//! - A scan reads only the entries inside its bounds and skips a leaf with
//!   none, so a leaf at either edge costs no bracket and forces no restart.

use std::ops::{Bound, ControlFlow};

use flock_api::{Key, Value, key_above_lower, key_below_upper, key_in_range};
use flock_core::{Lock, Mutable, Sp};
use flock_sync::ApproxLen;

/// A node of a leaf-oriented tree: an internal node routes, a leaf holds
/// entries.
pub trait TreeNode: Sized + 'static {
    /// Key type.
    type K: Key;
    /// Value type.
    type V: Value;
    /// The tree's [`flock_api::Map::name`].
    const NAME: &'static str;
    /// The name of a tree that waits for busy locks. Only a leaftree is
    /// built that way.
    const STRICT_NAME: &'static str = Self::NAME;

    /// The lock that owns this node's child cells and its leaves' slots.
    fn lock(&self) -> &Lock;
    /// Is this node a leaf? A node's kind never changes during its life,
    /// so a thunk may read it without logging the read: every run of the
    /// thunk reads the same answer.
    fn is_leaf(&self) -> bool;
    /// An internal node's separators (module docs, "Routing"). Like its
    /// kind, a node's separators never change during its life, so a thunk
    /// may read them without logging the reads: every run of the thunk
    /// routes alike.
    fn seps(&self) -> &[Self::K];
    /// Child cell `i` of an internal node, `i <= seps().len()`.
    fn child(&self, i: usize) -> &Mutable<*mut Self>;
    /// A leaf's entries in key order.
    fn entries(&self) -> impl Iterator<Item = (&Self::K, &Mutable<Self::V>)>;
    /// A fresh leaf holding the sorted `entries`.
    fn new_leaf(entries: &[(Self::K, Self::V)]) -> Self;
    /// A fresh internal node; `kids.len() == seps.len() + 1`.
    fn new_internal(seps: &[Self::K], kids: &[*mut Self]) -> Self;
    /// The tree's own insert of an absent `k`: `false` if `k` is present.
    /// [`Tree::insert`] counts what it adds.
    fn insert(tree: &Tree<Self>, k: Self::K, v: Self::V) -> bool;

    /// The tree's own invariants on the linked pair `p → c`, checked by
    /// [`Tree::check_invariants`] on every such pair.
    fn check_link(_p: &Self, _c: &Self) {}

    /// The child that covers `k`.
    #[inline]
    fn route(&self, k: &Self::K) -> usize {
        self.seps().partition_point(|s| s <= k)
    }

    /// An internal node's separators, or `None` at a leaf. A node type
    /// whose kind costs a read overrides it to answer from one read.
    #[inline]
    fn routing(&self) -> Option<&[Self::K]> {
        (!self.is_leaf()).then(|| self.seps())
    }

    /// The child of an internal node that covers `k`, or `None` at a
    /// leaf: one step of the descent. A node type whose kind costs a read
    /// overrides it to route an internal node on that one read.
    #[inline]
    fn step(&self, k: &Self::K) -> Option<usize> {
        (!self.is_leaf()).then(|| self.route(k))
    }

    /// `k`'s value slot in this leaf.
    #[inline]
    fn slot(&self, k: &Self::K) -> Option<&Mutable<Self::V>> {
        self.entries().find_map(|(x, s)| (x == k).then_some(s))
    }

    /// The leaf's entries by committed slot reads: inside a thunk every
    /// runner copies the same batch.
    fn snapshot(&self) -> Vec<(Self::K, Self::V)> {
        self.entries().map(|(k, s)| (k.clone(), s.load())).collect()
    }

    /// The child pointers, stable while the caller holds this node's lock.
    fn kids(&self) -> Vec<*mut Self> {
        (0..=self.seps().len())
            .map(|i| self.child(i).load())
            .collect()
    }
}

/// Where a search ended: leaf `l` is child `pi` of `p`, and `p` is child
/// `gi` of `g`. `g` is null when `p` is the anchor.
pub(crate) struct Path<N> {
    pub(crate) g: *mut N,
    pub(crate) gi: usize,
    pub(crate) p: *mut N,
    pub(crate) pi: usize,
    pub(crate) l: *mut N,
}

/// A leaf-oriented tree map under the shared protocol; the public trees
/// are aliases of it.
pub struct Tree<N: TreeNode> {
    /// Zero separators, one child; lives as long as the tree.
    pub(crate) anchor: *mut N,
    /// Wait for busy locks, helping in lock-free mode, instead of retrying.
    strict: bool,
    /// Maintained element count backing `len_approx`.
    count: ApproxLen,
}

impl<N: TreeNode> Default for Tree<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: TreeNode> Tree<N> {
    /// An empty tree using try-locks (the paper's preferred discipline).
    pub fn new() -> Self {
        Self::empty(false)
    }

    /// An empty tree: the anchor over one empty leaf.
    pub(crate) fn empty(strict: bool) -> Self {
        let leaf = flock_epoch::alloc(N::new_leaf(&[]));
        Self {
            anchor: flock_epoch::alloc(N::new_internal(&[], &[leaf])),
            strict,
            count: ApproxLen::new(),
        }
    }

    /// Insert; `false` if present.
    pub fn insert(&self, k: N::K, v: N::V) -> bool {
        let added = N::insert(self, k, v);
        if added {
            self.count.inc();
        }
        added
    }

    /// Walk from the anchor to the leaf covering `k`, reading each child
    /// cell with `load`. `visit` sees every node below the anchor, the leaf
    /// last. The caller is pinned.
    #[inline]
    pub(crate) fn descend(
        &self,
        k: &N::K,
        load: impl Fn(&Mutable<*mut N>) -> *mut N,
        mut visit: impl FnMut(*mut N),
    ) -> Path<N> {
        // The anchor's one child covers every key: no step reads the
        // anchor.
        // SAFETY: the anchor lives as long as the tree.
        let top = load(unsafe { &*self.anchor }.child(0));
        visit(top);
        let mut at = Path {
            g: std::ptr::null_mut(),
            gi: 0,
            p: self.anchor,
            pi: 0,
            l: top,
        };
        loop {
            // SAFETY: the caller is pinned; nodes are epoch-reclaimed.
            let n = unsafe { &*at.l };
            let Some(i) = n.step(k) else {
                return at;
            };
            (at.g, at.gi, at.p, at.pi) = (at.p, at.pi, at.l, i);
            at.l = load(n.child(i));
            visit(at.l);
        }
    }

    /// The committed search: child cells read through the thunk log, as
    /// every update's plan must be.
    #[inline]
    pub(crate) fn search(&self, k: &N::K) -> Path<N> {
        self.descend(k, Mutable::load, |_| {})
    }

    /// The search for reads: plain `Acquire` loads, except inside a thunk,
    /// where unlogged loads would desynchronize helpers.
    #[inline]
    fn locate(&self, k: &N::K) -> Path<N> {
        if flock_core::in_thunk() {
            self.search(k)
        } else {
            self.descend(k, Mutable::load_acquire, |_| {})
        }
    }

    /// Take `lock` with the tree's discipline and run `f`. A strict tree
    /// waits until it acquires, so it reports `None` only for an obsolete
    /// lock; a try-lock also reports a busy one.
    pub(crate) fn acquire<R, F>(&self, lock: &Lock, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: Fn() -> R + Send + Sync + 'static,
    {
        if self.strict {
            lock.lock(f)
        } else {
            lock.try_lock(f)
        }
    }

    /// Take `g`'s lock, then `p`'s, and run `f`. A lock set has no waiting
    /// form, so a strict tree nests the two acquisitions.
    ///
    /// # Safety
    ///
    /// The caller is pinned and reached `g` and `p` under that pin. Thunk
    /// runners adopt its epoch, so both locks outlive them.
    unsafe fn acquire2<R, F>(&self, g: *mut N, p: *mut N, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: Fn() -> R + Copy + Send + Sync + 'static,
    {
        // SAFETY: per the contract.
        let (g, sp) = (unsafe { &*g }, Sp(p));
        if self.strict {
            // SAFETY: as above.
            g.lock()
                .lock(move || unsafe { sp.as_ref() }.lock().lock(f))
                .flatten()
        } else {
            // SAFETY: as above.
            unsafe { g.lock().try_lock_set([sp.as_ref().lock()], f) }
        }
    }

    /// Read leaf `l`, child `i` of `p`, with `read`, which gets the slot
    /// read to use: the version bracket. The optimistic attempt takes `p`'s
    /// version, re-checks that the cell still holds `l`, reads with
    /// `Acquire` loads and validates; an unchanged version proves the leaf
    /// linked under `p` and its slots untouched across the read. After
    /// [`flock_core::OPTIMISTIC_READ_ATTEMPTS`] failures, or inside a thunk,
    /// the read is committed and accepted only if `p` is still linked.
    /// `None`: `p` is obsolete.
    ///
    /// # Safety
    ///
    /// The caller is pinned and reached `p` and `l` under that pin.
    unsafe fn bracket<R>(
        p: *mut N,
        i: usize,
        l: *mut N,
        mut read: impl FnMut(fn(&Mutable<N::V>) -> N::V) -> R,
    ) -> Option<R> {
        // SAFETY: per the contract.
        let p = unsafe { &*p };
        let lock = p.lock();
        flock_core::read_validated(
            || {
                let v0 = lock.version()?;
                if p.child(i).load_acquire() != l {
                    return None;
                }
                let r = read(Mutable::load_acquire);
                lock.validate(v0).then_some(Some(r))
            },
            || None,
        )
        .or_else(|| {
            let r = read(Mutable::load);
            (!lock.is_obsolete()).then_some(r)
        })
    }

    /// Lookup: a bracketed read of `k`'s slot, searching again if its
    /// parent turns out obsolete. An absent key needs no bracket (module
    /// docs).
    pub fn get(&self, k: N::K) -> Option<N::V> {
        let _g = flock_epoch::pin();
        loop {
            let at = self.locate(&k);
            // SAFETY: pinned.
            let slot = unsafe { &*at.l }.slot(&k)?;
            // SAFETY: pinned.
            if let Some(v) = unsafe { Self::bracket(at.p, at.pi, at.l, |read| read(slot)) } {
                return Some(v);
            }
        }
    }

    /// Presence, never decoding or cloning a value: the descent and the
    /// leaf's immutable key set decide it (module docs).
    pub fn contains(&self, k: &N::K) -> bool {
        let _g = flock_epoch::pin();
        // SAFETY: pinned.
        unsafe { &*self.locate(k).l }.slot(k).is_some()
    }

    /// Native atomic update: one idempotent store to `k`'s slot under the
    /// leaf's parent lock, after checking that the cell still holds the
    /// leaf. That lock is the one every change to the leaf takes, and
    /// holding it proves the parent linked, so the key stays present for
    /// the whole thunk: readers see the old value or the new one, never
    /// absence or a third value. `false` (storing nothing) if `k` is absent.
    pub fn update(&self, k: N::K, v: N::V) -> bool {
        crate::retry(|| {
            let at = self.search(&k);
            // SAFETY: pinned by `retry`.
            if unsafe { &*at.l }.slot(&k).is_none() {
                return ControlFlow::Break(false);
            }
            let (sp, sl, pi, k2, v2) = (Sp(at.p), Sp(at.l), at.pi, k.clone(), v.clone());
            // SAFETY: pinned.
            ControlFlow::Continue(self.acquire(unsafe { &*at.p }.lock(), move || {
                // SAFETY: thunk runners hold epoch protection.
                let (p, l) = unsafe { (sp.as_ref(), sl.as_ref()) };
                if p.child(pi).load() != sl.ptr() {
                    return false; // leaf replaced: search again
                }
                l.slot(&k2)
                    .expect("a leaf's key set is immutable")
                    .store(v2.clone());
                true
            }))
        })
    }

    /// Remove; `false` if absent. A leaf with other keys, or the anchor's
    /// only leaf, shrinks by copy under the parent lock. A leaf's last key
    /// unlinks the leaf and its separator from the parent under the
    /// `g → p` locks: the parent is replaced by a copy without them, or,
    /// left with one child, by that child (a binary parent always is).
    pub fn remove(&self, k: N::K) -> bool {
        let removed = crate::retry(|| {
            let at = self.search(&k);
            // SAFETY: pinned by `retry`.
            let (p, l) = unsafe { (&*at.p, &*at.l) };
            if l.slot(&k).is_none() {
                return ControlFlow::Break(false);
            }
            let (sg, sp, sl, gi, pi) = (Sp(at.g), Sp(at.p), Sp(at.l), at.gi, at.pi);
            if l.entries().nth(1).is_some() || p.seps().is_empty() {
                let k2 = k.clone();
                return ControlFlow::Continue(self.acquire(p.lock(), move || {
                    // SAFETY: thunk runners hold epoch protection.
                    let (p, l) = unsafe { (sp.as_ref(), sl.as_ref()) };
                    let cell = p.child(pi);
                    if cell.load() != sl.ptr() {
                        return false;
                    }
                    let mut entries = l.snapshot();
                    entries.retain(|(x, _)| *x != k2);
                    let newl = flock_core::alloc(move || N::new_leaf(&entries));
                    cell.store(newl);
                    // SAFETY: unlinked above; idempotent retire.
                    unsafe { flock_core::retire(sl.ptr()) };
                    true
                }));
            }
            let splice = move || {
                // SAFETY: thunk runners hold epoch protection.
                let (g, p) = unsafe { (sg.as_ref(), sp.as_ref()) };
                if g.child(gi).load() != sp.ptr() || p.child(pi).load() != sl.ptr() {
                    return false;
                }
                let replacement = if p.seps().len() == 1 {
                    p.child(1 - pi).load() // hoist the lone sibling
                } else {
                    let (mut seps, mut kids) = (p.seps().to_vec(), p.kids());
                    seps.remove(pi.saturating_sub(1));
                    kids.remove(pi);
                    flock_core::alloc(move || N::new_internal(&seps, &kids))
                };
                p.lock().mark_obsolete();
                g.child(gi).store(replacement);
                // SAFETY: both unlinked above; idempotent retires.
                unsafe {
                    flock_core::retire(sp.ptr());
                    flock_core::retire(sl.ptr());
                }
                true
            };
            // SAFETY: pinned; `p` is not the anchor, so `g` is not null.
            ControlFlow::Continue(unsafe { self.acquire2(at.g, at.p, splice) })
        });
        if removed {
            self.count.dec();
        }
        removed
    }

    /// Ordered range scan (see [`flock_api::OrderedMap`] for the
    /// consistency contract): a separator-pruned walk that reads each
    /// covered leaf under [`Tree::bracket`].
    pub fn range(&self, lo: Bound<&N::K>, hi: Bound<&N::K>) -> Vec<(N::K, N::V)> {
        let _g = flock_epoch::pin();
        let mut out = Vec::new();
        // SAFETY: pinned; the anchor lives as long as the tree.
        unsafe { self.walk_restarting(self.anchor, lo, hi, &mut out) };
        out
    }

    /// Walk from internal node `n` until a walk completes. A walk that
    /// reaches a leaf of an obsolete parent has been descheduled inside a
    /// spliced-out subtree, where it could meet the old leaf of a key
    /// removed and re-inserted behind it: it restarts from the anchor after
    /// the last key in `out`.
    ///
    /// # Safety
    ///
    /// The caller is pinned and reached `n` under that pin.
    unsafe fn walk_restarting(
        &self,
        mut n: *mut N,
        lo: Bound<&N::K>,
        hi: Bound<&N::K>,
        out: &mut Vec<(N::K, N::V)>,
    ) {
        loop {
            let resume = out.last().map(|(k, _)| k.clone());
            let from = resume.as_ref().map_or(lo, Bound::Excluded);
            // SAFETY: per the contract; an internal `n` never reads its
            // parent arguments.
            if unsafe { Self::walk(std::ptr::null_mut(), 0, n, from, hi, out) }.is_continue() {
                return;
            }
            n = self.anchor;
        }
    }

    /// In-order walk of `n`, child `i` of `parent`. `Break`: a leaf's
    /// parent was obsolete.
    unsafe fn walk(
        parent: *mut N,
        i: usize,
        n: *mut N,
        lo: Bound<&N::K>,
        hi: Bound<&N::K>,
        out: &mut Vec<(N::K, N::V)>,
    ) -> ControlFlow<()> {
        // SAFETY: pinned per caller.
        let node = unsafe { &*n };
        let Some(seps) = node.routing() else {
            let in_range = |(k, _): &(&N::K, &Mutable<N::V>)| key_in_range(*k, lo, hi);
            if !node.entries().any(|e| in_range(&e)) {
                return ControlFlow::Continue(());
            }
            let mark = out.len();
            let read = |read: fn(&Mutable<N::V>) -> N::V| {
                out.truncate(mark);
                out.extend(
                    node.entries()
                        .filter(in_range)
                        .map(|(k, s)| (k.clone(), read(s))),
                );
            };
            // SAFETY: pinned per caller.
            if unsafe { Self::bracket(parent, i, n, read) }.is_none() {
                out.truncate(mark);
                return ControlFlow::Break(());
            }
            return ControlFlow::Continue(());
        };
        if let [x] = seps {
            // A binary node, unrolled: through the loop below, leaftree's
            // 64-key scan measured about 30 % slower.
            if key_above_lower(x, lo) {
                // SAFETY: pinned per caller.
                unsafe { Self::walk(n, 0, node.child(0).load_acquire(), lo, hi, out) }?;
            }
            if key_below_upper(x, hi) {
                // SAFETY: pinned per caller.
                unsafe { Self::walk(n, 1, node.child(1).load_acquire(), lo, hi, out) }?;
            }
            return ControlFlow::Continue(());
        }
        for c in 0..=seps.len() {
            if c < seps.len() && !key_above_lower(&seps[c], lo) {
                continue; // everything in child c is < seps[c] <= lo
            }
            if c > 0 && !key_below_upper(&seps[c - 1], hi) {
                break; // child c and every later one start at >= hi
            }
            // SAFETY: pinned per caller.
            unsafe { Self::walk(n, c, node.child(c).load_acquire(), lo, hi, out) }?;
        }
        ControlFlow::Continue(())
    }

    /// Call `f` on every leaf under `n` in key order. The caller is pinned.
    unsafe fn leaves(n: *mut N, f: &mut impl FnMut(&N)) {
        // SAFETY: pinned per caller.
        let node = unsafe { &*n };
        if node.is_leaf() {
            return f(node);
        }
        for i in 0..=node.seps().len() {
            // SAFETY: as above.
            unsafe { Self::leaves(node.child(i).load(), f) };
        }
    }

    /// Element count (O(n) walk; tests/diagnostics).
    pub fn len(&self) -> usize {
        let _g = flock_epoch::pin();
        let mut n = 0;
        // SAFETY: pinned.
        unsafe { Self::leaves(self.anchor, &mut |l| n += l.entries().count()) };
        n
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ordered snapshot — single-threaded use.
    pub fn collect(&self) -> Vec<(N::K, N::V)> {
        let _g = flock_epoch::pin();
        let mut out = Vec::new();
        // SAFETY: pinned.
        unsafe { Self::leaves(self.anchor, &mut |l| out.extend(l.snapshot())) };
        out
    }

    /// Quiescent invariant check: no obsolete node is reachable, every
    /// node's keys are sorted and inside the bounds its ancestors route to
    /// it, and [`TreeNode::check_link`] holds on each linked pair.
    pub fn check_invariants(&self) {
        // SAFETY: quiescent per contract; the anchor is internal.
        unsafe { Self::check(self.anchor, None, None) }
    }

    unsafe fn check(n: *mut N, lo: Option<&N::K>, hi: Option<&N::K>) {
        // SAFETY: quiescent per caller.
        let p = unsafe { &*n };
        let seps = p.seps();
        for i in 0..=seps.len() {
            let (lo, hi) = (
                if i == 0 { lo } else { Some(&seps[i - 1]) },
                seps.get(i).or(hi),
            );
            // SAFETY: as above.
            let c = unsafe { &*p.child(i).load() };
            assert!(!c.lock().is_obsolete(), "unlinked node reachable");
            N::check_link(p, c);
            let keys: Vec<&N::K> = if c.is_leaf() {
                c.entries().map(|(k, _)| k).collect()
            } else {
                c.seps().iter().collect()
            };
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "unsorted node");
            for k in keys {
                assert!(lo.is_none_or(|lo| k >= lo), "key below its routing bound");
                assert!(hi.is_none_or(|hi| k < hi), "key above its routing bound");
            }
            if !c.is_leaf() {
                // SAFETY: as above.
                unsafe { Self::check(p.child(i).load(), lo, hi) };
            }
        }
    }
}

impl<N: TreeNode> Drop for Tree<N> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; retired nodes belong to the collector.
        unsafe fn free<N: TreeNode>(n: *mut N) {
            // SAFETY: exclusive teardown.
            unsafe {
                if !(*n).is_leaf() {
                    for i in 0..=(*n).seps().len() {
                        free((*n).child(i).load());
                    }
                }
                flock_epoch::free_now(n);
            }
        }
        // SAFETY: exclusive access.
        unsafe { free(self.anchor) }
    }
}

// SAFETY: mutation via Flock locks + epoch reclamation; the anchor is
// immutable.
unsafe impl<N: TreeNode> Send for Tree<N> {}
unsafe impl<N: TreeNode> Sync for Tree<N> {}

impl<N: TreeNode> flock_api::Map<N::K, N::V> for Tree<N> {
    fn insert(&self, key: N::K, value: N::V) -> bool {
        Tree::insert(self, key, value)
    }
    fn remove(&self, key: N::K) -> bool {
        Tree::remove(self, key)
    }
    fn get(&self, key: N::K) -> Option<N::V> {
        Tree::get(self, key)
    }
    fn contains(&self, key: N::K) -> bool {
        Tree::contains(self, &key)
    }
    fn name(&self) -> &'static str {
        if self.strict { N::STRICT_NAME } else { N::NAME }
    }
    fn update(&self, key: N::K, value: N::V) -> bool {
        Tree::update(self, key, value)
    }
    fn len_approx(&self) -> Option<usize> {
        Some(self.count.get())
    }
}

impl<N: TreeNode> flock_api::OrderedMap<N::K, N::V> for Tree<N> {
    fn range(&self, lo: Bound<&N::K>, hi: Bound<&N::K>) -> Vec<(N::K, N::V)> {
        Tree::range(self, lo, hi)
    }
}

#[cfg(test)]
impl<N: TreeNode> Tree<N> {
    /// The address of the parent of the leaf holding `k`.
    pub(crate) fn record(&self, k: &N::K) -> usize {
        self.search(k).p as usize
    }

    /// Continue an unbounded walk from the node recorded as `at`.
    ///
    /// # Safety
    ///
    /// The caller has been pinned since `at` was recorded.
    pub(crate) unsafe fn resume(&self, at: usize) -> Vec<(N::K, N::V)> {
        let (mut out, all) = (Vec::new(), Bound::Unbounded);
        // SAFETY: forwarded contract; `at` is an internal node.
        unsafe { self.walk_restarting(at as *mut N, all, all, &mut out) };
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    /// The unit tests every tree runs, stamped into a tree module's `tests`
    /// over its public alias: `$new` are the constructors `basic_ops` and
    /// `native_update_in_place` cover, `$update_keys` the keys the update
    /// test stores (past one leaf, so updates reach interior leaves), and
    /// the oracle runs over `$oracle_keys` keys from seed `$seed`.
    macro_rules! tree_tests {
        ($tree:ident, [$($new:ident),+], $update_keys:expr, $oracle_keys:expr, $seed:expr) => {
            use super::$tree;
            use flock_conformance as testutil;

            #[test]
            fn basic_ops() {
                testutil::both_modes(|| {
                    for t in [$($tree::<u64, u64>::$new()),+] {
                        assert!(t.is_empty());
                        assert!(t.insert(5, 50));
                        assert!(!t.insert(5, 51));
                        assert!(t.insert(3, 30));
                        assert!(t.insert(8, 80));
                        assert_eq!(t.collect(), vec![(3, 30), (5, 50), (8, 80)]);
                        assert!(t.insert(1, 10));
                        assert_eq!(t.collect(), vec![(1, 10), (3, 30), (5, 50), (8, 80)]);
                        assert!(t.remove(3));
                        assert!(!t.remove(3));
                        assert_eq!(t.get(3), None);
                        assert!(t.remove(5));
                        assert!(!t.remove(5));
                        assert_eq!(t.get(5), None);
                        assert_eq!(t.get(8), Some(80));
                        t.check_invariants();
                    }
                });
            }

            /// Native update stores in place: absent keys are refused,
            /// values change, the count does not.
            #[test]
            fn native_update_in_place() {
                testutil::both_modes(|| {
                    for t in [$($tree::<u64, u64>::$new()),+] {
                        let n: u64 = $update_keys;
                        assert!(!t.update(1, 10), "update of an absent key refused");
                        for k in 0..n {
                            assert!(t.insert(k, k));
                        }
                        for k in 0..n {
                            assert!(t.update(k, k + 1000));
                        }
                        for k in 0..n {
                            assert_eq!(t.get(k), Some(k + 1000));
                        }
                        assert_eq!(t.len(), n as usize, "update must not change the count");
                        assert!(t.remove(n / 2));
                        assert!(!t.update(n / 2, 1));
                        t.check_invariants();
                    }
                });
            }

            #[test]
            fn oracle() {
                testutil::both_modes(|| {
                    let t: $tree<u64, u64> = $tree::new();
                    testutil::oracle_check(&t, 4_000, $oracle_keys, $seed);
                    t.check_invariants();
                });
            }

            #[test]
            fn concurrent_partitioned() {
                testutil::both_modes(|| {
                    let t: $tree<u64, u64> = $tree::new();
                    testutil::partition_stress(&t, 4, 1_500);
                    t.check_invariants();
                });
            }
        };
    }
    pub(crate) use tree_tests;

    #[test]
    fn node_sizes() {
        use std::mem::size_of;
        assert_eq!(size_of::<crate::leaftree::Node<u64, u64>>(), 32);
        assert!(size_of::<crate::leaftree::Node<u32, u16>>() <= 32);
        assert_eq!(size_of::<crate::leaftreap::Node<u64, u64>>(), 80);
        assert_eq!(size_of::<crate::abtree::Node<u64, u64>>(), 168);
    }
}
