//! Sorted singly-linked *lazy list* with optimistic try-locks, generic over
//! `(K, V)`.
//!
//! The classic lazy-list design (Heller et al., OPODIS 2006), written with
//! Flock locks as in the paper's `lazylist` (§7): traversal takes no locks;
//! `insert` locks the predecessor; `remove` locks predecessor and victim,
//! marks the victim's lock obsolete (logical delete) and splices it out
//! (physical delete). `get` is wait-free: it walks the list and checks the
//! obsolete bit of the matching node's lock.

use std::ops::ControlFlow;

use flock_api::{Key, Map, Value};
use flock_core::{Lock, Mutable, Sp, ValueSlot};
use flock_sync::ApproxLen;

const KIND_NORMAL: u8 = 0;
const KIND_HEAD: u8 = 1;
const KIND_TAIL: u8 = 2;

struct Node<K: Key, V: Value> {
    next: Mutable<*mut Node<K, V>>,
    /// `None` only on the head/tail sentinels.
    key: Option<K>,
    /// Lock-word-adjacent value slot (`None` only on sentinels): mutable in
    /// place under this node's own lock (native `update`), snapshot-readable
    /// without it.
    value: Option<ValueSlot<V>>,
    /// Marked obsolete by the remove that unlinks the node: the logical
    /// delete.
    lock: Lock,
    kind: u8,
}

impl<K: Key, V: Value> Node<K, V> {
    fn new(key: Option<K>, value: Option<V>, next: *mut Node<K, V>, kind: u8) -> Self {
        Self {
            next: Mutable::new(next),
            key,
            value: value.map(ValueSlot::new),
            lock: Lock::new(),
            kind,
        }
    }

    #[inline]
    fn at_or_after(&self, k: &K) -> bool {
        match self.kind {
            KIND_TAIL => true,
            KIND_HEAD => false,
            _ => self.key.as_ref().is_some_and(|x| x >= k),
        }
    }

    #[inline]
    fn holds(&self, k: &K) -> bool {
        self.kind == KIND_NORMAL && self.key.as_ref() == Some(k)
    }
}

/// Sorted singly-linked lazy list map.
pub struct LazyList<K: Key, V: Value> {
    head: *mut Node<K, V>,
    tail: *mut Node<K, V>,
    /// Maintained element count backing `len_approx`.
    count: ApproxLen,
}

// SAFETY: mutation via Flock locks + epoch reclamation; head/tail immutable.
unsafe impl<K: Key, V: Value> Send for LazyList<K, V> {}
unsafe impl<K: Key, V: Value> Sync for LazyList<K, V> {}

impl<K: Key, V: Value> Default for LazyList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Value> LazyList<K, V> {
    /// An empty list.
    pub fn new() -> Self {
        let tail = flock_epoch::alloc(Node::new(None, None, std::ptr::null_mut(), KIND_TAIL));
        let head = flock_epoch::alloc(Node::new(None, None, tail, KIND_HEAD));
        Self {
            head,
            tail,
            count: ApproxLen::new(),
        }
    }

    /// Unlocked traversal: returns `(pred, curr)` with
    /// `pred.key < k <= curr.key` (sentinels at the ends).
    fn search(&self, k: &K) -> (*mut Node<K, V>, *mut Node<K, V>) {
        let mut pred = self.head;
        // SAFETY: epoch-pinned caller; nodes reclaimed via collector.
        let mut curr = unsafe { (*pred).next.load() };
        while !unsafe { &*curr }.at_or_after(k) {
            pred = curr;
            curr = unsafe { &*curr }.next.load();
        }
        (pred, curr)
    }

    /// Optimistic [`LazyList::search`] tail: first node at-or-after `k`,
    /// with plain `Acquire` loads and no thunk-log traffic. Caller must be
    /// epoch-pinned and outside any thunk ([`flock_core::read_validated`]).
    fn search_acquire(&self, k: &K) -> *mut Node<K, V> {
        // SAFETY: epoch-pinned caller; nodes reclaimed via collector.
        let mut curr = unsafe { (*self.head).next.load_acquire() };
        while !unsafe { &*curr }.at_or_after(k) {
            curr = unsafe { &*curr }.next.load_acquire();
        }
        curr
    }

    /// Version-validated (presence, value) snapshot of one node under its
    /// **own** lock — the logical-delete lock (marked obsolete by the
    /// remove) and the native-update lock, so an unchanged version across
    /// the reads proves the pair held simultaneously. `None` = removed.
    fn read_node_validated(c: &Node<K, V>) -> Option<V> {
        flock_core::read_validated(
            || {
                let Some(v0) = c.lock.version() else {
                    // The bit never clears: an obsolete read is definitive.
                    return c.lock.is_obsolete().then_some(None);
                };
                let v = c.value.as_ref().map(ValueSlot::read_acquire);
                c.lock.validate(v0).then_some(v)
            },
            || (!c.lock.is_obsolete()).then(|| c.value.as_ref().map(ValueSlot::read))?,
        )
    }

    /// Insert; `false` if present.
    pub fn insert(&self, k: K, v: V) -> bool {
        let added = crate::retry(|| {
            let (pred, curr) = self.search(&k);
            // SAFETY: pinned by `retry`.
            let curr_ref = unsafe { &*curr };
            if curr_ref.holds(&k) && !curr_ref.lock.is_obsolete() {
                return ControlFlow::Break(false);
            }
            let (sp_pred, sp_curr) = (Sp(pred), Sp(curr));
            let (k2, v2) = (k.clone(), v.clone());
            // SAFETY: pinned.
            ControlFlow::Continue(unsafe { &*pred }.lock.try_lock(move || {
                // SAFETY: epoch protection via owner pin / helper adoption.
                let p = unsafe { sp_pred.as_ref() };
                if p.next.load() != sp_curr.ptr() {
                    return false; // validate
                }
                let newn = flock_core::alloc(|| {
                    Node::new(
                        Some(k2.clone()),
                        Some(v2.clone()),
                        sp_curr.ptr(),
                        KIND_NORMAL,
                    )
                });
                p.next.store(newn);
                true
            }))
        });
        if added {
            self.count.inc();
        }
        added
    }

    /// Remove; `false` if absent.
    pub fn remove(&self, k: K) -> bool {
        let removed = crate::retry(|| {
            let (pred, curr) = self.search(&k);
            // SAFETY: pinned by `retry`.
            let curr_ref = unsafe { &*curr };
            if !curr_ref.holds(&k) || curr_ref.lock.is_obsolete() {
                return ControlFlow::Break(false);
            }
            let (sp_pred, sp_curr) = (Sp(pred), Sp(curr));
            let unlink = move || {
                // SAFETY: see insert.
                let p = unsafe { sp_pred.as_ref() };
                let c = unsafe { sp_curr.as_ref() };
                if p.next.load() != sp_curr.ptr() {
                    return false; // validate
                }
                c.lock.mark_obsolete(); // logical delete
                p.next.store(c.next.load()); // physical delete
                // SAFETY: unlinked above; idempotent retire fires once.
                unsafe { flock_core::retire(sp_curr.ptr()) };
                true
            };
            // SAFETY: pinned; runners adopt this epoch, so both locks
            // outlive them.
            ControlFlow::Continue(unsafe { (*pred).lock.try_lock_set([&curr_ref.lock], unlink) })
        });
        if removed {
            self.count.dec();
        }
        removed
    }

    /// Wait-free lookup: optimistic version-validated snapshot against the
    /// node's own lock, committed path after bounded failures.
    pub fn get(&self, k: K) -> Option<V> {
        let _g = flock_epoch::pin();
        flock_core::read_validated(
            || {
                // SAFETY: epoch-pinned.
                let c = unsafe { &*self.search_acquire(&k) };
                if !c.holds(&k) {
                    return Some(None);
                }
                let Some(v0) = c.lock.version() else {
                    // Logically deleted: definitively absent.
                    return c.lock.is_obsolete().then_some(None);
                };
                let v = c.value.as_ref().map(ValueSlot::read_acquire);
                c.lock.validate(v0).then_some(v)
            },
            || {
                // SAFETY: epoch-pinned.
                let c = unsafe { &*{ self.search(&k).1 } };
                if c.holds(&k) && !c.lock.is_obsolete() {
                    c.value.as_ref().map(ValueSlot::read)
                } else {
                    None
                }
            },
        )
    }

    /// Presence check that never decodes the value slot (no fat-value
    /// clone-and-drop): key match + logical-delete bit only.
    pub fn contains(&self, k: &K) -> bool {
        let _g = flock_epoch::pin();
        flock_core::read_validated(
            || {
                // SAFETY: epoch-pinned.
                let c = unsafe { &*self.search_acquire(k) };
                Some(c.holds(k) && !c.lock.is_obsolete())
            },
            || {
                // SAFETY: epoch-pinned.
                let c = unsafe { &*{ self.search(k).1 } };
                c.holds(k) && !c.lock.is_obsolete()
            },
        )
    }

    /// Ordered range scan over the bounds (consistency contract:
    /// [`flock_api::OrderedMap::range`] — per-node-atomic pairs, weakly
    /// consistent across nodes). A removed node's `next` is frozen at
    /// unlink time and keeps pointing forward, so keys stay strictly
    /// increasing and each is reported at most once.
    pub fn range(&self, lo: std::ops::Bound<&K>, hi: std::ops::Bound<&K>) -> Vec<(K, V)> {
        use std::ops::Bound;
        let _g = flock_epoch::pin();
        let mut out = Vec::new();
        // SAFETY: epoch-pinned walk; head is immutable.
        let mut p = match lo {
            Bound::Unbounded => unsafe { (*self.head).next.load_acquire() },
            Bound::Included(k) => self.search_acquire(k),
            Bound::Excluded(k) => {
                let p = self.search_acquire(k);
                // SAFETY: epoch-pinned traversal result.
                if unsafe { &*p }.holds(k) {
                    unsafe { (*p).next.load_acquire() }
                } else {
                    p
                }
            }
        };
        loop {
            // SAFETY: epoch-pinned walk over live (or frozen-removed) nodes.
            let c = unsafe { &*p };
            if c.kind != KIND_NORMAL {
                break;
            }
            let key = c.key.clone().expect("normal node has a key");
            let past_hi = match hi {
                Bound::Unbounded => false,
                Bound::Included(h) => &key > h,
                Bound::Excluded(h) => &key >= h,
            };
            if past_hi {
                break;
            }
            if let Some(v) = Self::read_node_validated(c) {
                out.push((key, v));
            }
            p = c.next.load_acquire();
        }
        out
    }

    /// Native atomic update: replace the value stored under `k` in place —
    /// one idempotent slot store under the node's **own** lock. Returns
    /// `false` (storing nothing) if `k` is absent.
    ///
    /// The node's lock is the remove path's inner lock, whose critical
    /// section marks it obsolete (the logical delete), so holding it pins
    /// "the key is present" for the whole thunk: readers see the old value
    /// or the new one, never absence.
    pub fn update(&self, k: K, v: V) -> bool {
        crate::retry(|| {
            let (_, curr) = self.search(&k);
            // SAFETY: pinned by `retry`.
            let curr_ref = unsafe { &*curr };
            if !curr_ref.holds(&k) || curr_ref.lock.is_obsolete() {
                return ControlFlow::Break(false);
            }
            let sp_curr = Sp(curr);
            let v2 = v.clone();
            // `None`: the node's lock is busy, or the node was deleted.
            ControlFlow::Continue(curr_ref.lock.try_lock(move || {
                // SAFETY: thunk runners hold epoch protection.
                let c = unsafe { sp_curr.as_ref() };
                c.value
                    .as_ref()
                    .expect("normal node has a value slot")
                    .set(v2.clone());
                true
            }))
        })
    }

    /// Element count (O(n); tests/diagnostics).
    pub fn len(&self) -> usize {
        let _g = flock_epoch::pin();
        let mut n = 0;
        // SAFETY: epoch-pinned walk.
        let mut p = unsafe { (*self.head).next.load() };
        while unsafe { &*p }.kind == KIND_NORMAL {
            n += 1;
            p = unsafe { &*p }.next.load();
        }
        n
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ordered snapshot — single-threaded use.
    pub fn collect(&self) -> Vec<(K, V)> {
        let _g = flock_epoch::pin();
        let mut out = Vec::new();
        // SAFETY: epoch-pinned walk.
        let mut p = unsafe { (*self.head).next.load() };
        while unsafe { &*p }.kind == KIND_NORMAL {
            let n = unsafe { &*p };
            if let (Some(k), Some(v)) = (n.key.clone(), n.value.as_ref().map(ValueSlot::read)) {
                out.push((k, v));
            }
            p = n.next.load();
        }
        out
    }

    /// Quiescent invariant check: strictly sorted, no obsolete nodes linked.
    pub fn check_invariants(&self) {
        // SAFETY: quiescent per contract.
        unsafe {
            let mut p = (*self.head).next.load();
            let mut last: Option<K> = None;
            while (*p).kind == KIND_NORMAL {
                assert!(!(*p).lock.is_obsolete(), "removed node reachable");
                let pk = (*p).key.clone().expect("normal node has a key");
                if let Some(lk) = &last {
                    assert!(lk < &pk, "keys out of order");
                }
                last = Some(pk);
                p = (*p).next.load();
            }
            assert_eq!(p, self.tail);
        }
    }
}

impl<K: Key, V: Value> Drop for LazyList<K, V> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; retired nodes belong to the collector.
        unsafe {
            let mut p = self.head;
            while !p.is_null() {
                let next = (*p).next.load();
                let is_tail = p == self.tail;
                flock_epoch::free_now(p);
                if is_tail {
                    break;
                }
                p = next;
            }
        }
    }
}

impl<K: Key, V: Value> Map<K, V> for LazyList<K, V> {
    fn insert(&self, key: K, value: V) -> bool {
        LazyList::insert(self, key, value)
    }
    fn remove(&self, key: K) -> bool {
        LazyList::remove(self, key)
    }
    fn get(&self, key: K) -> Option<V> {
        LazyList::get(self, key)
    }
    fn contains(&self, key: K) -> bool {
        LazyList::contains(self, &key)
    }
    fn name(&self) -> &'static str {
        "lazylist"
    }
    fn update(&self, key: K, value: V) -> bool {
        LazyList::update(self, key, value)
    }
    fn has_atomic_update(&self) -> bool {
        true
    }
    fn len_approx(&self) -> Option<usize> {
        Some(self.count.get())
    }
}

impl<K: Key, V: Value> flock_api::OrderedMap<K, V> for LazyList<K, V> {
    fn range(&self, lo: std::ops::Bound<&K>, hi: std::ops::Bound<&K>) -> Vec<(K, V)> {
        LazyList::range(self, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_api::testing as testutil;

    #[test]
    fn basic_ops() {
        testutil::both_modes(|| {
            let l: LazyList<u64, u64> = LazyList::new();
            assert!(l.insert(5, 50));
            assert!(!l.insert(5, 51));
            assert!(l.insert(1, 10));
            assert!(l.insert(9, 90));
            assert_eq!(l.collect(), vec![(1, 10), (5, 50), (9, 90)]);
            assert!(l.remove(5));
            assert!(!l.remove(5));
            assert_eq!(l.get(5), None);
            assert_eq!(l.get(9), Some(90));
            l.check_invariants();
        });
    }

    #[test]
    fn reinsert_after_remove() {
        testutil::both_modes(|| {
            let l: LazyList<u64, u64> = LazyList::new();
            for round in 0..10u64 {
                assert!(l.insert(42, round));
                assert_eq!(l.get(42), Some(round));
                assert!(l.remove(42));
                assert_eq!(l.get(42), None);
            }
            assert!(l.is_empty());
        });
    }

    #[test]
    fn native_update_in_place() {
        testutil::both_modes(|| {
            let l: LazyList<u64, u64> = LazyList::new();
            assert!(!l.update(1, 10), "update of an absent key refused");
            assert!(l.insert(1, 10));
            assert!(l.update(1, 11));
            assert_eq!(l.get(1), Some(11));
            assert_eq!(l.len(), 1, "update must not change the count");
            assert!(l.remove(1));
            assert!(!l.update(1, 12));
            l.check_invariants();
        });
    }

    #[test]
    fn oracle() {
        testutil::both_modes(|| {
            let l: LazyList<u64, u64> = LazyList::new();
            testutil::oracle_check(&l, 3_000, 64, 7);
            l.check_invariants();
        });
    }

    #[test]
    fn concurrent_partitioned() {
        testutil::both_modes(|| {
            let l: LazyList<u64, u64> = LazyList::new();
            testutil::partition_stress(&l, 4, 1_500);
            l.check_invariants();
        });
    }
}
