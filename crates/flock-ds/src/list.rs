//! The link-lock list protocol, written once for [`crate::dlist`] and
//! [`crate::lazylist`]. Each list supplies its node layout through
//! [`ListNode`]; [`List`] owns the searches, the validated read, `insert`,
//! `remove`, `get`, `contains`, `update`, the range scan, `len`, `collect`,
//! the shared invariants and teardown.
//!
//! A list runs from a head sentinel to a tail sentinel. A search starts at
//! the head's successor and stops at the first link at or after its key or
//! at the tail, which it recognises by address: no search examines the
//! head. Each link's own lock guards its value slot and is marked obsolete
//! by the remove that unlinks it, so an obsolete link is definitively
//! absent (the crate docs, "List protocol").
//!
//! The two lists differ in one field, the back pointer [`ListNode::prev`]:
//! - the predecessor an update locks is the back pointer of the link it
//!   found (Algorithm 1), or else the search's trailing link;
//! - the insert and unlink thunks also store the back pointer of the link
//!   after the splice;
//! - the invariant check asserts every back pointer names its predecessor.

use std::ops::{Bound, ControlFlow};

use flock_api::{Key, Value, key_above_lower, key_below_upper};
use flock_core::{Lock, Mutable, Sp};
use flock_sync::ApproxLen;

/// A link of a sorted list.
pub trait ListNode: Sized + 'static {
    /// Key type.
    type K: Key;
    /// Value type.
    type V: Value;
    /// The list's [`flock_api::Map::name`].
    const NAME: &'static str;

    /// A link holding `entry` (`None` on the sentinels), before `next` and
    /// after `prev`.
    fn new(entry: Option<(Self::K, Self::V)>, next: *mut Self, prev: *mut Self) -> Self;
    /// The forward pointer.
    fn next(&self) -> &Mutable<*mut Self>;
    /// The back pointer, on a doubly-linked list.
    fn prev(&self) -> Option<&Mutable<*mut Self>>;
    /// The key and value slot; `None` only on the sentinels.
    fn entry(&self) -> Option<&(Self::K, Mutable<Self::V>)>;
    /// Guards the value slot; marked obsolete by the unlinking remove.
    fn lock(&self) -> &Lock;

    /// The key of a link that is not a sentinel.
    #[inline]
    fn key(&self) -> &Self::K {
        &self.entry().expect("a sentinel has no key").0
    }

    /// The value slot of a link that is not a sentinel.
    #[inline]
    fn slot(&self) -> &Mutable<Self::V> {
        &self.entry().expect("a sentinel has no value").1
    }
}

/// A sorted list map under the shared protocol; the public lists are
/// aliases of it ([`crate::dlist::DList`], [`crate::lazylist::LazyList`]).
pub struct List<N: ListNode> {
    head: *mut N,
    tail: *mut N,
    /// Maintained element count backing `len_approx`.
    count: ApproxLen,
}

// SAFETY: the links are shared by raw pointer and changed only through
// Flock locks, and reclaimed through the epoch collector; head and tail are
// immutable; keys and values are `Send + Sync` (`Key`, `Value`).
unsafe impl<N: ListNode> Send for List<N> {}
unsafe impl<N: ListNode> Sync for List<N> {}

impl<N: ListNode> Default for List<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: ListNode> List<N> {
    /// An empty list.
    pub fn new() -> Self {
        let null = std::ptr::null_mut();
        let tail = flock_epoch::alloc(N::new(None, null, null));
        let head = flock_epoch::alloc(N::new(None, tail, null));
        // SAFETY: fresh, unshared.
        if let Some(prev) = unsafe { &*tail }.prev() {
            prev.store(head);
        }
        Self {
            head,
            tail,
            count: ApproxLen::new(),
        }
    }

    /// Walk from the head past every link whose key is `before`, reading
    /// each `next` with `load`: `(trail, curr)`, `curr` the first link not
    /// `before` (or the tail) and `trail` the link ahead of it. The caller
    /// is pinned.
    #[inline]
    fn seek(
        &self,
        load: impl Fn(&Mutable<*mut N>) -> *mut N,
        before: impl Fn(&N::K) -> bool,
    ) -> (*mut N, *mut N) {
        let mut trail = self.head;
        // SAFETY: pinned; links are epoch-reclaimed.
        let mut curr = load(unsafe { &*trail }.next());
        // SAFETY: as above.
        while curr != self.tail && before(unsafe { &*curr }.key()) {
            trail = curr;
            // SAFETY: as above.
            curr = load(unsafe { &*curr }.next());
        }
        (trail, curr)
    }

    /// The committed search, as every update's plan must read:
    /// `(trail, curr, found)`, `curr` the first link at or after `k`, and
    /// `found` whether `curr` holds `k` and is not obsolete.
    fn search(&self, k: &N::K) -> (*mut N, *mut N, bool) {
        let (trail, curr) = self.seek(Mutable::load, |x| x < k);
        (trail, curr, self.present(curr, k))
    }

    /// The search for reads: plain `Acquire` loads, except inside a thunk,
    /// where unlogged loads would desynchronize helpers.
    fn locate(&self, before: impl Fn(&N::K) -> bool) -> *mut N {
        if flock_core::in_thunk() {
            self.seek(Mutable::load, before).1
        } else {
            self.seek(Mutable::load_acquire, before).1
        }
    }

    /// Does `l`, reached by a search under the caller's pin, hold `k`?
    fn holds(&self, l: *mut N, k: &N::K) -> bool {
        // SAFETY: pinned per caller.
        l != self.tail && unsafe { &*l }.key() == k
    }

    /// Does `l` hold `k` and is it not obsolete?
    fn present(&self, l: *mut N, k: &N::K) -> bool {
        // SAFETY: pinned per caller.
        self.holds(l, k) && !unsafe { &*l }.lock().is_obsolete()
    }

    /// `l`'s value under its own lock, or `None` if `l` is obsolete. An
    /// unchanged version across the slot read proves the link linked and the
    /// value current at once; the bit never clears, so an obsolete read
    /// needs no validation.
    fn read(l: &N) -> Option<N::V> {
        let (lock, slot) = (l.lock(), l.slot());
        flock_core::read_validated(
            || {
                let Some(v0) = lock.version() else {
                    return lock.is_obsolete().then_some(None);
                };
                let v = slot.load_acquire();
                lock.validate(v0).then_some(Some(v))
            },
            || (!lock.is_obsolete()).then(|| slot.load()),
        )
    }

    /// Insert; `false` if the key is already present.
    pub fn insert(&self, k: N::K, v: N::V) -> bool {
        let added = crate::retry(|| {
            let (trail, next, found) = self.search(&k);
            if found {
                return ControlFlow::Break(false);
            }
            // SAFETY: pinned by `retry`.
            let pred = unsafe { &*next }.prev().map_or(trail, Mutable::load);
            // SAFETY: pinned; a back pointer names the head or a keyed link.
            if pred != self.head && unsafe { &*pred }.key() >= &k {
                return ControlFlow::Continue(Some(false)); // stale back pointer
            }
            let (sp, sn, k2, v2) = (Sp(pred), Sp(next), k.clone(), v.clone());
            // SAFETY: pinned.
            ControlFlow::Continue(unsafe { &*pred }.lock().try_lock(move || {
                // SAFETY: thunk runners hold epoch protection.
                let (p, n) = unsafe { (sp.as_ref(), sn.as_ref()) };
                if p.next().load() != sn.ptr() {
                    return false; // validate
                }
                let new = flock_core::alloc(|| {
                    N::new(Some((k2.clone(), v2.clone())), sn.ptr(), sp.ptr())
                });
                p.next().store(new);
                if let Some(prev) = n.prev() {
                    prev.store(new);
                }
                true
            }))
        });
        if added {
            self.count.inc();
        }
        added
    }

    /// Remove; `false` if the key is absent. Locks the predecessor and the
    /// link, marks the link obsolete and splices it out.
    pub fn remove(&self, k: N::K) -> bool {
        let removed = crate::retry(|| {
            let (trail, curr, found) = self.search(&k);
            if !found {
                return ControlFlow::Break(false);
            }
            // SAFETY: pinned by `retry`.
            let c = unsafe { &*curr };
            let pred = c.prev().map_or(trail, Mutable::load);
            let (sp, sc) = (Sp(pred), Sp(curr));
            let unlink = move || {
                // SAFETY: thunk runners hold epoch protection.
                let (p, c) = unsafe { (sp.as_ref(), sc.as_ref()) };
                if p.next().load() != sc.ptr() {
                    return false; // validate
                }
                let next = c.next().load();
                c.lock().mark_obsolete();
                p.next().store(next);
                // SAFETY: next was linked after c until now.
                if let Some(prev) = unsafe { &*next }.prev() {
                    prev.store(sp.ptr());
                }
                // SAFETY: unlinked above; idempotent retire.
                unsafe { flock_core::retire(sc.ptr()) };
                true
            };
            // SAFETY: pinned; runners adopt this epoch, so both locks
            // outlive them.
            ControlFlow::Continue(unsafe { (*pred).lock().try_lock_set([c.lock()], unlink) })
        });
        if removed {
            self.count.dec();
        }
        removed
    }

    /// Lookup without locks: the validated read of the link the search
    /// reaches.
    pub fn get(&self, k: N::K) -> Option<N::V> {
        let _g = flock_epoch::pin();
        let l = self.locate(|x| x < &k);
        // SAFETY: pinned.
        self.holds(l, &k).then(|| Self::read(unsafe { &*l }))?
    }

    /// Presence, never decoding the value slot: key match and the obsolete
    /// bit only.
    pub fn contains(&self, k: &N::K) -> bool {
        let _g = flock_epoch::pin();
        self.present(self.locate(|x| x < k), k)
    }

    /// Native atomic update: one idempotent slot store under the link's
    /// **own** lock. The remove that unlinks the link marks that lock
    /// obsolete inside its critical section, so holding it keeps the key
    /// present for the whole thunk: readers see the old value or the new
    /// one, never absence or a third value. `false` (storing nothing) if `k`
    /// is absent.
    pub fn update(&self, k: N::K, v: N::V) -> bool {
        crate::retry(|| {
            let (_, curr, found) = self.search(&k);
            if !found {
                return ControlFlow::Break(false);
            }
            let (sc, v2) = (Sp(curr), v.clone());
            // SAFETY: pinned by `retry`. `None`: the lock is busy, or the
            // link was unlinked.
            ControlFlow::Continue(unsafe { &*curr }.lock().try_lock(move || {
                // SAFETY: thunk runners hold epoch protection.
                unsafe { sc.as_ref() }.slot().store(v2.clone());
                true
            }))
        })
    }

    /// Ordered range scan over `[lo, hi]` (see [`flock_api::OrderedMap`]
    /// for the consistency contract): the validated read of each link in
    /// bounds.
    ///
    /// A removed link's `next` is frozen at unlink time and still points at
    /// larger keys, so the walk needs no restart past concurrent splices:
    /// keys stay strictly increasing, each is reported at most once, and an
    /// obsolete link reads as absent.
    pub fn range(&self, lo: Bound<&N::K>, hi: Bound<&N::K>) -> Vec<(N::K, N::V)> {
        let _g = flock_epoch::pin();
        let mut out = Vec::new();
        let from = self.locate(|x| !key_above_lower(x, lo));
        // SAFETY: pinned.
        unsafe { self.walk(from, hi, &mut out) };
        out
    }

    /// Walk from link `p` to `hi` or the tail.
    ///
    /// # Safety
    ///
    /// The caller is pinned and reached `p` under that pin.
    unsafe fn walk(&self, mut p: *mut N, hi: Bound<&N::K>, out: &mut Vec<(N::K, N::V)>) {
        while p != self.tail {
            // SAFETY: pinned per caller; unlinked links are frozen.
            let l = unsafe { &*p };
            if !key_below_upper(l.key(), hi) {
                break;
            }
            if let Some(v) = Self::read(l) {
                out.push((l.key().clone(), v));
            }
            p = l.next().load_acquire();
        }
    }

    /// Call `f` on each linked link in order, by committed reads.
    fn each(&self, mut f: impl FnMut(&N)) {
        let _g = flock_epoch::pin();
        // SAFETY: pinned; head is immutable.
        let mut p = unsafe { &*self.head }.next().load();
        while p != self.tail {
            // SAFETY: as above.
            let l = unsafe { &*p };
            f(l);
            p = l.next().load();
        }
    }

    /// Number of elements (O(n) walk; for tests and diagnostics — the
    /// maintained count behind [`flock_api::Map::len_approx`] is
    /// O(stripes)).
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.each(|_| n += 1);
        n
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the (key, value) pairs in order — single-threaded use.
    pub fn collect(&self) -> Vec<(N::K, N::V)> {
        let mut out = Vec::new();
        self.each(|l| out.push((l.key().clone(), l.slot().load())));
        out
    }

    /// Check structural invariants: keys strictly sorted, no obsolete link
    /// reachable, the walk ends at the tail, and every back pointer names
    /// its predecessor. Call only while quiescent.
    pub fn check_invariants(&self) {
        let _g = flock_epoch::pin();
        let (mut pred, mut last) = (self.head, None);
        loop {
            // SAFETY: quiescent per contract.
            let p = unsafe { &*pred }.next().load();
            assert!(!p.is_null(), "list ends before the tail");
            // SAFETY: as above.
            let l = unsafe { &*p };
            if let Some(prev) = l.prev() {
                assert_eq!(prev.load(), pred, "broken back-pointer");
            }
            if p == self.tail {
                return;
            }
            assert!(!l.lock().is_obsolete(), "removed link still reachable");
            assert!(last.is_none_or(|x| x < l.key()), "keys out of order");
            (pred, last) = (p, Some(l.key()));
        }
    }
}

impl<N: ListNode> Drop for List<N> {
    fn drop(&mut self) {
        // Exclusive access: free the linked nodes directly; retired ones
        // belong to the collector.
        let mut p = self.head;
        loop {
            // SAFETY: &mut self implies no concurrent users.
            let next = unsafe { &*p }.next().load();
            let last = p == self.tail;
            // SAFETY: as above; each linked node is freed once.
            unsafe { flock_epoch::free_now(p) };
            if last {
                break;
            }
            p = next;
        }
    }
}

impl<N: ListNode> flock_api::Map<N::K, N::V> for List<N> {
    fn insert(&self, key: N::K, value: N::V) -> bool {
        List::insert(self, key, value)
    }
    fn remove(&self, key: N::K) -> bool {
        List::remove(self, key)
    }
    fn get(&self, key: N::K) -> Option<N::V> {
        List::get(self, key)
    }
    fn contains(&self, key: N::K) -> bool {
        List::contains(self, &key)
    }
    fn name(&self) -> &'static str {
        N::NAME
    }
    fn update(&self, key: N::K, value: N::V) -> bool {
        List::update(self, key, value)
    }
    fn len_approx(&self) -> Option<usize> {
        Some(self.count.get())
    }
}

impl<N: ListNode> flock_api::OrderedMap<N::K, N::V> for List<N> {
    fn range(&self, lo: Bound<&N::K>, hi: Bound<&N::K>) -> Vec<(N::K, N::V)> {
        List::range(self, lo, hi)
    }
}

#[cfg(test)]
impl<N: ListNode> List<N> {
    /// The address of the link the search for `k` stops at.
    pub(crate) fn record(&self, k: &N::K) -> usize {
        self.search(k).1 as usize
    }

    /// Continue an unbounded walk from the link recorded as `at`.
    ///
    /// # Safety
    ///
    /// The caller has been pinned since `at` was recorded.
    pub(crate) unsafe fn resume(&self, at: usize) -> Vec<(N::K, N::V)> {
        let mut out = Vec::new();
        // SAFETY: forwarded contract.
        unsafe { self.walk(at as *mut N, Bound::Unbounded, &mut out) };
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    /// The unit tests both lists run, stamped into a list module's `tests`
    /// over its public alias.
    macro_rules! list_tests {
        ($list:ident) => {
            use super::$list;
            use flock_conformance as testutil;

            #[test]
            fn basic_ops() {
                testutil::both_modes(|| {
                    let l: $list<u64, u64> = $list::new();
                    assert_eq!(l.get(5), None);
                    assert!(l.insert(5, 50));
                    assert!(!l.insert(5, 51), "duplicate insert must fail");
                    assert_eq!(l.get(5), Some(50));
                    assert!(l.insert(3, 30));
                    assert!(l.insert(7, 70));
                    assert_eq!(l.collect(), vec![(3, 30), (5, 50), (7, 70)]);
                    assert!(l.remove(5));
                    assert!(!l.remove(5));
                    assert_eq!(l.collect(), vec![(3, 30), (7, 70)]);
                    l.check_invariants();

                    let l: $list<u64, u64> = $list::new();
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
            fn boundary_keys() {
                testutil::both_modes(|| {
                    let l: $list<u64, u64> = $list::new();
                    assert!(l.insert(0, 1));
                    assert!(l.insert(u64::MAX, 2));
                    assert_eq!(l.get(0), Some(1));
                    assert_eq!(l.get(u64::MAX), Some(2));
                    assert!(l.remove(0));
                    assert!(l.remove(u64::MAX));
                    assert!(l.is_empty());
                });
            }

            #[test]
            fn heap_keys_and_fat_values() {
                use flock_core::Indirect;
                testutil::both_modes(|| {
                    let l: $list<String, Indirect<Vec<u64>>> = $list::new();
                    assert!(l.insert("b".into(), Indirect(vec![2, 2])));
                    assert!(l.insert("a".into(), Indirect(vec![1])));
                    assert_eq!(l.get("a".into()), Some(Indirect(vec![1])));
                    assert_eq!(
                        l.collect().into_iter().map(|(k, _)| k).collect::<Vec<_>>(),
                        vec!["a".to_string(), "b".to_string()],
                        "heap keys stay sorted"
                    );
                    assert!(l.remove("a".into()));
                    assert_eq!(l.get("a".into()), None);
                    l.check_invariants();
                });
            }

            #[test]
            fn reinsert_after_remove() {
                testutil::both_modes(|| {
                    let l: $list<u64, u64> = $list::new();
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
                    let l: $list<u64, u64> = $list::new();
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
                    for seed in [42, 7] {
                        let l: $list<u64, u64> = $list::new();
                        testutil::oracle_check(&l, 3_000, 64, seed);
                        l.check_invariants();
                    }
                });
            }

            #[test]
            fn concurrent_partitioned() {
                testutil::both_modes(|| {
                    let l: $list<u64, u64> = $list::new();
                    testutil::partition_stress(&l, 4, 1_500);
                    l.check_invariants();
                });
            }

            #[test]
            fn drop_reclaims_without_crash() {
                testutil::exclusive(|| {
                    let l: $list<u64, u64> = $list::new();
                    for i in 0..100 {
                        l.insert(i, i);
                    }
                    for i in 0..50 {
                        l.remove(i * 2);
                    }
                    drop(l);
                    flock_epoch::flush_all();
                });
            }
        };
    }
    pub(crate) use list_tests;
}
