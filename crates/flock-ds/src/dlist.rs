//! Sorted doubly-linked list with optimistic fine-grained try-locks —
//! the paper's running example (Algorithm 1), generic over `(K, V)`.
//!
//! Each link carries a key, a value, `next`/`prev` mutable pointers, a
//! `removed` update-once flag, and a lock. Traversal takes no locks; an
//! update locks only the predecessor (insert) or predecessor + victim
//! (remove), validates that the neighborhood is unchanged, and splices. The
//! doubly-linked splice (`prev.next = n; next.prev = n`) is the two-word
//! update that is painful to make lock-free by hand and trivial here.
//!
//! Keys and values are cloned into nodes (`K: Clone`, and `V` through the
//! `ValueRepr` layer — fat values ride inside the epoch-reclaimed link
//! allocation). Sentinel links carry no key/value (`None`).
//!
//! Note on thunk results: thunks communicate **only** through their boolean
//! return value and the shared structure. Capturing a pointer to the
//! caller's stack would be a use-after-return hazard, because a helper can
//! still be replaying the thunk after the owner's call has returned — the
//! same reason the paper's C++ lambdas must capture by value.

use flock_api::{Key, Map, Value};
use flock_core::{Lock, Mutable, Sp, UpdateOnce, ValueSlot};
use flock_sync::{ApproxLen, Backoff};

/// Sentinel markers so head/tail need no special key values.
const KIND_NORMAL: u8 = 0;
const KIND_HEAD: u8 = 1;
const KIND_TAIL: u8 = 2;

struct Link<K: Key, V: Value> {
    next: Mutable<*mut Link<K, V>>,
    prev: Mutable<*mut Link<K, V>>,
    removed: UpdateOnce<bool>,
    /// `None` only on the head/tail sentinels.
    key: Option<K>,
    /// Lock-word-adjacent value slot (`None` only on sentinels): mutable in
    /// place under this link's own lock (native `update`), snapshot-readable
    /// without it.
    value: Option<ValueSlot<V>>,
    lock: Lock,
    kind: u8,
}

impl<K: Key, V: Value> Link<K, V> {
    fn new(
        key: Option<K>,
        value: Option<V>,
        next: *mut Link<K, V>,
        prev: *mut Link<K, V>,
        kind: u8,
    ) -> Self {
        Self {
            next: Mutable::new(next),
            prev: Mutable::new(prev),
            removed: UpdateOnce::new(false),
            key,
            value: value.map(ValueSlot::new),
            lock: Lock::new(),
            kind,
        }
    }

    /// Does this link's key order at-or-after `k`? Tail orders after
    /// everything, head before everything.
    #[inline]
    fn at_or_after(&self, k: &K) -> bool {
        match self.kind {
            KIND_TAIL => true,
            KIND_HEAD => false,
            _ => self.key.as_ref().is_some_and(|x| x >= k),
        }
    }

    /// Is this a normal link holding exactly `k`?
    #[inline]
    fn holds(&self, k: &K) -> bool {
        self.kind == KIND_NORMAL && self.key.as_ref() == Some(k)
    }
}

/// Sorted doubly-linked list map (paper Algorithm 1).
///
/// ```
/// use flock_ds::dlist::DList;
/// use flock_api::Map;
/// let l: DList<u64, u64> = DList::new();
/// assert!(l.insert(2, 20));
/// assert!(l.insert(1, 10));
/// assert_eq!(l.get(2), Some(20));
/// assert!(l.remove(1));
/// assert_eq!(l.get(1), None);
/// ```
pub struct DList<K: Key, V: Value> {
    head: *mut Link<K, V>,
    tail: *mut Link<K, V>,
    /// Maintained element count backing `len_approx` (bumped outside the
    /// thunks: exactly one caller sees `Some(true)` per applied op).
    count: ApproxLen,
}

// SAFETY: all mutation is via Flock locks + epoch reclamation; the raw head
// and tail pointers are immutable after construction.
unsafe impl<K: Key, V: Value> Send for DList<K, V> {}
unsafe impl<K: Key, V: Value> Sync for DList<K, V> {}

impl<K: Key, V: Value> Default for DList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Value> DList<K, V> {
    /// An empty list.
    pub fn new() -> Self {
        let head = flock_epoch::alloc(Link::new(
            None,
            None,
            std::ptr::null_mut(),
            std::ptr::null_mut(),
            KIND_HEAD,
        ));
        let tail = flock_epoch::alloc(Link::new(None, None, std::ptr::null_mut(), head, KIND_TAIL));
        // SAFETY: fresh, unshared.
        unsafe { (*head).next.store(tail) };
        Self {
            head,
            tail,
            count: ApproxLen::new(),
        }
    }

    /// First link whose key orders at-or-after `k` (paper's `find_link`).
    /// Lock-free traversal; loads are unlogged because we are outside locks.
    fn find_link(&self, k: &K) -> *mut Link<K, V> {
        // SAFETY: head is immutable; links are epoch-protected (caller pins).
        let mut lnk = unsafe { (*self.head).next.load() };
        // SAFETY: as above — every loaded link is protected by the pin.
        while !unsafe { &*lnk }.at_or_after(k) {
            lnk = unsafe { &*lnk }.next.load();
        }
        lnk
    }

    /// Optimistic [`DList::find_link`]: plain `Acquire` pointer loads, no
    /// thunk-log traffic. Caller must be epoch-pinned and outside any thunk
    /// (the [`flock_core::read_validated`] discipline).
    fn find_link_acquire(&self, k: &K) -> *mut Link<K, V> {
        // SAFETY: identical to find_link — the pin covers every deref.
        let mut lnk = unsafe { (*self.head).next.load_acquire() };
        while !unsafe { &*lnk }.at_or_after(k) {
            lnk = unsafe { &*lnk }.next.load_acquire();
        }
        lnk
    }

    /// Version-validated snapshot of one link's (presence, value) pair,
    /// under the link's **own** lock — the same lock `remove` sets the
    /// `removed` flag under and `update` stores through, so an unchanged
    /// version across the two reads proves they were simultaneously true.
    /// `None` means the link was removed (or kept failing validation and
    /// the committed re-check found it removed).
    fn read_link_validated(l: &Link<K, V>) -> Option<V> {
        flock_core::read_validated(
            || {
                let v0 = l.lock.version()?;
                if l.removed.load() {
                    // Monotonic flag: a true read is definitive, no
                    // validation needed to conclude absence.
                    return Some(None);
                }
                let v = l.value.as_ref().map(ValueSlot::read_acquire);
                l.lock.validate(v0).then_some(v)
            },
            || (!l.removed.load()).then(|| l.value.as_ref().map(ValueSlot::read))?,
        )
    }

    /// Insert; `false` if the key is already present.
    pub fn insert(&self, k: K, v: V) -> bool {
        let _g = flock_epoch::pin();
        let mut backoff = Backoff::new();
        loop {
            let next = self.find_link(&k);
            // SAFETY: epoch-pinned traversal result.
            let next_ref = unsafe { &*next };
            if next_ref.holds(&k) {
                return false; // already there
            }
            let prev = next_ref.prev.load();
            // SAFETY: prev read from a live link; epoch-pinned.
            let prev_ref = unsafe { &*prev };
            let prev_ok = prev_ref.kind == KIND_HEAD
                || (prev_ref.kind == KIND_NORMAL && prev_ref.key.as_ref().is_some_and(|x| x < &k));
            if prev_ok {
                let (sp_prev, sp_next) = (Sp(prev), Sp(next));
                let (k2, v2) = (k.clone(), v.clone());
                match prev_ref.lock.try_lock(move || {
                    // SAFETY: thunk runs under epoch protection (owner's pin
                    // or helper's adopted epoch); links are retired through
                    // the collector, so these derefs are valid.
                    let (p, n) = unsafe { (sp_prev.as_ref(), sp_next.as_ref()) };
                    if p.removed.load() || p.next.load() != sp_next.ptr() {
                        return false; // validate
                    }
                    let newl = flock_core::alloc(|| {
                        Link::new(
                            Some(k2.clone()),
                            Some(v2.clone()),
                            sp_next.ptr(),
                            sp_prev.ptr(),
                            KIND_NORMAL,
                        )
                    });
                    p.next.store(newl); // splice in
                    n.prev.store(newl);
                    true
                }) {
                    Some(true) => {
                        self.count.inc();
                        return true;
                    }
                    // Validation failed: the neighborhood changed under us —
                    // a fresh traversal has new information, retry at once.
                    Some(false) => {}
                    // Lock busy (holder already helped in lock-free mode):
                    // ease off before contending again.
                    None => backoff.snooze(),
                }
            }
        }
    }

    /// Remove; `false` if the key was not present.
    pub fn remove(&self, k: K) -> bool {
        let _g = flock_epoch::pin();
        let mut backoff = Backoff::new();
        loop {
            let lnk = self.find_link(&k);
            // SAFETY: epoch-pinned traversal result.
            let lnk_ref = unsafe { &*lnk };
            if !lnk_ref.holds(&k) {
                return false; // not found
            }
            let prev = lnk_ref.prev.load();
            // SAFETY: epoch-pinned.
            let prev_ref = unsafe { &*prev };
            let (sp_prev, sp_lnk) = (Sp(prev), Sp(lnk));
            let unlink = move || {
                // SAFETY: see insert's thunk.
                let p = unsafe { sp_prev.as_ref() };
                let l = unsafe { sp_lnk.as_ref() };
                if p.removed.load() || p.next.load() != sp_lnk.ptr() {
                    return false; // validate
                }
                let next = l.next.load();
                l.removed.store(true);
                p.next.store(next); // splice out
                // SAFETY: next is a live link (reachable until now).
                unsafe { (*next).prev.store(sp_prev.ptr()) };
                // SAFETY: l is unlinked above; retired exactly once
                // thanks to the idempotent retire.
                unsafe { flock_core::retire(sp_lnk.ptr()) };
                true
            };
            // SAFETY: epoch-pinned; runners adopt this epoch, so both locks
            // outlive them.
            match unsafe { prev_ref.lock.try_lock_set([&lnk_ref.lock], unlink) } {
                Some(true) => {
                    self.count.dec();
                    return true;
                }
                Some(false) => {}         // validation failed: re-traverse now
                None => backoff.snooze(), // predecessor or victim lock busy
            }
        }
    }

    /// Lookup (wait-free traversal, no locks — paper's `find`). The value
    /// snapshot is version-validated against the link's own lock
    /// ([`flock_core::read_validated`]); absence needs no validation — the
    /// unlocked traversal is the committed path's read too.
    pub fn get(&self, k: K) -> Option<V> {
        let _g = flock_epoch::pin();
        flock_core::read_validated(
            || {
                // SAFETY: epoch-pinned traversal result.
                let l = unsafe { &*self.find_link_acquire(&k) };
                if !l.holds(&k) {
                    return Some(None);
                }
                let v0 = l.lock.version()?;
                if l.removed.load() {
                    return None; // unlinked mid-read: re-traverse
                }
                let v = l.value.as_ref().map(ValueSlot::read_acquire);
                l.lock.validate(v0).then_some(v)
            },
            || {
                // SAFETY: epoch-pinned traversal result.
                let l = unsafe { &*self.find_link(&k) };
                if l.holds(&k) {
                    l.value.as_ref().map(ValueSlot::read)
                } else {
                    None
                }
            },
        )
    }

    /// Presence check that never materializes the value: the traversal
    /// stops at key equality and the value slot is never decoded (a fat
    /// `Indirect` value would otherwise be cloned just to be dropped).
    pub fn contains(&self, k: &K) -> bool {
        let _g = flock_epoch::pin();
        flock_core::read_validated(
            || {
                // SAFETY: epoch-pinned traversal result.
                let l = unsafe { &*self.find_link_acquire(k) };
                Some(l.holds(k) && !l.removed.load())
            },
            || {
                // SAFETY: epoch-pinned traversal result.
                let l = unsafe { &*self.find_link(k) };
                l.holds(k) && !l.removed.load()
            },
        )
    }

    /// Ordered range scan over `[lo, hi]` (see
    /// [`flock_api::OrderedMap::range`] for the consistency contract:
    /// per-link-atomic pairs, validated against each link's own lock;
    /// cross-link the scan is weakly consistent).
    ///
    /// Walking `next` pointers is safe past concurrent splices: a removed
    /// link's `next` is frozen at unlink time and keeps pointing at
    /// larger-keyed links, so keys stay strictly increasing and each is
    /// reported at most once.
    pub fn range(&self, lo: std::ops::Bound<&K>, hi: std::ops::Bound<&K>) -> Vec<(K, V)> {
        use std::ops::Bound;
        let _g = flock_epoch::pin();
        let mut out = Vec::new();
        // SAFETY: epoch-pinned walk; head is immutable.
        let mut p = match lo {
            Bound::Unbounded => unsafe { (*self.head).next.load_acquire() },
            Bound::Included(k) => self.find_link_acquire(k),
            Bound::Excluded(k) => {
                let p = self.find_link_acquire(k);
                // SAFETY: epoch-pinned traversal result.
                if unsafe { &*p }.holds(k) {
                    unsafe { (*p).next.load_acquire() }
                } else {
                    p
                }
            }
        };
        loop {
            // SAFETY: epoch-pinned walk over live (or frozen-removed) links.
            let l = unsafe { &*p };
            if l.kind != KIND_NORMAL {
                break;
            }
            let key = l.key.clone().expect("normal link has a key");
            let past_hi = match hi {
                Bound::Unbounded => false,
                Bound::Included(h) => &key > h,
                Bound::Excluded(h) => &key >= h,
            };
            if past_hi {
                break;
            }
            if let Some(v) = Self::read_link_validated(l) {
                out.push((key, v));
            }
            p = l.next.load_acquire();
        }
        out
    }

    /// Native atomic update: replace the value stored under `k` in place —
    /// one idempotent slot store under the link's **own** lock. Returns
    /// `false` (storing nothing) if `k` is absent.
    ///
    /// The link's lock is the remove path's inner lock and the only place
    /// its `removed` flag is ever set, so holding it with `removed == false`
    /// pins "the key is present" for the whole thunk: concurrent readers
    /// see the old value or the new one, never absence or a third value.
    pub fn update(&self, k: K, v: V) -> bool {
        let _g = flock_epoch::pin();
        let mut backoff = Backoff::new();
        loop {
            let lnk = self.find_link(&k);
            // SAFETY: epoch-pinned traversal result.
            let lnk_ref = unsafe { &*lnk };
            if !lnk_ref.holds(&k) {
                return false;
            }
            let sp_lnk = Sp(lnk);
            let v2 = v.clone();
            match lnk_ref.lock.try_lock(move || {
                // SAFETY: thunk runners hold epoch protection.
                let l = unsafe { sp_lnk.as_ref() };
                if l.removed.load() {
                    return false; // unlinked under us: re-traverse
                }
                l.value
                    .as_ref()
                    .expect("normal link has a value slot")
                    .set(v2.clone());
                true
            }) {
                Some(true) => return true,
                Some(false) => {}         // link vanished: re-check presence
                None => backoff.snooze(), // link lock busy
            }
        }
    }

    /// Number of elements (O(n) walk; for tests and diagnostics — the
    /// maintained count behind [`Map::len_approx`] is O(stripes)).
    pub fn len(&self) -> usize {
        let _g = flock_epoch::pin();
        let mut n = 0;
        // SAFETY: epoch-pinned walk over live links.
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

    /// Snapshot of the (key, value) pairs in order — single-threaded use.
    pub fn collect(&self) -> Vec<(K, V)> {
        let _g = flock_epoch::pin();
        let mut out = Vec::new();
        // SAFETY: epoch-pinned walk.
        let mut p = unsafe { (*self.head).next.load() };
        while unsafe { &*p }.kind == KIND_NORMAL {
            let l = unsafe { &*p };
            if let (Some(k), Some(v)) = (l.key.clone(), l.value.as_ref().map(ValueSlot::read)) {
                out.push((k, v));
            }
            p = l.next.load();
        }
        out
    }

    /// Check structural invariants: sorted keys, consistent back-pointers.
    /// Call only while quiescent.
    pub fn check_invariants(&self) {
        let _g = flock_epoch::pin();
        // SAFETY: quiescent per contract.
        unsafe {
            let mut p = self.head;
            let mut last_key: Option<K> = None;
            loop {
                let next = (*p).next.load();
                assert_eq!((*next).prev.load(), p, "broken back-pointer");
                if (*next).kind == KIND_TAIL {
                    break;
                }
                assert!(!(*next).removed.load(), "removed link still reachable");
                let nk = (*next).key.clone().expect("normal link has a key");
                if let Some(lk) = &last_key {
                    assert!(lk < &nk, "keys out of order");
                }
                last_key = Some(nk);
                p = next;
            }
        }
    }
}

impl<K: Key, V: Value> Drop for DList<K, V> {
    fn drop(&mut self) {
        // Exclusive access: free all still-linked nodes directly. Retired
        // (unlinked) nodes are owned by the epoch collector.
        // SAFETY: &mut self implies no concurrent users.
        unsafe {
            let mut p = self.head;
            while !p.is_null() {
                let next = (*p).next.load();
                flock_epoch::free_now(p);
                if p == self.tail {
                    break;
                }
                p = next;
            }
        }
    }
}

impl<K: Key, V: Value> Map<K, V> for DList<K, V> {
    fn insert(&self, key: K, value: V) -> bool {
        DList::insert(self, key, value)
    }
    fn remove(&self, key: K) -> bool {
        DList::remove(self, key)
    }
    fn get(&self, key: K) -> Option<V> {
        DList::get(self, key)
    }
    fn contains(&self, key: K) -> bool {
        DList::contains(self, &key)
    }
    fn name(&self) -> &'static str {
        "dlist"
    }
    fn update(&self, key: K, value: V) -> bool {
        DList::update(self, key, value)
    }
    fn has_atomic_update(&self) -> bool {
        true
    }
    fn len_approx(&self) -> Option<usize> {
        Some(self.count.get())
    }
}

impl<K: Key, V: Value> flock_api::OrderedMap<K, V> for DList<K, V> {
    fn range(&self, lo: std::ops::Bound<&K>, hi: std::ops::Bound<&K>) -> Vec<(K, V)> {
        DList::range(self, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_api::testing as testutil;

    #[test]
    fn basic_ops() {
        testutil::both_modes(|| {
            let l: DList<u64, u64> = DList::new();
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
        });
    }

    #[test]
    fn boundary_keys() {
        testutil::both_modes(|| {
            let l: DList<u64, u64> = DList::new();
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
        testutil::both_modes(|| {
            let l: DList<String, flock_core::Indirect<Vec<u64>>> = DList::new();
            assert!(l.insert("b".into(), flock_core::Indirect(vec![2, 2])));
            assert!(l.insert("a".into(), flock_core::Indirect(vec![1])));
            assert_eq!(l.get("a".into()), Some(flock_core::Indirect(vec![1])));
            assert_eq!(
                l.collect()
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect::<Vec<_>>(),
                vec!["a".to_string(), "b".to_string()],
                "heap keys stay sorted"
            );
            assert!(l.remove("a".into()));
            assert_eq!(l.get("a".into()), None);
            l.check_invariants();
        });
    }

    #[test]
    fn native_update_in_place() {
        testutil::both_modes(|| {
            let l: DList<u64, u64> = DList::new();
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
            let l: DList<u64, u64> = DList::new();
            testutil::oracle_check(&l, 3_000, 64, 42);
            l.check_invariants();
        });
    }

    #[test]
    fn concurrent_partitioned() {
        testutil::both_modes(|| {
            let l: DList<u64, u64> = DList::new();
            testutil::partition_stress(&l, 4, 1_500);
            l.check_invariants();
        });
    }

    #[test]
    fn drop_reclaims_without_crash() {
        testutil::exclusive(|| {
            let l: DList<u64, u64> = DList::new();
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
}
