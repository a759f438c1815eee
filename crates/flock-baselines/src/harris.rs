//! Harris's lock-free sorted linked list, plus the optimized-find variant.
//! Generic over `(K, V)`.
//!
//! The classic design (Harris, DISC 2001): each node's `next` pointer
//! carries a *mark* bit in its low bit. Deletion first marks the victim's
//! `next` (logical delete), then unlinks it with a CAS on the predecessor
//! (physical delete). Traversals that encounter marked nodes *help* by
//! unlinking them — except in the optimized variant (`HarrisList::new_opt`,
//! the paper's `harris_list_opt` from David et al.'s ASCYLIB guidelines),
//! where `get` walks straight through marked nodes without writing, which
//! the paper measures as ~16% faster than Flock's lazylist on small lists.

use std::sync::atomic::{AtomicUsize, Ordering};

use flock_sync::ApproxLen;

use flock_api::{Key, Map, Value};

use crate::value_cell::ValueCell;

const MARK: usize = 1;

#[inline]
fn marked(p: usize) -> bool {
    p & MARK != 0
}

#[inline]
fn unmark(p: usize) -> usize {
    p & !MARK
}

struct Node<K, V: Value> {
    /// `None` only on the head/tail sentinels.
    key: Option<K>,
    /// Atomic value cell (`None` only on sentinels): swap-replaced in place
    /// by the native `update`, snapshot-read by `get`.
    value: Option<ValueCell<V>>,
    /// Successor pointer; low bit = this node is logically deleted.
    next: AtomicUsize,
    kind: u8, // 0 normal, 1 head, 2 tail
}

const NORMAL: u8 = 0;
const HEAD: u8 = 1;
const TAIL: u8 = 2;

impl<K: Key, V: Value> Node<K, V> {
    fn new(key: Option<K>, value: Option<V>, next: usize, kind: u8) -> Self {
        Self {
            key,
            value: value.map(ValueCell::new),
            next: AtomicUsize::new(next),
            kind,
        }
    }

    #[inline]
    fn at_or_after(&self, k: &K) -> bool {
        match self.kind {
            TAIL => true,
            HEAD => false,
            _ => self.key.as_ref().is_some_and(|x| x >= k),
        }
    }

    #[inline]
    fn holds(&self, k: &K) -> bool {
        self.kind == NORMAL && self.key.as_ref() == Some(k)
    }
}

/// Harris's lock-free sorted linked-list map.
pub struct HarrisList<K: Key, V: Value> {
    /// Maintained element count backing `len_approx`.
    len: ApproxLen,
    head: *mut Node<K, V>,
    tail: *mut Node<K, V>,
    /// `true` = optimized finds (no helping during `get`).
    opt_find: bool,
    label: &'static str,
}

// SAFETY: all mutation is CAS-based; reclamation via flock-epoch.
unsafe impl<K: Key, V: Value> Send for HarrisList<K, V> {}
unsafe impl<K: Key, V: Value> Sync for HarrisList<K, V> {}

impl<K: Key, V: Value> HarrisList<K, V> {
    /// Classic Harris list: finds help unlink marked nodes.
    pub fn new() -> Self {
        Self::build(false, "harris_list")
    }

    /// Optimized variant: `get` never writes (paper's `harris_list_opt`).
    pub fn new_opt() -> Self {
        Self::build(true, "harris_list_opt")
    }

    fn build(opt_find: bool, label: &'static str) -> Self {
        let tail = flock_epoch::alloc(Node::new(None, None, 0, TAIL));
        let head = flock_epoch::alloc(Node::new(None, None, tail as usize, HEAD));
        Self {
            head,
            tail,
            opt_find,
            label,
            len: ApproxLen::new(),
        }
    }

    /// Harris search: returns `(pred, curr)` with `pred` unmarked,
    /// `pred.next == curr`, and `curr` the first unmarked node at-or-after
    /// `k`. Unlinks any marked run it encounters (and retires it).
    fn search(&self, k: &K) -> (*mut Node<K, V>, *mut Node<K, V>) {
        'retry: loop {
            let mut pred = self.head;
            // SAFETY: caller pinned; nodes retired through the collector.
            let mut curr = unmark(unsafe { &*pred }.next.load(Ordering::SeqCst)) as *mut Node<K, V>;
            loop {
                // Skip over a run of marked nodes after pred.
                let mut curr_next = unsafe { &*curr }.next.load(Ordering::SeqCst);
                let run_start = curr;
                while marked(curr_next) {
                    curr = unmark(curr_next) as *mut Node<K, V>;
                    curr_next = unsafe { &*curr }.next.load(Ordering::SeqCst);
                }
                if run_start != curr {
                    // Physically unlink the marked run [run_start, curr).
                    // SAFETY: pred is unmarked and pointed at run_start.
                    if unsafe { &*pred }
                        .next
                        .compare_exchange(
                            run_start as usize,
                            curr as usize,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_err()
                    {
                        continue 'retry;
                    }
                    // Retire the unlinked run: we won the unlink CAS, so we
                    // are the unique owner of these nodes.
                    let mut p = run_start;
                    while p != curr {
                        // SAFETY: unlinked above; each node retired once by
                        // the unique unlink winner.
                        let nx =
                            unmark(unsafe { &*p }.next.load(Ordering::SeqCst)) as *mut Node<K, V>;
                        unsafe { flock_epoch::retire(p) };
                        p = nx;
                    }
                }
                // SAFETY: pinned.
                if unsafe { &*curr }.at_or_after(k) {
                    return (pred, curr);
                }
                pred = curr;
                curr = unmark(unsafe { &*curr }.next.load(Ordering::SeqCst)) as *mut Node<K, V>;
            }
        }
    }

    /// Insert; `false` if present.
    pub fn insert(&self, k: K, v: V) -> bool {
        let ok = self.insert_impl(k, v);
        if ok {
            self.len.inc();
        }
        ok
    }

    fn insert_impl(&self, k: K, v: V) -> bool {
        let _g = flock_epoch::pin();
        loop {
            let (pred, curr) = self.search(&k);
            // SAFETY: pinned.
            let curr_ref = unsafe { &*curr };
            if curr_ref.holds(&k) {
                return false;
            }
            let newn = flock_epoch::alloc(Node::new(
                Some(k.clone()),
                Some(v.clone()),
                curr as usize,
                NORMAL,
            ));
            // SAFETY: pinned; pred was unmarked when search returned.
            if unsafe { &*pred }
                .next
                .compare_exchange(
                    curr as usize,
                    newn as usize,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                return true;
            }
            // SAFETY: newn was never published.
            unsafe { flock_epoch::free_now(newn) };
        }
    }

    /// Remove; `false` if absent.
    pub fn remove(&self, k: K) -> bool {
        let ok = self.remove_impl(&k);
        if ok {
            self.len.dec();
        }
        ok
    }

    fn remove_impl(&self, k: &K) -> bool {
        let _g = flock_epoch::pin();
        loop {
            let (pred, curr) = self.search(k);
            // SAFETY: pinned.
            let curr_ref = unsafe { &*curr };
            if !curr_ref.holds(k) {
                return false;
            }
            let succ = curr_ref.next.load(Ordering::SeqCst);
            if marked(succ) {
                continue; // someone else is deleting it; re-search (helps)
            }
            // Logical delete: mark curr's next.
            if curr_ref
                .next
                .compare_exchange(succ, succ | MARK, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                continue;
            }
            // Physical delete (best effort; search cleans up otherwise).
            // SAFETY: pinned.
            if unsafe { &*pred }
                .next
                .compare_exchange(curr as usize, succ, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                // SAFETY: unlinked by this CAS; unique retire.
                unsafe { flock_epoch::retire(curr) };
            } else {
                self.search(k); // helping path retires it
            }
            return true;
        }
    }

    /// Lookup. The classic variant helps unlink while searching; the
    /// optimized variant is read-only.
    pub fn get(&self, k: K) -> Option<V> {
        let _g = flock_epoch::pin();
        if self.opt_find {
            // Read-only walk: skip marked nodes logically.
            // SAFETY: pinned.
            let mut curr =
                unmark(unsafe { &*self.head }.next.load(Ordering::SeqCst)) as *mut Node<K, V>;
            loop {
                // SAFETY: pinned.
                let c = unsafe { &*curr };
                if c.at_or_after(&k) {
                    let is_marked = marked(c.next.load(Ordering::SeqCst));
                    return if c.holds(&k) && !is_marked {
                        c.value.as_ref().map(ValueCell::load)
                    } else {
                        None
                    };
                }
                curr = unmark(c.next.load(Ordering::SeqCst)) as *mut Node<K, V>;
            }
        } else {
            let (_, curr) = self.search(&k);
            // SAFETY: pinned.
            let c = unsafe { &*curr };
            if c.holds(&k) {
                c.value.as_ref().map(ValueCell::load)
            } else {
                None
            }
        }
    }

    /// Presence-only lookup: the same walk as [`HarrisList::get`] without
    /// decoding the value cell.
    pub fn contains(&self, k: &K) -> bool {
        let _g = flock_epoch::pin();
        if self.opt_find {
            // SAFETY: pinned.
            let mut curr =
                unmark(unsafe { &*self.head }.next.load(Ordering::SeqCst)) as *mut Node<K, V>;
            loop {
                // SAFETY: pinned.
                let c = unsafe { &*curr };
                if c.at_or_after(k) {
                    return c.holds(k) && !marked(c.next.load(Ordering::SeqCst));
                }
                curr = unmark(c.next.load(Ordering::SeqCst)) as *mut Node<K, V>;
            }
        } else {
            let (_, curr) = self.search(k);
            // SAFETY: pinned.
            unsafe { &*curr }.holds(k)
        }
    }

    /// Native atomic update: one atomic swap of the node's value cell.
    /// Returns `false` (storing nothing) if `k` is absent.
    ///
    /// Linearizes at the swap when the node is still unmarked there, and
    /// immediately before the concurrent remove's mark otherwise (the value
    /// written into an already-marked node is unobservable — `get` treats
    /// marked nodes as absent — which matches update-then-remove).
    pub fn update(&self, k: K, v: V) -> bool {
        let _g = flock_epoch::pin();
        let (_, curr) = self.search(&k);
        // SAFETY: pinned; `search` returned `curr` unmarked.
        let c = unsafe { &*curr };
        if !c.holds(&k) {
            return false;
        }
        c.value
            .as_ref()
            .expect("normal node has a value cell")
            .replace(v);
        true
    }

    /// Element count (O(n); tests/diagnostics). Skips marked nodes.
    pub fn len(&self) -> usize {
        let _g = flock_epoch::pin();
        let mut n = 0;
        // SAFETY: pinned walk.
        let mut p = unmark(unsafe { &*self.head }.next.load(Ordering::SeqCst)) as *mut Node<K, V>;
        while unsafe { &*p }.kind == NORMAL {
            let nx = unsafe { &*p }.next.load(Ordering::SeqCst);
            if !marked(nx) {
                n += 1;
            }
            p = unmark(nx) as *mut Node<K, V>;
        }
        n
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Key, V: Value> Default for HarrisList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Value> Drop for HarrisList<K, V> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; marked-but-linked nodes are still
        // reachable here and freed once; retired nodes belong to the
        // collector.
        unsafe {
            let mut p = self.head;
            loop {
                let next = unmark((*p).next.load(Ordering::SeqCst)) as *mut Node<K, V>;
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

impl<K: Key, V: Value> Map<K, V> for HarrisList<K, V> {
    fn insert(&self, key: K, value: V) -> bool {
        HarrisList::insert(self, key, value)
    }
    fn remove(&self, key: K) -> bool {
        HarrisList::remove(self, key)
    }
    fn get(&self, key: K) -> Option<V> {
        HarrisList::get(self, key)
    }
    fn contains(&self, key: K) -> bool {
        HarrisList::contains(self, &key)
    }
    fn name(&self) -> &'static str {
        self.label
    }
    fn update(&self, key: K, value: V) -> bool {
        HarrisList::update(self, key, value)
    }
    fn len_approx(&self) -> Option<usize> {
        Some(self.len.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_conformance as testutil;

    #[test]
    fn basic_ops_both_variants() {
        let lists: [HarrisList<u64, u64>; 2] = [HarrisList::new(), HarrisList::new_opt()];
        for l in lists {
            assert!(l.insert(5, 50));
            assert!(!l.insert(5, 51));
            assert!(l.insert(1, 10));
            assert!(l.insert(9, 90));
            assert_eq!(l.get(5), Some(50));
            assert!(l.remove(5));
            assert!(!l.remove(5));
            assert_eq!(l.get(5), None);
            assert_eq!(l.len(), 2);
        }
    }

    #[test]
    fn native_update_in_place() {
        for l in [HarrisList::<u64, u64>::new(), HarrisList::new_opt()] {
            assert!(!l.update(1, 10), "update of an absent key refused");
            assert!(l.insert(1, 10));
            assert!(l.update(1, 11));
            assert_eq!(l.get(1), Some(11));
            assert_eq!(l.len(), 1, "update must not change the count");
            assert!(l.remove(1));
            assert!(!l.update(1, 12));
        }
    }

    #[test]
    fn oracle() {
        let l: HarrisList<u64, u64> = HarrisList::new();
        testutil::oracle_check(&l, 3_000, 64, 3);
        let l: HarrisList<u64, u64> = HarrisList::new_opt();
        testutil::oracle_check(&l, 3_000, 64, 4);
    }

    #[test]
    fn concurrent_partitioned() {
        let l: HarrisList<u64, u64> = HarrisList::new();
        testutil::partition_stress(&l, 4, 1_500);
        let l: HarrisList<u64, u64> = HarrisList::new_opt();
        testutil::partition_stress(&l, 4, 1_500);
    }

    /// Marked-run unlinking: delete several adjacent nodes "logically" by
    /// racing removes, then verify searches clean up and the list stays
    /// consistent.
    #[test]
    fn adjacent_removals() {
        let l: HarrisList<u64, u64> = HarrisList::new();
        for k in 0..100 {
            l.insert(k, k);
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let l = &l;
                s.spawn(move || {
                    for k in (t * 25)..(t * 25 + 25) {
                        assert!(l.remove(k), "remove {k}");
                    }
                });
            }
        });
        assert!(l.is_empty());
    }
}
