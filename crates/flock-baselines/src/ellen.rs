//! Ellen et al. non-blocking external BST (PODC 2010 design): cooperative
//! updates through *Info records*. Generic over `(K, V)`.
//!
//! Each internal node carries an `update` word — a pointer to an Info
//! record plus a 2-bit state (CLEAN / IFLAG / DFLAG / MARK). An insert
//! flags the parent (IFLAG) with an IInfo describing the child swap; a
//! delete flags the grandparent (DFLAG), marks the parent (MARK), then
//! splices. Any thread that encounters a non-clean update word *helps* the
//! recorded operation to completion before proceeding — the canonical
//! hand-crafted helping protocol that the paper's general lock-free locks
//! subsume.
//!
//! Reclamation: spliced nodes are retired through the epoch collector by
//! the unique dchild-CAS winner, once the grandparent no longer shows the
//! delete's flag — so every helper that found the delete through that flag
//! was pinned before the retire. Info records are *not* reclaimed during
//! the tree's lifetime: a Delete info is referenced from two update words
//! (the owning grandparent and the marked parent), and stale helpers can
//! hold update words arbitrarily long, so replaced records are parked on a
//! per-tree garbage list and freed at drop.
//!
//! Update words and child words both carry a 16-bit sequence stamp, so a
//! stale helper's CAS can never succeed spuriously. For child words this
//! matters more than in the original algorithm: an insert here keeps the
//! old leaf (moved under the new internal, so a native `update` always
//! finds a key's one leaf), and a later delete of the new sibling hoists
//! that leaf straight back into the parent. A late helper of the finished
//! insert would then find the parent's child pointer at its expected value
//! again and re-link a spliced, retired internal. Each Info instead records
//! the whole child word it replaces, as read under the flag it was created
//! against, and its CAS expects exactly that word.

use std::sync::atomic::{AtomicUsize, Ordering};

use flock_sync::ApproxLen;

use flock_api::{Key, Map, Value};

use crate::value_cell::ValueCell;

const CLEAN: usize = 0;
const IFLAG: usize = 1;
const DFLAG: usize = 2;
const MARK: usize = 3;
const STATE: usize = 3;
/// Pointer bits of an update word (pointers fit 48 bits on supported
/// targets; the low 2 bits carry the state).
const PTR_MASK: usize = 0x0000_FFFF_FFFF_FFFC;
/// High 16 bits: a sequence number bumped on every update-word transition.
/// A stale helper can hold an update word whose embedded Info address was
/// replaced; the sequence stamp makes such a helper's CAS fail instead of
/// succeeding spuriously (ABA).
const SEQ_SHIFT: u32 = 48;

#[inline]
fn state(w: usize) -> usize {
    w & STATE
}

#[inline]
fn info_of<K, V: Value>(w: usize) -> *mut Info<K, V> {
    (w & PTR_MASK) as *mut Info<K, V>
}

#[inline]
fn seq_of(w: usize) -> usize {
    w >> SEQ_SHIFT
}

/// Pointer bits of a child word (the high 16 bits are its sequence stamp).
const ADDR_MASK: usize = (1 << SEQ_SHIFT) - 1;

#[inline]
fn node_of<K, V: Value>(w: usize) -> *mut Node<K, V> {
    (w & ADDR_MASK) as *mut Node<K, V>
}

/// The child word that replaces `prev` with `to`, sequence bumped by one
/// (mod 2^16).
#[inline]
fn relink<K, V: Value>(prev: usize, to: *mut Node<K, V>) -> usize {
    debug_assert_eq!(to as usize & !ADDR_MASK, 0);
    to as usize | (seq_of(prev).wrapping_add(1) << SEQ_SHIFT)
}

/// Build the update word that replaces `prev`: new info + state, sequence
/// bumped by one (mod 2^16).
#[inline]
fn next_word<K, V: Value>(prev: usize, info: *mut Info<K, V>, st: usize) -> usize {
    debug_assert_eq!(info as usize & !PTR_MASK, 0);
    info as usize | st | (seq_of(prev).wrapping_add(1) << SEQ_SHIFT)
}

/// Sentinel-aware key: finite keys order below Inf1 below Inf2.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum KeyClass<K> {
    Finite(K),
    Inf1,
    Inf2,
}

struct Node<K, V: Value> {
    key: KeyClass<K>,
    /// Atomic value cell (`None` on sentinel leaves and internals): swap-
    /// replaced in place by the native `update`, snapshot-read by `get`.
    value: Option<ValueCell<V>>,
    is_leaf: bool,
    /// Child words: node pointer | sequence stamp (see the module docs).
    left: AtomicUsize,
    right: AtomicUsize,
    /// Info pointer | state bits; coordinates updates at this internal.
    update: AtomicUsize,
}

impl<K: Key, V: Value> Node<K, V> {
    fn leaf(key: KeyClass<K>, value: Option<V>) -> Self {
        Self {
            key,
            value: value.map(ValueCell::new),
            is_leaf: true,
            left: AtomicUsize::new(0),
            right: AtomicUsize::new(0),
            update: AtomicUsize::new(0),
        }
    }

    fn internal(key: KeyClass<K>, left: *mut Node<K, V>, right: *mut Node<K, V>) -> Self {
        Self {
            key,
            value: None,
            is_leaf: false,
            left: AtomicUsize::new(left as usize),
            right: AtomicUsize::new(right as usize),
            update: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn child(&self, k: &KeyClass<K>) -> &AtomicUsize {
        if k < &self.key {
            &self.left
        } else {
            &self.right
        }
    }
}

enum Info<K, V: Value> {
    /// Swap `leaf` under `parent` for `new_internal`.
    Insert {
        parent: *mut Node<K, V>,
        /// Parent's child word pointing at the leaf, observed at flag time.
        leaf_word: usize,
        new_internal: *mut Node<K, V>,
    },
    /// Splice `parent` + `leaf` out from under `gparent`.
    Delete {
        gparent: *mut Node<K, V>,
        parent: *mut Node<K, V>,
        leaf: *mut Node<K, V>,
        /// Parent's update word observed at flag time.
        pupdate: usize,
        /// Grandparent's child word pointing at the parent, observed at
        /// flag time.
        parent_word: usize,
    },
}

/// Non-blocking external BST map (Ellen et al. style).
pub struct EllenBst<K: Key, V: Value> {
    /// Maintained element count backing `len_approx`.
    len: ApproxLen,
    root: *mut Node<K, V>,
    /// Replaced Info records, freed only at drop. Deferring all Info
    /// reclamation to teardown removes every use-after-free/ABA window on
    /// update words by construction (an Info address is never reused while
    /// the tree lives), at the cost of ~56 bytes per completed update until
    /// the tree is dropped — fine for a benchmark baseline and simpler to
    /// trust than a grace-period scheme for doubly-referenced records.
    info_garbage: std::sync::Mutex<Vec<usize>>,
}

// SAFETY: CAS-based mutation; epoch reclamation.
unsafe impl<K: Key, V: Value> Send for EllenBst<K, V> {}
unsafe impl<K: Key, V: Value> Sync for EllenBst<K, V> {}

impl<K: Key, V: Value> Default for EllenBst<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

struct Search<K, V: Value> {
    gparent: *mut Node<K, V>,
    parent: *mut Node<K, V>,
    leaf: *mut Node<K, V>,
    pupdate: usize,
    gpupdate: usize,
    /// The child words the search followed to `parent` and to `leaf`.
    parent_word: usize,
    leaf_word: usize,
}

impl<K: Key, V: Value> EllenBst<K, V> {
    /// An empty tree.
    pub fn new() -> Self {
        let l1 = flock_epoch::alloc(Node::leaf(KeyClass::Inf1, None));
        let l2 = flock_epoch::alloc(Node::leaf(KeyClass::Inf2, None));
        let root = flock_epoch::alloc(Node::internal(KeyClass::Inf2, l1, l2));
        Self {
            root,
            info_garbage: std::sync::Mutex::new(Vec::new()),
            len: ApproxLen::new(),
        }
    }

    fn search(&self, k: &KeyClass<K>) -> Search<K, V> {
        let mut gparent = std::ptr::null_mut();
        let mut gpupdate = 0;
        let mut parent_word = 0;
        let mut parent = self.root;
        // SAFETY: caller pinned.
        let mut pupdate = unsafe { &*parent }.update.load(Ordering::SeqCst);
        let mut leaf_word = unsafe { &*parent }.child(k).load(Ordering::SeqCst);
        let mut leaf = node_of::<K, V>(leaf_word);
        // SAFETY: pinned.
        while !unsafe { &*leaf }.is_leaf {
            gparent = parent;
            gpupdate = pupdate;
            parent_word = leaf_word;
            parent = leaf;
            // SAFETY: pinned.
            pupdate = unsafe { &*parent }.update.load(Ordering::SeqCst);
            leaf_word = unsafe { &*parent }.child(k).load(Ordering::SeqCst);
            leaf = node_of(leaf_word);
        }
        Search {
            gparent,
            parent,
            leaf,
            pupdate,
            gpupdate,
            parent_word,
            leaf_word,
        }
    }

    /// The child cell of `node` holding exactly `word`, if either does.
    fn cell_holding(node: &Node<K, V>, word: usize) -> Option<&AtomicUsize> {
        [&node.left, &node.right]
            .into_iter()
            .find(|c| c.load(Ordering::SeqCst) == word)
    }

    /// Help the operation recorded in update word `w` (non-clean).
    fn help(&self, w: usize) {
        match state(w) {
            IFLAG => self.help_insert(info_of::<K, V>(w)),
            MARK => self.help_marked(info_of::<K, V>(w)),
            DFLAG => {
                let _ = self.help_delete(info_of::<K, V>(w));
            }
            _ => {}
        }
    }

    fn help_insert(&self, op: *mut Info<K, V>) {
        // SAFETY: op reachable from a flagged update word; pinned callers.
        let Info::Insert {
            parent,
            leaf_word,
            new_internal,
        } = (unsafe { &*op })
        else {
            return;
        };
        // SAFETY: pinned.
        let p = unsafe { &**parent };
        // ichild: swing the child word from the old leaf — the exact word
        // the insert was flagged against, never a later one showing the
        // same leaf (module docs).
        if let Some(cell) = Self::cell_holding(p, *leaf_word) {
            let _ = cell.compare_exchange(
                *leaf_word,
                relink(*leaf_word, *new_internal),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
        // Unflag: replace (op, IFLAG) with (op, CLEAN), bumping the seq.
        let cur = p.update.load(Ordering::SeqCst);
        if info_of::<K, V>(cur) == op && state(cur) == IFLAG {
            let _ = p.update.compare_exchange(
                cur,
                next_word(cur, op, CLEAN),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
    }

    /// Second phase of delete: parent is marked; splice it.
    fn help_marked(&self, op: *mut Info<K, V>) {
        // SAFETY: as help_insert.
        let Info::Delete {
            gparent,
            parent,
            leaf,
            parent_word,
            ..
        } = (unsafe { &*op })
        else {
            return;
        };
        // SAFETY: pinned.
        let g = unsafe { &**gparent };
        let p = unsafe { &**parent };
        // Sibling of the victim leaf under the (marked, so frozen) parent.
        let (l, r) = (
            p.left.load(Ordering::SeqCst),
            p.right.load(Ordering::SeqCst),
        );
        let sibling = node_of::<K, V>(if node_of::<K, V>(l) == *leaf { r } else { l });
        // dchild: replace parent with sibling under gparent, from the exact
        // word the delete was flagged against.
        let spliced = Self::cell_holding(g, *parent_word).is_some_and(|cell| {
            cell.compare_exchange(
                *parent_word,
                relink(*parent_word, sibling),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
        });
        // Unflag the grandparent: (op, DFLAG) -> (op, CLEAN), seq bumped.
        let cur = g.update.load(Ordering::SeqCst);
        if info_of::<K, V>(cur) == op && state(cur) == DFLAG {
            let _ = g.update.compare_exchange(
                cur,
                next_word(cur, op, CLEAN),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
        if spliced {
            // Unique winner: retire the spliced pair — only now, with the
            // grandparent past `(op, DFLAG)` for good (the stamp never
            // recurs), so every helper that can still reach them through
            // `op` found it while pinned, before this retire.
            // SAFETY: both unreachable; retired once.
            unsafe {
                flock_epoch::retire(*parent);
                flock_epoch::retire(*leaf);
            }
        }
    }

    /// First phase of delete after DFLAG: mark the parent, then splice.
    /// Returns false if the mark failed and the flag was backtracked.
    fn help_delete(&self, op: *mut Info<K, V>) -> bool {
        // SAFETY: as help_insert.
        let Info::Delete {
            gparent,
            parent,
            pupdate,
            ..
        } = (unsafe { &*op })
        else {
            return false;
        };
        // SAFETY: pinned.
        let p = unsafe { &**parent };
        let res = p.update.compare_exchange(
            *pupdate,
            next_word(*pupdate, op, MARK),
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        match res {
            Ok(_) => {
                self.help_marked(op);
                true
            }
            Err(cur) if info_of::<K, V>(cur) == op && state(cur) == MARK => {
                // Someone already marked it for this op.
                self.help_marked(op);
                true
            }
            Err(cur) => {
                // Parent busy with another operation: help it, then
                // backtrack our flag so the tree does not wedge.
                self.help(cur);
                // SAFETY: pinned.
                let g = unsafe { &**gparent };
                let gcur = g.update.load(Ordering::SeqCst);
                if info_of::<K, V>(gcur) == op && state(gcur) == DFLAG {
                    let _ = g.update.compare_exchange(
                        gcur,
                        next_word(gcur, op, CLEAN),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                }
                false
            }
        }
    }

    /// Flag-CAS an update word and park the replaced (completed) info
    /// record on the garbage list on success.
    fn flag(&self, node: &Node<K, V>, expected: usize, op: *mut Info<K, V>, st: usize) -> bool {
        if node
            .update
            .compare_exchange(
                expected,
                next_word(expected, op, st),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
        {
            let old = info_of::<K, V>(expected);
            if !old.is_null() {
                // `old` described a completed (CLEAN) operation; park it on
                // the garbage list until drop (see `info_garbage`).
                self.info_garbage
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(old as usize);
            }
            true
        } else {
            false
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
        let kc = KeyClass::Finite(k);
        let _g = flock_epoch::pin();
        loop {
            let s = self.search(&kc);
            // SAFETY: pinned.
            let l = unsafe { &*s.leaf };
            if l.key == kc {
                return false;
            }
            if state(s.pupdate) != CLEAN {
                self.help(s.pupdate);
                continue;
            }
            let new_leaf = flock_epoch::alloc(Node::leaf(kc.clone(), Some(v.clone())));
            let leaf_key = l.key.clone();
            let new_internal = if kc < leaf_key {
                flock_epoch::alloc(Node::internal(leaf_key, new_leaf, s.leaf))
            } else {
                flock_epoch::alloc(Node::internal(kc.clone(), s.leaf, new_leaf))
            };
            let op = flock_epoch::alloc(Info::Insert {
                parent: s.parent,
                leaf_word: s.leaf_word,
                new_internal,
            });
            // SAFETY: pinned.
            if self.flag(unsafe { &*s.parent }, s.pupdate, op, IFLAG) {
                self.help_insert(op);
                return true;
            }
            // Flag lost: nothing was published.
            // SAFETY: all three are private allocations.
            unsafe {
                flock_epoch::free_now(op);
                flock_epoch::free_now(new_internal);
                flock_epoch::free_now(new_leaf);
            }
        }
    }

    /// Remove; `false` if absent.
    pub fn remove(&self, k: K) -> bool {
        let ok = self.remove_impl(k);
        if ok {
            self.len.dec();
        }
        ok
    }

    fn remove_impl(&self, k: K) -> bool {
        let kc = KeyClass::Finite(k);
        let _g = flock_epoch::pin();
        loop {
            let s = self.search(&kc);
            // SAFETY: pinned.
            if unsafe { &*s.leaf }.key != kc {
                return false;
            }
            if state(s.gpupdate) != CLEAN {
                self.help(s.gpupdate);
                continue;
            }
            if state(s.pupdate) != CLEAN {
                self.help(s.pupdate);
                continue;
            }
            debug_assert!(!s.gparent.is_null(), "finite leaves sit at depth >= 2");
            let op = flock_epoch::alloc(Info::Delete {
                gparent: s.gparent,
                parent: s.parent,
                leaf: s.leaf,
                pupdate: s.pupdate,
                parent_word: s.parent_word,
            });
            // SAFETY: pinned.
            if self.flag(unsafe { &*s.gparent }, s.gpupdate, op, DFLAG) {
                if self.help_delete(op) {
                    return true;
                }
                // Backtracked: op stays reachable from stale words read by
                // helpers until replaced; it was published, so it must go
                // through the collector, which happens when the next flag
                // replaces the CLEAN word. Nothing to do here.
            } else {
                // SAFETY: never published.
                unsafe { flock_epoch::free_now(op) };
            }
        }
    }

    /// Lookup.
    pub fn get(&self, k: K) -> Option<V> {
        let kc = KeyClass::Finite(k);
        let _g = flock_epoch::pin();
        let s = self.search(&kc);
        // SAFETY: pinned.
        let l = unsafe { &*s.leaf };
        if l.key == kc {
            l.value.as_ref().map(ValueCell::load)
        } else {
            None
        }
    }

    /// Presence-only lookup: the same search as [`EllenBst::get`] without
    /// decoding the value cell.
    pub fn contains(&self, k: K) -> bool {
        let kc = KeyClass::Finite(k);
        let _g = flock_epoch::pin();
        let s = self.search(&kc);
        // SAFETY: pinned.
        unsafe { &*s.leaf }.key == kc
    }

    /// Native atomic update: one atomic swap of the leaf's value cell.
    /// Returns `false` (storing nothing) if `k` is absent.
    ///
    /// A key's leaf node is pointer-stable for the key's lifetime (inserts
    /// reuse the existing leaf inside the new internal), so the swap hits
    /// the one cell every reader of this key decodes. Linearizes at the
    /// swap when the leaf is still reachable there, and immediately before
    /// the concurrent delete's child-CAS otherwise (the value written into
    /// an already-spliced leaf is unobservable, matching
    /// update-then-remove).
    pub fn update(&self, k: K, v: V) -> bool {
        let kc = KeyClass::Finite(k);
        let _g = flock_epoch::pin();
        let s = self.search(&kc);
        // SAFETY: pinned.
        let l = unsafe { &*s.leaf };
        if l.key != kc {
            return false;
        }
        l.value
            .as_ref()
            .expect("finite-key leaf has a value cell")
            .replace(v);
        true
    }

    /// Element count (O(n)).
    pub fn len(&self) -> usize {
        let _g = flock_epoch::pin();
        // SAFETY: pinned walk.
        unsafe { Self::count(self.root) }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    unsafe fn count(n: *mut Node<K, V>) -> usize {
        // SAFETY: pinned per caller.
        let node = unsafe { &*n };
        if node.is_leaf {
            return matches!(node.key, KeyClass::Finite(_)) as usize;
        }
        unsafe {
            Self::count(node_of(node.left.load(Ordering::SeqCst)))
                + Self::count(node_of(node.right.load(Ordering::SeqCst)))
        }
    }
}

impl<K: Key, V: Value> Drop for EllenBst<K, V> {
    fn drop(&mut self) {
        // SAFETY: exclusive access. An Info record is *owned* by the word
        // it was installed on (the parent for Insert/IFLAG, the grandparent
        // for Delete/DFLAG) and is parked on the garbage list by the
        // flag-CAS that replaces it there; a MARK word holds a secondary
        // reference to a Delete info owned elsewhere. Teardown therefore
        // frees an info only through CLEAN/IFLAG/DFLAG words — freeing
        // through MARK too would double free.
        unsafe fn free<K: Key, V: Value>(n: *mut Node<K, V>) {
            if n.is_null() {
                return;
            }
            // SAFETY: exclusive teardown.
            unsafe {
                let u = (*n).update.load(Ordering::SeqCst);
                let info = info_of::<K, V>(u);
                if !info.is_null() && state(u) != MARK {
                    flock_epoch::free_now(info);
                }
                if !(*n).is_leaf {
                    free::<K, V>(node_of((*n).left.load(Ordering::SeqCst)));
                    free::<K, V>(node_of((*n).right.load(Ordering::SeqCst)));
                }
                flock_epoch::free_now(n);
            }
        }
        // SAFETY: exclusive access.
        unsafe { free(self.root) };
        for p in self
            .info_garbage
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            // SAFETY: garbage entries were replaced in their owning update
            // word exactly once and never freed elsewhere.
            unsafe { flock_epoch::free_now(p as *mut Info<K, V>) };
        }
    }
}

impl<K: Key, V: Value> Map<K, V> for EllenBst<K, V> {
    fn insert(&self, key: K, value: V) -> bool {
        EllenBst::insert(self, key, value)
    }
    fn remove(&self, key: K) -> bool {
        EllenBst::remove(self, key)
    }
    fn get(&self, key: K) -> Option<V> {
        EllenBst::get(self, key)
    }
    fn contains(&self, key: K) -> bool {
        EllenBst::contains(self, key)
    }
    fn name(&self) -> &'static str {
        "ellen"
    }
    fn update(&self, key: K, value: V) -> bool {
        EllenBst::update(self, key, value)
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
    fn basic_ops() {
        let t: EllenBst<u64, u64> = EllenBst::new();
        assert!(t.is_empty());
        assert!(t.insert(5, 50));
        assert!(!t.insert(5, 51));
        assert!(t.insert(3, 30));
        assert!(t.insert(8, 80));
        assert_eq!(t.get(5), Some(50));
        assert!(t.remove(5));
        assert!(!t.remove(5));
        assert_eq!(t.get(5), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn fill_and_drain() {
        let t: EllenBst<u64, u64> = EllenBst::new();
        for k in 0..1_000 {
            assert!(t.insert(k, k + 7));
        }
        for k in 0..1_000 {
            assert_eq!(t.get(k), Some(k + 7));
            assert!(t.remove(k));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn oracle() {
        let t: EllenBst<u64, u64> = EllenBst::new();
        testutil::oracle_check(&t, 4_000, 256, 61);
    }

    #[test]
    fn concurrent_partitioned() {
        let t: EllenBst<u64, u64> = EllenBst::new();
        testutil::partition_stress(&t, 4, 1_500);
    }

    #[test]
    fn contended_tiny_keyspace() {
        let t: EllenBst<u64, u64> = EllenBst::new();
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    let mut state = tid + 1;
                    for _ in 0..4_000 {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let k = state % 8;
                        if state % 2 == 0 {
                            t.insert(k, k);
                        } else {
                            t.remove(k);
                        }
                    }
                });
            }
        });
        assert!(t.len() <= 8);
    }
}
