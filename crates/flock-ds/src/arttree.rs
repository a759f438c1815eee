//! Adaptive radix tree (ART) with optimistic fine-grained locking — the
//! paper's `arttree` (§7), which it reports as **the first lock-free ART**
//! when run in lock-free mode. Generic over `(K, V)` for any key with a
//! radix image (see [`RadixKey`]).
//!
//! Follows Leis et al.'s design: four adaptive node widths (Node4 / Node16 /
//! Node48 / Node256) chosen by fanout, with *lazy expansion* (a leaf is
//! installed at the shallowest depth where its key prefix is unique).
//! Simplifications relative to the original ART: no path compression (the
//! paper's benchmark sparsifies keys by hashing, so long shared prefixes are
//! rare) and no node shrinking on deletes.
//!
//! A radix tree indexes by digit position, not by comparison, so its keys
//! need more than `Ord`: [`RadixKey`] maps a key to an order-preserving,
//! **injective** 8-byte image whose bytes drive the descent (implemented
//! for the integer primitives; the leaf stores the real key and final
//! equality is checked on it). Values are plain leaf fields — leaves are
//! immutable, so fat values ride inside the epoch-reclaimed leaf
//! allocation.
//!
//! Concurrency design:
//!
//! * **Key slots are write-once.** In Node4/16 a slot's byte label never
//!   changes after assignment; deletion clears only the child cell (a
//!   tombstone). This makes unlocked reads race-free: a matched label is
//!   stable, and the child cell is a single atomic [`Mutable`]. Tombstones
//!   are compacted away when the node is upgraded/rebuilt.
//! * **Mutations** (adding a child, clearing one, splitting a leaf into a
//!   chain, upgrading a full node) take the owning node's lock — plus the
//!   parent's when the node itself is replaced — validate, then apply.

use std::ops::{Bound, ControlFlow};

use flock_api::{Key, Map, OrderedMap, Value, key_in_range};
use flock_core::{Lock, Mutable, Sp, UpdateOnce, ValueSlot};
use flock_sync::{ApproxLen, Backoff};

const KEY_BYTES: usize = 8;

/// Keys usable by the radix tree: an order-preserving, injective mapping
/// into the 8-byte radix space. Distinct keys must produce distinct images
/// (`a < b` ⇒ `a.radix() < b.radix()`), or descents would collide.
pub trait RadixKey {
    /// The 8-byte radix image whose big-endian bytes drive the descent.
    fn radix(&self) -> u64;
}

macro_rules! impl_radix_unsigned {
    ($($t:ty),*) => {$(
        impl RadixKey for $t {
            #[inline(always)]
            fn radix(&self) -> u64 {
                *self as u64
            }
        }
    )*};
}
impl_radix_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_radix_signed {
    ($($t:ty),*) => {$(
        impl RadixKey for $t {
            #[inline(always)]
            fn radix(&self) -> u64 {
                // Sign-flip: maps i::MIN..=i::MAX monotonically onto
                // 0..=u64::MAX.
                (*self as i64 as u64) ^ (1u64 << 63)
            }
        }
    )*};
}
impl_radix_signed!(i8, i16, i32, i64, isize);

#[inline]
fn byte_at(r: u64, depth: usize) -> u8 {
    debug_assert!(depth < KEY_BYTES);
    (r >> (56 - 8 * depth)) as u8
}

/// Tagged child cell: 0 = empty, bit0 = leaf, else internal node.
const LEAF_TAG: usize = 1;

#[inline]
fn tag_leaf<K, V: Value>(l: *mut ArtLeaf<K, V>) -> usize {
    l as usize | LEAF_TAG
}

#[inline]
fn tag_node(n: *mut ArtNode) -> usize {
    n as usize
}

#[inline]
fn is_leaf(c: usize) -> bool {
    c & LEAF_TAG != 0
}

#[inline]
fn as_leaf<K, V: Value>(c: usize) -> *mut ArtLeaf<K, V> {
    (c & !LEAF_TAG) as *mut ArtLeaf<K, V>
}

#[inline]
fn as_node(c: usize) -> *mut ArtNode {
    c as *mut ArtNode
}

struct ArtLeaf<K, V: Value> {
    key: K,
    /// Value slot: mutable in place under the lock of the node whose child
    /// cell references this leaf (native `update`), snapshot-readable
    /// without it. The leaf itself stays immutable in every other respect.
    value: ValueSlot<V>,
}

/// Node widths. `kind` selects the layout of `keys`/`index`/`children`.
const N4: u8 = 0;
const N16: u8 = 1;
const N48: u8 = 2;
const N256: u8 = 3;

/// An internal node. Deliberately *not* generic: child cells are tagged
/// `usize` addresses, so one node layout serves every `(K, V)`
/// instantiation (the leaf type carries the generics).
struct ArtNode {
    /// Marked obsolete by the upgrade that replaces the node.
    lock: Lock,
    kind: u8,
    /// N4/N16: slot labels, `0` unassigned else `byte+1` (write-once).
    keys: Box<[UpdateOnce<u32>]>,
    /// N48 only: byte → slot mapping, `0` unassigned else `slot+1`
    /// (write-once).
    index: Box<[UpdateOnce<u32>]>,
    /// Child cells (see tagging helpers above).
    children: Box<[Mutable<usize>]>,
    /// N48 only: next unassigned child slot.
    alloc: Mutable<u32>,
}

impl ArtNode {
    fn new(kind: u8) -> Self {
        let (nkeys, nindex, nchildren) = match kind {
            N4 => (4, 0, 4),
            N16 => (16, 0, 16),
            N48 => (0, 256, 48),
            _ => (0, 0, 256),
        };
        Self {
            lock: Lock::new(),
            kind,
            keys: (0..nkeys).map(|_| UpdateOnce::new(0u32)).collect(),
            index: (0..nindex).map(|_| UpdateOnce::new(0u32)).collect(),
            children: (0..nchildren).map(|_| Mutable::new(0usize)).collect(),
            alloc: Mutable::new(0u32),
        }
    }

    /// Current child for byte `b`, or 0. Unlocked-read safe (see module
    /// docs: labels are write-once, child cells are single atomics).
    fn lookup(&self, b: u8) -> usize {
        match self.kind {
            N4 | N16 => {
                let want = b as u32 + 1;
                for (i, kslot) in self.keys.iter().enumerate() {
                    if kslot.load() == want {
                        return self.children[i].load();
                    }
                }
                0
            }
            N48 => {
                let slot = self.index[b as usize].load();
                if slot == 0 {
                    return 0;
                }
                self.children[(slot - 1) as usize].load()
            }
            _ => self.children[b as usize].load(),
        }
    }

    /// [`ArtNode::lookup`] with plain `Acquire` loads, bypassing the thunk
    /// log and the `SeqCst` committed-read machinery. **Only for the
    /// version-validated optimistic read paths outside any thunk** (the
    /// [`flock_core::read_validated`] discipline).
    fn lookup_acquire(&self, b: u8) -> usize {
        match self.kind {
            N4 | N16 => {
                let want = b as u32 + 1;
                for (i, kslot) in self.keys.iter().enumerate() {
                    if kslot.load_acquire() == want {
                        return self.children[i].load_acquire();
                    }
                }
                0
            }
            N48 => {
                let slot = self.index[b as usize].load_acquire();
                if slot == 0 {
                    return 0;
                }
                self.children[(slot - 1) as usize].load_acquire()
            }
            _ => self.children[b as usize].load_acquire(),
        }
    }

    /// The slot that holds byte `b`'s child cell, if `b` has been assigned.
    fn slot_of(&self, b: u8) -> Option<usize> {
        match self.kind {
            N4 | N16 => {
                let want = b as u32 + 1;
                self.keys.iter().position(|k| k.load() == want)
            }
            N48 => {
                let slot = self.index[b as usize].load();
                (slot != 0).then(|| (slot - 1) as usize)
            }
            _ => Some(b as usize),
        }
    }

    /// Try to assign a slot for a new byte `b` and store `child` in it.
    /// Must run under this node's lock. Returns false when the node has no
    /// free slot (caller upgrades the node).
    fn try_add(&self, b: u8, child: usize) -> bool {
        match self.kind {
            N4 | N16 => {
                for (i, kslot) in self.keys.iter().enumerate() {
                    if kslot.load() == 0 {
                        // Publish order: child first, then the label, so a
                        // matched label always reads a valid cell.
                        self.children[i].store(child);
                        kslot.store(b as u32 + 1);
                        return true;
                    }
                }
                false
            }
            N48 => {
                let next = self.alloc.load();
                if next as usize >= self.children.len() {
                    return false;
                }
                self.alloc.store(next + 1);
                self.children[next as usize].store(child);
                self.index[b as usize].store(next + 1);
                true
            }
            _ => {
                self.children[b as usize].store(child);
                true
            }
        }
    }

    /// Live (byte, child) pairs.
    fn live_entries(&self) -> Vec<(u8, usize)> {
        let mut out = Vec::new();
        match self.kind {
            N4 | N16 => {
                for (i, kslot) in self.keys.iter().enumerate() {
                    let kv = kslot.load();
                    if kv != 0 {
                        let c = self.children[i].load();
                        if c != 0 {
                            out.push(((kv - 1) as u8, c));
                        }
                    }
                }
            }
            N48 => {
                for b in 0..256usize {
                    let slot = self.index[b].load();
                    if slot != 0 {
                        let c = self.children[(slot - 1) as usize].load();
                        if c != 0 {
                            out.push((b as u8, c));
                        }
                    }
                }
            }
            _ => {
                for b in 0..256usize {
                    let c = self.children[b].load();
                    if c != 0 {
                        out.push((b as u8, c));
                    }
                }
            }
        }
        out
    }

    /// Is there a slot available for a byte not yet assigned here?
    fn has_free_slot(&self) -> bool {
        match self.kind {
            N4 | N16 => self.keys.iter().any(|kslot| kslot.load() == 0),
            N48 => (self.alloc.load() as usize) < self.children.len(),
            _ => true,
        }
    }

    /// Smallest kind that fits `n` children.
    fn kind_for(n: usize) -> u8 {
        match n {
            0..=4 => N4,
            5..=16 => N16,
            17..=48 => N48,
            _ => N256,
        }
    }
}

/// Adaptive radix tree map over radix-imageable keys.
pub struct ArtTree<K: Key + RadixKey, V: Value> {
    /// Depth-0 node; fixed Node256 so it is never upgraded or removed.
    root: *mut ArtNode,
    /// Maintained element count backing `len_approx`.
    count: ApproxLen,
    _kv: std::marker::PhantomData<(K, V)>,
}

// SAFETY: mutation via Flock locks + epoch reclamation; root immutable.
unsafe impl<K: Key + RadixKey, V: Value> Send for ArtTree<K, V> {}
unsafe impl<K: Key + RadixKey, V: Value> Sync for ArtTree<K, V> {}

impl<K: Key + RadixKey, V: Value> Default for ArtTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key + RadixKey, V: Value> ArtTree<K, V> {
    /// An empty tree.
    pub fn new() -> Self {
        Self {
            root: flock_epoch::alloc(ArtNode::new(N256)),
            count: ApproxLen::new(),
            _kv: std::marker::PhantomData,
        }
    }

    /// Wait-free lookup. Optimistic first: an unlogged `Acquire` descent,
    /// the value read bracketed by the version of the lock owning the
    /// leaf's child cell (every replacement of that cell — tombstone,
    /// split, upgrade — and every in-place `update` of the leaf's slot
    /// runs under that node's lock; node replacements mark the old node's
    /// lock obsolete inside its own critical section). After
    /// [`flock_core::OPTIMISTIC_READ_ATTEMPTS`] failed validations — or
    /// inside a thunk — falls back to the committed-read descent.
    pub fn get(&self, k: K) -> Option<V> {
        let _g = flock_epoch::pin();
        let r = k.radix();
        flock_core::read_validated(
            || {
                let mut cur = self.root;
                for d in 0..KEY_BYTES {
                    // SAFETY: pinned; nodes epoch-reclaimed.
                    let n = unsafe { &*cur };
                    let b = byte_at(r, d);
                    let c = n.lookup_acquire(b);
                    if c == 0 {
                        return Some(None);
                    }
                    if is_leaf(c) {
                        // SAFETY: leaf pointers epoch-protected.
                        let l = unsafe { &*as_leaf::<K, V>(c) };
                        if l.key != k {
                            return Some(None);
                        }
                        let v0 = n.lock.version()?;
                        if n.lookup_acquire(b) != c {
                            return None;
                        }
                        let v = l.value.read_acquire();
                        return n.lock.validate(v0).then_some(Some(v));
                    }
                    cur = as_node(c);
                }
                unreachable!("leaves appear within {KEY_BYTES} levels");
            },
            || {
                let mut cur = self.root;
                for d in 0..KEY_BYTES {
                    // SAFETY: pinned; nodes epoch-reclaimed.
                    let c = unsafe { &*cur }.lookup(byte_at(r, d));
                    if c == 0 {
                        return None;
                    }
                    if is_leaf(c) {
                        // SAFETY: leaf pointers epoch-protected.
                        let l = unsafe { &*as_leaf::<K, V>(c) };
                        return (l.key == k).then(|| l.value.read());
                    }
                    cur = as_node(c);
                }
                unreachable!("leaves appear within {KEY_BYTES} levels");
            },
        )
    }

    /// Presence check without materializing the value — no slot read, no
    /// decode, no clone (for `Indirect` fat values `get` clones the boxed
    /// payload just to drop it). A leaf's key is an immutable field, so
    /// observing the tagged child cell *is* the linearization point: no
    /// version validation is needed. Committed loads throughout — safe
    /// inside a thunk, plain atomic reads outside one.
    pub fn contains(&self, k: &K) -> bool {
        let _g = flock_epoch::pin();
        let r = k.radix();
        let mut cur = self.root;
        for d in 0..KEY_BYTES {
            // SAFETY: pinned; nodes epoch-reclaimed.
            let c = unsafe { &*cur }.lookup(byte_at(r, d));
            if c == 0 {
                return false;
            }
            if is_leaf(c) {
                // SAFETY: leaf pointers epoch-protected.
                return unsafe { &*as_leaf::<K, V>(c) }.key == *k;
            }
            cur = as_node(c);
        }
        unreachable!("leaves appear within {KEY_BYTES} levels");
    }

    /// Ordered range scan over `[lo, hi]` bounds. The descent prunes
    /// subtrees by their radix-prefix span ([`RadixKey::radix`] is
    /// order-preserving, so prefix intervals bound key intervals); each
    /// leaf's value is read under the owning node's lock-version bracket
    /// (committed read after bounded validation failures), so every
    /// reported pair was simultaneously present at some instant during
    /// the scan; see [`OrderedMap`] for the cross-entry contract.
    pub fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        let _g = flock_epoch::pin();
        // Conservative radix window: exact bound semantics (and Excluded
        // edges) are enforced by the final `key_in_range` filter.
        let rlo = match lo {
            Bound::Included(l) | Bound::Excluded(l) => l.radix(),
            Bound::Unbounded => 0,
        };
        let rhi = match hi {
            Bound::Included(h) | Bound::Excluded(h) => h.radix(),
            Bound::Unbounded => u64::MAX,
        };
        let mut out = Vec::new();
        if rlo <= rhi {
            // SAFETY: pinned walk.
            unsafe { self.range_walk(self.root, 0, 0, lo, hi, rlo, rhi, &mut out) };
        }
        out
    }

    /// In-order walk: children sorted by byte label (N48/N256 enumerate
    /// bytes ascending already; N4/N16 slots are insertion-ordered and
    /// must be sorted), subtrees pruned when their radix span
    /// `[prefix, prefix | suffix_mask]` misses `[rlo, rhi]`.
    #[allow(clippy::too_many_arguments)]
    unsafe fn range_walk(
        &self,
        node: *mut ArtNode,
        depth: usize,
        prefix: u64,
        lo: Bound<&K>,
        hi: Bound<&K>,
        rlo: u64,
        rhi: u64,
        out: &mut Vec<(K, V)>,
    ) {
        // SAFETY: pinned per caller.
        let n = unsafe { &*node };
        let mut entries = n.live_entries();
        if matches!(n.kind, N4 | N16) {
            entries.sort_unstable_by_key(|(b, _)| *b);
        }
        let shift = 56 - 8 * depth;
        for (b, c) in entries {
            let p = prefix | ((b as u64) << shift);
            // Keys under this child have radix images in
            // [p, p | low_bits]: all deeper bytes free.
            let span_hi = p | ((1u64 << shift) - 1);
            if span_hi < rlo {
                continue;
            }
            if p > rhi {
                break; // children are byte-sorted: everything after is above
            }
            if is_leaf(c) {
                // SAFETY: live child pointer, epoch-protected.
                let l = unsafe { &*as_leaf::<K, V>(c) };
                if !key_in_range(&l.key, lo, hi) {
                    continue;
                }
                let v = flock_core::read_validated(
                    || {
                        let v0 = n.lock.version()?;
                        if n.lookup_acquire(b) != c {
                            return None;
                        }
                        let v = l.value.read_acquire();
                        n.lock.validate(v0).then_some(v)
                    },
                    || l.value.read(),
                );
                out.push((l.key.clone(), v));
            } else {
                unsafe { self.range_walk(as_node(c), depth + 1, p, lo, hi, rlo, rhi, out) };
            }
        }
    }

    /// Insert; `false` if present.
    pub fn insert(&self, k: K, v: V) -> bool {
        let _g = flock_epoch::pin();
        let r = k.radix();
        let mut backoff = Backoff::new();
        'restart: loop {
            let mut parent: *mut ArtNode = std::ptr::null_mut();
            let mut cur = self.root;
            let mut d = 0;
            loop {
                let b = byte_at(r, d);
                // SAFETY: pinned.
                let c = unsafe { &*cur }.lookup(b);
                if c == 0 {
                    // Empty slot: add a leaf here (possibly upgrading).
                    match self.add_leaf(parent, cur, d, &k, &v) {
                        AddOutcome::Done => {
                            self.count.inc();
                            return true;
                        }
                        AddOutcome::Busy => {
                            backoff.snooze();
                            continue 'restart;
                        }
                        AddOutcome::Retry => continue 'restart,
                    }
                }
                if is_leaf(c) {
                    // SAFETY: pinned.
                    let l = unsafe { &*as_leaf::<K, V>(c) };
                    if l.key == k {
                        return false;
                    }
                    // Split: replace the leaf with a chain diverging at the
                    // first differing byte.
                    match self.split_leaf(cur, d, c, &k, &v) {
                        Some(true) => {
                            self.count.inc();
                            return true;
                        }
                        Some(false) => continue 'restart, // validation failed
                        None => {
                            backoff.snooze(); // node lock busy
                            continue 'restart;
                        }
                    }
                }
                parent = cur;
                cur = as_node(c);
                d += 1;
            }
        }
    }

    /// Remove; `false` if absent.
    pub fn remove(&self, k: K) -> bool {
        let r = k.radix();
        let removed = crate::retry(|| {
            let mut cur = self.root;
            let mut d = 0;
            loop {
                let b = byte_at(r, d);
                // SAFETY: pinned by `retry`.
                let c = unsafe { &*cur }.lookup(b);
                if c == 0 {
                    return ControlFlow::Break(false);
                }
                if is_leaf(c) {
                    // SAFETY: pinned.
                    if unsafe { &*as_leaf::<K, V>(c) }.key != k {
                        return ControlFlow::Break(false);
                    }
                    let sp_n = Sp(cur);
                    // SAFETY: pinned.
                    return ControlFlow::Continue(unsafe { &*cur }.lock.try_lock(move || {
                        // SAFETY: thunk runners hold epoch protection.
                        let n = unsafe { sp_n.as_ref() };
                        let Some(slot) = n.slot_of(b) else {
                            return false;
                        };
                        let cell = &n.children[slot];
                        if cell.load() != c {
                            return false; // validate
                        }
                        cell.store(0); // tombstone the child cell
                        // SAFETY: unlinked above; idempotent retire.
                        unsafe { flock_core::retire(as_leaf::<K, V>(c)) };
                        true
                    }));
                }
                cur = as_node(c);
                d += 1;
            }
        });
        if removed {
            self.count.dec();
        }
        removed
    }

    /// Native atomic update: replace the value stored under `k` in place —
    /// one idempotent slot store under the lock of the node whose child
    /// cell holds the leaf (the same lock the remove path's tombstone and
    /// every replacement of that cell take), with the cell validated under
    /// it. Returns `false` (storing nothing) if `k` is absent. Readers see
    /// the old value or the new one, never absence or a third value.
    pub fn update(&self, k: K, v: V) -> bool {
        let r = k.radix();
        crate::retry(|| {
            let mut cur = self.root;
            let mut d = 0;
            loop {
                let b = byte_at(r, d);
                // SAFETY: pinned by `retry`.
                let c = unsafe { &*cur }.lookup(b);
                if c == 0 {
                    return ControlFlow::Break(false);
                }
                if is_leaf(c) {
                    // SAFETY: pinned.
                    if unsafe { &*as_leaf::<K, V>(c) }.key != k {
                        return ControlFlow::Break(false);
                    }
                    let sp_n = Sp(cur);
                    let v2 = v.clone();
                    // SAFETY: pinned.
                    return ControlFlow::Continue(unsafe { &*cur }.lock.try_lock(move || {
                        // SAFETY: thunk runners hold epoch protection.
                        let n = unsafe { sp_n.as_ref() };
                        let Some(slot) = n.slot_of(b) else {
                            return false;
                        };
                        if n.children[slot].load() != c {
                            return false; // leaf moved/tombstoned: re-descend
                        }
                        // SAFETY: the cell still references the leaf and we
                        // hold the lock every replacement of it takes.
                        unsafe { &*as_leaf::<K, V>(c) }.value.set(v2.clone());
                        true
                    }));
                }
                cur = as_node(c);
                d += 1;
            }
        })
    }

    /// Add a fresh leaf for `k` into `node` (whose slot for `k`'s byte at
    /// `depth` was observed empty), upgrading the node if it is out of
    /// slots.
    fn add_leaf(
        &self,
        parent: *mut ArtNode,
        node: *mut ArtNode,
        depth: usize,
        k: &K,
        v: &V,
    ) -> AddOutcome {
        let b = byte_at(k.radix(), depth);
        let sp_n = Sp(node);
        let (k2, v2) = (k.clone(), v.clone());
        // First try the common path: free slot under the node's own lock.
        // SAFETY: pinned caller.
        let fast = unsafe { &*node }.lock.try_lock(move || {
            // SAFETY: thunk runners hold epoch protection.
            let n = unsafe { sp_n.as_ref() };
            if n.lookup(b) != 0 {
                return false; // validate: slot got taken
            }
            // Reuse a tombstoned slot for the same byte if present.
            if let Some(slot) = n.slot_of(b) {
                let leaf = flock_core::alloc(|| ArtLeaf {
                    key: k2.clone(),
                    value: ValueSlot::new(v2.clone()),
                });
                n.children[slot].store(tag_leaf(leaf));
                return true;
            }
            // Allocate only once a slot is known to exist, so a full node
            // cannot leak the fresh leaf.
            if !n.has_free_slot() {
                return false;
            }
            let leaf = flock_core::alloc(|| ArtLeaf {
                key: k2.clone(),
                value: ValueSlot::new(v2.clone()),
            });
            let added = n.try_add(b, tag_leaf(leaf));
            debug_assert!(added, "free slot vanished under the node lock");
            added
        });
        match fast {
            Some(true) => return AddOutcome::Done,
            Some(false) => {} // validation failed or node full: slow path
            None => return AddOutcome::Busy,
        }
        // Slow path: the node may be full — upgrade under parent + node
        // locks. The root is Node256 and never full. A successful upgrade
        // already contains the new leaf, so it completes the insert.
        // SAFETY: pinned.
        let full = unsafe { &*node }.slot_of(b).is_none()
            && unsafe { &*node }.kind != N256
            && self.node_is_full(node);
        if full && !parent.is_null() {
            return match self.upgrade_node(parent, node, depth, k, v) {
                Some(true) => AddOutcome::Done,
                Some(false) => AddOutcome::Retry,
                None => AddOutcome::Busy, // parent or node lock busy
            };
        }
        AddOutcome::Retry
    }

    fn node_is_full(&self, node: *mut ArtNode) -> bool {
        // SAFETY: pinned caller.
        let n = unsafe { &*node };
        match n.kind {
            N4 | N16 => n.keys.iter().all(|kslot| kslot.load() != 0),
            N48 => n.alloc.load() as usize >= n.children.len(),
            _ => false,
        }
    }

    /// Replace a full `node` with a larger copy that also contains a new
    /// leaf for `k`. Locks parent → node (ancestor-first).
    ///
    /// `None` = a lock was busy; `Some(applied)` otherwise.
    fn upgrade_node(
        &self,
        parent: *mut ArtNode,
        node: *mut ArtNode,
        depth: usize,
        k: &K,
        v: &V,
    ) -> Option<bool> {
        debug_assert!(depth >= 1);
        let r = k.radix();
        let pb = byte_at(r, depth - 1);
        let b = byte_at(r, depth);
        let (sp_p, sp_n) = (Sp(parent), Sp(node));
        let (k2, v2) = (k.clone(), v.clone());
        let upgrade = move || {
            // SAFETY: thunk runners hold epoch protection.
            let p = unsafe { sp_p.as_ref() };
            let n = unsafe { sp_n.as_ref() };
            let Some(pslot) = p.slot_of(pb) else {
                return false;
            };
            if p.children[pslot].load() != tag_node(sp_n.ptr()) {
                return false; // validate the link
            }
            if n.lookup(b) != 0 || n.slot_of(b).is_some() || !matches!(n.kind, N4 | N16 | N48) {
                return false; // stale plan
            }
            // Build the compacted, larger copy with the new leaf. The
            // leaf is its own idempotent alloc: nested inside the
            // node's init closure it would leak once per replayed run.
            let entries = n.live_entries();
            let new_kind = ArtNode::kind_for(entries.len() + 1);
            let entries2 = entries.clone();
            let (k3, v3) = (k2.clone(), v2.clone());
            let leaf = flock_core::alloc(|| ArtLeaf {
                key: k3.clone(),
                value: ValueSlot::new(v3.clone()),
            });
            let bigger = flock_core::alloc(move || {
                let fresh = ArtNode::new(new_kind);
                for (eb, ec) in &entries2 {
                    let added = fresh.try_add(*eb, *ec);
                    debug_assert!(added);
                }
                let added = fresh.try_add(b, tag_leaf(leaf));
                debug_assert!(added);
                fresh
            });
            n.lock.mark_obsolete();
            p.children[pslot].store(tag_node(bigger));
            // SAFETY: replaced above; idempotent retire.
            unsafe { flock_core::retire(sp_n.ptr()) };
            true
        };
        // SAFETY: pinned caller; runners adopt its epoch, so both locks
        // outlive them.
        unsafe { (*parent).lock.try_lock_set([&(*node).lock], upgrade) }
    }

    /// Replace existing leaf `c` (child of `node` at `depth`) with a chain
    /// of nodes covering the shared prefix of the two keys, ending in a
    /// Node4 holding both leaves.
    ///
    /// `None` = the node's lock was busy; `Some(false)` = validation failed.
    fn split_leaf(&self, node: *mut ArtNode, depth: usize, c: usize, k: &K, v: &V) -> Option<bool> {
        let kr = k.radix();
        let b = byte_at(kr, depth);
        let sp_n = Sp(node);
        let (k2, v2) = (k.clone(), v.clone());
        // SAFETY: pinned caller.
        unsafe { &*node }.lock.try_lock(move || {
            // SAFETY: thunk runners hold epoch protection.
            let n = unsafe { sp_n.as_ref() };
            let Some(slot) = n.slot_of(b) else {
                return false;
            };
            if n.children[slot].load() != c {
                return false; // validate
            }
            // SAFETY: c validated in place; epoch-protected.
            let old_r = unsafe { &*as_leaf::<K, V>(c) }.key.radix();
            debug_assert_ne!(old_r, kr, "RadixKey images must be injective");
            // First divergent byte strictly below `depth`.
            let mut j = depth + 1;
            while byte_at(old_r, j) == byte_at(kr, j) {
                j += 1;
            }
            // Build the chain bottom-up, one idempotent alloc per node:
            // nesting the whole chain inside a single init closure would
            // leak every inner allocation on replayed runs. The chain
            // length (`j`) is a pure function of the two keys' committed
            // radix images, so every run performs the identical alloc
            // sequence and the log positions stay aligned.
            let (k3, v3) = (k2.clone(), v2.clone());
            let new_leaf = flock_core::alloc(|| ArtLeaf {
                key: k3.clone(),
                value: ValueSlot::new(v3.clone()),
            });
            // Innermost node: both leaves.
            let bottom = flock_core::alloc(|| {
                let n4 = ArtNode::new(N4);
                let added = n4.try_add(byte_at(old_r, j), c);
                debug_assert!(added);
                let added = n4.try_add(byte_at(kr, j), tag_leaf(new_leaf));
                debug_assert!(added);
                n4
            });
            // Wrap in single-child nodes up to depth+1.
            let mut head = bottom;
            for d in (depth + 1..j).rev() {
                let prev = head;
                head = flock_core::alloc(move || {
                    let wrap = ArtNode::new(N4);
                    let added = wrap.try_add(byte_at(kr, d), tag_node(prev));
                    debug_assert!(added);
                    wrap
                });
            }
            n.children[slot].store(tag_node(head));
            true
        })
    }

    /// Element count (O(n) walk; tests/diagnostics).
    pub fn len(&self) -> usize {
        let _g = flock_epoch::pin();
        // SAFETY: pinned walk.
        unsafe { Self::count_leaves(self.root) }
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    unsafe fn count_leaves(n: *mut ArtNode) -> usize {
        // SAFETY: pinned per caller.
        let node = unsafe { &*n };
        node.live_entries()
            .into_iter()
            .map(|(_, c)| {
                if is_leaf(c) {
                    1
                } else {
                    unsafe { Self::count_leaves(as_node(c)) }
                }
            })
            .sum()
    }

    /// Snapshot of all pairs in key order — single-threaded use.
    pub fn collect(&self) -> Vec<(K, V)> {
        let _g = flock_epoch::pin();
        let mut out = Vec::new();
        // SAFETY: pinned walk.
        unsafe { Self::walk(self.root, &mut out) };
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    unsafe fn walk(n: *mut ArtNode, out: &mut Vec<(K, V)>) {
        // SAFETY: pinned per caller.
        let node = unsafe { &*n };
        for (_, c) in node.live_entries() {
            if is_leaf(c) {
                // SAFETY: live child pointer.
                let l = unsafe { &*as_leaf::<K, V>(c) };
                out.push((l.key.clone(), l.value.read()));
            } else {
                unsafe { Self::walk(as_node(c), out) };
            }
        }
    }

    /// Quiescent invariant check: every stored leaf is reachable by its own
    /// key bytes, and depth bounds hold.
    pub fn check_invariants(&self) {
        let pairs = self.collect();
        for (k, v) in pairs {
            assert_eq!(
                self.get(k.clone()),
                Some(v),
                "leaf unreachable by its key bytes"
            );
        }
    }
}

enum AddOutcome {
    /// The leaf is in (fast-path add or a node upgrade that included it).
    Done,
    /// The plan went stale (slot taken, node replaced): re-descend now.
    Retry,
    /// The node's lock was busy: back off before re-descending.
    Busy,
}

impl<K: Key + RadixKey, V: Value> Drop for ArtTree<K, V> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; retired nodes belong to the collector.
        unsafe fn free<K, V: Value>(n: *mut ArtNode) {
            // SAFETY: exclusive teardown.
            unsafe {
                for (_, c) in (*n).live_entries() {
                    if is_leaf(c) {
                        flock_epoch::free_now(as_leaf::<K, V>(c));
                    } else {
                        free::<K, V>(as_node(c));
                    }
                }
                flock_epoch::free_now(n);
            }
        }
        // SAFETY: exclusive access.
        unsafe { free::<K, V>(self.root) };
    }
}

impl<K: Key + RadixKey, V: Value> Map<K, V> for ArtTree<K, V> {
    fn insert(&self, key: K, value: V) -> bool {
        ArtTree::insert(self, key, value)
    }
    fn remove(&self, key: K) -> bool {
        ArtTree::remove(self, key)
    }
    fn get(&self, key: K) -> Option<V> {
        ArtTree::get(self, key)
    }
    fn contains(&self, key: K) -> bool {
        ArtTree::contains(self, &key)
    }
    fn name(&self) -> &'static str {
        "arttree"
    }
    fn update(&self, key: K, value: V) -> bool {
        ArtTree::update(self, key, value)
    }
    fn has_atomic_update(&self) -> bool {
        true
    }
    fn len_approx(&self) -> Option<usize> {
        Some(self.count.get())
    }
}

impl<K: Key + RadixKey, V: Value> OrderedMap<K, V> for ArtTree<K, V> {
    fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        ArtTree::range(self, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_api::testing as testutil;

    #[test]
    fn basic_ops() {
        testutil::both_modes(|| {
            let t: ArtTree<u64, u64> = ArtTree::new();
            assert!(t.insert(5, 50));
            assert!(!t.insert(5, 51));
            assert!(t.insert(3, 30));
            assert_eq!(t.get(5), Some(50));
            assert!(t.remove(5));
            assert!(!t.remove(5));
            assert_eq!(t.get(5), None);
            assert_eq!(t.get(3), Some(30));
            t.check_invariants();
        });
    }

    #[test]
    fn signed_keys_order_preserved() {
        testutil::both_modes(|| {
            let t: ArtTree<i32, u64> = ArtTree::new();
            for (i, k) in [-100, -1, 0, 1, 100].into_iter().enumerate() {
                assert!(t.insert(k, i as u64));
            }
            assert_eq!(
                t.collect().into_iter().map(|(k, _)| k).collect::<Vec<_>>(),
                vec![-100, -1, 0, 1, 100],
                "sign-flip radix keeps signed order"
            );
            assert_eq!(t.get(-1), Some(1));
        });
    }

    #[test]
    fn shared_prefix_keys_split_into_chains() {
        testutil::both_modes(|| {
            let t: ArtTree<u64, u64> = ArtTree::new();
            // Keys differing only in the last byte share 7 prefix bytes:
            // exercises the chain-building split path.
            let base = 0xAABB_CCDD_EEFF_1100u64;
            for i in 0..200u64 {
                assert!(t.insert(base + i, i), "insert {i}");
            }
            for i in 0..200u64 {
                assert_eq!(t.get(base + i), Some(i), "get {i}");
            }
            assert_eq!(t.len(), 200);
            t.check_invariants();
        });
    }

    #[test]
    fn node_upgrades_n4_to_n256() {
        testutil::both_modes(|| {
            let t: ArtTree<u64, u64> = ArtTree::new();
            // 256 keys sharing 7 bytes force one node through every width.
            let base = 0x0102_0304_0506_0700u64;
            for i in 0..256u64 {
                assert!(t.insert(base | i, i * 7));
            }
            for i in 0..256u64 {
                assert_eq!(t.get(base | i), Some(i * 7));
            }
            t.check_invariants();
        });
    }

    #[test]
    fn tombstone_reuse_same_byte() {
        testutil::both_modes(|| {
            let t: ArtTree<u64, u64> = ArtTree::new();
            let k = 0xDEAD_BEEF_0000_0042u64;
            for round in 0..50 {
                assert!(t.insert(k, round));
                assert_eq!(t.get(k), Some(round));
                assert!(t.remove(k));
            }
            assert!(t.is_empty());
        });
    }

    #[test]
    fn native_update_in_place() {
        testutil::both_modes(|| {
            let t: ArtTree<u64, u64> = ArtTree::new();
            assert!(!t.update(1, 10), "update of an absent key refused");
            // Shared-prefix keys force chains, so updates hit deep leaves.
            let base = 0xAABB_CCDD_EEFF_0000u64;
            for i in 0..64 {
                assert!(t.insert(base + i, i));
            }
            for i in 0..64 {
                assert!(t.update(base + i, i + 1000));
            }
            for i in 0..64 {
                assert_eq!(t.get(base + i), Some(i + 1000));
            }
            assert_eq!(t.len(), 64, "update must not change the count");
            assert!(t.remove(base));
            assert!(!t.update(base, 1));
            t.check_invariants();
        });
    }

    #[test]
    fn oracle_dense_and_sparse() {
        testutil::both_modes(|| {
            let t: ArtTree<u64, u64> = ArtTree::new();
            testutil::oracle_check(&t, 3_000, 512, 17);
        });
        testutil::both_modes(|| {
            let t: ArtTree<u64, u64> = ArtTree::new();
            // Sparse (hashed) keys, like the paper's benchmark keys.
            let mut oracle = std::collections::BTreeMap::new();
            for i in 0..2_000u64 {
                let k = crate::mix64(i % 600);
                let expect = !oracle.contains_key(&k);
                if expect {
                    oracle.insert(k, i);
                }
                assert_eq!(t.insert(k, i), expect);
                if i % 3 == 0 {
                    let rk = crate::mix64((i / 2) % 600);
                    assert_eq!(t.remove(rk), oracle.remove(&rk).is_some());
                }
            }
            for (k, v) in &oracle {
                assert_eq!(t.get(*k), Some(*v));
            }
        });
    }

    #[test]
    fn concurrent_partitioned() {
        testutil::both_modes(|| {
            let t: ArtTree<u64, u64> = ArtTree::new();
            testutil::partition_stress(&t, 4, 1_500);
            t.check_invariants();
        });
    }
}
