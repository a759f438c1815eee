//! Adaptive radix tree (ART), the paper's `arttree` (§7), which it reports
//! as the first lock-free ART when run in lock-free mode.
//!
//! Leis et al.'s four node widths (N4, N16, N48, N256), chosen by fanout,
//! with lazy expansion: a leaf sits at the shallowest depth where its key's
//! radix prefix is unique. There is no path compression (the paper's
//! benchmark hashes its keys, so long shared prefixes are rare) and no
//! shrinking on remove.
//!
//! - **Labels are write-once.** An N4/N16 slot's byte label and an N48
//!   index entry never change once assigned, so a label an unlocked reader
//!   matches stays matched. A remove clears only the child cell, a
//!   tombstone that an insert of the same byte reuses and an upgrade
//!   compacts away.
//! - **A node's lock owns its child cells**, and so the value slots of the
//!   leaves they hold. A full node is replaced by a larger copy under its
//!   parent's lock and its own, and marked obsolete.
//! - **A leaf is never copied** (the crate docs, "Radix tree"), so its slot
//!   is its key's only value until the leaf is removed.

use std::ops::{Bound, ControlFlow};

use flock_api::{Key, Map, OrderedMap, Value, key_in_range};
use flock_core::{Lock, Mutable, Sp, UpdateOnce};
use flock_sync::ApproxLen;

/// Keys usable by the radix tree: an order-preserving, injective mapping
/// into the 8-byte radix space. Distinct keys must produce distinct images
/// (`a < b` ⇒ `a.radix() < b.radix()`), or descents would collide.
pub trait RadixKey {
    /// The 8-byte radix image whose big-endian bytes drive the descent.
    fn radix(&self) -> u64;
}

/// The integer primitives: the value, sign-extended, with the sign bit
/// flipped on signed types so that `MIN..=MAX` maps onto `0..=u64::MAX`.
macro_rules! impl_radix {
    ($flip:expr; $($t:ty),*) => {$(
        impl RadixKey for $t {
            #[inline(always)]
            fn radix(&self) -> u64 {
                (*self as i64 as u64) ^ $flip
            }
        }
    )*};
}
impl_radix!(0; u8, u16, u32, u64, usize);
impl_radix!(1 << 63; i8, i16, i32, i64, isize);

#[inline]
fn byte_at(r: u64, depth: usize) -> u8 {
    debug_assert!(depth < 8);
    (r >> (56 - 8 * depth)) as u8
}

/// Tagged child cell: 0 = empty, bit0 = leaf, else internal node.
const LEAF_TAG: usize = 1;

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
    /// Set in place under the lock of the node whose cell holds the leaf.
    value: Mutable<V>,
}

impl<K: Key, V: Value> ArtLeaf<K, V> {
    /// A leaf for `(k, v)` as a tagged child cell. One idempotent
    /// allocation: every runner of the enclosing thunk gets the same leaf.
    fn alloc(k: &K, v: &V) -> usize {
        let l = flock_core::alloc(|| ArtLeaf {
            key: k.clone(),
            value: Mutable::new(v.clone()),
        });
        l as usize | LEAF_TAG
    }
}

/// Node widths. `kind` selects the layout of `keys`/`index`/`children`.
const N4: u8 = 0;
const N16: u8 = 1;
const N48: u8 = 2;
const N256: u8 = 3;

/// How a walk reads labels and child cells.
#[derive(Clone, Copy)]
enum Load {
    /// Through the thunk log: what a thunk must read, and right anywhere.
    Committed,
    /// Plain `Acquire` loads, for reads outside a thunk.
    Acquire,
}

impl Load {
    #[inline]
    fn label(self, l: &UpdateOnce<u32>) -> u32 {
        match self {
            Self::Committed => l.load(),
            Self::Acquire => l.load_acquire(),
        }
    }

    #[inline]
    fn cell(self, c: &Mutable<usize>) -> usize {
        match self {
            Self::Committed => c.load(),
            Self::Acquire => c.load_acquire(),
        }
    }
}

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

    /// Byte `b`'s child cell, if `b` has a slot here: the node's one
    /// byte → slot map.
    #[inline]
    fn cell(&self, b: u8, load: Load) -> Option<&Mutable<usize>> {
        let i = match self.kind {
            N4 | N16 => self
                .keys
                .iter()
                .position(|l| load.label(l) == b as u32 + 1)?,
            N48 => (load.label(&self.index[b as usize]) as usize).checked_sub(1)?,
            _ => b as usize,
        };
        Some(&self.children[i])
    }

    /// Byte `b`'s child, or 0.
    #[inline]
    fn child(&self, b: u8, load: Load) -> usize {
        self.cell(b, load).map_or(0, |c| load.cell(c))
    }

    /// Assign a slot to byte `b`, which has none, and store `child` in it.
    /// The node has a free slot, and is fresh or locked by the caller.
    fn add(&self, b: u8, child: usize) {
        match self.kind {
            N4 | N16 => {
                let i = self.keys.iter().position(|l| l.load() == 0);
                let i = i.expect("a free slot");
                // Publish order: child first, then the label, so a matched
                // label always reads a valid cell.
                self.children[i].store(child);
                self.keys[i].store(b as u32 + 1);
            }
            N48 => {
                let next = self.alloc.load();
                self.alloc.store(next + 1);
                self.children[next as usize].store(child);
                self.index[b as usize].store(next + 1);
            }
            _ => self.children[b as usize].store(child),
        }
    }

    /// Live (byte, child) pairs in byte order, by committed reads.
    fn live_entries(&self) -> Vec<(u8, usize)> {
        let mut out: Vec<(u8, usize)> = match self.kind {
            N4 | N16 => (self.keys.iter().zip(&self.children))
                .filter_map(|(l, c)| l.load().checked_sub(1).map(|b| (b as u8, c.load())))
                .collect(),
            _ => (0..=255)
                .map(|b| (b, self.child(b, Load::Committed)))
                .collect(),
        };
        out.retain(|&(_, c)| c != 0);
        out.sort_unstable_by_key(|&(b, _)| b);
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

    /// Call `f(c, depth, path)` on every child `c` under this node, in byte
    /// order, an internal node after its subtree (so teardown can free as it
    /// goes). `path` holds the `depth` radix bytes that lead to `c`,
    /// left-aligned; this node sits at depth `depth0`, reached by `path0`.
    ///
    /// # Safety
    ///
    /// The caller is pinned, or owns the tree.
    unsafe fn visit(&self, depth0: usize, path0: u64, f: &mut impl FnMut(usize, usize, u64)) {
        for (b, c) in self.live_entries() {
            let path = path0 | ((b as u64) << (56 - 8 * depth0));
            if !is_leaf(c) {
                // SAFETY: per the contract.
                unsafe { (*as_node(c)).visit(depth0 + 1, path, f) };
            }
            f(c, depth0 + 1, path);
        }
    }

    /// The shape every reachable node keeps at quiescence: it is not
    /// obsolete, no byte has two N4/N16 slots, and each N48 index entry
    /// names its own slot below `alloc`.
    fn check(&self) {
        assert!(!self.lock.is_obsolete(), "obsolete node reachable");
        let (labels, bound) = match self.kind {
            N4 | N16 => (&self.keys, u32::MAX),
            N48 => (&self.index, self.alloc.load()),
            _ => return,
        };
        let mut used: Vec<u32> = labels
            .iter()
            .map(UpdateOnce::load)
            .filter(|&x| x != 0)
            .collect();
        assert!(used.iter().all(|&x| x <= bound), "N48 index past alloc");
        let n = used.len();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), n, "a byte labels two slots, or two bytes one");
    }
}

/// Where a descent stopped: `node`'s cell for `byte`, the key's byte at
/// `depth`, held `child`, 0 or a leaf. `parent` holds `node`, and is null
/// when `node` is the root.
struct Path {
    parent: *mut ArtNode,
    node: *mut ArtNode,
    depth: usize,
    byte: u8,
    child: usize,
}

impl Path {
    /// The locked step of every write to one node (adding a leaf,
    /// splitting one, removing or updating one): lock `node`, check that
    /// `byte`'s cell still holds `child` (a missing cell holds 0), and apply
    /// `body` to the node and the cell. `None`: the lock was busy or
    /// obsolete.
    ///
    /// # Safety
    ///
    /// The caller is pinned and reached `node` under that pin.
    unsafe fn locked<F>(&self, body: F) -> Option<bool>
    where
        F: Fn(&ArtNode, Option<&Mutable<usize>>) -> bool + Send + Sync + 'static,
    {
        let (sn, b, c) = (Sp(self.node), self.byte, self.child);
        // SAFETY: per the contract; thunk runners adopt the caller's epoch.
        unsafe { &*self.node }.lock.try_lock(move || {
            // SAFETY: as above.
            let n = unsafe { sn.as_ref() };
            let cell = n.cell(b, Load::Committed);
            cell.map_or(0, Mutable::load) == c && body(n, cell)
        })
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

    /// Walk from the root by the bytes of `r` to an empty cell or a leaf.
    /// It reads with `Acquire` loads outside a thunk, and committed ones
    /// inside, where unlogged loads would desynchronize helpers. The caller
    /// is pinned.
    fn descend(&self, r: u64) -> Path {
        if flock_core::in_thunk() {
            self.walk(r, Load::Committed)
        } else {
            self.walk(r, Load::Acquire)
        }
    }

    /// [`ArtTree::descend`] with its load fixed, inlined into each arm.
    #[inline(always)]
    fn walk(&self, r: u64, load: Load) -> Path {
        let mut at = Path {
            parent: std::ptr::null_mut(),
            node: self.root,
            depth: 0,
            byte: 0,
            child: 0,
        };
        loop {
            at.byte = byte_at(r, at.depth);
            // SAFETY: the caller is pinned; nodes are epoch-reclaimed.
            at.child = unsafe { &*at.node }.child(at.byte, load);
            if at.child == 0 || is_leaf(at.child) {
                return at;
            }
            (at.parent, at.node, at.depth) = (at.node, as_node(at.child), at.depth + 1);
        }
    }

    /// Does the descent `at`, under the caller's pin, end at `k`'s leaf?
    fn holds(at: &Path, k: &K) -> bool {
        // SAFETY: the caller is pinned; leaves are epoch-reclaimed.
        at.child != 0 && unsafe { &*as_leaf::<K, V>(at.child) }.key == *k
    }

    /// Read leaf `c`, `n`'s child for byte `b`: take `n`'s version, check
    /// that the cell still holds `c`, read the slot and validate. After
    /// [`flock_core::OPTIMISTIC_READ_ATTEMPTS`] failures, or inside a thunk,
    /// read the slot committed, obsolete `n` or not: the slot holds the
    /// key's value for as long as the leaf is linked, and its last value
    /// after (the crate docs, "Radix tree").
    ///
    /// # Safety
    ///
    /// The caller is pinned and reached `n` and `c` under that pin.
    unsafe fn read(n: &ArtNode, b: u8, c: usize) -> V {
        // SAFETY: per the contract.
        let l = unsafe { &*as_leaf::<K, V>(c) };
        flock_core::read_validated(
            || {
                let v0 = n.lock.version()?;
                if n.child(b, Load::Acquire) != c {
                    return None;
                }
                let v = l.value.load_acquire();
                n.lock.validate(v0).then_some(v)
            },
            || l.value.load(),
        )
    }

    /// Wait-free lookup: one descent, then a version-bracketed read of the
    /// leaf's slot, committed after bounded failures.
    pub fn get(&self, k: K) -> Option<V> {
        let _g = flock_epoch::pin();
        let at = self.descend(k.radix());
        // SAFETY: pinned.
        Self::holds(&at, &k).then(|| unsafe { Self::read(&*at.node, at.byte, at.child) })
    }

    /// Presence, never decoding or cloning a value: a leaf's key is
    /// immutable, so the cell the descent reads decides it.
    pub fn contains(&self, k: &K) -> bool {
        let _g = flock_epoch::pin();
        Self::holds(&self.descend(k.radix()), k)
    }

    /// Ordered range scan over `[lo, hi]` bounds (see [`OrderedMap`] for
    /// the contract). The walk prunes subtrees by their radix-prefix span
    /// ([`RadixKey::radix`] is order-preserving) and reads each leaf as
    /// `get` does. It needs no restart: a leaf is never copied, so a key has
    /// one position (the crate docs, "Radix tree").
    pub fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        let _g = flock_epoch::pin();
        // A conservative radix window: `key_in_range` decides the edges.
        let radix = |b: Bound<&K>, unbounded| match b {
            Bound::Included(x) | Bound::Excluded(x) => x.radix(),
            Bound::Unbounded => unbounded,
        };
        let window = (radix(lo, 0), radix(hi, u64::MAX));
        let mut out = Vec::new();
        if window.0 <= window.1 {
            // SAFETY: pinned; the root lives as long as the tree.
            unsafe { Self::range_walk(self.root, 0, 0, lo, hi, window, &mut out) };
        }
        out
    }

    /// In-order walk of `node`, reached at `depth` by the bytes in
    /// `prefix`, skipping the children whose radix span
    /// `[p, p | suffix_mask]` misses `window`.
    ///
    /// # Safety
    ///
    /// The caller is pinned and reached `node` under that pin.
    unsafe fn range_walk(
        node: *mut ArtNode,
        depth: usize,
        prefix: u64,
        lo: Bound<&K>,
        hi: Bound<&K>,
        window: (u64, u64),
        out: &mut Vec<(K, V)>,
    ) {
        // SAFETY: per the contract.
        let n = unsafe { &*node };
        let shift = 56 - 8 * depth;
        for (b, c) in n.live_entries() {
            let p = prefix | ((b as u64) << shift);
            if p | ((1u64 << shift) - 1) < window.0 {
                continue;
            }
            if p > window.1 {
                break; // byte order: every later child is above too
            }
            if !is_leaf(c) {
                // SAFETY: per the contract.
                unsafe { Self::range_walk(as_node(c), depth + 1, p, lo, hi, window, out) };
                continue;
            }
            // SAFETY: per the contract.
            let k = &unsafe { &*as_leaf::<K, V>(c) }.key;
            if key_in_range(k, lo, hi) {
                // SAFETY: per the contract.
                out.push((k.clone(), unsafe { Self::read(n, b, c) }));
            }
        }
    }

    /// Insert; `false` if present. An empty cell takes a leaf, upgrading
    /// a full node; a leaf of another key is split.
    pub fn insert(&self, k: K, v: V) -> bool {
        let r = k.radix();
        let added = crate::retry(|| {
            let at = self.descend(r);
            if Self::holds(&at, &k) {
                return ControlFlow::Break(false);
            }
            // SAFETY: pinned by `retry`.
            ControlFlow::Continue(unsafe {
                if at.child == 0 {
                    Self::add_leaf(&at, &k, &v)
                } else {
                    Self::split_leaf(&at, &k, &v)
                }
            })
        });
        if added {
            self.count.inc();
        }
        added
    }

    /// Remove; `false` if absent. The cell keeps its slot as a tombstone.
    pub fn remove(&self, k: K) -> bool {
        let removed = self.on_leaf(&k, |cell, l| {
            cell.store(0);
            // SAFETY: unlinked above; idempotent retire.
            unsafe { flock_core::retire(l) };
        });
        if removed {
            self.count.dec();
        }
        removed
    }

    /// Native atomic update: one idempotent store to the leaf's slot under
    /// the lock every change to its cell takes, with the cell checked under
    /// it. Returns `false` (storing nothing) if `k` is absent. Readers see
    /// the old value or the new one, never absence or a third value.
    pub fn update(&self, k: K, v: V) -> bool {
        // SAFETY: the cell holds the leaf under its node's lock.
        self.on_leaf(&k, move |_, l| unsafe { &*l }.value.store(v.clone()))
    }

    /// Run `body` on `k`'s leaf and the cell that holds it, in
    /// [`Path::locked`]'s step. `false` if `k` is absent.
    fn on_leaf<F>(&self, k: &K, body: F) -> bool
    where
        F: Fn(&Mutable<usize>, *mut ArtLeaf<K, V>) + Clone + Send + Sync + 'static,
    {
        let r = k.radix();
        crate::retry(|| {
            let at = self.descend(r);
            if !Self::holds(&at, k) {
                return ControlFlow::Break(false);
            }
            let (body, l) = (body.clone(), Sp(as_leaf::<K, V>(at.child)));
            // SAFETY: pinned by `retry`.
            ControlFlow::Continue(unsafe {
                at.locked(move |_, cell| {
                    body(cell.expect("the cell holds the leaf"), l.ptr());
                    true
                })
            })
        })
    }

    /// Add a leaf for `k` at the empty cell where `at` stopped: a fresh slot
    /// or the byte's tombstone, else, when the node is full, a larger copy
    /// of it.
    ///
    /// # Safety
    ///
    /// The caller is pinned and reached `at` under that pin.
    unsafe fn add_leaf(at: &Path, k: &K, v: &V) -> Option<bool> {
        let (b, k2, v2) = (at.byte, k.clone(), v.clone());
        // SAFETY: per the contract.
        let added = unsafe {
            at.locked(move |n, cell| match cell {
                Some(cell) => {
                    cell.store(ArtLeaf::alloc(&k2, &v2));
                    true
                }
                // Allocate only once a slot is known to exist, so a full
                // node cannot leak the fresh leaf.
                None if n.has_free_slot() => {
                    n.add(b, ArtLeaf::alloc(&k2, &v2));
                    true
                }
                None => false,
            })
        }?;
        // SAFETY: per the contract.
        let n = unsafe { &*at.node };
        if added || n.cell(b, Load::Committed).is_some() || n.has_free_slot() {
            return Some(added);
        }
        // The root is an N256, never full, so `at.parent` is not null.
        // SAFETY: per the contract.
        unsafe { Self::upgrade_node(at, k, v) }
    }

    /// Replace the full node where `at` stopped with a larger copy that
    /// also holds a leaf for `k`, under the parent's lock and the node's
    /// (ancestor-first).
    ///
    /// # Safety
    ///
    /// As [`ArtTree::add_leaf`]; `at.parent` is not null.
    unsafe fn upgrade_node(at: &Path, k: &K, v: &V) -> Option<bool> {
        debug_assert!(at.depth >= 1);
        let (pb, b) = (byte_at(k.radix(), at.depth - 1), at.byte);
        let (sp, sn, k2, v2) = (Sp(at.parent), Sp(at.node), k.clone(), v.clone());
        let upgrade = move || {
            // SAFETY: thunk runners hold epoch protection.
            let (p, n) = unsafe { (sp.as_ref(), sn.as_ref()) };
            let Some(link) = p.cell(pb, Load::Committed) else {
                return false;
            };
            if link.load() != sn.ptr() as usize || n.cell(b, Load::Committed).is_some() {
                return false; // the link moved, or a stale plan
            }
            let entries = n.live_entries();
            let kind = match entries.len() + 1 {
                0..=4 => N4,
                5..=16 => N16,
                17..=48 => N48,
                _ => N256,
            };
            // The leaf is its own idempotent alloc: nested inside the
            // node's init closure it would leak once per replayed run.
            let leaf = ArtLeaf::alloc(&k2, &v2);
            let bigger = flock_core::alloc(move || {
                let fresh = ArtNode::new(kind);
                for (eb, ec) in entries.into_iter().chain([(b, leaf)]) {
                    fresh.add(eb, ec);
                }
                fresh
            });
            n.lock.mark_obsolete();
            link.store(bigger as usize);
            // SAFETY: replaced above; idempotent retire.
            unsafe { flock_core::retire(sn.ptr()) };
            true
        };
        // SAFETY: per the contract; runners adopt the caller's epoch, so
        // both locks outlive them.
        unsafe { (*at.parent).lock.try_lock_set([&(*at.node).lock], upgrade) }
    }

    /// Replace the leaf where `at` stopped, of a key other than `k`, with a
    /// chain of N4s down to the first byte where the two keys differ; the
    /// last holds both leaves. The old leaf moves down as it is.
    ///
    /// # Safety
    ///
    /// As [`ArtTree::add_leaf`].
    unsafe fn split_leaf(at: &Path, k: &K, v: &V) -> Option<bool> {
        let (depth, c, kr, k2, v2) = (at.depth, at.child, k.radix(), k.clone(), v.clone());
        let split = move |_: &ArtNode, cell: Option<&Mutable<usize>>| {
            // SAFETY: the cell holds `c`; thunk runners hold epoch
            // protection.
            let old_r = unsafe { &*as_leaf::<K, V>(c) }.key.radix();
            debug_assert_ne!(old_r, kr, "RadixKey images must be injective");
            let mut j = depth + 1;
            while byte_at(old_r, j) == byte_at(kr, j) {
                j += 1;
            }
            // One idempotent alloc per node, bottom-up: nested in one
            // init closure, the inner allocations would leak on replayed
            // runs. `j` depends only on the two keys, so every run
            // allocates alike and the log positions stay aligned.
            let leaf = ArtLeaf::alloc(&k2, &v2);
            let mut head = flock_core::alloc(|| {
                let n4 = ArtNode::new(N4);
                n4.add(byte_at(old_r, j), c);
                n4.add(byte_at(kr, j), leaf);
                n4
            });
            for d in (depth + 1..j).rev() {
                let below = head;
                head = flock_core::alloc(move || {
                    let wrap = ArtNode::new(N4);
                    wrap.add(byte_at(kr, d), below as usize);
                    wrap
                });
            }
            cell.expect("the cell holds the leaf").store(head as usize);
            true
        };
        // SAFETY: per the contract.
        unsafe { at.locked(split) }
    }

    /// Element count (O(n) walk; tests/diagnostics).
    pub fn len(&self) -> usize {
        let _g = flock_epoch::pin();
        let mut n = 0;
        // SAFETY: pinned; the root lives as long as the tree.
        unsafe { (*self.root).visit(0, 0, &mut |c, _, _| n += is_leaf(c) as usize) };
        n
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all pairs in key order — single-threaded use.
    pub fn collect(&self) -> Vec<(K, V)> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Quiescent invariant check: every reachable node keeps its shape
    /// (`ArtNode::check`), each leaf's radix bytes match the path to it,
    /// and the maintained count equals the leaves.
    pub fn check_invariants(&self) {
        let _g = flock_epoch::pin();
        // SAFETY: pinned; the root lives as long as the tree.
        let root = unsafe { &*self.root };
        root.check();
        // SAFETY: as above.
        unsafe {
            root.visit(0, 0, &mut |c, depth, path| {
                if !is_leaf(c) {
                    return (*as_node(c)).check();
                }
                let r = (*as_leaf::<K, V>(c)).key.radix();
                assert_eq!((r ^ path) >> (64 - 8 * depth), 0, "leaf off its key's path");
            })
        };
        assert_eq!(self.len(), self.count.get(), "len_approx differs from len");
    }
}

impl<K: Key + RadixKey, V: Value> Drop for ArtTree<K, V> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; retired nodes belong to the collector.
        unsafe {
            (*self.root).visit(0, 0, &mut |c, _, _| {
                if is_leaf(c) {
                    flock_epoch::free_now(as_leaf::<K, V>(c));
                } else {
                    flock_epoch::free_now(as_node(c));
                }
            });
            flock_epoch::free_now(self.root);
        }
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
impl<K: Key + RadixKey, V: Value> ArtTree<K, V> {
    /// The address of the node whose cell holds `k`'s leaf.
    pub(crate) fn record(&self, k: &K) -> usize {
        let _g = flock_epoch::pin();
        self.descend(k.radix()).node as usize
    }

    /// Is the node recorded as `at` obsolete?
    ///
    /// # Safety
    ///
    /// The caller has been pinned since `at` was recorded.
    pub(crate) unsafe fn is_obsolete(at: usize) -> bool {
        // SAFETY: per the contract.
        unsafe { &*(at as *mut ArtNode) }.lock.is_obsolete()
    }

    /// Continue an unbounded walk from the node recorded as `at`. An
    /// unbounded walk prunes nothing, so it needs no depth or prefix.
    ///
    /// # Safety
    ///
    /// The caller has been pinned since `at` was recorded.
    pub(crate) unsafe fn resume(&self, at: usize) -> Vec<(K, V)> {
        let (mut out, all) = (Vec::new(), Bound::Unbounded);
        // SAFETY: forwarded contract.
        unsafe { Self::range_walk(at as *mut ArtNode, 0, 0, all, all, (0, u64::MAX), &mut out) };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_conformance as testutil;

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
