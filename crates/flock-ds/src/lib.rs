//! # flock-ds — concurrent data structures built on Flock lock-free locks
//!
//! Every structure here is written the way a systems programmer would write
//! it with fine-grained optimistic locks — traverse without locks, lock a
//! small neighborhood, validate, mutate — and inherits lock-freedom (or
//! classic blocking behavior) from `flock-core`'s runtime lock mode. This is
//! the paper's §7 collection:
//!
//! | module | structure | paper name |
//! |---|---|---|
//! | [`dlist`] | sorted doubly-linked list (Algorithm 1) | `dlist` |
//! | [`lazylist`] | sorted singly-linked lazy list | `lazylist` |
//! | [`hashtable`] | separate-chaining hash table | `hashtable` |
//! | [`leaftree`] | leaf-oriented unbalanced BST | `leaftree` |
//! | [`leaftreap`] | leaf-oriented treap, multi-entry leaves | `leaftreap` |
//! | [`abtree`] | (a,b)-tree | `abtree` |
//! | [`arttree`] | adaptive radix tree | `arttree` |
//!
//! All implement [`flock_api::Map`] **generically over `(K, V)`**: keys are
//! anything `Clone + Ord + Hash` (the radix tree additionally needs a
//! [`arttree::RadixKey`] image; the hash table hashes through a pluggable
//! [`hashtable::FlockHashBuilder`]-style seam), and values go through the
//! `ValueRepr` layer — inline when they fit the 48-bit packed payload,
//! heap-indirected via `flock_core::Indirect<T>` when they don't. The
//! paper's evaluation shape `Map<u64, u64>` is just one instantiation; the
//! conformance suite also pins `(u32, u16)` and `(u64, Indirect<[u64; 4]>)`
//! for every structure.
//!
//! All seven maintain a striped element counter (`flock_sync::ApproxLen`)
//! behind `Map::len_approx` — bumped *outside* the thunks (a helped thunk
//! replays, so an in-thunk counter bump would double-count; exactly one
//! caller observes success per applied operation). All seven also override
//! `Map::update` with a **native in-place atomic update**
//! (`has_atomic_update() == true`): each value lives in a per-node value
//! slot, a `flock_core::Mutable<V>`, that is stored into inside the thunk
//! of the lock whose holder could remove the node — see each module's
//! `update` docs for the owning lock and EXPERIMENTS.md §7 for the
//! placement table.
//!
//! ## Value slots
//!
//! The choreography is the same in every structure. Readers snapshot the
//! slot without any lock (`Mutable::load`, or `Mutable::load_acquire`
//! inside a version bracket): one atomic load of the packed word, decoded
//! under an epoch pin for indirect (fat) values, so a reader sees the old
//! value or the new one, never absence and never a third value. Writers
//! replace it with `Mutable::store` inside the owning lock's thunk, after
//! re-validating that the node still holds the key; the store is
//! idempotent under helping (one logged encoding, one installing CAS, and
//! for indirect values exactly one displaced encoding retired per applied
//! update).
//!
//! Which lock owns a slot is each structure's decision: the bucket lock
//! (hashtable), the node's own lock (dlist, lazylist, arttree), or the
//! leaf's parent lock (leaftree, leaftreap, abtree). It must be the same
//! lock, or set of locks, whose holder can remove or replace the node, so
//! that "the key is present" stays true for the duration of the thunk.
//!
//! Update operations use `try_lock`'s typed result to separate their retry
//! reasons, in one shared retry loop: `None` (a lock busy, or its node
//! unlinked) backs off before retrying, because in lock-free mode the
//! holder has already been helped and contending again at once only
//! collides; `Some(false)` (neighborhood validation failed) re-traverses
//! immediately, because a fresh traversal has new information. A node's
//! lock is also its only "still linked" flag: the critical section that
//! unlinks a node marks the node's lock obsolete
//! (`flock_core::Lock::mark_obsolete`), so holding a lock proves its node
//! linked and a version bracket fails on an unlinked node.
//!
//! Thunks communicate **only** through their boolean result and the shared
//! structure. Capturing a pointer to the caller's stack would be a
//! use-after-return hazard, because a helper can still be replaying the
//! thunk after the owner's call has returned — the same reason the paper's
//! C++ lambdas must capture by value.
//!
//! ## List protocol
//!
//! [`dlist`] and [`lazylist`] share one link-lock list protocol, written
//! once; each list adds its node layout, and the doubly-linked list its
//! back pointers.
//!
//! - **A link's own lock owns its value.** An in-place `update` stores
//!   under it, and the remove that unlinks the link takes it with the
//!   predecessor's lock and marks it obsolete in the same critical section.
//!   An insert or a splice validates `pred.next == link` under the
//!   predecessor's lock.
//! - **An obsolete link is definitively absent.** The bit never clears, and
//!   a search reaches only links that were linked at some instant of the
//!   search, so a search that stops at an obsolete link holding its key may
//!   answer "absent" at once. A read of a link's value is validated against
//!   the link's version and reads as absent if the link is obsolete.
//! - **A scan needs no restart.** A removed link's `next` is frozen when it
//!   is unlinked and still points at larger keys, so a walk descheduled on
//!   an unlinked link keeps moving forward: keys stay strictly increasing,
//!   each is reported at most once, and the unlinked links it passes read
//!   as absent. A tree scan cannot do this: a spliced-out subtree can hold
//!   the old leaf of a key removed and re-inserted behind the walk.
//!
//! ## Tree protocol
//!
//! [`leaftree`], [`leaftreap`] and [`abtree`] share one leaf-oriented tree
//! protocol, written once, and one tree type: [`leaftree::LeafTree`],
//! [`leaftreap::LeafTreap`] and [`abtree::ABTree`] are aliases of it over
//! their own node types, with one set of methods and one `Map` and
//! `OrderedMap` impl. A node type adds its layout, its name, its `insert`
//! (leaftree's leaf split, the treap's priorities and rotations, abtree's
//! preemptive splits) and its own invariant on a linked pair; only
//! `LeafTree` also has a strict constructor.
//!
//! - **The parent lock owns a leaf.** Keys live in leaves, and a leaf's key
//!   set never changes. Every change to a leaf — a copy that replaces it, an
//!   in-place value `update`, a split, a splice — goes through its parent's
//!   child cell under the parent's lock, after checking that the cell still
//!   holds the leaf.
//! - **The obsolete bit means "unlinked".** Unlinking or replacing an
//!   internal node marks its lock obsolete in the same critical section, so
//!   no lock is taken on an unlinked node and its child cells never change
//!   again.
//! - **The bracket.** A read of a leaf's values takes the parent's version,
//!   re-checks the child cell, reads, and validates the version. After a
//!   bounded number of failures it reads through the committed path and
//!   accepts the result only if the parent is not obsolete. Presence alone
//!   needs no bracket: the leaf a descent reaches was linked at some instant
//!   of the descent.
//! - **The restart.** A range scan that meets an obsolete parent was
//!   descheduled inside a spliced-out subtree, where it could meet the old
//!   leaf of a key removed and re-inserted behind it. It restarts from the
//!   top after the last key it emitted.
//!
//! ## Radix tree
//!
//! [`arttree`] keeps its own protocol: a node's lock owns its child cells,
//! and a leaf is never copied. An upgrade moves the child pointers into a
//! larger node, and a split pushes the same leaf one level down. So a
//! leaf's value slot is its key's only value until the leaf is removed, and
//! a key has one position in the tree.
//!
//! - **The committed fallback needs no obsolete check.** A read that gives
//!   up on the version bracket reads the slot of the leaf its descent
//!   found. That leaf was linked when found, and its slot changes only while
//!   it is linked, so the value read was the key's at some instant of the
//!   read, whatever became of the node.
//! - **A scan needs no restart.** A walk descheduled in a node that an
//!   upgrade replaced keeps reading that node's frozen cells: the same
//!   leaves the new node holds, in the same order. It can report a removed
//!   leaf's last value, but never two leaves of one key.

#![warn(missing_docs)]

use std::ops::ControlFlow;

use flock_sync::Backoff;

pub mod abtree;
pub mod arttree;
pub mod dlist;
pub mod hashtable;
pub mod lazylist;
pub mod leaftreap;
pub mod leaftree;
mod list;
mod tree;

pub use arttree::RadixKey;
pub use flock_api::Map;
pub use hashtable::FlockHashBuilder;

/// Run one update's attempts, pinned, until one finishes. `attempt`
/// breaks with the answer when its search decides the operation without a
/// lock (the key is already present, or absent), and otherwise continues
/// with its lock outcome, handled as the crate docs say: `None` backs off
/// first, `Some(false)` retries at once, `Some(true)` finishes with `true`.
pub(crate) fn retry(mut attempt: impl FnMut() -> ControlFlow<bool, Option<bool>>) -> bool {
    let _g = flock_epoch::pin();
    let mut backoff = Backoff::new();
    loop {
        match attempt() {
            ControlFlow::Break(done) => return done,
            ControlFlow::Continue(Some(true)) => return true,
            ControlFlow::Continue(Some(false)) => {}
            ControlFlow::Continue(None) => backoff.snooze(),
        }
    }
}

/// Mix a key into a pseudo-random u64 (splitmix64 finalizer). Used for the
/// default hasher's finalizer and the workload's key sparsifier.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A scan descheduled inside a subtree that is then spliced out must not
/// report the old leaf of a key removed and re-inserted behind it: the walk
/// rejects a leaf whose parent is obsolete and restarts after the last key
/// it emitted. A list scan descheduled on a link that is then unlinked
/// needs no restart: the link's frozen `next` still points forward, and an
/// obsolete link reads as absent. A radix scan descheduled in a node that
/// is then upgraded needs none either: the old node's frozen cells hold the
/// same leaves as the new one.
#[cfg(test)]
mod stale_scan {
    use crate::arttree::ArtTree;
    use crate::list::{List, ListNode};
    use crate::tree::{Tree, TreeNode};
    use flock_conformance::both_modes;

    /// Insert `keys` (value = key), remove `pre`, record the parent of
    /// `k`'s leaf, remove `k` (which must unlink that parent) and re-insert
    /// it with a new value, then continue a walk from the recorded parent.
    fn stale_parent_walk<N: TreeNode<K = u64, V = u64>>(
        make: impl Fn() -> Tree<N>,
        keys: &[u64],
        pre: &[u64],
        k: u64,
    ) {
        both_modes(|| {
            let t = make();
            for &x in keys {
                assert!(t.insert(x, x));
            }
            for &x in pre {
                assert!(t.remove(x));
            }
            let _g = flock_epoch::pin();
            let at = t.record(&k);
            assert!(t.remove(k));
            assert!(t.insert(k, k + 1000));
            // SAFETY: pinned since `record`.
            let out = unsafe { t.resume(at) };
            assert!(!out.contains(&(k, k)), "{}: stale pair in {out:?}", N::NAME);
            assert!(
                out.contains(&(k, k + 1000)),
                "{}: new pair missing: {out:?}",
                N::NAME
            );
            assert!(
                out.windows(2).all(|w| w[0].0 < w[1].0),
                "{}: keys not strictly increasing: {out:?}",
                N::NAME
            );
        });
    }

    /// Insert 1..=5 (value = key), record the link of 3, remove 3 and 4,
    /// re-insert 3 with a new value, then continue the walk from the
    /// recorded link. Returning at all shows the walk ends.
    fn stale_link_walk<N: ListNode<K = u64, V = u64>>(make: impl Fn() -> List<N>) {
        both_modes(|| {
            let l = make();
            for x in 1..=5 {
                assert!(l.insert(x, x));
            }
            let _g = flock_epoch::pin();
            let at = l.record(&3);
            assert!(l.remove(3));
            assert!(l.remove(4));
            assert!(l.insert(3, 1003));
            // SAFETY: pinned since `record`.
            let out = unsafe { l.resume(at) };
            assert!(!out.contains(&(3, 3)), "{}: stale pair in {out:?}", N::NAME);
            assert!(
                out.windows(2).all(|w| w[0].0 < w[1].0),
                "{}: keys not strictly increasing: {out:?}",
                N::NAME
            );
        });
    }

    /// Insert 1..=4, which fills the depth-7 N4, and record it; insert 5,
    /// which upgrades it to an N16; remove 2 and re-insert it with a new
    /// value, then continue the walk from the recorded node.
    #[test]
    fn walk_from_an_upgraded_radix_node_reports_each_key_once() {
        both_modes(|| {
            let t = ArtTree::<u64, u64>::new();
            for x in 1..=4 {
                assert!(t.insert(x, x));
            }
            let _g = flock_epoch::pin();
            let at = t.record(&2);
            assert!(t.insert(5, 5));
            // SAFETY: pinned since `record`.
            assert!(unsafe { ArtTree::<u64, u64>::is_obsolete(at) });
            assert!(t.remove(2));
            assert!(t.insert(2, 1002));
            // SAFETY: pinned since `record`.
            let out = unsafe { t.resume(at) };
            assert!(
                out.windows(2).all(|w| w[0].0 < w[1].0),
                "keys not strictly increasing: {out:?}"
            );
            for x in [1, 3, 4] {
                assert!(out.contains(&(x, x)), "{x} missing: {out:?}");
            }
            let twos: Vec<_> = out.iter().filter(|(k, _)| *k == 2).collect();
            assert!(
                matches!(twos[..], [(2, 2) | (2, 1002)]),
                "2 not reported exactly once: {out:?}"
            );
        });
    }

    #[test]
    fn walk_from_an_unlinked_link_skips_it() {
        stale_link_walk(crate::dlist::DList::new);
        stale_link_walk(crate::lazylist::LazyList::new);
    }

    #[test]
    fn walk_from_an_unlinked_parent_restarts() {
        // 20's parent is the internal routing 30, spliced out with 20.
        stale_parent_walk(crate::leaftree::LeafTree::new, &[10, 20, 30], &[], 20);
        // 1..=9 split into [1..4] and [5..9] under one internal; 4 is left
        // alone in its leaf, so removing it splices that internal out.
        stale_parent_walk(
            crate::leaftreap::LeafTreap::new,
            &[1, 2, 3, 4, 5, 6, 7, 8, 9],
            &[1, 2, 3],
            4,
        );
        // 13 keys split the root leaf under a one-separator root; 6 is
        // left alone in its leaf, so removing it replaces that root.
        stale_parent_walk(
            crate::abtree::ABTree::new,
            &(1..=13).collect::<Vec<_>>(),
            &[1, 2, 3, 4, 5],
            6,
        );
    }
}
