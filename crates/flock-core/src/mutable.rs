//! Idempotent shared mutable cells: `Mutable<V>` and `UpdateOnce<V>`.
//!
//! `Mutable<V>` is the Rust rendition of the paper's `mutable_` wrapper
//! (Algorithm 2): a shared location whose `load`, `store` and `cam` are
//! idempotent when executed inside a thunk. The stored word is a 48-bit
//! payload alongside a 16-bit ABA tag — the representation all of the
//! paper's experiments use (§6 "ABA") — but the *payload* is produced by
//! the [`flock_sync::ValueRepr`] representation layer, so `V` is either
//!
//! * an **inline** type (fits 48 bits: integers, flags, pointers — the
//!   historical fast path, compiled identically because the indirect
//!   branches are `const`-false), or
//! * an **indirect** type (`flock_epoch::Indirect<T>`): the payload is a
//!   pointer to an epoch-managed heap copy. Stores then become
//!   allocate-swap-retire, and all three steps are made idempotent with
//!   the same thunk-log machinery as everything else: each run's fresh
//!   allocation is committed (losers free theirs, exactly like
//!   [`crate::alloc`]), and the retire of the displaced encoding is
//!   guarded by a committed marker (exactly like [`crate::retire`]), so a
//!   helped thunk re-reads a stable snapshot and every displaced value is
//!   dropped exactly once.
//!
//! Indirect loads decode by cloning out of the live allocation, which
//! requires grace-period protection; the cell pins the epoch itself on
//! every indirect decode/retire (a compiled-out no-op for inline types,
//! a reentrant depth bump on the structure/thunk paths that are already
//! pinned), so even bare unpinned callers are safe.
//!
//! Operation sketch (inside a thunk; outside, the log steps vanish):
//!
//! * `load` — read the packed word, commit it to the thunk log, return the
//!   payload of whatever got committed first.
//! * `store(v)` — `load` to agree on the old packed word; pick the next
//!   tag: `+1`, which every helper derives alike from that old word, or on
//!   entering a tag window the start of the first window with no
//!   announcement for this location (`flock_sync::announce`), a choice that
//!   is committed to the log so all helpers build the identical new word;
//!   announce the expected tag; check the running descriptor is not already
//!   done; single CAS; clear the announcement. ABA-freedom of tagged words
//!   means only the first CAS succeeds.
//! * `cam(old, new)` — like `store` but aborts (idempotently, after the log
//!   commit) when the committed old value differs from `old`. CAM returns
//!   nothing: returning the CAS outcome would externalize a value that can
//!   differ between runs.
//!
//! Each public operation fetches the thread context **once** and threads it
//! through the log commit, tag scan and announcement — the `*_in` methods
//! are the reference-taking forms the lock hot path calls directly.
//!
//! `UpdateOnce<V>` covers the paper's *update-once* locations (§6): written
//! at most once after initialization, hence naturally ABA-free — loads log,
//! stores are plain writes.

use std::marker::PhantomData;

use flock_sync::announce;
use flock_sync::atomic::{AtomicU64, Ordering};
use flock_sync::pack::{PackedValue, ValueRepr, next_tag, pack, unpack_tag, unpack_val};
use flock_sync::tagged::TaggedAtomicU64;
use flock_sync::{ThreadCtx, thread_ctx};

use crate::ctx::commit_raw_in;
use crate::descriptor::Descriptor;

/// Marker committed to the log by the run that wins the retire of a
/// displaced indirect encoding (mirrors `idemp::RETIRE_MARKER`).
const VALUE_RETIRE_MARKER: u64 = 1;

/// A shared mutable location with idempotent operations.
///
/// Wrap any shared value that is modified inside a lock in a `Mutable`, as
/// the paper's examples do (`mutable_<link*> next;`). Reads and writes of
/// values that are *not* shared-and-mutated-under-locks don't need this —
/// plain fields are fine for constants.
///
/// `V` ranges over the [`ValueRepr`] layer: inline types behave exactly as
/// the historical 48-bit cell; `flock_epoch::Indirect<T>` values live
/// behind an epoch-managed pointer. Every operation that touches an
/// indirect encoding (load, cam, store's retire, `Debug`) pins the epoch
/// itself — free for inline instantiations (the branch is `const`-false),
/// a reentrant depth bump on the already-pinned structure/thunk paths —
/// so bare cells are safe to use without an explicit guard.
#[repr(transparent)]
pub struct Mutable<V: ValueRepr> {
    cell: TaggedAtomicU64,
    _pd: PhantomData<V>,
}

// SAFETY: all access goes through atomic operations; inline V is a Copy bit
// pattern, indirect V's repr impl requires `T: Send + Sync`.
unsafe impl<V: ValueRepr> Send for Mutable<V> {}
unsafe impl<V: ValueRepr> Sync for Mutable<V> {}

impl<V: ValueRepr> Drop for Mutable<V> {
    fn drop(&mut self) {
        if V::INDIRECT {
            // Exclusive access: free the final encoding immediately. When
            // the cell sits in an epoch-retired node this runs *after* the
            // grace period (at collector-drop time), so no reader can still
            // be decoding it.
            // SAFETY: the cell always holds a live encoding; `&mut self`
            // means no other thread can observe it again.
            unsafe { V::dealloc_bits(self.cell.load_val(Ordering::Relaxed)) };
        }
    }
}

impl<V: ValueRepr> Mutable<V> {
    /// A new cell holding `v` (tag 0). Allocates for indirect reprs.
    pub fn new(v: V) -> Self {
        Self {
            cell: TaggedAtomicU64::new(V::encode(v)),
            _pd: PhantomData,
        }
    }

    #[inline(always)]
    fn addr(&self) -> usize {
        &self.cell as *const TaggedAtomicU64 as usize
    }

    /// Raw packed word, bypassing the log. Used by the lock machinery for
    /// helper revalidation; not part of the public idempotent API.
    ///
    /// Ordering: Acquire. The helping protocol issues a `SeqCst` fence
    /// (epoch adoption) before this revalidation read, which anchors the
    /// required total-order reasoning; Acquire on the load itself is what
    /// makes the descriptor the word points to dereferenceable (its
    /// publication CAS is `SeqCst`, hence a release store).
    #[inline(always)]
    pub(crate) fn raw_packed(&self) -> u64 {
        self.cell.load_packed(Ordering::Acquire)
    }

    /// Direct access to the underlying tagged cell, for the blocking-mode
    /// lock paths that bypass the idempotence machinery entirely.
    #[inline(always)]
    pub(crate) fn raw_cell(&self) -> &TaggedAtomicU64 {
        &self.cell
    }

    /// Idempotent load.
    ///
    /// Inside a thunk, commits the observed packed word to the thunk log so
    /// every run of the thunk returns the same value. Outside, a plain
    /// atomic read.
    #[inline]
    pub fn load(&self) -> V {
        thread_ctx::with(|tc| self.load_in(tc))
    }

    /// Optimistic snapshot load: one plain `Acquire` read of the packed
    /// word, bypassing the thunk log, the thread-context fetch and the
    /// `SeqCst` linearization-point ordering of [`Mutable::load`].
    ///
    /// **Only for version-validated read paths outside any thunk** (the
    /// [`read_validated`](crate::read_validated) discipline): the observed
    /// value is meaningful solely because the bracketing lock version
    /// re-check discards windows in which a critical section committed.
    /// Inside a thunk this load would desynchronize helper replays — the
    /// combinator routes in-thunk callers to the committed path instead.
    ///
    /// Indirect decodes pin the epoch themselves (like [`Mutable::load`]),
    /// so a decoded-then-discarded snapshot from a window that later fails
    /// validation is still memory-safe: the encoding cannot be freed while
    /// this call is pinned.
    #[inline]
    pub fn load_acquire(&self) -> V {
        let _g = V::INDIRECT.then(flock_epoch::pin);
        // SAFETY: the payload is a live encoding (installed by `encode`,
        // displaced encodings are epoch-retired) and the guard above covers
        // indirect decodes.
        unsafe { V::decode(unpack_val(self.cell.load_packed(Ordering::Acquire))) }
    }

    /// [`Mutable::load`] against an already-fetched thread context.
    #[inline]
    pub(crate) fn load_in(&self, tc: &ThreadCtx) -> V {
        // Indirect decode dereferences the encoding, so it needs grace-
        // period protection even for bare top-level callers (e.g. a
        // `Locked` cell outside any structure operation) — without this, a
        // concurrent second store could retire-and-free the encoding under
        // the decode. Free for inline reprs (compiled out); cheap and
        // reentrant for the already-pinned structure/thunk paths.
        let _g = V::INDIRECT.then(|| flock_epoch::pin_with(tc));
        // SAFETY: the committed word's payload is a live encoding — it was
        // installed by `encode` and any displacing store retires it through
        // the epoch collector, which cannot free it while this read is
        // pinned (guard above, plus the owner pin / adopted epoch on
        // in-thunk paths).
        unsafe { V::decode(unpack_val(self.load_packed_committed_in(tc))) }
    }

    /// Idempotent load returning the full packed word (tag + payload), for
    /// callers that must later compare *incarnations* of this location, not
    /// just values — the lock help path keeps the tag so a recycled
    /// descriptor reinstalled at the same address cannot masquerade as the
    /// observed one (see `Lock::help`).
    #[inline]
    pub(crate) fn load_packed_in(&self, tc: &ThreadCtx) -> u64 {
        self.load_packed_committed_in(tc)
    }

    /// Idempotent load returning the full packed word (tag + payload).
    #[inline]
    fn load_packed_committed_in(&self, tc: &ThreadCtx) -> u64 {
        // Ordering: SeqCst — loads are the read linearization points of the
        // optimistic data-structure traversals built on this cell, and the
        // lock algorithm's "read the lock word" steps; on x86-TSO a SeqCst
        // load is a plain mov, so there is nothing to shave here anyway.
        let w = self.cell.load_packed(Ordering::SeqCst);
        #[cfg(feature = "model")]
        if crate::mutants::skip_load_commit() {
            return w;
        }
        let (committed, _) = commit_raw_in(tc, w);
        committed
    }

    /// Idempotent store.
    ///
    /// Stores and CAMs to the same location must not race (they should be
    /// protected by the location's lock), per the paper's model; concurrent
    /// loads are fine. For indirect reprs the displaced encoding is retired
    /// through the epoch collector (exactly once per logical store, even
    /// under helping) so concurrent readers keep a stable snapshot.
    #[inline]
    pub fn store(&self, new: V) {
        thread_ctx::with(|tc| {
            let old = self.load_packed_committed_in(tc);
            self.tagged_cas_after_load_in(tc, old, new);
        })
    }

    /// Idempotent compare-and-modify: store `new` only if the current value
    /// equals `old`. Returns nothing by design (see module docs).
    #[inline]
    pub fn cam(&self, old: V, new: V) {
        thread_ctx::with(|tc| self.cam_in(tc, old, new))
    }

    /// [`Mutable::cam`] against an already-fetched thread context.
    #[inline]
    pub(crate) fn cam_in(&self, tc: &ThreadCtx, old: V, new: V) {
        // Same unpinned-caller protection as `load_in`: the comparison
        // decodes the committed encoding.
        let _g = V::INDIRECT.then(|| flock_epoch::pin_with(tc));
        let committed_old = self.load_packed_committed_in(tc);
        // Inline: value equality *is* bit equality (encode is injective on
        // round-trips), keeping the historical comparison. Indirect: decode
        // and compare by value — distinct allocations of equal values must
        // still match. The branch compiles out per instantiation; both
        // sides are deterministic given the committed word, so every run of
        // a thunk takes the same path.
        let matches = if V::INDIRECT {
            // SAFETY: committed payload is a live encoding, pinned above.
            unsafe { V::decode(unpack_val(committed_old)) == old }
        } else {
            unpack_val(committed_old) == V::encode(old)
        };
        if !matches {
            return;
        }
        self.tagged_cas_after_load_in(tc, committed_old, new);
    }

    /// CAM guarded by a **full packed word** (tag included): fires only
    /// while the location still holds the exact incarnation `expected_packed`
    /// was read from. The pre-generation help path (the `SKIP_GEN_CHECK`
    /// mutant) unlocks with this.
    #[cfg(feature = "model")]
    #[inline]
    pub(crate) fn cam_packed_in(&self, tc: &ThreadCtx, expected_packed: u64, new: V) {
        let committed_old = self.load_packed_committed_in(tc);
        if committed_old != expected_packed {
            return;
        }
        self.tagged_cas_after_load_in(tc, committed_old, new);
    }

    /// Shared tail of `store`/`cam`: given the committed old packed word,
    /// encode the new value (idempotently for indirect reprs), agree on a
    /// new tag, run the announcement protocol, CAS once, and retire the
    /// displaced encoding (idempotently, for indirect reprs).
    ///
    /// `committed_old` must be a word this caller's
    /// [`load_packed_in`](Mutable::load_packed_in) returned for this cell in
    /// the current thunk context, so every runner of the thunk passes the
    /// identical word. The lock paths call this directly to CAS from a read
    /// they already committed, where a `cam` would load and commit again.
    ///
    /// Log-slot discipline: every run of a thunk reaching this point
    /// consumes the identical commit sequence — [fresh-encoding]*, [tag
    /// choice]†, [retire marker]* (starred entries for indirect reprs only;
    /// the tag choice only when the new tag enters a tag window, one store
    /// in `TAG_WINDOW`) — because all branches below depend only on
    /// committed values, never on timing.
    #[inline]
    pub(crate) fn tagged_cas_after_load_in(&self, tc: &ThreadCtx, committed_old: u64, new: V) {
        let old_tag = unpack_tag(committed_old);
        // One issuer for every tag of every cell (`flock_sync::announce`,
        // "Window-entry scans"): `+1`, and a table scan one time in
        // `TAG_WINDOW`, on entering a window.
        let table = announce::global();
        let start = next_tag(old_tag);
        let candidate = table.next_free_tag(self.addr(), start);
        if !tc.in_thunk() {
            // Top level (or blocking mode): no helpers, no replay. A single
            // tag-bumping CAS; a CAS loop would mask racing stores, which
            // the model forbids anyway, so one attempt keeps semantics
            // identical to the logged path.
            let new_bits = V::encode(new);
            let installed = self.cell.ccas(committed_old, pack(candidate, new_bits));
            if V::INDIRECT {
                if installed {
                    // The displaced encoding may still be decoded by
                    // concurrent readers: grace-period retire. Pin locally —
                    // reentrant, and callers outside any guard (e.g. a bare
                    // `Locked` cell) get the protection they need.
                    let _g = flock_epoch::pin();
                    // SAFETY: displaced by the CAS above, retired once.
                    unsafe { V::retire_bits(unpack_val(committed_old)) };
                } else {
                    // The CAS lost (a racing store violated the model, or a
                    // stale caller): our encoding was never published.
                    // SAFETY: never escaped this call.
                    unsafe { V::dealloc_bits(new_bits) };
                }
            }
            return;
        }

        // Idempotent encode: every run allocates (indirect) or bit-casts
        // (inline) its own encoding; the first commit wins and losers free
        // theirs — the same shape as `crate::alloc`. The loser's allocation
        // can never alias the winner's: the winner's encoding stays
        // un-freed (installed, or retired but inside our adopted epoch)
        // while any run of this thunk is still replaying.
        let new_bits = if V::INDIRECT {
            let fresh = V::encode(new);
            let (committed, first) = commit_raw_in(tc, fresh);
            if !first && committed != fresh {
                // SAFETY: `fresh` lost the commit race; never published.
                unsafe { V::dealloc_bits(fresh) };
            }
            committed
        } else {
            V::encode(new)
        };

        // Agree on the tag for the new word. Inside a window the candidate
        // is `next_tag(old_tag)`, a function of the committed old word that
        // every runner computes alike: nothing to agree on, nothing logged.
        // On a window entry it is whatever the issuer's scan found free, so
        // the first committer's choice wins and everyone uses it. The branch
        // keys on `committed_old` alone, so all runners take it alike.
        let chosen = if announce::is_window_entry(start) {
            commit_raw_in(tc, candidate as u64).0 as u16
        } else {
            candidate
        };
        let new_word = pack(chosen, new_bits);

        // Chaos seam: the new word is committed to the thunk log but not yet
        // installed — a stall here is exactly the window helping exists for
        // (a helper replays the log, agrees on `new_word`, and installs it on
        // the victim's behalf). No-op in default builds.
        flock_sync::chaos::probe(flock_sync::chaos::Seam::LogCommitToInstall);

        // Hazard-style announcement of the expected (location, tag) pair:
        // announce, fence (inside announce), then re-check that the thunk is
        // not finished. If it is finished every effect is already applied
        // and a stale CAS here could only do harm (tag reuse), so skip.
        let me = tc.tid();
        table.announce(me, self.addr(), old_tag);
        let d = tc.descriptor.get() as *const Descriptor;
        // SAFETY: we are inside this descriptor's run (ctx invariant), so it
        // is live: owner-held or epoch-protected by the helping protocol.
        // The done read is the revalidation half of announce-then-
        // revalidate; `announce` just issued the announcer-side barrier it
        // pairs with (SeqCst swap on TSO, SeqCst fence elsewhere).
        let done = unsafe { (*d).is_done_announced() };
        if !done {
            self.cell.ccas(committed_old, new_word);
        }
        table.clear(me);

        if V::INDIRECT {
            // Idempotent retire of the displaced encoding — the same shape
            // as `crate::retire`: only the first run past this marker
            // performs the epoch retire. Unconditional (not gated on the
            // CAS outcome) because exactly one run's CAS installs the new
            // word — the location is store-serialized by its lock, so
            // `committed_old` is displaced by this logical store in every
            // execution. Runners are epoch-protected (owner pin / adopted
            // epoch), satisfying `retire_bits`' pinning contract.
            let (_, first) = commit_raw_in(tc, VALUE_RETIRE_MARKER);
            if first {
                // SAFETY: displaced exactly once per logical store; the
                // marker makes this run the unique retirer.
                unsafe { V::retire_bits(unpack_val(committed_old)) };
            }
        }
    }
}

impl<V: ValueRepr + std::fmt::Debug> std::fmt::Debug for Mutable<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Indirect decode needs grace-period protection; pinning here keeps
        // `Debug` safe to call from any diagnostic context.
        let _g = V::INDIRECT.then(flock_epoch::pin);
        let w = self.cell.load_packed(Ordering::Acquire);
        // SAFETY: payload is a live encoding; pinned above when indirect.
        let v = unsafe { V::decode(unpack_val(w)) };
        f.debug_struct("Mutable")
            .field("value", &v)
            .field("tag", &unpack_tag(w))
            .finish()
    }
}

/// A shared location written at most once after initialization.
///
/// Naturally ABA-free, so it needs no tag, and its `store` can be a plain
/// write: every run of the thunk writes the same value, so only the first
/// has an effect (paper §6, "Constants and Update-once Locations"). Loads
/// inside a thunk still go through the log.
#[repr(transparent)]
pub struct UpdateOnce<V: PackedValue> {
    cell: AtomicU64,
    _pd: PhantomData<V>,
}

// SAFETY: atomic access only; V is a Copy bit-pattern.
unsafe impl<V: PackedValue> Send for UpdateOnce<V> {}
unsafe impl<V: PackedValue> Sync for UpdateOnce<V> {}

impl<V: PackedValue> UpdateOnce<V> {
    /// New cell with initial value `v`.
    pub fn new(v: V) -> Self {
        Self {
            cell: AtomicU64::new(v.to_bits()),
            _pd: PhantomData,
        }
    }

    /// Idempotent load (logged inside a thunk).
    #[inline]
    pub fn load(&self) -> V {
        // Ordering: Acquire pairs with the Release store below — an
        // update-once location is pure publication (all writers write the
        // same value), so no total-order reasoning ever involves it.
        let w = self.cell.load(Ordering::Acquire);
        let (committed, _) = crate::ctx::commit_raw(w | UPDATE_ONCE_PRESENT);
        V::from_bits(committed & !UPDATE_ONCE_PRESENT)
    }

    /// Plain `Acquire` load bypassing the thunk log — the `UpdateOnce`
    /// counterpart of [`Mutable::load_acquire`]. **Only for version-
    /// validated optimistic read paths outside any thunk** (the
    /// [`read_validated`](crate::read_validated) discipline).
    #[inline]
    pub fn load_acquire(&self) -> V {
        V::from_bits(self.cell.load(Ordering::Acquire))
    }

    /// Store the location's single update. Caller contract: all writers
    /// write equal values (e.g. a `removed = true` flag), which is what
    /// *update-once* means.
    #[inline]
    pub fn store(&self, v: V) {
        // Ordering: Release (see load). Idempotence, not ordering, is what
        // makes concurrent equal stores safe.
        self.cell.store(v.to_bits(), Ordering::Release);
    }
}

impl<V: PackedValue + std::fmt::Debug> std::fmt::Debug for UpdateOnce<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("UpdateOnce")
            .field(&V::from_bits(self.cell.load(Ordering::Acquire)))
            .finish()
    }
}

/// Bit 62 marker so a logged `UpdateOnce` word (48-bit payload) can never
/// collide with the `EMPTY` log sentinel while staying distinguishable.
/// (`EMPTY` is `u64::MAX`, i.e. *all* bits set — a marked payload has bits
/// 48..62 clear, so the two can never be confused; bit 63 is deliberately
/// left clear too.)
const UPDATE_ONCE_PRESENT: u64 = 1 << 62;

// The marker must live outside the 48-bit payload (or it would corrupt
// values) and a marked word must be distinguishable from the log's EMPTY
// sentinel (or a committed UpdateOnce load could read as "no entry").
const _: () = assert!(
    UPDATE_ONCE_PRESENT & flock_sync::VAL_MASK == 0,
    "UPDATE_ONCE_PRESENT must be outside the 48-bit payload mask"
);
const _: () = assert!(
    UPDATE_ONCE_PRESENT != crate::log::EMPTY
        && (flock_sync::VAL_MASK | UPDATE_ONCE_PRESENT) != crate::log::EMPTY,
    "a marked UpdateOnce word must never equal the EMPTY log sentinel"
);

/// Commit an arbitrary value to the current thunk log (paper: the public
/// `commitValue`). Use it to make any non-deterministic choice — a random
/// number, a timestamp — agree across all runs of a thunk.
///
/// Outside a thunk the input value is returned unchanged.
#[inline]
pub fn commit_value<V: PackedValue>(v: V) -> V {
    let (committed, _) = crate::ctx::commit_raw(v.to_bits() | UPDATE_ONCE_PRESENT);
    V::from_bits(committed & !UPDATE_ONCE_PRESENT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_top_level() {
        let m = Mutable::new(5u32);
        assert_eq!(m.load(), 5);
        m.store(7);
        assert_eq!(m.load(), 7);
    }

    #[test]
    fn store_bumps_tag() {
        let m = Mutable::new(false);
        let t0 = unpack_tag(m.raw_packed());
        m.store(true);
        let t1 = unpack_tag(m.raw_packed());
        assert_eq!(t1, next_tag(t0));
        assert!(m.load());
    }

    #[test]
    fn cam_only_fires_on_match() {
        let m = Mutable::new(10u32);
        m.cam(11, 99);
        assert_eq!(m.load(), 10, "mismatched cam must be a no-op");
        m.cam(10, 99);
        assert_eq!(m.load(), 99);
    }

    #[test]
    fn pointer_mutable() {
        let a = Box::into_raw(Box::new(1u64));
        let b = Box::into_raw(Box::new(2u64));
        let m: Mutable<*mut u64> = Mutable::new(a);
        m.cam(a, b);
        assert_eq!(m.load(), b);
        // SAFETY: both allocated above, freed once.
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn update_once_roundtrip() {
        let u = UpdateOnce::new(false);
        assert!(!u.load());
        u.store(true);
        assert!(u.load());
    }

    #[test]
    fn commit_value_top_level_identity() {
        assert_eq!(commit_value(1234u32), 1234);
        assert!(!commit_value(false));
        assert_eq!(commit_value(0u32), 0, "zero must survive the marker bit");
    }

    #[test]
    fn marker_bit_is_outside_payload_and_not_empty() {
        // Runtime mirror of the compile-time asserts, for visibility.
        assert_eq!(UPDATE_ONCE_PRESENT, 1 << 62);
        assert_eq!(UPDATE_ONCE_PRESENT & flock_sync::VAL_MASK, 0);
        assert_ne!(
            flock_sync::VAL_MASK | UPDATE_ONCE_PRESENT,
            crate::log::EMPTY
        );
    }

    #[test]
    fn tag_survives_many_stores() {
        let m = Mutable::new(0u32);
        for i in 1..100u32 {
            m.store(i);
            assert_eq!(m.load(), i);
        }
        // One tag bump per store. Compute the expectation through the same
        // wrap function instead of hardcoding 99: the `model` feature (on
        // whenever flock-model is in the build graph, e.g. workspace-wide
        // test runs) shrinks the compile-time tag space far below 99.
        let mut expect = 0u16;
        for _ in 1..100 {
            expect = flock_sync::pack::next_tag(expect);
        }
        assert_eq!(unpack_tag(m.raw_packed()), expect);
    }

    /// Fat values through the indirect repr: load/store/cam round-trips.
    #[test]
    fn indirect_mutable_roundtrip() {
        use flock_epoch::Indirect;
        let m: Mutable<Indirect<[u64; 4]>> = Mutable::new(Indirect([1, 2, 3, 4]));
        let _g = flock_epoch::pin();
        assert_eq!(m.load(), Indirect([1, 2, 3, 4]));
        m.store(Indirect([5, 6, 7, 8]));
        assert_eq!(m.load(), Indirect([5, 6, 7, 8]));
        // Mismatched cam: distinct allocation, equal value NOT stored.
        m.cam(Indirect([0, 0, 0, 0]), Indirect([9, 9, 9, 9]));
        assert_eq!(m.load(), Indirect([5, 6, 7, 8]));
        // Matching cam compares by value across distinct allocations.
        m.cam(Indirect([5, 6, 7, 8]), Indirect([9, 9, 9, 9]));
        assert_eq!(m.load(), Indirect([9, 9, 9, 9]));
    }

    /// Every indirect encoding a `Mutable` ever held is dropped exactly
    /// once: overwritten ones via the epoch collector, the final one at
    /// cell drop. Runs under miri (no thread spawns; the flush deadline
    /// reads the clock, which the miri job allows).
    #[test]
    fn indirect_store_drops_each_encoding_exactly_once() {
        use flock_epoch::Indirect;
        use std::sync::Arc;
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

        #[derive(Clone, Debug)]
        struct Counted(u64, Arc<AtomicUsize>);
        impl PartialEq for Counted {
            fn eq(&self, other: &Self) -> bool {
                self.0 == other.0
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                self.1.fetch_add(1, Relaxed);
            }
        }

        let drops = Arc::new(AtomicUsize::new(0));
        let mk = |i: u64| Indirect(Counted(i, Arc::clone(&drops)));
        const N: u64 = 20;
        {
            let m = Mutable::new(mk(0));
            let _g = flock_epoch::pin();
            for i in 1..N {
                m.store(mk(i));
                assert_eq!(m.load().0.0, i);
            }
        } // cell dropped here: frees the final encoding
        // Created: N stored encodings + N-1 temporaries consumed by encode
        // (moved into the box, not dropped) + per-load clones. Rather than
        // count clones, assert the *live* balance: everything created was
        // dropped.
        // Each `mk` creates one Counted that ends up boxed; each load
        // clones one that drops at statement end. Boxed: N; loads: N-1.
        let want = (N + N - 1) as usize;
        // `flush_all` returns early while a sibling test's pin holds the
        // epoch back, so flush until every drop is in, up to a deadline. A
        // double drop overshoots `want` and still fails the exact check.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            flock_epoch::flush_all();
            if drops.load(Relaxed) >= want || std::time::Instant::now() > deadline {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(drops.load(Relaxed), want);
    }

    /// Indirect stores inside lock-free thunks: the allocate/commit/retire
    /// triple stays exactly-once under contention and helping.
    #[test]
    #[cfg_attr(miri, ignore)] // multi-thread contention stress, slow under miri
    fn indirect_store_exactly_once_under_helping() {
        use flock_epoch::Indirect;
        use std::sync::Arc;
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

        let _guard = crate::lock::TEST_MODE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::set_lock_mode(crate::LockMode::LockFree);

        static LIVE: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Tracked(u64);
        impl Tracked {
            fn new(v: u64) -> Self {
                LIVE.fetch_add(1, Relaxed);
                Tracked(v)
            }
        }
        impl Clone for Tracked {
            fn clone(&self) -> Self {
                Tracked::new(self.0)
            }
        }
        impl PartialEq for Tracked {
            fn eq(&self, other: &Self) -> bool {
                self.0 == other.0
            }
        }
        impl Drop for Tracked {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Relaxed);
            }
        }

        let before = LIVE.load(Relaxed);
        {
            let lock = Arc::new(crate::Lock::new());
            let cell: Arc<Mutable<Indirect<Tracked>>> =
                Arc::new(Mutable::new(Indirect(Tracked::new(0))));
            // Plain spawn + join (NOT thread::scope): a scope returns when
            // the spawned closures finish, but the threads' TLS destructors
            // — which orphan their epoch retire bags — may still be
            // running, so a flush right after a scope can miss items. An
            // explicit join waits for full thread termination.
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let lock = Arc::clone(&lock);
                    let cell = Arc::clone(&cell);
                    std::thread::spawn(move || {
                        let mut done = 0;
                        while done < 150 {
                            let c = Arc::clone(&cell);
                            let v = t * 1_000 + done;
                            if lock
                                .try_lock(move || {
                                    let cur = c.load();
                                    c.store(Indirect(Tracked::new(cur.0.0 + v)));
                                })
                                .is_some()
                            {
                                done += 1;
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        } // cell dropped: final encoding freed
        flock_epoch::flush_all();
        assert_eq!(
            LIVE.load(Relaxed),
            before,
            "an indirect encoding leaked or double-dropped under helping"
        );
    }

    /// A tag choice is committed only when it is a choice: an in-thunk
    /// store logs its load and nothing else while the new tag stays inside
    /// its window, and one entry more when it enters one — a branch every
    /// runner takes off the word that load committed.
    #[test]
    #[cfg(not(feature = "model"))] // pins the production window width
    fn in_thunk_store_commits_its_tag_only_on_window_entry() {
        use flock_sync::pack::TAG_WINDOW;
        use std::sync::Arc;

        let _guard = crate::lock::TEST_MODE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::set_lock_mode(crate::LockMode::LockFree);

        let lock = crate::Lock::new();
        let m = Arc::new(Mutable::new(0u32));
        // The n-th store of a fresh cell issues tag n.
        for n in 1..=2 * TAG_WINDOW as u32 + 1 {
            let m2 = Arc::clone(&m);
            let commits = lock.try_lock(move || {
                let before = thread_ctx::with(|tc| tc.log_pos.get());
                m2.store(n);
                thread_ctx::with(|tc| tc.log_pos.get()) - before
            });
            let expected = if n % TAG_WINDOW as u32 == 0 { 2 } else { 1 };
            assert_eq!(commits, Some(expected), "store {n}");
            assert_eq!(unpack_tag(m.raw_packed()) as u32, n);
        }
    }

    /// The announcement table end to end: while another thread holds
    /// `(cell, t)` announced, a full lap of in-thunk stores never brings the
    /// cell's tag into `t`'s window; once cleared, the next lap enters it.
    #[test]
    #[cfg_attr(miri, ignore)] // two laps of 2^16 stores, too slow under miri
    fn wrap_skips_window_of_standing_announcement() {
        use flock_sync::pack::{TAG_LIMIT, TAG_WINDOW};
        use std::sync::Arc;
        use std::sync::mpsc::channel;

        let _guard = crate::lock::TEST_MODE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::set_lock_mode(crate::LockMode::LockFree);

        let lock = crate::Lock::new();
        let m = Arc::new(Mutable::new(0u32));
        let held = TAG_WINDOW + TAG_WINDOW / 2; // mid-window 1
        let addr = m.addr();
        let (announced, wait_announced) = channel();
        let (clear, wait_clear) = channel();
        let holder = std::thread::spawn(move || {
            let me = flock_sync::tid::current();
            announce::global().announce(me, addr, held);
            announced.send(()).unwrap();
            wait_clear.recv().unwrap();
            announce::global().clear(me);
        });
        wait_announced.recv().unwrap();

        // One single-store critical section; the window the tag landed in.
        let store = |i: u32| {
            let m2 = Arc::clone(&m);
            assert!(lock.try_lock(move || m2.store(i)).is_some());
            unpack_tag(m.raw_packed()) / TAG_WINDOW
        };
        let lap = TAG_LIMIT as u32 + 5_000;
        for i in 0..lap {
            assert_ne!(
                store(i),
                held / TAG_WINDOW,
                "store {i} entered the window of a standing announcement"
            );
        }
        clear.send(()).unwrap();
        holder.join().unwrap();
        assert!(
            (0..lap).any(|i| store(i) == held / TAG_WINDOW),
            "a cleared window is entered again on the next lap"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 2^16 stores, too slow under miri
    fn tag_wraps_cleanly() {
        let m = Mutable::new(0u32);
        // Drive the tag space all the way around (2^16 - 1 usable tags).
        for i in 0..(flock_sync::pack::TAG_LIMIT as u32 + 10) {
            m.store(i);
        }
        assert_eq!(m.load(), flock_sync::pack::TAG_LIMIT as u32 + 9);
    }
}
