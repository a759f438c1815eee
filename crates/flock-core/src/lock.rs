//! Lock-free locks (paper §4, Algorithm 3) plus the blocking mode.
//!
//! A [`Lock`] is a single `Mutable` word holding a descriptor pointer and a
//! locked bit. Every lock-free acquisition repeats one **attempt**, the
//! loop body of [`Lock::acquire_lock_free`]:
//!
//! 1. Load the lock word (idempotently — this nests). At top level, if it
//!    is held, first wait a bounded number of pauses for the holder to
//!    release ("Waiting for a running holder" below), and go on from a
//!    fresh read if it did.
//! 2. If it is held: help the installed descriptor, then report busy. If it
//!    is unlocked but obsolete, report that ("Obsolete locks" below).
//! 3. If it is free: make the call's descriptor for the thunk, unless an
//!    earlier attempt of the call made it, CAS it in from the word just
//!    read, and re-load ([`Lock::install`], the step a lock set's further
//!    words take too). If we got in (or got helped to completion),
//!    run-and-unlock ourselves — the release is a CAS from that re-load,
//!    and nothing at all if a helper already released — and return the
//!    thunk's result. Otherwise help whoever is there and report busy.
//!
//! `try_lock` and `try_lock_set` make one attempt. The strict `lock`
//! repeats it, backing off between attempts, until it runs or finds the
//! word obsolete. One descriptor and one holder-wait budget serve every
//! attempt of a call, and a descriptor that was made but never ran is
//! disposed of once, when the call returns.
//!
//! Helping wraps `run` in the *observe-generation → mark → adopt →
//! revalidate → run → unlock* protocol: mark the descriptor helped, adopt
//! its epoch, re-read the lock word **and the descriptor's generation
//! counter** (all committed reads), and only run — and only issue the
//! unlock CAM — while both still match the observation. The generation
//! counter is what makes the full-packed-word comparison exact even across
//! a `TAG_LIMIT`-install tag wraparound of one lock word (see
//! [`Lock::help`]); committed reads keep replayers of an enclosing thunk
//! on identical log positions regardless of which branch they take (the
//! owner/helper hand-off itself: `descriptor`'s module docs, "Lifecycle and
//! hand-off").
//!
//! In blocking mode the same lock word acts as a test-and-test-and-set bit
//! (with the descriptor pointer left null), no descriptor is created, and
//! nothing is logged — the paper's runtime-switchable blocking mode. Both
//! blocking forms share one take ([`Lock::acquire_blocking`]): `try_lock`
//! makes it once, and `lock` repeats it, snoozing while the word is held.
//!
//! ## One descriptor on a lock set
//!
//! [`Lock::try_lock_set`] takes up to three locks whose later acquisitions
//! are always the whole tail of the first critical section — a transfer
//! between two [`Locked`](crate::Locked) cells, a tree splice under
//! grandparent and parent, a split under three ancestors — so it does not
//! pay for a nested descriptor per extra lock: its descriptor `d` is
//! installed on the first word exactly as `try_lock` installs one, and
//! `d`'s thunk takes each further word in order
//! ([`Lock::try_lock_for_running`]): it reads the word (committed). A word
//! that shows `d` is taken already; otherwise the thunk installs `d` there
//! with the ordinary announced in-thunk CAS and re-reads it (committed).
//! Then it either goes on to the next word — after the last, runs the
//! caller's closure inline in `d`'s own log — or, another descriptor holds
//! the word, helps that one and reports busy. Every runner reaches the same
//! verdict from the same committed reads.
//!
//! **The owner takes the further words first.** Most sets are never
//! helped, and then the thunk's install of a further word pays for helpers
//! that never come: an announcement, a done-check and two log entries. So
//! once a top-level owner's install on the first word has taken, it
//! installs `d` on each further word in order, with the same top-level,
//! tag-issuing [`Lock::install`] the first word uses, and stops at the
//! first word that is not free. Its run then finds those words showing `d`
//! and goes straight on: an uncontended two-lock set commits one entry on
//! its lock path, its read of the second word, and no tag choice. The
//! owner's install races only runners of `d` itself (a helper that came
//! through the first word, whose committed read of the further word showed
//! it free, installs `d` there too, and one of the two CASes from that free
//! word takes it) and other acquirers, whom it meets as any acquisition
//! does. A nested set's owner is itself a runner of an enclosing thunk, so
//! only its thunk takes its further words.
//!
//! **The late install.** An owner stalled between its two installs may
//! find, when it resumes, that helpers already finished `d` through the
//! first word, and a contender on a further word then helped the done `d`
//! there and released it. Its install on that free word then takes, and
//! `d` — done — holds a word that no run of its thunk will release. The
//! owner's release below frees it: it releases every further word that
//! shows `d`, before its `helped` read. Until then a contender on that word
//! helps the done `d`, which only marks it helped and releases the word.
//!
//! **Release order.** The owner releases nothing before `set_done`, on all
//! three arms of [`Lock::run_and_unlock_self`] (normal, tainted, panic):
//! first the extra words in reverse order — each read with
//! `load_packed_in`, released through the tag issuer iff it shows
//! `locked_with(d)`, which while `d` is undisposed is `d`'s own current
//! incarnation (a word the thunk never reached shows something else and is
//! left alone) — then the first word from its committed post-install read
//! (or from a read after the run, if the run marked a word: "Obsolete
//! locks" below), and only then does it read `helped`. Releasing every extra word only
//! after `done` keeps the window-entry argument of `flock_sync::announce`
//! as it is for every lock: a later holder of such a lock, whose
//! window-entry scan might miss a stale runner's announcement, can only
//! begin after `d` was done, so that runner's done-check skips its CAS.
//! And every release precedes the `helped` read, so the Dekker pair of
//! `descriptor`'s "Lifecycle and hand-off" holds for each word: a helper
//! that arrived through any one of them either marked `d` before the
//! owner's read or fails its revalidation. The order also keeps the
//! value-reuse defence of [`Lock::help`] (cf. Dice & Kogan's *Hapax
//! Locks*) as it is for one word: `d` is disposed — and its slab possibly
//! reused at the same address — only once no word of the set shows it.
//!
//! [`Lock::help`] does not know about sets: a helper finishes `d` and
//! releases the word it found `d` on. The other words are released by the
//! owner, or — when the owner is stalled after a helper finished `d`
//! through some word — by each word's next contender, which helps the done
//! `d` and so releases it. Release order, helpers and blocking mode are the
//! same whether the owner or the thunk took a further word.
//!
//! ## Waiting for a running holder
//!
//! Helping is worth its cost only when the holder is not making progress.
//! A replay reads the holder's log and lock-protected lines from another
//! core, and its `helped` mark sends the holder's descriptor to the epoch
//! collector instead of the pool. Most holders a contender meets are
//! running and about to release. So a **top-level** acquisition that finds
//! a word held first polls it for at most [`HOLDER_WAIT`] pauses
//! (`flock_sync::cpu_relax`): 32, about 0.75 µs on a 2-CPU x86 host at
//! about 23 ns a poll, or under 0.1 % of the benchmark's 1 ms
//! `stalled-holder` stall (EXPERIMENTS.md §20):
//!
//! * **Where.** One site: an attempt's first read, and for
//!   [`Lock::try_lock_set`] each further word that shows a holder before
//!   the descriptor is installed on the first word (nothing is held while
//!   it waits). One call — a `try_lock`, a set, or a `lock` however many
//!   attempts it makes — has one budget: its later attempts, once the
//!   budget is spent, help at once.
//! * **What then.** If the word moved on, the attempt goes on from a fresh
//!   read exactly as without the wait: it installs on a free word and
//!   helps at once a word held again. Only a word that stayed the same for
//!   the whole budget is helped, by the unchanged [`Lock::help`]. A
//!   further word that stayed held is left to the set's thunk, which helps
//!   it as before.
//! * **Why it stays lock-free.** The wait is a constant number of the
//!   contender's own steps. After them it does exactly what it did before,
//!   so a holder stalled for good is still helped to completion, a bounded
//!   delay later, and every acquisition still finishes in a bounded number
//!   of its own steps.
//! * **Never inside a thunk.** Every branch a runner of an enclosing thunk
//!   takes keys on committed reads. A timing-dependent skip of `help` there
//!   would leave one replayer's log positions behind another's, so nested
//!   acquisitions, a set's further words inside its thunk, and `help` never
//!   wait.
//! * **Why poll the word.** The poll reads the one line every contender
//!   reads anyway. A probe of the holder's progress — its log position,
//!   say — would pull the holder's log line away from it on every commit
//!   it makes while waited on.
//!
//! Left for later: a bound that adapts to the observed helped rate, and a
//! hot-lock tail workload to judge one by.
//!
//! ## Obsolete locks
//!
//! A lock-based structure needs to know whether a node it locked is still
//! linked. The lock word answers that itself: bit 1 (free, like the locked
//! bit, because descriptors are 8-byte aligned) is the **obsolete** bit,
//! and one compare of the word rejects both a changed node and an unlinked
//! one (the packing of the ART exemplar in SNIPPETS.md).
//!
//! * **Where the mark happens.** The critical section that unlinks a node
//!   calls [`Lock::mark_obsolete`] on that node's lock, which it holds, at
//!   the point where it unlinks it. The mark is an in-thunk CAS of the
//!   word from a committed read to the same word with the bit set: every
//!   runner CASes from the same read, so the bit is set once however many
//!   helpers run the thunk. It is made inside the thunk, not at release,
//!   because the lists' wait-free `get`/`contains` linearize a remove on
//!   the mark itself: a mark at release would move that point past the
//!   splice.
//! * **The bit stays set.** Every release — the owner's, a lock set's
//!   extra words, a helper's, the blocking one — installs the unlocked
//!   form of the word it releases, which keeps the bit.
//! * **No acquisition installs on an obsolete word.** An install takes a
//!   word only when it is unlocked and not obsolete: [`Lock::try_lock`]
//!   and [`Lock::try_lock_set`] report `None` for an obsolete lock, and
//!   [`Lock::lock`] returns `None` for one instead of waiting. So holding
//!   a lock proves its node is linked, and [`Lock::version`] refuses an
//!   obsolete word, so an optimistic read on an unlinked node never
//!   validates.
//! * **Releasing a marked word.** The mark bumps the word's tag, so a read
//!   taken before the run no longer matches the word. A word the run
//!   marked is released from a committed read taken after the run, and
//!   only if that read shows the descriptor — the way a lock set's extra
//!   words are always released. The owner knows whether its run marked
//!   (`ThreadCtx::marked`, scoped per run like the log cursor) and
//!   re-reads the first word only then; a helper always releases from a
//!   read after its run, since its unlock had to re-read the word anyway.
//!
//! ## Panic safety
//!
//! A critical section that panics must never poison the lock word, the
//! descriptor pool, or the epoch state. The contract (regression-tested
//! here and in `flock-chaos`; methodology in EXPERIMENTS.md §8):
//!
//! * **Blocking mode:** the TTAS bit is released on unwind (a drop guard in
//!   [`Lock::blocking_run`], one per bit a lock set holds) and the
//!   panic propagates to the caller.
//!   Pre-contract, a panic here left the word locked forever.
//! * **Lock-free mode:** every run site (owner in
//!   [`Lock::run_and_unlock_self`], helper in [`Lock::help`]) catches the
//!   unwind, marks the descriptor `panicked` **then** `done`, releases the
//!   lock (the owner of a lock set every word, in the order above), and
//!   disposes/skips exactly as after a completed run. The owner
//!   then resumes the panic; a helper swallows it (the panic belongs to the
//!   victim's critical section — the victim's owner reports it). A sticky
//!   `panicked` flag keeps any later runner from **replaying** a log that
//!   ends at a panic point: a non-panicking replay would otherwise keep
//!   executing — and applying effects — past the point where the lock was
//!   released. Owners that find the flag set report the panic instead of
//!   replaying (like a poisoned `std::sync::Mutex`, the flag is
//!   conservative: a racing helper may have completed the thunk).
//! * If the *panic-handling sequence itself* unwinds, no safe state can be
//!   re-established and the process aborts with a diagnostic (an
//!   [`AbortGuard`] armed around each handler) — never a silently hung or
//!   half-released lock.

use std::sync::atomic::Ordering;

use flock_sync::pack::{PackedValue, next_tag, pack, unpack_tag, unpack_val};
use flock_sync::{Backoff, ThreadCtx, thread_ctx};

use crate::config::lock_mode;
use crate::ctx;
use crate::descriptor::{self, Descriptor};
use crate::idemp;

/// Which implementation [`Lock`] operations use, switchable at runtime via
/// [`crate::config::set_lock_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Descriptor-based lock-free locks with helping and logging.
    LockFree,
    /// Plain test-and-test-and-set spinning; no helping, no logging.
    Blocking,
}

/// An opaque observation of a [`Lock`]'s **version**: the full packed lock
/// word (ABA tag + descriptor bits), captured only while the lock was
/// unlocked. Two observations are equal iff the word was byte-identical
/// both times. See [`Lock::version`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LockVersion(u64);

/// How many optimistic attempts [`read_validated`] (and the structure read
/// paths built on it) make before falling back to the committed read path.
/// Bounded so a reader racing a write-heavy lock cannot livelock: after
/// this many failed validations the cost of the committed path is paid
/// once and the read always completes.
pub const OPTIMISTIC_READ_ATTEMPTS: usize = 3;

/// Run an optimistic, version-validated read with a bounded fallback.
///
/// `optimistic` performs the read with plain `Acquire` loads (e.g.
/// [`Mutable::load_acquire`](crate::Mutable::load_acquire)) bracketed
/// by [`Lock::version`] / [`Lock::validate`] on whichever lock owns the
/// data, returning `Some(r)` when validation passed and `None` when it
/// failed (lock busy, or a critical section committed mid-read). After
/// [`OPTIMISTIC_READ_ATTEMPTS`] failures — or immediately when called
/// inside a thunk, where uncommitted loads would desynchronize helper
/// replays — `fallback` (the committed read path) produces the result.
#[inline]
pub fn read_validated<R>(
    mut optimistic: impl FnMut() -> Option<R>,
    fallback: impl FnOnce() -> R,
) -> R {
    if crate::in_thunk() {
        // In-thunk reads must stay on the logged/committed path: every run
        // of a helped thunk has to observe identical values, and the
        // optimistic closure's raw loads are not committed to the log.
        return fallback();
    }
    for _ in 0..OPTIMISTIC_READ_ATTEMPTS {
        if let Some(r) = optimistic() {
            return r;
        }
        std::hint::spin_loop();
    }
    fallback()
}

/// Aborts the process if dropped during an unwind. Armed (and disarmed with
/// `mem::forget` on success) around the panic-handling sequences that
/// restore protocol safety: if *they* panic, no safe state can be
/// re-established, and the contract's fallback is a loud abort rather than
/// a silently poisoned lock.
struct AbortGuard(&'static str);

impl Drop for AbortGuard {
    fn drop(&mut self) {
        eprintln!(
            "flock: fatal: {} unwound while restoring protocol safety after a \
             critical-section panic; aborting",
            self.0
        );
        std::process::abort();
    }
}

/// The most pauses a top-level acquisition polls a held lock word for
/// before it helps the holder (module docs, "Waiting for a running
/// holder"). One under `model`, which shrinks the protocol's constants to
/// keep the schedule space small (as it does `TAG_WINDOW`): one poll
/// already has both outcomes of a wait, the word moved on or stayed.
#[cfg(not(feature = "model"))]
const HOLDER_WAIT: u32 = 32;
#[cfg(feature = "model")]
const HOLDER_WAIT: u32 = 1;

/// What the calling thread's holder waits have done: waits begun, polls
/// made, and waits that ended on a word that moved on.
#[cfg(any(test, feature = "model"))]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HolderWaits {
    /// Waits begun.
    pub waits: u32,
    /// Polls of a held word.
    pub polls: u32,
    /// Waits that ended because the word changed.
    pub moved: u32,
}

#[cfg(any(test, feature = "model"))]
thread_local! {
    static HOLDER_WAITS: std::cell::Cell<HolderWaits> =
        const { std::cell::Cell::new(HolderWaits { waits: 0, polls: 0, moved: 0 }) };
}

#[cfg(any(test, feature = "model"))]
fn count_wait(f: impl FnOnce(&mut HolderWaits)) {
    let mut w = HOLDER_WAITS.get();
    f(&mut w);
    HOLDER_WAITS.set(w);
}

#[cfg(test)]
thread_local! {
    /// Run before each poll of a holder wait: tests release a parked
    /// holder from here, at a known point of the wait.
    static BEFORE_POLL: std::cell::RefCell<Option<Box<dyn FnMut()>>> =
        const { std::cell::RefCell::new(None) };
}

/// Can an acquisition install on `w`? Only on a free word: unlocked and not
/// obsolete.
#[inline(always)]
fn installable(w: LockWord) -> bool {
    // Sanity-mutant hook: the pre-obsolete test, which takes any unlocked
    // word.
    #[cfg(feature = "model")]
    if crate::mutants::install_ignores_obsolete() {
        return !w.is_locked();
    }
    w.is_free()
}

/// Does a lock set thunk's committed read `w` of a further word show the
/// running descriptor `d` there already (module docs, "One descriptor on a
/// lock set")?
#[inline(always)]
fn taken_by(w: LockWord, d: *const Descriptor) -> bool {
    // Sanity-mutant hook: any locked word passes, whoever holds it.
    #[cfg(feature = "model")]
    if crate::mutants::set_takes_any_locked_word() {
        return w.is_locked();
    }
    w.holds(d)
}

/// The further locks of a [`Lock::try_lock_set`], as its thunk holds them.
struct LockSet<const N: usize>([*const Lock; N]);

// SAFETY: `Lock` is `Sync`; `try_lock_set`'s contract keeps the pointees
// live for every runner, on whichever thread it runs.
unsafe impl<const N: usize> Send for LockSet<N> {}
unsafe impl<const N: usize> Sync for LockSet<N> {}

impl<const N: usize> LockSet<N> {
    /// Take every lock of the set in order for the running critical
    /// section and run `body` under them; `None` when one was busy.
    ///
    /// # Safety
    ///
    /// Every pointer in the set is live.
    #[inline(always)]
    unsafe fn run<R>(&self, body: &impl Fn() -> R) -> Option<R> {
        // SAFETY: forwarded contract.
        let lock = |i: usize| unsafe { &*self.0[i] };
        match N {
            0 => Some(body()),
            1 => lock(0).try_lock_for_running(body),
            _ => lock(0)
                .try_lock_for_running(|| lock(1).try_lock_for_running(body))
                .flatten(),
        }
    }
}

/// The lock word: a descriptor pointer with the low bit as the locked flag
/// and bit 1 as the obsolete flag (descriptors are at least 8-byte
/// aligned, so both bits are free). Module docs, "Obsolete locks".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct LockWord {
    bits: u64,
}

const LOCKED_BIT: u64 = 1;
const OBSOLETE_BIT: u64 = 2;

impl LockWord {
    pub(crate) const UNLOCKED_EMPTY: LockWord = LockWord { bits: 0 };
    /// Locked with a null descriptor: the blocking mode's TTAS hold.
    const LOCKED_NULL: LockWord = LockWord { bits: LOCKED_BIT };

    /// Locked on descriptor `d`.
    pub(crate) fn locked_with(d: *const Descriptor) -> Self {
        debug_assert_eq!(d as u64 & (LOCKED_BIT | OBSOLETE_BIT), 0);
        LockWord {
            bits: d as u64 | LOCKED_BIT,
        }
    }

    pub(crate) fn is_locked(self) -> bool {
        self.bits & LOCKED_BIT != 0
    }

    fn is_obsolete(self) -> bool {
        self.bits & OBSOLETE_BIT != 0
    }

    /// Unlocked and not obsolete: the only word an acquisition installs on.
    fn is_free(self) -> bool {
        self.bits == 0
    }

    /// Locked on descriptor `d`, obsolete or not.
    fn holds(self, d: *const Descriptor) -> bool {
        self.bits & !OBSOLETE_BIT == LockWord::locked_with(d).bits
    }

    /// This word with the obsolete bit set.
    fn obsolete(self) -> LockWord {
        LockWord {
            bits: self.bits | OBSOLETE_BIT,
        }
    }

    /// This word's unlocked form (descriptor dropped, obsolete bit kept) —
    /// what every release installs.
    pub(crate) fn unlocked(self) -> LockWord {
        LockWord {
            bits: self.bits & OBSOLETE_BIT,
        }
    }

    pub(crate) fn descriptor(self) -> *const Descriptor {
        (self.bits & !(LOCKED_BIT | OBSOLETE_BIT)) as usize as *const Descriptor
    }
}

// SAFETY: bits is a pointer (≤48 bits on supported platforms, debug-checked
// by the pointer PackedValue impls) plus two flag bits; round-trips exactly.
unsafe impl PackedValue for LockWord {
    #[inline(always)]
    fn to_bits(self) -> u64 {
        debug_assert!(self.bits <= flock_sync::VAL_MASK);
        self.bits
    }
    #[inline(always)]
    fn from_bits(bits: u64) -> Self {
        LockWord { bits }
    }
}

// SAFETY: inline strategy over the PackedValue impl above; the referenced
// descriptor is owned by the lock protocol, not the slot, so the
// reclamation hooks are no-ops (as for plain pointers).
unsafe impl flock_sync::ValueRepr for LockWord {
    const INDIRECT: bool = false;
    #[inline(always)]
    fn encode(v: Self) -> u64 {
        v.to_bits()
    }
    #[inline(always)]
    unsafe fn decode(bits: u64) -> Self {
        LockWord::from_bits(bits)
    }
    #[inline(always)]
    unsafe fn retire_bits(_bits: u64) {}
    #[inline(always)]
    unsafe fn dealloc_bits(_bits: u64) {}
}

/// A Flock lock.
///
/// One word; create with [`Lock::new`] and protect critical sections with
/// [`Lock::try_lock`] (preferred for optimistic fine-grained locking) or
/// [`Lock::lock`] (a strict lock that waits). Critical sections are *thunks*:
/// `Fn() -> R` closures capturing their environment by value. The result
/// type `R` is yours to choose — a validation `bool`, a looked-up value, or
/// `()` — and `try_lock` wraps it in an `Option` so "the lock was busy"
/// (`None`) is never conflated with whatever the thunk returned.
pub struct Lock {
    word: crate::mutable::Mutable<LockWord>,
}

impl Default for Lock {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Lock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lock")
            .field("locked", &self.is_locked())
            .finish()
    }
}

impl Lock {
    /// A new, unlocked lock.
    pub fn new() -> Self {
        Self {
            word: crate::mutable::Mutable::new(LockWord::UNLOCKED_EMPTY),
        }
    }

    /// Is the lock currently held? (Racy observation, for diagnostics.)
    pub fn is_locked(&self) -> bool {
        LockWord::from_bits(unpack_val(self.word.raw_packed())).is_locked()
    }

    /// Has a critical section marked this lock obsolete
    /// ([`Lock::mark_obsolete`])? The bit never clears, so `true` is
    /// definitive. A committed read: inside a thunk every runner sees the
    /// same answer.
    pub fn is_obsolete(&self) -> bool {
        thread_ctx::with(|tc| {
            LockWord::from_bits(unpack_val(self.word.load_packed_in(tc))).is_obsolete()
        })
    }

    /// Mark this lock obsolete: its node is being unlinked. Call it only
    /// inside a critical section that holds this lock, at the point where
    /// the node is unlinked (module docs, "Obsolete locks"). The bit is set
    /// once however many runners replay the call and stays set through
    /// every release; from then on no acquisition takes the lock and
    /// [`Lock::version`] refuses it.
    pub fn mark_obsolete(&self) {
        thread_ctx::with(|tc| {
            if !tc.in_thunk() {
                // Blocking mode: the holder is the only writer of its word.
                let w = self.word.raw_packed();
                let cur = LockWord::from_bits(unpack_val(w));
                debug_assert!(cur.is_locked() && cur.descriptor().is_null());
                self.blocking_cas(w, cur.obsolete());
                return;
            }
            let w = self.word.load_packed_in(tc);
            let cur = LockWord::from_bits(unpack_val(w));
            debug_assert!(
                cur.holds(tc.descriptor.get().cast()),
                "mark_obsolete outside a critical section holding the lock"
            );
            if !cur.is_obsolete() {
                self.word.tagged_cas_after_load_in(tc, w, cur.obsolete());
            }
            tc.marked.set(true);
        })
    }

    /// Observe the lock's current **version** for optimistic validation:
    /// the full packed lock word (tag + descriptor bits), returned only
    /// while the lock is *unlocked* and *not obsolete* — `None` means a
    /// critical section is (or may be) in flight, or the lock's node was
    /// unlinked, and an optimistic read cannot start.
    ///
    /// The version doubles as a seqlock sequence number "for free": every
    /// acquisition CAS and every release CAM bumps the word's ABA tag, in
    /// both lock modes, so an unlocked word observed unchanged across a
    /// read window (see [`Lock::validate`]) proves **no critical section on
    /// this lock completed during the window** — every field the lock
    /// protects was stable. The residual is an exact
    /// [`TAG_LIMIT`](flock_sync::pack::TAG_LIMIT)-acquisition wraparound of
    /// this one word inside a single read (≥ 2¹⁵ acquire/release pairs
    /// between two adjacent loads of one reader), which the descriptor bits
    /// in the comparison narrow further; the committed fallback path of
    /// [`read_validated`] is the designed recovery for validation noise,
    /// and EXPERIMENTS.md §9 quantifies the window.
    #[inline]
    pub fn version(&self) -> Option<LockVersion> {
        let w = self.word.raw_packed();
        if !LockWord::from_bits(unpack_val(w)).is_free() {
            None
        } else {
            Some(LockVersion(w))
        }
    }

    /// Validate an optimistic read window opened by [`Lock::version`]:
    /// `true` iff the lock word is byte-identical to the observation, and
    /// hence still unlocked and not obsolete (a mark always changes the
    /// word, and no release clears it). Issues the `Acquire` fence that
    /// orders the caller's preceding data loads before the validating
    /// re-read — the seqlock discipline: version → data reads → fence →
    /// re-read.
    #[inline]
    pub fn validate(&self, observed: LockVersion) -> bool {
        std::sync::atomic::fence(Ordering::Acquire);
        self.word.raw_packed() == observed.0
    }

    /// Lock-scoped [`read_validated`]: run `optimistic` bracketed by this
    /// lock's [`version`](Lock::version)/[`validate`](Lock::validate), with
    /// the usual bounded fallback. For reads whose data is owned by a
    /// *single, known* lock (a hash bucket, a [`Locked`](crate::Locked)
    /// cell); traversals that discover the owning lock mid-read use the
    /// free-function form directly.
    #[inline]
    pub fn read_validated<R>(&self, optimistic: impl Fn() -> R, fallback: impl FnOnce() -> R) -> R {
        read_validated(
            || {
                let v = self.version()?;
                let r = optimistic();
                self.validate(v).then_some(r)
            },
            fallback,
        )
    }

    /// Attempt to acquire the lock and run `thunk` under it.
    ///
    /// Returns `Some(r)` with the thunk's result `r` if the lock was
    /// acquired, and `None` if the lock was busy (after helping the current
    /// holder in lock-free mode) or obsolete — so "lock busy, back off" is
    /// distinguishable from whatever the thunk itself computed (e.g. a
    /// validation failure).
    /// Thunks capture by value (`move`) and may nest `try_lock` calls on
    /// locks that are smaller in the locking order.
    ///
    /// `R: Send` because in lock-free mode helper threads replay the thunk
    /// and drop their locally computed copy of the result.
    pub fn try_lock<R, F>(&self, thunk: F) -> Option<R>
    where
        R: Send + 'static,
        F: Fn() -> R + Send + Sync + 'static,
    {
        match lock_mode() {
            LockMode::Blocking => self.acquire_blocking::<false, _, _>(thunk),
            LockMode::LockFree => self.acquire_lock_free::<false, _, _>(thunk, &[]),
        }
    }

    /// [`Lock::try_lock`] over a **lock set**: this lock and then each lock
    /// of `rest` in order, with `thunk` run once all of them are held.
    /// Returns `None` when any of them was busy (after helping its holder
    /// in lock-free mode) or obsolete, `Some(r)` once `thunk` ran under
    /// every lock.
    ///
    /// In lock-free mode one descriptor holds every word: it is installed
    /// on this lock as [`Lock::try_lock`] installs one. A top-level owner
    /// whose install took then installs it on the locks of `rest` in order,
    /// stopping at the first that is not free; its thunk takes the ones
    /// left in order and runs `thunk` inline in the same log. The owner
    /// releases the words of `rest` in reverse order and then this one, all
    /// after the descriptor is done — each word that shows the descriptor,
    /// which also frees a word the owner installed on only after helpers
    /// had finished the descriptor (module docs, "One descriptor on a lock
    /// set"). Blocking mode takes the test-and-set bits in order, each
    /// released on return and on unwind. A set nested in an outer thunk
    /// works as a nested `try_lock` does: its thunk takes every further
    /// word.
    ///
    /// The locks must be distinct and taken in the caller's global lock
    /// order, as nested `try_lock` calls would take them. A set has no
    /// waiting form: [`Lock::lock`] stays the strict acquisition.
    ///
    /// # Safety
    ///
    /// Every lock in `rest` outlives every runner of the thunk: helpers may
    /// run it after this call returned, and they reach the locks of `rest`
    /// through raw pointers. This holds for a lock in an epoch-reclaimed
    /// node while the caller is pinned (runners adopt the caller's epoch),
    /// and for a lock inside an `Arc` that `thunk` holds.
    pub unsafe fn try_lock_set<const N: usize, R, F>(&self, rest: [&Lock; N], thunk: F) -> Option<R>
    where
        R: Send + 'static,
        F: Fn() -> R + Send + Sync + 'static,
    {
        const { assert!(N <= 2, "a lock set holds at most three locks") };
        debug_assert!(
            (0..N).all(|i| !std::ptr::eq(self, rest[i])
                && (i + 1..N).all(|j| !std::ptr::eq(rest[i], rest[j]))),
            "a lock set takes distinct locks"
        );
        let words = LockSet(rest.map(|l| l as *const Lock));
        // SAFETY: the caller's contract keeps every pointer in `words` live
        // for every runner of this thunk.
        let set_thunk = move || unsafe { words.run(&thunk) };
        match lock_mode() {
            LockMode::Blocking => self.acquire_blocking::<false, _, _>(set_thunk),
            LockMode::LockFree => self.acquire_lock_free::<false, _, _>(set_thunk, &rest),
        }
        .flatten()
    }

    /// Take this lock as a further lock of the running critical section
    /// and run `body` under it, or return `None` when it is busy or
    /// obsolete. Blocking mode takes its test-and-set bit, released on
    /// return and on unwind.
    /// Lock-free mode installs the running descriptor and runs `body`
    /// inline in its log, or helps whoever holds the lock; every branch
    /// keys on committed reads, so all runners agree.
    fn try_lock_for_running<R>(&self, body: impl FnOnce() -> R) -> Option<R> {
        if lock_mode() == LockMode::Blocking {
            return self.acquire_blocking::<false, _, _>(body);
        }
        thread_ctx::with(|tc| {
            debug_assert!(tc.in_thunk());
            let d: *const Descriptor = tc.descriptor.get().cast();
            let mut cur_packed = self.word.load_packed_in(tc);
            if taken_by(LockWord::from_bits(unpack_val(cur_packed)), d) {
                // The set's owner installed `d` here before the run, or an
                // earlier runner did before this read was committed.
                return Some(body());
            }
            if installable(LockWord::from_bits(unpack_val(cur_packed))) {
                // The first committer of the re-read ran before the
                // descriptor was done, and nothing releases a word it holds
                // before then: the re-read shows `d` iff the install took.
                cur_packed = self.install(tc, cur_packed, d);
                if LockWord::from_bits(unpack_val(cur_packed)).holds(d) {
                    return Some(body());
                }
            }
            if LockWord::from_bits(unpack_val(cur_packed)).is_locked() {
                self.help(tc, cur_packed, &flock_epoch::pin_with(tc));
            }
            None
        })
    }

    /// Acquire the lock, waiting (and helping, in lock-free mode) until it is
    /// available, then run `thunk` and return `Some` of its result — the
    /// paper's *strict lock*. In lock-free mode it repeats
    /// [`Lock::try_lock`]'s attempt, backing off between attempts, with one
    /// descriptor and one holder wait for the whole call; in blocking mode
    /// it repeats the test-and-set, snoozing while the word is held.
    /// Returns `None` only for an obsolete lock (module docs, "Obsolete
    /// locks"), which never becomes available: its node was unlinked, and
    /// the caller re-reads the structure.
    pub fn lock<R, F>(&self, thunk: F) -> Option<R>
    where
        R: Send + 'static,
        F: Fn() -> R + Send + Sync + 'static,
    {
        match lock_mode() {
            LockMode::Blocking => self.acquire_blocking::<true, _, _>(thunk),
            LockMode::LockFree => self.acquire_lock_free::<true, _, _>(thunk, &[]),
        }
    }

    // ---------------------------------------------------------- lock-free

    /// A lock-free acquisition (module docs): one attempt, or, `STRICT`,
    /// one attempt after another until one runs or finds the word
    /// obsolete. `rest`: the further words of a lock set
    /// ([`Lock::try_lock_set`]), which the owner releases too.
    fn acquire_lock_free<const STRICT: bool, R, F>(&self, thunk: F, rest: &[&Lock]) -> Option<R>
    where
        R: Send + 'static,
        F: Fn() -> R + Send + Sync + 'static,
    {
        // The whole operation — pin, nested check, loads, commits, announce,
        // descriptor pop and push — works off one thread-context fetch. The
        // uncontended path's one other TLS access is the guard's drop,
        // which fetches the context again.
        thread_ctx::with(|tc| {
            let guard = flock_epoch::pin_with(tc);
            let nested = tc.in_thunk();
            // One descriptor, made on the call's first free word, and one
            // holder-wait budget, none inside a thunk, serve every attempt.
            let (mut thunk, mut d) = (Some(thunk), std::ptr::null_mut::<Descriptor>());
            let mut budget = if nested { 0 } else { HOLDER_WAIT };
            let mut backoff = Backoff::new();
            let got = loop {
                // Line 14: read the lock (idempotently when nested). The
                // full packed word (tag included) is kept: helping keys on
                // the exact incarnation of the lock word, not just its
                // value (see `help`).
                let mut cur_packed = self.word.load_packed_in(tc);
                if budget > 0 {
                    cur_packed = self.holder_wait(tc, cur_packed, rest, &mut budget);
                }
                let cur = LockWord::from_bits(unpack_val(cur_packed));
                if installable(cur) {
                    // Lines 16-18: make the descriptor, try to install it.
                    if d.is_null() {
                        let thunk = thunk.take().expect("one descriptor per call");
                        d = if nested {
                            idemp::create_descriptor_idempotent(tc, thunk, &guard)
                        } else {
                            descriptor::create_descriptor(tc, thunk, guard.epoch(), false)
                        };
                    }
                    // Line 19: did we get in?
                    let cur2_packed = self.install(tc, cur_packed, d);
                    let cur2 = LockWord::from_bits(unpack_val(cur2_packed));
                    // SAFETY: `d` is live: top-level descriptors are
                    // owner-held until disposed; nested ones are
                    // epoch-protected after commit.
                    //
                    // Ordering of the done read (Relaxed-class, see
                    // Descriptor): it is sequenced after the cur2 load. If a
                    // helper completed us and released the lock, cur2
                    // observed a word at or past the helper's release CAM,
                    // so everything sequenced before that CAM — including
                    // its set_done — is visible here. If the helper has not
                    // released yet, cur2 still holds `d` (obsolete if the
                    // helper's run marked it) and we run regardless of done.
                    let done = unsafe { (*d).is_done() };
                    if done || cur2.holds(d) {
                        if !nested && cur2.holds(d) {
                            // A top-level set's owner takes its further
                            // words now, so its thunk finds them taken.
                            Self::install_further(tc, rest, d);
                        }
                        // Line 22: run self. If we were helped to
                        // completion, this is a replay: the log makes it
                        // recompute the identical result without
                        // re-applying effects. Runs, unlocks and disposes
                        // (we are pinned; `d`'s thunk returns `R`).
                        break Some(self.run_and_unlock_self(tc, d, cur2_packed, nested, rest));
                    }
                    // Lines 23-26: someone else is (or was) in; help if
                    // locked, then fail or try again.
                    if cur2.is_locked() {
                        self.help(tc, cur2_packed, &guard);
                    }
                } else if cur.is_locked() {
                    // Line 26 of the paper (locked on first read): help,
                    // then fail or, strict, try again.
                    // Sanity-mutant hook: a nested busy branch waits too,
                    // and skips the help when the word moved on.
                    #[cfg(feature = "model")]
                    if nested
                        && crate::mutants::wait_skips_help_in_thunk()
                        && self.word.raw_packed() != cur_packed
                    {
                        break None;
                    }
                    self.help(tc, cur_packed, &guard);
                } else {
                    break None; // obsolete: no holder to help, ever
                }
                if !STRICT {
                    break None;
                }
                backoff.spin();
            };
            // Once, on exit: a descriptor the call made but never ran.
            if got.is_none() && !d.is_null() {
                self.discard_unrun(tc, d, nested);
            }
            got
        })
    }

    /// Install `d` on this word with a CAS from `cur_packed`, the committed
    /// read of a free word, and re-read the word (committed): the step a
    /// lock-free acquisition and a lock set's further word share. A CAS
    /// from the read just committed, not a CAM (which would load and commit
    /// the word a second time): the word moved on iff the CAS fails, and
    /// the re-read then shows whoever moved it.
    #[inline(always)]
    fn install(&self, tc: &ThreadCtx, cur_packed: u64, d: *const Descriptor) -> u64 {
        self.word
            .tagged_cas_after_load_in(tc, cur_packed, LockWord::locked_with(d));
        // Chaos seam: the install CAS has (possibly) published the
        // descriptor but its runner has not begun running it. A thread
        // stalled here holds the lock; helpers must complete the committed
        // descriptor without it. No-op in default builds.
        flock_sync::chaos::probe(flock_sync::chaos::Seam::LockInstalled);
        self.word.load_packed_in(tc)
    }

    /// The owner of a top-level lock set, its install on the first word
    /// taken, installs `d` on each further word of `rest` in order before
    /// the run, and stops at the first word that is not free or that the
    /// install did not take (module docs, "One descriptor on a lock set").
    /// The set's thunk takes whatever is left, as before.
    fn install_further(tc: &ThreadCtx, rest: &[&Lock], d: *const Descriptor) {
        for l in rest {
            let w = l.word.load_packed_in(tc);
            if !installable(LockWord::from_bits(unpack_val(w)))
                || !LockWord::from_bits(unpack_val(l.install(tc, w, d))).holds(d)
            {
                return;
            }
        }
    }

    /// The top-level wait of a lock-free acquisition, on the call's `budget`
    /// (module docs, "Waiting for a running holder"). `w` is this word's
    /// first read. A held word is waited for, and returned as it is for the
    /// caller to help if it stayed. Once this word reads free, each
    /// word of `rest` that shows a holder is waited for in turn. Returns
    /// the read of this word to go on from: a fresh one after any poll.
    fn holder_wait(&self, tc: &ThreadCtx, mut w: u64, rest: &[&Lock], budget: &mut u32) -> u64 {
        if LockWord::from_bits(unpack_val(w)).is_locked() && self.holder_moved(tc, w, budget) {
            w = self.word.load_packed_in(tc);
        }
        // A word that stayed held, or reads held or obsolete again, is
        // returned as it is: nothing is waited for past it.
        if installable(LockWord::from_bits(unpack_val(w))) {
            let unspent = *budget;
            for l in rest {
                let lw = l.word.raw_packed();
                if LockWord::from_bits(unpack_val(lw)).is_locked() {
                    l.holder_moved(tc, lw, budget);
                }
            }
            if *budget != unspent {
                w = self.word.load_packed_in(tc);
            }
        }
        w
    }

    /// Wait for the holder of this word (module docs, "Waiting for a
    /// running holder"): poll the word while it reads `seen`, one pause per
    /// poll, out of `budget`. `true` as soon as the word moves on; `false`
    /// once the budget is spent on an unchanged word, and at once when the
    /// budget is empty. On `false` the caller helps as it would have
    /// without the wait.
    #[inline]
    fn holder_moved(&self, tc: &ThreadCtx, seen: u64, budget: &mut u32) -> bool {
        if *budget == 0 {
            return false;
        }
        debug_assert!(
            !tc.in_thunk(),
            "a holder wait inside a thunk would desynchronize its runners"
        );
        #[cfg(any(test, feature = "model"))]
        count_wait(|c| c.waits += 1);
        while *budget > 0 {
            *budget -= 1;
            #[cfg(test)]
            BEFORE_POLL.with_borrow_mut(|f| f.as_mut().map(|f| f()));
            flock_sync::cpu_relax();
            #[cfg(any(test, feature = "model"))]
            count_wait(|c| c.polls += 1);
            if self.word.raw_packed() != seen {
                #[cfg(any(test, feature = "model"))]
                count_wait(|c| c.moved += 1);
                return true;
            }
        }
        false
    }

    /// Dispose of a descriptor whose install failed, so it never ran. Top
    /// level: it was never published, recycle it directly. Nested: its
    /// pointer is in the outer log, so it must go through the idempotent
    /// retire (which defers it inside an owner run).
    fn discard_unrun(&self, tc: &ThreadCtx, d: *mut Descriptor, nested: bool) {
        if nested {
            idemp::retire_descriptor_idempotent(tc, d);
        } else {
            // SAFETY: never published (its install CAS failed or never ran).
            unsafe { descriptor::recycle_unshared(tc, d) };
        }
    }

    /// Run our own installed (or already completed) descriptor, release the
    /// lock, and dispose of the descriptor: the paper's `runAndUnlock` for
    /// the self path, extended with the panic-safety contract (module docs).
    ///
    /// Callers guarantee `d` was created from a thunk returning `R`, that
    /// the calling thread is pinned, and that `cur2_packed` is their
    /// committed read of the lock word after the install attempt (it showed
    /// `d` installed, or `d` is done); the run writes the
    /// (replay-deterministic) result into a local slot. `rest` holds the
    /// further words of a lock set, released first (module docs, "One
    /// descriptor on a lock set").
    ///
    /// If a **previous** runner's execution of this thunk panicked
    /// (`thunk_panicked` set), the thunk is *not* replayed — its log may end
    /// at the panic point, and a replay that does not itself panic would
    /// keep executing (and applying effects) past the release of the lock.
    /// The owner finishes the abandonment (done → unlock → dispose, the
    /// same order every completion uses) and reports the panic to its
    /// caller instead.
    fn run_and_unlock_self<R: Send + 'static>(
        &self,
        tc: &ThreadCtx,
        d: *const Descriptor,
        cur2_packed: u64,
        nested: bool,
        rest: &[&Lock],
    ) -> R {
        if !nested {
            // An owner run starts here and ends in `dispose_after_run`,
            // which all three arms below reach (`descriptor`'s module docs,
            // "Lifecycle and hand-off"). A nested entry inherits the state:
            // set inside an owner run, clear inside a helped thunk.
            debug_assert!(!tc.owner_run.get() && tc.deferred.get().is_null());
            tc.owner_run.set(true);
        }
        // SAFETY: `d` live (see callers).
        if unsafe { (*d).thunk_panicked() } {
            // `set_done` before the unlock CAS keeps the protocol-wide
            // invariant that an observed unlock implies an observable
            // `done` (idempotent if the panicking runner already set it).
            // SAFETY: as above.
            unsafe { (*d).set_done() };
            // SAFETY: done; pinned (callers). The log may have marked a
            // word before its panic point: release from a fresh read.
            unsafe { self.release_and_dispose(tc, d, cur2_packed, true, nested, rest) };
            panic!("flock: critical section panicked during helped execution");
        }
        let mut out = std::mem::MaybeUninit::<R>::uninit();
        // SAFETY: `d` live (see callers); running a thunk is idempotent;
        // `out` is an uninitialized slot of the thunk's return type.
        // AssertUnwindSafe: on unwind `out` is abandoned uninitialized and
        // every shared invariant is restored by the Err arm below — that
        // safe-stating is exactly what the catch exists for.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            ctx::run_in(tc, d, out.as_mut_ptr().cast())
        }));
        match run {
            Ok(marked) => {
                // Taint re-check: a helper may have unwound (and marked the
                // descriptor) *after* the pre-check above but while our own
                // replay was running. The replay stayed safe — a partial
                // log's suppressed CASes (the `done`-announced check) make
                // past-the-log effects no-ops — but the result may reflect
                // an aborted critical section, so report the panic rather
                // than return it.
                // SAFETY: as above.
                let tainted = unsafe { (*d).thunk_panicked() };
                // SAFETY: as above.
                unsafe { (*d).set_done() };
                // SAFETY: done; pinned (callers).
                unsafe { self.release_and_dispose(tc, d, cur2_packed, marked, nested, rest) };
                // SAFETY: `ctx::run_in` returned without unwinding, so it
                // wrote `out`.
                let r = unsafe { out.assume_init() };
                if tainted {
                    drop(r);
                    panic!("flock: critical section panicked during helped execution");
                }
                r
            }
            Err(payload) => {
                // The thunk unwound. Safe-state in the contract's order —
                // panicked strictly before done (replay decisions key off
                // that), done strictly before unlock — then dispose exactly
                // as on the normal path and resume the panic in the caller.
                let abort = AbortGuard("the owner's panic handler");
                // SAFETY: as above.
                unsafe {
                    (*d).mark_panicked();
                    (*d).set_done();
                }
                // SAFETY: done; pinned (callers). The run may have marked
                // a word before it unwound: release from a fresh read.
                unsafe { self.release_and_dispose(tc, d, cur2_packed, true, nested, rest) };
                std::mem::forget(abort);
                std::panic::resume_unwind(payload)
            }
        }
    }

    /// The tail of every arm of [`Lock::run_and_unlock_self`]: release the
    /// words of `rest` in reverse order, then this lock, and only then
    /// dispose of `d` — the dispose reads `helped`, and that read must
    /// follow the release of every word `d` was published on (module docs,
    /// "One descriptor on a lock set"). `marked`: the run may have marked a
    /// word obsolete, so this lock is released from a fresh committed read
    /// instead of `cur2_packed` (module docs, "Obsolete locks").
    ///
    /// # Safety
    ///
    /// `d` is done, and the thread is pinned.
    unsafe fn release_and_dispose(
        &self,
        tc: &ThreadCtx,
        d: *const Descriptor,
        cur2_packed: u64,
        marked: bool,
        nested: bool,
        rest: &[&Lock],
    ) {
        let first = if marked {
            self.word.load_packed_in(tc)
        } else {
            cur2_packed
        };
        // Each extra word is read first (committed, like every lock-path
        // read) and released from that read iff it shows `d`: while `d` is
        // undisposed no other incarnation of its slab can be there, and a
        // helper releasing it concurrently CASes from the same word.
        let release = |words: &[&Lock]| {
            for l in words.iter().rev() {
                l.release_self(tc, d, l.word.load_packed_in(tc));
            }
        };
        // Sanity-mutant hooks: the `helped` read moves in front of the last
        // word's release, or that release is skipped.
        #[cfg(feature = "model")]
        if let Some((last, others)) = rest.split_last() {
            let early = crate::mutants::helped_before_last_release();
            if early || crate::mutants::skip_last_release() {
                release(others);
                self.release_self(tc, d, first);
                // SAFETY: forwarded contract; this arm exists only to be
                // proven wrong by the checker.
                unsafe { self.dispose_after_run(tc, d, nested) };
                if early {
                    release(std::slice::from_ref(last));
                }
                return;
            }
        }
        release(rest);
        self.release_self(tc, d, first);
        // SAFETY: no word references `d` any more; pinned (contract).
        unsafe { self.dispose_after_run(tc, d, nested) };
    }

    /// Release `d`'s hold after `set_done`: unlock by clearing the
    /// descriptor pointer (keeping the obsolete bit), so the descriptor
    /// becomes unreachable from the lock word (enables safe reuse).
    ///
    /// `read` is a committed read of the word: the owner's read after its
    /// install attempt, or one taken after the run (a word the run may
    /// have marked, a lock set's further words, a helper's unlock). If it
    /// shows `d`, release with a CAS from that word: it cannot recur while
    /// `d` is undisposed, and nothing but a release moves a word `d` holds
    /// once `d` is done, so the CAS fails exactly when another runner
    /// released first. If it showed anything else, `d` is no longer there —
    /// another runner released it before that read, or (a further word) the
    /// install never took — and there is nothing to do: no CAS, no load, no
    /// log entry. The branch keys on a committed value, so runners of an
    /// enclosing thunk stay log-position-synchronized.
    #[inline]
    fn release_self(&self, tc: &ThreadCtx, d: *const Descriptor, read: u64) {
        let cur = LockWord::from_bits(unpack_val(read));
        if cur.holds(d) {
            self.word.tagged_cas_after_load_in(tc, read, cur.unlocked());
        }
    }

    /// Help the descriptor installed on this lock (observed as the full
    /// packed word `cur_packed`): observe the descriptor's generation →
    /// mark helped → adopt epoch → revalidate (word **and** generation) →
    /// if valid, run and then unlock; a helper that fails revalidation does
    /// nothing at all.
    ///
    /// The revalidation compares the **full packed word — tag included**.
    /// Comparing only the value bits is unsound: an
    /// unhelped descriptor is pool-recycled by its owner and can be
    /// reinstalled on the same lock at the same address, and the pool reset
    /// erases any *stale* `helped` mark. A helper whose mark was erased
    /// would then pass a value-only revalidation against the new
    /// incarnation — invisible to that incarnation's owner — and race the
    /// owner's next recycle (observed in practice as a contended-lock
    /// crash: "descriptor thunk called before set"); after such a
    /// revalidation, the value-only release guard below would likewise
    /// unlock the new incarnation mid-run. The install CAS bumps the lock word's tag,
    /// so full-word comparison rejects a reincarnation — except across an
    /// exact `TAG_LIMIT`-install wraparound of this one lock word, where the
    /// packed word itself recurs (the value-reuse hazard every value-based
    /// scheme must defend against, cf. Dice & Kogan).
    ///
    /// The **descriptor generation** closes that wraparound window
    /// exhaustively. The slab's 64-bit generation is bumped on every
    /// (re)initialization and never recurs. The protocol:
    ///
    /// read `gen0` (committed) → mark helped → adopt (SeqCst fence) →
    /// load the word `w` (committed) → re-read the generation `gen1`
    /// (committed); **valid ⇔ `w == cur_packed && gen1 == gen0`**.
    ///
    /// *Valid* implies no `create_descriptor` ran on this slab between
    /// the two generation reads, so (a) the install `w` observed belongs to the one
    /// incarnation alive across that whole interval (an installed
    /// descriptor is never recycled before its unlock), and (b) the mark in
    /// step 2 landed on exactly that incarnation and was never erased by a
    /// pool reset. Its owner therefore observes `helped` (the step-3 fence
    /// anchors the Dekker pair with the owner's unlock-CAS/reuse-check
    /// sequence) and retires the slab through the epoch collector instead
    /// of recycling it — and since this helper is pinned/adopted, the slab
    /// can neither be freed nor re-enter `create_descriptor` while this
    /// call is still running. Hence no *different* incarnation can show up
    /// on the word as `ptr` for the rest of this call, which is what makes
    /// the trailing release safe: it reads the word after the run
    /// (committed) and releases it iff it shows `d` — the run may have
    /// marked the word obsolete, which moved its tag past `cur_packed`
    /// (module docs, "Obsolete locks"). *Invalid* helpers skip the release
    /// entirely: one there could fire on a wrapped reinstallation whose
    /// thunk never ran, releasing a held lock — and skipping costs no
    /// progress, since the currently installed incarnation always has its
    /// own owner and freshly-validating helpers to release it.
    ///
    /// Every branch depends only on committed values, so runners of an
    /// enclosing thunk stay log-position-synchronized. Wraparound in scope,
    /// this is proved exhaustively by flock-model's `lock_word_tag_wrap_*`
    /// tests; the `SKIP_GEN_CHECK` mutant reverts to the pre-fix behavior
    /// (raw revalidation, unconditional unlock CAM) and is provably caught.
    fn help(&self, tc: &ThreadCtx, cur_packed: u64, guard: &flock_epoch::EpochGuard) {
        let cur = LockWord::from_bits(unpack_val(cur_packed));
        debug_assert!(cur.is_locked());
        let d = cur.descriptor();
        if d.is_null() {
            // A locked word with no descriptor is a blocking-mode hold;
            // nothing can be helped. Reachable only if the global mode is
            // switched while operations are in flight, which the API
            // documents as unsupported — degrade gracefully rather than
            // crash.
            return;
        }
        // Sanity-mutant hook: `true` reverts to the pre-generation help
        // path so the model checker can demonstrate the wraparound bug.
        #[cfg(feature = "model")]
        if crate::mutants::skip_gen_check() {
            // SAFETY: see the pre-fix comments preserved in git history;
            // this arm exists only to be proven wrong by the checker.
            unsafe {
                (*d).mark_helped();
                let _adopt = guard.adopt((*d).birth_epoch());
                if self.word.raw_packed() == cur_packed && !(*d).is_done() {
                    let owner_run = tc.owner_run.replace(false);
                    ctx::run_in(tc, d, std::ptr::null_mut());
                    tc.owner_run.set(owner_run);
                    (*d).set_done();
                }
            }
            self.word.cam_packed_in(tc, cur_packed, cur.unlocked());
            return;
        }
        // Step 1: observe the slab's incarnation BEFORE marking helped (see
        // the protocol above). Committed, like every read feeding `valid`,
        // so all runners of an enclosing thunk take the same branches.
        // SAFETY: `d` was read from the lock word while pinned; published
        // descriptors are never plain-freed (pool reuse or epoch retire
        // only), so the dereference is valid even if the slab was since
        // recycled.
        let gen0 = ctx::commit_raw_in(tc, unsafe { (*d).generation() }).0;
        // Step 2: mark. At worst this lands on a later incarnation than the
        // generation we read — then `valid` below is false and the only
        // effect is forcing that incarnation down the conservative retire
        // path (harmless by design, see `dispose_top_level`).
        // SAFETY: as above.
        unsafe { (*d).mark_helped() };
        // Step 3: adopt the helped thunk's epoch (paper §6) — publishes
        // with a SeqCst fence before the revalidation reads below. That
        // fence also anchors the mark_helped/unlock-CAS Dekker pair: the
        // mark is sequenced before it, the owner's reuse check is sequenced
        // after its own SeqCst unlock CAS.
        // SAFETY: as above.
        let _adopt = guard.adopt(unsafe { (*d).birth_epoch() });
        // Steps 4+5: revalidate word, then generation (this order — the
        // Acquire generation load synchronizes through the install CAS the
        // word load observed, so equality proves no intervening recycle).
        let w = self.word.load_packed_in(tc);
        // SAFETY: as above.
        let gen1 = ctx::commit_raw_in(tc, unsafe { (*d).generation() }).0;
        if w != cur_packed || gen1 != gen0 {
            return; // stale observation: do nothing (see the doc comment)
        }
        // SAFETY: validated + epoch-adopted: `d` is live, this is the
        // incarnation we marked, and its owner will observe `helped` before
        // any reuse decision. The null out-slot discards the helper's copy
        // of the result. A stale-false done read only causes a redundant
        // (idempotent) replay.
        unsafe {
            if !(*d).is_done() {
                if (*d).thunk_panicked() {
                    // A previous runner unwound mid-thunk: never start a
                    // replay of a log that may end at the panic point (see
                    // run_and_unlock_self). Finish the abandonment on its
                    // behalf — done, then the unlock CAM below.
                    (*d).set_done();
                } else {
                    // Chaos seam: a validated helper about to run the
                    // victim's thunk. No-op in default builds.
                    flock_sync::chaos::probe(flock_sync::chaos::Seam::HelpRun);
                    // Someone else's thunk: nothing nested in it is this
                    // thread's to defer, even when the help itself happens
                    // inside this thread's owner run. Restored on both
                    // outcomes (the unwind is caught right here).
                    let owner_run = tc.owner_run.replace(false);
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        ctx::run_in(tc, d, std::ptr::null_mut());
                    }));
                    tc.owner_run.set(owner_run);
                    match run {
                        Ok(()) => (*d).set_done(),
                        Err(payload) => {
                            // Safe-state (contract order), then swallow: the
                            // panic belongs to the victim's critical
                            // section and its owner reports it; killing the
                            // helping bystander would convert one thread's
                            // bug into another thread's crash.
                            let abort = AbortGuard("a helper's panic handler");
                            (*d).mark_panicked();
                            (*d).set_done();
                            std::mem::forget(abort);
                            drop(payload);
                        }
                    }
                }
            }
        }
        // Unlock the incarnation we just ran (or observed done), from a
        // committed read taken after the run: the run may have marked the
        // word, which bumped its tag past `cur_packed`. `valid` pins the
        // incarnation of `d` for the rest of this call, so a word that
        // shows `d` shows this one (doc comment).
        let w = self.word.load_packed_in(tc);
        // Sanity-mutant hook: the release installs the empty word, dropping
        // an obsolete bit the run set.
        #[cfg(feature = "model")]
        if crate::mutants::helper_release_drops_obsolete() {
            if LockWord::from_bits(unpack_val(w)).holds(d) {
                self.word
                    .tagged_cas_after_load_in(tc, w, LockWord::UNLOCKED_EMPTY);
            }
            return;
        }
        self.release_self(tc, d, w);
    }

    /// Dispose of our descriptor after a completed self-run.
    ///
    /// # Safety
    ///
    /// The lock word must no longer reference `d`; the thread must be pinned.
    unsafe fn dispose_after_run(&self, tc: &ThreadCtx, d: *const Descriptor, nested: bool) {
        if nested {
            // Back in the *outer* thunk's context (run_in restored it): the
            // retire marker is committed to the enclosing log.
            idemp::retire_descriptor_idempotent(tc, d);
        } else {
            // The owner run ends here, before the drain: resetting a
            // descriptor drops its closure, and a captured value's `Drop`
            // may take locks of its own.
            tc.owner_run.set(false);
            // SAFETY: owner-only, unreferenced, pinned — forwarded contract.
            unsafe { descriptor::dispose_top_level(tc, d as *mut Descriptor) };
        }
    }

    // ----------------------------------------------------------- blocking

    /// A blocking acquisition: one test-and-test-and-set take of a free
    /// word, the take both blocking forms share. `STRICT` (the strict
    /// [`Lock::lock`]) snoozes while the word is held and spins after a
    /// lost take; otherwise a held word or a lost take returns `None`. An
    /// obsolete word always returns `None`.
    ///
    /// The take and `blocking_release` bump the tag by hand instead of
    /// asking `flock_sync::announce` for it: blocking mode has no helpers,
    /// so nothing is ever announced for a word while these run, and the
    /// mode flips only at quiescence.
    fn acquire_blocking<const STRICT: bool, R, F: FnOnce() -> R>(&self, thunk: F) -> Option<R> {
        let mut backoff = Backoff::new();
        loop {
            let w = self.word.raw_packed();
            let cur = LockWord::from_bits(unpack_val(w));
            if STRICT && cur.is_locked() {
                backoff.snooze();
            } else if !cur.is_free() {
                return None;
            } else if self.blocking_cas(w, LockWord::LOCKED_NULL) {
                return Some(self.blocking_run(thunk));
            } else if STRICT {
                backoff.spin();
            } else {
                return None;
            }
        }
    }

    /// Blocking mode's CAS of the word from `w` to `to`, with the tag bumped.
    fn blocking_cas(&self, w: u64, to: LockWord) -> bool {
        self.word
            .raw_cell()
            .ccas(w, pack(next_tag(unpack_tag(w)), to.to_bits()))
    }

    /// Run a blocking-mode critical section with the TTAS bit held,
    /// releasing on both return and unwind: there is no helper to rescue a
    /// blocking lock, so a panicking critical section must release the word
    /// itself (pre-contract, a panic here hung the lock forever — waiters
    /// spun on a bit whose holder had unwound away).
    fn blocking_run<R, F: FnOnce() -> R>(&self, thunk: F) -> R {
        struct Release<'a>(&'a Lock);
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                self.0.blocking_release();
            }
        }
        let _release = Release(self);
        // Chaos seam: blocking critical section entered, word held. A stall
        // here is the motivating failure helping exists to excuse — nothing
        // can rescue it. No-op in default builds.
        flock_sync::chaos::probe(flock_sync::chaos::Seam::BlockingCritical);
        thunk()
    }

    fn blocking_release(&self) {
        // Only the holder releases; acquire attempts CAS on unlocked words
        // only, so a single CAS from the current (locked) word suffices.
        let w = self.word.raw_packed();
        let cur = LockWord::from_bits(unpack_val(w));
        debug_assert!(cur.is_locked());
        self.blocking_cas(w, cur.unlocked());
    }
}

/// Model-only probes splitting a helper's *observation* of a lock word
/// from its *help* call, so the model checker can schedule an arbitrarily
/// stalled helper without spending preemptions inside `try_lock` — the
/// scenario of the tag-wraparound tests. Production helpers take exactly
/// this path (observe inside `acquire_lock_free`, then `help`); the probe
/// only externalizes the stall point between the two.
#[cfg(feature = "model")]
pub mod model_probe {
    use super::Lock;
    use flock_sync::pack::{PackedValue, unpack_val};
    use flock_sync::thread_ctx;

    /// A helper's observation step: the full packed lock word.
    pub fn observe(lock: &Lock) -> u64 {
        thread_ctx::with(|tc| lock.word.load_packed_in(tc))
    }

    /// Run the real help path against a (possibly long-stale) observation,
    /// exactly as `acquire_lock_free` would on finding `observed_packed`
    /// locked. No-op when the observation was of an unlocked word.
    pub fn help_observed(lock: &Lock, observed_packed: u64) {
        if !super::LockWord::from_bits(unpack_val(observed_packed)).is_locked() {
            return;
        }
        thread_ctx::with(|tc| {
            let guard = flock_epoch::pin_with(tc);
            lock.help(tc, observed_packed, &guard);
        });
    }

    /// The calling thread's holder waits so far (module docs, "Waiting for
    /// a running holder").
    pub fn holder_waits() -> super::HolderWaits {
        super::HOLDER_WAITS.get()
    }
}

#[cfg(test)]
impl Lock {
    /// Bump the unlocked word's tag once, as a top-level store does.
    pub(crate) fn bump_tag(&self) {
        self.word.store(LockWord::UNLOCKED_EMPTY);
    }
}

/// Serializes tests that touch the global lock mode; switching modes with
/// operations in flight is unsupported, so mode-sensitive tests must not
/// overlap within the test process.
#[cfg(test)]
pub(crate) static TEST_MODE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run `test` in lock-free mode, then in blocking mode, holding
/// [`TEST_MODE_LOCK`]; leaves the mode lock-free.
#[cfg(test)]
pub(crate) fn both_modes(test: impl Fn()) {
    let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for mode in [LockMode::LockFree, LockMode::Blocking] {
        crate::config::set_lock_mode(mode);
        test();
    }
    crate::config::set_lock_mode(LockMode::LockFree);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::set_lock_mode;
    use std::sync::Arc;

    #[test]
    fn try_lock_runs_thunk_and_returns_result() {
        both_modes(|| {
            let l = Lock::new();
            assert_eq!(l.try_lock(|| true), Some(true));
            assert_eq!(
                l.try_lock(|| false),
                Some(false),
                "thunk result is distinct from lock-busy"
            );
            assert!(!l.is_locked(), "lock released after thunk");
        });
    }

    #[test]
    fn try_lock_returns_arbitrary_types() {
        both_modes(|| {
            let l = Lock::new();
            assert_eq!(l.try_lock(|| 41u64 + 1), Some(42));
            assert_eq!(l.try_lock(|| Some("hit")), Some(Some("hit")));
            assert_eq!(l.try_lock(|| ()), Some(()));
            let v = l.try_lock(|| vec![1u8, 2, 3]);
            assert_eq!(v, Some(vec![1, 2, 3]), "non-Copy results work");
        });
    }

    #[test]
    fn strict_lock_runs() {
        both_modes(|| {
            let l = Lock::new();
            assert_eq!(l.lock(|| true), Some(true));
            assert_eq!(l.lock(|| 7u32), Some(7));
            assert!(!l.is_locked());
        });
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 8k-op concurrency stress, too slow under miri
    fn critical_sections_are_atomic() {
        both_modes(|| {
            let l = Arc::new(Lock::new());
            // Shared state inside thunks must be `Mutable`: helped thunks
            // can be replayed, and only logged operations are idempotent.
            let n = Arc::new(crate::Mutable::new(0u64));
            const PER_THREAD: u64 = 2_000;
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let l = Arc::clone(&l);
                    let n = Arc::clone(&n);
                    s.spawn(move || {
                        let mut acquired = 0;
                        while acquired < PER_THREAD {
                            let n2 = Arc::clone(&n);
                            if l.try_lock(move || n2.store(n2.load() + 1)).is_some() {
                                acquired += 1;
                            }
                        }
                    });
                }
            });
            assert_eq!(n.load(), 4 * PER_THREAD);
        });
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 8k-op concurrency stress, too slow under miri
    fn strict_lock_counter_exact() {
        both_modes(|| {
            let l = Arc::new(Lock::new());
            let n = Arc::new(crate::Mutable::new(0u64));
            const PER_THREAD: u64 = 2_000;
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let l = Arc::clone(&l);
                    let n = Arc::clone(&n);
                    s.spawn(move || {
                        for _ in 0..PER_THREAD {
                            let n2 = Arc::clone(&n);
                            let served = l
                                .lock(move || {
                                    let before = n2.load();
                                    n2.store(before + 1);
                                    before
                                })
                                .expect("never marked obsolete");
                            assert!(served < 4 * PER_THREAD);
                        }
                    });
                }
            });
            assert_eq!(n.load(), 4 * PER_THREAD);
        });
    }

    /// Regression stress for the help-path incarnation bug: `help()` used
    /// to compare only the lock word's *value* bits when revalidating and
    /// unlocking, so a pool-recycled descriptor reinstalled at the same
    /// address could be run/unlocked by a stale helper whose `helped` mark
    /// the pool reset had erased (crashing with "descriptor thunk called
    /// before set" under contention). Oversubscribed strict-lock hammering
    /// on one lock is the reproducer shape: holders get descheduled
    /// mid-section, helpers race owners through reuse cycles.
    #[test]
    #[cfg_attr(miri, ignore)] // oversubscribed timing stress, pointless under miri
    fn contended_strict_lock_descriptor_reuse() {
        let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        let l = Arc::new(Lock::new());
        let n = Arc::new(crate::Mutable::new(0u64));
        let threads = 8u64; // deliberately above typical CI core counts
        const PER_THREAD: u64 = 1_500;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let l = Arc::clone(&l);
                let n = Arc::clone(&n);
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        let n2 = Arc::clone(&n);
                        l.lock(move || n2.store(n2.load() + 1));
                    }
                });
            }
        });
        assert_eq!(n.load(), threads * PER_THREAD);
        assert!(!l.is_locked());
    }

    #[test]
    fn nested_locks_work() {
        both_modes(|| {
            let outer = Arc::new(Lock::new());
            let inner = Arc::new(Lock::new());
            let inner2 = Arc::clone(&inner);
            // The nested Option layers keep "outer busy" (None), "inner
            // busy" (Some(None)) and "both acquired" (Some(Some(_))) apart.
            let ok = outer.try_lock(move || {
                let i = Arc::clone(&inner2);
                i.try_lock(|| true)
            });
            assert_eq!(ok, Some(Some(true)));
            assert!(!outer.is_locked());
            assert!(!inner.is_locked());
        });
    }

    /// Panic-safety contract, owner path: a thunk that unwinds out of
    /// `try_lock` must leave the lock released and reusable in both modes.
    /// (Pre-contract, lock-free mode leaked a locked word whose descriptor
    /// was never completed, and blocking mode skipped `blocking_release`
    /// entirely — every later acquisition hung.)
    #[test]
    fn panic_in_thunk_releases_lock() {
        both_modes(|| {
            let l = Lock::new();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                l.try_lock(|| -> u32 { panic!("thunk boom") })
            }));
            assert!(r.is_err(), "panic must propagate to the lock caller");
            assert!(!l.is_locked(), "lock still held after a panicking thunk");
            assert_eq!(l.try_lock(|| 7u32), Some(7), "lock unusable after panic");
        });
    }

    /// Same contract through the strict (waiting) acquisition path.
    #[test]
    fn panic_in_strict_lock_releases_lock() {
        both_modes(|| {
            let l = Lock::new();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                l.lock(|| -> u32 { panic!("strict boom") })
            }));
            assert!(r.is_err());
            assert!(!l.is_locked());
            assert_eq!(l.lock(|| 11u32), Some(11));
        });
    }

    /// A panicking critical section must not poison *other* operations'
    /// state: after the unwind, unrelated locks and cells keep working and
    /// a nested acquisition sequence completes.
    #[test]
    fn panic_does_not_poison_unrelated_state() {
        both_modes(|| {
            let a = Arc::new(Lock::new());
            let b = Arc::new(Lock::new());
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                a.try_lock(|| -> () { panic!("poison probe") })
            }));
            let b2 = Arc::clone(&b);
            assert_eq!(
                a.try_lock(move || b2.try_lock(|| 3u32)),
                Some(Some(3)),
                "nested acquisition broken after an unrelated panic"
            );
            assert!(!a.is_locked());
            assert!(!b.is_locked());
        });
    }

    /// Entries one acquired `inner.try_lock` commits to the enclosing log
    /// when it is the only thing `outer`'s thunk does.
    #[cfg(not(feature = "model"))] // pins the production window width
    fn nested_commits(outer: &Lock, inner: &Arc<Lock>) -> usize {
        let inner = Arc::clone(inner);
        let extensions = crate::log::EXTENSIONS_ALLOCATED.get();
        let observed = outer.try_lock(move || {
            let before = thread_ctx::with(|tc| tc.log_pos.get());
            let got = inner.try_lock(|| 7u32);
            (got, thread_ctx::with(|tc| tc.log_pos.get()) - before)
        });
        assert_eq!(
            crate::log::EXTENSIONS_ALLOCATED.get(),
            extensions,
            "the outer thunk left its descriptor's inline block"
        );
        let (got, commits) = observed.expect("outer lock is free");
        assert_eq!(got, Some(7));
        commits
    }

    /// Committed-read reuse, and no log entry for a tag every runner can
    /// derive: a nested acquisition commits exactly four entries to the
    /// enclosing log on the acquired path — lock-word read, descriptor,
    /// post-install read, retire marker — so an outer thunk that does
    /// nothing else stays inside its descriptor's inline block.
    #[test]
    #[cfg(not(feature = "model"))]
    fn nested_try_lock_commits_four_log_entries() {
        let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        assert_eq!(nested_commits(&Lock::new(), &Arc::new(Lock::new())), 4);
    }

    /// The window-entry twin: a tag choice is committed when, and only
    /// when, the tag being issued enters a tag window — which each runner
    /// reads off the lock word it already committed.
    #[test]
    #[cfg(not(feature = "model"))]
    fn nested_try_lock_commits_its_tag_choice_on_window_entry() {
        use flock_sync::pack::TAG_WINDOW;
        let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        let outer = Lock::new();
        let inner = Arc::new(Lock::new());
        // An acquisition bumps the word's tag twice (install, release).
        for _ in 0..TAG_WINDOW / 2 - 1 {
            assert_eq!(inner.try_lock(|| ()), Some(()));
        }
        assert_eq!(unpack_tag(inner.word.raw_packed()), TAG_WINDOW - 2);
        assert_eq!(
            nested_commits(&outer, &inner),
            5,
            "the release lands on a window start: lock-word read, descriptor, \
             post-install read, release tag, retire marker"
        );
        assert_eq!(unpack_tag(inner.word.raw_packed()), TAG_WINDOW);
        assert_eq!(nested_commits(&outer, &inner), 4, "mid-window again");
        // And an install that enters a window, from one tag earlier.
        let inner = Arc::new(Lock::new());
        inner.word.store(LockWord::UNLOCKED_EMPTY); // tag 1, still unlocked
        for _ in 0..TAG_WINDOW / 2 - 1 {
            assert_eq!(inner.try_lock(|| ()), Some(()));
        }
        assert_eq!(unpack_tag(inner.word.raw_packed()), TAG_WINDOW - 1);
        assert_eq!(nested_commits(&outer, &inner), 5, "install tag committed");
        assert_eq!(nested_commits(&outer, &inner), 4);
    }

    // ------------------------------------------- nested descriptor reuse
    //
    // None of these is `cfg_attr(miri, ignore)`: the deferred list is an
    // intrusive raw-pointer list, and miri should walk it.

    use crate::descriptor::{TALLY, pooled};
    use crate::{Locked, Mutable};

    /// No owner run in progress on the calling thread, nothing deferred.
    fn assert_no_owner_run() {
        thread_ctx::with(|tc| {
            assert!(!tc.owner_run.get(), "owner run outlived its dispose");
            assert!(tc.deferred.get().is_null(), "deferred list not drained");
        });
    }

    type Account = Arc<Locked<Mutable<u64>>>;

    fn transfer_cells() -> (Account, Account) {
        (
            Arc::new(Locked::new(Mutable::new(1 << 20))),
            Arc::new(Locked::new(Mutable::new(0))),
        )
    }

    fn transfer(a: &Account, b: &Account) {
        let moved = Locked::try_with2(a, b, |src, dst| {
            src.store(src.load() - 1);
            dst.store(dst.load() + 1);
        });
        assert_eq!(moved, Some(()), "uncontended transfer found a lock busy");
    }

    /// The §6 reuse rule for a two-lock descriptor: an uncontended
    /// `try_with2` loop hands nothing to the collector and, after the first
    /// call, takes nothing from the allocator — one slab goes round
    /// through the pool, out of it for exactly the length of a transfer.
    #[test]
    fn uncontended_try_with2_retires_nothing_and_reuses_one_slab() {
        let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        let (a, b) = transfer_cells();
        let (fresh0, retired0) = TALLY.get();
        transfer(&a, &b);
        let slabs = pooled();
        let (fresh1, _) = TALLY.get();
        assert!(fresh1 - fresh0 <= 1, "more than one descriptor allocated");
        let taken = &slabs[..slabs.len() - 1];
        for _ in 0..1_000 {
            let inside = Locked::try_with2(&a, &b, |src, dst| {
                src.store(src.load() - 1);
                dst.store(dst.load() + 1);
                pooled()
            });
            assert_eq!(inside.as_deref(), Some(taken), "not one slab taken");
            assert_eq!(pooled(), slabs, "not the same slab back");
        }
        assert_eq!(TALLY.get(), (fresh1, retired0), "allocated or retired");
        assert_eq!(b.load(), 1_001);
        assert_no_owner_run();
    }

    /// Inside an outer thunk `try_with2` takes `acquire_lock_free`'s
    /// nested path (idempotent create, committed reads, retire marker):
    /// both modes transfer, every lock ends released, and lock-free mode
    /// recycles the nested two-lock descriptor through the owner's drain.
    #[test]
    fn try_with2_nested_in_try_lock() {
        let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for mode in [LockMode::LockFree, LockMode::Blocking] {
            set_lock_mode(mode);
            let outer = Lock::new();
            let (a, b) = transfer_cells();
            let nested = || {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                outer.try_lock(move || {
                    Locked::try_with2(&a, &b, |src, dst| {
                        src.store(src.load() - 1);
                        dst.store(dst.load() + 1);
                        dst.load()
                    })
                })
            };
            assert_eq!(nested(), Some(Some(1)));
            let tally = TALLY.get();
            assert_eq!(nested(), Some(Some(2)));
            assert_eq!(TALLY.get(), tally, "allocated or retired ({mode:?})");
            assert!(!outer.is_locked() && !a.is_locked() && !b.is_locked());
            assert_eq!(a.load() + b.load(), 1 << 20, "money conserved");
            assert_no_owner_run();
        }
        set_lock_mode(LockMode::LockFree);
    }

    // ------------------------------------------------- three-lock sets

    /// Three locks and a counter; the set's thunk holds the counter.
    fn three_locks() -> (Lock, Lock, Lock, Arc<Mutable<u64>>) {
        (
            Lock::new(),
            Lock::new(),
            Lock::new(),
            Arc::new(Mutable::new(0)),
        )
    }

    /// An uncontended three-lock set hands nothing to the collector and,
    /// after the first call, takes nothing from the allocator: one slab
    /// holds all three words, out of the pool for exactly one set.
    #[test]
    fn uncontended_three_lock_set_retires_nothing_and_reuses_one_slab() {
        let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        let (a, b, c, n) = three_locks();
        let set = |body: fn(&Mutable<u64>) -> Vec<usize>| {
            let n = Arc::clone(&n);
            // SAFETY: nobody else touches these locks, so every runner of
            // the thunk runs inside this call.
            unsafe { a.try_lock_set([&b, &c], move || body(&n)) }
        };
        let (fresh0, retired0) = TALLY.get();
        assert!(
            set(|n| {
                n.store(n.load() + 1);
                Vec::new()
            })
            .is_some()
        );
        let slabs = pooled();
        let (fresh1, _) = TALLY.get();
        assert!(fresh1 - fresh0 <= 1, "more than one descriptor allocated");
        let taken = &slabs[..slabs.len() - 1];
        for _ in 0..1_000 {
            let inside = set(|n| {
                n.store(n.load() + 1);
                pooled()
            });
            assert_eq!(inside.as_deref(), Some(taken), "not one slab taken");
            assert_eq!(pooled(), slabs, "not the same slab back");
        }
        assert_eq!(TALLY.get(), (fresh1, retired0), "allocated or retired");
        assert_eq!(n.load(), 1_001);
        assert!(!a.is_locked() && !b.is_locked() && !c.is_locked());
        assert_no_owner_run();
    }

    /// Panic safety for a set: a body that unwinds releases all three
    /// words, in both modes, and the set works again afterwards.
    #[test]
    fn panic_in_three_lock_set_releases_all_three() {
        both_modes(|| {
            let (a, b, c, n) = three_locks();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // SAFETY: single-threaded; every runner runs in this call.
                unsafe { a.try_lock_set([&b, &c], || -> u32 { panic!("set boom") }) }
            }));
            assert!(r.is_err(), "panic must propagate to the set's caller");
            assert!(!a.is_locked(), "first word leaked by a panicking set");
            assert!(!b.is_locked(), "second word leaked by a panicking set");
            assert!(!c.is_locked(), "third word leaked by a panicking set");
            let n2 = Arc::clone(&n);
            // SAFETY: as above.
            let got = unsafe { a.try_lock_set([&b, &c], move || n2.store(7)) };
            assert_eq!(got, Some(()));
            assert_eq!(n.load(), 7);
            assert!(!a.is_locked() && !b.is_locked() && !c.is_locked());
        });
    }

    /// A set nested in an outer `try_lock` takes `acquire_lock_free`'s
    /// nested path: both modes run the body under all four locks, every
    /// lock ends released, and lock-free mode recycles the nested set's
    /// descriptor through the owner's drain.
    #[test]
    fn three_lock_set_nested_in_try_lock() {
        let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for mode in [LockMode::LockFree, LockMode::Blocking] {
            set_lock_mode(mode);
            let outer = Lock::new();
            let (a, b, c) = (
                Arc::new(Lock::new()),
                Arc::new(Lock::new()),
                Arc::new(Lock::new()),
            );
            let n = Arc::new(Mutable::new(0u64));
            let nested = || {
                let (a, b, c, n) = (a.clone(), b.clone(), c.clone(), n.clone());
                outer.try_lock(move || {
                    let (b2, c2, n) = (b.clone(), c.clone(), n.clone());
                    // SAFETY: the set's thunk holds `b` and `c`.
                    unsafe {
                        a.try_lock_set([&b, &c], move || {
                            assert!(b2.is_locked() && c2.is_locked());
                            n.store(n.load() + 1);
                            n.load()
                        })
                    }
                })
            };
            assert_eq!(nested(), Some(Some(1)));
            let tally = TALLY.get();
            assert_eq!(nested(), Some(Some(2)));
            assert_eq!(TALLY.get(), tally, "allocated or retired ({mode:?})");
            assert!(!outer.is_locked() && !a.is_locked() && !b.is_locked() && !c.is_locked());
            assert_no_owner_run();
        }
        set_lock_mode(LockMode::LockFree);
    }

    /// A three-lock set's one descriptor commits exactly two lock-path
    /// entries to its log — one read per extra word, which shows the
    /// descriptor the owner installed there before the run — plus its
    /// body's own (here one load, whose entry the store reuses). The
    /// owner's installs are top-level, so one that enters a tag window
    /// commits nothing either.
    #[test]
    #[cfg(not(feature = "model"))] // pins the production window width
    fn three_lock_set_commits_two_lock_path_entries() {
        use flock_sync::pack::TAG_WINDOW;
        let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        for enters in [false, true] {
            let (a, b, c, n) = three_locks();
            b.bump_tag();
            for _ in 0..if enters { TAG_WINDOW - 1 } else { 1 } {
                c.bump_tag();
            }
            n.store(0);
            // SAFETY: every runner runs inside this call.
            let last_pos = unsafe {
                a.try_lock_set([&b, &c], move || {
                    n.store(n.load() + 1);
                    thread_ctx::with(|tc| tc.log_pos.get())
                })
            };
            assert_eq!(last_pos, Some(2 + 1), "enters = {enters}");
        }
    }

    /// A nested acquisition whose install fails never ran and was never on
    /// a lock word, but its pointer is in the outer log: it is deferred and
    /// recycled like any other. `acquire_lock_free`'s nested steps are
    /// taken by hand so that another thread's whole acquisition sits exactly
    /// between the read of the inner word and the install from it.
    #[test]
    fn failed_nested_install_is_deferred_then_recycled() {
        let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        let outer = Lock::new();
        let inner = Arc::new(Lock::new());
        let retired0 = TALLY.get().1;
        let i2 = Arc::clone(&inner);
        let nested = outer.try_lock(move || {
            thread_ctx::with(|tc| {
                let guard = flock_epoch::pin_with(tc);
                let cur_packed = i2.word.load_packed_in(tc);
                let d = idemp::create_descriptor_idempotent(tc, || 1u32, &guard);
                let i3 = Arc::clone(&i2);
                std::thread::spawn(move || assert_eq!(i3.try_lock(|| ()), Some(())))
                    .join()
                    .unwrap();
                i2.word
                    .tagged_cas_after_load_in(tc, cur_packed, LockWord::locked_with(d));
                let cur2 = LockWord::from_bits(unpack_val(i2.word.load_packed_in(tc)));
                assert!(!cur2.is_locked(), "the install was meant to fail");
                idemp::retire_descriptor_idempotent(tc, d);
                assert_eq!(tc.deferred.get(), d as *mut (), "not deferred");
                d as usize
            })
        });
        assert_no_owner_run();
        let nested = nested.expect("outer lock is free");
        assert!(pooled().contains(&nested), "deferred descriptor not pooled");
        assert_eq!(TALLY.get().1, retired0, "nothing was helped: no retire");
        assert!(!outer.is_locked() && !inner.is_locked());
        // The debug-build trackers see every slab accounted for when both
        // descriptors are taken from the pool again.
        assert_eq!(nested_ok(&outer, &inner), Some(Some(3)));
    }

    fn nested_ok(outer: &Lock, inner: &Arc<Lock>) -> Option<Option<u32>> {
        let inner = Arc::clone(inner);
        outer.try_lock(move || inner.try_lock(|| 3u32))
    }

    /// A nested thunk that panics unwinds through two owner arms: both
    /// locks come back released, the list drained, the descriptors reusable.
    #[test]
    fn panicking_nested_thunk_drains_the_deferred_list() {
        let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        let outer = Lock::new();
        let inner = Arc::new(Lock::new());
        let i2 = Arc::clone(&inner);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            outer.try_lock(move || i2.try_lock(|| -> u32 { panic!("nested boom") }))
        }));
        assert!(r.is_err(), "panic must propagate to the outer caller");
        assert!(!outer.is_locked() && !inner.is_locked());
        assert_no_owner_run();
        let retired0 = TALLY.get().1;
        assert_eq!(nested_ok(&outer, &inner), Some(Some(3)));
        let (a, b) = transfer_cells();
        transfer(&a, &b);
        assert_eq!(TALLY.get().1, retired0);
        assert_no_owner_run();
    }

    /// No depth cap: three levels recycle three descriptors.
    #[test]
    fn depth_three_recycles_all_three() {
        let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        let (a, b, c) = (Lock::new(), Arc::new(Lock::new()), Arc::new(Lock::new()));
        let three_deep = || {
            let (b, c) = (Arc::clone(&b), Arc::clone(&c));
            a.try_lock(move || {
                let c = Arc::clone(&c);
                b.try_lock(move || c.try_lock(|| 9u32))
            })
        };
        // The two nested slabs trade places from run to run (the list is
        // drained innermost-last), so compare the pool as a set.
        let sorted_pool = || {
            let mut slabs = pooled();
            slabs.sort_unstable();
            slabs
        };
        assert_eq!(three_deep(), Some(Some(Some(9))));
        let slabs = sorted_pool();
        assert!(slabs.len() >= 3);
        let tally = TALLY.get();
        assert_eq!(three_deep(), Some(Some(Some(9))));
        assert_eq!(sorted_pool(), slabs);
        assert_eq!(TALLY.get(), tally, "allocated or retired on the second run");
        assert_no_owner_run();
    }

    /// A helped-to-completion owner whose helper also released before the
    /// owner's post-install read: the owner replays for its result and must
    /// leave the lock word alone — by then it may belong to someone else.
    /// The owner's steps of `acquire_lock_free` are taken by hand so the
    /// helper (and a later, unrelated acquisition) sit exactly between the
    /// install and that read.
    #[test]
    fn helped_and_released_owner_does_not_release_again() {
        let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        let lock = Arc::new(Lock::new());
        let n = Arc::new(crate::Mutable::new(0u64));
        thread_ctx::with(|tc| {
            let guard = flock_epoch::pin_with(tc);
            let cur_packed = lock.word.load_packed_in(tc);
            let n2 = Arc::clone(&n);
            let thunk = move || {
                n2.store(n2.load() + 1);
                n2.load()
            };
            let d = descriptor::create_descriptor(tc, thunk, guard.epoch(), false);
            lock.word
                .tagged_cas_after_load_in(tc, cur_packed, LockWord::locked_with(d));
            let installed = lock.word.raw_packed();
            assert_eq!(
                LockWord::from_bits(unpack_val(installed)),
                LockWord::locked_with(d)
            );

            let l2 = Arc::clone(&lock);
            std::thread::spawn(move || {
                thread_ctx::with(|tc| l2.help(tc, installed, &flock_epoch::pin_with(tc)))
            })
            .join()
            .unwrap();
            assert!(!lock.is_locked(), "the helper ran and released");
            assert_eq!(n.load(), 1);
            assert_eq!(lock.try_lock(|| 5u32), Some(5), "someone else's turn");

            let cur2_packed = lock.word.load_packed_in(tc);
            // SAFETY: `d` is ours and undisposed.
            assert!(unsafe { (*d).is_done() });
            let r = lock.run_and_unlock_self::<u64>(tc, d, cur2_packed, false, &[]);
            assert_eq!(r, 1, "the replay recomputes the committed result");
            assert_eq!(n.load(), 1, "and applies no effect twice");
            assert_eq!(
                lock.word.raw_packed(),
                cur2_packed,
                "a second release touched the lock word"
            );
        });
        assert_eq!(lock.try_lock(|| 6u32), Some(6));
    }

    #[test]
    fn lock_word_packing() {
        let d = 0x7f_f000_1230usize as *const Descriptor;
        let w = LockWord::locked_with(d);
        assert!(w.is_locked());
        assert_eq!(w.descriptor(), d);
        assert_eq!(w.unlocked(), LockWord::UNLOCKED_EMPTY);
        let u = LockWord::UNLOCKED_EMPTY;
        assert!(!u.is_locked());
        assert!(u.descriptor().is_null());
        assert!(LockWord::LOCKED_NULL.is_locked());
        assert!(LockWord::LOCKED_NULL.descriptor().is_null());
        assert_eq!(LockWord::from_bits(w.to_bits()), w);
        // The obsolete bit rides beside the pointer and survives a release.
        let o = w.obsolete();
        assert!(o.is_locked() && o.is_obsolete() && o.holds(d));
        assert_eq!(o.descriptor(), d);
        assert!(o.unlocked().is_obsolete() && !o.unlocked().is_locked());
        assert!(!o.unlocked().is_free() && u.is_free() && !w.is_free());
    }

    /// The obsolete bit in both modes: the marking critical section runs
    /// to completion and releases, the bit survives the release, and from
    /// then on every acquisition form refuses the lock — `try_lock`, a set
    /// through it as a further word, and the strict `lock` (which returns
    /// `None` instead of waiting) — and `version` refuses it too. In
    /// lock-free mode neither `try_lock` nor `lock` takes a descriptor for
    /// it: on a fresh thread, whose pool starts empty, no slab is taken
    /// fresh and none reaches the pool.
    #[test]
    fn obsolete_lock_is_released_and_never_acquired_again() {
        use crate::descriptor::{TALLY, pooled};
        both_modes(|| {
            let l = Arc::new(Lock::new());
            assert!(!l.is_obsolete() && l.version().is_some());
            let l2 = Arc::clone(&l);
            assert_eq!(
                l.try_lock(move || {
                    l2.mark_obsolete();
                    l2.mark_obsolete(); // a second mark changes nothing
                    l2.is_obsolete()
                }),
                Some(true)
            );
            assert!(!l.is_locked(), "a marked word must be released");
            assert!(l.is_obsolete(), "the release dropped the obsolete bit");
            assert_eq!(l.version(), None);
            let l2 = Arc::clone(&l);
            let refused = std::thread::spawn(move || {
                let before = (TALLY.get().0, pooled());
                let got = (l2.try_lock(|| ()), l2.lock(|| ()));
                (got, before, (TALLY.get().0, pooled()))
            });
            let (got, before, after) = refused.join().unwrap();
            assert_eq!(got, (None, None));
            if crate::lock_mode() == LockMode::LockFree {
                assert_eq!(after, before, "a descriptor was taken for an obsolete lock");
            }
            let first = Lock::new();
            // SAFETY: every runner runs inside this call.
            assert_eq!(unsafe { first.try_lock_set([&*l], || ()) }, None);
            assert!(!first.is_locked() && !first.is_obsolete());
            assert!(!l.is_locked() && l.is_obsolete());
        });
    }

    /// A set whose body marks its first and further words releases all of
    /// them with the bit kept, and a nested acquisition that marks its own
    /// lock leaves the enclosing lock unmarked and released.
    #[test]
    fn marked_set_words_and_nested_locks_are_released() {
        both_modes(|| {
            let (a, b, c) = (
                Arc::new(Lock::new()),
                Arc::new(Lock::new()),
                Arc::new(Lock::new()),
            );
            let (a2, c2) = (Arc::clone(&a), Arc::clone(&c));
            // SAFETY: every runner runs inside this call.
            let got = unsafe {
                a.try_lock_set([&*b, &*c], move || {
                    a2.mark_obsolete();
                    c2.mark_obsolete();
                })
            };
            assert_eq!(got, Some(()));
            assert!(!a.is_locked() && !b.is_locked() && !c.is_locked());
            assert!(a.is_obsolete() && !b.is_obsolete() && c.is_obsolete());

            let (outer, inner) = (Lock::new(), Arc::new(Lock::new()));
            let i2 = Arc::clone(&inner);
            let got = outer.try_lock(move || {
                let i3 = Arc::clone(&i2);
                i2.try_lock(move || i3.mark_obsolete())
            });
            assert_eq!(got, Some(Some(())));
            assert!(!outer.is_locked() && !outer.is_obsolete());
            assert!(!inner.is_locked() && inner.is_obsolete());
        });
    }

    // ------------------------------------------ waiting for a running holder

    use std::sync::atomic::AtomicUsize;

    /// A holder parked inside its critical section while `contend` runs on
    /// another thread: a descriptor installed on `lock` by hand, as
    /// `acquire_lock_free` installs one, whose owner takes the rest of its
    /// path once `contend` returned — or, with `release_mid_wait`, right
    /// before the contender's first poll, which then waits for it. Returns
    /// what `contend` returned, the contender's holder waits, and how often
    /// a thread other than its owner ran the holder's thunk (a help). The
    /// thunk's store lands exactly once whoever ran it, and the holder's
    /// descriptor goes back to the pool when released mid-wait, to the
    /// collector when helped.
    fn against_parked<R: Send + 'static>(
        lock: &Arc<Lock>,
        contend: impl FnOnce() -> R + Send + 'static,
        release_mid_wait: bool,
    ) -> (R, HolderWaits, usize) {
        let n = Arc::new(Mutable::new(0u64));
        let runs = Arc::new(AtomicUsize::new(0));
        thread_ctx::with(|tc| {
            let guard = flock_epoch::pin_with(tc);
            let (n2, runs2) = (Arc::clone(&n), Arc::clone(&runs));
            let thunk = move || {
                runs2.fetch_add(1, Ordering::Relaxed);
                n2.store(n2.load() + 1);
            };
            let d = descriptor::create_descriptor(tc, thunk, guard.epoch(), false);
            let cur_packed = lock.word.load_packed_in(tc);
            lock.word
                .tagged_cas_after_load_in(tc, cur_packed, LockWord::locked_with(d));
            assert!(LockWord::from_bits(unpack_val(lock.word.raw_packed())).holds(d));
            let finish = || {
                let cur2_packed = lock.word.load_packed_in(tc);
                lock.run_and_unlock_self::<()>(tc, d, cur2_packed, false, &[]);
            };
            let (polled_tx, polled_rx) = std::sync::mpsc::channel();
            let (released_tx, released_rx) = std::sync::mpsc::channel();
            let contender = std::thread::spawn(move || {
                if release_mid_wait {
                    BEFORE_POLL.set(Some(Box::new(move || {
                        polled_tx.send(()).unwrap();
                        released_rx.recv().unwrap();
                    })));
                }
                let got = contend();
                BEFORE_POLL.set(None);
                (got, HOLDER_WAITS.get())
            });
            if release_mid_wait {
                polled_rx.recv().unwrap();
                // SAFETY: `d` is this thread's, undisposed.
                assert!(!unsafe { (*d).was_helped() }, "marked helped mid-wait");
                let retired0 = TALLY.get().1;
                finish();
                assert_eq!(TALLY.get().1, retired0, "the holder's descriptor retired");
                assert!(pooled().contains(&(d as usize)), "and not pooled");
                released_tx.send(()).unwrap();
            }
            let (got, waits) = contender.join().unwrap();
            // Less the owner's own run, if it has run.
            let helped_runs = runs.load(Ordering::Relaxed) - usize::from(release_mid_wait);
            if !release_mid_wait {
                let retired0 = TALLY.get().1;
                finish();
                assert_eq!(
                    TALLY.get().1,
                    retired0 + 1,
                    "the helped descriptor not retired"
                );
                assert!(!pooled().contains(&(d as usize)), "but pooled");
            }
            assert_eq!(n.load(), 1, "the holder's store did not land exactly once");
            (got, waits, helped_runs)
        })
    }

    /// A holder parked for good is still helped, after the whole wait: a
    /// `try_lock` polls the unchanged word `HOLDER_WAIT` times, helps and
    /// reports busy, and a `lock` does the same and then acquires. This is
    /// what keeps the wait lock-free.
    #[test]
    fn parked_holder_is_helped_after_the_whole_wait() {
        let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        for strict in [false, true] {
            let lock = Arc::new(Lock::new());
            let l2 = Arc::clone(&lock);
            let contend = move || {
                if strict {
                    l2.lock(|| 7u32)
                } else {
                    l2.try_lock(|| 7u32)
                }
            };
            let (got, waits, helped) = against_parked(&lock, contend, false);
            assert_eq!(got, strict.then_some(7), "strict = {strict}");
            assert_eq!(
                waits,
                HolderWaits {
                    waits: 1,
                    polls: HOLDER_WAIT,
                    moved: 0
                },
                "strict = {strict}"
            );
            assert_eq!(helped, 1, "the parked holder was not helped");
            assert!(!lock.is_locked());
        }
    }

    /// A holder that releases while the contender waits is not helped: the
    /// contender's same `try_lock` or `lock` call installs from a fresh
    /// read. The holder's descriptor, never marked helped, goes back to the
    /// pool instead of the collector.
    #[test]
    fn holder_released_during_the_wait_is_not_helped() {
        let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        for strict in [false, true] {
            let lock = Arc::new(Lock::new());
            let l2 = Arc::clone(&lock);
            let contend = move || {
                if strict {
                    l2.lock(|| 7u32)
                } else {
                    l2.try_lock(|| 7u32)
                }
            };
            let (got, waits, helped) = against_parked(&lock, contend, true);
            assert_eq!(got, Some(7), "strict = {strict}");
            assert_eq!(
                waits,
                HolderWaits {
                    waits: 1,
                    polls: 1,
                    moved: 1
                },
                "strict = {strict}"
            );
            assert_eq!(helped, 0, "the holder was helped (strict = {strict})");
            assert!(!lock.is_locked());
        }
    }

    /// Inside a thunk nothing waits: a nested `try_lock` and a nested lock
    /// set that meet a parked holder help it at once. A top-level set
    /// waits only before its descriptor is installed: its pre-check spends
    /// the whole budget on the parked further word, and its thunk, which
    /// finds that word still held, helps without a further poll.
    #[test]
    fn acquisitions_inside_a_thunk_never_wait() {
        let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        for case in ["nested try_lock", "nested set", "top-level set"] {
            let (outer, first, busy) = (
                Arc::new(Lock::new()),
                Arc::new(Lock::new()),
                Arc::new(Lock::new()),
            );
            let b2 = Arc::clone(&busy);
            // SAFETY (every call): the caller holds `b` for every runner.
            let set = |first: &Lock, b: &Arc<Lock>| unsafe { first.try_lock_set([&**b], || ()) };
            let contend = move || match case {
                "nested try_lock" => outer.try_lock(move || b2.try_lock(|| ()).is_some()),
                "nested set" => outer.try_lock(move || set(&first, &b2).is_some()),
                _ => Some(set(&first, &b2).is_some()),
            };
            let (got, waits, helped) = against_parked(&busy, contend, false);
            assert_eq!(got, Some(false), "{case}");
            let expect = match case {
                "top-level set" => HolderWaits {
                    waits: 1,
                    polls: HOLDER_WAIT,
                    moved: 0,
                },
                _ => HolderWaits::default(),
            };
            assert_eq!(waits, expect, "{case}");
            assert_eq!(helped, 1, "{case}: the parked holder was not helped");
        }
    }
}
