//! Tag announcement table: makes 16-bit ABA-tag wraparound safe.
//!
//! A `Mutable`'s tag space has only 2^16 values, so a tag eventually repeats.
//! A helper that read a packed word long ago could then perform a stale CAS
//! that wrongly succeeds. The paper sketches Flock's fix (§6 "ABA"): an
//! announcement array ensures a tag that is *announced* is never re-issued
//! for that location. This module is the protocol's one write-up; the
//! callers (`flock_core::Mutable`'s store/CAM tail) only cite it.
//!
//! ## The protocol
//!
//! 1. A helper about to use packed word `(t, v)` at location `L` as a
//!    CAS-expected value first **announces** `(L, t)` in its slot, then issues
//!    a store–load barrier, then re-validates that the thunk it is helping is
//!    not yet done. If done, it skips the CAS entirely; either way it clears
//!    the slot afterwards.
//! 2. A store choosing the *next* tag for `L` calls
//!    [`TagAnnouncements::next_free_tag`]. Inside a window the answer is the
//!    successor of the current tag, which every helper of the same store
//!    computes for itself from the old word it already agreed on; on a
//!    window entry ([`is_window_entry`]) the answer depends on what the scan
//!    saw, so there the chosen tag is committed to the thunk log and every
//!    helper builds the identical new word from the committed choice.
//!
//! ## Window-entry scans
//!
//! The expected word `(t, v)` of a stale helper is dangerous only once `L`
//! carries tag `t` *again*, i.e. after a full lap of the tag space (the
//! value-reuse hazard of Hapax Locks, Dice & Kogan). So the table need not
//! be read on every issue. The tag space is cut into aligned **windows** of
//! [`TAG_WINDOW`](crate::pack::TAG_WINDOW) tags, and:
//!
//! * a candidate strictly inside its window is issued as is, with no table
//!   access;
//! * a candidate that is a **window start** is issued only after one scan
//!   found no standing announcement for `L` with a tag *anywhere in that
//!   window*; a window that holds one is skipped whole, and the next window
//!   start is tried the same way.
//!
//! Tags of one location only ever advance `+1` or jump to a later window
//! start, and a non-start tag is only ever the successor of a tag in its own
//! window. So between the store that displaced `(t, v)` and any later issue
//! of `t`, the location's tag left `t`'s window and came back in **through
//! the window start** — through one entry scan `E` that found the window
//! clean. `E` ran in a critical section on `L`'s lock that began after the
//! helped thunk was done and unlocked (the lap in between consists of whole
//! critical sections). That is the same Dekker pair the per-issue scan used
//! to form, moved to the entry point:
//!
//! * `E` sees the helper's announcement `(L, t)`: the window is skipped, and
//!   `t` is not issued while the announcement stands.
//! * `E` misses it: then the helper's done-check, which follows its
//!   announcement, observes `done = true` and the stale CAS is skipped.
//!
//! Either way no stale CAS can succeed. Every issuer goes through
//! `next_free_tag` — in-thunk stores, top-level stores and top-level lock
//! acquisitions alike — so no window of any `Mutable` is ever entered
//! unscanned. (The blocking-mode lock arms bump the tag by hand: blocking
//! mode has no helpers, hence no announcers, and the mode flips only at
//! quiescence.)
//!
//! **Termination.** Each live thread holds at most one announcement, so at
//! most [`MAX_THREADS`] windows are dirty for one location; there are more
//! windows than that (asserted below), so a skip loop ends within one lap.
//! The last window, `[65472, 0xFFFF)`, is one tag short: the reserved
//! [`TAG_LIMIT`](crate::pack::TAG_LIMIT) is never issued and never announced.
//!
//! ## Memory ordering
//!
//! The protocol needs a store–load (Dekker) barrier on both sides: the
//! announcer between its announcement store and its done-check load, and
//! the scanner between its lock acquisition and its slot loads. Both are
//! `SeqCst` fences — the announcer's right after its announcement, and one
//! at the start of each entry scan — and the slot accesses are `Release`
//! stores and `Relaxed` loads. The descriptor's done flag is written with
//! `Release` and read with `Acquire`. With `F_a` the announcer's fence and
//! `F_s` the scanner's, the `SeqCst` total order leaves exactly two cases:
//!
//! * `F_a < F_s`: the scanner's post-fence loads must observe the
//!   announcer's pre-fence `(tag, loc)` stores (or later values) — the
//!   announcement is seen and the window is not entered.
//! * `F_s < F_a`: the scanner may miss the announcement, but then the
//!   announcer's post-fence done-load observes `done = true` — `set_done`
//!   happens-before the unlock CAM, which happens-before the scanner's lock
//!   acquisition (both `SeqCst` RMWs), which is sequenced before `F_s` —
//!   and the stale CAS is skipped.
//!
//! A torn read (stale `loc` with a newer `tag`, possible under `Relaxed`)
//! pairs a location with a tag its announcer never held for it. That can
//! skip a usable window, or miss an announcement that was already being
//! overwritten — whose CAS is therefore over.
//!
//! This is the one variant on every target, and the one `flock-model`
//! checks. On x86 the fence is a `lock or`, and `set_done`, a `Release`
//! store, is a plain `mov`.
//!
//! Scans iterate only up to [`tid::scan_bound`] — the live upper bound of
//! the active-thread registry. A slot above the bound cannot hold a live
//! announcement: the bound is raised (with `SeqCst` order) when a thread
//! claims its id, before that thread can announce anything, so the same
//! case analysis that makes an announcement visible makes the raised bound
//! visible to any scan that must see it.

use crate::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The scanner-side barrier (module docs, "Memory ordering").
#[inline(always)]
fn scan_fence() {
    crate::atomic::fence(Ordering::SeqCst);
}

/// Model-only sanity mutants: deliberate protocol weakenings the model
/// checker must be able to catch (see `flock-model`'s test suite). Compiled
/// out of every non-`model` build.
#[cfg(feature = "model")]
pub mod mutants {
    use core::sync::atomic::{AtomicBool, Ordering};

    /// Drop the announcer-side `SeqCst` fence: the announcement store stays
    /// in the announcer's store buffer past its done-check — the exact lost-
    /// announcement Dekker failure the fence exists to prevent.
    pub static SKIP_ANNOUNCE_FENCE: AtomicBool = AtomicBool::new(false);

    pub(crate) fn skip_announce_fence() -> bool {
        SKIP_ANNOUNCE_FENCE.load(Ordering::Relaxed)
    }

    /// Window entry always reports the window clean: a tag is re-issued
    /// under a standing announcement whose done-check came too early to see
    /// `done` — the lost announcement the entry scan exists to prevent.
    pub static SKIP_WINDOW_SCAN: AtomicBool = AtomicBool::new(false);

    pub(crate) fn skip_window_scan() -> bool {
        SKIP_WINDOW_SCAN.load(Ordering::Relaxed)
    }
}

use crate::MAX_THREADS;
use crate::pack::{tag_limit, tag_window};
use crate::padded::CachePadded;
use crate::tid::{self, ThreadId};

// Termination of the window skip loop (module docs): more whole windows
// than one-slot announcers. Model builds shrink both constants and bound
// their thread counts instead (see `pack::TAG_WINDOW`).
#[cfg(not(feature = "model"))]
const _: () =
    assert!(crate::pack::TAG_LIMIT as usize / crate::pack::TAG_WINDOW as usize > MAX_THREADS);

/// Sentinel for "no announcement" in a slot's location field.
const NONE: usize = 0;

struct Slot {
    /// Address of the announced location (`TaggedAtomicU64`), or [`NONE`].
    loc: AtomicUsize,
    /// Announced tag, valid only while `loc` is non-zero.
    tag: AtomicU64,
}

/// Global table of per-thread tag announcements.
///
/// A process-wide singleton is available via [`global`]; separate instances
/// exist to make unit testing possible.
pub struct TagAnnouncements {
    slots: [CachePadded<Slot>; MAX_THREADS],
}

impl TagAnnouncements {
    /// Create a table sized for [`MAX_THREADS`] threads.
    pub const fn new() -> Self {
        Self {
            slots: [const {
                CachePadded::new(Slot {
                    loc: AtomicUsize::new(NONE),
                    tag: AtomicU64::new(0),
                })
            }; MAX_THREADS],
        }
    }

    /// Announce that the calling thread may CAS `loc_addr` expecting `tag`.
    ///
    /// Includes the announcer-side store–load barrier (a `SeqCst` fence);
    /// the caller must follow with its re-validation read (the descriptor
    /// done-check) before the CAS, and clear with
    /// [`TagAnnouncements::clear`] afterwards.
    #[inline]
    pub fn announce(&self, tid: ThreadId, loc_addr: usize, tag: u16) {
        debug_assert_ne!(loc_addr, NONE);
        let slot = &self.slots[tid.0];
        // Ordering: the tag is published by the Release `loc` store, which
        // keeps the tag store ordered before it; the `SeqCst` fence is the
        // announcer's side of the Dekker pair, pairing with the scanner's
        // fence (module docs, "Memory ordering").
        slot.tag.store(tag as u64, Ordering::Relaxed);
        slot.loc.store(loc_addr, Ordering::Release);
        #[cfg(feature = "model")]
        if mutants::skip_announce_fence() {
            return;
        }
        crate::atomic::fence(Ordering::SeqCst);
    }

    /// Clear the calling thread's announcement.
    #[inline]
    pub fn clear(&self, tid: ThreadId) {
        // Ordering: Release so the preceding CAS cannot sink below the
        // clear. A scanner that still sees the stale announcement only
        // skips a tag — conservative, never unsafe.
        self.slots[tid.0].loc.store(NONE, Ordering::Release);
    }

    /// Is `(loc_addr, tag)` currently announced by any thread?
    ///
    /// A per-tag query for tests and diagnostics; issuing goes through
    /// [`TagAnnouncements::next_free_tag`]. Issues its own scanner-side
    /// barrier.
    #[inline]
    pub fn is_announced(&self, loc_addr: usize, tag: u16) -> bool {
        scan_fence();
        self.scan_slots(loc_addr, |t| t == tag)
    }

    /// Does any live slot announce `loc_addr` with a tag satisfying `hit`?
    /// Caller must have issued the scanner-side barrier ([`scan_fence`])
    /// after acquiring the location's lock (module docs, "Memory ordering").
    #[inline]
    fn scan_slots(&self, loc_addr: usize, hit: impl Fn(u16) -> bool) -> bool {
        // Live-thread bound: slots above it hold no live announcement (the
        // registry raises the bound SeqCst-before a claimer can announce).
        let bound = tid::scan_bound().min(self.slots.len());
        self.slots[..bound].iter().any(|slot| {
            // Ordering: Relaxed, anchored by the caller's scan fence; a torn
            // (loc, tag) pair is harmless (module docs, "Memory ordering").
            slot.loc.load(Ordering::Relaxed) == loc_addr
                && hit(slot.tag.load(Ordering::Relaxed) as u16)
        })
    }

    /// The tag to issue for `loc_addr` when `start` is the successor of its
    /// current tag: `start` itself while that stays inside its window, and
    /// otherwise the start of the first window from `start` on (cyclically)
    /// that holds no standing announcement for `loc_addr`. The reserved
    /// [`TAG_LIMIT`](crate::pack::TAG_LIMIT) counts as tag 0.
    ///
    /// The caller must hold the location's lock (module docs, "Window-entry
    /// scans"). Only a window start reads the table — one call in
    /// [`TAG_WINDOW`](crate::pack::TAG_WINDOW).
    #[inline]
    pub fn next_free_tag(&self, loc_addr: usize, start: u16) -> u16 {
        if !is_window_entry(start) {
            return start;
        }
        self.enter_window(loc_addr, start)
    }

    /// Window entry: scan, skipping whole windows until one is clean.
    #[cold]
    fn enter_window(&self, loc_addr: usize, start: u16) -> u16 {
        let (limit, width) = (tag_limit(), tag_window());
        let mut t = if start >= limit { 0 } else { start };
        #[cfg(feature = "model")]
        if mutants::skip_window_scan() {
            return t;
        }
        // One scanner-side barrier for all windows probed: each probe's
        // loads are sequenced after it, which is all the case analysis
        // needs.
        scan_fence();
        // Terminates within a lap: fewer announcers than windows.
        while self.scan_slots(loc_addr, |a| a / width == t / width) {
            t = match t.checked_add(width) {
                Some(next) if next < limit => next,
                _ => 0,
            };
        }
        t
    }
}

/// Does issuing `start` — the successor of a location's current tag — enter
/// a tag window (a window start, or the reserved
/// [`TAG_LIMIT`](crate::pack::TAG_LIMIT), which counts as tag 0)? Only then
/// does [`TagAnnouncements::next_free_tag`] read the table and possibly
/// return something other than `start`; everywhere else the issued tag is a
/// pure function of the current one. A property of the tag alone, so every
/// runner of a thunk that agrees on the current word agrees on this too.
#[inline(always)]
pub fn is_window_entry(start: u16) -> bool {
    start.is_multiple_of(tag_window()) || start >= tag_limit()
}

impl Default for TagAnnouncements {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide announcement table used by `flock-core`: a `static`,
/// so a tag issue reaches it with no initialization check and no pointer
/// to follow. Each slot is on cache lines of its own (`CachePadded`), so
/// no slot shares a line with a static that other threads write,
/// whichever statics the linker places next to the table.
#[inline(always)]
pub fn global() -> &'static TagAnnouncements {
    static GLOBAL: TagAnnouncements = TagAnnouncements::new();
    &GLOBAL
}

/// Model-checker support: clear every slot of the global table.
///
/// A pruned/aborted model execution can leave a thread's announcement
/// standing (the thread was unwound between announce and clear); the next
/// execution's scans would then see it and diverge from the recorded
/// schedule. The model engine calls this between executions, when no model
/// threads are live.
#[cfg(feature = "model")]
pub fn model_reset_global() {
    for slot in global().slots.iter() {
        slot.loc.store(NONE, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{TAG_LIMIT, TAG_WINDOW};

    #[test]
    fn announce_then_clear() {
        let t = TagAnnouncements::new();
        let me = tid::current();
        t.announce(me, 0x1000, 7);
        assert!(t.is_announced(0x1000, 7));
        assert!(!t.is_announced(0x1000, 8));
        assert!(!t.is_announced(0x2000, 7));
        t.clear(me);
        assert!(!t.is_announced(0x1000, 7));
    }

    #[test]
    fn next_free_tag_skips_announced() {
        let t = TagAnnouncements::new();
        let me = tid::current();
        // A standing announcement in the middle of window 1.
        let w = TAG_WINDOW;
        let held = w + w / 2;
        t.announce(me, 0x1000, held);
        assert_eq!(t.next_free_tag(0x1000, w), 2 * w, "dirty window skipped");
        assert_eq!(t.next_free_tag(0x1000, 0), 0, "clean window entered");
        assert_eq!(
            t.next_free_tag(0x1000, held),
            held,
            "a mid-window candidate comes back untouched: no table access"
        );
        assert_eq!(t.next_free_tag(0x2000, w), w, "other locations unaffected");
        t.clear(me);
        assert_eq!(t.next_free_tag(0x1000, w), w, "cleared window enterable");
    }

    #[test]
    fn next_free_tag_wraps_past_reserved() {
        let t = TagAnnouncements::new();
        let me = tid::current();
        // The last window is one tag short in production, `[65472, 0xFFFF)`:
        // TAG_LIMIT - 1 is its last usable tag.
        let last = TAG_LIMIT - 1;
        let last_start = last / TAG_WINDOW * TAG_WINDOW;
        assert_eq!(t.next_free_tag(0x3000, last), last, "mid-window");
        assert_eq!(t.next_free_tag(0x3000, last_start), last_start);
        t.announce(me, 0x3000, last);
        assert_eq!(
            t.next_free_tag(0x3000, last_start),
            0,
            "skipping the last window wraps to 0, never to TAG_LIMIT or past it"
        );
        // The reserved value as a candidate is tag 0: a window start.
        assert_eq!(t.next_free_tag(0x3000, TAG_LIMIT), 0);
        t.announce(me, 0x3000, 1);
        assert_eq!(t.next_free_tag(0x3000, TAG_LIMIT), TAG_WINDOW);
        t.clear(me);
    }

    #[test]
    fn reannounce_overwrites() {
        let t = TagAnnouncements::new();
        let me = tid::current();
        t.announce(me, 0x1000, 1);
        t.announce(me, 0x1000, 2);
        assert!(!t.is_announced(0x1000, 1), "slot holds one announcement");
        assert!(t.is_announced(0x1000, 2));
        t.clear(me);
    }
}
