//! RAII epoch pinning and helper epoch adoption.
//!
//! The per-thread pin state (`pin_depth`, `ops_since_collect`) lives in
//! [`flock_sync::ThreadCtx`] — the workspace-wide single thread-local — so
//! a caller that already holds the context can pin with [`pin_with`] and
//! unpin with [`EpochGuard::unpin_with`] without another TLS access.

use flock_sync::atomic::{Ordering, fence};
use flock_sync::{ThreadCtx, thread_ctx, tid};

use crate::collector::{self, QUIESCENT};

/// Model-only sanity mutants (see `flock-model`). Compiled out of every
/// non-`model` build.
#[cfg(feature = "model")]
pub mod mutants {
    use core::sync::atomic::{AtomicBool, Ordering};

    /// Skip the pin-publication `SeqCst` fence (and its post-fence
    /// re-validation): the reservation store stays in the pinning thread's
    /// store buffer, a concurrent collector scan misses it, and an object
    /// the pinned thread still references gets freed — the exact
    /// use-after-free the fence pairing exists to exclude.
    pub static SKIP_PIN_FENCE: AtomicBool = AtomicBool::new(false);

    pub(crate) fn skip_pin_fence() -> bool {
        SKIP_PIN_FENCE.load(Ordering::Relaxed)
    }
}

/// Collect this thread's bag every N outermost unpins.
const COLLECT_PERIOD: usize = 128;

pub(crate) fn is_pinned() -> bool {
    thread_ctx::with(|tc| tc.pin_depth.get() > 0)
}

/// RAII guard marking the calling thread as *inside an operation*.
///
/// While any guard lives, objects that were reachable when the outermost
/// guard was created will not be freed. Guards nest; only the outermost one
/// publishes and clears the reservation.
///
/// `!Send`/`!Sync` (the raw-pointer marker): the guard owns a slice of the
/// *creating* thread's state — its `ThreadCtx` pin depth and its
/// reservation slot — so dropping it from another thread would decrement
/// the wrong thread's pin depth and clear a reservation that still
/// protects the first thread's accesses.
#[derive(Debug)]
pub struct EpochGuard {
    tid: tid::ThreadId,
    outermost: bool,
    _not_send: std::marker::PhantomData<*mut ()>,
}

/// Pin the current thread: enter the current global epoch.
pub fn pin() -> EpochGuard {
    thread_ctx::with(pin_with)
}

/// [`pin`] for callers that already fetched the thread context (the lock
/// hot path does exactly one TLS access per operation and passes the
/// context down by reference).
pub fn pin_with(tc: &ThreadCtx) -> EpochGuard {
    let depth = tc.pin_depth.get();
    tc.pin_depth.set(depth + 1);
    let me = tc.tid();
    if depth == 0 {
        let res = collector::reservation_of(me);
        // Publish a reservation equal to the epoch we observe; re-read to
        // make sure the published value was current when published.
        //
        // Ordering: the store can be Relaxed because the SeqCst fence is
        // the linearization point of pin publication — a collector scan
        // whose own SeqCst fence follows ours must observe the reservation
        // (store is sequenced before our fence), and a scan that precedes
        // ours may miss it but then its epoch-advance CAS (SeqCst) is
        // observed by the post-fence re-read below, which retries. Either
        // way no advance can outrun a returned pin by more than the one
        // epoch the two-epoch reclamation slack already budgets for.
        loop {
            let e = collector::global_epoch().load(Ordering::Relaxed);
            res.store(e, Ordering::Relaxed);
            #[cfg(feature = "model")]
            if mutants::skip_pin_fence() {
                break;
            }
            fence(Ordering::SeqCst);
            // Post-fence re-read: sees every epoch-advance CAS that is
            // SeqCst-ordered before our fence (C++20 fence rule).
            if collector::global_epoch().load(Ordering::Relaxed) == e {
                break;
            }
        }
        // Chaos seam: reservation just published — a stall here is a
        // forever-pinned thread, the case the collector must degrade
        // gracefully under (bags grow bounded-and-reported, never freed
        // out from under the reservation). No-op in default builds.
        flock_sync::chaos::probe(flock_sync::chaos::Seam::EpochPinned);
    }
    EpochGuard {
        tid: me,
        outermost: depth == 0,
        _not_send: std::marker::PhantomData,
    }
}

/// The epoch currently reserved by this thread, if pinned.
pub fn pinned_epoch() -> Option<u64> {
    if !is_pinned() {
        return None;
    }
    // Ordering: Relaxed — reading our own thread's reservation (coherence
    // guarantees we see our own latest store).
    let v = collector::reservation_of(tid::current()).load(Ordering::Relaxed);
    (v != QUIESCENT).then_some(v)
}

impl EpochGuard {
    /// The epoch this thread has reserved.
    #[inline]
    pub fn epoch(&self) -> u64 {
        // Ordering: Relaxed — own-thread reservation (see pinned_epoch).
        collector::reservation_of(self.tid).load(Ordering::Relaxed)
    }

    /// Temporarily lower this thread's reservation to
    /// `min(current, target_epoch)` — *epoch adoption* for helping.
    ///
    /// The returned [`AdoptGuard`] restores the previous reservation on drop.
    /// A `SeqCst` fence is issued after publishing the lowered reservation;
    /// the caller **must revalidate** (re-read the lock word / descriptor
    /// state) after this call and before dereferencing anything protected by
    /// the adopted epoch.
    #[inline]
    pub fn adopt(&self, target_epoch: u64) -> AdoptGuard {
        let res = collector::reservation_of(self.tid);
        // Ordering: Relaxed load (own reservation) and Relaxed store — the
        // SeqCst fence below is the publication point, exactly as in
        // `pin_with`: any collector scan that must not miss the lowered
        // reservation has a fence ordered after ours; one that precedes
        // ours is answered by the caller's mandatory revalidation read.
        let prev = res.load(Ordering::Relaxed);
        let lowered = prev.min(target_epoch);
        if lowered != prev {
            res.store(lowered, Ordering::Relaxed);
        }
        fence(Ordering::SeqCst);
        AdoptGuard {
            tid: self.tid,
            prev,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Unpin against the caller's thread context: exactly what dropping
    /// the guard does, without the guard's own fetch of the context.
    ///
    /// `tc` must be the creating thread's context, as [`pin_with`] got it.
    /// The caller holds `tc` for the guard's whole life, which is what
    /// makes this sound where `Drop` must fetch: a guard may outlive the
    /// `thread_ctx::with` call that pinned it, and be dropped during thread
    /// exit after the context's exit hooks ran, when no context is left to
    /// borrow. A guard created and unpinned inside one `thread_ctx::with`
    /// closure cannot: the context stays borrowed, so alive, from the pin
    /// to the unpin. A guard that unwinds instead still drops through
    /// `Drop`.
    #[inline]
    pub fn unpin_with(self, tc: &ThreadCtx) {
        let guard = std::mem::ManuallyDrop::new(self);
        guard.unpin(tc);
    }

    /// The unpin both [`EpochGuard::unpin_with`] and `Drop` make.
    #[inline(always)]
    fn unpin(&self, tc: &ThreadCtx) {
        debug_assert_eq!(
            tc.tid(),
            self.tid,
            "unpinned against another thread's context"
        );
        tc.pin_depth.set(tc.pin_depth.get() - 1);
        if !self.outermost {
            return;
        }
        // Ordering: Release — the operation's reads and writes of
        // protected objects are sequenced before this clear; a collector
        // that observes QUIESCENT acquires them (via the trailing acquire
        // fence of its scan) before freeing, so no free can race an
        // in-flight access from this section.
        collector::reservation_of(self.tid).store(QUIESCENT, Ordering::Release);
        let v = tc.ops_since_collect.get() + 1;
        if v >= COLLECT_PERIOD {
            tc.ops_since_collect.set(0);
            collect_due();
        } else {
            tc.ops_since_collect.set(v);
        }
    }
}

/// Every [`COLLECT_PERIOD`]th outermost unpin: advance and collect.
#[cold]
#[inline(never)]
fn collect_due() {
    collector::try_advance();
    collector::collect_local();
}

impl Drop for EpochGuard {
    fn drop(&mut self) {
        thread_ctx::with(|tc| self.unpin(tc));
    }
}

/// Restores the pre-adoption reservation on drop. See [`EpochGuard::adopt`].
///
/// `!Send`/`!Sync` for the same reason as [`EpochGuard`]: its drop writes
/// the creating thread's reservation slot.
#[derive(Debug)]
pub struct AdoptGuard {
    tid: tid::ThreadId,
    prev: u64,
    _not_send: std::marker::PhantomData<*mut ()>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        // Ordering: Release — raising the reservation back must not become
        // visible before the helping section's accesses are done, same
        // argument as the EpochGuard unpin store.
        collector::reservation_of(self.tid).store(self.prev, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_publishes_and_clears() {
        assert_eq!(pinned_epoch(), None);
        {
            let g = pin();
            assert!(pinned_epoch().is_some());
            assert_eq!(pinned_epoch(), Some(g.epoch()));
        }
        assert_eq!(pinned_epoch(), None);
    }

    #[test]
    fn nested_pins_share_reservation() {
        let g1 = pin();
        let e1 = g1.epoch();
        {
            let g2 = pin();
            assert_eq!(g2.epoch(), e1, "inner guard must not re-reserve");
        }
        assert!(is_pinned());
        drop(g1);
        assert!(!is_pinned());
    }

    #[test]
    fn pin_with_context_matches_pin() {
        let g = flock_sync::thread_ctx::with(pin_with);
        assert!(is_pinned());
        assert_eq!(pinned_epoch(), Some(g.epoch()));
        drop(g);
        assert!(!is_pinned());
    }

    /// The state an unpin of a guard on a fresh thread leaves: the pin
    /// depth, whether the reservation is what it was before the pin (the
    /// enclosing guard's epoch, or quiescent), and the count toward the
    /// next collection.
    fn after_unpin(nested: bool, unpin: fn(EpochGuard, &ThreadCtx)) -> (usize, bool, usize) {
        std::thread::spawn(move || {
            thread_ctx::with(|tc| {
                let outer = nested.then(|| pin_with(tc));
                let before = outer.as_ref().map_or(QUIESCENT, EpochGuard::epoch);
                unpin(pin_with(tc), tc);
                let res = collector::reservation_of(tc.tid()).load(Ordering::Relaxed);
                (
                    tc.pin_depth.get(),
                    res == before,
                    tc.ops_since_collect.get(),
                )
            })
        })
        .join()
        .unwrap()
    }

    #[test]
    fn unpin_with_matches_drop() {
        for nested in [false, true] {
            let by_drop = after_unpin(nested, |g, _| drop(g));
            let by_ctx = after_unpin(nested, |g, tc| g.unpin_with(tc));
            assert_eq!(by_ctx, by_drop, "nested = {nested}");
            let expect = (usize::from(nested), true, usize::from(!nested));
            assert_eq!(by_ctx, expect, "nested = {nested}");
        }
    }

    #[test]
    fn adopt_lowers_then_restores() {
        let g = pin();
        let e = g.epoch();
        {
            let _a = g.adopt(e.saturating_sub(2));
            assert_eq!(g.epoch(), e.saturating_sub(2));
            {
                // Nested adoption (helping chains) keeps the minimum.
                let _a2 = g.adopt(e); // higher target: no-op
                assert_eq!(g.epoch(), e.saturating_sub(2));
            }
            assert_eq!(g.epoch(), e.saturating_sub(2));
        }
        assert_eq!(g.epoch(), e, "restored after adoption ends");
    }

    #[test]
    fn adopt_never_raises() {
        let g = pin();
        let e = g.epoch();
        let _a = g.adopt(e + 10);
        assert_eq!(g.epoch(), e);
    }
}
