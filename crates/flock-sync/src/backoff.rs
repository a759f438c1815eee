//! Truncated exponential backoff with deterministic per-instance jitter
//! for contended retry loops.
//!
//! ## Why jitter (the convoy problem)
//!
//! The pre-jitter backoff waited exactly `2^step` spins at every site. When
//! a lock holder stalls, every waiter walks the *same* deterministic wait
//! sequence, so threads that collided once re-arrive at the lock word in
//! lockstep forever — a convoy: each retry round is a synchronized burst of
//! CAS/load traffic, and on release the whole cohort stampedes at once.
//! Jitter decorrelates the waiters: each `Backoff` seeds a thread-distinct
//! xorshift generator and draws its actual wait uniformly from
//! `[2^step / 2, 2^step]`, so two waiters at the same step disagree on
//! timing and the bursts spread out.
//!
//! ## The hard cap
//!
//! The wait is bounded by [`Backoff::MAX_SPIN`] iterations regardless of
//! step (and the step itself saturates), so a single `snooze`/`spin` call
//! can never wait more than a fixed, unit-tested number of spin-loop
//! iterations. Escalation past the spin phase switches to `yield_now`, one
//! scheduler quantum per call — the caller's retry loop stays live and
//! polls at bounded intervals, which is what lets a helper notice a stalled
//! owner instead of sleeping through it.

use crate::cpu_relax;
use crate::thread_ctx;

/// Exponential backoff with jitter: a spin phase followed by a yield phase.
///
/// Spin `~2^k` times (jittered, capped at [`Backoff::MAX_SPIN`]) while `k`
/// is small, then yield the CPU so an oversubscribed scheduler can run the
/// thread that holds the resource.
#[derive(Debug)]
pub struct Backoff {
    step: u32,
    /// Per-instance xorshift state; seeded from per-thread state so
    /// same-step waiters on different threads draw different waits. Zero
    /// (which xorshift fixes) until the first wait draws the seed.
    rng: u32,
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl Backoff {
    /// Spins before yielding; `2^SPIN_LIMIT` is the longest pure-spin wait.
    const SPIN_LIMIT: u32 = 6;
    /// Cap on the backoff exponent.
    const YIELD_LIMIT: u32 = 10;
    /// Hard cap on a single call's spin count, independent of the step
    /// arithmetic: no `snooze`/`spin` call may wait longer than this many
    /// spin-loop iterations (unit-tested below).
    pub const MAX_SPIN: u32 = 1 << Self::SPIN_LIMIT;

    /// Fresh backoff state. Its thread-distinct jitter seed is drawn on
    /// its first wait: most retry loops never wait, and then a `Backoff`
    /// costs nothing.
    #[inline]
    pub const fn new() -> Self {
        Self { step: 0, rng: 0 }
    }

    /// Next jittered wait for the current step: uniform-ish in
    /// `[base/2, base]` where `base = min(2^step, MAX_SPIN)`. Always at
    /// least 1 and at most [`Backoff::MAX_SPIN`].
    #[inline]
    fn jittered_wait(&mut self) -> u32 {
        // xorshift32 (Marsaglia): cheap, never zero for nonzero state.
        let mut x = if self.rng == 0 {
            // Zero is excluded because xorshift fixes it.
            next_seed() | 1
        } else {
            self.rng
        };
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.rng = x;
        let base = 1u32 << self.step.min(Self::SPIN_LIMIT);
        let half = (base / 2).max(1);
        half + x % half
    }

    /// Back off once, escalating the wait each call.
    #[inline]
    pub fn snooze(&mut self) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..self.jittered_wait() {
                cpu_relax();
            }
        } else {
            std::thread::yield_now();
        }
        if self.step < Self::YIELD_LIMIT {
            self.step += 1;
        }
    }

    /// Spin-only backoff for very short critical sections; never yields.
    #[inline]
    pub fn spin(&mut self) {
        for _ in 0..self.jittered_wait() {
            cpu_relax();
        }
        if self.step < Self::SPIN_LIMIT {
            self.step += 1;
        }
    }

    /// True once the backoff has escalated past pure spinning, a hint that the
    /// caller may want to take a slow path (e.g. help, or park).
    #[inline]
    pub fn is_yielding(&self) -> bool {
        self.step > Self::SPIN_LIMIT
    }

    /// Reset to the initial (shortest) wait.
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

/// The next jitter seed of the calling thread: a hash of (thread index,
/// per-thread count), kept in the thread's `ThreadCtx`, so seeds differ
/// across threads and from one `Backoff` to the next on one thread. Only a
/// thread's first call touches shared state, to draw its index: one
/// process-wide counter bumped per call would be a locked RMW on a shared
/// line in every retry loop. During TLS teardown, with the context gone,
/// every draw hashes (0, 0): a `Backoff` there still varies its own
/// successive waits, just not across threads.
#[cold]
fn next_seed() -> u32 {
    use std::sync::atomic::{AtomicU32, Ordering};
    static THREADS: AtomicU32 = AtomicU32::new(1);
    let (index, count) = thread_ctx::try_with(|tc| {
        let (mut index, count) = tc.backoff_seed.get();
        if index == 0 {
            index = THREADS.fetch_add(1, Ordering::Relaxed);
        }
        tc.backoff_seed.set((index, count.wrapping_add(1)));
        (index, count)
    })
    .unwrap_or((0, 0));
    // The 64-bit finalizer of MurmurHash3: every input bit reaches every
    // output bit, so neighbouring (index, count) pairs start far apart.
    let mut x = (u64::from(index) << 32) | u64::from(count);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 33;
    x as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_then_saturates() {
        let mut b = Backoff::new();
        assert!(!b.is_yielding());
        for _ in 0..Backoff::SPIN_LIMIT + 1 {
            b.snooze();
        }
        assert!(b.is_yielding());
        for _ in 0..100 {
            b.snooze(); // must not overflow or panic
        }
        b.reset();
        assert!(!b.is_yielding());
    }

    #[test]
    fn spin_never_yields() {
        let mut b = Backoff::new();
        for _ in 0..100 {
            b.spin();
        }
        assert!(!b.is_yielding());
    }

    /// The hard cap: at every step, over many draws, the jittered wait is
    /// within `[1, MAX_SPIN]` — a single backoff call can never spin longer
    /// than the cap no matter how far the step has escalated.
    #[test]
    fn wait_is_hard_capped() {
        let mut b = Backoff::new();
        for step in 0..=Backoff::YIELD_LIMIT {
            b.step = step;
            for _ in 0..1000 {
                let w = b.jittered_wait();
                assert!(w >= 1, "wait underflowed at step {step}");
                assert!(
                    w <= Backoff::MAX_SPIN,
                    "wait {w} exceeds hard cap {} at step {step}",
                    Backoff::MAX_SPIN
                );
            }
        }
    }

    /// Jitter actually varies: consecutive draws at a fixed step are not all
    /// identical (the convoy precondition is lockstep-identical waits), and
    /// two independently-created `Backoff`s disagree on their draw sequence.
    #[test]
    fn jitter_decorrelates() {
        let mut b = Backoff::new();
        b.step = Backoff::SPIN_LIMIT; // widest jitter window [32, 64]
        let draws: Vec<u32> = (0..32).map(|_| b.jittered_wait()).collect();
        assert!(
            draws.windows(2).any(|w| w[0] != w[1]),
            "draws never varied: {draws:?}"
        );
        let mut c = Backoff::new();
        c.step = Backoff::SPIN_LIMIT;
        let other: Vec<u32> = (0..32).map(|_| c.jittered_wait()).collect();
        assert_ne!(draws, other, "two Backoff instances drew identical jitter");
    }

    /// A `Backoff` that never waits never draws a seed: constructing and
    /// dropping one leaves the thread's seed count where it was, and the
    /// first wait draws exactly one.
    #[test]
    fn seed_is_drawn_on_first_wait() {
        let drawn = || thread_ctx::with(|tc| tc.backoff_seed.get().1);
        let before = drawn();
        for _ in 0..10 {
            std::hint::black_box(Backoff::new());
        }
        assert_eq!(drawn(), before, "constructing a Backoff drew a seed");
        let mut b = Backoff::new();
        b.spin();
        b.spin();
        b.snooze();
        assert_eq!(drawn(), before + 1, "not one seed per waiting Backoff");
    }
}
