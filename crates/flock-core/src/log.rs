//! The thunk log: the heart of log-based idempotence (paper §3.2).
//!
//! Every descriptor owns a log — a chain of fixed-size blocks of write-once
//! entries. All processes running the same thunk commit the results of their
//! loggable operations (mutable loads, tag choices, allocations, retires,
//! explicit commits) to consecutive entries with a CAS; whoever commits first
//! wins and everyone else adopts the committed value. Because every run of a
//! thunk observes the same committed values, all runs take the same branches
//! and stay position-synchronized.
//!
//! ## A chain lives as long as its descriptor
//!
//! A log that outgrows its descriptor's inline block links more blocks
//! ([`LogBlock::next_or_extend`], paper §6, "Arbitrary Length Logs"). The
//! blocks are part of the descriptor from then on: when an unhelped
//! descriptor is pooled for reuse, [`LogBlock::reset`] clears their entries
//! and frees nothing, and only the head block's `Drop` (a descriptor
//! retired through the epoch collector, freed past a full pool, or drained
//! at thread exit) frees the chain. So a pooled descriptor that once ran a
//! long log runs it again with no allocation: the extension is one
//! `Acquire` load of a `next` already set.
//!
//! The reset clears a **prefix**. Every runner of a thunk commits to
//! consecutive entries from entry 0 of the head block, moving to the next
//! block only past the last entry of the current one, and a commit only
//! ever turns an `EMPTY` entry into a value. So the committed entries of
//! one incarnation are a prefix of the chain, everything past the first
//! `EMPTY` entry is still `EMPTY`, and the reset stops there. (A block
//! linked by a runner that then committed nothing to it starts with an
//! `EMPTY` entry, and the reset stops at it too.)

use flock_sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// Entries per log block. The paper's Flock uses 7 by default so that a block
/// plus its next pointer fill one 64-byte cache line.
pub const LOG_BLOCK_ENTRIES: usize = 7;

/// The empty log entry sentinel.
///
/// `u64::MAX` can never be a committed value: packed mutable words reserve
/// tag `0xFFFF` (see `flock_sync::pack`), tag choices and retire markers are
/// small, pointers fit in 48 bits, and user commits are checked.
pub const EMPTY: u64 = u64::MAX;

/// One block of write-once log entries plus a link to the next block.
#[repr(C)]
pub struct LogBlock {
    entries: [AtomicU64; LOG_BLOCK_ENTRIES],
    next: AtomicPtr<LogBlock>,
}

// One cache line, the unit of the pool's memory bound (`descriptor.rs`).
const _: () = assert!(std::mem::size_of::<LogBlock>() == 64);

#[cfg(test)]
thread_local! {
    /// Extension blocks the calling thread has allocated, so a test can
    /// assert that a stretch of its own operations grew no log.
    pub(crate) static EXTENSIONS_ALLOCATED: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

impl LogBlock {
    /// A fresh block with all entries empty.
    pub fn new() -> Self {
        Self {
            entries: [const { AtomicU64::new(EMPTY) }; LOG_BLOCK_ENTRIES],
            next: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Try to commit `val` at `idx`; returns `(committed_value, was_first)`.
    ///
    /// Uses compare-and-compare-and-swap: under helping most commits lose, so
    /// the read-first check avoids the bus traffic of a doomed CAS (§6
    /// "Avoiding CASes").
    /// Ordering: log entries are write-once *agreement* cells, not part of
    /// any cross-location total-order argument — but the committed value is
    /// often a pointer (an idempotent allocation, a nested descriptor)
    /// whose pointee the adopting loser dereferences, so Acquire/Release
    /// edges are required: Release on the winning CAS publishes the
    /// pointee's initialization, Acquire on the pre-read and the failure
    /// path lets every adopter see it. `SeqCst` buys nothing here and costs
    /// a fence per commit on weakly-ordered targets.
    #[inline]
    pub fn commit_at(&self, idx: usize, val: u64) -> (u64, bool) {
        debug_assert!(val != EMPTY, "EMPTY is reserved as the log sentinel");
        #[cfg(feature = "model")]
        if crate::mutants::log_no_agreement() {
            return (val, true);
        }
        let entry = &self.entries[idx];
        let cur = entry.load(Ordering::Acquire);
        if cur != EMPTY {
            return (cur, false);
        }
        match entry.compare_exchange(EMPTY, val, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => (val, true),
            Err(winner) => (winner, false),
        }
    }

    /// Read the entry at `idx` (`EMPTY` if not yet committed).
    #[cfg(test)]
    pub fn read_at(&self, idx: usize) -> u64 {
        // Ordering: Acquire — committed pointers may be dereferenced (see
        // commit_at).
        self.entries[idx].load(Ordering::Acquire)
    }

    /// The block following this one, allocating it idempotently if absent.
    ///
    /// The first thread to run off the end of a block allocates a fresh one
    /// and CASes it into `next`; losers free their block and adopt the winner
    /// (paper §6, "Arbitrary Length Logs"). A block linked by an earlier
    /// incarnation of the same descriptor is kept across its reset (module
    /// docs), so after a descriptor's first long log this is one load.
    pub fn next_or_extend(&self) -> *const LogBlock {
        // Ordering: Acquire/Release pointer publication, same reasoning as
        // commit_at — the block behind the pointer is dereferenced.
        let cur = self.next.load(Ordering::Acquire);
        if !cur.is_null() {
            return cur;
        }
        self.extend()
    }

    /// Allocate the next block and race to link it.
    #[cold]
    fn extend(&self) -> *const LogBlock {
        let fresh = Box::into_raw(Box::new(LogBlock::new()));
        #[cfg(test)]
        EXTENSIONS_ALLOCATED.with(|n| n.set(n.get() + 1));
        match self.next.compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => fresh,
            Err(winner) => {
                // SAFETY: `fresh` was just allocated here and never shared.
                drop(unsafe { Box::from_raw(fresh) });
                winner
            }
        }
    }

    /// The block linked after this one, or null.
    #[cfg(test)]
    pub(crate) fn next_block(&self) -> *const LogBlock {
        self.next.load(Ordering::Acquire)
    }

    /// Clear every committed entry of the chain for the descriptor's next
    /// incarnation, keeping the blocks (descriptor pool reuse).
    ///
    /// The committed entries are a prefix of the chain (module docs), so
    /// the walk stops at the first `EMPTY` entry: a log that stayed inside
    /// its head block costs one store per committed entry and one load.
    ///
    /// # Safety
    ///
    /// No other thread may access this log chain concurrently or afterwards
    /// until the chain is published again (either the descriptor was never
    /// shared, or no runner can reach it any more).
    pub unsafe fn reset(&self) {
        let mut block = self;
        loop {
            for e in &block.entries {
                // Ordering: Relaxed — exclusive access per contract; the
                // next publication of this chain (descriptor install CAS)
                // carries the ordering.
                if e.load(Ordering::Relaxed) == EMPTY {
                    return;
                }
                e.store(EMPTY, Ordering::Relaxed);
            }
            // Acquire: the link may have been published by another runner's
            // release CAS in an earlier incarnation.
            let next = block.next.load(Ordering::Acquire);
            if next.is_null() {
                return;
            }
            // SAFETY: blocks come from `extend` and stay linked until the
            // head block's drop; the chain is exclusively ours per contract.
            block = unsafe { &*next };
        }
    }
}

impl Default for LogBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for LogBlock {
    /// Free the chain. Only a head block is dropped explicitly (it is
    /// embedded in a descriptor), and this is the one place extension blocks
    /// are freed.
    fn drop(&mut self) {
        // Ordering: Acquire — the links were published by runners' release
        // CASes; drop implies exclusive access, so no RMW is needed here.
        let mut p = self.next.load(Ordering::Acquire);
        while !p.is_null() {
            // SAFETY: blocks come from `Box::into_raw` in `extend`, each
            // linked once; drop implies exclusive access to the chain.
            let block = unsafe { Box::from_raw(p) };
            p = block.next.load(Ordering::Acquire);
            // Detach the tail, so this block's own drop frees nothing and a
            // long chain is freed by this loop, not by recursion.
            block.next.store(std::ptr::null_mut(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_first_wins() {
        let b = LogBlock::new();
        let (v, first) = b.commit_at(0, 42);
        assert!(first);
        assert_eq!(v, 42);
        let (v2, first2) = b.commit_at(0, 99);
        assert!(!first2);
        assert_eq!(v2, 42, "losers must adopt the committed value");
        assert_eq!(b.read_at(0), 42);
        assert_eq!(b.read_at(1), EMPTY);
    }

    #[test]
    fn extension_is_idempotent() {
        let b = LogBlock::new();
        let n1 = b.next_or_extend();
        let n2 = b.next_or_extend();
        assert_eq!(n1, n2, "extension must not allocate twice");
        assert!(!n1.is_null());
        // Drop of `b` frees the extension chain.
    }

    #[test]
    fn racing_extensions_converge() {
        let b = std::sync::Arc::new(LogBlock::new());
        let ptrs: Vec<usize> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let b = std::sync::Arc::clone(&b);
                    s.spawn(move || b.next_or_extend() as usize)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(ptrs.windows(2).all(|w| w[0] == w[1]));
    }

    /// The blocks of a chain, head first.
    fn chain(b: &LogBlock) -> Vec<*const LogBlock> {
        let mut out = vec![b as *const LogBlock];
        loop {
            // SAFETY: every block of a live chain is live.
            let next = unsafe { (**out.last().unwrap()).next_block() };
            if next.is_null() {
                return out;
            }
            out.push(next);
        }
    }

    /// A reset clears every committed entry, in the head block and in the
    /// extension, and keeps the extension linked for the next incarnation.
    #[test]
    fn reset_clears_entries_and_extensions() {
        let b = LogBlock::new();
        for i in 0..LOG_BLOCK_ENTRIES {
            b.commit_at(i, 7 + i as u64);
        }
        let ext = b.next_or_extend();
        // SAFETY: `ext` is linked to the live `b`.
        unsafe { (*ext).commit_at(0, 3) };
        // SAFETY: single-threaded test, exclusive access.
        unsafe { b.reset() };
        assert_eq!(chain(&b), [&b as *const LogBlock, ext], "extension kept");
        for block in chain(&b) {
            for i in 0..LOG_BLOCK_ENTRIES {
                // SAFETY: as above.
                assert_eq!(unsafe { (*block).read_at(i) }, EMPTY);
            }
        }
        assert_eq!(b.next_or_extend(), ext, "the kept block is reused");
    }

    /// Run `thunk` in a top-level lock-free `try_lock` of a fresh lock.
    fn run_thunk(thunk: impl Fn() + Send + Sync + 'static) {
        let _guard = crate::lock::TEST_MODE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::set_lock_mode(crate::LockMode::LockFree);
        assert!(crate::Lock::new().try_lock(thunk).is_some());
    }

    /// A thunk committing `n` entries to its log.
    fn commits(n: u64) -> impl Fn() + Send + Sync + 'static {
        move || {
            for i in 0..n {
                crate::ctx::commit_raw(i);
            }
        }
    }

    /// A descriptor keeps its extension block through the pool: a thunk
    /// that spills past the inline block, run again and again on one
    /// thread, allocates one extension in all.
    #[test]
    #[cfg(not(feature = "model"))]
    fn pooled_descriptor_extends_once() {
        assert!(crate::descriptor::pooled().is_empty(), "a fresh thread");
        let before = EXTENSIONS_ALLOCATED.get();
        for _ in 0..100 {
            run_thunk(commits(LOG_BLOCK_ENTRIES as u64 + 3));
        }
        assert_eq!(EXTENSIONS_ALLOCATED.get() - before, 1);
    }

    /// After a long run and then a short one on the same pooled descriptor,
    /// its whole chain, the kept block included, reads `EMPTY` at rest.
    #[test]
    #[cfg(not(feature = "model"))]
    fn pooled_chain_is_empty_at_rest() {
        let at_rest = |d: usize| {
            // SAFETY: pooled descriptors stay live while pooled.
            let head = unsafe { (*(d as *const crate::descriptor::Descriptor)).first_block() };
            let blocks = chain(head);
            for &block in &blocks {
                for i in 0..LOG_BLOCK_ENTRIES {
                    // SAFETY: every block of a live chain is live.
                    assert_eq!(unsafe { (*block).read_at(i) }, EMPTY, "entry {i}");
                }
            }
            blocks.len()
        };
        run_thunk(commits(2 * LOG_BLOCK_ENTRIES as u64 + 1));
        let d = crate::descriptor::pooled()[0];
        assert_eq!(at_rest(d), 3, "a long run spans three blocks");
        run_thunk(commits(2));
        assert_eq!(crate::descriptor::pooled()[0], d, "the pool reuses LIFO");
        assert_eq!(at_rest(d), 3, "the short run keeps the chain");
    }

    #[test]
    fn racing_commits_have_one_winner() {
        let b = std::sync::Arc::new(LogBlock::new());
        let winners: usize = std::thread::scope(|s| {
            (0..8)
                .map(|i| {
                    let b = std::sync::Arc::clone(&b);
                    s.spawn(move || b.commit_at(3, 100 + i as u64).1 as usize)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(winners, 1);
        let v = b.read_at(3);
        assert!((100..108).contains(&v));
    }
}
