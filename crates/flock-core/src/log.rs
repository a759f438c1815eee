//! The thunk log: the heart of log-based idempotence (paper §3.2).
//!
//! Every descriptor owns a log — a chain of fixed-size blocks of write-once
//! entries. All processes running the same thunk commit the results of their
//! loggable operations (mutable loads, tag choices, allocations, retires,
//! explicit commits) to consecutive entries with a CAS; whoever commits first
//! wins and everyone else adopts the committed value. Because every run of a
//! thunk observes the same committed values, all runs take the same branches
//! and stay position-synchronized.

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
    /// (paper §6, "Arbitrary Length Logs").
    pub fn next_or_extend(&self) -> *const LogBlock {
        // Ordering: Acquire/Release pointer publication, same reasoning as
        // commit_at — the block behind the pointer is dereferenced.
        let cur = self.next.load(Ordering::Acquire);
        if !cur.is_null() {
            return cur;
        }
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

    /// Free all extension blocks hanging off this one and clear the link.
    ///
    /// # Safety
    ///
    /// No other thread may access this log chain concurrently or afterwards
    /// (either the descriptor was never shared, or a reclamation grace period
    /// has passed).
    pub unsafe fn free_extensions(&self) {
        // Ordering: exclusive access per the caller contract, so no RMW —
        // this runs on every descriptor recycle and almost always finds no
        // chain. The chain pointers were published by other threads'
        // release CASes, so acquire them before dereferencing.
        let mut p = self.next.load(Ordering::Acquire);
        if p.is_null() {
            return;
        }
        self.next.store(std::ptr::null_mut(), Ordering::Relaxed);
        while !p.is_null() {
            // Detach the tail before dropping: LogBlock's Drop would
            // otherwise free the rest of the chain while this loop still
            // walks it.
            // SAFETY: blocks come from Box::into_raw in next_or_extend and
            // the chain is exclusively ours per the caller contract.
            let next = unsafe { (*p).next.swap(std::ptr::null_mut(), Ordering::Acquire) };
            // SAFETY: as above; freed exactly once.
            drop(unsafe { Box::from_raw(p) });
            p = next;
        }
    }

    /// Reset all entries to empty (descriptor pool reuse).
    ///
    /// # Safety
    ///
    /// Same contract as [`LogBlock::free_extensions`].
    pub unsafe fn reset(&self) {
        // SAFETY: forwarded contract.
        unsafe { self.free_extensions() };
        for e in &self.entries {
            // Ordering: Relaxed — exclusive access per contract; the next
            // publication of this block (descriptor install CAS) carries
            // the ordering.
            e.store(EMPTY, Ordering::Relaxed);
        }
    }
}

impl Default for LogBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for LogBlock {
    fn drop(&mut self) {
        // Only the head block is dropped explicitly (it is embedded in a
        // descriptor); free any extensions exactly once.
        // SAFETY: drop implies exclusive access.
        unsafe { self.free_extensions() };
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

    #[test]
    fn reset_clears_entries_and_extensions() {
        let b = LogBlock::new();
        b.commit_at(0, 7);
        b.next_or_extend();
        // SAFETY: single-threaded test, exclusive access.
        unsafe { b.reset() };
        assert_eq!(b.read_at(0), EMPTY);
        assert!(b.next.load(Ordering::SeqCst).is_null());
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
