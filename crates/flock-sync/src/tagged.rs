//! Atomic cell over tag-packed 64-bit words.

use crate::atomic::{AtomicU64, Ordering};
use crate::pack::{pack, unpack_tag, unpack_val};

/// An atomic 64-bit word holding a (16-bit tag, 48-bit payload) pair.
///
/// This is the storage cell behind `flock_core::Mutable`. All operations work
/// on whole packed words; interpretation of the payload is left to the caller.
///
/// The CAS entry point is [`TaggedAtomicU64::ccas`], a
/// *compare-and-compare-and-swap*: it reads the word first and skips the CAS
/// when it cannot succeed. The paper reports this simple change is worth up to
/// 2x under high contention with helping (§6 "Avoiding CASes") because
/// helpers usually find someone already performed the update.
#[derive(Debug)]
#[repr(transparent)]
pub struct TaggedAtomicU64 {
    word: AtomicU64,
}

impl TaggedAtomicU64 {
    /// Create a cell holding `val` with tag 0.
    #[inline]
    pub fn new(val: u64) -> Self {
        Self {
            word: AtomicU64::new(pack(0, val)),
        }
    }

    /// Load the full packed word.
    #[inline(always)]
    pub fn load_packed(&self, order: Ordering) -> u64 {
        self.word.load(order)
    }

    /// Load only the payload bits.
    #[inline(always)]
    pub fn load_val(&self, order: Ordering) -> u64 {
        unpack_val(self.word.load(order))
    }

    /// Load only the tag bits.
    #[inline(always)]
    pub fn load_tag(&self, order: Ordering) -> u16 {
        unpack_tag(self.word.load(order))
    }

    /// Compare-and-compare-and-swap on packed words.
    ///
    /// Reads the word and returns `false` immediately when it differs from
    /// `expected`; otherwise attempts a single `compare_exchange`. Returns
    /// whether this call installed `new`.
    #[inline(always)]
    pub fn ccas(&self, expected: u64, new: u64) -> bool {
        // Ordering: Relaxed pre-read. A mismatch SKIPS the CAS, so the
        // downgrade is sound only because the read can never be stale
        // enough to mis-skip: every caller obtained `expected` either from
        // its own read of this cell (read-read coherence forbids going
        // backwards) or from a thunk-log commit, whose Acquire read
        // happens-after the committer's read of this cell — so this read is
        // coherence-ordered at or after the read that produced `expected`.
        // If it differs, the cell has genuinely moved past `expected`
        // (tagged words never repeat a value while it could be expected —
        // that is the announcement table's job) and the CAS must fail
        // anyway. The SeqCst compare_exchange below is the linearization
        // point when the pre-read matches.
        if self.word.load(Ordering::Relaxed) != expected {
            return false;
        }
        self.word
            .compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Plain `compare_exchange` without the pre-read, for call sites that just
    /// performed the read themselves.
    #[inline(always)]
    pub fn cas(&self, expected: u64, new: u64) -> bool {
        self.word
            .compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::VAL_MASK;
    use std::sync::Arc;
    use std::sync::atomic::Ordering::SeqCst;

    #[test]
    fn new_has_tag_zero() {
        let c = TaggedAtomicU64::new(7);
        assert_eq!(c.load_tag(SeqCst), 0);
        assert_eq!(c.load_val(SeqCst), 7);
    }

    #[test]
    fn ccas_succeeds_once() {
        let c = TaggedAtomicU64::new(1);
        let old = c.load_packed(SeqCst);
        let new = pack(1, 2);
        assert!(c.ccas(old, new));
        assert!(!c.ccas(old, pack(2, 3)), "stale expected must fail");
        assert_eq!(c.load_val(SeqCst), 2);
        assert_eq!(c.load_tag(SeqCst), 1);
    }

    #[test]
    fn ccas_skips_when_mismatch() {
        let c = TaggedAtomicU64::new(5);
        assert!(!c.ccas(pack(9, 9), pack(10, 10)));
        assert_eq!(c.load_val(SeqCst), 5);
    }

    #[test]
    fn payload_mask() {
        let c = TaggedAtomicU64::new(VAL_MASK);
        assert_eq!(c.load_val(SeqCst), VAL_MASK);
    }

    /// With distinct tags, exactly one of many racing CASes with the same
    /// expected word wins — the ABA-freedom property `Mutable` relies on.
    #[test]
    fn racing_cas_single_winner() {
        let c = Arc::new(TaggedAtomicU64::new(0));
        let old = c.load_packed(SeqCst);
        let winners: usize = std::thread::scope(|s| {
            (0..8)
                .map(|i| {
                    let c = Arc::clone(&c);
                    s.spawn(move || c.ccas(old, pack(1, 100 + i)) as usize)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(winners, 1);
        assert_eq!(c.load_tag(SeqCst), 1);
    }
}
