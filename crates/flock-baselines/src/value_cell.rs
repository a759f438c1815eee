//! A lock-free per-node value cell for the baseline structures — the
//! non-Flock counterpart of flock-ds's per-node `flock_core::Mutable` value
//! slots.
//!
//! The CAS-based baselines historically replaced whole nodes, so their
//! `Map::update` fell back to the non-atomic remove+insert composite. This
//! cell gives every baseline a **native atomic update** the way
//! `blocking_bst`'s revive slot already worked: the value lives in one
//! atomic word of encoded [`ValueRepr`] payload bits, readers
//! snapshot-decode it without locks, and a writer replaces it with a single
//! atomic swap that epoch-retires the displaced encoding. Inline values pay
//! one atomic op; fat `Indirect<T>` values ride behind an epoch-managed
//! pointer, so concurrent readers keep a stable snapshot across the swap
//! and every displaced encoding is dropped exactly once.
//!
//! Unlike the Flock slot there is no thunk log here — baselines have no
//! helpers replaying critical sections — so `replace` is just swap+retire.
//! Concurrent `replace`s on one cell are allowed (each swap displaces
//! exactly one encoding); the structure only has to guarantee the cell
//! outlives its readers, which epoch reclamation of the owning node already
//! does.

use std::sync::atomic::{AtomicU64, Ordering};

use flock_api::Value;

/// One atomic word of encoded value bits with snapshot reads and
/// swap-and-retire replacement. See the module docs.
pub(crate) struct ValueCell<V: Value> {
    bits: AtomicU64,
    _v: std::marker::PhantomData<V>,
}

// SAFETY: the cell is one atomic word; `V: Value` implies the decoded
// payloads are Send + Sync.
unsafe impl<V: Value> Send for ValueCell<V> {}
unsafe impl<V: Value> Sync for ValueCell<V> {}

impl<V: Value> ValueCell<V> {
    /// A new cell holding `v` (allocates for indirect representations).
    pub(crate) fn new(v: V) -> Self {
        Self {
            bits: AtomicU64::new(V::encode(v)),
            _v: std::marker::PhantomData,
        }
    }

    /// Snapshot-decode the current value. Caller must be epoch-pinned (all
    /// baseline operations pin on entry).
    #[inline]
    pub(crate) fn load(&self) -> V {
        // SAFETY: the cell always holds a live encoding — `replace` retires
        // the displaced one through the collector and the final one is
        // freed only at cell drop (post-grace for retired nodes); the
        // caller is pinned per the contract.
        unsafe { V::decode(self.bits.load(Ordering::SeqCst)) }
    }

    /// Replace the value: one atomic swap, displaced encoding retired
    /// through the epoch collector. Caller must be epoch-pinned.
    #[inline]
    pub(crate) fn replace(&self, v: V) {
        let old = self.bits.swap(V::encode(v), Ordering::SeqCst);
        // SAFETY: `old` was displaced by the swap above (each encoding is
        // displaced by exactly one swap) and the caller is pinned; readers
        // that still decode it are protected by the grace period.
        unsafe { V::retire_bits(old) };
    }
}

impl<V: Value> Drop for ValueCell<V> {
    fn drop(&mut self) {
        // SAFETY: exclusive access (drop); the final encoding is freed
        // exactly once. For cells inside collector-retired nodes this runs
        // after the grace period, so no reader can still be decoding it.
        unsafe { V::dealloc_bits(self.bits.load(Ordering::Relaxed)) };
    }
}

impl<V: Value> std::fmt::Debug for ValueCell<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let _g = flock_epoch::pin();
        f.debug_tuple("ValueCell").field(&self.load()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_epoch::Indirect;

    #[test]
    fn inline_roundtrip() {
        let c = ValueCell::new(5u64);
        assert_eq!(c.load(), 5);
        let _g = flock_epoch::pin();
        c.replace(9);
        assert_eq!(c.load(), 9);
    }

    #[test]
    fn indirect_replace_retires_displaced() {
        let c: ValueCell<Indirect<Vec<u64>>> = ValueCell::new(Indirect(vec![1, 2]));
        {
            let _g = flock_epoch::pin();
            c.replace(Indirect(vec![3, 4, 5]));
            assert_eq!(c.load(), Indirect(vec![3, 4, 5]));
        }
        drop(c);
        flock_epoch::flush_all();
    }
}
