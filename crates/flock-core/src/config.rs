//! Global runtime configuration, unified in **one atomic config word**.
//!
//! Two knobs share the word (previously `set_lock_mode` and `set_helping`
//! were two ad-hoc statics with separate orderings):
//!
//! * **Lock mode** (bit 0): lock-free (descriptor + helping) vs blocking
//!   (TTAS) implementations of every [`Lock`](crate::Lock) operation —
//!   the paper's runtime-switchable mode.
//! * **Helping** (bit 1, inverted: set = disabled): the ablation hook that
//!   turns off helping so its cost/benefit can be measured. Disabling it
//!   forfeits lock-freedom.
//!
//! Both are *configuration*, not protocol state: they are meant to be
//! flipped only while no Flock operations are in flight (between benchmark
//! phases, at test boundaries), and mixing values on live locks is
//! unsupported. They deliberately live in a **plain std atomic** — not the
//! `flock_sync::atomic` shim — so the model checker does not turn every
//! configuration read into a scheduling point. All protocol state on the
//! hot paths lives in `Mutable`/`Descriptor`, which do route through the
//! shim.
//!
//! Setters publish with `SeqCst`; the hot-path getters load `Relaxed` (one
//! load, no fence), which is exactly the visibility the "only while
//! quiescent" contract needs.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::lock::LockMode;

/// Bit 0: set = blocking mode, clear = lock-free mode.
const MODE_BLOCKING: u32 = 1 << 0;
/// Bit 1: set = helping **disabled** (clear-by-default keeps the zero word
/// meaning "lock-free, helping on").
const HELPING_OFF: u32 = 1 << 1;

/// The config word. Zero = the defaults: lock-free mode, helping enabled.
static CONFIG: AtomicU32 = AtomicU32::new(0);

#[inline]
fn set_bit(bit: u32, on: bool) {
    if on {
        CONFIG.fetch_or(bit, Ordering::SeqCst);
    } else {
        CONFIG.fetch_and(!bit, Ordering::SeqCst);
    }
}

/// Select the global lock mode.
///
/// Must only be changed while no Flock operations are in flight (e.g.
/// between benchmark phases); mixing modes on a live lock is not supported,
/// matching the C++ library's runtime flag.
pub fn set_lock_mode(mode: LockMode) {
    set_bit(MODE_BLOCKING, mode == LockMode::Blocking);
}

/// The current global lock mode.
#[inline]
pub fn lock_mode() -> LockMode {
    if CONFIG.load(Ordering::Relaxed) & MODE_BLOCKING == 0 {
        LockMode::LockFree
    } else {
        LockMode::Blocking
    }
}

/// Enable/disable helping (ablation hook): when disabled, a lock-free
/// `try_lock` that finds the lock taken simply fails without running the
/// holder's thunk. This forfeits lock-freedom and exists only to measure
/// what helping costs/buys. Not meant to be toggled while operations run.
pub fn set_helping(enabled: bool) {
    set_bit(HELPING_OFF, !enabled);
}

/// Is helping currently enabled?
#[inline]
pub(crate) fn helping_enabled() -> bool {
    CONFIG.load(Ordering::Relaxed) & HELPING_OFF == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two knobs pack into one word without clobbering each other.
    #[test]
    fn knobs_are_independent() {
        let _guard = crate::lock::TEST_MODE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::Blocking);
        set_helping(false);
        assert_eq!(lock_mode(), LockMode::Blocking);
        assert!(!helping_enabled());
        set_lock_mode(LockMode::LockFree);
        assert!(!helping_enabled(), "mode write must not clobber helping");
        set_helping(true);
        assert_eq!(lock_mode(), LockMode::LockFree);
        assert!(helping_enabled());
    }
}
