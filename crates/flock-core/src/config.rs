//! Global runtime configuration: the **lock mode**, in one atomic config
//! word (bit 0).
//!
//! The mode picks lock-free (descriptor + helping) or blocking (TTAS)
//! implementations of every [`Lock`](crate::Lock) operation — the paper's
//! runtime-switchable mode.
//!
//! It is *configuration*, not protocol state: it is meant to be flipped
//! only while no Flock operations are in flight (between benchmark phases,
//! at test boundaries), and mixing modes on live locks is unsupported. It
//! deliberately lives in a **plain std atomic** — not the
//! `flock_sync::atomic` shim — so the model checker does not turn every
//! mode read into a scheduling point. All protocol state on the hot paths
//! lives in `Mutable`/`Descriptor`, which do route through the shim.
//!
//! The setter publishes with `SeqCst`; the hot-path getter loads `Relaxed`
//! (one load, no fence), which is exactly the visibility the "only while
//! quiescent" contract needs.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::lock::LockMode;

/// Bit 0: set = blocking mode, clear = lock-free mode.
const MODE_BLOCKING: u32 = 1 << 0;

/// The config word. Zero = the default: lock-free mode.
static CONFIG: AtomicU32 = AtomicU32::new(0);

/// Select the global lock mode.
///
/// A measurement switch: it exists so that one process, one set of
/// structure instances and one workload can be timed in both modes, paired
/// window by window, which is what keeps a lock-free/blocking ratio
/// repeatable. Flip it only at quiescence — while no Flock operation is in
/// flight (between benchmark phases, at test boundaries); mixing modes on a
/// live lock is not supported, matching the C++ library's runtime flag.
pub fn set_lock_mode(mode: LockMode) {
    let word = if mode == LockMode::Blocking {
        MODE_BLOCKING
    } else {
        0
    };
    CONFIG.store(word, Ordering::SeqCst);
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
