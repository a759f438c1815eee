//! Thread exit hands a thread's pooled descriptors to the epoch collector.
//!
//! An unhelped lock-free `try_with` retires nothing: its descriptor goes
//! back to the thread's pool for the next call. So when threads that ran
//! only such calls exit, the collector's retired count grows only through
//! the descriptor pool's exit hook, at least one descriptor per thread, and
//! a flush then frees every one of them.
//!
//! Kept as a single `#[test]` in its own binary: the collector's counters
//! are process-wide, and a sibling test's retires would blur the count.

use flock_core::{LockMode, Locked, set_lock_mode};
use flock_epoch::{collector_stats, flush_all};

const THREADS: usize = 4;
const CALLS_PER_THREAD: u64 = 100;

#[test]
fn exiting_threads_retire_their_pooled_descriptors() {
    set_lock_mode(LockMode::LockFree);
    let before = collector_stats();
    // One thread at a time, each on its own cell: nothing contends, so no
    // descriptor is ever helped and none is retired before its thread exits.
    for t in 0..THREADS as u64 {
        std::thread::spawn(move || {
            let cell = Locked::new(t);
            for i in 0..CALLS_PER_THREAD {
                assert_eq!(cell.try_with(move |v| v + i), Some(t + i));
            }
        })
        .join()
        .unwrap();
    }
    let exited = collector_stats();
    assert!(
        exited.retired >= before.retired + THREADS,
        "{THREADS} exited threads retired {} descriptors, want one each at least",
        exited.retired - before.retired
    );
    // Nothing is pinned any more: every retire, the orphaned descriptors
    // included, must now be freed.
    flush_all();
    let flushed = collector_stats();
    assert_eq!(
        flushed.freed, flushed.retired,
        "orphaned descriptors not freed: {flushed:?}"
    );
}
