//! # flock-sync — low-level synchronization substrate for Flock
//!
//! This crate provides the word-level machinery that the Flock lock-free-locks
//! library ("Lock-Free Locks Revisited", PPoPP 2022) is built on:
//!
//! * [`pack`](mod@pack) — packing of a 16-bit ABA tag and a 48-bit payload into a single
//!   64-bit word, the [`pack::PackedValue`] encoding trait, and the
//!   [`pack::ValueRepr`] representation layer that lets arbitrary (fat)
//!   values ride in a 48-bit slot, either inline or behind epoch-managed
//!   indirection (`flock_epoch::Indirect`). This is the single-word tagged
//!   representation the paper's experiments use (§6 "ABA", second
//!   optimization).
//! * [`tagged`] — [`tagged::TaggedAtomicU64`], an atomic cell over packed words
//!   with *compare-and-compare-and-swap* (read first, CAS only if it could
//!   succeed; §6 "Avoiding CASes").
//! * [`announce`] — the per-thread *tag announcement table* that makes 16-bit
//!   tag wraparound safe: a tag that is announced for a location is never
//!   re-issued for that location while the announcement stands.
//! * [`tid`] — small dense per-thread integer ids (reused on thread exit) and
//!   the active-thread registry ([`tid::scan_bound`]) that keeps per-thread
//!   array scans proportional to the number of live threads.
//! * [`thread_ctx`] — the library's one `thread_local!`, holding every
//!   per-thread variable (id, epoch pin state and retire bag, thunk-log
//!   cursor, descriptor pool, allocator magazines, backoff seed), fetched
//!   once for an operation's work (the epoch guard's drop fetches it
//!   again), with one thread-exit path: a fixed table of per-layer hooks.
//! * [`backoff`] — truncated exponential backoff with deterministic jitter
//!   for contended retry loops.
//! * [`chaos`] — named fault-injection points at the protocol seams: no-op
//!   hooks in default builds, a registered `ChaosPolicy` under the
//!   non-default `chaos` feature (the `flock-chaos` crate's substrate).
//! * [`ttas`] — a test-and-test-and-set spin lock; this is exactly the lock the
//!   paper uses for the *blocking* mode of Flock locks.
//! * [`padded`] — `CachePadded<T>` to keep per-thread hot words on their own
//!   cache lines.
//!
//! Everything here is dependency-free and `unsafe` is confined to the packing
//! and type-erasure primitives with documented invariants.

#![warn(missing_docs)]

pub mod announce;
pub mod approx_len;
pub mod atomic;
pub mod backoff;
pub mod chaos;
pub mod pack;
pub mod padded;
pub mod tagged;
pub mod thread_ctx;
pub mod tid;
pub mod ttas;

pub use announce::TagAnnouncements;
pub use approx_len::ApproxLen;
pub use backoff::Backoff;
pub use pack::{PackedValue, TAG_LIMIT, VAL_MASK, ValueRepr, pack, unpack_tag, unpack_val};
pub use padded::CachePadded;
pub use tagged::TaggedAtomicU64;
pub use thread_ctx::ThreadCtx;
pub use tid::ThreadId;
pub use ttas::TtasLock;

/// Maximum number of live threads that may simultaneously use Flock.
///
/// Announcement and epoch-reservation arrays are statically sized by this, as
/// in the C++ artifact. Thread ids are recycled, so long-running programs can
/// spawn any number of threads as long as no more than this many are *live* at
/// once.
pub const MAX_THREADS: usize = 512;

/// Spin-loop hint wrapper so call sites read well.
#[inline(always)]
pub fn cpu_relax() {
    std::hint::spin_loop();
}
