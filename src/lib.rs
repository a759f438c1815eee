//! # Flock — lock-free locks for Rust
//!
//! A Rust reproduction of *"Lock-Free Locks Revisited"* (Ben-David, Blelloch,
//! Wei — PPoPP 2022). Write ordinary fine-grained-locking code against the
//! [`core`] API and run it either **lock-free** (contenders *help* the lock
//! holder finish its critical section, so a stalled or descheduled thread
//! never blocks the system) or **blocking** (plain test-and-test-and-set spin
//! locks), switchable at runtime.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] ([`flock_core`]) — the paper's contribution: idempotent thunks
//!   via shared logs, `Mutable<V>`, try-locks and strict locks with typed
//!   results, and the [`Locked<T>`](core::Locked) cell fusing a lock with
//!   the data it protects.
//! * [`api`] ([`flock_api`]) — the one public [`Map`](api::Map) interface
//!   every structure in the workspace implements — generically over
//!   `(K, V)`, with fat values via [`Indirect`](api::Indirect). Its test
//!   harness, `map_conformance!` (three `(K, V)` instantiations,
//!   drop-exactly-once reclamation, update-atomicity capability checks),
//!   lives in the dev-only `flock-conformance` crate, which this facade
//!   does not re-export.
//! * [`sync`] ([`flock_sync`]) — tagged-word atomics and spin primitives.
//! * [`epoch`] ([`flock_epoch`]) — epoch-based memory reclamation.
//! * [`ds`] ([`flock_ds`]) — seven lock-based data structures that run
//!   lock-free: doubly/singly linked lists, hash table, three trees, and the
//!   first lock-free adaptive radix tree.
//! * [`baselines`] ([`flock_baselines`]) — hand-crafted lock-free and blocking
//!   comparators used by the paper's evaluation.
//!
//! The paper's figures, with the YCSB-style driver that measures them, are
//! the `flock-bench` crate, which this facade does not re-export either.
//!
//! ## Quickstart: a map, through the one interface
//!
//! ```
//! use flock::api::Map;
//! use flock::core::LockMode;
//!
//! // Run critical sections lock-free (helping + logging)…
//! flock::core::set_lock_mode(LockMode::LockFree);
//!
//! let list: flock::ds::dlist::DList<u64, u64> = flock::ds::dlist::DList::new();
//! assert!(list.insert(1, 10));
//! assert_eq!(list.get(1), Some(10));
//! assert!(list.contains(&1));
//! assert!(list.remove(1));
//!
//! // …or with classic blocking spin locks — same code, runtime switch.
//! flock::core::set_lock_mode(LockMode::Blocking);
//! assert!(list.insert(2, 20));
//! # flock::core::set_lock_mode(LockMode::LockFree);
//! ```
//!
//! ## Quickstart: your own critical sections with `Locked<T>`
//!
//! ```
//! use flock::core::{Locked, Mutable};
//!
//! struct Counter { hits: Mutable<u64> }
//! let counter = Locked::new(Counter { hits: Mutable::new(0) });
//!
//! // `None` = lock busy; `Some(r)` carries the closure's typed result.
//! let after = counter.try_with(|c| {
//!     let n = c.hits.load() + 1;
//!     c.hits.store(n);
//!     n
//! });
//! assert_eq!(after, Some(1));
//! assert_eq!(counter.hits.load(), 1); // unlocked read via Deref
//! ```

pub use flock_api as api;
pub use flock_baselines as baselines;
pub use flock_core as core;
pub use flock_ds as ds;
pub use flock_epoch as epoch;
pub use flock_sync as sync;
