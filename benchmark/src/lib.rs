//! # flock-benchmark — the repo's benchmark
//!
//! Drives the public API of the flock crates from outside with a closed
//! loop of persistent workers replaying seeded tapes, in short windows that
//! alternate lock-free and blocking mode on one instance; checks every
//! result against books it keeps; and prints named metrics with their
//! units. `README.md` defines the workloads and metrics and says how to
//! read the output; `BENCHMARK.json` at the repo root is generated from
//! [`metrics`].
//!
//! Depends only on `flock-sync`, `-epoch`, `-core`, `-api` and `-ds`, and
//! has its own operation generator ([`tape`]).

pub mod bench;
pub mod books;
pub mod engine;
pub mod heap;
pub mod host;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod subject;
pub mod suite;
pub mod tape;
pub mod trace;
pub mod workload;
