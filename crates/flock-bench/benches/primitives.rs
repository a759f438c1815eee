//! Microbenchmarks of the Flock primitives: lock acquire/release in both
//! modes, idempotent load/store (top-level and in-thunk), nested locks,
//! epoch pin, and the idempotent alloc/retire cycle. These quantify the
//! per-operation overheads the paper attributes to lock-free mode
//! (descriptor allocation + log commits).
//!
//! The suite itself lives in `flock_bench::bench_json::run_primitive_suite`
//! so the `perf_trajectory` binary reports the identical cases.
//!
//! Dependency-free custom harness (`harness = false`): each case is run in
//! batches until a time budget is spent, and the best (lowest) per-op time
//! is reported — the usual defense against scheduler noise.
//!
//! ```sh
//! cargo bench -p flock-bench
//! # machine-readable output too:
//! FLOCK_BENCH_JSON=bench.json cargo bench -p flock-bench
//! ```

use std::time::Duration;

use flock_bench::bench_json::{BenchReport, run_primitive_suite};

fn main() {
    println!("flock primitive microbenchmarks (best of batches, lower is better)");
    let primitives = run_primitive_suite(Duration::from_millis(200));
    if let Ok(path) = std::env::var("FLOCK_BENCH_JSON") {
        let report = BenchReport {
            primitives,
            throughput: Vec::new(),
        };
        std::fs::write(&path, report.to_json()).expect("write FLOCK_BENCH_JSON");
        println!("wrote {path}");
    }
}
