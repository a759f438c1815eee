//! A small ordered key-value store on the Flock (a,b)-tree, driven by a
//! YCSB-style zipfian workload — the OLTP-index scenario the paper's
//! evaluation mimics.
//!
//! The tree implements `flock_api::Map` directly, so it plugs into the
//! figure harness's driver (`flock_bench::run_experiment`) with no adapter.
//!
//! ```sh
//! cargo run --release --example kv_store
//! ```

use flock::core::{LockMode, set_lock_mode};
use flock::ds::abtree::ABTree;
use flock_bench::{Config, SplitMix64, Zipfian, run_experiment};
use std::time::Duration;

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);

    // Show what zipfian skew means concretely.
    let z = Zipfian::new(1000, 0.99);
    let mut rng = SplitMix64::new(42);
    let mut head = 0;
    for _ in 0..10_000 {
        if z.next(&mut rng) < 10 {
            head += 1;
        }
    }
    println!(
        "zipf(0.99): the hottest 1% of keys receive {}% of accesses",
        head / 100
    );

    // YCSB workload A (50% updates) and B (5% updates) on the store,
    // in both lock modes.
    for (workload, update_pct) in [("YCSB-A (50% upd)", 50), ("YCSB-B (5% upd)", 5)] {
        for mode in [LockMode::LockFree, LockMode::Blocking] {
            set_lock_mode(mode);
            let store: ABTree<u64, u64> = ABTree::new();
            let cfg = Config {
                threads,
                key_range: 100_000,
                update_percent: update_pct,
                zipf_alpha: 0.99,
                run_duration: Duration::from_millis(400),
                repeats: 2,
                sparsify_keys: false,
                seed: 99,
            };
            let m = run_experiment(&store, &cfg);
            println!(
                "{workload} | {:9} | {:6.2} ± {:4.2} Mop/s",
                if mode == LockMode::LockFree {
                    "lock-free"
                } else {
                    "blocking"
                },
                m.mops_mean,
                m.mops_stddev
            );
        }
    }
    set_lock_mode(LockMode::LockFree);
}
