//! A checker that cannot fail checks nothing: two faulty maps, each wrong
//! about once in a thousand calls, must both be caught by the books, and
//! the same runs over the honest map must find nothing.

use std::sync::atomic::{AtomicU64, Ordering};

use flock_api::Map;
use flock_benchmark::engine::{Harness, Plan};
use flock_benchmark::host;
use flock_benchmark::subject::{BenchMap, MapSubject};
use flock_benchmark::tape;
use flock_benchmark::workload::{self, Spec};
use flock_ds::leaftree::LeafTree;

/// What is wrong with a [`Faulty`] map.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    None,
    /// One insert in a thousand reports what an insert would have reported
    /// but inserts nothing.
    DropsInserts,
    /// One get in a thousand returns the value stored under the next key.
    NeighboursValue,
}

struct Faulty {
    inner: LeafTree<u64, u64>,
    fault: Fault,
    calls: AtomicU64,
}

impl Faulty {
    fn new(fault: Fault) -> Self {
        Self {
            inner: LeafTree::new(),
            fault,
            calls: AtomicU64::new(0),
        }
    }

    fn strikes(&self, fault: Fault) -> bool {
        self.fault == fault && self.calls.fetch_add(1, Ordering::Relaxed) % 1000 == 999
    }
}

impl Map<u64, u64> for Faulty {
    fn insert(&self, key: u64, value: u64) -> bool {
        if self.strikes(Fault::DropsInserts) {
            return !self.inner.contains(&key);
        }
        self.inner.insert(key, value)
    }
    fn remove(&self, key: u64) -> bool {
        self.inner.remove(key)
    }
    fn get(&self, key: u64) -> Option<u64> {
        if self.strikes(Fault::NeighboursValue) {
            return self.inner.get(key + 1).or_else(|| self.inner.get(key));
        }
        self.inner.get(key)
    }
    fn name(&self) -> &'static str {
        "faulty-leaftree"
    }
    fn len_approx(&self) -> Option<usize> {
        Map::len_approx(&self.inner)
    }
}

impl BenchMap for Faulty {
    fn scan(&self, lo: u64, hi: u64) -> Option<Vec<(u64, u64)>> {
        self.inner.scan(lo, hi)
    }
    fn check_invariants(&self) {
        self.inner.check_invariants();
    }
}

/// Operations attempted and failed in a short run of `spec` over a leaf
/// tree with `fault`.
fn run(spec: &'static Spec, fault: Fault) -> (u64, u64) {
    let prefill = tape::prefill_keys(spec, 7);
    let subject = MapSubject::build(Faulty::new(fault), &prefill);
    let mut harness = Harness::new(spec, 7, Plan::smoke(host::nproc().min(2), false));
    let data = harness.run(&subject, &prefill, || {});
    (data.attempted, data.failed)
}

/// One test, because the lock mode the engine flips is process-wide.
#[test]
fn seeded_mutants_are_caught_and_the_honest_map_is_not() {
    let churn = workload::find("churn").unwrap();
    let read_mostly = workload::find("read-mostly").unwrap();

    for spec in [churn, read_mostly] {
        let (attempted, failed) = run(spec, Fault::None);
        assert!(
            attempted > 10_000,
            "{}: only {attempted} operations",
            spec.name
        );
        assert_eq!(failed, 0, "{}: the honest map failed the books", spec.name);
    }

    let (_, failed) = run(churn, Fault::DropsInserts);
    assert!(failed > 0, "a map that drops one insert in 1000 passed");

    let (_, failed) = run(read_mostly, Fault::NeighboursValue);
    assert!(failed > 0, "a map that returns a neighbour's value passed");
}
