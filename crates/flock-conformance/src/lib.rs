//! # flock-conformance — the shared test harness for Flock maps
//!
//! A dev-only crate: every structure crate lists it under
//! `[dev-dependencies]`, and no library crate depends on it, so none of
//! this code is compiled into a dependent's build (CI's lint job checks
//! that with `cargo tree -e normal -i flock-conformance`).
//!
//! It holds the one lock-mode guard of every crate above `flock-core`
//! ([`with_mode`], [`both_modes`], [`exclusive`]), the checks behind the
//! conformance suites (a `BTreeMap` oracle, partitioned and oversubscribed
//! stress, `update` atomicity, drop-exactly-once reclamation of fat values,
//! presence-only `contains`, and range scans), and the two macros that
//! stamp those checks out per structure.
//!
//! ## Conformance harness
//!
//! [`map_conformance!`] stamps out the shared test suite for one structure:
//! a sequential differential check against [`std::collections::BTreeMap`],
//! a partitioned multi-thread stress and an oversubscribed helping stress —
//! each in **both** lock modes where applicable — at three `(K, V)`
//! instantiations (`(u64, u64)`, a small-inline combo `(u32, u16)`, and a
//! heap-indirected fat combo `(u64, Indirect<[u64; 4]>)`), plus a
//! drop-exactly-once reclamation check for the indirect path and an
//! `update` atomicity check at the same three instantiations — the fat one
//! exercising the indirect-value RMW end to end. Structures that ignore the lock mode (the baselines)
//! simply run the mode-sensitive suites twice:
//!
//! ```ignore
//! flock_conformance::map_conformance!(dlist, flock_ds::dlist::DList::new());
//! ```
//!
//! The `$make` expression must therefore be instantiable at every `(K, V)`
//! combination above — true for every registry structure since they are
//! generic. [`ordered_map_conformance!`] adds the range-scan oracle and the
//! concurrent scan-consistency check for [`OrderedMap`] structures.

#![warn(missing_docs)]

use flock_api::{Indirect, Key, Map, OrderedMap, Value};
use flock_core::{LockMode, set_lock_mode};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// Process-wide lock serializing tests that touch the global lock mode:
/// switching modes while another test's operations are in flight is
/// unsupported (as in the paper's library), so mode-sensitive tests must
/// not overlap within one test process.
static MODE_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run `f` with the global lock mode set to `mode`, restoring the
/// default lock-free mode afterwards (also on unwind). Serialized
/// against every other mode-touching test in the process — the one
/// mode mutex of every crate above `flock-core` (which keeps its own
/// `#[cfg(test)]` guard: a dev-dependency on this crate would link a
/// second copy of its mode static).
pub fn with_mode<R>(mode: LockMode, f: impl FnOnce() -> R) -> R {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_lock_mode(LockMode::LockFree);
        }
    }
    let _guard = MODE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_lock_mode(mode);
    let _restore = Restore;
    f()
}

/// Run `test` under both lock modes (lock-free first), restoring
/// lock-free afterwards.
pub fn both_modes(test: impl Fn()) {
    for mode in [LockMode::LockFree, LockMode::Blocking] {
        with_mode(mode, &test);
    }
}

/// Run `test` in the (default) lock-free mode while holding the same
/// exclusion as [`with_mode`].
pub fn exclusive(test: impl Fn()) {
    with_mode(LockMode::LockFree, test);
}

/// A tiny xorshift generator so the harness needs no external crates.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The harness's fat value constructor: four words derived from `x`, so
/// a decode of the wrong allocation (or a torn snapshot) cannot pass
/// the equality checks. Cannot fit a 48-bit payload — it exercises the
/// heap-indirected representation end to end.
pub fn fat_value(x: u64) -> Indirect<[u64; 4]> {
    Indirect([x, x ^ 0xA5A5_A5A5_A5A5_A5A5, !x, x.rotate_left(17)])
}

/// Single-threaded differential test against a `BTreeMap` oracle, at an
/// arbitrary `(K, V)` instantiation: `kf`/`vf` map the oracle's dense
/// `u64` key ids and value stamps into the map's domain (`kf` must be
/// injective on `0..key_range`).
pub fn oracle_check_as<K, V, M, KF, VF>(
    map: &M,
    ops: usize,
    key_range: u64,
    seed: u64,
    kf: KF,
    vf: VF,
) where
    K: Key,
    V: Value,
    M: Map<K, V> + ?Sized,
    KF: Fn(u64) -> K,
    VF: Fn(u64) -> V,
{
    let mut oracle = BTreeMap::new();
    let mut state = seed | 1;
    for i in 0..ops {
        let k = xorshift(&mut state) % key_range;
        let v = i as u64;
        match xorshift(&mut state) % 3 {
            0 => {
                let expect = !oracle.contains_key(&k);
                if expect {
                    oracle.insert(k, v);
                }
                assert_eq!(
                    map.insert(kf(k), vf(v)),
                    expect,
                    "seed {seed}: insert({k}) disagreed with oracle at op {i}"
                );
            }
            1 => {
                let expect = oracle.remove(&k).is_some();
                assert_eq!(
                    map.remove(kf(k)),
                    expect,
                    "seed {seed}: remove({k}) disagreed with oracle at op {i}"
                );
            }
            _ => {
                assert_eq!(
                    map.get(kf(k)),
                    oracle.get(&k).map(|&x| vf(x)),
                    "seed {seed}: get({k}) disagreed with oracle at op {i}"
                );
            }
        }
    }
    // Final sweep: every oracle key must be present with the right value.
    for (k, v) in &oracle {
        assert_eq!(
            map.get(kf(*k)),
            Some(vf(*v)),
            "seed {seed}: final sweep mismatch at key {k}"
        );
    }
    // Maintained/computed counters must be exact when quiescent.
    if let Some(n) = map.len_approx() {
        assert_eq!(
            n,
            oracle.len(),
            "quiescent len_approx disagrees with the oracle size"
        );
    }
}

/// Single-threaded differential test at the paper's `(u64, u64)` shape.
pub fn oracle_check<M: Map<u64, u64> + ?Sized>(map: &M, ops: usize, key_range: u64, seed: u64) {
    oracle_check_as(map, ops, key_range, seed, |k| k, |v| v);
}

/// Multi-threaded stress test: per-key-partition determinism, at an
/// arbitrary `(K, V)` instantiation (see [`oracle_check_as`] for the
/// `kf`/`vf` contract; `kf` must be injective on the generated ids).
///
/// Each thread owns a disjoint key partition (`id % threads == tid`),
/// so per-thread sequential semantics must hold exactly even under full
/// concurrency.
pub fn partition_stress_as<K, V, M, KF, VF>(map: &M, threads: u64, ops: usize, kf: KF, vf: VF)
where
    K: Key,
    V: Value,
    M: Map<K, V> + ?Sized,
    KF: Fn(u64) -> K + Sync,
    VF: Fn(u64) -> V + Sync,
{
    std::thread::scope(|s| {
        for t in 0..threads {
            let map = &map;
            let kf = &kf;
            let vf = &vf;
            s.spawn(move || {
                let mut present = BTreeMap::new();
                let mut state = (t + 1) * 0x9E37_79B9;
                for i in 0..ops {
                    let k = (xorshift(&mut state) % 512) * threads + t;
                    let v = i as u64;
                    match xorshift(&mut state) % 3 {
                        0 => {
                            let expect = !present.contains_key(&k);
                            if expect {
                                present.insert(k, v);
                            }
                            assert_eq!(map.insert(kf(k), vf(v)), expect, "t{t} insert({k}) op {i}");
                        }
                        1 => {
                            let expect = present.remove(&k).is_some();
                            assert_eq!(map.remove(kf(k)), expect, "t{t} remove({k}) op {i}");
                        }
                        _ => {
                            assert_eq!(
                                map.get(kf(k)),
                                present.get(&k).map(|&x| vf(x)),
                                "t{t} get({k}) op {i}"
                            );
                        }
                    }
                }
                for (k, v) in &present {
                    assert_eq!(map.get(kf(*k)), Some(vf(*v)), "t{t} final sweep key {k}");
                }
            });
        }
    });
}

/// Multi-threaded partitioned stress at the paper's `(u64, u64)` shape.
pub fn partition_stress<M: Map<u64, u64> + ?Sized>(map: &M, threads: u64, ops: usize) {
    partition_stress_as(map, threads, ops, |k| k, |v| v);
}

/// Oversubscribed stress: more threads than cores, so lock holders get
/// descheduled mid-critical-section and (in lock-free mode) contenders
/// must *help* them — the paper's headline path, exercised here by the
/// tier-1 conformance suite rather than only by an example binary.
///
/// Two phases per thread: a partitioned phase with exact per-partition
/// oracle semantics, and a shared-hot-key phase (every thread hammers
/// the same few keys, maximizing lock collisions) checked by invariant
/// rather than oracle. Caller should run this in lock-free mode; it is
/// also valid (just less interesting) under blocking locks.
pub fn oversubscribed_stress<M: Map<u64, u64> + ?Sized>(map: &M, ops: usize) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    // At least 4x oversubscription on small CI boxes, bounded so giant
    // dev machines do not turn the test into a thread-spawn benchmark.
    let threads = (2 * cores).clamp(8, 24) as u64;
    const HOT_KEYS: u64 = 4;
    std::thread::scope(|s| {
        for t in 0..threads {
            let map = &map;
            s.spawn(move || {
                let mut present = BTreeMap::new();
                let mut state = (t + 1) * 0x9E37_79B9;
                for i in 0..ops {
                    // Shared phase: all threads fight over HOT_KEYS
                    // keys; return values are racy but every op must
                    // complete (helping keeps the system moving past
                    // descheduled holders).
                    let hot = xorshift(&mut state) % HOT_KEYS;
                    match xorshift(&mut state) % 3 {
                        0 => {
                            let _ = map.insert(hot, t);
                        }
                        1 => {
                            let _ = map.remove(hot);
                        }
                        _ => {
                            let _ = map.get(hot);
                        }
                    }
                    // Partitioned phase: exact sequential semantics on
                    // this thread's own keys, concurrently with the
                    // contention above.
                    let k = HOT_KEYS + (xorshift(&mut state) % 64) * threads + t;
                    let v = i as u64;
                    match xorshift(&mut state) % 3 {
                        0 => {
                            let expect = !present.contains_key(&k);
                            if expect {
                                present.insert(k, v);
                            }
                            assert_eq!(map.insert(k, v), expect, "t{t} insert({k}) op {i}");
                        }
                        1 => {
                            let expect = present.remove(&k).is_some();
                            assert_eq!(map.remove(k), expect, "t{t} remove({k}) op {i}");
                        }
                        _ => {
                            assert_eq!(
                                map.get(k),
                                present.get(&k).copied(),
                                "t{t} get({k}) op {i}"
                            );
                        }
                    }
                }
                for (k, v) in &present {
                    assert_eq!(map.get(*k), Some(*v), "t{t} final sweep key {k}");
                }
            });
        }
    });
    // Quiescent cleanup of the contended keys: they must be in a
    // coherent present-or-absent state.
    for k in 0..HOT_KEYS {
        let present = map.contains(k);
        assert_eq!(map.remove(k), present, "hot key {k} in incoherent state");
        assert!(!map.contains(k), "hot key {k} still present after removal");
    }
}

/// Exercise the provided-method surface (`contains`, `update`,
/// `len_approx`) against the primary operations.
pub fn default_methods_check<M: Map<u64, u64> + ?Sized>(map: &M) {
    assert!(!map.contains(7));
    assert!(
        !map.update(7, 70),
        "update of an absent key must be a no-op"
    );
    assert!(!map.contains(7), "failed update must not insert");
    assert!(map.insert(7, 70));
    assert!(map.contains(7));
    assert!(map.update(7, 71));
    assert_eq!(map.get(7), Some(71));
    assert!(map.insert(8, 80));
    if let Some(n) = map.len_approx() {
        assert_eq!(n, 2, "quiescent len_approx must be exact");
    }
    assert!(map.remove(7));
    assert!(map.remove(8));
    assert!(!map.contains(7));
    assert!(!map.name().is_empty());
}

/// Verify that a structure's [`Map::update`] is atomic under concurrency,
/// at an arbitrary `(K, V)` instantiation (see [`oracle_check_as`] for the
/// `kf`/`vf` contract — additionally `vf` must be injective on the value
/// stamps used here, so a torn or stale decode cannot masquerade as a
/// legal value): while one thread flips a key's value through `update`,
/// readers must never observe the key absent nor any value outside the
/// two being written. A map on the trait's remove-then-insert default
/// fails it.
pub fn update_atomicity_check_as<K, V, M, KF, VF>(map: &M, kf: KF, vf: VF)
where
    K: Key,
    V: Value,
    M: Map<K, V> + ?Sized,
    KF: Fn(u64) -> K + Sync,
    VF: Fn(u64) -> V + Sync,
{
    const KEY: u64 = 7;
    assert!(map.insert(kf(KEY), vf(1)));
    const READERS: usize = 3;
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let (map, kf, vf) = (&map, &kf, &vf);
                s.spawn(move || {
                    let (a, b) = (vf(1), vf(2));
                    for i in 0..3_000 {
                        let got = map.get(kf(KEY));
                        assert!(
                            got.as_ref() == Some(&a) || got.as_ref() == Some(&b),
                            "atomic update exposed {got:?} at read {i}"
                        );
                    }
                })
            })
            .collect();
        // Writer: flip 1 <-> 2 until every reader has finished, failed
        // ones included; then pass on the first reader's failure.
        let mut v = 1u64;
        while !readers.iter().all(|r| r.is_finished()) {
            v = 3 - v;
            assert!(map.update(kf(KEY), vf(v)), "native update of a present key");
        }
        for r in readers {
            if let Err(failure) = r.join() {
                std::panic::resume_unwind(failure);
            }
        }
    });
    assert!(map.remove(kf(KEY)));
    assert!(
        !map.update(kf(KEY), vf(9)),
        "update of an absent key stays a no-op"
    );
    assert!(!map.contains(kf(KEY)), "failed update must not insert");
}

/// [`update_atomicity_check_as`] at the paper's `(u64, u64)` shape.
pub fn update_atomicity_check<M: Map<u64, u64> + ?Sized>(map: &M) {
    update_atomicity_check_as(map, |k| k, |v| v);
}

/// Total constructions of [`DropTracked`] (including clones) — the
/// materialization probe behind [`contains_no_materialize_check`].
static TRACKED_CONSTRUCTED: AtomicIsize = AtomicIsize::new(0);

/// Process-global, monotone count of [`DropTracked`] constructions so
/// far (clones included). Diff two snapshots around an operation to
/// count the payload materializations it performed; take them under
/// [`exclusive`] so parallel tests cannot perturb the counter.
pub fn tracked_constructions() -> isize {
    TRACKED_CONSTRUCTED.load(Relaxed)
}

/// A drop-counting payload for the indirect-path reclamation check:
/// every construction (including clones) bumps the `live` counter it
/// was created against, every drop decrements it, so leaks and double
/// drops show up as a non-zero balance. The counter belongs to the
/// check that made it — another test's late reclamation cannot move it.
#[derive(Debug)]
pub struct DropTracked(pub u64, Arc<AtomicIsize>);

impl DropTracked {
    /// A new tracked instance carrying `v`, counted in `live`.
    pub fn new(v: u64, live: &Arc<AtomicIsize>) -> Self {
        live.fetch_add(1, Relaxed);
        TRACKED_CONSTRUCTED.fetch_add(1, Relaxed);
        DropTracked(v, Arc::clone(live))
    }
}

impl Clone for DropTracked {
    fn clone(&self) -> Self {
        DropTracked::new(self.0, &self.1)
    }
}

impl PartialEq for DropTracked {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Drop for DropTracked {
    fn drop(&mut self) {
        self.1.fetch_sub(1, Relaxed);
    }
}

/// Reclamation check for the indirect (fat value) path: hammer a map of
/// `Indirect<DropTracked>` values with contended inserts, removes,
/// updates and reads, drain it, drop it, flush the collector — and
/// assert every tracked instance was dropped exactly once (a positive
/// balance is a leak, a negative one a double drop).
///
/// Takes a builder (not a reference) because the map itself must be
/// dropped before the balance is taken.
pub fn indirect_drop_check<M>(make: impl FnOnce() -> M)
where
    M: Map<u64, Indirect<DropTracked>>,
{
    let live = Arc::new(AtomicIsize::new(0));
    {
        let map = make();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (map, live) = (&map, &live);
                s.spawn(move || {
                    let mut state = (t + 1) * 0x9E37_79B9;
                    for i in 0..400u64 {
                        let hot = xorshift(&mut state) % 16;
                        match xorshift(&mut state) % 4 {
                            0 => {
                                let _ = map.insert(hot, Indirect(DropTracked::new(i, live)));
                            }
                            1 => {
                                let _ = map.remove(hot);
                            }
                            2 => {
                                let _ =
                                    map.update(hot, Indirect(DropTracked::new(i + 1_000, live)));
                            }
                            _ => {
                                let _ = map.get(hot);
                            }
                        }
                    }
                });
            }
        });
        for k in 0..16 {
            let _ = map.remove(k);
        }
        drop(map);
    }
    // The worker threads above were scope-joined, which waits for their
    // closures but NOT for their TLS destructors — and the destructor
    // is what hands a thread's epoch retire bag to the global orphan
    // list. Retry the flush until the stragglers have landed (bounded,
    // so a genuine leak still fails fast).
    for _ in 0..400 {
        flock_epoch::flush_all();
        if live.load(Relaxed) == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(
        live.load(Relaxed),
        0,
        "indirect reclamation imbalance: every retired fat value must be \
         dropped exactly once (positive = leak, negative = double drop)"
    );
}

/// Pin the presence-only `contains` contract on the fat-value path:
/// [`Map::contains`] must not decode and clone an [`Indirect`] payload
/// it only needs to *observe* — the default `get`-based composite does
/// exactly that, so every registry structure overrides it. Call under
/// [`exclusive`]: the construction counter is process-global.
pub fn contains_no_materialize_check<M>(map: &M)
where
    M: Map<u64, Indirect<DropTracked>>,
{
    let live = Arc::new(AtomicIsize::new(0));
    assert!(map.insert(5, Indirect(DropTracked::new(50, &live))));
    let base = tracked_constructions();
    for _ in 0..64 {
        assert!(map.contains(5), "present key");
        assert!(!map.contains(6), "absent key");
    }
    assert_eq!(
        tracked_constructions() - base,
        0,
        "contains must be presence-only: no fat-value payload may be \
         decoded or cloned on the existence path"
    );
    let got = map.get(5);
    assert!(
        tracked_constructions() > base,
        "get must still materialize the value"
    );
    assert_eq!(got.map(|Indirect(d)| d.0), Some(50));
    assert!(map.remove(5));
    flock_epoch::flush_all();
}

/// Sequential differential check of [`OrderedMap::range`] and
/// [`OrderedMap::iter`] against a `BTreeMap` oracle over a mix of bound
/// shapes. `kf` must be strictly monotone (order-preserving) on
/// `0..key_range`; `vf` injective on the value stamps.
pub fn range_oracle_check_as<K, V, M, KF, VF>(
    map: &M,
    ops: usize,
    key_range: u64,
    seed: u64,
    kf: KF,
    vf: VF,
) where
    K: Key,
    V: Value,
    M: OrderedMap<K, V> + ?Sized,
    KF: Fn(u64) -> K,
    VF: Fn(u64) -> V,
{
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut state = seed | 1;
    let expect = |oracle: &BTreeMap<u64, u64>, lo: Bound<u64>, hi: Bound<u64>| -> Vec<(K, V)> {
        oracle
            .range((lo, hi))
            .map(|(k, v)| (kf(*k), vf(*v)))
            .collect()
    };
    for i in 0..ops {
        let k = xorshift(&mut state) % key_range;
        match xorshift(&mut state) % 4 {
            0 => {
                let expect_new = !oracle.contains_key(&k);
                if expect_new {
                    oracle.insert(k, i as u64);
                }
                assert_eq!(map.insert(kf(k), vf(i as u64)), expect_new, "insert({k})");
            }
            1 => {
                let expect_hit = oracle.remove(&k).is_some();
                assert_eq!(map.remove(kf(k)), expect_hit, "remove({k})");
            }
            _ => {
                let a = xorshift(&mut state) % key_range;
                let b = xorshift(&mut state) % key_range;
                let (lo_id, hi_id) = (a.min(b), a.max(b));
                let (klo, khi) = (kf(lo_id), kf(hi_id));
                let (got, want) = match xorshift(&mut state) % 4 {
                    0 => (
                        map.range(Bound::Included(&klo), Bound::Excluded(&khi)),
                        expect(&oracle, Bound::Included(lo_id), Bound::Excluded(hi_id)),
                    ),
                    1 => (
                        map.range(Bound::Included(&klo), Bound::Included(&khi)),
                        expect(&oracle, Bound::Included(lo_id), Bound::Included(hi_id)),
                    ),
                    2 => (
                        map.range(Bound::Unbounded, Bound::Excluded(&khi)),
                        expect(&oracle, Bound::Unbounded, Bound::Excluded(hi_id)),
                    ),
                    _ => (
                        map.range(Bound::Excluded(&klo), Bound::Unbounded),
                        expect(&oracle, Bound::Excluded(lo_id), Bound::Unbounded),
                    ),
                };
                assert_eq!(got, want, "range disagreed with oracle at op {i}");
            }
        }
    }
    assert_eq!(
        map.iter(),
        expect(&oracle, Bound::Unbounded, Bound::Unbounded),
        "iter() disagreed with the full oracle"
    );
}

/// Concurrent scan-consistency check — the conformance teeth behind the
/// [`OrderedMap`] contract: while a mutator flickers some keys and
/// atomically flips the values of others, racing range scans must only
/// ever return keys inside their linearization window, in strictly
/// increasing order, with values drawn from each key's legal set — and
/// must never miss a key that is present for the scan's whole duration.
///
/// `kf` must be strictly monotone (order-preserving) on `0..64`; `vf`
/// injective on stamps up to `64 + 1000`.
pub fn scan_consistency_check_as<K, V, M, KF, VF>(map: &M, kf: KF, vf: VF)
where
    K: Key,
    V: Value,
    M: OrderedMap<K, V> + Sync + ?Sized,
    KF: Fn(u64) -> K + Sync,
    VF: Fn(u64) -> V + Sync,
{
    use std::sync::atomic::{AtomicBool, Ordering};
    const LO: u64 = 16; // scan window is [LO, HI)
    const HI: u64 = 48;
    const STAMP: u64 = 1_000; // alternate legal value stamp offset
    const SCANNERS: usize = 2;
    const SCANS: usize = 150;
    // Even keys (inside and outside the window) are permanent anchors;
    // odd keys inside the window flicker; nothing else ever exists.
    // Evens outside the window pin the "no key outside its bounds"
    // clause: they are always present yet must never be returned.
    for k in (0..64).step_by(2) {
        assert!(map.insert(kf(k), vf(k)));
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (stop, map, kf, vf) = (&stop, &map, &kf, &vf);
        // Mutator: flicker odd window keys through insert/remove; flip
        // even window values between their two legal stamps through
        // the (atomic) native update.
        s.spawn(move || {
            let mut state = 0x5EED_5EED_u64;
            while !stop.load(Ordering::Relaxed) {
                let k = LO + xorshift(&mut state) % (HI - LO);
                if k % 2 == 1 {
                    if !map.insert(kf(k), vf(k)) {
                        let _ = map.remove(kf(k));
                    }
                } else {
                    let stamp = if xorshift(&mut state).is_multiple_of(2) {
                        k
                    } else {
                        k + STAMP
                    };
                    assert!(map.update(kf(k), vf(stamp)), "even keys are permanent");
                }
            }
        });
        let scanners: Vec<_> = (0..SCANNERS)
            .map(|t| {
                s.spawn(move || {
                    let (lo_k, hi_k) = (kf(LO), kf(HI));
                    for scan in 0..SCANS {
                        let got = map.range(Bound::Included(&lo_k), Bound::Excluded(&hi_k));
                        for w in got.windows(2) {
                            assert!(
                                w[0].0 < w[1].0,
                                "t{t} scan {scan}: keys out of order or duplicated"
                            );
                        }
                        let mut seen_evens = 0usize;
                        for (k, v) in &got {
                            let id = (LO..HI).find(|i| kf(*i) == *k).unwrap_or_else(|| {
                                panic!(
                                    "t{t} scan {scan}: key {k:?} observed outside its \
                                     linearization window"
                                )
                            });
                            if id % 2 == 0 {
                                assert!(
                                    *v == vf(id) || *v == vf(id + STAMP),
                                    "t{t} scan {scan}: torn or illegal value {v:?} for \
                                     key {id}"
                                );
                                seen_evens += 1;
                            } else {
                                assert!(
                                    *v == vf(id),
                                    "t{t} scan {scan}: illegal value {v:?} for flicker \
                                     key {id}"
                                );
                            }
                        }
                        assert_eq!(
                            seen_evens,
                            ((HI - LO) / 2) as usize,
                            "t{t} scan {scan}: a permanently-present key was missed"
                        );
                    }
                })
            })
            .collect();
        // Stop the mutator before passing on a scanner's failure: the
        // scope would otherwise wait for it forever.
        let joined: Vec<_> = scanners.into_iter().map(|h| h.join()).collect();
        stop.store(true, Ordering::Relaxed);
        for r in joined {
            if let Err(failure) = r {
                std::panic::resume_unwind(failure);
            }
        }
    });
    // Quiescent sweep: the permanent keys are all still there, ordered.
    let all = map.iter();
    let permanent: Vec<&K> = all
        .iter()
        .map(|(k, _)| k)
        .filter(|k| (0..64).step_by(2).any(|i| kf(i) == **k))
        .collect();
    assert_eq!(permanent.len(), 32, "quiescent sweep lost a permanent key");
}

/// Stamp out the shared conformance suite for one map structure.
///
/// `$name` becomes a test module; `$make` is an expression building a fresh
/// instance (evaluated once per test) and must be *polymorphic in `(K, V)`*
/// — each generated test instantiates it at its own type pair:
///
/// * `(u64, u64)` — the paper's evaluation shape: differential oracle,
///   partitioned stress, provided-method check (each in both lock modes),
///   oversubscribed helping stress (lock-free), and the `update` atomicity
///   capability check.
/// * `(u32, u16)` — a small-inline combo exercising the non-`u64` inline
///   encodings (oracle + `update` atomicity).
/// * `(u64, Indirect<[u64; 4]>)` — a fat, heap-indirected value combo
///   (oracle, stress, and `update` atomicity over the indirect-value RMW).
/// * `(u64, Indirect<DropTracked>)` — the drop-exactly-once reclamation
///   check for the indirect path (inserts, removes, and native updates).
///
/// ```ignore
/// flock_conformance::map_conformance!(dlist, flock_ds::dlist::DList::new());
/// ```
#[macro_export]
macro_rules! map_conformance {
    ($name:ident, $make:expr) => {
        mod $name {
            #[allow(unused_imports)]
            use super::*;

            #[test]
            fn oracle() {
                $crate::both_modes(|| {
                    let m = $make;
                    $crate::oracle_check(&m, 3_000, 128, 42);
                });
            }

            #[test]
            fn partition_stress() {
                $crate::both_modes(|| {
                    let m = $make;
                    $crate::partition_stress(&m, 4, 1_200);
                });
            }

            #[test]
            fn default_methods() {
                $crate::both_modes(|| {
                    let m = $make;
                    $crate::default_methods_check(&m);
                });
            }

            #[test]
            fn oversubscribed_helping() {
                // Lock-free mode only: oversubscription is exactly the
                // regime where helping carries the system past descheduled
                // lock holders; under blocking locks the same schedule
                // merely spins, which the partition stress already covers.
                $crate::exclusive(|| {
                    let m = $make;
                    $crate::oversubscribed_stress(&m, 150);
                });
            }

            #[test]
            fn oracle_small_types() {
                $crate::both_modes(|| {
                    let m = $make;
                    $crate::oracle_check_as(&m, 2_000, 128, 43, |k| k as u32, |v| v as u16);
                });
            }

            #[test]
            fn oracle_fat_values() {
                $crate::both_modes(|| {
                    let m = $make;
                    $crate::oracle_check_as(&m, 2_000, 128, 44, |k| k, $crate::fat_value);
                });
            }

            #[test]
            fn stress_fat_values() {
                $crate::both_modes(|| {
                    let m = $make;
                    $crate::partition_stress_as(&m, 4, 600, |k| k, $crate::fat_value);
                });
            }

            #[test]
            fn indirect_drops() {
                $crate::exclusive(|| {
                    $crate::indirect_drop_check(|| $make);
                });
            }

            #[test]
            fn contains_no_materialize() {
                $crate::exclusive(|| {
                    let m = $make;
                    $crate::contains_no_materialize_check(&m);
                });
            }

            #[test]
            fn update_atomicity() {
                $crate::both_modes(|| {
                    let m = $make;
                    $crate::update_atomicity_check(&m);
                });
            }

            #[test]
            fn update_atomicity_small_types() {
                $crate::both_modes(|| {
                    let m = $make;
                    $crate::update_atomicity_check_as(&m, |k| k as u32, |v| v as u16);
                });
            }

            #[test]
            fn update_atomicity_fat_values() {
                // The native RMW over the indirect repr: every applied
                // update installs one fresh encoding and retires exactly
                // one displaced encoding (the reclamation half is pinned
                // by `indirect_drops`, whose workload includes `update`).
                $crate::both_modes(|| {
                    let m = $make;
                    $crate::update_atomicity_check_as(&m, |k| k, $crate::fat_value);
                });
            }
        }
    };
}

/// Stamp out the ordered-map conformance suite for one structure
/// implementing [`OrderedMap`]: a sequential differential range check
/// against a `BTreeMap` oracle (plain and fat values) and the concurrent
/// [`scan_consistency_check_as`] at
/// all three `(K, V)` shapes — scans racing inserts/removes/updates must
/// never observe a key outside its linearization window, a torn value, or
/// miss a permanently-present key.
///
/// ```ignore
/// flock_conformance::ordered_map_conformance!(dlist_ordered, flock_ds::dlist::DList::new());
/// ```
#[macro_export]
macro_rules! ordered_map_conformance {
    ($name:ident, $make:expr) => {
        mod $name {
            #[allow(unused_imports)]
            use super::*;

            #[test]
            fn range_oracle() {
                $crate::both_modes(|| {
                    let m = $make;
                    $crate::range_oracle_check_as(&m, 2_000, 128, 45, |k| k, |v| v);
                });
            }

            #[test]
            fn range_oracle_fat_values() {
                $crate::both_modes(|| {
                    let m = $make;
                    $crate::range_oracle_check_as(&m, 1_200, 128, 46, |k| k, $crate::fat_value);
                });
            }

            #[test]
            fn scan_consistency() {
                $crate::both_modes(|| {
                    let m = $make;
                    $crate::scan_consistency_check_as(&m, |k| k, |v| v);
                });
            }

            #[test]
            fn scan_consistency_small_types() {
                $crate::both_modes(|| {
                    let m = $make;
                    $crate::scan_consistency_check_as(&m, |k| k as u32, |v| v as u16);
                });
            }

            #[test]
            fn scan_consistency_fat_values() {
                $crate::both_modes(|| {
                    let m = $make;
                    $crate::scan_consistency_check_as(&m, |k| k, $crate::fat_value);
                });
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Mutex;

    /// Minimal reference implementation to validate the harness itself —
    /// generic like the real structures, with a *native* (mutex-atomic)
    /// `update` so the capability path of the harness is exercised here.
    struct MutexMap<K, V>(Mutex<HashMap<K, V>>);

    impl<K, V> MutexMap<K, V> {
        fn new() -> Self {
            Self(Mutex::new(HashMap::new()))
        }
    }

    impl<K: Key, V: Value> Map<K, V> for MutexMap<K, V> {
        fn insert(&self, key: K, value: V) -> bool {
            let mut m = self.0.lock().unwrap();
            if let std::collections::hash_map::Entry::Vacant(e) = m.entry(key) {
                e.insert(value);
                true
            } else {
                false
            }
        }
        fn remove(&self, key: K) -> bool {
            self.0.lock().unwrap().remove(&key).is_some()
        }
        fn get(&self, key: K) -> Option<V> {
            self.0.lock().unwrap().get(&key).cloned()
        }
        fn contains(&self, key: K) -> bool {
            // Presence-only: no value clone (the conformance harness's
            // `contains_no_materialize` pins this for every consumer).
            self.0.lock().unwrap().contains_key(&key)
        }
        fn name(&self) -> &'static str {
            "mutex_hashmap"
        }
        fn update(&self, key: K, value: V) -> bool {
            // Native atomic update: the whole map is one critical section.
            match self.0.lock().unwrap().get_mut(&key) {
                Some(slot) => {
                    *slot = value;
                    true
                }
                None => false,
            }
        }
        fn len_approx(&self) -> Option<usize> {
            Some(self.0.lock().unwrap().len())
        }
    }

    impl<K: Key, V: Value> OrderedMap<K, V> for MutexMap<K, V> {
        fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
            let mut out: Vec<(K, V)> = self
                .0
                .lock()
                .unwrap()
                .iter()
                .filter(|(k, _)| flock_api::key_in_range(*k, lo, hi))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            out.sort_by(|a, b| a.0.cmp(&b.0));
            out
        }
    }

    map_conformance!(mutex_hashmap, MutexMap::new());
    ordered_map_conformance!(mutex_hashmap_ordered, MutexMap::new());

    /// One seeded defect in an otherwise correct [`MutexMap`].
    #[derive(Clone, Copy, PartialEq)]
    enum Fault {
        /// Every fifth insert reports success and stores nothing.
        LostInsert,
        /// `contains` goes through `get`, decoding the value.
        DecodingContains,
        /// `update` is the remove-then-insert composite.
        CompositeUpdate,
        /// A range scan drops its first entry.
        SkippedKey,
    }

    /// A [`MutexMap`] with one [`Fault`]: each check below must fail on
    /// the fault it exists to catch, or it could not catch it anywhere.
    struct Faulty<K, V> {
        inner: MutexMap<K, V>,
        fault: Fault,
        inserts: std::sync::atomic::AtomicUsize,
    }

    impl<K, V> Faulty<K, V> {
        fn new(fault: Fault) -> Self {
            Self {
                inner: MutexMap::new(),
                fault,
                inserts: std::sync::atomic::AtomicUsize::new(0),
            }
        }
    }

    impl<K: Key, V: Value> Map<K, V> for Faulty<K, V> {
        fn insert(&self, key: K, value: V) -> bool {
            let n = self.inserts.fetch_add(1, Relaxed);
            if self.fault == Fault::LostInsert && n % 5 == 4 {
                return true;
            }
            self.inner.insert(key, value)
        }
        fn remove(&self, key: K) -> bool {
            self.inner.remove(key)
        }
        fn get(&self, key: K) -> Option<V> {
            self.inner.get(key)
        }
        fn contains(&self, key: K) -> bool {
            if self.fault == Fault::DecodingContains {
                self.get(key).is_some()
            } else {
                self.inner.contains(key)
            }
        }
        fn name(&self) -> &'static str {
            "faulty"
        }
        fn update(&self, key: K, value: V) -> bool {
            if self.fault != Fault::CompositeUpdate {
                return self.inner.update(key, value);
            }
            if !self.inner.remove(key.clone()) {
                return false;
            }
            // Hold the absence window open long enough for readers to see it.
            std::thread::sleep(std::time::Duration::from_micros(100));
            self.inner.insert(key, value)
        }
    }

    impl<K: Key, V: Value> OrderedMap<K, V> for Faulty<K, V> {
        fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
            let mut out = self.inner.range(lo, hi);
            if self.fault == Fault::SkippedKey && !out.is_empty() {
                out.remove(0);
            }
            out
        }
    }

    #[test]
    #[should_panic(expected = "disagreed with oracle")]
    fn oracle_check_catches_a_lost_insert() {
        oracle_check(&Faulty::new(Fault::LostInsert), 3_000, 128, 42);
    }

    #[test]
    #[should_panic(expected = "contains must be presence-only")]
    fn contains_check_catches_a_decoding_contains() {
        exclusive(|| contains_no_materialize_check(&Faulty::new(Fault::DecodingContains)));
    }

    #[test]
    #[should_panic(expected = "atomic update exposed")]
    fn update_atomicity_check_catches_a_composite_update() {
        update_atomicity_check(&Faulty::new(Fault::CompositeUpdate));
    }

    #[test]
    #[should_panic(expected = "a permanently-present key was missed")]
    fn scan_consistency_check_catches_a_skipped_key() {
        scan_consistency_check_as(&Faulty::new(Fault::SkippedKey), |k| k, |v| v);
    }

    /// Delegating wrapper that observes the underlying map at the moment
    /// the default `update` composite calls back into `insert`: the window
    /// between its `remove` and `insert` halves, made deterministic.
    struct UpdateWindowProbe {
        inner: MutexMap<u64, u64>,
        absent_during_reinsert: std::sync::atomic::AtomicBool,
    }

    impl Map<u64, u64> for UpdateWindowProbe {
        fn insert(&self, key: u64, value: u64) -> bool {
            // The default composite reaches here after its remove half: the
            // key's absence is observable at this instant — this is the
            // documented non-atomicity window.
            if self.inner.get(key).is_none() {
                self.absent_during_reinsert
                    .store(true, std::sync::atomic::Ordering::SeqCst);
            }
            self.inner.insert(key, value)
        }
        fn remove(&self, key: u64) -> bool {
            self.inner.remove(key)
        }
        fn get(&self, key: u64) -> Option<u64> {
            self.inner.get(key)
        }
        fn name(&self) -> &'static str {
            "update_window_probe"
        }
    }

    /// Pin the documented behavior of the **default** `Map::update`: it is
    /// the non-atomic remove-then-insert composite, so the key is
    /// observably absent in between. Only `Map` implementations *outside*
    /// the registry reach it — every registry structure overrides `update`
    /// natively, and the `update_atomicity*` checks assert the negation
    /// (no observable absence) for each.
    #[test]
    fn default_update_composite_exposes_absence_window() {
        use std::sync::atomic::Ordering::SeqCst;
        let probe = UpdateWindowProbe {
            inner: MutexMap::new(),
            absent_during_reinsert: std::sync::atomic::AtomicBool::new(false),
        };
        assert!(probe.insert(9, 90));
        probe.absent_during_reinsert.store(false, SeqCst); // ignore the initial insert

        assert!(Map::update(&probe, 9, 91), "update of a present key");
        assert!(
            probe.absent_during_reinsert.load(SeqCst),
            "the default update composite must pass through an observable \
             absent state between its remove and insert halves"
        );
        assert_eq!(probe.get(9), Some(91), "update result intact");

        // The absent-key contract of the composite: no phantom insert.
        probe.absent_during_reinsert.store(false, SeqCst);
        assert!(!Map::update(&probe, 555, 1), "absent key: update refused");
        assert_eq!(probe.get(555), None, "refused update must not insert");
    }

    #[test]
    fn trait_is_object_safe() {
        let boxed: Box<dyn Map<u64, u64>> = Box::new(MutexMap::new());
        assert!(boxed.insert(1, 2));
        assert_eq!(boxed.get(1), Some(2));
        assert!(boxed.contains(1));
        assert!(boxed.update(1, 3));
        assert_eq!(boxed.get(1), Some(3));
        assert_eq!(boxed.len_approx(), Some(1));
        assert!(boxed.remove(1));
        assert_eq!(boxed.name(), "mutex_hashmap");
    }

    #[test]
    fn trait_is_object_safe_at_fat_values() {
        let boxed: Box<dyn Map<u64, Indirect<String>>> = Box::new(MutexMap::new());
        assert!(boxed.insert(1, Indirect("fat".to_string())));
        assert_eq!(boxed.get(1), Some(Indirect("fat".to_string())));
        assert!(boxed.remove(1));
    }

    #[test]
    fn references_and_boxes_forward() {
        let m: MutexMap<u64, u64> = MutexMap::new();
        let r: &dyn Map<u64, u64> = &m;
        assert!((&r).insert(5, 6));
        assert_eq!(Map::get(&r, 5), Some(6));
        assert!(Map::update(&r, 5, 7), "update forwards through refs");
        assert_eq!(Map::get(&r, 5), Some(7));
    }
}
