//! The outside-in cost ledger: one worker, one public primitive per row,
//! from `flock-sync` at the bottom to whole `flock-ds` operations at the
//! top, so that a change in an end-to-end number can be traced to the layer
//! that moved. Rows that are differences of two measurements say so; the
//! parts of an uncontended lock-free `try_lock` with one load and one store
//! are constructed to sum to the whole, and `core.ledger_residual_ns` is
//! what is left over.
//!
//! Each row is the mean of the fastest tenth of its batches (at least 200
//! in a full run): on a shared host noise only ever adds time.

use std::hint::black_box;
use std::sync::Arc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use flock_core::{Lock, LockMode, Locked, Mutable, set_lock_mode};
use flock_ds::abtree::ABTree;
use flock_ds::hashtable::HashTable;
use flock_ds::leaftree::LeafTree;
use flock_sync::pack::{next_tag, pack, unpack_tag, unpack_val};
use flock_sync::{TaggedAtomicU64, TtasLock};

use crate::stats::summarize;
use crate::subject::{BenchMap, MapSubject};
use crate::tape::prefill_keys;
use crate::workload::{SCAN_WIDTH, Spec, WORKLOADS};

/// How much measuring a ledger run does.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    pub batches: usize,
    pub batch: usize,
    /// Rounds of the parked-holder measurement.
    pub help_rounds: u32,
}

impl Effort {
    pub const FULL: Effort = Effort {
        batches: 200,
        batch: 1000,
        help_rounds: 200,
    };
    /// Enough to exercise every row, not to trust its value.
    pub const SMOKE: Effort = Effort {
        batches: 4,
        batch: 100,
        help_rounds: 3,
    };
}

/// `op`, as many times as asked: the loop is compiled into the closure, so
/// that timing a batch through a `dyn` reference costs one indirect call, not
/// one per operation (which would double the cheapest rows).
fn times(mut op: impl FnMut()) -> impl FnMut(usize) {
    move |n| {
        for _ in 0..n {
            op();
        }
    }
}

/// Nanoseconds per operation of each of `runs`, their batches taken in
/// turn, so that rows which are later subtracted from one another were
/// measured in the same stretch of host weather.
fn costs<const N: usize>(e: Effort, mut runs: [&mut dyn FnMut(usize); N]) -> [f64; N] {
    let batch = |run: &mut dyn FnMut(usize)| {
        let t = Instant::now();
        run(e.batch);
        t.elapsed().as_nanos() as f64 / e.batch as f64
    };
    for run in &mut runs {
        batch(run); // warm-up
    }
    let mut ns = [const { Vec::new() }; N];
    for _ in 0..e.batches {
        for (run, ns) in runs.iter_mut().zip(&mut ns) {
            ns.push(batch(run));
        }
    }
    ns.map(|mut ns| {
        ns.sort_by(f64::total_cmp);
        let best = &ns[..(ns.len() / 10).max(1)];
        best.iter().sum::<f64>() / best.len() as f64
    })
}

/// Nanoseconds per call of `op`.
pub(crate) fn cost(e: Effort, op: impl FnMut()) -> f64 {
    costs(e, [&mut times(op)])[0]
}

/// Thunks must be `'static`; the handful of cells the ledger locks live
/// for the rest of the process.
fn leak<T>(v: T) -> &'static T {
    Box::leak(Box::new(v))
}

/// Every ledger row, in manifest order, as `(name, value)`.
pub fn run(e: Effort, seed: u64) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    let mut row = |name: &str, v: f64| rows.push((name.to_string(), v));
    set_lock_mode(LockMode::LockFree);

    // flock-sync: the words everything else is built from.
    let cell = TaggedAtomicU64::new(0);
    row(
        "sync.tagged_cas_ns",
        cost(e, || {
            let w = cell.load_packed(flock_sync::atomic::Ordering::Relaxed);
            black_box(cell.cas(w, pack(next_tag(unpack_tag(w)), unpack_val(w) ^ 1)));
        }),
    );
    let ttas = TtasLock::new();
    row(
        "sync.ttas_pair_ns",
        cost(e, || {
            black_box(ttas.try_acquire());
            ttas.release();
        }),
    );
    row(
        "sync.thread_ctx_ns",
        cost(e, || {
            black_box(flock_sync::thread_ctx::with(|tc| tc.tid()));
        }),
    );

    // flock-epoch: pinning and the allocator.
    let pin_unpin = || {
        let g = flock_epoch::pin();
        black_box(g.epoch());
    };
    row("epoch.pin_unpin_ns", cost(e, pin_unpin));
    {
        let _outer = flock_epoch::pin();
        row("epoch.pin_nested_ns", cost(e, pin_unpin));
    }
    row(
        "epoch.alloc_free_ns",
        cost(e, || {
            let p = flock_epoch::alloc(black_box(1u64));
            // SAFETY: fresh allocation, never shared, freed once.
            unsafe { flock_epoch::free_now(p) };
        }),
    );
    row(
        "epoch.alloc_retire_ns",
        cost(e, || {
            let _g = flock_epoch::pin();
            let p = flock_epoch::alloc(black_box(1u64));
            // SAFETY: fresh allocation, never shared, retired once, pinned.
            unsafe { flock_epoch::retire(p) };
        }),
    );
    flock_epoch::flush_all();

    // flock-core: cells, then the lock with an empty thunk, then what each
    // in-thunk operation adds to it.
    let v = leak(Mutable::new(0u64));
    row(
        "core.mutable_load_ns",
        cost(e, || {
            black_box(v.load());
        }),
    );
    let mut i = 0u64;
    row(
        "core.mutable_store_ns",
        cost(e, || {
            i = (i + 1) & 0xFFFF_FFFF;
            v.store(black_box(i));
        }),
    );
    let lock = leak(Lock::new());
    // The whole (one load and one store under an uncontended lock) and its
    // parts. The marginal cost of an in-thunk operation is a thunk with
    // several of them, minus the empty one, per operation: few enough that
    // the thunk's log stays inside its first block
    // (`flock_core::LOG_BLOCK_ENTRIES` = 7 entries; a store logs two). Eight
    // of each chain further blocks, overstate the marginal cost by a third,
    // and the parts no longer sum.
    let mut empty = || {
        black_box(lock.try_lock(|| ()));
    };
    let mut loads = || {
        black_box(lock.try_lock(|| (0..4).map(|_| v.load()).sum::<u64>()));
    };
    let mut stores = || {
        black_box(lock.try_lock(|| (1..=3).for_each(|i| v.store(i))));
    };
    let mut load_store = || {
        black_box(lock.try_lock(|| v.store((v.load() + 1) & 0xFFFF_FFFF)));
    };
    let [empty_lf, loads_lf, stores_lf, load_store_lf] = costs(
        e,
        [
            &mut times(&mut empty),
            &mut times(&mut loads),
            &mut times(&mut stores),
            &mut times(&mut load_store),
        ],
    );
    set_lock_mode(LockMode::Blocking);
    let [empty_bl, load_store_bl] = costs(e, [&mut times(&mut empty), &mut times(&mut load_store)]);
    set_lock_mode(LockMode::LockFree);
    row("core.try_lock_empty_lf_ns", empty_lf);
    row("core.try_lock_empty_bl_ns", empty_bl);
    {
        let _outer = flock_epoch::pin();
        row("core.try_lock_pinned_lf_ns", cost(e, &mut empty));
    }
    let load_in_thunk = (loads_lf - empty_lf) / 4.0;
    let store_in_thunk = (stores_lf - empty_lf) / 3.0;
    row("core.load_in_thunk_ns", load_in_thunk);
    row("core.store_in_thunk_ns", store_in_thunk);
    let slot: &Mutable<*mut u64> = leak(Mutable::new(std::ptr::null_mut()));
    let mut alloc_retire_cycle = || {
        black_box(lock.try_lock(|| {
            let old = slot.load();
            slot.store(flock_core::alloc(|| 1u64));
            if !old.is_null() {
                // SAFETY: `old` was unlinked by the store above, under the
                // lock, and is retired once per thunk.
                unsafe { flock_core::retire(old) };
            }
        }));
    };
    // The cycle is a load, an allocation, a store and a retire: what the
    // allocation and the retire add to a load and a store.
    let [cycle, plain] = costs(
        e,
        [
            &mut times(&mut alloc_retire_cycle),
            &mut times(&mut load_store),
        ],
    );
    row("core.alloc_retire_in_thunk_ns", cycle - plain);
    row("core.try_lock_store_lf_ns", load_store_lf);
    row("core.try_lock_store_bl_ns", load_store_bl);
    row(
        "core.ledger_residual_ns",
        load_store_lf - empty_lf - load_in_thunk - store_in_thunk,
    );
    let inner = leak(Lock::new());
    let (a, b) = (
        Arc::new(Locked::new(Mutable::new(crate::books::OPENING))),
        Arc::new(Locked::new(Mutable::new(crate::books::OPENING))),
    );
    for (tag, mode) in [("lf", LockMode::LockFree), ("bl", LockMode::Blocking)] {
        set_lock_mode(mode);
        row(
            &format!("core.nested_try_lock_{tag}_ns"),
            cost(e, || {
                black_box(lock.try_lock(|| inner.try_lock(|| true)));
            }),
        );
    }
    for (tag, mode) in [("lf", LockMode::LockFree), ("bl", LockMode::Blocking)] {
        set_lock_mode(mode);
        row(
            &format!("core.try_with2_{tag}_ns"),
            cost(e, || {
                // The transfer of the account workloads, without the sleep.
                black_box(Locked::try_with2(&a, &b, |from, to| {
                    from.store(from.load() - 1);
                    to.store(to.load() + 1);
                    true
                }));
            }),
        );
    }
    set_lock_mode(LockMode::LockFree);
    row(
        "core.read_validated_ns",
        cost(e, || {
            black_box(a.read_validated(Mutable::load_acquire, Mutable::load));
        }),
    );
    row("core.help_acquire_us", help_acquire_us(e.help_rounds));
    flock_epoch::flush_all();

    // flock-ds: whole operations on structures of the workloads' sizes.
    let [read_mostly, _, hot_update, scan_mixed, ..] = &WORKLOADS;
    ds_rows(&mut rows, e, "hashtable", hot_update, seed, || {
        HashTable::<u64, u64>::with_capacity(hot_update.keys as usize)
    });
    ds_rows(
        &mut rows,
        e,
        "leaftree",
        read_mostly,
        seed,
        LeafTree::<u64, u64>::new,
    );
    ds_rows(
        &mut rows,
        e,
        "abtree",
        scan_mixed,
        seed,
        ABTree::<u64, u64>::new,
    );
    set_lock_mode(LockMode::LockFree);
    rows
}

/// Microseconds until a `try_lock` succeeds on a lock whose holder is
/// parked inside its thunk: the waiter must help the thunk to its end,
/// release the lock, and acquire it. Median over `rounds`.
fn help_acquire_us(rounds: u32) -> f64 {
    let lock = leak(Lock::new());
    let value = leak(Mutable::new(0u64));
    // Round the holder is parked in / round the waiter has finished.
    let parked = leak(AtomicU32::new(0));
    let passed = leak(AtomicU32::new(0));
    let holder = std::thread::spawn(move || {
        let me = std::thread::current().id();
        for round in 1..=rounds {
            let section = move || {
                value.store((value.load() + 1) & 0xFFFF_FFFF);
                // Only the owner parks; a helper replaying the thunk runs
                // through. Parking performs no logged operation.
                if std::thread::current().id() == me {
                    parked.store(round, Ordering::SeqCst);
                    while passed.load(Ordering::SeqCst) < round {
                        std::thread::park();
                    }
                }
            };
            while lock.try_lock(section).is_none() {
                std::hint::spin_loop();
            }
        }
    });
    let mut us = Vec::new();
    for round in 1..=rounds {
        while parked.load(Ordering::SeqCst) < round {
            std::thread::yield_now();
        }
        let t = Instant::now();
        while lock
            .try_lock(|| value.store((value.load() + 1) & 0xFFFF_FFFF))
            .is_none()
        {
            std::hint::spin_loop();
        }
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
        passed.store(round, Ordering::SeqCst);
        holder.thread().unpark();
    }
    holder.join().expect("the parked holder panicked");
    summarize(&us).median
}

/// The `ds.<name>.*` rows: get, update (hash table only), an insert and
/// remove pair of an absent key (per operation), and a 64-key scan (ordered
/// maps only), on a map set up exactly as `spec`'s workload sets it up.
fn ds_rows<M: BenchMap>(
    rows: &mut Vec<(String, f64)>,
    e: Effort,
    name: &str,
    spec: &Spec,
    seed: u64,
    make: impl FnOnce() -> M,
) {
    set_lock_mode(LockMode::LockFree);
    let prefill = prefill_keys(spec, seed);
    let map = MapSubject::build(make(), &prefill).0;
    // A few thousand keys in a scattered order, so that the walks miss the
    // L1 cache as the workloads' do.
    let scattered = |keys: Vec<u32>| -> Vec<u64> {
        let step = keys.len() / 4096 + 1;
        let mut picked: Vec<u64> = keys.iter().step_by(step).map(|&k| u64::from(k)).collect();
        let mut rng = crate::tape::Rng::new(seed);
        for i in (1..picked.len()).rev() {
            picked.swap(i, rng.below(i as u32 + 1) as usize);
        }
        picked
    };
    let mut is_present = vec![false; spec.keys as usize];
    prefill.iter().for_each(|&k| is_present[k as usize] = true);
    let present = scattered(prefill);
    // A map that starts full has no absent key in range; go above it.
    let absent = scattered(
        (0..spec.keys * 2)
            .filter(|&k| !is_present.get(k as usize).copied().unwrap_or(false))
            .collect(),
    );
    let mut at = 0;
    let mut next = |keys: &[u64]| {
        at = (at + 1) % keys.len();
        keys[at]
    };
    let mut row = |what: &str, v: f64| rows.push((format!("ds.{name}.{what}_ns"), v));

    let get = cost(e, || {
        black_box(map.get(next(&present)));
    });
    row("get", get);
    for (tag, mode) in [("lf", LockMode::LockFree), ("bl", LockMode::Blocking)] {
        set_lock_mode(mode);
        if spec.prefill_all {
            let update = cost(e, || {
                let k = next(&present);
                black_box(map.update(k, crate::books::value(k as u32, 2)));
            });
            row(&format!("update_{tag}"), update);
        }
        let pair = cost(e, || {
            let k = next(&absent);
            black_box(map.insert(k, crate::books::value(k as u32, 2)));
            black_box(map.remove(k));
        });
        row(&format!("insert_remove_{tag}"), pair / 2.0);
    }
    set_lock_mode(LockMode::LockFree);
    if map.scan(0, 1).is_some() {
        let scan = cost(e, || {
            let lo = next(&present).min(u64::from(spec.keys - SCAN_WIDTH));
            black_box(map.scan(lo, lo + u64::from(SCAN_WIDTH)));
        });
        row("range64", scan);
    }
    drop(map);
    flock_epoch::flush_all();
}
