//! The instances under test and how one taped operation becomes one call
//! into the public API. Only the call itself is timed; checking the result
//! against the books happens after the clock has stopped.

use std::ops::Bound;
use std::panic::{AssertUnwindSafe, catch_unwind};
use std::sync::Arc;

use flock_api::{Map, OrderedMap};
use flock_core::{Locked, Mutable};
use flock_ds::abtree::ABTree;
use flock_ds::hashtable::HashTable;
use flock_ds::leaftree::LeafTree;
use flock_sync::Backoff;

use crate::books::{self, Audit, Books};
use crate::engine::Worker;
use crate::tape::{Class, Op};
use crate::workload::{SCAN_WIDTH, STALL, Spec};

/// What the engine drives. One instance is shared by all workers.
pub trait Subject: Sync {
    /// Perform `op` for worker `w`: time the call (every call if `ALL`,
    /// else one in [`crate::engine::SAMPLE_EVERY`]), then check its result.
    fn exec<const ALL: bool>(&self, op: Op, w: &mut Worker);

    /// Compare the instance with the books of all workers. Called only
    /// while the workers are parked.
    fn audit(&self, spec: &Spec, books: &[&Books]) -> Audit;
}

/// A `u64 -> u64` map the map workloads can drive. The tests wrap one in a
/// faulty map to show that the books catch it.
pub trait BenchMap: Map<u64, u64> {
    /// The entries with `lo <= key < hi` in key order; `None` if the map is
    /// not ordered.
    fn scan(&self, _lo: u64, _hi: u64) -> Option<Vec<(u64, u64)>> {
        None
    }

    /// Panic if a structural invariant is broken (quiescent callers only).
    fn check_invariants(&self) {}
}

impl BenchMap for HashTable<u64, u64> {}

impl BenchMap for LeafTree<u64, u64> {
    fn scan(&self, lo: u64, hi: u64) -> Option<Vec<(u64, u64)>> {
        Some(OrderedMap::range(
            self,
            Bound::Included(&lo),
            Bound::Excluded(&hi),
        ))
    }
    fn check_invariants(&self) {
        LeafTree::check_invariants(self);
    }
}

impl BenchMap for ABTree<u64, u64> {
    fn scan(&self, lo: u64, hi: u64) -> Option<Vec<(u64, u64)>> {
        Some(OrderedMap::range(
            self,
            Bound::Included(&lo),
            Bound::Excluded(&hi),
        ))
    }
    fn check_invariants(&self) {
        ABTree::check_invariants(self);
    }
}

/// A map workload's instance.
pub struct MapSubject<M>(pub M);

impl<M: BenchMap> MapSubject<M> {
    /// Set-up: take the constructed map and insert `prefill` through the
    /// public API.
    pub fn build(map: M, prefill: &[u32]) -> Self {
        for &k in prefill {
            map.insert(u64::from(k), Books::prefill_value(k));
        }
        Self(map)
    }
}

impl<M: BenchMap> Subject for MapSubject<M> {
    #[inline(always)]
    fn exec<const ALL: bool>(&self, op: Op, w: &mut Worker) {
        let map = &self.0;
        let (k, key) = (op.a, u64::from(op.a));
        match op.class {
            Class::Get => {
                let (r, t) = w.call::<ALL, _>(|| map.get(key));
                let ok = w.books.check_get(k, r);
                if !ok {
                    let held = w.books.describe(k);
                    w.note_failure(|| format!("get returned {r:?}; {held}"));
                }
                w.done::<ALL>(op.class, t, r.is_some(), ok);
            }
            Class::Insert => {
                let v = w.books.next_value(k);
                let (r, t) = w.call::<ALL, _>(|| map.insert(key, v));
                let ok = w.books.check_insert(k, v, r);
                if !ok {
                    let had = if r { "present" } else { "absent" };
                    w.note_failure(|| format!("insert of own key {k} returned {r}, booked {had}"));
                }
                w.done::<ALL>(op.class, t, r, ok);
            }
            Class::Remove => {
                let (r, t) = w.call::<ALL, _>(|| map.remove(key));
                let ok = w.books.check_remove(k, r);
                if !ok {
                    let had = if r { "absent" } else { "present" };
                    w.note_failure(|| format!("remove of own key {k} returned {r}, booked {had}"));
                }
                w.done::<ALL>(op.class, t, r, ok);
            }
            Class::Update => {
                let v = w.books.next_value(k);
                let (r, t) = w.call::<ALL, _>(|| map.update(key, v));
                let ok = w.books.check_update(k, v, r);
                if !ok {
                    w.note_failure(|| format!("update of the present key {k} returned {r}"));
                }
                w.done::<ALL>(op.class, t, r, ok);
            }
            Class::Range => {
                let hi = k + SCAN_WIDTH;
                let (r, t) = w.call::<ALL, _>(|| map.scan(key, u64::from(hi)));
                let entries = r.expect("a scan was taped for an unordered map");
                let repeats = w.books.check_range(k, hi, &entries);
                w.tally.scan_repeats += u64::from(repeats.unwrap_or(0));
                let ok = repeats.is_some();
                if !ok {
                    let want = w.books.describe_range(k, hi);
                    w.note_failure(|| format!("scan returned {entries:?}; {want}"));
                }
                w.done::<ALL>(op.class, t, !entries.is_empty(), ok);
            }
            Class::Transfer | Class::Balance => unreachable!("account operation on a map tape"),
        }
    }

    fn audit(&self, spec: &Spec, books: &[&Books]) -> Audit {
        let map = &self.0;
        let (mut audit, live) = books::audit_keys(spec, books, |k| map.get(u64::from(k)));
        audit.check(map.len_approx() == Some(live.count as usize));
        if let Some(all) = map.scan(0, u64::from(spec.keys)) {
            audit.check(all.len() as u64 == live.count);
            audit.check(all.iter().map(|e| e.0).sum::<u64>() == live.key_sum);
        }
        audit.check(catch_unwind(AssertUnwindSafe(|| map.check_invariants())).is_ok());
        audit
    }
}

/// The account workloads' instance: no `flock-ds`, only `flock-core`.
pub struct Accounts(Vec<Arc<Locked<Mutable<u64>>>>);

impl Accounts {
    /// Set-up: open `n` accounts.
    pub fn build(n: u32) -> Self {
        Self(
            (0..n)
                .map(|_| Arc::new(Locked::new(Mutable::new(books::OPENING))))
                .collect(),
        )
    }
}

/// Hold the calling thread up for [`STALL`] by spinning on the clock. Not
/// `thread::sleep`: a sleeping vCPU is handed back by the host 0.1 to 3 ms
/// late and runs slowly for a while after, which at times made the
/// blocking-mode throughput of `stalled-holder` vary a hundredfold from
/// window to window. Between two looks at the clock it pauses for a few
/// microseconds, so that it takes next to nothing from a worker that may
/// share its core: spinning on the clock alone cost the other worker a
/// quarter of its speed whenever the host had the two vCPUs on one core.
fn stall() {
    let since = std::time::Instant::now();
    while since.elapsed() < STALL {
        for _ in 0..64 {
            std::hint::spin_loop();
        }
    }
}

impl Subject for Accounts {
    #[inline(always)]
    fn exec<const ALL: bool>(&self, op: Op, w: &mut Worker) {
        match op.class {
            Class::Transfer => {
                let (from, to) = (&self.0[op.a as usize], &self.0[op.b as usize]);
                let amount = u64::from(op.amount);
                // Only the owning thread stalls: a helper that replays the
                // thunk must run through, as it would past a descheduled
                // owner. The stall sits between the two stores, so a helper
                // really completes the transfer.
                let sleeper = op.stall.then(|| std::thread::current().id());
                let mut calls = 0;
                let (moved, t) = w.call::<ALL, _>(|| {
                    let mut backoff: Option<Backoff> = None;
                    loop {
                        calls += 1;
                        let r = Locked::try_with2(from, to, move |from, to| {
                            let have = from.load();
                            if have < amount {
                                return false;
                            }
                            from.store(have - amount);
                            if sleeper.is_some_and(|id| std::thread::current().id() == id) {
                                stall();
                            }
                            to.store(to.load() + amount);
                            true
                        });
                        match r {
                            Some(moved) => break moved,
                            None => backoff.get_or_insert_with(Backoff::new).snooze(),
                        }
                    }
                });
                w.tally.lock_calls += calls;
                w.tally.lock_busy += calls - 1;
                w.tally.stalls += u64::from(op.stall);
                let ok = w.books.check_transfer(op.a, op.b, op.amount, moved);
                if !ok {
                    w.note_failure(|| format!("transfer {} -> {} found no funds", op.a, op.b));
                }
                w.done::<ALL>(op.class, t, moved, ok);
            }
            Class::Balance => {
                let cell = &self.0[op.a as usize];
                let (v, t) =
                    w.call::<ALL, _>(|| cell.read_validated(Mutable::load_acquire, Mutable::load));
                let ok = w.books.check_balance(v);
                if !ok {
                    w.note_failure(|| format!("balance of account {} read as {v}", op.a));
                }
                w.done::<ALL>(op.class, t, true, ok);
            }
            _ => unreachable!("map operation on an account tape"),
        }
    }

    fn audit(&self, spec: &Spec, books: &[&Books]) -> Audit {
        books::audit_accounts(spec, books, |i| self.0[i as usize].load())
    }
}
