//! The paper's headline phenomenon, live: under oversubscription (more
//! threads than cores), blocking locks collapse — a descheduled lock holder
//! stalls everyone — while lock-free locks keep the system moving because
//! contenders help the holder finish, after a short bounded wait for it to
//! release on its own.
//!
//! This example measures the same hash table in both modes at 1× and 8×
//! the core count and prints the throughput ratio, then demonstrates the
//! robustness property directly by parking a lock holder mid-critical-
//! section and timing how long another thread needs to get the lock: that
//! time includes the bounded wait, a microsecond or two, before the help.
//! One such time varies by several microseconds from run to run, so the
//! demo parks a fresh holder in each of 101 rounds and prints the median
//! and the range.
//!
//! ```sh
//! cargo run --release --example oversubscribed
//! ```

use flock::core::{Lock, LockMode, Mutable, set_lock_mode};
use flock::ds::hashtable::HashTable;
use std::sync::Arc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn throughput(mode: LockMode, threads: usize, secs: f64) -> f64 {
    set_lock_mode(mode);
    let table: Arc<HashTable<u64, u64>> = Arc::new(HashTable::with_capacity(1024));
    for k in 0..1024 {
        table.insert(k, k);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let (table, stop, ops) = (Arc::clone(&table), Arc::clone(&stop), Arc::clone(&ops));
            s.spawn(move || {
                let mut state = t + 1;
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let k = state % 2048;
                    if state % 2 == 0 {
                        table.insert(k, k);
                    } else {
                        table.remove(k);
                    }
                    n += 1;
                }
                ops.fetch_add(n, Ordering::Relaxed);
            });
        }
        std::thread::sleep(Duration::from_secs_f64(secs));
        stop.store(true, Ordering::SeqCst);
    });
    ops.load(Ordering::Relaxed) as f64 / secs / 1e6
}

/// Parked-holder rounds, one holder thread at a time: odd, so the median
/// is one measured round.
const STALL_ROUNDS: usize = 101;

/// One round: park a fresh holder inside its critical section and time how
/// long another thread needs to acquire the lock.
fn stalled_holder_round() -> Duration {
    let lock = Arc::new(Lock::new());
    let value = Arc::new(Mutable::new(0u32));
    let entered = Arc::new(std::sync::Barrier::new(2));

    let (l, v, e) = (Arc::clone(&lock), Arc::clone(&value), Arc::clone(&entered));
    let holder = std::thread::spawn(move || {
        let owner = std::thread::current().id();
        let (v2, e2) = (Arc::clone(&v), Arc::clone(&e));
        l.try_lock(move || {
            v2.store(v2.load() + 1);
            // Simulate the owner being descheduled indefinitely: only the
            // owning thread parks; helpers replaying the thunk skip this.
            if std::thread::current().id() == owner {
                e2.wait();
                std::thread::park_timeout(Duration::from_secs(300));
            }
        })
    });

    entered.wait();
    // The holder is now parked *inside* its critical section. Time how
    // long another thread needs to acquire the lock: in lock-free mode it
    // waits a bounded few microseconds for a release that never comes,
    // then helps the stalled thunk to completion and proceeds.
    // (`Some(())` = acquired; `None` = busy, i.e. helping hasn't finished.)
    let t0 = Instant::now();
    let mut waited = Duration::ZERO;
    loop {
        let v2 = Arc::clone(&value);
        if lock.try_lock(move || v2.store(v2.load() + 10)).is_some() {
            waited = t0.elapsed();
            break;
        }
        if t0.elapsed() > Duration::from_secs(30) {
            break;
        }
    }
    assert_eq!(value.load(), 11, "stalled thunk applied exactly once");
    holder.thread().unpark();
    let _ = holder.join();
    waited
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    println!("host parallelism: {cores}");

    for threads in [cores, 8 * cores] {
        let lf = throughput(LockMode::LockFree, threads, 0.5);
        let bl = throughput(LockMode::Blocking, threads, 0.5);
        let tag = if threads > cores {
            "oversubscribed"
        } else {
            "1x cores"
        };
        println!(
            "{threads:>4} threads ({tag:>14}): lock-free {lf:8.2} Mop/s | blocking {bl:8.2} Mop/s | lf/bl = {:.2}x",
            lf / bl
        );
    }

    set_lock_mode(LockMode::LockFree);
    let mut waits: Vec<Duration> = (0..STALL_ROUNDS).map(|_| stalled_holder_round()).collect();
    waits.sort();
    println!(
        "time to acquire a lock whose holder is parked mid-section, {STALL_ROUNDS} rounds: \
         median {:?}, range {:?} to {:?}",
        waits[STALL_ROUNDS / 2],
        waits[0],
        waits[STALL_ROUNDS - 1]
    );
    println!("(blocking locks would wait the full 300s park)");
}
