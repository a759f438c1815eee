//! The protocol model-checking suite: the load-bearing invariants of
//! "Lock-free locks revisited", checked exhaustively at small scope against
//! the **real implementation** (the protocol crates compiled with their
//! `model` feature route every atomic through the checker).
//!
//! Every invariant test states its scope (threads / ops / preemption
//! bound / memory model) and asserts `complete && pruned == 0` — the claim
//! is "no violation in the *entire* bounded schedule space", not "no
//! violation in the schedules we happened to try". Every invariant test is
//! paired with at least one **sanity mutant**: a deliberate weakening of
//! the real code (`mutants` knobs in the protocol crates) that the checker
//! must catch, proving the harness detects the bug class it exists for.
//!
//! Scope bounds shared by the suite: model builds shrink the ABA tag space
//! to `TAG_LIMIT = 8` in windows of `TAG_WINDOW = 2` (wraparound and window
//! entry reachable), `tso` configs model store
//! buffers (the store–load reordering class; see `flock_sync::atomic`),
//! and thread counts stay ≤ 3 plus the test driver.

use std::sync::Arc;
use std::sync::Mutex;

use flock_core::{Lock, Locked, Mutable};
use flock_model::{Config, explore};
use flock_sync::atomic::{AtomicU64, Ordering};
use flock_sync::pack::{TAG_LIMIT, TAG_WINDOW, next_tag};
use flock_sync::{TagAnnouncements, tid};

/// Model tests share process-global registries (thread ids, the epoch
/// collector, the announcement table) and the mutant knobs; serialize them.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII setter for a mutant knob: never leaks an enabled mutant into the
/// next test, even if an assertion unwinds.
struct Knob(&'static core::sync::atomic::AtomicBool);

impl Knob {
    fn set(b: &'static core::sync::atomic::AtomicBool) -> Self {
        b.store(true, core::sync::atomic::Ordering::SeqCst);
        Knob(b)
    }
}

impl Drop for Knob {
    fn drop(&mut self) {
        self.0.store(false, core::sync::atomic::Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------- announce

/// The announce/Dekker pair, component level, against the real
/// `TagAnnouncements` (its one, fence-anchored variant) with the
/// descriptor's done orderings mirrored on a flag cell.
///
/// Protocol: the helper announces `(L, tag)` and then reads `done`
/// (Acquire, as `is_done_announced`); it may CAS only if `done` was false.
/// The owner sets `done` (Release, as `set_done`), releases the lock
/// (SeqCst RMW, as the unlock CAM), re-acquires it (SeqCst RMW), and scans
/// for a reissuable tag. **Invariant (no lost announcement):** it is never
/// the case that the scan reissues the tag *and* the helper proceeds to
/// CAS — one side of the Dekker pair must see the other.
///
/// `TAG` is a window start, so the owner's one `next_free_tag` call *is* a
/// window-entry scan (a mid-window candidate would come back with no table
/// access at all; the lap that leads to an entry scan is
/// `window_entry_body`'s subject).
///
/// Scope: 2 threads, 1 announcement, TSO, ≤2 preemptions, exhaustive.
fn dekker_body() {
    let table = Arc::new(TagAnnouncements::new());
    let done = Arc::new(AtomicU64::new(0));
    let lock_word = Arc::new(AtomicU64::new(1)); // 1 = held by the thunk's owner
    const L: usize = 0x1000;
    const TAG: u16 = 2 * TAG_WINDOW;

    let (t2, d2) = (Arc::clone(&table), Arc::clone(&done));
    let helper = flock_model::spawn(move || {
        let me = tid::current();
        // The helper is mid-`Mutable::store`: announce, then revalidate.
        t2.announce(me, L, TAG);
        // `is_done_announced`: Acquire load anchored by the fence inside
        // `announce`.
        let done_seen = d2.load(Ordering::Acquire) == 1;
        !done_seen // true = helper would issue its CAS
    });

    // Owner: finish the thunk, set done, unlock; then (as the next lock
    // holder) pick the next tag for the location.
    done.store(1, Ordering::Release); // set_done
    lock_word.swap(0, Ordering::SeqCst); // unlock CAM (SeqCst RMW)
    lock_word.swap(1, Ordering::SeqCst); // next holder's acquire (SeqCst RMW)
    let reissued = table.next_free_tag(L, TAG) == TAG;

    let would_cas = helper.join();
    assert!(
        !(would_cas && reissued),
        "lost announcement: tag reissued while the announcing helper \
         proceeds with its stale CAS"
    );
}

#[test]
fn announce_dekker_no_lost_announcement() {
    let _g = serial();
    let report = explore(Config::tso(), dekker_body);
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 10, "space suspiciously small");
}

/// Sanity mutant: drop the announcer-side fence — the announcement parks in
/// the helper's store buffer past its done-check, the scan misses it, and
/// the checker must surface the lost announcement.
#[test]
fn announce_dekker_mutant_skip_fence_is_caught() {
    let _g = serial();
    let _k = Knob::set(&flock_sync::announce::mutants::SKIP_ANNOUNCE_FENCE);
    let report = explore(Config::tso(), dekker_body);
    let f = report.assert_finds_bug();
    assert!(f.message.contains("lost announcement"), "{}", f.message);
}

/// Window-entry scans: the same Dekker pair, with the scan where production
/// now has it — not at every issue but only where a lap of the tag space
/// comes back into the announced tag's window.
///
/// The helper announces `(L, TAG)` for a **mid-window** `TAG` and then
/// done-checks, as in `dekker_body`. The owner's thunk displaced the word
/// carrying `TAG` (the location now carries `TAG + 1`); the owner sets
/// `done`, releases the lock, and later holders (one SeqCst RMW pair stands
/// for their acquisitions) issue tag after tag through the real
/// `next_free_tag` for one full lap: mid-window candidates come back with no
/// table access, window starts scan, the entry into `TAG`'s window is the
/// scan that must see the announcement or be seen by the done-check.
/// **Invariant (no lost announcement):** never "`TAG` re-issued *and* the
/// helper proceeds to CAS".
///
/// Scope: 2 threads, 1 announcement, one lap of the 8-tag space (4 window
/// entries), TSO, ≤2 preemptions, exhaustive.
fn window_entry_body() {
    let table = Arc::new(TagAnnouncements::new());
    let done = Arc::new(AtomicU64::new(0));
    let lock_word = Arc::new(AtomicU64::new(1)); // 1 = held by the thunk's owner
    const L: usize = 0x3000;
    const TAG: u16 = 2 * TAG_WINDOW + 1; // mid-window: never scanned for itself

    let (t2, d2) = (Arc::clone(&table), Arc::clone(&done));
    let helper = flock_model::spawn(move || {
        let me = tid::current();
        t2.announce(me, L, TAG);
        let done_seen = d2.load(Ordering::Acquire) == 1;
        !done_seen // true = helper would issue its CAS
    });

    done.store(1, Ordering::Release); // set_done
    lock_word.swap(0, Ordering::SeqCst); // unlock CAM (SeqCst RMW)
    lock_word.swap(1, Ordering::SeqCst); // a later holder's acquire (SeqCst RMW)
    let mut reissued = false;
    let mut tag = next_tag(TAG); // what the owner's thunk left on the word
    for _ in 0..TAG_LIMIT {
        tag = table.next_free_tag(L, next_tag(tag));
        reissued |= tag == TAG;
    }

    let would_cas = helper.join();
    assert!(
        !(would_cas && reissued),
        "lost announcement: a lap re-entered the announced tag's window and \
         re-issued the tag while the announcing helper proceeds with its stale CAS"
    );
}

#[test]
fn announce_window_entry_no_lost_announcement() {
    let _g = serial();
    let report = explore(Config::tso(), window_entry_body);
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 10, "space suspiciously small");
}

/// Sanity mutant: window entry reports every window clean without reading
/// the table. The lap re-issues the announced tag under a helper whose
/// done-check ran before `done` was set, and the checker must surface it.
#[test]
fn announce_window_entry_mutant_skip_scan_is_caught() {
    let _g = serial();
    let _k = Knob::set(&flock_sync::announce::mutants::SKIP_WINDOW_SCAN);
    let report = explore(Config::tso(), window_entry_body);
    let f = report.assert_finds_bug();
    assert!(f.message.contains("lost announcement"), "{}", f.message);
}

/// What the window degrades to under a tiny model tag limit (the
/// `lock_word_tag_wrap_*` scope): a limit below `2 * TAG_WINDOW` has no two
/// whole windows, so the window is a single tag — every issue is a window
/// entry and scans, which is the per-issue behaviour those tests were
/// written against. At the full model limit the same calls show windows of
/// `TAG_WINDOW` tags.
#[test]
fn tiny_tag_limit_degrades_window_to_one_tag() {
    let _g = serial();
    let body = |tiny: bool| {
        let table = TagAnnouncements::new();
        let me = tid::current();
        const L: usize = 0x4000;
        table.announce(me, L, 1);
        if tiny {
            // Tag space {0, 1}, windows {0} and {1}.
            assert_eq!(table.next_free_tag(L, 1), 0, "announced tag skipped");
            assert_eq!(
                table.next_free_tag(L, 0),
                0,
                "its neighbour is its own window"
            );
            assert_eq!(table.next_free_tag(L, 2), 0, "the limit counts as tag 0");
        } else {
            // Windows of two: 1 is mid-window (untouched), 0 enters the
            // window that holds the announcement.
            assert_eq!(table.next_free_tag(L, 1), 1);
            assert_eq!(table.next_free_tag(L, 0), TAG_WINDOW);
        }
        table.clear(me);
    };
    explore(Config::sc(), move || body(false)).assert_exhaustive_ok();
    let _t = TagLimit::set(2);
    explore(Config::sc(), move || body(true)).assert_exhaustive_ok();
}

// ---------------------------------------------------------------- try_lock

/// Full-stack `try_lock`: two threads, one lock, each runs one
/// increment-thunk through the real lock-free path (pin, descriptor,
/// install CAM, helping, thunk log, announcement, unlock CAM, dispose).
///
/// **Invariants:** (a) thunk effects apply exactly once each — the counter
/// equals the number of successful acquisitions; (b) at least one thread
/// acquires; (c) the lock ends released.
///
/// Scope: 2 threads, 1 op each, SC, ≤2 preemptions, exhaustive.
fn try_lock_body() {
    let lock = Arc::new(Lock::new());
    let counter = Arc::new(Mutable::new(0u64));

    let (l2, c2) = (Arc::clone(&lock), Arc::clone(&counter));
    let t = flock_model::spawn(move || {
        let c3 = Arc::clone(&c2);
        l2.try_lock(move || c3.store(c3.load() + 1)).is_some()
    });
    let c3 = Arc::clone(&counter);
    let mine = lock.try_lock(move || c3.store(c3.load() + 1)).is_some();
    let theirs = t.join();

    let acquired = mine as u64 + theirs as u64;
    assert!(acquired >= 1, "both try_locks failed on a free lock");
    assert_eq!(
        counter.load(),
        acquired,
        "thunk effects not exactly-once (helping replay diverged?)"
    );
    assert!(!lock.is_locked(), "lock leaked a hold");
}

#[test]
fn try_lock_effects_exactly_once_under_helping() {
    let _g = serial();
    let report = explore(Config::sc(), try_lock_body);
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 100, "space suspiciously small");
}

/// Sanity mutant: log commits stop agreeing (every committer "wins" with
/// its own value), so a helper's replay diverges from the owner's run and
/// effects double-apply. The checker must catch it.
#[test]
fn try_lock_mutant_log_no_agreement_is_caught() {
    let _g = serial();
    let _k = Knob::set(&flock_core::mutants::LOG_NO_AGREEMENT);
    let report = explore(Config::sc(), try_lock_body);
    let f = report.assert_finds_bug();
    assert!(f.message.contains("exactly-once"), "{}", f.message);
}

// -------------------------------------------------------------------- ccas

/// ccas idempotence with helpers racing the owner through a multi-store
/// thunk: the owner's critical section performs two dependent stores; every
/// contender that finds the lock busy replays the same thunk via helping.
/// The tagged-word ccas plus log agreement must make each logical store hit
/// memory exactly once no matter how runs interleave.
///
/// `n_helpers` spawns that many racing threads (their own try_locks also
/// count when they acquire).
fn ccas_body(n_helpers: usize) {
    let lock = Arc::new(Lock::new());
    let counter = Arc::new(Mutable::new(0u64));

    let mut handles = Vec::new();
    for _ in 0..n_helpers {
        let (l2, c2) = (Arc::clone(&lock), Arc::clone(&counter));
        handles.push(flock_model::spawn(move || {
            let c3 = Arc::clone(&c2);
            l2.try_lock(move || {
                // Two dependent stores: replay divergence on either the
                // loads or the tag agreement shows up as a wrong total.
                c3.store(c3.load() + 1);
                c3.store(c3.load() + 1);
            })
            .is_some()
        }));
    }
    let c3 = Arc::clone(&counter);
    let mine = lock
        .try_lock(move || {
            c3.store(c3.load() + 1);
            c3.store(c3.load() + 1);
        })
        .is_some();

    let mut acquired = mine as u64;
    for h in handles {
        acquired += h.join() as u64;
    }
    assert!(acquired >= 1);
    assert_eq!(
        counter.load(),
        2 * acquired,
        "a store applied more or less than once per acquisition"
    );
}

/// Scope: owner + 1 helper, SC, ≤2 preemptions, exhaustive.
#[test]
fn ccas_owner_one_helper_exhaustive() {
    let _g = serial();
    let report = explore(Config::sc(), || ccas_body(1));
    report.assert_exhaustive_ok();
}

/// Scope: owner + 2 helpers ("two helpers race an owner"), SC, ≤1
/// preemption, exhaustive. One preemption suffices for the canonical race:
/// the owner is preempted mid-thunk, then both helpers run the same
/// descriptor back to back (the second observing `done`/log state of the
/// first) before the owner resumes and replays.
#[test]
fn ccas_two_helpers_race_owner_exhaustive() {
    let _g = serial();
    let report = explore(
        Config {
            max_preemptions: 1,
            ..Config::sc()
        },
        || ccas_body(2),
    );
    report.assert_exhaustive_ok();
}

/// Deeper (non-exhaustive, seeded) sweep of the 3-thread space at 3
/// preemptions: same invariant, fixed seed → fully reproducible.
#[test]
fn ccas_two_helpers_seeded_sweep() {
    let _g = serial();
    let report = explore(
        Config {
            max_preemptions: 3,
            seed: Some(0xF10C4),
            samples: 400,
            ..Config::sc()
        },
        || ccas_body(2),
    );
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert_eq!(report.pruned, 0);
}

/// Sanity mutant: loads stop committing to the thunk log, so replays read
/// whatever is current instead of what the first run saw — the classic
/// double-increment. The checker must catch it at the smallest scope.
#[test]
fn ccas_mutant_uncommitted_loads_is_caught() {
    let _g = serial();
    let _k = Knob::set(&flock_core::mutants::SKIP_LOAD_COMMIT);
    let report = explore(Config::sc(), || ccas_body(1));
    let f = report.assert_finds_bug();
    assert!(
        f.message.contains("more or less than once"),
        "{}",
        f.message
    );
}

// ------------------------------------------------------------------- epoch

/// Epoch reclamation: a retirement can never be freed while a thread that
/// observed the object under an epoch guard is still pinned.
///
/// The **driver** plays the reader: it pins, reads a shared slot, and —
/// having seen a non-null pointer — asserts (twice, across scheduling
/// points) that the object has not been dropped. The spawned thread is the
/// reclaimer: it unlinks the object, retires it, drives the epoch forward
/// and collects. The canary's `Drop` records the free. (Roles matter for
/// the preemption budget: with the reader driving, the mutant's
/// use-after-free schedule needs a single preemption — pause the reader
/// between its two observations, run the reclaimer to completion, switch
/// back free.)
///
/// Scope: 2 threads, 1 object, TSO, preemption bound per caller,
/// exhaustive at bound 1 plus a seeded bound-3 sweep.
fn epoch_body() {
    struct Canary(Arc<core::sync::atomic::AtomicBool>);
    impl Drop for Canary {
        fn drop(&mut self) {
            self.0.store(true, core::sync::atomic::Ordering::SeqCst);
        }
    }

    let freed = Arc::new(core::sync::atomic::AtomicBool::new(false));
    let slot = Arc::new(AtomicU64::new(0));
    let ptr = flock_epoch::alloc(Canary(Arc::clone(&freed)));
    slot.store(ptr as usize as u64, Ordering::SeqCst);

    let s2 = Arc::clone(&slot);
    let reclaimer = flock_model::spawn(move || {
        let p = s2.swap(0, Ordering::SeqCst); // unlink
        if p != 0 {
            let g = flock_epoch::pin();
            // SAFETY: unlinked above; retired exactly once; pinned.
            unsafe { flock_epoch::retire(p as usize as *mut Canary) };
            drop(g);
            // Two advances put the epoch two past the retire stamp — the
            // minimum for the collector to free it absent a reservation.
            flock_epoch::try_advance();
            flock_epoch::try_advance();
            flock_epoch::collect_now();
        }
        // Drain this thread's buffer (the unpin store) so it does not
        // linger as a flush choice at every remaining decision point: a
        // pure state-space bound — the hazard under test (the *reader's*
        // reservation store delayed past its reads) is elsewhere.
        flock_sync::atomic::fence(Ordering::SeqCst);
    });

    // The driver is the reader (two vthreads total — keeps the exhaustive
    // space tractable without losing reader-vs-reclaimer interleavings).
    let guard = flock_epoch::pin();
    let p = slot.load(Ordering::Acquire);
    if p != 0 {
        assert!(
            !freed.load(core::sync::atomic::Ordering::SeqCst),
            "retired object freed while a pinned reader holds it"
        );
        // A second observation across another scheduling point widens the
        // window in which an early free would be caught.
        let _ = slot.load(Ordering::Acquire);
        assert!(
            !freed.load(core::sync::atomic::Ordering::SeqCst),
            "retired object freed while a pinned reader holds it"
        );
    }
    drop(guard);
    reclaimer.join();
}

#[test]
fn epoch_pin_blocks_reclaim() {
    let _g = serial();
    let report = explore(
        Config {
            max_preemptions: 1,
            ..Config::tso()
        },
        epoch_body,
    );
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 100, "space suspiciously small");
}

/// Deeper (non-exhaustive, seeded) sweep at 3 preemptions: same invariant,
/// fixed seed → fully reproducible.
#[test]
fn epoch_pin_blocks_reclaim_seeded_sweep() {
    let _g = serial();
    let report = explore(
        Config {
            max_preemptions: 3,
            seed: Some(0xEB0C4),
            samples: 400,
            ..Config::tso()
        },
        epoch_body,
    );
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert_eq!(report.pruned, 0);
}

/// Sanity mutant: skip the pin-publication fence. The reservation parks in
/// the reader's store buffer, the collector's scan misses it, and the
/// object is freed under the reader — the checker must catch the
/// use-after-free window.
#[test]
fn epoch_mutant_skip_pin_fence_is_caught() {
    let _g = serial();
    let _k = Knob::set(&flock_epoch::mutants::SKIP_PIN_FENCE);
    let report = explore(
        Config {
            max_preemptions: 1,
            ..Config::tso()
        },
        epoch_body,
    );
    let f = report.assert_finds_bug();
    assert!(
        f.message.contains("freed while a pinned reader"),
        "{}",
        f.message
    );
}

// ---------------------------------------------------------------- tag wrap

/// RAII override of the effective lock-word tag space (model-only knob):
/// never leaks a shrunken tag space into the next test.
struct TagLimit;

impl TagLimit {
    fn set(limit: u16) -> Self {
        flock_sync::pack::model_tag_limit::set(limit);
        TagLimit
    }
}

impl Drop for TagLimit {
    fn drop(&mut self) {
        flock_sync::pack::model_tag_limit::set(flock_sync::pack::TAG_LIMIT);
    }
}

/// Lock-word tag wraparound under a stalled helper — PR 3's documented
/// "residual window", closed for real by the descriptor generation counter.
///
/// With the effective tag space shrunk to 2, every install/unlock pair
/// wraps the lock word, so the worker's *second* try_lock reinstalls its
/// pool-reused descriptor at the **identical packed word** (tag, ptr) that
/// was observed during the first — the reincarnation a stalled helper must
/// reject. The helper is split along its real seam (`model_probe`:
/// observe, then help) across two threads, so the checker can stall it
/// arbitrarily long without spending preemptions inside `try_lock`: an
/// observer thread captures the packed word once, and a helper thread
/// later runs the real help path against that observation. Acting on the
/// stale observation, the pre-fix help path (raw word-only revalidation,
/// unconditional unlock CAM) can CAM-release the wrapped second install
/// before its thunk ever ran — making the worker's own acquisition fail —
/// or replay a recycled descriptor ("descriptor thunk called before set").
///
/// **Invariants:** (a) both worker try_locks succeed — the observer and
/// helper threads never acquire, and a correct helper either helps the
/// *current* incarnation to completion or does nothing, so nothing can
/// make the worker's install fail; (b) the lock ends released; (c) no
/// panic.
fn tag_wrap_body() {
    let lock = Arc::new(Lock::new());
    let obs_cell = Arc::new(AtomicU64::new(0));

    // Worker: two complete try_locks — one thread, so the second op
    // pool-reuses the first op's descriptor and (tag space 2) reinstalls
    // the identical packed word. Op 1's own thunk records the packed word
    // of its hold into `obs_cell`: the helper's observation, captured with
    // zero scheduling cost (the load is the thunk's own committed load, so
    // every replay stores the same value — an idempotent effect).
    let l1 = Arc::clone(&lock);
    let o1 = Arc::clone(&obs_cell);
    let worker = flock_model::spawn(move || {
        let mut acquired = 0usize;
        let (l2, o2) = (Arc::clone(&l1), Arc::clone(&o1));
        if l1
            .try_lock(move || o2.store(flock_core::model_probe::observe(&l2), Ordering::SeqCst))
            .is_some()
        {
            acquired += 1;
        }
        if l1.try_lock(|| ()).is_some() {
            acquired += 1;
        }
        acquired
    });
    // Stalled helper: run the real help path against the op-1 observation,
    // however long after op 1 the scheduler lets it act.
    let (l3, o3) = (Arc::clone(&lock), Arc::clone(&obs_cell));
    let helper = flock_model::spawn(move || {
        let obs = o3.load(Ordering::SeqCst);
        if obs != 0 {
            flock_core::model_probe::help_observed(&l3, obs);
        }
    });

    let acquired = worker.join();
    helper.join();
    assert_eq!(
        acquired, 2,
        "a worker try_lock failed on a lock nobody else ever acquires \
         (stale helper corrupted the wrapped lock word?)"
    );
    assert!(!lock.is_locked(), "lock leaked a hold");
}

/// Scope: worker + stalled helper (split along the real observe/help
/// seam), one lock, tag space 2 (wraparound on every reinstall), SC, ≤3
/// preemptions, exhaustive (~26k schedules). Three preemptions are what
/// the violating shape needs: worker paused between its ops (the helper
/// marks and fails revalidation against the in-between word), helper
/// paused before its unlock CAM, worker paused after the wrapped second
/// install (the stale CAM's target).
#[test]
fn lock_word_tag_wrap_stale_helper_rejected() {
    let _g = serial();
    let _t = TagLimit::set(2);
    let report = explore(
        Config {
            max_preemptions: 3,
            max_schedules: 1_000_000,
            ..Config::sc()
        },
        tag_wrap_body,
    );
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 1_000, "space suspiciously small");
}

/// Deeper (non-exhaustive, seeded) sweep through the unsplit end-to-end
/// path: a second thread's real `try_lock` is the helper, 3 worker ops,
/// counting thunks (exactly-once), 6 preemptions, fixed seed →
/// reproducible.
#[test]
fn lock_word_tag_wrap_seeded_sweep() {
    let _g = serial();
    let _t = TagLimit::set(2);
    let report = explore(
        Config {
            max_preemptions: 6,
            seed: Some(0x7A6_17A6),
            samples: 300,
            ..Config::sc()
        },
        || {
            let lock = Arc::new(Lock::new());
            let counter = Arc::new(Mutable::new(0u64));
            let (l2, c2) = (Arc::clone(&lock), Arc::clone(&counter));
            let helper = flock_model::spawn(move || {
                let c3 = Arc::clone(&c2);
                l2.try_lock(move || c3.store(c3.load() + 1)).is_some()
            });
            let mut acquired = 0u64;
            for _ in 0..3 {
                let c3 = Arc::clone(&counter);
                if lock.try_lock(move || c3.store(c3.load() + 1)).is_some() {
                    acquired += 1;
                }
            }
            let theirs = helper.join() as u64;
            assert_eq!(
                counter.load(),
                acquired + theirs,
                "thunk effects not exactly-once across tag wraparound"
            );
            assert!(!lock.is_locked(), "lock leaked a hold");
        },
    );
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert_eq!(report.pruned, 0);
}

/// Sanity mutant: drop the generation checks (pre-fix help path — raw
/// word-only revalidation, unconditional unlock CAM). Across an exact
/// tag wraparound the stale helper acts on the reincarnated packed word,
/// and the checker must surface a violation (a failed worker acquisition,
/// a leaked hold, or the recycled-descriptor crash).
#[test]
fn lock_word_tag_wrap_mutant_skip_gen_check_is_caught() {
    let _g = serial();
    let _t = TagLimit::set(2);
    let _k = Knob::set(&flock_core::mutants::SKIP_GEN_CHECK);
    let report = explore(
        Config {
            max_preemptions: 3,
            max_schedules: 1_000_000,
            ..Config::sc()
        },
        tag_wrap_body,
    );
    let f = report.assert_finds_bug();
    assert!(
        f.message.contains("worker try_lock failed")
            || f.message.contains("lock leaked a hold")
            || f.message.contains("descriptor thunk called before set"),
        "unexpected failure mode: {}",
        f.message
    );
}

// ------------------------------------------------------ nested acquisition

/// Nested acquisition with deferred descriptor disposal (the §6 reuse rule
/// extended to nested descriptors; `flock_core::descriptor`, "Lifecycle and
/// hand-off"): the owner takes `outer`, inside it `inner`, and inside that
/// increments a counter — twice over, so that the second round draws on
/// whatever the first round's drain put in the pool. One contender that
/// only ever helps (the real help path, split along its observe/help seam
/// like `tag_wrap_body`'s) arrives through the **outer** lock word, where
/// it replays the outer thunk and reaches the nested descriptor through
/// its log, or through the **inner** one, where it runs the nested
/// descriptor directly. With `strict_inner` the nested acquisition is a
/// strict `lock` instead of a `try_lock`: the same attempt, repeated until
/// it runs, inside the helped outer thunk.
///
/// **Invariants:** (a) both rounds acquire both locks — the helper never
/// acquires, and a correct helper either helps the current incarnation to
/// completion or does nothing; (b) the store's effect is applied exactly
/// once per round, which is what fails when a descriptor is reset while a
/// validated runner can still read it: the replayer finds `done` cleared
/// and the log empty, re-commits fresh reads and stores again; (c) both
/// lock words end unlocked; (d) no panic ("descriptor thunk called before
/// set" is a reset descriptor seen from inside).
fn nested_body(through_outer: bool, strict_inner: bool) {
    let outer = Arc::new(Lock::new());
    let inner = Arc::new(Lock::new());
    let counter = Arc::new(Mutable::new(0u64));

    let seen_on = Arc::clone(if through_outer { &outer } else { &inner });
    let helper = flock_model::spawn(move || {
        let seen = flock_core::model_probe::observe(&seen_on);
        flock_core::model_probe::help_observed(&seen_on, seen);
    });

    for round in 1..=2u64 {
        let (i2, c2) = (Arc::clone(&inner), Arc::clone(&counter));
        let got = outer.try_lock(move || {
            let c3 = Arc::clone(&c2);
            let bump = move || c3.store(c3.load() + 1);
            if strict_inner {
                i2.lock(bump)
            } else {
                i2.try_lock(bump)
            }
        });
        assert_eq!(
            got,
            Some(Some(())),
            "a nested acquisition failed on locks nobody else ever acquires"
        );
        assert_eq!(
            counter.load(),
            round,
            "nested store not applied exactly once (a replayer ran on a reset descriptor?)"
        );
    }
    helper.join();

    assert_eq!(
        counter.load(),
        2,
        "nested store not applied exactly once (a replayer ran on a reset descriptor?)"
    );
    assert!(!outer.is_locked(), "outer lock leaked a hold");
    assert!(!inner.is_locked(), "inner lock leaked a hold");
}

/// Scope: owner (2 rounds of outer→inner→store) + 1 helper arriving through
/// the outer lock word, SC, ≤2 preemptions, exhaustive.
#[test]
fn nested_try_lock_exactly_once_under_helping() {
    let _g = serial();
    let report = explore(
        Config {
            max_schedules: 1_000_000,
            ..Config::sc()
        },
        || nested_body(true, false),
    );
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 1_000, "space suspiciously small");
}

/// Same scope, the helper arriving through the inner lock word.
#[test]
fn nested_try_lock_exactly_once_helped_through_inner_word() {
    let _g = serial();
    let report = explore(
        Config {
            max_schedules: 1_000_000,
            ..Config::sc()
        },
        || nested_body(false, false),
    );
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 1_000, "space suspiciously small");
}

/// Same scope with a strict inner `lock`, the helper arriving through
/// either word.
#[test]
fn nested_strict_lock_exactly_once_under_helping() {
    let _g = serial();
    for through_outer in [true, false] {
        let report = explore(
            Config {
                max_schedules: 1_000_000,
                ..Config::sc()
            },
            move || nested_body(through_outer, true),
        );
        report.assert_exhaustive_ok();
        assert!(report.schedules_run > 1_000, "space suspiciously small");
    }
}

/// Deeper (non-exhaustive, seeded) sweep of both variants at 4
/// preemptions: same invariants, fixed seed → fully reproducible.
#[test]
fn nested_try_lock_seeded_sweep() {
    let _g = serial();
    for through_outer in [true, false] {
        let report = explore(
            Config {
                max_preemptions: 4,
                seed: Some(0x4E57ED),
                samples: 400,
                ..Config::sc()
            },
            move || nested_body(through_outer, false),
        );
        assert!(report.failure.is_none(), "{}", report.failure.unwrap());
        assert_eq!(report.pruned, 0);
    }
}

/// Sanity mutant: the drain recycles deferred descriptors whatever the
/// `helped` marks say. Through either lock word, a validated helper paused
/// inside the nested thunk resumes on a descriptor the owner has reset,
/// and the checker must surface the second application of the store.
#[test]
fn nested_try_lock_mutant_recycle_helped_nested_is_caught() {
    let _g = serial();
    let _k = Knob::set(&flock_core::mutants::RECYCLE_HELPED_NESTED);
    for through_outer in [true, false] {
        let report = explore(Config::sc(), move || nested_body(through_outer, false));
        let f = report.assert_finds_bug();
        assert!(
            f.message.contains("exactly once")
                || f.message.contains("descriptor thunk called before set"),
            "unexpected failure mode (through_outer = {through_outer}): {}",
            f.message
        );
    }
}

// ---------------------------------------------------- two-lock descriptor

/// One descriptor on two lock words (`Locked::try_with2`, a two-lock set;
/// `flock_core`'s `lock` module docs, "One descriptor on a lock set"): the
/// owner transfers between two cells, twice over, so that the second
/// round reuses the slab the first round's dispose pooled. One contender that
/// only ever helps (the real help path, split along its observe/help seam
/// like `nested_body`'s) arrives through the **first** word, where it runs
/// the whole thunk — including the install on the second word — or through
/// the **second**, where it finishes the descriptor the thunk installed
/// there and releases that word only.
///
/// **Invariants:** (a) both rounds transfer — the helper never acquires,
/// and a correct helper either helps the current incarnation to completion
/// or does nothing; (b) each round's stores apply exactly once, which is
/// what fails when the owner resets the descriptor while a validated
/// helper can still run it; (c) both lock words are unlocked whenever a
/// transfer has returned; (d) no panic ("descriptor thunk called before
/// set" is a reset descriptor seen from inside — in a helper, whose panic
/// `help` swallows, too).
fn two_lock_body(through_first: bool) {
    watch_reset_runs();
    RESET_RUN.store(false, core::sync::atomic::Ordering::SeqCst);
    let a = Arc::new(Locked::new(Mutable::new(0u64)));
    let b = Arc::new(Locked::new(Mutable::new(0u64)));
    let (first, second) = if Arc::as_ptr(&a) < Arc::as_ptr(&b) {
        (&a, &b)
    } else {
        (&b, &a)
    };
    let seen_on = Arc::clone(if through_first { first } else { second });
    let helper = flock_model::spawn(move || {
        let seen = flock_core::model_probe::observe(seen_on.lock_ref());
        flock_core::model_probe::help_observed(seen_on.lock_ref(), seen);
    });

    for round in 1..=2u64 {
        let got = Locked::try_with2(&a, &b, |x, y| {
            x.store(x.load() + 1);
            y.store(y.load() + 1);
        });
        assert_eq!(
            got,
            Some(()),
            "a transfer failed on locks nobody else ever acquires"
        );
        assert_eq!(
            (a.load(), b.load()),
            (round, round),
            "transfer not applied exactly once (a helper ran a reset descriptor?)"
        );
        assert!(!first.is_locked(), "first lock leaked a hold");
        assert!(!second.is_locked(), "second lock leaked a hold");
    }
    helper.join();
    assert!(
        !RESET_RUN.load(core::sync::atomic::Ordering::SeqCst),
        "a helper ran a reset descriptor: descriptor thunk called before set"
    );
    assert_eq!(
        (a.load(), b.load()),
        (2, 2),
        "transfer not applied exactly once (a helper ran a reset descriptor?)"
    );
    assert!(!a.is_locked() && !b.is_locked(), "a lock leaked a hold");
}

/// Set when any thread panics with "descriptor thunk called before set".
/// `Lock::help` catches a helper's panic and swallows it, so a helper
/// that runs a reset descriptor is seen only here.
static RESET_RUN: core::sync::atomic::AtomicBool = core::sync::atomic::AtomicBool::new(false);

/// Install (once per process) the panic hook that sets [`RESET_RUN`],
/// before the default hook runs.
fn watch_reset_runs() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str));
            if message.is_some_and(|m| m.contains("descriptor thunk called before set")) {
                RESET_RUN.store(true, core::sync::atomic::Ordering::SeqCst);
            }
            default(info);
        }));
    });
}

/// Scope: owner (2 transfers) + 1 helper arriving through the first lock
/// word, SC, ≤2 preemptions, exhaustive.
#[test]
fn two_lock_exactly_once_helped_through_first_word() {
    let _g = serial();
    let report = explore(
        Config {
            max_schedules: 1_000_000,
            ..Config::sc()
        },
        || two_lock_body(true),
    );
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 1_000, "space suspiciously small");
}

/// Same scope, the helper arriving through the second lock word.
#[test]
fn two_lock_exactly_once_helped_through_second_word() {
    let _g = serial();
    let report = explore(
        Config {
            max_schedules: 1_000_000,
            ..Config::sc()
        },
        || two_lock_body(false),
    );
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 1_000, "space suspiciously small");
}

/// Deeper (non-exhaustive, seeded) sweep of both variants at 4
/// preemptions: same invariants, fixed seed → fully reproducible.
#[test]
fn two_lock_seeded_sweep() {
    let _g = serial();
    for through_first in [true, false] {
        let report = explore(
            Config {
                max_preemptions: 4,
                seed: Some(0x2_10C),
                samples: 400,
                ..Config::sc()
            },
            move || two_lock_body(through_first),
        );
        assert!(report.failure.is_none(), "{}", report.failure.unwrap());
        assert_eq!(report.pruned, 0);
    }
}

/// Sanity mutant: the owner reads `helped` (and pools the descriptor)
/// before it releases the second word. A helper that observed the
/// descriptor on the second word marks it after that read, still finds
/// the word unreleased and its generation unchanged, and runs a descriptor
/// the owner has reset.
#[test]
fn two_lock_mutant_helped_before_second_release_is_caught() {
    let _g = serial();
    let _k = Knob::set(&flock_core::mutants::HELPED_BEFORE_LAST_RELEASE);
    let report = explore(Config::sc(), || two_lock_body(false));
    let f = report.assert_finds_bug();
    assert!(
        f.message.contains("exactly once")
            || f.message.contains("descriptor thunk called before set"),
        "unexpected failure mode: {}",
        f.message
    );
}

/// Sanity mutant: the owner never releases the second word. Unless the
/// helper came through that word, it is still held when the transfer
/// returns.
#[test]
fn two_lock_mutant_skip_second_release_is_caught() {
    let _g = serial();
    let _k = Knob::set(&flock_core::mutants::SKIP_LAST_RELEASE);
    for through_first in [true, false] {
        let report = explore(Config::sc(), move || two_lock_body(through_first));
        let f = report.assert_finds_bug();
        assert!(
            f.message.contains("second lock leaked a hold"),
            "unexpected failure mode (through_first = {through_first}): {}",
            f.message
        );
    }
}

// -------------------------------------------------- three-lock lock set

/// One descriptor on three lock words (`Lock::try_lock_set`; `flock_core`'s
/// `lock` module docs, "One descriptor on a lock set"), shaped like
/// `two_lock_body`: the owner moves one unit into each of three cells under
/// one set, twice over, so the second round reuses the slab the first
/// round's dispose pooled. One contender that only ever helps arrives
/// through the word `through` (0, 1 or 2 in lock order): through the first
/// it runs the whole thunk, including both further installs; through a
/// further word it finishes the descriptor the thunk installed there and
/// releases that word only.
///
/// **Invariants:** as `two_lock_body`'s, over three words: (a) both rounds
/// run, (b) each round's stores apply exactly once, (c) all three words
/// are unlocked whenever a set has returned, (d) no helper runs a reset
/// descriptor.
fn three_lock_body(through: usize) {
    watch_reset_runs();
    RESET_RUN.store(false, core::sync::atomic::Ordering::SeqCst);
    let mut cells: Vec<Arc<Locked<Mutable<u64>>>> = (0..3)
        .map(|_| Arc::new(Locked::new(Mutable::new(0))))
        .collect();
    cells.sort_by_key(Arc::as_ptr);
    let seen_on = Arc::clone(&cells[through]);
    let helper = flock_model::spawn(move || {
        let seen = flock_core::model_probe::observe(seen_on.lock_ref());
        flock_core::model_probe::help_observed(seen_on.lock_ref(), seen);
    });

    let names = ["first", "second", "third"];
    for round in 1..=2u64 {
        let held = cells.clone();
        // SAFETY: the thunk holds every cell, so every lock outlives every
        // runner.
        let got = unsafe {
            cells[0].lock_ref().try_lock_set(
                [cells[1].lock_ref(), cells[2].lock_ref()],
                move || {
                    for c in &held {
                        c.store(c.load() + 1);
                    }
                },
            )
        };
        assert_eq!(
            got,
            Some(()),
            "a set failed on locks nobody else ever acquires"
        );
        for c in &cells {
            assert_eq!(
                c.load(),
                round,
                "set not applied exactly once (a helper ran a reset descriptor?)"
            );
        }
        for (c, name) in cells.iter().zip(names) {
            assert!(!c.is_locked(), "{name} lock leaked a hold");
        }
    }
    helper.join();
    assert!(
        !RESET_RUN.load(core::sync::atomic::Ordering::SeqCst),
        "a helper ran a reset descriptor: descriptor thunk called before set"
    );
    for c in &cells {
        assert_eq!(
            c.load(),
            2,
            "set not applied exactly once (a helper ran a reset descriptor?)"
        );
        assert!(!c.is_locked(), "a lock leaked a hold");
    }
}

/// Scope: owner (2 three-lock sets) + 1 helper arriving through the third
/// lock word, SC, ≤2 preemptions, exhaustive.
#[test]
fn three_lock_exactly_once_helped_through_third_word() {
    let _g = serial();
    let report = explore(
        Config {
            max_schedules: 1_000_000,
            ..Config::sc()
        },
        || three_lock_body(2),
    );
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 1_000, "space suspiciously small");
}

/// Deeper (non-exhaustive, seeded) sweep at 4 preemptions, the helper
/// arriving through each of the three words in turn: same invariants,
/// fixed seed → fully reproducible.
#[test]
fn three_lock_seeded_sweep() {
    let _g = serial();
    for through in 0..3 {
        let report = explore(
            Config {
                max_preemptions: 4,
                seed: Some(0x3_10C),
                samples: 400,
                ..Config::sc()
            },
            move || three_lock_body(through),
        );
        assert!(report.failure.is_none(), "{}", report.failure.unwrap());
        assert_eq!(report.pruned, 0);
    }
}

/// Sanity mutant: the owner never releases the third word. Unless the
/// helper came through that word, it is still held when the set returns.
#[test]
fn three_lock_mutant_skip_third_release_is_caught() {
    let _g = serial();
    let _k = Knob::set(&flock_core::mutants::SKIP_LAST_RELEASE);
    for through in [0, 1] {
        let report = explore(Config::sc(), move || three_lock_body(through));
        let f = report.assert_finds_bug();
        assert!(
            f.message.contains("third lock leaked a hold"),
            "unexpected failure mode (through = {through}): {}",
            f.message
        );
    }
}

/// Sanity mutant: the owner reads `helped` (and pools the descriptor)
/// before it releases the third word. A helper that observed the
/// descriptor on the third word marks it after that read, still finds the
/// word unreleased and its generation unchanged, and runs a descriptor the
/// owner has reset.
#[test]
fn three_lock_mutant_helped_before_third_release_is_caught() {
    let _g = serial();
    let _k = Knob::set(&flock_core::mutants::HELPED_BEFORE_LAST_RELEASE);
    let report = explore(Config::sc(), || three_lock_body(2));
    let f = report.assert_finds_bug();
    assert!(
        f.message.contains("exactly once")
            || f.message.contains("descriptor thunk called before set"),
        "unexpected failure mode: {}",
        f.message
    );
}

// ------------------------------------------- a lock set's further words

/// A two-lock set whose owner takes the second word before the run
/// (`flock_core`'s `lock` module docs, "One descriptor on a lock set"): the
/// owner's top-level install on the second word can come after a helper
/// has run the whole thunk through the first word — the helper's
/// committed read of the second word showed it free and its in-thunk
/// install took it — and, once the helper has also finished the done
/// descriptor through the second word and released it, after that word is
/// free again: a late install on a done descriptor, which only the owner's
/// release step frees. The owner is the spawned thread; the main thread
/// only helps (observe, then the real help path), through the first word
/// and then through the second.
///
/// **Invariants:** (a) the transfer runs, and each store applies exactly
/// once; (b) both words are free once it returned; (c) no runner runs a
/// reset descriptor.
fn set_late_install_body() {
    watch_reset_runs();
    RESET_RUN.store(false, core::sync::atomic::Ordering::SeqCst);
    let a = Arc::new(Locked::new(Mutable::new(0u64)));
    let b = Arc::new(Locked::new(Mutable::new(0u64)));
    let (first, second) = if Arc::as_ptr(&a) < Arc::as_ptr(&b) {
        (&a, &b)
    } else {
        (&b, &a)
    };
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let owner = flock_model::spawn(move || {
        let got = Locked::try_with2(&a2, &b2, |x, y| {
            x.store(x.load() + 1);
            y.store(y.load() + 1);
        });
        let free = !a2.is_locked() && !b2.is_locked();
        (got, free)
    });
    for cell in [first, second] {
        let seen = flock_core::model_probe::observe(cell.lock_ref());
        flock_core::model_probe::help_observed(cell.lock_ref(), seen);
    }
    let (got, free) = owner.join();
    assert_eq!(got, Some(()), "a transfer failed on locks nobody acquires");
    assert!(free, "a word left held after the transfer returned");
    assert_eq!(
        (a.load(), b.load()),
        (1, 1),
        "transfer not applied exactly once"
    );
    assert!(!a.is_locked() && !b.is_locked(), "a lock leaked a hold");
    assert!(
        !RESET_RUN.load(core::sync::atomic::Ordering::SeqCst),
        "a helper ran a reset descriptor: descriptor thunk called before set"
    );
}

/// Scope: owner (1 transfer) + 1 helper (through the first word, then the
/// second), SC, ≤3 preemptions, exhaustive (about 4 000 schedules). One
/// preemption is all the late install takes: it parks the owner between
/// its two installs, and the helper then finishes the transfer and
/// releases both words.
#[test]
fn set_owner_preempted_between_installs() {
    let _g = serial();
    let report = explore(
        Config {
            max_preemptions: 3,
            max_schedules: 1_000_000,
            ..Config::sc()
        },
        set_late_install_body,
    );
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 1_000, "space suspiciously small");
}

/// A two-lock transfer against a contender that acquires one of its words
/// for an update of its own (`Locked::try_with`). Through the first word
/// the contender helps a held transfer, and its run's committed read of
/// the second word races the owner's install there; through the second it
/// races that install with its own, and the transfer's thunk must help a
/// word it finds held by the contender, never run its body there.
///
/// **Invariants:** (a) each store applies exactly once: each cell counts
/// the transfer, if it ran, plus the contender's update of it, if that
/// ran; (b) both words are free at the end; (c) no runner runs a reset
/// descriptor.
fn set_further_word_race_body(contend_first: bool) {
    watch_reset_runs();
    RESET_RUN.store(false, core::sync::atomic::Ordering::SeqCst);
    let a = Arc::new(Locked::new(Mutable::new(0u64)));
    let b = Arc::new(Locked::new(Mutable::new(0u64)));
    let (first, second) = if Arc::as_ptr(&a) < Arc::as_ptr(&b) {
        (&a, &b)
    } else {
        (&b, &a)
    };
    let on = Arc::clone(if contend_first { first } else { second });
    let contender = flock_model::spawn(move || on.try_with(|x| x.store(x.load() + 10)).is_some());
    let transferred = Locked::try_with2(&a, &b, |x, y| {
        x.store(x.load() + 1);
        y.store(y.load() + 1);
    })
    .is_some();
    let updated = contender.join();
    let (mut want_first, mut want_second) = (u64::from(transferred), u64::from(transferred));
    if updated {
        *if contend_first {
            &mut want_first
        } else {
            &mut want_second
        } += 10;
    }
    assert_eq!(
        (first.load(), second.load()),
        (want_first, want_second),
        "a store not applied exactly once"
    );
    assert!(
        !first.is_locked() && !second.is_locked(),
        "a lock leaked a hold"
    );
    assert!(
        !RESET_RUN.load(core::sync::atomic::Ordering::SeqCst),
        "a runner ran a reset descriptor: descriptor thunk called before set"
    );
}

/// Scope: owner (1 transfer) + 1 contender (1 update, on the first word
/// in one exploration and on the second in the other), SC, ≤2
/// preemptions, exhaustive.
#[test]
fn set_further_word_read_races_owner_install() {
    let _g = serial();
    for contend_first in [true, false] {
        let report = explore(
            Config {
                max_schedules: 1_000_000,
                ..Config::sc()
            },
            move || set_further_word_race_body(contend_first),
        );
        report.assert_exhaustive_ok();
        assert!(report.schedules_run > 100, "space suspiciously small");
    }
}

/// Sanity mutant: the set's thunk runs its body on a second word that
/// reads locked by anyone. When the contender holds that word, the
/// transfer's store races the contender's and one is lost.
#[test]
fn set_mutant_takes_any_locked_word_is_caught() {
    let _g = serial();
    let _k = Knob::set(&flock_core::mutants::SET_TAKES_ANY_LOCKED_WORD);
    let report = explore(Config::sc(), || set_further_word_race_body(false));
    let f = report.assert_finds_bug();
    assert!(
        f.message.contains("exactly once"),
        "unexpected failure mode: {}",
        f.message
    );
}

// ------------------------------------------------ a store reusing its load

/// A store that reuses its load's log entry (`Mutable`'s module docs, the
/// `store` step), under helping. The owner's critical section loads a
/// cell once and stores it twice; a helper replays it through the lock
/// word. The first store reuses the load's entry, the second follows a
/// store of the same cell and must load and commit again.
///
/// **Invariants:** (a) the cell ends at the second store's value, which
/// is lost if the second store CASes from the word the first one
/// displaced; (b) the lock ends free.
fn store_reuse_body() {
    let lock = Arc::new(Lock::new());
    let x = Arc::new(Mutable::new(0u64));
    let l2 = Arc::clone(&lock);
    let helper = flock_model::spawn(move || {
        let seen = flock_core::model_probe::observe(&l2);
        flock_core::model_probe::help_observed(&l2, seen);
    });
    let x2 = Arc::clone(&x);
    let got = lock.try_lock(move || {
        let v = x2.load();
        x2.store(v + 1);
        x2.store(v + 2);
    });
    helper.join();
    assert_eq!(got, Some(()), "a try_lock failed on a lock nobody acquires");
    assert_eq!(x.load(), 2, "a store was lost or applied twice");
    assert!(!lock.is_locked(), "lock leaked a hold");
}

/// Scope: owner (1 section) + 1 helper through the lock word, SC, ≤2
/// preemptions, exhaustive.
#[test]
fn store_reuse_exactly_once_under_helping() {
    let _g = serial();
    let report = explore(Config::sc(), store_reuse_body);
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 100, "space suspiciously small");
}

/// Sanity mutant: a tagged CAS keeps the record of the load before it, so
/// the second store reuses the word the first one displaced and its CAS
/// fails.
#[test]
fn store_reuse_mutant_across_store_is_caught() {
    let _g = serial();
    let _k = Knob::set(&flock_core::mutants::REUSE_LOAD_ACROSS_STORE);
    let f = explore(Config::sc(), store_reuse_body)
        .assert_finds_bug()
        .clone();
    assert!(
        f.message.contains("a store was lost"),
        "unexpected failure mode: {}",
        f.message
    );
}

// ---------------------------------------------------------- validated read

/// The optimistic-read discipline (`Lock::version` / `Lock::validate`
/// bracketing unlogged `Acquire` loads — the PR 7 read path): a read whose
/// bracket **validates** can never return a torn multi-field snapshot.
///
/// A writer mutates two `Mutable` fields inside one critical section,
/// preserving `a == b` at every quiescent point. The reader captures the
/// lock version, reads both fields with `load_acquire`, and re-validates:
/// `version()` returns `None` while the lock is held, every install CAS
/// bumps the lock word's ABA tag (both lock modes), and `validate`
/// re-reads the full packed word after an `Acquire` fence — so a
/// successful bracket proves no critical section committed in between,
/// i.e. the two loads saw a quiescent pair.
///
/// **Invariant:** a validated snapshot satisfies `a == b`. (A failed
/// bracket returns nothing and is not under test: structures fall back to
/// the committed-read path after bounded retries.)
///
/// Scope: writer + reading driver, one lock, two fields, SC, ≤2
/// preemptions, exhaustive. (SC like the other full-stack lock tests:
/// the writer runs the entire lock-free try_lock protocol, and TSO store
/// buffers over that many atomics blow past the schedule budget; the
/// bracket's fence-anchored orderings are exercised componentwise by the
/// dekker and epoch TSO tests.)
fn validated_read_body(validate: bool) {
    let lock = Arc::new(Lock::new());
    let a = Arc::new(Mutable::new(0u64));
    let b = Arc::new(Mutable::new(0u64));

    let (l2, a2, b2) = (Arc::clone(&lock), Arc::clone(&a), Arc::clone(&b));
    let writer = flock_model::spawn(move || {
        let (a3, b3) = (Arc::clone(&a2), Arc::clone(&b2));
        let _ = l2.try_lock(move || {
            // Two dependent stores: the pair is torn exactly when a reader
            // observes the window between them.
            a3.store(1);
            b3.store(1);
        });
    });

    // The driver is the reader: one optimistic attempt, no retry loop (a
    // failed bracket is the fallback path, exercised by the structure
    // suites; the model question is purely "can a *validated* bracket
    // tear").
    let snap = if validate {
        (|| {
            let v0 = lock.version()?;
            let x = a.load_acquire();
            let y = b.load_acquire();
            lock.validate(v0).then_some((x, y))
        })()
    } else {
        // Mutant reader: same unlogged loads, bracket dropped.
        Some((a.load_acquire(), b.load_acquire()))
    };
    if let Some((x, y)) = snap {
        assert_eq!(x, y, "validated optimistic read returned a torn pair");
    }
    writer.join();
}

#[test]
fn validated_read_never_torn() {
    let _g = serial();
    let report = explore(Config::sc(), || validated_read_body(true));
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 10, "space suspiciously small");
}

/// Sanity mutant (harness-level): drop the version bracket and keep the
/// same unlogged `Acquire` loads — the checker must surface the torn pair,
/// proving the exhaustive pass above is detecting the bug class the
/// bracket exists to prevent.
#[test]
fn validated_read_mutant_no_bracket_is_caught() {
    let _g = serial();
    let report = explore(Config::sc(), || validated_read_body(false));
    let f = report.assert_finds_bug();
    assert!(f.message.contains("torn pair"), "{}", f.message);
}

// ------------------------------------------------------------- strict lock

/// Full-stack strict locking: `driver_ops + 1` increments through the real
/// `Lock::lock` wait loop — create the descriptor once, then install it or
/// help whoever is in the way, until it has run. This is the only place
/// the strict path runs under the checker; the `try_lock` tests above
/// never loop.
///
/// **Invariants:** (a) thunk effects apply exactly once each — the counter
/// equals the op count (a waiter that re-installed an already-helped
/// descriptor would replay effects; one that gave up would lose them);
/// (b) the lock ends released — a fresh `try_lock` succeeds at quiescence.
/// The sanity mutant for (a)'s bug class is
/// `try_lock_mutant_log_no_agreement_is_caught`: both paths replay through
/// the same thunk log.
fn strict_lock_body(driver_ops: usize) {
    let lock = Arc::new(Lock::new());
    let counter = Arc::new(Mutable::new(0u64));

    let (l2, c2) = (Arc::clone(&lock), Arc::clone(&counter));
    let waiter = flock_model::spawn(move || {
        let c3 = Arc::clone(&c2);
        l2.lock(move || c3.store(c3.load() + 1));
    });
    for _ in 0..driver_ops {
        let c3 = Arc::clone(&counter);
        lock.lock(move || c3.store(c3.load() + 1));
    }
    waiter.join();

    assert_eq!(
        counter.load(),
        driver_ops as u64 + 1,
        "strict-lock effects not exactly-once"
    );
    assert!(
        lock.try_lock(|| ()).is_some(),
        "fresh try_lock failed after all strict holders returned"
    );
    assert!(!lock.is_locked(), "lock leaked a hold");
}

/// Scope: driver + 1 waiter, 1 op each, SC, ≤2 preemptions, exhaustive.
#[test]
fn strict_lock_exactly_once() {
    let _g = serial();
    let report = explore(Config::sc(), || strict_lock_body(1));
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 100, "space suspiciously small");
}

/// Scope: driver runs **two** strict ops against the waiter's one, SC, ≤2
/// preemptions, exhaustive. The second driver op reuses a recycled pool
/// descriptor (fresh generation, same address), so this space contains a
/// waiter helping one incarnation while the next is being installed.
#[test]
fn strict_lock_exactly_once_across_reuse() {
    let _g = serial();
    let report = explore(
        Config {
            max_schedules: 1_000_000,
            ..Config::sc()
        },
        || strict_lock_body(2),
    );
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 1_000, "space suspiciously small");
}

// --------------------------------------------------------------------- tid

/// The active-thread registry: a scan bounded by `scan_bound()` must never
/// miss a live thread's announcement, across concurrent id claims and
/// releases.
///
/// Thread C claims an id and releases it again (the thread-exit transition,
/// made schedulable). Thread A claims an id — possibly recycling C's — and
/// announces under it, then raises a flag. The driver, on seeing the flag,
/// scans: the announcement must be visible below `scan_bound()`.
///
/// Scope: 3 threads + driver's claim, SC, ≤2 preemptions, exhaustive.
fn tid_body() {
    let table = Arc::new(TagAnnouncements::new());
    let flag = Arc::new(AtomicU64::new(0));
    const L: usize = 0x2000;
    const TAG: u16 = 3;

    // The driver claims its own id first so the slot-0 floor is stable.
    let _ = tid::current();

    let churner = flock_model::spawn(move || {
        let _ = tid::current();
        // Release immediately: the exit-time transition, schedulable.
        tid::model_release_current();
    });

    let (t2, f2) = (Arc::clone(&table), Arc::clone(&flag));
    let announcer = flock_model::spawn(move || {
        let me = tid::current();
        t2.announce(me, L, TAG);
        f2.store(1, Ordering::SeqCst);
    });

    if flag.load(Ordering::SeqCst) == 1 {
        assert!(
            table.is_announced(L, TAG),
            "scan under scan_bound() missed a live thread's announcement"
        );
    }
    churner.join();
    announcer.join();
}

#[test]
fn tid_scan_bound_covers_live_claims() {
    let _g = serial();
    let report = explore(Config::sc(), tid_body);
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 10, "space suspiciously small");
}

/// Sanity mutant: the rejected lock-free lower-on-release design (PR 2's
/// module docs record why it was rejected; this machine-checks that
/// rationale). A claim racing the two-step release ends up above the
/// published bound, and the scan misses its announcement.
#[test]
fn tid_mutant_lockfree_release_is_caught() {
    let _g = serial();
    let _k = Knob::set(&flock_sync::tid::mutants::LOCKFREE_RELEASE);
    let report = explore(Config::sc(), tid_body);
    let f = report.assert_finds_bug();
    assert!(
        f.message.contains("missed a live thread's announcement"),
        "{}",
        f.message
    );
}

// ------------------------------------------------------------ obsolete bit

/// The obsolete bit under helping (`flock_core`'s `lock` module docs,
/// "Obsolete locks"): the owner's strict critical section unlinks its node
/// — it stores `unlinked` and marks the lock obsolete — while a contender
/// runs one `try_lock` of its own, or with `strict_contender` one strict
/// `lock`, helping the owner's descriptor whenever it finds it installed
/// (the helper's run marks, and the helper releases). The contender then
/// reads the bit twice.
///
/// **Invariants:** (a) the bit is set exactly once: it is set when both
/// threads are done, and no read ever sees it go from set back to clear
/// (the contender's two reads, in order); (b) no install succeeds once it
/// is set: the contender's critical section never sees `unlinked`, and a
/// `try_lock` at quiescence fails; (c) the owner's acquisition succeeds
/// and the word ends unlocked; (d) a strict contender runs (before the
/// mark, by (b)) or returns `None`, and `None` only for a marked lock.
fn obsolete_body(strict_contender: bool) {
    let lock = Arc::new(Lock::new());
    let unlinked = Arc::new(Mutable::new(false));
    let late = Arc::new(Mutable::new(false));

    let (l2, u2, late2) = (Arc::clone(&lock), Arc::clone(&unlinked), Arc::clone(&late));
    let contender = flock_model::spawn(move || {
        let (u3, late3) = (Arc::clone(&u2), Arc::clone(&late2));
        let section = move || {
            if u3.load() {
                late3.store(true);
            }
        };
        if strict_contender {
            let got = l2.lock(section);
            assert!(
                got.is_some() || l2.is_obsolete(),
                "strict lock refused a lock nobody had marked"
            );
        } else {
            l2.try_lock(section);
        }
        let first = l2.is_obsolete();
        let second = l2.is_obsolete();
        assert!(!first || second, "obsolete bit cleared after it was set");
    });
    let (l3, u3) = (Arc::clone(&lock), Arc::clone(&unlinked));
    let got = lock.lock(move || {
        u3.store(true);
        l3.mark_obsolete();
    });
    contender.join();

    assert_eq!(
        got,
        Some(()),
        "strict lock refused a lock nobody had marked"
    );
    assert!(
        !late.load(),
        "a critical section ran under an obsolete lock"
    );
    assert!(lock.is_obsolete(), "obsolete bit lost by a release");
    assert!(!lock.is_locked(), "lock leaked a hold");
    assert_eq!(
        lock.try_lock(|| ()),
        None,
        "an install succeeded on an obsolete lock"
    );
}

/// Scope: owner (strict, marking) + 1 contender (`try_lock`, then strict
/// `lock`), SC, ≤2 preemptions, exhaustive.
#[test]
fn obsolete_bit_set_once_and_never_installed_under_helping() {
    let _g = serial();
    for strict in [false, true] {
        let report = explore(Config::sc(), move || obsolete_body(strict));
        report.assert_exhaustive_ok();
        assert!(report.schedules_run > 100, "space suspiciously small");
    }
}

/// The same space at `model_tag_limit` 2: every install, mark and release
/// wraps the word's tag, so a stale runner's CAS from an old committed
/// read meets a recurring tag. Scope as above.
#[test]
fn obsolete_bit_holds_across_tag_wrap() {
    let _g = serial();
    let _t = TagLimit::set(2);
    let report = explore(Config::sc(), || obsolete_body(false));
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 100, "space suspiciously small");
}

/// A two-lock set whose critical section marks its **second** word, shaped
/// like `two_lock_body`: a contender that only ever helps arrives through
/// the first word (it runs the whole thunk, the mark included) or through
/// the second (it finishes the descriptor there and releases that word).
///
/// **Invariants:** (a) the set runs once and its store applies exactly
/// once; (b) both words are unlocked when the set returns, the second with
/// its bit kept and the first without one; (c) a later set through the
/// obsolete second word fails and leaves the first word unlocked.
fn obsolete_second_word_body(through_first: bool) {
    let a = Arc::new(Lock::new());
    let b = Arc::new(Lock::new());
    let n = Arc::new(Mutable::new(0u64));
    let seen_on = Arc::clone(if through_first { &a } else { &b });
    let helper = flock_model::spawn(move || {
        let seen = flock_core::model_probe::observe(&seen_on);
        flock_core::model_probe::help_observed(&seen_on, seen);
    });

    let (b2, n2) = (Arc::clone(&b), Arc::clone(&n));
    // SAFETY: the thunk holds `b` through `b2`, so it outlives every runner.
    let got = unsafe {
        a.try_lock_set([&*b], move || {
            n2.store(n2.load() + 1);
            b2.mark_obsolete();
        })
    };
    assert_eq!(got, Some(()), "a set failed on locks nobody else acquires");
    assert_eq!(n.load(), 1, "set effects not exactly-once");
    assert!(!a.is_locked(), "first lock leaked a hold");
    assert!(!b.is_locked(), "second lock leaked a hold");
    assert!(
        b.is_obsolete(),
        "obsolete bit lost by the second word's release"
    );
    assert!(
        !a.is_obsolete(),
        "the unmarked first word came back obsolete"
    );
    helper.join();
    assert!(
        b.is_obsolete(),
        "obsolete bit lost by the second word's release"
    );
    assert!(!a.is_locked() && !b.is_locked(), "a lock leaked a hold");
    // SAFETY: no other runner is left.
    let again = unsafe { a.try_lock_set([&*b], || ()) };
    assert_eq!(again, None, "a set installed on an obsolete word");
    assert!(!a.is_locked(), "a failed set leaked its first word");
}

/// Scope: owner (one set) + 1 helper through either word, SC, ≤2
/// preemptions, exhaustive.
#[test]
fn obsolete_second_word_released_with_bit_kept() {
    let _g = serial();
    for through_first in [true, false] {
        let report = explore(
            Config {
                max_schedules: 1_000_000,
                ..Config::sc()
            },
            move || obsolete_second_word_body(through_first),
        );
        report.assert_exhaustive_ok();
        assert!(report.schedules_run > 100, "space suspiciously small");
    }
}

/// Sanity mutant: a helper's release installs the empty word. Whenever the
/// contender (or the set's helper, through the second word) is the one to
/// release after its run marked, the bit is gone.
#[test]
fn obsolete_mutant_helper_release_drops_bit_is_caught() {
    let _g = serial();
    let _k = Knob::set(&flock_core::mutants::HELPER_RELEASE_DROPS_OBSOLETE);
    let report = explore(Config::sc(), || obsolete_body(false));
    let f = report.assert_finds_bug();
    assert!(f.message.contains("obsolete bit"), "{}", f.message);
    let report = explore(Config::sc(), || obsolete_second_word_body(false));
    let f = report.assert_finds_bug();
    assert!(f.message.contains("obsolete bit lost"), "{}", f.message);
}

/// Sanity mutant: an acquisition installs on any unlocked word. The
/// contender's critical section, a `try_lock`'s or a strict `lock`'s, then
/// runs after the owner's unlinked the node.
#[test]
fn obsolete_mutant_install_ignores_bit_is_caught() {
    let _g = serial();
    let _k = Knob::set(&flock_core::mutants::INSTALL_IGNORES_OBSOLETE);
    for strict in [false, true] {
        let report = explore(Config::sc(), move || obsolete_body(strict));
        let f = report.assert_finds_bug();
        assert!(
            f.message.contains("obsolete lock"),
            "strict = {strict}: {}",
            f.message
        );
    }
}

// ------------------------------------------------------------- holder wait

/// Set when an execution of `top_level_wait_body` had the holder release
/// during the owner's wait, and the owner then installed.
static WAITED_THEN_INSTALLED: core::sync::atomic::AtomicBool =
    core::sync::atomic::AtomicBool::new(false);

/// The top-level wait before helping (`flock_core`'s `lock` module docs,
/// "Waiting for a running holder"; one poll under `model`): a holder
/// updates the second cell of a two-lock set and then the first, each with
/// a one-word `try_with`, while the owner transfers between the two with
/// `try_with2`. The owner's wait meets the holder on the first word, or,
/// the first word free, on the second before it installs anything (the
/// lock set's pre-check); the holder's own wait meets the owner's set.
///
/// **Invariants:** (a) every store applies exactly once: each cell counts
/// the holder's successful update of it plus the owner's successful
/// transfer; (b) both words are free at the end; (c) no runner runs a
/// reset descriptor. The test also checks that some execution has the
/// holder release during the owner's wait and the owner then install.
fn top_level_wait_body() {
    watch_reset_runs();
    RESET_RUN.store(false, core::sync::atomic::Ordering::SeqCst);
    let a = Arc::new(Locked::new(Mutable::new(0u64)));
    let b = Arc::new(Locked::new(Mutable::new(0u64)));
    let (first, second) = if Arc::as_ptr(&a) < Arc::as_ptr(&b) {
        (&a, &b)
    } else {
        (&b, &a)
    };
    // The owner is the spawned thread, so that a wait that sees its
    // holder release takes two preemptions: into the owner while the
    // holder holds a word, and back between the owner's read and its poll.
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let owner = flock_model::spawn(move || {
        let before = flock_core::model_probe::holder_waits().moved;
        let transferred = Locked::try_with2(&a2, &b2, |x, y| {
            x.store(x.load() + 1);
            y.store(y.load() + 1);
        })
        .is_some();
        let moved = flock_core::model_probe::holder_waits().moved > before;
        (transferred, moved)
    });
    let on_second = second.try_with(|x| x.store(x.load() + 1)).is_some();
    let on_first = first.try_with(|x| x.store(x.load() + 1)).is_some();
    let (transferred, moved) = owner.join();
    if transferred && moved {
        WAITED_THEN_INSTALLED.store(true, core::sync::atomic::Ordering::SeqCst);
    }
    assert_eq!(
        (first.load(), second.load()),
        (
            u64::from(transferred) + u64::from(on_first),
            u64::from(transferred) + u64::from(on_second)
        ),
        "a store not applied exactly once"
    );
    assert!(
        !first.is_locked() && !second.is_locked(),
        "a lock leaked a hold"
    );
    assert!(
        !RESET_RUN.load(core::sync::atomic::Ordering::SeqCst),
        "a runner ran a reset descriptor: descriptor thunk called before set"
    );
}

/// Scope: owner (1 two-lock transfer) + holder (2 one-word updates), SC,
/// ≤2 preemptions, exhaustive.
#[test]
fn top_level_wait_then_install() {
    let _g = serial();
    WAITED_THEN_INSTALLED.store(false, core::sync::atomic::Ordering::SeqCst);
    let report = explore(
        Config {
            max_schedules: 1_000_000,
            ..Config::sc()
        },
        top_level_wait_body,
    );
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 1_000, "space suspiciously small");
    assert!(
        WAITED_THEN_INSTALLED.load(core::sync::atomic::Ordering::SeqCst),
        "no execution had the holder release mid-wait and the owner install"
    );
}

/// A nested busy branch, taken by every runner of the enclosing thunk
/// (`lock` module docs, "Waiting for a running holder": nothing waits
/// inside a thunk). The owner takes `outer`, tries `inner` inside it, and
/// then adds one to a counter. A holder updates under `inner` and then
/// helps whatever it observes on `outer`, replaying the owner's thunk: the
/// owner's run can commit `inner` held, and the replay reads that committed
/// word after the holder released it.
///
/// **Invariants:** (a) the counter's store applies exactly once, which
/// needs every runner of the owner's thunk to take the same branches and
/// so commit to the same log positions; (b) the holder's store applies
/// exactly once when it acquired; (c) both words end free.
fn in_thunk_busy_body() {
    let outer = Arc::new(Lock::new());
    let inner = Arc::new(Lock::new());
    let counter = Arc::new(Mutable::new(0u64));
    let held = Arc::new(Mutable::new(0u64));

    // The holder is the driving thread: the owner, spawned, reads `inner`
    // held after one preemption, and the holder's replay overtakes the
    // owner's help after a second.
    let (o2, i2, c2) = (Arc::clone(&outer), Arc::clone(&inner), Arc::clone(&counter));
    let owner = flock_model::spawn(move || {
        let i3 = Arc::clone(&i2);
        o2.try_lock(move || {
            let _ = i3.try_lock(|| ());
            c2.store(c2.load() + 1);
        })
    });
    let h2 = Arc::clone(&held);
    let holder_got = inner.try_lock(move || h2.store(h2.load() + 1)).is_some();
    let seen = flock_core::model_probe::observe(&outer);
    flock_core::model_probe::help_observed(&outer, seen);
    let got = owner.join();

    assert_eq!(got, Some(()), "outer is never held by anyone else");
    assert_eq!(
        counter.load(),
        1,
        "counter store not applied exactly once (runners desynchronized?)"
    );
    assert_eq!(
        held.load(),
        u64::from(holder_got),
        "holder store not applied exactly once"
    );
    assert!(
        !outer.is_locked() && !inner.is_locked(),
        "a lock leaked a hold"
    );
}

/// Scope: owner (outer → inner → store) + holder (one update, one help),
/// SC, ≤2 preemptions, exhaustive.
#[test]
fn in_thunk_busy_branch_helps_on_every_runner() {
    let _g = serial();
    let report = explore(
        Config {
            max_schedules: 1_000_000,
            ..Config::sc()
        },
        in_thunk_busy_body,
    );
    report.assert_exhaustive_ok();
    assert!(report.schedules_run > 1_000, "space suspiciously small");
}

/// Sanity mutant: a nested busy branch waits and skips the help when the
/// word moved on. The owner's run finds `inner` unchanged and helps; the
/// holder's replay, after the holder released `inner`, skips, and its
/// counter load lands on a log entry the help committed. The runners'
/// logs fall out of step and the counter's store applies twice.
#[test]
fn in_thunk_mutant_wait_skips_help_is_caught() {
    let _g = serial();
    let _k = Knob::set(&flock_core::mutants::WAIT_SKIPS_HELP_IN_THUNK);
    let report = explore(Config::sc(), in_thunk_busy_body);
    let f = report.assert_finds_bug();
    assert!(f.message.contains("exactly once"), "{}", f.message);
}
