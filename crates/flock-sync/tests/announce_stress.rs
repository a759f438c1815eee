//! Stress test for the bounded announcement scan (ISSUE 2 satellite):
//! threads register and exit (exercising thread-id recycling and the
//! shrinking/growing [`flock_sync::tid::scan_bound`]) while scanners hammer
//! `next_free_tag`. Safety properties under churn:
//!
//! 1. **No window holding a live announcement is ever entered** — a
//!    window-start candidate comes back as the start of the first window
//!    from there on that no live announcer holds a tag in for the same
//!    location; a mid-window candidate comes back untouched.
//! 2. **The scan bound never excludes a live announcer** — every announcer
//!    continuously re-verifies `is_announced` for its own standing
//!    announcement while the bound moves under it.
//! 3. **Re-announce/clear churn is scan-coherent** — a thread cycling
//!    announce → scan → clear on a second location always sees the window
//!    of its own standing announcement skipped and, once cleared, entered.

use std::sync::Barrier;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use flock_sync::TagAnnouncements;
use flock_sync::pack::TAG_WINDOW;
use flock_sync::tid;

/// Announcer tids, recorded for diagnostics in scanner assertion messages.
static ANNOUNCER_TIDS: [AtomicUsize; 4] = [const { AtomicUsize::new(usize::MAX) }; 4];

const LOC: usize = 0xF10C_4000;
const OTHER_LOC: usize = 0xF10C_8000;
const W: u16 = TAG_WINDOW;
/// One standing announcement in each of windows 1, 2, 4 and 7.
const ANNOUNCED_TAGS: [u16; 4] = [W + 10, 2 * W + 20, 4 * W + 30, 7 * W + 40];
/// Windows a scan of [`LOC`] may hand out a start of (one past the last
/// dirty one, so every skip has somewhere to land).
const WINDOWS: u16 = 9;
/// Tag cycled by the re-announce churner on [`OTHER_LOC`]: mid-window 9.
const CHURN_TAG: u16 = 9 * W + 50;
const RUN: Duration = Duration::from_millis(1_500);

#[test]
fn bounded_scan_is_safe_under_tid_churn() {
    let table = TagAnnouncements::new();
    let stop = AtomicBool::new(false);
    // Everyone (4 announcers + 2 scanners + 1 re-announcer + 2 tid
    // churners + timer) starts together so the churn overlaps the whole
    // measured window.
    let start = Barrier::new(10);
    // Announcers must keep their announcements standing until every
    // scanner has finished its last scan — clearing as soon as `stop` is
    // observed would let a mid-scan scanner legitimately enter a
    // just-cleared window and fail property 1 spuriously. 4 announcers + 2
    // scanners + the re-announcer rendezvous here before any clear.
    let drain = Barrier::new(7);

    std::thread::scope(|s| {
        // Announcers: hold one standing announcement each and keep checking
        // the scan still sees it (property 2).
        for (slot, &tag) in ANNOUNCED_TAGS.iter().enumerate() {
            let (table, stop, start, drain) = (&table, &stop, &start, &drain);
            s.spawn(move || {
                let me = tid::current();
                ANNOUNCER_TIDS[slot].store(me.0, Ordering::SeqCst);
                table.announce(me, LOC, tag);
                start.wait();
                while !stop.load(Ordering::Relaxed) {
                    assert!(
                        table.is_announced(LOC, tag),
                        "live announcement (loc, {tag}) vanished: scan bound {} excludes a \
                         live announcer (my tid {})",
                        tid::scan_bound(),
                        me.0
                    );
                    assert!(
                        tid::scan_bound() > me.0,
                        "scan bound {} dropped below live tid {}",
                        tid::scan_bound(),
                        me.0
                    );
                }
                drain.wait(); // scanners are done: clearing is now safe
                table.clear(me);
            });
        }

        // Scanners: enter every window around the announced ones and assert
        // a dirty window is never handed out (property 1).
        for scanner in 0..2u16 {
            let (table, stop, start, drain) = (&table, &stop, &start, &drain);
            s.spawn(move || {
                let dirty = ANNOUNCED_TAGS.map(|t| t / W);
                start.wait();
                let mut t = scanner; // different phase per scanner
                while !stop.load(Ordering::Relaxed) {
                    let window = t % WINDOWS;
                    let issued = table.next_free_tag(LOC, window * W);
                    // The announcements stand for the whole run, so the
                    // expectation is exact: the first clean window from here.
                    let mut clean = window;
                    while dirty.contains(&clean) {
                        clean += 1;
                    }
                    assert_eq!(
                        issued,
                        clean * W,
                        "window entry at {window} went wrong; scan_bound={}, \
                         announcer tids={:?}, live={}",
                        tid::scan_bound(),
                        ANNOUNCER_TIDS
                            .iter()
                            .map(|a| a.load(Ordering::SeqCst))
                            .collect::<Vec<_>>(),
                        tid::live_thread_count()
                    );
                    // Mid-window candidates never touch the table — not even
                    // a candidate that is itself announced.
                    let mid = window * W + (t % W).max(1);
                    assert_eq!(table.next_free_tag(LOC, mid), mid);
                    let held = ANNOUNCED_TAGS[(t % 4) as usize];
                    assert_eq!(table.next_free_tag(LOC, held), held);
                    // LOC announcements never leak onto the other location:
                    // only the re-announcer's window can be dirty there.
                    let elsewhere = table.next_free_tag(OTHER_LOC, CHURN_TAG / W * W);
                    assert!(
                        elsewhere == CHURN_TAG / W * W || elsewhere == (CHURN_TAG / W + 1) * W,
                        "unexpected tag {elsewhere} issued on OTHER_LOC"
                    );
                    t = t.wrapping_add(1);
                }
                drain.wait(); // unblock the announcers' clears
            });
        }

        // Re-announcer (property 3): cycle announce → scan → clear on the
        // second location, racing the scanners above. Its own scans are
        // same-thread, so the expectations are exact: the window of a
        // standing own announcement is always skipped, a cleared one always
        // entered.
        {
            let (table, stop, start, drain) = (&table, &stop, &start, &drain);
            s.spawn(move || {
                let me = tid::current();
                let entry = CHURN_TAG / W * W;
                start.wait();
                while !stop.load(Ordering::Relaxed) {
                    table.announce(me, OTHER_LOC, CHURN_TAG);
                    assert!(table.is_announced(OTHER_LOC, CHURN_TAG));
                    assert_eq!(
                        table.next_free_tag(OTHER_LOC, entry),
                        entry + W,
                        "window of own standing announcement must be skipped"
                    );
                    assert_eq!(
                        table.next_free_tag(OTHER_LOC, CHURN_TAG),
                        CHURN_TAG,
                        "mid-window candidates come back untouched"
                    );
                    table.clear(me);
                    assert_eq!(
                        table.next_free_tag(OTHER_LOC, entry),
                        entry,
                        "cleared window must be enterable again"
                    );
                }
                // Leave the slot standing-clear before scanners drain (the
                // loop's last action was either a clear or an announce; make
                // it deterministically clear).
                table.clear(me);
                drain.wait();
            });
        }

        // Tid churners: a stream of short-lived threads claiming and
        // releasing ids, so the registry recycles slots and the scan bound
        // moves up and down — including above and back below the
        // announcers' ids.
        for _ in 0..2 {
            let (stop, start) = (&stop, &start);
            s.spawn(move || {
                start.wait();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                // Claim an id (first use) and do a token
                                // amount of work so lifetimes overlap.
                                let _ = tid::current();
                                std::hint::black_box(tid::scan_bound());
                            });
                        }
                    });
                }
            });
        }

        // Timer.
        let stop = &stop;
        let start = &start;
        s.spawn(move || {
            start.wait();
            let t0 = Instant::now();
            while t0.elapsed() < RUN {
                std::thread::sleep(Duration::from_millis(25));
            }
            stop.store(true, Ordering::Relaxed);
        });
    });

    // Quiescent: announcements cleared, their windows enterable again.
    for &tag in &ANNOUNCED_TAGS {
        assert!(!table.is_announced(LOC, tag));
        assert_eq!(table.next_free_tag(LOC, tag / W * W), tag / W * W);
    }
    assert_eq!(
        table.next_free_tag(OTHER_LOC, CHURN_TAG / W * W),
        CHURN_TAG / W * W
    );
}
