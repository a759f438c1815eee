//! The closed loop: persistent workers replay their tapes against one
//! shared instance in short windows that alternate lock-free and blocking
//! mode. Each worker sends its next operation only when the previous one
//! has returned. `set_lock_mode` is flipped only while every worker is
//! parked between two windows.
//!
//! Pairing the two modes inside one run is the noise control: the host's
//! speed drifts over tens of seconds, which moves both windows of a pair
//! together and leaves their ratio alone.

use std::panic::{AssertUnwindSafe, catch_unwind};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::books::{Audit, Books};
use crate::host::CpuTimes;
use crate::stats::{Histogram, quantile_sorted};
use crate::subject::Subject;
use crate::tape::{self, Class, Op};
use crate::trace::{Mode, SPAN_CAP, Span};
use crate::workload::Spec;

/// One operation in this many is timed in an untraced window.
pub const SAMPLE_EVERY: u32 = 16;

/// Latency samples kept per worker, group and window (the fastest
/// workload takes about 100 000).
const SAMPLE_CAP: usize = 1 << 18;

const CLASSES: usize = Class::ALL.len();

/// How a run is laid out in time.
#[derive(Clone, Debug)]
pub struct Plan {
    pub workers: usize,
    pub window: Duration,
    /// Measured pairs of one lock-free and one blocking window.
    pub pairs: usize,
    /// Discarded windows per mode before the first pair.
    pub warm_windows: usize,
    /// Time every operation in every other two pairs, and keep spans.
    pub traced: bool,
}

impl Plan {
    /// The full-length plan: 250 ms windows, two pairs per second asked
    /// for, and a second of warm-up per mode.
    pub fn full(workers: usize, seconds: u64, traced: bool) -> Self {
        Self {
            workers,
            window: Duration::from_millis(250),
            pairs: (seconds * 2).max(2) as usize,
            warm_windows: 4,
            traced,
        }
    }

    /// About 0.3 s per run, for `--smoke` and the tests.
    pub fn smoke(workers: usize, traced: bool) -> Self {
        Self {
            workers,
            window: Duration::from_millis(30),
            pairs: 4,
            warm_windows: 1,
            traced,
        }
    }
}

/// Counters of one worker in one window.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub ops: [u64; CLASSES],
    /// Operations whose outcome was useful: a get that found its key, an
    /// insert, remove or update that applied, a scan that returned entries,
    /// a transfer that moved money.
    pub useful: [u64; CLASSES],
    /// Time inside the calls, per class (traced windows only).
    pub call_ns: [u64; CLASSES],
    pub failed: u64,
    /// `try_with2` calls, and how many of them found a lock busy.
    pub lock_calls: u64,
    pub lock_busy: u64,
    /// Critical sections this worker stalled in.
    pub stalls: u64,
    /// Keys of other workers that scans reported twice (see
    /// [`Books::check_range`]).
    pub scan_repeats: u64,
    pub elapsed_ns: u64,
}

/// When a timed call started and how long it took.
pub struct Timing {
    start: Instant,
    dur_ns: u64,
}

/// Everything one worker thread owns: its books, its place on the tape,
/// and what it has recorded in the current window.
pub struct Worker {
    pub books: Books,
    pub tally: Tally,
    /// Sampled latencies of the current untraced window, by group.
    reads: Vec<u32>,
    writes: Vec<u32>,
    /// Latencies of every operation of the current traced window.
    hists: Vec<Histogram>,
    spans: Vec<Span>,
    window_spans: Vec<Span>,
    /// What the first few failed operations were.
    notes: Vec<String>,
    position: tape::Position,
    tick: u32,
    origin: Instant,
    window: u16,
    mode: Mode,
}

/// A buffer of `cap` entries whose pages are resident, so that filling it
/// later shows neither as page faults nor as memory growth.
fn touched<T: Clone>(cap: usize, fill: T) -> Vec<T> {
    let mut v = vec![fill; cap];
    v.clear();
    v
}

impl Worker {
    fn new(spec: &Spec, worker: usize, workers: usize, origin: Instant, traced: bool) -> Self {
        let blank = Span {
            start_ns: 1,
            dur_ns: 1,
            window: 1,
            mode: Mode::Blocking,
            class: None,
            ok: true,
        };
        Self {
            books: Books::new(spec, worker, workers),
            tally: Tally::default(),
            reads: touched(SAMPLE_CAP, 1),
            writes: touched(SAMPLE_CAP, 1),
            hists: vec![Histogram::default(); CLASSES],
            spans: touched(if traced { SPAN_CAP } else { 0 }, blank),
            window_spans: Vec::new(),
            notes: Vec::new(),
            position: tape::Position::new(spec, workers),
            tick: 0,
            origin,
            window: 0,
            mode: Mode::LockFree,
        }
    }

    fn begin_window(&mut self, window: u16, mode: Mode) {
        self.tally = Tally::default();
        self.reads.clear();
        self.writes.clear();
        self.hists.iter_mut().for_each(Histogram::clear);
        self.window = window;
        self.mode = mode;
    }

    /// Make the call `f`, timing it if this window times every call
    /// (`ALL`) or if it is this worker's turn to sample.
    #[inline(always)]
    pub fn call<const ALL: bool, R>(&mut self, f: impl FnOnce() -> R) -> (R, Option<Timing>) {
        self.tick = self.tick.wrapping_add(1);
        if ALL || self.tick.is_multiple_of(SAMPLE_EVERY) {
            let start = Instant::now();
            let r = f();
            let dur_ns = start.elapsed().as_nanos() as u64;
            (r, Some(Timing { start, dur_ns }))
        } else {
            (f(), None)
        }
    }

    /// Keep a description of a failed operation, for the first few.
    #[cold]
    pub fn note_failure(&mut self, describe: impl FnOnce() -> String) {
        if self.notes.len() < 4 {
            let at = format!("window {} ({})", self.window, self.mode.tag());
            self.notes.push(format!("{at}: {}", describe()));
        }
    }

    /// Book one finished operation: `useful` as defined on [`Tally`], `ok`
    /// unless its result contradicted the books.
    #[inline(always)]
    pub fn done<const ALL: bool>(
        &mut self,
        class: Class,
        timing: Option<Timing>,
        useful: bool,
        ok: bool,
    ) {
        let c = class as usize;
        self.tally.ops[c] += 1;
        self.tally.useful[c] += u64::from(useful);
        self.tally.failed += u64::from(!ok);
        let Some(t) = timing else { return };
        let dur = t.dur_ns.min(u64::from(u32::MAX)) as u32;
        if ALL {
            self.tally.call_ns[c] += t.dur_ns;
            self.hists[c].record(dur);
            if self.spans.len() < SPAN_CAP {
                self.spans.push(Span {
                    start_ns: t.start.duration_since(self.origin).as_nanos() as u64,
                    dur_ns: t.dur_ns,
                    window: self.window,
                    mode: self.mode,
                    class: Some(class),
                    ok,
                });
            }
        } else {
            let samples = if class.is_read() {
                &mut self.reads
            } else {
                &mut self.writes
            };
            if samples.len() < SAMPLE_CAP {
                samples.push(dur);
            }
        }
    }

    /// Replay the tape until `stop(ops so far)` says so, at least one
    /// operation.
    fn replay<S: Subject, const ALL: bool>(
        &mut self,
        subject: &S,
        tape: &[Op],
        stop: impl Fn(u64) -> bool,
    ) {
        let start = Instant::now();
        let mut n = 0;
        loop {
            let op = self.position.next(tape);
            subject.exec::<ALL>(op, self);
            n += 1;
            if stop(n) {
                break;
            }
        }
        let elapsed = start.elapsed().as_nanos() as u64;
        self.tally.elapsed_ns = elapsed;
        if ALL {
            self.window_spans.push(Span {
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                dur_ns: elapsed,
                window: self.window,
                mode: self.mode,
                class: None,
                ok: self.tally.failed == 0,
            });
        }
    }
}

/// What the collector and the pool report at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochSnap {
    pub retired: u64,
    pub freed: u64,
    pub epoch: u64,
    pub bag_bytes: u64,
    pub pages_live: u64,
    pub magazine_hits: u64,
    pub magazine_misses: u64,
    pub global_refills: u64,
}

impl EpochSnap {
    pub fn now() -> Self {
        let c = flock_epoch::collector_stats();
        let e = flock_api::epoch_stats();
        let p = flock_api::pool_stats();
        Self {
            retired: c.retired as u64,
            freed: c.freed as u64,
            epoch: c.epoch,
            bag_bytes: e.retire_bag_bytes as u64,
            pages_live: p.pages_live as u64,
            magazine_hits: p.magazine_hits,
            magazine_misses: p.magazine_misses,
            global_refills: p.global_refills as u64,
        }
    }
}

/// One window as the coordinator saw it. Counters cover the measured
/// workers only (all of them, except on `stalled-holder`, which counts
/// everyone but the sleeper).
#[derive(Clone, Debug)]
pub struct WindowRecord {
    pub index: usize,
    pub mode: Mode,
    pub traced: bool,
    /// Warm-up windows are discarded; pairs count from 0 after them.
    pub pair: Option<usize>,
    /// Operations of all workers, measured or not.
    pub total_ops: u64,
    /// Sum over the measured workers of operations per own elapsed time.
    pub mops: f64,
    pub tally: Tally,
    /// p50 and p99 of the sampled read and write latencies (untraced).
    pub read_ns: [f64; 2],
    pub write_ns: [f64; 2],
    /// Per class, p99.9 in a lock-free and p99 in a blocking window
    /// (traced).
    pub tail_ns: [f64; CLASSES],
    pub before: EpochSnap,
    pub after: EpochSnap,
    pub wall_ns: u64,
}

/// Everything a run produced.
pub struct RunData {
    pub windows: Vec<WindowRecord>,
    /// Operations executed and audit comparisons made, by all workers in
    /// all windows, warm-up included; and how many contradicted the books.
    pub attempted: u64,
    pub failed: u64,
    /// The audit after the last window of each mode.
    pub audits: Vec<(Mode, Audit)>,
    pub stalls: u64,
    pub scan_repeats: u64,
    pub steal_share: f64,
    /// What the first few failed operations of each worker were.
    pub notes: Vec<String>,
    /// Per worker: window spans, then the first [`SPAN_CAP`] operation spans.
    pub spans: Vec<Vec<Span>>,
}

struct Slot {
    mode: Mode,
    traced: bool,
    pair: Option<usize>,
}

/// Warm-up alternates the modes; then pairs alternate which mode goes
/// first, and in a traced run every other two pairs are traced (so that
/// both orders occur traced and untraced).
fn schedule(plan: &Plan) -> Vec<Slot> {
    let mut slots = Vec::new();
    for i in 0..plan.warm_windows * 2 {
        slots.push(Slot {
            mode: [Mode::LockFree, Mode::Blocking][i % 2],
            traced: false,
            pair: None,
        });
    }
    for p in 0..plan.pairs {
        let first = [Mode::LockFree, Mode::Blocking][p % 2];
        for mode in [first, first.other()] {
            slots.push(Slot {
                mode,
                traced: plan.traced && (p / 2) % 2 == 0,
                pair: Some(p),
            });
        }
    }
    slots
}

const CMD_QUIT: u32 = 1;
const CMD_TRACED: u32 = 2;
const CMD_BLOCKING: u32 = 4;

struct Control {
    start: Barrier,
    end: Barrier,
    cmd: AtomicU32,
    stop: AtomicBool,
}

/// Tapes, books and buffers of one run, all allocated and touched before
/// the structure under test is built, so that memory measured around the
/// run is the structure's.
pub struct Harness {
    spec: &'static Spec,
    plan: Plan,
    tapes: Vec<Vec<Op>>,
    workers: Vec<Mutex<Worker>>,
    scratch: Vec<u32>,
}

impl Harness {
    pub fn new(spec: &'static Spec, seed: u64, plan: Plan) -> Self {
        let origin = Instant::now();
        let n = plan.workers;
        Self {
            spec,
            tapes: (0..n)
                .map(|w| tape::tape(spec, seed, w, n, tape::TAPE_LEN))
                .collect(),
            workers: (0..n)
                .map(|w| Mutex::new(Worker::new(spec, w, n, origin, plan.traced)))
                .collect(),
            scratch: touched(SAMPLE_CAP * n, 1),
            plan,
        }
    }

    /// The workers whose operations the metrics count.
    fn measured(&self) -> std::ops::Range<usize> {
        let n = self.plan.workers;
        if self.spec.stall_every != 0 && n > 1 {
            1..n
        } else {
            0..n
        }
    }

    /// Run the plan against `subject`, which set-up filled with `prefill`.
    /// `between_windows` runs on the coordinator after every window, while
    /// the workers are parked.
    pub fn run<S: Subject>(
        &mut self,
        subject: &S,
        prefill: &[u32],
        mut between_windows: impl FnMut(),
    ) -> RunData {
        let measured = self.measured();
        let Harness {
            spec,
            plan,
            tapes,
            workers,
            scratch,
        } = self;
        for w in workers.iter_mut() {
            w.get_mut()
                .expect("no worker ran yet")
                .books
                .record_prefill(prefill);
        }
        let workers = &*workers;
        let slots = schedule(plan);
        let last_of = |mode: Mode| slots.iter().rposition(|s| s.mode == mode);
        let audit_after = [last_of(Mode::LockFree), last_of(Mode::Blocking)];
        let ctl = Control {
            start: Barrier::new(plan.workers + 1),
            end: Barrier::new(plan.workers + 1),
            cmd: AtomicU32::new(0),
            stop: AtomicBool::new(false),
        };
        let mut data = RunData {
            windows: Vec::with_capacity(slots.len()),
            attempted: 0,
            failed: 0,
            audits: Vec::new(),
            stalls: 0,
            scan_repeats: 0,
            steal_share: 0.0,
            notes: Vec::new(),
            spans: Vec::new(),
        };
        let cpu_before = CpuTimes::now();
        std::thread::scope(|scope| {
            for (slot, tape) in workers.iter().zip(tapes.iter()) {
                let ctl = &ctl;
                scope.spawn(move || {
                    let work = AssertUnwindSafe(|| worker_loop(subject, ctl, slot, tape));
                    if catch_unwind(work).is_err() {
                        // The others would wait for this worker at the next
                        // barrier for ever; its panic message is already out.
                        eprintln!("a worker panicked: giving up");
                        std::process::exit(3);
                    }
                });
            }
            for (index, s) in slots.iter().enumerate() {
                flock_core::set_lock_mode(s.mode.into());
                let mut cmd = (index as u32) << 8;
                cmd |= if s.traced { CMD_TRACED } else { 0 };
                cmd |= if s.mode == Mode::Blocking {
                    CMD_BLOCKING
                } else {
                    0
                };
                ctl.cmd.store(cmd, Ordering::SeqCst);
                ctl.stop.store(false, Ordering::SeqCst);
                let before = EpochSnap::now();
                let t0 = Instant::now();
                ctl.start.wait();
                std::thread::sleep(plan.window);
                ctl.stop.store(true, Ordering::SeqCst);
                ctl.end.wait();
                let wall_ns = t0.elapsed().as_nanos() as u64;
                let record = harvest(workers, measured.clone(), scratch, &mut data, s);
                data.windows.push(WindowRecord {
                    index,
                    wall_ns,
                    before,
                    after: EpochSnap::now(),
                    ..record
                });
                if audit_after.contains(&Some(index)) {
                    let guards: Vec<_> = workers
                        .iter()
                        .map(|w| w.lock().expect("a worker panicked"))
                        .collect();
                    let books: Vec<&Books> = guards.iter().map(|g| &g.books).collect();
                    let audit = subject.audit(spec, &books);
                    data.attempted += audit.checked;
                    data.failed += audit.failed;
                    data.audits.push((s.mode, audit));
                }
                between_windows();
            }
            ctl.cmd.store(CMD_QUIT, Ordering::SeqCst);
            ctl.start.wait();
        });
        flock_core::set_lock_mode(flock_core::LockMode::LockFree);
        data.steal_share = CpuTimes::now().steal_share_since(&cpu_before);
        for (id, w) in self.workers.iter_mut().enumerate() {
            let w = w.get_mut().expect("a worker panicked");
            let notes = w.notes.drain(..);
            data.notes
                .extend(notes.map(|n| format!("worker {id}, {n}")));
            let mut spans = std::mem::take(&mut w.window_spans);
            spans.append(&mut w.spans);
            data.spans.push(spans);
        }
        data
    }
}

/// Fold what the workers recorded in the window that just ended into one
/// record. Runs while every worker is parked.
fn harvest(
    workers: &[Mutex<Worker>],
    measured: std::ops::Range<usize>,
    scratch: &mut Vec<u32>,
    data: &mut RunData,
    s: &Slot,
) -> WindowRecord {
    let mut r = WindowRecord {
        index: 0,
        mode: s.mode,
        traced: s.traced,
        pair: s.pair,
        total_ops: 0,
        mops: 0.0,
        tally: Tally::default(),
        read_ns: [0.0; 2],
        write_ns: [0.0; 2],
        tail_ns: [0.0; CLASSES],
        before: EpochSnap::default(),
        after: EpochSnap::default(),
        wall_ns: 0,
    };
    let guards: Vec<_> = workers
        .iter()
        .map(|w| w.lock().expect("a worker panicked"))
        .collect();
    for (id, w) in guards.iter().enumerate() {
        let t = &w.tally;
        let ops = t.ops.iter().sum::<u64>();
        r.total_ops += ops;
        data.attempted += ops;
        data.failed += t.failed;
        data.stalls += t.stalls;
        data.scan_repeats += t.scan_repeats;
        r.tally.failed += t.failed;
        r.tally.stalls += t.stalls;
        if !measured.contains(&id) {
            continue;
        }
        r.mops += ops as f64 * 1e3 / t.elapsed_ns.max(1) as f64;
        for c in 0..CLASSES {
            r.tally.ops[c] += t.ops[c];
            r.tally.useful[c] += t.useful[c];
            r.tally.call_ns[c] += t.call_ns[c];
        }
        r.tally.lock_calls += t.lock_calls;
        r.tally.lock_busy += t.lock_busy;
        r.tally.elapsed_ns += t.elapsed_ns;
    }
    let counted = &guards[measured];
    if s.traced {
        let q = if s.mode == Mode::LockFree {
            0.999
        } else {
            0.99
        };
        let mut merged = Histogram::default();
        for c in 0..CLASSES {
            merged.clear();
            counted.iter().for_each(|w| merged.merge(&w.hists[c]));
            r.tail_ns[c] = merged.quantile(q);
        }
    } else {
        let mut cuts = |pick: fn(&Worker) -> &Vec<u32>| {
            scratch.clear();
            counted
                .iter()
                .for_each(|w| scratch.extend_from_slice(pick(w)));
            scratch.sort_unstable();
            [
                quantile_sorted(scratch, 0.5),
                quantile_sorted(scratch, 0.99),
            ]
        };
        r.read_ns = cuts(|w| &w.reads);
        r.write_ns = cuts(|w| &w.writes);
    }
    r
}

fn worker_loop<S: Subject>(subject: &S, ctl: &Control, slot: &Mutex<Worker>, tape: &[Op]) {
    loop {
        ctl.start.wait();
        let cmd = ctl.cmd.load(Ordering::SeqCst);
        if cmd & CMD_QUIT != 0 {
            return;
        }
        {
            let mut w = slot.lock().expect("the coordinator panicked");
            let mode = if cmd & CMD_BLOCKING != 0 {
                Mode::Blocking
            } else {
                Mode::LockFree
            };
            w.begin_window((cmd >> 8) as u16, mode);
            let stop = |_| ctl.stop.load(Ordering::Relaxed);
            if cmd & CMD_TRACED != 0 {
                w.replay::<S, true>(subject, tape, stop);
            } else {
                w.replay::<S, false>(subject, tape, stop);
            }
            // Both calls publish this thread's batched counters, so the
            // coordinator's snapshot after the window is exact.
            let _ = flock_epoch::collector_stats();
            let _ = flock_api::pool_stats();
        }
        ctl.end.wait();
    }
}

/// What one step of the replay loop costs with nothing under it: fetch the
/// operation, decide whether to sample, book the result, check the stop
/// flag. Nanoseconds per operation.
pub fn tape_step_ns(spec: &'static Spec, ops: u64) -> f64 {
    struct Nothing;
    impl Subject for Nothing {
        #[inline(always)]
        fn exec<const ALL: bool>(&self, op: Op, w: &mut Worker) {
            let (r, t) = w.call::<false, _>(|| std::hint::black_box(op.a));
            w.done::<false>(op.class, t, r != u32::MAX, true);
        }
        fn audit(&self, _: &Spec, _: &[&Books]) -> Audit {
            Audit::default()
        }
    }
    let tape = tape::tape(spec, 0, 0, 1, 1 << 12);
    let mut w = Worker::new(spec, 0, 1, Instant::now(), false);
    let flag = AtomicBool::new(false);
    w.replay::<_, false>(&Nothing, &tape, |n| {
        flag.load(Ordering::Relaxed) || n >= ops
    });
    w.tally.elapsed_ns as f64 / ops as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_alternates_modes_and_orders() {
        let plan = Plan {
            workers: 1,
            window: Duration::from_millis(1),
            pairs: 4,
            warm_windows: 2,
            traced: true,
        };
        let s = schedule(&plan);
        assert_eq!(s.len(), 4 + 8);
        assert!(s[..4].iter().all(|w| w.pair.is_none() && !w.traced));
        let modes: Vec<&str> = s[4..].iter().map(|w| w.mode.tag()).collect();
        assert_eq!(modes, ["lf", "bl", "bl", "lf", "lf", "bl", "bl", "lf"]);
        let traced: Vec<bool> = s[4..].iter().map(|w| w.traced).collect();
        assert_eq!(traced, [true, true, true, true, false, false, false, false]);
        assert!(
            schedule(&Plan {
                traced: false,
                ..plan
            })
            .iter()
            .all(|w| !w.traced)
        );
    }
}
