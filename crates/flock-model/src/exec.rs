//! The execution engine: a persistent worker pool playing cooperative
//! virtual threads, an **inline scheduler** (each parking thread runs the
//! next scheduling decision itself), and the [`ModelRuntime`]
//! implementation giving the `flock_sync::atomic` shim its TSO
//! store-buffer semantics.
//!
//! ## One execution
//!
//! Exactly one virtual thread runs at any instant. A vthread runs until its
//! next shim atomic op (a *yield point*); there it parks, runs the
//! scheduler ([`Runtime::schedule_next`]) under the state lock, and either
//! continues itself (the schedule chose it again — the common case, zero
//! context switches) or wakes the chosen vthread and waits. The schedule is
//! a list of choice indices; decisions replay a prefix and then take index
//! 0 (or a seeded-random index). Everything is deterministic given the
//! schedule: memory actions are applied under a single lock, spawn order
//! fixes vthread ids, and no wall-clock or randomness enters any decision.
//!
//! ## The worker pool & determinism across executions
//!
//! OS thread spawn and blocking-wakeup syscalls are extremely expensive in
//! this repo's build container (~0.7 ms a spawn, ~120 µs a condvar
//! roundtrip), which dictates the engine shape: vthreads run on
//! **persistent workers** (vthread `i` of every execution runs on worker
//! `i`), handoffs spin briefly before condvar-sleeping, and the scheduler
//! runs inline so the dominant continue-current decision never leaves the
//! running thread. Because workers persist, their thread-local state
//! (claimed thread id, descriptor pool, epoch bag) would otherwise leak
//! between executions and break the DFS's prefix-replay determinism; a
//! per-worker **reset job** runs before every execution and returns each
//! worker to the state a freshly spawned thread would have (tid released,
//! pools drained, counters zeroed).
//!
//! ## Memory model (TSO)
//!
//! Stores weaker than `SeqCst` append to the issuing thread's FIFO buffer;
//! `SeqCst` stores, all RMWs, and `SeqCst` fences drain the issuer's buffer
//! first; loads forward from the issuer's own buffer; the scheduler may
//! flush the oldest entry of *any* thread's buffer at any decision point —
//! including after the thread finished (thread exit is deliberately not a
//! barrier). Engine contract following from that: shared shim cells must be
//! kept alive by the driving test body for the whole execution, so a late
//! flush never writes to freed memory — true for the protocol globals and
//! every Arc-held test cell. `Config::tso = false` degrades to sequential
//! consistency (every store immediate).
//!
//! ## Ending an execution
//!
//! On an assertion failure inside a vthread, the panic is caught, recorded
//! (first failure wins), and every other vthread is unwound via a sentinel
//! panic at its next yield point; drop handlers that touch shim atomics
//! during unwinding run in direct (unscheduled) mode so cleanup cannot
//! deadlock or double-panic.

use std::collections::VecDeque;
use std::sync::atomic::AtomicU64 as RealU64;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};

use flock_sync::atomic::ModelRuntime;

/// Sentinel panic payload used to unwind parked vthreads when an execution
/// aborts; never reported as a failure.
pub(crate) struct ModelAbort;

/// Engine instrumentation (dev): total scheduling points and tier-2
/// condvar sleeps across all executions.
pub static STAT_STEPS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
/// See [`STAT_STEPS`].
pub static STAT_SLEEPS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Tiered wait on a cheap predicate: spin briefly, then donate the CPU.
/// Used only by pool dispatch paths (short waits).
fn spin_wait(mut ready: impl FnMut() -> bool) {
    for _ in 0..4_000 {
        if ready() {
            return;
        }
        std::hint::spin_loop();
    }
    loop {
        if ready() {
            return;
        }
        std::thread::yield_now();
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Status {
    /// Parked at a yield point; can be scheduled.
    Ready,
    /// Currently executing user code (exactly one thread at a time).
    Running,
    /// Waiting for another vthread to finish.
    BlockedJoin(usize),
    /// Body returned (or unwound); never scheduled again.
    Finished,
}

pub(crate) struct ThreadState {
    pub(crate) status: Status,
    /// TSO store buffer: (backing-storage address, value), oldest first.
    pub(crate) buffer: VecDeque<(usize, u64)>,
    /// Depth of `atomic::critical` nesting: while > 0, yield points do not
    /// reschedule and stores are applied directly (SC).
    pub(crate) critical: usize,
    /// Description of the op waiting at the current yield point.
    pub(crate) pending: &'static str,
}

/// How one execution ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Outcome {
    Success,
    Failed,
    Pruned,
}

/// Everything the explorer needs back from one finished execution.
pub(crate) struct ExecRecord {
    /// (chosen index, number of alternatives) at each decision point.
    pub(crate) decisions: Vec<(usize, usize)>,
    pub(crate) outcome: Outcome,
    pub(crate) failure: Option<String>,
    pub(crate) trace: Vec<String>,
}

pub(crate) struct ExecState {
    pub(crate) threads: Vec<ThreadState>,
    /// Which vthread holds the run token; `None` = a scheduler decision is
    /// due (made inline by the parking thread, or once by the controller at
    /// execution start).
    pub(crate) running: Option<usize>,
    pub(crate) abort: bool,
    pub(crate) failure: Option<String>,
    pub(crate) trace: Vec<String>,
    pub(crate) steps: usize,
    /// Vthreads currently condvar-sleeping (tier-2 wait); wake syscalls are
    /// paid only when this is non-zero.
    pub(crate) sleepers: usize,

    // ---- inline-scheduler bookkeeping ----
    /// Schedule prefix to replay; beyond it, first-choice (or rng).
    pub(crate) prefix: Vec<usize>,
    /// (chosen index, number of alternatives) at each decision point.
    pub(crate) decisions: Vec<(usize, usize)>,
    pub(crate) preemptions: usize,
    pub(crate) max_preemptions: usize,
    pub(crate) max_steps: usize,
    /// xorshift state for seeded-random mode (`None` = DFS first-choice).
    pub(crate) rng: Option<u64>,
    pub(crate) last_running: Option<usize>,
    /// Set when the execution's outcome is decided; the controller waits on
    /// it.
    pub(crate) outcome: Option<Outcome>,
}

/// The per-execution runtime: scheduler state plus the memory-model
/// configuration. Implements the `flock_sync::atomic` hook.
pub(crate) struct Runtime {
    pub(crate) state: Mutex<ExecState>,
    /// Tier-2 parking for vthreads waiting on the run token.
    pub(crate) token_cv: Condvar,
    /// Weak: workers hold `Arc<Runtime>` through their job, so a strong
    /// pool reference here could make the *last* pool handle drop on a
    /// worker — which would make `WorkerPool::drop` join the very thread
    /// it runs on. The controller (explore/replay) owns the strong handle.
    pub(crate) pool: Weak<WorkerPool>,
    pub(crate) tso: bool,
    pub(crate) trace_cap: usize,
}

thread_local! {
    /// The calling OS thread's vthread id (usize::MAX = not a vthread).
    static VTID: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    /// The runtime of the execution this vthread belongs to, for
    /// `spawn`/`join` calls from inside user code.
    static CURRENT: std::cell::RefCell<Option<Arc<Runtime>>> = const { std::cell::RefCell::new(None) };
}

pub(crate) fn current_runtime() -> Arc<Runtime> {
    CURRENT.with(|c| {
        c.borrow()
            .clone()
            .expect("flock_model::spawn/join called outside a model execution")
    })
}

fn lock(rt: &Runtime) -> MutexGuard<'_, ExecState> {
    rt.state.lock().unwrap_or_else(|e| e.into_inner())
}

// ------------------------------------------------------------ worker pool

enum Job {
    /// Play vthread `id` of execution `rt` with the given body.
    Run {
        rt: Arc<Runtime>,
        id: usize,
        body: Box<dyn FnOnce() + Send>,
    },
    /// Return this worker's thread-locals to fresh-thread state.
    Reset,
    /// Exit the worker loop.
    Shutdown,
}

/// Job handoff slot: `state` is the spin target (0 = idle, 1 = assigned),
/// the payload travels under the mutex. Workers spin briefly on `state` and
/// then condvar-sleep, so idle workers consume no CPU during (and between)
/// executions.
struct JobSlot {
    state: AtomicU8,
    payload: Mutex<Option<Job>>,
    cv: Condvar,
}

const IDLE: u8 = 0;
const ASSIGNED: u8 = 1;

struct Worker {
    slot: Arc<JobSlot>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Persistent workers; worker `i` always plays vthread `i`. Grows on
/// demand (worker startup touches no model-visible global state, so a
/// mid-execution grow cannot perturb determinism).
pub(crate) struct WorkerPool {
    workers: Mutex<Vec<Worker>>,
}

impl WorkerPool {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            workers: Mutex::new(Vec::new()),
        })
    }

    /// Number of workers that currently exist.
    pub(crate) fn size(&self) -> usize {
        self.workers.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    fn ensure(&self, id: usize) {
        let mut ws = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        while ws.len() <= id {
            let slot = Arc::new(JobSlot {
                state: AtomicU8::new(IDLE),
                payload: Mutex::new(None),
                cv: Condvar::new(),
            });
            let slot2 = Arc::clone(&slot);
            let widx = ws.len();
            let handle = std::thread::Builder::new()
                .name(format!("flock-model-w{widx}"))
                .spawn(move || worker_loop(slot2))
                .expect("spawn model worker");
            ws.push(Worker {
                slot,
                handle: Some(handle),
            });
        }
    }

    /// Hand `job` to worker `id`, waiting for the slot to be idle first.
    /// Asynchronous: does not wait for the worker to pick the job up.
    fn dispatch(&self, id: usize, job: Job) {
        self.ensure(id);
        let slot = {
            let ws = self.workers.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(&ws[id].slot)
        };
        spin_wait(|| slot.state.load(Ordering::Acquire) == IDLE);
        let mut p = slot.payload.lock().unwrap_or_else(|e| e.into_inner());
        *p = Some(job);
        slot.state.store(ASSIGNED, Ordering::Release);
        slot.cv.notify_one();
    }

    /// Wait until worker `id` has finished its current job (slot idle).
    fn wait_idle(&self, id: usize) {
        let slot = {
            let ws = self.workers.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(&ws[id].slot)
        };
        spin_wait(|| slot.state.load(Ordering::Acquire) == IDLE);
    }

    /// Run the fresh-thread reset job on every existing worker (in
    /// parallel — resets touch only the worker's own thread-locals plus
    /// mutex-serialized registries whose final state is order-independent),
    /// then clear the process-global model state. Called between
    /// executions.
    pub(crate) fn reset_all_workers(&self) {
        let n = self.size();
        for id in 0..n {
            self.dispatch(id, Job::Reset);
        }
        for id in 0..n {
            self.wait_idle(id);
        }
        flock_epoch::model_reset();
        flock_sync::announce::model_reset_global();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let mut ws = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        // Shut down in id order so the workers' TLS destructors (tid
        // release, pool drain) run one at a time, deterministically.
        for w in ws.iter_mut() {
            spin_wait(|| w.slot.state.load(Ordering::Acquire) == IDLE);
            {
                let mut p = w.slot.payload.lock().unwrap_or_else(|e| e.into_inner());
                *p = Some(Job::Shutdown);
                w.slot.state.store(ASSIGNED, Ordering::Release);
                w.slot.cv.notify_one();
            }
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

fn worker_loop(slot: Arc<JobSlot>) {
    loop {
        // Tier 1: brief spin for back-to-back dispatch; tier 2: sleep.
        for _ in 0..2_000 {
            if slot.state.load(Ordering::Acquire) == ASSIGNED {
                break;
            }
            std::hint::spin_loop();
        }
        let job = {
            let mut p = slot.payload.lock().unwrap_or_else(|e| e.into_inner());
            while slot.state.load(Ordering::Acquire) != ASSIGNED {
                p = slot.cv.wait(p).unwrap_or_else(|e| e.into_inner());
            }
            p.take().expect("assigned job slot without payload")
        };
        match job {
            Job::Run { rt, id, body } => {
                rt.vthread_main(id, body);
                slot.state.store(IDLE, Ordering::Release);
            }
            Job::Reset => {
                // Fresh-thread state: tid released, descriptor pool, retire
                // bag and magazines drained, cadence counters zeroed. Runs
                // with no model runtime registered (direct ops).
                flock_sync::thread_ctx::with(|tc| tc.model_reset_thread_state());
                slot.state.store(IDLE, Ordering::Release);
            }
            Job::Shutdown => {
                slot.state.store(IDLE, Ordering::Release);
                return;
            }
        }
    }
}

// ------------------------------------------------------- inline scheduler

/// A scheduler choice at one decision point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Choice {
    Step(usize),
    Flush(usize),
}

impl Runtime {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        pool: &Arc<WorkerPool>,
        tso: bool,
        trace_cap: usize,
        prefix: Vec<usize>,
        max_preemptions: usize,
        max_steps: usize,
        rng: Option<u64>,
    ) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(ExecState {
                threads: Vec::new(),
                running: None,
                abort: false,
                failure: None,
                trace: Vec::new(),
                steps: 0,
                sleepers: 0,
                prefix,
                decisions: Vec::new(),
                preemptions: 0,
                max_preemptions,
                max_steps,
                rng,
                last_running: None,
                outcome: None,
            }),
            token_cv: Condvar::new(),
            pool: Arc::downgrade(pool),
            tso,
            trace_cap,
        })
    }

    fn push_trace(&self, st: &mut ExecState, line: String) {
        if st.trace.len() < self.trace_cap {
            st.trace.push(line);
        }
    }

    /// End the execution with `outcome`: record it, mark abort so every
    /// still-parked vthread unwinds, wake sleepers. Caller holds the lock.
    fn finish_execution(&self, st: &mut ExecState, outcome: Outcome) {
        if st.outcome.is_none() {
            st.outcome = Some(outcome);
        }
        st.abort = true;
        if st.sleepers > 0 {
            self.token_cv.notify_all();
        }
    }

    /// Make scheduling decisions until a vthread holds the run token (or
    /// the execution is over). Runs inline in whichever thread gave up the
    /// token — the continue-current case therefore needs no context switch.
    /// Caller holds the lock; `st.running` must be `None`.
    ///
    /// Returns the chosen vthread, or `None` when the execution ended.
    fn schedule_next(&self, st: &mut ExecState) -> Option<usize> {
        debug_assert!(st.running.is_none());
        loop {
            if st.failure.is_some() {
                self.finish_execution(st, Outcome::Failed);
                return None;
            }
            if st.steps > st.max_steps {
                self.finish_execution(st, Outcome::Pruned);
                return None;
            }

            // Promote joiners whose target has finished. Completing a join
            // is a synchronizes-with edge (as std::thread::join), so the
            // target's remaining buffered stores become visible here —
            // without this, the model would admit post-join staleness no
            // real execution can produce. Delayed-store interleavings
            // *before* the join remain fully explorable.
            for i in 0..st.threads.len() {
                if let Status::BlockedJoin(t) = st.threads[i].status
                    && st.threads[t].status == Status::Finished
                {
                    Self::flush_buffer(st, t);
                    st.threads[i].status = Status::Ready;
                }
            }

            if st
                .threads
                .iter()
                .all(|t| matches!(t.status, Status::Finished))
            {
                self.finish_execution(st, Outcome::Success);
                return None;
            }

            // Enabled choices, deterministically ordered: continue-current
            // first, then other ready threads (only within the preemption
            // budget), then store-buffer flushes.
            let cur = st
                .last_running
                .filter(|&t| matches!(st.threads[t].status, Status::Ready));
            let mut choices: Vec<Choice> = Vec::new();
            if let Some(c) = cur {
                choices.push(Choice::Step(c));
            }
            if cur.is_none() || st.preemptions < st.max_preemptions {
                for (t, ts) in st.threads.iter().enumerate() {
                    if matches!(ts.status, Status::Ready) && Some(t) != cur {
                        choices.push(Choice::Step(t));
                    }
                }
            }
            if self.tso {
                for (t, ts) in st.threads.iter().enumerate() {
                    if !ts.buffer.is_empty() {
                        choices.push(Choice::Flush(t));
                    }
                }
            }

            if choices.is_empty() {
                let parked: Vec<String> = st
                    .threads
                    .iter()
                    .enumerate()
                    .map(|(i, t)| format!("t{i}:{:?}@{}", t.status, t.pending))
                    .collect();
                st.failure.get_or_insert_with(|| {
                    format!("deadlock: no enabled choice ({})", parked.join(", "))
                });
                self.finish_execution(st, Outcome::Failed);
                return None;
            }

            let di = st.decisions.len();
            let idx = match st.prefix.get(di) {
                Some(&i) => {
                    assert!(
                        i < choices.len(),
                        "schedule replay diverged at decision {di}: index {i} of {} choices \
                         (nondeterministic test body?)",
                        choices.len()
                    );
                    i
                }
                None => match st.rng.as_mut() {
                    Some(s) => {
                        // xorshift64 — deterministic per seed.
                        *s ^= *s << 13;
                        *s ^= *s >> 7;
                        *s ^= *s << 17;
                        (*s % choices.len() as u64) as usize
                    }
                    None => 0,
                },
            };
            st.decisions.push((idx, choices.len()));

            match choices[idx] {
                Choice::Flush(t) => {
                    self.flush_one(st, t);
                    // No thread ran; decide again.
                }
                Choice::Step(t) => {
                    if let Some(c) = cur
                        && t != c
                    {
                        st.preemptions += 1;
                    }
                    st.last_running = Some(t);
                    st.running = Some(t);
                    // The chosen thread flips itself to Running when it
                    // takes the token (it may be the caller itself).
                    if st.sleepers > 0 {
                        self.token_cv.notify_all();
                    }
                    return Some(t);
                }
            }
        }
    }

    /// Park at a yield point, decide who runs next, and wait unless the
    /// decision is to continue. Returns without parking when inside a
    /// `critical` section (the op happens as part of the current step).
    fn yield_point(&self, what: &'static str) {
        let me = VTID.with(|v| v.get());
        debug_assert_ne!(me, usize::MAX);
        {
            let mut st = lock(self);
            if st.abort {
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
            if st.threads[me].critical > 0 {
                st.steps += 1;
                return;
            }
            st.threads[me].status = Status::Ready;
            st.threads[me].pending = what;
            st.running = None;
            match self.schedule_next(&mut st) {
                Some(t) if t == me => {
                    // Continue-current: keep running, zero context switches.
                    st.threads[me].status = Status::Running;
                    st.steps += 1;
                    STAT_STEPS.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Some(_) => {} // someone else runs; fall through to wait
                None => {
                    // Execution over (possibly our own prune/deadlock
                    // detection): unwind.
                    drop(st);
                    std::panic::panic_any(ModelAbort);
                }
            }
        }
        self.wait_for_token(me);
    }

    /// Wait until the scheduler hands this vthread the run token (or the
    /// execution aborts). Tier 1: a brief lock-and-check spin (the mutex is
    /// effectively uncontended — the runner takes it a few times per step).
    /// Tier 2: condvar sleep, so parked threads do not compete with the
    /// runner for the two cores.
    fn wait_for_token(&self, me: usize) {
        for _ in 0..600 {
            let mut st = lock(self);
            if st.abort {
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
            if st.running == Some(me) {
                st.threads[me].status = Status::Running;
                st.steps += 1;
                STAT_STEPS.fetch_add(1, Ordering::Relaxed);
                return;
            }
            drop(st);
            std::hint::spin_loop();
        }
        STAT_SLEEPS.fetch_add(1, Ordering::Relaxed);
        let mut st = lock(self);
        loop {
            if st.abort {
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
            if st.running == Some(me) {
                st.threads[me].status = Status::Running;
                st.steps += 1;
                STAT_STEPS.fetch_add(1, Ordering::Relaxed);
                return;
            }
            st.sleepers += 1;
            st = self.token_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            st.sleepers -= 1;
        }
    }

    /// Drain `threads[t]`'s store buffer to main memory (FIFO).
    ///
    /// Buffer entries address the backing `AtomicU64` of a live shim cell;
    /// aliveness is the engine contract documented at module level.
    fn flush_buffer(st: &mut ExecState, t: usize) {
        while let Some((addr, val)) = st.threads[t].buffer.pop_front() {
            // SAFETY: engine contract — addr is the backing storage of a
            // shim atomic kept alive for the whole execution.
            unsafe { (*(addr as *const RealU64)).store(val, Ordering::SeqCst) };
        }
    }

    /// Flush the single oldest entry of `t`'s buffer (a scheduler choice).
    fn flush_one(&self, st: &mut ExecState, t: usize) {
        if let Some((addr, val)) = st.threads[t].buffer.pop_front() {
            // SAFETY: as in `flush_buffer`.
            unsafe { (*(addr as *const RealU64)).store(val, Ordering::SeqCst) };
            let line = format!("t{t}: [flush] @{addr:#x} = {val:#x}");
            self.push_trace(st, line);
        }
    }

    /// Register a new vthread; returns its id.
    pub(crate) fn register_thread(&self) -> usize {
        let mut st = lock(self);
        st.threads.push(ThreadState {
            status: Status::Ready,
            buffer: VecDeque::new(),
            critical: 0,
            pending: "start",
        });
        st.threads.len() - 1
    }

    /// Start vthread `id` on its worker.
    pub(crate) fn start_vthread(self: &Arc<Self>, id: usize, body: Box<dyn FnOnce() + Send>) {
        let pool = self
            .pool
            .upgrade()
            .expect("worker pool dropped during an execution");
        pool.dispatch(
            id,
            Job::Run {
                rt: Arc::clone(self),
                id,
                body,
            },
        );
    }

    /// Kick off the first scheduling decision of an execution (controller
    /// side, after starting vthread 0).
    pub(crate) fn schedule_first(&self) {
        let mut st = lock(self);
        let _ = self.schedule_next(&mut st);
    }

    /// Controller wait: block until the execution's outcome is decided and
    /// every vthread is finished; return the decision record.
    pub(crate) fn wait_outcome(&self) -> ExecRecord {
        let mut spins = 0usize;
        loop {
            let st = lock(self);
            if let Some(outcome) = st.outcome {
                if st
                    .threads
                    .iter()
                    .all(|t| matches!(t.status, Status::Finished))
                {
                    return ExecRecord {
                        decisions: st.decisions.clone(),
                        outcome,
                        failure: st.failure.clone(),
                        trace: st.trace.clone(),
                    };
                }
                // Outcome decided but some vthread still unwinding: keep
                // waking sleepers so they observe the abort.
                if st.sleepers > 0 {
                    self.token_cv.notify_all();
                }
            }
            drop(st);
            spins += 1;
            if spins < 100_000 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Block the calling vthread until vthread `target` finishes.
    pub(crate) fn join_vthread(&self, target: usize) {
        let me = VTID.with(|v| v.get());
        assert_ne!(
            me,
            usize::MAX,
            "JoinHandle::join called outside a model execution"
        );
        {
            let mut st = lock(self);
            if st.threads[target].status == Status::Finished {
                // Synchronizes-with edge of a completed join (see the
                // promotion loop in schedule_next): the target's buffered
                // stores become visible to the joiner.
                Self::flush_buffer(&mut st, target);
                return;
            }
            st.threads[me].status = Status::BlockedJoin(target);
            st.threads[me].pending = "join";
            st.running = None;
            match self.schedule_next(&mut st) {
                Some(t) if t == me => {
                    // Unreachable in practice (we are blocked until the
                    // target finishes, and it cannot finish while we hold
                    // the token) — but harmless to honor.
                    st.threads[me].status = Status::Running;
                    st.steps += 1;
                    return;
                }
                Some(_) => {}
                None => {
                    drop(st);
                    std::panic::panic_any(ModelAbort);
                }
            }
        }
        self.wait_for_token(me);
    }

    /// Play one vthread: register TLS, wait for the first schedule, run the
    /// body, report, and hand the token onward. Runs on the vthread's
    /// worker.
    fn vthread_main(self: &Arc<Self>, id: usize, body: Box<dyn FnOnce() + Send>) {
        VTID.with(|v| v.set(id));
        CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(self)));
        // SAFETY: `self` is kept alive by the CURRENT TLS Arc for the whole
        // registration; cleared below before it drops.
        unsafe {
            flock_sync::atomic::set_model_runtime(Some(
                Arc::as_ptr(self) as *const (dyn ModelRuntime + 'static)
            ));
        }

        // Initial handshake: wait for the first Step(id) choice (or an
        // abort that beats it). An abort here must not unwind — the body
        // never started.
        let mut aborted_before_start = false;
        {
            let mut spins = 0usize;
            let mut st = lock(self);
            loop {
                if st.abort {
                    aborted_before_start = true;
                    break;
                }
                if st.running == Some(id) {
                    st.threads[id].status = Status::Running;
                    st.steps += 1;
                    break;
                }
                if spins < 600 {
                    spins += 1;
                    drop(st);
                    std::hint::spin_loop();
                    st = lock(self);
                } else {
                    st.sleepers += 1;
                    st = self.token_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    st.sleepers -= 1;
                }
            }
        }

        let result = if aborted_before_start {
            Err(Box::new(ModelAbort) as Box<dyn std::any::Any + Send>)
        } else {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))
        };

        // Shim ops from here on run direct (runtime deregistered).
        unsafe { flock_sync::atomic::set_model_runtime(None) };
        CURRENT.with(|c| *c.borrow_mut() = None);
        VTID.with(|v| v.set(usize::MAX));

        let mut st = lock(self);
        match result {
            Ok(()) => {
                // Deliberately NO buffer flush here: thread exit must not
                // act as a barrier, or a store parked in the buffer at the
                // thread's last op could never be observed as delayed.
                // Scheduler Flush choices can still drain it.
            }
            Err(payload) => {
                if payload.downcast_ref::<ModelAbort>().is_none() {
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&'static str>().copied())
                        .unwrap_or("<non-string panic payload>");
                    st.failure
                        .get_or_insert_with(|| format!("vthread {id} panicked: {msg}"));
                }
                st.threads[id].buffer.clear();
            }
        }
        st.threads[id].status = Status::Finished;
        if st.running == Some(id) {
            st.running = None;
            // Hand the token onward (or end the execution).
            let _ = self.schedule_next(&mut st);
        }
    }
}

impl ModelRuntime for Runtime {
    fn load(&self, storage: &RealU64, _order: Ordering, what: &'static str) -> u64 {
        if std::thread::panicking() {
            return storage.load(Ordering::SeqCst);
        }
        self.yield_point(what);
        let me = VTID.with(|v| v.get());
        let addr = storage as *const RealU64 as usize;
        let mut st = lock(self);
        // TSO load forwarding: newest own-buffer entry for this address.
        let fwd = self.tso.then(|| {
            st.threads[me]
                .buffer
                .iter()
                .rev()
                .find(|(a, _)| *a == addr)
                .map(|&(_, v)| v)
        });
        let (val, src) = match fwd.flatten() {
            Some(v) => (v, "fwd"),
            None => (storage.load(Ordering::SeqCst), "mem"),
        };
        if st.trace.len() < self.trace_cap {
            let line = format!("t{me}: {what} @{addr:#x} -> {val:#x} ({src})");
            st.trace.push(line);
        }
        val
    }

    fn store(&self, storage: &RealU64, val: u64, order: Ordering, what: &'static str) {
        if std::thread::panicking() {
            storage.store(val, Ordering::SeqCst);
            return;
        }
        self.yield_point(what);
        let me = VTID.with(|v| v.get());
        let addr = storage as *const RealU64 as usize;
        let mut st = lock(self);
        let buffered = self.tso && order != Ordering::SeqCst && st.threads[me].critical == 0;
        if buffered {
            st.threads[me].buffer.push_back((addr, val));
        } else {
            Self::flush_buffer(&mut st, me);
            storage.store(val, Ordering::SeqCst);
        }
        if st.trace.len() < self.trace_cap {
            let how = if buffered { "buf" } else { "mem" };
            let line = format!("t{me}: {what} @{addr:#x} = {val:#x} ({how})");
            st.trace.push(line);
        }
    }

    fn rmw(
        &self,
        storage: &RealU64,
        _order: Ordering,
        what: &'static str,
        f: &mut dyn FnMut(u64) -> Option<u64>,
    ) -> (u64, bool) {
        if std::thread::panicking() {
            let old = storage.load(Ordering::SeqCst);
            let applied = match f(old) {
                Some(new) => {
                    storage.store(new, Ordering::SeqCst);
                    true
                }
                None => false,
            };
            return (old, applied);
        }
        self.yield_point(what);
        let me = VTID.with(|v| v.get());
        let addr = storage as *const RealU64 as usize;
        let mut st = lock(self);
        // RMWs are full barriers on TSO: drain the buffer, then act on
        // memory atomically (we hold the scheduler lock; nothing races).
        Self::flush_buffer(&mut st, me);
        let old = storage.load(Ordering::SeqCst);
        let applied = match f(old) {
            Some(new) => {
                storage.store(new, Ordering::SeqCst);
                true
            }
            None => false,
        };
        if st.trace.len() < self.trace_cap {
            let line = format!("t{me}: {what} @{addr:#x} old={old:#x} applied={applied}");
            st.trace.push(line);
        }
        (old, applied)
    }

    fn fence(&self, order: Ordering, what: &'static str) {
        if std::thread::panicking() {
            return;
        }
        // Under TSO only the SeqCst fence does anything (drain own buffer);
        // acquire/release ordering is implicit. Non-SeqCst fences are not
        // even scheduling points, keeping state spaces small.
        if order != Ordering::SeqCst {
            return;
        }
        self.yield_point(what);
        let me = VTID.with(|v| v.get());
        let mut st = lock(self);
        Self::flush_buffer(&mut st, me);
        if st.trace.len() < self.trace_cap {
            let line = format!("t{me}: {what} (SeqCst, drained)");
            st.trace.push(line);
        }
    }

    fn critical_enter(&self) {
        if std::thread::panicking() {
            return;
        }
        // Entering an SC section is itself one scheduling point; the whole
        // section then runs as part of this step.
        self.yield_point("critical");
        let me = VTID.with(|v| v.get());
        let mut st = lock(self);
        Self::flush_buffer(&mut st, me);
        st.threads[me].critical += 1;
    }

    fn critical_exit(&self) {
        if std::thread::panicking() {
            return;
        }
        let me = VTID.with(|v| v.get());
        let mut st = lock(self);
        if st.threads[me].critical > 0 {
            st.threads[me].critical -= 1;
        }
    }
}
