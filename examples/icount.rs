//! Instruction counts of single uncontended operations, by single-stepping.
//!
//! The host this repository is measured on exposes no hardware counters
//! (`perf_event_open` has no PMU), so this example counts instructions the
//! slow, exact way: it re-executes itself as a traced child
//! (`ptrace(PTRACE_TRACEME)` in `Command::pre_exec`), and the child brackets
//! single operations with `int3` markers. The parent single-steps the child
//! from one marker to the next, and counts the instructions it steps and
//! how many of them are `lock`-prefixed (an `0xF0` prefix, or an `xchg`
//! with a memory operand, which locks without one).
//!
//! Each scenario warms up for 20 000 operations, then brackets 9 single
//! operations; the table shows their median, so that the collection every
//! 128th epoch unpin makes does not set a row. Every scenario runs in both
//! lock modes. Counts are of one thread on an idle structure: the
//! uncontended path only.
//!
//! ```sh
//! cargo run --release --example icount
//! ```
//!
//! x86-64 Linux only (the markers and the decoding are x86, `ptrace` is
//! Linux's); elsewhere it prints a note and exits.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn main() {
    println!("icount: x86-64 Linux only; nothing counted on this target");
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn main() {
    if std::env::args().nth(1).as_deref() == Some(trace::TRACEE_ARG) {
        tracee::run();
    } else {
        trace::run();
    }
}

/// The operations counted, in the order the child runs them.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
const SCENARIOS: [&str; 7] = [
    "try_lock, empty thunk",
    "try_lock, load + store",
    "HashTable::update",
    "Locked::try_with2",
    "HashTable::get",
    "LeafTree insert+remove",
    "LeafTree::get",
];

/// Modes each scenario runs in, in order.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
const MODES: [&str; 2] = ["lock-free", "blocking"];

/// Single operations bracketed per scenario and mode.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
const SAMPLES: usize = 9;

/// The traced child: runs each scenario, marking single operations.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod tracee {
    use std::hint::black_box;
    use std::sync::Arc;

    use flock::core::{LockMode, Locked, Mutable, set_lock_mode};
    use flock::ds::hashtable::HashTable;
    use flock::ds::leaftree::LeafTree;

    use super::{MODES, SAMPLES, SCENARIOS};

    const WARMUP: usize = 20_000;

    /// Stop at the tracer. Not `nomem`: the marker must also order the
    /// compiler's memory accesses, so no work of the operation moves
    /// across it.
    #[inline(always)]
    fn marker() {
        // SAFETY: a breakpoint trap; the tracer resumes past it.
        unsafe { std::arch::asm!("int3", options(nostack)) };
    }

    /// Warm `op` up, then run it `SAMPLES` times between two markers.
    #[inline(always)]
    fn measure(mut op: impl FnMut()) {
        for _ in 0..WARMUP {
            op();
        }
        for _ in 0..SAMPLES {
            marker();
            op();
            marker();
        }
    }

    pub fn run() {
        let lock: &'static flock::core::Lock = Box::leak(Box::new(flock::core::Lock::new()));
        let v: &'static Mutable<u64> = Box::leak(Box::new(Mutable::new(0)));
        let table = HashTable::<u64, u64>::with_capacity(1024);
        // Even keys in bit-reversed order: the unbalanced tree comes out
        // balanced, of depth 10.
        let tree = LeafTree::<u64, u64>::new();
        for k in 0..1024u64 {
            table.insert(k, k);
            tree.insert(2 * (k.reverse_bits() >> 54), k);
        }
        let (a, b) = (
            Arc::new(Locked::new(Mutable::new(1u64 << 40))),
            Arc::new(Locked::new(Mutable::new(1u64 << 40))),
        );
        let mut i = 0u64;
        for scenario in 0..SCENARIOS.len() {
            for mode in MODES {
                set_lock_mode(if mode == "blocking" {
                    LockMode::Blocking
                } else {
                    LockMode::LockFree
                });
                match scenario {
                    0 => measure(|| {
                        black_box(lock.try_lock(|| ()));
                    }),
                    1 => measure(|| {
                        black_box(lock.try_lock(|| v.store((v.load() + 1) & 0xFFFF_FFFF)));
                    }),
                    2 => measure(|| {
                        i = (i + 1) & 0xFFFF;
                        black_box(table.update(black_box(17), i));
                    }),
                    3 => measure(|| {
                        black_box(Locked::try_with2(&a, &b, |from, to| {
                            from.store(from.load() - 1);
                            to.store(to.load() + 1);
                            true
                        }));
                    }),
                    4 => measure(|| {
                        black_box(table.get(black_box(17)));
                    }),
                    5 => measure(|| {
                        // An absent (odd) key: the insert splits a leaf
                        // and the remove splices it out again.
                        black_box(tree.insert(black_box(1001), 1));
                        black_box(tree.remove(black_box(1001)));
                    }),
                    _ => measure(|| {
                        // A present (even) key, ten levels down.
                        black_box(tree.get(black_box(1000)));
                    }),
                }
            }
        }
        set_lock_mode(LockMode::LockFree);
    }
}

/// The tracer: starts the child and single-steps every bracketed operation.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod trace {
    use std::os::raw::{c_int, c_long, c_void};
    use std::os::unix::process::CommandExt;
    use std::process::Command;

    use super::{MODES, SAMPLES, SCENARIOS};

    /// The argument the child is re-executed with.
    pub const TRACEE_ARG: &str = "--tracee";

    const PTRACE_TRACEME: c_int = 0;
    const PTRACE_PEEKTEXT: c_int = 1;
    const PTRACE_PEEKUSER: c_int = 3;
    const PTRACE_CONT: c_int = 7;
    const PTRACE_SINGLESTEP: c_int = 9;
    /// `offsetof(struct user_regs_struct, rip)` on x86-64.
    const RIP_OFFSET: usize = 16 * 8;
    const SIGTRAP: c_int = 5;
    const INT3: u8 = 0xCC;

    unsafe extern "C" {
        fn ptrace(request: c_int, ...) -> c_long;
        fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
    }

    /// How the child stopped: at a trap, or with another signal.
    enum Stop {
        Trap,
        Signal(c_int),
    }

    /// The traced child, stopped between requests.
    struct Child(c_int);

    impl Child {
        fn request(&self, req: c_int, addr: usize, data: usize) -> c_long {
            // SAFETY: a ptrace request on our own stopped tracee.
            unsafe { ptrace(req, self.0, addr as *mut c_void, data as *mut c_void) }
        }

        /// Wait for the child's next stop. It must not end here: every
        /// stop this waits for is one the child has still to make.
        fn wait(&self) -> Stop {
            let mut status: c_int = 0;
            // SAFETY: waits for our own child into a local.
            let r = unsafe { waitpid(self.0, &mut status, 0) };
            assert_eq!(r, self.0, "waitpid failed");
            assert_eq!(
                status & 0xff,
                0x7f,
                "the child ended early: status {status:#x}"
            );
            match (status >> 8) & 0xff {
                SIGTRAP => Stop::Trap,
                sig => Stop::Signal(sig),
            }
        }

        /// Resume until the next trap, forwarding any other signal.
        fn cont_to_trap(&self) {
            let mut sig = 0;
            loop {
                self.request(PTRACE_CONT, 0, sig as usize);
                match self.wait() {
                    Stop::Trap => return,
                    Stop::Signal(s) => sig = s,
                }
            }
        }

        /// The 16 bytes at the child's instruction pointer.
        fn code_at_rip(&self) -> [u8; 16] {
            let rip = self.request(PTRACE_PEEKUSER, RIP_OFFSET, 0) as usize;
            let mut bytes = [0u8; 16];
            for (i, chunk) in bytes.chunks_mut(8).enumerate() {
                let word = self.request(PTRACE_PEEKTEXT, rip + 8 * i, 0);
                chunk.copy_from_slice(&word.to_ne_bytes());
            }
            bytes
        }

        /// Single-step from a start marker to the end marker: the
        /// instructions stepped, and how many of them lock the bus.
        fn count_to_marker(&self) -> (u64, u64) {
            let (mut insns, mut locked) = (0, 0);
            loop {
                let code = self.code_at_rip();
                if code[0] == INT3 {
                    return (insns, locked);
                }
                insns += 1;
                locked += u64::from(is_locked(&code));
                self.request(PTRACE_SINGLESTEP, 0, 0);
                if let Stop::Signal(s) = self.wait() {
                    panic!("signal {s} inside a counted operation");
                }
            }
        }
    }

    /// Does the instruction at the start of `code` lock: an `0xF0` prefix
    /// among its prefixes (legacy or REX), or `xchg` with a memory operand
    /// (`0x86`/`0x87` with a ModRM `mod` other than 3)?
    fn is_locked(code: &[u8; 16]) -> bool {
        let mut i = 0;
        while i < code.len() {
            match code[i] {
                0xF0 => return true,
                0x66 | 0x67 | 0x2E | 0x36 | 0x3E | 0x26 | 0x64 | 0x65 | 0xF2 | 0xF3 => {}
                0x40..=0x4F => {}
                _ => break,
            }
            i += 1;
        }
        matches!(code.get(i), Some(0x86 | 0x87)) && code.get(i + 1).is_some_and(|m| m >> 6 != 3)
    }

    fn median(mut v: Vec<u64>) -> u64 {
        v.sort_unstable();
        v[v.len() / 2]
    }

    pub fn run() {
        let exe = std::env::current_exe().expect("own executable");
        let mut cmd = Command::new(exe);
        cmd.arg(TRACEE_ARG);
        // SAFETY: `ptrace(PTRACE_TRACEME)` is async-signal-safe: a bare
        // system call between fork and exec.
        unsafe {
            cmd.pre_exec(|| {
                if ptrace(PTRACE_TRACEME, 0, 0usize, 0usize) == -1 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut proc = cmd.spawn().expect("spawn the traced child");
        let child = Child(proc.id() as c_int);
        // The exec stops the child with a trap before its first instruction.
        assert!(matches!(child.wait(), Stop::Trap), "no exec stop");
        println!("| scenario | mode | instructions | lock-prefixed |");
        println!("|---|---|---:|---:|");
        for scenario in SCENARIOS {
            for mode in MODES {
                let (mut insns, mut locked) = (Vec::new(), Vec::new());
                for _ in 0..SAMPLES {
                    // The start marker, then the steps to the end marker,
                    // which the next `cont_to_trap` executes.
                    child.cont_to_trap();
                    let (n, l) = child.count_to_marker();
                    insns.push(n);
                    locked.push(l);
                    child.cont_to_trap();
                }
                println!(
                    "| {scenario} | {mode} | {} | {} |",
                    median(insns),
                    median(locked)
                );
            }
        }
        // Past the last marker the child only exits.
        child.request(PTRACE_CONT, 0, 0);
        let status = proc.wait().expect("wait for the traced child");
        assert!(status.success(), "the traced child ended with {status}");
    }
}
