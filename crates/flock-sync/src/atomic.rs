//! The one atomics choke point of the workspace: `flock_sync::atomic`.
//!
//! Every atomic and fence in the protocol crates (`flock-sync`,
//! `flock-core`, `flock-epoch`) goes through this module instead of
//! `std::sync::atomic`, so the whole implementation can be re-pointed at a
//! model-checking shim without touching a single call site:
//!
//! * **Default builds** (no `model` feature): a plain re-export of
//!   `std::sync::atomic`. Zero cost — the types *are* the std types, every
//!   call compiles to the exact same instruction it always did, and
//!   [`critical`] is an `#[inline(always)]` identity wrapper.
//! * **`--features model`**: the types are shims that route every
//!   load/store/RMW/fence through a [`ModelRuntime`] registered for the
//!   current thread (see the `flock-model` crate). The runtime turns each
//!   access into a *scheduling point* of a deterministic concurrency model
//!   checker and applies a store-buffer (TSO) memory model, so weak-memory
//!   interleavings — a `Release` store parked in a buffer past a later
//!   load — become explorable and assertable. Threads with no registered
//!   runtime (test setup/teardown on the controller thread) fall through to
//!   the real atomic with the requested ordering.
//!
//! The `model` feature is **never** enabled by default-member builds; it is
//! pulled in only by `flock-model`, which is deliberately not a default
//! workspace member. Tier-1 builds and the committed benchmarks therefore
//! exercise byte-identical atomics with or without this module.
//!
//! ## What the shim models
//!
//! The model runtime implements a TSO (x86-like, store-buffer) memory
//! model: stores weaker than `SeqCst` sit in a per-thread FIFO buffer until
//! a `SeqCst` operation, an RMW, a `SeqCst` fence, or a nondeterministic
//! scheduler-chosen flush writes them back; loads forward from the
//! issuing thread's own buffer. This captures exactly the store–load
//! reordering class that the announce/Dekker pair, the epoch pin
//! publication and the reservation scans defend against with their fences —
//! the bugs an x86 host can never exhibit natively under a plain
//! interleaving checker, because the hardware inserts the very barriers the
//! source forgot. Load–load and other non-TSO reorderings are out of scope
//! (documented bound; see EXPERIMENTS.md).

pub use std::sync::atomic::Ordering;

#[cfg(not(feature = "model"))]
pub use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU8, AtomicU64, AtomicUsize, fence};

/// Run `f` as one indivisible step of the concurrency model.
///
/// In default builds this is the identity. Under the `model` feature the
/// registered runtime suspends preemption for the duration of `f`, so the
/// closure executes as a single atomic step with sequentially consistent
/// memory semantics. Used for the thread-id registry's claim/release paths,
/// whose real implementation serializes under a mutex: modelling a
/// mutex-protected section as one step is faithful to its own spec, and
/// keeps OS-level mutex waits (which the cooperative scheduler cannot see)
/// from deadlocking the model.
#[cfg(not(feature = "model"))]
#[inline(always)]
pub fn critical<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(feature = "model")]
mod shim {
    use std::cell::Cell;
    use std::marker::PhantomData;
    use std::sync::atomic::Ordering;
    use std::sync::atomic::{AtomicU64 as RealU64, fence as real_fence};

    /// The hook a model checker implements to take over atomic semantics.
    ///
    /// `storage` is the shim cell's backing 64-bit word — the model's "main
    /// memory" for that location. The runtime is expected to treat every
    /// call as a scheduling point, consult/maintain the calling thread's
    /// store buffer, and read or write `storage` (with `SeqCst` on the real
    /// atomic) when a value actually reaches memory.
    pub trait ModelRuntime {
        /// An atomic load of `storage` with program-order `order`.
        fn load(&self, storage: &RealU64, order: Ordering, what: &'static str) -> u64;
        /// An atomic store to `storage` with program-order `order`.
        fn store(&self, storage: &RealU64, val: u64, order: Ordering, what: &'static str);
        /// A read-modify-write: `f(current)` returns `Some(new)` to apply
        /// or `None` to leave memory unchanged (a failed compare-exchange).
        /// Returns `(observed_old, applied)`.
        fn rmw(
            &self,
            storage: &RealU64,
            order: Ordering,
            what: &'static str,
            f: &mut dyn FnMut(u64) -> Option<u64>,
        ) -> (u64, bool);
        /// An `atomic::fence(order)`.
        fn fence(&self, order: Ordering, what: &'static str);
        /// Enter an indivisible (no-preemption, SC) section.
        fn critical_enter(&self);
        /// Leave the indivisible section.
        fn critical_exit(&self);
    }

    thread_local! {
        static RUNTIME: Cell<Option<*const (dyn ModelRuntime + 'static)>> =
            const { Cell::new(None) };
    }

    /// Register (or clear) the model runtime for the calling thread.
    ///
    /// # Safety
    ///
    /// The pointee must stay alive and valid until the registration is
    /// cleared; every shim atomic op on this thread dereferences it.
    pub unsafe fn set_model_runtime(rt: Option<*const (dyn ModelRuntime + 'static)>) {
        RUNTIME.with(|r| r.set(rt));
    }

    /// Is a model runtime registered for the calling thread?
    pub fn model_runtime_active() -> bool {
        RUNTIME.with(|r| r.get().is_some())
    }

    #[inline]
    fn with_runtime<R>(f: impl FnOnce(&dyn ModelRuntime) -> R) -> Option<R> {
        RUNTIME.with(|r| {
            r.get().map(|ptr| {
                // SAFETY: `set_model_runtime` contract — pointee valid while
                // registered.
                f(unsafe { &*ptr })
            })
        })
    }

    /// See the non-model [`super::critical`]. Under the model, suspends
    /// preemption and runs `f` as one SC step.
    pub fn critical<R>(f: impl FnOnce() -> R) -> R {
        struct Exit(bool);
        impl Drop for Exit {
            fn drop(&mut self) {
                if self.0 {
                    with_runtime(|rt| rt.critical_exit());
                }
            }
        }
        let entered = with_runtime(|rt| rt.critical_enter()).is_some();
        let _exit = Exit(entered);
        f()
    }

    /// Model-shim `fence`: a scheduling point; `SeqCst` drains the calling
    /// thread's store buffer.
    pub fn fence(order: Ordering) {
        if with_runtime(|rt| rt.fence(order, "fence")).is_none() {
            real_fence(order);
        }
    }

    const fn u64_to_bits(v: u64) -> u64 {
        v
    }
    const fn u64_from_bits(b: u64) -> u64 {
        b
    }
    const fn usize_to_bits(v: usize) -> u64 {
        v as u64
    }
    const fn usize_from_bits(b: u64) -> usize {
        b as usize
    }
    const fn u8_to_bits(v: u8) -> u64 {
        v as u64
    }
    const fn u8_from_bits(b: u64) -> u8 {
        b as u8
    }
    const fn bool_to_bits(v: bool) -> u64 {
        v as u64
    }
    const fn bool_from_bits(b: u64) -> bool {
        b != 0
    }

    macro_rules! shim_common {
        ($name:ident, $raw:ty, $to:expr, $from:expr) => {
            impl $name {
                /// A new cell holding `v`.
                pub const fn new(v: $raw) -> Self {
                    Self {
                        storage: RealU64::new($to(v)),
                    }
                }

                /// Atomic load.
                #[inline]
                pub fn load(&self, order: Ordering) -> $raw {
                    let bits = with_runtime(|rt| {
                        rt.load(&self.storage, order, concat!(stringify!($name), "::load"))
                    })
                    .unwrap_or_else(|| self.storage.load(order));
                    $from(bits)
                }

                /// Atomic store.
                #[inline]
                pub fn store(&self, val: $raw, order: Ordering) {
                    if with_runtime(|rt| {
                        rt.store(
                            &self.storage,
                            $to(val),
                            order,
                            concat!(stringify!($name), "::store"),
                        )
                    })
                    .is_none()
                    {
                        self.storage.store($to(val), order);
                    }
                }

                /// Atomic swap.
                #[inline]
                pub fn swap(&self, val: $raw, order: Ordering) -> $raw {
                    let bits = with_runtime(|rt| {
                        rt.rmw(
                            &self.storage,
                            order,
                            concat!(stringify!($name), "::swap"),
                            &mut |_| Some($to(val)),
                        )
                        .0
                    })
                    .unwrap_or_else(|| self.storage.swap($to(val), order));
                    $from(bits)
                }

                /// Atomic compare-exchange.
                #[inline]
                pub fn compare_exchange(
                    &self,
                    current: $raw,
                    new: $raw,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$raw, $raw> {
                    match with_runtime(|rt| {
                        rt.rmw(
                            &self.storage,
                            success,
                            concat!(stringify!($name), "::compare_exchange"),
                            &mut |cur| (cur == $to(current)).then_some($to(new)),
                        )
                    }) {
                        Some((old, true)) => Ok($from(old)),
                        Some((old, false)) => Err($from(old)),
                        None => self
                            .storage
                            .compare_exchange($to(current), $to(new), success, failure)
                            .map($from)
                            .map_err($from),
                    }
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    f.debug_tuple(stringify!($name))
                        .field(&$from(self.storage.load(Ordering::Relaxed)))
                        .finish()
                }
            }
        };
    }

    macro_rules! shim_fetch_ops {
        ($name:ident, $raw:ty, $to:expr, $from:expr) => {
            impl $name {
                /// Atomic wrapping add; returns the previous value.
                #[inline]
                pub fn fetch_add(&self, val: $raw, order: Ordering) -> $raw {
                    let bits = with_runtime(|rt| {
                        rt.rmw(
                            &self.storage,
                            order,
                            concat!(stringify!($name), "::fetch_add"),
                            &mut |cur| Some($to($from(cur).wrapping_add(val))),
                        )
                        .0
                    })
                    .unwrap_or_else(|| self.storage.fetch_add($to(val), order));
                    $from(bits)
                }

                /// Atomic wrapping subtract; returns the previous value.
                #[inline]
                pub fn fetch_sub(&self, val: $raw, order: Ordering) -> $raw {
                    let bits = with_runtime(|rt| {
                        rt.rmw(
                            &self.storage,
                            order,
                            concat!(stringify!($name), "::fetch_sub"),
                            &mut |cur| Some($to($from(cur).wrapping_sub(val))),
                        )
                        .0
                    })
                    .unwrap_or_else(|| self.storage.fetch_sub($to(val), order));
                    $from(bits)
                }

                /// Atomic maximum; returns the previous value.
                #[inline]
                pub fn fetch_max(&self, val: $raw, order: Ordering) -> $raw {
                    let bits = with_runtime(|rt| {
                        rt.rmw(
                            &self.storage,
                            order,
                            concat!(stringify!($name), "::fetch_max"),
                            &mut |cur| Some($to($from(cur).max(val))),
                        )
                        .0
                    })
                    .unwrap_or_else(|| self.storage.fetch_max($to(val), order));
                    $from(bits)
                }
            }
        };
    }

    /// Model-shim `AtomicU64`.
    pub struct AtomicU64 {
        storage: RealU64,
    }
    shim_common!(AtomicU64, u64, u64_to_bits, u64_from_bits);
    shim_fetch_ops!(AtomicU64, u64, u64_to_bits, u64_from_bits);

    /// Model-shim `AtomicUsize` (stored as 64 bits).
    pub struct AtomicUsize {
        storage: RealU64,
    }
    shim_common!(AtomicUsize, usize, usize_to_bits, usize_from_bits);
    shim_fetch_ops!(AtomicUsize, usize, usize_to_bits, usize_from_bits);

    /// Model-shim `AtomicU8` (stored as 64 bits).
    pub struct AtomicU8 {
        storage: RealU64,
    }
    shim_common!(AtomicU8, u8, u8_to_bits, u8_from_bits);

    /// Model-shim `AtomicBool` (stored as 64 bits).
    pub struct AtomicBool {
        storage: RealU64,
    }
    shim_common!(AtomicBool, bool, bool_to_bits, bool_from_bits);

    impl Default for AtomicBool {
        fn default() -> Self {
            Self::new(false)
        }
    }

    /// Model-shim `AtomicPtr<T>` (address stored as 64 bits; model builds
    /// are never run under strict-provenance tooling).
    pub struct AtomicPtr<T> {
        storage: RealU64,
        _pd: PhantomData<*mut T>,
    }

    // SAFETY: same contract as std's AtomicPtr — the cell itself is just an
    // atomic word; what the pointer protects is the caller's business.
    unsafe impl<T> Send for AtomicPtr<T> {}
    // SAFETY: as above.
    unsafe impl<T> Sync for AtomicPtr<T> {}

    impl<T> AtomicPtr<T> {
        /// A new cell holding `p`.
        pub fn new(p: *mut T) -> Self {
            Self {
                storage: RealU64::new(p as usize as u64),
                _pd: PhantomData,
            }
        }

        /// Atomic load.
        #[inline]
        pub fn load(&self, order: Ordering) -> *mut T {
            let bits = with_runtime(|rt| rt.load(&self.storage, order, "AtomicPtr::load"))
                .unwrap_or_else(|| self.storage.load(order));
            bits as usize as *mut T
        }

        /// Atomic store.
        #[inline]
        pub fn store(&self, p: *mut T, order: Ordering) {
            let bits = p as usize as u64;
            if with_runtime(|rt| rt.store(&self.storage, bits, order, "AtomicPtr::store")).is_none()
            {
                self.storage.store(bits, order);
            }
        }

        /// Atomic swap.
        #[inline]
        pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
            let bits = p as usize as u64;
            let old = with_runtime(|rt| {
                rt.rmw(&self.storage, order, "AtomicPtr::swap", &mut |_| Some(bits))
                    .0
            })
            .unwrap_or_else(|| self.storage.swap(bits, order));
            old as usize as *mut T
        }

        /// Atomic compare-exchange.
        #[inline]
        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            let (cur_bits, new_bits) = (current as usize as u64, new as usize as u64);
            match with_runtime(|rt| {
                rt.rmw(
                    &self.storage,
                    success,
                    "AtomicPtr::compare_exchange",
                    &mut |cur| (cur == cur_bits).then_some(new_bits),
                )
            }) {
                Some((old, true)) => Ok(old as usize as *mut T),
                Some((old, false)) => Err(old as usize as *mut T),
                None => self
                    .storage
                    .compare_exchange(cur_bits, new_bits, success, failure)
                    .map(|b| b as usize as *mut T)
                    .map_err(|b| b as usize as *mut T),
            }
        }
    }

    impl<T> std::fmt::Debug for AtomicPtr<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "AtomicPtr({:#x})", self.storage.load(Ordering::Relaxed))
        }
    }
}

#[cfg(feature = "model")]
pub use shim::{
    AtomicBool, AtomicPtr, AtomicU8, AtomicU64, AtomicUsize, ModelRuntime, critical, fence,
    model_runtime_active, set_model_runtime,
};
