//! Packing of a 16-bit ABA tag and a 48-bit payload into one 64-bit word.
//!
//! The paper's Flock library keeps mutable shared locations ABA-free by
//! attaching a tag to every value and bumping the tag on each update. Its
//! experiments all use the single-word variant: a 16-bit tag in the high bits
//! of the word and a 48-bit value in the low bits, which is enough for a
//! pointer on x86-64/AArch64 Linux (§6, "ABA"). This module implements that
//! representation.
//!
//! The tag value [`TAG_LIMIT`] (`0xFFFF`) is reserved: packed words never
//! carry it, so `u64::MAX` can act as the *empty* sentinel for thunk-log
//! entries without colliding with any legitimate packed word.

/// Number of payload bits in a packed word.
pub const VAL_BITS: u32 = 48;
/// Mask selecting the payload bits of a packed word.
pub const VAL_MASK: u64 = (1u64 << VAL_BITS) - 1;
/// Tags range over `0..TAG_LIMIT`; `TAG_LIMIT` itself is reserved so that the
/// all-ones word can never be a legitimate packed value.
#[cfg(not(feature = "model"))]
pub const TAG_LIMIT: u16 = u16::MAX;

/// Model builds shrink the tag space (scope bounding, not a protocol
/// change): wraparound — the event the announcement table exists for —
/// becomes reachable within a model-checkable number of stores. The bit
/// layout is untouched; only where `next_tag` wraps moves.
#[cfg(feature = "model")]
pub const TAG_LIMIT: u16 = 8;

/// Width of an aligned **tag window**: tags `[k·W, (k+1)·W)` (the last
/// window stops short at the reserved [`TAG_LIMIT`]). The announcement
/// table is consulted only when an issued tag *enters* a window (see
/// `announce`, "Window-entry scans"); inside a window tags are issued `+1`
/// with no table access. 1024 windows against `MAX_THREADS` = 512 one-slot
/// announcers: a window free of announcements always exists.
#[cfg(not(feature = "model"))]
pub const TAG_WINDOW: u16 = 64;

/// Model builds shrink the window with the tag space: 4 windows of 2 tags,
/// which must stay above the number of threads a model test runs (each
/// live thread announces at most one tag per location, and window entry
/// needs an announcement-free window).
#[cfg(feature = "model")]
pub const TAG_WINDOW: u16 = 2;

/// Model-only runtime override of the wrap point (scope bounding knob for
/// individual model tests; production keeps the compile-time constant).
///
/// The lock-word tag-wrap tests shrink the effective tag space to 2 so a
/// full `TAG_LIMIT`-install wraparound of one lock word fits inside an
/// exhaustively explorable schedule space. Settable only while no modeled
/// operations are in flight. A limit below `2 * TAG_WINDOW` has no two
/// whole windows to alternate between, so there the window degrades to a
/// single tag (`tag_window()` returns 1: every issue is a window entry and
/// scans, and a limit of `n` must stay above the number of tags
/// concurrently announced per location).
#[cfg(feature = "model")]
pub mod model_tag_limit {
    use core::sync::atomic::{AtomicU16, Ordering};

    static LIMIT: AtomicU16 = AtomicU16::new(super::TAG_LIMIT);

    /// Set the effective wrap point (clamped to `2..=TAG_LIMIT`).
    pub fn set(limit: u16) {
        LIMIT.store(limit.clamp(2, super::TAG_LIMIT), Ordering::SeqCst);
    }

    /// The current effective wrap point.
    pub fn get() -> u16 {
        LIMIT.load(Ordering::Relaxed)
    }
}

/// The effective wrap point: [`TAG_LIMIT`], or the model-only runtime
/// override.
#[inline(always)]
pub(crate) fn tag_limit() -> u16 {
    #[cfg(feature = "model")]
    return model_tag_limit::get();
    #[cfg(not(feature = "model"))]
    TAG_LIMIT
}

/// The effective window width: [`TAG_WINDOW`], except under a model-only
/// tag limit too small to hold two whole windows (see `model_tag_limit`).
#[inline(always)]
pub(crate) fn tag_window() -> u16 {
    #[cfg(feature = "model")]
    if model_tag_limit::get() < 2 * TAG_WINDOW {
        return 1;
    }
    TAG_WINDOW
}

/// Pack `tag` and a 48-bit `val` into one word.
///
/// Debug-asserts that `val` fits in 48 bits and that the reserved tag is not
/// used; in release builds the value is masked.
#[inline(always)]
pub fn pack(tag: u16, val: u64) -> u64 {
    debug_assert!(val <= VAL_MASK, "payload {val:#x} exceeds 48 bits");
    debug_assert!(tag != TAG_LIMIT, "tag {TAG_LIMIT:#x} is reserved");
    ((tag as u64) << VAL_BITS) | (val & VAL_MASK)
}

/// Extract the tag of a packed word.
#[inline(always)]
pub fn unpack_tag(word: u64) -> u16 {
    (word >> VAL_BITS) as u16
}

/// Extract the 48-bit payload of a packed word.
#[inline(always)]
pub fn unpack_val(word: u64) -> u64 {
    word & VAL_MASK
}

/// Successor of a tag in the cyclic tag space, skipping the reserved value.
#[inline(always)]
pub fn next_tag(tag: u16) -> u16 {
    let next = tag.wrapping_add(1);
    // `>=` (not `==`): the model-only runtime limit may shrink below a tag
    // already in circulation; such a tag wraps on its next bump.
    if next >= tag_limit() { 0 } else { next }
}

/// Types that can be stored in the 48-bit payload of a `Mutable`.
///
/// # Safety
///
/// Implementations must guarantee both of the following, or the idempotence
/// machinery in `flock-core` silently corrupts values:
///
/// * `to_bits` returns a value `<= VAL_MASK` (fits in 48 bits), and
/// * `from_bits(v.to_bits()) == v` for every `v` (lossless round-trip).
pub unsafe trait PackedValue: Copy + PartialEq {
    /// Encode into at most 48 bits.
    fn to_bits(self) -> u64;
    /// Decode from the 48-bit payload produced by [`PackedValue::to_bits`].
    fn from_bits(bits: u64) -> Self;
}

// SAFETY: unit encodes as 0 and round-trips trivially.
unsafe impl PackedValue for () {
    #[inline(always)]
    fn to_bits(self) -> u64 {
        0
    }
    #[inline(always)]
    fn from_bits(_bits: u64) -> Self {}
}

// SAFETY: one bit, round-trips exactly.
unsafe impl PackedValue for bool {
    #[inline(always)]
    fn to_bits(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_bits(bits: u64) -> Self {
        bits != 0
    }
}

macro_rules! impl_packed_small_uint {
    ($($t:ty),*) => {$(
        // SAFETY: the type is at most 32 bits wide, so it always fits in 48
        // bits and the `as` casts round-trip exactly.
        unsafe impl PackedValue for $t {
            #[inline(always)]
            fn to_bits(self) -> u64 { self as u64 }
            #[inline(always)]
            fn from_bits(bits: u64) -> Self { bits as $t }
        }
    )*};
}
impl_packed_small_uint!(u8, u16, u32);

macro_rules! impl_packed_small_int {
    ($($t:ty),*) => {$(
        // SAFETY: sign-extended round-trip through the unsigned type of the
        // same width, which is at most 32 bits and so fits in 48.
        unsafe impl PackedValue for $t {
            #[inline(always)]
            fn to_bits(self) -> u64 { (self as u32) as u64 }
            #[inline(always)]
            fn from_bits(bits: u64) -> Self { bits as u32 as $t }
        }
    )*};
}
impl_packed_small_int!(i8, i16, i32);

// SAFETY: caller contract — values must fit 48 bits. Flock uses this for
// small counts and sizes; debug builds assert.
unsafe impl PackedValue for u64 {
    #[inline(always)]
    fn to_bits(self) -> u64 {
        debug_assert!(self <= VAL_MASK, "u64 payload {self:#x} exceeds 48 bits");
        self
    }
    #[inline(always)]
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

// SAFETY: same contract as u64; usize is at most 64 bits on supported targets.
unsafe impl PackedValue for usize {
    #[inline(always)]
    fn to_bits(self) -> u64 {
        debug_assert!((self as u64) <= VAL_MASK, "usize payload exceeds 48 bits");
        self as u64
    }
    #[inline(always)]
    fn from_bits(bits: u64) -> Self {
        bits as usize
    }
}

// SAFETY: on x86-64 and AArch64 Linux user-space pointers occupy at most 48
// bits (checked by a debug assertion). Null round-trips as 0.
unsafe impl<T> PackedValue for *mut T {
    #[inline(always)]
    fn to_bits(self) -> u64 {
        let bits = self as usize as u64;
        debug_assert!(bits <= VAL_MASK, "pointer {bits:#x} exceeds 48 bits");
        bits
    }
    #[inline(always)]
    fn from_bits(bits: u64) -> Self {
        bits as usize as *mut T
    }
}

// SAFETY: identical to the `*mut T` impl.
unsafe impl<T> PackedValue for *const T {
    #[inline(always)]
    fn to_bits(self) -> u64 {
        let bits = self as usize as u64;
        debug_assert!(bits <= VAL_MASK, "pointer {bits:#x} exceeds 48 bits");
        bits
    }
    #[inline(always)]
    fn from_bits(bits: u64) -> Self {
        bits as usize as *const T
    }
}

/// How a logical value rides in the 48-bit payload of a lock-word-adjacent
/// slot (`flock_core::Mutable` and friends).
///
/// Two strategies exist:
///
/// * **Inline** — the value's bits *are* the payload. Implemented here for
///   every [`PackedValue`] primitive and raw pointer; a custom
///   `PackedValue` type gets it by an impl of its own that forwards to
///   `to_bits`/`from_bits` (a blanket impl would collide with downstream
///   indirect reprs under coherence). `encode`/`decode` are bit casts and
///   the reclamation hooks are no-ops, so the compiled slot operations are
///   identical to the historical 48-bit-only path.
/// * **Indirect** — the payload is a pointer to an epoch-managed heap copy
///   of the value (`flock_epoch::Indirect<T>`). `encode` allocates,
///   `decode` clones out of the live allocation, and the reclamation hooks
///   route through the epoch collector so concurrent readers (including
///   helpers replaying a thunk) can still snapshot a retired encoding.
///
/// The two cleanup hooks differ in *who may still see the encoding*:
/// [`ValueRepr::retire_bits`] is for encodings that were published to a
/// shared slot (grace-period reclamation), [`ValueRepr::dealloc_bits`] for
/// encodings that provably never escaped (losers of an idempotent-encode
/// race, or exclusive teardown).
///
/// # Safety
///
/// Implementations must guarantee:
///
/// * `encode` returns a payload `<= VAL_MASK`;
/// * `decode(encode(v)) == v` for every `v`, for as long as the encoding
///   has not been passed to a reclamation hook (and, for indirect reprs,
///   the caller is inside an epoch guard);
/// * each encoding is passed to exactly one of `retire_bits` /
///   `dealloc_bits`, exactly once, after which it is never decoded by new
///   readers.
pub unsafe trait ValueRepr: Clone + PartialEq {
    /// `true` when `encode` allocates and the packed word stores a pointer.
    /// A `const` so inline instantiations compile the reclamation branches
    /// out entirely.
    const INDIRECT: bool;

    /// Encode the value into at most 48 payload bits (may allocate).
    fn encode(v: Self) -> u64;

    /// Snapshot-decode a value from payload bits produced by `encode`.
    ///
    /// # Safety
    ///
    /// `bits` must come from `encode` and not yet be reclaimed; indirect
    /// reprs additionally require the caller to hold an epoch guard
    /// protecting the encoding.
    unsafe fn decode(bits: u64) -> Self;

    /// Reclaim a **published** encoding through the grace-period collector
    /// (no-op for inline reprs).
    ///
    /// # Safety
    ///
    /// `bits` from `encode`, unlinked from every shared slot, reclaimed at
    /// most once; for indirect reprs the caller must be epoch-pinned.
    unsafe fn retire_bits(bits: u64);

    /// Immediately free an encoding that was **never published** (or is
    /// exclusively owned, e.g. during teardown). No-op for inline reprs.
    ///
    /// # Safety
    ///
    /// `bits` from `encode`, reachable by no other thread, reclaimed at
    /// most once.
    unsafe fn dealloc_bits(bits: u64);
}

macro_rules! impl_inline_value_repr {
    ($($t:ty),*) => {$(
        // SAFETY: delegates to the type's `PackedValue` impl, whose
        // contract is exactly the inline half of the `ValueRepr` contract;
        // nothing is allocated, so the reclamation hooks are no-ops.
        unsafe impl ValueRepr for $t {
            const INDIRECT: bool = false;
            #[inline(always)]
            fn encode(v: Self) -> u64 {
                <$t as PackedValue>::to_bits(v)
            }
            #[inline(always)]
            unsafe fn decode(bits: u64) -> Self {
                <$t as PackedValue>::from_bits(bits)
            }
            #[inline(always)]
            unsafe fn retire_bits(_bits: u64) {}
            #[inline(always)]
            unsafe fn dealloc_bits(_bits: u64) {}
        }
    )*};
}
impl_inline_value_repr!((), bool, u8, u16, u32, i8, i16, i32, u64, usize);

// SAFETY: as the macro impls; pointers are inline payloads (≤ 48 bits on
// supported targets, debug-checked by the PackedValue impls). The pointee is
// NOT owned by the slot — reclamation hooks are no-ops by design (the
// surrounding structure retires what the pointer targets).
unsafe impl<T> ValueRepr for *mut T {
    const INDIRECT: bool = false;
    #[inline(always)]
    fn encode(v: Self) -> u64 {
        v.to_bits()
    }
    #[inline(always)]
    unsafe fn decode(bits: u64) -> Self {
        <*mut T as PackedValue>::from_bits(bits)
    }
    #[inline(always)]
    unsafe fn retire_bits(_bits: u64) {}
    #[inline(always)]
    unsafe fn dealloc_bits(_bits: u64) {}
}

// SAFETY: identical to the `*mut T` impl.
unsafe impl<T> ValueRepr for *const T {
    const INDIRECT: bool = false;
    #[inline(always)]
    fn encode(v: Self) -> u64 {
        v.to_bits()
    }
    #[inline(always)]
    unsafe fn decode(bits: u64) -> Self {
        <*const T as PackedValue>::from_bits(bits)
    }
    #[inline(always)]
    unsafe fn retire_bits(_bits: u64) {}
    #[inline(always)]
    unsafe fn dealloc_bits(_bits: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip_basic() {
        let w = pack(0x1234, 0xDEAD_BEEF_CAFE);
        assert_eq!(unpack_tag(w), 0x1234);
        assert_eq!(unpack_val(w), 0xDEAD_BEEF_CAFE);
    }

    #[test]
    fn pack_zero() {
        let w = pack(0, 0);
        assert_eq!(w, 0);
        assert_eq!(unpack_tag(w), 0);
        assert_eq!(unpack_val(w), 0);
    }

    #[test]
    fn pack_max_payload() {
        let w = pack(0xFFFE, VAL_MASK);
        assert_eq!(unpack_tag(w), 0xFFFE);
        assert_eq!(unpack_val(w), VAL_MASK);
        assert_ne!(w, u64::MAX, "reserved tag keeps all-ones word unreachable");
    }

    #[test]
    fn next_tag_skips_reserved() {
        assert_eq!(next_tag(0), 1);
        assert_eq!(next_tag(TAG_LIMIT - 2), TAG_LIMIT - 1);
        assert_eq!(next_tag(TAG_LIMIT - 1), 0, "wraps past the reserved tag");
    }

    #[test]
    fn bool_roundtrip() {
        assert!(bool::from_bits(true.to_bits()));
        assert!(!bool::from_bits(false.to_bits()));
    }

    #[test]
    fn signed_roundtrip() {
        for v in [i32::MIN, -1, 0, 1, i32::MAX] {
            assert_eq!(i32::from_bits(v.to_bits() & VAL_MASK), v);
        }
    }

    #[test]
    fn pointer_roundtrip() {
        let x = Box::into_raw(Box::new(42u64));
        let bits = x.to_bits();
        let back: *mut u64 = PackedValue::from_bits(bits);
        assert_eq!(back, x);
        // SAFETY: x came from Box::into_raw above and was not freed.
        unsafe { drop(Box::from_raw(x)) };
        let null: *mut u64 = std::ptr::null_mut();
        assert_eq!(null.to_bits(), 0);
    }

    #[test]
    fn unit_roundtrip() {
        assert_eq!(().to_bits(), 0);
        <() as PackedValue>::from_bits(0);
    }

    #[test]
    fn inline_value_repr_is_bit_identical_to_packed_value() {
        for v in [0u64, 1, 42, VAL_MASK] {
            assert_eq!(<u64 as ValueRepr>::encode(v), v.to_bits());
            // SAFETY: bits come from encode above.
            assert_eq!(unsafe { <u64 as ValueRepr>::decode(v) }, v);
        }
        const { assert!(!<u64 as ValueRepr>::INDIRECT) };
        assert_eq!(<bool as ValueRepr>::encode(true), 1);
        // The inline reclamation hooks are no-ops on arbitrary bits.
        // SAFETY: no-ops per the inline impls.
        unsafe {
            <u64 as ValueRepr>::retire_bits(3);
            <u64 as ValueRepr>::dealloc_bits(3);
        }
    }
}
