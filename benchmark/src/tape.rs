//! The benchmark's own operation generator: a seeded tape per worker,
//! generated before anything is timed and replayed cyclically. The program
//! under test receives only the generated operations, never the seed.

use crate::workload::{SCAN_WIDTH, Spec, Target};

/// Operation classes. `Get`..`Range` are `flock-ds` calls (`ds.<class>.*`
/// metrics), `Transfer` and `Balance` are `flock-core` calls (`core.*`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Class {
    Get,
    Insert,
    Remove,
    Update,
    Range,
    Transfer,
    Balance,
}

impl Class {
    pub const ALL: [Class; 7] = [
        Class::Get,
        Class::Insert,
        Class::Remove,
        Class::Update,
        Class::Range,
        Class::Transfer,
        Class::Balance,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Get => "get",
            Class::Insert => "insert",
            Class::Remove => "remove",
            Class::Update => "update",
            Class::Range => "range",
            Class::Transfer => "transfer",
            Class::Balance => "balance",
        }
    }

    /// The crate layer whose public API the class calls.
    pub fn layer(self) -> &'static str {
        match self {
            Class::Transfer | Class::Balance => "core",
            _ => "ds",
        }
    }

    /// Reads are get, range and balance; everything else writes.
    pub fn is_read(self) -> bool {
        matches!(self, Class::Get | Class::Range | Class::Balance)
    }
}

/// One taped operation. `a` is the key (maps), the first key of a scan, or
/// the paying account; `b` is the receiving account.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub class: Class,
    /// The calling worker stalls inside this critical section.
    pub stall: bool,
    pub amount: u16,
    pub a: u32,
    pub b: u32,
}

/// Operations per worker tape: far more than a branch predictor can
/// learn, and short enough (768 KiB) to stay in the L2 cache beside the
/// structure instead of streaming through it (a 3 MiB tape cost the 95 %-get
/// workload a quarter of its throughput).
pub const TAPE_LEN: usize = 1 << 16;

/// Where a worker is on its tape. Each pass over the tape shifts the keys
/// of inserts and removes by a different amount (staying on keys the worker
/// owns), because a literal repeat would leave every key in the state its
/// last taped write gives it, and nearly every later write would be a
/// no-op. The shifts depend only on the pass number, so a seed still fixes
/// the whole operation stream.
pub struct Position {
    at: usize,
    pass: u32,
    /// Current shift, in keys (a multiple of the number of workers).
    shift: u32,
    workers: u32,
    /// Keys the workers own between them: `owned slots * workers`.
    span: u32,
}

/// Slots the shift advances per pass: odd, so that it cycles through all
/// slots of a power-of-two range, and far from any small period.
const SHIFT_STRIDE: u32 = 40_503;

impl Position {
    pub fn new(spec: &Spec, workers: usize) -> Self {
        let workers = workers as u32;
        Self {
            at: 0,
            pass: 0,
            shift: 0,
            workers,
            span: spec.keys / workers * workers,
        }
    }

    /// The next operation of `tape`, wrapping around at its end.
    #[inline(always)]
    pub fn next(&mut self, tape: &[Op]) -> Op {
        let mut op = tape[self.at];
        if matches!(op.class, Class::Insert | Class::Remove) {
            op.a += self.shift;
            if op.a >= self.span {
                op.a -= self.span;
            }
        }
        self.at += 1;
        if self.at == tape.len() {
            self.at = 0;
            self.pass = self.pass.wrapping_add(1);
            let slots = self.span / self.workers;
            self.shift = self.pass.wrapping_mul(SHIFT_STRIDE) % slots * self.workers;
        }
        op
    }
}

/// xorshift64*, seeded through splitmix64 so that nearby seeds give
/// unrelated streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (the bias of the multiply-shift is below 2^-32
    /// for every `n` used here).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next() >> 32) * n as u64) >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over ranks `0..n` with exponent `alpha`, by inverting a CDF table.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u32, alpha: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / f64::from(r).powf(alpha);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        (self.cdf.partition_point(|&c| c <= u) as u32).min(self.cdf.len() as u32 - 1)
    }
}

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A stream of its own for every (seed, workload, purpose).
fn stream(spec: &Spec, seed: u64, purpose: u64) -> Rng {
    Rng::new(
        seed ^ fnv(spec.name.bytes()).rotate_left(17) ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407),
    )
}

/// The tape worker `worker` of `workers` replays on `spec`.
///
/// Inserts and removes go only to keys the worker owns (`k % workers ==
/// worker`), so the worker's books know the exact result of each; gets,
/// scans and updates go anywhere.
pub fn tape(spec: &Spec, seed: u64, worker: usize, workers: usize, len: usize) -> Vec<Op> {
    let mut rng = stream(spec, seed, 1 + worker as u64);
    let zipf = spec.zipf.then(|| Zipf::new(spec.keys, 0.99));
    let (w, n) = (worker as u32, workers as u32);
    let owned_slots = spec.keys / n;
    let mut transfers = 0u32;
    (0..len)
        .map(|_| {
            let mut pick = rng.below(1000);
            let class = spec
                .mix
                .iter()
                .find(|(_, share)| {
                    let hit = pick < *share;
                    pick = pick.wrapping_sub(*share);
                    hit
                })
                .map(|m| m.0)
                .expect("mix sums to 1000");
            let any_key = |rng: &mut Rng| match &zipf {
                Some(z) => z.sample(rng),
                None => rng.below(spec.keys),
            };
            let mut op = Op {
                class,
                stall: false,
                amount: 0,
                a: 0,
                b: 0,
            };
            match class {
                Class::Get | Class::Update | Class::Balance => op.a = any_key(&mut rng),
                Class::Insert | Class::Remove => op.a = rng.below(owned_slots) * n + w,
                Class::Range => op.a = rng.below(spec.keys - SCAN_WIDTH + 1),
                Class::Transfer => {
                    op.a = rng.below(spec.keys);
                    op.b = (op.a + 1 + rng.below(spec.keys - 1)) % spec.keys;
                    op.amount = 1 + rng.below(8) as u16;
                    transfers += 1;
                    op.stall = worker == 0
                        && spec.stall_every != 0
                        && transfers.is_multiple_of(spec.stall_every);
                }
            }
            op
        })
        .collect()
}

/// The keys set-up inserts, in insertion order: every key in key order
/// for a full prefill, else a seeded half in seeded order (the leaf tree is
/// unbalanced, so sorted insertion would build a list).
pub fn prefill_keys(spec: &Spec, seed: u64) -> Vec<u32> {
    let mut keys: Vec<u32> = (0..spec.keys).collect();
    if spec.prefill_all || spec.target == Target::Accounts {
        return keys;
    }
    let mut rng = stream(spec, seed, 0);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u32 + 1) as usize);
    }
    keys.truncate(spec.prefilled() as usize);
    keys
}

/// A fingerprint of a tape, to show that a seed fixes the inputs.
pub fn hash(tape: &[Op]) -> u64 {
    fnv(tape.iter().flat_map(|op| {
        [op.class as u8, op.stall as u8]
            .into_iter()
            .chain(op.amount.to_le_bytes())
            .chain(op.a.to_le_bytes())
            .chain(op.b.to_le_bytes())
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn same_seed_same_tape_other_seed_other_tape() {
        for spec in &WORKLOADS {
            let a = tape(spec, 7, 0, 2, 4096);
            assert_eq!(hash(&a), hash(&tape(spec, 7, 0, 2, 4096)), "{}", spec.name);
            assert_ne!(hash(&a), hash(&tape(spec, 8, 0, 2, 4096)), "{}", spec.name);
            assert_ne!(hash(&a), hash(&tape(spec, 7, 1, 2, 4096)), "{}", spec.name);
            assert_eq!(prefill_keys(spec, 7), prefill_keys(spec, 7));
            assert_eq!(prefill_keys(spec, 7).len(), spec.prefilled() as usize);
        }
        let churn = &WORKLOADS[1];
        assert_ne!(prefill_keys(churn, 7), prefill_keys(churn, 8));
    }

    #[test]
    fn tapes_follow_the_spec() {
        for spec in &WORKLOADS {
            for workers in [1usize, 2, 3] {
                for worker in 0..workers {
                    let t = tape(spec, 42, worker, workers, 20_000);
                    let mut seen = [0u32; 7];
                    for op in &t {
                        seen[op.class as usize] += 1;
                        match op.class {
                            Class::Insert | Class::Remove => {
                                assert_eq!(op.a as usize % workers, worker);
                                assert!(op.a < spec.keys);
                            }
                            Class::Range => assert!(op.a + SCAN_WIDTH <= spec.keys),
                            Class::Transfer => {
                                assert!(op.a < spec.keys && op.b < spec.keys && op.a != op.b);
                                assert!((1..=8).contains(&op.amount));
                            }
                            _ => assert!(op.a < spec.keys),
                        }
                        assert!(!op.stall || (worker == 0 && spec.stall_every != 0));
                    }
                    for (class, share) in spec.mix {
                        let got = seen[*class as usize] as f64 / t.len() as f64;
                        let want = *share as f64 / 1000.0;
                        assert!((got - want).abs() < 0.02, "{} {class:?}", spec.name);
                    }
                    assert_eq!(seen.iter().sum::<u32>() as usize, t.len());
                }
            }
        }
        let stalls = tape(&WORKLOADS[5], 1, 0, 2, 20_000)
            .iter()
            .filter(|op| op.stall)
            .count();
        assert!((250..=300).contains(&stalls), "{stalls} stalls"); // 18 000 transfers / 64
    }

    #[test]
    fn passes_shift_owned_keys_and_nothing_else() {
        let spec = &WORKLOADS[1];
        for (worker, workers) in [(0usize, 1usize), (1, 2), (2, 3)] {
            let t = tape(spec, 9, worker, workers, 512);
            let mut pos = Position::new(spec, workers);
            let first: Vec<Op> = (0..t.len()).map(|_| pos.next(&t)).collect();
            assert_eq!(first, t, "the first pass is the tape itself");
            let second: Vec<Op> = (0..t.len()).map(|_| pos.next(&t)).collect();
            let mut moved = 0;
            for (a, b) in t.iter().zip(&second) {
                assert_eq!(
                    (a.class, a.stall, a.amount, a.b),
                    (b.class, b.stall, b.amount, b.b)
                );
                if matches!(a.class, Class::Insert | Class::Remove) {
                    assert_eq!(b.a as usize % workers, worker, "shift left the owned keys");
                    assert!(b.a < spec.keys);
                    moved += usize::from(a.a != b.a);
                } else {
                    assert_eq!(a.a, b.a);
                }
            }
            assert!(moved > t.len() / 2, "only {moved} writes moved");
            // The same position replays the same stream.
            let mut again = Position::new(spec, workers);
            let replay: Vec<Op> = (0..2 * t.len()).map(|_| again.next(&t)).collect();
            assert_eq!(replay[t.len()..], second[..]);
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(16_384, 0.99);
        let mut rng = Rng::new(3);
        let mut first = 0;
        for _ in 0..100_000 {
            let r = z.sample(&mut rng);
            assert!(r < 16_384);
            first += u32::from(r == 0);
        }
        // Rank 0 carries 1/H(16384, 0.99) = 9.7 % of the draws.
        assert!((8_700..10_700).contains(&first), "{first}");
    }
}
