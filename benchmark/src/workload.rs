//! The six workloads: what each drives, with which mix, and why it exists.
//! Five are listed in `BENCHMARK.json`; `stalled-holder` runs only when named
//! (and under `--smoke`), see [`Spec::gated`].

use crate::tape::Class;

/// Which public structure a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    LeafTree,
    HashTable,
    /// No `flock-ds`: a vector of `Arc<Locked<Mutable<u64>>>` accounts.
    Accounts,
}

/// One workload. Sizes keep each structure, with the worker's tape and
/// books, inside a 2 MiB L2 cache (a leaf-tree key costs two 128-byte
/// nodes): on the shared host the benchmark was sized on, whatever spills
/// into the L3 cache varies with the neighbours, run to run, by ±10 %.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// One line, copied into `BENCHMARK.json`.
    pub why: &'static str,
    pub target: Target,
    /// Key range of a map, or number of accounts.
    pub keys: u32,
    /// Maps start with every key present (and no insert or remove on the
    /// tape) or with a seeded half of them.
    pub prefill_all: bool,
    /// Keys are drawn zipf(0.99) by rank instead of uniformly.
    pub zipf: bool,
    /// Operation mix in parts per thousand.
    pub mix: &'static [(Class, u32)],
    /// Worker 0 stalls inside every n-th of its transfers (0 = never).
    pub stall_every: u32,
    /// Listed in `BENCHMARK.json`, so that a driver runs it and judges it
    /// against the bounds. `stalled-holder` is not: all its work is done by
    /// one worker running alone, and on the shared host the benchmark was
    /// sized on a single thread alternates, for minutes at a time, between
    /// two speeds a quarter apart, which no bound the contract allows
    /// survives (README, "Noise"). It runs like the others when named.
    pub gated: bool,
}

impl Spec {
    /// How many keys (or accounts) set-up puts into the structure.
    pub fn prefilled(&self) -> u32 {
        if self.prefill_all || self.target == Target::Accounts {
            self.keys
        } else {
            self.keys / 2
        }
    }
}

/// Width of every range scan, in consecutive keys.
pub const SCAN_WIDTH: u32 = 64;

/// How long the stalled holder stays inside its critical section.
pub const STALL: std::time::Duration = std::time::Duration::from_millis(1);

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "read-mostly",
        why: "LeafTree 95% get: optimistic validated reads and the epoch pin do the work, \
              the lock protocol about 5%; a lock-protocol change must not move it",
        target: Target::LeafTree,
        keys: 8_192,
        prefill_all: false,
        zipf: false,
        mix: &[(Class::Get, 950), (Class::Insert, 25), (Class::Remove, 25)],
        stall_every: 0,
        gated: true,
    },
    Spec {
        name: "churn",
        why: "LeafTree 90% insert/remove: every write is try_lock plus in-thunk alloc and retire, \
              so idempotent alloc/retire, magazines and the collector dominate",
        target: Target::LeafTree,
        keys: 4_096,
        prefill_all: false,
        zipf: false,
        mix: &[
            (Class::Get, 100),
            (Class::Insert, 450),
            (Class::Remove, 450),
        ],
        stall_every: 0,
        gated: true,
    },
    Spec {
        name: "hot-update",
        why: "HashTable zipf 70% update: one try_lock, one logged load and store per write, \
              no allocation, workers collide on hot bucket locks; bypasses the allocator",
        target: Target::HashTable,
        keys: 16_384,
        prefill_all: true,
        zipf: true,
        mix: &[(Class::Update, 700), (Class::Get, 300)],
        stall_every: 0,
        gated: true,
    },
    Spec {
        name: "scan-mixed",
        why: "LeafTree 50% range over 64 keys racing writers: the version-bracketed scan path, \
              the same flock-ds layer used differently from read-mostly",
        target: Target::LeafTree,
        keys: 8_192,
        prefill_all: false,
        zipf: false,
        mix: &[
            (Class::Range, 500),
            (Class::Get, 300),
            (Class::Insert, 100),
            (Class::Remove, 100),
        ],
        stall_every: 0,
        gated: true,
    },
    Spec {
        name: "lock-transfer",
        why: "64 Locked accounts, 90% try_with2 transfers: nested acquisition in flock-core \
              is all the work, no flock-ds; the widest LF/BL gap",
        target: Target::Accounts,
        keys: 64,
        prefill_all: true,
        zipf: false,
        mix: &[(Class::Transfer, 900), (Class::Balance, 100)],
        stall_every: 0,
        gated: true,
    },
    Spec {
        name: "stalled-holder",
        why: "lock-transfer with worker 0 stalled 1 ms inside every 64th critical section: \
              the other worker helps (LF) or waits (BL); help path instead of fast path",
        target: Target::Accounts,
        keys: 64,
        prefill_all: true,
        zipf: false,
        mix: &[(Class::Transfer, 900), (Class::Balance, 100)],
        stall_every: 64,
        gated: false,
    },
];

/// The workloads `BENCHMARK.json` lists.
pub fn gated() -> impl Iterator<Item = &'static Spec> {
    WORKLOADS.iter().filter(|w| w.gated)
}

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_whole_and_whys_fit_the_manifest() {
        for s in &WORKLOADS {
            assert_eq!(s.mix.iter().map(|m| m.1).sum::<u32>(), 1000, "{}", s.name);
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
            assert_eq!(find(s.name).map(|f| f.name), Some(s.name));
        }
        assert!(find("nope").is_none());
    }
}
