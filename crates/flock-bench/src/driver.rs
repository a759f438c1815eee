//! The timed benchmark driver: prefill, warm-up, repeated runs, stats.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::rng::{SplitMix64, sparsify};
use crate::zipf::Zipfian;
use flock_api::Map;

/// One experiment configuration (one point on a paper graph).
#[derive(Debug, Clone)]
pub struct Config {
    /// Worker thread count (set above the core count to oversubscribe).
    pub threads: usize,
    /// Key range `[0, r)`; the structure is prefilled with half of it.
    pub key_range: u64,
    /// Percentage of operations that are updates (split 50/50 between
    /// insert and delete); the rest are lookups.
    pub update_percent: u32,
    /// Zipfian parameter α (0 = uniform).
    pub zipf_alpha: f64,
    /// Length of each timed run.
    pub run_duration: Duration,
    /// Timed runs after the warm-up run; the mean ± σ is reported.
    pub repeats: usize,
    /// Hash keys into a sparse 64-bit space (used for the ART benchmark,
    /// which would otherwise benefit from densely packed keys).
    pub sparsify_keys: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            threads: 4,
            key_range: 100_000,
            update_percent: 50,
            zipf_alpha: 0.75,
            run_duration: Duration::from_millis(300),
            repeats: 3,
            sparsify_keys: false,
            seed: 0x5EED,
        }
    }
}

/// Aggregated result of one experiment.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Series label: the structure's name, until the caller relabels it.
    pub name: String,
    /// Mean throughput over the timed runs, in Mop/s.
    pub mops_mean: f64,
    /// Standard deviation of the throughput, in Mop/s.
    pub mops_stddev: f64,
    /// Total operations executed across all timed runs.
    pub total_ops: u64,
    /// Operations completed by each worker thread, summed across the timed
    /// runs (index = worker index). Empty for experiments that predate the
    /// fairness metrics (e.g. hand-built measurements).
    pub per_thread_ops: Vec<u64>,
    /// Configuration this was measured under.
    pub config: Config,
}

impl Measurement {
    /// Max/min ratio of per-thread op counts — the paper-style headline
    /// fairness number (1.0 = perfectly fair). A fully starved thread
    /// (`min == 0`) makes the true ratio infinite; this returns the max
    /// count itself in that case so the number stays finite (and huge) for
    /// reports. Returns 1.0 when per-thread counts were not recorded.
    pub fn max_min_ratio(&self) -> f64 {
        let Some(&max) = self.per_thread_ops.iter().max() else {
            return 1.0;
        };
        let min = *self.per_thread_ops.iter().min().unwrap();
        if min == 0 {
            max as f64
        } else {
            max as f64 / min as f64
        }
    }

    /// Jain's fairness index over per-thread op counts:
    /// `(Σx)² / (n · Σx²)`, in `(0, 1]`; 1.0 = perfectly fair, `1/n` =
    /// one thread did everything. Returns 1.0 when counts were not
    /// recorded (or all threads did zero work).
    pub fn jain_index(&self) -> f64 {
        let n = self.per_thread_ops.len();
        if n == 0 {
            return 1.0;
        }
        let sum: f64 = self.per_thread_ops.iter().map(|&x| x as f64).sum();
        let sum_sq: f64 = self
            .per_thread_ops
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum();
        if sum_sq == 0.0 {
            return 1.0;
        }
        (sum * sum) / (n as f64 * sum_sq)
    }

    /// CSV row: `name,threads,range,update%,alpha,mops,stddev,maxmin,jain`.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{:.4},{:.4},{:.4},{:.4}",
            self.name,
            self.config.threads,
            self.config.key_range,
            self.config.update_percent,
            self.config.zipf_alpha,
            self.mops_mean,
            self.mops_stddev,
            self.max_min_ratio(),
            self.jain_index()
        )
    }

    /// CSV header matching [`Measurement::csv_row`].
    pub fn csv_header() -> &'static str {
        "structure,threads,key_range,update_percent,zipf_alpha,mops,stddev,max_min_ratio,jain"
    }
}

/// Prefill `map` with (deterministically) half of the keys in the range,
/// inserted in **random order** — sorted insertion would degenerate the
/// unbalanced trees into chains, whereas the paper's structures are
/// "balanced in expectation due to random inserts".
fn prefill<M: Map<u64, u64> + ?Sized>(map: &M, cfg: &Config) {
    // Parallel prefill: partition the key space over available cores; each
    // worker shuffles its own slice, and workers interleave, so the global
    // insertion order is effectively random.
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .min(cfg.threads.max(1));
    let range = cfg.key_range;
    std::thread::scope(|s| {
        for w in 0..workers {
            let map = &*map;
            let lo = range * w as u64 / workers as u64;
            let hi = range * (w as u64 + 1) / workers as u64;
            s.spawn(move || {
                // A key is "in" the initial set if its hash is even.
                let mut keys: Vec<u64> = (lo..hi).filter(|&k| sparsify(k) & 1 == 0).collect();
                let mut rng = SplitMix64::new(cfg.seed ^ ((w as u64 + 1) * 0xF11));
                for i in (1..keys.len()).rev() {
                    keys.swap(i, rng.below(i as u64 + 1) as usize);
                }
                for k in keys {
                    let key = if cfg.sparsify_keys { sparsify(k) } else { k };
                    map.insert(key, k);
                }
            });
        }
    });
}

/// One timed run; returns completed operations **per worker thread**
/// (sum for the total).
fn timed_run<M: Map<u64, u64> + ?Sized>(map: &M, cfg: &Config, run_idx: usize) -> Vec<u64> {
    let stop = AtomicBool::new(false);
    let counts: Vec<AtomicU64> = (0..cfg.threads).map(|_| AtomicU64::new(0)).collect();
    let zipf = Zipfian::new(cfg.key_range, cfg.zipf_alpha);
    std::thread::scope(|s| {
        for (t, slot) in counts.iter().enumerate() {
            let stop = &stop;
            let zipf = &zipf;
            let map = &*map;
            s.spawn(move || {
                let mut rng = SplitMix64::new(
                    cfg.seed ^ (run_idx as u64) << 32 ^ ((t as u64 + 1) * 0x1234_5678),
                );
                let mut ops = 0u64;
                let mut check = 0u32;
                while {
                    check += 1;
                    // Poll the stop flag every 64 ops to keep it off the
                    // hot path.
                    !check.is_multiple_of(64) || !stop.load(Ordering::Relaxed)
                } {
                    let rank = zipf.next(&mut rng);
                    let key = if cfg.sparsify_keys {
                        sparsify(rank)
                    } else {
                        rank
                    };
                    let dice = rng.below(100) as u32;
                    if dice < cfg.update_percent {
                        if dice.is_multiple_of(2) {
                            // Updates split evenly between insert and delete.
                            map.insert(key, rank);
                        } else {
                            map.remove(key);
                        }
                    } else {
                        std::hint::black_box(map.get(key));
                    }
                    ops += 1;
                }
                slot.store(ops, Ordering::Relaxed);
            });
        }
        // Timer thread: let the workers run, then stop them.
        std::thread::sleep(cfg.run_duration);
        stop.store(true, Ordering::SeqCst);
    });
    counts.into_iter().map(|c| c.into_inner()).collect()
}

/// Run the full experiment protocol on `map`: prefill, one warm-up run,
/// `cfg.repeats` timed runs; returns mean ± σ throughput.
pub fn run_experiment<M: Map<u64, u64> + ?Sized>(map: &M, cfg: &Config) -> Measurement {
    prefill(map, cfg);
    // Warm-up run (discarded), as in the paper.
    let _ = timed_run(map, cfg, 0);
    let mut mops = Vec::with_capacity(cfg.repeats);
    let mut total_ops = 0u64;
    let mut per_thread_ops = vec![0u64; cfg.threads];
    for r in 0..cfg.repeats {
        let t0 = Instant::now();
        let counts = timed_run(map, cfg, r + 1);
        let secs = t0.elapsed().as_secs_f64();
        let ops: u64 = counts.iter().sum();
        for (acc, c) in per_thread_ops.iter_mut().zip(&counts) {
            *acc += c;
        }
        total_ops += ops;
        mops.push(ops as f64 / secs / 1e6);
    }
    let mean = mops.iter().sum::<f64>() / mops.len() as f64;
    let var = if mops.len() > 1 {
        mops.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (mops.len() - 1) as f64
    } else {
        0.0
    };
    Measurement {
        name: map.name().to_string(),
        mops_mean: mean,
        mops_stddev: var.sqrt(),
        total_ops,
        per_thread_ops,
        config: cfg.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Mutex;

    /// A trivial reference map for driver tests.
    struct LockedMap {
        inner: Mutex<HashMap<u64, u64>>,
    }

    impl LockedMap {
        fn new() -> Self {
            Self {
                inner: Mutex::new(HashMap::new()),
            }
        }
    }

    impl Map<u64, u64> for LockedMap {
        fn insert(&self, key: u64, value: u64) -> bool {
            self.inner.lock().unwrap().insert(key, value).is_none()
        }
        fn remove(&self, key: u64) -> bool {
            self.inner.lock().unwrap().remove(&key).is_some()
        }
        fn get(&self, key: u64) -> Option<u64> {
            self.inner.lock().unwrap().get(&key).copied()
        }
        fn update(&self, key: u64, value: u64) -> bool {
            self.inner
                .lock()
                .unwrap()
                .get_mut(&key)
                .map(|v| *v = value)
                .is_some()
        }
        fn name(&self) -> &'static str {
            "locked_hashmap"
        }
    }

    #[test]
    fn experiment_runs_and_reports() {
        let map = LockedMap::new();
        let cfg = Config {
            threads: 2,
            key_range: 256,
            update_percent: 50,
            zipf_alpha: 0.75,
            run_duration: Duration::from_millis(30),
            repeats: 2,
            sparsify_keys: false,
            seed: 1,
        };
        let m = run_experiment(&map, &cfg);
        assert!(m.total_ops > 0);
        assert!(m.mops_mean > 0.0);
        assert_eq!(m.name, "locked_hashmap");
        let row = m.csv_row();
        assert!(row.starts_with("locked_hashmap,2,256,50,0.75,"));
    }

    #[test]
    fn prefill_half_the_range() {
        let map = LockedMap::new();
        let cfg = Config {
            key_range: 10_000,
            ..Config::default()
        };
        prefill(&map, &cfg);
        let n = map.inner.lock().unwrap().len() as f64;
        assert!((4_000.0..6_000.0).contains(&n), "prefill size {n}");
    }

    #[test]
    fn sparsified_prefill_uses_hashed_keys() {
        let map = LockedMap::new();
        let cfg = Config {
            key_range: 1_000,
            sparsify_keys: true,
            ..Config::default()
        };
        prefill(&map, &cfg);
        let inner = map.inner.lock().unwrap();
        // Hashed keys should leave the dense low range almost empty.
        let dense = inner.keys().filter(|&&k| k < 1_000).count();
        assert!(dense < 10, "{dense} dense keys under sparsify");
    }
}
