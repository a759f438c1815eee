//! The recorded perf trajectory: one command that measures the primitive
//! suite plus multi-thread structure throughput and writes `BENCH_<pr>.json`
//! (schema in EXPERIMENTS.md). Each perf-relevant PR commits one snapshot so
//! hot-path regressions are visible in review and enforced in CI.
//!
//! ```sh
//! # write a fresh snapshot
//! cargo run --release -p flock-bench --bin perf_trajectory -- --out BENCH_2.json
//! # CI quick mode: primitives only, fail on >2x regression vs the baseline
//! cargo run --release -p flock-bench --bin perf_trajectory -- \
//!     --primitives-only --check BENCH_2.json
//! ```

use std::time::Duration;

use flock_bench::bench_json::{BenchReport, ThroughputSample, run_primitive_suite};
use flock_bench::{
    Series, run_point, run_point_fat, run_point_read_mostly, run_point_scan, run_point_updates,
    run_point_updates_composite,
};
use flock_workload::Config;

/// Regression gate for `--check`: fail when a primitive slows down by more
/// than this factor vs. the committed baseline.
const REGRESSION_FACTOR: f64 = 2.0;

/// Clamp on the calibration ratio: outside this range the "host speed"
/// explanation is implausible and the raw baseline is used as-is.
const CALIBRATION_CLAMP: (f64, f64) = (1.0 / 3.0, 3.0);

/// Host-speed ratio (current / baseline): a **low quantile** (second
/// lowest) of the per-case ratios over every primitive present in both
/// reports, clamped.
///
/// The baseline was recorded on one machine; CI runners can be
/// systematically 2–3x slower (or faster) — a hardware delta, not a
/// regression, and without calibration it would trip (or mask) the gate
/// deterministically. The low quantile exploits that a hardware delta
/// moves *every* ratio together while a code regression cannot slow the
/// cases that do not share the touched path (the blocking lock and
/// top-level store cases sit outside the lock-free hot paths): even a
/// regression hitting a majority of cases leaves the low end of the ratio
/// distribution near 1.0, so it cannot rescale the gate out from under
/// itself — the failure mode a median or mean calibration has. Taking the
/// second-lowest (not the minimum) tolerates one noisy-fast outlier;
/// mis-calibrating low only tightens the gate, which the 2x margin
/// absorbs.
fn calibration(current: &BenchReport, baseline: &BenchReport) -> f64 {
    let mut ratios: Vec<f64> = current
        .primitives
        .iter()
        .filter_map(|new| {
            // Contended cases are excluded from calibration: their own
            // run-to-run spread (2-3x, see CONTENDED_FACTOR_SCALE) exceeds
            // the gate margin, so a lucky-fast contended window could drag
            // the low-quantile ratio down and rescale the baseline under
            // unchanged uncontended cases. They keep their widened gate;
            // only the stable uncontended cases estimate host speed.
            // Fat-value cases are excluded for the same reason: they are
            // allocator-bound, and allocator behavior varies across hosts
            // independently of the CPU-speed delta the calibration models.
            // The update-heavy cases (native vs composite Map::update)
            // inherit both exclusions: the composite side allocates per op.
            // Pool cases are reclamation- and scheduler-bound (the cross-
            // thread case runs a second thread), so they are excluded too.
            if new.name.starts_with("contended_")
                || new.name.starts_with("fat_value_")
                || new.name.starts_with("update_")
                || new.name.starts_with("pool_")
            {
                return None;
            }
            let old = baseline.primitives.iter().find(|p| p.name == new.name)?;
            // Sub-ns cases are noise-dominated; floor like the gate does.
            (old.ns_per_op >= 1.0 && new.ns_per_op > 0.0).then(|| new.ns_per_op / old.ns_per_op)
        })
        .collect();
    if ratios.is_empty() {
        return 1.0;
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let low_quantile = ratios[1.min(ratios.len() - 1)];
    low_quantile.clamp(CALIBRATION_CLAMP.0, CALIBRATION_CLAMP.1)
}

fn throughput_sweep(duration: Duration, repeats: usize) -> Vec<ThroughputSample> {
    let mut out = Vec::new();
    // The ISSUE-2 trajectory triple: a hashtable (flat), an (a,b)-tree
    // (shallow) and a leaf tree (deep) — one representative per structure
    // class — in both lock modes, at 1/4/8 threads (8 oversubscribes the
    // usual CI container, deliberately: helping must not collapse there).
    for structure in ["hashtable", "abtree", "leaftree"] {
        for series in [Series::lf(structure), Series::bl(structure)] {
            for threads in [1usize, 4, 8] {
                let cfg = Config {
                    threads,
                    key_range: 100_000,
                    update_percent: 20,
                    zipf_alpha: 0.75,
                    run_duration: duration,
                    repeats,
                    sparsify_keys: false,
                    seed: 2,
                };
                let m = run_point(series, &cfg);
                println!(
                    "{:<24} threads={:<2} {:>8.3} Mop/s",
                    m.name, threads, m.mops_mean
                );
                out.push(ThroughputSample {
                    series: m.name.to_string(),
                    threads,
                    mops: m.mops_mean,
                });
            }
        }
    }
    // Fat-value workload (ISSUE 4): the same zipfian mix over heap-
    // indirected `Indirect<[u64; 4]>` values, so the cost of the indirect
    // `ValueRepr` strategy is a recorded trajectory point, not folklore.
    // One flat structure and one tree, both lock modes, 1/4 threads.
    for structure in ["hashtable", "abtree"] {
        for series in [Series::lf(structure), Series::bl(structure)] {
            for threads in [1usize, 4] {
                let cfg = Config {
                    threads,
                    key_range: 100_000,
                    update_percent: 20,
                    zipf_alpha: 0.75,
                    run_duration: duration,
                    repeats,
                    sparsify_keys: false,
                    seed: 2,
                };
                let m = run_point_fat(series, &cfg);
                println!(
                    "{:<24} threads={:<2} {:>8.3} Mop/s",
                    m.name, threads, m.mops_mean
                );
                out.push(ThroughputSample {
                    series: m.name.to_string(),
                    threads,
                    mops: m.mops_mean,
                });
            }
        }
    }
    // Update-heavy workload (ISSUE 5): 50% native `Map::update` / 50% get
    // over the prefilled key set, against the identical mix forced down the
    // remove+insert composite — the recorded price of atomic update at the
    // structure level. One flat and one tree structure, lock-free mode,
    // 1/4 threads.
    for structure in ["hashtable", "abtree"] {
        for threads in [1usize, 4] {
            let cfg = Config {
                threads,
                key_range: 100_000,
                update_percent: 50,
                zipf_alpha: 0.75,
                run_duration: duration,
                repeats,
                sparsify_keys: false,
                seed: 2,
            };
            for m in [
                run_point_updates(Series::lf(structure), &cfg),
                run_point_updates_composite(Series::lf(structure), &cfg),
            ] {
                println!(
                    "{:<24} threads={:<2} {:>8.3} Mop/s",
                    m.name, threads, m.mops_mean
                );
                out.push(ThroughputSample {
                    series: m.name.to_string(),
                    threads,
                    mops: m.mops_mean,
                });
            }
        }
    }
    // Read-mostly workload (ISSUE 8): the 95/5 mix the optimistic
    // version-validated read path exists for — get/contains run unlogged
    // `Acquire` descents re-checked against the owning lock's version.
    // Same representative triple, both lock modes, 1/4 threads.
    for structure in ["hashtable", "abtree", "leaftree"] {
        for series in [Series::lf(structure), Series::bl(structure)] {
            for threads in [1usize, 4] {
                let cfg = Config {
                    threads,
                    key_range: 100_000,
                    update_percent: 5, // pinned by run_point_read_mostly anyway
                    zipf_alpha: 0.75,
                    run_duration: duration,
                    repeats,
                    sparsify_keys: false,
                    seed: 2,
                };
                let m = run_point_read_mostly(series, &cfg);
                println!(
                    "{:<24} threads={:<2} {:>8.3} Mop/s",
                    m.name, threads, m.mops_mean
                );
                out.push(ThroughputSample {
                    series: m.name.to_string(),
                    threads,
                    mops: m.mops_mean,
                });
            }
        }
    }
    // Ordered-scan workload (ISSUE 8): SCAN_WIDTH-key `range` scans racing
    // 5% point mutations — the validated-snapshot leaf reads under
    // contention. One shallow and one deep tree, lock-free mode, 1/4
    // threads; one op = one whole scan, so Mop/s are not comparable with
    // the point series.
    for structure in ["abtree", "leaftree"] {
        for threads in [1usize, 4] {
            let cfg = Config {
                threads,
                key_range: 100_000,
                update_percent: 5,
                zipf_alpha: 0.75,
                run_duration: duration,
                repeats,
                sparsify_keys: false,
                seed: 2,
            };
            let m = run_point_scan(Series::lf(structure), &cfg);
            println!(
                "{:<24} threads={:<2} {:>8.3} Mop/s",
                m.name, threads, m.mops_mean
            );
            out.push(ThroughputSample {
                series: m.name.to_string(),
                threads,
                mops: m.mops_mean,
            });
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    let primitives_only = flag("--primitives-only");
    let full = flag("--full");
    let budget = if full {
        Duration::from_millis(500)
    } else {
        Duration::from_millis(200)
    };

    println!("== primitive suite (best of batches, lower is better) ==");
    let primitives = run_primitive_suite(budget);

    let throughput = if primitives_only {
        Vec::new()
    } else {
        println!("== structure throughput (mean of timed runs, higher is better) ==");
        let (duration, repeats) = if full {
            (Duration::from_millis(500), 3)
        } else {
            (Duration::from_millis(200), 2)
        };
        throughput_sweep(duration, repeats)
    };

    let report = BenchReport {
        primitives,
        throughput,
    };

    if let Some(out) = value("--out") {
        std::fs::write(&out, report.to_json()).expect("write --out file");
        println!("wrote {out}");
    }

    if let Some(baseline_path) = value("--check") {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let mut baseline = BenchReport::parse_json(&text);
        assert!(
            !baseline.primitives.is_empty(),
            "baseline {baseline_path} contains no primitive samples"
        );
        // Rescale the committed baseline to this host's speed so the gate
        // measures algorithmic regressions, not hardware deltas.
        let calib = calibration(&report, &baseline);
        println!("host-speed calibration vs {baseline_path}: {calib:.2}x");
        for p in &mut baseline.primitives {
            p.ns_per_op *= calib;
        }
        let regressions = report.primitive_regressions(&baseline, REGRESSION_FACTOR);
        if regressions.is_empty() {
            println!(
                "check ok: no primitive regressed by more than {REGRESSION_FACTOR}x vs \
                 {baseline_path} (calibrated)"
            );
        } else {
            eprintln!("perf regressions vs {baseline_path} (calibrated {calib:.2}x):");
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
    }
}
