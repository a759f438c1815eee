//! # flock-bench — the figure harness
//!
//! Reproduces the paper's evaluation, Figures 4–7, each setting lock-free
//! mode beside blocking mode and beside the existing lock-free/lock-based
//! structures of `flock-baselines`. The whole evaluation is one table,
//! [`PANELS`]; [`plan`] expands it for a [`Scale`] into the points to
//! measure and [`execute`] runs them through [`run_point`], writing one CSV
//! per panel. The `figures` binary, the crate's only one, is the command
//! line over those three.
//!
//! ## The driver
//!
//! [`run_experiment`] follows the paper's workload methodology (§8
//! "Workloads") over any [`Map`], the Flock structures and the baselines
//! alike:
//!
//! * a key range `[0, r)` prefilled with half the keys;
//! * each thread performs a mix of lookups and updates, with updates split
//!   evenly between inserts and deletes, keeping the size stable;
//! * keys drawn from a [`Zipfian`] distribution with parameter α
//!   (α = 0 is uniform; 0.75/0.9/0.99 skew toward hot keys, as in YCSB);
//! * timed runs with a warm-up run discarded and the mean ± σ of the
//!   remaining runs reported;
//! * oversubscription simply by requesting more threads than cores.
//!
//! [`make_map`] builds any of the registry's structures by name:
//! [`FLOCK_STRUCTURES`] and [`BASELINES`] list them.
//!
//! This crate does not measure the repo's own performance over time — that
//! is `benchmark/` (see `BENCHMARK.json`).
//!
//! ## Scaling
//!
//! The paper's testbed is a 72-core (144-hyperthread) 4-socket Xeon with
//! 1 TB of RAM; this harness defaults to a **quick** scale chosen relative
//! to the host's core count (thread sweeps at 1×, 2×, 4× cores so the
//! oversubscription phenomena still appear) and a reduced "large" key range
//! (1M instead of 100M). `--paper` selects the paper's parameters verbatim.
//! Absolute Mop/s are not comparable across machines; the *shape* of each
//! series — who wins, where the blocking lines collapse — is what
//! EXPERIMENTS.md records against the paper's figures.

use std::path::Path;
use std::time::Duration;

use flock_api::Map;
use flock_core::LockMode;
use flock_ds::{
    abtree::ABTree, arttree::ArtTree, dlist::DList, hashtable::HashTable, lazylist::LazyList,
    leaftreap::LeafTreap, leaftree::LeafTree,
};

pub mod driver;
pub mod rng;
pub mod zipf;

pub use driver::{Config, Measurement, run_experiment};
pub use rng::{SplitMix64, sparsify};
pub use zipf::Zipfian;

/// A benchmarkable series: a structure plus the lock mode it runs under
/// (baselines ignore the mode).
#[derive(Debug, Clone, Copy)]
pub struct Series {
    /// Registry name, e.g. `"leaftree"`, `"harris_list"`.
    pub structure: &'static str,
    /// Lock mode for Flock structures; `None` for baselines.
    pub mode: Option<LockMode>,
}

impl Series {
    /// Flock structure in lock-free mode (`-lf` suffix in reports).
    pub const fn lf(structure: &'static str) -> Self {
        Self {
            structure,
            mode: Some(LockMode::LockFree),
        }
    }

    /// Flock structure in blocking mode (`-bl` suffix in reports).
    pub const fn bl(structure: &'static str) -> Self {
        Self {
            structure,
            mode: Some(LockMode::Blocking),
        }
    }

    /// Baseline structure (mode-independent).
    pub const fn base(structure: &'static str) -> Self {
        Self {
            structure,
            mode: None,
        }
    }

    /// Display label, e.g. `leaftree-lf`, `ellen`.
    pub fn label(&self) -> String {
        let mode = match self.mode {
            Some(LockMode::LockFree) => "-lf",
            Some(LockMode::Blocking) => "-bl",
            None => "",
        };
        format!("{}{mode}", self.structure)
    }
}

/// The registry's Flock structures: each runs in either lock mode.
pub const FLOCK_STRUCTURES: [&str; 8] = [
    "dlist",
    "lazylist",
    "hashtable",
    "leaftree",
    "leaftree-strict",
    "leaftreap",
    "abtree",
    "arttree",
];

/// The registry's baselines: they bring their own synchronization and
/// ignore the lock mode.
pub const BASELINES: [&str; 6] = [
    "harris_list",
    "harris_list_opt",
    "natarajan",
    "ellen",
    "bronson_style_bst",
    "srivastava_abtree",
];

/// Instantiate every registry structure at a given `(K, V)` pair (all 14
/// variants are generic since the `ValueRepr` refactor).
macro_rules! registry {
    ($structure:expr, $key_range:expr) => {
        match $structure {
            "dlist" => Box::new(DList::new()),
            "lazylist" => Box::new(LazyList::new()),
            "hashtable" => Box::new(HashTable::with_capacity($key_range as usize)),
            "leaftree" => Box::new(LeafTree::new()),
            "leaftree-strict" => Box::new(LeafTree::new_strict()),
            "leaftreap" => Box::new(LeafTreap::new()),
            "abtree" => Box::new(ABTree::new()),
            "arttree" => Box::new(ArtTree::new()),
            "harris_list" => Box::new(flock_baselines::HarrisList::new()),
            "harris_list_opt" => Box::new(flock_baselines::HarrisList::new_opt()),
            "natarajan" => Box::new(flock_baselines::NatarajanBst::new()),
            "ellen" => Box::new(flock_baselines::EllenBst::new()),
            "bronson_style_bst" => Box::new(flock_baselines::BlockingBst::new()),
            "srivastava_abtree" => Box::new(flock_baselines::BlockingABTree::new()),
            other => panic!("unknown structure {other:?}"),
        }
    };
}

/// Instantiate a structure by registry name, sized for `key_range`, at the
/// paper's `(u64, u64)` evaluation shape.
pub fn make_map(structure: &str, key_range: u64) -> Box<dyn Map<u64, u64>> {
    registry!(structure, key_range)
}

/// Scale parameters for a whole reproduction run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// "Large" key range (paper: 100M; quick: 1M).
    pub large_range: u64,
    /// Key ranges of the Figure 5h size sweep.
    pub size_sweep: Vec<u64>,
    /// Thread counts for thread sweeps (includes oversubscribed points).
    pub thread_sweep: Vec<usize>,
    /// Thread count standing in for the paper's 144 (all hyperthreads).
    pub full_threads: usize,
    /// Thread count standing in for the paper's 216 (1.5× oversubscribed).
    pub oversub_threads: usize,
    /// Per-run duration.
    pub duration: Duration,
    /// Timed repeats after warm-up.
    pub repeats: usize,
}

impl Scale {
    /// Quick scale relative to this host (default).
    pub fn quick() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        Self {
            large_range: 1_000_000,
            size_sweep: vec![1_000, 10_000, 100_000, 1_000_000],
            thread_sweep: vec![1, cores, 2 * cores, 4 * cores],
            full_threads: cores,
            oversub_threads: 2 * cores,
            duration: Duration::from_millis(300),
            repeats: 2,
        }
    }

    /// The paper's parameters (needs a large machine and patience).
    pub fn paper() -> Self {
        Self {
            large_range: 100_000_000,
            size_sweep: vec![10_000, 100_000, 1_000_000, 10_000_000, 100_000_000],
            thread_sweep: vec![1, 36, 72, 144, 216, 288],
            full_threads: 144,
            oversub_threads: 216,
            duration: Duration::from_secs(3),
            repeats: 3,
        }
    }
}

/// Run one series at one configuration; handles the global lock mode (only
/// while quiescent — the map is created fresh per run).
pub fn run_point(series: Series, cfg: &Config) -> Measurement {
    flock_core::set_lock_mode(series.mode.unwrap_or(LockMode::LockFree));
    let map = make_map(series.structure, cfg.key_range);
    let mut m = run_experiment(&*map, cfg);
    drop(map);
    flock_epoch::flush_all();
    flock_core::set_lock_mode(LockMode::LockFree);
    // The series label, so lf/bl rows are distinguishable in reports.
    m.name = series.label();
    m
}

/// The one parameter a panel sweeps, with the values it takes at a scale
/// where they depend on it; every other parameter comes from the base.
#[derive(Debug, Clone, Copy)]
pub enum Axis {
    /// Thread count.
    Threads(fn(&Scale) -> Vec<usize>),
    /// Zipfian α over [`ALPHAS`].
    Alpha,
    /// Update percentage over [`UPDATE_SWEEP`].
    UpdatePercent,
    /// Key range.
    KeyRange(fn(&Scale) -> Vec<u64>),
}

/// One panel of one figure: one CSV file.
#[derive(Debug, Clone, Copy)]
pub struct Panel {
    /// What `figures <figure>` selects: `fig4`…`fig7`.
    pub figure: &'static str,
    /// What `--panel <id>` selects; empty for single-panel figures.
    pub id: &'static str,
    /// Written as `results/<file>.csv`.
    pub file: &'static str,
    /// The lines of the panel; one row per series per sweep point.
    pub series: &'static [Series],
    /// Base thread count.
    pub threads: fn(&Scale) -> usize,
    /// Base key range.
    pub keys: fn(&Scale) -> u64,
    /// Base update percentage.
    pub update_percent: u32,
    /// Base zipfian α.
    pub alpha: f64,
    /// The swept parameter.
    pub sweep: Axis,
    /// RNG seed (one per figure).
    pub seed: u64,
}

/// The zipfian parameters every figure sweeps.
pub const ALPHAS: [f64; 4] = [0.0, 0.75, 0.9, 0.99];
/// The update percentages of Figure 5b/5f.
pub const UPDATE_SWEEP: [u32; 4] = [0, 5, 10, 50];

/// Figure 4: try-lock vs strict lock × blocking/lock-free.
const TRY_VS_STRICT: &[Series] = &[
    Series::bl("leaftree"),
    Series::lf("leaftree"),
    Series::bl("leaftree-strict"),
    Series::lf("leaftree-strict"),
];
/// Figure 5: ours vs two lock-free BSTs and a Bronson-style blocking BST.
const TREES: &[Series] = &[
    Series::bl("leaftree"),
    Series::lf("leaftree"),
    Series::base("natarajan"),
    Series::base("ellen"),
    Series::base("bronson_style_bst"),
];
/// Figure 6: the other sets, and the Srivastava-style blocking (a,b)-tree.
const SETS: &[Series] = &[
    Series::bl("arttree"),
    Series::lf("arttree"),
    Series::bl("leaftreap"),
    Series::lf("leaftreap"),
    Series::bl("hashtable"),
    Series::lf("hashtable"),
    Series::bl("abtree"),
    Series::lf("abtree"),
    Series::base("srivastava_abtree"),
];
/// Figure 7: Harris's list (two variants) vs our singly and doubly linked.
const LISTS: &[Series] = &[
    Series::base("harris_list"),
    Series::base("harris_list_opt"),
    Series::bl("lazylist"),
    Series::lf("lazylist"),
    Series::bl("dlist"),
    Series::lf("dlist"),
];
/// The paper's evaluation. Expected shapes: Figure 4, try-lock ≥ strict
/// lock everywhere, the gap growing with α, in both modes; Figures 5–7,
/// lock-free mode tracks the CAS-based baselines and the blocking lines
/// collapse once oversubscribed.
#[rustfmt::skip]
pub const PANELS: [Panel; 13] = {
    const FULL: fn(&Scale) -> usize = |s| s.full_threads;
    const OVERSUB: fn(&Scale) -> usize = |s| s.oversub_threads;
    const LARGE: fn(&Scale) -> u64 = |s| s.large_range;
    const SMALL: fn(&Scale) -> u64 = |_| 100_000;
    const LIST: fn(&Scale) -> u64 = |_| 100;
    const THREADS: Axis = Axis::Threads(|s| s.thread_sweep.clone());
    const SIZES: Axis = Axis::KeyRange(|s| s.size_sweep.clone());
    const LIST_SIZES: Axis = Axis::KeyRange(|_| vec![100, 1_000, 10_000]);
    use Axis::{Alpha, UpdatePercent};
    // What most panels share: all hardware threads, the large key range,
    // 50% updates, α = 0.75. Every row names what it sweeps.
    const P: Panel = Panel {
        figure: "", id: "", file: "", series: &[], seed: 0, sweep: Alpha,
        threads: FULL, keys: LARGE, update_percent: 50, alpha: 0.75,
    };
    [
        Panel { figure: "fig4", id: "",  file: "fig4_try_vs_strict",       series: TRY_VS_STRICT, seed: 4, sweep: Alpha, keys: SMALL, ..P },
        Panel { figure: "fig5", id: "a", file: "fig5a_large_thread_sweep", series: TREES, seed: 5, sweep: THREADS, ..P },
        Panel { figure: "fig5", id: "b", file: "fig5b_large_update_sweep", series: TREES, seed: 5, sweep: UpdatePercent, ..P },
        Panel { figure: "fig5", id: "c", file: "fig5c_large_zipf_sweep",   series: TREES, seed: 5, sweep: Alpha, ..P },
        Panel { figure: "fig5", id: "d", file: "fig5d_large_zipf_oversub", series: TREES, seed: 5, sweep: Alpha, threads: OVERSUB, ..P },
        Panel { figure: "fig5", id: "e", file: "fig5e_small_thread_sweep", series: TREES, seed: 5, sweep: THREADS, keys: SMALL, ..P },
        Panel { figure: "fig5", id: "f", file: "fig5f_small_update_sweep", series: TREES, seed: 5, sweep: UpdatePercent, keys: SMALL, ..P },
        Panel { figure: "fig5", id: "g", file: "fig5g_small_zipf_oversub", series: TREES, seed: 5, sweep: Alpha, threads: OVERSUB, keys: SMALL, update_percent: 5, ..P },
        Panel { figure: "fig5", id: "h", file: "fig5h_size_sweep_oversub", series: TREES, seed: 5, sweep: SIZES, threads: OVERSUB, update_percent: 5, ..P },
        Panel { figure: "fig6", id: "a", file: "fig6a_sets_thread_sweep",  series: SETS,  seed: 6, sweep: THREADS, ..P },
        Panel { figure: "fig6", id: "b", file: "fig6b_sets_zipf_oversub",  series: SETS,  seed: 6, sweep: Alpha, threads: OVERSUB, ..P },
        Panel { figure: "fig7", id: "a", file: "fig7a_list_size_sweep",    series: LISTS, seed: 7, sweep: LIST_SIZES, update_percent: 5, ..P },
        Panel { figure: "fig7", id: "b", file: "fig7b_list_thread_sweep",  series: LISTS, seed: 7, sweep: THREADS, keys: LIST, update_percent: 5, ..P },
    ]
};

/// One measurement to take: a series of a panel at one sweep point.
#[derive(Debug, Clone)]
pub struct Point {
    /// The panel (and so the CSV file) the row belongs to.
    pub panel: &'static Panel,
    /// The series measured.
    pub series: Series,
    /// The configuration measured under.
    pub cfg: Config,
}

/// Expand [`PANELS`] at `scale`: panels in table order, within a panel one
/// row per series (inner) per sweep point (outer) — the CSV row order.
pub fn plan(scale: &Scale) -> Vec<Point> {
    let mut points = Vec::new();
    for panel in &PANELS {
        let base = Config {
            threads: (panel.threads)(scale),
            key_range: (panel.keys)(scale),
            update_percent: panel.update_percent,
            zipf_alpha: panel.alpha,
            run_duration: scale.duration,
            repeats: scale.repeats,
            sparsify_keys: false,
            seed: panel.seed,
        };
        let mut swept = Vec::new();
        let mut at = |set: &dyn Fn(&mut Config)| {
            let mut cfg = base.clone();
            set(&mut cfg);
            swept.push(cfg);
        };
        match panel.sweep {
            Axis::Threads(values) => values(scale).iter().for_each(|&t| at(&|c| c.threads = t)),
            Axis::Alpha => ALPHAS.iter().for_each(|&a| at(&|c| c.zipf_alpha = a)),
            Axis::UpdatePercent => UPDATE_SWEEP
                .iter()
                .for_each(|&u| at(&|c| c.update_percent = u)),
            Axis::KeyRange(values) => values(scale).iter().for_each(|&r| at(&|c| c.key_range = r)),
        }
        for cfg in swept {
            for &series in panel.series {
                // The paper hashes the ART's keys so the trie does not
                // benefit from dense packing.
                let mut cfg = cfg.clone();
                cfg.sparsify_keys = series.structure == "arttree";
                points.push(Point { panel, series, cfg });
            }
        }
    }
    points
}

/// Measure `points` in order, echoing CSV rows to stdout as they finish and
/// writing `<dir>/<file>.csv` as each panel completes. Points of one panel
/// must be adjacent, as [`plan`] leaves them.
pub fn execute(points: &[Point], dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for rows in points.chunk_by(|a, b| a.panel.file == b.panel.file) {
        let file = rows[0].panel.file;
        println!("# {file}");
        println!("{}", Measurement::csv_header());
        let mut csv = format!("{}\n", Measurement::csv_header());
        for point in rows {
            let row = run_point(point.series, &point.cfg).csv_row();
            println!("{row}");
            csv.push_str(&row);
            csv.push('\n');
        }
        std::fs::write(dir.join(format!("{file}.csv")), csv)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_conformance::{exclusive, fat_value};

    /// The registry at the fat-value shape: four-word values, heap-indirected
    /// through the epoch-managed `ValueRepr` strategy.
    fn make_map_fat(
        structure: &str,
        key_range: u64,
    ) -> Box<dyn Map<u64, flock_api::Indirect<[u64; 4]>>> {
        registry!(structure, key_range)
    }

    /// Every registry name; between them the figures plot all 14.
    fn registry() -> Vec<&'static str> {
        let mut plotted: Vec<_> = (PANELS.iter().flat_map(|p| p.series))
            .map(|s| s.structure)
            .collect();
        plotted.sort_unstable();
        plotted.dedup();
        let mut names: Vec<_> = FLOCK_STRUCTURES.into_iter().chain(BASELINES).collect();
        names.sort_unstable();
        assert_eq!(plotted, names);
        names
    }

    #[test]
    fn registry_constructs_every_structure() {
        exclusive(|| {
            for name in registry() {
                let m = make_map(name, 1024);
                assert_eq!(m.name(), name);
                assert!(m.insert(1, 2), "{name}");
                assert_eq!(m.get(1), Some(2), "{name}");
                assert!(m.remove(1), "{name}");
                // And the fat-value instantiation of the same structure.
                let f = make_map_fat(name, 1024);
                assert_eq!(f.name(), name, "(fat)");
                assert!(f.insert(1, fat_value(2)), "{name} (fat)");
                assert_eq!(f.get(1), Some(fat_value(2)), "{name} (fat)");
                assert!(f.remove(1), "{name} (fat)");
            }
            flock_epoch::flush_all();
        });
    }

    /// Every registry structure (all 7 Flock structures and all 5
    /// baselines, at both the paper shape and the fat shape) updates a
    /// present key in place and refuses an absent one. That `update` is
    /// native, not the trait's remove-then-insert default, is what each
    /// structure's conformance suite checks: its `update_atomicity*` tests
    /// fail on the default's absence window.
    #[test]
    fn composite_update_unreachable_from_registry() {
        exclusive(|| {
            for name in registry() {
                let m = make_map(name, 1024);
                assert!(m.insert(1, 2));
                assert!(m.update(1, 3), "{name}: native update of a present key");
                assert_eq!(m.get(1), Some(3), "{name}");
                assert!(!m.update(9, 1), "{name}: update of an absent key");
                let f = make_map_fat(name, 1024);
                assert!(f.insert(1, fat_value(2)));
                assert!(f.update(1, fat_value(3)), "{name} (fat)");
                assert_eq!(f.get(1), Some(fat_value(3)), "{name} (fat)");
            }
            flock_epoch::flush_all();
        });
    }

    #[test]
    fn series_labels() {
        assert_eq!(Series::lf("leaftree").label(), "leaftree-lf");
        assert_eq!(Series::bl("leaftree").label(), "leaftree-bl");
        assert_eq!(Series::base("ellen").label(), "ellen");
    }

    #[test]
    fn run_point_smoke() {
        let cfg = Config {
            threads: 2,
            key_range: 512,
            run_duration: Duration::from_millis(20),
            repeats: 1,
            ..Config::default()
        };
        // `run_point` flips the process-global lock mode, so nothing else
        // may run maps meanwhile.
        exclusive(|| {
            for s in [
                Series::lf("leaftree"),
                Series::bl("leaftree"),
                Series::base("natarajan"),
            ] {
                let m = run_point(s, &cfg);
                assert!(m.mops_mean > 0.0, "{}", m.name);
                assert_eq!(m.name, s.label());
            }
            assert_eq!(flock_core::lock_mode(), LockMode::LockFree);
        });
    }

    /// One line per panel: its file and the values each configuration column
    /// takes, in row order; before it, its series, when they change.
    fn shape(points: &[Point]) -> String {
        let mut out = String::new();
        let mut series = String::new();
        for rows in points.chunk_by(|a, b| a.panel.file == b.panel.file) {
            let n = rows[0].panel.series.len();
            let labels: Vec<String> = rows[..n].iter().map(|p| p.series.label()).collect();
            if series != labels.join(" ") {
                series = labels.join(" ");
                out += &format!("series {series}\n");
            }
            let column = |col: fn(&Config) -> String| {
                let mut values: Vec<String> = rows.iter().map(|p| col(&p.cfg)).collect();
                values.dedup();
                values.join(" ")
            };
            out += &format!(
                "{} | threads {} | keys {} | update {} | alpha {}\n",
                rows[0].panel.file,
                column(|c| c.threads.to_string()),
                column(|c| c.key_range.to_string()),
                column(|c| c.update_percent.to_string()),
                column(|c| c.zipf_alpha.to_string()),
            );
            // Row order: every series at one sweep point, then the next point.
            for (i, p) in rows.iter().enumerate() {
                assert_eq!(p.series.label(), labels[i % n]);
                let point = &rows[i - i % n].cfg;
                assert_eq!(p.cfg.threads, point.threads);
                assert_eq!(p.cfg.key_range, point.key_range);
                assert_eq!(p.cfg.update_percent, point.update_percent);
                assert_eq!(p.cfg.zipf_alpha, point.zipf_alpha);
                assert_eq!(p.cfg.sparsify_keys, p.series.structure == "arttree");
            }
        }
        out
    }

    /// The shape of the figure CSVs — file names, row order, the five
    /// configuration columns — as the six per-figure binaries that this table
    /// replaced in PR 16 wrote them at the quick scale on a two-core host.
    #[test]
    fn plan_shape() {
        let two_cores = Scale {
            thread_sweep: vec![1, 2, 4, 8],
            full_threads: 2,
            oversub_threads: 4,
            ..Scale::quick()
        };
        assert_eq!(
            shape(&plan(&two_cores)),
            "\
series leaftree-bl leaftree-lf leaftree-strict-bl leaftree-strict-lf
fig4_try_vs_strict | threads 2 | keys 100000 | update 50 | alpha 0 0.75 0.9 0.99
series leaftree-bl leaftree-lf natarajan ellen bronson_style_bst
fig5a_large_thread_sweep | threads 1 2 4 8 | keys 1000000 | update 50 | alpha 0.75
fig5b_large_update_sweep | threads 2 | keys 1000000 | update 0 5 10 50 | alpha 0.75
fig5c_large_zipf_sweep | threads 2 | keys 1000000 | update 50 | alpha 0 0.75 0.9 0.99
fig5d_large_zipf_oversub | threads 4 | keys 1000000 | update 50 | alpha 0 0.75 0.9 0.99
fig5e_small_thread_sweep | threads 1 2 4 8 | keys 100000 | update 50 | alpha 0.75
fig5f_small_update_sweep | threads 2 | keys 100000 | update 0 5 10 50 | alpha 0.75
fig5g_small_zipf_oversub | threads 4 | keys 100000 | update 5 | alpha 0 0.75 0.9 0.99
fig5h_size_sweep_oversub | threads 4 | keys 1000 10000 100000 1000000 | update 5 | alpha 0.75
series arttree-bl arttree-lf leaftreap-bl leaftreap-lf hashtable-bl hashtable-lf abtree-bl abtree-lf \
srivastava_abtree
fig6a_sets_thread_sweep | threads 1 2 4 8 | keys 1000000 | update 50 | alpha 0.75
fig6b_sets_zipf_oversub | threads 4 | keys 1000000 | update 50 | alpha 0 0.75 0.9 0.99
series harris_list harris_list_opt lazylist-bl lazylist-lf dlist-bl dlist-lf
fig7a_list_size_sweep | threads 2 | keys 100 1000 10000 | update 5 | alpha 0.75
fig7b_list_thread_sweep | threads 1 2 4 8 | keys 100 | update 5 | alpha 0.75
"
        );
        // Figure 5h is the one panel whose sweep points change with --paper.
        let paper = shape(&plan(&Scale::paper()));
        assert!(
            paper.contains("keys 10000 100000 1000000 10000000 100000000 | update 5"),
            "{paper}"
        );
    }
}
