//! The names, units, directions and bounds of every metric, and the
//! `BENCHMARK.json` that is generated from them (`flock-benchmark manifest`),
//! so that what the benchmark prints and what the manifest lists cannot
//! drift apart; `tests/manifest.rs` compares the committed file.

use crate::json::quote;
use crate::tape::Class;
use crate::workload;

/// Seconds one run measures: 32 pairs of 250 ms windows. With 2 s of
/// warm-up and the set-up builds a run takes about 19 s of wall time, which
/// keeps the 136 runs a driver makes well inside its hour.
pub const RUN_SECONDS: u64 = 16;

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse. Per-layer metrics have none.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, higher_is_better: bool, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        higher_is_better,
        bound,
    }
}

/// Bound of every metric that is a raw speed of the host: the largest the
/// contract allows. On the shared 2-vCPU guest the benchmark was sized on,
/// the same binary's medians differ by 5 to 20 % between runs and drift by
/// 15 to 30 % within a quarter of an hour (README, "Noise"), so a tighter
/// bound would reject unchanged code.
const RAW_SPEED: f64 = 0.25;

/// What a user of the library sees, per workload.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("throughput_lf_mops", "Mop/s", true, Some(RAW_SPEED)),
        def("throughput_bl_mops", "Mop/s", true, Some(RAW_SPEED)),
        // Both modes of a pair see the same host, so their ratio repeats to
        // 2 to 9 %: the number to claim a gain with.
        def("lf_bl_ratio", "x", true, Some(0.15)),
        def("read_p50_lf_ns", "ns", false, Some(RAW_SPEED)),
        def("write_p50_lf_ns", "ns", false, Some(RAW_SPEED)),
        // A byte count of a single-threaded build: it repeats exactly.
        def("mem_bytes_per_key", "B/key", false, Some(0.05)),
        def("setup_s", "s", false, Some(RAW_SPEED)),
    ]
}

/// The ledger rows ([`crate::ledger`]), then the traced per-workload
/// metrics. Names start with the crate layer they measure.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = Vec::new();
    let mut ns = |names: &[&str]| {
        for n in names {
            let unit = if n.ends_with("_us") { "us" } else { "ns" };
            v.push(def(n, unit, false, None));
        }
    };
    ns(&[
        "sync.tagged_cas_ns",
        "sync.ttas_pair_ns",
        "sync.thread_ctx_ns",
        "epoch.pin_unpin_ns",
        "epoch.pin_nested_ns",
        "epoch.alloc_free_ns",
        "epoch.alloc_retire_ns",
        "core.mutable_load_ns",
        "core.mutable_store_ns",
        "core.try_lock_empty_lf_ns",
        "core.try_lock_empty_bl_ns",
        "core.try_lock_pinned_lf_ns",
        "core.load_in_thunk_ns",
        "core.store_in_thunk_ns",
        "core.alloc_retire_in_thunk_ns",
        "core.try_lock_store_lf_ns",
        "core.try_lock_store_bl_ns",
        "core.ledger_residual_ns",
        "core.nested_try_lock_lf_ns",
        "core.nested_try_lock_bl_ns",
        "core.try_with2_lf_ns",
        "core.try_with2_bl_ns",
        "core.read_validated_ns",
        "core.help_acquire_us",
        "ds.hashtable.get_ns",
        "ds.hashtable.update_lf_ns",
        "ds.hashtable.update_bl_ns",
        "ds.hashtable.insert_remove_lf_ns",
        "ds.hashtable.insert_remove_bl_ns",
    ]);
    for tree in ["leaftree", "abtree"] {
        for what in ["get", "insert_remove_lf", "insert_remove_bl", "range64"] {
            ns(&[&format!("ds.{tree}.{what}_ns")]);
        }
    }
    for c in Class::ALL {
        let p = format!("{}.{}", c.layer(), c.name());
        v.push(def(&format!("{p}.time_share_lf"), "share", false, None));
        v.push(def(&format!("{p}.ok_share"), "share", true, None));
        v.push(def(&format!("{p}.p999_lf_ns"), "ns", false, None));
        v.push(def(&format!("{p}.p99_bl_ns"), "ns", false, None));
    }
    v.extend([
        def("read_p99_lf_ns", "ns", false, None),
        def("write_p99_lf_ns", "ns", false, None),
        def("core.busy_share_lf", "share", false, None),
        def("core.busy_share_bl", "share", false, None),
        def("core.stall_count", "count", false, None),
        def("epoch.retired_per_kop", "1/kop", false, None),
        def("epoch.reclaim_lag_objs", "count", false, None),
        def("epoch.retire_bag_peak_bytes", "B", false, None),
        def("epoch.advances_per_s", "1/s", true, None),
        def("epoch.magazine_hit_share", "share", true, None),
        def("epoch.global_refills_per_mop", "1/Mop", false, None),
        def("epoch.pool_pages_live", "pages", false, None),
        def("harness.clock_pair_ns", "ns", false, None),
        def("harness.tape_step_ns", "ns", false, None),
        def("harness.trace_overhead_share", "share", false, None),
        def("harness.window_iqr_share", "share", false, None),
        def("harness.steal_share", "share", false, None),
    ]);
    v
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let metric = |m: &MetricDef| {
        let mut s = format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}",
            quote(&m.name),
            quote(m.unit),
            quote(if m.higher_is_better {
                "higher"
            } else {
                "lower"
            }),
        );
        if let Some(b) = m.bound {
            s += &format!(", \"bound\": {b}");
        }
        s + "}"
    };
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.map(quote).join(", "),
        list(
            workload::gated()
                .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
                .collect()
        ),
        list(end_to_end().iter().map(metric).collect()),
        list(per_layer().iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn manifest_is_well_formed_and_within_the_contract() {
        let text = manifest();
        assert!(text.len() < 64 * 1024);
        let j = Json::parse(&text).unwrap();
        let keys: Vec<&str> = j.members().iter().map(|m| m.0.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(j.get("workloads").unwrap().items().len(), 5);
        assert_eq!(j.get("end_to_end").unwrap().items().len(), 7);
        let layers = j.get("per_layer").unwrap().items();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut names: Vec<&str> = ["end_to_end", "per_layer", "workloads"]
            .iter()
            .flat_map(|k| j.get(k).unwrap().items())
            .map(|m| m.get("name").unwrap().as_str().unwrap())
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for m in end_to_end().iter().chain(&per_layer()) {
            assert!(m.unit.len() <= 16);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(
            end_to_end()
                .iter()
                .any(|m| m.name == "setup_s" && m.unit == "s")
        );
    }
}
