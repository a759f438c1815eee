//! From window records to named metrics, and how they are printed: every
//! statistic is a median over windows (a ratio: the median of the per-pair
//! ratios; a percentile: the percentile of each window, then the median),
//! shown with the spread between its quartiles and the number of windows.

use std::collections::BTreeMap;

use crate::engine::{RunData, WindowRecord};
use crate::json::quote;
use crate::metrics::MetricDef;
use crate::stats::{Summary, summarize};
use crate::tape::Class;
use crate::trace::Mode;

/// A measured value, and the window series it is the median of, if any.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    pub value: f64,
    pub over: Option<Summary>,
}

impl From<f64> for Value {
    fn from(value: f64) -> Self {
        Self { value, over: None }
    }
}

impl From<Summary> for Value {
    fn from(s: Summary) -> Self {
        Self {
            value: s.median,
            over: Some(s),
        }
    }
}

/// Measured values by metric name.
pub type Values = BTreeMap<String, Value>;

/// The measured (non-warm-up) windows of one mode and tracing state.
fn windows(run: &RunData, mode: Mode, traced: bool) -> impl Iterator<Item = &WindowRecord> {
    run.windows
        .iter()
        .filter(move |w| w.pair.is_some() && w.mode == mode && w.traced == traced)
}

fn median_of(it: impl Iterator<Item = f64>) -> Summary {
    summarize(&it.collect::<Vec<f64>>())
}

fn total(it: impl Iterator<Item = u64>) -> u64 {
    it.sum()
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Per-pair ratios of lock-free to blocking throughput, untraced pairs.
fn pair_ratios(run: &RunData) -> Vec<f64> {
    windows(run, Mode::LockFree, false)
        .filter_map(|lf| {
            let bl = windows(run, Mode::Blocking, false).find(|bl| bl.pair == lf.pair)?;
            (bl.mops > 0.0).then(|| lf.mops / bl.mops)
        })
        .collect()
}

/// The window-derived end-to-end metrics; the caller adds memory and
/// set-up time.
pub fn end_to_end(run: &RunData) -> Values {
    let mut v = Values::new();
    let lf = || windows(run, Mode::LockFree, false);
    let bl = || windows(run, Mode::Blocking, false);
    v.insert(
        "throughput_lf_mops".into(),
        median_of(lf().map(|w| w.mops)).into(),
    );
    v.insert(
        "throughput_bl_mops".into(),
        median_of(bl().map(|w| w.mops)).into(),
    );
    v.insert("lf_bl_ratio".into(), summarize(&pair_ratios(run)).into());
    let p50 = |pick: fn(&WindowRecord) -> f64| median_of(lf().map(pick));
    v.insert("read_p50_lf_ns".into(), p50(|w| w.read_ns[0]).into());
    v.insert("write_p50_lf_ns".into(), p50(|w| w.write_ns[0]).into());
    v
}

/// The spread of the untraced window throughputs as a share of their
/// median, the wider of the two modes.
pub fn window_iqr_share(run: &RunData) -> f64 {
    [Mode::LockFree, Mode::Blocking]
        .map(|m| median_of(windows(run, m, false).map(|w| w.mops)).iqr_share())
        .into_iter()
        .fold(0.0, f64::max)
}

/// Throughput of each warm-up window as a share of its mode's measured
/// median: how fast the run ramped.
pub fn ramp(run: &RunData, mode: Mode) -> Vec<f64> {
    let steady = median_of(windows(run, mode, false).map(|w| w.mops)).median;
    run.windows
        .iter()
        .filter(|w| w.pair.is_none() && w.mode == mode)
        .map(|w| if steady > 0.0 { w.mops / steady } else { 0.0 })
        .collect()
}

/// The traced per-layer metrics of one workload run (ledger rows and
/// harness calibrations are added by the caller).
pub fn traced(run: &RunData) -> Values {
    let mut v = Values::new();
    let measured = || run.windows.iter().filter(|w| w.pair.is_some());
    for c in Class::ALL {
        let i = c as usize;
        let prefix = format!("{}.{}", c.layer(), c.name());
        let lf = || windows(run, Mode::LockFree, true);
        let bl = || windows(run, Mode::Blocking, true);
        let time = total(lf().map(|w| w.tally.call_ns[i]));
        let whole = total(lf().map(|w| w.tally.elapsed_ns));
        v.insert(format!("{prefix}.time_share_lf"), share(time, whole).into());
        let useful = total(measured().map(|w| w.tally.useful[i]));
        let attempts = total(measured().map(|w| match c {
            Class::Transfer => w.tally.lock_calls,
            _ => w.tally.ops[i],
        }));
        v.insert(format!("{prefix}.ok_share"), share(useful, attempts).into());
        let tail = |w: &WindowRecord| (w.tally.ops[i] > 0).then_some(w.tail_ns[i]);
        v.insert(
            format!("{prefix}.p999_lf_ns"),
            median_of(lf().filter_map(tail)).into(),
        );
        v.insert(
            format!("{prefix}.p99_bl_ns"),
            median_of(bl().filter_map(tail)).into(),
        );
    }
    for mode in [Mode::LockFree, Mode::Blocking] {
        let of_mode = || measured().filter(move |w| w.mode == mode);
        let busy = total(of_mode().map(|w| w.tally.lock_busy));
        let calls = total(of_mode().map(|w| w.tally.lock_calls));
        v.insert(
            format!("core.busy_share_{}", mode.tag()),
            share(busy, calls).into(),
        );
    }
    v.insert("core.stall_count".into(), (run.stalls as f64).into());

    // Collector and pool, from the snapshots around each measured window.
    // Retires are counted over the blocking windows, where only the
    // structure's own objects are retired; a lock-free window also retires
    // every descriptor that was helped (about 5 per 1000 operations on
    // `hot-update`, which retires nothing else), see the windows table.
    let bl = || measured().filter(|w| w.mode == Mode::Blocking);
    let retired = total(bl().map(|w| w.after.retired - w.before.retired));
    let bl_ops = total(bl().map(|w| w.total_ops));
    v.insert(
        "epoch.retired_per_kop".into(),
        (share(retired, bl_ops) * 1e3).into(),
    );
    let lag = median_of(measured().map(|w| w.after.retired.saturating_sub(w.after.freed) as f64));
    v.insert("epoch.reclaim_lag_objs".into(), lag.into());
    let peak = measured().map(|w| w.after.bag_bytes).max().unwrap_or(0);
    v.insert("epoch.retire_bag_peak_bytes".into(), (peak as f64).into());
    let advances = median_of(
        measured().map(|w| (w.after.epoch - w.before.epoch) as f64 * 1e9 / w.wall_ns.max(1) as f64),
    );
    v.insert("epoch.advances_per_s".into(), advances.into());
    let hits = total(measured().map(|w| w.after.magazine_hits - w.before.magazine_hits));
    let misses = total(measured().map(|w| w.after.magazine_misses - w.before.magazine_misses));
    v.insert(
        "epoch.magazine_hit_share".into(),
        share(hits, hits + misses).into(),
    );
    let refills = total(measured().map(|w| w.after.global_refills - w.before.global_refills));
    let ops = total(measured().map(|w| w.total_ops));
    v.insert(
        "epoch.global_refills_per_mop".into(),
        (share(refills, ops) * 1e6).into(),
    );
    let pages = run.windows.last().map_or(0, |w| w.after.pages_live);
    v.insert("epoch.pool_pages_live".into(), (pages as f64).into());

    // The 99th percentiles of the sampled latencies, from the untraced
    // windows: end-to-end by nature, listed per layer because no bound the
    // contract allows holds them on a shared host (README, "Noise").
    let untraced_lf = || windows(run, Mode::LockFree, false);
    let read_p99 = median_of(untraced_lf().map(|w| w.read_ns[1]));
    let write_p99 = median_of(untraced_lf().map(|w| w.write_ns[1]));
    v.insert("read_p99_lf_ns".into(), read_p99.into());
    v.insert("write_p99_lf_ns".into(), write_p99.into());

    let untraced = median_of(untraced_lf().map(|w| w.mops)).median;
    let with_trace = median_of(windows(run, Mode::LockFree, true).map(|w| w.mops)).median;
    let overhead = if untraced > 0.0 {
        1.0 - with_trace / untraced
    } else {
        0.0
    };
    v.insert("harness.trace_overhead_share".into(), overhead.into());
    v.insert(
        "harness.window_iqr_share".into(),
        window_iqr_share(run).into(),
    );
    v.insert("harness.steal_share".into(), run.steal_share.into());
    v
}

/// Pick the listed metrics out of `values`, in the manifest's order.
/// Panics if a value was measured under a name the manifest does not list.
pub fn listed<'a>(defs: &'a [MetricDef], values: &Values) -> Vec<(&'a MetricDef, Value)> {
    if let Some(stray) = values.keys().find(|k| !defs.iter().any(|d| &d.name == *k)) {
        panic!("metric {stray} is measured but not listed in the manifest");
    }
    defs.iter()
        .filter_map(|d| values.get(&d.name).map(|v| (d, *v)))
        .collect()
}

/// One line per metric: name, value, unit, and the window spread behind it.
pub fn print_metrics(metrics: &[(&MetricDef, Value)]) {
    for (d, v) in metrics {
        let over = v.over.map_or(String::new(), |s| {
            format!("  (IQR {:.1}% of median, n={})", s.iqr_share() * 100.0, s.n)
        });
        // Set-up of the account workloads takes microseconds.
        let digits = if v.value.abs() < 1e-3 { 9 } else { 6 };
        println!(
            "  {:<34} {:>16.digits$} {:<6}{over}",
            d.name, v.value, d.unit
        );
    }
}

/// The result line: the last line of standard output.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&MetricDef, Value)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&d.name),
                v.value,
                quote(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
