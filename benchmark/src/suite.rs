//! `suite`: run every workload several times, each run a process of its
//! own, and judge the repeats against the benchmark's own bounds — the tool
//! the agreement between two sets of runs of the same code is checked with.
//!
//! `--repeat R` makes R sets of `--runs N` runs each (run i of every set
//! uses seed `seed + i`). Per workload and end-to-end metric it prints each
//! set's median, its spread between the quartiles as a share of the median
//! (N >= 2), and how much worse the last set's median is than the first's;
//! a row passes if that and every spread stay within the metric's bound
//! (set-up time's spread is shown but not judged).

use std::process::Command;

use crate::json::Json;
use crate::metrics::{self, MetricDef};
use crate::stats::summarize;
use crate::workload::Spec;

pub struct SuiteOptions {
    pub seed: u64,
    pub seconds: u64,
    pub repeat: usize,
    pub runs: usize,
    pub workloads: Vec<&'static Spec>,
}

/// Run one workload untraced in a child process; its end-to-end metrics by
/// name.
fn run_child(spec: &Spec, seed: u64, seconds: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", spec.name, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let j = Json::parse(line).map_err(|e| format!("{}: no result line ({e})", spec.name))?;
    if !out.status.success() || j.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{}: run failed: {line}", spec.name));
    }
    let metrics = j.get("metrics").ok_or("result line has no metrics")?;
    Ok(metrics
        .members()
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if def.higher_is_better {
        -change
    } else {
        change
    }
}

/// Returns whether every row passed. Sets run one after the other, each
/// over all workloads, so that two sets of one workload lie minutes apart,
/// as a parent and a change would.
pub fn run(o: &SuiteOptions) -> Result<bool, String> {
    let defs = metrics::end_to_end();
    // results[set][workload][metric] = the metric's value in each run
    let mut results = Vec::new();
    let mut failed_runs = 0;
    for set in 1..=o.repeat {
        let mut of_set = Vec::new();
        for spec in &o.workloads {
            let mut series = vec![Vec::new(); defs.len()];
            for i in 0..o.runs {
                // A failed run is reported and fails the suite, but does not
                // throw the other runs away.
                let got = match run_child(spec, o.seed + i as u64, o.seconds) {
                    Ok(got) => got,
                    Err(e) => {
                        eprintln!("  {e}");
                        failed_runs += 1;
                        continue;
                    }
                };
                for (d, values) in defs.iter().zip(series.iter_mut()) {
                    let v = got.iter().find(|(k, _)| *k == d.name);
                    values.push(v.ok_or(format!("{}: {} missing", spec.name, d.name))?.1);
                }
                eprintln!(
                    "  set {set}/{} {} run {}/{}",
                    o.repeat,
                    spec.name,
                    i + 1,
                    o.runs
                );
            }
            of_set.push(series);
        }
        results.push(of_set);
    }
    let mut all_pass = failed_runs == 0;
    if failed_runs > 0 {
        println!("{failed_runs} runs failed, see above");
    }
    for (w, spec) in o.workloads.iter().enumerate() {
        println!("{}:", spec.name);
        for (m, d) in defs.iter().enumerate() {
            let bound = d.bound.expect("end-to-end metrics have bounds");
            let sums: Vec<_> = results.iter().map(|set| summarize(&set[w][m])).collect();
            let worse = worsening(d, sums[0].median, sums[sums.len() - 1].median);
            let spread = sums.iter().map(|s| s.iqr_share()).fold(0.0, f64::max);
            let pass = worse <= bound && (d.name == "setup_s" || o.runs < 2 || spread <= bound);
            all_pass &= pass;
            let medians: Vec<String> = sums
                .iter()
                .map(|s| {
                    if s.median.abs() < 1e-3 {
                        format!("{:.3e}", s.median)
                    } else {
                        format!("{:.4}", s.median)
                    }
                })
                .collect();
            println!(
                "  {:<20} {:<6} medians {:<28} worse by {:>+7.2}%  spread {:>6.2}%  bound {:>4.0}%  {}",
                d.name,
                d.unit,
                medians.join(" "),
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    Ok(all_pass)
}
