//! `--smoke` end to end through the binary: every workload, traced and
//! untraced, audits on; the names it prints are the names `BENCHMARK.json`
//! lists, no more and no fewer; host truth is in the output; and the
//! workloads do what their names say.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use flock_benchmark::json::Json;
use flock_benchmark::workload::WORKLOADS;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flock-benchmark"))
}

fn names_listed(manifest: &Json, key: &str) -> Vec<String> {
    manifest
        .get(key)
        .unwrap()
        .items()
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

fn metric(line: &Json, name: &str) -> f64 {
    let m = line.get("metrics").unwrap().get(name);
    m.unwrap_or_else(|| panic!("{name} missing"))
        .get("value")
        .and_then(Json::as_f64)
        .unwrap()
}

#[test]
fn smoke_prints_exactly_the_listed_metrics_and_passes_every_audit() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let out = bin()
        .arg("--smoke")
        .arg("--out")
        .arg(&out_dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let manifest_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let manifest = Json::parse(&fs::read_to_string(manifest_path).unwrap()).unwrap();
    let end_to_end = names_listed(&manifest, "end_to_end");
    let per_layer = names_listed(&manifest, "per_layer");
    let gated: Vec<String> = WORKLOADS
        .iter()
        .filter(|w| w.gated)
        .map(|w| w.name.to_string())
        .collect();
    assert_eq!(names_listed(&manifest, "workloads"), gated);

    // Two result lines per workload, untraced first, in workload order.
    let lines: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| Json::parse(l).unwrap())
        .collect();
    assert_eq!(lines.len(), 2 * WORKLOADS.len());
    for (i, line) in lines.iter().enumerate() {
        let (spec, traced) = (&WORKLOADS[i / 2], i % 2 == 1);
        let keys: Vec<&str> = line.members().iter().map(|m| m.0.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("correct").and_then(Json::as_bool),
            Some(true),
            "{}",
            spec.name
        );
        assert_eq!(
            line.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{}",
            spec.name
        );
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let printed: Vec<String> = line
            .get("metrics")
            .unwrap()
            .members()
            .iter()
            .map(|m| m.0.clone())
            .collect();
        let listed = if traced { &per_layer } else { &end_to_end };
        assert_eq!(&printed, listed, "{} trace {}", spec.name, u8::from(traced));
        for (name, m) in line.get("metrics").unwrap().members() {
            assert!(
                m.get("value").and_then(Json::as_f64).unwrap().is_finite(),
                "{name}"
            );
            assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
        }
        if traced {
            // Workloads do what they say.
            let stalls = metric(line, "core.stall_count");
            assert_eq!(
                stalls > 0.0,
                spec.stall_every != 0,
                "{}: {stalls} stalls",
                spec.name
            );
            let retired = metric(line, "epoch.retired_per_kop");
            match spec.name {
                "churn" => assert!(retired > 0.0, "churn retired nothing"),
                "hot-update" => assert!(retired < 1.0, "hot-update retired {retired}/kop"),
                _ => {}
            }
            for c in spec.mix {
                let share = format!("{}.{}.time_share_lf", c.0.layer(), c.0.name());
                assert!(metric(line, &share) > 0.0, "{}: {share} is 0", spec.name);
            }
        } else {
            // Memory is left out: the smoke runs share one process, so a
            // later one starts on the pools and garbage of the earlier ones.
            for name in end_to_end.iter().filter(|n| *n != "mem_bytes_per_key") {
                assert!(metric(line, name) > 0.0, "{}: {name} is 0", spec.name);
            }
        }
    }

    // Host truth and audits are in every run's output.
    for needle in [
        "  host: ",
        "workers, steal share",
        "window IQR share",
        "warm-up ramp lf",
        "audit after the last bl window",
    ] {
        assert_eq!(stdout.matches(needle).count(), lines.len(), "{needle:?}");
    }

    // The traced runs wrote their spans, parents included, and windows.
    for spec in &WORKLOADS {
        let spans = fs::read_to_string(out_dir.join(format!("trace-{}.csv", spec.name))).unwrap();
        let mut rows = spans.lines();
        assert_eq!(
            rows.next(),
            Some("workload,mode,window,worker,class,start_ns,dur_ns,ok")
        );
        assert!(
            spans.lines().any(|l| l.contains(",window,")),
            "{}: no parent span",
            spec.name
        );
        assert!(rows.count() > 100, "{}: hardly any spans", spec.name);
        let windows =
            fs::read_to_string(out_dir.join(format!("windows-{}.csv", spec.name))).unwrap();
        assert!(windows.lines().count() > 8, "{}: windows table", spec.name);
    }
}

#[test]
fn more_workers_than_cpus_are_refused() {
    let out = bin()
        .args([
            "--workload",
            "churn",
            "--seconds",
            "1",
            "--workers",
            "100000",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a refused run printed a result");
    assert!(String::from_utf8_lossy(&out.stderr).contains("time-slice"));
}

#[test]
fn unknown_workloads_and_options_are_usage_errors() {
    for args in [&["--workload", "nope"][..], &["--frobnicate"], &[]] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
