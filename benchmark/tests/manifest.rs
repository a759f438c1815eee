//! The benchmark is built like the crates it measures, from what the repo
//! holds and nothing else, and its manifest is the one its code generates.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use flock_benchmark::json::Json;
use flock_benchmark::metrics;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `key = value` lines of one table of a Cargo manifest.
fn table(manifest: &str, header: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (k, v) = l
                .split_once('=')
                .unwrap_or_else(|| panic!("not key = value: {l}"));
            (k.trim().to_string(), v.trim().to_string())
        })
        .collect()
}

#[test]
fn release_profile_repeats_the_root_manifest() {
    let root = table(&read("../Cargo.toml"), "[profile.release]");
    let ours = table(&read("Cargo.toml"), "[profile.release]");
    assert!(
        !root.is_empty(),
        "the root manifest has no [profile.release]"
    );
    assert_eq!(
        ours, root,
        "benchmark/Cargo.toml and Cargo.toml build differently"
    );
    assert_eq!(ours.get("lto").map(String::as_str), Some("true"));
    assert_eq!(ours.get("codegen-units").map(String::as_str), Some("1"));
}

#[test]
fn depends_on_the_five_crates_by_path_and_on_no_registry() {
    let deps = table(&read("Cargo.toml"), "[dependencies]");
    let names: Vec<&str> = deps.keys().map(String::as_str).collect();
    assert_eq!(
        names,
        [
            "flock-api",
            "flock-core",
            "flock-ds",
            "flock-epoch",
            "flock-sync"
        ]
    );
    for (name, spec) in &deps {
        assert!(
            spec.contains(&format!("path = \"../crates/{name}\"")),
            "{name}: {spec}"
        );
    }
    let lock = read("Cargo.lock");
    assert!(
        !lock.contains("source ="),
        "Cargo.lock names a registry or git source"
    );
}

#[test]
fn build_and_output_directories_are_ignored() {
    let ignore = read(".gitignore");
    for dir in ["/target/", "/out/"] {
        assert!(
            ignore.lines().any(|l| l.trim() == dir),
            ".gitignore lacks {dir}"
        );
    }
}

#[test]
fn committed_manifest_is_the_generated_one() {
    let committed = read("../BENCHMARK.json");
    assert_eq!(
        committed,
        metrics::manifest(),
        "BENCHMARK.json is stale: regenerate it with `flock-benchmark manifest`"
    );
    let j = Json::parse(&committed).unwrap();
    let strings = |key: &str| -> Vec<String> {
        j.get(key)
            .unwrap()
            .items()
            .iter()
            .map(|s| s.as_str().unwrap().to_string())
            .collect()
    };
    // Every path the command names lies under `paths`.
    let paths = strings("paths");
    assert_eq!(paths, ["benchmark"]);
    for word in strings("command") {
        assert!(!word.starts_with('/') && !word.contains(".."), "{word}");
        if word.contains('/') {
            assert!(
                paths.iter().any(|p| word.starts_with(&format!("{p}/"))),
                "{word}"
            );
        }
    }
    assert_eq!(
        j.get("run_seconds").and_then(Json::as_f64),
        Some(metrics::RUN_SECONDS as f64)
    );
}
