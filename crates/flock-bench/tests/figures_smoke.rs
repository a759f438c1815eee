//! End to end through `plan` → `execute` → CSV on disk, at 5 ms a run.

use std::path::Path;
use std::time::Duration;

use flock_bench::{Scale, execute, plan};

const HEADER: &str =
    "structure,threads,key_range,update_percent,zipf_alpha,mops,stddev,max_min_ratio,jain";

#[test]
fn one_panel_writes_its_csv() {
    let scale = Scale {
        thread_sweep: vec![1, 3],
        duration: Duration::from_millis(5),
        repeats: 1,
        ..Scale::quick()
    };
    let mut points = plan(&scale);
    points.retain(|p| p.panel.file == "fig7b_list_thread_sweep");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_smoke");
    // `execute` flips the process-global lock mode between rows.
    flock_conformance::exclusive(|| execute(&points, &dir).expect("write the panel's CSV"));

    let csv = std::fs::read_to_string(dir.join("fig7b_list_thread_sweep.csv")).expect("the CSV");
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines[0], HEADER);
    // Two sweep points × six series, each row led by its configuration.
    assert_eq!(lines.len(), 1 + 12, "{csv}");
    assert!(lines[1].starts_with("harris_list,1,100,5,0.75,"), "{csv}");
    assert!(lines[12].starts_with("dlist-lf,3,100,5,0.75,"), "{csv}");
}
