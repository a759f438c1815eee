//! `figures` — run the paper's evaluation, writing `results/<panel>.csv`.
//!
//! ```sh
//! figures                   # every figure
//! figures fig5              # one figure: fig4, fig5, fig6, fig7
//! figures fig5 --panel a    # one panel of it
//! figures --paper           # the paper's parameters instead of the quick scale
//! ```
//!
//! The panels are the rows of [`flock_bench::PANELS`].

use std::path::Path;
use std::process::ExitCode;

use flock_bench::{PANELS, Scale, execute, plan};

fn usage(problem: &str) -> ExitCode {
    eprintln!("figures: {problem}");
    eprintln!("usage: figures [fig4|fig5|fig6|fig7] [--panel <id>] [--paper|--quick]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut figure = None;
    let mut panel = None;
    let mut scale = Scale::quick();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--paper" => scale = Scale::paper(),
            "--quick" => scale = Scale::quick(),
            "--panel" => match args.next() {
                Some(id) => panel = Some(id),
                None => return usage("--panel takes a panel id"),
            },
            name if figure.is_none() && PANELS.iter().any(|p| p.figure == name) => {
                figure = Some(arg)
            }
            other => return usage(&format!("unexpected argument {other:?}")),
        }
    }
    let mut points = plan(&scale);
    points.retain(|p| {
        figure.as_deref().is_none_or(|f| p.panel.figure == f)
            && panel.as_deref().is_none_or(|id| p.panel.id == id)
    });
    if points.is_empty() {
        return usage("no such panel");
    }
    if let Err(e) = execute(&points, Path::new("results")) {
        eprintln!("figures: writing results/: {e}");
        return ExitCode::FAILURE;
    }
    println!("# done; see results/*.csv");
    ExitCode::SUCCESS
}
