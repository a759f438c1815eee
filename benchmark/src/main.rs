use std::path::PathBuf;
use std::process::ExitCode;

use flock_benchmark::bench::{self, Options};
use flock_benchmark::ledger::Effort;
use flock_benchmark::suite::{self, SuiteOptions};
use flock_benchmark::workload::{self, Spec, WORKLOADS};
use flock_benchmark::{host, metrics, report};

/// Counts live heap bytes for `mem_bytes_per_key`; see [`flock_benchmark::heap`].
#[global_allocator]
static HEAP: flock_benchmark::heap::Counting = flock_benchmark::heap::Counting;

const USAGE: &str = "\
usage: flock-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
                       [--layers <0|1>] [--workers <n>] [--out <dir>]
       flock-benchmark --layers 1 [--seed <n>]      the cost ledger alone
       flock-benchmark --smoke [--workers <n>] [--out <dir>]
                                                    every workload, traced and untraced, 0.3 s each
       flock-benchmark suite [--repeat <sets>] [--runs <per set>] [--seed <n>] [--seconds <s>]
                       [<workload>...]              repeat and judge against the bounds
       flock-benchmark manifest                     print BENCHMARK.json
workloads: read-mostly churn hot-update scan-mixed lock-transfer stalled-holder";

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: u64,
    trace: bool,
    layers: Option<bool>,
    workers: Option<usize>,
    smoke: bool,
    out: PathBuf,
    repeat: usize,
    runs: usize,
    /// Words that are not options: the subcommand and its workloads.
    words: Vec<String>,
}

fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS,
        trace: false,
        layers: None,
        workers: None,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        repeat: 2,
        runs: 1,
        words: Vec::new(),
    };
    let mut argv = argv.peekable();
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        let number = |s: String| s.parse::<u64>().map_err(|_| format!("{s} is not a number"));
        let flag = |s: String| match s.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{s} is neither 0 nor 1")),
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload")?;
                a.workload = Some(workload::find(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => a.seed = number(value("a number")?)?,
            "--seconds" => a.seconds = number(value("a number")?)?.clamp(1, 60),
            "--trace" => a.trace = flag(value("0 or 1")?)?,
            "--layers" => a.layers = Some(flag(value("0 or 1")?)?),
            "--workers" => a.workers = Some(number(value("a number")?)?.max(1) as usize),
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--repeat" => a.repeat = number(value("a number")?)?.max(1) as usize,
            "--runs" => a.runs = number(value("a number")?)?.max(1) as usize,
            "--smoke" => a.smoke = true,
            "-h" | "--help" => return Err(String::new()),
            s if s.starts_with('-') => return Err(format!("unknown option {s}")),
            _ => a.words.push(arg),
        }
    }
    Ok(a)
}

/// Two workers, fewer on a smaller machine, and never more than the
/// machine has CPUs: more would measure time-slicing, not the library.
fn workers(asked: Option<usize>) -> Result<usize, String> {
    let nproc = host::nproc();
    match asked {
        Some(n) if n > nproc => Err(format!(
            "{n} workers on {nproc} CPUs would time-slice; refusing (use at most {nproc})"
        )),
        Some(n) => Ok(n),
        None => Ok(nproc.min(2)),
    }
}

fn run(a: Args) -> Result<bool, String> {
    let options = |trace: bool| -> Result<Options, String> {
        Ok(Options {
            seed: a.seed,
            seconds: a.seconds,
            trace,
            layers: a.layers.unwrap_or(trace),
            workers: workers(a.workers)?,
            smoke: a.smoke,
            out: a.out.clone(),
        })
    };
    match a.words.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        Some("suite") => {
            let named: Result<Vec<_>, _> = a.words[1..]
                .iter()
                .map(|w| workload::find(w).ok_or(format!("unknown workload {w}")))
                .collect();
            let named = named?;
            suite::run(&SuiteOptions {
                seed: a.seed,
                seconds: a.seconds,
                repeat: a.repeat,
                runs: a.runs,
                workloads: if named.is_empty() {
                    workload::gated().collect()
                } else {
                    named
                },
            })
        }
        Some(other) => Err(format!("unknown command {other}")),
        None if a.smoke => {
            let mut ok = true;
            for spec in &WORKLOADS {
                for trace in [false, true] {
                    let outcome = bench::run_workload(spec, &options(trace)?);
                    println!("{}", outcome.line);
                    ok &= outcome.failed == 0;
                }
            }
            Ok(ok)
        }
        None => match a.workload {
            Some(spec) => {
                let outcome = bench::run_workload(spec, &options(a.trace)?);
                println!("{}", outcome.line);
                Ok(outcome.failed == 0)
            }
            None if a.layers == Some(true) => {
                let rows = bench::ledger_values(Effort::FULL, a.seed);
                let defs = metrics::per_layer();
                let rows = report::listed(&defs, &rows);
                println!(
                    "cost ledger, one worker, {} CPUs ({}):",
                    host::nproc(),
                    host::cpu_model()
                );
                report::print_metrics(&rows);
                println!("{}", report::result_line(1, 0, &rows));
                Ok(true)
            }
            None => Err("nothing to do: name a workload".into()),
        },
    }
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
