//! One run of one workload, from set-up to the result line.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use flock_ds::hashtable::HashTable;
use flock_ds::leaftree::LeafTree;

use crate::engine::{Harness, Plan, RunData};
use crate::ledger::{self, Effort};
use crate::report::{self, Value, Values};
use crate::stats::{quantile_sorted, summarize};
use crate::subject::{Accounts, MapSubject, Subject};
use crate::tape::{self, Class};
use crate::trace::{self, Mode};
use crate::workload::{Spec, Target};
use crate::{heap, host, metrics};

/// What the command line asked for.
#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    /// Time every operation in half of the pairs, keep spans, and report
    /// the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Run the single-worker ledger too (defaults to `trace`).
    pub layers: bool,
    pub workers: usize,
    /// Short windows and few of them: for `--smoke` and the tests.
    pub smoke: bool,
    /// Where a traced run writes its spans and window table.
    pub out: PathBuf,
}

/// A disturbed run: the windows of one mode differ by more than this share
/// of their median between the quartiles.
const DISTURBED: f64 = 0.15;

/// What a run found.
pub struct Outcome {
    pub failed: u64,
    /// The line to print last.
    pub line: String,
}

/// Time spent on fresh builds after each window, for `setup_s`; a cheap
/// set-up is built up to this many times per slice.
const SETUP_SLICE: Duration = Duration::from_millis(2);
const SETUP_MAX_BUILDS: u32 = 1000;

/// Run `spec` as `o` says and print everything but the result line.
pub fn run_workload(spec: &'static Spec, o: &Options) -> Outcome {
    let prefill = tape::prefill_keys(spec, o.seed);
    let keys = spec.keys as usize;
    match spec.target {
        Target::LeafTree => drive(spec, o, &prefill, || {
            MapSubject::build(LeafTree::<u64, u64>::new(), &prefill)
        }),
        Target::HashTable => drive(spec, o, &prefill, || {
            MapSubject::build(HashTable::<u64, u64>::with_capacity(keys), &prefill)
        }),
        Target::Accounts => drive(spec, o, &prefill, || Accounts::build(spec.keys)),
    }
}

fn drive<S: Subject>(
    spec: &'static Spec,
    o: &Options,
    prefill: &[u32],
    set_up: impl Fn() -> S,
) -> Outcome {
    let plan = if o.smoke {
        Plan::smoke(o.workers, o.trace)
    } else {
        Plan::full(o.workers, o.seconds, o.trace)
    };
    println!(
        "workload {}: {} workers, {} pairs of {} ms windows, seed {}, trace {}",
        spec.name,
        plan.workers,
        plan.pairs,
        plan.window.as_millis(),
        o.seed,
        u8::from(o.trace)
    );
    println!("  why: {}", spec.why);
    let mut harness = Harness::new(spec, o.seed, plan);

    // Memory is what the live heap grows by when the instance is built:
    // the structure itself. What a run adds on top (retire bags, pool
    // growth while reclamation lags) varied two- to fivefold between runs
    // of the same code and is reported per layer instead (`epoch.*`).
    let heap_before = heap::live_bytes();
    let subject = set_up();
    let per_key = (heap::live_bytes() - heap_before) as f64 / f64::from(spec.prefilled());

    // Set-up time is sampled after every window, so that it sees the whole
    // run's stretch of host weather: timed in one burst it read 1.5 times
    // higher in some runs than in others. One sample is the
    // mean of as many fresh builds as fit into a slice (at least one), after
    // one untimed build that warms the coordinator's caches; each build is
    // dropped and reclaimed before the next. Set-up always runs in the
    // library's default mode, whichever mode the window before ran in.
    let mut setup = Vec::new();
    let run = harness.run(&subject, prefill, || {
        flock_core::set_lock_mode(flock_core::LockMode::LockFree);
        let reclaim = |built: S| {
            drop(built);
            flock_epoch::flush_all();
        };
        reclaim(set_up());
        let (mut building, mut builds) = (Duration::ZERO, 0u32);
        while builds == 0 || (building < SETUP_SLICE && builds < SETUP_MAX_BUILDS) {
            let t = Instant::now();
            let fresh = set_up();
            building += t.elapsed();
            builds += 1;
            reclaim(fresh);
        }
        setup.push(building.as_secs_f64() / f64::from(builds));
    });
    drop(subject);
    flock_epoch::flush_all();

    print_host(&run, o.workers);
    for (mode, audit) in &run.audits {
        println!(
            "  audit after the last {} window: {} comparisons, {} failed",
            mode.tag(),
            audit.checked,
            audit.failed
        );
    }
    for note in &run.notes {
        println!("  FAILED: {note}");
    }
    if run.scan_repeats > 0 {
        println!(
            "  scan anomalies: {} keys reported twice by a scan (OrderedMap promises at most \
             once; a known LeafTree::range defect, counted but not failed, see README)",
            run.scan_repeats
        );
    }
    println!(
        "  operations attempted {}, failed {}",
        run.attempted, run.failed
    );

    let mut e2e = report::end_to_end(&run);
    e2e.insert("mem_bytes_per_key".into(), per_key.into());
    // The fastest tenth, not the median: this is one thread on a shared
    // host, where noise only ever adds time. Over eight runs the median of
    // the same samples differed by a factor of 1.57, their first decile by
    // 1.18.
    setup.sort_by(f64::total_cmp);
    let setup = Value {
        value: quantile_sorted(&setup, 0.1),
        over: Some(summarize(&setup)),
    };
    e2e.insert("setup_s".into(), setup);
    let (e2e_defs, layer_defs) = (metrics::end_to_end(), metrics::per_layer());
    let e2e = report::listed(&e2e_defs, &e2e);
    println!(
        "end-to-end ({}):",
        if o.trace {
            "from the untraced pairs"
        } else {
            "untraced"
        }
    );
    report::print_metrics(&e2e);

    let metrics = if o.trace {
        let mut layers = report::traced(&run);
        let effort = if o.smoke { Effort::SMOKE } else { Effort::FULL };
        layers.extend(harness_costs(spec, effort));
        if o.layers {
            layers.extend(ledger_values(effort, o.seed));
        }
        if let Err(e) = write_trace(spec, o, &run) {
            eprintln!(
                "warning: could not write the trace under {}: {e}",
                o.out.display()
            );
        }
        let layers = report::listed(&layer_defs, &layers);
        println!("per-layer:");
        report::print_metrics(&layers);
        report::result_line(run.attempted, run.failed, &layers)
    } else {
        report::result_line(run.attempted, run.failed, &e2e)
    };
    Outcome {
        failed: run.failed,
        line: metrics,
    }
}

/// The ledger as metric values.
pub fn ledger_values(effort: Effort, seed: u64) -> Values {
    ledger::run(effort, seed)
        .into_iter()
        .map(|(name, v)| (name, Value::from(v)))
        .collect()
}

/// What the harness itself costs per operation, measured on one worker.
fn harness_costs(spec: &'static Spec, e: Effort) -> Values {
    let clock = ledger::cost(e, || {
        std::hint::black_box(Instant::now().elapsed());
    });
    let step = crate::engine::tape_step_ns(spec, (e.batches * e.batch) as u64);
    Values::from([
        ("harness.clock_pair_ns".to_string(), clock.into()),
        ("harness.tape_step_ns".to_string(), step.into()),
    ])
}

/// Host truth, printed with every run.
fn print_host(run: &RunData, workers: usize) {
    println!(
        "  host: {} CPUs ({}), {} workers, steal share {:.4}",
        host::nproc(),
        host::cpu_model(),
        workers,
        run.steal_share
    );
    let iqr = report::window_iqr_share(run);
    println!("  window IQR share {iqr:.4} (wider of the two modes)");
    if iqr > DISTURBED {
        println!(
            "  note: disturbed — the windows differ by more than {DISTURBED} of their median; \
             do not trust this run's throughput"
        );
    }
    for mode in [Mode::LockFree, Mode::Blocking] {
        let ramp: Vec<String> = report::ramp(run, mode)
            .iter()
            .map(|r| format!("{r:.2}"))
            .collect();
        println!(
            "  warm-up ramp {} (share of the measured median): {}",
            mode.tag(),
            ramp.join(" ")
        );
    }
}

/// Write the spans and the per-window table of a traced run.
fn write_trace(spec: &Spec, o: &Options, run: &RunData) -> std::io::Result<()> {
    std::fs::create_dir_all(&o.out)?;
    let spans = o.out.join(format!("trace-{}.csv", spec.name));
    trace::write_spans(&spans, spec.name, &run.spans)?;
    let classes: Vec<String> = Class::ALL
        .iter()
        .map(|c| format!("ops_{}", c.name()))
        .collect();
    let header = format!(
        "workload,window,mode,traced,pair,mops,elapsed_ns,total_ops,{},failed,lock_calls,lock_busy,stalls,\
         read_p50_ns,read_p99_ns,write_p50_ns,write_p99_ns,retired,freed,epoch_advances,bag_bytes,pages_live,magazine_hits,magazine_misses,global_refills",
        classes.join(",")
    );
    let rows: Vec<String> = run
        .windows
        .iter()
        .map(|w| {
            let ops: Vec<String> = w.tally.ops.iter().map(u64::to_string).collect();
            let (a, b) = (&w.after, &w.before);
            format!(
                "{},{},{},{},{},{:.6},{},{},{},{},{},{},{},{:.1},{:.1},{:.1},{:.1},{},{},{},{},{},{},{},{}",
                spec.name,
                w.index,
                w.mode.tag(),
                u8::from(w.traced),
                w.pair.map_or("warm".into(), |p| p.to_string()),
                w.mops,
                w.tally.elapsed_ns,
                w.total_ops,
                ops.join(","),
                w.tally.failed,
                w.tally.lock_calls,
                w.tally.lock_busy,
                w.tally.stalls,
                w.read_ns[0],
                w.read_ns[1],
                w.write_ns[0],
                w.write_ns[1],
                a.retired - b.retired,
                a.freed - b.freed,
                a.epoch - b.epoch,
                a.bag_bytes,
                a.pages_live,
                a.magazine_hits - b.magazine_hits,
                a.magazine_misses - b.magazine_misses,
                a.global_refills - b.global_refills,
            )
        })
        .collect();
    let table = o.out.join(format!("windows-{}.csv", spec.name));
    trace::write_rows(&table, &header, &rows)?;
    println!(
        "  trace: {} spans in {}, {} windows in {}",
        run.spans.iter().map(Vec::len).sum::<usize>(),
        spans.display(),
        rows.len(),
        table.display()
    );
    Ok(())
}
