//! Spans recorded from outside the crates, around each call into the public
//! API. They are kept in memory while the benchmark runs and written out
//! when it ends. A window span is the parent of every operation span of the
//! same worker and window; its self time (duration minus the operations it
//! covers) is what the harness itself costs: tape step, clock reads, books.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::tape::Class;

/// Lock mode of a window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    LockFree,
    Blocking,
}

impl Mode {
    pub fn tag(self) -> &'static str {
        match self {
            Mode::LockFree => "lf",
            Mode::Blocking => "bl",
        }
    }

    pub fn other(self) -> Mode {
        match self {
            Mode::LockFree => Mode::Blocking,
            Mode::Blocking => Mode::LockFree,
        }
    }
}

impl From<Mode> for flock_core::LockMode {
    fn from(m: Mode) -> Self {
        match m {
            Mode::LockFree => flock_core::LockMode::LockFree,
            Mode::Blocking => flock_core::LockMode::Blocking,
        }
    }
}

/// Operation spans kept per worker; later ones are counted in the
/// histograms but not kept.
pub const SPAN_CAP: usize = 1 << 20;

/// One span, 24 bytes. `class` is `None` for a window span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub window: u16,
    pub mode: Mode,
    pub class: Option<Class>,
    pub ok: bool,
}

/// Write one worker's spans after the others: `workload, mode, window,
/// worker, class, start_ns, dur_ns, ok`, parents (class `window`) included.
pub fn write_spans(path: &Path, workload: &str, per_worker: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "workload,mode,window,worker,class,start_ns,dur_ns,ok")?;
    for (worker, spans) in per_worker.iter().enumerate() {
        for s in spans {
            writeln!(
                out,
                "{workload},{},{},{worker},{},{},{},{}",
                s.mode.tag(),
                s.window,
                s.class.map_or("window", Class::name),
                s.start_ns,
                s.dur_ns,
                u8::from(s.ok),
            )?;
        }
    }
    out.flush()
}

/// Write a table of per-window rows under `header`.
pub fn write_rows(path: &Path, header: &str, rows: &[String]) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "{header}")?;
    for r in rows {
        writeln!(out, "{r}")?;
    }
    out.flush()
}
