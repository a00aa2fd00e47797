//! In-memory span recording for the traced run.
//!
//! This PR adds no instrumentation inside the program under test: every
//! span wraps a *public call* made from the benchmark's own files, one
//! ladder rung at a time.  Spans stay in memory while a rung runs and are
//! written to `out/trace-<workload>.jsonl` when the benchmark ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Value;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Ladder rung the span was recorded on (`client`, `session`, …).
    pub rung: &'static str,
    /// The public call wrapped, e.g. `Session::mine`.
    pub name: &'static str,
    /// Generator thread (connection) that made the call.
    pub thread: u32,
    /// Step the call belongs to; spans of one step share it.
    pub step: u64,
    /// Index of the enclosing span in the same tracer, `u32::MAX` for a root.
    pub parent: u32,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Marker for "no enclosing span".
pub const ROOT: u32 = u32::MAX;

/// A per-thread span buffer.
#[derive(Debug)]
pub struct Tracer {
    rung: &'static str,
    thread: u32,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for one rung and thread; `epoch` is shared by every tracer
    /// of a run so spans from different threads line up.
    pub fn new(rung: &'static str, thread: u32, epoch: Instant) -> Self {
        Self {
            rung,
            thread,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch, now.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index (the `parent` of its children).
    /// The end is patched in by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, step: u64, parent: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            rung: self.rung,
            name,
            thread: self.thread,
            step,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes a span opened by [`Tracer::open`]; returns its duration.
    pub fn close(&mut self, id: u32) -> u64 {
        let end_ns = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.nanos()
    }

    /// Times one call as a child span and returns its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        step: u64,
        parent: u32,
        call: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, step, parent);
        let result = call();
        (result, self.close(id))
    }
}

/// Writes spans as JSON lines: one object per span.  `id` is the span's index
/// within its tracer; a run keeps one tracer per `(rung, thread)`, so
/// `(rung, thread, id)` names a span and `parent` resolves.
pub fn write_jsonl(path: &Path, tracers: &[Tracer]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0;
    for tracer in tracers {
        for (id, span) in tracer.spans.iter().enumerate() {
            let parent = match span.parent {
                ROOT => Value::Null,
                parent => Value::Number(f64::from(parent)),
            };
            let line = Value::object([
                ("rung", Value::str(span.rung)),
                ("thread", Value::Number(f64::from(span.thread))),
                ("id", Value::Number(id as f64)),
                ("parent", parent),
                ("step", Value::Number(span.step as f64)),
                ("name", Value::str(span.name)),
                ("start_ns", Value::Number(span.start_ns as f64)),
                ("end_ns", Value::Number(span.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
            written += 1;
        }
    }
    out.flush()?;
    Ok(written)
}
