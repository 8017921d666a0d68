//! Benchmark-side spans.
//!
//! Each span has a name, start, end, parent span and request id. Spans
//! are recorded around the calls the benchmark makes into each layer, kept
//! in memory, folded into per-name totals at quiet points, and written out
//! when the run ends. A span's self time is its duration minus the
//! durations of its children. Recording is off unless [`set_enabled`]
//! turned it on, and then costs one thread-local flag test per call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What the span covers.
    pub name: &'static str,
    /// Id of the enclosing span (0 = none). Ids are 1-based indices.
    pub parent: u32,
    /// Request id within the batch (0 outside requests).
    pub req: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Totals of every folded span with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans folded.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times (duration minus children).
    pub self_ns: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Spans before this index are already in `totals`.
    folded: usize,
    totals: BTreeMap<&'static str, Agg>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        spans: Vec::with_capacity(1 << 16),
        stack: Vec::with_capacity(16),
        folded: 0,
        totals: BTreeMap::new(),
    });
}

/// Turns recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    ON.with(|c| c.set(on));
}

/// Whether recording is on.
#[inline]
pub fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Opens a span under the innermost open one; returns its id (0 when
/// recording is off).
#[inline]
pub fn begin(name: &'static str, req: u32) -> u32 {
    if !enabled() {
        return 0;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        let parent = t.stack.last().copied().unwrap_or(0);
        t.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns: start_ns,
        });
        let id = t.spans.len() as u32;
        t.stack.push(id);
        id
    })
}

/// Closes span `id` (no-op for 0).
#[inline]
pub fn end(id: u32) {
    if id == 0 {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let now = t.epoch.elapsed().as_nanos() as u64;
        t.spans[id as usize - 1].end_ns = now;
        let top = t.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    });
}

/// Runs `f` inside a span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = begin(name, 0);
    let out = f();
    end(id);
    out
}

/// Folds every closed, not yet folded span into the per-name totals. With
/// `keep` false those spans are then dropped, which bounds memory over a
/// long run; the kept ones are what [`write_jsonl`] writes out.
///
/// # Panics
///
/// Panics if a span is still open: folds happen between batches.
pub fn fold(keep: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "fold with an open span");
        let from = t.folded;
        let mut self_ns: Vec<u64> = t.spans[from..]
            .iter()
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        for s in &t.spans[from..] {
            let p = s.parent as usize;
            if p > from {
                let i = p - 1 - from;
                self_ns[i] = self_ns[i].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let spans: Vec<Span> = t.spans[from..].to_vec();
        for (s, own) in spans.iter().zip(self_ns) {
            let a = t.totals.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.end_ns - s.start_ns;
            a.self_ns += own;
        }
        if !keep {
            t.spans.truncate(from);
        }
        t.folded = t.spans.len();
    });
}

/// Per-name totals of everything folded so far.
pub fn totals() -> BTreeMap<&'static str, Agg> {
    TRACER.with(|t| t.borrow().totals.clone())
}

/// Clears the per-name totals (the kept spans stay).
pub fn reset_totals() {
    TRACER.with(|t| t.borrow_mut().totals.clear());
}

/// Spans kept so far.
pub fn kept() -> usize {
    TRACER.with(|t| t.borrow().spans.len())
}

/// Writes the kept spans to `path` as JSON lines, one span per line.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    let text = TRACER.with(|t| {
        let t = t.borrow();
        let mut out = String::with_capacity(t.spans.len() * 96);
        for (i, s) in t.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
