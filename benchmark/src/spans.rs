//! Harness-side span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a library layer (the library's internal `cpma::obs` spans are read
//! separately, as histogram deltas). A span carries its name, start, end,
//! the span that caused it and the repetition it belongs to; everything
//! stays in memory until [`write_trace`] at the end of the run.
//!
//! A recorder belongs to one thread (each service connection has its own);
//! [`Tracer::absorb`] merges them for the report.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Individual child spans recorded under one parent; further calls are
/// folded into one aggregate span per name (hot loops make 10^5 calls).
pub const CHILD_CAP: usize = 1000;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    /// End of the interval; for an aggregate (`calls > 1`) the start plus
    /// the summed duration of the calls folded into it.
    pub end_ns: u64,
    /// Calls this span stands for: 1, or the number folded into an
    /// aggregate once its parent had [`CHILD_CAP`] children.
    pub calls: u64,
    /// Index (into the same span list) of the enclosing span.
    pub parent: Option<usize>,
    /// Repetition id the span was recorded in.
    pub rep: u32,
    /// Recording thread (0 = the main thread, 1.. = service connections).
    pub thread: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// In-memory span recorder. Disabled tracers record nothing and never read
/// the clock, so the untraced (timed) runs pay one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    rep: u32,
    /// Open spans, innermost last.
    stack: Vec<Open>,
    spans: Vec<Span>,
}

struct Open {
    idx: usize,
    children: usize,
    /// Aggregate child spans of this parent, by name.
    folded: Vec<(&'static str, usize)>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Self {
        Self {
            enabled,
            epoch,
            thread,
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn disabled() -> Self {
        Self::new(false, Instant::now(), 0)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A recorder for another thread sharing this one's epoch and state.
    pub fn fork(&self, thread: u32) -> Tracer {
        let mut t = Tracer::new(self.enabled, self.epoch, thread);
        t.rep = self.rep;
        t
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Open a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.children += 1;
        }
        let idx = self.push_span(name);
        self.stack.push(Open {
            idx,
            children: 0,
            folded: Vec::new(),
        });
        SpanId(Some(idx))
    }

    /// Close a span opened by [`Tracer::enter`] (innermost first).
    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(
            top.map(|o| o.idx),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = now;
    }

    fn push_span(&mut self, name: &'static str) -> usize {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            calls: 1,
            parent: self.stack.last().map(|o| o.idx),
            rep: self.rep,
            thread: self.thread,
        });
        self.spans.len() - 1
    }

    /// Record `f` as one leaf span (or, past [`CHILD_CAP`] children of the
    /// enclosing span, fold it into that span's aggregate for `name`).
    #[inline]
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let crowded = self.stack.last().is_some_and(|p| p.children >= CHILD_CAP);
        if !crowded {
            let id = self.enter(name);
            let out = f();
            self.exit(id);
            return out;
        }
        let slot = {
            let known = self
                .stack
                .last()
                .and_then(|p| p.folded.iter().find(|(n, _)| *n == name).map(|&(_, i)| i));
            known.unwrap_or_else(|| {
                let i = self.push_span(name);
                self.spans[i].calls = 0;
                if let Some(p) = self.stack.last_mut() {
                    p.folded.push((name, i));
                }
                i
            })
        };
        let t0 = Instant::now();
        let out = f();
        self.spans[slot].end_ns += t0.elapsed().as_nanos() as u64;
        self.spans[slot].calls += 1;
        out
    }

    /// Merge another thread's finished spans (parent links are re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time: duration minus the part of the interval covered by
/// direct children (children of one parent on one thread never overlap, so
/// the covered part is the sum of their durations, clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Totals of one span name across a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Span count, total time and self time per name, sorted by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += s.calls;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Write the trace as one JSON object: the per-name table, the extra
/// `tables` the workload built (already-rendered JSON values) and every
/// span. Span names are static identifiers, so no escaping is needed.
pub fn write_trace(
    path: &Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
    tables: &[(&str, String)],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"by_name\":["
    )?;
    for (i, (name, t)) in totals_by_name(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            w,
            "{sep}\n{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            t.count, t.total_ns, t.self_ns
        )?;
    }
    write!(w, "]")?;
    for (name, json) in tables {
        write!(w, ",\n\"{name}\":{json}")?;
    }
    write!(w, ",\n\"spans\":[")?;
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            w,
            "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"rep\":{},\"thread\":{},\"parent\":{parent},\
             \"calls\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.name, s.rep, s.thread, s.calls, s.start_ns, s.end_ns
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}
