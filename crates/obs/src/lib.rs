//! `cpma-obs` — one observability layer for the whole CPMA stack.
//!
//! Std-only, zero dependencies, usable from every other workspace crate
//! (nothing here depends back on the data structures). Four pieces:
//!
//! - **[`Registry`]** — named counters/gauges/histograms. Structures
//!   register per-instance *cells* (so their own `stats()` views stay
//!   schedule-independent); [`Registry::snapshot`] merges live cells with
//!   the retired totals of dropped ones. Recording is a relaxed atomic
//!   add on a thread-striped line — no locks on any hot path.
//! - **[`Histogram`]** — fixed-bucket log-linear (HdrHistogram-style)
//!   distributions with [`HistSnapshot::quantile`] for p50/p99/p999,
//!   exact bucket-wise [`HistSnapshot::merge`], and exact per-octave
//!   counts (what `CombinerStats::ops_per_epoch_log2` is a view of).
//! - **Spans + [`journal`]** — `let _s = span!("combiner.epoch");` times
//!   a region into `<name>.ns` and appends an [`Event`] to a bounded
//!   ring buffer; [`install_panic_hook`] dumps the ring on panic.
//! - **Exposition** — [`Snapshot::to_prometheus`] text and
//!   [`Snapshot::to_json`] (flat JSON: escaped string literals and
//!   finite numbers only).
//!
//! # Determinism contract
//!
//! Metrics are split by [`Unit`]: `Count`/`Bytes` metrics are
//! *deterministic* — for a fixed workload they are identical at any
//! thread budget — while `Nanos` metrics are *timing-derived* and must
//! never feed back into algorithmic decisions. [`set_timing_enabled`]
//! turns the timing side off entirely (spans become no-ops that never
//! read the clock); deterministic counters are always on and cost one
//! relaxed `fetch_add` each.
//!
//! ```
//! use cpma_obs::{global, span, Unit};
//!
//! let ops = global().counter("doc.ops", Unit::Count);
//! {
//!     let mut s = cpma_obs::span!("doc.phase");
//!     ops.add(17);
//!     s.set_items(17);
//! } // span records doc.phase.ns + a journal event here
//! let snap = global().snapshot();
//! assert_eq!(snap.counter("doc.ops"), Some(17));
//! assert!(snap.histogram("doc.phase.ns").is_some());
//! ```

mod journal;
mod metrics;
mod registry;
mod snapshot;

pub use journal::{journal, Event, Journal, DEFAULT_CAPACITY};
pub use metrics::{
    bucket_bounds, bucket_index, Counter, Gauge, HistSnapshot, Histogram, NUM_BUCKETS,
};
pub use registry::{Registry, Unit};
pub use snapshot::{Metric, MetricValue, Snapshot, QUANTILES};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Once, OnceLock};
use std::time::Instant;

/// The process-wide registry. Library crates record here; applications
/// call `global().snapshot()` to expose everything at once.
pub fn global() -> &'static Registry {
    static R: OnceLock<Registry> = OnceLock::new();
    R.get_or_init(Registry::new)
}

static TIMING: AtomicBool = AtomicBool::new(true);

/// Globally enable/disable the timing side (spans, `Histogram::time`).
/// When disabled, spans never read the clock and record nothing — this is
/// the "obs-off" arm of the overhead sweep. Deterministic counters are
/// unaffected.
pub fn set_timing_enabled(on: bool) {
    TIMING.store(on, Ordering::Relaxed);
}

/// Whether the timing side is currently enabled.
#[inline]
pub fn timing_enabled() -> bool {
    TIMING.load(Ordering::Relaxed)
}

/// RAII span guard: on drop, records the elapsed nanoseconds into the
/// span's histogram and appends an event to the [`journal`]. Created by
/// [`span()`]/[`span_with`] (or the [`span!`] macro); inert when timing is
/// disabled.
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    hist: Option<Histogram>,
    items: u64,
}

impl SpanGuard {
    /// Attach an item count (ops applied, leaves touched, ...) that lands
    /// in the journal event.
    #[inline]
    pub fn set_items(&mut self, items: u64) {
        self.items = items;
    }

    /// Add to the attached item count.
    #[inline]
    pub fn add_items(&mut self, items: u64) {
        self.items += items;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let (Some(start), Some(hist)) = (self.start, self.hist.take()) {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            hist.record(ns);
            journal().push(self.name, ns, self.items);
        }
    }
}

/// Start a span named `name`, timed into the [`global`] registry's
/// shared `"<name>.ns"` histogram. Returns an inert guard when timing is
/// disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !timing_enabled() {
        return SpanGuard {
            name,
            start: None,
            hist: None,
            items: 0,
        };
    }
    let hist = global().span_histogram(name);
    SpanGuard {
        name,
        start: Some(Instant::now()),
        hist: Some(hist),
        items: 0,
    }
}

/// Start a span recording into a caller-held histogram handle — the
/// zero-lookup variant for hot paths that cache their handles.
pub fn span_with(hist: &Histogram, name: &'static str) -> SpanGuard {
    if !timing_enabled() {
        return SpanGuard {
            name,
            start: None,
            hist: None,
            items: 0,
        };
    }
    SpanGuard {
        name,
        start: Some(Instant::now()),
        hist: Some(hist.clone()),
        items: 0,
    }
}

/// `span!("combiner.epoch")` — sugar for [`span()`]. Bind the guard
/// (`let _s = span!(...)`) so it lives to the end of the region.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Install a panic hook (idempotent, chains any existing hook) that dumps
/// the event [`journal`] to stderr before the default panic output — the
/// last thing a crashed run prints is what the system was doing.
pub fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            eprintln!("== cpma-obs event journal (most recent last) ==");
            eprintln!("{}", journal().render());
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing switch is process-global; tests that read or toggle it
    /// serialize here so the parallel test harness can't interleave them.
    fn timing_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn span_records_histogram_and_journal() {
        let _t = timing_lock();
        let before = journal().total_events();
        {
            let mut s = span!("obs.test.span");
            s.set_items(5);
            std::hint::black_box(());
        }
        assert!(journal().total_events() > before);
        let snap = global().snapshot();
        let h = snap.histogram("obs.test.span.ns").expect("span histogram");
        assert!(h.count >= 1);
        let ev = journal().events();
        assert!(ev.iter().any(|e| e.name == "obs.test.span" && e.items == 5));
    }

    #[test]
    fn disabled_timing_makes_spans_inert() {
        let _t = timing_lock();
        set_timing_enabled(false);
        let before = journal().total_events();
        {
            let _s = span!("obs.test.inert");
        }
        set_timing_enabled(true);
        assert_eq!(journal().total_events(), before);
        assert!(global().snapshot().histogram("obs.test.inert.ns").is_none());
    }

    #[test]
    fn histogram_time_respects_switch() {
        let _t = timing_lock();
        let r = Registry::new();
        let h = r.histogram("t.ns", Unit::Nanos);
        set_timing_enabled(false);
        let v = h.time(|| 42);
        set_timing_enabled(true);
        assert_eq!(v, 42);
        assert_eq!(h.snapshot().count, 0);
        let v = h.time(|| 43);
        assert_eq!(v, 43);
        assert_eq!(h.snapshot().count, 1);
    }
}
