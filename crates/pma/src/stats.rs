//! Memory-traffic accounting — the reproduction's stand-in for `perf stat`.
//!
//! Table 1 of the paper reports hardware cache misses during batch inserts
//! to show that the PMA/CPMA move ~3× less data than PaC-trees. Hardware
//! counters are not portable, so (as recorded in DESIGN.md §4) we count the
//! bytes each structure reads and writes at its storage layer and report
//! estimated cache-line (64 B) transfers. Relative ordering between
//! structures — the quantity Table 1 is about — is preserved.
//!
//! Compiled to no-ops unless the `stats` feature is enabled, so the hot
//! paths of benchmark builds without the feature pay nothing.

#[cfg(feature = "stats")]
use std::sync::atomic::{AtomicU64, Ordering};

use cpma_obs::{Counter, Unit};

/// Cache-line size used to convert bytes to estimated line transfers.
pub const CACHE_LINE: u64 = 64;

#[cfg(feature = "stats")]
static BYTES_READ: AtomicU64 = AtomicU64::new(0);
#[cfg(feature = "stats")]
static BYTES_WRITTEN: AtomicU64 = AtomicU64::new(0);

/// Record `n` bytes read from a data structure's backing storage.
#[inline(always)]
pub fn record_read(n: usize) {
    #[cfg(feature = "stats")]
    BYTES_READ.fetch_add(n as u64, Ordering::Relaxed);
    #[cfg(not(feature = "stats"))]
    let _ = n;
}

/// Record `n` bytes written to a data structure's backing storage.
#[inline(always)]
pub fn record_write(n: usize) {
    #[cfg(feature = "stats")]
    BYTES_WRITTEN.fetch_add(n as u64, Ordering::Relaxed);
    #[cfg(not(feature = "stats"))]
    let _ = n;
}

/// Per-structure batch-pipeline counters, incremented by every batch
/// update (one-sided and mixed) a `Pma`/`Cpma` instance executes.
///
/// Unlike the byte-traffic counters above — process-global and
/// feature-gated because they sit on the per-element hot path — these are
/// a handful of integer adds per *batch*, so they are always on and live
/// in the structure itself (`Pma::stats()`), which also keeps them
/// deterministic at any thread count: every quantity counted is a
/// property of the batch algorithm's schedule-independent output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PmaStats {
    /// Batch updates that fell back to per-key point updates (below
    /// [`crate::POINT_UPDATE_CUTOFF`] ops).
    pub point_fallbacks: u64,
    /// Batch updates that ran the route→merge→count→redistribute
    /// pipeline.
    pub pipeline_batches: u64,
    /// `(leaf, run)` assignments produced by the routing phase — each is
    /// one leaf rewrite in the merge phase.
    pub routed_runs: u64,
    /// Leaves rewritten across merge *and* redistribution phases (the
    /// touched-leaf traffic the mixed pipeline exists to halve).
    pub leaves_touched: u64,
    /// Maximal disjoint ranges handed to the redistribute phase.
    pub redistribute_ranges: u64,
    /// Whole-structure rebuilds: huge-batch merges, bulk loads into an
    /// empty structure, and root-violation grows/shrinks.
    pub full_rebuilds: u64,
}

impl PmaStats {
    /// One compact human-readable line (the bench drivers print this).
    pub fn summary(&self) -> String {
        format!(
            "pipeline={} point_fallbacks={} routed_runs={} leaves_touched={} \
             redistribute_ranges={} full_rebuilds={}",
            self.pipeline_batches,
            self.point_fallbacks,
            self.routed_runs,
            self.leaves_touched,
            self.redistribute_ranges,
            self.full_rebuilds
        )
    }
}

/// The live counter cells behind [`PmaStats`]: each `PmaCore` instance
/// owns one set, registered under the global `cpma-obs` registry (names
/// `pma.*`), and `Pma::stats()` is a point-in-time [`PmaCounters::view`]
/// over them. The registry snapshot additionally sums across every
/// instance in the process.
///
/// `Clone` (and `Default`) register *fresh zeroed cells* — cloning a
/// `Pma` yields a structure whose stats start at zero, exactly like the
/// old value-struct behaved for a freshly built structure, and snapshot
/// clones published by the combiner never double-count.
#[derive(Debug)]
pub struct PmaCounters {
    pub(crate) point_fallbacks: Counter,
    pub(crate) pipeline_batches: Counter,
    pub(crate) routed_runs: Counter,
    pub(crate) leaves_touched: Counter,
    pub(crate) redistribute_ranges: Counter,
    pub(crate) full_rebuilds: Counter,
}

impl PmaCounters {
    /// Register a fresh set of cells on the global registry.
    pub fn new() -> Self {
        let r = cpma_obs::global();
        Self {
            point_fallbacks: r.counter("pma.point_fallbacks", Unit::Count),
            pipeline_batches: r.counter("pma.pipeline_batches", Unit::Count),
            routed_runs: r.counter("pma.routed_runs", Unit::Count),
            leaves_touched: r.counter("pma.leaves_touched", Unit::Count),
            redistribute_ranges: r.counter("pma.redistribute_ranges", Unit::Count),
            full_rebuilds: r.counter("pma.full_rebuilds", Unit::Count),
        }
    }

    /// The classic value-struct view of this instance's counters.
    pub fn view(&self) -> PmaStats {
        PmaStats {
            point_fallbacks: self.point_fallbacks.value(),
            pipeline_batches: self.pipeline_batches.value(),
            routed_runs: self.routed_runs.value(),
            leaves_touched: self.leaves_touched.value(),
            redistribute_ranges: self.redistribute_ranges.value(),
            full_rebuilds: self.full_rebuilds.value(),
        }
    }
}

impl Default for PmaCounters {
    fn default() -> Self {
        Self::new()
    }
}

/// Process-shared latency histograms for the four batch-pipeline phases
/// (timing-derived; inert when `cpma_obs::set_timing_enabled(false)`).
/// Shared rather than per-instance: phase durations are a property of the
/// machine, not of one structure, and a single cell keeps the per-batch
/// cost to pointer loads.
pub(crate) struct PhaseSpans {
    pub route: cpma_obs::Histogram,
    pub merge: cpma_obs::Histogram,
    pub count: cpma_obs::Histogram,
    pub redistribute: cpma_obs::Histogram,
}

pub(crate) fn phase_spans() -> &'static PhaseSpans {
    static SPANS: std::sync::OnceLock<PhaseSpans> = std::sync::OnceLock::new();
    SPANS.get_or_init(|| {
        let r = cpma_obs::global();
        PhaseSpans {
            route: r.shared_histogram("pma.route.ns", Unit::Nanos),
            merge: r.shared_histogram("pma.merge.ns", Unit::Nanos),
            count: r.shared_histogram("pma.count.ns", Unit::Nanos),
            redistribute: r.shared_histogram("pma.redistribute.ns", Unit::Nanos),
        }
    })
}

/// Process-shared counters for the hybrid leaf codec: how often each
/// encoding is written and how often a non-empty leaf *flips* encodings at
/// a rewrite (the quantity the redistribute-time hysteresis damps).
/// Shared like [`PhaseSpans`]: codec population is a whole-process
/// property the bench exposition sums anyway, and one cell per event
/// keeps the per-leaf-rewrite cost to one relaxed add.
pub(crate) struct CodecCounters {
    pub bitmap_writes: Counter,
    pub delta_writes: Counter,
    pub flips: Counter,
}

pub(crate) fn codec_counters() -> &'static CodecCounters {
    static CELLS: std::sync::OnceLock<CodecCounters> = std::sync::OnceLock::new();
    CELLS.get_or_init(|| {
        let r = cpma_obs::global();
        CodecCounters {
            bitmap_writes: r.counter("cpma.codec.bitmap_writes", Unit::Count),
            delta_writes: r.counter("cpma.codec.delta_writes", Unit::Count),
            flips: r.counter("cpma.codec.flips", Unit::Count),
        }
    })
}

/// Process-shared counters for which update kernel a compressed leaf run
/// took (see `compressed.rs`, "Updating a leaf"): the fused in-place
/// kernel, or the general decode → merge → store path — including every
/// run a kernel declined. Wordwise runs on bitmap leaves count as
/// neither. Shared for the reason [`CodecCounters`] is.
pub(crate) struct LeafCounters {
    pub fused_runs: Counter,
    pub general_runs: Counter,
}

pub(crate) fn leaf_counters() -> &'static LeafCounters {
    static CELLS: std::sync::OnceLock<LeafCounters> = std::sync::OnceLock::new();
    CELLS.get_or_init(|| {
        let r = cpma_obs::global();
        LeafCounters {
            fused_runs: r.counter("cpma.leaf.fused_runs", Unit::Count),
            general_runs: r.counter("cpma.leaf.general_runs", Unit::Count),
        }
    })
}

/// Process-shared count of reporting applies
/// (`PmaCore::apply_batch_sorted_reporting`) whose net batch left the
/// pipeline regime the batch was routed in and was applied from scratch
/// (`pma.report_fallbacks`). Shared for the reason [`LeafCounters`] is —
/// and so that recording it adds nothing to a structure's footprint.
pub(crate) fn report_fallbacks() -> &'static Counter {
    static CELL: std::sync::OnceLock<Counter> = std::sync::OnceLock::new();
    CELL.get_or_init(|| cpma_obs::global().counter("pma.report_fallbacks", Unit::Count))
}

impl Clone for PmaCounters {
    fn clone(&self) -> Self {
        Self::new()
    }
}

/// Snapshot of traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
}

impl Traffic {
    /// Estimated cache-line transfers (reads + writes, 64 B lines).
    pub fn est_line_transfers(&self) -> u64 {
        (self.bytes_read + self.bytes_written).div_ceil(CACHE_LINE)
    }

    /// Component-wise saturating difference (`self - earlier`).
    pub fn since(&self, earlier: Traffic) -> Traffic {
        Traffic {
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
        }
    }
}

/// Scoped view over the process-global byte-traffic counters.
///
/// The raw `BYTES_READ`/`BYTES_WRITTEN` statics are process-global, so
/// measuring two structures back-to-back used to require a global
/// [`reset`] between them — and one forgotten reset polluted the next
/// Table-1 number. A `TrafficScope` captures the totals at construction
/// and reports deltas, so any number of sequential (or nested)
/// measurements stay independent without ever resetting the globals.
///
/// Like everything in this module it measures whatever runs in the
/// process during the scope; keep concurrent structure work out of a
/// measured region, as Table 1 always required.
#[derive(Clone, Copy, Debug)]
pub struct TrafficScope {
    base: Traffic,
}

impl TrafficScope {
    /// Open a scope at the current counter totals.
    pub fn begin() -> Self {
        Self { base: snapshot() }
    }

    /// Bytes recorded since [`TrafficScope::begin`].
    pub fn traffic(&self) -> Traffic {
        snapshot().since(self.base)
    }
}

impl Default for TrafficScope {
    fn default() -> Self {
        Self::begin()
    }
}

/// Read the current counters.
pub fn snapshot() -> Traffic {
    #[cfg(feature = "stats")]
    {
        Traffic {
            bytes_read: BYTES_READ.load(Ordering::Relaxed),
            bytes_written: BYTES_WRITTEN.load(Ordering::Relaxed),
        }
    }
    #[cfg(not(feature = "stats"))]
    Traffic::default()
}

/// Zero the counters (call before a measured region).
pub fn reset() {
    #[cfg(feature = "stats")]
    {
        BYTES_READ.store(0, Ordering::Relaxed);
        BYTES_WRITTEN.store(0, Ordering::Relaxed);
    }
}

/// Run `f` in a [`TrafficScope`] and return `(result, traffic delta)`.
/// Does not reset the globals, so sequential `measure` calls are
/// independent of each other and of any surrounding scope.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Traffic) {
    let scope = TrafficScope::begin();
    let out = f();
    (out, scope.traffic())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_transfer_estimate_rounds_up() {
        let t = Traffic {
            bytes_read: 1,
            bytes_written: 0,
        };
        assert_eq!(t.est_line_transfers(), 1);
        let t = Traffic {
            bytes_read: 64,
            bytes_written: 64,
        };
        assert_eq!(t.est_line_transfers(), 2);
        let t = Traffic {
            bytes_read: 65,
            bytes_written: 0,
        };
        assert_eq!(t.est_line_transfers(), 2);
    }

    #[cfg(feature = "stats")]
    #[test]
    fn scopes_are_independent() {
        // Two sequential scopes must each see only their own traffic even
        // though the underlying counters are process-global and never
        // reset. (Other tests may add traffic concurrently, so assert
        // lower bounds only.)
        let a = TrafficScope::begin();
        record_read(128);
        let ta = a.traffic();
        let b = TrafficScope::begin();
        record_write(64);
        let tb = b.traffic();
        assert!(ta.bytes_read >= 128);
        assert!(tb.bytes_written >= 64);
        // b opened after a's reads: they don't leak into b's read count
        // unless a concurrent test recorded reads in the window.
        let (v, tr) = measure(|| {
            record_read(64);
            7
        });
        assert_eq!(v, 7);
        assert!(tr.bytes_read >= 64);
    }

    #[cfg(feature = "stats")]
    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        record_read(100);
        record_write(28);
        let t = snapshot();
        assert!(t.bytes_read >= 100);
        assert!(t.bytes_written >= 28);
        reset();
        // Other tests may run in parallel and bump counters, so only check
        // that reset did not panic and measure() returns something coherent.
        let (v, tr) = measure(|| {
            record_read(64);
            7
        });
        assert_eq!(v, 7);
        assert!(tr.bytes_read >= 64);
    }

    #[cfg(not(feature = "stats"))]
    #[test]
    fn disabled_stats_are_zero() {
        record_read(1000);
        record_write(1000);
        assert_eq!(snapshot(), Traffic::default());
    }
}
