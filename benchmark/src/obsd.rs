//! Deltas of the library's own metrics registry around a phase.
//!
//! The library already counts events and, when `cpma::obs` timing is on,
//! times its internal phases. The traced run reads
//! `cpma::obs::global().snapshot()` before and after a phase and reports
//! the difference; nothing in the library is changed for the benchmark.

use cpma::obs::Snapshot;

/// A registry snapshot, or nothing when the run is not traced (taking a
/// snapshot walks every registered cell, so timed runs skip it).
pub struct ObsPoint(Option<Snapshot>);

impl ObsPoint {
    pub fn take(enabled: bool) -> Self {
        ObsPoint(enabled.then(|| cpma::obs::global().snapshot()))
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.0.as_ref().and_then(|s| s.counter(name)).unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> i64 {
        self.0.as_ref().and_then(|s| s.gauge(name)).unwrap_or(0)
    }

    /// `(observations, summed value)` of a histogram.
    pub fn hist(&self, name: &str) -> (u64, u64) {
        self.0
            .as_ref()
            .and_then(|s| s.histogram(name))
            .map_or((0, 0), |h| (h.count, h.sum))
    }

    /// Quantile of a histogram over everything recorded so far.
    pub fn hist_quantile(&self, name: &str, q: f64) -> u64 {
        self.0
            .as_ref()
            .and_then(|s| s.histogram(name))
            .map_or(0, |h| h.quantile(q))
    }
}

/// What happened between two points.
pub struct ObsDelta<'a> {
    pub before: &'a ObsPoint,
    pub after: &'a ObsPoint,
}

impl ObsDelta<'_> {
    pub fn counter(&self, name: &str) -> u64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name))
    }

    /// Sum of several counters' deltas.
    pub fn counters(&self, names: &[&str]) -> u64 {
        names.iter().map(|n| self.counter(n)).sum()
    }

    /// Nanoseconds (or whatever the histogram holds) added to its sum.
    pub fn hist_sum(&self, name: &str) -> u64 {
        self.after
            .hist(name)
            .1
            .wrapping_sub(self.before.hist(name).1)
    }

    pub fn hist_count(&self, name: &str) -> u64 {
        self.after
            .hist(name)
            .0
            .saturating_sub(self.before.hist(name).0)
    }

    /// Mean of the observations added, 0 when there were none.
    pub fn hist_mean(&self, name: &str) -> f64 {
        match self.hist_count(name) {
            0 => 0.0,
            n => self.hist_sum(name) as f64 / n as f64,
        }
    }
}
