//! Point-in-time metric snapshots and the two exposition formats:
//! Prometheus-style text and JSON (escaped string literals, finite
//! numbers, a flat top-level array that diffing tools can walk without a
//! schema).

use std::io::Write;
use std::path::Path;

use crate::metrics::HistSnapshot;
use crate::registry::Unit;

/// The quantiles every histogram exposes in both formats:
/// `(q, prometheus label, json key)`.
pub const QUANTILES: [(f64, &str, &str); 3] = [
    (0.5, "0.5", "p50"),
    (0.99, "0.99", "p99"),
    (0.999, "0.999", "p999"),
];

/// One named metric in a [`Snapshot`].
#[derive(Clone, Debug)]
pub struct Metric {
    /// Dotted metric name, e.g. `combiner.epoch.ns`.
    pub name: String,
    /// Dimension; [`Unit::Nanos`] marks timing-derived metrics.
    pub unit: Unit,
    /// The merged value across every cell registered under this name.
    pub value: MetricValue,
}

/// The value side of a [`Metric`].
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// Monotonic total.
    Counter(u64),
    /// Instantaneous level (sum of live cells).
    Gauge(i64),
    /// Merged distribution.
    Histogram(HistSnapshot),
}

/// A sorted point-in-time view of a [`Registry`](crate::Registry),
/// produced by [`Registry::snapshot`](crate::Registry::snapshot).
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// All metrics, sorted by name.
    pub metrics: Vec<Metric>,
}

impl Snapshot {
    fn find(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Value of a counter metric, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.find(name)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Level of a gauge metric, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.find(name)?.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// Merged histogram under `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        match &self.find(name)?.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Prometheus-style text exposition. Dotted names become
    /// `cpma_`-prefixed underscore names; histograms render as summaries
    /// with `quantile` labels plus `_sum`/`_count` series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let pname = prom_name(&m.name);
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {pname} counter\n{pname} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {pname} gauge\n{pname} {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {pname} summary\n"));
                    for (q, label, _) in QUANTILES {
                        out.push_str(&format!(
                            "{pname}{{quantile=\"{label}\"}} {}\n",
                            h.quantile(q)
                        ));
                    }
                    out.push_str(&format!("{pname}_sum {}\n", h.sum));
                    out.push_str(&format!("{pname}_count {}\n", h.count));
                }
            }
        }
        out
    }

    /// JSON exposition: `{"metrics": [{name, kind, unit, ...}, ...]}`,
    /// flat and stable.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": {}, ", json_string(&m.name)));
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(
                        "\"kind\": \"counter\", \"unit\": \"{}\", \"value\": {v}",
                        m.unit.label()
                    ));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "\"kind\": \"gauge\", \"unit\": \"{}\", \"value\": {v}",
                        m.unit.label()
                    ));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "\"kind\": \"histogram\", \"unit\": \"{}\", \"count\": {}, \"sum\": {}, ",
                        m.unit.label(),
                        h.count,
                        h.sum
                    ));
                    out.push_str(&format!("\"mean\": {}, ", json_number(h.mean())));
                    for (j, (q, _, key)) in QUANTILES.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&format!("\"{key}\": {}", h.quantile(*q)));
                    }
                }
            }
            out.push('}');
            out.push_str(if i + 1 < self.metrics.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write [`Snapshot::to_json`] to `path`.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

/// `combiner.epoch.ns` → `cpma_combiner_epoch_ns`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("cpma_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// A JSON string literal (quotes, backslashes, control chars escaped).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (JSON has no NaN/inf; clamp those to 0).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn prometheus_shape() {
        let r = Registry::new();
        let c = r.counter("pma.batches", Unit::Count);
        c.add(42);
        let g = r.gauge("q.depth");
        g.set(3);
        let h = r.histogram("epoch.ns", Unit::Nanos);
        for v in 1..=100u64 {
            h.record(v);
        }
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE cpma_pma_batches counter"));
        assert!(text.contains("cpma_pma_batches 42"));
        assert!(text.contains("cpma_q_depth 3"));
        assert!(text.contains("cpma_epoch_ns{quantile=\"0.5\"}"));
        assert!(text.contains("cpma_epoch_ns_count 100"));
        assert!(text.contains("cpma_epoch_ns_sum 5050"));
    }

    #[test]
    fn json_shape() {
        let r = Registry::new();
        r.counter("pma.batches", Unit::Count).add(7);
        let h = r.histogram("epoch.ns", Unit::Nanos);
        h.record(31);
        let body = r.snapshot().to_json();
        assert!(body.contains("\"name\": \"pma.batches\""));
        assert!(body.contains("\"kind\": \"counter\", \"unit\": \"count\", \"value\": 7"));
        assert!(
            body.contains("\"kind\": \"histogram\", \"unit\": \"ns\", \"count\": 1, \"sum\": 31")
        );
        assert!(body.contains("\"p50\": 31"));
        assert!(body.contains("\"p999\": 31"));
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
