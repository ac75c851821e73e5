//! Point-in-time snapshots of a registry: a serde-serializable document
//! plus a human-readable table rendering.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::Histogram;

/// Summary of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Estimated 50th percentile.
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Estimated 99.9th percentile (tail of the log₂ buckets).
    pub p999: u64,
}

impl HistogramSnapshot {
    /// Captures a histogram's current state.
    pub fn capture(h: &Histogram) -> Self {
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            p50: h.percentile(50.0),
            p95: h.percentile(95.0),
            p99: h.percentile(99.0),
            p999: h.percentile(99.9),
        }
    }
}

/// A full point-in-time capture of a [`crate::Registry`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value by name, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name, 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.counters.is_empty() {
            writeln!(f, "-- counters {:-<48}", "")?;
            for (name, v) in &self.counters {
                writeln!(f, "{name:<48} {v:>12}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "-- gauges {:-<50}", "")?;
            for (name, v) in &self.gauges {
                writeln!(f, "{name:<48} {v:>12}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "-- histograms {:-<46}", "")?;
            writeln!(
                f,
                "{:<36} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "name", "count", "p50", "p95", "p99", "p99.9", "max"
            )?;
            for (name, h) in &self.histograms {
                writeln!(
                    f,
                    "{:<36} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    name, h.count, h.p50, h.p95, h.p99, h.p999, h.max
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_lookup_defaults_to_zero() {
        let s = Snapshot::default();
        assert_eq!(s.counter("nope"), 0);
        assert_eq!(s.gauge("nope"), 0);
    }

    #[test]
    fn table_rendering_mentions_every_section() {
        let mut s = Snapshot::default();
        s.counters.insert("a.b".into(), 3);
        s.gauges.insert("g".into(), -1);
        s.histograms.insert(
            "h".into(),
            HistogramSnapshot { count: 1, sum: 5, min: 5, max: 5, p50: 5, p95: 5, p99: 5, p999: 5 },
        );
        let t = s.to_string();
        for needle in ["counters", "gauges", "histograms", "a.b"] {
            assert!(t.contains(needle), "table missing {needle}: {t}");
        }
    }
}
