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

/// An observability-side copy of `simnet::Profile`'s ledger, so profiled
/// runs land in the same snapshot document as the metric registry.
/// `simnet` provides `From<&Profile>` for this type.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfileSection {
    /// Application compute nanoseconds.
    pub compute_ns: u64,
    /// Serialization nanoseconds.
    pub ser_ns: u64,
    /// Shuffle spill write nanoseconds.
    pub write_io_ns: u64,
    /// Deserialization nanoseconds.
    pub deser_ns: u64,
    /// Read/fetch nanoseconds (network included).
    pub read_io_ns: u64,
    /// Nanoseconds attributed to the network proper.
    pub net_ns: u64,
    /// Bytes fetched node-locally.
    pub bytes_local: u64,
    /// Bytes fetched over the network.
    pub bytes_remote: u64,
    /// Bytes written to spill files.
    pub bytes_spilled: u64,
    /// Serialization-side function invocations.
    pub ser_invocations: u64,
    /// Deserialization-side function invocations.
    pub deser_invocations: u64,
    /// Objects moved through data transfer.
    pub objects_transferred: u64,
    /// Control-plane messages.
    pub rpc_messages: u64,
    /// Control-plane bytes.
    pub rpc_bytes: u64,
}

impl ProfileSection {
    /// Total nanoseconds across the five cost categories.
    pub fn total_ns(&self) -> u64 {
        self.compute_ns + self.ser_ns + self.write_io_ns + self.deser_ns + self.read_io_ns
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
    /// Attached profile ledgers by label.
    pub profiles: BTreeMap<String, ProfileSection>,
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
        if !self.profiles.is_empty() {
            writeln!(f, "-- profiles {:-<48}", "")?;
            for (name, p) in &self.profiles {
                writeln!(
                    f,
                    "{:<28} total {:>10.3} ms  ser {:>10.3} ms  deser {:>10.3} ms",
                    name,
                    p.total_ns() as f64 / 1e6,
                    p.ser_ns as f64 / 1e6,
                    p.deser_ns as f64 / 1e6,
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
        s.profiles.insert("run".into(), ProfileSection::default());
        let t = s.to_string();
        for needle in ["counters", "gauges", "histograms", "profiles", "a.b", "run"] {
            assert!(t.contains(needle), "table missing {needle}: {t}");
        }
    }
}
