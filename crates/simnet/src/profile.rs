//! Per-node cost profiles: the five run-time components of the paper's
//! Figure 3 plus byte and invocation counters.
//!
//! The paper breaks Spark's execution into **Computation, Serialization,
//! Write I/O, Deserialization, Read I/O** (network folded into read I/O) and
//! separately reports **Local Bytes** and **Remote Bytes** shuffled. This
//! module is the ledger those numbers come from: CPU-bound categories accrue
//! *measured* nanoseconds (this simulation really performs the work), I/O
//! categories accrue *modeled* nanoseconds derived from byte counts and
//! configured bandwidths.

use std::time::Instant;

use serde::{Deserialize, Serialize};

/// The cost categories of the Figure 3 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Application compute (map functions, joins, ranking…).
    Compute,
    /// Turning records into bytes (or Skyway's traversal + copy).
    Ser,
    /// Writing shuffle spill files.
    WriteIo,
    /// Reconstructing records from bytes (or Skyway's absolutization).
    Deser,
    /// Reading spill files and fetching remote blocks (network included,
    /// as in the paper).
    ReadIo,
}

impl Category {
    /// All categories in the paper's stacking order.
    pub const ALL: [Category; 5] =
        [Category::Compute, Category::Ser, Category::WriteIo, Category::Deser, Category::ReadIo];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Category::Compute => "Computation",
            Category::Ser => "Serialization",
            Category::WriteIo => "Write I/O",
            Category::Deser => "Deserialization",
            Category::ReadIo => "Read I/O",
        }
    }

    fn index(self) -> usize {
        match self {
            Category::Compute => 0,
            Category::Ser => 1,
            Category::WriteIo => 2,
            Category::Deser => 3,
            Category::ReadIo => 4,
        }
    }
}

/// Ledger of one node's costs.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Profile {
    ns: [u64; 5],
    /// Bytes fetched from partitions on the same node (Fig. 3(b) "Local
    /// Bytes").
    pub bytes_local: u64,
    /// Bytes fetched over the network (Fig. 3(b) "Remote Bytes").
    pub bytes_remote: u64,
    /// Bytes written to shuffle spill files.
    pub bytes_spilled: u64,
    /// Serialization-side S/D function invocations (per-object costs the
    /// paper attributes Kryo's and Java's overheads to).
    pub ser_invocations: u64,
    /// Deserialization-side S/D function invocations.
    pub deser_invocations: u64,
    /// Objects moved through data transfer.
    pub objects_transferred: u64,
    /// Nanoseconds attributed to the network proper (subset of ReadIo).
    pub net_ns: u64,
}

impl Profile {
    /// A fresh, empty profile.
    pub fn new() -> Self {
        Profile::default()
    }

    /// Adds `ns` to a category.
    pub fn add_ns(&mut self, cat: Category, ns: u64) {
        self.ns[cat.index()] += ns;
    }

    /// Nanoseconds accrued in a category.
    pub fn ns(&self, cat: Category) -> u64 {
        self.ns[cat.index()]
    }

    /// Total nanoseconds across all categories.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Runs `f`, charging its measured wall time to `cat`.
    // tidy:allow(unreached-pub, read by profile::tests::measure_charges_something)
    pub fn measure<R>(&mut self, cat: Category, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add_ns(cat, t.elapsed().as_nanos() as u64);
        r
    }

    /// Multiplies one category's accrued time by `factor` (the S/D CPU
    /// calibration of [`crate::SimConfig::sd_cpu_scale`]).
    pub fn scale_ns(&mut self, cat: Category, factor: f64) {
        let i = cat.index();
        self.ns[i] = (self.ns[i] as f64 * factor) as u64;
    }

    /// Merges another profile into this one (cluster-level aggregation).
    pub fn merge(&mut self, other: &Profile) {
        for i in 0..5 {
            self.ns[i] += other.ns[i];
        }
        self.bytes_local += other.bytes_local;
        self.bytes_remote += other.bytes_remote;
        self.bytes_spilled += other.bytes_spilled;
        self.ser_invocations += other.ser_invocations;
        self.deser_invocations += other.deser_invocations;
        self.objects_transferred += other.objects_transferred;
        self.net_ns += other.net_ns;
    }

    /// Fraction of total time spent in S/D (the paper's ">30%" headline).
    pub fn sd_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        (self.ns(Category::Ser) + self.ns(Category::Deser)) as f64 / total as f64
    }
}

impl std::fmt::Display for Profile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for cat in Category::ALL {
            writeln!(f, "{:<16} {:>12.3} ms", cat.label(), self.ns(cat) as f64 / 1e6)?;
        }
        writeln!(f, "{:<16} {:>12} B", "Local Bytes", self.bytes_local)?;
        writeln!(f, "{:<16} {:>12} B", "Remote Bytes", self.bytes_remote)?;
        write!(f, "{:<16} {:>12}", "S/D calls", self.ser_invocations + self.deser_invocations)
    }
}

/// A named breakdown row for figure/table printing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BreakdownRow {
    /// Row label, e.g. `"LJ-TC / Kryo"`.
    pub label: String,
    /// Milliseconds per category, in [`Category::ALL`] order.
    pub ms: [f64; 5],
    /// Local bytes.
    pub bytes_local: u64,
    /// Remote bytes.
    pub bytes_remote: u64,
}

impl BreakdownRow {
    /// Builds a row from an aggregated profile.
    pub fn from_profile(label: impl Into<String>, p: &Profile) -> Self {
        let mut ms = [0.0; 5];
        for (i, cat) in Category::ALL.into_iter().enumerate() {
            ms[i] = p.ns(cat) as f64 / 1e6;
        }
        BreakdownRow {
            label: label.into(),
            ms,
            bytes_local: p.bytes_local,
            bytes_remote: p.bytes_remote,
        }
    }

    /// Total milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.ms.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accrual_and_total() {
        let mut p = Profile::new();
        p.add_ns(Category::Ser, 100);
        p.add_ns(Category::Deser, 50);
        p.add_ns(Category::Compute, 850);
        assert_eq!(p.total_ns(), 1000);
        assert!((p.sd_fraction() - 0.15).abs() < 1e-9);
    }

    #[test]
    fn measure_charges_something() {
        let mut p = Profile::new();
        let v = p.measure(Category::Compute, || (0..1000).sum::<u64>());
        assert_eq!(v, 499_500);
        // Can't assert a specific duration, but it must be recorded as >= 0
        // and the other categories untouched.
        assert_eq!(p.ns(Category::Ser), 0);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Profile::new();
        a.add_ns(Category::WriteIo, 10);
        a.bytes_local = 5;
        let mut b = Profile::new();
        b.add_ns(Category::WriteIo, 32);
        b.bytes_remote = 7;
        b.ser_invocations = 3;
        a.merge(&b);
        assert_eq!(a.ns(Category::WriteIo), 42);
        assert_eq!(a.bytes_local, 5);
        assert_eq!(a.bytes_remote, 7);
        assert_eq!(a.ser_invocations, 3);
    }

    #[test]
    fn scale_ns_multiplies_one_category() {
        let mut p = Profile::new();
        p.add_ns(Category::Ser, 1000);
        p.add_ns(Category::Deser, 400);
        p.add_ns(Category::Compute, 77);
        p.scale_ns(Category::Ser, 4.0);
        assert_eq!(p.ns(Category::Ser), 4000);
        assert_eq!(p.ns(Category::Deser), 400);
        assert_eq!(p.ns(Category::Compute), 77);
    }

    #[test]
    fn breakdown_row_converts_ns_to_ms() {
        let mut p = Profile::new();
        p.add_ns(Category::ReadIo, 2_500_000);
        let row = BreakdownRow::from_profile("x", &p);
        assert!((row.ms[4] - 2.5).abs() < 1e-9);
        assert!((row.total_ms() - 2.5).abs() < 1e-9);
    }
}
