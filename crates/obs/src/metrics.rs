//! Lock-free metric primitives: counters, gauges, log-bucketed histograms,
//! and scoped timers.
//!
//! Everything here is updated with relaxed atomics — hot paths (the
//! sender's per-object visit loop, the receiver's per-slot fixup loop) pay
//! one `fetch_add` per update and never take a lock. Reads (snapshots,
//! percentiles) are racy by design: they see some consistent-enough recent
//! state, which is all an observability layer needs.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests and per-run dumps).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A value that moves both ways (live bytes, in-flight chunks, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the absolute value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.set(0);
    }
}

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i - 1]`, up to bucket 64 for values with
/// the top bit set.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples (latencies in ns, sizes in
/// bytes). Recording is one relaxed `fetch_add` into the value's power-of-
/// two bucket plus bookkeeping for count/sum/min/max; percentiles are
/// estimated by linear interpolation inside the selected bucket.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket a value lands in: 0 for 0, else `floor(log2(v)) + 1`.
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive `(low, high)` value bounds of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            64 => (1u64 << 63, u64::MAX),
            _ => (1u64 << (i - 1), (1u64 << i) - 1),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0.0 when empty).
    // tidy:allow(unreached-pub, read by obs's histogram test empty_histogram_is_all_zeros)
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimates the `p`-th percentile (`0.0..=100.0`): walks the
    /// cumulative bucket counts to the bucket containing the target rank,
    /// then interpolates linearly between the bucket's bounds by the
    /// rank's position inside the bucket.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * count as f64).ceil().clamp(1.0, count as f64) as u64;
        let mut cum = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            let c = self.buckets[i].load(Ordering::Relaxed);
            if c > 0 && cum + c >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                let within = (rank - cum) as f64 / c as f64;
                return lo + ((hi - lo) as f64 * within).round() as u64;
            }
            cum += c;
        }
        // Racy snapshot (count read before buckets); fall back to max.
        self.max()
    }

    /// Raw bucket counts, for tests and snapshots.
    // tidy:allow(unreached-pub, read by obs's histogram tests of bucket placement)
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Clears all samples.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Records wall-clock nanoseconds into a histogram when dropped.
///
/// ```
/// let h = std::sync::Arc::new(obs::Histogram::new());
/// {
///     let _t = obs::ScopedTimer::new(std::sync::Arc::clone(&h));
///     // ... timed work ...
/// }
/// assert_eq!(h.count(), 1);
/// ```
#[derive(Debug)]
pub struct ScopedTimer {
    hist: Arc<Histogram>,
    start: Instant,
}

impl ScopedTimer {
    /// Starts timing now.
    pub fn new(hist: Arc<Histogram>) -> Self {
        ScopedTimer { hist, start: Instant::now() }
    }

    /// Nanoseconds elapsed so far.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        self.hist.record(self.elapsed_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.add(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        g.set(-5);
        assert_eq!(g.get(), -5);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn scoped_timer_records_on_drop() {
        let h = Arc::new(Histogram::new());
        {
            let _t = ScopedTimer::new(Arc::clone(&h));
        }
        assert_eq!(h.count(), 1);
    }
}
