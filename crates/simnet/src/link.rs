//! Overlap-aware link scheduling for chunk-granularity transfer.
//!
//! [`Cluster::net_recv`](crate::Cluster::net_recv) charges whole-payload
//! time: `latency + bytes / bandwidth` per message, which models a
//! store-and-forward transfer where nothing else happens while the payload
//! is on the wire. A pipelined shuffle overlaps traversal, transfer, and
//! absorption, so its simulated cost is a *schedule*, not a sum:
//! [`LinkClock`] serializes chunk transmissions on one link (a link carries
//! one chunk at a time) while letting producer and consumer time run
//! concurrently with the wire time.
//!
//! All times are nanoseconds on a single simulated timeline starting at 0.

use crate::cluster::SimConfig;

/// Schedules transmissions on one point-to-point link.
///
/// For each chunk that becomes ready (fully produced) at time `ready`,
/// [`LinkClock::send`] charges transmission starting when both the chunk
/// and the link are available, and returns the arrival time at the far
/// end (one-way latency added once per chunk — chunks are cut-through,
/// so latencies of consecutive chunks overlap on the wire).
#[derive(Debug, Clone)]
pub struct LinkClock {
    bandwidth_bps: u64,
    latency_ns: u64,
    free_at_ns: u64,
    busy_ns: u64,
}

impl LinkClock {
    /// A clock for one link under `cfg`'s bandwidth/latency model.
    pub fn new(cfg: &SimConfig) -> Self {
        LinkClock {
            bandwidth_bps: cfg.net_bandwidth_bps.max(1),
            latency_ns: cfg.net_latency_ns,
            free_at_ns: 0,
            busy_ns: 0,
        }
    }

    /// Schedules a chunk of `bytes` that becomes ready at `ready_ns`.
    /// Returns its arrival time at the receiver.
    pub fn send(&mut self, ready_ns: u64, bytes: u64) -> u64 {
        self.send_traced(ready_ns, bytes).arrival_ns
    }

    /// Like [`LinkClock::send`], but also reports the wire-occupancy
    /// interval so callers can emit a simulated-clock trace span for the
    /// transmission.
    pub fn send_traced(&mut self, ready_ns: u64, bytes: u64) -> LinkXmit {
        let start = self.free_at_ns.max(ready_ns);
        let tx = bytes.saturating_mul(1_000_000_000) / self.bandwidth_bps;
        self.free_at_ns = start.saturating_add(tx);
        self.busy_ns += tx;
        LinkXmit {
            start_ns: start,
            end_ns: self.free_at_ns,
            arrival_ns: self.free_at_ns.saturating_add(self.latency_ns),
        }
    }

    /// Total wire-occupancy time charged so far (excludes latency).
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }
}

/// One scheduled transmission on the simulated timeline: when the chunk
/// occupied the wire and when it arrived at the far end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkXmit {
    /// Wire occupancy begins (chunk and link both available).
    pub start_ns: u64,
    /// Wire occupancy ends (transmission complete, pre-latency).
    pub end_ns: u64,
    /// Arrival at the receiver (`end_ns` + one-way latency).
    pub arrival_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            net_bandwidth_bps: 1_000_000_000, // 1 ns per byte
            net_latency_ns: 50,
            ..SimConfig::default()
        }
    }

    #[test]
    fn back_to_back_chunks_serialize_on_the_wire() {
        let mut l = LinkClock::new(&cfg());
        // Both ready at t=0: the second waits for the link.
        assert_eq!(l.send(0, 100), 150); // 0..100 on wire, +50 latency
        assert_eq!(l.send(0, 100), 250); // 100..200 on wire, +50
        assert_eq!(l.busy_ns(), 200);
    }

    #[test]
    fn late_chunk_waits_for_production_not_link() {
        let mut l = LinkClock::new(&cfg());
        assert_eq!(l.send(0, 100), 150);
        // Ready only at t=500, link free since t=100: starts at 500.
        assert_eq!(l.send(500, 100), 650);
        // The link is free again at t=600: an empty send starts there.
        assert_eq!(l.send_traced(0, 0).start_ns, 600);
    }

    #[test]
    fn traced_send_reports_the_occupancy_interval() {
        let mut l = LinkClock::new(&cfg());
        assert_eq!(l.send(0, 100), 150);
        // Ready at t=50 but the link is busy until t=100.
        let x = l.send_traced(50, 100);
        assert_eq!(x, LinkXmit { start_ns: 100, end_ns: 200, arrival_ns: 250 });
        assert_eq!(l.busy_ns(), 200);
    }

    #[test]
    fn lane_accounting_splits_shared_wire_time() {
        let mut l = LinkClock::new(&cfg());
        l.send_traced(0, 100);
        l.send_traced(0, 300);
        let x = l.send_traced(0, 100);
        // Every stream's chunks share one wire: the last queues behind both others.
        assert_eq!(x.start_ns, 400);
        assert_eq!(l.busy_ns(), 500);
    }

    #[test]
    fn overlapped_schedule_beats_whole_payload_charge() {
        let c = cfg();
        let mut l = LinkClock::new(&c);
        // Producer emits a chunk every 100 ns; wire also needs 100 ns per
        // chunk: perfect overlap means last arrival ≈ produce + one chunk.
        let mut arrival = 0;
        for i in 0..10u64 {
            arrival = l.send(i * 100, 100);
        }
        assert_eq!(arrival, 1050);
        // The sequential model would pay produce (1000) then the whole
        // payload (1000 + 50) after it: strictly worse.
        assert!(arrival < 1000 + 1050);
    }
}
