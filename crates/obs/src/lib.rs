//! `skyway-obs`: the observability layer for the Skyway reproduction.
//!
//! Every shuffle, GC, and transfer path in the workspace reports into this
//! crate: lock-free [`Counter`]s/[`Gauge`]s/[`Histogram`]s keyed by dotted
//! names in a [`Registry`], and a [`Tracer`] whose spans are the one event
//! log (chunks, on-demand class loads, GC pauses and baddr-CAS conflicts
//! are spans or span annotations). A [`Registry::snapshot`] is an owned
//! [`Snapshot`] document that serializes to JSON and renders as a
//! human-readable table.
//!
//! Hot loops count into the stats struct their layer already owns
//! (`SendStats`, `ReceiveStats`, `VmStats`) and feed the registry from it
//! once per stream end or collection, never per object, slot or root.
//!
//! Instrumented components default to the process-wide [`global`]
//! registry but accept an explicit `Arc<Registry>` so tests can assert
//! exact values without cross-test interference.
//!
//! Naming convention: `crate.component.metric`, e.g.
//! `skyway.sender.bytes_cloned`, `mheap.gc.pause_ns`,
//! `serlab.kryo.serialize_ns`.

#![warn(missing_docs)]

mod metrics;
mod snapshot;
mod trace;

pub use metrics::{Counter, Gauge, Histogram, ScopedTimer, HISTOGRAM_BUCKETS};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use trace::{
    chrome_trace_json, critical_path_summary, ActiveSpan, Span, SpanBuffer, TraceCtx, TraceCtxCell,
    Tracer, DEFAULT_SPAN_CAPACITY,
};

/// Canonical dotted names for cross-crate metrics, so producers and the
/// dashboards/tests that read snapshots cannot drift apart. Components
/// with only crate-local readers keep their names at the call site; names
/// listed here are read from *other* crates (bench assertions, CI smoke
/// checks).
pub mod names {
    /// Gauge: chunks currently in flight between pipelined sender and
    /// receiver (bounded by the pipeline depth).
    pub const PIPELINE_CHUNKS_IN_FLIGHT: &str = "skyway.pipeline.chunks_in_flight";
    /// Counter: total real nanoseconds either pipeline end spent blocked
    /// on the chunk channel (sender on full, receiver on empty).
    pub const PIPELINE_STALL_NS: &str = "skyway.pipeline.stall_ns";
    /// Counter: chunk-buffer backings served from the pool.
    pub const PIPELINE_POOL_HITS: &str = "skyway.pipeline.pool_hits";
    /// Counter: chunk-buffer backings freshly allocated (pool empty).
    pub const PIPELINE_POOL_MISSES: &str = "skyway.pipeline.pool_misses";
    /// Histogram: per-chunk receiver wait before the chunk arrived.
    pub const PIPELINE_CHUNK_STALL_NS: &str = "skyway.pipeline.chunk_stall_ns";
    /// Counter: transfers the adaptive policy ran on the inline
    /// (single-chunk, no-overlap) path.
    pub const PIPELINE_MODE_INLINE: &str = "skyway.pipeline.mode_inline";
    /// Counter: transfers the adaptive policy ran on the single-stream
    /// pipelined path.
    pub const PIPELINE_MODE_PIPELINED: &str = "skyway.pipeline.mode_pipelined";
    /// Counter: transfers the adaptive policy ran on the work-stealing
    /// parallel path.
    pub const PIPELINE_MODE_PARALLEL: &str = "skyway.pipeline.mode_parallel";
    /// Counter: transfers that took the same-node zero-copy shared-segment
    /// path instead of any cloning mode.
    pub const PIPELINE_MODE_SHARED: &str = "skyway.pipeline.mode_shared";

    /// Counter: objects visited by the sender's closure traversal.
    pub const SENDER_OBJECTS_VISITED: &str = "skyway.sender.objects_visited";
    /// Counter: object bytes cloned into output buffers.
    pub const SENDER_BYTES_CLONED: &str = "skyway.sender.bytes_cloned";
    /// Counter: baddr-install CAS races lost to a concurrent sender.
    pub const SENDER_CAS_CONFLICTS: &str = "skyway.sender.cas_conflicts";
    /// Counter: objects that took the sidetable fallback instead of a
    /// header baddr.
    pub const SENDER_FALLBACK_HITS: &str = "skyway.sender.fallback_hits";
    /// Histogram: bytes per sealed sender chunk.
    pub const SENDER_CHUNK_BYTES: &str = "skyway.sender.chunk_bytes";
    /// Counter: root batches stolen from a sibling worker's deque by an
    /// idle parallel-traversal worker.
    pub const SENDER_STEALS: &str = "skyway.sender.steals";

    /// Counter: objects absorbed into the receiving heap.
    pub const RECEIVER_OBJECTS_ABSORBED: &str = "skyway.receiver.objects_absorbed";
    /// Counter: object bytes absorbed into the receiving heap.
    pub const RECEIVER_BYTES_ABSORBED: &str = "skyway.receiver.bytes_absorbed";
    /// Counter: chunks absorbed into the receiving heap.
    pub const RECEIVER_CHUNKS_ABSORBED: &str = "skyway.receiver.chunks_absorbed";
    /// Counter: relative references rewritten to absolute addresses.
    pub const RECEIVER_REF_FIXUPS: &str = "skyway.receiver.ref_fixups";
    /// Counter: classes loaded on demand for incoming tIDs (class numbers)
    /// the receiving VM had not loaded.
    pub const RECEIVER_CLASSES_LOADED: &str = "skyway.receiver.classes_loaded";
    /// Histogram: bytes per absorbed chunk.
    pub const RECEIVER_CHUNK_BYTES: &str = "skyway.receiver.chunk_bytes";

    /// Counter: shuffle phases started by the controller.
    pub const SHUFFLE_PHASES_STARTED: &str = "skyway.shuffle.phases_started";
    /// Gauge: the shuffle phase currently in progress.
    pub const SHUFFLE_CURRENT_PHASE: &str = "skyway.shuffle.current_phase";
    /// Counter: stream-ID space wrap-arounds (forces a baddr scrub).
    pub const SHUFFLE_SID_WRAPS: &str = "skyway.shuffle.sid_wraps";
    /// Counter: shuffle streams allocated.
    pub const SHUFFLE_STREAMS_ALLOCATED: &str = "skyway.shuffle.streams_allocated";
    /// Counter: heap-wide baddr scrub passes.
    pub const SHUFFLE_BADDR_SCRUBS: &str = "skyway.shuffle.baddr_scrubs";
    /// Counter: header words cleared by baddr scrub passes.
    pub const SHUFFLE_BADDR_WORDS_SCRUBBED: &str = "skyway.shuffle.baddr_words_scrubbed";

    /// Counter: object graphs sealed into the node-local segment store.
    pub const SEGSTORE_SEALS: &str = "skyway.segstore.seals";
    /// Counter: metadata-only segment attaches served by the store.
    pub const SEGSTORE_ATTACHES: &str = "skyway.segstore.attaches";
    /// Counter: segment detaches (refcount drops) processed by the store.
    pub const SEGSTORE_DETACHES: &str = "skyway.segstore.detaches";
    /// Counter: segments whose memory was reclaimed after the last
    /// attacher dropped and the reclamation epoch advanced.
    pub const SEGSTORE_RECLAIMED: &str = "skyway.segstore.reclaimed";
    /// Counter: bytes written into store-owned memory by seals.
    pub const SEGSTORE_BYTES_SEALED: &str = "skyway.segstore.bytes_sealed";
    /// Counter: bytes a same-node transfer would have cloned but shared
    /// instead (the zero-copy win).
    pub const SEGSTORE_BYTES_NOT_COPIED: &str = "skyway.segstore.bytes_not_copied";
    /// Gauge: sealed segments currently live in the store (attached,
    /// attachable, or awaiting epoch reclamation).
    pub const SEGSTORE_SEGMENTS_LIVE: &str = "skyway.segstore.segments_live";

    /// Counter: full (mark-compact) collections.
    pub const GC_FULL_GCS: &str = "mheap.gc.full_gcs";
    /// Counter: minor (young-generation) collections.
    pub const GC_MINOR_GCS: &str = "mheap.gc.minor_gcs";
    /// Counter: total GC pause nanoseconds.
    pub const GC_PAUSE_NS: &str = "mheap.gc.pause_ns";
    /// Counter: bytes promoted from young to old generation.
    pub const GC_PROMOTED_BYTES: &str = "mheap.gc.promoted_bytes";
    /// Counter: card-table cards scanned by minor collections.
    pub const GC_CARDS_SCANNED: &str = "mheap.gc.cards_scanned";

    /// Counter: trace spans discarded because the span buffer's lifetime
    /// budget ran out. Injected into every snapshot's counter section.
    pub const OBS_SPANS_DROPPED: &str = "skyway.obs.spans_dropped";

    /// Span: one sparklite stage (shuffle) — the per-stage trace root.
    pub const TRACE_STAGE: &str = "trace.stage";
    /// Span: one heap-to-heap transfer (sender, wire, receiver, GC spans
    /// all stitch under this root's trace id).
    pub const TRACE_TRANSFER: &str = "trace.transfer";
    /// Span: one sender traversal burst — the closure traversals feeding
    /// one flushed chunk (or the stream tail); the `roots` annotation
    /// counts the `writeObject` calls it covers.
    pub const TRACE_SENDER_TRAVERSE: &str = "trace.sender.traverse";
    /// Span: sealing + handing one chunk to the carrier.
    pub const TRACE_SENDER_CHUNK_SEND: &str = "trace.sender.chunk_send";
    /// Span: an idle parallel-traversal worker stealing roots from a
    /// sibling's deque; annotated with the victim and batch size.
    pub const TRACE_SENDER_STEAL: &str = "trace.sender.steal";
    /// Span (simulated clock): one chunk occupying the network link.
    pub const TRACE_LINK_XMIT: &str = "trace.link.xmit";
    /// Span: absolutizing one absorbed chunk on the receiver.
    pub const TRACE_RECEIVER_CHUNK_ABSORB: &str = "trace.receiver.chunk_absorb";
    /// Span: draining deferred cross-chunk ref/root fixups.
    pub const TRACE_RECEIVER_FIXUP: &str = "trace.receiver.fixup";
    /// Span: loading a class on demand for an incoming tID (class number)
    /// the receiving VM had not loaded.
    pub const TRACE_REGISTRY_CLASS_LOAD: &str = "trace.registry.class_load";
    /// Span: one GC pause, attributed to the transfer that last touched
    /// the collecting VM's heap.
    pub const TRACE_GC_PAUSE: &str = "trace.gc.pause";
    /// Span: traversing and sealing one graph into a store segment.
    pub const TRACE_SEGSTORE_SEAL: &str = "trace.segstore.seal";
    /// Span: one metadata-only segment attach into a co-located heap.
    pub const TRACE_SEGSTORE_ATTACH: &str = "trace.segstore.attach";
    /// Span: one segment detach (refcount drop, possibly queueing the
    /// segment for epoch reclamation).
    pub const TRACE_SEGSTORE_DETACH: &str = "trace.segstore.detach";
}

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

type MetricMap<T> = RwLock<BTreeMap<String, Arc<T>>>;

/// A named collection of metrics plus a span tracer.
///
/// Metric handles are `Arc`s: a lookup is a read lock (one write lock on
/// first use), an update a plain relaxed atomic.
#[derive(Debug, Default)]
pub struct Registry {
    counters: MetricMap<Counter>,
    gauges: MetricMap<Gauge>,
    histograms: MetricMap<Histogram>,
    tracer: Tracer,
}

impl Registry {
    /// An empty registry with tracing disabled.
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert<T: Default>(map: &MetricMap<T>, name: &str) -> Arc<T> {
        if let Some(m) = map.read().unwrap_or_else(|e| e.into_inner()).get(name) {
            return Arc::clone(m);
        }
        let mut w = map.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(w.entry(name.to_owned()).or_default())
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::get_or_insert(&self.counters, name)
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::get_or_insert(&self.gauges, name)
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Self::get_or_insert(&self.histograms, name)
    }

    /// The span tracer (disabled until [`Tracer::set_enabled`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Captures everything into an owned, serializable [`Snapshot`].
    ///
    /// The loss counter [`names::OBS_SPANS_DROPPED`] is injected into the
    /// counter section, so "did we silently lose telemetry?" is answerable
    /// from every snapshot (JSON and text table alike).
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: BTreeMap<String, u64> = self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        counters.insert(names::OBS_SPANS_DROPPED.to_owned(), self.tracer.dropped());
        let gauges = self
            .gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), HistogramSnapshot::capture(v)))
            .collect();
        Snapshot { counters, gauges, histograms }
    }

    /// Zeroes every metric and clears the span buffer. Metric handles
    /// stay valid. Intended for tests and between bench repetitions.
    pub fn reset(&self) {
        for c in self.counters.read().unwrap_or_else(|e| e.into_inner()).values() {
            c.reset();
        }
        for g in self.gauges.read().unwrap_or_else(|e| e.into_inner()).values() {
            g.reset();
        }
        for h in self.histograms.read().unwrap_or_else(|e| e.into_inner()).values() {
            h.reset();
        }
        self.tracer.clear();
    }
}

/// The process-wide registry instrumented components default to.
pub fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

/// CPU time consumed by the *calling thread*, in nanoseconds.
///
/// Parallel-transfer workers time their traversal/absorption with this
/// instead of wall clock: on a host with fewer cores than workers, wall
/// time charges every worker for its siblings' timeslices and inflates
/// per-lane cost by roughly the oversubscription factor, while thread
/// CPU time stays honest. Falls back to a thread-local monotonic clock
/// where the per-thread clock is unavailable.
pub fn thread_cpu_ns() -> u64 {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        let mut ts = [0i64; 2]; // timespec: tv_sec, tv_nsec
        const CLOCK_THREAD_CPUTIME_ID: u64 = 3;
        const SYS_CLOCK_GETTIME: u64 = 228;
        let ret: i64;
        // SAFETY: clock_gettime(CLOCK_THREAD_CPUTIME_ID, ts) only writes
        // 16 bytes into `ts`, a valid exclusively-owned stack buffer;
        // rcx/r11 (clobbered by `syscall`) are declared as outputs.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_CLOCK_GETTIME as i64 => ret,
                in("rdi") CLOCK_THREAD_CPUTIME_ID,
                in("rsi") ts.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        if ret == 0 {
            return (ts[0] as u64).saturating_mul(1_000_000_000).saturating_add(ts[1] as u64);
        }
    }
    #[allow(unreachable_code)]
    {
        use std::cell::Cell;
        use std::time::Instant;
        thread_local! {
            static ANCHOR: Cell<Option<Instant>> = const { Cell::new(None) };
        }
        ANCHOR.with(|a| {
            let anchor = match a.get() {
                Some(t) => t,
                None => {
                    let t = Instant::now();
                    a.set(Some(t));
                    t
                }
            };
            anchor.elapsed().as_nanos() as u64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_handles_are_shared() {
        let r = Registry::new();
        r.counter("x").add(2);
        r.counter("x").add(3);
        assert_eq!(r.counter("x").get(), 5);
        r.gauge("g").add(-4);
        assert_eq!(r.gauge("g").get(), -4);
        r.histogram("h").record(9);
        assert_eq!(r.histogram("h").count(), 1);
    }

    #[test]
    fn snapshot_captures_all_sections() {
        let r = Registry::new();
        r.counter("c").add(7);
        r.gauge("g").set(1);
        r.histogram("h").record(100);
        let s = r.snapshot();
        assert_eq!(s.counter("c"), 7);
        assert_eq!(s.gauge("g"), 1);
        assert_eq!(s.histograms["h"].count, 1);
    }

    #[test]
    fn snapshot_injects_loss_counters() {
        let s = Registry::new().snapshot();
        assert_eq!(s.counters.get(names::OBS_SPANS_DROPPED), Some(&0));
        assert!(s.to_string().contains(names::OBS_SPANS_DROPPED), "text table shows the loss");
    }

    #[test]
    fn reset_clears_tracer_spans() {
        let r = Registry::new();
        r.tracer().set_enabled(true);
        let ctx = r.tracer().new_trace();
        r.tracer().start(names::TRACE_TRANSFER, ctx, "n").finish();
        assert_eq!(r.tracer().spans().len(), 1);
        r.reset();
        assert!(r.tracer().spans().is_empty());
    }

    #[test]
    fn reset_zeroes_without_invalidating_handles() {
        let r = Registry::new();
        let c = r.counter("c");
        c.add(10);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.snapshot().counter("c"), 1);
    }

    #[test]
    fn thread_cpu_clock_advances_and_is_per_thread() {
        let t0 = thread_cpu_ns();
        // Burn a little CPU so the thread clock must move.
        let mut acc = 0u64;
        for i in 0..200_000_u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let t1 = thread_cpu_ns();
        assert!(t1 > t0, "thread CPU clock did not advance: {t0} -> {t1}");
        // A freshly spawned idle-ish thread reports far less CPU than
        // one that just burned a loop; sanity-check it is at least
        // readable there too.
        let child = std::thread::spawn(thread_cpu_ns).join().expect("join");
        assert!(child < u64::MAX);
    }

    #[test]
    fn global_is_a_singleton() {
        let a = Arc::clone(global());
        let b = Arc::clone(global());
        assert!(Arc::ptr_eq(&a, &b));
    }
}
