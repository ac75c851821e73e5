//! The declared metrics and workloads — the single list the runner, the
//! JSON line, the README table and `BENCHMARK.json` agree on (a test
//! compares this file with `BENCHMARK.json`).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name (`layer.metric`; modeled figures end in `.modeled`).
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; per-layer metrics carry no bound).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// End-to-end metrics: measured wall, counts and memory a user of the
/// system sees. Every workload reports every one of them.
///
/// The two timing bounds are 25 %, not the 10 % the issue asked for: the
/// reference host's speed states put the run-to-run spread of the
/// single-threaded workloads at 5-16 % whatever the estimator
/// (`README.md` records the spreads next to the bounds).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("objs_per_s", "objects/s", Higher, 0.25),
    e2e("wire_bytes_per_obj", "bytes", Lower, 0.02),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

// The collector and heap rows are named after their module like every
// other row, which makes them look like `obs` registry names to
// skyway-tidy's `metric-literal` rule. They are rows of this benchmark's
// ledger, so each definition carries a waiver and the rest of the crate
// refers to the consts.
/// Ledger row `mheap.gc.minor_ms`.
pub const GC_MINOR_MS: &str = "mheap.gc.minor_ms"; // tidy:allow(metric-literal, benchmark ledger row named after its module; not an obs registry metric)
/// Ledger row `mheap.gc.full_ms`.
pub const GC_FULL_MS: &str = "mheap.gc.full_ms"; // tidy:allow(metric-literal, benchmark ledger row named after its module; not an obs registry metric)
/// Ledger row `mheap.gc.minor_count`.
pub const GC_MINOR_COUNT: &str = "mheap.gc.minor_count"; // tidy:allow(metric-literal, benchmark ledger row named after its module; not an obs registry metric)
/// Ledger row `mheap.gc.full_count`.
pub const GC_FULL_COUNT: &str = "mheap.gc.full_count"; // tidy:allow(metric-literal, benchmark ledger row named after its module; not an obs registry metric)
/// Ledger row `mheap.gc.bytes_promoted`.
pub const GC_BYTES_PROMOTED: &str = "mheap.gc.bytes_promoted"; // tidy:allow(metric-literal, benchmark ledger row named after its module; not an obs registry metric)
/// Ledger row `mheap.heap.build_ms`.
pub const HEAP_BUILD_MS: &str = "mheap.heap.build_ms"; // tidy:allow(metric-literal, benchmark ledger row named after its module; not an obs registry metric)
/// Ledger row `mheap.heap.peak_used_mb`.
pub const HEAP_PEAK_USED_MB: &str = "mheap.heap.peak_used_mb"; // tidy:allow(metric-literal, benchmark ledger row named after its module; not an obs registry metric)
/// Ledger row `mheap.verify.verify_ms`.
pub const VERIFY_MS: &str = "mheap.verify.verify_ms"; // tidy:allow(metric-literal, benchmark ledger row named after its module; not an obs registry metric)

/// Per-layer metrics (layer = module name). Every workload reports every
/// one of them; a layer the workload bypasses reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("core.sender.produce_ms", "ms", Lower),
    layer("core.sender.ns_per_obj", "ns/obj", Lower),
    layer("core.sender.objects", "count", Lower),
    layer("core.sender.wire_bytes", "bytes", Lower),
    layer("core.sender.header_bytes", "bytes", Lower),
    layer("core.sender.padding_bytes", "bytes", Lower),
    layer("core.sender.pointer_bytes", "bytes", Lower),
    layer("core.sender.fallback_hits", "count", Lower),
    layer("core.buffer.frame_ms", "ms", Lower),
    layer("core.buffer.pool_hit_ratio", "ratio", Higher),
    layer("core.pipeline.overlap_saved_ms", "ms", Higher),
    layer("core.pipeline.sender_stall_ms", "ms", Lower),
    layer("core.pipeline.receiver_stall_ms", "ms", Lower),
    layer("core.pipeline.max_in_flight", "count", Higher),
    layer("core.pipeline.chunks", "count", Lower),
    layer("core.pipeline.inline_share", "ratio", Higher),
    layer("core.pipeline.transfer_p99_ms", "ms", Lower),
    layer("core.receiver.absorb_ms", "ms", Lower),
    layer("core.receiver.finish_ms", "ms", Lower),
    layer("core.receiver.ref_fixups", "count", Lower),
    layer("core.receiver.cards_dirtied", "count", Lower),
    layer("core.receiver.classes_loaded", "count", Lower),
    layer("core.registry.lookups", "count", Lower),
    layer("core.registry.view_pulls", "count", Lower),
    layer("core.registry.string_bytes", "bytes", Lower),
    layer("core.serializer.ser_ms", "ms", Lower),
    layer("core.serializer.deser_ms", "ms", Lower),
    layer("segstore.seal_ms", "ms", Lower),
    layer("segstore.attach_us", "us", Lower),
    layer("segstore.extra_attach_us", "us", Lower),
    layer("segstore.detach_us", "us", Lower),
    layer("segstore.reclaim_us", "us", Lower),
    layer("segstore.bytes_not_copied", "bytes", Higher),
    layer(GC_MINOR_MS, "ms", Lower),
    layer(GC_FULL_MS, "ms", Lower),
    layer(GC_MINOR_COUNT, "count", Lower),
    layer(GC_FULL_COUNT, "count", Lower),
    layer(GC_BYTES_PROMOTED, "bytes", Lower),
    layer(HEAP_BUILD_MS, "ms", Lower),
    layer(HEAP_PEAK_USED_MB, "MiB", Lower),
    layer(VERIFY_MS, "ms", Lower),
    layer("simnet.link_busy_ms.modeled", "ms", Lower),
    layer("simnet.scheduled_wall_ms.modeled", "ms", Lower),
    layer("sparklite.compute_ms", "ms", Lower),
    layer("sparklite.shuffle_bytes", "bytes", Lower),
    layer("sparklite.objects_transferred", "count", Lower),
    layer("sparklite.write_io_ms.modeled", "ms", Lower),
    layer("sparklite.read_io_ms.modeled", "ms", Lower),
    layer("serlab.kryo_job_p50_s", "s", Lower),
    layer("obs.trace_overhead_pct", "%", Lower),
    layer("obs.spans_per_transfer", "count", Lower),
    layer("bench.staged_total_ms", "ms", Lower),
    layer("bench.layer_sum_ratio", "ratio", Higher),
    layer("bench.span_overhead_pct", "%", Lower),
    layer("bench.failed_share", "ratio", Lower),
    layer("bench.samples", "count", Higher),
];

/// The five workloads. Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2 000 JSBS records through `PipelineEngine::transfer` (pipelined).
    GraphClone,
    /// 690 reference-free edge records, one stream per transfer (inline).
    FlatShuffle,
    /// The graph-clone payload through `segstore::shared_transfer`.
    ColocatedAttach,
    /// graph-clone's transfer with the collector timed in the cycle.
    RecvGc,
    /// `sparklite` WordCount with the Skyway serializer.
    SparkWc,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::GraphClone,
        Workload::FlatShuffle,
        Workload::ColocatedAttach,
        Workload::RecvGc,
        Workload::SparkWc,
    ];

    /// The fixed workload name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GraphClone => "graph-clone",
            Workload::FlatShuffle => "flat-shuffle",
            Workload::ColocatedAttach => "colocated-attach",
            Workload::RecvGc => "recv-gc",
            Workload::SparkWc => "spark-wc",
        }
    }

    /// Why the workload exists (one line; `BENCHMARK.json` carries the same).
    pub fn why(self) -> &'static str {
        match self {
            Workload::GraphClone => {
                "pointer-rich 50k-object graph, pipelined mode: loads core.sender, core.receiver and core.pipeline overlap"
            }
            Workload::FlatShuffle => {
                "690 reference-free records per stream, inline gate: per-transfer fixed costs dominate, pipeline and fixups bypassed"
            }
            Workload::ColocatedAttach => {
                "same graph through segstore seal+attach: hash-table sender path, bypasses core.receiver, core.pipeline and the card table"
            }
            Workload::RecvGc => {
                "graph-clone transfer with handles, minor_gc and periodic full_gc inside the timed cycle: collector cost beside the transfer"
            }
            Workload::SparkWc => {
                "sparklite WordCount via SkywaySerializer, framing and spill/fetch: the application path where core does little"
            }
        }
    }

    /// Parses a workload name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}
