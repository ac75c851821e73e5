//! `skybench` — the one measured-wall benchmark of the Skyway
//! reproduction: five workloads, end-to-end metrics measured with every
//! tracer off, and a separate traced run that yields the per-layer ledger.
//!
//! Everything an end-to-end metric reports is wall time between
//! `Instant`s around public calls, an exact count, or process memory.
//! Anything derived from `SimConfig` / `LinkClock` /
//! `PipelineReport::pipelined_ns` is a per-layer metric whose name ends in
//! `.modeled`. See `README.md` for the workload and metric rationale.

#![warn(missing_docs)]

pub mod catalog;
pub mod host;
pub mod inputs;
pub mod spans;
pub mod stats;

mod sparkwc;
mod transfer;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::Value;
use sparklite::SerializerKind;

use catalog::{MetricDef, Workload, END_TO_END, PER_LAYER};
use inputs::Size;
use spans::SpanLog;
use sparkwc::{JobLedger, WcRig};
use stats::{median, quantile, sustained_op_ns, sustained_rate, ten_blocks};
use transfer::{Rig, Window};

/// Result alias of the harness: any layer's error, boxed.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Spans the staged pass may record before it stops early.
const SPAN_CAPACITY: usize = 400_000;
/// Staged transfers written to the Chrome trace file.
const TRACE_FILE_TRANSFERS: u32 = 32;
/// Kryo reference jobs behind `serlab.kryo_job_p50_s`.
const KRYO_JOBS: usize = 3;
/// Wall the repeated set-ups of one run may take beyond `Plan::setups`.
const SETUP_BUDGET: Duration = Duration::from_millis(300);
/// Upper limit on set-ups per run.
const MAX_SETUPS: usize = 201;

/// How one run is shaped. The seed shapes the inputs and nothing else.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Input seed.
    pub seed: u64,
    /// The measured window.
    pub window: Duration,
    /// Untimed warm-up before the window.
    pub warmup: Duration,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Payload sizes.
    pub size: Size,
    /// Where trace and result files go.
    pub out_dir: PathBuf,
}

impl Plan {
    /// The plan `BENCHMARK.json` runs: full payloads, 2 s warm-up, five
    /// set-ups, a window of `seconds`.
    pub fn full(seed: u64, seconds: f64) -> Plan {
        Plan {
            seed,
            window: Duration::from_secs_f64(seconds),
            warmup: Duration::from_secs(2),
            setups: 5,
            size: Size::Full,
            out_dir: out_dir(),
        }
    }

    /// `--quick`: scaled-down payloads and 1 s windows — a smoke run that
    /// keeps every metric flowing, not a measurement.
    pub fn quick(seed: u64) -> Plan {
        Plan {
            seed,
            window: Duration::from_secs(1),
            warmup: Duration::from_millis(200),
            setups: 2,
            size: Size::Quick,
            out_dir: out_dir(),
        }
    }
}

/// `$CARGO_TARGET_DIR/skybench` (or `target/skybench`): build output the
/// repository already ignores.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned()))
        .join("skybench")
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// `true`: the traced run (per-layer metrics); `false`: end-to-end.
    pub traced: bool,
    /// Every declared metric of the run's kind, in catalog order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Operations attempted, warm-up and final checks included.
    pub attempted: u64,
    /// Operations that returned `Err` or failed the output check.
    pub failed: u64,
    /// Timed samples behind the medians.
    pub samples: u64,
    /// Counted, untimed events worth a line (id wraps, scrubs, …).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(d, _)| d.name == name).map(|(_, v)| *v)
    }

    /// The one-line JSON object the benchmark contract asks for.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(d, v)| {
                let cell = Value::Map(vec![
                    ("value".to_owned(), Value::Float(*v)),
                    ("unit".to_owned(), Value::Str(d.unit.to_owned())),
                ]);
                (d.name.to_owned(), cell)
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".to_owned(), Value::Bool(self.failed == 0)),
            ("attempted".to_owned(), Value::UInt(self.attempted.max(1))),
            ("failed".to_owned(), Value::UInt(self.failed)),
            ("metrics".to_owned(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("the value model always serializes")
    }

    /// Every metric by name with its unit, one per line.
    pub fn print(&self) {
        println!(
            "--- {} ({}) — {} samples, {} attempted, {} failed",
            self.workload.name(),
            if self.traced { "traced run, per-layer" } else { "end-to-end" },
            self.samples,
            self.attempted,
            self.failed
        );
        for (d, v) in &self.metrics {
            println!("{:<36} {:>16.4} {}", d.name, v, d.unit);
        }
        for n in &self.notes {
            println!("note: {n}");
        }
    }
}

/// Collects values by metric name and lays them out in catalog order;
/// names the workload does not touch read 0.
struct MetricSet(BTreeMap<&'static str, f64>);

impl MetricSet {
    fn new() -> Self {
        MetricSet(BTreeMap::new())
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn finish(self, defs: &'static [MetricDef]) -> Vec<(MetricDef, f64)> {
        for name in self.0.keys() {
            assert!(defs.iter().any(|d| d.name == *name), "undeclared metric {name}");
        }
        defs.iter().map(|d| (*d, self.0.get(d.name).copied().unwrap_or(0.0))).collect()
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn ops_ns(w: &Window) -> Vec<f64> {
    w.ops.iter().map(|o| o.0 as f64).collect()
}

/// Block boundaries for `objs_per_s`: ten equal blocks of operations —
/// except on recv-gc, where a block is one whole full-GC period (every
/// block then carries exactly one in-cycle `full_gc`, so the amortised
/// collection cost does not depend on where the window happened to end).
fn rate_bounds(w: &Window) -> Vec<usize> {
    if w.full_gc_ops.len() >= 3 {
        w.full_gc_ops.iter().map(|i| i + 1).collect()
    } else {
        ten_blocks(w.ops.len())
    }
}

fn end_to_end(
    workload: Workload,
    setup_s: &[f64],
    peak_rss_mb: f64,
    w: &Window,
    warm: &Window,
    notes: Vec<String>,
) -> Outcome {
    let mut m = MetricSet::new();
    m.put("setup_s", median(setup_s));
    m.put("op_p50_ms", ms(sustained_op_ns(&w.ops, &ten_blocks(w.ops.len()))));
    m.put("objs_per_s", sustained_rate(&w.ops, &rate_bounds(w)));
    m.put("wire_bytes_per_obj", w.wire_bytes as f64 / w.objects.max(1) as f64);
    m.put("peak_rss_mb", peak_rss_mb);
    Outcome {
        workload,
        traced: false,
        metrics: m.finish(END_TO_END),
        attempted: w.attempted + warm.attempted,
        failed: w.failed + warm.failed,
        samples: w.ops.len() as u64,
        notes,
    }
}

/// Runs `build` at least `n` times — and, where one set-up takes well
/// under a millisecond, until [`SETUP_BUDGET`] is spent, so the median is
/// over enough samples to repeat. Only the last rig is kept alive.
/// Returns it with every set-up's wall in seconds.
fn set_up<T>(n: usize, mut build: impl FnMut() -> Res<T>) -> Res<(T, Vec<f64>)> {
    let mut walls = Vec::with_capacity(n);
    let mut last = None;
    let t0 = Instant::now();
    while walls.len() < n.max(1) || (t0.elapsed() < SETUP_BUDGET && walls.len() < MAX_SETUPS) {
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        walls.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), walls))
}

/// Peak resident set of the workload so far. Read before the final
/// output checks: `verify_heap` builds harness-side sets whose size
/// follows how full the receiver happened to be when the window ended.
fn peak_rss_now() -> f64 {
    host::peak_rss_mb().unwrap_or(0.0)
}

/// The end-to-end run of one workload: tracers off, bench spans off.
fn run_untraced(workload: Workload, plan: &Plan) -> Res<Outcome> {
    obs::global().tracer().set_enabled(false);
    if workload == Workload::SparkWc {
        let (mut rig, setup_s) =
            set_up(plan.setups, || WcRig::build(plan.seed, plan.size, SerializerKind::Skyway))?;
        let (mut warm, mut w, mut ledger) =
            (Window::default(), Window::default(), JobLedger::default());
        rig.job(&mut warm, &mut JobLedger::default());
        let t0 = Instant::now();
        while t0.elapsed() < plan.window {
            rig.job(&mut w, &mut ledger);
        }
        let peak = peak_rss_now();
        rig.verify(&mut w)?;
        return Ok(end_to_end(workload, &setup_s, peak, &w, &warm, Vec::new()));
    }
    let (mut rig, setup_s) = set_up(plan.setups, || Rig::build(workload, plan.seed, plan.size))?;
    let warm = rig.window(plan.warmup);
    let mut w = rig.window(plan.window);
    let peak = peak_rss_now();
    rig.final_checks(&mut w)?;
    let notes = vec![format!(
        "{} stream-id wraps, {} sID scrubs (untimed){}",
        rig.stream_wraps,
        rig.sid_scrubs,
        if workload == Workload::ColocatedAttach { "; 0 bytes copied" } else { "" }
    )];
    Ok(end_to_end(workload, &setup_s, peak, &w, &warm, notes))
}

/// Per-transfer sums of the self times of `names` (all recorded once per
/// staged transfer, so their vectors line up).
fn per_transfer(by: &BTreeMap<&'static str, Vec<f64>>, names: &[&str]) -> Vec<f64> {
    let cols: Vec<&Vec<f64>> = names.iter().filter_map(|k| by.get(k)).collect();
    let n = cols.iter().map(|c| c.len()).min().unwrap_or(0);
    (0..n).map(|i| cols.iter().map(|c| c[i]).sum()).collect()
}

fn pct_over(on: f64, off: f64) -> f64 {
    if off > 0.0 {
        (on - off) / off * 100.0
    } else {
        0.0
    }
}

/// The staged pass: `dur` of transfers driven one layer call at a time.
/// Returns the span log, the staged totals (ns) and modeled link-busy ns.
fn staged_pass(
    rig: &mut Rig,
    dur: Duration,
    spans_on: bool,
    w: &mut Window,
) -> Res<(SpanLog, Vec<f64>, Vec<f64>)> {
    let mut log = SpanLog::new(SPAN_CAPACITY, spans_on);
    let (mut totals, mut link) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut id = 0u32;
    while t0.elapsed() < dur && !log.nearly_full(16) {
        let (total_ns, link_ns) = rig.staged_op(&mut log, id, w)?;
        totals.push(total_ns as f64);
        link.push(link_ns as f64);
        id += 1;
    }
    Ok((log, totals, link))
}

/// The traced run of one workload: an untraced reference window, the
/// staged pass with bench spans on and off, and (engine workloads) a
/// window under the program's own `obs` tracer.
fn run_traced(workload: Workload, plan: &Plan) -> Res<Outcome> {
    obs::global().tracer().set_enabled(false);
    if workload == Workload::SparkWc {
        return run_traced_wc(plan);
    }
    let engine = workload != Workload::ColocatedAttach;
    let mut rig = Rig::build(workload, plan.seed, plan.size)?;
    let census = rig.census()?;
    let mut warm = rig.window(plan.warmup);

    let reg0 = rig.dir.stats();
    let gc0 = rig.receiver.stats;
    let mut w = rig.window(plan.window.mul_f64(0.3));
    let reg1 = rig.dir.stats();
    let gc1 = rig.receiver.stats;
    let transfers = w.ops.len().max(1) as f64;
    let op_p50 = median(&ops_ns(&w));

    let (log, totals, link) = staged_pass(&mut rig, plan.window.mul_f64(0.3), true, &mut warm)?;
    let (_, totals_off, _) = staged_pass(&mut rig, plan.window.mul_f64(0.2), false, &mut warm)?;
    let by = log.self_ns_by_name();
    let col = |names: &[&str]| median(&per_transfer(&by, names));

    let mut m = MetricSet::new();
    let s = &census.send_stats;
    let produce_ns = if engine {
        col(&[
            "core.sender.new",
            "core.sender.estimate_flat",
            "core.sender.write_roots",
            "core.sender.finish",
        ])
    } else {
        col(&["core.sender.hash_traversal"])
    };
    m.put("core.sender.produce_ms", ms(produce_ns));
    m.put("core.sender.ns_per_obj", produce_ns / s.objects.max(1) as f64);
    m.put("core.sender.objects", s.objects as f64);
    m.put("core.sender.wire_bytes", s.total_bytes as f64);
    m.put("core.sender.header_bytes", s.header_bytes as f64);
    m.put("core.sender.padding_bytes", s.padding_bytes as f64);
    m.put("core.sender.pointer_bytes", s.pointer_bytes as f64);
    m.put("core.sender.fallback_hits", s.fallback_hits as f64);

    let staged_total = median(&totals);
    m.put("bench.staged_total_ms", ms(staged_total));
    m.put("bench.layer_sum_ratio", median(&log.layer_sum_ratios()));
    m.put("bench.span_overhead_pct", pct_over(staged_total, median(&totals_off)));

    if engine {
        m.put("core.buffer.frame_ms", ms(col(&["core.buffer.frame"])));
        let acquisitions = (w.pool_hits + w.pool_misses).max(1) as f64;
        m.put("core.buffer.pool_hit_ratio", w.pool_hits as f64 / acquisitions);
        m.put("core.pipeline.overlap_saved_ms", ms(staged_total - op_p50));
        m.put("core.pipeline.sender_stall_ms", ms(median(&w.sender_stall_ns)));
        m.put("core.pipeline.receiver_stall_ms", ms(median(&w.receiver_stall_ns)));
        m.put("core.pipeline.max_in_flight", w.max_in_flight as f64);
        m.put("core.pipeline.chunks", census.chunk_bytes.len() as f64);
        m.put("core.pipeline.inline_share", w.inline as f64 / transfers);
        m.put("core.pipeline.transfer_p99_ms", ms(quantile(&w.transfer_ns, 0.99)));
        m.put("core.receiver.absorb_ms", ms(col(&["core.receiver.new", "core.receiver.absorb"])));
        m.put("core.receiver.finish_ms", ms(col(&["core.receiver.finish"])));
        let r = &census.recv_stats;
        m.put("core.receiver.ref_fixups", r.ref_fixups as f64);
        m.put("core.receiver.cards_dirtied", r.cards_dirtied as f64);
        m.put("core.receiver.classes_loaded", r.classes_loaded as f64);
        m.put("simnet.link_busy_ms.modeled", ms(median(&link)));
        m.put("simnet.scheduled_wall_ms.modeled", ms(median(&w.scheduled_ns)));
    } else {
        m.put("segstore.seal_ms", ms(col(&["segstore.seal"])));
        m.put("segstore.attach_us", col(&["segstore.attach"]) / 1e3);
        m.put("segstore.extra_attach_us", col(&["segstore.extra_attach"]) / 1e3);
        m.put("segstore.detach_us", col(&["segstore.detach"]) / 1e3);
        m.put("segstore.reclaim_us", col(&["segstore.reclaim"]) / 1e3);
        m.put("segstore.bytes_not_copied", census.recv_stats.bytes as f64);
    }
    m.put("core.registry.lookups", (reg1.lookups - reg0.lookups) as f64 / transfers);
    m.put("core.registry.view_pulls", (reg1.view_pulls - reg0.view_pulls) as f64 / transfers);
    m.put("core.registry.string_bytes", (reg1.string_bytes - reg0.string_bytes) as f64 / transfers);

    if matches!(workload, Workload::GraphClone | Workload::FlatShuffle) {
        // The program's own tracer on, over the same rig and payload
        // (only where an operation is exactly one engine transfer).
        let tracer = obs::global().tracer();
        tracer.clear();
        tracer.set_enabled(true);
        rig.obs_traced = true;
        let mut traced = Window::default();
        let t0 = Instant::now();
        let dur = plan.window.mul_f64(0.2);
        // The tracer's span budget is a lifetime one: stop before drops.
        while t0.elapsed() < dur && tracer.dropped() == 0 {
            rig.op(&mut traced, false);
        }
        tracer.set_enabled(false);
        rig.obs_traced = false;
        let spans = tracer.spans().len() as u64 + tracer.dropped();
        tracer.clear();
        m.put("obs.trace_overhead_pct", pct_over(median(&ops_ns(&traced)), op_p50));
        m.put("obs.spans_per_transfer", spans as f64 / traced.ops.len().max(1) as f64);
        warm.attempted += traced.attempted;
        warm.failed += traced.failed;
    }

    let verify_ms = rig.final_checks(&mut w)?;
    m.put(catalog::GC_MINOR_MS, ms(median(&w.minor_ns)));
    m.put(catalog::GC_FULL_MS, ms(median(&w.full_ns)));
    m.put(catalog::GC_MINOR_COUNT, (gc1.minor_gcs - gc0.minor_gcs) as f64);
    m.put(catalog::GC_FULL_COUNT, (gc1.full_gcs - gc0.full_gcs) as f64);
    m.put(catalog::GC_BYTES_PROMOTED, (gc1.bytes_promoted - gc0.bytes_promoted) as f64);
    m.put(catalog::HEAP_BUILD_MS, rig.build_ms);
    m.put(catalog::HEAP_PEAK_USED_MB, rig.receiver.heap().peak_used() as f64 / (1 << 20) as f64);
    m.put(catalog::VERIFY_MS, verify_ms);

    let attempted = w.attempted + warm.attempted;
    let failed = w.failed + warm.failed;
    m.put("bench.failed_share", failed as f64 / attempted.max(1) as f64);
    m.put("bench.samples", totals.len() as f64);

    std::fs::create_dir_all(&plan.out_dir)?;
    let trace_path = plan.out_dir.join(format!("trace-{}.json", workload.name()));
    std::fs::write(&trace_path, log.chrome_trace_json(TRACE_FILE_TRANSFERS))?;
    let notes = vec![
        format!(
            "trace of the first {TRACE_FILE_TRANSFERS} staged transfers: {}",
            trace_path.display()
        ),
        format!("{} stream-id wraps, {} sID scrubs (untimed)", rig.stream_wraps, rig.sid_scrubs),
    ];
    Ok(Outcome {
        workload,
        traced: true,
        metrics: m.finish(PER_LAYER),
        attempted,
        failed,
        samples: totals.len() as u64,
        notes,
    })
}

fn run_traced_wc(plan: &Plan) -> Res<Outcome> {
    let mut rig = WcRig::build(plan.seed, plan.size, SerializerKind::Skyway)?;
    let (mut warm, mut w, mut l) = (Window::default(), Window::default(), JobLedger::default());
    rig.job(&mut warm, &mut JobLedger::default());
    let gc0 = rig.gc_counts();
    let reg0 = rig.sc.type_directory().stats();
    let t0 = Instant::now();
    let dur = plan.window.mul_f64(0.6);
    while t0.elapsed() < dur {
        rig.job(&mut w, &mut l);
    }
    let reg1 = rig.sc.type_directory().stats();
    let gc1 = rig.gc_counts();
    let jobs = w.ops.len().max(1) as f64;
    let verify_ms = rig.verify(&mut w)?;

    let mut m = MetricSet::new();
    m.put("core.serializer.ser_ms", ms(median(&l.ser_ns)));
    m.put("core.serializer.deser_ms", ms(median(&l.deser_ns)));
    m.put("sparklite.compute_ms", ms(median(&l.compute_ns)));
    m.put("sparklite.shuffle_bytes", l.shuffle_bytes as f64);
    m.put("sparklite.objects_transferred", l.objects as f64);
    m.put("sparklite.write_io_ms.modeled", ms(median(&l.write_io_ns)));
    m.put("sparklite.read_io_ms.modeled", ms(median(&l.read_io_ns)));
    m.put("core.registry.lookups", (reg1.lookups - reg0.lookups) as f64 / jobs);
    m.put("core.registry.view_pulls", (reg1.view_pulls - reg0.view_pulls) as f64 / jobs);
    m.put("core.registry.string_bytes", (reg1.string_bytes - reg0.string_bytes) as f64 / jobs);
    // All collector time inside the jobs, every VM (`VmStats::gc_ns`), as
    // a mean per job: fewer than half the jobs collect at all. The
    // untimed between-job reclaim is the full_ms row.
    m.put(catalog::GC_MINOR_MS, ms(l.gc_ns.iter().sum::<f64>() / jobs));
    m.put(catalog::GC_FULL_MS, ms(median(&w.full_ns)));
    m.put(catalog::GC_MINOR_COUNT, (gc1.0 - gc0.0) as f64);
    m.put(catalog::GC_FULL_COUNT, (gc1.1 - gc0.1) as f64);
    m.put(catalog::GC_BYTES_PROMOTED, (gc1.2 - gc0.2) as f64);
    m.put(catalog::HEAP_BUILD_MS, rig.boot_ms);
    m.put(catalog::HEAP_PEAK_USED_MB, rig.peak_used_mb());
    m.put(catalog::VERIFY_MS, verify_ms);
    drop(rig);

    // Reference jobs with the Kryo analogue: moves only if mheap or
    // sparklite changed, never with the transfer layers.
    let mut kryo = WcRig::build(plan.seed, plan.size, SerializerKind::Kryo)?;
    let mut kw = Window::default();
    kryo.job(&mut warm, &mut JobLedger::default());
    let kryo_jobs = if plan.size == Size::Full { KRYO_JOBS } else { 1 };
    for _ in 0..kryo_jobs {
        kryo.job(&mut kw, &mut JobLedger::default());
    }
    m.put("serlab.kryo_job_p50_s", median(&ops_ns(&kw)) / 1e9);

    let attempted = w.attempted + warm.attempted + kw.attempted;
    let failed = w.failed + warm.failed + kw.failed;
    m.put("bench.failed_share", failed as f64 / attempted.max(1) as f64);
    m.put("bench.samples", w.ops.len() as f64);
    Ok(Outcome {
        workload: Workload::SparkWc,
        traced: true,
        metrics: m.finish(PER_LAYER),
        attempted,
        failed,
        samples: w.ops.len() as u64,
        notes: Vec::new(),
    })
}

/// One run of one workload: the traced run or the end-to-end run.
pub fn run(workload: Workload, plan: &Plan, traced: bool) -> Res<Outcome> {
    if traced {
        run_traced(workload, plan)
    } else {
        run_untraced(workload, plan)
    }
}
