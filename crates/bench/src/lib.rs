//! `skyway-bench` — shared plumbing for the figure/table harnesses.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation (see `DESIGN.md`'s per-experiment index); this library holds
//! the common pieces: workload runners, table printers, and summary
//! statistics (geometric means over normalized ratios, as Table 2/4 use).

#![warn(missing_docs)]

use serde::Serialize;
use simnet::{BreakdownRow, Category, Profile};
use sparklite::engine::{SerializerKind, SparkCluster, SparkConfig};
use sparklite::graphgen::{generate, Graph, GraphKind};
use sparklite::workloads::{
    run_connected_components, run_pagerank, run_triangle_count, run_wordcount,
};

/// The four Spark workloads of Fig. 8(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// WordCount (one shuffle round).
    Wc,
    /// PageRank (one shuffle per iteration).
    Pr,
    /// ConnectedComponents (label propagation).
    Cc,
    /// TriangleCounting (three shuffle rounds, heavy messages).
    Tc,
}

impl Workload {
    /// Figure label (`WC`, `PR`, `CC`, `TC`).
    pub fn label(self) -> &'static str {
        match self {
            Workload::Wc => "WC",
            Workload::Pr => "PR",
            Workload::Cc => "CC",
            Workload::Tc => "TC",
        }
    }

    /// All workloads in the paper's order.
    pub const ALL: [Workload; 4] = [Workload::Wc, Workload::Pr, Workload::Cc, Workload::Tc];
}

/// Options of one Spark-experiment run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Graph scale divisor relative to Table 1 (e.g. 10 000 → LJ = 6.9 k
    /// edges).
    pub scale_divisor: u64,
    /// PageRank iterations.
    pub pr_iters: usize,
    /// ConnectedComponents max iterations.
    pub cc_iters: usize,
    /// Worker count.
    pub n_workers: usize,
    /// Per-VM heap bytes.
    pub heap_bytes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Pipelined Skyway shuffle (`--pipeline`): cross-node transfers run
    /// through the chunk-granularity pipeline engine instead of the
    /// serialize → spill → fetch → deserialize barrier. Only affects
    /// Skyway cells.
    pub pipeline: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            scale_divisor: 10_000,
            pr_iters: 5,
            cc_iters: 30,
            n_workers: 3,
            heap_bytes: 448 << 20,
            seed: 42,
            pipeline: false,
        }
    }
}

impl RunOpts {
    /// Reads `--scale N`, `--workers N`, `--iters N`, `--seed N`, and the
    /// valueless `--pipeline` from the process arguments, falling back to
    /// defaults.
    pub fn from_args() -> Self {
        let mut o = RunOpts::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--pipeline" => {
                    o.pipeline = true;
                    i += 1;
                }
                "--scale" if i + 1 < args.len() => {
                    o.scale_divisor = args[i + 1].parse().unwrap_or(o.scale_divisor);
                    i += 2;
                }
                "--workers" if i + 1 < args.len() => {
                    o.n_workers = args[i + 1].parse().unwrap_or(o.n_workers);
                    i += 2;
                }
                "--iters" if i + 1 < args.len() => {
                    o.pr_iters = args[i + 1].parse().unwrap_or(o.pr_iters);
                    i += 2;
                }
                "--seed" if i + 1 < args.len() => {
                    o.seed = args[i + 1].parse().unwrap_or(o.seed);
                    i += 2;
                }
                _ => i += 1,
            }
        }
        o
    }
}

/// Builds a cluster for the experiment.
///
/// # Panics
/// Panics if the cluster cannot boot (fatal for a benchmark binary).
pub fn cluster(kind: SerializerKind, opts: &RunOpts) -> SparkCluster {
    SparkCluster::new(&SparkConfig {
        n_workers: opts.n_workers,
        serializer: kind,
        heap_bytes: opts.heap_bytes,
        pipeline: opts.pipeline,
        ..SparkConfig::default()
    })
    .expect("cluster boot")
}

/// Synthetic word-count input: pseudo-text lines derived from a graph's
/// edge list (so input size tracks the dataset scale).
pub fn wordcount_lines(graph: &Graph, n_workers: usize) -> Vec<Vec<String>> {
    let words = [
        "data", "heap", "object", "shuffle", "spark", "skyway", "buffer", "type", "klass", "graph",
        "rank", "edge", "node", "byte", "stream",
    ];
    let mut parts = vec![Vec::new(); n_workers];
    for (i, &(s, d)) in graph.edges.iter().enumerate() {
        let a = words[(s % words.len() as u64) as usize];
        let b = words[(d % words.len() as u64) as usize];
        let c = words[((s ^ d) % words.len() as u64) as usize];
        parts[i % n_workers].push(format!("{a} {b} {c} {a}"));
    }
    parts
}

/// Runs one (workload, graph, serializer) cell and returns the aggregated
/// profile.
///
/// # Panics
/// Panics on engine errors (fatal for a benchmark binary).
pub fn run_cell(kind: SerializerKind, wl: Workload, g: GraphKind, opts: &RunOpts) -> Profile {
    run_cell_with_gc(kind, wl, g, opts).0
}

/// [`run_cell`] plus the summed worker GC nanoseconds (Fig. 3's "<2%, not
/// shown" check).
///
/// # Panics
/// Panics on engine errors (fatal for a benchmark binary).
pub fn run_cell_with_gc(
    kind: SerializerKind,
    wl: Workload,
    g: GraphKind,
    opts: &RunOpts,
) -> (Profile, u64) {
    let graph = generate(g, opts.scale_divisor, opts.seed);
    let mut sc = cluster(kind, opts);
    match wl {
        Workload::Wc => {
            let lines = wordcount_lines(&graph, opts.n_workers);
            run_wordcount(&mut sc, lines).expect("wordcount");
        }
        Workload::Pr => {
            run_pagerank(&mut sc, &graph, opts.pr_iters, 10).expect("pagerank");
        }
        Workload::Cc => {
            run_connected_components(&mut sc, &graph, opts.cc_iters).expect("concomp");
        }
        Workload::Tc => {
            run_triangle_count(&mut sc, &graph).expect("triangles");
        }
    }
    let gc_ns: u64 = sc.worker_nodes().into_iter().map(|n| sc.vm(n).stats.gc_ns).sum();
    let profile = sc.aggregate_profile();
    // Mirror the cell's aggregate into the observability registry so a
    // `--metrics-out` snapshot carries the Fig. 3 breakdown alongside the
    // counters.
    obs::global().put_profile(
        &format!("bench.{}.{g:?}.{kind:?}", wl.label()),
        obs::ProfileSection::from(&profile),
    );
    (profile, gc_ns)
}

/// Prints a stacked-breakdown table (the shape of Fig. 3(a)/8 bars).
pub fn print_breakdown(title: &str, rows: &[BreakdownRow]) {
    println!("\n=== {title} ===");
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "run", "Compute ms", "Ser ms", "Write ms", "Deser ms", "Read ms", "Total ms"
    );
    for r in rows {
        println!(
            "{:<22} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            r.label,
            r.ms[0],
            r.ms[1],
            r.ms[2],
            r.ms[3],
            r.ms[4],
            r.total_ms()
        );
    }
}

/// Prints the bytes panel (the shape of Fig. 3(b)).
pub fn print_bytes(title: &str, rows: &[BreakdownRow]) {
    println!("\n=== {title} ===");
    println!("{:<22} {:>16} {:>16}", "run", "Local Bytes", "Remote Bytes");
    for r in rows {
        println!("{:<22} {:>16} {:>16}", r.label, r.bytes_local, r.bytes_remote);
    }
}

/// Per-run normalized metrics for the Table 2/4 summaries.
#[derive(Debug, Clone, Copy)]
pub struct Normalized {
    /// Overall time ratio.
    pub overall: f64,
    /// Serialization-time ratio.
    pub ser: f64,
    /// Write-I/O ratio.
    pub write: f64,
    /// Deserialization-time ratio.
    pub des: f64,
    /// Read-I/O ratio.
    pub read: f64,
    /// Bytes ratio.
    pub size: f64,
}

/// Normalizes a profile against a baseline (Table 2's "normalized to
/// baseline" cells).
pub fn normalize(p: &Profile, base: &Profile) -> Normalized {
    let r = |a: u64, b: u64| {
        if b == 0 {
            if a == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            a as f64 / b as f64
        }
    };
    Normalized {
        overall: r(p.total_ns(), base.total_ns()),
        ser: r(p.ns(Category::Ser), base.ns(Category::Ser)),
        write: r(p.ns(Category::WriteIo), base.ns(Category::WriteIo)),
        des: r(p.ns(Category::Deser), base.ns(Category::Deser)),
        read: r(p.ns(Category::ReadIo), base.ns(Category::ReadIo)),
        size: r(p.bytes_local + p.bytes_remote, base.bytes_local + base.bytes_remote),
    }
}

/// Geometric mean.
pub fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return f64::NAN;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// Prints one summary row: min ~ max (geomean) per metric.
pub fn print_summary_row(label: &str, rows: &[Normalized]) {
    let col = |f: fn(&Normalized) -> f64| {
        let vals: Vec<f64> = rows.iter().map(f).collect();
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        format!("{min:.2}~{max:.2} ({:.2})", geomean(&vals))
    };
    println!(
        "{:<9} {:>19} {:>19} {:>19} {:>19} {:>19} {:>19}",
        label,
        col(|n| n.overall),
        col(|n| n.ser),
        col(|n| n.write),
        col(|n| n.des),
        col(|n| n.read),
        col(|n| n.size),
    );
}

/// Writes a machine-readable copy of a harness's results next to its text
/// output (`results/<name>.json`), for downstream plotting. Failure to
/// write is reported but non-fatal — the text output is the primary record.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("note: could not create results/; skipping JSON output");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("note: could not write {}: {e}", path.display());
            } else {
                println!("(json written to {})", path.display());
            }
        }
        Err(e) => eprintln!("note: could not serialize {name} results: {e}"),
    }
}

/// Parses `--metrics-out <path>` from the process arguments.
pub fn metrics_out_from_args() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == "--metrics-out").map(|w| std::path::PathBuf::from(&w[1]))
}

/// When `--metrics-out <path>` was given, writes the process-wide
/// observability snapshot ([`obs::Registry::snapshot`]) as pretty-printed
/// JSON to that path. Call once at the end of a harness `main`. Failure to
/// write is reported but non-fatal, matching [`write_json`].
pub fn dump_metrics() {
    let Some(path) = metrics_out_from_args() else {
        return;
    };
    let snap = obs::global().snapshot();
    match serde_json::to_string_pretty(&snap) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("note: could not write {}: {e}", path.display());
            } else {
                println!("(metrics snapshot written to {})", path.display());
            }
        }
        Err(e) => eprintln!("note: could not serialize metrics snapshot: {e}"),
    }
}

/// Parses `--trace-out <path>` from the process arguments.
pub fn trace_out_from_args() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == "--trace-out").map(|w| std::path::PathBuf::from(&w[1]))
}

/// Enables the process-wide tracer when `--trace-out <path>` was given.
/// Call at the top of a harness `main`, before any transfers run.
pub fn init_tracing() {
    if trace_out_from_args().is_some() {
        obs::global().tracer().set_enabled(true);
    }
}

/// When `--trace-out <path>` was given, exports every span recorded so far
/// as Chrome trace-event JSON (open in Perfetto or `chrome://tracing`) and
/// prints the critical-path summary. Call once at the end of a harness
/// `main`. Failure to write is reported but non-fatal, matching
/// [`write_json`].
pub fn dump_trace() {
    let Some(path) = trace_out_from_args() else {
        return;
    };
    let tracer = obs::global().tracer();
    let spans = tracer.spans();
    let dropped = tracer.dropped();
    if dropped > 0 {
        eprintln!("note: span buffer overflowed; {dropped} spans were dropped");
    }
    if let Err(e) = std::fs::write(&path, obs::chrome_trace_json(&spans)) {
        eprintln!("note: could not write {}: {e}", path.display());
    } else {
        println!("(trace written to {} — {} spans)", path.display(), spans.len());
    }
    println!("{}", obs::critical_path_summary(&spans));
}

/// Header matching [`print_summary_row`].
pub fn print_summary_header(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "{:<9} {:>19} {:>19} {:>19} {:>19} {:>19} {:>19}",
        "Sys", "Overall", "Ser", "Write", "Des", "Read", "Size"
    );
}
