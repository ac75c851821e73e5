//! Distributed-tracing integration tests: the span tree a transfer emits
//! is well-formed (one root, no orphans, children nested inside their
//! parent's interval) and — for a known payload — exactly the expected
//! spans, no more, no fewer.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;

use mheap::stdlib::define_core_classes;
use mheap::{ClassPath, HeapConfig, Vm};
use simnet::NodeId;
use skyway::{ParallelConfig, PipelineConfig, PipelineEngine, TransferMode, TypeDirectory};

fn env() -> (Arc<TypeDirectory>, Vm, Vm) {
    let cp = ClassPath::new();
    define_core_classes(&cp);
    let sender = Vm::new("s", &HeapConfig::small(), Arc::clone(&cp)).unwrap();
    let receiver = Vm::new("r", &HeapConfig::small(), cp).unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();
    (dir, sender, receiver)
}

/// A traced engine over a scoped registry, so span assertions are exact
/// even when other tests run concurrently.
fn traced_engine(chunk_limit: usize) -> (Arc<obs::Registry>, PipelineEngine) {
    let reg = Arc::new(obs::Registry::new());
    reg.tracer().set_enabled(true);
    let engine = PipelineEngine::new(PipelineConfig { chunk_limit, ..PipelineConfig::default() })
        .with_metrics(Arc::clone(&reg));
    (reg, engine)
}

/// Asserts the span list forms one well-formed tree: a single root, every
/// parent id resolvable, one shared trace id, and every wall-clock child
/// contained in its parent's interval (sim-clock spans live on another
/// clock and are checked only for interval sanity).
fn assert_well_formed(spans: &[obs::Span]) {
    assert!(!spans.is_empty(), "a traced transfer must record spans");
    let trace_id = spans[0].trace_id;
    let ids: BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), spans.len(), "span ids are unique");
    let by_id: BTreeMap<u64, &obs::Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut roots = 0;
    for s in spans {
        assert_eq!(s.trace_id, trace_id, "all spans share the transfer's trace id");
        assert!(s.start_ns <= s.end_ns, "span {} has a negative interval", s.name);
        if s.parent == 0 {
            roots += 1;
            continue;
        }
        let parent = by_id
            .get(&s.parent)
            .unwrap_or_else(|| panic!("span {} has orphan parent {}", s.name, s.parent));
        if !s.sim_clock && !parent.sim_clock {
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "span {} [{}, {}] escapes parent {} [{}, {}]",
                s.name,
                s.start_ns,
                s.end_ns,
                parent.name,
                parent.start_ns,
                parent.end_ns,
            );
        }
    }
    assert_eq!(roots, 1, "exactly one root span per transfer");
}

#[test]
fn three_object_transfer_emits_exactly_the_expected_spans() {
    let (dir, mut s, mut r) = env();
    let roots: Vec<_> = (0..3).map(|i| s.new_integer(i).unwrap()).collect();
    let (reg, engine) = traced_engine(PipelineConfig::default().chunk_limit);
    let ctx = reg.tracer().new_trace();
    let (got, _) = engine
        .transfer_with_trace(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 1, &roots, None, ctx)
        .unwrap();
    assert_eq!(got.len(), 3);

    let spans = reg.tracer().spans();
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for sp in &spans {
        *counts.entry(sp.name).or_default() += 1;
    }
    // Three flat integers take the single-chunk path: one transfer root,
    // one traversal burst (all roots fit in one chunk, so the burst only
    // closes at stream finish), one simulated wire occupancy, one
    // absorbed chunk, one fixup drain, and one class-load consultation
    // (all three objects share java.lang.Integer's tid).
    let expected: BTreeMap<&str, usize> = [
        (obs::names::TRACE_TRANSFER, 1),
        (obs::names::TRACE_SENDER_TRAVERSE, 1),
        (obs::names::TRACE_LINK_XMIT, 1),
        (obs::names::TRACE_RECEIVER_CHUNK_ABSORB, 1),
        (obs::names::TRACE_RECEIVER_FIXUP, 1),
        (obs::names::TRACE_REGISTRY_CLASS_LOAD, 1),
    ]
    .into_iter()
    .collect();
    assert_eq!(counts, expected, "{spans:#?}");
    let traverse = spans.iter().find(|sp| sp.name == obs::names::TRACE_SENDER_TRAVERSE).unwrap();
    assert!(traverse.args.contains(&("roots", 3)), "burst covers all roots: {traverse:?}");
    assert_well_formed(&spans);
}

#[test]
fn untraced_transfer_records_nothing() {
    let (dir, mut s, mut r) = env();
    let roots: Vec<_> = (0..3).map(|i| s.new_integer(i).unwrap()).collect();
    let (reg, engine) = traced_engine(PipelineConfig::default().chunk_limit);
    let (got, _) =
        engine.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 1, &roots, None).unwrap();
    assert_eq!(got.len(), 3);
    assert!(reg.tracer().spans().is_empty(), "TraceCtx::NONE keeps the path span-free");
}

/// A parallel transfer's span tree is well-formed too, and each worker
/// records on its own trace lane: the sender, link and receiver spans of
/// stream `t` all carry lane `t + 1`, and more than one lane did work.
#[test]
fn parallel_span_tree_keeps_each_worker_on_its_own_lane() {
    let (dir, mut s, mut r) = env();
    let roots: Vec<_> =
        (0..128).map(|i| s.new_string(&format!("row {i} {}", "x".repeat(100))).unwrap()).collect();
    let reg = Arc::new(obs::Registry::new());
    reg.tracer().set_enabled(true);
    let engine = PipelineEngine::new(PipelineConfig {
        chunk_limit: 256,
        parallel: Some(ParallelConfig { workers: 4, min_roots_per_worker: 1 }),
        ..PipelineConfig::default()
    })
    .with_metrics(Arc::clone(&reg));
    let ctx = reg.tracer().new_trace();
    let (got, report) = engine
        .transfer_with_trace(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 1, &roots, None, ctx)
        .unwrap();
    assert_eq!(got.len(), roots.len());
    assert_eq!(report.mode, TransferMode::Parallel);

    let spans = reg.tracer().spans();
    assert_well_formed(&spans);
    let lanes_of = |name: &str| -> BTreeSet<u32> {
        spans.iter().filter(|sp| sp.name == name).map(|sp| sp.lane).collect()
    };
    let send_lanes = lanes_of(obs::names::TRACE_SENDER_CHUNK_SEND);
    assert!(
        send_lanes.iter().filter(|&&lane| lane != 0).count() >= 2,
        "worker lanes that sent chunks: {send_lanes:?}"
    );
    assert_eq!(lanes_of(obs::names::TRACE_RECEIVER_CHUNK_ABSORB), send_lanes);
    assert_eq!(lanes_of(obs::names::TRACE_LINK_XMIT), send_lanes);
    assert_eq!(reg.tracer().dropped(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any pipelined multi-chunk transfer yields a well-formed span tree,
    /// and its sender/receiver span populations match the work done.
    #[test]
    fn pipelined_span_tree_is_well_formed(
        n_roots in 8usize..48,
        pad in 1usize..64,
    ) {
        let (dir, mut s, mut r) = env();
        let roots: Vec<_> = (0..n_roots)
            .map(|i| s.new_string(&format!("row {i} {}", "x".repeat(pad))).unwrap())
            .collect();
        // A small chunk limit forces the overlapped (threaded) path.
        let (reg, engine) = traced_engine(256);
        let ctx = reg.tracer().new_trace();
        let (got, report) = engine
            .transfer_with_trace(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 1, &roots, None, ctx)
            .unwrap();
        prop_assert_eq!(got.len(), n_roots);

        let spans = reg.tracer().spans();
        assert_well_formed(&spans);
        let count = |name: &str| spans.iter().filter(|sp| sp.name == name).count();
        prop_assert_eq!(count(obs::names::TRACE_TRANSFER), 1);
        // Traverse bursts close at chunk boundaries (a flush returning
        // several chunks closes one burst), plus at most one tail burst;
        // together they cover every root exactly once.
        let chunks = report.chunk_bytes.len();
        let bursts = count(obs::names::TRACE_SENDER_TRAVERSE);
        prop_assert!(bursts >= 1 && bursts <= chunks + 1, "bursts {} chunks {}", bursts, chunks);
        let roots_covered: u64 = spans
            .iter()
            .filter(|sp| sp.name == obs::names::TRACE_SENDER_TRAVERSE)
            .map(|sp| sp.args.iter().find(|(k, _)| *k == "roots").map_or(0, |(_, v)| *v))
            .sum();
        prop_assert_eq!(roots_covered, n_roots as u64);
        prop_assert_eq!(count(obs::names::TRACE_SENDER_CHUNK_SEND), chunks);
        prop_assert_eq!(count(obs::names::TRACE_LINK_XMIT), chunks);
        prop_assert_eq!(count(obs::names::TRACE_RECEIVER_CHUNK_ABSORB), chunks);
        prop_assert_eq!(count(obs::names::TRACE_RECEIVER_FIXUP), 1);
        prop_assert_eq!(reg.tracer().dropped(), 0);
    }
}
