//! Property-based Skyway tests: arbitrary object DAGs round-trip with
//! structure, values, sharing, and cached hashcodes intact — and byte-for-
//! byte object payload equality against what a conventional serializer
//! rebuilds.

use std::sync::Arc;

use proptest::prelude::*;

use mheap::stdlib::define_core_classes;
use mheap::{Addr, ClassPath, FieldType, HeapConfig, KlassDef, LayoutSpec, PrimType, Vm};
use serlab::jsbs::{build_dataset, define_jsbs_classes, verify_media_content};
use serlab::Serializer;
use simnet::{NodeId, Profile};
use skyway::{ShuffleController, SkywaySerializer, TypeDirectory};

fn classpath() -> Arc<ClassPath> {
    let cp = ClassPath::new();
    define_core_classes(&cp);
    cp.define(KlassDef::new(
        "PNode",
        None,
        vec![
            ("tag", FieldType::Prim(PrimType::Long)),
            ("small", FieldType::Prim(PrimType::Short)),
            ("left", FieldType::Ref),
            ("right", FieldType::Ref),
        ],
    ));
    cp
}

#[derive(Debug, Clone)]
struct GraphSpec {
    tags: Vec<i64>,
    lefts: Vec<Option<usize>>,
    rights: Vec<Option<usize>>,
    roots: Vec<usize>,
}

fn graph_spec(max_nodes: usize) -> impl Strategy<Value = GraphSpec> {
    (2..max_nodes)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(any::<i64>(), n),
                proptest::collection::vec(proptest::option::of(0..n), n),
                proptest::collection::vec(proptest::option::of(0..n), n),
                proptest::collection::vec(0..n, 1..5),
            )
        })
        .prop_map(|(tags, lefts, rights, roots)| {
            let clamp = |v: Vec<Option<usize>>| {
                v.into_iter().enumerate().map(|(i, e)| e.filter(|&t| t < i)).collect::<Vec<_>>()
            };
            GraphSpec { tags, lefts: clamp(lefts), rights: clamp(rights), roots }
        })
}

fn build(vm: &mut Vm, spec: &GraphSpec) -> Vec<mheap::Handle> {
    let k = vm.load_class("PNode").unwrap();
    let mut handles = Vec::with_capacity(spec.tags.len());
    for i in 0..spec.tags.len() {
        let node = vm.alloc_instance(k).unwrap();
        vm.set_long(node, "tag", spec.tags[i]).unwrap();
        vm.set_prim(node, "small", mheap::Value::Short((spec.tags[i] % 999) as i16)).unwrap();
        let h = vm.handle(node);
        if let Some(l) = spec.lefts[i] {
            let node = vm.resolve(h).unwrap();
            let t = vm.resolve(handles[l]).unwrap();
            vm.set_ref(node, "left", t).unwrap();
        }
        if let Some(r) = spec.rights[i] {
            let node = vm.resolve(h).unwrap();
            let t = vm.resolve(handles[r]).unwrap();
            vm.set_ref(node, "right", t).unwrap();
        }
        handles.push(h);
    }
    handles
}

/// Canonical form of the graph reachable from `root`: node index by
/// discovery order, edges as discovered indices, tags as values.
fn canonicalize(vm: &Vm, root: Addr) -> Vec<(i64, i16, Option<usize>, Option<usize>)> {
    let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut order: Vec<Addr> = Vec::new();
    let mut stack = vec![root];
    while let Some(a) = stack.pop() {
        if a.is_null() || index.contains_key(&a.0) {
            continue;
        }
        index.insert(a.0, order.len());
        order.push(a);
        let r = vm.get_ref(a, "right").unwrap();
        let l = vm.get_ref(a, "left").unwrap();
        stack.push(r);
        stack.push(l);
    }
    // Second pass in discovery order so indices are deterministic.
    let mut out = Vec::with_capacity(order.len());
    // Re-walk deterministically (DFS preorder, left then right).
    let mut index2: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut order2: Vec<Addr> = Vec::new();
    let mut stack = vec![root];
    while let Some(a) = stack.pop() {
        if a.is_null() || index2.contains_key(&a.0) {
            continue;
        }
        index2.insert(a.0, order2.len());
        order2.push(a);
        let l = vm.get_ref(a, "left").unwrap();
        let r = vm.get_ref(a, "right").unwrap();
        stack.push(r);
        stack.push(l);
    }
    for &a in &order2 {
        let tag = vm.get_long(a, "tag").unwrap();
        let small = match vm.get_prim(a, "small").unwrap() {
            mheap::Value::Short(s) => s,
            _ => unreachable!(),
        };
        let l = vm.get_ref(a, "left").unwrap();
        let r = vm.get_ref(a, "right").unwrap();
        out.push((
            tag,
            small,
            (!l.is_null()).then(|| index2[&l.0]),
            (!r.is_null()).then(|| index2[&r.0]),
        ));
    }
    out
}

fn transfer_env() -> (Arc<TypeDirectory>, Vm, Vm) {
    let cp = classpath();
    let sender =
        Vm::new("s", &HeapConfig::small().with_capacity(8 << 20), Arc::clone(&cp)).unwrap();
    let receiver = Vm::new("r", &HeapConfig::small().with_capacity(8 << 20), cp).unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();
    (dir, sender, receiver)
}

/// The conservation laws a registry snapshot obeys once one engine transfer
/// (and nothing else) has reported into it: every count has one producer,
/// so what the sender published, what the receiver published and what the
/// report says are the same numbers.
fn check_conservation(snap: &obs::Snapshot, report: &skyway::PipelineReport) -> TestCaseResult {
    use obs::names as n;
    let absorbed = snap.counter(n::RECEIVER_OBJECTS_ABSORBED);
    prop_assert_eq!(snap.counter(n::SENDER_OBJECTS_VISITED), absorbed);
    prop_assert_eq!(absorbed, report.recv_stats.objects);
    let bytes = snap.counter(n::RECEIVER_BYTES_ABSORBED);
    prop_assert_eq!(snap.counter(n::SENDER_BYTES_CLONED), bytes);
    prop_assert_eq!(bytes, report.chunk_bytes.iter().sum::<u64>());
    prop_assert_eq!(snap.counter(n::RECEIVER_CHUNKS_ABSORBED), report.chunk_bytes.len() as u64);
    prop_assert_eq!(report.recv_stats.cards_dirtied, 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_graphs_roundtrip(spec in graph_spec(40), chunk in 128usize..4096) {
        let (dir, mut sender, mut receiver) = transfer_env();
        let handles = build(&mut sender, &spec);
        let roots: Vec<Addr> = spec.roots.iter()
            .map(|&i| sender.resolve(handles[i]).unwrap())
            .collect();
        let sky_tx = SkywaySerializer::new(
            Arc::clone(&dir), NodeId(0), Arc::new(ShuffleController::new()),
            LayoutSpec::SKYWAY,
        ).with_chunk_limit(chunk);
        let sky_rx = SkywaySerializer::new(
            Arc::clone(&dir), NodeId(1), Arc::new(ShuffleController::new()),
            LayoutSpec::SKYWAY,
        );
        let mut p = Profile::new();
        let bytes = sky_tx.serialize(&mut sender, &roots, &mut p).unwrap();
        let rebuilt = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
        prop_assert_eq!(rebuilt.len(), roots.len());
        for (orig, &newr) in roots.iter().zip(&rebuilt) {
            prop_assert_eq!(canonicalize(&sender, *orig), canonicalize(&receiver, newr));
        }
    }

    #[test]
    fn skyway_agrees_with_kryo_on_structure(spec in graph_spec(30)) {
        let (dir, mut sender, mut r_sky) = transfer_env();
        let cp = classpath();
        let mut r_kryo = Vm::new("rk", &HeapConfig::small(), cp).unwrap();
        let handles = build(&mut sender, &spec);
        let roots: Vec<Addr> = spec.roots.iter()
            .map(|&i| sender.resolve(handles[i]).unwrap())
            .collect();

        let sky_tx = SkywaySerializer::new(
            Arc::clone(&dir), NodeId(0), Arc::new(ShuffleController::new()),
            LayoutSpec::SKYWAY,
        );
        let sky_rx = SkywaySerializer::new(
            Arc::clone(&dir), NodeId(1), Arc::new(ShuffleController::new()),
            LayoutSpec::SKYWAY,
        );
        let reg = serlab::KryoRegistry::new();
        reg.register("PNode").unwrap();
        let kryo = serlab::KryoSerializer::manual(Arc::new(reg));

        let mut p = Profile::new();
        let sb = sky_tx.serialize(&mut sender, &roots, &mut p).unwrap();
        let kb = kryo.serialize(&mut sender, &roots, &mut p).unwrap();
        let sr = sky_rx.deserialize(&mut r_sky, &sb, &mut p).unwrap();
        let kr = kryo.deserialize(&mut r_kryo, &kb, &mut p).unwrap();
        for ((&s, &k), &orig) in sr.iter().zip(&kr).zip(&roots) {
            let want = canonicalize(&sender, orig);
            prop_assert_eq!(&canonicalize(&r_sky, s), &want);
            prop_assert_eq!(&canonicalize(&r_kryo, k), &want);
        }
    }

    #[test]
    fn corrupted_skyway_streams_error_not_panic(
        spec in graph_spec(20),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..6),
    ) {
        let (dir, mut sender, mut receiver) = transfer_env();
        let handles = build(&mut sender, &spec);
        let roots: Vec<Addr> = spec.roots.iter()
            .map(|&i| sender.resolve(handles[i]).unwrap())
            .collect();
        let sky_tx = SkywaySerializer::new(
            Arc::clone(&dir), NodeId(0), Arc::new(ShuffleController::new()),
            LayoutSpec::SKYWAY,
        );
        let sky_rx = SkywaySerializer::new(
            Arc::clone(&dir), NodeId(1), Arc::new(ShuffleController::new()),
            LayoutSpec::SKYWAY,
        );
        let mut p = Profile::new();
        let pristine = sky_tx.serialize(&mut sender, &roots, &mut p).unwrap();
        // Once anywhere in the blob, once confined to the 10-byte frame
        // header (magic, version, flags, chunk count).
        for span in [pristine.len(), 10] {
            let mut bytes = pristine.clone();
            for (pos, val) in &flips {
                bytes[*pos as usize % span] ^= *val | 1;
            }
            // Corruption must never panic. (An Ok result is possible when
            // the flips only hit primitive payload or dead padding, or
            // cancel each other out.)
            let _ = sky_rx.deserialize(&mut receiver, &bytes, &mut p);
            if span == 10 {
                // With the chunks intact, whatever a damaged header lets
                // through is whole chunks of a valid stream.
                prop_assert_eq!(receiver.verify_heap().unwrap(), vec![]);
            }
        }
    }

    #[test]
    fn hashcodes_preserved_for_all_nodes(spec in graph_spec(25)) {
        let (dir, mut sender, mut receiver) = transfer_env();
        let handles = build(&mut sender, &spec);
        // Materialize hashes for every node.
        let mut hashes = Vec::new();
        for h in &handles {
            let a = sender.resolve(*h).unwrap();
            hashes.push(sender.identity_hash(a).unwrap());
        }
        // Send node 0's graph + all roots to maximize coverage.
        let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
        let sky_tx = SkywaySerializer::new(
            Arc::clone(&dir), NodeId(0), Arc::new(ShuffleController::new()),
            LayoutSpec::SKYWAY,
        );
        let sky_rx = SkywaySerializer::new(
            Arc::clone(&dir), NodeId(1), Arc::new(ShuffleController::new()),
            LayoutSpec::SKYWAY,
        );
        let mut p = Profile::new();
        let bytes = sky_tx.serialize(&mut sender, &roots, &mut p).unwrap();
        let rebuilt = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
        for (i, &r) in rebuilt.iter().enumerate() {
            prop_assert_eq!(receiver.identity_hash(r).unwrap(), hashes[i]);
        }
    }
}

// Pipelined transfer must be indistinguishable from the sequential path:
// same roots, same graph (structure, values, sharing), same ReceiveStats —
// for arbitrary DAGs forced across many chunks so both backward references
// and cross-chunk forward references (a parent absolutized before its
// children's chunk arrives) are exercised.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pipelined_equals_sequential(
        spec in graph_spec(40),
        chunk in 128usize..1024,
    ) {
        use skyway::{PipelineConfig, PipelineEngine, SendConfig, sequential_transfer};

        let (dir, mut sender, mut receiver) = transfer_env();
        let handles = build(&mut sender, &spec);
        let roots: Vec<Addr> = spec.roots.iter()
            .map(|&i| sender.resolve(handles[i]).unwrap())
            .collect();

        // The same graph again in an independent environment for the
        // sequential reference run.
        let (dir2, mut sender2, mut receiver2) = transfer_env();
        let handles2 = build(&mut sender2, &spec);
        let roots2: Vec<Addr> = spec.roots.iter()
            .map(|&i| sender2.resolve(handles2[i]).unwrap())
            .collect();

        let reg = Arc::new(obs::Registry::new());
        let engine = PipelineEngine::new(PipelineConfig {
            chunk_limit: chunk,
            ..PipelineConfig::default()
        })
        .with_metrics(Arc::clone(&reg));
        let (pr, report) = engine
            .transfer(&sender, &mut receiver, &dir, NodeId(0), NodeId(1), 1, 1, &roots, None)
            .unwrap();
        let cfg = SendConfig { chunk_limit: chunk, ..SendConfig::for_vm(&sender2) };
        let (sr, sstats, rstats) = sequential_transfer(
            &sender2, &mut receiver2, &dir2, NodeId(0), NodeId(1), 1, 1, &roots2, None, cfg,
        ).unwrap();

        prop_assert_eq!(pr.len(), sr.len());
        for ((p, s), &orig) in pr.iter().zip(&sr).zip(&roots) {
            let want = canonicalize(&sender, orig);
            prop_assert_eq!(&canonicalize(&receiver, *p), &want);
            prop_assert_eq!(&canonicalize(&receiver2, *s), &want);
        }
        // The two modes did identical work, not just equivalent work.
        prop_assert_eq!(report.recv_stats.objects, rstats.objects);
        prop_assert_eq!(report.recv_stats.bytes, rstats.bytes);
        prop_assert_eq!(report.recv_stats.ref_fixups, rstats.ref_fixups);
        prop_assert_eq!(report.recv_stats.chunks, rstats.chunks);
        prop_assert_eq!(report.send_stats.total_bytes, sstats.total_bytes);
        check_conservation(&reg.snapshot(), &report)?;
    }

    // Parallel transfer (N work-stealing senders, N concurrent absorbers
    // over the shared heap) must rebuild every root's graph exactly as the
    // sequential path does. Every node doubles as a root so subgraphs are
    // shared across roots: roots landing in different streams race on the
    // shared nodes' `baddr` CAS, and the losers duplicate per stream — so
    // per-root graphs stay identical while the receiver's object
    // population may only grow, never shrink or corrupt.
    #[test]
    fn parallel_equals_sequential(
        spec in graph_spec(40),
        chunk in 256usize..1024,
        workers in 2usize..5,
    ) {
        use skyway::{
            ParallelConfig, PipelineConfig, PipelineEngine, SendConfig, TransferMode,
            sequential_transfer,
        };

        let (dir, mut sender, mut receiver) = transfer_env();
        let handles = build(&mut sender, &spec);
        let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();

        let (dir2, mut sender2, mut receiver2) = transfer_env();
        let handles2 = build(&mut sender2, &spec);
        let roots2: Vec<Addr> = handles2.iter().map(|h| sender2.resolve(*h).unwrap()).collect();

        let reg = Arc::new(obs::Registry::new());
        let engine = PipelineEngine::new(PipelineConfig {
            chunk_limit: chunk,
            parallel: Some(ParallelConfig {
                workers,
                min_roots_per_worker: 1,
                ..Default::default()
            }),
            ..PipelineConfig::default()
        })
        .with_metrics(Arc::clone(&reg));
        let (pr, report) = engine
            .transfer(&sender, &mut receiver, &dir, NodeId(0), NodeId(1), 1, 1, &roots, None)
            .unwrap();
        let cfg = SendConfig { chunk_limit: chunk, ..SendConfig::for_vm(&sender2) };
        let (sr, _, rstats) = sequential_transfer(
            &sender2, &mut receiver2, &dir2, NodeId(0), NodeId(1), 1, 1, &roots2, None, cfg,
        ).unwrap();

        if roots.len() >= workers {
            prop_assert_eq!(report.mode, TransferMode::Parallel);
        }
        prop_assert_eq!(pr.len(), sr.len());
        for ((p, s), &orig) in pr.iter().zip(&sr).zip(&roots) {
            let want = canonicalize(&sender, orig);
            prop_assert_eq!(&canonicalize(&receiver, *p), &want);
            prop_assert_eq!(&canonicalize(&receiver2, *s), &want);
        }
        // Cross-stream CAS losses duplicate shared objects per stream:
        // the parallel receive can only ever hold MORE objects than the
        // sequential one, and everything cloned out was absorbed.
        prop_assert!(report.recv_stats.objects >= rstats.objects);
        prop_assert_eq!(report.send_stats.objects, report.recv_stats.objects);
        check_conservation(&reg.snapshot(), &report)?;
    }
}

/// Every lane of a parallel transfer sends its fixed strided share: with N
/// lanes over n ≥ N roots, one attempt records chunk-send spans on each of
/// the N worker trace lanes, and every received root, in root order, is
/// canonically equal to its source.
#[test]
fn every_lane_sends_its_strided_share() {
    use std::collections::BTreeSet;

    use skyway::{ParallelConfig, PipelineConfig, PipelineEngine, TransferMode};

    for workers in 2usize..=4 {
        for n in [workers, workers + 1, 17, 64] {
            // Node i links to i - 1 and i / 2, and every node is a root: the
            // lanes' shares reach common nodes and race on their claims.
            let spec = GraphSpec {
                tags: (0..n as i64).collect(),
                lefts: (0..n).map(|i| i.checked_sub(1)).collect(),
                rights: (0..n).map(|i| (i > 0).then_some(i / 2)).collect(),
                roots: Vec::new(),
            };
            let (dir, mut sender, mut receiver) = transfer_env();
            let handles = build(&mut sender, &spec);
            let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
            let reg = Arc::new(obs::Registry::new());
            reg.tracer().set_enabled(true);
            let engine = PipelineEngine::new(PipelineConfig {
                chunk_limit: 256,
                parallel: Some(ParallelConfig { workers, min_roots_per_worker: 1 }),
                ..PipelineConfig::default()
            })
            .with_metrics(Arc::clone(&reg));
            let ctx = reg.tracer().new_trace();
            let (got, report) = engine
                .transfer_with_trace(
                    &sender,
                    &mut receiver,
                    &dir,
                    NodeId(0),
                    NodeId(1),
                    1,
                    1,
                    &roots,
                    None,
                    ctx,
                )
                .unwrap();
            let case = format!("{workers} lanes, {n} roots");
            assert_eq!(report.mode, TransferMode::Parallel, "{case}");
            assert_eq!(report.workers, workers as u64, "{case}");
            let send_lanes: BTreeSet<u32> = reg
                .tracer()
                .spans()
                .iter()
                .filter(|sp| sp.name == obs::names::TRACE_SENDER_CHUNK_SEND)
                .map(|sp| sp.lane)
                .collect();
            assert_eq!(send_lanes, (1..=workers as u32).collect(), "{case}");
            assert_eq!(got.len(), n, "{case}");
            for (&p, &orig) in got.iter().zip(&roots) {
                assert_eq!(canonicalize(&receiver, p), canonicalize(&sender, orig), "{case}");
            }
            assert_eq!(receiver.verify_heap().unwrap(), vec![], "{case}");
        }
    }
}

/// Runs one receive into `receiver` and checks that it leaves the card
/// table as it found it — clean — and that the next minor collection scans
/// no card (counted in `reg`, the receiver's scoped registry) and leaves a
/// well-formed heap. Returns the received roots.
fn receive_without_cards(
    receiver: &mut Vm,
    reg: &obs::Registry,
    receive: impl FnOnce(&mut Vm) -> Vec<Addr>,
) -> Result<Vec<Addr>, TestCaseError> {
    prop_assert_eq!(receiver.heap().dirty_card_count(), 0);
    let got = receive(receiver);
    prop_assert_eq!(receiver.heap().dirty_card_count(), 0, "the receive dirtied cards");
    let scanned = reg.snapshot().counter(obs::names::GC_CARDS_SCANNED);
    receiver.minor_gc().unwrap();
    prop_assert_eq!(reg.snapshot().counter(obs::names::GC_CARDS_SCANNED), scanned);
    prop_assert_eq!(receiver.verify_heap().unwrap(), vec![]);
    Ok(got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No way into a receiving heap touches its card table: an absorbed
    /// graph references only its own input buffers. Random edge graphs plus
    /// JSBS media records go through the sequential path, the engine's
    /// inline, pipelined and 4-lane parallel modes, a `GraphReceiver` fed
    /// chunk by chunk, and the serializer — all into one receiver, each
    /// rebuilding the source graph exactly.
    #[test]
    fn transfers_leave_the_card_table_untouched(
        spec in graph_spec(40),
        records in 2usize..6,
        chunk in 256usize..2048,
    ) {
        use skyway::{
            GraphReceiver, GraphSender, ParallelConfig, PipelineConfig, PipelineEngine,
            SendConfig, TransferMode, sequential_transfer,
        };

        let cp = classpath();
        define_jsbs_classes(&cp);
        let mut sender =
            Vm::new("s", &HeapConfig::small().with_capacity(8 << 20), Arc::clone(&cp)).unwrap();
        let reg = Arc::new(obs::Registry::new());
        let mut receiver = Vm::new("r", &HeapConfig::small().with_capacity(8 << 20), cp)
            .unwrap()
            .with_metrics(Arc::clone(&reg));
        let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
        dir.bootstrap_driver(&sender).unwrap();
        dir.worker_startup(NodeId(1)).unwrap();

        let mut handles = build(&mut sender, &spec);
        let nodes = handles.len();
        handles.extend(build_dataset(&mut sender, records).unwrap());
        let longs: Vec<_> = spec.tags.iter().take(4).map(|&t| {
            let l = sender.new_long(t).unwrap();
            sender.handle(l)
        }).collect();
        let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
        let flat: Vec<Addr> = longs.iter().map(|h| sender.resolve(*h).unwrap()).collect();
        let want: Vec<_> = roots[..nodes].iter().map(|&r| canonicalize(&sender, r)).collect();
        let check = |vm: &Vm, got: &[Addr]| -> TestCaseResult {
            prop_assert_eq!(got.len(), roots.len());
            for (i, &g) in got.iter().enumerate() {
                match want.get(i) {
                    Some(w) => prop_assert_eq!(&canonicalize(vm, g), w),
                    None => prop_assert!(verify_media_content(vm, g, (i - nodes) as u64).unwrap()),
                }
            }
            Ok(())
        };

        // The serializer's controller sends as sID 1; every other path
        // takes a sID of its own.
        let sky_tx = SkywaySerializer::new(
            Arc::clone(&dir), NodeId(0), Arc::new(ShuffleController::new()),
            LayoutSpec::SKYWAY,
        ).with_chunk_limit(chunk);
        let mut p = Profile::new();
        let bytes = sky_tx.serialize(&mut sender, &roots, &mut p).unwrap();
        let sky_rx = SkywaySerializer::new(
            Arc::clone(&dir), NodeId(1), Arc::new(ShuffleController::new()),
            LayoutSpec::SKYWAY,
        );
        let got = receive_without_cards(&mut receiver, &reg, |r| {
            sky_rx.deserialize(r, &bytes, &mut p).unwrap()
        })?;
        check(&receiver, &got)?;

        let cfg = SendConfig { chunk_limit: chunk, ..SendConfig::for_vm(&sender) };
        let got = receive_without_cards(&mut receiver, &reg, |r| {
            sequential_transfer(&sender, r, &dir, NodeId(0), NodeId(1), 2, 1, &roots, None, cfg)
                .unwrap().0
        })?;
        check(&receiver, &got)?;

        let one_lane = PipelineEngine::new(PipelineConfig {
            chunk_limit: chunk,
            ..PipelineConfig::default()
        });
        let four_lanes = PipelineEngine::new(PipelineConfig {
            chunk_limit: chunk,
            parallel: Some(ParallelConfig { workers: 4, min_roots_per_worker: 1, ..Default::default() }),
            ..PipelineConfig::default()
        });
        for (sid, engine, mode) in [
            (3, &one_lane, TransferMode::Pipelined),
            (4, &four_lanes, TransferMode::Parallel),
        ] {
            let got = receive_without_cards(&mut receiver, &reg, |r| {
                let (got, report) = engine
                    .transfer(&sender, r, &dir, NodeId(0), NodeId(1), sid, 1, &roots, None)
                    .unwrap();
                assert_eq!(report.mode, mode);
                got
            })?;
            check(&receiver, &got)?;
        }
        let got = receive_without_cards(&mut receiver, &reg, |r| {
            let (got, report) = one_lane
                .transfer(&sender, r, &dir, NodeId(0), NodeId(1), 5, 1, &flat, None)
                .unwrap();
            assert_eq!(report.mode, TransferMode::Inline);
            got
        })?;
        for (&g, &t) in got.iter().zip(&spec.tags) {
            prop_assert_eq!(receiver.get_long(g, "value").unwrap(), t);
        }

        let mut gs = GraphSender::new(&sender, &dir, NodeId(0), 6, 1, cfg).unwrap();
        for &r in &roots {
            gs.write_root(r).unwrap();
        }
        let out = gs.finish();
        let got = receive_without_cards(&mut receiver, &reg, |r| {
            let mut gr = GraphReceiver::new(r, &dir, NodeId(1));
            for c in &out.chunks {
                gr.push_chunk(c).unwrap();
                gr.absorb_ready(None).unwrap();
            }
            gr.finish(None).unwrap().0
        })?;
        check(&receiver, &got)?;
    }
}

/// The chunks of a PNode graph sent from a fresh sender with `chunk_limit`,
/// plus the receiving VM, its registry and the directory.
fn chunked_stream(spec: &GraphSpec, chunk_limit: usize) -> (Vec<Vec<u8>>, Vm, Arc<TypeDirectory>) {
    let (dir, mut sender, receiver) = transfer_env();
    let handles = build(&mut sender, spec);
    let cfg = skyway::SendConfig { chunk_limit, ..skyway::SendConfig::for_vm(&sender) };
    let mut gs = skyway::GraphSender::new(&sender, &dir, NodeId(0), 1, 0, cfg).unwrap();
    for &i in &spec.roots {
        gs.write_root(sender.resolve(handles[i]).unwrap()).unwrap();
    }
    (gs.finish().chunks, receiver, dir)
}

/// Feeds `chunks` to one `GraphReceiver` in order and finishes it, counting
/// into a scoped registry: the result and the objects adoption published.
fn receive(
    receiver: &mut Vm,
    dir: &TypeDirectory,
    chunks: &[Vec<u8>],
) -> (skyway::Result<Vec<Addr>>, u64) {
    let reg = Arc::new(obs::Registry::new());
    let mut gr =
        skyway::GraphReceiver::new(receiver, dir, NodeId(1)).with_metrics(Arc::clone(&reg));
    let got = chunks.iter().try_for_each(|c| gr.push_chunk(c)).and_then(|()| gr.finish(None));
    (got.map(|(roots, _)| roots), reg.snapshot().counter(obs::names::RECEIVER_OBJECTS_ABSORBED))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One flipped bit anywhere in any chunk — payload, stream offset or
    /// checksum — is a typed error: nothing is adopted and the heap
    /// verifies. Without the trailer, a bit flipped in primitive payload
    /// reads back as a wrong field.
    #[test]
    fn a_flipped_bit_anywhere_is_a_typed_error(
        spec in graph_spec(30),
        pick in any::<u64>(),
        bit in any::<u64>(),
    ) {
        let (mut chunks, mut receiver, dir) = chunked_stream(&spec, 256);
        let c = (pick % chunks.len() as u64) as usize;
        let b = (bit % (8 * chunks[c].len() as u64)) as usize;
        chunks[c][b / 8] ^= 1 << (b % 8);
        let (got, adopted) = receive(&mut receiver, &dir, &chunks);
        prop_assert!(matches!(got, Err(skyway::Error::ChunkChecksum(_))), "chunk {} bit {}", c, b);
        prop_assert_eq!(adopted, 0);
        prop_assert_eq!(receiver.verify_heap().unwrap(), vec![]);
    }

    /// One number names one definition. A JSBS class has one field's type
    /// changed on the classpath after the sender loaded it. A receiver that
    /// loaded the new definition first meets the sender's number for a name
    /// it holds under another (the class, or an array of it): a typed
    /// `LayoutMismatch` and a clean heap. A receiver that had not loaded the class loads the
    /// sender's definition by number and rebuilds every record.
    #[test]
    fn a_redefined_class_is_refused_or_loaded_as_sent(
        class in 0usize..5,
        field in any::<usize>(),
        preload in any::<bool>(),
    ) {
        use mheap::stdlib::{ARRAY_LIST, STRING};
        use serlab::jsbs::{jsbs_class_names, IMAGE, MEDIA, MEDIA_CONTENT};

        let cp = ClassPath::new();
        define_jsbs_classes(&cp);
        let heap = HeapConfig::small().with_capacity(8 << 20);
        let mut sender = Vm::new("s", &heap, Arc::clone(&cp)).unwrap();
        let mut receiver = Vm::new("r", &heap, Arc::clone(&cp)).unwrap();
        let dir = TypeDirectory::new(2, NodeId(0));
        dir.bootstrap_driver(&sender).unwrap();
        dir.worker_startup(NodeId(1)).unwrap();
        let handles = build_dataset(&mut sender, 3).unwrap();

        let name = [MEDIA_CONTENT, MEDIA, IMAGE, STRING, ARRAY_LIST][class];
        let mut def = cp.lookup(name).unwrap();
        let f = field % def.fields.len();
        def.fields[f].1 = match def.fields[f].1 {
            FieldType::Ref => FieldType::Prim(PrimType::Long),
            FieldType::Prim(_) => FieldType::Ref,
        };
        cp.define(def);
        if preload {
            for n in jsbs_class_names() {
                receiver.load_class(n).unwrap();
            }
        }

        let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
        let cfg = skyway::SendConfig::for_vm(&sender);
        let got = skyway::sequential_transfer(
            &sender, &mut receiver, &dir, NodeId(0), NodeId(1), 1, 1, &roots, None, cfg,
        );
        if preload {
            // The stream may meet an array of the class before the class.
            let array = format!("[L{name};");
            let ours = |n: &u32| [name, &array].iter().any(|c| {
                receiver.klasses().by_name(c).is_some_and(|k| k.id.0 == *n)
            });
            let mismatch = |e: &mheap::Error| matches!(e, mheap::Error::LayoutMismatch { loaded, .. } if ours(loaded));
            prop_assert!(matches!(&got, Err(skyway::Error::Heap(e)) if mismatch(e)), "{:?}", got);
        } else {
            let (out, _, _) = got.unwrap();
            for (i, &mc) in out.iter().enumerate() {
                prop_assert!(verify_media_content(&receiver, mc, i as u64).unwrap(), "record {}", i);
            }
        }
        prop_assert_eq!(receiver.verify_heap().unwrap(), vec![]);
    }
}

/// The trailer's stream offset orders chunks: a duplicated, a swapped and a
/// lost chunk are each a typed error, with nothing adopted and a clean heap.
#[test]
fn duplicated_swapped_and_lost_chunks_are_typed_errors() {
    let n: usize = 24;
    let spec = GraphSpec {
        tags: (0..n as i64).collect(),
        lefts: (0..n).map(|i| i.checked_sub(1)).collect(),
        rights: vec![None; n],
        roots: vec![n - 1],
    };
    let (chunks, mut receiver, dir) = chunked_stream(&spec, 256);
    assert!(chunks.len() >= 4, "{} chunks", chunks.len());
    let (got, _) = receive(&mut receiver, &dir, &chunks);
    assert_eq!(got.unwrap().len(), 1, "the pristine stream arrives");
    let payload = |c: &Vec<u8>| (c.len() - skyway::buffer::TRAILER) as u64;
    let (first, second) = (payload(&chunks[0]), payload(&chunks[0]) + payload(&chunks[1]));
    let c = |i: usize| chunks[i].clone();
    for (what, stream, expected, found) in [
        ("duplicated", vec![c(0), c(1), c(1), c(2)], second, first),
        ("swapped", vec![c(0), c(2), c(1), c(3)], first, second),
        ("lost", vec![c(0), c(2), c(3)], first, second),
    ] {
        let (got, adopted) = receive(&mut receiver, &dir, &stream);
        let e = got.unwrap_err();
        assert!(
            matches!(e, skyway::Error::ChunkOutOfOrder { expected: x, found: y } if x == expected && y == found),
            "{what}: {e}"
        );
        assert_eq!(adopted, 0, "{what}");
        assert_eq!(receiver.verify_heap().unwrap(), vec![], "{what}");
    }
}
