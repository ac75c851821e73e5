//! End-to-end Skyway transfer tests: correctness of the full
//! sender→chunks→receiver pipeline, hashcode preservation, aliasing,
//! threading, heterogeneous formats, GC interaction, and failure modes.

use std::sync::Arc;

use mheap::layout::baddr;
use mheap::{Addr, ClassPath, HeapConfig, LayoutSpec, Vm};
use serlab::jsbs::{build_dataset, define_jsbs_classes, verify_media_content};
use serlab::Serializer;
use simnet::{NodeId, Profile};
use skyway::{
    scrub_baddrs, ParallelConfig, PipelineConfig, PipelineEngine, SendConfig, ShuffleController,
    SkywayObjectInputStream, SkywayObjectOutputStream, SkywaySerializer, Tracking, TransferMode,
    TypeDirectory, UpdateRegistry,
};

fn classpath() -> Arc<ClassPath> {
    let cp = ClassPath::new();
    define_jsbs_classes(&cp);
    cp
}

fn setup_pair() -> (Arc<TypeDirectory>, Vm, Vm) {
    let cp = classpath();
    let sender =
        Vm::new("n0", &HeapConfig::default().with_capacity(24 << 20), Arc::clone(&cp)).unwrap();
    let receiver = Vm::new("n1", &HeapConfig::default().with_capacity(24 << 20), cp).unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();
    (dir, sender, receiver)
}

fn skyway_for(dir: &Arc<TypeDirectory>, node: usize) -> SkywaySerializer {
    SkywaySerializer::new(
        Arc::clone(dir),
        NodeId(node),
        Arc::new(ShuffleController::new()),
        LayoutSpec::SKYWAY,
    )
}

#[test]
fn jsbs_records_roundtrip() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let handles = build_dataset(&mut sender, 30).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let bytes = sky_tx.serialize(&mut sender, &roots, &mut p).unwrap();
    let rebuilt = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    assert_eq!(rebuilt.len(), 30);
    for (i, &mc) in rebuilt.iter().enumerate() {
        assert!(verify_media_content(&receiver, mc, i as u64).unwrap(), "record {i}");
    }
    // Skyway's defining property: zero S/D function invocations.
    assert_eq!(p.ser_invocations, 0);
    assert_eq!(p.deser_invocations, 0);
    assert!(p.objects_transferred > 0);
}

#[test]
fn identity_hashcode_survives_transfer() {
    // §4.2 Header Update: the cached hashcode rides the mark word across
    // the wire, so hash structures need no rehash.
    let (dir, mut sender, mut receiver) = setup_pair();
    let s = sender.new_string("hash me").unwrap();
    let h = sender.handle(s);
    let s = sender.resolve(h).unwrap();
    let hash_before = sender.identity_hash(s).unwrap();

    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let s = sender.resolve(h).unwrap();
    let bytes = sky_tx.serialize(&mut sender, &[s], &mut p).unwrap();
    let roots = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    let hash_after = receiver.identity_hash(roots[0]).unwrap();
    assert_eq!(hash_before, hash_after);
}

#[test]
fn transferred_hashmap_is_usable_without_rehash() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let map = sender.new_hash_map(16).unwrap();
    let mh = sender.handle(map);
    let mut key_handles = Vec::new();
    for i in 0..40 {
        let k = sender.new_integer(i).unwrap();
        key_handles.push(sender.handle(k));
        let v = sender.new_integer(i * 3).unwrap();
        let map = sender.resolve(mh).unwrap();
        let k = sender.resolve(*key_handles.last().unwrap()).unwrap();
        sender.map_put(map, k, v).unwrap();
    }
    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let map = sender.resolve(mh).unwrap();
    let bytes = sky_tx.serialize(&mut sender, &[map], &mut p).unwrap();
    let roots = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    let rmap = roots[0];
    assert_eq!(receiver.map_len(rmap).unwrap(), 40);
    // The bucket layout is still consistent with the (preserved) hashes —
    // no rehash required.
    assert!(receiver.map_is_consistent(rmap).unwrap());
}

#[test]
fn aliasing_is_preserved_within_a_phase() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let s = sender.new_string("shared").unwrap();
    let sh = sender.handle(s);
    let s1 = sender.resolve(sh).unwrap();
    let a = sender.new_pair(s1, Addr::NULL).unwrap();
    let ah = sender.handle(a);
    let s1 = sender.resolve(sh).unwrap();
    let b = sender.new_pair(s1, Addr::NULL).unwrap();
    let bh = sender.handle(b);

    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let roots = vec![sender.resolve(ah).unwrap(), sender.resolve(bh).unwrap()];
    let bytes = sky_tx.serialize(&mut sender, &roots, &mut p).unwrap();
    let rebuilt = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    let fa = receiver.get_ref(rebuilt[0], "first").unwrap();
    let fb = receiver.get_ref(rebuilt[1], "first").unwrap();
    assert_eq!(fa, fb, "shared object duplicated");
    assert_eq!(receiver.read_string(fa).unwrap(), "shared");
}

#[test]
fn repeated_root_uses_backward_reference() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let s = sender.new_string("root twice").unwrap();
    let h = sender.handle(s);
    let controller = ShuffleController::new();
    let mut out = SkywayObjectOutputStream::new(
        &sender,
        &dir,
        NodeId(0),
        &controller,
        SendConfig::for_vm(&sender),
    )
    .unwrap();
    let root = sender.resolve(h).unwrap();
    out.write_object(root).unwrap();
    out.write_object(root).unwrap(); // already sent in this phase
    let stream = out.finish();

    let mut input = SkywayObjectInputStream::new(&mut receiver, &dir, NodeId(1));
    for c in &stream.chunks {
        input.push_chunk(c).unwrap();
    }
    let (roots, stats) = input.read_objects(None).unwrap();
    assert_eq!(roots.len(), 2);
    assert_eq!(roots[0], roots[1], "backward reference must alias the same object");
    // Only 2 objects (string + char array) crossed, not 4.
    assert_eq!(stats.objects, 2);
}

#[test]
fn cyclic_graphs_transfer() {
    let cp = classpath();
    cp.define(mheap::KlassDef::new(
        "Cyc",
        None,
        vec![("id", mheap::FieldType::Prim(mheap::PrimType::Int)), ("next", mheap::FieldType::Ref)],
    ));
    let mut sender = Vm::new("n0", &HeapConfig::small(), Arc::clone(&cp)).unwrap();
    let mut receiver = Vm::new("n1", &HeapConfig::small(), cp).unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();

    let k = sender.load_class("Cyc").unwrap();
    let a = sender.alloc_instance(k).unwrap();
    let ah = sender.handle(a);
    let b = sender.alloc_instance(k).unwrap();
    let a = sender.resolve(ah).unwrap();
    sender.set_int(a, "id", 1).unwrap();
    sender.set_int(b, "id", 2).unwrap();
    sender.set_ref(a, "next", b).unwrap();
    sender.set_ref(b, "next", a).unwrap();

    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let a = sender.resolve(ah).unwrap();
    let bytes = sky_tx.serialize(&mut sender, &[a], &mut p).unwrap();
    let roots = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    let ra = roots[0];
    let rb = receiver.get_ref(ra, "next").unwrap();
    assert_eq!(receiver.get_int(rb, "id").unwrap(), 2);
    assert_eq!(receiver.get_ref(rb, "next").unwrap(), ra, "cycle broken");
}

#[test]
fn streaming_small_chunks_roundtrip() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let handles = build_dataset(&mut sender, 20).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    // Tiny 256-byte chunks force many flushes and cross-chunk references.
    let sky_tx = SkywaySerializer::new(
        Arc::clone(&dir),
        NodeId(0),
        Arc::new(ShuffleController::new()),
        LayoutSpec::SKYWAY,
    )
    .with_chunk_limit(256);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let bytes = sky_tx.serialize(&mut sender, &roots, &mut p).unwrap();
    let rebuilt = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    for (i, &mc) in rebuilt.iter().enumerate() {
        assert!(verify_media_content(&receiver, mc, i as u64).unwrap());
    }
}

/// An engine with four work-stealing sender lanes that engage from four
/// roots up.
fn four_lane_engine() -> PipelineEngine {
    PipelineEngine::new(PipelineConfig {
        parallel: Some(ParallelConfig { workers: 4, min_roots_per_worker: 1 }),
        ..PipelineConfig::default()
    })
}

#[test]
fn parallel_send_with_shared_objects() {
    let (dir, mut sender, mut receiver) = setup_pair();
    // Many pairs sharing one string → cross-thread contention on baddr.
    let s = sender.new_string("contended").unwrap();
    let sh = sender.handle(s);
    let mut pair_handles = Vec::new();
    for i in 0..64 {
        let n = sender.new_integer(i).unwrap();
        let s = sender.resolve(sh).unwrap();
        let pr = sender.new_pair(s, n).unwrap();
        pair_handles.push(sender.handle(pr));
    }
    let roots: Vec<Addr> = pair_handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let (got, report) = four_lane_engine()
        .transfer(&sender, &mut receiver, &dir, NodeId(0), NodeId(1), 7, 100, &roots, None)
        .unwrap();
    assert_eq!(report.mode, TransferMode::Parallel);
    assert_eq!(report.send_stats.objects, report.recv_stats.objects);
    // Whichever lane sent a root, it arrives at its original position.
    assert_eq!(got.len(), 64);
    let mut copies = std::collections::HashSet::new();
    for (i, &r) in got.iter().enumerate() {
        let second = receiver.get_ref(r, "second").unwrap();
        assert_eq!(receiver.get_int(second, "value").unwrap(), i as i32, "root {i} out of order");
        let first = receiver.get_ref(r, "first").unwrap();
        assert_eq!(receiver.read_string(first).unwrap(), "contended");
        copies.insert(first);
    }
    // Each lane that reached the string sends its own copy (one claims it
    // through baddr, the others through their private tables) and aliases
    // every later use to that copy.
    assert!((1..=report.workers as usize).contains(&copies.len()), "{} copies", copies.len());
    assert_eq!(receiver.verify_heap().unwrap(), vec![]);
}

// Lane `t` of an engine transfer sends as `stream + t`, so the caller must
// own all of `stream .. stream + lanes`: an id a lane used and the controller
// then hands to the next stream of the phase makes an object that lane
// claimed look already-sent to the new stream, which emits a back-reference
// into a stream the receiver is not reading.
#[test]
fn engine_lanes_send_under_a_reserved_stream_id_block() {
    let engine = four_lane_engine();
    for _ in 0..200 {
        let (dir, mut sender, mut receiver) = setup_pair();
        let controller = ShuffleController::new();
        let s = sender.new_string("shared").unwrap();
        let sh = sender.handle(s);
        // Only lane 1's initial block (roots 4..8) references the string;
        // lane 0's block is heavy, so it is still copying when lane 1 gets
        // there instead of done and stealing lane 1's roots.
        let ballast = "b".repeat(1 << 17);
        let mut pair_handles = Vec::new();
        for i in 0..17 {
            let second = if i < 4 { sender.new_string(&ballast).unwrap() } else { Addr::NULL };
            let first = if (4..8).contains(&i) || i == 16 {
                sender.resolve(sh).unwrap()
            } else {
                Addr::NULL
            };
            let pr = sender.new_pair(first, second).unwrap();
            pair_handles.push(sender.handle(pr));
        }
        let roots: Vec<Addr> = pair_handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
        let (first_set, second_set) = roots.split_at(16);

        let sid = controller.sid();
        let send = |receiver: &mut Vm, stream: u16, roots: &[Addr]| {
            engine.transfer(&sender, receiver, &dir, NodeId(0), NodeId(1), sid, stream, roots, None)
        };
        let base = controller.next_stream_block(4);
        send(&mut receiver, base, first_set).unwrap();
        let s = sender.resolve(sh).unwrap();
        let word = sender.heap().arena().load_word(s.0 + sender.spec().baddr_off().unwrap());
        let owner = baddr::stream_of(word.unwrap());
        if owner == base {
            continue; // lane 0 stole the claim this round
        }
        assert!((base + 1..base + 4).contains(&owner), "claimed by stream {owner}");

        // The owner's id again in the same phase — what a one-id
        // reservation would have the controller hand out next.
        let err = send(&mut receiver, owner, second_set).unwrap_err();
        assert!(matches!(err, skyway::Error::DanglingRelativeAddr(_)), "{err}");
        assert_eq!(receiver.verify_heap().unwrap(), vec![]);

        // The controller's next id is past the whole block.
        let next = controller.next_stream();
        assert_eq!(next, base + 4);
        let (got, _) = send(&mut receiver, next, second_set).unwrap();
        let first = receiver.get_ref(got[0], "first").unwrap();
        assert_eq!(receiver.read_string(first).unwrap(), "shared");
        return;
    }
    panic!("no lane >= 1 claimed the shared string in 200 rounds");
}

#[test]
fn heterogeneous_format_adjustment() {
    // Sender uses the Skyway format (3-word header); receiver runs a
    // compact stock JVM (2-word header, 4-byte array length). The sender
    // adjusts object formats while copying (§3.1).
    let cp = classpath();
    let mut sender = Vm::new("n0", &HeapConfig::small(), Arc::clone(&cp)).unwrap();
    let mut receiver =
        Vm::new("n1", &HeapConfig { spec: LayoutSpec::COMPACT, ..HeapConfig::small() }, cp)
            .unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();

    let s = sender.new_string("format shift").unwrap();
    let h = sender.handle(s);
    let sky_tx = SkywaySerializer::new(
        Arc::clone(&dir),
        NodeId(0),
        Arc::new(ShuffleController::new()),
        LayoutSpec::COMPACT, // receiver's format
    );
    let sky_rx = SkywaySerializer::new(
        Arc::clone(&dir),
        NodeId(1),
        Arc::new(ShuffleController::new()),
        LayoutSpec::COMPACT,
    );
    let mut p = Profile::new();
    let s = sender.resolve(h).unwrap();
    let bytes = sky_tx.serialize(&mut sender, &[s], &mut p).unwrap();
    let roots = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    assert_eq!(receiver.read_string(roots[0]).unwrap(), "format shift");
}

#[test]
fn spec_mismatch_is_rejected() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let s = sender.new_string("x").unwrap();
    // Sender prepares a COMPACT-format stream but the receiver runs SKYWAY.
    let sky_tx = SkywaySerializer::new(
        Arc::clone(&dir),
        NodeId(0),
        Arc::new(ShuffleController::new()),
        LayoutSpec::COMPACT,
    );
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let bytes = sky_tx.serialize(&mut sender, &[s], &mut p).unwrap();
    assert!(sky_rx.deserialize(&mut receiver, &bytes, &mut p).is_err());
}

#[test]
fn retired_containers_are_typed_errors() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let s = sender.new_string("x").unwrap();
    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let frame = sky_tx.serialize(&mut sender, &[s], &mut p).unwrap();
    // The multi-stream container older senders wrapped frames in.
    let multi = [b"MSKY\x02\0".as_slice(), &frame].concat();
    // Flag bit 2 marked the compressed wire: absorbed as plain, its bytes
    // would be read as objects they are not.
    let mut compressed = frame.clone();
    compressed[5] |= 0b100;
    for bytes in [multi, compressed] {
        let err = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap_err();
        assert!(matches!(err, serlab::Error::Malformed(_)), "{err}");
        assert_eq!(receiver.verify_heap().unwrap(), vec![]);
    }
    // The untouched frame still reads.
    let roots = sky_rx.deserialize(&mut receiver, &frame, &mut p).unwrap();
    assert_eq!(receiver.read_string(roots[0]).unwrap(), "x");
}

#[test]
fn received_objects_survive_gc_and_stay_usable() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let handles = build_dataset(&mut sender, 10).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let bytes = sky_tx.serialize(&mut sender, &roots, &mut p).unwrap();
    let rebuilt = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    // Root them (the caller contract), then stress the receiver heap.
    let root_handles: Vec<_> = rebuilt.iter().map(|&r| receiver.handle(r)).collect();
    for i in 0..5000 {
        receiver.new_string(&format!("gc pressure {i}")).unwrap();
    }
    receiver.full_gc().unwrap();
    for (i, h) in root_handles.iter().enumerate() {
        let mc = receiver.resolve(*h).unwrap();
        assert!(verify_media_content(&receiver, mc, i as u64).unwrap(), "record {i} after GC");
    }
}

#[test]
fn hashtable_tracking_works_without_baddr_word() {
    // Ablation path: a stock-format heap (no baddr) can still send via the
    // side-table tracker.
    let cp = classpath();
    let mut sender = Vm::new(
        "n0",
        &HeapConfig { spec: LayoutSpec::STOCK, ..HeapConfig::small() },
        Arc::clone(&cp),
    )
    .unwrap();
    let mut receiver =
        Vm::new("n1", &HeapConfig { spec: LayoutSpec::STOCK, ..HeapConfig::small() }, cp).unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();
    let s = sender.new_string("no baddr").unwrap();
    let sky_tx = SkywaySerializer::new(
        Arc::clone(&dir),
        NodeId(0),
        Arc::new(ShuffleController::new()),
        LayoutSpec::STOCK,
    )
    .with_tracking(Tracking::HashTable);
    let sky_rx = SkywaySerializer::new(
        Arc::clone(&dir),
        NodeId(1),
        Arc::new(ShuffleController::new()),
        LayoutSpec::STOCK,
    );
    let mut p = Profile::new();
    let bytes = sky_tx.serialize(&mut sender, &[s], &mut p).unwrap();
    let roots = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    assert_eq!(receiver.read_string(roots[0]).unwrap(), "no baddr");
}

#[test]
fn baddr_tracking_on_stock_heap_is_rejected() {
    let cp = classpath();
    let sender =
        Vm::new("n0", &HeapConfig { spec: LayoutSpec::STOCK, ..HeapConfig::small() }, cp).unwrap();
    let dir = TypeDirectory::new(1, NodeId(0));
    let controller = ShuffleController::new();
    let cfg = SendConfig {
        chunk_limit: 1024,
        receiver_spec: LayoutSpec::STOCK,
        tracking: Tracking::Baddr,
    };
    assert!(matches!(
        SkywayObjectOutputStream::new(&sender, &dir, NodeId(0), &controller, cfg),
        Err(skyway::Error::NeedsBaddr)
    ));
}

#[test]
fn update_hooks_run_after_transfer() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let i = sender.new_integer(41).unwrap();
    let hooks = Arc::new(UpdateRegistry::new());
    hooks.register_update(mheap::stdlib::INTEGER, |vm, obj| {
        let v = vm.get_int(obj, "value").map_err(skyway::Error::Heap)?;
        vm.set_int(obj, "value", v + 1).map_err(skyway::Error::Heap)?;
        Ok(())
    });
    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = SkywaySerializer::new(
        Arc::clone(&dir),
        NodeId(1),
        Arc::new(ShuffleController::new()),
        LayoutSpec::SKYWAY,
    )
    .with_hooks(hooks);
    let mut p = Profile::new();
    let bytes = sky_tx.serialize(&mut sender, &[i], &mut p).unwrap();
    let roots = sky_rx.deserialize(&mut receiver, &bytes, &mut p).unwrap();
    assert_eq!(receiver.get_int(roots[0], "value").unwrap(), 42);
}

/// The receiver dirties no card, so a young object an update hook stores
/// into received data is remembered by the write barrier alone: each
/// received Pair's `second` is a young Long reachable only from the Pair,
/// and it survives a minor and a full collection at its Pair.
#[test]
fn hook_stores_are_remembered_by_the_barrier_alone() {
    use mheap::stdlib::PAIR;
    use skyway::{GraphReceiver, GraphSender};

    let (dir, mut sender, mut receiver) = setup_pair();
    let handles: Vec<_> = (0..64)
        .map(|i| {
            let v = sender.new_integer(i).unwrap();
            let pair = sender.new_pair(v, Addr::NULL).unwrap();
            sender.handle(pair)
        })
        .collect();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let hooks = UpdateRegistry::new();
    hooks.register_update(PAIR, |vm, pair| {
        let first = vm.get_ref(pair, "first").map_err(skyway::Error::Heap)?;
        let n = vm.get_int(first, "value").map_err(skyway::Error::Heap)?;
        let long = vm.new_long(i64::from(n) * 1000).map_err(skyway::Error::Heap)?;
        vm.set_ref(pair, "second", long).map_err(skyway::Error::Heap)
    });

    let mut gs =
        GraphSender::new(&sender, &dir, NodeId(0), 1, 1, SendConfig::for_vm(&sender)).unwrap();
    for &r in &roots {
        gs.write_root(r).unwrap();
    }
    let out = gs.finish();
    let mut gr = GraphReceiver::new(&mut receiver, &dir, NodeId(1));
    for c in &out.chunks {
        gr.push_chunk(c).unwrap();
    }
    let (got, stats) = gr.finish(Some(&hooks)).unwrap();
    assert_eq!(stats.cards_dirtied, 0);
    let got: Vec<_> = got.iter().map(|&a| receiver.handle(a)).collect();

    let check = |vm: &Vm| {
        for (i, h) in got.iter().enumerate() {
            let pair = vm.resolve(*h).unwrap();
            assert!(vm.heap().in_old(pair), "pair {i} is received data");
            let long = vm.get_ref(pair, "second").unwrap();
            assert!(vm.heap().in_young(long), "pair {i}'s Long is young");
            assert_eq!(vm.get_long(long, "value").unwrap(), i as i64 * 1000, "pair {i}");
        }
        assert_eq!(vm.verify_heap().unwrap(), vec![]);
    };
    check(&receiver);
    receiver.minor_gc().unwrap();
    check(&receiver);
    receiver.full_gc().unwrap();
    check(&receiver);
}

#[test]
fn phase_isolation_new_phase_resends() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let s = sender.new_string("phased").unwrap();
    let h = sender.handle(s);
    let controller = Arc::new(ShuffleController::new());
    let sky_tx = SkywaySerializer::new(
        Arc::clone(&dir),
        NodeId(0),
        Arc::clone(&controller),
        LayoutSpec::SKYWAY,
    );
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let s1 = sender.resolve(h).unwrap();
    let b1 = sky_tx.serialize(&mut sender, &[s1], &mut p).unwrap();
    controller.start_phase(); // shuffleStart
    let s2 = sender.resolve(h).unwrap();
    let b2 = sky_tx.serialize(&mut sender, &[s2], &mut p).unwrap();
    // Both are full copies (no cross-phase backward refs).
    let r1 = sky_rx.deserialize(&mut receiver, &b1, &mut p).unwrap();
    let r2 = sky_rx.deserialize(&mut receiver, &b2, &mut p).unwrap();
    assert_ne!(r1[0], r2[0]);
    assert_eq!(receiver.read_string(r1[0]).unwrap(), "phased");
    assert_eq!(receiver.read_string(r2[0]).unwrap(), "phased");
}

#[test]
fn scrub_baddrs_clears_everything() {
    let (_dir, mut sender, _receiver) = setup_pair();
    let dir = Arc::new(TypeDirectory::new(1, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    let s = sender.new_string("scrubbed").unwrap();
    let h = sender.handle(s);
    let controller = ShuffleController::new();
    let mut out = SkywayObjectOutputStream::new(
        &sender,
        &dir,
        NodeId(0),
        &controller,
        SendConfig::for_vm(&sender),
    )
    .unwrap();
    let s = sender.resolve(h).unwrap();
    out.write_object(s).unwrap();
    let _ = out.finish();
    // The baddr word now carries phase state.
    let s = sender.resolve(h).unwrap();
    let off = sender.spec().baddr_off().unwrap();
    assert_ne!(sender.heap().arena().load_word(s.0 + off).unwrap(), 0);
    scrub_baddrs(&mut sender).unwrap();
    let s = sender.resolve(h).unwrap();
    assert_eq!(sender.heap().arena().load_word(s.0 + off).unwrap(), 0);
}

#[test]
fn corrupt_stream_is_an_error() {
    let (dir, mut sender, mut receiver) = setup_pair();
    let s = sender.new_string("x").unwrap();
    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let mut bytes = sky_tx.serialize(&mut sender, &[s], &mut p).unwrap();
    // Corrupt the tID of the first object (after the 10-byte frame header,
    // 4-byte chunk len, 8-byte TOP_MARK, 8-byte mark word).
    let off = 10 + 4 + 8 + 8;
    bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(sky_rx.deserialize(&mut receiver, &bytes, &mut p).is_err());
}

#[test]
fn skyway_emits_more_bytes_than_kryo_but_no_invocations() {
    // The paper's trade-off in one test: more bytes, zero S/D calls.
    let (dir, mut sender, _) = setup_pair();
    let handles = build_dataset(&mut sender, 50).unwrap();
    let roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();

    let reg = serlab::KryoRegistry::new();
    reg.register_all(serlab::jsbs::jsbs_class_names()).unwrap();
    let kryo = serlab::KryoSerializer::manual(Arc::new(reg));
    let mut pk = Profile::new();
    let kryo_bytes = kryo.serialize(&mut sender, &roots, &mut pk).unwrap().len();

    let sky = skyway_for(&dir, 0);
    let mut ps = Profile::new();
    let sky_bytes = sky.serialize(&mut sender, &roots, &mut ps).unwrap().len();

    assert!(sky_bytes > kryo_bytes, "skyway {sky_bytes} <= kryo {kryo_bytes}");
    assert_eq!(ps.ser_invocations, 0);
    assert!(pk.ser_invocations > 0);
    // Headers + padding should dominate the extra bytes (§5.2).
    let stats = sky.last_send_stats();
    assert!(stats.header_bytes > 0);
    assert!(stats.header_bytes + stats.padding_bytes > stats.pointer_bytes);
}

/// FNV-1a over every byte of every chunk, chunk lengths included.
fn fnv_chunks(chunks: &[Vec<u8>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    for c in chunks {
        (c.len() as u64).to_le_bytes().into_iter().for_each(&mut eat);
        c.iter().copied().for_each(&mut eat);
    }
    h
}

// The wire stream of a fixed JSBS graph (12 records, one root repeated so a
// `TOP_REF` goes out, 4 KiB chunks), pinned byte for byte. The value was
// taken before the sender learned to write segment images: the wire
// encoding must not move when the image encoding changes.
#[test]
fn wire_stream_is_pinned_byte_for_byte() {
    for tracking in [Tracking::Baddr, Tracking::HashTable] {
        let (dir, mut sender, _) = setup_pair();
        let handles = build_dataset(&mut sender, 12).unwrap();
        let mut roots: Vec<Addr> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
        roots.push(roots[3]);
        let cfg = SendConfig { chunk_limit: 4096, receiver_spec: sender.spec(), tracking };
        let mut gs = skyway::GraphSender::new(&sender, &dir, NodeId(0), 1, 0, cfg).unwrap();
        for &r in &roots {
            gs.write_root(r).unwrap();
        }
        let out = gs.finish();
        assert_eq!(out.chunks.len(), 5, "{tracking:?}");
        assert_eq!(out.stats.total_bytes, 17_984, "{tracking:?}");
        assert_eq!(fnv_chunks(&out.chunks), 0x348c_84e4_acf4_8446, "{tracking:?}");
    }
}
