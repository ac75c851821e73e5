//! End-to-end observability: a known three-object graph goes through a full
//! `GraphSender` → `GraphReceiver` transfer plus a
//! receiver-side GC, all reporting into one private `obs::Registry`: the
//! resulting snapshot carries exact counter values and survives a JSON
//! round-trip, and the registry's tracer holds the transfer's event log.

use std::sync::Arc;

use mheap::stdlib::define_core_classes;
use mheap::{ClassPath, FieldType, HeapConfig, KlassDef, PrimType, Vm};
use simnet::{NodeId, Profile};
use skyway::sender::SendConfig;
use skyway::{GraphReceiver, GraphSender, ShuffleController, TypeDirectory};

fn classpath() -> Arc<ClassPath> {
    let cp = ClassPath::new();
    define_core_classes(&cp);
    cp.define(KlassDef::new(
        "ObsNode",
        None,
        vec![
            ("tag", FieldType::Prim(PrimType::Long)),
            ("left", FieldType::Ref),
            ("right", FieldType::Ref),
        ],
    ));
    cp
}

/// Builds the known graph: a → {b, c}, b → c (c shared, reached twice).
fn build_graph(vm: &mut Vm) -> mheap::Addr {
    let k = vm.load_class("ObsNode").unwrap();
    let c = vm.alloc_instance(k).unwrap();
    vm.set_long(c, "tag", 3).unwrap();
    let hc = vm.handle(c);
    let b = vm.alloc_instance(k).unwrap();
    vm.set_long(b, "tag", 2).unwrap();
    let hb = vm.handle(b);
    let a = vm.alloc_instance(k).unwrap();
    vm.set_long(a, "tag", 1).unwrap();
    let ha = vm.handle(a);
    let (a, b, c) = (vm.resolve(ha).unwrap(), vm.resolve(hb).unwrap(), vm.resolve(hc).unwrap());
    vm.set_ref(a, "left", b).unwrap();
    vm.set_ref(a, "right", c).unwrap();
    let (b, c) = (vm.resolve(hb).unwrap(), vm.resolve(hc).unwrap());
    vm.set_ref(b, "left", c).unwrap();
    vm.resolve(ha).unwrap()
}

#[test]
fn full_transfer_reports_exact_metrics_and_roundtrips_as_json() {
    let reg = Arc::new(obs::Registry::new());
    reg.tracer().set_enabled(true);
    let ctx = reg.tracer().new_trace();
    let cp = classpath();
    let svm = Vm::new("tx", &HeapConfig::small().with_capacity(8 << 20), Arc::clone(&cp))
        .unwrap()
        .with_metrics(Arc::clone(&reg));
    let mut svm = svm;
    let mut rvm = Vm::new("rx", &HeapConfig::small().with_capacity(8 << 20), cp)
        .unwrap()
        .with_metrics(Arc::clone(&reg));
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&svm).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();

    let root = build_graph(&mut svm);
    let controller = ShuffleController::new();

    // --- send ---
    let mut out = GraphSender::new(
        &svm,
        &dir,
        NodeId(0),
        controller.sid(),
        controller.next_stream(),
        SendConfig::for_vm(&svm),
    )
    .unwrap()
    .with_metrics(Arc::clone(&reg))
    .with_trace(ctx);
    out.write_root(root).unwrap();
    let stream_out = out.finish();
    assert!(stream_out.stats.total_bytes > 0);

    // --- receive ---
    let mut input = GraphReceiver::new(&mut rvm, &dir, NodeId(1))
        .with_metrics(Arc::clone(&reg))
        .with_trace(ctx);
    for chunk in &stream_out.chunks {
        input.push_chunk(chunk).unwrap();
    }
    let (roots, rstats) = input.finish(None).unwrap();
    assert_eq!(roots.len(), 1);
    assert_eq!(rvm.get_long(roots[0], "tag").unwrap(), 1);

    // --- a GC on the receiver, into the same registry ---
    rvm.minor_gc().unwrap();

    // Bridge a simnet Profile through the registry too.
    let mut profile = Profile::new();
    profile.add_ns(simnet::Category::Ser, 1234);
    profile.bytes_remote = stream_out.stats.total_bytes;
    reg.put_profile("test.transfer", obs::ProfileSection::from(&profile));

    let snap = reg.snapshot();

    // Sender: exactly the 3 objects of the graph, all bytes accounted.
    assert_eq!(snap.counter(obs::names::SENDER_OBJECTS_VISITED), 3);
    assert_eq!(snap.counter(obs::names::SENDER_BYTES_CLONED), stream_out.stats.total_bytes);
    assert_eq!(snap.counter(obs::names::SENDER_CAS_CONFLICTS), 0);

    // Receiver: 3 objects, every ref slot fixed up (2 slots × 3 objects,
    // nulls included — the linear scan rewrites them all), the on-demand
    // class load observed, and the chunk accounting exact.
    assert_eq!(snap.counter(obs::names::RECEIVER_OBJECTS_ABSORBED), 3);
    assert_eq!(snap.counter(obs::names::RECEIVER_REF_FIXUPS), 6);
    assert_eq!(snap.counter(obs::names::RECEIVER_REF_FIXUPS), rstats.ref_fixups);
    assert!(snap.counter(obs::names::RECEIVER_CLASSES_LOADED) >= 1);
    assert_eq!(snap.counter(obs::names::RECEIVER_CHUNKS_ABSORBED), stream_out.chunks.len() as u64);
    assert_eq!(
        snap.counter(obs::names::RECEIVER_BYTES_ABSORBED),
        stream_out.chunks.iter().map(|c| (c.len() - skyway::buffer::TRAILER) as u64).sum::<u64>()
    );
    // Adoption dirties no card: the write barrier is the only producer.
    assert_eq!(rstats.cards_dirtied, 0);

    // GC: the receiver's minor collection landed in the same registry.
    assert_eq!(snap.counter(obs::names::GC_MINOR_GCS), 1);
    let pause = snap.histograms.get(obs::names::GC_PAUSE_NS).expect("gc pause histogram");
    assert_eq!(pause.count, 1);

    // Spans are the event log: the traversal, the absorbed chunk, the
    // on-demand class load and the receiver's GC pause (attributed through
    // the VM's trace cell) all recorded under the one trace id.
    let spans = reg.tracer().spans();
    for name in [
        obs::names::TRACE_SENDER_TRAVERSE,
        obs::names::TRACE_RECEIVER_CHUNK_ABSORB,
        obs::names::TRACE_REGISTRY_CLASS_LOAD,
        obs::names::TRACE_GC_PAUSE,
    ] {
        assert!(
            spans.iter().any(|s| s.name == name && s.trace_id == ctx.trace_id),
            "no {name} span under trace {}: {spans:?}",
            ctx.trace_id
        );
    }

    // Profile bridge made it into the snapshot.
    let sect = snap.profiles.get("test.transfer").expect("profile section");
    assert_eq!(sect.ser_ns, 1234);
    assert_eq!(sect.bytes_remote, stream_out.stats.total_bytes);

    // --- JSON round-trip ---
    let json = serde_json::to_string_pretty(&snap).unwrap();
    assert!(json.contains(obs::names::SENDER_OBJECTS_VISITED));
    assert!(!json.contains("\"events\""), "spans are the only event stream");
    let back: obs::Snapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(back, snap);
}

#[test]
fn scoped_registries_do_not_cross_talk() {
    let reg_a = Arc::new(obs::Registry::new());
    let reg_b = Arc::new(obs::Registry::new());
    reg_a.counter(obs::names::SENDER_OBJECTS_VISITED).add(7);
    assert_eq!(reg_b.snapshot().counter(obs::names::SENDER_OBJECTS_VISITED), 0);
    assert_eq!(reg_a.snapshot().counter(obs::names::SENDER_OBJECTS_VISITED), 7);
}
