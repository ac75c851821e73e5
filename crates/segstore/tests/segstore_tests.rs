//! Segment-store integration tests: attach must be observationally equal
//! to a byte-cloning transfer, a sealed image must be final as written,
//! and refcounts must pin segments across GC and epoch advances.

use std::sync::Arc;

use proptest::prelude::*;

use mheap::stdlib::{define_core_classes, PAIR};
use mheap::{
    Addr, ClassPath, FieldType, Gen, HeapConfig, KlassDef, KlassKind, LayoutSpec, PrimType, Vm,
    FILLER_WORD,
};
use segstore::{shared_transfer, SegStore};
use simnet::NodeId;
use skyway::{sequential_transfer, SendConfig, Tracking, TransferMode, TypeDirectory};

fn classpath() -> Arc<ClassPath> {
    let cp = ClassPath::new();
    define_core_classes(&cp);
    cp.define(KlassDef::new(
        "SNode",
        None,
        vec![
            ("tag", FieldType::Prim(PrimType::Long)),
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
    let k = vm.load_class("SNode").unwrap();
    let mut handles = Vec::with_capacity(spec.tags.len());
    for i in 0..spec.tags.len() {
        let node = vm.alloc_instance(k).unwrap();
        vm.set_long(node, "tag", spec.tags[i]).unwrap();
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

/// Canonical form of the graph reachable from `root`: DFS preorder with
/// edges as discovery indices — identical graphs canonicalize identically
/// regardless of where their bytes live (owned heap or attached segment).
fn canonicalize(vm: &Vm, root: Addr) -> Vec<(i64, Option<usize>, Option<usize>)> {
    let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut order: Vec<Addr> = Vec::new();
    let mut stack = vec![root];
    while let Some(a) = stack.pop() {
        if a.is_null() || index.contains_key(&a.0) {
            continue;
        }
        index.insert(a.0, order.len());
        order.push(a);
        let l = vm.get_ref(a, "left").unwrap();
        let r = vm.get_ref(a, "right").unwrap();
        stack.push(r);
        stack.push(l);
    }
    let mut out = Vec::with_capacity(order.len());
    for &a in &order {
        let tag = vm.get_long(a, "tag").unwrap();
        let l = vm.get_ref(a, "left").unwrap();
        let r = vm.get_ref(a, "right").unwrap();
        out.push((tag, (!l.is_null()).then(|| index[&l.0]), (!r.is_null()).then(|| index[&r.0])));
    }
    out
}

/// Two co-located VMs on node 0 sharing one type directory.
fn same_node_env() -> (Arc<TypeDirectory>, Vm, Vm) {
    env_with(HeapConfig::small().with_capacity(8 << 20))
}

/// [`same_node_env`] with both heaps built from `cfg`.
fn env_with(cfg: HeapConfig) -> (Arc<TypeDirectory>, Vm, Vm) {
    let cp = classpath();
    let sender = Vm::new("s", &cfg, Arc::clone(&cp)).unwrap();
    let receiver = Vm::new("r", &cfg, cp).unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();
    (dir, sender, receiver)
}

fn resolve_roots(vm: &Vm, handles: &[mheap::Handle], idx: &[usize]) -> Vec<Addr> {
    idx.iter().map(|&i| vm.resolve(handles[i]).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The tentpole property: attaching a sealed segment must be
    // observationally identical to cloning the graph byte-by-byte through
    // the wire path — same per-root structure, tags, and sharing — while
    // doing none of the receive-side work (zero chunks, fixups, dirtied
    // cards) and keeping every heap invariant intact, even with owned→
    // segment references created after the attach.
    #[test]
    fn attach_equals_clone(spec in graph_spec(32)) {
        let (dir, mut sender, mut receiver) = same_node_env();
        let handles = build(&mut sender, &spec);
        let roots = resolve_roots(&sender, &handles, &spec.roots);

        // Reference run: the ordinary cloning transfer of the same graph
        // in an independent environment.
        let (dir2, mut sender2, mut receiver2) = same_node_env();
        let handles2 = build(&mut sender2, &spec);
        let roots2 = resolve_roots(&sender2, &handles2, &spec.roots);
        let cfg = SendConfig::for_vm(&sender2);
        let (cloned, _, _) = sequential_transfer(
            &sender2, &mut receiver2, &dir2, NodeId(0), NodeId(1), 1, 1, &roots2, None, cfg,
        ).unwrap();

        let store = SegStore::new().with_metrics(Arc::new(obs::Registry::new()));
        let (attached, report) =
            shared_transfer(&store, &sender, &mut receiver, &dir, NodeId(0), &roots).unwrap();

        prop_assert_eq!(report.mode, TransferMode::Shared);
        prop_assert_eq!(report.recv_stats.chunks, 0);
        prop_assert_eq!(report.recv_stats.ref_fixups, 0);
        prop_assert_eq!(report.recv_stats.cards_dirtied, 0);
        prop_assert_eq!(attached.len(), cloned.len());
        for ((a, c), &orig) in attached.iter().zip(&cloned).zip(&roots) {
            let want = canonicalize(&sender, orig);
            prop_assert_eq!(&canonicalize(&receiver, *a), &want);
            prop_assert_eq!(&canonicalize(&receiver2, *c), &want);
        }

        // Owned objects may point INTO the segment (cross-segment refs);
        // the heap must verify clean and survive a full GC with the
        // segment acting as a boundary.
        let k = receiver.load_class("SNode").unwrap();
        let owned = receiver.alloc_instance(k).unwrap();
        let h = receiver.handle(owned);
        let owned = receiver.resolve(h).unwrap();
        receiver.set_ref(owned, "left", attached[0]).unwrap();
        prop_assert_eq!(receiver.verify_heap().unwrap(), vec![]);
        receiver.full_gc().unwrap();
        prop_assert_eq!(receiver.verify_heap().unwrap(), vec![]);
        let owned = receiver.resolve(h).unwrap();
        let through = receiver.get_ref(owned, "left").unwrap();
        prop_assert_eq!(&canonicalize(&receiver, through), &canonicalize(&sender, roots[0]));
    }
}

/// What hangs off a node's `right` field in an [`ImageSpec`] graph.
#[derive(Debug, Clone)]
enum Right {
    Null,
    Node(usize),
    /// A `long[]` with these elements.
    Longs(Vec<i64>),
    /// An `SNode[]` over these nodes (`None` = null element).
    Nodes(Vec<Option<usize>>),
}

/// A graph with everything a segment image has to get right: instances
/// whose `left` edges go anywhere (cycles, sharing), primitive arrays,
/// reference arrays, and a root list whose last entry repeats its first.
#[derive(Debug, Clone)]
struct ImageSpec {
    tags: Vec<i64>,
    lefts: Vec<Option<usize>>,
    rights: Vec<Right>,
    roots: Vec<usize>,
}

fn image_spec(max_nodes: usize) -> impl Strategy<Value = ImageSpec> {
    (2..max_nodes)
        .prop_flat_map(|n| {
            let right = (
                0..4u8,
                0..n,
                proptest::collection::vec(any::<i64>(), 0..5),
                proptest::collection::vec(proptest::option::of(0..n), 0..5),
            )
                .prop_map(|(kind, node, longs, nodes)| match kind {
                    0 => Right::Null,
                    1 => Right::Node(node),
                    2 => Right::Longs(longs),
                    _ => Right::Nodes(nodes),
                });
            (
                proptest::collection::vec(any::<i64>(), n),
                proptest::collection::vec(proptest::option::of(0..n), n),
                proptest::collection::vec(right, n),
                proptest::collection::vec(0..n, 1..5),
            )
        })
        .prop_map(|(tags, lefts, rights, mut roots)| {
            roots.push(roots[0]);
            ImageSpec { tags, lefts, rights, roots }
        })
}

/// Builds `spec` in `vm` and returns the root addresses, in `spec.roots`
/// order. Every node is allocated before any edge is set, so edges may
/// point forwards and back.
fn build_image(vm: &mut Vm, spec: &ImageSpec) -> Vec<Addr> {
    let node_k = vm.load_class("SNode").unwrap();
    let nodes: Vec<mheap::Handle> = (0..spec.tags.len())
        .map(|i| {
            let n = vm.alloc_instance(node_k).unwrap();
            vm.set_long(n, "tag", spec.tags[i]).unwrap();
            vm.handle(n)
        })
        .collect();
    let at = |vm: &Vm, i: usize| vm.resolve(nodes[i]).unwrap();
    for i in 0..nodes.len() {
        if let Some(l) = spec.lefts[i] {
            let (n, t) = (at(vm, i), at(vm, l));
            vm.set_ref(n, "left", t).unwrap();
        }
        let target = match &spec.rights[i] {
            Right::Null => continue,
            Right::Node(j) => at(vm, *j),
            Right::Longs(vals) => {
                let k = vm.load_class("[J").unwrap();
                let arr = vm.alloc_array(k, vals.len() as u64).unwrap();
                for (e, &v) in vals.iter().enumerate() {
                    vm.array_set_raw(arr, e as u64, v as u64).unwrap();
                }
                arr
            }
            Right::Nodes(elems) => {
                let k = vm.load_class("[LSNode;").unwrap();
                let arr = vm.alloc_array(k, elems.len() as u64).unwrap();
                let h = vm.handle(arr);
                for (e, elem) in elems.iter().enumerate() {
                    if let Some(j) = elem {
                        let (arr, t) = (vm.resolve(h).unwrap(), at(vm, *j));
                        vm.array_set_ref(arr, e as u64, t).unwrap();
                    }
                }
                vm.resolve(h).unwrap()
            }
        };
        let n = at(vm, i);
        vm.set_ref(n, "right", target).unwrap();
    }
    spec.roots.iter().map(|&i| at(vm, i)).collect()
}

/// One object of a [`shape`]: class, array length, cached identity hash,
/// the payload words that are not references, and the reference targets
/// as discovery indices.
type ObjShape = (String, u64, u32, Vec<u64>, Vec<Option<usize>>);

/// Everything reachable from `root` in DFS preorder, described without
/// addresses: equal graphs have equal shapes wherever their bytes live and
/// whichever object format they are in.
fn shape(vm: &Vm, root: Addr) -> Vec<ObjShape> {
    let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut order: Vec<Addr> = Vec::new();
    let mut stack = vec![root];
    while let Some(a) = stack.pop() {
        if a.is_null() || index.contains_key(&a.0) {
            continue;
        }
        index.insert(a.0, order.len());
        order.push(a);
        for off in vm.ref_slots(a).unwrap().collect::<Vec<_>>().into_iter().rev() {
            stack.push(vm.read_ref_at(a, off).unwrap());
        }
    }
    order
        .iter()
        .map(|&a| {
            let k = vm.klass_of(a).unwrap();
            let (hdr, len) = match k.kind {
                KlassKind::Instance => (vm.spec().instance_header(), 0),
                _ => (vm.spec().array_header(), vm.array_len(a).unwrap()),
            };
            let slots = vm.ref_slots(a).unwrap().collect::<Vec<_>>();
            let payload = (hdr..vm.obj_size(a).unwrap())
                .step_by(8)
                .filter(|off| !slots.contains(off))
                .map(|off| vm.heap().arena().load_word(a.0 + off).unwrap())
                .collect();
            let refs = slots
                .iter()
                .map(|&off| {
                    let t = vm.read_ref_at(a, off).unwrap();
                    (!t.is_null()).then(|| index[&t.0])
                })
                .collect();
            (k.name.clone(), len, vm.cached_hash(a).unwrap(), payload, refs)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The one-pass seal writes the final image directly: filler where the
    // wire has root markers, every reference already absolute and inside
    // the segment, one root per `write_root` — with cycles, sharing, both
    // array kinds and a repeated root (the wire's `TOP_REF`: two filler
    // words, the root recorded twice).
    #[test]
    fn sealed_image_is_final(spec in image_spec(24)) {
        let (dir, mut sender, mut receiver) = same_node_env();
        let roots = build_image(&mut sender, &spec);
        let store = SegStore::new().with_metrics(Arc::new(obs::Registry::new()));
        let seal = store.seal(&sender, &dir, NodeId(0), &roots).unwrap();
        let seg = store.segment(seal.base).unwrap();
        let (base, len) = (seg.base(), seg.len());
        let word = |rel: u64| seg.raw_mem().load_word(rel).unwrap();

        // Roots: one per input root, the first right behind the leading
        // filler word, the repeated last one equal to it and announced by
        // the two filler words that end the image.
        prop_assert_eq!(seg.roots().len(), roots.len());
        prop_assert_eq!(seal.roots, roots.len());
        prop_assert_eq!(seg.roots()[0], Addr(base + 8));
        prop_assert_eq!(word(0), FILLER_WORD);
        prop_assert_eq!(seg.roots()[roots.len() - 1], seg.roots()[0]);
        prop_assert_eq!(word(len - 16), FILLER_WORD);
        prop_assert_eq!(word(len - 8), FILLER_WORD);
        prop_assert_eq!(len, seal.stats.total_bytes);

        // A linear walk of the attached image: filler accounts for exactly
        // the marker bytes, objects for the rest, and every reference is
        // an absolute address of an object start inside the segment.
        let attached = store.attach(&mut receiver, base).unwrap();
        prop_assert_eq!(&attached[..], seg.roots());
        let mut starts = std::collections::HashSet::new();
        let mut object_bytes = 0;
        receiver.walk_range(base, base + len, |_, a, size| {
            starts.insert(a);
            object_bytes += size;
            Ok(())
        }).unwrap();
        prop_assert_eq!(starts.len() as u64, seal.stats.objects);
        prop_assert_eq!(object_bytes + seal.stats.marker_bytes, len);
        let fillers = (0..len).step_by(8).filter(|&rel| word(rel) == FILLER_WORD).count() as u64;
        prop_assert_eq!(fillers * 8, seal.stats.marker_bytes);
        for &obj in &starts {
            for off in receiver.ref_slots(obj).unwrap() {
                let t = receiver.read_ref_at(obj, off).unwrap();
                prop_assert!(t.is_null() || (t.0 >= base && t.0 < base + len && starts.contains(&t)));
            }
        }
        for r in seg.roots() {
            prop_assert!(starts.contains(r));
        }
        prop_assert_eq!(receiver.verify_heap().unwrap(), vec![]);
        for (a, &orig) in attached.iter().zip(&roots) {
            prop_assert_eq!(&shape(&receiver, *a), &shape(&sender, orig));
        }
    }
}

// A segment stays mapped and readable across minor and full GC of the
// attacher, advance_epoch can never reclaim it while a refcount pins it,
// and detach + one epoch advance reclaims it exactly once.
#[test]
fn detach_under_gc_never_reclaims_attached() {
    let (dir, mut sender, mut receiver) = same_node_env();
    let spec = GraphSpec {
        tags: vec![7, 11, 13, 17],
        lefts: vec![None, Some(0), Some(1), Some(2)],
        rights: vec![None, None, Some(0), Some(1)],
        roots: vec![3],
    };
    let handles = build(&mut sender, &spec);
    let roots = resolve_roots(&sender, &handles, &spec.roots);
    let want = canonicalize(&sender, roots[0]);

    let store = SegStore::new().with_metrics(Arc::new(obs::Registry::new()));
    let seal = store.seal(&sender, &dir, NodeId(0), &roots).unwrap();
    let attached = store.attach(&mut receiver, seal.base).unwrap();
    assert_eq!(store.refcount(seal.base), Some(1));
    assert_eq!(receiver.gen_of(attached[0]).unwrap(), Gen::Segment);

    // Churn the attacher's own heap so both GC flavors actually run.
    let k = receiver.load_class("SNode").unwrap();
    for i in 0..200 {
        let n = receiver.alloc_instance(k).unwrap();
        receiver.set_long(n, "tag", i).unwrap();
    }
    receiver.minor_gc().unwrap();
    receiver.full_gc().unwrap();
    assert_eq!(receiver.verify_heap().unwrap(), vec![]);

    // Epochs may advance arbitrarily while attached: nothing is reclaimed.
    for _ in 0..3 {
        assert_eq!(store.advance_epoch(), 0);
    }
    assert_eq!(store.refcount(seal.base), Some(1));
    assert_eq!(canonicalize(&receiver, attached[0]), want);

    // Detach retires the segment into limbo; it survives the epoch it
    // retired in and is reclaimed by the next advance.
    store.detach(&mut receiver, seal.base).unwrap();
    assert_eq!(store.refcount(seal.base), None);
    assert!(receiver.gen_of(attached[0]).is_err());
    assert_eq!(store.live_segments(), 1);
    assert_eq!(store.advance_epoch(), 1);
    assert_eq!(store.live_segments(), 0);
    assert_eq!(store.advance_epoch(), 0);
}

// Broadcast shape: one seal, N attachers sharing the same physical bytes.
#[test]
fn broadcast_attaches_share_one_segment() {
    let cp = classpath();
    let mut driver =
        Vm::new("driver", &HeapConfig::small().with_capacity(8 << 20), Arc::clone(&cp)).unwrap();
    let dir = Arc::new(TypeDirectory::new(1, NodeId(0)));
    dir.bootstrap_driver(&driver).unwrap();
    let spec = GraphSpec {
        tags: vec![1, 2, 3],
        lefts: vec![None, Some(0), Some(1)],
        rights: vec![None, None, Some(0)],
        roots: vec![2],
    };
    let handles = build(&mut driver, &spec);
    let roots = resolve_roots(&driver, &handles, &spec.roots);
    let want = canonicalize(&driver, roots[0]);

    let registry = Arc::new(obs::Registry::new());
    let store = SegStore::new().with_metrics(Arc::clone(&registry));
    let seal = store.seal(&driver, &dir, NodeId(0), &roots).unwrap();

    const N: usize = 4;
    let mut executors: Vec<Vm> = (0..N)
        .map(|i| Vm::new(format!("exec{i}"), &HeapConfig::small(), Arc::clone(&cp)).unwrap())
        .collect();
    let mut per_vm_roots = Vec::new();
    for vm in &mut executors {
        per_vm_roots.push(store.attach(vm, seal.base).unwrap());
    }
    // One copy, N views.
    assert_eq!(store.refcount(seal.base), Some(N as u32));
    assert_eq!(store.live_segments(), 1);
    let nc = registry.counter(obs::names::SEGSTORE_BYTES_NOT_COPIED).get();
    assert_eq!(nc, seal.bytes * N as u64);
    // An executor starts with no class loaded. Reading the whole graph loads
    // each of its classes once, under the driver's klass ids; a second pass
    // loads nothing.
    let loaded = |vm: &Vm| vm.klasses().all().iter().map(|k| (k.id, k.uid)).collect::<Vec<_>>();
    let driver_ids = driver.klasses().all().iter().map(|k| k.id).collect::<Vec<_>>();
    for (vm, roots) in executors.iter().zip(&per_vm_roots) {
        assert!(vm.klasses().is_empty());
        assert_eq!(canonicalize(vm, roots[0]), want);
        let first = loaded(vm);
        assert_eq!(first.iter().map(|&(id, _)| id).collect::<Vec<_>>(), driver_ids);
        assert_eq!(canonicalize(vm, roots[0]), want);
        assert_eq!(vm.verify_heap().unwrap(), vec![]);
        assert_eq!(loaded(vm), first);
    }
    // Same base address in every attacher: the roots are literally equal.
    for roots in &per_vm_roots {
        assert_eq!(roots[0], per_vm_roots[0][0]);
    }
    for vm in &mut executors {
        store.detach(vm, seal.base).unwrap();
    }
    assert_eq!(store.advance_epoch(), 1);
    assert_eq!(registry.counter(obs::names::SEGSTORE_RECLAIMED).get(), 1);
}

// Double attach of one segment to one VM must fail cleanly and leave the
// refcount where it was.
#[test]
fn double_attach_rolls_back_refcount() {
    let (dir, mut sender, mut receiver) = same_node_env();
    let spec = GraphSpec {
        tags: vec![5, 6],
        lefts: vec![None, Some(0)],
        rights: vec![None, None],
        roots: vec![1],
    };
    let handles = build(&mut sender, &spec);
    let roots = resolve_roots(&sender, &handles, &spec.roots);
    let store = SegStore::new().with_metrics(Arc::new(obs::Registry::new()));
    let seal = store.seal(&sender, &dir, NodeId(0), &roots).unwrap();
    store.attach(&mut receiver, seal.base).unwrap();
    assert!(store.attach(&mut receiver, seal.base).is_err());
    assert_eq!(store.refcount(seal.base), Some(1));
    assert!(matches!(
        store.attach(&mut receiver, seal.base + 0x5555),
        Err(segstore::Error::UnknownSegment(_))
    ));
}

// Sealing a graph whose objects already live in an attached segment: they
// are counted in no space of the re-sealing VM's heap, and their klass
// words mean in it what they meant in the VM that sealed them.
#[test]
fn reseal_from_an_attached_segment() {
    let (dir, mut sender, mut receiver) = same_node_env();
    // Load order differs from the sender's, so klass ids issued in each
    // VM's own load order would name the wrong class here.
    for c in ["java.lang.Integer", "[J", "java.lang.Long"] {
        receiver.load_class(c).unwrap();
    }
    let spec = GraphSpec {
        tags: vec![7, 11, 13, 17],
        lefts: vec![None, Some(0), Some(1), Some(2)],
        rights: vec![None, None, Some(0), Some(1)],
        roots: vec![3],
    };
    let handles = build(&mut sender, &spec);
    let roots = resolve_roots(&sender, &handles, &spec.roots);
    let store = SegStore::new().with_metrics(Arc::new(obs::Registry::new()));
    let first = store.seal(&sender, &dir, NodeId(0), &roots).unwrap();
    let attached = store.attach(&mut receiver, first.base).unwrap();

    // An owned node in front of the segment-resident graph; both are roots.
    let k = receiver.load_class("SNode").unwrap();
    let owned = receiver.alloc_instance(k).unwrap();
    receiver.set_long(owned, "tag", 99).unwrap();
    receiver.set_ref(owned, "left", attached[0]).unwrap();
    let second = store.seal(&receiver, &dir, NodeId(0), &[owned, attached[0]]).unwrap();
    assert_eq!(second.stats.objects, first.stats.objects + 1);
    assert_eq!(second.roots, 2);

    let cp = Arc::clone(receiver.classpath());
    let mut third = Vm::new("t", &HeapConfig::small(), cp).unwrap();
    let out = store.attach(&mut third, second.base).unwrap();
    assert_eq!(third.verify_heap().unwrap(), vec![]);
    assert_eq!(shape(&third, out[0]), shape(&receiver, owned));
    assert_eq!(shape(&third, out[1]), shape(&sender, roots[0]));
    assert_eq!(third.get_ref(out[0], "left").unwrap(), out[1]);
    // The second segment is self-contained: it outlives the first.
    store.detach(&mut receiver, first.base).unwrap();
    store.advance_epoch();
    store.advance_epoch();
    assert_eq!(shape(&third, out[1]), shape(&sender, roots[0]));
}

// A graph of owned objects pointing into an attached segment goes over the
// wire. Owned and resident objects share one klass-word space, which is
// also the wire's; the owned objects alternate Pair / SNode, so a sender
// that resolved a klass word to the wrong class would send one class for
// the other.
#[test]
fn mixed_owned_and_resident_graph_crosses_the_wire() {
    let (dir, mut sender, mut attacher) = same_node_env();
    let pair = attacher.load_class(PAIR).unwrap();
    let spec = GraphSpec {
        tags: vec![7, 11, 13, 17],
        lefts: vec![None, Some(0), Some(1), Some(2)],
        rights: vec![None, None, Some(0), Some(1)],
        roots: vec![3, 1],
    };
    let handles = build(&mut sender, &spec);
    let roots = resolve_roots(&sender, &handles, &spec.roots);
    let store = SegStore::new().with_metrics(Arc::new(obs::Registry::new()));
    let seal = store.seal(&sender, &dir, NodeId(0), &roots).unwrap();
    let resident = store.attach(&mut attacher, seal.base).unwrap();

    // Owned chain o0 → o1 → … → o5, built tail first; every link also
    // points into the segment.
    let snode = attacher.load_class("SNode").unwrap();
    let mut next: Option<mheap::Handle> = None;
    for i in (0..6).rev() {
        let obj = attacher.alloc_instance(if i % 2 == 0 { pair } else { snode }).unwrap();
        let to = next.map_or(Addr::NULL, |h| attacher.resolve(h).unwrap());
        let (into, onward) = if i % 2 == 0 { ("first", "second") } else { ("left", "right") };
        attacher.set_ref(obj, into, resident[i % 2]).unwrap();
        attacher.set_ref(obj, onward, to).unwrap();
        if i % 2 == 1 {
            attacher.set_long(obj, "tag", 100 + i as i64).unwrap();
        }
        next = Some(attacher.handle(obj));
    }
    let sent = [attacher.resolve(next.unwrap()).unwrap(), resident[0]];

    let mut third = Vm::new("t", &HeapConfig::small(), Arc::clone(sender.classpath())).unwrap();
    let cfg = SendConfig::for_vm(&attacher);
    assert_eq!(cfg.tracking, Tracking::Baddr);
    let (out, stats, _) = sequential_transfer(
        &attacher,
        &mut third,
        &dir,
        NodeId(0),
        NodeId(1),
        1,
        1,
        &sent,
        None,
        cfg,
    )
    .unwrap();
    assert_eq!(stats.objects, 6 + seal.stats.objects);
    for (a, &orig) in out.iter().zip(&sent) {
        assert_eq!(shape(&third, *a), shape(&attacher, orig));
    }
    for vm in [&sender, &attacher, &third] {
        assert_eq!(vm.verify_heap().unwrap(), vec![], "{}", vm.name);
    }
}

// A VM in the compact format (no `baddr` word, 4-byte array length sharing
// a word with padding) seals and attaches like any other: strings (char
// arrays), a long array and a reference array all arrive intact.
#[test]
fn compact_format_seals_and_attaches() {
    let (dir, mut sender, mut receiver) =
        env_with(HeapConfig { spec: LayoutSpec::COMPACT, ..HeapConfig::small() });
    let spec = ImageSpec {
        tags: vec![1, 2, 3],
        lefts: vec![Some(2), Some(0), None],
        rights: vec![
            Right::Longs(vec![-1, 0, i64::MAX]),
            Right::Nodes(vec![Some(1), None, Some(0)]),
            Right::Null,
        ],
        roots: vec![1, 0, 1],
    };
    let mut roots = build_image(&mut sender, &spec);
    let s = sender.new_string("compact \u{1f980}").unwrap();
    roots.push(s);
    let store = SegStore::new().with_metrics(Arc::new(obs::Registry::new()));
    let (out, report) =
        shared_transfer(&store, &sender, &mut receiver, &dir, NodeId(0), &roots).unwrap();
    assert_eq!(out.len(), roots.len());
    assert_eq!(report.recv_stats.bytes, report.send_stats.total_bytes);
    assert_eq!(receiver.verify_heap().unwrap(), vec![]);
    for (a, &orig) in out.iter().zip(&roots) {
        assert_eq!(shape(&receiver, *a), shape(&sender, orig));
    }
    assert_eq!(receiver.read_string(out[3]).unwrap(), "compact \u{1f980}");
}

// No roots: an empty segment that still attaches, detaches and reclaims.
#[test]
fn empty_root_set_seals_an_empty_segment() {
    let (dir, sender, mut receiver) = same_node_env();
    let store = SegStore::new().with_metrics(Arc::new(obs::Registry::new()));
    let seal = store.seal(&sender, &dir, NodeId(0), &[]).unwrap();
    assert_eq!((seal.bytes, seal.roots, seal.stats.objects), (0, 0, 0));
    assert_eq!(store.attach(&mut receiver, seal.base).unwrap(), vec![]);
    assert_eq!(receiver.verify_heap().unwrap(), vec![]);
    store.detach(&mut receiver, seal.base).unwrap();
    assert_eq!(store.advance_epoch(), 1);
}

// A segment is in its sealing VM's object format; a heap of another format
// must refuse it (its walkers would mis-parse every header) and the refused
// attach must leave the segment attachable at refcount zero.
#[test]
fn format_mismatch_is_refused_and_rolls_back() {
    let (dir, mut sender, mut receiver) = same_node_env();
    let spec = GraphSpec {
        tags: vec![5, 6],
        lefts: vec![None, Some(0)],
        rights: vec![None, None],
        roots: vec![1],
    };
    let handles = build(&mut sender, &spec);
    let roots = resolve_roots(&sender, &handles, &spec.roots);
    let store = SegStore::new().with_metrics(Arc::new(obs::Registry::new()));
    let seal = store.seal(&sender, &dir, NodeId(0), &roots).unwrap();

    let cfg = HeapConfig { spec: LayoutSpec::COMPACT, ..HeapConfig::small() };
    let mut compact = Vm::new("c", &cfg, classpath()).unwrap();
    let err = store.attach(&mut compact, seal.base).unwrap_err();
    assert!(
        matches!(
            err,
            segstore::Error::Heap(mheap::Error::SegmentFormatMismatch { base, sealed, attacher })
                if base == seal.base
                    && sealed == LayoutSpec::SKYWAY
                    && attacher == LayoutSpec::COMPACT
        ),
        "unexpected error: {err}"
    );
    assert!(compact.heap().attached_segments().is_empty());
    assert_eq!(store.refcount(seal.base), Some(0));
    // Still attachable by a VM of the right format.
    let out = store.attach(&mut receiver, seal.base).unwrap();
    assert_eq!(store.refcount(seal.base), Some(1));
    assert_eq!(canonicalize(&receiver, out[0]), canonicalize(&sender, roots[0]));
}

// The traversal a seal runs reports to the store's registry, not to the
// process-wide one: under a scoped registry the sender counters are exact.
#[test]
fn seal_traversal_counters_follow_the_store_registry() {
    let (dir, mut sender, _) = same_node_env();
    let spec = GraphSpec {
        tags: vec![1, 2, 3],
        lefts: vec![None, Some(0), Some(1)],
        rights: vec![None, None, Some(0)],
        roots: vec![2, 2],
    };
    let handles = build(&mut sender, &spec);
    let roots = resolve_roots(&sender, &handles, &spec.roots);
    let registry = Arc::new(obs::Registry::new());
    let store = SegStore::new().with_metrics(Arc::clone(&registry));
    let seal = store.seal(&sender, &dir, NodeId(0), &roots).unwrap();
    assert_eq!(seal.stats.objects, 3);
    assert_eq!(registry.counter(obs::names::SENDER_OBJECTS_VISITED).get(), 3);
    assert_eq!(registry.counter(obs::names::SENDER_BYTES_CLONED).get(), seal.stats.total_bytes);
    assert_eq!(registry.counter(obs::names::SEGSTORE_SEALS).get(), 1);
    store.seal(&sender, &dir, NodeId(0), &roots).unwrap();
    assert_eq!(registry.counter(obs::names::SENDER_OBJECTS_VISITED).get(), 6);
}

// Stats-level parity of the shared mode with the cloning reference: the
// same graph counts the same objects on both sides of both paths, the bytes
// the attach did not copy are exactly the bytes the seal wrote, and one
// shared transfer is one seal, one attach and one `mode_shared` tick.
#[test]
fn shared_transfer_stats_match_the_cloning_reference() {
    let spec = GraphSpec {
        tags: vec![1, 2, 3, 4],
        lefts: vec![None, Some(0), Some(1), Some(1)],
        rights: vec![None, None, Some(0), Some(2)],
        roots: vec![3, 2, 3],
    };
    let (dir, mut sender, mut receiver) = same_node_env();
    let handles = build(&mut sender, &spec);
    let roots = resolve_roots(&sender, &handles, &spec.roots);
    let registry = Arc::new(obs::Registry::new());
    let store = SegStore::new().with_metrics(Arc::clone(&registry));
    let (attached, report) =
        shared_transfer(&store, &sender, &mut receiver, &dir, NodeId(0), &roots).unwrap();

    let (dir2, mut sender2, mut receiver2) = same_node_env();
    let handles2 = build(&mut sender2, &spec);
    let roots2 = resolve_roots(&sender2, &handles2, &spec.roots);
    let cfg = SendConfig::for_vm(&sender2);
    let (cloned, send_stats, recv_stats) = sequential_transfer(
        &sender2,
        &mut receiver2,
        &dir2,
        NodeId(0),
        NodeId(1),
        1,
        1,
        &roots2,
        None,
        cfg,
    )
    .unwrap();

    assert_eq!(attached.len(), cloned.len());
    assert_eq!(report.send_stats.objects, send_stats.objects);
    assert_eq!(report.recv_stats.objects, recv_stats.objects);
    assert_eq!(report.recv_stats.objects, report.send_stats.objects);
    assert_eq!(report.recv_stats.bytes, report.send_stats.total_bytes);
    let snap = registry.snapshot();
    assert_eq!(snap.counter(obs::names::SEGSTORE_BYTES_NOT_COPIED), report.send_stats.total_bytes);
    for key in [
        obs::names::SEGSTORE_SEALS,
        obs::names::SEGSTORE_ATTACHES,
        obs::names::PIPELINE_MODE_SHARED,
    ] {
        assert_eq!(snap.counter(key), 1, "{key}");
    }
}

// A segment's klass words number its sealing classpath's classes: a VM on
// another classpath must refuse it — after the format check — and the
// refused attach must leave the segment attachable at refcount zero.
#[test]
fn classpath_mismatch_is_refused_and_rolls_back() {
    let (dir, mut sender, mut receiver) = same_node_env();
    let spec = GraphSpec {
        tags: vec![5, 6],
        lefts: vec![None, Some(0)],
        rights: vec![None, None],
        roots: vec![1],
    };
    let handles = build(&mut sender, &spec);
    let roots = resolve_roots(&sender, &handles, &spec.roots);
    let store = SegStore::new().with_metrics(Arc::new(obs::Registry::new()));
    let seal = store.seal(&sender, &dir, NodeId(0), &roots).unwrap();

    // Same definitions, same format, another classpath.
    let mut stranger = Vm::new("x", &HeapConfig::small(), classpath()).unwrap();
    let err = store.attach(&mut stranger, seal.base).unwrap_err();
    assert!(
        matches!(err, segstore::Error::Heap(mheap::Error::SegmentClassPathMismatch(base))
            if base == seal.base),
        "unexpected error: {err}"
    );
    assert!(stranger.heap().attached_segments().is_empty());
    assert_eq!(stranger.verify_heap().unwrap(), vec![]);
    assert_eq!(store.refcount(seal.base), Some(0));
    let out = store.attach(&mut receiver, seal.base).unwrap();
    assert_eq!(store.refcount(seal.base), Some(1));
    assert_eq!(canonicalize(&receiver, out[0]), canonicalize(&sender, roots[0]));
}

// A seal writes klass ids, not type ids: sealing classes the directory has
// never seen costs it no traffic and registers nothing.
#[test]
fn seal_leaves_the_type_directory_alone() {
    let (dir, mut sender, mut receiver) = same_node_env();
    let spec = ImageSpec {
        tags: vec![1, 2],
        lefts: vec![Some(1), None],
        rights: vec![Right::Longs(vec![3]), Right::Nodes(vec![Some(0)])],
        roots: vec![0],
    };
    let roots = build_image(&mut sender, &spec);
    let (before, types) = (dir.stats(), dir.len());
    let store = SegStore::new().with_metrics(Arc::new(obs::Registry::new()));
    let seal = store.seal(&sender, &dir, NodeId(0), &roots).unwrap();
    let after = dir.stats();
    let traffic = |s: skyway::RegistryStats| (s.view_pulls, s.lookups, s.messages, s.string_bytes);
    assert_eq!(traffic(after), traffic(before));
    assert_eq!(dir.len(), types);
    let out = store.attach(&mut receiver, seal.base).unwrap();
    assert_eq!(shape(&receiver, out[0]), shape(&sender, roots[0]));
}
