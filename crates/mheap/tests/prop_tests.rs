//! Property-based tests: random object graphs keep their structure and
//! contents across arbitrary GC schedules.

use std::sync::Arc;

use proptest::prelude::*;

use mheap::stdlib::define_core_classes;
use mheap::{Addr, ClassPath, FieldType, HeapConfig, KlassDef, PrimType, Vm};

fn classpath() -> Arc<ClassPath> {
    let cp = ClassPath::new();
    define_core_classes(&cp);
    cp.define(KlassDef::new(
        "GNode",
        None,
        vec![
            ("tag", FieldType::Prim(PrimType::Long)),
            ("left", FieldType::Ref),
            ("right", FieldType::Ref),
        ],
    ));
    cp
}

/// A random DAG description: node i may point at earlier nodes (acyclic by
/// construction, sharing allowed).
#[derive(Debug, Clone)]
struct GraphSpec {
    tags: Vec<i64>,
    lefts: Vec<Option<usize>>,
    rights: Vec<Option<usize>>,
}

fn graph_spec(max_nodes: usize) -> impl Strategy<Value = GraphSpec> {
    (2..max_nodes)
        .prop_flat_map(|n| {
            let tags = proptest::collection::vec(any::<i64>(), n);
            let lefts = proptest::collection::vec(proptest::option::of(0..n), n);
            let rights = proptest::collection::vec(proptest::option::of(0..n), n);
            (tags, lefts, rights)
        })
        .prop_map(|(tags, lefts, rights)| {
            let n = tags.len();
            // Only allow edges to strictly earlier nodes.
            let clamp = |v: Vec<Option<usize>>| {
                v.into_iter().enumerate().map(|(i, e)| e.filter(|&t| t < i)).collect::<Vec<_>>()
            };
            let _ = n;
            GraphSpec { tags, lefts: clamp(lefts), rights: clamp(rights) }
        })
}

/// Materializes the spec in the heap; returns handles to every node.
fn build(vm: &mut Vm, spec: &GraphSpec) -> Vec<mheap::Handle> {
    let k = vm.load_class("GNode").unwrap();
    let mut handles = Vec::with_capacity(spec.tags.len());
    for i in 0..spec.tags.len() {
        let node = vm.alloc_instance(k).unwrap();
        vm.set_long(node, "tag", spec.tags[i]).unwrap();
        let h = vm.handle(node);
        if let Some(l) = spec.lefts[i] {
            let node = vm.resolve(h).unwrap();
            let tgt = vm.resolve(handles[l]).unwrap();
            vm.set_ref(node, "left", tgt).unwrap();
        }
        if let Some(r) = spec.rights[i] {
            let node = vm.resolve(h).unwrap();
            let tgt = vm.resolve(handles[r]).unwrap();
            vm.set_ref(node, "right", tgt).unwrap();
        }
        handles.push(h);
    }
    handles
}

/// Asserts heap contents match the spec, including sharing: `left`/`right`
/// must point at the object the corresponding handle resolves to.
fn check(vm: &Vm, spec: &GraphSpec, handles: &[mheap::Handle]) {
    for i in 0..spec.tags.len() {
        let node = vm.resolve(handles[i]).unwrap();
        assert_eq!(vm.get_long(node, "tag").unwrap(), spec.tags[i]);
        let l = vm.get_ref(node, "left").unwrap();
        match spec.lefts[i] {
            Some(t) => assert_eq!(l, vm.resolve(handles[t]).unwrap()),
            None => assert_eq!(l, Addr::NULL),
        }
        let r = vm.get_ref(node, "right").unwrap();
        match spec.rights[i] {
            Some(t) => assert_eq!(r, vm.resolve(handles[t]).unwrap()),
            None => assert_eq!(r, Addr::NULL),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graphs_survive_minor_gc(spec in graph_spec(60)) {
        let mut vm = Vm::new("p", &HeapConfig::small(), classpath()).unwrap();
        let handles = build(&mut vm, &spec);
        vm.minor_gc().unwrap();
        check(&vm, &spec, &handles);
    }

    #[test]
    fn graphs_survive_full_gc(spec in graph_spec(60)) {
        let mut vm = Vm::new("p", &HeapConfig::small(), classpath()).unwrap();
        let handles = build(&mut vm, &spec);
        vm.full_gc().unwrap();
        check(&vm, &spec, &handles);
    }

    #[test]
    fn graphs_survive_mixed_gc_schedules(
        spec in graph_spec(40),
        schedule in proptest::collection::vec(any::<bool>(), 1..6),
    ) {
        let mut vm = Vm::new("p", &HeapConfig::small(), classpath()).unwrap();
        let handles = build(&mut vm, &spec);
        for full in schedule {
            if full { vm.full_gc().unwrap(); } else { vm.minor_gc().unwrap(); }
        }
        check(&vm, &spec, &handles);
    }

    #[test]
    fn live_set_invariant_under_gc(spec in graph_spec(50)) {
        let mut vm = Vm::new("p", &HeapConfig::small(), classpath()).unwrap();
        let _handles = build(&mut vm, &spec);
        let live = vm.live_object_count().unwrap();
        let bytes = vm.live_bytes().unwrap();
        vm.minor_gc().unwrap();
        prop_assert_eq!(vm.live_object_count().unwrap(), live);
        prop_assert_eq!(vm.live_bytes().unwrap(), bytes);
        vm.full_gc().unwrap();
        prop_assert_eq!(vm.live_object_count().unwrap(), live);
        prop_assert_eq!(vm.live_bytes().unwrap(), bytes);
    }

    #[test]
    fn strings_roundtrip(parts in proptest::collection::vec("[a-zA-Z0-9 αβγ✓]{0,40}", 1..20)) {
        let mut vm = Vm::new("p", &HeapConfig::small(), classpath()).unwrap();
        let handles: Vec<_> = parts.iter().map(|s| {
            let a = vm.new_string(s).unwrap();
            vm.handle(a)
        }).collect();
        vm.minor_gc().unwrap();
        for (h, s) in handles.iter().zip(&parts) {
            let a = vm.resolve(*h).unwrap();
            prop_assert_eq!(&vm.read_string(a).unwrap(), s);
        }
    }

    #[test]
    fn map_holds_many_entries(n in 1u64..120) {
        let mut vm = Vm::new("p", &HeapConfig::small(), classpath()).unwrap();
        let map = vm.new_hash_map(16).unwrap();
        let mh = vm.handle(map);
        let mut keys = Vec::new();
        for i in 0..n {
            let k = vm.new_long(i as i64).unwrap();
            keys.push(vm.handle(k));
            let v = vm.new_long((i * 7) as i64).unwrap();
            let map = vm.resolve(mh).unwrap();
            let k = vm.resolve(*keys.last().unwrap()).unwrap();
            vm.map_put(map, k, v).unwrap();
        }
        vm.minor_gc().unwrap();
        let map = vm.resolve(mh).unwrap();
        prop_assert_eq!(vm.map_len(map).unwrap(), n);
        prop_assert!(vm.map_is_consistent(map).unwrap());
        for (i, kh) in keys.iter().enumerate() {
            let k = vm.resolve(*kh).unwrap();
            let v = vm.map_get(map, k).unwrap().unwrap();
            prop_assert_eq!(vm.get_long(v, "value").unwrap(), (i as i64) * 7);
        }
    }

    /// The reference map every walker borrows is exactly the `Ref` entries
    /// of `fields`, whatever the class hierarchy looks like; a reference
    /// array's map is its element range.
    #[test]
    fn ref_map_matches_fields(
        levels in proptest::collection::vec(proptest::collection::vec(0usize..12, 0..6), 1..5),
        len in 0u64..40,
    ) {
        // Level i is class "C{i}" extending "C{i-1}"; codes 0..8 pick a
        // primitive type, the rest a reference.
        let cp = classpath();
        for (i, codes) in levels.iter().enumerate() {
            let names: Vec<String> = (0..codes.len()).map(|j| format!("f{i}_{j}")).collect();
            let fields = names.iter().zip(codes).map(|(n, &c)| {
                (n.as_str(), PrimType::ALL.get(c).map_or(FieldType::Ref, |&p| FieldType::Prim(p)))
            });
            let sup = i.checked_sub(1).map(|s| format!("C{s}"));
            cp.define(KlassDef::new(format!("C{i}"), sup.as_deref(), fields.collect()));
        }
        let mut vm = Vm::new("p", &HeapConfig::small(), cp).unwrap();
        vm.load_class(&format!("C{}", levels.len() - 1)).unwrap();
        for i in 0..levels.len() {
            let k = vm.klasses().by_name(&format!("C{i}")).unwrap();
            let mut want: Vec<u64> =
                k.fields.iter().filter(|f| f.ty == FieldType::Ref).map(|f| f.offset).collect();
            want.sort_unstable();
            prop_assert_eq!(&*k.ref_offsets, &*want);
            let ends = k.fields.iter().map(|f| f.offset + u64::from(f.ty.size()));
            prop_assert_eq!(k.payload_end, ends.max().unwrap_or(vm.spec().instance_header()));
            let obj = vm.alloc_instance(k.id).unwrap();
            prop_assert_eq!(vm.ref_slots(obj).unwrap().collect::<Vec<_>>(), want);
        }
        let ak = vm.load_class("[LC0;").unwrap();
        let arr = vm.alloc_array(ak, len).unwrap();
        let base = vm.spec().array_header();
        let want: Vec<u64> = (0..len).map(|i| base + i * 8).collect();
        prop_assert_eq!(vm.array_len(arr).unwrap(), len);
        prop_assert_eq!(vm.ref_slots(arr).unwrap().collect::<Vec<_>>(), want);
    }
}
