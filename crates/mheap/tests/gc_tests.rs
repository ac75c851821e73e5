//! Integration tests for the generational collector: survival, collection,
//! promotion, card-table discovery, compaction, and structural integrity
//! under allocation pressure.

use std::sync::Arc;

use mheap::stdlib::define_core_classes;
use mheap::{Addr, ClassPath, FieldType, HeapConfig, KlassDef, PrimType, Vm, CARD_SIZE};

fn classpath() -> Arc<ClassPath> {
    let cp = ClassPath::new();
    define_core_classes(&cp);
    cp.define(KlassDef::new(
        "Node",
        None,
        vec![("id", FieldType::Prim(PrimType::Int)), ("next", FieldType::Ref)],
    ));
    cp
}

fn small_vm() -> Vm {
    Vm::new("gc-test", &HeapConfig::small(), classpath()).unwrap()
}

/// Builds a linked list of `n` nodes, returning a handle to the head.
fn build_list(vm: &mut Vm, n: i32) -> mheap::Handle {
    let k = vm.load_class("Node").unwrap();
    let head = vm.alloc_instance(k).unwrap();
    vm.set_int(head, "id", 0).unwrap();
    let hh = vm.handle(head);
    let tail = vm.handle(head);
    for i in 1..n {
        let node = vm.alloc_instance(k).unwrap();
        vm.set_int(node, "id", i).unwrap();
        let t = vm.resolve(tail).unwrap();
        vm.set_ref(t, "next", node).unwrap();
        vm.set_handle(tail, node).unwrap();
    }
    vm.release(tail).unwrap();
    hh
}

fn assert_list_intact(vm: &Vm, head: Addr, n: i32) {
    let mut cur = head;
    for i in 0..n {
        assert!(!cur.is_null(), "list truncated at {i}");
        assert_eq!(vm.get_int(cur, "id").unwrap(), i);
        cur = vm.get_ref(cur, "next").unwrap();
    }
    assert!(cur.is_null(), "list longer than {n}");
}

#[test]
fn rooted_list_survives_minor_gc() {
    let mut vm = small_vm();
    let h = build_list(&mut vm, 100);
    vm.minor_gc().unwrap();
    let head = vm.resolve(h).unwrap();
    assert_list_intact(&vm, head, 100);
    assert_eq!(vm.stats.minor_gcs, 1);
}

#[test]
fn unrooted_objects_are_collected() {
    let mut vm = small_vm();
    let h = build_list(&mut vm, 50);
    // Garbage: strings nobody roots.
    for i in 0..200 {
        vm.new_string(&format!("garbage-{i}")).unwrap();
    }
    let live_before = vm.live_object_count().unwrap();
    vm.minor_gc().unwrap();
    let live_after = vm.live_object_count().unwrap();
    assert_eq!(live_before, live_after, "live set must not change across GC");
    // The heap usage should have dropped to roughly the live set.
    assert!(vm.heap().used() <= vm.live_bytes().unwrap() + 4096);
    let head = vm.resolve(h).unwrap();
    assert_list_intact(&vm, head, 50);
}

#[test]
fn repeated_minor_gcs_promote_to_old() {
    let mut vm = small_vm();
    let h = build_list(&mut vm, 20);
    for _ in 0..10 {
        vm.minor_gc().unwrap();
    }
    // After more collections than the tenuring threshold, the whole list
    // should be tenured.
    let head = vm.resolve(h).unwrap();
    assert!(vm.heap().in_old(head), "head should be tenured after 10 minor GCs");
    assert_list_intact(&vm, head, 20);
    assert!(vm.stats.bytes_promoted > 0);
}

#[test]
fn card_table_keeps_old_to_young_edges_alive() {
    let mut vm = small_vm();
    let h = build_list(&mut vm, 5);
    for _ in 0..10 {
        vm.minor_gc().unwrap();
    }
    let head = vm.resolve(h).unwrap();
    assert!(vm.heap().in_old(head));
    // Create a brand-new young object referenced ONLY from the old head.
    let k = vm.load_class("Node").unwrap();
    let young = vm.alloc_instance(k).unwrap();
    vm.set_int(young, "id", 999).unwrap();
    let head = vm.resolve(h).unwrap();
    // Splice it at the front of the tail: head.next = young (old → young).
    vm.set_ref(head, "next", young).unwrap();
    assert!(vm.heap().is_card_dirty(head), "write barrier must dirty the card");
    vm.minor_gc().unwrap();
    let head = vm.resolve(h).unwrap();
    let young = vm.get_ref(head, "next").unwrap();
    assert!(!young.is_null());
    assert_eq!(vm.get_int(young, "id").unwrap(), 999);
}

#[test]
fn full_gc_compacts_old_generation() {
    let mut vm = small_vm();
    // Tenure two lists, drop one, full-GC, verify the survivor and that old
    // space shrank.
    let keep = build_list(&mut vm, 30);
    let drop_me = build_list(&mut vm, 30);
    for _ in 0..10 {
        vm.minor_gc().unwrap();
    }
    let used_before = vm.heap().used();
    vm.release(drop_me).unwrap();
    vm.full_gc().unwrap();
    let used_after = vm.heap().used();
    assert!(used_after < used_before, "full GC should reclaim the dropped list");
    let head = vm.resolve(keep).unwrap();
    assert_list_intact(&vm, head, 30);
    assert_eq!(vm.stats.full_gcs, 1);
}

#[test]
fn identity_hash_survives_gc_moves() {
    let mut vm = small_vm();
    let s = vm.new_string("stable hash").unwrap();
    let h = vm.handle(s);
    let hash_before = vm.identity_hash(s).unwrap();
    for _ in 0..8 {
        vm.minor_gc().unwrap();
    }
    vm.full_gc().unwrap();
    let s = vm.resolve(h).unwrap();
    assert_eq!(vm.identity_hash(s).unwrap(), hash_before);
}

#[test]
fn allocation_pressure_triggers_gc_automatically() {
    let mut vm = small_vm();
    let h = build_list(&mut vm, 10);
    // Allocate far more than the heap holds; everything but the list is
    // garbage, so this must succeed by GC-ing repeatedly.
    for i in 0..20_000 {
        vm.new_string(&format!("pressure {i}")).unwrap();
    }
    assert!(vm.stats.minor_gcs > 0);
    let head = vm.resolve(h).unwrap();
    assert_list_intact(&vm, head, 10);
}

#[test]
fn out_of_memory_is_reported_not_panicked() {
    let mut vm = small_vm();
    let k = vm.load_class("Node").unwrap();
    let list = vm.new_list(4).unwrap();
    let lh = vm.handle(list);
    // Keep everything alive until the heap genuinely fills.
    let result = (0..200_000).try_for_each(|_| {
        let node = vm.alloc_instance(k)?;
        let list = vm.resolve(lh)?;
        vm.list_push(list, node)
    });
    assert!(matches!(
        result,
        Err(mheap::Error::OutOfMemory { .. }) | Err(mheap::Error::PromotionFailed { .. })
    ));
}

#[test]
fn temp_roots_are_updated_by_gc() {
    let mut vm = small_vm();
    let s = vm.new_string("temp").unwrap();
    let idx = vm.push_temp_root(s);
    vm.minor_gc().unwrap();
    let s2 = vm.temp_root(idx);
    assert_eq!(vm.read_string(s2).unwrap(), "temp");
    vm.pop_temp_root();
}

#[test]
fn shared_substructure_is_copied_once() {
    let mut vm = small_vm();
    // Two pairs sharing one string: after GC, both must point at the SAME
    // moved object (no duplication).
    let shared = vm.new_string("shared").unwrap();
    let sh = vm.handle(shared);
    let a = vm.new_pair(shared, Addr::NULL).unwrap();
    let ah = vm.handle(a);
    let shared2 = vm.resolve(sh).unwrap();
    let b = vm.new_pair(shared2, Addr::NULL).unwrap();
    let bh = vm.handle(b);
    vm.minor_gc().unwrap();
    let a = vm.resolve(ah).unwrap();
    let b = vm.resolve(bh).unwrap();
    let fa = vm.get_ref(a, "first").unwrap();
    let fb = vm.get_ref(b, "first").unwrap();
    assert_eq!(fa, fb, "shared object duplicated by GC");
    assert_eq!(vm.read_string(fa).unwrap(), "shared");
}

#[test]
fn cyclic_graphs_survive_gc() {
    let mut vm = small_vm();
    let k = vm.load_class("Node").unwrap();
    let a = vm.alloc_instance(k).unwrap();
    let ah = vm.handle(a);
    let b = vm.alloc_instance(k).unwrap();
    let a = vm.resolve(ah).unwrap();
    vm.set_int(a, "id", 1).unwrap();
    vm.set_int(b, "id", 2).unwrap();
    vm.set_ref(a, "next", b).unwrap();
    vm.set_ref(b, "next", a).unwrap();
    vm.minor_gc().unwrap();
    vm.full_gc().unwrap();
    let a = vm.resolve(ah).unwrap();
    let b = vm.get_ref(a, "next").unwrap();
    assert_eq!(vm.get_int(b, "id").unwrap(), 2);
    assert_eq!(vm.get_ref(b, "next").unwrap(), a, "cycle broken by GC");
}

#[test]
fn minor_gc_scans_an_object_whose_only_dirty_card_is_its_trailing_one() {
    // Tenure on the first survival, so one minor GC places the node.
    let config = HeapConfig { tenure_threshold: 1, ..HeapConfig::small() };
    let mut vm = Vm::new("gc-test", &config, classpath()).unwrap();
    let k = vm.load_class("Node").unwrap();
    let node = vm.alloc_instance(k).unwrap();
    let size = vm.obj_size(node).unwrap();
    let h = vm.handle(node);
    // Pad the old generation so the promoted node starts one word before
    // a card boundary (cards are counted from the generation's start).
    let (_, _, _, old) = vm.heap().spaces();
    let boundary = old.start + (old.top - old.start + 16).div_ceil(CARD_SIZE) * CARD_SIZE;
    vm.heap_mut().alloc_raw_old(boundary - 8 - old.top).unwrap();
    vm.minor_gc().unwrap();
    let old_node = vm.resolve(h).unwrap();
    assert_eq!(old_node.raw(), boundary - 8, "the node must straddle the card boundary");
    assert!(size > 8 && size < CARD_SIZE);
    // Its only reference to a young node is stored without the barrier,
    // and only the trailing card is dirtied.
    let young = vm.alloc_instance(k).unwrap();
    vm.set_int(young, "id", 42).unwrap();
    let next = vm.klasses().get(k).unwrap().field_by_name("next").unwrap().offset;
    vm.heap().arena().store_word(old_node.raw() + next, young.raw()).unwrap();
    vm.heap_mut().dirty_card_range(Addr(boundary), 8);
    assert!(!vm.heap().is_card_dirty(old_node));

    vm.minor_gc().unwrap();
    let moved = vm.get_ref(old_node, "next").unwrap();
    assert_ne!(moved, young, "the card walk must evacuate the young node");
    assert_eq!(vm.get_int(moved, "id").unwrap(), 42, "young node lost by the card walk");
    let faults = vm.verify_heap().unwrap();
    assert!(faults.is_empty(), "{faults:?}");
}

/// Runs one minor GC over a dirty region of fixed shape lying above
/// `ballast` bytes of untouched tenured data; returns the dirty-card count
/// before the collection and the collection's `mheap.gc.cards_scanned`.
fn cards_scanned_above(ballast: u64) -> (usize, u64) {
    let reg = Arc::new(obs::Registry::new());
    let config = HeapConfig { capacity: 128 << 20, tenure_threshold: 1, ..HeapConfig::default() };
    let mut vm = Vm::new("cards", &config, classpath()).unwrap().with_metrics(Arc::clone(&reg));
    // 10 MB long arrays are large objects: allocated straight into the
    // old generation, never written.
    let longs = vm.load_class("[J").unwrap();
    for _ in 0..ballast / (10 << 20) {
        let a = vm.alloc_array(longs, (10 << 20) / 8).unwrap();
        assert!(vm.heap().in_old(a));
        vm.handle(a);
    }
    // Start the region on a card boundary so both heaps lay it out alike.
    let (_, _, _, old) = vm.heap().spaces();
    let rel = (old.top - old.start) % CARD_SIZE;
    if rel != 0 {
        vm.heap_mut().alloc_raw_old(CARD_SIZE - rel).unwrap();
    }
    // A 2 000-slot reference array (≈ 32 cards), tenured by one minor GC.
    let objs = vm.load_class("[Ljava.lang.Object;").unwrap();
    let arr = vm.alloc_array(objs, 2_000).unwrap();
    let ah = vm.handle(arr);
    vm.minor_gc().unwrap();
    let arr = vm.resolve(ah).unwrap();
    assert!(vm.heap().in_old(arr));
    let k = vm.load_class("Node").unwrap();
    for i in (0..2_000).step_by(97) {
        let node = vm.alloc_instance(k).unwrap();
        vm.set_int(node, "id", i as i32).unwrap();
        vm.array_set_ref(arr, i, node).unwrap(); // barrier: the header card
    }
    vm.heap_mut().dirty_card_range(Addr(arr.raw() + 5 * CARD_SIZE), 4 * CARD_SIZE);
    vm.heap_mut().dirty_card_range(Addr(arr.raw() + 20 * CARD_SIZE), 2 * CARD_SIZE);
    let dirty = vm.heap().dirty_card_count();

    let before = reg.counter(obs::names::GC_CARDS_SCANNED).get();
    vm.minor_gc().unwrap();
    let scanned = reg.counter(obs::names::GC_CARDS_SCANNED).get() - before;
    for i in (0..2_000).step_by(97) {
        let node = vm.array_get_ref(arr, i).unwrap();
        assert_eq!(vm.get_int(node, "id").unwrap(), i as i32);
    }
    let faults = vm.verify_heap().unwrap();
    assert!(faults.is_empty(), "{faults:?}");
    (dirty, scanned)
}

#[test]
fn minor_gc_card_work_follows_dirty_cards_not_old_gen_size() {
    let (dirty, scanned) = cards_scanned_above(0);
    let (dirty_big, scanned_big) = cards_scanned_above(40 << 20);
    assert_eq!(dirty, 7, "header card + 4 + 2 dirtied cards");
    assert_eq!(dirty_big, dirty);
    assert_eq!(scanned, dirty as u64, "cards scanned = cards in dirty runs");
    assert_eq!(scanned_big, scanned, "40 MB of clean tenured data cost card work");
}
