//! Allocation census: the collector, the verifier and the by-name field
//! accessors read class layout where it lies on the klass — none of them may
//! pay the allocator per object. A counting `#[global_allocator]` needs a
//! test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mheap::stdlib::define_core_classes;
use mheap::{Addr, ClassPath, FieldType, HeapConfig, KlassDef, PrimType, Vm};

thread_local! {
    /// Allocations made by this thread (the harness runs other threads).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations requested.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

/// Counts one allocation of `layout` against this thread.
fn count(layout: Layout) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
}

// SAFETY: every method hands its arguments to `System` untouched, so its
// `GlobalAlloc` contract is ours; the only addition is a bump of two
// const-initialised, destructor-free thread-local `Cell`s, which neither
// allocates nor unwinds. `realloc` defaults to `alloc`.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `layout` is the caller's, forwarded as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        System.alloc(layout)
    }

    // SAFETY: as for `alloc`. Forwarding (rather than the default
    // alloc-then-memset) keeps an arena's untouched pages untouched.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout);
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` was returned by `alloc` above, i.e. by `System`, for
    // this `layout` — the caller's obligation, forwarded as is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its value and the allocations this thread made in it.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Runs `f`, returning its value and the bytes this thread requested in it.
fn bytes_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

const N: usize = 10_000;
/// Growth of a few per-collection worklists is fine; a malloc per object is
/// what this census exists to catch.
const BUDGET: u64 = (N / 10) as u64;

#[test]
fn collector_verifier_and_field_reads_do_not_allocate_per_object() {
    let cp = ClassPath::new();
    define_core_classes(&cp);
    cp.define(KlassDef::new(
        "Node",
        None,
        vec![("id", FieldType::Prim(PrimType::Int)), ("next", FieldType::Ref)],
    ));
    // Tenure on the first survival, so one minor collection promotes every
    // node and the full collection then has N old objects to slide.
    let config = HeapConfig { tenure_threshold: 1, ..HeapConfig::default() };
    let mut vm = Vm::new("census", &config, cp).unwrap();
    let list = vm.new_list(N as u64).unwrap();
    let lh = vm.handle(list);
    let k = vm.load_class("Node").unwrap();
    let mut prev = Addr::NULL;
    for i in 0..N {
        let node = vm.alloc_instance(k).unwrap();
        vm.set_int(node, "id", i as i32).unwrap();
        vm.set_ref(node, "next", prev).unwrap();
        let list = vm.resolve(lh).unwrap();
        vm.list_push(list, node).unwrap();
        prev = node;
    }
    assert_eq!(vm.stats.minor_gcs + vm.stats.full_gcs, 0, "the build must fit eden");

    let read_all = |vm: &Vm| {
        let list = vm.resolve(lh).unwrap();
        for i in 0..N {
            let node = vm.list_get(list, i as u64).unwrap();
            assert_eq!(vm.get_int(node, "id").unwrap(), i as i32);
            let next = vm.get_ref(node, "next").unwrap();
            assert_eq!(next.is_null(), i == 0);
        }
    };
    let ((), reads) = allocs_during(|| read_all(&vm));
    assert_eq!(reads, 0, "N x list_get / get_int / get_ref allocated");

    let (faults, n) = allocs_during(|| vm.verify_heap().unwrap());
    assert!(faults.is_empty(), "{faults:?}");
    assert!(n < BUDGET, "verify_heap over {N} objects allocated {n} times");

    let ((), n) = allocs_during(|| vm.minor_gc().unwrap());
    assert!(vm.stats.bytes_promoted >= (N * 40) as u64, "every node should have been promoted");
    assert!(n < BUDGET, "minor_gc promoting {N} objects allocated {n} times");

    let ((), n) = allocs_during(|| vm.full_gc().unwrap());
    assert!(n < BUDGET, "full_gc over {N} live objects allocated {n} times");

    let (faults, n) = allocs_during(|| vm.verify_heap().unwrap());
    assert!(faults.is_empty(), "{faults:?}");
    assert!(n < BUDGET, "verify_heap over {N} old objects allocated {n} times");
    read_all(&vm);
}

/// Bytes `Vm::new` requests for a 256 MiB heap besides the arena itself —
/// the card table (one byte per 512-byte card of the old generation) plus
/// the VM's name — measured before the heap gained its object-start
/// record. Anything a heap keeps per card beyond the card table must grow
/// lazily: an eager multi-MB table is re-zeroed on every set-up.
const VM_NEW_BYTES: u64 = 367_008;

#[test]
fn vm_new_requests_no_per_card_memory_beyond_the_card_table() {
    let cp = ClassPath::new();
    define_core_classes(&cp);
    let config = HeapConfig::default().with_capacity(256 << 20);
    // The process-wide registry is built on first use, by whichever test
    // gets there first; it is not the heap's cost.
    let _ = obs::global();
    let (vm, bytes) = bytes_during(|| Vm::new("census", &config, cp).unwrap());
    let beyond_arena = bytes - vm.heap().capacity();
    assert!(
        beyond_arena <= VM_NEW_BYTES,
        "Vm::new on a 256 MiB heap requested {beyond_arena} bytes besides the arena \
         (budget: {VM_NEW_BYTES})"
    );
}

#[test]
fn handle_access_allocates_nothing_and_strings_a_constant() {
    let cp = ClassPath::new();
    define_core_classes(&cp);
    cp.define(KlassDef::new(
        "Rec",
        None,
        vec![
            ("n", FieldType::Prim(PrimType::Long)),
            ("x", FieldType::Prim(PrimType::Double)),
            ("i", FieldType::Prim(PrimType::Int)),
            ("r", FieldType::Ref),
        ],
    ));
    let mut vm = Vm::new("census", &HeapConfig::default(), cp).unwrap();
    let k = vm.load_class("Rec").unwrap();
    let [n, x, i, r] = ["n", "x", "i", "r"].map(|f| vm.field_handle(k, f).unwrap());
    let recs: Vec<Addr> = (0..N).map(|_| vm.alloc_instance(k).unwrap()).collect();

    let ((), writes) = allocs_during(|| {
        for (v, &o) in recs.iter().enumerate() {
            vm.set_long_field(o, n, v as i64).unwrap();
            vm.set_double_field(o, x, v as f64).unwrap();
            vm.set_int_field(o, i, v as i32).unwrap();
            vm.set_ref_field(o, r, o).unwrap();
        }
    });
    assert_eq!(writes, 0, "N x handle writes allocated");
    let ((), reads) = allocs_during(|| {
        for (v, &o) in recs.iter().enumerate() {
            assert_eq!(vm.long_field(o, n).unwrap(), v as i64);
            assert_eq!(vm.double_field(o, x).unwrap(), v as f64);
            assert_eq!(vm.int_field(o, i).unwrap(), v as i32);
            assert_eq!(vm.ref_field(o, r).unwrap(), o);
        }
    });
    assert_eq!(reads, 0, "N x handle reads allocated");

    // One string first, so class loading and the temp-root stack's first
    // growth are not counted; then the same count at every length.
    vm.new_string("warm").unwrap();
    let mut counts = Vec::new();
    for len in [1, 7, 64, 1000, 20_000] {
        let text: String = "wörd✓".chars().cycle().take(len).collect();
        let (s, made) = allocs_during(|| vm.new_string(&text).unwrap());
        let (back, read) = allocs_during(|| vm.read_string(s).unwrap());
        assert_eq!(back, text);
        counts.push((len, made, read));
    }
    let (_, made, read) = counts[0];
    assert!(
        counts.iter().all(|&(_, m, r)| (m, r) == (made, read)),
        "new_string / read_string allocations per length: {counts:?}"
    );
    assert!(made <= 1 && read <= 2, "{counts:?}");
}
