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
}

struct Counting;

// SAFETY: both methods hand their arguments to `System` untouched, so its
// `GlobalAlloc` contract is ours; the only addition is a bump of a
// const-initialised, destructor-free thread-local `Cell`, which neither
// allocates nor unwinds. `realloc` / `alloc_zeroed` default to `alloc`.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `layout` is the caller's, forwarded as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
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
