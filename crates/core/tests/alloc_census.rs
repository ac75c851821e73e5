//! Allocation census for the transfer's two hot loops: one `GraphSender`
//! traversal and one `GraphReceiver` absorb read class layout off the klass
//! where it lies; what they cache per stream is `Copy`. Neither may pay the
//! allocator per object. A counting `#[global_allocator]` needs a test
//! binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mheap::{Addr, ClassPath, FieldType, HeapConfig, KlassDef, PrimType, Vm};
use simnet::NodeId;
use skyway::{GraphReceiver, GraphSender, SendConfig, TypeDirectory};

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
/// Chunk backings, the gray queue and the chunk map may grow; a malloc per
/// object is what this census exists to catch.
const BUDGET: u64 = (N / 10) as u64;

#[test]
fn sender_traversal_and_receiver_absorb_do_not_allocate_per_object() {
    let cp = ClassPath::new();
    cp.define(KlassDef::new(
        "Node",
        None,
        vec![("id", FieldType::Prim(PrimType::Int)), ("next", FieldType::Ref)],
    ));
    let mut sender = Vm::new("n0", &HeapConfig::default(), cp.clone()).unwrap();
    let mut receiver = Vm::new("n1", &HeapConfig::default(), cp).unwrap();
    let dir = TypeDirectory::new(2, NodeId(0));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();

    // A chain of N nodes, every one with a live reference field (the tail's
    // is null): the shape whose per-object reference map used to be cloned.
    let k = sender.load_class("Node").unwrap();
    let mut head = Addr::NULL;
    for i in 0..N {
        let node = sender.alloc_instance(k).unwrap();
        sender.set_int(node, "id", i as i32).unwrap();
        sender.set_ref(node, "next", head).unwrap();
        head = node;
    }
    assert_eq!(sender.stats.minor_gcs + sender.stats.full_gcs, 0, "the build must fit eden");

    let (out, n) = allocs_during(|| {
        let cfg = SendConfig::for_vm(&sender);
        let mut gs = GraphSender::new(&sender, &dir, NodeId(0), 1, 0, cfg).unwrap();
        gs.write_root(head).unwrap();
        gs.finish()
    });
    assert_eq!(out.stats.objects, N as u64);
    assert!(n < BUDGET, "sending {N} objects allocated {n} times");

    let ((roots, stats), n) = allocs_during(|| {
        let mut gr = GraphReceiver::new(&mut receiver, &dir, NodeId(1));
        for chunk in &out.chunks {
            gr.push_chunk(chunk).unwrap();
        }
        gr.finish(None).unwrap()
    });
    assert_eq!(stats.objects, N as u64);
    assert!(n < BUDGET, "absorbing {N} objects allocated {n} times");

    let mut cur = roots[0];
    for i in (0..N).rev() {
        assert_eq!(receiver.get_int(cur, "id").unwrap(), i as i32);
        cur = receiver.get_ref(cur, "next").unwrap();
    }
    assert!(cur.is_null());
}
