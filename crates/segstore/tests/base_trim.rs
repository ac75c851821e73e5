//! Base-reservation trim, alone in its test binary: the process-wide base
//! allocator is shared by every seal in a process, so the distance between
//! two bases is only meaningful when no other test seals concurrently.

use std::sync::Arc;

use mheap::stdlib::define_core_classes;
use mheap::{ClassPath, HeapConfig, Vm};
use segstore::SegStore;
use simnet::NodeId;
use skyway::TypeDirectory;

// A seal reserves its base for an upper bound — everything the heap holds —
// before it knows the graph's size, and returns the unused tail afterwards.
// Two back-to-back seals of a small graph from a large heap must therefore
// sit one sealed span (two 1 MiB granules) apart, not one upper bound apart.
#[test]
fn upper_bound_reservation_is_trimmed_to_the_sealed_span() {
    let cp = ClassPath::new();
    define_core_classes(&cp);
    let mut vm = Vm::new("big", &HeapConfig::default(), cp).unwrap();
    let dir = Arc::new(TypeDirectory::new(1, NodeId(0)));
    dir.bootstrap_driver(&vm).unwrap();
    // ~5 MiB the roots below do not reach.
    let k = vm.load_class("[J").unwrap();
    for _ in 0..5 {
        let filler = vm.alloc_array(k, 128 << 10).unwrap();
        vm.handle(filler);
    }
    assert!(vm.heap().used() > 5 << 20);
    let s = vm.new_string("small graph").unwrap();

    let store = SegStore::new().with_metrics(Arc::new(obs::Registry::new()));
    let a = store.seal(&vm, &dir, NodeId(0), &[s]).unwrap();
    let b = store.seal(&vm, &dir, NodeId(0), &[s]).unwrap();
    assert!(a.bytes < 1 << 20);
    assert_eq!(b.base - a.base, 2 << 20, "reservation was not trimmed");
}
