//! The process-wide chunk pool, alone in its test binary: its hit/miss
//! counters aggregate every transfer and every seal in the process, so
//! exact counts only hold when nothing else runs beside the test.

use std::sync::Arc;

use mheap::stdlib::define_core_classes;
use mheap::{Addr, ClassPath, HeapConfig, Vm};
use segstore::SegStore;
use simnet::NodeId;
use skyway::{ChunkPool, PipelineConfig, PipelineEngine, TypeDirectory};

// Two fresh engines share the global pool, so the second transfer's chunks
// all come from the first transfer's returns; seals stage their image in
// the same pool, and best-fit acquisition keeps the engines' small chunk
// requests from walking off with a seal's large backing.
#[test]
fn engines_and_seals_recycle_through_the_global_pool() {
    let cp = ClassPath::new();
    define_core_classes(&cp);
    let mut sender = Vm::new("s", &HeapConfig::small(), Arc::clone(&cp)).unwrap();
    let mut receiver = Vm::new("r", &HeapConfig::small(), cp).unwrap();
    let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
    dir.bootstrap_driver(&sender).unwrap();
    dir.worker_startup(NodeId(1)).unwrap();
    let list = sender.new_list(32).unwrap();
    let h = sender.handle(list);
    for i in 0..24 {
        let s = sender.new_string(&format!("pooled string number {i}")).unwrap();
        let list = sender.resolve(h).unwrap();
        sender.list_push(list, s).unwrap();
    }
    let roots: Vec<Addr> = vec![sender.resolve(h).unwrap()];

    // A seal parks its staging backing (heap-sized, far above 256 bytes).
    let pool = ChunkPool::global();
    let store = SegStore::new().with_metrics(Arc::new(obs::Registry::new()));
    store.seal(&sender, &dir, NodeId(0), &roots).unwrap();
    assert_eq!((pool.hits(), pool.misses(), pool.idle()), (0, 1, 1));

    // Both engines are constructed independently — sharing happens only
    // through the process-global pool that `new` defaults to.
    let e1 = PipelineEngine::new(PipelineConfig { chunk_limit: 256, ..Default::default() });
    let e2 = PipelineEngine::new(PipelineConfig { chunk_limit: 256, ..Default::default() });
    assert!(Arc::ptr_eq(e1.pool(), e2.pool()));
    assert!(Arc::ptr_eq(e1.pool(), pool));
    let (_, r1) = e1
        .transfer(&sender, &mut receiver, &dir, NodeId(0), NodeId(1), 1, 1, &roots, None)
        .unwrap();
    let (_, r2) = e2
        .transfer(&sender, &mut receiver, &dir, NodeId(0), NodeId(1), 1, 2, &roots, None)
        .unwrap();
    // First run may allocate; the second must be served entirely from the
    // chunks the first returned to the shared pool.
    assert!(r1.pool_hits + r1.pool_misses > 0);
    assert_eq!(r2.pool_misses, 0);
    assert!(r2.pool_hits > 0);

    // The seal's backing sat out both transfers: the next seal hits.
    let (hits, misses) = (pool.hits(), pool.misses());
    store.seal(&sender, &dir, NodeId(0), &roots).unwrap();
    assert_eq!((pool.hits(), pool.misses()), (hits + 1, misses));
}
