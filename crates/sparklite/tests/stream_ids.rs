//! Stream-id reservation, alone in its test binary: it reads the
//! process-wide `skyway.shuffle.streams_allocated` counter, which every
//! shuffle in the process feeds.

use sparklite::classes::hash64;
use sparklite::engine::{SerializerKind, SparkCluster, SparkConfig};

// The engine's lane `t` sends as `stream + t`, so a shuffle through an
// N-lane engine must take N ids from the controller per transfer — with one,
// the next bucket of the phase is handed an id a lane of the previous
// transfer may have claimed objects under.
#[test]
fn a_parallel_engine_shuffle_reserves_every_lane_id() {
    let mut sc = SparkCluster::new(&SparkConfig {
        n_workers: 2,
        serializer: SerializerKind::Skyway,
        heap_bytes: 24 << 20,
        pipeline: true,
        pipeline_workers: 4,
        ..SparkConfig::default()
    })
    .unwrap();
    let cls = sc.classes().unwrap();
    let ds = sc
        .create_dataset(vec![(0..8i64).collect(), (8..16i64).collect()], |vm, &v| {
            cls.new_edge(vm, v, v + 1)
        })
        .unwrap();
    let allocated = obs::global().counter(obs::names::SHUFFLE_STREAMS_ALLOCATED);
    let before = allocated.get();
    let out = sc.shuffle(ds, |vm, r| Ok(hash64(cls.read_edge(vm, r)?.0 as u64))).unwrap();
    assert_eq!(sc.count(&out).unwrap(), 16);
    // Per source worker: one four-lane engine transfer to the other worker
    // and one single-stream spill to itself.
    assert_eq!(allocated.get() - before, 2 * (4 + 1));
}
