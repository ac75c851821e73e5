//! Engine edge cases: empty datasets, single-worker clusters, bad
//! partitioning, release semantics, and shuffle determinism.

use sparklite::classes::hash64;
use sparklite::engine::{SerializerKind, SparkCluster, SparkConfig};

fn cluster(workers: usize, kind: SerializerKind) -> SparkCluster {
    SparkCluster::new(&SparkConfig {
        n_workers: workers,
        serializer: kind,
        heap_bytes: 24 << 20,
        ..SparkConfig::default()
    })
    .unwrap()
}

#[test]
fn empty_dataset_shuffles_to_empty() {
    for kind in SerializerKind::ALL {
        let mut sc = cluster(3, kind);
        let cls = sc.classes().unwrap();
        let ds = sc
            .create_dataset(vec![vec![], vec![], vec![]], |vm, &v: &i64| cls.new_edge(vm, v, v))
            .unwrap();
        assert_eq!(sc.count(&ds).unwrap(), 0);
        let out = sc.shuffle(ds, |vm, r| Ok(hash64(cls.read_edge(vm, r)?.0 as u64))).unwrap();
        assert_eq!(sc.count(&out).unwrap(), 0, "{kind:?}");
        sc.release(out).unwrap();
    }
}

#[test]
fn single_worker_cluster_works() {
    let mut sc = cluster(1, SerializerKind::Skyway);
    let cls = sc.classes().unwrap();
    let ds =
        sc.create_dataset(vec![(0..50i64).collect()], |vm, &v| cls.new_edge(vm, v, v + 1)).unwrap();
    let out = sc.shuffle(ds, |vm, r| Ok(hash64(cls.read_edge(vm, r)?.1 as u64))).unwrap();
    assert_eq!(sc.count(&out).unwrap(), 50);
    // Everything is a local fetch on one worker.
    let p = sc.aggregate_profile();
    assert_eq!(p.bytes_remote, 0);
    assert!(p.bytes_local > 0);
    sc.release(out).unwrap();
}

#[test]
fn wrong_seed_partition_count_is_rejected() {
    let mut sc = cluster(3, SerializerKind::Kryo);
    let cls = sc.classes().unwrap();
    let err = sc.create_dataset(vec![vec![1i64]], |vm, &v| cls.new_edge(vm, v, v));
    assert!(matches!(err, Err(sparklite::Error::BadPartitioning { expected: 3, got: 1 })));
}

#[test]
fn double_release_is_an_error() {
    let mut sc = cluster(2, SerializerKind::Kryo);
    let cls = sc.classes().unwrap();
    let ds = sc.create_dataset(vec![vec![1i64], vec![2]], |vm, &v| cls.new_edge(vm, v, v)).unwrap();
    let ds2 = ds.clone();
    sc.release(ds).unwrap();
    assert!(sc.release(ds2).is_err(), "stale handles must be detected");
}

#[test]
fn shuffle_routes_by_key_deterministically() {
    // Records with the same key land on the same worker, across runs and
    // serializers.
    let mut destinations = Vec::new();
    for kind in SerializerKind::ALL {
        let mut sc = cluster(3, kind);
        let cls = sc.classes().unwrap();
        let ds = sc
            .create_dataset(
                vec![(0..30i64).collect(), (30..60i64).collect(), (60..90i64).collect()],
                |vm, &v| cls.new_edge(vm, v % 7, v),
            )
            .unwrap();
        let out = sc.shuffle(ds, |vm, r| Ok(hash64(cls.read_edge(vm, r)?.0 as u64))).unwrap();
        // Key → owning partition index.
        let mut key_owner = std::collections::HashMap::new();
        for (idx, part) in out.partitions.iter().enumerate() {
            let vm = sc.vm(part.node);
            let list = vm.resolve(part.list).unwrap();
            for i in 0..vm.list_len(list).unwrap() {
                let rec = vm.list_get(list, i).unwrap();
                let (k, _) = cls.read_edge(vm, rec).unwrap();
                let prev = key_owner.insert(k, idx);
                assert!(prev.is_none() || prev == Some(idx), "key {k} split across partitions");
            }
        }
        let mut v: Vec<(i64, usize)> = key_owner.into_iter().collect();
        v.sort();
        destinations.push(v);
        sc.release(out).unwrap();
    }
    assert_eq!(destinations[0], destinations[1]);
    assert_eq!(destinations[1], destinations[2]);
}

#[test]
fn zip_transform_rejects_mismatched_partitioning() {
    let mut sc = cluster(2, SerializerKind::Kryo);
    let cls = sc.classes().unwrap();
    let a = sc.create_dataset(vec![vec![1i64], vec![2]], |vm, &v| cls.new_edge(vm, v, v)).unwrap();
    // A dataset with swapped partition owners.
    let mut b =
        sc.create_dataset(vec![vec![3i64], vec![4]], |vm, &v| cls.new_edge(vm, v, v)).unwrap();
    b.partitions.reverse();
    let r = sc.zip_transform(
        &a,
        &b,
        |_vm, _x, _y| Ok(Vec::<i64>::new()),
        |vm, &v| cls.new_edge(vm, v, v),
    );
    assert!(matches!(r, Err(sparklite::Error::BadPartitioning { .. })));
}

#[test]
fn workload_classes_survive_many_shuffle_phases() {
    // Exercises the sID-wrap scrub path: >255 shuffle phases on one
    // Skyway cluster.
    let mut sc = cluster(2, SerializerKind::Skyway);
    let cls = sc.classes().unwrap();
    let mut ds = sc
        .create_dataset(vec![(0..8i64).collect(), (8..16i64).collect()], |vm, &v| {
            cls.new_edge(vm, v, v + 1)
        })
        .unwrap();
    for round in 0..260 {
        ds = sc
            .shuffle(ds, move |vm, r| {
                let (s, _) = cls.read_edge(vm, r)?;
                Ok(hash64((s + round) as u64))
            })
            .unwrap();
        assert_eq!(sc.count(&ds).unwrap(), 16, "round {round}");
    }
    sc.release(ds).unwrap();
}
