//! End-to-end engine tests: every workload produces identical results under
//! all three serializers (Java, Kryo, Skyway), and the cost profiles show
//! the structural properties the paper reports.

use simnet::Category;
use sparklite::engine::{SerializerKind, SparkCluster, SparkConfig};
use sparklite::graphgen::{generate, GraphKind};
use sparklite::workloads::{
    run_connected_components, run_pagerank, run_triangle_count, run_wordcount,
};

fn cluster(kind: SerializerKind) -> SparkCluster {
    SparkCluster::new(&SparkConfig {
        n_workers: 3,
        serializer: kind,
        heap_bytes: 48 << 20,
        ..SparkConfig::default()
    })
    .unwrap()
}

fn sample_lines() -> Vec<Vec<String>> {
    vec![
        vec!["the quick brown fox".to_owned(), "jumps over the lazy dog".to_owned()],
        vec!["the dog barks".to_owned(), "the fox runs".to_owned()],
        vec!["quick quick slow".to_owned()],
    ]
}

#[test]
fn wordcount_agrees_across_serializers() {
    let mut results = Vec::new();
    for kind in SerializerKind::ALL {
        let mut sc = cluster(kind);
        results.push(run_wordcount(&mut sc, sample_lines()).unwrap());
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    // Spot-check contents.
    let the = results[0].iter().find(|(w, _)| w == "the").unwrap();
    assert_eq!(the.1, 4);
    let quick = results[0].iter().find(|(w, _)| w == "quick").unwrap();
    assert_eq!(quick.1, 3);
}

#[test]
fn pagerank_agrees_across_serializers() {
    let g = generate(GraphKind::LiveJournal, 50_000, 42);
    let mut tops = Vec::new();
    for kind in SerializerKind::ALL {
        let mut sc = cluster(kind);
        let top = run_pagerank(&mut sc, &g, 3, 10).unwrap();
        tops.push(top);
    }
    for t in &tops[1..] {
        assert_eq!(tops[0].len(), t.len());
        for (a, b) in tops[0].iter().zip(t) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-9);
        }
    }
    // Ranks must be sane.
    assert!(tops[0][0].1 >= 0.15);
}

#[test]
fn connected_components_matches_reference() {
    let g = generate(GraphKind::Orkut, 50_000, 7);
    // Reference union-find on the raw edge list.
    let n = g.n_vertices as usize;
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(p: &mut [usize], mut x: usize) -> usize {
        while p[x] != x {
            p[x] = p[p[x]];
            x = p[x];
        }
        x
    }
    for &(a, b) in &g.edges {
        let (ra, rb) = (find(&mut parent, a as usize), find(&mut parent, b as usize));
        if ra != rb {
            parent[ra] = rb;
        }
    }
    let mut touched: std::collections::HashSet<usize> = std::collections::HashSet::new();
    for &(a, b) in &g.edges {
        touched.insert(a as usize);
        touched.insert(b as usize);
    }
    let expected: std::collections::HashSet<usize> =
        touched.iter().map(|&v| find(&mut parent, v)).collect();

    for kind in [SerializerKind::Kryo, SerializerKind::Skyway] {
        let mut sc = cluster(kind);
        let components = run_connected_components(&mut sc, &g, 50).unwrap();
        assert_eq!(components, expected.len(), "serializer {:?}", kind);
    }
}

#[test]
fn triangle_count_matches_reference() {
    let g = generate(GraphKind::LiveJournal, 100_000, 11);
    // Reference count.
    let mut adj: std::collections::HashMap<u64, std::collections::BTreeSet<u64>> =
        std::collections::HashMap::new();
    for &(a, b) in &g.edges {
        if a == b {
            continue;
        }
        let (u, v) = (a.min(b), a.max(b));
        adj.entry(u).or_default().insert(v);
    }
    let mut expected = 0u64;
    for (_, higher) in adj.iter() {
        let hs: Vec<u64> = higher.iter().copied().collect();
        for i in 0..hs.len() {
            for j in (i + 1)..hs.len() {
                if adj.get(&hs[i]).is_some_and(|s| s.contains(&hs[j])) {
                    expected += 1;
                }
            }
        }
    }

    for kind in [SerializerKind::Kryo, SerializerKind::Skyway] {
        let mut sc = cluster(kind);
        let count = run_triangle_count(&mut sc, &g).unwrap();
        assert_eq!(count, expected, "serializer {:?}", kind);
    }
}

#[test]
fn skyway_profile_has_zero_sd_invocations() {
    let g = generate(GraphKind::LiveJournal, 20_000, 42);
    let mut sc = cluster(SerializerKind::Skyway);
    run_pagerank(&mut sc, &g, 2, 5).unwrap();
    let p = sc.aggregate_profile();
    // Closure serialization uses the Java serializer (a handful of calls);
    // DATA serialization must contribute none beyond that.
    assert!(p.ser_invocations < 100, "skyway run recorded {} ser invocations", p.ser_invocations);
    assert!(p.objects_transferred > 1000);
    assert!(p.ns(Category::Ser) > 0, "traversal time must be charged as Ser");
    assert!(p.ns(Category::Deser) > 0, "absolutization time must be charged as Deser");
}

#[test]
fn kryo_invocations_scale_with_dataset() {
    let g = generate(GraphKind::LiveJournal, 20_000, 42);
    let mut sc = cluster(SerializerKind::Kryo);
    run_pagerank(&mut sc, &g, 2, 5).unwrap();
    let p = sc.aggregate_profile();
    assert!(
        p.ser_invocations > 500,
        "kryo run recorded only {} ser invocations",
        p.ser_invocations
    );
    assert!(p.deser_invocations > 500);
}

#[test]
fn skyway_moves_more_bytes_than_kryo() {
    let g = generate(GraphKind::LiveJournal, 100_000, 42);
    let mut bytes = std::collections::HashMap::new();
    for kind in [SerializerKind::Kryo, SerializerKind::Skyway, SerializerKind::Java] {
        let mut sc = cluster(kind);
        run_pagerank(&mut sc, &g, 2, 5).unwrap();
        let p = sc.aggregate_profile();
        bytes.insert(kind, p.bytes_local + p.bytes_remote);
    }
    assert!(
        bytes[&SerializerKind::Skyway] > bytes[&SerializerKind::Kryo],
        "skyway {} <= kryo {}",
        bytes[&SerializerKind::Skyway],
        bytes[&SerializerKind::Kryo]
    );
    assert!(
        bytes[&SerializerKind::Java] > bytes[&SerializerKind::Kryo],
        "java {} <= kryo {}",
        bytes[&SerializerKind::Java],
        bytes[&SerializerKind::Kryo]
    );
}

#[test]
fn profiles_cover_all_five_components() {
    let g = generate(GraphKind::LiveJournal, 200_000, 13);
    let mut sc = cluster(SerializerKind::Kryo);
    run_pagerank(&mut sc, &g, 2, 5).unwrap();
    let p = sc.aggregate_profile();
    for cat in Category::ALL {
        assert!(p.ns(cat) > 0, "category {cat:?} never charged");
    }
    assert!(p.bytes_local > 0);
    assert!(p.bytes_remote > 0);
    assert!(p.bytes_spilled > 0);
}

#[test]
fn dataset_counting_and_release() {
    let mut sc = cluster(SerializerKind::Kryo);
    let cls = sc.classes().unwrap();
    let ds = sc
        .create_dataset(vec![vec![1i64, 2, 3], vec![4, 5], vec![6]], |vm, &v| {
            cls.new_edge(vm, v, v + 1)
        })
        .unwrap();
    assert_eq!(sc.count(&ds).unwrap(), 6);
    sc.release(ds).unwrap();
}

#[test]
fn pipelined_shuffle_matches_sequential_results() {
    let mk = |pipeline: bool| {
        SparkCluster::new(&SparkConfig {
            n_workers: 3,
            serializer: SerializerKind::Skyway,
            heap_bytes: 48 << 20,
            pipeline,
            ..SparkConfig::default()
        })
        .unwrap()
    };
    let mut seq = mk(false);
    let mut pipe = mk(true);
    let seq_counts = run_wordcount(&mut seq, sample_lines()).unwrap();
    let pipe_counts = run_wordcount(&mut pipe, sample_lines()).unwrap();
    assert_eq!(seq_counts, pipe_counts);
    assert_eq!(
        seq.aggregate_profile().objects_transferred,
        pipe.aggregate_profile().objects_transferred,
        "the engine route charges the objects it moves"
    );

    let g = generate(GraphKind::LiveJournal, 20_000, 7);
    let mut seq = mk(false);
    let mut pipe = mk(true);
    let a = run_pagerank(&mut seq, &g, 3, 5).unwrap();
    let b = run_pagerank(&mut pipe, &g, 3, 5).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.0, y.0);
        assert!((x.1 - y.1).abs() < 1e-9);
    }
}

#[test]
fn shared_segment_shuffle_matches_spill_results() {
    let mk = |shared: bool| {
        SparkCluster::new(&SparkConfig {
            n_workers: 3,
            serializer: SerializerKind::Skyway,
            heap_bytes: 48 << 20,
            shared_segments: shared,
            ..SparkConfig::default()
        })
        .unwrap()
    };
    let mut spill = mk(false);
    let mut shared = mk(true);
    let a = run_wordcount(&mut spill, sample_lines()).unwrap();
    let b = run_wordcount(&mut shared, sample_lines()).unwrap();
    assert_eq!(a, b);
    assert_eq!(
        spill.aggregate_profile().objects_transferred,
        shared.aggregate_profile().objects_transferred,
        "the seal route charges the objects it moves"
    );

    // The same-node buckets really took the seal/attach path…
    assert!(shared.shared_spill_count() > 0, "no same-node bucket was sealed");
    assert_eq!(
        shared.segment_store().live_segments(),
        shared.shared_spill_count(),
        "every sealed spill segment must still be live while attached"
    );
    // …and every attached heap still verifies clean.
    for n in shared.worker_nodes() {
        assert_eq!(shared.vm(n).verify_heap().unwrap(), vec![]);
    }
    // After the workload released its datasets, the spill segments can be
    // detached and reclaimed in one epoch.
    let attached = shared.shared_spill_count();
    assert_eq!(shared.reclaim_shared_spills().unwrap(), attached);
    assert_eq!(shared.segment_store().live_segments(), 0);

    // Larger, multi-shuffle workload for the same equivalence.
    let g = generate(GraphKind::LiveJournal, 20_000, 7);
    let mut spill = mk(false);
    let mut shared = mk(true);
    let a = run_pagerank(&mut spill, &g, 3, 5).unwrap();
    let b = run_pagerank(&mut shared, &g, 3, 5).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.0, y.0);
        assert!((x.1 - y.1).abs() < 1e-9);
    }
}

#[test]
fn broadcast_is_one_segment_with_refcount_n() {
    let mut sc = cluster(SerializerKind::Skyway);
    let n = sc.n_workers();
    let cls = sc.classes().unwrap();
    let b = sc.broadcast(|vm| cls.new_edge(vm, 40, 2)).unwrap();
    // One sealed copy, one attach per worker: refcount == N.
    assert_eq!(sc.segment_store().refcount(b.base), Some(n as u32));
    // Every worker reads the same physical object at the same address.
    for w in sc.worker_nodes() {
        let (src, dst) = cls.read_edge(sc.vm(w), b.root).unwrap();
        assert_eq!((src, dst), (40, 2));
        assert_eq!(sc.vm(w).verify_heap().unwrap(), vec![]);
    }
    sc.drop_broadcast(b).unwrap();
    assert_eq!(sc.segment_store().refcount(b.base), None);
    assert_eq!(sc.segment_store().live_segments(), 0);
}

#[test]
fn parallel_pipelined_shuffle_matches_sequential_results() {
    let mk = |workers: usize| {
        SparkCluster::new(&SparkConfig {
            n_workers: 3,
            serializer: SerializerKind::Skyway,
            heap_bytes: 48 << 20,
            pipeline: true,
            pipeline_workers: workers,
            ..SparkConfig::default()
        })
        .unwrap()
    };
    let mut single = mk(1);
    let mut parallel = mk(4);
    let a = run_wordcount(&mut single, sample_lines()).unwrap();
    let b = run_wordcount(&mut parallel, sample_lines()).unwrap();
    assert_eq!(a, b);

    let g = generate(GraphKind::LiveJournal, 20_000, 7);
    let mut single = mk(1);
    let mut parallel = mk(4);
    let a = run_pagerank(&mut single, &g, 3, 5).unwrap();
    let b = run_pagerank(&mut parallel, &g, 3, 5).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.0, y.0);
        assert!((x.1 - y.1).abs() < 1e-9);
    }
}
