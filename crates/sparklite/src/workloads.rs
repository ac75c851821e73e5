//! The four Spark workloads of the paper's §5.2 evaluation: WordCount,
//! PageRank, ConnectedComponents, and TriangleCounting.
//!
//! WordCount performs a single round of shuffling; the three graph
//! workloads shuffle every iteration — which is why the paper's savings are
//! largest for PageRank and TriangleCounting (§5.2: "since they perform
//! many rounds of data shuffling, a large portion of their execution time
//! is taken by S/D").

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::classes;
use crate::engine::{Dataset, SparkCluster};
use crate::graphgen::{partition_edges, Graph};
use crate::Result;

/// Cap on per-node adjacency fan-out in TriangleCounting wedge generation
/// (bounds the quadratic wedge blow-up on power-law hubs; the count is
/// still exact for all triangles within the cap).
pub const TRIANGLE_DEGREE_CAP: usize = 256;

// ---------------------------------------------------------------------------
// WordCount
// ---------------------------------------------------------------------------

/// Runs WordCount over pre-partitioned lines. One map stage, one shuffle,
/// one reduce stage, then `collect`. Returns `(word, count)` pairs.
///
/// # Errors
/// Engine errors.
pub fn run_wordcount(sc: &mut SparkCluster, lines: Vec<Vec<String>>) -> Result<Vec<(String, i32)>> {
    let cls = sc.classes()?;
    sc.ship_closure("wordcount.map", 0, "tokenizer")?;
    // Load lines as String records.
    let input = sc.create_dataset(lines, |vm, line: &String| {
        vm.new_string(line).map_err(crate::Error::Heap)
    })?;

    // Map: tokenize into (word, 1) records.
    let pairs = sc.transform(
        &input,
        |vm, records| {
            let mut out = Vec::new();
            for &r in records {
                let line = vm.read_string(r).map_err(crate::Error::Heap)?;
                for tok in line.split_whitespace() {
                    out.push(tok.to_owned());
                }
            }
            Ok(out)
        },
        |vm, word| cls.new_word_count(vm, word, 1),
    )?;
    sc.release(input)?;

    // Shuffle by word.
    let shuffled = sc.shuffle(pairs, |vm, r| {
        let (w, _) = cls.read_word_count(vm, r)?;
        Ok(classes::hash_str(&w))
    })?;

    // Reduce: sum counts per word.
    let counts = sc.transform(
        &shuffled,
        |vm, records| {
            let mut m: HashMap<String, i32> = HashMap::new();
            for &r in records {
                let (w, c) = cls.read_word_count(vm, r)?;
                *m.entry(w).or_insert(0) += c;
            }
            Ok(m.into_iter().collect::<Vec<_>>())
        },
        |vm, (word, count)| cls.new_word_count(vm, word, *count),
    )?;
    sc.release(shuffled)?;

    let mut out = sc.collect(&counts, |vm, records| {
        records.iter().map(|&r| cls.read_word_count(vm, r)).collect()
    })?;
    sc.release(counts)?;
    out.sort();
    Ok(out)
}

// ---------------------------------------------------------------------------
// graph loading
// ---------------------------------------------------------------------------

/// Loads a graph as an edge dataset, co-partitioned by source vertex.
///
/// # Errors
/// Engine errors.
pub fn load_edges(sc: &mut SparkCluster, graph: &Graph) -> Result<Dataset> {
    let cls = sc.classes()?;
    let parts = partition_edges(graph, sc.n_workers());
    sc.create_dataset(parts, |vm, &(s, d)| cls.new_edge(vm, s as i64, d as i64))
}

/// Builds adjacency records from a co-partitioned edge dataset
/// (deduplicating parallel edges).
///
/// # Errors
/// Engine errors.
pub fn build_adjacency(sc: &mut SparkCluster, edges: &Dataset) -> Result<Dataset> {
    let cls = sc.classes()?;
    sc.transform(
        edges,
        |vm, records| {
            let mut adj: HashMap<i64, Vec<i64>> = HashMap::new();
            for &r in records {
                let (s, d) = cls.read_edge(vm, r)?;
                adj.entry(s).or_default().push(d);
            }
            let mut out: Vec<(i64, Vec<i64>)> = adj
                .into_iter()
                .map(|(n, mut v)| {
                    v.sort_unstable();
                    v.dedup();
                    (n, v)
                })
                .collect();
            out.sort_unstable_by_key(|(n, _)| *n);
            Ok(out)
        },
        |vm, (node, neighbors)| cls.new_adj(vm, *node, neighbors),
    )
}

// ---------------------------------------------------------------------------
// PageRank
// ---------------------------------------------------------------------------

/// Runs `iters` PageRank iterations (damping 0.85). Each iteration
/// shuffles one contribution message per edge. Returns the top-`k`
/// `(node, rank)` pairs.
///
/// # Errors
/// Engine errors.
pub fn run_pagerank(
    sc: &mut SparkCluster,
    graph: &Graph,
    iters: usize,
    top_k: usize,
) -> Result<Vec<(i64, f64)>> {
    let cls = sc.classes()?;
    sc.ship_closure("pagerank.iterate", 0, "damping=0.85")?;
    let edges = load_edges(sc, graph)?;
    let adj = build_adjacency(sc, &edges)?;
    sc.release(edges)?;

    // Initial ranks, co-partitioned with the adjacency.
    let mut ranks = sc.transform(
        &adj,
        |vm, records| {
            records.iter().map(|&r| Ok(cls.read_adj(vm, r)?.0)).collect::<Result<Vec<i64>>>()
        },
        |vm, &node| cls.new_rank(vm, node, 1.0),
    )?;

    for _ in 0..iters {
        // Contributions: rank(u)/deg(u) to every neighbor.
        let contribs = sc.zip_transform(
            &adj,
            &ranks,
            |vm, adj_recs, rank_recs| {
                let mut rank_of: HashMap<i64, f64> = HashMap::with_capacity(rank_recs.len());
                for &r in rank_recs {
                    let (n, v) = cls.read_rank(vm, r)?;
                    rank_of.insert(n, v);
                }
                let mut out = Vec::new();
                for &a in adj_recs {
                    let (node, neighbors) = cls.read_adj(vm, a)?;
                    if neighbors.is_empty() {
                        continue;
                    }
                    let share = rank_of.get(&node).copied().unwrap_or(1.0) / neighbors.len() as f64;
                    for d in neighbors {
                        out.push((d, share));
                    }
                }
                Ok(out)
            },
            |vm, (node, value)| cls.new_contrib(vm, *node, *value),
        )?;
        sc.release(ranks)?;

        // Shuffle contributions to their target vertex's partition.
        let grouped = sc.shuffle(contribs, |vm, r| {
            let (n, _) = cls.read_contrib(vm, r)?;
            Ok(classes::hash64(n as u64))
        })?;

        // New ranks for every adjacency node: 0.15 + 0.85 * Σ contribs.
        ranks = sc.zip_transform(
            &adj,
            &grouped,
            |vm, adj_recs, contrib_recs| {
                let mut sums: HashMap<i64, f64> = HashMap::new();
                for &c in contrib_recs {
                    let (n, v) = cls.read_contrib(vm, c)?;
                    *sums.entry(n).or_insert(0.0) += v;
                }
                let mut out = Vec::with_capacity(adj_recs.len());
                for &a in adj_recs {
                    let (node, _) = cls.read_adj(vm, a)?;
                    out.push((node, 0.15 + 0.85 * sums.get(&node).copied().unwrap_or(0.0)));
                }
                Ok(out)
            },
            |vm, (node, rank)| cls.new_rank(vm, *node, *rank),
        )?;
        sc.release(grouped)?;
    }
    sc.release(adj)?;

    let mut all =
        sc.collect(&ranks, |vm, records| records.iter().map(|&r| cls.read_rank(vm, r)).collect())?;
    sc.release(ranks)?;
    all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    all.truncate(top_k);
    Ok(all)
}

// ---------------------------------------------------------------------------
// ConnectedComponents
// ---------------------------------------------------------------------------

/// Runs label propagation over the *undirected* view of the graph until
/// convergence (or `max_iters`). Returns the number of connected
/// components.
///
/// # Errors
/// Engine errors.
pub fn run_connected_components(
    sc: &mut SparkCluster,
    graph: &Graph,
    max_iters: usize,
) -> Result<usize> {
    let cls = sc.classes()?;
    sc.ship_closure("concomp.propagate", 0, "min-label")?;
    // Undirected: add both directions before partitioning by source.
    let mut sym = Vec::with_capacity(graph.edges.len() * 2);
    for &(s, d) in &graph.edges {
        sym.push((s, d));
        sym.push((d, s));
    }
    let sym_graph = Graph {
        kind: graph.kind,
        edges: sym,
        n_vertices: graph.n_vertices,
        scale_divisor: graph.scale_divisor,
    };
    let edges = load_edges(sc, &sym_graph)?;
    let adj = build_adjacency(sc, &edges)?;
    sc.release(edges)?;

    // Labels start as the node's own id (co-partitioned with adj).
    let mut labels = sc.transform(
        &adj,
        |vm, records| {
            records.iter().map(|&r| Ok(cls.read_adj(vm, r)?.0)).collect::<Result<Vec<i64>>>()
        },
        |vm, &node| cls.new_label(vm, node, node),
    )?;

    for _ in 0..max_iters {
        // Propagate: each node sends its label to all neighbors (and
        // itself, so isolated-in-partition nodes keep their label).
        let msgs = sc.zip_transform(
            &adj,
            &labels,
            |vm, adj_recs, label_recs| {
                let mut label_of: HashMap<i64, i64> = HashMap::with_capacity(label_recs.len());
                for &l in label_recs {
                    let (n, v) = cls.read_label(vm, l)?;
                    label_of.insert(n, v);
                }
                let mut out = Vec::new();
                for &a in adj_recs {
                    let (node, neighbors) = cls.read_adj(vm, a)?;
                    let label = label_of.get(&node).copied().unwrap_or(node);
                    out.push((node, label));
                    for d in neighbors {
                        out.push((d, label));
                    }
                }
                Ok(out)
            },
            |vm, (node, label)| cls.new_label(vm, *node, *label),
        )?;

        let grouped = sc.shuffle(msgs, |vm, r| {
            let (n, _) = cls.read_label(vm, r)?;
            Ok(classes::hash64(n as u64))
        })?;

        // Take the min label per node; count changes for convergence.
        let changed_total;
        let new_labels = {
            let changed = AtomicU64::new(0);
            let nl = sc.zip_transform(
                &labels,
                &grouped,
                |vm, old_recs, msg_recs| {
                    let mut mins: HashMap<i64, i64> = HashMap::new();
                    for &m in msg_recs {
                        let (n, l) = cls.read_label(vm, m)?;
                        mins.entry(n).and_modify(|v| *v = (*v).min(l)).or_insert(l);
                    }
                    let mut out = Vec::with_capacity(old_recs.len());
                    for &o in old_recs {
                        let (node, old) = cls.read_label(vm, o)?;
                        let new = mins.get(&node).copied().unwrap_or(old).min(old);
                        if new != old {
                            changed.fetch_add(1, Ordering::Relaxed);
                        }
                        out.push((node, new));
                    }
                    Ok(out)
                },
                |vm, (node, label)| cls.new_label(vm, *node, *label),
            )?;
            changed_total = changed.into_inner();
            nl
        };
        sc.release(grouped)?;
        sc.release(labels)?;
        labels = new_labels;
        if changed_total == 0 {
            break;
        }
    }
    sc.release(adj)?;

    let all = sc
        .collect(&labels, |vm, records| records.iter().map(|&r| cls.read_label(vm, r)).collect())?;
    sc.release(labels)?;
    let distinct: std::collections::HashSet<i64> = all.into_iter().map(|(_, l)| l).collect();
    Ok(distinct.len())
}

// ---------------------------------------------------------------------------
// TriangleCounting
// ---------------------------------------------------------------------------

/// Counts triangles (§2.2's motivating workload). Canonicalizes edges,
/// builds higher-neighbor adjacency, generates wedge queries, and verifies
/// them against the adjacency — three shuffle rounds.
///
/// # Errors
/// Engine errors.
pub fn run_triangle_count(sc: &mut SparkCluster, graph: &Graph) -> Result<u64> {
    let cls = sc.classes()?;
    sc.ship_closure("triangles.count", 0, "node-iterator")?;
    // Canonical edges u < v, deduplicated globally by shuffling on the
    // edge itself.
    let raw = load_edges(sc, graph)?;
    let canon = sc.transform(
        &raw,
        |vm, records| {
            let mut out = Vec::with_capacity(records.len());
            for &r in records {
                let (s, d) = cls.read_edge(vm, r)?;
                if s != d {
                    out.push((s.min(d), s.max(d)));
                }
            }
            Ok(out)
        },
        |vm, &(u, v)| cls.new_edge(vm, u, v),
    )?;
    sc.release(raw)?;

    let by_edge = sc.shuffle(canon, |vm, r| {
        let (u, v) = cls.read_edge(vm, r)?;
        Ok(classes::hash64((u as u64) << 32 ^ (v as u64)))
    })?;
    let dedup = sc.transform(
        &by_edge,
        |vm, records| {
            let mut set = std::collections::HashSet::new();
            for &r in records {
                set.insert(cls.read_edge(vm, r)?);
            }
            let mut v: Vec<(i64, i64)> = set.into_iter().collect();
            v.sort_unstable();
            Ok(v)
        },
        |vm, &(u, v)| cls.new_edge(vm, u, v),
    )?;
    sc.release(by_edge)?;

    // Higher-neighbor adjacency, partitioned by u.
    let by_src = sc.shuffle(dedup, |vm, r| {
        let (u, _) = cls.read_edge(vm, r)?;
        Ok(classes::hash64(u as u64))
    })?;
    let adj_plus = sc.transform(
        &by_src,
        |vm, records| {
            let mut adj: HashMap<i64, Vec<i64>> = HashMap::new();
            for &r in records {
                let (u, v) = cls.read_edge(vm, r)?;
                adj.entry(u).or_default().push(v);
            }
            let mut out: Vec<(i64, Vec<i64>)> = adj
                .into_iter()
                .map(|(n, mut v)| {
                    v.sort_unstable();
                    v.dedup();
                    v.truncate(TRIANGLE_DEGREE_CAP);
                    (n, v)
                })
                .collect();
            out.sort_unstable_by_key(|(n, _)| *n);
            Ok(out)
        },
        |vm, (node, neighbors)| cls.new_adj(vm, *node, neighbors),
    )?;
    sc.release(by_src)?;

    // Wedge queries: for every pair v < w in adj+(u), ask v whether w is
    // its neighbor.
    let queries = sc.transform(
        &adj_plus,
        |vm, records| {
            let mut out = Vec::new();
            for &r in records {
                let (_, neigh) = cls.read_adj(vm, r)?;
                for i in 0..neigh.len() {
                    for j in (i + 1)..neigh.len() {
                        out.push((neigh[i], neigh[j]));
                    }
                }
            }
            Ok(out)
        },
        |vm, &(a, b)| cls.new_query(vm, a, b),
    )?;

    let routed = sc.shuffle(queries, |vm, r| {
        let (a, _) = cls.read_query(vm, r)?;
        Ok(classes::hash64(a as u64))
    })?;

    // Verify queries against the co-partitioned adjacency.
    let hits = sc.zip_transform(
        &adj_plus,
        &routed,
        |vm, adj_recs, query_recs| {
            let mut adj: HashMap<i64, std::collections::HashSet<i64>> = HashMap::new();
            for &r in adj_recs {
                let (n, v) = cls.read_adj(vm, r)?;
                adj.insert(n, v.into_iter().collect());
            }
            let mut count = 0i64;
            for &q in query_recs {
                let (a, b) = cls.read_query(vm, q)?;
                if adj.get(&a).is_some_and(|s| s.contains(&b)) {
                    count += 1;
                }
            }
            Ok(vec![count])
        },
        |vm, &count| cls.new_label(vm, 0, count),
    )?;
    sc.release(routed)?;
    sc.release(adj_plus)?;

    let partials = sc.collect(&hits, |vm, records| {
        records.iter().map(|&r| Ok(cls.read_label(vm, r)?.1)).collect()
    })?;
    sc.release(hits)?;
    Ok(partials.into_iter().sum::<i64>() as u64)
}
