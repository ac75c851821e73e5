//! Seeded inputs. The seed is the only argument that shapes them; the
//! libraries under test receive the generated objects, never the seed.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparklite::graphgen::{generate, GraphKind};

/// Payload sizes. `Full` is what `BENCHMARK.json` measures; `Quick` is a
/// scaled-down set for `--quick` and the tests (debug builds included).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// 2 000 JSBS records, LJ ÷ 100 000 edges, LJ ÷ 1 000 lines.
    Full,
    /// 200 JSBS records, LJ ÷ 100 000 edges, LJ ÷ 40 000 lines.
    Quick,
}

impl Size {
    /// JSBS media-content records in the graph payload.
    pub fn media_records(self) -> usize {
        match self {
            Size::Full => 2_000,
            Size::Quick => 200,
        }
    }

    /// Scale divisor of the flat-shuffle edge list.
    pub fn edge_scale(self) -> u64 {
        100_000
    }

    /// Scale divisor of the graph the WordCount lines derive from.
    pub fn wordcount_scale(self) -> u64 {
        match self {
            Size::Full => 1_000,
            Size::Quick => 40_000,
        }
    }
}

/// Record ids of the JSBS payload: a seed-chosen rotation of the
/// four-digit ids, so every seed builds a different graph of exactly the
/// same size (id width shapes the string lengths).
pub fn media_ids(seed: u64, n: usize) -> Vec<u64> {
    let start = StdRng::seed_from_u64(seed).gen_range(0..9_000u64);
    (0..n as u64).map(|i| 1_000 + (start + i) % 9_000).collect()
}

/// The LiveJournal stand-in's edge list at `scale`, from the seed.
pub fn edges(seed: u64, scale: u64) -> Vec<(u64, u64)> {
    generate(GraphKind::LiveJournal, scale, seed).edges
}

/// Pseudo-text WordCount input derived from an edge list, one partition
/// per worker (harness-local copy of `skyway_bench::wordcount_lines`, so
/// the benchmark does not depend on the figure binaries' crate).
pub fn wordcount_lines(edges: &[(u64, u64)], n_workers: usize) -> Vec<Vec<String>> {
    const WORDS: [&str; 15] = [
        "data", "heap", "object", "shuffle", "spark", "skyway", "buffer", "type", "klass", "graph",
        "rank", "edge", "node", "byte", "stream",
    ];
    let word = |x: u64| WORDS[(x % WORDS.len() as u64) as usize];
    let mut parts = vec![Vec::new(); n_workers];
    for (i, &(s, d)) in edges.iter().enumerate() {
        let (a, b, c) = (word(s), word(d), word(s ^ d));
        parts[i % n_workers].push(format!("{a} {b} {c} {a}"));
    }
    parts
}

/// The plain-Rust WordCount the job's output must equal, sorted as
/// `run_wordcount` sorts.
pub fn reference_counts(lines: &[Vec<String>]) -> Vec<(String, i32)> {
    let mut m: HashMap<&str, i32> = HashMap::new();
    for line in lines.iter().flatten() {
        for tok in line.split_whitespace() {
            *m.entry(tok).or_insert(0) += 1;
        }
    }
    let mut out: Vec<(String, i32)> = m.into_iter().map(|(w, c)| (w.to_owned(), c)).collect();
    out.sort();
    out
}

/// The generator the per-iteration output checks draw their sample
/// indices from.
pub fn verify_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x5eed_0ac1e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn media_ids_keep_their_width_and_follow_the_seed() {
        let a = media_ids(1, 2_000);
        assert!(a.iter().all(|id| (1_000..10_000).contains(id)));
        assert_eq!(a, media_ids(1, 2_000));
        assert_ne!(a, media_ids(2, 2_000));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
    }

    #[test]
    fn reference_counts_every_token() {
        let e = edges(3, 100_000);
        let lines = wordcount_lines(&e, 3);
        let total: i32 = reference_counts(&lines).iter().map(|(_, c)| c).sum();
        assert_eq!(total as usize, e.len() * 4);
    }
}
