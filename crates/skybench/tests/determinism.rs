//! The seed is the only argument that shapes inputs: one seed gives
//! bit-identical exact counts run after run, another seed gives other
//! flat-shuffle and spark-wc inputs.

use std::path::PathBuf;
use std::time::Duration;

use skybench::catalog::Workload;
use skybench::inputs::{edges, media_ids, reference_counts, wordcount_lines, Size};
use skybench::{run, Plan};

/// Counts that must repeat exactly for one seed (times never do).
const EXACT: &[&str] = &[
    "core.sender.objects",
    "core.sender.wire_bytes",
    "core.sender.header_bytes",
    "core.sender.padding_bytes",
    "core.sender.pointer_bytes",
    "core.sender.fallback_hits",
    "core.pipeline.chunks",
    "core.receiver.ref_fixups",
    "core.receiver.cards_dirtied",
    "core.receiver.classes_loaded",
    "segstore.bytes_not_copied",
    "sparklite.shuffle_bytes",
    "sparklite.objects_transferred",
];

fn plan(seed: u64) -> Plan {
    let mut p = Plan::quick(seed);
    // The exact counts come from the first transfer (or job), not from
    // how many fit a window.
    p.window = Duration::from_millis(300);
    p.warmup = Duration::from_millis(50);
    p.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("skybench-determinism");
    p
}

fn exact_counts(w: Workload, seed: u64) -> Vec<(&'static str, f64)> {
    let layers = run(w, &plan(seed), true).unwrap();
    let e2e = run(w, &plan(seed), false).unwrap();
    assert_eq!(layers.failed + e2e.failed, 0);
    let mut out: Vec<(&'static str, f64)> =
        EXACT.iter().map(|n| (*n, layers.get(n).unwrap())).collect();
    out.push(("wire_bytes_per_obj", e2e.get("wire_bytes_per_obj").unwrap()));
    out
}

// One test: the runs share the process-wide `obs` tracer.
#[test]
fn one_seed_repeats_exactly_and_another_changes_the_inputs() {
    for w in Workload::ALL {
        let first = exact_counts(w, 5);
        assert_eq!(first, exact_counts(w, 5), "{} is not deterministic", w.name());
        assert!(first.iter().any(|(_, v)| *v > 0.0));
    }

    let scale = Size::Quick.edge_scale();
    assert_eq!(edges(5, scale), edges(5, scale));
    assert_ne!(edges(5, scale), edges(6, scale));
    let wc = Size::Quick.wordcount_scale();
    let (a, b) = (wordcount_lines(&edges(5, wc), 3), wordcount_lines(&edges(6, wc), 3));
    assert_ne!(a, b);
    assert_ne!(reference_counts(&a), reference_counts(&b));
    assert_ne!(media_ids(5, 200), media_ids(6, 200));

    // A different seed moves spark-wc's shuffled bytes but not the size of
    // a flat-shuffle stream (edge records are fixed-size).
    let flat = |seed| exact_counts(Workload::FlatShuffle, seed);
    assert_eq!(flat(5), flat(6));
}
