//! `BENCHMARK.json` at the repository root declares exactly what
//! `catalog.rs` declares: workloads, metrics, units, directions, bounds.

use serde::Value;
use skybench::catalog::{MetricDef, Workload, END_TO_END, PER_LAYER};

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("{key}: expected an array, got {other:?}"),
    }
}

fn assert_metrics(declared: &[Value], defs: &[MetricDef]) {
    assert_eq!(declared.len(), defs.len());
    for (j, d) in declared.iter().zip(defs) {
        assert_eq!(text(j, "name"), d.name);
        assert_eq!(text(j, "unit"), d.unit, "{}", d.name);
        assert_eq!(text(j, "better"), d.better.as_str(), "{}", d.name);
        match (j.get("bound"), d.bound) {
            (Some(Value::Float(b)), Some(bound)) => assert_eq!(*b, bound, "{}", d.name),
            (None, None) => {}
            other => panic!("{}: bound mismatch {other:?}", d.name),
        }
    }
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let doc = serde_json::parse_value(&std::fs::read_to_string(path).unwrap()).unwrap();

    let workloads = list(&doc, "workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (j, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(text(j, "name"), w.name());
        assert_eq!(text(j, "why"), w.why());
        assert!(w.why().len() <= 200 && !w.why().contains('\n'));
    }
    assert_metrics(list(&doc, "end_to_end"), END_TO_END);
    assert_metrics(list(&doc, "per_layer"), PER_LAYER);
    assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    for d in END_TO_END {
        assert!(d.bound.is_some_and(|b| b <= 0.25), "{}", d.name);
    }

    let paths: Vec<&str> = list(&doc, "paths")
        .iter()
        .map(|p| match p {
            Value::Str(s) => s.as_str(),
            other => panic!("path {other:?}"),
        })
        .collect();
    assert_eq!(paths, ["crates/skybench"]);
}

#[test]
fn modeled_figures_are_per_layer_and_labelled() {
    assert!(END_TO_END.iter().all(|d| !d.name.contains("modeled")));
    let modeled: Vec<&str> =
        PER_LAYER.iter().map(|d| d.name).filter(|n| n.ends_with(".modeled")).collect();
    assert_eq!(
        modeled,
        [
            "simnet.link_busy_ms.modeled",
            "simnet.scheduled_wall_ms.modeled",
            "sparklite.write_io_ms.modeled",
            "sparklite.read_io_ms.modeled"
        ]
    );
}
