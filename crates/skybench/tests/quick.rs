//! The `--quick` plan end to end: every declared metric comes out once
//! per workload with a finite value, the output oracle is clean, and the
//! workloads separate the layers the way the README predicts. Keeps the
//! harness compiling against the public API it times.

use std::path::PathBuf;

use skybench::catalog::{self, MetricDef, Workload, END_TO_END, PER_LAYER};
use skybench::{run, Outcome, Plan};

fn plan() -> Plan {
    let mut p = Plan::quick(11);
    p.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("skybench-quick");
    p
}

fn assert_declared_once(o: &Outcome, defs: &[MetricDef]) {
    let got: Vec<&str> = o.metrics.iter().map(|(d, _)| d.name).collect();
    let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(got, want, "{}", o.workload.name());
    for (d, v) in &o.metrics {
        assert!(v.is_finite(), "{} on {}", d.name, o.workload.name());
    }
    assert_eq!(o.failed, 0, "{}", o.workload.name());
    assert!(o.attempted >= 1 && o.samples >= 1);
    // The contract's result line parses and carries the same names.
    let line = serde_json::parse_value(&o.json_line()).unwrap();
    assert_eq!(line.get("correct"), Some(&serde::Value::Bool(true)));
    let metrics = line.get("metrics").unwrap();
    assert!(want.iter().all(|n| metrics.get(n).is_some_and(|m| m.get("value").is_some())));
}

// One test: the runs share the process-wide `obs` tracer and VmHWM.
#[test]
fn quick_runs_emit_every_declared_metric() {
    let plan = plan();
    for w in Workload::ALL {
        let e2e = run(w, &plan, false).unwrap();
        assert_declared_once(&e2e, END_TO_END);
        for (d, v) in &e2e.metrics {
            assert!(*v > 0.0, "{} must never be 0 ({})", d.name, w.name());
        }

        let layers = run(w, &plan, true).unwrap();
        assert_declared_once(&layers, PER_LAYER);
        let get = |name: &str| layers.get(name).unwrap();
        assert_eq!(get("bench.failed_share"), 0.0);
        match w {
            Workload::GraphClone => {
                let ratio = get("bench.layer_sum_ratio");
                assert!((0.95..=1.05).contains(&ratio), "layer_sum_ratio {ratio}");
                assert_eq!(get("core.pipeline.inline_share"), 0.0);
                assert!(get("core.receiver.ref_fixups") > 0.0);
                assert!(get("obs.spans_per_transfer") > 0.0);
                assert!(plan.out_dir.join("trace-graph-clone.json").exists());
            }
            Workload::FlatShuffle => {
                assert_eq!(get("core.pipeline.inline_share"), 1.0);
                assert_eq!(get("core.receiver.ref_fixups"), 0.0);
                assert_eq!(get("core.pipeline.chunks"), 1.0);
            }
            Workload::ColocatedAttach => {
                for name in [
                    "core.receiver.absorb_ms",
                    "core.receiver.finish_ms",
                    "core.receiver.cards_dirtied",
                    "core.pipeline.chunks",
                ] {
                    assert_eq!(get(name), 0.0, "{name}");
                }
                assert!(get("segstore.seal_ms") > 0.0);
                assert_eq!(get("segstore.bytes_not_copied"), get("core.sender.wire_bytes"));
            }
            Workload::RecvGc => {
                assert!(get(catalog::GC_MINOR_MS) > 0.0);
                assert!(get(catalog::GC_MINOR_COUNT) > 0.0);
            }
            Workload::SparkWc => {
                assert!(get("core.serializer.ser_ms") > 0.0);
                assert!(get("sparklite.objects_transferred") > 0.0);
                assert!(get("serlab.kryo_job_p50_s") > 0.0);
            }
        }
    }
}
