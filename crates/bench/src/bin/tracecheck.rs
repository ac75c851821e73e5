//! **Trace validator** — structural checks over a Chrome trace-event JSON
//! file produced by `--trace-out` (CI's figure-smoke gate).
//!
//! Checks: the document is an object with a `traceEvents` array; every
//! complete (`ph == "X"`) event carries `name`/`ts`/`dur`/`pid`/`tid` and
//! `args` with `trace_id`/`span_id`/`parent`; no span references a parent
//! id that is neither 0 nor another span of the same trace (orphans);
//! within each `(pid, tid)` lane timestamps are monotonically
//! non-decreasing; and every event tagged with a worker lane
//! (`args.lane`, emitted by parallel-transfer workers) sits on its own
//! Perfetto row (`tid == 2 + lane` — tid 1 is the main lane, tid 2 the GC
//! row). Exits non-zero with a description on the first violation.
//!
//! Usage: `tracecheck <trace.json>`

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use serde::Value;

fn field<'a>(map: &'a Value, key: &str) -> Option<&'a Value> {
    match map {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(u) => Some(*u),
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn check(text: &str) -> Result<String, String> {
    let doc = serde_json::parse_value(text).map_err(|e| format!("JSON parse error: {e:?}"))?;
    let events = field(&doc, "traceEvents").ok_or("document has no traceEvents field")?;
    let Value::Seq(events) = events else {
        return Err("traceEvents is not an array".into());
    };

    // Pass 1: shape of every complete event; collect span ids per trace.
    let mut spans_by_trace: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    let mut complete = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = field(ev, "ph").and_then(|v| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        });
        if ph != Some("X") {
            continue;
        }
        complete += 1;
        for key in ["name", "ts", "dur", "pid", "tid"] {
            if field(ev, key).is_none() {
                return Err(format!("event {i}: complete event missing {key}"));
            }
        }
        let args = field(ev, "args").ok_or(format!("event {i}: missing args"))?;
        let trace_id = field(args, "trace_id")
            .and_then(as_u64)
            .ok_or(format!("event {i}: args.trace_id missing or not a number"))?;
        let span_id = field(args, "span_id")
            .and_then(as_u64)
            .ok_or(format!("event {i}: args.span_id missing or not a number"))?;
        if field(args, "parent").and_then(as_u64).is_none() {
            return Err(format!("event {i}: args.parent missing or not a number"));
        }
        if !spans_by_trace.entry(trace_id).or_default().insert(span_id) {
            return Err(format!("event {i}: duplicate span id {span_id} in trace {trace_id}"));
        }
        // Worker-lane events must render on the lane's own row.
        if let Some(lane) = field(args, "lane").and_then(as_u64) {
            if lane == 0 {
                return Err(format!("event {i}: args.lane present but zero (main lane)"));
            }
            let tid = field(ev, "tid").and_then(as_u64).unwrap_or(0);
            if tid != 2 + lane {
                return Err(format!(
                    "event {i}: worker lane {lane} on tid {tid} (expected {})",
                    2 + lane
                ));
            }
        }
    }
    if complete == 0 {
        return Err("trace has no complete (ph == \"X\") events".into());
    }

    // Pass 2: orphans and per-lane timestamp monotonicity.
    let mut last_ts: BTreeMap<(String, u64), f64> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = field(ev, "ph").and_then(|v| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        });
        if ph != Some("X") {
            continue;
        }
        let args = field(ev, "args").ok_or(format!("event {i}: missing args"))?;
        let trace_id = field(args, "trace_id").and_then(as_u64).unwrap_or(0);
        let parent = field(args, "parent").and_then(as_u64).unwrap_or(0);
        if parent != 0 && !spans_by_trace.get(&trace_id).is_some_and(|s| s.contains(&parent)) {
            return Err(format!(
                "event {i}: orphan span — parent {parent} not in trace {trace_id}"
            ));
        }
        let pid = field(ev, "pid")
            .map(|v| match v {
                Value::Str(s) => s.clone(),
                other => format!("{other:?}"),
            })
            .unwrap_or_default();
        let tid = field(ev, "tid").and_then(as_u64).unwrap_or(0);
        let ts =
            field(ev, "ts").and_then(as_f64).ok_or(format!("event {i}: ts is not a number"))?;
        let lane = (pid, tid);
        if let Some(&prev) = last_ts.get(&lane) {
            if ts < prev {
                return Err(format!(
                    "event {i}: ts {ts} goes backwards (lane {lane:?} was at {prev})"
                ));
            }
        }
        last_ts.insert(lane, ts);
    }

    Ok(format!(
        "trace OK: {complete} spans across {} trace(s), {} lane(s), no orphans, monotonic ts",
        spans_by_trace.len(),
        last_ts.len()
    ))
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: tracecheck <trace.json>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracecheck: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&text) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tracecheck: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
