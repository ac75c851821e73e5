//! Golden tests: each fixture file provokes exactly its rule at an exact
//! file/line, the `--json`/`--sarif` output carries those coordinates, and
//! — the real CI gate — the actual workspace tree comes back clean.

use std::path::PathBuf;

use tidy::{run, to_json, to_sarif, Config, Violation};

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// A config scanning only the fixtures directory, with every policy path
/// pointed at the fixture equivalents.
fn fixture_config() -> Config {
    Config::for_fixtures(fixtures_root())
}

fn fixture_violations() -> Vec<Violation> {
    run(&fixture_config()).expect("fixture scan").violations
}

#[track_caller]
fn assert_fired(violations: &[Violation], rule: &str, file: &str, line: usize) {
    assert!(
        violations.iter().any(|v| v.rule == rule && v.file == file && v.line == line),
        "expected [{rule}] at {file}:{line}; got: {violations:#?}"
    );
}

#[test]
fn addr_cast_fires_at_exact_line() {
    let vs = fixture_violations();
    assert_fired(&vs, "addr-cast", "addr_cast.rs", 6);
    assert_eq!(vs.iter().filter(|v| v.rule == "addr-cast").count(), 1, "{vs:#?}");
}

#[test]
fn unsafe_safety_fires_at_exact_line() {
    let vs = fixture_violations();
    assert_fired(&vs, "unsafe-safety", "unsafe_no_safety.rs", 11);
    assert_eq!(vs.iter().filter(|v| v.rule == "unsafe-safety").count(), 1, "{vs:#?}");
}

#[test]
fn panic_fires_on_unwrap_expect_and_panic_only() {
    let vs = fixture_violations();
    assert_fired(&vs, "panic", "panic_unwrap.rs", 5);
    assert_fired(&vs, "panic", "panic_unwrap.rs", 6);
    assert_fired(&vs, "panic", "panic_unwrap.rs", 7);
    // The tagged line, unwrap_or, and the #[cfg(test)] module stay quiet,
    // as do the tag-demonstration lines in allow_positions.rs.
    assert_eq!(vs.iter().filter(|v| v.rule == "panic").count(), 3, "{vs:#?}");
}

#[test]
fn metric_literal_fires_per_literal() {
    let vs = fixture_violations();
    assert_fired(&vs, "metric-literal", "metric_literal.rs", 5);
    assert_fired(&vs, "metric-literal", "metric_literal.rs", 6);
    // Span names are covered by the same rule via the "trace." prefix.
    assert_fired(&vs, "metric-literal", "metric_literal.rs", 7);
    let count =
        vs.iter().filter(|v| v.rule == "metric-literal" && v.file == "metric_literal.rs").count();
    assert_eq!(count, 3, "{vs:#?}");
}

#[test]
fn dead_metric_fires_on_unused_const_only() {
    let vs = fixture_violations();
    assert_fired(&vs, "dead-metric", "names.rs", 5);
    // An unused span-name const is just as dead as an unused metric const.
    assert_fired(&vs, "dead-metric", "names.rs", 7);
    assert_eq!(vs.iter().filter(|v| v.rule == "dead-metric").count(), 2, "{vs:#?}");
}

#[test]
fn fault_coverage_fires_on_untested_variant_only() {
    let vs = fixture_violations();
    assert_fired(&vs, "fault-coverage", "faults.rs", 6);
    assert_eq!(vs.iter().filter(|v| v.rule == "fault-coverage").count(), 1, "{vs:#?}");
}

#[test]
fn addr_provenance_fires_on_unsanitized_path_only() {
    let vs = fixture_violations();
    // `bad` derefs a byte_add-born Addr; the translated and
    // bounds-checked functions stay quiet.
    assert_fired(&vs, "addr-provenance", "addr_provenance.rs", 6);
    assert_eq!(vs.iter().filter(|v| v.rule == "addr-provenance").count(), 1, "{vs:#?}");
}

#[test]
fn lock_order_fires_on_cycle_and_guard_across_send() {
    let vs = fixture_violations();
    // Both sides of the ab/ba cycle fire, at the second acquisition.
    assert_fired(&vs, "lock-order", "lock_order.rs", 14);
    assert_fired(&vs, "lock-order", "lock_order.rs", 20);
    // The guard held across the channel send fires; `fine` stays quiet.
    assert_fired(&vs, "lock-order", "lock_order.rs", 26);
    assert_eq!(vs.iter().filter(|v| v.rule == "lock-order").count(), 3, "{vs:#?}");
    let cycle = vs
        .iter()
        .find(|v| v.rule == "lock-order" && v.line == 14)
        .expect("cycle violation present");
    assert!(
        cycle.message.contains("lock_order.rs:20"),
        "cycle message cross-references the opposing site: {}",
        cycle.message
    );
}

#[test]
fn atomics_order_fires_on_relaxed_publish_and_refcount() {
    let vs = fixture_violations();
    // The Relaxed store on the acquire-read flag fires, cross-referencing
    // the acquire site; the Relaxed refcount decrement fires on its own.
    assert_fired(&vs, "atomics-order", "atomics_order.rs", 14);
    assert_fired(&vs, "atomics-order", "atomics_order.rs", 24);
    assert_eq!(vs.iter().filter(|v| v.rule == "atomics-order").count(), 2, "{vs:#?}");
    let publish = vs
        .iter()
        .find(|v| v.rule == "atomics-order" && v.line == 14)
        .expect("publish violation present");
    assert!(
        publish.message.contains("atomics_order.rs:20"),
        "publish message cross-references the acquire-side load: {}",
        publish.message
    );
    let refcount = vs
        .iter()
        .find(|v| v.rule == "atomics-order" && v.line == 24)
        .expect("refcount violation present");
    assert!(refcount.message.contains("last-reference"), "{}", refcount.message);
}

#[test]
fn atomics_order_cas_fires_on_bad_failure_orderings_only() {
    let vs = fixture_violations();
    // Failure AcqRel is not a load ordering; failure Acquire with success
    // Relaxed is stronger than the success side. `fine` stays quiet.
    assert_fired(&vs, "atomics-order-cas", "atomics_order_cas.rs", 13);
    assert_fired(&vs, "atomics-order-cas", "atomics_order_cas.rs", 18);
    assert_eq!(vs.iter().filter(|v| v.rule == "atomics-order-cas").count(), 2, "{vs:#?}");
}

#[test]
fn atomics_order_comment_fires_on_bare_non_relaxed_sites_only() {
    let vs = fixture_violations();
    // The bare Release store and bare fence fire; the same-line-commented
    // Acquire load and the Relaxed store stay quiet.
    assert_fired(&vs, "atomics-order-comment", "atomics_order_comment.rs", 13);
    assert_fired(&vs, "atomics-order-comment", "atomics_order_comment.rs", 17);
    assert_eq!(vs.iter().filter(|v| v.rule == "atomics-order-comment").count(), 2, "{vs:#?}");
}

#[test]
fn checked_arith_fires_on_bare_ops_only() {
    let vs = fixture_violations();
    assert_fired(&vs, "checked-arith", "checked_arith.rs", 5);
    assert_fired(&vs, "checked-arith", "checked_arith.rs", 6);
    // checked_/wrapping_ lines, the mask, the tagged line, and the
    // trait-bound `+` stay quiet.
    assert_eq!(vs.iter().filter(|v| v.rule == "checked-arith").count(), 2, "{vs:#?}");
}

#[test]
fn by_name_field_in_app_fires_on_literal_field_names_only() {
    let vs = fixture_violations();
    // The one-line call and the call whose literal sits lines below its
    // opening parenthesis fire; handle accessors, a non-field `get_mut`, a
    // computed field name, the tagged line and the test module stay quiet.
    assert_fired(&vs, "by-name-field-in-app", "by_name_field.rs", 6);
    assert_fired(&vs, "by-name-field-in-app", "by_name_field.rs", 7);
    assert_eq!(vs.iter().filter(|v| v.rule == "by-name-field-in-app").count(), 2, "{vs:#?}");
}

#[test]
fn unreached_pub_fires_on_items_no_non_test_line_names() {
    let vs = fixture_violations();
    // A fn read only by #[cfg(test)] code and an integration test, a fn
    // reached only through a `pub use` line, a const named nowhere and a
    // struct named only by its `impl` header fire; the fn the bin calls,
    // the waived fn and the `pub(crate)` fn stay quiet, and the bin is a
    // root, never a subject.
    assert_fired(&vs, "unreached-pub", "unreached_pub.rs", 8);
    assert_fired(&vs, "unreached-pub", "unreached_pub.rs", 12);
    assert_fired(&vs, "unreached-pub", "unreached_pub.rs", 16);
    assert_fired(&vs, "unreached-pub", "unreached_pub.rs", 19);
    assert_eq!(vs.iter().filter(|v| v.rule == "unreached-pub").count(), 4, "{vs:#?}");
}

#[test]
fn allow_tag_on_line_or_line_above_suppresses() {
    let vs = fixture_violations();
    assert!(
        vs.iter().all(|v| v.file != "allow_positions.rs"),
        "both tag placements suppress: {vs:#?}"
    );
}

#[test]
fn unknown_rule_in_allow_tag_fails_the_run() {
    let mut cfg = fixture_config();
    cfg.root = fixtures_root().join("bad_allow/unknown");
    cfg.exclude = vec![];
    let err = run(&cfg).expect_err("unknown rule must fail the run");
    assert!(err.contains("unknown rule `no-such-rule`"), "{err}");
    assert!(err.contains("unknown_rule.rs:6"), "{err}");
}

#[test]
fn missing_reason_in_allow_tag_fails_the_run() {
    let mut cfg = fixture_config();
    cfg.root = fixtures_root().join("bad_allow/reason");
    cfg.exclude = vec![];
    let err = run(&cfg).expect_err("missing reason must fail the run");
    assert!(err.contains("non-empty reason"), "{err}");
    assert!(err.contains("empty_reason.rs:6"), "{err}");
}

#[test]
fn violations_are_sorted_and_carry_columns() {
    let vs = fixture_violations();
    let keys: Vec<_> = vs.iter().map(|v| (v.file.clone(), v.line, v.rule, v.col)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "violations are sorted by (file, line, rule, col)");
    assert!(vs.iter().all(|v| v.col >= 1), "every violation has a 1-based column");
}

#[test]
fn json_output_carries_rule_file_line_col() {
    let report = run(&fixture_config()).expect("fixture scan");
    let json = to_json(&report);
    assert!(json.contains("{\"rule\": \"addr-cast\", \"file\": \"addr_cast.rs\", \"line\": 6,"));
    assert!(json.contains("{\"rule\": \"fault-coverage\", \"file\": \"faults.rs\", \"line\": 6,"));
    assert!(json.contains("\"col\": "), "JSON carries the col field");
    assert!(json.contains(&format!("\"violation_count\": {}", report.violations.len())));
}

#[test]
fn sarif_output_carries_locations() {
    let report = run(&fixture_config()).expect("fixture scan");
    let sarif = to_sarif(&report);
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert!(sarif.contains("\"ruleId\": \"addr-provenance\""));
    assert!(sarif.contains("\"uri\": \"lock_order.rs\""));
    assert!(sarif.contains("\"startLine\": 26"));
}

#[test]
fn per_rule_allowlists_suppress_by_path_prefix() {
    let mut cfg = fixture_config();
    cfg.allow.insert("panic".into(), vec!["panic_unwrap.rs".into()]);
    let vs = run(&cfg).expect("fixture scan").violations;
    assert!(vs.iter().all(|v| v.rule != "panic"), "{vs:#?}");
    // Other rules are unaffected.
    assert_fired(&vs, "addr-cast", "addr_cast.rs", 6);
}

/// The gate itself: the real workspace must scan clean under all fourteen
/// rules. This is the same check CI runs via `cargo run -p tidy -- --json`.
#[test]
fn workspace_tree_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let mut cfg = Config::for_workspace(root.clone());
    cfg.load_allowlists(&root.join("tidy.toml")).expect("tidy.toml parses");
    let report = run(&cfg).expect("workspace scan");
    assert!(report.files_checked > 50, "scanned only {} files", report.files_checked);
    assert!(
        report.violations.is_empty(),
        "workspace tree has tidy violations:\n{}",
        to_json(&report)
    );
}
