//! `skyway-tidy`: a hand-rolled static-analysis pass over the workspace's
//! Rust sources (the `rust-lang/rust` `tidy` model — no rustc plugin, no
//! syn; a small lexer, brace-matched scopes, a per-function dataflow pass,
//! and line-oriented rules).
//!
//! Fourteen rules guard the invariants the dynamic checkers
//! (`mheap::verify`, the test suite) can only catch after the fact:
//!
//! * `addr-cast` — **address discipline.** Mixing absolute heap addresses
//!   and relative buffer addresses is the §3.3 bug class the whole paper
//!   is about; a raw `as u64`/`as usize` cast on the same line as an
//!   `Addr` value is how such mixups are born.
//! * `addr-provenance` — **address dataflow.** Within a function, an
//!   `Addr` born from `Addr::from_raw`/`byte_add`/offset arithmetic is
//!   tainted until it flows through `translate()` or a bounds check;
//!   tainted values reaching raw memory accessors are violations (the
//!   static twin of `HeapFault::DanglingRelativeAddr`).
//! * `checked-arith` — size/offset arithmetic in the representation-owning
//!   modules (`mheap::layout`, `mheap::mem`) must use `checked_*` /
//!   explicit `wrapping_*`, never bare `+`/`*`.
//! * `unsafe-safety` — every `unsafe` block/fn/impl carries a `// SAFETY:`
//!   comment (same line, or the comment block immediately above).
//! * `panic` — no `.unwrap()` / `.expect(` / `panic!` in non-test code of
//!   `crates/core` and `crates/mheap`.
//! * `lock-order` — a workspace-wide lock-acquisition graph over guard
//!   scopes; cycles are potential deadlocks, and holding a guard across a
//!   blocking channel `send`/`recv` is flagged (`guard-across-send`).
//! * `metric-literal` + `dead-metric` — **registry consistency.** Every
//!   `"skyway.*"` / `"mheap.*"` metric literal and every `"trace.*"` span
//!   name outside `crates/obs` must be an `obs::names` const reference,
//!   and every const in `obs::names` must have at least one use site.
//! * `fault-coverage` — every `HeapFault` variant appears in at least one
//!   test, so no corruption class the verifier can report goes
//!   unexercised.
//! * `atomics-order` + `atomics-order-cas` + `atomics-order-comment` —
//!   **memory-ordering discipline.** A `Relaxed` write to an atomic some
//!   other site reads with `Acquire` is a broken release-publish edge; a
//!   `Relaxed` refcount decrement gating a free can race in-flight
//!   accesses; a CAS failure ordering must be a load ordering no stronger
//!   than its success ordering; and every non-`Relaxed` ordering carries
//!   a `// ORDER:` justification (the atomic twin of `// SAFETY:`).
//! * `by-name-field-in-app` — application code reaches fields through
//!   resolved handles, never by a literal field name.
//! * `unreached-pub` — **reachable surface.** Every plain-`pub` item of
//!   library code is named by some non-test line; a knob no harness sets
//!   or a shim nothing calls is deleted, and an item a test reads on
//!   purpose carries a waiver naming that test.
//!
//! Any rule can be waived for one line with an inline `tidy:allow` comment
//! tag — on the offending line, or alone on the comment line directly
//! above — naming the rule and a non-empty justification, or for whole
//! path prefixes via `[allow]` entries in `tidy.toml`. Tags naming an
//! unknown rule, or omitting the justification, fail the whole run.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

pub mod dataflow;
pub mod lexer;
mod rules;
pub mod sarif;
pub mod scope;

pub use lexer::{has_int_cast, has_token, lex, Line, StrLit};
pub use sarif::to_sarif;

/// Rule identifiers with one-line summaries, in reporting order.
pub const RULES: &[(&str, &str)] = &[
    ("addr-cast", "no raw integer casts on Addr values outside mheap::layout/mheap::mem"),
    ("addr-provenance", "raw-born Addr values must pass translate()/a bounds check before deref"),
    (
        "checked-arith",
        "size/offset arithmetic in mheap::layout/mheap::mem uses checked_*/wrapping_*",
    ),
    ("unsafe-safety", "every unsafe block/fn/impl carries a // SAFETY: comment"),
    ("panic", "no unwrap()/expect()/panic! in non-test code of crates/core and crates/mheap"),
    ("lock-order", "no lock-acquisition cycles; no guard held across a blocking channel send/recv"),
    ("metric-literal", "metric/span name literals outside crates/obs must be obs::names consts"),
    ("dead-metric", "every obs::names const has at least one use site"),
    ("fault-coverage", "every HeapFault variant appears in at least one test"),
    (
        "atomics-order",
        "no Relaxed writes to atomics with acquire-side readers; refcount decrements use Release",
    ),
    ("atomics-order-cas", "compare_exchange failure ordering is a load ordering, <= success"),
    ("atomics-order-comment", "every non-Relaxed atomic ordering carries a // ORDER: comment"),
    (
        "by-name-field-in-app",
        "no by-name field accessor with a literal field name in crates/sparklite/src",
    ),
    ("unreached-pub", "every plain-pub item in crates/*/src is named by a non-test line"),
];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (one of [`RULES`]).
    pub rule: &'static str,
    /// Path relative to the scanned root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (approximate after string literals, whose content is
    /// masked out of the code channel).
    pub col: usize,
    /// Human-readable description of the offence.
    pub message: String,
}

/// What to scan and which policy paths apply.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root all paths are relative to.
    pub root: PathBuf,
    /// Directories (relative to root) to scan for `.rs` files.
    pub scan_dirs: Vec<String>,
    /// Path prefixes excluded from scanning entirely (fixtures, target).
    pub exclude: Vec<String>,
    /// Files allowed raw `Addr` handling (the representation owners) —
    /// exempt from both `addr-cast` and `addr-provenance`.
    pub addr_exempt: Vec<String>,
    /// Path prefixes the `panic` rule applies to.
    pub panic_paths: Vec<String>,
    /// Path prefixes the `checked-arith` rule applies to.
    pub arith_paths: Vec<String>,
    /// Path prefixes of application code the `by-name-field-in-app` rule
    /// applies to.
    pub app_paths: Vec<String>,
    /// Path prefixes exempt from `lock-order` (vendored lock shims, whose
    /// `Mutex`/`RwLock` *definitions* would otherwise register as lock
    /// classes).
    pub lock_exempt: Vec<String>,
    /// Path prefixes exempt from `metric-literal` (the registry crate
    /// itself, and this checker which must name the prefixes).
    pub metric_exempt: Vec<String>,
    /// Path prefixes exempt from the `atomics-order` family (the vendored
    /// interleaving shim, which wraps every ordering generically).
    pub atomics_exempt: Vec<String>,
    /// Path prefixes whose plain-`pub` items `unreached-pub` checks
    /// (test locations under them are never subjects).
    pub pub_paths: Vec<String>,
    /// Path prefixes under `pub_paths` that are never `unreached-pub`
    /// subjects (their lines still count as callers).
    pub pub_exempt: Vec<String>,
    /// Dotted-name prefixes that identify a metric name literal.
    pub metric_prefixes: Vec<String>,
    /// File (relative) defining the `obs::names` consts, for `dead-metric`.
    pub names_file: Option<String>,
    /// File (relative) defining `enum HeapFault`, for `fault-coverage`.
    pub fault_file: Option<String>,
    /// Per-rule path-prefix allowlists (`tidy.toml` `[allow]` section).
    pub allow: BTreeMap<String, Vec<String>>,
}

impl Config {
    /// The policy for the Skyway workspace rooted at `root`.
    pub fn for_workspace(root: PathBuf) -> Config {
        Config {
            root,
            scan_dirs: ["crates", "src", "shims", "examples", "tests"].map(String::from).to_vec(),
            exclude: vec!["crates/tidy/tests/fixtures".into()],
            addr_exempt: vec![
                "crates/mheap/src/layout.rs".into(),
                "crates/mheap/src/mem.rs".into(),
            ],
            panic_paths: vec!["crates/core/src".into(), "crates/mheap/src".into()],
            arith_paths: vec![
                "crates/mheap/src/layout.rs".into(),
                "crates/mheap/src/mem.rs".into(),
            ],
            app_paths: vec!["crates/sparklite/src".into()],
            lock_exempt: vec!["shims".into()],
            metric_exempt: vec!["crates/obs".into(), "crates/tidy".into()],
            atomics_exempt: vec!["shims".into()],
            pub_paths: vec!["crates".into()],
            // The checker's library surface exists for its own binary and
            // golden tests; the frozen benchmark crate cannot be edited.
            pub_exempt: vec!["crates/tidy".into(), "crates/skybench".into()],
            metric_prefixes: vec!["skyway.".into(), "mheap.".into(), "trace.".into()],
            names_file: Some("crates/obs/src/lib.rs".into()),
            fault_file: Some("crates/mheap/src/verify.rs".into()),
            allow: BTreeMap::new(),
        }
    }

    /// The policy for the fixture tree at `root` (used by the golden tests
    /// and the CLI's `--fixture-matrix` mode): scan everything under the
    /// root, with every policy path pointed at the fixture equivalents.
    /// The `bad_allow/` subtree — fixtures whose waiver *tags* are
    /// malformed and therefore fail the whole run — is excluded; tests
    /// scan those subdirectories with dedicated configs.
    pub fn for_fixtures(root: PathBuf) -> Config {
        Config {
            root,
            scan_dirs: vec![String::new()],
            exclude: vec!["bad_allow".into()],
            addr_exempt: vec![],
            panic_paths: vec![String::new()],
            arith_paths: vec!["checked_arith.rs".into()],
            app_paths: vec!["by_name_field.rs".into()],
            lock_exempt: vec![],
            metric_exempt: vec!["names.rs".into()],
            atomics_exempt: vec![],
            pub_paths: vec!["unreached_pub.rs".into()],
            pub_exempt: vec![],
            metric_prefixes: vec!["skyway.".into(), "mheap.".into(), "trace.".into()],
            names_file: Some("names.rs".into()),
            fault_file: Some("faults.rs".into()),
            allow: BTreeMap::new(),
        }
    }

    /// Merges `[allow]` entries from a `tidy.toml` at `path` (missing file
    /// is fine — there is simply nothing to merge).
    ///
    /// # Errors
    /// Returns a description of the first malformed line.
    pub fn load_allowlists(&mut self, path: &Path) -> Result<(), String> {
        let Ok(text) = fs::read_to_string(path) else { return Ok(()) };
        let mut in_allow = false;
        for (n, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                in_allow = line == "[allow]";
                continue;
            }
            if !in_allow {
                continue;
            }
            let (key, val) = line
                .split_once('=')
                .ok_or_else(|| format!("tidy.toml line {}: expected `rule = [..]`", n + 1))?;
            let key = key.trim().trim_matches('"').to_string();
            if !RULES.iter().any(|(id, _)| *id == key) {
                return Err(format!("tidy.toml line {}: unknown rule `{key}`", n + 1));
            }
            let val = val.trim();
            if !(val.starts_with('[') && val.ends_with(']')) {
                return Err(format!("tidy.toml line {}: expected a `[..]` array", n + 1));
            }
            let entry = self.allow.entry(key).or_default();
            for part in val[1..val.len() - 1].split(',') {
                let p = part.trim().trim_matches('"');
                if !p.is_empty() {
                    entry.push(p.to_string());
                }
            }
        }
        Ok(())
    }
}

/// A lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the scanned root, `/`-separated.
    pub rel: String,
    /// Lexed lines, index 0 = line 1.
    pub lines: Vec<lexer::Line>,
}

/// True if line `i` (0-based) of `f` is waived for `rule` by an inline
/// tag — on the line itself, or alone on the comment-only line directly
/// above.
pub(crate) fn allows(f: &SourceFile, i: usize, rule: &str) -> bool {
    if line_allows(&f.lines[i].comment, rule) {
        return true;
    }
    i > 0 && f.lines[i - 1].code.trim().is_empty() && line_allows(&f.lines[i - 1].comment, rule)
}

/// True if the comment text waives `rule` via an inline tag.
fn line_allows(comment: &str, rule: &str) -> bool {
    let mut from = 0;
    while let Some(p) = comment[from..].find(ALLOW_TAG) {
        let args = &comment[from + p + ALLOW_TAG.len()..];
        let named = args.split([',', ')']).next().unwrap_or("").trim();
        if named == rule {
            return true;
        }
        from += p + 1;
    }
    false
}

const ALLOW_TAG: &str = "tidy:allow(";

/// Validates every inline waiver tag in the tree: the named rule must
/// exist and the justification must be non-empty. A malformed waiver is a
/// run-level error — a typo'd tag that silently waives nothing (or
/// silently waives without a recorded reason) is exactly the kind of rot
/// this pass exists to stop.
fn validate_allow_tags(files: &[SourceFile]) -> Result<(), String> {
    for f in files {
        for (i, l) in f.lines.iter().enumerate() {
            let mut from = 0;
            while let Some(p) = l.comment[from..].find(ALLOW_TAG) {
                let args_start = from + p + ALLOW_TAG.len();
                from = args_start;
                let args = &l.comment[args_start..];
                let Some(close) = args.find(')') else {
                    return Err(format!(
                        "{}:{}: unterminated tidy:allow tag (missing `)`)",
                        f.rel,
                        i + 1
                    ));
                };
                let inner = &args[..close];
                let (rule, reason) = match inner.split_once(',') {
                    Some((r, why)) => (r.trim(), Some(why.trim())),
                    None => (inner.trim(), None),
                };
                if !RULES.iter().any(|(id, _)| *id == rule) {
                    return Err(format!(
                        "{}:{}: tidy:allow names unknown rule `{rule}` (known rules: {})",
                        f.rel,
                        i + 1,
                        RULES.iter().map(|(id, _)| *id).collect::<Vec<_>>().join(", ")
                    ));
                }
                match reason {
                    Some(r) if !r.is_empty() => {}
                    _ => {
                        return Err(format!(
                            "{}:{}: tidy:allow for `{rule}` needs a non-empty reason: \
                             every waiver records why the code is correct",
                            f.rel,
                            i + 1
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

pub(crate) fn path_under(rel: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| p.is_empty() || rel == p || rel.starts_with(&format!("{p}/")))
}

pub(crate) fn rule_allows(cfg: &Config, rule: &str, rel: &str) -> bool {
    cfg.allow.get(rule).is_some_and(|paths| path_under(rel, paths))
}

/// True for paths that are test/bench/example code by location.
pub(crate) fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/")
}

/// The analysis result: violations plus how many files were scanned.
#[derive(Debug)]
pub struct Report {
    /// All violations, sorted by (file, line, rule, col) and deduplicated.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_checked: usize,
}

/// Runs every rule over the configured tree.
///
/// # Errors
/// I/O failures reading the tree, and malformed inline waiver tags
/// (individual unreadable files are errors — a lint pass that silently
/// skips files is worse than none).
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for dir in &cfg.scan_dirs {
        // An empty scan dir means the root itself (fixture-test configs).
        let d = if dir.is_empty() { cfg.root.clone() } else { cfg.root.join(dir) };
        if d.is_dir() {
            collect_rs(&d, &mut paths)?;
        }
    }
    paths.sort();
    paths.dedup();

    let mut files: Vec<SourceFile> = Vec::new();
    for p in &paths {
        let rel = p
            .strip_prefix(&cfg.root)
            .map_err(|_| format!("path {} escapes root", p.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        if path_under(&rel, &cfg.exclude) {
            continue;
        }
        let text = fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
        files.push(SourceFile { rel, lines: lexer::lex(&text) });
    }

    validate_allow_tags(&files)?;

    let mut out: Vec<Violation> = Vec::new();
    for f in &files {
        rules::addr_cast::check(cfg, f, &mut out);
        rules::addr_provenance::check(cfg, f, &mut out);
        rules::checked_arith::check(cfg, f, &mut out);
        rules::by_name_field::check(cfg, f, &mut out);
        rules::unsafe_safety::check(cfg, f, &mut out);
        rules::panic::check(cfg, f, &mut out);
        rules::metrics::check_literal(cfg, f, &mut out);
    }
    rules::lock_order::check(cfg, &files, &mut out);
    rules::atomics_order::check(cfg, &files, &mut out);
    rules::metrics::check_dead(cfg, &files, &mut out);
    rules::fault_coverage::check(cfg, &files, &mut out);
    rules::unreached_pub::check(cfg, &files, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.rule, a.col).cmp(&(&b.file, b.line, b.rule, b.col)));
    out.dedup();
    Ok(Report { violations: out, files_checked: files.len() })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let p = entry.path();
        let name = entry.file_name();
        if p.is_dir() {
            if name != "target" && name != ".git" {
                collect_rs(&p, out)?;
            }
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Serializes a report as stable, machine-readable JSON.
pub fn to_json(report: &Report) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"files_checked\": {},\n", report.files_checked));
    s.push_str(&format!("  \"violation_count\": {},\n", report.violations.len()));
    s.push_str("  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \
             \"message\": \"{}\"}}",
            json_escape(v.rule),
            json_escape(&v.file),
            v.line,
            v.col,
            json_escape(&v.message)
        ));
    }
    if !report.violations.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_of(src: &str) -> SourceFile {
        SourceFile { rel: "x.rs".into(), lines: lexer::lex(src) }
    }

    #[test]
    fn inline_allow_tags_match_same_line() {
        let f = file_of("let a = v.unwrap(); // tidy:allow(panic, infallible by construction)\n");
        assert!(allows(&f, 0, "panic"));
        assert!(!allows(&f, 0, "addr-cast"));
    }

    #[test]
    fn inline_allow_tags_match_from_comment_line_above() {
        let f = file_of(
            "// tidy:allow(panic, the map is pre-populated)\nlet a = v.unwrap();\nlet b = w.unwrap();\n",
        );
        assert!(allows(&f, 1, "panic"), "tag on the comment-only line above covers the next line");
        assert!(!allows(&f, 2, "panic"), "coverage does not extend past one line");
    }

    #[test]
    fn tag_on_code_line_does_not_cover_the_next_line() {
        let f = file_of(
            "let a = v.unwrap(); // tidy:allow(panic, covered here)\nlet b = w.unwrap();\n",
        );
        assert!(allows(&f, 0, "panic"));
        assert!(!allows(&f, 1, "panic"));
    }

    #[test]
    fn unknown_rule_in_tag_is_a_run_error() {
        let files = vec![file_of("let a = 1; // tidy:allow(no-such-rule, typo)\n")];
        let err = validate_allow_tags(&files).unwrap_err();
        assert!(err.contains("unknown rule `no-such-rule`"), "{err}");
        assert!(err.contains("x.rs:1"), "{err}");
    }

    #[test]
    fn missing_or_empty_reason_is_a_run_error() {
        let missing = vec![file_of("let a = 1; // tidy:allow(panic)\n")];
        let err = validate_allow_tags(&missing).unwrap_err();
        assert!(err.contains("non-empty reason"), "{err}");

        let empty = vec![file_of("let a = 1; // tidy:allow(panic,   )\n")];
        let err = validate_allow_tags(&empty).unwrap_err();
        assert!(err.contains("non-empty reason"), "{err}");
    }

    #[test]
    fn valid_tags_pass_validation() {
        let files =
            vec![file_of("let a = v.unwrap(); // tidy:allow(panic, poisoning is fatal here)\n")];
        assert!(validate_allow_tags(&files).is_ok());
    }
}
