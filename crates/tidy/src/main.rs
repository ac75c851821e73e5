//! CLI for `skyway-tidy`. Run from anywhere in the workspace:
//!
//! ```text
//! cargo run -p tidy                      # human-readable report, exit 1 on violations
//! cargo run -p tidy -- --json            # machine output for CI
//! cargo run -p tidy -- --sarif           # SARIF 2.1.0 for code-scanning upload
//! cargo run -p tidy -- --fixture-matrix  # assert each fixture trips exactly its rule
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tidy::{run, to_json, to_sarif, Config};

#[derive(Clone, Copy, PartialEq)]
enum Output {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let mut output = Output::Text;
    let mut fixture_matrix = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => output = Output::Json,
            "--sarif" => output = Output::Sarif,
            "--fixture-matrix" => fixture_matrix = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (see --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.map_or_else(find_workspace_root, Ok) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("skyway-tidy: {e}");
            return ExitCode::from(2);
        }
    };

    if fixture_matrix {
        return match run_fixture_matrix(&root) {
            Ok(summary) => {
                println!("{summary}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("skyway-tidy: fixture matrix: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut cfg = Config::for_workspace(root.clone());
    if let Err(e) = cfg.load_allowlists(&root.join("tidy.toml")) {
        eprintln!("skyway-tidy: {e}");
        return ExitCode::from(2);
    }

    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("skyway-tidy: {e}");
            return ExitCode::from(2);
        }
    };

    match output {
        Output::Json => print!("{}", to_json(&report)),
        Output::Sarif => print!("{}", to_sarif(&report)),
        Output::Text => {
            for v in &report.violations {
                println!("{}:{}:{}: [{}] {}", v.file, v.line, v.col, v.rule, v.message);
            }
            println!(
                "skyway-tidy: {} file(s) checked, {} violation(s)",
                report.files_checked,
                report.violations.len()
            );
        }
    }
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every fixture file paired with the one rule it is built to trip
/// (`None`: the fixture demonstrates suppression and must stay quiet).
const FIXTURE_RULES: &[(&str, Option<&str>)] = &[
    ("addr_cast.rs", Some("addr-cast")),
    ("addr_provenance.rs", Some("addr-provenance")),
    ("allow_positions.rs", None),
    ("atomics_order.rs", Some("atomics-order")),
    ("atomics_order_cas.rs", Some("atomics-order-cas")),
    ("atomics_order_comment.rs", Some("atomics-order-comment")),
    ("by_name_field.rs", Some("by-name-field-in-app")),
    ("checked_arith.rs", Some("checked-arith")),
    ("faults.rs", Some("fault-coverage")),
    ("lock_order.rs", Some("lock-order")),
    ("metric_literal.rs", Some("metric-literal")),
    ("names.rs", Some("dead-metric")),
    ("names_user.rs", None),
    ("panic_unwrap.rs", Some("panic")),
    ("unreached_pub.rs", Some("unreached-pub")),
    ("unreached_pub_bin.rs", None),
    ("unsafe_no_safety.rs", Some("unsafe-safety")),
];

/// Scans the fixture tree and asserts each fixture file trips exactly its
/// intended rule — no more, no less — and that no fixture on disk is
/// missing from the expectation table.
fn run_fixture_matrix(root: &Path) -> Result<String, String> {
    let dir = root.join("crates/tidy/tests/fixtures");
    if !dir.is_dir() {
        return Err(format!("{} is not a directory", dir.display()));
    }
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("reading {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.path().is_file()
            && name.ends_with(".rs")
            && !FIXTURE_RULES.iter().any(|(f, _)| *f == name)
        {
            return Err(format!("fixture {name} has no entry in the expectation table"));
        }
    }
    let report = run(&Config::for_fixtures(dir))?;
    for (file, want) in FIXTURE_RULES {
        let mut fired: Vec<&str> =
            report.violations.iter().filter(|v| v.file == *file).map(|v| v.rule).collect();
        fired.sort_unstable();
        fired.dedup();
        match want {
            Some(rule) => {
                if fired != [*rule] {
                    return Err(format!("{file}: expected exactly [{rule}], got {fired:?}"));
                }
            }
            None => {
                if !fired.is_empty() {
                    return Err(format!("{file}: expected no violations, got {fired:?}"));
                }
            }
        }
    }
    Ok(format!(
        "fixture matrix OK: {} fixtures, {} violations, each fixture trips exactly its rule",
        FIXTURE_RULES.len(),
        report.violations.len()
    ))
}

fn print_help() {
    println!("skyway-tidy: static-analysis gate for the Skyway workspace");
    println!();
    println!("USAGE: skyway-tidy [--json | --sarif] [--fixture-matrix] [--root <path>]");
    println!();
    println!("  --json            emit machine-readable JSON instead of text");
    println!("  --sarif           emit SARIF 2.1.0 for code-scanning upload");
    println!("  --fixture-matrix  assert each tests/fixtures/*.rs trips exactly its rule");
    println!("  --root <path>     workspace root (default: walk up to [workspace])");
    println!();
    println!("RULES:");
    for (id, summary) in tidy::RULES {
        println!("  {id:<16} {summary}");
    }
}

/// Walks up from the current directory to the first `Cargo.toml` declaring
/// `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read current dir: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("reading {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root found above the current directory; \
                        pass --root <path>"
                .into());
        }
    }
}
