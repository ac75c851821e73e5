//! `by-name-field-in-app`: application code reaches fields through
//! resolved `mheap::FieldHandle`s, never by name. A by-name accessor
//! (`get_int`, `set_ref`, ...) with a string-literal field name in the
//! configured paths (`crates/sparklite/src`) is a hash lookup per access
//! on a path every shuffled record takes; the by-name API stays for
//! tests, examples and serializers that model reflection.

use crate::lexer::find_token_at;
use crate::{allows, is_test_path, path_under, rule_allows, Config, SourceFile, Violation};

/// `mheap`'s by-name field accessors.
const BY_NAME: &[&str] = &[
    "get_prim",
    "set_prim",
    "get_int",
    "set_int",
    "get_long",
    "set_long",
    "get_double",
    "set_double",
    "get_ref",
    "set_ref",
];

/// Lines an argument list may span before the scan gives up on it.
const MAX_CALL_LINES: usize = 8;

pub(crate) fn check(cfg: &Config, f: &SourceFile, out: &mut Vec<Violation>) {
    if !path_under(&f.rel, &cfg.app_paths)
        || rule_allows(cfg, "by-name-field-in-app", &f.rel)
        || is_test_path(&f.rel)
    {
        return;
    }
    for (i, l) in f.lines.iter().enumerate() {
        if l.in_test || allows(f, i, "by-name-field-in-app") {
            continue;
        }
        for name in BY_NAME {
            let mut from = 0;
            while let Some(p) = find_token_at(&l.code, name, from) {
                from = p + name.len();
                let method = l.code[..p].ends_with('.');
                if method && l.code[from..].starts_with('(') && literal_arg(f, i, from + 1) {
                    out.push(Violation {
                        rule: "by-name-field-in-app",
                        file: f.rel.clone(),
                        line: i + 1,
                        col: p + 1,
                        message: format!(
                            "by-name field access `{name}` with a literal field name; resolve a \
                             FieldHandle once (Vm::field_handle) and use the handle accessors"
                        ),
                    });
                }
            }
        }
    }
}

/// True if the argument list opening just before byte `at` of line `i`
/// holds a string literal (masked to `""` in the code channel) before its
/// closing parenthesis.
fn literal_arg(f: &SourceFile, i: usize, at: usize) -> bool {
    let mut depth = 1usize;
    let lines = f.lines.iter().skip(i).take(MAX_CALL_LINES);
    for (n, l) in lines.enumerate() {
        let code = if n == 0 { &l.code[at..] } else { l.code.as_str() };
        for c in code.chars() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return false;
                    }
                }
                '"' => return true,
                _ => {}
            }
        }
    }
    false
}
