//! `unreached-pub`: every plain-`pub` item of library code has a caller
//! outside the tests. A `pub fn`, `struct`, `enum`, `trait`, `type`,
//! `const` or `static` in the configured subject paths (non-test
//! `crates/*/src`) that no non-test line names as a code token is surface
//! nothing runs: a knob no harness sets, a shim over another API, a
//! helper its tests outlived. The item's own declaration line, `impl`
//! headers and `use` / `pub use` lines (re-exports) are not uses; every
//! other non-test line of the tree is a root — bins, examples, other
//! library code, and frozen crates that are never subjects themselves. An item a test reads on
//! purpose (a reference implementation, a pinned signature) keeps an
//! inline waiver whose reason names what reads it.

use std::collections::HashMap;

use crate::lexer::{find_token, is_ident_char};
use crate::{allows, is_test_path, path_under, rule_allows, Config, SourceFile, Violation};

/// Item keywords a plain `pub` declaration can introduce.
const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Qualifiers that may sit between `pub` and the item keyword.
const QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern", "mut"];

/// True for files whose every line is test code for this rule: integration
/// test directories. Examples are roots here (their callers are real
/// callers), unlike the location test [`is_test_path`] other rules use.
fn is_test_file(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

/// True if `f` is a subject: its plain-`pub` items must be reached.
fn is_subject(cfg: &Config, f: &SourceFile) -> bool {
    path_under(&f.rel, &cfg.pub_paths)
        && !path_under(&f.rel, &cfg.pub_exempt)
        && !is_test_path(&f.rel)
        && !rule_allows(cfg, "unreached-pub", &f.rel)
}

/// The `(kind, name)` a plain-`pub` item declaration on this code line
/// introduces, if any (`pub(crate)` and other restricted visibilities are
/// not plain `pub`).
fn declared_item(code: &str) -> Option<(&'static str, &str)> {
    let mut rest = code.trim_start().strip_prefix("pub ")?.trim_start();
    loop {
        let word_end = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
        let word = &rest[..word_end];
        let after = rest[word_end..].trim_start();
        if let Some(kind) = ITEM_KINDS.iter().find(|k| **k == word) {
            // `const fn` / `const unsafe fn` / `static mut`: a qualifier
            // first, the item keyword after it.
            let next_end = after.find(|c: char| !is_ident_char(c)).unwrap_or(after.len());
            let next = &after[..next_end];
            if QUALIFIERS.contains(&word)
                && (ITEM_KINDS.contains(&next) || QUALIFIERS.contains(&next))
            {
                rest = after;
                continue;
            }
            let name = if *kind == "static" && next == "mut" {
                let tail = after[next_end..].trim_start();
                &tail[..tail.find(|c: char| !is_ident_char(c)).unwrap_or(tail.len())]
            } else {
                next
            };
            let named = name.starts_with(|c: char| c.is_alphabetic() || c == '_') && name != "_";
            return named.then_some((*kind, name));
        }
        if QUALIFIERS.contains(&word) {
            rest = after;
        } else if word.is_empty() && after.starts_with('"') {
            // `extern "C" fn`: the ABI string is masked to `""`.
            rest = after[2..].trim_start();
        } else {
            return None;
        }
    }
}

/// Marks the lines of `use` declarations (`use`, `pub use`,
/// `pub(crate) use`), multi-line `{..}` lists included.
fn use_lines(f: &SourceFile) -> Vec<bool> {
    let mut out = vec![false; f.lines.len()];
    let mut open = false;
    for (i, l) in f.lines.iter().enumerate() {
        let t = l.code.trim_start();
        let t = t.strip_prefix("pub").map_or(t, |r| {
            let r = r.trim_start();
            match r.strip_prefix('(') {
                Some(vis) => vis.split_once(')').map_or(r, |(_, tail)| tail.trim_start()),
                None => r,
            }
        });
        if !open && t.starts_with("use ") {
            open = true;
        }
        if open {
            out[i] = true;
            open = !l.code.contains(';');
        }
    }
    out
}

/// A use site: (file index, line index).
type Site = (usize, usize);

pub(crate) fn check(cfg: &Config, files: &[SourceFile], out: &mut Vec<Violation>) {
    if cfg.pub_paths.is_empty() {
        return;
    }
    // Every identifier token on a counted line, with up to two distinct
    // sites: enough to tell "named only on its declaration line" apart.
    let mut sites: HashMap<&str, Vec<Site>> = HashMap::new();
    for (fi, f) in files.iter().enumerate() {
        if is_test_file(&f.rel) {
            continue;
        }
        let uses = use_lines(f);
        for (li, l) in f.lines.iter().enumerate() {
            let code = l.code.trim_start();
            if l.in_test || uses[li] || code.starts_with("impl ") || code.starts_with("impl<") {
                continue;
            }
            for tok in l.code.split(|c: char| !is_ident_char(c)).filter(|t| !t.is_empty()) {
                let v = sites.entry(tok).or_default();
                if v.len() < 2 && !v.contains(&(fi, li)) {
                    v.push((fi, li));
                }
            }
        }
    }
    for (fi, f) in files.iter().enumerate() {
        if !is_subject(cfg, f) {
            continue;
        }
        for (li, l) in f.lines.iter().enumerate() {
            if l.in_test {
                continue;
            }
            let Some((kind, name)) = declared_item(&l.code) else { continue };
            let reached = sites.get(name).is_some_and(|v| v.iter().any(|s| *s != (fi, li)));
            if reached || allows(f, li, "unreached-pub") {
                continue;
            }
            out.push(Violation {
                rule: "unreached-pub",
                file: f.rel.clone(),
                line: li + 1,
                col: find_token(&l.code, name).map_or(1, |p| p + 1),
                message: format!(
                    "pub {kind} `{name}` is named by no non-test line outside its declaration \
                     and `use` lines; delete it, or waive it with a reason naming what reads it"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn declarations_parse_kind_and_name() {
        assert_eq!(declared_item("pub fn go(x: u8) {"), Some(("fn", "go")));
        assert_eq!(declared_item("    pub const fn size() -> u64 {"), Some(("fn", "size")));
        assert_eq!(declared_item("pub const unsafe fn raw() {"), Some(("fn", "raw")));
        assert_eq!(declared_item("pub unsafe fn f() {"), Some(("fn", "f")));
        assert_eq!(declared_item("pub const LIMIT: usize = 4;"), Some(("const", "LIMIT")));
        assert_eq!(declared_item("pub static mut COUNT: u32 = 0;"), Some(("static", "COUNT")));
        assert_eq!(declared_item("pub struct Buf<T> {"), Some(("struct", "Buf")));
        assert_eq!(declared_item("pub unsafe trait Send2 {}"), Some(("trait", "Send2")));
        assert_eq!(declared_item("pub type Id = u32;"), Some(("type", "Id")));
        assert_eq!(declared_item("pub extern \"\" fn cb() {"), Some(("fn", "cb")));
        assert_eq!(declared_item("pub(crate) fn hidden() {"), None);
        assert_eq!(declared_item("pub mod m;"), None);
        assert_eq!(declared_item("pub use a::b;"), None);
        assert_eq!(declared_item("pub x: u32,"), None);
        assert_eq!(declared_item("pub const _: () = ();"), None);
    }

    #[test]
    fn use_declarations_span_their_lines() {
        let f = SourceFile {
            rel: "x.rs".into(),
            lines: lex("pub use a::{\n    b,\n    c,\n};\nfn d() {}\npub(crate) use e::f;\n"),
        };
        assert_eq!(use_lines(&f), vec![true, true, true, true, false, true, false]);
    }
}
