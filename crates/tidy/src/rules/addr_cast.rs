//! `addr-cast`: no raw integer casts on lines handling `Addr` values
//! outside the representation-owning modules (`mheap::layout`,
//! `mheap::mem`). Mixing absolute heap addresses and relative buffer
//! addresses is the §3.3 bug class the paper is about; a bare `as u64` /
//! `as usize` next to an `Addr` is how such mixups are born.

use crate::lexer::{find_int_cast, has_token};
use crate::{allows, is_test_path, path_under, rule_allows, Config, SourceFile, Violation};

pub(crate) fn check(cfg: &Config, f: &SourceFile, out: &mut Vec<Violation>) {
    if path_under(&f.rel, &cfg.addr_exempt)
        || rule_allows(cfg, "addr-cast", &f.rel)
        || is_test_path(&f.rel)
    {
        return;
    }
    for (i, l) in f.lines.iter().enumerate() {
        if l.in_test || allows(f, i, "addr-cast") {
            continue;
        }
        if has_token(&l.code, "Addr") {
            if let Some(p) = find_int_cast(&l.code) {
                out.push(Violation {
                    rule: "addr-cast",
                    file: f.rel.clone(),
                    line: i + 1,
                    col: p + 1,
                    message: "raw integer cast on a line handling an Addr value; use the typed \
                              helpers (Addr::raw, Addr::from_raw, Addr::byte_add)"
                        .into(),
                });
            }
        }
    }
}
