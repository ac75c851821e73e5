// Fixture: a bin, a root for unreached-pub and never its subject. Its
// `pub use` line re-exports without using; the call in `main` is a use.

pub use crate::unreached_pub::fixture_only_reexported;

fn main() {
    let _ = fixture_bin_called();
}
