// Fixture: unreached-pub must fire on lines 8, 12, 16 and 19 — a fn read
// only inside #[cfg(test)], a fn reached only through `pub use`, a const
// named nowhere, and a struct named only by its own `impl` header — and
// stay quiet on the fn the bin in unreached_pub_bin.rs calls, the waived
// fn, and the `pub(crate)` fn.

// Named only by the test module below and by tests/unreached_pub_reader.rs.
pub fn fixture_only_tested() -> u32 {
    1
}
// Named only by a `pub use` line.
pub fn fixture_only_reexported() -> u32 {
    2
}
// Named nowhere.
pub const FIXTURE_UNUSED_LIMIT: usize = 4;

// Named only by its `impl` header.
pub struct FixtureOnlyImplemented;
impl FixtureOnlyImplemented {}

pub fn fixture_bin_called() -> u32 {
    3
}

// tidy:allow(unreached-pub, read by this fixture's tests module as the reference)
pub fn fixture_waived() -> u32 {
    4
}

pub(crate) fn fixture_restricted() -> u32 {
    5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads() {
        assert_eq!(fixture_only_tested() + fixture_waived() + fixture_restricted(), 10);
    }
}
