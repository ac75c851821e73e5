// Fixture: an integration test. Even outside its #[test] fn, its call is no
// use for unreached-pub, so `fixture_only_tested` in ../unreached_pub.rs
// still fires.

fn read_subject() -> u32 {
    fixture_only_tested()
}

#[test]
fn reads_the_subject() {
    assert_eq!(read_subject(), 1);
}
