//! `Corpus::build_count` counts corpus builds process-wide, so this test
//! lives alone in its own test binary: no sibling test can build a corpus
//! concurrently and bump the count between its two reads.

use schemachron_corpus::Corpus;

#[test]
fn build_count_increments_per_generation() {
    let before = Corpus::build_count();
    let _ = Corpus::generate_jobs(1, 2);
    let _ = Corpus::generate_jobs(1, 2);
    assert_eq!(Corpus::build_count(), before + 2);
}
