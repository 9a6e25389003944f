//! Incremental re-classification: on a warm store, appending commit n
//! re-runs exactly one `stream-classify` chain (a stage-cache miss), and a
//! duplicate re-send of commit n re-runs none.
//!
//! The stage-cache counters are process-global, so this test has its own
//! binary.

use schemachron_corpus::pipeline::{reset_stage_stats, stage_stats_for};
use schemachron_stream::{Append, StreamStore, STREAM_STAGE};

/// Commits in the chain: n − 1 warm the store, the n-th is measured.
const N: u64 = 12;

fn commit(i: u64) -> (String, String) {
    let date = format!("20{:02}-{:02}-10", 15 + i / 12, 1 + i % 12);
    let sql = if i == 1 {
        "CREATE TABLE t (id INT, PRIMARY KEY (id));".to_owned()
    } else {
        format!("ALTER TABLE t ADD COLUMN c{i} INT;")
    };
    (date, sql)
}

/// `stream-classify` misses since the last counter reset.
fn misses() -> u64 {
    stage_stats_for(&[STREAM_STAGE])
        .first()
        .map_or(0, |s| s.misses)
}

#[test]
fn one_append_reruns_one_chain_and_a_duplicate_none() {
    let root = std::env::temp_dir().join(format!("schemachron-one-rerun-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut store = StreamStore::open(&root).expect("store opens");
    for i in 1..N {
        let (date, sql) = commit(i);
        store
            .append("rerun", i, &date, &sql)
            .expect("warm-up append");
    }

    reset_stage_stats();
    let (date, sql) = commit(N);
    let ack = store.append("rerun", N, &date, &sql).expect("append");
    assert!(matches!(ack, Append::Appended { seq: N, .. }), "{ack:?}");
    assert_eq!(misses(), 1, "one append must re-run exactly one chain");

    reset_stage_stats();
    let ack = store.append("rerun", N, &date, &sql).expect("duplicate");
    assert!(matches!(ack, Append::Duplicate { seq: N, .. }), "{ack:?}");
    assert_eq!(misses(), 0, "a duplicate re-send must re-run nothing");

    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}
