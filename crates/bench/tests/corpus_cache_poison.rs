//! A corpus build that panics must not poison the process-wide corpus
//! cache: later requests for other seeds still build and serve normally.
//!
//! The installed fault plan is process-global, so this test has its own
//! binary.

use std::panic::{catch_unwind, AssertUnwindSafe};

use schemachron_bench::context::shared_corpus;
use schemachron_fault as fault;

#[test]
fn failed_build_leaves_the_corpus_cache_usable() {
    // Every par_map item panics past its retries, so the build fails.
    fault::install(
        fault::FaultPlan::new(1, 1.0)
            .with_sites([fault::site::PAR_MAP_WORKER.to_owned()])
            .with_kinds([fault::FaultKind::WorkerPanic]),
    );
    // Silence the hundreds of expected injected-panic messages.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let failed = catch_unwind(AssertUnwindSafe(|| shared_corpus(9001)));
    std::panic::set_hook(hook);
    fault::clear();
    assert!(
        failed.is_err(),
        "a rate-1.0 worker-panic plan must fail the build"
    );

    let corpus = catch_unwind(AssertUnwindSafe(|| shared_corpus(9002)))
        .expect("the cache must serve builds after a failed one");
    assert_eq!(corpus.projects().len(), 151);
    // The failed seed was never published: it builds cleanly now.
    let retried = catch_unwind(AssertUnwindSafe(|| shared_corpus(9001)))
        .expect("the failed seed must build once faults are gone");
    assert_eq!(retried.projects().len(), 151);
}
