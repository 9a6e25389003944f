//! CLI ≡ HTTP for every history query. Each case is asked twice, once as
//! `schemachron asof|plan|safety --format json` and once as the matching
//! `GET /project/{id}/...` through `AppState::handle`:
//!
//! - an answer must be byte-identical on both surfaces;
//! - a failure must carry the CLI exit code and the HTTP status that the
//!   shared `QueryError` table gives that error.
//!
//! The walk covers every seed-42 project at its first, middle and last
//! month, for all five query kinds, plus a malformed month, a month outside
//! the lifespan and a project that does not exist.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use schemachron_bench::context::shared_corpus;
use schemachron_bench::DEFAULT_SEED;
use schemachron_serve::http::Request;
use schemachron_serve::query::{execute, Query, QueryError};
use schemachron_serve::AppState;

/// One query on both surfaces: the CLI argv and the HTTP target.
struct Case {
    argv: Vec<String>,
    target: String,
}

impl Case {
    fn new(argv: &[&str], target: String) -> Case {
        let mut argv: Vec<String> = argv.iter().map(|a| (*a).to_owned()).collect();
        argv.extend(["--format".to_owned(), "json".to_owned()]);
        Case { argv, target }
    }

    /// The error the shared query path gives this case, if any.
    fn expected_error(&self) -> Option<QueryError> {
        let argv: Vec<&str> = self.argv.iter().map(String::as_str).collect();
        Query::from_args(argv[0], argv[1], &argv[1..])
            .and_then(|q| execute(&shared_corpus(q.seed), &q))
            .err()
    }

    /// Runs both surfaces and checks they agree; returns the HTTP status.
    fn check(&self, state: &AppState) -> u16 {
        let mut stdout = Vec::new();
        let cli = schemachron_cli::run(&self.argv, &mut stdout);
        let http = state.handle(&Request::get(&self.target));
        if http.status == 200 {
            assert!(cli.is_ok(), "{}: {:?}", self.target, cli.err().map(|e| e.message));
            assert!(stdout == http.body, "{}: CLI and HTTP answers differ", self.target);
            return 200;
        }
        let expected = self.expected_error().unwrap_or_else(|| {
            panic!("{}: answered {} but the query succeeds", self.target, http.status)
        });
        let err = cli.expect_err(&self.target);
        assert_eq!(http.status, expected.status(), "{}", self.target);
        assert_eq!(err.code, expected.exit_code(), "{}: {}", self.target, err.message);
        assert!(stdout.is_empty(), "{}: a failed query prints no answer", self.target);
        http.status
    }
}

/// The five query kinds for `project` at month `m` (with `start` as the
/// span's other end for diff and plan), on both surfaces.
fn cases(project: &str, start: &str, m: &str, dialect: &str, table: &str) -> Vec<Case> {
    vec![
        Case::new(&["asof", project, "--at", m], format!("/project/{project}/schema?asof={m}")),
        Case::new(
            &["asof", project, "--at", start, "--diff", m],
            format!("/project/{project}/diff?from={start}&to={m}"),
        ),
        Case::new(
            &["plan", project, "--from", start, "--to", m, "--dialect", dialect],
            format!("/project/{project}/plan?from={start}&to={m}&dialect={dialect}"),
        ),
        Case::new(
            &["asof", project, "--provenance", table],
            format!("/project/{project}/provenance/{table}"),
        ),
        Case::new(&["safety", project], format!("/project/{project}/safety")),
    ]
}

#[test]
fn cli_and_http_agree_on_every_query() {
    let state = AppState::new(DEFAULT_SEED);
    let corpus = shared_corpus(DEFAULT_SEED);
    let dialects = schemachron_dialect::DIALECT_KEYWORDS;
    let mut answered = 0;
    for (i, p) in corpus.projects().iter().enumerate() {
        let name = p.card.name.as_str();
        let index =
            schemachron_asof::index_for(p, DEFAULT_SEED, schemachron_asof::DEFAULT_K_MONTHS)
                .expect("every calibrated project retains schema versions");
        let (start, last) = (index.start(), index.last_month());
        let middle = start.plus(last.months_since(start) / 2);
        for m in [start, middle, last] {
            let table = index
                .schema_as_of(m)
                .and_then(|s| s.tables().next().map(|t| t.name.as_str().to_owned()))
                .unwrap_or_else(|| "no_such_table".to_owned());
            let dialect = dialects[i % dialects.len()];
            for case in cases(name, &start.to_string(), &m.to_string(), dialect, &table) {
                answered += usize::from(case.check(&state) == 200);
            }
        }
    }
    assert!(answered > corpus.projects().len() * 12, "{answered} answers");

    // One of each failure: a malformed month and a month outside the
    // lifespan for every month-taking kind, a project that does not exist
    // for every kind, and a plan the dialect refuses.
    let p = &corpus.projects()[0];
    let name = p.card.name.as_str();
    let start = schemachron_asof::index_for(p, DEFAULT_SEED, 12).unwrap().start().to_string();
    for (m, status) in [("2009-13", 400), ("1901-01", 422)] {
        for case in &cases(name, &start, m, "pg", "no_such_table")[..3] {
            assert_eq!(case.check(&state), status, "{}", case.target);
        }
    }
    for case in cases("no-such-project", &start, &start, "pg", "t") {
        assert_eq!(case.check(&state), 404, "{}", case.target);
    }
    let refused = Case::new(
        &[
            "plan", "curated-132", "--from", "2015-12", "--to", "2017-06", "--dialect", "sqlite",
            "--no-rebuild",
        ],
        "/project/curated-132/plan?from=2015-12&to=2017-06&dialect=sqlite&rebuild=no".to_owned(),
    );
    assert_eq!(refused.check(&state), 422);
}
