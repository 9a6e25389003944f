//! The one query path behind both surfaces. The five history queries (the
//! schema as of a month, the diff between two months, the migration plan
//! between them, the provenance of a table or column, and the safety audit)
//! are parsed into one typed [`Query`], from a request URL or from CLI
//! argv, and answered by one [`execute`]. Every failure is a [`QueryError`],
//! whose table gives it an HTTP status, a JSON body, a CLI exit code and a
//! hint. `schemachron asof|plan|safety --format json` prints the
//! [`Response::json`] body of the same [`Answer::to_json`] value the routes
//! answer with, so the two surfaces agree byte for byte by construction.

use std::fmt;
use std::sync::Arc;

use schemachron_asof::{index_for, render as asof_render, AsOfArtifact, Provenance};
use schemachron_corpus::{Corpus, CorpusProject};
use schemachron_dialect::{
    dialect_named, refusal_hint, report, Dialect, MigrationPlan, PlanError, PlanOptions,
    UnsupportedDiffOp, DIALECT_KEYWORDS,
};
use schemachron_history::{MonthId, MonthParseError};
use schemachron_model::{Schema, SchemaDiff};
use schemachron_safety::SafetyArtifact;
use serde_json::{json, Map, Value};

use crate::http::{Request, Response};

/// CLI exit code for a query that fails for any reason but a plan refusal.
pub const EXIT_FAILURE: u8 = 1;
/// CLI exit code when a migration plan cannot be produced: the dialect
/// refused an op (rebuilds disabled) or the plan did not replay faithfully.
pub const EXIT_PLAN: u8 = 2;

/// One history query over one corpus project.
pub struct Query {
    /// The project name.
    pub project: String,
    /// The corpus seed.
    pub seed: u64,
    /// The as-of index's checkpoint spacing, in months.
    pub k: usize,
    /// What is asked.
    pub kind: Kind,
}

/// What a [`Query`] asks.
pub enum Kind {
    /// The full schema as of a month.
    Schema {
        /// The month.
        at: MonthId,
    },
    /// The attribute-level diff between the schemas of two months.
    Diff {
        /// The older month.
        from: MonthId,
        /// The newer month.
        to: MonthId,
    },
    /// The forward migration script from one month's schema to another's.
    Plan {
        /// The starting month.
        from: MonthId,
        /// The target month.
        to: MonthId,
        /// The SQL dialect the script is rendered in.
        dialect: &'static dyn Dialect,
        /// Whether ops the dialect cannot express may become table rebuilds.
        rebuild: bool,
    },
    /// Which versions introduced (and ejected) a `table` or `table.column`.
    Provenance {
        /// The table or `table.column`.
        subject: String,
    },
    /// The data-loss audit of the whole history.
    Safety,
}

/// The value of option `name` in an argument vector (`--name value`).
pub fn opt_value<'a>(args: &[&'a str], name: &str) -> Option<&'a str> {
    args.iter().position(|a| *a == name).and_then(|i| args.get(i + 1)).copied()
}

/// Whether the argument vector carries the bare flag `name`.
pub fn flag(args: &[&str], name: &str) -> bool {
    args.contains(&name)
}

/// Parses a seed parameter; `param` names it as the caller's surface spells it.
pub fn seed_param(raw: Option<&str>, param: &'static str, default: u64) -> Result<u64, QueryError> {
    raw.map_or(Ok(default), |s| {
        s.parse().map_err(|_| QueryError::BadSeed { param, got: s.to_owned() })
    })
}

fn k_param(raw: Option<&str>, param: &'static str) -> Result<usize, QueryError> {
    raw.map_or(Ok(schemachron_asof::DEFAULT_K_MONTHS), |s| {
        let k = s.parse().ok().filter(|k| *k >= 1);
        k.ok_or_else(|| QueryError::BadK { param, got: s.to_owned() })
    })
}

fn month_param(raw: Option<&str>, param: &'static str) -> Result<MonthId, QueryError> {
    let raw = raw.ok_or(QueryError::MissingMonth { param })?;
    raw.parse().map_err(|error| QueryError::BadMonth { param, error })
}

fn dialect_param(
    raw: Option<&str>,
    param: &'static str,
) -> Result<&'static dyn Dialect, QueryError> {
    raw.and_then(dialect_named)
        .ok_or_else(|| QueryError::Dialect { param, got: raw.map(str::to_owned) })
}

impl Query {
    /// The query a `GET /project/{id}/{route}[/{subject}]` request asks:
    /// `route` is `schema`, `diff`, `plan`, `provenance` or `safety`, and
    /// `captures` holds the project id and, for provenance, the subject.
    pub fn from_request(
        route: &str,
        captures: &[&str],
        req: &Request,
        default_seed: u64,
    ) -> Result<Query, QueryError> {
        let get = |key| req.query_param(key);
        let seed = seed_param(get("seed"), "seed", default_seed)?;
        let k = k_param(get("k"), "k")?;
        let kind = match route {
            "schema" => Kind::Schema { at: month_param(get("asof"), "asof")? },
            "diff" => Kind::Diff {
                from: month_param(get("from"), "from")?,
                to: month_param(get("to"), "to")?,
            },
            "plan" => Kind::Plan {
                dialect: dialect_param(get("dialect"), "dialect")?,
                from: month_param(get("from"), "from")?,
                to: month_param(get("to"), "to")?,
                rebuild: get("rebuild") != Some("no"),
            },
            "provenance" => Kind::Provenance { subject: captures[1].to_owned() },
            "safety" => Kind::Safety,
            other => unreachable!("`{other}` is not a query route"),
        };
        Ok(Query { project: captures[0].to_owned(), seed, k, kind })
    }

    /// The query `schemachron <command> <project> [options]` asks, where
    /// `command` is `plan`, `safety` or `asof` (a schema, a diff from `--at`
    /// to `--diff`, or with `--provenance` a provenance query).
    pub fn from_args(command: &str, project: &str, argv: &[&str]) -> Result<Query, QueryError> {
        let get = |key| opt_value(argv, key);
        let seed = seed_param(get("--seed"), "--seed", schemachron_bench::DEFAULT_SEED)?;
        let k = k_param(get("--k"), "--k")?;
        let kind = match (command, get("--provenance"), get("--diff")) {
            ("plan", ..) => Kind::Plan {
                dialect: dialect_param(get("--dialect"), "--dialect")?,
                from: month_param(get("--from"), "--from")?,
                to: month_param(get("--to"), "--to")?,
                rebuild: !flag(argv, "--no-rebuild"),
            },
            ("safety", ..) => Kind::Safety,
            (_, Some(subject), _) => Kind::Provenance { subject: subject.to_owned() },
            (_, None, Some(to)) => Kind::Diff {
                from: month_param(get("--at"), "--at")?,
                to: month_param(Some(to), "--diff")?,
            },
            _ => Kind::Schema { at: month_param(get("--at"), "--at")? },
        };
        Ok(Query { project: project.to_owned(), seed, k, kind })
    }
}

/// Finds `id` in the seed's corpus.
pub(crate) fn find_project<'c>(
    corpus: &'c Corpus,
    id: &str,
    seed: u64,
) -> Result<&'c CorpusProject, QueryError> {
    corpus
        .projects()
        .iter()
        .find(|p| p.card.name == id)
        .ok_or_else(|| QueryError::NoProject { project: id.to_owned(), seed })
}

/// Answers `q` over the corpus of seed `q.seed`.
pub fn execute(corpus: &Corpus, q: &Query) -> Result<Answer, QueryError> {
    let project = find_project(corpus, &q.project, q.seed)?;
    if let Kind::Safety = q.kind {
        return Ok(Answer::Safety(schemachron_safety::safety_for(&project.card, q.seed)));
    }
    let index = index_for(project, q.seed, q.k)
        .ok_or_else(|| QueryError::NoVersions { project: q.project.clone() })?;
    let schema_at = |month: MonthId| {
        let out_of_lifespan = || QueryError::OutOfLifespan { month, index: Arc::clone(&index) };
        index.schema_as_of(month).ok_or_else(out_of_lifespan)
    };
    let answer = match &q.kind {
        Kind::Schema { at } => Answer::Schema { at: *at, schema: schema_at(*at)?, index },
        Kind::Diff { from, to } => {
            let (old, new) = (schema_at(*from)?, schema_at(*to)?);
            let diff = schemachron_model::diff(&old, &new);
            Answer::Diff { from: *from, to: *to, diff, index }
        }
        Kind::Plan { from, to, dialect, rebuild } => {
            let (from_schema, to_schema) = (schema_at(*from)?, schema_at(*to)?);
            let opts = PlanOptions { allow_rebuild: *rebuild };
            let plan = schemachron_dialect::plan(&from_schema, &to_schema, *dialect, &opts)
                .map_err(QueryError::Plan)?;
            Answer::Plan { from: *from, to: *to, plan, from_schema, to_schema, index }
        }
        Kind::Provenance { subject } => {
            let (table, column) = match subject.split_once('.') {
                Some((t, c)) => (t, Some(c)),
                None => (subject.as_str(), None),
            };
            let provenance = index.provenance(table, column).ok_or_else(|| {
                QueryError::NoSubject { project: q.project.clone(), subject: subject.clone() }
            })?;
            Answer::Provenance { provenance, index }
        }
        Kind::Safety => unreachable!("answered above"),
    };
    Ok(answer)
}

/// A query's answer, rendered by the shared as-of, dialect and safety
/// renderers.
pub enum Answer {
    /// The schema as of `at`.
    Schema {
        /// The project's as-of index.
        index: Arc<AsOfArtifact>,
        /// The month.
        at: MonthId,
        /// The schema.
        schema: Arc<Schema>,
    },
    /// The diff from `from` to `to`.
    Diff {
        /// The project's as-of index.
        index: Arc<AsOfArtifact>,
        /// The older month.
        from: MonthId,
        /// The newer month.
        to: MonthId,
        /// The diff.
        diff: SchemaDiff,
    },
    /// The migration plan from `from` to `to`.
    Plan {
        /// The project's as-of index.
        index: Arc<AsOfArtifact>,
        /// The starting month.
        from: MonthId,
        /// The target month.
        to: MonthId,
        /// The planned script.
        plan: MigrationPlan,
        /// The schema the plan starts from.
        from_schema: Arc<Schema>,
        /// The schema the plan arrives at.
        to_schema: Arc<Schema>,
    },
    /// The provenance of a subject.
    Provenance {
        /// The project's as-of index.
        index: Arc<AsOfArtifact>,
        /// The subject's lineage.
        provenance: Provenance,
    },
    /// The safety audit.
    Safety(Arc<SafetyArtifact>),
}

impl Answer {
    /// The JSON answer: the route's `200` body and the CLI's `--format json`.
    pub fn to_json(&self) -> Value {
        match self {
            Answer::Schema { index, at, schema } => asof_render::schema_json(index, *at, schema),
            Answer::Diff { index, from, to, diff } => {
                asof_render::diff_json(index, *from, *to, diff)
            }
            Answer::Plan { index, from, to, plan, .. } => {
                report::plan_json(&asof_render::plan_request(index, *from, *to), plan)
            }
            Answer::Provenance { index, provenance } => {
                asof_render::provenance_json(index, provenance)
            }
            Answer::Safety(a) => schemachron_safety::render::safety_json(&a.analysis),
        }
    }

    /// The human-readable answer the CLI prints by default.
    pub fn to_human(&self) -> String {
        match self {
            Answer::Schema { index, at, schema } => asof_render::schema_human(index, *at, schema),
            Answer::Diff { index, from, to, diff } => {
                asof_render::diff_human(index, *from, *to, diff)
            }
            Answer::Plan { index, from, to, plan, .. } => {
                report::plan_human(&asof_render::plan_request(index, *from, *to), plan)
            }
            Answer::Provenance { index, provenance } => {
                asof_render::provenance_human(index, provenance)
            }
            Answer::Safety(a) => schemachron_safety::render::safety_human(&a.analysis),
        }
    }
}

/// Why a query has no answer. `param` is the failing parameter as the
/// surface spells it: `asof` in a URL, `--at` on the command line.
#[derive(Debug)]
pub enum QueryError {
    /// A seed that is not an unsigned integer.
    BadSeed {
        /// The parameter.
        param: &'static str,
        /// The rejected value.
        got: String,
    },
    /// A checkpoint spacing that is not a positive month count.
    BadK {
        /// The parameter.
        param: &'static str,
        /// The rejected value.
        got: String,
    },
    /// A required month that was not given.
    MissingMonth {
        /// The parameter.
        param: &'static str,
    },
    /// A month that is not a valid `YYYY-MM`.
    BadMonth {
        /// The parameter.
        param: &'static str,
        /// The parse failure, echoing the rejected value.
        error: MonthParseError,
    },
    /// A missing (`got: None`) or unknown dialect.
    Dialect {
        /// The parameter.
        param: &'static str,
        /// The rejected keyword.
        got: Option<String>,
    },
    /// No project of that name in the seed's corpus.
    NoProject {
        /// The project name.
        project: String,
        /// The corpus seed.
        seed: u64,
    },
    /// The project retains no schema versions to index.
    NoVersions {
        /// The project name.
        project: String,
    },
    /// A valid month outside the project's observed lifespan.
    OutOfLifespan {
        /// The month.
        month: MonthId,
        /// The project's as-of index, which knows the lifespan.
        index: Arc<AsOfArtifact>,
    },
    /// No version ever defined the provenance subject.
    NoSubject {
        /// The project name.
        project: String,
        /// The table or `table.column`.
        subject: String,
    },
    /// The dialect refused the plan, or the plan did not replay faithfully.
    Plan(PlanError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::BadSeed { param, got } => {
                write!(f, "{param} must be an unsigned integer (got `{got}`)")
            }
            QueryError::BadK { param, got } => {
                write!(f, "{param} must be a positive month count (got `{got}`)")
            }
            QueryError::MissingMonth { param } => write!(f, "missing `{param}` month parameter"),
            QueryError::BadMonth { error, .. } => error.fmt(f),
            QueryError::Dialect { param, got: None } => write!(f, "missing `{param}` parameter"),
            QueryError::Dialect { got: Some(kw), .. } => write!(f, "unknown dialect `{kw}`"),
            QueryError::NoProject { project, seed } => {
                write!(f, "no project `{project}` in the seed-{seed} corpus")
            }
            QueryError::NoVersions { project } => {
                write!(f, "{project} retains no schema versions to index")
            }
            QueryError::OutOfLifespan { month, index } => write!(
                f,
                "{month} is outside {}'s lifespan {}..{} ({} months)",
                index.project(),
                index.start(),
                index.last_month(),
                index.months()
            ),
            QueryError::NoSubject { project, subject } => {
                write!(f, "{project} never defined `{subject}`")
            }
            QueryError::Plan(e) => e.fmt(f),
        }
    }
}

impl QueryError {
    /// The error table: each error's HTTP status, CLI exit code and hint.
    fn row(&self) -> (u16, u8, Option<String>) {
        match self {
            QueryError::BadSeed { .. } | QueryError::BadK { .. } => (400, EXIT_FAILURE, None),
            QueryError::MissingMonth { param } | QueryError::BadMonth { param, .. } => (
                400,
                EXIT_FAILURE,
                Some(format!("`{param}` takes a YYYY-MM month with month 01..=12, e.g. 2009-06")),
            ),
            QueryError::Dialect { .. } => {
                (400, EXIT_FAILURE, Some(format!("expected one of {}", DIALECT_KEYWORDS.join("|"))))
            }
            QueryError::NoProject { seed, .. } => {
                (404, EXIT_FAILURE, Some(format!("GET /corpus/{seed}/projects lists valid ids")))
            }
            QueryError::NoVersions { .. } => (404, EXIT_FAILURE, None),
            QueryError::NoSubject { .. } => (
                404,
                EXIT_FAILURE,
                Some("provenance subjects are TABLE or TABLE.COLUMN".to_owned()),
            ),
            QueryError::OutOfLifespan { .. } => (422, EXIT_FAILURE, None),
            QueryError::Plan(
                PlanError::Unsupported(UnsupportedDiffOp { dialect, .. })
                | PlanError::Unfaithful { dialect, .. },
            ) => (422, EXIT_PLAN, Some(refusal_hint(dialect).to_owned())),
        }
    }

    /// The HTTP status the routes answer with.
    pub fn status(&self) -> u16 {
        self.row().0
    }

    /// The CLI's process exit code.
    pub fn exit_code(&self) -> u8 {
        self.row().1
    }

    /// The one-line remediation hint, if the error has one.
    pub fn hint(&self) -> Option<String> {
        self.row().2
    }

    /// The JSON error body: `error` (the message), the error's own fields,
    /// then `hint`. A plan failure answers with the dialect's typed shape.
    fn body(&self) -> Value {
        let fields = match self {
            QueryError::Plan(e) => return report::plan_error_json(e),
            QueryError::BadSeed { got, .. } | QueryError::BadK { got, .. } => {
                json!({"got": (got.as_str())})
            }
            QueryError::BadMonth { error, .. } => json!({"got": (error.0.as_str())}),
            QueryError::Dialect { .. } => json!({"expected": (DIALECT_KEYWORDS.to_vec())}),
            QueryError::NoProject { project, seed } => {
                json!({"id": (project.as_str()), "seed": (*seed)})
            }
            QueryError::NoVersions { project } => json!({"id": (project.as_str())}),
            QueryError::OutOfLifespan { index, .. } => json!({"lifespan": {
                "start": (index.start().to_string()),
                "last": (index.last_month().to_string()),
                "months": (index.months()),
            }}),
            QueryError::NoSubject { subject, .. } => json!({"subject": (subject.as_str())}),
            QueryError::MissingMonth { .. } => json!({}),
        };
        let mut body = Map::new();
        body.insert("error".to_owned(), Value::from(self.to_string()));
        if let Value::Object(fields) = fields {
            for (key, value) in fields {
                body.insert(key, value);
            }
        }
        if let Some(hint) = self.hint() {
            body.insert("hint".to_owned(), Value::from(hint));
        }
        Value::Object(body)
    }

    /// The error as the routes answer it.
    pub(crate) fn response(&self) -> Response {
        Response::json(self.status(), &self.body())
    }
}
