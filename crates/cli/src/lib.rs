#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # schemachron-cli
//!
//! The `schemachron` command-line tool: analyze real schema-history
//! directories, generate/export the calibrated corpus, regenerate the
//! paper's experiments, and draw evolution charts.
//!
//! ```text
//! schemachron analyze <dir> [--snapshot] [--chart] [--svg <file>]
//! schemachron study <root-dir> [--snapshot]
//! schemachron diff <old.sql> <new.sql>
//! schemachron corpus generate --out <dir> [--seed N] [--jobs N]
//! schemachron corpus summary [--seed N] [--jobs N]
//! schemachron corpus csv --out <file> [--seed N] [--jobs N]
//! schemachron corpus verify
//! schemachron lint [--seed N] [--jobs N] [--format json] [--deny warnings] [--dir <dir>]
//! schemachron experiments [<id> | all] [--seed N] [--jobs N]
//! schemachron asof <project> --at YYYY-MM [--diff YYYY-MM] [--provenance SUBJ]
//! schemachron plan <project> --from YYYY-MM --to YYYY-MM --dialect pg|mysql|sqlite
//! schemachron safety <project> [--seed N] [--jobs N] [--format json]
//! schemachron serve [--addr HOST:PORT] [--seed N] [--jobs N] [--stream-dir DIR]
//! schemachron append <project> --seq N --date YYYY-MM-DD (--sql DDL | --file F) --wal-dir DIR
//! schemachron watch --dir <src> --wal-dir DIR [--project NAME] [--once]
//! schemachron chart <dir> [--snapshot]
//! schemachron chaos [--seed N] [--fault-seed N] [--rate R] [--site S]...
//! schemachron help
//! ```
//!
//! `asof`, `plan` and `safety` parse, answer and fail through the serve
//! crate's shared query path (`schemachron_serve::query`), so their
//! `--format json` output is the matching HTTP route's body byte for byte.
//!
//! The library form ([`run`]) takes the argument vector and an output sink,
//! which keeps the whole tool unit-testable.

mod chaos;
mod stream_cli;

use std::io::Write;
use std::path::{Path, PathBuf};

use schemachron_bench::context::{shared_corpus, ExpContext};
use schemachron_bench::experiments as exp;
use schemachron_chart::ascii::{render_annotated, AsciiChart};
use schemachron_chart::svg::SvgChart;
use schemachron_core::metrics::TimeMetrics;
use schemachron_core::quantize::Labels;
use schemachron_core::{classify, classify_nearest};
use schemachron_corpus::io::{load_project_dir, write_corpus_dir, write_metrics_csv};
use schemachron_corpus::Corpus;
use schemachron_history::IngestMode;
use schemachron_safety::PlanSafety;
use schemachron_serve::http::Response;
use schemachron_serve::query::{self, flag, opt_value, Answer, Query};

/// Exit code for general failures (bad arguments, missing files, ...), and
/// [`EXIT_PLAN`] for a migration plan the dialect refused or could not
/// replay faithfully; both come from the shared query error table.
pub use schemachron_serve::query::{EXIT_FAILURE, EXIT_PLAN};
/// Exit code for `serve` failing to bind its address — distinct so
/// supervisors can tell "port problem" from "bad invocation".
pub const EXIT_BIND: u8 = 2;
/// Exit code when `plan --deny-lossy` refuses a plan the safety analyzer
/// classifies as lossy — distinct from [`EXIT_PLAN`] so callers can tell
/// "the dialect cannot express this" from "the plan would destroy data".
pub const EXIT_LOSSY: u8 = 3;

/// CLI failure: message for the user plus the process exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code ([`EXIT_FAILURE`] unless a variant applies).
    pub code: u8,
}

impl CliError {
    fn new(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: EXIT_FAILURE,
        }
    }

    fn with_code(message: impl Into<String>, code: u8) -> Self {
        CliError {
            message: message.into(),
            code,
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::new(e.to_string())
    }
}

impl From<schemachron_corpus::LoadError> for CliError {
    fn from(e: schemachron_corpus::LoadError) -> Self {
        CliError::new(e.to_string())
    }
}

impl From<schemachron_corpus::SpecError> for CliError {
    fn from(e: schemachron_corpus::SpecError) -> Self {
        CliError::new(format!(
            "invalid card spec: {e}\n\
             hint: adjust the card's duration/birth/top plan until the \
             schedule is feasible (see `corpus verify`)"
        ))
    }
}

type CliResult = Result<(), CliError>;

/// Runs the CLI with `args` (excluding the program name), writing output to
/// `out`. Returns `Err` with a message on failure.
pub fn run(args: &[String], out: &mut dyn Write) -> CliResult {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("help") | Some("--help") | Some("-h") => {
            let _ = writeln!(out, "{}", usage());
            Ok(())
        }
        Some("analyze") => analyze(&args[1..], out),
        Some("study") => study(&args[1..], out),
        Some("diff") => diff_cmd(&args[1..], out),
        Some("lint") => lint(&args[1..], out),
        Some("corpus") => corpus(&args[1..], out),
        Some("experiments") => experiments(&args[1..], out),
        Some(cmd @ ("asof" | "plan" | "safety")) => query_cmd(cmd, &args[1..], out),
        Some("serve") => serve(&args[1..], out),
        Some("append") => stream_cli::run_append(&args[1..], out),
        Some("watch") => stream_cli::run_watch(&args[1..], out),
        Some("chart") => chart(&args[1..], out),
        Some("chaos") => chaos::run_chaos(&args[1..], out),
        Some(other) => Err(CliError::new(format!(
            "unknown command `{other}`\n{}",
            usage()
        ))),
    }
}

/// The usage text.
pub fn usage() -> &'static str {
    "schemachron — mining time-related patterns of schema evolution\n\
     \n\
     USAGE:\n\
     \x20 schemachron analyze <dir> [--snapshot] [--chart] [--svg <file>]\n\
     \x20     Analyze a directory of dated .sql files (NNNN_YYYY-MM-DD.sql) plus\n\
     \x20     an optional source.csv; prints metrics, labels and the pattern.\n\
     \x20 schemachron study <root-dir> [--snapshot]\n\
     \x20     Run the whole study over a directory of project histories: per-\n\
     \x20     pattern populations, exception census, birth-point probabilities.\n\
     \x20 schemachron corpus generate --out <dir> [--seed N] [--jobs N]\n\
     \x20                             [--scale N]\n\
     \x20     Materialize the 151-project corpus as SQL history directories.\n\
     \x20 schemachron corpus summary [--seed N] [--jobs N] [--scale N]\n\
     \x20     Print the corpus pattern populations.\n\
     \x20 schemachron corpus csv --out <file> [--seed N] [--jobs N]\n\
     \x20                        [--scale N]\n\
     \x20     Export the measured per-project metrics as CSV.\n\
     \x20 schemachron corpus verify\n\
     \x20     Run the static spec linter over every calibrated card (field\n\
     \x20     domains, plan feasibility, exception flags, corpus invariants)\n\
     \x20     and exit non-zero with a diagnostic summary on any error.\n\
     \x20 schemachron lint [--seed N] [--jobs N] [--format json]\n\
     \x20                  [--deny warnings] [--dir <dir>]\n\
     \x20     Statically analyze the corpus without executing the pipeline:\n\
     \x20     DDL flow (L0xx), card specs (S0xx) and stage-cache coherence\n\
     \x20     (H0xx). With --dir, lint one on-disk .sql history instead.\n\
     \x20     Exits 1 on errors (with --deny warnings, also on warnings).\n\
     \x20 schemachron experiments [<id> | all] [--seed N] [--jobs N]\n\
     \x20     Regenerate the paper's tables/figures and the beyond-paper\n\
     \x20     analyses (exp_table1 ... exp_stats63, exp_ablation, exp_tables,\n\
     \x20     exp_coevolution, exp_forecast, exp_safety).\n\
     \x20 schemachron asof <project> --at YYYY-MM [--diff YYYY-MM]\n\
     \x20                  [--provenance TABLE[.COLUMN]] [--k N] [--seed N]\n\
     \x20                  [--jobs N] [--format json]\n\
     \x20     Time-travel queries over one corpus project's history: the\n\
     \x20     schema as of a month, the attribute-level diff between --at and\n\
     \x20     --diff, or the provenance (introduction/ejection lineage) of a\n\
     \x20     table or column. --k sets the checkpoint spacing in months\n\
     \x20     (default 12). JSON output is byte-identical to the serve\n\
     \x20     routes' answers for the same query.\n\
     \x20 schemachron plan <project> --from YYYY-MM --to YYYY-MM\n\
     \x20                  --dialect pg|mysql|sqlite [--no-rebuild] [--k N]\n\
     \x20                  [--seed N] [--jobs N] [--format json]\n\
     \x20                  [--deny-lossy] [--explain-safety]\n\
     \x20     Plan the forward migration between two months of a corpus\n\
     \x20     project's history: the DDL script that evolves schema(from)\n\
     \x20     into schema(to), rendered in the chosen dialect and verified\n\
     \x20     by replaying it through that dialect's parser. Ops a dialect\n\
     \x20     cannot express become whole-table rebuilds unless\n\
     \x20     --no-rebuild is given, in which case the typed refusal is\n\
     \x20     reported and the exit code is 2. Plans that destroy data\n\
     \x20     (drops, rebuilds) always disclose it via the `lossy` field;\n\
     \x20     --deny-lossy refuses such plans with exit code 3, and\n\
     \x20     --explain-safety appends the safety classification of the\n\
     \x20     plan's worst op. JSON output is byte-identical to the serve\n\
     \x20     plan route's answer for the same query.\n\
     \x20 schemachron safety <project> [--seed N] [--jobs N] [--format json]\n\
     \x20     Static data-loss audit of one corpus project's whole history:\n\
     \x20     every migration op classified on the lossless < recoverable <\n\
     \x20     lossy lattice, with the synthesized (machine-checked) inverse\n\
     \x20     for every invertible op and the column-lineage summary. JSON\n\
     \x20     output is byte-identical to GET /project/{id}/safety.\n\
     \x20 schemachron serve [--addr HOST:PORT] [--seed N] [--jobs N]\n\
     \x20                   [--deadline-ms MS] [--stream-dir DIR]\n\
     \x20     Serve corpora, patterns and experiments over HTTP/JSON (default\n\
     \x20     address 127.0.0.1:8080; GET / lists the routes). Every request\n\
     \x20     runs behind a deadline and a per-route circuit breaker; /health\n\
     \x20     reports breaker states. POST /project/{id}/commit appends live\n\
     \x20     commits (WAL-durable before the ack) and GET /changes streams\n\
     \x20     the resulting pattern transitions; --stream-dir persists the\n\
     \x20     WALs across restarts. Honors SCHEMACHRON_FAULTS. Ctrl-C stops\n\
     \x20     gracefully.\n\
     \x20 schemachron append <project> --seq N --date YYYY-MM-DD\n\
     \x20                    (--sql DDL | --file F) --wal-dir DIR\n\
     \x20                    [--format json]\n\
     \x20     Append one commit to a project's crash-safe WAL and print the\n\
     \x20     acknowledgement (with --format json, byte-identical to the\n\
     \x20     POST /project/{id}/commit answer). Idempotent via --seq:\n\
     \x20     duplicates are safe no-ops, gaps are refused with the expected\n\
     \x20     sequence.\n\
     \x20 schemachron watch --dir <src> --wal-dir DIR [--project NAME]\n\
     \x20                   [--interval-ms MS] [--once]\n\
     \x20     Poll a directory of dated .sql files (NNNN_YYYY-MM-DD.sql) and\n\
     \x20     re-ingest new files into the streaming store, with debouncing\n\
     \x20     and bounded retries. --once runs a single scan and exits.\n\
     \x20 schemachron chaos [--seed N] [--fault-seed N] [--rate R] [--site S]...\n\
     \x20                   [--slow-ms MS] [--jobs N]\n\
     \x20     Deterministic fault drill: run ingest, materialization, goldens,\n\
     \x20     the serve guard and the streaming WAL under seed-keyed injected\n\
     \x20     faults (sites: io::write, pipeline::stage, par_map::worker,\n\
     \x20     serve::request, serve::conn, asof::checkpoint,\n\
     \x20     stream::wal_append, stream::wal_fsync, stream::feed_emit) and\n\
     \x20     assert recovery. The report is byte-identical at any --jobs\n\
     \x20     level; exits non-zero on invariant violations.\n\
     \x20 schemachron chart <dir> [--snapshot]\n\
     \x20     Draw the cumulative schema/source chart of a project directory.\n\
     \x20 schemachron diff <old.sql> <new.sql>\n\
     \x20     Parse two schema dumps and report the attribute-level changes.\n\
     \n\
     \x20 --jobs N controls the corpus-ingestion worker count — and, for\n\
     \x20 `serve`, the HTTP worker pool (default: the SCHEMACHRON_JOBS\n\
     \x20 environment variable, else available parallelism).\n\
     \x20 --scale N expands the corpus build paths to N stratified cycles of\n\
     \x20 the 151 calibrated cards (N x 151 projects) with the paper's joint\n\
     \x20 label distribution preserved exactly."
}

fn seed_of(args: &[&str]) -> Result<u64, CliError> {
    query::seed_param(opt_value(args, "--seed"), "--seed", schemachron_bench::DEFAULT_SEED)
        .map_err(|e| CliError::new(e.to_string()))
}

/// Parses `--format human|json`; true for JSON.
fn json_format(args: &[&str]) -> Result<bool, CliError> {
    match opt_value(args, "--format") {
        None | Some("human") => Ok(false),
        Some("json") => Ok(true),
        Some(other) => Err(CliError::new(format!(
            "invalid --format value `{other}` (expected `human` or `json`)"
        ))),
    }
}

/// Parses `--jobs N` and installs it as the process-wide worker count for
/// corpus generation. `N` must be a positive integer.
fn apply_jobs(args: &[&str]) -> Result<(), CliError> {
    let Some(v) = opt_value(args, "--jobs") else {
        return Ok(());
    };
    match v.parse::<std::num::NonZeroUsize>() {
        Ok(n) => {
            schemachron_corpus::set_jobs(Some(n));
            Ok(())
        }
        Err(_) => Err(CliError::new(format!(
            "invalid --jobs value `{v}` (expected a positive integer)"
        ))),
    }
}

/// Finds the first positional argument (not an option, not an option's
/// value).
fn positional<'a>(argv: &'a [&'a str]) -> Option<&'a str> {
    let mut skip_next = false;
    for a in argv {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a.starts_with("--") {
            skip_next = takes_value(a);
            continue;
        }
        return Some(a);
    }
    None
}

/// Whether option `opt` is followed by a value: every option is, except
/// the bare flags.
fn takes_value(opt: &str) -> bool {
    !matches!(
        opt,
        "--snapshot" | "--chart" | "--no-rebuild" | "--deny-lossy" | "--explain-safety" | "--once"
    )
}

/// The default `schemachron serve` listen address.
pub const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:8080";

/// Parses and validates `--addr` the same way `--jobs` is validated:
/// eagerly, with the offending value echoed back.
fn addr_of(args: &[&str]) -> Result<std::net::SocketAddr, CliError> {
    let raw = opt_value(args, "--addr").unwrap_or(DEFAULT_SERVE_ADDR);
    raw.parse().map_err(|_| {
        CliError::new(format!(
            "invalid --addr value `{raw}` (expected HOST:PORT, e.g. 127.0.0.1:8080)"
        ))
    })
}

/// `schemachron serve` — run the HTTP/JSON query service until SIGINT.
fn serve(args: &[String], out: &mut dyn Write) -> CliResult {
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let seed = seed_of(&argv)?;
    apply_jobs(&argv)?;
    let addr = addr_of(&argv)?;
    let deadline = match opt_value(&argv, "--deadline-ms") {
        None => None,
        Some(v) => match v.parse::<u64>() {
            Ok(ms) if ms > 0 => Some(std::time::Duration::from_millis(ms)),
            _ => {
                return Err(CliError::new(format!(
                    "invalid --deadline-ms value `{v}` (expected a positive integer)"
                )))
            }
        },
    };
    // Operators opt into fault injection via the environment (never a
    // default): SCHEMACHRON_FAULTS="rate=0.05;seed=7;sites=serve::request".
    let faults_active = schemachron_fault::install_from_env().map_err(CliError::new)?;
    let mut config = schemachron_serve::ServerConfig {
        addr,
        jobs: schemachron_corpus::effective_jobs().max(2),
        seed,
        ..schemachron_serve::ServerConfig::default()
    };
    if let Some(d) = deadline {
        config.request_deadline = d;
    }
    config.stream_dir = opt_value(&argv, "--stream-dir").map(PathBuf::from);
    let jobs = config.jobs;
    let server = schemachron_serve::Server::bind(config).map_err(|e| bind_error(addr, &e))?;
    server.install_signal_handler();
    let _ = writeln!(
        out,
        "serving on http://{} (seed {seed}, {jobs} workers); GET / lists routes; Ctrl-C stops",
        server.local_addr()
    );
    if faults_active {
        let _ = writeln!(
            out,
            "fault injection ACTIVE from {} — not for production traffic",
            schemachron_fault::ENV_VAR
        );
    }
    out.flush()?;
    let served = server.run()?;
    let _ = writeln!(out, "shut down after {served} requests");
    Ok(())
}

/// Maps a bind failure to [`EXIT_BIND`] with a one-line actionable hint.
fn bind_error(addr: std::net::SocketAddr, e: &std::io::Error) -> CliError {
    use std::io::ErrorKind;
    let hint = match e.kind() {
        ErrorKind::AddrInUse => {
            "hint: the address is already in use — is another `schemachron serve` \
             running? Pick a free port with --addr"
        }
        ErrorKind::PermissionDenied => {
            "hint: permission denied — ports below 1024 need elevated privileges; \
             pick a higher port with --addr"
        }
        ErrorKind::AddrNotAvailable => {
            "hint: that address does not belong to this machine — try 127.0.0.1 or 0.0.0.0"
        }
        _ => "hint: check the --addr value",
    };
    CliError::with_code(format!("serve: cannot bind {addr}: {e}\n{hint}"), EXIT_BIND)
}

fn analyze(args: &[String], out: &mut dyn Write) -> CliResult {
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let dir = positional(&argv).ok_or_else(|| CliError::new("analyze: missing <dir>"))?;
    let mode = if flag(&argv, "--snapshot") {
        IngestMode::Snapshot
    } else {
        IngestMode::Migration
    };
    let project =
        load_project_dir(Path::new(dir), mode).map_err(|e| CliError::new(format!("{dir}: {e}")))?;
    let Some(metrics) = TimeMetrics::from_project(&project) else {
        let _ = writeln!(out, "{}: no schema activity found", project.name());
        return Ok(());
    };
    let labels = Labels::from_metrics(&metrics);
    let _ = writeln!(out, "project: {}", project.name());
    let _ = writeln!(out, "{}", render_metrics(&metrics, &labels));
    match classify(&labels) {
        Some(p) => {
            let _ = writeln!(out, "pattern: {} (family: {})", p.name(), p.family());
        }
        None => {
            let (p, v) = classify_nearest(&labels);
            let _ = writeln!(
                out,
                "pattern: no strict match; nearest is {} (violation weight {v}) — an exception profile",
                p.name()
            );
        }
    }
    if flag(&argv, "--chart") {
        let art = render_annotated(
            &AsciiChart::default(),
            &project,
            metrics.birth_pct_pup,
            metrics.topband_pct_pup,
            metrics.has_single_vault,
        );
        let _ = writeln!(out, "\n{art}");
    }
    if let Some(svg_path) = opt_value(&argv, "--svg") {
        std::fs::write(svg_path, SvgChart::default().render(&project))?;
        let _ = writeln!(out, "SVG written to {svg_path}");
    }
    Ok(())
}

/// Renders the measured metrics and labels as an aligned block.
pub fn render_metrics(m: &TimeMetrics, l: &Labels) -> String {
    format!(
        "  PUP:                    {} months\n\
         \x20 schema birth:           month {} ({:.1}% of PUP) [{}]\n\
         \x20 volume at birth:        {:.1}% of total activity [{}]\n\
         \x20 top band (90%):         month {} ({:.1}% of PUP) [{}]\n\
         \x20 interval birth→top:     {:.1}% of PUP [{}]{}\n\
         \x20 interval top→end:       {:.1}% of PUP [{}]\n\
         \x20 active growth months:   {} [{} of growth, {} of PUP]\n\
         \x20 total activity:         {:.0} affected attributes ({} expansion / {} maintenance)",
        m.pup_months,
        m.birth_index,
        m.birth_pct_pup * 100.0,
        l.birth_point.label(),
        m.birth_volume_pct_total * 100.0,
        l.birth_volume.label(),
        m.topband_index,
        m.topband_pct_pup * 100.0,
        l.topband_point.label(),
        m.interval_birth_to_top_pct * 100.0,
        l.interval_birth_to_top.label(),
        if m.has_single_vault {
            " — a VAULT"
        } else {
            ""
        },
        m.interval_top_to_end_pct * 100.0,
        l.interval_top_to_end.label(),
        m.active_growth_months,
        l.active_growth.label(),
        l.active_pup.label(),
        m.total_activity,
        m.expansion_total,
        m.maintenance_total,
    )
}

/// Runs the whole study over a directory of project-history directories —
/// the shape `corpus generate` writes, and the shape a miner of real
/// repositories would produce.
fn study(args: &[String], out: &mut dyn Write) -> CliResult {
    use schemachron_core::predict::{BirthBucket, BirthPredictor};
    use schemachron_core::{Family, Pattern};

    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let root = positional(&argv).ok_or_else(|| CliError::new("study: missing <root-dir>"))?;
    let mode = if flag(&argv, "--snapshot") {
        IngestMode::Snapshot
    } else {
        IngestMode::Migration
    };

    let mut dirs: Vec<std::path::PathBuf> = std::fs::read_dir(root)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    if dirs.is_empty() {
        return Err(CliError::new(format!(
            "study: no project directories under {root}"
        )));
    }

    let mut populations: std::collections::BTreeMap<Pattern, usize> = Default::default();
    let mut exceptions: Vec<(String, Pattern)> = Vec::new();
    let mut birth_data: Vec<(usize, Pattern)> = Vec::new();
    let mut skipped = 0usize;
    for dir in &dirs {
        let project = match load_project_dir(dir, mode) {
            Ok(p) => p,
            Err(_) => {
                skipped += 1;
                continue;
            }
        };
        let Some(metrics) = TimeMetrics::from_project(&project) else {
            skipped += 1;
            continue;
        };
        // The study excludes projects with a lifespan of 12 months or less.
        if metrics.pup_months <= 12 {
            skipped += 1;
            continue;
        }
        let labels = Labels::from_metrics(&metrics);
        let pattern = match classify(&labels) {
            Some(p) => p,
            None => {
                let (p, _) = classify_nearest(&labels);
                exceptions.push((project.name().to_owned(), p));
                p
            }
        };
        *populations.entry(pattern).or_insert(0) += 1;
        birth_data.push((metrics.birth_index, pattern));
    }

    let total: usize = populations.values().sum();
    let _ = writeln!(out, "study over {total} projects ({skipped} skipped):\n");
    for family in Family::ALL {
        let members: usize = Pattern::ALL
            .iter()
            .filter(|p| p.family() == family)
            .map(|p| populations.get(p).copied().unwrap_or(0))
            .sum();
        let _ = writeln!(out, "{} — {members} projects", family.name());
        for p in Pattern::ALL.iter().filter(|p| p.family() == family) {
            let _ = writeln!(
                out,
                "    {:<18} {:>4}",
                p.name(),
                populations.get(p).copied().unwrap_or(0)
            );
        }
    }
    if !exceptions.is_empty() {
        let _ = writeln!(out, "\nexception profiles (assigned to nearest pattern):");
        for (name, p) in &exceptions {
            let _ = writeln!(out, "    {name} → {}", p.name());
        }
    }
    let predictor = BirthPredictor::fit(&birth_data);
    let _ = writeln!(out, "\nP(sharp focused change | point of birth):");
    for bucket in BirthBucket::ALL {
        let _ = writeln!(
            out,
            "    {:<20} {:>3.0}%  ({} projects)",
            bucket.label(),
            predictor.rigidity_probability(bucket) * 100.0,
            predictor.bucket_total(bucket)
        );
    }
    Ok(())
}

/// Parses `--scale N` (stratified cycles of the 151 cards; default 1).
fn scale_of(args: &[&str]) -> Result<usize, CliError> {
    match opt_value(args, "--scale") {
        None => Ok(1),
        Some(v) => match v.parse::<std::num::NonZeroUsize>() {
            Ok(n) => Ok(n.get()),
            Err(_) => Err(CliError::new(format!(
                "--scale: expected a positive integer (whole 151-card cycles), got `{v}`"
            ))),
        },
    }
}

/// Builds the corpus the `corpus` subcommands operate on: the calibrated
/// 151 projects, or `scale` stratified cycles of them under `--scale`.
fn corpus_at_scale(seed: u64, scale: usize) -> Corpus {
    if scale == 1 {
        Corpus::generate(seed)
    } else {
        Corpus::generate_stratified(seed, scale)
    }
}

fn corpus(args: &[String], out: &mut dyn Write) -> CliResult {
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let seed = seed_of(&argv)?;
    apply_jobs(&argv)?;
    let scale = scale_of(&argv)?;
    match argv.first() {
        Some(&"generate") => {
            let dir = opt_value(&argv, "--out")
                .ok_or_else(|| CliError::new("corpus generate: missing --out <dir>"))?;
            let c = corpus_at_scale(seed, scale);
            write_corpus_dir(&c, Path::new(dir))?;
            write_metrics_csv(&c, &PathBuf::from(dir).join("metrics.csv"))?;
            let _ = writeln!(
                out,
                "wrote {} project histories (+ metrics.csv) to {dir}",
                c.projects().len()
            );
            Ok(())
        }
        Some(&"summary") => {
            let c = corpus_at_scale(seed, scale);
            let _ = writeln!(out, "corpus seed {seed}: {} projects", c.projects().len());
            for p in schemachron_core::Pattern::ALL {
                let n = c.of_pattern(p).count();
                let exceptions = c.of_pattern(p).filter(|x| x.exception).count();
                let _ = writeln!(
                    out,
                    "  {:<18} {:>3} projects  ({} exceptions)",
                    p.name(),
                    n,
                    exceptions
                );
            }
            Ok(())
        }
        Some(&"csv") => {
            let file = opt_value(&argv, "--out")
                .ok_or_else(|| CliError::new("corpus csv: missing --out <file>"))?;
            let c = corpus_at_scale(seed, scale);
            write_metrics_csv(&c, Path::new(file))?;
            let _ = writeln!(
                out,
                "wrote metrics of {} projects to {file}",
                c.projects().len()
            );
            Ok(())
        }
        Some(&"verify") => {
            let cards = schemachron_corpus::cards::all_cards();
            let mut report = schemachron_lint::Report::new();
            for card in &cards {
                schemachron_lint::spec::lint_card(card, &mut report);
            }
            schemachron_lint::spec::lint_corpus_invariants(&cards, &mut report);
            report.sort();
            if report.failed(false) {
                return Err(CliError::new(format!(
                    "{}corpus verify failed ({})\n\
                     hint: every finding leads with its rule code — fix the \
                     named card spec or corpus aggregate",
                    report.render_human(),
                    report.summary_line()
                )));
            }
            let _ = writeln!(
                out,
                "verified {} cards: {}",
                cards.len(),
                report.summary_line()
            );
            Ok(())
        }
        _ => Err(CliError::new(
            "corpus: expected `generate`, `summary`, `csv` or `verify`",
        )),
    }
}

/// `schemachron lint` — static semantic analysis of the corpus (or one
/// on-disk history) without executing the measurement pipeline.
fn lint(args: &[String], out: &mut dyn Write) -> CliResult {
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let seed = seed_of(&argv)?;
    apply_jobs(&argv)?;
    let json = json_format(&argv)?;
    let deny_warnings = match opt_value(&argv, "--deny") {
        None => false,
        Some("warnings") => true,
        Some(other) => {
            return Err(CliError::new(format!(
                "invalid --deny value `{other}` (expected `warnings`)"
            )))
        }
    };
    let report = if let Some(dir) = opt_value(&argv, "--dir") {
        let mut r = schemachron_lint::Report::new();
        schemachron_lint::lint_dir(Path::new(dir), &mut r)
            .map_err(|e| CliError::new(format!("lint: cannot read `{dir}`: {e}")))?;
        r
    } else {
        let cards = schemachron_corpus::cards::all_cards();
        let opts = schemachron_lint::LintOptions {
            seed,
            ..schemachron_lint::LintOptions::default()
        };
        schemachron_lint::lint_cards(&cards, &opts)
    };
    let rendered = if json {
        report.render_json()
    } else {
        report.render_human()
    };
    let _ = write!(out, "{rendered}");
    if report.failed(deny_warnings) {
        return Err(CliError::new(format!("lint: {}", report.summary_line())));
    }
    Ok(())
}

/// The valid experiment ids, in paper order (re-exported from the bench
/// crate's registry — the single source also behind `schemachron serve`).
pub use schemachron_bench::experiments::EXPERIMENT_IDS;

fn experiments(args: &[String], out: &mut dyn Write) -> CliResult {
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let seed = seed_of(&argv)?;
    apply_jobs(&argv)?;
    let which = positional(&argv).unwrap_or("all");
    // Validate the id before paying for the corpus build.
    if which != "all" && !EXPERIMENT_IDS.contains(&which) {
        return Err(CliError::new(format!(
            "unknown experiment `{which}`; valid ids: {} or `all`",
            EXPERIMENT_IDS.join(", ")
        )));
    }
    let ctx = ExpContext::new(seed);
    if which == "all" {
        for id in EXPERIMENT_IDS {
            let (text, _json) = exp::run_experiment(id, &ctx).expect("known id");
            let _ = writeln!(out, "{text}");
            let _ = writeln!(out, "{}", "=".repeat(78));
        }
    } else {
        let (text, _json) = exp::run_experiment(which, &ctx).expect("validated above");
        let _ = writeln!(out, "{text}");
    }
    Ok(())
}

/// `schemachron asof|plan|safety` — one history query through the shared
/// query path. `--format json` prints the body the matching serve route
/// answers with, byte for byte; `plan --deny-lossy` and `--explain-safety`
/// post-process the plan answer here, on the CLI only.
fn query_cmd(command: &str, args: &[String], out: &mut dyn Write) -> CliResult {
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    apply_jobs(&argv)?;
    let json = json_format(&argv)?;
    let project = positional(&argv)
        .ok_or_else(|| CliError::new(format!("{command}: missing <project> name")))?;
    let answer = Query::from_args(command, project, &argv)
        .and_then(|q| query::execute(&shared_corpus(q.seed), &q))
        .map_err(|e| {
            let hint = e.hint().map(|h| format!("\nhint: {h}")).unwrap_or_default();
            CliError::with_code(format!("{command}: {e}{hint}"), e.exit_code())
        })?;
    let safety = plan_safety(&answer, &argv)?;
    if json {
        let mut v = answer.to_json();
        if let (Some(s), serde_json::Value::Object(map)) = (&safety, &mut v) {
            map.insert(
                "safety".to_owned(),
                serde_json::json!({
                    "class": (s.safety.tag()),
                    "offender": (s.offender.clone()),
                    "reason": (s.reason.clone()),
                }),
            );
        }
        out.write_all(&Response::json(200, &v).body)?;
    } else {
        let _ = write!(out, "{}", answer.to_human());
        let _ = match safety {
            Some(PlanSafety { safety, offender: Some(offender), reason: Some(reason) }) => {
                writeln!(out, "safety: {} — worst op `{offender}`: {reason}", safety.tag())
            }
            Some(s) => {
                let class = s.safety.tag();
                writeln!(out, "safety: {class} — every op is invertible from schema alone")
            }
            None => Ok(()),
        };
    }
    Ok(())
}

/// The safety class `plan --deny-lossy` / `--explain-safety` ask for, or
/// `None` when neither flag is given. It covers the plan as rendered: a
/// rebuild fallback is reclassified (DROP + CREATE is always lossy), not
/// judged by the in-place ops it absorbed. A lossy plan under
/// `--deny-lossy` is refused with [`EXIT_LOSSY`].
fn plan_safety(answer: &Answer, argv: &[&str]) -> Result<Option<PlanSafety>, CliError> {
    let (deny, explain) = (flag(argv, "--deny-lossy"), flag(argv, "--explain-safety"));
    let Answer::Plan { plan, from_schema, to_schema, .. } = answer else {
        return Ok(None);
    };
    if !deny && !explain {
        return Ok(None);
    }
    let ops = schemachron_dialect::diff_ops(from_schema, to_schema);
    let s = schemachron_safety::classify_plan(plan, &ops, from_schema);
    if deny && s.safety == schemachron_safety::Safety::Lossy {
        let offender = s.offender.as_deref().unwrap_or("(plan)");
        let reason = s.reason.as_deref().unwrap_or("the plan destroys data");
        return Err(CliError::with_code(
            format!(
                "plan: lossy plan denied: `{offender}` — {reason}\n\
                 hint: drop --deny-lossy to accept the data loss, or plan a \
                 narrower month span that avoids the destructive op"
            ),
            EXIT_LOSSY,
        ));
    }
    Ok(explain.then_some(s))
}

/// Diffs two schema dumps and reports the paper's change taxonomy.
fn diff_cmd(args: &[String], out: &mut dyn Write) -> CliResult {
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let files: Vec<&str> = argv
        .iter()
        .filter(|a| !a.starts_with("--"))
        .copied()
        .collect();
    let [old_path, new_path] = files.as_slice() else {
        return Err(CliError::new("diff: expected exactly two .sql files"));
    };
    let load = |path: &str| -> Result<schemachron_model::Schema, CliError> {
        let sql =
            std::fs::read_to_string(path).map_err(|e| CliError::new(format!("{path}: {e}")))?;
        let (schema, diags) = schemachron_ddl::parse_schema(&sql);
        for d in diags.iter().filter(|d| d.is_error()) {
            let _ = writeln!(std::io::stderr(), "{path}: {d}");
        }
        Ok(schema)
    };
    let old = load(old_path)?;
    let new = load(new_path)?;

    let os = old.stats();
    let ns = new.stats();
    let _ = writeln!(
        out,
        "{old_path}: {} tables, {} attributes, {} FKs",
        os.tables, os.attributes, os.foreign_keys
    );
    let _ = writeln!(
        out,
        "{new_path}: {} tables, {} attributes, {} FKs\n",
        ns.tables, ns.attributes, ns.foreign_keys
    );

    let d = schemachron_model::diff(&old, &new);
    if d.is_empty() {
        let _ = writeln!(out, "no logical-level changes");
        return Ok(());
    }
    for t in &d.tables_added {
        let _ = writeln!(out, "+ table {t}");
    }
    for t in &d.tables_dropped {
        let _ = writeln!(out, "- table {t}");
    }
    for c in &d.changes {
        let _ = writeln!(out, "  {}.{}  [{}]", c.table, c.attribute, c.kind.label());
    }
    let _ = writeln!(
        out,
        "\n{} affected attributes ({} expansion, {} maintenance)",
        d.attribute_change_count(),
        d.expansion_count(),
        d.maintenance_count()
    );
    Ok(())
}

fn chart(args: &[String], out: &mut dyn Write) -> CliResult {
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let dir = positional(&argv).ok_or_else(|| CliError::new("chart: missing <dir>"))?;
    let mode = if flag(&argv, "--snapshot") {
        IngestMode::Snapshot
    } else {
        IngestMode::Migration
    };
    let project = load_project_dir(Path::new(dir), mode)?;
    let _ = writeln!(out, "{}", AsciiChart::default().render(&project));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(args: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        let mut buf = Vec::new();
        run(&argv, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn help_prints_usage() {
        let s = run_to_string(&["help"]).unwrap();
        assert!(s.contains("USAGE"));
        let s2 = run_to_string(&[]).unwrap();
        assert!(s2.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_to_string(&["bogus"]).is_err());
    }

    #[test]
    fn corpus_summary_lists_patterns() {
        let s = run_to_string(&["corpus", "summary"]).unwrap();
        assert!(s.contains("Flatliner"));
        assert!(s.contains("151 projects"));
        assert!(s.contains("Smoking Funnel"));
    }

    #[test]
    fn corpus_subcommand_validation() {
        assert!(run_to_string(&["corpus"]).is_err());
        assert!(run_to_string(&["corpus", "generate"]).is_err()); // no --out
        assert!(run_to_string(&["corpus", "summary", "--seed", "abc"]).is_err());
    }

    #[test]
    fn corpus_verify_accepts_calibrated_cards() {
        let s = run_to_string(&["corpus", "verify"]).unwrap();
        assert!(s.contains("verified 151 cards"), "{s}");
    }

    #[test]
    fn lint_pristine_corpus_passes_deny_warnings() {
        let s = run_to_string(&["lint", "--deny", "warnings"]).unwrap();
        assert!(s.contains("0 errors, 0 warnings"), "{s}");
    }

    #[test]
    fn lint_json_is_byte_identical_across_jobs() {
        let a = run_to_string(&["lint", "--format", "json", "--jobs", "1"]).unwrap();
        let b = run_to_string(&["lint", "--format", "json", "--jobs", "8"]).unwrap();
        schemachron_corpus::set_jobs(None);
        assert_eq!(a, b);
        assert!(a.trim_start().starts_with('{'), "{a}");
    }

    #[test]
    fn lint_flag_validation() {
        assert!(run_to_string(&["lint", "--format", "xml"]).is_err());
        assert!(run_to_string(&["lint", "--deny", "notes"]).is_err());
        assert!(run_to_string(&["lint", "--dir", "/no/such/dir-schemachron"]).is_err());
    }

    #[test]
    fn lint_dir_mode_reports_flow_findings() {
        let dir = std::env::temp_dir().join(format!("schemachron-cli-lint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("0001_2020-01-10.sql"), "DROP TABLE t;").unwrap();
        std::fs::write(dir.join("0002_2020-02-10.sql"), "CREATE TABLE t (a INT);").unwrap();
        let argv: Vec<String> = ["lint", "--dir", dir.to_str().unwrap()]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let mut buf = Vec::new();
        let err = run(&argv, &mut buf).expect_err("drop-before-create must fail the lint");
        std::fs::remove_dir_all(&dir).unwrap();
        let out = String::from_utf8(buf).unwrap();
        assert!(out.contains("L003"), "{out}");
        assert!(out.contains("0001_2020-01-10.sql:1"), "{out}");
        assert!(err.message.contains("1 error"), "{}", err.message);
    }

    #[test]
    fn spec_error_converts_with_hint() {
        let card = schemachron_corpus::cards::all_cards().remove(0);
        let bad = schemachron_corpus::Card { duration: 6, ..card };
        let spec_err = bad.try_schedule().expect_err("6-month card is too short");
        let cli_err = CliError::from(spec_err);
        assert_eq!(cli_err.code, EXIT_FAILURE);
        assert!(cli_err.message.contains("duration"), "{}", cli_err.message);
        assert!(cli_err.message.contains("hint:"), "{}", cli_err.message);
    }

    #[test]
    fn jobs_flag_validation() {
        for bad in ["0", "-2", "abc", "1.5", ""] {
            let err = run_to_string(&["corpus", "summary", "--jobs", bad])
                .expect_err(&format!("--jobs {bad} should be rejected"));
            assert!(err.message.contains("--jobs"), "{}", err.message);
        }
        // A valid count is accepted and the summary still comes out right.
        let s = run_to_string(&["corpus", "summary", "--jobs", "2"]).unwrap();
        assert!(s.contains("151 projects"));
        // Restore auto-detection for other tests in this process.
        schemachron_corpus::set_jobs(None);
    }

    #[test]
    fn usage_documents_jobs_flag() {
        assert!(usage().contains("--jobs"));
        assert!(usage().contains("--addr"));
        assert!(usage().contains("serve"));
    }

    #[test]
    fn serve_addr_flag_validation() {
        for bad in ["localhost", "127.0.0.1", ":8080", "999.0.0.1:80", ""] {
            let err = run_to_string(&["serve", "--addr", bad])
                .expect_err(&format!("--addr {bad} should be rejected"));
            assert!(err.message.contains("--addr"), "{}", err.message);
            assert_eq!(err.code, EXIT_FAILURE, "{}", err.message);
        }
    }

    #[test]
    fn serve_bind_failure_is_exit_bind_with_hint() {
        // Occupy a port, then ask the CLI to serve on it.
        let blocker = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = blocker.local_addr().unwrap().to_string();
        let err = run_to_string(&["serve", "--addr", &addr])
            .expect_err("bind on an occupied port must fail");
        assert_eq!(err.code, EXIT_BIND, "{}", err.message);
        assert!(err.message.contains("cannot bind"), "{}", err.message);
        assert!(err.message.contains("already"), "{}", err.message);
    }

    #[test]
    fn experiments_single_id() {
        let s = run_to_string(&["experiments", "exp_table2"]).unwrap();
        assert!(s.contains("Table 2"));
        assert!(run_to_string(&["experiments", "exp_nope"]).is_err());
    }

    #[test]
    fn positional_skips_option_values() {
        assert_eq!(
            positional(&["--seed", "7", "exp_table1"]),
            Some("exp_table1")
        );
        assert_eq!(positional(&["--chart", "dir"]), Some("dir"));
        assert_eq!(positional(&["--seed", "7"]), None);
    }

    #[test]
    fn analyze_handmade_project_roundtrip() {
        let tmp = std::env::temp_dir().join(format!("schemachron-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        let dir = tmp.join("tiny");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("0001_2020-01-10.sql"),
            "CREATE TABLE t (a INT, b INT);",
        )
        .unwrap();
        std::fs::write(
            dir.join("0002_2021-06-10.sql"),
            "ALTER TABLE t ADD COLUMN c INT;",
        )
        .unwrap();
        std::fs::write(
            dir.join("source.csv"),
            "date,lines_changed\n2020-01-05,10\n2021-12-20,5\n",
        )
        .unwrap();
        let s = run_to_string(&["analyze", dir.to_str().unwrap(), "--chart"]).unwrap();
        assert!(s.contains("PUP:"), "{s}");
        assert!(s.contains("pattern:"), "{s}");
        assert!(s.contains("time (%PUP)"), "{s}");
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn study_runs_over_generated_corpus_subset() {
        let tmp = std::env::temp_dir().join(format!("schemachron-study-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).unwrap();
        // Three handmade projects with distinct shapes.
        let mk = |name: &str, files: &[(&str, &str)]| {
            let d = tmp.join(name);
            std::fs::create_dir_all(&d).unwrap();
            for (f, sql) in files {
                std::fs::write(d.join(f), sql).unwrap();
            }
            std::fs::write(
                d.join("source.csv"),
                "date,lines_changed\n2019-01-05,10\n2021-12-20,5\n",
            )
            .unwrap();
        };
        mk(
            "frozen",
            &[("0001_2019-01-10.sql", "CREATE TABLE a (x INT, y INT);")],
        );
        mk(
            "late",
            &[(
                "0001_2021-10-10.sql",
                "CREATE TABLE b (x INT, y INT, z INT);",
            )],
        );
        mk(
            "tooshort",
            &[("0001_2021-12-01.sql", "CREATE TABLE c (q INT);")],
        );
        // Shrink tooshort's lifespan below the 12-month study threshold.
        std::fs::write(
            tmp.join("tooshort").join("source.csv"),
            "date,lines_changed\n2021-11-05,10\n2021-12-20,5\n",
        )
        .unwrap();
        let s = run_to_string(&["study", tmp.to_str().unwrap()]).unwrap();
        assert!(s.contains("study over 2 projects"), "{s}");
        assert!(s.contains("Flatliner"), "{s}");
        assert!(s.contains("P(sharp focused change"), "{s}");
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn study_missing_root_errors() {
        assert!(run_to_string(&["study"]).is_err());
        assert!(run_to_string(&["study", "/nonexistent/nowhere"]).is_err());
    }

    /// The seed-42 corpus project the asof tests query, plus the bounds of
    /// its lifespan as `YYYY-MM` strings.
    fn asof_subject() -> (String, String, String, String) {
        let corpus = Corpus::generate(schemachron_bench::DEFAULT_SEED);
        let p = &corpus.projects()[0];
        let index = schemachron_asof::AsOfIndex::build(&p.history, 12).unwrap();
        let table = p
            .history
            .schema_history()
            .unwrap()
            .versions()
            .last()
            .unwrap()
            .schema
            .tables()
            .next()
            .unwrap()
            .name
            .as_str()
            .to_owned();
        (
            p.card.name.clone(),
            index.start().to_string(),
            index.last_month().to_string(),
            table,
        )
    }

    #[test]
    fn asof_answers_schema_diff_and_provenance_queries() {
        let (name, start, last, table) = asof_subject();

        let s = run_to_string(&["asof", &name, "--at", &last]).unwrap();
        assert!(s.contains(&format!("{name} as of {last}:")), "{s}");

        let j = run_to_string(&["asof", &name, "--at", &last, "--format", "json"]).unwrap();
        let v: serde_json::Value = serde_json::from_str(&j).unwrap();
        assert_eq!(v["project"].as_str(), Some(name.as_str()));
        assert_eq!(v["asof"].as_str(), Some(last.as_str()));
        assert!(v["table_count"].as_u64().unwrap() > 0, "{j}");

        let d = run_to_string(&["asof", &name, "--at", &start, "--diff", &last]).unwrap();
        assert!(d.contains(&format!("diff {start} -> {last}")), "{d}");

        let p = run_to_string(&["asof", &name, "--provenance", &table]).unwrap();
        assert!(p.contains(&format!("provenance of {table}")), "{p}");
        assert!(p.contains("introduced"), "{p}");
    }

    #[test]
    fn safety_reports_the_lattice() {
        let (name, _, _, _) = asof_subject();

        let human = run_to_string(&["safety", &name]).unwrap();
        assert!(human.contains(&format!("{name} safety:")), "{human}");
        assert!(human.contains("worst:"), "{human}");

        let j = run_to_string(&["safety", &name, "--format", "json"]).unwrap();
        let v: serde_json::Value = serde_json::from_str(&j).unwrap();
        assert_eq!(v["project"].as_str(), Some(name.as_str()));
        assert!(v["ops"].as_u64().is_some(), "{j}");
        assert!(v["summary"]["worst"].as_str().is_some(), "{j}");
        assert!(v["transitions"].as_array().is_some(), "{j}");

        assert!(run_to_string(&["safety"]).is_err());
        let err = run_to_string(&["safety", "no-such-project"]).expect_err("ghost project");
        assert!(err.message.contains("no project"), "{}", err.message);
    }

    #[test]
    fn asof_argument_validation() {
        let (name, _, last, _) = asof_subject();
        assert!(run_to_string(&["asof"]).is_err());
        assert!(run_to_string(&["asof", "no-such-project", "--at", &last]).is_err());
        assert!(run_to_string(&["asof", &name, "--at", &last, "--format", "xml"]).is_err());
        assert!(run_to_string(&["asof", &name, "--at", &last, "--k", "0"]).is_err());

        let err = run_to_string(&["asof", &name]).expect_err("--at is required");
        assert!(err.message.contains("--at"), "{}", err.message);

        let err = run_to_string(&["asof", &name, "--at", "2009-13"]).expect_err("bad month");
        assert!(err.message.contains("YYYY-MM"), "{}", err.message);

        let err = run_to_string(&["asof", &name, "--at", "1901-01"])
            .expect_err("out of lifespan");
        assert!(err.message.contains("lifespan"), "{}", err.message);
    }

    #[test]
    fn plan_honours_the_k_flag() {
        let plan = |k: &str| {
            run_to_string(&[
                "plan", "curated-132", "--from", "2015-12", "--to", "2017-06", "--dialect",
                "pg", "--format", "json", "--k", k,
            ])
        };
        let err = plan("0").expect_err("--k 0 is not a checkpoint spacing");
        assert!(err.message.contains("--k"), "{}", err.message);
        assert_eq!(err.code, EXIT_FAILURE);
        // Checkpoint spacing dials lookup cost, never the answer.
        let golden = include_str!("../../../goldens/plan/curated-132_2015-12_2017-06_pg.json");
        for k in ["1", "48"] {
            assert_eq!(plan(k).unwrap(), golden, "--k {k}");
        }
    }

    #[test]
    fn diff_two_dump_files() {
        let tmp = std::env::temp_dir().join(format!("schemachron-diff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).unwrap();
        let v1 = tmp.join("v1.sql");
        let v2 = tmp.join("v2.sql");
        std::fs::write(&v1, "CREATE TABLE t (a INT, b INT);").unwrap();
        std::fs::write(&v2, "CREATE TABLE t (a BIGINT, c INT);").unwrap();
        let s = run_to_string(&["diff", v1.to_str().unwrap(), v2.to_str().unwrap()]).unwrap();
        assert!(s.contains("t.a  [type-changed]"), "{s}");
        assert!(s.contains("t.b  [ejected]"), "{s}");
        assert!(s.contains("t.c  [injected]"), "{s}");
        assert!(
            s.contains("3 affected attributes (1 expansion, 2 maintenance)"),
            "{s}"
        );
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn diff_arg_validation() {
        assert!(run_to_string(&["diff"]).is_err());
        assert!(run_to_string(&["diff", "/nope.sql", "/nope2.sql"]).is_err());
    }

    #[test]
    fn analyze_missing_dir_errors() {
        assert!(run_to_string(&["analyze", "/nonexistent/nowhere"]).is_err());
        assert!(run_to_string(&["analyze"]).is_err());
    }
}
