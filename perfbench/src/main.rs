//! The schemachron benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload ingest|serve-read|stream-append --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics with tracing
//! off. `--trace 1` is the separate traced run: it times calls into every
//! layer's public functions on inputs generated from the same seed, keeps
//! the spans in memory and writes them out at the end, and reports its own
//! overhead: instrumented probe walks timed with tracing off and on.
//!
//! Every run prints a header of host facts, one line per metric with its
//! unit and sample count, and as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A full report (and, when traced, the spans) lands in `.bench_out/`.

mod client;
mod gen;
mod ingest;
mod openloop;
mod report;
mod serve_read;
mod stats;
mod stream_append;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use schemachron_corpus::pipeline;
use schemachron_stats::median;
use serde_json::{json, Value};

use report::Metric;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["ingest", "serve-read", "stream-append"];

/// Seconds of HTTP load in each traced reference phase.
const TRACE_HTTP_SECS: f64 = 5.0;

/// What one run measured and checked.
#[derive(Default)]
pub struct RunResult {
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Further numbers printed under their own names.
    pub detail: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; empty when every check passed.
    pub problems: Vec<String>,
}

impl RunResult {
    /// Pushes the end-to-end metrics every workload reports.
    pub fn end_to_end(&mut self, setup_s: &[f64], throughput: Metric, p50: Metric, tail: Metric) {
        self.metrics.push(
            Metric::new("setup_s", median(setup_s), "s", setup_s.len()).note("median of set-ups"),
        );
        self.metrics
            .push(Metric::new("peak_rss_mb", report::peak_rss_mb(), "MB", 1).note("VmHWM"));
        self.metrics.extend([throughput, p50, tail]);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
        ));
    }
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// The traced run: every layer's metrics, the tracing overhead among
/// them.
fn traced(args: &Args, jobs: usize, tracer: &Tracer) -> RunResult {
    let mut res = RunResult::default();
    res.metrics
        .extend(ingest::layers(args.seed, jobs, tracer, &mut res.problems));
    res.metrics.extend(serve_read::layers(
        args.seed,
        TRACE_HTTP_SECS,
        jobs,
        tracer,
        &mut res.problems,
    ));
    res.metrics.extend(stream_append::layers(
        args.seed,
        jobs,
        tracer,
        &mut res.problems,
    ));
    res.attempted = res.metrics.len() as u64;
    res
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload ingest|serve-read|stream-append --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let out = report::out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::from(1);
    }
    let jobs = report::nproc();
    let started = Instant::now();
    let tracer = Tracer::new(args.trace);
    let res = if args.trace {
        traced(&args, jobs, &tracer)
    } else {
        match args.workload.as_str() {
            "ingest" => ingest::run(args.seed, args.seconds, jobs),
            "serve-read" => serve_read::run(args.seed, args.seconds, jobs),
            _ => stream_append::run(args.seed, args.seconds, jobs),
        }
    };

    let mut header = json!({
        "workload": (args.workload.as_str()),
        "seed": (args.seed),
        "seconds": (args.seconds),
        "trace": (args.trace),
        "nproc": jobs,
        "jobs": jobs,
        "generator_threads": jobs,
        "stage_cache_capacity": (report::STAGE_CACHE_CAPACITY),
        "stage_cache_shards": (pipeline::stage_cache_shard_count()),
        "wal_fs": (report::fs_type(&out)),
        "spans": (tracer.span_count()),
        "wall_s": (started.elapsed().as_secs_f64()),
    });
    let overheads: serde_json::Map<String, Value> = res
        .metrics
        .iter()
        .filter(|m| m.name.ends_with("overhead_pct"))
        .map(|m| (m.name.clone(), json!(m.value)))
        .collect();
    if let (Value::Object(map), false) = (&mut header, overheads.is_empty()) {
        map.insert("tracing_overhead_pct".to_owned(), Value::Object(overheads));
    }
    let fail_ratio = res.failed as f64 / res.attempted.max(1) as f64;
    let mut detail = res.detail.clone();
    if !args.trace {
        detail.push(Metric::new(
            "fail_ratio",
            fail_ratio,
            "ratio",
            res.attempted as usize,
        ));
    }
    println!("header {header}");
    for m in res.metrics.iter().chain(&detail) {
        println!("{}", m.line());
    }
    for p in &res.problems {
        eprintln!("check FAILED: {p}");
    }
    println!(
        "check {}",
        if res.problems.is_empty() {
            "ok"
        } else {
            "FAILED"
        }
    );

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let rep = report::report_json(&header, &res.metrics, &detail);
    let _ = std::fs::write(out.join(format!("report-{stem}.json")), format!("{rep}\n"));
    if args.trace {
        if let Err(e) = tracer.write_jsonl(&out.join(format!("spans-{stem}.jsonl"))) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
    }
    let result = json!({
        "correct": (res.problems.is_empty()),
        "attempted": (res.attempted.max(1)),
        "failed": (res.failed),
        "metrics": (report::metrics_object(&res.metrics)),
    });
    println!("{result}");
    ExitCode::SUCCESS
}
