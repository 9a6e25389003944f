//! Workload `serve-read`: an open-loop HTTP GET mix over the warm seed-42
//! corpus, a reference rate and a doubling ladder; plus the per-layer
//! probes of the serve and asof layers.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use schemachron_asof::{index_for, AsOfArtifact, DEFAULT_K_MONTHS};
use schemachron_corpus::{pipeline, Corpus};
use schemachron_hash::{fnv1a, FNV_OFFSET};
use schemachron_history::MonthId;
use schemachron_serve::http::{read_request, Request};
use schemachron_serve::{AppState, GuardConfig, Server, ServerConfig, ShutdownHandle};
use schemachron_stats::median;

use crate::client;
use crate::gen::{shuffle, Zipf};
use crate::openloop::{ladder_search, run_step, Sent, Step, LADDER, REFINE_STEPS};
use crate::report::{self, Metric};
use crate::stats::tail;
use crate::trace::{overhead_pct, Tracer, OVERHEAD_REPS};
use crate::RunResult;

/// The corpus every served request reads.
pub const CORPUS_SEED: u64 = 42;

/// The reference rate, in requests per second.
const REFERENCE_RPS: f64 = 50.0;

/// Distinct request targets generated per run; request `i` sends
/// `pool[i % POOL]`.
const POOL: usize = 2048;

/// Set-ups measured per run; the median is reported.
const SETUP_REPS: usize = 3;

/// Requests the `read_request` probe parses. The handler, guard and write
/// probes walk the whole pool, so every route of the mix gets samples.
const READ_PROBES: usize = 300;

/// The route mix: metric suffix and share in percent.
const MIX: [(&str, u32); 10] = [
    ("pattern", 30),
    ("history", 15),
    ("schema", 15),
    ("diff", 10),
    ("plan", 5),
    ("provenance", 5),
    ("safety", 5),
    ("diagnostics", 5),
    ("chart", 5),
    ("projects", 5),
];

const DIALECTS: [&str; 3] = ["pg", "mysql", "sqlite"];

/// One generated request.
#[derive(Clone, Debug)]
struct Target {
    /// Index into [`MIX`].
    route: usize,
    project: usize,
    path: String,
    /// `asof` (as both), or `from`/`to`.
    months: Option<(MonthId, MonthId)>,
    subject: Option<(String, Option<String>)>,
}

fn pick_route(rng: &mut StdRng) -> usize {
    let mut x: u32 = rng.random_range(0..100);
    for (i, (_, share)) in MIX.iter().enumerate() {
        if x < *share {
            return i;
        }
        x -= share;
    }
    0
}

/// Generates the request pool from `seed`: routes by the mix, projects by
/// Zipf(1) over a seeded popularity order, months uniform within each
/// project's lifespan. Needs the warm as-of indexes of `corpus`.
fn pool(corpus: &Corpus, seed: u64) -> Vec<Target> {
    let projects = corpus.projects();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut popularity: Vec<usize> = (0..projects.len()).collect();
    shuffle(&mut popularity, &mut rng);
    let zipf = Zipf::new(projects.len(), 1.0);
    let mut out = Vec::with_capacity(POOL);
    while out.len() < POOL {
        let route = pick_route(&mut rng);
        let pi = popularity[zipf.sample(&mut rng)];
        let p = &projects[pi];
        let id = p.card.name.as_str();
        let Some(index) = index_for(p, CORPUS_SEED, DEFAULT_K_MONTHS) else {
            continue;
        };
        let mut month = || {
            index
                .start()
                .plus(rng.random_range(0..index.months()) as i32)
        };
        let (a, b) = (month(), month());
        let (from, to) = (a.min(b), a.max(b));
        let mut t = Target {
            route,
            project: pi,
            path: String::new(),
            months: None,
            subject: None,
        };
        t.path = match MIX[route].0 {
            "pattern" => format!("/project/{id}/pattern"),
            "history" => format!("/project/{id}/history"),
            "schema" => {
                t.months = Some((a, a));
                format!("/project/{id}/schema?asof={a}")
            }
            "diff" => {
                t.months = Some((from, to));
                format!("/project/{id}/diff?from={from}&to={to}")
            }
            "plan" => {
                let dialect = DIALECTS[rng.random_range(0..DIALECTS.len())];
                format!("/project/{id}/plan?from={from}&to={to}&dialect={dialect}")
            }
            "provenance" => {
                let Some(subject) = subject(&index, &mut rng) else {
                    continue;
                };
                let shown = match &subject.1 {
                    Some(c) => format!("{}.{c}", subject.0),
                    None => subject.0.clone(),
                };
                t.subject = Some(subject);
                format!("/project/{id}/provenance/{shown}")
            }
            "safety" => format!("/project/{id}/safety"),
            "diagnostics" => format!("/project/{id}/diagnostics"),
            "chart" => format!("/chart/{id}.svg"),
            _ => format!("/corpus/{CORPUS_SEED}/projects"),
        };
        out.push(t);
    }
    out
}

/// A table (and half the time one of its columns) of the final schema.
fn subject(index: &AsOfArtifact, rng: &mut StdRng) -> Option<(String, Option<String>)> {
    let schema = index.schema_as_of(index.last_month())?;
    let tables: Vec<_> = schema.tables().collect();
    if tables.is_empty() {
        return None;
    }
    let table = tables[rng.random_range(0..tables.len())];
    let attrs = table.attributes();
    let column = (rng.random_bool(0.5) && !attrs.is_empty()).then(|| {
        attrs[rng.random_range(0..attrs.len())]
            .name
            .as_str()
            .to_owned()
    });
    Some((table.name.as_str().to_owned(), column))
}

/// A server running on a background thread.
pub struct Running {
    pub addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: std::thread::JoinHandle<std::io::Result<u64>>,
}

impl Running {
    pub fn start(jobs: usize, stream_dir: &Path) -> std::io::Result<Running> {
        let server = Server::bind(ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            jobs,
            seed: CORPUS_SEED,
            quiet: true,
            stream_dir: Some(stream_dir.to_owned()),
            ..ServerConfig::default()
        })?;
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Running {
            addr,
            shutdown,
            thread,
        })
    }

    /// Stops accepting, drains, and waits for the server thread.
    pub fn stop(self) {
        self.shutdown.request_shutdown();
        let _ = self.thread.join();
    }
}

/// Warms every artifact the routes read, through in-process calls.
fn warm(corpus: &Corpus, jobs: usize) {
    let projects = corpus.projects();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(p) = projects.get(i) else { break };
                let _ = index_for(p, CORPUS_SEED, DEFAULT_K_MONTHS);
                let _ = schemachron_safety::safety_for(&p.card, CORPUS_SEED);
                let _ = schemachron_lint::lint_project(&p.card, CORPUS_SEED);
            });
        }
    });
}

/// One set-up: cold corpus build, warm-up and server start.
fn setup_once(jobs: usize, dir: &Path) -> std::io::Result<(Corpus, Running)> {
    pipeline::clear_stage_cache();
    let corpus = Corpus::generate_jobs(CORPUS_SEED, jobs);
    warm(&corpus, jobs);
    let _ = schemachron_bench::context::shared_corpus(CORPUS_SEED);
    let running = Running::start(jobs, dir)?;
    Ok((corpus, running))
}

/// Sets up [`SETUP_REPS`] times, keeping the last server running.
fn setup(jobs: usize, dir: &Path) -> std::io::Result<(Corpus, Running, Vec<f64>)> {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let (corpus, running) = setup_once(jobs, dir)?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() == SETUP_REPS {
            return Ok((corpus, running, times));
        }
        running.stop();
    }
}

/// A body's length and two independent 64-bit FNV-1a digests: equal
/// digests stand for byte-equal bodies without keeping the bodies, so the
/// check does not inflate the process's peak memory.
type Digest = (usize, u64, u64);

fn digest(body: &[u8]) -> Digest {
    (
        body.len(),
        fnv1a(FNV_OFFSET, body),
        fnv1a(!FNV_OFFSET, body),
    )
}

/// The digest of the first body seen per pool entry, plus a count of
/// later bodies that differed from it.
#[derive(Default)]
struct Bodies {
    first: Mutex<HashMap<usize, Digest>>,
    drift: AtomicUsize,
}

impl Bodies {
    fn record(&self, k: usize, body: &[u8]) {
        let d = digest(body);
        let mut map = self.first.lock().unwrap_or_else(PoisonError::into_inner);
        if *map.entry(k).or_insert(d) != d {
            self.drift.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Every recorded body must equal the in-process answer.
    fn check(&self, pool: &[Target], state: &AppState, problems: &mut Vec<String>) {
        let drift = self.drift.load(Ordering::Relaxed);
        if drift > 0 {
            problems.push(format!(
                "serve-read: {drift} answers differed between repeats"
            ));
        }
        let map = self.first.lock().unwrap_or_else(PoisonError::into_inner);
        let bad = map
            .iter()
            .filter(|(k, d)| {
                let want = state.handle(&Request::get(&pool[**k].path));
                want.status != 200 || digest(&want.body) != **d
            })
            .count();
        if bad > 0 {
            problems.push(format!(
                "serve-read: {bad} of {} targets answered differently over HTTP",
                map.len()
            ));
        }
    }
}

/// Sends request `i` of the run and judges it: only a `200` with a
/// well-formed body is a success.
fn exec(addr: SocketAddr, pool: &[Target], bodies: &Bodies, i: usize) -> Sent {
    let k = i % pool.len();
    match client::request(addr, "GET", &pool[k].path, &[]) {
        Ok(r) if r.status == 200 => {
            bodies.record(k, &r.body);
            Sent {
                ok: true,
                overload: false,
            }
        }
        Ok(r) => Sent {
            ok: false,
            overload: r.status == 503,
        },
        Err(_) => Sent::default(),
    }
}

/// The server's shed and deadline counters, read from `/health`.
fn guard_counters(addr: SocketAddr) -> (f64, f64) {
    let health = client::request(addr, "GET", "/health", &[])
        .ok()
        .and_then(|r| serde_json::from_str(std::str::from_utf8(&r.body).ok()?).ok());
    let get = |key: &str| {
        health
            .as_ref()
            .and_then(|h: &serde_json::Value| h.get("requests")?.get(key)?.as_f64())
            .unwrap_or(f64::NAN)
    };
    (get("shed"), get("deadline_timeouts"))
}

fn wal_dir(tag: &str) -> PathBuf {
    report::out_dir().join(format!("serve-{tag}-{}", std::process::id()))
}

/// The end-to-end run: the reference rate for half the time, then the
/// ladder with the other half split evenly across its steps.
pub fn run(seed: u64, seconds: u64, jobs: usize) -> RunResult {
    let mut res = RunResult::default();
    let dir = wal_dir("e2e");
    let (corpus, running, setup_s) = match setup(jobs, &dir) {
        Ok(x) => x,
        Err(e) => {
            res.problems
                .push(format!("serve-read: server did not start: {e}"));
            return res;
        }
    };
    let targets = pool(&corpus, seed);
    let bodies = Bodies::default();
    let addr = running.addr;
    let tracer = Tracer::new(false);
    let mut steps = 0u64;
    let mut run = |rate: f64, dur: Duration, first: usize| {
        steps += 1;
        let schedule = seed.wrapping_mul(1000).wrapping_add(steps);
        run_step(rate, dur, schedule, jobs, first, &tracer, &|i| {
            exec(addr, &targets, &bodies, i)
        })
    };
    let half = Duration::from_secs_f64(seconds as f64 / 2.0);
    let reference = run(REFERENCE_RPS, half, 0);
    let step_dur = half / (LADDER.len() + REFINE_STEPS) as u32;
    let mut ladder: Vec<Step> = Vec::new();
    let mut first = reference.due;
    let (best_rate, _) = ladder_search(|rate| {
        let step = run(rate, step_dur, first);
        first += step.due;
        let ok = step.meets_limit();
        ladder.push(step);
        ok
    });
    let (shed, timeouts) = guard_counters(addr);
    running.stop();

    let state = AppState::with_stream_root(CORPUS_SEED, GuardConfig::default(), dir.clone());
    bodies.check(&targets, &state, &mut res.problems);
    drop(state);
    let _ = std::fs::remove_dir_all(&dir);

    // The highest offered rate that met the limit, reported as the goodput
    // measured while it was held (0 when even the first rung failed).
    let max_ok = ladder
        .iter()
        .find(|s| s.rate == best_rate && s.meets_limit())
        .map_or(0.0, Step::goodput);
    // A step that broke the limit probed the capacity; its shortfall is
    // the measurement, so only the reference and passing steps are tallied.
    res.attempted = reference.due as u64;
    res.failed = reference.failures() as u64;
    for s in ladder.iter().filter(|s| s.meets_limit()) {
        res.attempted += s.due as u64;
        res.failed += s.failures() as u64;
    }
    if reference.failures() > 0 {
        res.problems.push(format!(
            "serve-read: {} of {} reference requests failed",
            reference.failures(),
            reference.due
        ));
    }
    let lat = reference.latencies_ms();
    res.end_to_end(
        &setup_s,
        Metric::new("throughput_per_s", max_ok, "1/s", ladder.len())
            .note(format!("max_ok_rps, offered {best_rate} req/s")),
        Metric::new("latency_p50_ms", median(&lat), "ms", lat.len()).note("at 50 req/s"),
        Metric::tail("latency_tail_ms", tail(&lat), "ms"),
    );
    res.detail.extend([
        Metric::new("req_p50_ms", median(&lat), "ms", lat.len()),
        Metric::tail("req_tail_ms", tail(&lat), "ms"),
        Metric::new("max_ok_rps", max_ok, "1/s", ladder.len()),
        Metric::tail("gen.late_ms", tail(&reference.late_ms()), "ms"),
        Metric::new("serve.shed", shed, "count", 1),
        Metric::new("serve.deadline_timeouts", timeouts, "count", 1),
    ]);
    for s in &ladder {
        let lat = s.latencies_ms();
        res.detail.push(
            Metric::tail(format!("ladder.{}.tail_ms", s.rate), tail(&lat), "ms").note(format!(
                "failures {} (unsent {}, overload {}), {}",
                s.failures(),
                s.unsent(),
                s.overloads(),
                if s.meets_limit() { "ok" } else { "over limit" }
            )),
        );
    }
    res
}

/// A fresh set-up that held the reference rate over HTTP.
struct Reference {
    corpus: Corpus,
    targets: Vec<Target>,
    step: Step,
    shed: f64,
    timeouts: f64,
}

/// Sets up once, holds the reference rate for `seconds`, stops the server
/// and checks every answer against the in-process handler.
fn reference_phase(
    seed: u64,
    seconds: f64,
    jobs: usize,
    tracer: &Tracer,
    problems: &mut Vec<String>,
) -> Option<Reference> {
    let dir = wal_dir("reference");
    let (corpus, running) = match setup_once(jobs, &dir) {
        Ok(x) => x,
        Err(e) => {
            problems.push(format!("serve-read: server did not start: {e}"));
            return None;
        }
    };
    let targets = pool(&corpus, seed);
    let bodies = Bodies::default();
    let addr = running.addr;
    let step = run_step(
        REFERENCE_RPS,
        Duration::from_secs_f64(seconds),
        seed,
        jobs,
        0,
        tracer,
        &|i| exec(addr, &targets, &bodies, i),
    );
    let (shed, timeouts) = guard_counters(addr);
    running.stop();
    let state = AppState::with_stream_root(CORPUS_SEED, GuardConfig::default(), dir.clone());
    bodies.check(&targets, &state, problems);
    drop(state);
    let _ = std::fs::remove_dir_all(&dir);
    Some(Reference {
        corpus,
        targets,
        step,
        shed,
        timeouts,
    })
}

/// Per-layer metrics of the serve and asof layers: a traced reference
/// run over HTTP, then in-process probes of each layer's public calls on
/// the same generated targets.
pub fn layers(
    seed: u64,
    seconds: f64,
    jobs: usize,
    tracer: &Tracer,
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let Some(Reference {
        corpus,
        targets,
        step: reference,
        shed,
        timeouts,
    }) = reference_phase(seed, seconds, jobs, tracer, problems)
    else {
        return Vec::new();
    };
    let http_p50_ms = median(&reference.latencies_ms());
    let dir = wal_dir("layers");
    let state = Arc::new(AppState::with_stream_root(
        CORPUS_SEED,
        GuardConfig::default(),
        dir.clone(),
    ));
    let mut out = Vec::new();

    // Handler and guard, per route, on the same requests.
    let mut handler: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut all_handler = Vec::new();
    let mut guard = Vec::new();
    let mut responses = Vec::new();
    for (i, t) in targets.iter().enumerate() {
        let req = Request::get(&t.path);
        let open = tracer.begin("serve.handle", None, i as u64);
        let resp = state.handle(&req);
        let h = tracer.end(open) as f64 / 1e3;
        let open = tracer.begin("serve.handle_guarded", None, i as u64);
        black_box(state.handle_guarded(&req));
        let g = tracer.end(open) as f64 / 1e3;
        handler.entry(t.route).or_default().push(h);
        all_handler.push(h);
        guard.push(g - h);
        responses.push(resp);
    }
    let (pct, untraced_s) = overhead_pct(OVERHEAD_REPS, |t| {
        for (i, target) in targets.iter().enumerate() {
            let open = t.begin("serve.handle", None, i as u64);
            black_box(state.handle(&Request::get(&target.path)));
            t.end(open);
        }
    });
    out.push(
        Metric::new("trace.serve_overhead_pct", pct, "%", OVERHEAD_REPS).note(format!(
            "handler walk over {} targets, {untraced_s:.3} s untraced",
            targets.len()
        )),
    );
    for (route, us) in &handler {
        out.push(
            Metric::new(
                format!("serve.handler_us.{}", MIX[*route].0),
                median(us),
                "us",
                us.len(),
            )
            .note("AppState::handle"),
        );
    }
    let guard_us = median(&guard);
    out.push(
        Metric::new("serve.guard_us", guard_us, "us", guard.len()).note("handle_guarded - handle"),
    );
    let read_us = probe_read(&targets, tracer);
    out.push(Metric::new(
        "serve.read_request_us",
        median(&read_us),
        "us",
        read_us.len(),
    ));
    let write_us = probe_write(&responses, tracer);
    out.push(Metric::new(
        "serve.write_us",
        median(&write_us),
        "us",
        write_us.len(),
    ));
    let layers_ms = (median(&read_us) + median(&all_handler) + guard_us + median(&write_us)) / 1e3;
    out.push(
        Metric::new(
            "serve.accept_wait_ms",
            http_p50_ms - layers_ms,
            "ms",
            reference.outcomes.len(),
        )
        .note(format!(
            "HTTP p50 {http_p50_ms:.3} ms minus {layers_ms:.3} ms in layers"
        )),
    );
    out.push(Metric::new("serve.shed", shed, "count", 1));
    out.push(Metric::new("serve.deadline_timeouts", timeouts, "count", 1));
    out.push(Metric::new(
        "serve.overload_503",
        reference.overloads() as f64,
        "count",
        reference.outcomes.len(),
    ));
    out.push(Metric::tail(
        "gen.late_ms",
        tail(&reference.late_ms()),
        "ms",
    ));
    out.extend(asof_layers(&corpus, &targets, tracer));
    drop(state);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// `http::read_request` on a loopback pair, per request of the mix.
fn probe_read(targets: &[Target], tracer: &Tracer) -> Vec<f64> {
    let Ok(listener) = TcpListener::bind(("127.0.0.1", 0)) else {
        return Vec::new();
    };
    let Ok(addr) = listener.local_addr() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (i, t) in targets.iter().take(READ_PROBES).enumerate() {
        let Ok(mut client) = TcpStream::connect(addr) else {
            continue;
        };
        let wire = format!(
            "GET {} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n",
            t.path
        );
        if std::io::Write::write_all(&mut client, wire.as_bytes()).is_err() {
            continue;
        }
        let Ok((mut server, _)) = listener.accept() else {
            continue;
        };
        let open = tracer.begin("serve.read_request", None, i as u64);
        let parsed = read_request(&mut server);
        let ns = tracer.end(open);
        if parsed.is_ok() {
            out.push(ns as f64 / 1e3);
        }
    }
    out
}

/// `Response::write_to` onto a loopback socket that a reader drains.
fn probe_write(responses: &[schemachron_serve::http::Response], tracer: &Tracer) -> Vec<f64> {
    let Ok(listener) = TcpListener::bind(("127.0.0.1", 0)) else {
        return Vec::new();
    };
    let Ok(addr) = listener.local_addr() else {
        return Vec::new();
    };
    let Ok(client) = TcpStream::connect(addr) else {
        return Vec::new();
    };
    let Ok((mut server, _)) = listener.accept() else {
        return Vec::new();
    };
    let drain = std::thread::spawn(move || {
        let mut sink = Vec::new();
        let mut client = client;
        let _ = client.read_to_end(&mut sink);
    });
    let mut out = Vec::new();
    for (i, resp) in responses.iter().enumerate() {
        let open = tracer.begin("serve.write", None, i as u64);
        let ok = resp.write_to(&mut server).is_ok();
        let ns = tracer.end(open);
        if ok {
            out.push(ns as f64 / 1e3);
        }
    }
    drop(server);
    let _ = drain.join();
    out
}

/// As-of lookups on the warm indexes for the generated schema, diff and
/// provenance targets, then the cold index build for every project.
fn asof_layers(corpus: &Corpus, targets: &[Target], tracer: &Tracer) -> Vec<Metric> {
    let projects = corpus.projects();
    let (mut schema, mut diff, mut prov) = (Vec::new(), Vec::new(), Vec::new());
    for (i, t) in targets.iter().enumerate() {
        let Some(index) = index_for(&projects[t.project], CORPUS_SEED, DEFAULT_K_MONTHS) else {
            continue;
        };
        let trace = i as u64;
        match (MIX[t.route].0, t.months, &t.subject) {
            ("schema", Some((m, _)), _) => {
                let open = tracer.begin("asof.schema_as_of", None, trace);
                black_box(index.schema_as_of(m));
                schema.push(tracer.end(open) as f64 / 1e3);
            }
            ("diff", Some((a, b)), _) => {
                let open = tracer.begin("asof.diff_between", None, trace);
                black_box(index.diff_between(a, b));
                diff.push(tracer.end(open) as f64 / 1e3);
            }
            ("provenance", _, Some((table, column))) => {
                let open = tracer.begin("asof.provenance", None, trace);
                black_box(index.provenance(table, column.as_deref()));
                prov.push(tracer.end(open) as f64 / 1e3);
            }
            _ => {}
        }
    }
    // Cold builds last: clearing the cache would otherwise turn the
    // lookups above into builds.
    pipeline::clear_stage_cache();
    let mut build = Vec::new();
    for (i, p) in projects.iter().enumerate() {
        let open = tracer.begin("asof.build", None, i as u64);
        black_box(index_for(p, CORPUS_SEED, DEFAULT_K_MONTHS));
        build.push(tracer.end(open) as f64 / 1e6);
    }
    vec![
        Metric::new("asof.build_ms", median(&build), "ms", build.len()).note("index_for, cold"),
        Metric::new("asof.schema_as_of_us", median(&schema), "us", schema.len()),
        Metric::new("asof.diff_between_us", median(&diff), "us", diff.len()),
        Metric::new("asof.provenance_us", median(&prov), "us", prov.len()),
    ]
}
