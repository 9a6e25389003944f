//! Workload `stream-append`: the full commit chains of the seed-42
//! projects, interleaved by a seeded shuffle, appended over HTTP by one
//! closed-loop writer while one subscriber long-polls the change feed;
//! plus the per-layer probes of the stream layer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use schemachron_corpus::cards::all_cards;
use schemachron_corpus::materialize::materialize;
use schemachron_corpus::{pipeline, Corpus};
use schemachron_history::Date;
use schemachron_serve::http::Request;
use schemachron_serve::{AppState, GuardConfig};
use schemachron_stats::median;
use schemachron_stream::{
    classify_commits, ChangeEvent, ChangeFeed, StreamStore, Wal, WalRecord, FEED_CAPACITY,
    STREAM_STAGE,
};
use serde_json::{json, Value};

use crate::client;
use crate::gen::interleave;
use crate::report::{self, Metric};
use crate::serve_read::{Running, CORPUS_SEED};
use crate::stats::tail;
use crate::trace::Tracer;
use crate::RunResult;

/// Set-ups measured per run; the median is reported.
const SETUP_REPS: usize = 7;

/// How long the subscriber may wait for the final cursor.
const FEED_GRACE: Duration = Duration::from_secs(10);

/// The generated inputs: every project's commit chain and the order the
/// writer sends them in.
struct Chains {
    names: Vec<String>,
    commits: Vec<Vec<(Date, String)>>,
    /// `(chain, position)` pairs, positions in order within each chain.
    order: Vec<(usize, usize)>,
}

impl Chains {
    fn generate(seed: u64) -> Chains {
        let (names, commits): (Vec<String>, Vec<_>) = all_cards()
            .iter()
            .map(|c| (c.name.clone(), materialize(c, CORPUS_SEED).ddl_commits))
            .unzip();
        let lens: Vec<usize> = commits.iter().map(Vec::len).collect();
        let order = interleave(&lens, &mut StdRng::seed_from_u64(seed));
        Chains {
            names,
            commits,
            order,
        }
    }

    /// The project name chain `c` streams under in pass `pass`: each pass
    /// appends to fresh projects so every append pays a real re-run.
    fn name(&self, c: usize, pass: usize) -> String {
        if pass == 0 {
            self.names[c].clone()
        } else {
            format!("{}-r{pass}", self.names[c])
        }
    }
}

fn commit_body(seq: u64, date: &Date, sql: &str) -> String {
    json!({"seq": seq, "date": (date.to_string()), "sql": sql}).to_string()
}

/// One feed event as the subscriber saw it.
struct Seen {
    cursor: u64,
    at: Instant,
    project: String,
    seq: u64,
    after: String,
}

/// Long-polls `/changes` until it has seen the `want` cursor, which the
/// writer sets once it is done, or until [`FEED_GRACE`] after that.
fn subscribe(addr: std::net::SocketAddr, want: &Mutex<Option<u64>>) -> Vec<Seen> {
    let mut seen = Vec::new();
    let mut since = 0u64;
    let mut deadline: Option<Instant> = None;
    loop {
        if let Some(total) = *want
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            if since >= total {
                break;
            }
            let d = *deadline.get_or_insert_with(|| Instant::now() + FEED_GRACE);
            if Instant::now() > d {
                break;
            }
        }
        let target = format!("/changes?since={since}&wait_ms=1000&max=1024");
        let Ok(reply) = client::request(addr, "GET", &target, &[]) else {
            continue;
        };
        let at = Instant::now();
        let Some(events) = std::str::from_utf8(&reply.body)
            .ok()
            .and_then(|b| serde_json::from_str(b).ok())
            .and_then(|v: Value| v.get("events")?.as_array().cloned())
        else {
            continue;
        };
        for e in events {
            let cursor = e.get("cursor").and_then(Value::as_u64).unwrap_or(0);
            since = since.max(cursor);
            seen.push(Seen {
                cursor,
                at,
                project: e
                    .get("project")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned(),
                seq: e.get("seq").and_then(Value::as_u64).unwrap_or(0),
                after: e
                    .get("transition")
                    .and_then(|t| t.get("after"))
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned(),
            });
        }
    }
    seen
}

/// What one pass-set of appends measured.
struct Appended {
    /// Per append: send instant and ack latency in ms.
    sends: Vec<Instant>,
    ack_ms: Vec<f64>,
    /// Appends acknowledged per project.
    acked: BTreeMap<String, u64>,
    seen: Vec<Seen>,
    writer_secs: f64,
    failed: u64,
}

/// Streams whole passes of `chains` until `seconds` have elapsed (at
/// least one pass), with the subscriber running alongside.
fn stream(addr: std::net::SocketAddr, chains: &Chains, seconds: f64, tracer: &Tracer) -> Appended {
    let want = Mutex::new(None);
    std::thread::scope(|scope| {
        let sub = scope.spawn(|| subscribe(addr, &want));
        let mut out = Appended {
            sends: Vec::new(),
            ack_ms: Vec::new(),
            acked: BTreeMap::new(),
            seen: Vec::new(),
            writer_secs: 0.0,
            failed: 0,
        };
        let started = Instant::now();
        let mut pass = 0;
        loop {
            for &(c, pos) in &chains.order {
                let name = chains.name(c, pass);
                let (date, sql) = &chains.commits[c][pos];
                let body = commit_body(pos as u64 + 1, date, sql);
                let path = format!("/project/{name}/commit");
                let expect_cursor = out.sends.len() as u64 + 1;
                let open = tracer.begin("http.commit", None, expect_cursor);
                let sent = Instant::now();
                let reply = client::request(addr, "POST", &path, body.as_bytes());
                let ack = sent.elapsed();
                tracer.end(open);
                out.sends.push(sent);
                out.ack_ms.push(ack.as_secs_f64() * 1e3);
                let cursor = reply
                    .ok()
                    .filter(|r| r.status == 201)
                    .and_then(|r| serde_json::from_str(std::str::from_utf8(&r.body).ok()?).ok())
                    .and_then(|v: Value| v.get("cursor")?.as_u64());
                if cursor == Some(expect_cursor) {
                    *out.acked.entry(name).or_default() += 1;
                } else {
                    out.failed += 1;
                }
            }
            pass += 1;
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        out.writer_secs = started.elapsed().as_secs_f64();
        *want
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(out.sends.len() as u64);
        out.seen = sub.join().unwrap_or_default();
        out
    })
}

/// The feed must carry cursors 1..=n once each and in order, each with
/// the batch classification of its prefix; the reopened store must hold
/// exactly the acknowledged appends.
fn check(chains: &Chains, a: &Appended, dir: &Path, problems: &mut Vec<String>) {
    let n = a.sends.len() as u64;
    let cursors: Vec<u64> = a.seen.iter().map(|s| s.cursor).collect();
    if cursors != (1..=n).collect::<Vec<u64>>() {
        problems.push(format!(
            "stream-append: subscriber saw {} events, not cursors 1..={n} in order",
            cursors.len()
        ));
    }
    let mut index: BTreeMap<String, usize> = BTreeMap::new();
    let passes = (n as usize).div_ceil(chains.order.len().max(1));
    for c in 0..chains.names.len() {
        for pass in 0..passes {
            index.insert(chains.name(c, pass), c);
        }
    }
    let wrong = a
        .seen
        .iter()
        .filter(|s| {
            index.get(&s.project).is_none_or(|&c| {
                let prefix = &chains.commits[c][..(s.seq as usize).min(chains.commits[c].len())];
                classify_commits(&s.project, prefix) != s.after
            })
        })
        .count();
    if wrong > 0 {
        problems.push(format!(
            "stream-append: {wrong} feed events disagree with classify_commits"
        ));
    }
    match StreamStore::open(dir) {
        Ok(store) => {
            let bad = a
                .acked
                .iter()
                .filter(|(name, &k)| store.last_seq(name) != k)
                .count();
            if bad > 0 || store.project_names().len() != a.acked.len() {
                problems.push(format!(
                    "stream-append: reopened store disagrees with the acks for {bad} projects"
                ));
            }
        }
        Err(e) => problems.push(format!("stream-append: store does not reopen: {e}")),
    }
}

/// The tail of each pass's samples (`pass_len` each), and their median:
/// one slow stretch of disk or scheduler time moves one pass, not the
/// run's figure.
fn per_pass_tail(name: &str, samples: &[f64], pass_len: usize) -> Metric {
    let tails: Vec<_> = samples.chunks(pass_len.max(1)).map(tail).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let first = tails.first().copied().unwrap_or_else(|| tail(&[]));
    Metric::new(name, median(&values), "ms", samples.len()).note(format!(
        "median over {} passes of each pass's p{} ({} of {} beyond)",
        tails.len(),
        first.pct,
        first.beyond,
        first.n
    ))
}

fn feed_lags_ms(a: &Appended) -> Vec<f64> {
    a.seen
        .iter()
        .filter_map(|s| {
            let sent = a
                .sends
                .get(usize::try_from(s.cursor).ok()?.checked_sub(1)?)?;
            Some(s.at.saturating_duration_since(*sent).as_secs_f64() * 1e3)
        })
        .collect()
}

fn wal_dir(tag: &str, rep: usize) -> PathBuf {
    report::out_dir().join(format!("wal-{tag}-{}-{rep}", std::process::id()))
}

/// One set-up: a cold build of the corpus the server answers from, the
/// inputs, a fresh WAL directory and a started server. Every set-up does
/// the same work; the server itself reads the process-wide copy of the
/// corpus, which [`run`] builds once before timing.
fn setup_once(seed: u64, jobs: usize, dir: &Path) -> std::io::Result<(Chains, Running)> {
    pipeline::clear_stage_cache();
    black_box(Corpus::generate_jobs(CORPUS_SEED, jobs));
    let chains = Chains::generate(seed);
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let running = Running::start(jobs, dir)?;
    Ok((chains, running))
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: u64, jobs: usize) -> RunResult {
    let mut res = RunResult::default();
    let mut setup_s = Vec::new();
    let mut kept = None;
    // Built here so that no server thread builds it while a later set-up
    // is being timed.
    let _ = schemachron_bench::context::shared_corpus(CORPUS_SEED);
    for rep in 0..SETUP_REPS {
        let dir = wal_dir("e2e", rep);
        let t = Instant::now();
        match setup_once(seed, jobs, &dir) {
            Ok(x) => {
                setup_s.push(t.elapsed().as_secs_f64());
                if let Some((_, old, old_dir)) = kept.replace((x.0, x.1, dir)) {
                    old.stop();
                    let _ = std::fs::remove_dir_all(old_dir);
                }
            }
            Err(e) => {
                res.problems
                    .push(format!("stream-append: set-up failed: {e}"));
                break;
            }
        }
    }
    let Some((chains, running, dir)) = kept else {
        return res;
    };
    if !res.problems.is_empty() {
        running.stop();
        let _ = std::fs::remove_dir_all(&dir);
        return res;
    }
    let a = stream(running.addr, &chains, seconds as f64, &Tracer::new(false));
    running.stop();
    check(&chains, &a, &dir, &mut res.problems);
    let _ = std::fs::remove_dir_all(&dir);

    res.attempted = a.sends.len() as u64;
    res.failed = a.failed;
    let cps = a.sends.len() as f64 / a.writer_secs;
    let lag = feed_lags_ms(&a);
    let pass_len = chains.order.len();
    res.end_to_end(
        &setup_s,
        Metric::new("throughput_per_s", cps, "1/s", a.sends.len()).note("commits_per_s"),
        Metric::new("latency_p50_ms", median(&a.ack_ms), "ms", a.ack_ms.len()).note("POST to ack"),
        per_pass_tail("latency_tail_ms", &a.ack_ms, pass_len),
    );
    res.detail.extend([
        Metric::new("append_p50_ms", median(&a.ack_ms), "ms", a.ack_ms.len()),
        per_pass_tail("append_tail_ms", &a.ack_ms, pass_len),
        Metric::new("commits_per_s", cps, "1/s", a.sends.len()),
        Metric::new("feed_lag_p50_ms", median(&lag), "ms", lag.len()),
        Metric::tail("feed_lag_tail_ms", tail(&lag), "ms"),
    ]);
    res
}

/// One append pass on a fresh set-up and a cold stage cache, checked:
/// the chains, what the pass measured and its `stream-classify` misses.
fn one_pass(
    seed: u64,
    jobs: usize,
    tracer: &Tracer,
    problems: &mut Vec<String>,
) -> Option<(Chains, Appended, u64)> {
    let dir = wal_dir("pass", 0);
    let (chains, running) = match setup_once(seed, jobs, &dir) {
        Ok(x) => x,
        Err(e) => {
            problems.push(format!("stream-append: set-up failed: {e}"));
            return None;
        }
    };
    pipeline::clear_stage_cache();
    pipeline::reset_stage_stats();
    let a = stream(running.addr, &chains, 0.0, tracer);
    running.stop();
    let reruns = pipeline::stage_stats_for(&[STREAM_STAGE])
        .first()
        .map_or(0, |s| s.misses);
    check(&chains, &a, &dir, problems);
    let _ = std::fs::remove_dir_all(&dir);
    Some((chains, a, reruns))
}

/// Per-layer metrics of the stream layer: one traced pass over HTTP for
/// the feed lag and the re-run count, then in-process probes of the
/// store, WAL, classifier, feed and commit handler on the same chains.
pub fn layers(seed: u64, jobs: usize, tracer: &Tracer, problems: &mut Vec<String>) -> Vec<Metric> {
    let Some((chains, a, reruns)) = one_pass(seed, jobs, tracer, problems) else {
        return Vec::new();
    };
    let lag = feed_lags_ms(&a);
    let mut out = vec![
        Metric::new("stream.feed_lag_p50_ms", median(&lag), "ms", lag.len()),
        Metric::tail("stream.feed_lag_tail_ms", tail(&lag), "ms"),
        Metric::new(
            "stream.reruns_per_append",
            reruns as f64 / a.sends.len().max(1) as f64,
            "ratio",
            a.sends.len(),
        )
        .note(format!("{reruns} stream-classify misses")),
    ];
    out.extend(probe(&chains, &wal_dir("probe", 0), tracer));
    out
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn median_us(name: &str, xs: &[f64]) -> Metric {
    Metric::new(name, median(xs), "us", xs.len())
}

/// In-process probes, each over every commit in the generated order.
fn probe(chains: &Chains, dir: &Path, tracer: &Tracer) -> Vec<Metric> {
    let _ = std::fs::remove_dir_all(dir);
    let mut out = Vec::new();

    // StreamStore::append, then Wal::open on every project it wrote.
    let store_dir = dir.join("store");
    let mut store_us = Vec::new();
    if let Ok(mut store) = StreamStore::open(&store_dir) {
        for (i, &(c, pos)) in chains.order.iter().enumerate() {
            let (date, sql) = &chains.commits[c][pos];
            let open = tracer.begin("stream.store_append", None, i as u64);
            let ok = store
                .append(&chains.names[c], pos as u64 + 1, &date.to_string(), sql)
                .is_ok();
            let ns = tracer.end(open);
            if ok {
                store_us.push(us(ns));
            }
        }
    }
    out.push(median_us("stream.store_append_us", &store_us));
    let mut open_us = Vec::new();
    for (i, name) in chains.names.iter().enumerate() {
        let open = tracer.begin("stream.wal_open", None, i as u64);
        let ok = Wal::open(&store_dir.join(name), name).is_ok();
        let ns = tracer.end(open);
        if ok {
            open_us.push(us(ns));
        }
    }
    out.push(median_us("stream.wal_open_us", &open_us));

    // Wal::append (fsync included) and a reference fsync, same directory.
    let wal_dir = dir.join("wal");
    let mut wals: BTreeMap<usize, Wal> = BTreeMap::new();
    let mut append_us = Vec::new();
    for (i, &(c, pos)) in chains.order.iter().enumerate() {
        let name = &chains.names[c];
        let wal = match wals.entry(c) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(e) => {
                match Wal::open(&wal_dir.join(name), name) {
                    Ok(w) => e.insert(w),
                    Err(_) => continue,
                }
            }
        };
        let (date, sql) = &chains.commits[c][pos];
        let rec = WalRecord {
            seq: pos as u64 + 1,
            cursor: i as u64 + 1,
            date: date.to_string(),
            payload: sql.clone(),
        };
        let open = tracer.begin("stream.wal_append", None, i as u64);
        let ok = wal.append(rec).is_ok();
        let ns = tracer.end(open);
        if ok {
            append_us.push(us(ns));
        }
    }
    drop(wals);
    out.push(median_us("stream.wal_append_us", &append_us));
    let mut fsync_us = Vec::new();
    if let Ok(mut f) = std::fs::File::create(wal_dir.join("fsync-probe")) {
        for i in 0..chains.order.len().min(200) {
            if f.write_all(b"schemachron fsync probe record\n").is_err() {
                break;
            }
            let open = tracer.begin("disk.fsync", None, i as u64);
            let ok = f.sync_all().is_ok();
            let ns = tracer.end(open);
            if ok {
                fsync_us.push(us(ns));
            }
        }
    }
    out.push(median_us("disk.fsync_us", &fsync_us));

    // classify_commits on every prefix; also at the longest prefix.
    let mut classify_us = Vec::new();
    let mut by_len: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (c, commits) in chains.commits.iter().enumerate() {
        for k in 1..=commits.len() {
            let open = tracer.begin("stream.classify", None, (c * 100 + k) as u64);
            black_box(classify_commits(&chains.names[c], &commits[..k]));
            let t = us(tracer.end(open));
            classify_us.push(t);
            by_len.entry(k).or_default().push(t);
        }
    }
    out.push(median_us("stream.classify_us", &classify_us));
    if let Some((k, longest)) = by_len.iter().next_back() {
        out.push(
            Metric::new(
                "stream.classify_longest_us",
                median(longest),
                "us",
                longest.len(),
            )
            .note(format!("prefix of {k} commits")),
        );
    }

    // ChangeFeed::emit and events_since on a fresh feed.
    let mut feed = ChangeFeed::new(FEED_CAPACITY);
    let mut emit_us = Vec::new();
    for (i, &(c, pos)) in chains.order.iter().enumerate() {
        let event = ChangeEvent {
            cursor: feed.peek_cursor(),
            project: chains.names[c].clone(),
            seq: pos as u64 + 1,
            date: chains.commits[c][pos].0.to_string(),
            before: None,
            after: "flatliner".to_owned(),
        };
        let open = tracer.begin("stream.feed_emit", None, i as u64);
        feed.emit(event);
        emit_us.push(us(tracer.end(open)));
    }
    let mut since_us = Vec::new();
    for since in 0..chains.order.len() as u64 {
        let open = tracer.begin("stream.events_since", None, since);
        black_box(feed.events_since(since, 64));
        since_us.push(us(tracer.end(open)));
    }
    out.push(median_us("stream.feed_emit_us", &emit_us));
    out.push(median_us("stream.events_since_us", &since_us));

    // The commit route, in process.
    let state = AppState::with_stream_root(CORPUS_SEED, GuardConfig::default(), dir.join("serve"));
    let mut handle_us = Vec::new();
    for (i, &(c, pos)) in chains.order.iter().enumerate() {
        let (date, sql) = &chains.commits[c][pos];
        let req = Request::post_json(
            &format!("/project/{}/commit", chains.names[c]),
            &commit_body(pos as u64 + 1, date, sql),
        );
        let open = tracer.begin("serve.commit_handle", None, i as u64);
        let status = state.handle(&req).status;
        let ns = tracer.end(open);
        if status == 201 {
            handle_us.push(us(ns));
        }
    }
    drop(state);
    out.push(median_us("serve.commit_handle_us", &handle_us));
    let _ = std::fs::remove_dir_all(dir);
    out
}
