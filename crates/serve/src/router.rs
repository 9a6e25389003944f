//! Route dispatch over the shared corpus cache and experiment registry,
//! plus the request guard: per-request deadlines and per-route circuit
//! breakers that shed to a degraded cached answer while a route misbehaves.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use schemachron_bench::context::ExpContext;
use schemachron_bench::experiments::{run_experiment, EXPERIMENT_IDS};
use schemachron_chart::svg::SvgChart;
use schemachron_core::{classify, classify_nearest, Pattern};
use schemachron_corpus::CorpusProject;
use schemachron_fault as fault;
use schemachron_stream::{render as stream_render, Append, StreamError, StreamStore, FEED_CAPACITY};
use serde_json::{json, Map, Value};

use crate::breaker::{Breaker, Gate};
use crate::http::{Request, Response};
use crate::query::{self, Query};

/// Locks a state mutex, ignoring poisoning: every critical section below
/// moves plain data, so a panic mid-section cannot corrupt the map.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a matched route runs, given the `{…}` captures of its pattern.
type Handler = fn(&AppState, &[&str], &Request) -> Response;

/// One row of the route table.
struct Route {
    /// The one method the route accepts.
    method: &'static str,
    /// The path pattern; a segment that starts with `{` matches any one
    /// path segment (the chart route checks its `.svg` suffix itself).
    pattern: &'static str,
    /// The query-string syntax `GET /` lists after the pattern.
    params: &'static str,
    /// The route's circuit-breaker key and `/health` request counter.
    key: &'static str,
    handler: Handler,
}

const fn route(
    method: &'static str,
    pattern: &'static str,
    params: &'static str,
    key: &'static str,
    handler: Handler,
) -> Route {
    Route { method, pattern, params, key, handler }
}

/// Every route, declared once. Dispatch, the `405`/`Allow` rule, the
/// breaker keys, the `/health` request counters and the `GET /` listing
/// all read this table; the first matching pattern wins.
static ROUTES: [Route; 15] = [
    route("GET", "/", "", "index", |_, _, _| index()),
    route("GET", "/health", "", "health", |s, _, _| s.health()),
    route("GET", "/corpus/{seed}/projects", "[?pattern=name]", "corpus_projects", |s, c, r| {
        s.corpus_projects(c[0], r)
    }),
    route("GET", "/project/{id}/history", "[?seed=s]", "project_history", |s, c, r| {
        s.with_project(c[0], r, |p, _| project_history(p))
    }),
    route("GET", "/project/{id}/pattern", "[?seed=s]", "project_pattern", |s, c, r| {
        s.with_project(c[0], r, |p, _| project_pattern(p))
    }),
    route("GET", "/project/{id}/diagnostics", "[?seed=s]", "project_diagnostics", |s, c, r| {
        s.with_project(c[0], r, |p, seed| {
            Response::json(200, &schemachron_lint::lint_project(&p.card, seed).to_json())
        })
    }),
    route(
        "GET",
        "/project/{id}/schema",
        "?asof=YYYY-MM[&seed=s&k=months]",
        "project_schema",
        |s, c, r| s.answer("schema", c, r),
    ),
    route(
        "GET",
        "/project/{id}/diff",
        "?from=YYYY-MM&to=YYYY-MM[&seed=s&k=months]",
        "project_diff",
        |s, c, r| s.answer("diff", c, r),
    ),
    route(
        "GET",
        "/project/{id}/plan",
        "?from=YYYY-MM&to=YYYY-MM&dialect=pg|mysql|sqlite[&rebuild=no&seed=s&k=months]",
        "project_plan",
        |s, c, r| s.answer("plan", c, r),
    ),
    route(
        "GET",
        "/project/{id}/provenance/{table}",
        "[.{column}][?seed=s&k=months]",
        "project_provenance",
        |s, c, r| s.answer("provenance", c, r),
    ),
    route("GET", "/project/{id}/safety", "[?seed=s]", "project_safety", |s, c, r| {
        s.answer("safety", c, r)
    }),
    route("GET", "/experiments/{id}", "", "experiments", |s, c, _| s.experiment(c[0])),
    route("GET", "/chart/{id}.svg", "[?seed=s&w=px&h=px]", "chart", |s, c, r| s.chart(c[0], r)),
    route(
        "POST",
        "/project/{id}/commit",
        "  {\"seq\": n, \"date\": \"YYYY-MM-DD\", \"sql\": \"...\"}",
        "project_commit",
        |s, c, r| s.project_commit(c[0], r),
    ),
    route("GET", "/changes", "[?since=cursor&max=n&wait_ms=t&format=sse]", "changes", |s, _, r| {
        s.changes(r)
    }),
];

/// The row of the first route whose pattern matches `path`, with the path
/// segments its `{…}` segments captured.
fn resolve(path: &str) -> Option<(usize, Vec<&str>)> {
    ROUTES.iter().enumerate().find_map(|(row, route)| {
        let mut segments = path.split('/').filter(|s| !s.is_empty());
        let mut captures = Vec::new();
        for want in route.pattern.split('/').filter(|s| !s.is_empty()) {
            let got = segments.next()?;
            if want.starts_with('{') {
                captures.push(got);
            } else if want != got {
                return None;
            }
        }
        segments.next().is_none().then_some((row, captures))
    })
}

/// Request counters, exported on `/health`: one per route-table row, plus
/// the requests no route took. Relaxed atomics: the counters are
/// observability, not accounting.
#[derive(Debug, Default)]
struct Counters {
    total: AtomicU64,
    routes: [AtomicU64; ROUTES.len()],
    other: AtomicU64,
    shed: AtomicU64,
    deadline_timeouts: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> Value {
        let get = |c: &AtomicU64| Value::from(c.load(Ordering::Relaxed));
        let mut map = Map::new();
        map.insert("total".to_owned(), get(&self.total));
        for (route, count) in ROUTES.iter().zip(&self.routes) {
            map.insert(route.key.to_owned(), get(count));
        }
        map.insert("other".to_owned(), get(&self.other));
        map.insert("shed".to_owned(), get(&self.shed));
        map.insert("deadline_timeouts".to_owned(), get(&self.deadline_timeouts));
        Value::Object(map)
    }
}

/// Request-guard parameters: the per-request wall-clock deadline and the
/// breaker cooldown. Set through `ServerConfig::guard` (and by the chaos
/// harness, which uses much shorter values).
#[derive(Clone, Copy, Debug)]
pub struct GuardConfig {
    /// Wall-clock budget per guarded request; exceeding it answers `504`
    /// while the handler finishes (and is discarded) in the background.
    pub deadline: Duration,
    /// How long an open breaker sheds before admitting a half-open probe.
    pub breaker_cooldown: Duration,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            deadline: Duration::from_secs(10),
            breaker_cooldown: Duration::from_secs(2),
        }
    }
}

/// Shared service state: the default seed, per-seed memoized experiment
/// contexts (each wrapping the process-wide `Arc<Corpus>` cache), uptime
/// and counters.
pub struct AppState {
    default_seed: u64,
    started: Instant,
    counters: Counters,
    contexts: Mutex<HashMap<u64, Arc<ExpContext>>>,
    guard: GuardConfig,
    breakers: Mutex<BTreeMap<&'static str, Breaker>>,
    /// Last good JSON answer per route: `(request target, body bytes)`.
    /// While a route's breaker is open, an exact-target repeat is answered
    /// from here (marked degraded) instead of with a bare `503`.
    degraded: Mutex<BTreeMap<&'static str, (String, Vec<u8>)>>,
    /// Where this state's streaming WALs live.
    stream_root: PathBuf,
    /// The streaming store, opened lazily on the first stream route hit so
    /// read-only deployments never touch the disk.
    stream: Mutex<Option<StreamStore>>,
}

/// Distinguishes the default stream roots of multiple `AppState`s in one
/// process (tests build many); the pid distinguishes processes.
static STREAM_ROOT_ID: AtomicU64 = AtomicU64::new(0);

fn default_stream_root() -> PathBuf {
    std::env::temp_dir().join(format!(
        "schemachron-stream-{}-{}",
        std::process::id(),
        STREAM_ROOT_ID.fetch_add(1, Ordering::Relaxed)
    ))
}

impl AppState {
    /// Builds the state. `default_seed` is used by `/project`, `/chart` and
    /// `/experiments` routes when the request carries no `?seed=`.
    pub fn new(default_seed: u64) -> AppState {
        Self::with_guard(default_seed, GuardConfig::default())
    }

    /// [`AppState::new`] with explicit request-guard parameters. The
    /// streaming store lands in a per-state temp directory; use
    /// [`AppState::with_stream_root`] to persist it across restarts.
    pub fn with_guard(default_seed: u64, guard: GuardConfig) -> AppState {
        Self::with_stream_root(default_seed, guard, default_stream_root())
    }

    /// [`AppState::with_guard`] with an explicit streaming-store root, so
    /// appended commits survive restarts of the service.
    pub fn with_stream_root(
        default_seed: u64,
        guard: GuardConfig,
        stream_root: PathBuf,
    ) -> AppState {
        AppState {
            default_seed,
            started: Instant::now(),
            counters: Counters::default(),
            contexts: Mutex::new(HashMap::new()),
            guard,
            breakers: Mutex::new(BTreeMap::new()),
            degraded: Mutex::new(BTreeMap::new()),
            stream_root,
            stream: Mutex::new(None),
        }
    }

    /// Runs `f` over the streaming store, opening (and replaying) it on
    /// first use; an unopenable store answers `500`.
    fn with_stream_store<R>(
        &self,
        f: impl FnOnce(&mut StreamStore) -> R,
    ) -> Result<R, Response> {
        let mut guard = lock(&self.stream);
        let store = match guard.take() {
            Some(store) => store,
            None => StreamStore::open(&self.stream_root).map_err(|e| {
                Response::json(
                    500,
                    &json!({"error": "stream store unavailable", "detail": (e.to_string())}),
                )
            })?,
        };
        Ok(f(guard.insert(store)))
    }

    /// The memoized context for a seed; the underlying corpus comes from
    /// the process-wide seed-keyed cache, so it is built at most once per
    /// process no matter how many requests race here.
    pub fn context(&self, seed: u64) -> Arc<ExpContext> {
        // A context build never leaves the map half-written, so a poisoned
        // lock (panicking builder on another worker) is safe to re-enter.
        let mut map = self
            .contexts
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry(seed)
                .or_insert_with(|| Arc::new(ExpContext::new(seed))),
        )
    }

    /// Total requests handled so far.
    pub fn total_requests(&self) -> u64 {
        self.counters.total.load(Ordering::Relaxed)
    }

    /// Dispatches one parsed request through the route table. Routing
    /// happens before the method check: a known path with the wrong method
    /// answers `405` with that route's `Allow` header, an unknown path
    /// answers `404` for every method.
    pub fn handle(&self, req: &Request) -> Response {
        self.counters.total.fetch_add(1, Ordering::Relaxed);
        let Some((row, captures)) = resolve(&req.path) else {
            self.counters.other.fetch_add(1, Ordering::Relaxed);
            return Response::json(
                404,
                &json!({"error": "no such route", "path": (req.path.as_str()), "index": "/"}),
            );
        };
        let route = &ROUTES[row];
        if req.method != route.method {
            self.counters.other.fetch_add(1, Ordering::Relaxed);
            return Response::json(
                405,
                &json!({
                    "error": "method not allowed",
                    "method": (req.method.as_str()),
                    "path": (req.path.as_str()),
                    "allow": (route.method),
                }),
            )
            .with_header("Allow", route.method);
        }
        self.counters.routes[row].fetch_add(1, Ordering::Relaxed);
        (route.handler)(self, &captures, req)
    }

    /// [`AppState::handle`] behind the request guard: a per-route circuit
    /// breaker decides admission, an admitted request runs on its own
    /// thread under the configured wall-clock deadline, and its outcome
    /// (status `< 500`) feeds the breaker back.
    ///
    /// - breaker **shed** → a degraded `200` from the per-route cache when
    ///   the exact target was answered before, else `503`;
    /// - deadline exceeded → `504` (the handler finishes detached and its
    ///   response is discarded);
    /// - handler panic → `500`.
    ///
    /// `/health` is exempt from the guard entirely — it must stay
    /// answerable while everything else is on fire, and the chaos fault
    /// plans never reach it.
    pub fn handle_guarded(self: &Arc<Self>, req: &Request) -> Response {
        let route = resolve(&req.path).map_or("other", |(row, _)| ROUTES[row].key);
        if route == "health" {
            return self.handle(req);
        }
        let now = Instant::now();
        let gate = lock(&self.breakers)
            .entry(route)
            .or_default()
            .check(now, self.guard.breaker_cooldown);
        if gate == Gate::Shed {
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            return self.shed_response(route, req);
        }

        let (tx, rx) = mpsc::channel();
        let state = Arc::clone(self);
        let request = req.clone();
        std::thread::spawn(move || {
            fault::slow_point(fault::site::SERVE_REQUEST, &request.target);
            // The receiver may have given up at the deadline; a dead
            // channel just discards the late response.
            let _ = tx.send(state.handle(&request));
        });
        let resp = match rx.recv_timeout(self.guard.deadline) {
            Ok(resp) => resp,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.counters.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
                Response::json(
                    504,
                    &json!({
                        "error": "request deadline exceeded",
                        "route": route,
                        "deadline_ms": (self.guard.deadline.as_millis() as u64),
                    }),
                )
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Response::json(
                500,
                &json!({"error": "handler panicked", "route": route}),
            ),
        };
        let ok = resp.status < 500;
        lock(&self.breakers)
            .entry(route)
            .or_default()
            .record(ok, Instant::now());
        if ok && resp.status == 200 && resp.content_type == "application/json" {
            lock(&self.degraded).insert(route, (req.target.clone(), resp.body.clone()));
        }
        resp
    }

    /// The answer for a shed request: the cached last-good body for the
    /// exact same target, wrapped and marked `degraded`, else a `503`.
    fn shed_response(&self, route: &'static str, req: &Request) -> Response {
        let cached = lock(&self.degraded)
            .get(route)
            .filter(|(target, _)| *target == req.target)
            .and_then(|(_, body)| std::str::from_utf8(body).ok().map(str::to_owned))
            .and_then(|body| serde_json::from_str(&body).ok());
        match cached {
            Some(value) => Response::json(
                200,
                &json!({
                    "degraded": true,
                    "route": route,
                    "reason": "circuit open, serving cached answer",
                    "cached": value,
                }),
            ),
            None => Response::json(
                503,
                &json!({
                    "error": "circuit open",
                    "route": route,
                    "retry_after_ms": (self.guard.breaker_cooldown.as_millis() as u64),
                }),
            ),
        }
    }

    fn health(&self) -> Response {
        // Per-stage hit/miss/wall-time counters of the corpus ingestion
        // pipeline, in pipeline order — the live view of the numbers
        // perfbench reports as its `pipeline.*` per-layer metrics.
        let stages: Vec<Value> = schemachron_corpus::pipeline::stage_stats()
            .iter()
            .map(|s| {
                json!({
                    "stage": (s.stage),
                    "hits": (s.hits),
                    "misses": (s.misses),
                    "quarantined": (s.quarantined),
                    "busy_ms": (s.busy_ns as f64 / 1e6),
                })
            })
            .collect();
        let now = Instant::now();
        let breakers: BTreeMap<&'static str, &'static str> = lock(&self.breakers)
            .iter()
            .map(|(route, b)| (*route, b.state_name(now, self.guard.breaker_cooldown)))
            .collect();
        let injected: BTreeMap<String, u64> = fault::counters();
        Response::json(
            200,
            &json!({
                "status": "ok",
                "service": "schemachron-serve",
                "seed": (self.default_seed),
                "uptime_secs": (self.started.elapsed().as_secs_f64()),
                "corpora_built": (schemachron_corpus::Corpus::build_count()),
                "stage_cache_entries": (schemachron_corpus::pipeline::stage_cache_len()),
                "stages": stages,
                "requests": (self.counters.snapshot()),
                "guard": {
                    "deadline_ms": (self.guard.deadline.as_millis() as u64),
                    "breaker_cooldown_ms": (self.guard.breaker_cooldown.as_millis() as u64),
                    "breakers": (serde_json::to_value(&breakers).unwrap_or(Value::Null)),
                },
                "faults": {
                    "active": (fault::is_active()),
                    "injected_total": (fault::injected_total()),
                    "injected": (serde_json::to_value(&injected).unwrap_or(Value::Null)),
                },
            }),
        )
    }

    fn corpus_projects(&self, seed: &str, req: &Request) -> Response {
        let seed = match query::seed_param(Some(seed), "seed", self.default_seed) {
            Ok(seed) => seed,
            Err(e) => return e.response(),
        };
        let filter = match req.query_param("pattern") {
            None => None,
            Some(name) => match Pattern::from_name(name) {
                Some(p) => Some(p),
                None => {
                    let valid: Vec<&str> = Pattern::ALL.iter().map(|p| p.name()).collect();
                    return Response::json(
                        400,
                        &json!({"error": "unknown pattern", "got": name, "valid": valid}),
                    );
                }
            },
        };
        let ctx = self.context(seed);
        let projects: Vec<Value> = ctx
            .corpus
            .projects()
            .iter()
            .filter(|p| filter.is_none_or(|f| p.assigned == f))
            .map(|p| {
                json!({
                    "name": (p.card.name.as_str()),
                    "pattern": (p.assigned.name()),
                    "family": (p.assigned.family().name()),
                    "exception": (p.exception),
                    "pup_months": (p.metrics.pup_months),
                    "birth_index": (p.metrics.birth_index),
                    "total_activity": (p.metrics.total_activity),
                })
            })
            .collect();
        Response::json(
            200,
            &json!({"seed": seed, "count": (projects.len()), "projects": projects}),
        )
    }

    /// Looks up `id` in the request's corpus (`?seed=`, else the default)
    /// and applies `render` to it and the seed; `404` with the seed echoed
    /// when absent.
    fn with_project(
        &self,
        id: &str,
        req: &Request,
        render: impl FnOnce(&CorpusProject, u64) -> Response,
    ) -> Response {
        let found = query::seed_param(req.query_param("seed"), "seed", self.default_seed)
            .and_then(|seed| {
                let ctx = self.context(seed);
                query::find_project(&ctx.corpus, id, seed).map(|p| render(p, seed))
            });
        found.unwrap_or_else(|e| e.response())
    }

    /// The five query routes (schema, diff, plan, provenance, safety): the
    /// shared [`Query`] parse and [`query::execute`], whose answers are the
    /// CLI's `--format json` output byte for byte.
    fn answer(&self, route: &str, captures: &[&str], req: &Request) -> Response {
        let answer = Query::from_request(route, captures, req, self.default_seed)
            .and_then(|q| query::execute(&self.context(q.seed).corpus, &q));
        match answer {
            Ok(answer) => Response::json(200, &answer.to_json()),
            Err(e) => e.response(),
        }
    }

    /// `POST /project/{id}/commit` — appends one commit to the project's
    /// WAL (durable *before* the ack), re-runs exactly one classification
    /// chain, and announces the pattern transition on the change feed.
    /// Idempotent via client sequence numbers: `201` acknowledges a new
    /// append, `200` a duplicate or out-of-order retry, and a gap is
    /// refused with `409` naming the expected sequence.
    fn project_commit(&self, id: &str, req: &Request) -> Response {
        let Ok(body) = std::str::from_utf8(&req.body) else {
            return Response::json(400, &json!({"error": "commit body must be UTF-8 JSON"}));
        };
        let value: Value = match serde_json::from_str(body) {
            Ok(v) => v,
            Err(_) => {
                return Response::json(
                    400,
                    &json!({
                        "error": "unparsable commit body",
                        "hint": "POST a JSON object: {\"seq\": n, \"date\": \"YYYY-MM-DD\", \"sql\": \"...\"}",
                    }),
                )
            }
        };
        let (Some(seq), Some(date), Some(sql)) = (
            value.get("seq").and_then(Value::as_u64),
            value.get("date").and_then(Value::as_str),
            value.get("sql").and_then(Value::as_str),
        ) else {
            return Response::json(
                400,
                &json!({
                    "error": "commit body needs `seq` (integer), `date` (YYYY-MM-DD) and `sql` (string)",
                }),
            );
        };
        match self.with_stream_store(|store| store.append(id, seq, date, sql)) {
            Err(resp) => resp,
            Ok(Ok(outcome)) => {
                let status = if matches!(outcome, Append::Appended { .. }) {
                    201
                } else {
                    200
                };
                Response::json(status, &stream_render::ack_json(id, &outcome))
            }
            Ok(Err(StreamError::SequenceGap { expected, got })) => Response::json(
                409,
                &json!({
                    "error": "sequence gap",
                    "project": (id),
                    "expected_seq": (expected),
                    "got": (got),
                }),
            ),
            Ok(Err(StreamError::Wal(e))) => Response::json(
                500,
                &json!({"error": "append not durable", "detail": (e.to_string())}),
            ),
            Ok(Err(e)) => Response::json(400, &json!({"error": (e.to_string())})),
        }
    }

    /// `GET /changes?since=cursor` — the change feed. Answers a bounded
    /// batch of transition events after `since` as JSON, or as Server-Sent
    /// Events when `format=sse` (or `Accept: text/event-stream`). SSE
    /// `id:` lines carry cursors and a `Last-Event-ID` header resumes
    /// exactly like `?since=`. `wait_ms` long-polls (capped below the
    /// request deadline) until an event arrives; a subscriber that fell
    /// out of the bounded retention window gets a `lagged` marker.
    fn changes(&self, req: &Request) -> Response {
        let cursor = req.query_param("since").or(req.header("last-event-id"));
        let parsed = (
            number(cursor, 0, |_| true, "cursor must be an unsigned integer"),
            number(req.query_param("max"), 64, |m| *m >= 1, "max must be a positive count"),
            number(req.query_param("wait_ms"), 0, |_| true, "wait_ms must be milliseconds"),
        );
        let (since, max, wait) = match parsed {
            (Ok(since), Ok(max), Ok(ms)) => {
                (since, max.min(FEED_CAPACITY), Duration::from_millis(ms))
            }
            (Err(resp), _, _) | (_, Err(resp), _) | (_, _, Err(resp)) => return resp,
        };
        // The long-poll must answer before the request guard would turn
        // it into a 504.
        let wait = wait.min(self.guard.deadline.saturating_sub(Duration::from_millis(100)));
        let started = Instant::now();
        let batch = loop {
            let batch = match self.with_stream_store(|store| store.events_since(since, max)) {
                Ok(b) => b,
                Err(resp) => return resp,
            };
            if !batch.events.is_empty() || batch.lagged || started.elapsed() >= wait {
                break batch;
            }
            // Poll without holding the store lock across the sleep.
            std::thread::sleep(Duration::from_millis(20));
        };
        let sse = req.query_param("format") == Some("sse")
            || req
                .header("accept")
                .is_some_and(|a| a.contains("text/event-stream"));
        if sse {
            Response::sse(stream_render::sse_frames(&batch))
        } else {
            Response::json(200, &stream_render::changes_json(since, &batch))
        }
    }

    fn experiment(&self, id: &str) -> Response {
        let ctx = self.context(self.default_seed);
        match run_experiment(id, &ctx) {
            Some((_text, value)) => Response::json(200, &value),
            None => Response::json(
                404,
                &json!({
                    "error": "unknown experiment",
                    "got": id,
                    "valid": (EXPERIMENT_IDS.to_vec()),
                }),
            ),
        }
    }

    fn chart(&self, file: &str, req: &Request) -> Response {
        let Some(id) = file.strip_suffix(".svg") else {
            return Response::json(
                404,
                &json!({"error": "charts are served as {id}.svg", "got": file}),
            );
        };
        let defaults = SvgChart::default();
        let dim = |key: &str, fallback: u32| -> u32 {
            req.query_param(key)
                .and_then(|v| v.parse().ok())
                .unwrap_or(fallback)
        };
        let chart = SvgChart::sized(dim("w", defaults.width), dim("h", defaults.height));
        self.with_project(id, req, move |p, _| Response::svg(chart.render(&p.history)))
    }
}

/// An optional numeric query parameter: `default` when absent, else a
/// `400` echoing the value unless it parses and passes `valid`.
fn number<T: std::str::FromStr>(
    raw: Option<&str>,
    default: T,
    valid: fn(&T) -> bool,
    error: &str,
) -> Result<T, Response> {
    let Some(raw) = raw else { return Ok(default) };
    let bad = || Response::json(400, &json!({"error": error, "got": raw}));
    raw.parse().ok().filter(valid).ok_or_else(bad)
}

/// `GET /` — a machine-readable route index: every row of [`ROUTES`] but
/// the index itself (row 0).
fn index() -> Response {
    let routes: Vec<String> = ROUTES[1..]
        .iter()
        .map(|r| format!("{} {}{}", r.method, r.pattern, r.params))
        .collect();
    Response::json(200, &json!({"service": "schemachron-serve", "routes": routes}))
}

/// `GET /project/{id}/history` — the monthly heartbeats.
fn project_history(p: &CorpusProject) -> Response {
    let h = &p.history;
    Response::json(
        200,
        &json!({
            "name": (h.name()),
            "start": (h.start().to_string()),
            "months": (h.month_count()),
            "schema": (h.schema_heartbeat().values()),
            "source": (h.source_heartbeat().values()),
            "expansion_total": (h.expansion_total()),
            "maintenance_total": (h.maintenance_total()),
        }),
    )
}

/// `GET /project/{id}/pattern` — classification plus the Table-1 label
/// tuple and the underlying §3.2 metrics.
fn project_pattern(p: &CorpusProject) -> Response {
    let l = &p.labels;
    let strict = classify(l);
    let (nearest, violation_weight) = classify_nearest(l);
    Response::json(
        200,
        &json!({
            "name": (p.card.name.as_str()),
            "assigned": (p.assigned.name()),
            "family": (p.assigned.family().name()),
            "exception": (p.exception),
            "classified": (strict.map(|c| c.name())),
            "nearest": {
                "pattern": (nearest.name()),
                "violation_weight": violation_weight,
            },
            "labels": {
                "birth_volume": (l.birth_volume.label()),
                "birth_point": (l.birth_point.label()),
                "topband_point": (l.topband_point.label()),
                "interval_birth_to_top": (l.interval_birth_to_top.label()),
                "interval_top_to_end": (l.interval_top_to_end.label()),
                "active_growth": (l.active_growth.label()),
                "active_pup": (l.active_pup.label()),
                "active_growth_months": (l.active_growth_months),
                "has_single_vault": (l.has_single_vault),
            },
            "metrics": (serde_json::to_value(&p.metrics).unwrap_or(Value::Null)),
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str) -> Request {
        Request::get(path)
    }

    fn body_json(r: &Response) -> Value {
        serde_json::from_str(std::str::from_utf8(&r.body).unwrap()).unwrap()
    }

    #[test]
    fn routes_answer_with_expected_shapes() {
        let state = AppState::new(42);
        let name = {
            let ctx = state.context(42);
            ctx.corpus.projects()[0].card.name.clone()
        };

        let health = state.handle(&get("/health"));
        assert_eq!(health.status, 200);
        assert_eq!(body_json(&health)["status"].as_str(), Some("ok"));

        let listing = state.handle(&get("/corpus/42/projects"));
        assert_eq!(listing.status, 200);
        assert_eq!(body_json(&listing)["count"].as_u64(), Some(151));

        let filtered = state.handle(&get("/corpus/42/projects?pattern=flatliner"));
        let n = body_json(&filtered)["count"].as_u64().unwrap();
        assert!(n > 0 && n < 151, "{n}");

        let hist = state.handle(&get(&format!("/project/{name}/history")));
        assert_eq!(hist.status, 200);
        let hist_json = body_json(&hist);
        assert!(hist_json["months"].as_u64().unwrap() > 0);
        assert!(hist_json["schema"].as_array().is_some());

        let pat = state.handle(&get(&format!("/project/{name}/pattern")));
        assert_eq!(pat.status, 200);
        let pat_json = body_json(&pat);
        assert!(pat_json["labels"]["birth_point"].as_str().is_some());
        assert!(pat_json["metrics"]["pup_months"].as_u64().is_some());

        let chart = state.handle(&get(&format!("/chart/{name}.svg?w=320&h=200")));
        assert_eq!(chart.status, 200);
        assert_eq!(chart.content_type, "image/svg+xml");
        let svg = String::from_utf8(chart.body).unwrap();
        assert!(svg.starts_with("<svg") && svg.contains(r#"width="320""#), "{svg}");

        let diags = state.handle(&get(&format!("/project/{name}/diagnostics")));
        assert_eq!(diags.status, 200);
        let diags_json = body_json(&diags);
        // Same JSON shape as `schemachron lint --format json`: a sorted
        // diagnostics array plus the severity summary. A calibrated card
        // has no errors or warnings (narrowing notes are allowed).
        assert!(diags_json["diagnostics"].as_array().is_some(), "{diags_json}");
        assert_eq!(diags_json["summary"]["errors"].as_u64(), Some(0));
        assert_eq!(diags_json["summary"]["warnings"].as_u64(), Some(0));
        let direct = schemachron_lint::lint_project(
            &state.context(42).corpus.projects()[0].card,
            42,
        );
        assert_eq!(diags_json, direct.to_json());

        // Eight requests so far, all counted.
        assert_eq!(
            body_json(&state.handle(&get("/health")))["requests"]["total"].as_u64(),
            Some(8)
        );
    }

    #[test]
    fn asof_routes_answer_and_reject_bad_months() {
        // A fresh state: `routes_answer_with_expected_shapes` pins its own
        // request total and must not see these requests.
        let state = AppState::new(42);
        let (name, start, last) = {
            let ctx = state.context(42);
            // A project whose schema still changes after its first month,
            // so the start→last diff below is non-empty (a flatliner's
            // would be: its whole schema is born in month one).
            ctx.corpus
                .projects()
                .iter()
                .find_map(|p| {
                    let index = schemachron_asof::AsOfIndex::build(&p.history, 12)?;
                    let d = index.diff_between(index.start(), index.last_month())?;
                    (d.attribute_change_count() > 0).then(|| {
                        (
                            p.card.name.clone(),
                            index.start().to_string(),
                            index.last_month().to_string(),
                        )
                    })
                })
                .unwrap()
        };

        let ok = state.handle(&get(&format!("/project/{name}/schema?asof={last}")));
        assert_eq!(ok.status, 200);
        let ok_json = body_json(&ok);
        assert_eq!(ok_json["project"].as_str(), Some(name.as_str()));
        assert_eq!(ok_json["asof"].as_str(), Some(last.as_str()));
        assert!(ok_json["table_count"].as_u64().unwrap() > 0);
        assert!(ok_json["schema"]["tables"].as_object().is_some());

        let d = state.handle(&get(&format!(
            "/project/{name}/diff?from={start}&to={last}"
        )));
        assert_eq!(d.status, 200);
        let d_json = body_json(&d);
        assert!(d_json["attribute_changes"].as_u64().unwrap() > 0);

        // Any table of the final schema has provenance, and the route
        // accepts both `table` and `table.column` subjects.
        let table = ok_json["schema"]["tables"]
            .as_object()
            .and_then(|m| m.keys().next())
            .cloned()
            .unwrap();
        let prov = state.handle(&get(&format!("/project/{name}/provenance/{table}")));
        assert_eq!(prov.status, 200);
        let prov_json = body_json(&prov);
        assert_eq!(prov_json["alive"].as_bool(), Some(true));
        assert!(prov_json["introduced"]["month"].as_str().is_some());

        // Missing and malformed months: 400 with a hint, never 404.
        for bad in [
            format!("/project/{name}/schema"),
            format!("/project/{name}/schema?asof=2009-13"),
            format!("/project/{name}/schema?asof=March-2009"),
            format!("/project/{name}/diff?from={start}"),
            format!("/project/{name}/diff?from=x&to={last}"),
        ] {
            let r = state.handle(&get(&bad));
            assert_eq!(r.status, 400, "{bad}");
            assert!(body_json(&r)["hint"].as_str().is_some(), "{bad}");
        }
        // Parseable but outside the observed lifespan: 422, echoing it.
        let out = state.handle(&get(&format!("/project/{name}/schema?asof=1901-01")));
        assert_eq!(out.status, 422);
        assert_eq!(
            body_json(&out)["lifespan"]["start"].as_str(),
            Some(start.as_str())
        );
        // Bad `?k=` is also a 400; a ghost subject is a 404.
        let bad_k = state.handle(&get(&format!("/project/{name}/schema?asof={last}&k=zero")));
        assert_eq!(bad_k.status, 400);
        let ghost = state.handle(&get(&format!("/project/{name}/provenance/no_such_table")));
        assert_eq!(ghost.status, 404);
    }

    #[test]
    fn plan_route_renders_dialect_scripts_and_echoes_refusals() {
        // A fresh state: `routes_answer_with_expected_shapes` pins its own
        // request total and must not see these requests.
        let state = AppState::new(42);
        let (name, start, last) = {
            let ctx = state.context(42);
            ctx.corpus
                .projects()
                .iter()
                .find_map(|p| {
                    let index = schemachron_asof::AsOfIndex::build(&p.history, 12)?;
                    let d = index.diff_between(index.start(), index.last_month())?;
                    (d.attribute_change_count() > 0).then(|| {
                        (
                            p.card.name.clone(),
                            index.start().to_string(),
                            index.last_month().to_string(),
                        )
                    })
                })
                .unwrap()
        };

        // Every dialect plans the full lifespan; mysql always can (the
        // corpus dumps are its own flavor, rebuilds cover the rest).
        for dialect in schemachron_dialect::DIALECT_KEYWORDS {
            let r = state.handle(&get(&format!(
                "/project/{name}/plan?from={start}&to={last}&dialect={dialect}"
            )));
            assert_eq!(r.status, 200, "{dialect}");
            let body = body_json(&r);
            assert_eq!(body["project"].as_str(), Some(name.as_str()));
            assert_eq!(body["from"].as_str(), Some(start.as_str()));
            assert!(body["statement_count"].as_u64().unwrap() > 0, "{dialect}");
            assert!(body["statements"][0]["sql"].as_str().is_some(), "{dialect}");
        }

        // A same-month span plans an empty script.
        let empty = state.handle(&get(&format!(
            "/project/{name}/plan?from={start}&to={start}&dialect=pg"
        )));
        assert_eq!(empty.status, 200);
        assert_eq!(body_json(&empty)["statement_count"].as_u64(), Some(0));

        // Missing or unknown dialect: 400 listing the keywords.
        for bad in [
            format!("/project/{name}/plan?from={start}&to={last}"),
            format!("/project/{name}/plan?from={start}&to={last}&dialect=oracle"),
        ] {
            let r = state.handle(&get(&bad));
            assert_eq!(r.status, 400, "{bad}");
            let body = body_json(&r);
            assert!(body["error"].as_str().is_some(), "{bad}");
            assert_eq!(body["expected"][0].as_str(), Some("pg"), "{bad}");
        }
        // Months outside the lifespan: 422 echoing it, like /diff.
        let out = state.handle(&get(&format!(
            "/project/{name}/plan?from=1901-01&to={last}&dialect=pg"
        )));
        assert_eq!(out.status, 422);
        assert_eq!(
            body_json(&out)["lifespan"]["start"].as_str(),
            Some(start.as_str())
        );

        // `rebuild=no` on a span sqlite cannot express in place: 422 with
        // the offending op echoed as typed fields, not prose.
        let refused = state.handle(&get(
            "/project/curated-132/plan?from=2015-12&to=2017-06&dialect=sqlite&rebuild=no",
        ));
        assert_eq!(refused.status, 422);
        let body = body_json(&refused);
        assert_eq!(body["error"].as_str(), Some("unsupported_diff_op"));
        assert_eq!(body["dialect"].as_str(), Some("sqlite"));
        assert!(
            body["op"].as_str().unwrap().starts_with("alter_column "),
            "{body}"
        );
        assert_eq!(body["reason"].as_str(), Some("sqlite has no ALTER COLUMN"));
    }

    #[test]
    fn route_table_drives_the_index_and_the_counters() {
        let state = AppState::new(42);
        let index = body_json(&state.handle(&get("/")));
        assert_eq!(index["routes"].as_array().map(Vec::len), Some(ROUTES.len() - 1));
        assert_eq!(index["routes"][0].as_str(), Some("GET /health"));
        let requests = &body_json(&state.handle(&get("/health")))["requests"];
        for key in ROUTES.iter().map(|r| r.key).chain(["total", "other", "shed"]) {
            assert!(requests[key].as_u64().is_some(), "{key}");
        }
        assert_eq!(requests["index"].as_u64(), Some(1));
        assert_eq!(requests["health"].as_u64(), Some(1));
        assert_eq!(requests["deadline_timeouts"].as_u64(), Some(0));
    }

    #[test]
    fn experiment_route_matches_registry_json() {
        let state = AppState::new(42);
        let resp = state.handle(&get("/experiments/exp_table2"));
        assert_eq!(resp.status, 200);
        let direct = run_experiment("exp_table2", &state.context(42)).unwrap().1;
        assert_eq!(body_json(&resp), direct);
    }

    #[test]
    fn error_paths_are_json() {
        let state = AppState::new(42);
        assert_eq!(state.handle(&get("/nope/nowhere")).status, 404);
        assert_eq!(state.handle(&get("/corpus/abc/projects")).status, 400);
        assert_eq!(
            state.handle(&get("/corpus/42/projects?pattern=zigzag")).status,
            400
        );
        assert_eq!(state.handle(&get("/experiments/exp_nope")).status, 404);
        assert_eq!(state.handle(&get("/project/ghost/pattern")).status, 404);
        assert_eq!(state.handle(&get("/project/ghost/history?seed=oops")).status, 400);
        assert_eq!(state.handle(&get("/chart/ghost.svg")).status, 404);
        assert_eq!(state.handle(&get("/chart/noext")).status, 404);
        let mut post = get("/health");
        post.method = "POST".into();
        assert_eq!(state.handle(&post).status, 405);
        for path in ["/nope", "/experiments/exp_nope"] {
            let r = state.handle(&get(path));
            assert!(body_json(&r)["error"].as_str().is_some(), "{path}");
        }
    }

    #[test]
    fn method_mismatch_routes_first_and_names_the_allowed_method() {
        let state = AppState::new(42);
        // A known GET route hit with POST: 405 carrying that route's Allow.
        let post_health = Request::post_json("/health", "{}");
        let r = state.handle(&post_health);
        assert_eq!(r.status, 405);
        assert_eq!(r.header("Allow"), Some("GET"));
        assert_eq!(body_json(&r)["allow"].as_str(), Some("GET"));
        // The POST-only commit route hit with GET: 405 with Allow: POST.
        let r = state.handle(&get("/project/p/commit"));
        assert_eq!(r.status, 405);
        assert_eq!(r.header("Allow"), Some("POST"));
        // An unknown path is 404 for every method — routing came first.
        let r = state.handle(&Request::post_json("/no/such/route", "{}"));
        assert_eq!(r.status, 404);
        assert!(r.header("Allow").is_none());
    }

    fn stream_state(tag: &str) -> (AppState, std::path::PathBuf) {
        let root = std::env::temp_dir().join(format!(
            "schemachron-serve-stream-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let state = AppState::with_stream_root(42, GuardConfig::default(), root.clone());
        (state, root)
    }

    fn commit(state: &AppState, project: &str, seq: u64, date: &str, sql: &str) -> Response {
        let body = format!(r#"{{"seq": {seq}, "date": "{date}", "sql": "{sql}"}}"#);
        state.handle(&Request::post_json(
            &format!("/project/{project}/commit"),
            &body,
        ))
    }

    #[test]
    fn commit_route_acks_appends_and_refuses_gaps() {
        let (state, root) = stream_state("commit");
        // First append: 201 with the transition in the ack.
        let r = commit(&state, "live-a", 1, "2020-01-10", "CREATE TABLE t (a INT);");
        assert_eq!(r.status, 201, "{:?}", String::from_utf8_lossy(&r.body));
        let ack = body_json(&r);
        assert_eq!(ack["status"].as_str(), Some("appended"));
        assert_eq!(ack["cursor"].as_u64(), Some(1));
        assert!(ack["transition"]["before"].is_null());
        assert!(ack["transition"]["after"].as_str().is_some());
        // A retried seq: 200 duplicate, nothing re-emitted.
        let r = commit(&state, "live-a", 1, "2020-01-10", "CREATE TABLE t (a INT);");
        assert_eq!(r.status, 200);
        assert_eq!(body_json(&r)["status"].as_str(), Some("duplicate"));
        // A gap: 409 naming the expected sequence.
        let r = commit(&state, "live-a", 7, "2020-02-10", "DROP TABLE t;");
        assert_eq!(r.status, 409);
        let gap = body_json(&r);
        assert_eq!(gap["expected_seq"].as_u64(), Some(2));
        assert_eq!(gap["got"].as_u64(), Some(7));
        // Bad input: 400s.
        assert_eq!(
            state
                .handle(&Request::post_json("/project/live-a/commit", "not json"))
                .status,
            400
        );
        assert_eq!(
            state
                .handle(&Request::post_json("/project/live-a/commit", r#"{"seq": 2}"#))
                .status,
            400
        );
        assert_eq!(
            commit(&state, "live-a", 2, "01/10/2020", "DROP TABLE t;").status,
            400
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn changes_route_serves_json_and_sse_with_resume() {
        let (state, root) = stream_state("changes");
        assert_eq!(commit(&state, "live-b", 1, "2020-01-10", "CREATE TABLE t (a INT);").status, 201);
        assert_eq!(
            commit(&state, "live-b", 2, "2021-06-10", "ALTER TABLE t ADD COLUMN b INT;").status,
            201
        );

        let r = state.handle(&get("/changes?since=0"));
        assert_eq!(r.status, 200);
        let body = body_json(&r);
        assert_eq!(body["events"].as_array().map(Vec::len), Some(2));
        assert_eq!(body["next_cursor"].as_u64(), Some(2));
        assert_eq!(body["lagged"].as_bool(), Some(false));
        assert_eq!(body["events"][0]["project"].as_str(), Some("live-b"));

        // `since` resumes mid-stream.
        let r = state.handle(&get("/changes?since=1"));
        assert_eq!(body_json(&r)["events"].as_array().map(Vec::len), Some(1));

        // SSE framing: ids carry cursors; Last-Event-ID resumes like since.
        let r = state.handle(&get("/changes?format=sse"));
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "text/event-stream");
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("id: 1\nevent: transition\ndata: "), "{text}");
        let mut resume = get("/changes?format=sse");
        resume
            .headers
            .push(("last-event-id".to_owned(), "1".to_owned()));
        let r = state.handle(&resume);
        let text = String::from_utf8(r.body).unwrap();
        assert!(!text.contains("id: 1\n"), "{text}");
        assert!(text.contains("id: 2\n"), "{text}");

        // Bad cursors and counts are 400s.
        assert_eq!(state.handle(&get("/changes?since=x")).status, 400);
        assert_eq!(state.handle(&get("/changes?max=0")).status, 400);
        assert_eq!(state.handle(&get("/changes?wait_ms=soon")).status, 400);
        let _ = std::fs::remove_dir_all(&root);
    }
}
