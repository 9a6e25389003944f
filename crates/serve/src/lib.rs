#![deny(unsafe_code)]
#![warn(missing_docs)]

//! # schemachron-serve
//!
//! An embedded, dependency-free HTTP/1.1 JSON service over the corpus,
//! pattern classification and experiment artifacts — the long-lived query
//! form of the batch pipeline, exposed by the CLI as `schemachron serve`.
//!
//! ## Routes
//!
//! The route table (`ROUTES` in [`router`]) is the one declaration of every route: its method,
//! path pattern, query syntax, breaker and counter key, and handler.
//! Dispatch, the `405`/`Allow` rule, the per-route breakers, the `/health`
//! request counters and the `GET /` listing all read it, so `GET /` on a
//! running server is the authoritative route list.
//!
//! The five history queries (`/project/{id}/schema`, `diff`, `plan`,
//! `provenance/{table}` and `safety`) go through [`query`]: one typed
//! parse, one `execute` and one error table shared with the
//! `schemachron asof|plan|safety` commands, so both surfaces answer the
//! same query with the same bytes.
//!
//! ## Architecture
//!
//! [`Server`] owns a `std::net::TcpListener` and a bounded [`pool`] of
//! worker threads; the accept loop hands each connection to the pool and
//! answers `503` itself when the queue is full (backpressure instead of
//! unbounded buffering). All routes read from the process-wide, seed-keyed
//! `Arc<Corpus>` cache and the memoized `ExpContext` models, so a server
//! under concurrent load builds each corpus exactly once
//! (`Corpus::build_count()` is the observable proof). Shutdown is graceful:
//! a [`ShutdownHandle`] (wired to SIGINT/SIGTERM by the CLI) stops the
//! accept loop, poison pills drain the workers, and in-flight requests
//! complete before the process exits.
//!
//! ## Resilience
//!
//! Every non-`/health` request runs behind a guard
//! ([`AppState::handle_guarded`]): a per-request wall-clock deadline
//! (`504` past it) and a per-route circuit [`breaker`] that sheds load
//! to a degraded cached answer (or `503`) while a route keeps failing,
//! then probes half-open after a cooldown. `/health` reports breaker
//! states and `schemachron-fault` injection counters.
//!
//! ## Streaming
//!
//! `POST /project/{id}/commit` appends one commit to the project's
//! crash-safe WAL (`schemachron-stream`, fsync *before* the ack),
//! re-runs exactly one classification chain, and announces the pattern
//! transition on the bounded `GET /changes` feed — JSON long-poll or
//! Server-Sent Events with `Last-Event-ID` resume. Appends are
//! idempotent via client sequence numbers. Dispatch resolves the route
//! before checking the method, so a wrong-method request answers `405`
//! with that route's `Allow` header while unknown paths stay `404`.

pub mod breaker;
pub mod http;
pub mod pool;
pub mod query;
pub mod router;
pub mod server;

pub use router::{AppState, GuardConfig};
pub use server::{Server, ServerConfig, ShutdownHandle};
