//! The TCP accept loop, graceful shutdown and structured request logging.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::json;

use crate::http;
use crate::router::{AppState, GuardConfig};

/// How often the accept loop wakes up to check for a shutdown request
/// while no connections arrive.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:8080` (port `0` picks a free one).
    pub addr: SocketAddr,
    /// Worker-pool size (min 1).
    pub jobs: usize,
    /// Bound on connections queued ahead of the workers; beyond it the
    /// accept loop answers `503` itself (backpressure).
    pub queue_depth: usize,
    /// Default corpus seed for routes without an explicit `?seed=`.
    pub seed: u64,
    /// Suppress the per-request log lines (used by tests and benches).
    pub quiet: bool,
    /// The request guard: per-request deadline and breaker cooldown.
    pub guard: GuardConfig,
    /// Root directory for the streaming WALs (`POST /project/{id}/commit`).
    /// `None` uses a per-process temp directory: appends work but do not
    /// survive a restart of the service.
    pub stream_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 8080)),
            jobs: schemachron_corpus::effective_jobs().max(2),
            queue_depth: 128,
            seed: schemachron_bench::DEFAULT_SEED,
            quiet: false,
            guard: GuardConfig::default(),
            stream_dir: None,
        }
    }
}

/// Requests a running [`Server`] to stop accepting and drain. Cloneable;
/// safe to trigger from any thread (and from a signal handler — it is a
/// single atomic store).
#[derive(Clone, Debug)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Asks the server to shut down gracefully: stop accepting, serve every
    /// queued and in-flight request, then return from [`Server::run`].
    pub fn request_shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A bound (but not yet running) HTTP service.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    config: ServerConfig,
    shutdown: ShutdownHandle,
}

impl Server {
    /// Binds the listener and prepares shared state. The corpus is *not*
    /// built yet; [`Server::run`] warms it before accepting so the first
    /// real request never pays the build.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        let state = match &config.stream_dir {
            Some(dir) => AppState::with_stream_root(config.seed, config.guard, dir.clone()),
            None => AppState::with_guard(config.seed, config.guard),
        };
        Ok(Server {
            listener,
            state: Arc::new(state),
            config,
            shutdown: ShutdownHandle {
                flag: Arc::new(AtomicBool::new(false)),
            },
        })
    }

    /// The actually-bound address (resolves port `0`). Falls back to the
    /// configured address in the (theoretical) case the OS cannot report
    /// the bound one.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().unwrap_or(self.config.addr)
    }

    /// A handle that stops this server from another thread or a signal.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Installs this server's [`ShutdownHandle`] as the process SIGINT and
    /// SIGTERM target, turning Ctrl-C into a graceful drain. First caller
    /// wins (one server per process is the CLI's shape).
    #[cfg(unix)]
    pub fn install_signal_handler(&self) {
        signal::install(self.shutdown_handle());
    }

    /// Serves until shutdown is requested; returns the number of requests
    /// handled. Connections already queued when shutdown arrives are still
    /// served (poison-pill drain).
    pub fn run(self) -> std::io::Result<u64> {
        let state = Arc::clone(&self.state);
        // Warm the default corpus so /health answers immediately and
        // concurrent first requests cannot pile up behind the build.
        let _ = state.context(self.config.seed);

        let handler_state = Arc::clone(&self.state);
        let quiet = self.config.quiet;
        let pool = crate::pool::WorkerPool::new(
            self.config.jobs,
            self.config.queue_depth,
            Arc::new(move |stream| handle_connection(&handler_state, stream, quiet)),
        );

        self.listener.set_nonblocking(true)?;
        loop {
            // Check the flag *before* accepting, then keep accepting until
            // the backlog is empty: every connection established before the
            // shutdown request is still served.
            let stopping = self.shutdown.is_requested();
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_read_timeout(Some(http::READ_TIMEOUT));
                    let _ = stream.set_write_timeout(Some(http::WRITE_TIMEOUT));
                    let _ = stream.set_nonblocking(false);
                    if let Err(mut bounced) = pool.try_dispatch(stream) {
                        // Queue full: shed load right here.
                        let resp = http::Response::json(
                            503,
                            &json!({"error": "server overloaded, retry later"}),
                        );
                        let _ = resp.write_to(&mut bounced);
                        http::finish(&mut bounced);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if stopping {
                        break;
                    }
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Stop accepting, then drain: queued connections are served before
        // the poison pills reach the workers.
        drop(self.listener);
        pool.shutdown();
        let served = self.state.total_requests();
        if !self.config.quiet {
            eprintln!("{}", json!({"evt": "shutdown", "requests_served": served}));
        }
        Ok(served)
    }
}

/// One connection: parse (bounded, timed), route through the request
/// guard, respond, log, close.
fn handle_connection(state: &Arc<AppState>, mut stream: TcpStream, quiet: bool) {
    let started = Instant::now();
    let (resp, method, target) = match http::read_request(&mut stream) {
        Ok(req) => {
            let resp = state.handle_guarded(&req);
            (resp, req.method, req.target)
        }
        Err(e) => (e.response(), "-".to_owned(), "-".to_owned()),
    };
    // Injected connection drop: the response is computed but never makes
    // it onto the wire — the client sees the connection die.
    if schemachron_fault::conn_drop_point(&target) {
        if !quiet {
            eprintln!(
                "{}",
                serde_json::json!({"evt": "conn-drop", "target": (target.as_str())})
            );
        }
        return;
    }
    let ok = resp.write_to(&mut stream).is_ok();
    http::finish(&mut stream);
    if !quiet {
        let ms = started.elapsed().as_secs_f64() * 1000.0;
        eprintln!(
            "{}",
            json!({
                "evt": "request",
                "method": method,
                "target": target,
                "status": (resp.status),
                "bytes": (resp.body.len()),
                "ms": ((ms * 1000.0).round() / 1000.0),
                "delivered": ok,
            })
        );
    }
}

/// SIGINT/SIGTERM → [`ShutdownHandle`] wiring, dependency-free: the C
/// `signal(2)` entry point ships with `std`'s own libc linkage. The handler
/// body is a single atomic store, which is async-signal-safe.
///
/// This module is the one audited `unsafe` exception in the workspace
/// (every other crate is `#![forbid(unsafe_code)]`; this crate denies it
/// and re-allows it here only).
// SAFETY: the only unsafe operations are the `signal(2)` FFI declaration
// and its two call sites below. `signal` is a libc entry point with the
// declared C ABI; the handler passed in is an `extern "C" fn` whose body
// performs a single `AtomicBool` store via `ShutdownHandle` — an
// async-signal-safe operation — and reads a `OnceLock` that is only ever
// written before the handler is installed.
#[cfg(unix)]
#[allow(unsafe_code)]
mod signal {
    use super::ShutdownHandle;
    use std::sync::OnceLock;

    static TARGET: OnceLock<ShutdownHandle> = OnceLock::new();

    type SigHandler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: SigHandler) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        if let Some(h) = TARGET.get() {
            h.request_shutdown();
        }
    }

    pub fn install(handle: ShutdownHandle) {
        if TARGET.set(handle).is_ok() {
            unsafe {
                signal(SIGINT, on_signal);
                signal(SIGTERM, on_signal);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binds_port_zero_and_shuts_down_idle() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            jobs: 2,
            quiet: true,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0);
        let handle = server.shutdown_handle();
        let t = std::thread::spawn(move || server.run());
        handle.request_shutdown();
        let served = t.join().unwrap().unwrap();
        assert_eq!(served, 0);
    }

    #[test]
    fn rebinding_same_port_fails() {
        let first = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            quiet: true,
            ..ServerConfig::default()
        })
        .unwrap();
        let clash = ServerConfig {
            addr: first.local_addr(),
            quiet: true,
            ..ServerConfig::default()
        };
        let err = match Server::bind(clash) {
            Ok(_) => panic!("port is taken, bind must fail"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    }
}
