//! A minimal HTTP/1.0 admin endpoint for scraping telemetry.
//!
//! The build environment has no crates.io access, so there is no HTTP
//! framework to lean on; this module hand-rolls exactly the sliver of
//! HTTP/1.0 a Prometheus scraper (or `curl`) needs: parse a `GET` request
//! line, answer with `Content-Length` + `Connection: close`, close the
//! socket. It rides the same `Poller` the event
//! loop uses, on its own thread, so a stalled scraper can never block a
//! reconciliation session.
//!
//! Routes:
//!
//! * `GET /metrics` — the full [`obs::Registry`] in Prometheus text
//!   exposition format (global `pbs_server_*` families plus per-store
//!   `pbs_store_*{store="..."}` families).
//! * `GET /healthz` — `200 ok` while serving, `503 draining` once the
//!   server's shutdown signal is raised. The admin listener itself stays
//!   up through the drain so orchestrators can watch it flip.
//! * `GET /stats.json` — the [`StatsSnapshot`] compatibility view as a
//!   JSON object: `{"server": {...}, "stores": {"<name>": {...}}}`.
//!
//! The metric catalog is documented in `docs/OBSERVABILITY.md`.

use crate::poll::{Interest, Poller};
use crate::server::{Server, ServerStats, StatsSnapshot};
use crate::store::StoreRegistry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest request head (request line + headers) accepted before the
/// connection is answered with `400` and closed. Scrape requests are a
/// few dozen bytes; anything bigger is not a scraper.
const MAX_REQUEST: usize = 4096;

/// Per-connection deadline: a scraper that has neither finished its
/// request nor drained its response within this window is dropped.
const CONN_DEADLINE: Duration = Duration::from_secs(5);

/// How often the accept loop wakes to check the stop flag even when no
/// descriptor is ready.
const TICK: Duration = Duration::from_millis(250);

/// The telemetry sources an [`AdminServer`] serves from.
///
/// Split out from [`Server`] so tests (and embedders that run the event
/// loop themselves) can stand up an endpoint without a full server.
#[derive(Clone)]
pub struct AdminState {
    /// Metric registry rendered by `GET /metrics`.
    pub metrics: Arc<obs::Registry>,
    /// Server-wide counters for `GET /stats.json`.
    pub stats: Arc<ServerStats>,
    /// Store registry walked for the per-store half of `/stats.json`.
    pub registry: Arc<StoreRegistry>,
    /// When `true`, `GET /healthz` answers `503 draining`.
    pub draining: Arc<AtomicBool>,
}

impl std::fmt::Debug for AdminState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdminState")
            .field("draining", &self.draining.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl AdminState {
    /// The state an admin endpoint for `server` serves: its metric
    /// registry, its stats block, its store registry, and its shutdown
    /// signal as the draining flag.
    pub fn of(server: &Server) -> AdminState {
        AdminState {
            metrics: server.metrics(),
            stats: server.stats(),
            registry: server.registry(),
            draining: server.shutdown_signal(),
        }
    }
}

/// A running admin endpoint. Dropping it stops the listener thread.
#[derive(Debug)]
pub struct AdminServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Bind `addr` and serve `state` from a dedicated thread.
    pub fn bind(addr: impl ToSocketAddrs, state: AdminState) -> io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("pbs-admin".into())
            .spawn(move || serve(listener, state, thread_stop))?;
        Ok(AdminServer {
            local_addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One in-flight scrape connection.
struct Conn {
    stream: TcpStream,
    /// Request bytes accumulated so far (until the blank line).
    request: Vec<u8>,
    /// Response bytes once the request has been answered; empty while
    /// still reading.
    response: Vec<u8>,
    written: usize,
    accepted: Instant,
}

impl Conn {
    fn responding(&self) -> bool {
        !self.response.is_empty()
    }
}

fn serve(listener: TcpListener, state: AdminState, stop: Arc<AtomicBool>) {
    let mut poller = Poller::new();
    let mut conns: Vec<Conn> = Vec::new();
    let mut interests = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        interests.clear();
        interests.push((listener.as_raw_fd(), Interest::READABLE));
        for conn in &conns {
            let interest = if conn.responding() {
                Interest {
                    readable: false,
                    writable: true,
                }
            } else {
                Interest::READABLE
            };
            interests.push((conn.stream.as_raw_fd(), interest));
        }
        let events = match poller.wait(&interests, Some(TICK)) {
            Ok(events) => events,
            Err(_) => break,
        };
        for event in events {
            if event.fd == listener.as_raw_fd() {
                accept_all(&listener, &mut conns);
                continue;
            }
            let Some(i) = conns.iter().position(|c| c.stream.as_raw_fd() == event.fd) else {
                continue;
            };
            let alive = if event.error && !conns[i].responding() {
                false
            } else if conns[i].responding() {
                flush(&mut conns[i])
            } else {
                read_request(&mut conns[i], &state)
            };
            if !alive {
                conns.swap_remove(i);
            }
        }
        conns.retain(|c| c.accepted.elapsed() < CONN_DEADLINE);
    }
}

fn accept_all(listener: &TcpListener, conns: &mut Vec<Conn>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                conns.push(Conn {
                    stream,
                    request: Vec::new(),
                    response: Vec::new(),
                    written: 0,
                    accepted: Instant::now(),
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Pull request bytes; once the head is complete, stage the response.
/// Returns `false` when the connection should be dropped.
fn read_request(conn: &mut Conn, state: &AdminState) -> bool {
    let mut buf = [0u8; 1024];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => return false,
            Ok(n) => {
                conn.request.extend_from_slice(&buf[..n]);
                if conn.request.len() > MAX_REQUEST {
                    conn.response = response(400, "text/plain; charset=utf-8", "bad request\n");
                    return flush(conn);
                }
                if head_complete(&conn.request) {
                    conn.response = respond(&conn.request, state);
                    return flush(conn);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Write staged response bytes. Returns `false` once fully flushed (the
/// connection is done) or on error.
fn flush(conn: &mut Conn) -> bool {
    while conn.written < conn.response.len() {
        match conn.stream.write(&conn.response[conn.written..]) {
            Ok(0) => return false,
            Ok(n) => conn.written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    false
}

fn head_complete(request: &[u8]) -> bool {
    request.windows(4).any(|w| w == b"\r\n\r\n") || request.windows(2).any(|w| w == b"\n\n")
}

/// Route a complete request head to a response.
fn respond(request: &[u8], state: &AdminState) -> Vec<u8> {
    let head = String::from_utf8_lossy(request);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let path = target.split('?').next().unwrap_or("");
    if method != "GET" {
        return response(405, "text/plain; charset=utf-8", "method not allowed\n");
    }
    match path {
        "/metrics" => response(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &state.metrics.render_prometheus(),
        ),
        "/healthz" => {
            if state.draining.load(Ordering::SeqCst) {
                response(503, "text/plain; charset=utf-8", "draining\n")
            } else {
                response(200, "text/plain; charset=utf-8", "ok\n")
            }
        }
        "/stats.json" => response(200, "application/json", &stats_json(state)),
        _ => response(404, "text/plain; charset=utf-8", "not found\n"),
    }
}

fn response(status: u16, content_type: &str, body: &str) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let mut out = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

fn snapshot_object(s: &StatsSnapshot) -> String {
    let fields: Vec<String> = s
        .fields()
        .iter()
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn stats_json(state: &AdminState) -> String {
    let mut out = String::new();
    out.push_str("{\"server\":");
    out.push_str(&snapshot_object(&state.stats.snapshot()));
    out.push_str(",\"stores\":{");
    let mut first = true;
    for name in state.registry.names() {
        let Some(entry) = state.registry.get(&name) else {
            continue;
        };
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        out.push_str(&obs::trace::json_escape(&name));
        out.push_str("\":");
        out.push_str(&snapshot_object(&entry.stats().snapshot()));
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_and_status_lines() {
        let state = AdminState {
            metrics: Arc::new(obs::Registry::default()),
            stats: Arc::new(ServerStats::default()),
            registry: Arc::new(StoreRegistry::new()),
            draining: Arc::new(AtomicBool::new(false)),
        };
        let ok = respond(b"GET /healthz HTTP/1.0\r\n\r\n", &state);
        assert!(ok.starts_with(b"HTTP/1.0 200 OK\r\n"));
        state.draining.store(true, Ordering::SeqCst);
        let drain = respond(b"GET /healthz HTTP/1.0\r\n\r\n", &state);
        assert!(drain.starts_with(b"HTTP/1.0 503 "));
        let missing = respond(b"GET /nope HTTP/1.0\r\n\r\n", &state);
        assert!(missing.starts_with(b"HTTP/1.0 404 "));
        let post = respond(b"POST /metrics HTTP/1.0\r\n\r\n", &state);
        assert!(post.starts_with(b"HTTP/1.0 405 "));
    }

    #[test]
    fn stats_json_is_wellformed_enough() {
        let state = AdminState {
            metrics: Arc::new(obs::Registry::default()),
            stats: Arc::new(ServerStats::default()),
            registry: Arc::new(StoreRegistry::new()),
            draining: Arc::new(AtomicBool::new(false)),
        };
        state.stats.bytes_in.inc(42);
        let json = stats_json(&state);
        assert!(json.contains("\"bytes_in\":42"));
        assert!(json.starts_with("{\"server\":{"));
        assert!(json.trim_end().ends_with("}}"));
    }
}
