//! A dependency-free HTTP/1.1 server for live telemetry and job
//! control, built on `std::net::TcpListener` only.
//!
//! Built-in endpoints:
//!
//! - `GET /metrics` — Prometheus text exposition (see [`crate::export`]),
//! - `GET /healthz` — liveness JSON; `503` when the source reports
//!   unhealthy,
//! - `GET /progress` — campaign progress JSON from the source.
//!
//! A source can add routes of its own — including `POST` routes with
//! request bodies — by overriding [`TelemetrySource::handle`]; the
//! fleet worker uses this for job submission. Requests are parsed
//! fully (method, path, headers, bounded body): a well-formed request
//! for a known route with the wrong method gets `405 Method Not
//! Allowed` with an `Allow` header, an oversized body gets `413`, and
//! `400` is reserved for genuinely malformed requests.
//!
//! The design is deliberately minimal: a nonblocking accept loop that
//! polls a shutdown flag (and an optional caller-supplied shutdown
//! predicate, the bridge to a cancellation-token tree the caller
//! owns), a small fixed worker pool fed through a *bounded* channel,
//! and `Connection: close` on every response. When the queue is full
//! the accept thread answers `503` immediately — with a `Retry-After`
//! header so a well-behaved client backs off — rather than letting
//! connections pile up; a scrape endpoint must never become a memory
//! leak. Every thread is joined on [`TelemetryServer::shutdown`] (and
//! on drop), so a served campaign exits with no leaked threads.

use crate::faultnet::{NetFault, NetFaultInjector};
use crate::names;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Request head cap: method, path, and headers must fit here.
const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Body cap; larger `Content-Length` is answered `413`.
const MAX_BODY_BYTES: usize = 64 * 1024;

/// One parsed request, handed to [`TelemetrySource::handle`].
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method, uppercase as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Path with the query string stripped.
    pub path: String,
    /// Raw query string (without the `?`), empty when absent.
    pub query: String,
    /// Request body (UTF-8; capped at [`MAX_BODY_BYTES`]).
    pub body: String,
    /// Parsed `Traceparent` header, when present and well-formed; a
    /// malformed header is treated as absent, never as an error (a
    /// corrupted trace must not fail the request it decorates).
    pub traceparent: Option<crate::trace::TraceContext>,
}

impl HttpRequest {
    /// The value of `name` in a `k=v&k=v` query string, if present.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }
}

/// One response, either from a built-in route or a source's custom
/// handler. The reason phrase is derived from `status`.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Extra headers appended verbatim (`Allow`, `Retry-After`, ...).
    pub headers: Vec<(&'static str, String)>,
}

impl HttpResponse {
    /// A `200 OK` JSON response.
    #[must_use]
    pub fn ok_json(body: impl Into<String>) -> Self {
        Self::json(200, body)
    }

    /// A JSON response with an explicit status.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self { status, content_type: "application/json", body: body.into(), headers: Vec::new() }
    }

    /// A plain-text response with an explicit status.
    #[must_use]
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// Appends one extra header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// `405 Method Not Allowed` advertising the methods a route does
    /// accept.
    #[must_use]
    pub fn method_not_allowed(allow: &'static str) -> Self {
        crate::counter!(names::OBS_HTTP_METHOD_NOT_ALLOWED, 1);
        Self::text(405, "method not allowed\n").with_header("Allow", allow)
    }
}

/// The standard reason phrase for the statuses this server emits.
fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// What the server serves. Implementations render on demand, per
/// request, under the caller's locks — keep the renders cheap.
pub trait TelemetrySource: Send + Sync {
    /// Body for `GET /metrics` (Prometheus text format).
    fn metrics_text(&self) -> String;
    /// Body for `GET /progress` (a JSON object).
    fn progress_json(&self) -> String;
    /// Liveness for `GET /healthz`; `false` turns the response into a
    /// `503` so an external prober sees a wedged campaign.
    fn healthy(&self) -> bool {
        true
    }
    /// Body for `GET /healthz`.
    fn healthz_json(&self) -> String {
        format!("{{\"ok\":{}}}\n", self.healthy())
    }
    /// Custom routes, consulted before the built-ins. Return `None`
    /// to fall through to `/metrics`, `/progress`, `/healthz`, and
    /// the 404/405 machinery. This is how the fleet worker exposes
    /// `POST /job` and friends without rh-obs knowing about jobs.
    fn handle(&self, request: &HttpRequest) -> Option<HttpResponse> {
        let _ = request;
        None
    }
}

/// Server sizing knobs. The defaults suit a scrape interval of
/// seconds: two workers, a short bounded queue, and tight socket
/// timeouts so one stuck client cannot wedge a worker for long.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads handling accepted connections.
    pub workers: usize,
    /// Bounded queue depth between the accept loop and the workers;
    /// overflow is answered `503` by the accept thread.
    pub queue_depth: usize,
    /// Total per-direction I/O budget for one connection: the whole
    /// request must be read within this long, and the whole response
    /// written within this long. Socket timeouts are re-armed with
    /// the remainder before every syscall, so a drip-feeding writer
    /// or a slowly draining reader — each syscall making just enough
    /// progress to keep a naive per-syscall timer happy — still
    /// releases the worker slot on time.
    pub io_timeout: Duration,
    /// How often the accept loop polls for shutdown.
    pub poll_interval: Duration,
    /// `Retry-After` seconds advertised on the 503 overflow response.
    pub retry_after_secs: u64,
    /// Optional armed fault injector applied to every response this
    /// server writes: a worker process configured with a
    /// [`crate::faultnet::NetFaultPlan`] presents a flaky link to all
    /// of its clients. `None` (the default) serves faithfully.
    pub fault: Option<Arc<NetFaultInjector>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 16,
            io_timeout: Duration::from_secs(2),
            poll_interval: Duration::from_millis(20),
            retry_after_secs: 1,
            fault: None,
        }
    }
}

/// Handle to a running telemetry server. Dropping it shuts the server
/// down and joins every thread.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for TelemetryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryServer").field("addr", &self.addr).finish_non_exhaustive()
    }
}

/// Starts a telemetry server on `addr` (e.g. `127.0.0.1:0` to let the
/// OS pick a port; read the bound address back with
/// [`TelemetryServer::local_addr`]) with default sizing and no
/// external shutdown signal.
///
/// # Errors
///
/// Errors from binding the listener.
pub fn serve(addr: &str, source: Arc<dyn TelemetrySource>) -> io::Result<TelemetryServer> {
    serve_with(addr, source, &ServeConfig::default(), None)
}

/// [`serve`] with explicit sizing and an optional shutdown predicate.
/// The accept loop polls `shutdown_when` every `poll_interval`; when
/// it returns `true` the server drains and joins exactly as if
/// [`TelemetryServer::shutdown`] had been called. This is how a
/// cancellation-token tree the caller owns (rh-obs has no dependency
/// on it) drives the server down.
///
/// # Errors
///
/// Errors from binding the listener.
pub fn serve_with(
    addr: &str,
    source: Arc<dyn TelemetrySource>,
    cfg: &ServeConfig,
    shutdown_when: Option<Box<dyn Fn() -> bool + Send>>,
) -> io::Result<TelemetryServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));

    let (tx, rx) = sync_channel::<TcpStream>(cfg.queue_depth.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::with_capacity(cfg.workers.max(1));
    for i in 0..cfg.workers.max(1) {
        let rx = rx.clone();
        let source = source.clone();
        let io_timeout = cfg.io_timeout;
        let fault = cfg.fault.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("rh-obs-http-{i}"))
                .spawn(move || worker_loop(&rx, source.as_ref(), io_timeout, fault.as_deref()))?,
        );
    }

    let stop_flag = stop.clone();
    let poll = cfg.poll_interval.max(Duration::from_millis(1));
    let io_timeout = cfg.io_timeout;
    let retry_after_secs = cfg.retry_after_secs;
    let accept = std::thread::Builder::new().name("rh-obs-http-accept".into()).spawn(move || {
        // `tx` moves in here; dropping it on exit closes the channel
        // and lets every worker drain and terminate.
        loop {
            if stop_flag.load(Ordering::Relaxed)
                || shutdown_when.as_ref().is_some_and(|f| f())
            {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    crate::counter!(names::OBS_HTTP_REQUESTS, 1);
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(stream)) => {
                            crate::counter!(names::OBS_HTTP_REJECTED, 1);
                            reject_overloaded(stream, io_timeout, retry_after_secs);
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(poll),
                Err(_) => std::thread::sleep(poll),
            }
        }
    })?;

    Ok(TelemetryServer { addr: local, stop, accept: Some(accept), workers })
}

impl TelemetryServer {
    /// The bound address (useful with a `:0` request port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains queued connections, and joins every
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    rx: &Arc<Mutex<Receiver<TcpStream>>>,
    source: &dyn TelemetrySource,
    io_timeout: Duration,
    fault: Option<&NetFaultInjector>,
) {
    loop {
        let next = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv()
        };
        match next {
            Ok(stream) => handle_connection(stream, source, io_timeout, fault),
            Err(_) => break, // accept loop gone: no more work, ever
        }
    }
}

fn handle_connection(
    mut stream: TcpStream,
    source: &dyn TelemetrySource,
    io_timeout: Duration,
    fault: Option<&NetFaultInjector>,
) {
    let read_deadline = Instant::now() + io_timeout;
    let response = match read_request(&mut stream, read_deadline) {
        Ok(request) => route(&request, source),
        Err(error_response) => error_response,
    };
    send_response(&mut stream, &response, io_timeout, fault);
}

/// Time left until `deadline`, clamped to ≥ 1 ms (a zero `Duration`
/// means *blocking* to the socket timeout setters); `None` once
/// spent.
fn remaining_budget(deadline: Instant) -> Option<Duration> {
    let now = Instant::now();
    if now >= deadline {
        return None;
    }
    Some((deadline - now).max(Duration::from_millis(1)))
}

/// Dispatches one parsed request: the source's custom routes first,
/// then the built-in GET endpoints. A known route hit with the wrong
/// method is a `405` with an `Allow` header — not a `400`, which is
/// reserved for requests we could not parse at all.
fn route(request: &HttpRequest, source: &dyn TelemetrySource) -> HttpResponse {
    if let Some(response) = source.handle(request) {
        return response;
    }
    match request.path.as_str() {
        "/metrics" | "/progress" | "/healthz" if request.method != "GET" => {
            HttpResponse::method_not_allowed("GET")
        }
        "/metrics" => HttpResponse {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: source.metrics_text(),
            headers: Vec::new(),
        },
        "/progress" => HttpResponse::ok_json(source.progress_json()),
        "/healthz" => {
            let body = source.healthz_json();
            if source.healthy() {
                HttpResponse::json(200, body)
            } else {
                HttpResponse::json(503, body)
            }
        }
        _ => HttpResponse::text(404, "not found\n"),
    }
}

/// Reads and parses one request: request line, headers, and — when
/// `Content-Length` says so — a bounded body. Returns the error
/// response to send for anything malformed (`400`) or oversized
/// (`413`).
fn read_request(
    stream: &mut TcpStream,
    deadline: Instant,
) -> Result<HttpRequest, HttpResponse> {
    let bad = || HttpResponse::text(400, "bad request\n");

    // Accumulate until the blank line ending the head. Some probes
    // send bare "\n" line endings; accept both. The read timeout is
    // re-armed with the deadline's remainder before every read, so a
    // requester dripping one byte per read still frees this worker
    // slot when the total budget is spent.
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(end) = find_head_end(&buf) {
            break end;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(bad());
        }
        let Some(budget) = remaining_budget(deadline) else { return Err(bad()) };
        let _ = stream.set_read_timeout(Some(budget));
        match stream.read(&mut chunk) {
            Ok(0) => return Err(bad()), // EOF before the head finished
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(bad()),
        }
    };

    let head = std::str::from_utf8(&buf[..head_end.start]).map_err(|_| bad())?.to_string();
    let mut lines = head.lines();
    let request_line = lines.next().ok_or_else(bad)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or_else(bad)?.to_string();
    let target = parts.next().ok_or_else(bad)?;
    if method.is_empty() || !method.chars().all(|c| c.is_ascii_uppercase()) {
        return Err(bad());
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut content_length = 0usize;
    let mut traceparent = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| bad())?;
            } else if name.trim().eq_ignore_ascii_case("traceparent") {
                traceparent = crate::trace::parse_traceparent(value);
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpResponse::text(413, "payload too large\n"));
    }

    // Body bytes already read past the head, then the remainder.
    let mut body_bytes = buf[head_end.end..].to_vec();
    while body_bytes.len() < content_length {
        let Some(budget) = remaining_budget(deadline) else { return Err(bad()) };
        let _ = stream.set_read_timeout(Some(budget));
        match stream.read(&mut chunk) {
            Ok(0) => return Err(bad()), // EOF mid-body
            Ok(n) => body_bytes.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(bad()),
        }
    }
    body_bytes.truncate(content_length);
    let body = String::from_utf8(body_bytes).map_err(|_| bad())?;

    Ok(HttpRequest { method, path, query, body, traceparent })
}

/// Locates the head/body boundary: the byte range of the first blank
/// line (`\r\n\r\n` or `\n\n`). `start` is where the head text ends,
/// `end` is where the body begins.
fn find_head_end(buf: &[u8]) -> Option<std::ops::Range<usize>> {
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i..i + 4);
    let lf = buf.windows(2).position(|w| w == b"\n\n").map(|i| i..i + 2);
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(if a.start <= b.start { a } else { b }),
        (a, b) => a.or(b),
    }
}

/// Renders a response into its full wire form (status line + headers
/// + body).
fn wire_bytes(response: &HttpResponse) -> Vec<u8> {
    let mut header = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        reason_for(response.status),
        response.content_type,
        response.body.len()
    );
    for (name, value) in &response.headers {
        header.push_str(name);
        header.push_str(": ");
        header.push_str(value);
        header.push_str("\r\n");
    }
    header.push_str("\r\n");
    let mut bytes = header.into_bytes();
    bytes.extend_from_slice(response.body.as_bytes());
    bytes
}

/// Chunk size for deadline-bounded writes: small enough that a
/// slowly draining reader cannot park one `write_all` call for long
/// stretches between deadline checks.
const WRITE_CHUNK_BYTES: usize = 8 * 1024;

fn send_response(
    stream: &mut TcpStream,
    response: &HttpResponse,
    budget: Duration,
    fault: Option<&NetFaultInjector>,
) {
    let decision = fault.map_or(NetFault::None, NetFaultInjector::decide);
    let bytes = match (&decision, fault) {
        (NetFault::Refuse, _) => return, // drop without a byte, as a dying peer would
        (NetFault::Truncate | NetFault::Duplicate | NetFault::CorruptStatus, Some(injector)) => {
            injector.mutate_reply(&decision, &wire_bytes(response))
        }
        _ => wire_bytes(response),
    };

    let deadline = Instant::now() + budget;
    let (chunk_len, gap) = match &decision {
        NetFault::Drip { chunk, gap } => (*chunk, *gap),
        _ => (WRITE_CHUNK_BYTES, Duration::ZERO),
    };
    if let NetFault::Delay(pause) = &decision {
        std::thread::sleep((*pause).min(budget));
    }
    // The write timeout is re-armed with the deadline's remainder
    // before every chunk, so the *whole* response must go out within
    // the budget — a reader draining one byte per timeout window
    // cannot hold this worker slot past it.
    for chunk in bytes.chunks(chunk_len.max(1)) {
        let Some(remaining) = remaining_budget(deadline) else { return };
        let _ = stream.set_write_timeout(Some(remaining));
        if stream.write_all(chunk).is_err() {
            return;
        }
        if !gap.is_zero() {
            let Some(remaining) = remaining_budget(deadline) else { return };
            std::thread::sleep(gap.min(remaining));
        }
    }
    let _ = stream.flush();
}

/// Answers a connection the queue had no room for, advertising when
/// to come back.
fn reject_overloaded(mut stream: TcpStream, io_timeout: Duration, retry_after_secs: u64) {
    let response = HttpResponse::text(503, "overloaded\n")
        .with_header("Retry-After", retry_after_secs.to_string());
    send_response(&mut stream, &response, io_timeout, None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead as _, BufReader};

    struct StubSource {
        healthy: AtomicBool,
    }

    impl StubSource {
        fn new() -> Self {
            Self { healthy: AtomicBool::new(true) }
        }
    }

    impl TelemetrySource for StubSource {
        fn metrics_text(&self) -> String {
            "# TYPE up gauge\nup 1\n".to_string()
        }
        fn progress_json(&self) -> String {
            "{\"total\":4,\"completed\":2}\n".to_string()
        }
        fn healthy(&self) -> bool {
            self.healthy.load(Ordering::Relaxed)
        }
    }

    /// A source with one custom POST route that echoes its body.
    struct EchoSource;

    impl TelemetrySource for EchoSource {
        fn metrics_text(&self) -> String {
            String::new()
        }
        fn progress_json(&self) -> String {
            "{}".to_string()
        }
        fn handle(&self, request: &HttpRequest) -> Option<HttpResponse> {
            match (request.method.as_str(), request.path.as_str()) {
                ("POST", "/echo") => Some(HttpResponse::ok_json(request.body.clone())),
                ("GET", "/lease") => Some(HttpResponse::ok_json(format!(
                    "{{\"lease\":\"{}\"}}",
                    request.query_param("lease").unwrap_or("none")
                ))),
                ("GET", "/trace") => Some(HttpResponse::ok_json(format!(
                    "{{\"traceparent\":\"{}\"}}",
                    request
                        .traceparent
                        .map_or("none".to_string(), crate::trace::format_traceparent)
                ))),
                (_, "/echo" | "/lease") => Some(HttpResponse::method_not_allowed("GET, POST")),
                _ => None,
            }
        }
    }

    fn raw(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect: {e}"));
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        stream.write_all(request.as_bytes()).unwrap_or_else(|e| panic!("write: {e}"));
        let mut response = String::new();
        let _ = std::io::Read::read_to_string(&mut stream, &mut response);
        response
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect: {e}"));
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n")
            .unwrap_or_else(|e| panic!("write: {e}"));
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap_or_else(|e| panic!("status: {e}"));
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
        let mut body = String::new();
        let mut line = String::new();
        // Skip headers, then read to EOF (Connection: close).
        loop {
            line.clear();
            let n = reader.read_line(&mut line).unwrap_or(0);
            if n == 0 || line == "\r\n" {
                break;
            }
        }
        let _ = std::io::Read::read_to_string(&mut reader, &mut body);
        (status, body)
    }

    #[test]
    fn serves_all_three_endpoints_and_404() {
        let source = Arc::new(StubSource::new());
        let mut server =
            serve("127.0.0.1:0", source.clone()).unwrap_or_else(|e| panic!("serve: {e}"));
        let addr = server.local_addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("up 1"));

        let (status, body) = get(addr, "/progress");
        assert_eq!(status, 200);
        assert!(body.contains("\"total\":4"));

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\":true"));

        source.healthy.store(false, Ordering::Relaxed);
        let (status, body) = get(addr, "/healthz?probe=1");
        assert_eq!(status, 503);
        assert!(body.contains("\"ok\":false"));

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        server.shutdown();
        // Idempotent, and the port is closed afterwards.
        server.shutdown();
        assert!(TcpStream::connect(addr).is_err(), "server still accepting after shutdown");
    }

    #[test]
    fn shutdown_predicate_stops_the_server() {
        let flag = Arc::new(AtomicBool::new(false));
        let watched = flag.clone();
        let mut server = serve_with(
            "127.0.0.1:0",
            Arc::new(StubSource::new()),
            &ServeConfig::default(),
            Some(Box::new(move || watched.load(Ordering::Relaxed))),
        )
        .unwrap_or_else(|e| panic!("serve: {e}"));
        let addr = server.local_addr();
        let (status, _) = get(addr, "/metrics");
        assert_eq!(status, 200);

        flag.store(true, Ordering::SeqCst);
        // The accept loop polls every 20 ms; give it a moment.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if TcpStream::connect(addr).is_err() {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "server ignored shutdown predicate");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown(); // joins the already-exited threads
    }

    #[test]
    fn non_get_on_known_route_is_405_with_allow() {
        let mut server = serve("127.0.0.1:0", Arc::new(StubSource::new()))
            .unwrap_or_else(|e| panic!("serve: {e}"));
        let addr = server.local_addr();
        let response = raw(addr, "POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 405"), "got {response:?}");
        assert!(response.contains("Allow: GET"), "missing Allow header: {response:?}");
        // Unknown routes stay 404 regardless of method.
        let response = raw(addr, "POST /nope HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 404"), "got {response:?}");
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_400() {
        let mut server = serve("127.0.0.1:0", Arc::new(StubSource::new()))
            .unwrap_or_else(|e| panic!("serve: {e}"));
        let addr = server.local_addr();
        // Lower-case method token: not a parseable request.
        let response = raw(addr, "get /metrics HTTP/1.1\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 400"), "got {response:?}");
        // Missing target.
        let response = raw(addr, "GET\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 400"), "got {response:?}");
        // Body shorter than Content-Length promises (EOF mid-body).
        let response = raw(addr, "POST /metrics HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort");
        assert!(response.starts_with("HTTP/1.1 400"), "got {response:?}");
        server.shutdown();
    }

    #[test]
    fn oversized_body_is_413() {
        let mut server = serve("127.0.0.1:0", Arc::new(StubSource::new()))
            .unwrap_or_else(|e| panic!("serve: {e}"));
        let addr = server.local_addr();
        let response = raw(
            addr,
            &format!("POST /metrics HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1),
        );
        assert!(response.starts_with("HTTP/1.1 413"), "got {response:?}");
        server.shutdown();
    }

    /// A source with one huge response, for the stalled-reader test.
    struct BulkSource;

    /// Large enough to overflow the loopback send+receive buffering
    /// (tcp_wmem max 4 MB + tcp_rmem max 32 MB on stock Linux), so a
    /// reader that stops draining forces the server's writes to
    /// block.
    const BULK_BYTES: usize = 48 * 1024 * 1024;

    impl TelemetrySource for BulkSource {
        fn metrics_text(&self) -> String {
            String::new()
        }
        fn progress_json(&self) -> String {
            "{}".to_string()
        }
        fn handle(&self, request: &HttpRequest) -> Option<HttpResponse> {
            (request.path == "/big").then(|| HttpResponse::text(200, "x".repeat(BULK_BYTES)))
        }
    }

    /// The satellite regression: a peer that requests a large body and
    /// then drains it one byte at a time keeps every per-write timeout
    /// happy, so only a *total* write budget frees the worker slot.
    /// With one worker, a healthy client queued behind the stalled
    /// reader measures exactly how long the slot stays blocked.
    #[test]
    fn stalled_reader_frees_the_worker_slot_within_the_write_budget() {
        let cfg = ServeConfig {
            workers: 1,
            io_timeout: Duration::from_millis(500),
            ..ServeConfig::default()
        };
        let mut server = serve_with("127.0.0.1:0", Arc::new(BulkSource), &cfg, None)
            .unwrap_or_else(|e| panic!("serve: {e}"));
        let addr = server.local_addr();

        // The stalled reader: request /big, then drain one byte per
        // 20 ms — never enough to let 48 MB through, always enough to
        // defeat a per-syscall timeout.
        let mut stalled = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect: {e}"));
        stalled
            .write_all(b"GET /big HTTP/1.1\r\nHost: test\r\n\r\n")
            .unwrap_or_else(|e| panic!("write: {e}"));
        let drainer = std::thread::spawn(move || {
            let mut byte = [0u8; 1];
            let _ = stalled.set_read_timeout(Some(Duration::from_millis(200)));
            for _ in 0..500 {
                if matches!(std::io::Read::read(&mut stalled, &mut byte), Ok(0) | Err(_)) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            // Dropping the socket unblocks any remaining server write.
        });

        // Give the worker a moment to pick the stalled connection up,
        // then measure how long a healthy request waits behind it.
        std::thread::sleep(Duration::from_millis(100));
        let started = std::time::Instant::now();
        let (status, _) = get(addr, "/healthz");
        let waited = started.elapsed();
        assert_eq!(status, 200);
        assert!(
            waited < Duration::from_secs(4),
            "healthy request waited {waited:?} behind a stalled reader; \
             the write budget did not free the slot"
        );

        server.shutdown();
        let _ = drainer.join();
    }

    /// Server-side fault injection: a worker armed with a corrupting
    /// plan emits garbage status lines that the hardened client
    /// rejects as `InvalidData` — the coordinator sees a failed
    /// request, not a wedge or a mis-parse.
    #[test]
    fn server_side_faults_reach_the_client_as_errors() {
        use crate::faultnet::NetFaultPlan;
        // http_get consults the process-global client-side injector;
        // serialize with the tests that install one.
        let _l = crate::testlock::locked();
        let plan = NetFaultPlan { corrupt_prob: 1.0, ..NetFaultPlan::none(5) };
        let cfg = ServeConfig { fault: Some(Arc::new(plan.injector())), ..ServeConfig::default() };
        let mut server = serve_with("127.0.0.1:0", Arc::new(StubSource::new()), &cfg, None)
            .unwrap_or_else(|e| panic!("serve: {e}"));
        let addr = server.local_addr().to_string();

        let err = crate::client::http_get(&addr, "/metrics", Duration::from_secs(2));
        match err {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "got {e}"),
            Ok(r) => panic!("corrupted reply parsed as {}", r.status),
        }
        server.shutdown();
    }

    #[test]
    fn custom_routes_take_post_bodies_and_queries() {
        let mut server = serve("127.0.0.1:0", Arc::new(EchoSource))
            .unwrap_or_else(|e| panic!("serve: {e}"));
        let addr = server.local_addr();

        let body = "{\"module\":\"mfr_a#3\"}";
        let response = raw(
            addr,
            &format!("POST /echo HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len()),
        );
        assert!(response.starts_with("HTTP/1.1 200"), "got {response:?}");
        assert!(response.ends_with(body), "body not echoed: {response:?}");

        let (status, body) = get(addr, "/lease?lease=42");
        assert_eq!(status, 200);
        assert!(body.contains("\"lease\":\"42\""), "got {body:?}");

        // Wrong method on a custom route: the source's own 405.
        let response = raw(addr, "DELETE /echo HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 405"), "got {response:?}");
        assert!(response.contains("Allow: GET, POST"), "got {response:?}");

        // Built-ins still work when the custom handler falls through.
        let (status, _) = get(addr, "/progress");
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn traceparent_header_crosses_the_http_pair() {
        // The client half races armed faultnet plans from other tests.
        let _l = crate::testlock::locked();
        let mut server = serve("127.0.0.1:0", Arc::new(EchoSource))
            .unwrap_or_else(|e| panic!("serve: {e}"));
        let addr = server.local_addr();
        let wire = "00-000000000000000000000000000000ab-00000000000000cd-01";

        // Server side: a well-formed header parses, case-insensitively.
        let response =
            raw(addr, &format!("GET /trace HTTP/1.1\r\ntRaCeParEnT: {wire}\r\n\r\n"));
        assert!(response.contains(&format!("\"traceparent\":\"{wire}\"")), "got {response:?}");

        // A corrupt header is treated as absent, not as a 400.
        let response = raw(addr, "GET /trace HTTP/1.1\r\nTraceparent: 00-zz-xx-01\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 200"), "got {response:?}");
        assert!(response.contains("\"traceparent\":\"none\""), "got {response:?}");

        // Client side: a thread with a live context injects the header
        // on its own (no recorder required — context is thread-local).
        let ctx = crate::trace::TraceContext { trace_id: 0xab, span_id: 0xcd };
        crate::trace::set_remote_parent(ctx);
        let reply = crate::client::http_get(
            &addr.to_string(),
            "/trace",
            Duration::from_secs(5),
        )
        .unwrap_or_else(|e| panic!("http_get: {e}"));
        crate::trace::set_remote_parent(crate::trace::TraceContext { trace_id: 0, span_id: 0 });
        assert!(reply.body.contains(&format!("\"traceparent\":\"{wire}\"")), "got {}", reply.body);
        server.shutdown();
    }
}
