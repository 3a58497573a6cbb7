//! A dependency-free HTTP/1.1 client for the fleet coordinator,
//! matching the server in [`crate::serve`]: one request per
//! connection, `Connection: close`, bounded by a **total per-request
//! deadline**.
//!
//! The client surfaces the `Retry-After` header on error responses so
//! a caller that hit a `503` from an overloaded worker can honor the
//! worker's own advice about when to come back instead of hammering
//! it.
//!
//! # Deadline semantics
//!
//! The `timeout` passed to [`http_get`]/[`http_post`] bounds the
//! *whole* request — connect, write, and every read — not each
//! individual socket operation. Socket timeouts are re-armed before
//! each syscall with the time remaining, so a slow-loris peer that
//! drips one byte per read (keeping every per-read timer happy
//! forever) still hits [`std::io::ErrorKind::TimedOut`] when the
//! budget is spent. This is the difference between a coordinator
//! dispatch loop that stalls behind one sick worker and one that
//! fails fast and lets the circuit breaker route around it.
//!
//! # Fault injection
//!
//! When a [`crate::faultnet`] plan is installed process-globally, each
//! request draws one deterministic fault decision: refusal, delay,
//! drip-read pacing, or a reply mutation (truncation, duplication,
//! status-line corruption) applied to the received bytes before
//! parsing. All of them surface as ordinary `io::Error`s or parse
//! failures — the retry/lease machinery upstream cannot tell injected
//! chaos from the real thing, which is the point.

use crate::faultnet::{self, NetFault};
use std::io::{self, Read as _, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Response body cap; a telemetry or job-result body beyond this is
/// treated as an I/O error rather than buffered without bound.
const MAX_RESPONSE_BYTES: usize = 4 * 1024 * 1024;

/// Response head cap; headers that keep going past this are
/// adversarial, not chatty.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Parsed `Retry-After` header (seconds form), when present.
    pub retry_after: Option<Duration>,
    /// All response headers, names lowercased, in wire order.
    pub headers: Vec<(String, String)>,
}

impl ClientResponse {
    /// Whether the status is in the 2xx range.
    #[must_use]
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// First header with this name (lowercase), if any.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// A total wall-clock budget for one request, re-armed onto the
/// socket before every syscall.
#[derive(Debug, Clone, Copy)]
struct Deadline {
    end: Instant,
}

impl Deadline {
    fn new(total: Duration) -> Self {
        Self { end: Instant::now() + total }
    }

    /// Time left, or `TimedOut` once the budget is spent. Clamped to
    /// ≥ 1 ms because a zero `Duration` means *blocking* to
    /// `set_read_timeout`, the exact failure mode this type exists to
    /// prevent.
    fn remaining(&self) -> io::Result<Duration> {
        let now = Instant::now();
        if now >= self.end {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "total request deadline exceeded"));
        }
        Ok((self.end - now).max(Duration::from_millis(1)))
    }

    fn arm_read(&self, stream: &TcpStream) -> io::Result<()> {
        stream.set_read_timeout(Some(self.remaining()?))
    }

    fn arm_write(&self, stream: &TcpStream) -> io::Result<()> {
        stream.set_write_timeout(Some(self.remaining()?))
    }
}

/// Issues `GET path` against `addr` (a `host:port` string).
///
/// # Errors
///
/// Connection, deadline, and malformed-response errors.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> io::Result<ClientResponse> {
    request(addr, "GET", path, None, timeout)
}

/// Issues `POST path` with a body against `addr`.
///
/// # Errors
///
/// Connection, deadline, and malformed-response errors.
pub fn http_post(
    addr: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> io::Result<ClientResponse> {
    request(addr, "POST", path, Some(body), timeout)
}

fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<ClientResponse> {
    let deadline = Deadline::new(timeout);
    let injector = faultnet::active();
    let fault = injector.as_ref().map_or(NetFault::None, |i| i.decide());

    match &fault {
        NetFault::Refuse => {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "injected connection refusal",
            ));
        }
        NetFault::Delay(pause) => sleep_within(&deadline, *pause)?,
        _ => {}
    }

    let socket_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, format!("no addr for {addr}")))?;
    let mut stream = TcpStream::connect_timeout(&socket_addr, deadline.remaining()?)?;

    let body = body.unwrap_or("");
    // Propagate the caller's trace context so the server can parent
    // its spans under ours (see `crate::trace`). One extra header
    // line, only when a trace is actually live.
    let traceparent = crate::trace::current_context().map_or(String::new(), |ctx| {
        format!("Traceparent: {}\r\n", crate::trace::format_traceparent(ctx))
    });
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n{traceparent}Connection: close\r\n\r\n",
        body.len()
    );
    deadline.arm_write(&stream)?;
    stream.write_all(head.as_bytes()).map_err(normalize_timeout)?;
    deadline.arm_write(&stream)?;
    stream.write_all(body.as_bytes()).map_err(normalize_timeout)?;
    stream.flush().map_err(normalize_timeout)?;

    let mut raw = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let drip = match &fault {
        NetFault::Drip { chunk, gap } => Some((*chunk, *gap)),
        _ => None,
    };
    loop {
        deadline.arm_read(&stream)?;
        // Under an injected drip, pace the reads the way a congested
        // link would pace the packets: tiny reads separated by gaps.
        // Each read still makes progress, so only the total deadline
        // can end a drip that outlasts its budget.
        let window = match drip {
            Some((chunk_len, _)) => chunk_len.min(chunk.len()),
            None => chunk.len(),
        };
        match stream.read(&mut chunk[..window]) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&chunk[..n]);
                if raw.len() > MAX_RESPONSE_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "response exceeds size cap",
                    ));
                }
                if let Some((_, gap)) = drip {
                    if !gap.is_zero() {
                        sleep_within(&deadline, gap)?;
                    }
                }
            }
            Err(e) => return Err(normalize_timeout(e)),
        }
    }

    let raw = match (&fault, injector.as_ref()) {
        (NetFault::Truncate | NetFault::Duplicate | NetFault::CorruptStatus, Some(i)) => {
            i.mutate_reply(&fault, &raw)
        }
        _ => raw,
    };
    parse_response(&raw)
}

/// A socket timeout surfaces as `WouldBlock` (EAGAIN) on Unix and
/// `TimedOut` on Windows; the socket timers are armed with the
/// deadline's remainder, so both mean the total budget ran out.
fn normalize_timeout(e: io::Error) -> io::Error {
    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
        io::Error::new(io::ErrorKind::TimedOut, "total request deadline exceeded")
    } else {
        e
    }
}

/// Sleeps for `pause`, but never past the deadline; errs `TimedOut`
/// if the deadline falls inside (or before) the pause.
fn sleep_within(deadline: &Deadline, pause: Duration) -> io::Result<()> {
    let remaining = deadline.remaining()?;
    if pause >= remaining {
        std::thread::sleep(remaining);
        return Err(io::Error::new(io::ErrorKind::TimedOut, "total request deadline exceeded"));
    }
    std::thread::sleep(pause);
    Ok(())
}

/// Parses one `Connection: close` HTTP/1.1 response from raw received
/// bytes.
///
/// Hardened against adversarial peers: must return `Err` — never
/// panic, never loop — on truncated status lines, non-HTTP garbage,
/// missing/duplicate/non-numeric `Content-Length`, oversized heads,
/// and bodies shorter than their declared length. Bytes *beyond* a
/// valid `Content-Length` (e.g. a duplicated reply from a
/// retransmitting middlebox) are ignored rather than glued onto the
/// body.
///
/// # Errors
///
/// `InvalidData` describing the first malformation found.
pub fn parse_response(raw: &[u8]) -> io::Result<ClientResponse> {
    let malformed = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let scan_end = raw.len().min(MAX_HEAD_BYTES);
    let head_end = raw[..scan_end].windows(4).position(|w| w == b"\r\n\r\n").ok_or_else(|| {
        malformed(if raw.len() > scan_end { "oversized header" } else { "no header terminator" })
    })?;
    let head =
        std::str::from_utf8(&raw[..head_end]).map_err(|_| malformed("non-utf8 header"))?;
    let mut lines = head.lines();
    let status_line = lines.next().ok_or_else(|| malformed("empty response"))?;
    let mut words = status_line.split_whitespace();
    let version = words.next().ok_or_else(|| malformed("bad status line"))?;
    if !version.starts_with("HTTP/") {
        return Err(malformed("bad status line"));
    }
    let status: u16 = words
        .next()
        .filter(|s| s.len() == 3)
        .and_then(|s| s.parse().ok())
        .filter(|s| (100..=599).contains(s))
        .ok_or_else(|| malformed("bad status line"))?;

    let mut retry_after = None;
    let mut content_length: Option<usize> = None;
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line.split_once(':').ok_or_else(|| malformed("bad header line"))?;
        let name = name.trim();
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        if name.eq_ignore_ascii_case("retry-after") {
            retry_after = value.trim().parse::<u64>().ok().map(Duration::from_secs);
        } else if name.eq_ignore_ascii_case("content-length") {
            let len: usize =
                value.trim().parse().map_err(|_| malformed("bad content-length"))?;
            if content_length.is_some_and(|prev| prev != len) {
                return Err(malformed("conflicting content-length"));
            }
            if len > MAX_RESPONSE_BYTES {
                return Err(malformed("content-length exceeds size cap"));
            }
            content_length = Some(len);
        }
    }

    let after_head = &raw[head_end + 4..];
    let body_bytes = match content_length {
        Some(len) if after_head.len() < len => return Err(malformed("truncated body")),
        Some(len) => &after_head[..len],
        // No Content-Length: a close-delimited body, everything to EOF.
        None => after_head,
    };
    let body =
        String::from_utf8(body_bytes.to_vec()).map_err(|_| malformed("non-utf8 body"))?;
    Ok(ClientResponse { status, body, retry_after, headers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultnet::{InstalledPlan, NetFaultPlan};
    use crate::serve::{serve, HttpRequest, HttpResponse, TelemetrySource};
    use std::net::TcpListener;
    use std::sync::Arc;

    struct StubSource;

    impl TelemetrySource for StubSource {
        fn metrics_text(&self) -> String {
            "up 1\n".to_string()
        }
        fn progress_json(&self) -> String {
            "{\"total\":1}".to_string()
        }
        fn handle(&self, request: &HttpRequest) -> Option<HttpResponse> {
            match (request.method.as_str(), request.path.as_str()) {
                ("POST", "/job") => Some(HttpResponse::json(
                    202,
                    format!("{{\"echo\":{}}}", request.body.len()),
                )),
                ("GET", "/busy") => {
                    Some(HttpResponse::text(503, "overloaded\n").with_header("Retry-After", "7"))
                }
                _ => None,
            }
        }
    }

    #[test]
    fn get_and_post_round_trip() {
        // All request-issuing tests serialize on the test lock: an
        // installed faultnet plan is process-global.
        let _l = crate::testlock::locked();
        let mut server =
            serve("127.0.0.1:0", Arc::new(StubSource)).unwrap_or_else(|e| panic!("serve: {e}"));
        let addr = server.local_addr().to_string();
        let timeout = Duration::from_secs(5);

        let response = http_get(&addr, "/metrics", timeout).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(response.status, 200);
        assert!(response.is_success());
        assert!(response.body.contains("up 1"));
        assert!(response.retry_after.is_none());

        let response =
            http_post(&addr, "/job", "{\"m\":1}", timeout).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(response.status, 202);
        assert_eq!(response.body, "{\"echo\":7}");

        server.shutdown();
    }

    #[test]
    fn retry_after_is_parsed() {
        let _l = crate::testlock::locked();
        let mut server =
            serve("127.0.0.1:0", Arc::new(StubSource)).unwrap_or_else(|e| panic!("serve: {e}"));
        let addr = server.local_addr().to_string();
        let response =
            http_get(&addr, "/busy", Duration::from_secs(5)).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(response.status, 503);
        assert!(!response.is_success());
        assert_eq!(response.retry_after, Some(Duration::from_secs(7)));
        server.shutdown();
    }

    #[test]
    fn connection_refused_is_an_error() {
        let _l = crate::testlock::locked();
        // Bind-then-drop guarantees an unused port.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0")
                .unwrap_or_else(|e| panic!("bind: {e}"));
            l.local_addr().map(|a| a.port()).unwrap_or_else(|e| panic!("addr: {e}"))
        };
        for addr in [format!("127.0.0.1:{port}"), "not-an-addr".to_string()] {
            let err = http_get(&addr, "/metrics", Duration::from_millis(500));
            assert!(err.is_err(), "GET against {addr} should fail");
        }
    }

    /// The satellite regression: a server that drips one byte at a
    /// time keeps every per-read timeout happy, so only a *total*
    /// deadline can end the request. Before the deadline fix this test
    /// ran for `body_len × drip_gap` ≈ forever.
    #[test]
    fn dripping_server_hits_the_total_deadline() {
        let _l = crate::testlock::locked();
        let listener =
            TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| panic!("bind: {e}"));
        let addr = listener.local_addr().unwrap_or_else(|e| panic!("addr: {e}")).to_string();
        let dripper = std::thread::spawn(move || {
            let (mut stream, _) = match listener.accept() {
                Ok(pair) => pair,
                Err(_) => return,
            };
            // Drain the request without parsing it.
            let mut sink = [0u8; 4096];
            let _ = io::Read::read(&mut stream, &mut sink);
            // Promise a large body, then drip it one byte per 50 ms —
            // each read makes progress, so a per-read timeout never
            // fires.
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n");
            for _ in 0..200 {
                if stream.write_all(b"x").is_err() {
                    return; // client gave up — the behavior under test
                }
                let _ = stream.flush();
                std::thread::sleep(Duration::from_millis(50));
            }
        });

        let started = Instant::now();
        let result = http_get(&addr, "/metrics", Duration::from_millis(400));
        let elapsed = started.elapsed();
        let err = match result {
            Err(e) => e,
            Ok(r) => panic!("drip-fed request unexpectedly succeeded: {}", r.status),
        };
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "got {err}");
        assert!(
            elapsed < Duration::from_secs(5),
            "deadline took {elapsed:?}; the drip outlived the budget"
        );
        drop(dripper); // detach: it exits on its next failed write
    }

    #[test]
    fn injected_refusal_and_duplicate_reply() {
        let _l = crate::testlock::locked();
        let mut server =
            serve("127.0.0.1:0", Arc::new(StubSource)).unwrap_or_else(|e| panic!("serve: {e}"));
        let addr = server.local_addr().to_string();

        // refuse_prob 1.0: every request refused, deterministically.
        {
            let _plan = InstalledPlan::new(&NetFaultPlan {
                refuse_prob: 1.0,
                ..NetFaultPlan::none(9)
            });
            let err = http_get(&addr, "/metrics", Duration::from_secs(2));
            match err {
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused),
                Ok(_) => panic!("injected refusal did not refuse"),
            }
        }

        // duplicate_prob 1.0: the reply arrives twice; Content-Length
        // trimming must yield the first copy, cleanly.
        {
            let _plan = InstalledPlan::new(&NetFaultPlan {
                duplicate_prob: 1.0,
                ..NetFaultPlan::none(9)
            });
            let response =
                http_get(&addr, "/metrics", Duration::from_secs(2)).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(response.status, 200);
            assert_eq!(response.body, "up 1\n", "duplicate bytes leaked into the body");
        }

        // corrupt_prob 1.0: garbage status line must parse-fail, not
        // panic or mis-parse.
        {
            let _plan = InstalledPlan::new(&NetFaultPlan {
                corrupt_prob: 1.0,
                ..NetFaultPlan::none(9)
            });
            let err = http_get(&addr, "/metrics", Duration::from_secs(2));
            match err {
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
                Ok(r) => panic!("corrupted status line parsed as {}", r.status),
            }
        }

        server.shutdown();
    }

    #[test]
    fn parse_trims_to_content_length_and_rejects_short_bodies() {
        let ok = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi<duplicate junk>")
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(ok.body, "hi");

        let truncated = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\nshort");
        assert!(truncated.is_err(), "short body must be rejected");

        let garbage_len = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: banana\r\n\r\nhi");
        assert!(garbage_len.is_err(), "non-numeric content-length must be rejected");

        let no_len = parse_response(b"HTTP/1.1 200 OK\r\n\r\neverything to eof")
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(no_len.body, "everything to eof");

        let not_http = parse_response(b"XTTP/9.9 ?garbage?\r\n\r\nbody");
        assert!(not_http.is_err(), "non-HTTP status line must be rejected");
    }
}
