//! A minimal HTTP/1.1 server and client over `std::net` TCP — the
//! reproduction of the paper's "ultra-light HTTP daemon" (shttpd, §3).
//! POST-only with Content-Length framing, optional keep-alive. The
//! server is the epoll reactor ([`crate::reactor`]): every connection
//! multiplexed on one event loop over a small worker pool. Timeouts and
//! the maximum accepted body size are configurable via [`HttpConfig`].

use crate::bufpool::BufferPool;
use crate::metrics::NetMetrics;
use crate::pool::{ConnectionPool, PooledConn};
use crate::reactor::{ReactorHandle, MAX_HEAD_BYTES};
use crate::{NetError, NetErrorKind, Transport};
use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs shared by the HTTP server and client. The defaults are
/// the values that used to be hardcoded (30 s socket read timeout) plus
/// a 64 MiB request-body cap.
#[derive(Debug, Clone, Copy)]
pub struct HttpConfig {
    /// Socket read timeout (server: per request read; client: response
    /// wait). Maps to [`NetErrorKind::Timeout`] when exceeded.
    pub read_timeout: Duration,
    /// Maximum request body the server accepts; a larger `Content-Length`
    /// is rejected with `413` *before* allocating the buffer.
    pub max_body_bytes: usize,
    /// How many idle keep-alive connections [`HttpTransport`] keeps per
    /// destination. `0` disables pooling (every request opens a fresh
    /// connection and sends `Connection: close`, the pre-pool behavior).
    pub pool_max_idle_per_host: usize,
    /// How long a pooled connection may sit idle before it is reaped
    /// instead of reused.
    pub pool_idle_timeout: Duration,
    /// Maximum concurrently served connections. Connections accepted
    /// beyond the cap are answered with `503 Service Unavailable`; the
    /// request is drained (never handled) so the response is delivered
    /// reliably before the connection closes. `0` means unlimited. One
    /// of three admission signals (alongside dispatch-queue depth and
    /// queue wait).
    pub max_connections: usize,
    /// Evaluation worker threads. `0` picks
    /// `max(4, available_parallelism)`.
    pub reactor_workers: usize,
    /// How many ready requests may wait for a busy worker pool (a request
    /// that finds an idle worker goes straight to it). A full queue sheds
    /// new connections (and ready requests) with `503`.
    pub dispatch_queue: usize,
    /// When the EWMA of dispatch-queue wait exceeds this, new connections
    /// are shed — the latency-based admission signal.
    pub shed_wait: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            read_timeout: Duration::from_secs(30),
            max_body_bytes: 64 << 20,
            pool_max_idle_per_host: 8,
            pool_idle_timeout: Duration::from_secs(60),
            max_connections: 0,
            reactor_workers: 0,
            dispatch_queue: 1024,
            shed_wait: Duration::from_secs(2),
        }
    }
}

/// Handler for incoming requests: (path, body) → (status, response body).
pub type Handler = dyn Fn(&str, &[u8]) -> (u16, Vec<u8>) + Send + Sync;

/// A running HTTP server — a handle over the reactor; dropping it shuts
/// down gracefully (stop accepting, drain in-flight connections for a
/// bounded period, join the worker threads) — see
/// [`shutdown_graceful`](Self::shutdown_graceful) for an explicit,
/// deadline-controlled shutdown.
pub struct HttpServer {
    reactor: ReactorHandle,
    pub metrics: Arc<NetMetrics>,
}

impl HttpServer {
    /// Bind to `addr` (use port 0 for an ephemeral port) and serve with
    /// default [`HttpConfig`].
    pub fn bind(addr: &str, handler: Arc<Handler>) -> Result<Self, NetError> {
        Self::bind_with(addr, handler, HttpConfig::default())
    }

    /// Bind with explicit configuration.
    pub fn bind_with(
        addr: &str,
        handler: Arc<Handler>,
        config: HttpConfig,
    ) -> Result<Self, NetError> {
        let metrics = Arc::new(NetMetrics::new());
        let reactor = crate::reactor::bind(addr, handler, config, metrics.clone())?;
        Ok(HttpServer { reactor, metrics })
    }

    pub fn port(&self) -> u16 {
        self.reactor.addr().port()
    }

    pub fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port())
    }

    pub fn url(&self) -> String {
        format!("http://127.0.0.1:{}/xrpc", self.port())
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.metrics.active_connections.load(Ordering::SeqCst) as usize
    }

    /// Graceful shutdown: stop accepting new connections, let in-flight
    /// requests finish for up to `deadline`, and join every worker thread
    /// that completes in time. Idle keep-alive connections are closed
    /// without waiting out their read timeout. Returns `true` when the
    /// server fully drained; `false` leaves any straggling workers
    /// detached (their connections die with the process). Idempotent —
    /// later calls (including the one in `Drop`) are cheap no-ops.
    pub fn shutdown_graceful(&mut self, deadline: Duration) -> bool {
        self.reactor.shutdown_graceful(deadline)
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_graceful(Duration::from_secs(5));
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write `head` and `body` as one vectored write so the kernel sees a
/// single gathered buffer instead of two `write` calls (and the body is
/// never copied into a concatenated buffer). Falls back to looping on
/// short writes.
fn write_all_vectored(w: &mut impl Write, mut head: &[u8], mut body: &[u8]) -> std::io::Result<()> {
    while !head.is_empty() || !body.is_empty() {
        let n = w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)])?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "failed to write whole message",
            ));
        }
        if n >= head.len() {
            body = &body[(n - head.len()).min(body.len())..];
            head = &[];
        } else {
            head = &head[n..];
        }
    }
    Ok(())
}

/// The response head the server emits.
pub(crate) fn response_head(status: u16, body_len: usize, keep_alive: bool) -> String {
    format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/soap+xml; charset=utf-8\r\nContent-Length: {body_len}\r\nConnection: {}\r\n\r\n",
        status_reason(status),
        if keep_alive { "keep-alive" } else { "close" }
    )
}

/// HTTP client: POST `body` to `http://host:port/path` with default
/// config, surfacing protocol-level failures as typed errors: a `413`
/// maps to [`NetErrorKind::TooLarge`]; any other `5xx` whose body is not
/// a SOAP envelope (so it cannot carry a SOAP Fault for the XRPC layer to
/// decode) becomes a typed error carrying the status.
pub fn http_post(url: &str, body: &[u8]) -> Result<Vec<u8>, NetError> {
    let (status, resp) = http_post_with(url, body, &HttpConfig::default())?;
    classify_response(status, resp)
}

/// Decide whether an HTTP response is usable by the SOAP layer. Server
/// errors *with* a SOAP envelope pass through (the XRPC layer surfaces
/// the SOAP Fault inside); anything else 5xx/413 becomes a typed error.
pub fn classify_response(status: u16, body: Vec<u8>) -> Result<Vec<u8>, NetError> {
    if status == 413 {
        return Err(NetError::with_kind(
            NetErrorKind::TooLarge,
            format!(
                "server rejected request: HTTP 413 ({})",
                String::from_utf8_lossy(&body)
            ),
        ));
    }
    if status >= 500 && !looks_like_soap(&body) {
        return Err(NetError::with_kind(
            NetErrorKind::Other,
            format!(
                "HTTP {status} without a SOAP fault body: {}",
                String::from_utf8_lossy(&body[..body.len().min(200)])
            ),
        ));
    }
    Ok(body)
}

fn looks_like_soap(body: &[u8]) -> bool {
    let text = String::from_utf8_lossy(&body[..body.len().min(512)]);
    let trimmed = text.trim_start();
    trimmed.starts_with('<') && (trimmed.contains("Envelope") || trimmed.contains("envelope"))
}

/// HTTP client primitive: POST and return `(status, body)` without
/// classifying. Timeouts and connection failures map to typed
/// [`NetErrorKind`]s via the `io::Error` conversion. Opens a fresh
/// connection per call; for keep-alive reuse go through
/// [`http_post_pooled`] (what [`HttpTransport`] does).
pub fn http_post_with(
    url: &str,
    body: &[u8],
    config: &HttpConfig,
) -> Result<(u16, Vec<u8>), NetError> {
    let (status, body, _reused) = http_post_pooled(url, body, config, None)?;
    Ok((status, body))
}

/// A request/response exchange failure, remembering whether *any* byte
/// of the response had arrived. Zero bytes on a *reused* connection is
/// the keep-alive race — the server idle-closed the socket before
/// reading our request — and is the only case the client retries itself.
struct ExchangeError {
    error: NetError,
    before_response: bool,
}

impl ExchangeError {
    fn before(error: NetError) -> Self {
        ExchangeError {
            error,
            before_response: true,
        }
    }

    fn mid(error: NetError) -> Self {
        ExchangeError {
            error,
            before_response: false,
        }
    }
}

/// POST over a pooled keep-alive connection when `pool` is given (fresh
/// `Connection: close` exchange otherwise). Returns `(status, body,
/// reused)` where `reused` says the response came over a pooled
/// connection. A reused connection that dies before yielding a single
/// response byte is retried exactly once on a fresh connection; any
/// other failure is surfaced as-is.
pub fn http_post_pooled(
    url: &str,
    body: &[u8],
    config: &HttpConfig,
    pool: Option<&ConnectionPool>,
) -> Result<(u16, Vec<u8>, bool), NetError> {
    let (addr, path) = parse_url(url)?;
    let keep_alive = pool.is_some();
    if let Some(pool) = pool {
        if let Some(mut conn) = pool.checkout(&addr) {
            match exchange(&mut conn, &addr, &path, body, config, keep_alive) {
                Ok((status, resp, reusable)) => {
                    if reusable {
                        pool.checkin(&addr, conn);
                    }
                    return Ok((status, resp, true));
                }
                // stale pooled socket: fall through to a fresh connection
                Err(e) if e.before_response => {}
                Err(e) => return Err(e.error),
            }
        }
    }
    let mut conn = PooledConn::new(TcpStream::connect(&addr)?)?;
    let (status, resp, reusable) =
        exchange(&mut conn, &addr, &path, body, config, keep_alive).map_err(|e| e.error)?;
    if reusable {
        if let Some(pool) = pool {
            pool.checkin(&addr, conn);
        }
    }
    Ok((status, resp, false))
}

/// What a connection's head buffer starts a response at; it doubles up to
/// the server's own head limit.
const HEAD_BUF_BYTES: usize = 4096;

/// Index just past the blank line that ends a message head, looking from
/// `from` on. The server's parser shares it.
pub(crate) fn head_end(buf: &[u8], mut from: usize) -> Option<usize> {
    while let Some(nl) = buf[from..].iter().position(|&b| b == b'\n') {
        from += nl + 1;
        match &buf[from..] {
            [b'\n', ..] => return Some(from + 1),
            [b'\r', b'\n', ..] => return Some(from + 2),
            _ => {}
        }
    }
    None
}

/// One request/response exchange on an established connection. The socket
/// options were set when the connection was made (the read timeout is armed
/// again only when `config` asks for another), and both heads go through
/// the connection's own buffer. On success says whether the connection is
/// safe to pool: the response must be `Content-Length` framed, not
/// `Connection: close`, and have nothing behind its body.
fn exchange(
    conn: &mut PooledConn,
    addr: &str,
    path: &str,
    body: &[u8],
    config: &HttpConfig,
    keep_alive: bool,
) -> Result<(u16, Vec<u8>, bool), ExchangeError> {
    let PooledConn {
        stream,
        read_timeout,
        head: buf,
    } = conn;
    if *read_timeout != Some(config.read_timeout) {
        stream
            .set_read_timeout(Some(config.read_timeout))
            .map_err(|e| ExchangeError::before(e.into()))?;
        *read_timeout = Some(config.read_timeout);
    }
    buf.clear();
    write!(
        buf,
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/soap+xml; charset=utf-8\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )
    .expect("writing to a Vec cannot fail");
    write_all_vectored(stream, buf, body).map_err(|e| ExchangeError::before(e.into()))?;
    stream
        .flush()
        .map_err(|e| ExchangeError::before(e.into()))?;

    // the response head, and whatever of the body arrived with it
    buf.clear();
    buf.resize(HEAD_BUF_BYTES, 0);
    let mut filled = 0;
    let head_len = loop {
        if filled == buf.len() {
            if filled >= MAX_HEAD_BYTES {
                return Err(ExchangeError::mid(NetError::with_kind(
                    NetErrorKind::Corrupt,
                    format!("response head exceeds {MAX_HEAD_BYTES} bytes"),
                )));
            }
            buf.resize(2 * filled, 0);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => {
                return Err(ExchangeError::before(NetError::with_kind(
                    NetErrorKind::ConnectionReset,
                    "connection closed before response",
                )))
            }
            Ok(0) => {
                return Err(ExchangeError::mid(NetError::with_kind(
                    NetErrorKind::ConnectionReset,
                    "connection closed mid-headers",
                )))
            }
            Ok(n) => {
                // the terminator may straddle two reads
                let from = filled.saturating_sub(3);
                filled += n;
                if let Some(end) = head_end(&buf[..filled], from) {
                    break end;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(ExchangeError {
                    error: e.into(),
                    before_response: filled == 0,
                })
            }
        }
    };
    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| {
        ExchangeError::mid(NetError::with_kind(
            NetErrorKind::Corrupt,
            "response head is not UTF-8",
        ))
    })?;
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            ExchangeError::mid(NetError::new(format!("bad status line `{status_line}`")))
        })?;
    let mut content_length: Option<usize> = None;
    let mut conn_close = !status_line.starts_with("HTTP/1.1");
    for h in lines {
        if let Some((k, v)) = h.split_once(':') {
            let k = k.trim();
            if k.eq_ignore_ascii_case("content-length") {
                // a malformed length is a framing violation, not a missing
                // header: treating it as absent would silently switch to
                // read-to-EOF framing and return a mis-framed body
                let n = v.trim().parse().map_err(|_| {
                    ExchangeError::mid(NetError::with_kind(
                        NetErrorKind::Corrupt,
                        format!("malformed Content-Length `{}`", v.trim()),
                    ))
                })?;
                content_length = Some(n);
            } else if k.eq_ignore_ascii_case("connection") && v.trim().eq_ignore_ascii_case("close")
            {
                conn_close = true;
            }
        }
    }
    let arrived = &buf[head_len..filled];
    let (resp_body, trailing) = match content_length {
        Some(n) => {
            // the rest goes straight into the pooled buffer's spare
            // capacity: no zero fill first, no bounce through `buf`
            let mut b = BufferPool::global().get(n);
            let with_head = arrived.len().min(n);
            b.extend_from_slice(&arrived[..with_head]);
            let rest = (n - with_head) as u64;
            let got = ((&mut *stream).take(rest).read_to_end(&mut b))
                .map_err(|e| ExchangeError::mid(e.into()))?;
            if (got as u64) < rest {
                return Err(ExchangeError::mid(NetError::with_kind(
                    NetErrorKind::ConnectionReset,
                    "connection closed mid-body",
                )));
            }
            (b, arrived.len() > n)
        }
        None => {
            // no framing: the body runs to EOF, so the connection is spent
            conn_close = true;
            let mut b = arrived.to_vec();
            stream
                .read_to_end(&mut b)
                .map_err(|e| ExchangeError::mid(e.into()))?;
            (b, false)
        }
    };
    let reusable = keep_alive && !conn_close && !trailing;
    Ok((status, resp_body, reusable))
}

fn parse_url(url: &str) -> Result<(String, String), NetError> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| NetError::new(format!("expected http:// URL, got `{url}`")))?;
    match rest.split_once('/') {
        Some((addr, path)) => Ok((addr.to_string(), format!("/{path}"))),
        None => Ok((rest.to_string(), "/".to_string())),
    }
}

/// A [`Transport`] over real loopback TCP. `dest` must be an
/// `http://host:port/path` URL. Keeps a per-destination pool of idle
/// keep-alive connections (sized by
/// [`HttpConfig::pool_max_idle_per_host`]); reuse shows up as
/// `pool_hits` in [`NetMetrics`].
pub struct HttpTransport {
    pub metrics: Arc<NetMetrics>,
    pub config: HttpConfig,
    pub pool: ConnectionPool,
}

impl HttpTransport {
    pub fn new() -> Self {
        Self::with_config(HttpConfig::default())
    }

    pub fn with_config(config: HttpConfig) -> Self {
        HttpTransport {
            metrics: Arc::new(NetMetrics::new()),
            config,
            pool: ConnectionPool::new(config.pool_max_idle_per_host, config.pool_idle_timeout),
        }
    }

    fn pool_ref(&self) -> Option<&ConnectionPool> {
        (self.config.pool_max_idle_per_host > 0).then_some(&self.pool)
    }
}

impl Default for HttpTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl Transport for HttpTransport {
    fn roundtrip(&self, dest: &str, body: &[u8]) -> Result<Vec<u8>, NetError> {
        let resp = http_post_pooled(dest, body, &self.config, self.pool_ref())
            .and_then(|(status, resp, reused)| {
                if reused {
                    self.metrics.record_pool_hit();
                } else {
                    self.metrics.record_pool_miss();
                }
                classify_response(status, resp)
            })
            .inspect_err(|e| {
                self.metrics.record_failure();
                if e.kind == NetErrorKind::Timeout {
                    self.metrics.record_timeout();
                }
            })?;
        self.metrics.record(body.len(), resp.len());
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn echo_server() -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0",
            Arc::new(|path: &str, body: &[u8]| {
                let mut out = format!("path={path};").into_bytes();
                out.extend_from_slice(body);
                (200, out)
            }),
        )
        .unwrap()
    }

    #[test]
    fn post_roundtrip() {
        let server = echo_server();
        let url = format!("http://{}/xrpc", server.addr());
        let resp = http_post(&url, b"hello").unwrap();
        assert_eq!(resp, b"path=/xrpc;hello");
        assert_eq!(server.metrics.snapshot().roundtrips, 1);
    }

    #[test]
    fn large_body_roundtrip() {
        let server = echo_server();
        let url = format!("http://{}/big", server.addr());
        let body = vec![b'x'; 1 << 20];
        let resp = http_post(&url, &body).unwrap();
        assert_eq!(resp.len(), body.len() + "path=/big;".len());
    }

    #[test]
    fn concurrent_requests() {
        let server = echo_server();
        let url = format!("http://{}/c", server.addr());
        let mut handles = Vec::new();
        for i in 0..8 {
            let u = url.clone();
            handles.push(std::thread::spawn(move || {
                let body = format!("req{i}");
                let resp = http_post(&u, body.as_bytes()).unwrap();
                assert!(resp.ends_with(body.as_bytes()));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.metrics.snapshot().roundtrips, 8);
    }

    #[test]
    fn transport_impl() {
        let server = echo_server();
        let t = HttpTransport::new();
        let url = format!("http://{}/t", server.addr());
        let r = t.roundtrip(&url, b"abc").unwrap();
        assert_eq!(r, b"path=/t;abc");
        assert_eq!(t.metrics.snapshot().bytes_sent, 3);
    }

    #[test]
    fn connection_refused_is_typed_error() {
        let t = HttpTransport::new();
        let e = t.roundtrip("http://127.0.0.1:1/x", b"x").unwrap_err();
        assert_eq!(e.kind, NetErrorKind::ConnectionRefused);
        assert_eq!(t.metrics.snapshot().failures, 1);
    }

    #[test]
    fn bad_url_rejected() {
        assert!(parse_url("ftp://x").is_err());
        assert_eq!(
            parse_url("http://a:1/b/c").unwrap(),
            ("a:1".to_string(), "/b/c".to_string())
        );
        assert_eq!(
            parse_url("http://a:1").unwrap(),
            ("a:1".to_string(), "/".to_string())
        );
    }

    #[test]
    fn soap_fault_5xx_body_passes_through() {
        let fault = br#"<?xml version="1.0"?><env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope"><env:Body><env:Fault/></env:Body></env:Envelope>"#;
        let server = HttpServer::bind(
            "127.0.0.1:0",
            Arc::new(move |_: &str, _: &[u8]| (500, fault.to_vec())),
        )
        .unwrap();
        let url = format!("http://{}/f", server.addr());
        // the SOAP layer decodes the fault, so the body must come through
        let body = http_post(&url, b"x").unwrap();
        assert!(String::from_utf8_lossy(&body).contains("Fault"));
    }

    #[test]
    fn non_soap_5xx_is_typed_error() {
        let server = HttpServer::bind(
            "127.0.0.1:0",
            Arc::new(|_: &str, _: &[u8]| (500, b"Internal proxy meltdown".to_vec())),
        )
        .unwrap();
        let url = format!("http://{}/f", server.addr());
        let e = http_post(&url, b"x").unwrap_err();
        assert_eq!(e.kind, NetErrorKind::Other);
        assert!(e.message.contains("HTTP 500"), "{}", e.message);
        assert!(e.message.contains("meltdown"), "{}", e.message);
    }

    #[test]
    fn pooled_transport_reuses_connections() {
        let server = echo_server();
        let t = HttpTransport::new();
        let url = format!("http://{}/p", server.addr());
        for i in 0..5 {
            let body = format!("req{i}");
            let resp = t.roundtrip(&url, body.as_bytes()).unwrap();
            assert!(resp.ends_with(body.as_bytes()));
        }
        let s = t.metrics.snapshot();
        assert_eq!(s.roundtrips, 5);
        assert_eq!(s.pool_misses, 1, "only the first call should connect");
        assert_eq!(s.pool_hits, 4);
        assert_eq!(t.pool.idle_count(&server.addr()), 1);
        // the server saw one connection carrying all five requests
        assert_eq!(server.metrics.snapshot().roundtrips, 5);
    }

    #[test]
    fn pool_disabled_by_zero_capacity() {
        let server = echo_server();
        let t = HttpTransport::with_config(HttpConfig {
            pool_max_idle_per_host: 0,
            ..HttpConfig::default()
        });
        let url = format!("http://{}/p", server.addr());
        for _ in 0..3 {
            t.roundtrip(&url, b"x").unwrap();
        }
        let s = t.metrics.snapshot();
        assert_eq!(s.pool_hits, 0);
        assert_eq!(s.pool_misses, 3);
        assert_eq!(t.pool.idle_count(&server.addr()), 0);
    }

    #[test]
    fn pool_idle_timeout_forces_fresh_connection() {
        let server = echo_server();
        let t = HttpTransport::with_config(HttpConfig {
            pool_idle_timeout: Duration::from_millis(5),
            ..HttpConfig::default()
        });
        let url = format!("http://{}/p", server.addr());
        t.roundtrip(&url, b"x").unwrap();
        std::thread::sleep(Duration::from_millis(25));
        t.roundtrip(&url, b"y").unwrap();
        let s = t.metrics.snapshot();
        assert_eq!(s.pool_hits, 0, "expired connection must not be reused");
        assert_eq!(s.pool_misses, 2);
    }

    /// A raw single-shot server that *claims* keep-alive but closes the
    /// connection after each response — the keep-alive race. The client
    /// must transparently retry the stale pooled socket once.
    #[test]
    fn stale_pooled_connection_retried_once() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut content_length = 0usize;
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    let line = line.trim_end();
                    if line.is_empty() {
                        break;
                    }
                    if let Some((k, v)) = line.split_once(':') {
                        if k.trim().eq_ignore_ascii_case("content-length") {
                            content_length = v.trim().parse().unwrap();
                        }
                    }
                }
                let mut body = vec![0u8; content_length];
                reader.read_exact(&mut body).unwrap();
                let mut stream = stream;
                let head = response_head(200, body.len(), true);
                write_all_vectored(&mut stream, head.as_bytes(), &body).unwrap();
                // dropping the stream closes it despite `keep-alive`
            }
        });
        let t = HttpTransport::new();
        let url = format!("http://{addr}/s");
        assert_eq!(t.roundtrip(&url, b"one").unwrap(), b"one");
        // let the server's FIN reach the pooled socket
        std::thread::sleep(Duration::from_millis(30));
        // checkout hands back the dead socket; the zero-bytes failure
        // must be absorbed by a single fresh-connection retry
        assert_eq!(t.roundtrip(&url, b"two").unwrap(), b"two");
        let s = t.metrics.snapshot();
        assert_eq!(s.roundtrips, 2);
        assert_eq!(s.failures, 0);
        assert_eq!(s.pool_hits, 0, "the stale attempt must not count as a hit");
        assert_eq!(s.pool_misses, 2);
        server.join().unwrap();
    }

    /// The client reads the head into the connection's buffer, takes what
    /// arrived of the body from there and the rest off the socket: the
    /// response is the same wherever the reads fall, a head past the first
    /// buffer included, and bytes behind the body spend the connection.
    #[test]
    fn a_response_is_read_whole_however_it_arrives() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pad = format!("X-Pad: {}\r\n", "p".repeat(2 * HEAD_BUF_BYTES));
        let body = "b".repeat(3 * HEAD_BUF_BYTES);
        let response = format!(
            "HTTP/1.1 200 OK\r\n{pad}Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let steps = [1, 7, HEAD_BUF_BYTES, usize::MAX];
        let server = std::thread::spawn({
            let response = response.clone();
            move || {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut stream = stream;
                let mut read_request = move || {
                    let mut line = String::new();
                    while reader.read_line(&mut line).unwrap() > 2 {
                        line.clear();
                    }
                };
                for step in steps {
                    read_request();
                    for piece in response.as_bytes().chunks(step.min(response.len())) {
                        stream.write_all(piece).unwrap();
                    }
                }
                read_request();
                let short = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokextra";
                stream.write_all(short).unwrap();
            }
        });
        let t = HttpTransport::new();
        let url = format!("http://{addr}/x");
        for _ in steps {
            assert_eq!(t.roundtrip(&url, b"").unwrap(), body.as_bytes());
        }
        assert_eq!(t.pool.idle_count(&addr.to_string()), 1);
        assert_eq!(t.roundtrip(&url, b"").unwrap(), b"ok");
        assert_eq!(t.pool.idle_count(&addr.to_string()), 0, "trailing bytes");
        let s = t.metrics.snapshot();
        assert_eq!((s.pool_misses, s.pool_hits), (1, 4));
        assert_eq!(head_end(b"a\r\n\r", 0), None);
        assert_eq!(head_end(b"a\r\n\r\nb", 0), Some(5));
        assert_eq!(head_end(b"a\n\nb", 1), Some(3));
        server.join().unwrap();
    }

    /// Keep-alive reuse (with its recycled per-connection buffers) must be
    /// invisible: N different-sized requests over one pooled connection
    /// yield byte-identical responses to fresh-connection requests.
    #[test]
    fn keep_alive_responses_byte_identical_to_fresh_connections() {
        let server = echo_server();
        let url = format!("http://{}/ka", server.addr());
        let pooled = HttpTransport::new();
        let fresh = HttpTransport::with_config(HttpConfig {
            pool_max_idle_per_host: 0,
            ..HttpConfig::default()
        });
        // sizes chosen to shrink and grow across buffer-pool classes
        for size in [3usize, 70_000, 512, 1 << 20, 1, 9_000, 4 << 20, 100] {
            let body: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            let a = pooled.roundtrip(&url, &body).unwrap();
            let b = fresh.roundtrip(&url, &body).unwrap();
            assert_eq!(a, b, "{size}-byte request diverged");
            assert_eq!(&a[a.len() - size..], &body[..], "{size}-byte echo corrupt");
        }
        assert!(pooled.metrics.snapshot().pool_hits >= 7);
    }

    /// A malformed Content-Length used to be treated as *absent*, silently
    /// switching to read-to-EOF framing; it must be a typed protocol error.
    #[test]
    fn malformed_content_length_is_corrupt_error() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            loop {
                line.clear();
                reader.read_line(&mut line).unwrap();
                if line.trim_end().is_empty() {
                    break;
                }
            }
            stream
                .write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: banana\r\nConnection: close\r\n\r\nhi",
                )
                .unwrap();
        });
        let url = format!("http://{addr}/m");
        let e = http_post(&url, b"").unwrap_err();
        assert_eq!(e.kind, NetErrorKind::Corrupt);
        assert!(e.message.contains("Content-Length"), "{}", e.message);
        server.join().unwrap();
    }

    #[test]
    fn graceful_shutdown_drains_in_flight_request() {
        let mut server = HttpServer::bind(
            "127.0.0.1:0",
            Arc::new(|_: &str, b: &[u8]| {
                std::thread::sleep(Duration::from_millis(150));
                (200, b.to_vec())
            }),
        )
        .unwrap();
        let url = format!("http://{}/slow", server.addr());
        let client = std::thread::spawn(move || http_post(&url, b"payload"));
        // let the request reach the handler before shutting down
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.active_connections() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(server.active_connections() > 0, "request never arrived");
        assert!(
            server.shutdown_graceful(Duration::from_secs(5)),
            "in-flight request must drain within the deadline"
        );
        assert_eq!(server.active_connections(), 0);
        // the in-flight response was delivered, not cut off
        assert_eq!(client.join().unwrap().unwrap(), b"payload");
    }

    #[test]
    fn graceful_shutdown_closes_idle_keepalive_quickly() {
        let mut server = echo_server();
        let t = HttpTransport::new();
        let url = format!("http://{}/idle", server.addr());
        t.roundtrip(&url, b"x").unwrap();
        // the pooled keep-alive connection now sits idle in the server;
        // its worker must notice the shutdown well inside the 30 s read
        // timeout
        let started = std::time::Instant::now();
        assert!(server.shutdown_graceful(Duration::from_secs(5)));
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "idle keep-alive worker held shutdown for {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn shutdown_stops_accepting_new_connections() {
        let mut server = echo_server();
        let url = format!("http://{}/gone", server.addr());
        http_post(&url, b"x").unwrap();
        assert!(server.shutdown_graceful(Duration::from_secs(5)));
        // the listener is gone: fresh connections are refused
        let e = http_post(&url, b"x").unwrap_err();
        assert_eq!(e.kind, NetErrorKind::ConnectionRefused);
    }

    #[test]
    fn oversized_body_rejected_with_413_and_toolarge() {
        let server = HttpServer::bind_with(
            "127.0.0.1:0",
            Arc::new(|_: &str, b: &[u8]| (200, b.to_vec())),
            HttpConfig {
                max_body_bytes: 1024,
                ..HttpConfig::default()
            },
        )
        .unwrap();
        let url = format!("http://{}/big", server.addr());
        let e = http_post(&url, &vec![b'x'; 4096]).unwrap_err();
        assert_eq!(e.kind, NetErrorKind::TooLarge);
        // under the limit still works
        assert!(http_post(&url, &vec![b'x'; 512]).is_ok());
    }
}
