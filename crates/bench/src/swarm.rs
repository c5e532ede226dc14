//! S1: the connection-scalability swarm. One driver thread multiplexes
//! thousands of closed-loop keep-alive HTTP clients over the same
//! [`Poller`](xrpc_net::poll::Poller) primitive the server's reactor is
//! built on, hammering a real peer (SOAP parse → XQuery eval →
//! serialize) with pre-serialized `echoVoid` requests. Each client owns
//! one connection and one in-flight request; completions, 503 sheds,
//! errors and per-request latencies are tallied per cell.
//!
//! The experiment measures the reactor's capacity at 1k/5k/10k
//! concurrent clients — the regime where a thread per socket stops being
//! a server architecture.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xrpc_net::http::{Handler, HttpConfig, HttpServer};
use xrpc_net::metrics::MetricsSnapshot;
use xrpc_net::poll::{connect_nonblocking, take_socket_error, Event, Poller};
use xrpc_peer::{EngineKind, Peer};

/// New connects initiated per event-loop iteration during ramp-up, so
/// a 10k swarm doesn't dump its entire SYN burst on the listener's
/// (1024-deep) backlog at once.
const CONNECT_BATCH: usize = 512;

/// Event-loop tick: backoff/deadline granularity.
const TICK: Duration = Duration::from_millis(20);

/// What one swarm cell produced, client side.
#[derive(Debug, Default)]
pub struct SwarmReport {
    pub clients: usize,
    pub completed: u64,
    pub shed: u64,
    pub errors: u64,
    pub elapsed: Duration,
    /// Latency of every completed request, milliseconds, send→last byte.
    pub latencies_ms: Vec<f64>,
}

impl SwarmReport {
    pub fn req_per_s(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Shed fraction over all *answered* attempts (completions + 503s).
    pub fn shed_rate(&self) -> f64 {
        let total = self.completed + self.shed;
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }

    fn quantile(&self, sorted: &[f64], q: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() as f64 * q) as usize).min(sorted.len() - 1);
        sorted[idx]
    }

    /// (p50, p99) of the completed-request latencies, milliseconds.
    pub fn quantiles_ms(&self) -> (f64, f64) {
        let mut s = self.latencies_ms.clone();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        (self.quantile(&s, 0.50), self.quantile(&s, 0.99))
    }
}

#[derive(PartialEq)]
enum CState {
    Connecting,
    Sending,
    Receiving,
    /// Parked until the backoff deadline; no live socket.
    Down,
}

struct Client {
    stream: Option<TcpStream>,
    state: CState,
    /// Registered epoll interest (readable, writable).
    interest: (bool, bool),
    woff: usize,
    rbuf: Vec<u8>,
    started: Instant,
}

/// The single-threaded swarm driver: `clients` closed-loop connections
/// against `addr`, each repeating `request` (a complete HTTP/1.1
/// keep-alive POST) for `duration`. A client that is shed (503) or
/// errors reconnects after `backoff` — the real-world retry pressure a
/// shedding server must survive.
pub fn run_swarm(
    addr: SocketAddr,
    clients: usize,
    duration: Duration,
    backoff: Duration,
    request: &[u8],
) -> SwarmReport {
    let poller = Poller::new().expect("swarm poller");
    let mut conns: Vec<Client> = (0..clients)
        .map(|_| Client {
            stream: None,
            state: CState::Down,
            interest: (false, false),
            woff: 0,
            rbuf: Vec::with_capacity(1024),
            started: Instant::now(),
        })
        .collect();
    let mut report = SwarmReport {
        clients,
        ..SwarmReport::default()
    };
    // ramp queue: everyone starts unconnected; retry queue: (due, idx)
    let mut to_connect: VecDeque<usize> = (0..clients).collect();
    let mut retry: VecDeque<(Instant, usize)> = VecDeque::new();
    let mut events: Vec<Event> = Vec::new();
    let t0 = Instant::now();
    let deadline = t0 + duration;

    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        // move due retries back into the connect queue
        while retry.front().is_some_and(|(due, _)| *due <= now) {
            let (_, idx) = retry.pop_front().unwrap();
            to_connect.push_back(idx);
        }
        // ramp/reconnect in bounded batches
        for _ in 0..CONNECT_BATCH {
            let Some(idx) = to_connect.pop_front() else {
                break;
            };
            match connect_nonblocking(&addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    poller
                        .add(stream.as_raw_fd(), idx as u64, false, true)
                        .expect("register client");
                    let c = &mut conns[idx];
                    c.stream = Some(stream);
                    c.state = CState::Connecting;
                    c.interest = (false, true);
                    c.woff = 0;
                    c.rbuf.clear();
                }
                Err(_) => {
                    report.errors += 1;
                    retry.push_back((now + backoff, idx));
                }
            }
        }
        let timeout = deadline.saturating_duration_since(now).min(TICK);
        poller.wait(&mut events, Some(timeout)).expect("swarm wait");
        for &ev in &events {
            let idx = ev.token as usize;
            if idx >= conns.len() || conns[idx].stream.is_none() {
                continue;
            }
            let now = Instant::now();
            if conns[idx].state == CState::Connecting {
                if ev.error
                    || take_socket_error(conns[idx].stream.as_ref().unwrap().as_raw_fd()).is_err()
                {
                    report.errors += 1;
                    park(&poller, &mut conns[idx], &mut retry, now + backoff, idx);
                    continue;
                }
                begin_request(&mut conns[idx], now);
            }
            if conns[idx].state == CState::Sending
                && (ev.writable || ev.hangup)
                && pump_write(&mut conns[idx], request).is_err()
            {
                report.errors += 1;
                park(&poller, &mut conns[idx], &mut retry, now + backoff, idx);
                continue;
            }
            if conns[idx].state == CState::Receiving && (ev.readable || ev.hangup) {
                pump_read(
                    &poller,
                    &mut conns[idx],
                    request,
                    &mut report,
                    &mut retry,
                    now,
                    backoff,
                    idx,
                );
            }
            sync_interest(&poller, &mut conns[idx], idx);
        }
    }
    report.elapsed = t0.elapsed();
    report
}

/// Drop the connection (deregistering its fd implicitly) and schedule a
/// reconnect attempt at `due`.
fn park(
    poller: &Poller,
    c: &mut Client,
    retry: &mut VecDeque<(Instant, usize)>,
    due: Instant,
    idx: usize,
) {
    if let Some(s) = c.stream.take() {
        let _ = poller.delete(s.as_raw_fd());
    }
    c.state = CState::Down;
    c.interest = (false, false);
    retry.push_back((due, idx));
}

/// Arm the next request on a live keep-alive connection. Leaves `rbuf`
/// alone: leftover bytes may hold a further buffered response (drained
/// by `pump_read`'s parse loop); fresh connects clear it explicitly.
fn begin_request(c: &mut Client, now: Instant) {
    c.state = CState::Sending;
    c.woff = 0;
    c.started = now;
}

/// Write as much of the request as the socket takes. `Ok(())` on
/// progress (state advances to Receiving when complete); `Err(())` on a
/// transport error.
fn pump_write(c: &mut Client, request: &[u8]) -> Result<(), ()> {
    let mut s = c.stream.as_ref().unwrap();
    while c.woff < request.len() {
        match s.write(&request[c.woff..]) {
            Ok(0) => return Err(()),
            Ok(n) => c.woff += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    if c.woff == request.len() {
        c.state = CState::Receiving;
    }
    Ok(())
}

/// Read whatever is buffered and classify any complete response:
/// 200 keep-alive → next request on the same socket, 503 → shed +
/// reconnect after backoff, anything else (including EOF mid-response)
/// → error + reconnect.
#[allow(clippy::too_many_arguments)]
fn pump_read(
    poller: &Poller,
    c: &mut Client,
    request: &[u8],
    report: &mut SwarmReport,
    retry: &mut VecDeque<(Instant, usize)>,
    now: Instant,
    backoff: Duration,
    idx: usize,
) {
    let mut eof = false;
    let mut buf = [0u8; 4096];
    loop {
        let mut s = c.stream.as_ref().unwrap();
        match s.read(&mut buf) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => c.rbuf.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                eof = true;
                break;
            }
        }
    }
    // drain every complete response already buffered, not just the
    // first — a straggler (e.g. after a server 503-then-close) must not
    // sit in rbuf until the next readiness event
    while let Some((status, total)) = parse_response(&c.rbuf) {
        if status != 200 {
            if status == 503 {
                report.shed += 1;
            } else {
                report.errors += 1;
            }
            park(poller, c, retry, now + backoff, idx);
            return;
        }
        report.completed += 1;
        report
            .latencies_ms
            .push(c.started.elapsed().as_secs_f64() * 1e3);
        c.rbuf.drain(..total);
        begin_request(c, now);
        // optimistic inline write: the socket buffer is almost always
        // empty, so the common case never touches epoll
        if pump_write(c, request).is_err() {
            report.errors += 1;
            park(poller, c, retry, now + backoff, idx);
            return;
        }
        if c.state != CState::Receiving {
            // request partially written: epoll finishes the send; any
            // further buffered bytes wait for the next read event
            return;
        }
    }
    if eof {
        report.errors += 1;
        park(poller, c, retry, now + backoff, idx);
    }
}

/// Re-arm epoll interest to match the client's state, only when it
/// actually changed (level-triggered, so stable interest costs nothing).
fn sync_interest(poller: &Poller, c: &mut Client, idx: usize) {
    let Some(s) = c.stream.as_ref() else {
        return;
    };
    let want = match c.state {
        CState::Connecting | CState::Sending => (false, true),
        CState::Receiving => (true, false),
        CState::Down => return,
    };
    if want != c.interest {
        let _ = poller.modify(s.as_raw_fd(), idx as u64, want.0, want.1);
        c.interest = want;
    }
}

/// Minimal HTTP/1.1 response framing: returns `(status, total_len)`
/// once the head and the full `Content-Length` body are buffered.
fn parse_response(buf: &[u8]) -> Option<(u16, usize)> {
    let he = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..he]).ok()?;
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    let cl: usize = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))?
        .1
        .trim()
        .parse()
        .ok()?;
    let total = he + 4 + cl;
    (buf.len() >= total).then_some((status, total))
}

// ---------------------------------------------------------------------
// Cell orchestration: a real peer behind the HTTP server
// ---------------------------------------------------------------------

/// One swarm cell's full outcome: the client-side tally plus the
/// server's own transport counters (sheds, roundtrips) for cross-checks.
pub struct SwarmCell {
    pub report: SwarmReport,
    pub server: MetricsSnapshot,
}

/// Serialize the `t:echoVoid()` XRPC request once and wrap it as a
/// complete keep-alive HTTP POST — every swarm request is these bytes.
pub fn swarm_request_bytes() -> Vec<u8> {
    let mut req = xrpc_proto::XrpcRequest::new("test", "echoVoid", 0);
    req.push_call(vec![]);
    let body = req.to_xml().unwrap();
    let mut out = format!(
        "POST /xrpc HTTP/1.1\r\nHost: swarm\r\nContent-Type: application/soap+xml; charset=utf-8\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Server config for a swarm cell: admission sized for the swarm
/// (dispatch queue ≥ one in-flight request per client, queue-wait
/// shedding effectively off) so the cell measures connection scalability.
pub fn swarm_config(clients: usize) -> HttpConfig {
    HttpConfig {
        dispatch_queue: clients + 1024,
        shed_wait: Duration::from_secs(600),
        ..HttpConfig::default()
    }
}

/// Boot a fresh peer behind a server with `config`, run the swarm
/// against it, shut it down.
pub fn run_swarm_cell(clients: usize, duration: Duration, config: HttpConfig) -> SwarmCell {
    let b = Peer::new("xrpc://swarm.example.org", EngineKind::Tree);
    b.register_module(xmark::test_module()).unwrap();
    let h = b.soap_handler();
    let handler: Arc<Handler> = Arc::new(move |_path, body| (200, h(body)));
    let mut server =
        HttpServer::bind_with("127.0.0.1:0", handler, config).expect("bind swarm server");
    let addr: SocketAddr = server.addr().parse().expect("server addr");
    let request = swarm_request_bytes();
    let report = run_swarm(
        addr,
        clients,
        duration,
        Duration::from_millis(200),
        &request,
    );
    let server_metrics = server.metrics.snapshot();
    server.shutdown_graceful(Duration::from_secs(5));
    SwarmCell {
        report,
        server: server_metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swarm_request_parses_as_http() {
        let req = swarm_request_bytes();
        let head_end = req.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        let head = std::str::from_utf8(&req[..head_end]).unwrap();
        assert!(head.starts_with("POST /xrpc HTTP/1.1"));
        assert!(head.contains("Connection: keep-alive"));
    }

    #[test]
    fn response_parser_requires_full_body() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody";
        for cut in 1..full.len() {
            assert_eq!(parse_response(&full[..cut]), None, "cut at {cut}");
        }
        assert_eq!(parse_response(full), Some((200, full.len())));
        let shed = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(parse_response(shed), Some((503, shed.len())));
    }

    #[test]
    fn pump_read_drains_multiple_buffered_responses() {
        // two complete responses already buffered on the socket must
        // both be consumed by one pump, not one-per-readiness-event
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (mut srv, _) = l.accept().unwrap();
        let resp = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        srv.write_all(resp).unwrap();
        srv.write_all(resp).unwrap();
        srv.flush().unwrap();
        stream.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        let mut c = Client {
            stream: Some(stream),
            state: CState::Receiving,
            interest: (true, false),
            woff: 0,
            rbuf: Vec::new(),
            started: Instant::now(),
        };
        let mut report = SwarmReport::default();
        let mut retry = VecDeque::new();
        let request = b"POST /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
        let deadline = Instant::now() + Duration::from_secs(5);
        while report.completed < 2 {
            assert!(
                Instant::now() < deadline,
                "buffered responses not drained: {report:?}"
            );
            pump_read(
                &poller,
                &mut c,
                request,
                &mut report,
                &mut retry,
                Instant::now(),
                Duration::from_millis(10),
                0,
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(report.completed, 2);
        assert_eq!(report.errors, 0);
        assert_eq!(report.shed, 0);
        assert!(retry.is_empty(), "live connection must not be parked");
    }

    #[test]
    fn small_swarm_completes_requests() {
        let cell = run_swarm_cell(8, Duration::from_millis(800), swarm_config(8));
        assert!(
            cell.report.completed > 8,
            "only {} completions ({} errors, {} shed)",
            cell.report.completed,
            cell.report.errors,
            cell.report.shed
        );
        assert_eq!(cell.report.shed, 0, "shed under capacity");
        assert_eq!(cell.server.sheds, 0, "server sheds");
        assert_eq!(
            cell.report.latencies_ms.len(),
            cell.report.completed as usize
        );
        let (p50, p99) = cell.report.quantiles_ms();
        assert!(p50 <= p99);
    }

    #[test]
    fn over_cap_sheds_and_swarm_counts_it() {
        // 12 clients against a 4-connection cap: the server must shed,
        // and every shed must be a clean readable 503 (errors stay at
        // connect-refused level, not protocol garbage)
        let capped = HttpConfig {
            max_connections: 4,
            ..HttpConfig::default()
        };
        let cell = run_swarm_cell(12, Duration::from_millis(800), capped);
        assert!(cell.report.shed > 0, "the cap must shed: {:?}", cell.report);
        assert!(cell.report.completed > 0, "capped clients still progress");
        assert_eq!(cell.server.sheds, cell.report.shed);
    }
}
