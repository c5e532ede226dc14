//! HTTP edge cases against a live loopback server: keep-alive reuse, the
//! worker hand-off, malformed requests, truncated bodies, timeout mapping,
//! body-size enforcement, slow-loris timeouts, request pipelining (served
//! one request at a time per connection), cancellation of a stopped
//! server's jobs, admission shedding, hundreds of concurrent keep-alive
//! connections and the requests the reactor answers on its own thread — at
//! the protocol level (raw sockets, no client helper).

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};
use xrpc_net::http::{http_post_with, HttpServer};
use xrpc_net::{HttpConfig, NetErrorKind};

fn echo_server() -> HttpServer {
    HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(|_path: &str, body: &[u8]| (200, body.to_vec())),
    )
    .unwrap()
}

/// Read one HTTP response off `reader`: (status, body).
fn read_response(reader: &mut impl BufRead) -> (u16, Vec<u8>) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line `{status_line}`"));
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).unwrap();
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().unwrap();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, body)
}

/// Sequential requests on one keep-alive connection share the socket, and
/// one worker serves them all: the worker that went idle last takes the
/// next request, so a closed loop does not rotate over the pool.
#[test]
fn keep_alive_reuses_one_connection_for_sequential_requests() {
    const REQUESTS: usize = 24;
    let served_by = Arc::new(Mutex::new(HashSet::new()));
    let seen = served_by.clone();
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(move |_path: &str, body: &[u8]| {
            seen.lock().unwrap().insert(std::thread::current().id());
            (200, body.to_vec())
        }),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for i in 0..REQUESTS {
        let body = format!("request-{i}");
        let head = format!(
            "POST /xrpc HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            server.addr(),
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        stream.flush().unwrap();
        let (status, resp) = read_response(&mut reader);
        assert_eq!(status, 200);
        assert_eq!(
            resp,
            body.as_bytes(),
            "request {i} echoed on the same socket"
        );
    }
    assert_eq!(
        server.metrics.snapshot().roundtrips,
        REQUESTS as u64,
        "every request served over one connection"
    );
    assert_eq!(
        served_by.lock().unwrap().len(),
        1,
        "a closed loop stays on the worker that went idle last"
    );
}

/// As many concurrent requests as workers, each held in its handler until
/// all of them have arrived: the idle stack hands each job to a distinct
/// worker and loses no wake-up, or the barrier never opens.
#[test]
fn concurrent_requests_each_get_their_own_worker() {
    const WORKERS: usize = 4;
    let barrier = Arc::new(Barrier::new(WORKERS));
    let server = HttpServer::bind_with(
        "127.0.0.1:0",
        Arc::new(move |_: &str, b: &[u8]| {
            barrier.wait();
            (200, b.to_vec())
        }),
        HttpConfig {
            reactor_workers: WORKERS,
            ..HttpConfig::default()
        },
    )
    .unwrap();
    let conns: Vec<TcpStream> = (0..WORKERS)
        .map(|i| {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let body = format!("w{i}");
            let req = format!(
                "POST /xrpc HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            s.write_all(req.as_bytes()).unwrap();
            s
        })
        .collect();
    for (i, s) in conns.iter().enumerate() {
        let (status, body) = read_response(&mut BufReader::new(s));
        assert_eq!(status, 200, "request {i}");
        assert_eq!(body, format!("w{i}").as_bytes());
    }
}

/// Many keep-alive clients with one request in flight each, against a
/// default-config server: every request is served and nothing is shed.
/// All requests are written before any response is read, so the reactor
/// holds every connection and every request at once. 256 connections
/// cost ≈ 520 fds (one per end, plus the server's own), which fits a
/// stock 1024 soft `RLIMIT_NOFILE`.
#[test]
fn many_keep_alive_connections_in_flight_at_once_are_never_shed() {
    const CLIENTS: usize = 256;
    let server = echo_server();
    let conns: Vec<TcpStream> = (0..CLIENTS)
        .map(|i| {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let body = format!("client-{i}");
            let req = format!(
                "POST /xrpc HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                body.len()
            );
            s.write_all(req.as_bytes()).unwrap();
            s
        })
        .collect();
    for (i, s) in conns.iter().enumerate() {
        let (status, body) = read_response(&mut BufReader::new(s));
        assert_eq!(status, 200, "client {i}");
        assert_eq!(body, format!("client-{i}").as_bytes());
    }
    let m = server.metrics.snapshot();
    assert_eq!(m.sheds, 0, "default admission shed under {CLIENTS} clients");
    assert_eq!(m.roundtrips, CLIENTS as u64);
}

#[test]
fn malformed_request_line_gets_400() {
    let server = echo_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"THIS-IS-NOT-HTTP\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut resp = String::new();
    stream.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    assert!(resp.contains("malformed request line"), "{resp}");
}

#[test]
fn unsupported_method_gets_400() {
    let server = echo_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"DELETE /xrpc HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
        .unwrap();
    let mut resp = String::new();
    stream.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    assert!(resp.contains("unsupported method"), "{resp}");
}

/// A client that closes its side mid-body or mid-headers gets its
/// connection closed without a response: there is no complete request to
/// answer.
#[test]
fn truncated_request_closes_connection_without_response() {
    let server = echo_server();
    for partial in [
        &b"POST /xrpc HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly-this"[..],
        b"POST /xrpc HTTP/1.1\r\nContent-Length: 4\r\nX-Unfini",
    ] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(partial).unwrap();
        stream.flush().unwrap();
        // half-close: the server sees EOF mid-request
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).unwrap();
        assert!(
            resp.is_empty(),
            "truncated request must not produce a response: {:?}",
            String::from_utf8_lossy(&resp)
        );
    }
    assert_eq!(server.metrics.snapshot().roundtrips, 0);
}

#[test]
fn slow_server_maps_to_timeout_kind_at_client() {
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(|_: &str, b: &[u8]| {
            std::thread::sleep(Duration::from_millis(500));
            (200, b.to_vec())
        }),
    )
    .unwrap();
    let url = format!("http://{}/slow", server.addr());
    let cfg = HttpConfig {
        read_timeout: Duration::from_millis(50),
        ..HttpConfig::default()
    };
    let err = http_post_with(&url, b"x", &cfg).unwrap_err();
    assert_eq!(err.kind, NetErrorKind::Timeout);
    assert!(err.kind.retryable(), "client timeouts are retryable");
}

#[test]
fn oversized_content_length_rejected_before_body_arrives() {
    let server = HttpServer::bind_with(
        "127.0.0.1:0",
        Arc::new(|_: &str, b: &[u8]| (200, b.to_vec())),
        HttpConfig {
            max_body_bytes: 1024,
            ..HttpConfig::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // announce a huge body but send none: the 413 must come back anyway,
    // proving the server rejects on the header alone
    stream
        .write_all(b"POST /xrpc HTTP/1.1\r\nContent-Length: 10000000000\r\n\r\n")
        .unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 413);
    assert!(
        String::from_utf8_lossy(&body).contains("exceeds limit"),
        "{}",
        String::from_utf8_lossy(&body)
    );
}

/// Slow-loris: a client trickling a partial header must get a clean
/// close (FIN, zero response bytes) once `read_timeout` expires — not a
/// hung worker, not a reset mid-handshake.
#[test]
fn slow_loris_partial_header_cleanly_closed_after_read_timeout() {
    let server = HttpServer::bind_with(
        "127.0.0.1:0",
        Arc::new(|_: &str, b: &[u8]| (200, b.to_vec())),
        HttpConfig {
            read_timeout: Duration::from_millis(200),
            ..HttpConfig::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // a header fragment, then silence — never the terminating CRLFCRLF
    stream
        .write_all(b"POST /xrpc HTTP/1.1\r\nContent-Le")
        .unwrap();
    stream.flush().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let mut resp = Vec::new();
    stream.read_to_end(&mut resp).unwrap();
    assert!(
        resp.is_empty(),
        "a partial request must not be answered: {:?}",
        String::from_utf8_lossy(&resp)
    );
    assert!(
        started.elapsed() >= Duration::from_millis(150),
        "closed before the read timeout"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "close took {:?}, worker looks hung",
        started.elapsed()
    );
    assert_eq!(server.metrics.snapshot().roundtrips, 0);
}

/// Two requests written back-to-back on one connection before reading
/// anything: both answered, in order, each correctly framed.
#[test]
fn pipelined_requests_answered_in_order() {
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(|path: &str, body: &[u8]| {
            let mut out = format!("path={path};").into_bytes();
            out.extend_from_slice(body);
            (200, out)
        }),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut pipelined = Vec::new();
    for (path, body) in [("/first", "alpha"), ("/second", "bravo")] {
        pipelined.extend_from_slice(
            format!(
                "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
    }
    stream.write_all(&pipelined).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let (s1, r1) = read_response(&mut reader);
    let (s2, r2) = read_response(&mut reader);
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(r1, b"path=/first;alpha", "first answer first");
    assert_eq!(r2, b"path=/second;bravo", "second answer second");
    assert_eq!(server.metrics.snapshot().roundtrips, 2);
}

/// A client that pipelines sixteen 4 MiB requests while the first one is
/// held in its handler: the server reads one request and leaves the rest
/// in the socket, so what the client manages to write is one request plus
/// the two kernel socket buffers, not all 64 MiB. Once the handler is
/// released every request is answered, in order.
#[test]
fn a_pipelining_client_is_read_one_request_at_a_time() {
    const REQUESTS: usize = 16;
    const BODY: usize = 4 << 20;
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let held = gate.clone();
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(move |path: &str, _: &[u8]| {
            let (open, opened) = &*held;
            let mut open = open.lock().unwrap();
            while !*open {
                open = opened.wait(open).unwrap();
            }
            (200, path.as_bytes().to_vec())
        }),
    )
    .unwrap();
    let body = vec![b'x'; BODY];
    let heads: Vec<String> = (0..REQUESTS)
        .map(|i| format!("POST /{i} HTTP/1.1\r\nHost: x\r\nContent-Length: {BODY}\r\n\r\n"))
        .collect();
    let segments: Vec<&[u8]> = heads
        .iter()
        .flat_map(|h| [h.as_bytes(), &body[..]])
        .collect();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nonblocking(true).unwrap();
    // for two seconds, write whatever the server takes
    let (mut seg, mut off, mut sent) = (0, 0, 0);
    let until = Instant::now() + Duration::from_secs(2);
    while seg < segments.len() && Instant::now() < until {
        match stream.write(&segments[seg][off..]) {
            Ok(n) => {
                sent += n;
                off += n;
                if off == segments[seg].len() {
                    (seg, off) = (seg + 1, 0);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1))
            }
            Err(e) => panic!("pipelined write failed: {e}"),
        }
    }
    assert!(
        sent < 40 << 20,
        "the server took {} of {} MiB pipelined behind a held request",
        sent >> 20,
        (REQUESTS * BODY) >> 20
    );
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    stream.set_nonblocking(false).unwrap();
    for (k, segment) in segments.iter().enumerate().skip(seg) {
        let from = if k == seg { off } else { 0 };
        stream.write_all(&segment[from..]).unwrap();
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(&stream);
    for i in 0..REQUESTS {
        let (status, answer) = read_response(&mut reader);
        assert_eq!(status, 200, "request {i}");
        assert_eq!(answer, format!("/{i}").as_bytes(), "answers in order");
    }
}

/// A server stopped while one job runs and another waits behind it on its
/// only worker cancels both: the running handler sees its connection's
/// kill flag, and the queued job is dropped before it starts. The two
/// counters add up to both jobs.
#[test]
fn a_stopped_server_cancels_its_running_and_queued_jobs() {
    let (entered_tx, entered) = mpsc::channel();
    let (saw_tx, saw) = mpsc::channel();
    let mut server = HttpServer::bind_with(
        "127.0.0.1:0",
        Arc::new(move |_: &str, _: &[u8]| {
            let kill = xrpc_net::current_job().expect("a handler runs as a reactor job");
            entered_tx.send(()).unwrap();
            let started = Instant::now();
            while !kill.load(Ordering::Relaxed) && started.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = saw_tx.send(kill.load(Ordering::Relaxed));
            (200, Vec::new())
        }),
        HttpConfig {
            reactor_workers: 1,
            ..HttpConfig::default()
        },
    )
    .unwrap();
    let request = b"POST /xrpc HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\n\r\nx";
    let mut a = TcpStream::connect(server.addr()).unwrap();
    a.write_all(request).unwrap();
    entered
        .recv_timeout(Duration::from_secs(5))
        .expect("request A reached its handler");
    let mut b = TcpStream::connect(server.addr()).unwrap();
    b.write_all(request).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics.accept_queue_depth.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "request B never queued");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        !server.shutdown_graceful(Duration::from_millis(100)),
        "two requests out: the server cannot drain"
    );
    assert_eq!(
        saw.recv_timeout(Duration::from_secs(1)),
        Ok(true),
        "the running handler sees its kill flag"
    );
    let m = &server.metrics;
    let ended =
        || m.jobs_cancelled.load(Ordering::Relaxed) + m.jobs_orphaned.load(Ordering::Relaxed);
    let deadline = Instant::now() + Duration::from_secs(5);
    while ended() < 2 {
        assert!(Instant::now() < deadline, "jobs ended: {}", ended());
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(ended(), 2, "each job is cancelled or orphaned, once");
    drop((a, b));
}

/// Over-admission: with `max_connections: 1` and the slot held, the
/// excess connection reads a full `503` response — not ECONNRESET —
/// because the shed path half-closes and drains.
#[test]
fn over_admission_yields_readable_503() {
    let server = HttpServer::bind_with(
        "127.0.0.1:0",
        Arc::new(|_: &str, b: &[u8]| (200, b.to_vec())),
        HttpConfig {
            max_connections: 1,
            ..HttpConfig::default()
        },
    )
    .unwrap();
    // occupy the only slot with an idle admitted connection
    let hold = TcpStream::connect(server.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.active_connections() == 0 {
        assert!(Instant::now() < deadline, "held connection never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    // the next connection must be shed — with the request bytes already
    // in flight, the hardest case for response delivery
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"POST /xrpc HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody")
        .unwrap();
    stream.flush().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 503, "over-admission must shed with 503");
    assert!(
        String::from_utf8_lossy(&body).contains("limit"),
        "{}",
        String::from_utf8_lossy(&body)
    );
    assert!(
        server.metrics.snapshot().sheds >= 1,
        "shed decision must be counted"
    );
    drop(hold);
    // the slot frees: a fresh request is served again
    let url = format!("http://{}/xrpc", server.addr());
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, body) = http_post_with(&url, b"after", &HttpConfig::default()).unwrap();
        if status == 200 {
            assert_eq!(body, b"after");
            break;
        }
        assert!(Instant::now() < deadline, "slot was never released");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A valid request pipelined ahead of a malformed one: the valid
/// request is answered first (200), then the 400, then the connection
/// closes — a protocol error must not eat responses for requests
/// queued before it, nor jump ahead of them (HTTP/1.1 pipelining
/// answers in request order).
#[test]
fn pipelined_request_before_malformed_one_answered_first() {
    let server = echo_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(
            b"POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nalphaTHIS-IS-NOT-HTTP\r\n\r\n",
        )
        .unwrap();
    stream.flush().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let (s1, r1) = read_response(&mut reader);
    assert_eq!(s1, 200, "pipelined request ahead of the error is served");
    assert_eq!(r1, b"alpha");
    let (s2, _) = read_response(&mut reader);
    assert_eq!(s2, 400, "protocol error answered after it");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "connection closes after the error response"
    );
    assert_eq!(server.metrics.snapshot().roundtrips, 1);
}

/// Write-side slow-loris: the client requests a response far larger
/// than the socket buffers and then never reads. The stalled flush
/// keeps `wbuf` non-empty (so the connection is never "idle"); the
/// sweep must still close it once write progress stalls for
/// `read_timeout` — not leak the slot and its active_connections count
/// forever.
#[test]
fn unread_response_closed_after_write_stall_timeout() {
    let server = HttpServer::bind_with(
        "127.0.0.1:0",
        Arc::new(|_: &str, _: &[u8]| (200, vec![0x58; 64 << 20])),
        HttpConfig {
            read_timeout: Duration::from_millis(300),
            ..HttpConfig::default()
        },
    )
    .unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    (&stream)
        .write_all(b"POST /big HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.active_connections() == 0 {
        assert!(Instant::now() < deadline, "connection never admitted");
        std::thread::sleep(Duration::from_millis(2));
    }
    // never read a byte: the 64 MiB response cannot fit in kernel
    // buffers, so the server's flush stalls until the write timeout
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "stalled connection never closed by the write timeout"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A transient overload pushes the queue-wait EWMA over `shed_wait`;
/// new connections are shed at accept — but shed connections never
/// enqueue jobs, so only the reactor's idle-tick decay can bring the
/// signal back down. Without it a shed storm latches into a permanent
/// 503 outage; this pins the recovery path.
#[test]
fn shed_signal_recovers_after_load_subsides() {
    let server = HttpServer::bind_with(
        "127.0.0.1:0",
        Arc::new(|_: &str, b: &[u8]| {
            std::thread::sleep(Duration::from_millis(40));
            (200, b.to_vec())
        }),
        HttpConfig {
            reactor_workers: 1,
            dispatch_queue: 64,
            shed_wait: Duration::from_millis(5),
            ..HttpConfig::default()
        },
    )
    .unwrap();
    // 6 concurrent one-shot clients against one 40ms-per-request
    // worker: later jobs wait 40–200ms in the dispatch queue, driving
    // the EWMA far above the 5ms shed threshold. Connect everyone
    // first — admission happens at accept, while the signal is still
    // zero — so all 6 deterministically complete.
    let streams: Vec<TcpStream> = (0..6)
        .map(|_| TcpStream::connect(server.addr()).unwrap())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.active_connections() < 6 {
        assert!(Instant::now() < deadline, "burst never fully admitted");
        std::thread::sleep(Duration::from_millis(2));
    }
    let burst: Vec<_> = streams
        .into_iter()
        .map(|mut stream| {
            std::thread::spawn(move || {
                stream
                    .write_all(b"POST /xrpc HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\n\r\nx")
                    .unwrap();
                stream.flush().unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                read_response(&mut reader).0
            })
        })
        .collect();
    for b in burst {
        assert_eq!(b.join().unwrap(), 200, "burst served while signal low");
    }
    // signal is now latched high: the next connection is shed
    {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (status, _) = read_response(&mut reader);
        assert_eq!(status, 503, "EWMA over shed_wait must shed at accept");
    }
    assert!(server.metrics.snapshot().sheds >= 1);
    // with zero load the signal must decay and admission must recover
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"POST /xrpc HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\n\r\ny")
            .unwrap();
        stream.flush().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (status, _) = read_response(&mut reader);
        if status == 200 {
            break;
        }
        assert_eq!(status, 503);
        assert!(
            Instant::now() < deadline,
            "shed signal never recovered: permanent 503 outage"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// A saturated dispatch queue sheds rather than queueing unboundedly:
/// one worker stuck in a slow handler, a queue of one, and a burst of
/// keep-alive clients — at least one must see the 503 shed path, and
/// every connection must get *some* orderly answer (503 or 200).
#[test]
fn reactor_dispatch_queue_saturation_sheds_with_503() {
    let server = HttpServer::bind_with(
        "127.0.0.1:0",
        Arc::new(|_: &str, b: &[u8]| {
            std::thread::sleep(Duration::from_millis(300));
            (200, b.to_vec())
        }),
        HttpConfig {
            reactor_workers: 1,
            dispatch_queue: 1,
            ..HttpConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let clients: Vec<_> = (0..6)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                let body = format!("c{i}");
                stream
                    .write_all(
                        format!(
                            "POST /xrpc HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                            body.len()
                        )
                        .as_bytes(),
                    )
                    .unwrap();
                stream.flush().unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                read_response(&mut reader).0
            })
        })
        .collect();
    let statuses: Vec<u16> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert!(
        statuses.iter().all(|s| *s == 200 || *s == 503),
        "every connection gets an orderly answer: {statuses:?}"
    );
    assert!(
        statuses.contains(&503) || server.metrics.snapshot().sheds > 0,
        "saturation must trigger the shed path: {statuses:?}"
    );
    assert!(
        statuses.contains(&200),
        "admitted requests still complete: {statuses:?}"
    );
}

/// Write `body` as one keep-alive POST on `stream` and read the answer.
fn post(stream: &mut TcpStream, reader: &mut impl BufRead, body: &[u8]) -> (u16, Vec<u8>) {
    let head = format!(
        "POST /xrpc HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    read_response(reader)
}

/// A keep-alive connection to `server` and a reader over it.
fn connect(server: &HttpServer) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// Was this handler call made on the reactor thread?
fn on_reactor_thread() -> bool {
    let name = std::thread::current().name().map(str::to_owned);
    let reactor = name
        .as_ref()
        .is_some_and(|n| n.starts_with("xrpc-reactor-"));
    assert_eq!(reactor, xrpc_net::on_reactor(), "{name:?}");
    reactor
}

/// A handler that never offers is never called on the reactor thread: the
/// handshake is off until the handler asks for it.
#[test]
fn a_handler_that_never_offers_never_runs_on_the_reactor() {
    const REQUESTS: usize = 1000;
    let inline = Arc::new(Mutex::new(0usize));
    let seen = inline.clone();
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(move |_: &str, body: &[u8]| {
            *seen.lock().unwrap() += usize::from(on_reactor_thread());
            (200, body.to_vec())
        }),
    )
    .unwrap();
    let (mut stream, mut reader) = connect(&server);
    for i in 0..REQUESTS {
        let body = format!("request-{i}");
        assert_eq!(
            post(&mut stream, &mut reader, body.as_bytes()).1,
            body.as_bytes()
        );
    }
    assert_eq!(*inline.lock().unwrap(), 0);
    assert_eq!(server.metrics.served_inline.load(Ordering::Relaxed), 0);
    assert_eq!(server.metrics.snapshot().roundtrips, REQUESTS as u64);
}

/// A handler that offers every time: the first request runs on a worker,
/// every later one on the reactor, and `served_inline` counts those.
#[test]
fn an_offering_handler_is_answered_on_the_reactor_from_its_second_request() {
    const REQUESTS: usize = 50;
    let threads = Arc::new(Mutex::new(Vec::new()));
    let seen = threads.clone();
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(move |_: &str, body: &[u8]| {
            seen.lock().unwrap().push(on_reactor_thread());
            xrpc_net::offer_next(true);
            (200, body.to_vec())
        }),
    )
    .unwrap();
    let (mut stream, mut reader) = connect(&server);
    for i in 0..REQUESTS {
        let body = format!("request-{i}");
        let (status, resp) = post(&mut stream, &mut reader, body.as_bytes());
        assert_eq!((status, resp), (200, body.into_bytes()));
    }
    let threads = threads.lock().unwrap();
    assert!(!threads[0], "the first request runs on a worker");
    assert!(threads[1..].iter().all(|&r| r), "the rest on the reactor");
    let m = &server.metrics;
    assert_eq!(m.served_inline.load(Ordering::Relaxed), REQUESTS as u64 - 1);
    assert_eq!(
        m.snapshot().roundtrips,
        REQUESTS as u64,
        "each counted once"
    );
}

/// A request the handler defers on the reactor is answered once, by a
/// worker, with the worker's answer, and counted once.
#[test]
fn a_deferred_request_is_answered_once_by_a_worker() {
    const REQUESTS: usize = 20;
    let calls = Arc::new(Mutex::new((0usize, 0usize)));
    let seen = calls.clone();
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(move |_: &str, body: &[u8]| {
            xrpc_net::offer_next(true);
            let mut calls = seen.lock().unwrap();
            if on_reactor_thread() {
                calls.0 += 1;
                xrpc_net::defer();
                return (500, b"the reactor's answer".to_vec());
            }
            calls.1 += 1;
            (200, body.to_vec())
        }),
    )
    .unwrap();
    let (mut stream, mut reader) = connect(&server);
    for i in 0..REQUESTS {
        let body = format!("request-{i}");
        let (status, resp) = post(&mut stream, &mut reader, body.as_bytes());
        assert_eq!((status, resp), (200, body.into_bytes()), "request {i}");
    }
    assert_eq!(*calls.lock().unwrap(), (REQUESTS - 1, REQUESTS));
    let m = &server.metrics;
    assert_eq!(m.served_inline.load(Ordering::Relaxed), 0);
    assert_eq!(m.snapshot().roundtrips, REQUESTS as u64);
    assert_eq!(m.snapshot().failures, 0);
}

/// A body over `INLINE_BYTES` goes to a worker however the handler offers;
/// a small one after it is answered on the reactor again.
#[test]
fn a_body_over_inline_bytes_is_never_run_inline() {
    let big_inline = Arc::new(Mutex::new(Vec::new()));
    let seen = big_inline.clone();
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(move |_: &str, body: &[u8]| {
            let reactor = on_reactor_thread();
            if body.len() > xrpc_net::INLINE_BYTES {
                seen.lock().unwrap().push(reactor);
            }
            xrpc_net::offer_next(true);
            (200, body.len().to_string().into_bytes())
        }),
    )
    .unwrap();
    let (mut stream, mut reader) = connect(&server);
    let small = vec![b's'; 16];
    let big = vec![b'b'; xrpc_net::INLINE_BYTES + 1];
    for body in [&small, &big, &big, &small, &big, &small] {
        let (status, resp) = post(&mut stream, &mut reader, body);
        assert_eq!((status, resp), (200, body.len().to_string().into_bytes()));
    }
    assert_eq!(*big_inline.lock().unwrap(), [false; 3]);
    // the third small one follows a big one answered by a worker
    assert_eq!(server.metrics.served_inline.load(Ordering::Relaxed), 2);
}

/// A handler that panics on the reactor: that request is answered 500 and
/// its connection closed; the reactor goes on serving other connections.
#[test]
fn a_handler_that_panics_inline_gets_500_and_the_reactor_survives() {
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(move |_: &str, body: &[u8]| {
            if on_reactor_thread() && body == b"panic" {
                panic!("a handler bug, on the reactor");
            }
            xrpc_net::offer_next(true);
            (200, body.to_vec())
        }),
    )
    .unwrap();
    let (mut stream, mut reader) = connect(&server);
    assert_eq!(post(&mut stream, &mut reader, b"first").0, 200);
    let (status, _) = post(&mut stream, &mut reader, b"panic");
    assert_eq!(status, 500);
    let mut rest = Vec::new();
    assert_eq!(
        reader.read_to_end(&mut rest).unwrap(),
        0,
        "closed after the 500"
    );
    let (mut stream, mut reader) = connect(&server);
    for body in [&b"again"[..], b"and inline"] {
        assert_eq!(post(&mut stream, &mut reader, body), (200, body.to_vec()));
    }
    let m = &server.metrics;
    assert_eq!(m.served_inline.load(Ordering::Relaxed), 1);
    assert_eq!(m.snapshot().failures, 1);
}

/// The reactor calls a handler with the stack a worker gives it (a deep
/// query's evaluation), not a spawned thread's default 2 MiB.
#[test]
fn the_reactor_runs_a_handler_on_a_workers_stack() {
    /// Recurse through `depth` frames of 64 KiB each; the sum of every
    /// frame's first byte keeps the frames from being optimized away.
    #[inline(never)]
    fn deep(depth: usize) -> u64 {
        let frame = std::hint::black_box([depth as u8; 64 * 1024]);
        if depth == 0 {
            return u64::from(frame[0]);
        }
        u64::from(frame[0]) + deep(depth - 1)
    }
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(move |_: &str, _: &[u8]| {
            xrpc_net::offer_next(true);
            // at least 4 MiB of stack (more unoptimized, where a frame
            // holds copies): twice a default thread's, and an eighth of
            // a worker's
            let sum = if on_reactor_thread() { deep(64) } else { 0 };
            (200, sum.to_string().into_bytes())
        }),
    )
    .unwrap();
    let (mut stream, mut reader) = connect(&server);
    assert_eq!(
        post(&mut stream, &mut reader, b"worker"),
        (200, b"0".to_vec())
    );
    let want = (0..=64u64).sum::<u64>().to_string();
    assert_eq!(
        post(&mut stream, &mut reader, b"reactor"),
        (200, want.into_bytes())
    );
    assert_eq!(server.metrics.served_inline.load(Ordering::Relaxed), 1);
}
