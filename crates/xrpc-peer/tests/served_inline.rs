//! Which requests a peer served over HTTP answers on the reactor thread
//! that read them: a quiet call of a function its cache holds, and nothing
//! else. Every other request, and a quiet one that runs too long, would
//! answer too much or tries to send a message, is answered by a worker —
//! once, with the same bytes.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::{mpsc, Arc};
use std::time::Duration;
use xdm::{Item, Sequence};
use xrpc_net::http::HttpTransport;
use xrpc_net::{HttpServer, NetError, Transport};
use xrpc_peer::{EngineKind, Peer};
use xrpc_proto::{parse_message, QueryId, UpdCall, XrpcMessage, XrpcRequest};

const MODULE: &str = r#"
    module namespace t = "test";
    declare function t:echo($x as xs:string) { concat("echo ", $x) };
    declare function t:other() { 42 };
    declare function t:count($x) { count($x) };
    declare function t:spin($n as xs:integer)
    { count(for $i in 1 to $n where $i lt 0 return $i) };
    declare function t:down($n as xs:integer)
    { if ($n le 0) then 0 else t:down($n - 1) + 1 };
    declare function t:big($n as xs:integer) { string-join(for $i in 1 to $n return "x", "") };
    declare updating function t:set($x as xs:string)
    { replace value of node doc("state.xml")/v with $x };
"#;

/// `xrpc://host` names a peer; its server listens at `http://host/xrpc`.
struct XrpcOverHttp(HttpTransport);

impl Transport for XrpcOverHttp {
    fn roundtrip(&self, dest: &str, body: &[u8]) -> Result<Vec<u8>, NetError> {
        let host = dest.trim_start_matches("xrpc://");
        self.0.roundtrip(&format!("http://{host}/xrpc"), body)
    }
}

/// A peer served over loopback HTTP, named after its port, sending
/// through `XrpcOverHttp`, with `MODULE` (and `extra`) registered.
struct Served {
    peer: Arc<Peer>,
    server: HttpServer,
    /// A client with a keep-alive connection of its own.
    client: HttpTransport,
}

impl Served {
    fn new(extra: impl FnOnce(&str) -> Option<String>) -> Served {
        let peer = Peer::new("unbound", EngineKind::Tree);
        let soap = peer.soap_handler();
        let server = HttpServer::bind(
            "127.0.0.1:0",
            Arc::new(move |_: &str, b: &[u8]| (200, soap(b))),
        )
        .unwrap();
        let name = format!("xrpc://127.0.0.1:{}", server.port());
        peer.set_name(name.clone());
        peer.set_transport(Arc::new(XrpcOverHttp(HttpTransport::new())));
        peer.register_module(MODULE).unwrap();
        if let Some(module) = extra(&name) {
            peer.register_module(&module).unwrap();
        }
        peer.add_document("state.xml", "<v>initial</v>").unwrap();
        Served {
            peer,
            server,
            client: HttpTransport::new(),
        }
    }

    fn send(&self, req: &XrpcRequest) -> Vec<u8> {
        let bytes = req.to_xml().unwrap();
        self.client
            .roundtrip(&self.server.url(), bytes.as_bytes())
            .unwrap()
    }

    fn served_inline(&self) -> u64 {
        self.server.metrics.served_inline.load(Relaxed)
    }

    /// Send quiet calls until one is answered on the reactor: the client's
    /// connection then holds the handler's offer. A worker offers after a
    /// quiet call that ran under the inline budget, which a preempted one
    /// may not have.
    fn offered(&self) {
        for _ in 0..50 {
            let before = self.served_inline();
            assert_eq!(
                answer(&self.send(&echo("warm"))),
                Ok(vec!["echo warm".into()])
            );
            if self.served_inline() > before {
                return;
            }
        }
        panic!("no quiet call was answered on the reactor");
    }

    /// Requests the reactor began and gave back to the workers: their
    /// server spans carry a `deferred` tag.
    fn deferred(&self) -> usize {
        let spans = self.peer.tracer.finished();
        spans.iter().filter(|s| s.tag("deferred").is_some()).count()
    }

    /// `req`'s answer, and whether the reactor answered it.
    fn send_counted(&self, req: &XrpcRequest) -> (Vec<u8>, bool) {
        let before = self.served_inline();
        let response = self.send(req);
        (response, self.served_inline() > before)
    }
}

fn call(method: &str, args: Vec<Sequence>) -> XrpcRequest {
    let mut req = XrpcRequest::new("test", method, args.len());
    req.push_call(args);
    req
}

fn echo(x: &str) -> XrpcRequest {
    call("echo", vec![Sequence::one(Item::string(x))])
}

fn int(method: &str, n: i64) -> XrpcRequest {
    call(method, vec![Sequence::one(Item::integer(n))])
}

/// The string value of every result, or the fault's code.
fn answer(response: &[u8]) -> Result<Vec<String>, String> {
    match parse_message(std::str::from_utf8(response).unwrap()).unwrap() {
        XrpcMessage::Response(r) => Ok(r.results.iter().map(|s| s.joined_string()).collect()),
        XrpcMessage::Fault(f) => Err(f.to_error().code),
        XrpcMessage::Request(_) => panic!("a request came back"),
    }
}

#[test]
fn a_quiet_call_is_answered_on_the_reactor_with_the_workers_bytes() {
    const REQUESTS: u64 = 40;
    let b = Served::new(|_| None);
    let req = echo("a < b");
    let first = b.send(&req);
    assert_eq!(answer(&first), Ok(vec!["echo a < b".into()]));
    for i in 1..REQUESTS {
        assert_eq!(b.send(&req), first, "request {i}");
    }
    assert!(b.served_inline() > REQUESTS / 2, "{}", b.served_inline());
    // each counted once, wherever it ran
    assert_eq!(b.peer.stats.requests_handled.load(Relaxed), REQUESTS);
    assert_eq!(b.peer.stats.calls_handled.load(Relaxed), REQUESTS);
    assert_eq!(b.server.metrics.snapshot().roundtrips, REQUESTS);
    assert_eq!(b.peer.hists.server_handle_micros.snapshot().count, REQUESTS);
}

#[test]
fn what_is_not_a_quiet_cached_call_is_answered_by_a_worker() {
    let b = Served::new(|_| None);
    let qid = |ts| QueryId::new("xrpc://origin", ts, 30);
    // an updating call
    let set = call("set", vec![Sequence::one(Item::string("new"))]);
    // a quiet call with a queryID, sent to commit on its reply
    let mut commit = echo("c");
    commit.query_id = Some(qid(1));
    commit.upd_call = UpdCall::Commit;
    // 2PC control
    let mut inquire = XrpcRequest::new(xrpc_proto::WSAT_MODULE, xrpc_proto::METHOD_INQUIRE, 0)
        .with_query_id(qid(2));
    inquire.push_call(vec![]);
    // a document fetch
    let mut fetch = XrpcRequest::new(xrpc_peer::remote_docs::DOC_MODULE, "get", 1);
    fetch.push_call(vec![Sequence::one(Item::string("state.xml"))]);
    // a module function's first call: the cache does not hold it yet
    let first = call("other", vec![]);
    // each with its one result; any answer to the control message
    let rows = [
        ("updating", set, Some("")),
        ("commit on reply", commit, Some("echo c")),
        ("control", inquire, None),
        ("doc fetch", fetch, Some("new")),
        ("first call", first, Some("42")),
    ];
    for (what, req, want) in rows {
        b.offered();
        let handled = b.peer.stats.requests_handled.load(Relaxed);
        let (response, inline) = b.send_counted(&req);
        assert!(!inline, "{what} answered on the reactor");
        let got = answer(&response);
        match want {
            Some(want) => assert_eq!(got, Ok(vec![want.to_string()]), "{what}"),
            None => assert!(got.is_ok(), "{what}: {got:?}"),
        }
        assert_eq!(
            b.peer.stats.requests_handled.load(Relaxed) - handled,
            u64::from(what != "control"),
            "{what}: counted once"
        );
    }
}

#[test]
fn a_quiet_call_past_the_inline_budget_is_answered_once_by_a_worker() {
    let b = Served::new(|_| None);
    assert_eq!(answer(&b.send(&int("spin", 1))), Ok(vec!["0".into()]));
    b.offered();
    let handled = b.peer.stats.requests_handled.load(Relaxed);
    let roundtrips = b.server.metrics.snapshot().roundtrips;
    let (response, inline) = b.send_counted(&int("spin", 200_000));
    assert_eq!(answer(&response), Ok(vec!["0".into()]));
    assert!(!inline);
    assert_eq!(
        b.deferred(),
        1,
        "begun on the reactor, answered by a worker"
    );
    assert_eq!(b.peer.stats.requests_handled.load(Relaxed), handled + 1);
    assert_eq!(b.server.metrics.snapshot().roundtrips, roundtrips + 1);
    assert_eq!(b.peer.cancellations_deadline.load(Relaxed), 0);
    // an answer over the byte budget goes the same way
    assert_eq!(answer(&b.send(&int("big", 1))), Ok(vec!["x".into()]));
    b.offered();
    let (response, inline) = b.send_counted(&int("big", 40_000));
    assert_eq!(answer(&response).map(|r| r[0].len()), Ok(40_000));
    assert!(!inline);
    assert_eq!(b.deferred(), 2);
    // and is not begun on the reactor again: its last call did not fit
    b.offered();
    let (response, inline) = b.send_counted(&int("big", 40_000));
    assert_eq!(answer(&response).map(|r| r[0].len()), Ok(40_000));
    assert!(!inline);
    assert_eq!(b.deferred(), 2);
}

#[test]
fn a_quiet_call_of_its_own_document_does_not_deadlock() {
    let b = Served::new(|name| {
        Some(format!(
            r#"module namespace s = "self";
               declare function s:read($remote as xs:boolean)
               {{ if ($remote) then string(doc("{name}/state.xml")/v) else "local" }};"#
        ))
    });
    let b = Arc::new(b);
    let (tx, rx) = mpsc::channel();
    let peer = b.clone();
    std::thread::spawn(move || {
        let read = |remote| {
            let mut req = XrpcRequest::new("self", "read", 1);
            req.push_call(vec![Sequence::one(Item::boolean(remote))]);
            req
        };
        // the first call prepares the function, on a worker; it reads
        // nothing remote, so it fits the reactor
        assert_eq!(answer(&peer.send(&read(false))), Ok(vec!["local".into()]));
        peer.offered();
        let (response, inline) = peer.send_counted(&read(true));
        tx.send((answer(&response), inline, peer.deferred()))
            .unwrap();
    });
    let (got, inline, deferred) = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("the peer answers a call that reads its own document");
    assert_eq!(got, Ok(vec!["initial".into()]));
    assert!(!inline, "the fetch went out from a worker");
    assert_eq!(deferred, 1, "begun on the reactor, which sends nothing");
}

/// As deep as the reactor gets before the inline budget runs out — all the
/// way in an optimized build — its stack holds; the answer is the same
/// wherever it is given.
#[test]
fn recursion_to_the_evaluators_cap_fits_the_reactors_stack() {
    let b = Served::new(|_| None);
    assert_eq!(answer(&b.send(&int("down", 1))), Ok(vec!["1".into()]));
    // the deepest a call may go, and past it
    for (n, want) in [
        (126, Ok(vec!["126".to_string()])),
        (400, Err("XQDY0054".into())),
    ] {
        b.offered();
        assert_eq!(answer(&b.send(&int("down", n))), want, "depth {n}");
    }
}

/// The benchmark's workloads other than one small call a message: a Bulk
/// RPC, a large parameter, an isolated update, a document fetch and a
/// wrapped engine. None of their requests is answered on the reactor, also
/// on a connection whose last call was.
#[test]
fn bulk_large_updating_fetched_and_wrapped_requests_are_never_answered_inline() {
    let b = Served::new(|_| None);
    let large = format!("<r>{}</r>", "<c>payload</c>".repeat(4096));
    let a = Peer::new("xrpc://a", EngineKind::Rel);
    a.set_transport(Arc::new(XrpcOverHttp(HttpTransport::new())));
    a.register_module(MODULE).unwrap();
    a.add_document("large.xml", &large).unwrap();
    let at = b.peer.name();
    let quiet =
        format!(r#"import module namespace t = "test"; execute at {{"{at}"}} {{t:echo("q")}}"#);
    // A's connection to B holds B's offer: a quick quiet call was answered
    // on B's reactor
    let offered = || {
        for _ in 0..50 {
            let before = b.served_inline();
            a.execute(&quiet).unwrap();
            if b.served_inline() > before {
                return;
            }
        }
        panic!("no quiet call was answered on the reactor");
    };
    let shapes = [
        format!(
            r#"import module namespace t = "test";
               for $i in 1 to 1000 return execute at {{"{at}"}} {{t:echo(string($i))}}"#
        ),
        format!(
            r#"import module namespace t = "test";
               execute at {{"{at}"}} {{t:count(doc("large.xml")/r/c)}}"#
        ),
        format!(
            r#"declare option xrpc:isolation "repeatable";
               import module namespace t = "test";
               execute at {{"{at}"}} {{t:set("updated")}}"#
        ),
        format!(r#"string(doc("{at}/state.xml")/v)"#),
    ];
    for shape in &shapes {
        offered();
        let before = b.served_inline();
        for _ in 0..3 {
            a.execute(shape).unwrap_or_else(|e| panic!("{shape}: {e}"));
        }
        assert_eq!(b.served_inline(), before, "{shape}");
    }

    let wrapper = xrpc_peer::XrpcWrapper::new();
    wrapper.modules.register_source(MODULE).unwrap();
    let soap = wrapper.soap_handler();
    let wrapped = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(move |_: &str, body: &[u8]| (200, soap(body))),
    )
    .unwrap();
    let at = format!("xrpc://127.0.0.1:{}", wrapped.port());
    let quiet =
        format!(r#"import module namespace t = "test"; execute at {{"{at}"}} {{t:echo("q")}}"#);
    for _ in 0..20 {
        assert_eq!(a.execute(&quiet).unwrap().joined_string(), "echo q");
    }
    assert_eq!(wrapped.metrics.served_inline.load(Relaxed), 0);
    assert_eq!(wrapped.metrics.snapshot().roundtrips, 20);
}
