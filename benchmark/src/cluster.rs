//! Peers served over real loopback HTTP, as a user would deploy them:
//! `HttpServer::bind` with the default (reactor) model for incoming SOAP,
//! `HttpTransport` installed through the default `Peer::set_transport` for
//! outgoing calls.

use crate::trace::PeerTrace;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use xrpc_net::{HttpServer, HttpTransport, NetError, SoapHandler, Transport};
use xrpc_peer::{Peer, XrpcWrapper};

/// The outgoing transport of one peer: `HttpTransport` behind the one
/// translation the program leaves to its user. Peers are named
/// `xrpc://127.0.0.1:<port>` because `fn:doc` ships a remote document only
/// for an `xrpc://` URI (q7_mix needs that), while `HttpTransport` dials
/// `http://` URLs; this maps the one to the other. With tracing on it also
/// records the `roundtrip` span.
pub struct Wire {
    pub http: HttpTransport,
    trace: Option<Arc<PeerTrace>>,
    /// Traced runs only: while `Some`, every round trip's bytes are kept
    /// (the replay's sample operation).
    captured: Mutex<Option<Vec<Exchange>>>,
}

/// The bytes of one round trip.
#[derive(Clone)]
pub struct Exchange {
    pub request: Vec<u8>,
    pub response: Vec<u8>,
}

impl Wire {
    pub fn new(trace: Option<Arc<PeerTrace>>) -> Arc<Wire> {
        Arc::new(Wire {
            http: HttpTransport::new(),
            trace,
            captured: Mutex::new(None),
        })
    }

    /// Run `f` and return the round trips this peer sent meanwhile.
    pub fn capture(&self, f: impl FnOnce()) -> Vec<Exchange> {
        *self.captured.lock().expect("capture poisoned") = Some(Vec::new());
        f();
        self.captured
            .lock()
            .expect("capture poisoned")
            .take()
            .unwrap_or_default()
    }
}

fn http_url(dest: &str) -> String {
    match dest.strip_prefix("xrpc://") {
        Some(host) => format!("http://{host}/xrpc"),
        None => dest.to_string(),
    }
}

impl Transport for Wire {
    fn roundtrip(&self, dest: &str, body: &[u8]) -> Result<Vec<u8>, NetError> {
        let url = http_url(dest);
        match &self.trace {
            None => self.http.roundtrip(&url, body),
            Some(t) => t.roundtrip(&url, body, |traced_url| {
                let resp = self.http.roundtrip(traced_url, body);
                if let (Ok(r), Some(kept)) = (
                    &resp,
                    self.captured.lock().expect("capture poisoned").as_mut(),
                ) {
                    kept.push(Exchange {
                        request: body.to_vec(),
                        response: r.clone(),
                    });
                }
                let n = resp.as_ref().map_or(0, |r| r.len() as u64);
                (resp, n)
            }),
        }
    }
}

/// What answers SOAP at a node.
#[derive(Clone)]
pub enum Served {
    Peer(Arc<Peer>),
    Wrapper(Arc<XrpcWrapper>),
}

/// One peer with its HTTP server and its outgoing transport.
pub struct Node {
    pub url: String,
    pub served: Served,
    pub wire: Arc<Wire>,
    pub trace: Option<Arc<PeerTrace>>,
    // declared last: the server drains and joins its threads on drop
    pub server: HttpServer,
}

impl Node {
    /// Bind `served` on an ephemeral loopback port, name it after the port
    /// and install its outgoing transport.
    pub fn bind(served: Served, trace: Option<Arc<PeerTrace>>) -> Node {
        let soap: SoapHandler = match &served {
            Served::Peer(p) => p.soap_handler(),
            Served::Wrapper(w) => w.soap_handler(),
        };
        let handler: Arc<xrpc_net::http::Handler> = match trace.clone() {
            None => Arc::new(move |_path: &str, body: &[u8]| (200, soap(body))),
            Some(t) => {
                Arc::new(move |path: &str, body: &[u8]| (200, t.handle(path, || soap(body))))
            }
        };
        let server = HttpServer::bind("127.0.0.1:0", handler).expect("bind loopback");
        let url = format!("xrpc://127.0.0.1:{}", server.port());
        let wire = Wire::new(trace.clone());
        match &served {
            Served::Peer(p) => {
                p.set_name(url.clone());
                p.set_transport(wire.clone());
            }
            Served::Wrapper(w) => w.enable_remote_docs(wire.clone()),
        }
        Node {
            url,
            served,
            wire,
            trace,
            server,
        }
    }

    pub fn peer(&self) -> &Arc<Peer> {
        match &self.served {
            Served::Peer(p) => p,
            Served::Wrapper(_) => panic!("node serves a wrapper, not a peer"),
        }
    }
}

/// Monotonic counters of the whole cluster, read through public accessors;
/// a measured span reports the difference of two readings.
pub fn counters(nodes: &[Node]) -> BTreeMap<&'static str, f64> {
    let mut c: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |k: &'static str, v: f64| *c.entry(k).or_insert(0.0) += v;
    for n in nodes {
        let m = n.wire.http.metrics.snapshot();
        add("roundtrips", m.roundtrips as f64);
        add("request_bytes", m.bytes_sent as f64);
        add("response_bytes", m.bytes_received as f64);
        add("pool_hits", m.pool_hits as f64);
        add("pool_misses", m.pool_misses as f64);
        add("sheds", n.server.metrics.snapshot().sheds as f64);
        match &n.served {
            Served::Peer(p) => {
                if let Some(rt) = p.resilient_transport() {
                    add("retries", rt.metrics.snapshot().retries as f64);
                }
                add(
                    "requests_handled",
                    p.stats.requests_handled.load(Ordering::Relaxed) as f64,
                );
                add(
                    "calls_handled",
                    p.stats.calls_handled.load(Ordering::Relaxed) as f64,
                );
                add(
                    "parallel_bulk",
                    p.stats.parallel_bulk_requests.load(Ordering::Relaxed) as f64,
                );
                let (plans, funcs) = (p.plan_cache.stats(), p.function_cache.stats());
                add("plan_hits", plans.hits as f64);
                add("plan_misses", plans.misses as f64);
                add("function_hits", funcs.hits as f64);
                add("function_misses", funcs.misses as f64);
                let t = p.twopc_metrics.snapshot();
                add("twopc_commits", t.commits as f64);
                add("twopc_aborts", t.aborts as f64);
                add("twopc_redeliveries", t.redeliveries as f64);
                if let Some(wal) = p.wal() {
                    add("wal_fsyncs", wal.stats().fsyncs as f64);
                }
            }
            Served::Wrapper(w) => {
                let ph = w.phases();
                add("wrapper_requests", ph.requests as f64);
                add("wrapper_compile_ms", ph.compile.as_secs_f64() * 1e3);
                add("wrapper_treebuild_ms", ph.treebuild.as_secs_f64() * 1e3);
                add("wrapper_exec_ms", ph.exec.as_secs_f64() * 1e3);
                let plans = w.plan_cache.stats();
                add("plan_hits", plans.hits as f64);
                add("plan_misses", plans.misses as f64);
            }
        }
    }
    // the message buffer pool is process-wide
    let pool = xrpc_net::BufferPool::global().stats();
    add("bufpool_hits", pool.hits as f64);
    add("bufpool_misses", pool.misses as f64);
    c
}
