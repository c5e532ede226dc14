//! Shared experiment setups: the clusters, workloads and timing helpers
//! of the `tables` binary, which regenerates every table of the paper.

use std::sync::Arc;
use std::time::{Duration, Instant};
use xdm::Sequence;
use xrpc_net::{NetError, NetProfile, SimNetwork, Transport};
use xrpc_peer::{EngineKind, FsyncPolicy, Peer, WalConfig, XrpcWrapper};

pub const A_URI: &str = "xrpc://a.example.org";
pub const B_URI: &str = "xrpc://b.example.org";

/// A transport decorator that accumulates the time the caller spends
/// blocked in round trips — how we split "MonetDB time" from "Saxon time
/// (includes network)" exactly the way Table 4 does — and, once asked to
/// ([`count_sent`](Self::count_sent)), counts the requests it carries and
/// the `xrpc:call`s in them.
pub struct TimingTransport {
    inner: Arc<dyn Transport>,
    blocked: parking_lot::Mutex<Duration>,
    /// (requests, calls) sent, while counting
    sent: parking_lot::Mutex<Option<(u64, u64)>>,
}

impl TimingTransport {
    pub fn new(inner: Arc<dyn Transport>) -> Arc<Self> {
        Arc::new(TimingTransport {
            inner,
            blocked: parking_lot::Mutex::new(Duration::ZERO),
            sent: parking_lot::Mutex::new(None),
        })
    }

    pub fn take_blocked(&self) -> Duration {
        std::mem::take(&mut *self.blocked.lock())
    }

    /// Count from now on. Counting scans every request body before its
    /// round trip, so it adds to the times reported: a gate's run only.
    pub fn count_sent(&self) {
        *self.sent.lock() = Some((0, 0));
    }

    /// The requests sent since counting began or the last take, and the
    /// calls in them.
    pub fn take_sent(&self) -> (u64, u64) {
        self.sent
            .lock()
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }
}

impl Transport for TimingTransport {
    fn roundtrip(&self, dest: &str, body: &[u8]) -> Result<Vec<u8>, NetError> {
        if let Some((requests, calls)) = self.sent.lock().as_mut() {
            *requests += 1;
            *calls += body.windows(10).filter(|w| w == b"<xrpc:call").count() as u64;
        }
        let t0 = Instant::now();
        let r = self.inner.roundtrip(dest, body);
        *self.blocked.lock() += t0.elapsed();
        r
    }
}

// ---------------------------------------------------------------------
// Experiment 1 (Table 2): echoVoid, bulk vs one-at-a-time, function cache
// ---------------------------------------------------------------------

pub struct EchoCluster {
    pub net: Arc<SimNetwork>,
    pub a: Arc<Peer>,
    pub b: Arc<Peer>,
}

/// Two rel-capable peers: A issues the echoVoid loop, B services it.
/// `bulk` picks A's engine (Rel = loop-lifted Bulk RPC, Tree = one RPC at
/// a time); `cache` switches B's function cache (Table 2's two halves).
pub fn echo_cluster(profile: NetProfile, bulk: bool, cache: bool) -> EchoCluster {
    let net = Arc::new(SimNetwork::new(profile));
    let a = Peer::new(
        A_URI,
        if bulk {
            EngineKind::Rel
        } else {
            EngineKind::Tree
        },
    );
    let b = Peer::new(B_URI, EngineKind::Tree);
    for p in [&a, &b] {
        p.register_module(xmark::test_module()).unwrap();
        p.set_transport(net.clone());
    }
    b.function_cache.set_enabled(cache);
    net.register(A_URI, a.soap_handler());
    net.register(B_URI, b.soap_handler());
    EchoCluster { net, a, b }
}

/// The §3.3 echoVoid query with `$x` iterations.
pub fn echo_query(x: usize) -> String {
    format!(
        r#"import module namespace t = "test";
for $i in (1 to {x}) return execute at {{"{B_URI}"}} {{t:echoVoid()}}"#
    )
}

/// Run a query once, returning (elapsed, result).
pub fn time_query(peer: &Peer, query: &str) -> (Duration, Sequence) {
    let t0 = Instant::now();
    let res = peer.execute(query).expect("query failed");
    (t0.elapsed(), res)
}

// ---------------------------------------------------------------------
// Experiment 2 (Table 3): the wrapper, echoVoid + getPerson
// ---------------------------------------------------------------------

pub struct WrapperCluster {
    pub net: Arc<SimNetwork>,
    pub a: Arc<Peer>,
    pub wrapper: Arc<XrpcWrapper>,
}

/// Rel-engine client + wrapped plain engine holding an XMark persons
/// document with `persons` entries.
pub fn wrapper_cluster(persons: usize) -> WrapperCluster {
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let a = Peer::new(A_URI, EngineKind::Rel);
    a.register_module(xmark::test_module()).unwrap();
    a.register_module(xmark::functions_module()).unwrap();
    a.set_transport(net.clone());
    let wrapper = XrpcWrapper::new();
    wrapper
        .modules
        .register_source(xmark::test_module())
        .unwrap();
    wrapper
        .modules
        .register_source(xmark::functions_module())
        .unwrap();
    let params = xmark::XmarkParams {
        persons,
        closed_auctions: 0,
        matches: 0,
        padding_words: 16,
        seed: 11,
    };
    wrapper.docs.insert(
        "persons.xml",
        xmldom::parse(&xmark::persons_xml(&params)).unwrap(),
    );
    net.register(B_URI, wrapper.soap_handler());
    WrapperCluster { net, a, wrapper }
}

pub fn wrapper_echo_query(x: usize) -> String {
    format!(
        r#"import module namespace tst = "test";
for $i in (1 to {x}) return execute at {{"{B_URI}"}} {{tst:echoVoid()}}"#
    )
}

/// getPerson with a loop-dependent person id (exercises the bulk
/// selection-becomes-join effect of §4).
pub fn get_person_query(x: usize, persons: usize) -> String {
    format!(
        r#"import module namespace func = "functions";
for $i in (1 to {x})
return execute at {{"{B_URI}"}} {{func:getPerson("persons.xml", concat("person", string($i mod {persons})))}}"#
    )
}

// ---------------------------------------------------------------------
// Experiment 3 (Table 4): the four Q7 strategies
// ---------------------------------------------------------------------

pub struct StrategyCluster {
    pub net: Arc<SimNetwork>,
    pub a: Arc<Peer>,
    pub wrapper: Arc<XrpcWrapper>,
    pub timing: Arc<TimingTransport>,
}

/// Peer A (rel, persons.xml) + wrapped peer B (auctions.xml), with the
/// timing transport between them so "A time" and "B time (incl. network)"
/// can be split like the paper's Table 4.
pub fn strategy_cluster(params: &xmark::XmarkParams, profile: NetProfile) -> StrategyCluster {
    let net = Arc::new(SimNetwork::new(profile));
    let timing = TimingTransport::new(net.clone());
    let a = Peer::new(A_URI, EngineKind::Rel);
    a.add_document("persons.xml", &xmark::persons_xml(params))
        .unwrap();
    a.register_module(distq::MODULE_B).unwrap();
    a.set_transport(timing.clone());
    net.register(A_URI, a.soap_handler());

    let wrapper = XrpcWrapper::new();
    wrapper.docs.insert(
        "auctions.xml",
        xmldom::parse(&xmark::auctions_xml(params)).unwrap(),
    );
    wrapper.modules.register_source(distq::MODULE_B).unwrap();
    wrapper.enable_remote_docs(net.clone());
    net.register(B_URI, wrapper.soap_handler());
    StrategyCluster {
        net,
        a,
        wrapper,
        timing,
    }
}

/// `xq:path-step` calls in peer A's hop of data shipping's Q7, from an
/// `explain_analyze`: a count, not a time. The FLWOR join reads its keys
/// from the arena, so what is left are the two `for` sequences and the
/// `$ca/annotation` of each result.
pub fn data_shipping_path_steps(c: &StrategyCluster) -> u64 {
    let q = distq::Strategy::DataShipping.query(B_URI, A_URI);
    let (_, profile) = c.a.explain_analyze(&q).expect("data shipping runs");
    let hop = profile
        .hops
        .iter()
        .find(|h| h.peer == A_URI)
        .expect("A's hop");
    xrpc_obs::OpNode::calls_of(&hop.ops, "xq:path-step")
}

// ---------------------------------------------------------------------
// Experiment 4 (§3.3 text): throughput with scaled payloads
// ---------------------------------------------------------------------

pub struct ThroughputCluster {
    pub net: Arc<SimNetwork>,
    pub a: Arc<Peer>,
    pub b: Arc<Peer>,
}

pub const THROUGHPUT_MODULE: &str = r#"
module namespace tp = "throughput";
declare function tp:consume($x) as xs:integer { count($x) };
declare function tp:produce() as node()* { doc("payload.xml")/payload/chunk };
"#;

/// Peers for the payload-scaling experiment. `payload_bytes` sizes the
/// documents on both sides.
pub fn throughput_cluster(payload_bytes: usize) -> ThroughputCluster {
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let a = Peer::new(A_URI, EngineKind::Rel);
    let b = Peer::new(B_URI, EngineKind::Tree);
    for p in [&a, &b] {
        p.register_module(THROUGHPUT_MODULE).unwrap();
        p.add_document("payload.xml", &xmark::payload_xml(payload_bytes))
            .unwrap();
        p.set_transport(net.clone());
    }
    net.register(A_URI, a.soap_handler());
    net.register(B_URI, b.soap_handler());
    ThroughputCluster { net, a, b }
}

/// Request-heavy call: ship all payload chunks as a parameter.
pub fn request_heavy_query() -> String {
    format!(
        r#"import module namespace tp = "throughput";
execute at {{"{B_URI}"}} {{tp:consume(doc("payload.xml")/payload/chunk)}}"#
    )
}

/// Response-heavy call: the remote function returns all payload chunks.
pub fn response_heavy_query() -> String {
    format!(
        r#"import module namespace tp = "throughput";
count(execute at {{"{B_URI}"}} {{tp:produce()}})"#
    )
}

/// Pretty MB/s.
pub fn mb_per_sec(bytes: u64, elapsed: Duration) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / elapsed.as_secs_f64().max(1e-9)
}

// ---------------------------------------------------------------------
// Experiment U1: update-heavy durability — WAL group commit under
// FsyncPolicy::Always (committed updates/s + commit latency quantiles)
// ---------------------------------------------------------------------

/// Steady-state update workload: `u:bump()` replaces a text node, so the
/// document (and with it snapshot-clone and ∆ cost) stays constant-size
/// no matter how many transactions commit — the measured cost is the
/// durability path, not document growth.
pub const U1_MODULE: &str = r#"
module namespace u = "u1";
declare updating function u:bump()
{ replace value of node doc("log.xml")/log/e with "x" };
"#;

/// QueryID timestamp placeholder baked into the pre-serialized message
/// templates; far enough in the future that it never collides with a
/// real `now_millis` and its decimal form never appears elsewhere in the
/// XML.
const QID_TS_SENTINEL: u64 = 4_100_000_000_000;

/// A wire-level updater: one synthetic coordinator replaying the exact
/// message of a committed single-participant transaction — the updating
/// call, marked to commit on its reply (the participant holds the only ∆
/// and decides alone before it answers) — from a template serialized once
/// at construction, with only the queryID timestamp substituted per
/// transaction.
///
/// The point: the *participant* (message parsing, evaluation, 2PC
/// handling, WAL group commit, apply) is the system under test, so the
/// load generator must be cheaper than it. Driving full coordinator
/// peers instead would spend most of each core on client-side query
/// parsing and message construction and starve the participant on small
/// machines.
pub struct UpdateDriver {
    net: Arc<SimNetwork>,
    template: String,
}

impl UpdateDriver {
    pub fn new(net: Arc<SimNetwork>, host: &str) -> UpdateDriver {
        let mut req = xrpc_proto::XrpcRequest::new("u1", "bump", 0)
            .with_query_id(xrpc_proto::QueryId::new(host, QID_TS_SENTINEL, 3_000));
        req.upd_call = xrpc_proto::UpdCall::Commit;
        req.seq = Some(0);
        req.push_call(vec![]);
        let template = req.to_xml().unwrap();
        UpdateDriver { net, template }
    }

    /// Run one full transaction under queryID timestamp `ts` (must be
    /// unique per driver and recent enough to pass expiry). Errors on a
    /// transport failure, a SOAP fault, or an answer that did not commit.
    pub fn commit_one(&self, ts: u64) -> Result<(), String> {
        let body = (self.template).replace(&QID_TS_SENTINEL.to_string(), &ts.to_string());
        let resp = (self.net.roundtrip(B_URI, body.as_bytes())).map_err(|e| e.to_string())?;
        let committed = br#"updCall="committed""#;
        let said = resp.windows(committed.len()).any(|w| w == committed);
        said.then_some(())
            .ok_or_else(|| format!("not committed: {}", String::from_utf8_lossy(&resp)))
    }
}

/// `updaters` wire-level drivers hammering one durable participant `b`
/// whose WAL runs real forced fsyncs ([`FsyncPolicy::Always`]) — the
/// workload where group commit coalesces concurrent forces into shared
/// fsyncs.
pub struct UpdateCluster {
    pub net: Arc<SimNetwork>,
    pub drivers: Vec<UpdateDriver>,
    pub b: Arc<Peer>,
    pub wal_path: std::path::PathBuf,
}

impl Drop for UpdateCluster {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.wal_path);
    }
}

pub fn update_cluster(updaters: usize) -> UpdateCluster {
    update_cluster_fsync(updaters, FsyncPolicy::Always)
}

/// Like [`update_cluster`] with an explicit fsync policy —
/// `FsyncPolicy::Never` measures the CPU ceiling of the commit path,
/// the headroom any durability scheme is chasing.
pub fn update_cluster_fsync(updaters: usize, fsync: FsyncPolicy) -> UpdateCluster {
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let b = Peer::new(B_URI, EngineKind::Tree);
    b.register_module(U1_MODULE).unwrap();
    b.add_document("log.xml", "<log><e>0</e></log>").unwrap();
    b.set_transport(net.clone());
    net.register(B_URI, b.soap_handler());
    let wal_path =
        std::env::temp_dir().join(format!("xrpc-u1-{}-n{updaters}.wal", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_path);
    b.attach_wal_with(
        &wal_path,
        WalConfig {
            fsync,
            ..WalConfig::default()
        },
    )
    .unwrap();
    let drivers = (0..updaters)
        .map(|i| UpdateDriver::new(net.clone(), &format!("xrpc://u{i}.example.org")))
        .collect();
    UpdateCluster {
        net,
        drivers,
        b,
        wal_path,
    }
}

/// The participant's durable-commit path at the WAL API: per committed
/// update, the exact append sequence a one-phase participant performs —
/// `Prepared` (carrying the serialized ∆) unforced, `Decision` forced, the
/// `Applied` marker not — against a real log with real fsyncs. This is
/// the layer group commit operates on; [`UpdateCluster`] measures the
/// same protocol end to end with the engine and XML codec in the loop.
pub struct CommitPath {
    pub wal: Arc<xrpc_peer::Wal>,
    path: std::path::PathBuf,
}

impl Drop for CommitPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

impl CommitPath {
    pub fn open() -> CommitPath {
        let path = std::env::temp_dir().join(format!("xrpc-u1-commit-{}.wal", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let (wal, _) = xrpc_peer::Wal::open_with(
            &path,
            WalConfig {
                fsync: FsyncPolicy::Always,
                ..WalConfig::default()
            },
        )
        .unwrap();
        CommitPath { wal, path }
    }

    /// One committed update transaction, as a one-phase commit logs it —
    /// `Prepared` unforced, `Decision` forced (one flush for both), then
    /// `Applied` unforced: the ∆ mirrors what `u:bump()` produces (a
    /// `replace value of node` on a three-deep text node).
    pub fn commit_one(&self, host: &str, seq: u64) {
        use xrpc_peer::wal::{NodePath, PathStep, SerializedPrimitive};
        let qid = xrpc_proto::QueryId::new(host, QID_TS_SENTINEL + seq, 3_000);
        let delta = vec![SerializedPrimitive::ReplaceValue {
            target: NodePath {
                doc_uri: "log.xml".into(),
                steps: vec![PathStep::Child(0), PathStep::Child(0), PathStep::Child(0)],
            },
            value: seq.to_string(),
        }];
        let mark = self
            .wal
            .append_nosync(&xrpc_peer::WalRecord::Prepared {
                qid: qid.clone(),
                coordinator: A_URI.into(),
                delta,
            })
            .unwrap();
        self.wal
            .append(&xrpc_peer::WalRecord::Decision {
                qid: qid.clone(),
                decision: xrpc_peer::Decision::Committed,
            })
            .unwrap();
        self.wal
            .append_nosync(&xrpc_peer::WalRecord::Applied { qid, mark })
            .unwrap();
    }
}

// ---------------------------------------------------------------------
// Counting allocator: allocation-pressure instrumentation for E4
// ---------------------------------------------------------------------

/// A `GlobalAlloc` wrapper over the system allocator that counts
/// allocations and bytes requested. Installed by the `tables` binary
/// (`#[global_allocator]`) so E4 can report allocator pressure per
/// request next to MB/s — the 4 MiB cliff is allocator-bound, so MB/s
/// alone can't tell "got faster" apart from "allocates less".
///
/// `realloc` counts as one allocation of the *new* size: a Vec that
/// doubles its way to N bytes shows up as ~log2(N) allocations and ~2N
/// bytes, which is exactly the waste the sized-arena work removes.
pub struct CountingAlloc;

static ALLOC_COUNT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static ALLOC_BYTES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, std::sync::atomic::Ordering::Relaxed);
        std::alloc::System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, std::sync::atomic::Ordering::Relaxed);
        std::alloc::System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, std::sync::atomic::Ordering::Relaxed);
        std::alloc::System.realloc(ptr, layout, new_size)
    }
}

/// Point-in-time allocator counters (monotonic; subtract two snapshots
/// to get the pressure of the code in between).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub bytes: u64,
}

/// Read the counters. Always valid to call; stays at zero unless a
/// binary installs [`CountingAlloc`] as its `#[global_allocator]`.
pub fn alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOC_COUNT.load(std::sync::atomic::Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(std::sync::atomic::Ordering::Relaxed),
    }
}

impl AllocSnapshot {
    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_cluster_runs_both_modes() {
        for (bulk, expected_requests) in [(true, 1u64), (false, 4u64)] {
            let c = echo_cluster(NetProfile::instant(), bulk, true);
            let (_, res) = time_query(&c.a, &echo_query(4));
            assert!(res.is_empty());
            assert_eq!(
                c.b.stats
                    .requests_handled
                    .load(std::sync::atomic::Ordering::Relaxed),
                expected_requests
            );
        }
    }

    #[test]
    fn wrapper_cluster_get_person() {
        let c = wrapper_cluster(50);
        let (_, res) = time_query(&c.a, &get_person_query(10, 50));
        assert_eq!(res.len(), 10);
        assert_eq!(c.wrapper.phases().requests, 1);
    }

    #[test]
    fn strategy_cluster_all_strategies() {
        let params = xmark::XmarkParams {
            persons: 20,
            closed_auctions: 60,
            matches: 4,
            padding_words: 4,
            seed: 3,
        };
        for s in distq::Strategy::ALL {
            let c = strategy_cluster(&params, NetProfile::instant());
            let (_, res) = time_query(&c.a, &s.query(B_URI, A_URI));
            let n = res
                .iter()
                .filter(|i| matches!(i, xdm::Item::Node(h) if h.name().is_some_and(|q| q.local == "result")))
                .count();
            assert_eq!(n, 4, "{}", s.label());
            // timing transport observed traffic for the XRPC strategies
            let blocked = c.timing.take_blocked();
            if s != distq::Strategy::DataShipping {
                assert!(blocked >= Duration::ZERO);
            }
        }
    }

    #[test]
    fn data_shipping_joins_without_path_steps_per_row() {
        // the `tables table4 --quick` sizes: 120 persons, 480 auctions
        let params = xmark::XmarkParams {
            persons: 120,
            closed_auctions: 480,
            matches: 6,
            padding_words: 20,
            seed: 42,
        };
        let c = strategy_cluster(&params, NetProfile::instant());
        // 608 while each row's key ran through the interpreter
        let steps = data_shipping_path_steps(&c);
        assert!(steps <= 8, "{steps} path steps at A");
    }

    #[test]
    fn throughput_cluster_both_directions() {
        let c = throughput_cluster(64 * 1024);
        let (_, res) = time_query(&c.a, &request_heavy_query());
        assert!(res.items()[0].string_value().parse::<u64>().unwrap() > 100);
        let (_, res2) = time_query(&c.a, &response_heavy_query());
        assert!(res2.items()[0].string_value().parse::<u64>().unwrap() > 100);
        let m = c.net.metrics.snapshot();
        assert!(m.bytes_sent > 64 * 1024, "request payload shipped");
        assert!(m.bytes_received > 64 * 1024, "response payload shipped");
    }
}
