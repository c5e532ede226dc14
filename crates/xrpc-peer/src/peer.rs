//! The peer: one XQuery database node speaking XRPC on both sides.

use crate::client::XrpcClient;
use crate::store::{Decision, QuerySnapshot, SnapshotManager};
use crate::twopc::{
    self, CommitOutcome, TwoPcConfig, TwoPcMetrics, METHOD_ABORT, METHOD_CANCEL, METHOD_COMMIT,
    METHOD_INQUIRE, METHOD_PREPARE, WSAT_MODULE,
};
use crate::wal::{self, Wal, WalRecord};
use parking_lot::{Mutex, RwLock};
use relalg::{FunctionCache, PlanCache};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdm::{Item, Sequence, XdmError, XdmResult};
use xqast::FunctionDecl;
use xqeval::context::{CancelToken, DocResolver, Environment, StaticContext};
use xqeval::eval::{Ctx, EvalState, Evaluator};
use xqeval::modules::CompiledModule;
use xqeval::pul::{apply_updates, PendingUpdateList};
use xqeval::{CompiledMain, InMemoryDocs, ModuleRegistry};
use xrpc_net::{
    crash_points, BreakerConfig, CrashSwitch, ResilientTransport, RetryPolicy, Transport,
};
use xrpc_obs::{
    trace_id_from, Observability, Phase, ProfileCollector, ProfileMode, QueryProfile, SlowLog,
    SlowLogConfig, SlowLogEntry, TraceContext,
};
use xrpc_proto::{
    parse_message, QueryId, TxOutcome, XrpcFault, XrpcMessage, XrpcRequest, XrpcResponse,
};

/// Which engine executes queries and incoming requests at this peer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// Tree-walking (the "Saxon" role).
    Tree,
    /// Loop-lifted relational (the "MonetDB/XQuery" role) — generates Bulk
    /// RPC for `execute at` in loops.
    Rel,
}

/// Isolation level for a query (paper §2.2): `declare option
/// xrpc:isolation "none" | "repeatable"`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IsolationLevel {
    None,
    Repeatable,
}

/// Peer-side counters for the experiment harness.
#[derive(Default, Debug)]
pub struct PeerStats {
    pub requests_handled: AtomicU64,
    pub calls_handled: AtomicU64,
    pub functions_prepared: AtomicU64,
    pub control_messages: AtomicU64,
    /// Never incremented: a request is evaluated in one piece, on the
    /// worker that took it. `benchmark/` reads the field by name, so it
    /// stays until the benchmark's owner drops the counter.
    pub parallel_bulk_requests: AtomicU64,
    /// Value-index activity of the queries and requests this peer ran
    /// (`xqeval::index`): indexes built, probes answered, indexes evicted
    /// by the per-document cap.
    pub join_index_builds: AtomicU64,
    pub join_index_probes: AtomicU64,
    pub join_index_evictions: AtomicU64,
}

impl PeerStats {
    /// Keep what an evaluation environment counted before it goes away.
    fn absorb(&self, env: &Environment) {
        let s = env.stats();
        for (total, n) in [
            (&self.join_index_builds, s.join_index_builds),
            (&self.join_index_probes, s.join_index_probes),
            (&self.join_index_evictions, s.join_index_evictions),
        ] {
            if n > 0 {
                total.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// The prepared artifact the function cache stores: the function
/// definition plus the static context of its module (the module's own,
/// shared: a request takes a reference).
pub struct PreparedFunction {
    pub decl: Arc<FunctionDecl>,
    pub sctx: Arc<StaticContext>,
}

/// Plan-cache key: (normalized query text, static-context fingerprint).
/// The text part covers everything the query declares for itself (its
/// prolog is in the text); the fingerprint covers the *ambient* static
/// context the peer compiles it in — module registry generation, peer
/// default base URI / collation, engine kind (see
/// [`Peer::plan_fingerprint`]).
pub type PlanKey = (String, u64);

/// The compile-once artifact the plan cache stores: the parsed module plus
/// its resolved static context (behind `Arc`s, so execution shares rather
/// than clones), and the execution options derived from the prolog —
/// everything `execute` needs except the dynamic context.
pub struct QueryPlan {
    pub compiled: CompiledMain,
    pub isolation: IsolationLevel,
    pub timeout_secs: u32,
    /// `declare option xrpc:profile "off" | "on" | "full"` — whether
    /// executions of this plan collect a distributed profile.
    pub profile: ProfileMode,
    /// FNV-1a of the normalized query text (the slow-query log's stable
    /// query identity — the log never stores raw query text).
    pub text_hash: u64,
    /// What compiling this plan cost, split at the parser boundary. A
    /// plan-cache hit skips both; the profile's parse/compile phases are
    /// charged only on the miss that actually paid them.
    pub parse_micros: u64,
    pub compile_micros: u64,
}

/// A handle to a cached plan, returned by [`Peer::prepare`]. Executing it
/// ([`Peer::execute_prepared`]) skips parse + static analysis entirely —
/// parameters ride the query's `declare variable $x ... external`
/// declarations. The handle keeps its plan alive even across cache
/// eviction or invalidation (the plan is an `Arc` snapshot), so results
/// stay self-consistent; re-`prepare` to pick up module changes.
pub struct PreparedQuery {
    pub(crate) plan: Arc<QueryPlan>,
}

impl PreparedQuery {
    pub fn isolation(&self) -> IsolationLevel {
        self.plan.isolation
    }
    pub fn timeout_secs(&self) -> u32 {
        self.plan.timeout_secs
    }
    pub fn plan_profile(&self) -> ProfileMode {
        self.plan.profile
    }
}

/// Outcome details of a top-level query execution.
pub struct ExecOutcome {
    pub result: Sequence,
    pub isolation: IsolationLevel,
    pub commit: Option<CommitOutcome>,
    pub requests_sent: u64,
    pub calls_sent: u64,
    /// The assembled cross-peer profile, when the query ran with
    /// `xrpc:profile` on (or via [`Peer::explain_analyze`]).
    pub profile: Option<QueryProfile>,
}

/// `(qid.host, qid.timestamp_millis)` — how coordination maps key a
/// transaction without cloning the whole `QueryId`.
pub(crate) type TxKey = (String, u64);

/// A recovered commit decision still owed to its participants: the
/// queryID to redeliver under and the full participant list.
pub(crate) type RedeliverEntry = (QueryId, Vec<String>);

/// One XRPC peer.
pub struct Peer {
    /// This peer's `xrpc://host[:port]` URI (settable after construction,
    /// e.g. once an ephemeral HTTP port is known).
    name: RwLock<String>,
    pub engine: EngineKind,
    pub docs: Arc<InMemoryDocs>,
    pub modules: Arc<ModuleRegistry>,
    module_sources: RwLock<HashMap<String, String>>,
    pub snapshots: SnapshotManager,
    transport: RwLock<Option<Arc<dyn Transport>>>,
    /// The resilience decorator installed by [`set_transport`]/
    /// [`set_transport_with`], kept typed so the admin surface can read
    /// its per-destination stats and breaker states (the `dyn Transport`
    /// in `transport` erases them).
    ///
    /// [`set_transport`]: Self::set_transport
    /// [`set_transport_with`]: Self::set_transport_with
    resilient: RwLock<Option<Arc<ResilientTransport>>>,
    /// Tracer + named latency/size histograms for this peer; threaded
    /// through the client stub, the request handlers, 2PC and the WAL.
    pub obs: Arc<Observability>,
    pub function_cache: FunctionCache<PreparedFunction>,
    /// Compiled plans for top-level queries, keyed by (normalized text,
    /// ambient-static-context fingerprint) — repeated query shapes skip
    /// parse + static analysis (the generalization of the paper's §3.3
    /// function cache to whole queries). Disable for the engine-tree
    /// fidelity mode (compile every query).
    pub plan_cache: PlanCache<PlanKey, QueryPlan>,
    /// Peer-level default static context applied to queries that don't
    /// declare their own `base-uri` / `default collation`. Part of the
    /// plan-cache fingerprint.
    base_uri: RwLock<Option<String>>,
    default_collation: RwLock<Option<String>>,
    pub stats: PeerStats,
    /// Default `xrpc:timeout` seconds when a query does not declare one.
    pub default_timeout_secs: u32,
    /// Opt into the distributed-optimizer behaviours (invariant hoisting,
    /// duplicate bulk-call collapsing) for queries run at this peer.
    rpc_optimize: std::sync::atomic::AtomicBool,
    /// The write-ahead coordination log, when durability is enabled (see
    /// `recovery::attach_wal`). Peers without one keep the pre-durability
    /// behavior: prepared state is volatile, a crash forgets it.
    pub(crate) wal: RwLock<Option<Arc<Wal>>>,
    /// Deterministic crash injection for the chaos harness. `None` in
    /// production: the checks compile down to one RwLock read.
    pub(crate) crash_switch: RwLock<Option<Arc<CrashSwitch>>>,
    /// 2PC observability, both roles (next to the transport's NetMetrics).
    pub twopc_metrics: TwoPcMetrics,
    /// Coordinator tuning for queries originated here.
    pub(crate) twopc_config: RwLock<TwoPcConfig>,
    /// queryIDs this peer is *currently* coordinating — `Inquire` answers
    /// `InDoubt` for these (no decision has been durably taken yet).
    pub(crate) coordinating: Mutex<HashSet<TxKey>>,
    /// In-memory mirror of durably-logged commit decisions that someone
    /// may still ask about (fed by the commit point and by WAL replay,
    /// dropped once every participant has acknowledged) — what `Inquire`
    /// answers `Committed` from. Anything in neither map is presumed
    /// aborted.
    pub(crate) coord_committed: Mutex<HashMap<TxKey, Vec<String>>>,
    /// Commit decisions recovered from the log that still lack a
    /// `CoordinatorEnd`: participants that must be re-told to commit.
    pub(crate) coord_redeliver: Mutex<HashMap<TxKey, RedeliverEntry>>,
    /// Coordinator addresses recorded in recovered `Prepared` records,
    /// consulted by the in-doubt resolver (falls back to `qid.host`).
    pub(crate) recovered_coordinators: Mutex<HashMap<TxKey, String>>,
    /// Transactions this peer was coordinating when it crashed —
    /// recovered `CoordinatorBegin` records with no durable commit
    /// decision. Presumed abort already makes them aborted; the re-abort
    /// sweep proactively re-tells the participants so their prepared ∆s
    /// (and locks) release without waiting for an inquiry.
    pub(crate) coord_reabort: Mutex<HashMap<TxKey, RedeliverEntry>>,
    /// Timestamp generator for locally-originated queryIDs: strictly
    /// monotonic past the wall clock, because two queries starting in the
    /// same millisecond would alias to one `(host, millis)` transaction
    /// at every peer they touch.
    last_qid_ts: AtomicU64,
    /// Cancel tokens for evaluations currently running at this peer on
    /// behalf of a remote query, keyed by that query's transaction key.
    /// A `Cancel` control message flips every token for its key, which
    /// the evaluator's cooperative checkpoints observe within one
    /// checkpoint stride. Entries are removed when the evaluation
    /// finishes (success or error) — the map only ever holds in-flight
    /// work.
    pub(crate) active_evals: Mutex<HashMap<TxKey, Vec<Arc<CancelToken>>>>,
    /// Monotone counts of evaluations stopped by a deadline (XRPC0004)
    /// and by an explicit cancel (XRPC0005), rendered on `/metrics` as
    /// the `xrpc_cancellations_total{kind=...}` counter.
    pub cancellations_deadline: AtomicU64,
    pub cancellations_cancelled: AtomicU64,
    /// The always-on slow-query log: every top-level execution reports its
    /// phase totals here, and those over the threshold are appended to a
    /// bounded in-memory ring served on `GET /slowlog` (see
    /// `xrpc_obs::slowlog`). Recording never blocks the request path.
    pub slowlog: Arc<SlowLog>,
}

/// Removes a call-handler's cancel token from [`Peer::active_evals`] when
/// the evaluation finishes — by any path, including the handler's many
/// `?` early returns.
struct EvalRegistration<'a> {
    peer: &'a Peer,
    key: TxKey,
    token: Arc<CancelToken>,
}

impl Drop for EvalRegistration<'_> {
    fn drop(&mut self) {
        let mut map = self.peer.active_evals.lock();
        if let Some(v) = map.get_mut(&self.key) {
            v.retain(|t| !Arc::ptr_eq(t, &self.token));
            if v.is_empty() {
                map.remove(&self.key);
            }
        }
    }
}

impl Peer {
    pub fn new(name: impl Into<String>, engine: EngineKind) -> Arc<Self> {
        Self::new_with_docs(name, engine, Arc::new(InMemoryDocs::new()))
    }

    /// Construct a peer over an existing document store. This is how the
    /// chaos/recovery tests model a restart: the document store stands in
    /// for the durable database (updates are only ever applied atomically
    /// between crash points), while all *coordination* state — snapshots,
    /// prepared ∆s, decisions — starts empty and must be re-entered from
    /// the WAL.
    pub fn new_with_docs(
        name: impl Into<String>,
        engine: EngineKind,
        docs: Arc<InMemoryDocs>,
    ) -> Arc<Self> {
        let name = name.into();
        let obs = Observability::new(&name);
        Arc::new(Peer {
            name: RwLock::new(name),
            engine,
            docs,
            modules: Arc::new(ModuleRegistry::new()),
            module_sources: RwLock::new(HashMap::new()),
            snapshots: SnapshotManager::new(),
            transport: RwLock::new(None),
            resilient: RwLock::new(None),
            obs,
            function_cache: FunctionCache::new(true),
            plan_cache: PlanCache::new(true),
            base_uri: RwLock::new(None),
            default_collation: RwLock::new(None),
            stats: PeerStats::default(),
            default_timeout_secs: 30,
            rpc_optimize: std::sync::atomic::AtomicBool::new(false),
            wal: RwLock::new(None),
            crash_switch: RwLock::new(None),
            twopc_metrics: TwoPcMetrics::new(),
            twopc_config: RwLock::new(TwoPcConfig::default()),
            coordinating: Mutex::new(HashSet::new()),
            coord_committed: Mutex::new(HashMap::new()),
            coord_redeliver: Mutex::new(HashMap::new()),
            recovered_coordinators: Mutex::new(HashMap::new()),
            coord_reabort: Mutex::new(HashMap::new()),
            last_qid_ts: AtomicU64::new(0),
            active_evals: Mutex::new(HashMap::new()),
            cancellations_deadline: AtomicU64::new(0),
            cancellations_cancelled: AtomicU64::new(0),
            slowlog: SlowLog::new(SlowLogConfig::default()),
        })
    }

    /// The peer's write-ahead log, when one is attached.
    pub fn wal(&self) -> Option<Arc<Wal>> {
        self.wal.read().clone()
    }

    /// Arm deterministic crash injection (chaos harness only). Forwarded
    /// to the attached WAL so its internal crash points (group-commit
    /// fsync, mid-rotation) share the same switch.
    pub fn set_crash_switch(&self, sw: Arc<CrashSwitch>) {
        if let Some(w) = self.wal() {
            w.set_crash_switch(sw.clone());
        }
        *self.crash_switch.write() = Some(sw);
    }

    /// A strictly-monotonic queryID timestamp: wall-clock millis, bumped
    /// past the previous value when queries start within one millisecond.
    pub(crate) fn next_qid_ts(&self) -> u64 {
        let now = crate::now_millis();
        let prev = self
            .last_qid_ts
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |prev| {
                Some(now.max(prev + 1))
            })
            .unwrap_or(0);
        now.max(prev + 1)
    }

    /// Tune the 2PC coordinator for queries originated at this peer.
    pub fn set_twopc_config(&self, config: TwoPcConfig) {
        *self.twopc_config.write() = config;
    }

    /// Simulate a crash *mid-request* at `point` if the switch is armed
    /// for it: the error propagates up, and the attached `SimNetwork`
    /// suppresses the response so the caller sees an ambiguous timeout.
    fn crash_mid(&self, point: &str) -> XdmResult<()> {
        if let Some(sw) = self.crash_switch.read().as_ref() {
            if sw.hit(point) {
                return Err(XdmError::xrpc(format!("simulated crash at {point}")));
            }
        }
        Ok(())
    }

    /// Simulate a crash *after* the current request completes: the
    /// response is still delivered, then the peer is down. Returns
    /// whether the switch fired (so the caller can tag its span).
    fn crash_after(&self, point: &str) -> bool {
        if let Some(sw) = self.crash_switch.read().as_ref() {
            return sw.hit_after(point);
        }
        false
    }

    /// Enable/disable the distributed-optimizer behaviours (loop-invariant
    /// `execute at` hoisting + duplicate-call collapsing).
    pub fn set_rpc_optimize(&self, on: bool) {
        self.rpc_optimize.store(on, Ordering::SeqCst);
    }

    pub fn name(&self) -> String {
        self.name.read().clone()
    }

    /// Rename the peer (used when its network address is only known after
    /// binding a server socket).
    pub fn set_name(&self, name: impl Into<String>) {
        *self.name.write() = name.into();
    }

    /// Install the transport used for *outgoing* XRPC calls, wrapped in a
    /// [`ResilientTransport`] with conservative retry/breaker defaults.
    /// Use [`set_transport_with`](Self::set_transport_with) to tune, or
    /// [`set_transport_raw`](Self::set_transport_raw) to skip wrapping
    /// (e.g. when passing an already-resilient transport).
    pub fn set_transport(&self, t: Arc<dyn Transport>) {
        self.set_transport_with(t, RetryPolicy::conservative(), BreakerConfig::default());
    }

    /// Install the outgoing transport with explicit resilience settings.
    pub fn set_transport_with(
        &self,
        t: Arc<dyn Transport>,
        policy: RetryPolicy,
        breaker: BreakerConfig,
    ) {
        let rt = ResilientTransport::with_policy(t, policy, breaker);
        *self.resilient.write() = Some(rt.clone());
        *self.transport.write() = Some(rt);
    }

    /// Install the outgoing transport without resilience wrapping.
    pub fn set_transport_raw(&self, t: Arc<dyn Transport>) {
        *self.resilient.write() = None;
        *self.transport.write() = Some(t);
    }

    pub fn transport(&self) -> Option<Arc<dyn Transport>> {
        self.transport.read().clone()
    }

    /// The typed resilience decorator, when [`set_transport`]/
    /// [`set_transport_with`] installed one — the admin surface reads
    /// per-destination latency/retry stats and breaker states from it.
    ///
    /// [`set_transport`]: Self::set_transport
    /// [`set_transport_with`]: Self::set_transport_with
    pub fn resilient_transport(&self) -> Option<Arc<ResilientTransport>> {
        self.resilient.read().clone()
    }

    /// Load a document into the store.
    pub fn add_document(&self, uri: &str, xml: &str) -> XdmResult<()> {
        let doc =
            xmldom::parse_with_uri(xml, uri).map_err(|e| XdmError::doc_error(e.to_string()))?;
        self.docs.insert(uri, doc);
        Ok(())
    }

    /// Register a library module (retaining the source so the
    /// no-function-cache mode can re-translate it per request, §3.3).
    pub fn register_module(&self, source: &str) -> XdmResult<String> {
        let ns = self.modules.register_source(source)?;
        self.module_sources
            .write()
            .insert(ns.clone(), source.to_string());
        // Registering (or reloading) a module changes what cached plans
        // would compile to. The registry's generation bump already makes
        // stale keys unreachable; the explicit invalidation also frees
        // the stale entries (and is the observable contract).
        self.plan_cache.invalidate();
        Ok(ns)
    }

    /// Set the peer-level default base URI applied to queries that don't
    /// declare their own `declare base-uri`. Affects `fn:doc` resolution,
    /// and (being part of the plan-cache fingerprint) compiled plans for
    /// the old default stop being reachable.
    pub fn set_base_uri(&self, uri: Option<String>) {
        *self.base_uri.write() = uri;
    }

    pub fn base_uri(&self) -> Option<String> {
        self.base_uri.read().clone()
    }

    /// Set the peer-level default collation (same fingerprint rules as
    /// [`set_base_uri`](Self::set_base_uri)).
    pub fn set_default_collation(&self, uri: Option<String>) {
        *self.default_collation.write() = uri;
    }

    pub fn default_collation(&self) -> Option<String> {
        self.default_collation.read().clone()
    }

    /// Toggle the query plan cache. `false` selects the engine-tree
    /// fidelity mode: every query compiles from scratch (results must be
    /// byte-identical to the cached path — the cache may only ever be a
    /// performance observation).
    pub fn set_plan_cache_enabled(&self, on: bool) {
        self.plan_cache.set_enabled(on);
    }

    /// A SOAP handler closure for transports (SimNetwork / HttpServer).
    pub fn soap_handler(self: &Arc<Self>) -> xrpc_net::SoapHandler {
        let peer = self.clone();
        Arc::new(move |body: &[u8]| peer.handle_soap(body))
    }

    /// Handle one incoming SOAP message; always answers with a SOAP
    /// message (response or fault) — §2.1's error contract.
    pub fn handle_soap(&self, body: &[u8]) -> Vec<u8> {
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => {
                return XrpcFault::from_error(&XdmError::xrpc("request is not UTF-8"))
                    .to_xml()
                    .into_bytes()
            }
        };
        match self.handle_message(text) {
            // serialize into a recycled transport buffer, pre-reserved from
            // the response's estimated wire size (the server returns the
            // buffer to the pool once it hits the socket)
            Ok(resp) => {
                let mut out = xrpc_net::BufferPool::global().get_string(resp.estimated_wire_size());
                match resp.write_xml(&mut out) {
                    Ok(()) => out.into_bytes(),
                    Err(e) => XrpcFault::from_error(&e).to_xml().into_bytes(),
                }
            }
            Err(e) => XrpcFault::from_error(&e).to_xml().into_bytes(),
        }
    }

    fn handle_message(&self, text: &str) -> XdmResult<XrpcResponse> {
        let parse_started = Instant::now();
        let req = match parse_message(text)? {
            XrpcMessage::Request(r) => r,
            _ => return Err(XdmError::xrpc("expected an xrpc:request")),
        };
        let parse_micros = parse_started.elapsed().as_micros() as u64;
        // Continue the caller's trace (the context parsed from the
        // envelope header) — or start a fresh root for an untraced
        // request. The span's context and this peer's tracer stay
        // ambient for everything the request triggers: nested client
        // dispatches, 2PC control handling, the engines.
        let _tracer = xrpc_obs::set_current_tracer(Some(self.obs.tracer.clone()));
        let mut span = match req.trace {
            Some(parent) => self.obs.tracer.child_span("server:handle", parent),
            None => self.obs.tracer.span_here("server:handle"),
        };
        span.tag("module", &req.module);
        span.tag("method", &req.method);
        self.obs
            .histogram("xrpc_message_bytes")
            .record(text.len() as u64);
        let out = if req.module == WSAT_MODULE {
            self.handle_control(&req)
        } else if req.module == crate::remote_docs::DOC_MODULE {
            self.handle_doc_fetch(&req)
        } else {
            // identifies a redelivered (transport-retried) request
            // byte-for-byte; only deferred updating calls consult it, so
            // spare the read-only hot path the full-message scan
            let request_hash = if req.deferred {
                xrpc_obs::fnv1a64(text.as_bytes())
            } else {
                0
            };
            self.handle_call_request(req, request_hash, parse_micros)
        };
        if let Err(e) = &out {
            span.tag("error", e.to_string());
        }
        self.obs
            .histogram("xrpc_server_handle_micros")
            .record_micros(span.elapsed());
        out
    }

    /// WS-AtomicTransaction participant side (§2.3).
    fn handle_control(&self, req: &XrpcRequest) -> XdmResult<XrpcResponse> {
        self.stats.control_messages.fetch_add(1, Ordering::Relaxed);
        let qid = req
            .query_id
            .as_ref()
            .ok_or_else(|| XdmError::xrpc("coordination message without queryID"))?;
        // Every branch below is idempotent: the coordinator's decision
        // redelivery (and transport-level retries) may deliver any control
        // message more than once, and a participant must converge on the
        // same outcome rather than error on the replay.
        match req.method.as_str() {
            METHOD_PREPARE => {
                let mut span = self.obs.tracer.span_here("2pc:prepare");
                let snap = self.snapshots.get(qid)?;
                let mut prepared = snap.prepared.lock();
                if !*prepared {
                    // "It logs the union of the pending update lists to
                    // stable storage, ensuring q can commit later" —
                    // compatibility is the only thing that can refuse here.
                    snap.pul.lock().check_compatibility()?;
                    // A crash here is the presumed-abort case: nothing was
                    // logged, the ack is never sent, the coordinator
                    // aborts, and restart recovery finds no record.
                    if let Err(e) = self.crash_mid(crash_points::BEFORE_PREPARE_LOG) {
                        span.tag("crash_point", crash_points::BEFORE_PREPARE_LOG);
                        return Err(e);
                    }
                    // Force ∆_q + who to ask after a restart *before* the
                    // ack makes the promise.
                    if let Some(w) = self.wal() {
                        let delta = wal::serialize_pul(&snap.pul.lock())?;
                        let mut ws = self.obs.tracer.span_here("wal:force");
                        ws.tag("record", "prepared");
                        let lsn = w.append(&WalRecord::Prepared {
                            qid: qid.clone(),
                            coordinator: qid.host.clone(),
                            delta,
                        })?;
                        // the LSN this ∆ was logged under is the mark the
                        // apply will be guarded by (idempotent re-apply)
                        *snap.prepared_lsn.lock() = Some(lsn);
                    }
                    *prepared = true;
                    *snap.prepared_at.lock() = Some(Instant::now());
                }
                // re-Prepare of a prepared query: still prepared, answer OK
                drop(prepared);
                self.twopc_metrics.prepares.fetch_add(1, Ordering::Relaxed);
                // The ∆ is durable and the ack will be delivered — then
                // the peer dies holding prepared state (the in-doubt case
                // recovery must resolve by inquiry).
                if self.crash_after(crash_points::AFTER_PREPARE_ACK) {
                    span.tag("crash_point", crash_points::AFTER_PREPARE_ACK);
                }
                self.obs
                    .histogram("xrpc_twopc_prepare_micros")
                    .record_micros(span.elapsed());
            }
            METHOD_COMMIT => {
                let mut span = self.obs.tracer.span_here("2pc:commit");
                match self.snapshots.get(qid) {
                    Ok(snap) => {
                        if !*snap.prepared.lock() {
                            return Err(XdmError::xrpc("Commit before Prepare"));
                        }
                        // applyUpdates(∆_q) exactly once, even under concurrent
                        // redelivery: the `decided` slot is claimed before the
                        // apply and never released.
                        let mut decided = snap.decided.lock();
                        match *decided {
                            Some(Decision::Committed) => {}
                            Some(Decision::Aborted) => {
                                return Err(XdmError::xrpc("Commit after Abort"))
                            }
                            None => {
                                // Force the decision before acting on it, so a
                                // crash in the gap re-applies instead of
                                // forgetting a committed ∆.
                                if let Some(w) = self.wal() {
                                    let mut ws = self.obs.tracer.span_here("wal:force");
                                    ws.tag("record", "decision-committed");
                                    w.append(&WalRecord::Decision {
                                        qid: qid.clone(),
                                        decision: Decision::Committed,
                                    })?;
                                }
                                if let Err(e) = self.crash_mid(crash_points::AFTER_DECISION_LOG) {
                                    span.tag("crash_point", crash_points::AFTER_DECISION_LOG);
                                    return Err(e);
                                }
                                let pul = snap.pul.lock().clone();
                                let mark = *snap.prepared_lsn.lock();
                                self.apply_pul_marked(&pul, qid, mark)?;
                                *decided = Some(Decision::Committed);
                                // A crash in this gap — or any time before
                                // the unforced marker below reaches the
                                // disk — leaves a committed decision with no
                                // Applied marker: restart replay re-drives
                                // the apply, which the applied-LSN mark turns
                                // into a no-op.
                                if let Err(e) =
                                    self.crash_mid(crash_points::AFTER_APPLY_BEFORE_MARKER)
                                {
                                    span.tag(
                                        "crash_point",
                                        crash_points::AFTER_APPLY_BEFORE_MARKER,
                                    );
                                    return Err(e);
                                }
                                if let Some(w) = self.wal() {
                                    self.log_applied(&w, qid, mark.unwrap_or(0))?;
                                }
                                self.twopc_metrics.commits.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        drop(decided);
                        self.snapshots.finish_with(qid, Decision::Committed);
                    }
                    Err(e) => match self.snapshots.completed_decision(qid) {
                        // redelivered Commit after the snapshot was released:
                        // ∆_q is already applied, acknowledge again
                        Some(Decision::Committed) => {}
                        Some(Decision::Aborted) => {
                            return Err(XdmError::xrpc("Commit after Abort"))
                        }
                        None => return Err(e),
                    },
                }
                self.obs
                    .histogram("xrpc_twopc_commit_micros")
                    .record_micros(span.elapsed());
            }
            METHOD_ABORT => {
                let _span = self.obs.tracer.span_here("2pc:abort");
                // releases the snapshot; also used as end-of-query for
                // read-only repeatable queries. An Abort for an unknown or
                // already-finished query is acknowledged (presumed abort).
                if let Ok(snap) = self.snapshots.get(qid) {
                    // quiesce the prepared record (abort decisions need no
                    // durability of their own — absence of a commit record
                    // *is* the abort record — but the append retires the
                    // Prepared entry so the log can checkpoint)
                    if *snap.prepared.lock() && snap.decided.lock().is_none() {
                        if let Some(w) = self.wal() {
                            w.append(&WalRecord::Decision {
                                qid: qid.clone(),
                                decision: Decision::Aborted,
                            })?;
                        }
                    }
                    self.snapshots.finish_with(qid, Decision::Aborted);
                    self.twopc_metrics.aborts.fetch_add(1, Ordering::Relaxed);
                }
            }
            METHOD_INQUIRE => {
                // Coordinator side: a restarted participant holding a
                // prepared ∆ asks what was decided.
                let mut span = self.obs.tracer.span_here("2pc:inquire");
                self.twopc_metrics.inquiries.fetch_add(1, Ordering::Relaxed);
                let outcome = self.coordinator_outcome(qid);
                span.tag("outcome", format!("{outcome:?}"));
                return Ok(outcome.into_response());
            }
            METHOD_CANCEL => {
                // Best-effort stand-down from the originator: its budget
                // ran out (or its client vanished), so stop any in-flight
                // evaluations for this transaction and release the
                // snapshot — *unless* this participant has already
                // promised via Prepare, in which case the ∆ is durable
                // and only the decision protocol (Commit/Abort/Inquire)
                // may settle it. Idempotent: unknown qids just ack.
                let mut span = self.obs.tracer.span_here("2pc:cancel");
                self.twopc_metrics.cancels.fetch_add(1, Ordering::Relaxed);
                let tx_key = (qid.host.clone(), qid.timestamp_millis);
                let tokens: Vec<Arc<CancelToken>> = self
                    .active_evals
                    .lock()
                    .get(&tx_key)
                    .cloned()
                    .unwrap_or_default();
                span.tag("evals_cancelled", tokens.len().to_string());
                for t in &tokens {
                    t.cancel();
                }
                if let Ok(snap) = self.snapshots.get(qid) {
                    if *snap.prepared.lock() {
                        // point of no return: the promise stands
                        span.tag("outcome", "prepared-ignored");
                    } else {
                        self.snapshots.finish_with(qid, Decision::Aborted);
                        span.tag("outcome", "released");
                    }
                }
            }
            other => return Err(XdmError::xrpc(format!("unknown control method `{other}`"))),
        }
        let mut resp = XrpcResponse::new(WSAT_MODULE, req.method.clone());
        resp.results.push(Sequence::empty());
        Ok(resp)
    }

    /// What this peer, as coordinator, durably knows about `qid` — the
    /// presumed-abort answer to an `Inquire`.
    pub(crate) fn coordinator_outcome(&self, qid: &QueryId) -> TxOutcome {
        let key = (qid.host.clone(), qid.timestamp_millis);
        // the forced commit record is the decision, even if delivery (and
        // the coordinating entry's removal) is still in flight
        if self.coord_committed.lock().contains_key(&key) {
            return TxOutcome::Committed;
        }
        if self.coordinating.lock().contains(&key) {
            return TxOutcome::InDoubt;
        }
        // no commit record, not in flight: presumed abort
        TxOutcome::Aborted
    }

    /// Serve `fn:doc` data-shipping fetches (reserved module, see
    /// `remote_docs`). Respects the queryID snapshot when present.
    fn handle_doc_fetch(&self, req: &XrpcRequest) -> XdmResult<XrpcResponse> {
        self.stats.requests_handled.fetch_add(1, Ordering::Relaxed);
        let resolver: Arc<dyn DocResolver> = match &req.query_id {
            Some(qid) => self
                .snapshots
                .get_or_pin(qid, || self.docs.snapshot())?
                .resolver(),
            None => self.docs.clone(),
        };
        let mut resp = XrpcResponse::new(req.module.clone(), req.method.clone());
        for call in &req.calls {
            let path = call
                .first()
                .and_then(|s| s.first())
                .map(|i| i.string_value())
                .ok_or_else(|| XdmError::xrpc("doc fetch without a path"))?;
            let doc = resolver.resolve(&path)?;
            resp.results
                .push(Sequence::one(Item::Node(xmldom::NodeHandle::root(doc))));
        }
        resp.participating_peers = vec![self.name()];
        Ok(resp)
    }

    /// Handle an XRPC function-call request (possibly Bulk).
    fn handle_call_request(
        &self,
        mut req: XrpcRequest,
        request_hash: u64,
        parse_micros: u64,
    ) -> XdmResult<XrpcResponse> {
        let handle_started = Instant::now();
        // Continue the caller's profile when the request header asks for
        // one: this hop collects its own operator tree/phases and returns
        // them (plus any hops *it* gathered downstream) in the response.
        let collector = req
            .profile
            .as_ref()
            .filter(|p| p.mode.is_on())
            .map(|p| ProfileCollector::new(p.mode, &self.name(), &p.via, p.depth));
        if let Some(col) = &collector {
            col.add_phase(Phase::Parse, parse_micros);
        }
        self.stats.requests_handled.fetch_add(1, Ordering::Relaxed);
        self.stats
            .calls_handled
            .fetch_add(req.calls.len() as u64, Ordering::Relaxed);
        self.obs
            .histogram("xrpc_bulk_batch_calls")
            .record(req.calls.len() as u64);

        // The caller's remaining budget, already decremented for network
        // time at every hop. A budget exhausted on arrival is rejected
        // here, before preparing the function or pinning a snapshot — the
        // originator has already timed out, so any work would be wasted.
        let deadline = match req.budget_millis {
            Some(0) => {
                return Err(XdmError::xrpc_deadline(
                    "query budget exhausted on arrival (xrpc:timeout)",
                ))
            }
            Some(ms) => Some(Instant::now() + Duration::from_millis(ms)),
            None => None,
        };
        let cancel = budget_token(deadline);
        // Make the token reachable by a `Cancel` control message for the
        // same transaction; the guard deregisters on every exit path.
        let _eval_reg = req.query_id.as_ref().map(|qid| {
            let key = (qid.host.clone(), qid.timestamp_millis);
            self.active_evals
                .lock()
                .entry(key.clone())
                .or_default()
                .push(cancel.clone());
            EvalRegistration {
                peer: self,
                key,
                token: cancel.clone(),
            }
        });

        let key = (req.module.clone(), req.method.clone(), req.arity);
        let prepared = self
            .function_cache
            .get_or_prepare(key, || self.prepare_function(&req))?;

        // Isolation: pin (or reuse) a snapshot when a queryID is present.
        let (resolver, snap): (Arc<dyn DocResolver>, Option<Arc<QuerySnapshot>>) =
            match &req.query_id {
                Some(qid) => {
                    let s = self.snapshots.get_or_pin(qid, || self.docs.snapshot())?;
                    (s.resolver(), Some(s))
                }
                None => (self.docs.clone(), None),
            };

        // At-most-once ∆ merge for deferred updates (rule R'Fu): when the
        // response to an updating call is lost, the resilient transport
        // redelivers the identical request; merging its ∆ again would
        // double-insert or trip XQUF compatibility at Prepare. An updating
        // function's results are empty by XQUF, so the lost response can be
        // resynthesized without re-evaluating — but only if the original
        // execution *succeeded*: the hash is recorded after the merge (see
        // below), so a request that faulted re-evaluates on redelivery
        // instead of being masked as success. The replayed response carries
        // the original's participating-peer set so the originator's 2PC
        // participant list stays complete even when nested calls were made.
        let track_merge = req.deferred && prepared.decl.updating;
        if track_merge {
            if let Some(s) = &snap {
                if let Some(peers) = s.merged_requests.lock().get(&request_hash) {
                    let mut resp = XrpcResponse::new(req.module, req.method);
                    resp.results = vec![Sequence::empty(); req.calls.len()];
                    resp.participating_peers = peers.clone();
                    return Ok(resp);
                }
            }
        }

        let (nested_client, env) = self.eval_session(
            cancel,
            req.query_id.clone(),
            req.deferred,
            resolver,
            collector.clone(),
        );
        let ev = Evaluator::new(&env, prepared.sctx.clone());

        // A read-only bulk request is evaluated set-at-a-time: the calls
        // become one `iter|pos|item` table per parameter and the body runs
        // once over it (`relalg::eval_calls`), so a selection in the body
        // is one join over the request, not one selection per call — in one
        // piece, on the worker that took the request. Updating requests
        // stay a sequential loop — ∆s must compose in call order (XQUF
        // merge rules) — and so does a single call, which has nothing to
        // share.
        let eval_started = Instant::now();
        let calls = std::mem::take(&mut req.calls);
        let ncalls = calls.len();
        let outcome = if !prepared.decl.updating && ncalls > 1 {
            relalg::eval_calls(&ev, &prepared.decl, calls)
        } else {
            let mut results = Vec::with_capacity(ncalls);
            let mut pul = PendingUpdateList::new();
            calls
                .into_iter()
                .try_for_each(|args| {
                    let mut st = EvalState::new();
                    bind_params(&prepared.decl, args, &mut st)?;
                    let r = ev.eval(&prepared.decl.body, &mut st, &Ctx::none())?;
                    // an updating function's result is empty by XQUF; a
                    // non-updating one must not update, but `fn:put` is
                    // tolerated, so its ∆ is kept either way
                    results.push(if prepared.decl.updating {
                        Sequence::empty()
                    } else {
                        r
                    });
                    pul.merge(st.pul);
                    Ok(())
                })
                .map(|()| (results, pul))
        };
        self.stats.absorb(&env);
        if let Some(col) = &collector {
            col.add_phase(Phase::Execute, eval_started.elapsed().as_micros() as u64);
        }
        // Evaluation is side-effect-free up to the PUL, which is only
        // applied below: a failing call fails the request as a whole.
        let (results, mut pul_total) = outcome.inspect_err(|e: &XdmError| {
            if e.code == "XRPC0004" || e.code == "XRPC0005" {
                self.note_cancellation(&e.code, deadline);
            }
        })?;

        if !pul_total.is_empty() {
            if req.deferred {
                // rule R'Fu: defer ∆ until 2PC commit
                let snap = snap.as_ref().ok_or_else(|| {
                    XdmError::xrpc("deferred updates require a queryID (isolation)")
                })?;
                // the PUL lives until 2PC commit: copy content fragments
                // out of the request's message arena so holding a ∆ does
                // not pin the whole (possibly multi-MiB) envelope
                pul_total.compact_sources();
                snap.pul.lock().merge(pul_total);
            } else {
                // rule RFu: apply immediately after the request
                self.apply_pul(&pul_total)?;
            }
        }

        // Piggyback the peers this handling (transitively) involved.
        let mut peers: Vec<String> = nested_client
            .map(|c| c.participants_snapshot())
            .unwrap_or_default();
        peers.push(self.name());
        peers.sort();
        peers.dedup();

        // Everything merged successfully — only now record the request as
        // seen, so redelivery of a *failed* execution re-evaluates rather
        // than replaying a synthesized success.
        if track_merge {
            if let Some(s) = &snap {
                s.merged_requests.lock().insert(request_hash, peers.clone());
            }
        }

        let mut resp = XrpcResponse::new(req.module, req.method);
        resp.results = results;
        resp.participating_peers = peers;
        if let Some(col) = &collector {
            // This hop's profile (own hop first, then everything gathered
            // from peers *we* called) rides home in the response header.
            // The span ids tie the hop to the PR 5 trace.
            let (trace_id, span_id) = xrpc_obs::current_context()
                .map(|c| (c.trace_id, c.span_id))
                .unwrap_or((0, 0));
            let total_micros = parse_micros + handle_started.elapsed().as_micros() as u64;
            resp.profile_hops = col.finish_hops(trace_id, span_id, total_micros);
        }
        Ok(resp)
    }

    fn prepare_function(&self, req: &XrpcRequest) -> XdmResult<PreparedFunction> {
        self.stats
            .functions_prepared
            .fetch_add(1, Ordering::Relaxed);
        let module = if self.function_cache.is_enabled() {
            self.modules
                .get_or_load(&req.module, req.location.as_deref())?
        } else {
            // No function cache: re-translate the module on every request,
            // the paper's "No Function Cache" column.
            match self.module_sources.read().get(&req.module) {
                Some(src) => {
                    let lib = xqast::parse_library_module(src)?;
                    Arc::new(CompiledModule::from_library(&lib))
                }
                None => self
                    .modules
                    .get_or_load(&req.module, req.location.as_deref())?,
            }
        };
        let decl = module.function(&req.method, req.arity).ok_or_else(|| {
            XdmError::unknown_function(format!(
                "module `{}` has no function {}#{}",
                req.module, req.method, req.arity
            ))
        })?;
        Ok(PreparedFunction {
            decl,
            sctx: module.sctx.clone(),
        })
    }

    pub(crate) fn apply_pul(&self, pul: &PendingUpdateList) -> XdmResult<()> {
        for edit in apply_updates(pul)? {
            if let Some(uri) = &edit.uri {
                self.docs.replace(uri, edit.new.clone())?;
            }
        }
        Ok(())
    }

    /// The key a transaction's applied-LSN mark is stored under in the
    /// document store.
    pub(crate) fn mark_key(qid: &QueryId) -> String {
        format!("{}@{}", qid.host, qid.timestamp_millis)
    }

    /// `applyUpdates(∆_q)` guarded by the store's applied-LSN mark: a ∆
    /// whose log sequence number is at-or-below the mark has already
    /// reached the documents (the crash or redelivery fell between the
    /// apply and the `Applied` marker), so replay skips it instead of
    /// double-applying. Returns whether the ∆ was actually applied.
    pub(crate) fn apply_pul_marked(
        &self,
        pul: &PendingUpdateList,
        qid: &QueryId,
        lsn: Option<u64>,
    ) -> XdmResult<bool> {
        let Some(lsn) = lsn else {
            // no WAL / no logged LSN: the pre-durability behavior
            self.apply_pul(pul)?;
            return Ok(true);
        };
        let key = Self::mark_key(qid);
        if self.docs.applied_mark(&key).is_some_and(|m| m >= lsn) {
            return Ok(false);
        }
        self.apply_pul(pul)?;
        self.docs.set_applied_mark(&key, lsn);
        Ok(true)
    }

    /// Close a committed transaction in the log once its ∆ is in the store.
    /// Unforced: no promise depends on the marker (without it replay
    /// re-drives the apply, and the applied-LSN mark stops it). Marks the
    /// log can no longer ask about go with it.
    pub(crate) fn log_applied(&self, wal: &Wal, qid: &QueryId, mark: u64) -> XdmResult<()> {
        wal.append_nosync(&WalRecord::Applied {
            qid: qid.clone(),
            mark,
        })?;
        self.docs.prune_applied_marks(wal.replay_floor());
        Ok(())
    }

    // ------------------------------------------------------------------
    // Originator side
    // ------------------------------------------------------------------

    /// Execute a query at this peer (convenience over
    /// [`execute_detailed`](Self::execute_detailed)).
    pub fn execute(&self, query: &str) -> XdmResult<Sequence> {
        self.execute_detailed(query).map(|o| o.result)
    }

    /// Normalize query text for plan-cache keying. Only transformations
    /// that provably preserve XQuery semantics are allowed here — two
    /// *different* queries must never normalize to the same text (string
    /// literals make whitespace inside the body significant, so only line
    /// endings and outer padding are touched).
    pub fn normalize_query_text(query: &str) -> String {
        query.replace("\r\n", "\n").trim().to_string()
    }

    /// The ambient-static-context fingerprint folded into every plan-cache
    /// key: everything *outside* the query text that affects compilation.
    /// A module (re)registration, a peer default base-URI/collation
    /// change, or a different engine each produce a different fingerprint,
    /// so stale plans become unreachable rather than served.
    fn plan_fingerprint(&self) -> u64 {
        let ambient = StaticContext {
            base_uri: self.base_uri.read().clone(),
            default_collation: self.default_collation.read().clone(),
            ..StaticContext::default()
        };
        let mut h = ambient.fingerprint();
        h ^= self.modules.generation();
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        h ^= match self.engine {
            EngineKind::Tree => 0x7472_6565,
            EngineKind::Rel => 0x0072_656c,
        };
        h.wrapping_mul(0x0000_0100_0000_01B3)
    }

    /// Compile a query into its cacheable plan: parse, resolve the static
    /// context (query prolog over peer defaults), derive the execution
    /// options. This is the work a plan-cache hit skips.
    fn compile_query(&self, query: &str) -> XdmResult<QueryPlan> {
        let parse_started = Instant::now();
        let module = xqast::parse_main_module(query)?;
        let parse_micros = parse_started.elapsed().as_micros() as u64;
        let compile_started = Instant::now();
        let isolation = match module.prolog.option("xrpc", "isolation") {
            Some("repeatable") => IsolationLevel::Repeatable,
            Some("none") | None => IsolationLevel::None,
            Some(other) => {
                return Err(XdmError::xrpc(format!(
                    "unknown xrpc:isolation level `{other}`"
                )))
            }
        };
        // `xrpc:timeout "0"` means *explicitly no deadline* (the query may
        // run forever); anything non-integer or beyond u32 seconds is a
        // typed static error rather than a silent clamp.
        let timeout: u32 = match module.prolog.option("xrpc", "timeout") {
            Some(t) => {
                let parsed: u64 = t.trim().parse().map_err(|_| {
                    XdmError::xrpc(format!(
                        "xrpc:timeout must be a non-negative integer (seconds), got `{t}`"
                    ))
                })?;
                u32::try_from(parsed).map_err(|_| {
                    XdmError::xrpc(format!(
                        "xrpc:timeout `{t}` exceeds the maximum of {} seconds",
                        u32::MAX
                    ))
                })?
            }
            None => self.default_timeout_secs,
        };
        // Lenient by design: an unknown xrpc:profile value means "off" —
        // a profiling typo must never change query results.
        let profile = module
            .prolog
            .option("xrpc", "profile")
            .map(ProfileMode::parse)
            .unwrap_or(ProfileMode::Off);
        let mut sctx = StaticContext::from_prolog(&module.prolog);
        if sctx.base_uri.is_none() {
            sctx.base_uri = self.base_uri.read().clone();
        }
        if sctx.default_collation.is_none() {
            sctx.default_collation = self.default_collation.read().clone();
        }
        let compiled = CompiledMain::compile_with(Arc::new(module), sctx);
        Ok(QueryPlan {
            compiled,
            isolation,
            timeout_secs: timeout,
            profile,
            text_hash: xrpc_obs::fnv1a64(Self::normalize_query_text(query).as_bytes()),
            parse_micros,
            compile_micros: compile_started.elapsed().as_micros() as u64,
        })
    }

    /// The cached plan for `query` — compiled on first sight (or on every
    /// call when the cache is disabled / the fingerprint changed).
    pub fn plan_for(&self, query: &str) -> XdmResult<Arc<QueryPlan>> {
        self.plan_for_disposed(query).map(|(p, _)| p)
    }

    /// [`plan_for`](Self::plan_for) plus the cache disposition of this
    /// lookup — `"hit"`, `"miss"`, or `"off"` — for the profiler and the
    /// slow-query log.
    fn plan_for_disposed(&self, query: &str) -> XdmResult<(Arc<QueryPlan>, &'static str)> {
        let key = (Self::normalize_query_text(query), self.plan_fingerprint());
        let compiled_now = std::cell::Cell::new(false);
        let plan = self.plan_cache.get_or_prepare(key, || {
            compiled_now.set(true);
            self.compile_query(query)
        })?;
        let disposition = if !self.plan_cache.is_enabled() {
            "off"
        } else if compiled_now.get() {
            "miss"
        } else {
            "hit"
        };
        Ok((plan, disposition))
    }

    /// Prepare a query for repeated execution: compile (or fetch the
    /// cached plan) once, bind parameters per execution via the query's
    /// `declare variable $x as T external` declarations.
    ///
    /// ```text
    /// let q = peer.prepare(r#"declare variable $pid external;
    ///                         doc("people.xml")//person[@id = $pid]"#)?;
    /// for pid in ids {
    ///     let r = peer.execute_prepared(&q, vec![("pid".into(), pid)])?;
    /// }
    /// ```
    pub fn prepare(&self, query: &str) -> XdmResult<PreparedQuery> {
        Ok(PreparedQuery {
            plan: self.plan_for(query)?,
        })
    }

    /// Execute a prepared query with `params` bound to its external
    /// variables (names without the `$`). Values are coerced by the
    /// function-conversion rules against each variable's declared type.
    pub fn execute_prepared(
        &self,
        prepared: &PreparedQuery,
        params: Vec<(String, Sequence)>,
    ) -> XdmResult<Sequence> {
        self.execute_prepared_detailed(prepared, params)
            .map(|o| o.result)
    }

    /// [`execute_prepared`](Self::execute_prepared) with the full outcome.
    pub fn execute_prepared_detailed(
        &self,
        prepared: &PreparedQuery,
        params: Vec<(String, Sequence)>,
    ) -> XdmResult<ExecOutcome> {
        // The prepared handle *is* the cache: compile cost was paid at
        // prepare() time, so an execution is always a hit.
        self.execute_plan(&prepared.plan, params, "hit", None)
    }

    /// Execute a query, honoring `declare option xrpc:isolation` /
    /// `xrpc:timeout`, driving deferred updates through 2PC when the query
    /// runs isolated.
    pub fn execute_detailed(&self, query: &str) -> XdmResult<ExecOutcome> {
        let (plan, cache) = self.plan_for_disposed(query)?;
        self.execute_plan(&plan, Vec::new(), cache, None)
    }

    /// Compile-only EXPLAIN: the plan's static properties as JSON, without
    /// executing anything. The runtime counterpart is
    /// [`explain_analyze`](Self::explain_analyze).
    pub fn explain(&self, query: &str) -> XdmResult<String> {
        let (plan, cache) = self.plan_for_disposed(query)?;
        Ok(format!(
            "{{\"engine\":\"{}\",\"cache\":\"{cache}\",\"isolation\":\"{}\",\"timeoutSecs\":{},\"profile\":\"{}\",\"queryHash\":\"{:016x}\",\"parseMicros\":{},\"compileMicros\":{}}}",
            match self.engine {
                EngineKind::Tree => "tree",
                EngineKind::Rel => "rel",
            },
            match plan.isolation {
                IsolationLevel::Repeatable => "repeatable",
                IsolationLevel::None => "none",
            },
            plan.timeout_secs,
            plan.profile.as_str(),
            plan.text_hash,
            plan.parse_micros,
            plan.compile_micros,
        ))
    }

    /// EXPLAIN ANALYZE: execute the query with full (stride-1) profiling
    /// forced on — regardless of its own `xrpc:profile` option — and
    /// return the result together with the assembled cross-peer profile.
    pub fn explain_analyze(&self, query: &str) -> XdmResult<(Sequence, QueryProfile)> {
        let (plan, cache) = self.plan_for_disposed(query)?;
        let out = self.execute_plan(&plan, Vec::new(), cache, Some(ProfileMode::Full))?;
        let profile = out
            .profile
            .ok_or_else(|| XdmError::xrpc("explain_analyze produced no profile"))?;
        Ok((out.result, profile))
    }

    /// Run a compiled plan: everything after parse + static analysis —
    /// snapshot pinning, engine dispatch, 2PC settlement. `cache` is the
    /// plan lookup's disposition; `force_profile` overrides the plan's own
    /// `xrpc:profile` option (how `explain_analyze` forces stride 1).
    fn execute_plan(
        &self,
        plan: &QueryPlan,
        external: Vec<(String, Sequence)>,
        cache: &'static str,
        force_profile: Option<ProfileMode>,
    ) -> XdmResult<ExecOutcome> {
        let started = Instant::now();
        let isolation = plan.isolation;
        let timeout = plan.timeout_secs;
        // `xrpc:timeout "0"` = no *execution* deadline, but the queryId's
        // timeout also bounds the snapshot window at every participant
        // (0 on the wire would mean an instantly-expired snapshot), so a
        // deadline-free query still stamps a generous snapshot window.
        const NO_DEADLINE_SNAPSHOT_SECS: u32 = 86_400;
        let wire_timeout = if timeout == 0 {
            NO_DEADLINE_SNAPSHOT_SECS
        } else {
            timeout
        };
        let qid = match isolation {
            IsolationLevel::Repeatable => {
                Some(QueryId::new(self.name(), self.next_qid_ts(), wire_timeout))
            }
            IsolationLevel::None => None,
        };

        // The query budget: a deadline derived from xrpc:timeout.
        let deadline = (timeout > 0).then(|| Instant::now() + Duration::from_secs(timeout as u64));
        let cancel = budget_token(deadline);

        // Root span of the whole distributed execution. With a queryId
        // the trace id *is* a function of it, so every peer the query
        // touches — and this peer again after a crash/restart — derives
        // the same id with no coordination (see xrpc_obs::trace_id_from).
        let root_ctx = match &qid {
            Some(q) => TraceContext {
                trace_id: trace_id_from(&q.host, q.timestamp_millis),
                span_id: self.obs.tracer.next_span_id(),
                parent_id: None,
            },
            None => TraceContext {
                trace_id: trace_id_from(&self.name(), crate::now_millis()),
                span_id: self.obs.tracer.next_span_id(),
                parent_id: None,
            },
        };
        let _tracer = xrpc_obs::set_current_tracer(Some(self.obs.tracer.clone()));
        let mut root = self.obs.tracer.span("execute", root_ctx);
        root.tag(
            "isolation",
            match isolation {
                IsolationLevel::Repeatable => "repeatable",
                IsolationLevel::None => "none",
            },
        );

        // The originator's profile collector (depth 0, nobody called us).
        // Phase accounting for the slow-query log is NOT gated on this:
        // the log's phase totals come from a handful of `Instant` reads
        // this function takes anyway, so profiling-off stays free.
        let mode = force_profile.unwrap_or(plan.profile);
        let collector = mode
            .is_on()
            .then(|| ProfileCollector::new(mode, &self.name(), "", 0));
        if let Some(col) = &collector {
            col.set_cache(cache);
            if cache == "miss" {
                col.add_phase(Phase::Parse, plan.parse_micros);
                col.add_phase(Phase::Compile, plan.compile_micros);
            }
        }

        // Local repeatable read: evaluate against a pinned local snapshot.
        let resolver: Arc<dyn DocResolver> = match isolation {
            IsolationLevel::Repeatable => Arc::new(FrozenDocs {
                docs: self.docs.snapshot(),
            }),
            IsolationLevel::None => self.docs.clone(),
        };
        let (client, mut env) = self.eval_session(
            cancel.clone(),
            qid.clone(),
            isolation == IsolationLevel::Repeatable,
            resolver,
            collector.clone(),
        );
        env.rpc_optimize = self.rpc_optimize.load(Ordering::SeqCst);

        let exec_started = Instant::now();
        let engine_out = match self.engine {
            EngineKind::Tree => xqeval::eval::evaluate_compiled(&plan.compiled, &env, external),
            EngineKind::Rel => relalg::engine::execute_rel_compiled(&plan.compiled, &env, external),
        };
        let execute_micros = exec_started.elapsed().as_micros() as u64;
        self.stats.absorb(&env);
        if let Some(col) = &collector {
            col.add_phase(Phase::Execute, execute_micros);
        }
        let (result, local_pul) = match engine_out {
            Ok(out) => out,
            Err(e) => {
                // A deadline/cancel abort here means remote peers may still
                // be holding snapshots (and possibly evaluating) for this
                // query: tell them, best-effort, so they stop wasting work
                // and release their snapshot locks now rather than at
                // snapshot expiry.
                if e.code == "XRPC0004" || e.code == "XRPC0005" {
                    self.note_cancellation(&e.code, deadline);
                    if let (Some(c), Some(q)) = (&client, &qid) {
                        let own = self.name();
                        let dests: Vec<String> = c
                            .participants_snapshot()
                            .into_iter()
                            .filter(|p| p != &own)
                            .collect();
                        if !dests.is_empty() {
                            c.send_cancel(&dests, q);
                        }
                    }
                }
                return Err(e);
            }
        };

        let (requests_sent, calls_sent) = client
            .as_ref()
            .map(|c| {
                (
                    c.requests_sent.load(Ordering::Relaxed),
                    c.calls_sent.load(Ordering::Relaxed),
                )
            })
            .unwrap_or((0, 0));

        let mut commit = None;
        match (isolation, &client, &qid) {
            (IsolationLevel::Repeatable, Some(client), Some(qid)) => {
                let participants = client.participants_snapshot();
                // Own name may have flowed back through nested piggybacks.
                let own = self.name();
                let participants: Vec<String> =
                    participants.into_iter().filter(|p| p != &own).collect();
                if !participants.is_empty() {
                    // Point of no return: a budget that runs out *before*
                    // Prepare aborts the query cleanly (participants are
                    // told to stand down). Once `coordinate` starts, the
                    // token is no longer consulted — the decision protocol
                    // always runs to completion, deadline or not, so a
                    // forced promise can never be left in doubt.
                    if let Err(e) = cancel.check_now() {
                        self.note_cancellation(&e.code, deadline);
                        client.send_cancel(&participants, qid);
                        return Err(e);
                    }
                    // WAL appends inside the coordination are charged to
                    // their own phase; subtract them here so twopc + wal
                    // add up instead of double-counting.
                    let wal_before = collector.as_ref().map(|c| c.phases().wal_micros);
                    let twopc_started = Instant::now();
                    let outcome = self.coordinate(
                        qid,
                        client,
                        &participants,
                        &local_pul,
                        collector.as_deref(),
                    );
                    if let (Some(col), Some(before)) = (&collector, wal_before) {
                        let wal_during = col.phases().wal_micros.saturating_sub(before);
                        col.add_phase(
                            Phase::TwoPc,
                            (twopc_started.elapsed().as_micros() as u64).saturating_sub(wal_during),
                        );
                    }
                    commit = Some(outcome?);
                } else {
                    // no remote participants: apply the local ∆ directly
                    self.apply_pul(&local_pul)?;
                }
            }
            _ => {
                // isolation "none": remote updates were already applied per
                // request (rule RFu); apply the local ∆ now
                self.apply_pul(&local_pul)?;
            }
        }

        let total_micros = started.elapsed().as_micros() as u64;
        let profile = collector.as_ref().map(|col| QueryProfile {
            trace_id: root_ctx.trace_id,
            hops: col.finish_hops(root_ctx.trace_id, root_ctx.span_id, total_micros),
        });

        // Always-on slow-query log: threshold checked on every execution,
        // phase totals assembled from measurements this function already
        // took (no per-operator data unless the query was profiled).
        if self.slowlog.is_slow(total_micros) {
            let phases = match &collector {
                Some(col) => col.phases(),
                None => {
                    let mut p = xrpc_obs::Phases {
                        cache,
                        execute_micros,
                        ..Default::default()
                    };
                    if cache == "miss" {
                        p.parse_micros = plan.parse_micros;
                        p.compile_micros = plan.compile_micros;
                    }
                    p
                }
            };
            self.slowlog.record(&SlowLogEntry {
                ts_millis: crate::now_millis(),
                peer: self.name(),
                query_hash: plan.text_hash,
                trace_id: root_ctx.trace_id,
                total_micros,
                cache,
                engine: match self.engine {
                    EngineKind::Tree => "tree",
                    EngineKind::Rel => "rel",
                },
                phases,
                hops: profile.as_ref().map(|p| p.hops.len() as u32).unwrap_or(1),
            });
        }

        Ok(ExecOutcome {
            result,
            isolation,
            commit,
            requests_sent,
            calls_sent,
            profile,
        })
    }

    /// What one evaluation at this peer runs in, a top-level query and a
    /// served call alike: the client its nested `execute at` calls leave
    /// through and the environment wired to it. The evaluator checks
    /// `cancel` cooperatively and every outgoing hop decrements its budget
    /// (each nested `execute at` sees strictly less of it). `resolver` is
    /// what `fn:doc` sees locally — remote URIs are fetched through the same
    /// client as the calls.
    fn eval_session(
        &self,
        cancel: Arc<CancelToken>,
        query_id: Option<QueryId>,
        deferred_updates: bool,
        resolver: Arc<dyn DocResolver>,
        profile: Option<Arc<ProfileCollector>>,
    ) -> (Option<Arc<XrpcClient>>, Environment) {
        let client = self.transport().map(|t| {
            let mut c = XrpcClient::new(t);
            c.query_id = query_id;
            c.deferred_updates = deferred_updates;
            c.obs = Some(self.obs.clone());
            c.net_feedback = self.resilient_transport();
            c.cancel = Some(cancel.clone());
            c.profile = profile.clone();
            Arc::new(c)
        });
        let resolver: Arc<dyn DocResolver> = match &client {
            Some(c) => crate::remote_docs::RemoteDocResolver::new(resolver, c.clone()),
            None => resolver,
        };
        let mut env = Environment::new(resolver).with_modules(self.modules.clone());
        env.cancel = Some(cancel);
        env.profile = profile;
        if let Some(c) = &client {
            env.dispatcher = Some(c.clone() as Arc<dyn xqeval::context::RpcDispatcher>);
        }
        (client, env)
    }

    /// Record a deadline/cancellation abort in the peer's metrics:
    /// a per-kind counter, plus (when the query had a deadline) the
    /// latency from the deadline passing to the abort actually landing —
    /// the number the r1 bench gates on.
    fn note_cancellation(&self, code: &str, deadline: Option<Instant>) {
        if code == "XRPC0004" {
            self.cancellations_deadline.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cancellations_cancelled.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(d) = deadline {
            let now = Instant::now();
            if now > d {
                self.obs
                    .histogram("xrpc_time_to_cancel_micros")
                    .record_micros(now - d);
            }
        }
    }

    /// Drive 2PC as the originator/coordinator of `qid`, durably when a
    /// WAL is attached, and settle the query's *local* ∆ consistently
    /// with the global outcome.
    ///
    /// The local ∆ rides the same durability discipline as any remote
    /// participant's: it is logged as a `Prepared` record (with this peer
    /// as its own coordinator) before the commit point, so a coordinator
    /// crash can neither lose a committed local ∆ nor apply an aborted
    /// one — restart recovery resolves the record against the local
    /// commit-decision map exactly like a remote inquiry.
    fn coordinate(
        &self,
        qid: &QueryId,
        client: &XrpcClient,
        participants: &[String],
        local_pul: &PendingUpdateList,
        profile: Option<&ProfileCollector>,
    ) -> XdmResult<CommitOutcome> {
        let wal = self.wal();
        let self_logged = match (&wal, local_pul.is_empty()) {
            (Some(w), false) => {
                let wal_started = Instant::now();
                let lsn = w.append(&WalRecord::Prepared {
                    qid: qid.clone(),
                    coordinator: self.name(),
                    delta: wal::serialize_pul(local_pul)?,
                })?;
                if let Some(col) = profile {
                    col.add_phase(Phase::Wal, wal_started.elapsed().as_micros() as u64);
                }
                Some(lsn)
            }
            _ => None,
        };
        // Advisory begin record, unforced: recovery uses it only to drive
        // the re-abort sweep (proactively re-telling participants of a
        // crashed coordination to abort). Losing it costs an optimization,
        // never correctness — presumed abort covers the gap.
        if let Some(w) = &wal {
            let _ = w.append_nosync(&WalRecord::CoordinatorBegin {
                qid: qid.clone(),
                participants: participants.to_vec(),
            });
        }
        let key = (qid.host.clone(), qid.timestamp_millis);
        self.coordinating.lock().insert(key.clone());
        let switch = self.crash_switch.read().clone();
        let on_commit_logged = |q: &QueryId, parts: &[String]| {
            self.coord_committed
                .lock()
                .insert((q.host.clone(), q.timestamp_millis), parts.to_vec());
        };
        let ctx = twopc::CoordCtx {
            wal: wal.as_deref(),
            metrics: Some(&self.twopc_metrics),
            switch: switch.as_deref(),
            on_commit_logged: Some(&on_commit_logged),
            obs: Some(&self.obs),
        };
        let config = *self.twopc_config.read();
        let outcome = twopc::run_two_phase_commit_ctx(client, qid, participants, &config, ctx);
        self.coordinating.lock().remove(&key);

        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                // A *simulated* coordinator crash must not do post-mortem
                // work — the restarted peer recovers from the log instead.
                let dead = switch.as_ref().is_some_and(|s| s.is_down());
                if !dead {
                    if self.coord_committed.lock().contains_key(&key) {
                        // Heuristic hazard: the decision is durably *commit*,
                        // only some delivery failed. Settle the local ∆ with
                        // the decision before surfacing the hazard, or the
                        // originator itself would be the mixed outcome.
                        self.settle_local_commit(
                            qid,
                            local_pul,
                            self_logged,
                            wal.as_deref(),
                            profile,
                        )?;
                    } else if let Some(w) = &wal {
                        // presumed abort: retire the advisory begin record
                        // so the log can checkpoint (best-effort — absence
                        // of a commit record already *is* the decision)
                        let _ = w.append_nosync(&WalRecord::CoordinatorEnd { qid: qid.clone() });
                    }
                }
                return Err(e);
            }
        };

        if let CommitOutcome::Aborted { reason } = &outcome {
            if let Some(w) = &wal {
                if self_logged.is_some() {
                    // quiesce the local prepared record (absence of a commit
                    // record is the abort record; this just lets the log
                    // checkpoint)
                    w.append(&WalRecord::Decision {
                        qid: qid.clone(),
                        decision: Decision::Aborted,
                    })?;
                }
                let _ = w.append_nosync(&WalRecord::CoordinatorEnd { qid: qid.clone() });
            }
            return Err(XdmError::xrpc(format!(
                "distributed transaction aborted: {reason}"
            )));
        }
        self.settle_local_commit(qid, local_pul, self_logged, wal.as_deref(), profile)?;
        // every participant has acknowledged (`CoordinatorEnd` is logged)
        // and the local ∆ is settled: nobody is left to ask about this one
        self.coord_committed.lock().remove(&key);
        Ok(outcome)
    }

    /// Apply the originator's local ∆ for a committed transaction, under
    /// the participant logging discipline when the ∆ was logged.
    fn settle_local_commit(
        &self,
        qid: &QueryId,
        local_pul: &PendingUpdateList,
        self_logged: Option<u64>,
        wal: Option<&Wal>,
        profile: Option<&ProfileCollector>,
    ) -> XdmResult<()> {
        if let (Some(lsn), Some(w)) = (self_logged, wal) {
            let wal_started = Instant::now();
            w.append(&WalRecord::Decision {
                qid: qid.clone(),
                decision: Decision::Committed,
            })?;
            if let Some(col) = profile {
                col.add_phase(Phase::Wal, wal_started.elapsed().as_micros() as u64);
            }
            self.apply_pul_marked(local_pul, qid, Some(lsn))?;
            return self.log_applied(w, qid, lsn);
        }
        self.apply_pul(local_pul)
    }
}

/// A frozen map of documents (the originator's own repeatable-read view).
struct FrozenDocs {
    docs: crate::store::DocMap,
}

impl DocResolver for FrozenDocs {
    fn resolve(&self, uri: &str) -> XdmResult<Arc<xmldom::Document>> {
        self.docs
            .get(uri)
            .cloned()
            .ok_or_else(|| XdmError::doc_error(format!("document not found: `{uri}`")))
    }
}

/// The budget of one evaluation: a deadline carried by a shared token. When
/// the evaluation runs inside a reactor worker the job's kill flag is
/// bridged in, so a client disconnect (or the sweep tick) cancels the token
/// too.
fn budget_token(deadline: Option<Instant>) -> Arc<CancelToken> {
    match xrpc_net::current_job() {
        Some(job) => {
            job.set_deadline(deadline);
            CancelToken::with_external(deadline, job.flag())
        }
        None => CancelToken::new(deadline),
    }
}

/// Bind actual parameters with the XQuery function-conversion rules:
/// untyped atomics cast to the declared atomic type, otherwise the value
/// must match the declared sequence type.
fn bind_params(decl: &FunctionDecl, args: Vec<Sequence>, st: &mut EvalState) -> XdmResult<()> {
    let values = xqeval::eval::convert_arguments(decl, args)?;
    for ((pname, _), value) in decl.params.iter().zip(values) {
        st.bind(pname, value);
    }
    Ok(())
}
