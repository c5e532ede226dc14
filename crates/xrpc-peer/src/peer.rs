//! The peer: one XQuery database node speaking XRPC on both sides.

use crate::client::XrpcClient;
use crate::store::{QuerySnapshot, SnapshotManager};
use crate::twopc::{self, CommitOutcome, TwoPcConfig, TwoPcMetrics};
use crate::txn::{CoordTable, Input, TxKey, Via};
use crate::wal::Wal;
use parking_lot::{Mutex, RwLock};
use relalg::{FunctionCache, PlanCache};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};
use xdm::{Sequence, XdmError, XdmResult};
use xqast::FunctionDecl;
use xqeval::context::{CancelToken, DocResolver, Environment, StaticContext};
use xqeval::{CompiledMain, InMemoryDocs, ModuleRegistry};
use xrpc_net::{BreakerConfig, CrashSwitch, ResilientTransport, RetryPolicy, Transport};
use xrpc_obs::{
    trace_id_from, Histogram, Phase, PhaseClock, ProfileCollector, ProfileMode, QueryProfile,
    SlowLog, SlowLogEntry, TraceContext, Tracer,
};
use xrpc_proto::QueryId;

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
    pub(crate) fn absorb(&self, env: &Environment) {
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

/// The peer's histogram families, each a field its writer records into
/// with relaxed atomic adds: no lock, and no allocation past a family's
/// first sample. Its `families` table is the one place a family is named,
/// and `/metrics` renders it whole, so every family is on the first
/// scrape. The WAL's families are the log's own (`Wal::histograms`);
/// per-destination latency is the resilient transport's bounded table.
#[derive(Default)]
pub struct PeerHistograms {
    /// Bytes of every request this peer sends and every one it receives.
    pub message_bytes: Histogram,
    /// Round trip of each call this peer dispatches, retries included.
    pub call_latency_micros: Histogram,
    /// A served request, envelope decode to response.
    pub server_handle_micros: Histogram,
    /// Calls per served request (the Bulk RPC batch size).
    pub bulk_batch_calls: Histogram,
    /// From a query's deadline passing to its abort landing.
    pub time_to_cancel_micros: Histogram,
    /// Participant side: a `Prepare` edge, and a `Commit` or one-phase
    /// commit edge.
    pub twopc_prepare_micros: Histogram,
    pub twopc_commit_micros: Histogram,
    /// Coordinator side: the prepare fan-out, and the decision phase.
    pub twopc_prepare_phase_micros: Histogram,
    pub twopc_decision_phase_micros: Histogram,
}

impl PeerHistograms {
    /// Every family with its exposition name, name-sorted.
    pub(crate) fn families(&self) -> [(&'static str, &Histogram); 9] {
        [
            ("xrpc_bulk_batch_calls", &self.bulk_batch_calls),
            ("xrpc_call_latency_micros", &self.call_latency_micros),
            ("xrpc_message_bytes", &self.message_bytes),
            ("xrpc_server_handle_micros", &self.server_handle_micros),
            ("xrpc_time_to_cancel_micros", &self.time_to_cancel_micros),
            ("xrpc_twopc_commit_micros", &self.twopc_commit_micros),
            (
                "xrpc_twopc_decision_phase_micros",
                &self.twopc_decision_phase_micros,
            ),
            (
                "xrpc_twopc_prepare_phase_micros",
                &self.twopc_prepare_phase_micros,
            ),
            ("xrpc_twopc_prepare_micros", &self.twopc_prepare_micros),
        ]
    }
}

/// The prepared artifact the function cache stores: the function
/// definition plus the static context of its module (the module's own,
/// shared: a request takes a reference).
pub struct PreparedFunction {
    pub decl: Arc<FunctionDecl>,
    pub sctx: Arc<StaticContext>,
    /// A call computes nothing but its value: no `execute at` and no ∆,
    /// the bodies of the functions it calls included
    /// (`xqeval::effects::Summary::is_quiet`). Only such a call is answered
    /// on the reactor thread.
    pub quiet: bool,
    /// Its last call could have been answered on the reactor: quick, small
    /// and sending nothing. Only then does the reactor try the next one.
    pub fits_inline: AtomicBool,
}

/// Plan-cache key: (normalized query text, static-context fingerprint).
/// The text part covers everything the query declares for itself (its
/// prolog is in the text); the fingerprint covers the *ambient* static
/// context the peer compiles it in — module registry generation, peer
/// default base URI / collation, engine kind (see
/// `Peer::plan_fingerprint`).
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
    /// Isolated, and its one call may commit on its reply
    /// (`xqeval::Effects::commit_on_reply`).
    pub commit_on_reply: bool,
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

/// One XRPC peer.
pub struct Peer {
    /// The `Arc` this peer lives in, for the clients of queries it coordinates.
    me: Weak<Peer>,
    /// This peer's `xrpc://host[:port]` URI (settable after construction,
    /// e.g. once an ephemeral HTTP port is known).
    name: RwLock<String>,
    pub engine: EngineKind,
    pub docs: Arc<InMemoryDocs>,
    pub modules: Arc<ModuleRegistry>,
    pub(crate) module_sources: RwLock<HashMap<String, String>>,
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
    /// This peer's spans: the client stub, the request handlers and 2PC
    /// open them, the admin surface exports them.
    pub tracer: Arc<Tracer>,
    pub hists: PeerHistograms,
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
    /// Opt into the distributed optimizer for queries run at this peer.
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
    /// The transactions this peer coordinates or still answers for —
    /// what `Inquire` is answered from (see `txn::CoordTable`).
    pub coord: CoordTable,
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
        let tracer = Arc::new(Tracer::new(&name, 4096));
        Arc::new_cyclic(|me| Peer {
            me: me.clone(),
            name: RwLock::new(name),
            engine,
            docs,
            modules: Arc::new(ModuleRegistry::new()),
            module_sources: RwLock::new(HashMap::new()),
            snapshots: SnapshotManager::new(),
            transport: RwLock::new(None),
            resilient: RwLock::new(None),
            tracer,
            hists: PeerHistograms::default(),
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
            coord: CoordTable::default(),
            last_qid_ts: AtomicU64::new(0),
            active_evals: Mutex::new(HashMap::new()),
            cancellations_deadline: AtomicU64::new(0),
            cancellations_cancelled: AtomicU64::new(0),
            slowlog: SlowLog::new(),
        })
    }

    /// The peer's write-ahead log, when one is attached.
    pub fn wal(&self) -> Option<Arc<Wal>> {
        self.wal.read().clone()
    }

    /// Arm deterministic crash injection (chaos harness only). Forwarded
    /// to the attached WAL so its internal crash points (group-commit
    /// fsync, mid-compaction) share the same switch.
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

    /// Enable/disable the distributed optimizer for queries run at this
    /// peer ([`Environment::rpc_optimize`](xqeval::Environment::rpc_optimize):
    /// duplicate-call collapsing and the join rule).
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
            commit_on_reply: isolation == IsolationLevel::Repeatable
                && compiled.effects.commit_on_reply(),
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
            "{{\"engine\":\"{}\",\"cache\":\"{cache}\",\"isolation\":\"{}\",\"commitOnReply\":{},\"timeoutSecs\":{},\"profile\":\"{}\",\"queryHash\":\"{:016x}\",\"parseMicros\":{},\"compileMicros\":{}}}",
            match self.engine {
                EngineKind::Tree => "tree",
                EngineKind::Rel => "rel",
            },
            match plan.isolation {
                IsolationLevel::Repeatable => "repeatable",
                IsolationLevel::None => "none",
            },
            plan.commit_on_reply,
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
        // The originator's profile collector (depth 0, nobody called us),
        // and its phase clock, which runs whether or not the query is
        // profiled: the slow-query log reads it too.
        let mode = force_profile.unwrap_or(plan.profile);
        let collector = (mode.is_on()).then(|| ProfileCollector::new(mode, &self.name(), "", 0));
        let clock = (collector.as_ref()).map_or_else(PhaseClock::new, |c| c.clock.clone());
        clock.set_cache(cache);
        if cache == "miss" {
            // compiled just before this call: the hop's too
            clock.prepend(Phase::Parse, Duration::from_micros(plan.parse_micros));
            clock.prepend(Phase::Compile, Duration::from_micros(plan.compile_micros));
        }
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
        // A repeatable query is pinned here as it is everywhere it goes:
        // one snapshot per query per peer. What the query reads locally, what
        // a call back into this peer reads, and where either leaves its ∆
        // are the same place.
        let own = match isolation {
            IsolationLevel::Repeatable => Some(self.pin_own(wire_timeout)),
            IsolationLevel::None => None,
        };
        let qid = own.as_ref().map(|snap| snap.qid.clone());

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
                span_id: self.tracer.next_span_id(),
                parent_id: None,
            },
            None => TraceContext {
                trace_id: trace_id_from(&self.name(), crate::now_millis()),
                span_id: self.tracer.next_span_id(),
                parent_id: None,
            },
        };
        let _tracer = xrpc_obs::set_current_tracer(Some(self.tracer.clone()));
        let mut root = self.tracer.span("execute", root_ctx);
        root.tag(
            "isolation",
            match isolation {
                IsolationLevel::Repeatable => "repeatable",
                IsolationLevel::None => "none",
            },
        );
        // releases the snapshot on every way out, inside the root span
        let _own = qid.as_ref().map(|qid| OwnSnapshot(self, qid));

        let resolver: Arc<dyn DocResolver> = match &own {
            Some(snap) => snap.resolver(),
            None => self.docs.clone(),
        };
        let (client, mut env) = self.eval_session(
            cancel.clone(),
            qid.clone(),
            plan.commit_on_reply,
            resolver,
            collector.clone(),
            Some(clock.clone()),
        );
        env.rpc_optimize = self.rpc_optimize.load(Ordering::SeqCst);

        let execute = clock.enter(Phase::Execute);
        let engine_out = match self.engine {
            EngineKind::Tree => xqeval::eval::evaluate_compiled(&plan.compiled, &env, external),
            EngineKind::Rel => relalg::engine::execute_rel_compiled(&plan.compiled, &env, external),
        };
        drop(execute);
        self.stats.absorb(&env);
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
        match &own {
            Some(own) => {
                let qid = &own.qid;
                // the query's own ∆ joins what calls back here deferred
                let has_delta = {
                    let mut pul = own.pul.lock();
                    pul.merge(local_pul);
                    !pul.is_empty()
                };
                // Own name may have flowed back through nested piggybacks.
                let me = self.name();
                let participants: Vec<String> = (client.iter())
                    .flat_map(|c| c.participants_snapshot())
                    .filter(|p| p != &me)
                    .collect();
                if client
                    .as_ref()
                    .is_some_and(|c| c.committed.load(Ordering::Relaxed))
                {
                    // the callee decided alone before it answered
                    commit = Some(CommitOutcome::Committed { participants: 1 });
                } else if let (Some(client), false) = (&client, participants.is_empty()) {
                    // Point of no return: a budget that runs out *before*
                    // Prepare aborts the query cleanly (participants are
                    // told to stand down). Once the protocol starts, the
                    // token is no longer consulted — the decision protocol
                    // always runs to completion, deadline or not, so a
                    // forced promise can never be left in doubt.
                    if let Err(e) = cancel.check_now() {
                        self.note_cancellation(&e.code, deadline);
                        client.send_cancel(&participants, qid);
                        return Err(e);
                    }
                    let twopc = clock.enter(Phase::TwoPc);
                    let outcome =
                        twopc::run_two_phase_commit(self, client, qid, &participants, has_delta)?;
                    drop(twopc);
                    if let CommitOutcome::Aborted { reason } = &outcome {
                        return Err(twopc::aborted(reason));
                    }
                    commit = Some(outcome);
                } else if has_delta {
                    // no remote participant: nobody to promise anything to
                    self.txn_edge(qid, Input::CommitSingleSite, Via::Call)?;
                }
            }
            // isolation "none": remote updates were already applied per
            // request (rule RFu); apply the local ∆ now
            None => self.apply_pul(&local_pul)?,
        }

        let (total_micros, phases) = clock.finish();
        let profile = collector.as_ref().map(|col| QueryProfile {
            trace_id: root_ctx.trace_id,
            hops: col.finish_hops(root_ctx.trace_id, root_ctx.span_id),
        });

        // Always-on slow-query log: threshold checked on every execution,
        // phases from the clock (no per-operator data unless the query was
        // profiled).
        if self.slowlog.is_slow(total_micros) {
            self.slowlog.record(&SlowLogEntry {
                ts_millis: crate::now_millis(),
                peer: self.name(),
                query_hash: plan.text_hash,
                trace_id: root_ctx.trace_id,
                total_micros,
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

    /// Mint a queryID and pin this peer's state under it. A later query of
    /// this peer's may have started and finished in between, which marks
    /// every older timestamp of ours expired: nothing has happened under
    /// this one yet, so take a newer.
    fn pin_own(&self, timeout_secs: u32) -> Arc<QuerySnapshot> {
        loop {
            let qid = QueryId::new(self.name(), self.next_qid_ts(), timeout_secs);
            if let Ok(snap) = self.snapshots.get_or_pin(&qid, || self.docs.snapshot()) {
                return snap;
            }
        }
    }

    /// What one evaluation at this peer runs in, a top-level query and a
    /// served call alike: the client its nested `execute at` calls leave
    /// through and the environment wired to it. The evaluator checks
    /// `cancel` cooperatively and every outgoing hop decrements its budget
    /// (each nested `execute at` sees strictly less of it). `resolver` is
    /// what `fn:doc` sees locally — remote URIs are fetched through the same
    /// client as the calls. With `commit_on_reply` this peer coordinates
    /// the query's one call (see `twopc::settle_reply`).
    pub(crate) fn eval_session(
        &self,
        cancel: Arc<CancelToken>,
        query_id: Option<QueryId>,
        commit_on_reply: bool,
        resolver: Arc<dyn DocResolver>,
        profile: Option<Arc<ProfileCollector>>,
        clock: Option<Arc<PhaseClock>>,
    ) -> (Option<Arc<XrpcClient>>, Environment) {
        let client = self.transport().map(|t| {
            let mut c = XrpcClient::new(t);
            c.query_id = query_id;
            c.coordinator = Mutex::new(self.me.upgrade().filter(|_| commit_on_reply));
            c.sender = self.me.upgrade();
            c.net_feedback = self.resilient_transport();
            c.cancel = Some(cancel.clone());
            c.profile = profile.clone();
            c.clock = clock;
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
    pub(crate) fn note_cancellation(&self, code: &str, deadline: Option<Instant>) {
        if code == "XRPC0004" {
            self.cancellations_deadline.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cancellations_cancelled.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(d) = deadline {
            let now = Instant::now();
            if now > d {
                self.hists.time_to_cancel_micros.record_micros(now - d);
            }
        }
    }
}

/// The originator's hold on its own snapshot. Dropping it stands the query
/// down here — `Cancel`, which releases a snapshot that promised nothing
/// and leaves a prepared one (a coordinator that died mid-protocol) to the
/// decision protocol; a settled one is already gone.
struct OwnSnapshot<'a>(&'a Peer, &'a QueryId);

impl Drop for OwnSnapshot<'_> {
    fn drop(&mut self) {
        let OwnSnapshot(peer, qid) = *self;
        if peer.snapshots.get(qid).is_ok() {
            let _ = peer.txn_edge(qid, Input::Cancel, Via::Call);
        }
    }
}

/// The budget of one evaluation: a deadline carried by a shared token. When
/// the evaluation runs inside a reactor worker the job's kill flag is
/// bridged in, so a client disconnect cancels the token too.
pub(crate) fn budget_token(deadline: Option<Instant>) -> Arc<CancelToken> {
    match xrpc_net::current_job() {
        Some(kill) => CancelToken::with_external(deadline, kill),
        None => CancelToken::new(deadline),
    }
}
