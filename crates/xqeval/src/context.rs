//! Static and dynamic evaluation context, plus the two extension points the
//! distributed layer plugs into: document resolution (`fn:doc`) and XRPC
//! dispatch (`execute at`).

use crate::modules::ModuleRegistry;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xdm::{Sequence, XdmError, XdmResult};
use xmldom::Document;

/// How many [`CancelToken::check`] polls elapse between wall-clock reads.
/// Flag checks (explicit cancellation, the network layer's per-job kill
/// switch) happen on *every* poll — the stride only bounds how often the
/// hot evaluation loops pay for `Instant::now()`.
const CLOCK_STRIDE: u32 = 16;

/// A shared deadline + cooperative-cancellation token, checked at bounded
/// intervals inside the evaluator's loop/recursion sites.
///
/// Three ways a query dies through one of these:
/// * its own deadline (from `xrpc:timeout`, decremented per hop) passes —
///   [`check`](Self::check) raises `XRPC0004`;
/// * someone calls [`cancel`](Self::cancel) (originator fan-out, admin) —
///   `XRPC0005`;
/// * the bridged `external` flag flips (the reactor's sweep cancelling a
///   job whose connection died or whose deadline passed) — `XRPC0005`.
///
/// The token deliberately lives in `xqeval` with only `std` types so the
/// evaluator does not depend on the network layer; the bridge to a
/// reactor job is a plain shared `AtomicBool`.
pub struct CancelToken {
    deadline: Option<Instant>,
    cancelled: AtomicBool,
    external: Option<Arc<AtomicBool>>,
    polls: AtomicU32,
}

impl CancelToken {
    /// A token with an optional deadline (`None` = no deadline, the
    /// `xrpc:timeout "0"` semantics).
    pub fn new(deadline: Option<Instant>) -> Arc<Self> {
        Arc::new(CancelToken {
            deadline,
            cancelled: AtomicBool::new(false),
            external: None,
            polls: AtomicU32::new(0),
        })
    }

    /// A token additionally bridged to an external kill flag (e.g. the
    /// network layer's per-job cancellation switch).
    pub fn with_external(deadline: Option<Instant>, external: Arc<AtomicBool>) -> Arc<Self> {
        Arc::new(CancelToken {
            deadline,
            cancelled: AtomicBool::new(false),
            external: Some(external),
            polls: AtomicU32::new(0),
        })
    }

    /// Request cancellation; every subsequent [`check`](Self::check)
    /// fails with `XRPC0005`.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
            || self
                .external
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the deadline has already passed (unstrided clock read).
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Budget left on the deadline, in milliseconds, saturating at zero —
    /// what gets stamped into an outgoing request's `<xrpc:budget/>`
    /// header. `None` when the token has no deadline.
    pub fn remaining_millis(&self) -> Option<u64> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64)
    }

    /// The cooperative checkpoint: cheap atomic loads on every call, a
    /// wall-clock read every [`CLOCK_STRIDE`] calls. `Err(XRPC0005)` when
    /// cancelled, `Err(XRPC0004)` when the deadline passed.
    pub fn check(&self) -> XdmResult<()> {
        if self.is_cancelled() {
            return Err(XdmError::xrpc_cancelled("query cancelled"));
        }
        if let Some(d) = self.deadline {
            let n = self.polls.fetch_add(1, Ordering::Relaxed);
            if n.is_multiple_of(CLOCK_STRIDE) && Instant::now() >= d {
                return Err(XdmError::xrpc_deadline(
                    "query deadline exceeded (xrpc:timeout)",
                ));
            }
        }
        Ok(())
    }

    /// Like [`check`](Self::check) but always consulting the clock — for
    /// one-shot decision points (dispatch admission, the 2PC commit
    /// point) rather than hot loops.
    pub fn check_now(&self) -> XdmResult<()> {
        if self.is_cancelled() {
            return Err(XdmError::xrpc_cancelled("query cancelled"));
        }
        if self.expired() {
            return Err(XdmError::xrpc_deadline(
                "query deadline exceeded (xrpc:timeout)",
            ));
        }
        Ok(())
    }
}

/// Resolves document URIs for `fn:doc` (and stores for `fn:put`).
pub trait DocResolver: Send + Sync {
    fn resolve(&self, uri: &str) -> XdmResult<Arc<Document>>;

    /// `fn:put` target: store `doc` under `uri`. Default: unsupported.
    fn put(&self, _uri: &str, _doc: Document) -> XdmResult<()> {
        Err(XdmError::doc_error(
            "fn:put is not supported by this resolver",
        ))
    }

    /// Swap in a new version of a document (used by `applyUpdates`).
    fn replace(&self, _uri: &str, _doc: Arc<Document>) -> XdmResult<()> {
        Err(XdmError::doc_error(
            "updates are not supported by this resolver",
        ))
    }
}

/// A simple in-memory URI → document map, used by tests, the wrapper and as
/// the building block of the peer document store.
#[derive(Default)]
pub struct InMemoryDocs {
    /// Shared with every pinned snapshot: writers copy the map when one is
    /// out, so pinning costs a refcount bump whatever the store holds.
    docs: RwLock<Arc<HashMap<String, Arc<Document>>>>,
    /// Applied-transaction marks: highest log sequence number whose ∆ has
    /// been applied, per transaction key. Lives with the documents (not
    /// the WAL) because idempotent re-apply needs the mark to travel with
    /// exactly the state it describes across a restart.
    marks: RwLock<HashMap<String, u64>>,
    /// The bound of the last [`prune_applied_marks`](Self::prune_applied_marks).
    marks_pruned_below: AtomicU64,
}

impl InMemoryDocs {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&self, uri: impl Into<String>, doc: Document) {
        self.insert_arc(uri, Arc::new(doc));
    }

    pub fn insert_arc(&self, uri: impl Into<String>, doc: Arc<Document>) {
        Arc::make_mut(&mut self.docs.write()).insert(uri.into(), doc);
    }

    pub fn get(&self, uri: &str) -> Option<Arc<Document>> {
        self.docs.read().get(uri).cloned()
    }

    pub fn uris(&self) -> Vec<String> {
        self.docs.read().keys().cloned().collect()
    }

    /// A consistent snapshot of every document (repeatable-read isolation
    /// pins one of these per queryID; paper §2.2).
    pub fn snapshot(&self) -> Arc<HashMap<String, Arc<Document>>> {
        self.docs.read().clone()
    }

    /// The applied mark for `key`, if any: updates logged at-or-below it
    /// have already reached the documents.
    pub fn applied_mark(&self, key: &str) -> Option<u64> {
        self.marks.read().get(key).copied()
    }

    /// Raise the applied mark for `key` to `lsn` (monotonic: a lower or
    /// equal mark never overwrites a higher one).
    pub fn set_applied_mark(&self, key: &str, lsn: u64) {
        let mut marks = self.marks.write();
        let slot = marks.entry(key.to_string()).or_insert(0);
        *slot = (*slot).max(lsn);
    }

    /// Forget every mark below `lsn`: the log can no longer replay the
    /// update it guarded. A repeated bound returns at once, so the caller
    /// may pass the log's current floor after every commit.
    pub fn prune_applied_marks(&self, lsn: u64) {
        if self.marks_pruned_below.swap(lsn, Ordering::Relaxed) != lsn {
            self.marks.write().retain(|_, mark| *mark >= lsn);
        }
    }

    /// How many applied marks the store holds.
    pub fn applied_marks(&self) -> usize {
        self.marks.read().len()
    }
}

impl DocResolver for InMemoryDocs {
    fn resolve(&self, uri: &str) -> XdmResult<Arc<Document>> {
        self.get(uri)
            .ok_or_else(|| XdmError::doc_error(format!("document not found: `{uri}`")))
    }

    fn put(&self, uri: &str, doc: Document) -> XdmResult<()> {
        self.insert(uri, doc);
        Ok(())
    }

    fn replace(&self, uri: &str, doc: Arc<Document>) -> XdmResult<()> {
        self.insert_arc(uri, doc);
        Ok(())
    }
}

/// Identifies the remote function of an `execute at` call: the module URI,
/// the location (at-)hint, the function local name and the arity — exactly
/// the fields of the `xrpc:request` element (paper §2.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunctionRef {
    pub module_ns: String,
    pub location_hint: Option<String>,
    pub local_name: String,
    pub arity: usize,
    /// True when the *caller* knows the function is updating (it may not;
    /// the callee decides authoritatively from its module definition).
    pub updating: bool,
}

/// Dispatches XRPC calls. One implementation lives in `xrpc-peer` (the SOAP
/// client); tests use in-process mocks.
///
/// `calls` carries one `Vec<Sequence>` of actual parameters *per call* —
/// passing several at once is exactly Bulk RPC (paper §3.2). The result has
/// one sequence per call, in call order.
pub trait RpcDispatcher: Send + Sync {
    fn dispatch(
        &self,
        dest: &str,
        func: &FunctionRef,
        calls: Vec<Vec<Sequence>>,
    ) -> XdmResult<Vec<Sequence>>;
}

/// Counters exposed to the benchmark harness.
#[derive(Default, Debug, Clone)]
pub struct EvalStats {
    pub functions_called: u64,
    pub rpc_dispatches: u64,
    pub rpc_calls: u64,
    /// Value indexes built, probed and evicted by this environment's
    /// queries (see `index.rs`; the indexes themselves belong to the
    /// documents and outlive it).
    pub join_index_builds: u64,
    pub join_index_probes: u64,
    pub join_index_evictions: u64,
}

/// Everything that outlives a single query evaluation.
pub struct Environment {
    pub docs: Arc<dyn DocResolver>,
    pub dispatcher: Option<Arc<dyn RpcDispatcher>>,
    pub modules: Arc<ModuleRegistry>,
    /// Answer predicate joins from the documents' value indexes (see
    /// `index.rs`). Always on in service; tests turn it off to get the
    /// plain scan as their oracle.
    pub join_index: bool,
    /// Opt-in distributed-optimizer behaviours in the loop-lifted engine:
    /// loop-invariant `execute at` hoisting and duplicate-call collapsing.
    /// Off by default so the wire traffic matches Figure 2 literally.
    pub rpc_optimize: bool,
    pub stats: Mutex<EvalStats>,
    /// [`EvalStats::functions_called`] as it is counted — once per call, so
    /// without taking the `stats` lock; [`stats`](Self::stats) reports it.
    pub functions_called: AtomicU64,
    /// Function-call recursion limit.
    pub max_depth: usize,
    /// Deadline/cancellation token for the query this environment serves,
    /// polled by the evaluator's loop and recursion sites. `None` (the
    /// default) means the query runs unchecked.
    pub cancel: Option<Arc<CancelToken>>,
    /// Per-operator profile collector for the query this environment
    /// serves (`xrpc:profile`). `None` (the default) means profiling is
    /// off and the instrumentation sites cost one branch.
    pub profile: Option<Arc<xrpc_obs::ProfileCollector>>,
}

impl Environment {
    pub fn new(docs: Arc<dyn DocResolver>) -> Self {
        Environment {
            docs,
            dispatcher: None,
            modules: Arc::new(ModuleRegistry::new()),
            join_index: true,
            rpc_optimize: false,
            stats: Mutex::new(EvalStats::default()),
            functions_called: AtomicU64::new(0),
            max_depth: 128,
            cancel: None,
            profile: None,
        }
    }

    /// The evaluator's cooperative checkpoint: a no-op without a token.
    #[inline]
    pub fn check_cancel(&self) -> XdmResult<()> {
        match &self.cancel {
            Some(t) => t.check(),
            None => Ok(()),
        }
    }

    /// Open a profiled-operator guard, or `None` when profiling is off —
    /// the one-branch fast path every instrumented operator starts with.
    #[inline]
    pub fn profile_op(&self, name: &str) -> Option<xrpc_obs::profile::OpGuard> {
        self.profile.as_ref().map(|p| p.op(name))
    }

    pub fn with_modules(mut self, modules: Arc<ModuleRegistry>) -> Self {
        self.modules = modules;
        self
    }

    pub fn stats(&self) -> EvalStats {
        EvalStats {
            functions_called: self.functions_called.load(Ordering::Relaxed),
            ..self.stats.lock().clone()
        }
    }
}

/// Static context: in-scope namespaces and module imports.
#[derive(Clone, Debug, Default)]
pub struct StaticContext {
    /// prefix → namespace URI
    pub namespaces: HashMap<String, String>,
    pub default_element_ns: Option<String>,
    /// prefix → (module ns URI, at-hints)
    pub imports: HashMap<String, (String, Vec<String>)>,
    /// `declare option` values, `prefix:local` → value.
    pub options: HashMap<String, String>,
    /// Base URI for resolving relative `fn:doc` arguments (`declare
    /// base-uri`, or a peer-level default).
    pub base_uri: Option<String>,
    /// Default collation (`declare default collation`, or a peer-level
    /// default). Only the codepoint collation is implemented; the value
    /// participates in the plan-cache fingerprint regardless.
    pub default_collation: Option<String>,
}

impl StaticContext {
    /// Standard prefixes every query sees.
    pub fn with_defaults() -> Self {
        let mut ns = HashMap::new();
        ns.insert("xs".to_string(), xmldom::qname::NS_XS.to_string());
        ns.insert("xsi".to_string(), xmldom::qname::NS_XSI.to_string());
        ns.insert(
            "fn".to_string(),
            "http://www.w3.org/2005/xpath-functions".to_string(),
        );
        ns.insert("xrpc".to_string(), xmldom::qname::NS_XRPC.to_string());
        ns.insert(
            "local".to_string(),
            "http://www.w3.org/2005/xquery-local-functions".to_string(),
        );
        ns.insert("env".to_string(), xmldom::qname::NS_SOAP_ENV.to_string());
        StaticContext {
            namespaces: ns,
            ..Default::default()
        }
    }

    /// Build from a parsed prolog.
    pub fn from_prolog(prolog: &xqast::Prolog) -> Self {
        let mut sc = Self::with_defaults();
        for (p, u) in &prolog.namespaces {
            sc.namespaces.insert(p.clone(), u.clone());
        }
        sc.default_element_ns = prolog.default_element_ns.clone();
        for imp in &prolog.module_imports {
            sc.namespaces.insert(imp.prefix.clone(), imp.ns_uri.clone());
            sc.imports.insert(
                imp.prefix.clone(),
                (imp.ns_uri.clone(), imp.at_hints.clone()),
            );
        }
        for (name, value) in &prolog.options {
            sc.options.insert(name.lexical(), value.clone());
        }
        sc.base_uri = prolog.base_uri.clone();
        sc.default_collation = prolog.default_collation.clone();
        sc
    }

    pub fn resolve_prefix(&self, prefix: &str) -> Option<&str> {
        self.namespaces.get(prefix).map(|s| s.as_str())
    }

    /// Resolve a (possibly relative) document URI against the in-scope
    /// base URI. Absolute URIs — a scheme prefix or a rooted path — and
    /// contexts without a base URI pass through unchanged.
    pub fn resolve_doc_uri(&self, uri: &str) -> String {
        let Some(base) = &self.base_uri else {
            return uri.to_string();
        };
        if uri.contains("://") || uri.starts_with('/') || uri.is_empty() {
            return uri.to_string();
        }
        if base.ends_with('/') {
            format!("{base}{uri}")
        } else {
            format!("{base}/{uri}")
        }
    }

    /// A stable fingerprint of everything in this static context that
    /// affects what a compiled plan means: in-scope namespaces, default
    /// element namespace, module imports, base URI and default collation.
    /// Combined with the module-registry generation it forms the
    /// static-context half of a plan-cache key — two queries with the
    /// same text but different static contexts never share a plan.
    pub fn fingerprint(&self) -> u64 {
        let mut h = xrpc_obs::fnv1a64(b"");
        // a NUL after every field keeps concatenation boundaries
        // distinguishable
        let mut feed = |tag: &str, s: &str| {
            for bytes in [tag.as_bytes(), &[0], s.as_bytes(), &[0]] {
                h = xrpc_obs::fnv1a64_continue(h, bytes);
            }
        };
        let mut ns: Vec<_> = self.namespaces.iter().collect();
        ns.sort();
        for (p, u) in ns {
            feed("ns", p);
            feed("=", u);
        }
        feed("defelem", self.default_element_ns.as_deref().unwrap_or(""));
        let mut imports: Vec<_> = self.imports.iter().collect();
        imports.sort();
        for (p, (u, hints)) in imports {
            feed("import", p);
            feed("=", u);
            for hint in hints {
                feed("at", hint);
            }
        }
        feed("base-uri", self.base_uri.as_deref().unwrap_or(""));
        feed("collation", self.default_collation.as_deref().unwrap_or(""));
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldom::parse;

    #[test]
    fn in_memory_docs_roundtrip() {
        let docs = InMemoryDocs::new();
        docs.insert("a.xml", parse("<a/>").unwrap());
        assert!(docs.resolve("a.xml").is_ok());
        assert_eq!(docs.resolve("b.xml").unwrap_err().code, "FODC0002");
        docs.put("b.xml", parse("<b/>").unwrap()).unwrap();
        assert!(docs.resolve("b.xml").is_ok());
    }

    #[test]
    fn snapshot_is_immutable() {
        let docs = InMemoryDocs::new();
        docs.insert("a.xml", parse("<a/>").unwrap());
        let snap = docs.snapshot();
        docs.insert("a.xml", parse("<changed/>").unwrap());
        // snapshot still sees the old version
        let old = snap.get("a.xml").unwrap();
        let root = old.first_child(old.root()).unwrap();
        assert_eq!(old.node(root).name.as_ref().unwrap().local, "a");
    }

    #[test]
    fn cancel_token_deadline_and_flags() {
        use std::time::Duration;
        // no deadline: never fails on its own
        let t = CancelToken::new(None);
        for _ in 0..64 {
            t.check().unwrap();
        }
        assert_eq!(t.remaining_millis(), None);
        // explicit cancel → XRPC0005 on the next poll
        t.cancel();
        assert_eq!(t.check().unwrap_err().code, "XRPC0005");

        // expired deadline → XRPC0004 (poll 0 reads the clock)
        let t = CancelToken::new(Some(Instant::now() - Duration::from_millis(1)));
        assert!(t.expired());
        assert_eq!(t.check().unwrap_err().code, "XRPC0004");
        assert_eq!(t.remaining_millis(), Some(0));

        // a live deadline passes checks and reports a shrinking budget
        let t = CancelToken::new(Some(Instant::now() + Duration::from_secs(60)));
        t.check().unwrap();
        let r = t.remaining_millis().unwrap();
        assert!(r > 55_000 && r <= 60_000, "remaining {r}ms");

        // external flag bridges in as cancellation
        let flag = Arc::new(AtomicBool::new(false));
        let t = CancelToken::with_external(None, flag.clone());
        t.check().unwrap();
        flag.store(true, Ordering::Relaxed);
        assert!(t.is_cancelled());
        assert_eq!(t.check().unwrap_err().code, "XRPC0005");
    }

    #[test]
    fn environment_checkpoint_is_noop_without_token() {
        let env = Environment::new(Arc::new(InMemoryDocs::new()));
        env.check_cancel().unwrap();
        let mut env = Environment::new(Arc::new(InMemoryDocs::new()));
        let tok = CancelToken::new(None);
        tok.cancel();
        env.cancel = Some(tok);
        assert_eq!(env.check_cancel().unwrap_err().code, "XRPC0005");
    }

    #[test]
    fn static_context_from_prolog() {
        let m = xqast::parse_main_module(
            r#"declare namespace foo = "urn:foo";
               import module namespace f = "films" at "http://x/film.xq";
               declare option xrpc:isolation "repeatable";
               1"#,
        )
        .unwrap();
        let sc = StaticContext::from_prolog(&m.prolog);
        assert_eq!(sc.resolve_prefix("foo"), Some("urn:foo"));
        assert_eq!(sc.resolve_prefix("f"), Some("films"));
        assert_eq!(sc.imports["f"].1[0], "http://x/film.xq");
        assert_eq!(sc.options["xrpc:isolation"], "repeatable");
        // defaults still present
        assert_eq!(sc.resolve_prefix("xs"), Some(xmldom::qname::NS_XS));
    }

    /// Known answers (computed outside the workspace): a plan-cache key is
    /// FNV-1a over the NUL-terminated fields, in sorted map order.
    #[test]
    fn fingerprint_known_answers() {
        assert_eq!(
            StaticContext::default().fingerprint(),
            0xeb5b_e9b2_6a7f_a224
        );
        let mut sc = StaticContext::default();
        sc.namespaces.insert("a".into(), "urn:a".into());
        sc.imports
            .insert("m".into(), ("urn:m".into(), vec!["http://x/m.xq".into()]));
        sc.base_uri = Some("http://b/".into());
        assert_eq!(sc.fingerprint(), 0xc456_f1de_1418_5a79);
    }
}
