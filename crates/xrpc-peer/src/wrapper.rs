//! The XRPC wrapper (paper §4, Figure 3): a SOAP service handler that lets
//! an XRPC-*incapable* XQuery engine service Bulk XRPC requests.
//!
//! The wrapper stores the incoming SOAP request in a temporary location,
//! **generates an XQuery query** that (a) iterates over every `xrpc:call`
//! in the stored message, (b) unmarshals the parameters with an `n2s`
//! written in *pure XQuery*, (c) applies the requested module function and
//! (d) marshals each result back with a pure-XQuery `s2n`, constructing the
//! whole SOAP response envelope by element construction. The foreign
//! engine (our tree-walking evaluator here) never learns about XRPC.
//!
//! Per-phase timings (compile / treebuild / exec) are recorded the same
//! way the paper instruments Saxon for Table 3.
//!
//! The generated query depends only on the request's *shape* — (module,
//! method, arity, location) — because the stored-message location is a
//! fixed name resolved per request through an overlay resolver. Repeated
//! shapes therefore hit a plan cache and skip generate + parse entirely;
//! hits are reported distinctly in [`WrapperPhases`] (a hit's compile
//! column stays ≈ 0 instead of being folded into the compile total).

use parking_lot::Mutex;
use relalg::PlanCache;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdm::{XdmError, XdmResult};
use xqeval::context::{DocResolver, Environment};
use xqeval::{CompiledMain, InMemoryDocs, ModuleRegistry};
use xrpc_proto::XrpcFault;

/// The fixed URI the generated query reads the stored request message
/// from. Every request resolves it to *its own* message through a
/// per-request overlay resolver, so one generated query text (and one
/// cached plan) serves every request of the same shape — the
/// parameterization that makes the wrapper path cacheable.
pub const REQUEST_URI: &str = "xrpc:wrapper-request.xml";

/// The cached plan's key: the request shape the generated query depends on.
pub type WrapperPlanKey = (String, String, usize, Option<String>);

/// Accumulated phase timings (the columns of Table 3).
#[derive(Default, Debug, Clone, Copy)]
pub struct WrapperPhases {
    pub requests: u64,
    pub treebuild: Duration,
    pub compile: Duration,
    pub exec: Duration,
    /// Requests whose generated query came from the plan cache. Their
    /// (near-zero) lookup time lands in `cache_lookup`, NOT in `compile`
    /// — a warm wrapper's compile column reads ≈ 0 honestly.
    pub cache_hits: u64,
    pub cache_lookup: Duration,
}

impl WrapperPhases {
    pub fn total(&self) -> Duration {
        self.treebuild + self.compile + self.exec + self.cache_lookup
    }
}

/// The wrapper in front of a plain XQuery engine.
pub struct XrpcWrapper {
    /// The wrapped engine's documents (its own database).
    pub docs: Arc<InMemoryDocs>,
    /// The wrapped engine's module registry (modules the generated query
    /// imports; usually fed by a [`crate::ModuleWeb`] loader).
    pub modules: Arc<ModuleRegistry>,
    /// Compiled generated queries by request shape. Disable
    /// ([`set_plan_cache`](Self::set_plan_cache)) for the paper-faithful
    /// generate-and-compile-per-request behavior.
    pub plan_cache: PlanCache<WrapperPlanKey, CompiledMain>,
    /// Optional client for remote `fn:doc("xrpc://…")` fetches — the plain
    /// engine's equivalent of URL-based document access (data shipping).
    remote_docs: parking_lot::RwLock<Option<Arc<crate::client::XrpcClient>>>,
    phases: Mutex<WrapperPhases>,
}

impl XrpcWrapper {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Toggle the generated-query plan cache (`false` = compile every
    /// request, the engine-tree fidelity mode).
    pub fn set_plan_cache(&self, on: bool) {
        self.plan_cache.set_enabled(on);
    }

    /// Let the wrapped engine resolve `xrpc://…` document URIs over the
    /// given transport (plain data shipping, the way Saxon's `fn:doc`
    /// fetches URLs in the paper's §5 experiments).
    pub fn enable_remote_docs(&self, transport: Arc<dyn xrpc_net::Transport>) {
        *self.remote_docs.write() = Some(Arc::new(crate::client::XrpcClient::new(transport)));
    }

    /// SOAP handler closure for transports.
    pub fn soap_handler(self: &Arc<Self>) -> xrpc_net::SoapHandler {
        let w = self.clone();
        Arc::new(move |body: &[u8]| w.handle(body))
    }

    /// Snapshot + reset the phase accumulators.
    pub fn take_phases(&self) -> WrapperPhases {
        std::mem::take(&mut *self.phases.lock())
    }

    pub fn phases(&self) -> WrapperPhases {
        *self.phases.lock()
    }

    /// Handle one SOAP XRPC request.
    pub fn handle(&self, body: &[u8]) -> Vec<u8> {
        match self.handle_inner(body) {
            Ok(xml) => xml.into_bytes(),
            Err(e) => XrpcFault::from_error(&e).to_xml().into_bytes(),
        }
    }

    fn handle_inner(&self, body: &[u8]) -> XdmResult<String> {
        let text = std::str::from_utf8(body).map_err(|_| XdmError::xrpc("request is not UTF-8"))?;

        // --- treebuild: parse the request message into the engine's store
        let t0 = Instant::now();
        let reqdoc =
            xmldom::parse(text).map_err(|e| XdmError::xrpc(format!("bad request: {e}")))?;
        let (req, module, method, arity, location) = request_attrs(&reqdoc)?;
        if module == crate::remote_docs::DOC_MODULE {
            // protocol-level document shipping is handled by the wrapper
            // framework itself, not by a generated query
            return self.serve_doc_fetch(&reqdoc, req, module, method);
        }
        let reqdoc = Arc::new(reqdoc);
        let treebuild = t0.elapsed();

        // --- compile: the cached plan for this request *shape*, or
        // generate + parse + compile on a miss. The request message itself
        // is not part of the plan: the generated query reads it from the
        // fixed [`REQUEST_URI`], resolved per request below.
        let t1 = Instant::now();
        let key = (module.clone(), method.clone(), arity, location.clone());
        let mut built = false;
        let plan = self.plan_cache.get_or_prepare(key, || {
            built = true;
            let query = generate_query(&module, &method, arity, location.as_deref(), REQUEST_URI);
            let parsed = xqast::parse_main_module(&query)?;
            Ok::<_, XdmError>(CompiledMain::compile(Arc::new(parsed)))
        })?;
        let compile = t1.elapsed();
        let hit = !built;

        // --- exec: run it on the wrapped engine and serialize
        let t2 = Instant::now();
        let base: Arc<dyn DocResolver> = match &*self.remote_docs.read() {
            Some(client) => {
                crate::remote_docs::RemoteDocResolver::new(self.docs.clone(), client.clone())
            }
            None => self.docs.clone(),
        };
        let resolver: Arc<dyn DocResolver> = Arc::new(RequestOverlay { doc: reqdoc, base });
        let env = Environment::new(resolver).with_modules(self.modules.clone());
        let (result, _) = xqeval::eval::evaluate_compiled(&plan, &env, Vec::new())?;
        let envelope = result
            .singleton()
            .map_err(|_| XdmError::xrpc("generated query did not produce one envelope"))?;
        let xdm::Item::Node(n) = envelope else {
            return Err(XdmError::xrpc("generated query produced a non-node"));
        };
        // the declaration and the envelope go into the one buffer sent
        let mut xml = String::with_capacity(64 + n.doc.subtree_wire_estimate(n.id));
        xml.push_str("<?xml version=\"1.0\" encoding=\"utf-8\"?>");
        xmldom::serialize_node_into(&n.doc, n.id, &Default::default(), &mut xml);
        let exec = t2.elapsed();

        let mut ph = self.phases.lock();
        ph.requests += 1;
        ph.treebuild += treebuild;
        if hit {
            ph.cache_hits += 1;
            ph.cache_lookup += compile;
        } else {
            ph.compile += compile;
        }
        ph.exec += exec;
        Ok(xml)
    }

    /// One document per `xrpc:call` of `req`, named by the call's parameter.
    fn serve_doc_fetch(
        &self,
        reqdoc: &xmldom::Document,
        req: xmldom::NodeId,
        module: String,
        method: String,
    ) -> XdmResult<String> {
        use xmldom::qname::NS_XRPC;
        let mut resp = xrpc_proto::XrpcResponse::new(module, method);
        for call in reqdoc.child_elements(req) {
            if !reqdoc.name(call).is_some_and(|n| n.is(NS_XRPC, "call")) {
                continue;
            }
            let path = reqdoc
                .child_element(call, NS_XRPC, "sequence")
                .map(|seq| xrpc_proto::n2s(reqdoc, seq))
                .transpose()?
                .and_then(|s| s.first().map(|i| i.string_value()))
                .ok_or_else(|| XdmError::xrpc("doc fetch without a path"))?;
            let doc = self
                .docs
                .get(&path)
                .ok_or_else(|| XdmError::doc_error(format!("no document `{path}`")))?;
            resp.results.push(xdm::Sequence::one(xdm::Item::Node(
                xmldom::NodeHandle::root(doc),
            )));
        }
        resp.to_xml()
    }
}

/// Resolves the fixed [`REQUEST_URI`] to this request's stored message;
/// everything else falls through to the wrapped engine's store. Replaces
/// the old per-request `/tmp/request{n}.xml` inserts (which also leaked
/// one document per request into the store).
struct RequestOverlay {
    doc: Arc<xmldom::Document>,
    base: Arc<dyn DocResolver>,
}

impl DocResolver for RequestOverlay {
    fn resolve(&self, uri: &str) -> XdmResult<Arc<xmldom::Document>> {
        if uri == REQUEST_URI {
            Ok(self.doc.clone())
        } else {
            self.base.resolve(uri)
        }
    }
}

/// Find the request element and pull module/method/arity/location off it without any
/// XRPC-specific machinery (plain DOM work, as a wrapper script would).
/// The generated query takes these as names, never as code: `method` must
/// be an NCName and every call must carry `arity` parameters (which bounds
/// it by the body); anything else is refused (XRPC0001, `env:Sender`).
fn request_attrs(
    doc: &xmldom::Document,
) -> XdmResult<(xmldom::NodeId, String, String, usize, Option<String>)> {
    use xmldom::qname::{NS_SOAP_ENV, NS_XRPC};
    let envelope = doc
        .child_elements(doc.root())
        .next()
        .ok_or_else(|| XdmError::xrpc("empty request"))?;
    let body = doc
        .child_element(envelope, NS_SOAP_ENV, "Body")
        .ok_or_else(|| XdmError::xrpc("missing Body"))?;
    let req = doc
        .child_element(body, NS_XRPC, "request")
        .ok_or_else(|| XdmError::xrpc("missing xrpc:request"))?;
    let module = doc
        .attr_local(req, "module")
        .ok_or_else(|| XdmError::xrpc("missing @module"))?
        .to_string();
    let method = doc
        .attr_local(req, "method")
        .ok_or_else(|| XdmError::xrpc("missing @method"))?
        .to_string();
    let arity: usize = doc
        .attr_local(req, "arity")
        .ok_or_else(|| XdmError::xrpc("missing @arity"))?
        .parse()
        .map_err(|_| XdmError::xrpc("bad @arity"))?;
    let location = doc.attr_local(req, "location").map(|s| s.to_string());
    let mut chars = method.chars();
    let name_char = |c: char| c.is_alphanumeric() || matches!(c, '_' | '-' | '.');
    if !(chars.next().is_some_and(|c| c.is_alphabetic() || c == '_') && chars.all(name_char))
        || method.ends_with(['-', '.'])
    {
        return Err(XdmError::xrpc("@method is not an NCName"));
    }
    let is = |id, local| doc.name(id).is_some_and(|n| n.is(NS_XRPC, local));
    let calls: Vec<usize> = (doc.child_elements(req).filter(|&c| is(c, "call")))
        .map(|c| doc.child_elements(c).filter(|&p| is(p, "sequence")).count())
        .collect();
    if calls.iter().any(|&n| n != arity) || (calls.is_empty() && arity != 0) {
        return Err(XdmError::xrpc(
            "@arity is not the number of parameters of every call",
        ));
    }
    Ok((req, module, method, arity, location))
}

/// `s` as an XQuery string literal.
fn literal(s: &str) -> String {
    format!("\"{}\"", s.replace('&', "&amp;").replace('"', "\"\""))
}

/// Generate the Figure-3 query: the import, the pure-XQuery `n2s`/`s2n`
/// helper functions, and the response construction loop.
pub fn generate_query(
    module: &str,
    method: &str,
    arity: usize,
    location: Option<&str>,
    req_uri: &str,
) -> String {
    let mut q = format!("import module namespace func = {}", literal(module));
    if let Some(loc) = location {
        q.push_str(&format!(" at {}", literal(loc)));
    }
    q.push_str(";\n");
    q.push_str(
        r#"declare namespace env = "http://www.w3.org/2003/05/soap-envelope";
declare namespace xrpc = "http://monetdb.cwi.nl/XQuery";
declare namespace xsi = "http://www.w3.org/2001/XMLSchema-instance";
declare namespace xs = "http://www.w3.org/2001/XMLSchema";

declare function local:atom($v as node()) as item() {
  let $t := string($v/@xsi:type)
  return if ($t = "xs:integer") then string($v) cast as xs:integer
    else if ($t = "xs:double") then string($v) cast as xs:double
    else if ($t = "xs:decimal") then string($v) cast as xs:decimal
    else if ($t = "xs:boolean") then string($v) cast as xs:boolean
    else if ($t = "xs:date") then string($v) cast as xs:date
    else if ($t = "xs:time") then string($v) cast as xs:time
    else if ($t = "xs:dateTime") then string($v) cast as xs:dateTime
    else if ($t = "xs:anyURI") then string($v) cast as xs:anyURI
    else if ($t = "xs:untypedAtomic") then string($v) cast as xs:untypedAtomic
    else string($v)
};

declare function local:n2s($s as node()) as item()* {
  for $v in $s/*
  return
    if (local-name($v) = "atomic-value") then local:atom($v)
    else if (local-name($v) = "element") then $v/*
    else if (local-name($v) = "document") then document { $v/node() }
    else if (local-name($v) = "text") then text { string($v) }
    else if (local-name($v) = "comment") then comment { string($v) }
    else if (local-name($v) = "pi") then $v/processing-instruction()
    else if (local-name($v) = "attribute") then $v/@*
    else ()
};

declare function local:s2n-item($i as item()) as node() {
  typeswitch ($i)
    case element() return <xrpc:element>{$i}</xrpc:element>
    case document-node() return <xrpc:document>{$i}</xrpc:document>
    case text() return <xrpc:text>{string($i)}</xrpc:text>
    case comment() return <xrpc:comment>{string($i)}</xrpc:comment>
    case processing-instruction() return <xrpc:pi>{$i}</xrpc:pi>
    case attribute() return <xrpc:attribute>{$i}</xrpc:attribute>
    case xs:integer return <xrpc:atomic-value xsi:type="xs:integer">{string($i)}</xrpc:atomic-value>
    case xs:boolean return <xrpc:atomic-value xsi:type="xs:boolean">{string($i)}</xrpc:atomic-value>
    case xs:decimal return <xrpc:atomic-value xsi:type="xs:decimal">{string($i)}</xrpc:atomic-value>
    case xs:double return <xrpc:atomic-value xsi:type="xs:double">{string($i)}</xrpc:atomic-value>
    case xs:date return <xrpc:atomic-value xsi:type="xs:date">{string($i)}</xrpc:atomic-value>
    case xs:dateTime return <xrpc:atomic-value xsi:type="xs:dateTime">{string($i)}</xrpc:atomic-value>
    default return <xrpc:atomic-value xsi:type="xs:string">{string($i)}</xrpc:atomic-value>
};

declare function local:s2n($items as item()*) as node() {
  <xrpc:sequence>{ for $i in $items return local:s2n-item($i) }</xrpc:sequence>
};

"#,
    );
    q.push_str(
        "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\"\n \
         xmlns:xrpc=\"http://monetdb.cwi.nl/XQuery\"\n \
         xmlns:xs=\"http://www.w3.org/2001/XMLSchema\"\n \
         xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\">\n<env:Body>\n",
    );
    // the response names what the stored request names
    let req = format!("doc(\"{req_uri}\")/*/env:Body/xrpc:request");
    q.push_str(&format!(
        "<xrpc:response>{{\n  {req}/@module, {req}/@method,\n"
    ));
    q.push_str(&format!("  for $call in doc(\"{req_uri}\")//xrpc:call\n"));
    let mut params = Vec::new();
    for i in 1..=arity {
        q.push_str(&format!(
            "  let $param{i} := local:n2s($call/xrpc:sequence[{i}])\n"
        ));
        params.push(format!("$param{i}"));
    }
    q.push_str(&format!(
        "  return local:s2n(func:{method}({}))\n",
        params.join(", ")
    ));
    q.push_str("}</xrpc:response>\n</env:Body>\n</env:Envelope>");
    q
}

impl Default for XrpcWrapper {
    fn default() -> Self {
        XrpcWrapper {
            docs: Arc::new(InMemoryDocs::new()),
            modules: Arc::new(ModuleRegistry::new()),
            plan_cache: PlanCache::new(true),
            remote_docs: parking_lot::RwLock::new(None),
            phases: Mutex::new(WrapperPhases::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdm::{Item, Sequence};
    use xrpc_proto::{parse_message, XrpcMessage, XrpcRequest};

    const FUNCTIONS_MODULE: &str = r#"
        module namespace func = "functions";
        declare function func:getPerson($doc as xs:string, $pid as xs:string) as node()?
        { zero-or-one(doc($doc)//person[@id = $pid]) };
        declare function func:echoVoid() { () };
        declare function func:add($a as xs:integer, $b as xs:integer) { $a + $b };
    "#;

    fn wrapper_with_people() -> Arc<XrpcWrapper> {
        let w = XrpcWrapper::new();
        w.modules.register_source(FUNCTIONS_MODULE).unwrap();
        w.docs.insert(
            "people.xml",
            xmldom::parse(
                r#"<site><person id="p0"><name>Ann</name></person>
                   <person id="p1"><name>Bob</name></person></site>"#,
            )
            .unwrap(),
        );
        w
    }

    fn call(w: &XrpcWrapper, req: &XrpcRequest) -> Vec<Sequence> {
        let out = w.handle(req.to_xml().unwrap().as_bytes());
        match parse_message(std::str::from_utf8(&out).unwrap()).unwrap() {
            XrpcMessage::Response(r) => r.results,
            XrpcMessage::Fault(f) => panic!("fault: {}", f.reason),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn get_person_via_generated_query() {
        let w = wrapper_with_people();
        let mut req = XrpcRequest::new("functions", "getPerson", 2);
        req.push_call(vec![
            Sequence::one(Item::string("people.xml")),
            Sequence::one(Item::string("p1")),
        ]);
        let results = call(&w, &req);
        assert_eq!(results.len(), 1);
        let node = results[0].items()[0].as_node().unwrap();
        assert!(node.to_xml().contains("<name>Bob</name>"));
        let ph = w.phases();
        assert_eq!(ph.requests, 1);
        assert!(ph.compile > Duration::ZERO);
    }

    #[test]
    fn bulk_request_answers_every_call() {
        let w = wrapper_with_people();
        let mut req = XrpcRequest::new("functions", "getPerson", 2);
        for pid in ["p0", "p1", "missing"] {
            req.push_call(vec![
                Sequence::one(Item::string("people.xml")),
                Sequence::one(Item::string(pid)),
            ]);
        }
        let results = call(&w, &req);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].len(), 1);
        assert_eq!(results[1].len(), 1);
        assert!(results[2].is_empty());
    }

    #[test]
    fn atomic_parameters_and_results() {
        let w = wrapper_with_people();
        let mut req = XrpcRequest::new("functions", "add", 2);
        req.push_call(vec![
            Sequence::one(Item::integer(40)),
            Sequence::one(Item::integer(2)),
        ]);
        let results = call(&w, &req);
        let v = results[0].items()[0].atomize();
        assert_eq!(v.lexical(), "42");
        assert_eq!(v.atomic_type(), xdm::AtomicType::Integer);
    }

    #[test]
    fn zero_arity_echo_void() {
        let w = wrapper_with_people();
        let mut req = XrpcRequest::new("functions", "echoVoid", 0);
        req.push_call(vec![]);
        let results = call(&w, &req);
        assert_eq!(results.len(), 1);
        assert!(results[0].is_empty());
    }

    #[test]
    fn unknown_module_yields_fault() {
        let w = XrpcWrapper::new();
        let mut req = XrpcRequest::new("nonexistent", "f", 0);
        req.push_call(vec![]);
        let out = w.handle(req.to_xml().unwrap().as_bytes());
        match parse_message(std::str::from_utf8(&out).unwrap()).unwrap() {
            XrpcMessage::Fault(f) => assert!(f.reason.contains("could not load module!")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn generated_query_text_matches_figure3_shape() {
        let q = generate_query(
            "functions",
            "getPerson",
            2,
            Some("http://example.org/functions.xq"),
            "/tmp/request0.xml",
        );
        assert!(q.contains(
            "import module namespace func = \"functions\" at \"http://example.org/functions.xq\";"
        ));
        assert!(q.contains("for $call in doc(\"/tmp/request0.xml\")//xrpc:call"));
        assert!(q.contains("let $param1 := local:n2s($call/xrpc:sequence[1])"));
        assert!(q.contains("let $param2 := local:n2s($call/xrpc:sequence[2])"));
        assert!(q.contains("local:s2n(func:getPerson($param1, $param2))"));
        assert!(q.contains(
            "<xrpc:response>{\n  doc(\"/tmp/request0.xml\")/*/env:Body/xrpc:request/@module,"
        ));
        // and it parses
        xqast::parse_main_module(&q).unwrap();
    }

    #[test]
    fn repeated_shape_hits_plan_cache_with_zero_compile() {
        use std::sync::atomic::Ordering;
        let w = wrapper_with_people();
        let mut req = XrpcRequest::new("functions", "getPerson", 2);
        req.push_call(vec![
            Sequence::one(Item::string("people.xml")),
            Sequence::one(Item::string("p0")),
        ]);
        call(&w, &req);
        let cold = w.phases();
        assert_eq!(cold.cache_hits, 0);
        assert!(cold.compile > Duration::ZERO);

        // same shape, different arguments → plan-cache hit
        let mut req2 = XrpcRequest::new("functions", "getPerson", 2);
        req2.push_call(vec![
            Sequence::one(Item::string("people.xml")),
            Sequence::one(Item::string("p1")),
        ]);
        let warm_results = call(&w, &req2);
        let warm = w.phases();
        assert_eq!(warm.cache_hits, 1);
        assert_eq!(
            warm.compile, cold.compile,
            "a hit must not be folded into the compile column"
        );
        assert_eq!(w.plan_cache.hits.load(Ordering::Relaxed), 1);
        let warm_xml = warm_results[0].items()[0].as_node().unwrap().to_xml();
        assert!(warm_xml.contains("<name>Bob</name>"));

        // fidelity mode: compile-every-request must give identical bytes
        w.set_plan_cache(false);
        let fidelity_results = call(&w, &req2);
        assert_eq!(
            fidelity_results[0].items()[0].as_node().unwrap().to_xml(),
            warm_xml
        );
        assert_eq!(w.phases().cache_hits, 1, "disabled cache never hits");
    }

    #[test]
    fn different_shapes_get_distinct_plans() {
        use std::sync::atomic::Ordering;
        let w = wrapper_with_people();
        let mut get = XrpcRequest::new("functions", "getPerson", 2);
        get.push_call(vec![
            Sequence::one(Item::string("people.xml")),
            Sequence::one(Item::string("p0")),
        ]);
        let mut add = XrpcRequest::new("functions", "add", 2);
        add.push_call(vec![
            Sequence::one(Item::integer(1)),
            Sequence::one(Item::integer(2)),
        ]);
        call(&w, &get);
        call(&w, &add);
        assert_eq!(w.plan_cache.len(), 2);
        assert_eq!(w.plan_cache.hits.load(Ordering::Relaxed), 0);
        // the store no longer leaks one request document per call
        assert!(w.docs.get(REQUEST_URI).is_none());
    }

    #[test]
    fn phase_timers_accumulate_and_reset() {
        let w = wrapper_with_people();
        let mut req = XrpcRequest::new("functions", "echoVoid", 0);
        req.push_call(vec![]);
        call(&w, &req);
        call(&w, &req);
        let ph = w.take_phases();
        assert_eq!(ph.requests, 2);
        assert!(ph.total() > Duration::ZERO);
        assert_eq!(w.phases().requests, 0);
    }
}
