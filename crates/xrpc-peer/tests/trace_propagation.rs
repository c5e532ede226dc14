//! End-to-end distributed tracing tests: a three-peer chain
//! (originator → a → b via nested `execute at`) must yield ONE coherent
//! trace — a single trace id on every span at every peer, with
//! parent/child links crossing the wire through the SOAP envelope's
//! `<xrpc:trace/>` header — and injected faults must surface as typed
//! `net_error` tags on the client call span.

use std::sync::Arc;
use std::time::Duration;
use xrpc_net::{BreakerConfig, NetProfile, RetryPolicy, SimFault, SimNetwork};
use xrpc_obs::FinishedSpan;
use xrpc_peer::{EngineKind, Peer};

const O_URI: &str = "xrpc://origin.example.org";
const A_URI: &str = "xrpc://a.example.org";
const B_URI: &str = "xrpc://b.example.org";

const TRACE_MODULE: &str = r#"
    module namespace t = "test";
    declare function t:ping() { "pong" };
    declare updating function t:addEntry($x as xs:string)
    { insert node <e>{$x}</e> into doc("log.xml")/log };
    declare updating function t:addCascade($x as xs:string)
    { execute at {"xrpc://b.example.org"} {t:addEntry($x)} };
"#;

struct Cluster {
    net: Arc<SimNetwork>,
    o: Arc<Peer>,
    a: Arc<Peer>,
    b: Arc<Peer>,
}

fn fast_policy(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        call_deadline: Duration::from_secs(5),
        jitter_seed: 42,
    }
}

fn cluster(max_attempts: u32) -> Cluster {
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let o = Peer::new(O_URI, EngineKind::Tree);
    let a = Peer::new(A_URI, EngineKind::Tree);
    let b = Peer::new(B_URI, EngineKind::Tree);
    for p in [&o, &a, &b] {
        p.register_module(TRACE_MODULE).unwrap();
        p.set_transport_with(
            net.clone(),
            fast_policy(max_attempts),
            BreakerConfig::default(),
        );
    }
    for p in [&a, &b] {
        p.add_document("log.xml", "<log/>").unwrap();
    }
    net.register(A_URI, a.soap_handler());
    net.register(B_URI, b.soap_handler());
    Cluster { net, o, a, b }
}

fn span_named<'s>(spans: &'s [FinishedSpan], name: &str) -> &'s FinishedSpan {
    spans
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("expected a `{name}` span in {spans:#?}"))
}

/// Walk `child`'s parent links (within one peer's spans) and check they
/// reach `ancestor` — intermediate spans (e.g. `xqeval:evaluate`) may
/// sit between a client call and the request root.
fn descends_from(spans: &[FinishedSpan], child: &FinishedSpan, ancestor: u64) -> bool {
    let mut cur = child.parent_id;
    for _ in 0..spans.len() + 1 {
        match cur {
            None => return false,
            Some(p) if p == ancestor => return true,
            Some(p) => {
                cur = spans
                    .iter()
                    .find(|s| s.span_id == p)
                    .and_then(|s| s.parent_id)
            }
        }
    }
    false
}

/// Originator → a → b through a nested updating `execute at`: every span
/// at every peer carries the originator's trace id, and the parent/child
/// chain is unbroken across both wire hops.
#[test]
fn nested_execute_chain_shares_one_trace() {
    let cl = cluster(2);
    cl.o.execute(
        r#"declare option xrpc:isolation "repeatable";
           import module namespace t = "test";
           execute at {"xrpc://a.example.org"} {t:addCascade("x")}"#,
    )
    .unwrap();

    let o_spans = cl.o.obs.tracer.finished();
    let root = span_named(&o_spans, "execute");
    let trace = root.trace_id;
    assert!(root.parent_id.is_none(), "execute is the trace root");

    // every span every peer recorded for this call belongs to one trace
    for (who, tracer) in [
        ("originator", &cl.o.obs.tracer),
        ("a", &cl.a.obs.tracer),
        ("b", &cl.b.obs.tracer),
    ] {
        let spans = tracer.finished();
        assert!(!spans.is_empty(), "{who} recorded no spans");
        for s in &spans {
            assert_eq!(
                s.trace_id, trace,
                "{who} span `{}` escaped the trace: {s:#?}",
                s.name
            );
        }
    }

    // hop 1: originator's client call is a child of its execute root,
    // and a's server span is a child of that client call (the context
    // crossed the wire in the envelope header)
    let o_call = o_spans
        .iter()
        .find(|s| s.name == "client:call" && s.tag("dest") == Some(A_URI))
        .expect("originator client:call to a");
    assert!(
        descends_from(&o_spans, o_call, root.span_id),
        "client:call must descend from the execute root"
    );

    let a_spans = cl.a.obs.tracer.finished();
    let a_handle = a_spans
        .iter()
        .find(|s| s.name == "server:handle" && s.tag("method") == Some("addCascade"))
        .expect("a's server:handle for the cascade call");
    assert_eq!(
        a_handle.parent_id,
        Some(o_call.span_id),
        "server span must be parented to the remote client span"
    );

    // hop 2: a's nested client call (child of its server span) parents
    // b's server span
    let a_call = a_spans
        .iter()
        .find(|s| s.name == "client:call" && s.tag("dest") == Some(B_URI))
        .expect("a's nested client:call to b");
    assert!(
        descends_from(&a_spans, a_call, a_handle.span_id),
        "nested client:call must descend from a's server span"
    );

    let b_spans = cl.b.obs.tracer.finished();
    let b_handle = b_spans
        .iter()
        .find(|s| s.name == "server:handle" && s.tag("method") == Some("addEntry"))
        .expect("b's server:handle for the leaf call");
    assert_eq!(b_handle.parent_id, Some(a_call.span_id));

    // the engine's evaluation span (full-query path at the originator)
    // joins the same trace, nested under the execute root
    let o_eval = span_named(&o_spans, "xqeval:evaluate");
    assert_eq!(o_eval.trace_id, trace);
    assert_eq!(o_eval.parent_id, Some(root.span_id));

    // the 2PC epilogue joined the same trace: both participants ran
    // prepare under the originator's trace id, and b — the writer; a's ∆
    // is empty, it voted read-only and heard nothing more — commit
    for spans in [&a_spans, &b_spans] {
        assert_eq!(span_named(spans, "2pc:prepare").trace_id, trace);
    }
    assert_eq!(span_named(&b_spans, "2pc:commit").trace_id, trace);
    assert!(a_spans.iter().all(|s| s.name != "2pc:commit"));
    assert_eq!(span_named(&o_spans, "2pc:prepare-phase").trace_id, trace);
    assert_eq!(span_named(&o_spans, "2pc:decision-phase").trace_id, trace);
}

/// A dropped request (with a one-attempt policy, so the transport cannot
/// absorb it) must tag the client call span with the *typed* error kind
/// the transport classified — not a stringly wrapped mess.
#[test]
fn dropped_request_tags_typed_net_error() {
    let cl = cluster(1);
    cl.net.inject_fault(A_URI, SimFault::DropRequest);
    let err =
        cl.o.execute(
            r#"import module namespace t = "test";
               execute at {"xrpc://a.example.org"} {t:ping()}"#,
        )
        .unwrap_err();
    assert!(err.message.contains("failed"), "{err}");

    let spans = cl.o.obs.tracer.finished();
    let call = spans
        .iter()
        .find(|s| s.name == "client:call")
        .expect("client:call span recorded despite the failure");
    assert_eq!(
        call.tag("net_error"),
        Some("Timeout"),
        "a dropped request classifies as a timeout: {call:#?}"
    );
    assert_eq!(call.tag("dest"), Some(A_URI));
}

/// Latency histograms fill as a side effect of the instrumented call
/// path — the client side records call latency (total and per-dest) and
/// message bytes; the server side records handling time and batch size.
#[test]
fn call_path_fills_latency_histograms() {
    let cl = cluster(2);
    for _ in 0..5 {
        cl.o.execute(
            r#"import module namespace t = "test";
               execute at {"xrpc://a.example.org"} {t:ping()}"#,
        )
        .unwrap();
    }
    let lat = cl.o.obs.histogram("xrpc_call_latency_micros").snapshot();
    assert_eq!(lat.count, 5);
    assert!(lat.p99 >= lat.p50);
    let by_dest =
        cl.o.obs
            .histogram_vec("xrpc_call_latency_by_dest_micros", "dest")
            .with_label(A_URI)
            .snapshot();
    assert_eq!(by_dest.count, 5);
    assert!(
        cl.o.obs.histogram("xrpc_message_bytes").snapshot().count >= 5,
        "outgoing message sizes recorded"
    );
    let handle = cl.a.obs.histogram("xrpc_server_handle_micros").snapshot();
    assert_eq!(handle.count, 5);
    let batch = cl.a.obs.histogram("xrpc_bulk_batch_calls").snapshot();
    assert_eq!(batch.count, 5);
    assert_eq!(batch.max, 1, "each request carried a single call");
}
