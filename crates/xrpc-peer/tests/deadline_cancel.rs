//! Deadline propagation and cooperative cancellation, end to end:
//! `xrpc:timeout` becomes a budget carried in the SOAP envelope,
//! decremented at every hop, enforced cooperatively inside the
//! evaluator, and reconciled with 2PC's point of no return.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xrpc_net::{NetProfile, SimNetwork, SoapHandler};
use xrpc_peer::{EngineKind, FsyncPolicy, Peer};

const TEST_MODULE: &str = r#"
    module namespace t = "test";
    declare function t:get() { string(doc("state.xml")/v) };
    declare updating function t:set($x as xs:string)
    { replace value of node doc("state.xml")/v with $x };
"#;

/// A pure spin: the where clause never holds, so nothing accumulates and
/// the loop body is all checkpoint-visible iteration.
const SPIN: &str = r#"count(for $i in (1 to 1000000)
                            for $j in (1 to 1000000)
                            where $i + $j lt 0 return 1)"#;

static RUN_ID: AtomicU64 = AtomicU64::new(0);

fn wal_path(tag: &str) -> std::path::PathBuf {
    let run = RUN_ID.fetch_add(1, Relaxed);
    std::env::temp_dir().join(format!(
        "xrpc-deadline-{}-{tag}-{run}.wal",
        std::process::id()
    ))
}

// ---------------------------------------------------------------------
// xrpc:timeout parsing: 0 = explicitly no deadline, junk is rejected
// ---------------------------------------------------------------------

#[test]
fn timeout_zero_means_no_deadline() {
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let a = Peer::new("xrpc://a", EngineKind::Tree);
    let b = Peer::new("xrpc://b", EngineKind::Tree);
    for p in [&a, &b] {
        p.register_module(TEST_MODULE).unwrap();
        p.set_transport(net.clone());
    }
    b.add_document("state.xml", "<v>initial</v>").unwrap();
    net.register("xrpc://b", b.soap_handler());

    // an isolated (snapshot-pinning) query with timeout 0 still works:
    // the execution budget is unlimited, while the snapshot window falls
    // back to a generous default instead of the instantly-expired 0.
    let out = a
        .execute_detailed(
            r#"declare option xrpc:timeout "0";
               declare option xrpc:isolation "repeatable";
               import module namespace t = "test";
               execute at {"xrpc://b"} {t:get()}"#,
        )
        .unwrap();
    assert_eq!(out.result.items()[0].string_value(), "initial");
}

#[test]
fn malformed_timeout_values_are_typed_errors() {
    let p = Peer::new("xrpc://solo", EngineKind::Tree);
    for bad in ["abc", "1.5", "-3", ""] {
        let err = p
            .execute(&format!("declare option xrpc:timeout \"{bad}\"; 1"))
            .unwrap_err();
        assert_eq!(err.code, "XRPC0001", "{bad}: {err}");
        assert!(err.message.contains("xrpc:timeout"), "{bad}: {err}");
    }
    // beyond u32 seconds: rejected, not silently clamped
    let err = p
        .execute("declare option xrpc:timeout \"99999999999\"; 1")
        .unwrap_err();
    assert_eq!(err.code, "XRPC0001");
    assert!(err.message.contains("exceeds"), "{err}");
}

// ---------------------------------------------------------------------
// Cooperative enforcement in the evaluator
// ---------------------------------------------------------------------

#[test]
fn spinning_query_hits_deadline_while_peer_keeps_serving() {
    let p = Peer::new("xrpc://solo", EngineKind::Tree);
    let spinner = {
        let p = p.clone();
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let err = p
                .execute(&format!("declare option xrpc:timeout \"1\";\n{SPIN}"))
                .unwrap_err();
            (err, t0.elapsed())
        })
    };
    // while one worker burns its budget, the peer keeps answering
    std::thread::sleep(Duration::from_millis(200));
    for _ in 0..5 {
        let r = p.execute("1 + 1").unwrap();
        assert_eq!(r.items()[0].string_value(), "2");
    }
    let (err, elapsed) = spinner.join().unwrap();
    assert_eq!(err.code, "XRPC0004", "{err}");
    assert!(
        elapsed >= Duration::from_millis(900),
        "cancelled before the deadline: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "cancellation latency way over budget: {elapsed:?}"
    );
}

#[test]
fn rel_engine_spinning_query_hits_deadline() {
    let p = Peer::new("xrpc://solo", EngineKind::Rel);
    let t0 = Instant::now();
    let err = p
        .execute(&format!("declare option xrpc:timeout \"1\";\n{SPIN}"))
        .unwrap_err();
    assert_eq!(err.code, "XRPC0004", "{err}");
    assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
}

/// A budget that dies mid-evaluation of a request served by the reactor
/// is the evaluator's deadline, XRPC0004, like the same budget anywhere
/// else: the reactor cancels a job only when its connection dies
/// (XRPC0005), never for its deadline. Each iteration of the spin is one
/// long checkpoint-free block (a general comparison of two ranges), so
/// the deadline passes inside a block, where a reactor that also watched
/// deadlines would see it before the evaluator does.
#[test]
fn budget_dying_mid_evaluation_over_http_is_a_deadline_fault() {
    let b = Peer::new("xrpc://b", EngineKind::Tree);
    b.register_module(
        r#"module namespace s = "spin";
           declare function s:spin()
           { count(for $k in (1 to 1000) where (1 to 400) > (1000 to 1399) return $k) };"#,
    )
    .unwrap();
    let server = xrpc_net::HttpServer::bind("127.0.0.1:0", {
        let h = b.soap_handler();
        Arc::new(move |_path: &str, body: &[u8]| (200, h(body)))
    })
    .unwrap();
    let mut req = xrpc_proto::XrpcRequest::new("spin", "spin", 0);
    req.budget_millis = Some(100);
    req.push_call(vec![]);
    let t0 = Instant::now();
    let body = xrpc_net::http_post(&server.url(), req.to_xml().unwrap().as_bytes()).unwrap();
    let body = String::from_utf8(body).unwrap();
    assert!(body.contains("XRPC0004"), "{body}");
    assert!(!body.contains("XRPC0005"), "{body}");
    assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
}

// ---------------------------------------------------------------------
// Budget propagation across hops
// ---------------------------------------------------------------------

/// Wrap a peer's SOAP handler to record the `remainingMillis` budget of
/// every request it receives.
fn record_budget(h: SoapHandler, sink: Arc<Mutex<Vec<u64>>>) -> SoapHandler {
    Arc::new(move |bytes: &[u8]| {
        let s = std::str::from_utf8(bytes).unwrap();
        if let Some(pos) = s.find("remainingMillis=\"") {
            let rest = &s[pos + "remainingMillis=\"".len()..];
            let end = rest.find('"').unwrap();
            sink.lock().unwrap().push(rest[..end].parse().unwrap());
        }
        h(bytes)
    })
}

#[test]
fn budget_shrinks_strictly_across_three_nested_hops() {
    // a → b → c → d, each middle hop burning measurable local time: every
    // peer must see strictly less remaining budget than the one before.
    let net = Arc::new(SimNetwork::new(NetProfile::with_latency(
        Duration::from_millis(5),
    )));
    let chain = r#"
        module namespace ch = "chain";
        declare function ch:leaf() { "leaf" };
        declare function ch:mid2()
        { (count(for $i in (1 to 400000) where $i lt 0 return 1),
           execute at {"xrpc://d"} {ch:leaf()}) };
        declare function ch:mid1()
        { (count(for $i in (1 to 400000) where $i lt 0 return 1),
           execute at {"xrpc://c"} {ch:mid2()}) };
    "#;
    let a = Peer::new("xrpc://a", EngineKind::Tree);
    let budgets = Arc::new(Mutex::new(Vec::new()));
    a.register_module(chain).unwrap();
    a.set_transport(net.clone());
    for name in ["xrpc://b", "xrpc://c", "xrpc://d"] {
        let p = Peer::new(name, EngineKind::Tree);
        p.register_module(chain).unwrap();
        p.set_transport(net.clone());
        net.register(name, record_budget(p.soap_handler(), budgets.clone()));
    }

    let res = a
        .execute(
            r#"declare option xrpc:timeout "30";
               import module namespace ch = "chain";
               execute at {"xrpc://b"} {ch:mid1()}"#,
        )
        .unwrap();
    assert_eq!(res.items().last().unwrap().string_value(), "leaf");

    let seen = budgets.lock().unwrap().clone();
    assert_eq!(
        seen.len(),
        3,
        "three hops must each carry a budget: {seen:?}"
    );
    assert!(
        seen[0] > seen[1] && seen[1] > seen[2],
        "remaining budget must strictly shrink along the chain: {seen:?}"
    );
    assert!(seen[0] <= 30_000, "{seen:?}");
}

#[test]
fn exhausted_budget_rejected_on_arrival_without_evaluation() {
    let b = Peer::new("xrpc://b", EngineKind::Tree);
    b.register_module(TEST_MODULE).unwrap();
    b.add_document("state.xml", "<v>initial</v>").unwrap();

    let mut req = xrpc_proto::XrpcRequest::new("test", "get", 0);
    req.budget_millis = Some(0);
    req.push_call(vec![]);
    let r = String::from_utf8(b.handle_soap(req.to_xml().unwrap().as_bytes())).unwrap();
    assert!(r.contains("XRPC0004"), "{r}");
    // rejected before any evaluation work: the function was never prepared
    assert_eq!(b.stats.functions_prepared.load(Relaxed), 0);

    // same request with room to spare goes through
    req.budget_millis = Some(60_000);
    let r = String::from_utf8(b.handle_soap(req.to_xml().unwrap().as_bytes())).unwrap();
    assert!(r.contains("initial"), "{r}");
}

// ---------------------------------------------------------------------
// Cancel control message and the 2PC point of no return
// ---------------------------------------------------------------------

fn control(method: &str, qid: &xrpc_proto::QueryId) -> Vec<u8> {
    let mut req = xrpc_proto::XrpcRequest::new(xrpc_peer::twopc::WSAT_MODULE, method, 0)
        .with_query_id(qid.clone());
    req.push_call(vec![]);
    req.to_xml().unwrap().into_bytes()
}

fn deferred_set(qid: &xrpc_proto::QueryId, value: &str) -> Vec<u8> {
    let mut req = xrpc_proto::XrpcRequest::new("test", "set", 1).with_query_id(qid.clone());
    req.upd_call = xrpc_proto::UpdCall::Deferred;
    req.push_call(vec![xdm::Sequence::one(xdm::Item::string(value))]);
    req.to_xml().unwrap().into_bytes()
}

#[test]
fn cancel_before_prepare_aborts_cleanly() {
    let b = Peer::new("xrpc://b", EngineKind::Tree);
    b.register_module(TEST_MODULE).unwrap();
    b.add_document("state.xml", "<v>initial</v>").unwrap();
    let path = wal_path("pre-prepare");
    b.attach_wal(&path, FsyncPolicy::Never).unwrap();

    let qid = xrpc_proto::QueryId::new("origin", 1111, 30);
    let r = String::from_utf8(b.handle_soap(&deferred_set(&qid, "doomed"))).unwrap();
    assert!(r.contains("response"), "{r}");
    assert_eq!(b.snapshots.active_count(), 1);

    // originator's budget ran out before Prepare: Cancel releases the
    // snapshot and drops the deferred ∆ — nothing was promised yet.
    let r = String::from_utf8(b.handle_soap(&control("Cancel", &qid))).unwrap();
    assert!(r.contains("response"), "{r}");
    assert_eq!(b.snapshots.active_count(), 0, "snapshot must be released");
    assert_eq!(b.twopc_metrics.cancels.load(Relaxed), 1);
    let v = b.docs.get("state.xml").unwrap();
    assert_eq!(v.string_value(v.root()), "initial", "∆ must not apply");
    // nothing prepared, nothing for recovery to resolve
    assert_eq!(b.wal().unwrap().open_transactions(), 0);

    // Cancel is idempotent: a duplicate is acknowledged, not an error
    let r = String::from_utf8(b.handle_soap(&control("Cancel", &qid))).unwrap();
    assert!(r.contains("response"), "{r}");

    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn cancel_after_promise_is_ignored_and_decision_settles() {
    let b = Peer::new("xrpc://b", EngineKind::Tree);
    b.register_module(TEST_MODULE).unwrap();
    b.add_document("state.xml", "<v>initial</v>").unwrap();
    let path = wal_path("post-promise");
    b.attach_wal(&path, FsyncPolicy::Never).unwrap();

    let qid = xrpc_proto::QueryId::new("origin", 2222, 30);
    let r = String::from_utf8(b.handle_soap(&deferred_set(&qid, "committed"))).unwrap();
    assert!(r.contains("response"), "{r}");

    // the participant promises: Prepared is WAL-forced
    let r = String::from_utf8(b.handle_soap(&control("Prepare", &qid))).unwrap();
    assert!(r.contains("response"), "{r}");
    assert_eq!(b.wal().unwrap().open_transactions(), 1);

    // past the point of no return: Cancel is acknowledged but must NOT
    // release the prepared ∆ — only the decision protocol settles it
    let r = String::from_utf8(b.handle_soap(&control("Cancel", &qid))).unwrap();
    assert!(r.contains("response"), "{r}");
    assert_eq!(
        b.snapshots.active_count(),
        1,
        "a prepared snapshot must survive Cancel"
    );
    assert_eq!(
        b.wal().unwrap().open_transactions(),
        1,
        "the WAL promise must stand"
    );

    // the decision arrives and the ∆ applies exactly as promised
    let r = String::from_utf8(b.handle_soap(&control("Commit", &qid))).unwrap();
    assert!(r.contains("response"), "{r}");
    let v = b.docs.get("state.xml").unwrap();
    assert_eq!(v.string_value(v.root()), "committed");
    assert_eq!(b.snapshots.active_count(), 0);
    assert_eq!(b.wal().unwrap().open_transactions(), 0, "decision logged");

    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn originator_deadline_mid_query_fans_out_cancel() {
    // The originator's own budget expires while remote ∆s are already
    // merged at a participant: the abort must fan a Cancel out so the
    // participant releases its snapshot instead of waiting out the
    // snapshot window.
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let a = Peer::new("xrpc://a", EngineKind::Tree);
    let b = Peer::new("xrpc://b", EngineKind::Tree);
    for p in [&a, &b] {
        p.register_module(TEST_MODULE).unwrap();
        p.set_transport(net.clone());
    }
    b.add_document("state.xml", "<v>initial</v>").unwrap();
    net.register("xrpc://b", b.soap_handler());

    let err = a
        .execute(&format!(
            r#"declare option xrpc:isolation "repeatable";
               declare option xrpc:timeout "1";
               import module namespace t = "test";
               (execute at {{"xrpc://b"}} {{t:set("doomed")}}, {SPIN})"#
        ))
        .unwrap_err();
    assert_eq!(err.code, "XRPC0004", "{err}");

    // the Cancel reached b: snapshot released, ∆ dropped, never applied
    assert_eq!(b.twopc_metrics.cancels.load(Relaxed), 1);
    assert_eq!(b.snapshots.active_count(), 0);
    let v = b.docs.get("state.xml").unwrap();
    assert_eq!(v.string_value(v.root()), "initial");
}
