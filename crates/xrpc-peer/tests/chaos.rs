//! Deterministic chaos tests: peers joined by the simulated network with
//! scripted fault injection, verifying the resilience layer end to end —
//! exact retry accounting, circuit-breaker behaviour, and 2PC convergence
//! to a single outcome (never mixed, never double-applied) under lost
//! requests and lost responses.

use std::sync::Arc;
use std::time::Duration;
use xrpc_net::{
    BreakerConfig, BreakerState, NetProfile, ResilientTransport, RetryPolicy, SimFault, SimNetwork,
};
use xrpc_peer::{EngineKind, Peer};

const B_URI: &str = "xrpc://b.example.org";
const C_URI: &str = "xrpc://c.example.org";

const CHAOS_MODULE: &str = r#"
    module namespace t = "test";
    declare function t:ping() { "pong" };
    declare updating function t:addEntry($x as xs:string)
    { insert node <e>{$x}</e> into doc("log.xml")/log };
    declare updating function t:addCascade($x as xs:string)
    { execute at {"xrpc://c.example.org"} {t:addEntry($x)} };
"#;

struct Cluster {
    net: Arc<SimNetwork>,
    resilient: Arc<ResilientTransport>,
    a: Arc<Peer>,
    b: Arc<Peer>,
    c: Arc<Peer>,
}

fn cluster(policy: RetryPolicy, breaker: BreakerConfig) -> Cluster {
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let a = Peer::new("xrpc://a.example.org", EngineKind::Tree);
    let b = Peer::new(B_URI, EngineKind::Tree);
    let c = Peer::new(C_URI, EngineKind::Tree);
    for p in [&a, &b, &c] {
        p.register_module(CHAOS_MODULE).unwrap();
    }
    for p in [&b, &c] {
        p.add_document("log.xml", "<log/>").unwrap();
    }
    // install the resilient transport explicitly (rather than through
    // set_transport) so the tests can read its metrics and breaker state
    let resilient = ResilientTransport::with_policy(net.clone(), policy, breaker);
    a.set_transport_raw(resilient.clone());
    net.register(B_URI, b.soap_handler());
    net.register(C_URI, c.soap_handler());
    Cluster {
        net,
        resilient,
        a,
        b,
        c,
    }
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

/// Number of `<e>` entries in a peer's log document.
fn log_count(p: &Peer) -> usize {
    let doc = p.docs.get("log.xml").unwrap();
    let log = doc.first_child(doc.root()).unwrap();
    doc.children(log)
        .filter(|&n| doc.node(n).name.as_ref().is_some_and(|q| q.local == "e"))
        .count()
}

const UPDATE_BOTH: &str = r#"declare option xrpc:isolation "repeatable";
    import module namespace t = "test";
    (execute at {"xrpc://b.example.org"} {t:addEntry("x")},
     execute at {"xrpc://c.example.org"} {t:addEntry("x")})"#;

#[test]
fn transient_faults_absorbed_with_exact_retry_count() {
    let cl = cluster(fast_policy(4), BreakerConfig::default());
    // two lost requests, then the link heals: fewer faults than attempts
    cl.net.inject_fault(B_URI, SimFault::DropRequest);
    cl.net.inject_fault(B_URI, SimFault::DropRequest);
    let res =
        cl.a.execute(
            r#"import module namespace t = "test";
               execute at {"xrpc://b.example.org"} {t:ping()}"#,
        )
        .unwrap();
    assert_eq!(res.items()[0].string_value(), "pong");
    let s = cl.resilient.metrics.snapshot();
    assert_eq!(s.retries, 2, "exactly one retry per injected fault");
    assert_eq!(s.failures, 2);
    assert_eq!(s.timeouts, 2, "a dropped request surfaces as a timeout");
    assert_eq!(cl.resilient.breaker_state(B_URI), BreakerState::Closed);
}

#[test]
fn exhausted_retries_open_breaker_then_probe_restores() {
    let cl = cluster(
        fast_policy(2),
        BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(100),
        },
    );
    let q = r#"import module namespace t = "test";
               execute at {"xrpc://b.example.org"} {t:ping()}"#;
    // as many faults as attempts: the call fails and its two consecutive
    // failures trip the breaker
    cl.net.inject_fault(B_URI, SimFault::DropRequest);
    cl.net.inject_fault(B_URI, SimFault::DropRequest);
    assert!(cl.a.execute(q).is_err());
    assert_eq!(cl.resilient.breaker_state(B_URI), BreakerState::Open);
    assert_eq!(cl.resilient.metrics.snapshot().breaker_opens, 1);

    // while open: fail fast, nothing reaches the wire
    let wire_before = cl.net.metrics.snapshot();
    assert!(cl.a.execute(q).is_err());
    assert_eq!(
        cl.net.metrics.snapshot(),
        wire_before,
        "open breaker must not generate wire traffic"
    );
    assert_eq!(cl.resilient.metrics.snapshot().fast_failures, 1);

    // after the cooldown the half-open probe finds a healthy link and
    // closes the breaker again
    std::thread::sleep(Duration::from_millis(120));
    let res = cl.a.execute(q).unwrap();
    assert_eq!(res.items()[0].string_value(), "pong");
    assert_eq!(cl.resilient.breaker_state(B_URI), BreakerState::Closed);
}

#[test]
fn chaos_2pc_converges_single_outcome_no_double_apply() {
    // Drop the response of each message in the update conversation with
    // peer b in turn: the deferred update call (0), Prepare (1), Commit
    // (2). Every run must converge to a full commit with the update
    // applied exactly once on BOTH peers — never a mixed outcome.
    for drop_at in 0..3u32 {
        let cl = cluster(fast_policy(4), BreakerConfig::default());
        for _ in 0..drop_at {
            cl.net
                .inject_fault(B_URI, SimFault::LatencySpike(Duration::ZERO));
        }
        cl.net.inject_fault(B_URI, SimFault::DropResponse);
        let out =
            cl.a.execute_detailed(UPDATE_BOTH)
                .unwrap_or_else(|e| panic!("drop_at={drop_at}: {e}"));
        assert!(matches!(
            out.commit,
            Some(xrpc_peer::CommitOutcome::Committed { participants: 2 })
        ));
        assert_eq!(
            cl.net.pending_faults(B_URI),
            0,
            "drop_at={drop_at}: scripted fault was not consumed"
        );
        assert_eq!(
            log_count(&cl.b),
            1,
            "drop_at={drop_at}: update must apply exactly once at b"
        );
        assert_eq!(
            log_count(&cl.c),
            1,
            "drop_at={drop_at}: outcome must not be mixed"
        );
        assert_eq!(cl.b.snapshots.active_count(), 0);
        assert_eq!(cl.c.snapshots.active_count(), 0);
    }
}

#[test]
fn immediate_update_never_retried_on_ambiguous_failure() {
    // isolation "none" (rule RFu): the peer applies the update right after
    // the call, so a lost *response* is ambiguous and must NOT be retried
    // — the error surfaces, and the update exists exactly once.
    let cl = cluster(fast_policy(4), BreakerConfig::default());
    cl.net.inject_fault(B_URI, SimFault::DropResponse);
    let err =
        cl.a.execute(
            r#"import module namespace t = "test";
               execute at {"xrpc://b.example.org"} {t:addEntry("once")}"#,
        )
        .unwrap_err();
    assert_eq!(err.code, "XRPC0001");
    assert_eq!(cl.net.handled_count(B_URI), 1, "no redelivery");
    assert_eq!(
        log_count(&cl.b),
        1,
        "applied exactly once despite the lost ack"
    );
    assert_eq!(cl.resilient.metrics.snapshot().retries, 0);
}

#[test]
fn crashed_participant_fails_query_and_recovers_after_restart() {
    let cl = cluster(fast_policy(2), BreakerConfig::default());
    cl.net.crash(B_URI);
    let err = cl.a.execute(UPDATE_BOTH).unwrap_err();
    assert!(err.message.contains("is down"), "{err}");
    // atomicity: neither peer has a committed update after the failure
    assert_eq!(log_count(&cl.b), 0);
    assert_eq!(log_count(&cl.c), 0);

    cl.net.restart(B_URI);
    let out = cl.a.execute_detailed(UPDATE_BOTH).unwrap();
    assert!(matches!(
        out.commit,
        Some(xrpc_peer::CommitOutcome::Committed { participants: 2 })
    ));
    assert_eq!(log_count(&cl.b), 1);
    assert_eq!(log_count(&cl.c), 1);
}

#[test]
fn redelivered_deferred_update_is_merged_at_most_once() {
    // Protocol-level check of the at-most-once ∆ merge: byte-identical
    // redelivery (same seq) is deduped, a distinct dispatch with the same
    // arguments (different seq) is not.
    let cl = cluster(fast_policy(1), BreakerConfig::default());
    let qid = xrpc_proto::QueryId::new("origin", 4242, 30);
    let mut req = xrpc_proto::XrpcRequest::new("test", "addEntry", 1).with_query_id(qid.clone());
    req.upd_call = xrpc_proto::UpdCall::Deferred;
    req.seq = Some(7);
    req.push_call(vec![xdm::Sequence::one(xdm::Item::string("dup"))]);
    let xml = req.to_xml().unwrap();

    let r1 = String::from_utf8(cl.b.handle_soap(xml.as_bytes())).unwrap();
    assert!(r1.contains("response"), "{r1}");
    // redelivery: identical bytes → deduped, still answered OK
    let r2 = String::from_utf8(cl.b.handle_soap(xml.as_bytes())).unwrap();
    assert!(r2.contains("response"), "{r2}");
    // a genuinely new dispatch of the same call carries a new seq
    req.seq = Some(8);
    let xml2 = req.to_xml().unwrap();
    let r3 = String::from_utf8(cl.b.handle_soap(xml2.as_bytes())).unwrap();
    assert!(r3.contains("response"), "{r3}");

    // drive Prepare + Commit directly and count the applied entries
    let snap = cl.b.snapshots.get(&qid).unwrap();
    assert_eq!(
        snap.pul.lock().len(),
        2,
        "two distinct dispatches, one redelivery"
    );
    let mut ctrl = xrpc_proto::XrpcRequest::new(xrpc_peer::twopc::WSAT_MODULE, "Prepare", 0)
        .with_query_id(qid.clone());
    ctrl.push_call(vec![]);
    let _ = cl.b.handle_soap(ctrl.to_xml().unwrap().as_bytes());
    let mut commit = xrpc_proto::XrpcRequest::new(xrpc_peer::twopc::WSAT_MODULE, "Commit", 0)
        .with_query_id(qid.clone());
    commit.push_call(vec![]);
    let c1 = String::from_utf8(cl.b.handle_soap(commit.to_xml().unwrap().as_bytes())).unwrap();
    assert!(c1.contains("response"), "{c1}");
    assert_eq!(log_count(&cl.b), 2);
    // a redelivered Commit after the snapshot is gone is acknowledged and
    // does NOT re-apply
    let c2 = String::from_utf8(cl.b.handle_soap(commit.to_xml().unwrap().as_bytes())).unwrap();
    assert!(
        c2.contains("response"),
        "redelivered Commit must be acknowledged: {c2}"
    );
    assert_eq!(log_count(&cl.b), 2, "no double apply on Commit redelivery");
}

#[test]
fn failed_deferred_update_redelivery_is_not_masked_as_success() {
    // A deferred update whose *evaluation* faults must not be recorded as
    // merged: if the fault response is lost and the transport redelivers
    // the request, the peer must fault again — synthesizing a success
    // would let the originator commit a delta that never merged.
    let cl = cluster(fast_policy(1), BreakerConfig::default());
    let qid = xrpc_proto::QueryId::new("origin", 5555, 30);
    let mut req = xrpc_proto::XrpcRequest::new("test", "addEntry", 1).with_query_id(qid.clone());
    req.upd_call = xrpc_proto::UpdCall::Deferred;
    req.seq = Some(1);
    req.push_call(vec![xdm::Sequence::one(xdm::Item::string("x"))]);
    let xml = req.to_xml().unwrap();

    // peer a has no log.xml, so evaluating the insert faults
    let r1 = String::from_utf8(cl.a.handle_soap(xml.as_bytes())).unwrap();
    assert!(r1.contains("Fault"), "{r1}");
    // byte-identical redelivery: still a fault, never a synthesized success
    let r2 = String::from_utf8(cl.a.handle_soap(xml.as_bytes())).unwrap();
    assert!(r2.contains("Fault"), "{r2}");
    assert_eq!(
        cl.a.snapshots.get(&qid).unwrap().pul.lock().len(),
        0,
        "nothing must have merged"
    );
}

#[test]
fn replayed_deferred_update_carries_original_participants() {
    // A deferred update at b that cascades to c involves BOTH peers in the
    // 2PC participant set. When the response is lost and the request
    // redelivered, the replayed response must carry the original's full
    // peer set — resynthesizing it with only b would leave c's prepared
    // delta without a Commit.
    let cl = cluster(fast_policy(1), BreakerConfig::default());
    cl.b.set_transport_raw(cl.net.clone());
    let qid = xrpc_proto::QueryId::new("origin", 6666, 30);
    let mut req = xrpc_proto::XrpcRequest::new("test", "addCascade", 1).with_query_id(qid.clone());
    req.upd_call = xrpc_proto::UpdCall::Deferred;
    req.seq = Some(1);
    req.push_call(vec![xdm::Sequence::one(xdm::Item::string("deep"))]);
    let xml = req.to_xml().unwrap();

    let peers_of = |raw: Vec<u8>| -> Vec<String> {
        match xrpc_proto::parse_message(std::str::from_utf8(&raw).unwrap()).unwrap() {
            xrpc_proto::XrpcMessage::Response(r) => r.participating_peers,
            other => panic!("expected a response, got {other:?}"),
        }
    };
    let first = peers_of(cl.b.handle_soap(xml.as_bytes()));
    assert!(first.contains(&B_URI.to_string()), "{first:?}");
    assert!(first.contains(&C_URI.to_string()), "{first:?}");
    // byte-identical redelivery: deduped, but the peer set must match the
    // original response, nested participants included
    let replayed = peers_of(cl.b.handle_soap(xml.as_bytes()));
    assert_eq!(replayed, first);
    // and the cascade's delta merged at c exactly once
    assert_eq!(cl.c.snapshots.get(&qid).unwrap().pul.lock().len(), 1);
}
