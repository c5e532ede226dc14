//! End-to-end distributed tests: peers joined by the simulated network or
//! by real loopback HTTP, exercising the paper's queries, isolation levels
//! and distributed updates.

use std::sync::Arc;
use xdm::{Item, Sequence};
use xrpc_net::{http::HttpTransport, HttpServer, NetProfile, SimFault, SimNetwork};
use xrpc_peer::{EngineKind, ModuleWeb, Peer, XrpcWrapper};

const FILM_MODULE: &str = r#"
    module namespace film = "films";
    declare function film:filmsByActor($actor as xs:string) as node()*
    { doc("filmDB.xml")//name[../actor = $actor] };
"#;

const TEST_MODULE: &str = r#"
    module namespace t = "test";
    declare function t:echoVoid() { () };
    declare function t:get() { string(doc("state.xml")/v) };
    declare updating function t:set($x as xs:string)
    { replace value of node doc("state.xml")/v with $x };
    declare updating function t:renameRoot($n as xs:string)
    { rename node doc("state.xml")/v as $n };
    declare updating function t:attrBesideRoot()
    { insert node attribute a {"1"} before doc("state.xml")/v };
    declare function t:double($x as xs:integer) { $x * 2 };
    declare function t:toInt($x as xs:string) { $x cast as xs:integer };
"#;

const FILM_DB: &str = r#"<films>
<film><name>The Rock</name><actor>Sean Connery</actor></film>
<film><name>Goldfinger</name><actor>Sean Connery</actor></film>
<film><name>Green Card</name><actor>Gerard Depardieu</actor></film>
</films>"#;

fn serialize(seq: &Sequence) -> String {
    seq.iter()
        .map(|i| match i {
            Item::Node(n) => n.to_xml(),
            a => a.string_value(),
        })
        .collect::<Vec<_>>()
        .join("|")
}

/// Two peers on a simulated network; returns (net, local A, remote B).
fn sim_pair(engine_a: EngineKind) -> (Arc<SimNetwork>, Arc<Peer>, Arc<Peer>) {
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let a = Peer::new("xrpc://a.example.org", engine_a);
    let b = Peer::new("xrpc://b.example.org", EngineKind::Tree);
    for p in [&a, &b] {
        p.register_module(FILM_MODULE).unwrap();
        p.register_module(TEST_MODULE).unwrap();
        p.set_transport(net.clone());
    }
    b.add_document("filmDB.xml", FILM_DB).unwrap();
    b.add_document("state.xml", "<v>initial</v>").unwrap();
    net.register("xrpc://a.example.org", a.soap_handler());
    net.register("xrpc://b.example.org", b.soap_handler());
    (net, a, b)
}

#[test]
fn paper_query_q1_end_to_end() {
    let (_net, a, _b) = sim_pair(EngineKind::Rel);
    let res = a
        .execute(
            r#"import module namespace f = "films";
               <films>{ execute at {"xrpc://b.example.org"} {f:filmsByActor("Sean Connery")} }</films>"#,
        )
        .unwrap();
    assert_eq!(
        serialize(&res),
        "<films><name>The Rock</name><name>Goldfinger</name></films>"
    );
}

#[test]
fn bulk_rpc_over_wire_single_request() {
    let (_net, a, b) = sim_pair(EngineKind::Rel);
    let out = a
        .execute_detailed(
            r#"import module namespace t = "test";
               for $i in (1 to 50) return execute at {"xrpc://b.example.org"} {t:echoVoid()}"#,
        )
        .unwrap();
    assert!(out.result.is_empty());
    assert_eq!(out.requests_sent, 1, "bulk: one request on the wire");
    assert_eq!(out.calls_sent, 50);
    assert_eq!(
        b.stats
            .requests_handled
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    assert_eq!(
        b.stats
            .calls_handled
            .load(std::sync::atomic::Ordering::Relaxed),
        50
    );
}

#[test]
fn tree_engine_sends_one_request_per_iteration() {
    let (_net, a, b) = sim_pair(EngineKind::Tree);
    let out = a
        .execute_detailed(
            r#"import module namespace t = "test";
               for $i in (1 to 7) return execute at {"xrpc://b.example.org"} {t:echoVoid()}"#,
        )
        .unwrap();
    assert_eq!(out.requests_sent, 7);
    assert_eq!(
        b.stats
            .requests_handled
            .load(std::sync::atomic::Ordering::Relaxed),
        7
    );
}

#[test]
fn remote_fault_surfaces_at_originator() {
    let (_net, a, _b) = sim_pair(EngineKind::Rel);
    // unknown function on the remote side
    let err = a
        .execute(
            r#"import module namespace f = "films";
               execute at {"xrpc://b.example.org"} {f:noSuchFunction()}"#,
        )
        .unwrap_err();
    assert_eq!(err.code, "XPST0017");
    assert!(err.message.contains("remote fault"));
}

#[test]
fn unreachable_peer_is_an_error() {
    let (_net, a, _b) = sim_pair(EngineKind::Rel);
    let err = a
        .execute(
            r#"import module namespace t = "test";
               execute at {"xrpc://gone.example.org"} {t:echoVoid()}"#,
        )
        .unwrap_err();
    assert_eq!(err.code, "XRPC0001");
}

#[test]
fn module_fetched_via_location_hint() {
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let a = Peer::new("xrpc://a", EngineKind::Rel);
    let b = Peer::new("xrpc://b", EngineKind::Tree);
    // B does NOT have the film module pre-registered; it can fetch it from
    // the module web by the at-hint carried in the request.
    let web = ModuleWeb::new();
    web.publish("http://x.example.org/film.xq", FILM_MODULE);
    web.install(&b.modules);
    b.add_document("filmDB.xml", FILM_DB).unwrap();
    a.register_module(FILM_MODULE).unwrap();
    a.set_transport(net.clone());
    net.register("xrpc://b", b.soap_handler());
    let res = a
        .execute(
            r#"import module namespace f = "films" at "http://x.example.org/film.xq";
               execute at {"xrpc://b"} {f:filmsByActor("Gerard Depardieu")}"#,
        )
        .unwrap();
    assert_eq!(serialize(&res), "<name>Green Card</name>");
}

#[test]
fn update_isolation_none_applies_immediately_rule_rfu() {
    let (_net, a, b) = sim_pair(EngineKind::Tree);
    let res = a
        .execute(
            r#"import module namespace t = "test";
               execute at {"xrpc://b.example.org"} {t:set("changed")}"#,
        )
        .unwrap();
    assert!(res.is_empty());
    // applied right after the request (rule RFu), no 2PC involved
    let v = b.docs.get("state.xml").unwrap();
    assert_eq!(v.string_value(v.root()), "changed");
    assert_eq!(
        b.stats
            .control_messages
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );
}

#[test]
fn update_repeatable_defers_until_2pc_commit_rule_rfu_prime() {
    let (_net, a, b) = sim_pair(EngineKind::Tree);
    let out = a
        .execute_detailed(
            r#"declare option xrpc:isolation "repeatable";
               import module namespace t = "test";
               execute at {"xrpc://b.example.org"} {t:set("committed")}"#,
        )
        .unwrap();
    // after execute() returns the transaction has committed
    let v = b.docs.get("state.xml").unwrap();
    assert_eq!(v.string_value(v.root()), "committed");
    // B holds the only ∆ and the call is the query's tail: B commits before
    // it answers, and no control message follows
    assert_eq!(
        b.stats
            .control_messages
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );
    assert_eq!(b.twopc_metrics.snapshot().commits, 1);
    assert!(matches!(
        out.commit,
        Some(xrpc_peer::twopc::CommitOutcome::Committed { participants: 1 })
    ));
    // snapshot state was released
    assert_eq!(b.snapshots.active_count(), 0);
}

/// The callee decides whether its function updates, not the caller: A has
/// no copy of `t:set`'s module, so it cannot mark the call deferred. Under
/// isolation the ∆ waits in B's snapshot all the same (rule R'Fu) — never
/// applied by a query that fails after the call, committed with one that
/// succeeds, whether the call is the query's tail or not.
#[test]
fn an_isolated_update_waits_for_the_commit_when_the_originator_lacks_the_module() {
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let a = Peer::new("xrpc://a.example.org", EngineKind::Tree);
    a.set_transport(net.clone());
    let b = Peer::new("xrpc://b.example.org", EngineKind::Tree);
    b.register_module(TEST_MODULE).unwrap();
    b.add_document("state.xml", "<v>initial</v>").unwrap();
    net.register("xrpc://b.example.org", b.soap_handler());
    let isolated = |body: &str| {
        a.execute(&format!(
            r#"declare option xrpc:isolation "repeatable";
               import module namespace t = "test";
               {body}"#
        ))
    };
    let err = isolated(r#"(execute at {"xrpc://b.example.org"} {t:set("leaked")}, error())"#)
        .unwrap_err();
    assert_eq!(err.code, "FOER0000", "{err}");
    assert_eq!(state(&b), "<v>initial</v>", "the ∆ escaped the transaction");
    isolated(r#"(execute at {"xrpc://b.example.org"} {t:set("then")}, "done")"#).unwrap();
    assert_eq!(state(&b), "<v>then</v>");
    isolated(r#"execute at {"xrpc://b.example.org"} {t:set("tail")}"#).unwrap();
    assert_eq!(state(&b), "<v>tail</v>");
    assert_eq!(b.twopc_metrics.snapshot().commits, 2);
}

#[test]
fn incompatible_distributed_updates_abort() {
    let (_net, a, b) = sim_pair(EngineKind::Tree);
    // two renames of the same node in one isolated query: XQUF forbids it,
    // so Prepare must refuse and the transaction aborts
    let err = a
        .execute(
            r#"declare option xrpc:isolation "repeatable";
               import module namespace t = "test";
               (execute at {"xrpc://b.example.org"} {t:renameRoot("x")},
                execute at {"xrpc://b.example.org"} {t:renameRoot("y")})"#,
        )
        .unwrap_err();
    assert!(err.message.contains("aborted"), "{err}");
    // nothing was applied
    let v = b.docs.get("state.xml").unwrap();
    let root = v.first_child(v.root()).unwrap();
    assert_eq!(v.node(root).name.as_ref().unwrap().local, "v");
}

#[test]
fn repeatable_read_pins_state_across_requests() {
    // Protocol-level check: two requests of one queryID see one snapshot
    // even when the store changes in between.
    let (_net, _a, b) = sim_pair(EngineKind::Tree);
    let qid = xrpc_proto::QueryId::new("origin", 777, 30);
    let mut req = xrpc_proto::XrpcRequest::new("test", "get", 0).with_query_id(qid.clone());
    req.push_call(vec![]);
    let xml = req.to_xml().unwrap();

    let r1 = b.handle_soap(xml.as_bytes());
    let r1 = String::from_utf8(r1).unwrap();
    assert!(r1.contains("initial"));

    // another transaction commits in between
    b.docs
        .insert("state.xml", xmldom::parse("<v>overwritten</v>").unwrap());

    // the same query still sees the pinned snapshot
    let r2 = String::from_utf8(b.handle_soap(xml.as_bytes())).unwrap();
    assert!(r2.contains("initial"), "repeatable read violated: {r2}");

    // a *fresh* request without queryID sees the new state
    let mut plain = xrpc_proto::XrpcRequest::new("test", "get", 0);
    plain.push_call(vec![]);
    let r3 = String::from_utf8(b.handle_soap(plain.to_xml().unwrap().as_bytes())).unwrap();
    assert!(r3.contains("overwritten"));
}

#[test]
fn expired_query_id_rejected() {
    let (_net, _a, b) = sim_pair(EngineKind::Tree);
    let qid = xrpc_proto::QueryId::new("origin", 888, 0); // timeout 0s
    let mut req = xrpc_proto::XrpcRequest::new("test", "get", 0).with_query_id(qid);
    req.push_call(vec![]);
    let xml = req.to_xml().unwrap();
    let _ = b.handle_soap(xml.as_bytes());
    std::thread::sleep(std::time::Duration::from_millis(20));
    b.snapshots.gc();
    let r = String::from_utf8(b.handle_soap(xml.as_bytes())).unwrap();
    assert!(
        r.contains("XRPC0002"),
        "expected expired-queryID fault: {r}"
    );
}

#[test]
fn function_cache_counts_prepares() {
    let (_net, a, b) = sim_pair(EngineKind::Rel);
    let q = r#"import module namespace t = "test";
               execute at {"xrpc://b.example.org"} {t:echoVoid()}"#;
    for _ in 0..5 {
        a.execute(q).unwrap();
    }
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(b.stats.requests_handled.load(Relaxed), 5);
    // cache on: prepared once
    assert_eq!(b.stats.functions_prepared.load(Relaxed), 1);

    b.function_cache.set_enabled(false);
    for _ in 0..5 {
        a.execute(q).unwrap();
    }
    // cache off: re-prepared per request
    assert_eq!(b.stats.functions_prepared.load(Relaxed), 6);
}

#[test]
fn nested_xrpc_calls_and_participant_piggyback() {
    // a → b → c: b's function makes a nested call to c; the response to a
    // must piggyback c as a participant (paper §2.3).
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let a = Peer::new("xrpc://a", EngineKind::Tree);
    let b = Peer::new("xrpc://b", EngineKind::Tree);
    let c = Peer::new("xrpc://c", EngineKind::Tree);
    let chain_module = r#"
        module namespace ch = "chain";
        declare function ch:leaf() { "from-c" };
        declare function ch:middle()
        { execute at {"xrpc://c"} {ch:leaf()} };
    "#;
    for p in [&a, &b, &c] {
        p.register_module(chain_module).unwrap();
        p.set_transport(net.clone());
    }
    net.register("xrpc://b", b.soap_handler());
    net.register("xrpc://c", c.soap_handler());
    let out = a
        .execute_detailed(
            r#"declare option xrpc:isolation "repeatable";
               import module namespace ch = "chain";
               execute at {"xrpc://b"} {ch:middle()}"#,
        )
        .unwrap();
    assert_eq!(serialize(&out.result), "from-c");
    // read-only repeatable query: no 2PC, but snapshots on b and c exist
    // until their timeout (they were pinned by the queryID)
    assert!(b.snapshots.active_count() <= 1);
    assert!(c.snapshots.active_count() <= 1);
}

#[test]
fn real_http_transport_end_to_end() {
    let a = Peer::new("placeholder-a", EngineKind::Rel);
    let b = Peer::new("placeholder-b", EngineKind::Tree);
    for p in [&a, &b] {
        p.register_module(FILM_MODULE).unwrap();
        p.register_module(TEST_MODULE).unwrap();
    }
    b.add_document("filmDB.xml", FILM_DB).unwrap();

    let server_b = HttpServer::bind("127.0.0.1:0", {
        let h = b.soap_handler();
        Arc::new(move |_path: &str, body: &[u8]| (200, h(body)))
    })
    .unwrap();
    b.set_name(server_b.url());
    let transport = Arc::new(HttpTransport::new());
    a.set_transport(transport.clone());

    let q = format!(
        r#"import module namespace f = "films";
           for $actor in ("Julie Andrews", "Sean Connery")
           return execute at {{"{}"}} {{f:filmsByActor($actor)}}"#,
        server_b.url()
    );
    let out = a.execute_detailed(&q).unwrap();
    assert_eq!(
        serialize(&out.result),
        "<name>The Rock</name>|<name>Goldfinger</name>"
    );
    // loop-lifted: one HTTP POST total
    assert_eq!(transport.metrics.snapshot().roundtrips, 1);
}

#[test]
fn http_keepalive_pool_reused_across_queries() {
    // E1-style repeated-call workload over real TCP: every query after
    // the first must ride the pooled keep-alive connection instead of
    // paying a fresh TCP setup.
    let a = Peer::new("placeholder-a", EngineKind::Tree);
    let b = Peer::new("placeholder-b", EngineKind::Tree);
    for p in [&a, &b] {
        p.register_module(FILM_MODULE).unwrap();
    }
    b.add_document("filmDB.xml", FILM_DB).unwrap();

    let server_b = HttpServer::bind("127.0.0.1:0", {
        let h = b.soap_handler();
        Arc::new(move |_path: &str, body: &[u8]| (200, h(body)))
    })
    .unwrap();
    b.set_name(server_b.url());
    let transport = Arc::new(HttpTransport::new());
    a.set_transport(transport.clone());

    let q = format!(
        r#"import module namespace f = "films";
           execute at {{"{}"}} {{f:filmsByActor("Sean Connery")}}"#,
        server_b.url()
    );
    for _ in 0..6 {
        let out = a.execute_detailed(&q).unwrap();
        assert_eq!(
            serialize(&out.result),
            "<name>The Rock</name>|<name>Goldfinger</name>"
        );
    }
    let s = transport.metrics.snapshot();
    assert_eq!(s.roundtrips, 6);
    assert_eq!(s.pool_misses, 1, "only the first query should connect");
    assert_eq!(s.pool_hits, 5);
}

#[test]
fn wrapper_peer_services_bulk_from_rel_peer() {
    // MonetDB-role peer (rel engine) calls a wrapped plain engine (§4/§5).
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let a = Peer::new("xrpc://a", EngineKind::Rel);
    let person_module = r#"
        module namespace func = "functions";
        declare function func:getPerson($d as xs:string, $pid as xs:string) as node()?
        { zero-or-one(doc($d)//person[@id = $pid]) };
    "#;
    a.register_module(person_module).unwrap();
    a.set_transport(net.clone());

    let wrapper = XrpcWrapper::new();
    wrapper.modules.register_source(person_module).unwrap();
    wrapper.docs.insert(
        "people.xml",
        xmldom::parse(
            r#"<site><person id="p0"><name>Ann</name></person>
               <person id="p1"><name>Bob</name></person></site>"#,
        )
        .unwrap(),
    );
    net.register("xrpc://saxon", wrapper.soap_handler());

    let res = a
        .execute(
            r#"import module namespace func = "functions";
               for $pid in ("p0", "p1", "p9")
               return execute at {"xrpc://saxon"} {func:getPerson("people.xml", $pid)}"#,
        )
        .unwrap();
    assert_eq!(res.len(), 2);
    assert!(serialize(&res).contains("Ann"));
    assert!(serialize(&res).contains("Bob"));
    // the wrapper handled ONE bulk request for all three calls
    assert_eq!(wrapper.phases().requests, 1);
}

/// An updating bulk request's ∆s compose in call order.
#[test]
fn updating_bulk_stays_sequential_under_a_warm_controller() {
    use std::sync::atomic::Ordering::Relaxed;
    let (_net, a, b) = sim_pair(EngineKind::Rel);
    b.add_document("nums.xml", "<r><i>0</i><i>0</i><i>0</i></r>")
        .unwrap();
    let upd_module = r#"
        module namespace pu = "parupd";
        declare updating function pu:setNth($n as xs:integer, $x as xs:string)
        { replace value of node doc("nums.xml")/r/i[$n] with $x };
    "#;
    a.register_module(upd_module).unwrap();
    b.register_module(upd_module).unwrap();
    a.execute(
        r#"declare option xrpc:isolation "repeatable";
           import module namespace pu = "parupd";
           for $i in (1 to 3)
           return execute at {"xrpc://b.example.org"} {pu:setNth($i, string($i))}"#,
    )
    .unwrap();
    // the ∆s composed in call order, sequentially
    assert_eq!(b.stats.parallel_bulk_requests.load(Relaxed), 0);
    let v = b.docs.get("nums.xml").unwrap();
    assert_eq!(v.string_value(v.root()), "123");
}

#[test]
fn by_value_semantics_across_the_wire() {
    // a node result marshaled over XRPC loses its ancestors (paper §2.2)
    let (_net, a, _b) = sim_pair(EngineKind::Tree);
    let res = a
        .execute(
            r#"import module namespace f = "films";
               count(execute at {"xrpc://b.example.org"} {f:filmsByActor("Sean Connery")}/..)"#,
        )
        .unwrap();
    // parent steps on by-value copies find only the fragment holder (the
    // fresh document node per fragment), never the remote filmDB tree
    let n: i64 = match res.items()[0].atomize() {
        xdm::AtomicValue::Integer(i) => i,
        _ => panic!(),
    };
    assert!(
        n <= 2,
        "upward navigation must not reach the remote document"
    );
}

#[test]
fn fault_injection_mid_bulk_query() {
    let (net, a, _b) = sim_pair(EngineKind::Rel);
    // unwrapped, so the one fault reaches the query instead of a retry
    a.set_transport_raw(net.clone());
    net.inject_fault("xrpc://b.example.org", SimFault::DropRequest);
    let q = r#"import module namespace t = "test";
               for $i in (1 to 3) return execute at {"xrpc://b.example.org"} {t:echoVoid()}"#;
    let err = a.execute(q).unwrap_err();
    assert_eq!(err.code, "XRPC0001");
    // the link recovers and the query succeeds afterwards
    assert!(a.execute(q).is_ok());
}

#[test]
fn parallel_dispatch_to_multiple_peers_overlaps_latency() {
    // Figure 1's "dispatching all Bulk RPC requests in parallel": with
    // three destination peers, the three bulk requests must be in flight
    // together. Each peer holds its request until the other two have
    // arrived as well — a rendezvous of three, so nothing here reads a
    // clock: an originator that sent them one after another would leave the
    // first waiting until the rendezvous gives up and answers with a fault.
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let a = Peer::new("xrpc://a", EngineKind::Rel);
    a.register_module(TEST_MODULE).unwrap();
    a.set_transport(net.clone());
    let names = ["xrpc://p1", "xrpc://p2", "xrpc://p3"];
    let arrived = Arc::new((std::sync::Mutex::new(0usize), std::sync::Condvar::new()));
    for name in names {
        let p = Peer::new(name, EngineKind::Tree);
        p.register_module(TEST_MODULE).unwrap();
        let (serve, arrived) = (p.soap_handler(), arrived.clone());
        net.register(
            name,
            Arc::new(move |body: &[u8]| {
                let (count, all_here) = &*arrived;
                let mut n = count.lock().unwrap();
                *n += 1;
                all_here.notify_all();
                let patience = std::time::Duration::from_secs(30);
                let (n, waited) = all_here
                    .wait_timeout_while(n, patience, |n| *n < names.len())
                    .unwrap();
                if waited.timed_out() {
                    let alone = xdm::XdmError::xrpc("the other requests never came");
                    return xrpc_proto::XrpcFault::from_error(&alone)
                        .to_xml()
                        .into_bytes();
                }
                drop(n);
                serve(body)
            }),
        );
    }
    let q = r#"
        import module namespace t = "test";
        for $dst in ("xrpc://p1", "xrpc://p2", "xrpc://p3")
        return execute at {$dst} {t:echoVoid()}"#;
    a.execute(q).expect("three requests in flight at once");
    assert_eq!(
        *arrived.0.lock().unwrap(),
        names.len(),
        "one bulk request per peer"
    );
}

#[test]
fn concurrent_clients_against_one_peer() {
    // thread-per-connection server side + snapshot manager under
    // concurrent load
    let (_net, a, b) = sim_pair(EngineKind::Rel);
    let a = a.clone();
    let _ = &b;
    std::thread::scope(|s| {
        for i in 0..8 {
            let a = a.clone();
            s.spawn(move || {
                for _ in 0..5 {
                    let q = format!(
                        r#"import module namespace f = "films";
                           count(execute at {{"xrpc://b.example.org"}}
                                 {{f:filmsByActor("Sean Connery")}}) + {i}"#
                    );
                    let res = a.execute(&q).unwrap();
                    assert_eq!(res.items()[0].string_value(), (2 + i).to_string());
                }
            });
        }
    });
    assert_eq!(
        b.stats
            .requests_handled
            .load(std::sync::atomic::Ordering::Relaxed),
        40
    );
}

#[test]
fn element_parameters_through_wrapper() {
    // node-typed parameters cross the wire into the wrapper's generated
    // query and back
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let a = Peer::new("xrpc://a", EngineKind::Rel);
    let module = r#"
        module namespace w = "wrapmod";
        declare function w:firstChildName($e as node()) as xs:string
        { string(local-name($e/*[1])) };
    "#;
    a.register_module(module).unwrap();
    a.add_document("data.xml", "<wrap><inner><deep/></inner></wrap>")
        .unwrap();
    a.set_transport(net.clone());
    let wrapper = XrpcWrapper::new();
    wrapper.modules.register_source(module).unwrap();
    net.register("xrpc://w", wrapper.soap_handler());
    let res = a
        .execute(
            r#"import module namespace w = "wrapmod";
               execute at {"xrpc://w"} {w:firstChildName(doc("data.xml")/wrap)}"#,
        )
        .unwrap();
    assert_eq!(res.items()[0].string_value(), "inner");
}

#[test]
fn data_shipping_doc_fetch_and_cache() {
    let (net, a, _b) = sim_pair(EngineKind::Tree);
    // fetch the remote film DB by URI twice in one query: the per-query
    // doc cache must issue ONE network fetch
    net.metrics.reset();
    let res = a
        .execute(
            r#"( count(doc("xrpc://b.example.org/filmDB.xml")//film),
                 count(doc("xrpc://b.example.org/filmDB.xml")//actor) )"#,
        )
        .unwrap();
    let counts: Vec<String> = res.items().iter().map(|i| i.string_value()).collect();
    assert_eq!(counts, ["3", "3"]);
    assert_eq!(net.metrics.snapshot().roundtrips, 1, "doc cached per query");
}

// ---------------------------------------------------------------------
// a → b → a: the originator is a participant of its own query
// ---------------------------------------------------------------------

const CALLBACK_MODULE: &str = r#"
    module namespace cb = "callback";
    declare function cb:get() { string(doc("state.xml")/*) };
    declare function cb:relayGet()
    { execute at {"xrpc://a.example.org"} {cb:get()} };
    declare updating function cb:set($x as xs:string)
    { replace value of node doc("state.xml")/v with $x };
    declare updating function cb:both($x as xs:string)
    { (replace value of node doc("state.xml")/v with $x,
       execute at {"xrpc://a.example.org"} {cb:set($x)}) };
    declare updating function cb:bounce($x as xs:string)
    { execute at {"xrpc://a.example.org"} {cb:set($x)} };
    declare updating function cb:rename($n as xs:string)
    { rename node doc("state.xml")/v as $n };
    declare updating function cb:bounceRename($n as xs:string)
    { execute at {"xrpc://a.example.org"} {cb:rename($n)} };
"#;

/// [`sim_pair`] where A owns a `state.xml` too and both know the call-back
/// module.
fn callback_pair() -> (Arc<SimNetwork>, Arc<Peer>, Arc<Peer>) {
    let (net, a, b) = sim_pair(EngineKind::Tree);
    a.add_document("state.xml", "<v>initial</v>").unwrap();
    for p in [&a, &b] {
        p.register_module(CALLBACK_MODULE).unwrap();
    }
    (net, a, b)
}

fn state(p: &Peer) -> String {
    let doc = p.docs.get("state.xml").unwrap();
    xmldom::serialize_document(&doc, &Default::default())
}

fn control_messages(p: &Peer) -> u64 {
    p.stats
        .control_messages
        .load(std::sync::atomic::Ordering::Relaxed)
}

#[test]
fn an_update_called_back_into_the_originator_commits_with_the_query() {
    // b's function updates b *and* calls an updating function back at a:
    // a's ∆ was merged where nobody prepared or committed it, so the query
    // answered Committed and a kept its old value
    // b's control messages: Prepare + Commit for a writer; a Prepare that
    // votes read-only when b's own ∆ is empty
    for (function, b_after, b_control) in
        [("both", "<v>new</v>", 2), ("bounce", "<v>initial</v>", 1)]
    {
        let (_net, a, b) = callback_pair();
        let out = a
            .execute_detailed(&format!(
                r#"declare option xrpc:isolation "repeatable";
                   import module namespace cb = "callback";
                   execute at {{"xrpc://b.example.org"}} {{cb:{function}("new")}}"#
            ))
            .unwrap();
        assert!(
            matches!(
                out.commit,
                Some(xrpc_peer::twopc::CommitOutcome::Committed { participants: 1 })
            ),
            "{function}: {:?}",
            out.commit
        );
        assert_eq!(state(&a), "<v>new</v>", "{function}: a's called-back ∆");
        assert_eq!(state(&b), b_after, "{function}");
        assert_eq!(a.snapshots.active_count(), 0, "{function}");
        assert_eq!(b.snapshots.active_count(), 0, "{function}");
        // the originator's own Prepare and Commit are function calls
        assert_eq!(control_messages(&a), 0, "{function}");
        assert_eq!(control_messages(&b), b_control, "{function}");
    }
}

#[test]
fn a_query_and_its_call_back_conflicting_on_one_node_abort_everywhere() {
    let (_net, a, b) = callback_pair();
    let err = a
        .execute(
            r#"declare option xrpc:isolation "repeatable";
               import module namespace cb = "callback";
               (rename node doc("state.xml")/v as "mine",
                execute at {"xrpc://b.example.org"} {cb:set("new")},
                execute at {"xrpc://b.example.org"} {cb:bounceRename("theirs")})"#,
        )
        .unwrap_err();
    assert!(err.message.contains("aborted"), "{err}");
    assert!(err.message.contains("XUDY"), "{err}");
    assert_eq!(state(&a), "<v>initial</v>");
    assert_eq!(state(&b), "<v>initial</v>");
    assert_eq!(a.snapshots.active_count(), 0);
    assert_eq!(b.snapshots.active_count(), 0);
}

#[test]
fn a_call_back_reads_the_state_the_query_started_on() {
    let (net, a, b) = callback_pair();
    // between a's own read and the call back, a concurrent non-isolated
    // update replaces a's document (it rides in on b's handler)
    let (a2, serve_b) = (a.clone(), b.soap_handler());
    net.register(
        "xrpc://b.example.org",
        Arc::new(move |body: &[u8]| {
            a2.add_document("state.xml", "<v>moved-on</v>").unwrap();
            serve_b(body)
        }),
    );
    let seen = a
        .execute(
            r#"declare option xrpc:isolation "repeatable";
               import module namespace cb = "callback";
               (cb:get(), execute at {"xrpc://b.example.org"} {cb:relayGet()})"#,
        )
        .unwrap();
    assert_eq!(
        serialize(&seen),
        "initial|initial",
        "one state, both places"
    );
    assert_eq!(state(&a), "<v>moved-on</v>");
    assert_eq!(a.snapshots.active_count(), 0, "nothing left pinned at a");
    assert_eq!(b.snapshots.active_count(), 0);
    assert_eq!(control_messages(&a), 0);
}

// ---------------------------------------------------------------------
// What a commit costs: one writer, readers, aborts (presumed abort)
// ---------------------------------------------------------------------

/// A peer on `net` whose WAL forces every promise (so `fsyncs` counts
/// them), with the test module and `state.xml`; returns it and its log.
fn durable(net: &Arc<SimNetwork>, uri: &str, test: &str) -> (Arc<Peer>, Arc<xrpc_peer::Wal>) {
    let p = Peer::new(uri, EngineKind::Tree);
    p.register_module(TEST_MODULE).unwrap();
    p.add_document("state.xml", "<v>initial</v>").unwrap();
    p.set_transport(net.clone());
    net.register(uri, p.soap_handler());
    let host = uri.trim_start_matches("xrpc://");
    let dir = std::env::temp_dir().join(format!(
        "xrpc-integration-{}-{test}-{host}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    p.attach_wal(&dir, xrpc_peer::FsyncPolicy::Always).unwrap();
    let log = p.wal().unwrap();
    (p, log)
}

fn fsyncs(log: &xrpc_peer::Wal) -> u64 {
    log.stats().fsyncs
}

#[test]
fn an_isolated_read_only_query_forces_nothing() {
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let (a, a_log) = durable(&net, "xrpc://a.example.org", "read-only");
    let (b, b_log) = durable(&net, "xrpc://b.example.org", "read-only");
    let out = a
        .execute_detailed(
            r#"declare option xrpc:isolation "repeatable";
               import module namespace t = "test";
               execute at {"xrpc://b.example.org"} {t:get()}"#,
        )
        .unwrap();
    assert_eq!(serialize(&out.result), "initial");
    assert!(matches!(
        out.commit,
        Some(xrpc_peer::CommitOutcome::Committed { participants: 1 })
    ));
    // the call commits an empty ∆ on its reply: no control message, no
    // record, no flush, anywhere — and the reply released b's snapshot
    assert_eq!(control_messages(&b), 0);
    assert_eq!((fsyncs(&a_log), fsyncs(&b_log)), (0, 0));
    assert_eq!(b.snapshots.active_count(), 0);
    for log in [a_log, b_log] {
        let _ = std::fs::remove_dir_all(log.path());
    }
}

#[test]
fn a_reader_votes_read_only_and_hears_no_decision() {
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let a = Peer::new("xrpc://a.example.org", EngineKind::Tree);
    a.register_module(TEST_MODULE).unwrap();
    a.set_transport(net.clone());
    let (writer, w_log) = durable(&net, "xrpc://w.example.org", "reader");
    let (reader, r_log) = durable(&net, "xrpc://r.example.org", "reader");
    let untouched = r_log.stats().log_bytes;
    let out = a
        .execute_detailed(
            r#"declare option xrpc:isolation "repeatable";
               import module namespace t = "test";
               (execute at {"xrpc://w.example.org"} {t:set("written")},
                execute at {"xrpc://r.example.org"} {t:get()})"#,
        )
        .unwrap();
    assert_eq!(serialize(&out.result), "initial");
    assert!(matches!(
        out.commit,
        Some(xrpc_peer::CommitOutcome::Committed { participants: 2 })
    ));
    // Prepare ×2, Commit ×1: the reader's vote leaves it out of phase 2
    let (w, r) = (
        writer.twopc_metrics.snapshot(),
        reader.twopc_metrics.snapshot(),
    );
    assert_eq!((w.prepares, r.prepares), (1, 1));
    assert_eq!((w.commits, r.commits), (1, 0));
    assert_eq!(
        (control_messages(&writer), control_messages(&reader)),
        (2, 1)
    );
    assert_eq!(state(&writer), "<v>written</v>");
    // the writer's two promises, and nothing at all in the reader's log
    assert_eq!(fsyncs(&w_log), 2);
    assert_eq!(fsyncs(&r_log), 0);
    assert_eq!(r_log.stats().log_bytes, untouched);
    assert_eq!(reader.snapshots.active_count(), 0);
    for log in [w_log, r_log] {
        let _ = std::fs::remove_dir_all(log.path());
    }
}

#[test]
fn a_delta_that_cannot_apply_aborts_a_one_phase_commit_before_the_log() {
    // XUDY0030 — an attribute beside the document element — passes the
    // compatibility check and fails only in the apply, which the one-phase
    // guard runs before anything is logged: a true abort, nothing promised
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let a = Peer::new("xrpc://a.example.org", EngineKind::Tree);
    a.register_module(TEST_MODULE).unwrap();
    a.set_transport(net.clone());
    let (b, log) = durable(&net, "xrpc://b.example.org", "cannot-apply");
    let untouched = log.stats().log_bytes;
    let err = a
        .execute(
            r#"declare option xrpc:isolation "repeatable";
               import module namespace t = "test";
               execute at {"xrpc://b.example.org"} {t:attrBesideRoot()}"#,
        )
        .unwrap_err();
    assert!(err.message.contains("transaction aborted"), "{err}");
    assert!(err.message.contains("XUDY0030"), "{err}");
    assert_eq!(state(&b), "<v>initial</v>");
    assert_eq!((control_messages(&b), fsyncs(&log)), (0, 0));
    assert_eq!(log.stats().log_bytes, untouched, "no record at all");
    assert_eq!(log.open_transactions(), 0);
    let m = b.twopc_metrics.snapshot();
    assert_eq!((m.commits, m.aborts), (0, 1));
    assert_eq!(a.twopc_metrics.snapshot().hazards, 0);
    assert_eq!(b.snapshots.active_count(), 0, "released");
    let _ = std::fs::remove_dir_all(log.path());
}

/// A control message `method` for `qid`, as the coordinator sends it.
fn control(method: &str, qid: &xrpc_proto::QueryId) -> Vec<u8> {
    let mut req = xrpc_proto::XrpcRequest::new(xrpc_peer::twopc::WSAT_MODULE, method, 0)
        .with_query_id(qid.clone());
    req.push_call(vec![]);
    req.to_xml().unwrap().into_bytes()
}

#[test]
fn presumed_abort_forces_no_abort_and_acknowledges_a_forgotten_commit() {
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let (b, log) = durable(&net, "xrpc://b.example.org", "presumed-abort");
    let answer = |method: &str, qid: &xrpc_proto::QueryId| {
        String::from_utf8(b.handle_soap(&control(method, qid))).unwrap()
    };

    // two promises cost their two forces, the aborts that undo them none
    // (the first abort is appended while the other promise keeps the log
    // open; the last one empties it)
    let qids = [3333, 3334].map(|ts| xrpc_proto::QueryId::new("origin", ts, 30));
    for qid in &qids {
        let mut set = xrpc_proto::XrpcRequest::new("test", "set", 1).with_query_id(qid.clone());
        set.upd_call = xrpc_proto::UpdCall::Deferred;
        set.push_call(vec![Sequence::one(Item::string("doomed"))]);
        b.handle_soap(set.to_xml().unwrap().as_bytes());
        assert!(answer("Prepare", qid).contains("response"));
    }
    assert_eq!(fsyncs(&log), 2);
    for qid in &qids {
        assert!(answer("Abort", qid).contains("response"));
    }
    assert_eq!(fsyncs(&log), 2, "Decision{{Aborted}} is not forced");
    assert_eq!(log.open_transactions(), 0);
    assert_eq!(state(&b), "<v>initial</v>");

    // a Commit for a query b has no record of was committed and forgotten:
    // acknowledged; a one-phase commit or a Prepare of one is refused
    let unknown = xrpc_proto::QueryId::new("origin", 4444, 30);
    assert!(answer("Commit", &unknown).contains("response"));
    for method in ["CommitOnePhase", "Prepare"] {
        let reply = answer(method, &unknown);
        assert!(reply.contains("XRPC0002"), "{method}: {reply}");
    }
    let _ = std::fs::remove_dir_all(log.path());
}

#[test]
fn an_inquiry_while_a_one_phase_commit_is_in_flight_hears_in_doubt() {
    // b asks the coordinator about the transaction the moment the call
    // that commits on its reply reaches it — as a participant restarted
    // mid-edge would
    let (net, a, b) = sim_pair(EngineKind::Tree);
    let heard = Arc::new(std::sync::Mutex::new(Vec::new()));
    let (coordinator, serve_b, h) = (a.clone(), b.soap_handler(), heard.clone());
    net.register(
        "xrpc://b.example.org",
        Arc::new(move |body: &[u8]| {
            let text = std::str::from_utf8(body).unwrap();
            if let Ok(xrpc_proto::XrpcMessage::Request(req)) = xrpc_proto::parse_message(text) {
                if req.upd_call == xrpc_proto::UpdCall::Commit {
                    let ask = control("Inquire", req.query_id.as_ref().unwrap());
                    let reply = String::from_utf8(coordinator.handle_soap(&ask)).unwrap();
                    h.lock().unwrap().push(reply.contains("in-doubt"));
                }
            }
            serve_b(body)
        }),
    );
    a.execute(
        r#"declare option xrpc:isolation "repeatable";
           import module namespace t = "test";
           execute at {"xrpc://b.example.org"} {t:set("once")}"#,
    )
    .unwrap();
    assert_eq!(*heard.lock().unwrap(), [true], "InDoubt while in flight");
    assert_eq!(state(&b), "<v>once</v>");
    let inquiries_only = (control_messages(&a), control_messages(&b));
    assert_eq!(inquiries_only, (1, 0), "the Inquire, and nothing else");
    assert_eq!(a.coord.committed_entries(), 0, "and nothing left after it");
}
