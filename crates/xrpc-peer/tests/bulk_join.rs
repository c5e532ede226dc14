//! The value index behind the predicate join over the life of a peer's
//! documents: one index per document *version*, shared by every request
//! that reads the version, gone with it; and what a bulk request looks
//! like in the callee's profile — one join, not a thousand selections.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use xdm::{Item, Sequence};
use xrpc_net::{NetProfile, SimNetwork};
use xrpc_peer::{render_metrics, EngineKind, Peer};
use xrpc_proto::{parse_message, QueryId, XrpcMessage, XrpcRequest};

const B_URI: &str = "xrpc://b.example.org";

const MODULE: &str = r#"
    module namespace m = "people";
    declare function m:get($pid as xs:string) as node()*
    { doc("p.xml")//person[@id = $pid] };
    declare updating function m:rename($from as xs:string, $to as xs:string)
    { replace value of node doc("p.xml")//person[@id = $from]/@id with $to };
"#;

fn people(n: usize) -> String {
    let mut xml = String::from("<site>");
    for i in 0..n {
        xml.push_str(&format!(
            r#"<person id="p{i}" a0="x" a1="x" a2="x" a3="x" a4="x" a5="x" a6="x" a7="x" a8="x"><name>n{i}</name></person>"#
        ));
    }
    xml.push_str("</site>");
    xml
}

fn serving_peer() -> Arc<Peer> {
    let b = Peer::new(B_URI, EngineKind::Tree);
    b.register_module(MODULE).unwrap();
    b.add_document("p.xml", &people(200)).unwrap();
    b
}

/// Ask `m:get` for each id in one bulk request; how many persons came back
/// per call.
fn get(peer: &Peer, ids: &[&str], qid: Option<&QueryId>) -> Vec<usize> {
    let mut req = XrpcRequest::new("people", "get", 1);
    req.query_id = qid.cloned();
    for id in ids {
        req.push_call(vec![Sequence::one(Item::string(*id))]);
    }
    let out = peer.handle_soap(req.to_xml().unwrap().as_bytes());
    match parse_message(std::str::from_utf8(&out).unwrap()).unwrap() {
        XrpcMessage::Response(r) => r.results.iter().map(Sequence::len).collect(),
        XrpcMessage::Fault(f) => panic!("fault: {}", f.reason),
        XrpcMessage::Request(_) => panic!("a request came back"),
    }
}

fn rename(peer: &Peer, from: &str, to: &str) {
    let mut req = XrpcRequest::new("people", "rename", 2);
    req.push_call(vec![
        Sequence::one(Item::string(from)),
        Sequence::one(Item::string(to)),
    ]);
    let out = peer.handle_soap(req.to_xml().unwrap().as_bytes());
    match parse_message(std::str::from_utf8(&out).unwrap()).unwrap() {
        XrpcMessage::Response(_) => {}
        other => panic!("rename failed: {other:?}"),
    }
}

fn builds(peer: &Peer) -> u64 {
    peer.stats.join_index_builds.load(Ordering::Relaxed)
}

fn metric(peer: &Peer, name: &str) -> String {
    let text = render_metrics(peer, None);
    let line = text
        .lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .unwrap_or_else(|| panic!("no `{name}` in:\n{text}"));
    line[name.len() + 1..].to_string()
}

#[test]
fn an_update_between_two_bulk_requests_is_seen_by_the_second() {
    let b = serving_peer();
    assert_eq!(get(&b, &["p5", "p6", "zz"], None), [1, 1, 0]);
    assert_eq!(get(&b, &["p5", "p6", "zz"], None), [1, 1, 0]);
    assert_eq!(builds(&b), 1, "two requests, one version, one index");
    assert_eq!(metric(&b, "xrpc_join_indexes"), "1");

    rename(&b, "p5", "zz");
    // the rename found its target through the old version's index (one
    // more probe); the version it installed starts without one
    assert_eq!(metric(&b, "xrpc_join_indexes"), "0");
    assert_eq!(get(&b, &["p5", "p6", "zz"], None), [0, 1, 1]);
    assert_eq!(builds(&b), 2, "new version, new index");
    assert_eq!(metric(&b, "xrpc_join_index_builds_total"), "2");
    assert_eq!(metric(&b, "xrpc_join_index_probes_total"), "10");
    assert_eq!(metric(&b, "xrpc_join_indexes"), "1");
}

#[test]
fn a_pinned_snapshot_keeps_answering_from_its_own_version() {
    let b = serving_peer();
    let qid = QueryId::new("origin.example.org", 1_700_000_000_000, 60);
    // pins the snapshot (and builds the old version's index)
    assert_eq!(get(&b, &["p5", "zz"], Some(&qid)), [1, 0]);
    rename(&b, "p5", "zz");
    // outside the snapshot: the new version
    assert_eq!(get(&b, &["p5", "zz"], None), [0, 1]);
    // inside it: still the old one, from the old version's index
    let before = builds(&b);
    assert_eq!(get(&b, &["p5", "zz"], Some(&qid)), [1, 0]);
    assert_eq!(builds(&b), before, "the pinned version kept its index");
}

#[test]
fn the_ninth_key_path_on_one_document_evicts() {
    let b = serving_peer();
    for k in 0..=xqeval::index::MAX_INDEXES_PER_DOC {
        let q = format!(r#"count(doc("p.xml")//person[@a{k} = "x"])"#);
        assert_eq!(b.execute(&q).unwrap().items()[0].string_value(), "200");
    }
    let cap = xqeval::index::MAX_INDEXES_PER_DOC as u64;
    assert_eq!(builds(&b), cap + 1);
    assert_eq!(metric(&b, "xrpc_join_index_evictions_total"), "1");
    assert_eq!(metric(&b, "xrpc_join_indexes"), cap.to_string());
}

/// Depth-first search of an operator tree for a node by name.
fn find_op<'o>(ops: &'o [xrpc_obs::OpNode], name: &str) -> Option<&'o xrpc_obs::OpNode> {
    ops.iter().find_map(|op| {
        if op.name == name {
            Some(op)
        } else {
            find_op(&op.children, name)
        }
    })
}

#[test]
fn a_thousand_calls_are_one_join_in_the_callees_profile() {
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    // the paper's getPerson (§4) over 2000 persons
    let functions = r#"
        module namespace func = "functions";
        declare function func:getPerson($doc as xs:string, $pid as xs:string) as node()?
        { zero-or-one(doc($doc)//person[@id = $pid]) };"#;
    let mut persons = String::from("<site><people>");
    for i in 0..2000 {
        persons.push_str(&format!(
            r#"<person id="person{i}"><name>n{i}</name></person>"#
        ));
    }
    persons.push_str("</people></site>");
    let b = Peer::new(B_URI, EngineKind::Tree);
    b.register_module(functions).unwrap();
    b.add_document("persons.xml", &persons).unwrap();
    net.register(B_URI, b.soap_handler());
    let a = Peer::new("xrpc://a.example.org", EngineKind::Rel);
    a.register_module(functions).unwrap();
    a.set_transport(net);

    let q = format!(
        r#"import module namespace func = "functions";
           for $i in (1 to 1000)
           return execute at {{"{B_URI}"}}
                  {{func:getPerson("persons.xml", concat("person", string($i)))}}"#
    );
    let (result, profile) = a.explain_analyze(&q).unwrap();
    assert_eq!(result.len(), 1000);

    let hop = (profile.hops.iter())
        .find(|h| h.peer == B_URI)
        .expect("the callee's hop");
    let join = find_op(&hop.ops, "rel:join").unwrap_or_else(|| panic!("no join in {hop:#?}"));
    assert_eq!((join.calls, join.items), (1, 1000));
    let doc = find_op(&join.children, "rel:doc").expect("fn:doc under the join");
    assert_eq!((doc.calls, doc.items), (1, 1000));
    // nothing at the callee ran once per call
    assert!(
        find_op(&hop.ops, "xq:path-step").is_none() && !format!("{hop:?}").contains("rel:fallback"),
        "{hop:#?}"
    );
    // at the caller, the argument is one map over the loop's column: nothing
    // there runs once per iteration either
    let caller = (profile.hops.iter())
        .find(|h| h.depth == 0)
        .expect("the originator's hop");
    let map =
        find_op(&caller.ops, "rel:map").unwrap_or_else(|| panic!("no map operator in {caller:#?}"));
    assert_eq!((map.calls, map.items), (1, 1000));
    assert!(
        !format!("{caller:?}").contains("rel:fallback"),
        "{caller:#?}"
    );
    // one request, one index build, a thousand probes
    assert_eq!(b.stats.join_index_builds.load(Ordering::Relaxed), 1);
    assert_eq!(b.stats.join_index_probes.load(Ordering::Relaxed), 1000);
}
