//! How a peer binds and evaluates the calls of a request, whatever their
//! number: every request goes through one set-at-a-time evaluation, and a
//! served call binds its parameters as the same call written in a query
//! does (XQuery 1.0 §3.1.5's function conversion) — on a native peer and on
//! the wrapper alike.

use std::sync::Arc;
use xdm::{Item, Sequence};
use xrpc_peer::{EngineKind, Peer, XrpcWrapper};
use xrpc_proto::{parse_message, QueryId, UpdCall, XrpcMessage, XrpcRequest};

const CONVERT_MODULE: &str = r#"
    module namespace m = "convert";
    declare function m:s($x as xs:string) { $x };
    declare function m:i($x as xs:integer) { $x + 1 };
    declare function m:d($x as xs:double) { $x + 1 };
"#;

/// A request for `method` of `n` calls, each with the one argument `arg`.
fn request(module: &str, method: &str, n: usize, arg: &Sequence) -> XrpcRequest {
    let mut req = XrpcRequest::new(module, method, 1);
    for _ in 0..n {
        req.push_call(vec![arg.clone()]);
    }
    req
}

/// The string value of every result, or the fault's code.
fn answer(response: &[u8]) -> Result<Vec<String>, String> {
    match parse_message(std::str::from_utf8(response).unwrap()).unwrap() {
        XrpcMessage::Response(r) => Ok(r.results.iter().map(|s| s.joined_string()).collect()),
        XrpcMessage::Fault(f) => Err(f.to_error().code),
        XrpcMessage::Request(_) => panic!("a request came back"),
    }
}

#[test]
fn a_peer_and_the_wrapper_convert_a_served_call_as_a_query_does() {
    let peer = Peer::new("xrpc://b", EngineKind::Tree);
    peer.register_module(CONVERT_MODULE).unwrap();
    let wrapper = XrpcWrapper::new();
    wrapper.modules.register_source(CONVERT_MODULE).unwrap();
    let n = xmldom::parse("<n>5</n>").unwrap();
    let element = Item::Node(xmldom::NodeHandle::new(
        Arc::new(n.clone()),
        n.first_child(n.root()).unwrap(),
    ));
    let rows: [(&str, Sequence, Result<&str, &str>); 4] = [
        // no cast: an integer is no string, a string no integer
        ("s", Sequence::one(Item::integer(2)), Err("XPTY0004")),
        ("i", Sequence::one(Item::string("7")), Err("XPTY0004")),
        // numeric promotion, and an untyped node cast to the declared type
        ("d", Sequence::one(Item::integer(1)), Ok("2")),
        ("i", Sequence::one(element), Ok("6")),
    ];
    for (method, arg, want) in rows {
        for calls in [1, 3] {
            let bytes = request("convert", method, calls, &arg).to_xml().unwrap();
            let want = want
                .map(|r| vec![r.to_string(); calls])
                .map_err(String::from);
            let at = format!("m:{method} x{calls}");
            assert_eq!(
                answer(&peer.handle_soap(bytes.as_bytes())),
                want,
                "peer, {at}"
            );
            assert_eq!(
                answer(&wrapper.handle(bytes.as_bytes())),
                want,
                "wrapper, {at}"
            );
        }
    }
}

/// Two inserts into one target per call: XQUF leaves their order open, the
/// peer keeps the calls' order — also where a join in the body could have
/// evaluated the first insert for every call before the second.
const LOG_MODULE: &str = r#"
    module namespace u = "log";
    declare updating function u:add($n as xs:integer)
    { if (doc("log.xml")//skip[@n = $n]) then ()
      else insert node <e n="{$n}"/> into doc("log.xml")/log,
      insert node <f n="{$n}"/> into doc("log.xml")/log };
"#;

const LOGGED: &str = r#"<log><e n="1"/><f n="1"/><e n="2"/><f n="2"/><e n="3"/><f n="3"/></log>"#;

fn log_peer() -> Arc<Peer> {
    let p = Peer::new("xrpc://b", EngineKind::Tree);
    p.register_module(LOG_MODULE).unwrap();
    p.add_document("log.xml", "<log/>").unwrap();
    p
}

fn log(p: &Peer) -> String {
    let doc = p.docs.get("log.xml").unwrap();
    xmldom::serialize_document(&doc, &Default::default())
}

/// `u:add` for each of `ns` in one request, deferred to 2PC under `qid`
/// when there is one.
fn add(ns: &[i64], qid: Option<&QueryId>) -> Vec<u8> {
    let mut req = XrpcRequest::new("log", "add", 1);
    if let Some(q) = qid {
        req = req.with_query_id(q.clone());
        req.upd_call = UpdCall::Deferred;
    }
    for &n in ns {
        req.push_call(vec![Sequence::one(Item::integer(n))]);
    }
    req.to_xml().unwrap().into_bytes()
}

/// A control message `method` for `qid`, as the coordinator sends it.
fn control(method: &str, qid: &QueryId) -> Vec<u8> {
    let mut req =
        XrpcRequest::new(xrpc_peer::twopc::WSAT_MODULE, method, 0).with_query_id(qid.clone());
    req.push_call(vec![]);
    req.to_xml().unwrap().into_bytes()
}

#[test]
fn an_updating_request_of_three_calls_leaves_what_three_requests_leave() {
    let served = |p: &Peer, bytes: &[u8]| {
        let results = answer(&p.handle_soap(bytes)).unwrap();
        assert!(results.iter().all(String::is_empty), "{results:?}");
    };
    // without a queryID: applied after each request
    let (bulk, single) = (log_peer(), log_peer());
    served(&bulk, &add(&[1, 2, 3], None));
    for n in 1..=3 {
        served(&single, &add(&[n], None));
    }
    assert_eq!((log(&bulk), log(&single)), (LOGGED.into(), LOGGED.into()));

    // with one: deferred until the commit, and a redelivered request
    // merges no second ∆
    let (bulk, single) = (log_peer(), log_peer());
    let qid = QueryId::new("origin", 5555, 30);
    let request = add(&[1, 2, 3], Some(&qid));
    served(&bulk, &request);
    served(&bulk, &request);
    for n in 1..=3 {
        served(&single, &add(&[n], Some(&qid)));
    }
    for p in [&bulk, &single] {
        assert_eq!(log(p), "<log/>", "nothing applied before the commit");
        for method in ["Prepare", "Commit"] {
            let reply = String::from_utf8(p.handle_soap(&control(method, &qid))).unwrap();
            assert!(reply.contains("response"), "{method}: {reply}");
        }
    }
    assert_eq!((log(&bulk), log(&single)), (LOGGED.into(), LOGGED.into()));
}
