//! Tests for the `xrpc:nodeid` call-by-fragment protocol extension (paper
//! footnote 4): node parameters that are descendants of another parameter
//! are sent as references, which (a) compresses the message and (b) —
//! unlike plain by-value marshaling — *preserves ancestor/descendant
//! relationships among parameters at the callee*.

use std::sync::Arc;
use xdm::{Item, Sequence};
use xmldom::{parse, NodeHandle};
use xrpc_proto::{parse_message, XrpcMessage, XrpcRequest};

fn film_tree() -> (Arc<xmldom::Document>, NodeHandle, NodeHandle, NodeHandle) {
    let d = Arc::new(
        parse(
            r#"<films><film year="1996"><name>The Rock</name><actor>Sean Connery</actor></film></films>"#,
        )
        .unwrap(),
    );
    let films = d.first_child(d.root()).unwrap();
    let film = d.first_child(films).unwrap();
    let name = d.first_child(film).unwrap();
    (
        d.clone(),
        NodeHandle::new(d.clone(), films),
        NodeHandle::new(d.clone(), film),
        NodeHandle::new(d, name),
    )
}

fn roundtrip(req: &XrpcRequest) -> XrpcRequest {
    let xml = req.to_xml().unwrap();
    match parse_message(&xml).unwrap() {
        XrpcMessage::Request(r) => r,
        other => panic!("{other:?}"),
    }
}

#[test]
fn descendant_parameter_becomes_nodeid_reference() {
    let (_d, films, _film, name) = film_tree();
    let mut req = XrpcRequest::new("m", "f", 2);
    req.call_by_fragment = true;
    req.push_call(vec![
        Sequence::one(Item::Node(films)),
        Sequence::one(Item::Node(name)),
    ]);
    let xml = req.to_xml().unwrap();
    assert!(xml.contains("xrpc:nodeid"), "{xml}");
    // the <name> subtree is NOT serialized a second time
    assert_eq!(xml.matches("The Rock").count(), 1);
}

#[test]
fn relationship_preserved_at_receiver() {
    let (_d, films, film, name) = film_tree();
    let mut req = XrpcRequest::new("m", "f", 3);
    req.call_by_fragment = true;
    req.push_call(vec![
        Sequence::one(Item::Node(films)),
        Sequence::one(Item::Node(film)),
        Sequence::one(Item::Node(name)),
    ]);
    let back = roundtrip(&req);
    let p0 = back.calls[0][0].items()[0].as_node().unwrap().clone();
    let p1 = back.calls[0][1].items()[0].as_node().unwrap().clone();
    let p2 = back.calls[0][2].items()[0].as_node().unwrap().clone();
    // p1 and p2 resolve INSIDE p0's fragment
    assert!(Arc::ptr_eq(&p0.doc, &p1.doc));
    assert!(Arc::ptr_eq(&p0.doc, &p2.doc));
    // ancestor/descendant relationships survive (the extension's point)
    assert!(xmldom::order::is_ancestor(&p0.doc, p0.id, p2.id));
    assert_eq!(p2.parent().unwrap().id, p1.id);
    assert_eq!(p2.string_value(), "The Rock");
}

#[test]
fn plain_by_value_destroys_relationship() {
    // the §2.2 default behaviour, for contrast
    let (_d, films, _film, name) = film_tree();
    let mut req = XrpcRequest::new("m", "f", 2);
    req.push_call(vec![
        Sequence::one(Item::Node(films)),
        Sequence::one(Item::Node(name)),
    ]);
    let back = roundtrip(&req);
    let p0 = back.calls[0][0].items()[0].as_node().unwrap().clone();
    let p1 = back.calls[0][1].items()[0].as_node().unwrap().clone();
    // <name> was a descendant of <films> at the sender; plain by-value
    // decode must sever that: p1 heads its own fragment, outside p0's
    // subtree (the decoded fragments may share one arena).
    assert!(p1.parent().is_none());
    assert!(
        !Arc::ptr_eq(&p0.doc, &p1.doc) || !xmldom::order::is_ancestor(&p0.doc, p0.id, p1.id),
        "fragments must be separate"
    );
}

#[test]
fn self_reference_and_attribute_paths() {
    let d = Arc::new(parse(r#"<a k="v"><b/></a>"#).unwrap());
    let a = d.first_child(d.root()).unwrap();
    let attr = d.attributes(a).next().unwrap();
    let mut req = XrpcRequest::new("m", "f", 3);
    req.call_by_fragment = true;
    req.push_call(vec![
        Sequence::one(Item::Node(NodeHandle::new(d.clone(), a))),
        // same node again → path ""
        Sequence::one(Item::Node(NodeHandle::new(d.clone(), a))),
        // the attribute → path "@0"
        Sequence::one(Item::Node(NodeHandle::new(d.clone(), attr))),
    ]);
    let xml = req.to_xml().unwrap();
    assert_eq!(xml.matches("xrpc:nodeid").count(), 2);
    let back = roundtrip(&req);
    let p0 = back.calls[0][0].items()[0].as_node().unwrap().clone();
    let p1 = back.calls[0][1].items()[0].as_node().unwrap().clone();
    let p2 = back.calls[0][2].items()[0].as_node().unwrap().clone();
    assert!(
        p0.same_node(&p1),
        "self reference resolves to the same node"
    );
    assert_eq!(p2.kind(), xmldom::NodeKind::Attribute);
    assert_eq!(p2.string_value(), "v");
    assert_eq!(p2.parent().unwrap().id, p0.id);
}

#[test]
fn unrelated_parameters_stay_by_value() {
    let d1 = Arc::new(parse("<x/>").unwrap());
    let d2 = Arc::new(parse("<y/>").unwrap());
    let mut req = XrpcRequest::new("m", "f", 2);
    req.call_by_fragment = true;
    req.push_call(vec![
        Sequence::one(Item::Node(NodeHandle::new(
            d1.clone(),
            d1.first_child(d1.root()).unwrap(),
        ))),
        Sequence::one(Item::Node(NodeHandle::new(
            d2.clone(),
            d2.first_child(d2.root()).unwrap(),
        ))),
    ]);
    let xml = req.to_xml().unwrap();
    assert!(!xml.contains("xrpc:nodeid"));
    let back = roundtrip(&req);
    assert_eq!(back.calls[0].len(), 2);
}

#[test]
fn message_compression_is_real() {
    // a large shared subtree referenced twice: the fragment mode message
    // must be roughly half the size
    let mut inner = String::from("<big>");
    for i in 0..200 {
        inner.push_str(&format!("<row n=\"{i}\">payload {i}</row>"));
    }
    inner.push_str("</big>");
    let d = Arc::new(parse(&format!("<top>{inner}</top>")).unwrap());
    let top = d.first_child(d.root()).unwrap();
    let big = d.first_child(top).unwrap();
    let make = |fragment: bool| {
        let mut req = XrpcRequest::new("m", "f", 2);
        req.call_by_fragment = fragment;
        req.push_call(vec![
            Sequence::one(Item::Node(NodeHandle::new(d.clone(), top))),
            Sequence::one(Item::Node(NodeHandle::new(d.clone(), big))),
        ]);
        req.to_xml().unwrap().len()
    };
    let by_value = make(false);
    let by_fragment = make(true);
    assert!(
        by_fragment * 3 < by_value * 2,
        "fragment mode ({by_fragment} B) should be much smaller than by-value ({by_value} B)"
    );
}

#[test]
fn bulk_calls_reference_within_their_own_call_only() {
    // references are per-call: the second call re-serializes the tree
    let (_d, films, _film, name) = film_tree();
    let mut req = XrpcRequest::new("m", "f", 2);
    req.call_by_fragment = true;
    for _ in 0..2 {
        req.push_call(vec![
            Sequence::one(Item::Node(films.clone())),
            Sequence::one(Item::Node(name.clone())),
        ]);
    }
    let back = roundtrip(&req);
    assert_eq!(back.calls.len(), 2);
    for call in &back.calls {
        let p0 = call[0].items()[0].as_node().unwrap();
        let p1 = call[1].items()[0].as_node().unwrap();
        // within one call, the nodeid reference resolves inside p0's fragment
        assert!(Arc::ptr_eq(&p0.doc, &p1.doc));
        assert!(xmldom::order::is_ancestor(&p0.doc, p0.id, p1.id));
    }
    // the two calls decode to separate fragments (distinct nodes, neither
    // inside the other's subtree), even if they share one arena
    let c0 = back.calls[0][0].items()[0].as_node().unwrap();
    let c1 = back.calls[1][0].items()[0].as_node().unwrap();
    assert!(!c0.same_node(c1));
    if Arc::ptr_eq(&c0.doc, &c1.doc) {
        assert!(!xmldom::order::is_ancestor(&c0.doc, c0.id, c1.id));
        assert!(!xmldom::order::is_ancestor(&c0.doc, c1.id, c0.id));
    }
}
