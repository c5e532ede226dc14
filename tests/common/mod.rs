//! The decode oracle, and what the differential tests share.
//!
//! [`oracle_decode`] is the paper's `n2s()` over a parsed message: the text
//! goes through `xmldom::parse`, the envelope is walked as a DOM and every
//! `xrpc:sequence` is handed to the public, copying `xrpc_proto::n2s` — two
//! passes and a copy where `parse_message` makes one pass and none. The two
//! must decode the same values from the same text, and refuse the same
//! texts with the same error code.
#![allow(dead_code)]

use std::sync::Arc;
use xrpc_repro::xdm::{Item, Sequence, XdmError, XdmResult};
use xrpc_repro::xmldom::qname::{NS_SOAP_ENV, NS_XRPC};
use xrpc_repro::xmldom::{self, Document, NodeHandle, NodeId, NodeKind};
use xrpc_repro::xrpc_proto::message::{
    FaultCode, ProfileMode, ProfileRequest, QueryId, TraceContext,
};
use xrpc_repro::xrpc_proto::{
    n2s, parse_message, UpdCall, XrpcFault, XrpcMessage, XrpcRequest, XrpcResponse,
};

fn named(doc: &Document, el: NodeId, ns: &str, local: &str) -> bool {
    doc.name(el).is_some_and(|n| n.is(ns, local))
}

fn attr<'d>(doc: &'d Document, el: NodeId, name: &str) -> XdmResult<&'d str> {
    doc.attr_local(el, name)
        .ok_or_else(|| XdmError::xrpc(format!("missing `{name}` attribute")))
}

/// Decode `text` the long way round. Documents what `parse_message` takes a
/// message to be: the first `env:Header` and `env:Body` of the envelope, the
/// first request, response or fault of the body, children in document
/// order, everything else ignored.
pub fn oracle_decode(text: &str) -> XdmResult<XrpcMessage> {
    let doc = xmldom::parse(text).map_err(|e| XdmError::xrpc(format!("bad SOAP XML: {e}")))?;
    let envelope = doc
        .child_elements(doc.root())
        .find(|&e| named(&doc, e, NS_SOAP_ENV, "Envelope"))
        .ok_or_else(|| XdmError::xrpc("missing env:Envelope"))?;
    let header = doc.child_element(envelope, NS_SOAP_ENV, "Header");
    let body = doc
        .child_element(envelope, NS_SOAP_ENV, "Body")
        .ok_or_else(|| XdmError::xrpc("missing env:Body"))?;
    let header_child = |local: &str| header.and_then(|h| doc.child_element(h, NS_XRPC, local));
    let message = doc.child_elements(body).find(|&m| {
        ["request", "response"]
            .iter()
            .any(|l| named(&doc, m, NS_XRPC, l))
            || named(&doc, m, NS_SOAP_ENV, "Fault")
    });
    let message = message.ok_or_else(|| XdmError::xrpc("env:Body carries no message"))?;
    if named(&doc, message, NS_XRPC, "request") {
        let mut req = XrpcRequest::new(
            attr(&doc, message, "module")?,
            attr(&doc, message, "method")?,
            attr(&doc, message, "arity")?
                .parse()
                .map_err(|_| XdmError::xrpc("bad arity attribute"))?,
        );
        req.location = doc.attr_local(message, "location").map(str::to_string);
        req.upd_call = UpdCall::of_attr(doc.attr_local(message, "updCall"));
        req.seq = doc.attr_local(message, "seq").and_then(|s| s.parse().ok());
        req.trace = header_child("trace").and_then(|t| {
            Some(TraceContext {
                trace_id: u128::from_str_radix(doc.attr_local(t, "traceId")?, 16).ok()?,
                span_id: u64::from_str_radix(doc.attr_local(t, "spanId")?, 16).ok()?,
                parent_id: (doc.attr_local(t, "parentId"))
                    .and_then(|p| u64::from_str_radix(p, 16).ok()),
            })
        });
        req.budget_millis =
            header_child("budget").and_then(|b| doc.attr_local(b, "remainingMillis")?.parse().ok());
        req.profile = header_child("profile").and_then(|p| {
            let mode = ProfileMode::parse(doc.attr_local(p, "mode")?);
            mode.is_on().then(|| ProfileRequest {
                mode,
                via: doc.attr_local(p, "via").unwrap_or_default().to_string(),
                depth: (doc.attr_local(p, "depth"))
                    .and_then(|d| d.parse().ok())
                    .unwrap_or(0),
            })
        });
        for child in doc.child_elements(message) {
            if req.query_id.is_none() && named(&doc, child, NS_XRPC, "queryID") {
                req.query_id = Some(QueryId {
                    host: attr(&doc, child, "host")?.to_string(),
                    timestamp_millis: attr(&doc, child, "timestamp")?
                        .parse()
                        .map_err(|_| XdmError::xrpc("bad queryID timestamp"))?,
                    timeout_secs: attr(&doc, child, "timeout")?
                        .parse()
                        .map_err(|_| XdmError::xrpc("bad queryID timeout"))?,
                });
            } else if named(&doc, child, NS_XRPC, "call") {
                let mut params: Vec<Sequence> = Vec::new();
                for seq in doc.child_elements(child) {
                    if named(&doc, seq, NS_XRPC, "sequence") {
                        let decoded = oracle_sequence(&doc, seq, &params)?;
                        params.push(decoded);
                    }
                }
                if params.len() != req.arity {
                    return Err(XdmError::xrpc("call does not have arity parameters"));
                }
                req.calls.push(params);
            }
        }
        Ok(XrpcMessage::Request(req))
    } else if named(&doc, message, NS_XRPC, "response") {
        let mut resp = XrpcResponse::new(
            attr(&doc, message, "module")?,
            attr(&doc, message, "method")?,
        );
        resp.committed = doc.attr_local(message, "updCall") == Some("committed");
        for child in doc.child_elements(message) {
            if named(&doc, child, NS_XRPC, "sequence") {
                resp.results.push(oracle_sequence(&doc, child, &[])?);
            } else if named(&doc, child, NS_XRPC, "participatingPeers") {
                let uris = doc
                    .child_elements(child)
                    .filter_map(|p| doc.attr_local(p, "uri"));
                resp.participating_peers.extend(uris.map(str::to_string));
            }
        }
        // the hops are compared through the decoder's own rendering below:
        // they are attributes read off a scratch DOM on both roads
        Ok(XrpcMessage::Response(resp))
    } else {
        let text_of = |outer: &str, inner: &str| {
            let outer = doc.child_element(message, NS_SOAP_ENV, outer)?;
            let inner = doc.child_element(outer, NS_SOAP_ENV, inner)?;
            Some(doc.string_value(inner))
        };
        let code = text_of("Code", "Value").unwrap_or_default();
        let reason = text_of("Reason", "Text").unwrap_or_else(|| "unknown fault".into());
        let coded = reason.strip_prefix('[').and_then(|r| r.split_once("] "));
        let (error_code, reason) = match coded {
            Some((c, r)) => (Some(c.to_string()), r.to_string()),
            None => (None, reason.clone()),
        };
        Ok(XrpcMessage::Fault(XrpcFault {
            code: match code.contains("Receiver") {
                true => FaultCode::Receiver,
                false => FaultCode::Sender,
            },
            reason,
            error_code,
        }))
    }
}

/// One `xrpc:sequence` through the public `n2s`, value by value so that an
/// `xrpc:nodeid` (which `n2s` does not know) can be resolved in between —
/// against the copies `n2s` made of the values before it.
fn oracle_sequence(doc: &Document, seq_el: NodeId, params: &[Sequence]) -> XdmResult<Sequence> {
    let by_reference = |&v: &NodeId| named(doc, v, NS_XRPC, "nodeid");
    if !doc.child_elements(seq_el).any(|v| by_reference(&v)) {
        return n2s(doc, seq_el);
    }
    let mut out = Sequence::empty();
    for child in doc.child_elements(seq_el) {
        if !by_reference(&child) {
            // a sequence of this one value: the wrapper in a scratch message
            let mut one = Document::new();
            let wrapper = one.create_element(xmldom::QName::ns("xrpc", NS_XRPC, "sequence"));
            one.append_child(one.root(), wrapper);
            // the value's names were resolved when `doc` was parsed, so the
            // copy needs none of the envelope's declarations
            let copy = one.import_subtree(doc, child);
            one.append_child(wrapper, copy);
            out.extend(n2s(&one, wrapper)?);
            continue;
        }
        let number = |name: &str| -> XdmResult<usize> {
            (doc.attr_local(child, name))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| XdmError::xrpc(format!("nodeid missing @{name}")))
        };
        let (param, item) = (number("param")?, number("item")?);
        let path = doc.attr_local(child, "path").unwrap_or("");
        let out_of_range = || XdmError::xrpc("nodeid out of range");
        let param = param.checked_sub(1).ok_or_else(out_of_range)?;
        let base_seq = match param == params.len() {
            true => out.items(),
            false => params.get(param).ok_or_else(out_of_range)?.items(),
        };
        let Some(Item::Node(base)) = item.checked_sub(1).and_then(|i| base_seq.get(i)) else {
            return Err(XdmError::xrpc("nodeid target is not a node"));
        };
        let mut cur = base.id;
        for comp in path.split('/').filter(|_| !path.is_empty()) {
            let bad = || XdmError::xrpc("bad nodeid path");
            cur = match comp.strip_prefix('@') {
                Some(k) => (base.doc.attributes(cur)).nth(k.parse().map_err(|_| bad())?),
                None => (base.doc.children(cur)).nth(comp.parse().map_err(|_| bad())?),
            }
            .ok_or_else(bad)?;
        }
        let node = NodeHandle::new(base.doc.clone(), cur);
        out.push(Item::Node(node));
    }
    Ok(out)
}

/// A decoded node is the node the other road decoded: kind, *expanded*
/// name, value, attributes and children, all the way down.
pub fn assert_same_node(a: &Document, x: NodeId, b: &Document, y: NodeId, context: &str) {
    // explicit stack: a hostile message nests deeper than the thread's own
    let mut pairs = vec![(x, y)];
    while let Some((x, y)) = pairs.pop() {
        assert_eq!(a.kind(x), b.kind(y), "{context}");
        match (a.name(x), b.name(y)) {
            (Some(m), Some(n)) => assert!(m.matches(n), "{context}: {m:?} vs {n:?}"),
            (None, None) => {}
            (m, n) => panic!("{context}: {m:?} vs {n:?}"),
        }
        if !matches!(a.kind(x), NodeKind::Element | NodeKind::Document) {
            assert_eq!(a.value(x), b.value(y), "{context}");
        }
        for (left, right) in [
            (a.attributes(x), b.attributes(y)),
            (a.children(x), b.children(y)),
        ] {
            let (left, right): (Vec<_>, Vec<_>) = (left.collect(), right.collect());
            assert_eq!(left.len(), right.len(), "{context}: below {:?}", a.name(x));
            pairs.extend(left.into_iter().zip(right));
        }
    }
}

pub fn assert_same_sequences(a: &[Sequence], b: &[Sequence], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: sequences");
    for (a, b) in a.iter().zip(b) {
        assert_eq!(a.len(), b.len(), "{context}: items");
        for pair in a.iter().zip(b.iter()) {
            match pair {
                (Item::Atomic(a), Item::Atomic(b)) => {
                    assert_eq!(a.atomic_type(), b.atomic_type(), "{context}");
                    assert_eq!(a.lexical(), b.lexical(), "{context}");
                }
                (Item::Node(a), Item::Node(b)) => {
                    assert_same_node(&a.doc, a.id, &b.doc, b.id, context)
                }
                (a, b) => panic!("{context}: {a:?} vs {b:?}"),
            }
        }
    }
}

/// The one-pass decoder and the oracle agree on `text`: the same message,
/// value for value, or the same error code. Returns whether it decoded.
pub fn assert_decodes_like_the_oracle(text: &str, context: &str) -> bool {
    match (parse_message(text), oracle_decode(text)) {
        (Ok(XrpcMessage::Request(a)), Ok(XrpcMessage::Request(b))) => {
            let head = |r: &XrpcRequest| {
                let (module, method, location) =
                    (r.module.clone(), r.method.clone(), r.location.clone());
                let ids = (r.query_id.clone(), r.upd_call, r.seq, r.arity);
                let header = (r.trace, r.budget_millis, r.profile.clone());
                format!("{module} {method} {location:?} {ids:?} {header:?}")
            };
            assert_eq!(head(&a), head(&b), "{context}");
            assert_eq!(a.calls.len(), b.calls.len(), "{context}: calls");
            for (a, b) in a.calls.iter().zip(&b.calls) {
                assert_same_sequences(a, b, context);
            }
            true
        }
        (Ok(XrpcMessage::Response(a)), Ok(XrpcMessage::Response(b))) => {
            assert_eq!((&a.module, &a.method), (&b.module, &b.method), "{context}");
            assert_eq!(a.committed, b.committed, "{context}");
            assert_eq!(a.participating_peers, b.participating_peers, "{context}");
            assert_same_sequences(&a.results, &b.results, context);
            true
        }
        (Ok(XrpcMessage::Fault(a)), Ok(XrpcMessage::Fault(b))) => {
            let all = |f: &XrpcFault| (f.code, f.reason.clone(), f.error_code.clone());
            assert_eq!(all(&a), all(&b), "{context}");
            true
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.code, b.code, "{context}: {a} vs {b}");
            false
        }
        (a, b) => panic!(
            "{context}: one pass says {:?}, the oracle {:?}",
            a.map(|m| kind_of(&m)),
            b.map(|m| kind_of(&m))
        ),
    }
}

fn kind_of(m: &XrpcMessage) -> &'static str {
    match m {
        XrpcMessage::Request(_) => "a request",
        XrpcMessage::Response(_) => "a response",
        XrpcMessage::Fault(_) => "a fault",
    }
}

/// No node of a decoded message's arena is a wrapper or a piece of the
/// envelope: what `parse_message` builds is values and nothing else.
pub fn assert_holds_values_only(sequences: &[Sequence], context: &str) {
    let mut seen: Vec<*const Document> = Vec::new();
    for item in sequences.iter().flat_map(|s| s.iter()) {
        let Item::Node(n) = item else { continue };
        if seen.contains(&Arc::as_ptr(&n.doc)) {
            continue;
        }
        seen.push(Arc::as_ptr(&n.doc));
        for id in n.doc.all_ids() {
            let foreign = (n.doc.name(id)).is_none_or(|q| {
                ![NS_XRPC, NS_SOAP_ENV].contains(&q.ns_uri.as_deref().unwrap_or(""))
            });
            assert!(foreign, "{context}: {:?} in the arena", n.doc.name(id));
        }
    }
}
