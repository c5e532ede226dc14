//! Structural validation of XRPC messages — the stand-in for XRPC.xsd
//! schema validation (see DESIGN.md substitution table).

use xdm::{XdmError, XdmResult};
use xmldom::qname::{NS_SOAP_ENV, NS_XRPC};
use xmldom::{Document, NodeId};

/// Validate that `xml` is a well-formed SOAP XRPC message with the exact
/// structure the XRPC.xsd schema prescribes. Returns the kind of message.
pub fn validate_message(xml: &str) -> XdmResult<&'static str> {
    let doc = xmldom::parse(xml).map_err(|e| XdmError::xrpc(format!("not well-formed: {e}")))?;
    let envelope = single_element_child(&doc, doc.root())?;
    expect_name(&doc, envelope, NS_SOAP_ENV, "Envelope")?;
    let elems: Vec<NodeId> = doc.child_elements(envelope).collect();
    // Header is optional; Body is required and last.
    let body = match elems.as_slice() {
        [b] => {
            expect_name(&doc, *b, NS_SOAP_ENV, "Body")?;
            *b
        }
        [h, b] => {
            expect_name(&doc, *h, NS_SOAP_ENV, "Header")?;
            expect_name(&doc, *b, NS_SOAP_ENV, "Body")?;
            *b
        }
        _ => return Err(XdmError::xrpc("Envelope must contain [Header,] Body")),
    };
    let payload = single_element_child(&doc, body)?;
    let name = doc
        .node(payload)
        .name
        .clone()
        .ok_or_else(|| XdmError::xrpc("unnamed payload"))?;
    if name.is(NS_XRPC, "request") {
        validate_request(&doc, payload)?;
        Ok("request")
    } else if name.is(NS_XRPC, "response") {
        validate_response(&doc, payload)?;
        Ok("response")
    } else if name.is(NS_SOAP_ENV, "Fault") {
        Ok("fault")
    } else {
        Err(XdmError::xrpc(format!(
            "unexpected payload `{}`",
            name.lexical()
        )))
    }
}

fn validate_request(doc: &Document, req: NodeId) -> XdmResult<()> {
    for a in ["module", "method", "arity"] {
        if doc.attr_local(req, a).is_none() {
            return Err(XdmError::xrpc(format!("request missing @{a}")));
        }
    }
    let arity: usize = doc
        .attr_local(req, "arity")
        .unwrap()
        .parse()
        .map_err(|_| XdmError::xrpc("@arity must be a non-negative integer"))?;
    let mut ncalls = 0;
    for child in doc.child_elements(req) {
        let n = doc.node(child).name.as_ref().unwrap();
        if n.is(NS_XRPC, "queryID") {
            for a in ["host", "timestamp", "timeout"] {
                if doc.attr_local(child, a).is_none() {
                    return Err(XdmError::xrpc(format!("queryID missing @{a}")));
                }
            }
        } else if n.is(NS_XRPC, "call") {
            ncalls += 1;
            let seqs = doc
                .child_elements(child)
                .filter(|&s| {
                    doc.node(s)
                        .name
                        .as_ref()
                        .is_some_and(|nm| nm.is(NS_XRPC, "sequence"))
                })
                .count();
            if seqs != arity {
                return Err(XdmError::xrpc(format!(
                    "call carries {seqs} sequences, arity is {arity}"
                )));
            }
            for seq in doc.child_elements(child) {
                validate_sequence(doc, seq)?;
            }
        } else {
            return Err(XdmError::xrpc(format!(
                "unexpected request child `{}`",
                n.lexical()
            )));
        }
    }
    if ncalls == 0 {
        return Err(XdmError::xrpc("request must carry at least one call"));
    }
    Ok(())
}

fn validate_response(doc: &Document, resp: NodeId) -> XdmResult<()> {
    for a in ["module", "method"] {
        if doc.attr_local(resp, a).is_none() {
            return Err(XdmError::xrpc(format!("response missing @{a}")));
        }
    }
    for child in doc.child_elements(resp) {
        let n = doc.node(child).name.as_ref().unwrap();
        if n.is(NS_XRPC, "sequence") {
            validate_sequence(doc, child)?;
        } else if !n.is(NS_XRPC, "participatingPeers") {
            return Err(XdmError::xrpc(format!(
                "unexpected response child `{}`",
                n.lexical()
            )));
        }
    }
    Ok(())
}

fn validate_sequence(doc: &Document, seq: NodeId) -> XdmResult<()> {
    const WRAPPERS: &[&str] = &[
        "atomic-value",
        "element",
        "document",
        "text",
        "comment",
        "pi",
        "attribute",
        "nodeid",
    ];
    for v in doc.child_elements(seq) {
        let n = doc.node(v).name.as_ref().unwrap();
        if n.ns_uri.as_deref() != Some(NS_XRPC) || !WRAPPERS.contains(&n.local.as_str()) {
            return Err(XdmError::xrpc(format!(
                "invalid sequence member `{}`",
                n.lexical()
            )));
        }
        if n.local == "atomic-value" && doc.attr_local(v, "type").is_none() {
            return Err(XdmError::xrpc("atomic-value missing xsi:type"));
        }
    }
    Ok(())
}

fn single_element_child(doc: &Document, parent: NodeId) -> XdmResult<NodeId> {
    let mut elems = doc.child_elements(parent);
    match (elems.next(), elems.next()) {
        (Some(one), None) => Ok(one),
        _ => Err(XdmError::xrpc("expected exactly one element child")),
    }
}

fn expect_name(doc: &Document, el: NodeId, uri: &str, local: &str) -> XdmResult<()> {
    if doc.node(el).name.as_ref().is_some_and(|n| n.is(uri, local)) {
        Ok(())
    } else {
        Err(XdmError::xrpc(format!("expected {{{uri}}}{local}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{XrpcFault, XrpcRequest, XrpcResponse};
    use xdm::{Item, Sequence};

    #[test]
    fn generated_messages_validate() {
        let mut req = XrpcRequest::new("films", "filmsByActor", 1);
        req.push_call(vec![Sequence::one(Item::string("x"))]);
        assert_eq!(validate_message(&req.to_xml().unwrap()).unwrap(), "request");

        let mut resp = XrpcResponse::new("films", "filmsByActor");
        resp.results.push(Sequence::empty());
        assert_eq!(
            validate_message(&resp.to_xml().unwrap()).unwrap(),
            "response"
        );

        let fault = XrpcFault {
            code: crate::message::FaultCode::Sender,
            reason: "x".into(),
            error_code: None,
        };
        assert_eq!(validate_message(&fault.to_xml()).unwrap(), "fault");
    }

    #[test]
    fn paper_request_example_validates() {
        // the verbatim §2.1 request message (reformatted)
        let xml = r#"<?xml version="1.0" encoding="utf-8"?>
<env:Envelope xmlns:xrpc="http://monetdb.cwi.nl/XQuery"
 xmlns:env="http://www.w3.org/2003/05/soap-envelope"
 xmlns:xs="http://www.w3.org/2001/XMLSchema"
 xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
 xsi:schemaLocation="http://monetdb.cwi.nl/XQuery
 http://monetdb.cwi.nl/XQuery/XRPC.xsd">
<env:Body>
<xrpc:request module="films" method="filmsByActor" arity="1"
 location="http://x.example.org/film.xq">
<xrpc:call>
<xrpc:sequence>
<xrpc:atomic-value xsi:type="xs:string">Sean Connery</xrpc:atomic-value>
</xrpc:sequence>
</xrpc:call>
</xrpc:request>
</env:Body>
</env:Envelope>"#;
        assert_eq!(validate_message(xml).unwrap(), "request");
        match crate::parse_message(xml).unwrap() {
            crate::XrpcMessage::Request(r) => {
                assert_eq!(r.module, "films");
                assert_eq!(r.calls[0][0].items()[0].string_value(), "Sean Connery");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn structural_errors_caught() {
        // missing arity
        let xml = r#"<env:Envelope xmlns:xrpc="http://monetdb.cwi.nl/XQuery"
 xmlns:env="http://www.w3.org/2003/05/soap-envelope">
<env:Body><xrpc:request module="m" method="f"><xrpc:call/></xrpc:request></env:Body>
</env:Envelope>"#;
        assert!(validate_message(xml).is_err());
        // no calls
        let xml2 = r#"<env:Envelope xmlns:xrpc="http://monetdb.cwi.nl/XQuery"
 xmlns:env="http://www.w3.org/2003/05/soap-envelope">
<env:Body><xrpc:request module="m" method="f" arity="0"/></env:Body>
</env:Envelope>"#;
        assert!(validate_message(xml2).is_err());
        // foreign element inside sequence
        let xml3 = r#"<env:Envelope xmlns:xrpc="http://monetdb.cwi.nl/XQuery"
 xmlns:env="http://www.w3.org/2003/05/soap-envelope">
<env:Body><xrpc:request module="m" method="f" arity="1">
<xrpc:call><xrpc:sequence><evil/></xrpc:sequence></xrpc:call>
</xrpc:request></env:Body></env:Envelope>"#;
        assert!(validate_message(xml3).is_err());
    }

    #[test]
    fn header_allowed() {
        let xml = r#"<env:Envelope xmlns:xrpc="http://monetdb.cwi.nl/XQuery"
 xmlns:env="http://www.w3.org/2003/05/soap-envelope">
<env:Header/>
<env:Body><xrpc:request module="m" method="f" arity="0"><xrpc:call/></xrpc:request></env:Body>
</env:Envelope>"#;
        assert_eq!(validate_message(xml).unwrap(), "request");
    }
}
