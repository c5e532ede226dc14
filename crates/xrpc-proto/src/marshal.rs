//! Parameter marshaling: the `s2n()` / `n2s()` pair of the formal
//! semantics (paper §2.2).
//!
//! `s2n` serializes an XDM sequence into an `<xrpc:sequence>` element:
//! atomic values become `<xrpc:atomic-value xsi:type="...">`, nodes are
//! wrapped per kind (`<xrpc:element>`, `<xrpc:document>`, `<xrpc:text>`,
//! `<xrpc:attribute>`, `<xrpc:comment>`, `<xrpc:pi>`).
//!
//! `n2s` is the inverse; crucially it copies every node parameter into a
//! *fresh single-fragment document*, which guarantees that upward and
//! sideways XPath axes at the callee return empty results — the paper's
//! call-by-value contract. (Returning nodes under their identity inside
//! the SOAP message would let a query navigate to the envelope, which §2.2
//! explicitly warns against.)

use std::sync::Arc;
use xdm::types::AtomicType;
use xdm::{AtomicValue, Item, Sequence, XdmError, XdmResult};
use xmldom::escape::{push_escaped_attr, push_escaped_text};
use xmldom::qname::NS_XRPC;
use xmldom::{serialize_node_into, Document, NodeHandle, NodeId, NodeKind, SerializeOpts};

/// Append the `<xrpc:sequence>` wire text of `seq` to `out`, serializing
/// node parameters straight out of their *source* documents: the only copy
/// is the serialization itself. This is `s2n()`. An element cut out of a
/// larger document declares the namespaces it inherits on its own start
/// tag (`Document::inherited_ns_decls`), so it keeps its names wherever it
/// is re-parsed.
pub fn s2n_text_into(out: &mut String, seq: &Sequence) -> XdmResult<()> {
    if seq.is_empty() {
        out.push_str("<xrpc:sequence/>");
        return Ok(());
    }
    out.push_str("<xrpc:sequence>");
    for item in seq.iter() {
        emit_item_text(out, item)?;
    }
    out.push_str("</xrpc:sequence>");
    Ok(())
}

fn emit_item_text(out: &mut String, item: &Item) -> XdmResult<()> {
    let opts = SerializeOpts::default();
    match item {
        Item::Atomic(a) => {
            out.push_str("<xrpc:atomic-value xsi:type=\"");
            push_escaped_attr(out, a.atomic_type().xs_name());
            // never self-closing, whatever the value
            out.push_str("\">");
            match a {
                // a string is its own lexical form: no copy to escape it from
                AtomicValue::String(s) | AtomicValue::UntypedAtomic(s) | AtomicValue::AnyUri(s) => {
                    push_escaped_text(out, s)
                }
                _ => push_escaped_text(out, &a.lexical()),
            }
            out.push_str("</xrpc:atomic-value>");
        }
        Item::Node(n) => match n.kind() {
            NodeKind::Element => {
                out.push_str("<xrpc:element>");
                serialize_node_into(&n.doc, n.id, &opts, out);
                out.push_str("</xrpc:element>");
            }
            NodeKind::Document => {
                if n.doc.first_child(n.id).is_none() {
                    out.push_str("<xrpc:document/>");
                } else {
                    out.push_str("<xrpc:document>");
                    for c in n.doc.children(n.id) {
                        serialize_node_into(&n.doc, c, &opts, out);
                    }
                    out.push_str("</xrpc:document>");
                }
            }
            NodeKind::Text => {
                out.push_str("<xrpc:text>");
                push_escaped_text(out, n.value());
                out.push_str("</xrpc:text>");
            }
            NodeKind::Comment => {
                out.push_str("<xrpc:comment>");
                push_escaped_text(out, n.value());
                out.push_str("</xrpc:comment>");
            }
            NodeKind::ProcessingInstruction => {
                out.push_str("<xrpc:pi>");
                serialize_node_into(&n.doc, n.id, &opts, out);
                out.push_str("</xrpc:pi>");
            }
            NodeKind::Attribute => {
                // a prefixed attribute brings its binding along, on the
                // wrapper; one that binds `xrpc` elsewhere leaves the wrapper
                // another prefix
                let binding = attribute_binding(n);
                if matches!(binding, Some(("xrpc", u)) if u != NS_XRPC) {
                    out.push_str("<x:attribute xmlns:x=\"");
                    out.push_str(NS_XRPC);
                    out.push('"');
                } else {
                    out.push_str("<xrpc:attribute");
                }
                if let Some((p, u)) = binding {
                    out.push_str(" xmlns:");
                    out.push_str(p);
                    out.push_str("=\"");
                    push_escaped_attr(out, u);
                    out.push('"');
                }
                out.push(' ');
                serialize_node_into(&n.doc, n.id, &opts, out);
                out.push_str("/>");
            }
        },
    }
    Ok(())
}

/// The (prefix, namespace) a standalone attribute's name needs declared;
/// `xml:` is bound everywhere.
pub(crate) fn attribute_binding(attr: &NodeHandle) -> Option<(&str, &str)> {
    let name = attr.name()?;
    match (name.prefix.as_deref(), name.ns_uri.as_deref()) {
        (Some(p), Some(u)) if !p.is_empty() && p != "xml" => Some((p, u)),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Call-by-fragment (the paper's footnote-4 protocol extension)
// ---------------------------------------------------------------------

/// Marshal *all* parameter sequences of one call, compressing node
/// parameters that are a descendant-or-self of an already-serialized node
/// parameter into an `<xrpc:nodeid param=".." item=".." path=".."/>`
/// reference (the paper's planned `xrpc:nodeid` extension, footnote 4).
/// The receiver resolves the reference *inside the referenced fragment*,
/// so ancestor/descendant relationships among parameters survive the trip
/// — unlike plain by-value marshaling.
pub(crate) fn s2n_call_text_into(out: &mut String, params: &[Sequence]) -> XdmResult<()> {
    // (param index, item index, original handle) of every fully
    // serialized element/document parameter so far
    let mut serialized: Vec<(usize, usize, &NodeHandle)> = Vec::new();
    for (pi, seq) in params.iter().enumerate() {
        if seq.is_empty() {
            out.push_str("<xrpc:sequence/>");
            continue;
        }
        out.push_str("<xrpc:sequence>");
        for (ii, item) in seq.iter().enumerate() {
            if let Item::Node(n) = item {
                if let Some((ppi, pii, rel)) = find_enclosing(&serialized, n) {
                    out.push_str(&format!(
                        "<xrpc:nodeid param=\"{}\" item=\"{}\" path=\"{rel}\"/>",
                        ppi + 1,
                        pii + 1
                    ));
                    continue;
                }
                if matches!(n.kind(), NodeKind::Element | NodeKind::Document) {
                    serialized.push((pi, ii, n));
                }
            }
            emit_item_text(out, item)?;
        }
        out.push_str("</xrpc:sequence>");
    }
    Ok(())
}

/// If `n` lives inside one of the already-serialized fragments, return
/// (param, item, relative child-index path).
pub(crate) fn find_enclosing(
    serialized: &[(usize, usize, &NodeHandle)],
    n: &NodeHandle,
) -> Option<(usize, usize, String)> {
    for (pi, ii, anc) in serialized {
        if !std::sync::Arc::ptr_eq(&anc.doc, &n.doc) {
            continue;
        }
        if let Some(path) = relative_path(&anc.doc, anc.id, n.id) {
            return Some((*pi, *ii, path));
        }
    }
    None
}

/// Child-index path from `anc` down to `node` (`""` for self). Attribute
/// leaves are encoded as `@k`.
fn relative_path(doc: &Document, anc: NodeId, node: NodeId) -> Option<String> {
    let mut components: Vec<String> = Vec::new();
    let mut cur = node;
    while cur != anc {
        let parent = doc.parent(cur)?;
        if doc.kind(cur) == NodeKind::Attribute {
            let k = doc.attributes(parent).position(|a| a == cur)?;
            components.push(format!("@{k}"));
        } else {
            let k = doc.children(parent).position(|c| c == cur)?;
            components.push(k.to_string());
        }
        cur = parent;
    }
    components.reverse();
    Some(components.join("/"))
}

/// Decode an `<xrpc:sequence>` element back into an XDM sequence. This is
/// `n2s()`: every node comes back copied, as a parentless root of one fresh
/// arena the sequence's nodes share (a document node: of its own document).
pub fn n2s(msg: &Document, seq_el: NodeId) -> XdmResult<Sequence> {
    let mut arena = Document::new();
    let values = (msg.child_elements(seq_el))
        .map(|child| decode_value(msg, child, &mut arena))
        .collect::<XdmResult<Vec<_>>>()?;
    let arena = Arc::new(arena);
    Ok(values
        .into_iter()
        .map(|v| match v {
            Value::Item(item) => item,
            Value::InArena(id) => Item::Node(NodeHandle::new(arena.clone(), id)),
        })
        .collect())
}

/// A decoded value: an item, or a node of the arena not yet shared.
enum Value {
    Item(Item),
    InArena(NodeId),
}

/// The local name of a value wrapper, which must be an `xrpc:` element.
fn wrapper_local(msg: &Document, child: NodeId) -> XdmResult<&str> {
    let name = msg
        .node(child)
        .name
        .as_deref()
        .ok_or_else(|| XdmError::xrpc("unnamed element in xrpc:sequence"))?;
    if name.ns_uri.as_deref() != Some(NS_XRPC) {
        return Err(XdmError::xrpc(format!(
            "unexpected element `{}` in xrpc:sequence",
            name.lexical()
        )));
    }
    Ok(&name.local)
}

/// Decode one value wrapper element, copying a node value into `arena`.
fn decode_value(msg: &Document, child: NodeId, arena: &mut Document) -> XdmResult<Value> {
    Ok(match wrapper_local(msg, child)? {
        "atomic-value" => {
            let ty_lex = msg
                .attr_local(child, "type")
                .ok_or_else(|| XdmError::xrpc("atomic-value without xsi:type"))?;
            let ty = AtomicType::from_xs_name(ty_lex)
                .ok_or_else(|| XdmError::xrpc(format!("unsupported xsi:type `{ty_lex}`")))?;
            let lexical = msg.string_value(child);
            Value::Item(Item::Atomic(AtomicValue::parse_as(&lexical, ty)?))
        }
        "element" => {
            let inner = msg
                .child_elements(child)
                .next()
                .ok_or_else(|| XdmError::xrpc("empty xrpc:element wrapper"))?;
            Value::InArena(arena.import_subtree(msg, inner))
        }
        "document" => {
            let mut d = Document::new();
            let root = d.root();
            for c in msg.children(child) {
                let copy = d.import_subtree(msg, c);
                d.append_child(root, copy);
            }
            Value::Item(Item::Node(NodeHandle::root(Arc::new(d))))
        }
        "text" => Value::InArena(arena.create_text(msg.string_value(child))),
        "comment" => Value::InArena(arena.create_comment(msg.string_value(child))),
        "pi" => {
            // the wrapper carries the PI node itself
            let pi = msg
                .children(child)
                .find(|&c| msg.kind(c) == NodeKind::ProcessingInstruction)
                .ok_or_else(|| XdmError::xrpc("xrpc:pi wrapper without a PI"))?;
            Value::InArena(arena.import_subtree(msg, pi))
        }
        "attribute" => {
            let attr = msg
                .attributes(child)
                .next()
                .ok_or_else(|| XdmError::xrpc("xrpc:attribute wrapper without an attribute"))?;
            Value::InArena(arena.import_subtree(msg, attr))
        }
        other => {
            return Err(XdmError::xrpc(format!(
                "unknown value wrapper xrpc:{other}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xdm::Decimal;
    use xmldom::parse;
    use xmldom::qname::NS_XSI;

    /// Marshal one sequence, wrap it the way an envelope would (the fixed
    /// prefixes declared above it) and parse it: (message, sequence element).
    fn roundtrip_doc(seq: &Sequence) -> (Document, NodeId) {
        let mut xml = format!(
            "<xrpc:call xmlns:xrpc=\"{}\" xmlns:xsi=\"{}\" xmlns:xs=\"{}\">",
            NS_XRPC,
            NS_XSI,
            xmldom::qname::NS_XS
        );
        s2n_text_into(&mut xml, seq).unwrap();
        xml.push_str("</xrpc:call>");
        let doc = parse(&xml).unwrap();
        let call = doc.first_child(doc.root()).unwrap();
        let seq_el = doc.child_elements(call).next().unwrap();
        (doc, seq_el)
    }

    fn roundtrip(seq: &Sequence) -> Sequence {
        let (doc, seq_el) = roundtrip_doc(seq);
        n2s(&doc, seq_el).unwrap()
    }

    #[test]
    fn atomic_values_roundtrip_with_types() {
        let seq = Sequence::from_items(vec![
            Item::Atomic(AtomicValue::Integer(2)),
            Item::Atomic(AtomicValue::Double(3.1)),
            Item::Atomic(AtomicValue::String("Sean Connery".into())),
            Item::Atomic(AtomicValue::Boolean(true)),
            Item::Atomic(AtomicValue::Decimal(Decimal::parse("1.25").unwrap())),
        ]);
        let back = roundtrip(&seq);
        assert_eq!(back.len(), 5);
        for (a, b) in seq.iter().zip(back.iter()) {
            let (x, y) = (a.atomize(), b.atomize());
            assert_eq!(x.atomic_type(), y.atomic_type());
            assert_eq!(x.lexical(), y.lexical());
        }
    }

    #[test]
    fn element_nodes_roundtrip_by_value() {
        let d =
            Arc::new(parse("<films><name>The Rock</name><name>Goldfinger</name></films>").unwrap());
        let films = d.first_child(d.root()).unwrap();
        let names: Vec<Item> = d
            .children(films)
            .map(|n| Item::Node(NodeHandle::new(d.clone(), n)))
            .collect();
        let back = roundtrip(&Sequence::from_items(names));
        assert_eq!(back.len(), 2);
        let n0 = back.items()[0].as_node().unwrap();
        assert_eq!(n0.to_xml(), "<name>The Rock</name>");
        // by-value: no parent at the receiver
        assert!(n0.parent().is_none() || n0.parent().unwrap().kind() == NodeKind::Document);
        assert!(xmldom::axes::step(n0, xmldom::axes::Axis::FollowingSibling).is_empty());
    }

    #[test]
    fn marshaled_element_cannot_see_envelope() {
        let d = Arc::new(parse("<x><y/></x>").unwrap());
        let x = d.first_child(d.root()).unwrap();
        let seq = Sequence::one(Item::Node(NodeHandle::new(d, x)));
        let back = roundtrip(&seq);
        let node = back.items()[0].as_node().unwrap();
        // ancestors stop at the fragment — the SOAP envelope is unreachable
        let ancestors = xmldom::axes::step(node, xmldom::axes::Axis::Ancestor);
        assert!(ancestors.len() <= 1); // at most the fragment document node
    }

    #[test]
    fn text_comment_pi_attribute_roundtrip() {
        let d = Arc::new(parse(r#"<a k="v"><!--c-->text<?t data?></a>"#).unwrap());
        let a = d.first_child(d.root()).unwrap();
        let comment = d.first_child(a).unwrap();
        let text = d.children(a).nth(1).unwrap();
        let pi = d.children(a).nth(2).unwrap();
        let attr = d.attributes(a).next().unwrap();
        let seq = Sequence::from_items(vec![
            Item::Node(NodeHandle::new(d.clone(), comment)),
            Item::Node(NodeHandle::new(d.clone(), text)),
            Item::Node(NodeHandle::new(d.clone(), pi)),
            Item::Node(NodeHandle::new(d.clone(), attr)),
        ]);
        let back = roundtrip(&seq);
        assert_eq!(back.len(), 4);
        assert_eq!(back.items()[0].as_node().unwrap().kind(), NodeKind::Comment);
        assert_eq!(back.items()[0].string_value(), "c");
        assert_eq!(back.items()[1].as_node().unwrap().kind(), NodeKind::Text);
        assert_eq!(back.items()[1].string_value(), "text");
        assert_eq!(
            back.items()[2].as_node().unwrap().kind(),
            NodeKind::ProcessingInstruction
        );
        let attr_back = back.items()[3].as_node().unwrap();
        assert_eq!(attr_back.kind(), NodeKind::Attribute);
        assert_eq!(attr_back.name().unwrap().local, "k");
        assert_eq!(attr_back.string_value(), "v");
    }

    #[test]
    fn document_node_roundtrip() {
        let d = Arc::new(parse("<root><a/></root>").unwrap());
        let seq = Sequence::one(Item::Node(NodeHandle::root(d)));
        let back = roundtrip(&seq);
        let n = back.items()[0].as_node().unwrap();
        assert_eq!(n.kind(), NodeKind::Document);
        assert_eq!(n.to_xml(), "<root><a/></root>");
    }

    #[test]
    fn heterogeneous_sequence_example_from_paper() {
        // "the heterogeneously typed sequence consisting of an integer 2
        //  and double 3.1"
        let seq = Sequence::from_items(vec![
            Item::Atomic(AtomicValue::Integer(2)),
            Item::Atomic(AtomicValue::Double(3.1)),
        ]);
        let (doc, seq_el) = roundtrip_doc(&seq);
        let kids: Vec<NodeId> = doc.child_elements(seq_el).collect();
        assert_eq!(doc.attr_local(kids[0], "type"), Some("xs:integer"));
        assert_eq!(doc.attr_local(kids[1], "type"), Some("xs:double"));
        assert_eq!(doc.string_value(kids[0]), "2");
        assert_eq!(doc.string_value(kids[1]), "3.1");
    }

    #[test]
    fn empty_sequence_roundtrip() {
        let back = roundtrip(&Sequence::empty());
        assert!(back.is_empty());
    }

    #[test]
    fn special_characters_in_atomics() {
        let seq = Sequence::one(Item::string("a<b>&\"'c"));
        let back = roundtrip(&seq);
        assert_eq!(back.items()[0].string_value(), "a<b>&\"'c");
    }

    #[test]
    fn user_defined_type_annotation_preserved() {
        // values of user-defined named types keep their xsi:type annotation
        let d = Arc::new(
            parse(
                r#"<v xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="my:temp">37</v>"#,
            )
            .unwrap(),
        );
        let v = d.first_child(d.root()).unwrap();
        let seq = Sequence::one(Item::Node(NodeHandle::new(d, v)));
        let back = roundtrip(&seq);
        let n = back.items()[0].as_node().unwrap();
        assert_eq!(n.type_annotation(), Some("my:temp"));
    }
}
