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

use xdm::types::AtomicType;
use xdm::{AtomicValue, Item, Sequence, XdmError, XdmResult};
use xmldom::escape::{push_escaped_attr, push_escaped_text};
use xmldom::qname::NS_XRPC;
use xmldom::{serialize_node_into, Document, NodeHandle, NodeId, NodeKind, QName, SerializeOpts};

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
            push_escaped_text(out, &a.lexical());
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
                out.push_str("<xrpc:attribute");
                // a prefixed attribute brings its binding along, on the wrapper
                if let Some((p, u)) = attribute_binding(n) {
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
/// `n2s()`: every node comes back as the root of a fresh fragment.
pub fn n2s(msg: &Document, seq_el: NodeId) -> XdmResult<Sequence> {
    let mut out = Sequence::empty();
    for child in msg.children(seq_el) {
        if msg.kind(child) != NodeKind::Element {
            continue; // ignorable whitespace between values
        }
        out.push(decode_value(msg, child)?);
    }
    Ok(out)
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

/// Decode one value wrapper element into an item.
fn decode_value(msg: &Document, child: NodeId) -> XdmResult<Item> {
    {
        match wrapper_local(msg, child)? {
            "atomic-value" => {
                let ty_lex = msg
                    .attr_local(child, "type")
                    .ok_or_else(|| XdmError::xrpc("atomic-value without xsi:type"))?;
                let ty = AtomicType::from_xs_name(ty_lex)
                    .ok_or_else(|| XdmError::xrpc(format!("unsupported xsi:type `{ty_lex}`")))?;
                let lexical = msg.string_value(child);
                Ok(Item::Atomic(AtomicValue::parse_as(&lexical, ty)?))
            }
            "element" => {
                let inner = msg
                    .child_elements(child)
                    .next()
                    .ok_or_else(|| XdmError::xrpc("empty xrpc:element wrapper"))?;
                Ok(Item::Node(fresh_fragment(msg, inner)?))
            }
            "document" => {
                let mut d = Document::new();
                let root = d.root();
                for c in msg.children(child) {
                    let copy = d.import_subtree(msg, c);
                    d.append_child(root, copy);
                }
                Ok(Item::Node(NodeHandle::root(std::sync::Arc::new(d))))
            }
            "text" => {
                let mut d = Document::new();
                let t = d.create_text(msg.string_value(child));
                Ok(Item::Node(NodeHandle::new(std::sync::Arc::new(d), t)))
            }
            "comment" => {
                let mut d = Document::new();
                let t = d.create_comment(msg.string_value(child));
                Ok(Item::Node(NodeHandle::new(std::sync::Arc::new(d), t)))
            }
            "pi" => {
                // the wrapper carries the PI node itself
                let pi = msg
                    .children(child)
                    .find(|&c| msg.kind(c) == NodeKind::ProcessingInstruction)
                    .ok_or_else(|| XdmError::xrpc("xrpc:pi wrapper without a PI"))?;
                Ok(Item::Node(fresh_fragment(msg, pi)?))
            }
            "attribute" => {
                let attr = msg
                    .attributes(child)
                    .next()
                    .ok_or_else(|| XdmError::xrpc("xrpc:attribute wrapper without an attribute"))?;
                let mut d = Document::new();
                let copy = d.import_subtree(msg, attr);
                Ok(Item::Node(NodeHandle::new(std::sync::Arc::new(d), copy)))
            }
            other => Err(XdmError::xrpc(format!(
                "unknown value wrapper xrpc:{other}"
            ))),
        }
    }
}

/// Copy `src_id` out of the message into a fresh detached document — the
/// by-value guarantee.
fn fresh_fragment(msg: &Document, src_id: NodeId) -> XdmResult<NodeHandle> {
    let mut d = Document::new();
    let copy = d.import_subtree(msg, src_id);
    Ok(NodeHandle::new(std::sync::Arc::new(d), copy))
}

// ---------------------------------------------------------------------
// Zero-copy decode: detach fragments in place instead of deep-copying
// ---------------------------------------------------------------------

/// Phase-1 result of decoding one value wrapper: atomics are complete,
/// node values are *detached in place* inside the (still mutable) message
/// arena and referenced by id until the arena is frozen behind an `Arc`.
enum Pending {
    Ready(Item),
    Node(NodeId),
}

/// All items of one decoded `<xrpc:sequence>`, awaiting the arena freeze.
pub struct PendingSequence(Vec<Pending>);

impl PendingSequence {
    /// Phase 2: turn ids into handles sharing the frozen message arena. A
    /// pending value is as wide as an item, so the collect below rewrites
    /// the vector in place (`pending_values_convert_in_place`).
    pub fn finish(self, arc: &std::sync::Arc<Document>) -> Sequence {
        let item = |p| match p {
            Pending::Ready(item) => item,
            Pending::Node(id) => Item::Node(NodeHandle::new(arc.clone(), id)),
        };
        Sequence::from_items(self.0.into_iter().map(item).collect())
    }
}

/// `n2s()` without the per-item deep copy: each node value is detached from
/// its wrapper in place (`parent := None`), so the whole message keeps ONE
/// arena and decoding allocates nothing per item beyond the id list.
///
/// The call-by-value contract survives because detaching severs the upward
/// and sideways links: ancestor/parent/sibling axes from the fragment root
/// see nothing — exactly what the fresh-fragment copy guaranteed, minus the
/// copy. The price is that the envelope arena stays alive as long as any
/// decoded fragment does (documented in DESIGN.md).
pub fn n2s_detach(msg: &mut Document, seq_el: NodeId) -> XdmResult<PendingSequence> {
    decode_sequence_detach(msg, seq_el, &[])
}

/// All parameter sequences of one `<xrpc:call>`, decoded like
/// [`n2s_detach`]. `<xrpc:nodeid>` references resolve to ids *inside*
/// fragments detached earlier in the same call — same arena, so no
/// cross-document bookkeeping at all.
pub fn n2s_call_detach(msg: &mut Document, call: NodeId) -> XdmResult<Vec<PendingSequence>> {
    let is_seq = |n: &QName| n.is(NS_XRPC, "sequence");
    let seq_els: Vec<NodeId> = msg
        .child_elements(call)
        .filter(|&s| msg.node(s).name.as_deref().is_some_and(is_seq))
        .collect();
    let mut decoded: Vec<PendingSequence> = Vec::with_capacity(seq_els.len());
    for seq_el in seq_els {
        let seq = decode_sequence_detach(msg, seq_el, &decoded)?;
        decoded.push(seq);
    }
    Ok(decoded)
}

/// One `<xrpc:sequence>`; `decoded` are the earlier parameters of the call.
fn decode_sequence_detach(
    msg: &mut Document,
    seq_el: NodeId,
    decoded: &[PendingSequence],
) -> XdmResult<PendingSequence> {
    let mut out = Vec::with_capacity(wrapper_count_hint(msg, seq_el));
    // a cursor, not an iterator: decoding relinks nodes below `child`
    let mut next = msg.first_child(seq_el);
    while let Some(child) = next {
        next = msg.next_sibling(child);
        if msg.kind(child) != NodeKind::Element {
            continue; // ignorable whitespace between values
        }
        let name = msg.node(child).name.as_deref();
        out.push(if name.is_some_and(|n| n.is(NS_XRPC, "nodeid")) {
            resolve_nodeid_detached(msg, child, decoded, &out)?
        } else {
            decode_value_detach(msg, child)?
        });
    }
    Ok(PendingSequence(out))
}

/// How many value wrappers `seq_el` holds, without walking them: the parser
/// numbers nodes in document order, so wrappers of one shape (a bulk
/// payload's) sit a constant stride apart. A capacity hint only — of mixed
/// shapes it may be off either way — and never beyond the arena's size.
fn wrapper_count_hint(msg: &Document, seq_el: NodeId) -> usize {
    let (Some(first), Some(last)) = (msg.first_child(seq_el), msg.last_child(seq_el)) else {
        return 0;
    };
    let stride = msg
        .next_sibling(first)
        .map_or(1, |second| second.index().abs_diff(first.index()).max(1));
    (last.index().abs_diff(first.index()) / stride + 1).min(msg.len())
}

/// Decode one wrapper, detaching node values in place.
fn decode_value_detach(msg: &mut Document, child: NodeId) -> XdmResult<Pending> {
    match wrapper_local(msg, child)? {
        "atomic-value" => {
            let ty_lex = msg
                .attr_local(child, "type")
                .ok_or_else(|| XdmError::xrpc("atomic-value without xsi:type"))?;
            let ty = AtomicType::from_xs_name(ty_lex)
                .ok_or_else(|| XdmError::xrpc(format!("unsupported xsi:type `{ty_lex}`")))?;
            let lexical = msg.string_value(child);
            Ok(Pending::Ready(Item::Atomic(AtomicValue::parse_as(
                &lexical, ty,
            )?)))
        }
        "element" => {
            let inner = msg
                .child_elements(child)
                .next()
                .ok_or_else(|| XdmError::xrpc("empty xrpc:element wrapper"))?;
            msg.detach(inner);
            Ok(Pending::Node(inner))
        }
        "document" => {
            // Reparent the wrapper's children under a synthetic document
            // node in the same arena (a relink per child, nothing copied).
            let doc_node = msg.create_document_node();
            while let Some(k) = msg.first_child(child) {
                msg.append_child(doc_node, k);
            }
            Ok(Pending::Node(doc_node))
        }
        "text" => {
            // The parser coalesces entity references, so the wrapper holds a
            // single text child in the common case — detach it as-is.
            // CDATA-split content falls back to a concatenated copy.
            match msg.first_child(child) {
                Some(t) if msg.kind(t) == NodeKind::Text && msg.next_sibling(t).is_none() => {
                    msg.detach(t);
                    Ok(Pending::Node(t))
                }
                _ => {
                    let v = msg.string_value(child);
                    Ok(Pending::Node(msg.create_text(v)))
                }
            }
        }
        "comment" => {
            let v = msg.string_value(child);
            Ok(Pending::Node(msg.create_comment(v)))
        }
        "pi" => {
            let pi = msg
                .children(child)
                .find(|&c| msg.kind(c) == NodeKind::ProcessingInstruction)
                .ok_or_else(|| XdmError::xrpc("xrpc:pi wrapper without a PI"))?;
            msg.detach(pi);
            Ok(Pending::Node(pi))
        }
        "attribute" => {
            let attr = msg
                .attributes(child)
                .next()
                .ok_or_else(|| XdmError::xrpc("xrpc:attribute wrapper without an attribute"))?;
            msg.detach(attr);
            Ok(Pending::Node(attr))
        }
        other => Err(XdmError::xrpc(format!(
            "unknown value wrapper xrpc:{other}"
        ))),
    }
}

/// [`resolve_nodeid`] against detached in-arena fragments: the base item is
/// a `Pending::Node` id and the child-index path walks the same arena.
fn resolve_nodeid_detached(
    msg: &Document,
    el: NodeId,
    decoded: &[PendingSequence],
    current: &[Pending],
) -> XdmResult<Pending> {
    let param: usize = msg
        .attr_local(el, "param")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| XdmError::xrpc("nodeid missing @param"))?;
    let item: usize = msg
        .attr_local(el, "item")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| XdmError::xrpc("nodeid missing @item"))?;
    let path = msg.attr_local(el, "path").unwrap_or("");
    // 1-based on the wire, and hostile: 0 is out of range, not an underflow
    let out_of_range = || XdmError::xrpc("nodeid @param out of range");
    let param = param.checked_sub(1).ok_or_else(out_of_range)?;
    let base_seq: &[Pending] = if param == decoded.len() {
        current
    } else {
        &decoded.get(param).ok_or_else(out_of_range)?.0
    };
    let base = match item.checked_sub(1).and_then(|i| base_seq.get(i)) {
        Some(Pending::Node(id)) => *id,
        _ => return Err(XdmError::xrpc("nodeid target is not a node")),
    };
    let mut cur = base;
    if !path.is_empty() {
        for comp in path.split('/') {
            if let Some(k) = comp.strip_prefix('@') {
                let k: usize = k
                    .parse()
                    .map_err(|_| XdmError::xrpc("bad nodeid path component"))?;
                cur = msg
                    .attributes(cur)
                    .nth(k)
                    .ok_or_else(|| XdmError::xrpc("nodeid attribute index out of range"))?;
            } else {
                let k: usize = comp
                    .parse()
                    .map_err(|_| XdmError::xrpc("bad nodeid path component"))?;
                cur = msg
                    .children(cur)
                    .nth(k)
                    .ok_or_else(|| XdmError::xrpc("nodeid child index out of range"))?;
            }
        }
    }
    Ok(Pending::Node(cur))
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

    #[test]
    fn pending_values_convert_in_place() {
        let mut msg = parse(&format!(
            "<xrpc:sequence xmlns:xrpc=\"{NS_XRPC}\">{}</xrpc:sequence>",
            "<xrpc:element><c>x</c></xrpc:element>".repeat(100)
        ))
        .unwrap();
        let seq_el = msg.first_child(msg.root()).unwrap();
        // equal wrappers: the stride guess is exact, so the vector never grows
        assert_eq!(wrapper_count_hint(&msg, seq_el), 100);
        let pending = n2s_detach(&mut msg, seq_el).unwrap();
        let (at, capacity) = (pending.0.as_ptr() as usize, pending.0.capacity());
        assert_eq!(capacity, 100);
        let seq = pending.finish(&Arc::new(msg));
        assert_eq!(seq.len(), 100);
        assert_eq!(seq.items().as_ptr() as usize, at, "finish reallocated");
    }
}
