//! XML serialization (the inverse of the parser, used for wire messages and
//! for `fn:put` / debugging output).
//!
//! Serialization is iterative (it follows the arena's links, no recursion)
//! so deeply nested documents cannot overflow the thread stack, and every
//! entry point has an `_into` variant that appends to a caller-supplied
//! buffer so the hot message path can reuse one allocation across calls.

use crate::escape::{push_escaped_attr, push_escaped_text};
use crate::node::{Document, NodeId, NodeKind};

/// Serialization options.
#[derive(Clone, Debug, Default)]
pub struct SerializeOpts {
    /// Emit an `<?xml version="1.0" encoding="utf-8"?>` declaration
    /// (document serialization only).
    pub xml_decl: bool,
    /// Pretty-print with the given indent width (0 = compact).
    pub indent: usize,
}

/// Serialize a whole document.
pub fn serialize_document(doc: &Document, opts: &SerializeOpts) -> String {
    let mut out = String::new();
    serialize_document_into(doc, opts, &mut out);
    out
}

/// Serialize a whole document, appending to `out` (reusable buffer).
pub fn serialize_document_into(doc: &Document, opts: &SerializeOpts, out: &mut String) {
    if opts.xml_decl {
        out.push_str("<?xml version=\"1.0\" encoding=\"utf-8\"?>");
        if opts.indent > 0 {
            out.push('\n');
        }
    }
    for (i, c) in doc.children(doc.root()).enumerate() {
        if i > 0 && opts.indent > 0 {
            out.push('\n');
        }
        write_node(doc, c, opts, 0, out);
    }
}

/// Serialize one node (subtree).
pub fn serialize_node(doc: &Document, id: NodeId, opts: &SerializeOpts) -> String {
    let mut out = String::new();
    write_node(doc, id, opts, 0, &mut out);
    out
}

/// Serialize one node (subtree), appending to `out` (reusable buffer).
pub fn serialize_node_into(doc: &Document, id: NodeId, opts: &SerializeOpts, out: &mut String) {
    write_node(doc, id, opts, 0, out);
}

/// Newline followed by `depth * indent` spaces (pretty mode).
fn line_break(out: &mut String, opts: &SerializeOpts, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', depth * opts.indent));
}

/// Pretty mode indents element-only content; text children keep a tag's
/// content byte-exact.
fn indents_content(doc: &Document, id: NodeId, opts: &SerializeOpts) -> bool {
    opts.indent > 0 && doc.children(id).all(|c| doc.kind(c) != NodeKind::Text)
}

/// Walk the subtree along the arena's own links: down to the first child,
/// across to the next sibling, back up through the parent. No recursion and
/// no work stack, so depth costs nothing and marshaling tens of thousands of
/// small subtrees back-to-back allocates nothing but output.
fn write_node(doc: &Document, root: NodeId, opts: &SerializeOpts, depth: usize, out: &mut String) {
    let mut cur = root;
    let mut depth = depth;
    // pretty mode only: whether each open ancestor indents its content
    let mut indenting: Vec<bool> = Vec::new();
    loop {
        let descend = match doc.kind(cur) {
            NodeKind::Document => doc.first_child(cur),
            NodeKind::Element => {
                write_open_tag(doc, cur, cur == root, out);
                let first = doc.first_child(cur);
                out.push_str(if first.is_some() { ">" } else { "/>" });
                first
            }
            _ => {
                write_leaf(doc, cur, out);
                None
            }
        };
        if let Some(child) = descend {
            if doc.kind(cur) == NodeKind::Element {
                depth += 1;
                if opts.indent > 0 {
                    indenting.push(indents_content(doc, cur, opts));
                    if indenting.last() == Some(&true) {
                        line_break(out, opts, depth);
                    }
                }
            }
            cur = child;
            continue;
        }
        // `cur` is complete: on to its next sibling, closing every element
        // that it was the last child of
        loop {
            if cur == root {
                return;
            }
            if let Some(next) = doc.next_sibling(cur) {
                if indenting.last() == Some(&true) {
                    line_break(out, opts, depth);
                }
                cur = next;
                break;
            }
            cur = doc.parent(cur).expect("walk stays below the root");
            if doc.kind(cur) == NodeKind::Element {
                depth -= 1;
                if indenting.pop() == Some(true) {
                    line_break(out, opts, depth);
                }
                out.push_str("</");
                element_name(doc, cur).push_lexical(out);
                out.push('>');
            }
        }
    }
}

fn element_name(doc: &Document, id: NodeId) -> &crate::QName {
    doc.name(id).expect("element has a name")
}

fn write_leaf(doc: &Document, id: NodeId, out: &mut String) {
    match doc.kind(id) {
        NodeKind::Text => push_escaped_text(out, doc.value(id)),
        NodeKind::Comment => {
            out.push_str("<!--");
            out.push_str(doc.value(id));
            out.push_str("-->");
        }
        NodeKind::ProcessingInstruction => {
            out.push_str("<?");
            if let Some(n) = doc.name(id) {
                out.push_str(&n.local);
            }
            let v = doc.value(id);
            if !v.is_empty() {
                out.push(' ');
                out.push_str(v);
            }
            out.push_str("?>");
        }
        // A standalone attribute serializes as name="value" (used by the
        // XRPC <attribute> wrapper).
        NodeKind::Attribute => write_attribute(doc, id, out),
        NodeKind::Document | NodeKind::Element => unreachable!("not a leaf"),
    }
}

fn write_attribute(doc: &Document, id: NodeId, out: &mut String) {
    if let Some(n) = doc.name(id) {
        n.push_lexical(out);
    }
    out.push_str("=\"");
    push_escaped_attr(out, doc.value(id));
    out.push('"');
}

/// `<name`, namespace declarations and attributes — up to but excluding
/// the closing `>` or `/>`. The element a fragment starts at also declares
/// what it inherits, so it keeps the names its ancestors gave it.
fn write_open_tag(doc: &Document, id: NodeId, fragment_root: bool, out: &mut String) {
    out.push('<');
    element_name(doc, id).push_lexical(out);
    write_ns_decls(doc.ns_decls(id), out);
    if fragment_root {
        write_ns_decls(doc.inherited_ns_decls(id), out);
    }
    for a in doc.attributes(id) {
        out.push(' ');
        write_attribute(doc, a, out);
    }
}

fn write_ns_decls<'a>(decls: impl IntoIterator<Item = (&'a str, &'a str)>, out: &mut String) {
    for (p, u) in decls {
        if p.is_empty() {
            out.push_str(" xmlns=\"");
        } else {
            out.push_str(" xmlns:");
            out.push_str(p);
            out.push_str("=\"");
        }
        push_escaped_attr(out, u);
        out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn roundtrip(s: &str) -> String {
        let d = parse(s).unwrap();
        serialize_document(&d, &SerializeOpts::default())
    }

    #[test]
    fn simple_roundtrip() {
        assert_eq!(roundtrip("<a><b>x</b><c/></a>"), "<a><b>x</b><c/></a>");
    }

    #[test]
    fn attrs_and_namespaces_roundtrip() {
        let s = r#"<p:a xmlns:p="urn:x" k="v&quot;"><p:b/></p:a>"#;
        assert_eq!(roundtrip(s), s);
    }

    #[test]
    fn text_escaping_roundtrip() {
        assert_eq!(roundtrip("<a>&lt;&amp;&gt;</a>"), "<a>&lt;&amp;&gt;</a>");
    }

    #[test]
    fn comments_and_pis_roundtrip() {
        let s = "<a><!-- c --><?t data?></a>";
        assert_eq!(roundtrip(s), s);
    }

    #[test]
    fn xml_decl_emitted() {
        let d = parse("<a/>").unwrap();
        let out = serialize_document(
            &d,
            &SerializeOpts {
                xml_decl: true,
                indent: 0,
            },
        );
        assert!(out.starts_with("<?xml version=\"1.0\""));
    }

    #[test]
    fn pretty_printing_indents_element_only_content() {
        let d = parse("<a><b><c/></b></a>").unwrap();
        let out = serialize_document(
            &d,
            &SerializeOpts {
                xml_decl: false,
                indent: 2,
            },
        );
        assert_eq!(out, "<a>\n  <b>\n    <c/>\n  </b>\n</a>");
    }

    #[test]
    fn double_parse_serialize_is_fixpoint() {
        let s = r#"<r><x a="1">t&amp;t</x><!--c--><y xmlns="urn:d"><z/></y></r>"#;
        let once = roundtrip(s);
        let twice = roundtrip(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn a_fragment_declares_what_its_ancestors_bound() {
        let d = parse(
            r#"<r xmlns="urn:d" xmlns:p="urn:outer" xmlns:q="urn:q"><m xmlns:p="urn:inner"><p:a q:k="1"><b/></p:a><c xmlns="" xmlns:q="urn:q2"><e/></c></m></r>"#,
        )
        .unwrap();
        let r = d.first_child(d.root()).unwrap();
        let m = d.first_child(r).unwrap();
        let (a, c) = (d.first_child(m).unwrap(), d.last_child(m).unwrap());
        let xml = |id| serialize_node(&d, id, &SerializeOpts::default());
        // nearest binding wins, nearest ancestor first; descendants are as they were
        assert_eq!(
            xml(a),
            r#"<p:a xmlns:p="urn:inner" xmlns="urn:d" xmlns:q="urn:q" q:k="1"><b/></p:a>"#
        );
        // the element's own declarations shadow: nothing inherited twice
        assert_eq!(
            xml(c),
            r#"<c xmlns="" xmlns:q="urn:q2" xmlns:p="urn:inner"><e/></c>"#
        );
        // an undeclared default namespace is inherited as "none", silently
        assert_eq!(
            xml(d.first_child(c).unwrap()),
            r#"<e xmlns:q="urn:q2" xmlns:p="urn:inner"/>"#
        );
        // the fragment re-parses to the names it had in place
        let back = parse(&xml(a)).unwrap();
        let a2 = back.first_child(back.root()).unwrap();
        assert!(back.name(a2).unwrap().is("urn:inner", "a"));
        assert!(back
            .name(back.first_child(a2).unwrap())
            .unwrap()
            .is("urn:d", "b"));
        // the document element inherits nothing, and neither does anything
        // in a document that declares nothing
        assert!(d.inherited_ns_decls(r).is_empty());
        let plain = parse("<a><b/></a>").unwrap();
        let b = plain
            .first_child(plain.first_child(plain.root()).unwrap())
            .unwrap();
        assert!(plain.inherited_ns_decls(b).is_empty());
    }

    #[test]
    fn into_variant_appends_to_existing_buffer() {
        let d = parse("<a><b/></a>").unwrap();
        let mut buf = String::from("PREFIX:");
        serialize_document_into(&d, &SerializeOpts::default(), &mut buf);
        assert_eq!(buf, "PREFIX:<a><b/></a>");
        // Reuse after clear keeps capacity and produces identical bytes.
        let cap = buf.capacity();
        buf.clear();
        serialize_document_into(&d, &SerializeOpts::default(), &mut buf);
        assert_eq!(buf, "<a><b/></a>");
        assert!(buf.capacity() >= cap.min(buf.len()));
    }

    #[test]
    fn deeply_nested_document_serializes_without_overflow() {
        // 100k-deep element chain: the serializer must not recurse per depth.
        let depth = 100_000;
        let mut d = Document::new();
        let mut cur = d.root();
        for _ in 0..depth {
            let e = d.create_element(crate::QName::local("d"));
            d.append_child(cur, e);
            cur = e;
        }
        let out = serialize_node(
            &d,
            d.first_child(d.root()).unwrap(),
            &SerializeOpts::default(),
        );
        assert_eq!(
            out.len(),
            depth * "<d>".len() + (depth - 1) * "</d>".len() + "/".len()
        );
        assert!(out.starts_with("<d><d>"));
        assert!(out.ends_with("</d></d>"));
    }
}
