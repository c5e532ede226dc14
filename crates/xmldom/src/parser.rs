//! The DOM builder: [`parse`] is a [`Builder`] run over a [`Reader`] to the
//! end of the input.
//!
//! The builder writes straight into the [`Document`]'s flat tables: text and
//! attribute values are appended to the text heap as the reader reports them
//! and nodes refer to them by span, so a parse makes a constant number of
//! heap allocations per document plus a few per *distinct* name. Decoded
//! text is never longer than its source, so the heap is sized once from the
//! input length; the node table starts at one slot per 32 input bytes (above
//! the density of real messages) and doubles from there, which bounds what
//! hostile bytes can make it reserve by construction.

use crate::node::{Document, NodeId, NodeKind, Span};
use crate::qname::QName;
pub use crate::reader::ParseError;
use crate::reader::{Name, Raw, Reader, StartTag};
use std::collections::HashMap;
use std::sync::Arc;

/// Parse a complete XML document.
pub fn parse(input: &str) -> Result<Document, ParseError> {
    let mut reader = Reader::new(input)?;
    let mut doc = Document::with_capacity(input.len() / 32, input.len());
    let root = doc.root();
    Builder::new().children(&mut reader, &mut doc, root)?;
    Ok(doc)
}

/// Parse, recording `uri` as the document URI (what `fn:doc` returns).
pub fn parse_with_uri(input: &str, uri: &str) -> Result<Document, ParseError> {
    let mut doc = parse(input)?;
    doc.uri = Some(uri.to_string());
    Ok(doc)
}

/// Turns the events of a [`Reader`] into nodes of a [`Document`]. One
/// builder serves one reader: it interns the names that reader resolves, so
/// a document with a million `<chunk>` elements allocates the name strings
/// once.
pub struct Builder<'a> {
    /// The interned name of the resolution last seen in each of the reader's
    /// slots, under its stamp (see [`Name::resolution`]): a repeated tag
    /// costs one integer compare.
    recent: [(u32, Option<Arc<QName>>); Reader::SLOTS],
    /// One `Arc<QName>` per distinct (raw name, resolved namespace) pair,
    /// keys borrowing the input text: the first resolution seen of each raw
    /// name...
    first: HashMap<&'a str, Arc<QName>>,
    /// ...and the rare others: the same raw name in another namespace.
    rebound: Vec<(&'a str, Arc<QName>)>,
}

impl Default for Builder<'_> {
    fn default() -> Self {
        Builder::new()
    }
}

impl<'a> Builder<'a> {
    pub fn new() -> Self {
        Builder {
            recent: [const { (0, None) }; Reader::SLOTS],
            first: HashMap::new(),
            rebound: Vec::new(),
        }
    }

    /// Build what the reader reports next under `parent`, up to the end tag
    /// of the element open when called — or, with none open, to the end of
    /// the input.
    pub fn children(
        &mut self,
        reader: &mut Reader<'a>,
        doc: &mut Document,
        parent: NodeId,
    ) -> Result<(), ParseError> {
        doc.invalidate_side();
        let mut cur = parent;
        loop {
            // the reader's own step: an `Event` borrows it, and is built
            // only to be taken apart again
            match reader.advance()? {
                Raw::Start => cur = self.open(&reader.start_tag(), doc, Some(cur)),
                Raw::End if cur == parent => return Ok(()),
                Raw::End => cur = doc.parent(cur).expect("built below `parent`"),
                Raw::Text => {
                    let value = doc.push_text(reader.text());
                    doc.push_node(cur, NodeKind::Text, None, value);
                }
                Raw::Comment => {
                    let value = doc.push_text(reader.misc().1);
                    doc.push_node(cur, NodeKind::Comment, None, value);
                }
                Raw::Pi => {
                    let (target, data) = reader.misc();
                    let name = Arc::new(QName::local(target));
                    let value = doc.push_text(data);
                    doc.push_node(cur, NodeKind::ProcessingInstruction, Some(name), value);
                }
                Raw::Eof => return Ok(()),
            }
        }
    }

    /// Build the element whose start tag the reader last reported, through
    /// its end tag, as a parentless node of `doc`.
    pub fn element(
        &mut self,
        reader: &mut Reader<'a>,
        doc: &mut Document,
    ) -> Result<NodeId, ParseError> {
        let root = self.open(&reader.start_tag(), doc, None);
        self.children(reader, doc, root)?;
        Ok(root)
    }

    /// The interned name of an element or attribute the reader reported.
    /// Allocation-free when the (name, uri) pair has been seen before.
    #[inline]
    pub fn qname(&mut self, name: &Name<'_, 'a>) -> Arc<QName> {
        let (slot, stamp) = name.resolution();
        if let (seen, Some(q)) = &self.recent[slot] {
            if *seen == stamp {
                return q.clone();
            }
        }
        let q = self.intern(name);
        self.recent[slot] = (stamp, Some(q.clone()));
        q
    }

    #[inline(never)]
    fn intern(&mut self, name: &Name<'_, 'a>) -> Arc<QName> {
        let (raw, ns) = (name.raw(), name.ns());
        let same_ns = |q: &Arc<QName>| q.ns_uri.as_deref() == ns;
        let known = self.first.get(raw);
        let others = self
            .rebound
            .iter()
            .filter(|(r, _)| *r == raw)
            .map(|(_, q)| q);
        if let Some(q) = known.into_iter().chain(others).find(|q| same_ns(q)) {
            return q.clone();
        }
        let q = Arc::new(QName {
            prefix: name.prefix().map(str::to_string),
            ns_uri: ns.map(str::to_string),
            local: name.local().to_string(),
        });
        if known.is_none() {
            self.first.insert(raw, q.clone());
        } else {
            self.rebound.push((raw, q.clone()));
        }
        q
    }

    /// A new element for `tag` with its namespace declarations and
    /// attributes, last under `parent` if there is one.
    #[inline]
    fn open(
        &mut self,
        tag: &StartTag<'_, 'a>,
        doc: &mut Document,
        parent: Option<NodeId>,
    ) -> NodeId {
        let name = self.qname(&tag.name());
        let elem = match parent {
            Some(p) => doc.push_node(p, NodeKind::Element, Some(name), Span::default()),
            None => doc.create_element_shared(name),
        };
        // Record declarations on the element for later (re)serialization and
        // in-scope prefix resolution.
        for (prefix, uri) in tag.ns_decls() {
            let (uri, prefix) = (doc.push_text(uri), doc.push_text(prefix));
            doc.push_ns_decl(elem, prefix, uri);
        }
        for a in tag.attributes() {
            let name = self.qname(&a.name);
            let value = doc.push_text(a.value);
            doc.push_node(elem, NodeKind::Attribute, Some(name), value);
        }
        elem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root_elem(doc: &Document) -> NodeId {
        doc.child_elements(doc.root()).next().unwrap()
    }

    #[test]
    fn minimal_document() {
        let d = parse("<a/>").unwrap();
        let r = root_elem(&d);
        assert_eq!(d.node(r).name.as_ref().unwrap().local, "a");
    }

    #[test]
    fn nested_with_text_and_attrs() {
        let d = parse(r#"<films><film year="1996"><name>The Rock</name></film></films>"#).unwrap();
        let films = root_elem(&d);
        let film = d.first_child(films).unwrap();
        assert_eq!(d.attr_local(film, "year"), Some("1996"));
        assert_eq!(d.string_value(film), "The Rock");
    }

    #[test]
    fn entities_and_charrefs() {
        let d = parse("<a>&lt;&amp;&gt; &#65;&#x42;</a>").unwrap();
        assert_eq!(d.string_value(root_elem(&d)), "<&> AB");
    }

    #[test]
    fn cdata() {
        let d = parse("<a><![CDATA[<not><parsed>&amp;]]></a>").unwrap();
        assert_eq!(d.string_value(root_elem(&d)), "<not><parsed>&amp;");
    }

    #[test]
    fn namespaces_scoped() {
        let d =
            parse(r#"<p:a xmlns:p="urn:one"><p:b/><c xmlns:p="urn:two"><p:d/></c></p:a>"#).unwrap();
        let a = root_elem(&d);
        assert_eq!(
            d.node(a).name.as_ref().unwrap().ns_uri.as_deref(),
            Some("urn:one")
        );
        let b = d.first_child(a).unwrap();
        assert_eq!(
            d.node(b).name.as_ref().unwrap().ns_uri.as_deref(),
            Some("urn:one")
        );
        let c = d.children(a).nth(1).unwrap();
        let inner = d.first_child(c).unwrap();
        assert_eq!(
            d.node(inner).name.as_ref().unwrap().ns_uri.as_deref(),
            Some("urn:two")
        );
    }

    #[test]
    fn default_namespace_applies_to_elements_only() {
        let d = parse(r#"<a xmlns="urn:d" k="v"><b/></a>"#).unwrap();
        let a = root_elem(&d);
        assert_eq!(
            d.node(a).name.as_ref().unwrap().ns_uri.as_deref(),
            Some("urn:d")
        );
        let attr = d.attributes(a).next().unwrap();
        assert_eq!(d.node(attr).name.as_ref().unwrap().ns_uri, None);
        let b = d.first_child(a).unwrap();
        assert_eq!(
            d.node(b).name.as_ref().unwrap().ns_uri.as_deref(),
            Some("urn:d")
        );
    }

    #[test]
    fn xml_decl_doctype_comments_pis() {
        let d = parse(
            "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n<!DOCTYPE a>\n<!-- hi --><?t d?><a/><!-- bye -->",
        )
        .unwrap();
        let kinds: Vec<NodeKind> = d.children(d.root()).map(|c| d.kind(c)).collect();
        assert_eq!(
            kinds,
            [
                NodeKind::Comment,
                NodeKind::ProcessingInstruction,
                NodeKind::Element,
                NodeKind::Comment
            ]
        );
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(parse("<a><b></a></b>").is_err());
    }

    #[test]
    fn duplicate_attribute_rejected() {
        assert!(parse(r#"<a x="1" x="2"/>"#).is_err());
    }

    #[test]
    fn undeclared_prefix_rejected() {
        assert!(parse("<p:a/>").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("<a/>junk").is_err());
    }

    #[test]
    fn xsi_type_recorded_as_annotation() {
        let d = parse(
            r#"<v xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="xs:integer">3</v>"#,
        )
        .unwrap();
        let v = root_elem(&d);
        assert_eq!(d.type_annotation(v), Some("xs:integer"));
    }

    #[test]
    fn utf8_content() {
        let d = parse("<a>héllo wörld ✓</a>").unwrap();
        assert_eq!(d.string_value(root_elem(&d)), "héllo wörld ✓");
    }

    #[test]
    fn deeply_nested_document_parses_without_overflow() {
        // 100k-deep element chain: the parser must not recurse per depth.
        let depth = 100_000;
        let mut s = String::with_capacity(depth * 7 + 16);
        for _ in 0..depth {
            s.push_str("<d>");
        }
        s.push('x');
        for _ in 0..depth {
            s.push_str("</d>");
        }
        let d = parse(&s).unwrap();
        let mut cur = root_elem(&d);
        let mut seen = 1usize;
        while let Some(c) = d.child_elements(cur).next() {
            cur = c;
            seen += 1;
        }
        assert_eq!(seen, depth);
        assert_eq!(d.string_value(cur), "x");
    }

    #[test]
    fn deep_unterminated_rejected_with_typed_error() {
        let s = "<d>".repeat(50_000);
        let err = parse(&s).unwrap_err();
        assert!(err.message.contains("unterminated"));
    }
}
