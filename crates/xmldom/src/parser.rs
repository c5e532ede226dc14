//! A hand-written, namespace-aware XML 1.0 parser.
//!
//! Supports the subset the XRPC stack needs: elements, attributes,
//! namespace declarations with proper scoping, text with the five
//! predefined entities plus numeric character references, CDATA sections,
//! comments, processing instructions, an XML declaration and a (skipped)
//! DOCTYPE. DTD-defined entities are not supported — the SOAP XRPC wire
//! format never needs them.
//!
//! The parser writes straight into the [`Document`]'s flat tables: decoded
//! text and attribute values are appended to the text heap as they are
//! scanned and nodes refer to them by span, so a parse makes a constant
//! number of heap allocations per document plus a few per *distinct* name.
//! Decoded text is never longer than its source, so the heap is sized once
//! from the input length; the node table starts at one slot per 32 input
//! bytes (above the density of real messages) and doubles from there, which
//! bounds what hostile bytes can make it reserve by construction.

use crate::node::{Document, NodeId, NodeKind, Span};
use crate::qname::{QName, NS_XML};
use std::collections::HashMap;
use std::sync::Arc;

/// Parse failure with byte offset and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete XML document.
pub fn parse(input: &str) -> Result<Document, ParseError> {
    if u32::try_from(input.len()).is_err() {
        return Err(ParseError {
            offset: 0,
            message: "document exceeds 4 GiB".into(),
        });
    }
    Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        doc: Document::with_capacity(input.len() / 32, input.len()),
        ns: NsScope {
            decls: Vec::new(),
            epoch: 0,
        },
        names: Names {
            recent: std::array::from_fn(|_| None),
            first: HashMap::new(),
            rebound: Vec::new(),
        },
        attrs: Vec::new(),
        open: Vec::new(),
    }
    .run()
}

/// Parse, recording `uri` as the document URI (what `fn:doc` returns).
pub fn parse_with_uri(input: &str, uri: &str) -> Result<Document, ParseError> {
    let mut doc = parse(input)?;
    doc.uri = Some(uri.to_string());
    Ok(doc)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    doc: Document,
    ns: NsScope<'a>,
    names: Names<'a>,
    /// Raw attributes of the start tag being parsed (one buffer, reused):
    /// name as written, decoded value already in the heap.
    attrs: Vec<(&'a str, Span)>,
    /// Elements whose end tag is still to come. Explicit, not recursion:
    /// element depth must not be bounded by the thread stack.
    open: Vec<Open<'a>>,
}

struct Open<'a> {
    id: NodeId,
    raw_name: &'a str,
    /// Length of `NsScope::decls` before this element's declarations.
    ns_base: usize,
}

/// In-scope namespace bindings, innermost last: prefix as written, URI in
/// the document's text heap (it is an attribute value like any other).
struct NsScope<'a> {
    decls: Vec<(&'a str, Span)>,
    /// Bumped whenever `decls` changes; a name resolved under one epoch
    /// resolves the same way for as long as it stands.
    epoch: u32,
}

impl NsScope<'_> {
    fn lookup<'d>(&self, doc: &'d Document, prefix: &str) -> Option<&'d str> {
        let (_, uri) = self.decls.iter().rev().find(|(p, _)| *p == prefix)?;
        // An empty URI undeclares the prefix.
        Some(doc.heap_str(*uri)).filter(|u| !u.is_empty())
    }

    fn truncate(&mut self, len: usize) {
        if self.decls.len() != len {
            self.decls.truncate(len);
            self.epoch += 1;
        }
    }
}

/// Interns one `Arc<QName>` per distinct (raw name, resolved namespace)
/// pair, so a document with a million `<chunk>` elements allocates the name
/// strings once. Keys borrow the input text.
struct Names<'a> {
    /// Direct-mapped cache in front of the tables: a tag whose raw name was
    /// last resolved under the current namespace epoch costs one string
    /// compare — no prefix lookup, no hashing.
    recent: [Option<Recent<'a>>; 64],
    /// The first resolution seen of each raw name...
    first: HashMap<&'a str, Arc<QName>>,
    /// ...and the rare others: the same raw name in another namespace.
    rebound: Vec<(&'a str, Arc<QName>)>,
}

struct Recent<'a> {
    raw: &'a str,
    is_element: bool,
    epoch: u32,
    name: Arc<QName>,
}

impl<'a> Names<'a> {
    fn slot(raw: &str, is_element: bool) -> usize {
        let b = raw.as_bytes();
        let (first, last) = (b[0] as usize, b[b.len() - 1] as usize);
        (b.len() + 31 * first + 7 * last + is_element as usize) % 64
    }

    fn intern(&mut self, raw: &'a str, ns_uri: Option<&str>) -> Arc<QName> {
        let same_ns = |q: &Arc<QName>| q.ns_uri.as_deref() == ns_uri;
        let known = self.first.get(raw);
        let others = self
            .rebound
            .iter()
            .filter(|(r, _)| *r == raw)
            .map(|(_, q)| q);
        if let Some(q) = known.into_iter().chain(others).find(|q| same_ns(q)) {
            return q.clone();
        }
        let (prefix, local) = match raw.split_once(':') {
            Some((p, l)) => (Some(p), l),
            None => (None, raw),
        };
        let q = Arc::new(QName {
            prefix: prefix.map(str::to_string),
            ns_uri: ns_uri.map(str::to_string),
            local: local.to_string(),
        });
        if known.is_none() {
            self.first.insert(raw, q.clone());
        } else {
            self.rebound.push((raw, q.clone()));
        }
        q
    }
}

fn is_name_start(b: u8) -> bool {
    matches!(b, b'a'..=b'z' | b'A'..=b'Z' | b'_' | b':' | 0x80..)
}

fn is_name_char(b: u8) -> bool {
    is_name_start(b) || matches!(b, b'0'..=b'9' | b'.' | b'-')
}

/// The prefix an `xmlns` / `xmlns:p` attribute declares (`""` = default).
fn declared_prefix(attr_name: &str) -> Option<&str> {
    if attr_name == "xmlns" {
        Some("")
    } else {
        attr_name.strip_prefix("xmlns:")
    }
}

/// True if two of `keys` are equal. Pairwise for the usual handful, sorted
/// beyond that: a start tag with 64 k attributes must not cost 2^31
/// comparisons.
fn has_duplicate<K: Ord>(keys: impl Iterator<Item = K> + Clone) -> bool {
    if keys.clone().nth(16).is_none() {
        let mut rest = keys;
        while let Some(k) = rest.next() {
            if rest.clone().any(|other| other == k) {
                return true;
            }
        }
        return false;
    }
    let mut sorted: Vec<K> = keys.collect();
    sorted.sort_unstable();
    sorted.windows(2).any(|w| w[0] == w[1])
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: msg.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            self.err(format!("expected `{}`", s))
        }
    }

    fn run(mut self) -> Result<Document, ParseError> {
        let root = self.doc.root();

        // Prolog: XML decl, misc, doctype.
        self.skip_ws();
        if self.starts_with("<?xml") {
            self.skip_until("?>")?;
        }
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.parse_comment(root)?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else if self.starts_with("<?") {
                self.parse_pi(root)?;
            } else {
                break;
            }
        }

        if self.peek() != Some(b'<') {
            return self.err("expected root element");
        }
        self.parse_start_tag(root)?;
        self.parse_content()?;

        // Trailing misc.
        loop {
            self.skip_ws();
            if self.pos >= self.bytes.len() {
                break;
            }
            if self.starts_with("<!--") {
                self.parse_comment(root)?;
            } else if self.starts_with("<?") {
                self.parse_pi(root)?;
            } else {
                return self.err("unexpected content after root element");
            }
        }
        Ok(self.doc)
    }

    /// Byte offset of the next `needle` at or after `pos`.
    fn find(&self, needle: &str) -> Option<usize> {
        self.input[self.pos..].find(needle).map(|i| self.pos + i)
    }

    fn skip_until(&mut self, end: &str) -> Result<(), ParseError> {
        match self.find(end) {
            Some(i) => {
                self.pos = i + end.len();
                Ok(())
            }
            None => self.err(format!("unterminated construct, expected `{}`", end)),
        }
    }

    fn skip_doctype(&mut self) -> Result<(), ParseError> {
        // Skip to matching '>' allowing one level of [] internal subset.
        self.expect("<!DOCTYPE")?;
        let mut depth = 0i32;
        while let Some(c) = self.peek() {
            match c {
                b'[' => depth += 1,
                b']' => depth -= 1,
                b'>' if depth <= 0 => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {}
            }
            self.pos += 1;
        }
        self.err("unterminated DOCTYPE")
    }

    /// Append `input[pos..end]` verbatim to the heap as the value of a new
    /// `kind` node under `parent`, then continue after `skip` more bytes.
    fn push_verbatim(
        &mut self,
        parent: NodeId,
        kind: NodeKind,
        name: Option<Arc<QName>>,
        end: usize,
        skip: usize,
    ) {
        let start = self.doc.text_heap_len();
        self.doc.text_mut().push_str(&self.input[self.pos..end]);
        let value = self.doc.span_from(start);
        self.doc.push_node(parent, kind, name, value);
        self.pos = end + skip;
    }

    fn parse_comment(&mut self, parent: NodeId) -> Result<(), ParseError> {
        self.expect("<!--")?;
        match self.find("-->") {
            Some(end) => {
                self.push_verbatim(parent, NodeKind::Comment, None, end, 3);
                Ok(())
            }
            None => self.err("unterminated comment"),
        }
    }

    fn parse_pi(&mut self, parent: NodeId) -> Result<(), ParseError> {
        self.expect("<?")?;
        let target = Arc::new(QName::local(self.parse_name()?));
        match self.find("?>") {
            Some(end) => {
                self.skip_ws(); // the data starts after the white space
                let kind = NodeKind::ProcessingInstruction;
                self.push_verbatim(parent, kind, Some(target), end, 2);
                Ok(())
            }
            None => self.err("unterminated processing instruction"),
        }
    }

    /// Borrow the name from the input — the hot path (tag and attribute
    /// names) must not allocate a `String` per occurrence.
    fn parse_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        if !self.peek().is_some_and(is_name_start) {
            return self.err("expected name");
        }
        self.pos += 1;
        while self.peek().is_some_and(is_name_char) {
            self.pos += 1;
        }
        Ok(&self.input[start..self.pos])
    }

    /// Everything between the root's start tag and its end tag.
    fn parse_content(&mut self) -> Result<(), ParseError> {
        while let Some(open) = self.open.last() {
            let (cur, raw_name) = (open.id, open.raw_name);
            if self.peek().is_none() {
                return self.err(format!("unterminated element <{}>", raw_name));
            } else if self.peek() != Some(b'<') {
                self.parse_text(cur)?;
            } else if self.starts_with("</") {
                self.parse_end_tag()?;
            } else if self.starts_with("<!--") {
                self.parse_comment(cur)?;
            } else if self.starts_with("<![CDATA[") {
                self.pos += "<![CDATA[".len();
                match self.find("]]>") {
                    Some(end) if end == self.pos => self.pos += 3,
                    Some(end) => self.push_verbatim(cur, NodeKind::Text, None, end, 3),
                    None => return self.err("unterminated CDATA section"),
                }
            } else if self.starts_with("<?") {
                self.parse_pi(cur)?;
            } else {
                self.parse_start_tag(cur)?;
            }
        }
        Ok(())
    }

    fn parse_end_tag(&mut self) -> Result<(), ParseError> {
        let open = self.open.pop().expect("an element is open");
        self.pos += 2;
        // the usual case is one compare against the name we are waiting for
        let end = self.pos + open.raw_name.len();
        let matches = self.bytes[self.pos..].starts_with(open.raw_name.as_bytes())
            && !self.bytes.get(end).copied().is_some_and(is_name_char);
        if !matches {
            let close = self.parse_name()?;
            return self.err(format!(
                "mismatched end tag: expected </{}>, found </{}>",
                open.raw_name, close
            ));
        }
        self.pos = end;
        self.skip_ws();
        self.expect(">")?;
        self.ns.truncate(open.ns_base);
        Ok(())
    }

    /// Parse a start tag `<name attr="v" ...>` or `<name .../>` into a new
    /// element under `parent`; unless self-closing, the element is left on
    /// the open stack with its namespace declarations in scope.
    fn parse_start_tag(&mut self, parent: NodeId) -> Result<(), ParseError> {
        self.pos += 1; // `<`
        let raw_name = self.parse_name()?;

        // Raw attributes first; namespace decls must be in scope before
        // resolving prefixes (including the element's own).
        self.attrs.clear();
        let self_closing = loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break false;
                }
                Some(b'/') => {
                    self.expect("/>")?;
                    break true;
                }
                Some(_) => {
                    let name = self.parse_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    self.attrs.push((name, value));
                }
                None => return self.err("unterminated start tag"),
            }
        };

        let ns_base = self.ns.decls.len();
        for &(name, uri) in &self.attrs {
            if let Some(prefix) = declared_prefix(name) {
                self.ns.decls.push((prefix, uri));
            }
        }
        if self.ns.decls.len() != ns_base {
            self.ns.epoch += 1;
        }

        let name = self.resolve_name(raw_name, true)?;
        let elem = self
            .doc
            .push_node(parent, NodeKind::Element, Some(name), Span::default());
        // Record declarations on the element for later (re)serialization and
        // in-scope prefix resolution.
        for &(prefix, uri) in &self.ns.decls[ns_base..] {
            let start = self.doc.text_heap_len();
            self.doc.text_mut().push_str(prefix);
            let prefix = self.doc.span_from(start);
            self.doc.push_ns_decl(elem, prefix, uri);
        }
        for i in 0..self.attrs.len() {
            let (raw, value) = self.attrs[i];
            if declared_prefix(raw).is_none() {
                let name = self.resolve_name(raw, false)?;
                self.doc
                    .push_node(elem, NodeKind::Attribute, Some(name), value);
            }
        }
        if self.attrs.len() > 1 {
            let declared = self.ns.decls[ns_base..].iter().map(|d| d.0);
            let attributes = self.doc.attributes(elem).map(|a| {
                let q = self.doc.name(a).expect("attribute name");
                (q.local.as_str(), q.ns_uri.as_deref())
            });
            if has_duplicate(declared) || has_duplicate(attributes) {
                return self.err(format!("duplicate attribute in <{}>", raw_name));
            }
        }

        if self_closing {
            self.ns.truncate(ns_base);
        } else {
            self.open.push(Open {
                id: elem,
                raw_name,
                ns_base,
            });
        }
        Ok(())
    }

    /// Append `input[pos..end]` to the heap with entity and character
    /// references decoded. Clean stretches are copied in one append each;
    /// the delimiters are ASCII so no UTF-8 sequence is ever split.
    fn decode_into_heap(&mut self, end: usize) -> Result<(), ParseError> {
        let input = self.input;
        while self.pos < end {
            let run = &input[self.pos..end];
            let clean = run.find('&').unwrap_or(run.len());
            self.doc.text_mut().push_str(&run[..clean]);
            self.pos += clean;
            if self.pos < end {
                let c = self.parse_entity()?;
                self.doc.text_mut().push(c);
            }
        }
        Ok(())
    }

    fn parse_attr_value(&mut self) -> Result<Span, ParseError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q as char,
            _ => return self.err("expected quoted attribute value"),
        };
        self.pos += 1;
        let Some(end) = self.input[self.pos..].find(quote).map(|i| self.pos + i) else {
            self.pos = self.bytes.len();
            return self.err("unterminated attribute value");
        };
        if let Some(lt) = self.input[self.pos..end].find('<') {
            self.pos += lt;
            return self.err("`<` not allowed in attribute value");
        }
        let start = self.doc.text_heap_len();
        self.decode_into_heap(end)?;
        self.pos = end + 1;
        Ok(self.doc.span_from(start))
    }

    /// Character data up to the next `<`, as one text node (none if empty).
    fn parse_text(&mut self, parent: NodeId) -> Result<(), ParseError> {
        let rest = &self.input[self.pos..];
        let end = self.pos + rest.find('<').unwrap_or(rest.len());
        let start = self.doc.text_heap_len();
        self.decode_into_heap(end)?;
        if self.doc.text_heap_len() > start {
            let value = self.doc.span_from(start);
            self.doc.push_node(parent, NodeKind::Text, None, value);
        }
        Ok(())
    }

    fn parse_entity(&mut self) -> Result<char, ParseError> {
        self.expect("&")?;
        let end = match self.input[self.pos..].find(';') {
            Some(i) if i <= 10 => self.pos + i,
            _ => return self.err("unterminated entity reference"),
        };
        let name = &self.input[self.pos..end];
        let code_point = |digits: &str, radix: u32| {
            u32::from_str_radix(digits, radix)
                .ok()
                .and_then(char::from_u32)
                .ok_or_else(|| ParseError {
                    offset: self.pos,
                    message: format!("bad character reference `&{};`", name),
                })
        };
        let c = match name {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "quot" => '"',
            "apos" => '\'',
            _ if name.starts_with("#x") || name.starts_with("#X") => code_point(&name[2..], 16)?,
            _ if name.starts_with('#') => code_point(&name[1..], 10)?,
            _ => return self.err(format!("unknown entity `&{};`", name)),
        };
        self.pos = end + 1;
        Ok(c)
    }

    /// Resolve a raw (possibly prefixed) name against the in-scope namespace
    /// bindings and intern the result. Allocation-free when the (name, uri)
    /// pair has been seen before.
    fn resolve_name(&mut self, raw: &'a str, is_element: bool) -> Result<Arc<QName>, ParseError> {
        let slot = Names::slot(raw, is_element);
        if let Some(r) = &self.names.recent[slot] {
            if r.epoch == self.ns.epoch && r.is_element == is_element && r.raw == raw {
                return Ok(r.name.clone());
            }
        }
        let prefix = match raw.split_once(':') {
            Some((p, l)) => {
                if p.is_empty() || l.is_empty() || l.contains(':') {
                    return self.err(format!("malformed QName `{}`", raw));
                }
                Some(p)
            }
            None => None,
        };
        let ns_uri = match prefix {
            Some("xml") => Some(NS_XML),
            Some(p) => match self.ns.lookup(&self.doc, p) {
                Some(u) => Some(u),
                None => return self.err(format!("undeclared namespace prefix `{}`", p)),
            },
            // Unprefixed elements pick up the default namespace;
            // unprefixed attributes never do (XML Namespaces §6.2).
            None if is_element => self.ns.lookup(&self.doc, ""),
            None => None,
        };
        let name = self.names.intern(raw, ns_uri);
        self.names.recent[slot] = Some(Recent {
            raw,
            is_element,
            epoch: self.ns.epoch,
            name: name.clone(),
        });
        Ok(name)
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
