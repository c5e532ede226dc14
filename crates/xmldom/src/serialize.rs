//! XML serialization (the inverse of the parser, used for wire messages and
//! for `fn:put` / debugging output).
//!
//! Serialization is iterative (it follows the arena's links, no recursion)
//! so deeply nested documents cannot overflow the thread stack, and every
//! entry point has an `_into` variant that appends to a caller-supplied
//! buffer so the hot message path can reuse one allocation across calls.
//!
//! A document version that keeps being serialized is serialized once: the
//! walker's own output over the whole tree is kept with the version as its
//! `WireImage`, and from then on a node of that version is a slice of it.

use crate::escape::{push_escaped_attr, push_escaped_text};
use crate::node::{Document, NodeId, NodeKind};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Serialization options.
#[derive(Clone, Debug, Default)]
pub struct SerializeOpts {
    /// Emit an `<?xml version="1.0" encoding="utf-8"?>` declaration
    /// (document serialization only).
    pub xml_decl: bool,
    /// Pretty-print with the given indent width (0 = compact).
    pub indent: usize,
}

impl SerializeOpts {
    /// The form messages are written in, and the only one an image holds.
    fn is_wire_form(&self) -> bool {
        self.indent == 0 && !self.xml_decl
    }
}

/// Serialize a whole document.
pub fn serialize_document(doc: &Document, opts: &SerializeOpts) -> String {
    let mut out = String::new();
    serialize_document_into(doc, opts, &mut out);
    out
}

/// Serialize a whole document, appending to `out` (reusable buffer).
pub fn serialize_document_into(doc: &Document, opts: &SerializeOpts, out: &mut String) {
    if opts.is_wire_form() {
        // what the document node's walk writes: its children, back to back
        return serialize_node_into(doc, doc.root(), opts, out);
    }
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
        write_node(doc, c, opts, 0, out, None);
    }
}

/// Serialize one node (subtree).
pub fn serialize_node(doc: &Document, id: NodeId, opts: &SerializeOpts) -> String {
    let mut out = String::new();
    serialize_node_into(doc, id, opts, &mut out);
    out
}

/// Serialize one node (subtree), appending to `out` (reusable buffer): a
/// slice of the version's wire image where it has earned one, the walk
/// otherwise — the same bytes either way.
pub fn serialize_node_into(doc: &Document, id: NodeId, opts: &SerializeOpts, out: &mut String) {
    let wire_form = opts.is_wire_form();
    if wire_form && earned_image(doc).is_some_and(|image| image.append(doc, id, out)) {
        return;
    }
    let before = out.len();
    write_node(doc, id, opts, 0, out, None);
    // a parentless fragment of a shared arena is not under the document
    // node: no image would hold it, so its walks earn none
    if wire_form && (id == doc.root() || doc.parent(id).is_some()) {
        doc.walked.fetch_add(out.len() - before, Relaxed);
    }
}

// ---------------------------------------------------------------------
// The wire image of a document version
// ---------------------------------------------------------------------

/// A range start no image has: the slot is not under the document node.
/// (An image that long is never kept.)
const ABSENT: u32 = u32::MAX;

/// The compact serialization of the tree under a document node, and for
/// every slot reachable from it the byte range its subtree occupies there —
/// [`write_node`]'s own output and the offsets it passed, so a slice is byte
/// for byte what the walk would write. Document order is `start` order and
/// ancestry is range containment. Owned by the [`Document`] value it
/// describes and dropped with it or by its first change.
#[derive(Debug, Default)]
pub(crate) struct WireImage {
    text: String,
    ranges: Vec<(u32, u32)>,
}

static NODES_WALKED: AtomicU64 = AtomicU64::new(0);
static IMAGE_BUILDS: AtomicU64 = AtomicU64::new(0);

/// What the serializer has done in this process: nodes the walker visited
/// (image builds included) and images built. Counts, for tests and metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SerializeCounters {
    pub nodes_walked: u64,
    pub image_builds: u64,
}

pub fn serialize_counters() -> SerializeCounters {
    SerializeCounters {
        nodes_walked: NODES_WALKED.load(Relaxed),
        image_builds: IMAGE_BUILDS.load(Relaxed),
    }
}

/// What an image is priced at before it exists: the text heap and 8 bytes
/// a slot (close to its size for a document that is mostly text).
fn image_cost(doc: &Document) -> usize {
    doc.text_heap_len() + 8 * doc.len()
}

/// The version's image, built now if its walks have already written more
/// than the image costs to keep. Checked before a walk, never after: a
/// version serialized once — a decoded message, a constructed result —
/// never pays for one, and a version pays at most one whole serialization
/// beyond the walks that earned it.
fn earned_image(doc: &Document) -> Option<&WireImage> {
    doc.image.get().or_else(|| {
        let earned = doc.walked.load(Relaxed) > image_cost(doc);
        earned.then(|| doc.image.get_or_init(|| WireImage::build(doc)))
    })
}

impl WireImage {
    fn build(doc: &Document) -> WireImage {
        IMAGE_BUILDS.fetch_add(1, Relaxed);
        let mut image = WireImage {
            text: String::with_capacity(image_cost(doc)),
            ranges: vec![(ABSENT, ABSENT); doc.len()],
        };
        let opts = SerializeOpts::default();
        let ranges = Some(&mut image.ranges[..]);
        write_node(doc, doc.root(), &opts, 0, &mut image.text, ranges);
        if image.text.len() >= ABSENT as usize {
            // offsets no longer fit: every node keeps the walker
            return WireImage::default();
        }
        image.text.shrink_to_fit();
        image
    }

    /// Heap bytes held: the serialized copy and 8 bytes a slot.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.text.capacity() + self.ranges.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    /// Where `id`'s subtree lies in the image, if it is under the document node.
    pub(crate) fn range(&self, id: NodeId) -> Option<Range<usize>> {
        let &(start, end) = self.ranges.get(id.index())?;
        (start != ABSENT).then_some(start as usize..end as usize)
    }

    /// Append `id` as [`write_node`] would write it as a fragment root;
    /// `false` (nothing written) where only the walk can.
    fn append(&self, doc: &Document, id: NodeId, out: &mut String) -> bool {
        let Some(mut range) = self.range(id) else {
            return false;
        };
        if doc.kind(id) == NodeKind::Element && doc.inherited_ns_decls(id).next().is_some() {
            // cut out here its start tag declares more than it does in
            // place: that tag is written anew, the rest is as it lies
            let Some(first) = doc.first_child(id) else {
                return false;
            };
            write_open_tag(doc, id, true, out, None);
            out.push('>');
            range.start = self.range(first).expect("child of an imaged node").start;
        }
        out.push_str(&self.text[range]);
        true
    }
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
/// small subtrees back-to-back allocates nothing but output. With `ranges`
/// (one entry per slot, `out` empty on entry) it also notes where in `out`
/// every node it writes starts and ends — how a [`WireImage`] is made.
fn write_node(
    doc: &Document,
    root: NodeId,
    opts: &SerializeOpts,
    depth: usize,
    out: &mut String,
    mut ranges: Option<&mut [(u32, u32)]>,
) {
    let mut cur = root;
    let mut depth = depth;
    let mut visited = 0;
    // pretty mode only: whether each open ancestor indents its content
    let mut indenting: Vec<bool> = Vec::new();
    loop {
        visited += 1;
        if let Some(r) = ranges.as_deref_mut() {
            r[cur.index()].0 = offset(out);
        }
        let descend = match doc.kind(cur) {
            NodeKind::Document => doc.first_child(cur),
            NodeKind::Element => {
                write_open_tag(doc, cur, cur == root, out, ranges.as_deref_mut());
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
            if let Some(r) = ranges.as_deref_mut() {
                r[cur.index()].1 = offset(out);
            }
            if cur == root {
                NODES_WALKED.fetch_add(visited, Relaxed);
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

/// Where the next byte of `out` goes, as an image offset (saturating: an
/// image past 4 GiB is thrown away).
fn offset(out: &str) -> u32 {
    u32::try_from(out.len()).unwrap_or(ABSENT)
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
fn write_open_tag(
    doc: &Document,
    id: NodeId,
    fragment_root: bool,
    out: &mut String,
    mut ranges: Option<&mut [(u32, u32)]>,
) {
    out.push('<');
    element_name(doc, id).push_lexical(out);
    write_ns_decls(doc.ns_decls(id), out);
    if fragment_root {
        write_ns_decls(doc.inherited_ns_decls(id), out);
    }
    for a in doc.attributes(id) {
        out.push(' ');
        let start = offset(out);
        write_attribute(doc, a, out);
        if let Some(r) = ranges.as_deref_mut() {
            r[a.index()] = (start, offset(out));
        }
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
        assert!(d.inherited_ns_decls(r).next().is_none());
        let plain = parse("<a><b/></a>").unwrap();
        let b = plain
            .first_child(plain.first_child(plain.root()).unwrap())
            .unwrap();
        assert!(plain.inherited_ns_decls(b).next().is_none());
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
