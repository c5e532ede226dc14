//! Flat node arena and the mutation API used by XQUF `applyUpdates`.
//!
//! A [`Document`] is three flat tables and nothing else: fixed-size
//! [`NodeData`] slots, one text heap holding every text / attribute /
//! comment / PI value, and a (rare) namespace-declaration table. Tree
//! structure is intrusive — parent, first/last child, previous/next sibling
//! and the attribute chain are slot indexes inside the node — so no node
//! owns a heap block of its own: building, cloning and dropping a document
//! cost a constant number of allocations whatever its node count, and every
//! structural edit (append, insert before/after, detach) is O(1).

use crate::qname::QName;
use crate::serialize::WireImage;
use std::any::Any;
use std::borrow::Cow;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, OnceLock};

/// Index of a node inside a [`Document`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The seven XDM node kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum NodeKind {
    Document,
    Element,
    Attribute,
    Text,
    Comment,
    ProcessingInstruction,
}

/// "No node" in a link field (a real id never reaches it: `alloc` checks).
const NONE: u32 = u32::MAX;

fn link(raw: u32) -> Option<NodeId> {
    (raw != NONE).then_some(NodeId(raw))
}

/// A byte range of the document's text heap.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One arena slot: 48 bytes, no heap block of its own besides the shared,
/// interned name. Links are slot indexes (`NONE` = absent). Per kind:
/// * `Document`: child links
/// * `Element`: `name`, child links, attribute chain
/// * `Attribute`: `name`, `value`; `prev`/`next` chain it to its siblings
///   in the owner's attribute list
/// * `Text` / `Comment`: `value`
/// * `ProcessingInstruction`: `name` (target, no namespace), `value`
#[derive(Clone, Debug)]
pub struct NodeData {
    /// Shared so that the parser interns one `QName` per distinct tag and
    /// deep copies bump a refcount instead of cloning three strings.
    pub name: Option<Arc<QName>>,
    value: Span,
    parent: u32,
    prev: u32,
    next: u32,
    first_child: u32,
    last_child: u32,
    first_attr: u32,
    last_attr: u32,
    pub kind: NodeKind,
}

/// A namespace declaration on an element (`prefix -> uri`; empty prefix =
/// default namespace), both strings in the text heap. The table is sorted
/// by `node`, declaration order within one node.
#[derive(Clone, Copy, Debug)]
struct NsDecl {
    node: NodeId,
    prefix: Span,
    uri: Span,
}

/// [`Document::insert_before`] / [`Document::insert_after`] were handed an
/// attribute node, which cannot be linked among children.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttributeAsChild;

/// An XML document: a node arena whose slot 0 is always the document node.
///
/// Mutation methods take `&mut self`; callers that need snapshot semantics
/// clone the document first (see `xrpc-peer`'s store).
#[derive(Debug)]
pub struct Document {
    nodes: Vec<NodeData>,
    /// Every node value, appended as nodes are created.
    text: String,
    /// Heap bytes no node refers to any more (`replace_value` leaves the
    /// old value behind); `clone` compacts once they outweigh the rest.
    dead_text: usize,
    /// Slots of subtrees the XQUF primitives cut out for good, as counted by
    /// the last [`reclaim`](Self::reclaim), which rebuilds the table once
    /// they outnumber the rest.
    dead_nodes: usize,
    /// Roots of the subtrees cut out since then. Their ids stay valid — a
    /// later primitive of the same update list may still name them — until
    /// `reclaim` counts them.
    discarded: Vec<NodeId>,
    ns_decls: Vec<NsDecl>,
    pub uri: Option<String>,
    /// Data derived from exactly this document value (see
    /// [`Document::side_data`]): filled through `&self`, emptied by `clone`
    /// and by every mutator.
    side: OnceLock<Box<dyn Any + Send + Sync>>,
    /// The compact serialization of exactly this document value and every
    /// node's byte range in it (see [`WireImage`]): built through `&self`
    /// by the serializer once the version has earned it, and like `side`
    /// emptied by `clone` and by every mutator — a namespace declaration
    /// included, which changes what a node serializes to.
    pub(crate) image: OnceLock<WireImage>,
    /// Bytes the serializer has walked out of this version so far, which is
    /// what earns the image; nonzero whenever `image` is set.
    pub(crate) walked: AtomicUsize,
}

/// Forward/backward walk over one sibling chain (children or attributes).
#[derive(Clone)]
pub struct Siblings<'a> {
    nodes: &'a [NodeData],
    front: u32,
    back: u32,
}

impl Iterator for Siblings<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = link(self.front)?;
        if self.front == self.back {
            self.front = NONE;
            self.back = NONE;
        } else {
            self.front = self.nodes[id.index()].next;
        }
        Some(id)
    }
}

impl DoubleEndedIterator for Siblings<'_> {
    fn next_back(&mut self) -> Option<NodeId> {
        let id = link(self.back)?;
        if self.front == self.back {
            self.front = NONE;
            self.back = NONE;
        } else {
            self.back = self.nodes[id.index()].prev;
        }
        Some(id)
    }
}

/// Pre-order walk over the strict descendants of a node (child axis only,
/// no attributes). Follows the links, so it needs no stack and no
/// recursion however deep the tree.
pub struct Descendants<'a> {
    doc: &'a Document,
    root: NodeId,
    next: Option<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.doc.first_child(cur).or_else(|| {
            let mut n = cur;
            loop {
                if let Some(s) = self.doc.next_sibling(n) {
                    return Some(s);
                }
                n = self.doc.parent(n)?;
                if n == self.root {
                    return None;
                }
            }
        });
        Some(cur)
    }
}

impl Document {
    pub fn new() -> Self {
        Document::with_capacity(0, 0)
    }

    /// An empty document with room for `nodes` slots and `text` heap bytes
    /// (whoever builds from text sizes both from the input length).
    pub fn with_capacity(nodes: usize, text: usize) -> Self {
        let mut d = Document {
            nodes: Vec::with_capacity(nodes + 1),
            text: String::with_capacity(text),
            dead_text: 0,
            dead_nodes: 0,
            discarded: Vec::new(),
            ns_decls: Vec::new(),
            uri: None,
            side: OnceLock::new(),
            image: OnceLock::new(),
            walked: AtomicUsize::new(0),
        };
        d.alloc(NodeKind::Document, None, Span::default());
        d
    }

    pub fn with_uri(uri: impl Into<String>) -> Self {
        let mut d = Document::new();
        d.uri = Some(uri.into());
        d
    }

    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        false // there is always a document node
    }

    pub fn node(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.index()].kind
    }

    /// The expanded name of an element, attribute or PI (its target).
    pub fn name(&self, id: NodeId) -> Option<&QName> {
        self.nodes[id.index()].name.as_deref()
    }

    /// The node's own value: attribute value, text/comment content, PI
    /// data; empty for documents and elements (see [`Self::string_value`]).
    pub fn value(&self, id: NodeId) -> &str {
        &self.text[self.nodes[id.index()].value.range()]
    }

    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        link(self.nodes[id.index()].parent)
    }

    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        link(self.nodes[id.index()].first_child)
    }

    pub fn last_child(&self, id: NodeId) -> Option<NodeId> {
        link(self.nodes[id.index()].last_child)
    }

    /// Next node in the same chain: the next child of the parent, or for an
    /// attribute the owner's next attribute.
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        link(self.nodes[id.index()].next)
    }

    pub fn prev_sibling(&self, id: NodeId) -> Option<NodeId> {
        link(self.nodes[id.index()].prev)
    }

    /// Bytes held by the text heap, live or not.
    pub fn text_heap_len(&self) -> usize {
        self.text.len()
    }

    /// Append `s` to the heap.
    #[inline]
    pub(crate) fn push_text(&mut self, s: &str) -> Span {
        let start = self.text.len();
        self.text.push_str(s);
        let end = u32::try_from(self.text.len()).expect("text heap exceeds 4 GiB");
        let start = start as u32; // start <= end, so it fits
        Span {
            start,
            len: end - start,
        }
    }

    pub(crate) fn heap_str(&self, s: Span) -> &str {
        &self.text[s.range()]
    }

    /// The document's side slot: one value derived from the document (the
    /// evaluator keeps its value indexes here), created by `init` on first
    /// use and shared by everyone holding this document. It describes this
    /// value only — `clone` starts the copy with an empty slot and every
    /// method that changes the tree empties it — so it can never answer
    /// for another version, and
    /// it is freed with the document. The slot has one tenant: asking for a
    /// second type panics.
    pub fn side_data<T: Any + Send + Sync>(&self, init: impl FnOnce() -> T) -> &T {
        self.side
            .get_or_init(|| Box::new(init()))
            .downcast_ref()
            .expect("the document side slot holds one type")
    }

    /// The side slot's value, if anyone has created it.
    pub fn side_data_if_any<T: Any + Send + Sync>(&self) -> Option<&T> {
        self.side.get()?.downcast_ref()
    }

    /// Called by every public method that adds a node or changes a link, a
    /// value or a name: relinking goes through `detach`, values through
    /// `replace_value`, names through `rename`, new nodes through `create`
    /// / `import_subtree`. (Namespace declarations change none of those —
    /// they drop the wire image alone; the builder calls it once and then
    /// fills the document through `push_node`, which skips it.)
    pub(crate) fn invalidate_side(&mut self) {
        if self.side.get_mut().is_some() {
            self.side = OnceLock::new();
        }
        self.invalidate_image();
    }

    /// Forget the wire image and what the version had walked towards it.
    fn invalidate_image(&mut self) {
        if std::mem::take(self.walked.get_mut()) != 0 {
            self.image = OnceLock::new();
        }
    }

    /// Heap bytes the version's wire image holds (0 = none built).
    pub fn wire_image_bytes(&self) -> usize {
        self.image.get().map_or(0, WireImage::heap_bytes)
    }

    /// A new detached node, for the public constructors.
    fn create(&mut self, kind: NodeKind, name: Option<Arc<QName>>, value: Span) -> NodeId {
        self.invalidate_side();
        self.alloc(kind, name, value)
    }

    #[inline]
    fn alloc(&mut self, kind: NodeKind, name: Option<Arc<QName>>, value: Span) -> NodeId {
        let id = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&i| i != NONE)
            .expect("arena exceeds u32::MAX nodes");
        // room first, so that the slot is written where it will stay
        self.nodes.reserve(1);
        self.nodes.push(NodeData {
            name,
            value,
            parent: NONE,
            prev: NONE,
            next: NONE,
            first_child: NONE,
            last_child: NONE,
            first_attr: NONE,
            last_attr: NONE,
            kind,
        });
        NodeId(id)
    }

    /// Link a parentless `node` at the end of `parent`'s child chain, or
    /// of its attribute chain when `node` is an attribute.
    #[inline]
    fn link_last(&mut self, parent: NodeId, node: NodeId) {
        let is_attr = self.kind(node) == NodeKind::Attribute;
        let p = &mut self.nodes[parent.index()];
        let (first, last) = if is_attr {
            (&mut p.first_attr, &mut p.last_attr)
        } else {
            (&mut p.first_child, &mut p.last_child)
        };
        let prev = *last;
        *last = node.0;
        if prev == NONE {
            *first = node.0;
        } else {
            self.nodes[prev as usize].next = node.0;
        }
        let n = &mut self.nodes[node.index()];
        n.parent = parent.0;
        n.prev = prev;
    }

    /// Link a parentless non-attribute `node` into `anchor`'s chain just
    /// before it.
    fn link_before(&mut self, anchor: NodeId, node: NodeId) {
        let (parent, prev) = {
            let a = &mut self.nodes[anchor.index()];
            let links = (a.parent, a.prev);
            a.prev = node.0;
            links
        };
        if prev == NONE {
            self.nodes[parent as usize].first_child = node.0;
        } else {
            self.nodes[prev as usize].next = node.0;
        }
        let n = &mut self.nodes[node.index()];
        n.parent = parent;
        n.prev = prev;
        n.next = anchor.0;
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    pub fn create_element(&mut self, name: QName) -> NodeId {
        self.create_element_shared(Arc::new(name))
    }

    /// Like [`create_element`](Self::create_element) but reusing an interned
    /// name — no allocation beyond the arena slot.
    pub fn create_element_shared(&mut self, name: Arc<QName>) -> NodeId {
        self.create(NodeKind::Element, Some(name), Span::default())
    }

    pub fn create_text(&mut self, value: impl AsRef<str>) -> NodeId {
        let v = self.push_text(value.as_ref());
        self.create(NodeKind::Text, None, v)
    }

    pub fn create_comment(&mut self, value: impl AsRef<str>) -> NodeId {
        let v = self.push_text(value.as_ref());
        self.create(NodeKind::Comment, None, v)
    }

    pub fn create_pi(&mut self, target: impl Into<String>, value: impl AsRef<str>) -> NodeId {
        let v = self.push_text(value.as_ref());
        let name = Arc::new(QName::local(target));
        self.create(NodeKind::ProcessingInstruction, Some(name), v)
    }

    pub fn create_attribute(&mut self, name: QName, value: impl AsRef<str>) -> NodeId {
        self.create_attribute_shared(Arc::new(name), value)
    }

    /// Like [`create_attribute`](Self::create_attribute) with an interned name.
    pub fn create_attribute_shared(&mut self, name: Arc<QName>, value: impl AsRef<str>) -> NodeId {
        let v = self.push_text(value.as_ref());
        self.create(NodeKind::Attribute, Some(name), v)
    }

    /// Builder fast path: a new node whose value already sits in the heap,
    /// linked as the last child (or, for an attribute, the last attribute)
    /// of `parent`. No same-name check — the reader has made its own.
    #[inline]
    pub(crate) fn push_node(
        &mut self,
        parent: NodeId,
        kind: NodeKind,
        name: Option<Arc<QName>>,
        value: Span,
    ) -> NodeId {
        let id = self.alloc(kind, name, value);
        self.link_last(parent, id);
        id
    }

    /// Declare a namespace on `element` (`""` = the default namespace).
    pub fn add_ns_decl(&mut self, element: NodeId, prefix: &str, uri: &str) {
        let prefix = self.push_text(prefix);
        let uri = self.push_text(uri);
        self.push_ns_decl(element, prefix, uri);
    }

    pub(crate) fn push_ns_decl(&mut self, node: NodeId, prefix: Span, uri: Span) {
        // no link, value or name moves, but the start tag gains bytes
        self.invalidate_image();
        // after any earlier declaration of the same node; the common case
        // (the newest element) is a plain push
        let at = self.ns_decls.partition_point(|d| d.node <= node);
        self.ns_decls.insert(at, NsDecl { node, prefix, uri });
    }

    // ------------------------------------------------------------------
    // Tree surgery (XQUF primitives)
    // ------------------------------------------------------------------

    /// Append `child` as the last child of `parent` (document or element).
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        debug_assert!(matches!(
            self.kind(parent),
            NodeKind::Document | NodeKind::Element
        ));
        debug_assert_ne!(self.kind(child), NodeKind::Attribute);
        self.detach(child);
        self.link_last(parent, child);
    }

    /// Insert `child` under `parent` at child position `pos` (clamped).
    pub fn insert_child_at(&mut self, parent: NodeId, pos: usize, child: NodeId) {
        self.detach(child);
        match self.children(parent).nth(pos) {
            Some(anchor) => self.link_before(anchor, child),
            None => self.link_last(parent, child),
        }
    }

    /// Insert `child` immediately before sibling `anchor`. An attribute is
    /// refused: it has no place among children (XQUF makes it an attribute
    /// of the anchor's parent — [`set_attribute_node`](Self::set_attribute_node)).
    pub fn insert_before(&mut self, anchor: NodeId, child: NodeId) -> Result<(), AttributeAsChild> {
        assert!(
            self.parent(anchor).is_some(),
            "insert_before target must have a parent"
        );
        if self.kind(child) == NodeKind::Attribute {
            return Err(AttributeAsChild);
        }
        if anchor != child {
            self.detach(child);
            self.link_before(anchor, child);
        }
        Ok(())
    }

    /// Insert `child` immediately after sibling `anchor`; an attribute is
    /// refused as by [`insert_before`](Self::insert_before).
    pub fn insert_after(&mut self, anchor: NodeId, child: NodeId) -> Result<(), AttributeAsChild> {
        let parent = self
            .parent(anchor)
            .expect("insert_after target must have a parent");
        if self.kind(child) == NodeKind::Attribute {
            return Err(AttributeAsChild);
        }
        if anchor == child {
            return Ok(());
        }
        self.detach(child);
        match self.next_sibling(anchor) {
            Some(next) => self.link_before(next, child),
            None => self.link_last(parent, child),
        }
        Ok(())
    }

    /// Attach an attribute node to an element (replacing any same-named one).
    pub fn set_attribute_node(&mut self, element: NodeId, attr: NodeId) {
        debug_assert_eq!(self.kind(element), NodeKind::Element);
        debug_assert_eq!(self.kind(attr), NodeKind::Attribute);
        self.detach(attr);
        let name = self.nodes[attr.index()].name.clone().expect("attr name");
        if let Some(existing) = self.attribute_by_name(element, &name) {
            self.remove(existing);
        }
        self.link_last(element, attr);
    }

    /// Convenience: create + attach an attribute.
    pub fn set_attribute(&mut self, element: NodeId, name: QName, value: impl AsRef<str>) {
        let a = self.create_attribute(name, value);
        self.set_attribute_node(element, a);
    }

    /// Detach a node from its parent's child (or attribute) chain. O(1).
    pub fn detach(&mut self, node: NodeId) {
        self.invalidate_side();
        let n = &mut self.nodes[node.index()];
        let (parent, prev, next) = (n.parent, n.prev, n.next);
        if parent == NONE {
            return;
        }
        n.parent = NONE;
        n.prev = NONE;
        n.next = NONE;
        let is_attr = n.kind == NodeKind::Attribute;
        if prev != NONE {
            self.nodes[prev as usize].next = next;
        }
        if next != NONE {
            self.nodes[next as usize].prev = prev;
        }
        let p = &mut self.nodes[parent as usize];
        let (first, last) = if is_attr {
            (&mut p.first_attr, &mut p.last_attr)
        } else {
            (&mut p.first_child, &mut p.last_child)
        };
        if prev == NONE {
            *first = next;
        }
        if next == NONE {
            *last = prev;
        }
    }

    /// XQUF `delete node`: detach `node` for good. The subtree keeps its
    /// slots, and its ids stay valid, until the next
    /// [`reclaim`](Self::reclaim); use [`detach`](Self::detach) for a node
    /// that will be linked in again.
    pub fn remove(&mut self, node: NodeId) {
        if self.parent(node).is_some() {
            self.detach(node);
            self.discarded.push(node);
        }
    }

    pub fn remove_attribute(&mut self, element: NodeId, attr: NodeId) {
        if self.parent(attr) == Some(element) {
            self.remove(attr);
        }
    }

    /// XQUF `replace node`: swap `target` for `replacements` in its parent.
    /// An attribute cannot replace a node that is not one.
    pub fn replace_node(
        &mut self,
        target: NodeId,
        replacements: &[NodeId],
    ) -> Result<(), AttributeAsChild> {
        let parent = self
            .parent(target)
            .expect("replace target must have a parent");
        if self.kind(target) == NodeKind::Attribute {
            self.remove(target);
            for &r in replacements {
                self.set_attribute_node(parent, r);
            }
        } else {
            for &r in replacements {
                self.insert_before(target, r)?;
            }
            self.remove(target);
        }
        Ok(())
    }

    /// XQUF `replace value of node`.
    pub fn replace_value(&mut self, target: NodeId, value: &str) {
        self.invalidate_side();
        match self.kind(target) {
            NodeKind::Element => {
                // Replace the entire content with one text node.
                while let Some(k) = self.first_child(target) {
                    self.remove(k);
                }
                if !value.is_empty() {
                    let t = self.create_text(value);
                    self.link_last(target, t);
                }
            }
            NodeKind::Document => {}
            _ => {
                self.dead_text += self.nodes[target.index()].value.len as usize;
                self.nodes[target.index()].value = self.push_text(value);
            }
        }
    }

    /// XQUF `rename node`.
    pub fn rename(&mut self, target: NodeId, name: QName) {
        self.invalidate_side();
        self.nodes[target.index()].name = Some(Arc::new(name));
    }

    /// The end of a round of edits (`apply_updates` calls it once every
    /// primitive of an update list has run): count what [`remove`] and the
    /// replacing primitives cut out since the last call, and once dead slots
    /// outnumber live ones rebuild the tables from the tree in document
    /// order. A version therefore holds at most twice its live slots, and —
    /// with `clone`'s rule for the heap — twice its live text, however many
    /// edits lie behind it; the work is proportional to what died. Rebuilding
    /// renumbers every node, so call it only when nobody holds ids into this
    /// document.
    ///
    /// [`remove`]: Self::remove
    pub fn reclaim(&mut self) {
        self.invalidate_side();
        // the roots still cut off, then everything below them
        let mut dead = std::mem::take(&mut self.discarded);
        dead.sort_unstable();
        dead.dedup();
        dead.retain(|&root| self.parent(root).is_none());
        let mut walked = 0;
        while let Some(&n) = dead.get(walked) {
            walked += 1;
            dead.extend(self.attributes(n));
            dead.extend(self.children(n));
        }
        for n in dead {
            // nothing can reach the slot any more: give up its name and value
            let slot = &mut self.nodes[n.index()];
            slot.name = None;
            self.dead_text += std::mem::take(&mut slot.value).len as usize;
            self.dead_nodes += 1;
        }
        if self.dead_nodes * 2 <= self.nodes.len() {
            return;
        }
        let mut live = Document::with_capacity(
            self.nodes.len().saturating_sub(self.dead_nodes),
            self.text.len().saturating_sub(self.dead_text),
        );
        live.uri = self.uri.take();
        for child in self.children(self.root()) {
            let copy = live.import_subtree(self, child);
            live.link_last(live.root(), copy);
        }
        *self = live;
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    pub fn children(&self, id: NodeId) -> Siblings<'_> {
        let n = &self.nodes[id.index()];
        Siblings {
            nodes: &self.nodes,
            front: n.first_child,
            back: n.last_child,
        }
    }

    pub fn attributes(&self, id: NodeId) -> Siblings<'_> {
        let n = &self.nodes[id.index()];
        Siblings {
            nodes: &self.nodes,
            front: n.first_attr,
            back: n.last_attr,
        }
    }

    /// Strict descendants of `id` in document order (attributes excluded).
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            root: id,
            next: self.first_child(id),
        }
    }

    /// Namespace declarations *declared on this element*, in order.
    pub fn ns_decls(&self, id: NodeId) -> impl Iterator<Item = (&str, &str)> + '_ {
        let from = self.ns_decls.partition_point(|d| d.node < id);
        self.ns_decls[from..]
            .iter()
            .take_while(move |d| d.node == id)
            .map(|d| (self.heap_str(d.prefix), self.heap_str(d.uri)))
    }

    /// The bindings `id` inherits: every prefix (`""` = the default
    /// namespace) an ancestor declares that neither `id` nor a nearer
    /// ancestor rebinds, nearest first. What a fragment cut out at `id` must
    /// declare on its own start tag to keep its names. Undeclarations
    /// (`xmlns=""`) shadow but are not reported. Allocates nothing: a
    /// candidate is checked against the declarations between it and `id`
    /// where they lie: O(depth) per declaration an ancestor makes, and free
    /// for a document that declares nothing.
    pub fn inherited_ns_decls(&self, id: NodeId) -> impl Iterator<Item = (&str, &str)> + '_ {
        let nearest = if self.ns_decls.is_empty() {
            None
        } else {
            self.parent(id)
        };
        std::iter::successors(nearest, |&anc| self.parent(anc))
            .flat_map(move |anc| {
                self.ns_decls(anc)
                    .enumerate()
                    .filter(move |&(nth, (p, u))| {
                        // not an undeclaration, not declared earlier on `anc`, and
                        // not rebound anywhere from `id` up to `anc`
                        !u.is_empty()
                            && self.ns_decls(anc).take(nth).all(|(q, _)| q != p)
                            && std::iter::successors(Some(id), |&n| self.parent(n))
                                .take_while(|&n| n != anc)
                                .all(|n| self.ns_decls(n).all(|(q, _)| q != p))
                    })
            })
            .map(|(_, decl)| decl)
    }

    /// The lexical `xsi:type` of an element, if it carries one. The XRPC
    /// marshaler uses it to round-trip user-defined schema types.
    pub fn type_annotation(&self, id: NodeId) -> Option<&str> {
        let is_xsi_type = |n: &QName| n.is(crate::qname::NS_XSI, "type");
        self.attributes(id)
            .find(|&a| self.name(a).is_some_and(is_xsi_type))
            .map(|a| self.value(a))
    }

    pub fn attribute_by_name(&self, element: NodeId, name: &QName) -> Option<NodeId> {
        self.attributes(element)
            .find(|&a| self.name(a).is_some_and(|n| n.matches(name)))
    }

    /// Attribute value lookup by local name only (namespace ignored) —
    /// convenient for protocol parsing where attributes are unprefixed.
    pub fn attr_local(&self, element: NodeId, local: &str) -> Option<&str> {
        self.attributes(element)
            .find(|&a| self.name(a).is_some_and(|n| n.local == local))
            .map(|a| self.value(a))
    }

    /// First child element named `local` in namespace `ns_uri`.
    pub fn child_element(&self, parent: NodeId, ns_uri: &str, local: &str) -> Option<NodeId> {
        self.child_elements(parent)
            .find(|&c| self.name(c).is_some_and(|n| n.is(ns_uri, local)))
    }

    /// All child elements (any name).
    pub fn child_elements(&self, parent: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(parent)
            .filter(|&c| self.kind(c) == NodeKind::Element)
    }

    /// Concatenated text content (XDM string value).
    pub fn string_value(&self, id: NodeId) -> String {
        self.string_value_cow(id).into_owned()
    }

    /// The string value, borrowed from the heap where one node holds all
    /// of it (an attribute, a text node, an element with one text node).
    pub fn string_value_cow(&self, id: NodeId) -> Cow<'_, str> {
        if !matches!(self.kind(id), NodeKind::Document | NodeKind::Element) {
            return Cow::Borrowed(self.value(id));
        }
        let mut texts = self
            .descendants(id)
            .filter(|&d| self.kind(d) == NodeKind::Text)
            .map(|d| self.value(d));
        match (texts.next(), texts.next()) {
            (None, _) => Cow::Borrowed(""),
            (Some(only), None) => Cow::Borrowed(only),
            (Some(a), Some(b)) => Cow::Owned([a, b].into_iter().chain(texts).collect()),
        }
    }

    /// Resolve a namespace prefix at `node` by walking ancestor declarations.
    pub fn resolve_prefix(&self, node: NodeId, prefix: &str) -> Option<String> {
        if prefix == "xml" {
            return Some(crate::qname::NS_XML.to_string());
        }
        if self.ns_decls.is_empty() {
            return None;
        }
        let mut cur = Some(node);
        while let Some(id) = cur {
            if let Some((_, u)) = self.ns_decls(id).find(|(p, _)| *p == prefix) {
                // an empty URI un-declares the prefix
                return (!u.is_empty()).then(|| u.to_string());
            }
            cur = self.parent(id);
        }
        None
    }

    /// Number of arena slots the subtree rooted at `id` occupies (the node
    /// itself, its attributes, and all descendants).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        std::iter::once(id)
            .chain(self.descendants(id))
            .map(|n| 1 + self.attributes(n).count())
            .sum()
    }

    /// Rough serialized byte size of the subtree rooted at `id`: read off
    /// the version's wire image where it has one, else tag pairs from the
    /// interned name lengths, attribute/text content from the stored value
    /// lengths, plus a small slack for escaping.
    pub fn subtree_wire_estimate(&self, id: NodeId) -> usize {
        if let Some(range) = self.image.get().and_then(|image| image.range(id)) {
            return range.len();
        }
        let one = |n: NodeId| {
            let d = &self.nodes[n.index()];
            let name = d.name.as_ref().map_or(0, |q| 2 * q.lexical_len() + 5);
            let v = d.value.len as usize;
            name + v + v / 16 + 2 // <n>..</n> or n=".."
        };
        std::iter::once(id)
            .chain(self.descendants(id))
            .map(|n| one(n) + self.attributes(n).map(one).sum::<usize>())
            .sum()
    }

    /// Copy one node of `src` (with its attributes and namespace
    /// declarations, without children) into a new detached slot.
    fn import_node(&mut self, src: &Document, src_id: NodeId) -> NodeId {
        let sd = &src.nodes[src_id.index()];
        let value = self.push_text(src.heap_str(sd.value));
        let id = self.alloc(sd.kind, sd.name.clone(), value);
        if !src.ns_decls.is_empty() {
            for (p, u) in src.ns_decls(src_id) {
                self.add_ns_decl(id, p, u);
            }
        }
        for a in src.attributes(src_id) {
            let ad = &src.nodes[a.index()];
            let v = self.push_text(src.heap_str(ad.value));
            self.push_node(id, NodeKind::Attribute, ad.name.clone(), v);
        }
        id
    }

    /// Deep-copy the subtree rooted at `src_id` in `src` into `self`,
    /// returning the new root id. The copy is *detached* (no parent), giving
    /// the by-value semantics XRPC marshaling requires.
    pub fn import_subtree(&mut self, src: &Document, src_id: NodeId) -> NodeId {
        self.invalidate_side();
        let root = self.import_node(src, src_id);
        // `s` walks the source in document order, `d` is its copy
        let (mut s, mut d) = (src_id, root);
        loop {
            if let Some(c) = src.first_child(s) {
                let copy = self.import_node(src, c);
                self.link_last(d, copy);
                (s, d) = (c, copy);
                continue;
            }
            loop {
                if s == src_id {
                    return root;
                }
                let up = self.parent(d).expect("copy has a parent");
                if let Some(n) = src.next_sibling(s) {
                    let copy = self.import_node(src, n);
                    self.link_last(up, copy);
                    (s, d) = (n, copy);
                    break;
                }
                s = src.parent(s).expect("source node below the copied root");
                d = up;
            }
        }
    }

    /// Iterate all node ids in arena order (includes detached nodes).
    pub fn all_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }
}

impl Default for Document {
    fn default() -> Self {
        Document::new()
    }
}

/// Three `memcpy`s and a refcount bump per named node — except that a heap
/// more than half dead (long runs of `replace_value`, each followed by the
/// clone `apply_updates` makes) is rebuilt from the live values, so a
/// document's heap stays within twice its live text across versions.
impl Clone for Document {
    fn clone(&self) -> Self {
        let mut copy = Document {
            nodes: self.nodes.clone(),
            text: String::new(),
            dead_text: self.dead_text,
            dead_nodes: self.dead_nodes,
            discarded: self.discarded.clone(),
            ns_decls: self.ns_decls.clone(),
            uri: self.uri.clone(),
            side: OnceLock::new(),
            image: OnceLock::new(),
            walked: AtomicUsize::new(0),
        };
        if self.dead_text * 2 <= self.text.len() {
            copy.text = self.text.clone();
            return copy;
        }
        copy.dead_text = 0;
        copy.text.reserve(self.text.len() - self.dead_text);
        for i in 0..copy.nodes.len() {
            let live = self.heap_str(copy.nodes[i].value);
            copy.nodes[i].value = copy.push_text(live);
        }
        for i in 0..copy.ns_decls.len() {
            let NsDecl { prefix, uri, .. } = copy.ns_decls[i];
            copy.ns_decls[i].prefix = copy.push_text(self.heap_str(prefix));
            copy.ns_decls[i].uri = copy.push_text(self.heap_str(uri));
        }
        copy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elem(doc: &mut Document, name: &str) -> NodeId {
        doc.create_element(QName::local(name))
    }

    #[test]
    fn build_and_navigate() {
        let mut d = Document::new();
        let root = elem(&mut d, "a");
        d.append_child(d.root(), root);
        let b = elem(&mut d, "b");
        d.append_child(root, b);
        let t = d.create_text("hi");
        d.append_child(b, t);
        assert_eq!(d.children(root).collect::<Vec<_>>(), [b]);
        assert_eq!(d.string_value(root), "hi");
        assert_eq!(d.parent(b), Some(root));
    }

    #[test]
    fn insert_before_after() {
        let mut d = Document::new();
        let root = elem(&mut d, "r");
        d.append_child(d.root(), root);
        let a = elem(&mut d, "a");
        let b = elem(&mut d, "b");
        let c = elem(&mut d, "c");
        d.append_child(root, b);
        d.insert_before(b, a).unwrap();
        d.insert_after(b, c).unwrap();
        let names: Vec<String> = d
            .children(root)
            .map(|k| d.node(k).name.as_ref().unwrap().local.clone())
            .collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn replace_node_multi() {
        let mut d = Document::new();
        let root = elem(&mut d, "r");
        d.append_child(d.root(), root);
        let a = elem(&mut d, "a");
        d.append_child(root, a);
        let x = elem(&mut d, "x");
        let y = elem(&mut d, "y");
        d.replace_node(a, &[x, y]).unwrap();
        let names: Vec<String> = d
            .children(root)
            .map(|k| d.node(k).name.as_ref().unwrap().local.clone())
            .collect();
        assert_eq!(names, ["x", "y"]);
        assert_eq!(d.parent(a), None);
    }

    #[test]
    fn side_data_describes_one_value_of_the_document() {
        let mut d = Document::new();
        let root = elem(&mut d, "r");
        d.append_child(d.root(), root);
        assert!(d.side_data_if_any::<usize>().is_none());
        // created once, then shared
        assert_eq!(*d.side_data(|| d.len()), 2);
        assert_eq!(*d.side_data(|| 99usize), 2);
        // a copy starts without it
        assert!(d.clone().side_data_if_any::<usize>().is_none());
        // and so does the document after any change
        let edits: [fn(&mut Document, NodeId); 5] = [
            |d, _| {
                d.create_text("t");
            },
            |d, r| d.set_attribute(r, QName::local("a"), "v"),
            |d, r| d.rename(r, QName::local("s")),
            |d, r| d.replace_value(r, "x"),
            |d, r| d.detach(r),
        ];
        for edit in edits {
            d.side_data(|| 7usize);
            edit(&mut d, root);
            assert!(d.side_data_if_any::<usize>().is_none());
        }
    }

    #[test]
    fn replace_value_of_element() {
        let mut d = Document::new();
        let root = elem(&mut d, "r");
        d.append_child(d.root(), root);
        let t = d.create_text("old");
        d.append_child(root, t);
        d.replace_value(root, "new");
        assert_eq!(d.string_value(root), "new");
    }

    #[test]
    fn set_attribute_replaces_same_name() {
        let mut d = Document::new();
        let root = elem(&mut d, "r");
        d.append_child(d.root(), root);
        d.set_attribute(root, QName::local("id"), "1");
        d.set_attribute(root, QName::local("id"), "2");
        assert_eq!(d.attributes(root).count(), 1);
        assert_eq!(d.attr_local(root, "id"), Some("2"));
    }

    #[test]
    fn rename_node() {
        let mut d = Document::new();
        let root = elem(&mut d, "old");
        d.append_child(d.root(), root);
        d.rename(root, QName::local("new"));
        assert_eq!(d.node(root).name.as_ref().unwrap().local, "new");
    }

    #[test]
    fn import_subtree_is_detached_deep_copy() {
        let mut src = Document::new();
        let root = elem(&mut src, "a");
        src.append_child(src.root(), root);
        src.set_attribute(root, QName::local("k"), "v");
        let kid = elem(&mut src, "b");
        src.append_child(root, kid);

        let mut dst = Document::new();
        let copy = dst.import_subtree(&src, root);
        assert_eq!(dst.parent(copy), None);
        assert_eq!(dst.attr_local(copy, "k"), Some("v"));
        assert_eq!(dst.children(copy).count(), 1);
        // Mutating the copy leaves the source untouched.
        dst.rename(copy, QName::local("z"));
        assert_eq!(src.node(root).name.as_ref().unwrap().local, "a");
    }

    #[test]
    fn prefix_resolution_walks_ancestors() {
        let mut d = Document::new();
        let root = elem(&mut d, "r");
        d.append_child(d.root(), root);
        d.add_ns_decl(root, "p", "urn:p");
        let kid = elem(&mut d, "k");
        d.append_child(root, kid);
        assert_eq!(d.resolve_prefix(kid, "p").as_deref(), Some("urn:p"));
        assert_eq!(d.resolve_prefix(kid, "q"), None);
        assert_eq!(
            d.resolve_prefix(kid, "xml").as_deref(),
            Some(crate::qname::NS_XML)
        );
    }

    #[test]
    fn node_slot_is_48_bytes() {
        assert!(std::mem::size_of::<NodeData>() <= 48);
    }

    #[test]
    fn moving_an_earlier_sibling_lands_next_to_the_anchor() {
        let mut d = Document::new();
        let root = elem(&mut d, "r");
        d.append_child(d.root(), root);
        let (a, b, c) = (elem(&mut d, "a"), elem(&mut d, "b"), elem(&mut d, "c"));
        for k in [a, b, c] {
            d.append_child(root, k);
        }
        d.insert_before(c, a).unwrap();
        assert_eq!(d.children(root).collect::<Vec<_>>(), [b, a, c]);
        d.insert_after(c, b).unwrap();
        assert_eq!(d.children(root).collect::<Vec<_>>(), [a, c, b]);
        assert_eq!(d.children(root).rev().collect::<Vec<_>>(), [b, c, a]);
        d.insert_child_at(root, 0, b);
        assert_eq!(d.children(root).collect::<Vec<_>>(), [b, a, c]);
    }

    #[test]
    fn clone_compacts_a_mostly_dead_heap() {
        let mut d = Document::new();
        let root = elem(&mut d, "r");
        d.append_child(d.root(), root);
        d.add_ns_decl(root, "p", "urn:p");
        let t = d.create_text("0");
        d.append_child(root, t);
        for i in 1..100 {
            d.replace_value(t, &format!("value {i}"));
        }
        assert!(d.text_heap_len() > 500);
        let c = d.clone();
        assert_eq!(c.text_heap_len(), "purn:pvalue 99".len());
        assert_eq!(c.value(t), "value 99");
        assert_eq!(c.resolve_prefix(t, "p").as_deref(), Some("urn:p"));
    }

    #[test]
    fn reclaim_keeps_the_arena_within_twice_its_live_nodes() {
        let mut d = Document::new();
        let root = elem(&mut d, "r");
        d.append_child(d.root(), root);
        d.add_ns_decl(root, "p", "urn:p");
        d.set_attribute(root, QName::local("k"), "v");
        let fresh = d.len();
        for i in 0..1000 {
            // the root element is wherever the last rebuild put it
            let root = d.first_child(d.root()).unwrap();
            d.replace_value(root, &i.to_string());
            d.set_attribute(root, QName::local("k"), i.to_string());
            d.reclaim();
            d = d.clone();
            assert!(d.len() <= 2 * (fresh + 1) + 1, "{} slots", d.len());
            assert!(d.text_heap_len() <= 2 * "purn:p999999".len());
        }
        let root = d.first_child(d.root()).unwrap();
        assert_eq!(d.string_value(root), "999");
        assert_eq!(d.attr_local(root, "k"), Some("999"));
        assert_eq!(d.resolve_prefix(root, "p").as_deref(), Some("urn:p"));
    }

    #[test]
    fn removed_nodes_keep_their_ids_until_reclaim() {
        let mut d = Document::new();
        let root = elem(&mut d, "r");
        d.append_child(d.root(), root);
        let kid = elem(&mut d, "kid");
        d.append_child(root, kid);
        d.replace_value(root, "text");
        // the old child is cut out but still a node one can edit
        assert_eq!(d.parent(kid), None);
        d.rename(kid, QName::local("renamed"));
        for _ in 0..3 {
            let below = d.create_text("below");
            d.append_child(kid, below);
        }
        assert_eq!(d.string_value(kid), "belowbelowbelow");
        assert_eq!(d.string_value(root), "text");
        // a removed node that is linked back in before the boundary lives on
        let t = d.first_child(root).unwrap();
        d.remove(t);
        d.append_child(root, t);
        d.reclaim();
        let root = d.first_child(d.root()).unwrap();
        assert_eq!(d.string_value(root), "text");
        assert_eq!(d.len(), 3, "document, element, text");
    }

    #[test]
    fn deep_import_and_string_value_do_not_recurse() {
        let depth = 100_000;
        let mut src = Document::new();
        let mut cur = src.root();
        for _ in 0..depth {
            let e = elem(&mut src, "d");
            src.append_child(cur, e);
            cur = e;
        }
        let t = src.create_text("x");
        src.append_child(cur, t);
        let top = src.first_child(src.root()).unwrap();
        let mut dst = Document::new();
        let copy = dst.import_subtree(&src, top);
        assert_eq!(dst.subtree_size(copy), depth + 1);
        assert_eq!(dst.string_value(copy), "x");
    }
}
