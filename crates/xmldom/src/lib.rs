//! Arena-based XML document store: the storage substrate underneath the
//! XQuery Data Model, the XQuery engines and the SOAP XRPC protocol layer.
//!
//! Design notes
//! ------------
//! * A [`Document`] owns a flat arena of fixed-size nodes ([`NodeId`] indexes
//!   into it) plus one text heap for every value. Child and attribute lists
//!   are sibling links inside the nodes, so XQUF mutations
//!   (insert/delete/replace/rename) are O(1) link edits and a document of
//!   any size is a handful of heap blocks.
//! * Evaluation always works on immutable `Arc<Document>` snapshots; updates
//!   clone the arena, mutate the clone and swap it in. This mirrors the
//!   shadow-paging snapshot isolation that MonetDB/XQuery uses (paper §2.2).
//! * Document order is computed structurally (by comparing ancestor paths),
//!   which stays correct after arbitrary mutation.

pub mod axes;
pub mod escape;
pub mod node;
pub mod order;
pub mod parser;
pub mod qname;
pub mod reader;
pub mod serialize;

pub use node::{AttributeAsChild, Document, NodeData, NodeId, NodeKind};
pub use parser::{parse, parse_with_uri, Builder, ParseError};
pub use qname::QName;
pub use reader::{Attr, Event, Name, Reader, StartTag};
pub use serialize::{
    serialize_counters, serialize_document, serialize_document_into, serialize_node,
    serialize_node_into, SerializeCounters, SerializeOpts,
};

use std::sync::Arc;

/// A reference-counted handle to a node inside a specific document snapshot.
///
/// Two handles are the *same node* iff they point into the same snapshot and
/// carry the same id; handles into different snapshots of one logical
/// document are distinct nodes, which is exactly what repeatable-read
/// isolation requires.
#[derive(Clone)]
pub struct NodeHandle {
    pub doc: Arc<Document>,
    pub id: NodeId,
}

impl NodeHandle {
    pub fn new(doc: Arc<Document>, id: NodeId) -> Self {
        NodeHandle { doc, id }
    }

    /// Handle to the document root node of `doc`.
    pub fn root(doc: Arc<Document>) -> Self {
        let id = doc.root();
        NodeHandle { doc, id }
    }

    pub fn kind(&self) -> NodeKind {
        self.doc.kind(self.id)
    }

    /// The node's own value (see [`Document::value`]).
    pub fn value(&self) -> &str {
        self.doc.value(self.id)
    }

    /// The lexical `xsi:type` annotation, if any.
    pub fn type_annotation(&self) -> Option<&str> {
        self.doc.type_annotation(self.id)
    }

    /// Node identity (`is` operator): same snapshot, same arena slot.
    pub fn same_node(&self, other: &NodeHandle) -> bool {
        Arc::ptr_eq(&self.doc, &other.doc) && self.id == other.id
    }

    /// String value per the XDM (concatenation of descendant text nodes for
    /// elements/documents; the stored value for the other kinds).
    pub fn string_value(&self) -> String {
        self.doc.string_value(self.id)
    }

    pub fn name(&self) -> Option<&QName> {
        self.doc.name(self.id)
    }

    pub fn parent(&self) -> Option<NodeHandle> {
        let parent = self.doc.parent(self.id)?;
        Some(NodeHandle::new(self.doc.clone(), parent))
    }

    /// Serialize this node (children inline) to a string.
    pub fn to_xml(&self) -> String {
        serialize::serialize_node(&self.doc, self.id, &SerializeOpts::default())
    }
}

impl std::fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NodeHandle({:?}, {:?})", self.id, self.kind())
    }
}

impl PartialEq for NodeHandle {
    fn eq(&self, other: &Self) -> bool {
        self.same_node(other)
    }
}
impl Eq for NodeHandle {}

impl std::hash::Hash for NodeHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (Arc::as_ptr(&self.doc) as usize).hash(state);
        self.id.hash(state);
    }
}
