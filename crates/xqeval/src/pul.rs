//! XQUF pending update lists (PULs) and `applyUpdates`.
//!
//! The paper's update semantics (§2.3) hinge on this machinery: an updating
//! function evaluates to a PUL ∆; rule `RFu` applies ∆ right after the call,
//! rule `R'Fu` defers the union of all ∆s until 2PC commit. `apply_updates`
//! here computes *new document versions* without touching the originals —
//! the document store swaps them in, which is what makes snapshot isolation
//! cheap (shadow-paging analog).

use std::sync::Arc;
use xdm::{XdmError, XdmResult};
use xmldom::{Document, NodeHandle, NodeId, NodeKind, QName};

/// One XQUF update primitive. Node sources are stored as by-value fragments
/// (fresh documents), matching XRPC call-by-value marshaling. `T` is how a
/// target is addressed: a node of a document version while the update is
/// pending, something durable (a path) while it waits in a log.
#[derive(Clone, Debug)]
pub enum UpdatePrimitive<T = NodeHandle> {
    InsertInto {
        target: T,
        content: Vec<NodeHandle>,
    },
    InsertFirst {
        target: T,
        content: Vec<NodeHandle>,
    },
    InsertLast {
        target: T,
        content: Vec<NodeHandle>,
    },
    InsertBefore {
        target: T,
        content: Vec<NodeHandle>,
    },
    InsertAfter {
        target: T,
        content: Vec<NodeHandle>,
    },
    Delete {
        target: T,
    },
    ReplaceNode {
        target: T,
        replacement: Vec<NodeHandle>,
    },
    ReplaceValue {
        target: T,
        value: String,
    },
    Rename {
        target: T,
        name: QName,
    },
    /// `fn:put($node, $uri)`
    Put {
        node: NodeHandle,
        uri: String,
    },
}

impl<T> UpdatePrimitive<T> {
    pub fn target(&self) -> Option<&T> {
        match self {
            UpdatePrimitive::InsertInto { target, .. }
            | UpdatePrimitive::InsertFirst { target, .. }
            | UpdatePrimitive::InsertLast { target, .. }
            | UpdatePrimitive::InsertBefore { target, .. }
            | UpdatePrimitive::InsertAfter { target, .. }
            | UpdatePrimitive::Delete { target }
            | UpdatePrimitive::ReplaceNode { target, .. }
            | UpdatePrimitive::ReplaceValue { target, .. }
            | UpdatePrimitive::Rename { target, .. } => Some(target),
            UpdatePrimitive::Put { .. } => None,
        }
    }

    /// The same primitive with its target re-addressed by `f`.
    pub fn try_map_target<U, E>(
        &self,
        f: impl FnOnce(&T) -> Result<U, E>,
    ) -> Result<UpdatePrimitive<U>, E> {
        use UpdatePrimitive::*;
        // every variant but `Put` is a target and at most one other field
        macro_rules! remap {
            ($($v:ident $(. $field:ident)?),*) => {
                match self {
                    $($v { target $(, $field)? } => $v { target: f(target)? $(, $field: $field.clone())? },)*
                    Put { node, uri } => Put { node: node.clone(), uri: uri.clone() },
                }
            };
        }
        Ok(remap! {
            InsertInto.content, InsertFirst.content, InsertLast.content, InsertBefore.content,
            InsertAfter.content, Delete, ReplaceNode.replacement, ReplaceValue.value, Rename.name
        })
    }
}

/// A pending update list. XQUF allows unioning PULs freely — the paper
/// relies on this to merge the per-call ∆s of one query (§2.3).
#[derive(Clone, Debug, Default)]
pub struct PendingUpdateList {
    pub primitives: Vec<UpdatePrimitive>,
}

impl PendingUpdateList {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.primitives.is_empty()
    }

    pub fn len(&self) -> usize {
        self.primitives.len()
    }

    pub fn push(&mut self, p: UpdatePrimitive) {
        self.primitives.push(p);
    }

    /// Union (XQUF `upd:mergeUpdates`): concatenation; compatibility is
    /// checked at apply time.
    pub fn merge(&mut self, other: PendingUpdateList) {
        self.primitives.extend(other.primitives);
    }

    /// Copy every *source* fragment (insert content, replacements,
    /// `fn:put` nodes) whose handle shares a larger arena into its own
    /// right-sized document. Targets are left alone — they identify store
    /// documents by `Arc` identity and must keep pointing at them.
    ///
    /// Deferred PULs (rule `R'Fu`) outlive the request that produced them:
    /// zero-copy decode leaves node parameters detached inside the shared
    /// message arena, so without this a single small content fragment held
    /// until 2PC commit pins the whole multi-MiB envelope arena.
    pub fn compact_sources(&mut self) {
        for p in &mut self.primitives {
            match p {
                UpdatePrimitive::InsertInto { content, .. }
                | UpdatePrimitive::InsertFirst { content, .. }
                | UpdatePrimitive::InsertLast { content, .. }
                | UpdatePrimitive::InsertBefore { content, .. }
                | UpdatePrimitive::InsertAfter { content, .. }
                | UpdatePrimitive::ReplaceNode {
                    replacement: content,
                    ..
                } => {
                    for h in content {
                        compact_handle(h);
                    }
                }
                UpdatePrimitive::Put { node, .. } => compact_handle(node),
                UpdatePrimitive::Delete { .. }
                | UpdatePrimitive::ReplaceValue { .. }
                | UpdatePrimitive::Rename { .. } => {}
            }
        }
    }

    /// XQUF compatibility checks (XUDY0015/16/17): at most one rename, one
    /// replace-node and one replace-value per target node.
    pub fn check_compatibility(&self) -> XdmResult<()> {
        let mut renames: Vec<&NodeHandle> = Vec::new();
        let mut repl_nodes: Vec<&NodeHandle> = Vec::new();
        let mut repl_values: Vec<&NodeHandle> = Vec::new();
        for p in &self.primitives {
            let (bucket, t): (&mut Vec<&NodeHandle>, &NodeHandle) = match p {
                UpdatePrimitive::Rename { target, .. } => (&mut renames, target),
                UpdatePrimitive::ReplaceNode { target, .. } => (&mut repl_nodes, target),
                UpdatePrimitive::ReplaceValue { target, .. } => (&mut repl_values, target),
                _ => continue,
            };
            if bucket.iter().any(|h| h.same_node(t)) {
                return Err(XdmError::update_error(
                    "incompatible updates: same target updated twice (XUDY0015-17)",
                ));
            }
            bucket.push(t);
        }
        Ok(())
    }
}

/// Re-home `h` into a fresh arena of its own when its current arena is
/// larger than its subtree (i.e. the handle pins unrelated nodes).
/// The copy stays detached, exactly like a decoded message fragment —
/// source handles are only ever consumed via `import_subtree`.
fn compact_handle(h: &mut NodeHandle) {
    // the handle already (roughly) owns its whole arena: nothing to win
    if h.doc.subtree_size(h.id) + 1 >= h.doc.len() {
        return;
    }
    let mut fresh = Document::new();
    let id = fresh.import_subtree(&h.doc, h.id);
    *h = NodeHandle::new(Arc::new(fresh), id);
}

/// The outcome of `apply_updates` for one affected document: the old
/// snapshot identity and the freshly built new version.
pub struct DocEdit {
    pub uri: Option<String>,
    pub old: Arc<Document>,
    pub new: Arc<Document>,
}

/// Materialize a PUL: for every document touched, clone it, apply the
/// primitives in XQUF order (inserts/renames/replace-values first, then
/// replaces, then deletes), reclaim what they cut out (so a version's size
/// follows its content, not its history), and return the new versions. Node
/// ids of a new version are its own: they need not match the old one's.
/// `fn:put` targets come back as extra edits with the `put` URI and no
/// `old`-identity match.
pub fn apply_updates(pul: &PendingUpdateList) -> XdmResult<Vec<DocEdit>> {
    pul.check_compatibility()?;

    // Group primitives by target document (Arc identity).
    let mut groups: Vec<(Arc<Document>, Vec<&UpdatePrimitive>)> = Vec::new();
    let mut puts: Vec<&UpdatePrimitive> = Vec::new();
    for p in &pul.primitives {
        match p.target() {
            Some(t) => match groups.iter_mut().find(|(d, _)| Arc::ptr_eq(d, &t.doc)) {
                Some((_, v)) => v.push(p),
                None => groups.push((t.doc.clone(), vec![p])),
            },
            None => puts.push(p),
        }
    }

    let mut edits = Vec::new();
    for (old, prims) in groups {
        let mut new_doc: Document = (*old).clone();
        // XQUF application order: insert/rename/replace-value, then
        // replace-node, then delete. Within a class, list order.
        let phase = |p: &UpdatePrimitive| match p {
            UpdatePrimitive::Delete { .. } => 2,
            UpdatePrimitive::ReplaceNode { .. } => 1,
            _ => 0,
        };
        let mut ordered = prims.clone();
        ordered.sort_by_key(|p| phase(p));
        for p in ordered {
            apply_one(&mut new_doc, p)?;
        }
        // only now: a later primitive may name a node an earlier one cut out
        new_doc.reclaim();
        edits.push(DocEdit {
            uri: old.uri.clone(),
            old,
            new: Arc::new(new_doc),
        });
    }

    for p in puts {
        if let UpdatePrimitive::Put { node, uri } = p {
            let mut d = Document::with_uri(uri.clone());
            let root = d.root();
            let copy = d.import_subtree(&node.doc, node.id);
            d.append_child(root, copy);
            edits.push(DocEdit {
                uri: Some(uri.clone()),
                old: node.doc.clone(),
                new: Arc::new(d),
            });
        }
    }
    Ok(edits)
}

fn import_content(dst: &mut Document, content: &[NodeHandle]) -> Vec<NodeId> {
    content
        .iter()
        .map(|h| dst.import_subtree(&h.doc, h.id))
        .collect()
}

fn apply_one(doc: &mut Document, p: &UpdatePrimitive) -> XdmResult<()> {
    match p {
        UpdatePrimitive::InsertInto { target, content }
        | UpdatePrimitive::InsertLast { target, content } => {
            let ids = import_content(doc, content);
            for id in ids {
                attach(doc, target.id, id);
            }
        }
        UpdatePrimitive::InsertFirst { target, content } => {
            let ids = import_content(doc, content);
            // child positions count children only: an attribute in the
            // content takes none
            let mut at = 0;
            for id in ids {
                if doc.kind(id) == NodeKind::Attribute {
                    doc.set_attribute_node(target.id, id);
                } else {
                    doc.insert_child_at(target.id, at, id);
                    at += 1;
                }
            }
        }
        UpdatePrimitive::InsertBefore { target, content }
        | UpdatePrimitive::InsertAfter { target, content } => {
            let parent = doc.parent(target.id).ok_or_else(|| {
                XdmError::new("XUDY0029", "insert before/after a node with no parent")
            })?;
            let ids = import_content(doc, content);
            // keep relative order: insert after the previous inserted node
            let mut anchor = target.id;
            for id in ids {
                // XQUF §2.4.1: attribute nodes in the content become
                // attributes of the target's parent
                if doc.kind(id) == NodeKind::Attribute {
                    if doc.kind(parent) == NodeKind::Document {
                        return Err(XdmError::new(
                            "XUDY0030",
                            "insert of an attribute beside a child of a document node",
                        ));
                    }
                    doc.set_attribute_node(parent, id);
                } else if matches!(p, UpdatePrimitive::InsertBefore { .. }) {
                    doc.insert_before(target.id, id).map_err(misplaced)?;
                } else {
                    doc.insert_after(anchor, id).map_err(misplaced)?;
                    anchor = id;
                }
            }
        }
        UpdatePrimitive::Delete { target } => {
            doc.remove(target.id);
        }
        UpdatePrimitive::ReplaceNode {
            target,
            replacement,
        } => {
            let ids = import_content(doc, replacement);
            let attr = |id: NodeId| doc.kind(id) == NodeKind::Attribute;
            if attr(target.id) && !ids.iter().all(|&id| attr(id)) {
                return Err(XdmError::new(
                    "XUTY0011",
                    "an attribute can only be replaced by attributes",
                ));
            }
            doc.replace_node(target.id, &ids).map_err(misplaced)?;
        }
        UpdatePrimitive::ReplaceValue { target, value } => {
            doc.replace_value(target.id, value);
        }
        UpdatePrimitive::Rename { target, name } => {
            doc.rename(target.id, name.clone());
        }
        UpdatePrimitive::Put { .. } => unreachable!("puts handled separately"),
    }
    Ok(())
}

/// An attribute where XQUF wants a child (`replace node` of a non-attribute
/// by one).
fn misplaced(_: xmldom::AttributeAsChild) -> XdmError {
    XdmError::new("XUTY0010", "an attribute cannot take the place of a child")
}

fn attach(doc: &mut Document, parent: NodeId, child: NodeId) {
    if doc.kind(child) == NodeKind::Attribute {
        doc.set_attribute_node(parent, child);
    } else {
        doc.append_child(parent, child);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldom::parse;

    fn handle(doc: &Arc<Document>, path: &[usize]) -> NodeHandle {
        let mut id = doc.root();
        for &i in path {
            id = doc.children(id).nth(i).unwrap();
        }
        NodeHandle::new(doc.clone(), id)
    }

    fn fragment(xml: &str) -> NodeHandle {
        let d = Arc::new(parse(xml).unwrap());
        let root = d.first_child(d.root()).unwrap();
        NodeHandle::new(d, root)
    }

    #[test]
    fn insert_into_creates_new_version() {
        let old = Arc::new(parse("<a><b/></a>").unwrap());
        let mut pul = PendingUpdateList::new();
        pul.push(UpdatePrimitive::InsertInto {
            target: handle(&old, &[0]),
            content: vec![fragment("<c/>")],
        });
        let edits = apply_updates(&pul).unwrap();
        assert_eq!(edits.len(), 1);
        let new = &edits[0].new;
        let a = new.first_child(new.root()).unwrap();
        assert_eq!(new.children(a).count(), 2);
        // old version untouched
        let a_old = old.first_child(old.root()).unwrap();
        assert_eq!(old.children(a_old).count(), 1);
    }

    #[test]
    fn insert_positions() {
        let old = Arc::new(parse("<a><m/></a>").unwrap());
        let a = handle(&old, &[0]);
        let m = handle(&old, &[0, 0]);
        let mut pul = PendingUpdateList::new();
        pul.push(UpdatePrimitive::InsertFirst {
            target: a.clone(),
            content: vec![fragment("<first/>")],
        });
        pul.push(UpdatePrimitive::InsertLast {
            target: a.clone(),
            content: vec![fragment("<last/>")],
        });
        pul.push(UpdatePrimitive::InsertBefore {
            target: m.clone(),
            content: vec![fragment("<before/>")],
        });
        pul.push(UpdatePrimitive::InsertAfter {
            target: m,
            content: vec![fragment("<x1/>"), fragment("<x2/>")],
        });
        let edits = apply_updates(&pul).unwrap();
        let new = &edits[0].new;
        let a = new.first_child(new.root()).unwrap();
        let names: Vec<String> = new
            .children(a)
            .map(|c| new.node(c).name.as_ref().unwrap().local.clone())
            .collect();
        assert_eq!(names, ["first", "before", "m", "x1", "x2", "last"]);
    }

    #[test]
    fn delete_and_replace() {
        let old = Arc::new(parse("<a><b/><c>old</c></a>").unwrap());
        let mut pul = PendingUpdateList::new();
        pul.push(UpdatePrimitive::Delete {
            target: handle(&old, &[0, 0]),
        });
        pul.push(UpdatePrimitive::ReplaceValue {
            target: handle(&old, &[0, 1]),
            value: "new".into(),
        });
        let edits = apply_updates(&pul).unwrap();
        let new = &edits[0].new;
        let a = new.first_child(new.root()).unwrap();
        assert_eq!(new.children(a).count(), 1);
        assert_eq!(new.string_value(a), "new");
    }

    #[test]
    fn replace_node_with_fragment() {
        let old = Arc::new(parse("<a><b/></a>").unwrap());
        let mut pul = PendingUpdateList::new();
        pul.push(UpdatePrimitive::ReplaceNode {
            target: handle(&old, &[0, 0]),
            replacement: vec![fragment("<x><y/></x>")],
        });
        let edits = apply_updates(&pul).unwrap();
        let new = &edits[0].new;
        let a = new.first_child(new.root()).unwrap();
        let x = new.first_child(a).unwrap();
        assert_eq!(new.node(x).name.as_ref().unwrap().local.clone(), "x");
        assert_eq!(new.children(x).count(), 1);
    }

    #[test]
    fn rename() {
        let old = Arc::new(parse("<a><b/></a>").unwrap());
        let mut pul = PendingUpdateList::new();
        pul.push(UpdatePrimitive::Rename {
            target: handle(&old, &[0, 0]),
            name: QName::local("renamed"),
        });
        let new = &apply_updates(&pul).unwrap()[0].new;
        let a = new.first_child(new.root()).unwrap();
        let b = new.first_child(a).unwrap();
        assert_eq!(new.node(b).name.as_ref().unwrap().local.clone(), "renamed");
    }

    #[test]
    fn incompatible_double_rename_rejected() {
        let old = Arc::new(parse("<a><b/></a>").unwrap());
        let t = handle(&old, &[0, 0]);
        let mut pul = PendingUpdateList::new();
        pul.push(UpdatePrimitive::Rename {
            target: t.clone(),
            name: QName::local("x"),
        });
        pul.push(UpdatePrimitive::Rename {
            target: t,
            name: QName::local("y"),
        });
        assert!(apply_updates(&pul).is_err());
    }

    #[test]
    fn merge_order_independent_for_commuting_updates() {
        // Inserting into two different parents commutes: applying the merged
        // PUL in either merge order gives the same document.
        let old = Arc::new(parse("<a><b/><c/></a>").unwrap());
        let mk = |first: bool| {
            let mut p1 = PendingUpdateList::new();
            p1.push(UpdatePrimitive::InsertInto {
                target: handle(&old, &[0, 0]),
                content: vec![fragment("<x/>")],
            });
            let mut p2 = PendingUpdateList::new();
            p2.push(UpdatePrimitive::InsertInto {
                target: handle(&old, &[0, 1]),
                content: vec![fragment("<y/>")],
            });
            let mut merged = PendingUpdateList::new();
            if first {
                merged.merge(p1);
                merged.merge(p2);
            } else {
                merged.merge(p2);
                merged.merge(p1);
            }
            let edits = apply_updates(&merged).unwrap();
            xmldom::serialize_document(&edits[0].new, &Default::default())
        };
        assert_eq!(mk(true), mk(false));
    }

    #[test]
    fn delete_applies_after_insert_per_xquf_order() {
        // Insert into a node AND delete it in one PUL: XQUF applies inserts
        // first, deletes last — net effect the node is gone.
        let old = Arc::new(parse("<a><b/></a>").unwrap());
        let b = handle(&old, &[0, 0]);
        let mut pul = PendingUpdateList::new();
        pul.push(UpdatePrimitive::Delete { target: b.clone() });
        pul.push(UpdatePrimitive::InsertInto {
            target: b,
            content: vec![fragment("<kid/>")],
        });
        let new = &apply_updates(&pul).unwrap()[0].new;
        let a = new.first_child(new.root()).unwrap();
        assert!(new.children(a).next().is_none());
    }

    /// Compaction must re-home source fragments out of a big shared arena
    /// (the deferred-PUL case) without changing targets or apply results.
    #[test]
    fn compact_sources_rehomes_fragments_without_changing_result() {
        let big = Arc::new(
            parse(
                r#"<env><pad><p/><p/><p/><p/><p/></pad><frag a="1"><kid>text</kid></frag></env>"#,
            )
            .unwrap(),
        );
        let old = Arc::new(parse("<a/>").unwrap());
        let mut pul = PendingUpdateList::new();
        pul.push(UpdatePrimitive::InsertInto {
            target: handle(&old, &[0]),
            content: vec![handle(&big, &[0, 1])],
        });
        let before =
            xmldom::serialize_document(&apply_updates(&pul).unwrap()[0].new, &Default::default());
        pul.compact_sources();
        match &pul.primitives[0] {
            UpdatePrimitive::InsertInto { target, content } => {
                // targets keep their Arc identity (the store grouping key)
                assert!(Arc::ptr_eq(&target.doc, &old));
                // the fragment no longer pins the envelope arena
                assert!(!Arc::ptr_eq(&content[0].doc, &big));
                assert!(content[0].doc.len() < big.len());
            }
            _ => unreachable!(),
        }
        let after =
            xmldom::serialize_document(&apply_updates(&pul).unwrap()[0].new, &Default::default());
        assert_eq!(before, after);
    }

    #[test]
    fn put_produces_new_document() {
        let src = Arc::new(parse("<data><v>1</v></data>").unwrap());
        let mut pul = PendingUpdateList::new();
        pul.push(UpdatePrimitive::Put {
            node: handle(&src, &[0]),
            uri: "out.xml".into(),
        });
        let edits = apply_updates(&pul).unwrap();
        assert_eq!(edits[0].uri.as_deref(), Some("out.xml"));
        let d = &edits[0].new;
        assert_eq!(d.string_value(d.root()), "1");
    }

    #[test]
    fn attribute_insert() {
        let old = Arc::new(parse("<a/>").unwrap());
        let attr_doc = {
            let mut d = Document::new();
            let a = d.create_attribute(QName::local("k"), "v");
            Arc::new({
                let _ = a;
                d
            })
        };
        let attr = NodeHandle::new(attr_doc.clone(), NodeId(1));
        let mut pul = PendingUpdateList::new();
        pul.push(UpdatePrimitive::InsertInto {
            target: handle(&old, &[0]),
            content: vec![attr],
        });
        let new = &apply_updates(&pul).unwrap()[0].new;
        let a = new.first_child(new.root()).unwrap();
        assert_eq!(new.attr_local(a, "k"), Some("v"));
    }
}
