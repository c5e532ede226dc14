//! Document order, computed structurally so it survives XQUF mutation.
//!
//! Nodes from *different* documents are ordered by an arbitrary but stable
//! criterion (the `Arc` pointer address), as the XQuery Data Model allows —
//! the paper (§2.2 Call-by-Value) explicitly notes XRPC does not preserve
//! cross-document order on marshaled copies.

use crate::node::{Document, NodeId, NodeKind};
use crate::NodeHandle;
use std::cmp::Ordering;
use std::sync::Arc;

/// Path from the document root to a node: the child index at each level.
/// Attributes order after their owner element and before its children,
/// encoded by a special large-offset index component.
fn path_to(doc: &Document, id: NodeId) -> Vec<u32> {
    let mut rev = Vec::new();
    let mut cur = id;
    while let Some(parent) = doc.parent(cur) {
        // position in the sibling chain = number of predecessors
        let pos = std::iter::successors(doc.prev_sibling(cur), |&p| doc.prev_sibling(p)).count();
        rev.push(pos as u32);
        if doc.kind(cur) == NodeKind::Attribute {
            // Attributes sort before children but after the element itself:
            // encode as a leading half-range component.
            rev.push(u32::MAX); // attribute marker level
        }
        cur = parent;
    }
    rev.reverse();
    rev
}

/// Compare two nodes of the *same* document in document order.
pub fn cmp_same_doc(doc: &Document, a: NodeId, b: NodeId) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    let pa = path_to(doc, a);
    let pb = path_to(doc, b);
    // An ancestor precedes its descendants: shorter path that is a prefix.
    for i in 0..pa.len().min(pb.len()) {
        match pa[i].cmp(&pb[i]) {
            Ordering::Equal => continue,
            // attribute marker (MAX) must sort *before* child indexes at the
            // same level: an attribute precedes the element's children.
            ord => {
                let a_attr = pa[i] == u32::MAX;
                let b_attr = pb[i] == u32::MAX;
                if a_attr != b_attr {
                    return if a_attr {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    };
                }
                return ord;
            }
        }
    }
    pa.len().cmp(&pb.len())
}

/// Compare two handles in (global) document order.
pub fn cmp_handles(a: &NodeHandle, b: &NodeHandle) -> Ordering {
    if Arc::ptr_eq(&a.doc, &b.doc) {
        cmp_same_doc(&a.doc, a.id, b.id)
    } else {
        (Arc::as_ptr(&a.doc) as usize).cmp(&(Arc::as_ptr(&b.doc) as usize))
    }
}

/// Sort handles into document order and remove duplicates (node identity) —
/// the post-processing every XPath step applies.
///
/// For large same-document batches, comparing via [`cmp_handles`] is
/// quadratic: every comparison rebuilds both root paths, and each path level
/// does a linear sibling-position scan. Instead we make one preorder pass
/// over the document assigning each attached node a dense rank, then sort by
/// that integer key — O(doc + n log n) with O(1) comparisons.
pub fn sort_dedup(handles: &mut Vec<NodeHandle>) {
    if handles.len() <= 1 {
        return;
    }
    let same_doc = handles
        .windows(2)
        .all(|w| Arc::ptr_eq(&w[0].doc, &w[1].doc));
    if same_doc && handles.len() >= 8 {
        let ranks = doc_order_ranks(&handles[0].doc);
        if handles.iter().all(|h| ranks[h.id.index()] != u32::MAX) {
            handles.sort_by_key(|h| ranks[h.id.index()]);
            handles.dedup_by(|a, b| a.same_node(b));
            return;
        }
    }
    handles.sort_by(cmp_handles);
    handles.dedup_by(|a, b| a.same_node(b));
}

/// Preorder rank per arena slot (document order: an element precedes its
/// attributes, which precede its children).
///
/// Detached subtrees — e.g. marshaled fragments sharing one message arena —
/// are ranked after the attached tree, ordered by their root's arena slot:
/// an arbitrary but stable inter-fragment order, which is all the XDM
/// requires for nodes with no common ancestor. Nodes unreachable from any
/// parentless root keep `u32::MAX`.
fn doc_order_ranks(doc: &Document) -> Vec<u32> {
    let mut ranks = vec![u32::MAX; doc.len()];
    let mut next: u32 = 0;
    let rank_from = |root: NodeId, ranks: &mut Vec<u32>, next: &mut u32| {
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            ranks[id.index()] = *next;
            *next += 1;
            for a in doc.attributes(id) {
                ranks[a.index()] = *next;
                *next += 1;
            }
            stack.extend(doc.children(id).rev());
        }
    };
    rank_from(doc.root(), &mut ranks, &mut next);
    for id in doc.all_ids().skip(1) {
        if doc.parent(id).is_none() && ranks[id.index()] == u32::MAX {
            rank_from(id, &mut ranks, &mut next);
        }
    }
    ranks
}

/// True iff `anc` is an ancestor of `desc` (strict) within one document.
pub fn is_ancestor(doc: &Document, anc: NodeId, desc: NodeId) -> bool {
    std::iter::successors(doc.parent(desc), |&p| doc.parent(p)).any(|p| p == anc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn preorder_matches_document_order() {
        let d = parse("<a><b><c/></b><d/></a>").unwrap();
        let a = d.first_child(d.root()).unwrap();
        let b = d.first_child(a).unwrap();
        let c = d.first_child(b).unwrap();
        let dd = d.children(a).nth(1).unwrap();
        assert_eq!(cmp_same_doc(&d, a, b), Ordering::Less);
        assert_eq!(cmp_same_doc(&d, b, c), Ordering::Less);
        assert_eq!(cmp_same_doc(&d, c, dd), Ordering::Less);
        assert_eq!(cmp_same_doc(&d, dd, b), Ordering::Greater);
        assert_eq!(cmp_same_doc(&d, a, a), Ordering::Equal);
    }

    #[test]
    fn attributes_before_children() {
        let d = parse(r#"<a k="v"><b/></a>"#).unwrap();
        let a = d.first_child(d.root()).unwrap();
        let attr = d.attributes(a).next().unwrap();
        let b = d.first_child(a).unwrap();
        assert_eq!(cmp_same_doc(&d, a, attr), Ordering::Less);
        assert_eq!(cmp_same_doc(&d, attr, b), Ordering::Less);
    }

    #[test]
    fn order_survives_mutation() {
        let mut d = parse("<a><b/><c/></a>").unwrap();
        let a = d.first_child(d.root()).unwrap();
        let b = d.first_child(a).unwrap();
        let c = d.children(a).nth(1).unwrap();
        // Move c before b.
        d.insert_before(b, c).unwrap();
        assert_eq!(cmp_same_doc(&d, c, b), Ordering::Less);
    }

    #[test]
    fn sort_dedup_by_identity() {
        let d = Arc::new(parse("<a><b/><c/></a>").unwrap());
        let a = d.first_child(d.root()).unwrap();
        let b = d.first_child(a).unwrap();
        let c = d.children(a).nth(1).unwrap();
        let mut v = vec![
            NodeHandle::new(d.clone(), c),
            NodeHandle::new(d.clone(), b),
            NodeHandle::new(d.clone(), c),
        ];
        sort_dedup(&mut v);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].id, b);
        assert_eq!(v[1].id, c);
    }

    #[test]
    fn ancestor_test() {
        let d = parse("<a><b><c/></b></a>").unwrap();
        let a = d.first_child(d.root()).unwrap();
        let b = d.first_child(a).unwrap();
        let c = d.first_child(b).unwrap();
        assert!(is_ancestor(&d, a, c));
        assert!(is_ancestor(&d, b, c));
        assert!(!is_ancestor(&d, c, a));
        assert!(!is_ancestor(&d, c, c));
    }
}
