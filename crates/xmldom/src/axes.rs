//! The thirteen XPath axes over [`NodeHandle`]s.
//!
//! Results come back in the order the XQuery engines need: forward axes in
//! document order, reverse axes in reverse document order (callers re-sort
//! when combining steps).

use crate::node::{NodeId, NodeKind};
use crate::NodeHandle;

#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Axis {
    Child,
    Descendant,
    DescendantOrSelf,
    Parent,
    Ancestor,
    AncestorOrSelf,
    FollowingSibling,
    PrecedingSibling,
    Following,
    Preceding,
    Attribute,
    SelfAxis,
    /// Not a real XPath axis: namespace axis is unsupported (deprecated in
    /// XQuery); kept for parser completeness and always empty.
    Namespace,
}

impl Axis {
    /// The principal node kind of this axis (attribute axis selects
    /// attributes; everything else selects elements for name tests).
    pub fn principal_kind(self) -> NodeKind {
        match self {
            Axis::Attribute => NodeKind::Attribute,
            _ => NodeKind::Element,
        }
    }
}

/// Collect all nodes on `axis` from `ctx`.
pub fn step(ctx: &NodeHandle, axis: Axis) -> Vec<NodeHandle> {
    let doc = &ctx.doc;
    let mk = |id: NodeId| NodeHandle::new(doc.clone(), id);
    match axis {
        Axis::SelfAxis => vec![ctx.clone()],
        Axis::Child => doc.children(ctx.id).map(mk).collect(),
        Axis::Attribute => doc.attributes(ctx.id).map(mk).collect(),
        Axis::Parent => ctx.parent().into_iter().collect(),
        Axis::Descendant => doc.descendants(ctx.id).map(mk).collect(),
        Axis::DescendantOrSelf => {
            let mut out = vec![ctx.clone()];
            descend(ctx, &mut out);
            out
        }
        Axis::Ancestor => {
            let mut out = Vec::new();
            let mut cur = ctx.parent();
            while let Some(p) = cur {
                cur = p.parent();
                out.push(p);
            }
            out
        }
        Axis::AncestorOrSelf => {
            let mut out = vec![ctx.clone()];
            let mut cur = ctx.parent();
            while let Some(p) = cur {
                cur = p.parent();
                out.push(p);
            }
            out
        }
        Axis::FollowingSibling => siblings(ctx, true),
        Axis::PrecedingSibling => siblings(ctx, false),
        Axis::Following => {
            // Descendants of following siblings of ancestors-or-self,
            // in document order.
            let mut out = Vec::new();
            let mut cur = Some(ctx.clone());
            while let Some(node) = cur {
                for sib in siblings(&node, true) {
                    out.push(sib.clone());
                    descend(&sib, &mut out);
                }
                cur = node.parent();
            }
            crate::order::sort_dedup(&mut out);
            out
        }
        Axis::Preceding => {
            // Everything before ctx in document order except ancestors.
            let mut out = Vec::new();
            let mut cur = Some(ctx.clone());
            while let Some(node) = cur {
                for sib in siblings(&node, false) {
                    out.push(sib.clone());
                    descend(&sib, &mut out);
                }
                cur = node.parent();
            }
            crate::order::sort_dedup(&mut out);
            out.reverse();
            out
        }
        Axis::Namespace => Vec::new(),
    }
}

fn descend(ctx: &NodeHandle, out: &mut Vec<NodeHandle>) {
    let handles = ctx.doc.descendants(ctx.id);
    out.extend(handles.map(|d| NodeHandle::new(ctx.doc.clone(), d)));
}

/// The siblings after (or before) `ctx`, nearest first.
fn siblings(ctx: &NodeHandle, following: bool) -> Vec<NodeHandle> {
    if ctx.kind() == NodeKind::Attribute {
        return Vec::new();
    }
    let doc = &ctx.doc;
    let step = |id: NodeId| {
        if following {
            doc.next_sibling(id)
        } else {
            doc.prev_sibling(id)
        }
    };
    std::iter::successors(step(ctx.id), |&id| step(id))
        .map(|id| NodeHandle::new(doc.clone(), id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use std::sync::Arc;

    fn setup() -> (Arc<crate::Document>, NodeHandle) {
        let d = Arc::new(parse(r#"<a k="v"><b><c/><d/></b><e/><f><g/></f></a>"#).unwrap());
        let a = d.first_child(d.root()).unwrap();
        (d.clone(), NodeHandle::new(d, a))
    }

    fn names(v: &[NodeHandle]) -> Vec<String> {
        v.iter()
            .map(|h| h.name().map(|n| n.local.clone()).unwrap_or_default())
            .collect()
    }

    #[test]
    fn child_axis() {
        let (_, a) = setup();
        assert_eq!(names(&step(&a, Axis::Child)), ["b", "e", "f"]);
    }

    #[test]
    fn descendant_axis_document_order() {
        let (_, a) = setup();
        assert_eq!(
            names(&step(&a, Axis::Descendant)),
            ["b", "c", "d", "e", "f", "g"]
        );
    }

    #[test]
    fn attribute_axis() {
        let (_, a) = setup();
        let attrs = step(&a, Axis::Attribute);
        assert_eq!(names(&attrs), ["k"]);
        assert_eq!(attrs[0].string_value(), "v");
    }

    #[test]
    fn ancestor_and_parent() {
        let (d, a) = setup();
        let b = NodeHandle::new(d.clone(), d.first_child(a.id).unwrap());
        let c = NodeHandle::new(d.clone(), d.first_child(b.id).unwrap());
        assert_eq!(names(&step(&c, Axis::Parent)), ["b"]);
        let anc = step(&c, Axis::Ancestor);
        assert_eq!(anc.len(), 3); // b, a, document
        assert_eq!(anc[0].id, b.id);
    }

    #[test]
    fn sibling_axes() {
        let (d, a) = setup();
        let e = NodeHandle::new(d.clone(), d.children(a.id).nth(1).unwrap());
        assert_eq!(names(&step(&e, Axis::FollowingSibling)), ["f"]);
        assert_eq!(names(&step(&e, Axis::PrecedingSibling)), ["b"]);
    }

    #[test]
    fn following_and_preceding() {
        let (d, a) = setup();
        let b = NodeHandle::new(d.clone(), d.first_child(a.id).unwrap());
        let cnode = NodeHandle::new(d.clone(), d.first_child(b.id).unwrap());
        assert_eq!(names(&step(&cnode, Axis::Following)), ["d", "e", "f", "g"]);
        let f = NodeHandle::new(d.clone(), d.children(a.id).nth(2).unwrap());
        // preceding of f: b, c, d, e (reverse doc order), excluding ancestors
        assert_eq!(names(&step(&f, Axis::Preceding)), ["e", "d", "c", "b"]);
    }

    #[test]
    fn attribute_has_no_siblings() {
        let (d, a) = setup();
        let attr = NodeHandle::new(d.clone(), d.attributes(a.id).next().unwrap());
        assert!(step(&attr, Axis::FollowingSibling).is_empty());
        assert_eq!(names(&step(&attr, Axis::Parent)), ["a"]);
    }

    #[test]
    fn detached_node_axes_are_empty_upward() {
        // A freshly imported (by-value) fragment must see empty parent /
        // following axes: the XRPC call-by-value guarantee.
        let (d, a) = setup();
        let mut fresh = crate::Document::new();
        let copy = fresh.import_subtree(&d, d.first_child(a.id).unwrap());
        let h = NodeHandle::new(Arc::new(fresh), copy);
        assert!(step(&h, Axis::Parent).is_empty());
        assert!(step(&h, Axis::FollowingSibling).is_empty());
        assert!(step(&h, Axis::Following).is_empty());
        assert_eq!(names(&step(&h, Axis::Child)), ["c", "d"]);
    }
}
