//! Model-based tests of the `xmldom` arena and the marshaler on generated
//! inputs (seeded, on the vendored `rand`):
//!
//! * parse → serialize → parse is a fixpoint on generated documents, and
//!   the serializer agrees with a naive one written against the model;
//! * `s2n`/`n2s` round-trips atomic and node sequences through full wire
//!   text, and every decoded node is isolated (call-by-value: no parent,
//!   no sibling, no envelope);
//! * a differential run applies random sequences of every mutation the
//!   arena offers — the commit boundary that reclaims removed subtrees
//!   among them — to a `Document` and to an owned-tree model, comparing
//!   serialization, links and document order after every step;
//! * laws of the layers above the arena: decimal arithmetic, tree engine
//!   vs loop-lifted engine, pretty printer vs parser.
//!
//! A failure prints the seed and the operations applied so far;
//! `ARENA_SEED=n` reruns one seed.

mod common;

use rand::prelude::*;
use std::sync::Arc;
use xrpc_repro::xdm::{AtomicValue, Decimal, Item, Sequence};
use xrpc_repro::xmldom::axes::{step, Axis};
use xrpc_repro::xmldom::{
    self, parse, serialize_document, serialize_node, Document, NodeHandle, NodeId, NodeKind, QName,
};
use xrpc_repro::xrpc_proto::{parse_message, XrpcMessage, XrpcRequest, XrpcResponse};

/// The seeds a test runs: `ARENA_SEED` alone, or `0..n`.
fn seeds(n: u64) -> Vec<u64> {
    match std::env::var("ARENA_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(seed) => vec![seed],
        None => (0..n).collect(),
    }
}

// ---------------------------------------------------------------------
// The model: a forest of owned trees. A node is wherever its owner holds
// it, so "in two lists", "cycle" and "stale link" cannot be represented.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct M {
    /// The arena slot the `Document` gave the same node.
    id: u32,
    kind: NodeKind,
    /// Lexical name (elements, attributes, PI targets).
    name: Option<String>,
    value: String,
    attrs: Vec<M>,
    kids: Vec<M>,
}

/// `roots[0]` is the document node; the rest are detached subtrees.
#[derive(Clone, Debug)]
struct Model {
    roots: Vec<M>,
    next_id: u32,
    /// Roots the removing primitives cut out since the last commit boundary.
    discarded: Vec<u32>,
    /// Arena slots given up at a commit boundary and not yet compacted away.
    dead: usize,
}

fn leaf(id: u32, kind: NodeKind, name: Option<&str>, value: &str) -> M {
    M {
        id,
        kind,
        name: name.map(str::to_string),
        value: value.to_string(),
        attrs: Vec::new(),
        kids: Vec::new(),
    }
}

fn find(nodes: &[M], id: u32) -> Option<&M> {
    nodes.iter().find_map(|n| {
        if n.id == id {
            Some(n)
        } else {
            find(&n.attrs, id).or_else(|| find(&n.kids, id))
        }
    })
}

fn find_mut(nodes: &mut [M], id: u32) -> Option<&mut M> {
    for n in nodes {
        if n.id == id {
            return Some(n);
        }
        if let Some(hit) = find_mut(&mut n.attrs, id) {
            return Some(hit);
        }
        if let Some(hit) = find_mut(&mut n.kids, id) {
            return Some(hit);
        }
    }
    None
}

/// Remove the node `id` from below `nodes` and hand it over.
fn take(nodes: &mut Vec<M>, id: u32) -> Option<M> {
    if let Some(i) = nodes.iter().position(|n| n.id == id) {
        return Some(nodes.remove(i));
    }
    nodes
        .iter_mut()
        .find_map(|n| take(&mut n.attrs, id).or_else(|| take(&mut n.kids, id)))
}

fn parent_in(nodes: &[M], id: u32) -> Option<u32> {
    nodes.iter().find_map(|n| {
        let owns = n.attrs.iter().chain(&n.kids).any(|c| c.id == id);
        owns.then_some(n.id)
            .or_else(|| parent_in(&n.attrs, id))
            .or_else(|| parent_in(&n.kids, id))
    })
}

/// Document order below (and including) `n`: the node, its attributes,
/// then its children's subtrees.
/// Every slot of the subtree: each node, then its attributes, then its
/// children's subtrees.
fn preorder_with_attrs(n: &M, out: &mut Vec<u32>) {
    out.push(n.id);
    out.extend(n.attrs.iter().map(|a| a.id));
    n.kids.iter().for_each(|k| preorder_with_attrs(k, out));
}

fn preorder(n: &M, out: &mut Vec<u32>) {
    out.push(n.id);
    out.extend(n.attrs.iter().map(|a| a.id));
    for k in &n.kids {
        preorder(k, out);
    }
}

fn escape(s: &str, specials: &[(char, &str)]) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match specials.iter().find(|(x, _)| *x == c) {
            Some((_, entity)) => out.push_str(entity),
            None => out.push(c),
        }
    }
    out
}

const TEXT_ESCAPES: [(char, &str); 4] = [
    ('<', "&lt;"),
    ('>', "&gt;"),
    ('&', "&amp;"),
    ('\r', "&#13;"),
];
const ATTR_ESCAPES: [(char, &str); 6] = [
    ('<', "&lt;"),
    ('&', "&amp;"),
    ('"', "&quot;"),
    ('\t', "&#9;"),
    ('\n', "&#10;"),
    ('\r', "&#13;"),
];

/// The compact serialization, written from the format and nothing else.
fn model_xml(n: &M, out: &mut String) {
    let name = n.name.as_deref().unwrap_or("");
    match n.kind {
        NodeKind::Document => n.kids.iter().for_each(|k| model_xml(k, out)),
        NodeKind::Element => {
            out.push_str(&format!("<{name}"));
            for a in &n.attrs {
                out.push(' ');
                model_xml(a, out);
            }
            if n.kids.is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                n.kids.iter().for_each(|k| model_xml(k, out));
                out.push_str(&format!("</{name}>"));
            }
        }
        NodeKind::Attribute => {
            out.push_str(&format!("{name}=\"{}\"", escape(&n.value, &ATTR_ESCAPES)))
        }
        NodeKind::Text => out.push_str(&escape(&n.value, &TEXT_ESCAPES)),
        NodeKind::Comment => out.push_str(&format!("<!--{}-->", n.value)),
        NodeKind::ProcessingInstruction if n.value.is_empty() => {
            out.push_str(&format!("<?{name}?>"))
        }
        NodeKind::ProcessingInstruction => out.push_str(&format!("<?{name} {}?>", n.value)),
    }
}

impl Model {
    fn new() -> Self {
        Model {
            roots: vec![leaf(0, NodeKind::Document, None, "")],
            next_id: 1,
            discarded: Vec::new(),
            dead: 0,
        }
    }

    fn fresh_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id - 1
    }

    fn node(&self, id: u32) -> &M {
        find(&self.roots, id).expect("model node")
    }

    fn node_mut(&mut self, id: u32) -> &mut M {
        find_mut(&mut self.roots, id).expect("model node")
    }

    fn parent(&self, id: u32) -> Option<u32> {
        parent_in(&self.roots, id)
    }

    fn create(&mut self, kind: NodeKind, name: Option<&str>, value: &str) -> u32 {
        let id = self.fresh_id();
        self.roots.push(leaf(id, kind, name, value));
        id
    }

    fn detach(&mut self, id: u32) {
        if self.parent(id).is_some() {
            let n = take(&mut self.roots, id).expect("attached node");
            self.roots.push(n);
        }
    }

    /// `Document::remove`: a detach the next commit boundary makes final.
    fn remove(&mut self, id: u32) {
        if self.parent(id).is_some() {
            self.detach(id);
            self.discarded.push(id);
        }
    }

    /// `Document::reclaim`: what was removed and not linked back in is gone;
    /// once the dead outnumber the rest, so is every other detached tree,
    /// and the document's nodes are numbered afresh in document order.
    fn reclaim(&mut self) {
        for id in std::mem::take(&mut self.discarded) {
            if let Some(at) = self.roots.iter().position(|r| r.id == id) {
                let mut gone = Vec::new();
                preorder_with_attrs(&self.roots.remove(at), &mut gone);
                self.dead += gone.len();
            }
        }
        let slots = self.all().len() + self.dead;
        if self.dead * 2 <= slots {
            return;
        }
        fn renumber(n: &mut M, next: &mut u32) {
            n.id = *next;
            *next += 1;
            n.attrs.iter_mut().for_each(|a| renumber(a, next));
            n.kids.iter_mut().for_each(|k| renumber(k, next));
        }
        self.roots.truncate(1);
        self.next_id = 0;
        self.dead = 0;
        renumber(&mut self.roots[0], &mut self.next_id);
    }

    fn append_child(&mut self, parent: u32, child: u32) {
        let n = take(&mut self.roots, child).expect("child");
        self.node_mut(parent).kids.push(n);
    }

    /// Put `child` next to `anchor` among its siblings (`after`: 0 or 1).
    fn insert_beside(&mut self, anchor: u32, child: u32, after: usize) {
        if anchor == child {
            return;
        }
        let n = take(&mut self.roots, child).expect("child");
        let parent = self.parent(anchor).expect("anchor has a parent");
        let kids = &mut self.node_mut(parent).kids;
        let at = kids.iter().position(|k| k.id == anchor).expect("anchor");
        kids.insert(at + after, n);
    }

    fn set_attribute_node(&mut self, element: u32, attr: u32) {
        let a = take(&mut self.roots, attr).expect("attribute");
        let attrs = &mut self.node_mut(element).attrs;
        let same = attrs.iter().position(|x| x.name == a.name);
        let replaced = same.map(|i| attrs.remove(i));
        attrs.push(a);
        self.discarded.extend(replaced.iter().map(|r| r.id));
        self.roots.extend(replaced);
    }

    fn replace_value(&mut self, target: u32, value: &str) {
        match self.node(target).kind {
            NodeKind::Document => {}
            NodeKind::Element => {
                let old = std::mem::take(&mut self.node_mut(target).kids);
                self.discarded.extend(old.iter().map(|k| k.id));
                self.roots.extend(old);
                if !value.is_empty() {
                    let t = self.create(NodeKind::Text, None, value);
                    self.append_child(target, t);
                }
            }
            _ => self.node_mut(target).value = value.to_string(),
        }
    }

    /// A deep copy of `src` with ids in the order `import_subtree` hands
    /// them out: the node, its attributes, then each child's subtree.
    fn import(&mut self, src: &M) -> M {
        let mut copy = leaf(self.fresh_id(), src.kind, src.name.as_deref(), &src.value);
        copy.attrs = (src.attrs.iter())
            .map(|a| leaf(self.fresh_id(), a.kind, a.name.as_deref(), &a.value))
            .collect();
        copy.kids = src.kids.iter().map(|k| self.import(k)).collect();
        copy
    }

    fn all(&self) -> Vec<&M> {
        fn walk<'a>(n: &'a M, out: &mut Vec<&'a M>) {
            out.push(n);
            n.attrs.iter().chain(&n.kids).for_each(|c| walk(c, out));
        }
        let mut out = Vec::new();
        self.roots.iter().for_each(|r| walk(r, &mut out));
        out
    }

    fn is_ancestor_or_self(&self, anc: u32, node: u32) -> bool {
        std::iter::successors(Some(node), |&n| self.parent(n)).any(|n| n == anc)
    }
}

// ---------------------------------------------------------------------
// Generated values
// ---------------------------------------------------------------------

const NAMES: [&str; 6] = ["a", "b", "film", "x-y", "_n.1", "p:item"];

fn qname(lexical: &str) -> QName {
    match lexical.split_once(':') {
        Some((p, l)) => QName::ns(p, "urn:p", l),
        None => QName::local(lexical),
    }
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Printable text with the characters both escapers care about.
fn text(rng: &mut StdRng, max: usize) -> String {
    const ALPHABET: [&str; 14] = [
        "a", "Z", "0", " ", "<", ">", "&", "\"", "'", "é", "✓", "\t", "\n", "\r",
    ];
    (0..rng.gen_range(0..=max))
        .map(|_| *pick(rng, &ALPHABET))
        .collect()
}

/// Text that is legal inside a comment or as PI data, and that the parser
/// gives back unchanged.
fn plain(rng: &mut StdRng) -> String {
    let s: String = (0..rng.gen_range(0..8))
        .map(|_| *pick(rng, &["a", "b", " ", "<", "&", "é"]))
        .collect();
    s.trim_start().to_string()
}

// ---------------------------------------------------------------------
// parse ∘ serialize fixpoint and the marshaling round trips
// ---------------------------------------------------------------------

/// A random well-formed element subtree: no empty or adjacent text nodes
/// (a parser merges them), unique attribute names.
fn gen_element(rng: &mut StdRng, names: &[&str], depth: u32) -> M {
    let mut e = leaf(0, NodeKind::Element, Some(*pick(rng, names)), "");
    for name in names {
        if rng.gen_bool(0.2) {
            e.attrs
                .push(leaf(0, NodeKind::Attribute, Some(name), &text(rng, 6)));
        }
    }
    for _ in 0..rng.gen_range(0..4) {
        let last_is_text = e.kids.last().is_some_and(|k| k.kind == NodeKind::Text);
        let kid = match rng.gen_range(0..6) {
            0 | 1 if depth > 0 => gen_element(rng, names, depth - 1),
            2 => leaf(0, NodeKind::Comment, None, &plain(rng)),
            3 => leaf(0, NodeKind::ProcessingInstruction, Some("pi"), &plain(rng)),
            _ if !last_is_text => leaf(0, NodeKind::Text, None, &format!("t{}", text(rng, 8))),
            _ => continue,
        };
        e.kids.push(kid);
    }
    e
}

/// Build `m` in `doc` through the public constructors; returns its id.
fn build(m: &M, doc: &mut Document) -> NodeId {
    let name = || m.name.as_deref().expect("named node");
    let id = match m.kind {
        NodeKind::Element => doc.create_element(qname(name())),
        NodeKind::Text => doc.create_text(&m.value),
        NodeKind::Comment => doc.create_comment(&m.value),
        NodeKind::ProcessingInstruction => doc.create_pi(name(), &m.value),
        NodeKind::Attribute | NodeKind::Document => unreachable!("built by the owner"),
    };
    for a in &m.attrs {
        doc.set_attribute(id, qname(a.name.as_deref().unwrap()), &a.value);
    }
    for k in &m.kids {
        let kid = build(k, doc);
        doc.append_child(id, kid);
    }
    id
}

/// A generated document and the model of its root element.
fn generated_document(seed: u64, names: &[&str]) -> (M, Document) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut root = gen_element(&mut rng, names, 3);
    let mut doc = Document::new();
    let id = build(&root, &mut doc);
    doc.append_child(doc.root(), id);
    if names.iter().any(|n| n.starts_with("p:")) {
        // declared once at the top; the serializer writes declarations
        // where an attribute would go, ahead of the real ones
        doc.add_ns_decl(id, "p", "urn:p");
        let decl = leaf(0, NodeKind::Attribute, Some("xmlns:p"), "urn:p");
        root.attrs.insert(0, decl);
    }
    (root, doc)
}

#[test]
fn parse_serialize_is_a_fixpoint_and_matches_the_model() {
    for seed in seeds(300) {
        let (model, doc) = generated_document(seed, &NAMES);
        let s1 = serialize_document(&doc, &Default::default());
        let mut expected = String::new();
        model_xml(&model, &mut expected);
        assert_eq!(s1, expected, "serializer vs model, seed={seed}");
        let reparsed = parse(&s1).unwrap_or_else(|e| panic!("seed={seed}: {e}\n{s1}"));
        let s2 = serialize_document(&reparsed, &Default::default());
        assert_eq!(s1, s2, "parse∘serialize fixpoint, seed={seed}");
        assert_eq!(reparsed.len(), doc.len(), "node count, seed={seed}");
    }
}

fn request_roundtrip(seq: Sequence, seed: u64) -> Sequence {
    let mut req = XrpcRequest::new("m", "f", 1);
    req.push_call(vec![seq]);
    let xml = req.to_xml().unwrap();
    common::assert_decodes_like_the_oracle(&xml, &format!("ARENA_SEED={seed}, request"));
    match parse_message(&xml).unwrap_or_else(|e| panic!("seed={seed}: {e}\n{xml}")) {
        XrpcMessage::Request(mut r) => r.calls.remove(0).remove(0),
        other => panic!("seed={seed}: not a request: {other:?}"),
    }
}

fn response_roundtrip(seq: Sequence, seed: u64) -> Sequence {
    let mut resp = XrpcResponse::new("m", "f");
    resp.results.push(seq);
    let xml = resp.to_xml().unwrap();
    common::assert_decodes_like_the_oracle(&xml, &format!("ARENA_SEED={seed}, response"));
    match parse_message(&xml).unwrap_or_else(|e| panic!("seed={seed}: {e}\n{xml}")) {
        XrpcMessage::Response(mut r) => r.results.remove(0),
        other => panic!("seed={seed}: not a response: {other:?}"),
    }
}

#[test]
fn atomic_sequences_round_trip_through_the_wire() {
    for seed in seeds(200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<AtomicValue> = (0..rng.gen_range(0..8))
            .map(|_| match rng.gen_range(0..5) {
                0 => AtomicValue::Integer(rng.gen_range(i64::MIN..=i64::MAX)),
                1 => AtomicValue::Boolean(rng.gen_bool(0.5)),
                2 => AtomicValue::String(text(&mut rng, 30)),
                3 => AtomicValue::Decimal(Decimal::new(
                    rng.gen_range(-1_000_000_000i64..1_000_000_000) as i128,
                    rng.gen_range(0..6u32),
                )),
                _ => AtomicValue::Double(rng.gen_range(-1_000_000i64..1_000_000) as f64 / 64.0),
            })
            .collect();
        let seq = Sequence::from_items(values.iter().cloned().map(Item::Atomic).collect());
        for back in [
            request_roundtrip(seq.clone(), seed),
            response_roundtrip(seq, seed),
        ] {
            assert_eq!(back.len(), values.len(), "seed={seed}");
            for (orig, round) in values.iter().zip(back.atomized()) {
                assert_eq!(orig.atomic_type(), round.atomic_type(), "seed={seed}");
                assert_eq!(orig.lexical(), round.lexical(), "seed={seed}");
            }
        }
    }
}

/// Call-by-value (paper §2.2): a decoded node sees no parent, no sibling
/// and nothing of the envelope or of the other items of its message — and
/// it is the node that was sent, names included: what its ancestors
/// declared travels on the fragment's own start tag.
#[test]
fn node_sequences_round_trip_by_value() {
    let isolated = [
        Axis::Parent,
        Axis::Ancestor,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
        Axis::Following,
        Axis::Preceding,
    ];
    // a default namespace, a prefix, both rebound and undeclared further down
    let declared = parse(
        r#"<r xmlns="urn:d" xmlns:p="urn:p"><a p:k="1" k="2"><p:b/>t<c xmlns="" xmlns:p="urn:q"><p:e p:k="3"/><e/></c></a><b/></r>"#,
    )
    .unwrap();
    let generated = seeds(200)
        .into_iter()
        .map(|seed| (seed, generated_document(seed, &NAMES).1));
    for (seed, doc) in generated.chain([(0, declared)]) {
        let doc = Arc::new(doc);
        // every node of the document, plus the document itself: items that
        // are each other's ancestors, siblings and attributes
        let items: Vec<NodeHandle> = doc
            .all_ids()
            .map(|id| NodeHandle::new(doc.clone(), id))
            .collect();
        let seq = Sequence::from_items(items.iter().cloned().map(Item::Node).collect());
        for back in [
            request_roundtrip(seq.clone(), seed),
            response_roundtrip(seq, seed),
        ] {
            assert_eq!(back.len(), items.len(), "seed={seed}");
            for (sent, got) in items.iter().zip(back.items()) {
                let got = got.as_node().expect("a node");
                assert_eq!(got.kind(), sent.kind(), "seed={seed}");
                assert_eq!(got.to_xml(), sent.to_xml(), "seed={seed}");
                // same expanded names all the way down, not just the same text
                let names = |n: &NodeHandle| -> Vec<Option<QName>> {
                    std::iter::once(n.id)
                        .chain(n.doc.descendants(n.id))
                        .flat_map(|d| std::iter::once(d).chain(n.doc.attributes(d)))
                        .map(|d| n.doc.name(d).cloned())
                        .collect()
                };
                for (s, g) in names(sent).iter().zip(names(got)) {
                    let same = match (s, &g) {
                        (Some(s), Some(g)) => s.matches(g),
                        (s, g) => s.is_none() && g.is_none(),
                    };
                    assert!(same, "seed={seed}: sent {s:?}, decoded {g:?}");
                }
                for axis in isolated {
                    let seen = step(got, axis);
                    assert!(seen.is_empty(), "seed={seed}: {axis:?} sees {seen:?}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Differential run: Document vs model under random mutation
// ---------------------------------------------------------------------

fn check(doc: &Document, model: &Model, context: &dyn Fn() -> String) {
    let ids = |it: xmldom::node::Siblings| it.map(|n| n.0).collect::<Vec<u32>>();
    let model_ids = |ms: &[M]| ms.iter().map(|m| m.id).collect::<Vec<u32>>();
    let all = model.all();
    assert_eq!(
        all.len() + model.dead,
        doc.len(),
        "arena size\n{}",
        context()
    );
    for m in all {
        let id = NodeId(m.id);
        let at = || format!("node {id:?}\n{}", context());
        assert_eq!(doc.kind(id), m.kind, "kind of {}", at());
        let name = doc.node(id).name.as_ref().map(|q| q.lexical());
        assert_eq!(name, m.name, "name of {}", at());
        assert_eq!(doc.value(id), m.value, "value of {}", at());
        let parent = doc.parent(id).map(|p| p.0);
        assert_eq!(parent, model.parent(m.id), "parent of {}", at());
        assert_eq!(
            ids(doc.children(id)),
            model_ids(&m.kids),
            "children of {}",
            at()
        );
        assert_eq!(
            ids(doc.attributes(id)),
            model_ids(&m.attrs),
            "attributes of {}",
            at()
        );
        let mut backwards = ids(doc.children(id));
        backwards.reverse();
        assert_eq!(
            doc.children(id).rev().map(|n| n.0).collect::<Vec<_>>(),
            backwards
        );
    }
    for root in &model.roots {
        let mut expected = String::new();
        model_xml(root, &mut expected);
        let got = serialize_node(doc, NodeId(root.id), &Default::default());
        assert_eq!(
            got,
            expected,
            "serialization of root {}\n{}",
            root.id,
            context()
        );
    }
    // document order of the attached tree, by comparison and by rank
    let mut order = Vec::new();
    preorder(&model.roots[0], &mut order);
    // once this value of the document has earned its wire image, a node of
    // it is a slice of that image and still what the walk writes; the next
    // mutation must drop the image, or the comparison above fails after it
    // (a document that serializes to nothing walks no byte and earns none)
    let whole = serialize_document(doc, &Default::default()).len();
    let image_cost = doc.text_heap_len() + 8 * doc.len();
    if let Some(walks) = image_cost.checked_div(whole) {
        for _ in 0..=walks {
            serialize_document(doc, &Default::default());
        }
        assert!(doc.wire_image_bytes() > 0, "no image\n{}", context());
    }
    for &id in &order {
        let walked = serialize_node(&doc.clone(), NodeId(id), &Default::default());
        let sliced = serialize_node(doc, NodeId(id), &Default::default());
        assert_eq!(sliced, walked, "image of node {id}\n{}", context());
    }
    let mut by_cmp: Vec<NodeId> = order.iter().rev().map(|&i| NodeId(i)).collect();
    by_cmp.sort_by(|&a, &b| xmldom::order::cmp_same_doc(doc, a, b));
    assert_eq!(
        by_cmp.iter().map(|n| n.0).collect::<Vec<_>>(),
        order,
        "{}",
        context()
    );
    let arc = Arc::new(doc.clone());
    let mut by_rank: Vec<NodeHandle> = by_cmp
        .iter()
        .rev()
        .chain(&by_cmp) // duplicates must go
        .map(|&id| NodeHandle::new(arc.clone(), id))
        .collect();
    xmldom::order::sort_dedup(&mut by_rank);
    assert_eq!(
        by_rank.iter().map(|h| h.id.0).collect::<Vec<_>>(),
        order,
        "{}",
        context()
    );
}

/// Commit boundaries that rebuilt the arena, over all seeds of a run.
static REBUILDS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// One random mutation, applied to both sides. Returns its description,
/// or `None` when the drawn operation has no legal operands right now.
fn mutate(rng: &mut StdRng, doc: &mut Document, model: &mut Model) -> Option<String> {
    let all: Vec<(u32, NodeKind)> = model.all().iter().map(|m| (m.id, m.kind)).collect();
    let of = |kinds: &[NodeKind]| -> Vec<u32> {
        (all.iter().filter(|(_, k)| kinds.contains(k)))
            .map(|(id, _)| *id)
            .collect()
    };
    let draw = |rng: &mut StdRng, ids: Vec<u32>| (!ids.is_empty()).then(|| *pick(rng, &ids));
    let elements = of(&[NodeKind::Element]);
    let containers = of(&[NodeKind::Element, NodeKind::Document]);
    let content = of(&[
        NodeKind::Element,
        NodeKind::Text,
        NodeKind::Comment,
        NodeKind::ProcessingInstruction,
    ]);
    // children with a parent: legal anchors and replace targets
    let placed: Vec<u32> = (content.iter().copied())
        .filter(|&c| model.parent(c).is_some())
        .collect();
    let name = *pick(rng, &NAMES);
    let value = text(rng, 6);
    match rng.gen_range(0..16) {
        0 => {
            let id = doc.create_element(qname(name));
            assert_eq!(id.0, model.create(NodeKind::Element, Some(name), ""));
            Some(format!("create_element {name} -> {id:?}"))
        }
        1 => {
            let (id, kind) = match rng.gen_range(0..3) {
                0 => (doc.create_text(&value), NodeKind::Text),
                1 => (doc.create_comment(&value), NodeKind::Comment),
                _ => (doc.create_pi("pi", &value), NodeKind::ProcessingInstruction),
            };
            let pi = (kind == NodeKind::ProcessingInstruction).then_some("pi");
            assert_eq!(id.0, model.create(kind, pi, &value));
            Some(format!("create {kind:?} {value:?} -> {id:?}"))
        }
        2..=4 => {
            let parent = draw(rng, containers)?;
            let free: Vec<u32> = (content.iter().copied())
                .filter(|&c| !model.is_ancestor_or_self(c, parent))
                .collect();
            let child = draw(rng, free)?;
            doc.append_child(NodeId(parent), NodeId(child));
            model.append_child(parent, child);
            Some(format!("append_child {parent} <- {child}"))
        }
        5 | 6 => {
            let anchor = draw(rng, placed)?;
            let free: Vec<u32> = (content.iter().copied())
                .filter(|&c| !model.is_ancestor_or_self(c, anchor) || c == anchor)
                .collect();
            let child = draw(rng, free)?;
            let after = rng.gen_range(0..2usize);
            if after == 1 {
                doc.insert_after(NodeId(anchor), NodeId(child)).unwrap();
            } else {
                doc.insert_before(NodeId(anchor), NodeId(child)).unwrap();
            }
            model.insert_beside(anchor, child, after);
            Some(format!("insert {child} beside {anchor} (after={after})"))
        }
        7 => {
            let target = draw(rng, placed)?;
            let fresh: Vec<u32> = (0..rng.gen_range(0..3))
                .map(|i| {
                    let v = format!("{value}{i}");
                    assert_eq!(
                        doc.create_text(&v).0,
                        model.create(NodeKind::Text, None, &v)
                    );
                    model.next_id - 1
                })
                .collect();
            let ids: Vec<NodeId> = fresh.iter().map(|&i| NodeId(i)).collect();
            doc.replace_node(NodeId(target), &ids).unwrap();
            for &r in &fresh {
                model.insert_beside(target, r, 0);
            }
            model.remove(target);
            Some(format!("replace_node {target} with {fresh:?}"))
        }
        8 => {
            let kinds = [NodeKind::Element, NodeKind::Text, NodeKind::Attribute];
            let target = draw(rng, of(&kinds))?;
            doc.replace_value(NodeId(target), &value);
            model.replace_value(target, &value);
            Some(format!("replace_value {target} {value:?}"))
        }
        9 => {
            let target = draw(rng, of(&[NodeKind::Element, NodeKind::Attribute]))?;
            doc.rename(NodeId(target), qname(name));
            model.node_mut(target).name = Some(name.to_string());
            Some(format!("rename {target} {name}"))
        }
        10 => {
            let target = draw(rng, all.iter().skip(1).map(|(id, _)| *id).collect())?;
            doc.detach(NodeId(target));
            model.detach(target);
            Some(format!("detach {target}"))
        }
        11 => {
            let element = draw(rng, elements)?;
            doc.set_attribute(NodeId(element), qname(name), &value);
            let attr = model.create(NodeKind::Attribute, Some(name), &value);
            model.set_attribute_node(element, attr);
            Some(format!("set_attribute {element} {name}={value:?}"))
        }
        12 => {
            let attr = draw(rng, of(&[NodeKind::Attribute]))?;
            // its owner, or (a no-op) some other element
            let element = match rng.gen_range(0..4) {
                0 => draw(rng, elements)?,
                _ => model.parent(attr)?,
            };
            doc.remove_attribute(NodeId(element), NodeId(attr));
            if model.parent(attr) == Some(element) {
                model.remove(attr);
            }
            Some(format!("remove_attribute {element} {attr}"))
        }
        13 => {
            let target = draw(rng, placed)?;
            doc.remove(NodeId(target));
            model.remove(target);
            Some(format!("remove {target}"))
        }
        14 => {
            // a commit boundary, as `apply_updates` ends with one: removed
            // subtrees give up their slots, which later operations reuse
            // once the arena has been rebuilt
            let before = doc.len();
            doc.reclaim();
            model.reclaim();
            if doc.len() < before {
                REBUILDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            Some(format!("reclaim ({before} -> {} slots)", doc.len()))
        }
        _ => {
            // a snapshot, as `apply_updates` takes one, and a copy out of it
            let snapshot = doc.clone();
            let source = draw(rng, all.iter().map(|(id, _)| *id).collect())?;
            let copy = doc.import_subtree(&snapshot, NodeId(source));
            let src = model.node(source).clone();
            let imported = model.import(&src);
            assert_eq!(copy.0, imported.id);
            model.roots.push(imported);
            *doc = doc.clone();
            Some(format!("clone; import_subtree {source} -> {copy:?}"))
        }
    }
}

#[test]
fn random_mutations_agree_with_the_owned_tree_model() {
    for seed in seeds(150) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut doc = Document::new();
        let mut model = Model::new();
        let mut log: Vec<String> = Vec::new();
        for _ in 0..80 {
            let Some(op) = mutate(&mut rng, &mut doc, &mut model) else {
                continue;
            };
            log.push(op);
            check(&doc, &model, &|| {
                format!("ARENA_SEED={seed}, after:\n  {}", log.join("\n  "))
            });
        }
    }
    if std::env::var("ARENA_SEED").is_err() {
        let rebuilds = REBUILDS.load(std::sync::atomic::Ordering::Relaxed);
        assert!(rebuilds >= 10, "only {rebuilds} commit boundaries rebuilt");
    }
}

// ---------------------------------------------------------------------
// Laws of the value, query and printer layers on generated inputs
// ---------------------------------------------------------------------

/// Decimal arithmetic: commutativity, identities, parse ∘ display.
#[test]
fn decimal_laws() {
    for seed in seeds(300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut decimal = || {
            Decimal::new(
                rng.gen_range(-1_000_000_000i64..1_000_000_000) as i128,
                rng.gen_range(0..6u32),
            )
        };
        let (a, b) = (decimal(), decimal());
        assert_eq!(a.add(b), b.add(a), "seed={seed}");
        assert_eq!(a.mul(b), b.mul(a), "seed={seed}");
        assert_eq!(a.add(Decimal::zero()), a, "seed={seed}");
        assert_eq!(a.sub(a), Decimal::zero(), "seed={seed}");
        assert_eq!(Decimal::parse(&a.to_string()).unwrap(), a, "seed={seed}");
    }
}

/// The tree and the loop-lifted engine agree on arithmetic FLWOR queries.
#[test]
fn engines_agree() {
    use xrpc_repro::{relalg, xqeval};
    for seed in seeds(64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, m, k) = (
            rng.gen_range(1..30i64),
            rng.gen_range(1..10i64),
            rng.gen_range(0..5i64),
        );
        let q = format!("for $x in (1 to {n}) where $x mod {m} = {k} return $x * $x");
        let env = xqeval::Environment::new(Arc::new(xqeval::InMemoryDocs::new()));
        let (tree, _) = xqeval::evaluate_main(&q, &env).unwrap();
        let (lifted, _) = relalg::execute_rel(&q, &env).unwrap();
        assert_eq!(
            tree.joined_string(),
            lifted.joined_string(),
            "seed={seed}: {q}"
        );
    }
}

/// The pretty printer's string-literal escaping survives the parser.
#[test]
fn pretty_print_string_literal_roundtrip() {
    use xrpc_repro::xqast;
    for seed in seeds(300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s: String = (0..rng.gen_range(0..=30))
            .map(|_| rng.gen_range(b' '..=b'~') as char)
            .collect();
        let printed = xqast::pretty_print(&xqast::Expr::Literal(AtomicValue::String(s.clone())));
        match xqast::parse_main_module(&printed).unwrap().body {
            xqast::Expr::Literal(AtomicValue::String(back)) => {
                assert_eq!(back, s, "seed={seed}: {printed}")
            }
            other => panic!("seed={seed}: {printed} parsed as {other:?}"),
        }
    }
}
