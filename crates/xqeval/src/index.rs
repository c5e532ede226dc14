//! The predicate join, `base//elem[keypath = value]` answered from a value
//! index: the engine-level analog of the hash join the paper observes Saxon
//! building for Bulk RPC (§4, Table 3).
//!
//! A bulk request runs the same selection — `//person[@id = $pid]`, or the
//! semi-join's `//closed_auction[./buyer/@person = $pid]` — once per call.
//! The index turns those selections into one join: value → matching
//! elements, built in one walk over the arena and probed once per call.
//!
//! **Lifetime.** An index belongs to the document *value* it was built from:
//! it lives in the document's side slot ([`Document::side_data`]), so every
//! request, snapshot and wrapper call that resolves the same version shares
//! it, an update (which installs a clone) starts without it, and it is freed
//! with the version. There is nothing to invalidate and no identity to
//! compare (an address, the obvious cache key, can be reused by a later
//! document once the cache outlives a request). At most [`MAX_INDEXES_PER_DOC`] indexes are kept per document, least
//! recently used out first.
//!
//! **Exactness.** The index stores string values of key nodes, so it stands
//! for the general comparison only where that is string equality: untyped
//! keys against `xs:string` / `xs:untypedAtomic` values. A key node with a
//! type annotation, or a value of any other type (numbers compare as
//! doubles, `xs:anyURI` trims), sends the caller to the generic step.

use crate::context::Environment;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use xdm::{AtomicValue, Item};
use xmldom::{Document, NodeHandle, NodeId, NodeKind, QName};

/// Indexes kept per document version; the next distinct key evicts.
pub const MAX_INDEXES_PER_DOC: usize = 8;

/// Documents smaller than this are scanned, not indexed.
pub const MIN_INDEXED_NODES: usize = 256;

/// Steps a key path may have (`buyer/@person` has two).
pub const MAX_KEY_STEPS: usize = 4;

/// An expanded name borrowed from the query (`ns` is `None` for no
/// namespace, never `Some("")`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NameRef<'a> {
    pub ns: Option<&'a str>,
    pub local: &'a str,
}

impl NameRef<'_> {
    fn matches(&self, q: &QName) -> bool {
        q.local == self.local && q.ns_uri.as_deref().filter(|u| !u.is_empty()) == self.ns
    }
}

/// One downward step of a key path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KeyStep<'a> {
    Child(NameRef<'a>),
    Attribute(NameRef<'a>),
}

/// What an index is keyed by: the indexed element's name and the path from
/// it to its key nodes, compiled from the query without allocating (it is
/// recompiled per probe by the tree evaluator).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KeyPath<'a> {
    pub elem: NameRef<'a>,
    steps: [Option<KeyStep<'a>>; MAX_KEY_STEPS],
}

impl<'a> KeyPath<'a> {
    /// The key path `.` of elements named `elem`; [`push`](Self::push)
    /// extends it.
    pub fn new(elem: NameRef<'a>) -> Self {
        KeyPath {
            elem,
            steps: [None; MAX_KEY_STEPS],
        }
    }

    /// Append a step; `None` when the path already has [`MAX_KEY_STEPS`].
    pub fn push(&mut self, step: KeyStep<'a>) -> Option<()> {
        *self.steps.iter_mut().find(|s| s.is_none())? = Some(step);
        Some(())
    }

    fn steps(&self) -> impl Iterator<Item = KeyStep<'a>> + '_ {
        self.steps.iter().flatten().copied()
    }
}

/// One name test of a key: on the indexed element (`'e'`), a child step
/// (`'c'`) or an attribute step (`'@'`), with namespace and local name.
type KeyPart<S> = (char, Option<S>, S);

impl<'a> KeyPath<'a> {
    fn parts(&self) -> impl Iterator<Item = KeyPart<&'a str>> + '_ {
        std::iter::once(('e', self.elem.ns, self.elem.local)).chain(self.steps().map(|s| match s {
            KeyStep::Child(n) => ('c', n.ns, n.local),
            KeyStep::Attribute(n) => ('@', n.ns, n.local),
        }))
    }
}

/// The owned twin of [`KeyPath`], stored beside the index it names.
struct OwnedKey(Vec<KeyPart<Box<str>>>);

impl OwnedKey {
    fn of(key: &KeyPath) -> Self {
        OwnedKey(
            key.parts()
                .map(|(on, ns, local)| (on, ns.map(Box::from), Box::from(local)))
                .collect(),
        )
    }

    fn is(&self, key: &KeyPath) -> bool {
        (self.0.iter())
            .map(|(on, ns, local)| (*on, ns.as_deref(), &**local))
            .eq(key.parts())
    }
}

/// value → the elements carrying it, for one [`KeyPath`] over one document.
#[derive(Default)]
pub struct ValueIndex {
    /// Every element of the indexed name, in document order (detached
    /// fragments — marshaled parameters sharing a message arena — after the
    /// attached tree, each in its own document order).
    elems: Vec<NodeId>,
    /// Key string → positions in `elems`, ascending.
    postings: HashMap<Box<str>, Vec<u32>>,
    /// Some key node carries a type annotation: string equality does not
    /// stand for the comparison, the index must not be used.
    typed_keys: bool,
}

impl ValueIndex {
    /// One walk over the arena: steps follow slot links, keys are read from
    /// the text heap; no expression is evaluated and no handle is made.
    fn build(doc: &Document, key: &KeyPath) -> ValueIndex {
        let mut ix = ValueIndex::default();
        let steps: Vec<KeyStep> = key.steps().collect();
        let mut keys = Vec::new();
        let detached = doc.all_ids().skip(1).filter(|&id| doc.parent(id).is_none());
        for root in std::iter::once(doc.root()).chain(detached) {
            for id in std::iter::once(root).chain(doc.descendants(root)) {
                if doc.kind(id) != NodeKind::Element
                    || !doc.name(id).is_some_and(|q| key.elem.matches(q))
                {
                    continue;
                }
                let at = ix.elems.len() as u32;
                ix.elems.push(id);
                ix.typed_keys |= !key_values(doc, id, &steps, &mut keys);
                for value in keys.drain(..) {
                    match ix.postings.get_mut(value.as_ref()) {
                        // two key nodes of one element may carry the same value
                        Some(posted) if posted.last() == Some(&at) => {}
                        Some(posted) => posted.push(at),
                        None => {
                            ix.postings.insert(value.into(), vec![at]);
                        }
                    }
                }
            }
        }
        ix
    }
}

/// Push the string value of every key node `steps` reaches from `node`
/// onto `out`, borrowed from the text heap where it is one run. `false`,
/// and the walk stops, at a key node with a type annotation: its typed
/// value is what a comparison sees, and string equality does not stand for
/// that. The value index and the FLWOR hash join read their keys here.
pub fn key_values<'d>(
    doc: &'d Document,
    node: NodeId,
    steps: &[KeyStep],
    out: &mut Vec<Cow<'d, str>>,
) -> bool {
    let Some((step, rest)) = steps.split_first() else {
        if doc.type_annotation(node).is_some() {
            return false;
        }
        out.push(doc.string_value_cow(node));
        return true;
    };
    let (mut nodes, name) = match step {
        KeyStep::Child(name) => (doc.children(node), name),
        KeyStep::Attribute(name) => (doc.attributes(node), name),
    };
    nodes.all(|c| {
        let named = matches!(doc.kind(c), NodeKind::Element | NodeKind::Attribute)
            && doc.name(c).is_some_and(|q| name.matches(q));
        !named || key_values(doc, c, rest, out)
    })
}

/// The indexes of one document version (what its side slot holds), most
/// recently used last.
#[derive(Default)]
struct DocIndexes {
    slots: Mutex<Vec<(OwnedKey, Arc<ValueIndex>)>>,
}

/// Live indexes on this document version (the `xrpc_join_indexes` gauge
/// sums it over a store).
pub fn index_count(doc: &Document) -> usize {
    doc.side_data_if_any::<DocIndexes>()
        .map_or(0, |d| d.slots.lock().len())
}

/// The string a value is looked up by, when string equality is what the
/// general comparison against an untyped key means for it. The FLWOR hash
/// join keys both of its sides with this as well.
pub(crate) fn string_key(v: &AtomicValue) -> Option<&str> {
    match v {
        AtomicValue::String(s) | AtomicValue::UntypedAtomic(s) => Some(s),
        _ => None,
    }
}

/// What one item of a compared value is looked up by, if it can be.
fn probe_key(item: &Item) -> Option<Cow<'_, str>> {
    match item {
        Item::Atomic(a) => string_key(a).map(Cow::Borrowed),
        Item::Node(n) if n.type_annotation().is_none() => Some(Cow::Owned(n.string_value())),
        Item::Node(_) => None,
    }
}

/// The ⋈ operator's probe side: one key path, any number of probes. The
/// index is fetched from the base node's document on the first probe and
/// kept while successive probes stay in that document, so a bulk request
/// pays one fetch and one probe per call. Counts go to the environment's
/// statistics when the probe is dropped.
pub struct Probe<'a> {
    env: &'a Environment,
    key: KeyPath<'a>,
    child_only: bool,
    current: Option<(Arc<Document>, Arc<ValueIndex>)>,
    builds: u64,
    probes: u64,
    evictions: u64,
}

impl<'a> Probe<'a> {
    /// `child_only`: the step is `base/child::elem[…]`; otherwise every
    /// strict descendant of the base qualifies.
    pub fn new(env: &'a Environment, key: KeyPath<'a>, child_only: bool) -> Self {
        Probe {
            env,
            key,
            child_only,
            current: None,
            builds: 0,
            probes: 0,
            evictions: 0,
        }
    }

    /// The base node, if the index can answer for this base at all: one
    /// node of a document worth indexing.
    pub fn base_node<'s>(&self, base: &'s [Item]) -> Option<&'s NodeHandle> {
        match base {
            [Item::Node(n)] if n.doc.len() >= MIN_INDEXED_NODES => Some(n),
            _ => None,
        }
    }

    /// Append to `out` the elements below `base` with a key equal to some
    /// item of `value`, in document order without duplicates — or return
    /// `false`, `out` untouched, when the index cannot stand for the
    /// comparison and the caller must run the generic step instead.
    pub fn run(&mut self, base: &[Item], value: &[Item], out: &mut Vec<Item>) -> bool {
        let Some(root) = self.base_node(base) else {
            return false;
        };
        let mut wanted: Vec<Cow<str>> = Vec::new();
        let single = match value {
            [one] => match probe_key(one) {
                Some(k) => Some(k),
                None => return false,
            },
            many => {
                for item in many {
                    match probe_key(item) {
                        Some(k) => wanted.push(k),
                        None => return false,
                    }
                }
                None
            }
        };
        let index = self.index_for(&root.doc);
        if index.typed_keys {
            return false;
        }
        self.probes += 1;
        let doc = &root.doc;
        let mut emit = |at: u32| {
            let id = index.elems[at as usize];
            let in_scope = if self.child_only {
                doc.parent(id) == Some(root.id)
            } else {
                xmldom::order::is_ancestor(doc, root.id, id)
            };
            if in_scope {
                out.push(Item::Node(NodeHandle::new(doc.clone(), id)));
            }
        };
        match single {
            Some(k) => {
                if let Some(posted) = index.postings.get(k.as_ref()) {
                    posted.iter().for_each(|&at| emit(at));
                }
            }
            // existential over several values: the union of their postings
            None => {
                let mut found: Vec<u32> = Vec::new();
                for w in &wanted {
                    if let Some(posted) = index.postings.get(w.as_ref()) {
                        found.extend_from_slice(posted);
                    }
                }
                found.sort_unstable();
                found.dedup();
                found.into_iter().for_each(emit);
            }
        }
        true
    }

    fn index_for(&mut self, doc: &Arc<Document>) -> Arc<ValueIndex> {
        if let Some((d, ix)) = &self.current {
            if Arc::ptr_eq(d, doc) {
                return ix.clone();
            }
        }
        let indexes = doc.side_data(DocIndexes::default);
        // built under the lock: a second request for the same key waits
        // and then finds it, instead of building it again
        let mut slots = indexes.slots.lock();
        let ix = match slots.iter().position(|(k, _)| k.is(&self.key)) {
            Some(at) => {
                let hit = slots.remove(at);
                slots.push(hit);
                slots.last().expect("just pushed").1.clone()
            }
            None => {
                if slots.len() == MAX_INDEXES_PER_DOC {
                    slots.remove(0);
                    self.evictions += 1;
                }
                self.builds += 1;
                let ix = Arc::new(ValueIndex::build(doc, &self.key));
                slots.push((OwnedKey::of(&self.key), ix.clone()));
                ix
            }
        };
        drop(slots);
        self.current = Some((doc.clone(), ix.clone()));
        ix
    }
}

impl Drop for Probe<'_> {
    fn drop(&mut self) {
        if self.builds + self.probes + self.evictions > 0 {
            let mut stats = self.env.stats.lock();
            stats.join_index_builds += self.builds;
            stats.join_index_probes += self.probes;
            stats.join_index_evictions += self.evictions;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InMemoryDocs;
    use xdm::Sequence;
    use xmldom::parse;

    fn people(n: usize) -> Arc<Document> {
        let mut xml = String::from("<site>");
        for i in 0..n {
            xml.push_str(&format!(
                r#"<person id="p{}"><name>n{}</name><tag>a</tag><tag>b<i>c</i></tag></person>"#,
                i % (n / 2),
                i
            ));
        }
        xml.push_str("</site>");
        Arc::new(parse(&xml).unwrap())
    }

    fn name(local: &str) -> NameRef<'_> {
        NameRef { ns: None, local }
    }

    fn path<'a>(elem: &'a str, steps: &[KeyStep<'a>]) -> KeyPath<'a> {
        let mut key = KeyPath::new(name(elem));
        for s in steps {
            key.push(*s).unwrap();
        }
        key
    }

    fn ids(seq: &Sequence) -> Vec<NodeId> {
        seq.iter().map(|i| i.as_node().unwrap().id).collect()
    }

    fn strs(items: &[&str]) -> Sequence {
        items.iter().map(|s| Item::string(*s)).collect()
    }

    /// `Probe::run` with the hits (or the refusal) as a value.
    trait RunSeq {
        fn hits(&mut self, base: &Sequence, value: &Sequence) -> Option<Sequence>;
    }

    impl RunSeq for Probe<'_> {
        fn hits(&mut self, base: &Sequence, value: &Sequence) -> Option<Sequence> {
            let mut out = Vec::new();
            self.run(base.items(), value.items(), &mut out)
                .then(|| Sequence::from_items(out))
        }
    }

    #[test]
    fn probes_by_attribute_child_and_multi_text_keys() {
        let doc = people(100);
        let env = Environment::new(Arc::new(InMemoryDocs::new()));
        let base = Sequence::one(Item::Node(NodeHandle::root(doc.clone())));

        let by_id = path("person", &[KeyStep::Attribute(name("id"))]);
        let mut p = Probe::new(&env, by_id, false);
        // ids repeat with period 50: two persons per id, document order
        let hits = ids(&p.hits(&base, &strs(&["p7"])).unwrap());
        assert_eq!(hits.len(), 2);
        assert!(hits[0] < hits[1]);
        assert!(p.hits(&base, &strs(&["nobody"])).unwrap().is_empty());
        assert!(p.hits(&base, &Sequence::empty()).unwrap().is_empty());
        // existential over several values: union, document order, no duplicates
        let multi = ids(&p.hits(&base, &strs(&["p8", "p7", "p7"])).unwrap());
        assert_eq!(multi.len(), 4);
        assert!(multi.windows(2).all(|w| w[0] < w[1]));
        // values that do not compare as strings are not the index's business
        assert!(p.hits(&base, &Sequence::one(Item::integer(7))).is_none());
        assert!(p
            .hits(
                &base,
                &Sequence::one(Item::Atomic(AtomicValue::AnyUri("p7".into())))
            )
            .is_none());
        drop(p);

        let by_name = path("person", &[KeyStep::Child(name("name"))]);
        let mut p = Probe::new(&env, by_name, false);
        assert_eq!(p.hits(&base, &strs(&["n42"])).unwrap().len(), 1);
        drop(p);

        // <tag>b<i>c</i></tag> has string value "bc"; both tags of a person
        // post the person once per distinct value
        let by_tag = path("person", &[KeyStep::Child(name("tag"))]);
        let mut p = Probe::new(&env, by_tag, false);
        assert_eq!(p.hits(&base, &strs(&["bc"])).unwrap().len(), 100);
        assert_eq!(p.hits(&base, &strs(&["a", "bc"])).unwrap().len(), 100);
        drop(p);

        let s = env.stats();
        assert_eq!((s.join_index_builds, s.join_index_evictions), (3, 0));
        assert_eq!(s.join_index_probes, 7);
        assert_eq!(index_count(&doc), 3);
    }

    #[test]
    fn scope_is_the_base_nodes_subtree() {
        let doc = people(100);
        let env = Environment::new(Arc::new(InMemoryDocs::new()));
        let site = doc.first_child(doc.root()).unwrap();
        let first = doc.first_child(site).unwrap();
        let key = path("person", &[KeyStep::Attribute(name("id"))]);
        let at = |id| Sequence::one(Item::Node(NodeHandle::new(doc.clone(), id)));
        // child axis from the document node: persons are grandchildren
        let mut child = Probe::new(&env, key, true);
        assert!(child
            .hits(&at(doc.root()), &strs(&["p0"]))
            .unwrap()
            .is_empty());
        assert_eq!(child.hits(&at(site), &strs(&["p0"])).unwrap().len(), 2);
        drop(child);
        // descendants of one person do not include the person itself
        let mut desc = Probe::new(&env, key, false);
        assert!(desc.hits(&at(first), &strs(&["p0"])).unwrap().is_empty());
        // small documents and non-singleton bases are left to the scan
        let small = Arc::new(parse(r#"<site><person id="p0"/></site>"#).unwrap());
        let small_root = Sequence::one(Item::Node(NodeHandle::root(small)));
        assert!(desc.hits(&small_root, &strs(&["p0"])).is_none());
        assert!(desc.hits(&Sequence::empty(), &strs(&["p0"])).is_none());
    }

    #[test]
    fn typed_key_nodes_disable_the_index() {
        let mut xml = String::from(
            r#"<l xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xs="http://www.w3.org/2001/XMLSchema">"#,
        );
        for i in 0..200 {
            xml.push_str(&format!(r#"<e><k xsi:type="xs:integer">0{i}</k></e>"#));
        }
        xml.push_str("</l>");
        let doc = Arc::new(parse(&xml).unwrap());
        let env = Environment::new(Arc::new(InMemoryDocs::new()));
        let key = path("e", &[KeyStep::Child(name("k"))]);
        let base = Sequence::one(Item::Node(NodeHandle::root(doc)));
        assert!(Probe::new(&env, key, false)
            .hits(&base, &strs(&["07"]))
            .is_none());
    }

    #[test]
    fn indexes_belong_to_one_version_and_are_capped() {
        let doc = people(100);
        let env = Environment::new(Arc::new(InMemoryDocs::new()));
        let base = Sequence::one(Item::Node(NodeHandle::root(doc.clone())));
        let attrs: Vec<String> = (0..=MAX_INDEXES_PER_DOC).map(|i| format!("a{i}")).collect();
        for a in &attrs {
            let key = path("person", &[KeyStep::Attribute(name(a))]);
            Probe::new(&env, key, false)
                .hits(&base, &strs(&["x"]))
                .unwrap();
        }
        assert_eq!(index_count(&doc), MAX_INDEXES_PER_DOC);
        assert_eq!(env.stats().join_index_evictions, 1);
        // the oldest key went: probing it again builds again
        let key = path("person", &[KeyStep::Attribute(name(&attrs[0]))]);
        Probe::new(&env, key, false)
            .hits(&base, &strs(&["x"]))
            .unwrap();
        assert_eq!(
            env.stats().join_index_builds,
            MAX_INDEXES_PER_DOC as u64 + 2
        );
        // a second probe object over the same version shares the index
        Probe::new(&env, key, false)
            .hits(&base, &strs(&["x"]))
            .unwrap();
        assert_eq!(
            env.stats().join_index_builds,
            MAX_INDEXES_PER_DOC as u64 + 2
        );
        // the next version starts with none
        let next = Arc::new(Document::clone(&doc));
        assert_eq!(index_count(&next), 0);
        assert_eq!(index_count(&doc), MAX_INDEXES_PER_DOC);
    }
}
