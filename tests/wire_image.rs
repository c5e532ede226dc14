//! A stored node is serialized once (ISSUE 23): a document version that
//! keeps being serialized keeps its own wire image, and a node of it is then
//! a slice of that image — byte for byte what the walker writes.
//!
//! * differential, seeded: on generated documents (every node kind, every
//!   escape, namespaces declared, re-declared and undeclared at several
//!   depths) and on XMark documents, every node serialized from the image
//!   equals the same node serialized by the walk; `IMAGE_SEED=n` reruns one
//!   seed;
//! * lifecycle, counts not clocks: a document serialized once never builds
//!   an image, a store document builds exactly one and is then served
//!   without a node being walked, and every mutator drops the image.
//!
//! The serializer's counters are the process's, so the tests of this file
//! take turns.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use xrpc_repro::xmark;
use xrpc_repro::xmldom::{
    self, parse, serialize_counters, serialize_document, serialize_node, Document, NodeId,
    NodeKind, QName,
};
use xrpc_repro::xrpc_net::{NetError, Transport};
use xrpc_repro::xrpc_peer::{EngineKind, Peer};

static TURN: Mutex<()> = Mutex::new(());

fn my_turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// The seeds a test runs: `IMAGE_SEED` alone, or `0..n`.
fn seeds(n: u64) -> Vec<u64> {
    match std::env::var("IMAGE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(seed) => vec![seed],
        None => (0..n).collect(),
    }
}

fn xml_of(doc: &Document, id: NodeId) -> String {
    serialize_node(doc, id, &Default::default())
}

/// Serialize `doc` whole until it has earned its image.
fn earn_image(doc: &Document) {
    for _ in 0..64 {
        if doc.wire_image_bytes() > 0 {
            return;
        }
        serialize_document(doc, &Default::default());
    }
    panic!("no image after 64 whole serializations");
}

/// Every slot of `doc` — attached or not, attributes too — serialized from
/// the image and by the walk (a copy of the document starts without an
/// image and is dropped before it can earn one).
fn assert_image_equals_the_walk(doc: &Document, context: &str) {
    let walked: Vec<String> = doc.all_ids().map(|id| xml_of(&doc.clone(), id)).collect();
    let whole = serialize_document(&doc.clone(), &Default::default());
    earn_image(doc);
    let builds = serialize_counters().image_builds;
    for id in doc.all_ids() {
        let sliced = xml_of(doc, id);
        let walk = &walked[id.index()];
        assert_eq!(&sliced, walk, "node {id:?}, {context}");
        // the size asked for before the write is the size of the slice,
        // short only of what a fragment root declares on top
        let inherits =
            doc.kind(id) == NodeKind::Element && doc.inherited_ns_decls(id).next().is_some();
        let reachable =
            std::iter::successors(Some(id), |&n| doc.parent(n)).last() == Some(doc.root());
        if reachable && !inherits {
            assert_eq!(
                doc.subtree_wire_estimate(id),
                walk.len(),
                "{id:?}, {context}"
            );
        }
    }
    assert_eq!(
        serialize_document(doc, &Default::default()),
        whole,
        "{context}"
    );
    assert_eq!(serialize_counters().image_builds, builds, "{context}");
}

#[test]
fn a_slice_of_the_image_is_what_the_walk_writes() {
    let _turn = my_turn();
    let mut inheriting = 0;
    for seed in seeds(200) {
        let xml = xmark::mixed_xml(seed);
        let doc = parse(&xml).unwrap_or_else(|e| panic!("IMAGE_SEED={seed}: {e}\n{xml}"));
        inheriting += doc
            .all_ids()
            .filter(|&id| doc.inherited_ns_decls(id).next().is_some())
            .count();
        assert_image_equals_the_walk(&doc, &format!("IMAGE_SEED={seed}\n{xml}"));
    }
    if std::env::var("IMAGE_SEED").is_err() {
        assert!(inheriting > 1000, "{inheriting} nodes inherit a binding");
    }
    for seed in seeds(3) {
        let params = xmark::XmarkParams {
            persons: 12,
            closed_auctions: 20,
            matches: 3,
            padding_words: 3,
            seed,
        };
        for xml in [xmark::persons_xml(&params), xmark::auctions_xml(&params)] {
            let doc = parse(&xml).unwrap();
            assert_image_equals_the_walk(&doc, &format!("xmark, IMAGE_SEED={seed}"));
        }
    }
    let film = parse(xmark::film_db()).unwrap();
    assert_image_equals_the_walk(&film, "the film database");
}

/// Pretty-printed and declared output is never taken from the image.
#[test]
fn other_forms_keep_the_walker() {
    let _turn = my_turn();
    let doc = parse(&xmark::mixed_xml(3)).unwrap();
    let pretty = xmldom::SerializeOpts {
        xml_decl: true,
        indent: 2,
    };
    let before = serialize_document(&doc, &pretty);
    earn_image(&doc);
    let walked = serialize_counters().nodes_walked;
    assert_eq!(serialize_document(&doc, &pretty), before);
    assert!(serialize_counters().nodes_walked > walked);
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

#[test]
fn a_document_serialized_once_never_builds_an_image() {
    let _turn = my_turn();
    let builds = serialize_counters().image_builds;
    let doc = parse(&xmark::payload_xml(1 << 16)).unwrap();
    let whole = serialize_document(&doc, &Default::default());
    assert_eq!(doc.wire_image_bytes(), 0);
    // nor in pieces: every chunk once
    let doc = parse(&xmark::payload_xml(1 << 16)).unwrap();
    let payload = doc.first_child(doc.root()).unwrap();
    let pieces: usize = doc.children(payload).map(|c| xml_of(&doc, c).len()).sum();
    assert_eq!(pieces + "<payload></payload>".len(), whole.len());
    assert_eq!(serialize_counters().image_builds, builds);
    // a parentless fragment of a shared arena never earns one
    let mut arena = Document::new();
    let e = arena.create_element(QName::local("fragment"));
    let t = arena.create_text("x".repeat(100));
    arena.append_child(e, t);
    for _ in 0..100 {
        assert_eq!(xml_of(&arena, e).len(), 121);
    }
    assert_eq!(arena.wire_image_bytes(), 0);
    assert_eq!(serialize_counters().image_builds, builds);
}

/// The callee handles the message on the caller's thread.
struct Direct(Arc<Peer>);

impl Transport for Direct {
    fn roundtrip(&self, _dest: &str, body: &[u8]) -> Result<Vec<u8>, NetError> {
        Ok(self.0.handle_soap(body))
    }
}

const MODULE: &str = r#"
    module namespace m = "m";
    declare function m:getPerson($doc as xs:string, $pid as xs:string) as node()?
    { zero-or-one(doc($doc)//person[@id = $pid]) };
    declare function m:produce() as node()* { doc("payload.xml")/payload/chunk };
"#;

/// The benchmark's two response-heavy shapes against one callee: a thousand
/// small results of one document, every chunk of another.
#[test]
fn a_warm_store_document_is_served_without_walking_a_node() {
    let _turn = my_turn();
    let a = Peer::new("xrpc://a", EngineKind::Rel);
    let b = Peer::new("xrpc://b", EngineKind::Tree);
    a.register_module(MODULE).unwrap();
    b.register_module(MODULE).unwrap();
    let params = xmark::XmarkParams {
        persons: 2000,
        closed_auctions: 10,
        matches: 1,
        padding_words: 4,
        seed: 1,
    };
    b.add_document("persons.xml", &xmark::persons_xml(&params))
        .unwrap();
    b.add_document("payload.xml", &xmark::payload_xml(1 << 20))
        .unwrap();
    a.set_transport_raw(Arc::new(Direct(b.clone())));
    let get_person = r#"import module namespace m = "m";
        count(for $i in (1 to 1000) return execute at {"xrpc://b"}
              {m:getPerson("persons.xml", concat("person", string($i)))})"#;
    let produce = r#"import module namespace m = "m";
        count(execute at {"xrpc://b"} {m:produce()})"#;
    let run = |q: &str| a.execute(q).unwrap().items()[0].string_value();
    let image_bytes = |uri: &str| b.docs.get(uri).unwrap().wire_image_bytes();

    let start = serialize_counters();
    let chunks = run(produce);
    // small results earn the image as surely as large ones, only later
    let mut requests = 0;
    while image_bytes("persons.xml") == 0 {
        assert_eq!(run(get_person), "1000");
        requests += 1;
        assert!(requests < 20, "a thousand results a request, and no image");
    }
    assert!(requests >= 2, "an image after {requests} request(s)");
    assert_eq!(run(produce), chunks);
    assert!(image_bytes("payload.xml") > 0);
    let warm = serialize_counters();
    assert_eq!(warm.image_builds - start.image_builds, 2, "one a document");

    for _ in 0..3 {
        assert_eq!(run(get_person), "1000");
        assert_eq!(run(produce), chunks);
    }
    assert_eq!(serialize_counters(), warm, "a warm document walks nothing");

    // a new version starts over: the update's copy has no image
    b.add_document("payload.xml", "<payload><chunk>new</chunk></payload>")
        .unwrap();
    assert_eq!(image_bytes("payload.xml"), 0);
    assert_eq!(run(produce), "1");
}

/// Every way a document can change, after each of which the next
/// serialization must be the walk's. `add_ns_decl` moves no link, value or
/// name and is the one a side-slot rule alone would miss.
#[test]
fn every_mutator_drops_the_image() {
    let _turn = my_turn();
    // (this test fails at `add_ns_decl` if `push_ns_decl` stops invalidating)
    type Edit = fn(&mut Document, NodeId, NodeId);
    let edits: [(&str, Edit); 13] = [
        ("detach", |d, _, kid| d.detach(kid)),
        ("replace_value", |d, _, kid| d.replace_value(kid, "new")),
        ("rename", |d, _, kid| d.rename(kid, QName::local("renamed"))),
        ("append_child", |d, r, _| {
            let t = d.create_text("tail");
            d.append_child(r, t);
        }),
        ("insert_before", |d, _, kid| {
            let c = d.create_comment("before");
            d.insert_before(kid, c).unwrap();
        }),
        ("insert_after", |d, _, kid| {
            let c = d.create_comment("after");
            d.insert_after(kid, c).unwrap();
        }),
        ("remove", |d, _, kid| d.remove(kid)),
        ("set_attribute_node", |d, r, _| {
            let a = d.create_attribute(QName::local("k"), "v");
            d.set_attribute_node(r, a);
        }),
        ("add_ns_decl", |d, r, _| d.add_ns_decl(r, "n", "urn:n")),
        ("add_ns_decl below", |d, _, kid| {
            d.add_ns_decl(kid, "", "urn:d")
        }),
        ("import_subtree", |d, r, _| {
            let other = parse("<imported a='1'>x</imported>").unwrap();
            let copy = d.import_subtree(&other, other.first_child(other.root()).unwrap());
            d.append_child(r, copy);
        }),
        ("reclaim", |d, _, kid| {
            d.remove(kid);
            d.reclaim();
        }),
        ("clone", |d, _, _| *d = d.clone()),
    ];
    for (name, edit) in edits {
        let mut doc =
            parse(r#"<r xmlns:p="urn:p"><kid p:a="1">text<deep/></kid><other/></r>"#).unwrap();
        earn_image(&doc);
        let r = doc.first_child(doc.root()).unwrap();
        let kid = doc.first_child(r).unwrap();
        edit(&mut doc, r, kid);
        assert_eq!(doc.wire_image_bytes(), 0, "after {name}");
        // the edited document, through text and back, has no history
        let fresh = parse(&serialize_document(&doc.clone(), &Default::default())).unwrap();
        earn_image(&doc);
        for (id, expect) in doc
            .descendants(doc.root())
            .zip(fresh.descendants(fresh.root()))
        {
            assert_eq!(xml_of(&doc, id), xml_of(&fresh, expect), "after {name}");
        }
    }
}

/// Builds race only for who goes first: concurrent readers of one version
/// build one image and all read the same bytes.
#[test]
fn concurrent_readers_build_one_image() {
    let _turn = my_turn();
    let doc = Arc::new(parse(&xmark::payload_xml(1 << 16)).unwrap());
    let expect = serialize_document(&Document::clone(&doc), &Default::default());
    let builds = serialize_counters().image_builds;
    let wrong = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..8 {
                    if serialize_document(&doc, &Default::default()) != expect {
                        wrong.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(wrong.load(Ordering::Relaxed), 0);
    assert_eq!(serialize_counters().image_builds, builds + 1);
}
