//! What a committed update costs must not depend on how many were committed
//! before it. Checked on counts, not clocks: after thousands of isolated
//! `execute at {B} {u:bump(..)}` transactions (rule R'Fu: ∆ deferred,
//! `CommitOnePhase` logs and applies it) the document's arena, its text
//! heap and every per-transaction map at both peers are the size they were
//! after the first few — and the counter shows every one of them.
//!
//! Reclaiming removed subtrees at the end of `apply_updates` must not be
//! visible either: an update list whose later primitive names a node an
//! earlier one cut out gives the document it always gave.
//!
//! `ARENA_SEED=n` reruns one seed of the mixed-edit run.

use rand::prelude::*;
use std::sync::Arc;
use xrpc_repro::xmldom::{parse, serialize_document, Document, NodeHandle, QName};
use xrpc_repro::xqeval::pul::{apply_updates, PendingUpdateList, UpdatePrimitive};
use xrpc_repro::xrpc_net::{NetProfile, SimNetwork};
use xrpc_repro::xrpc_peer::{
    render_metrics, CommitOutcome, EngineKind, FsyncPolicy, Peer, WalConfig,
};

const A_URI: &str = "xrpc://a.example.org";
const B_URI: &str = "xrpc://b.example.org";
const LOG_XML: &str = "<log><e>0</e></log>";

const MODULE: &str = r#"
module namespace u = "u1";
declare updating function u:bump($doc as xs:string)
{ replace value of node doc($doc)/log/e
  with (doc($doc)/log/e cast as xs:integer) + 1 };
declare updating function u:push($doc as xs:string, $v as xs:string)
{ insert node <x k="{$v}">{$v}</x> into doc($doc)/log };
declare updating function u:pop($doc as xs:string)
{ delete node doc($doc)/log/x[1] };
"#;

struct Cluster {
    a: Arc<Peer>,
    b: Arc<Peer>,
    wal_dir: std::path::PathBuf,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }
}

/// An originator and one durable participant (forced appends, group commit:
/// the shape the benchmark's `update_2pc` runs) over an in-process network.
fn cluster(tag: &str) -> Cluster {
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let a = Peer::new(A_URI, EngineKind::Rel);
    let b = Peer::new(B_URI, EngineKind::Tree);
    for (p, uri) in [(&a, A_URI), (&b, B_URI)] {
        p.register_module(MODULE).unwrap();
        p.set_transport(net.clone());
        net.register(uri, p.soap_handler());
    }
    b.add_document("log.xml", LOG_XML).unwrap();
    let wal_dir =
        std::env::temp_dir().join(format!("xrpc-flatness-{}-{tag}.wal", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let config = WalConfig {
        fsync: FsyncPolicy::Always,
        ..WalConfig::default()
    };
    b.attach_wal_with(&wal_dir, config).unwrap();
    Cluster { a, b, wal_dir }
}

fn commit(a: &Peer, call: &str) {
    let query = format!(
        "declare option xrpc:isolation \"repeatable\";\n\
         import module namespace u = \"u1\";\n\
         execute at {{\"{B_URI}\"}} {{{call}}}"
    );
    let out = a.execute_detailed(&query).unwrap();
    assert_eq!(
        out.commit,
        Some(CommitOutcome::Committed { participants: 1 }),
        "{call}"
    );
}

/// A gauge of the peer's `/metrics` page.
fn gauge(peer: &Peer, family: &str) -> u64 {
    let page = render_metrics(peer, None);
    let line = (page.lines())
        .find(|l| l.split(' ').next() == Some(family))
        .unwrap_or_else(|| panic!("no `{family}` on /metrics"));
    line.rsplit(' ').next().unwrap().parse().unwrap()
}

/// Everything that used to gain an entry per committed transaction.
fn assert_bookkeeping_is_bounded(c: &Cluster) {
    for p in [&c.a, &c.b] {
        assert!(gauge(p, "xrpc_store_applied_marks") <= 2, "{}", p.name());
        assert_eq!(gauge(p, "xrpc_coord_committed_entries"), 0, "{}", p.name());
        assert_eq!(p.snapshots.active_count(), 0, "{}", p.name());
    }
    let log = c.b.wal().expect("attached");
    assert_eq!(log.open_transactions(), 0);
    assert!(log.stats().log_bytes <= 4096, "{:?}", log.stats());
}

#[test]
fn five_thousand_commits_leave_the_document_and_the_maps_as_they_were() {
    const COMMITS: u64 = 5_000;
    let fresh = parse(LOG_XML).unwrap();
    let c = cluster("bump");
    for _ in 0..COMMITS {
        commit(&c.a, "u:bump(\"log.xml\")");
    }
    let doc = c.b.docs.get("log.xml").unwrap();
    assert_eq!(doc.string_value(doc.root()), COMMITS.to_string());
    assert!(
        doc.len() <= 2 * fresh.len() + 1,
        "{} slots after {COMMITS} commits, {} when parsed",
        doc.len(),
        fresh.len()
    );
    let live_text = COMMITS.to_string().len();
    assert!(
        doc.text_heap_len() <= 4 * live_text,
        "{} heap bytes for {live_text} of text",
        doc.text_heap_len()
    );
    assert_bookkeeping_is_bounded(&c);
    assert_eq!(c.b.twopc_metrics.snapshot().commits, COMMITS);
    // one force a transaction: B holds its only ∆ and commits in one
    // phase, `Prepared` riding the forced `Decision`'s flush; none for the
    // `Applied` marker or the checkpoint it triggers
    assert_eq!(c.b.wal().unwrap().stats().fsyncs, COMMITS);
}

fn seeds() -> Vec<u64> {
    match std::env::var("ARENA_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(seed) => vec![seed],
        None => (0..3).collect(),
    }
}

/// Growing, shrinking and rewriting the same document through committed
/// transactions: a version holds at most twice its live nodes (and text),
/// whatever came before.
#[test]
fn mixed_committed_edits_keep_each_version_within_twice_its_content() {
    for seed in seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = cluster(&format!("mixed-{seed}"));
        let (mut bumps, mut items) = (0u64, Vec::<String>::new());
        for step in 0..600 {
            match rng.gen_range(0..10) {
                0..=4 => {
                    commit(&c.a, "u:bump(\"log.xml\")");
                    bumps += 1;
                }
                5..=7 => {
                    let v = format!("v{step}-{}", "y".repeat(rng.gen_range(0..40usize)));
                    commit(&c.a, &format!("u:push(\"log.xml\", \"{v}\")"));
                    items.push(v);
                }
                _ => {
                    // deleting from an empty list commits an empty ∆
                    commit(&c.a, "u:pop(\"log.xml\")");
                    if !items.is_empty() {
                        items.remove(0);
                    }
                }
            }
            let doc = c.b.docs.get("log.xml").unwrap();
            let live = doc.subtree_size(doc.root());
            assert!(
                doc.len() <= 2 * live + 1,
                "ARENA_SEED={seed} step {step}: {} slots for {live} live nodes",
                doc.len()
            );
        }
        let doc = c.b.docs.get("log.xml").unwrap();
        let expected: String = std::iter::once(format!("<log><e>{bumps}</e>"))
            .chain(items.iter().map(|v| format!("<x k=\"{v}\">{v}</x>")))
            .chain(std::iter::once("</log>".to_string()))
            .collect();
        assert_eq!(
            serialize_document(&doc, &Default::default()),
            expected,
            "ARENA_SEED={seed}"
        );
        // each value is held twice (attribute and text); the heap may carry
        // as much garbage again, plus the counter's
        let live_text: usize = 2 * items.iter().map(String::len).sum::<usize>() + 8;
        assert!(
            doc.text_heap_len() <= 2 * live_text + 64,
            "ARENA_SEED={seed}: {} heap bytes for {live_text} of text",
            doc.text_heap_len()
        );
        assert_bookkeeping_is_bounded(&c);
    }
}

// ---------------------------------------------------------------------
// Node ids stay valid for every primitive of the list being applied
// ---------------------------------------------------------------------

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

fn applied(pul: &PendingUpdateList) -> String {
    let edits = apply_updates(pul).unwrap();
    assert_eq!(edits.len(), 1);
    serialize_document(&edits[0].new, &Default::default())
}

/// The documents below are what the commit before the reclaiming arena
/// produced for the same lists.
#[test]
fn a_later_primitive_may_name_a_node_an_earlier_one_cut_out() {
    let old = Arc::new(parse("<a><b><c>x</c>tail</b><d/></a>").unwrap());
    let (b, c) = (handle(&old, &[0, 0]), handle(&old, &[0, 0, 0]));

    // replace-value on the parent, then insert-into and rename of its old
    // child: the child is gone from the tree, the edits land on it unseen
    let mut pul = PendingUpdateList::new();
    pul.push(UpdatePrimitive::ReplaceValue {
        target: b.clone(),
        value: "new".into(),
    });
    pul.push(UpdatePrimitive::InsertInto {
        target: c.clone(),
        content: vec![fragment("<k>deep<l/></k>")],
    });
    pul.push(UpdatePrimitive::Rename {
        target: c.clone(),
        name: QName::local("renamed"),
    });
    assert_eq!(applied(&pul), "<a><b>new</b><d/></a>");

    // the same edits listed the other way round
    pul.primitives.reverse();
    assert_eq!(applied(&pul), "<a><b>new</b><d/></a>");

    // delete of a subtree and a replace-value below it: XQUF applies the
    // replace first, the delete last
    let mut pul = PendingUpdateList::new();
    pul.push(UpdatePrimitive::Delete { target: b.clone() });
    pul.push(UpdatePrimitive::ReplaceValue {
        target: c.clone(),
        value: "y".into(),
    });
    assert_eq!(applied(&pul), "<a><d/></a>");

    // replace-node of the parent and an insert after its old child
    let mut pul = PendingUpdateList::new();
    pul.push(UpdatePrimitive::ReplaceNode {
        target: b,
        replacement: vec![fragment("<n/>"), fragment("<m>1</m>")],
    });
    pul.push(UpdatePrimitive::InsertAfter {
        target: c,
        content: vec![fragment("<after/>")],
    });
    assert_eq!(applied(&pul), "<a><n/><m>1</m><d/></a>");
    // and the version the list was computed against is untouched
    assert_eq!(
        serialize_document(&old, &Default::default()),
        "<a><b><c>x</c>tail</b><d/></a>"
    );
}
