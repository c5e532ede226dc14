//! Write-ahead coordination log: the durable half of WS-AT 2PC (§2.3).
//!
//! The paper has each participant "log the union of the pending update
//! lists to stable storage, ensuring q can commit later" — this module is
//! that stable storage, for both 2PC roles:
//!
//! * **participant**: a [`WalRecord::Prepared`] (∆_q with the queryID and
//!   coordinator) is forced *before* the `Prepare` ack leaves, and a
//!   [`WalRecord::Decision`] is forced before the outcome is applied. The
//!   [`WalRecord::Applied`] marker that closes the transaction is not
//!   forced: losing it only means replay re-drives an apply that the
//!   store's applied-LSN mark turns into a no-op;
//! * **coordinator**: a [`WalRecord::CoordinatorCommit`] is forced after
//!   unanimous prepare and before any `Commit` delivery — the classic
//!   presumed-abort commit point (no record at the coordinator *means*
//!   abort).
//!
//! On disk the log is one file, `log`, inside the WAL directory. It starts
//! with the magic `XRPCWAL3` and holds frames of
//! `[payload_len: u32 LE][crc32(payload): u32 LE][payload]`. A payload is
//! one element of the XRPC vocabulary, `<xrpc:prepared>`, `<xrpc:decision>`,
//! `<xrpc:applied>` or `<xrpc:coord-{begin,commit,end}>`, with the record's
//! monotonic **LSN** and queryID as attributes. A ∆'s primitives are child
//! elements (`<xrpc:insert-into doc target>` …) whose content is an
//! `<xrpc:sequence>` written by `s2n` and read back by `n2s`, as on the
//! wire. Three mechanisms keep the log fast and bounded:
//!
//! * **group commit** — under [`FsyncPolicy::Always`] concurrent appends
//!   coalesce into one fsync via a leader/follower protocol: whoever
//!   finds no leader syncing becomes the leader, syncs everything written
//!   so far, and wakes the followers whose records rode along;
//! * **compaction** — when the log outgrows `rotate_bytes`, the records
//!   of still-open transactions (with their original LSNs) are written to
//!   `log.next`, which is forced and then renamed over `log`. A new log is
//!   created the same way, so a `log` only ever appears whole: a crash
//!   before the rename leaves the old log intact and a `log.next` that the
//!   next open removes;
//! * **quiesce truncation** — whenever an append leaves no transaction
//!   open, the log is truncated to its magic. The checkpoint issues no
//!   flush of its own and becomes durable with the next forced append
//!   ([`Wal::replay_floor`]).
//!
//! Replay truncates a torn or CRC-damaged tail back to the final intact
//! frame. A `log` without the magic is damage, not a crash: it is refused
//! and left as it is. So is a directory of the older segmented layout
//! (`*.seg` files) unless every segment was checkpointed empty. A log that
//! fails an append or fsync is **poisoned**: every later append fails fast
//! with a typed XRPC0003 durability error.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use xdm::{Item, XdmError, XdmResult};
use xmldom::escape::{push_escaped_attr, push_escaped_text};
use xmldom::qname::NS_XRPC;
use xmldom::{Document, NodeHandle, NodeId, NodeKind, QName};
use xqeval::pul::{PendingUpdateList, UpdatePrimitive};
use xqeval::InMemoryDocs;
use xrpc_net::{crash_points, CrashSwitch};
use xrpc_obs::Histogram;
use xrpc_proto::marshal::s2n_text_into;
use xrpc_proto::{n2s, QueryId};

use crate::store::Decision;

/// Log magic: identifies (and versions) the log format.
const MAGIC: &[u8; 8] = b"XRPCWAL3";

/// The log's file name inside the WAL directory, and where a compaction
/// writes the next log before renaming it over the first.
const LOG: &str = "log";
const LOG_NEXT: &str = "log.next";

/// When to `fsync` after an append.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Force every record to disk before the append returns (the default;
    /// the only policy that makes the Prepare ack a real promise).
    #[default]
    Always,
    /// Buffered writes only — crash-consistent against *process* crashes
    /// (the OS still has the bytes) but not power loss. For benchmarks
    /// and tests where thousands of fsyncs would dominate.
    Never,
}

/// Tunables for one log. `Default` is the production shape: forced
/// appends with group commit, compaction past ~1 MiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    pub fsync: FsyncPolicy,
    /// Inert: forced appends always coalesce into shared fsyncs. The
    /// field stays because `benchmark/` names it in struct literals, and
    /// goes when the benchmark's owner drops it.
    pub group_commit: bool,
    /// Compact the log once it exceeds this many bytes (and at least one
    /// transaction is still open — otherwise quiesce truncation already
    /// reset it).
    pub rotate_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            fsync: FsyncPolicy::Always,
            group_commit: true,
            rotate_bytes: 1 << 20,
        }
    }
}

/// One durable coordination event. Two records are equal when they log
/// the same bytes: content nodes compare by value.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// Participant side: ∆_q was logged and this peer promised to commit
    /// on request. `coordinator` is where to send `Inquire` after a
    /// restart (the queryID's origin host).
    Prepared {
        qid: QueryId,
        coordinator: String,
        delta: Vec<SerializedPrimitive>,
    },
    /// Participant side: the coordinator's decision arrived (forced
    /// before ∆_q is applied, so a crash between receipt and apply
    /// re-applies instead of forgetting).
    Decision { qid: QueryId, decision: Decision },
    /// Participant side: a committed ∆_q has been applied to the store.
    /// `mark` is the LSN of the Prepared record whose ∆ was discharged —
    /// replaying it re-seeds the store's applied mark, so a redelivered
    /// or replayed decision can never apply the same ∆ twice.
    Applied { qid: QueryId, mark: u64 },
    /// Coordinator side: 2PC is starting for these participants. Written
    /// unforced (losing it costs nothing — no commit record still means
    /// abort); surviving one without a commit or end lets the restarted
    /// coordinator *re-abort* proactively instead of leaving participants
    /// in doubt until they inquire.
    CoordinatorBegin {
        qid: QueryId,
        participants: Vec<String>,
    },
    /// Coordinator side: the commit point — every participant prepared.
    CoordinatorCommit {
        qid: QueryId,
        participants: Vec<String>,
    },
    /// Coordinator side: every participant acknowledged the decision.
    CoordinatorEnd { qid: QueryId },
}

impl PartialEq for WalRecord {
    fn eq(&self, other: &Self) -> bool {
        encode_record(self, 0) == encode_record(other, 0)
    }
}

impl WalRecord {
    pub fn qid(&self) -> &QueryId {
        match self {
            WalRecord::Prepared { qid, .. }
            | WalRecord::Decision { qid, .. }
            | WalRecord::Applied { qid, .. }
            | WalRecord::CoordinatorBegin { qid, .. }
            | WalRecord::CoordinatorCommit { qid, .. }
            | WalRecord::CoordinatorEnd { qid } => qid,
        }
    }
}

/// A record as it exists in the log: the payload plus its log sequence
/// number. LSNs are monotonic per log and survive compaction unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct SequencedRecord {
    pub lsn: u64,
    pub record: WalRecord,
}

/// A target node addressed durably: the store document's URI plus a
/// structural path from the document node (`c<i>` = i-th child, `a<i>` =
/// i-th attribute). Survives restart because the store re-loads the same
/// documents and the path re-resolves against the re-parsed arena.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePath {
    pub doc_uri: String,
    pub steps: Vec<PathStep>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathStep {
    Child(u32),
    Attr(u32),
}

/// One [`UpdatePrimitive`] in durable form: its target addressed by
/// [`NodePath`], its content the by-value nodes `n2s` hands back when a
/// record is read.
pub type SerializedPrimitive = UpdatePrimitive<NodePath>;

// ---------------------------------------------------------------------
// PUL <-> durable form
// ---------------------------------------------------------------------

fn node_path(h: &NodeHandle) -> XdmResult<NodePath> {
    let doc_uri =
        h.doc.uri.clone().ok_or_else(|| {
            XdmError::xrpc("cannot log an update targeting a document with no URI")
        })?;
    let mut steps = Vec::new();
    let mut id = h.id;
    while let Some(parent) = h.doc.parent(id) {
        let step = if h.doc.kind(id) == NodeKind::Attribute {
            let i = h.doc.attributes(parent).position(|a| a == id);
            PathStep::Attr(i.expect("an attribute is in its owner's list") as u32)
        } else {
            let i = h.doc.children(parent).position(|c| c == id);
            PathStep::Child(i.expect("a child is in its parent's list") as u32)
        };
        steps.push(step);
        id = parent;
    }
    if id != h.doc.root() {
        return Err(XdmError::xrpc(
            "update target is not attached to its document root",
        ));
    }
    steps.reverse();
    Ok(NodePath { doc_uri, steps })
}

fn resolve_path(docs: &InMemoryDocs, path: &NodePath) -> XdmResult<NodeHandle> {
    let doc = docs.get(&path.doc_uri).ok_or_else(|| {
        XdmError::doc_error(format!(
            "recovered update targets unknown document `{}`",
            path.doc_uri
        ))
    })?;
    let mut id = doc.root();
    for step in &path.steps {
        let next = match *step {
            PathStep::Child(i) => doc.children(id).nth(i as usize),
            PathStep::Attr(i) => doc.attributes(id).nth(i as usize),
        };
        id = next.ok_or_else(|| {
            XdmError::xrpc(format!(
                "recovered update path no longer resolves in `{}`",
                path.doc_uri
            ))
        })?;
    }
    Ok(NodeHandle::new(doc, id))
}

/// Serialize a PUL into its durable form. Fails when a target lives in a
/// URI-less document (nothing durable to re-resolve against). Content
/// nodes are shared, not copied: the record's writer marshals them.
pub fn serialize_pul(pul: &PendingUpdateList) -> XdmResult<Vec<SerializedPrimitive>> {
    pul.primitives
        .iter()
        .map(|p| p.try_map_target(node_path))
        .collect()
}

/// Rebuild a PUL against the current document store (after a restart the
/// paths re-resolve to the re-loaded documents — the store's contents at
/// Prepare time, which is exactly what the snapshot held: a participant
/// in prepared state blocks conflicting commits until decided).
pub fn deserialize_pul(
    docs: &InMemoryDocs,
    prims: &[SerializedPrimitive],
) -> XdmResult<PendingUpdateList> {
    let primitives = prims
        .iter()
        .map(|p| p.try_map_target(|path| resolve_path(docs, path)))
        .collect::<XdmResult<_>>()?;
    Ok(PendingUpdateList { primitives })
}

// ---------------------------------------------------------------------
// Record payload: one `xrpc:` element
// ---------------------------------------------------------------------

fn push_attr(out: &mut String, name: &str, value: &str) {
    out.push(' ');
    out.push_str(name);
    out.push_str("=\"");
    push_escaped_attr(out, value);
    out.push('"');
}

/// `<xrpc:{name}`, what `attrs` writes, then what `body` writes and the
/// end tag — or, when `body` writes nothing, an empty-element tag.
fn push_element(
    out: &mut String,
    name: &str,
    attrs: impl FnOnce(&mut String),
    body: impl FnOnce(&mut String),
) {
    out.push_str("<xrpc:");
    out.push_str(name);
    attrs(out);
    out.push('>');
    let open = out.len();
    body(out);
    if out.len() == open {
        out.pop();
        out.push_str("/>");
    } else {
        out.push_str("</xrpc:");
        out.push_str(name);
        out.push('>');
    }
}

/// `doc="…" target="c0/a1"`: the document's URI and the path's steps.
fn push_target(out: &mut String, target: &NodePath) {
    use std::fmt::Write;
    push_attr(out, "doc", &target.doc_uri);
    out.push_str(" target=\"");
    for (i, step) in target.steps.iter().enumerate() {
        let sep = if i == 0 { "" } else { "/" };
        let _ = match step {
            PathStep::Child(n) => write!(out, "{sep}c{n}"),
            PathStep::Attr(n) => write!(out, "{sep}a{n}"),
        };
    }
    out.push('"');
}

fn push_primitive(out: &mut String, p: &SerializedPrimitive) {
    use SerializedPrimitive as S;
    let (name, content) = match p {
        S::InsertInto { content, .. } => ("insert-into", &content[..]),
        S::InsertFirst { content, .. } => ("insert-first", &content[..]),
        S::InsertLast { content, .. } => ("insert-last", &content[..]),
        S::InsertBefore { content, .. } => ("insert-before", &content[..]),
        S::InsertAfter { content, .. } => ("insert-after", &content[..]),
        S::ReplaceNode { replacement, .. } => ("replace-node", &replacement[..]),
        S::Put { node, .. } => ("put", std::slice::from_ref(node)),
        S::Delete { .. } => ("delete", &[][..]),
        S::ReplaceValue { .. } => ("replace-value", &[][..]),
        S::Rename { .. } => ("rename", &[][..]),
    };
    let attrs = |out: &mut String| {
        if let Some(target) = p.target() {
            push_target(out, target);
        }
        match p {
            S::Rename { name, .. } => {
                for (attr, value) in [("prefix", &name.prefix), ("ns", &name.ns_uri)] {
                    if let Some(value) = value {
                        push_attr(out, attr, value);
                    }
                }
                push_attr(out, "local", &name.local);
            }
            S::Put { uri, .. } => push_attr(out, "uri", uri),
            _ => {}
        }
    };
    push_element(out, name, attrs, |out| match p {
        S::ReplaceValue { value, .. } => push_escaped_text(out, value),
        S::Delete { .. } | S::Rename { .. } => {}
        _ => {
            let seq = content.iter().cloned().map(Item::Node).collect();
            s2n_text_into(out, &seq).expect("a sequence of nodes always marshals");
        }
    });
}

/// A record's payload: `<xrpc:{kind} xmlns:xrpc="…" lsn host ts timeout …>`
/// holding the ∆'s primitives or the participants as `<xrpc:peer uri/>`.
fn encode_record(rec: &WalRecord, lsn: u64) -> String {
    let name = match rec {
        WalRecord::Prepared { .. } => "prepared",
        WalRecord::Decision { .. } => "decision",
        WalRecord::Applied { .. } => "applied",
        WalRecord::CoordinatorBegin { .. } => "coord-begin",
        WalRecord::CoordinatorCommit { .. } => "coord-commit",
        WalRecord::CoordinatorEnd { .. } => "coord-end",
    };
    let attrs = |out: &mut String| {
        let qid = rec.qid();
        push_attr(out, "xmlns:xrpc", NS_XRPC);
        push_attr(out, "lsn", &lsn.to_string());
        push_attr(out, "host", &qid.host);
        push_attr(out, "ts", &qid.timestamp_millis.to_string());
        push_attr(out, "timeout", &qid.timeout_secs.to_string());
        match rec {
            // a participant's coordinator is the queryID's origin host:
            // named only when it is someone else
            WalRecord::Prepared { coordinator, .. } if *coordinator != qid.host => {
                push_attr(out, "coordinator", coordinator)
            }
            WalRecord::Decision { decision, .. } => push_attr(
                out,
                "outcome",
                match decision {
                    Decision::Committed => "committed",
                    Decision::Aborted => "aborted",
                },
            ),
            WalRecord::Applied { mark, .. } => push_attr(out, "mark", &mark.to_string()),
            _ => {}
        }
    };
    let mut out = String::with_capacity(256);
    push_element(&mut out, name, attrs, |out| match rec {
        WalRecord::Prepared { delta, .. } => {
            for p in delta {
                push_primitive(out, p);
            }
        }
        WalRecord::CoordinatorBegin { participants, .. }
        | WalRecord::CoordinatorCommit { participants, .. } => {
            for p in participants {
                push_element(out, "peer", |out| push_attr(out, "uri", p), |_| {});
            }
        }
        _ => {}
    });
    out
}

fn bad_record(what: impl std::fmt::Display) -> XdmError {
    XdmError::xrpc(format!("WAL record: {what}"))
}

/// The local name of `el`, which must be an `xrpc:` element.
fn xrpc_local(doc: &Document, el: NodeId) -> XdmResult<&str> {
    match doc.name(el) {
        Some(name) if name.ns_uri.as_deref() == Some(NS_XRPC) => Ok(&name.local),
        _ => Err(bad_record("an element outside the xrpc namespace")),
    }
}

fn attr<'d>(doc: &'d Document, el: NodeId, name: &str) -> XdmResult<&'d str> {
    doc.attr_local(el, name)
        .ok_or_else(|| bad_record(format!("no `{name}`")))
}

fn number<T: std::str::FromStr>(doc: &Document, el: NodeId, name: &str) -> XdmResult<T> {
    attr(doc, el, name)?
        .parse()
        .map_err(|_| bad_record(format!("bad `{name}`")))
}

fn decode_target(doc: &Document, el: NodeId) -> XdmResult<NodePath> {
    let step = |s: &str| {
        let (make, index): (fn(u32) -> PathStep, _) = match s.as_bytes().first() {
            Some(b'c') => (PathStep::Child, &s[1..]),
            Some(b'a') => (PathStep::Attr, &s[1..]),
            _ => return None,
        };
        index.parse().ok().map(make)
    };
    let steps = attr(doc, el, "target")?;
    Ok(NodePath {
        doc_uri: attr(doc, el, "doc")?.to_string(),
        steps: steps
            .split('/')
            .filter(|_| !steps.is_empty())
            .map(|s| step(s).ok_or_else(|| bad_record(format!("bad target step `{s}`"))))
            .collect::<XdmResult<_>>()?,
    })
}

/// The nodes of the `<xrpc:sequence>` inside `el`, read back by `n2s`;
/// none when `el` has no child element.
fn decode_content(doc: &Document, el: NodeId) -> XdmResult<Vec<NodeHandle>> {
    let Some(seq) = doc.child_elements(el).next() else {
        return Ok(Vec::new());
    };
    if xrpc_local(doc, seq)? != "sequence" {
        return Err(bad_record("content that is not an xrpc:sequence"));
    }
    n2s(doc, seq)?
        .into_iter()
        .map(|item| match item {
            Item::Node(n) => Ok(n),
            Item::Atomic(_) => Err(bad_record("an atomic value as content")),
        })
        .collect()
}

fn decode_primitive(doc: &Document, el: NodeId) -> XdmResult<SerializedPrimitive> {
    use SerializedPrimitive as S;
    let name = xrpc_local(doc, el)?;
    let mut content = decode_content(doc, el)?;
    if name == "put" {
        let node = (content.len() == 1)
            .then(|| content.remove(0))
            .ok_or_else(|| bad_record("put without exactly one node"))?;
        let uri = attr(doc, el, "uri")?.to_string();
        return Ok(S::Put { node, uri });
    }
    let target = decode_target(doc, el)?;
    Ok(match name {
        "insert-into" => S::InsertInto { target, content },
        "insert-first" => S::InsertFirst { target, content },
        "insert-last" => S::InsertLast { target, content },
        "insert-before" => S::InsertBefore { target, content },
        "insert-after" => S::InsertAfter { target, content },
        "delete" => S::Delete { target },
        "replace-node" => S::ReplaceNode {
            target,
            replacement: content,
        },
        "replace-value" => S::ReplaceValue {
            target,
            value: doc.string_value(el),
        },
        "rename" => S::Rename {
            target,
            name: QName {
                prefix: doc.attr_local(el, "prefix").map(str::to_string),
                ns_uri: doc.attr_local(el, "ns").map(str::to_string),
                local: attr(doc, el, "local")?.to_string(),
            },
        },
        other => return Err(bad_record(format!("unknown primitive xrpc:{other}"))),
    })
}

fn decode_record(payload: &[u8]) -> XdmResult<SequencedRecord> {
    let text = std::str::from_utf8(payload).map_err(|_| bad_record("not UTF-8"))?;
    let doc = xmldom::parse(text).map_err(bad_record)?;
    let el = doc
        .child_elements(doc.root())
        .next()
        .ok_or_else(|| bad_record("no element"))?;
    let qid = QueryId::new(
        attr(&doc, el, "host")?,
        number(&doc, el, "ts")?,
        number(&doc, el, "timeout")?,
    );
    let participants = || {
        doc.child_elements(el)
            .map(|p| match xrpc_local(&doc, p)? {
                "peer" => Ok(attr(&doc, p, "uri")?.to_string()),
                other => Err(bad_record(format!("xrpc:{other} among the participants"))),
            })
            .collect::<XdmResult<Vec<_>>>()
    };
    let record = match xrpc_local(&doc, el)? {
        "prepared" => WalRecord::Prepared {
            coordinator: doc
                .attr_local(el, "coordinator")
                .unwrap_or(&qid.host)
                .to_string(),
            delta: doc
                .child_elements(el)
                .map(|p| decode_primitive(&doc, p))
                .collect::<XdmResult<_>>()?,
            qid,
        },
        "decision" => WalRecord::Decision {
            qid,
            decision: match attr(&doc, el, "outcome")? {
                "committed" => Decision::Committed,
                "aborted" => Decision::Aborted,
                other => return Err(bad_record(format!("unknown outcome `{other}`"))),
            },
        },
        "applied" => WalRecord::Applied {
            qid,
            mark: number(&doc, el, "mark")?,
        },
        "coord-begin" => WalRecord::CoordinatorBegin {
            qid,
            participants: participants()?,
        },
        "coord-commit" => WalRecord::CoordinatorCommit {
            qid,
            participants: participants()?,
        },
        "coord-end" => WalRecord::CoordinatorEnd { qid },
        other => return Err(bad_record(format!("unknown kind xrpc:{other}"))),
    };
    Ok(SequencedRecord {
        lsn: number(&doc, el, "lsn")?,
        record,
    })
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — hand-rolled, no external crates
// ---------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            // shift one bit out, folding the polynomial in when it was set
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            k += 1;
        }
        t[i] = c;
        i += 1;
    }
    t
};

/// CRC-32 of `data` (the common zlib/PNG polynomial).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// The log itself
// ---------------------------------------------------------------------

/// Outcome of opening a log: the surviving records plus what the opener
/// observed about the tail.
pub struct Replay {
    pub records: Vec<SequencedRecord>,
    /// True when replay stopped early at a torn or corrupt tail (which was
    /// truncated away before the log re-opened for appends).
    pub tail_damaged: bool,
}

/// Monotonic counters the admin surface exports; see
/// [`Wal::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Logical size of the log: magic plus every framed record.
    pub log_bytes: u64,
    /// Compactions performed since open.
    pub rotations: u64,
    /// Live records copied forward across all compactions.
    pub copy_forward_records: u64,
    /// Torn/corrupt log tails truncated at open.
    pub torn_tail_recoveries: u64,
    /// Physical fsyncs issued (each may cover a whole group-commit batch).
    pub fsyncs: u64,
    /// True once an append or fsync has failed: the log refuses further
    /// appends with an XRPC0003 durability error.
    pub poisoned: bool,
}

/// An open write-ahead log (a directory holding the file `log`).
pub struct Wal {
    path: PathBuf,
    config: WalConfig,
    inner: Mutex<WalInner>,
    /// Every record at-or-below this LSN is on stable storage (or
    /// closed, which is just as good — a transaction with no obligation
    /// needs no durable record). Lock-free so the group-commit leader
    /// publishes durability with one `fetch_max` instead of queueing on
    /// a contended mutex behind every runnable committer.
    durable_lsn: AtomicU64,
    /// Group-commit leaders in flight: whoever CAS-claims a free slot
    /// drains the staged batch and fsyncs it. Two slots pipeline the
    /// log: while one leader sleeps in `fdatasync`, the next batch is
    /// already drained and queued behind it in the filesystem journal,
    /// so the publish → wake → accumulate gap overlaps with real I/O
    /// instead of leaving the disk idle.
    sync_inflight: AtomicU64,
    /// Parking lot for group-commit followers. Guards no data —
    /// `durable_lsn` is the predicate — so waiters use a bounded
    /// `wait_timeout` and a missed notify costs at most one timeout, never
    /// a hang.
    sync: Mutex<()>,
    sync_cond: Condvar,
    /// Highest LSN written to the log (advanced under `inner`).
    written_lsn: AtomicU64,
    /// See [`Wal::replay_floor`].
    replay_floor: AtomicU64,
    poisoned: AtomicBool,
    poison_reason: Mutex<Option<String>>,
    /// Crash-point switch for deterministic fault injection (chaos tests).
    crash: Mutex<Option<Arc<CrashSwitch>>>,
    /// Whole-append latency (encode + write + force wait), µs.
    append_micros: Histogram,
    /// Physical fsync latency, µs.
    fsync_micros: Histogram,
    /// Records made durable per physical fsync (group-commit batch size).
    group_batch: Histogram,
    rotations: AtomicU64,
    copy_forward_records: AtomicU64,
    torn_tail_recoveries: AtomicU64,
    fsyncs: AtomicU64,
}

/// Key of one undischarged durable obligation: queryID plus *role* — the
/// same peer can hold both a participant obligation (its own prepared
/// ∆_q) and a coordinator obligation (an undelivered commit decision)
/// for one transaction, e.g. an originator with local updates. They
/// discharge independently, so they must not share an entry.
type OpenKey = (String, u64, Role);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Role {
    Participant,
    Coordinator,
}

struct WalInner {
    /// The log, positioned at its end.
    file: File,
    /// Clone of the log's handle; the group-commit leader fsyncs through
    /// it *outside* the `inner` lock so appenders keep staging during the
    /// sync.
    sync_handle: Arc<File>,
    /// Logical size of the log: magic + every framed record, including
    /// ones still staged. The physical file may extend further with
    /// preallocated zeros (see [`prealloc_len`]).
    log_bytes: u64,
    next_lsn: u64,
    /// Records of transactions that still demand action after a crash,
    /// per obligation — exactly what a compaction must preserve. Empty
    /// map after an append = quiesced → truncate.
    live: HashMap<OpenKey, Vec<SequencedRecord>>,
    /// Group-commit staging buffer: framed records appended but not yet
    /// written to the log. The batch leader drains it with
    /// one `write_all` immediately before its fsync, so the file is
    /// write-quiescent while the flush runs — concurrent appends during
    /// an fdatasync keep re-dirtying the inode and stretch the flush
    /// with the batch size. Only used under `FsyncPolicy::Always`; empty
    /// otherwise.
    staged: Vec<u8>,
    /// Every record up to this LSN has been hidden by a quiesce checkpoint
    /// whose zeros (or truncation) the next flush of the log makes
    /// durable.
    checkpointed_lsn: u64,
}

/// Filesystem page size assumed for drain padding and preallocation.
const PAGE: u64 = 4096;

/// Group-commit fsyncs allowed in flight at once (see
/// `Wal::sync_inflight`). One slot maximizes batching; the second
/// pipelines the next batch behind the running fsync so the log never
/// waits for leader wakeup before starting more I/O.
const MAX_INFLIGHT_SYNCS: u64 = 2;

/// Preallocated length of the log under staging (none without it: writes
/// go through as they come). fdatasync of a growing
/// file must journal the extent/size change, which makes its latency
/// scale with the batch size — exactly the tail group commit is supposed
/// to amortize away. Zero-filling the log up front turns every drain into
/// an in-place overwrite with a flat flush cost. Slack beyond
/// `rotate_bytes` absorbs the overshoot of the append that trips
/// compaction; the cap keeps absurd `rotate_bytes` settings from writing
/// gigabytes of zeros.
fn prealloc_len(config: &WalConfig) -> u64 {
    match config.fsync {
        FsyncPolicy::Always => config.rotate_bytes.saturating_add(64 * 1024),
        FsyncPolicy::Never => 0,
    }
    .min(4 * 1024 * 1024)
}

fn zero_fill(file: &mut File, from: u64, to: u64) -> std::io::Result<()> {
    if to <= from {
        return Ok(());
    }
    static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];
    file.seek(SeekFrom::Start(from))?;
    let mut remaining = to - from;
    while remaining > 0 {
        let n = remaining.min(ZEROS.len() as u64) as usize;
        file.write_all(&ZEROS[..n])?;
        remaining -= n as u64;
    }
    Ok(())
}

/// Write the magic and `frames` to `log.next` in `dir`, zero-filled to
/// `prealloc` bytes, and force it under either policy. Returns it
/// positioned at its logical end, and that end.
fn write_next(dir: &Path, frames: &[u8], prealloc: u64) -> std::io::Result<(File, u64)> {
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(dir.join(LOG_NEXT))?;
    f.write_all(MAGIC)?;
    f.write_all(frames)?;
    let end = (MAGIC.len() + frames.len()) as u64;
    if end < prealloc {
        zero_fill(&mut f, end, prealloc)?;
        f.seek(SeekFrom::Start(end))?;
    }
    f.sync_data()?;
    Ok((f, end))
}

/// Rename `log.next` over `log`, then fsync the directory, best effort:
/// POSIX makes a new entry durable only with its directory.
fn install_next(dir: &Path) -> std::io::Result<()> {
    std::fs::rename(dir.join(LOG_NEXT), dir.join(LOG))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// The older layout kept numbered `*.seg` files in the directory. They
/// are removed when none holds a non-zero byte past its magic (every one
/// was checkpointed empty, whatever its format); otherwise the directory
/// is refused as it is.
fn retire_segments(dir: &Path) -> XdmResult<()> {
    let io = |e: std::io::Error| XdmError::xrpc(format!("WAL {}: {e}", dir.display()));
    let mut empty = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io)? {
        let seg = entry.map_err(io)?.path();
        if seg.extension().is_some_and(|e| e == "seg") {
            let buf = std::fs::read(&seg).map_err(io)?;
            if buf.iter().skip(MAGIC.len()).any(|&b| b != 0) {
                return Err(XdmError::xrpc(format!(
                    "WAL {} holds records in the older segmented layout",
                    seg.display()
                )));
            }
            empty.push(seg);
        }
    }
    empty
        .into_iter()
        .try_for_each(std::fs::remove_file)
        .map_err(io)
}

fn frame_bytes(payload: &str) -> Vec<u8> {
    let payload = payload.as_bytes();
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Scan `buf` from `start` for frames. Returns the decoded records, the
/// offset just past the last intact frame, and whether the tail beyond it
/// was damaged (torn, CRC mismatch, or undecodable payload).
fn scan_frames(buf: &[u8], start: usize) -> (Vec<SequencedRecord>, usize, bool) {
    let mut records = Vec::new();
    let mut pos = start;
    loop {
        let Some(header) = buf.get(pos..pos + 8) else {
            return (records, pos, pos != buf.len());
        };
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len == 0 && crc == 0 {
            // an all-zero header is the logical end of a preallocated or
            // page-padded log, not damage: a real frame never has
            // len 0, and a torn frame's bytes were never acked durable
            return (records, pos, false);
        }
        let Some(payload) = buf.get(pos + 8..pos + 8 + len) else {
            return (records, pos, true);
        };
        if crc32(payload) != crc {
            return (records, pos, true);
        }
        match decode_record(payload) {
            Ok(r) => records.push(r),
            // intact frame, unintelligible payload: stop here like a
            // torn tail rather than guessing
            Err(_) => return (records, pos, true),
        }
        pos += 8 + len;
    }
}

impl Wal {
    /// Open (creating if absent) the log at `path` with default tunables
    /// and the given fsync policy.
    pub fn open(path: impl AsRef<Path>, fsync: FsyncPolicy) -> XdmResult<(Arc<Wal>, Replay)> {
        Self::open_with(
            path,
            WalConfig {
                fsync,
                ..WalConfig::default()
            },
        )
    }

    /// Open (creating if absent) the log directory at `path`, replaying
    /// every intact record of its `log`. A torn or CRC-damaged tail ends
    /// the replay and is truncated away so appends resume cleanly. A `log`
    /// without the magic, an older layout with records, and a `path` that
    /// is not a directory are typed errors that leave the log as it is.
    pub fn open_with(path: impl AsRef<Path>, config: WalConfig) -> XdmResult<(Arc<Wal>, Replay)> {
        let path = path.as_ref().to_path_buf();
        let io = |e: std::io::Error| XdmError::xrpc(format!("WAL {}: {e}", path.display()));

        if std::fs::metadata(&path).is_ok_and(|m| !m.is_dir()) {
            return Err(XdmError::xrpc(format!(
                "{} is not a WAL directory",
                path.display()
            )));
        }
        std::fs::create_dir_all(&path).map_err(io)?;
        retire_segments(&path)?;
        // a compaction that died before its rename; should the removal
        // fail, the next compaction truncates it anyway
        let _ = std::fs::remove_file(path.join(LOG_NEXT));

        let log_path = path.join(LOG);
        let prealloc = prealloc_len(&config);
        let (file, records, end, tail_damaged) = match std::fs::read(&log_path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let (file, end) = write_next(&path, &[], prealloc).map_err(io)?;
                install_next(&path).map_err(io)?;
                (file, Vec::new(), end, false)
            }
            Err(e) => return Err(io(e)),
            Ok(buf) => {
                if !buf.starts_with(MAGIC) {
                    return Err(XdmError::xrpc(format!(
                        "WAL {} does not start with its magic: damaged, left as it is",
                        log_path.display()
                    )));
                }
                let (records, end, damaged) = scan_frames(&buf, MAGIC.len());
                let mut f = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&log_path)
                    .map_err(io)?;
                if damaged {
                    f.set_len(end as u64).map_err(io)?;
                }
                let physical = f.metadata().map_err(io)?.len();
                if physical < prealloc {
                    zero_fill(&mut f, physical, prealloc).map_err(io)?;
                    f.sync_data().map_err(io)?;
                }
                f.seek(SeekFrom::Start(end as u64)).map_err(io)?;
                (f, records, end as u64, damaged)
            }
        };

        let next_lsn = records.iter().map(|r| r.lsn).max().unwrap_or(0) + 1;
        let mut live: HashMap<OpenKey, Vec<SequencedRecord>> = HashMap::new();
        for sr in &records {
            apply_live(&mut live, sr.lsn, &sr.record);
        }
        let sync_handle = Arc::new(file.try_clone().map_err(io)?);

        let written = next_lsn - 1;
        let replay_floor = records.first().map_or(next_lsn, |r| r.lsn);
        let wal = Arc::new(Wal {
            path,
            config,
            inner: Mutex::new(WalInner {
                file,
                sync_handle,
                log_bytes: end,
                next_lsn,
                live,
                staged: Vec::new(),
                checkpointed_lsn: 0,
            }),
            durable_lsn: AtomicU64::new(written),
            sync_inflight: AtomicU64::new(0),
            sync: Mutex::new(()),
            sync_cond: Condvar::new(),
            written_lsn: AtomicU64::new(written),
            replay_floor: AtomicU64::new(replay_floor),
            poisoned: AtomicBool::new(false),
            poison_reason: Mutex::new(None),
            crash: Mutex::new(None),
            append_micros: Histogram::new(),
            fsync_micros: Histogram::new(),
            group_batch: Histogram::new(),
            rotations: AtomicU64::new(0),
            copy_forward_records: AtomicU64::new(0),
            torn_tail_recoveries: AtomicU64::new(tail_damaged as u64),
            fsyncs: AtomicU64::new(0),
        });
        Ok((
            wal,
            Replay {
                records,
                tail_damaged,
            },
        ))
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn config(&self) -> WalConfig {
        self.config
    }

    /// The log's histogram families with their exposition names: append
    /// latency, fsync latency and group-commit batch size.
    pub(crate) fn histograms(&self) -> [(&'static str, &Histogram); 3] {
        [
            ("xrpc_wal_append_micros", &self.append_micros),
            ("xrpc_wal_fsync_micros", &self.fsync_micros),
            ("xrpc_wal_group_batch", &self.group_batch),
        ]
    }

    /// Consult this switch at the WAL-internal crash points
    /// ([`crash_points::WAL_GROUP_FSYNC`], [`crash_points::WAL_MID_ROTATION`]).
    pub fn set_crash_switch(&self, sw: Arc<CrashSwitch>) {
        *self.crash.lock() = Some(sw);
    }

    /// Mark the log unusable: every subsequent append fails fast with an
    /// XRPC0003 durability error. Called internally on the first real
    /// append/fsync I/O failure; public as an operational kill switch
    /// (e.g. when the operator knows the volume is failing).
    pub fn poison(&self, reason: impl Into<String>) {
        let reason = reason.into();
        self.poisoned.store(true, Ordering::SeqCst);
        let mut slot = self.poison_reason.lock();
        if slot.is_none() {
            *slot = Some(reason);
        }
        // wake any group-commit waiters so they observe the poisoning
        self.sync_cond.notify_all();
    }

    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    pub fn poison_reason(&self) -> Option<String> {
        self.poison_reason.lock().clone()
    }

    fn check_poisoned(&self) -> XdmResult<()> {
        if self.is_poisoned() {
            let why = self.poison_reason().unwrap_or_else(|| "unknown".into());
            return Err(XdmError::xrpc_durability(format!(
                "WAL {} is poisoned ({why}); refusing to log",
                self.path.display()
            )));
        }
        Ok(())
    }

    /// Route a real I/O failure through poisoning and produce the typed
    /// durability error. Simulated crash-point trips never come here.
    fn io_poison(&self, what: &str, e: std::io::Error) -> XdmError {
        let msg = format!("WAL {} {what} failed: {e}", self.path.display());
        self.poison(msg.clone());
        XdmError::xrpc_durability(msg)
    }

    fn crash_hit(&self, point: &str) -> XdmResult<()> {
        let sw = self.crash.lock().clone();
        if let Some(sw) = sw {
            if sw.hit(point) {
                return Err(XdmError::xrpc(format!("simulated crash at {point}")));
            }
        }
        Ok(())
    }

    /// Counter snapshot for `/metrics`.
    pub fn stats(&self) -> WalStats {
        let inner = self.inner.lock();
        WalStats {
            log_bytes: inner.log_bytes,
            rotations: self.rotations.load(Ordering::Relaxed),
            copy_forward_records: self.copy_forward_records.load(Ordering::Relaxed),
            torn_tail_recoveries: self.torn_tail_recoveries.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            poisoned: self.is_poisoned(),
        }
    }

    /// Append one record and force it per policy; returns its LSN. When
    /// the append leaves no transaction open the log is truncated instead
    /// — checkpoint-on-quiesce.
    pub fn append(&self, rec: &WalRecord) -> XdmResult<u64> {
        self.append_impl(rec, true)
    }

    /// Append one record *without* waiting for it to reach stable
    /// storage, even under [`FsyncPolicy::Always`]. For records whose
    /// loss is free — under presumed abort (CoordinatorBegin/End), or
    /// because replay without them repeats nothing (Applied): the next
    /// forced append still carries them to disk.
    pub fn append_nosync(&self, rec: &WalRecord) -> XdmResult<u64> {
        self.append_impl(rec, false)
    }

    fn append_impl(&self, rec: &WalRecord, force: bool) -> XdmResult<u64> {
        let started = std::time::Instant::now();
        self.check_poisoned()?;

        let mut inner = self.inner.lock();
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        apply_live(&mut inner.live, lsn, rec);

        if inner.live.is_empty() {
            // quiesced: everything durable is also done — truncate instead
            // of appending one more record nobody will ever need
            self.quiesce_locked(&mut inner)?;
            self.written_lsn.store(lsn, Ordering::Release);
            drop(inner);
            self.advance_durable(lsn);
            self.append_micros.record_micros(started.elapsed());
            return Ok(lsn);
        }

        let frame = frame_bytes(&encode_record(rec, lsn));
        if self.staging() {
            inner.staged.extend_from_slice(&frame);
        } else if let Err(e) = inner.file.write_all(&frame) {
            return Err(self.io_poison("append", e));
        }
        inner.log_bytes += frame.len() as u64;
        self.written_lsn.store(lsn, Ordering::Release);

        if inner.log_bytes > self.config.rotate_bytes {
            self.compact_locked(&mut inner)?;
        }
        drop(inner);

        if force {
            self.force(lsn)?;
        }
        self.append_micros.record_micros(started.elapsed());
        Ok(lsn)
    }

    /// Raise the durable horizon (no fsync needed: used when the bytes at
    /// or below `lsn` are already stable or closed) and wake waiters.
    fn advance_durable(&self, lsn: u64) {
        if self.durable_lsn.fetch_max(lsn, Ordering::AcqRel) < lsn {
            self.wake_waiters();
        }
    }

    /// Wake parked group-commit followers. Bouncing through the park
    /// lock first closes the race with a follower that has re-checked
    /// the predicate but not yet begun waiting: after the bounce, every
    /// such follower is inside `wait_timeout` and receives the notify.
    /// Must not be called while holding `sync`.
    fn wake_waiters(&self) {
        drop(self.sync.lock());
        self.sync_cond.notify_all();
    }

    /// Quiesce checkpoint: truncate the log to its magic. Caller holds
    /// `inner`, so no flush happens here: every record this hides belongs
    /// to a closed transaction — should a crash bring some of them back,
    /// replaying them settles nothing twice (an abort releases nothing, a
    /// commit is stopped by the store's applied-LSN mark) — and the zeros
    /// reach the disk with the next forced append's flush of the same file.
    fn quiesce_locked(&self, inner: &mut WalInner) -> XdmResult<()> {
        // anything still staged belongs to a closed transaction now
        inner.staged.clear();
        let res = if self.staging() {
            // keep the preallocation: zero the used prefix instead of
            // truncating, so later drains stay in-place overwrites (the
            // zeros also stop any stale frame from resurrecting on replay)
            zero_fill(&mut inner.file, MAGIC.len() as u64, inner.log_bytes)
        } else {
            inner.file.set_len(MAGIC.len() as u64)
        };
        if let Err(e) = res.and_then(|_| inner.file.seek(SeekFrom::Start(MAGIC.len() as u64))) {
            return Err(self.io_poison("truncate", e));
        }
        inner.log_bytes = MAGIC.len() as u64;
        inner.checkpointed_lsn = inner.next_lsn - 1;
        if self.config.fsync == FsyncPolicy::Never {
            // no flush will ever follow: the operating system has it
            self.replay_floor
                .fetch_max(inner.next_lsn, Ordering::AcqRel);
        }
        Ok(())
    }

    /// Compact: write every live record (with its original LSN) to a
    /// forced `log.next`, rename it over `log`, and swap the handle.
    /// Caller holds `inner`. After a successful compaction every LSN
    /// written so far is durable-or-closed, so the group-commit horizon
    /// advances without an extra fsync.
    fn compact_locked(&self, inner: &mut WalInner) -> XdmResult<()> {
        let mut fwd: Vec<&SequencedRecord> = inner.live.values().flatten().collect();
        fwd.sort_by_key(|sr| sr.lsn);
        let copied = fwd.len() as u64;
        let frames: Vec<u8> = fwd
            .into_iter()
            .flat_map(|sr| frame_bytes(&encode_record(&sr.record, sr.lsn)))
            .collect();
        let poison = |e| self.io_poison("compaction", e);
        let (file, bytes) =
            write_next(&self.path, &frames, prealloc_len(&self.config)).map_err(poison)?;

        // `log.next` is durable, the rename not done: dying here leaves
        // the old log whole (staged frames included: a leader still
        // drains them into it), and the next open removes `log.next`
        self.crash_hit(crash_points::WAL_MID_ROTATION)?;

        let sync_handle = install_next(&self.path)
            .and_then(|()| file.try_clone())
            .map_err(poison)?;
        // staged frames are subsumed by the copy above: live records were
        // rewritten from memory, closed ones owe nothing
        inner.staged.clear();
        inner.file = file;
        inner.sync_handle = Arc::new(sync_handle);
        inner.log_bytes = bytes;
        self.rotations.fetch_add(1, Ordering::Relaxed);
        self.copy_forward_records
            .fetch_add(copied, Ordering::Relaxed);

        // every live record ≤ written_lsn now sits in the forced new log;
        // every other record ≤ written_lsn is closed — either way there is
        // nothing left to force, and nothing older than the oldest live
        // record left to replay
        self.advance_durable(self.written_lsn.load(Ordering::Acquire));
        if let Some(oldest) = inner.live.values().flatten().map(|sr| sr.lsn).min() {
            self.replay_floor.fetch_max(oldest, Ordering::AcqRel);
        }
        Ok(())
    }

    /// Wait until `lsn` is durable, fsyncing as needed: whoever arrives
    /// while a leader slot is free becomes a batch leader; everyone else
    /// rides a leader's fsync.
    fn force(&self, lsn: u64) -> XdmResult<()> {
        if self.config.fsync == FsyncPolicy::Never {
            return Ok(());
        }
        loop {
            if self.durable_lsn.load(Ordering::Acquire) >= lsn {
                return Ok(());
            }
            self.check_poisoned()?;
            let claimed = {
                let inflight = self.sync_inflight.load(Ordering::Acquire);
                inflight < MAX_INFLIGHT_SYNCS
                    && self
                        .sync_inflight
                        .compare_exchange(
                            inflight,
                            inflight + 1,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
            };
            if !claimed {
                // follower: park until a leader publishes. Leaders touch
                // the park lock before notifying, so a notify can't slip
                // between our re-check and the wait; the timeout is only
                // a backstop (e.g. poisoning races).
                let mut g = self.sync.lock();
                if self.durable_lsn.load(Ordering::Acquire) < lsn
                    && self.sync_inflight.load(Ordering::Acquire) > 0
                    && !self.is_poisoned()
                {
                    self.sync_cond
                        .wait_timeout(&mut g, std::time::Duration::from_millis(5));
                }
                continue;
            }

            // leader: drain the staged batch and capture handle +
            // horizon. After the drain every record ≤ target is either in
            // the file this handle refers to (drained or copied forward)
            // or closed, and appenders only stage until the fsync is done.
            let durable_before = self.durable_lsn.load(Ordering::Acquire);
            let (handle, target, checkpointed) = match self
                .drain_and_capture()
                .and_then(|ht| self.crash_hit(crash_points::WAL_GROUP_FSYNC).map(|()| ht))
            {
                Ok(ht) => ht,
                Err(e) => {
                    self.sync_inflight.fetch_sub(1, Ordering::AcqRel);
                    self.wake_waiters();
                    return Err(e);
                }
            };
            let t0 = std::time::Instant::now();
            match handle.sync_data() {
                Ok(()) => {
                    // publish before stepping down: a successor leader
                    // must see the new horizon, and followers return on
                    // the atomic alone
                    self.durable_lsn.fetch_max(target, Ordering::AcqRel);
                    self.replay_floor
                        .fetch_max(checkpointed + 1, Ordering::AcqRel);
                    self.sync_inflight.fetch_sub(1, Ordering::AcqRel);
                    self.wake_waiters();
                    self.fsyncs.fetch_add(1, Ordering::Relaxed);
                    self.fsync_micros.record_micros(t0.elapsed());
                    self.group_batch
                        .record(target.saturating_sub(durable_before));
                }
                Err(e) => {
                    self.sync_inflight.fetch_sub(1, Ordering::AcqRel);
                    let err = self.io_poison("fsync", e);
                    self.wake_waiters();
                    return Err(err);
                }
            }
        }
    }

    /// Does this log stage appends in memory until a batch leader drains
    /// them? Only worthwhile when there are real fsyncs to protect from
    /// concurrent writes; `FsyncPolicy::Never` writes through so the file
    /// always holds everything appended.
    fn staging(&self) -> bool {
        self.config.fsync == FsyncPolicy::Always
    }

    /// Drain any staged frames into the log with a single write, then
    /// snapshot (log handle, written horizon,
    /// checkpointed horizon) consistently: every record ≤ the written
    /// horizon is in the file this handle refers to (appended, drained, or
    /// copied forward) or closed, and a flush through the handle makes the
    /// checkpoints up to the last one durable.
    fn drain_and_capture(&self) -> XdmResult<(Arc<File>, u64, u64)> {
        let mut inner = self.inner.lock();
        if let Err(e) = inner.write_staged() {
            return Err(self.io_poison("append", e));
        }
        Ok((
            inner.sync_handle.clone(),
            self.written_lsn.load(Ordering::Acquire),
            inner.checkpointed_lsn,
        ))
    }

    /// Every record with an LSN below this is gone from the disk for good —
    /// closed, then hidden by a checkpoint or left behind by a compaction
    /// that a flush has since made durable — so no replay can bring it
    /// back. An applied-LSN mark below it guards a `Prepared` record that
    /// no longer exists.
    pub fn replay_floor(&self) -> u64 {
        self.replay_floor.load(Ordering::Acquire)
    }

    /// Number of durable obligations (per transaction *and role*) still
    /// demanding future action.
    pub fn open_transactions(&self) -> usize {
        self.inner.lock().live.len()
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort drain on shutdown: unforced records (Applied,
        // CoordinatorBegin/End) may still sit in the staging buffer.
        // Their loss is free, but writing them out
        // keeps a clean process exit equivalent to write-through — the
        // restart sweep can then re-abort eagerly instead of waiting for
        // participant inquiries.
        let _ = self.inner.lock().write_staged();
    }
}

impl WalInner {
    /// Write the staged frames at the logical end of the log
    /// (`log_bytes` counts them the moment they are staged), padded to the
    /// next page boundary: a flush then writes whole preallocated pages,
    /// and the zeros double as the end-of-log sentinel. Padding is not part
    /// of the logical log — the next drain overwrites it.
    fn write_staged(&mut self) -> std::io::Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let mut batch = std::mem::take(&mut self.staged);
        let start = self.log_bytes - batch.len() as u64;
        let pad = (PAGE - self.log_bytes % PAGE) % PAGE;
        batch.resize(batch.len() + pad as usize, 0);
        self.file.seek(SeekFrom::Start(start))?;
        self.file.write_all(&batch)
    }
}

/// Track the records of transactions with undischarged durable state —
/// exactly the set a compaction must copy forward.
fn apply_live(live: &mut HashMap<OpenKey, Vec<SequencedRecord>>, lsn: u64, rec: &WalRecord) {
    let key = |q: &QueryId, r: Role| (q.host.clone(), q.timestamp_millis, r);
    let kept = || SequencedRecord {
        lsn,
        record: rec.clone(),
    };
    match rec {
        WalRecord::Prepared { qid, .. } => {
            live.insert(key(qid, Role::Participant), vec![kept()]);
        }
        WalRecord::Decision { qid, decision } => {
            // an aborted transaction needs nothing further; a committed
            // one stays open (prepared ∆ + decision) until applied
            if *decision == Decision::Aborted {
                live.remove(&key(qid, Role::Participant));
            } else {
                live.entry(key(qid, Role::Participant))
                    .or_default()
                    .push(kept());
            }
        }
        WalRecord::Applied { qid, .. } => {
            live.remove(&key(qid, Role::Participant));
        }
        // the commit point supersedes the begin record
        WalRecord::CoordinatorBegin { qid, .. } | WalRecord::CoordinatorCommit { qid, .. } => {
            live.insert(key(qid, Role::Coordinator), vec![kept()]);
        }
        WalRecord::CoordinatorEnd { qid } => {
            live.remove(&key(qid, Role::Coordinator));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!(
            "xrpc-wal-test-{}-{n}-{name}.wal",
            std::process::id()
        ))
    }

    fn cleanup(p: &Path) {
        let _ = std::fs::remove_dir_all(p);
    }

    /// The names in log directory `p`, ascending.
    fn entries(p: &Path) -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(p)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        v.sort();
        v
    }

    fn plain(replay: &Replay) -> Vec<WalRecord> {
        replay.records.iter().map(|sr| sr.record.clone()).collect()
    }

    fn qid(ts: u64) -> QueryId {
        QueryId::new("xrpc://origin", ts, 30)
    }

    fn fragment(xml: &str) -> NodeHandle {
        let d = Arc::new(xmldom::parse(xml).unwrap());
        let id = d.first_child(d.root()).unwrap();
        NodeHandle::new(d, id)
    }

    fn sample_prepared(ts: u64) -> WalRecord {
        WalRecord::Prepared {
            qid: qid(ts),
            coordinator: "xrpc://origin".into(),
            delta: vec![
                SerializedPrimitive::InsertLast {
                    target: NodePath {
                        doc_uri: "log.xml".into(),
                        steps: vec![PathStep::Child(0)],
                    },
                    content: vec![fragment("<e>hi%|there\n</e>")],
                },
                SerializedPrimitive::ReplaceValue {
                    target: NodePath {
                        doc_uri: "log.xml".into(),
                        steps: vec![PathStep::Child(0), PathStep::Attr(1)],
                    },
                    value: "new\tvalue".into(),
                },
            ],
        }
    }

    #[test]
    fn roundtrip_records_through_reopen() {
        let p = tmp("roundtrip");
        let recs = vec![
            sample_prepared(1),
            WalRecord::Decision {
                qid: qid(1),
                decision: Decision::Committed,
            },
            WalRecord::CoordinatorCommit {
                qid: qid(2),
                participants: vec!["xrpc://b".into(), "xrpc://c".into()],
            },
        ];
        {
            let (w, replay) = Wal::open(&p, FsyncPolicy::Never).unwrap();
            assert!(replay.records.is_empty());
            for r in &recs {
                w.append(r).unwrap();
            }
            assert_eq!(w.open_transactions(), 2);
        }
        let (_, replay) = Wal::open(&p, FsyncPolicy::Never).unwrap();
        assert!(!replay.tail_damaged);
        assert_eq!(plain(&replay), recs);
        assert_eq!(
            replay.records.iter().map(|sr| sr.lsn).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "LSNs are stamped in append order"
        );
        cleanup(&p);
    }

    #[test]
    fn truncated_tail_detected_and_dropped() {
        let p = tmp("torn");
        {
            let (w, _) = Wal::open(&p, FsyncPolicy::Always).unwrap();
            w.append(&sample_prepared(1)).unwrap();
            w.append(&sample_prepared(2)).unwrap();
        }
        // tear the last frame: chop off its final 3 bytes. The frame
        // chain ends at the logical end — under group commit the file
        // extends further with preallocated zeros, so physical length
        // is not where the tear belongs.
        let log = p.join(LOG);
        let buf = std::fs::read(&log).unwrap();
        let (_, end, _) = scan_frames(&buf, MAGIC.len());
        std::fs::OpenOptions::new()
            .write(true)
            .open(&log)
            .unwrap()
            .set_len(end as u64 - 3)
            .unwrap();
        let (w, replay) = Wal::open(&p, FsyncPolicy::Never).unwrap();
        assert!(replay.tail_damaged, "torn tail must be reported");
        assert_eq!(plain(&replay), vec![sample_prepared(1)]);
        assert_eq!(w.stats().torn_tail_recoveries, 1);
        // the log keeps working after the repair
        w.append(&sample_prepared(3)).unwrap();
        drop(w);
        let (_, replay) = Wal::open(&p, FsyncPolicy::Never).unwrap();
        assert!(!replay.tail_damaged);
        assert_eq!(plain(&replay), vec![sample_prepared(1), sample_prepared(3)]);
        cleanup(&p);
    }

    #[test]
    fn bitflip_in_tail_detected_by_crc() {
        let p = tmp("bitflip");
        {
            let (w, _) = Wal::open(&p, FsyncPolicy::Always).unwrap();
            w.append(&sample_prepared(1)).unwrap();
            w.append(&sample_prepared(2)).unwrap();
        }
        // flip one bit inside the *last* record's payload (the frame
        // chain ends at the logical end, before any preallocated zeros)
        let log = p.join(LOG);
        let mut bytes = std::fs::read(&log).unwrap();
        let (_, end, _) = scan_frames(&bytes, MAGIC.len());
        bytes[end - 5] ^= 0x10;
        std::fs::write(&log, &bytes).unwrap();
        let (_, replay) = Wal::open(&p, FsyncPolicy::Never).unwrap();
        assert!(replay.tail_damaged, "bit flip must be reported");
        assert_eq!(
            plain(&replay),
            vec![sample_prepared(1)],
            "recovery proceeds from the last intact record"
        );
        cleanup(&p);
    }

    #[test]
    fn quiesce_truncates_log() {
        let p = tmp("quiesce");
        let (w, _) = Wal::open(&p, FsyncPolicy::Never).unwrap();
        w.append(&sample_prepared(1)).unwrap();
        w.append(&WalRecord::Decision {
            qid: qid(1),
            decision: Decision::Committed,
        })
        .unwrap();
        assert_eq!(w.open_transactions(), 1, "committed but not yet applied");
        let before = std::fs::metadata(p.join(LOG)).unwrap().len();
        assert!(before > MAGIC.len() as u64);
        w.append(&WalRecord::Applied {
            qid: qid(1),
            mark: 1,
        })
        .unwrap();
        assert_eq!(w.open_transactions(), 0);
        assert_eq!(
            std::fs::metadata(p.join(LOG)).unwrap().len(),
            MAGIC.len() as u64,
            "quiesced log is truncated to just the magic"
        );
        assert_eq!(w.stats().log_bytes, MAGIC.len() as u64);
        cleanup(&p);
    }

    #[test]
    fn aborted_decision_quiesces_without_apply() {
        let p = tmp("abort-quiesce");
        let (w, _) = Wal::open(&p, FsyncPolicy::Never).unwrap();
        w.append(&sample_prepared(1)).unwrap();
        w.append(&WalRecord::Decision {
            qid: qid(1),
            decision: Decision::Aborted,
        })
        .unwrap();
        assert_eq!(w.open_transactions(), 0);
        cleanup(&p);
    }

    #[test]
    fn non_wal_file_rejected() {
        let p = tmp("not-a-wal");
        std::fs::write(&p, b"definitely not a WAL file").unwrap();
        assert!(Wal::open(&p, FsyncPolicy::Never).is_err());
        cleanup(&p);
    }

    #[test]
    fn rotation_copies_live_records_forward() {
        let p = tmp("compact");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            rotate_bytes: 1, // compact on every non-quiescing append
            ..WalConfig::default()
        };
        let (w, _) = Wal::open_with(&p, cfg).unwrap();
        for ts in 1..=3 {
            w.append(&sample_prepared(ts)).unwrap();
        }
        let s = w.stats();
        assert_eq!(s.rotations, 3);
        assert_eq!(entries(&p), [LOG], "each compaction renames over the log");
        assert_eq!(
            s.copy_forward_records,
            1 + 2 + 3,
            "each compaction copies every live record forward"
        );
        drop(w);
        let (w, replay) = Wal::open_with(&p, cfg).unwrap();
        assert_eq!(
            plain(&replay),
            vec![sample_prepared(1), sample_prepared(2), sample_prepared(3)],
            "copy-forward preserves records and order"
        );
        assert_eq!(
            replay.records.iter().map(|sr| sr.lsn).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "copy-forward preserves original LSNs"
        );
        // closing every transaction quiesces the compacted log too
        for ts in 1..=3 {
            w.append(&WalRecord::Decision {
                qid: qid(ts),
                decision: Decision::Aborted,
            })
            .unwrap();
        }
        assert_eq!(w.stats().log_bytes, MAGIC.len() as u64);
        cleanup(&p);
    }

    /// A crash mid-compaction leaves `log.next`; the reopen removes it and
    /// replays the old log whole, each record once.
    #[test]
    fn mid_rotation_crash_replays_without_duplicates() {
        use xrpc_net::{crash_points, CrashSwitch};
        let p = tmp("mid-compaction");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            rotate_bytes: 1,
            ..WalConfig::default()
        };
        let (w, _) = Wal::open_with(&p, cfg).unwrap();
        let sw = CrashSwitch::new();
        w.set_crash_switch(sw.clone());
        sw.arm(crash_points::WAL_MID_ROTATION);
        let err = w.append(&sample_prepared(1)).unwrap_err();
        assert!(err.message.contains("simulated crash"), "{err}");
        drop(w);
        // the forced `log.next` was never renamed over the log
        assert_eq!(entries(&p), [LOG, LOG_NEXT]);
        let (w, replay) = Wal::open_with(&p, cfg).unwrap();
        assert_eq!(entries(&p), [LOG], "the reopen removes log.next");
        assert_eq!(plain(&replay), vec![sample_prepared(1)]);
        assert_eq!(replay.records[0].lsn, 1);
        w.append(&WalRecord::Decision {
            qid: qid(1),
            decision: Decision::Aborted,
        })
        .unwrap();
        assert_eq!(w.open_transactions(), 0);
        cleanup(&p);
    }

    /// A log is only ever created whole, by a rename, so a `log` without
    /// its magic is damage: the open refuses it and writes nothing.
    #[test]
    fn a_damaged_magic_is_a_typed_refusal_and_the_log_is_left_alone() {
        let p = tmp("bad-magic");
        {
            let (w, _) = Wal::open(&p, FsyncPolicy::Always).unwrap();
            w.append(&sample_prepared(1)).unwrap();
        }
        let log = p.join(LOG);
        let mut bytes = std::fs::read(&log).unwrap();
        bytes[3] ^= 0x01;
        std::fs::write(&log, &bytes).unwrap();
        let Err(err) = Wal::open(&p, FsyncPolicy::Always) else {
            panic!("a log with a damaged magic must not open");
        };
        assert_eq!(err.code, "XRPC0001");
        assert!(err.message.contains("magic"), "{err}");
        assert_eq!(std::fs::read(&log).unwrap(), bytes, "untouched");
        cleanup(&p);
    }

    #[test]
    fn a_file_at_the_wal_path_is_a_typed_error_and_is_left_alone() {
        let p = tmp("notadir");
        for content in [&b""[..], b"not a log"] {
            std::fs::write(&p, content).unwrap();
            let Err(err) = Wal::open(&p, FsyncPolicy::Never) else {
                panic!("a regular file is not a log");
            };
            assert_eq!(err.code, "XRPC0001");
            assert!(err.message.contains("is not a WAL directory"), "{err}");
            assert_eq!(std::fs::read(&p).unwrap(), content, "untouched");
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn a_record_without_an_lsn_does_not_decode() {
        let text = encode_record(&sample_prepared(1), 7);
        assert_eq!(decode_record(text.as_bytes()).unwrap().lsn, 7);
        let stripped = text.replace(" lsn=\"7\"", "");
        let err = decode_record(stripped.as_bytes()).unwrap_err();
        assert!(err.message.contains("no `lsn`"), "{err}");
    }

    /// Content the record's own `xrpc` prefix could clash with: an
    /// attribute that binds `xrpc` to another namespace comes back from a
    /// reopen whole, instead of making its forced record undecodable.
    #[test]
    fn an_attribute_that_takes_the_xrpc_prefix_survives_a_reopen() {
        let p = tmp("xrpc-prefix");
        let mut d = xmldom::Document::new();
        let attr = d.create_attribute(QName::ns("xrpc", "urn:mine", "k"), "1");
        let rec = WalRecord::Prepared {
            qid: qid(1),
            coordinator: "xrpc://origin".into(),
            delta: vec![SerializedPrimitive::InsertInto {
                target: NodePath {
                    doc_uri: "log.xml".into(),
                    steps: vec![PathStep::Child(0)],
                },
                content: vec![NodeHandle::new(Arc::new(d), attr)],
            }],
        };
        {
            let (w, _) = Wal::open(&p, FsyncPolicy::Always).unwrap();
            w.append(&rec).unwrap();
        }
        let (_, replay) = Wal::open(&p, FsyncPolicy::Always).unwrap();
        assert!(!replay.tail_damaged);
        assert_eq!(plain(&replay), vec![rec]);
        let WalRecord::Prepared { delta, .. } = &replay.records[0].record else {
            panic!()
        };
        let SerializedPrimitive::InsertInto { content, .. } = &delta[0] else {
            panic!()
        };
        let name = content[0].name().unwrap();
        assert!(name.is("urn:mine", "k"));
        assert_eq!(name.prefix.as_deref(), Some("xrpc"));
        assert_eq!(content[0].value(), "1");
        cleanup(&p);
    }

    /// The older layout: one numbered segment, in the format before
    /// records were `xrpc:` elements or in the current one.
    fn old_layout(p: &Path, magic: &[u8], frame: bool) -> Vec<u8> {
        std::fs::create_dir_all(p).unwrap();
        let mut bytes = magic.to_vec();
        if frame {
            bytes.extend(frame_bytes(&encode_record(&sample_prepared(1), 1)));
        }
        // a checkpointed segment keeps its preallocated zeros
        bytes.resize(bytes.len() + 100, 0);
        std::fs::write(p.join("0000000000000001.seg"), &bytes).unwrap();
        bytes
    }

    /// An older layout checkpointed empty, in either format, opens: its
    /// segment is removed and a new `log` takes its place.
    #[test]
    fn an_old_format_log_checkpointed_empty_opens_and_is_rewritten() {
        for magic in [b"XRPCWAL2", MAGIC] {
            let p = tmp("old-empty");
            old_layout(&p, magic, false);
            let (w, replay) = Wal::open(&p, FsyncPolicy::Never).unwrap();
            assert!(replay.records.is_empty());
            assert!(!replay.tail_damaged);
            assert_eq!(entries(&p), [LOG], "the segment is removed");
            w.append(&sample_prepared(1)).unwrap();
            drop(w);
            let (_, replay) = Wal::open(&p, FsyncPolicy::Never).unwrap();
            assert_eq!(plain(&replay), vec![sample_prepared(1)]);
            cleanup(&p);
        }
    }

    /// An older layout holding a frame, in either format, is refused.
    #[test]
    fn an_old_format_log_with_a_frame_is_a_typed_refusal_and_is_left_alone() {
        for magic in [b"XRPCWAL2", MAGIC] {
            let p = tmp("old-frame");
            let bytes = old_layout(&p, magic, true);
            let Err(err) = Wal::open(&p, FsyncPolicy::Always) else {
                panic!("an older layout with records must not open");
            };
            assert_eq!(err.code, "XRPC0001");
            assert!(err.message.contains("older segmented layout"), "{err}");
            assert_eq!(entries(&p), ["0000000000000001.seg"], "nothing added");
            let seg = p.join("0000000000000001.seg");
            assert_eq!(std::fs::read(seg).unwrap(), bytes, "untouched");
            cleanup(&p);
        }
    }

    #[test]
    fn poisoned_log_fails_fast_with_durability_error() {
        let p = tmp("poison");
        let (w, _) = Wal::open(&p, FsyncPolicy::Never).unwrap();
        w.append(&sample_prepared(1)).unwrap();
        w.poison("injected: device out of space");
        assert!(w.is_poisoned());
        let err = w.append(&sample_prepared(2)).unwrap_err();
        assert_eq!(err.code, "XRPC0003");
        assert!(err.message.contains("poisoned"), "{err}");
        assert!(w.stats().poisoned);
        cleanup(&p);
    }

    #[test]
    fn group_commit_coalesces_concurrent_appends() {
        let p = tmp("group");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Always,
            ..WalConfig::default()
        };
        let (w, _) = Wal::open_with(&p, cfg).unwrap();
        let threads = 8;
        let per = 4;
        std::thread::scope(|s| {
            for t in 0..threads {
                let w = &w;
                s.spawn(move || {
                    for i in 0..per {
                        w.append(&sample_prepared((t * per + i + 1) as u64))
                            .unwrap();
                    }
                });
            }
        });
        let s = w.stats();
        assert!(
            s.fsyncs >= 1 && s.fsyncs <= (threads * per) as u64,
            "fsyncs {} out of range",
            s.fsyncs
        );
        assert_eq!(w.open_transactions(), threads * per);
        let (_, replay) = Wal::open_with(&p, cfg).unwrap();
        assert_eq!(replay.records.len(), threads * per);
        cleanup(&p);
    }

    #[test]
    fn crc32_known_vector() {
        // standard check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn pul_roundtrip_through_serialized_form() {
        use xqeval::pul::UpdatePrimitive;
        let docs = InMemoryDocs::new();
        docs.insert(
            "db.xml",
            xmldom::parse_with_uri(
                r#"<root><item k="v">one</item><item>two</item></root>"#,
                "db.xml",
            )
            .unwrap(),
        );
        let doc = docs.get("db.xml").unwrap();
        let root_el = doc.first_child(doc.root()).unwrap();
        let item0 = doc.first_child(root_el).unwrap();
        let attr = doc.attributes(item0).next().unwrap();
        let frag = {
            let d = Arc::new(xmldom::parse("<new>content &amp; more</new>").unwrap());
            let id = d.first_child(d.root()).unwrap();
            NodeHandle::new(d, id)
        };
        let mut pul = PendingUpdateList::new();
        pul.push(UpdatePrimitive::InsertLast {
            target: NodeHandle::new(doc.clone(), root_el),
            content: vec![frag],
        });
        pul.push(UpdatePrimitive::ReplaceValue {
            target: NodeHandle::new(doc.clone(), attr),
            value: "v2".into(),
        });
        pul.push(UpdatePrimitive::Delete {
            target: NodeHandle::new(doc.clone(), doc.children(root_el).nth(1).unwrap()),
        });
        pul.push(UpdatePrimitive::Rename {
            target: NodeHandle::new(doc.clone(), item0),
            name: QName::local("renamed"),
        });

        let ser = serialize_pul(&pul).unwrap();
        // survive the wire: encode into a record payload and back
        let rec = WalRecord::Prepared {
            qid: qid(7),
            coordinator: "xrpc://origin".into(),
            delta: ser,
        };
        let decoded = decode_record(encode_record(&rec, 7).as_bytes()).unwrap();
        assert_eq!(decoded.lsn, 7);
        let WalRecord::Prepared { delta, .. } = decoded.record else {
            panic!()
        };

        let restored = deserialize_pul(&docs, &delta).unwrap();
        let before = xqeval::pul::apply_updates(&pul).unwrap();
        let after = xqeval::pul::apply_updates(&restored).unwrap();
        assert_eq!(before.len(), after.len());
        let opts = Default::default();
        assert_eq!(
            xmldom::serialize_document(&before[0].new, &opts),
            xmldom::serialize_document(&after[0].new, &opts),
            "recovered PUL must produce the identical document"
        );
    }

    #[test]
    fn pul_serialization_rejects_uriless_doc() {
        let d = Arc::new(xmldom::parse("<a/>").unwrap());
        let target = NodeHandle::new(d.clone(), d.first_child(d.root()).unwrap());
        let mut pul = PendingUpdateList::new();
        pul.push(UpdatePrimitive::Delete { target });
        assert!(serialize_pul(&pul).is_err());
    }

    /// DESIGN.md's "Observability" catalogue names every histogram family
    /// the peer and its log expose: a family added to either table without
    /// a word there fails here.
    #[test]
    fn the_observability_catalogue_names_every_histogram_family() {
        let design = include_str!("../../../DESIGN.md");
        let section = design
            .split_once("\n## Observability\n")
            .and_then(|(_, rest)| rest.split("\n## ").next())
            .expect("DESIGN.md has an Observability section");
        let p = tmp("catalogue");
        let (wal, _) = Wal::open(&p, FsyncPolicy::Never).unwrap();
        let peer = crate::peer::PeerHistograms::default();
        let families = peer.families().map(|(name, _)| name);
        for name in families
            .into_iter()
            .chain(wal.histograms().map(|(name, _)| name))
        {
            assert!(section.contains(name), "`{name}` is not in the catalogue");
        }
        cleanup(&p);
    }
}
