//! Repeatable-read isolation state (paper §2.2).
//!
//! A peer that receives a request tagged with a `queryID` pins an
//! immutable snapshot of its document store for that query — the
//! shadow-paging analog: documents and the map of them are `Arc`s, so a
//! snapshot is one refcount bump. The snapshot lives until its *relative*
//! timeout expires; expired queryIDs are remembered (latest timestamp per
//! origin host, exactly the bookkeeping trick the paper describes) so that
//! late requests get an error instead of silently reading fresh state.

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdm::{XdmError, XdmResult};
use xmldom::Document;
use xqeval::context::DocResolver;
use xqeval::pul::PendingUpdateList;
use xrpc_proto::QueryId;

/// The 2PC outcome a participant recorded for a finished query. Retained
/// (bounded) so redelivered Commit/Abort control messages — the decision
/// retry path of the hardened coordinator — can be answered idempotently
/// instead of erroring on the missing snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    Committed,
    Aborted,
}

/// How many finished-query decisions a peer remembers for redelivery.
const COMPLETED_CAP: usize = 4096;

/// Where a query stands in 2PC at this peer — one participant's life (see
/// `txn`, whose table is the only thing that moves it).
#[derive(Debug, Clone, PartialEq)]
pub enum TxnState {
    /// Pinned; ∆_q may still grow.
    Open,
    /// ∆_q is promised: logged (under `lsn`, the mark its apply is guarded
    /// by — `None` without a WAL) and held until `coordinator` decides or
    /// answers an inquiry. `at` is what the recovery sweeper ages by.
    Prepared {
        lsn: Option<u64>,
        at: Instant,
        coordinator: String,
    },
    /// Settled; the snapshot is about to be released.
    Decided(Decision),
}

/// Per-query isolated state at one peer.
pub struct QuerySnapshot {
    /// The query this snapshot isolates. `qid.host` doubles as the
    /// coordinator address a recovering participant sends `Inquire` to.
    pub qid: QueryId,
    pub docs: DocMap,
    pub deadline: Instant,
    /// Deferred pending update lists (rule R'Fu): ∆_q = ∪ ∆_q(i).
    pub pul: Mutex<PendingUpdateList>,
    /// 2PC state. Held across a whole edge (log, apply, marker), so a
    /// concurrently redelivered Commit waits and then finds the decision
    /// instead of applying ∆_q a second time.
    pub state: Mutex<TxnState>,
    /// Deferred-update requests whose ∆ was already merged into
    /// [`pul`](Self::pul), keyed by request hash and mapped to the
    /// participating-peer set of the original response — the at-most-once
    /// guard that makes transport redelivery of deferred updates safe (a
    /// double merge would either double-insert or trip XQUF compatibility
    /// at Prepare). Recorded only after the merge *succeeded*, so a
    /// redelivered request that previously faulted re-evaluates instead of
    /// being masked as success; the stored peer set lets the replayed
    /// response carry the same 2PC participants the lost original did.
    pub merged_requests: Mutex<HashMap<u64, Vec<String>>>,
}

impl QuerySnapshot {
    /// A resolver view over this snapshot.
    pub fn resolver(self: &Arc<Self>) -> Arc<SnapshotResolver> {
        Arc::new(SnapshotResolver {
            snapshot: self.clone(),
        })
    }
}

/// `fn:doc` resolution pinned to a snapshot.
pub struct SnapshotResolver {
    snapshot: Arc<QuerySnapshot>,
}

impl DocResolver for SnapshotResolver {
    fn resolve(&self, uri: &str) -> XdmResult<Arc<Document>> {
        self.snapshot
            .docs
            .get(uri)
            .cloned()
            .ok_or_else(|| XdmError::doc_error(format!("document not found in snapshot: `{uri}`")))
    }
}

type QidKey = (String, u64);

/// The document store as one query sees it: the map
/// `InMemoryDocs::snapshot` hands out.
pub type DocMap = Arc<HashMap<String, Arc<Document>>>;

/// All isolated query states at one peer.
pub struct SnapshotManager {
    active: Mutex<HashMap<QidKey, Arc<QuerySnapshot>>>,
    /// The earliest deadline among the snapshots pinned since [`gc`] last
    /// looked (`None` = nothing can have expired): requests skip the scan
    /// until it has passed.
    ///
    /// [`gc`]: Self::gc
    next_expiry: Mutex<Option<Instant>>,
    /// host → latest *expired* origin timestamp (paper: "per host only the
    /// latest timestamp needs to be retained").
    expired: Mutex<HashMap<String, u64>>,
    /// Decisions of finished queries, FIFO-bounded at [`COMPLETED_CAP`].
    completed: Mutex<(HashMap<QidKey, Decision>, VecDeque<QidKey>)>,
}

impl SnapshotManager {
    pub fn new() -> Self {
        SnapshotManager {
            active: Mutex::new(HashMap::new()),
            next_expiry: Mutex::new(None),
            expired: Mutex::new(HashMap::new()),
            completed: Mutex::new((HashMap::new(), VecDeque::new())),
        }
    }

    fn key(qid: &QueryId) -> QidKey {
        (qid.host.clone(), qid.timestamp_millis)
    }

    /// Get (or pin, on the query's first request here) the snapshot for
    /// `qid`. `current` supplies the database state to pin.
    pub fn get_or_pin(
        &self,
        qid: &QueryId,
        current: impl FnOnce() -> DocMap,
    ) -> XdmResult<Arc<QuerySnapshot>> {
        if (*self.next_expiry.lock()).is_some_and(|t| t <= Instant::now()) {
            self.gc();
        }
        let key = Self::key(qid);
        // Too late? (the queryID already expired here)
        if let Some(&latest) = self.expired.lock().get(&qid.host) {
            if qid.timestamp_millis <= latest && !self.active.lock().contains_key(&key) {
                return Err(XdmError::xrpc_expired(format!(
                    "queryID {}@{} has expired at this peer",
                    qid.host, qid.timestamp_millis
                )));
            }
        }
        if let Some(s) = self.active.lock().get(&key) {
            return Ok(s.clone());
        }
        Ok(self.pin(qid, current(), PendingUpdateList::new(), TxnState::Open))
    }

    /// Pin a snapshot over `docs` holding `pul` in `state`. Besides
    /// [`get_or_pin`](Self::get_or_pin), restart recovery calls this to
    /// re-enter `Prepared` from a WAL record: no expired-queryID check (the
    /// log is authoritative — this peer promised to hold the ∆ until a
    /// decision arrives) and a fresh deadline window for the inquiry to
    /// resolve in.
    pub fn pin(
        &self,
        qid: &QueryId,
        docs: DocMap,
        pul: PendingUpdateList,
        state: TxnState,
    ) -> Arc<QuerySnapshot> {
        let deadline = Instant::now() + Duration::from_secs(qid.timeout_secs as u64);
        let snapshot = Arc::new(QuerySnapshot {
            qid: qid.clone(),
            docs,
            deadline,
            pul: Mutex::new(pul),
            state: Mutex::new(state),
            merged_requests: Mutex::new(HashMap::new()),
        });
        // two first requests of one query may race here: the first pin wins
        let snapshot = (self.active.lock())
            .entry(Self::key(qid))
            .or_insert(snapshot)
            .clone();
        let mut next = self.next_expiry.lock();
        *next = Some(next.map_or(deadline, |t| t.min(deadline)));
        snapshot
    }

    /// Snapshots that are prepared but have heard no decision for at least
    /// `min_age` — the in-doubt transactions the sweeper re-inquires about.
    pub fn prepared_undecided(&self, min_age: Duration) -> Vec<Arc<QuerySnapshot>> {
        self.active
            .lock()
            .values()
            .filter(|s| {
                matches!(&*s.state.lock(), TxnState::Prepared { at, .. } if at.elapsed() >= min_age)
            })
            .cloned()
            .collect()
    }

    /// Fetch an existing snapshot (2PC Prepare/Commit path — never pins).
    pub fn get(&self, qid: &QueryId) -> XdmResult<Arc<QuerySnapshot>> {
        let held = self.active.lock().get(&Self::key(qid)).cloned();
        held.ok_or_else(|| Self::no_state(qid))
    }

    /// The answer to a message for a query this peer holds nothing of.
    pub(crate) fn no_state(qid: &QueryId) -> XdmError {
        XdmError::xrpc_expired(format!(
            "no isolated state for queryID {}@{}",
            qid.host, qid.timestamp_millis
        ))
    }

    /// Drop a query's state, recording `decision` for idempotent replies
    /// to redelivered control messages.
    pub fn finish_with(&self, qid: &QueryId, decision: Decision) {
        let key = Self::key(qid);
        self.active.lock().remove(&key);
        Self::expire(&mut self.expired.lock(), &qid.host, qid.timestamp_millis);
        let mut completed = self.completed.lock();
        let (map, order) = &mut *completed;
        if map.insert(key.clone(), decision).is_none() {
            order.push_back(key);
            while order.len() > COMPLETED_CAP {
                if let Some(old) = order.pop_front() {
                    map.remove(&old);
                }
            }
        }
    }

    /// The recorded decision for a finished query, if still remembered.
    pub fn completed_decision(&self, qid: &QueryId) -> Option<Decision> {
        self.completed.lock().0.get(&Self::key(qid)).copied()
    }

    /// Expire snapshots whose timeout passed, freeing their resources.
    /// Prepared-but-undecided snapshots are exempt: a participant that
    /// acknowledged Prepare promised to hold its ∆_q until the coordinator
    /// decides (or an inquiry resolves it) — dropping it on timeout could
    /// silently lose a committed update. That blocking is the price of 2PC.
    pub fn gc(&self) {
        let now = Instant::now();
        let mut active = self.active.lock();
        let mut dead: Vec<QidKey> = Vec::new();
        let mut next: Option<Instant> = None;
        for (k, s) in active.iter() {
            if s.deadline > now {
                next = Some(next.map_or(s.deadline, |t| t.min(s.deadline)));
            } else if !matches!(&*s.state.lock(), TxnState::Prepared { .. }) {
                dead.push(k.clone());
            }
        }
        *self.next_expiry.lock() = next;
        if dead.is_empty() {
            return;
        }
        let mut expired = self.expired.lock();
        for k in dead {
            active.remove(&k);
            Self::expire(&mut expired, &k.0, k.1);
        }
    }

    /// Mark `host`'s queries up to `ts` expired — never past this peer's
    /// clock: one queryID stamped ahead of it (skew, a replayed request)
    /// must not refuse its host's queries until the clock catches up.
    fn expire(expired: &mut HashMap<String, u64>, host: &str, ts: u64) {
        let latest = expired.entry(host.to_string()).or_insert(0);
        *latest = (*latest).max(ts.min(crate::now_millis()));
    }

    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }
}

impl Default for SnapshotManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldom::parse;

    fn docs_v(label: &str) -> DocMap {
        let mut m = HashMap::new();
        m.insert(
            "db.xml".to_string(),
            Arc::new(parse(&format!("<v>{label}</v>")).unwrap()),
        );
        Arc::new(m)
    }

    fn qid(ts: u64, timeout: u32) -> QueryId {
        QueryId::new("origin.example.org", ts, timeout)
    }

    #[test]
    fn snapshot_pinned_on_first_request() {
        let mgr = SnapshotManager::new();
        let q = qid(100, 30);
        let s1 = mgr.get_or_pin(&q, || docs_v("one")).unwrap();
        // second request of the same query must NOT re-pin
        let s2 = mgr.get_or_pin(&q, || docs_v("two")).unwrap();
        assert!(Arc::ptr_eq(&s1, &s2));
        let d = s2.resolver().resolve("db.xml").unwrap();
        assert_eq!(d.string_value(d.root()), "one");
    }

    #[test]
    fn different_queries_get_different_snapshots() {
        let mgr = SnapshotManager::new();
        let s1 = mgr.get_or_pin(&qid(1, 30), || docs_v("a")).unwrap();
        let s2 = mgr.get_or_pin(&qid(2, 30), || docs_v("b")).unwrap();
        assert!(!Arc::ptr_eq(&s1, &s2));
        assert_eq!(mgr.active_count(), 2);
    }

    #[test]
    fn finished_query_id_rejected_later() {
        let mgr = SnapshotManager::new();
        let q = qid(100, 30);
        mgr.get_or_pin(&q, || docs_v("x")).unwrap();
        mgr.finish_with(&q, Decision::Aborted);
        let err = mgr.get_or_pin(&q, || docs_v("y")).map(|_| ()).unwrap_err();
        assert_eq!(err.code, "XRPC0002");
        // an *older* query from the same host is also rejected
        let err2 = mgr
            .get_or_pin(&qid(50, 30), || docs_v("z"))
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err2.code, "XRPC0002");
        // but a newer one is fine
        assert!(mgr.get_or_pin(&qid(200, 30), || docs_v("w")).is_ok());
    }

    #[test]
    fn a_query_stamped_ahead_of_the_clock_does_not_expire_its_host() {
        let mgr = SnapshotManager::new();
        let ahead = qid(crate::now_millis() + 3_600_000, 30);
        mgr.get_or_pin(&ahead, || docs_v("x")).unwrap();
        mgr.finish_with(&ahead, Decision::Committed);
        // the host's queries stamped from now on still pin; older ones do not
        let now = qid(crate::now_millis() + 1, 30);
        assert!(mgr.get_or_pin(&now, || docs_v("y")).is_ok());
        let older = mgr.get_or_pin(&qid(1, 30), || docs_v("z"));
        assert_eq!(older.map(|_| ()).unwrap_err().code, "XRPC0002");
    }

    #[test]
    fn timeout_expires_snapshot() {
        let mgr = SnapshotManager::new();
        let q = qid(100, 0); // zero-second timeout: expires immediately
        mgr.get_or_pin(&q, || docs_v("x")).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        mgr.gc();
        assert_eq!(mgr.active_count(), 0);
        let err = mgr.get_or_pin(&q, || docs_v("y")).map(|_| ()).unwrap_err();
        assert_eq!(err.code, "XRPC0002");
    }

    #[test]
    fn snapshot_isolated_from_store_updates() {
        let mgr = SnapshotManager::new();
        let q = qid(100, 30);
        let s = mgr.get_or_pin(&q, || docs_v("before")).unwrap();
        // the "store" moves on; the snapshot must not
        let d = s.resolver().resolve("db.xml").unwrap();
        assert_eq!(d.string_value(d.root()), "before");
        assert!(s.resolver().resolve("other.xml").is_err());
    }

    #[test]
    fn get_without_pin_fails() {
        let mgr = SnapshotManager::new();
        assert_eq!(
            mgr.get(&qid(1, 30)).map(|_| ()).unwrap_err().code,
            "XRPC0002"
        );
    }

    #[test]
    fn decision_remembered_after_finish() {
        let mgr = SnapshotManager::new();
        let q = qid(100, 30);
        mgr.get_or_pin(&q, || docs_v("x")).unwrap();
        assert_eq!(mgr.completed_decision(&q), None);
        mgr.finish_with(&q, Decision::Committed);
        assert_eq!(mgr.completed_decision(&q), Some(Decision::Committed));
    }

    #[test]
    fn completed_map_is_bounded() {
        let mgr = SnapshotManager::new();
        for ts in 0..(super::COMPLETED_CAP as u64 + 10) {
            mgr.finish_with(&qid(ts, 30), Decision::Committed);
        }
        // the oldest entries were evicted, the newest retained
        assert_eq!(mgr.completed_decision(&qid(0, 30)), None);
        assert_eq!(
            mgr.completed_decision(&qid(super::COMPLETED_CAP as u64 + 9, 30)),
            Some(Decision::Committed)
        );
    }
}
