//! Restart recovery for the durable 2PC layer (see `wal`).
//!
//! A peer that crashes holding coordination state recovers in two steps:
//!
//! 1. **Replay** ([`Peer::attach_wal`]): fold the surviving WAL records
//!    into per-transaction state. Prepared-but-undecided transactions
//!    re-enter prepared snapshots (their ∆_q deserialized against the
//!    durable store); decided-but-unapplied committed ∆s are re-applied
//!    immediately; coordinator commit records without a matching end are
//!    queued for decision redelivery.
//! 2. **Resolution** ([`Peer::resolve_in_doubt`]): every in-doubt
//!    transaction sends a WS-AT `Inquire` to its recorded coordinator.
//!    `Committed` applies the held ∆; `Aborted` — or, per presumed abort,
//!    a coordinator with *no record* of the transaction — releases it;
//!    `InDoubt` (or an unreachable coordinator) leaves it prepared for a
//!    later round. Recovered commit decisions are redelivered to their
//!    participants, then retired with a `CoordinatorEnd`.
//!
//! A background sweeper ([`Peer::start_recovery_sweeper`]) re-runs
//! resolution for prepared transactions older than a configured age, so
//! an in-doubt participant converges even when the coordinator only comes
//! back long after the participant did.

use crate::client::XrpcClient;
use crate::peer::{Peer, RedeliverEntry, TxKey};
use crate::store::{Decision, QuerySnapshot};
use crate::twopc::{self, METHOD_INQUIRE};
use crate::wal::{self, FsyncPolicy, SerializedPrimitive, Wal, WalConfig, WalRecord};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xdm::XdmResult;
use xrpc_obs::{trace_id_from, TraceContext};
use xrpc_proto::{QueryId, TxOutcome};

/// What one recovery (or resolution) pass accomplished.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The log's tail was torn or CRC-damaged (and truncated away);
    /// recovery proceeded from the last intact record.
    pub tail_damaged: bool,
    /// Prepared-but-undecided transactions re-entered from the log.
    pub restored_prepared: usize,
    /// Committed ∆s whose decision was logged but not yet applied at the
    /// crash, re-applied during replay.
    pub reapplied: usize,
    /// In-doubt transactions an inquiry resolved to commit.
    pub resolved_committed: usize,
    /// In-doubt transactions resolved to abort (including presumed abort).
    pub resolved_aborted: usize,
    /// In-doubt transactions still unresolved after this pass.
    pub still_in_doubt: usize,
    /// Recovered coordinator decisions fully redelivered and retired.
    pub redelivered: usize,
    /// Re-driven applies the applied-LSN mark proved already done (the
    /// crash fell between `applyUpdates` and the `Applied` marker) and
    /// therefore skipped instead of double-applying.
    pub lsn_skips: usize,
    /// Coordinations that died undecided whose participants were
    /// proactively re-told to abort (and the begin record retired).
    pub reaborted: usize,
}

impl RecoveryReport {
    /// Fold a resolution pass into this (replay) report.
    pub fn absorb(&mut self, other: RecoveryReport) {
        self.tail_damaged |= other.tail_damaged;
        self.restored_prepared += other.restored_prepared;
        self.reapplied += other.reapplied;
        self.resolved_committed += other.resolved_committed;
        self.resolved_aborted += other.resolved_aborted;
        self.still_in_doubt = other.still_in_doubt;
        self.redelivered += other.redelivered;
        self.lsn_skips += other.lsn_skips;
        self.reaborted += other.reaborted;
    }
}

/// Background re-inquiry cadence.
#[derive(Debug, Clone, Copy)]
pub struct SweeperConfig {
    /// How often the sweeper wakes up.
    pub interval: Duration,
    /// Only prepared transactions at least this old are re-inquired —
    /// young ones are normally still being driven by a live coordinator.
    pub min_age: Duration,
}

impl Default for SweeperConfig {
    fn default() -> Self {
        SweeperConfig {
            interval: Duration::from_secs(5),
            min_age: Duration::from_secs(10),
        }
    }
}

/// A running recovery sweeper. Dropping (or calling
/// [`stop`](SweeperHandle::stop)) stops and joins the thread; the sweeper
/// holds only a `Weak<Peer>`, so it also dies with its peer.
pub struct SweeperHandle {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl SweeperHandle {
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for SweeperHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Per-transaction fold of the replayed records.
#[derive(Default)]
struct TxReplay {
    qid: Option<QueryId>,
    prepared: Option<(String, Vec<SerializedPrimitive>)>,
    /// LSN of the `Prepared` record — the mark its apply is guarded by.
    prepared_lsn: Option<u64>,
    decision: Option<Decision>,
    applied: bool,
    /// Highest mark carried by a replayed `Applied` record; re-seeds the
    /// document store's applied-LSN table.
    applied_mark: u64,
    coordinator_begin: Option<Vec<String>>,
    coordinator_commit: Option<Vec<String>>,
    coordinator_end: bool,
}

impl Peer {
    /// Open (creating if absent) the WAL at `path`, replay it, and
    /// re-enter the durable coordination state it records. Subsequent
    /// Prepare acks and commit decisions at this peer are forced to the
    /// log. Call [`resolve_in_doubt`](Self::resolve_in_doubt) afterwards
    /// (once transports are wired) to chase outcomes over the network.
    pub fn attach_wal(
        self: &Arc<Self>,
        path: impl AsRef<Path>,
        fsync: FsyncPolicy,
    ) -> XdmResult<RecoveryReport> {
        self.attach_wal_with(
            path,
            WalConfig {
                fsync,
                ..WalConfig::default()
            },
        )
    }

    /// [`attach_wal`](Self::attach_wal) with full control over group
    /// commit and segment rotation.
    pub fn attach_wal_with(
        self: &Arc<Self>,
        path: impl AsRef<Path>,
        config: WalConfig,
    ) -> XdmResult<RecoveryReport> {
        let (log, replay) = Wal::open_with(path, config)?;
        log.set_observers(
            self.obs.histogram("xrpc_wal_append_micros"),
            self.obs.histogram("xrpc_wal_fsync_micros"),
            self.obs.histogram("xrpc_wal_group_batch"),
        );
        if let Some(sw) = self.crash_switch.read().as_ref() {
            log.set_crash_switch(sw.clone());
        }
        *self.wal.write() = Some(log.clone());

        let mut order: Vec<(String, u64)> = Vec::new();
        let mut txs: HashMap<(String, u64), TxReplay> = HashMap::new();
        for sr in &replay.records {
            let q = sr.record.qid();
            let key = (q.host.clone(), q.timestamp_millis);
            let tx = txs.entry(key.clone()).or_insert_with(|| {
                order.push(key.clone());
                TxReplay::default()
            });
            tx.qid.get_or_insert_with(|| q.clone());
            match &sr.record {
                WalRecord::Prepared {
                    coordinator, delta, ..
                } => {
                    tx.prepared = Some((coordinator.clone(), delta.clone()));
                    tx.prepared_lsn = Some(sr.lsn).filter(|l| *l > 0);
                }
                WalRecord::Decision { decision, .. } => tx.decision = Some(*decision),
                WalRecord::Applied { mark, .. } => {
                    tx.applied = true;
                    tx.applied_mark = tx.applied_mark.max(*mark);
                }
                WalRecord::CoordinatorBegin { participants, .. } => {
                    tx.coordinator_begin = Some(participants.clone())
                }
                WalRecord::CoordinatorCommit { participants, .. } => {
                    tx.coordinator_commit = Some(participants.clone())
                }
                WalRecord::CoordinatorEnd { .. } => tx.coordinator_end = true,
            }
        }

        let mut report = RecoveryReport {
            tail_damaged: replay.tail_damaged,
            ..Default::default()
        };
        for key in order {
            let tx = txs.remove(&key).expect("folded above");
            let qid = tx.qid.expect("every record carries a qid");

            // Re-seed the store's applied-LSN mark from the replayed
            // marker before any re-apply decision consults it.
            if tx.applied_mark > 0 {
                self.docs
                    .set_applied_mark(&Self::mark_key(&qid), tx.applied_mark);
            }

            // Coordinator role: a logged commit decision is the truth
            // `Inquire` answers from; one without an end record still owes
            // its participants a delivery.
            if let Some(parts) = tx.coordinator_commit {
                self.coord_committed
                    .lock()
                    .insert(key.clone(), parts.clone());
                if !tx.coordinator_end {
                    self.coord_redeliver
                        .lock()
                        .insert(key.clone(), (qid.clone(), parts));
                }
            } else if let Some(parts) = tx.coordinator_begin {
                // A coordination that began but never reached a durable
                // decision: presumed abort. Queue its participants for
                // the proactive re-abort sweep so their prepared ∆s
                // release without waiting for their own inquiries.
                if !tx.coordinator_end {
                    self.coord_reabort
                        .lock()
                        .insert(key.clone(), (qid.clone(), parts));
                }
            }

            // Participant role.
            if let Some((coordinator, delta)) = tx.prepared {
                match tx.decision {
                    Some(Decision::Committed) if !tx.applied => {
                        // decided but killed before applyUpdates: finish
                        // the job now, directly from the log. The mark
                        // makes this idempotent — if the crash fell after
                        // the apply but before the marker, skip.
                        let pul = wal::deserialize_pul(&self.docs, &delta)?;
                        if !self.apply_pul_marked(&pul, &qid, tx.prepared_lsn)? {
                            report.lsn_skips += 1;
                        }
                        self.log_applied(&log, &qid, tx.prepared_lsn.unwrap_or(0))?;
                        self.snapshots.finish_with(&qid, Decision::Committed);
                        report.reapplied += 1;
                        self.twopc_metrics
                            .recoveries
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    Some(d) => {
                        // fully settled; remember the decision so a
                        // redelivered control message answers idempotently
                        self.snapshots.finish_with(&qid, d);
                    }
                    None => {
                        // the in-doubt case: re-enter prepared state and
                        // remember who to ask
                        let pul = wal::deserialize_pul(&self.docs, &delta)?;
                        self.snapshots.restore_prepared(
                            &qid,
                            self.docs.snapshot(),
                            pul,
                            tx.prepared_lsn,
                        );
                        self.recovered_coordinators
                            .lock()
                            .insert(key.clone(), coordinator);
                        report.restored_prepared += 1;
                    }
                }
            }
        }
        Ok(report)
    }

    /// Resolve every in-doubt transaction and redeliver every recovered
    /// coordinator decision, now. Equivalent to
    /// [`resolve_in_doubt_older_than`](Self::resolve_in_doubt_older_than)
    /// with a zero age.
    pub fn resolve_in_doubt(self: &Arc<Self>) -> XdmResult<RecoveryReport> {
        self.resolve_in_doubt_older_than(Duration::ZERO)
    }

    /// One resolution pass over prepared transactions at least `min_age`
    /// old (and all pending coordinator redeliveries). Unresolvable
    /// transactions (coordinator unreachable or still in doubt) stay
    /// prepared and are counted, not errored — the sweeper tries again.
    pub fn resolve_in_doubt_older_than(
        self: &Arc<Self>,
        min_age: Duration,
    ) -> XdmResult<RecoveryReport> {
        let mut report = RecoveryReport::default();
        let Some(transport) = self.transport() else {
            return Ok(report);
        };
        let mut client = XrpcClient::new(transport);
        client.obs = Some(self.obs.clone());
        let _tracer = xrpc_obs::set_current_tracer(Some(self.obs.tracer.clone()));

        // Participant role: ask each recorded coordinator what it decided.
        for snap in self.snapshots.prepared_undecided(min_age) {
            let qid = snap.qid.clone();
            // Recovery work re-enters the crashed transaction's trace: the
            // id is a pure function of the queryID, so spans emitted here
            // join the spans recorded before the crash.
            let mut span = self.obs.tracer.span(
                "recovery:inquire",
                TraceContext {
                    trace_id: trace_id_from(&qid.host, qid.timestamp_millis),
                    span_id: self.obs.tracer.next_span_id(),
                    parent_id: None,
                },
            );
            let key = (qid.host.clone(), qid.timestamp_millis);
            let coordinator = self
                .recovered_coordinators
                .lock()
                .get(&key)
                .cloned()
                .unwrap_or_else(|| qid.host.clone());
            span.tag("coordinator", &coordinator);
            let outcome = if coordinator == self.name() {
                // self-coordinated ∆ (an originator's local update):
                // answer the inquiry from our own decision map
                Some(self.coordinator_outcome(&qid))
            } else {
                client
                    .send_control_with_reply(&coordinator, METHOD_INQUIRE, &qid)
                    .ok()
                    .and_then(|resp| TxOutcome::from_response(&resp))
            };
            span.tag(
                "outcome",
                match outcome {
                    Some(o) => format!("{o:?}"),
                    None => "unreachable".into(),
                },
            );
            match outcome {
                Some(TxOutcome::Committed) => {
                    if !self.commit_recovered(&snap)? {
                        report.lsn_skips += 1;
                    }
                    report.resolved_committed += 1;
                    self.twopc_metrics
                        .recoveries
                        .fetch_add(1, Ordering::Relaxed);
                }
                Some(TxOutcome::Aborted) => {
                    if let Some(w) = self.wal() {
                        w.append(&WalRecord::Decision {
                            qid: qid.clone(),
                            decision: Decision::Aborted,
                        })?;
                    }
                    self.snapshots.finish_with(&qid, Decision::Aborted);
                    report.resolved_aborted += 1;
                    self.twopc_metrics
                        .recoveries
                        .fetch_add(1, Ordering::Relaxed);
                }
                Some(TxOutcome::InDoubt) | None => report.still_in_doubt += 1,
            }
        }

        // Coordinator role: redeliver recovered commit decisions.
        let pending: Vec<(TxKey, RedeliverEntry)> = self
            .coord_redeliver
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let config = *self.twopc_config.read();
        for (key, (qid, parts)) in pending {
            let mut span = self.obs.tracer.span(
                "recovery:redeliver",
                TraceContext {
                    trace_id: trace_id_from(&qid.host, qid.timestamp_millis),
                    span_id: self.obs.tracer.next_span_id(),
                    parent_id: None,
                },
            );
            let own = self.name();
            let mut all_acked = true;
            for p in parts.iter().filter(|p| **p != own) {
                if twopc::deliver_decision(
                    &client,
                    p,
                    twopc::METHOD_COMMIT,
                    &qid,
                    &config,
                    Some(&self.twopc_metrics),
                )
                .is_err()
                {
                    all_acked = false;
                    self.twopc_metrics.hazards.fetch_add(1, Ordering::Relaxed);
                }
            }
            span.tag("delivered", if all_acked { "all" } else { "partial" });
            if all_acked {
                if let Some(w) = self.wal() {
                    w.append(&WalRecord::CoordinatorEnd { qid: qid.clone() })?;
                }
                // `coord_committed` keeps the entry: a local ∆ of the same
                // transaction may still be waiting to ask about it
                self.coord_redeliver.lock().remove(&key);
                report.redelivered += 1;
                self.twopc_metrics
                    .recoveries
                    .fetch_add(1, Ordering::Relaxed);
            }
        }

        // Coordinator role: the re-abort sweep. Coordinations that died
        // before a durable decision are aborted by presumption already —
        // proactively re-tell the participants so their prepared ∆s (and
        // locks) release now instead of at their next inquiry.
        let pending: Vec<(TxKey, RedeliverEntry)> = self
            .coord_reabort
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for (key, (qid, parts)) in pending {
            let mut span = self.obs.tracer.span(
                "recovery:reabort",
                TraceContext {
                    trace_id: trace_id_from(&qid.host, qid.timestamp_millis),
                    span_id: self.obs.tracer.next_span_id(),
                    parent_id: None,
                },
            );
            let own = self.name();
            let mut all_acked = true;
            for p in parts.iter().filter(|p| **p != own) {
                if twopc::deliver_decision(
                    &client,
                    p,
                    twopc::METHOD_ABORT,
                    &qid,
                    &config,
                    Some(&self.twopc_metrics),
                )
                .is_err()
                {
                    all_acked = false;
                }
            }
            span.tag("delivered", if all_acked { "all" } else { "partial" });
            if all_acked {
                if let Some(w) = self.wal() {
                    // unforced: the begin record it retires was advisory,
                    // and absence of a commit record is already the
                    // durable abort decision
                    let _ = w.append_nosync(&WalRecord::CoordinatorEnd { qid: qid.clone() });
                }
                self.coord_reabort.lock().remove(&key);
                report.reaborted += 1;
                self.twopc_metrics.reaborts.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(report)
    }

    /// Commit a recovered prepared snapshot: the decision/apply/applied
    /// discipline of the live `Commit` handler, driven by an inquiry
    /// answer instead of a decision message. Returns whether the ∆ was
    /// actually applied (`false` = the applied-LSN mark skipped it).
    fn commit_recovered(&self, snap: &Arc<QuerySnapshot>) -> XdmResult<bool> {
        let qid = &snap.qid;
        let mut applied = true;
        let mut decided = snap.decided.lock();
        if decided.is_none() {
            if let Some(w) = self.wal() {
                w.append(&WalRecord::Decision {
                    qid: qid.clone(),
                    decision: Decision::Committed,
                })?;
            }
            let pul = snap.pul.lock().clone();
            let mark = *snap.prepared_lsn.lock();
            applied = self.apply_pul_marked(&pul, qid, mark)?;
            *decided = Some(Decision::Committed);
            if let Some(w) = self.wal() {
                self.log_applied(&w, qid, mark.unwrap_or(0))?;
            }
            self.twopc_metrics.commits.fetch_add(1, Ordering::Relaxed);
        }
        drop(decided);
        self.snapshots.finish_with(qid, Decision::Committed);
        Ok(applied)
    }

    /// Start the background sweeper: every `interval` it re-resolves
    /// prepared transactions older than `min_age` and retries pending
    /// decision redeliveries. Holds only a weak reference, so it exits on
    /// its own when the peer is dropped; stop it earlier via the handle.
    pub fn start_recovery_sweeper(self: &Arc<Self>, config: SweeperConfig) -> SweeperHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let weak = Arc::downgrade(self);
        let flag = stop.clone();
        let handle = std::thread::spawn(move || loop {
            // sleep in short slices so stop/join stays responsive
            let mut slept = Duration::ZERO;
            while slept < config.interval {
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                let step = config.interval.min(Duration::from_millis(20));
                std::thread::sleep(step);
                slept += step;
            }
            let Some(peer) = weak.upgrade() else { return };
            // a "crashed" peer (chaos harness) must not act post-mortem
            let down = peer
                .crash_switch
                .read()
                .as_ref()
                .is_some_and(|s| s.is_down());
            if !down {
                let _ = peer.resolve_in_doubt_older_than(config.min_age);
            }
        });
        SweeperHandle {
            stop,
            handle: Some(handle),
        }
    }
}

#[cfg(test)]
mod tests {
    //! The forces the commit path no longer makes: what a crash leaves on
    //! disk without them, and that replaying it settles nothing twice.

    use super::*;
    use crate::peer::EngineKind;
    use crate::wal::{NodePath, PathStep};
    use std::path::{Path, PathBuf};
    use xqeval::InMemoryDocs;

    const URI: &str = "xrpc://b.example.org";

    fn forced() -> WalConfig {
        WalConfig {
            fsync: FsyncPolicy::Always,
            group_commit: true,
            ..WalConfig::default()
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xrpc-recovery-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// What the disk holds right now: the segment files as they are, without
    /// whatever the live log still keeps in memory.
    fn crash_image(of: &Path, name: &str) -> PathBuf {
        let image = scratch(name);
        std::fs::create_dir_all(&image).unwrap();
        for entry in std::fs::read_dir(of).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), image.join(entry.file_name())).unwrap();
        }
        image
    }

    fn store() -> Arc<InMemoryDocs> {
        let docs = Arc::new(InMemoryDocs::new());
        let doc = xmldom::parse_with_uri("<log><e>0</e></log>", "log.xml").unwrap();
        docs.insert("log.xml", doc);
        docs
    }

    fn counter(docs: &InMemoryDocs) -> String {
        let doc = docs.get("log.xml").unwrap();
        doc.string_value(doc.root())
    }

    fn qid(n: u64) -> QueryId {
        QueryId::new("xrpc://origin.example.org", 7_000 + n, 30)
    }

    fn prepared(n: u64, value: &str) -> WalRecord {
        WalRecord::Prepared {
            qid: qid(n),
            coordinator: "xrpc://origin.example.org".into(),
            delta: vec![SerializedPrimitive::ReplaceValue {
                target: NodePath {
                    doc_uri: "log.xml".into(),
                    steps: vec![PathStep::Child(0), PathStep::Child(0)],
                },
                value: value.into(),
            }],
        }
    }

    /// The participant's commit path for transaction `n`, up to and
    /// including the apply; returns the mark its `Applied` record carries.
    fn commit_up_to_apply(peer: &Peer, log: &Wal, n: u64, value: &str) -> u64 {
        let record = prepared(n, value);
        let lsn = log.append(&record).unwrap();
        log.append(&WalRecord::Decision {
            qid: qid(n),
            decision: Decision::Committed,
        })
        .unwrap();
        let WalRecord::Prepared { delta, .. } = record else {
            unreachable!()
        };
        let pul = wal::deserialize_pul(&peer.docs, &delta).unwrap();
        assert!(peer.apply_pul_marked(&pul, &qid(n), Some(lsn)).unwrap());
        lsn
    }

    fn kinds(records: &[wal::SequencedRecord]) -> Vec<&'static str> {
        (records.iter())
            .map(|sr| match sr.record {
                WalRecord::Prepared { .. } => "prepared",
                WalRecord::Decision { .. } => "decision",
                WalRecord::Applied { .. } => "applied",
                _ => "coordinator",
            })
            .collect()
    }

    #[test]
    fn an_applied_marker_lost_before_the_next_force_replays_to_a_no_op() {
        let dir = scratch("staged-applied");
        let docs = store();
        let live = Peer::new_with_docs(URI, EngineKind::Tree, docs.clone());
        live.attach_wal_with(&dir, forced()).unwrap();
        let log = live.wal().unwrap();
        // another transaction stays open, so the log cannot checkpoint
        log.append(&prepared(0, "never decided")).unwrap();
        let mark = commit_up_to_apply(&live, &log, 1, "1");
        let fsyncs = log.stats().fsyncs;
        live.log_applied(&log, &qid(1), mark).unwrap();
        assert_eq!(log.stats().fsyncs, fsyncs, "the marker is not forced");
        assert_eq!(counter(&docs), "1");

        // crash: the marker was staged, never written
        let (seen, image) = (crash_image(&dir, "staged-a"), crash_image(&dir, "staged-b"));
        let (_, replay) = Wal::open_with(&seen, forced()).unwrap();
        assert_eq!(kinds(&replay.records), ["prepared", "prepared", "decision"]);

        let restarted = Peer::new_with_docs(URI, EngineKind::Tree, docs.clone());
        let report = restarted.attach_wal_with(&image, forced()).unwrap();
        assert_eq!(report.reapplied, 1, "{report:?}");
        assert_eq!(report.lsn_skips, 1, "the mark stopped it: {report:?}");
        assert_eq!(report.restored_prepared, 1, "{report:?}");
        assert_eq!(counter(&docs), "1", "applied once");
        drop((live, log, restarted));
        for d in [dir, seen, image] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn a_checkpoint_that_never_reached_the_disk_replays_closed_records_to_a_no_op() {
        let dir = scratch("checkpoint");
        let docs = store();
        let live = Peer::new_with_docs(URI, EngineKind::Tree, docs.clone());
        live.attach_wal_with(&dir, forced()).unwrap();
        let log = live.wal().unwrap();
        let mark = commit_up_to_apply(&live, &log, 1, "1");
        // what the disk keeps if the checkpoint's zeros are lost: the marker
        // that triggers it is never written at all
        let zeros_lost = crash_image(&dir, "zeros-lost");
        let fsyncs = log.stats().fsyncs;
        live.log_applied(&log, &qid(1), mark).unwrap();
        assert_eq!(log.open_transactions(), 0);
        assert_eq!(log.stats().fsyncs, fsyncs, "the checkpoint does not flush");
        let zeros_kept = crash_image(&dir, "zeros-kept");
        // nothing durable says the old records are gone, so their mark stays
        let key = Peer::mark_key(&qid(1));
        assert_eq!(log.replay_floor(), 1);
        assert_eq!(docs.applied_mark(&key), Some(mark));

        let restart = |image: &Path| {
            let peer = Peer::new_with_docs(URI, EngineKind::Tree, docs.clone());
            let report = peer.attach_wal_with(image, forced()).unwrap();
            assert_eq!(counter(&docs), "1", "applied once: {report:?}");
            report
        };
        assert_eq!(restart(&zeros_kept), RecoveryReport::default());
        let report = restart(&zeros_lost);
        assert_eq!(
            (report.reapplied, report.lsn_skips),
            (1, 1),
            "re-driven and stopped by the mark: {report:?}"
        );

        // the next forced append carries the zeros to the disk; from then on
        // no replay can ask about transaction 1, and its mark goes
        let mark2 = commit_up_to_apply(&live, &log, 2, "2");
        assert!(log.replay_floor() > mark);
        live.log_applied(&log, &qid(2), mark2).unwrap();
        assert_eq!(docs.applied_mark(&key), None);
        assert_eq!(docs.applied_marks(), 1, "only the latest, not yet durable");
        drop((live, log));
        for d in [dir, zeros_lost, zeros_kept] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    /// XQUF §2.4.1: an attribute inserted before/after a node becomes an
    /// attribute of that node's parent. The log holds the update list, so
    /// the restarted peer's redo takes the same `apply_one` and must land
    /// where the live commit would have.
    #[test]
    fn an_attribute_inserted_beside_a_node_is_redone_onto_its_parent() {
        let dir = scratch("attribute-beside");
        let live = Peer::new_with_docs(URI, EngineKind::Tree, store());
        live.attach_wal_with(&dir, forced()).unwrap();
        let log = live.wal().unwrap();
        let env = xqeval::Environment::new(live.docs.clone());
        let (_, pul) = xqeval::evaluate_main(
            r#"(insert node attribute x {"1"} before doc("log.xml")/log/e,
                insert nodes (attribute y {"2"}, <f/>) after doc("log.xml")/log/e)"#,
            &env,
        )
        .unwrap();
        // decided, and the process gone before the apply
        log.append(&WalRecord::Prepared {
            qid: qid(1),
            coordinator: "xrpc://origin.example.org".into(),
            delta: wal::serialize_pul(&pul).unwrap(),
        })
        .unwrap();
        log.append(&WalRecord::Decision {
            qid: qid(1),
            decision: Decision::Committed,
        })
        .unwrap();
        drop((live, log));

        let docs = store();
        let restarted = Peer::new_with_docs(URI, EngineKind::Tree, docs.clone());
        let report = restarted.attach_wal_with(&dir, forced()).unwrap();
        assert_eq!(report.reapplied, 1, "{report:?}");
        let doc = docs.get("log.xml").unwrap();
        assert_eq!(
            xmldom::serialize_document(&doc, &Default::default()),
            r#"<log x="1" y="2"><e>0</e><f/></log>"#
        );
        drop(restarted);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// `as first into` with an attribute in the content: the attribute is no
    /// child, so what follows it goes ahead of the old children all the same
    /// — live, and when the logged update list is redone after a restart.
    #[test]
    fn content_inserted_as_first_is_redone_ahead_of_the_children() {
        let dir = scratch("as-first");
        let live = Peer::new_with_docs(URI, EngineKind::Tree, store());
        live.attach_wal_with(&dir, forced()).unwrap();
        let log = live.wal().unwrap();
        let env = xqeval::Environment::new(live.docs.clone());
        let (_, pul) = xqeval::evaluate_main(
            r#"insert nodes (attribute k {"1"}, <x/>, <y/>) as first into doc("log.xml")/log"#,
            &env,
        )
        .unwrap();
        let want = r#"<log k="1"><x/><y/><e>0</e></log>"#;
        let edits = xqeval::apply_updates(&pul).unwrap();
        let live_doc = xmldom::serialize_document(&edits[0].new, &Default::default());
        assert_eq!(live_doc, want);
        // decided, and the process gone before the apply
        log.append(&WalRecord::Prepared {
            qid: qid(1),
            coordinator: "xrpc://origin.example.org".into(),
            delta: wal::serialize_pul(&pul).unwrap(),
        })
        .unwrap();
        log.append(&WalRecord::Decision {
            qid: qid(1),
            decision: Decision::Committed,
        })
        .unwrap();
        drop((live, log));

        let docs = store();
        let restarted = Peer::new_with_docs(URI, EngineKind::Tree, docs.clone());
        let report = restarted.attach_wal_with(&dir, forced()).unwrap();
        assert_eq!(report.reapplied, 1, "{report:?}");
        let doc = docs.get("log.xml").unwrap();
        assert_eq!(xmldom::serialize_document(&doc, &Default::default()), want);
        drop(restarted);
        let _ = std::fs::remove_dir_all(dir);
    }
}
