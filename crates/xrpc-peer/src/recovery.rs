//! Restart recovery for the durable 2PC layer (see `wal`).
//!
//! A peer that crashes holding coordination state recovers in two steps:
//!
//! 1. **Replay** ([`Peer::attach_wal`]): fold the surviving WAL records
//!    through the tables the live path runs (`txn`), effects off, then
//!    run what each transaction's edge in progress still owes.
//!    Prepared-but-undecided transactions re-enter prepared snapshots
//!    (their ∆_q deserialized against the durable store); a decided but
//!    unapplied commit is finished on the spot; a coordinator commit
//!    without its end still owes its participants a delivery.
//! 2. **Resolution** ([`Peer::resolve_in_doubt`]): every in-doubt
//!    transaction sends a WS-AT `Inquire` to its recorded coordinator and
//!    takes the answer as its machine's next input — `Committed` applies
//!    the held ∆; `Aborted` (or, per presumed abort, a coordinator with
//!    *no record* of the transaction) releases it; `InDoubt` (or an
//!    unreachable coordinator) leaves it prepared for a later round.
//!    Decisions the coordinator table still owes are (re)delivered, then
//!    retired with a `CoordinatorEnd`.
//!
//! A background sweeper ([`Peer::start_recovery_sweeper`]) re-runs
//! resolution for prepared transactions older than a configured age, so
//! an in-doubt participant converges even when the coordinator only comes
//! back long after the participant did.

use crate::client::XrpcClient;
use crate::peer::Peer;
use crate::store::TxnState;
use crate::twopc::{self, METHOD_ABORT, METHOD_COMMIT, METHOD_INQUIRE};
use crate::txn::{self, CoordInput, Input, Phase, Rec, Via};
use crate::wal::{self, FsyncPolicy, SequencedRecord, Wal, WalConfig, WalRecord};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use std::time::Instant;
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

        // Coordinator role: the logged records are the inputs that wrote
        // them; whatever they leave in flight died with the old process.
        self.coord
            .replay(replay.records.iter().map(|sr| &sr.record));

        // Participant role, a transaction at a time in log order.
        let mut order = Vec::new();
        let mut txs: HashMap<txn::TxKey, Vec<&SequencedRecord>> = HashMap::new();
        for sr in &replay.records {
            if matches!(
                Rec::of(&sr.record),
                Rec::Prepared | Rec::Decision(_) | Rec::Applied
            ) {
                let key = txn::tx_key(sr.record.qid());
                txs.entry(key.clone())
                    .or_insert_with(|| {
                        order.push(key);
                        Vec::new()
                    })
                    .push(sr);
            }
        }
        let mut report = RecoveryReport {
            tail_damaged: replay.tail_damaged,
            ..Default::default()
        };
        for key in order {
            let records = &txs[&key];
            let qid = records[0].record.qid();
            // Re-seed the store's applied-LSN mark from the replayed
            // marker before any re-apply consults it.
            let applied_mark = records.iter().filter_map(|sr| match sr.record {
                WalRecord::Applied { mark, .. } => Some(mark),
                _ => None,
            });
            if let Some(mark) = applied_mark.max().filter(|m| *m > 0) {
                self.docs.set_applied_mark(&Self::mark_key(qid), mark);
            }
            let prepared = records.iter().rev().find_map(|sr| match &sr.record {
                WalRecord::Prepared {
                    coordinator, delta, ..
                } => Some((sr.lsn, coordinator, delta)),
                _ => None,
            });
            let (at, owes_apply) = txn::fold(records.iter().map(|sr| Rec::of(&sr.record)));
            let (lsn, coordinator, delta) = match (at, prepared) {
                // promised, and in doubt or not finished: re-enter prepared
                // state, and remember who to ask
                (Phase::Prepared, Some(p)) => p,
                (Phase::Decided(_), Some(p)) if owes_apply => p,
                // fully settled; remember the decision so a redelivered
                // control message answers idempotently
                (Phase::Decided(d), _) => {
                    self.snapshots.finish_with(qid, d);
                    continue;
                }
                _ => continue,
            };
            let pul = wal::deserialize_pul(&self.docs, delta)?;
            let state = TxnState::Prepared {
                lsn: Some(lsn).filter(|l| *l > 0),
                at: Instant::now(),
                coordinator: coordinator.clone(),
            };
            self.snapshots.pin(qid, self.docs.snapshot(), pul, state);
            if !owes_apply {
                report.restored_prepared += 1;
                continue;
            }
            // decided but killed before applyUpdates: finish the job now —
            // the rest of the commit edge, which the mark makes idempotent
            // (a crash after the apply but before the marker skips it)
            report.lsn_skips += self.txn_edge(qid, Input::Commit, Via::Replay)?.skipped as usize;
            report.reapplied += 1;
            self.twopc_metrics
                .recoveries
                .fetch_add(1, Ordering::Relaxed);
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

        // Participant role: ask each recorded coordinator what it decided;
        // the answer is the machine's next input.
        for snap in self.snapshots.prepared_undecided(min_age) {
            let qid = snap.qid.clone();
            let TxnState::Prepared { coordinator, .. } = snap.state.lock().clone() else {
                continue;
            };
            // Recovery work re-enters the crashed transaction's trace: the
            // id is a pure function of the queryID, so spans emitted here
            // join the spans recorded before the crash.
            let mut span = self.recovery_span("recovery:inquire", &qid);
            span.tag("coordinator", coordinator.clone());
            let outcome = if coordinator == self.name() {
                // the originator's own ∆: the coordinator table is here
                Some(self.coord.outcome(&qid))
            } else {
                let reply = client.control(&coordinator, METHOD_INQUIRE, &qid);
                (reply.ok().and_then(Result::ok)).and_then(|resp| TxOutcome::from_response(&resp))
            };
            span.tag(
                "outcome",
                match outcome {
                    Some(o) => format!("{o:?}"),
                    None => "unreachable".into(),
                },
            );
            let input = match outcome {
                Some(TxOutcome::Committed) => Input::Commit,
                Some(TxOutcome::Aborted) => Input::Abort,
                Some(TxOutcome::InDoubt) | None => {
                    report.still_in_doubt += 1;
                    continue;
                }
            };
            let done = self.txn_edge(&qid, input, Via::Call)?;
            if input == Input::Commit {
                report.resolved_committed += 1;
                report.lsn_skips += done.skipped as usize;
            } else {
                report.resolved_aborted += 1;
            }
            self.twopc_metrics
                .recoveries
                .fetch_add(1, Ordering::Relaxed);
        }

        // Coordinator role: deliver what the table still owes — commit
        // decisions some participant may not have heard, and coordinations
        // that died undecided, which presumed abort already settles but
        // whose participants hold their prepared ∆s (and locks) until told.
        let m = &self.twopc_metrics;
        for (qid, participants, commit) in self.coord.owed() {
            let (name, method) = match commit {
                true => ("recovery:redeliver", METHOD_COMMIT),
                false => ("recovery:reabort", METHOD_ABORT),
            };
            let mut span = self.recovery_span(name, &qid);
            let mut all_acked = true;
            for p in &participants {
                if twopc::deliver_decision(self, &client, p, method, &qid).is_err() {
                    all_acked = false;
                    if commit {
                        m.hazards.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            span.tag("delivered", if all_acked { "all" } else { "partial" });
            if all_acked {
                // the entry stays as `delivered` after a commit: a local ∆
                // of the same transaction may still be waiting to ask
                self.coord_edge(&qid, CoordInput::Acked)?;
                if commit {
                    report.redelivered += 1;
                    m.recoveries.fetch_add(1, Ordering::Relaxed);
                } else {
                    report.reaborted += 1;
                    m.reaborts.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(report)
    }

    fn recovery_span(&self, name: &'static str, qid: &QueryId) -> xrpc_obs::SpanGuard {
        self.obs.tracer.span(
            name,
            TraceContext {
                trace_id: trace_id_from(&qid.host, qid.timestamp_millis),
                span_id: self.obs.tracer.next_span_id(),
                parent_id: None,
            },
        )
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
    use crate::store::Decision;
    use crate::wal::{NodePath, PathStep, SerializedPrimitive};
    use std::path::{Path, PathBuf};
    use xqeval::InMemoryDocs;

    const URI: &str = "xrpc://b.example.org";

    fn forced() -> WalConfig {
        WalConfig {
            fsync: FsyncPolicy::Always,
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
        let edits = || xqeval::pul::apply_updates(&pul);
        assert!(peer.apply_pul_marked(edits, &qid(n), Some(lsn)).unwrap());
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

    /// A one-phase commit cut after its `Prepared` reached the disk (in
    /// another transaction's flush) and before its decision did: the
    /// restarted participant is prepared, and the coordinator's retry of
    /// `CommitOnePhase` is the commit it was waiting for — once.
    #[test]
    fn a_one_phase_retry_commits_the_prepared_a_restart_found() {
        let dir = scratch("one-phase-retry");
        let docs = store();
        let live = Peer::new_with_docs(URI, EngineKind::Tree, docs.clone());
        live.attach_wal_with(&dir, forced()).unwrap();
        let log = live.wal().unwrap();
        log.append(&prepared(1, "1")).unwrap();
        drop((live, log));

        let restarted = Peer::new_with_docs(URI, EngineKind::Tree, docs.clone());
        let report = restarted.attach_wal_with(&dir, forced()).unwrap();
        assert_eq!(report.restored_prepared, 1, "{report:?}");
        let mut retry =
            xrpc_proto::XrpcRequest::new(twopc::WSAT_MODULE, twopc::METHOD_COMMIT_ONE_PHASE, 0)
                .with_query_id(qid(1));
        retry.push_call(vec![]);
        let retry = retry.to_xml().unwrap();
        for _ in 0..2 {
            let reply = String::from_utf8(restarted.handle_soap(retry.as_bytes())).unwrap();
            assert!(!reply.contains("Fault"), "{reply}");
        }
        assert_eq!(counter(&docs), "1", "applied once");
        assert_eq!(restarted.twopc_metrics.snapshot().commits, 1);
        assert_eq!(restarted.wal().unwrap().open_transactions(), 0);
        drop(restarted);
        let _ = std::fs::remove_dir_all(dir);
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
