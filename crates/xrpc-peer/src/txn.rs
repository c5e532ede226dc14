//! One transaction, one state machine (paper §2.3): ∆_q is the union of
//! all updating calls a query made at a peer (rule R′Fu), Prepare logs it,
//! Commit applies it, "no record" means abort. Two pure transition tables
//! and the two drivers that perform their edges:
//!
//! * the **participant** ([`step`], [`Peer::txn_edge`]): the one driver
//!   every caller goes through — the control-message handlers, the
//!   originator (a participant of its own query), inquiry resolution, and
//!   restart, which [`fold`]s the logged records through the same table
//!   and then runs what the last edge still owes;
//! * the **coordinator** ([`coord_step`], [`CoordTable`]): what this peer
//!   knows about the transactions it originated. Absent = presumed abort.
//!
//! DESIGN.md's *Durability & recovery* renders both tables; the unit tests
//! below hold the document to the code.

use crate::peer::Peer;
use crate::store::{Decision, SnapshotManager, TxnState};
use crate::twopc::{self, METHOD_INQUIRE, WSAT_MODULE};
use crate::wal::{self, Wal, WalRecord};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use xdm::{Sequence, XdmError, XdmResult};
use xqeval::pul::{apply_updates, PendingUpdateList};
use xqeval::DocResolver;
use xrpc_net::crash_points;
use xrpc_proto::{QueryId, TxOutcome, XrpcRequest, XrpcResponse};

/// `(qid.host, qid.timestamp_millis)` — how coordination state keys a
/// transaction without cloning the whole `QueryId`.
pub(crate) type TxKey = (String, u64);

pub(crate) fn tx_key(qid: &QueryId) -> TxKey {
    (qid.host.clone(), qid.timestamp_millis)
}

/// The kind of a [`WalRecord`], as the tables name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rec {
    Prepared,
    Decision(Decision),
    Applied,
    CoordinatorBegin,
    CoordinatorCommit,
    CoordinatorEnd,
}

impl Rec {
    pub fn of(record: &WalRecord) -> Rec {
        match record {
            WalRecord::Prepared { .. } => Rec::Prepared,
            WalRecord::Decision { decision, .. } => Rec::Decision(*decision),
            WalRecord::Applied { .. } => Rec::Applied,
            WalRecord::CoordinatorBegin { .. } => Rec::CoordinatorBegin,
            WalRecord::CoordinatorCommit { .. } => Rec::CoordinatorCommit,
            WalRecord::CoordinatorEnd { .. } => Rec::CoordinatorEnd,
        }
    }
}

/// Append `record`, forced or not as the edge that writes it says.
fn log(wal: &Wal, record: &WalRecord, forced: bool) -> XdmResult<u64> {
    if !forced {
        return wal.append_nosync(record);
    }
    let mut span = xrpc_obs::ambient_span("wal:force");
    let tag = match Rec::of(record) {
        Rec::Prepared => "prepared",
        Rec::Decision(Decision::Committed) => "decision-committed",
        Rec::Decision(Decision::Aborted) => "decision-aborted",
        Rec::CoordinatorCommit => "coordinator-commit",
        _ => "coordinator-end",
    };
    if let Some(span) = &mut span {
        span.tag("record", tag);
    }
    wal.append(record)
}

// ---------------------------------------------------------------------
// The participant
// ---------------------------------------------------------------------

/// [`TxnState`] without its data: what the table is indexed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Open,
    Prepared,
    Decided(Decision),
}

/// The four control messages (or the function calls that stand in for them
/// at the originator and in recovery), and the commit of a query that
/// touched no other peer: nobody to promise anything to, so no record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    Prepare,
    Commit,
    CommitSingleSite,
    Abort,
    Cancel,
}

impl Input {
    pub const ALL: [Input; 5] = [
        Input::Prepare,
        Input::Commit,
        Input::CommitSingleSite,
        Input::Abort,
        Input::Cancel,
    ];

    /// The control method that carries it, and the span its edge opens.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Input::Prepare => (twopc::METHOD_PREPARE, "2pc:prepare"),
            Input::Commit | Input::CommitSingleSite => (twopc::METHOD_COMMIT, "2pc:commit"),
            Input::Abort => (twopc::METHOD_ABORT, "2pc:abort"),
            Input::Cancel => (twopc::METHOD_CANCEL, "2pc:cancel"),
        }
    }
}

/// Where an input takes a participant and what happens on the way, in this
/// order: `log` is written (and waited for, if forced), ∆_q is applied, and
/// a logged ∆ is closed by an unforced `Applied`. An edge back to the phase
/// it left does nothing: the idempotent answer to a redelivered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub next: Phase,
    pub log: Option<(Rec, bool)>,
    pub apply: bool,
}

/// Why the table has no edge for an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    CommitBeforePrepare,
    CommitAfterAbort,
    /// A Prepare for a query that is already settled here.
    Finished,
    /// A single-site commit of a query some other peer holds a promise of.
    NotSingleSite,
}

/// The participant's transition table.
pub fn step(at: Phase, input: Input) -> Result<Edge, Refusal> {
    use {Decision::*, Input::*, Phase::*};
    let edge = |next, log, apply| Ok(Edge { next, log, apply });
    let forced = |record| Some((record, true));
    match (at, input) {
        // ∆_q and who to ask are forced *before* the ack makes the promise
        (Open, Prepare) => edge(Prepared, forced(Rec::Prepared), false),
        (Open, CommitSingleSite) => edge(Decided(Committed), None, true),
        (Open, Commit) => Err(Refusal::CommitBeforePrepare),
        // the end of a read-only query, a stand-down, an abort that beat
        // the Prepare: nothing was promised, nothing to retire
        (Open, Abort | Cancel) => edge(Decided(Aborted), None, false),
        // the decision is forced before it is acted on, so a crash in the
        // gap re-applies instead of forgetting a committed ∆
        (Prepared, Commit) => edge(Decided(Committed), forced(Rec::Decision(Committed)), true),
        // absence of a commit record *is* the abort record, but the append
        // retires the `Prepared` entry so the log can checkpoint
        (Prepared, Abort) => edge(Decided(Aborted), forced(Rec::Decision(Aborted)), false),
        (Prepared | Decided(_), CommitSingleSite) => Err(Refusal::NotSingleSite),
        (Decided(_), Prepare) => Err(Refusal::Finished),
        (Decided(Aborted), Commit) => Err(Refusal::CommitAfterAbort),
        // still prepared (past the promise only the decision protocol may
        // settle it); already applied, or already dropped: acknowledged
        (Prepared, Prepare | Cancel) | (Decided(_), Commit | Abort | Cancel) => {
            edge(at, None, false)
        }
    }
}

/// Replay: feed one participant's logged records to the table the live
/// driver runs — a record is the input that writes it (one the table could
/// not have written from where the log stands is skipped). Answers where
/// the log leaves it, and whether the last edge's apply is still owed.
pub fn fold(records: impl IntoIterator<Item = Rec>) -> (Phase, bool) {
    let (mut at, mut owes_apply) = (Phase::Open, false);
    for record in records {
        if record == Rec::Applied {
            owes_apply = false;
            continue;
        }
        let wrote = |e: &Edge| e.log.is_some_and(|(r, _)| r == record);
        if let Some(edge) = (Input::ALL.iter()).find_map(|i| step(at, *i).ok().filter(wrote)) {
            (at, owes_apply) = (edge.next, edge.apply);
        }
    }
    (at, owes_apply)
}

/// Who is driving an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Via {
    /// A control message off the wire: the chaos harness's participant
    /// crash points are live.
    Wire,
    /// A function call: the originator's own ∆, an inquiry's answer.
    Call,
    /// Restart: the edge's record is in the log already, the rest is owed.
    Replay,
}

/// What performing an edge came to.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Done {
    /// The applied-LSN mark showed ∆_q already in the store.
    pub skipped: bool,
    /// Time spent in the log.
    pub wal: Duration,
}

impl Peer {
    /// Take `qid`'s participant machine through `input`: look the edge up
    /// and perform it — log, crash point, apply, the unforced `Applied` —
    /// then move the state, release a settled snapshot and count. Every
    /// edge is idempotent: redelivery and transport retries may deliver any
    /// control message twice, and a participant converges all the same.
    pub(crate) fn txn_edge(&self, qid: &QueryId, input: Input, via: Via) -> XdmResult<Done> {
        let mut span = self.obs.tracer.span_here(input.names().1);
        if input == Input::Cancel {
            // a stand-down also stops what is still evaluating for the query
            let tokens = (self.active_evals.lock().get(&tx_key(qid)).cloned()).unwrap_or_default();
            span.tag("evals_cancelled", tokens.len().to_string());
            tokens.iter().for_each(|t| t.cancel());
        }
        // No snapshot: a finished query answers from its remembered
        // decision; an unknown one is presumed aborted, which acknowledges
        // an Abort or a Cancel and refuses the rest.
        let snap = self.snapshots.get(qid).ok();
        let mut state = snap.as_ref().map(|s| s.state.lock());
        let (at, mut lsn) = match state.as_deref() {
            Some(TxnState::Open) => (Phase::Open, None),
            Some(TxnState::Prepared { lsn, .. }) => (Phase::Prepared, *lsn),
            Some(TxnState::Decided(d)) => (Phase::Decided(*d), None),
            None => match self.snapshots.completed_decision(qid) {
                Some(d) => (Phase::Decided(d), None),
                None if matches!(input, Input::Abort | Input::Cancel) => {
                    (Phase::Decided(Decision::Aborted), None)
                }
                None => return Err(SnapshotManager::no_state(qid)),
            },
        };
        let edge = step(at, input).map_err(|refusal| match refusal {
            Refusal::CommitBeforePrepare => XdmError::xrpc("Commit before Prepare"),
            Refusal::CommitAfterAbort => XdmError::xrpc("Commit after Abort"),
            Refusal::Finished => SnapshotManager::no_state(qid),
            Refusal::NotSingleSite => XdmError::xrpc("single-site commit of a prepared query"),
        })?;
        if let (Input::Cancel, Some(_)) = (input, &state) {
            match at {
                Phase::Open => span.tag("outcome", "released"),
                Phase::Prepared => span.tag("outcome", "prepared-ignored"),
                Phase::Decided(_) => {}
            }
        }
        let mut done = Done::default();
        if let (Some(snap), Some(state), true) = (&snap, state.as_mut(), edge.next != at) {
            let mut crash = |point| match via {
                Via::Wire => self.crash_at(point, &mut span),
                _ => Ok(()),
            };
            let wal = self.wal();
            if input == Input::Prepare {
                // "it logs the union of the pending update lists to stable
                // storage, ensuring q can commit later" — compatibility is
                // the only thing that can refuse here
                snap.pul.lock().check_compatibility()?;
                // nothing logged, no ack: the presumed-abort case
                crash(crash_points::BEFORE_PREPARE_LOG)?;
            }
            if let (Some(w), Some((record, forced)), true) = (&wal, edge.log, via != Via::Replay) {
                let qid = qid.clone();
                let record = match record {
                    Rec::Prepared => WalRecord::Prepared {
                        coordinator: qid.host.clone(),
                        delta: wal::serialize_pul(&snap.pul.lock())?,
                        qid,
                    },
                    Rec::Decision(decision) => WalRecord::Decision { qid, decision },
                    _ => unreachable!("not a record an edge names"),
                };
                let t0 = Instant::now();
                let n = log(w, &record, forced)?;
                done.wal = t0.elapsed();
                if input == Input::Prepare {
                    // the LSN ∆_q is logged under is the mark its apply
                    // will be guarded by
                    lsn = Some(n);
                }
            }
            if edge.apply {
                if edge.log.is_some() {
                    crash(crash_points::AFTER_DECISION_LOG)?;
                }
                let pul = snap.pul.lock().clone();
                done.skipped = !self.apply_pul_marked(&pul, qid, lsn)?;
                // the marker is not forced: without it replay re-drives
                // the apply and the applied-LSN mark turns that into a no-op
                if let (Some(w), Some(_)) = (&wal, edge.log) {
                    crash(crash_points::AFTER_APPLY_BEFORE_MARKER)?;
                    self.log_applied(w, qid, lsn.unwrap_or(0))?;
                }
            }
            **state = match edge.next {
                Phase::Decided(d) => TxnState::Decided(d),
                _ => TxnState::Prepared {
                    lsn,
                    at: Instant::now(),
                    coordinator: qid.host.clone(),
                },
            };
        }
        drop(state);
        let m = &self.twopc_metrics;
        match (edge.next, input) {
            _ if edge.next == at => {}
            (Phase::Decided(d), _) => {
                self.snapshots.finish_with(qid, d);
                match input {
                    Input::Commit => m.commits.fetch_add(1, Ordering::Relaxed),
                    Input::Abort => m.aborts.fetch_add(1, Ordering::Relaxed),
                    _ => 0,
                };
            }
            // the ack will be delivered — then the peer dies holding
            // prepared state: the in-doubt case recovery resolves by inquiry
            _ if via == Via::Wire => {
                let sw = self.crash_switch.read();
                if (sw.as_ref()).is_some_and(|sw| sw.hit_after(crash_points::AFTER_PREPARE_ACK)) {
                    span.tag("crash_point", crash_points::AFTER_PREPARE_ACK);
                }
            }
            _ => {}
        }
        let micros = match input {
            Input::Prepare => "xrpc_twopc_prepare_micros",
            Input::Commit => "xrpc_twopc_commit_micros",
            _ => return Ok(done),
        };
        self.obs.histogram(micros).record_micros(span.elapsed());
        Ok(done)
    }

    /// WS-AtomicTransaction over the XRPC channel (§2.3): a participant's
    /// four messages are inputs to its machine; `Inquire` is a restarted
    /// participant asking this peer, the coordinator, what was decided.
    pub(crate) fn handle_control(&self, req: &XrpcRequest) -> XdmResult<XrpcResponse> {
        self.stats.control_messages.fetch_add(1, Ordering::Relaxed);
        let qid = (req.query_id.as_ref())
            .ok_or_else(|| XdmError::xrpc("coordination message without queryID"))?;
        let m = &self.twopc_metrics;
        if req.method == METHOD_INQUIRE {
            let mut span = self.obs.tracer.span_here("2pc:inquire");
            m.inquiries.fetch_add(1, Ordering::Relaxed);
            let outcome = self.coord.outcome(qid);
            span.tag("outcome", format!("{outcome:?}"));
            return Ok(outcome.into_response());
        }
        let input = (Input::ALL.into_iter())
            .find(|i| i.names().0 == req.method)
            .ok_or_else(|| XdmError::xrpc(format!("unknown control method `{}`", req.method)))?;
        self.txn_edge(qid, input, Via::Wire)?;
        match input {
            Input::Prepare => m.prepares.fetch_add(1, Ordering::Relaxed),
            Input::Cancel => m.cancels.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        let mut resp = XrpcResponse::new(WSAT_MODULE, req.method.clone());
        resp.results.push(Sequence::empty());
        Ok(resp)
    }

    /// `applyUpdates(∆)` into the store.
    pub(crate) fn apply_pul(&self, pul: &PendingUpdateList) -> XdmResult<()> {
        for edit in apply_updates(pul)? {
            if let Some(uri) = &edit.uri {
                self.docs.replace(uri, edit.new.clone())?;
            }
        }
        Ok(())
    }

    /// The key a transaction's applied-LSN mark is stored under in the
    /// document store.
    pub(crate) fn mark_key(qid: &QueryId) -> String {
        format!("{}@{}", qid.host, qid.timestamp_millis)
    }

    /// `applyUpdates(∆_q)` guarded by the store's applied-LSN mark: a ∆
    /// whose log sequence number is at-or-below the mark has already
    /// reached the documents (the crash or redelivery fell between the
    /// apply and the `Applied` marker), so it is skipped instead of applied
    /// twice. Returns whether the ∆ was actually applied.
    pub(crate) fn apply_pul_marked(
        &self,
        pul: &PendingUpdateList,
        qid: &QueryId,
        lsn: Option<u64>,
    ) -> XdmResult<bool> {
        let Some(lsn) = lsn else {
            // never logged: nothing could replay it
            self.apply_pul(pul)?;
            return Ok(true);
        };
        let key = Self::mark_key(qid);
        if self.docs.applied_mark(&key).is_some_and(|m| m >= lsn) {
            return Ok(false);
        }
        self.apply_pul(pul)?;
        self.docs.set_applied_mark(&key, lsn);
        Ok(true)
    }

    /// Close a committed transaction in the log once its ∆ is in the store.
    /// Marks the log can no longer ask about go with it.
    pub(crate) fn log_applied(&self, wal: &Wal, qid: &QueryId, mark: u64) -> XdmResult<()> {
        let qid = qid.clone();
        log(wal, &WalRecord::Applied { qid, mark }, false)?;
        self.docs.prune_applied_marks(wal.replay_floor());
        Ok(())
    }

    /// Die here, mid-request, if the chaos harness armed `point`: the error
    /// propagates up, and the attached `SimNetwork` suppresses the response
    /// so the caller sees an ambiguous timeout.
    pub(crate) fn crash_at(&self, point: &str, span: &mut xrpc_obs::SpanGuard) -> XdmResult<()> {
        if !(self.crash_switch.read().as_ref()).is_some_and(|sw| sw.hit(point)) {
            return Ok(());
        }
        span.tag("crash_point", point);
        Err(XdmError::xrpc(format!("simulated crash at {point}")))
    }

    /// Take `qid`'s coordinator entry through `input`, logged to this
    /// peer's WAL.
    pub(crate) fn coord_edge(&self, qid: &QueryId, input: CoordInput<'_>) -> XdmResult<()> {
        self.coord.edge(self.wal().as_deref(), qid, input)
    }
}

// ---------------------------------------------------------------------
// The coordinator
// ---------------------------------------------------------------------

/// What a coordinator holds about a transaction it originated. No entry
/// means presumed abort: never begun, aborted, or committed and forgotten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordState {
    /// Prepare or decision in flight: `Inquire` answers `InDoubt`.
    Coordinating,
    /// The commit record is forced: `Inquire` answers `Committed`. Until
    /// `delivered`, some participant may not have heard.
    Committed { delivered: bool },
    /// The coordination died undecided (a recovered `CoordinatorBegin`):
    /// aborted by presumption, its participants still to be told.
    ReAbort,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordInput<'a> {
    Begin(&'a [String]),
    /// The commit point: every participant prepared.
    Commit(&'a [String]),
    /// Every participant acknowledged the decision.
    Acked,
    /// Decided abort, or gave up undecided.
    Abort,
    /// The originator's own ∆ is settled too: nobody is left to ask.
    Forget,
    /// The process restarted: whatever was in flight died with it.
    Restart,
}

/// A coordinator edge: at most one record, and whether it is forced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordEdge {
    pub next: Option<CoordState>,
    pub log: Option<(Rec, bool)>,
}

/// The coordinator table has no such edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotFromHere;

/// The coordinator's transition table.
pub fn coord_step(at: Option<CoordState>, input: CoordInput<'_>) -> Result<CoordEdge, NotFromHere> {
    use {CoordInput::*, CoordState::*};
    let edge = |next, log| Ok(CoordEdge { next, log });
    match (at, input) {
        // unforced: it only feeds the re-abort sweep
        (None, Begin(_)) => edge(Some(Coordinating), Some((Rec::CoordinatorBegin, false))),
        // the commit point — forced before any Commit leaves (a rotation
        // may have dropped the begin record it supersedes)
        (None | Some(Coordinating), Commit(_)) => edge(
            Some(Committed { delivered: false }),
            Some((Rec::CoordinatorCommit, true)),
        ),
        (Some(Coordinating), Abort) => edge(None, Some((Rec::CoordinatorEnd, false))),
        (Some(Coordinating), Restart) => edge(Some(ReAbort), None),
        // bounds how long a restarted coordinator keeps redelivering
        (Some(Committed { delivered: false }), Acked) => edge(
            Some(Committed { delivered: true }),
            Some((Rec::CoordinatorEnd, true)),
        ),
        (Some(Committed { delivered: true }), Forget) => edge(None, None),
        (Some(ReAbort), Acked) => edge(None, Some((Rec::CoordinatorEnd, false))),
        // the sweep and a live delivery may both report; nothing in flight
        // survives a second restart; nothing to end
        (Some(Committed { delivered: true }), Acked)
        | (Some(Committed { .. } | ReAbort), Restart)
        | (None, Acked | Abort | Forget | Restart) => edge(at, None),
        _ => Err(NotFromHere),
    }
}

struct CoordEntry {
    qid: QueryId,
    participants: Vec<String>,
    state: CoordState,
}

/// Every transaction this peer coordinates or still answers for.
#[derive(Default)]
pub struct CoordTable {
    entries: Mutex<HashMap<TxKey, CoordEntry>>,
}

impl CoordTable {
    /// Take `qid` through `input`: write the record the edge names, then
    /// move the entry. With no `wal` the effects are off — which is replay.
    pub fn edge(&self, wal: Option<&Wal>, qid: &QueryId, input: CoordInput<'_>) -> XdmResult<()> {
        let key = tx_key(qid);
        let at = self.state(qid);
        let edge = coord_step(at, input)
            .map_err(|_| XdmError::xrpc(format!("coordinator: {input:?} from {at:?}")))?;
        if edge.next == at {
            return Ok(());
        }
        let participants = || match input {
            CoordInput::Begin(p) | CoordInput::Commit(p) => p.to_vec(),
            _ => Vec::new(),
        };
        if let (Some(w), Some((record, forced))) = (wal, edge.log) {
            let (qid, participants) = (qid.clone(), participants());
            let record = match record {
                Rec::CoordinatorBegin => WalRecord::CoordinatorBegin { qid, participants },
                Rec::CoordinatorCommit => WalRecord::CoordinatorCommit { qid, participants },
                _ => WalRecord::CoordinatorEnd { qid },
            };
            log(w, &record, forced)?;
        }
        let mut entries = self.entries.lock();
        // the recovery sweep and a live coordination may both drive one
        // entry: whoever moved it first has
        if entries.get(&key).map(|e| e.state) != at {
            return Ok(());
        }
        match (edge.next, entries.get_mut(&key)) {
            (None, _) => drop(entries.remove(&key)),
            (Some(state), Some(e)) => e.state = state,
            (Some(state), None) => {
                let (qid, participants) = (qid.clone(), participants());
                let entry = CoordEntry {
                    qid,
                    participants,
                    state,
                };
                entries.insert(key, entry);
            }
        }
        Ok(())
    }

    /// Replay the logged coordinator records: each is the input that wrote
    /// it (an end record closes whatever was open), with the effects off.
    /// Then the restart itself: what they leave in flight died undecided.
    pub(crate) fn replay<'r>(&self, records: impl Iterator<Item = &'r WalRecord>) {
        for record in records {
            let input = match record {
                WalRecord::CoordinatorBegin { participants, .. } => CoordInput::Begin(participants),
                WalRecord::CoordinatorCommit { participants, .. } => {
                    CoordInput::Commit(participants)
                }
                WalRecord::CoordinatorEnd { qid } => match self.state(qid) {
                    Some(CoordState::Coordinating) => CoordInput::Abort,
                    _ => CoordInput::Acked,
                },
                _ => continue,
            };
            let _ = self.edge(None, record.qid(), input);
        }
        let open: Vec<QueryId> = (self.entries.lock().values().map(|e| e.qid.clone())).collect();
        for qid in open {
            let _ = self.edge(None, &qid, CoordInput::Restart);
        }
    }

    fn state(&self, qid: &QueryId) -> Option<CoordState> {
        self.entries.lock().get(&tx_key(qid)).map(|e| e.state)
    }

    /// The presumed-abort answer to an `Inquire`. The forced commit record
    /// is the decision, even while delivery is still in flight.
    pub fn outcome(&self, qid: &QueryId) -> TxOutcome {
        match self.state(qid) {
            Some(CoordState::Committed { .. }) => TxOutcome::Committed,
            Some(CoordState::Coordinating) => TxOutcome::InDoubt,
            Some(CoordState::ReAbort) | None => TxOutcome::Aborted,
        }
    }

    /// Decisions some participant may not have heard — commits to redeliver,
    /// crashed coordinations to re-abort — as (queryID, participants, commit?).
    pub(crate) fn owed(&self) -> Vec<(QueryId, Vec<String>, bool)> {
        let entries = self.entries.lock();
        let owed = entries.values().filter_map(|e| {
            match e.state {
                CoordState::Committed { delivered: false } => Some(true),
                CoordState::ReAbort => Some(false),
                _ => None,
            }
            .map(|commit| (e.qid.clone(), e.participants.clone(), commit))
        });
        owed.collect()
    }

    /// Commit decisions someone may still ask about (a `/metrics` gauge:
    /// it must track open work, not history).
    pub fn committed_entries(&self) -> usize {
        let entries = self.entries.lock();
        let committed = |e: &&CoordEntry| matches!(e.state, CoordState::Committed { .. });
        entries.values().filter(committed).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Decision::*;

    const PHASES: [Phase; 4] = [
        Phase::Open,
        Phase::Prepared,
        Phase::Decided(Committed),
        Phase::Decided(Aborted),
    ];

    #[derive(Debug, PartialEq)]
    enum Row<S, R> {
        To(S),
        /// Idempotent redelivery: acknowledged, nothing happens.
        Again,
        Refused(R),
    }

    /// Every (phase, input) pair of the participant table is one of these
    /// rows — the table DESIGN.md renders.
    #[test]
    fn the_participant_table_is_total_and_is_this_table() {
        use Input::*;
        use Phase::{Decided, Open, Prepared};
        use Row::*;
        let want = [
            (Open, Prepare, To(Prepared)),
            (Open, Commit, Refused(Refusal::CommitBeforePrepare)),
            (Open, CommitSingleSite, To(Decided(Committed))),
            (Open, Abort, To(Decided(Aborted))),
            (Open, Cancel, To(Decided(Aborted))),
            (Prepared, Prepare, Again),
            (Prepared, Commit, To(Decided(Committed))),
            (Prepared, CommitSingleSite, Refused(Refusal::NotSingleSite)),
            (Prepared, Abort, To(Decided(Aborted))),
            (Prepared, Cancel, Again),
            (Decided(Committed), Prepare, Refused(Refusal::Finished)),
            (Decided(Committed), Commit, Again),
            (
                Decided(Committed),
                CommitSingleSite,
                Refused(Refusal::NotSingleSite),
            ),
            (Decided(Committed), Abort, Again),
            (Decided(Committed), Cancel, Again),
            (Decided(Aborted), Prepare, Refused(Refusal::Finished)),
            (Decided(Aborted), Commit, Refused(Refusal::CommitAfterAbort)),
            (
                Decided(Aborted),
                CommitSingleSite,
                Refused(Refusal::NotSingleSite),
            ),
            (Decided(Aborted), Abort, Again),
            (Decided(Aborted), Cancel, Again),
        ];
        let mut have = Vec::new();
        for at in PHASES {
            for input in Input::ALL {
                have.push((
                    at,
                    input,
                    match step(at, input) {
                        Ok(edge) if edge.next == at => {
                            assert_eq!((edge.log, edge.apply), (None, false), "{at:?} {input:?}");
                            Again
                        }
                        Ok(edge) => To(edge.next),
                        Err(r) => Refused(r),
                    },
                ));
            }
        }
        assert_eq!(have, want);
    }

    const COORD_STATES: [Option<CoordState>; 5] = [
        None,
        Some(CoordState::Coordinating),
        Some(CoordState::Committed { delivered: false }),
        Some(CoordState::Committed { delivered: true }),
        Some(CoordState::ReAbort),
    ];

    const COORD_INPUTS: [CoordInput<'static>; 6] = [
        CoordInput::Begin(&[]),
        CoordInput::Commit(&[]),
        CoordInput::Acked,
        CoordInput::Abort,
        CoordInput::Forget,
        CoordInput::Restart,
    ];

    #[test]
    fn the_coordinator_table_is_total_and_is_this_table() {
        use CoordState::*;
        use Row::*;
        let undelivered = Some(Committed { delivered: false });
        let delivered = Some(Committed { delivered: true });
        // Begin, Commit, Acked, Abort, Forget, Restart
        let refused = || Refused(NotFromHere);
        let want = [
            [
                To(Some(Coordinating)),
                To(undelivered),
                Again,
                Again,
                Again,
                Again,
            ],
            [
                refused(),
                To(undelivered),
                refused(),
                To(None),
                refused(),
                To(Some(ReAbort)),
            ],
            [
                refused(),
                refused(),
                To(delivered),
                refused(),
                refused(),
                Again,
            ],
            [refused(), refused(), Again, refused(), To(None), Again],
            [refused(), refused(), To(None), refused(), refused(), Again],
        ];
        for (at, want) in COORD_STATES.iter().zip(want) {
            for (input, want) in COORD_INPUTS.iter().zip(want) {
                let have = match coord_step(*at, *input) {
                    Ok(edge) if edge.next == *at => {
                        assert_eq!(edge.log, None, "{at:?} {input:?}: a silent record");
                        Again
                    }
                    Ok(edge) => To(edge.next),
                    Err(r) => Refused(r),
                };
                assert_eq!(have, want, "{at:?} {input:?}");
            }
        }
    }

    /// The (record, role, forced) triples the two tables can emit are this
    /// list, and this list is DESIGN.md's force table — row for row, so
    /// code and document cannot drift.
    #[test]
    fn the_force_column_is_the_documents() {
        let mut emitted: Vec<(Rec, &str, bool)> = Vec::new();
        let mut emit = |row| {
            if !emitted.contains(&row) {
                emitted.push(row);
            }
        };
        for at in PHASES {
            for input in Input::ALL {
                let Ok(edge) = step(at, input) else { continue };
                if let Some((record, forced)) = edge.log {
                    emit((record, "participant", forced));
                    if edge.apply {
                        emit((Rec::Applied, "participant", false));
                    }
                }
            }
        }
        for at in COORD_STATES {
            for input in COORD_INPUTS {
                if let Ok(CoordEdge {
                    log: Some((record, forced)),
                    ..
                }) = coord_step(at, input)
                {
                    emit((record, "coordinator", forced));
                }
            }
        }
        let want = [
            (Rec::Prepared, "participant", true),
            (Rec::Decision(Committed), "participant", true),
            (Rec::Applied, "participant", false),
            (Rec::Decision(Aborted), "participant", true),
            (Rec::CoordinatorBegin, "coordinator", false),
            (Rec::CoordinatorCommit, "coordinator", true),
            (Rec::CoordinatorEnd, "coordinator", false),
            (Rec::CoordinatorEnd, "coordinator", true),
        ];
        assert_eq!(emitted, want);

        // DESIGN.md: the rows under `| record | role | forced? |` that name
        // a record (the checkpoint row does not)
        let design = include_str!("../../../DESIGN.md");
        let table = design
            .split_once("| record | role | forced? |")
            .expect("DESIGN.md has the force table")
            .1;
        let documented: Vec<(String, String, bool)> = table
            .lines()
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .filter_map(|l| {
                let cols: Vec<&str> = l.split('|').map(str::trim).collect();
                let name = cols[1].strip_prefix('`')?;
                let forced = cols[3].trim_start_matches('*');
                assert!(
                    forced.starts_with("yes") || forced.starts_with("no"),
                    "forced? column: {l}"
                );
                Some((
                    name.to_string(),
                    cols[2].to_string(),
                    forced.starts_with("yes"),
                ))
            })
            .collect();
        assert_eq!(documented.len(), want.len(), "{documented:#?}");
        for (record, role, forced) in want {
            let name = format!("{record:?}").replace('(', "{").replace(')', "}");
            assert!(
                documented.iter().any(|(n, r, f)| {
                    n.strip_prefix(&name)
                        .is_some_and(|rest| rest.starts_with(['{', '`']))
                        && r.starts_with(role)
                        && *f == forced
                }),
                "DESIGN.md's force table has no row ({name}, {role}, forced = {forced})"
            );
        }
    }

    /// Replay is the same function: run the live driver's bookkeeping over
    /// every input sequence, and every time it has written a record,
    /// folding what the log holds so far gives where that edge leads and
    /// whether its apply (and the unwritten `Applied`) is still owed.
    #[test]
    fn folding_a_log_prefix_is_where_the_live_driver_stood_when_it_wrote_it() {
        fn walk(at: Phase, written: &mut Vec<Rec>, depth: usize, checked: &mut usize) {
            for input in Input::ALL {
                let Ok(edge) = step(at, input) else { continue };
                if edge.next == at || depth == 0 {
                    continue;
                }
                let before = written.len();
                if let Some((record, _)) = edge.log {
                    written.push(record);
                    let folded = fold(written.iter().copied());
                    assert_eq!(folded, (edge.next, edge.apply), "after {written:?}");
                    *checked += 1;
                    if edge.apply {
                        written.push(Rec::Applied);
                        let folded = fold(written.iter().copied());
                        assert_eq!(folded, (edge.next, false), "after {written:?}");
                        *checked += 1;
                    }
                }
                walk(edge.next, written, depth - 1, checked);
                written.truncate(before);
            }
        }
        let mut checked = 0;
        walk(Phase::Open, &mut Vec::new(), 6, &mut checked);
        // Prepared; + Decision{Committed}; + Applied; Prepared + Decision{Aborted}
        assert_eq!(checked, 4, "prefixes checked");
        // what no driver writes is skipped, not guessed at
        let stray = [Rec::Applied, Rec::Decision(Committed), Rec::Prepared];
        assert_eq!(fold(stray), (Phase::Prepared, false));
    }

    /// The coordinator's side of the same claim, on the real table: a live
    /// table taken through every input sequence, and a second table that
    /// replays only the records the first one's edges have written so far,
    /// agree after every record on what a restart at that moment leaves —
    /// the same entry, the same deliveries owed.
    #[test]
    fn replaying_the_coordinator_records_rebuilds_the_live_table() {
        let qid = QueryId::new("xrpc://a", 1, 30);
        let parts = ["xrpc://b".to_string()];
        let inputs = [
            CoordInput::Begin(&parts),
            CoordInput::Commit(&parts),
            CoordInput::Acked,
            CoordInput::Abort,
            CoordInput::Forget,
            CoordInput::Restart,
        ];
        let record_of = |r: Rec| match r {
            Rec::CoordinatorBegin => WalRecord::CoordinatorBegin {
                qid: qid.clone(),
                participants: parts.to_vec(),
            },
            Rec::CoordinatorCommit => WalRecord::CoordinatorCommit {
                qid: qid.clone(),
                participants: parts.to_vec(),
            },
            _ => WalRecord::CoordinatorEnd { qid: qid.clone() },
        };
        let owed = |t: &CoordTable| -> Vec<(Vec<String>, bool)> {
            (t.owed().into_iter())
                .map(|(_, participants, commit)| (participants, commit))
                .collect()
        };
        let mut checked = 0;
        let mut sequences = vec![Vec::new()];
        for _ in 0..5 {
            sequences = (sequences.iter())
                .flat_map(|s: &Vec<usize>| (0..inputs.len()).map(move |i| [&s[..], &[i]].concat()))
                .collect();
            for seq in &sequences {
                let (live, mut log) = (CoordTable::default(), Vec::new());
                let mut born = false;
                for &i in seq {
                    // a queryID has one life: once ended or forgotten, it
                    // does not begin again
                    if born && live.state(&qid).is_none() {
                        break;
                    }
                    born |= live.state(&qid).is_some();
                    let edge = coord_step(live.state(&qid), inputs[i]);
                    let _ = live.edge(None, &qid, inputs[i]);
                    let Ok(CoordEdge {
                        log: Some((record, _)),
                        ..
                    }) = edge
                    else {
                        continue;
                    };
                    log.push(record_of(record));
                    let (replayed, restarted) = (CoordTable::default(), CoordTable::default());
                    replayed.replay(log.iter());
                    let state = live.state(&qid);
                    let after = coord_step(state, CoordInput::Restart).unwrap().next;
                    assert_eq!(replayed.state(&qid), after, "{seq:?}");
                    // the live table, had it restarted here
                    if let Some(state) = state {
                        let _ = restarted.edge(None, &qid, CoordInput::Commit(&parts));
                        restarted
                            .entries
                            .lock()
                            .get_mut(&tx_key(&qid))
                            .unwrap()
                            .state = state;
                        let _ = restarted.edge(None, &qid, CoordInput::Restart);
                    }
                    assert_eq!(owed(&replayed), owed(&restarted), "{seq:?}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "{checked} records replayed");
    }
}
