//! One transaction, one state machine (paper §2.3): ∆_q is the union of
//! all updating calls a query made at a peer (rule R′Fu), Prepare logs it,
//! Commit applies it, "no record" means abort. Two pure transition tables
//! and the two drivers that perform their edges:
//!
//! * the **participant** ([`step`], `Peer::txn_edge`), which every
//!   caller goes through — the control-message handlers, the
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
use xqeval::pul::{apply_updates, DocEdit, PendingUpdateList};
use xqeval::DocResolver;
use xrpc_net::crash_points;
use xrpc_proto::{QueryId, TxOutcome, Vote, XrpcRequest, XrpcResponse};

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

/// The five control messages (or the function calls that stand in for them
/// at the originator and in recovery), and the commit of a query that
/// touched no other peer: nobody to promise anything to, so no record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    Prepare,
    Commit,
    /// The only ∆ of the transaction is here: decide alone.
    CommitOnePhase,
    CommitSingleSite,
    Abort,
    Cancel,
}

impl Input {
    pub const ALL: [Input; 6] = [
        Input::Prepare,
        Input::Commit,
        Input::CommitOnePhase,
        Input::CommitSingleSite,
        Input::Abort,
        Input::Cancel,
    ];

    /// The control method that carries it — one input each; a single-site
    /// commit is a function call only — and the span its edge opens.
    fn names(self) -> (Option<&'static str>, &'static str) {
        match self {
            Input::Prepare => (Some(twopc::METHOD_PREPARE), "2pc:prepare"),
            Input::Commit => (Some(twopc::METHOD_COMMIT), "2pc:commit"),
            Input::CommitOnePhase => (Some(twopc::METHOD_COMMIT_ONE_PHASE), "2pc:commit-one-phase"),
            Input::CommitSingleSite => (None, "2pc:commit"),
            Input::Abort => (Some(twopc::METHOD_ABORT), "2pc:abort"),
            Input::Cancel => (Some(twopc::METHOD_CANCEL), "2pc:cancel"),
        }
    }

    /// The input a control method off the wire is.
    fn of_method(method: &str) -> Option<Input> {
        (Input::ALL.into_iter()).find(|i| i.names().0 == Some(method))
    }
}

/// Where an input takes a participant and what happens on the way, in this
/// order: `log` is written (each record waited for, if forced), ∆_q is
/// applied, and a logged ∆ is closed by an unforced `Applied`. An edge back
/// to the phase it left does nothing: the idempotent answer to a
/// redelivered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub next: Phase,
    pub log: &'static [(Rec, bool)],
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

/// The participant's transition table. `empty`: ∆_q holds no update, which
/// matters only where a ∆ would be promised — and there nothing is.
pub fn step(at: Phase, input: Input, empty: bool) -> Result<Edge, Refusal> {
    use {Decision::*, Input::*, Phase::*};
    let edge = |next, log, apply| Ok(Edge { next, log, apply });
    match (at, input) {
        // nothing to promise: the read-only vote, and a one-phase commit
        // with nothing to write — settled on the spot, no record
        (Open, Prepare | CommitOnePhase) if empty => edge(Decided(Committed), &[], false),
        // ∆_q and who to ask are forced *before* the ack makes the promise
        (Open, Prepare) => edge(Prepared, &[(Rec::Prepared, true)], false),
        // the one participant decides alone: one flush carries `Prepared`
        // and the forced decision, and the log reads as 2PC's would
        (Open, CommitOnePhase) => edge(
            Decided(Committed),
            &[(Rec::Prepared, false), (Rec::Decision(Committed), true)],
            true,
        ),
        (Open, CommitSingleSite) => edge(Decided(Committed), &[], true),
        (Open, Commit) => Err(Refusal::CommitBeforePrepare),
        // the end of a read-only query, a stand-down, an abort that beat
        // the Prepare: nothing was promised, nothing to retire
        (Open, Abort | Cancel) => edge(Decided(Aborted), &[], false),
        // the decision is forced before it is acted on, so a crash in the
        // gap re-applies instead of forgetting a committed ∆; a one-phase
        // retry reaching a restart whose `Prepared` got out is this commit
        (Prepared, Commit | CommitOnePhase) => edge(
            Decided(Committed),
            &[(Rec::Decision(Committed), true)],
            true,
        ),
        // presumed abort: no promise rests on it, the append only retires
        // the `Prepared` entry so the log can checkpoint
        (Prepared, Abort) => edge(Decided(Aborted), &[(Rec::Decision(Aborted), false)], false),
        (Prepared | Decided(_), CommitSingleSite) => Err(Refusal::NotSingleSite),
        (Decided(Aborted), Prepare) => Err(Refusal::Finished),
        (Decided(Aborted), Commit | CommitOnePhase) => Err(Refusal::CommitAfterAbort),
        // still prepared (past the promise only the decision protocol may
        // settle it); already applied — or voted read-only, which a
        // redelivered Prepare hears again — or already dropped: acknowledged
        (Prepared, Prepare | Cancel)
        | (Decided(Committed), Prepare | Commit | CommitOnePhase)
        | (Decided(_), Abort | Cancel) => edge(at, &[], false),
    }
}

/// Replay: feed one participant's logged records to the table the live
/// driver runs — a record is the input whose one-record edge writes it (the
/// records of a longer edge are each such an edge's; one the table could
/// not have written from where the log stands is skipped). Answers where
/// the log leaves it, and whether the last edge's apply is still owed.
pub fn fold(records: impl IntoIterator<Item = Rec>) -> (Phase, bool) {
    let (mut at, mut owes_apply) = (Phase::Open, false);
    for record in records {
        if record == Rec::Applied {
            owes_apply = false;
            continue;
        }
        let wrote = |e: &Edge| matches!(e.log, [(r, _)] if *r == record);
        let edge = (Input::ALL.iter()).find_map(|i| step(at, *i, false).ok().filter(wrote));
        if let Some(edge) = edge {
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
    /// A `Prepare` found nothing to promise: the vote is read-only.
    pub read_only: bool,
}

impl Peer {
    /// Take `qid`'s participant machine through `input`: look the edge up
    /// and perform it — log, crash point, apply, the unforced `Applied` —
    /// then move the state, release a settled snapshot and count. Every
    /// edge is idempotent: redelivery and transport retries may deliver any
    /// control message twice, and a participant converges all the same.
    pub(crate) fn txn_edge(&self, qid: &QueryId, input: Input, via: Via) -> XdmResult<Done> {
        let mut span = self.tracer.span_here(input.names().1);
        if input == Input::Cancel {
            // a stand-down also stops what is still evaluating for the query
            let tokens = (self.active_evals.lock().get(&tx_key(qid)).cloned()).unwrap_or_default();
            span.tag("evals_cancelled", tokens.len().to_string());
            tokens.iter().for_each(|t| t.cancel());
        }
        // No snapshot: a finished query answers from its remembered
        // decision; an unknown one is presumed aborted, which acknowledges
        // an Abort or a Cancel — and a Commit: a `Prepared` is never
        // forgotten, so such a query was committed and forgotten. The rest
        // are refused.
        let snap = self.snapshots.get(qid).ok();
        let mut state = snap.as_ref().map(|s| s.state.lock());
        let (at, mut lsn) = match state.as_deref() {
            Some(TxnState::Open) => (Phase::Open, None),
            Some(TxnState::Prepared { lsn, .. }) => (Phase::Prepared, *lsn),
            Some(TxnState::Decided(d)) => (Phase::Decided(*d), None),
            None => match (self.snapshots.completed_decision(qid), input) {
                (Some(d), _) => (Phase::Decided(d), None),
                (None, Input::Abort | Input::Cancel) => (Phase::Decided(Decision::Aborted), None),
                (None, Input::Commit) => (Phase::Decided(Decision::Committed), None),
                (None, _) => return Err(SnapshotManager::no_state(qid)),
            },
        };
        let promises = at == Phase::Open && matches!(input, Input::Prepare | Input::CommitOnePhase);
        let empty = promises && snap.as_ref().is_some_and(|s| s.pul.lock().is_empty());
        let mut edge = step(at, input, empty).map_err(|refusal| match refusal {
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
        let mut done = Done {
            read_only: input == Input::Prepare && edge.next == Phase::Decided(Decision::Committed),
            ..Done::default()
        };
        // From its first append on, a one-phase commit may be decided: a
        // fault tells the coordinator the outcome is unknown — it retries —
        // never that the participant refused. Only the log (which poisons
        // itself) and the chaos harness's crash points fail there: the peer
        // is down for writes, and its restart replays what the log holds.
        let unknown = |e: XdmError| match input {
            Input::CommitOnePhase => XdmError::xrpc_outcome_unknown(format!(
                "one-phase commit failed past its guard: {e}"
            )),
            _ => e,
        };
        let mut refused = None;
        if let (Some(snap), Some(state), true) = (&snap, state.as_mut(), edge.next != at) {
            let mut crash = |point| match via {
                Via::Wire => self.crash_at(point, &mut span),
                _ => Ok(()),
            };
            let wal = self.wal();
            // a one-phase commit's ∆, applied to new document versions
            // before anything is logged
            let mut ready = None;
            if promises && !empty {
                // "it logs the union of the pending update lists to stable
                // storage, ensuring q can commit later" — compatibility is
                // the only thing that can refuse a Prepare here. The one
                // participant of a one-phase commit decides alone, so its
                // guard is the apply itself (which also catches the XQUF
                // errors the compatibility check cannot see), and its
                // refusal is the abort.
                let guard = match input {
                    Input::CommitOnePhase => {
                        apply_updates(&snap.pul.lock()).map(|e| ready = Some(e))
                    }
                    _ => snap.pul.lock().check_compatibility(),
                };
                match guard {
                    Err(e) if input == Input::CommitOnePhase => {
                        edge = step(at, Input::Abort, false).expect("Open can abort");
                        refused = Some(e);
                    }
                    res => res?,
                }
                // nothing logged, no ack: the presumed-abort case
                crash(crash_points::BEFORE_PREPARE_LOG)?;
            }
            if let (Some(w), true) = (&wal, via != Via::Replay) {
                for &(record, forced) in edge.log {
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
                    let n = log(w, &record, forced).map_err(unknown)?;
                    done.wal += t0.elapsed();
                    if let WalRecord::Prepared { .. } = record {
                        // the LSN ∆_q is logged under is the mark its apply
                        // will be guarded by
                        lsn = Some(n);
                    }
                }
            }
            if edge.apply {
                if !edge.log.is_empty() {
                    crash(crash_points::AFTER_DECISION_LOG).map_err(unknown)?;
                }
                let edits = || ready.map_or_else(|| apply_updates(&snap.pul.lock()), Ok);
                done.skipped = !self.apply_pul_marked(edits, qid, lsn).map_err(unknown)?;
                // the marker is not forced: without it replay re-drives
                // the apply and the applied-LSN mark turns that into a no-op
                if let (Some(w), false) = (&wal, edge.log.is_empty()) {
                    crash(crash_points::AFTER_APPLY_BEFORE_MARKER).map_err(unknown)?;
                    self.log_applied(w, qid, lsn.unwrap_or(0))
                        .map_err(unknown)?;
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
                match (d, input) {
                    (Decision::Committed, Input::Commit | Input::CommitOnePhase) => {
                        m.commits.fetch_add(1, Ordering::Relaxed);
                    }
                    (Decision::Aborted, Input::Abort | Input::CommitOnePhase) => {
                        m.aborts.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
                // committed, and the ack never leaves: "response lost"
                if (d, input, via) == (Decision::Committed, Input::CommitOnePhase, Via::Wire) {
                    (self.crash_at(crash_points::AFTER_ONE_PHASE_COMMIT, &mut span))
                        .map_err(unknown)?;
                }
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
        if let Some(e) = refused {
            return Err(e);
        }
        let hist = match input {
            Input::Prepare => &self.hists.twopc_prepare_micros,
            Input::Commit | Input::CommitOnePhase => &self.hists.twopc_commit_micros,
            _ => return Ok(done),
        };
        hist.record_micros(span.elapsed());
        Ok(done)
    }

    /// WS-AtomicTransaction over the XRPC channel (§2.3): a participant's
    /// five messages are inputs to its machine; `Inquire` is a restarted
    /// participant asking this peer, the coordinator, what was decided.
    pub(crate) fn handle_control(&self, req: &XrpcRequest) -> XdmResult<XrpcResponse> {
        self.stats.control_messages.fetch_add(1, Ordering::Relaxed);
        let qid = (req.query_id.as_ref())
            .ok_or_else(|| XdmError::xrpc("coordination message without queryID"))?;
        let m = &self.twopc_metrics;
        if req.method == METHOD_INQUIRE {
            let mut span = self.tracer.span_here("2pc:inquire");
            m.inquiries.fetch_add(1, Ordering::Relaxed);
            let outcome = self.coord.outcome(qid);
            span.tag("outcome", format!("{outcome:?}"));
            return Ok(outcome.into_response());
        }
        let input = Input::of_method(&req.method)
            .ok_or_else(|| XdmError::xrpc(format!("unknown control method `{}`", req.method)))?;
        let done = self.txn_edge(qid, input, Via::Wire)?;
        match input {
            Input::Prepare => {
                m.prepares.fetch_add(1, Ordering::Relaxed);
                let vote = if done.read_only {
                    Vote::ReadOnly
                } else {
                    Vote::Prepared
                };
                return Ok(vote.into_response());
            }
            Input::Cancel => m.cancels.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        let mut resp = XrpcResponse::new(WSAT_MODULE, req.method.clone());
        resp.results.push(Sequence::empty());
        Ok(resp)
    }

    /// `applyUpdates(∆)` into the store.
    pub(crate) fn apply_pul(&self, pul: &PendingUpdateList) -> XdmResult<()> {
        self.install(apply_updates(pul)?)
    }

    /// Put the new document versions `apply_updates` made into the store.
    fn install(&self, edits: Vec<DocEdit>) -> XdmResult<()> {
        for edit in edits {
            if let Some(uri) = &edit.uri {
                self.docs.replace(uri, edit.new)?;
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
    /// twice. `edits` makes the new document versions. Returns whether the
    /// ∆ was actually applied.
    pub(crate) fn apply_pul_marked(
        &self,
        edits: impl FnOnce() -> XdmResult<Vec<DocEdit>>,
        qid: &QueryId,
        lsn: Option<u64>,
    ) -> XdmResult<bool> {
        let Some(lsn) = lsn else {
            // never logged: nothing could replay it
            self.install(edits()?)?;
            return Ok(true);
        };
        let key = Self::mark_key(qid);
        if self.docs.applied_mark(&key).is_some_and(|m| m >= lsn) {
            return Ok(false);
        }
        self.install(edits()?)?;
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
    pub(crate) fn crash_at(
        &self,
        point: &'static str,
        span: &mut xrpc_obs::SpanGuard,
    ) -> XdmResult<()> {
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
    /// Prepare or decision in flight — or a one-phase commit, which the
    /// coordinator may still retry: `Inquire` answers `InDoubt`.
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
    /// The commit point: every participant prepared (the writers among
    /// them, who are told).
    Commit(&'a [String]),
    /// Every participant acknowledged the decision.
    Acked,
    /// No commit record will follow: decided abort, gave up undecided,
    /// every vote read-only, or a one-phase commit's participant answered.
    End,
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
        // the commit point — forced before any Commit leaves (a compaction
        // may have dropped the begin record it supersedes)
        (None | Some(Coordinating), Commit(_)) => edge(
            Some(Committed { delivered: false }),
            Some((Rec::CoordinatorCommit, true)),
        ),
        (Some(Coordinating), End) => edge(None, Some((Rec::CoordinatorEnd, false))),
        (Some(Coordinating), Restart) => edge(Some(ReAbort), None),
        // bounds how long a restarted coordinator keeps redelivering; not
        // forced: if it is lost, participants that finished long ago
        // acknowledge the redelivered Commit of a query they forgot
        (Some(Committed { delivered: false }), Acked) => edge(
            Some(Committed { delivered: true }),
            Some((Rec::CoordinatorEnd, false)),
        ),
        (Some(Committed { delivered: true }), Forget) => edge(None, None),
        (Some(ReAbort), Acked) => edge(None, Some((Rec::CoordinatorEnd, false))),
        // the sweep and a live delivery may both report; nothing in flight
        // survives a second restart; nothing to end
        (Some(Committed { delivered: true }), Acked)
        | (Some(Committed { .. } | ReAbort), Restart)
        | (None, Acked | End | Forget | Restart) => edge(at, None),
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
                    Some(CoordState::Coordinating) => CoordInput::End,
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
        let committed = To(Decided(Committed));
        let not_single = || Refused(Refusal::NotSingleSite);
        let want = [
            (Open, Prepare, To(Prepared)),
            (Open, Commit, Refused(Refusal::CommitBeforePrepare)),
            (Open, CommitOnePhase, committed),
            (Open, CommitSingleSite, To(Decided(Committed))),
            (Open, Abort, To(Decided(Aborted))),
            (Open, Cancel, To(Decided(Aborted))),
            (Prepared, Prepare, Again),
            (Prepared, Commit, To(Decided(Committed))),
            (Prepared, CommitOnePhase, To(Decided(Committed))),
            (Prepared, CommitSingleSite, not_single()),
            (Prepared, Abort, To(Decided(Aborted))),
            (Prepared, Cancel, Again),
            (Decided(Committed), Prepare, Again),
            (Decided(Committed), Commit, Again),
            (Decided(Committed), CommitOnePhase, Again),
            (Decided(Committed), CommitSingleSite, not_single()),
            (Decided(Committed), Abort, Again),
            (Decided(Committed), Cancel, Again),
            (Decided(Aborted), Prepare, Refused(Refusal::Finished)),
            (Decided(Aborted), Commit, Refused(Refusal::CommitAfterAbort)),
            (
                Decided(Aborted),
                CommitOnePhase,
                Refused(Refusal::CommitAfterAbort),
            ),
            (Decided(Aborted), CommitSingleSite, not_single()),
            (Decided(Aborted), Abort, Again),
            (Decided(Aborted), Cancel, Again),
        ];
        let row = |at, input, empty| match step(at, input, empty) {
            Ok(edge) if edge.next == at => {
                assert_eq!((edge.log, edge.apply), (&[][..], false), "{at:?} {input:?}");
                Again
            }
            Ok(edge) => To(edge.next),
            Err(r) => Refused(r),
        };
        let mut have = Vec::new();
        for at in PHASES {
            for input in Input::ALL {
                have.push((at, input, row(at, input, false)));
            }
        }
        assert_eq!(have, want);

        // an empty ∆ changes two rows: it settles where a ∆ would be
        // promised, and writes nothing
        for at in PHASES {
            for input in Input::ALL {
                let (full, empty) = (step(at, input, false), step(at, input, true));
                if at == Open && matches!(input, Prepare | CommitOnePhase) {
                    let settled = Edge {
                        next: Decided(Committed),
                        log: &[],
                        apply: false,
                    };
                    assert_eq!(empty, Ok(settled), "{input:?}");
                } else {
                    assert_eq!(empty, full, "{at:?} {input:?}");
                }
            }
        }
    }

    /// The wire's vocabulary: every control method is exactly one thing —
    /// an input to the participant's table, or `Inquire`, a lookup in the
    /// coordinator's — and every input but the single-site commit has one.
    #[test]
    fn each_control_method_is_exactly_one_input() {
        for method in xrpc_proto::control::METHODS {
            let inputs = Input::ALL.iter().filter(|i| i.names().0 == Some(method));
            let meanings = inputs.count() + usize::from(method == METHOD_INQUIRE);
            assert_eq!(meanings, 1, "{method}");
        }
        for input in Input::ALL {
            let on_wire = input.names().0.map(|m| Input::of_method(m) == Some(input));
            assert_eq!(on_wire.is_none(), input == Input::CommitSingleSite);
            assert_ne!(on_wire, Some(false), "{input:?}");
        }
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
        CoordInput::End,
        CoordInput::Forget,
        CoordInput::Restart,
    ];

    #[test]
    fn the_coordinator_table_is_total_and_is_this_table() {
        use CoordState::*;
        use Row::*;
        let undelivered = Some(Committed { delivered: false });
        let delivered = Some(Committed { delivered: true });
        // Begin, Commit, Acked, End, Forget, Restart
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
                let Ok(edge) = step(at, input, false) else {
                    continue;
                };
                for &(record, forced) in edge.log {
                    emit((record, "participant", forced));
                }
                if edge.apply && !edge.log.is_empty() {
                    emit((Rec::Applied, "participant", false));
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
            (Rec::Prepared, "participant", false),
            (Rec::Decision(Committed), "participant", true),
            (Rec::Applied, "participant", false),
            (Rec::Decision(Aborted), "participant", false),
            (Rec::CoordinatorBegin, "coordinator", false),
            (Rec::CoordinatorCommit, "coordinator", true),
            (Rec::CoordinatorEnd, "coordinator", false),
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
    /// every input sequence, and every time it has written an edge's last
    /// record, folding what the log holds so far gives where that edge leads
    /// and whether its apply (and the unwritten `Applied`) is still owed.
    /// Cut inside a longer edge, the log folds to where the same input,
    /// redelivered, writes the rest of the edge and ends where it would
    /// have: a one-phase commit whose `Prepared` got out is a prepared
    /// participant the coordinator's retry commits.
    #[test]
    fn folding_a_log_prefix_is_where_the_live_driver_stood_when_it_wrote_it() {
        fn walk(at: Phase, written: &mut Vec<Rec>, depth: usize, checked: &mut usize) {
            for input in Input::ALL {
                let Ok(edge) = step(at, input, false) else {
                    continue;
                };
                if edge.next == at || depth == 0 {
                    continue;
                }
                let before = written.len();
                for (i, &(record, _)) in edge.log.iter().enumerate() {
                    written.push(record);
                    let folded = fold(written.iter().copied());
                    *checked += 1;
                    if i + 1 < edge.log.len() {
                        let retry = step(folded.0, input, false).map(|e| (e, folded.1));
                        let rest = Edge {
                            log: &edge.log[i + 1..],
                            ..edge
                        };
                        assert_eq!(retry, Ok((rest, false)), "after {written:?}");
                        continue;
                    }
                    assert_eq!(folded, (edge.next, edge.apply), "after {written:?}");
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
        // Prepared; + Decision{Committed}; + Applied — by Commit and by a
        // one-phase retry; Prepared + Decision{Aborted}; the one-phase
        // edge's Prepared; + Decision{Committed}; + Applied
        assert_eq!(checked, 9, "prefixes checked");
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
            CoordInput::End,
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
