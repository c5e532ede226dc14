//! Two-phase commit for distributed XRPC updates, modeled on
//! WS-AtomicTransaction / WS-Coordination (paper §2.3): the originating
//! peer registers every participating peer (learned from the piggybacked
//! peer lists) and drives Prepare → Commit (or Abort) over the same SOAP
//! channel that carries XRPC calls.
//!
//! Control messages are encoded as XRPC requests against the reserved
//! module namespace [`WSAT_MODULE`], so any XRPC endpoint doubles as a
//! WS-AT participant — the paper's requirement that "XRPC systems must
//! implement support for these web service interfaces ... over the same
//! HTTP SOAP server that runs XRPC".

use crate::client::{Answer, XrpcClient};
use crate::peer::Peer;
use crate::txn::{CoordInput, Input, Via};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xdm::{Sequence, XdmError, XdmResult};
use xrpc_net::crash_points;
use xrpc_proto::{QueryId, Vote, XrpcResponse};

// The control vocabulary lives in xrpc-proto (shared with recovery and
// external tooling); re-exported here for the existing call sites.
pub use xrpc_proto::control::{
    METHOD_ABORT, METHOD_CANCEL, METHOD_COMMIT, METHOD_COMMIT_ONE_PHASE, METHOD_INQUIRE,
    METHOD_PREPARE, WSAT_MODULE,
};

/// 2PC observability: one block per peer, covering both its participant
/// and coordinator roles (exposed next to the transport's `NetMetrics`).
/// Chiefly: `hazards` counts every decision delivery abandoned after its
/// retry budget — including the abort deliveries the coordinator used to
/// drop with `let _ =` — and `recoveries` counts transactions resolved by
/// restart recovery rather than the live protocol.
#[derive(Debug, Default)]
pub struct TwoPcMetrics {
    /// Prepare requests this peer acknowledged (participant side).
    pub prepares: AtomicU64,
    /// Commit decisions applied (participant side).
    pub commits: AtomicU64,
    /// Abort decisions handled (participant side).
    pub aborts: AtomicU64,
    /// Decision deliveries beyond the first per participant
    /// (coordinator side — the redelivery loop working).
    pub redeliveries: AtomicU64,
    /// Decision deliveries abandoned after the attempt budget
    /// (coordinator side): commit hazards, undeliverable aborts and
    /// one-phase commits whose outcome is unknown.
    pub hazards: AtomicU64,
    /// Transactions whose outcome was settled by restart recovery
    /// (WAL replay + inquiry / redelivery), not the live protocol.
    pub recoveries: AtomicU64,
    /// Inquire requests answered (coordinator side).
    pub inquiries: AtomicU64,
    /// Crashed-undecided coordinations whose participants were
    /// proactively re-told to abort by the recovery sweep.
    pub reaborts: AtomicU64,
    /// `Cancel` control messages handled (participant side): best-effort
    /// releases fanned out by an originator whose query timed out. A
    /// prepared participant counts the message but ignores the release.
    pub cancels: AtomicU64,
}

impl TwoPcMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn snapshot(&self) -> TwoPcSnapshot {
        TwoPcSnapshot {
            prepares: self.prepares.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            redeliveries: self.redeliveries.load(Ordering::Relaxed),
            hazards: self.hazards.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            inquiries: self.inquiries.load(Ordering::Relaxed),
            reaborts: self.reaborts.load(Ordering::Relaxed),
            cancels: self.cancels.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`TwoPcMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TwoPcSnapshot {
    pub prepares: u64,
    pub commits: u64,
    pub aborts: u64,
    pub redeliveries: u64,
    pub hazards: u64,
    pub recoveries: u64,
    pub inquiries: u64,
    pub reaborts: u64,
    pub cancels: u64,
}

/// Coordinator tuning: per-phase deadline and decision-redelivery bounds.
#[derive(Debug, Clone, Copy)]
pub struct TwoPcConfig {
    /// Wall-clock budget for the prepare phase. Overrunning it flips the
    /// decision to abort — safe, since nothing has committed yet.
    ///
    /// The coordinator waits for every prepare before checking this
    /// deadline, so the *hard* bound on the phase comes from the
    /// transport's own per-call deadline / read timeout: configure the
    /// transport (e.g. `RetryPolicy::call_deadline`, `HttpConfig` read
    /// timeout) shorter than this value, or a hung `send_control` will
    /// hold the coordinator past the deadline and the check merely flips
    /// the already-late outcome to abort post hoc.
    pub prepare_deadline: Duration,
    /// Delivery attempts for the Commit/Abort decision per participant
    /// (including the first). Participants answer decision redeliveries
    /// idempotently, so a transiently-partitioned one converges instead of
    /// surfacing a heuristic hazard on the first blip.
    pub decision_max_attempts: u32,
    /// Backoff before the first decision redelivery; doubles per attempt.
    pub decision_backoff: Duration,
}

impl Default for TwoPcConfig {
    fn default() -> Self {
        TwoPcConfig {
            prepare_deadline: Duration::from_secs(30),
            decision_max_attempts: 4,
            decision_backoff: Duration::from_millis(20),
        }
    }
}

/// Outcome of a coordination round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitOutcome {
    Committed { participants: usize },
    Aborted { reason: String },
}

/// Drive 2PC as `peer`, the originator of `qid`, over `participants`.
///
/// Phase 1 sends `Prepare` to every participant *concurrently* (the first
/// from the calling thread, the others from scoped threads); any
/// failure (or overrunning the phase deadline) flips the decision to
/// abort. A participant whose ∆ is empty votes read-only: it promised
/// nothing and hears nothing more. Phase 2 delivers the decision —
/// `Commit` only when every participant prepared, `Abort` otherwise — to
/// **every other** participant, retrying each delivery with bounded
/// exponential backoff. Only when a Commit cannot be delivered within the
/// attempt budget does the coordinator surface a heuristic-hazard error
/// (that participant still holds its prepared ∆_q).
///
/// With one remote participant and no ∆ of its own the coordinator has
/// nobody to reach agreement with: `commit_one_phase`.
///
/// The originator is a participant of its own query: its ∆ — what the
/// query updated here and what calls back into this peer merged — is
/// promised before the commit point and settled after the decision like
/// anyone's, by function call instead of message. `own` says it holds one
/// (the caller knows from the snapshot it pinned; should that snapshot
/// have expired meanwhile, the own Prepare fails and everyone aborts).
///
/// The commit point is the coordinator table's `Commit` edge, *forced*
/// after unanimous prepare and **before** any `Commit` delivery (a crash
/// before it recovers as abort, one after it by redelivering `Commit`; a
/// *simulated* crash returns at once, doing no post-mortem work). Aborts
/// are never logged: absence of a commit record *is* the abort record.
/// Once every participant has acknowledged, the `Acked` edge's
/// `CoordinatorEnd` retires the entry so the log can checkpoint.
pub fn run_two_phase_commit(
    peer: &Peer,
    client: &XrpcClient,
    qid: &QueryId,
    participants: &[String],
    own: bool,
) -> XdmResult<CommitOutcome> {
    if let ([_], false) = (participants, own) {
        return commit_one_phase(peer, client, qid, participants, 0);
    }
    let (tracer, hists, metrics) = (&peer.tracer, &peer.hists, &peer.twopc_metrics);
    let config = *peer.twopc_config.read();
    let own_edge = |input| -> XdmResult<()> {
        if own {
            let done = peer.txn_edge(qid, input, Via::Call)?;
            if let Some(clock) = &client.clock {
                clock.record(xrpc_obs::Phase::Wal, done.wal);
            }
        }
        Ok(())
    };
    if let Err(e) = own_edge(Input::Prepare) {
        // nobody else has promised anything yet
        client.send_cancel(participants, qid);
        return Ok(CommitOutcome::Aborted {
            reason: e.to_string(),
        });
    }
    // advisory: losing it costs the re-abort sweep, never correctness
    let _ = peer.coord_edge(qid, CoordInput::Begin(participants));

    // Phase 1: Prepare — participants log their ∆_q and enter prepared
    // state (or refuse). All prepares run concurrently; the phase cost is
    // the slowest participant, not the sum (and one slow peer cannot
    // serialize the others behind it). The calling thread takes the first
    // participant itself, so the common single-participant transaction
    // spawns nothing.
    let phase_start = Instant::now();
    let prepare_span = tracer.span_here("2pc:prepare-phase");
    // the phase span's context is ambient on *this* thread only; hand it
    // to the scoped prepare threads so their control sends stay in-trace
    let prepare_ctx = xrpc_obs::current_context();
    // a transport that panics is a participant that failed to prepare,
    // whichever thread its send ran on: the decision still reaches everyone
    let prepare = |p: &str| {
        let send = || -> XdmResult<_> { client.control(p, METHOD_PREPARE, qid)? };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(send))
            .unwrap_or_else(|_| Err(XdmError::xrpc("prepare panicked")))
            .map(|reply| Vote::from_response(&reply))
    };
    let votes: Vec<XdmResult<Vote>> = std::thread::scope(|scope| {
        let mut rest = participants.iter();
        let first = rest.next();
        let handles: Vec<_> = rest
            .map(|p| {
                scope.spawn(|| {
                    let _trace = xrpc_obs::set_current_context(prepare_ctx);
                    prepare(p)
                })
            })
            .collect();
        let inline = first.map(|p| prepare(p));
        let joined = handles.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|_| Err(XdmError::xrpc("prepare thread panicked")))
        });
        inline.into_iter().chain(joined).collect()
    });
    hists
        .twopc_prepare_phase_micros
        .record_micros(prepare_span.elapsed());
    drop(prepare_span);
    // Phase 2 tells everyone but the read-only voters — the ones whose
    // Prepare failed too: a participant whose Prepare *response* was lost
    // is prepared even though the coordinator never heard back, and must
    // be released.
    let (mut failure, mut told) = (None, Vec::new());
    for (p, vote) in participants.iter().zip(votes) {
        match vote {
            Ok(Vote::ReadOnly) => continue,
            Ok(Vote::Prepared) => {}
            Err(e) => {
                failure.get_or_insert(e);
            }
        }
        told.push(p.clone());
    }
    if failure.is_none() && phase_start.elapsed() > config.prepare_deadline {
        failure = Some(XdmError::xrpc(format!(
            "2PC prepare phase exceeded its {:?} deadline",
            config.prepare_deadline
        )));
    }

    let mut decision_span = tracer.span_here("2pc:decision-phase");
    decision_span.tag(
        "decision",
        if failure.is_some() { "abort" } else { "commit" },
    );
    let decision_start = Instant::now();
    let record_decision_phase = || {
        hists
            .twopc_decision_phase_micros
            .record_micros(decision_start.elapsed());
    };
    match failure {
        Some(err) => {
            for p in &told {
                // Abort deliveries are best effort — an unreachable
                // participant's snapshot times out on its own (presumed
                // abort) — but no longer *silent*: each abandoned delivery
                // is a hazard in the metrics.
                if deliver_decision(peer, client, p, METHOD_ABORT, qid).is_err() {
                    metrics.hazards.fetch_add(1, Ordering::Relaxed);
                }
            }
            own_edge(Input::Abort)?;
            let _ = peer.coord_edge(qid, CoordInput::End);
            record_decision_phase();
            Ok(CommitOutcome::Aborted {
                reason: err.to_string(),
            })
        }
        // nobody wrote anything: no commit point, nothing to tell
        None if told.is_empty() && !own => {
            let _ = peer.coord_edge(qid, CoordInput::End);
            record_decision_phase();
            Ok(CommitOutcome::Committed {
                participants: participants.len(),
            })
        }
        None => {
            // Unanimous prepare: force the commit record *before* any
            // Commit delivery. Under presumed abort this append is the
            // commit point — everything before it recovers as abort,
            // everything after it recovers by redelivery.
            peer.crash_at(crash_points::COORD_BEFORE_COMMIT_LOG, &mut decision_span)?;
            if let Err(e) = peer.coord_edge(qid, CoordInput::Commit(&told)) {
                // undecided, and not dead: the presumed abort
                let _ = own_edge(Input::Abort);
                let _ = peer.coord_edge(qid, CoordInput::End);
                return Err(e);
            }
            peer.crash_at(crash_points::COORD_AFTER_COMMIT_LOG, &mut decision_span)?;
            // Attempt delivery to *every* participant even when one
            // exhausts its redelivery budget — short-circuiting would leave
            // the rest holding prepared state without ever hearing the
            // decision, widening the mixed-outcome window beyond the one
            // unreachable peer. Failures are aggregated into a single
            // heuristic-hazard error afterward (those participants keep
            // their prepared logs).
            let mut hazards: Vec<String> = Vec::new();
            for p in &told {
                if let Err(e) = deliver_decision(peer, client, p, METHOD_COMMIT, qid) {
                    metrics.hazards.fetch_add(1, Ordering::Relaxed);
                    hazards.push(format!("`{p}`: {e}"));
                }
            }
            // the decision is durably commit, whatever delivery came to:
            // the originator's own ∆ follows it
            let acked = match hazards.is_empty() {
                true => peer.coord_edge(qid, CoordInput::Acked),
                false => Ok(()),
            };
            own_edge(Input::Commit)?;
            acked?;
            if !hazards.is_empty() {
                // No CoordinatorEnd: the entry stays on the books, its
                // participants may inquire, the recovery sweep redelivers.
                return Err(XdmError::xrpc(format!(
                    "2PC commit undeliverable after unanimous prepare and {} delivery attempts at: {}",
                    config.decision_max_attempts,
                    hazards.join("; ")
                )));
            }
            // every participant has acknowledged and the local ∆ is
            // settled: nobody is left to ask
            let _ = peer.coord_edge(qid, CoordInput::Forget);
            record_decision_phase();
            Ok(CommitOutcome::Committed {
                participants: participants.len(),
            })
        }
    }
}

/// The error a transaction that aborted fails its query with.
pub(crate) fn aborted(reason: impl std::fmt::Display) -> XdmError {
    XdmError::xrpc(format!("distributed transaction aborted: {reason}"))
}

/// The one participant holding a ∆ — the originator holds none — decides
/// alone: one `CommitOnePhase`, which it logs, applies and acknowledges in
/// one edge, so the coordinator has no commit point to force. While the
/// message is in flight the table holds `Coordinating`: a participant that
/// restarted mid-edge and inquires hears `InDoubt`, since a retry may still
/// come. A refusal — raised before the participant logged anything — is
/// the abort; a fault raised past that point, or an answer that never
/// comes, is not: the participant may have committed. `made` attempts came
/// before (a call sent to commit on its reply is one).
fn commit_one_phase(
    peer: &Peer,
    client: &XrpcClient,
    qid: &QueryId,
    participants: &[String],
    made: u32,
) -> XdmResult<CommitOutcome> {
    let participant = &participants[0];
    let _ = peer.coord_edge(qid, CoordInput::Begin(participants));
    let mut span = peer.tracer.span_here("2pc:decision-phase");
    span.tag("decision", "one-phase");
    let answer = deliver(
        peer,
        client,
        participant,
        METHOD_COMMIT_ONE_PHASE,
        qid,
        Some(made),
    );
    peer.crash_at(crash_points::COORD_ONE_PHASE_IN_FLIGHT, &mut span)?;
    let _ = peer.coord_edge(qid, CoordInput::End);
    peer.hists
        .twopc_decision_phase_micros
        .record_micros(span.elapsed());
    let error = match answer {
        Ok(None) => return Ok(CommitOutcome::Committed { participants: 1 }),
        Ok(Some(refusal)) => {
            let reason = refusal.to_string();
            return Ok(CommitOutcome::Aborted { reason });
        }
        Err(error) => error,
    };
    peer.twopc_metrics.hazards.fetch_add(1, Ordering::Relaxed);
    Err(XdmError::xrpc_outcome_unknown(format!(
        "one-phase commit at `{participant}`: no answer within {} attempts, it may have committed: {error}",
        peer.twopc_config.read().decision_max_attempts
    )))
}

/// Commit on reply (R*'s last agent): the query's one call is its tail, so
/// it went out `updCall="commit"`, and the callee committed in one phase
/// before it answered — or, having participants of its own, answered
/// without, and the ordinary protocol follows. The table has held
/// `Coordinating` since before the call left; its `answer` ends that. A
/// call that may have been handled but did not come back is a one-phase
/// commit whose first delivery was the call: `CommitOnePhase` retries
/// follow, and should they commit, the empty results of an updating `func`
/// stand in for the lost ones (a read-only call's are gone: the query
/// fails, though nothing is undone).
pub(crate) fn settle_reply(
    peer: &Peer,
    client: &XrpcClient,
    dest: &str,
    answer: Answer,
    func: &xqeval::FunctionRef,
    calls: usize,
) -> XdmResult<XrpcResponse> {
    let qid = (client.query_id.as_ref()).ok_or_else(|| XdmError::xrpc("no queryID to commit"))?;
    match answer {
        Err((lost, true)) => match commit_one_phase(peer, client, qid, &[dest.into()], 1)? {
            CommitOutcome::Aborted { reason } => Err(aborted(reason)),
            _ if func.updating => Ok(XrpcResponse {
                results: vec![Sequence::empty(); calls],
                committed: true,
                ..XrpcResponse::new(&func.module_ns, &func.local_name)
            }),
            _ => Err(XdmError::xrpc(format!(
                "`{dest}` committed, but the call's results were lost: {lost}"
            ))),
        },
        answer => {
            let mut span = peer.tracer.span_here("2pc:decision-phase");
            span.tag("decision", "commit-on-reply");
            peer.crash_at(crash_points::COORD_ONE_PHASE_IN_FLIGHT, &mut span)?;
            let _ = peer.coord_edge(qid, CoordInput::End);
            answer.map_err(|(e, _)| e)
        }
    }
}

/// Deliver one decision message with bounded retry (see [`deliver`]); a
/// fault is retried like a lost message.
pub(crate) fn deliver_decision(
    peer: &Peer,
    client: &XrpcClient,
    dest: &str,
    method: &str,
    qid: &QueryId,
) -> XdmResult<()> {
    deliver(peer, client, dest, method, qid, None).map(drop)
}

/// Deliver one control message with bounded retry and *full-jitter*
/// backoff (each wait is uniform in `[0, cap)` where the cap doubles per
/// attempt — see `xrpc_net::full_jitter`): after a coordinator recovers
/// and redelivers to many participants at once, deterministic backoff
/// would re-synchronize the whole cohort into retry waves. Control
/// handling is idempotent at the participant, so redelivery after an
/// ambiguous failure is always safe. For a one-phase commit, `made`
/// attempts in, a fault is the participant's answer, `Ok(Some(refusal))` —
/// unless it is outcome-unknown (XRPC0006: failed past its guard, retried
/// like a lost message), or "no such query" after an attempt whose fate is
/// unknown (a commit it may have finished and forgotten since: an error,
/// like an exhausted budget).
fn deliver(
    peer: &Peer,
    client: &XrpcClient,
    dest: &str,
    method: &str,
    qid: &QueryId,
    one_phase: Option<u32>,
) -> XdmResult<Option<XdmError>> {
    let (config, metrics) = (*peer.twopc_config.read(), &peer.twopc_metrics);
    let mut attempt = one_phase.unwrap_or(0);
    loop {
        attempt += 1;
        if attempt > 1 {
            metrics.redeliveries.fetch_add(1, Ordering::Relaxed);
        }
        let ends = one_phase.is_some();
        let error = match client.control(dest, method, qid) {
            Ok(Ok(_)) => return Ok(None),
            Ok(Err(e)) if ends && attempt > 1 && e.code == "XRPC0002" => return Err(e),
            Ok(Err(e)) if ends && e.code != "XRPC0006" => return Ok(Some(e)),
            Ok(Err(e)) | Err(e) => e,
        };
        if attempt >= config.decision_max_attempts.max(1) {
            return Err(error);
        }
        let cap = config
            .decision_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16));
        let seed = xrpc_obs::fnv1a64(dest.as_bytes())
            .wrapping_add(qid.timestamp_millis)
            .wrapping_add(attempt as u64);
        std::thread::sleep(xrpc_net::full_jitter(cap, seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use xqeval::{FunctionRef, RpcDispatcher};
    use xrpc_net::{NetProfile, SimNetwork};
    use xrpc_proto::{parse_message, XrpcFault, XrpcMessage, XrpcResponse};

    fn qid() -> QueryId {
        QueryId::new("p0", 42, 30)
    }

    /// A volatile coordinator: no log, nothing armed, nothing of its own.
    fn run_with(
        client: &XrpcClient,
        qid: &QueryId,
        participants: &[String],
        config: &TwoPcConfig,
    ) -> XdmResult<CommitOutcome> {
        let peer = Peer::new("p0", crate::EngineKind::Tree);
        peer.set_twopc_config(*config);
        run_two_phase_commit(&peer, client, qid, participants, false)
    }

    fn run(
        client: &XrpcClient,
        qid: &QueryId,
        participants: &[String],
    ) -> XdmResult<CommitOutcome> {
        run_with(client, qid, participants, &TwoPcConfig::default())
    }

    /// A scripted participant: counts Prepare/Commit/Abort/CommitOnePhase,
    /// optionally refusing the message that asks it to promise.
    fn participant(net: &SimNetwork, name: &str, refuse_prepare: bool) -> Arc<[AtomicU32; 4]> {
        let counters: Arc<[AtomicU32; 4]> = Arc::new(Default::default());
        let c = counters.clone();
        net.register(
            name,
            Arc::new(move |body: &[u8]| {
                let req = match parse_message(std::str::from_utf8(body).unwrap()).unwrap() {
                    XrpcMessage::Request(r) => r,
                    _ => panic!(),
                };
                assert_eq!(req.module, WSAT_MODULE);
                let idx = match req.method.as_str() {
                    METHOD_PREPARE => 0,
                    METHOD_COMMIT => 1,
                    METHOD_ABORT => 2,
                    METHOD_COMMIT_ONE_PHASE => 3,
                    other => panic!("unexpected control method {other}"),
                };
                c[idx].fetch_add(1, Ordering::SeqCst);
                if matches!(idx, 0 | 3) && refuse_prepare {
                    return XrpcFault::from_error(&XdmError::xrpc("conflicting transaction"))
                        .to_xml()
                        .into_bytes();
                }
                let mut resp = XrpcResponse::new(WSAT_MODULE, req.method);
                resp.results.push(Sequence::empty());
                resp.to_xml().unwrap().into_bytes()
            }),
        );
        counters
    }

    /// What each scripted participant was sent, in counter order
    /// (Prepare, Commit, Abort, CommitOnePhase — and the call, at a callee).
    fn sent<const N: usize>(c: &[AtomicU32; N]) -> [u32; N] {
        std::array::from_fn(|i| c[i].load(Ordering::SeqCst))
    }

    /// A scripted callee at `xrpc://a` of a query's one call, answering
    /// everything with `answer`; counts like [`participant`], the call last.
    fn callee(
        net: &SimNetwork,
        answer: impl Fn(&xrpc_proto::XrpcRequest) -> Vec<u8> + Send + Sync + 'static,
    ) -> Arc<[AtomicU32; 5]> {
        let counters: Arc<[AtomicU32; 5]> = Arc::new(Default::default());
        let c = counters.clone();
        net.register(
            "xrpc://a",
            Arc::new(move |body: &[u8]| {
                let XrpcMessage::Request(req) =
                    parse_message(std::str::from_utf8(body).unwrap()).unwrap()
                else {
                    panic!("a request")
                };
                let idx = [
                    METHOD_PREPARE,
                    METHOD_COMMIT,
                    METHOD_ABORT,
                    METHOD_COMMIT_ONE_PHASE,
                ]
                .iter()
                .position(|m| *m == req.method);
                c[idx.unwrap_or(4)].fetch_add(1, Ordering::SeqCst);
                answer(&req)
            }),
        );
        counters
    }

    /// A reply to `req` with one empty result, `committed` if asked to be.
    fn reply(req: &xrpc_proto::XrpcRequest, committed: bool, peers: &[&str]) -> Vec<u8> {
        let mut resp = XrpcResponse::new(&req.module, &req.method);
        resp.results.push(Sequence::empty());
        resp.committed = committed && req.upd_call == xrpc_proto::UpdCall::Commit;
        resp.participating_peers = peers.iter().map(|p| p.to_string()).collect();
        resp.to_xml().unwrap().into_bytes()
    }

    fn fault(e: XdmError) -> Vec<u8> {
        XrpcFault::from_error(&e).to_xml().into_bytes()
    }

    /// The originator of a query whose one call commits on its reply, and
    /// the client that call leaves through.
    fn coordinated(net: Arc<SimNetwork>) -> (Arc<Peer>, XrpcClient) {
        let peer = Peer::new("p0", crate::EngineKind::Tree);
        peer.set_twopc_config(TwoPcConfig {
            decision_max_attempts: 3,
            decision_backoff: Duration::from_millis(1),
            ..TwoPcConfig::default()
        });
        let client = XrpcClient::new(net).with_query_id(qid());
        *client.coordinator.lock() = Some(peer.clone());
        (peer, client)
    }

    fn set() -> FunctionRef {
        FunctionRef {
            module_ns: "test".into(),
            location_hint: None,
            local_name: "set".into(),
            arity: 0,
            updating: true,
        }
    }

    #[test]
    fn a_call_whose_reply_is_lost_commits_with_one_commit_one_phase() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let a = callee(&net, |req| reply(req, true, &["xrpc://a"]));
        net.inject_fault("xrpc://a", xrpc_net::SimFault::DropResponse);
        let (peer, client) = coordinated(net);
        let results = client.dispatch("xrpc://a", &set(), vec![vec![]]).unwrap();
        assert!(
            matches!(&results[..], [r] if r.is_empty()),
            "an updating call's results"
        );
        assert!(client.committed.load(Ordering::SeqCst));
        assert_eq!(
            sent(&a),
            [0, 0, 0, 1, 1],
            "the call, then one CommitOnePhase"
        );
        assert!(
            client.participants_snapshot().is_empty(),
            "nobody left to ask"
        );
        assert_eq!(peer.coord.outcome(&qid()), xrpc_proto::TxOutcome::Aborted);
    }

    #[test]
    fn a_call_whose_reply_is_lost_at_a_callee_that_forgot_is_outcome_unknown() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let a = callee(&net, |req| match req.method.as_str() {
            METHOD_COMMIT_ONE_PHASE => fault(crate::store::SnapshotManager::no_state(&qid())),
            _ => reply(req, true, &[]),
        });
        net.inject_fault("xrpc://a", xrpc_net::SimFault::DropResponse);
        let (peer, client) = coordinated(net);
        let err = client
            .dispatch("xrpc://a", &set(), vec![vec![]])
            .unwrap_err();
        assert_eq!(err.code, "XRPC0006", "{err}");
        assert!(!client.committed.load(Ordering::SeqCst));
        assert_eq!(
            sent(&a),
            [0, 0, 0, 1, 1],
            "forgotten after a lost attempt: unknown"
        );
        assert_eq!(peer.twopc_metrics.snapshot().hazards, 1);
    }

    #[test]
    fn a_refused_call_aborts_with_no_further_message() {
        // refused at the guard, or — its reply lost — at the retry
        for lost in [false, true] {
            let net = Arc::new(SimNetwork::new(NetProfile::instant()));
            let a = callee(&net, |req| match req.method.as_str() {
                METHOD_COMMIT_ONE_PHASE => fault(XdmError::xrpc("Commit after Abort")),
                _ => fault(aborted(XdmError::xrpc("conflicting transaction"))),
            });
            if lost {
                net.inject_fault("xrpc://a", xrpc_net::SimFault::DropResponse);
            }
            let (peer, client) = coordinated(net);
            let err = client
                .dispatch("xrpc://a", &set(), vec![vec![]])
                .unwrap_err();
            assert!(err.message.contains("transaction aborted"), "{err}");
            assert_eq!(sent(&a), [0, 0, 0, u32::from(lost), 1], "lost={lost}");
            assert_eq!(peer.twopc_metrics.snapshot().hazards, 0);
            assert_eq!(peer.coord.outcome(&qid()), xrpc_proto::TxOutcome::Aborted);
        }
    }

    #[test]
    fn a_callee_with_participants_of_its_own_answers_for_the_ordinary_protocol() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let a = callee(&net, |req| {
            reply(req, false, &["xrpc://a", "xrpc://nested"])
        });
        let nested = participant(&net, "xrpc://nested", false);
        let (peer, client) = coordinated(net);
        client.dispatch("xrpc://a", &set(), vec![vec![]]).unwrap();
        assert!(!client.committed.load(Ordering::SeqCst));
        let all = client.participants_snapshot();
        assert_eq!(all, ["xrpc://a", "xrpc://nested"]);
        let out = run_two_phase_commit(&peer, &client, &qid(), &all, false).unwrap();
        assert_eq!(out, CommitOutcome::Committed { participants: 2 });
        assert_eq!(
            sent(&a),
            [1, 1, 0, 0, 1],
            "the call, then Prepare and Commit"
        );
        assert_eq!(sent(&nested), [1, 1, 0, 0]);
    }

    #[test]
    fn all_prepare_then_all_commit() {
        // two parties or three: one Prepare and one Commit each, never a
        // one-phase commit
        for n in [2, 3] {
            let net = Arc::new(SimNetwork::new(NetProfile::instant()));
            let all: Vec<String> = (0..n).map(|i| format!("xrpc://p{i}")).collect();
            let counters: Vec<_> = all.iter().map(|p| participant(&net, p, false)).collect();
            let out = run(&XrpcClient::new(net), &qid(), &all).unwrap();
            assert_eq!(out, CommitOutcome::Committed { participants: n });
            for c in &counters {
                assert_eq!(sent(c), [1, 1, 0, 0], "{n} parties");
            }
        }
    }

    #[test]
    fn a_lone_participant_commits_in_one_phase() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let a = participant(&net, "xrpc://a", false);
        let out = run(&XrpcClient::new(net), &qid(), &["xrpc://a".to_string()]).unwrap();
        assert_eq!(out, CommitOutcome::Committed { participants: 1 });
        assert_eq!(sent(&a), [0, 0, 0, 1], "one CommitOnePhase, nothing else");
    }

    #[test]
    fn a_one_phase_refusal_aborts_with_one_delivery() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let a = participant(&net, "xrpc://a", true);
        let client = XrpcClient::new(net);
        match run(&client, &qid(), &["xrpc://a".to_string()]).unwrap() {
            CommitOutcome::Aborted { reason } => assert!(reason.contains("conflicting")),
            other => panic!("{other:?}"),
        }
        assert_eq!(sent(&a), [0, 0, 0, 1], "the refusal is final: no retry");
    }

    #[test]
    fn a_lost_one_phase_answer_is_redelivered_until_committed() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let a = participant(&net, "xrpc://a", false);
        net.inject_fault("xrpc://a", xrpc_net::SimFault::DropResponse);
        let cfg = TwoPcConfig {
            decision_max_attempts: 3,
            decision_backoff: Duration::from_millis(1),
            ..TwoPcConfig::default()
        };
        let client = XrpcClient::new(net);
        let out = run_with(&client, &qid(), &["xrpc://a".to_string()], &cfg).unwrap();
        assert_eq!(out, CommitOutcome::Committed { participants: 1 });
        assert_eq!(sent(&a), [0, 0, 0, 2], "handled, answer lost, redelivered");
    }

    #[test]
    fn an_unanswered_one_phase_commit_is_outcome_unknown_never_aborted() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let a = participant(&net, "xrpc://a", false);
        for _ in 0..2 {
            net.inject_fault("xrpc://a", xrpc_net::SimFault::DropResponse);
        }
        let cfg = TwoPcConfig {
            decision_max_attempts: 2,
            decision_backoff: Duration::from_millis(1),
            ..TwoPcConfig::default()
        };
        let client = XrpcClient::new(net);
        let err = run_with(&client, &qid(), &["xrpc://a".to_string()], &cfg).unwrap_err();
        assert_eq!(err.code, "XRPC0006", "{err}");
        // both reached a, which committed on the first: unknown is the truth
        assert_eq!(sent(&a), [0, 0, 0, 2]);
        // nobody at all: the same
        let err = run_with(&client, &qid(), &["xrpc://gone".to_string()], &cfg).unwrap_err();
        assert_eq!(err.code, "XRPC0006", "{err}");
    }

    #[test]
    fn a_fault_past_the_guard_is_retried_never_an_abort() {
        // the participant faults XRPC0006 — it failed after logging — on
        // the first `fail` deliveries and acknowledges after that
        let committed = Ok(CommitOutcome::Committed { participants: 1 });
        let unknown = Err("XRPC0006".to_string());
        for (fail, want, deliveries) in [(1, committed, 2), (3, unknown, 3)] {
            let net = Arc::new(SimNetwork::new(NetProfile::instant()));
            let handled = Arc::new(AtomicU32::new(0));
            let h = handled.clone();
            net.register(
                "xrpc://a",
                Arc::new(move |_: &[u8]| {
                    if h.fetch_add(1, Ordering::SeqCst) < fail {
                        let e = XdmError::xrpc_outcome_unknown("failed past its guard");
                        return XrpcFault::from_error(&e).to_xml().into_bytes();
                    }
                    let mut resp = XrpcResponse::new(WSAT_MODULE, METHOD_COMMIT_ONE_PHASE);
                    resp.results.push(Sequence::empty());
                    resp.to_xml().unwrap().into_bytes()
                }),
            );
            let cfg = TwoPcConfig {
                decision_max_attempts: 3,
                decision_backoff: Duration::from_millis(1),
                ..TwoPcConfig::default()
            };
            let client = XrpcClient::new(net);
            let out = run_with(&client, &qid(), &["xrpc://a".to_string()], &cfg);
            assert_eq!(out.map_err(|e| e.code), want, "fail={fail}");
            assert_eq!(handled.load(Ordering::SeqCst), deliveries, "fail={fail}");
        }
    }

    #[test]
    fn no_such_query_after_a_lost_attempt_is_outcome_unknown() {
        // the first answer is lost; by the retry the participant has
        // forgotten the query (as after a restart whose checkpoint hid a
        // finished commit): that refusal cannot mean "aborted"
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let handled = Arc::new(AtomicU32::new(0));
        let h = handled.clone();
        net.register(
            "xrpc://a",
            Arc::new(move |_: &[u8]| {
                h.fetch_add(1, Ordering::SeqCst);
                let forgot = crate::store::SnapshotManager::no_state(&qid());
                XrpcFault::from_error(&forgot).to_xml().into_bytes()
            }),
        );
        net.inject_fault("xrpc://a", xrpc_net::SimFault::DropResponse);
        let cfg = TwoPcConfig {
            decision_backoff: Duration::from_millis(1),
            ..TwoPcConfig::default()
        };
        let client = XrpcClient::new(net);
        let err = run_with(&client, &qid(), &["xrpc://a".to_string()], &cfg).unwrap_err();
        assert_eq!(err.code, "XRPC0006", "{err}");
        assert_eq!(handled.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn prepare_refusal_aborts_all_participants() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let a = participant(&net, "xrpc://a", false);
        let b = participant(&net, "xrpc://b", true); // refuses
        let c = participant(&net, "xrpc://c", false);
        let client = XrpcClient::new(net);
        let out = run(
            &client,
            &qid(),
            &[
                "xrpc://a".to_string(),
                "xrpc://b".to_string(),
                "xrpc://c".to_string(),
            ],
        )
        .unwrap();
        match out {
            CommitOutcome::Aborted { reason } => assert!(reason.contains("conflicting")),
            other => panic!("{other:?}"),
        }
        // prepare runs concurrently, so every participant saw it; the
        // abort decision also goes to all (a refuser and a prepared peer
        // whose ack was lost are indistinguishable to the coordinator)
        for x in [&a, &b, &c] {
            assert_eq!(x[0].load(Ordering::SeqCst), 1, "prepare reached everyone");
            assert_eq!(x[2].load(Ordering::SeqCst), 1, "abort reached everyone");
            assert_eq!(x[1].load(Ordering::SeqCst), 0, "nobody committed");
        }
    }

    #[test]
    fn unreachable_participant_aborts() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let a = participant(&net, "xrpc://a", false);
        let client = XrpcClient::new(net);
        let cfg = TwoPcConfig {
            decision_max_attempts: 2,
            decision_backoff: Duration::from_millis(1),
            ..TwoPcConfig::default()
        };
        let out = run_with(
            &client,
            &qid(),
            &["xrpc://a".to_string(), "xrpc://gone".to_string()],
            &cfg,
        )
        .unwrap();
        assert!(matches!(out, CommitOutcome::Aborted { .. }));
        assert_eq!(a[2].load(Ordering::SeqCst), 1);
    }

    #[test]
    fn empty_participant_set_commits_trivially() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let client = XrpcClient::new(net);
        let out = run(&client, &qid(), &[]).unwrap();
        assert_eq!(out, CommitOutcome::Committed { participants: 0 });
    }

    /// A transport that notes which thread sent each message where.
    struct Recording {
        net: Arc<SimNetwork>,
        sends: parking_lot::Mutex<Vec<(String, std::thread::ThreadId)>>,
    }

    impl xrpc_net::Transport for Recording {
        fn roundtrip(&self, dest: &str, body: &[u8]) -> Result<Vec<u8>, xrpc_net::NetError> {
            self.sends
                .lock()
                .push((dest.to_string(), std::thread::current().id()));
            self.net.roundtrip(dest, body)
        }
    }

    #[test]
    fn the_first_participant_is_prepared_on_the_calling_thread() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let _a = participant(&net, "xrpc://a", false);
        let _b = participant(&net, "xrpc://b", false);
        let recording = Arc::new(Recording {
            net,
            sends: Default::default(),
        });
        let client = XrpcClient::new(recording.clone());
        let me = std::thread::current().id();

        // the common case: one participant, every message from this thread
        let out = run(&client, &qid(), &["xrpc://a".to_string()]).unwrap();
        assert_eq!(out, CommitOutcome::Committed { participants: 1 });
        let sends = std::mem::take(&mut *recording.sends.lock());
        assert_eq!(sends.len(), 1, "CommitOnePhase");
        assert!(sends.iter().all(|(_, thread)| *thread == me), "{sends:?}");

        // two: the same code keeps the first here and spawns for the other
        let both = ["xrpc://a".to_string(), "xrpc://b".to_string()];
        run(&client, &qid(), &both).unwrap();
        let sends = recording.sends.lock();
        let prepare_thread = |dest: &str| {
            let first = sends.iter().find(|(d, _)| d == dest).expect("a Prepare");
            first.1
        };
        assert_eq!(prepare_thread("xrpc://a"), me);
        assert_ne!(prepare_thread("xrpc://b"), me);
    }

    #[test]
    fn three_slow_prepares_overlap() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let names = ["xrpc://a", "xrpc://b", "xrpc://c"];
        let link = Duration::from_millis(50);
        // every Prepare, the inline one too, waits for the other two to be in
        // flight: a coordinator that sent them one after another would hang
        // here until the rendezvous gives up and refuses
        let arrived = Arc::new((parking_lot::Mutex::new(0usize), parking_lot::Condvar::new()));
        for name in names {
            let arrived = arrived.clone();
            net.register(
                name,
                Arc::new(move |body: &[u8]| {
                    let XrpcMessage::Request(req) =
                        parse_message(std::str::from_utf8(body).unwrap()).unwrap()
                    else {
                        panic!("a request")
                    };
                    if req.method == METHOD_PREPARE {
                        let (count, all_here) = &*arrived;
                        let mut n = count.lock();
                        *n += 1;
                        all_here.notify_all();
                        while *n < names.len() {
                            if all_here.wait_timeout(&mut n, Duration::from_secs(10)) {
                                return XrpcFault::from_error(&XdmError::xrpc("alone"))
                                    .to_xml()
                                    .into_bytes();
                            }
                        }
                    }
                    let mut resp = XrpcResponse::new(WSAT_MODULE, req.method);
                    resp.results.push(Sequence::empty());
                    resp.to_xml().unwrap().into_bytes()
                }),
            );
            // the link delays the Prepare only; decisions arrive at once
            net.inject_fault(name, xrpc_net::SimFault::LatencySpike(link));
        }
        let client = XrpcClient::new(net);
        let participants: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        let out = run(&client, &qid(), &participants).unwrap();
        assert_eq!(out, CommitOutcome::Committed { participants: 3 });
    }

    #[test]
    fn a_panicking_inline_prepare_still_aborts_everyone() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        // the first participant (the one the coordinator's own thread
        // prepares) blows up inside the transport
        net.register(
            "xrpc://a",
            Arc::new(|body: &[u8]| {
                if std::str::from_utf8(body).unwrap().contains(METHOD_PREPARE) {
                    panic!("participant a blew up in Prepare");
                }
                let mut resp = XrpcResponse::new(WSAT_MODULE, METHOD_ABORT);
                resp.results.push(Sequence::empty());
                resp.to_xml().unwrap().into_bytes()
            }),
        );
        let b = participant(&net, "xrpc://b", false);
        let c = participant(&net, "xrpc://c", false);
        let a_handled = {
            let net = net.clone();
            move || net.handled_count("xrpc://a")
        };
        let client = XrpcClient::new(net);
        let all = ["xrpc://a", "xrpc://b", "xrpc://c"].map(String::from);
        let out = run(&client, &qid(), &all).unwrap();
        match out {
            CommitOutcome::Aborted { reason } => assert!(reason.contains("panicked"), "{reason}"),
            other => panic!("{other:?}"),
        }
        // the spawned prepares were joined (both ran to completion), and
        // the abort reached all three
        for x in [&b, &c] {
            assert_eq!(x[0].load(Ordering::SeqCst), 1, "prepared");
            assert_eq!(x[2].load(Ordering::SeqCst), 1, "told to abort");
            assert_eq!(x[1].load(Ordering::SeqCst), 0, "nobody committed");
        }
        assert_eq!(a_handled(), 2, "a saw its Prepare and the Abort");
    }

    #[test]
    fn lost_commit_response_is_redelivered_until_acknowledged() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let a = participant(&net, "xrpc://a", false);
        let b = participant(&net, "xrpc://b", false);
        // b: Prepare passes (zero-cost latency fault), Commit response lost
        net.inject_fault_script(
            "xrpc://b",
            [
                xrpc_net::SimFault::LatencySpike(Duration::ZERO),
                xrpc_net::SimFault::DropResponse,
            ],
        );
        let client = XrpcClient::new(net);
        let cfg = TwoPcConfig {
            decision_max_attempts: 3,
            decision_backoff: Duration::from_millis(1),
            ..TwoPcConfig::default()
        };
        let out = run_with(
            &client,
            &qid(),
            &["xrpc://a".to_string(), "xrpc://b".to_string()],
            &cfg,
        )
        .unwrap();
        assert_eq!(out, CommitOutcome::Committed { participants: 2 });
        assert_eq!(a[1].load(Ordering::SeqCst), 1);
        // the first Commit *was* handled at b (only its ack was lost), so
        // the redelivery makes it two deliveries — the participant side is
        // responsible for idempotence (see peer::handle_control)
        assert_eq!(b[1].load(Ordering::SeqCst), 2);
    }

    #[test]
    fn undeliverable_commit_surfaces_heuristic_hazard() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let _a = participant(&net, "xrpc://a", false);
        let b = participant(&net, "xrpc://b", false);
        net.inject_fault_script(
            "xrpc://b",
            [
                xrpc_net::SimFault::LatencySpike(Duration::ZERO),
                xrpc_net::SimFault::DropResponse,
                xrpc_net::SimFault::DropResponse,
            ],
        );
        let client = XrpcClient::new(net);
        let cfg = TwoPcConfig {
            decision_max_attempts: 2,
            decision_backoff: Duration::from_millis(1),
            ..TwoPcConfig::default()
        };
        let err = run_with(
            &client,
            &qid(),
            &["xrpc://a".to_string(), "xrpc://b".to_string()],
            &cfg,
        )
        .unwrap_err();
        assert!(
            err.message.contains("after unanimous prepare"),
            "{}",
            err.message
        );
        // both deliveries reached b (responses lost) — the hazard is about
        // the coordinator's knowledge, not the participant's state
        assert_eq!(b[1].load(Ordering::SeqCst), 2);
    }

    #[test]
    fn commit_still_reaches_later_participants_when_one_exhausts_budget() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let a = participant(&net, "xrpc://a", false);
        let b = participant(&net, "xrpc://b", false);
        // a: Prepare passes, every Commit delivery's response is lost
        net.inject_fault_script(
            "xrpc://a",
            [
                xrpc_net::SimFault::LatencySpike(Duration::ZERO),
                xrpc_net::SimFault::DropResponse,
                xrpc_net::SimFault::DropResponse,
            ],
        );
        let client = XrpcClient::new(net);
        let cfg = TwoPcConfig {
            decision_max_attempts: 2,
            decision_backoff: Duration::from_millis(1),
            ..TwoPcConfig::default()
        };
        let err = run_with(
            &client,
            &qid(),
            &["xrpc://a".to_string(), "xrpc://b".to_string()],
            &cfg,
        )
        .unwrap_err();
        // the hazard names the participant the coordinator lost track of...
        assert!(err.message.contains("xrpc://a"), "{}", err.message);
        assert!(
            err.message.contains("after unanimous prepare"),
            "{}",
            err.message
        );
        // ...but b — listed after a — must still have heard the decision,
        // not been starved by a short-circuit on a's failure
        assert_eq!(
            b[1].load(Ordering::SeqCst),
            1,
            "b must receive Commit despite a exhausting its budget"
        );
        assert_eq!(a[1].load(Ordering::SeqCst), 2, "both deliveries reached a");
    }
}
