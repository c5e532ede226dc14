//! The XRPC client stub (paper §3, "message sender API"): turns dispatch
//! requests from either engine into SOAP XRPC messages on a [`Transport`],
//! parses responses, converts faults into local run-time errors, and
//! collects the piggybacked participating-peer lists for 2PC.

use crate::peer::Peer;
use crate::txn::CoordInput;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;
use xdm::{Sequence, XdmError, XdmResult};
use xqeval::context::{FunctionRef, RpcDispatcher};
use xqeval::CancelToken;
use xrpc_net::{CallHint, ResilientTransport, Transport};
use xrpc_obs::{Phase, PhaseClock};
use xrpc_proto::{parse_message, QueryId, UpdCall, XrpcMessage, XrpcRequest, XrpcResponse};

/// One query's view of the network: the transport and the queryID (when
/// the query runs under repeatable-read isolation: the callee defers what
/// its updating functions leave, rule R'Fu).
pub struct XrpcClient {
    pub transport: Arc<dyn Transport>,
    pub query_id: Option<QueryId>,
    /// The peer coordinating the query while its one call, its tail, is
    /// still to be sent `updCall="commit"` (see `twopc::settle_reply`).
    pub(crate) coordinator: Mutex<Option<Arc<Peer>>>,
    /// That call's callee committed the transaction before it answered.
    pub(crate) committed: std::sync::atomic::AtomicBool,
    /// The sending peer: with it attached, every dispatch opens a client
    /// span in its tracer (child of the thread's ambient context) whose
    /// context is injected into the envelope header, and call latency /
    /// message size land in its histograms. Without it the client still
    /// *propagates* an ambient context on the wire — it just records
    /// nothing locally.
    pub(crate) sender: Option<Arc<Peer>>,
    /// Every peer that participated in this query (directly or nested) —
    /// the originator registers these with the 2PC coordinator (§2.3).
    pub participants: Mutex<HashSet<String>>,
    /// Requests sent (for experiment accounting).
    pub requests_sent: std::sync::atomic::AtomicU64,
    /// Individual calls sent (≥ requests when Bulk RPC batches).
    pub calls_sent: std::sync::atomic::AtomicU64,
    /// The transport's resilience decorator: the number of calls each
    /// dispatch carried is reported into its per-destination `DestStats`
    /// (the transport itself only sees opaque bodies).
    pub net_feedback: Option<Arc<ResilientTransport>>,
    /// The query's deadline/cancellation token. With it attached, every
    /// dispatch checks the budget before touching the wire (an exhausted
    /// budget fails locally with `XRPC0004`), stamps the *remaining*
    /// budget into the envelope's `<xrpc:budget>` header so nested hops
    /// inherit it, and caps the retry layer's backoff sleeps to the
    /// budget via the ambient deadline. 2PC control messages bypass it —
    /// past the commit point the decision protocol must run to
    /// completion regardless of the originator's budget.
    pub cancel: Option<Arc<CancelToken>>,
    /// The query's profile collector, when it runs with `xrpc:profile`
    /// on. Every dispatch then stamps a `<xrpc:profile>` request header
    /// (mode + this peer as `via` + depth+1), charges wire bytes to the
    /// collector, and absorbs the hop profiles the response header
    /// carries back.
    pub profile: Option<Arc<xrpc_obs::ProfileCollector>>,
    /// The hop's phase clock (the originator's always, a served hop's when
    /// it is profiled): every dispatch enters marshal and network on it,
    /// from whichever thread sends.
    pub clock: Option<Arc<PhaseClock>>,
}

impl XrpcClient {
    pub fn new(transport: Arc<dyn Transport>) -> Self {
        XrpcClient {
            transport,
            query_id: None,
            coordinator: Mutex::new(None),
            committed: Default::default(),
            sender: None,
            participants: Mutex::new(HashSet::new()),
            requests_sent: std::sync::atomic::AtomicU64::new(0),
            calls_sent: std::sync::atomic::AtomicU64::new(0),
            net_feedback: None,
            cancel: None,
            profile: None,
            clock: None,
        }
    }

    pub fn with_query_id(mut self, qid: QueryId) -> Self {
        self.query_id = Some(qid);
        self
    }

    pub fn participants_snapshot(&self) -> Vec<String> {
        let mut v: Vec<String> = self.participants.lock().iter().cloned().collect();
        v.sort();
        v
    }

    /// Send a raw control request (used by the 2PC driver). Control
    /// messages are idempotent at the participant (re-Prepare of a
    /// prepared query, redelivered Commit/Abort of a decided one are all
    /// answered OK), so the transport may retry them freely.
    pub fn send_control(&self, dest: &str, method: &str, qid: &QueryId) -> XdmResult<()> {
        self.control(dest, method, qid)?.map(|_| ())
    }

    /// One control round trip with its two ways to fail kept apart: the
    /// outer error is the transport's — the message may or may not have
    /// been handled — and the inner one the participant's answer, a fault.
    /// The reply is the peer's response body: `Prepare` votes and `Inquire`
    /// answers ride in it (see `xrpc_proto::control`).
    pub fn control(
        &self,
        dest: &str,
        method: &str,
        qid: &QueryId,
    ) -> XdmResult<XdmResult<xrpc_proto::XrpcResponse>> {
        refuse_on_reactor(dest)?;
        let mut req =
            XrpcRequest::new(crate::twopc::WSAT_MODULE, method, 0).with_query_id(qid.clone());
        req.push_call(vec![]);
        // Control messages continue the coordinator's trace: a span per
        // delivery when a tracer is attached, else the bare ambient
        // context (so the participant's server span still links up).
        let mut span = self.sender.as_ref().map(|p| {
            let mut s = p.tracer.span_here(format!("control:{method}"));
            s.tag("dest", dest.to_owned());
            s
        });
        req.trace = span
            .as_ref()
            .map(|s| s.context())
            .or_else(xrpc_obs::current_context);
        let xml = req.to_xml()?;
        let resp = self
            .transport
            .roundtrip_hinted(dest, xml.as_bytes(), CallHint::ReadOnly)
            .map_err(|e| {
                if let Some(s) = span.as_mut() {
                    s.tag("net_error", format!("{:?}", e.kind));
                }
                XdmError::xrpc(e.to_string())
            })?;
        match parse_message(
            std::str::from_utf8(&resp).map_err(|_| XdmError::xrpc("non-UTF8 response"))?,
        )? {
            XrpcMessage::Response(r) => Ok(Ok(r)),
            XrpcMessage::Fault(f) => Ok(Err(f.to_error())),
            XrpcMessage::Request(_) => Err(XdmError::xrpc("unexpected request as reply")),
        }
    }

    /// Best-effort `Cancel` fan-out: tell every destination peer the query
    /// is over so they stop evaluating and release its isolated state.
    /// Errors are swallowed — a peer that misses the message converges via
    /// its own deadline sweep, and prepared participants ignore it anyway
    /// (the decision protocol owns them past that point). Returns how many
    /// peers acknowledged.
    pub fn send_cancel(&self, dests: &[String], qid: &QueryId) -> usize {
        let mut acked = 0;
        for dest in dests {
            if self
                .send_control(dest, crate::twopc::METHOD_CANCEL, qid)
                .is_ok()
            {
                acked += 1;
            }
        }
        acked
    }
}

impl XrpcClient {
    /// Ship one Bulk RPC message carrying `calls` and parse its reply.
    fn dispatch_one(
        &self,
        dest: &str,
        func: &FunctionRef,
        calls: Vec<Vec<Sequence>>,
    ) -> XdmResult<Vec<Sequence>> {
        use std::sync::atomic::Ordering::Relaxed;
        refuse_on_reactor(dest)?;
        let ncalls = calls.len();
        // Deadline propagation: fail locally (XRPC0004/XRPC0005) before
        // spending any wire time on a dead budget, then stamp whatever is
        // left at *send time* into the envelope — each hop's receiver sees
        // strictly less budget than its caller did.
        if let Some(tok) = &self.cancel {
            tok.check_now()?;
        }
        let mut req = XrpcRequest::new(func.module_ns.clone(), func.local_name.clone(), func.arity);
        req.budget_millis = self.cancel.as_ref().and_then(|t| t.remaining_millis());
        req.location = func.location_hint.clone();
        req.query_id = self.query_id.clone();
        // the query's one call, sent as nobody else has heard of the query,
        // commits on its reply (a document fetch is no call)
        let coordinator = (func.module_ns != crate::remote_docs::DOC_MODULE
            && self.participants.lock().is_empty())
        .then(|| self.coordinator.lock().take())
        .flatten();
        req.upd_call = match (&coordinator, func.updating && req.query_id.is_some()) {
            (Some(_), _) => UpdCall::Commit,
            (None, true) => UpdCall::Deferred,
            (None, false) => UpdCall::Immediate,
        };
        for c in calls {
            req.push_call(c);
        }
        let seq_no = self.requests_sent.fetch_add(1, Relaxed);
        // every call of an isolated query is stamped: the callee defers an
        // updating function's ∆ whatever the marker says, and tells a
        // transport redelivery (identical bytes, same seq) from two
        // genuinely identical dispatches (different seq)
        req.seq = req.query_id.is_some().then_some(seq_no);
        // One client span per dispatch; its context rides in the envelope
        // header so the callee's server span joins the same trace. With no
        // tracer the ambient context (if any) is forwarded untouched.
        let mut span = self.sender.as_ref().map(|p| {
            let mut s = p.tracer.span_here("client:call");
            s.tag("dest", dest.to_owned());
            s.tag("method", req.method.clone());
            s
        });
        req.trace = span
            .as_ref()
            .map(|s| s.context())
            .or_else(xrpc_obs::current_context);
        // Ask the callee to profile its hop: it sees this peer as `via`
        // and runs one level deeper in the call chain.
        if let Some(col) = &self.profile {
            req.profile = Some(xrpc_proto::ProfileRequest {
                mode: col.mode,
                via: col.peer.clone(),
                depth: col.depth + 1,
            });
        }
        // serialize into a recycled buffer sized from the cheap estimate
        let marshal = self.clock.as_ref().map(|c| c.enter(Phase::Marshal));
        let mut xml = xrpc_net::BufferPool::global().get_string(req.estimated_wire_size());
        req.write_xml(&mut xml)?;
        drop(marshal);
        self.calls_sent.fetch_add(ncalls as u64, Relaxed);
        // Retry semantics (see xrpc-net): read-only calls are safe to
        // resend after any retryable failure; deferred updates (rule R'Fu)
        // are redelivery-safe because the peer merges each request's ∆
        // into the snapshot PUL at most once (request-hash dedupe);
        // immediate updates (rule RFu) and a call that commits on its reply
        // may only be resent when the request provably never reached the
        // peer.
        let hint = match (req.upd_call, func.updating) {
            (UpdCall::Commit, _) | (UpdCall::Immediate, true) => CallHint::Update,
            (UpdCall::Deferred, _) => CallHint::DeferredUpdate,
            (UpdCall::Immediate, false) => CallHint::ReadOnly,
        };
        if let (Some(peer), Some(qid)) = (&coordinator, &self.query_id) {
            // a callee that restarts mid-commit and asks hears `InDoubt`
            let _ = peer.coord_edge(qid, CoordInput::Begin(&[dest.to_string()]));
        }
        if let Some(p) = &self.sender {
            p.hists.message_bytes.record(xml.len() as u64);
        }
        let started = std::time::Instant::now();
        // Cap the retry layer's cumulative backoff to the query budget for
        // the duration of this round-trip (no-op without a deadline).
        let budget_guard = self
            .cancel
            .as_ref()
            .and_then(|t| t.deadline())
            .map(|d| xrpc_net::set_ambient_deadline(Some(d)));
        // "network" is the whole round trip as this hop saw it, the
        // callee's own time included: each hop's phases account for *its*
        // wall clock
        let network = self.clock.as_ref().map(|c| c.enter(Phase::Network));
        let sent = self.transport.roundtrip_hinted(dest, xml.as_bytes(), hint);
        drop(network);
        // past the call, settling it is the decision protocol's: no budget
        drop(budget_guard);
        let answer = sent.map_err(|e| {
            // the typed failure kind lands on the span, so a trace
            // shows *how* a hop died, not just that it did
            if let Some(s) = span.as_mut() {
                s.tag("net_error", format!("{:?}", e.kind));
            }
            let error = XdmError::xrpc(format!("XRPC to `{dest}` failed: {e}"));
            (error, !e.kind.send_side())
        });
        let answer = answer.and_then(|resp_bytes| {
            let elapsed = started.elapsed();
            if let Some(p) = &self.sender {
                p.hists.call_latency_micros.record_micros(elapsed);
            }
            if let Some(col) = &self.profile {
                // bytes land on the operator whose dispatch this is (the
                // enclosing execute-at guard)
                col.add_bytes_to_current((xml.len() + resp_bytes.len()) as u64);
            }
            let msg = std::str::from_utf8(&resp_bytes)
                .map_err(|_| XdmError::xrpc("non-UTF8 XRPC response"))
                .and_then(parse_message);
            // the response's byte buffer is spent once parsed: recycle it
            xrpc_net::BufferPool::global().put(resp_bytes);
            match msg {
                Ok(XrpcMessage::Response(r)) => Ok(r),
                // "any error will cause a run-time error at the site that
                // originated the query" (§2.1); past the callee's guard
                // (XRPC0006) it may have committed all the same
                Ok(XrpcMessage::Fault(f)) => {
                    Err((f.to_error(), f.error_code.as_deref() == Some("XRPC0006")))
                }
                Ok(XrpcMessage::Request(_)) => {
                    Err((XdmError::xrpc("peer answered with a request"), false))
                }
                Err(e) => Err((e, true)),
            }
        });
        xrpc_net::BufferPool::global().put_string(xml);
        let mut r = match coordinator {
            Some(peer) => crate::twopc::settle_reply(&peer, self, dest, answer, func, ncalls)?,
            None => answer.map_err(|(e, _)| e)?,
        };
        if let Some(col) = &self.profile {
            col.absorb_hops(std::mem::take(&mut r.profile_hops));
        }
        if r.committed {
            self.committed.store(true, Relaxed);
        } else {
            let mut parts = self.participants.lock();
            parts.insert(dest.to_string());
            parts.extend(r.participating_peers.iter().cloned());
        }
        if r.results.len() != ncalls {
            return Err(XdmError::xrpc(format!(
                "response carries {} results for {} calls",
                r.results.len(),
                ncalls
            )));
        }
        Ok(r.results)
    }
}

/// No message leaves the reactor thread: it would wait on the network there,
/// or on itself. The request it is answering goes to a worker instead
/// ([`xrpc_net::defer`]), which sends it.
fn refuse_on_reactor(dest: &str) -> XdmResult<()> {
    if !xrpc_net::on_reactor() {
        return Ok(());
    }
    xrpc_net::defer();
    Err(XdmError::xrpc_deferred(format!(
        "no message to `{dest}` from the reactor thread"
    )))
}

/// How a call's round trip ended: the reply, or why none came and whether
/// the call may have been handled all the same (the reply was lost or
/// garbled, or the callee failed past a point it cannot undo).
pub(crate) type Answer = Result<XrpcResponse, (XdmError, bool)>;

impl RpcDispatcher for XrpcClient {
    /// One dispatch is one message, whatever its size: the callee
    /// evaluates a bulk request set-at-a-time (one join over all its
    /// calls), so cutting the batch up here would only multiply the
    /// per-message costs.
    fn dispatch(
        &self,
        dest: &str,
        func: &FunctionRef,
        calls: Vec<Vec<Sequence>>,
    ) -> XdmResult<Vec<Sequence>> {
        let ncalls = calls.len() as u64;
        let results = self.dispatch_one(dest, func, calls)?;
        if let Some(rt) = &self.net_feedback {
            rt.dest_stats_for(dest).note_calls(ncalls);
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdm::Item;
    use xrpc_net::{NetProfile, SimNetwork};
    use xrpc_proto::{XrpcFault, XrpcResponse};

    fn func() -> FunctionRef {
        FunctionRef {
            module_ns: "films".into(),
            location_hint: Some("http://x/film.xq".into()),
            local_name: "filmsByActor".into(),
            arity: 1,
            updating: false,
        }
    }

    #[test]
    fn dispatch_roundtrip_through_sim_network() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        net.register(
            "xrpc://y",
            Arc::new(|body: &[u8]| {
                // echo a response with as many result sequences as calls
                let msg = parse_message(std::str::from_utf8(body).unwrap()).unwrap();
                let req = match msg {
                    XrpcMessage::Request(r) => r,
                    _ => panic!(),
                };
                assert_eq!(req.module, "films");
                assert_eq!(req.location.as_deref(), Some("http://x/film.xq"));
                let mut resp = XrpcResponse::new(req.module, req.method);
                for c in &req.calls {
                    resp.results
                        .push(Sequence::one(Item::string(c[0].items()[0].string_value())));
                }
                resp.participating_peers.push("xrpc://nested".into());
                resp.to_xml().unwrap().into_bytes()
            }),
        );
        let client = XrpcClient::new(net);
        let results = client
            .dispatch(
                "xrpc://y",
                &func(),
                vec![
                    vec![Sequence::one(Item::string("a"))],
                    vec![Sequence::one(Item::string("b"))],
                ],
            )
            .unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[1].items()[0].string_value(), "b");
        assert_eq!(
            client.participants_snapshot(),
            vec!["xrpc://nested".to_string(), "xrpc://y".to_string()]
        );
        assert_eq!(
            client
                .requests_sent
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        assert_eq!(
            client.calls_sent.load(std::sync::atomic::Ordering::Relaxed),
            2
        );
    }

    /// Q7's semi-join strategy at one destination: a single `Q_B1()` whose
    /// answer is slow and large, then the batch of `Q_B3($pid)` calls. The
    /// batch is one message however slow the call before it was.
    #[test]
    fn a_batch_after_a_slow_single_call_is_still_one_message() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        net.register(
            "xrpc://b",
            Arc::new(|body: &[u8]| {
                let req = match parse_message(std::str::from_utf8(body).unwrap()).unwrap() {
                    XrpcMessage::Request(r) => r,
                    _ => panic!(),
                };
                let mut resp = XrpcResponse::new(req.module, req.method.clone());
                if req.method == "Q_B1" {
                    std::thread::sleep(std::time::Duration::from_millis(120));
                    resp.results.push(
                        (0..2000)
                            .map(|_| Item::string("a closed auction"))
                            .collect(),
                    );
                } else {
                    resp.results = vec![Sequence::empty(); req.calls.len()];
                }
                resp.to_xml().unwrap().into_bytes()
            }),
        );
        let rt = ResilientTransport::new(net);
        let mut client = XrpcClient::new(rt.clone());
        client.net_feedback = Some(rt.clone());
        let q = |name: &str, arity| FunctionRef {
            module_ns: "functions_b".into(),
            location_hint: None,
            local_name: name.into(),
            arity,
            updating: false,
        };
        let sent = || {
            client
                .requests_sent
                .load(std::sync::atomic::Ordering::Relaxed)
        };
        client
            .dispatch("xrpc://b", &q("Q_B1", 0), vec![vec![]])
            .unwrap();
        assert_eq!(sent(), 1);
        let pids = (0..120)
            .map(|i| vec![Sequence::one(Item::string(format!("person{i}")))])
            .collect();
        let results = client.dispatch("xrpc://b", &q("Q_B3", 1), pids).unwrap();
        assert_eq!(results.len(), 120);
        assert_eq!(sent(), 2, "120 calls to a slow destination: one message");
        let calls = &rt.dest_stats_for("xrpc://b").calls;
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 121);
    }

    #[test]
    fn fault_becomes_local_error() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        net.register(
            "xrpc://y",
            Arc::new(|_: &[u8]| {
                XrpcFault::from_error(&XdmError::doc_error("could not load module!"))
                    .to_xml()
                    .into_bytes()
            }),
        );
        let client = XrpcClient::new(net);
        let err = client
            .dispatch("xrpc://y", &func(), vec![vec![Sequence::empty()]])
            .unwrap_err();
        assert_eq!(err.code, "FODC0002");
        assert!(err.message.contains("could not load module!"));
    }

    #[test]
    fn network_failure_is_error() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let client = XrpcClient::new(net);
        let err = client
            .dispatch("xrpc://gone", &func(), vec![vec![Sequence::empty()]])
            .unwrap_err();
        assert_eq!(err.code, "XRPC0001");
    }

    #[test]
    fn result_count_mismatch_rejected() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        net.register(
            "xrpc://y",
            Arc::new(|_: &[u8]| {
                let mut resp = XrpcResponse::new("films", "filmsByActor");
                resp.results.push(Sequence::empty()); // only one result
                resp.to_xml().unwrap().into_bytes()
            }),
        );
        let client = XrpcClient::new(net);
        let err = client
            .dispatch(
                "xrpc://y",
                &func(),
                vec![vec![Sequence::empty()], vec![Sequence::empty()]],
            )
            .unwrap_err();
        assert!(err.message.contains("results for 2 calls"));
    }

    #[test]
    fn query_id_propagates_on_wire() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        net.register(
            "xrpc://y",
            Arc::new(|body: &[u8]| {
                let req = match parse_message(std::str::from_utf8(body).unwrap()).unwrap() {
                    XrpcMessage::Request(r) => r,
                    _ => panic!(),
                };
                let qid = req.query_id.expect("queryID must be present");
                assert_eq!(qid.host, "p0.example.org");
                assert_eq!(qid.timeout_secs, 30);
                let mut resp = XrpcResponse::new(req.module, req.method);
                resp.results.push(Sequence::empty());
                resp.to_xml().unwrap().into_bytes()
            }),
        );
        let client = XrpcClient::new(net).with_query_id(QueryId::new("p0.example.org", 12345, 30));
        client
            .dispatch("xrpc://y", &func(), vec![vec![Sequence::empty()]])
            .unwrap();
    }
}
