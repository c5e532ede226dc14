//! RPC serving: one incoming SOAP message in, one SOAP message out —
//! envelope decode, dispatch (control / document fetch / function call),
//! the set-at-a-time evaluation of a request's calls, and the ∆ a deferred
//! updating call leaves on the query's snapshot.
//!
//! Served over HTTP, a small quiet call is answered on the reactor thread
//! that read it (`xrpc_net::cancel`): a call of a function the cache holds
//! whose body computes nothing but its value and whose last call was quick
//! and small, not sent to commit on its reply. Only after such a call does
//! the handler offer the connection's next request to the reactor, and on
//! the reactor it gives a request back to the workers
//! ([`xrpc_net::defer`]) when it is anything else, runs past
//! [`xrpc_net::INLINE_BUDGET`], would answer more than
//! [`xrpc_net::INLINE_BYTES`] or tries to send a message.

use crate::peer::{budget_token, Peer, PreparedFunction};
use crate::store::QuerySnapshot;
use crate::twopc::WSAT_MODULE;
use crate::txn::{Input, TxKey, Via};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdm::{Item, Sequence, XdmError, XdmResult};
use xqeval::context::{CancelToken, DocResolver};
use xqeval::eval::Evaluator;
use xqeval::modules::CompiledModule;
use xrpc_net::{INLINE_BUDGET, INLINE_BYTES};
use xrpc_obs::{time_phase, Phase, ProfileCollector};
use xrpc_proto::{parse_message, UpdCall, XrpcFault, XrpcMessage, XrpcRequest, XrpcResponse};

/// Removes a call-handler's cancel token from [`Peer::active_evals`] when
/// the evaluation finishes — by any path, including the handler's many
/// `?` early returns.
struct EvalRegistration<'a> {
    peer: &'a Peer,
    key: TxKey,
    token: Arc<CancelToken>,
}

impl Drop for EvalRegistration<'_> {
    fn drop(&mut self) {
        let mut map = self.peer.active_evals.lock();
        if let Some(v) = map.get_mut(&self.key) {
            v.retain(|t| !Arc::ptr_eq(t, &self.token));
            if v.is_empty() {
                map.remove(&self.key);
            }
        }
    }
}

impl Peer {
    /// A SOAP handler closure for transports (SimNetwork / HttpServer).
    pub fn soap_handler(self: &Arc<Self>) -> xrpc_net::SoapHandler {
        let peer = self.clone();
        Arc::new(move |body: &[u8]| peer.handle_soap(body))
    }

    /// Handle one incoming SOAP message; always answers with a SOAP
    /// message (response or fault) — §2.1's error contract.
    pub fn handle_soap(&self, body: &[u8]) -> Vec<u8> {
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) if xrpc_net::on_reactor() => {
                xrpc_net::defer();
                return Vec::new();
            }
            Err(_) => {
                return XrpcFault::from_error(&XdmError::xrpc("request is not UTF-8"))
                    .to_xml()
                    .into_bytes()
            }
        };
        let out = self.handle_message(text);
        if xrpc_net::deferred() {
            // the reactor drops this answer: a worker gives the real one
            return Vec::new();
        }
        match out {
            // serialize into a recycled transport buffer, pre-reserved from
            // the response's estimated wire size (the server returns the
            // buffer to the pool once it hits the socket)
            Ok(resp) => {
                let mut out = xrpc_net::BufferPool::global().get_string(resp.estimated_wire_size());
                match resp.write_xml(&mut out) {
                    Ok(()) => out.into_bytes(),
                    Err(e) => XrpcFault::from_error(&e).to_xml().into_bytes(),
                }
            }
            Err(e) => XrpcFault::from_error(&e).to_xml().into_bytes(),
        }
    }

    fn handle_message(&self, text: &str) -> XdmResult<XrpcResponse> {
        let parse_started = Instant::now();
        let req = match parse_message(text) {
            Ok(XrpcMessage::Request(r)) => r,
            // on the reactor thread only a call goes on (see below)
            _ if xrpc_net::on_reactor() => return Err(defer_to_worker()),
            Ok(_) => return Err(XdmError::xrpc("expected an xrpc:request")),
            Err(e) => return Err(e),
        };
        let parse_micros = parse_started.elapsed().as_micros() as u64;
        let call = req.module != WSAT_MODULE && req.module != crate::remote_docs::DOC_MODULE;
        // On the reactor thread only a call it may answer goes on. Running a
        // request again on a worker is safe only because such a call
        // computes nothing but a value: it has no `execute at` and no ∆, and
        // its pinned snapshot is reused by queryID.
        let inline = match xrpc_net::on_reactor() {
            true => {
                let prepared = call.then(|| self.inline_function(&req)).flatten();
                Some(prepared.ok_or_else(defer_to_worker)?)
            }
            false => None,
        };
        // Continue the caller's trace (the context parsed from the
        // envelope header) — or start a fresh root for an untraced
        // request. The span's context and this peer's tracer stay
        // ambient for everything the request triggers: nested client
        // dispatches, 2PC control handling, the engines.
        let _tracer = xrpc_obs::set_current_tracer(Some(self.tracer.clone()));
        let mut span = match req.trace {
            Some(parent) => self.tracer.child_span("server:handle", parent),
            None => self.tracer.span_here("server:handle"),
        };
        span.tag("module", req.module.clone());
        span.tag("method", req.method.clone());
        // Counted once, where the request is answered: on a worker before it
        // is handled, on the reactor once it is not deferred. (On a worker,
        // a histogram's first sample allocates its buckets before the
        // request's own memory, not on top of it, where they would keep a
        // multi-MiB request's heap from shrinking.)
        let calls = req.calls.len() as u64;
        let count = || {
            self.hists.message_bytes.record(text.len() as u64);
            if call {
                self.stats.requests_handled.fetch_add(1, Ordering::Relaxed);
                self.stats.calls_handled.fetch_add(calls, Ordering::Relaxed);
                self.hists.bulk_batch_calls.record(calls);
            }
        };
        let on_reactor = inline.is_some();
        if !on_reactor {
            count();
        }
        let out = if req.module == WSAT_MODULE {
            self.handle_control(&req)
        } else if !call {
            self.handle_doc_fetch(&req)
        } else {
            self.handle_call_request(req, text, parse_micros, inline)
        };
        if xrpc_net::deferred() {
            span.tag("deferred", "worker");
            return out;
        }
        if on_reactor {
            count();
        }
        if !call || out.is_err() {
            // whatever a peer this one called in-process offered
            xrpc_net::offer_next(false);
        }
        if let Err(e) = &out {
            span.tag("error", e.to_string());
        }
        self.hists
            .server_handle_micros
            .record_micros(span.elapsed());
        out
    }

    /// Serve `fn:doc` data-shipping fetches (reserved module, see
    /// `remote_docs`). Respects the queryID snapshot when present.
    fn handle_doc_fetch(&self, req: &XrpcRequest) -> XdmResult<XrpcResponse> {
        self.stats.requests_handled.fetch_add(1, Ordering::Relaxed);
        let resolver: Arc<dyn DocResolver> = match &req.query_id {
            Some(qid) => self
                .snapshots
                .get_or_pin(qid, || self.docs.snapshot())?
                .resolver(),
            None => self.docs.clone(),
        };
        let mut resp = XrpcResponse::new(req.module.clone(), req.method.clone());
        for call in &req.calls {
            let path = call
                .first()
                .and_then(|s| s.first())
                .map(|i| i.string_value())
                .ok_or_else(|| XdmError::xrpc("doc fetch without a path"))?;
            let doc = resolver.resolve(&path)?;
            resp.results
                .push(Sequence::one(Item::Node(xmldom::NodeHandle::root(doc))));
        }
        resp.participating_peers = vec![self.name()];
        Ok(resp)
    }

    /// The prepared function of a call the reactor may answer itself: of a
    /// quiet function the cache already holds (a miss may load a module
    /// over HTTP) whose last call fit the reactor, not committing on its
    /// reply.
    fn inline_function(&self, req: &XrpcRequest) -> Option<Arc<PreparedFunction>> {
        if req.upd_call == UpdCall::Commit {
            return None;
        }
        let key = (req.module.clone(), req.method.clone(), req.arity);
        (self.function_cache.get(&key)).filter(|p| p.quiet && p.fits_inline.load(Ordering::Relaxed))
    }

    /// Handle an XRPC function-call request (possibly Bulk); `inline` is
    /// its prepared function when it runs on the reactor thread.
    fn handle_call_request(
        &self,
        mut req: XrpcRequest,
        text: &str,
        parse_micros: u64,
        inline: Option<Arc<PreparedFunction>>,
    ) -> XdmResult<XrpcResponse> {
        let handle_started = Instant::now();
        // Continue the caller's profile when the request header asks for
        // one: this hop collects its own operator tree/phases and returns
        // them (plus any hops *it* gathered downstream) in the response.
        let collector = req
            .profile
            .as_ref()
            .filter(|p| p.mode.is_on())
            .map(|p| ProfileCollector::new(p.mode, &self.name(), &p.via, p.depth));
        if let Some(col) = &collector {
            col.add_phase(Phase::Parse, parse_micros);
        }

        // The caller's remaining budget, already decremented for network
        // time at every hop. A budget exhausted on arrival is rejected
        // here, before preparing the function or pinning a snapshot — the
        // originator has already timed out, so any work would be wasted.
        let deadline = match req.budget_millis {
            Some(0) => {
                return Err(XdmError::xrpc_deadline(
                    "query budget exhausted on arrival (xrpc:timeout)",
                ))
            }
            Some(ms) => Some(Instant::now() + Duration::from_millis(ms)),
            None => None,
        };
        // on the reactor the evaluation also stops at the inline budget
        let inline_end = inline.as_ref().map(|_| Instant::now() + INLINE_BUDGET);
        let cancel = budget_token(deadline.into_iter().chain(inline_end).min());
        // Make the token reachable by a `Cancel` control message for the
        // same transaction; the guard deregisters on every exit path.
        let _eval_reg = req.query_id.as_ref().map(|qid| {
            let key = (qid.host.clone(), qid.timestamp_millis);
            self.active_evals
                .lock()
                .entry(key.clone())
                .or_default()
                .push(cancel.clone());
            EvalRegistration {
                peer: self,
                key,
                token: cancel.clone(),
            }
        });

        let prepared = match inline {
            Some(prepared) => prepared,
            None => {
                let key = (req.module.clone(), req.method.clone(), req.arity);
                self.function_cache
                    .get_or_prepare(key, || self.prepare_function(&req))?
            }
        };
        let updating = prepared.decl.updating;

        // A call sent to commit on its reply, redelivered after this peer
        // settled the query, is answered from the decision it remembers —
        // never evaluated again (an updating function's results are empty)
        let commit = (req.query_id.as_ref()).filter(|_| req.upd_call == UpdCall::Commit);
        let settled = commit.filter(|q| updating && self.snapshots.completed_decision(q).is_some());
        if let Some(qid) = settled {
            self.commit_alone(qid)?;
            let mut resp = XrpcResponse::new(req.module, req.method);
            (resp.results, resp.committed) = (vec![Sequence::empty(); req.calls.len()], true);
            return Ok(resp);
        }

        // Isolation: pin (or reuse) a snapshot when a queryID is present.
        let (resolver, snap): (Arc<dyn DocResolver>, Option<Arc<QuerySnapshot>>) =
            match &req.query_id {
                Some(qid) => {
                    let s = self.snapshots.get_or_pin(qid, || self.docs.snapshot())?;
                    (s.resolver(), Some(s))
                }
                None => (self.docs.clone(), None),
            };

        // At-most-once ∆ merge for deferred updates (rule R'Fu): when the
        // response to an updating call is lost, the resilient transport
        // redelivers the identical request (byte for byte: the hash
        // identifies it); merging its ∆ again would double-insert or trip
        // XQUF compatibility at Prepare. An updating function's results are
        // empty by XQUF, so the lost response can be resynthesized without
        // re-evaluating — but only if the original execution *succeeded*:
        // the hash is recorded after the merge (see below), so a request
        // that faulted re-evaluates on redelivery instead of being masked as
        // success. The replayed response carries the original's
        // participating-peer set so the originator's 2PC participant list
        // stays complete even when nested calls were made.
        let merge = snap.as_ref().filter(|_| updating);
        let request_hash = merge.map_or(0, |_| xrpc_obs::fnv1a64(text.as_bytes()));
        if let Some(peers) =
            merge.and_then(|s| s.merged_requests.lock().get(&request_hash).cloned())
        {
            let mut resp = XrpcResponse::new(req.module, req.method);
            resp.results = vec![Sequence::empty(); req.calls.len()];
            resp.participating_peers = peers;
            return Ok(resp);
        }

        let (nested_client, env) = self.eval_session(
            cancel,
            req.query_id.clone(),
            false,
            resolver,
            collector.clone(),
        );
        let ev = Evaluator::new(&env, prepared.sctx.clone());

        // A request is evaluated set-at-a-time: the calls become one
        // `iter|pos|item` table per parameter and the body runs once over it
        // (`relalg::eval_calls`), so a selection in the body is one join over
        // the request, not one selection per call — in one piece, on the
        // worker that took the request. An updating body that calls no peer
        // leaves its ∆ in call order, as a loop over the calls would.
        let calls = std::mem::take(&mut req.calls);
        let nested = &crate::client::CALL_PHASES;
        let (outcome, execute_micros) =
            time_phase(collector.as_deref(), Phase::Execute, nested, || {
                relalg::eval_calls(&ev, &prepared.decl, calls)
            });
        if let Some(end) = inline_end {
            // only the inline budget ran out, not the request's own; or it
            // tried to send a message (see `XrpcClient`)
            let budget = deadline.is_none_or(|d| end < d);
            if budget && outcome.as_ref().is_err_and(|e| e.code == "XRPC0004")
                || xrpc_net::deferred()
            {
                prepared.fits_inline.store(false, Ordering::Relaxed);
                return Err(defer_to_worker());
            }
        }
        self.stats.absorb(&env);
        // Evaluation is side-effect-free up to the PUL, which is only
        // applied below: a failing call fails the request as a whole.
        let (mut results, mut pul_total) = outcome.inspect_err(|e: &XdmError| {
            if e.code == "XRPC0004" || e.code == "XRPC0005" {
                self.note_cancellation(&e.code, deadline);
            }
        })?;
        // an updating function's result is empty by XQUF; a non-updating one
        // must not update, but `fn:put` is tolerated, so its ∆ is kept
        if updating {
            results.fill(Sequence::empty());
        }

        match (&snap, pul_total.is_empty()) {
            (_, true) => {}
            // rule R'Fu: a request that carries a queryID defers ∆ until
            // 2PC commit, whatever its marker says — the caller may not know
            // the function updates. The PUL lives until then: copy content
            // fragments out of the request's message arena so holding a ∆
            // does not pin the whole (possibly multi-MiB) envelope.
            (Some(snap), false) => {
                pul_total.compact_sources();
                snap.pul.lock().merge(pul_total);
            }
            // rule RFu: apply immediately after the request
            (None, false) => self.apply_pul(&pul_total)?,
        }

        // Piggyback the peers this handling (transitively) involved.
        let mut peers: Vec<String> = (nested_client.as_ref())
            .map(|c| c.participants_snapshot())
            .unwrap_or_default();
        let committed = commit.filter(|_| peers.is_empty());
        peers.push(self.name());
        peers.sort();
        peers.dedup();

        // Everything merged successfully — only now record the request as
        // seen, so redelivery of a *failed* execution re-evaluates rather
        // than replaying a synthesized success.
        if let Some(s) = merge {
            s.merged_requests.lock().insert(request_hash, peers.clone());
        }
        // Commit on reply: with nobody below it this peer holds the
        // transaction's only ∆ and decides alone, before it answers
        if let Some(qid) = committed {
            self.commit_alone(qid)?;
        }

        let mut resp = XrpcResponse::new(req.module, req.method);
        resp.results = results;
        resp.participating_peers = peers;
        resp.committed = committed.is_some();
        // A call fits the reactor when it is quiet, quick, small and sends
        // nothing. The reactor answers only a small one; it tries a
        // function's next call, and is offered the connection's next
        // request, after a call that fit (and that did not commit: it was
        // not cached, or not sent `updCall="commit"`). The size is estimated
        // only where it matters: it walks the results.
        let quick = execute_micros < INLINE_BUDGET.as_micros() as u64;
        let small = (quick || inline_end.is_some()) && resp.estimated_wire_size() <= INLINE_BYTES;
        let sent =
            (nested_client.as_ref()).is_some_and(|c| c.requests_sent.load(Ordering::Relaxed) > 0);
        let fits = prepared.quiet && quick && small && !sent;
        prepared.fits_inline.store(fits, Ordering::Relaxed);
        if inline_end.is_some() && !small {
            return Err(defer_to_worker());
        }
        xrpc_net::offer_next(
            fits && self.function_cache.is_enabled() && req.upd_call != UpdCall::Commit,
        );
        if let Some(col) = &collector {
            // This hop's profile (own hop first, then everything gathered
            // from peers *we* called) rides home in the response header.
            // The span ids tie the hop to the PR 5 trace.
            let (trace_id, span_id) = xrpc_obs::current_context()
                .map(|c| (c.trace_id, c.span_id))
                .unwrap_or((0, 0));
            let total_micros = parse_micros + handle_started.elapsed().as_micros() as u64;
            resp.profile_hops = col.finish_hops(trace_id, span_id, total_micros);
        }
        Ok(resp)
    }

    /// The one-phase edge a call marked `updCall="commit"` runs before its
    /// answer: a refusal is the transaction's abort, and says so.
    fn commit_alone(&self, qid: &xrpc_proto::QueryId) -> XdmResult<()> {
        match self.txn_edge(qid, Input::CommitOnePhase, Via::Wire) {
            Err(e) if e.code != "XRPC0006" => Err(crate::twopc::aborted(e)),
            done => done.map(drop),
        }
    }

    fn prepare_function(&self, req: &XrpcRequest) -> XdmResult<PreparedFunction> {
        self.stats
            .functions_prepared
            .fetch_add(1, Ordering::Relaxed);
        let module = if self.function_cache.is_enabled() {
            self.modules
                .get_or_load(&req.module, req.location.as_deref())?
        } else {
            // No function cache: re-translate the module on every request,
            // the paper's "No Function Cache" column.
            match self.module_sources.read().get(&req.module) {
                Some(src) => {
                    let lib = xqast::parse_library_module(src)?;
                    Arc::new(CompiledModule::from_library(&lib))
                }
                None => self
                    .modules
                    .get_or_load(&req.module, req.location.as_deref())?,
            }
        };
        let decl = module.function(&req.method, req.arity).ok_or_else(|| {
            XdmError::unknown_function(format!(
                "module `{}` has no function {}#{}",
                req.module, req.method, req.arity
            ))
        })?;
        // what a call does besides compute its value, seen through the
        // bodies of the functions it calls in the modules registered here
        let body = xqeval::effects::summary(
            [&decl.body],
            &module.sctx,
            &Default::default(),
            Some(&self.modules),
        );
        Ok(PreparedFunction {
            quiet: !decl.updating && body.is_quiet(),
            fits_inline: AtomicBool::new(false),
            decl,
            sctx: module.sctx.clone(),
        })
    }
}

/// Give the request being answered on the reactor back to the workers (see
/// `handle_message`): the error is dropped with the rest of the answer.
fn defer_to_worker() -> XdmError {
    xrpc_net::defer();
    XdmError::xrpc_deferred("answered on a worker thread")
}
