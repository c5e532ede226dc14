//! RPC serving: one incoming SOAP message in, one SOAP message out —
//! envelope decode, dispatch (control / document fetch / function call),
//! the call loop or the set-at-a-time evaluation of a Bulk request, and the
//! ∆ a deferred updating call leaves on the query's snapshot.

use crate::peer::{budget_token, Peer, PreparedFunction};
use crate::store::QuerySnapshot;
use crate::twopc::WSAT_MODULE;
use crate::txn::{Input, TxKey, Via};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdm::{Item, Sequence, XdmError, XdmResult};
use xqast::FunctionDecl;
use xqeval::context::{CancelToken, DocResolver};
use xqeval::eval::{Ctx, EvalState, Evaluator};
use xqeval::modules::CompiledModule;
use xqeval::pul::PendingUpdateList;
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
            Err(_) => {
                return XrpcFault::from_error(&XdmError::xrpc("request is not UTF-8"))
                    .to_xml()
                    .into_bytes()
            }
        };
        match self.handle_message(text) {
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
        let req = match parse_message(text)? {
            XrpcMessage::Request(r) => r,
            _ => return Err(XdmError::xrpc("expected an xrpc:request")),
        };
        let parse_micros = parse_started.elapsed().as_micros() as u64;
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
        self.hists.message_bytes.record(text.len() as u64);
        let out = if req.module == WSAT_MODULE {
            self.handle_control(&req)
        } else if req.module == crate::remote_docs::DOC_MODULE {
            self.handle_doc_fetch(&req)
        } else {
            self.handle_call_request(req, text, parse_micros)
        };
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

    /// Handle an XRPC function-call request (possibly Bulk).
    fn handle_call_request(
        &self,
        mut req: XrpcRequest,
        text: &str,
        parse_micros: u64,
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
        self.stats.requests_handled.fetch_add(1, Ordering::Relaxed);
        self.stats
            .calls_handled
            .fetch_add(req.calls.len() as u64, Ordering::Relaxed);
        self.hists.bulk_batch_calls.record(req.calls.len() as u64);

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
        let cancel = budget_token(deadline);
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

        let key = (req.module.clone(), req.method.clone(), req.arity);
        let prepared = self
            .function_cache
            .get_or_prepare(key, || self.prepare_function(&req))?;
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

        // A read-only bulk request is evaluated set-at-a-time: the calls
        // become one `iter|pos|item` table per parameter and the body runs
        // once over it (`relalg::eval_calls`), so a selection in the body
        // is one join over the request, not one selection per call — in one
        // piece, on the worker that took the request. Updating requests
        // stay a sequential loop — ∆s must compose in call order (XQUF
        // merge rules) — and so does a single call, which has nothing to
        // share.
        let calls = std::mem::take(&mut req.calls);
        let ncalls = calls.len();
        let nested = &crate::client::CALL_PHASES;
        let (outcome, _) = time_phase(collector.as_deref(), Phase::Execute, nested, || {
            if !updating && ncalls > 1 {
                relalg::eval_calls(&ev, &prepared.decl, calls)
            } else {
                let mut results = Vec::with_capacity(ncalls);
                let mut pul = PendingUpdateList::new();
                calls
                    .into_iter()
                    .try_for_each(|args| {
                        let mut st = EvalState::new();
                        bind_params(&prepared.decl, args, &mut st)?;
                        let r = ev.eval(&prepared.decl.body, &mut st, &Ctx::none())?;
                        xqeval::eval::check_result(&prepared.decl, &r)?;
                        // an updating function's result is empty by XQUF; a
                        // non-updating one must not update, but `fn:put` is
                        // tolerated, so its ∆ is kept either way
                        results.push(if updating { Sequence::empty() } else { r });
                        pul.merge(st.pul);
                        Ok(())
                    })
                    .map(|()| (results, pul))
            }
        });
        self.stats.absorb(&env);
        // Evaluation is side-effect-free up to the PUL, which is only
        // applied below: a failing call fails the request as a whole.
        let (results, mut pul_total) = outcome.inspect_err(|e: &XdmError| {
            if e.code == "XRPC0004" || e.code == "XRPC0005" {
                self.note_cancellation(&e.code, deadline);
            }
        })?;

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
        let mut peers: Vec<String> = nested_client
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
        Ok(PreparedFunction {
            decl,
            sctx: module.sctx.clone(),
        })
    }
}

/// Bind actual parameters with the XQuery function-conversion rules:
/// untyped atomics cast to the declared atomic type, otherwise the value
/// must match the declared sequence type.
fn bind_params(decl: &FunctionDecl, args: Vec<Sequence>, st: &mut EvalState) -> XdmResult<()> {
    let values = xqeval::eval::convert_arguments(decl, args)?;
    for ((pname, _), value) in decl.params.iter().zip(values) {
        st.bind(pname, value);
    }
    Ok(())
}
