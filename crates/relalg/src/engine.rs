//! The loop-lifted interpreter: evaluates the AST over `iter|pos|item`
//! tables, turning `execute at` inside for-loops into Bulk RPC exactly as
//! Figure 2 prescribes.

use crate::table::{IterMap, SeqTable};
use std::borrow::Cow;
use std::ops::RangeInclusive;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use xdm::{Item, Sequence, XdmError, XdmResult};
use xqast::{Expr, FlworClause, FunctionDecl, MainModule, Name};
use xqeval::context::{Environment, StaticContext};
use xqeval::eval::{convert_arguments, convert_result, in_frame};
use xqeval::eval::{Ctx, EvalState, Evaluator, HashJoin, JoinPath};
use xqeval::pul::PendingUpdateList;

/// Parse + execute a main module on the loop-lifted engine.
pub fn execute_rel(query: &str, env: &Environment) -> XdmResult<(Sequence, PendingUpdateList)> {
    let module = xqast::parse_main_module(query)?;
    execute_rel_parsed(&module, env, Vec::new())
}

/// Execute an already-parsed main module (prepared-plan path).
pub fn execute_rel_parsed(
    module: &MainModule,
    env: &Environment,
    external: Vec<(String, Sequence)>,
) -> XdmResult<(Sequence, PendingUpdateList)> {
    let sctx = Arc::new(StaticContext::from_prolog(&module.prolog));
    let local_functions = Arc::new(xqeval::eval::local_functions_of(module));
    execute_rel_with(module, sctx, local_functions, env, external)
}

/// Execute a compiled plan (the prepared-query fast path) on the
/// loop-lifted engine — mirror of `xqeval::evaluate_compiled`.
pub fn execute_rel_compiled(
    plan: &xqeval::CompiledMain,
    env: &Environment,
    external: Vec<(String, Sequence)>,
) -> XdmResult<(Sequence, PendingUpdateList)> {
    execute_rel_with(
        &plan.module,
        plan.sctx.clone(),
        plan.local_functions.clone(),
        env,
        external,
    )
}

fn execute_rel_with(
    module: &MainModule,
    sctx: Arc<StaticContext>,
    local_functions: Arc<xqeval::eval::LocalFunctions>,
    env: &Environment,
    external: Vec<(String, Sequence)>,
) -> XdmResult<(Sequence, PendingUpdateList)> {
    let tree = Evaluator {
        env,
        sctx,
        local_functions,
    };
    let engine = RelEngine { tree };
    let mut st = EvalState::new();
    st.vars
        .extend(external.into_iter().map(|(n, v)| (n.into(), v)));
    xqeval::eval::eval_prolog_vars(&engine.tree, module, &mut st)?;
    // The whole query runs in a single top-level iteration.
    let lenv = Lifted {
        loop_iters: vec![1],
        vars: Vec::new(),
    };
    let table = engine.eval_lifted(&module.body, &lenv, &mut st)?;
    Ok((table.into_sequence_at(1), st.pul))
}

/// Evaluate `decl` once for a whole table of calls — how a peer serves a
/// request, of one call or many, updating or not. Each parameter becomes
/// one `iter|pos|item` table over calls `1..=n` and the body runs through
/// the lifted evaluator, so a selection in the body is one join over all
/// calls instead of `n` selections; whatever the lifted translation has no
/// operator for still runs per call on `tree`. Returns one result per call,
/// in call order, and the calls' ∆, in call order.
///
/// Errors: a call whose arguments or result do not convert to the declared
/// types ([`convert_arguments`], [`convert_result`]) fails the request, but
/// only after the calls before it have been evaluated (one of them failing
/// takes precedence, as it would in a loop over the calls). Among several
/// calls that fail *during* evaluation the lifted plan reports the first one
/// it meets, operator by operator — not necessarily the lowest-numbered.
pub fn eval_calls(
    tree: &Evaluator,
    decl: &FunctionDecl,
    calls: Vec<Vec<Sequence>>,
) -> XdmResult<(Vec<Sequence>, PendingUpdateList)> {
    let engine = RelEngine { tree: tree.clone() };
    let mut st = EvalState::new();
    let results = engine.eval_calls(decl, calls, &mut st)?;
    Ok((results, st.pul))
}

/// Loop-lifted evaluation environment: the current loop relation and the
/// lifted variable representations bound inside it.
#[derive(Clone, Default)]
pub struct Lifted {
    pub loop_iters: Vec<u32>,
    pub vars: Vec<(Arc<str>, SeqTable)>,
}

impl Lifted {
    /// The innermost lifted binding of `$name`.
    pub(crate) fn lookup(&self, name: &Name) -> Option<&SeqTable> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| name.is_lexical(n))
            .map(|(_, t)| t)
    }

    /// Positions in `vars` of the lifted variables `e` refers to — its free
    /// variables as far as this environment binds them, found in one walk
    /// per expression rather than one per iteration. Every binding of a
    /// name is kept, so shadowing resolves as it would with all of them.
    fn used_by(&self, e: &Expr) -> Vec<usize> {
        if self.vars.is_empty() {
            return Vec::new();
        }
        let mut used = vec![false; self.vars.len()];
        e.walk(&mut |x| {
            if let Expr::VarRef(n) = x {
                for (k, (name, _)) in self.vars.iter().enumerate() {
                    used[k] |= n.is_lexical(name);
                }
            }
        });
        (0..self.vars.len()).filter(|&k| used[k]).collect()
    }
}

/// The engine: a thin shell around a tree [`Evaluator`] (used for all
/// XRPC-free sub-expressions) plus the lifted XRPC machinery.
pub struct RelEngine<'e> {
    pub tree: Evaluator<'e>,
}

impl<'e> RelEngine<'e> {
    pub fn new(env: &'e Environment, sctx: StaticContext) -> Self {
        RelEngine {
            tree: Evaluator::new(env, sctx),
        }
    }

    /// Run `f` under a profiled-operator guard when profiling is on,
    /// recording the produced row count; one branch when it is off.
    #[inline]
    fn profiled(
        &self,
        name: &str,
        st: &mut EvalState,
        f: impl FnOnce(&Self, &mut EvalState) -> XdmResult<SeqTable>,
    ) -> XdmResult<SeqTable> {
        let Some(mut guard) = self.tree.env.profile_op(name) else {
            return f(self, st);
        };
        let r = f(self, st);
        if let Ok(t) = &r {
            guard.set_items(t.len() as u64);
        }
        r
    }

    /// Evaluate `e` for every iteration of `lenv.loop_iters` at once.
    pub fn eval_lifted(&self, e: &Expr, lenv: &Lifted, st: &mut EvalState) -> XdmResult<SeqTable> {
        self.eval_lifted_ref(e, lenv, st).map(Cow::into_owned)
    }

    /// [`eval_lifted`](Self::eval_lifted) for callers that only read the
    /// result: a reference to a lifted variable is the variable's own
    /// table, not a copy of it.
    fn eval_lifted_ref<'a>(
        &self,
        e: &Expr,
        lenv: &'a Lifted,
        st: &mut EvalState,
    ) -> XdmResult<Cow<'a, SeqTable>> {
        if let Expr::VarRef(n) = e {
            if let Some(t) = lenv.lookup(n) {
                return Ok(Cow::Borrowed(t));
            }
        }
        self.eval_lifted_new(e, lenv, st).map(Cow::Owned)
    }

    fn eval_lifted_new(&self, e: &Expr, lenv: &Lifted, st: &mut EvalState) -> XdmResult<SeqTable> {
        // Leaves are table operators, not evaluations.
        match e {
            Expr::Literal(v) => {
                return Ok(SeqTable::literal(
                    &lenv.loop_iters,
                    &Item::Atomic(v.clone()),
                ))
            }
            Expr::FunctionCall { name, args } if self.is_fn_doc(name, args) => {
                return self.profiled("rel:doc", st, |eng, st| {
                    eng.eval_doc_lifted(name, &args[0], lenv, st)
                })
            }
            // `()`: no row in any iteration
            Expr::Sequence(es) if es.is_empty() => return Ok(SeqTable::new()),
            Expr::Range(lo, hi) if self.tree.summary([e]).sites == 0 => {
                return self.profiled("rel:range", st, |eng, st| {
                    eng.eval_range_lifted(e, lo, hi, lenv, st)
                })
            }
            _ => {}
        }
        // A scalar expression over the loop's variables is a map over their
        // columns, unless a row turns out not to be scalar or raises.
        if let Some(t) = self.eval_map(e, lenv, st) {
            return Ok(t);
        }
        // Everything else with no set-at-a-time operator inside runs on the
        // tree engine, once per iteration (or once, if nothing in it varies).
        if !self.lifts(e) {
            return self.fallback(e, lenv, st);
        }
        match e {
            Expr::Sequence(es) => {
                let mut ops = Vec::with_capacity(es.len());
                for x in es {
                    ops.push(self.eval_lifted(x, lenv, st)?);
                }
                Ok(SeqTable::concat_per_iter(&lenv.loop_iters, &ops))
            }
            Expr::Flwor { clauses, ret } => self.profiled("rel:flwor", st, |eng, st2| {
                eng.eval_flwor_lifted(clauses, ret, lenv, st2)
            }),
            Expr::ExecuteAt { dest, call } => self.profiled("rel:execute-at", st, |eng, st2| {
                eng.eval_execute_at_lifted(dest, call, lenv, st2)
            }),
            Expr::If { cond, then, els } => {
                let cond_t = self.eval_lifted(cond, lenv, st)?;
                let mut true_iters = Vec::new();
                let mut false_iters = Vec::new();
                for &i in &lenv.loop_iters {
                    if cond_t.sequence_at(i).ebv()? {
                        true_iters.push(i);
                    } else {
                        false_iters.push(i);
                    }
                }
                let then_t = self.eval_lifted(then, &restrict_env(lenv, &true_iters), st)?;
                let else_t = self.eval_lifted(els, &restrict_env(lenv, &false_iters), st)?;
                Ok(SeqTable::merge_union(vec![then_t, else_t]))
            }
            Expr::FunctionCall { name, args } => {
                self.profiled("rel:function-call", st, |eng, st2| {
                    eng.eval_call_lifted(name, args, lenv, st2)
                })
            }
            Expr::PathStep(a, b) => {
                if let Some(join) = self.join_of(e) {
                    return self.profiled("rel:join", st, |eng, st| {
                        eng.eval_join_lifted(e, &join, lenv, st)
                    });
                }
                self.profiled("rel:path-step", st, |eng, st| {
                    // What lifts is on the left of the `/` (steps are not
                    // XRPC-bearing): evaluate lhs lifted, apply the step
                    // per iteration through the tree engine — a `//T` as
                    // one descendant scan, as there.
                    let scan = xqeval::eval::descendant_scan(a, b);
                    let base = eng.eval_lifted(scan.unwrap_or(a), lenv, st)?;
                    let used = lenv.used_by(b);
                    let mut out = Vec::new();
                    for &i in &lenv.loop_iters {
                        let seq = base.sequence_at(i);
                        let stepped = eng.with_iter_vars(lenv, &used, i, st, |tree, st2| {
                            tree.eval_path_rhs(&seq, b, scan.is_some(), st2)
                        })?;
                        out.push((i, stepped));
                    }
                    Ok(SeqTable::from_sequences(out))
                })
            }
            Expr::GeneralComp(op, a, b) => {
                let ta = self.eval_lifted(a, lenv, st)?;
                let tb = self.eval_lifted(b, lenv, st)?;
                let (mut ga, mut gb) = (ta.groups(), tb.groups());
                let mut out = Vec::new();
                for &i in &lenv.loop_iters {
                    let r = xqeval::eval::general_compare(*op, ga.at(i), gb.at(i))?;
                    out.push((i, Sequence::one(Item::boolean(r))));
                }
                Ok(SeqTable::from_sequences(out))
            }
            // Constructors enclosing XRPC (the paper's Q1/Q3 shape,
            // `<films>{ execute at … }</films>`): lift each XRPC-bearing
            // enclosed expression into a synthetic variable evaluated
            // loop-lifted, then construct per iteration.
            Expr::DirectElem(d) => {
                let mut bindings: Vec<(Arc<str>, SeqTable)> = Vec::new();
                let new_elem = self.lift_direlem(d, lenv, st, &mut bindings)?;
                let mut inner = lenv.clone();
                inner.vars.extend(bindings);
                self.fallback(&Expr::DirectElem(new_elem), &inner, st)
            }
            Expr::CompElem {
                name,
                content: Some(c),
            } if self.tree.summary([&**c]).sites > 0 => {
                let t = self.eval_lifted(c, lenv, st)?;
                let var = Name::local("#enc");
                let mut inner = lenv.clone();
                inner.vars.push((var.key().clone(), t));
                self.fallback(
                    &Expr::CompElem {
                        name: name.clone(),
                        content: Some(Box::new(Expr::VarRef(var))),
                    },
                    &inner,
                    st,
                )
            }
            // Any other XRPC-bearing shape degrades gracefully to
            // per-iteration evaluation — still correct, one RPC per
            // iteration.
            _ => self.fallback(e, lenv, st),
        }
    }

    /// for/let/where pipeline with loop-lifting; `order by` together with
    /// XRPC in the same FLWOR is not lifted (falls back per-iteration).
    fn eval_flwor_lifted(
        &self,
        clauses: &[FlworClause],
        ret: &Expr,
        lenv: &Lifted,
        st: &mut EvalState,
    ) -> XdmResult<SeqTable> {
        // Once nothing in the remaining pipeline lifts, hand the whole rest
        // of the FLWOR to the tree engine per iteration — it has the join
        // optimizations; staying lifted would only burn per-row overhead.
        // So does a FLWOR the join rule takes in a loop of one iteration;
        // in more, one Bulk RPC carries Y's calls of them all (collapsed),
        // not one request per iteration.
        let joined = || {
            lenv.loop_iters.len() == 1
                && (HashJoin::of(clauses, ret).and_then(|j| self.tree.takes_join(&j)))
                    .is_some_and(|sites| sites > 0)
        };
        if !clauses.is_empty() && (!self.flwor_lifts(clauses, ret) || joined()) {
            return self.fallback(
                &Expr::Flwor {
                    clauses: clauses.to_vec(),
                    ret: Box::new(ret.clone()),
                },
                lenv,
                st,
            );
        }
        match clauses.first() {
            None => self.eval_lifted(ret, lenv, st),
            Some(FlworClause::For { var, pos_var, seq }) => {
                let s = self.eval_lifted(seq, lenv, st)?;
                // ρ: dense inner iteration numbers over the rows of `s`.
                let map = IterMap::rank(s.iter.clone());
                let mut inner = Lifted {
                    loop_iters: (1..=s.len() as u32).collect(),
                    vars: lenv
                        .vars
                        .iter()
                        .map(|(n, t)| (n.clone(), map.map_in(t)))
                        .collect(),
                };
                // one row per inner iteration: the item column moves
                let var_t = SeqTable {
                    iter: inner.loop_iters.clone(),
                    pos: vec![1; s.len()],
                    item: s.item,
                };
                inner.vars.push((var.key().clone(), var_t));
                if let Some(pv) = pos_var {
                    let mut pos_t = SeqTable::new();
                    for (k, &p) in s.pos.iter().enumerate() {
                        pos_t.push(k as u32 + 1, 1, Item::integer(p as i64));
                    }
                    inner.vars.push((pv.key().clone(), pos_t));
                }
                let body = self.eval_flwor_lifted(&clauses[1..], ret, &inner, st)?;
                Ok(map.map_back(body))
            }
            Some(FlworClause::Let { var, value }) => {
                let v = self.eval_lifted(value, lenv, st)?;
                let mut inner = lenv.clone();
                inner.vars.push((var.key().clone(), v));
                self.eval_flwor_lifted(&clauses[1..], ret, &inner, st)
            }
            Some(FlworClause::Where(cond)) => {
                let c = self.eval_lifted(cond, lenv, st)?;
                let mut keep = Vec::new();
                for &i in &lenv.loop_iters {
                    if c.sequence_at(i).ebv()? {
                        keep.push(i);
                    }
                }
                let inner = restrict_env(lenv, &keep);
                self.eval_flwor_lifted(&clauses[1..], ret, &inner, st)
            }
            Some(FlworClause::OrderBy(_)) => Err(XdmError::xrpc(
                "order by combined with execute at in one FLWOR is not loop-lifted; \
                 hoist the XRPC call into a let binding",
            )),
        }
    }

    /// Figure 2: the loop-lifted translation of `execute at`.
    fn eval_execute_at_lifted(
        &self,
        dest: &Expr,
        call: &Expr,
        lenv: &Lifted,
        st: &mut EvalState,
    ) -> XdmResult<SeqTable> {
        let Expr::FunctionCall { name, args } = call else {
            return Err(XdmError::syntax("execute at body must be a function call"));
        };
        let (func, known_read_only) = self.tree.resolve_function_ref(name, args.len())?;

        // δ over destinations (first-occurrence order), and which of them
        // each iteration goes to. A literal is one peer, and no column.
        let mut peers: Vec<String> = Vec::new();
        let mut peer_of_iter = Vec::new();
        if let Expr::Literal(xdm::AtomicValue::String(peer)) = dest {
            peers.extend((!lenv.loop_iters.is_empty()).then(|| peer.clone()));
        } else {
            let dest_t = self.eval_lifted_ref(dest, lenv, st)?;
            let mut dest_of = dest_t.groups();
            peer_of_iter.reserve(lenv.loop_iters.len());
            for &i in &lenv.loop_iters {
                let [d] = dest_of.at(i) else {
                    return Err(XdmError::xrpc(
                        "execute at destination must be a single string",
                    ));
                };
                let d = item_str(d);
                let known = peers.iter().position(|p| *p == d);
                peer_of_iter.push(known.unwrap_or_else(|| {
                    peers.push(d.into_owned());
                    peers.len() - 1
                }));
            }
        }
        let mut arg_tables = Vec::with_capacity(args.len());
        for a in args {
            arg_tables.push(self.eval_lifted_ref(a, lenv, st)?);
        }
        // one parameter vector per iteration, in loop order; nothing reads
        // the argument tables afterwards
        let mut actuals = actuals(arg_tables, &lenv.loop_iters);
        let dispatcher = self
            .tree
            .env
            .dispatcher
            .as_ref()
            .ok_or_else(|| XdmError::xrpc("no XRPC dispatcher configured on this peer"))?;

        // Build (map_p, calls_p) per peer. With the optimizer on, calls of
        // a function known read-only that are equal by value (same peer,
        // atomic arguments) collapse onto one wire call whose result is
        // fanned back out to each of their iterations.
        struct PeerWork {
            peer: String,
            map: IterMap,
            /// moved into the dispatcher, `n_calls` of them
            calls: Vec<Vec<Sequence>>,
            n_calls: usize,
            /// per outer iteration: index into `calls`
            call_of_iter: Vec<usize>,
            /// the calls so far by value, where duplicates may collapse
            seen: std::collections::HashMap<String, usize>,
        }
        let dedup_ok = self.tree.env.rpc_optimize && known_read_only;
        let mut work: Vec<PeerWork> = (peers.into_iter())
            .map(|peer| PeerWork {
                peer,
                map: IterMap::default(),
                calls: Vec::new(),
                n_calls: 0,
                call_of_iter: Vec::new(),
                seen: std::collections::HashMap::new(),
            })
            .collect();
        if let [w] = work.as_mut_slice() {
            let n = lenv.loop_iters.len();
            w.calls.reserve(n);
            w.call_of_iter.reserve(n);
        }
        self.tree.env.check_cancel()?;
        for (k, &i) in lenv.loop_iters.iter().enumerate() {
            let w = &mut work[peer_of_iter.get(k).copied().unwrap_or(0)];
            let args = actuals.next().expect("a parameter vector per iteration");
            let key = if dedup_ok {
                atomic_call_key(&args)
            } else {
                None
            };
            let idx = match key {
                Some(k) => *w.seen.entry(k).or_insert(w.calls.len()),
                None => w.calls.len(),
            };
            if idx == w.calls.len() {
                w.calls.push(args);
            }
            w.call_of_iter.push(idx);
            w.map.outer.push(i);
        }
        for w in &mut work {
            w.n_calls = w.calls.len();
        }

        {
            let mut stats = self.tree.env.stats.lock();
            stats.rpc_dispatches += work.len() as u64;
            stats.rpc_calls += work.iter().map(|w| w.n_calls as u64).sum::<u64>();
        }

        // Dispatch all Bulk RPC requests in parallel, one thread per
        // destination (§3.2 "Parallel & Out-Of-Order"). The parameter
        // sequences move into the dispatcher; nothing reads them afterwards.
        let results: Vec<XdmResult<Vec<Sequence>>> = if let [w] = work.as_mut_slice() {
            vec![dispatcher.dispatch(&w.peer, &func, std::mem::take(&mut w.calls))]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = work
                    .iter_mut()
                    .map(|w| {
                        let calls = std::mem::take(&mut w.calls);
                        let (peer, dispatcher, func) = (&w.peer, dispatcher.clone(), func.clone());
                        scope.spawn(move || dispatcher.dispatch(peer, &func, calls))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("dispatch thread"))
                    .collect()
            })
        };

        // Map every peer's results back to outer iterations and union,
        // fanning deduplicated call results back out per iteration.
        let mut mapped = Vec::new();
        for (w, res) in work.into_iter().zip(results) {
            let res = res?;
            if res.len() != w.n_calls {
                return Err(XdmError::xrpc(format!(
                    "peer `{}` answered {} results for {} calls",
                    w.peer,
                    res.len(),
                    w.n_calls
                )));
            }
            let msg = if w.n_calls == w.call_of_iter.len() {
                // one call per iteration, in order: the results move
                SeqTable::from_sequences((1u32..).zip(res))
            } else {
                SeqTable::from_sequences(
                    (1u32..).zip(w.call_of_iter.iter().map(|&call| res[call].clone())),
                )
            };
            mapped.push(w.map.map_back(msg));
        }
        Ok(SeqTable::merge_union(mapped))
    }

    /// [`eval_calls`] on this engine's evaluator, in `st`: as a function
    /// body ([`in_frame`]), and not at all for no calls.
    fn eval_calls(
        &self,
        decl: &FunctionDecl,
        calls: Vec<Vec<Sequence>>,
        st: &mut EvalState,
    ) -> XdmResult<Vec<Sequence>> {
        let mut params: Vec<SeqTable> = decl.params.iter().map(|_| SeqTable::new()).collect();
        let (mut n, mut unbound) = (0, None);
        for args in calls {
            match convert_arguments(decl, args) {
                Ok(values) => {
                    n += 1;
                    params
                        .iter_mut()
                        .zip(values)
                        .for_each(|(t, v)| t.push_sequence(n, v));
                }
                Err(e) => {
                    unbound = Some(e);
                    break;
                }
            }
        }
        let names = decl.params.iter().map(|(name, _)| name.key().clone());
        let lenv = Lifted {
            loop_iters: (1..=n).collect(),
            vars: names.zip(params).collect(),
        };
        let results = match n {
            0 => Vec::new(),
            _ => in_frame(&self.tree, st, |st| self.eval_lifted(&decl.body, &lenv, st))?
                .into_sequences(&lenv.loop_iters),
        };
        let results = (results.into_iter())
            .map(|r| convert_result(decl, r))
            .collect::<XdmResult<_>>()?;
        unbound.map_or(Ok(results), Err)
    }

    /// A function call whose arguments (or body) involve XRPC: the
    /// arguments lifted, then the function applied per iteration — or, a
    /// declared function whose body calls a peer, once over the loop's
    /// rows, each `execute at` in it one Bulk RPC.
    fn eval_call_lifted(
        &self,
        name: &Name,
        args: &[Expr],
        lenv: &Lifted,
        st: &mut EvalState,
    ) -> XdmResult<SeqTable> {
        if lenv.loop_iters.is_empty() {
            return Ok(SeqTable::new());
        }
        let mut arg_tables = Vec::with_capacity(args.len());
        for a in args {
            arg_tables.push(self.eval_lifted_ref(a, lenv, st)?);
        }
        // The cardinality checks return their argument: when every
        // iteration passes, that is the argument table itself. (One that
        // does not pass goes through the function below, for its error.)
        if let (Some(allowed), [arg]) = (self.cardinality_check(name, args), &arg_tables[..]) {
            let mut groups = arg.groups();
            if (lenv.loop_iters.iter()).all(|&i| allowed.contains(&groups.at(i).len())) {
                return Ok(arg_tables.pop().expect("one argument").into_owned());
            }
        }
        let rows = actuals(arg_tables, &lenv.loop_iters);
        let udf = self.tree.callee(name, args.len())?;
        if let Some(udf) = udf.filter(|f| f.body_ev.summary([&f.decl.body]).sites > 0) {
            let n = lenv.loop_iters.len() as u64;
            self.tree.env.functions_called.fetch_add(n, Relaxed);
            let body = RelEngine { tree: udf.body_ev };
            let results = body.eval_calls(&udf.decl, rows.collect(), st)?;
            return Ok(SeqTable::from_sequences(
                lenv.loop_iters.iter().copied().zip(results),
            ));
        }
        let mut out = SeqTable::new();
        for (&i, actuals) in lenv.loop_iters.iter().zip(rows) {
            // a function body sees its parameters, not the caller's variables
            let r = self.with_iter_vars(lenv, &[], i, st, |tree, st2| {
                tree.apply_function(name, actuals, st2, &Ctx::none())
            })?;
            out.push_sequence(i, r);
        }
        Ok(out)
    }

    /// Replace the enclosed expressions of a direct constructor that call a
    /// peer with synthetic variables, bound in `bindings` to their
    /// loop-lifted values. Their names (`#encN`) are none a query can write.
    fn lift_direlem(
        &self,
        d: &xqast::DirElem,
        lenv: &Lifted,
        st: &mut EvalState,
        bindings: &mut Vec<(Arc<str>, SeqTable)>,
    ) -> XdmResult<xqast::DirElem> {
        use xqast::{AttrContent, DirContent};
        let lift = |e: &mut Expr, st: &mut EvalState, bindings: &mut Vec<_>| {
            if self.tree.summary([&*e]).sites > 0 {
                let var = Name::local(format!("#enc{}", bindings.len()));
                bindings.push((var.key().clone(), self.eval_lifted(e, lenv, st)?));
                *e = Expr::VarRef(var);
            }
            Ok::<_, XdmError>(())
        };
        let mut out = d.clone();
        for p in out.attrs.iter_mut().flat_map(|(_, parts)| parts) {
            if let AttrContent::Enclosed(e) = p {
                lift(e, st, bindings)?;
            }
        }
        for c in out.content.iter_mut() {
            match c {
                DirContent::Enclosed(e) => lift(e, st, bindings)?,
                DirContent::Element(inner) => {
                    *inner = self.lift_direlem(inner, lenv, st, bindings)?;
                }
                _ => {}
            }
        }
        Ok(out)
    }

    /// Is `fn:doc` with one argument what this call names?
    fn is_fn_doc(&self, name: &Name, args: &[Expr]) -> bool {
        args.len() == 1 && name.local == "doc" && self.tree.is_builtin(name, 1)
    }

    /// The argument lengths `fn:zero-or-one` / `fn:exactly-one` /
    /// `fn:one-or-more` let through, if the call is one of them.
    fn cardinality_check(&self, name: &Name, args: &[Expr]) -> Option<RangeInclusive<usize>> {
        let allowed = match name.local.as_str() {
            "zero-or-one" => 0..=1,
            "exactly-one" => 1..=1,
            "one-or-more" => 1..=usize::MAX,
            _ => return None,
        };
        (args.len() == 1 && self.tree.is_builtin(name, 1)).then_some(allowed)
    }

    /// `e` as the predicate join, when it is one that calls no peer (a
    /// remote call in the base or the value keeps the XRPC translation).
    fn join_of<'a>(&'a self, e: &'a Expr) -> Option<JoinPath<'a>> {
        match e {
            Expr::PathStep(a, b) if self.tree.summary([e]).sites == 0 => self.tree.join_path(a, b),
            _ => None,
        }
    }

    /// Would evaluating `e` lifted do anything set-at-a-time — a remote
    /// call to batch, a join to probe, a map to run over a loop's columns —
    /// somewhere the lifted translation reaches? If not, the per-iteration
    /// fallback does the same work with less ceremony. Nor is what may
    /// leave a ∆ here lifted: operator by operator, its updates would join
    /// the PUL out of iteration (call) order; per iteration they join it in
    /// order, as on the tree engine.
    fn lifts(&self, e: &Expr) -> bool {
        let effects = self.tree.summary([e]);
        !effects.delta && (effects.sites > 0 || self.joins(e))
    }

    /// [`lifts`](Self::lifts) for an `e` that calls no peer.
    fn joins(&self, e: &Expr) -> bool {
        match e {
            Expr::PathStep(a, b) => self.tree.join_path(a, b).is_some() || self.joins(a),
            Expr::FunctionCall { args: es, .. } | Expr::Sequence(es) => {
                es.iter().any(|x| self.joins(x))
            }
            Expr::If { cond, then, els } => self.joins(cond) || self.joins(then) || self.joins(els),
            Expr::Flwor { clauses, ret } => self.flwor_lifts(clauses, ret),
            _ => false,
        }
    }

    /// [`lifts`](Self::lifts) for a FLWOR: it has a remote call somewhere,
    /// or what it returns for each tuple is a map over its variables. (An
    /// `order by` needs the tree engine's tuple stream; with a remote call
    /// beside it, the lifted pipeline says so.)
    fn flwor_lifts(&self, clauses: &[FlworClause], ret: &Expr) -> bool {
        let exprs = clauses.iter().filter_map(FlworClause::expr);
        let calls = self.tree.summary(exprs.chain([ret])).sites > 0;
        let ordered = clauses.iter().any(|c| matches!(c, FlworClause::OrderBy(_)));
        calls || (!ordered && self.is_map(ret))
    }

    /// Is `e` an operator tree the map operator runs (see `map.rs`)?
    fn is_map(&self, e: &Expr) -> bool {
        let builtin = |name: &Name, arity| self.tree.is_builtin(name, arity);
        crate::map::is_operator(e, &builtin) && crate::map::is_map(e, &builtin)
    }

    /// π/⊕: `e`, if it is a scalar expression over lifted variables, in
    /// every iteration at once. `None` sends `e` down the ordinary road:
    /// it is no such expression, or its rows are not scalars, or one of them
    /// raises — the fallback then raises what the tree engine would.
    fn eval_map(&self, e: &Expr, lenv: &Lifted, st: &mut EvalState) -> Option<SeqTable> {
        if !self.is_map(e) || lenv.used_by(e).is_empty() {
            return None;
        }
        let map = crate::map::Map::compile(e, lenv, st)?;
        let mut guard = self.tree.env.profile_op("rel:map");
        let table = map.eval(&lenv.loop_iters)?;
        if let Some(g) = guard.as_mut() {
            g.set_items(table.len() as u64);
        }
        Some(table)
    }

    /// `lo to hi`: the integers between the bounds, in every iteration. A
    /// bound that is not one integer at most is the tree engine's to report.
    fn eval_range_lifted(
        &self,
        e: &Expr,
        lo: &Expr,
        hi: &Expr,
        lenv: &Lifted,
        st: &mut EvalState,
    ) -> XdmResult<SeqTable> {
        let (los, his) = match (
            self.eval_lifted_ref(lo, lenv, st),
            self.eval_lifted_ref(hi, lenv, st),
        ) {
            (Ok(los), Ok(his)) => (los, his),
            _ => return self.fallback(e, lenv, st),
        };
        let (mut lo_of, mut hi_of) = (los.groups(), his.groups());
        let mut out = SeqTable::new();
        for &i in &lenv.loop_iters {
            let bound = |row: &[Item]| match row {
                [] => Some(None),
                [one] => xqeval::eval::range_bound(Some(one)).ok(),
                _ => None,
            };
            let (Some(lo), Some(hi)) = (bound(lo_of.at(i)), bound(hi_of.at(i))) else {
                return self.fallback(e, lenv, st);
            };
            if let (Some(lo), Some(hi)) = (lo, hi) {
                out.push_sequence(i, (lo..=hi).map(Item::integer).collect());
            }
        }
        Ok(out)
    }

    /// `fn:doc` over a column of URIs: each distinct URI is resolved once
    /// (for a remote document that is one fetch, not one per call).
    fn eval_doc_lifted(
        &self,
        name: &Name,
        arg: &Expr,
        lenv: &Lifted,
        st: &mut EvalState,
    ) -> XdmResult<SeqTable> {
        let uris = self.eval_lifted_ref(arg, lenv, st)?;
        let mut uri_of = uris.groups();
        let mut resolved: Vec<(String, Sequence)> = Vec::new();
        let mut out = SeqTable::new();
        for &i in &lenv.loop_iters {
            self.tree.env.check_cancel()?;
            let uri = uri_of.at(i);
            // fn:doc reads its argument as the string value of one item
            let known = match uri {
                [one] => {
                    let key = item_str(one);
                    resolved.iter().position(|(k, _)| *k == key)
                }
                _ => None,
            };
            match known {
                Some(at) => out.push_items(i, resolved[at].1.items()),
                None => {
                    let arg = Sequence::from_items(uri.to_vec());
                    let doc = self
                        .tree
                        .apply_function(name, vec![arg], st, &Ctx::none())?;
                    out.push_items(i, doc.items());
                    if let [one] = uri {
                        resolved.push((item_str(one).into_owned(), doc));
                    }
                }
            }
        }
        Ok(out)
    }

    /// ⋈: `base//elem[keypath = value]` for every iteration at once — the
    /// base and value columns evaluated lifted, one index fetch, one probe
    /// per iteration, rows out in (iter, document order). An iteration the
    /// index cannot answer for (several base nodes, a small document, a
    /// value that does not compare as a string) runs the ordinary step.
    fn eval_join_lifted(
        &self,
        e: &Expr,
        join: &JoinPath,
        lenv: &Lifted,
        st: &mut EvalState,
    ) -> XdmResult<SeqTable> {
        let bases = self.eval_lifted_ref(join.base, lenv, st)?;
        // a value that fails to evaluate is the scan's to report: it
        // evaluates the value per candidate, possibly never
        let Ok(values) = self.eval_lifted_ref(join.value, lenv, st) else {
            return self.fallback(e, lenv, st);
        };
        let (mut base_of, mut value_of) = (bases.groups(), values.groups());
        let used = lenv.used_by(join.step);
        let mut probe = join.probe(self.tree.env);
        let mut out = SeqTable::new();
        let mut hits = Vec::new();
        for &i in &lenv.loop_iters {
            let base = base_of.at(i);
            if probe.run(base, value_of.at(i), &mut hits) {
                self.tree.env.check_cancel()?;
                for (p, hit) in hits.drain(..).enumerate() {
                    out.push(i, p as u32 + 1, hit);
                }
            } else {
                let base = Sequence::from_items(base.to_vec());
                let scanned = self
                    .with_iter_vars(lenv, &used, i, st, |tree, st2| join.scan(tree, &base, st2))?;
                out.push_sequence(i, scanned);
            }
        }
        Ok(out)
    }

    /// The tree engine as an operator of the lifted plan: `e` evaluated
    /// once per iteration with the variables it mentions bound — or once
    /// altogether and broadcast, when it mentions none and evaluating it
    /// again could not tell. Profiled as `rel:fallback{kind}`, so what is
    /// still per-iteration shows in `explain_analyze`.
    fn fallback(&self, e: &Expr, lenv: &Lifted, st: &mut EvalState) -> XdmResult<SeqTable> {
        if self.tree.env.profile.is_none() {
            return self.fallback_unprofiled(e, lenv, st);
        }
        let name = format!("rel:fallback{{{}}}", e.kind_name());
        self.profiled(&name, st, |eng, st| eng.fallback_unprofiled(e, lenv, st))
    }

    fn fallback_unprofiled(
        &self,
        e: &Expr,
        lenv: &Lifted,
        st: &mut EvalState,
    ) -> XdmResult<SeqTable> {
        let used = lenv.used_by(e);
        if used.is_empty() && !lenv.loop_iters.is_empty() && self.tree.summary([e]).is_invariant() {
            self.tree.env.check_cancel()?;
            let once = self.tree.eval(e, st, &Ctx::none())?;
            return Ok(SeqTable::broadcast(&lenv.loop_iters, once));
        }
        let mut out = Vec::with_capacity(lenv.loop_iters.len());
        for &i in &lenv.loop_iters {
            let r = self.with_iter_vars(lenv, &used, i, st, |tree, st2| {
                tree.eval(e, st2, &Ctx::none())
            })?;
            out.push((i, r));
        }
        Ok(SeqTable::from_sequences(out))
    }

    /// Run `f` with the lifted variables at positions `used` (see
    /// [`Lifted::used_by`]) materialized for iteration `i`.
    fn with_iter_vars<T>(
        &self,
        lenv: &Lifted,
        used: &[usize],
        i: u32,
        st: &mut EvalState,
        f: impl FnOnce(&Evaluator, &mut EvalState) -> XdmResult<T>,
    ) -> XdmResult<T> {
        // Cooperative checkpoint: every bulk path funnels through here once
        // per loop iteration, so an exceeded budget stops the batch between
        // iterations instead of after the whole table.
        self.tree.env.check_cancel()?;
        let base = st.vars.len();
        for &k in used {
            let (n, t) = &lenv.vars[k];
            st.vars.push((n.clone(), t.sequence_at(i)));
        }
        let r = f(&self.tree, st);
        st.vars.truncate(base);
        r
    }
}

/// The rows of argument tables as one vector of actual parameters per
/// iteration of `iters`, each built once at its final size: a table the
/// caller owns gives its items up, a lent one (a variable's) is copied from.
fn actuals(tables: Vec<Cow<'_, SeqTable>>, iters: &[u32]) -> impl Iterator<Item = Vec<Sequence>> {
    let mut columns: Vec<_> = (tables.into_iter())
        .map(|t| match t {
            Cow::Owned(t) => t.into_sequences(iters).into_iter(),
            Cow::Borrowed(t) => t.sequences(iters).into_iter(),
        })
        .collect();
    (0..iters.len()).map(move |_| {
        let row = columns
            .iter_mut()
            .map(|c| c.next().expect("a row per iteration"));
        let mut actuals = Vec::with_capacity(row.len());
        actuals.extend(row);
        actuals
    })
}

/// `fn:string` of one item, borrowed when the item is a string already.
fn item_str(item: &Item) -> Cow<'_, str> {
    match item {
        Item::Atomic(
            xdm::AtomicValue::String(s)
            | xdm::AtomicValue::UntypedAtomic(s)
            | xdm::AtomicValue::AnyUri(s),
        ) => Cow::Borrowed(s),
        other => Cow::Owned(other.string_value()),
    }
}

/// A value key for call deduplication: `Some` only when every parameter
/// item is atomic (node arguments carry identity and are never collapsed).
fn atomic_call_key(args: &[Sequence]) -> Option<String> {
    let mut key = String::with_capacity(64);
    for s in args {
        key.push('|');
        for item in s.iter() {
            let a = item.as_atomic()?;
            key.push_str(a.atomic_type().xs_name());
            key.push(':');
            key.push_str(&item_str(item));
            key.push('\u{1}');
        }
    }
    Some(key)
}

fn restrict_env(lenv: &Lifted, iters: &[u32]) -> Lifted {
    Lifted {
        loop_iters: iters.to_vec(),
        vars: lenv
            .vars
            .iter()
            .map(|(n, t)| (n.clone(), t.restrict(iters)))
            .collect(),
    }
}
