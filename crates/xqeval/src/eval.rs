//! The tree-walking evaluator core.

use crate::context::{Environment, FunctionRef, StaticContext};
use crate::effects::{self, Effects};
use crate::functions;
use crate::index;
use crate::pul::{PendingUpdateList, UpdatePrimitive};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, OnceLock};
use xdm::atomic::AtomicValue;
use xdm::ops;
use xdm::types::AtomicType;
use xdm::{Item, Sequence, XdmError, XdmResult};
use xmldom::order::{cmp_handles, sort_dedup};
use xmldom::{axes, Document, NodeHandle, NodeKind, QName};
use xqast::{
    AttrContent, Axis, CompName, CompOp, DirContent, DirElem, Expr, FlworClause, FunctionDecl,
    InsertPos, MainModule, Name, NodeCompOp, NodeTest, Quantifier,
};

/// One FLWOR tuple's variable bindings (name → bound sequence).
type Bindings = Vec<(Arc<str>, Sequence)>;
/// Atomized `order by` keys for one tuple (one entry per spec).
type OrderKeys = Vec<Option<AtomicValue>>;

/// Focus: the context item, position and size.
#[derive(Clone, Default)]
pub struct Ctx {
    pub item: Option<Item>,
    pub pos: usize,
    pub size: usize,
}

impl Ctx {
    pub fn none() -> Self {
        Ctx::default()
    }

    pub fn of(item: Item) -> Self {
        Ctx {
            item: Some(item),
            pos: 1,
            size: 1,
        }
    }
}

/// Mutable evaluation state threaded through the recursion: the variable
/// stack, the accumulating pending update list and the call depth.
pub struct EvalState {
    /// Innermost binding last, keyed by [`Name::key`].
    pub vars: Bindings,
    pub pul: PendingUpdateList,
    pub depth: usize,
}

impl EvalState {
    pub fn new() -> Self {
        EvalState {
            vars: Vec::new(),
            pul: PendingUpdateList::new(),
            depth: 0,
        }
    }

    pub fn bind(&mut self, name: &Name, value: Sequence) {
        self.vars.push((name.key().clone(), value));
    }

    pub fn lookup(&self, name: &Name) -> Option<&Sequence> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| name.is_lexical(n))
            .map(|(_, v)| v)
    }
}

impl Default for EvalState {
    fn default() -> Self {
        Self::new()
    }
}

/// The evaluator: an environment plus the static context of the module
/// whose expressions it is currently evaluating.
pub struct Evaluator<'e> {
    pub env: &'e Environment,
    pub sctx: Arc<StaticContext>,
    /// Functions declared in the main module's prolog.
    pub local_functions: Arc<LocalFunctions>,
}

/// A path recognized as the predicate join `base//elem[keypath = value]`
/// by [`Evaluator::join_path`]: the parts an executor needs to answer it
/// from the value index ([`probe`](Self::probe)) or, where the index does
/// not apply, by the ordinary step ([`scan`](Self::scan)).
pub struct JoinPath<'a> {
    /// Evaluates to the node(s) the step starts from.
    pub base: &'a Expr,
    /// The compared value; independent of the candidate element.
    pub value: &'a Expr,
    /// The name-test step with its predicate (what [`scan`](Self::scan)
    /// evaluates, so the variables it mentions must be bound).
    pub step: &'a Expr,
    /// Was there a `//` (a `descendant-or-self::node()` step) before it?
    dos: bool,
    key: index::KeyPath<'a>,
    child_only: bool,
}

impl<'a> JoinPath<'a> {
    /// The probe side of the join, good for any number of probes.
    pub fn probe(&self, env: &'a Environment) -> index::Probe<'a> {
        index::Probe::new(env, self.key, self.child_only)
    }

    /// The step evaluated the ordinary way from an evaluated `base`, with
    /// the variables its predicate mentions bound in `st`.
    pub fn scan(&self, ev: &Evaluator, base: &Sequence, st: &mut EvalState) -> XdmResult<Sequence> {
        // the one predicate is a comparison: never positional
        ev.eval_path_rhs(base, self.step, self.dos, st)
    }
}

/// Evaluate a main-module query text against an environment. Returns the
/// result sequence and the pending update list (empty for read-only
/// queries); the caller decides when to `apply_updates` — that split is
/// exactly what the paper's isolation levels manipulate (§2.3).
pub fn evaluate_main(query: &str, env: &Environment) -> XdmResult<(Sequence, PendingUpdateList)> {
    evaluate_main_with_vars(query, env, Vec::new())
}

/// Like [`evaluate_main`] but with externally bound variables.
pub fn evaluate_main_with_vars(
    query: &str,
    env: &Environment,
    external: Vec<(String, Sequence)>,
) -> XdmResult<(Sequence, PendingUpdateList)> {
    let module = xqast::parse_main_module(query)?;
    evaluate_parsed(&module, env, external)
}

/// Local function index of a main module: (local name, arity) → decl.
pub type LocalFunctions = crate::modules::FunctionTable;

/// The compile-once artifact of a main module: the parsed AST plus the
/// static analysis the evaluator would otherwise redo on every run (the
/// derived static context, the local-function index and the effect
/// summary). This is what the peer's keyed plan cache stores behind an
/// `Arc` — executing a prepared query touches no per-run allocation beyond
/// the evaluation itself.
#[derive(Clone)]
pub struct CompiledMain {
    pub module: Arc<MainModule>,
    pub sctx: Arc<StaticContext>,
    pub local_functions: Arc<LocalFunctions>,
    pub effects: Effects,
}

impl CompiledMain {
    /// Compile with the static context derived from the module's prolog.
    pub fn compile(module: Arc<MainModule>) -> Self {
        let sctx = StaticContext::from_prolog(&module.prolog);
        Self::compile_with(module, sctx)
    }

    /// Compile with an explicit static context (the peer injects its
    /// default base URI / collation into the prolog-derived context).
    pub fn compile_with(module: Arc<MainModule>, sctx: StaticContext) -> Self {
        let local_functions = local_functions_of(&module);
        CompiledMain {
            sctx: Arc::new(sctx),
            effects: Effects::of(&module, &local_functions),
            local_functions: Arc::new(local_functions),
            module,
        }
    }
}

/// Index a main module's locally declared functions.
pub fn local_functions_of(module: &MainModule) -> LocalFunctions {
    LocalFunctions::of(&module.prolog.functions)
}

/// Evaluate an already-parsed main module (the function-cache path skips
/// re-parsing; paper §3.3 "Function Cache").
pub fn evaluate_parsed(
    module: &MainModule,
    env: &Environment,
    external: Vec<(String, Sequence)>,
) -> XdmResult<(Sequence, PendingUpdateList)> {
    let sctx = Arc::new(StaticContext::from_prolog(&module.prolog));
    let local_functions = Arc::new(local_functions_of(module));
    evaluate_with(module, sctx, local_functions, env, external)
}

/// Evaluate a compiled plan: the prepared-query fast path — no parse, no
/// static analysis, just the evaluation walk.
pub fn evaluate_compiled(
    plan: &CompiledMain,
    env: &Environment,
    external: Vec<(String, Sequence)>,
) -> XdmResult<(Sequence, PendingUpdateList)> {
    evaluate_with(
        &plan.module,
        plan.sctx.clone(),
        plan.local_functions.clone(),
        env,
        external,
    )
}

fn evaluate_with(
    module: &MainModule,
    sctx: Arc<StaticContext>,
    local_functions: Arc<LocalFunctions>,
    env: &Environment,
    external: Vec<(String, Sequence)>,
) -> XdmResult<(Sequence, PendingUpdateList)> {
    // Under an instrumented peer this nests an evaluation span inside the
    // ambient request trace; standalone callers pay one thread-local read.
    let _span = xrpc_obs::ambient_span("xqeval:evaluate");
    let ev = Evaluator {
        env,
        sctx,
        local_functions,
    };
    let mut st = EvalState::new();
    st.vars
        .extend(external.into_iter().map(|(n, v)| (n.into(), v)));
    eval_prolog_vars(&ev, module, &mut st)?;
    let res = ev.eval(&module.body, &mut st, &Ctx::none())?;
    Ok((res, st.pul))
}

/// Evaluate the prolog's variable declarations into `st`. External
/// variables (`declare variable $x external`) take the caller-supplied
/// binding already pushed into `st` — the parameter channel of a
/// prepared query — coerced to the declared type by the function
/// conversion rules; an unbound external without a default errors.
pub fn eval_prolog_vars(ev: &Evaluator, module: &MainModule, st: &mut EvalState) -> XdmResult<()> {
    for decl in &module.prolog.variables {
        if decl.external {
            if let Some(bound) = st.lookup(&decl.name) {
                let coerced = coerce_to_declared(bound.clone(), decl.ty.as_ref())?;
                st.bind(&decl.name, coerced);
                continue;
            }
        }
        let v = match &decl.value {
            Some(value) => ev.eval(value, st, &Ctx::none())?,
            None => {
                return Err(XdmError::new(
                    "XPDY0002",
                    format!("external variable ${} is not bound", decl.name.lexical()),
                ))
            }
        };
        st.bind(&decl.name, v);
    }
    Ok(())
}

/// Function-conversion-style coercion for externally bound values and
/// for the parameters of an XRPC call: accept as-is when the declared type
/// matches, else atomize + cast for atomic target types.
pub fn coerce_to_declared(
    value: Sequence,
    ty: Option<&xdm::types::SeqType>,
) -> XdmResult<Sequence> {
    let Some(t) = ty else { return Ok(value) };
    if value.check_type(t).is_ok() {
        return Ok(value);
    }
    if let xdm::types::ItemKind::Atomic(at) = &t.kind {
        let items: XdmResult<Vec<Item>> = value
            .iter()
            .map(|i| i.atomize().cast_to(*at).map(Item::Atomic))
            .collect();
        let s = Sequence::from_items(items?);
        s.check_type(t)?;
        return Ok(s);
    }
    value.check_type(t)?;
    unreachable!()
}

/// The values a call binds `decl`'s parameters to: the actual arguments
/// under the function conversion rules (what an XRPC callee does with the
/// parameters of each `xrpc:call`).
pub fn convert_arguments(decl: &FunctionDecl, args: Vec<Sequence>) -> XdmResult<Vec<Sequence>> {
    if args.len() != decl.params.len() {
        return Err(XdmError::type_error(format!(
            "function {} expects {} arguments, got {}",
            decl.name.lexical(),
            decl.params.len(),
            args.len()
        )));
    }
    decl.params
        .iter()
        .zip(args)
        .map(|((_, ty), value)| coerce_to_declared(value, ty.as_ref()))
        .collect()
}

impl<'e> Evaluator<'e> {
    /// An evaluator with no main-module functions: what a library module's
    /// bodies, or a bare expression, are evaluated by.
    pub fn new(env: &'e Environment, sctx: impl Into<Arc<StaticContext>>) -> Self {
        Evaluator {
            env,
            sctx: sctx.into(),
            local_functions: no_local_functions(),
        }
    }

    /// Run `f` under a profiled-operator guard when profiling is on,
    /// recording the result cardinality; one branch and a tail call when
    /// it is off.
    #[inline]
    fn profiled(
        &self,
        name: &str,
        f: impl FnOnce(&Self) -> XdmResult<Sequence>,
    ) -> XdmResult<Sequence> {
        let Some(mut guard) = self.env.profile_op(name) else {
            return f(self);
        };
        let r = f(self);
        if let Ok(seq) = &r {
            guard.set_items(seq.len() as u64);
        }
        r
    }

    /// Evaluate one expression.
    pub fn eval(&self, e: &Expr, st: &mut EvalState, ctx: &Ctx) -> XdmResult<Sequence> {
        match e {
            Expr::Literal(v) => Ok(Sequence::one(Item::Atomic(v.clone()))),
            Expr::VarRef(n) => st
                .lookup(n)
                .cloned()
                .ok_or_else(|| XdmError::undefined(format!("undefined variable ${}", n.lexical()))),
            Expr::ContextItem => match &ctx.item {
                Some(i) => Ok(Sequence::one(i.clone())),
                None => Err(XdmError::new("XPDY0002", "no context item")),
            },
            Expr::Sequence(es) => {
                let mut out = Sequence::empty();
                for x in es {
                    out.extend(self.eval(x, st, ctx)?);
                }
                Ok(out)
            }
            Expr::Range(a, b) => {
                let lo = self.eval_integer_opt(a, st, ctx)?;
                let hi = self.eval_integer_opt(b, st, ctx)?;
                match (lo, hi) {
                    (Some(lo), Some(hi)) if lo <= hi => {
                        Ok(Sequence::from_items((lo..=hi).map(Item::integer).collect()))
                    }
                    _ => Ok(Sequence::empty()),
                }
            }
            Expr::Arith(op, a, b) => {
                let va = self.eval(a, st, ctx)?;
                let vb = self.eval(b, st, ctx)?;
                Ok(sequence_of(arith(
                    *op,
                    va.zero_or_one()?,
                    vb.zero_or_one()?,
                )?))
            }
            Expr::Neg(a) => {
                let v = self.eval(a, st, ctx)?;
                Ok(sequence_of(negate(v.zero_or_one()?)?))
            }
            Expr::ValueComp(op, a, b) => {
                let va = self.eval(a, st, ctx)?;
                let vb = self.eval(b, st, ctx)?;
                Ok(sequence_of(value_compare(
                    *op,
                    va.zero_or_one()?,
                    vb.zero_or_one()?,
                )?))
            }
            Expr::GeneralComp(op, a, b) => {
                let va = self.eval(a, st, ctx)?;
                let vb = self.eval(b, st, ctx)?;
                Ok(Sequence::one(Item::boolean(general_compare(
                    *op,
                    va.items(),
                    vb.items(),
                )?)))
            }
            Expr::NodeComp(op, a, b) => {
                let va = self.eval(a, st, ctx)?;
                let vb = self.eval(b, st, ctx)?;
                let (Some(ia), Some(ib)) = (va.zero_or_one()?, vb.zero_or_one()?) else {
                    return Ok(Sequence::empty());
                };
                let (Item::Node(na), Item::Node(nb)) = (ia, ib) else {
                    return Err(XdmError::type_error("node comparison on non-nodes"));
                };
                let r = match op {
                    NodeCompOp::Is => na.same_node(nb),
                    NodeCompOp::Precedes => cmp_handles(na, nb) == std::cmp::Ordering::Less,
                    NodeCompOp::Follows => cmp_handles(na, nb) == std::cmp::Ordering::Greater,
                };
                Ok(Sequence::one(Item::boolean(r)))
            }
            Expr::And(a, b) => {
                let va = self.eval(a, st, ctx)?.ebv()?;
                if !va {
                    return Ok(Sequence::one(Item::boolean(false)));
                }
                let vb = self.eval(b, st, ctx)?.ebv()?;
                Ok(Sequence::one(Item::boolean(vb)))
            }
            Expr::Or(a, b) => {
                let va = self.eval(a, st, ctx)?.ebv()?;
                if va {
                    return Ok(Sequence::one(Item::boolean(true)));
                }
                let vb = self.eval(b, st, ctx)?.ebv()?;
                Ok(Sequence::one(Item::boolean(vb)))
            }
            Expr::Union(a, b) => {
                let mut nodes = self.eval_nodes(a, st, ctx, "union")?;
                nodes.extend(self.eval_nodes(b, st, ctx, "union")?);
                sort_dedup(&mut nodes);
                Ok(Sequence::from_items(
                    nodes.into_iter().map(Item::Node).collect(),
                ))
            }
            Expr::Intersect(a, b) => {
                let na = self.eval_nodes(a, st, ctx, "intersect")?;
                let nb = self.eval_nodes(b, st, ctx, "intersect")?;
                let mut out: Vec<NodeHandle> = na
                    .into_iter()
                    .filter(|x| nb.iter().any(|y| y.same_node(x)))
                    .collect();
                sort_dedup(&mut out);
                Ok(Sequence::from_items(
                    out.into_iter().map(Item::Node).collect(),
                ))
            }
            Expr::Except(a, b) => {
                let na = self.eval_nodes(a, st, ctx, "except")?;
                let nb = self.eval_nodes(b, st, ctx, "except")?;
                let mut out: Vec<NodeHandle> = na
                    .into_iter()
                    .filter(|x| !nb.iter().any(|y| y.same_node(x)))
                    .collect();
                sort_dedup(&mut out);
                Ok(Sequence::from_items(
                    out.into_iter().map(Item::Node).collect(),
                ))
            }
            Expr::If { cond, then, els } => {
                if self.eval(cond, st, ctx)?.ebv()? {
                    self.eval(then, st, ctx)
                } else {
                    self.eval(els, st, ctx)
                }
            }
            Expr::Flwor { clauses, ret } => {
                self.profiled("xq:flwor", |ev| ev.eval_flwor(e, clauses, ret, st, ctx))
            }
            Expr::Quantified {
                quantifier,
                bindings,
                satisfies,
            } => self.eval_quantified(*quantifier, bindings, satisfies, st, ctx),
            Expr::Typeswitch {
                operand,
                cases,
                default_var,
                default,
            } => {
                let base = st.vars.len();
                let branch =
                    self.typeswitch_branch(operand, cases, default_var, default, st, ctx)?;
                let r = self.eval(branch, st, ctx);
                st.vars.truncate(base);
                r
            }
            Expr::Root(rest) => {
                let node = match &ctx.item {
                    Some(Item::Node(n)) => n.clone(),
                    _ => {
                        return Err(XdmError::new(
                            "XPDY0002",
                            "`/` requires a node context item",
                        ))
                    }
                };
                let root = NodeHandle::root(node.doc.clone());
                match rest {
                    None => Ok(Sequence::one(Item::Node(root))),
                    Some(r) => self.eval(r, st, &Ctx::of(Item::Node(root))),
                }
            }
            Expr::PathStep(a, b) => self.profiled("xq:path-step", |ev| {
                // `base//elem[keypath = v]` is a join (see index.rs): one
                // probe of the document's value index instead of a scan.
                if let Some(join) = ev.join_path(a, b) {
                    let base = ev.eval(join.base, st, ctx)?;
                    let mut probe = join.probe(ev.env);
                    if probe.base_node(base.items()).is_some() {
                        // a value that fails to evaluate is left to the
                        // scan, which only evaluates it per candidate
                        if let Ok(value) = ev.eval(join.value, st, &Ctx::none()) {
                            let mut hits = Vec::new();
                            if probe.run(base.items(), value.items(), &mut hits) {
                                return Ok(Sequence::from_items(hits));
                            }
                        }
                    }
                    return join.scan(ev, &base, st);
                }
                let scan = descendant_scan(a, b);
                let base = ev.eval(scan.unwrap_or(a), st, ctx)?;
                ev.eval_path_rhs(&base, b, scan.is_some(), st)
            }),
            Expr::AxisStep {
                axis,
                test,
                predicates,
            } => match &ctx.item {
                Some(Item::Node(n)) => self.axis_step(n, *axis, test, predicates, st),
                Some(_) => Err(XdmError::type_error("axis step on a non-node context item")),
                None => Err(XdmError::new("XPDY0002", "axis step with no context item")),
            },
            Expr::Filter(base, predicates) => {
                let v = self.eval(base, st, ctx)?;
                let filtered = self.apply_predicates(v.into_items(), predicates, st)?;
                Ok(Sequence::from_items(filtered))
            }
            Expr::FunctionCall { name, args } => self.profiled("xq:function-call", |ev| {
                ev.eval_function_call(name, args, st, ctx)
            }),
            Expr::ExecuteAt { dest, call } => self.profiled("xq:execute-at", |ev| {
                ev.eval_execute_at(dest, call, st, ctx)
            }),
            Expr::DirectElem(_)
            | Expr::CompElem { .. }
            | Expr::CompAttr { .. }
            | Expr::CompText(_)
            | Expr::CompComment(_)
            | Expr::CompPi { .. }
            | Expr::CompDoc(_) => self.construct(e, st, ctx),
            Expr::InstanceOf(a, t) => {
                let v = self.eval(a, st, ctx)?;
                Ok(Sequence::one(Item::boolean(v.check_type(t).is_ok())))
            }
            Expr::TreatAs(a, t) => {
                let v = self.eval(a, st, ctx)?;
                v.check_type(t)?;
                Ok(v)
            }
            Expr::CastAs {
                expr,
                ty,
                allow_empty,
            } => {
                let v = self.eval(expr, st, ctx)?;
                let target = AtomicType::from_xs_name(&ty.lexical()).ok_or_else(|| {
                    XdmError::type_error(format!("unknown cast target `{}`", ty.lexical()))
                })?;
                Ok(sequence_of(cast(v.zero_or_one()?, target, *allow_empty)?))
            }
            Expr::CastableAs {
                expr,
                ty,
                allow_empty,
            } => {
                let v = self.eval(expr, st, ctx)?;
                let Some(target) = AtomicType::from_xs_name(&ty.lexical()) else {
                    return Ok(Sequence::one(Item::boolean(false)));
                };
                let r = match v.zero_or_one() {
                    Err(_) => false,
                    Ok(None) => *allow_empty,
                    Ok(Some(i)) => i.atomize().cast_to(target).is_ok(),
                };
                Ok(Sequence::one(Item::boolean(r)))
            }
            // ---- XQUF ----
            Expr::Insert {
                source,
                target,
                pos,
            } => {
                let content: Vec<NodeHandle> = self
                    .eval(source, st, ctx)?
                    .into_items()
                    .into_iter()
                    .map(|i| match i {
                        Item::Node(n) => Ok(n),
                        _ => Err(XdmError::type_error("insert source must be nodes")),
                    })
                    .collect::<XdmResult<_>>()?;
                let t = self.eval_single_node(target, st, ctx, "insert target")?;
                st.pul.push(match pos {
                    InsertPos::Into => UpdatePrimitive::InsertInto { target: t, content },
                    InsertPos::AsFirstInto => UpdatePrimitive::InsertFirst { target: t, content },
                    InsertPos::AsLastInto => UpdatePrimitive::InsertLast { target: t, content },
                    InsertPos::Before => UpdatePrimitive::InsertBefore { target: t, content },
                    InsertPos::After => UpdatePrimitive::InsertAfter { target: t, content },
                });
                Ok(Sequence::empty())
            }
            Expr::Delete { target } => {
                let v = self.eval(target, st, ctx)?;
                for i in v.items() {
                    match i {
                        Item::Node(n) => st.pul.push(UpdatePrimitive::Delete { target: n.clone() }),
                        _ => return Err(XdmError::type_error("delete target must be nodes")),
                    }
                }
                Ok(Sequence::empty())
            }
            Expr::ReplaceNode { target, with } => {
                let t = self.eval_single_node(target, st, ctx, "replace target")?;
                let replacement: Vec<NodeHandle> = self
                    .eval(with, st, ctx)?
                    .into_items()
                    .into_iter()
                    .map(|i| match i {
                        Item::Node(n) => Ok(n),
                        _ => Err(XdmError::type_error("replacement must be nodes")),
                    })
                    .collect::<XdmResult<_>>()?;
                st.pul.push(UpdatePrimitive::ReplaceNode {
                    target: t,
                    replacement,
                });
                Ok(Sequence::empty())
            }
            Expr::ReplaceValue { target, with } => {
                let t = self.eval_single_node(target, st, ctx, "replace target")?;
                let value = self.eval(with, st, ctx)?.joined_string();
                st.pul
                    .push(UpdatePrimitive::ReplaceValue { target: t, value });
                Ok(Sequence::empty())
            }
            Expr::Rename { target, name } => {
                let t = self.eval_single_node(target, st, ctx, "rename target")?;
                let lex = self.eval(name, st, ctx)?.singleton()?.string_value();
                let qname = self.lex_to_qname(&lex, false)?;
                st.pul.push(UpdatePrimitive::Rename {
                    target: t,
                    name: qname,
                });
                Ok(Sequence::empty())
            }
        }
    }

    // ------------------------------------------------------------------
    // FLWOR
    // ------------------------------------------------------------------

    fn eval_flwor(
        &self,
        flwor: &Expr,
        clauses: &[FlworClause],
        ret: &Expr,
        st: &mut EvalState,
        ctx: &Ctx,
    ) -> XdmResult<Sequence> {
        // Hash-join fast path: `for $a in X, $b in Y where keyA($a) = keyB($b)`
        // becomes a build+probe join instead of a nested loop — the same
        // join detection the paper observes in Saxon (§4). Side-effecting
        // bodies (updates, RPC) must not be partially run and then re-run
        // by the naive fallback: they skip it.
        if self.env.join_index && hash_join_shape(clauses) && !effects::has_effects(flwor) {
            if let Some(result) = self.try_flwor_hash_join(clauses, ret, st, ctx)? {
                return Ok(result);
            }
        }
        let mut out = Sequence::empty();
        self.flwor_tuples(clauses, st, ctx, &mut |ev, st2| {
            out.extend(ev.eval(ret, st2, ctx)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Run `each` once per tuple of the FLWOR's clauses, in result order
    /// (`order by` applied), with the tuple's variables bound in the state
    /// it is handed.
    fn flwor_tuples(
        &self,
        clauses: &[FlworClause],
        st: &mut EvalState,
        ctx: &Ctx,
        each: &mut dyn FnMut(&Evaluator, &mut EvalState) -> XdmResult<()>,
    ) -> XdmResult<()> {
        // Split off a trailing OrderBy.
        let (stream_clauses, order_specs) = match clauses.last() {
            Some(FlworClause::OrderBy(specs)) => (&clauses[..clauses.len() - 1], Some(specs)),
            _ => (clauses, None),
        };
        let base = st.vars.len();
        if let Some(specs) = order_specs {
            // Materialize tuples, compute keys, sort, then evaluate return.
            let mut tuples: Vec<(Bindings, OrderKeys)> = Vec::new();
            self.stream(stream_clauses, st, ctx, &mut |ev, st2| {
                let binding = st2.vars[base..].to_vec();
                let mut keys = Vec::new();
                for spec in specs {
                    let kv = ev.eval(&spec.key, st2, ctx)?;
                    keys.push(kv.zero_or_one()?.map(|i| i.atomize()));
                }
                tuples.push((binding, keys));
                Ok(())
            })?;
            tuples.sort_by(|(_, ka), (_, kb)| {
                for (spec, (x, y)) in specs.iter().zip(ka.iter().zip(kb.iter())) {
                    let ord = match (x, y) {
                        (None, None) => std::cmp::Ordering::Equal,
                        (None, Some(_)) => {
                            if spec.empty_least {
                                std::cmp::Ordering::Less
                            } else {
                                std::cmp::Ordering::Greater
                            }
                        }
                        (Some(_), None) => {
                            if spec.empty_least {
                                std::cmp::Ordering::Greater
                            } else {
                                std::cmp::Ordering::Less
                            }
                        }
                        (Some(a), Some(b)) => a.value_cmp(b).unwrap_or(std::cmp::Ordering::Equal),
                    };
                    let ord = if spec.descending { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            for (binding, _) in tuples {
                st.vars.truncate(base);
                st.vars.extend(binding);
                each(self, st)?;
            }
        } else {
            self.stream(stream_clauses, st, ctx, each)?;
        }
        st.vars.truncate(base);
        Ok(())
    }

    /// Recognize `for $a in X, $b in Y where l($a) = r($b) …` and execute
    /// it as a hash join (build on Y, probe per $a). Only string and
    /// untyped keys are joined this way (the general-comparison coercion
    /// for them is plain string equality, see `index::string_key`);
    /// anything else falls back to the nested-loop stream. Result order is
    /// identical to the naive evaluation: X order, then Y order per match.
    fn try_flwor_hash_join(
        &self,
        clauses: &[FlworClause],
        ret: &Expr,
        st: &mut EvalState,
        ctx: &Ctx,
    ) -> XdmResult<Option<Sequence>> {
        // (the shape `hash_join_shape` tells `push` about)
        let [FlworClause::For {
            var: a_var,
            pos_var: None,
            seq: x_seq,
        }, FlworClause::For {
            var: b_var,
            pos_var: None,
            seq: y_seq,
        }, FlworClause::Where(Expr::GeneralComp(CompOp::Eq, l, r)), rest @ ..] = clauses
        else {
            return Ok(None);
        };
        // No trailing order-by (it would need the tuple materialization).
        if rest.iter().any(|c| matches!(c, FlworClause::OrderBy(_))) {
            return Ok(None);
        }
        // Node constructors in Y would get fresh identities per naive
        // iteration; evaluating Y once changes `is` semantics — skip.
        let mut y_constructs = false;
        y_seq.walk(&mut |x| y_constructs |= x.is_constructor());
        if y_constructs {
            return Ok(None);
        }
        let a_name = a_var.lexical();
        let b_name = b_var.lexical();
        // Y must not depend on $a; l on $a-side only; r on $b-side only
        // (or swapped).
        let y_free = free_var_names(y_seq);
        if y_free.contains(&a_name) {
            return Ok(None);
        }
        let l_free = free_var_names(l);
        let r_free = free_var_names(r);
        let (a_key, b_key) = if l_free.contains(&a_name)
            && !l_free.contains(&b_name)
            && r_free.contains(&b_name)
            && !r_free.contains(&a_name)
        {
            (l, r)
        } else if r_free.contains(&a_name)
            && !r_free.contains(&b_name)
            && l_free.contains(&b_name)
            && !l_free.contains(&a_name)
        {
            (r, l)
        } else {
            return Ok(None);
        };

        let x_items = self.eval(x_seq, st, ctx)?.into_items();
        let y_items = self.eval(y_seq, st, ctx)?.into_items();
        // Build side: key strings per Y item; bail out on non-string keys.
        let mut table: std::collections::HashMap<String, Vec<usize>> =
            std::collections::HashMap::new();
        for (yi, y) in y_items.iter().enumerate() {
            let depth = st.vars.len();
            st.bind(b_var, Sequence::one(y.clone()));
            let keys = self.eval(b_key, st, ctx);
            st.vars.truncate(depth);
            for k in keys?.atomized() {
                match index::string_key(&k) {
                    Some(s) => table.entry(s.to_string()).or_default().push(yi),
                    None => return Ok(None),
                }
            }
        }

        let mut out = Sequence::empty();
        for x in x_items {
            let depth = st.vars.len();
            st.bind(a_var, Sequence::one(x));
            let probe_keys = self.eval(a_key, st, ctx)?;
            let mut hits: Vec<usize> = Vec::new();
            let mut abort = false;
            for k in probe_keys.atomized() {
                match index::string_key(&k) {
                    Some(s) => {
                        if let Some(v) = table.get(s) {
                            hits.extend_from_slice(v);
                        }
                    }
                    None => abort = true,
                }
            }
            if abort {
                st.vars.truncate(depth);
                return Ok(None);
            }
            hits.sort_unstable();
            hits.dedup();
            for yi in hits {
                let d2 = st.vars.len();
                st.bind(b_var, Sequence::one(y_items[yi].clone()));
                self.stream(rest, st, ctx, &mut |ev, st2| {
                    out.extend(ev.eval(ret, st2, ctx)?);
                    Ok(())
                })?;
                st.vars.truncate(d2);
            }
            st.vars.truncate(depth);
        }
        Ok(Some(out))
    }

    /// Drive the tuple stream of for/let/where clauses, invoking `sink`
    /// once per surviving tuple (variables bound in `st`).
    fn stream(
        &self,
        clauses: &[FlworClause],
        st: &mut EvalState,
        ctx: &Ctx,
        sink: &mut dyn FnMut(&Evaluator, &mut EvalState) -> XdmResult<()>,
    ) -> XdmResult<()> {
        match clauses.first() {
            None => sink(self, st),
            Some(FlworClause::For { var, pos_var, seq }) => {
                let v = self.eval(seq, st, ctx)?;
                for (i, item) in v.into_iter().enumerate() {
                    self.env.check_cancel()?;
                    let depth = st.vars.len();
                    st.bind(var, Sequence::one(item));
                    if let Some(pv) = pos_var {
                        st.bind(pv, Sequence::one(Item::integer(i as i64 + 1)));
                    }
                    self.stream(&clauses[1..], st, ctx, sink)?;
                    st.vars.truncate(depth);
                }
                Ok(())
            }
            Some(FlworClause::Let { var, value }) => {
                let v = self.eval(value, st, ctx)?;
                let depth = st.vars.len();
                st.bind(var, v);
                self.stream(&clauses[1..], st, ctx, sink)?;
                st.vars.truncate(depth);
                Ok(())
            }
            Some(FlworClause::Where(cond)) => {
                if self.eval(cond, st, ctx)?.ebv()? {
                    self.stream(&clauses[1..], st, ctx, sink)?;
                }
                Ok(())
            }
            Some(FlworClause::OrderBy(_)) => {
                Err(XdmError::syntax("order by must be the last FLWOR clause"))
            }
        }
    }

    fn eval_quantified(
        &self,
        q: Quantifier,
        bindings: &[(Name, Expr)],
        satisfies: &Expr,
        st: &mut EvalState,
        ctx: &Ctx,
    ) -> XdmResult<Sequence> {
        fn rec(
            ev: &Evaluator,
            q: Quantifier,
            bindings: &[(Name, Expr)],
            satisfies: &Expr,
            st: &mut EvalState,
            ctx: &Ctx,
        ) -> XdmResult<bool> {
            match bindings.first() {
                None => ev.eval(satisfies, st, ctx)?.ebv(),
                Some((var, seq)) => {
                    let v = ev.eval(seq, st, ctx)?;
                    for item in v {
                        ev.env.check_cancel()?;
                        let depth = st.vars.len();
                        st.bind(var, Sequence::one(item));
                        let r = rec(ev, q, &bindings[1..], satisfies, st, ctx)?;
                        st.vars.truncate(depth);
                        match q {
                            Quantifier::Some if r => return Ok(true),
                            Quantifier::Every if !r => return Ok(false),
                            _ => {}
                        }
                    }
                    Ok(matches!(q, Quantifier::Every))
                }
            }
        }
        let r = rec(self, q, bindings, satisfies, st, ctx)?;
        Ok(Sequence::one(Item::boolean(r)))
    }

    // ------------------------------------------------------------------
    // Paths
    // ------------------------------------------------------------------

    /// Apply a path step expression to an already-evaluated base sequence
    /// (public: the loop-lifted engine reuses this per iteration). With
    /// `descendant` — for the step of a path [`descendant_scan`]
    /// recognized — its `child::` is read as `descendant::`: one walk below
    /// each base node.
    pub fn eval_path_rhs(
        &self,
        base: &Sequence,
        rhs: &Expr,
        descendant: bool,
        st: &mut EvalState,
    ) -> XdmResult<Sequence> {
        let axis_step = match rhs {
            Expr::AxisStep {
                axis,
                test,
                predicates,
            } => {
                let axis = if descendant { Axis::Descendant } else { *axis };
                Some((axis, test, predicates))
            }
            _ => None,
        };
        // An axis step over a single context node is in document order with
        // no duplicates as it comes (forward axes are emitted that way, the
        // step reverses the reverse ones, predicates only filter): its
        // result is the path's result.
        if let ([Item::Node(node)], Some((axis, test, predicates))) = (base.items(), axis_step) {
            self.env.check_cancel()?;
            return self.axis_step(node, axis, test, predicates, st);
        }
        let size = base.len();
        let mut node_results: Vec<NodeHandle> = Vec::new();
        let mut atomic_results: Vec<Item> = Vec::new();
        for (i, item) in base.iter().enumerate() {
            self.env.check_cancel()?;
            let Item::Node(node) = item else {
                return Err(XdmError::type_error("path step applied to a non-node"));
            };
            let r = match axis_step {
                Some((axis, test, predicates)) => {
                    self.axis_step(node, axis, test, predicates, st)?
                }
                None => {
                    let c = Ctx {
                        item: Some(item.clone()),
                        pos: i + 1,
                        size,
                    };
                    self.eval(rhs, st, &c)?
                }
            };
            for it in r.into_items() {
                match it {
                    Item::Node(n) => node_results.push(n),
                    a => atomic_results.push(a),
                }
            }
        }
        if !node_results.is_empty() && !atomic_results.is_empty() {
            return Err(XdmError::type_error(
                "path result mixes nodes and atomic values",
            ));
        }
        if atomic_results.is_empty() {
            sort_dedup(&mut node_results);
            Ok(Sequence::from_items(
                node_results.into_iter().map(Item::Node).collect(),
            ))
        } else {
            Ok(Sequence::from_items(atomic_results))
        }
    }

    /// Recognize `lhs/rhs` as the predicate join `base//elem[keypath = v]`
    /// (or `base/elem[…]`, `base/descendant::elem[…]`): a name test with one
    /// predicate comparing a simple downward key path to a value that does
    /// not depend on the candidate. `None` also when the join index is
    /// switched off. Public: the loop-lifted engine runs the same join over
    /// a table of calls.
    pub fn join_path<'a>(&'a self, lhs: &'a Expr, rhs: &'a Expr) -> Option<JoinPath<'a>> {
        if !self.env.join_index {
            return None;
        }
        let Expr::AxisStep {
            axis: axis @ (Axis::Child | Axis::Descendant),
            test: NodeTest::Name(elem),
            predicates,
        } = rhs
        else {
            return None;
        };
        let [Expr::GeneralComp(CompOp::Eq, key, value)] = predicates.as_slice() else {
            return None;
        };
        // `//` parses as an intermediate descendant-or-self::node() step
        let (base, dos) = match lhs {
            Expr::PathStep(inner, dos) if is_dos_step(dos) => (inner.as_ref(), true),
            _ => (lhs, false),
        };
        if expr_uses_focus(value) {
            return None;
        }
        let mut path = index::KeyPath::new(self.name_ref(elem, false)?);
        self.key_steps(key, &mut path)?;
        Some(JoinPath {
            base,
            value,
            dos,
            step: rhs,
            key: path,
            child_only: !dos && matches!(axis, Axis::Child),
        })
    }

    /// The expanded name a name test matches, by the rules of
    /// [`name_matches`](Self::name_matches); `None` for an undeclared prefix.
    fn name_ref<'a>(&'a self, name: &'a Name, is_attr: bool) -> Option<index::NameRef<'a>> {
        let ns = match &name.prefix {
            Some(p) => Some(self.sctx.resolve_prefix(p)?),
            None if is_attr => None,
            None => self.sctx.default_element_ns.as_deref(),
        };
        Some(index::NameRef {
            ns: ns.filter(|u| !u.is_empty()),
            local: &name.local,
        })
    }

    /// Compile a simple key path — child / attribute steps with plain name
    /// tests, `.` and `/` (`@id`, `./buyer/@person`, `name`) — onto `out`.
    fn key_steps<'a>(&'a self, e: &'a Expr, out: &mut index::KeyPath<'a>) -> Option<()> {
        match e {
            Expr::AxisStep {
                axis: Axis::Child,
                test: NodeTest::Name(n),
                predicates,
            } if predicates.is_empty() => out.push(index::KeyStep::Child(self.name_ref(n, false)?)),
            Expr::AxisStep {
                axis: Axis::Attribute,
                test: NodeTest::Name(n),
                predicates,
            } if predicates.is_empty() => {
                out.push(index::KeyStep::Attribute(self.name_ref(n, true)?))
            }
            Expr::AxisStep {
                axis: Axis::SelfAxis,
                test: NodeTest::AnyKind,
                predicates,
            } if predicates.is_empty() => Some(()),
            Expr::ContextItem => Some(()),
            Expr::PathStep(a, b) => {
                self.key_steps(a, out)?;
                self.key_steps(b, out)
            }
            _ => None,
        }
    }

    /// One axis step from `node`: the nodes on `axis` that pass `test` and
    /// the predicates, in document order.
    fn axis_step(
        &self,
        node: &NodeHandle,
        axis: Axis,
        test: &NodeTest,
        predicates: &[Expr],
        st: &mut EvalState,
    ) -> XdmResult<Sequence> {
        // in axis order, which is what a positional predicate counts in
        let mut items = self.axis_items(node, axis, test);
        if !predicates.is_empty() {
            items = self.apply_predicates(items, predicates, st)?;
        }
        // steps deliver document order regardless of axis direction
        if matches!(
            axis,
            Axis::Parent
                | Axis::Ancestor
                | Axis::AncestorOrSelf
                | Axis::PrecedingSibling
                | Axis::Preceding
        ) {
            items.reverse();
        }
        Ok(Sequence::from_items(items))
    }

    /// The nodes on `axis` from `node` that pass `test`, in axis order. The
    /// downward axes are tested slot by slot as the walk goes, so a node
    /// that fails the test costs neither a handle nor a place in a vector.
    fn axis_items(&self, node: &NodeHandle, axis: Axis, test: &NodeTest) -> Vec<Item> {
        let doc = &*node.doc;
        let principal_attr = matches!(axis, Axis::Attribute);
        let keep = |id: &xmldom::NodeId| self.test_matches(doc, *id, test, principal_attr);
        let item = |id| Item::Node(NodeHandle::new(node.doc.clone(), id));
        let this = std::iter::once(node.id);
        let dom_axis = match axis {
            Axis::Child => return doc.children(node.id).filter(keep).map(item).collect(),
            Axis::Descendant => return doc.descendants(node.id).filter(keep).map(item).collect(),
            Axis::DescendantOrSelf => {
                let walk = this.chain(doc.descendants(node.id));
                return walk.filter(keep).map(item).collect();
            }
            Axis::Attribute => return doc.attributes(node.id).filter(keep).map(item).collect(),
            Axis::SelfAxis => return this.filter(keep).map(item).collect(),
            Axis::Parent => axes::Axis::Parent,
            Axis::Ancestor => axes::Axis::Ancestor,
            Axis::AncestorOrSelf => axes::Axis::AncestorOrSelf,
            Axis::FollowingSibling => axes::Axis::FollowingSibling,
            Axis::PrecedingSibling => axes::Axis::PrecedingSibling,
            Axis::Following => axes::Axis::Following,
            Axis::Preceding => axes::Axis::Preceding,
        };
        let mut nodes = axes::step(node, dom_axis);
        nodes.retain(|n| keep(&n.id));
        nodes.into_iter().map(Item::Node).collect()
    }

    fn test_matches(
        &self,
        doc: &Document,
        n: xmldom::NodeId,
        test: &NodeTest,
        principal_attr: bool,
    ) -> bool {
        let kind = doc.kind(n);
        let principal_kind = if principal_attr {
            NodeKind::Attribute
        } else {
            NodeKind::Element
        };
        let named = |name: &Option<Name>, is_attr| {
            name.as_ref()
                .is_none_or(|nm| self.name_matches(doc.name(n), nm, is_attr))
        };
        match test {
            NodeTest::AnyKind => true,
            NodeTest::Text => kind == NodeKind::Text,
            NodeTest::Comment => kind == NodeKind::Comment,
            NodeTest::Pi(target) => {
                kind == NodeKind::ProcessingInstruction
                    && target
                        .as_ref()
                        .is_none_or(|t| doc.name(n).is_some_and(|q| &q.local == t))
            }
            NodeTest::DocumentTest => kind == NodeKind::Document,
            NodeTest::AnyName => kind == principal_kind,
            NodeTest::Element(name) => kind == NodeKind::Element && named(name, false),
            NodeTest::AttributeTest(name) => kind == NodeKind::Attribute && named(name, true),
            NodeTest::NsWildcard(prefix) => {
                kind == principal_kind && {
                    let uri = self.sctx.resolve_prefix(prefix);
                    doc.name(n).is_some_and(|q| q.ns_uri.as_deref() == uri)
                }
            }
            NodeTest::LocalWildcard(local) => {
                kind == principal_kind && doc.name(n).is_some_and(|q| &q.local == local)
            }
            NodeTest::Name(name) => {
                kind == principal_kind && self.name_matches(doc.name(n), name, principal_attr)
            }
        }
    }

    fn name_matches(&self, q: Option<&QName>, name: &Name, is_attr: bool) -> bool {
        let Some(q) = q else { return false };
        if q.local != name.local {
            return false;
        }
        let expected_uri = match &name.prefix {
            Some(p) => self.sctx.resolve_prefix(p),
            // Unprefixed name tests use the default element namespace for
            // elements, no namespace for attributes.
            None if is_attr => None,
            None => self.sctx.default_element_ns.as_deref(),
        };
        normalize_uri(q.ns_uri.as_deref()) == normalize_uri(expected_uri)
    }

    fn apply_predicates(
        &self,
        items: Vec<Item>,
        predicates: &[Expr],
        st: &mut EvalState,
    ) -> XdmResult<Vec<Item>> {
        let mut current = items;
        for p in predicates {
            let size = current.len();
            let mut next = Vec::new();
            for (i, item) in current.into_iter().enumerate() {
                self.env.check_cancel()?;
                let c = Ctx {
                    item: Some(item.clone()),
                    pos: i + 1,
                    size,
                };
                let v = self.eval(p, st, &c)?;
                // numeric predicate = position test
                let keep = if v.len() == 1 {
                    if let Some(a) = v.items()[0].as_atomic() {
                        if a.atomic_type().is_numeric() {
                            let pos = a.cast_to(AtomicType::Double)?;
                            match pos {
                                AtomicValue::Double(d) => d == (i + 1) as f64,
                                _ => unreachable!(),
                            }
                        } else {
                            v.ebv()?
                        }
                    } else {
                        v.ebv()?
                    }
                } else {
                    v.ebv()?
                };
                if keep {
                    next.push(item);
                }
            }
            current = next;
        }
        Ok(current)
    }

    // ------------------------------------------------------------------
    // Function calls
    // ------------------------------------------------------------------

    fn eval_function_call(
        &self,
        name: &Name,
        args: &[Expr],
        st: &mut EvalState,
        ctx: &Ctx,
    ) -> XdmResult<Sequence> {
        // Evaluate actual parameters first (strict semantics).
        let actuals = self.eval_arguments(args, st, ctx)?;
        self.apply_function(name, actuals, st, ctx)
    }

    fn eval_arguments(
        &self,
        args: &[Expr],
        st: &mut EvalState,
        ctx: &Ctx,
    ) -> XdmResult<Vec<Sequence>> {
        let mut actuals = Vec::with_capacity(args.len());
        for a in args {
            actuals.push(self.eval(a, st, ctx)?);
        }
        Ok(actuals)
    }

    /// Apply a function to already-evaluated arguments (shared with the
    /// XRPC server-side request handler).
    pub fn apply_function(
        &self,
        name: &Name,
        actuals: Vec<Sequence>,
        st: &mut EvalState,
        ctx: &Ctx,
    ) -> XdmResult<Sequence> {
        self.env.functions_called.fetch_add(1, Relaxed);
        match self.callee(name, actuals.len())? {
            Some(udf) => self.invoke_udf(&udf, actuals, st),
            None => match name.prefix.as_deref() {
                Some("xrpc") => functions::call_xrpc_builtin(&name.local, actuals),
                _ => functions::call_builtin(self, &name.local, actuals, st, ctx),
            },
        }
    }

    /// The declared function a call of `name` with `arity` arguments
    /// reaches — a main-module function or one of an imported module — or
    /// `None` for the built-in library.
    fn callee(&self, name: &Name, arity: usize) -> XdmResult<Option<Udf<'e>>> {
        let local = |decl: &Arc<FunctionDecl>| Udf {
            decl: decl.clone(),
            body_ev: Evaluator {
                env: self.env,
                sctx: self.sctx.clone(),
                local_functions: self.local_functions.clone(),
            },
        };
        match name.prefix.as_deref() {
            // a user-declared main-module function shadows the built-in
            None => Ok(self.local_functions.get(&name.local, arity).map(local)),
            Some("fn" | "xrpc") => Ok(None),
            Some("local") => match self.local_functions.get(&name.local, arity) {
                Some(decl) => Ok(Some(local(decl))),
                None => Err(XdmError::unknown_function(format!(
                    "unknown local function local:{}#{arity}",
                    name.local
                ))),
            },
            Some(prefix) => {
                // module function via imports (or an already-loaded module
                // whose namespace this prefix maps to)
                let (ns, hint) = match self.sctx.imports.get(prefix) {
                    Some((ns, hints)) => (ns.as_str(), hints.first().map(|h| h.as_str())),
                    None => match self.sctx.resolve_prefix(prefix) {
                        Some(ns) => (ns, None),
                        None => {
                            return Err(XdmError::undefined(format!(
                                "undeclared prefix `{prefix}`"
                            )))
                        }
                    },
                };
                let module = self.env.modules.get_or_load(ns, hint)?;
                let decl = module.function(&name.local, arity).ok_or_else(|| {
                    XdmError::unknown_function(format!(
                        "unknown function {prefix}:{}#{arity} in module `{ns}`",
                        name.local
                    ))
                })?;
                Ok(Some(Udf {
                    decl,
                    body_ev: Evaluator::new(self.env, module.sctx.clone()),
                }))
            }
        }
    }

    /// Run `body` as the body of `udf` called with `actuals`: under the
    /// recursion limit and the cancellation checkpoint, with the parameters
    /// type-checked and bound, on the evaluator of the callee's module.
    fn in_udf_frame<T>(
        &self,
        udf: &Udf,
        actuals: Vec<Sequence>,
        st: &mut EvalState,
        body: impl FnOnce(&Evaluator, &mut EvalState) -> XdmResult<T>,
    ) -> XdmResult<T> {
        if st.depth >= self.env.max_depth {
            return Err(XdmError::new(
                "XQDY0054",
                "function recursion limit exceeded",
            ));
        }
        // Cooperative checkpoint: recursive UDFs are the one loop shape the
        // FLWOR/path checkpoints cannot see, so check the budget per call.
        self.env.check_cancel()?;
        let f = &udf.decl;
        let base = st.vars.len();
        for ((pname, pty), value) in f.params.iter().zip(actuals) {
            if let Some(t) = pty {
                value.check_type(t).map_err(|e| {
                    XdmError::type_error(format!(
                        "parameter ${} of {}: {}",
                        pname.lexical(),
                        f.name.lexical(),
                        e.message
                    ))
                })?;
            }
            st.bind(pname, value);
        }
        st.depth += 1;
        let result = body(&udf.body_ev, st);
        st.depth -= 1;
        st.vars.truncate(base);
        result
    }

    fn invoke_udf(
        &self,
        udf: &Udf,
        actuals: Vec<Sequence>,
        st: &mut EvalState,
    ) -> XdmResult<Sequence> {
        let f = &udf.decl;
        let result = self.in_udf_frame(udf, actuals, st, |sub, st| {
            sub.eval(&f.body, st, &Ctx::none())
        })?;
        if let Some(rt) = &f.ret {
            result
                .check_type(rt)
                .map_err(|e| return_type_error(f, &e.message))?;
        }
        Ok(result)
    }

    // ------------------------------------------------------------------
    // execute at
    // ------------------------------------------------------------------

    fn eval_execute_at(
        &self,
        dest: &Expr,
        call: &Expr,
        st: &mut EvalState,
        ctx: &Ctx,
    ) -> XdmResult<Sequence> {
        let dest_val = self.eval(dest, st, ctx)?.singleton()?.string_value();
        let Expr::FunctionCall { name, args } = call else {
            return Err(XdmError::syntax("execute at body must be a function call"));
        };
        // Resolve the function's module from the caller's imports — the
        // request carries module URI + at-hint (paper §2.1).
        let func = self.resolve_function_ref(name, args.len())?;
        let actuals = self.eval_arguments(args, st, ctx)?;
        let dispatcher = self
            .env
            .dispatcher
            .as_ref()
            .ok_or_else(|| XdmError::xrpc("no XRPC dispatcher configured on this peer"))?;
        {
            let mut stats = self.env.stats.lock();
            stats.rpc_dispatches += 1;
            stats.rpc_calls += 1;
        }
        let mut results = dispatcher.dispatch(&dest_val, &func, vec![actuals])?;
        if results.len() != 1 {
            return Err(XdmError::xrpc(format!(
                "XRPC response carried {} results for 1 call",
                results.len()
            )));
        }
        Ok(results.pop().unwrap())
    }

    /// Build the [`FunctionRef`] an `execute at` needs to put on the wire.
    pub fn resolve_function_ref(&self, name: &Name, arity: usize) -> XdmResult<FunctionRef> {
        let prefix = name.prefix.as_deref().ok_or_else(|| {
            XdmError::syntax("execute at requires a module-qualified function (prefix:name)")
        })?;
        let (ns, hint) = match self.sctx.imports.get(prefix) {
            Some((ns, hints)) => (ns.clone(), hints.first().cloned()),
            None => match self.sctx.resolve_prefix(prefix) {
                Some(ns) => (ns.to_string(), None),
                None => {
                    return Err(XdmError::undefined(format!(
                        "undeclared prefix `{prefix}` in execute at"
                    )))
                }
            },
        };
        // If the module is locally known, learn whether the function updates.
        let updating = self
            .env
            .modules
            .get(&ns)
            .and_then(|m| m.function(&name.local, arity))
            .map(|f| f.updating)
            .unwrap_or(false);
        Ok(FunctionRef {
            module_ns: ns,
            location_hint: hint,
            local_name: name.local.clone(),
            arity,
            updating,
        })
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// A constructor met outside any content (the operand of a `let`, a
    /// function argument, the query body): the node is built in a document
    /// of its own, an element as the child of its document node.
    fn construct(&self, e: &Expr, st: &mut EvalState, ctx: &Ctx) -> XdmResult<Sequence> {
        let mut doc = Document::new();
        let root = doc.root();
        let id = match e {
            Expr::CompDoc(content) => {
                let mut sink = Sink::new(&mut doc, root);
                self.push(content, st, ctx, &mut sink)?;
                sink.flush_text();
                root
            }
            Expr::CompText(c) => {
                let v = self.eval(c, st, ctx)?;
                if v.is_empty() {
                    return Ok(Sequence::empty());
                }
                doc.create_text(space_joined(&v))
            }
            _ => self.build_node(e, &mut doc, st, ctx)?,
        };
        if doc.kind(id) == NodeKind::Element {
            doc.append_child(root, id);
        }
        Ok(Sequence::one(Item::Node(NodeHandle::new(
            Arc::new(doc),
            id,
        ))))
    }

    /// Build the node of an element, attribute, comment or PI constructor
    /// as a parentless node of `doc`.
    fn build_node(
        &self,
        e: &Expr,
        doc: &mut Document,
        st: &mut EvalState,
        ctx: &Ctx,
    ) -> XdmResult<xmldom::NodeId> {
        Ok(match e {
            Expr::DirectElem(d) => self.construct_direct(d, doc, st, ctx)?,
            Expr::CompElem { name, content } => {
                let qname = self.comp_qname(name, st, ctx, true)?;
                let elem = doc.create_element(qname);
                if let Some(c) = content {
                    let mut sink = Sink::new(doc, elem);
                    self.push(c, st, ctx, &mut sink)?;
                    sink.flush_text();
                }
                elem
            }
            Expr::CompAttr { name, content } => {
                let qname = self.comp_qname(name, st, ctx, false)?;
                let value = match content {
                    Some(c) => space_joined(&self.eval(c, st, ctx)?),
                    None => String::new(),
                };
                doc.create_attribute(qname, value)
            }
            Expr::CompComment(c) => doc.create_comment(self.eval(c, st, ctx)?.joined_string()),
            Expr::CompPi { target, content } => {
                let t = match target {
                    CompName::Const(n) => n.local.clone(),
                    CompName::Computed(e) => self.eval(e, st, ctx)?.singleton()?.string_value(),
                };
                let data = match content {
                    Some(c) => self.eval(c, st, ctx)?.joined_string(),
                    None => String::new(),
                };
                doc.create_pi(t, data)
            }
            _ => unreachable!("not a node constructor"),
        })
    }

    /// Evaluate `e` in content position: what it yields is written into
    /// the element under construction as it is produced. Constructors
    /// build their node in the sink's document; `,`, `if`, `typeswitch`,
    /// the `return` of a FLWOR and the body of a declared function hand
    /// the sink down; everything else is evaluated as anywhere else and
    /// its result attached — a node by the one copy construction owes it.
    /// Operands that bind or test (`let`/`for` sequences, conditions,
    /// predicates, arguments) are never pushed, so a node has an identity
    /// wherever an expression could observe it.
    fn push(&self, e: &Expr, st: &mut EvalState, ctx: &Ctx, sink: &mut Sink) -> XdmResult<()> {
        // a built-in, or a declared function whose return type needs the
        // value, is evaluated below like anything else
        if let Expr::FunctionCall { name, args } = e {
            let callee = self.callee(name, args.len())?;
            if let Some(udf) = callee.filter(Udf::return_type_counts) {
                return self.profiled_push("xq:function-call", sink, |ev, sink| {
                    let actuals = ev.eval_arguments(args, st, ctx)?;
                    ev.push_udf(&udf, actuals, st, sink)
                });
            }
        }
        match e {
            Expr::Sequence(es) => es.iter().try_for_each(|x| self.push(x, st, ctx, sink)),
            Expr::If { cond, then, els } => {
                let branch = if self.eval(cond, st, ctx)?.ebv()? {
                    then
                } else {
                    els
                };
                self.push(branch, st, ctx, sink)
            }
            Expr::Typeswitch {
                operand,
                cases,
                default_var,
                default,
            } => {
                let base = st.vars.len();
                let branch =
                    self.typeswitch_branch(operand, cases, default_var, default, st, ctx)?;
                let r = self.push(branch, st, ctx, sink);
                st.vars.truncate(base);
                r
            }
            // not a FLWOR the hash join may take: it can give up after
            // producing results, so its value is attached whole (below)
            Expr::Flwor { clauses, ret } if !(self.env.join_index && hash_join_shape(clauses)) => {
                self.profiled_push("xq:flwor", sink, |ev, sink| {
                    ev.flwor_tuples(clauses, st, ctx, &mut |ev, st2| {
                        ev.push(ret, st2, ctx, sink)
                    })
                })
            }
            Expr::CompText(c) => {
                let v = self.eval(c, st, ctx)?;
                if !v.is_empty() {
                    sink.push_text(&space_joined(&v));
                }
                Ok(())
            }
            Expr::DirectElem(_)
            | Expr::CompElem { .. }
            | Expr::CompAttr { .. }
            | Expr::CompComment(_)
            | Expr::CompPi { .. } => {
                let id = self.build_node(e, sink.doc, st, ctx)?;
                sink.push_built(id)
            }
            _ => sink.attach_content(&self.eval(e, st, ctx)?),
        }
    }

    /// [`invoke_udf`](Self::invoke_udf) with the body in content position.
    /// The declared return type is one [`Udf::return_type_counts`] accepts:
    /// it is checked against what the body pushed.
    fn push_udf(
        &self,
        udf: &Udf,
        actuals: Vec<Sequence>,
        st: &mut EvalState,
        sink: &mut Sink,
    ) -> XdmResult<()> {
        self.env.functions_called.fetch_add(1, Relaxed);
        let f = &udf.decl;
        let (items, atomics) = (sink.items, sink.atomics);
        self.in_udf_frame(udf, actuals, st, |sub, st| {
            sub.push(&f.body, st, &Ctx::none(), sink)
        })?;
        let Some(rt) = &f.ret else { return Ok(()) };
        let (items, atomics) = (sink.items - items, sink.atomics - atomics);
        if !rt.occurrence.accepts(items) {
            return Err(return_type_error(
                f,
                &format!("cardinality {items} does not match {rt}"),
            ));
        }
        if atomics > 0 && rt.kind == xdm::types::ItemKind::AnyNode {
            return Err(return_type_error(f, &format!("item does not match {rt}")));
        }
        Ok(())
    }

    /// [`profiled`](Self::profiled) for an operator in content position:
    /// its cardinality is what it pushed.
    #[inline]
    fn profiled_push(
        &self,
        name: &str,
        sink: &mut Sink,
        f: impl FnOnce(&Self, &mut Sink) -> XdmResult<()>,
    ) -> XdmResult<()> {
        let Some(mut guard) = self.env.profile_op(name) else {
            return f(self, sink);
        };
        let before = sink.items;
        let r = f(self, sink);
        if r.is_ok() {
            guard.set_items((sink.items - before) as u64);
        }
        r
    }

    /// Evaluate a `typeswitch` operand, bind the variable of the case it
    /// selects (the caller truncates `st.vars` afterwards) and return that
    /// case's body.
    fn typeswitch_branch<'a>(
        &self,
        operand: &Expr,
        cases: &'a [xqast::TypeswitchCase],
        default_var: &Option<Name>,
        default: &'a Expr,
        st: &mut EvalState,
        ctx: &Ctx,
    ) -> XdmResult<&'a Expr> {
        let v = self.eval(operand, st, ctx)?;
        let (var, body) = match cases.iter().find(|c| v.check_type(&c.ty).is_ok()) {
            Some(case) => (&case.var, &case.body),
            None => (default_var, default),
        };
        if let Some(var) = var {
            st.bind(var, v);
        }
        Ok(body)
    }

    fn construct_direct(
        &self,
        d: &DirElem,
        doc: &mut Document,
        st: &mut EvalState,
        ctx: &Ctx,
    ) -> XdmResult<xmldom::NodeId> {
        let qname = self.resolve_ctor_name(&d.name, &d.ns_decls, true)?;
        let elem = doc.create_element(qname);
        for (prefix, uri) in &d.ns_decls {
            doc.add_ns_decl(elem, prefix, uri);
        }
        for (aname, parts) in &d.attrs {
            let aq = self.resolve_ctor_name(aname, &d.ns_decls, false)?;
            let mut value = String::new();
            for p in parts {
                match p {
                    AttrContent::Text(t) => value.push_str(t),
                    AttrContent::Enclosed(e) => {
                        value.push_str(&space_joined(&self.eval(e, st, ctx)?))
                    }
                }
            }
            doc.set_attribute(elem, aq, value);
        }
        let mut sink = Sink::new(doc, elem);
        for c in &d.content {
            match c {
                // Boundary whitespace: drop all-whitespace text particles
                // (XQuery default `declare boundary-space strip`).
                DirContent::Text(t) => {
                    if !t.trim().is_empty() {
                        sink.push_text(t);
                    }
                }
                DirContent::Comment(t) => {
                    let id = sink.doc.create_comment(t);
                    sink.push_built(id)?;
                }
                DirContent::Pi(t, v) => {
                    let id = sink.doc.create_pi(t.clone(), v);
                    sink.push_built(id)?;
                }
                DirContent::Element(inner) => {
                    let id = self.construct_direct(inner, sink.doc, st, ctx)?;
                    sink.push_built(id)?;
                }
                DirContent::Enclosed(e) => {
                    self.push(e, st, ctx, &mut sink)?;
                    // atomics are space-joined within one enclosed
                    // expression only
                    sink.after_atomic = false;
                }
            }
        }
        sink.flush_text();
        Ok(elem)
    }

    fn resolve_ctor_name(
        &self,
        name: &Name,
        local_decls: &[(String, String)],
        is_element: bool,
    ) -> XdmResult<QName> {
        let uri = match &name.prefix {
            Some(p) => match local_decls
                .iter()
                .find(|(dp, _)| dp == p)
                .map(|(_, u)| u.clone())
                .or_else(|| self.sctx.resolve_prefix(p).map(|s| s.to_string()))
            {
                Some(u) => Some(u),
                None => {
                    return Err(XdmError::undefined(format!(
                        "undeclared prefix `{p}` in constructor"
                    )))
                }
            },
            None if is_element => local_decls
                .iter()
                .find(|(dp, _)| dp.is_empty())
                .map(|(_, u)| u.clone())
                .or_else(|| self.sctx.default_element_ns.clone()),
            None => None,
        };
        Ok(QName {
            prefix: name.prefix.clone(),
            ns_uri: uri,
            local: name.local.clone(),
        })
    }

    fn comp_qname(
        &self,
        name: &CompName,
        st: &mut EvalState,
        ctx: &Ctx,
        is_element: bool,
    ) -> XdmResult<QName> {
        match name {
            CompName::Const(n) => self.resolve_ctor_name(n, &[], is_element),
            CompName::Computed(e) => {
                let lex = self.eval(e, st, ctx)?.singleton()?.string_value();
                self.lex_to_qname(&lex, is_element)
            }
        }
    }

    fn lex_to_qname(&self, lex: &str, is_element: bool) -> XdmResult<QName> {
        match lex.split_once(':') {
            Some((p, l)) => {
                let uri = self.sctx.resolve_prefix(p).map(|s| s.to_string());
                Ok(QName {
                    prefix: Some(p.to_string()),
                    ns_uri: uri,
                    local: l.to_string(),
                })
            }
            None => {
                let uri = if is_element {
                    self.sctx.default_element_ns.clone()
                } else {
                    None
                };
                Ok(QName {
                    prefix: None,
                    ns_uri: uri,
                    local: lex.to_string(),
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // misc helpers
    // ------------------------------------------------------------------

    fn eval_integer_opt(&self, e: &Expr, st: &mut EvalState, ctx: &Ctx) -> XdmResult<Option<i64>> {
        range_bound(self.eval(e, st, ctx)?.zero_or_one()?)
    }

    fn eval_nodes(
        &self,
        e: &Expr,
        st: &mut EvalState,
        ctx: &Ctx,
        who: &str,
    ) -> XdmResult<Vec<NodeHandle>> {
        self.eval(e, st, ctx)?
            .into_items()
            .into_iter()
            .map(|i| match i {
                Item::Node(n) => Ok(n),
                _ => Err(XdmError::type_error(format!(
                    "{who} operands must be nodes"
                ))),
            })
            .collect()
    }

    fn eval_single_node(
        &self,
        e: &Expr,
        st: &mut EvalState,
        ctx: &Ctx,
        who: &str,
    ) -> XdmResult<NodeHandle> {
        match self.eval(e, st, ctx)?.singleton()? {
            Item::Node(n) => Ok(n.clone()),
            _ => Err(XdmError::type_error(format!("{who} must be a single node"))),
        }
    }
}

/// Do the clauses begin `for $a in X, $b in Y where l = r` — what
/// [`Evaluator::try_flwor_hash_join`] takes on?
fn hash_join_shape(clauses: &[FlworClause]) -> bool {
    use FlworClause::{For, Where};
    matches!(
        clauses,
        [
            For { pos_var: None, .. },
            For { pos_var: None, .. },
            Where(Expr::GeneralComp(CompOp::Eq, ..)),
            ..
        ]
    )
}

/// A declared function as a call reaches it: the declaration, and the
/// evaluator — static context and main-module functions of the declaring
/// module — its body runs on.
struct Udf<'e> {
    decl: Arc<FunctionDecl>,
    body_ev: Evaluator<'e>,
}

impl Udf<'_> {
    /// Can the declared return type be checked from a count of the items
    /// and atomic values the body pushed (none, `item()` or `node()` with
    /// any occurrence)? Anything richer needs the value.
    fn return_type_counts(&self) -> bool {
        use xdm::types::ItemKind;
        self.decl
            .ret
            .as_ref()
            .is_none_or(|t| matches!(t.kind, ItemKind::AnyItem | ItemKind::AnyNode))
    }
}

fn return_type_error(f: &FunctionDecl, what: &str) -> XdmError {
    XdmError::type_error(format!("return value of {}: {what}", f.name.lexical()))
}

/// The main-module functions a library module's bodies see: none.
fn no_local_functions() -> Arc<LocalFunctions> {
    static NONE: OnceLock<Arc<LocalFunctions>> = OnceLock::new();
    NONE.get_or_init(Default::default).clone()
}

/// The atomized items' lexical forms, space-separated (attribute values,
/// text node content).
fn space_joined(v: &Sequence) -> String {
    let mut out = String::new();
    for (i, item) in v.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&item.atomize().lexical());
    }
    out
}

/// The element (or document node) under construction that content is
/// written into — by [`Evaluator::push`] as it is produced, or from an
/// evaluated sequence by [`attach_content`](Self::attach_content). It
/// lives for the whole of the node's content, so the content rules that
/// span enclosed expressions hold: adjacent text merges into one node, an
/// empty text node is dropped, an attribute may not follow a child
/// (XQTY0024) nor repeat a name (XQDY0025).
struct Sink<'d> {
    doc: &'d mut Document,
    parent: xmldom::NodeId,
    /// Text not yet written as a node; the next text joins it.
    text: String,
    /// The last thing written was an atomic value of the enclosed
    /// expression still running: another one is separated by a space.
    after_atomic: bool,
    seen_child: bool,
    /// Items and atomic values written so far — what a function body in
    /// content position is checked against its return type by.
    items: usize,
    atomics: usize,
}

impl<'d> Sink<'d> {
    fn new(doc: &'d mut Document, parent: xmldom::NodeId) -> Self {
        Sink {
            doc,
            parent,
            text: String::new(),
            after_atomic: false,
            seen_child: false,
            items: 0,
            atomics: 0,
        }
    }

    fn push_atomic(&mut self, a: &AtomicValue) {
        if self.after_atomic {
            self.text.push(' ');
        }
        self.text.push_str(&a.lexical());
        self.after_atomic = true;
        self.items += 1;
        self.atomics += 1;
    }

    fn push_text(&mut self, t: &str) {
        self.text.push_str(t);
        self.after_atomic = false;
        self.items += 1;
    }

    /// Write the pending text, if any, as a text node: before a child is
    /// linked in, and once the content is complete.
    fn flush_text(&mut self) {
        if !self.text.is_empty() {
            let id = self.doc.create_text(&self.text);
            self.doc.append_child(self.parent, id);
            self.text.clear();
            self.seen_child = true;
        }
    }

    /// Link in a parentless node of `self.doc` — one a constructor just
    /// built there, or the copy of an attached one.
    fn push_built(&mut self, id: xmldom::NodeId) -> XdmResult<()> {
        self.after_atomic = false;
        self.items += 1;
        if self.doc.kind(id) != NodeKind::Attribute {
            self.flush_text();
            self.doc.append_child(self.parent, id);
            self.seen_child = true;
            return Ok(());
        }
        if self.doc.kind(self.parent) == NodeKind::Document {
            return Err(XdmError::type_error("attribute in document content"));
        }
        if self.seen_child || !self.text.is_empty() {
            return Err(XdmError::new(
                "XQTY0024",
                "attribute constructed after content",
            ));
        }
        let name = self.doc.name(id).expect("an attribute has a name");
        if self.doc.attribute_by_name(self.parent, name).is_some() {
            return Err(XdmError::new(
                "XQDY0025",
                format!("duplicate attribute `{}`", name.lexical()),
            ));
        }
        self.doc.set_attribute_node(self.parent, id);
        Ok(())
    }

    /// Attach evaluated content: atomics become text, nodes are copied (by
    /// value) — attributes as attributes, a document node as its children.
    fn attach_content(&mut self, content: &Sequence) -> XdmResult<()> {
        for item in content.iter() {
            match item {
                Item::Atomic(a) => self.push_atomic(a),
                Item::Node(n) if n.kind() == NodeKind::Document => {
                    // one item, however many children it splices in
                    let items = self.items;
                    for c in n.doc.children(n.id) {
                        self.copy_node(&n.doc, c)?;
                    }
                    self.after_atomic = false;
                    self.items = items + 1;
                }
                Item::Node(n) => self.copy_node(&n.doc, n.id)?,
            }
        }
        Ok(())
    }

    fn copy_node(&mut self, src: &Document, id: xmldom::NodeId) -> XdmResult<()> {
        if src.kind(id) == NodeKind::Text {
            self.push_text(src.value(id));
            return Ok(());
        }
        let copy = self.doc.import_subtree(src, id);
        self.push_built(copy)
    }
}

fn comp_matches(op: CompOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CompOp::Eq => ord == Equal,
        CompOp::Ne => ord != Equal,
        CompOp::Lt => ord == Less,
        CompOp::Le => ord != Greater,
        CompOp::Gt => ord == Greater,
        CompOp::Ge => ord != Less,
    }
}

/// The sequence a row is: empty, or its one item.
fn sequence_of(row: Option<Item>) -> Sequence {
    row.map_or_else(Sequence::empty, Sequence::one)
}

// The scalar operators over operands that are empty or one item. The arms of
// `Evaluator::eval` above call them once their operands' cardinality is
// checked; the loop-lifted engine's map operator calls them row by row.

/// `a op b`: empty if either operand is.
pub fn arith(op: ops::ArithOp, a: Option<&Item>, b: Option<&Item>) -> XdmResult<Option<Item>> {
    let (Some(a), Some(b)) = (a, b) else {
        return Ok(None);
    };
    let r = ops::arith(op, &a.atomize(), &b.atomize())?;
    Ok(Some(Item::Atomic(r)))
}

/// Unary minus.
pub fn negate(a: Option<&Item>) -> XdmResult<Option<Item>> {
    a.map(|i| ops::negate(&i.atomize()).map(Item::Atomic))
        .transpose()
}

/// Value comparison (`eq`, `lt`, ...): empty if either operand is.
pub fn value_compare(op: CompOp, a: Option<&Item>, b: Option<&Item>) -> XdmResult<Option<Item>> {
    let (Some(a), Some(b)) = (a, b) else {
        return Ok(None);
    };
    let ord = a.atomize().value_cmp(&b.atomize())?;
    Ok(Some(Item::boolean(comp_matches(op, ord))))
}

/// `cast as`: of the empty sequence it is empty where `?` allows that.
pub fn cast(a: Option<&Item>, target: AtomicType, allow_empty: bool) -> XdmResult<Option<Item>> {
    match a {
        None if allow_empty => Ok(None),
        None => Err(XdmError::type_error("cast of empty sequence")),
        Some(i) => Ok(Some(Item::Atomic(i.atomize().cast_to(target)?))),
    }
}

/// A bound of `a to b`: the operand as an integer, if it is not empty.
pub fn range_bound(a: Option<&Item>) -> XdmResult<Option<i64>> {
    match a
        .map(|i| i.atomize().cast_to(AtomicType::Integer))
        .transpose()?
    {
        None => Ok(None),
        Some(AtomicValue::Integer(n)) => Ok(Some(n)),
        Some(_) => unreachable!("cast to xs:integer"),
    }
}

/// Existential general comparison (XQuery §3.5.2).
pub fn general_compare(op: CompOp, a: &[Item], b: &[Item]) -> XdmResult<bool> {
    // a pair whose comparison fails just doesn't match
    let pair =
        |x: &AtomicValue, y: &AtomicValue| x.general_cmp(y).is_ok_and(|ord| comp_matches(op, ord));
    // two singletons — a join predicate's usual operands — need no vectors
    if let ([x], [y]) = (a, b) {
        return Ok(pair(&x.atomize(), &y.atomize()));
    }
    let right: Vec<AtomicValue> = b.iter().map(Item::atomize).collect();
    Ok(a.iter().any(|x| {
        let x = x.atomize();
        right.iter().any(|y| pair(&x, y))
    }))
}

/// `lhs/rhs` as one descendant scan: when `lhs` is
/// `inner/descendant-or-self::node()` (a `//`) and `rhs` a `child::` step
/// none of whose predicates can be positional, `inner/descendant::T[p…]`
/// selects the same nodes — every node below `inner` is the child of some
/// node at or below it, and such predicates see only the node they test —
/// so the step can walk the subtree once ([`Evaluator::eval_path_rhs`] with
/// `descendant`) instead of once per node of it. Returns `inner`. A predicate cannot be
/// positional when its value is never a number and nothing in it reads the
/// focus position: a comparison, an `and`/`or`, or a path ending in an
/// axis step, with no call of `position()` or `last()` inside.
pub fn descendant_scan<'a>(lhs: &'a Expr, rhs: &'a Expr) -> Option<&'a Expr> {
    let Expr::PathStep(inner, dos) = lhs else {
        return None;
    };
    let Expr::AxisStep {
        axis: Axis::Child,
        predicates,
        ..
    } = rhs
    else {
        return None;
    };
    let never_positional = |p: &Expr| {
        let shape_ok = match p {
            Expr::GeneralComp(..)
            | Expr::ValueComp(..)
            | Expr::NodeComp(..)
            | Expr::And(..)
            | Expr::Or(..)
            | Expr::AxisStep { .. } => true,
            Expr::PathStep(_, last) => matches!(last.as_ref(), Expr::AxisStep { .. }),
            _ => false,
        };
        let mut reads_position = false;
        p.walk(&mut |x| {
            if let Expr::FunctionCall { name, .. } = x {
                reads_position |= matches!(name.prefix.as_deref(), None | Some("fn"))
                    && matches!(name.local.as_str(), "position" | "last");
            }
        });
        shape_ok && !reads_position
    };
    (is_dos_step(dos) && predicates.iter().all(never_positional)).then_some(inner.as_ref())
}

/// Is `e` the `descendant-or-self::node()` step a `//` parses as?
fn is_dos_step(e: &Expr) -> bool {
    matches!(
        e,
        Expr::AxisStep {
            axis: Axis::DescendantOrSelf,
            test: NodeTest::AnyKind,
            predicates,
        } if predicates.is_empty()
    )
}

fn normalize_uri(u: Option<&str>) -> Option<&str> {
    u.filter(|s| !s.is_empty())
}

/// Collect the names of all variables referenced in `e` (conservative:
/// shadowing is ignored, which only makes optimizations more cautious).
fn free_var_names(e: &Expr) -> std::collections::HashSet<String> {
    let mut names = std::collections::HashSet::new();
    e.walk(&mut |x| {
        if let Expr::VarRef(n) = x {
            names.insert(n.lexical());
        }
    });
    names
}

/// Does the expression reference the focus (context item/position/size)?
fn expr_uses_focus(e: &Expr) -> bool {
    let mut uses = false;
    e.walk(&mut |x| match x {
        Expr::ContextItem | Expr::Root(_) | Expr::AxisStep { .. } => uses = true,
        Expr::FunctionCall { name, .. }
            if matches!(
                name.local.as_str(),
                "position" | "last" | "string" | "number"
            ) && name.prefix.is_none() =>
        {
            uses = true
        }
        _ => {}
    });
    uses
}
