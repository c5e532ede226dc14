//! The tree-walking evaluator core.

use crate::context::{Environment, FunctionRef, StaticContext};
use crate::effects::{self, Effects, Summary};
use crate::functions;
use crate::index;
use crate::pul::{PendingUpdateList, UpdatePrimitive};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, OnceLock};
use xdm::atomic::AtomicValue;
use xdm::ops;
use xdm::types::{AtomicType, ItemKind, SeqType};
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
#[derive(Default)]
pub struct EvalState {
    /// Innermost binding last, keyed by [`Name::key`].
    pub vars: Bindings,
    pub pul: PendingUpdateList,
    pub depth: usize,
    /// Where the bindings of the function body being evaluated start: it
    /// sees those and the first `globals` (external and prolog variables).
    pub frame: usize,
    pub globals: usize,
}

impl EvalState {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn bind(&mut self, name: &Name, value: Sequence) {
        self.vars.push((name.key().clone(), value));
    }

    pub fn lookup(&self, name: &Name) -> Option<&Sequence> {
        let hit = |(n, _): &&(Arc<str>, Sequence)| name.is_lexical(n);
        (self.vars[self.frame..].iter().rev().find(hit))
            .or_else(|| {
                self.vars[..self.globals.min(self.frame)]
                    .iter()
                    .rev()
                    .find(hit)
            })
            .map(|(_, v)| v)
    }
}

/// The evaluator: an environment plus the static context of the module
/// whose expressions it is currently evaluating.
#[derive(Clone)]
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

/// A FLWOR `for $a in X, $b in Y where ka = kb … return R` that the hash
/// join takes: Y mentions no `$a`, one key mentions only `$a` and the other
/// only `$b`, and no `order by` follows. Whether what evaluating Y does
/// lets it be evaluated once is the evaluator's to say
/// ([`Evaluator::takes_join`]).
pub struct HashJoin<'a> {
    a_var: &'a Name,
    x_seq: &'a Expr,
    b_var: &'a Name,
    y_seq: &'a Expr,
    a_key: &'a Expr,
    b_key: &'a Expr,
    /// The `where` and the clauses after it: the nested loop's tail.
    tail: &'a [FlworClause],
    ret: &'a Expr,
}

impl<'a> HashJoin<'a> {
    pub fn of(clauses: &'a [FlworClause], ret: &'a Expr) -> Option<Self> {
        let [FlworClause::For {
            var: a_var,
            pos_var: None,
            seq: x_seq,
        }, FlworClause::For {
            var: b_var,
            pos_var: None,
            seq: y_seq,
        }, tail @ ..] = clauses
        else {
            return None;
        };
        let [FlworClause::Where(Expr::GeneralComp(CompOp::Eq, l, r)), rest @ ..] = tail else {
            return None;
        };
        // a trailing order-by needs the tuple materialization
        if rest.iter().any(|c| matches!(c, FlworClause::OrderBy(_))) {
            return None;
        }
        let (a_name, b_name) = (a_var.lexical(), b_var.lexical());
        if free_var_names(y_seq).contains(&a_name) {
            return None;
        }
        let side = |e: &Expr| {
            let free = free_var_names(e);
            (free.contains(&a_name), free.contains(&b_name))
        };
        let (a_key, b_key) = match (side(l), side(r)) {
            ((true, false), (false, true)) => (&**l, &**r),
            ((false, true), (true, false)) => (&**r, &**l),
            _ => return None,
        };
        Some(HashJoin {
            a_var,
            x_seq,
            b_var,
            y_seq,
            a_key,
            b_key,
            tail,
            ret,
        })
    }

    /// The FLWOR's expressions but Y.
    fn not_y(&self) -> impl Iterator<Item = &'a Expr> {
        let clauses = self.tail.iter().filter_map(FlworClause::expr);
        [self.x_seq, self.ret].into_iter().chain(clauses)
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
/// prepared query — coerced to the declared type by the host channel's
/// cast rule (`coerce_to_declared`), not by XQuery's function conversion;
/// an unbound external without a default errors.
pub fn eval_prolog_vars(ev: &Evaluator, module: &MainModule, st: &mut EvalState) -> XdmResult<()> {
    for decl in &module.prolog.variables {
        st.globals = st.vars.len();
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
    st.globals = st.vars.len();
    Ok(())
}

/// The host channel's cast rule for an external variable's binding: kept
/// as-is when it matches the declared type, else every item atomized and
/// cast to an atomic declared type.
fn coerce_to_declared(value: Sequence, ty: Option<&SeqType>) -> XdmResult<Sequence> {
    let Some(t) = ty else { return Ok(value) };
    if value.check_type(t).is_ok() {
        return Ok(value);
    }
    if let ItemKind::Atomic(at) = &t.kind {
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

/// XQuery 1.0 §3.1.5's function conversion rules: `value` as a value of
/// `ty`. For an atomic expected type it is atomized, each `xs:untypedAtomic`
/// cast to that type (a failed cast keeps its own code) and each numeric or
/// `xs:anyURI` value promoted to it; then it must match `ty` (XPTY0004).
pub fn convert(value: Sequence, ty: &SeqType) -> XdmResult<Sequence> {
    use AtomicType as T;
    let ItemKind::Atomic(want) = ty.kind else {
        return value.check_type(ty).map(|()| value);
    };
    if value.check_type(ty).is_ok() {
        return Ok(value);
    }
    let converted = value.iter().map(|item| {
        let a = item.atomize();
        match (a.atomic_type(), want) {
            (T::UntypedAtomic, _)
            | (T::Integer | T::Decimal, T::Float | T::Double)
            | (T::Float, T::Double)
            | (T::AnyUri, T::String) => a.cast_to(want).map(Item::Atomic),
            _ => Ok(Item::Atomic(a)),
        }
    });
    let s = converted.collect::<XdmResult<Sequence>>()?;
    s.check_type(ty).map(|()| s)
}

/// The values a call binds `decl`'s parameters to: the actual arguments
/// under the function conversion rules ([`convert`]), whether the call is
/// written in a query or served to a peer.
pub fn convert_arguments(decl: &FunctionDecl, args: Vec<Sequence>) -> XdmResult<Vec<Sequence>> {
    let name = || decl.name.lexical();
    if args.len() != decl.params.len() {
        let (want, got) = (decl.params.len(), args.len());
        let why = format!("function {} expects {want} arguments, got {got}", name());
        return Err(XdmError::type_error(why));
    }
    (decl.params.iter().zip(args))
        .map(|((p, ty), value)| match ty {
            None => Ok(value),
            Some(t) => convert(value, t).map_err(|e| XdmError {
                message: format!("parameter ${} of {}: {}", p.lexical(), name(), e.message),
                ..e
            }),
        })
        .collect()
}

/// `result` of a call of `f` under the function conversion rules for its
/// declared return type (XQuery 1.0 §4.15).
pub fn convert_result(f: &FunctionDecl, result: Sequence) -> XdmResult<Sequence> {
    let Some(rt) = &f.ret else { return Ok(result) };
    convert(result, rt).map_err(|e| XdmError {
        message: format!("return value of {}: {}", f.name.lexical(), e.message),
        ..e
    })
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
            Expr::Union(a, b) | Expr::Intersect(a, b) | Expr::Except(a, b) => {
                let (op, keep) = match e {
                    Expr::Union(..) => ("union operands", None),
                    Expr::Intersect(..) => ("intersect operands", Some(true)),
                    _ => ("except operands", Some(false)),
                };
                let mut nodes = self.eval_nodes(a, st, ctx, op)?;
                let right = self.eval_nodes(b, st, ctx, op)?;
                match keep {
                    None => nodes.extend(right),
                    Some(keep) => nodes.retain(|x| right.iter().any(|y| y.same_node(x)) == keep),
                }
                sort_dedup(&mut nodes);
                Ok(Sequence::from_items(
                    nodes.into_iter().map(Item::Node).collect(),
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
                self.profiled("xq:flwor", |ev| ev.eval_flwor(clauses, ret, st, ctx))
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
                let content = self.eval_nodes(source, st, ctx, "insert source")?;
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
                for n in self.eval_nodes(target, st, ctx, "delete target")? {
                    st.pul.push(UpdatePrimitive::Delete { target: n });
                }
                Ok(Sequence::empty())
            }
            Expr::ReplaceNode { target, with } => {
                let t = self.eval_single_node(target, st, ctx, "replace target")?;
                let replacement = self.eval_nodes(with, st, ctx, "replacement")?;
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
        clauses: &[FlworClause],
        ret: &Expr,
        st: &mut EvalState,
        ctx: &Ctx,
    ) -> XdmResult<Sequence> {
        // Hash-join fast path: `for $a in X, $b in Y where keyA($a) = keyB($b)`
        // becomes a build+probe join instead of a nested loop — the same
        // join detection the paper observes in Saxon (§4).
        let join = (self.env.join_index).then(|| HashJoin::of(clauses, ret));
        if let Some(join) = join.flatten().filter(|j| self.takes_join(j).is_some()) {
            return self.flwor_hash_join(&join, st, ctx);
        }
        let mut out = Sequence::empty();
        self.flwor_tuples(clauses, st, ctx, &mut |ev, st2| {
            out.extend(ev.eval(ret, st2, ctx)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Does the hash join take `join`, and with how many calls in Y? It
    /// evaluates Y once, and not at all for an empty X: Y may construct no
    /// node, and nothing in the FLWOR have an effect ([`Summary`]) but the
    /// calls in Y that the optimizer's join rule takes
    /// ([`Environment::rpc_optimize`]): known read-only, each run once.
    pub fn takes_join(&self, join: &HashJoin) -> Option<usize> {
        let (y, rest) = (self.summary([join.y_seq]), self.summary(join.not_y()));
        let rule = self.env.rpc_optimize && !y.delta && !y.unknown && !y.repeated;
        let takes = !y.constructs && rest.is_quiet() && (y.sites == 0 || rule);
        (takes && self.env.join_index).then_some(y.sites)
    }

    /// What evaluating each of `es` once may do besides compute its value.
    pub fn summary<'x>(&self, es: impl IntoIterator<Item = &'x Expr>) -> Summary {
        let modules = Some(&*self.env.modules);
        effects::summary(es, &self.sctx, &self.local_functions, modules)
    }

    /// Does a call of `name` with `arity` arguments reach the built-in
    /// `fn` library (rather than a declared function)?
    pub fn is_builtin(&self, name: &Name, arity: usize) -> bool {
        match name.prefix.as_deref() {
            Some("fn") => true,
            // an unprefixed main-module function of that name shadows it
            None => self.local_functions.get(&name.local, arity).is_none(),
            Some(_) => false,
        }
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

    /// Execute `join` as a hash join (build on Y, probe per $a). Only
    /// string and untyped keys are joined this way (the general-comparison
    /// coercion for them is plain string equality, see `index::string_key`).
    /// At the first other key, or one that fails, the tuples left run as
    /// the nested loop, over the X and Y items already evaluated (Y does
    /// not depend on $a): results and errors are the nested loop's, in its
    /// order (X order, then Y order per match).
    fn flwor_hash_join(
        &self,
        join: &HashJoin,
        st: &mut EvalState,
        ctx: &Ctx,
    ) -> XdmResult<Sequence> {
        let (a, b) = (
            self.join_key(join.a_var, join.a_key),
            self.join_key(join.b_var, join.b_key),
        );
        let x_items = self.eval(join.x_seq, st, ctx)?.into_items();
        if x_items.is_empty() {
            // the nested loop evaluates neither Y nor a key
            return Ok(Sequence::empty());
        }
        let y_items = self.eval(join.y_seq, st, ctx)?.into_items();
        let mut out = Sequence::empty();
        let mut emit = |ev: &Evaluator, st2: &mut EvalState| {
            out.extend(ev.eval(join.ret, st2, ctx)?);
            Ok(())
        };
        let mut op = self.env.profile_op("xq:hash-join");
        let (mut table, mut keys, mut hits) = (HashMap::new(), Vec::new(), Vec::new());
        // until a key that is not a string or fails; from there on, the
        // nested loop
        let mut joining = true;
        for (yi, y) in y_items.iter().enumerate() {
            joining = joining && self.join_keys(&b, y, st, ctx, &mut keys);
            for k in keys.drain(..) {
                table.entry(k).or_insert_with(Vec::new).push(yi);
            }
        }
        let mut joined = 0;
        for x in &x_items {
            joining = joining && self.join_keys(&a, x, st, ctx, &mut keys);
            hits.clear();
            if joining {
                for k in keys.drain(..) {
                    hits.extend(table.get(&k).into_iter().flatten());
                }
                hits.sort_unstable();
                hits.dedup();
                joined += hits.len() as u64;
            } else {
                hits.extend(0..y_items.len());
            }
            // a pair the table matched is equal as strings, which is what
            // `=` means for string keys; the nested loop tests by the `where`
            let tail = if joining { &join.tail[1..] } else { join.tail };
            let depth = st.vars.len();
            st.bind(a.var, Sequence::one(x.clone()));
            for &yi in &hits {
                self.env.check_cancel()?;
                st.bind(b.var, Sequence::one(y_items[yi].clone()));
                self.stream(tail, st, ctx, &mut emit)?;
                st.vars.truncate(depth + 1);
            }
            st.vars.truncate(depth);
        }
        if let Some(op) = &mut op {
            op.set_items(joined);
        }
        Ok(out)
    }

    /// One side's key of the hash join, compiled to a key path when it is
    /// `$var` followed by plain name steps (`$ca/buyer/@person`).
    fn join_key<'a>(&'a self, var: &'a Name, expr: &'a Expr) -> JoinKey<'a> {
        let mut steps = Vec::new();
        let compiled = self.key_steps(expr, Some(var), &mut |step| {
            steps.push(step);
            Some(())
        });
        JoinKey {
            var,
            expr,
            steps: compiled.map(|()| steps),
        }
    }

    /// Push `item`'s join keys onto `out`: read from the arena when the key
    /// compiled and the item is a node with untyped key nodes, by the
    /// interpreted key expression otherwise. `false` on a key that is not a
    /// string, or that fails: the join gives up, and the nested loop raises
    /// the error where it meets it, after the tuples before it.
    fn join_keys<'i>(
        &self,
        key: &JoinKey,
        item: &'i Item,
        st: &mut EvalState,
        ctx: &Ctx,
        out: &mut Vec<Cow<'i, str>>,
    ) -> bool {
        if let (Some(steps), Item::Node(n)) = (&key.steps, item) {
            if index::key_values(&n.doc, n.id, steps, out) {
                return true;
            }
            out.clear();
        }
        let depth = st.vars.len();
        st.bind(key.var, Sequence::one(item.clone()));
        let keys = self.eval(key.expr, st, ctx);
        st.vars.truncate(depth);
        let Ok(keys) = keys else { return false };
        for k in keys.atomized() {
            let Some(s) = index::string_key(&k) else {
                return false;
            };
            out.push(Cow::Owned(s.to_owned()));
        }
        true
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
        self.key_steps(key, None, &mut |step| path.push(step))?;
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
    /// tests, `.` and `/` (`@id`, `./buyer/@person`, `name`) — step by step
    /// into `push`. With `var`, the path starts at `$var` instead of the
    /// context item (`$ca/buyer/@person`, the FLWOR hash join's keys).
    fn key_steps<'a>(
        &'a self,
        e: &'a Expr,
        var: Option<&Name>,
        push: &mut dyn FnMut(index::KeyStep<'a>) -> Option<()>,
    ) -> Option<()> {
        match e {
            Expr::VarRef(n) => (var == Some(n)).then_some(()),
            Expr::PathStep(a, b) => {
                self.key_steps(a, var, push)?;
                self.key_steps(b, None, push)
            }
            _ if var.is_some() => None,
            Expr::AxisStep {
                axis: Axis::Child,
                test: NodeTest::Name(n),
                predicates,
            } if predicates.is_empty() => push(index::KeyStep::Child(self.name_ref(n, false)?)),
            Expr::AxisStep {
                axis: Axis::Attribute,
                test: NodeTest::Name(n),
                predicates,
            } if predicates.is_empty() => push(index::KeyStep::Attribute(self.name_ref(n, true)?)),
            Expr::AxisStep {
                axis: Axis::SelfAxis,
                test: NodeTest::AnyKind,
                predicates,
            } if predicates.is_empty() => Some(()),
            Expr::ContextItem => Some(()),
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
                Some(_) if is_constructor(&self.sctx, name) => construct(name, actuals),
                _ => functions::call_builtin(self, &name.local, actuals, st, ctx),
            },
        }
    }

    /// The declared function a call of `name` with `arity` arguments
    /// reaches — a main-module function or one of an imported module — or
    /// `None` for the built-in library and the constructor functions.
    pub fn callee(&self, name: &Name, arity: usize) -> XdmResult<Option<Udf<'e>>> {
        let local = |decl: &Arc<FunctionDecl>| Udf {
            decl: decl.clone(),
            body_ev: self.clone(),
        };
        match name.prefix.as_deref() {
            // a user-declared main-module function shadows the built-in
            None => Ok(self.local_functions.get(&name.local, arity).map(local)),
            Some("fn" | "xrpc") => Ok(None),
            Some(_) if is_constructor(&self.sctx, name) => {
                match (arity, AtomicType::from_xs_name(&name.local)) {
                    (1, Some(_)) => Ok(None),
                    _ => Err(XdmError::unknown_function(format!(
                        "no constructor function {}#{arity}",
                        name.lexical()
                    ))),
                }
            }
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
                let (ns, hint) = self
                    .sctx
                    .module_of(prefix)
                    .ok_or_else(|| XdmError::undefined(format!("undeclared prefix `{prefix}`")))?;
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

    /// Run `body` as the body of `udf` called with `actuals`, with the
    /// parameters converted ([`convert_arguments`]) and bound, on the
    /// evaluator of the callee's module (see [`in_frame`]).
    fn in_udf_frame<T>(
        &self,
        udf: &Udf,
        actuals: Vec<Sequence>,
        st: &mut EvalState,
        body: impl FnOnce(&Evaluator, &mut EvalState) -> XdmResult<T>,
    ) -> XdmResult<T> {
        in_frame(&udf.body_ev, st, |st| {
            let values = convert_arguments(&udf.decl, actuals)?;
            for ((pname, _), value) in udf.decl.params.iter().zip(values) {
                st.bind(pname, value);
            }
            body(&udf.body_ev, st)
        })
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
        convert_result(f, result)
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
        let (func, _) = self.resolve_function_ref(name, args.len())?;
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

    /// Build the [`FunctionRef`] an `execute at` needs to put on the wire,
    /// and say whether this peer knows the function to be read-only: its
    /// module is registered here and declares it without `updating`. Only
    /// such a call may the optimizer collapse or join;
    /// [`FunctionRef::updating`] says "not updating" also of a function this
    /// peer does not know.
    pub fn resolve_function_ref(
        &self,
        name: &Name,
        arity: usize,
    ) -> XdmResult<(FunctionRef, bool)> {
        let prefix = name.prefix.as_deref().ok_or_else(|| {
            XdmError::syntax("execute at requires a module-qualified function (prefix:name)")
        })?;
        let (ns, hint) = self.sctx.module_of(prefix).ok_or_else(|| {
            XdmError::undefined(format!("undeclared prefix `{prefix}` in execute at"))
        })?;
        // If the module is locally known, learn whether the function updates.
        let updating = (self.env.modules.get(ns))
            .and_then(|m| m.function(&name.local, arity))
            .map(|f| f.updating);
        let func = FunctionRef {
            module_ns: ns.to_string(),
            location_hint: hint.map(str::to_string),
            local_name: name.local.clone(),
            arity,
            updating: updating.unwrap_or(false),
        };
        Ok((func, updating == Some(false)))
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
            // not a FLWOR the hash join may take: the join builds its
            // result as a value, which is attached whole (below)
            Expr::Flwor { clauses, ret }
                if !self.env.join_index || HashJoin::of(clauses, ret).is_none() =>
            {
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
        if atomics > 0 && rt.kind == ItemKind::AnyNode {
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
                _ => Err(XdmError::type_error(format!("{who} must be nodes"))),
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

/// One side's key of the FLWOR hash join: `expr` over `$var`, and its key
/// path when it compiled to one.
struct JoinKey<'a> {
    var: &'a Name,
    expr: &'a Expr,
    steps: Option<Vec<index::KeyStep<'a>>>,
}

/// A declared function as a call reaches it: the declaration, and the
/// evaluator — static context and main-module functions of the declaring
/// module — its body runs on.
pub struct Udf<'e> {
    pub decl: Arc<FunctionDecl>,
    pub body_ev: Evaluator<'e>,
}

impl Udf<'_> {
    /// Can the declared return type be checked from a count of the items
    /// and atomic values the body pushed (none, `item()` or `node()` with
    /// any occurrence)? Anything richer needs the value.
    fn return_type_counts(&self) -> bool {
        self.decl
            .ret
            .as_ref()
            .is_none_or(|t| matches!(t.kind, ItemKind::AnyItem | ItemKind::AnyNode))
    }
}

fn return_type_error(f: &FunctionDecl, what: &str) -> XdmError {
    XdmError::type_error(format!("return value of {}: {what}", f.name.lexical()))
}

/// Run `body` as a function body: under the recursion limit and the
/// cancellation checkpoint, one call deeper, in a frame of its own — it
/// sees the bindings it makes and the external and prolog variables, not
/// its caller's.
pub fn in_frame<T>(
    ev: &Evaluator,
    st: &mut EvalState,
    body: impl FnOnce(&mut EvalState) -> XdmResult<T>,
) -> XdmResult<T> {
    if st.depth >= ev.env.max_depth {
        return Err(XdmError::new(
            "XQDY0054",
            "function recursion limit exceeded",
        ));
    }
    // Cooperative checkpoint: recursive UDFs are the one loop shape the
    // FLWOR/path checkpoints cannot see, so check the budget per call.
    ev.env.check_cancel()?;
    let (base, caller) = (st.vars.len(), st.frame);
    st.frame = base;
    st.depth += 1;
    let result = body(st);
    st.depth -= 1;
    st.frame = caller;
    st.vars.truncate(base);
    result
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

/// Does `name` name a constructor function: is its prefix bound to the XML
/// Schema namespace (XQuery 1.0 §3.12.5)?
pub fn is_constructor(sctx: &StaticContext, name: &Name) -> bool {
    let prefix = name.prefix.as_deref();
    prefix.and_then(|p| sctx.resolve_prefix(p)) == Some(xmldom::qname::NS_XS)
}

/// The constructor function `xs:T($a)`, which is `$a cast as xs:T?`; the
/// caller has checked its type and arity (`Evaluator::callee`).
fn construct(name: &Name, actuals: Vec<Sequence>) -> XdmResult<Sequence> {
    let target = AtomicType::from_xs_name(&name.local).expect("a known type");
    Ok(sequence_of(cast(actuals[0].zero_or_one()?, target, true)?))
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
