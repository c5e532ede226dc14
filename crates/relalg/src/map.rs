//! The map operator: a scalar expression evaluated a column at a time.
//!
//! An XRPC-free expression made of literals, variable references,
//! arithmetic, unary minus, value and general comparisons, `and` / `or`,
//! `cast as` and the pure built-ins of [`ScalarFn`] has one value per loop
//! iteration that depends on nothing but that iteration's variables. It is
//! compiled once per evaluation into a small operator tree ([`Map`]) and
//! each operator then runs over whole columns of `iter|pos|item` — Table 1's
//! model of a scalar operator — instead of the tree engine walking the
//! expression once per iteration.
//!
//! Every row goes through the *same* scalar routine the tree engine's arm
//! calls (`xqeval::eval::{arith, negate, value_compare, general_compare,
//! cast}`, [`ScalarFn::apply`]): promotion, casting and formatting have one
//! implementation. A row is the empty sequence or one item. Whatever does
//! not fit — a variable bound to several items in some iteration, a row
//! that raises — makes the operator give up ([`Map::eval`] answers `None`)
//! and the expression is evaluated by the per-iteration fallback, so that
//! cardinality errors, and *which* error a loop raises first, stay the tree
//! engine's own.

use crate::engine::Lifted;
use crate::table::SeqTable;
use xdm::ops::ArithOp;
use xdm::types::AtomicType;
use xdm::{Item, XdmResult};
use xqast::{CompOp, Expr};
use xqeval::eval::{self, EvalState};
use xqeval::functions::ScalarFn;

/// A scalar expression as a tree of column operators.
pub(crate) enum Map<'l> {
    /// The same row in every iteration: a literal, or a variable bound
    /// outside the loop.
    Const(Option<Item>),
    /// A lifted variable's table.
    Var(&'l SeqTable),
    Arith(ArithOp, Box<Map<'l>>, Box<Map<'l>>),
    Neg(Box<Map<'l>>),
    ValueComp(CompOp, Box<Map<'l>>, Box<Map<'l>>),
    GeneralComp(CompOp, Box<Map<'l>>, Box<Map<'l>>),
    And(Box<Map<'l>>, Box<Map<'l>>),
    Or(Box<Map<'l>>, Box<Map<'l>>),
    Cast(AtomicType, bool, Box<Map<'l>>),
    Call(ScalarFn, Vec<Map<'l>>),
}

/// One value per iteration of the loop, in the loop's order.
enum Column<'l> {
    Const(Option<Item>),
    /// Rows of a variable's table, not copied.
    Borrowed(Vec<Option<&'l Item>>),
    Computed(Vec<Option<Item>>),
}

impl Column<'_> {
    fn row(&self, k: usize) -> Option<&Item> {
        match self {
            Column::Const(row) => row.as_ref(),
            Column::Borrowed(rows) => rows[k],
            Column::Computed(rows) => rows[k].as_ref(),
        }
    }
}

/// Is `e` an operator of the map (rather than one of its leaves)? `builtin`
/// says whether a call of that name and arity reaches the function library.
pub(crate) fn is_operator(e: &Expr, builtin: &impl Fn(&xqast::Name, usize) -> bool) -> bool {
    match e {
        Expr::Arith(..)
        | Expr::Neg(_)
        | Expr::ValueComp(..)
        | Expr::GeneralComp(..)
        | Expr::And(..)
        | Expr::Or(..) => true,
        Expr::CastAs { ty, .. } => AtomicType::from_xs_name(&ty.lexical()).is_some(),
        Expr::FunctionCall { name, args } => {
            builtin(name, args.len()) && ScalarFn::named(&name.local, args.len()).is_some()
        }
        _ => false,
    }
}

/// Is `e` a map over its variables: operators all the way down to literals
/// and variable references?
pub(crate) fn is_map(e: &Expr, builtin: &impl Fn(&xqast::Name, usize) -> bool) -> bool {
    let all = |es: &[&Expr]| es.iter().all(|x| is_map(x, builtin));
    match e {
        Expr::Literal(_) | Expr::VarRef(_) => true,
        _ if !is_operator(e, builtin) => false,
        Expr::Arith(_, a, b)
        | Expr::ValueComp(_, a, b)
        | Expr::GeneralComp(_, a, b)
        | Expr::And(a, b)
        | Expr::Or(a, b) => all(&[a, b]),
        Expr::Neg(a) | Expr::CastAs { expr: a, .. } => is_map(a, builtin),
        Expr::FunctionCall { args, .. } => args.iter().all(|x| is_map(x, builtin)),
        _ => false,
    }
}

impl<'l> Map<'l> {
    /// Compile `e`, which [`is_map`], against the variables in scope: the
    /// lifted ones of `lenv`, then those bound outside the loop. `None` if
    /// one is undefined (an error the fallback raises) or bound to several
    /// items.
    pub(crate) fn compile(e: &Expr, lenv: &'l Lifted, st: &EvalState) -> Option<Map<'l>> {
        let sub = |x: &Expr| Map::compile(x, lenv, st).map(Box::new);
        Some(match e {
            Expr::Literal(v) => Map::Const(Some(Item::Atomic(v.clone()))),
            Expr::VarRef(n) => match lenv.lookup(n) {
                Some(table) => Map::Var(table),
                None => match st.lookup(n)?.items() {
                    [] => Map::Const(None),
                    [one] => Map::Const(Some(one.clone())),
                    _ => return None,
                },
            },
            Expr::Arith(op, a, b) => Map::Arith(*op, sub(a)?, sub(b)?),
            Expr::Neg(a) => Map::Neg(sub(a)?),
            Expr::ValueComp(op, a, b) => Map::ValueComp(*op, sub(a)?, sub(b)?),
            Expr::GeneralComp(op, a, b) => Map::GeneralComp(*op, sub(a)?, sub(b)?),
            Expr::And(a, b) => Map::And(sub(a)?, sub(b)?),
            Expr::Or(a, b) => Map::Or(sub(a)?, sub(b)?),
            Expr::CastAs {
                expr,
                ty,
                allow_empty,
            } => Map::Cast(
                AtomicType::from_xs_name(&ty.lexical())?,
                *allow_empty,
                sub(expr)?,
            ),
            Expr::FunctionCall { name, args } => Map::Call(
                ScalarFn::named(&name.local, args.len())?,
                (args.iter().map(|a| Map::compile(a, lenv, st))).collect::<Option<_>>()?,
            ),
            _ => return None,
        })
    }

    /// The value of the expression in each of `iters`, as a table — or
    /// `None`, for the fallback to find out why.
    pub(crate) fn eval(&self, iters: &[u32]) -> Option<SeqTable> {
        let column = self.column(iters)?;
        let mut out = SeqTable::new();
        match column {
            Column::Computed(rows) => {
                out.iter.reserve(rows.len());
                out.item.reserve(rows.len());
                for (&i, row) in iters.iter().zip(rows) {
                    if let Some(item) = row {
                        out.iter.push(i);
                        out.item.push(item);
                    }
                }
                out.pos.resize(out.iter.len(), 1);
            }
            // constant operands throughout
            column => {
                for (k, &i) in iters.iter().enumerate() {
                    if let Some(item) = column.row(k) {
                        out.push(i, 1, item.clone());
                    }
                }
            }
        }
        Some(out)
    }

    fn column(&self, iters: &[u32]) -> Option<Column<'l>> {
        let n = iters.len();
        let boolean = |b: bool| Ok(Some(Item::boolean(b)));
        match self {
            Map::Const(row) => Some(Column::Const(row.clone())),
            Map::Var(table) => {
                let mut groups = table.groups();
                let mut row = |&i| match groups.at(i) {
                    [] => Some(None),
                    [one] => Some(Some(one)),
                    _ => None,
                };
                let mut rows = Vec::with_capacity(n);
                for i in iters {
                    rows.push(row(i)?);
                }
                Some(Column::Borrowed(rows))
            }
            Map::Arith(op, a, b) => {
                let (a, b) = (a.column(iters)?, b.column(iters)?);
                rows(n, &[&a, &b], &mut |k| eval::arith(*op, a.row(k), b.row(k)))
            }
            Map::Neg(a) => {
                let a = a.column(iters)?;
                rows(n, &[&a], &mut |k| eval::negate(a.row(k)))
            }
            Map::ValueComp(op, a, b) => {
                let (a, b) = (a.column(iters)?, b.column(iters)?);
                rows(n, &[&a, &b], &mut |k| {
                    eval::value_compare(*op, a.row(k), b.row(k))
                })
            }
            Map::GeneralComp(op, a, b) => {
                let (a, b) = (a.column(iters)?, b.column(iters)?);
                rows(n, &[&a, &b], &mut |k| {
                    boolean(eval::general_compare(*op, seq(a.row(k)), seq(b.row(k)))?)
                })
            }
            // both operands everywhere: where the tree engine would not have
            // looked at the second, its raising sends us to the fallback,
            // which does not look either
            Map::And(a, b) => {
                let (a, b) = (a.column(iters)?, b.column(iters)?);
                rows(n, &[&a, &b], &mut |k| {
                    boolean(xdm::item::ebv(seq(a.row(k)))? && xdm::item::ebv(seq(b.row(k)))?)
                })
            }
            Map::Or(a, b) => {
                let (a, b) = (a.column(iters)?, b.column(iters)?);
                rows(n, &[&a, &b], &mut |k| {
                    boolean(xdm::item::ebv(seq(a.row(k)))? || xdm::item::ebv(seq(b.row(k)))?)
                })
            }
            Map::Cast(target, allow_empty, a) => {
                let a = a.column(iters)?;
                rows(n, &[&a], &mut |k| {
                    eval::cast(a.row(k), *target, *allow_empty)
                })
            }
            Map::Call(f, args) => {
                let args: Option<Vec<Column>> = args.iter().map(|a| a.column(iters)).collect();
                let args = args?;
                let operands: Vec<&Column> = args.iter().collect();
                let mut actuals = Vec::with_capacity(args.len());
                rows(n, &operands, &mut |k| {
                    actuals.clear();
                    actuals.extend(args.iter().map(|c| c.row(k)));
                    f.apply(&actuals)
                })
            }
        }
    }
}

/// The sequence a row is, as the comparison routines take it.
fn seq(row: Option<&Item>) -> &[Item] {
    row.map_or(&[], std::slice::from_ref)
}

/// An operator applied row by row to the `n` rows of its operands' columns;
/// constant operands make a constant. `None` if a row raises.
fn rows<'l>(
    n: usize,
    operands: &[&Column],
    row: &mut dyn FnMut(usize) -> XdmResult<Option<Item>>,
) -> Option<Column<'l>> {
    if operands.iter().all(|c| matches!(c, Column::Const(_))) {
        return row(0).ok().map(Column::Const);
    }
    let mut rows = Vec::with_capacity(n);
    for k in 0..n {
        match row(k) {
            Ok(value) => rows.push(value),
            Err(_) => return None,
        }
    }
    Some(Column::Computed(rows))
}
