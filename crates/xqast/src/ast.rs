//! AST node definitions for the supported XQuery subset.

use std::sync::Arc;
use xdm::atomic::AtomicValue;
use xdm::ops::ArithOp;
use xdm::types::SeqType;

/// An unresolved QName as written in the query (`prefix:local`). Namespace
/// resolution happens in the static context of the evaluating engine.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Name {
    pub prefix: Option<String>,
    pub local: String,
    /// `prefix:local`, shared: what a variable is bound and looked up under,
    /// so binding one costs a reference count, not a string.
    lexical: Arc<str>,
}

impl Name {
    pub fn local(l: impl Into<String>) -> Self {
        let local = l.into();
        Name {
            prefix: None,
            lexical: local.as_str().into(),
            local,
        }
    }

    pub fn prefixed(p: impl Into<String>, l: impl Into<String>) -> Self {
        let (prefix, local) = (p.into(), l.into());
        Name {
            lexical: format!("{prefix}:{local}").into(),
            prefix: Some(prefix),
            local,
        }
    }

    pub fn lexical(&self) -> String {
        self.lexical.to_string()
    }

    /// The [`lexical`](Self::lexical) form, shared with the AST.
    pub fn key(&self) -> &Arc<str> {
        &self.lexical
    }

    /// Is `lexical` this name's [`lexical`](Self::lexical) form?
    pub fn is_lexical(&self, lexical: &str) -> bool {
        *self.lexical == *lexical
    }
}

/// Comparison operators. Value comparisons (`eq`) and general comparisons
/// (`=`) share the op kind; the expression variant distinguishes them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Node comparisons: `is`, `<<`, `>>`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeCompOp {
    Is,
    Precedes,
    Follows,
}

/// XPath axes (direct mirror of `xmldom::axes::Axis`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Axis {
    Child,
    Descendant,
    DescendantOrSelf,
    Parent,
    Ancestor,
    AncestorOrSelf,
    FollowingSibling,
    PrecedingSibling,
    Following,
    Preceding,
    Attribute,
    SelfAxis,
}

/// Node test of an axis step.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeTest {
    /// `name` or `prefix:name`
    Name(Name),
    /// `*`
    AnyName,
    /// `prefix:*`
    NsWildcard(String),
    /// `*:local`
    LocalWildcard(String),
    /// `node()`
    AnyKind,
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction()` with optional target
    Pi(Option<String>),
    /// `element()` / `element(name)`
    Element(Option<Name>),
    /// `attribute()` / `attribute(name)`
    AttributeTest(Option<Name>),
    /// `document-node()`
    DocumentTest,
}

/// FLWOR clauses (simplified: one `where`, one `order by`).
#[derive(Clone, Debug, PartialEq)]
pub enum FlworClause {
    For {
        var: Name,
        pos_var: Option<Name>,
        seq: Expr,
    },
    Let {
        var: Name,
        value: Expr,
    },
    Where(Expr),
    OrderBy(Vec<OrderSpec>),
}

#[derive(Clone, Debug, PartialEq)]
pub struct OrderSpec {
    pub key: Expr,
    pub descending: bool,
    pub empty_least: bool,
}

/// Quantifier kind for `some`/`every`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Quantifier {
    Some,
    Every,
}

/// Insert position for XQUF `insert` (paper §2.3 relies on XQUF semantics).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InsertPos {
    Into,
    AsFirstInto,
    AsLastInto,
    Before,
    After,
}

/// Content particle of a direct element constructor.
#[derive(Clone, Debug, PartialEq)]
pub enum DirContent {
    /// Literal text (entity refs already decoded).
    Text(String),
    /// `{ Expr }` enclosed expression.
    Enclosed(Expr),
    /// Nested direct element.
    Element(DirElem),
    /// `<!-- ... -->`
    Comment(String),
    /// `<?target data?>`
    Pi(String, String),
}

/// Attribute value particle: literal text or enclosed expression.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrContent {
    Text(String),
    Enclosed(Expr),
}

/// A direct element constructor.
#[derive(Clone, Debug, PartialEq)]
pub struct DirElem {
    pub name: Name,
    /// Attributes in source order (namespace declarations are extracted
    /// into `ns_decls` at parse time).
    pub attrs: Vec<(Name, Vec<AttrContent>)>,
    pub ns_decls: Vec<(String, String)>,
    pub content: Vec<DirContent>,
}

/// A single typeswitch case.
#[derive(Clone, Debug, PartialEq)]
pub struct TypeswitchCase {
    pub var: Option<Name>,
    pub ty: SeqType,
    pub body: Expr,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    Literal(AtomicValue),
    VarRef(Name),
    ContextItem,
    /// `(e1, e2, ...)` including the empty sequence `()`.
    Sequence(Vec<Expr>),
    Range(Box<Expr>, Box<Expr>),
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    ValueComp(CompOp, Box<Expr>, Box<Expr>),
    GeneralComp(CompOp, Box<Expr>, Box<Expr>),
    NodeComp(NodeCompOp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Union(Box<Expr>, Box<Expr>),
    Intersect(Box<Expr>, Box<Expr>),
    Except(Box<Expr>, Box<Expr>),
    If {
        cond: Box<Expr>,
        then: Box<Expr>,
        els: Box<Expr>,
    },
    Flwor {
        clauses: Vec<FlworClause>,
        ret: Box<Expr>,
    },
    Quantified {
        quantifier: Quantifier,
        bindings: Vec<(Name, Expr)>,
        satisfies: Box<Expr>,
    },
    Typeswitch {
        operand: Box<Expr>,
        cases: Vec<TypeswitchCase>,
        default_var: Option<Name>,
        default: Box<Expr>,
    },
    /// `/` rooted path: evaluate `rest` with the context item's document
    /// root as context (rest may be None for a bare `/`).
    Root(Option<Box<Expr>>),
    /// `lhs / step` — evaluate `rhs` once per node of `lhs`, combine in
    /// document order.
    PathStep(Box<Expr>, Box<Expr>),
    /// One axis step with predicates.
    AxisStep {
        axis: Axis,
        test: NodeTest,
        predicates: Vec<Expr>,
    },
    /// Predicates applied to a primary expression: `expr[pred]`.
    Filter(Box<Expr>, Vec<Expr>),
    FunctionCall {
        name: Name,
        args: Vec<Expr>,
    },
    /// `execute at { dest } { f(args) }` — the XRPC extension (paper §2).
    ExecuteAt {
        dest: Box<Expr>,
        call: Box<Expr>,
    },
    DirectElem(DirElem),
    CompElem {
        name: CompName,
        content: Option<Box<Expr>>,
    },
    CompAttr {
        name: CompName,
        content: Option<Box<Expr>>,
    },
    CompText(Box<Expr>),
    CompComment(Box<Expr>),
    CompPi {
        target: CompName,
        content: Option<Box<Expr>>,
    },
    CompDoc(Box<Expr>),
    InstanceOf(Box<Expr>, SeqType),
    TreatAs(Box<Expr>, SeqType),
    CastAs {
        expr: Box<Expr>,
        ty: Name,
        allow_empty: bool,
    },
    CastableAs {
        expr: Box<Expr>,
        ty: Name,
        allow_empty: bool,
    },
    // ---- XQuery Update Facility ----
    Insert {
        source: Box<Expr>,
        target: Box<Expr>,
        pos: InsertPos,
    },
    Delete {
        target: Box<Expr>,
    },
    ReplaceNode {
        target: Box<Expr>,
        with: Box<Expr>,
    },
    ReplaceValue {
        target: Box<Expr>,
        with: Box<Expr>,
    },
    Rename {
        target: Box<Expr>,
        name: Box<Expr>,
    },
}

/// Name of a computed constructor: constant or computed.
#[derive(Clone, Debug, PartialEq)]
pub enum CompName {
    Const(Name),
    Computed(Box<Expr>),
}

/// A module import in the prolog:
/// `import module namespace f = "uri" at "http://..../file.xq";`
#[derive(Clone, Debug, PartialEq)]
pub struct ModuleImport {
    pub prefix: String,
    pub ns_uri: String,
    pub at_hints: Vec<String>,
}

/// A prolog variable declaration. `declare variable $x := expr;` carries
/// a value; `declare variable $x external;` (optionally with a default
/// value, XQuery 3.0 style) must be bound by the caller — the parameter
/// channel of a prepared query.
#[derive(Clone, Debug, PartialEq)]
pub struct VarDecl {
    pub name: Name,
    pub ty: Option<SeqType>,
    /// `None` only for an external variable without a default.
    pub value: Option<Expr>,
    pub external: bool,
}

/// A user-defined function declaration (possibly `updating`, per XQUF).
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionDecl {
    pub name: Name,
    pub params: Vec<(Name, Option<SeqType>)>,
    pub ret: Option<SeqType>,
    pub body: Expr,
    pub updating: bool,
}

impl FunctionDecl {
    pub fn arity(&self) -> usize {
        self.params.len()
    }
}

/// The query prolog.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Prolog {
    pub namespaces: Vec<(String, String)>,
    pub default_element_ns: Option<String>,
    pub default_function_ns: Option<String>,
    /// `declare option qname "value"` — XRPC uses `xrpc:isolation` and
    /// `xrpc:timeout` (paper §2.2).
    pub options: Vec<(Name, String)>,
    /// `declare base-uri "..."` — resolution base for relative `fn:doc`
    /// URIs, and a static-context fingerprint component of the plan cache.
    pub base_uri: Option<String>,
    /// `declare default collation "..."` — accepted, fingerprinted by the
    /// plan cache; only the codepoint collation is implemented.
    pub default_collation: Option<String>,
    pub module_imports: Vec<ModuleImport>,
    pub variables: Vec<VarDecl>,
    pub functions: Vec<FunctionDecl>,
}

impl Prolog {
    /// Look up a `declare option` value by prefix/local name.
    pub fn option(&self, prefix: &str, local: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(n, _)| n.prefix.as_deref() == Some(prefix) && n.local == local)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed main module (a runnable query).
#[derive(Clone, Debug, PartialEq)]
pub struct MainModule {
    pub prolog: Prolog,
    pub body: Expr,
}

/// A parsed library module (`module namespace film = "films"; ...`).
#[derive(Clone, Debug, PartialEq)]
pub struct LibraryModule {
    pub prefix: String,
    pub ns_uri: String,
    pub prolog: Prolog,
}

/// Either kind of module.
#[derive(Clone, Debug, PartialEq)]
pub enum Module {
    Main(MainModule),
    Library(LibraryModule),
}

impl Expr {
    /// Does this expression (transitively) contain an `execute at`?
    pub fn contains_xrpc(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::ExecuteAt { .. }) {
                found = true;
            }
        });
        found
    }

    /// Is this an XQUF updating expression at the top level?
    pub fn is_updating_expr(&self) -> bool {
        matches!(
            self,
            Expr::Insert { .. }
                | Expr::Delete { .. }
                | Expr::ReplaceNode { .. }
                | Expr::ReplaceValue { .. }
                | Expr::Rename { .. }
        )
    }

    /// Is this a node constructor — a new node identity each time it runs?
    pub fn is_constructor(&self) -> bool {
        matches!(
            self,
            Expr::DirectElem(_)
                | Expr::CompElem { .. }
                | Expr::CompAttr { .. }
                | Expr::CompText(_)
                | Expr::CompComment(_)
                | Expr::CompPi { .. }
                | Expr::CompDoc(_)
        )
    }

    /// A short name for the kind of expression, for plan and profile
    /// output (`rel:fallback{flwor}`).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Expr::Literal(_) => "literal",
            Expr::VarRef(_) => "var-ref",
            Expr::ContextItem => "context-item",
            Expr::Sequence(_) => "sequence",
            Expr::Range(..) => "range",
            Expr::Arith(..) | Expr::Neg(_) => "arithmetic",
            Expr::ValueComp(..) | Expr::GeneralComp(..) | Expr::NodeComp(..) => "comparison",
            Expr::And(..) | Expr::Or(..) => "logical",
            Expr::Union(..) | Expr::Intersect(..) | Expr::Except(..) => "set-op",
            Expr::If { .. } => "if",
            Expr::Flwor { .. } => "flwor",
            Expr::Quantified { .. } => "quantified",
            Expr::Typeswitch { .. } => "typeswitch",
            Expr::Root(_) | Expr::PathStep(..) | Expr::AxisStep { .. } => "path",
            Expr::Filter(..) => "filter",
            Expr::FunctionCall { .. } => "function-call",
            Expr::ExecuteAt { .. } => "execute-at",
            Expr::DirectElem(_)
            | Expr::CompElem { .. }
            | Expr::CompAttr { .. }
            | Expr::CompText(_)
            | Expr::CompComment(_)
            | Expr::CompPi { .. }
            | Expr::CompDoc(_) => "constructor",
            Expr::InstanceOf(..)
            | Expr::TreatAs(..)
            | Expr::CastAs { .. }
            | Expr::CastableAs { .. } => "type-op",
            Expr::Insert { .. }
            | Expr::Delete { .. }
            | Expr::ReplaceNode { .. }
            | Expr::ReplaceValue { .. }
            | Expr::Rename { .. } => "update",
        }
    }

    /// Pre-order walk over all sub-expressions.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        self.for_each_child(&mut |e| e.walk(f));
    }

    /// Visit the operands of this expression (the enclosed expressions of
    /// nested direct constructors included), not their operands.
    pub fn for_each_child(&self, f: &mut dyn FnMut(&Expr)) {
        match self {
            Expr::Literal(_) | Expr::VarRef(_) | Expr::ContextItem => {}
            Expr::Sequence(es) => es.iter().for_each(&mut *f),
            Expr::Range(a, b)
            | Expr::Arith(_, a, b)
            | Expr::ValueComp(_, a, b)
            | Expr::GeneralComp(_, a, b)
            | Expr::NodeComp(_, a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Union(a, b)
            | Expr::Intersect(a, b)
            | Expr::Except(a, b)
            | Expr::PathStep(a, b) => {
                f(a);
                f(b);
            }
            Expr::Neg(a) | Expr::CompText(a) | Expr::CompComment(a) | Expr::CompDoc(a) => f(a),
            Expr::If { cond, then, els } => {
                f(cond);
                f(then);
                f(els);
            }
            Expr::Flwor { clauses, ret } => {
                for c in clauses {
                    match c {
                        FlworClause::For { seq, .. } => f(seq),
                        FlworClause::Let { value, .. } => f(value),
                        FlworClause::Where(e) => f(e),
                        FlworClause::OrderBy(specs) => specs.iter().for_each(|s| f(&s.key)),
                    }
                }
                f(ret);
            }
            Expr::Quantified {
                bindings,
                satisfies,
                ..
            } => {
                bindings.iter().for_each(|(_, e)| f(e));
                f(satisfies);
            }
            Expr::Typeswitch {
                operand,
                cases,
                default,
                ..
            } => {
                f(operand);
                cases.iter().for_each(|c| f(&c.body));
                f(default);
            }
            Expr::Root(r) => {
                if let Some(r) = r {
                    f(r);
                }
            }
            Expr::AxisStep { predicates, .. } => predicates.iter().for_each(&mut *f),
            Expr::Filter(base, preds) => {
                f(base);
                preds.iter().for_each(&mut *f);
            }
            Expr::FunctionCall { args, .. } => args.iter().for_each(&mut *f),
            Expr::ExecuteAt { dest, call } => {
                f(dest);
                f(call);
            }
            Expr::DirectElem(d) => walk_direlem(d, f),
            Expr::CompElem { name, content } | Expr::CompAttr { name, content } => {
                if let CompName::Computed(e) = name {
                    f(e);
                }
                if let Some(c) = content {
                    f(c);
                }
            }
            Expr::CompPi { target, content } => {
                if let CompName::Computed(e) = target {
                    f(e);
                }
                if let Some(c) = content {
                    f(c);
                }
            }
            Expr::InstanceOf(a, _) | Expr::TreatAs(a, _) => f(a),
            Expr::CastAs { expr, .. } | Expr::CastableAs { expr, .. } => f(expr),
            Expr::Insert { source, target, .. } => {
                f(source);
                f(target);
            }
            Expr::Delete { target } => f(target),
            Expr::ReplaceNode { target, with } | Expr::ReplaceValue { target, with } => {
                f(target);
                f(with);
            }
            Expr::Rename { target, name } => {
                f(target);
                f(name);
            }
        }
    }
}

fn walk_direlem(d: &DirElem, f: &mut dyn FnMut(&Expr)) {
    for (_, parts) in &d.attrs {
        for p in parts {
            if let AttrContent::Enclosed(e) = p {
                f(e);
            }
        }
    }
    for c in &d.content {
        match c {
            DirContent::Enclosed(e) => f(e),
            DirContent::Element(inner) => {
                // The nested element itself counts as an expression boundary
                // for walking purposes.
                walk_direlem(inner, f);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_xrpc_detects_nested() {
        let e = Expr::Sequence(vec![
            Expr::Literal(AtomicValue::Integer(1)),
            Expr::ExecuteAt {
                dest: Box::new(Expr::Literal(AtomicValue::String("xrpc://y".into()))),
                call: Box::new(Expr::FunctionCall {
                    name: Name::prefixed("f", "g"),
                    args: vec![],
                }),
            },
        ]);
        assert!(e.contains_xrpc());
        assert!(!Expr::ContextItem.contains_xrpc());
    }

    #[test]
    fn walk_visits_flwor_parts() {
        let e = Expr::Flwor {
            clauses: vec![FlworClause::For {
                var: Name::local("x"),
                pos_var: None,
                seq: Expr::Literal(AtomicValue::Integer(1)),
            }],
            ret: Box::new(Expr::VarRef(Name::local("x"))),
        };
        let mut n = 0;
        e.walk(&mut |_| n += 1);
        assert_eq!(n, 3);
    }

    #[test]
    fn prolog_option_lookup() {
        let mut p = Prolog::default();
        p.options
            .push((Name::prefixed("xrpc", "isolation"), "repeatable".into()));
        assert_eq!(p.option("xrpc", "isolation"), Some("repeatable"));
        assert_eq!(p.option("xrpc", "timeout"), None);
    }
}
