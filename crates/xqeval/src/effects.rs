//! What evaluating an expression does besides compute its value, known
//! before it runs: one walk ([`summary`]) for the hash join, the lifted
//! engine and commit-on-reply ([`Effects`]).

use crate::context::StaticContext;
use crate::modules::{CompiledModule, FunctionTable, ModuleRegistry};
use std::sync::Arc;
use xqast::{Expr, FlworClause, FunctionDecl, MainModule, Name};

/// What evaluating an expression once may do besides compute its value,
/// the bodies of the functions it calls included.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    /// `execute at` sites reached: each in the text, a function's per call.
    pub sites: usize,
    /// A site may run more than once: it is under a `for`, a quantifier, a
    /// path step or a predicate, or in a recursive function.
    pub repeated: bool,
    /// A site lies in a function body.
    pub in_body: bool,
    /// A site calls a function not known read-only (`resolve_function_ref`).
    pub unknown: bool,
    /// It may leave a ∆ here: XQUF, `fn:put`, an `updating` function.
    pub delta: bool,
    /// It may construct a node: a new identity each time it runs.
    pub constructs: bool,
}

impl Summary {
    /// What a function whose body the walk cannot see may do.
    const ANYTHING: Summary = Summary {
        sites: 1,
        repeated: true,
        in_body: true,
        unknown: true,
        delta: true,
        constructs: true,
    };

    /// Does running it again show only in its value: no call, no ∆?
    pub fn is_quiet(&self) -> bool {
        self.sites == 0 && !self.delta
    }

    /// Could running it once for many times not be told: quiet, no node?
    pub fn is_invariant(&self) -> bool {
        self.is_quiet() && !self.constructs
    }

    /// Add what `other` does, run more than once if `repeated`.
    fn add(&mut self, other: Summary, repeated: bool) {
        self.sites = self.sites.saturating_add(other.sites);
        self.repeated |= other.repeated || repeated && other.sites > 0;
        self.in_body |= other.in_body;
        self.unknown |= other.unknown;
        self.delta |= other.delta;
        self.constructs |= other.constructs;
    }
}

/// What evaluating each of `es` once may do, calls resolved in `sctx`,
/// `functions` and the `modules` registered (none loaded). Each function
/// body is summarized once; one the walk cannot see may do anything.
pub fn summary<'e>(
    es: impl IntoIterator<Item = &'e Expr>,
    sctx: &StaticContext,
    functions: &FunctionTable,
    modules: Option<&ModuleRegistry>,
) -> Summary {
    let (mut walk, mut s) = (Walk::default(), Summary::default());
    (walk.modules, walk.back_to) = (modules, usize::MAX);
    for e in es {
        walk.scan(e, Scope(sctx, Some(functions)), false, &mut s);
    }
    s
}

/// Where calls resolve: a static context, and the main-module functions
/// (none in a library module's body).
#[derive(Clone, Copy)]
struct Scope<'s>(&'s StaticContext, Option<&'s FunctionTable>);

/// The bodies summarized, those being summarized (outermost first), and
/// the outermost of these a call went back to: it and those in it recur.
#[derive(Default)]
struct Walk<'a> {
    modules: Option<&'a ModuleRegistry>,
    done: Vec<(Arc<FunctionDecl>, Summary)>,
    open: Vec<Arc<FunctionDecl>>,
    back_to: usize,
}

impl Walk<'_> {
    fn scan(&mut self, e: &Expr, scope: Scope, repeated: bool, out: &mut Summary) {
        match e {
            Expr::ExecuteAt { dest, call } => {
                out.sites += 1;
                out.repeated |= repeated;
                out.unknown |= !matches!(&**call, Expr::FunctionCall { name, args }
                    if self.library(scope, name, args.len()).is_some_and(|(f, _)| !f.updating));
                // the function runs there; its destination and arguments here
                self.scan(dest, scope, repeated, out);
                call.for_each_child(&mut |a| self.scan(a, scope, repeated, out));
                return;
            }
            Expr::FunctionCall { name, args } => self.call(name, args.len(), scope, repeated, out),
            _ => {
                out.delta |= e.is_updating_expr();
                out.constructs |= e.is_constructor();
            }
        }
        let again = repeated || repeats_operands(e);
        e.for_each_child(&mut |c| self.scan(c, scope, again, out));
    }

    /// Add what a call does, its arguments aside, resolved as
    /// `Evaluator::callee` resolves it.
    fn call(&mut self, name: &Name, arity: usize, scope: Scope, repeated: bool, out: &mut Summary) {
        let local = scope.1.and_then(|f| f.get(&name.local, arity));
        let mut body = match (name.prefix.as_deref(), local) {
            (None | Some("local"), Some(decl)) => self.body(decl, scope),
            (None | Some("fn"), _) => return out.delta |= name.local == "put",
            (Some("xrpc"), _) => return,
            (Some(_), _) => match self.library(scope, name, arity) {
                Some((decl, module)) => self.body(&decl, Scope(&module.sctx, None)),
                None => Summary::ANYTHING,
            },
        };
        body.in_body |= body.sites > 0;
        out.add(body, repeated);
    }

    /// The function `name` names in a module registered here, and the module.
    fn library(&self, scope: Scope, name: &Name, arity: usize) -> Option<Library> {
        let (ns, _) = scope.0.module_of(name.prefix.as_deref()?)?;
        let module = self.modules?.get(ns)?;
        Some((module.function(&name.local, arity)?, module))
    }

    /// What one run of `decl`'s body may do.
    fn body(&mut self, decl: &Arc<FunctionDecl>, scope: Scope) -> Summary {
        if let Some((_, s)) = self.done.iter().find(|(d, _)| Arc::ptr_eq(d, decl)) {
            return *s;
        }
        if let Some(k) = self.open.iter().position(|d| Arc::ptr_eq(d, decl)) {
            // a recursive call: counted where the recursion was entered
            self.back_to = self.back_to.min(k);
            return Summary::default();
        }
        let k = self.open.len();
        let outer = std::mem::replace(&mut self.back_to, usize::MAX);
        self.open.push(decl.clone());
        let mut s = Summary::default();
        self.scan(&decl.body, scope, false, &mut s);
        self.open.pop();
        s.delta |= decl.updating;
        s.repeated |= self.back_to <= k && s.sites > 0;
        if self.back_to >= k {
            // complete: no call went back to a body open around this one
            self.done.push((decl.clone(), s));
            self.back_to = usize::MAX;
        }
        self.back_to = self.back_to.min(outer);
        s
    }
}

/// A function of a registered module, and the module.
type Library = (Arc<FunctionDecl>, Arc<CompiledModule>);

/// A main module's effects, folded from its [`Summary`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Effects {
    /// `execute at` sites the body and the prolog reach.
    pub sites: usize,
    /// Some site may run more than once, or lies in a function body, where
    /// the fold cannot place it.
    pub repeated: bool,
    /// The query may leave a ∆ here, or calls a library function, whose
    /// body a plan compiled without the module registry cannot see.
    pub local_delta: bool,
    /// The body's site is in tail position: the body is the site, the
    /// `return` of a FLWOR of `let`s only, or a branch of an `if` — so its
    /// value is the query's, and nothing runs after it.
    pub tail: bool,
}

impl Effects {
    pub fn of(module: &MainModule, functions: &FunctionTable) -> Effects {
        let vars = module
            .prolog
            .variables
            .iter()
            .filter_map(|v| v.value.as_ref());
        let s = summary(
            vars.chain([&module.body]),
            &Default::default(),
            functions,
            None,
        );
        let (sites, repeated, tail) = (s.sites, s.repeated || s.in_body, in_tail(&module.body));
        Effects {
            sites,
            repeated,
            local_delta: s.delta,
            tail,
        }
    }

    /// R*'s last agent: one site, its tail, run once, and no ∆ here — the
    /// callee may commit the transaction before it answers.
    pub fn commit_on_reply(&self) -> bool {
        self.sites == 1 && self.tail && !self.repeated && !self.local_delta
    }
}

/// May evaluating `e` once evaluate an operand of it more than once: is it
/// a quantifier, a path step, a predicate or a FLWOR with a `for`?
fn repeats_operands(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Quantified { .. } | Expr::PathStep(..) | Expr::Filter(..)
    ) || matches!(e, Expr::AxisStep { predicates, .. } if !predicates.is_empty())
        || matches!(e, Expr::Flwor { clauses, .. }
            if clauses.iter().any(|c| matches!(c, FlworClause::For { .. })))
}

/// Is `e` a site in tail position (see [`Effects::tail`])?
fn in_tail(e: &Expr) -> bool {
    match e {
        Expr::ExecuteAt { .. } => true,
        Expr::Flwor { clauses, ret } => {
            clauses.iter().all(|c| matches!(c, FlworClause::Let { .. })) && in_tail(ret)
        }
        Expr::If { then, els, .. } => in_tail(then) || in_tail(els),
        Expr::Sequence(es) => matches!(&es[..], [e] if in_tail(e)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn effects(query: &str) -> Effects {
        let module = xqast::parse_main_module(query).unwrap();
        Effects::of(&module, &FunctionTable::of(&module.prolog.functions))
    }

    const CALL: &str = r#"execute at {"xrpc://b"} {t:set("x")}"#;

    #[test]
    fn a_lone_tail_call_commits_on_its_reply() {
        for body in [
            CALL.to_string(),
            format!("({CALL})"),
            format!("let $d := 1 let $e := $d + 1 return {CALL}"),
            format!("if (1 = 1) then {CALL} else ()"),
            format!(r#"if (1 = 1) then "no" else let $x := 2 return {CALL}"#),
            format!(r#"declare variable $v := "x"; {CALL}"#),
            format!(
                "declare function local:f($x) {{ $x + 1 }}; let $y := local:f(1) return {CALL}"
            ),
        ] {
            let fx = effects(&body);
            assert!(fx.commit_on_reply(), "{body}: {fx:?}");
            assert_eq!((fx.sites, fx.tail), (1, true), "{body}");
        }
    }

    #[test]
    fn what_the_summary_cannot_prove_takes_the_ordinary_path() {
        let no = |body: String, why: fn(&Effects) -> bool| {
            let fx = effects(&body);
            assert!(!fx.commit_on_reply(), "{body}: {fx:?}");
            assert!(why(&fx), "{body}: {fx:?}");
        };
        // something runs after the call, or its value is not the query's
        no(format!(r#"({CALL}, "done")"#), |fx| !fx.tail);
        no(format!("<r>{{{CALL}}}</r>"), |fx| !fx.tail);
        no(format!("count({CALL})"), |fx| !fx.tail);
        no(format!("let $r := {CALL} return $r"), |fx| !fx.tail);
        // two sites, or one that may run twice
        no(format!("({CALL}, {CALL})"), |fx| fx.sites == 2);
        no(format!("for $i in (1, 2) return {CALL}"), |fx| fx.repeated);
        no(format!("every $i in (1, 2) satisfies {CALL}"), |fx| {
            fx.repeated
        });
        no(format!("doc('d.xml')/a[{CALL}]"), |fx| fx.repeated);
        no(
            format!("declare function local:f() {{ {CALL} }}; local:f()"),
            |fx| fx.repeated && !fx.tail,
        );
        // a ∆ of the query's own, or a call the walk cannot see into
        no(
            format!("if (1 = 1) then {CALL} else delete node doc('d.xml')/a"),
            |fx| fx.local_delta,
        );
        no(
            format!("let $p := put(<a/>, 'p.xml') return {CALL}"),
            |fx| fx.local_delta,
        );
        no(
            format!("declare updating function local:u() {{ delete node doc('d.xml')/a }}; if (1 = 1) then {CALL} else local:u()"),
            |fx| fx.local_delta,
        );
        no(format!("let $x := t:get() return {CALL}"), |fx| {
            fx.local_delta
        });
        // no site at all
        no("1 + 1".to_string(), |fx| fx.sites == 0);
    }

    #[test]
    fn the_remote_function_and_builtins_are_not_local_effects() {
        let fx = effects(
            r#"let $n := concat("a", xrpc:host("xrpc://b/x")) return execute at {"xrpc://b"} {t:set(fn:string($n))}"#,
        );
        assert!(!fx.local_delta, "{fx:?}");
        assert!(!summary(CALL).is_quiet());
        // a function whose body the walk cannot see may do anything
        assert_eq!(summary("t:get()"), Summary::ANYTHING);
        let s = summary(r#"concat("a", xrpc:host("xrpc://b/x"))"#);
        assert!(s.is_quiet() && !s.constructs);
    }

    /// The summary of a query's body, with `lib` registered.
    fn summary_with(query: &str, lib: &str) -> Summary {
        let module = xqast::parse_main_module(query).unwrap();
        let modules = ModuleRegistry::new();
        if !lib.is_empty() {
            modules.register_source(lib).unwrap();
        }
        let sctx = StaticContext::from_prolog(&module.prolog);
        let functions = FunctionTable::of(&module.prolog.functions);
        super::summary([&module.body], &sctx, &functions, Some(&modules))
    }

    fn summary(query: &str) -> Summary {
        summary_with(query, "")
    }

    #[test]
    fn the_walk_sees_into_the_bodies_of_the_functions_it_calls() {
        const F: &str = r#"declare function local:f() { <a/> };
            declare function local:g() { execute at {"xrpc://b"} {t:set(1)} };"#;
        let s = summary(&format!("{F} local:f()"));
        assert!(s.constructs && s.is_quiet(), "{s:?}");
        let s = summary(&format!("{F} (local:g(), local:g())"));
        assert_eq!((s.sites, s.repeated, s.in_body), (2, false, true));
        let s = summary(&format!("{F} for $i in (1, 2) return local:g()"));
        assert!(s.repeated, "{s:?}");
        // a body no call reaches does nothing
        assert_eq!(summary(&format!("{F} 1")), Summary::default());
        // a registered library function, and whether a site's callee is
        // known read-only
        let lib = r#"module namespace m = "m";
            declare function m:get() { doc("d")/a };
            declare function m:new() { <n/> };
            declare updating function m:set() { delete node doc("d")/a };"#;
        let q = |body: &str| format!(r#"import module namespace m = "m"; {body}"#);
        assert_eq!(summary_with(&q("m:get()"), lib), Summary::default());
        assert!(summary_with(&q("m:new()"), lib).constructs);
        assert!(summary_with(&q("m:set()"), lib).delta);
        let site = |f: &str| summary_with(&q(&format!(r#"execute at {{"x"}} {{{f}}}"#)), lib);
        assert!(!site("m:get()").unknown && site("m:set()").unknown);
        assert!(site("m:nope()").unknown && !site("m:nope()").delta);
    }

    #[test]
    fn a_recursive_function_repeats_its_sites() {
        const CALLS: &str = r#"execute at {"xrpc://b"} {t:set(1)}"#;
        let direct = format!(
            "declare function local:f($n) {{ if ($n = 0) then () else ({CALLS}, local:f($n - 1)) }};"
        );
        let s = summary(&format!("{direct} local:f(3)"));
        assert_eq!((s.sites, s.repeated), (1, true));
        // through another function, entered at either end
        let mutual = format!(
            "declare function local:a($n) {{ local:b($n) }};
             declare function local:b($n) {{ ({CALLS}, if ($n = 0) then () else local:a($n - 1)) }};"
        );
        for call in ["local:a(3)", "local:b(3)", "(local:b(1), local:a(2))"] {
            let s = summary(&format!("{mutual} {call}"));
            assert!(s.repeated && s.sites > 0, "{call}: {s:?}");
        }
        // a function that only calls a recursive one is not recursive
        let s = summary(&format!(
            "{direct} declare function local:once() {{ local:f(0) }}; local:once()"
        ));
        assert!(s.repeated, "{s:?}");
    }
}
