//! What a query does besides computing its value, known before it runs —
//! computed once per compiled plan (`CompiledMain::effects`).

use crate::modules::FunctionTable;
use xqast::{Expr, FlworClause, MainModule};

/// A main module's effects; what the walk cannot prove is taken at worst.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Effects {
    /// `execute at` sites in the body and the prolog.
    pub sites: usize,
    /// Some site may run more than once: it sits under a `for`, a
    /// quantifier, a path step or a predicate, or in a function body.
    pub repeated: bool,
    /// The query may leave a ∆ here: an XQUF expression, a call of `fn:put`
    /// or of an `updating` prolog function — or of a library module's
    /// function, whose body the walk cannot see.
    pub local_delta: bool,
    /// The body's site is in tail position: the body is the site, the
    /// `return` of a FLWOR of `let`s only, or a branch of an `if` — so its
    /// value is the query's, and nothing runs after it.
    pub tail: bool,
}

impl Effects {
    pub fn of(module: &MainModule, functions: &FunctionTable) -> Effects {
        let mut fx = Effects::default();
        let prolog = &module.prolog;
        let vars = prolog.variables.iter().filter_map(|v| v.value.as_ref());
        for e in vars.chain([&module.body]) {
            fx.scan(e, false, functions);
        }
        for f in &prolog.functions {
            fx.scan(&f.body, true, functions);
        }
        let tail = in_tail(&module.body);
        Effects { tail, ..fx }
    }

    /// R*'s last agent: one site, its tail, run once, and no ∆ here — the
    /// callee may commit the transaction before it answers.
    pub fn commit_on_reply(&self) -> bool {
        self.sites == 1 && self.tail && !self.repeated && !self.local_delta
    }

    fn scan(&mut self, e: &Expr, repeated: bool, functions: &FunctionTable) {
        match e {
            Expr::ExecuteAt { dest, call } => {
                self.sites += 1;
                self.repeated |= repeated;
                // the function runs there; its destination and arguments here
                self.scan(dest, repeated, functions);
                call.for_each_child(&mut |a| self.scan(a, repeated, functions));
                return;
            }
            Expr::FunctionCall { name, args } => {
                let local = functions.get(&name.local, args.len());
                self.local_delta |= match (name.prefix.as_deref(), local) {
                    (None | Some("local"), Some(f)) => f.updating,
                    (None | Some("fn"), _) => name.local == "put",
                    (Some("xrpc"), _) => false,
                    _ => true,
                };
            }
            _ => self.local_delta |= is_effect(e),
        }
        let again = repeated || repeats_operands(e);
        e.for_each_child(&mut |c| self.scan(c, again, functions));
    }
}

/// Is evaluating `x` itself, its operands aside, seen outside the value it
/// computes: a call to a peer, or an XQUF update?
pub fn is_effect(x: &Expr) -> bool {
    matches!(x, Expr::ExecuteAt { .. }) || x.is_updating_expr()
}

/// May evaluating `e` once evaluate an operand of it more than once: is it
/// a quantifier, a path step, a predicate or a FLWOR with a `for`?
pub fn repeats_operands(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Quantified { .. } | Expr::PathStep(..) | Expr::Filter(..)
    ) || matches!(e, Expr::AxisStep { predicates, .. } if !predicates.is_empty())
        || matches!(e, Expr::Flwor { clauses, .. }
            if clauses.iter().any(|c| matches!(c, FlworClause::For { .. })))
}

/// Does evaluating `e` do anything [`is_effect`]: twice, if run twice?
pub fn has_effects(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |x| found |= is_effect(x));
    found
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
        assert!(has_effects(&xqast::parse_main_module(CALL).unwrap().body));
        assert!(!has_effects(
            &xqast::parse_main_module("t:get()").unwrap().body
        ));
    }
}
