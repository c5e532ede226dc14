//! End-to-end tests of the tree-walking evaluator: parse + evaluate query
//! strings against in-memory documents.

use std::sync::Arc;
use xdm::{Item, Sequence, XdmResult};
use xqeval::context::{FunctionRef, RpcDispatcher};
use xqeval::{evaluate_main, Environment, InMemoryDocs};
use xrpc_obs::OpNode;

fn env_with(docs: &[(&str, &str)]) -> Environment {
    let store = InMemoryDocs::new();
    for (uri, xml) in docs {
        store.insert(*uri, xmldom::parse_with_uri(xml, uri).unwrap());
    }
    Environment::new(Arc::new(store))
}

fn eval_str(env: &Environment, q: &str) -> String {
    let (seq, _) = evaluate_main(q, env).unwrap_or_else(|e| panic!("eval `{q}`: {e}"));
    serialize(&seq)
}

fn serialize(seq: &Sequence) -> String {
    let mut parts = Vec::new();
    let mut pending_atomic = false;
    let mut out = String::new();
    for item in seq.iter() {
        match item {
            Item::Atomic(a) => {
                if pending_atomic {
                    out.push(' ');
                }
                out.push_str(&a.lexical());
                pending_atomic = true;
            }
            Item::Node(n) => {
                out.push_str(&n.to_xml());
                pending_atomic = false;
            }
        }
    }
    parts.push(out);
    parts.join("")
}

const FILM_DB: &str = r#"<films>
<film><name>The Rock</name><actor>Sean Connery</actor></film>
<film><name>Goldfinger</name><actor>Sean Connery</actor></film>
<film><name>Green Card</name><actor>Gerard Depardieu</actor></film>
</films>"#;

#[test]
fn arithmetic_and_logic() {
    let env = env_with(&[]);
    assert_eq!(eval_str(&env, "1 + 2 * 3"), "7");
    assert_eq!(eval_str(&env, "(1 + 2) * 3"), "9");
    assert_eq!(eval_str(&env, "7 idiv 2"), "3");
    assert_eq!(eval_str(&env, "7 mod 2"), "1");
    assert_eq!(eval_str(&env, "1 div 8"), "0.125");
    assert_eq!(eval_str(&env, "true() and false()"), "false");
    assert_eq!(eval_str(&env, "true() or false()"), "true");
    assert_eq!(eval_str(&env, "not(1 = 2)"), "true");
    assert_eq!(eval_str(&env, "-(3 - 5)"), "2");
}

#[test]
fn sequences_and_ranges() {
    let env = env_with(&[]);
    assert_eq!(eval_str(&env, "(1, 2, 3)"), "1 2 3");
    assert_eq!(eval_str(&env, "1 to 5"), "1 2 3 4 5");
    assert_eq!(eval_str(&env, "5 to 1"), "");
    assert_eq!(eval_str(&env, "count((1 to 100))"), "100");
    assert_eq!(eval_str(&env, "reverse((1, 2, 3))"), "3 2 1");
    assert_eq!(eval_str(&env, "subsequence((1, 2, 3, 4), 2, 2)"), "2 3");
    assert_eq!(eval_str(&env, "(1, 2, 3)[2]"), "2");
    assert_eq!(eval_str(&env, "(1, 2, 3)[. > 1]"), "2 3");
}

#[test]
fn flwor_basics() {
    let env = env_with(&[]);
    assert_eq!(
        eval_str(&env, "for $x in (1 to 4) where $x mod 2 = 0 return $x * 10"),
        "20 40"
    );
    assert_eq!(
        eval_str(&env, "for $x in (1, 2), $y in (10, 20) return $x + $y"),
        "11 21 12 22"
    );
    assert_eq!(
        eval_str(&env, "let $a := 5 let $b := $a * 2 return $b"),
        "10"
    );
    assert_eq!(
        eval_str(&env, "for $x at $i in ('a', 'b', 'c') return $i"),
        "1 2 3"
    );
}

#[test]
fn flwor_order_by() {
    let env = env_with(&[]);
    assert_eq!(
        eval_str(&env, "for $x in (3, 1, 2) order by $x return $x"),
        "1 2 3"
    );
    assert_eq!(
        eval_str(&env, "for $x in (3, 1, 2) order by $x descending return $x"),
        "3 2 1"
    );
    assert_eq!(
        eval_str(&env, "for $p in (('b', 2), ('a', 1)) return ()"),
        ""
    );
    // multi-key
    assert_eq!(
        eval_str(
            &env,
            "for $x in (1, 2, 3, 4) order by $x mod 2, $x descending return $x"
        ),
        "4 2 3 1"
    );
}

#[test]
fn quantified_expressions() {
    let env = env_with(&[]);
    assert_eq!(
        eval_str(&env, "some $x in (1, 2, 3) satisfies $x = 2"),
        "true"
    );
    assert_eq!(
        eval_str(&env, "every $x in (1, 2, 3) satisfies $x > 0"),
        "true"
    );
    assert_eq!(
        eval_str(&env, "every $x in (1, 2, 3) satisfies $x > 1"),
        "false"
    );
    assert_eq!(
        eval_str(&env, "some $x in (1, 2), $y in (2, 3) satisfies $x = $y"),
        "true"
    );
}

#[test]
fn paths_over_film_db() {
    let env = env_with(&[("filmDB.xml", FILM_DB)]);
    assert_eq!(eval_str(&env, r#"count(doc("filmDB.xml")//film)"#), "3");
    assert_eq!(
        eval_str(
            &env,
            r#"doc("filmDB.xml")//name[../actor = "Sean Connery"]"#
        ),
        "<name>The Rock</name><name>Goldfinger</name>"
    );
    assert_eq!(
        eval_str(&env, r#"string(doc("filmDB.xml")/films/film[1]/name)"#),
        "The Rock"
    );
    assert_eq!(
        eval_str(&env, r#"doc("filmDB.xml")//film[last()]/name/text()"#),
        "Green Card"
    );
    assert_eq!(
        eval_str(&env, r#"count(doc("filmDB.xml")/films/child::*)"#),
        "3"
    );
}

#[test]
fn axes_document_order_and_dedup() {
    let env = env_with(&[("t.xml", "<a><b><c/></b><b><c/></b></a>")]);
    // double slash with shared descendants must dedup
    assert_eq!(eval_str(&env, r#"count(doc("t.xml")//c)"#), "2");
    assert_eq!(eval_str(&env, r#"count(doc("t.xml")//c/ancestor::b)"#), "2");
    assert_eq!(eval_str(&env, r#"count(doc("t.xml")//b/..)"#), "1");
}

#[test]
fn attributes_and_wildcards() {
    let env = env_with(&[(
        "p.xml",
        r#"<people><p id="1" name="ann"/><p id="2"/></people>"#,
    )]);
    assert_eq!(eval_str(&env, r#"string(doc("p.xml")//p[1]/@name)"#), "ann");
    assert_eq!(
        eval_str(&env, r#"doc("p.xml")//p[@id = "2"]/@id/data(.)"#),
        "2"
    );
    assert_eq!(eval_str(&env, r#"count(doc("p.xml")//p[1]/@*)"#), "2");
    assert_eq!(eval_str(&env, r#"count(doc("p.xml")/*/*)"#), "2");
}

#[test]
fn constructors() {
    let env = env_with(&[("filmDB.xml", FILM_DB)]);
    assert_eq!(
        eval_str(&env, r#"<out count="{1 + 1}">{ 40 + 2 }</out>"#),
        r#"<out count="2">42</out>"#
    );
    assert_eq!(
        eval_str(
            &env,
            r#"<films>{ doc("filmDB.xml")//name[../actor = "Sean Connery"] }</films>"#
        ),
        "<films><name>The Rock</name><name>Goldfinger</name></films>"
    );
    assert_eq!(
        eval_str(&env, "element tag {attribute k {'v'}, 'body'}"),
        r#"<tag k="v">body</tag>"#
    );
    assert_eq!(eval_str(&env, "string(text {'a', 'b'})"), "a b");
    // adjacent atomics in element content are space-joined
    assert_eq!(eval_str(&env, "<x>{1, 2, 3}</x>"), "<x>1 2 3</x>");
    // constructed nodes are copies: navigating up from them is empty
    assert_eq!(
        eval_str(
            &env,
            r#"count((<wrap>{doc("filmDB.xml")//name}</wrap>)/name/../..)"#
        ),
        "1"
    );
}

#[test]
fn node_identity_and_comparison() {
    let env = env_with(&[("t.xml", "<a><b/></a>")]);
    assert_eq!(
        eval_str(&env, r#"doc("t.xml")//b is doc("t.xml")//b"#),
        "true"
    );
    assert_eq!(
        eval_str(&env, r#"doc("t.xml")/a << doc("t.xml")//b"#),
        "true"
    );
    // constructed copies have fresh identity
    assert_eq!(eval_str(&env, "<x/> is <x/>"), "false");
}

#[test]
fn general_vs_value_comparison() {
    let env = env_with(&[]);
    assert_eq!(eval_str(&env, "(1, 2, 3) = 2"), "true");
    assert_eq!(eval_str(&env, "(1, 2, 3) != 2"), "true"); // existential!
    assert_eq!(eval_str(&env, "() = 2"), "false");
    assert_eq!(eval_str(&env, "2 eq 2"), "true");
    assert_eq!(eval_str(&env, "count(() eq 2)"), "0"); // empty propagates
}

#[test]
fn conditional_and_typeswitch() {
    let env = env_with(&[]);
    assert_eq!(eval_str(&env, "if (1 < 2) then 'y' else 'n'"), "y");
    assert_eq!(
        eval_str(
            &env,
            "typeswitch (42) case xs:string return 's' case xs:integer return 'i' default return 'o'"
        ),
        "i"
    );
    assert_eq!(
        eval_str(
            &env,
            "typeswitch (<a/>) case element() return 'e' default return 'o'"
        ),
        "e"
    );
    assert_eq!(
        eval_str(
            &env,
            "typeswitch ('x') case $s as xs:string return concat($s, '!') default return 'o'"
        ),
        "x!"
    );
}

#[test]
fn casts_and_instance() {
    let env = env_with(&[]);
    assert_eq!(eval_str(&env, "'42' cast as xs:integer"), "42");
    assert_eq!(eval_str(&env, "'x' castable as xs:integer"), "false");
    assert_eq!(eval_str(&env, "3.5 instance of xs:decimal"), "true");
    assert_eq!(eval_str(&env, "(1, 2) instance of xs:integer+"), "true");
    assert_eq!(eval_str(&env, "() instance of xs:integer?"), "true");
    // a value of a derived type matches its base type; nothing matches by
    // promotion
    for (q, want) in [
        // the numeric lattice: an integer is a decimal, not a double
        ("1 instance of xs:integer", "true"),
        ("1 instance of xs:decimal", "true"),
        ("1.0 instance of xs:integer", "false"),
        ("1e0 instance of xs:double", "true"),
        ("1 instance of xs:double", "false"),
        // the string family, made by `cast as`
        ("'a' instance of xs:string", "true"),
        ("('p' cast as xs:QName) instance of xs:QName", "true"),
        (
            "('http://x' cast as xs:anyURI) instance of xs:anyURI",
            "true",
        ),
        ("('a' cast as xs:anyURI) instance of xs:string", "false"),
        (
            "typeswitch ('a' cast as xs:anyURI) case xs:string return 's' default return 'o'",
            "o",
        ),
    ] {
        assert_eq!(eval_str(&env, q), want, "{q}");
    }
    let treat = evaluate_main("'a' treat as xs:integer", &env);
    assert_eq!(treat.unwrap_err().code, "XPTY0004");
}

/// XQuery 1.0 §3.1.5's function conversion, for a parameter and for a
/// declared return type alike.
#[test]
fn a_call_converts_its_arguments_and_result() {
    let env = env_with(&[]);
    for (q, want) in [
        // numeric promotion of a parameter and of a return value
        (
            "declare function local:d($x as xs:double) { $x instance of xs:double }; local:d(1)",
            Ok("true"),
        ),
        (
            "declare function local:d($x as xs:double) { $x + 1 }; local:d(1)",
            Ok("2"),
        ),
        (
            "declare function local:r() as xs:double { 1 }; local:r() instance of xs:double",
            Ok("true"),
        ),
        // an untyped node is cast to the parameter's type, and a cast that
        // fails keeps its own code
        (
            "declare function local:i($x as xs:integer) { $x + 1 }; local:i(<n>5</n>)",
            Ok("6"),
        ),
        (
            "declare function local:i($x as xs:integer) { $x + 1 }; local:i(<n>five</n>)",
            Err("FORG0001"),
        ),
        // a URI is promoted to the string a parameter asks for
        (
            "declare function local:s($x as xs:string) { $x instance of xs:string }; \
             local:s('a' cast as xs:anyURI)",
            Ok("true"),
        ),
        // a value of another type is not cast
        (
            "declare function local:s($x as xs:string) { $x }; local:s(2)",
            Err("XPTY0004"),
        ),
    ] {
        let got = evaluate_main(q, &env).map(|(r, _)| serialize(&r));
        assert_eq!(got.as_deref().map_err(|e| &*e.code), want, "{q}");
    }
}

/// A constructor function is a cast to its type, the empty sequence
/// allowed (XQuery 1.0 §3.12.5); a name the cast matrix does not know is no
/// function at all.
#[test]
fn constructor_functions_cast_their_argument() {
    let env = env_with(&[]);
    for (q, want) in [
        ("xs:integer('5')", Ok("5")),
        ("xs:integer('5') + 1", Ok("6")),
        ("xs:string(1)", Ok("1")),
        ("xs:string(1) instance of xs:string", Ok("true")),
        ("xs:double(<n>2.5</n>)", Ok("2.5")),
        ("count(xs:integer(()))", Ok("0")),
        ("xs:integer('x')", Err("FORG0001")),
        ("xs:integer((1, 2))", Err("XPTY0004")),
        ("xs:frobnicate(1)", Err("XPST0017")),
        ("xs:integer(1, 2)", Err("XPST0017")),
    ] {
        let got = evaluate_main(q, &env).map(|(r, _)| serialize(&r));
        assert_eq!(got.as_deref().map_err(|e| &*e.code), want, "{q}");
    }
}

#[test]
fn user_functions_in_prolog() {
    let env = env_with(&[]);
    assert_eq!(
        eval_str(
            &env,
            "declare function fact($n as xs:integer) as xs:integer \
             { if ($n le 1) then 1 else $n * fact($n - 1) }; fact(6)"
        ),
        "720"
    );
    assert_eq!(
        eval_str(
            &env,
            "declare function local:twice($x) { ($x, $x) }; count(local:twice((1, 2)))"
        ),
        "4"
    );
}

#[test]
fn module_function_call() {
    let env = env_with(&[("filmDB.xml", FILM_DB)]);
    env.modules
        .register_source(
            r#"module namespace film = "films";
               declare function film:filmsByActor($actor as xs:string) as node()*
               { doc("filmDB.xml")//name[../actor = $actor] };"#,
        )
        .unwrap();
    assert_eq!(
        eval_str(
            &env,
            r#"import module namespace f = "films";
               <films>{ f:filmsByActor("Sean Connery") }</films>"#
        ),
        "<films><name>The Rock</name><name>Goldfinger</name></films>"
    );
}

#[test]
fn string_functions() {
    let env = env_with(&[]);
    assert_eq!(eval_str(&env, "concat('a', 'b', 'c')"), "abc");
    assert_eq!(eval_str(&env, "string-join(('a', 'b'), '-')"), "a-b");
    assert_eq!(eval_str(&env, "substring('hello', 2, 3)"), "ell");
    assert_eq!(eval_str(&env, "contains('hello', 'ell')"), "true");
    assert_eq!(eval_str(&env, "starts-with('hello', 'he')"), "true");
    assert_eq!(eval_str(&env, "upper-case('abc')"), "ABC");
    assert_eq!(eval_str(&env, "normalize-space('  a   b ')"), "a b");
    assert_eq!(eval_str(&env, "string-length('héllo')"), "5");
    assert_eq!(eval_str(&env, "substring-before('a=b', '=')"), "a");
    assert_eq!(eval_str(&env, "substring-after('a=b', '=')"), "b");
    assert_eq!(eval_str(&env, "translate('abc', 'abc', 'xyz')"), "xyz");
}

#[test]
fn numeric_and_aggregate_functions() {
    let env = env_with(&[]);
    assert_eq!(eval_str(&env, "sum((1, 2, 3))"), "6");
    assert_eq!(eval_str(&env, "sum(())"), "0");
    assert_eq!(eval_str(&env, "avg((1, 2, 3))"), "2");
    assert_eq!(eval_str(&env, "min((3, 1, 2))"), "1");
    assert_eq!(eval_str(&env, "max((3, 1, 2))"), "3");
    assert_eq!(eval_str(&env, "abs(-5)"), "5");
    assert_eq!(eval_str(&env, "floor(2.7)"), "2");
    assert_eq!(eval_str(&env, "ceiling(2.1)"), "3");
    assert_eq!(eval_str(&env, "round(2.5)"), "3");
    assert_eq!(eval_str(&env, "number('3.5') * 2"), "7");
    assert_eq!(eval_str(&env, "string(number('zzz'))"), "NaN");
}

#[test]
fn sequence_functions() {
    let env = env_with(&[]);
    assert_eq!(eval_str(&env, "distinct-values((1, 2, 1, 3, 2))"), "1 2 3");
    assert_eq!(eval_str(&env, "index-of((10, 20, 10), 10)"), "1 3");
    assert_eq!(eval_str(&env, "insert-before((1, 3), 2, 2)"), "1 2 3");
    assert_eq!(eval_str(&env, "remove((1, 2, 3), 2)"), "1 3");
    assert_eq!(eval_str(&env, "empty(())"), "true");
    assert_eq!(eval_str(&env, "exists((1))"), "true");
    assert_eq!(eval_str(&env, "zero-or-one(())"), "");
    assert_eq!(eval_str(&env, "exactly-one(5)"), "5");
    assert_eq!(
        eval_str(&env, "deep-equal(<a><b>1</b></a>, <a><b>1</b></a>)"),
        "true"
    );
    assert_eq!(
        eval_str(&env, "deep-equal(<a><b>1</b></a>, <a><b>2</b></a>)"),
        "false"
    );
}

#[test]
fn name_functions() {
    let env = env_with(&[("n.xml", r#"<a:root xmlns:a="urn:a"><kid id="1"/></a:root>"#)]);
    assert_eq!(eval_str(&env, r#"name(doc("n.xml")/*)"#), "a:root");
    assert_eq!(eval_str(&env, r#"local-name(doc("n.xml")/*)"#), "root");
    assert_eq!(eval_str(&env, r#"namespace-uri(doc("n.xml")/*)"#), "urn:a");
    assert_eq!(
        eval_str(
            &env,
            r#"doc("n.xml")//*[local-name(.) = 'kid']/@id/string(.)"#
        ),
        "1"
    );
}

#[test]
fn xrpc_url_helpers() {
    let env = env_with(&[]);
    assert_eq!(
        eval_str(&env, "xrpc:host('xrpc://y.example.org:8080/db/x.xml')"),
        "xrpc://y.example.org:8080"
    );
    assert_eq!(
        eval_str(&env, "xrpc:path('xrpc://y.example.org:8080/db/x.xml')"),
        "db/x.xml"
    );
    assert_eq!(eval_str(&env, "xrpc:host('plain.xml')"), "localhost");
    assert_eq!(eval_str(&env, "xrpc:path('plain.xml')"), "plain.xml");
}

#[test]
fn union_intersect_except() {
    let env = env_with(&[("t.xml", "<a><b/><c/><d/></a>")]);
    assert_eq!(
        eval_str(&env, r#"count(doc("t.xml")//b union doc("t.xml")//c)"#),
        "2"
    );
    assert_eq!(
        eval_str(
            &env,
            r#"count((doc("t.xml")/a/* ) intersect (doc("t.xml")//c))"#
        ),
        "1"
    );
    assert_eq!(
        eval_str(
            &env,
            r#"count((doc("t.xml")/a/*) except (doc("t.xml")//c))"#
        ),
        "2"
    );
}

#[test]
fn updates_produce_pul_not_side_effects() {
    let env = env_with(&[("db.xml", "<db><item>1</item></db>")]);
    let (res, pul) = evaluate_main(r#"delete nodes doc("db.xml")//item"#, &env).unwrap();
    assert!(res.is_empty());
    assert_eq!(pul.len(), 1);
    // the document is unchanged until apply_updates
    assert_eq!(eval_str(&env, r#"count(doc("db.xml")//item)"#), "1");
    // apply and swap in
    let edits = xqeval::apply_updates(&pul).unwrap();
    for e in &edits {
        if let Some(uri) = &e.uri {
            env.docs.replace(uri, e.new.clone()).unwrap();
        }
    }
    assert_eq!(eval_str(&env, r#"count(doc("db.xml")//item)"#), "0");
}

#[test]
fn update_in_flwor_collects_multiple_primitives() {
    let env = env_with(&[("db.xml", "<db><i/><i/><i/></db>")]);
    let (_, pul) = evaluate_main(
        r#"for $i in doc("db.xml")//i return insert node <k/> into $i"#,
        &env,
    )
    .unwrap();
    assert_eq!(pul.len(), 3);
}

#[test]
fn updating_function_via_module() {
    let env = env_with(&[("db.xml", "<db/>")]);
    env.modules
        .register_source(
            r#"module namespace m = "mod";
               declare updating function m:add($name as xs:string)
               { insert node element {$name} {} into doc("db.xml")/db };"#,
        )
        .unwrap();
    let (_, pul) = evaluate_main(r#"import module namespace m = "mod"; m:add("x")"#, &env).unwrap();
    assert_eq!(pul.len(), 1);
    let edits = xqeval::apply_updates(&pul).unwrap();
    env.docs.replace("db.xml", edits[0].new.clone()).unwrap();
    assert_eq!(eval_str(&env, r#"count(doc("db.xml")/db/x)"#), "1");
}

#[test]
fn fn_put_records_primitive() {
    let env = env_with(&[]);
    let (_, pul) = evaluate_main(r#"put(<snapshot>data</snapshot>, "snap.xml")"#, &env).unwrap();
    assert_eq!(pul.len(), 1);
    let edits = xqeval::apply_updates(&pul).unwrap();
    env.docs.replace("snap.xml", edits[0].new.clone()).unwrap();
    assert_eq!(eval_str(&env, r#"string(doc("snap.xml"))"#), "data");
}

/// A mock dispatcher that runs calls against another environment, recording
/// bulk shapes — used to test `execute at` without the network stack.
struct MockDispatcher {
    remote: Environment,
    calls_seen: parking_lot::Mutex<Vec<usize>>,
}

impl RpcDispatcher for MockDispatcher {
    fn dispatch(
        &self,
        _dest: &str,
        func: &FunctionRef,
        calls: Vec<Vec<Sequence>>,
    ) -> XdmResult<Vec<Sequence>> {
        self.calls_seen.lock().push(calls.len());
        let module = self
            .remote
            .modules
            .get_or_load(&func.module_ns, func.location_hint.as_deref())?;
        let f = module
            .function(&func.local_name, func.arity)
            .ok_or_else(|| xdm::XdmError::unknown_function("no such remote function"))?;
        let ev = xqeval::Evaluator::new(&self.remote, module.sctx.clone());
        let mut out = Vec::new();
        for args in calls {
            let mut st = xqeval::eval::EvalState::new();
            let base = st.vars.len();
            for ((pname, _), v) in f.params.iter().zip(args) {
                st.bind(pname, v);
            }
            let r = ev.eval(&f.body, &mut st, &xqeval::eval::Ctx::none())?;
            st.vars.truncate(base);
            out.push(r);
        }
        Ok(out)
    }
}

#[test]
fn execute_at_through_mock_dispatcher() {
    // remote peer: has the film DB and the module
    let remote = env_with(&[("filmDB.xml", FILM_DB)]);
    remote
        .modules
        .register_source(
            r#"module namespace film = "films";
               declare function film:filmsByActor($actor as xs:string) as node()*
               { doc("filmDB.xml")//name[../actor = $actor] };"#,
        )
        .unwrap();
    // local peer: knows the module interface (same registry for simplicity)
    let mut local = env_with(&[]);
    local
        .modules
        .register_source(
            r#"module namespace film = "films";
               declare function film:filmsByActor($actor as xs:string) as node()*
               { doc("filmDB.xml")//name[../actor = $actor] };"#,
        )
        .unwrap();
    let mock = Arc::new(MockDispatcher {
        remote,
        calls_seen: parking_lot::Mutex::new(vec![]),
    });
    local.dispatcher = Some(mock.clone());

    let q = r#"
        import module namespace f = "films";
        <films>{ execute at {"xrpc://y.example.org"} {f:filmsByActor("Sean Connery")} }</films>"#;
    let (res, _) = evaluate_main(q, &local).unwrap();
    assert_eq!(
        serialize(&res),
        "<films><name>The Rock</name><name>Goldfinger</name></films>"
    );
    // tree evaluator dispatches one call at a time
    assert_eq!(*mock.calls_seen.lock(), vec![1]);
}

#[test]
fn execute_at_in_loop_is_one_call_at_a_time_in_tree_engine() {
    let remote = env_with(&[]);
    remote
        .modules
        .register_source(
            r#"module namespace t = "test";
               declare function t:echoVoid() { () };"#,
        )
        .unwrap();
    let mut local = env_with(&[]);
    local
        .modules
        .register_source(
            r#"module namespace t = "test";
               declare function t:echoVoid() { () };"#,
        )
        .unwrap();
    let mock = Arc::new(MockDispatcher {
        remote,
        calls_seen: parking_lot::Mutex::new(vec![]),
    });
    local.dispatcher = Some(mock.clone());
    let q = r#"
        import module namespace t = "test";
        for $i in (1 to 5) return execute at {"xrpc://y"} {t:echoVoid()}"#;
    let (res, _) = evaluate_main(q, &local).unwrap();
    assert!(res.is_empty());
    // five separate dispatches of one call each — the baseline the paper's
    // Table 2 compares Bulk RPC against
    assert_eq!(*mock.calls_seen.lock(), vec![1, 1, 1, 1, 1]);
}

#[test]
fn execute_at_without_dispatcher_errors() {
    let env = env_with(&[]);
    env.modules
        .register_source(r#"module namespace t = "test"; declare function t:f() { 1 };"#)
        .unwrap();
    let err = evaluate_main(
        r#"import module namespace t = "test"; execute at {"xrpc://y"} {t:f()}"#,
        &env,
    )
    .unwrap_err();
    assert_eq!(err.code, "XRPC0001");
}

#[test]
fn join_index_accelerated_lookup_matches_naive() {
    // Build a document big enough to trigger the index.
    let mut xml = String::from("<db>");
    for i in 0..500 {
        xml.push_str(&format!(r#"<person id="p{i}"><name>n{i}</name></person>"#));
    }
    xml.push_str("</db>");
    let env = env_with(&[("people.xml", &xml)]);
    let q = r#"string(doc("people.xml")//person[@id = "p250"]/name)"#;
    assert_eq!(eval_str(&env, q), "n250");
    let stats = env.stats();
    assert_eq!((stats.join_index_builds, stats.join_index_probes), (1, 1));
    // the index belongs to the document: a second query probes it, and so
    // does a second environment over the same store
    assert_eq!(eval_str(&env, q), "n250");
    let stats = env.stats();
    assert_eq!((stats.join_index_builds, stats.join_index_probes), (1, 2));
    let other = xqeval::Environment::new(env.docs.clone());
    assert_eq!(eval_str(&other, q), "n250");
    assert_eq!(other.stats().join_index_builds, 0);

    // naive evaluation (index off) gives the same answer
    let env2 = env_with(&[("people.xml", &xml)]);
    let mut env2 = env2;
    env2.join_index = false;
    assert_eq!(eval_str(&env2, q), "n250");
    assert_eq!(env2.stats().join_index_builds, 0);
}

#[test]
fn errors_surface_with_codes() {
    let env = env_with(&[]);
    assert_eq!(
        evaluate_main("$undefined", &env).unwrap_err().code,
        "XPST0008"
    );
    assert_eq!(
        evaluate_main("1 idiv 0", &env).unwrap_err().code,
        "FOAR0001"
    );
    assert_eq!(
        evaluate_main(r#"doc("missing.xml")"#, &env)
            .unwrap_err()
            .code,
        "FODC0002"
    );
    assert_eq!(
        evaluate_main("unknown-fn-xyz()", &env).unwrap_err().code,
        "XPST0017"
    );
    assert_eq!(
        evaluate_main("error('Q{uri}mycode', 'boom')", &env)
            .unwrap_err()
            .message,
        "boom"
    );
}

#[test]
fn external_variables() {
    let env = env_with(&[]);
    let (res, _) = xqeval::evaluate_main_with_vars(
        "$x + $y",
        &env,
        vec![
            ("x".to_string(), Sequence::one(Item::integer(40))),
            ("y".to_string(), Sequence::one(Item::integer(2))),
        ],
    )
    .unwrap();
    assert_eq!(serialize(&res), "42");
}

#[test]
fn prolog_variables() {
    let env = env_with(&[]);
    assert_eq!(
        eval_str(&env, "declare variable $base := 10; $base * 2"),
        "20"
    );
}

#[test]
fn deep_recursion_capped() {
    // Debug-build frames are large; give the evaluation a generous stack
    // (the peer runtime does the same for its request handler threads).
    let handle = std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(|| {
            let env = env_with(&[]);
            evaluate_main("declare function loop($n) { loop($n + 1) }; loop(0)", &env).unwrap_err()
        })
        .unwrap();
    let err = handle.join().unwrap();
    assert_eq!(err.code, "XQDY0054");
}

#[test]
fn paper_semijoin_pattern() {
    // The §5 distributed semi-join body, evaluated locally.
    let auctions = r#"<site><closed_auctions>
        <closed_auction><buyer person="p0"/><annotation>good</annotation></closed_auction>
        <closed_auction><buyer person="p2"/><annotation>bad</annotation></closed_auction>
    </closed_auctions></site>"#;
    let persons = r#"<site><people>
        <person id="p0"><name>Ann</name></person>
        <person id="p1"><name>Bob</name></person>
    </people></site>"#;
    let env = env_with(&[("auctions.xml", auctions), ("persons.xml", persons)]);
    let q = r#"
        for $p in doc("persons.xml")//person
        let $ca := doc("auctions.xml")//closed_auction[./buyer/@person = $p/@id]
        return if (empty($ca)) then () else <result>{$p/name, $ca/annotation}</result>"#;
    assert_eq!(
        eval_str(&env, q),
        "<result><name>Ann</name><annotation>good</annotation></result>"
    );
}

#[test]
fn flwor_hash_join_matches_naive_nested_loop() {
    // the Q7 join shape; run with the optimization on and off and compare
    let persons = r#"<site><people>
        <person id="p0"><name>Ann</name></person>
        <person id="p1"><name>Bob</name></person>
        <person id="p2"><name>Cec</name></person>
    </people></site>"#;
    let auctions = r#"<site>
        <closed_auction><buyer person="p1"/><annotation>x</annotation></closed_auction>
        <closed_auction><buyer person="p0"/><annotation>y</annotation></closed_auction>
        <closed_auction><buyer person="p1"/><annotation>z</annotation></closed_auction>
        <closed_auction><buyer person="nobody"/><annotation>w</annotation></closed_auction>
    </site>"#;
    let q = r#"
        for $p in doc("persons.xml")//person,
            $ca in doc("auctions.xml")//closed_auction
        where $p/@id = $ca/buyer/@person
        return <r>{string($p/name)}{string($ca/annotation)}</r>"#;
    let run = |join_on: bool| {
        let mut env = env_with(&[("persons.xml", persons), ("auctions.xml", auctions)]);
        env.join_index = join_on;
        eval_str(&env, q)
    };
    let fast = run(true);
    let naive = run(false);
    assert_eq!(fast, naive);
    // order: X-major (persons), then auction document order
    assert_eq!(fast, "<r>Anny</r><r>Bobx</r><r>Bobz</r>");
}

#[test]
fn a_join_that_gives_up_evaluates_y_once() {
    let mut env = env_with(&[("n.xml", "<l><v>1</v><v>2</v><v>4</v></l>")]);
    let profile = xrpc_obs::ProfileCollector::new(xrpc_obs::ProfileMode::Full, "t", "", 0);
    env.profile = Some(profile.clone());
    // the X keys are numbers: the join gives up at the first X item, and
    // the nested loop compares numerically over the Y items it already has
    let q = r#"for $a in (1, 2, 3), $b in doc("n.xml")//v where $a = $b return string($b)"#;
    assert_eq!(eval_str(&env, q), "1 2");
    let ops = profile.snapshot_ops();
    // Y is the only path: evaluated once, not once more per X item
    assert_eq!(OpNode::calls_of(&ops, "xq:path-step"), 1, "{ops:#?}");
    assert_eq!(OpNode::calls_of(&ops, "xq:hash-join"), 1, "{ops:#?}");
}

#[test]
fn flwor_hash_join_with_extra_clauses_and_numeric_fallback() {
    let env = env_with(&[]);
    // numeric keys: must fall back to the naive path and still be right
    assert_eq!(
        eval_str(
            &env,
            "for $a in (1, 2, 3), $b in (2, 3, 4) where $a = $b return $a * 10 + $b"
        ),
        "22 33"
    );
    // a compound where (join pattern + extra conjunct) must fall back to
    // the naive path and still be correct
    let persons = r#"<db><p id="a"/><p id="b"/></db>"#;
    let orders = r#"<db><o ref="a" v="1"/><o ref="a" v="2"/><o ref="b" v="3"/></db>"#;
    let env2 = env_with(&[("p.xml", persons), ("o.xml", orders)]);
    assert_eq!(
        eval_str(
            &env2,
            r#"for $p in doc("p.xml")//p, $o in doc("o.xml")//o
               where $p/@id = $o/@ref and number($o/@v) > 1
               return number($o/@v)"#
        ),
        "2 3"
    );
    // hash-joinable pattern with work in the return clause
    assert_eq!(
        eval_str(
            &env2,
            r#"for $p in doc("p.xml")//p, $o in doc("o.xml")//o
               where $p/@id = $o/@ref
               return concat(string($p/@id), "-", string($o/@v))"#
        ),
        "a-1 a-2 b-3"
    );
}

#[test]
fn a_function_body_sees_its_parameters_and_the_prolog_not_its_caller() {
    let env = env_with(&[]);
    let q = "declare function local:g($x) { ($x, $i) }; for $i in (1, 2) return local:g($i)";
    assert_eq!(evaluate_main(q, &env).unwrap_err().code, "XPST0008");
    assert_eq!(
        eval_str(
            &env,
            "declare variable $v := 10; declare function local:g($v2) { $v2 + $v };
             for $i in (1, 2) return local:g($i)"
        ),
        "11 12"
    );
}

#[test]
fn a_node_a_function_builds_in_y_is_one_node_per_x_item() {
    let q = r#"declare function local:mk() { <b v="1"/> };
        count((for $a in ("1", "1"), $b in local:mk() where $a = string($b/@v) return $b) | ())"#;
    for join_index in [true, false] {
        let mut env = env_with(&[]);
        env.join_index = join_index;
        assert_eq!(eval_str(&env, q), "2", "join_index = {join_index}");
    }
}
