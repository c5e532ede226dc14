//! The FLWOR hash join against the nested loop it stands for.
//!
//! `for $x in X, $y in Y where kx($x) = ky($y) return …` is evaluated as a
//! hash join when the join index is on: Y's keys are built into a table once
//! and each X item probes it, with keys read from the arena where they are
//! `$var` followed by name steps. With `join_index = false` the same query
//! is the plain nested loop. Results and error codes must be equal.
//!
//! Queries are generated from a seed over generated documents: key paths of
//! one to three steps (and a few that do not compile: `text()`, `//`, the
//! bare variable), zero or several key nodes per item, prefixed names (one
//! bound to the documents' namespace under another prefix), keys that only
//! look numeric (`"01"` vs `"1"`), typed key nodes, Y items from two
//! documents or decoded from a request message (one arena for all),
//! atomic items in X or Y, and a return clause that can fail before a key
//! does. X, Y or a key is now and then behind a declared function, which
//! may construct a node or call a peer; the query's answer counts its
//! distinct nodes, so a node built once where the nested loop builds one
//! per X item shows. The calls sent must be the same multiset, and the
//! loop-lifted engine must give the nested loop's answer (or an error where
//! it errs). A failure prints the seed; `JOIN_SEED=n` reruns one seed.
//!
//! The same documents and keys then drive the distributed optimizer
//! (`Environment::rpc_optimize`) against plain evaluation on the
//! loop-lifted engine: `execute at` under empty and non-empty `for`s,
//! under `where`s that keep no, some or all tuples, in `if` branches, in
//! nested FLWORs, and in X, Y and the return of join shapes, calling a
//! function the caller knows to be read-only or one it does not know, at a
//! peer that answers or one that does not exist, written in the query or
//! hidden in a declared function. Results and error codes must be equal;
//! the optimized run's calls must be a sub-multiset of the plain run's,
//! with the same calls of the functions the caller does not know, in no
//! more requests. `OPT_SEED=n` reruns one seed.

use rand::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use xrpc_repro::xdm::{Item, Sequence, XdmError, XdmResult};
use xrpc_repro::xqeval::context::{FunctionRef, RpcDispatcher};
use xrpc_repro::xqeval::eval::{Ctx, EvalState};
use xrpc_repro::xqeval::{evaluate_main_with_vars, Environment, Evaluator, InMemoryDocs};
use xrpc_repro::xrpc_proto::{parse_message, XrpcMessage, XrpcRequest};

/// The seeds a test runs: those in `var` alone, or `0..n`.
fn seeds(var: &str, n: u64) -> Vec<u64> {
    match std::env::var(var).ok().and_then(|s| s.parse().ok()) {
        Some(seed) => vec![seed],
        None => (0..n).collect(),
    }
}

/// Values that are equal as numbers and not as strings, or differ by case
/// or a space.
const VALUES: [&str; 7] = ["01", "1", "1.0", " 1", "a", "A", ""];

fn value(rng: &mut StdRng) -> &'static str {
    VALUES[rng.gen_range(0..VALUES.len())]
}

/// A key element: `k` or `p:k`, now and then typed.
fn key_elem(rng: &mut StdRng, out: &mut String) {
    let name = if rng.gen_bool(0.7) { "k" } else { "p:k" };
    let ty = match rng.gen_range(0..24u8) {
        0 => r#" xsi:type="xs:integer""#,
        1 => r#" xsi:type="xs:string""#,
        _ => "",
    };
    out.push_str(&format!("<{name}{ty}>{}</{name}>", value(rng)));
}

/// Zero to two `k` / `p:k` attributes (never two of one name) and zero to
/// two key elements.
fn keys(rng: &mut StdRng, out: &mut String, depth: usize) {
    let mut attrs = String::new();
    for name in ["k", "p:k"] {
        if rng.gen_bool(0.5) {
            attrs.push_str(&format!(r#" {name}="{}""#, value(rng)));
        }
    }
    let mut body = String::new();
    for _ in 0..rng.gen_range(0..3) {
        key_elem(rng, &mut body);
    }
    if depth < 2 {
        for _ in 0..rng.gen_range(0..3) {
            let tag = if depth == 0 { "r" } else { "s" };
            body.push_str(&format!("<{tag}"));
            keys(rng, &mut body, depth + 1);
            body.push_str(&format!("</{tag}>"));
        }
    }
    out.push_str(&attrs);
    out.push('>');
    out.push_str(&body);
}

/// A document of `n` items `<e n="{tag}{i}" …>` with generated keys.
fn document(rng: &mut StdRng, tag: &str, n: usize) -> String {
    let mut xml = String::from(
        r#"<doc xmlns:p="urn:p" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xs="http://www.w3.org/2001/XMLSchema">"#,
    );
    for i in 0..n {
        xml.push_str(&format!(r#"<e n="{tag}{i}""#));
        keys(rng, &mut xml, 0);
        xml.push_str("</e>");
    }
    xml.push_str("</doc>");
    xml
}

/// The items of `y2.xml`, decoded from a request message that carries them
/// as a parameter: one message arena holds them all.
fn message_items(store: &Arc<InMemoryDocs>) -> Sequence {
    let env = Environment::new(store.clone());
    let (items, _) = evaluate_main_with_vars(r#"doc("y2.xml")//e"#, &env, vec![]).unwrap();
    let mut request = XrpcRequest::new("m", "f", 1);
    request.push_call(vec![items]);
    match parse_message(&request.to_xml().unwrap()).unwrap() {
        XrpcMessage::Request(mut r) => r.calls.remove(0).remove(0),
        _ => panic!("a request decodes as a request"),
    }
}

/// One side's key over `$v`: compiled paths of one to three steps, a few
/// shapes the compiler leaves to the interpreter, and a declared function.
fn key(rng: &mut StdRng, v: &str) -> String {
    match rng.gen_range(0..12u8) {
        0 => return format!("local:key(${v})"),
        1 => return format!("local:remote-key(${v})"),
        _ => {}
    }
    const PATHS: [&str; 14] = [
        "@k", "k", "@p:k", "p:k", "q:k", "r/@k", "r/k", "./r/@p:k", "r/s/@k", "r/s/k", "r/s/q:k",
        "k/text()", "r//k", "",
    ];
    match PATHS[rng.gen_range(0..PATHS.len())] {
        "" => format!("${v}"),
        path => format!("${v}/{path}"),
    }
}

/// The join queries' functions: X, Y or a key behind a declared function,
/// which may construct a node or call the peer `xrpc://b`.
const JOIN_FUNCTIONS: &str = r#"
    declare function local:xs() { doc("x.xml")//e };
    declare function local:remote-xs() { execute at {"xrpc://b"} {r:elems("x.xml")} };
    declare function local:ys() { doc("y1.xml")//e };
    declare function local:new() { <e n="new" k="1"><k>1</k></e> };
    declare function local:remote-ys() { execute at {"xrpc://b"} {r:elems("y1.xml")} };
    declare function local:key($v) { $v/@k };
    declare function local:remote-key($v) { execute at {"xrpc://b"} {r:val(string($v/@k))} };"#;

/// One generated join query; `$msg` is bound to the message's items.
fn query(rng: &mut StdRng) -> String {
    let x = match rng.gen_range(0..14u8) {
        0 => "()",
        1 => r#"(doc("x.xml")//e, "01")"#,
        2 => r#"(doc("x.xml")//e, 1)"#,
        3 => r#"("1", doc("x.xml")//e)"#,
        4 => "local:xs()",
        5 => "local:remote-xs()",
        _ => r#"doc("x.xml")//e"#,
    };
    let y = match rng.gen_range(0..16u8) {
        0 | 1 => r#"(doc("y1.xml")//e, doc("y2.xml")//e)"#,
        2..=4 => "$msg",
        5 => r#"(doc("y1.xml")//e, "1")"#,
        6 => r#"(doc("y1.xml")//e, 1)"#,
        7 => "local:ys()",
        8 | 9 => "local:new()",
        10 => r#"(local:new(), doc("y1.xml")//e)"#,
        11 => "local:remote-ys()",
        _ => r#"doc("y1.xml")//e"#,
    };
    let (kx, ky) = (key(rng, "x"), key(rng, "y"));
    let cond = if rng.gen_bool(0.5) {
        format!("{kx} = {ky}")
    } else {
        format!("{ky} = {kx}")
    };
    // a return that can fail (FOAR0001 on a Y item without `k`) before a
    // key does: the error must be the one the nested loop meets first
    let ret = if rng.gen_bool(0.25) {
        "($x, $y, 1 idiv count($y/k))"
    } else {
        "($x, $y)"
    };
    format!(
        "import module namespace r = \"urn:r\";\n\
         declare namespace p = \"urn:p\"; declare namespace q = \"urn:p\";\n\
         declare variable $msg external;{JOIN_FUNCTIONS}\n\
         let $r := (for $x in {x}, $y in {y} where {cond} return {ret})\n\
         return ($r, count($r[. instance of node()] | ()))"
    )
}

/// An item as a string: a node by its `n`.
fn show(item: &Item) -> String {
    match item {
        Item::Node(n) => format!("<{}>", n.doc.attr_local(n.id, "n").unwrap_or("?")),
        Item::Atomic(a) => a.lexical(),
    }
}

/// A store of the generated documents `x.xml`, `y1.xml` and `y2.xml`.
fn store(rng: &mut StdRng) -> Arc<InMemoryDocs> {
    let store = InMemoryDocs::new();
    for (uri, tag, n) in [("x.xml", "x", 12), ("y1.xml", "y", 16), ("y2.xml", "z", 10)] {
        let xml = document(rng, tag, n);
        store.insert(uri, xrpc_repro::xmldom::parse_with_uri(&xml, uri).unwrap());
    }
    Arc::new(store)
}

#[test]
fn flwor_join_matches_nested_loop() {
    let (mut empty, mut joined, mut failed, mut called) = (0, 0, 0, 0);
    for seed in seeds("JOIN_SEED", 12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let store = store(&mut rng);
        let msg = message_items(&store);
        let (on, on_callee) = with_callee(&store);
        let (mut off, off_callee) = with_callee(&store);
        off.join_index = false;
        for _ in 0..40 {
            let q = query(&mut rng);
            let want = run(&off, &off_callee, &q, &msg, false);
            let got = run(&on, &on_callee, &q, &msg, false);
            assert_eq!(got.answer, want.answer, "JOIN_SEED={seed}: {q}");
            assert_eq!(got.calls, want.calls, "JOIN_SEED={seed}: {q}");
            // set at a time, the lifted plan may meet another of the errors
            // first: all `where`s, say, before any `return`
            let lifted = run(&on, &on_callee, &q, &msg, true);
            if !(lifted.answer.is_err() && want.answer.is_err()) {
                assert_eq!(lifted.answer, want.answer, "JOIN_SEED={seed}, lifted: {q}");
            }
            called += !want.calls.is_empty() as usize;
            match want.answer {
                // the count of distinct nodes alone
                Ok(r) if r.len() == 1 => empty += 1,
                Ok(_) => joined += 1,
                Err(_) => failed += 1,
            }
        }
    }
    // the grid reaches matches, empty answers, errors and calls
    assert!(
        joined > 0 && empty > 0 && failed > 0 && called > 0,
        "{joined} {empty} {failed} {called}"
    );
}

/// The optimizer differential's functions. `r` is registered at the caller
/// too, so its functions are known read-only there; `u` is not.
const REMOTE_MODULES: [&str; 2] = [
    r#"module namespace r = "urn:r";
    declare function r:val($v) { $v };
    declare function r:elems($uri as xs:string) { doc($uri)//e };
    declare function r:boom() { error() };"#,
    r#"module namespace u = "urn:u";
    declare function u:val($v) { $v };
    declare function u:elems($uri as xs:string) { doc($uri)//e };"#,
];

/// The main-module functions of the differential's queries: each hides an
/// `execute at` from whatever looks at the call alone.
const HIDDEN_CALLS: &str = r#"
    declare function local:val($v) { execute at {"xrpc://b"} {u:val($v)} };
    declare function local:ys() { execute at {"xrpc://b"} {u:elems("y1.xml")} };
    declare function local:known($v) { execute at {"xrpc://b"} {r:val($v)} };"#;

/// The peer `xrpc://b`, in process over the same store, logging every call
/// it is sent — and every call sent to a peer that does not exist — as
/// "peer module:function(arguments)", and counting the requests.
struct Callee {
    env: Environment,
    log: Mutex<Vec<String>>,
    requests: AtomicUsize,
}

impl RpcDispatcher for Callee {
    fn dispatch(
        &self,
        dest: &str,
        func: &FunctionRef,
        calls: Vec<Vec<Sequence>>,
    ) -> XdmResult<Vec<Sequence>> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.log.lock().unwrap().extend(calls.iter().map(|args| {
            let args: Vec<Vec<String>> =
                args.iter().map(|a| a.iter().map(show).collect()).collect();
            format!("{dest} {}:{}{args:?}", func.module_ns, func.local_name)
        }));
        if dest != "xrpc://b" {
            return Err(XdmError::xrpc(format!("unknown peer {dest}")));
        }
        let module = self.env.modules.get_or_load(&func.module_ns, None)?;
        let f = (module.function(&func.local_name, func.arity))
            .ok_or_else(|| XdmError::unknown_function(func.local_name.clone()))?;
        let ev = Evaluator::new(&self.env, module.sctx.clone());
        (calls.into_iter())
            .map(|args| {
                let mut st = EvalState::new();
                for ((name, _), value) in f.params.iter().zip(args) {
                    st.bind(name, value);
                }
                ev.eval(&f.body, &mut st, &Ctx::none())
            })
            .collect()
    }
}

/// One of `vars`, if there are any.
fn pick<'v>(rng: &mut StdRng, vars: &'v [String]) -> Option<&'v String> {
    (!vars.is_empty()).then(|| &vars[rng.gen_range(0..vars.len())])
}

/// An `execute at` whose argument may use the integer variables `ints`.
fn remote_call(rng: &mut StdRng, ints: &[String]) -> String {
    let dest = if rng.gen_bool(0.8) {
        "xrpc://b"
    } else {
        "xrpc://nope"
    };
    let arg = match pick(rng, ints) {
        Some(v) if rng.gen_bool(0.5) => format!("${v} mod 2"),
        _ => rng.gen_range(0..3u8).to_string(),
    };
    let call = match rng.gen_range(0..12u8) {
        0 => return format!("local:val({arg})"),
        1 => return format!("local:known({arg})"),
        2 => "r:boom()".to_string(),
        3 | 4 => format!("u:val({arg})"),
        _ => format!("r:val({arg})"),
    };
    format!(r#"execute at {{"{dest}"}} {{{call}}}"#)
}

/// A join over `x.xml` and `y1.xml` with remote calls in X, in Y or in
/// its return.
fn join_with_calls(rng: &mut StdRng, ints: &[String]) -> String {
    let (x, y) = (format!("x{}", ints.len()), format!("y{}", ints.len()));
    let remote = |rng: &mut StdRng, uri: &str| {
        let dest = if rng.gen_bool(0.85) {
            "xrpc://b"
        } else {
            "xrpc://nope"
        };
        let prefix = if rng.gen_bool(0.8) { "r" } else { "u" };
        format!(r#"execute at {{"{dest}"}} {{{prefix}:elems("{uri}")}}"#)
    };
    let xs = match rng.gen_range(0..6u8) {
        0 => "()".to_string(),
        1 => remote(rng, "x.xml"),
        2 => r#"doc("x.xml")//e[3]"#.to_string(),
        _ => r#"doc("x.xml")//e"#.to_string(),
    };
    let ys = match rng.gen_range(0..8u8) {
        0 => r#"doc("y1.xml")//e"#.to_string(),
        1 => format!(r#"({}, doc("y2.xml")//e)"#, remote(rng, "y1.xml")),
        2 => format!("({}, local:ys())", remote(rng, "y2.xml")),
        3 => format!("(for $k in (1, 2) return {})", remote(rng, "y2.xml")),
        _ => remote(rng, "y1.xml"),
    };
    let (kx, ky) = (key(rng, &x), key(rng, &y));
    let ret = match rng.gen_range(0..4u8) {
        0 => format!("count({})", remote_call(rng, ints)),
        _ => format!("(${x}, ${y})"),
    };
    format!("(for ${x} in {xs}, ${y} in {ys} where {kx} = {ky} return {ret})")
}

/// An expression with remote calls in the places the optimizer must not
/// move them out of; `ints` are the integer variables in scope.
fn expr_with_calls(rng: &mut StdRng, depth: u8, ints: &mut Vec<String>) -> String {
    let v = format!("i{}", ints.len());
    match rng.gen_range(0..if depth == 0 { 2 } else { 7u8 }) {
        0 => remote_call(rng, ints),
        1 => format!("count({})", remote_call(rng, ints)),
        2 | 3 => {
            let seq = ["()", "(1, 2, 3)", "(1 to 4)"][rng.gen_range(0..3usize)];
            let cond = ["", "> 5", "mod 2 = 0", "> 0"][rng.gen_range(0..4usize)];
            let cond = match cond {
                "" => String::new(),
                c => format!(" where ${v} {c}"),
            };
            ints.push(v.clone());
            let body = expr_with_calls(rng, depth - 1, ints);
            ints.pop();
            format!("(for ${v} in {seq}{cond} return {body})")
        }
        4 => {
            let cond = match pick(rng, ints) {
                Some(i) => format!("${i} mod 2 = 1"),
                None => ["1 = 1", "1 = 2"][rng.gen_range(0..2usize)].to_string(),
            };
            let then = expr_with_calls(rng, depth - 1, ints);
            let els = expr_with_calls(rng, depth - 1, ints);
            format!("(if ({cond}) then {then} else {els})")
        }
        5 => {
            let value = expr_with_calls(rng, depth - 1, ints);
            ints.push(v.clone());
            let body = expr_with_calls(rng, depth - 1, ints);
            ints.pop();
            format!("(let ${v} := count({value}) return {body})")
        }
        _ => join_with_calls(rng, ints),
    }
}

/// What one run of a query did: its result or error code, the calls it
/// sent, sorted, and the requests they went in.
struct Run {
    answer: Result<Vec<String>, String>,
    calls: Vec<String>,
    requests: usize,
}

/// An environment over `store` whose peer `xrpc://b` is a [`Callee`] of
/// its own. Module `r` is registered here too: its functions are known
/// read-only.
fn with_callee(store: &Arc<InMemoryDocs>) -> (Environment, Arc<Callee>) {
    let remote = Environment::new(store.clone());
    for m in REMOTE_MODULES {
        remote.modules.register_source(m).unwrap();
    }
    let callee = Arc::new(Callee {
        env: remote,
        log: Mutex::new(Vec::new()),
        requests: AtomicUsize::new(0),
    });
    let mut env = Environment::new(store.clone());
    env.modules.register_source(REMOTE_MODULES[0]).unwrap();
    env.dispatcher = Some(callee.clone());
    (env, callee)
}

/// `query` on the tree engine, or on the loop-lifted one, with `$msg`
/// bound to `msg`.
fn run(env: &Environment, callee: &Callee, query: &str, msg: &Sequence, lifted: bool) -> Run {
    callee.log.lock().unwrap().clear();
    callee.requests.store(0, Ordering::Relaxed);
    let external = vec![("msg".to_string(), msg.clone())];
    let r = if lifted {
        xrpc_repro::xqast::parse_main_module(query)
            .and_then(|m| xrpc_repro::relalg::engine::execute_rel_parsed(&m, env, external))
    } else {
        evaluate_main_with_vars(query, env, external)
    };
    let mut calls = std::mem::take(&mut *callee.log.lock().unwrap());
    calls.sort();
    Run {
        answer: (r.map(|(seq, _)| seq.iter().map(show).collect())).map_err(|e| e.code),
        calls,
        requests: callee.requests.load(Ordering::Relaxed),
    }
}

/// The calls of the functions the caller does not know (module `urn:u`).
fn unknown(calls: &[String]) -> Vec<&String> {
    calls.iter().filter(|c| c.contains(" urn:u:")).collect()
}

/// Is every call of `some` also one of `all`, as often at least?
fn sub_multiset(some: &[String], all: &[String]) -> bool {
    let mut left: HashMap<&str, usize> = HashMap::new();
    for c in all {
        *left.entry(c).or_default() += 1;
    }
    some.iter().all(|c| match left.get_mut(c.as_str()) {
        Some(n) if *n > 0 => {
            *n -= 1;
            true
        }
        _ => false,
    })
}

#[test]
fn optimizer_on_matches_off_and_sends_no_more_calls() {
    let (mut fewer, mut same, mut failed) = (0, 0, 0);
    for seed in seeds("OPT_SEED", 12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let store = store(&mut rng);
        let callee = |optimize: bool| {
            let (mut env, callee) = with_callee(&store);
            env.rpc_optimize = optimize;
            (env, callee)
        };
        let ((off, off_callee), (on, on_callee)) = (callee(false), callee(true));
        for _ in 0..40 {
            let body = expr_with_calls(&mut rng, 3, &mut Vec::new());
            let q = format!(
                "import module namespace r = \"urn:r\"; import module namespace u = \"urn:u\";\n\
                 declare namespace p = \"urn:p\"; declare namespace q = \"urn:p\";{HIDDEN_CALLS}\n{body}"
            );
            let plain = run(&off, &off_callee, &q, &Sequence::empty(), true);
            let optimized = run(&on, &on_callee, &q, &Sequence::empty(), true);
            assert_eq!(optimized.answer, plain.answer, "OPT_SEED={seed}: {q}");
            let (some, all) = (&optimized.calls, &plain.calls);
            assert!(
                sub_multiset(some, all) && unknown(some) == unknown(all),
                "OPT_SEED={seed}: {q}\noptimized: {some:?}\nplain: {all:?}"
            );
            assert!(
                optimized.requests <= plain.requests,
                "OPT_SEED={seed}: {q}\n{} requests optimized, {} plain",
                optimized.requests,
                plain.requests
            );
            failed += plain.answer.is_err() as usize;
            if some.len() < all.len() {
                fewer += 1;
            } else {
                same += 1;
            }
        }
    }
    // the grid reaches answers and errors, and queries the optimizer
    // sends fewer calls for
    assert!(
        fewer > 0 && same > 0 && failed > 0,
        "{fewer} {same} {failed}"
    );
}
