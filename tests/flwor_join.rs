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
//! does. A failure prints the seed; `JOIN_SEED=n` reruns one seed.

use rand::prelude::*;
use std::sync::Arc;
use xrpc_repro::xdm::{Item, Sequence};
use xrpc_repro::xqeval::{evaluate_main_with_vars, Environment, InMemoryDocs};
use xrpc_repro::xrpc_proto::{parse_message, XrpcMessage, XrpcRequest};

/// The seeds a test runs: `JOIN_SEED` alone, or `0..n`.
fn seeds(n: u64) -> Vec<u64> {
    match std::env::var("JOIN_SEED").ok().and_then(|s| s.parse().ok()) {
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

/// One side's key over `$v`: compiled paths of one to three steps, and a
/// few shapes the compiler leaves to the interpreter.
fn key(rng: &mut StdRng, v: &str) -> String {
    const PATHS: [&str; 14] = [
        "@k", "k", "@p:k", "p:k", "q:k", "r/@k", "r/k", "./r/@p:k", "r/s/@k", "r/s/k", "r/s/q:k",
        "k/text()", "r//k", "",
    ];
    match PATHS[rng.gen_range(0..PATHS.len())] {
        "" => format!("${v}"),
        path => format!("${v}/{path}"),
    }
}

/// One generated join query; `$msg` is bound to the message's items.
fn query(rng: &mut StdRng) -> String {
    let x = match rng.gen_range(0..12u8) {
        0 => "()",
        1 => r#"(doc("x.xml")//e, "01")"#,
        2 => r#"(doc("x.xml")//e, 1)"#,
        3 => r#"("1", doc("x.xml")//e)"#,
        _ => r#"doc("x.xml")//e"#,
    };
    let y = match rng.gen_range(0..12u8) {
        0 | 1 => r#"(doc("y1.xml")//e, doc("y2.xml")//e)"#,
        2..=4 => "$msg",
        5 => r#"(doc("y1.xml")//e, "1")"#,
        6 => r#"(doc("y1.xml")//e, 1)"#,
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
        "declare namespace p = \"urn:p\"; declare namespace q = \"urn:p\";\n\
         declare variable $msg external;\n\
         for $x in {x}, $y in {y} where {cond} return {ret}"
    )
}

/// The result as strings (nodes by their `n`), or the error code.
fn run(env: &Environment, query: &str, msg: &Sequence) -> Result<Vec<String>, String> {
    match evaluate_main_with_vars(query, env, vec![("msg".into(), msg.clone())]) {
        Ok((seq, _)) => Ok(seq
            .iter()
            .map(|i| match i {
                Item::Node(n) => format!("<{}>", n.doc.attr_local(n.id, "n").unwrap_or("?")),
                Item::Atomic(a) => a.lexical(),
            })
            .collect()),
        Err(e) => Err(e.code),
    }
}

#[test]
fn flwor_join_matches_nested_loop() {
    let (mut empty, mut joined, mut failed) = (0, 0, 0);
    for seed in seeds(12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let store = InMemoryDocs::new();
        for (uri, tag, n) in [("x.xml", "x", 12), ("y1.xml", "y", 16), ("y2.xml", "z", 10)] {
            let xml = document(&mut rng, tag, n);
            store.insert(uri, xrpc_repro::xmldom::parse_with_uri(&xml, uri).unwrap());
        }
        let store = Arc::new(store);
        let msg = message_items(&store);
        let on = Environment::new(store.clone());
        let mut off = Environment::new(store.clone());
        off.join_index = false;
        for _ in 0..40 {
            let q = query(&mut rng);
            let want = run(&off, &q, &msg);
            let got = run(&on, &q, &msg);
            assert_eq!(got, want, "JOIN_SEED={seed}: {q}");
            match want {
                Ok(r) if r.is_empty() => empty += 1,
                Ok(_) => joined += 1,
                Err(_) => failed += 1,
            }
        }
    }
    // the grid reaches matches, empty answers and errors
    assert!(
        joined > 0 && empty > 0 && failed > 0,
        "{joined} {empty} {failed}"
    );
}
