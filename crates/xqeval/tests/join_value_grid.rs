//! The predicate join against the plain scan, value by value.
//!
//! `doc//elem[key = v]` is answered from the document's value index when the
//! comparison is string equality and by the ordinary step otherwise; either
//! way the answer must be the one `join_index = false` (the scan) gives. The
//! grid crosses the value's type — string / untypedAtomic / anyURI / integer
//! / decimal / double / empty / several items / a node — with attribute and
//! child-element keys over a document large enough to be indexed.

use std::sync::Arc;
use xqeval::{evaluate_main, Environment, InMemoryDocs};

/// 300 persons; ids and codes chosen so that string and numeric equality
/// disagree ("07" vs 7), whitespace matters (" 9 ") and keys repeat.
fn people() -> String {
    let mut xml = String::from("<site>");
    for i in 0..300 {
        let key = match i {
            0 => "07".to_string(),
            1 => "7".to_string(),
            2 => "08".to_string(),
            3 => "7.0".to_string(),
            4 => " 9 ".to_string(),
            5 => "http://x/y".to_string(),
            6 | 7 => "dup".to_string(),
            8 => "".to_string(),
            _ => format!("k{i}"),
        };
        xml.push_str(&format!(
            r#"<person id="{key}"><code>{key}</code><n>{i}</n></person>"#
        ));
    }
    xml.push_str("</site>");
    xml
}

fn env(join_index: bool) -> Environment {
    let store = InMemoryDocs::new();
    store.insert("p.xml", xmldom::parse(&people()).unwrap());
    let mut env = Environment::new(Arc::new(store));
    env.join_index = join_index;
    env
}

/// The matched persons' `n`, or the error code.
fn run(env: &Environment, query: &str) -> Result<Vec<String>, String> {
    match evaluate_main(query, env) {
        Ok((seq, _)) => Ok(seq.iter().map(|i| i.string_value()).collect()),
        Err(e) => Err(e.code),
    }
}

const VALUES: &[&str] = &[
    r#""07""#,
    r#""7""#,
    r#""dup""#,
    r#""""#,
    r#"" 9 ""#,
    r#""9""#,
    r#""nobody""#,
    r#"("07" cast as xs:untypedAtomic)"#,
    r#"("http://x/y" cast as xs:anyURI)"#,
    r#"(" http://x/y " cast as xs:anyURI)"#,
    "7",
    "8",
    "9",
    "7.0",
    "7.5",
    "7e0",
    "xs:double(\"NaN\")",
    "true()",
    "()",
    r#"("07", "08")"#,
    r#"("08", "07", "07")"#,
    r#"("dup", "k20", "k10")"#,
    r#"("07", 8)"#,
    "(7, 8)",
    // nodes as values: an attribute and an element of another person
    r#"doc("p.xml")/site/person[3]/@id"#,
    r#"doc("p.xml")/site/person[7]/code"#,
    r#"doc("p.xml")/site/person[position() < 4]/@id"#,
];

#[test]
fn indexed_join_equals_the_scan_for_every_value_class() {
    let (on, off) = (env(true), env(false));
    for key in ["@id", "code", "./code", "./@id"] {
        for v in VALUES {
            for path in ["//person", "/site/person", "/descendant::person"] {
                let q = format!(r#"doc("p.xml"){path}[{key} = {v}]/n"#);
                assert_eq!(run(&on, &q), run(&off, &q), "{q}");
            }
        }
    }
    // the string-class values did go through the index, the rest did not
    // build one of their own: two key paths, `.`-steps folded away
    let stats = on.stats();
    assert_eq!(stats.join_index_builds, 2);
    assert!(stats.join_index_probes > 0);
    assert_eq!(off.stats().join_index_builds, 0);
}

#[test]
fn repro_queries_return_the_scan_answers() {
    let on = env(true);
    // untypedAtomic against a number compares as double: "07" and "7" and
    // "7.0" are all 7
    assert_eq!(
        run(&on, r#"count(doc("p.xml")//person[@id = 7])"#).unwrap(),
        ["3"]
    );
    assert_eq!(
        run(&on, r#"doc("p.xml")//person[@id = 7][1]/n"#).unwrap(),
        ["0"]
    );
    // a general comparison is existential over a multi-item value
    assert_eq!(
        run(&on, r#"doc("p.xml")//person[@id = ("07", "08")]/n"#).unwrap(),
        ["0", "2"]
    );
    // union in document order without duplicates
    assert_eq!(
        run(&on, r#"doc("p.xml")//person[@id = ("dup", "07", "dup")]/n"#).unwrap(),
        ["0", "6", "7"]
    );
}

#[test]
fn typed_key_elements_compare_by_type_not_by_string() {
    let mut xml = String::from(
        r#"<l xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xs="http://www.w3.org/2001/XMLSchema">"#,
    );
    for i in 0..200 {
        xml.push_str(&format!(
            r#"<e><k xsi:type="xs:integer">0{i}</k><n>{i}</n></e>"#
        ));
    }
    xml.push_str("</l>");
    let run_with = |join_index: bool, q: &str| {
        let store = InMemoryDocs::new();
        store.insert("t.xml", xmldom::parse(&xml).unwrap());
        let mut env = Environment::new(Arc::new(store));
        env.join_index = join_index;
        run(&env, q)
    };
    for v in [
        r#""07""#,
        r#""7""#,
        "7",
        r#"("07" cast as xs:untypedAtomic)"#,
    ] {
        let q = format!(r#"doc("t.xml")//e[k = {v}]/n"#);
        assert_eq!(run_with(true, &q), run_with(false, &q), "{q}");
    }
}

#[test]
fn value_that_needs_the_candidate_is_left_to_the_scan() {
    let (on, off) = (env(true), env(false));
    for q in [
        // the value reads the focus
        r#"doc("p.xml")//person[@id = code]/n"#,
        r#"count(doc("p.xml")//person[@id = string(code)])"#,
        // the value fails without a focus: only the scan may decide
        r#"count(doc("p.xml")//person[@id = name()])"#,
        // no candidates, so the scan never evaluates the failing value
        r#"count(doc("p.xml")//nosuch[@id = (1 idiv 0)])"#,
        // candidates exist: the error is the scan's to raise
        r#"count(doc("p.xml")//person[@id = (1 idiv 0)])"#,
    ] {
        assert_eq!(run(&on, q), run(&off, q), "{q}");
    }
}

#[test]
fn namespaced_elements_are_indexed_under_their_expanded_name() {
    let mut xml = String::from(r#"<s xmlns="urn:a" xmlns:b="urn:b">"#);
    for i in 0..150 {
        xml.push_str(&format!(r#"<p id="k{i}"/><b:p id="k{i}"/>"#));
    }
    xml.push_str("</s>");
    let run_with = |join_index: bool, q: &str| {
        let store = InMemoryDocs::new();
        store.insert("ns.xml", xmldom::parse(&xml).unwrap());
        let mut env = Environment::new(Arc::new(store));
        env.join_index = join_index;
        run(&env, q)
    };
    for q in [
        r#"count(doc("ns.xml")//p[@id = "k7"])"#,
        r#"declare default element namespace "urn:a"; count(doc("ns.xml")//p[@id = "k7"])"#,
        r#"declare namespace x = "urn:b"; count(doc("ns.xml")//x:p[@id = "k7"])"#,
        r#"declare namespace x = "urn:b"; count(doc("ns.xml")//x:p[@x:id = "k7"])"#,
    ] {
        assert_eq!(run_with(true, q), run_with(false, q), "{q}");
    }
    assert_eq!(
        run_with(
            true,
            r#"declare default element namespace "urn:a"; count(doc("ns.xml")//p[@id = "k7"])"#
        )
        .unwrap(),
        ["1"]
    );
}
