//! The tree engine's single-pass shortcuts against spellings they cannot
//! match (ISSUE 20).
//!
//! * **Fusion grid** — `BASE//T[p]` is evaluated as one `descendant::` scan
//!   when no predicate can be positional. Every (predicate, node test, base)
//!   combination, on the tree engine with the join index on and off and on
//!   the loop-lifted engine, must select the nodes — same identity, same
//!   order — that `(for $x in BASE/descendant-or-self::node() return
//!   $x/child::T[p])/.` selects, a spelling the scan's shape match does not
//!   recognise.
//! * **Push grid** — content is pushed into the element under construction.
//!   For every content-position shape `<a>{E}</a>` must equal, node for
//!   node, `let $v := E return <a>{$v}</a>` (a binding is never pushed), or
//!   both must fail with the same error code.
//! * The constructor content rules the sink fixes, and `insert … before /
//!   after` with an attribute, as written-out cases.
//!
//! Documents are generated from a seed; a failure prints it and
//! `PATH_SEED=n` reruns that seed alone.

use rand::prelude::*;
use std::sync::Arc;
use xrpc_repro::relalg;
use xrpc_repro::xdm::{Item, Sequence, XdmResult};
use xrpc_repro::xmldom::{self, Document, NodeId, NodeKind};
use xrpc_repro::xqeval::{self, CancelToken, Environment, InMemoryDocs};

/// The seeds a test runs: `PATH_SEED` alone, or `0..n`.
fn seeds(n: u64) -> Vec<u64> {
    match std::env::var("PATH_SEED").ok().and_then(|s| s.parse().ok()) {
        Some(seed) => vec![seed],
        None => (0..n).collect(),
    }
}

/// A document of elements `a b c d p:c`, some carrying `k="v"|"w"`, with
/// text between them. Odd seeds grow past the 256 nodes below which the
/// value index is not consulted, so both sides of that threshold are drawn.
fn generate(seed: u64) -> String {
    fn element(rng: &mut StdRng, depth: usize, budget: &mut usize, out: &mut String) {
        const NAMES: [&str; 6] = ["a", "b", "c", "c", "d", "p:c"];
        let name = NAMES[rng.gen_range(0..NAMES.len())];
        out.push('<');
        out.push_str(name);
        match rng.gen_range(0..4u8) {
            0 => out.push_str(" k=\"v\""),
            1 => out.push_str(" k=\"w\""),
            _ => {}
        }
        out.push('>');
        let kids = if depth >= 5 {
            0
        } else {
            rng.gen_range(0..5usize)
        };
        for _ in 0..kids {
            if *budget == 0 {
                break;
            }
            *budget -= 1;
            if rng.gen_bool(0.25) {
                out.push_str(["t", "v", "some text"][rng.gen_range(0..3usize)]);
            } else {
                element(rng, depth + 1, budget, out);
            }
        }
        out.push_str("</");
        out.push_str(name);
        out.push('>');
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut budget = if seed & 1 == 1 { 400 } else { 40 };
    let mut out = String::from("<r xmlns:p=\"urn:p\" k=\"v\">lead");
    while budget > 0 {
        budget -= 1;
        element(&mut rng, 1, &mut budget, &mut out);
    }
    out.push_str("</r>");
    out
}

fn env_for(xml: &str, join_index: bool) -> Environment {
    let docs = InMemoryDocs::new();
    docs.insert("d", xmldom::parse(xml).unwrap());
    let mut env = Environment::new(Arc::new(docs));
    env.join_index = join_index;
    env
}

// ---------------------------------------------------------------------
// fusion grid
// ---------------------------------------------------------------------

const PROLOG: &str = "declare namespace p = \"urn:p\"; declare variable $n := 2;\n";

const PREDICATES: [&str; 11] = [
    "",
    "[@k]",
    "[@k = \"v\"]",
    "[c]",
    "[c/d][@k]",
    "[1]",
    "[last()]",
    "[position() = 2]",
    "[$n]",
    "[count(c)]",
    "[true()]",
];

const TESTS: [&str; 5] = ["c", "*", "text()", "node()", "p:c"];

/// The document, one element, an element with its own descendant, an
/// attribute, a text node.
const BASES: [&str; 5] = [
    "doc('d')",
    "doc('d')/r",
    "(doc('d')/r/*[1]/*[1], doc('d')/r/*[1], doc('d')/r/*[2])",
    "doc('d')/r/@k",
    "(doc('d')//text())[1]",
];

/// (document identity, slot) of every item: what "the same nodes in the
/// same order" compares.
fn identities(seq: &Sequence) -> Vec<(usize, u32)> {
    seq.iter()
        .map(|i| {
            let n = i.as_node().expect("a path selects nodes");
            (Arc::as_ptr(&n.doc) as usize, n.id.0)
        })
        .collect()
}

#[test]
fn a_descendant_scan_selects_what_the_two_steps_select() {
    for seed in seeds(6) {
        let xml = generate(seed);
        // one store for all three runs, so that identities are comparable
        let indexed = env_for(&xml, true);
        let mut scanned = Environment::new(indexed.docs.clone());
        scanned.join_index = false;
        let mut fused = 0;
        for base in BASES {
            for test in TESTS {
                for pred in PREDICATES {
                    let query = format!("{PROLOG}{base}//{test}{pred}");
                    let oracle = format!(
                        "{PROLOG}(for $x in {base}/descendant-or-self::node() \
                         return $x/child::{test}{pred})/."
                    );
                    let what = format!("PATH_SEED={seed}: {base}//{test}{pred}");
                    let parsed = xrpc_repro::xqast::parse_main_module(&query).unwrap();
                    if let xrpc_repro::xqast::Expr::PathStep(a, b) = &parsed.body {
                        fused += xqeval::eval::descendant_scan(a, b).is_some() as usize;
                    }
                    let expected = identities(
                        &xqeval::evaluate_main(&oracle, &scanned)
                            .unwrap_or_else(|e| panic!("{what}: oracle: {e}"))
                            .0,
                    );
                    let runs: [(&str, XdmResult<_>); 3] = [
                        ("tree", xqeval::evaluate_main(&query, &indexed)),
                        (
                            "tree, join index off",
                            xqeval::evaluate_main(&query, &scanned),
                        ),
                        ("loop-lifted", relalg::execute_rel(&query, &indexed)),
                    ];
                    for (engine, got) in runs {
                        let got = got.unwrap_or_else(|e| panic!("{what}: {engine}: {e}"));
                        assert_eq!(identities(&got.0), expected, "{what}: {engine}");
                    }
                }
            }
        }
        // the grid exercises the scan and what it must leave alone: the five
        // non-positional predicates fuse, the six others do not
        assert_eq!(fused, BASES.len() * TESTS.len() * 5, "PATH_SEED={seed}");
    }
}

#[test]
fn the_scan_is_chosen_statically() {
    let fuses = |q: &str| {
        let m = xrpc_repro::xqast::parse_main_module(q).unwrap();
        match &m.body {
            xrpc_repro::xqast::Expr::PathStep(a, b) => {
                xqeval::eval::descendant_scan(a, b).is_some()
            }
            other => panic!("{q}: {other:?}"),
        }
    };
    for q in [
        "$x//c",
        "$x//*",
        "$x//c[@k = $v and (d or e)]",
        "$x//c[d/e][@k]",
        "$x//c[. is $y]",
        "$x//c[@k eq 'v']",
        "$x/a//c",
    ] {
        assert!(fuses(q), "{q}");
    }
    for q in [
        "$x//c[1]",
        "$x//c[$n]",
        "$x//c[count(d)]",
        "$x//c[last()]",
        "$x//c[@k = position()]",
        "$x//c[d][position() < 3]",
        "$x//c[true()]",
        "$x//c[string(@k)]",
        "$x/c",
        "$x/descendant-or-self::node()/@k",
        "$x/descendant-or-self::node()[1]/c",
    ] {
        assert!(!fuses(q), "{q}");
    }
}

// ---------------------------------------------------------------------
// push grid
// ---------------------------------------------------------------------

/// Kind, name and value of every node below `id`, text nodes one by one —
/// so two adjacent text nodes do not pass for one.
fn dump(doc: &Document, id: NodeId, out: &mut String) {
    let name = || doc.name(id).map(|q| q.lexical()).unwrap_or_default();
    match doc.kind(id) {
        NodeKind::Element | NodeKind::Document => {
            out.push_str(&format!("<{}", name()));
            for a in doc.attributes(id) {
                out.push_str(&format!(
                    " {}={:?}",
                    doc.name(a).unwrap().lexical(),
                    doc.value(a)
                ));
            }
            out.push('>');
            for c in doc.children(id) {
                dump(doc, c, out);
            }
            out.push_str("</>");
        }
        NodeKind::Text => out.push_str(&format!("T{:?}", doc.value(id))),
        NodeKind::Comment => out.push_str(&format!("C{:?}", doc.value(id))),
        NodeKind::ProcessingInstruction => out.push_str(&format!("P{}{:?}", name(), doc.value(id))),
        NodeKind::Attribute => out.push_str(&format!("@{}={:?}", name(), doc.value(id))),
    }
}

/// The one constructed `<a>` as its dump, or the error's code.
fn outcome(query: &str, env: &Environment) -> Result<String, String> {
    match xqeval::evaluate_main(query, env) {
        Ok((seq, _)) => {
            let [Item::Node(n)] = seq.items() else {
                panic!("{query}: not one node");
            };
            let mut out = String::new();
            dump(&n.doc, n.id, &mut out);
            Ok(out)
        }
        Err(e) => Err(e.code),
    }
}

const FUNCTIONS: &str = r#"
declare function local:untyped($x) { <w>{$x}</w>, $x, "tail" };
declare function local:node($x) as node() { <w>{$x}</w> };
declare function local:nodes($x) as node()* { $x, <w/>, $x };
declare function local:element($x) as element() { <w>{$x}</w> };
declare function local:items($x) as item()* { $x, 1, "two", text { "three" } };
declare function local:str($x) as xs:string { string($x) };
declare function local:two-for-one($x) as node() { $x, $x };
declare function local:atom-for-node($x) as node()* { $x, "atomic" };
declare function local:wrong-kind($x) as element() { "atomic" };
declare function local:wrong-param($x as xs:integer) { <w>{$x}</w> };
declare function local:deep($n) { if ($n = 0) then <leaf/> else <l>{local:deep($n - 1)}</l> };
"#;

/// Content-position shapes; `$d` is the seeded document's root element.
const SHAPES: [&str; 47] = [
    // atomics: adjacent within an expression and across FLWOR iterations
    r#"1, 2, "x""#,
    r#"for $i in (1, 2, 3) return $i"#,
    r#"for $i in (1, 2) return ($i, "s")"#,
    r#"1, (), 2"#,
    // text nodes, and text beside atomics
    r#"$d//text()"#,
    r#"text { "x" }, text { "y" }"#,
    r#""a", text { "b" }, "c""#,
    r#"1, $d//c[1], 2"#,
    // the empty string and the empty text node
    r#""""#,
    r#""", "x""#,
    r#"text { "" }"#,
    r#"text { () }"#,
    r#"<b/>, "", <c/>"#,
    // nested constructors
    r#"<b>{1}<c/>{$d/*[1]}</b>"#,
    r#"<b>x{"y"}{"z"}</b>, <b>{"y"}x</b>"#,
    r#"element e { attribute k { "1" }, $d//c[@k] }"#,
    r#"element { name($d/*[1]) } { $d/*[1]/node() }"#,
    r#"comment { "c" }, processing-instruction t { "d" }, <b><!--lit--><?pi lit?></b>"#,
    r#"<q:c xmlns:q="urn:q" k="{1, 2}"/>"#,
    // conditionals
    r#"if ($d//c) then <y/> else "n""#,
    r#"if ($d//nope) then <y/> else ("n", 1)"#,
    r#"typeswitch ($d) case $e as element() return <el>{$e/@*}</el> default return "other""#,
    r#"typeswitch ($d//text()) case xs:string return "s" default $o return <n>{count($o)}</n>"#,
    // FLWORs: plain, ordered, and the two-`for` join
    r#"for $x in $d/* return <n>{name($x)}</n>"#,
    r#"for $x in $d/* order by name($x) descending return (name($x), <n/>)"#,
    r#"for $x in $d/*, $y in $d/* where $x/@k = $y/@k return <pair>{name($x), name($y)}</pair>"#,
    r#"for $x in $d/* let $c := <c>{$x/@k}</c> where $c/@k return ($c, $c is $c)"#,
    // document nodes are spliced
    r#"document { <x/>, "t" }"#,
    r#""a", document { "b" }, "c""#,
    r#"doc("d")"#,
    // attributes: first, after a child, after text, duplicated, from the source
    r#"attribute k { "1" }, <b/>"#,
    r#"<b/>, attribute k { "1" }"#,
    r#""t", attribute k { "1" }"#,
    r#""", attribute k { "1" }"#,
    r#"attribute k { "1" }, attribute k { "2" }"#,
    r#"$d/@k, $d/@k"#,
    r#"$d/@k, "x""#,
    // declared functions: pushed, counted, or evaluated and checked
    r#"local:untyped($d/*[1])"#,
    r#"local:node($d/*[1]), local:nodes($d/*[1])"#,
    r#"local:element($d/*[1]), local:items($d/*[1]), local:str($d/*[1])"#,
    r#"local:two-for-one($d/*[1])"#,
    r#"local:atom-for-node($d/*[1])"#,
    r#"local:wrong-kind($d/*[1])"#,
    r#"local:wrong-param($d/*[1])"#,
    r#"local:nodes(())"#,
    // recursion: within the limit, and past it
    r#"local:deep(60)"#,
    r#"local:deep(200)"#,
];

#[test]
fn pushed_content_equals_bound_content() {
    // deep recursion in a debug build wants more than a test thread's stack
    let run = std::thread::Builder::new().stack_size(64 << 20).spawn(|| {
        for seed in seeds(6) {
            let env = env_for(&generate(seed), true);
            let mut failed = std::collections::BTreeMap::new();
            for shape in SHAPES {
                let head = format!("{FUNCTIONS}let $d := doc('d')/r return ");
                let pushed = outcome(&format!("{head}<a>{{{shape}}}</a>"), &env);
                let bound = outcome(
                    &format!("{head}let $v := ({shape}) return <a>{{$v}}</a>"),
                    &env,
                );
                assert_eq!(pushed, bound, "PATH_SEED={seed}: {shape}");
                if let Err(code) = pushed {
                    failed.insert(shape, code);
                }
            }
            let expected: std::collections::BTreeMap<&str, String> = [
                (r#"<b/>, attribute k { "1" }"#, "XQTY0024"),
                (r#""t", attribute k { "1" }"#, "XQTY0024"),
                (r#"attribute k { "1" }, attribute k { "2" }"#, "XQDY0025"),
                (r#"$d/@k, $d/@k"#, "XQDY0025"),
                (r#"local:two-for-one($d/*[1])"#, "XPTY0004"),
                (r#"local:atom-for-node($d/*[1])"#, "XPTY0004"),
                (r#"local:wrong-kind($d/*[1])"#, "XPTY0004"),
                // the element atomizes to untyped text that is no integer
                (r#"local:wrong-param($d/*[1])"#, "FORG0001"),
                (r#"local:deep(200)"#, "XQDY0054"),
            ]
            .into_iter()
            .map(|(shape, code)| (shape, code.to_string()))
            .collect();
            assert_eq!(
                failed, expected,
                "PATH_SEED={seed}: which shapes fail, and how"
            );
        }
    });
    run.unwrap().join().unwrap();
}

#[test]
fn a_cancelled_query_stops_in_content_position_too() {
    let mut env = env_for(&generate(0), true);
    let token = CancelToken::new(None);
    token.cancel();
    env.cancel = Some(token);
    for shape in [
        "for $x in doc('d')//* return <n/>",
        "local:untyped(1)",
        "doc('d')//c",
    ] {
        let pushed = outcome(&format!("{FUNCTIONS}<a>{{{shape}}}</a>"), &env);
        let bound = outcome(
            &format!("{FUNCTIONS}let $v := ({shape}) return <a>{{$v}}</a>"),
            &env,
        );
        assert_eq!(pushed, Err("XRPC0005".to_string()), "{shape}");
        assert_eq!(pushed, bound, "{shape}");
    }
}

// ---------------------------------------------------------------------
// the content rules, written out (each was wrong before the sink)
// ---------------------------------------------------------------------

#[test]
fn constructor_content_rules_span_enclosed_expressions() {
    let env = env_for("<r/>", true);
    let eval = |q: &str| xqeval::evaluate_main(q, &env).map(|(seq, _)| seq);
    let count = |q: &str| eval(q).unwrap().items()[0].string_value();
    // adjacent text merges into one node, across particles
    assert_eq!(count(r#"count(<a>{"x"}{"y"}</a>/text())"#), "1");
    assert_eq!(count(r#"count(<a>x{"y"}</a>/text())"#), "1");
    assert_eq!(count(r#"string(<a>{1}{2}</a>)"#), "12");
    assert_eq!(count(r#"string(<a>{1, 2}{3}</a>)"#), "1 23");
    // an empty text node is dropped
    assert_eq!(count(r#"count(<a>{""}</a>/node())"#), "0");
    assert_eq!(
        eval(r#"<a>{""}</a>"#).unwrap().items()[0]
            .as_node()
            .unwrap()
            .to_xml(),
        "<a/>"
    );
    // an attribute may not follow content, whichever particle brought it
    let code = |q: &str| eval(q).unwrap_err().code;
    assert_eq!(
        code(r#"let $attr := attribute k {"1"} return <a><b/>{$attr}</a>"#),
        "XQTY0024"
    );
    assert_eq!(code(r#"<a>x{attribute k {"1"}}</a>"#), "XQTY0024");
    // … nor repeat a name
    assert_eq!(code(r#"<a x="1">{attribute x {"2"}}</a>"#), "XQDY0025");
    assert_eq!(
        code(r#"<a>{attribute x {"1"}, attribute x {"2"}}</a>"#),
        "XQDY0025"
    );
    // and a document node has none
    assert_eq!(code(r#"document { attribute x {"1"} }"#), "XPTY0004");
}

// ---------------------------------------------------------------------
// insert … before / after with an attribute (XQUF §2.4.1)
// ---------------------------------------------------------------------

fn updated(xml: &str, update: &str) -> Result<String, String> {
    let env = env_for(xml, true);
    let (_, pul) = xqeval::evaluate_main(update, &env).map_err(|e| e.code)?;
    let edits = xqeval::apply_updates(&pul).map_err(|e| e.code)?;
    Ok(xmldom::serialize_document(
        &edits[0].new,
        &Default::default(),
    ))
}

#[test]
fn an_attribute_inserted_beside_a_node_lands_on_its_parent() {
    const DOC: &str = "<a><b/><c/></a>";
    assert_eq!(
        updated(DOC, r#"insert node attribute x {"1"} before doc("d")/a/b"#).unwrap(),
        r#"<a x="1"><b/><c/></a>"#
    );
    assert_eq!(
        updated(
            DOC,
            r#"insert nodes (<n1/>, attribute x {"1"}, <n2/>) after doc("d")/a/b"#
        )
        .unwrap(),
        r#"<a x="1"><b/><n1/><n2/><c/></a>"#
    );
    // beside the document element there is no element to carry it
    assert_eq!(
        updated(DOC, r#"insert node attribute x {"1"} before doc("d")/a"#),
        Err("XUDY0030".to_string())
    );
    // and beside a parentless node there is no parent at all
    assert_eq!(
        updated(
            DOC,
            r#"let $n := <n><m/></n> return
               (insert node attribute x {"1"} after $n/.., insert node <o/> into doc("d")/a)"#
        ),
        Err("XUDY0029".to_string())
    );
    // `replace node` refuses the same mismatch instead of linking it in
    assert_eq!(
        updated(DOC, r#"replace node doc("d")/a/b with attribute x {"1"}"#),
        Err("XUTY0010".to_string())
    );
}

/// XQUF §3.1.3 (`upd:insertIntoAsFirst`): the content goes ahead of the
/// target's children, in its own order. An attribute in it is no child and
/// must not be counted as one — it used to push what came after it one
/// place back, behind the first of the old children.
#[test]
fn content_inserted_as_first_lands_ahead_of_the_children() {
    const INSERT: &str = r#"insert nodes (attribute k {"1"}, <x/>, <y/>) as first into doc("d")/a"#;
    assert_eq!(
        updated("<a><b/></a>", INSERT).unwrap(),
        r#"<a k="1"><x/><y/><b/></a>"#
    );
    assert_eq!(
        updated(
            "<a><b/><c/></a>",
            r#"insert nodes (<x/>, attribute k {"1"}, attribute j {"2"}, <y/>) as first into doc("d")/a"#
        )
        .unwrap(),
        r#"<a k="1" j="2"><x/><y/><b/><c/></a>"#
    );
    assert_eq!(updated("<a/>", INSERT).unwrap(), r#"<a k="1"><x/><y/></a>"#);
}
