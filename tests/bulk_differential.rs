//! Set-at-a-time evaluation of Bulk RPC against each call alone, in a query.
//!
//! A peer answers a request by evaluating the function once over the table
//! of calls, with `doc//elem[key = $v]` as one join against the document's
//! value index; the wrapper runs its generated query, whose per-call
//! selections probe the same index. Either way every call must get what it
//! would get alone, from a plain scan: the oracle evaluates each call as a
//! call written in a query, one by one, on an environment with
//! `join_index = false`.
//!
//! Requests of one call or many are generated from a seed: ids that are
//! missing, repeated in the request or carried by several elements; empty
//! and multi-item parameters; values of types that do not compare as
//! strings; two documents in one request; a nested `buyer/@person` key; node
//! parameters living in the message arena. An `xs:string` parameter is now
//! and then given an untyped attribute or element, which function conversion
//! casts, or a number, which it refuses (XPTY0004): peer and wrapper must
//! bind a call as the query does. A failure prints the seed; `BULK_SEED=n`
//! reruns one seed.
//!
//! The same for the lifted engine's map operator: a scalar expression over a
//! loop's variables, evaluated a column at a time, must give every iteration
//! what the tree engine gives it alone — or raise what the tree engine
//! raises first. Expressions and columns are generated from `MAP_SEED`.

use rand::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use xrpc_repro::xdm::{AtomicValue, Item, Sequence};
use xrpc_repro::xmldom::{self, NodeHandle};
use xrpc_repro::xqeval::{evaluate_main_with_vars, Environment, InMemoryDocs, ModuleRegistry};
use xrpc_repro::xrpc_peer::{EngineKind, Peer, XrpcWrapper};
use xrpc_repro::xrpc_proto::{parse_message, XrpcMessage, XrpcRequest};

/// The seeds a test runs: `BULK_SEED` alone, or `0..n`.
fn seeds(n: u64) -> Vec<u64> {
    match std::env::var("BULK_SEED").ok().and_then(|s| s.parse().ok()) {
        Some(seed) => vec![seed],
        None => (0..n).collect(),
    }
}

const MODULE: &str = r#"
module namespace m = "bulk";
declare function m:person($doc as xs:string, $pid as xs:string) as node()*
{ doc($doc)//person[@id = $pid] };
declare function m:one($doc as xs:string, $pid as xs:string) as node()?
{ zero-or-one(doc($doc)//person[@id = $pid]) };
declare function m:any($doc as xs:string, $pids as xs:string*) as node()*
{ doc($doc)//person[@id = $pids] };
declare function m:loose($doc, $pid)
{ doc($doc)//person[@id = $pid] };
declare function m:named($doc as xs:string, $name as xs:string) as node()*
{ doc($doc)/site/people/person[name = $name] };
declare function m:bought($pid as xs:string) as node()*
{ doc("auctions.xml")//closed_auction[./buyer/@person = $pid] };
declare function m:within($ctx as node(), $k as xs:string) as node()*
{ $ctx//item[@k = $k] };
declare function m:count($doc as xs:string, $pid as xs:string) as xs:integer
{ count(doc($doc)//person[@id = $pid]) + string-length($pid) };
"#;

/// Persons whose ids repeat (`p{i mod 2n/3}`), plus three whose ids are
/// equal as numbers and different as strings.
fn persons_xml(tag: &str, n: usize) -> String {
    let mut xml = String::from("<site><people>");
    for i in 0..n {
        let id = match i {
            0 => "7".to_string(),
            1 => "07".to_string(),
            2 => "8".to_string(),
            _ => format!("p{}", i % (n * 2 / 3)),
        };
        xml.push_str(&format!(
            r#"<person id="{id}"><name>n{}</name><from>{tag}</from></person>"#,
            i % 40
        ));
    }
    xml.push_str("</people></site>");
    xml
}

/// Auctions with one or two buyers each.
fn auctions_xml(n: usize) -> String {
    let mut xml = String::from("<site><closed_auctions>");
    for i in 0..n {
        xml.push_str(&format!(r#"<closed_auction><buyer person="p{}"/>"#, i % 30));
        if i % 5 == 0 {
            xml.push_str(&format!(r#"<buyer person="p{}"/>"#, (i / 5) % 30));
        }
        xml.push_str(&format!("<price>{i}</price></closed_auction>"));
    }
    xml.push_str("</closed_auctions></site>");
    xml
}

const DOCS: [&str; 2] = ["p1.xml", "p2.xml"];

fn documents() -> Vec<(&'static str, String)> {
    vec![
        (DOCS[0], persons_xml("one", 120)),
        (DOCS[1], persons_xml("two", 90)),
        ("auctions.xml", auctions_xml(150)),
    ]
}

/// A `<ctx>` element with enough `<item k="…">` descendants for the message
/// that carries it to be worth indexing.
fn context_node(rng: &mut StdRng) -> Item {
    let mut xml = String::from("<ctx>");
    for j in 0..rng.gen_range(130..160usize) {
        xml.push_str(&format!(r#"<g><item k="k{}">{j}</item></g>"#, j % 25));
    }
    xml.push_str("</ctx>");
    let doc = Arc::new(xmldom::parse(&xml).unwrap());
    let ctx = doc.first_child(doc.root()).unwrap();
    Item::Node(NodeHandle::new(doc, ctx))
}

fn string(s: impl Into<String>) -> Sequence {
    Sequence::one(Item::string(s))
}

fn person_id(rng: &mut StdRng) -> String {
    match rng.gen_range(0..10u8) {
        0 => "nobody".to_string(),
        1 => "7".to_string(),
        2 => "07".to_string(),
        // a small range: ids repeat within a request
        3..=6 => format!("p{}", rng.gen_range(0..6usize)),
        _ => format!("p{}", rng.gen_range(0..90usize)),
    }
}

/// `s` as the value of an `xs:string` parameter: mostly the string, now and
/// then an untyped attribute or element whose text it is.
fn string_param(rng: &mut StdRng, s: String) -> Sequence {
    let attribute = match rng.gen_range(0..10u8) {
        0 => true,
        1 => false,
        _ => return string(s),
    };
    let doc = Arc::new(xmldom::parse(&format!(r#"<v s="{s}">{s}</v>"#)).unwrap());
    let v = doc.first_child(doc.root()).unwrap();
    let node = if attribute {
        doc.attributes(v).next().unwrap()
    } else {
        v
    };
    Sequence::one(Item::Node(NodeHandle::new(doc, node)))
}

/// A value for the untyped `$pid` of `m:loose`: any type, any length.
fn loose_value(rng: &mut StdRng) -> Sequence {
    let one = |rng: &mut StdRng| match rng.gen_range(0..8u8) {
        0 => Item::integer(rng.gen_range(6..9i64)),
        1 => Item::double(7.0),
        2 => Item::Atomic(AtomicValue::UntypedAtomic("07".into())),
        3 => Item::Atomic(AtomicValue::AnyUri(person_id(rng))),
        4 => Item::boolean(true),
        _ => Item::string(person_id(rng)),
    };
    (0..rng.gen_range(0..4usize)).map(|_| one(rng)).collect()
}

struct Request {
    method: &'static str,
    calls: Vec<Vec<Sequence>>,
}

fn generate(rng: &mut StdRng) -> Request {
    let ncalls = rng.gen_range(1..=30usize);
    let methods = [
        "person", "one", "any", "loose", "named", "bought", "within", "count",
    ];
    let method = methods[rng.gen_range(0..methods.len())];
    // mostly one document per request, sometimes both
    let both = rng.gen_bool(0.4);
    let first = rng.gen_range(0..2usize);
    let ctx = context_node(rng);
    let calls = (0..ncalls)
        .map(|_| {
            let doc = if both {
                DOCS[rng.gen_range(0..2usize)]
            } else {
                DOCS[first]
            };
            let doc = string_param(rng, doc.to_string());
            match method {
                "person" | "count" => {
                    // now and then a value the declared type does not admit
                    let pid = match rng.gen_range(0..100u8) {
                        0 | 1 => Sequence::from_items(vec![Item::string("p1"), Item::string("p2")]),
                        2 => Sequence::one(Item::integer(7)),
                        3 => Sequence::one(Item::double(7.0)),
                        _ => {
                            let pid = person_id(rng);
                            string_param(rng, pid)
                        }
                    };
                    vec![doc, pid]
                }
                // duplicate ids make zero-or-one fail: keep them rare
                "one" => {
                    let pid = if rng.gen_bool(0.03) {
                        person_id(rng)
                    } else {
                        format!("p{}", rng.gen_range(40..80usize))
                    };
                    vec![doc, string_param(rng, pid)]
                }
                "any" => {
                    let n = rng.gen_range(0..4usize);
                    vec![doc, (0..n).map(|_| Item::string(person_id(rng))).collect()]
                }
                "loose" => vec![doc, loose_value(rng)],
                "named" => {
                    let name = format!("n{}", rng.gen_range(0..45usize));
                    vec![doc, string_param(rng, name)]
                }
                "bought" => {
                    let pid = format!("p{}", rng.gen_range(0..35usize));
                    vec![string_param(rng, pid)]
                }
                "within" => {
                    // the same node in several calls, or a fresh one
                    let node = if rng.gen_bool(0.7) {
                        ctx.clone()
                    } else {
                        context_node(rng)
                    };
                    let k = format!("k{}", rng.gen_range(0..30usize));
                    vec![Sequence::one(node), string_param(rng, k)]
                }
                _ => unreachable!(),
            }
        })
        .collect();
    Request { method, calls }
}

/// One line per item: type and lexical form, or the node's serialization.
fn show(seq: &Sequence) -> Vec<String> {
    seq.iter()
        .map(|i| match i {
            Item::Atomic(a) => format!("{}:{}", a.atomic_type().xs_name(), a.lexical()),
            Item::Node(n) => n.to_xml(),
        })
        .collect()
}

/// The calls evaluated one at a time by the tree engine without the index.
fn oracle(req: &Request) -> Vec<Result<Vec<String>, String>> {
    let store = InMemoryDocs::new();
    for (uri, xml) in documents() {
        store.insert(uri, xmldom::parse(&xml).unwrap());
    }
    let modules = Arc::new(ModuleRegistry::new());
    modules.register_source(MODULE).unwrap();
    let mut env = Environment::new(Arc::new(store)).with_modules(modules);
    env.join_index = false;
    req.calls
        .iter()
        .map(|args| {
            let names: Vec<String> = (1..=args.len()).map(|k| format!("a{k}")).collect();
            let mut query = String::from("import module namespace m = \"bulk\";\n");
            for n in &names {
                query.push_str(&format!("declare variable ${n} external;\n"));
            }
            let actuals: Vec<String> = names.iter().map(|n| format!("${n}")).collect();
            query.push_str(&format!("m:{}({})", req.method, actuals.join(", ")));
            let bound = names.into_iter().zip(args.iter().cloned()).collect();
            match evaluate_main_with_vars(&query, &env, bound) {
                Ok((seq, _)) => Ok(show(&seq)),
                Err(e) => Err(e.code),
            }
        })
        .collect()
}

/// What a server answered: a result per call, or the fault's code.
fn answer(response: &[u8]) -> Result<Vec<Vec<String>>, String> {
    match parse_message(std::str::from_utf8(response).unwrap()).unwrap() {
        XrpcMessage::Response(r) => Ok(r.results.iter().map(show).collect()),
        XrpcMessage::Fault(f) => Err(f.to_error().code),
        XrpcMessage::Request(_) => panic!("a request came back"),
    }
}

fn check(
    what: &str,
    seed: u64,
    req: &Request,
    got: Result<Vec<Vec<String>>, String>,
    want: &[Result<Vec<String>, String>],
) {
    let at = format!(
        "BULK_SEED={seed}: {what}, m:{} x{}",
        req.method,
        req.calls.len()
    );
    let failing: BTreeSet<&String> = want.iter().filter_map(|w| w.as_ref().err()).collect();
    match got {
        Ok(results) => {
            assert!(
                failing.is_empty(),
                "{at}: answered, but alone a call fails with {failing:?}"
            );
            assert_eq!(results.len(), want.len(), "{at}: result count");
            for (k, (g, w)) in results.iter().zip(want).enumerate() {
                assert_eq!(g, w.as_ref().unwrap(), "{at}: call {}", k + 1);
            }
        }
        Err(code) => assert!(
            failing.contains(&code),
            "{at}: fault {code}, but alone the calls fail with {failing:?}"
        ),
    }
}

#[test]
fn bulk_requests_equal_the_per_call_loop() {
    for seed in seeds(24) {
        let mut rng = StdRng::seed_from_u64(seed);
        let peer = Peer::new("xrpc://b", EngineKind::Tree);
        peer.register_module(MODULE).unwrap();
        let wrapper = XrpcWrapper::new();
        wrapper.modules.register_source(MODULE).unwrap();
        for (uri, xml) in documents() {
            peer.add_document(uri, &xml).unwrap();
            wrapper.docs.insert(uri, xmldom::parse(&xml).unwrap());
        }
        // (this draw once chose a sliced evaluation; it stays so that every
        // seed still generates the requests it always did)
        let _ = rng.gen_bool(0.6);
        for _ in 0..10 {
            let req = generate(&mut rng);
            let want = oracle(&req);
            let arity = req.calls[0].len();
            let mut message = XrpcRequest::new("bulk", req.method, arity);
            for c in &req.calls {
                message.push_call(c.clone());
            }
            let bytes = message.to_xml().unwrap().into_bytes();
            check("peer", seed, &req, answer(&peer.handle_soap(&bytes)), &want);
            check(
                "wrapper",
                seed,
                &req,
                answer(&wrapper.handle(&bytes)),
                &want,
            );
        }
        // the peer did go through the index
        let probes = peer
            .stats
            .join_index_probes
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(probes > 0, "BULK_SEED={seed}: no request probed an index");
    }
}

// ---------------------------------------------------------------------
// The map operator against the tree engine, iteration by iteration
// ---------------------------------------------------------------------

const ROWS: u32 = 10;

/// A column of [`ROWS`] rows for a lifted variable, in one of the shapes a
/// map may meet: scalars of one type or of several, empty rows, a node, a
/// row of two items (which no scalar operator takes), an untyped value that
/// is no number, and the two rows that raise in arithmetic — a zero to divide
/// by in row 7, the largest integer to add to in row 3.
fn column(rng: &mut StdRng, doc: &Arc<xmldom::Document>) -> Vec<(u32, Sequence)> {
    let r = doc.first_child(doc.root()).unwrap();
    let scalar = |rng: &mut StdRng, kind: u32| -> Item {
        match kind {
            0 => Item::integer(rng.gen_range(-9..=9i64)),
            1 => Item::double(rng.gen_range(-40..=40i64) as f64 / 8.0),
            2 => Item::Atomic(AtomicValue::Decimal(xrpc_repro::xdm::Decimal::new(
                rng.gen_range(-999..=999i64) as i128,
                2,
            ))),
            3 => Item::string(["", "a", "person7", "Per Son", "12"][rng.gen_range(0..5usize)]),
            4 => Item::Atomic(AtomicValue::UntypedAtomic(
                ["3", "-2.5", "17"][rng.gen_range(0..3usize)].into(),
            )),
            _ => Item::boolean(rng.gen_bool(0.5)),
        }
    };
    let shape = rng.gen_range(0..9u32);
    let kind = rng.gen_range(0..6u32);
    (1..=ROWS)
        .map(|i| {
            let kind = if shape == 1 {
                rng.gen_range(0..6u32)
            } else {
                kind
            };
            let row = match (shape, i) {
                (2, _) if rng.gen_bool(0.3) => Sequence::empty(),
                (3, 5) => Sequence::one(Item::Node(NodeHandle::new(
                    doc.clone(),
                    doc.children(r).nth(rng.gen_range(0..3usize)).unwrap(),
                ))),
                (4, 6) => Sequence::from_items(vec![scalar(rng, kind), scalar(rng, kind)]),
                (5, 4) => Sequence::one(Item::Atomic(AtomicValue::UntypedAtomic("abc".into()))),
                (6, 7) => Sequence::one(Item::integer(0)),
                (7, 3) => Sequence::one(Item::integer(i64::MAX)),
                _ => Sequence::one(scalar(rng, kind)),
            };
            (i, row)
        })
        .collect()
}

/// A scalar expression over `$a`, `$b` (columns) and `$c` (bound outside the
/// loop), `depth` operators deep.
fn scalar_expression(rng: &mut StdRng, depth: u32) -> String {
    if depth == 0 {
        return match rng.gen_range(0..8u32) {
            0..=2 => "$a".into(),
            3 | 4 => "$b".into(),
            5 => "$c".into(),
            6 => rng.gen_range(-3..=12i64).to_string(),
            _ => ["\"per\"", "\"\"", "\"7\"", "2.5", "1e1"][rng.gen_range(0..5usize)].into(),
        };
    }
    let sub = |rng: &mut StdRng| {
        let below = rng.gen_range(0..depth);
        scalar_expression(rng, below)
    };
    let (x, y, z) = (sub(rng), sub(rng), sub(rng));
    let pick = |rng: &mut StdRng, ops: &[&str]| ops[rng.gen_range(0..ops.len())].to_string();
    match rng.gen_range(0..10u32) {
        0 | 1 => {
            let op = pick(rng, &["+", "-", "*", "div", "idiv", "mod"]);
            format!("({x} {op} {y})")
        }
        2 => format!("(-{x})"),
        3 => format!(
            "({x} {} {y})",
            pick(rng, &["eq", "ne", "lt", "le", "gt", "ge"])
        ),
        4 => format!(
            "({x} {} {y})",
            pick(rng, &["=", "!=", "<", "<=", ">", ">="])
        ),
        5 => format!("({x} {} {y})", pick(rng, &["and", "or"])),
        6 => {
            let ty = pick(
                rng,
                &[
                    "xs:integer",
                    "xs:double",
                    "xs:decimal",
                    "xs:string",
                    "xs:boolean",
                ],
            );
            format!("({x} cast as {ty}{})", pick(rng, &["", "?"]))
        }
        7 => {
            let f = pick(
                rng,
                &[
                    "string",
                    "data",
                    "number",
                    "string-length",
                    "upper-case",
                    "lower-case",
                    "abs",
                    "floor",
                    "ceiling",
                    "round",
                    "not",
                ],
            );
            format!("{f}({x})")
        }
        8 => {
            let f = pick(
                rng,
                &[
                    "concat",
                    "contains",
                    "starts-with",
                    "ends-with",
                    "substring",
                ],
            );
            format!("{f}({x}, {y})")
        }
        _ => match rng.gen_bool(0.5) {
            true => format!("concat({x}, {y}, {z})"),
            false => format!("substring({x}, {y}, {z})"),
        },
    }
}

#[test]
fn a_map_over_columns_equals_the_tree_engine_iteration_by_iteration() {
    use xrpc_repro::relalg::engine::Lifted;
    use xrpc_repro::relalg::{RelEngine, SeqTable};
    use xrpc_repro::xqeval::context::StaticContext;
    use xrpc_repro::xqeval::eval::{Ctx, EvalState};
    let seeds: Vec<u64> = match std::env::var("MAP_SEED").ok().and_then(|s| s.parse().ok()) {
        Some(seed) => vec![seed],
        None => (0..400).collect(),
    };
    let doc = Arc::new(xmldom::parse("<r><n>4</n><n>x y</n><n>-1.5</n></r>").unwrap());
    let env = Environment::new(Arc::new(InMemoryDocs::new()));
    let (mut mapped, mut raised) = (0, 0);
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = (column(&mut rng, &doc), column(&mut rng, &doc));
        let c = match rng.gen_range(0..4u32) {
            0 => Sequence::empty(),
            1 => Sequence::one(Item::string("son")),
            _ => Sequence::one(Item::integer(rng.gen_range(0..4i64))),
        };
        for k in 0..4 {
            let text = scalar_expression(&mut rng, 3);
            let context = format!("MAP_SEED={seed}, expression {k}: {text}");
            let module = xrpc_repro::xqast::parse_main_module(&text)
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            let engine = RelEngine::new(&env, StaticContext::from_prolog(&module.prolog));
            let name = |n: &str| xrpc_repro::xqast::Name::local(n);
            // the tree engine, one iteration at a time, up to the first error
            let mut alone: Result<Vec<Vec<String>>, String> = Ok(Vec::new());
            for ((i, a), (_, b)) in a.iter().zip(&b) {
                let mut st = EvalState::new();
                st.bind(&name("c"), c.clone());
                st.bind(&name("a"), a.clone());
                st.bind(&name("b"), b.clone());
                match engine.tree.eval(&module.body, &mut st, &Ctx::none()) {
                    Ok(v) => alone.as_mut().unwrap().push(show(&v)),
                    Err(e) => {
                        alone = Err(e.code);
                        break;
                    }
                }
                let _ = i;
            }
            // the lifted engine, all iterations at once
            let lenv = Lifted {
                loop_iters: (1..=ROWS).collect(),
                vars: vec![
                    (name("a").key().clone(), SeqTable::from_sequences(a.clone())),
                    (name("b").key().clone(), SeqTable::from_sequences(b.clone())),
                ],
            };
            let mut st = EvalState::new();
            st.bind(&name("c"), c.clone());
            let lifted = engine
                .eval_lifted(&module.body, &lenv, &mut st)
                .map(|t| {
                    (1..=ROWS)
                        .map(|i| show(&t.sequence_at(i)))
                        .collect::<Vec<_>>()
                })
                .map_err(|e| e.code);
            assert_eq!(lifted, alone, "{context}");
            match alone {
                Ok(_) => mapped += 1,
                Err(_) => raised += 1,
            }
        }
    }
    if std::env::var("MAP_SEED").is_err() {
        assert!(
            mapped > 100 && raised > 100,
            "{mapped} evaluated, {raised} raised"
        );
    }
}
