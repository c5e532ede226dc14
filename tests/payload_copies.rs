//! Copies on the payload path, counted rather than timed (ISSUE 17): a node
//! sequence shipped as a parameter and shipped back as a result is built
//! once per stage, so what a query takes from the allocator stays a small
//! multiple of the bytes its messages put on the wire, in few large blocks;
//! a path step keeps document order and drops duplicates whichever of its
//! shortcuts runs; and a large request body reaches the handler intact
//! however the socket delivers it. And the tree engine touches a node once
//! (ISSUE 20): a `//T` scan allocates for what it selects, not for what it
//! walks past; wrapping subtrees in k constructors copies them once, not k
//! times; a function call allocates for its arguments and its result, not
//! for its dispatch. And a call inside a Bulk RPC costs its bytes (ISSUE 22):
//! a decoded call is its strings and one vector, a scalar argument is
//! computed a column at a time, and the rows of the call table move into the
//! request. The counting allocator is this file's own; counters are per
//! thread because tests run on parallel threads.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use xrpc_repro::xrpc_net::http::HttpServer;
use xrpc_repro::xrpc_net::{NetError, Transport};
use xrpc_repro::xrpc_peer::{EngineKind, Peer};
use xrpc_repro::{relalg, xdm, xmark, xmldom, xqeval};

struct Counting;

/// What "large" means below: a block of a MiB or more is a whole column or
/// buffer of the 4 MiB payload, not an incidental allocation.
const LARGE: usize = 1 << 20;

thread_local! {
    /// Bytes this thread asked for (a `realloc` asks for its new size) and
    /// how many of the requests were [`LARGE`].
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static LARGE_BLOCKS: Cell<usize> = const { Cell::new(0) };
    /// How many requests this thread made, of any size.
    static REQUESTS: Cell<usize> = const { Cell::new(0) };
}

fn account(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down
    let _ = BYTES.try_with(|b| b.set(b.get() + size));
    let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
    if size >= LARGE {
        let _ = LARGE_BLOCKS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only const-initialised thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes and large blocks `f` asked the allocator for, on this thread.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    BYTES.set(0);
    LARGE_BLOCKS.set(0);
    let out = f();
    (out, BYTES.get(), LARGE_BLOCKS.get())
}

/// Requests and bytes `f` asked the allocator for, on this thread.
fn count<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    REQUESTS.set(0);
    let (out, bytes, _) = measure(f);
    (out, REQUESTS.get(), bytes)
}

// ---------------------------------------------------------------------
// (b) one materialization per stage
// ---------------------------------------------------------------------

/// The wire without the wire: the callee handles the message on the
/// caller's thread (so the caller's counters see both peers), and the bytes
/// both ways are added up.
struct Direct {
    callee: Arc<Peer>,
    wire_bytes: AtomicUsize,
}

impl Transport for Direct {
    fn roundtrip(&self, _dest: &str, body: &[u8]) -> Result<Vec<u8>, NetError> {
        let response = self.callee.handle_soap(body);
        self.wire_bytes
            .fetch_add(body.len() + response.len(), Ordering::Relaxed);
        Ok(response)
    }
}

/// The benchmark's `payload_4m` operation: every chunk of a 4 MiB document
/// shipped as a parameter, then shipped back as a result.
#[test]
fn a_shipped_node_sequence_is_built_once_per_stage() {
    const MODULE: &str = r#"
        module namespace tp = "throughput";
        declare function tp:consume($x) as xs:integer { count($x) };
        declare function tp:produce() as node()* { doc("payload.xml")/payload/chunk };
    "#;
    let payload = xmark::payload_xml(4 << 20);
    let chunks = payload.matches("<chunk>").count().to_string();
    let a = Peer::new("xrpc://a", EngineKind::Rel);
    let b = Peer::new("xrpc://b", EngineKind::Tree);
    for p in [&a, &b] {
        p.register_module(MODULE).unwrap();
        p.add_document("payload.xml", &payload).unwrap();
    }
    let wire = Arc::new(Direct {
        callee: b,
        wire_bytes: AtomicUsize::new(0),
    });
    a.set_transport(wire.clone());
    let queries = [
        r#"import module namespace tp = "throughput";
           execute at {"xrpc://b"} {tp:consume(doc("payload.xml")/payload/chunk)}"#,
        r#"import module namespace tp = "throughput";
           count(execute at {"xrpc://b"} {tp:produce()})"#,
    ];
    let run = |q: &str| {
        let res = a.execute(q).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res.items()[0].string_value(), chunks);
    };
    // plans, functions, pooled buffers and the allocator's own arenas warm
    for _ in 0..2 {
        queries.iter().for_each(|q| run(q));
    }
    wire.wire_bytes.store(0, Ordering::Relaxed);
    let mut allocated = 0;
    for q in queries {
        let ((), bytes, large) = measure(|| run(q));
        allocated += bytes;
        assert!(
            large <= 12,
            "{large} allocations of a MiB or more in one query:\n{q}"
        );
    }
    let on_the_wire = wire.wire_bytes.load(Ordering::Relaxed);
    assert!(on_the_wire > 2 * (5 << 20), "{on_the_wire} bytes shipped");
    assert!(
        allocated <= 6 * on_the_wire,
        "{allocated} bytes allocated to ship {on_the_wire} ({:.1}x)",
        allocated as f64 / on_the_wire as f64
    );
}

// ---------------------------------------------------------------------
// (c) path steps: document order, no duplicates, on every shortcut
// ---------------------------------------------------------------------

/// Each path evaluated by the tree engine, by the loop-lifted engine and by
/// the tree engine with the join index off, all three checked against the
/// answer written out here: element names, or values where the step selects
/// attributes or text.
#[test]
fn path_steps_keep_document_order_and_drop_duplicates() {
    const DOC: &str = r#"<r id="r"><a id="a1"><b id="b1"><c id="c1"/><c id="c2"/></b><b id="b2"><c id="c3"/></b></a><a id="a2"><b id="b3"><c id="c4"/><x id="x1">t</x></b></a></r>"#;
    let grid: [(&str, &str); 22] = [
        // one context node, forward axes: the step's result as it comes
        ("doc('d')/r/a", "a1 a2"),
        ("doc('d')/r//c", "c1 c2 c3 c4"),
        ("doc('d')/r/descendant::b", "b1 b2 b3"),
        ("doc('d')/r/a[2]/b/c/following-sibling::*", "x1"),
        ("doc('d')/r/a[1]/b[1]/following::c", "c3 c4"),
        ("doc('d')/r/a/@id", "a1 a2"),
        // one context node, reverse axes, bare and with predicates
        ("doc('d')//x/ancestor::*", "r a2 b3"),
        ("doc('d')//x/ancestor-or-self::*", "r a2 b3 x1"),
        ("doc('d')//x/ancestor::*[1]", "b3"),
        ("doc('d')//x/ancestor::*[last()]", "r"),
        ("doc('d')//x/ancestor::*[b or c]", "a2 b3"),
        ("doc('d')//x/preceding-sibling::*", "c4"),
        ("doc('d')//x/preceding::c", "c1 c2 c3 c4"),
        ("doc('d')//x/preceding::c[2]", "c3"),
        ("doc('d')//x/parent::b", "b3"),
        // positional predicates on forward axes
        ("doc('d')/r/a[1]/b/c[1]", "c1 c3"),
        ("doc('d')//c[last()]", "c2 c3 c4"),
        ("doc('d')/r/descendant::c[3]", "c3"),
        // several context nodes whose results overlap
        ("doc('d')//c/ancestor::*", "r a1 b1 b2 a2 b3"),
        ("doc('d')//c/parent::*", "b1 b2 b3"),
        ("doc('d')//b/following::c", "c3 c4"),
        // `.//x` over one node and over many (nested contexts overlap)
        ("(doc('d')/r, doc('d')//a, doc('d')//b)//c", "c1 c2 c3 c4"),
    ];
    let docs = || {
        let store = xqeval::InMemoryDocs::new();
        store.insert("d", xmldom::parse(DOC).unwrap());
        Arc::new(store)
    };
    let indexed = xqeval::Environment::new(docs());
    let mut scanned = xqeval::Environment::new(docs());
    scanned.join_index = false;
    let show = |seq: xdm::Sequence| -> String {
        let id = |i: &xdm::Item| match i.as_node() {
            Some(n) if n.kind() == xmldom::NodeKind::Element => {
                n.doc.attr_local(n.id, "id").unwrap().into()
            }
            _ => i.string_value(),
        };
        seq.iter().map(id).collect::<Vec<_>>().join(" ")
    };
    for (path, expected) in grid {
        let tree = show(xqeval::evaluate_main(path, &indexed).unwrap().0);
        let rel = show(relalg::execute_rel(path, &indexed).unwrap().0);
        let oracle = show(xqeval::evaluate_main(path, &scanned).unwrap().0);
        assert_eq!(tree, expected, "tree engine: {path}");
        assert_eq!(rel, expected, "loop-lifted engine: {path}");
        assert_eq!(oracle, expected, "join index off: {path}");
    }
}

// ---------------------------------------------------------------------
// (c') the tree engine touches a node once — counts, not clocks
// ---------------------------------------------------------------------

fn env_with(uri: &str, xml: &str) -> xqeval::Environment {
    let store = xqeval::InMemoryDocs::new();
    store.insert(uri, xmldom::parse(xml).unwrap());
    xqeval::Environment::new(Arc::new(store))
}

/// `count(doc//t)` over 50 matches among 2 000 and among 4 000 other nodes:
/// the scan hands out a handle per match and nothing per node it passes.
#[test]
fn a_descendant_scan_allocates_for_its_matches_only() {
    let doc = |others: usize| {
        let mut xml = String::from("<r>");
        for i in 0..50 {
            xml.push_str("<g><t/>");
            for _ in 0..others / 50 {
                xml.push_str("<x k=\"1\"><y/>text</x>");
            }
            xml.push_str(&format!("<z>{i}</z></g>"));
        }
        xml + "</r>"
    };
    let requests = |others: usize| {
        let env = env_with("d", &doc(others));
        let q = "count(doc('d')//t)";
        assert_eq!(
            xqeval::evaluate_main(q, &env).unwrap().0.items()[0].string_value(),
            "50"
        );
        let (out, requests, _) = count(|| xqeval::evaluate_main(q, &env).unwrap().0);
        drop(out);
        requests
    };
    let (few, many) = (requests(2_000), requests(4_000));
    assert!(
        many <= few,
        "doubling the nodes a scan walks past took it from {few} to {many} allocations"
    );
}

/// 200 subtrees wrapped one constructor deep and four deep, each level an
/// enclosed expression of the one above (the shape of the wrapper's
/// `xrpc:element` / `xrpc:sequence` / `xrpc:response` / `env:Body` nest):
/// the subtrees are copied into the outermost element's document once, so
/// depth costs four small elements, not three more copies.
#[test]
fn nested_constructors_copy_their_content_once() {
    let mut xml = String::from("<r>");
    for i in 0..200 {
        xml.push_str(&format!(
            "<item id=\"i{i}\"><name>item number {i}</name><note>some words of padding, {i}</note></item>"
        ));
    }
    let env = env_with("d", &(xml + "</r>"));
    let bytes = |q: &str| {
        let (out, _, bytes) = count(|| xqeval::evaluate_main(q, &env).unwrap().0);
        let n = out.items()[0].as_node().unwrap();
        let notes = n
            .doc
            .descendants(n.id)
            .filter(|&d| n.doc.value(d).starts_with("some words"));
        assert_eq!(notes.count(), 200, "{q}");
        bytes
    };
    let shallow = bytes("<w1>{doc('d')/r/item}</w1>");
    let deep = bytes("<w1>{<w2>{<w3>{<w4>{doc('d')/r/item}</w4>}</w3>}</w2>}</w1>");
    assert!(
        deep < shallow + shallow / 10,
        "one level deep {shallow} bytes, four levels deep {deep}"
    );
}

/// What one call of a module function costs the allocator beyond its body,
/// taken as the slope between a 1 000- and a 2 000-iteration loop. The body
/// adds two integers. One request a call today — the vector of arguments;
/// 20 before the callee's static context (three hash maps) stopped being
/// copied and its lookup keys stopped being built.
#[test]
fn a_module_function_call_allocates_a_small_constant() {
    const PER_CALL: usize = 2;
    let env = env_with("d", "<r/>");
    env.modules
        .register_source(
            "module namespace m = \"m\";
             declare function m:inc($x as xs:integer) as xs:integer { $x + 1 };",
        )
        .unwrap();
    let requests = |n: usize| {
        let q = format!("import module namespace m = \"m\"; for $i in (1 to {n}) return m:inc($i)");
        let (out, requests, _) = count(|| xqeval::evaluate_main(&q, &env).unwrap().0);
        assert_eq!(out.len(), n);
        requests
    };
    let per_call = (requests(2_000) - requests(1_000)) as f64 / 1_000.0;
    assert!(
        per_call <= PER_CALL as f64 + 0.1,
        "{per_call} allocations a call, want at most {PER_CALL}"
    );
}

// ---------------------------------------------------------------------
// (c'') a call inside a Bulk RPC costs its bytes — counts, not clocks
// ---------------------------------------------------------------------

const CALLS: usize = 1000;

/// A thousand `getPerson("persons.xml", "personN")` in one request: each
/// decodes to its two strings and the vector that holds the two parameters
/// — no element list, no pending values, no vector behind a singleton (nine
/// blocks a call when the message was a DOM first).
#[test]
fn a_decoded_call_is_its_values_and_one_vector() {
    use xrpc_repro::xrpc_proto::{parse_message, XrpcMessage, XrpcRequest};
    let mut req = XrpcRequest::new("functions", "getPerson", 2);
    for i in 0..CALLS {
        req.push_call(vec![
            xdm::Sequence::one(xdm::Item::string("persons.xml")),
            xdm::Sequence::one(xdm::Item::string(format!("person{i}"))),
        ]);
    }
    let xml = req.to_xml().unwrap();
    let (decoded, requests, _) = count(|| parse_message(&xml).unwrap());
    let XrpcMessage::Request(decoded) = decoded else {
        panic!("a request");
    };
    assert_eq!(decoded.calls.len(), CALLS);
    assert_eq!(decoded.calls[7][1].items()[0].string_value(), "person7");
    assert!(
        requests <= 4 * CALLS + 64,
        "{requests} allocations to decode {CALLS} calls"
    );
}

const PERSONS_MODULE: &str = r#"
    module namespace func = "functions";
    declare function func:getPerson($doc as xs:string, $pid as xs:string) as node()?
    { zero-or-one(doc($doc)//person[@id = $pid]) };
"#;

/// The argument of the benchmark's bulk call, for a thousand iterations on
/// the loop-lifted engine: a map over the loop's column. A row costs the
/// string `fn:string` makes and the one `fn:concat` makes; the tree engine,
/// walking the expression once per iteration, took eight.
#[test]
fn a_scalar_expression_over_a_loop_is_a_map_over_its_column() {
    let env = env_with("d", "<r/>");
    let q =
        format!(r#"for $i in (1 to {CALLS}) return concat("person", string(($i + 7) mod 2000))"#);
    let run = || relalg::execute_rel(&q, &env).unwrap().0;
    assert_eq!(run().items()[CALLS - 1].string_value(), "person1007");
    let (out, requests, _) = count(run);
    assert_eq!(out.len(), CALLS);
    assert!(
        requests <= 3 * CALLS + 128,
        "{requests} allocations for {CALLS} rows"
    );
}

/// The caller's side of the benchmark's `bulk_getperson` operation —
/// argument evaluation, the call table, encoding the request and mapping the
/// results back — against a canned response, the response's decode counted
/// apart and taken off. Per call: the literal document name, the two strings
/// of the computed id, the parameter vector, and what is left of de-duplication's
/// key; seventeen when every argument was copied out of its table twice.
#[test]
fn the_rows_of_a_call_table_move_into_the_request() {
    use xrpc_repro::xrpc_proto::{parse_message, XrpcMessage};
    let a = Peer::new("xrpc://a", EngineKind::Rel);
    let b = Peer::new("xrpc://b", EngineKind::Tree);
    for p in [&a, &b] {
        p.register_module(PERSONS_MODULE).unwrap();
    }
    let params = xmark::XmarkParams {
        persons: 2000,
        closed_auctions: 10,
        matches: 1,
        padding_words: 4,
        seed: 1,
    };
    b.add_document("persons.xml", &xmark::persons_xml(&params))
        .unwrap();
    let q = format!(
        r#"import module namespace func = "functions";
           for $i in (1 to {CALLS})
           return execute at {{"xrpc://b"}}
                  {{func:getPerson("persons.xml", concat("person", string(($i + 7) mod 2000)))}}"#
    );
    struct Canned(Vec<u8>);
    impl Transport for Canned {
        fn roundtrip(&self, _dest: &str, _body: &[u8]) -> Result<Vec<u8>, NetError> {
            Ok(self.0.clone())
        }
    }
    struct Recording {
        callee: Arc<Peer>,
        response: std::sync::Mutex<Vec<u8>>,
    }
    impl Transport for Recording {
        fn roundtrip(&self, _dest: &str, body: &[u8]) -> Result<Vec<u8>, NetError> {
            let response = self.callee.handle_soap(body);
            *self.response.lock().unwrap() = response.clone();
            Ok(response)
        }
    }
    // once for real, to have the response
    let recording = Arc::new(Recording {
        callee: b,
        response: std::sync::Mutex::new(Vec::new()),
    });
    a.set_transport_raw(recording.clone());
    assert_eq!(a.execute(&q).unwrap().len(), CALLS);
    let response = recording.response.lock().unwrap().clone();
    let text = std::str::from_utf8(&response).unwrap();

    let (decoded, decode, _) = count(|| parse_message(text).unwrap());
    let XrpcMessage::Response(decoded) = decoded else {
        panic!("a response");
    };
    assert_eq!(decoded.results.len(), CALLS);
    // what was decoded is a thousand persons and nothing of the message
    common::assert_holds_values_only(&decoded.results, "the bulk response");

    a.set_transport_raw(Arc::new(Canned(response.clone())));
    assert_eq!(a.execute(&q).unwrap().len(), CALLS); // warm
    let (out, requests, _) = count(|| a.execute(&q).unwrap());
    assert_eq!(out.len(), CALLS);
    let caller = requests.saturating_sub(decode);
    assert!(
        caller <= 7 * CALLS + 256,
        "{caller} allocations at the caller for {CALLS} calls ({requests} with the decode, {decode} the decode)"
    );
}

// ---------------------------------------------------------------------
// (c3) a stored node costs its bytes — counts, not clocks
// ---------------------------------------------------------------------

/// A thousand results out of a document whose root declares two prefixes:
/// each is a fragment root that has to find out what it inherits, and none
/// of them asks the allocator for anything but room in the output — not on
/// the walk, not once the version has its wire image, not through `s2n`.
#[test]
fn a_namespaced_result_allocates_nothing_but_its_output() {
    use xrpc_repro::xrpc_proto::marshal::s2n_text_into;
    let mut xml = String::from(r#"<site xmlns:a="urn:a" xmlns:b="urn:b"><people>"#);
    for i in 0..CALLS {
        xml += &format!(r#"<a:p id="person{i}"><b:n>n{i}</b:n><e/></a:p>"#);
    }
    xml += "</people></site>";
    let doc = Arc::new(xmldom::parse(&xml).unwrap());
    let site = doc.first_child(doc.root()).unwrap();
    let people = doc.first_child(site).unwrap();
    let persons: Vec<xmldom::NodeId> = doc.children(people).collect();
    let results = xdm::Sequence::from_items(
        (persons.iter())
            .map(|&id| xdm::Item::Node(xmldom::NodeHandle::new(doc.clone(), id)))
            .collect(),
    );
    let mut out = String::with_capacity(4 * xml.len());
    let mut shipped = |label: &str, image_blocks: usize| {
        out.clear();
        let ((), requests, _) = count(|| {
            for &id in &persons {
                xmldom::serialize_node_into(&doc, id, &Default::default(), &mut out);
            }
        });
        let nodes = out.clone();
        out.clear();
        let (res, s2n_requests, _) = count(|| s2n_text_into(&mut out, &results));
        res.unwrap();
        assert!(
            requests + s2n_requests <= image_blocks,
            "{label}: {requests} allocations for {CALLS} nodes, {s2n_requests} for {CALLS} items"
        );
        nodes
    };
    // walking earns the version its image on the way: its blocks, once
    let walked = shipped("walked", 4);
    while doc.wire_image_bytes() == 0 {
        xmldom::serialize_document(&doc, &Default::default());
    }
    let sliced = shipped("sliced", 0);
    assert!(walked.starts_with(
        r#"<a:p xmlns:a="urn:a" xmlns:b="urn:b" id="person0"><b:n>n0</b:n><e/></a:p><a:"#
    ));
    assert_eq!(walked, sliced);
}

// ---------------------------------------------------------------------
// (d) a large body, however the socket delivers it
// ---------------------------------------------------------------------

/// Read one HTTP response: (status, body).
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let status = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    let mut content_length = 0;
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        let Some((k, v)) = line.trim_end().split_once(':') else {
            break;
        };
        if k.eq_ignore_ascii_case("content-length") {
            content_length = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

/// A 6 MiB body written at once, in 16 KiB pieces, and as a trickle of
/// single bytes (through the head and the first KiBs of the body, where the
/// reactor changes from collecting a head to filling the body's buffer; all
/// 6 MiB a byte at a time would be six million packets) — alone and
/// pipelined in the same write as a small request ahead of it.
#[test]
fn a_large_body_reaches_the_handler_intact_however_it_arrives() {
    let big: Arc<Vec<u8>> = Arc::new(
        (0..6usize << 20)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect(),
    );
    let expected = big.clone();
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(move |_path: &str, body: &[u8]| {
            let verdict = if body == b"small" {
                "small".to_string()
            } else if body == expected.as_slice() {
                "intact".to_string()
            } else {
                let at = body.iter().zip(expected.iter()).position(|(a, b)| a != b);
                format!("{} bytes, first difference at {at:?}", body.len())
            };
            (200, verdict.into_bytes())
        }),
    )
    .unwrap();
    let request = |body: &[u8]| {
        let mut r = format!(
            "POST /xrpc HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        r.extend_from_slice(body);
        r
    };
    let big_request = request(&big);
    for pipelined in [false, true] {
        for piece in [usize::MAX, 16 * 1024, 1] {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut bytes = if pipelined {
                request(b"small")
            } else {
                Vec::new()
            };
            let ahead = bytes.len();
            bytes.extend_from_slice(&big_request);
            // a small request ahead goes out in one write with what follows
            let mut rest = &bytes[..];
            if piece == 1 {
                let (first, trickle) = rest.split_at(ahead.max(1));
                stream.write_all(first).unwrap();
                let (trickle, tail) = trickle.split_at(4096);
                for byte in trickle.chunks(1) {
                    stream.write_all(byte).unwrap();
                }
                rest = tail;
            }
            for part in rest.chunks(piece.max(16 * 1024)) {
                stream.write_all(part).unwrap();
            }
            if pipelined {
                assert_eq!(read_response(&mut reader), (200, "small".into()));
            }
            assert_eq!(
                read_response(&mut reader),
                (200, "intact".into()),
                "pipelined {pipelined}, written {piece} bytes at a time"
            );
        }
    }
}
