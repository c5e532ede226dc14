//! Memory bounds of the XML decoder on hostile bytes (ROADMAP correctness
//! (e)): what `xmldom::parse` takes from the allocator is bounded by a
//! small multiple of the input it was handed, in a constant number of
//! blocks plus a few per distinct name, whatever the bytes say — and so is
//! what `parse_message` takes, which on mutated messages of every shape
//! answers a message or a typed error and never panics
//! (`FUZZ_SEED=n` reruns one seed of that run). The counting allocator is
//! this file's own; counters are per thread because tests run on parallel
//! threads.

mod common;

use rand::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xrpc_repro::xrpc_proto::message::{HopProfile, OpNode, Phases, ProfileMode, ProfileRequest};
use xrpc_repro::xrpc_proto::{
    parse_message, QueryId, TraceContext, XrpcFault, XrpcRequest, XrpcResponse,
};
use xrpc_repro::{xdm, xmark, xmldom};

struct Counting;

thread_local! {
    /// Bytes this thread holds now, the highest that got since the last
    /// reset, and blocks asked for (`alloc` and `realloc` calls).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
}

fn account(delta: isize, blocks: usize) {
    // `try_with`: the allocator also runs while a thread is torn down
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    let _ = BLOCKS.try_with(|b| b.set(b.get() + blocks));
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only const-initialised thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as isize, 1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as isize), 0);
        unsafe { System.dealloc(ptr, layout) }
    }

    /// A resize is charged its growth: large blocks are remapped, not
    /// copied, so old and new never coexist.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as isize - layout.size() as isize, 1);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak bytes and blocks `f` took beyond what the thread held at entry.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE.get();
    PEAK.set(before);
    BLOCKS.set(0);
    let out = f();
    (out, (PEAK.get() - before) as usize, BLOCKS.get())
}

/// The bound: 8x the input and 64 blocks — plus, for each *distinct* name,
/// the interned `QName` it costs (two blocks, well under 256 bytes).
fn assert_bounded(label: &str, input: &str, expect_nodes: usize, names: usize) {
    let (doc, peak, blocks) = measure(|| xmldom::parse(input).expect(label));
    assert_eq!(doc.len(), expect_nodes, "{label}: node count");
    assert!(
        peak <= 8 * input.len() + 256 * names,
        "{label}: {peak} bytes allocated for {} bytes of input ({:.1}x)",
        input.len(),
        peak as f64 / input.len() as f64
    );
    assert!(blocks <= 64 + 2 * names, "{label}: {blocks} blocks");
}

#[test]
fn parse_allocates_a_bounded_multiple_of_its_input_in_a_few_blocks() {
    // `<` that opens nothing: one text node, however many there are
    let cdata = format!("<a><![CDATA[{}]]></a>", "<".repeat(512 * 1024));
    assert_bounded("CDATA of 512 Ki `<`", &cdata, 3, 0);

    // every start tag before any end tag. (`<nested>`, not `<d>`: a node
    // slot and an open-stack entry are 80 bytes, so a 7-byte element cannot
    // fit 8x however it is stored.)
    let depth = 100_000;
    let deep = format!("{}{}", "<nested>".repeat(depth), "</nested>".repeat(depth));
    assert_bounded("100 k-deep nesting", &deep, depth + 1, 0);

    // 64 k attributes are 64 k distinct names
    let attrs: String = (0..65_536)
        .map(|i| format!(" attr{i:05}=\"value-{i:05}\""))
        .collect();
    let one_tag = format!("<e{attrs}/>");
    assert_bounded("64 k attributes", &one_tag, 65_536 + 2, 65_536);

    // adjacent CDATA sections: the densest way to ask for text nodes
    let texts = format!("<a>{}</a>", "<![CDATA[x]]>".repeat(1_000_000));
    assert_bounded("1 M one-byte text nodes", &texts, 1_000_000 + 2, 0);

    let payload = xmark::payload_xml(4 * 1024 * 1024);
    let chunks = payload.matches("<chunk>").count();
    assert_bounded("4 MiB payload", &payload, 2 * chunks + 2, 0);
}

#[test]
fn a_duplicate_among_64k_attributes_is_still_found() {
    let mut attrs: String = (0..65_536).map(|i| format!(" a{i}=\"\"")).collect();
    attrs.push_str(" a4242=\"again\"");
    let err = xmldom::parse(&format!("<e{attrs}/>")).unwrap_err();
    assert!(err.message.contains("duplicate attribute"), "{err}");
}

#[test]
fn node_slots_are_at_most_48_bytes() {
    assert!(std::mem::size_of::<xmldom::NodeData>() <= 48);
}

/// The XDM side of the same economy: a sequence is a vector of these and a
/// loop-lifted table a column of them, so what an item costs is what every
/// row of a shipped node sequence costs at each stage it passes through. A
/// node handle needs 16 bytes and a string 24; nothing wider is inline.
#[test]
fn items_are_at_most_32_bytes() {
    use xrpc_repro::xdm::{AtomicValue, Item, Sequence};
    assert!(std::mem::size_of::<AtomicValue>() <= 32);
    assert!(std::mem::size_of::<Item>() <= 32);
    // the singleton held in place costs the sequence nothing extra
    assert!(std::mem::size_of::<Sequence>() <= 40);
}

/// Text that belongs to a node or a namespace declaration.
fn live_text(doc: &xmldom::Document) -> usize {
    doc.all_ids()
        .map(|id| {
            let decls = doc.ns_decls(id).map(|(p, u)| p.len() + u.len());
            doc.value(id).len() + decls.sum::<usize>()
        })
        .sum()
}

/// `apply_updates` clones the stored version and edits the clone; a counter
/// bumped ten thousand times must not drag its old values along.
#[test]
fn replaced_values_do_not_accumulate_across_versions() {
    let mut doc = xmldom::parse(r#"<log xmlns:l="urn:log"><e n="0">0</e><e>steady</e></log>"#)
        .expect("log document");
    let e = doc.descendants(doc.root()).nth(1).expect("<e>");
    let (attr, text) = (
        doc.attributes(e).next().expect("@n"),
        doc.first_child(e).expect("text"),
    );
    for i in 1..=10_000u32 {
        doc.replace_value(text, &i.to_string());
        doc.replace_value(attr, &(i % 7).to_string());
        doc = doc.clone();
        let (heap, live) = (doc.text_heap_len(), live_text(&doc));
        assert!(
            heap <= 2 * live,
            "version {i}: heap {heap}, live text {live}"
        );
    }
    let xml = xmldom::serialize_document(&doc, &Default::default());
    assert_eq!(
        xml,
        r#"<log xmlns:l="urn:log"><e n="4">10000</e><e>steady</e></log>"#
    );
}

/// `<xrpc:nodeid>` (call-by-fragment) carries three numbers from the network:
/// whatever they say, decoding answers a value or a typed XRPC error.
#[test]
fn a_hostile_nodeid_is_an_error_never_a_panic() {
    // one well-formed call of two parameters; the reference under test is
    // the second item of the second: one parameter decoded before it (n = 1
    // for `param`), one item in each place it may point at (n = 1 for `item`)
    let d = std::sync::Arc::new(xmldom::parse(r#"<a k="v"><b/></a>"#).unwrap());
    let a = xmldom::NodeHandle::new(d.clone(), d.first_child(d.root()).unwrap());
    let mut req = XrpcRequest::new("m", "f", 2);
    req.push_call(vec![
        xdm::Sequence::one(xdm::Item::Node(a)),
        xdm::Sequence::from_items(vec![xdm::Item::integer(1), xdm::Item::string("HERE")]),
    ]);
    let template = req.to_xml().unwrap();
    let here = r#"<xrpc:atomic-value xsi:type="xs:string">HERE</xrpc:atomic-value>"#;
    assert_eq!(template.matches(here).count(), 1);

    let max = usize::MAX.to_string();
    let indices = ["0", "1", "2", "3", max.as_str(), "-1", "x"];
    let paths = ["", "0", "@0", "9999", "@9999", "-1", "a", "0//1"];
    let (mut ok, mut refused) = (0, 0);
    for param in indices {
        for item in indices {
            for path in paths {
                let nodeid =
                    format!(r#"<xrpc:nodeid param="{param}" item="{item}" path="{path}"/>"#);
                match parse_message(&template.replace(here, &nodeid)) {
                    Ok(_) => {
                        assert_eq!((param, item), ("1", "1"), "{nodeid} resolved");
                        assert!(["", "0", "@0"].contains(&path), "{nodeid} resolved");
                        ok += 1;
                    }
                    Err(e) => {
                        assert!(e.code.starts_with("XRPC"), "{nodeid}: {e}");
                        refused += 1;
                    }
                }
            }
        }
    }
    assert_eq!((ok, refused), (3, 7 * 7 * 8 - 3));
}

// ---------------------------------------------------------------------
// The envelope decoder under mutation
// ---------------------------------------------------------------------

fn node(doc: &std::sync::Arc<xmldom::Document>, id: xmldom::NodeId) -> xdm::Item {
    xdm::Item::Node(xmldom::NodeHandle::new(doc.clone(), id))
}

/// Messages of the shapes the five benchmark workloads put on the wire, and
/// between them every construct the decoder knows: the trace, budget,
/// profile-request and profile-hops headers, `queryID`, `updCall`, `seq`,
/// bulk calls, participating peers, a fault, every node kind as a value, a
/// shipped document, call-by-fragment references and CDATA-split text.
fn captured_messages() -> Vec<String> {
    use xdm::{Item, Sequence};
    let mut out = Vec::new();
    // rpc_small: one call of no parameters, traced, with a budget
    let mut echo = XrpcRequest::new("test", "echoVoid", 0).with_location("http://x/test.xq");
    echo.push_call(vec![]);
    echo.trace = Some(TraceContext {
        trace_id: 0xabcdef,
        span_id: 0x11,
        parent_id: Some(0x22),
    });
    echo.budget_millis = Some(2500);
    echo.profile = Some(ProfileRequest {
        mode: ProfileMode::Sampled,
        via: "xrpc://a\"<&>".into(),
        depth: 1,
    });
    out.push(echo.to_xml().unwrap());
    let mut void = XrpcResponse::new("test", "echoVoid");
    void.results.push(Sequence::empty());
    void.profile_hops = vec![HopProfile {
        peer: "xrpc://b".into(),
        via: "xrpc://a".into(),
        depth: 1,
        trace_id: 0xabcdef,
        span_id: 0x33,
        total_micros: 120,
        phases: Phases::default(),
        ops: vec![OpNode {
            name: "xq:flwor".into(),
            calls: 3,
            timed_calls: 1,
            wall_micros: 40,
            items: 9,
            bytes: 0,
            children: vec![OpNode {
                name: "xq:path-step".into(),
                calls: 9,
                timed_calls: 1,
                wall_micros: 7,
                items: 9,
                bytes: 64,
                children: Vec::new(),
            }],
        }],
    }];
    out.push(void.to_xml().unwrap());
    // bulk_getperson: a Bulk RPC of two strings a call; persons come back
    let mut bulk = XrpcRequest::new("functions", "getPerson", 2);
    for i in 0..6 {
        bulk.push_call(vec![
            Sequence::one(Item::string("persons.xml")),
            Sequence::one(Item::string(format!("person{i} <&> ]]>"))),
        ]);
    }
    out.push(bulk.to_xml().unwrap());
    let params = xmark::XmarkParams {
        persons: 4,
        closed_auctions: 3,
        matches: 1,
        padding_words: 3,
        seed: 5,
    };
    let persons = std::sync::Arc::new(xmldom::parse(&xmark::persons_xml(&params)).unwrap());
    let site = persons.first_child(persons.root()).unwrap();
    let people: Vec<Item> = (persons.descendants(site))
        .filter(|&n| persons.name(n).is_some_and(|q| q.local == "person"))
        .map(|n| node(&persons, n))
        .collect();
    let mut found = XrpcResponse::new("functions", "getPerson");
    found
        .results
        .extend(people.iter().cloned().map(Sequence::one));
    found.results.push(Sequence::empty());
    found.participating_peers = vec!["xrpc://b".into(), "xrpc://c\"<".into()];
    out.push(found.to_xml().unwrap());
    // payload_4m and q7_mix: node sequences as a parameter, every kind of
    // node among them, a shipped document, references into a fragment
    let kinds = std::sync::Arc::new(
        xmldom::parse(
            r#"<r xmlns="urn:d" xmlns:p="urn:p" a="v&quot;"><p:e p:k="1"><!--c--><?pi data?>t&lt;x</p:e><empty/></r>"#,
        )
        .unwrap(),
    );
    let r = kinds.first_child(kinds.root()).unwrap();
    let pe = kinds.first_child(r).unwrap();
    let mut every_kind = vec![
        Item::Node(xmldom::NodeHandle::root(kinds.clone())),
        node(&kinds, r),
        node(&kinds, kinds.attributes(r).next().unwrap()),
        node(&kinds, kinds.attributes(pe).next().unwrap()),
        Item::integer(-7),
        Item::double(2.5),
        Item::boolean(true),
    ];
    every_kind.extend(kinds.children(pe).map(|c| node(&kinds, c)));
    let mut shipped = XrpcRequest::new("tp", "consume", 2);
    shipped.call_by_fragment = true;
    shipped.seq = Some(41);
    shipped.push_call(vec![
        Sequence::from_items(every_kind.clone()),
        Sequence::from_items(vec![node(&kinds, pe), node(&kinds, r)]),
    ]);
    out.push(shipped.to_xml().unwrap());
    let mut produced = XrpcResponse::new("tp", "produce");
    produced.results.push(Sequence::from_items(every_kind));
    produced
        .results
        .push(Sequence::one(Item::Node(xmldom::NodeHandle::root(persons))));
    out.push(produced.to_xml().unwrap());
    // update_2pc: a deferred updating call inside a transaction, and a fault
    let mut bump = XrpcRequest::new("u1", "bump", 1).with_query_id(QueryId::new(
        "xrpc://a.example.org",
        1_190_000_000_000,
        30,
    ));
    bump.upd_call = xrpc_repro::xrpc_proto::UpdCall::Commit;
    bump.seq = Some(3);
    bump.push_call(vec![Sequence::one(Item::string("log1.xml"))]);
    out.push(bump.to_xml().unwrap());
    let fault = XrpcFault::from_error(&xdm::XdmError::type_error("bad <things> & more"));
    out.push(fault.to_xml());
    // strings that look like markup, as atoms and as text nodes; fragments
    // that carry the namespaces they inherited
    let awkward = [
        "]]>",
        "a\rb",
        "&<>\"&<>\"",
        "é<ü&日本語>",
        "<![CDATA[no]]>",
        " ",
        "&amp;",
    ];
    let mut texts = xmldom::Document::new();
    let text_nodes: Vec<xmldom::NodeId> = awkward.iter().map(|s| texts.create_text(s)).collect();
    let texts = std::sync::Arc::new(texts);
    let declared = std::sync::Arc::new(
        xmldom::parse(
            r#"<r xmlns="urn:d" xmlns:p="urn:u"><p:a k="1" p:j="2">t</p:a><a><b/><c xmlns=""/></a></r>"#,
        )
        .unwrap(),
    );
    let dr = declared.first_child(declared.root()).unwrap();
    let (pa, da) = (
        declared.first_child(dr).unwrap(),
        declared.last_child(dr).unwrap(),
    );
    let mut strings = XrpcResponse::new("m", "f");
    strings.results.push(Sequence::from_items(
        (awkward.iter().map(|s| Item::string(*s)))
            .chain(text_nodes.iter().map(|&t| node(&texts, t)))
            .collect(),
    ));
    strings.results.push(Sequence::from_items(vec![
        node(&declared, pa),
        node(&declared, da),
        node(&declared, declared.last_child(da).unwrap()),
        node(&declared, declared.attributes(pa).nth(1).unwrap()),
    ]));
    out.push(strings.to_xml().unwrap());
    // what no writer of ours emits but a peer may send: text split by CDATA
    // sections, white space and comments between values, nested wrappers
    out.push(
        out[2]
            .replacen("persons.xml", "per<![CDATA[sons]]>.x<![CDATA[]]>ml", 1)
            .replacen("<xrpc:sequence>", "<xrpc:sequence> <!-- ws --> ", 1)
            .replacen(
                "</xrpc:call>",
                "<other xmlns=\"urn:o\"><xrpc:call/></other></xrpc:call>",
                1,
            ),
    );
    out
}

const SPLICES: [&str; 16] = [
    "<xrpc:call>",
    "</xrpc:call>",
    "<xrpc:sequence>",
    "</xrpc:sequence>",
    "<xrpc:sequence/>",
    r#"<xrpc:nodeid param="1" item="1" path="0"/>"#,
    r#"<xrpc:atomic-value xsi:type="xs:integer">x</xrpc:atomic-value>"#,
    "<xrpc:element>",
    "<xrpc:document/>",
    "<env:Body>",
    "<![CDATA[",
    "]]>",
    "<!--",
    "&amp;",
    "&#x0;",
    r#" xmlns:xrpc="urn:elsewhere""#,
];

/// One to three seeded edits of `message`: a bit flipped, a span deleted or
/// duplicated somewhere else, a tag spliced in, the tail cut off.
fn mutate(rng: &mut StdRng, message: &str) -> String {
    let mut bytes = message.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        let span = at..(at + rng.gen_range(1..48usize)).min(bytes.len());
        match rng.gen_range(0..5) {
            0 => bytes[at] ^= 1u8 << rng.gen_range(0..8u32),
            1 => drop(bytes.drain(span)),
            2 => {
                let copy = bytes[span].to_vec();
                let to = rng.gen_range(0..=bytes.len());
                bytes.splice(to..to, copy);
            }
            3 => {
                let tag = SPLICES[rng.gen_range(0..SPLICES.len())];
                bytes.splice(at..at, tag.bytes());
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// What decoding may take: eight times the input and a block for every
/// eight bytes of it, beyond a constant (the reader's and the arena's own
/// few, an error's strings).
fn assert_decode_bounded(input: &str, context: &str) -> bool {
    let (result, peak, blocks) = measure(|| parse_message(input));
    assert!(
        peak <= 8 * input.len() + 4096,
        "{context}: {peak} bytes for {} of input",
        input.len()
    );
    assert!(
        blocks <= 64 + input.len() / 8,
        "{context}: {blocks} blocks for {} bytes of input",
        input.len()
    );
    if let Err(e) = &result {
        assert!(!e.code.is_empty(), "{context}: an error without a code");
    }
    result.is_ok()
}

#[test]
fn a_mutated_message_is_a_message_or_a_typed_error_in_bounded_memory() {
    let seeds: Vec<u64> = match std::env::var("FUZZ_SEED").ok().and_then(|s| s.parse().ok()) {
        Some(seed) => vec![seed],
        None => (0..48).collect(),
    };
    let messages = captured_messages();
    for (k, message) in messages.iter().enumerate() {
        let context = format!("message {k} as captured");
        assert!(assert_decode_bounded(message, &context), "{context}");
        assert!(common::assert_decodes_like_the_oracle(message, &context));
    }
    let (mut accepted, mut refused) = (0, 0);
    for seed in seeds {
        let run = std::panic::catch_unwind(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut accepted = 0;
            for (k, message) in messages.iter().enumerate() {
                for m in 0..6 {
                    let mutant = mutate(&mut rng, message);
                    let context = format!("FUZZ_SEED={seed}, message {k}, mutant {m}");
                    let ok = assert_decode_bounded(&mutant, &context);
                    // what is accepted is what the long way round decodes;
                    // what is refused is refused there too, for the same
                    // reason
                    let same = common::assert_decodes_like_the_oracle(&mutant, &context);
                    assert_eq!(ok, same, "{context}");
                    accepted += ok as usize;
                }
            }
            accepted
        });
        match run {
            Ok(n) => {
                accepted += n;
                refused += 6 * messages.len() - n;
            }
            Err(_) => panic!("rerun with FUZZ_SEED={seed}"),
        }
    }
    // the run means something only if both happen
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} accepted, {refused} refused"
    );
}

/// A version's wire image is one serialized copy and 8 bytes a slot,
/// measured at the allocator, whatever the document's shape: wide, deep (a
/// hundred thousand levels build and slice without recursion, the innermost
/// element under a declaration included), or mostly dead slots.
#[test]
fn a_wire_image_is_one_serialized_copy_and_eight_bytes_a_slot() {
    let depth = 100_000;
    let deep = format!(
        "<r xmlns:p=\"urn:p\">{}<leaf/>x{}</r>",
        "<d>".repeat(depth),
        "</d>".repeat(depth)
    );
    let wide = xmark::payload_xml(1 << 18);
    let mut edited = xmldom::parse(&xmark::payload_xml(1 << 14)).unwrap();
    let payload = edited.first_child(edited.root()).unwrap();
    for chunk in edited.children(payload).skip(1).collect::<Vec<_>>() {
        edited.remove(chunk);
    }
    let documents = [
        xmldom::parse(&deep).unwrap(),
        xmldom::parse(&wide).unwrap(),
        edited,
    ];
    for doc in &documents {
        let opts = Default::default();
        let whole = xmldom::serialize_document(doc, &opts);
        let image_cost = doc.text_heap_len() + 8 * doc.len();
        for _ in 0..image_cost / whole.len() {
            xmldom::serialize_document(doc, &opts);
        }
        assert_eq!(doc.wire_image_bytes(), 0);
        // the call that builds it: the image and the copy it hands out
        let mut out = String::with_capacity(whole.len());
        let ((), peak, _) = measure(|| xmldom::serialize_document_into(doc, &opts, &mut out));
        assert_eq!(out, whole);
        let bound = whole.len() + 8 * doc.len();
        let held = doc.wire_image_bytes();
        assert!(
            held > 0 && held <= bound,
            "{held} bytes held, bound {bound}"
        );
        assert!(
            peak <= bound + image_cost,
            "{peak} bytes to build, bound {bound}"
        );
    }
    // a slice from the bottom of the chain: no recursion, and the binding
    // the root declares a hundred thousand levels up
    let deep = &documents[0];
    let leaf = (deep.all_ids())
        .find(|&id| deep.name(id).is_some_and(|n| n.local == "leaf"))
        .unwrap();
    let innermost = deep.parent(leaf).unwrap();
    let opts = Default::default();
    assert_eq!(
        xmldom::serialize_node(deep, innermost, &opts),
        "<d xmlns:p=\"urn:p\"><leaf/>x</d>"
    );
    assert_eq!(
        xmldom::serialize_node(deep, leaf, &opts),
        "<leaf xmlns:p=\"urn:p\"/>"
    );
}

/// Depth is the one dimension the input buys cheaply: seven bytes a level.
/// A value nested a hundred thousand deep is built without recursion and in
/// the memory a parse of it takes; an operator tree that deep in a profile
/// header is followed to a fixed depth and dropped below it.
#[test]
fn a_hundred_thousand_levels_neither_overflow_the_stack_nor_the_bound() {
    let depth = 100_000;
    let mut resp = XrpcResponse::new("m", "f");
    resp.results.push(xdm::Sequence::empty());
    let template = resp.to_xml().unwrap();
    let deep = format!(
        "<xrpc:sequence><xrpc:element>{}{}</xrpc:element></xrpc:sequence>",
        "<nested>".repeat(depth),
        "</nested>".repeat(depth)
    );
    let message = template.replacen("<xrpc:sequence/>", &deep, 1);
    assert_ne!(message, template);
    let (result, peak, _) = measure(|| parse_message(&message));
    let xrpc_repro::xrpc_proto::XrpcMessage::Response(decoded) = result.unwrap() else {
        panic!("a response");
    };
    assert!(
        peak <= 8 * message.len(),
        "{peak} bytes for {}",
        message.len()
    );
    let value = decoded.results[0].items()[0].as_node().unwrap();
    assert_eq!(value.doc.subtree_size(value.id), depth);
    common::assert_decodes_like_the_oracle(&message, "a deep value");

    let ops = format!(
        "<env:Header><xrpc:profile><xrpc:hop peer=\"p\" depth=\"1\" traceId=\"1\" spanId=\"1\" totalMicros=\"1\">{}{}</xrpc:hop></xrpc:profile></env:Header><env:Body>",
        r#"<xrpc:op name="o" calls="1" timedCalls="1" wallMicros="1" items="1" bytes="1">"#.repeat(depth),
        "</xrpc:op>".repeat(depth)
    );
    let message = template.replacen("<env:Body>", &ops, 1);
    let xrpc_repro::xrpc_proto::XrpcMessage::Response(decoded) = parse_message(&message).unwrap()
    else {
        panic!("a response");
    };
    let mut levels = 0;
    let mut op = decoded.profile_hops[0].ops.first();
    while let Some(o) = op {
        levels += 1;
        op = o.children.first();
    }
    assert!((1..1000).contains(&levels), "{levels} levels kept");
}

// ---------------------------------------------------------------------
// The WAL decoder: what a peer reads from its own disk at startup
// ---------------------------------------------------------------------

use std::sync::Arc;
use xrpc_repro::xmldom::{Document, NodeHandle, QName};
use xrpc_repro::xrpc_peer::wal::{crc32, NodePath, PathStep, SerializedPrimitive};
use xrpc_repro::xrpc_peer::{Decision, FsyncPolicy, Wal, WalConfig, WalRecord};

const WAL_MAGIC: &[u8] = b"XRPCWAL3";

fn wal_config() -> WalConfig {
    WalConfig {
        fsync: FsyncPolicy::Never,
        ..WalConfig::default()
    }
}

fn wal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xrpc-wal-fuzz-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Text holding what XML escapes, what XML normalizes (`\r\n`, tabs in
/// attributes) and a control character XML 1.0 does not allow.
const NASTY: &str = "50% | a/b\tc\nd\r\u{1f}é日本 <&\"]]>\r\n";

/// One node of a fresh document `build` makes.
fn fresh(build: impl FnOnce(&mut Document) -> xmldom::NodeId) -> NodeHandle {
    let mut d = Document::new();
    let id = build(&mut d);
    NodeHandle::new(Arc::new(d), id)
}

/// Every primitive kind and every kind of content node, holding [`NASTY`]
/// wherever a string goes — as one transaction's ∆.
fn every_primitive() -> Vec<SerializedPrimitive> {
    let target = || NodePath {
        doc_uri: format!("dir/{NASTY}.xml"),
        steps: vec![
            PathStep::Child(0),
            PathStep::Attr(3),
            PathStep::Child(70_000),
        ],
    };
    let content = || {
        vec![
            fresh(|d| {
                let e = d.create_element(QName::local("e"));
                d.set_attribute(e, QName::local("a"), NASTY);
                let t = d.create_text(NASTY);
                d.append_child(e, t);
                e
            }),
            fresh(|d| d.create_attribute(QName::ns("p", "urn:x/y|z", "k"), NASTY)),
            fresh(|d| d.create_attribute(QName::ns("xrpc", "urn:other", "k"), NASTY)),
            fresh(|d| d.create_attribute(QName::local("plain"), "")),
            fresh(|d| d.create_text(NASTY)),
            fresh(|d| d.create_comment("c")),
        ]
    };
    use SerializedPrimitive as S;
    vec![
        S::InsertInto {
            target: target(),
            content: content(),
        },
        S::InsertFirst {
            target: target(),
            content: content(),
        },
        S::InsertLast {
            target: target(),
            content: vec![],
        },
        S::InsertBefore {
            target: target(),
            content: content(),
        },
        S::InsertAfter {
            target: target(),
            content: content(),
        },
        S::Delete { target: target() },
        S::ReplaceNode {
            target: target(),
            replacement: content(),
        },
        S::ReplaceValue {
            target: target(),
            value: NASTY.into(),
        },
        S::Rename {
            target: target(),
            name: QName::ns("p", "urn:p", "n"),
        },
        S::Put {
            node: fresh(|d| d.create_element(QName::local("put"))),
            uri: format!("out/{NASTY}.xml"),
        },
    ]
}

/// Every string of a decoded [`every_primitive`] ∆ is [`NASTY`] byte for
/// byte: `\r`, `\r\n` and U+001F included. `\r` goes out as a character
/// reference; U+001F goes out raw, and the reader takes it back as it is
/// (it checks characters against no XML `Char` production).
fn assert_nasty_survives(delta: &[SerializedPrimitive]) {
    use SerializedPrimitive as S;
    for p in delta {
        if let Some(t) = p.target() {
            assert_eq!(t.doc_uri, format!("dir/{NASTY}.xml"));
        }
        match p {
            S::InsertInto { content, .. }
            | S::ReplaceNode {
                replacement: content,
                ..
            } => {
                let [e, attr, xrpc_attr, _, text, _] = &content[..] else {
                    panic!("{content:?}")
                };
                assert_eq!(e.string_value(), NASTY);
                assert_eq!(e.doc.attr_local(e.id, "a"), Some(NASTY));
                assert_eq!(attr.value(), NASTY);
                assert_eq!(xrpc_attr.value(), NASTY);
                let name = xrpc_attr.name().unwrap();
                assert!(name.is("urn:other", "k"));
                assert_eq!(name.prefix.as_deref(), Some("xrpc"));
                assert_eq!(text.value(), NASTY);
            }
            S::ReplaceValue { value, .. } => assert_eq!(value, NASTY),
            S::Put { uri, .. } => assert_eq!(uri, &format!("out/{NASTY}.xml")),
            _ => {}
        }
    }
}

/// A real log: both roles' records of several transactions, written by
/// the log itself (one transaction stays open, so nothing is checkpointed
/// away).
fn real_log() -> Vec<u8> {
    let dir = wal_dir("source");
    let (log, _) = Wal::open_with(&dir, wal_config()).unwrap();
    let qid = |n: u64| QueryId::new("xrpc://origin.example.org:8080", 9_000 + n, 30);
    let parts = vec!["xrpc://b|c".to_string(), "xrpc://d".to_string()];
    let prepared = |n| WalRecord::Prepared {
        qid: qid(n),
        coordinator: "xrpc://origin.example.org:8080".into(),
        delta: every_primitive(),
    };
    let records = [
        prepared(0),
        prepared(1),
        WalRecord::Decision {
            qid: qid(1),
            decision: Decision::Committed,
        },
        WalRecord::Applied {
            qid: qid(1),
            mark: 2,
        },
        prepared(2),
        WalRecord::Decision {
            qid: qid(2),
            decision: Decision::Aborted,
        },
        WalRecord::CoordinatorBegin {
            qid: qid(3),
            participants: parts.clone(),
        },
        WalRecord::CoordinatorCommit {
            qid: qid(3),
            participants: parts,
        },
        WalRecord::CoordinatorEnd { qid: qid(3) },
    ];
    for r in &records {
        log.append(r).unwrap();
    }
    drop(log);
    let (_, replay) = Wal::open_with(&dir, wal_config()).unwrap();
    assert!(!replay.tail_damaged);
    let decoded: Vec<WalRecord> = replay.records.into_iter().map(|sr| sr.record).collect();
    assert_eq!(decoded, records);
    for r in &decoded {
        if let WalRecord::Prepared { delta, .. } = r {
            assert_nasty_survives(delta);
        }
    }
    let log = std::fs::read(dir.join("log")).unwrap();
    let _ = std::fs::remove_dir_all(dir);
    log
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = (payload.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(&crc32(payload).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

/// The payloads of a log's frames.
fn payloads(log: &[u8]) -> Vec<Vec<u8>> {
    let (mut out, mut pos) = (Vec::new(), WAL_MAGIC.len());
    while let Some(h) = log.get(pos..pos + 8) {
        let len = u32::from_le_bytes(h[..4].try_into().unwrap()) as usize;
        if len == 0 {
            break;
        }
        out.push(log[pos + 8..pos + 8 + len].to_vec());
        pos += 8 + len;
    }
    out
}

/// Spliced in where markup ends: some leave a record that decodes (to
/// something nobody wrote), most do not.
const WAL_SPLICES: &[&str] = &[
    "<xrpc:delete doc=\"log.xml\" target=\"c0\">",
    "<xrpc:delete doc=\"log.xml\" target=\"c\"/>",
    "<xrpc:delete doc=\"log.xml\" target=\"c0/a1\"/>",
    "<xrpc:peer uri=\"xrpc://e\"/>",
    "<xrpc:sequence><xrpc:attribute/></xrpc:sequence>",
    "<q:delete/>",
    "<xrpc:checkpoint/>",
    "</xrpc:sequence>",
    "<!-- c -->",
    "\r\n",
    "&#x1F;",
    "&#xD800;",
    "&amp",
    "]]>",
];

/// Where the markup before byte `i` of `p` ends.
fn markup_end_before(p: &[u8], i: usize) -> usize {
    p[..i].iter().rposition(|&b| b == b'>').map_or(0, |j| j + 1)
}

/// The bytes of one element of `p`, start tag to end tag, found by counting
/// tags (a `>` inside an attribute value can fool the count: then the span
/// is as broken as any).
fn some_element(rng: &mut StdRng, p: &[u8]) -> std::ops::Range<usize> {
    let starts: Vec<usize> = (0..p.len().saturating_sub(1))
        .filter(|&i| p[i] == b'<' && p[i + 1].is_ascii_alphabetic())
        .collect();
    if starts.is_empty() {
        return 0..p.len();
    }
    let start = starts[rng.gen_range(0..starts.len())];
    let (mut depth, mut at) = (0, start);
    while let Some(k) = p[at..].iter().position(|&b| b == b'<') {
        let tag = at + k;
        at = tag
            + p[tag..]
                .iter()
                .position(|&b| b == b'>')
                .map_or(p.len() - tag, |e| e + 1);
        match p.get(tag + 1) {
            Some(b'/') => depth -= 1,
            Some(b'!' | b'?') => {}
            _ if p[at - 2] == b'/' => {}
            _ => depth += 1,
        }
        if depth <= 0 {
            break;
        }
    }
    start..at
}

/// One to three payloads edited and re-stamped (so the damage reaches
/// `decode_record` instead of stopping at the CRC), then possibly a tail
/// torn off or padded with zeros, or the magic damaged. A bit flips anywhere, and a random span
/// of up to 31 bytes is cut or copied anywhere (ending inside a name, an
/// entity, a value or a character); whole elements are cut and copied too,
/// and splices land where markup ends — so that as a rule some edits leave
/// a record that decodes, to something nobody wrote.
fn mutate_log(rng: &mut StdRng, frames: &[Vec<u8>]) -> Vec<u8> {
    let mut frames = frames.to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        let k = rng.gen_range(0..frames.len());
        let p = &mut frames[k];
        if p.is_empty() {
            continue;
        }
        let at = rng.gen_range(0..p.len());
        let span = at..(at + rng.gen_range(1..32usize)).min(p.len());
        match rng.gen_range(0..6) {
            0 => p[at] ^= 1u8 << rng.gen_range(0..8u32),
            1 => drop(p.drain(span)),
            2 => {
                let copy = p[span].to_vec();
                let to = rng.gen_range(0..=p.len());
                p.splice(to..to, copy);
            }
            3 => drop(p.drain(some_element(rng, p))),
            4 => {
                let copy = p[some_element(rng, p)].to_vec();
                let to = markup_end_before(p, at);
                p.splice(to..to, copy);
            }
            _ => {
                let s = WAL_SPLICES[rng.gen_range(0..WAL_SPLICES.len())];
                let at = markup_end_before(p, at);
                p.splice(at..at, s.bytes());
            }
        }
    }
    let mut log = WAL_MAGIC.to_vec();
    for p in frames.iter().filter(|p| !p.is_empty()) {
        log.extend(frame(p));
    }
    match rng.gen_range(0..5) {
        0 => log.truncate(rng.gen_range(0..=log.len())),
        1 => log.resize(log.len() + rng.gen_range(1..9000usize), 0),
        2 => {
            let at = rng.gen_range(WAL_MAGIC.len()..log.len());
            let to = (at + rng.gen_range(1..64usize)).min(log.len());
            log[at..to].fill(0);
        }
        3 => {
            // a bit flipped in, or another byte over, one byte of the magic
            let at = rng.gen_range(0..WAL_MAGIC.len());
            log[at] = if rng.gen_bool(0.5) {
                log[at] ^ 1u8 << rng.gen_range(0..8u32)
            } else {
                log[at].wrapping_add(rng.gen_range(1..=255u8))
            };
        }
        _ => {}
    }
    log
}

/// Open a WAL directory whose `log` is `log`. A log or a typed error, in at
/// most k = 6 times the log (the bytes as read, the decoded records, the
/// open-transaction copies of them, each with its strings; 3.9 is the most
/// a run has measured) beyond a constant. A log without its magic is
/// refused, and a refused log is left byte for byte as it was. Returns
/// whether it opened and whether the tail was dropped.
fn assert_open_bounded(log: &[u8], context: &str) -> Option<bool> {
    let dir = wal_dir(&format!("{:?}", std::thread::current().id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("log"), log).unwrap();
    let (result, peak, _) = measure(|| Wal::open_with(&dir, wal_config()));
    let after = std::fs::read(dir.join("log")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        peak <= 6 * log.len() + 4096,
        "{context}: {peak} bytes for a log of {}",
        log.len()
    );
    match result {
        Ok((_, replay)) => {
            assert!(
                log.starts_with(WAL_MAGIC),
                "{context}: a log without its magic opened"
            );
            Some(replay.tail_damaged)
        }
        Err(e) => {
            assert!(!e.code.is_empty(), "{context}: an error without a code");
            assert!(after == log, "{context}: a refused log was rewritten");
            None
        }
    }
}

#[test]
fn a_mutated_wal_log_opens_or_is_a_typed_error_in_bounded_memory() {
    let seeds: Vec<u64> = match std::env::var("WAL_SEED").ok().and_then(|s| s.parse().ok()) {
        Some(seed) => vec![seed],
        None => (0..24).collect(),
    };
    let log = real_log();
    let frames = payloads(&log);
    assert_eq!(frames.len(), 9);
    assert_eq!(assert_open_bounded(&log, "as written"), Some(false));
    let mut flipped = log.clone();
    flipped[3] ^= 0x01;
    assert_eq!(assert_open_bounded(&flipped, "a flipped magic"), None);

    // fixed rows: frames with a good CRC that once panicked the opener or
    // decoded to something nobody wrote — now an undecodable tail
    let head = |kind: &str, attrs: &str| {
        format!(
            "<xrpc:{kind} xmlns:xrpc=\"http://monetdb.cwi.nl/XQuery\" host=\"h\" ts=\"1\" timeout=\"30\" {attrs}"
        )
    };
    let prepared = |body: &str| format!("{}>{body}</xrpc:prepared>", head("prepared", "lsn=\"2\""));
    for bad in [
        prepared("<xrpc:delete doc=\"log.xml\" target=\"é1\"/>"),
        format!("{}/>", head("prepared", "lsn=\"2\" coordinator=\"&#x110000;\"")),
        prepared("<xrpc:delete doc=\"log.xml\" target=\"c0/\"/>"),
        prepared("<xrpc:delete doc=\"log.xml\" target=\"c\"/>"),
        prepared("<xrpc:delete doc=\"log.xml\" target=\"c0\">"),
        format!("{}/>", head("applied", "lsn=\"18446744073709551616\" mark=\"1\"")),
        prepared("<xrpc:insert-into doc=\"d\" target=\"\"><xrpc:sequence><xrpc:attribute/></xrpc:sequence></xrpc:insert-into>"),
        prepared("<q:delete doc=\"log.xml\" target=\"c0\"/>"),
        format!("{}/>", head("checkpoint", "lsn=\"2\"")),
        format!("{}/>", head("decision", "lsn=\"2\" outcome=\"maybe\"")),
    ] {
        let mut log = WAL_MAGIC.to_vec();
        log.extend(frame(&frames[0]));
        log.extend(frame(bad.as_bytes()));
        assert_eq!(assert_open_bounded(&log, &bad), Some(true), "{bad}");
    }

    let (mut clean, mut dropped, mut refused) = (0, 0, 0);
    for seed in seeds {
        let run = std::panic::catch_unwind(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            // about one mutant in sixteen opens clean: 128 make a seed run
            // alone (as CI runs one) hold each outcome
            (0..128)
                .map(|m| {
                    let mutant = mutate_log(&mut rng, &frames);
                    assert_open_bounded(&mutant, &format!("WAL_SEED={seed}, mutant {m}"))
                })
                .collect::<Vec<_>>()
        });
        match run {
            Ok(outcomes) => {
                for o in outcomes {
                    match o {
                        Some(false) => clean += 1,
                        Some(true) => dropped += 1,
                        None => refused += 1,
                    }
                }
            }
            Err(_) => panic!("rerun with WAL_SEED={seed}"),
        }
    }
    // the run means something only if mutants survive, lose their tail
    // and are refused
    assert!(
        clean > 0 && dropped > 0 && refused > 0,
        "{clean} clean, {dropped} with a dropped tail, {refused} refused"
    );
}

// ---------------------------------------------------------------------
// A wrapped peer reads a request's module, method, arity and location as
// names: no byte of them runs as XQuery, and an arity is bounded by the
// parameters the request carries.
// ---------------------------------------------------------------------

use std::sync::atomic::{AtomicUsize, Ordering};
use xrpc_repro::xrpc_net::{NetError, Transport};
use xrpc_repro::xrpc_peer::XrpcWrapper;
use xrpc_repro::xrpc_proto::XrpcMessage;

/// The documents a wrapped peer fetches as `xrpc://canary/…`: each fetch
/// is counted, none is answered.
struct Canary(AtomicUsize);

impl Transport for Canary {
    fn roundtrip(&self, _: &str, _: &[u8]) -> Result<Vec<u8>, NetError> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Err(NetError::new("canary"))
    }
}

#[test]
fn a_wrapped_peer_takes_request_names_never_code() {
    let w = XrpcWrapper::new();
    (w.modules)
        .register_source(
            r#"module namespace func = "functions";
            declare function func:add($a as xs:integer, $b as xs:integer) { $a + $b };"#,
        )
        .unwrap();
    w.docs
        .insert("secret.xml", xmldom::parse("<s>hunter2</s>").unwrap());
    let canary = Arc::new(Canary(AtomicUsize::new(0)));
    w.enable_remote_docs(canary.clone());
    let mut request = XrpcRequest::new("functions", "add", 2);
    request.push_call(vec![
        xdm::Sequence::one(xdm::Item::integer(40)),
        xdm::Sequence::one(xdm::Item::integer(2)),
    ]);
    let valid = request.to_xml().unwrap();
    let answer = |xml: &str| String::from_utf8(w.handle(xml.as_bytes())).unwrap();
    let honest = answer(&valid);
    assert!(honest.contains(r#"<xrpc:atomic-value xsi:type="xs:integer">42<"#));
    // `attr="{from}"` becomes `attr="{value}"`, the value escaped as XML
    let escape = |value: &str| value.replace('&', "&amp;").replace('"', "&quot;");
    let with = |attr: &str, from: &str, value: &str| {
        let old = format!(r#"{attr}="{from}""#);
        assert!(valid.contains(&old), "{old}");
        valid.replacen(&old, &format!(r#"{attr}="{}""#, escape(value)), 1)
    };
    let located = |location: &str| {
        valid.replacen(
            r#"arity="2""#,
            &format!(r#"arity="2" location="{}""#, escape(location)),
            1,
        )
    };
    let refused = |xml: &str| match parse_message(&answer(xml)) {
        Ok(XrpcMessage::Fault(f)) => f.error_code.as_deref() == Some("XRPC0001"),
        _ => false,
    };
    // The probe that read `secret.xml` into a fault's text: its location
    // is now a string, a hint the registered module does not need, so the
    // request gets the honest answer.
    for read in [r#"doc("secret.xml")"#, r#"doc("xrpc://canary/s.xml")"#] {
        let probe = format!(
            r#"x"; declare variable $local:x := string({read}) cast as xs:integer; import module namespace g = "functions"#
        );
        assert_eq!(answer(&located(&probe)), honest, "{probe}");
    }
    for mark in ["\"", "{", "}", ";", "(:"] {
        let code = format!(r#"{mark} doc("xrpc://canary/{mark}.xml") {mark}"#);
        assert!(
            refused(&with("method", "add", &format!("add{code}"))),
            "method {mark}"
        );
        assert!(
            refused(&with("module", "functions", &format!("functions{code}"))),
            "module {mark}"
        );
        assert_eq!(
            answer(&located(&format!("x{code}"))),
            honest,
            "location {mark}"
        );
    }
    // an arity the calls do not carry, however large: refused before the
    // query it would generate is built
    for arity in ["1", "3", "4000000000"] {
        let xml = with("arity", "2", arity);
        let (is_refused, peak, _) = measure(|| refused(&xml));
        assert!(is_refused, "arity {arity}");
        assert!(
            peak <= 16 * xml.len(),
            "arity {arity}: {peak} bytes for {}",
            xml.len()
        );
    }
    assert_eq!(canary.0.load(Ordering::SeqCst), 0, "canary reads");
}
