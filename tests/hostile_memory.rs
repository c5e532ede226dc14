//! Memory bounds of the XML decoder on hostile bytes (ROADMAP correctness
//! (e)): what `xmldom::parse` takes from the allocator is bounded by a
//! small multiple of the input it was handed, in a constant number of
//! blocks plus a few per distinct name, whatever the bytes say. The counting allocator is this file's
//! own; counters are per thread because tests run on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xrpc_repro::xrpc_proto::{parse_message, XrpcRequest};
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
