//! Property test (hand-rolled, seeded): serializing an XRPC message into
//! a recycled, pre-sized pool buffer must be byte-identical to
//! serializing it into a fresh buffer. This is the invariant the whole
//! buffer-recycling path rests on — a stale byte leaking out of a reused
//! buffer would corrupt a message silently.

use rand::prelude::*;
use std::sync::Arc;
use xdm::{AtomicValue, Item, Sequence};
use xmldom::NodeHandle;
use xrpc_net::BufferPool;
use xrpc_proto::{XrpcRequest, XrpcResponse};

/// Random text including XML-hostile characters, so escaping is exercised.
fn random_text(rng: &mut StdRng, max_len: usize) -> String {
    const ALPHABET: &[char] = &[
        'a', 'b', 'z', 'Q', '0', '7', ' ', '<', '>', '&', '"', '\'', 'é', '≤', '\n',
    ];
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

fn random_name(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..=8usize);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
        .collect()
}

/// A random well-formed element subtree as XML text.
fn random_element(rng: &mut StdRng, depth: usize, out: &mut String) {
    let name = random_name(rng);
    out.push('<');
    out.push_str(&name);
    for _ in 0..rng.gen_range(0..3u32) {
        out.push(' ');
        out.push_str(&random_name(rng));
        out.push_str("=\"");
        out.push_str(&random_text(rng, 12).replace(['<', '&', '"'], "x"));
        out.push('"');
    }
    out.push('>');
    for _ in 0..rng.gen_range(0..4u32) {
        if depth > 0 && rng.gen_bool(0.4) {
            random_element(rng, depth - 1, out);
        } else {
            out.push_str(&random_text(rng, 40).replace(['<', '&'], "y"));
        }
    }
    out.push_str("</");
    out.push_str(&name);
    out.push('>');
}

fn random_sequence(rng: &mut StdRng) -> Sequence {
    let mut items = Vec::new();
    for _ in 0..rng.gen_range(0..5u32) {
        let item = match rng.gen_range(0..4u32) {
            0 => Item::Atomic(AtomicValue::Integer(rng.gen_range(-1000..1000i64))),
            1 => Item::Atomic(AtomicValue::String(random_text(rng, 200))),
            2 => Item::Atomic(AtomicValue::Boolean(rng.gen_bool(0.5))),
            _ => {
                let mut xml = String::new();
                random_element(rng, 2, &mut xml);
                let doc = Arc::new(xmldom::parse(&xml).unwrap());
                let root_el = doc.first_child(doc.root()).unwrap();
                Item::Node(NodeHandle::new(doc, root_el))
            }
        };
        items.push(item);
    }
    Sequence::from_items(items)
}

fn random_request(rng: &mut StdRng) -> XrpcRequest {
    let arity = rng.gen_range(0..3usize);
    let mut req = XrpcRequest::new(random_name(rng), random_name(rng), arity);
    for _ in 0..rng.gen_range(1..4u32) {
        req.push_call((0..arity).map(|_| random_sequence(rng)).collect());
    }
    req
}

/// A pool whose buffers are pre-filled with junk: recycled buffers must
/// not leak a single stale byte into the serialized message.
fn dirty_pool() -> BufferPool {
    let pool = BufferPool::new();
    for _ in 0..4 {
        let mut junk = pool.get_string(16 * 1024);
        junk.push_str(&"GARBAGE-".repeat(2048));
        pool.put_string(junk);
    }
    pool
}

#[test]
fn pooled_request_serialization_matches_fresh() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let pool = dirty_pool();
    for round in 0..200 {
        let req = random_request(&mut rng);
        let mut fresh = String::new();
        req.write_xml(&mut fresh).unwrap();
        let mut pooled = pool.get_string(req.estimated_wire_size());
        req.write_xml(&mut pooled).unwrap();
        assert_eq!(fresh, pooled, "round {round} diverged");
        // also byte-identical to the public entry point and the DOM oracle
        assert_eq!(fresh, req.to_xml().unwrap(), "round {round}: to_xml");
        pool.put_string(pooled);
    }
    let stats = pool.stats();
    assert!(stats.hits > 0, "recycling never kicked in: {stats:?}");
}

#[test]
fn pooled_response_serialization_matches_fresh() {
    let mut rng = StdRng::seed_from_u64(0xfeed);
    let pool = dirty_pool();
    for round in 0..200 {
        let mut resp = XrpcResponse::new(random_name(&mut rng), random_name(&mut rng));
        for _ in 0..rng.gen_range(0..4u32) {
            resp.results.push(random_sequence(&mut rng));
        }
        for _ in 0..rng.gen_range(0..3u32) {
            resp.participating_peers.push(random_name(&mut rng));
        }
        let mut fresh = String::new();
        resp.write_xml(&mut fresh).unwrap();
        let mut pooled = pool.get_string(resp.estimated_wire_size());
        resp.write_xml(&mut pooled).unwrap();
        assert_eq!(fresh, pooled, "round {round} diverged");
        assert_eq!(fresh, resp.to_xml().unwrap(), "round {round}: to_xml");
        pool.put_string(pooled);
    }
}

/// The size estimate should land in the right ballpark — close enough
/// that the pre-reserved buffer avoids most growth reallocations, and
/// never absurdly small for large messages.
#[test]
fn wire_size_estimate_tracks_actual_size() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..100 {
        let req = random_request(&mut rng);
        let actual = req.to_xml().unwrap().len();
        let est = req.estimated_wire_size();
        assert!(
            est * 8 >= actual,
            "estimate {est} far below actual {actual}"
        );
    }
}
