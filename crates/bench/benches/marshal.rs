//! Criterion bench for ablation A3: marshaling cost (s2n/n2s) by
//! parameter shape — atomic values vs element subtrees (paper §2.1's two
//! value families).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use xdm::{Item, Sequence};
use xmldom::NodeHandle;
use xrpc_proto::{parse_message, XrpcRequest};

fn atomic_seq(n: usize) -> Sequence {
    Sequence::from_items(
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    Item::integer(i as i64)
                } else {
                    Item::string(format!("value-{i}"))
                }
            })
            .collect(),
    )
}

fn element_seq(n: usize) -> Sequence {
    let mut xml = String::from("<w>");
    for i in 0..n {
        xml.push_str(&format!("<film year=\"{i}\"><name>Film {i}</name></film>"));
    }
    xml.push_str("</w>");
    let doc = Arc::new(xmldom::parse(&xml).unwrap());
    let w = doc.first_child(doc.root()).unwrap();
    Sequence::from_items(
        doc.children(w)
            .map(|c| Item::Node(NodeHandle::new(doc.clone(), c)))
            .collect(),
    )
}

fn roundtrip(seq: &Sequence) {
    let mut req = XrpcRequest::new("m", "f", 1);
    req.push_call(vec![seq.clone()]);
    let xml = req.to_xml().unwrap();
    let _ = parse_message(&xml).unwrap();
}

fn bench_marshal(c: &mut Criterion) {
    let mut group = c.benchmark_group("marshal_roundtrip");
    group.sample_size(20);
    for n in [10usize, 100, 1000] {
        let a = atomic_seq(n);
        group.bench_with_input(BenchmarkId::new("atomic", n), &a, |b, seq| {
            b.iter(|| roundtrip(seq))
        });
        let e = element_seq(n);
        group.bench_with_input(BenchmarkId::new("element", n), &e, |b, seq| {
            b.iter(|| roundtrip(seq))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_marshal);
criterion_main!(benches);
