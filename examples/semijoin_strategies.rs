//! The §5 experiment: query Q7 (persons ⋈ closed auctions) executed under
//! all four distribution strategies — data shipping, predicate push-down,
//! execution relocation, distributed semi-join — between a loop-lifted
//! peer A and a *wrapped* plain engine B (the Saxon role).
//!
//! ```sh
//! cargo run --release --example semijoin_strategies
//! ```

use distq::{Strategy, MODULE_B};
use std::sync::Arc;
use std::time::Instant;
use xrpc_net::{NetProfile, SimNetwork};
use xrpc_peer::{EngineKind, Peer, XrpcWrapper};

const A_URI: &str = "xrpc://a.example.org";
const B_URI: &str = "xrpc://b.example.org";

fn main() {
    let params = xmark::XmarkParams {
        persons: 250,
        closed_auctions: 2000,
        matches: 6,
        padding_words: 30,
        seed: 42,
    };
    println!(
        "workload: {} persons at A, {} closed auctions at B, {} matches\n",
        params.persons, params.closed_auctions, params.matches
    );
    println!(
        "{:<24} {:>10} {:>12} {:>12} {:>9}",
        "strategy", "total ms", "wire KB", "requests", "results"
    );

    for strategy in Strategy::ALL {
        // fresh cluster per strategy so metrics don't mix
        let net = Arc::new(SimNetwork::new(NetProfile::lan()));
        let a = Peer::new(A_URI, EngineKind::Rel);
        a.add_document("persons.xml", &xmark::persons_xml(&params))
            .unwrap();
        a.register_module(MODULE_B).unwrap();
        // run A's queries through the distributed optimizer (duplicate-call
        // collapsing and the join rule, which sends push-down's call once)
        a.set_rpc_optimize(true);
        a.set_transport(net.clone());
        net.register(A_URI, a.soap_handler());

        let b = XrpcWrapper::new();
        b.docs.insert(
            "auctions.xml",
            xmldom::parse(&xmark::auctions_xml(&params)).unwrap(),
        );
        b.modules.register_source(MODULE_B).unwrap();
        b.enable_remote_docs(net.clone());
        net.register(B_URI, b.soap_handler());

        let query = strategy.query(B_URI, A_URI);
        let t0 = Instant::now();
        let res = a
            .execute(&query)
            .unwrap_or_else(|_| panic!("{}", strategy.label()));
        let elapsed = t0.elapsed();
        let m = net.metrics.snapshot();
        let results = res
            .iter()
            .filter(|i| {
                matches!(i, xdm::Item::Node(n) if n.name().is_some_and(|q| q.local == "result"))
            })
            .count();
        println!(
            "{:<24} {:>10.0} {:>12.1} {:>12} {:>9}",
            strategy.label(),
            elapsed.as_secs_f64() * 1e3,
            (m.bytes_sent + m.bytes_received) as f64 / 1024.0,
            m.roundtrips,
            results
        );
        assert_eq!(results, params.matches);
    }

    println!(
        "\nThe semi-join ships only matching auctions (the paper's winner);\n\
         data shipping moves the whole auctions document to A first."
    );
}
