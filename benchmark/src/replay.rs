//! Per-layer replay: each layer's public function timed from outside, on
//! the bytes and query text captured from one operation of the workload.
//! The cluster of the last round is still up, so the sample is a real one.

use crate::cluster::{Exchange, Node, Served};
use crate::host::Yardstick;
use crate::stats::median;
use crate::trace::{classify, Method};
use crate::workloads::{Cluster, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xrpc_net::{HttpServer, HttpTransport, NetError, Transport};
use xrpc_proto::{parse_message, XrpcMessage};

/// Named replay results (ms unless the name says otherwise).
pub type Replayed = BTreeMap<&'static str, f64>;

/// Timed pieces of the replay; each gets an equal share of the budget.
const ITEMS: u32 = 20;

/// Median time of `f` in ms: at least 200 iterations and 50 ms of them, or
/// whatever fits in `budget` (never fewer than 3 iterations). Normalised
/// like the live timings: divided by the host's slowdown, sampled before and
/// after.
fn time_ms(budget: Duration, yard: &mut Yardstick, mut f: impl FnMut()) -> f64 {
    let before = yard.slowdown();
    let mut samples = Vec::new();
    let t0 = Instant::now();
    loop {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        let spent = t0.elapsed();
        let enough = samples.len() >= 200 && spent >= Duration::from_millis(50);
        if enough || (spent >= budget && samples.len() >= 3) {
            return median(&samples) / ((before + yard.slowdown()) / 2.0);
        }
    }
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("SOAP messages are UTF-8")
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Every `xrpc:sequence` element of a parsed message.
fn sequence_elements(doc: &xmldom::Document) -> Vec<xmldom::NodeId> {
    doc.all_ids()
        .filter(|&id| {
            doc.node(id)
                .name
                .as_ref()
                .is_some_and(|q| q.local == "sequence")
        })
        .collect()
}

/// A fresh queryID timestamp in place of the captured one, so a replayed
/// isolated request opens a new transaction instead of hitting the
/// at-most-once cache of the one that already committed.
fn with_fresh_timestamp(request: &[u8], n: u64) -> Vec<u8> {
    let s = text(request);
    let Some(at) = s.find(" timestamp=\"") else {
        return request.to_vec();
    };
    let start = at + " timestamp=\"".len();
    let end = start + s[start..].find('"').unwrap_or(0);
    let fresh = s[start..end].parse::<u64>().unwrap_or(0) + 1_000_000 + n;
    format!("{}{}{}", &s[..start], fresh, &s[end..]).into_bytes()
}

/// Serves a request it has seen before (same method, same length) from
/// memory and forwards any other to the live transport once. After a warm-up
/// the caller's side of a query runs against it without touching the network
/// or the callee, whatever way the bulk controller chunks its calls.
struct Memo {
    live: Arc<dyn Transport>,
    seen: std::sync::Mutex<std::collections::HashMap<(u8, usize), Vec<u8>>>,
}

impl Transport for Memo {
    fn roundtrip(&self, dest: &str, body: &[u8]) -> Result<Vec<u8>, NetError> {
        let key = (classify(body) as u8, body.len());
        if let Some(hit) = self.seen.lock().expect("memo poisoned").get(&key) {
            return Ok(hit.clone());
        }
        let resp = self.live.roundtrip(dest, body)?;
        self.seen
            .lock()
            .expect("memo poisoned")
            .insert(key, resp.clone());
        Ok(resp)
    }
}

fn handle(node: &Node, request: &[u8]) -> Vec<u8> {
    match &node.served {
        Served::Peer(p) => p.handle_soap(request),
        Served::Wrapper(w) => w.handle(request),
    }
}

fn wal_replay(budget: Duration, yard: &mut Yardstick, out_dir: &Path, r: &mut Replayed) {
    use xrpc_peer::wal::{NodePath, PathStep, SerializedPrimitive};
    use xrpc_peer::{Decision, FsyncPolicy, Wal, WalConfig, WalRecord};
    let dir = out_dir.join(format!("wal-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = WalConfig {
        fsync: FsyncPolicy::Always,
        group_commit: true,
        ..WalConfig::default()
    };
    let (wal, _) = Wal::open_with(&dir, config).expect("open replay WAL");
    let qid = |n: u64| xrpc_proto::QueryId::new("xrpc://replay", 4_100_000_000_000 + n, 30);
    let prepared = |n: u64| WalRecord::Prepared {
        qid: qid(n),
        coordinator: "xrpc://replay".into(),
        delta: vec![SerializedPrimitive::ReplaceValue {
            target: NodePath {
                doc_uri: "log.xml".into(),
                steps: vec![PathStep::Child(0), PathStep::Child(0), PathStep::Child(0)],
            },
            value: n.to_string(),
        }],
    };
    // The participant's forced-append sequence for one committed update.
    let triple = |n: u64| {
        let mark = wal.append(&prepared(n)).expect("append Prepared");
        wal.append(&WalRecord::Decision {
            qid: qid(n),
            decision: Decision::Committed,
        })
        .expect("append Decision");
        wal.append(&WalRecord::Applied { qid: qid(n), mark })
            .expect("append Applied");
    };
    // While another transaction stays open the log cannot truncate at
    // quiesce, so the growth across one triple is its size on disk.
    wal.append(&prepared(0)).expect("append Prepared");
    let before = wal.stats().log_bytes;
    triple(1);
    r.insert("wal.bytes_per_txn", (wal.stats().log_bytes - before) as f64);
    let mut n = 1;
    r.insert(
        "wal.append_ms",
        time_ms(budget, yard, || {
            n += 1;
            triple(n)
        }),
    );
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}

pub fn replay(
    w: Workload,
    cluster: &mut Cluster,
    budget: Duration,
    yard: &mut Yardstick,
    out_dir: &Path,
) -> Replayed {
    let mut r = Replayed::new();
    let each = (budget / ITEMS).min(Duration::from_secs(1));

    // alloc: a few whole operations with the counting allocator on (the
    // counts repeat from one operation to the next, so a few are enough)
    let t0 = Instant::now();
    let mut ops = 0u64;
    let (allocs, bytes) = crate::alloc::counted(|| {
        while ops < 3 || (ops < 50 && t0.elapsed() < each) {
            cluster.clients[0](ops).expect("sample operation");
            ops += 1;
        }
    });
    r.insert("alloc.allocs_per_op", allocs as f64 / ops as f64);
    r.insert("alloc.kib_per_op", bytes as f64 / 1024.0 / ops as f64);
    let cluster = &*cluster;
    let caller = &cluster.nodes[cluster.caller];
    let callee = &cluster.nodes[cluster.callee];
    let queries: Vec<&str> = cluster
        .replay
        .queries
        .iter()
        .map(|(_, q)| q.as_str())
        .collect();
    let a = caller.peer();
    let run_queries = || {
        for q in &queries {
            std::hint::black_box(a.execute(q).expect("sample query"));
        }
    };

    // The sample: the calls the sample queries put on the wire (2PC control
    // messages are left to the live round-trip times).
    let sent: Vec<Exchange> = caller.wire.capture(run_queries);
    let calls: Vec<&Exchange> = sent
        .iter()
        .filter(|x| classify(&x.request) == Method::Call)
        .collect();
    assert!(!calls.is_empty(), "sample queries sent no request");
    let messages: Vec<&str> = calls
        .iter()
        .flat_map(|x| [text(&x.request), text(&x.response)])
        .collect();
    let bytes: usize = messages.iter().map(|m| m.len()).sum();
    r.insert("sample.calls_on_wire", calls.len() as f64);
    r.insert("sample.kib", bytes as f64 / 1024.0);

    // xmldom: parse and serialize every message of the sample
    let parse_all = || {
        for m in &messages {
            std::hint::black_box(xmldom::parse(m).expect("parse message"));
        }
    };
    let parse_ms = time_ms(each, yard, parse_all);
    let (parse_allocs, _) = crate::alloc::counted(parse_all);
    r.insert("xmldom.parse_ms", parse_ms);
    r.insert("xmldom.parse_mib_per_s", mib(bytes) / (parse_ms / 1e3));
    r.insert(
        "xmldom.parse_allocs_per_kib",
        parse_allocs as f64 / (bytes as f64 / 1024.0),
    );
    let docs: Vec<xmldom::Document> = messages
        .iter()
        .map(|m| xmldom::parse(m).expect("parse message"))
        .collect();
    let opts = xmldom::SerializeOpts::default();
    let mut buf = String::new();
    let serialize_ms = time_ms(each, yard, || {
        buf.clear();
        for d in &docs {
            xmldom::serialize_document_into(d, &opts, &mut buf);
        }
        std::hint::black_box(&buf);
    });
    r.insert("xmldom.serialize_ms", serialize_ms);
    r.insert(
        "xmldom.serialize_mib_per_s",
        mib(bytes) / (serialize_ms / 1e3),
    );

    // xrpc-proto: envelope decode/encode and the s2n/n2s marshalling
    let decode = |side: fn(&Exchange) -> &[u8]| {
        for x in &calls {
            std::hint::black_box(parse_message(text(side(x))).expect("decode message"));
        }
    };
    let decode_request_ms = time_ms(each, yard, || decode(|x| &x.request));
    let decode_response_ms = time_ms(each, yard, || decode(|x| &x.response));
    let (mut requests, mut responses) = (Vec::new(), Vec::new());
    for x in &calls {
        match (
            parse_message(text(&x.request)),
            parse_message(text(&x.response)),
        ) {
            (Ok(XrpcMessage::Request(q)), Ok(XrpcMessage::Response(p))) => {
                requests.push(q);
                responses.push(p);
            }
            other => panic!("sample exchange is not a request and its response: {other:?}"),
        }
    }
    let encode_request_ms = time_ms(each, yard, || {
        buf.clear();
        for q in &requests {
            q.write_xml(&mut buf).expect("encode request");
        }
        std::hint::black_box(&buf);
    });
    let encode_response_ms = time_ms(each, yard, || {
        buf.clear();
        for p in &responses {
            p.write_xml(&mut buf).expect("encode response");
        }
        std::hint::black_box(&buf);
    });
    let sequences: Vec<&xdm::Sequence> = requests
        .iter()
        .flat_map(|q| q.calls.iter().flatten())
        .chain(responses.iter().flat_map(|p| p.results.iter()))
        .collect();
    let s2n_ms = time_ms(each, yard, || {
        buf.clear();
        for seq in &sequences {
            xrpc_proto::marshal::s2n_text_into(&mut buf, seq).expect("s2n");
        }
        std::hint::black_box(&buf);
    });
    let sequence_ids: Vec<Vec<xmldom::NodeId>> = docs.iter().map(sequence_elements).collect();
    let n2s_ms = time_ms(each, yard, || {
        for (doc, ids) in docs.iter().zip(&sequence_ids) {
            for &id in ids {
                std::hint::black_box(xrpc_proto::n2s(doc, id).expect("n2s"));
            }
        }
    });
    r.insert("xrpc-proto.decode_request_ms", decode_request_ms);
    r.insert("xrpc-proto.decode_response_ms", decode_response_ms);
    r.insert("xrpc-proto.encode_request_ms", encode_request_ms);
    r.insert("xrpc-proto.encode_response_ms", encode_response_ms);
    r.insert("xrpc-proto.s2n_ms", s2n_ms);
    r.insert("xrpc-proto.n2s_ms", n2s_ms);
    r.insert(
        "xrpc-proto.decode_self_ms",
        decode_request_ms + decode_response_ms - parse_ms,
    );

    // xqast and the peer's plan cache
    r.insert(
        "xqast.parse_ms",
        time_ms(each, yard, || {
            for q in &queries {
                std::hint::black_box(xqast::parse_main_module(q).expect("parse query"));
            }
        }),
    );
    let plan_all = || {
        for q in &queries {
            std::hint::black_box(a.plan_for(q).expect("plan"));
        }
    };
    r.insert("xrpc-peer.plan_hit_ms", time_ms(each, yard, plan_all));
    a.set_plan_cache_enabled(false);
    r.insert("xrpc-peer.plan_miss_ms", time_ms(each, yard, plan_all));
    a.set_plan_cache_enabled(true);

    // xqeval: the callee's function bodies, evaluated locally
    let (store, modules): (Arc<dyn xqeval::DocResolver>, _) = match &callee.served {
        Served::Peer(p) => (p.docs.clone(), p.modules.clone()),
        Served::Wrapper(wr) => (wr.docs.clone(), wr.modules.clone()),
    };
    let eval_ms = time_ms(each, yard, || {
        let env = xqeval::Environment::new(store.clone()).with_modules(modules.clone());
        std::hint::black_box(
            xqeval::evaluate_main(&cluster.replay.callee_query, &env).expect("callee body"),
        );
    });
    r.insert("xqeval.eval_ms", eval_ms);
    r.insert(
        "xqeval.eval_us_per_call",
        eval_ms * 1e3 / cluster.replay.calls as f64,
    );

    // xrpc-peer: the whole handler on the captured requests
    let mut n = 0u64;
    let handle_soap_ms = time_ms(each, yard, || {
        for x in &calls {
            n += 1;
            std::hint::black_box(handle(callee, &with_fresh_timestamp(&x.request, n)));
        }
    });
    r.insert("xrpc-peer.handle_soap_ms", handle_soap_ms);
    // what the handler adds to decoding, evaluating and encoding the reply
    r.insert(
        "xrpc-peer.dispatch_self_ms",
        handle_soap_ms - decode_request_ms - eval_ms - encode_response_ms,
    );

    // xrpc-net: the sample's bytes through a server that does nothing else
    {
        let canned: Vec<Vec<u8>> = calls.iter().map(|x| x.response.clone()).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let server = HttpServer::bind(
            "127.0.0.1:0",
            Arc::new(move |_: &str, _: &[u8]| {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                (200, canned[i % canned.len()].clone())
            }),
        )
        .expect("bind echo server");
        let (client, url) = (HttpTransport::new(), server.url());
        let echo_ms = time_ms(each, yard, || {
            for x in &calls {
                std::hint::black_box(client.roundtrip(&url, &x.request).expect("echo"));
            }
        });
        r.insert("xrpc-net.http_echo_ms", echo_ms);
        r.insert("xrpc-net.http_echo_mib_per_s", mib(bytes) / (echo_ms / 1e3));
    }

    // wal: the participant's forced appends for one commit
    if w == Workload::Update2pc {
        wal_replay(each, yard, out_dir, &mut r);
    }

    // xrpc-obs: how much of a query's wall time its profile names
    let shares: Vec<f64> = (0..5)
        .filter_map(|_| a.explain_analyze(queries[0]).ok())
        .filter_map(|(_, profile)| {
            let hop = profile.hops.iter().find(|h| h.depth == 0)?;
            Some(hop.phases.total_micros() as f64 / hop.total_micros.max(1) as f64)
        })
        .collect();
    r.insert("xrpc-obs.profile_attributed_share", median(&shares));

    // relalg: the caller's side of the queries with the wire and the callee
    // taken away, so that what is left after the envelope codec is
    // loop-lifting
    let live = a.transport().expect("caller has a transport");
    a.set_transport(Arc::new(Memo {
        live,
        seen: Default::default(),
    }));
    for _ in 0..3 {
        run_queries();
    }
    let lift_ms = time_ms(each, yard, run_queries);
    r.insert("relalg.lift_ms", lift_ms);
    r.insert(
        "relalg.lift_self_ms",
        lift_ms - encode_request_ms - decode_response_ms,
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_timestamp_replaces_only_the_query_id() {
        let req = b"<r seq=\"1\"><xrpc:queryID host=\"h\" timestamp=\"1700000000000\" timeout=\"30\"/></r>";
        let out = with_fresh_timestamp(req, 2);
        assert_eq!(
            text(&out),
            "<r seq=\"1\"><xrpc:queryID host=\"h\" timestamp=\"1700001000002\" timeout=\"30\"/></r>"
        );
        assert_eq!(with_fresh_timestamp(b"<r/>", 1), b"<r/>");
    }

    #[test]
    fn timing_stops_at_the_budget() {
        let mut n = 0;
        let ms = time_ms(Duration::from_millis(20), &mut Yardstick::new(), || {
            n += 1;
            std::thread::sleep(Duration::from_millis(5));
        });
        assert!((3..=6).contains(&n), "{n} iterations");
        assert!(ms > 0.0);
    }
}
