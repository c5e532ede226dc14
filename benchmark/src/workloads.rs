//! The five workloads: how each builds its cluster from the seed, what one
//! operation is, and how its result is checked.

use crate::cluster::{Node, Served};
use crate::stats::{fnv1a, SplitMix, FNV_OFFSET};
use crate::trace::{PeerTrace, Tracer};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdm::{Item, Sequence};
use xrpc_peer::{CommitOutcome, EngineKind, FsyncPolicy, Peer, WalConfig, XrpcWrapper};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RpcSmall,
    BulkGetPerson,
    Payload4m,
    Q7Mix,
    Update2pc,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::RpcSmall,
        Workload::BulkGetPerson,
        Workload::Payload4m,
        Workload::Q7Mix,
        Workload::Update2pc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RpcSmall => "rpc_small",
            Workload::BulkGetPerson => "bulk_getperson",
            Workload::Payload4m => "payload_4m",
            Workload::Q7Mix => "q7_mix",
            Workload::Update2pc => "update_2pc",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations run before timing starts, part of `setup_s`. A count, not
    /// a duration: work that a change moves from set-up into the first calls
    /// (lazy indexes, cold caches) then shows up as a longer set-up.
    pub fn warmup_ops(self) -> u64 {
        match self {
            Workload::RpcSmall => 12_000,
            Workload::BulkGetPerson => 40,
            Workload::Payload4m => 8,
            Workload::Q7Mix => 50,
            Workload::Update2pc => 1_500,
        }
    }
}

const BULK_CALLS: usize = 1_000;
const BULK_PERSONS: usize = 2_000;
/// Distinct query texts `bulk_getperson` cycles through (all warmed).
const BULK_OFFSETS: usize = 4;
const PAYLOAD_BYTES: usize = 4 << 20;
const Q7_MATCHES: usize = 6;

const THROUGHPUT_MODULE: &str = r#"
module namespace tp = "throughput";
declare function tp:consume($x) as xs:integer { count($x) };
declare function tp:produce() as node()* { doc("payload.xml")/payload/chunk };
"#;

/// The U1 update shape (a `replace value of node` on a small document that
/// never grows), made checkable: each client bumps the counter in its own
/// document, so the store must end up holding exactly the acknowledged
/// commits. One document per client, because two isolated transactions that
/// update the same document concurrently lose one of the updates (the later
/// commit installs its own snapshot's copy) — true of different nodes too.
const UPDATE_MODULE: &str = r#"
module namespace u = "u1";
declare updating function u:bump($doc as xs:string)
{ replace value of node doc($doc)/log/e
  with (doc($doc)/log/e cast as xs:integer) + 1 };
"#;

/// One benchmark client: runs operation number `op` and checks its result.
/// Returns the time spent inside `Peer::execute` (the latency a caller sees;
/// checking the result is not part of it).
pub type Client = Box<dyn FnMut(u64) -> Result<Duration, String> + Send>;

/// Checks a round once it is over, given the operations each client had
/// acknowledged (warm-up included).
pub type Verify = Box<dyn FnOnce(&[u64]) -> Result<(), String> + Send>;

/// How long the parts of set-up took (the `--trace 1` split of `setup_s`).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupSplit {
    pub generate_s: f64,
    pub add_document_s: f64,
    pub bind_s: f64,
}

/// A replayable sample of the workload: the query a client runs and the
/// function body the callee evaluates for it, for the per-layer replay.
pub struct ReplayInputs {
    /// The sampled queries with their `execute` span labels: the whole
    /// operation, except for q7_mix, where it is the semi-join alone.
    pub queries: Vec<(&'static str, String)>,
    /// A query that evaluates the callee's function locally at `callee`,
    /// the way the request would, without any messaging.
    pub callee_query: String,
    /// Calls per message of the sample (to report eval time per call).
    pub calls: usize,
}

/// One round's cluster, ready to be warmed and measured.
pub struct Cluster {
    pub nodes: Vec<Node>,
    pub clients: Vec<Client>,
    pub split: SetupSplit,
    pub input_hash: u64,
    pub replay: ReplayInputs,
    /// Index into `nodes` of the peer that runs the client queries, and of
    /// the one that serves them.
    pub caller: usize,
    pub callee: usize,
    pub verify: Option<Verify>,
    wal_dir: Option<PathBuf>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.clients.clear();
        self.nodes.clear();
        if let Some(dir) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

struct Timer(Instant);

impl Timer {
    fn lap(&mut self) -> f64 {
        let s = self.0.elapsed().as_secs_f64();
        self.0 = Instant::now();
        s
    }
}

fn traces(tracer: Option<&Arc<Tracer>>, labels: &[&'static str]) -> Vec<Option<Arc<PeerTrace>>> {
    labels
        .iter()
        .map(|l| tracer.map(|t| PeerTrace::new(t.clone(), l)))
        .collect()
}

/// Run `query` at `peer` as part of operation `op`, inside an `execute` span
/// when tracing.
fn execute(
    peer: &Peer,
    trace: Option<&Arc<PeerTrace>>,
    op: u64,
    label: &'static str,
    query: &str,
) -> Result<(Sequence, Duration), String> {
    let run = || {
        let t0 = Instant::now();
        let r = peer.execute(query);
        (r, t0.elapsed())
    };
    let (r, took) = match trace {
        Some(t) => t.execute(op, label, run),
        None => run(),
    };
    r.map(|seq| (seq, took)).map_err(|e| e.to_string())
}

fn hash_all(parts: &[&str]) -> u64 {
    parts
        .iter()
        .fold(FNV_OFFSET, |h, p| fnv1a(fnv1a(h, p.as_bytes()), &[0xFF]))
}

fn element_named(item: &Item, local: &str) -> bool {
    matches!(item, Item::Node(n) if n.name().is_some_and(|q| q.local == local))
}

/// Build one round's cluster. `out_dir` is where `update_2pc` keeps its WAL.
pub fn build(
    w: Workload,
    seed: u64,
    round: usize,
    tracer: Option<&Arc<Tracer>>,
    out_dir: &Path,
) -> Cluster {
    match w {
        Workload::RpcSmall => rpc_small(tracer),
        Workload::BulkGetPerson => bulk_getperson(seed, tracer),
        Workload::Payload4m => payload_4m(tracer),
        Workload::Q7Mix => q7_mix(seed, tracer),
        Workload::Update2pc => update_2pc(round, tracer, out_dir),
    }
}

/// A (rel) → B (tree), the pairing of the paper's Table 2.
fn pair(tracer: Option<&Arc<Tracer>>, prepare: impl Fn(&Arc<Peer>, bool)) -> (Vec<Node>, f64, f64) {
    let mut t = Timer(Instant::now());
    let a = Peer::new("unbound", EngineKind::Rel);
    let b = Peer::new("unbound", EngineKind::Tree);
    prepare(&a, false);
    prepare(&b, true);
    let add_document_s = t.lap();
    let tr = traces(tracer, &["A", "B"]);
    let nodes = vec![
        Node::bind(Served::Peer(a), tr[0].clone()),
        Node::bind(Served::Peer(b), tr[1].clone()),
    ];
    (nodes, add_document_s, t.lap())
}

fn rpc_small(tracer: Option<&Arc<Tracer>>) -> Cluster {
    let (nodes, add_document_s, bind_s) = pair(tracer, |p, _| {
        p.register_module(xmark::test_module())
            .expect("test module");
    });
    let query = format!(
        "import module namespace t = \"test\";\nexecute at {{\"{}\"}} {{t:echoVoid()}}",
        nodes[1].url
    );
    let (a, trace, q) = (
        nodes[0].peer().clone(),
        nodes[0].trace.clone(),
        query.clone(),
    );
    let client: Client = Box::new(move |op| {
        let (res, took) = execute(&a, trace.as_ref(), op, "echoVoid", &q)?;
        if !res.is_empty() {
            return Err(format!("echoVoid returned {} items", res.len()));
        }
        Ok(took)
    });
    Cluster {
        input_hash: hash_all(&[&query.replace(&nodes[1].url, "B")]),
        replay: ReplayInputs {
            queries: vec![("echoVoid", query)],
            callee_query: "import module namespace t = \"test\";\nt:echoVoid()".into(),
            calls: 1,
        },
        nodes,
        clients: vec![client],
        split: SetupSplit {
            generate_s: 0.0,
            add_document_s,
            bind_s,
        },
        caller: 0,
        callee: 1,
        verify: None,
        wal_dir: None,
    }
}

fn bulk_getperson(seed: u64, tracer: Option<&Arc<Tracer>>) -> Cluster {
    let mut t = Timer(Instant::now());
    let params = xmark::XmarkParams {
        persons: BULK_PERSONS,
        closed_auctions: 0,
        matches: 0,
        padding_words: 16,
        seed,
    };
    let persons = xmark::persons_xml(&params);
    let mut rng = SplitMix(seed);
    let offsets: Vec<usize> = (0..BULK_OFFSETS)
        .map(|_| (rng.next() % BULK_PERSONS as u64) as usize)
        .collect();
    let generate_s = t.lap();
    let (nodes, add_document_s, bind_s) = pair(tracer, |p, serves| {
        p.register_module(xmark::functions_module())
            .expect("functions module");
        if serves {
            p.add_document("persons.xml", &persons)
                .expect("persons.xml");
        }
    });
    let queries: Vec<String> = offsets
        .iter()
        .map(|off| {
            format!(
                "import module namespace func = \"functions\";\nfor $i in (1 to {BULK_CALLS})\nreturn execute at {{\"{}\"}} {{func:getPerson(\"persons.xml\", concat(\"person\", string(($i + {off}) mod {BULK_PERSONS})))}}",
                nodes[1].url
            )
        })
        .collect();
    let (a, trace) = (nodes[0].peer().clone(), nodes[0].trace.clone());
    let (qs, offs) = (queries.clone(), offsets.clone());
    let client: Client = Box::new(move |op| {
        let k = op as usize % qs.len();
        let (res, took) = execute(&a, trace.as_ref(), op, "getPerson", &qs[k])?;
        if res.len() != BULK_CALLS {
            return Err(format!("getPerson x{BULK_CALLS} returned {}", res.len()));
        }
        for (i, item) in res.iter().enumerate() {
            let want = format!("person{}", (i + 1 + offs[k]) % BULK_PERSONS);
            let ok = element_named(item, "person")
                && item
                    .as_node()
                    .is_some_and(|n| n.doc.attr_local(n.id, "id") == Some(want.as_str()));
            if !ok {
                return Err(format!("call {} did not return {want}", i + 1));
            }
        }
        Ok(took)
    });
    let offsets_text = format!("{offsets:?}");
    Cluster {
        input_hash: hash_all(&[&persons, &offsets_text]),
        replay: ReplayInputs {
            queries: vec![("getPerson", queries[0].clone())],
            callee_query: format!(
                "import module namespace func = \"functions\";\nfor $i in (1 to {BULK_CALLS})\nreturn func:getPerson(\"persons.xml\", concat(\"person\", string(($i + {}) mod {BULK_PERSONS})))",
                offsets[0]
            ),
            calls: BULK_CALLS,
        },
        nodes,
        clients: vec![client],
        split: SetupSplit {
            generate_s,
            add_document_s,
            bind_s,
        },
        caller: 0,
        callee: 1,
        verify: None,
        wal_dir: None,
    }
}

fn payload_4m(tracer: Option<&Arc<Tracer>>) -> Cluster {
    let mut t = Timer(Instant::now());
    let payload = xmark::payload_xml(PAYLOAD_BYTES);
    let chunks = payload.matches("<chunk>").count();
    let generate_s = t.lap();
    let (nodes, add_document_s, bind_s) = pair(tracer, |p, _| {
        p.register_module(THROUGHPUT_MODULE)
            .expect("throughput module");
        p.add_document("payload.xml", &payload)
            .expect("payload.xml");
    });
    let b = &nodes[1].url;
    let request_heavy = format!(
        "import module namespace tp = \"throughput\";\nexecute at {{\"{b}\"}} {{tp:consume(doc(\"payload.xml\")/payload/chunk)}}"
    );
    let response_heavy = format!(
        "import module namespace tp = \"throughput\";\ncount(execute at {{\"{b}\"}} {{tp:produce()}})"
    );
    let (a, trace) = (nodes[0].peer().clone(), nodes[0].trace.clone());
    let (rq, rs) = (request_heavy.clone(), response_heavy.clone());
    let client: Client = Box::new(move |op| {
        let mut busy = Duration::ZERO;
        for (label, q) in [("request_heavy", &rq), ("response_heavy", &rs)] {
            let (res, took) = execute(&a, trace.as_ref(), op, label, q)?;
            busy += took;
            let got = res.first().map(Item::string_value).unwrap_or_default();
            if res.len() != 1 || got != chunks.to_string() {
                return Err(format!(
                    "{label} counted {got:?}, document has {chunks} chunks"
                ));
            }
        }
        Ok(busy)
    });
    Cluster {
        input_hash: hash_all(&[&payload]),
        replay: ReplayInputs {
            queries: vec![
                ("request_heavy", request_heavy),
                ("response_heavy", response_heavy),
            ],
            callee_query:
                "import module namespace tp = \"throughput\";\n(tp:consume(doc(\"payload.xml\")/payload/chunk), count(tp:produce()))"
                    .into(),
            calls: 2,
        },
        nodes,
        clients: vec![client],
        split: SetupSplit {
            generate_s,
            add_document_s,
            bind_s,
        },
        caller: 0,
        callee: 1,
        verify: None,
        wal_dir: None,
    }
}

pub const Q7_LABELS: [&str; 4] = ["data_shipping", "pushdown", "relocation", "semijoin"];

fn q7_mix(seed: u64, tracer: Option<&Arc<Tracer>>) -> Cluster {
    let mut t = Timer(Instant::now());
    let params = xmark::XmarkParams {
        persons: 120,
        closed_auctions: 480,
        matches: Q7_MATCHES,
        padding_words: 20,
        seed,
    };
    let persons = xmark::persons_xml(&params);
    let auctions = xmark::auctions_xml(&params);
    let generate_s = t.lap();
    let a = Peer::new("unbound", EngineKind::Rel);
    a.add_document("persons.xml", &persons)
        .expect("persons.xml");
    a.register_module(distq::MODULE_B).expect("module B at A");
    // as the repo's own Table 4 run does: without invariant hoisting the
    // push-down query ships every closed auction once per person
    a.set_rpc_optimize(true);
    let wrapper = XrpcWrapper::new();
    wrapper.docs.insert(
        "auctions.xml",
        xmldom::parse(&auctions).expect("auctions.xml"),
    );
    wrapper
        .modules
        .register_source(distq::MODULE_B)
        .expect("module B at B");
    let add_document_s = t.lap();
    let tr = traces(tracer, &["A", "B"]);
    let nodes = vec![
        Node::bind(Served::Peer(a), tr[0].clone()),
        Node::bind(Served::Wrapper(wrapper), tr[1].clone()),
    ];
    let bind_s = t.lap();
    let queries: Vec<String> = distq::Strategy::ALL
        .iter()
        .map(|s| s.query(&nodes[1].url, &nodes[0].url))
        .collect();
    let (a, trace, qs) = (
        nodes[0].peer().clone(),
        nodes[0].trace.clone(),
        queries.clone(),
    );
    let client: Client = Box::new(move |op| {
        let mut busy = Duration::ZERO;
        let mut first: Option<Vec<String>> = None;
        for (label, q) in Q7_LABELS.into_iter().zip(&qs) {
            let (res, took) = execute(&a, trace.as_ref(), op, label, q)?;
            busy += took;
            if res.len() != Q7_MATCHES || !res.iter().all(|i| element_named(i, "result")) {
                return Err(format!("{label}: {} results, want {Q7_MATCHES}", res.len()));
            }
            // the strategies may order the join differently: compare as sets
            let mut set: Vec<String> = res
                .iter()
                .filter_map(|i| i.as_node().map(|n| n.to_xml()))
                .collect();
            set.sort();
            match &first {
                None => first = Some(set),
                Some(f) if *f != set => {
                    return Err(format!("{label} disagrees with {}", Q7_LABELS[0]))
                }
                Some(_) => {}
            }
        }
        Ok(busy)
    });
    Cluster {
        input_hash: hash_all(&[&persons, &auctions]),
        replay: ReplayInputs {
            queries: vec![(Q7_LABELS[3], queries[3].clone())],
            // what the semi-join's Bulk RPC makes the callee evaluate
            callee_query: format!(
                "import module namespace b = \"functions_b\";\nfor $i in (0 to {}) return b:Q_B3(concat(\"person\", string($i)))",
                params.persons - 1
            ),
            calls: params.persons,
        },
        nodes,
        clients: vec![client],
        split: SetupSplit {
            generate_s,
            add_document_s,
            bind_s,
        },
        caller: 0,
        callee: 1,
        verify: None,
        wal_dir: None,
    }
}

/// Concurrent updaters: enough for WAL group commit to have something to
/// coalesce, no more than the host has processors (counted on first use,
/// which `main` makes before it pins the process to one of them).
pub fn update_clients() -> usize {
    static CLIENTS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CLIENTS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(2)))
}

fn counter_values(b: &Peer, clients: usize) -> Vec<String> {
    (1..=clients)
        .map(|slot| {
            let doc = b.docs.get(&format!("log{slot}.xml")).expect("log document");
            doc.string_value(doc.root())
        })
        .collect()
}

fn update_2pc(round: usize, tracer: Option<&Arc<Tracer>>, out_dir: &Path) -> Cluster {
    let mut t = Timer(Instant::now());
    let n = update_clients();
    let log_xml = "<log><e>0</e></log>";
    let b = Peer::new("unbound", EngineKind::Tree);
    b.register_module(UPDATE_MODULE).expect("update module");
    for slot in 1..=n {
        b.add_document(&format!("log{slot}.xml"), log_xml)
            .expect("log document");
    }
    let wal_dir = out_dir.join(format!("wal-{}-{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(out_dir).expect("create out dir");
    let wal_config = WalConfig {
        fsync: FsyncPolicy::Always,
        group_commit: true,
        ..WalConfig::default()
    };
    b.attach_wal_with(&wal_dir, wal_config).expect("attach WAL");
    let add_document_s = t.lap();
    // One originating peer per client thread: distinct originators
    // contending on one participant.
    let labels = ["B", "A1", "A2"];
    let tr = traces(tracer, &labels[..n + 1]);
    let mut nodes = vec![Node::bind(Served::Peer(b), tr[0].clone())];
    for trace in &tr[1..] {
        let a = Peer::new("unbound", EngineKind::Rel);
        a.register_module(UPDATE_MODULE).expect("update module");
        nodes.push(Node::bind(Served::Peer(a), trace.clone()));
    }
    let bind_s = t.lap();
    let query = |slot: usize| {
        format!(
            "declare option xrpc:isolation \"repeatable\";\nimport module namespace u = \"u1\";\nexecute at {{\"{}\"}} {{u:bump(\"log{slot}.xml\")}}",
            nodes[0].url
        )
    };
    let clients: Vec<Client> = (1..=n)
        .map(|slot| {
            let (a, trace, q) = (
                nodes[slot].peer().clone(),
                nodes[slot].trace.clone(),
                query(slot),
            );
            let client: Client = Box::new(move |op| {
                let run = || {
                    let t0 = Instant::now();
                    let r = a.execute_detailed(&q);
                    (r, t0.elapsed())
                };
                let (r, took) = match &trace {
                    Some(t) => t.execute(op, "bump", run),
                    None => run(),
                };
                match r.map_err(|e| e.to_string())?.commit {
                    Some(CommitOutcome::Committed { participants: 1 }) => Ok(took),
                    other => Err(format!("not committed at one participant: {other:?}")),
                }
            });
            client
        })
        .collect();
    // Durability: every acknowledged commit is in the store, and a fresh peer
    // replaying the same WAL directory finds nothing left to settle.
    let (b, dir) = (nodes[0].peer().clone(), wal_dir.clone());
    let verify = Box::new(move |acked: &[u64]| {
        let want: Vec<String> = acked.iter().map(u64::to_string).collect();
        let have = counter_values(&b, acked.len());
        if have != want {
            return Err(format!(
                "store holds {have:?}, clients were acknowledged {want:?}"
            ));
        }
        let commits = b.twopc_metrics.snapshot().commits;
        if commits != acked.iter().sum::<u64>() {
            return Err(format!(
                "participant applied {commits} commits, acknowledged {want:?}"
            ));
        }
        let restarted = Peer::new_with_docs(b.name(), EngineKind::Tree, b.docs.clone());
        let report = restarted
            .attach_wal_with(&dir, wal_config)
            .map_err(|e| format!("replay failed: {e}"))?;
        if report != xrpc_peer::RecoveryReport::default() {
            return Err(format!("replay had work left: {report:?}"));
        }
        let replayed = counter_values(&restarted, acked.len());
        if replayed != want {
            return Err(format!(
                "after replay the store holds {replayed:?}, want {want:?}"
            ));
        }
        Ok(())
    });
    Cluster {
        input_hash: hash_all(&[log_xml, UPDATE_MODULE]),
        replay: ReplayInputs {
            queries: vec![("bump", query(1))],
            // an updating function cannot be evaluated outside a
            // transaction; replay times the read half of its body
            callee_query: "(doc(\"log1.xml\")/log/e cast as xs:integer) + 1".into(),
            calls: 1,
        },
        nodes,
        clients,
        split: SetupSplit {
            generate_s: 0.0,
            add_document_s,
            bind_s,
        },
        caller: 1,
        callee: 0,
        verify: Some(verify),
        wal_dir: Some(wal_dir),
    }
}
