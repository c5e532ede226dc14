//! Distributed EXPLAIN ANALYZE end to end: a three-peer nested
//! `execute at` chain run with `xrpc:profile` must assemble ONE profile
//! at the originator — all three hops' operator trees with wall time and
//! item counts, phase breakdowns that never pass each hop's measured
//! latency and cover nearly all of a hop that waits on the wire, a
//! rendering folded-stack flamegraph — plus the always-on slow-query log
//! (slow queries appear exactly once, fast ones never, and with the same
//! phases whether profiled or not).

use std::sync::Arc;
use std::time::Duration;
use xrpc_net::{NetProfile, SimNetwork};
use xrpc_obs::{HopProfile, Phase, ProfileMode, QueryProfile};
use xrpc_peer::{EngineKind, Peer};

const O_URI: &str = "xrpc://origin.example.org";
const A_URI: &str = "xrpc://a.example.org";
const B_URI: &str = "xrpc://b.example.org";

const MODULE: &str = r#"
    module namespace t = "test";
    declare function t:leaf() { count(doc("data.xml")//item) };
    declare function t:cascade()
    { execute at {"xrpc://b.example.org"} {t:leaf()} };
"#;

const DATA: &str = "<data><item>1</item><item>2</item><item>3</item></data>";

struct Cluster {
    o: Arc<Peer>,
    a: Arc<Peer>,
    b: Arc<Peer>,
}

fn cluster() -> Cluster {
    cluster_on(NetProfile::instant(), EngineKind::Tree)
}

/// The three peers over `profile`, the originator on `engine`.
fn cluster_on(profile: NetProfile, engine: EngineKind) -> Cluster {
    let net = Arc::new(SimNetwork::new(profile));
    let o = Peer::new(O_URI, engine);
    let a = Peer::new(A_URI, EngineKind::Tree);
    let b = Peer::new(B_URI, EngineKind::Tree);
    for p in [&o, &a, &b] {
        p.register_module(MODULE).unwrap();
        p.add_document("data.xml", DATA).unwrap();
        p.set_transport(net.clone());
    }
    net.register(A_URI, a.soap_handler());
    net.register(B_URI, b.soap_handler());
    Cluster { o, a, b }
}

fn hop<'p>(prof: &'p QueryProfile, peer: &str) -> &'p HopProfile {
    prof.hops
        .iter()
        .find(|h| h.peer == peer)
        .unwrap_or_else(|| panic!("no hop for {peer} in {prof:#?}"))
}

/// Depth-first search of an operator tree for a node by name.
fn find_op<'o>(ops: &'o [xrpc_obs::OpNode], name: &str) -> Option<&'o xrpc_obs::OpNode> {
    for op in ops {
        if op.name == name {
            return Some(op);
        }
        if let Some(found) = find_op(&op.children, name) {
            return Some(found);
        }
    }
    None
}

const CHAIN_QUERY: &str = r#"declare option xrpc:profile "full";
       import module namespace t = "test";
       execute at {"xrpc://a.example.org"} {t:cascade()}"#;

#[test]
fn nested_execute_chain_assembles_one_profile() {
    let cl = cluster();
    // Warm the plan cache first so the asserted run's phase accounting is
    // not skewed by one-time compilation (charged on the miss only).
    cl.o.execute(CHAIN_QUERY).unwrap();
    let out = cl.o.execute_detailed(CHAIN_QUERY).unwrap();
    assert_eq!(out.result.items()[0].string_value(), "3");

    let prof = out.profile.expect("xrpc:profile must yield a profile");
    assert_eq!(prof.hops.len(), 3, "one hop per peer: {prof:#?}");
    assert_ne!(prof.trace_id, 0);

    // The hop chain: originator (depth 0, nobody's callee) → a → b, every
    // hop stamped with the shared trace id.
    let o_hop = hop(&prof, O_URI);
    assert_eq!(o_hop.depth, 0);
    assert_eq!(o_hop.via, "");
    let a_hop = hop(&prof, A_URI);
    assert_eq!(a_hop.depth, 1);
    assert_eq!(a_hop.via, O_URI);
    let b_hop = hop(&prof, B_URI);
    assert_eq!(b_hop.depth, 2);
    assert_eq!(b_hop.via, A_URI);
    for h in &prof.hops {
        assert_eq!(h.trace_id, prof.trace_id, "hop escaped the trace: {h:#?}");
        assert!(h.total_micros > 0, "hop has a measured total: {h:#?}");
    }

    // Per-operator stats at every hop. The originator's execute-at saw
    // the whole remote round-trip (timed wall) and carried wire bytes.
    let o_exec = find_op(&o_hop.ops, "xq:execute-at").expect("originator execute-at op");
    assert_eq!(o_exec.calls, 1);
    assert_eq!(o_exec.timed_calls, 1, "full mode times every call");
    assert!(o_exec.wall_micros > 0, "remote round-trip took time");
    assert!(o_exec.bytes > 0, "wire bytes attributed to the dispatch");
    // a callee evaluates a request on the lifted engine: a remote call is
    // `rel:execute-at`, the rest the tree engine's operators in a fallback
    assert!(
        find_op(&a_hop.ops, "rel:execute-at").is_some(),
        "{a_hop:#?}"
    );
    let b_path = find_op(&b_hop.ops, "xq:path-step").expect("leaf path step at b");
    assert!(b_path.calls >= 1);
    assert_eq!(b_path.items, 3, "//item produced three items");

    assert_phases_add_up(&prof, &[]);
    assert_eq!(o_hop.phases.cache, "hit", "second run hits the plan cache");
    assert!(o_hop.phases[Phase::Network] > 0, "{o_hop:#?}");

    // Both renderings work: JSON carries every peer and operator; the
    // folded flamegraph nests callee hops under their callers and every
    // line parses as `stack count`.
    let json = prof.to_json();
    for needle in [O_URI, A_URI, B_URI, "xq:execute-at", "xq:path-step"] {
        assert!(json.contains(needle), "JSON missing {needle}: {json}");
    }
    let folded = prof.to_folded();
    assert!(!folded.is_empty());
    assert!(
        folded.contains(&format!("{O_URI};{A_URI}")),
        "callee nested under caller:\n{folded}"
    );
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty());
        count.parse::<u64>().expect("count is an integer");
    }

    // The remote peers kept nothing: profiles travel home in the
    // response header, they are not server-side state.
    assert_eq!(cl.a.slowlog.entries_logged(), 0);
    assert_eq!(cl.b.slowlog.entries_logged(), 0);
}

/// No hop's phases sum past its measured span, exactly; on the `covered`
/// hops, which wait on the wire for most of it, they name ≥ 95 % of it.
/// (A leaf's span is short, and a deschedule outside its phases lands in
/// its remainder.)
fn assert_phases_add_up(prof: &QueryProfile, covered: &[&str]) {
    for h in &prof.hops {
        let sum = h.phases.total_micros();
        assert!(
            sum <= h.total_micros,
            "phases overshoot hop total at {}: {sum} vs {}: {:#?}",
            h.peer,
            h.total_micros,
            h.phases
        );
        assert!(
            !covered.contains(&h.peer.as_str()) || sum * 100 >= h.total_micros * 95,
            "phases cover too little of the hop at {}: {sum} vs {}: {:#?}",
            h.peer,
            h.total_micros,
            h.phases
        );
    }
}

/// The same chain over a network with 5 ms each way: every hop that calls
/// spends most of its time waiting on the wire, and that wait is charged
/// once, to network — not again to the execute phase around it.
#[test]
fn phases_add_up_on_every_hop_of_a_slow_chain() {
    let cl = cluster_on(
        NetProfile::with_latency(Duration::from_millis(5)),
        EngineKind::Tree,
    );
    cl.o.execute(CHAIN_QUERY).unwrap();
    let prof = (cl.o.execute_detailed(CHAIN_QUERY).unwrap().profile).expect("a profile");
    assert_eq!(prof.hops.len(), 3, "one hop per peer: {prof:#?}");
    assert_phases_add_up(&prof, &[O_URI, A_URI]);
    // a waits 10 ms on its call to b; the originator 20 ms on its call to a
    assert!(
        hop(&prof, A_URI).phases[Phase::Network] >= 10_000,
        "{prof:#?}"
    );
    assert!(
        hop(&prof, O_URI).phases[Phase::Network] >= 20_000,
        "{prof:#?}"
    );
}

/// The lifted engine sends a loop's calls to two destinations at once, one
/// thread each. Their round trips overlap, so the hop's network phase is
/// about the slower one, not the sum of both.
#[test]
fn parallel_round_trips_are_charged_once() {
    let cl = cluster_on(
        NetProfile::with_latency(Duration::from_millis(5)),
        EngineKind::Rel,
    );
    let (result, prof) =
        cl.o.explain_analyze(
            r#"import module namespace t = "test";
               for $d in ("xrpc://a.example.org", "xrpc://b.example.org")
               return execute at {$d} {t:leaf()}"#,
        )
        .unwrap();
    assert_eq!(result.len(), 2);
    assert_eq!(prof.hops.len(), 3, "one hop per peer: {prof:#?}");
    assert_phases_add_up(&prof, &[O_URI]);
    let round_trips = cl.o.hists.call_latency_micros.snapshot();
    assert_eq!(round_trips.count, 2, "one request per destination");
    let network = hop(&prof, O_URI).phases[Phase::Network];
    assert!(network >= 10_000, "{prof:#?}");
    assert!(
        network * 2 < round_trips.max * 3,
        "network {network} µs against a slower round trip of {} µs: {prof:#?}",
        round_trips.max
    );
}

/// A slow query that is not profiled logs the phases a profiled one would:
/// its network wait apart from the execution around it.
#[test]
fn an_unprofiled_slow_query_logs_its_network_apart() {
    let cl = cluster_on(
        NetProfile::with_latency(Duration::from_millis(5)),
        EngineKind::Tree,
    );
    cl.o.slowlog.set_threshold_millis(5);
    let out =
        cl.o.execute_detailed(
            r#"import module namespace t = "test";
               execute at {"xrpc://b.example.org"} {t:leaf()}"#,
        )
        .unwrap();
    assert!(out.profile.is_none());
    let line = cl.o.slowlog.render();
    assert_eq!(line.lines().count(), 1, "{line}");
    let micros = |name: &str| -> u64 {
        let at = line.find(&format!("\"{name}\":")).expect(name) + name.len() + 3;
        let digits = line[at..].split(|c: char| !c.is_ascii_digit()).next();
        digits.unwrap().parse().expect(name)
    };
    let (network, execute) = (micros("networkMicros"), micros("executeMicros"));
    assert!(network >= 10_000, "{line}");
    assert!(
        network + execute <= micros("totalMicros"),
        "execute excludes the network wait: {line}"
    );
}

/// Without the option no profile is collected, and an unknown profile
/// value means "off" — never an error, never a changed result.
#[test]
fn profile_is_opt_in_and_lenient() {
    let cl = cluster();
    let out = cl.o.execute_detailed("1 + 1").unwrap();
    assert!(out.profile.is_none(), "profiling must be opt-in");
    let out =
        cl.o.execute_detailed(r#"declare option xrpc:profile "bogus"; 2 + 2"#)
            .unwrap();
    assert!(out.profile.is_none(), "unknown mode means off");
    assert_eq!(out.result.items()[0].string_value(), "4");
}

/// `explain` compiles but does not execute: it reports the plan's static
/// properties, and its cache disposition flips miss → hit.
#[test]
fn explain_is_compile_only() {
    let cl = cluster();
    let q = r#"declare option xrpc:isolation "repeatable"; count(doc("data.xml")//item)"#;
    let first = cl.o.explain(q).unwrap();
    assert!(first.contains("\"engine\":\"tree\""), "{first}");
    assert!(first.contains("\"cache\":\"miss\""), "{first}");
    assert!(first.contains("\"isolation\":\"repeatable\""), "{first}");
    let second = cl.o.explain(q).unwrap();
    assert!(second.contains("\"cache\":\"hit\""), "{second}");
}

/// `explain_analyze` forces full (stride-1) profiling regardless of the
/// query's own options and returns result + profile together.
#[test]
fn explain_analyze_forces_full_profiling() {
    let cl = cluster();
    let (result, prof) =
        cl.o.explain_analyze(r#"count(doc("data.xml")//item)"#)
            .unwrap();
    assert_eq!(result.items()[0].string_value(), "3");
    assert_eq!(prof.hops.len(), 1, "purely local query: one hop");
    let path = find_op(&prof.hops[0].ops, "xq:path-step").expect("path step profiled");
    assert_eq!(
        path.calls, path.timed_calls,
        "explain_analyze times every call"
    );
    assert_eq!(path.items, 3);
}

/// The loop-lifted engine reports its own operator names. Only
/// XRPC-bearing expressions take the lifted path (everything else
/// deliberately falls back to the tree evaluator), so the profiled
/// FLWOR must wrap an `execute at`.
#[test]
fn rel_engine_ops_carry_rel_prefix() {
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let p = Peer::new("xrpc://rel.example.org", EngineKind::Rel);
    let b = Peer::new(B_URI, EngineKind::Tree);
    for peer in [&p, &b] {
        peer.register_module(MODULE).unwrap();
        peer.add_document("data.xml", DATA).unwrap();
        peer.set_transport(net.clone());
    }
    net.register(B_URI, b.soap_handler());

    let (result, prof) = p
        .explain_analyze(
            r#"import module namespace t = "test";
               for $i in (1, 2, 3)
               return execute at {"xrpc://b.example.org"} {t:leaf()}"#,
        )
        .unwrap();
    assert_eq!(result.len(), 3);
    let origin = hop(&prof, "xrpc://rel.example.org");
    assert!(
        find_op(&origin.ops, "rel:flwor").is_some(),
        "lifted FLWOR profiled: {prof:#?}"
    );
    assert!(
        find_op(&origin.ops, "rel:execute-at").is_some(),
        "lifted dispatch profiled: {prof:#?}"
    );
}

/// The always-on slow-query log: one slow query appears exactly once,
/// fast queries never, and the entry carries the stable query hash that
/// `explain` reports.
#[test]
fn slow_queries_logged_exactly_once() {
    let p = Peer::new("xrpc://slow.example.org", EngineKind::Tree);
    p.slowlog.set_threshold_millis(40);

    let slow = "count(for $i in 1 to 300000 return $i * 2)";
    let fast = "1 + 1";
    let hash_of = |explain: &str| -> String {
        let tail = explain
            .split("\"queryHash\":\"")
            .nth(1)
            .expect("hash field");
        tail[..16].to_string()
    };
    let slow_hash = hash_of(&p.explain(slow).unwrap());
    let fast_hash = hash_of(&p.explain(fast).unwrap());

    p.execute(slow).unwrap();
    for _ in 0..5 {
        p.execute(fast).unwrap();
    }

    let rendered = p.slowlog.render();
    assert_eq!(
        rendered.lines().count(),
        1,
        "exactly one slow entry:\n{rendered}"
    );
    assert!(
        rendered.contains(&format!("\"queryHash\":\"{slow_hash}\"")),
        "entry identifies the slow query:\n{rendered}"
    );
    assert!(
        !rendered.contains(&format!("\"queryHash\":\"{fast_hash}\"")),
        "fast queries never logged:\n{rendered}"
    );
    assert!(rendered.contains("\"engine\":\"tree\""), "{rendered}");
    assert!(rendered.contains("\"cache\":\"hit\""), "{rendered}");
    assert_eq!(p.slowlog.entries_logged(), 1);
    assert_eq!(p.slowlog.entries_dropped(), 0);

    // The profile mode survives in the plan cache: a prepared execution
    // reuses the plan's profile option.
    let prepared = p
        .prepare(r#"declare option xrpc:profile "on"; 1 + 1"#)
        .unwrap();
    assert_eq!(prepared.plan_profile(), ProfileMode::Sampled);
}
