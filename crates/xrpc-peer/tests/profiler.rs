//! Distributed EXPLAIN ANALYZE end to end: a three-peer nested
//! `execute at` chain run with `xrpc:profile` must assemble ONE profile
//! at the originator — all three hops' operator trees with wall time and
//! item counts, phase breakdowns that account for each hop's measured
//! latency, a rendering folded-stack flamegraph — plus the always-on
//! slow-query log (slow queries appear exactly once, fast ones never).

use std::sync::Arc;
use std::time::Duration;
use xrpc_net::{NetProfile, SimNetwork};
use xrpc_obs::{HopProfile, ProfileMode, QueryProfile};
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
    cluster_on(NetProfile::instant())
}

fn cluster_on(profile: NetProfile) -> Cluster {
    let net = Arc::new(SimNetwork::new(profile));
    let o = Peer::new(O_URI, EngineKind::Tree);
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
    assert!(find_op(&a_hop.ops, "xq:execute-at").is_some(), "{a_hop:#?}");
    let b_path = find_op(&b_hop.ops, "xq:path-step").expect("leaf path step at b");
    assert!(b_path.calls >= 1);
    assert_eq!(b_path.items, 3, "//item produced three items");

    assert_phases_add_up(&prof);
    assert_eq!(o_hop.phases.cache, "hit", "second run hits the plan cache");
    assert!(o_hop.phases.network_micros > 0, "{o_hop:#?}");

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

/// Each hop's phases add up to its measured latency (10% + scheduling
/// slack — these are microsecond sums), the originator's included.
fn assert_phases_add_up(prof: &QueryProfile) {
    for h in &prof.hops {
        let sum = h.phases.total_micros();
        let slack = h.total_micros / 10 + 1_000;
        assert!(
            sum <= h.total_micros + slack,
            "phases overshoot hop total at {}: {sum} vs {}: {:#?}",
            h.peer,
            h.total_micros,
            h.phases
        );
        assert!(
            sum + slack >= h.total_micros,
            "phases undershoot hop total at {}: {sum} vs {}: {:#?}",
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
    let cl = cluster_on(NetProfile::with_latency(Duration::from_millis(5)));
    cl.o.execute(CHAIN_QUERY).unwrap();
    let prof = (cl.o.execute_detailed(CHAIN_QUERY).unwrap().profile).expect("a profile");
    assert_eq!(prof.hops.len(), 3, "one hop per peer: {prof:#?}");
    assert_phases_add_up(&prof);
    // a waits 10 ms on its call to b; the originator 20 ms on its call to a
    assert!(
        hop(&prof, A_URI).phases.network_micros >= 10_000,
        "{prof:#?}"
    );
    assert!(
        hop(&prof, O_URI).phases.network_micros >= 20_000,
        "{prof:#?}"
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

    // The writer thread is asynchronous — wait for it to catch up.
    let mut rendered = String::new();
    for _ in 0..500 {
        rendered = p.slowlog.render();
        if !rendered.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
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
