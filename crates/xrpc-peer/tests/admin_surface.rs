//! The admin surface over the real wire: boot peers on actual HTTP
//! loopback sockets, drive a distributed update through them, then
//! scrape `/metrics` and `/healthz` like a monitoring stack would —
//! validating the Prometheus exposition format, the exact metric
//! families, and the health document. This doubles as the CI smoke
//! test for the observability endpoints.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use xrpc_net::http::HttpTransport;
use xrpc_obs::prom::validate_exposition;
use xrpc_peer::{bind_admin, EngineKind, FsyncPolicy, Peer};

const MODULE: &str = r#"
    module namespace t = "test";
    declare function t:ping() { "pong" };
    declare updating function t:addEntry($x as xs:string)
    { insert node <e>{$x}</e> into doc("log.xml")/log };
"#;

/// Minimal HTTP GET, enough for an admin scrape: one request with
/// `Connection: close`, returns (status, body).
fn http_get(host: &str, port: u16, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect((host, port)).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status line");
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn metrics_and_healthz_scrape_end_to_end() {
    // server peer: SOAP + admin on one listener, WAL attached
    let b = Peer::new("placeholder", EngineKind::Tree);
    b.register_module(MODULE).unwrap();
    b.add_document("log.xml", "<log/>").unwrap();
    let wal_path = std::env::temp_dir().join(format!("xrpc-admin-{}.wal", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_path);
    b.attach_wal(&wal_path, FsyncPolicy::Never).unwrap();
    let server = bind_admin(&b, "127.0.0.1:0").expect("bind server peer");
    b.set_name(server.url());

    // client peer, with its own admin listener so the client-side view
    // (resilient transport, per-dest stats, breakers) is scrapeable too
    let a = Peer::new("xrpc://client", EngineKind::Tree);
    a.register_module(MODULE).unwrap();
    a.set_transport(Arc::new(HttpTransport::new()));
    let a_server = bind_admin(&a, "127.0.0.1:0").expect("bind client peer");

    // traffic: a few reads plus one distributed update (2PC + WAL)
    for _ in 0..3 {
        a.execute(&format!(
            r#"import module namespace t = "test";
               execute at {{"{}"}} {{t:ping()}}"#,
            server.url()
        ))
        .unwrap();
    }
    a.execute(&format!(
        r#"declare option xrpc:isolation "repeatable";
           import module namespace t = "test";
           execute at {{"{}"}} {{t:addEntry("via-http")}}"#,
        server.url()
    ))
    .unwrap();

    // ---- server-side /metrics ----
    let (status, body) = http_get("127.0.0.1", server.port(), "/metrics");
    assert_eq!(status, 200, "metrics scrape failed: {body}");
    let families = validate_exposition(&body).expect("well-formed exposition");
    let documented = [
        // transport counters, labeled by side
        "xrpc_net_roundtrips_total",
        "xrpc_net_bytes_received_total",
        "xrpc_net_bytes_sent_total",
        "xrpc_net_failures_total",
        "xrpc_net_retries_total",
        "xrpc_net_timeouts_total",
        "xrpc_net_fast_failures_total",
        "xrpc_net_breaker_opens_total",
        "xrpc_net_pool_hits_total",
        "xrpc_net_pool_misses_total",
        // 2PC counters
        "xrpc_twopc_prepares_total",
        "xrpc_twopc_commits_total",
        "xrpc_twopc_aborts_total",
        "xrpc_twopc_redeliveries_total",
        "xrpc_twopc_hazards_total",
        "xrpc_twopc_recoveries_total",
        "xrpc_twopc_inquiries_total",
        "xrpc_twopc_reaborts_total",
        "xrpc_twopc_cancels_total",
        // buffer pool
        "xrpc_bufpool_hits_total",
        "xrpc_bufpool_misses_total",
        "xrpc_bufpool_recycled_total",
        "xrpc_bufpool_dropped_total",
        "xrpc_bufpool_occupancy",
        // readiness gauges
        "xrpc_wal_attached",
        "xrpc_wal_open_transactions",
        "xrpc_active_snapshots",
        "xrpc_in_doubt_transactions",
        // per-transaction maps that follow open work, not history
        "xrpc_store_applied_marks",
        "xrpc_coord_committed_entries",
        // reactor admission surface: shed counter, connection/queue
        // gauges, per-stage reactor histograms
        "xrpc_net_sheds_total",
        "xrpc_net_active_connections",
        "xrpc_net_accept_queue_depth",
        "xrpc_reactor_dispatch_micros",
        "xrpc_reactor_wakeup_micros",
        // WAL durability surface
        "xrpc_wal_segments",
        "xrpc_wal_log_bytes",
        "xrpc_wal_poisoned",
        "xrpc_wal_rotations_total",
        "xrpc_wal_copy_forward_records_total",
        "xrpc_wal_torn_tail_recoveries_total",
        "xrpc_wal_group_fsyncs_total",
        // latency/size histograms (summaries)
        "xrpc_message_bytes",
        "xrpc_server_handle_micros",
        "xrpc_bulk_batch_calls",
        "xrpc_twopc_prepare_micros",
        "xrpc_twopc_commit_micros",
        "xrpc_wal_append_micros",
        "xrpc_wal_fsync_micros",
        "xrpc_wal_group_batch",
        // plan/function cache effectiveness
        "xrpc_plan_cache_hits_total",
        "xrpc_plan_cache_misses_total",
        "xrpc_plan_cache_evictions_total",
        "xrpc_plan_cache_invalidations_total",
        "xrpc_plan_cache_size",
        "xrpc_plan_cache_enabled",
        "xrpc_function_cache_hits_total",
        "xrpc_function_cache_misses_total",
        "xrpc_function_cache_evictions_total",
        "xrpc_function_cache_size",
        // value indexes behind the predicate join
        "xrpc_join_index_builds_total",
        "xrpc_join_index_probes_total",
        "xrpc_join_index_evictions_total",
        "xrpc_join_indexes",
        // wire images: bytes the store's current versions hold; images
        // built and nodes walked by the serializer, process-wide
        "xrpc_doc_image_bytes",
        "xrpc_doc_image_builds_total",
        "xrpc_doc_nodes_walked_total",
        // cancellation outcomes
        "xrpc_cancellations_total",
        // span-ring overflow + slow-query log volume/drops
        "xrpc_trace_spans_dropped_total",
        "xrpc_slowlog_entries_total",
        "xrpc_slowlog_dropped_total",
        "xrpc_slowlog_threshold_millis",
    ];
    for family in documented {
        assert!(
            families.iter().any(|f| f == family),
            "family `{family}` missing from exposition:\n{body}"
        );
    }
    // and nothing is exposed that the list above does not name
    let undocumented: Vec<&String> = (families.iter())
        .filter(|f| !documented.contains(&f.as_str()))
        .collect();
    assert!(
        undocumented.is_empty(),
        "exposed but not documented here: {undocumented:?}"
    );
    assert!(
        body.matches("quantile=\"0.99\"").count() >= 5,
        "at least five histogram summaries with p99 expected:\n{body}"
    );
    assert!(
        body.contains("xrpc_net_roundtrips_total{side=\"server\"}"),
        "server-side transport counters labeled"
    );
    // the lone writer commits in one phase: no Prepare ran, and its
    // histogram family is on the page all the same (checked above)
    assert!(body.contains("xrpc_twopc_commits_total 1"));
    assert!(body.contains("xrpc_twopc_prepares_total 0"));

    // ---- client-side /metrics ----
    let (status, body) = http_get("127.0.0.1", a_server.port(), "/metrics");
    assert_eq!(status, 200);
    validate_exposition(&body).expect("client exposition well-formed");
    assert!(body.contains("xrpc_net_roundtrips_total{side=\"client\"}"));
    for family in [
        "xrpc_call_latency_micros",
        "xrpc_call_latency_by_dest_micros",
        "xrpc_dest_latency_micros",
        "xrpc_breaker_state",
    ] {
        assert!(
            body.contains(family),
            "client family `{family}` missing:\n{body}"
        );
    }

    // ---- /slowlog ----
    // Nothing above crossed the (default 250ms) threshold, so the log is
    // empty — but the route must answer 200 with an empty JSON-lines
    // body rather than falling through to SOAP dispatch.
    let (status, slowlog) = http_get("127.0.0.1", server.port(), "/slowlog");
    assert_eq!(status, 200, "slowlog scrape failed: {slowlog}");
    for line in slowlog.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "slowlog line is not a JSON object: {line}"
        );
    }

    // ---- /healthz ----
    let (status, health) = http_get("127.0.0.1", server.port(), "/healthz");
    assert_eq!(status, 200, "healthy peer must report 200: {health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"wal_attached\":true"), "{health}");
    assert!(health.contains("\"wal_poisoned\":false"), "{health}");
    assert!(health.contains("\"in_doubt\":0"), "{health}");

    // SOAP dispatch still works on the same listener after the admin
    // routes (the updates above already proved it; assert the effect)
    let doc = b.docs.get("log.xml").unwrap();
    let log = doc.first_child(doc.root()).unwrap();
    assert_eq!(doc.children(log).count(), 1);

    drop(server);
    drop(a_server);
    let _ = std::fs::remove_dir_all(&wal_path);
}

/// A poisoned WAL (first append/fsync failure) must fail readiness: the
/// peer can no longer promise durability, so `/healthz` turns 503 and
/// the `xrpc_wal_poisoned` gauge flips — the signal a load balancer
/// uses to drain traffic before a prepare is acked into a void.
#[test]
fn poisoned_wal_degrades_healthz_to_503() {
    let p = Peer::new("xrpc://poisoned", EngineKind::Tree);
    let wal_path =
        std::env::temp_dir().join(format!("xrpc-admin-poison-{}.wal", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_path);
    p.attach_wal(&wal_path, FsyncPolicy::Never).unwrap();

    let (status, health) = xrpc_peer::render_healthz(&p);
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"wal_poisoned\":false"), "{health}");

    p.wal().unwrap().poison("simulated media failure");

    let (status, health) = xrpc_peer::render_healthz(&p);
    assert_eq!(status, 503, "poisoned WAL must fail readiness: {health}");
    assert!(health.contains("\"status\":\"degraded\""), "{health}");
    assert!(health.contains("\"wal_poisoned\":true"), "{health}");

    let metrics = xrpc_peer::render_metrics(&p, None);
    assert!(
        metrics.contains("xrpc_wal_poisoned 1"),
        "poisoned gauge must flip:\n{metrics}"
    );

    // and every subsequent append is refused with the durability error
    let err = p
        .wal()
        .unwrap()
        .append(&xrpc_peer::WalRecord::CoordinatorEnd {
            qid: xrpc_proto::QueryId::new("xrpc://poisoned", 1, 60),
        })
        .unwrap_err();
    assert_eq!(err.code, "XRPC0003", "typed durability error: {err}");

    let _ = std::fs::remove_dir_all(&wal_path);
}

/// A query can compute any number of `execute at {$uri}` targets, and every
/// destination the resilience layer keeps apart is a label value on six
/// families: the table is bounded, so the label set is.
#[test]
fn ten_thousand_destinations_leave_a_bounded_label_set() {
    let a = Peer::new("xrpc://a", EngineKind::Tree);
    a.set_transport(Arc::new(xrpc_net::SimNetwork::new(
        xrpc_net::NetProfile::instant(),
    )));
    let rt = a.resilient_transport().unwrap();
    for i in 0..10_000 {
        let _ = xrpc_net::Transport::roundtrip(&*rt, &format!("xrpc://nowhere-{i}"), b"q");
    }
    let body = xrpc_peer::render_metrics(&a, None);
    validate_exposition(&body).expect("valid exposition");
    let labels: std::collections::BTreeSet<&str> = body
        .split("dest=\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert!(
        (2..=257).contains(&labels.len()),
        "{} dest= label values",
        labels.len()
    );
    assert!(rt.dest_stats().len() <= 257);
}
