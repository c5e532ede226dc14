//! The peer's admin surface: `/metrics` (Prometheus text exposition),
//! `/healthz` (JSON liveness/readiness) and `/slowlog` (the slow-query
//! log as JSON lines), routed on the same [`HttpServer`] that carries
//! XRPC traffic — the paper's "any XRPC endpoint doubles as a WS-AT
//! participant" philosophy extended to operations: any XRPC endpoint
//! is also scrapeable.
//!
//! `/metrics` aggregates every counter the runtime already keeps —
//! transport [`NetMetrics`] (client side from the peer's
//! [`ResilientTransport`](xrpc_net::ResilientTransport), server side
//! from the HTTP listener, distinguished by a `side` label), 2PC
//! counters, the global buffer pool, per-destination retry/latency
//! stats and circuit-breaker states — plus the histograms as summary
//! families with p50/p90/p99: the peer's standing families (the fields
//! of [`PeerHistograms`](crate::PeerHistograms), every one on the first
//! scrape), the attached WAL's own, and per-destination latency from the
//! resilient transport's bounded table (256 destinations and `other`), so
//! the `dest` label set is bounded by construction.
//!
//! `/healthz` reports WAL attachment, in-doubt transaction count and
//! breaker states; status degrades (HTTP 503) when transactions are
//! stuck in doubt, any breaker is open, or the WAL is poisoned (a
//! durability fault means prepares can no longer be promised).

use crate::peer::Peer;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use xrpc_net::http::Handler;
use xrpc_net::metrics::MetricsSnapshot;
use xrpc_net::{BreakerState, BufferPool, HttpServer, NetError, NetMetrics};
use xrpc_obs::profile::json_escape;
use xrpc_obs::PromWriter;

/// Shared slot for the HTTP server's own [`NetMetrics`]: the server is
/// only constructed *after* its handler exists, so the handler captures
/// this cell and [`bind_admin`] fills it once the server is up.
pub type ServerMetricsSlot = Arc<OnceLock<Arc<NetMetrics>>>;

fn net_counters(w: &mut PromWriter, side: &str, s: &MetricsSnapshot) {
    for (name, v) in [
        ("xrpc_net_roundtrips_total", s.roundtrips),
        ("xrpc_net_bytes_sent_total", s.bytes_sent),
        ("xrpc_net_bytes_received_total", s.bytes_received),
        ("xrpc_net_failures_total", s.failures),
        ("xrpc_net_retries_total", s.retries),
        ("xrpc_net_timeouts_total", s.timeouts),
        ("xrpc_net_fast_failures_total", s.fast_failures),
        ("xrpc_net_breaker_opens_total", s.breaker_opens),
        ("xrpc_net_pool_hits_total", s.pool_hits),
        ("xrpc_net_pool_misses_total", s.pool_misses),
        ("xrpc_net_sheds_total", s.sheds),
    ] {
        w.counter_labeled(name, "side", side, v);
    }
}

/// Server-only admission/reactor families: connection and queue gauges
/// plus the reactor stage histograms (dispatch wait, wakeup latency).
/// Only the listener side has these — the client block never sheds.
fn net_server_gauges(w: &mut PromWriter, m: &NetMetrics) {
    w.gauge(
        "xrpc_net_active_connections",
        m.active_connections.load(Ordering::Relaxed),
    );
    w.gauge(
        "xrpc_net_accept_queue_depth",
        m.accept_queue_depth.load(Ordering::Relaxed),
    );
    w.summary(
        "xrpc_reactor_dispatch_micros",
        &m.reactor_dispatch_micros.snapshot(),
    );
    w.summary(
        "xrpc_reactor_wakeup_micros",
        &m.reactor_wakeup_micros.snapshot(),
    );
}

fn breaker_code(s: BreakerState) -> u64 {
    match s {
        BreakerState::Closed => 0,
        BreakerState::HalfOpen => 1,
        BreakerState::Open => 2,
    }
}

/// Render the full exposition document for one peer. `server_metrics`
/// is the HTTP listener's counter block, when the peer is served over
/// HTTP (see [`ServerMetricsSlot`]).
pub fn render_metrics(peer: &Peer, server_metrics: Option<&NetMetrics>) -> String {
    let mut w = PromWriter::new();

    if let Some(rt) = peer.resilient_transport() {
        net_counters(&mut w, "client", &rt.metrics.snapshot());
    }
    if let Some(m) = server_metrics {
        net_counters(&mut w, "server", &m.snapshot());
        net_server_gauges(&mut w, m);
    }

    let t = peer.twopc_metrics.snapshot();
    w.counter("xrpc_twopc_prepares_total", t.prepares);
    w.counter("xrpc_twopc_commits_total", t.commits);
    w.counter("xrpc_twopc_aborts_total", t.aborts);
    w.counter("xrpc_twopc_redeliveries_total", t.redeliveries);
    w.counter("xrpc_twopc_hazards_total", t.hazards);
    w.counter("xrpc_twopc_recoveries_total", t.recoveries);
    w.counter("xrpc_twopc_inquiries_total", t.inquiries);
    w.counter("xrpc_twopc_reaborts_total", t.reaborts);
    w.counter("xrpc_twopc_cancels_total", t.cancels);

    // Cooperative cancellation outcomes (deadline expiry vs explicit
    // cancel); the time-to-cancel histogram rides the summary families.
    w.counter_labeled(
        "xrpc_cancellations_total",
        "kind",
        "deadline",
        peer.cancellations_deadline.load(Ordering::Relaxed),
    );
    w.counter_labeled(
        "xrpc_cancellations_total",
        "kind",
        "cancelled",
        peer.cancellations_cancelled.load(Ordering::Relaxed),
    );

    // Plan-cache + function-cache effectiveness (the §3.3 function cache
    // generalized to whole-query plans).
    let pc = peer.plan_cache.stats();
    w.counter("xrpc_plan_cache_hits_total", pc.hits);
    w.counter("xrpc_plan_cache_misses_total", pc.misses);
    w.counter("xrpc_plan_cache_evictions_total", pc.evictions);
    w.counter("xrpc_plan_cache_invalidations_total", pc.invalidations);
    w.gauge("xrpc_plan_cache_size", pc.len as u64);
    w.gauge("xrpc_plan_cache_enabled", if pc.enabled { 1 } else { 0 });
    let fc = peer.function_cache.stats();
    w.counter("xrpc_function_cache_hits_total", fc.hits);
    w.counter("xrpc_function_cache_misses_total", fc.misses);
    w.counter("xrpc_function_cache_evictions_total", fc.evictions);
    w.gauge("xrpc_function_cache_size", fc.len as u64);

    // Value indexes behind the predicate join (see `xqeval::index`): what
    // this peer's queries and requests built, probed and evicted, and how
    // many indexes the current document versions hold.
    let st = &peer.stats;
    w.counter(
        "xrpc_join_index_builds_total",
        st.join_index_builds.load(Ordering::Relaxed),
    );
    w.counter(
        "xrpc_join_index_probes_total",
        st.join_index_probes.load(Ordering::Relaxed),
    );
    w.counter(
        "xrpc_join_index_evictions_total",
        st.join_index_evictions.load(Ordering::Relaxed),
    );
    let docs = peer.docs.snapshot();
    let live: usize = docs.values().map(|d| xqeval::index::index_count(d)).sum();
    w.gauge("xrpc_join_indexes", live as u64);

    // Wire images (see `xmldom::serialize`): what the store's current
    // versions hold, and what the serializer has built and walked in this
    // process — a warm store document is served without walking a node.
    let image_bytes: usize = docs.values().map(|d| d.wire_image_bytes()).sum();
    w.gauge("xrpc_doc_image_bytes", image_bytes as u64);
    let ser = xmldom::serialize_counters();
    w.counter("xrpc_doc_image_builds_total", ser.image_builds);
    w.counter("xrpc_doc_nodes_walked_total", ser.nodes_walked);

    // Tracing ring overflow (spans evicted before export) and the
    // slow-query log's volume/drop counters.
    w.counter(
        "xrpc_trace_spans_dropped_total",
        peer.tracer.spans_dropped(),
    );
    w.counter("xrpc_slowlog_entries_total", peer.slowlog.entries_logged());
    w.counter("xrpc_slowlog_dropped_total", peer.slowlog.entries_dropped());
    w.gauge(
        "xrpc_slowlog_threshold_millis",
        peer.slowlog.threshold_millis(),
    );

    let p = BufferPool::global().stats();
    w.counter("xrpc_bufpool_hits_total", p.hits);
    w.counter("xrpc_bufpool_misses_total", p.misses);
    w.counter("xrpc_bufpool_recycled_total", p.recycled);
    w.counter("xrpc_bufpool_dropped_total", p.dropped);
    w.gauge("xrpc_bufpool_occupancy", p.occupancy);

    // the same readiness numbers /healthz reports, as gauges
    w.gauge(
        "xrpc_wal_attached",
        if peer.wal().is_some() { 1 } else { 0 },
    );
    w.gauge(
        "xrpc_wal_open_transactions",
        peer.wal()
            .map(|l| l.open_transactions() as u64)
            .unwrap_or(0),
    );
    w.gauge(
        "xrpc_in_doubt_transactions",
        peer.snapshots.prepared_undecided(Duration::ZERO).len() as u64,
    );
    w.gauge(
        "xrpc_active_snapshots",
        peer.snapshots.active_count() as u64,
    );
    // per-transaction bookkeeping that must track open work, not history
    w.gauge("xrpc_store_applied_marks", peer.docs.applied_marks() as u64);
    w.gauge(
        "xrpc_coord_committed_entries",
        peer.coord.committed_entries() as u64,
    );

    // WAL durability surface: byte gauge and the compaction,
    // group-commit and recovery counters (see `wal::WalStats`).
    if let Some(l) = peer.wal() {
        let s = l.stats();
        w.gauge("xrpc_wal_log_bytes", s.log_bytes);
        w.gauge("xrpc_wal_poisoned", if s.poisoned { 1 } else { 0 });
        w.counter("xrpc_wal_rotations_total", s.rotations);
        w.counter(
            "xrpc_wal_copy_forward_records_total",
            s.copy_forward_records,
        );
        w.counter(
            "xrpc_wal_torn_tail_recoveries_total",
            s.torn_tail_recoveries,
        );
        w.counter("xrpc_wal_group_fsyncs_total", s.fsyncs);
        for (name, h) in l.histograms() {
            w.summary(name, &h.snapshot());
        }
    }

    for (name, h) in peer.hists.families() {
        w.summary(name, &h.snapshot());
    }

    if let Some(rt) = peer.resilient_transport() {
        for (dest, st) in rt.dest_stats() {
            for (name, v) in [
                ("xrpc_dest_retries_total", &st.retries),
                ("xrpc_dest_failures_total", &st.failures),
                ("xrpc_dest_fast_failures_total", &st.fast_failures),
                ("xrpc_dest_calls_total", &st.calls),
            ] {
                w.counter_labeled(name, "dest", &dest, v.load(Ordering::Relaxed));
            }
            w.summary_labeled(
                "xrpc_dest_latency_micros",
                "dest",
                &dest,
                &st.latency.snapshot(),
            );
        }
        for (dest, state) in rt.breaker_states() {
            w.gauge_labeled("xrpc_breaker_state", "dest", &dest, breaker_code(state));
        }
    }

    w.finish()
}

/// Render the health document and its HTTP status: `200 ok` when
/// nothing is stuck, `503 degraded` when transactions sit in doubt or a
/// circuit breaker is open (half-open — a probe under way — is healthy
/// enough to stay `ok`).
pub fn render_healthz(peer: &Peer) -> (u16, String) {
    let wal = peer.wal();
    let open = wal.as_ref().map(|l| l.open_transactions()).unwrap_or(0);
    let poisoned = wal.as_ref().is_some_and(|l| l.is_poisoned());
    let in_doubt = peer.snapshots.prepared_undecided(Duration::ZERO).len();
    let breakers = peer
        .resilient_transport()
        .map(|rt| rt.breaker_states())
        .unwrap_or_default();
    let any_open = breakers
        .iter()
        .any(|(_, s)| matches!(s, BreakerState::Open));
    // a poisoned WAL can no longer promise durability: fail readiness
    // so traffic drains away before a prepare is acked into a void
    let degraded = in_doubt > 0 || any_open || poisoned;

    let mut json = String::with_capacity(256);
    json.push_str("{\"status\":\"");
    json.push_str(if degraded { "degraded" } else { "ok" });
    json.push_str("\",\"peer\":\"");
    json.push_str(&json_escape(&peer.name()));
    json.push_str("\",\"wal_attached\":");
    json.push_str(if wal.is_some() { "true" } else { "false" });
    json.push_str(",\"wal_poisoned\":");
    json.push_str(if poisoned { "true" } else { "false" });
    json.push_str(&format!(
        ",\"wal_open_transactions\":{open},\"in_doubt\":{in_doubt},\"active_snapshots\":{}",
        peer.snapshots.active_count()
    ));
    json.push_str(",\"breakers\":{");
    for (i, (dest, state)) in breakers.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!("\"{}\":\"{state:?}\"", json_escape(dest)));
    }
    json.push_str("}}");
    (if degraded { 503 } else { 200 }, json)
}

/// Build the peer's HTTP handler with the admin routes in front:
/// `/metrics` and `/healthz` are answered directly, everything else
/// falls through to XRPC SOAP dispatch. Returns the handler plus the
/// [`ServerMetricsSlot`] to fill after binding (see [`bind_admin`]).
pub fn admin_handler(peer: &Arc<Peer>) -> (Arc<Handler>, ServerMetricsSlot) {
    let slot: ServerMetricsSlot = Arc::new(OnceLock::new());
    let p = peer.clone();
    let s = slot.clone();
    let soap = peer.soap_handler();
    let handler: Arc<Handler> = Arc::new(move |path, body| match path {
        // a SOAP call may offer the connection's next request to the
        // reactor; an admin route takes the peer's locks, so never there
        "/metrics" | "/healthz" | "/slowlog" if xrpc_net::on_reactor() => {
            xrpc_net::defer();
            (503, Vec::new())
        }
        "/metrics" => {
            let doc = render_metrics(&p, s.get().map(|m| m.as_ref()));
            (200, doc.into_bytes())
        }
        "/healthz" => {
            let (status, doc) = render_healthz(&p);
            (status, doc.into_bytes())
        }
        // The slow-query log as JSON lines, oldest retained entry first.
        "/slowlog" => (200, p.slowlog.render().into_bytes()),
        _ => (200, soap(body)),
    });
    (handler, slot)
}

/// Bind an HTTP server for `peer` with the admin routes enabled and the
/// server-side metrics slot wired up. The caller still names the peer
/// (usually `peer.set_name(server.url())`) and keeps the server alive.
pub fn bind_admin(peer: &Arc<Peer>, addr: &str) -> Result<HttpServer, NetError> {
    let (handler, slot) = admin_handler(peer);
    let server = HttpServer::bind(addr, handler)?;
    let _ = slot.set(server.metrics.clone());
    Ok(server)
}
