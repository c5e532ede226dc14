//! Regenerate every evaluation artifact of the paper:
//!
//! ```text
//! tables table2        — Table 2: bulk vs one-at-a-time × function cache
//! tables table3        — Table 3: wrapper (Saxon-role) phase latencies
//! tables table4        — Table 4: the four Q7 strategies
//! tables throughput    — §3.3 text: request/response payload MB/s (alias: e4)
//! tables alloc-probe   — E4's per-stage allocation breakdown for a 4 MiB payload
//! tables ablation-latency    — A1: bulk advantage across network profiles (alias: a1)
//! tables ablation-isolation  — A2: isolation level overhead
//! tables a3            — A3: marshaling cost by parameter shape, atomic vs element
//! tables u1            — U1: durable update throughput under forced fsyncs
//! tables r1            — R1: deadline/cancellation latency + wasted-work reduction (alias: cancellation)
//! tables p1            — P1: query-profiler overhead, off vs sampled vs full (alias: profile-overhead)
//! tables all           — everything above but alloc-probe
//! ```
//!
//! Numbers are wall-clock milliseconds on this machine; compare *shapes*
//! with the paper (EXPERIMENTS.md records both).
//!
//! `e4`, `a1`, `a3`, `u1`, `r1` and `p1` also write machine-readable
//! `BENCH_<X>.json` into the current directory, so the perf trajectory is
//! tracked across PRs instead of living only in prose. `--quick` trims the
//! sweeps to their cheap points (a seconds-scale CI smoke run) and makes
//! some of them gate on counts, which repeat on any host where clocks do
//! not: `r1` that every spinning query fails with XRPC0004 and no worker
//! thread leaks (exit 6), `p1` that profiling "off" allocates exactly what
//! no option does and one slow query is logged exactly once (exit 7),
//! `u1` that a lone writer costs one message and ≤ 1.05 fsyncs (exit 8),
//! `table4` that the four strategies agree, push-down sends one call to B,
//! allocates at most `TABLE4_PUSHDOWN_BYTES_BOUND` times data shipping and
//! data shipping's join at A makes at most `TABLE4_SHIPPING_PATH_STEPS`
//! path steps (exit 9), `table2` that the bulk cell puts its 1000 calls on
//! the wire in one request, allocates at most `TABLE2_ALLOCS_PER_CALL_BOUND`
//! times per call and its plan has no `rel:fallback` (exit 10), and `e4`
//! that warm response-heavy cells walk no node (exit 11). `e4 --check-cliff` is the one timed gate: 4 MiB request
//! throughput within 3× of 1 MiB (exit 3).
//!
//! Every JSON artifact shares one envelope (`schema_version` 2): the
//! experiment id/title, quick flag, ISO-8601 UTC generation time, the
//! building git commit and the host's logical CPU count, so artifacts
//! from different PRs and machines are comparable without guesswork.

use std::sync::atomic::Ordering;
use std::time::Duration;
use xrpc_bench::*;
use xrpc_net::NetProfile;

/// Count allocations/bytes so E4 can report allocator pressure per
/// request next to MB/s (the 4 MiB cliff was allocator-bound).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check_cliff = args.iter().any(|a| a == "--check-cliff");
    let cmd = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    match cmd.as_str() {
        "table2" => table2(quick),
        "table3" => table3(),
        "table4" => table4(quick),
        "throughput" | "e4" => throughput(quick, check_cliff),
        "alloc-probe" => alloc_probe(),
        "ablation-latency" | "a1" => ablation_latency(quick),
        "ablation-isolation" => ablation_isolation(),
        "a3" => ablation_marshal(),
        "u1" => update_throughput(quick),
        "r1" | "cancellation" => cancellation(quick),
        "p1" | "profile-overhead" => profile_overhead(quick),
        "all" => {
            table2(quick);
            table3();
            table4(quick);
            throughput(quick, check_cliff);
            ablation_latency(quick);
            ablation_isolation();
            ablation_marshal();
            update_throughput(quick);
            cancellation(quick);
            profile_overhead(quick);
        }
        other => {
            eprintln!("unknown table `{other}`");
            std::process::exit(2);
        }
    }
}

/// The git commit the artifact was built from, or "unknown" outside a
/// checkout (e.g. a source tarball).
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// ISO-8601 UTC wall-clock time, hand-rolled from the epoch (no chrono in
/// the workspace). Civil-from-days per Howard Hinnant's algorithm.
fn utc_now_iso8601() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (hh, mm, ss) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}Z")
}

/// Hand-rolled JSON writer (the workspace deliberately has no serde):
/// rows are emitted as an array of flat objects with numeric values,
/// under a shared provenance envelope (see the module docs).
fn write_json(path: &str, experiment: &str, title: &str, quick: bool, rows: &[Vec<(&str, f64)>]) {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 2,\n");
    out.push_str(&format!("  \"experiment\": \"{experiment}\",\n"));
    out.push_str(&format!("  \"title\": \"{title}\",\n"));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!(
        "  \"generated_utc\": \"{}\",\n",
        utc_now_iso8601()
    ));
    out.push_str(&format!("  \"git_commit\": \"{}\",\n", git_commit()));
    out.push_str(&format!("  \"host_cpus\": {cpus},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let fields: Vec<String> = row
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:.3}"))
            .collect();
        out.push_str(&format!(
            "    {{{}}}{}\n",
            fields.join(", "),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    match std::fs::write(path, &out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Quantiles from a one-shot cell are a lie: with a single sample p50
/// and p99 are the same number. Every table that reports latency
/// quantiles funnels its sample count through here so a degenerate cell
/// is flagged instead of silently published.
fn warn_samples(cell: &str, n: u64) {
    if n < 20 {
        println!("warning: {cell}: only {n} latency sample(s) — p50/p99 are unreliable below 20");
    }
}

/// R1: deadline enforcement under load. Phase one measures the latency
/// from a query's deadline passing to the evaluator actually aborting it
/// (`elapsed − budget` of spinning queries with a 1 s `xrpc:timeout`),
/// concurrently so the checkpoints compete for CPU like production
/// would. Phase two is a client-timeout storm: the same slow call served
/// with no budget (the pre-deadline world — the server burns the full
/// evaluation for clients that already gave up), with a budget exhausted
/// on arrival, and with a budget that dies mid-evaluation; the ratio of
/// server wall-clock is the wasted-work reduction. `--quick` gates on
/// counts (exit 6): every spinning query fails with XRPC0004, and no
/// worker thread outlives the cancellations. The latency quantiles are
/// printed, not gated.
fn cancellation(quick: bool) {
    use std::time::Instant;
    use xrpc_peer::{EngineKind, Peer};

    // the inner range is kept small: sequence materialization is a
    // checkpoint-free block, so its size bounds the best possible
    // cancellation latency; releasing the outer range once the deadline
    // fires costs more, and is most of what R1 measures (EXPERIMENTS.md R1)
    const SPIN_1S: &str = r#"declare option xrpc:timeout "1";
        count(for $i in (1 to 1000000)
              for $j in (1 to 50000)
              where $i + $j lt 0 return 1)"#;
    const SLOW_MODULE: &str = r#"
        module namespace r = "r1";
        declare function r:slow()
        { count(for $i in (1 to 2000000) where $i lt 0 return 1) };
    "#;

    /// Linux thread count of this process (0 if unreadable): the leak
    /// gate — every cancelled query's worker must be back in the pool.
    fn thread_count() -> i64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("Threads:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|n| n.parse().ok())
            })
            .unwrap_or(0)
    }

    println!("== R1: deadline & cooperative cancellation ==");
    let peer = Peer::new("xrpc://bench", EngineKind::Tree);
    let threads_before = thread_count();

    // Phase one: concurrent spinning queries, each with a 1 s budget.
    let waves = 5usize;
    let conc = if quick { 4 } else { 8 };
    let mut lat_ms: Vec<f64> = Vec::with_capacity(waves * conc);
    let mut not_deadline = 0usize;
    for _ in 0..waves {
        let handles: Vec<_> = (0..conc)
            .map(|_| {
                let p = peer.clone();
                std::thread::spawn(move || {
                    let t0 = Instant::now();
                    let r = p.execute(SPIN_1S);
                    (matches!(r, Err(e) if e.code == "XRPC0004"), t0.elapsed())
                })
            })
            .collect();
        for h in handles {
            let (deadline_fault, elapsed) = h.join().unwrap();
            not_deadline += usize::from(!deadline_fault);
            lat_ms.push((ms(elapsed) - 1000.0).max(0.0));
        }
    }
    lat_ms.sort_by(f64::total_cmp);
    let q = |p: f64| lat_ms[((lat_ms.len() - 1) as f64 * p) as usize];
    let (p50, p99) = (q(0.50), q(0.99));
    warn_samples("R1 cancel latency", lat_ms.len() as u64);

    // Workers freed: plain queries must flow immediately after the storm
    // of cancellations, and no thread may have leaked.
    let t0 = Instant::now();
    for _ in 0..20 {
        peer.execute("1 + 1").unwrap();
    }
    let drain = t0.elapsed();
    let leaked = (thread_count() - threads_before).max(0);
    println!(
        "cancellation latency over {} samples: p50 {:.1} ms, p99 {:.1} ms; not XRPC0004 {}; post-cancel drain {:.1} ms; leaked threads {}",
        lat_ms.len(), p50, p99, not_deadline, ms(drain), leaked
    );

    // Phase two: the client-timeout storm against a slow function.
    let server = Peer::new("xrpc://server", EngineKind::Tree);
    server.register_module(SLOW_MODULE).unwrap();
    let storm_calls = if quick { 6 } else { 24 };
    let storm = |budget: Option<u64>| -> Duration {
        let mut req = xrpc_proto::XrpcRequest::new("r1", "slow", 0);
        req.budget_millis = budget;
        req.push_call(vec![]);
        let xml = req.to_xml().unwrap();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let server = &server;
                let xml = &xml;
                s.spawn(move || {
                    for _ in 0..(storm_calls / 4).max(1) {
                        let _ = server.handle_soap(xml.as_bytes());
                    }
                });
            }
        });
        t0.elapsed()
    };
    // calibrate: one full evaluation, uncancelled
    let t_slow = {
        let mut req = xrpc_proto::XrpcRequest::new("r1", "slow", 0);
        req.push_call(vec![]);
        let xml = req.to_xml().unwrap();
        let t0 = Instant::now();
        let _ = server.handle_soap(xml.as_bytes());
        t0.elapsed()
    };
    let t_baseline = storm(None);
    let t_arrival = storm(Some(0));
    let t_mideval = storm(Some(30));
    let reduction = |t: Duration| 1.0 - ms(t) / ms(t_baseline).max(1e-9);
    println!(
        "storm of {storm_calls} calls (one slow call ≈ {:.0} ms): no budget {:.0} ms, exhausted-at-arrival {:.0} ms ({:.0}% less work), dies-mid-eval {:.0} ms ({:.0}% less work)",
        ms(t_slow), ms(t_baseline), ms(t_arrival), reduction(t_arrival) * 100.0,
        ms(t_mideval), reduction(t_mideval) * 100.0,
    );

    write_json(
        "BENCH_R1.json",
        "R1",
        "deadline cancellation latency and client-timeout-storm wasted-work reduction",
        quick,
        &[
            vec![
                ("cancel_p50_ms", p50),
                ("cancel_p99_ms", p99),
                ("samples", lat_ms.len() as f64),
                ("post_cancel_drain_ms", ms(drain)),
                ("leaked_threads", leaked as f64),
            ],
            vec![
                ("slow_call_ms", ms(t_slow)),
                ("storm_calls", storm_calls as f64),
                ("storm_no_budget_ms", ms(t_baseline)),
                ("storm_arrival_expired_ms", ms(t_arrival)),
                ("storm_mid_eval_ms", ms(t_mideval)),
                ("reduction_arrival", reduction(t_arrival)),
                ("reduction_mid_eval", reduction(t_mideval)),
            ],
        ],
    );
    if quick {
        let mut failed = false;
        if not_deadline > 0 {
            eprintln!(
                "R1 quick FAILED: {not_deadline} spinning query(ies) did not fail with XRPC0004"
            );
            failed = true;
        }
        if leaked > 0 {
            eprintln!("R1 quick FAILED: {leaked} worker thread(s) leaked past cancellation");
            failed = true;
        }
        if failed {
            std::process::exit(6);
        }
    }
    println!();
}

/// P1: what does the distributed profiler cost? The same repeated-shape
/// local workload (a FLWOR over path steps — thousands of operator
/// guards per query) run four ways: with no `xrpc:profile` option at
/// all (the baseline every query pays), with the option explicitly
/// "off", sampled at the default stride, and "full" (every guard reads
/// the clock). Interleaved rounds with min-of-rounds per mode, because
/// a percent-level comparison needs the noise floor, not the mean.
/// `--quick` gates on what repeats exactly (exit 7): a warm query with
/// the option "off" allocates as often as one without it — profiling
/// that is off costs no allocation — and a slow query lands in the
/// slow-query log exactly once. The percentages are printed only.
fn profile_overhead(quick: bool) {
    use std::time::Instant;
    use xrpc_peer::{EngineKind, Peer};

    println!("== P1: profiler overhead — off vs sampled vs full ==");
    let items = if quick { 400 } else { 2000 };
    let mut xml = String::with_capacity(items * 32);
    xml.push_str("<data>");
    for i in 0..items {
        xml.push_str(&format!("<item><id>{i}</id></item>"));
    }
    xml.push_str("</data>");

    const WORKLOAD: &str =
        r#"count(for $i in doc("data.xml")//item where $i/id mod 2 = 0 return $i/id)"#;
    let mk_query = |mode: Option<&str>| match mode {
        None => WORKLOAD.to_string(),
        Some(m) => format!("declare option xrpc:profile \"{m}\";\n{WORKLOAD}"),
    };

    let peer = Peer::new("xrpc://p1.example.org", EngineKind::Tree);
    peer.add_document("data.xml", &xml).unwrap();
    // keep the slow-query log out of the measurement
    peer.slowlog.set_threshold_millis(u64::MAX);

    let iters = if quick { 150 } else { 600 };
    let rounds = 8;
    let modes: [(&str, Option<&str>); 4] = [
        ("baseline", None),
        ("off", Some("off")),
        ("sampled", Some("on")),
        ("full", Some("full")),
    ];
    let mut best = [f64::INFINITY; 4];
    // Rotate the measurement order every round (and throw the first
    // round away): a fixed order hands whichever mode runs first the
    // still-boosting CPU and reads as phantom overhead on the others.
    for round in 0..rounds + 1 {
        for k in 0..modes.len() {
            let slot = (k + round) % modes.len();
            let q = mk_query(modes[slot].1);
            let _ = peer.execute(&q).unwrap(); // warm the plan cache
            let t0 = Instant::now();
            for _ in 0..iters {
                let _ = peer.execute(&q).unwrap();
            }
            if round > 0 {
                best[slot] = best[slot].min(ms(t0.elapsed()) / iters as f64);
            }
        }
    }
    // Allocations of one warm execution per mode: single-threaded and
    // clock-free, so the count is the same on every run and every host.
    let allocs_per_query = modes.map(|(_, mode)| {
        let q = mk_query(mode);
        let _ = peer.execute(&q).unwrap();
        let a0 = alloc_snapshot();
        let _ = peer.execute(&q).unwrap();
        alloc_snapshot().since(a0).allocs
    });
    let overhead = |slot: usize| (best[slot] / best[0].max(1e-9) - 1.0) * 100.0;
    println!(
        "{:<10} {:>12} {:>10} {:>14}",
        "mode", "ms/query", "overhead", "allocs/query"
    );
    let mut rows = Vec::new();
    for (slot, (label, _)) in modes.iter().enumerate() {
        println!(
            "{label:<10} {:>12.4} {:>9.1}% {:>14}",
            best[slot],
            overhead(slot),
            allocs_per_query[slot]
        );
        rows.push(vec![
            ("mode", slot as f64),
            ("ms_per_query", best[slot]),
            ("overhead_pct", overhead(slot)),
            ("allocs_per_query", allocs_per_query[slot] as f64),
            ("iters_per_round", iters as f64),
            ("rounds", rounds as f64),
        ]);
    }

    // Slow-query log exactly-once: one query over the threshold must
    // produce one entry; fast queries around it must produce none.
    peer.slowlog.set_threshold_millis(20);
    let slow = "count(for $i in 1 to 3000000 return $i * 2)";
    let logged_before = peer.slowlog.entries_logged();
    let t0 = Instant::now();
    peer.execute(slow).unwrap();
    let slow_ms = ms(t0.elapsed());
    for _ in 0..5 {
        peer.execute("1 + 1").unwrap();
    }
    let slow_entries = peer.slowlog.entries_logged() - logged_before;
    println!(
        "slowlog: {slow_entries} entr{} for one {slow_ms:.0} ms query over a 20 ms threshold",
        if slow_entries == 1 { "y" } else { "ies" }
    );
    rows.push(vec![
        ("mode", -1.0),
        ("slowlog_entries", slow_entries as f64),
        ("slow_query_ms", slow_ms),
    ]);

    write_json(
        "BENCH_P1.json",
        "P1",
        "query-profiler overhead: off vs sampled vs full + slowlog exactly-once",
        quick,
        &rows,
    );
    if quick {
        let mut failed = false;
        if allocs_per_query[1] != allocs_per_query[0] {
            eprintln!(
                "P1 quick FAILED: explicit `xrpc:profile \"off\"` allocates {} times per query, no option {}",
                allocs_per_query[1], allocs_per_query[0]
            );
            failed = true;
        }
        if slow_entries != 1 {
            eprintln!(
                "P1 quick FAILED: expected exactly one slow-query log entry, got {slow_entries}"
            );
            failed = true;
        }
        if failed {
            std::process::exit(7);
        }
        println!(
            "P1 quick: off {:+.2}%, sampled {:+.2}%, full {:+.2}% (not gated); off allocates as the baseline does ({}/query), slowlog exactly once",
            overhead(1),
            overhead(2),
            overhead(3),
            allocs_per_query[0]
        );
    }
    println!();
}

/// Allocations the x = 1000 bulk cell of Table 2 may make per call
/// (`table2 --quick`), both peers together on an in-process network. A call
/// of `echoVoid()` has no parameter and no result, so a call that costs its
/// bytes costs the allocator nothing: what is left is the query's constant —
/// plan, tables, two messages, two pooled buffers — 136 allocations, 0.136
/// a call. The bound is that plus 15 %; one allocation per call anywhere on
/// the path (nine, when a call was decoded by way of a DOM) is seven times it.
const TABLE2_ALLOCS_PER_CALL_BOUND: f64 = 0.157;

/// Table 2: XRPC performance (msec), loop-lifted vs one-at-a-time,
/// function cache vs no function cache, $x ∈ {1, 1000}. `--quick` then
/// gates on what repeats exactly on any host (exit 10): the bulk cell puts
/// 1000 calls on the wire in one request (the optimizer, off here, would
/// send one), its allocations per call stay within
/// [`TABLE2_ALLOCS_PER_CALL_BOUND`], and no operator of its plan is a
/// per-iteration fallback to the tree engine.
fn table2(quick: bool) {
    println!("== Table 2: XRPC performance (msec): loop-lifted vs one-at-a-time; function cache vs none ==");
    println!(
        "{:<14} {:>14} {:>14} {:>14} {:>14}",
        "", "nocache x=1", "nocache x=1000", "cache x=1", "cache x=1000"
    );
    for (label, bulk) in [("one-at-a-time", false), ("bulk", true)] {
        let mut cells = Vec::new();
        for cache in [false, true] {
            for x in [1usize, 1000] {
                let c = echo_cluster(NetProfile::lan(), bulk, cache);
                // warm the connection path once without counting it
                let q1 = echo_query(1);
                let _ = time_query(&c.a, &q1);
                if cache {
                    // cached half: the module is already prepared
                } else {
                    c.b.function_cache.set_enabled(false);
                }
                let (d, _) = time_query(&c.a, &echo_query(x));
                cells.push(ms(d));
            }
        }
        // reorder: printed columns are nocache(1,1000), cache(1,1000)
        println!(
            "{:<14} {:>14.1} {:>14.1} {:>14.1} {:>14.1}",
            label, cells[0], cells[1], cells[2], cells[3]
        );
    }
    println!("paper (2 GHz Athlon64, 1Gb/s): one-at-a-time 133 / 2696 / 2.6 / 2696 ; bulk 130 / 134 / 2.7 / 4");
    // The paper's no-cache penalty is MonetDB's ~130 ms module translation;
    // our translator is a hand-written parser, so the same *shape* exists
    // at a far smaller magnitude. Report it so the columns make sense.
    let t0 = std::time::Instant::now();
    let n = 100;
    for _ in 0..n {
        let _ = xqast::parse_library_module(xmark::test_module()).unwrap();
    }
    println!(
        "note: our per-request module translation costs {:.3} ms (paper's was ~130 ms)",
        ms(t0.elapsed()) / n as f64
    );
    println!();
    if quick {
        let x = 1000;
        let c = echo_cluster(NetProfile::instant(), true, true);
        let q = echo_query(x);
        // plan and function caches, pooled buffers: count the steady state
        time_query(&c.a, &q);
        // what B handled: requests, and the calls in them
        let handled = || {
            let s = &c.b.stats;
            [&s.requests_handled, &s.calls_handled].map(|n| n.load(Ordering::Relaxed))
        };
        let [requests, calls] = handled();
        let before = alloc_snapshot();
        let (_, res) = time_query(&c.a, &q);
        let per_call = alloc_snapshot().since(before).allocs as f64 / x as f64;
        let [requests_after, calls_after] = handled();
        let sent = (requests_after - requests, calls_after - calls);
        let (_, profile) = c.a.explain_analyze(&q).expect("explain analyze");
        let plan = format!("{:?}", profile.hops);
        let fallbacks: Vec<&str> = (plan.match_indices("rel:fallback"))
            .map(|(at, _)| plan[at..].split('"').next().unwrap_or_default())
            .collect();
        let mut failures = Vec::new();
        if !res.is_empty() {
            failures.push(format!("{} items from {x} calls of echoVoid", res.len()));
        }
        if sent != (1, x as u64) {
            failures.push(format!(
                "the bulk cell put {} calls on the wire in {} requests, not {x} in 1",
                sent.1, sent.0
            ));
        }
        if per_call > TABLE2_ALLOCS_PER_CALL_BOUND {
            failures.push(format!(
                "the bulk cell allocates {per_call:.1} times a call, bound {TABLE2_ALLOCS_PER_CALL_BOUND}"
            ));
        }
        if !fallbacks.is_empty() {
            failures.push(format!(
                "the bulk cell's plan falls back per iteration: {fallbacks:?}"
            ));
        }
        for failure in &failures {
            eprintln!("Table 2 quick FAILED: {failure}");
        }
        if !failures.is_empty() {
            std::process::exit(10);
        }
        println!(
            "Table 2 quick: the x={x} bulk cell puts {x} calls on the wire in 1 request and allocates {per_call:.3} times a call (bound {TABLE2_ALLOCS_PER_CALL_BOUND}); no `rel:fallback` in its plan"
        );
    }
}

/// Table 3: Saxon-via-wrapper latency with phase split.
fn table3() {
    println!("== Table 3: wrapper latency (msec): total / compile / treebuild / exec ==");
    let persons = 20000;
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "", "total", "compile", "treebuild", "exec"
    );
    for (label, query, x) in [
        ("echoVoid x=1", wrapper_echo_query(1), 1),
        ("echoVoid x=1000", wrapper_echo_query(1000), 1000),
        ("getPerson x=1", get_person_query(1, persons), 1),
        ("getPerson x=1000", get_person_query(1000, persons), 1000),
    ] {
        let c = wrapper_cluster(persons);
        let row = |label: &str| {
            let (total, _) = time_query(&c.a, &query);
            let ph = c.wrapper.take_phases();
            println!(
                "{:<22} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                label,
                ms(total),
                ms(ph.compile),
                ms(ph.treebuild),
                ms(ph.exec)
            );
        };
        row(label);
        // Saxon's hash table lives for one query; our value index lives
        // for one document version, so only the first request builds it
        if x == 1000 && label.starts_with("getPerson") {
            row("  second request");
        }
    }
    println!("paper (Saxon-B 8.7): echoVoid 275/178/4.6/92 and 590/178/86/325 ; getPerson 4276/185/1956/2134 and 8167/185/1973/6010");
    println!();
}

/// Bytes predicate push-down may allocate per byte data shipping allocates
/// (`table4 --quick`). Both ship every closed auction; push-down also wraps
/// each in the response envelope at B, which costs one copy of it when
/// content is built in place — 2.69 MB on the quick sizes, and 4.3 MB when
/// each constructor level copied what the level below had built. Data
/// shipping allocates 1.48 MB since a fetched document is decoded into its
/// own arena (2.44 MB while `materialize_document` copied it out of the
/// message's): the ratio is 1.82 (was 1.10 over the larger denominator, with
/// push-down's bytes where they were), and would be 2.9 with the copying
/// constructors. The bound is the measured ratio plus 15 %.
const TABLE4_PUSHDOWN_BYTES_BOUND: f64 = 2.09;

/// `xq:path-step` calls data shipping's Q7 may make at A (`table4 --quick`):
/// the two `for` sequences and one `$ca/annotation` per result. The join
/// reads its keys from the arena; 608 when each row's key was a path step.
const TABLE4_SHIPPING_PATH_STEPS: u64 = 8;

/// Table 4: execution time of Q7 under the four distribution strategies.
/// `--quick` runs small inputs on an instant network and gates on counts:
/// one result set from all four, one call to B from push-down (the
/// optimizer's join rule; one per person without it), push-down's
/// allocated bytes within
/// [`TABLE4_PUSHDOWN_BYTES_BOUND`] of data shipping's, and data shipping's
/// path steps at A within [`TABLE4_SHIPPING_PATH_STEPS`].
fn table4(quick: bool) {
    println!("== Table 4: Q7 strategies (msec): total / peer-A / peer-B(incl. network) ==");
    let params = xmark::XmarkParams {
        persons: if quick { 120 } else { 250 },
        closed_auctions: if quick { 480 } else { 4875 },
        matches: 6,
        padding_words: if quick { 20 } else { 60 },
        seed: 42,
    };
    let profile = if quick {
        NetProfile::instant()
    } else {
        NetProfile::lan()
    };
    println!(
        "{:<24} {:>10} {:>12} {:>18} {:>9}",
        "", "total", "A (rel)", "B (wrapper+net)", "results"
    );
    let mut result_sets: Vec<Vec<String>> = Vec::new();
    let mut allocated: Vec<u64> = Vec::new();
    let mut sent: Vec<(u64, u64)> = Vec::new();
    for s in distq::Strategy::ALL {
        let c = strategy_cluster(&params, profile);
        // peer A runs the distributed optimizer: duplicate-call collapsing
        // and the join rule, which sends push-down's call once
        c.a.set_rpc_optimize(true);
        let q = s.query(B_URI, A_URI);
        if quick {
            // plans compiled, value indexes built: count the steady state
            time_query(&c.a, &q);
            c.timing.take_blocked();
            c.timing.count_sent();
        }
        let before = alloc_snapshot();
        let (total, res) = time_query(&c.a, &q);
        allocated.push(alloc_snapshot().since(before).bytes);
        let blocked = c.timing.take_blocked();
        sent.push(c.timing.take_sent());
        // the strategies may order the join differently: compare as sets
        let mut set: Vec<String> = (res.iter())
            .filter_map(|i| i.as_node().map(|n| n.to_xml()))
            .collect();
        set.sort();
        result_sets.push(set);
        let n = res
            .iter()
            .filter(|i| matches!(i, xdm::Item::Node(h) if h.name().is_some_and(|q| q.local == "result")))
            .count();
        println!(
            "{:<24} {:>10.0} {:>12.0} {:>18.0} {:>9}",
            s.label(),
            ms(total),
            ms(total - blocked),
            ms(blocked),
            n
        );
    }
    println!("paper: data shipping 28122/16457/11665 ; push-down 25799/2961/22838 ; relocation 53184/69/53115 ; semi-join 10278/118/10160");
    println!();
    if quick {
        let (shipping, pushdown) = (allocated[0], allocated[1]);
        let ratio = pushdown as f64 / shipping as f64;
        let mut failures = Vec::new();
        if result_sets.iter().any(|set| *set != result_sets[0]) {
            failures.push("the four strategies returned different result sets".to_string());
        }
        if result_sets[0].len() != params.matches {
            failures.push(format!(
                "{} results, the generator planted {}",
                result_sets[0].len(),
                params.matches
            ));
        }
        if sent[1] != (1, 1) {
            failures.push(format!(
                "push-down sends {} calls to B in {} requests, not 1 in 1",
                sent[1].1, sent[1].0
            ));
        }
        if ratio > TABLE4_PUSHDOWN_BYTES_BOUND {
            failures.push(format!(
                "push-down allocates {ratio:.2}x the bytes of data shipping ({pushdown} B, {shipping} B), bound {TABLE4_PUSHDOWN_BYTES_BOUND}"
            ));
        }
        let steps = data_shipping_path_steps(&strategy_cluster(&params, profile));
        if steps > TABLE4_SHIPPING_PATH_STEPS {
            failures.push(format!(
                "data shipping makes {steps} path steps at A, bound {TABLE4_SHIPPING_PATH_STEPS}"
            ));
        }
        for failure in &failures {
            eprintln!("Table 4 quick FAILED: {failure}");
        }
        if !failures.is_empty() {
            std::process::exit(9);
        }
        println!(
            "Table 4 quick: one result set from all four; push-down sends 1 call to B; push-down allocates {pushdown} B, data shipping {shipping} B: {ratio:.2}x (bound {TABLE4_PUSHDOWN_BYTES_BOUND}x); data shipping makes {steps} path steps at A (bound {TABLE4_SHIPPING_PATH_STEPS})"
        );
    }
}

/// §3.3 throughput (E4): request- and response-heavy payload scaling,
/// with allocator pressure per request (allocations and MiB allocated —
/// the counting allocator makes "allocates less" visible next to MB/s).
/// Debugging aid, not part of `all`: break allocator pressure down by
/// message-path stage for a 4 MiB payload.
fn alloc_probe() {
    let bytes = 4096 * 1024;
    let xml = xmark::payload_xml(bytes);
    let probe = |label: &str, f: &mut dyn FnMut()| {
        let a0 = alloc_snapshot();
        let s0 = xmldom::serialize_counters();
        f();
        let d = alloc_snapshot().since(a0);
        let s = xmldom::serialize_counters();
        println!(
            "{label:<28} {:>12} allocs {:>10.1} MiB {:>3} image_builds {:>8} nodes_walked",
            d.allocs,
            d.bytes as f64 / (1024.0 * 1024.0),
            s.image_builds - s0.image_builds,
            s.nodes_walked - s0.nodes_walked
        );
    };
    probe("parse payload", &mut || {
        let d = xmldom::parse(&xml).unwrap();
        std::hint::black_box(&d);
    });
    let doc = xmldom::parse(&xml).unwrap();
    probe("serialize payload", &mut || {
        let s = xmldom::serialize_document(&doc, &xmldom::SerializeOpts::default());
        std::hint::black_box(&s);
    });
    let doc2 = std::sync::Arc::new(xmldom::parse(&xml).unwrap());
    let payload_el = doc2.first_child(doc2.root()).unwrap();
    let chunks: Vec<xdm::Item> = doc2
        .children(payload_el)
        .map(|c| xdm::Item::Node(xmldom::NodeHandle::new(doc2.clone(), c)))
        .collect();
    let mut req = xrpc_proto::XrpcRequest::new("urn:m", "f", 1);
    req.push_call(vec![xdm::Sequence::from_items(chunks)]);
    probe("serialize request message", &mut || {
        let s = req.to_xml().unwrap();
        std::hint::black_box(&s);
    });
    let req_xml = req.to_xml().unwrap();
    probe("parse request message", &mut || {
        let m = xrpc_proto::parse_message(&req_xml).unwrap();
        std::hint::black_box(&m);
    });
    let c = throughput_cluster(bytes);
    probe("request-heavy round trip", &mut || {
        let _ = time_query(&c.a, &request_heavy_query());
    });
    let c2 = throughput_cluster(bytes);
    probe("response-heavy round trip", &mut || {
        let _ = time_query(&c2.a, &response_heavy_query());
    });
}

fn throughput(quick: bool, check_cliff: bool) {
    println!("== Throughput (§3.3 text, E4): payload scaling, MB/s + allocator pressure ==");
    println!(
        "{:<12} {:>14} {:>14} {:>12} {:>14}",
        "payload", "request MB/s", "response MB/s", "req allocs", "req MiB alloc"
    );
    let payloads: &[usize] = if quick {
        // quick keeps the 1 MiB and 4 MiB points so --check-cliff can
        // guard the large-message regression in CI
        &[64, 1024, 4096]
    } else {
        &[64, 256, 1024, 4096, 16384]
    };
    let mut rows = Vec::new();
    for &kb in payloads {
        let bytes = kb * 1024;
        // every cell runs `iters` round trips: MB/s is total bytes over
        // total time, the latency histograms accumulate one sample per
        // trip, and allocator pressure is averaged per request — a
        // single-shot cell gave p50 == p99 by construction
        let iters = if quick { 8 } else { 20 };
        let mib_per_trip = |bytes: u64| bytes as f64 / (1024.0 * 1024.0) / iters as f64;
        // request-heavy
        let c = throughput_cluster(bytes);
        c.net.metrics.reset();
        let a0 = alloc_snapshot();
        let mut d_req = Duration::ZERO;
        for _ in 0..iters {
            let (d, _) = time_query(&c.a, &request_heavy_query());
            d_req += d;
        }
        let da = alloc_snapshot().since(a0);
        let sent = c.net.metrics.snapshot().bytes_sent;
        let req_lat = c.a.hists.call_latency_micros.snapshot();
        // response-heavy
        let c2 = throughput_cluster(bytes);
        c2.net.metrics.reset();
        let a0 = alloc_snapshot();
        let mut d_resp = Duration::ZERO;
        // the callee's store document earns its wire image in the first two
        // trips; after them a response is slices of it
        let cold = xmldom::serialize_counters();
        let mut warm = cold;
        for i in 0..iters {
            if i == 2 {
                warm = xmldom::serialize_counters();
            }
            let (d, _) = time_query(&c2.a, &response_heavy_query());
            d_resp += d;
        }
        let done = xmldom::serialize_counters();
        let resp_mib_alloc = mib_per_trip(alloc_snapshot().since(a0).bytes);
        let recv = c2.net.metrics.snapshot().bytes_received;
        let resp_lat = c2.a.hists.call_latency_micros.snapshot();
        warn_samples(&format!("E4 request {kb} KiB"), req_lat.count);
        warn_samples(&format!("E4 response {kb} KiB"), resp_lat.count);
        let req = mb_per_sec(sent, d_req);
        let resp = mb_per_sec(recv, d_resp);
        let req_allocs = da.allocs as f64 / iters as f64;
        let req_mib_alloc = mib_per_trip(da.bytes);
        println!(
            "{:<12} {:>14.1} {:>14.1} {:>12.0} {:>14.1}",
            format!("{kb} KiB"),
            req,
            resp,
            req_allocs,
            req_mib_alloc
        );
        rows.push(vec![
            ("payload_kib", kb as f64),
            ("request_mb_per_s", req),
            ("response_mb_per_s", resp),
            ("request_allocs", req_allocs),
            ("request_mib_allocated", req_mib_alloc),
            // per round trip, like the request's: with the MiB shipped, how
            // many times over a stage rebuilds what it was handed
            ("response_mib_allocated", resp_mib_alloc),
            // counts that repeat on any host: nodes the serializer walked
            // once the cell was warm, images it built over the whole cell
            (
                "response_warm_nodes_walked",
                (done.nodes_walked - warm.nodes_walked) as f64,
            ),
            (
                "response_image_builds",
                (done.image_builds - cold.image_builds) as f64,
            ),
            ("samples", iters as f64),
            // originator-side latency histograms (the same ones /metrics
            // exposes), so the JSON artifact carries quantiles per PR
            ("request_call_p50_micros", req_lat.p50 as f64),
            ("request_call_p99_micros", req_lat.p99 as f64),
            ("response_call_p50_micros", resp_lat.p50 as f64),
            ("response_call_p99_micros", resp_lat.p99 as f64),
            ("request_bytes_sent", sent as f64),
            ("response_bytes_received", recv as f64),
        ]);
    }
    println!("paper: ~8 MB/s requests, ~14 MB/s responses (CPU-bound on 1Gb/s LAN)");
    write_json(
        "BENCH_E4.json",
        "E4",
        "request/response payload throughput (MB/s) + allocator pressure",
        quick,
        &rows,
    );
    if quick {
        wire_image_guard(&rows);
    }
    if check_cliff {
        check_cliff_guard(&rows);
    }
    println!();
}

/// CI guard on counts: the warm response-heavy 1 MiB and 4 MiB cells walk
/// no node (the payload is slices of the store document's wire image) and
/// the one store document behind them builds at most one image.
fn wire_image_guard(rows: &[Vec<(&str, f64)>]) {
    let field = |row: &[(&str, f64)], key: &str| row_field(row, key).unwrap_or(f64::INFINITY);
    for row in rows.iter().filter(|r| field(r, "payload_kib") >= 1024.0) {
        let kib = field(row, "payload_kib");
        let walked = field(row, "response_warm_nodes_walked");
        let builds = field(row, "response_image_builds");
        if walked != 0.0 || builds > 1.0 {
            eprintln!(
                "E4 quick FAILED: the {kib} KiB response-heavy cell walked {walked} nodes warm (expected 0) and built {builds} images (expected at most 1)"
            );
            std::process::exit(11);
        }
    }
    println!("E4 quick: warm response-heavy cells walk 0 nodes, at most 1 image a store document");
}

fn row_field(row: &[(&str, f64)], key: &str) -> Option<f64> {
    row.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// CI cliff-regression guard: fail if 4 MiB request throughput is more
/// than 3× below the 1 MiB point (2× is the target; 3× leaves headroom
/// for CI noise).
fn check_cliff_guard(rows: &[Vec<(&str, f64)>]) {
    let req_at = |kib: f64| -> Option<f64> {
        rows.iter()
            .find(|r| row_field(r, "payload_kib") == Some(kib))
            .and_then(|r| row_field(r, "request_mb_per_s"))
    };
    let (Some(one_mib), Some(four_mib)) = (req_at(1024.0), req_at(4096.0)) else {
        eprintln!("cliff check: 1 MiB / 4 MiB rows missing from the sweep");
        std::process::exit(3);
    };
    let ratio = one_mib / four_mib.max(1e-9);
    println!("cliff check: request 1 MiB = {one_mib:.1} MB/s, 4 MiB = {four_mib:.1} MB/s ({ratio:.2}x gap, limit 3x)");
    if ratio > 3.0 {
        eprintln!("cliff check FAILED: 4 MiB request throughput is {ratio:.2}x below the 1 MiB point (> 3x)");
        std::process::exit(3);
    }
}

/// Ablation A1: where does Bulk RPC win? Sweep the link latency.
fn ablation_latency(quick: bool) {
    println!("== Ablation A1: bulk vs one-at-a-time across link latencies (x=100, msec) ==");
    println!(
        "{:<16} {:>14} {:>10} {:>9}",
        "one-way latency", "one-at-a-time", "bulk", "speedup"
    );
    let latencies: &[f64] = if quick {
        &[0.1, 1.0]
    } else {
        &[0.1, 1.0, 10.0, 50.0]
    };
    let mut rows = Vec::new();
    // the one-at-a-time side makes 100 calls per run (100 latency
    // samples); the bulk side makes *one* call per run, so a single run
    // gave a one-sample histogram with p50 == p99 — repeat it and
    // report the mean query time over the repeats
    let bulk_runs = 20u32;
    for &lat_ms in latencies {
        let profile = NetProfile::with_latency(Duration::from_secs_f64(lat_ms / 1e3));
        let (single, single_lat) = {
            let c = echo_cluster(profile, false, true);
            let (d, _) = time_query(&c.a, &echo_query(100));
            (d, c.a.hists.call_latency_micros.snapshot())
        };
        let (bulk, bulk_lat) = {
            let c = echo_cluster(profile, true, true);
            let mut total = Duration::ZERO;
            for _ in 0..bulk_runs {
                let (d, _) = time_query(&c.a, &echo_query(100));
                total += d;
            }
            (total / bulk_runs, c.a.hists.call_latency_micros.snapshot())
        };
        warn_samples(&format!("A1 one-at-a-time {lat_ms} ms"), single_lat.count);
        warn_samples(&format!("A1 bulk {lat_ms} ms"), bulk_lat.count);
        let speedup = ms(single) / ms(bulk).max(0.001);
        println!(
            "{:<16} {:>14.1} {:>10.1} {:>8.1}x",
            format!("{lat_ms} ms"),
            ms(single),
            ms(bulk),
            speedup
        );
        rows.push(vec![
            ("latency_ms", lat_ms),
            ("one_at_a_time_ms", ms(single)),
            ("bulk_ms", ms(bulk)),
            ("speedup", speedup),
            // per-roundtrip quantiles: one-at-a-time pays the link per
            // call (p50 ≈ RTT), bulk amortizes it over the whole batch
            ("one_at_a_time_call_p50_micros", single_lat.p50 as f64),
            ("one_at_a_time_call_p99_micros", single_lat.p99 as f64),
            ("bulk_call_p50_micros", bulk_lat.p50 as f64),
            ("bulk_call_p99_micros", bulk_lat.p99 as f64),
            ("one_at_a_time_samples", single_lat.count as f64),
            ("bulk_samples", bulk_lat.count as f64),
        ]);
    }
    write_json(
        "BENCH_A1.json",
        "A1",
        "bulk vs one-at-a-time across link latencies (x=100, ms)",
        quick,
        &rows,
    );
    println!();
}

/// U1: committed distributed updates per second against one durable
/// participant under `FsyncPolicy::Always`, swept over concurrent
/// updaters. The participant holds each transaction's only ∆ and commits
/// it in one phase before it answers the call: one message and one forced
/// WAL record (`Decision`; `Prepared` rides its flush, the `Applied` marker
/// the next one); concurrent updaters share each fsync. `--quick` fails
/// (exit 8) when one updater pays more than its one message or its one
/// force a transaction, or the updated document has grown with the number
/// of commits.
/// Slots `<log><e>n</e></log>` may occupy however often it was updated:
/// twice the four it parses to, plus the one an update is about to free.
const U1_DOC_SLOT_BOUND: usize = 9;

fn update_throughput(quick: bool) {
    println!("== U1: durable update throughput (fsync=always) ==");
    let counts: &[usize] = if quick {
        &[1, 8, 16]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let mut rows = Vec::new();

    // --- commit path: the append sequence (Prepared ∆ unforced,
    // Decision forced, Applied not) every committed update pays at the
    // participant's WAL —
    // the layer group commit batches, measured without the engine and
    // XML codec competing for the same core ---
    println!("-- commit path (participant's forced WAL sequence per update) --");
    println!(
        "{:>9} {:>16} {:>12} {:>12} {:>12}",
        "updaters", "committed/s", "p50 ms", "p99 ms", "fsyncs/txn"
    );
    let per_thread = if quick { 250 } else { 600 };
    for &n in counts {
        let cp = CommitPath::open();
        cp.commit_one("xrpc://warm.example.org", 0);
        let t0 = std::time::Instant::now();
        let mut lat: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|t| {
                    let cp = &cp;
                    s.spawn(move || {
                        let host = format!("xrpc://u{t}.example.org");
                        let mut v = Vec::with_capacity(per_thread);
                        for i in 0..per_thread {
                            let t0 = std::time::Instant::now();
                            cp.commit_one(&host, 1 + i as u64);
                            v.push(ms(t0.elapsed()));
                        }
                        v
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("updater thread"))
                .collect()
        });
        let elapsed = t0.elapsed();
        let committed = (n * per_thread) as f64;
        let per_s = committed / elapsed.as_secs_f64().max(1e-9);
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = lat[lat.len() / 2];
        let p99 = lat[((lat.len() as f64 * 0.99) as usize).min(lat.len() - 1)];
        let fsyncs_per_txn = cp.wal.stats().fsyncs as f64 / committed;
        println!(
            "{:>9} {:>16.0} {:>12.3} {:>12.3} {:>12.2}",
            n, per_s, p50, p99, fsyncs_per_txn,
        );
        rows.push(vec![
            ("end_to_end", 0.0),
            ("updaters", n as f64),
            ("committed_per_s", per_s),
            ("commit_p50_ms", p50),
            ("commit_p99_ms", p99),
            ("wal_fsyncs_per_txn", fsyncs_per_txn),
        ]);
    }

    // --- end to end: the same protocol through the wire — XML request
    // parsing, XQuery evaluation, 2PC handlers and the WAL all sharing
    // the host CPU ---
    println!("-- end to end (wire-level update transactions) --");
    println!(
        "{:>9} {:>16} {:>12} {:>12} {:>12} {:>14}",
        "updaters", "committed/s", "p50 ms", "p99 ms", "fsyncs/txn", "commit p50 us"
    );
    let per_thread = if quick { 60 } else { 200 };
    let mut gate_failures: Vec<String> = Vec::new();
    for &n in counts {
        let c = update_cluster(n);
        // queryID timestamps: unique per (driver host, txn) and
        // recent enough to pass expiry checks at the participant
        let base = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_millis() as u64;
        // warm the module/translation/dispatch path outside the clock
        c.drivers[0].commit_one(base).unwrap();
        let t0 = std::time::Instant::now();
        let mut lat: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = c
                .drivers
                .iter()
                .map(|d| {
                    s.spawn(move || {
                        let mut v = Vec::with_capacity(per_thread);
                        for i in 0..per_thread {
                            let t = std::time::Instant::now();
                            d.commit_one(base + 1 + i as u64).expect("update commits");
                            v.push(ms(t.elapsed()));
                        }
                        v
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("updater thread"))
                .collect()
        });
        let elapsed = t0.elapsed();
        let committed = (n * per_thread) as f64;
        // cross-check against the participant's own 2PC accounting:
        // every driver transaction must have actually committed
        assert_eq!(
            c.b.twopc_metrics.snapshot().commits,
            n as u64 * per_thread as u64 + 1,
            "participant disagrees about committed count"
        );
        let per_s = committed / elapsed.as_secs_f64().max(1e-9);
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = lat[lat.len() / 2];
        let p99 = lat[((lat.len() as f64 * 0.99) as usize).min(lat.len() - 1)];
        let fsyncs_per_txn = c.b.wal().unwrap().stats().fsyncs as f64 / committed;
        let doc_slots = c.b.docs.get("log.xml").expect("log document").len();
        let messages_per_txn = c.net.handled_count(B_URI) as f64 / (committed + 1.0);
        if n == 1 && (messages_per_txn != 1.0 || fsyncs_per_txn > 1.05) {
            gate_failures.push(format!(
                "{messages_per_txn:.2} messages and {fsyncs_per_txn:.2} fsyncs/txn at one \
                 updater: a lone writer commits on its call's reply, with one force"
            ));
        }
        if doc_slots > U1_DOC_SLOT_BOUND {
            gate_failures.push(format!(
                "log.xml holds {doc_slots} slots after {committed} commits \
                 (bound {U1_DOC_SLOT_BOUND}): the document grows with its history"
            ));
        }
        let commit_us = c.b.hists.twopc_commit_micros.snapshot();
        println!(
            "{:>9} {:>16.0} {:>12.3} {:>12.3} {:>12.2} {:>14}",
            n, per_s, p50, p99, fsyncs_per_txn, commit_us.p50
        );
        rows.push(vec![
            ("end_to_end", 1.0),
            ("updaters", n as f64),
            ("committed_per_s", per_s),
            ("commit_p50_ms", p50),
            ("commit_p99_ms", p99),
            ("wal_fsyncs_per_txn", fsyncs_per_txn),
            ("participant_commit_p50_micros", commit_us.p50 as f64),
            ("messages_per_txn", messages_per_txn),
            ("log_doc_slots", doc_slots as f64),
        ]);
    }
    write_json(
        "BENCH_U1.json",
        "U1",
        "durable update throughput (fsync=always)",
        quick,
        &rows,
    );
    if quick {
        // counters, not clocks: they repeat exactly on any host
        for failure in &gate_failures {
            eprintln!("U1 quick FAILED: {failure}");
        }
        if !gate_failures.is_empty() {
            std::process::exit(8);
        }
        println!("U1 quick: 1 message, ≤ 1.05 fsyncs/txn at one updater, log.xml ≤ {U1_DOC_SLOT_BOUND} slots");
    }
    println!();
}

/// Ablation A3: marshaling cost (s2n + n2s through full message text) by
/// parameter shape — the paper's two value families (§2.1), atomic values
/// vs element subtrees, at n ∈ {10, 100, 1000} items per parameter.
fn ablation_marshal() {
    use std::sync::Arc;
    use std::time::Instant;
    use xdm::{Item, Sequence};
    use xrpc_proto::{parse_message, XrpcRequest};

    fn atomic_seq(n: usize) -> Sequence {
        (0..n)
            .map(|i| match i % 2 {
                0 => Item::integer(i as i64),
                _ => Item::string(format!("value-{i}")),
            })
            .collect()
    }
    fn element_seq(n: usize) -> Sequence {
        let films: String = (0..n)
            .map(|i| format!("<film year=\"{i}\"><name>Film {i}</name></film>"))
            .collect();
        let doc = Arc::new(xmldom::parse(&format!("<w>{films}</w>")).unwrap());
        let w = doc.first_child(doc.root()).unwrap();
        doc.children(w)
            .map(|c| Item::Node(xmldom::NodeHandle::new(doc.clone(), c)))
            .collect()
    }
    /// One message out and back in; returns its size on the wire.
    fn roundtrip(seq: &Sequence) -> usize {
        let mut req = XrpcRequest::new("m", "f", 1);
        req.push_call(vec![seq.clone()]);
        let xml = req.to_xml().unwrap();
        parse_message(&xml).unwrap();
        xml.len()
    }

    println!("== Ablation A3: marshaling round trip by parameter shape (µs/message) ==");
    println!(
        "{:<8} {:>6} {:>12} {:>12}",
        "shape", "n", "µs/message", "bytes"
    );
    let mut rows = Vec::new();
    for n in [10usize, 100, 1000] {
        for (shape, seq) in [("atomic", atomic_seq(n)), ("element", element_seq(n))] {
            let bytes = roundtrip(&seq); // warm the buffer pool
            let iters = (20_000 / n).max(20);
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(roundtrip(std::hint::black_box(&seq)));
            }
            let micros = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
            println!("{shape:<8} {n:>6} {micros:>12.1} {bytes:>12}");
            rows.push(vec![
                ("element", (shape == "element") as u64 as f64),
                ("n", n as f64),
                ("micros_per_message", micros),
                ("message_bytes", bytes as f64),
                ("samples", iters as f64),
            ]);
        }
    }
    write_json(
        "BENCH_A3.json",
        "A3",
        "marshaling round trip (to_xml + parse_message): atomic vs element parameters",
        false,
        &rows,
    );
    println!();
}

/// Ablation A2: cost of repeatable-read isolation (snapshot pinning +
/// end-of-query release) against isolation "none".
fn ablation_isolation() {
    println!("== Ablation A2: isolation overhead (tree engine, 20 calls/query, msec/query) ==");
    let mk_query = |iso: &str| {
        format!(
            r#"declare option xrpc:isolation "{iso}";
import module namespace t = "test";
for $i in (1 to 20) return execute at {{"{B_URI}"}} {{t:echoVoid()}}"#
        )
    };
    for iso in ["none", "repeatable"] {
        let c = echo_cluster(NetProfile::lan(), false, true);
        // warm-up
        let _ = time_query(&c.a, &mk_query(iso));
        let runs = 5;
        let mut total = Duration::ZERO;
        for _ in 0..runs {
            let (d, _) = time_query(&c.a, &mk_query(iso));
            total += d;
        }
        println!("{:<12} {:>10.1}", iso, ms(total / runs));
    }
    println!();
}
