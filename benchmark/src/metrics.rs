//! The named metrics: which exist, their units and bounds, and how a run's
//! raw data becomes them. `BENCHMARK.json` lists the same names (a unit test
//! keeps the two in step).

use crate::replay::Replayed;
use crate::run::{peak_rss_mib, RunData, Timed, MEASURED};
use crate::stats::{cv, median, quantile};
use crate::trace;
use crate::workloads::{Workload, Q7_LABELS};

pub struct Gate {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn gate(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Gate {
    Gate {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// The gated end-to-end metrics, the same six for every workload. The
/// bounds come out of `calibrate` (README, "Bounds"): the spread of ten runs
/// of identical code must stay within the bound, and on this host the timing
/// and memory metrics spread by up to 14% even after normalisation.
pub const END_TO_END: [Gate; 6] = [
    gate("setup_s", "s", false, 0.25),
    gate("ops_per_s", "1/s", true, 0.25),
    gate("lat_p50_ms", "ms", false, 0.25),
    gate("peak_rss_mib", "MiB", false, 0.25),
    gate("wire_kib_per_op", "KiB", false, 0.01),
    gate("roundtrips_per_op", "1", false, 0.01),
];

/// (name, unit, higher is better) of every per-layer metric of `--trace 1`.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    // live spans
    ("live.execute_ms", "ms", false),
    ("live.lat_p50_ms", "ms", false),
    ("xrpc-peer.client_self_ms", "ms", false),
    ("xrpc-net.wire_self_ms", "ms", false),
    ("xrpc-peer.server_self_ms", "ms", false),
    ("live.self_sum_ratio", "1", true),
    ("sample.execute_ms", "ms", false),
    ("sample.client_self_ms", "ms", false),
    ("sample.wire_self_ms", "ms", false),
    ("sample.server_self_ms", "ms", false),
    ("sample.calls_on_wire", "count", false),
    ("sample.kib", "KiB", false),
    ("live.orphan_roundtrips", "count", false),
    ("twopc.call_rt_ms", "ms", false),
    ("twopc.prepare_rt_ms", "ms", false),
    ("twopc.commit_rt_ms", "ms", false),
    ("twopc.commits", "count", true),
    ("twopc.aborts", "count", false),
    ("twopc.redeliveries", "count", false),
    ("distq.data_shipping_ms", "ms", false),
    ("distq.pushdown_ms", "ms", false),
    ("distq.relocation_ms", "ms", false),
    ("distq.semijoin_ms", "ms", false),
    ("distq.data_shipping_kib", "KiB", false),
    ("distq.pushdown_kib", "KiB", false),
    ("distq.relocation_kib", "KiB", false),
    ("distq.semijoin_kib", "KiB", false),
    // counters over the measured span
    ("xrpc-net.request_kib_per_op", "KiB", false),
    ("xrpc-net.response_kib_per_op", "KiB", false),
    ("xrpc-net.pool_hit_ratio", "1", true),
    ("xrpc-net.bufpool_hit_ratio", "1", true),
    ("xrpc-net.retries", "count", false),
    ("xrpc-net.sheds", "count", false),
    ("xrpc-proto.calls_per_message", "1", true),
    ("xrpc-peer.plan_cache_hit_ratio", "1", true),
    ("xrpc-peer.function_cache_hit_ratio", "1", true),
    ("xrpc-peer.parallel_bulk_share", "1", true),
    ("wal.fsyncs_per_txn", "1", false),
    ("wal.bytes_per_txn", "B", false),
    ("wrapper.compile_ms", "ms", false),
    ("wrapper.treebuild_ms", "ms", false),
    ("wrapper.exec_ms", "ms", false),
    ("alloc.allocs_per_op", "count", false),
    ("alloc.kib_per_op", "KiB", false),
    // replay
    ("xmldom.parse_ms", "ms", false),
    ("xmldom.parse_mib_per_s", "MiB/s", true),
    ("xmldom.serialize_ms", "ms", false),
    ("xmldom.serialize_mib_per_s", "MiB/s", true),
    ("xmldom.parse_allocs_per_kib", "1/KiB", false),
    ("xrpc-proto.decode_request_ms", "ms", false),
    ("xrpc-proto.decode_response_ms", "ms", false),
    ("xrpc-proto.encode_request_ms", "ms", false),
    ("xrpc-proto.encode_response_ms", "ms", false),
    ("xrpc-proto.s2n_ms", "ms", false),
    ("xrpc-proto.n2s_ms", "ms", false),
    ("xrpc-proto.decode_self_ms", "ms", false),
    ("xqast.parse_ms", "ms", false),
    ("xrpc-peer.plan_hit_ms", "ms", false),
    ("xrpc-peer.plan_miss_ms", "ms", false),
    ("xqeval.eval_ms", "ms", false),
    ("xqeval.eval_us_per_call", "us", false),
    ("relalg.lift_ms", "ms", false),
    ("relalg.lift_self_ms", "ms", false),
    ("xrpc-obs.profile_attributed_share", "1", true),
    ("xrpc-peer.handle_soap_ms", "ms", false),
    ("xrpc-peer.dispatch_self_ms", "ms", false),
    ("xrpc-net.http_echo_ms", "ms", false),
    ("xrpc-net.http_echo_mib_per_s", "MiB/s", true),
    ("wal.append_ms", "ms", false),
    // set-up split
    ("xmark.generate_s", "s", false),
    ("xrpc-peer.add_document_s", "s", false),
    ("xrpc-net.bind_s", "s", false),
    ("xrpc-peer.warmup_s", "s", false),
];

/// What a run prints as its last line.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // a number JSON can carry: no NaN, no infinity
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn describe(w: Workload, data: &RunData) {
    println!(
        "workload {} | {} clients, closed loop | inputs fnv1a {:016x}",
        w.name(),
        if w == Workload::Update2pc {
            crate::workloads::update_clients()
        } else {
            1
        },
        data.input_hash
    );
    let round3 = |v: &[f64]| {
        v.iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    };
    println!(
        "rounds {} | raw set-up {:?} s (warm-up {} ops: {:?} s) | {} ops, {} failed",
        data.setup_s.len(),
        round3(&data.setup_s.iter().map(|t| t.raw).collect::<Vec<_>>()),
        w.warmup_ops(),
        round3(&data.warmup_s),
        data.attempted,
        data.failed
    );
    let round1 = |v: &[f64]| {
        v.iter()
            .map(|w| (w * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    };
    println!("raw windows (ops/s): {:?}", round1(&data.windows_raw));
    println!(
        "normalised windows (ops/s): {:?}",
        round1(&data.windows_norm)
    );
    println!(
        "host slowdown over {} bursts: median {:.3}, p10 {:.3}, p90 {:.3}",
        data.slowdowns.len(),
        median(&data.slowdowns),
        quantile(&data.slowdowns, 0.1),
        quantile(&data.slowdowns, 0.9)
    );
    for e in data.errors.iter().take(5) {
        println!("error: {e}");
    }
}

fn counter(data: &RunData, key: &str) -> f64 {
    data.counters.get(key).copied().unwrap_or(0.0)
}

fn ok_ops(data: &RunData) -> f64 {
    (data.attempted - data.failed).max(1) as f64
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses == 0.0 {
        1.0
    } else {
        hits / (hits + misses)
    }
}

fn correct(data: &RunData) -> bool {
    data.failed == 0 && data.errors.is_empty() && data.attempted > 0
}

/// The six gated metrics of an untraced run, plus the ungated ones on a
/// line of their own (printed, never gated: they do not repeat within a
/// tenth on a shared 2-vCPU host).
pub fn end_to_end(w: Workload, data: &RunData) -> RunResult {
    describe(w, data);
    let ops = ok_ops(data);
    let raw_lat: Vec<f64> = data.lat_ms.iter().map(|t| t.raw).collect();
    let norm_lat: Vec<f64> = data.lat_ms.iter().map(|t| t.norm).collect();
    let setup = |f: fn(&Timed) -> f64| median(&data.setup_s.iter().map(f).collect::<Vec<_>>());
    println!(
        "ungated, raw: setup_s {:.4} | ops_per_s {:.4} | lat_p50_ms {:.4} | lat_p90_ms {:.4} | lat_p99_ms {:.4} ({} samples) | cpu_ms_per_op {:.4} | window_cv {:.4}",
        setup(|t| t.raw),
        median(&data.windows_raw),
        median(&raw_lat),
        quantile(&raw_lat, 0.90),
        quantile(&raw_lat, 0.99),
        raw_lat.len(),
        data.cpu_ms / ops,
        cv(&data.windows_raw)
    );
    println!(
        "ungated, normalised: lat_p90_ms {:.4} | lat_p99_ms {:.4} | window_cv {:.4}",
        quantile(&norm_lat, 0.90),
        quantile(&norm_lat, 0.99),
        cv(&data.windows_norm)
    );
    let values = [
        setup(|t| t.norm),
        median(&data.windows_norm),
        median(&norm_lat),
        peak_rss_mib(),
        (counter(data, "request_bytes") + counter(data, "response_bytes")) / 1024.0 / ops,
        counter(data, "roundtrips") / ops,
    ];
    RunResult {
        correct: correct(data),
        attempted: data.attempted,
        failed: data.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(g, v)| (g.name, v, g.unit))
            .collect(),
    }
}

/// Every per-layer metric of a traced run; those that do not apply to the
/// workload read 0.
pub fn per_layer(
    w: Workload,
    data: &RunData,
    sampled: &[&'static str],
    replayed: &Replayed,
) -> RunResult {
    describe(w, data);
    let ops = ok_ops(data);
    let mut live = trace::summarize(&data.spans, MEASURED, ops as u64);
    // spans are raw time; like every other timing they are reported as the
    // undisturbed host would have taken
    let slow = median(&data.slowdowns);
    for shares in
        std::iter::once(&mut live.per_op).chain(live.by_label.iter_mut().map(|l| &mut l.1))
    {
        shares.execute_ms /= slow;
        shares.client_self_ms /= slow;
        shares.wire_self_ms /= slow;
        shares.server_self_ms /= slow;
    }
    for rt in &mut live.method_rt_ms {
        *rt /= slow;
    }
    let mut m: std::collections::BTreeMap<&str, f64> = replayed.clone();
    m.insert("live.execute_ms", live.per_op.execute_ms);
    m.insert(
        "live.lat_p50_ms",
        median(&data.lat_ms.iter().map(|t| t.norm).collect::<Vec<_>>()),
    );
    let op = &live.per_op;
    m.insert("xrpc-peer.client_self_ms", op.client_self_ms);
    m.insert("xrpc-net.wire_self_ms", op.wire_self_ms);
    m.insert("xrpc-peer.server_self_ms", op.server_self_ms);
    m.insert(
        "live.self_sum_ratio",
        (op.client_self_ms + op.wire_self_ms + op.server_self_ms) / op.execute_ms,
    );
    // the queries the replay sampled, for comparing its rows against
    for (_, q) in live.by_label.iter().filter(|l| sampled.contains(&l.0)) {
        *m.entry("sample.execute_ms").or_insert(0.0) += q.execute_ms;
        *m.entry("sample.client_self_ms").or_insert(0.0) += q.client_self_ms;
        *m.entry("sample.wire_self_ms").or_insert(0.0) += q.wire_self_ms;
        *m.entry("sample.server_self_ms").or_insert(0.0) += q.server_self_ms;
    }
    m.insert("live.orphan_roundtrips", live.orphans as f64);
    if w == Workload::Update2pc {
        let [call, prepare, commit] = live.method_rt_ms;
        m.insert("twopc.call_rt_ms", call);
        m.insert("twopc.prepare_rt_ms", prepare);
        m.insert("twopc.commit_rt_ms", commit);
    }
    m.insert("twopc.commits", counter(data, "twopc_commits"));
    m.insert("twopc.aborts", counter(data, "twopc_aborts"));
    m.insert("twopc.redeliveries", counter(data, "twopc_redeliveries"));
    const DISTQ: [(&str, &str); 4] = [
        ("distq.data_shipping_ms", "distq.data_shipping_kib"),
        ("distq.pushdown_ms", "distq.pushdown_kib"),
        ("distq.relocation_ms", "distq.relocation_kib"),
        ("distq.semijoin_ms", "distq.semijoin_kib"),
    ];
    for (label, (ms, kib)) in Q7_LABELS.into_iter().zip(DISTQ) {
        if let Some((_, q)) = live.by_label.iter().find(|l| l.0 == label) {
            m.insert(ms, q.execute_ms);
            m.insert(kib, q.kib);
        }
    }
    m.insert(
        "xrpc-net.request_kib_per_op",
        counter(data, "request_bytes") / 1024.0 / ops,
    );
    m.insert(
        "xrpc-net.response_kib_per_op",
        counter(data, "response_bytes") / 1024.0 / ops,
    );
    m.insert(
        "xrpc-net.pool_hit_ratio",
        ratio(counter(data, "pool_hits"), counter(data, "pool_misses")),
    );
    m.insert(
        "xrpc-net.bufpool_hit_ratio",
        ratio(
            counter(data, "bufpool_hits"),
            counter(data, "bufpool_misses"),
        ),
    );
    m.insert("xrpc-net.retries", counter(data, "retries"));
    m.insert("xrpc-net.sheds", counter(data, "sheds"));
    m.insert(
        "xrpc-proto.calls_per_message",
        counter(data, "calls_handled") / counter(data, "requests_handled").max(1.0),
    );
    m.insert(
        "xrpc-peer.plan_cache_hit_ratio",
        ratio(counter(data, "plan_hits"), counter(data, "plan_misses")),
    );
    m.insert(
        "xrpc-peer.function_cache_hit_ratio",
        ratio(
            counter(data, "function_hits"),
            counter(data, "function_misses"),
        ),
    );
    m.insert(
        "xrpc-peer.parallel_bulk_share",
        counter(data, "parallel_bulk") / counter(data, "requests_handled").max(1.0),
    );
    m.insert(
        "wal.fsyncs_per_txn",
        counter(data, "wal_fsyncs") / counter(data, "twopc_commits").max(1.0),
    );
    let wrapped = counter(data, "wrapper_requests").max(1.0);
    m.insert(
        "wrapper.compile_ms",
        counter(data, "wrapper_compile_ms") / wrapped,
    );
    m.insert(
        "wrapper.treebuild_ms",
        counter(data, "wrapper_treebuild_ms") / wrapped,
    );
    m.insert(
        "wrapper.exec_ms",
        counter(data, "wrapper_exec_ms") / wrapped,
    );
    let split = |f: fn(&crate::workloads::SetupSplit) -> f64| {
        median(&data.splits.iter().map(f).collect::<Vec<_>>())
    };
    m.insert("xmark.generate_s", split(|s| s.generate_s));
    m.insert("xrpc-peer.add_document_s", split(|s| s.add_document_s));
    m.insert("xrpc-net.bind_s", split(|s| s.bind_s));
    m.insert("xrpc-peer.warmup_s", median(&data.warmup_s));
    RunResult {
        correct: correct(data) && live.orphans == 0,
        attempted: data.attempted,
        failed: data.failed,
        metrics: PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, m.get(name).copied().unwrap_or(0.0), *unit))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let listed = json.matches("\"name\":").count();
        assert_eq!(
            listed,
            Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
        for g in &END_TO_END {
            let better = if g.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                g.name, g.unit, g.bound
            );
            assert!(json.contains(&entry), "{entry}");
        }
        for (name, unit, higher) in PER_LAYER {
            let better = if *higher { "higher" } else { "lower" };
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let r = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("lat_p50_ms", 1.25, "ms"), ("broken", f64::NAN, "1")],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"lat_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"broken\": {\"value\": 0, \"unit\": \"1\"}}}"
        );
    }
}
