//! `calibrate` (does identical code agree with itself within the bounds?)
//! and `trace-summary` (where does an operation's time go?). Both run the
//! benchmark as child processes, because peak RSS is per process.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{compare_sets, iqr_share, quartiles_exclusive};
use crate::workloads::Workload;
use crate::Args;
use std::collections::BTreeMap;
use std::process::Command;

/// The metrics of a child run's last line, or why there are none.
fn child_run(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() || !last.contains("\"correct\": true") {
        return Err(format!(
            "{} seed {seed}: exit {:?}, last line `{last}`",
            w.name(),
            out.status.code()
        ));
    }
    Ok(parse_metrics(last))
}

/// `"name": {"value": 1.5, "unit": "ms"}` pairs of a result line.
fn parse_metrics(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let marker = "\": {\"value\": ";
    let mut rest = line;
    while let Some(at) = rest.find(marker) {
        let name = rest[..at].rsplit('"').next().unwrap_or_default();
        let tail = &rest[at + marker.len()..];
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        if let Ok(v) = tail[..end].trim().parse::<f64>() {
            out.insert(name.to_string(), v);
        }
        rest = &tail[end..];
    }
    out
}

fn selected(args: &Args) -> Vec<Workload> {
    args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w])
}

pub fn calibrate(args: &Args) -> Result<(), String> {
    let runs = args.runs.max(2);
    let mut json = vec![];
    let mut failures = vec![];
    println!("| workload | metric | median A | median B | B/A | worse by | spread A | spread B | bound |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for w in selected(args) {
        // interleaved: A and B alternate, each run on another seed
        let mut sets: [Vec<BTreeMap<String, f64>>; 2] = [vec![], vec![]];
        for i in 0..runs * 2 {
            let m = child_run(w, args.seed + i as u64, args.seconds, false)?;
            sets[i % 2].push(m);
        }
        for g in &END_TO_END {
            let col = |set: &[BTreeMap<String, f64>]| -> Vec<f64> {
                set.iter().filter_map(|m| m.get(g.name).copied()).collect()
            };
            let (a, b) = (col(&sets[0]), col(&sets[1]));
            let c = compare_sets(&a, &b, g.higher_is_better, g.bound);
            let (spread_a, spread_b) = (iqr_share(&a), iqr_share(&b));
            // the driver's two rules: set medians agree within the bound,
            // and (set-up time aside) so does each set's own spread
            let steady = g.name == "setup_s" || spread_a.max(spread_b) <= g.bound;
            println!(
                "| {} | {} | {:.4} | {:.4} | {:.4} | {:.2}% | {:.2}% | {:.2}% | {:.0}% |{}",
                w.name(),
                g.name,
                c.median_a,
                c.median_b,
                c.ratio,
                c.worst * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                g.bound * 100.0,
                if c.within && steady { "" } else { " FAIL" }
            );
            let (qa, qb) = (quartiles_exclusive(&a), quartiles_exclusive(&b));
            json.push(format!(
                "{{\"workload\": \"{}\", \"metric\": \"{}\", \"median_a\": {}, \"median_b\": {}, \"ratio\": {}, \"worst\": {}, \"quartiles_a\": [{}, {}], \"quartiles_b\": [{}, {}], \"iqr_share_a\": {}, \"iqr_share_b\": {}, \"bound\": {}, \"headroom\": {}, \"within\": {}}}",
                w.name(), g.name, c.median_a, c.median_b, c.ratio, c.worst, qa.0, qa.1, qb.0, qb.1,
                spread_a, spread_b, g.bound, g.bound - c.worst, c.within
            ));
            if !c.within {
                failures.push(format!(
                    "{}/{} medians {:.2}% apart",
                    w.name(),
                    g.name,
                    c.worst * 100.0
                ));
            }
            if !steady {
                failures.push(format!(
                    "{}/{} spreads by {:.2}%",
                    w.name(),
                    g.name,
                    spread_a.max(spread_b) * 100.0
                ));
            }
        }
    }
    let out = crate::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let body = format!(
        "{{\"runs_per_set\": {runs}, \"seconds\": {}, \"rows\": [\n{}\n]}}\n",
        args.seconds,
        json.join(",\n")
    );
    std::fs::write(out.join("noise.json"), body).map_err(|e| e.to_string())?;
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("outside the bound: {}", failures.join(", ")))
    }
}

/// Name prefixes of the metrics `trace-summary` lists under "detail": the
/// replay rows that are not already shown under a self time, and the counts
/// that tell the workloads apart.
const DETAIL: [&str; 9] = [
    "xmldom.",
    "xrpc-proto.",
    "xqast.",
    "xqeval.",
    "relalg.lift_self",
    "xrpc-peer.dispatch",
    "xrpc-peer.plan_miss",
    "wal.",
    "xrpc-obs.",
];

pub fn trace_summary(args: &Args) -> Result<(), String> {
    for w in selected(args) {
        // tracing overhead from `--runs` pairs (a single pair is inside the
        // host's noise); the table from the last pair
        let mut ratios = Vec::new();
        let mut last = None;
        for i in 0..args.runs.max(1) as u64 {
            let plain = child_run(w, args.seed + i, args.seconds, false)?;
            let traced = child_run(w, args.seed + i, args.seconds, true)?;
            ratios.push(traced["live.lat_p50_ms"] / plain["lat_p50_ms"]);
            last = Some(traced);
        }
        let traced = last.expect("at least one pair ran");
        let get = |k: &str| traced.get(k).copied().unwrap_or(0.0);
        let execute = get("live.execute_ms");
        println!("## {}", w.name());
        println!(
            "execute spans {:.4} ms per op = client {:.4} ({:.1}%) + wire {:.4} ({:.1}%) + server {:.4} ({:.1}%); sum/execute {:.4}",
            execute,
            get("xrpc-peer.client_self_ms"),
            100.0 * get("xrpc-peer.client_self_ms") / execute,
            get("xrpc-net.wire_self_ms"),
            100.0 * get("xrpc-net.wire_self_ms") / execute,
            get("xrpc-peer.server_self_ms"),
            100.0 * get("xrpc-peer.server_self_ms") / execute,
            get("live.self_sum_ratio")
        );
        let sample = get("sample.execute_ms");
        println!(
            "sampled queries: execute spans {sample:.4} ms, {} calls on the wire, {:.1} KiB; replay rows under the self time each explains",
            get("sample.calls_on_wire"),
            get("sample.kib")
        );
        let under = |title: &str, live: f64, rows: &[&str]| {
            println!(
                "  {title} {live:.4} ms ({:.1}% of the sample)",
                100.0 * live / sample
            );
            let mut explained = 0.0;
            for name in rows {
                let v = get(name);
                explained += v;
                println!("    {name:<34} {v:>10.4}");
            }
            println!("    {:<34} {:>10.4}", "unattributed_ms", live - explained);
        };
        under(
            "client self",
            get("sample.client_self_ms"),
            &["xrpc-peer.plan_hit_ms", "relalg.lift_ms"],
        );
        under(
            "wire self",
            get("sample.wire_self_ms"),
            &["xrpc-net.http_echo_ms"],
        );
        under(
            "server self",
            get("sample.server_self_ms"),
            &["xrpc-peer.handle_soap_ms", "wal.append_ms"],
        );
        println!("  detail (not additive with the rows above)");
        for (name, unit, _) in PER_LAYER {
            if DETAIL.iter().any(|p| name.starts_with(p)) {
                println!("    {name:<34} {:>10.4} {unit}", get(name));
            }
        }
        println!(
            "  trace_overhead_ratio {:.4} (median of traced / untraced lat_p50_ms over {} pairs: {:?})",
            crate::stats::median(&ratios),
            ratios.len(),
            ratios.iter().map(|r| (r * 1e3).round() / 1e3).collect::<Vec<_>>()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = crate::metrics::RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("lat_p50_ms", 1.25, "ms"), ("setup_s", 0.5, "s")],
        }
        .to_json();
        let m = parse_metrics(&line);
        assert_eq!(m.len(), 2);
        assert_eq!((m["lat_p50_ms"], m["setup_s"]), (1.25, 0.5));
    }
}
