//! Prometheus text exposition (version 0.0.4): the format a peer's
//! `/metrics` endpoint serves. Counters and gauges are one sample
//! line; histograms are exposed as summaries — `{quantile="…"}`
//! samples plus `_sum` and `_count` — because the log-linear buckets
//! already give calibrated quantiles and a summary keeps the output
//! compact. `# TYPE` headers are emitted once per family, so labeled
//! series (one per destination) group cleanly.

use crate::hist::HistSnapshot;
use std::collections::HashSet;
use std::fmt::Write;

/// Accumulates one exposition document.
#[derive(Default)]
pub struct PromWriter {
    out: String,
    typed: HashSet<String>,
}

impl PromWriter {
    pub fn new() -> Self {
        Self::default()
    }

    fn type_line(&mut self, name: &str, kind: &str) {
        if self.typed.insert(name.to_string()) {
            let _ = writeln!(self.out, "# TYPE {name} {kind}");
        }
    }

    pub fn counter(&mut self, name: &str, value: u64) {
        self.type_line(name, "counter");
        let _ = writeln!(self.out, "{name} {value}");
    }

    pub fn counter_labeled(&mut self, name: &str, label: &str, label_value: &str, value: u64) {
        self.type_line(name, "counter");
        let _ = writeln!(
            self.out,
            "{name}{{{label}=\"{}\"}} {value}",
            escape_label(label_value)
        );
    }

    pub fn gauge(&mut self, name: &str, value: u64) {
        self.type_line(name, "gauge");
        let _ = writeln!(self.out, "{name} {value}");
    }

    pub fn gauge_labeled(&mut self, name: &str, label: &str, label_value: &str, value: u64) {
        self.type_line(name, "gauge");
        let _ = writeln!(
            self.out,
            "{name}{{{label}=\"{}\"}} {value}",
            escape_label(label_value)
        );
    }

    /// A histogram snapshot as a summary family: p50/p90/p99 quantile
    /// samples plus `_sum`/`_count`.
    pub fn summary(&mut self, name: &str, snap: &HistSnapshot) {
        self.summary_inner(name, "", snap);
    }

    /// Same, with one extra label pair on every sample (for
    /// per-destination families).
    pub fn summary_labeled(
        &mut self,
        name: &str,
        label: &str,
        label_value: &str,
        snap: &HistSnapshot,
    ) {
        let extra = format!("{label}=\"{}\",", escape_label(label_value));
        self.summary_inner(name, &extra, snap);
    }

    fn summary_inner(&mut self, name: &str, extra: &str, snap: &HistSnapshot) {
        self.type_line(name, "summary");
        for (q, v) in [("0.5", snap.p50), ("0.9", snap.p90), ("0.99", snap.p99)] {
            let _ = writeln!(self.out, "{name}{{{extra}quantile=\"{q}\"}} {v}");
        }
        let suffix_labels = if extra.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", extra.trim_end_matches(','))
        };
        let _ = writeln!(self.out, "{name}_sum{suffix_labels} {}", snap.sum);
        let _ = writeln!(self.out, "{name}_count{suffix_labels} {}", snap.count);
    }

    pub fn finish(self) -> String {
        self.out
    }
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A light validity check for tests and the CI smoke step: every
/// non-comment line must be `name[{labels}] value` with a parseable
/// numeric value, and every sample's family must have a preceding
/// `# TYPE` line. Returns the set of family names seen.
pub fn validate_exposition(text: &str) -> Result<Vec<String>, String> {
    let mut families: Vec<String> = Vec::new();
    let mut typed: HashSet<String> = HashSet::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it
                .next()
                .ok_or_else(|| format!("line {}: TYPE without name", lineno + 1))?;
            let kind = it
                .next()
                .ok_or_else(|| format!("line {}: TYPE without kind", lineno + 1))?;
            if !matches!(kind, "counter" | "gauge" | "summary" | "histogram") {
                return Err(format!("line {}: unknown TYPE kind `{kind}`", lineno + 1));
            }
            typed.insert(name.to_string());
            families.push(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: `{line}`", lineno + 1))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("line {}: non-numeric value `{value}`", lineno + 1))?;
        let name = series.split('{').next().unwrap_or(series);
        let family = name
            .strip_suffix("_sum")
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| typed.contains(*f))
            .unwrap_or(name);
        if !typed.contains(family) {
            return Err(format!(
                "line {}: sample `{name}` has no # TYPE header",
                lineno + 1
            ));
        }
    }
    Ok(families)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    #[test]
    fn counters_and_gauges_format() {
        let mut w = PromWriter::new();
        w.counter("xrpc_net_roundtrips_total", 5);
        w.gauge("xrpc_pool_occupancy", 3);
        w.counter_labeled("xrpc_retries_total", "dest", "http://a:1/x", 2);
        w.counter_labeled("xrpc_retries_total", "dest", "b\"c", 1);
        let out = w.finish();
        assert!(
            out.contains("# TYPE xrpc_net_roundtrips_total counter\nxrpc_net_roundtrips_total 5\n")
        );
        assert!(out.contains("xrpc_retries_total{dest=\"http://a:1/x\"} 2"));
        assert!(out.contains("xrpc_retries_total{dest=\"b\\\"c\"} 1"));
        // one TYPE line for the two labeled samples
        assert_eq!(out.matches("# TYPE xrpc_retries_total").count(), 1);
        validate_exposition(&out).unwrap();
    }

    #[test]
    fn summary_format_round_trips_validator() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let mut w = PromWriter::new();
        w.summary("xrpc_call_latency_micros", &h.snapshot());
        w.summary_labeled("xrpc_dest_latency_micros", "dest", "peer-a", &h.snapshot());
        let out = w.finish();
        assert!(out.contains("xrpc_call_latency_micros{quantile=\"0.5\"}"));
        assert!(out.contains("xrpc_call_latency_micros_sum 5050"));
        assert!(out.contains("xrpc_call_latency_micros_count 100"));
        assert!(out.contains("xrpc_dest_latency_micros{dest=\"peer-a\",quantile=\"0.99\"}"));
        assert!(out.contains("xrpc_dest_latency_micros_sum{dest=\"peer-a\"} 5050"));
        let families = validate_exposition(&out).unwrap();
        assert!(families.contains(&"xrpc_call_latency_micros".to_string()));
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_exposition("no_type_header 3").is_err());
        assert!(validate_exposition("# TYPE x counter\nx banana").is_err());
        assert!(validate_exposition("# TYPE x frobnicator\nx 1").is_err());
        validate_exposition("# TYPE ok counter\nok 1\n\n# comment\n").unwrap();
    }
}
