//! Workspace-wide observability, built only on `std`.
//!
//! Three pieces, deliberately small enough to be threaded through every
//! hop of the XRPC call path without pulling in a telemetry framework:
//!
//! * [`trace`] — a per-call [`TraceContext`] (128-bit trace id, 64-bit
//!   span id, optional parent) that rides in the SOAP envelope header,
//!   plus a [`Tracer`] whose finished spans land in a bounded ring
//!   buffer per peer, exportable as JSON and queryable from tests;
//! * [`hist`] — a fixed-footprint log-linear (HDR-style) atomic
//!   [`Histogram`] with p50/p90/p99/max snapshots and mergeable
//!   buckets, recording in whatever unit the caller picks (µs, bytes,
//!   calls);
//! * [`prom`] — Prometheus text exposition for counters, gauges and
//!   histogram summaries, backing a peer's `/metrics` endpoint;
//! * [`profile`] — the distributed query profiler: per-operator
//!   runtime stats collected via RAII guards with a sampled clock,
//!   per-hop phase breakdowns, and cross-peer assembly into one
//!   [`QueryProfile`] (JSON / folded-stack flamegraph);
//! * [`slowlog`] — the always-on slow-query log: bounded, rotating
//!   JSON-lines appended without ever blocking the request path, served at
//!   `GET /slowlog`.
//!
//! [`Observability`] bundles a tracer with a registry of named
//! histograms so one `Arc` can be handed to every layer of a peer.

mod hash;
pub mod hist;
pub mod profile;
pub mod prom;
pub mod slowlog;
pub mod trace;

pub use hash::{fnv1a64, fnv1a64_continue};
pub use hist::{HistSnapshot, Histogram, HistogramVec};
pub use profile::{
    HopProfile, OpGuard, OpNode, Phase, Phases, ProfileCollector, ProfileMode, QueryProfile,
};
pub use prom::PromWriter;
pub use slowlog::{SlowLog, SlowLogEntry};
pub use trace::{
    ambient_span, current_context, current_tracer, set_current_context, set_current_tracer,
    trace_id_from, ContextGuard, FinishedSpan, SpanGuard, TraceContext, Tracer, TracerGuard,
};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One peer's observability state: a tracer plus named histograms.
///
/// Histograms are created on first use and live for the peer's
/// lifetime; the `BTreeMap` keeps `/metrics` output stably ordered.
pub struct Observability {
    pub tracer: Arc<Tracer>,
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
    vecs: Mutex<BTreeMap<String, Arc<HistogramVec>>>,
}

impl Observability {
    pub fn new(peer: &str) -> Arc<Self> {
        Arc::new(Observability {
            tracer: Arc::new(Tracer::new(peer, 4096)),
            hists: Mutex::new(BTreeMap::new()),
            vecs: Mutex::new(BTreeMap::new()),
        })
    }

    /// Get-or-create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut h = self.hists.lock().unwrap();
        h.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Get-or-create a labeled histogram family (`name{label="..."}`)
    /// keyed by `label`.
    pub fn histogram_vec(&self, name: &str, label: &str) -> Arc<HistogramVec> {
        let mut v = self.vecs.lock().unwrap();
        v.entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramVec::new(label)))
            .clone()
    }

    /// Every plain histogram, name-sorted (for exposition).
    pub fn histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        self.hists
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Every labeled family, name-sorted (for exposition).
    pub fn histogram_vecs(&self) -> Vec<(String, Arc<HistogramVec>)> {
        self.vecs
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}
