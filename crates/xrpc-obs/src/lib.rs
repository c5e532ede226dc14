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
//! Histograms are plain fields of whatever records them (a peer's
//! families, a WAL's, a transport's per-destination stats), each read by
//! name from one table on `/metrics`: recording takes no lock and
//! allocates nothing past a histogram's first sample.

mod hash;
pub mod hist;
pub mod profile;
pub mod prom;
pub mod slowlog;
pub mod trace;

pub use hash::{fnv1a64, fnv1a64_continue};
pub use hist::{HistSnapshot, Histogram};
pub use profile::{
    HopProfile, OpGuard, OpNode, Phase, PhaseClock, PhaseGuard, Phases, ProfileCollector,
    ProfileMode, QueryProfile,
};
pub use prom::PromWriter;
pub use slowlog::{SlowLog, SlowLogEntry};
pub use trace::{
    ambient_span, current_context, current_tracer, set_current_context, set_current_tracer,
    trace_id_from, ContextGuard, FinishedSpan, SpanGuard, TraceContext, Tracer, TracerGuard,
};
