//! Byte/round-trip counters shared by both transports; the throughput
//! experiment (paper §3.3, "Throughput") reads these. The resilience
//! layer ([`crate::ResilientTransport`]) adds retry/timeout/breaker
//! counters so chaos tests can assert on exact fault handling.

use std::sync::atomic::{AtomicU64, Ordering};
use xrpc_obs::hist::Histogram;

/// Monotonic counters; cheap enough to update on every message.
#[derive(Default)]
pub struct NetMetrics {
    pub roundtrips: AtomicU64,
    pub bytes_sent: AtomicU64,
    pub bytes_received: AtomicU64,
    pub failures: AtomicU64,
    /// Requests resent by the retry layer (one per retry, not per call).
    pub retries: AtomicU64,
    /// Failures of kind [`crate::NetErrorKind::Timeout`] (including
    /// call-deadline overruns).
    pub timeouts: AtomicU64,
    /// Calls rejected by an open circuit breaker without touching the wire.
    pub fast_failures: AtomicU64,
    /// Closed/half-open → open breaker transitions.
    pub breaker_opens: AtomicU64,
    /// HTTP requests served over a reused keep-alive connection.
    pub pool_hits: AtomicU64,
    /// HTTP requests that had to open a fresh TCP connection.
    pub pool_misses: AtomicU64,
    /// Connections (or ready requests) refused by backpressure-aware
    /// admission control with a `503` (reactor server model).
    pub sheds: AtomicU64,
    /// Gauge: connections currently admitted by the server. Not part of
    /// [`MetricsSnapshot`] — gauges are instantaneous, and snapshot
    /// equality is what the chaos suite uses to assert "no traffic".
    pub active_connections: AtomicU64,
    /// Gauge: requests sitting in the reactor's dispatch queue, parsed
    /// but not yet picked up by an evaluation worker.
    pub accept_queue_depth: AtomicU64,
    /// Reactor: queued jobs dropped at dequeue because their connection's
    /// kill flag was already set (the connection closed before evaluation
    /// started). Not part of [`MetricsSnapshot`] — recorded on the server
    /// side only, and the chaos suite's snapshot-equality "no traffic"
    /// assertions predate it.
    pub jobs_orphaned: AtomicU64,
    /// Reactor: jobs whose connection closed while a worker was evaluating
    /// them, counted when the handler returns with the kill flag set. Like
    /// [`jobs_orphaned`](Self::jobs_orphaned), outside the snapshot.
    pub jobs_cancelled: AtomicU64,
    /// Reactor: requests its own thread answered, the handler having
    /// offered them (`cancel::offer_next`). Each is also one
    /// [`roundtrips`](Self::roundtrips); a request the handler deferred
    /// counts only where a worker answers it. Outside the snapshot, like
    /// [`jobs_orphaned`](Self::jobs_orphaned).
    pub served_inline: AtomicU64,
    /// Reactor: time a parsed request waited in the dispatch queue
    /// before a worker picked it up (the admission-control signal).
    pub reactor_dispatch_micros: Histogram,
    /// Reactor: time a finished response waited for the reactor to wake
    /// up and start writing it.
    pub reactor_wakeup_micros: Histogram,
}

impl std::fmt::Debug for NetMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // counters only: histograms summarize via their own snapshots
        f.debug_struct("NetMetrics")
            .field("snapshot", &self.snapshot())
            .field(
                "active_connections",
                &self.active_connections.load(Ordering::Relaxed),
            )
            .field(
                "accept_queue_depth",
                &self.accept_queue_depth.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl NetMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&self, sent: usize, received: usize) {
        self.roundtrips.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(sent as u64, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(received as u64, Ordering::Relaxed);
    }

    pub fn record_failure(&self) {
        self.failures.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_fast_failure(&self) {
        self.fast_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_breaker_open(&self) {
        self.breaker_opens.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_pool_hit(&self) {
        self.pool_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_pool_miss(&self) {
        self.pool_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_job_orphaned(&self) {
        self.jobs_orphaned.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_job_cancelled(&self) {
        self.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_served_inline(&self) {
        self.served_inline.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            roundtrips: self.roundtrips.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            fast_failures: self.fast_failures.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pool_misses: self.pool_misses.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
        }
    }

    pub fn reset(&self) {
        self.roundtrips.store(0, Ordering::Relaxed);
        self.bytes_sent.store(0, Ordering::Relaxed);
        self.bytes_received.store(0, Ordering::Relaxed);
        self.failures.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.timeouts.store(0, Ordering::Relaxed);
        self.fast_failures.store(0, Ordering::Relaxed);
        self.breaker_opens.store(0, Ordering::Relaxed);
        self.pool_hits.store(0, Ordering::Relaxed);
        self.pool_misses.store(0, Ordering::Relaxed);
        self.sheds.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of the counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub roundtrips: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub failures: u64,
    pub retries: u64,
    pub timeouts: u64,
    pub fast_failures: u64,
    pub breaker_opens: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub sheds: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let m = NetMetrics::new();
        m.record(100, 200);
        m.record(1, 2);
        m.record_failure();
        let s = m.snapshot();
        assert_eq!(s.roundtrips, 2);
        assert_eq!(s.bytes_sent, 101);
        assert_eq!(s.bytes_received, 202);
        assert_eq!(s.failures, 1);
        m.reset();
        assert_eq!(m.snapshot().roundtrips, 0);
    }

    #[test]
    fn resilience_counters_accumulate_and_reset() {
        let m = NetMetrics::new();
        m.record_retry();
        m.record_retry();
        m.record_timeout();
        m.record_fast_failure();
        m.record_breaker_open();
        m.record_pool_hit();
        m.record_pool_hit();
        m.record_pool_miss();
        let s = m.snapshot();
        assert_eq!(s.retries, 2);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.fast_failures, 1);
        assert_eq!(s.breaker_opens, 1);
        assert_eq!(s.pool_hits, 2);
        assert_eq!(s.pool_misses, 1);
        m.reset();
        assert_eq!(m.snapshot().retries, 0);
        assert_eq!(m.snapshot().breaker_opens, 0);
        assert_eq!(m.snapshot().pool_hits, 0);
        assert_eq!(m.snapshot().pool_misses, 0);
    }
}
