//! Distributed trace propagation without a tracing framework.
//!
//! A [`TraceContext`] is 24 bytes of identity — 128-bit trace id,
//! 64-bit span id, optional parent span id — that rides inside the
//! XRPC SOAP envelope header (`<xrpc:trace/>`, see `xrpc-proto`) so
//! one `execute at` call yields a single coherent trace across every
//! peer it touches. The trace id is *derived from the queryId*
//! ([`trace_id_from`]): deterministic, so spans emitted before a
//! crash, after a restart, and on other peers all agree without any
//! coordination or extra durable state.
//!
//! Each peer owns a [`Tracer`]; finished spans land in its bounded
//! ring buffer (slot claim is one `fetch_add` — recorders never wait
//! on each other) and can be exported as JSON lines or queried
//! directly from tests. The current context is ambient per thread
//! ([`current_context`]/[`set_current_context`]) so nested client
//! calls become child spans without threading a parameter through
//! every signature; code that hops threads (the 2PC prepare scope)
//! captures the context and re-installs it inside the spawned thread.

use crate::hash::fnv1a64;
use crate::profile::json_escape;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// The identity a call carries across the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    pub trace_id: u128,
    pub span_id: u64,
    pub parent_id: Option<u64>,
}

impl TraceContext {
    /// A child context under `self`: same trace, new span id, parented
    /// to this span.
    pub fn child(&self, span_id: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id,
            parent_id: Some(self.span_id),
        }
    }
}

/// Derive a trace id from a queryId's `(host, timestamp_millis)` pair.
/// Every peer that sees the same queryId — including a peer that
/// crashed and restarted — derives the same trace id, which is what
/// lets a recovery-chaos run stitch one transaction's timeline back
/// together from spans alone.
pub fn trace_id_from(host: &str, timestamp_millis: u64) -> u128 {
    ((fnv1a64(host.as_bytes()) as u128) << 64) | timestamp_millis as u128
}

/// A completed span as it sits in the ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedSpan {
    pub trace_id: u128,
    pub span_id: u64,
    pub parent_id: Option<u64>,
    pub name: Cow<'static, str>,
    /// The recording peer, shared by every span of its tracer.
    pub peer: Arc<str>,
    /// Wall-clock start, microseconds since the Unix epoch.
    pub start_micros: u64,
    pub duration_micros: u64,
    /// Keys are the code's own names, and so are many values: a span
    /// allocates only for what it learned at run time.
    pub tags: Vec<(&'static str, Cow<'static, str>)>,
}

impl FinishedSpan {
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_ref())
    }

    /// One JSON object (no trailing newline). Ids are hex strings so
    /// consumers never hit 64-bit JSON number limits.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push_str("{\"trace_id\":\"");
        out.push_str(&format!("{:032x}", self.trace_id));
        out.push_str("\",\"span_id\":\"");
        out.push_str(&format!("{:016x}", self.span_id));
        out.push_str("\",\"parent_id\":");
        match self.parent_id {
            Some(p) => out.push_str(&format!("\"{p:016x}\"")),
            None => out.push_str("null"),
        }
        out.push_str(",\"name\":\"");
        out.push_str(&json_escape(&self.name));
        out.push_str("\",\"peer\":\"");
        out.push_str(&json_escape(&self.peer));
        out.push_str(&format!(
            "\",\"start_micros\":{},\"duration_micros\":{},\"tags\":{{",
            self.start_micros, self.duration_micros
        ));
        for (i, (k, v)) in self.tags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&json_escape(k));
            out.push_str("\":\"");
            out.push_str(&json_escape(v));
            out.push('"');
        }
        out.push_str("}}");
        out
    }
}

/// Per-peer span sink: a bounded ring buffer. Writers claim a slot
/// with one `fetch_add` and only ever contend on that slot's own
/// mutex (against a concurrent exporter), never on each other.
pub struct Tracer {
    peer: Arc<str>,
    head: AtomicUsize,
    slots: Box<[Mutex<Option<FinishedSpan>>]>,
    next_span_id: AtomicU64,
    /// Spans overwritten before ever being exported — the ring kept
    /// running but the trace is truncated.
    dropped: AtomicU64,
}

impl Tracer {
    pub fn new(peer: &str, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = (0..capacity)
            .map(|_| Mutex::new(None))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Tracer {
            peer: peer.into(),
            head: AtomicUsize::new(0),
            slots,
            // seed per-tracer so span ids from different peers don't
            // collide even though each counter is sequential
            next_span_id: AtomicU64::new(fnv1a64(peer.as_bytes()) | 1),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// A fresh, process-unique span id.
    pub fn next_span_id(&self) -> u64 {
        self.next_span_id
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
    }

    /// Start a span continuing `parent` (same trace, parented to it).
    pub fn child_span(
        self: &Arc<Self>,
        name: impl Into<Cow<'static, str>>,
        parent: TraceContext,
    ) -> SpanGuard {
        self.span(name, parent.child(self.next_span_id()))
    }

    /// Start a span with an explicit context. The context becomes the
    /// ambient one for this thread until the guard drops.
    pub fn span(
        self: &Arc<Self>,
        name: impl Into<Cow<'static, str>>,
        ctx: TraceContext,
    ) -> SpanGuard {
        let start_micros = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        SpanGuard {
            tracer: self.clone(),
            ctx,
            name: name.into(),
            started: Instant::now(),
            start_micros,
            tags: Vec::new(),
            ambient: Some(set_current_context(Some(ctx))),
        }
    }

    /// Start a span under the thread's ambient context when there is
    /// one, or as a brand-new root trace otherwise.
    pub fn span_here(self: &Arc<Self>, name: impl Into<Cow<'static, str>>) -> SpanGuard {
        let ctx = match current_context() {
            Some(p) => p.child(self.next_span_id()),
            None => TraceContext {
                trace_id: (self.next_span_id() as u128) << 64 | self.next_span_id() as u128,
                span_id: self.next_span_id(),
                parent_id: None,
            },
        };
        self.span(name, ctx)
    }

    fn push(&self, span: FinishedSpan) {
        let i = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let mut slot = self.slots[i].lock().unwrap();
        if slot.is_some() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        *slot = Some(span);
    }

    /// How many spans the ring overwrote (dropped) so far. Exposed on
    /// `/metrics` as `xrpc_trace_spans_dropped_total`; non-zero means
    /// exported traces may be missing spans.
    pub fn spans_dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Every span still in the ring, oldest first.
    pub fn finished(&self) -> Vec<FinishedSpan> {
        let head = self.head.load(Ordering::Acquire);
        let n = self.slots.len();
        let mut out = Vec::new();
        for off in 0..n {
            let i = (head + off) % n;
            if let Some(s) = self.slots[i].lock().unwrap().clone() {
                out.push(s);
            }
        }
        out
    }

    /// JSON-lines export of the whole ring (one object per line). When
    /// the ring has overwritten spans, the first line is a warning
    /// record so consumers know the trace is truncated rather than
    /// silently incomplete.
    pub fn export_json(&self) -> String {
        let mut out = String::new();
        let dropped = self.spans_dropped();
        if dropped > 0 {
            out.push_str(&format!(
                "{{\"warning\":\"spans_dropped\",\"dropped\":{},\"peer\":\"",
                dropped
            ));
            out.push_str(&json_escape(&self.peer));
            out.push_str("\"}\n");
        }
        for s in self.finished() {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }
}

/// An open span; finishes (and lands in the ring buffer) on drop.
pub struct SpanGuard {
    tracer: Arc<Tracer>,
    ctx: TraceContext,
    name: Cow<'static, str>,
    started: Instant,
    start_micros: u64,
    tags: Vec<(&'static str, Cow<'static, str>)>,
    ambient: Option<ContextGuard>,
}

impl SpanGuard {
    pub fn context(&self) -> TraceContext {
        self.ctx
    }

    pub fn tag(&mut self, key: &'static str, value: impl Into<Cow<'static, str>>) {
        self.tags.push((key, value.into()));
    }

    /// Elapsed time so far (the histogram-facing reading).
    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // restore the ambient context before recording, so the span's
        // own context is not ambient while the ring is written
        self.ambient.take();
        self.tracer.push(FinishedSpan {
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_id: self.ctx.parent_id,
            name: std::mem::take(&mut self.name),
            peer: self.tracer.peer.clone(),
            start_micros: self.start_micros,
            duration_micros: self.started.elapsed().as_micros().min(u64::MAX as u128) as u64,
            tags: std::mem::take(&mut self.tags),
        });
    }
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
    static TRACER: RefCell<Option<Arc<Tracer>>> = const { RefCell::new(None) };
}

/// The thread's ambient trace context, if a span is open on it.
pub fn current_context() -> Option<TraceContext> {
    CURRENT.with(|c| c.get())
}

/// Install `ctx` as the ambient context; the returned guard restores
/// the previous one on drop. Used directly when hopping threads:
/// capture `current_context()` outside, install it inside.
pub fn set_current_context(ctx: Option<TraceContext>) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace(ctx));
    ContextGuard { prev }
}

/// Restores the previously ambient context on drop.
pub struct ContextGuard {
    prev: Option<TraceContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| c.set(prev));
    }
}

/// The thread's ambient tracer, if one has been installed (a peer
/// installs its own around request handling and query execution, so
/// layers below it — the query engines — can open spans without a
/// dependency on the peer runtime).
pub fn current_tracer() -> Option<Arc<Tracer>> {
    TRACER.with(|t| t.borrow().clone())
}

/// Install `tracer` as the thread's ambient tracer; the returned guard
/// restores the previous one on drop.
pub fn set_current_tracer(tracer: Option<Arc<Tracer>>) -> TracerGuard {
    let prev = TRACER.with(|t| t.replace(tracer));
    TracerGuard { prev }
}

/// Restores the previously ambient tracer on drop.
pub struct TracerGuard {
    prev: Option<Arc<Tracer>>,
}

impl Drop for TracerGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        TRACER.with(|t| *t.borrow_mut() = prev);
    }
}

/// Open a span on the thread's ambient tracer under the ambient
/// context, or do nothing (`None`) when no tracer is installed — the
/// zero-cost path for code running outside any instrumented peer.
pub fn ambient_span(name: &'static str) -> Option<SpanGuard> {
    current_tracer().map(|t| t.span_here(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spans belonging to one trace, oldest first.
    fn spans_for(t: &Tracer, trace_id: u128) -> Vec<FinishedSpan> {
        t.finished()
            .into_iter()
            .filter(|s| s.trace_id == trace_id)
            .collect()
    }

    #[test]
    fn trace_id_is_deterministic() {
        let a = trace_id_from("xrpc://origin:41000", 1234);
        let b = trace_id_from("xrpc://origin:41000", 1234);
        assert_eq!(a, b);
        assert_ne!(a, trace_id_from("xrpc://origin:41000", 1235));
        assert_ne!(a, trace_id_from("xrpc://other:41000", 1234));
        assert_eq!(a as u64, 1234, "low half carries the timestamp");
    }

    #[test]
    fn spans_nest_through_ambient_context() {
        let t = Arc::new(Tracer::new("p1", 64));
        let root_ctx = TraceContext {
            trace_id: 7,
            span_id: t.next_span_id(),
            parent_id: None,
        };
        {
            let _root = t.span("root", root_ctx);
            assert_eq!(current_context().unwrap().span_id, root_ctx.span_id);
            {
                let child = t.span_here("child");
                assert_eq!(child.context().trace_id, 7);
                assert_eq!(child.context().parent_id, Some(root_ctx.span_id));
            }
            // child's guard restored the root as ambient
            assert_eq!(current_context().unwrap().span_id, root_ctx.span_id);
        }
        assert!(current_context().is_none());
        let spans = spans_for(&t, 7);
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().any(|s| s.name == "root"));
        assert!(spans.iter().any(|s| s.name == "child"));
    }

    #[test]
    fn ring_buffer_is_bounded_and_keeps_latest() {
        let t = Arc::new(Tracer::new("p", 8));
        for i in 0..20u64 {
            let mut s = t.span(
                "s",
                TraceContext {
                    trace_id: 1,
                    span_id: i,
                    parent_id: None,
                },
            );
            s.tag("i", i.to_string());
        }
        let spans = t.finished();
        assert_eq!(spans.len(), 8);
        let ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
        assert_eq!(ids, (12..20).collect::<Vec<_>>(), "oldest-first, last 8");
        assert_eq!(t.spans_dropped(), 12, "20 recorded into 8 slots");
    }

    #[test]
    fn export_warns_when_spans_were_dropped() {
        let t = Arc::new(Tracer::new("p", 2));
        for i in 0..3u64 {
            let _ = t.span(
                "s",
                TraceContext {
                    trace_id: 1,
                    span_id: i,
                    parent_id: None,
                },
            );
        }
        assert_eq!(t.spans_dropped(), 1);
        let json = t.export_json();
        let first = json.lines().next().unwrap();
        assert!(
            first.contains("\"warning\":\"spans_dropped\"") && first.contains("\"dropped\":1"),
            "warning record leads the export: {first}"
        );
        // A full-but-never-overwritten ring exports without the warning.
        let clean = Arc::new(Tracer::new("p2", 4));
        for i in 0..4u64 {
            let _ = clean.span(
                "s",
                TraceContext {
                    trace_id: 1,
                    span_id: i,
                    parent_id: None,
                },
            );
        }
        assert!(!clean.export_json().contains("spans_dropped"));
    }

    #[test]
    fn json_export_is_parseable_shape() {
        let t = Arc::new(Tracer::new("px", 4));
        {
            let mut s = t.span(
                "q\"uote",
                TraceContext {
                    trace_id: 0xabc,
                    span_id: 0x1,
                    parent_id: Some(0x2),
                },
            );
            s.tag("err", "line1\nline2");
        }
        let json = t.export_json();
        assert!(json.contains("\"trace_id\":\"00000000000000000000000000000abc\""));
        assert!(json.contains("\"parent_id\":\"0000000000000002\""));
        assert!(json.contains("q\\\"uote"));
        assert!(json.contains("line1\\nline2"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn ambient_tracer_enables_spans_from_below() {
        assert!(ambient_span("noop").is_none(), "no tracer installed");
        let t = Arc::new(Tracer::new("p", 16));
        {
            let _tg = set_current_tracer(Some(t.clone()));
            let root = t.span(
                "root",
                TraceContext {
                    trace_id: 5,
                    span_id: t.next_span_id(),
                    parent_id: None,
                },
            );
            {
                let inner = ambient_span("engine").expect("tracer is ambient");
                assert_eq!(inner.context().trace_id, 5);
                assert_eq!(inner.context().parent_id, Some(root.context().span_id));
            }
        }
        assert!(ambient_span("noop").is_none(), "guard restored");
        assert_eq!(spans_for(&t, 5).len(), 2);
    }

    #[test]
    fn cross_thread_context_handoff() {
        let t = Arc::new(Tracer::new("p", 16));
        let root = t.span(
            "root",
            TraceContext {
                trace_id: 99,
                span_id: 1,
                parent_id: None,
            },
        );
        let ctx = current_context().unwrap();
        let t2 = t.clone();
        std::thread::spawn(move || {
            assert!(current_context().is_none(), "contexts are thread-local");
            let _g = set_current_context(Some(ctx));
            let child = t2.span_here("remote");
            assert_eq!(child.context().trace_id, 99);
            assert_eq!(child.context().parent_id, Some(1));
        })
        .join()
        .unwrap();
        drop(root);
        assert_eq!(spans_for(&t, 99).len(), 2);
    }
}
