//! Outside-in tracing: spans recorded by the benchmark's own decorators
//! around the calls into the program (`Peer::execute`, `Transport::roundtrip`,
//! the SOAP handler given to `HttpServer::bind`). Nothing inside the program
//! is instrumented. Spans stay in memory until the run ends.
//!
//! The span that caused a `handle` travels in the request path
//! (`/xrpc/t/<span>/<op>/<root>`): the connection pool keys on host:port, so
//! the extra path segments change neither pooling nor the body bytes.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One `Peer::execute` issued by a benchmark client.
    Execute,
    /// One `Transport::roundtrip` (an HTTP POST and its response).
    Roundtrip,
    /// One invocation of a served peer's SOAP handler.
    Handle,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Execute => "execute",
            Kind::Roundtrip => "roundtrip",
            Kind::Handle => "handle",
        }
    }
}

/// What a round trip carried, read off the envelope's `method` attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    Call,
    Prepare,
    Commit,
    Abort,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for an `execute`, and for a span whose cause could not be told.
    pub parent: u64,
    /// The benchmark operation this span belongs to.
    pub op: u64,
    /// The `execute` span at the root of this span's tree.
    pub root: u64,
    pub kind: Kind,
    /// `execute`: the query's label within the op; others: the peer.
    pub label: &'static str,
    pub method: Method,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request plus response body bytes (`roundtrip` only).
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The position of the running thread in the span tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ctx {
    pub span: u64,
    pub op: u64,
    pub root: u64,
}

thread_local! {
    static CURRENT: Cell<Ctx> = const { Cell::new(Ctx { span: 0, op: 0, root: 0 }) };
}

/// The run's span store.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            // reserved, not touched: room for a long rpc_small run without
            // ever copying the store while operations are being timed
            spans: Mutex::new(Vec::with_capacity(1 << 21)),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// One peer's view of the tracer: its label plus the spans currently open
/// at it. A round trip sent from a helper thread the program spawned (2PC
/// prepares, parallel bulk dispatch) has no thread-local position; it is
/// attributed to the peer's open span when there is exactly one.
pub struct PeerTrace {
    pub tracer: Arc<Tracer>,
    pub label: &'static str,
    open: Mutex<Vec<Ctx>>,
}

impl PeerTrace {
    pub fn new(tracer: Arc<Tracer>, label: &'static str) -> Arc<PeerTrace> {
        Arc::new(PeerTrace {
            tracer,
            label,
            open: Mutex::new(Vec::new()),
        })
    }

    fn here(&self) -> Ctx {
        let cur = CURRENT.with(Cell::get);
        if cur.span != 0 {
            return cur;
        }
        let open = self.open.lock().expect("open spans poisoned");
        match open.as_slice() {
            [only] => *only,
            _ => Ctx::default(),
        }
    }

    /// Run `f` as a span of `kind` under `parent`, making it the thread's
    /// position (and one of this peer's open spans) for the duration.
    fn scoped<R>(
        &self,
        kind: Kind,
        label: &'static str,
        parent: Ctx,
        f: impl FnOnce(Ctx) -> (R, Method, u64),
    ) -> R {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let ctx = Ctx {
            span: id,
            op: parent.op,
            root: if kind == Kind::Execute {
                id
            } else {
                parent.root
            },
        };
        // a round trip blocks its thread, so it never becomes a position
        let enters = kind != Kind::Roundtrip;
        let saved = enters.then(|| CURRENT.with(|c| c.replace(ctx)));
        if enters {
            self.open.lock().expect("open spans poisoned").push(ctx);
        }
        let start_ns = self.tracer.now_ns();
        let (out, method, bytes) = f(ctx);
        let end_ns = self.tracer.now_ns();
        if enters {
            self.open
                .lock()
                .expect("open spans poisoned")
                .retain(|c| c.span != id);
        }
        if let Some(saved) = saved {
            CURRENT.with(|c| c.set(saved));
        }
        self.tracer
            .spans
            .lock()
            .expect("span store poisoned")
            .push(Span {
                id,
                parent: parent.span,
                op: ctx.op,
                root: ctx.root,
                kind,
                label,
                method,
                start_ns,
                end_ns,
                bytes,
            });
        out
    }

    /// Span one client query of operation `op`.
    pub fn execute<R>(&self, op: u64, label: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = Ctx {
            span: 0,
            op,
            root: 0,
        };
        self.scoped(Kind::Execute, label, parent, |_| (f(), Method::Call, 0))
    }

    /// Span one outgoing round trip to `url`; `f` gets the URL extended by
    /// the path that tells the receiving handler which span caused it, and
    /// returns the response size.
    pub fn roundtrip<R>(&self, url: &str, body: &[u8], f: impl FnOnce(&str) -> (R, u64)) -> R {
        let parent = self.here();
        let method = classify(body);
        self.scoped(Kind::Roundtrip, self.label, parent, |ctx| {
            let traced_url = format!("{url}/t/{}/{}/{}", ctx.span, ctx.op, ctx.root);
            let (out, resp) = f(&traced_url);
            (out, method, body.len() as u64 + resp)
        })
    }

    /// Span one handler invocation whose request arrived on `path`.
    pub fn handle<R>(&self, path: &str, f: impl FnOnce() -> R) -> R {
        let parent = parse_path(path);
        self.scoped(Kind::Handle, self.label, parent, |_| (f(), Method::Call, 0))
    }
}

fn parse_path(path: &str) -> Ctx {
    let mut it = path
        .split_once("/t/")
        .map(|(_, rest)| rest.split('/'))
        .into_iter()
        .flatten()
        .map(|s| s.parse::<u64>().unwrap_or(0));
    Ctx {
        span: it.next().unwrap_or(0),
        op: it.next().unwrap_or(0),
        root: it.next().unwrap_or(0),
    }
}

/// The 2PC control methods are ordinary requests against the WS-AT module;
/// the envelope's opening tags (first few hundred bytes) name the method.
pub fn classify(body: &[u8]) -> Method {
    let head = &body[..body.len().min(700)];
    let has = |needle: &str| head.windows(needle.len()).any(|w| w == needle.as_bytes());
    if !has(xrpc_proto::WSAT_MODULE) {
        Method::Call
    } else if has("method=\"Prepare\"") {
        Method::Prepare
    } else if has("method=\"Commit\"") {
        Method::Commit
    } else {
        Method::Abort
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`.
fn covered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut total, mut cursor) = (0u64, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Each span's self time: its duration minus the part of it that its child
/// spans cover (children running in parallel are not subtracted twice).
/// Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let c = children
                .get_mut(&s.id)
                .map_or(0, |c| covered(s.start_ns, s.end_ns, c));
            s.dur_ns() - c
        })
        .collect()
}

/// Split the wall time of each `execute` tree among the three span kinds
/// (`[execute, roundtrip, handle]`, ns, per root): every instant goes to the
/// deepest span open at it. For a chain of nested spans this is the sum of
/// their self times; where a query's round trips run in parallel (chunked
/// bulk dispatch, concurrent prepares) it still adds up to the `execute`
/// span, which a sum of overlapping self times does not.
pub fn attribute(spans: &[Span]) -> std::collections::HashMap<u64, [u64; 3]> {
    use std::collections::HashMap;
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let depth = |s: &Span| {
        let (mut d, mut at) = (0u32, s);
        while let Some(p) = by_id.get(&at.parent) {
            d += 1;
            at = p;
        }
        d
    };
    // per root: (time, opens?, depth, kind) events
    let mut events: HashMap<u64, Vec<(u64, bool, u32, usize)>> = HashMap::new();
    for s in spans {
        let root_known = by_id.get(&s.root).is_some_and(|r| r.kind == Kind::Execute);
        if !root_known || (s.parent == 0 && s.kind != Kind::Execute) {
            continue;
        }
        let (d, k) = (depth(s), s.kind as usize);
        let e = events.entry(s.root).or_default();
        e.push((s.start_ns, true, d, k));
        e.push((s.end_ns, false, d, k));
    }
    events
        .into_iter()
        .map(|(root, mut ev)| {
            // closes before opens at the same instant
            ev.sort_unstable_by_key(|&(t, opens, ..)| (t, opens));
            let (lo, hi) = (by_id[&root].start_ns, by_id[&root].end_ns);
            let mut open: Vec<(u32, usize)> = Vec::new();
            let mut out = [0u64; 3];
            let mut last = lo;
            for (t, opens, d, k) in ev {
                let t = t.clamp(lo, hi);
                if let Some(&(_, deepest)) = open.iter().max() {
                    out[deepest] += t - last;
                }
                last = t;
                if opens {
                    open.push((d, k));
                } else if let Some(i) = open.iter().position(|&o| o == (d, k)) {
                    open.swap_remove(i);
                }
            }
            (root, out)
        })
        .collect()
}

/// Mean per `execute` span, ms (and KiB on the wire beneath it).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Shares {
    pub execute_ms: f64,
    pub client_self_ms: f64,
    pub wire_self_ms: f64,
    pub server_self_ms: f64,
    pub kib: f64,
}

/// The live per-layer numbers of a traced run. Means (totals ÷ count), not
/// medians, because only totals add up to the `execute` span.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LiveSummary {
    /// Per operation: all of its queries together.
    pub per_op: Shares,
    /// Per query label, per query.
    pub by_label: Vec<(&'static str, Shares)>,
    /// Round trips whose cause could not be told (their time stays inside
    /// the client or server self time they ran under).
    pub orphans: u64,
    /// Mean round-trip time by SOAP method: call, prepare, commit.
    pub method_rt_ms: [f64; 3],
}

/// Summarise the spans of the `ops` measured operations (`op >= first_op`).
pub fn summarize(spans: &[Span], first_op: u64, ops: u64) -> LiveSummary {
    let attributed = attribute(spans);
    let root_label: std::collections::HashMap<u64, &'static str> = spans
        .iter()
        .filter(|s| s.kind == Kind::Execute)
        .map(|s| (s.id, s.label))
        .collect();
    // sums in ns (and bytes), per label, with the number of execute spans
    let mut labels: Vec<(&'static str, [u64; 5], u64)> = Vec::new();
    let mut rt = [(0u64, 0u64); 3];
    let mut orphans = 0;
    for s in spans {
        if s.op < first_op {
            continue;
        }
        let Some(&label) = root_label.get(&s.root) else {
            orphans += u64::from(s.kind == Kind::Roundtrip);
            continue;
        };
        let at = labels.iter().position(|l| l.0 == label).unwrap_or_else(|| {
            labels.push((label, [0; 5], 0));
            labels.len() - 1
        });
        let (_, sums, executes) = &mut labels[at];
        match s.kind {
            Kind::Execute => {
                sums[0] += s.dur_ns();
                for (sum, ns) in sums[1..4].iter_mut().zip(attributed[&s.id]) {
                    *sum += ns;
                }
                *executes += 1;
            }
            Kind::Roundtrip => {
                sums[4] += s.bytes;
                let slot = match s.method {
                    Method::Call => Some(0),
                    Method::Prepare => Some(1),
                    Method::Commit => Some(2),
                    Method::Abort => None,
                };
                if let Some(i) = slot {
                    rt[i].0 += s.dur_ns();
                    rt[i].1 += 1;
                }
            }
            Kind::Handle => {}
        }
    }
    let shares = |sums: [u64; 5], n: u64| {
        let ms = |ns: u64| ns as f64 / 1e6 / n.max(1) as f64;
        Shares {
            execute_ms: ms(sums[0]),
            client_self_ms: ms(sums[1]),
            wire_self_ms: ms(sums[2]),
            server_self_ms: ms(sums[3]),
            kib: sums[4] as f64 / 1024.0 / n.max(1) as f64,
        }
    };
    let mut total = [0u64; 5];
    for (_, sums, _) in &labels {
        for (t, v) in total.iter_mut().zip(sums) {
            *t += v;
        }
    }
    let mut method_rt_ms = [0.0; 3];
    for (out, (ns, n)) in method_rt_ms.iter_mut().zip(rt) {
        *out = ns as f64 / 1e6 / n.max(1) as f64;
    }
    LiveSummary {
        per_op: shares(total, ops),
        by_label: labels
            .into_iter()
            .map(|(l, sums, n)| (l, shares(sums, n)))
            .collect(),
        orphans,
        method_rt_ms,
    }
}

/// One span per line, for `out/<workload>.trace.jsonl`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 140);
    for (s, own) in spans.iter().zip(self_times(spans)) {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"op\":{},\"root\":{},\"name\":\"{}\",\"label\":\"{}\",\"method\":\"{:?}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"bytes\":{}}}\n",
            s.id, s.parent, s.op, s.root, s.kind.name(), s.label, s.method, s.start_ns, s.end_ns, s.bytes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, kind: Kind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            root: 1,
            kind,
            label: "x",
            method: Method::Call,
            start_ns,
            end_ns,
            bytes: 1024,
        }
    }

    /// execute 0..100 → roundtrip 10..90 → handle 20..80 → nested roundtrip
    /// 30..50 → handle 35..45: the q7 relocation shape (B calls back into A).
    fn nested() -> Vec<Span> {
        vec![
            span(1, 0, Kind::Execute, 0, 100),
            span(2, 1, Kind::Roundtrip, 10, 90),
            span(3, 2, Kind::Handle, 20, 80),
            span(4, 3, Kind::Roundtrip, 30, 50),
            span(5, 4, Kind::Handle, 35, 45),
        ]
    }

    #[test]
    fn self_time_subtracts_nested_roundtrips() {
        let s = nested();
        assert_eq!(self_times(&s), vec![20, 20, 40, 10, 10]);
        // the self times of a tree add up to its root
        assert_eq!(self_times(&s).iter().sum::<u64>(), 100);
    }

    #[test]
    fn parallel_children_are_not_subtracted_twice() {
        // two prepares sent concurrently: 10..60 and 30..80 cover 70, not 100
        let s = vec![
            span(1, 0, Kind::Execute, 0, 100),
            span(2, 1, Kind::Roundtrip, 10, 60),
            span(3, 1, Kind::Roundtrip, 30, 80),
        ];
        assert_eq!(self_times(&s)[0], 30);
        // a child that outlives its parent is clipped to it
        let s = vec![
            span(1, 0, Kind::Execute, 0, 100),
            span(2, 1, Kind::Roundtrip, 90, 150),
        ];
        assert_eq!(self_times(&s)[0], 90);
    }

    #[test]
    fn attribution_adds_up_under_parallel_round_trips() {
        // nested chain: same as the self times, by kind
        assert_eq!(attribute(&nested())[&1], [20, 30, 50]);
        // two chunks dispatched at once to a callee that serves them one
        // after the other: 10..60 (handled 15..35) and 10..80 (handled 40..75)
        let s = vec![
            span(1, 0, Kind::Execute, 0, 100),
            span(2, 1, Kind::Roundtrip, 10, 60),
            span(3, 2, Kind::Handle, 15, 35),
            span(4, 1, Kind::Roundtrip, 10, 80),
            span(5, 4, Kind::Handle, 40, 75),
        ];
        // summed self times would claim 30 + 35 = 65 of wire for 70 of wall
        assert_eq!(self_times(&s)[1] + self_times(&s)[3], 65);
        let a = attribute(&s)[&1];
        assert_eq!(a, [30, 15, 55]);
        assert_eq!(a.iter().sum::<u64>(), 100);
        // a round trip whose cause is unknown belongs to no tree
        let orphan = vec![span(9, 0, Kind::Roundtrip, 0, 10)];
        assert!(attribute(&orphan).is_empty());
    }

    #[test]
    fn summary_adds_up_to_the_execute_span() {
        let mut s = nested();
        for sp in &mut s {
            sp.op = 7;
            sp.start_ns *= 1_000_000;
            sp.end_ns *= 1_000_000;
        }
        let sum = summarize(&s, 7, 1);
        let want = Shares {
            execute_ms: 100.0,
            client_self_ms: 20.0,
            wire_self_ms: 30.0,
            server_self_ms: 50.0,
            // both round trips of the tree count towards its KiB
            kib: 2.0,
        };
        assert_eq!(sum.per_op, want);
        assert_eq!(sum.by_label, vec![("x", want)]);
        assert_eq!(sum.orphans, 0);
        assert_eq!(sum.method_rt_ms[0], 50.0);
        // warm-up operations (op < first_op) are left out
        assert_eq!(summarize(&s, 8, 1).per_op.execute_ms, 0.0);
        // an operation of two queries: per operation they add, per label not
        let mut two = s.clone();
        for sp in &s {
            let mut sp = sp.clone();
            (sp.id, sp.root) = (sp.id + 10, 11);
            sp.parent = if sp.parent == 0 { 0 } else { sp.parent + 10 };
            two.push(sp);
        }
        let sum = summarize(&two, 7, 1);
        assert_eq!(sum.per_op.execute_ms, 200.0);
        assert_eq!(sum.by_label[0].1.execute_ms, 100.0);
    }

    #[test]
    fn path_and_method_codecs() {
        assert_eq!(
            parse_path("/xrpc/t/12/3/9"),
            Ctx {
                span: 12,
                op: 3,
                root: 9
            }
        );
        assert_eq!(parse_path("/xrpc"), Ctx::default());
        let prepare = format!(
            "<env:Envelope><xrpc:request module=\"{}\" method=\"Prepare\">",
            xrpc_proto::WSAT_MODULE
        );
        assert_eq!(classify(prepare.as_bytes()), Method::Prepare);
        assert_eq!(
            classify(b"<xrpc:request module=\"u1\" method=\"Commit\">"),
            Method::Call
        );
    }

    #[test]
    fn live_spans_link_across_threads() {
        let tracer = Tracer::new();
        let a = PeerTrace::new(tracer.clone(), "A");
        let b = PeerTrace::new(tracer.clone(), "B");
        a.execute(5, "q", || {
            // sent from a helper thread: attributed to A's only open span
            std::thread::scope(|s| {
                s.spawn(|| {
                    a.roundtrip("http://b/xrpc", b"<x/>", |url| {
                        b.handle(url.trim_start_matches("http://b"), || ());
                        ((), 0)
                    })
                });
            });
        });
        let spans = tracer.take();
        let by_kind = |k| spans.iter().find(|s| s.kind == k).unwrap();
        let (e, r, h) = (
            by_kind(Kind::Execute),
            by_kind(Kind::Roundtrip),
            by_kind(Kind::Handle),
        );
        assert_eq!((r.parent, h.parent), (e.id, r.id));
        assert!(spans.iter().all(|s| s.op == 5 && s.root == e.id));
    }
}
