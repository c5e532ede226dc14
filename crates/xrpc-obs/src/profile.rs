//! Distributed query profiling: per-operator runtime statistics, phase
//! breakdowns, and cross-peer profile assembly.
//!
//! A [`ProfileCollector`] is threaded through both engines when the query
//! enables `xrpc:profile` (or is force-profiled by the slow-query log).
//! Operators open an [`OpGuard`] on entry; the guard aggregates wall time,
//! call counts, item counts and bytes into an arena tree keyed by
//! (parent, operator name) — one node per operator *position*, not per
//! invocation, so a million-iteration loop costs one node.
//!
//! Wall-clock reads are sampled: only every `stride`-th guard takes the two
//! `Instant::now()` reads (the same sampled-clock idiom as
//! `CancelToken::check`). The estimated total is scaled back up as
//! `wall * calls / timed_calls`. Stride 1 (`"full"`) times every call.
//!
//! Each hop (peer) finishes its collector into a [`HopProfile`] — operator
//! tree plus a [`Phases`] breakdown — which travels back to the caller in
//! the `<xrpc:profile>` SOAP response header. The originator assembles all
//! hops into one [`QueryProfile`], renderable as JSON or as a folded-stack
//! flamegraph file.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How much profiling the query asked for.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProfileMode {
    #[default]
    Off,
    /// Operator tree with sampled clocks (default stride).
    Sampled,
    /// Operator tree timing every call (stride 1) — `explain_analyze`.
    Full,
}

/// Default sampling stride for [`ProfileMode::Sampled`]: one pair of clock
/// reads per 16 operator invocations.
pub const DEFAULT_STRIDE: u32 = 16;

impl ProfileMode {
    /// Lenient parse of the `xrpc:profile` option value. Unknown values
    /// mean "off" — a typo must never break the query.
    pub fn parse(s: &str) -> ProfileMode {
        match s.trim().to_ascii_lowercase().as_str() {
            "on" | "sampled" | "true" | "1" => ProfileMode::Sampled,
            "full" | "analyze" => ProfileMode::Full,
            _ => ProfileMode::Off,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            ProfileMode::Off => "off",
            ProfileMode::Sampled => "sampled",
            ProfileMode::Full => "full",
        }
    }

    pub fn stride(self) -> u32 {
        match self {
            ProfileMode::Off => 0,
            ProfileMode::Sampled => DEFAULT_STRIDE,
            ProfileMode::Full => 1,
        }
    }

    pub fn is_on(self) -> bool {
        self != ProfileMode::Off
    }
}

/// Phase breakdown of one hop, mirroring the paper's §5 cost decomposition
/// (parse / compile / marshal / network / execute / serialize) plus the
/// update-path extras (2PC coordination, WAL fsync).
#[derive(Clone, Debug, Default)]
pub struct Phases {
    pub parse_micros: u64,
    pub compile_micros: u64,
    pub marshal_micros: u64,
    pub network_micros: u64,
    pub execute_micros: u64,
    pub serialize_micros: u64,
    pub twopc_micros: u64,
    pub wal_micros: u64,
    /// Plan-cache disposition for this hop: "hit", "miss", or "off".
    pub cache: &'static str,
}

impl Phases {
    pub fn get(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Parse => self.parse_micros,
            Phase::Compile => self.compile_micros,
            Phase::Marshal => self.marshal_micros,
            Phase::Network => self.network_micros,
            Phase::Execute => self.execute_micros,
            Phase::Serialize => self.serialize_micros,
            Phase::TwoPc => self.twopc_micros,
            Phase::Wal => self.wal_micros,
        }
    }

    pub fn get_mut(&mut self, phase: Phase) -> &mut u64 {
        match phase {
            Phase::Parse => &mut self.parse_micros,
            Phase::Compile => &mut self.compile_micros,
            Phase::Marshal => &mut self.marshal_micros,
            Phase::Network => &mut self.network_micros,
            Phase::Execute => &mut self.execute_micros,
            Phase::Serialize => &mut self.serialize_micros,
            Phase::TwoPc => &mut self.twopc_micros,
            Phase::Wal => &mut self.wal_micros,
        }
    }

    pub fn total_micros(&self) -> u64 {
        Phase::ALL.iter().map(|&(p, _)| self.get(p)).sum()
    }

    /// The members of the `"phases"` JSON object the profile and the
    /// slow-query log both render, one `"<wire name>":<micros>` per phase.
    pub(crate) fn write_json_members(&self, out: &mut String) {
        for (i, &(phase, name)) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{}", self.get(phase)));
        }
    }
}

/// One of the accounted phases; used with [`ProfileCollector::add_phase`].
#[derive(Clone, Copy, Debug)]
pub enum Phase {
    Parse,
    Compile,
    Marshal,
    Network,
    Execute,
    Serialize,
    TwoPc,
    Wal,
}

impl Phase {
    /// Every phase with its name on the wire (`<xrpc:phases>` attributes,
    /// profile and slow-log JSON keys), in wire order. The codecs and
    /// renderers loop over this table; nothing else spells the names.
    pub const ALL: [(Phase, &'static str); 8] = [
        (Phase::Parse, "parseMicros"),
        (Phase::Compile, "compileMicros"),
        (Phase::Marshal, "marshalMicros"),
        (Phase::Network, "networkMicros"),
        (Phase::Execute, "executeMicros"),
        (Phase::Serialize, "serializeMicros"),
        (Phase::TwoPc, "twopcMicros"),
        (Phase::Wal, "walMicros"),
    ];
}

/// One node of the aggregated operator tree.
#[derive(Clone, Debug, Default)]
pub struct OpNode {
    pub name: String,
    pub calls: u64,
    /// Invocations that actually read the clock (sampling).
    pub timed_calls: u64,
    /// Wall time summed over the timed invocations only.
    pub wall_micros: u64,
    pub items: u64,
    pub bytes: u64,
    pub children: Vec<OpNode>,
}

impl OpNode {
    /// Estimated total wall time, scaling the sampled measurements back up
    /// to all invocations.
    pub fn est_wall_micros(&self) -> u64 {
        self.wall_micros
            .saturating_mul(self.calls)
            .checked_div(self.timed_calls)
            .unwrap_or(0)
    }

    fn to_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"calls\":{},\"timedCalls\":{},\"wallMicros\":{},\"estWallMicros\":{},\"items\":{},\"bytes\":{},\"children\":[",
            json_escape(&self.name),
            self.calls,
            self.timed_calls,
            self.wall_micros,
            self.est_wall_micros(),
            self.items,
            self.bytes
        ));
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.to_json(out);
        }
        out.push_str("]}");
    }
}

/// The finished profile of one hop: which peer ran it, who called it
/// (`via`, empty at the originator), its depth in the call chain, the PR 5
/// trace correlation ids, and the operator tree plus phase breakdown.
#[derive(Clone, Debug)]
pub struct HopProfile {
    pub peer: String,
    pub via: String,
    pub depth: u32,
    pub trace_id: u128,
    pub span_id: u64,
    pub total_micros: u64,
    pub phases: Phases,
    pub ops: Vec<OpNode>,
}

impl HopProfile {
    pub fn to_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"peer\":\"{}\",\"via\":\"{}\",\"depth\":{},\"traceId\":\"{:032x}\",\"spanId\":\"{:016x}\",\"totalMicros\":{},\"phases\":{{",
            json_escape(&self.peer),
            json_escape(&self.via),
            self.depth,
            self.trace_id,
            self.span_id,
            self.total_micros,
        ));
        self.phases.write_json_members(out);
        out.push_str(&format!(
            ",\"cache\":\"{}\"}},\"ops\":[",
            json_escape(self.phases.cache)
        ));
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            op.to_json(out);
        }
        out.push_str("]}");
    }
}

/// The cross-peer profile assembled at the originator: every hop's
/// operator tree, linked by (`via`, `depth`) into one call chain and keyed
/// by the shared trace id.
#[derive(Clone, Debug)]
pub struct QueryProfile {
    pub trace_id: u128,
    pub hops: Vec<HopProfile>,
}

impl QueryProfile {
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"traceId\":\"{:032x}\",\"hops\":[",
            self.trace_id
        ));
        for (i, h) in self.hops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            h.to_json(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// Render as folded stacks (`frame;frame;frame count\n`), the input
    /// format of flamegraph.pl / inferno. Counts are microseconds of
    /// estimated *self* time, so the widths add up correctly.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        // Order hops so that a callee follows its caller: sort by depth,
        // then walk each hop's chain of callers to build the stack prefix.
        let mut order: Vec<usize> = (0..self.hops.len()).collect();
        order.sort_by_key(|&i| self.hops[i].depth);
        for &i in &order {
            let hop = &self.hops[i];
            let mut stack: Vec<String> = Vec::new();
            // Walk caller chain: find the hop whose peer equals our `via`
            // at depth - 1, recursively.
            let mut cur = hop;
            loop {
                stack.push(frame(&cur.peer));
                if cur.depth == 0 || cur.via.is_empty() {
                    break;
                }
                let parent = self
                    .hops
                    .iter()
                    .find(|h| h.peer == cur.via && h.depth + 1 == cur.depth);
                match parent {
                    Some(p) => cur = p,
                    None => break,
                }
            }
            stack.reverse();
            let prefix = stack.join(";");
            let ops_est: u64 = hop.ops.iter().map(|o| o.est_wall_micros()).sum();
            let self_time = hop.total_micros.saturating_sub(ops_est);
            if self_time > 0 {
                out.push_str(&format!("{} {}\n", prefix, self_time));
            }
            for op in &hop.ops {
                fold_op(op, &prefix, &mut out);
            }
        }
        out
    }
}

fn fold_op(op: &OpNode, prefix: &str, out: &mut String) {
    let here = format!("{};{}", prefix, frame(&op.name));
    let child_est: u64 = op.children.iter().map(|c| c.est_wall_micros()).sum();
    let self_time = op.est_wall_micros().saturating_sub(child_est);
    if self_time > 0 {
        out.push_str(&format!("{} {}\n", here, self_time));
    }
    for c in &op.children {
        fold_op(c, &here, out);
    }
}

/// Sanitize a frame name for the folded format (no `;`, no whitespace).
fn frame(name: &str) -> String {
    let name = if name.is_empty() { "originator" } else { name };
    name.chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The collector
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Arena {
    nodes: Vec<OpNode>,
    node_children: Vec<Vec<usize>>,
    roots: Vec<usize>,
}

impl Arena {
    /// Find or create the child of `parent` named `name`.
    fn child_of(&mut self, parent: Option<usize>, name: &str) -> usize {
        let siblings = match parent {
            Some(p) => &self.node_children[p],
            None => &self.roots,
        };
        for &c in siblings {
            if self.nodes[c].name == name {
                return c;
            }
        }
        let idx = self.nodes.len();
        self.nodes.push(OpNode {
            name: name.to_string(),
            ..OpNode::default()
        });
        self.node_children.push(Vec::new());
        match parent {
            Some(p) => self.node_children[p].push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    fn snapshot(&self, idx: usize) -> OpNode {
        let mut n = self.nodes[idx].clone();
        n.children = self.node_children[idx]
            .iter()
            .map(|&c| self.snapshot(c))
            .collect();
        n
    }
}

thread_local! {
    /// The operator node currently open on this thread (the parent for
    /// the next guard), tagged with its collector's identity. Guards are
    /// strictly nested per query, so a plain cell suffices; the tag keeps
    /// a node index from one query's arena from ever being dereferenced
    /// by another collector running on the same thread (e.g. a simulated
    /// server handling a profiled caller's request in-thread).
    static CURRENT_OP: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

/// A global sequence so every collector owns a distinct identity.
static COLLECTOR_SEQ: AtomicU64 = AtomicU64::new(1);

/// Collects one hop's profile. Created per query when profiling is on;
/// shared (`Arc`) between the evaluator, the XRPC client, and any worker
/// threads.
pub struct ProfileCollector {
    pub mode: ProfileMode,
    /// This hop's peer identity (our own URL, or a logical name).
    pub peer: String,
    /// Who called us — empty at the originator.
    pub via: String,
    /// Call-chain depth: 0 at the originator, +1 per `execute at` hop.
    pub depth: u32,
    /// Distinguishes this collector's arena in the thread-local parent
    /// cell from any other collector that ran on the same thread.
    id: u64,
    stride: u32,
    ctr: AtomicU32,
    arena: Mutex<Arena>,
    phases: Mutex<Phases>,
    /// Hop profiles harvested from downstream peers' responses.
    child_hops: Mutex<Vec<HopProfile>>,
    /// Bytes sent/received on the wire by this hop (summed into the
    /// network accounting of the hop, not per-operator).
    pub wire_bytes: AtomicU64,
}

impl ProfileCollector {
    pub fn new(mode: ProfileMode, peer: &str, via: &str, depth: u32) -> Arc<ProfileCollector> {
        Arc::new(ProfileCollector {
            mode,
            peer: peer.to_string(),
            via: via.to_string(),
            depth,
            id: COLLECTOR_SEQ.fetch_add(1, Ordering::Relaxed),
            stride: mode.stride().max(1),
            ctr: AtomicU32::new(0),
            arena: Mutex::new(Arena::default()),
            phases: Mutex::new(Phases {
                cache: "off",
                ..Phases::default()
            }),
            child_hops: Mutex::new(Vec::new()),
            wire_bytes: AtomicU64::new(0),
        })
    }

    /// Open an operator guard as a child of the thread's current operator.
    /// The clock is only read on every `stride`-th invocation.
    pub fn op(self: &Arc<Self>, name: &str) -> OpGuard {
        let prev = CURRENT_OP.with(|c| c.get());
        // A parent left by some other collector is not ours to nest
        // under — this guard opens a fresh root in our own arena.
        let parent = prev.filter(|(id, _)| *id == self.id).map(|(_, idx)| idx);
        let node = self.arena.lock().unwrap().child_of(parent, name);
        CURRENT_OP.with(|c| c.set(Some((self.id, node))));
        let timed = self
            .ctr
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.stride);
        OpGuard {
            col: self.clone(),
            node,
            prev,
            start: if timed { Some(Instant::now()) } else { None },
            items: 0,
        }
    }

    /// Attribute wire bytes to the operator currently open on this thread
    /// (the `execute at` whose dispatch produced them), and to the hop's
    /// own byte total either way.
    pub fn add_bytes_to_current(&self, n: u64) {
        self.wire_bytes.fetch_add(n, Ordering::Relaxed);
        let current = CURRENT_OP.with(|c| c.get());
        if let Some((_, idx)) = current.filter(|(id, _)| *id == self.id) {
            let mut a = self.arena.lock().unwrap();
            if let Some(node) = a.nodes.get_mut(idx) {
                node.bytes += n;
            }
        }
    }

    pub fn add_phase(&self, phase: Phase, micros: u64) {
        *self.phases.lock().unwrap().get_mut(phase) += micros;
    }

    pub fn set_cache(&self, disposition: &'static str) {
        self.phases.lock().unwrap().cache = disposition;
    }

    pub fn phases(&self) -> Phases {
        self.phases.lock().unwrap().clone()
    }

    /// Absorb hop profiles harvested from a downstream peer's response.
    pub fn absorb_hops(&self, hops: Vec<HopProfile>) {
        self.child_hops.lock().unwrap().extend(hops);
    }

    /// Snapshot the operator tree roots.
    pub fn snapshot_ops(&self) -> Vec<OpNode> {
        let a = self.arena.lock().unwrap();
        a.roots.iter().map(|&r| a.snapshot(r)).collect()
    }

    /// Finish this hop: its own profile first, then every absorbed
    /// downstream hop. The resulting list is what goes into the
    /// `<xrpc:profile>` response header (or the originator's assembly).
    pub fn finish_hops(&self, trace_id: u128, span_id: u64, total_micros: u64) -> Vec<HopProfile> {
        let own = HopProfile {
            peer: self.peer.clone(),
            via: self.via.clone(),
            depth: self.depth,
            trace_id,
            span_id,
            total_micros,
            phases: self.phases(),
            ops: self.snapshot_ops(),
        };
        let mut hops = vec![own];
        hops.extend(self.child_hops.lock().unwrap().drain(..));
        hops
    }
}

/// RAII operator timer. Created by [`ProfileCollector::op`]; records into
/// the aggregated node on drop and restores the parent pointer.
pub struct OpGuard {
    col: Arc<ProfileCollector>,
    node: usize,
    prev: Option<(u64, usize)>,
    start: Option<Instant>,
    items: u64,
}

impl OpGuard {
    /// Record how many items/rows this invocation produced.
    pub fn set_items(&mut self, n: u64) {
        self.items = n;
    }
}

impl Drop for OpGuard {
    fn drop(&mut self) {
        let elapsed = self.start.map(|s| s.elapsed().as_micros() as u64);
        let mut a = self.col.arena.lock().unwrap();
        let n = &mut a.nodes[self.node];
        n.calls += 1;
        if let Some(e) = elapsed {
            n.timed_calls += 1;
            n.wall_micros += e;
        }
        n.items += self.items;
        drop(a);
        CURRENT_OP.with(|c| c.set(self.prev));
    }
}

/// The body of a JSON string literal holding `s`: every JSON this
/// workspace writes by hand (profiles, slowlog, traces, `/healthz`).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing_is_lenient() {
        assert_eq!(ProfileMode::parse("on"), ProfileMode::Sampled);
        assert_eq!(ProfileMode::parse(" Sampled "), ProfileMode::Sampled);
        assert_eq!(ProfileMode::parse("full"), ProfileMode::Full);
        assert_eq!(ProfileMode::parse("analyze"), ProfileMode::Full);
        assert_eq!(ProfileMode::parse("off"), ProfileMode::Off);
        assert_eq!(ProfileMode::parse("bogus"), ProfileMode::Off);
        assert_eq!(ProfileMode::parse(""), ProfileMode::Off);
    }

    #[test]
    fn guards_aggregate_by_position() {
        let col = ProfileCollector::new(ProfileMode::Full, "p1", "", 0);
        for _ in 0..10 {
            let mut outer = col.op("flwor");
            outer.set_items(1);
            {
                let mut inner = col.op("path-step");
                inner.set_items(3);
            }
        }
        let ops = col.snapshot_ops();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].name, "flwor");
        assert_eq!(ops[0].calls, 10);
        assert_eq!(ops[0].timed_calls, 10); // full mode: every call timed
        assert_eq!(ops[0].items, 10);
        assert_eq!(ops[0].children.len(), 1);
        assert_eq!(ops[0].children[0].name, "path-step");
        assert_eq!(ops[0].children[0].calls, 10);
        assert_eq!(ops[0].children[0].items, 30);
    }

    #[test]
    fn sampled_mode_times_a_subset() {
        let col = ProfileCollector::new(ProfileMode::Sampled, "p1", "", 0);
        for _ in 0..64 {
            let _g = col.op("op");
        }
        let ops = col.snapshot_ops();
        assert_eq!(ops[0].calls, 64);
        assert_eq!(ops[0].timed_calls, 64 / DEFAULT_STRIDE as u64);
    }

    #[test]
    fn est_wall_scales_sampled_measurements() {
        let n = OpNode {
            calls: 100,
            timed_calls: 10,
            wall_micros: 50,
            ..OpNode::default()
        };
        assert_eq!(n.est_wall_micros(), 500);
        let untimed = OpNode {
            calls: 5,
            ..OpNode::default()
        };
        assert_eq!(untimed.est_wall_micros(), 0);
    }

    #[test]
    fn folded_output_has_hop_prefixes() {
        let prof = QueryProfile {
            trace_id: 1,
            hops: vec![
                HopProfile {
                    peer: "http://a/".into(),
                    via: String::new(),
                    depth: 0,
                    trace_id: 1,
                    span_id: 1,
                    total_micros: 1000,
                    phases: Phases::default(),
                    ops: vec![OpNode {
                        name: "xq:flwor".into(),
                        calls: 1,
                        timed_calls: 1,
                        wall_micros: 400,
                        ..OpNode::default()
                    }],
                },
                HopProfile {
                    peer: "http://b/".into(),
                    via: "http://a/".into(),
                    depth: 1,
                    trace_id: 1,
                    span_id: 2,
                    total_micros: 300,
                    phases: Phases::default(),
                    ops: Vec::new(),
                },
            ],
        };
        let folded = prof.to_folded();
        assert!(
            folded.contains("http://a/ 600\n"),
            "hop self time: {folded}"
        );
        assert!(folded.contains("http://a/;xq:flwor 400\n"), "{folded}");
        assert!(
            folded.contains("http://a/;http://b/ 300\n"),
            "callee nested under caller: {folded}"
        );
        // Every line parses as `stack count`.
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("folded line shape");
            assert!(!stack.is_empty());
            count.parse::<u64>().expect("count is integer");
        }
    }

    #[test]
    fn json_renders_and_escapes() {
        let prof = QueryProfile {
            trace_id: 0xabc,
            hops: vec![HopProfile {
                peer: "http://a/\"x\"".into(),
                via: String::new(),
                depth: 0,
                trace_id: 0xabc,
                span_id: 7,
                total_micros: 10,
                phases: Phases {
                    parse_micros: 1,
                    compile_micros: 2,
                    marshal_micros: 3,
                    network_micros: 4,
                    execute_micros: 5,
                    serialize_micros: 6,
                    twopc_micros: 7,
                    wal_micros: 8,
                    cache: "hit",
                },
                ops: Vec::new(),
            }],
        };
        assert_eq!(prof.hops[0].phases.total_micros(), 36);
        let j = prof.to_json();
        assert!(j.contains("\\\"x\\\""));
        // every phase once, under its wire name, in wire order
        assert!(j.contains(
            "\"totalMicros\":10,\"phases\":{\"parseMicros\":1,\"compileMicros\":2,\"marshalMicros\":3,\"networkMicros\":4,\"executeMicros\":5,\"serializeMicros\":6,\"twopcMicros\":7,\"walMicros\":8,\"cache\":\"hit\"},\"ops\":[]}"
        ));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }
}
