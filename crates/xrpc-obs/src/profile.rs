//! Distributed query profiling: per-operator runtime statistics, phase
//! breakdowns, and cross-peer profile assembly.
//!
//! A [`ProfileCollector`] is threaded through both engines when the query
//! enables `xrpc:profile` (or is force-profiled by `explain_analyze`).
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
//! A hop's wall time is split into [`Phases`] by its [`PhaseClock`]; the
//! originator keeps one for every query, profiled or not, since the
//! slow-query log reads it too. Each hop (peer) finishes its collector
//! into a [`HopProfile`] — operator tree plus its clock's phases — which
//! travels back to the caller in the `<xrpc:profile>` SOAP response
//! header. The originator assembles all hops into one [`QueryProfile`],
//! renderable as JSON or as a folded-stack flamegraph file.

use std::cell::Cell;
use std::ops::Index;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

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

/// One of the accounted phases of a hop, mirroring the paper's §5 cost
/// decomposition (parse / compile / execute with its marshal and network)
/// plus the update path's 2PC coordination and WAL force.
///
/// The declaration order is the nesting order: at every instant a hop's
/// [`PhaseClock`] charges the open phase declared last. So marshal and
/// network nest inside execute, the WAL inside 2PC, and while one thread
/// marshals a call and another waits on a round trip, the marshal wins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Parse,
    Compile,
    Execute,
    Network,
    Marshal,
    TwoPc,
    Wal,
}

impl Phase {
    /// Every phase with its name on the wire (`<xrpc:phases>` attributes,
    /// profile and slow-log JSON keys), in declaration order. The codecs
    /// and renderers loop over this table; nothing else spells the names.
    pub const ALL: [(Phase, &'static str); 7] = [
        (Phase::Parse, "parseMicros"),
        (Phase::Compile, "compileMicros"),
        (Phase::Execute, "executeMicros"),
        (Phase::Network, "networkMicros"),
        (Phase::Marshal, "marshalMicros"),
        (Phase::TwoPc, "twopcMicros"),
        (Phase::Wal, "walMicros"),
    ];
}

const PHASES: usize = Phase::ALL.len();

/// Micros per [`Phase`] of one hop, plus its plan-cache disposition. What
/// the hop's span holds beyond their sum is its unattributed remainder.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Phases {
    /// Indexed by `Phase as usize` (`phases[phase]` reads one).
    pub micros: [u64; PHASES],
    /// Plan-cache disposition for this hop: "hit", "miss", or "off".
    pub cache: &'static str,
}

impl Phases {
    /// The attributed micros: every phase summed.
    pub fn total_micros(&self) -> u64 {
        self.micros.iter().sum()
    }

    /// The members of the `"phases"` JSON object the profile and the
    /// slow-query log both render, one `"<wire name>":<micros>` per phase.
    pub(crate) fn write_json_members(&self, out: &mut String) {
        write_list(out, &Phase::ALL, |&(phase, name), out| {
            out.push_str(&format!("\"{name}\":{}", self[phase]))
        });
    }
}

impl Index<Phase> for Phases {
    type Output = u64;
    fn index(&self, phase: Phase) -> &u64 {
        &self.micros[phase as usize]
    }
}

/// One hop's phase clock, shared by `Arc` with every thread that works
/// for the hop. It counts the open intervals of each phase and keeps the
/// instant of its last event. At each event the time since the last one
/// goes to the innermost open phase ([`Phase`]'s order), or to the hop's
/// remainder when none is open. So overlapping intervals count once, and
/// the phases plus the remainder are the hop's span exactly, in fixed
/// memory.
pub struct PhaseClock(Mutex<ClockState>);

struct ClockState {
    start: Instant,
    /// Everything before this instant is charged.
    last: Instant,
    open: [u32; PHASES],
    nanos: [u64; PHASES],
    cache: &'static str,
    /// The hop is over: its span and charges are final.
    done: bool,
}

impl ClockState {
    /// Charge the time since the last event and move the clock to `to`
    /// (an instant read on another thread just before the last event
    /// counts as that event's).
    fn advance(&mut self, to: Instant) {
        let to = to.max(self.last);
        if let Some(p) = self.open.iter().rposition(|&n| n > 0) {
            self.nanos[p] += (to - self.last).as_nanos() as u64;
        }
        self.last = to;
    }

    /// One event: advance to `at`, then open (`1`) or close (`-1`) an
    /// interval of `phase`.
    fn step(&mut self, phase: Phase, at: Instant, by: i32) {
        if !self.done {
            self.advance(at);
            self.open[phase as usize] = self.open[phase as usize].wrapping_add_signed(by);
        }
    }

    /// The interval of `took` that ends at `at`.
    fn record(&mut self, phase: Phase, took: Duration, at: Instant) {
        self.step(phase, at.checked_sub(took).unwrap_or(at), 1);
        self.step(phase, at, -1);
    }

    fn finish(&mut self, at: Instant) -> (u64, Phases) {
        if !self.done {
            self.advance(at);
            self.done = true;
        }
        let mut sum = 0;
        let micros = self.nanos.map(|n| {
            let before = sum / 1_000;
            sum += n;
            sum / 1_000 - before
        });
        let phases = Phases {
            micros,
            cache: self.cache,
        };
        ((self.last - self.start).as_micros() as u64, phases)
    }
}

impl PhaseClock {
    /// A clock whose hop starts now.
    pub fn new() -> Arc<PhaseClock> {
        let start = Instant::now();
        Arc::new(PhaseClock(Mutex::new(ClockState {
            start,
            last: start,
            open: [0; PHASES],
            nanos: [0; PHASES],
            cache: "off",
            done: false,
        })))
    }

    fn state(&self) -> MutexGuard<'_, ClockState> {
        self.0.lock().unwrap()
    }

    /// Open an interval of `phase`; it closes when the guard drops.
    pub fn enter(&self, phase: Phase) -> PhaseGuard<'_> {
        self.state().step(phase, Instant::now(), 1);
        PhaseGuard { clock: self, phase }
    }

    /// A phase measured elsewhere, the interval of `took` that ends now:
    /// charged by the one rule, from the last event on at the earliest.
    pub fn record(&self, phase: Phase, took: Duration) {
        self.state().record(phase, took, Instant::now());
    }

    /// A phase that ran for `took` before the clock started (a plan
    /// compiled or a request parsed just before): the start moves back
    /// to hold it.
    pub fn prepend(&self, phase: Phase, took: Duration) {
        let mut s = self.state();
        s.start = s.start.checked_sub(took).unwrap_or(s.start);
        s.nanos[phase as usize] += took.as_nanos() as u64;
    }

    pub fn set_cache(&self, disposition: &'static str) {
        self.state().cache = disposition;
    }

    /// End the hop now: its span in micros and its phases. Each phase is
    /// the floored micros of its running sum, in `Phase` order, less those
    /// of the phases before it: within a micro of its own nanoseconds, and
    /// all of them summed never past the span. Later events are ignored,
    /// and a second call returns the same.
    pub fn finish(&self) -> (u64, Phases) {
        self.state().finish(Instant::now())
    }
}

/// An open interval of one phase on a [`PhaseClock`].
pub struct PhaseGuard<'c> {
    clock: &'c PhaseClock,
    phase: Phase,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.clock.state().step(self.phase, Instant::now(), -1);
    }
}

/// One node of the aggregated operator tree.
#[derive(Clone, Debug, Default, PartialEq)]
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

    /// Calls of the operator `name` in these trees, at any depth.
    pub fn calls_of(ops: &[OpNode], name: &str) -> u64 {
        (ops.iter())
            .map(|op| (op.name == name) as u64 * op.calls + Self::calls_of(&op.children, name))
            .sum()
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
        write_list(out, &self.children, OpNode::to_json);
        out.push_str("]}");
    }
}

/// The finished profile of one hop: which peer ran it, who called it
/// (`via`, empty at the originator), its depth in the call chain, the PR 5
/// trace correlation ids, and the operator tree plus phase breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct HopProfile {
    pub peer: String,
    pub via: String,
    pub depth: u32,
    pub trace_id: u128,
    pub span_id: u64,
    /// The span of the hop's [`PhaseClock`]; its phases never sum past it.
    pub total_micros: u64,
    pub phases: Phases,
    pub ops: Vec<OpNode>,
}

impl HopProfile {
    pub fn to_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"peer\":\"{}\",\"via\":\"{}\",\"depth\":{},\"traceId\":\"{:032x}\",\"spanId\":\"{:016x}\",\"totalMicros\":{},\"unattributedMicros\":{},\"phases\":{{",
            json_escape(&self.peer),
            json_escape(&self.via),
            self.depth,
            self.trace_id,
            self.span_id,
            self.total_micros,
            self.total_micros.saturating_sub(self.phases.total_micros()),
        ));
        self.phases.write_json_members(out);
        // the disposition is one of three fixed words: nothing to escape
        out.push_str(&format!(",\"cache\":\"{}\"}},\"ops\":[", self.phases.cache));
        write_list(out, &self.ops, OpNode::to_json);
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
        write_list(&mut out, &self.hops, HopProfile::to_json);
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

/// Write `items` comma-separated, each by `write`.
fn write_list<T>(out: &mut String, items: &[T], write: impl Fn(&T, &mut String)) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(item, out);
    }
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
    /// This hop's phase clock, which the client's calls charge too.
    pub clock: Arc<PhaseClock>,
    /// Hop profiles harvested from downstream peers' responses.
    child_hops: Mutex<Vec<HopProfile>>,
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
            clock: PhaseClock::new(),
            child_hops: Mutex::new(Vec::new()),
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
    /// (the `execute at` whose dispatch produced them).
    pub fn add_bytes_to_current(&self, n: u64) {
        let current = CURRENT_OP.with(|c| c.get());
        if let Some((_, idx)) = current.filter(|(id, _)| *id == self.id) {
            let mut a = self.arena.lock().unwrap();
            if let Some(node) = a.nodes.get_mut(idx) {
                node.bytes += n;
            }
        }
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

    /// Finish this hop, its clock included: its own profile first, then
    /// every absorbed downstream hop. The resulting list is what goes into the
    /// `<xrpc:profile>` response header (or the originator's assembly).
    pub fn finish_hops(&self, trace_id: u128, span_id: u64) -> Vec<HopProfile> {
        let (total_micros, phases) = self.clock.finish();
        let own = HopProfile {
            peer: self.peer.clone(),
            via: self.via.clone(),
            depth: self.depth,
            trace_id,
            span_id,
            total_micros,
            phases,
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
        let phases = Phases {
            micros: [1, 2, 3, 4, 5, 6, 7],
            cache: "hit",
        };
        let prof = QueryProfile {
            trace_id: 0xabc,
            hops: vec![HopProfile {
                peer: "http://a/\"x\"".into(),
                via: String::new(),
                depth: 0,
                trace_id: 0xabc,
                span_id: 7,
                total_micros: 30,
                phases,
                ops: Vec::new(),
            }],
        };
        assert_eq!(prof.hops[0].phases.total_micros(), 28);
        let j = prof.to_json();
        assert!(j.contains("\\\"x\\\""));
        // every phase once, under its wire name, in nesting order; the
        // remainder beside the total
        assert!(j.contains(
            "\"totalMicros\":30,\"unattributedMicros\":2,\"phases\":{\"parseMicros\":1,\"compileMicros\":2,\"executeMicros\":3,\"networkMicros\":4,\"marshalMicros\":5,\"twopcMicros\":6,\"walMicros\":7,\"cache\":\"hit\"},\"ops\":[]}"
        ));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    impl PhaseClock {
        fn open_at(&self, phase: Phase, at: Instant) {
            self.state().step(phase, at, 1);
        }

        fn close_at(&self, phase: Phase, at: Instant) {
            self.state().step(phase, at, -1);
        }

        fn record_at(&self, phase: Phase, took: Duration, at: Instant) {
            self.state().record(phase, took, at);
        }

        fn finish_at(&self, at: Instant) -> (u64, Phases) {
            self.state().finish(at)
        }
    }

    /// A clock, and the instant `k` µs after its start.
    fn clock_at() -> (Arc<PhaseClock>, impl Fn(u64) -> Instant) {
        let clock = PhaseClock::new();
        let t0 = clock.state().start;
        (clock, move |k| t0 + Duration::from_micros(k))
    }

    /// The phases a clock charged, in `Phase::ALL` order, and its span.
    fn charges(clock: &PhaseClock, end: Instant) -> ([u64; PHASES], u64) {
        let (total, phases) = clock.finish_at(end);
        (phases.micros, total)
    }

    #[test]
    fn an_inner_phase_is_charged_its_own_time_and_the_outer_the_rest() {
        let (clock, t) = clock_at();
        clock.open_at(Phase::Execute, t(10));
        clock.open_at(Phase::Network, t(30));
        clock.close_at(Phase::Network, t(80));
        clock.close_at(Phase::Execute, t(100));
        clock.open_at(Phase::TwoPc, t(100));
        clock.open_at(Phase::Wal, t(120));
        clock.close_at(Phase::Wal, t(150));
        clock.close_at(Phase::TwoPc, t(190));
        // parse compile execute network marshal twopc wal
        assert_eq!(
            charges(&clock, t(200)),
            ([0, 0, 40, 50, 0, 60, 30], 200),
            "the first 10 µs and the last 10 are the remainder"
        );
    }

    #[test]
    fn overlapping_round_trips_on_two_threads_count_once() {
        let (clock, t) = clock_at();
        clock.open_at(Phase::Execute, t(0));
        // each step on a thread of its own, in the order of its instant
        let on_thread = |f: &(dyn Fn() + Sync)| std::thread::scope(|s| s.spawn(f).join().unwrap());
        on_thread(&|| clock.open_at(Phase::Network, t(10)));
        on_thread(&|| clock.open_at(Phase::Network, t(20)));
        on_thread(&|| clock.close_at(Phase::Network, t(60)));
        on_thread(&|| clock.close_at(Phase::Network, t(70)));
        clock.close_at(Phase::Execute, t(80));
        assert_eq!(charges(&clock, t(80)), ([0, 0, 20, 60, 0, 0, 0], 80));
    }

    #[test]
    fn marshal_beside_a_round_trip_takes_the_overlap() {
        let (clock, t) = clock_at();
        clock.open_at(Phase::Execute, t(0));
        clock.open_at(Phase::Network, t(5)); // thread 1 waits on a reply
        clock.open_at(Phase::Marshal, t(15)); // thread 2 marshals its call
        clock.close_at(Phase::Marshal, t(25));
        clock.close_at(Phase::Network, t(45));
        clock.close_at(Phase::Execute, t(50));
        assert_eq!(charges(&clock, t(50)), ([0, 0, 10, 30, 10, 0, 0], 50));
    }

    #[test]
    fn a_gap_goes_to_the_remainder_and_phases_never_pass_the_span() {
        let (clock, t) = clock_at();
        clock.open_at(Phase::Execute, t(0));
        clock.close_at(Phase::Execute, t(40));
        clock.open_at(Phase::Execute, t(3_040)); // a 3 ms deschedule
        clock.close_at(Phase::Execute, t(3_100));
        let (total, phases) = clock.finish_at(t(3_100) + Duration::from_nanos(999));
        assert_eq!((total, phases[Phase::Execute]), (3_100, 100));
        assert_eq!(
            total - phases.total_micros(),
            3_000,
            "the unattributed remainder"
        );
        // charged in nanoseconds, the running sum floored: 1.9 µs each,
        // rounded, would sum to 14 µs past a span of 13, and floored to 7
        let (clock, t) = clock_at();
        let at = |k: u64| t(0) + Duration::from_nanos(1_900 * k);
        for (k, (phase, _)) in Phase::ALL.into_iter().enumerate() {
            clock.open_at(phase, at(k as u64));
            clock.close_at(phase, at(k as u64 + 1));
        }
        let (total, phases) = clock.finish_at(at(PHASES as u64));
        assert_eq!((total, phases.micros), (13, [1, 2, 2, 2, 2, 2, 2]));
        // once finished, a clock stands still
        clock.open_at(Phase::Execute, t(100));
        assert_eq!(clock.finish_at(t(200)), (total, phases));
    }

    #[test]
    fn a_duration_recorded_after_the_fact() {
        // a WAL force timed inside a 2PC step, recorded once it returned
        let (clock, t) = clock_at();
        clock.open_at(Phase::TwoPc, t(0));
        clock.record_at(Phase::Wal, Duration::from_micros(30), t(100));
        clock.close_at(Phase::TwoPc, t(120));
        assert_eq!(charges(&clock, t(120)), ([0, 0, 0, 0, 0, 90, 30], 120));
        // one that began before the last event is charged from it on
        let (clock, t) = clock_at();
        clock.open_at(Phase::Execute, t(0));
        clock.close_at(Phase::Execute, t(100));
        clock.record_at(Phase::Wal, Duration::from_micros(30), t(110));
        assert_eq!(charges(&clock, t(110)), ([0, 0, 100, 0, 0, 0, 10], 110));
        // a plan compiled, or a request parsed, before the clock started:
        // the hop's start moves back to hold it
        let (clock, t) = clock_at();
        clock.prepend(Phase::Parse, Duration::from_micros(50));
        clock.prepend(Phase::Compile, Duration::from_micros(20));
        clock.open_at(Phase::Execute, t(0));
        clock.close_at(Phase::Execute, t(10));
        assert_eq!(charges(&clock, t(10)), ([50, 20, 10, 0, 0, 0, 0], 80));
    }
}
