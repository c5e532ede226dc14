//! The simulated network: in-process peers joined by links with a
//! configurable one-way latency and bandwidth, plus deterministic fault
//! injection.
//!
//! Cost model per round trip (both directions):
//! `2·latency + request_bytes/bandwidth + response_bytes/bandwidth`,
//! realized by actually sleeping, so wall-clock benchmark numbers carry
//! the same latency-amortization signal as the paper's testbed.
//!
//! Fault injection is a per-peer FIFO script ([`SimFault`]): each round
//! trip to a peer consumes the next scheduled fault, making chaos tests
//! fully deterministic. Crucially, the script distinguishes *drop-request*
//! (the handler never ran) from *drop-response* (the handler ran, the
//! caller cannot know) — the ambiguity that decides retry safety for
//! updating calls. Peers can also be crashed and restarted wholesale.

use crate::metrics::NetMetrics;
use crate::{NetError, NetErrorKind, Transport};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Link characteristics.
#[derive(Clone, Copy, Debug)]
pub struct NetProfile {
    pub one_way_latency: Duration,
    /// Bytes per second; `None` = infinite.
    pub bandwidth_bytes_per_sec: Option<u64>,
}

impl NetProfile {
    /// Zero-cost link (pure in-process call).
    pub fn instant() -> Self {
        NetProfile {
            one_way_latency: Duration::ZERO,
            bandwidth_bytes_per_sec: None,
        }
    }

    /// The paper's testbed: 1 Gb/s Ethernet LAN, sub-millisecond latency.
    pub fn lan() -> Self {
        NetProfile {
            one_way_latency: Duration::from_micros(500),
            bandwidth_bytes_per_sec: Some(125_000_000), // 1 Gb/s
        }
    }

    pub fn with_latency(latency: Duration) -> Self {
        NetProfile {
            one_way_latency: latency,
            bandwidth_bytes_per_sec: Some(125_000_000),
        }
    }

    fn transfer_cost(&self, bytes: usize) -> Duration {
        let mut d = self.one_way_latency;
        if let Some(bw) = self.bandwidth_bytes_per_sec {
            d += Duration::from_secs_f64(bytes as f64 / bw as f64);
        }
        d
    }
}

/// One scheduled fault on the link to a peer (consumed FIFO, one per
/// round trip).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimFault {
    /// The request is lost before reaching the peer: the handler does
    /// NOT run; the caller sees [`NetErrorKind::Timeout`].
    DropRequest,
    /// The response is lost on the way back: the handler DID run; the
    /// caller sees the same [`NetErrorKind::Timeout`] — indistinguishable
    /// from [`SimFault::DropRequest`] at the call site, which is exactly
    /// the ambiguity updating calls must respect.
    DropResponse,
    /// The connection is refused before any byte is written: the handler
    /// does not run; the caller sees [`NetErrorKind::ConnectionRefused`]
    /// (send-side, unambiguous — always safe to retry).
    Refuse,
    /// The response arrives damaged: the handler DID run; the caller sees
    /// [`NetErrorKind::Corrupt`] (detected by the framing layer).
    CorruptResponse,
    /// The round trip succeeds but costs this much extra wall-clock time.
    LatencySpike(Duration),
}

/// A registered peer endpoint: raw SOAP bytes in, raw SOAP bytes out.
pub type SoapHandler = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

/// Named crash *points* inside a peer's 2PC handling — deterministic
/// process-death injection at protocol-critical instants, not just
/// whole-peer [`SimNetwork::crash`]. The peer code consults its attached
/// [`CrashSwitch`] at each point; the sim suppresses the in-flight
/// response when the switch trips mid-request (the caller sees a timeout,
/// exactly the ambiguity a real crash produces).
pub mod crash_points {
    /// Participant dies after deciding to prepare but *before* forcing
    /// the Prepared record: nothing durable, no ack — presumed abort.
    pub const BEFORE_PREPARE_LOG: &str = "participant:before-prepare-log";
    /// Participant dies right after its Prepare ack is delivered: the
    /// coordinator proceeds to commit while the participant is down with
    /// only its WAL to remember the promise.
    pub const AFTER_PREPARE_ACK: &str = "participant:after-prepare-ack";
    /// Participant dies after forcing the decision record but before
    /// applying ∆_q: recovery must re-apply from the log.
    pub const AFTER_DECISION_LOG: &str = "participant:after-decision-receipt-before-apply";
    /// Coordinator dies after unanimous prepare but *before* forcing the
    /// commit record: no decision exists — participants must presume
    /// abort when they inquire.
    pub const COORD_BEFORE_COMMIT_LOG: &str = "coordinator:before-commit-log";
    /// Coordinator dies after forcing the commit record but before any
    /// Commit delivery: participants stay prepared until the restarted
    /// coordinator redelivers (or they inquire).
    pub const COORD_AFTER_COMMIT_LOG: &str = "coordinator:after-commit-log-before-delivery";
    /// Participant dies after applying a committed ∆_q but before forcing
    /// the `Applied` marker: the log still says "committed, unapplied" —
    /// only the applied-LSN mark stops recovery from applying ∆_q twice.
    pub const AFTER_APPLY_BEFORE_MARKER: &str = "participant:after-apply-before-marker";
    /// Participant dies with a one-phase commit done — logged, applied,
    /// closed — but before its acknowledgement leaves: the coordinator
    /// cannot tell a commit from a message that never arrived.
    pub const AFTER_ONE_PHASE_COMMIT: &str = "participant:after-one-phase-commit-before-ack";
    /// Coordinator dies while its `CommitOnePhase` is in flight, before it
    /// has learned or recorded the answer: the restart's re-abort sweep
    /// tells the participant to abort, which it acknowledges if committed.
    pub const COORD_ONE_PHASE_IN_FLIGHT: &str = "coordinator:one-phase-in-flight";
    /// Appender dies inside group commit, after its record is written but
    /// before the batch leader's fsync: the record may or may not survive
    /// — exactly the torn-tail ambiguity replay must absorb.
    pub const WAL_GROUP_FSYNC: &str = "wal:group-commit-before-fsync";
    /// Peer dies mid-compaction: the forced `log.next` is on disk but not
    /// yet renamed over `log` — the reopen removes it and replays the old
    /// log whole.
    pub const WAL_MID_ROTATION: &str = "wal:mid-rotation-before-reclaim";
}

/// A deterministic kill switch shared between a peer and the sim network.
///
/// Chaos tests `arm` a named point; when the instrumented code reaches it
/// ([`hit`](Self::hit)) the switch flips to *down*: the request dies
/// mid-handling (the sim drops the would-be response) and every later
/// request is refused until [`revive`](Self::revive) — the test's stand-in
/// for restarting the process. [`hit_after`](Self::hit_after) models dying
/// *after* the response left the socket: the in-flight reply is delivered,
/// only subsequent requests are refused.
#[derive(Default)]
pub struct CrashSwitch {
    armed: Mutex<Vec<String>>,
    down: AtomicBool,
    /// Monotone count of mid-request deaths; the sim compares before/after
    /// a handler run to decide whether to suppress the response.
    trips: AtomicU64,
}

impl CrashSwitch {
    pub fn new() -> Arc<Self> {
        Arc::new(CrashSwitch::default())
    }

    /// Arm `point`: the next time instrumented code reaches it, die there.
    pub fn arm(&self, point: &str) {
        self.armed.lock().push(point.to_string());
    }

    fn disarm(&self, point: &str) -> bool {
        let mut armed = self.armed.lock();
        match armed.iter().position(|p| p == point) {
            Some(i) => {
                armed.remove(i);
                true
            }
            None => false,
        }
    }

    /// Instrumentation: die *now* (mid-request) if `point` is armed.
    /// Returns true when the caller should abandon the request — the sim
    /// will suppress whatever response it produces.
    pub fn hit(&self, point: &str) -> bool {
        if self.disarm(point) {
            self.down.store(true, Ordering::SeqCst);
            self.trips.fetch_add(1, Ordering::SeqCst);
            true
        } else {
            false
        }
    }

    /// Instrumentation: die *after* the current response is delivered if
    /// `point` is armed (the response goes out; later requests refuse).
    pub fn hit_after(&self, point: &str) -> bool {
        if self.disarm(point) {
            self.down.store(true, Ordering::SeqCst);
            true
        } else {
            false
        }
    }

    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// The process restarts: accept requests again. Armed points survive
    /// a revive (a schedule may crash the same peer at a later point too).
    pub fn revive(&self) {
        self.down.store(false, Ordering::SeqCst);
    }

    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::SeqCst)
    }
}

struct PeerEntry {
    handler: SoapHandler,
    /// Scripted faults, consumed one per round trip.
    faults: Mutex<VecDeque<SimFault>>,
    /// Crashed peers refuse connections until restarted.
    down: AtomicBool,
    /// How many times the handler actually ran (lets chaos tests tell
    /// drop-request from drop-response and prove exactly-once effects).
    handled: AtomicU64,
    /// Optional crash-point switch shared with the peer's handler.
    switch: Mutex<Option<Arc<CrashSwitch>>>,
}

/// An in-process network of named peers.
#[derive(Default)]
pub struct SimNetwork {
    peers: RwLock<HashMap<String, Arc<PeerEntry>>>,
    profile: NetProfile,
    pub metrics: Arc<NetMetrics>,
}

impl SimNetwork {
    pub fn new(profile: NetProfile) -> Self {
        SimNetwork {
            peers: RwLock::new(HashMap::new()),
            profile,
            metrics: Arc::new(NetMetrics::new()),
        }
    }

    /// Register a peer under a destination URI (e.g. `xrpc://y.example.org`).
    pub fn register(&self, dest: impl Into<String>, handler: SoapHandler) {
        self.peers.write().insert(
            dest.into(),
            Arc::new(PeerEntry {
                handler,
                faults: Mutex::new(VecDeque::new()),
                down: AtomicBool::new(false),
                handled: AtomicU64::new(0),
                switch: Mutex::new(None),
            }),
        );
    }

    pub fn profile(&self) -> NetProfile {
        self.profile
    }

    /// Schedule one fault on the link to `dest` (FIFO with previously
    /// scheduled faults; each round trip consumes at most one).
    pub fn inject_fault(&self, dest: &str, fault: SimFault) {
        if let Some(p) = self.peers.read().get(dest) {
            p.faults.lock().push_back(fault);
        }
    }

    /// Schedule a sequence of faults on the link to `dest`.
    pub fn inject_fault_script(&self, dest: &str, faults: impl IntoIterator<Item = SimFault>) {
        if let Some(p) = self.peers.read().get(dest) {
            p.faults.lock().extend(faults);
        }
    }

    /// Crash `dest`: every request is refused (send-side) until
    /// [`restart`](Self::restart). The peer's in-memory state is retained
    /// — this models a process that stopped accepting connections, the
    /// paper's transiently-partitioned 2PC participant.
    pub fn crash(&self, dest: &str) {
        if let Some(p) = self.peers.read().get(dest) {
            p.down.store(true, Ordering::SeqCst);
        }
    }

    /// Bring a crashed peer back.
    pub fn restart(&self, dest: &str) {
        if let Some(p) = self.peers.read().get(dest) {
            p.down.store(false, Ordering::SeqCst);
        }
    }

    /// Attach a crash-point switch to `dest`: while the switch is down
    /// the peer refuses connections, and a request whose handling trips
    /// the switch mid-flight loses its response (caller sees a timeout).
    /// The same switch must be given to the peer so its instrumented
    /// crash points fire — see [`CrashSwitch`].
    pub fn attach_crash_switch(&self, dest: &str, switch: Arc<CrashSwitch>) {
        if let Some(p) = self.peers.read().get(dest) {
            *p.switch.lock() = Some(switch);
        }
    }

    /// How many requests `dest`'s handler actually executed.
    pub fn handled_count(&self, dest: &str) -> u64 {
        self.peers
            .read()
            .get(dest)
            .map(|p| p.handled.load(Ordering::SeqCst))
            .unwrap_or(0)
    }

    /// Unconsumed scheduled faults for `dest`.
    pub fn pending_faults(&self, dest: &str) -> usize {
        self.peers
            .read()
            .get(dest)
            .map(|p| p.faults.lock().len())
            .unwrap_or(0)
    }
}

impl Default for NetProfile {
    fn default() -> Self {
        NetProfile::lan()
    }
}

impl Transport for SimNetwork {
    fn roundtrip(&self, dest: &str, body: &[u8]) -> Result<Vec<u8>, NetError> {
        let peer = self.peers.read().get(dest).cloned().ok_or_else(|| {
            self.metrics.record_failure();
            NetError::new(format!("unknown peer `{dest}`"))
        })?;
        if peer.down.load(Ordering::SeqCst) {
            self.metrics.record_failure();
            return Err(NetError::with_kind(
                NetErrorKind::ConnectionRefused,
                format!("peer `{dest}` is down"),
            ));
        }
        let switch = peer.switch.lock().clone();
        if let Some(sw) = &switch {
            if sw.is_down() {
                self.metrics.record_failure();
                return Err(NetError::with_kind(
                    NetErrorKind::ConnectionRefused,
                    format!("peer `{dest}` is down (crashed at a crash point)"),
                ));
            }
        }
        let fault = peer.faults.lock().pop_front();
        let profile = self.profile;
        match fault {
            Some(SimFault::Refuse) => {
                self.metrics.record_failure();
                return Err(NetError::with_kind(
                    NetErrorKind::ConnectionRefused,
                    format!("injected connection refused by `{dest}`"),
                ));
            }
            Some(SimFault::DropRequest) => {
                self.metrics.record_failure();
                self.metrics.record_timeout();
                return Err(NetError::with_kind(
                    NetErrorKind::Timeout,
                    format!("injected request drop on link to `{dest}`"),
                ));
            }
            Some(SimFault::LatencySpike(extra)) if !extra.is_zero() => {
                std::thread::sleep(extra);
            }
            // DropResponse / CorruptResponse fall through: the request IS
            // delivered and handled, the fault hits on the way back
            _ => {}
        }
        let send_cost = profile.transfer_cost(body.len());
        if !send_cost.is_zero() {
            std::thread::sleep(send_cost);
        }
        peer.handled.fetch_add(1, Ordering::SeqCst);
        let trips_before = switch.as_ref().map(|s| s.trips()).unwrap_or(0);
        let response = (peer.handler)(body);
        if let Some(sw) = &switch {
            if sw.trips() != trips_before {
                // the peer died mid-handling: whatever bytes the handler
                // returned never made it onto the wire
                self.metrics.record_failure();
                self.metrics.record_timeout();
                return Err(NetError::with_kind(
                    NetErrorKind::Timeout,
                    format!("peer `{dest}` crashed while handling the request"),
                ));
            }
        }
        let recv_cost = profile.transfer_cost(response.len());
        if !recv_cost.is_zero() {
            std::thread::sleep(recv_cost);
        }
        match fault {
            Some(SimFault::DropResponse) => {
                self.metrics.record_failure();
                self.metrics.record_timeout();
                Err(NetError::with_kind(
                    NetErrorKind::Timeout,
                    format!("injected response drop on link from `{dest}`"),
                ))
            }
            Some(SimFault::CorruptResponse) => {
                self.metrics.record_failure();
                Err(NetError::with_kind(
                    NetErrorKind::Corrupt,
                    format!("injected response corruption on link from `{dest}`"),
                ))
            }
            _ => {
                self.metrics.record(body.len(), response.len());
                Ok(response)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn roundtrip_calls_handler() {
        let net = SimNetwork::new(NetProfile::instant());
        net.register(
            "xrpc://y",
            Arc::new(|b: &[u8]| {
                let mut v = b.to_vec();
                v.reverse();
                v
            }),
        );
        assert_eq!(net.roundtrip("xrpc://y", b"abc").unwrap(), b"cba");
        assert_eq!(net.metrics.snapshot().roundtrips, 1);
        assert_eq!(net.handled_count("xrpc://y"), 1);
    }

    #[test]
    fn unknown_peer_errors() {
        let net = SimNetwork::new(NetProfile::instant());
        assert!(net.roundtrip("xrpc://nowhere", b"x").is_err());
        assert_eq!(net.metrics.snapshot().failures, 1);
    }

    #[test]
    fn latency_is_charged_per_roundtrip() {
        let net = SimNetwork::new(NetProfile::with_latency(Duration::from_millis(5)));
        net.register("xrpc://y", Arc::new(|_: &[u8]| vec![]));
        let t0 = Instant::now();
        net.roundtrip("xrpc://y", b"x").unwrap();
        let one = t0.elapsed();
        assert!(
            one >= Duration::from_millis(10),
            "round trip should cost 2x latency, took {one:?}"
        );

        // bulk amortization: 1 round trip for N calls beats N round trips
        let t1 = Instant::now();
        for _ in 0..5 {
            net.roundtrip("xrpc://y", b"x").unwrap();
        }
        let five = t1.elapsed();
        assert!(five >= Duration::from_millis(50));
    }

    #[test]
    fn bandwidth_charged_for_large_payloads() {
        let net = SimNetwork::new(NetProfile {
            one_way_latency: Duration::ZERO,
            bandwidth_bytes_per_sec: Some(1_000_000), // 1 MB/s
        });
        net.register("xrpc://y", Arc::new(|_: &[u8]| vec![]));
        let body = vec![0u8; 100_000]; // 0.1s at 1MB/s
        let t0 = Instant::now();
        net.roundtrip("xrpc://y", &body).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(90));
    }

    #[test]
    fn drop_request_vs_drop_response_distinguishable_at_peer() {
        let net = SimNetwork::new(NetProfile::instant());
        net.register("xrpc://y", Arc::new(|_: &[u8]| b"ok".to_vec()));
        net.inject_fault("xrpc://y", SimFault::DropRequest);
        let e1 = net.roundtrip("xrpc://y", b"x").unwrap_err();
        assert_eq!(e1.kind, NetErrorKind::Timeout);
        assert_eq!(
            net.handled_count("xrpc://y"),
            0,
            "drop-request: handler must not run"
        );

        net.inject_fault("xrpc://y", SimFault::DropResponse);
        let e2 = net.roundtrip("xrpc://y", b"x").unwrap_err();
        assert_eq!(e2.kind, NetErrorKind::Timeout);
        assert_eq!(
            net.handled_count("xrpc://y"),
            1,
            "drop-response: handler ran"
        );
    }

    #[test]
    fn corrupt_response_runs_handler_and_reports_corrupt() {
        let net = SimNetwork::new(NetProfile::instant());
        net.register("xrpc://y", Arc::new(|_: &[u8]| b"ok".to_vec()));
        net.inject_fault("xrpc://y", SimFault::CorruptResponse);
        let e = net.roundtrip("xrpc://y", b"x").unwrap_err();
        assert_eq!(e.kind, NetErrorKind::Corrupt);
        assert_eq!(net.handled_count("xrpc://y"), 1);
    }

    #[test]
    fn latency_spike_succeeds_but_costs_time() {
        let net = SimNetwork::new(NetProfile::instant());
        net.register("xrpc://y", Arc::new(|_: &[u8]| b"ok".to_vec()));
        net.inject_fault(
            "xrpc://y",
            SimFault::LatencySpike(Duration::from_millis(20)),
        );
        let t0 = Instant::now();
        assert_eq!(net.roundtrip("xrpc://y", b"x").unwrap(), b"ok");
        assert!(t0.elapsed() >= Duration::from_millis(20));
        // spike consumed: next call is fast
        let t1 = Instant::now();
        net.roundtrip("xrpc://y", b"x").unwrap();
        assert!(t1.elapsed() < Duration::from_millis(10));
    }

    #[test]
    fn fault_script_consumed_in_order() {
        let net = SimNetwork::new(NetProfile::instant());
        net.register("xrpc://y", Arc::new(|_: &[u8]| b"ok".to_vec()));
        net.inject_fault_script("xrpc://y", [SimFault::Refuse, SimFault::DropResponse]);
        assert_eq!(net.pending_faults("xrpc://y"), 2);
        assert_eq!(
            net.roundtrip("xrpc://y", b"x").unwrap_err().kind,
            NetErrorKind::ConnectionRefused
        );
        assert_eq!(
            net.roundtrip("xrpc://y", b"x").unwrap_err().kind,
            NetErrorKind::Timeout
        );
        assert_eq!(net.pending_faults("xrpc://y"), 0);
        assert!(net.roundtrip("xrpc://y", b"x").is_ok());
    }

    #[test]
    fn crash_refuses_until_restart_preserving_state() {
        let net = SimNetwork::new(NetProfile::instant());
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        net.register(
            "xrpc://y",
            Arc::new(move |_: &[u8]| {
                h.fetch_add(1, Ordering::SeqCst);
                b"ok".to_vec()
            }),
        );
        net.roundtrip("xrpc://y", b"x").unwrap();
        net.crash("xrpc://y");
        let e = net.roundtrip("xrpc://y", b"x").unwrap_err();
        assert_eq!(e.kind, NetErrorKind::ConnectionRefused);
        net.restart("xrpc://y");
        net.roundtrip("xrpc://y", b"x").unwrap();
        assert_eq!(
            hits.load(Ordering::SeqCst),
            2,
            "state (counter) survives the crash"
        );
    }

    #[test]
    fn crash_switch_mid_request_drops_response_then_refuses() {
        let net = SimNetwork::new(NetProfile::instant());
        let sw = CrashSwitch::new();
        let sw_handler = sw.clone();
        net.register(
            "xrpc://y",
            Arc::new(move |_: &[u8]| {
                if sw_handler.hit(crash_points::BEFORE_PREPARE_LOG) {
                    // a real peer would abandon the request here; whatever
                    // it returns must never reach the caller
                    return b"never-delivered".to_vec();
                }
                b"ok".to_vec()
            }),
        );
        net.attach_crash_switch("xrpc://y", sw.clone());

        // not armed: normal operation
        assert_eq!(net.roundtrip("xrpc://y", b"x").unwrap(), b"ok");

        sw.arm(crash_points::BEFORE_PREPARE_LOG);
        let e = net.roundtrip("xrpc://y", b"x").unwrap_err();
        assert_eq!(
            e.kind,
            NetErrorKind::Timeout,
            "mid-request crash is ambiguous"
        );
        assert_eq!(net.handled_count("xrpc://y"), 2, "handler DID start");

        // down until revived
        let e = net.roundtrip("xrpc://y", b"x").unwrap_err();
        assert_eq!(e.kind, NetErrorKind::ConnectionRefused);
        sw.revive();
        assert_eq!(net.roundtrip("xrpc://y", b"x").unwrap(), b"ok");
    }

    #[test]
    fn crash_switch_hit_after_delivers_response_then_refuses() {
        let net = SimNetwork::new(NetProfile::instant());
        let sw = CrashSwitch::new();
        let sw_handler = sw.clone();
        net.register(
            "xrpc://y",
            Arc::new(move |_: &[u8]| {
                sw_handler.hit_after(crash_points::AFTER_PREPARE_ACK);
                b"ack".to_vec()
            }),
        );
        net.attach_crash_switch("xrpc://y", sw.clone());
        sw.arm(crash_points::AFTER_PREPARE_ACK);
        // the response that armed the crash still gets through...
        assert_eq!(net.roundtrip("xrpc://y", b"x").unwrap(), b"ack");
        // ...but the peer is down afterwards
        let e = net.roundtrip("xrpc://y", b"x").unwrap_err();
        assert_eq!(e.kind, NetErrorKind::ConnectionRefused);
    }

    #[test]
    fn profiles_sane() {
        assert!(NetProfile::instant().one_way_latency < NetProfile::lan().one_way_latency);
        assert!(NetProfile::instant().transfer_cost(1 << 30).is_zero());
    }
}
