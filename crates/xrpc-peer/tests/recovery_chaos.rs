//! Crash-restart chaos tests for the durable 2PC layer: a three-peer
//! cluster with write-ahead logs, killed deterministically at every
//! instrumented crash point and restarted over the *same* log file (and
//! the same document store, standing in for the durable database).
//!
//! The invariant throughout: a distributed update either applies exactly
//! once at every participant or at none — never mixed, never doubled —
//! regardless of where a process dies. Presumed abort means every crash
//! before the coordinator's forced commit record ends in a clean abort;
//! every crash after it ends in commit everywhere, driven by restart
//! recovery (WAL replay, outcome inquiry, decision redelivery).
//!
//! The final test is a property-style checker: pseudo-random fault
//! schedules (seeded, `CHAOS_SEED` selects the stream for CI matrices),
//! every prefix of each schedule replayed, failures shrunk to the
//! shortest failing schedule before panicking.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xrpc_net::{
    crash_points, BreakerConfig, CrashSwitch, HttpServer, HttpTransport, NetProfile,
    ResilientTransport, RetryPolicy, SimNetwork,
};
use xrpc_peer::{EngineKind, FsyncPolicy, Peer, SweeperConfig, TwoPcConfig, WalConfig};

const A_URI: &str = "xrpc://a.example.org";
const B_URI: &str = "xrpc://b.example.org";
const C_URI: &str = "xrpc://c.example.org";

const CHAOS_MODULE: &str = r#"
    module namespace t = "test";
    declare function t:ping() { "pong" };
    declare updating function t:addEntry($x as xs:string)
    { insert node <e>{$x}</e> into doc("log.xml")/log };
"#;

const UPDATE_BOTH: &str = r#"declare option xrpc:isolation "repeatable";
    import module namespace t = "test";
    (execute at {"xrpc://b.example.org"} {t:addEntry("x")},
     execute at {"xrpc://c.example.org"} {t:addEntry("x")})"#;

/// One writer, the coordinator holding no ∆, and the call the query's
/// tail: b commits in one phase before it answers the call.
const UPDATE_B: &str = r#"declare option xrpc:isolation "repeatable";
    import module namespace t = "test";
    execute at {"xrpc://b.example.org"} {t:addEntry("x")}"#;

/// One writer whose call is not the query's tail (a value follows it): the
/// effect summary refuses commit on reply, and a `CommitOnePhase` follows
/// the call.
const UPDATE_B_THEN_DONE: &str = r#"declare option xrpc:isolation "repeatable";
    import module namespace t = "test";
    (execute at {"xrpc://b.example.org"} {t:addEntry("x")}, "done")"#;

/// Unique WAL paths per cluster so parallel tests never share a log.
static RUN_ID: AtomicU64 = AtomicU64::new(0);

struct Node {
    peer: Arc<Peer>,
    switch: Arc<CrashSwitch>,
    wal_path: std::path::PathBuf,
}

struct Cluster {
    net: Arc<SimNetwork>,
    a: Node,
    b: Node,
    c: Node,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for n in [&self.a, &self.b, &self.c] {
            let _ = std::fs::remove_dir_all(&n.wal_path);
        }
    }
}

/// Fsync policy for the chaos cluster: `CHAOS_FSYNC=always` runs the
/// whole suite with real forced fsyncs and live group commit (the CI
/// `recovery-chaos-fsync` job); the default `Never` keeps the
/// schedule-heavy property tests fast.
fn chaos_fsync() -> FsyncPolicy {
    match std::env::var("CHAOS_FSYNC").as_deref() {
        Ok("always") => FsyncPolicy::Always,
        _ => FsyncPolicy::Never,
    }
}

/// Chaos WAL tuning: a deliberately tiny compaction threshold so
/// compaction and copy-forward run constantly under the fault schedules,
/// not only in the directed compaction tests.
fn chaos_wal_config() -> WalConfig {
    WalConfig {
        fsync: chaos_fsync(),
        rotate_bytes: 2048,
        ..WalConfig::default()
    }
}

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        call_deadline: Duration::from_secs(5),
        jitter_seed: 42,
    }
}

fn fast_twopc() -> TwoPcConfig {
    TwoPcConfig {
        prepare_deadline: Duration::from_secs(5),
        decision_max_attempts: 2,
        decision_backoff: Duration::from_millis(1),
    }
}

/// Wire one peer into the cluster: module, transport, 2PC tuning, WAL,
/// crash switch (both peer-side and network-side) and the SOAP handler.
/// Used both at cluster birth and on every restart.
fn wire(net: &Arc<SimNetwork>, node: &Node, uri: &str) {
    node.peer.register_module(CHAOS_MODULE).unwrap();
    let resilient =
        ResilientTransport::with_policy(net.clone(), fast_policy(), BreakerConfig::default());
    node.peer.set_transport_raw(resilient);
    node.peer.set_twopc_config(fast_twopc());
    node.peer.set_crash_switch(node.switch.clone());
    net.register(uri, node.peer.soap_handler());
    net.attach_crash_switch(uri, node.switch.clone());
}

fn cluster(tag: &str) -> Cluster {
    let run = RUN_ID.fetch_add(1, Ordering::Relaxed);
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let mk = |uri: &str, short: &str| {
        let peer = Peer::new(uri, EngineKind::Tree);
        let wal_path = std::env::temp_dir().join(format!(
            "xrpc-recovery-{}-{tag}-{run}-{short}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&wal_path);
        Node {
            peer,
            switch: CrashSwitch::new(),
            wal_path,
        }
    };
    let cl = Cluster {
        a: mk(A_URI, "a"),
        b: mk(B_URI, "b"),
        c: mk(C_URI, "c"),
        net,
    };
    for (n, uri) in [(&cl.a, A_URI), (&cl.b, B_URI), (&cl.c, C_URI)] {
        wire(&cl.net, n, uri);
        n.peer
            .attach_wal_with(&n.wal_path, chaos_wal_config())
            .unwrap();
    }
    for n in [&cl.b, &cl.c] {
        n.peer.add_document("log.xml", "<log/>").unwrap();
    }
    cl
}

/// Restart a crashed node: a brand-new `Peer` over the *same* document
/// store (the durable database survives) and the *same* WAL file, with
/// all coordination state re-entered from the log. Returns the recovery
/// report of the WAL replay.
fn restart(net: &Arc<SimNetwork>, node: &mut Node, uri: &str) -> xrpc_peer::RecoveryReport {
    let docs = node.peer.docs.clone();
    node.peer = Peer::new_with_docs(uri, EngineKind::Tree, docs);
    node.switch.revive();
    wire(net, node, uri);
    node.peer
        .attach_wal_with(&node.wal_path, chaos_wal_config())
        .unwrap()
}

/// Number of `<e>` entries in a peer's log document.
fn log_count(p: &Peer) -> usize {
    let doc = p.docs.get("log.xml").unwrap();
    let log = doc.first_child(doc.root()).unwrap();
    doc.children(log)
        .filter(|&n| doc.node(n).name.as_ref().is_some_and(|q| q.local == "e"))
        .count()
}

// ---------------------------------------------------------------------
// Participant crash points
// ---------------------------------------------------------------------

#[test]
fn crash_before_prepare_log_presumes_abort_everywhere() {
    let mut cl = cluster("before-prepare");
    cl.b.switch.arm(crash_points::BEFORE_PREPARE_LOG);

    // b dies mid-Prepare with nothing durable: the coordinator times out,
    // decides abort, and the abort to the dead b is an undeliverable
    // hazard (counted, not fatal — presumed abort makes it safe to drop).
    let err = cl.a.peer.execute(UPDATE_BOTH).unwrap_err();
    assert!(
        err.message.contains("aborted"),
        "coordinator must abort: {err}"
    );
    let coord = cl.a.peer.twopc_metrics.snapshot();
    assert!(
        coord.hazards >= 1,
        "abort to the dead participant is a hazard: {coord:?}"
    );
    assert_eq!(
        cl.c.peer.twopc_metrics.snapshot().aborts,
        1,
        "the healthy participant quiesced with an abort"
    );

    // Restart finds an empty log — no prepared state to restore, nothing
    // to inquire about. Atomicity: zero entries everywhere.
    let report = restart(&cl.net, &mut cl.b, B_URI);
    assert_eq!(report.restored_prepared, 0);
    assert_eq!(report.reapplied, 0);
    cl.b.peer.resolve_in_doubt().unwrap();
    assert_eq!(log_count(&cl.b.peer), 0);
    assert_eq!(log_count(&cl.c.peer), 0);
    assert_eq!(cl.b.peer.wal().unwrap().open_transactions(), 0);
}

#[test]
fn crash_after_prepare_ack_resolves_in_doubt_by_inquiry() {
    let mut cl = cluster("after-prepare-ack");
    cl.b.switch.arm(crash_points::AFTER_PREPARE_ACK);

    // b promises (forced Prepared record, ack delivered) then dies. The
    // coordinator reaches unanimous prepare, forces its commit record,
    // commits c, and surfaces a heuristic hazard for the unreachable b.
    let err = cl.a.peer.execute(UPDATE_BOTH).unwrap_err();
    assert!(
        err.message.contains("commit undeliverable"),
        "commit already durable, b unreachable: {err}"
    );
    assert_eq!(log_count(&cl.c.peer), 1);
    assert_eq!(log_count(&cl.b.peer), 0, "b died before any Commit");
    assert!(cl.a.peer.twopc_metrics.snapshot().hazards >= 1);

    // Restart: the WAL re-enters prepared state; the in-doubt resolver
    // asks the coordinator, learns Committed, applies ∆ from the log.
    let report = restart(&cl.net, &mut cl.b, B_URI);
    assert_eq!(report.restored_prepared, 1);
    let resolved = cl.b.peer.resolve_in_doubt().unwrap();
    assert_eq!(resolved.resolved_committed, 1);
    assert_eq!(resolved.still_in_doubt, 0);
    assert_eq!(log_count(&cl.b.peer), 1, "inquiry converged b to commit");
    assert_eq!(cl.a.peer.twopc_metrics.snapshot().inquiries, 1);
    let b = cl.b.peer.twopc_metrics.snapshot();
    assert!(b.recoveries >= 1, "recovery counted: {b:?}");
    // all obligations settled: the log checkpoints back to empty
    assert_eq!(cl.b.peer.wal().unwrap().open_transactions(), 0);
}

#[test]
fn crash_after_decision_log_reapplies_from_wal_exactly_once() {
    let mut cl = cluster("after-decision");
    cl.b.switch.arm(crash_points::AFTER_DECISION_LOG);

    // b forces the Commit decision record, then dies *before* applying
    // ∆_q. The coordinator's delivery looks lost (hazard), but the
    // decision is durable at b.
    let err = cl.a.peer.execute(UPDATE_BOTH).unwrap_err();
    assert!(err.message.contains("commit undeliverable"), "{err}");
    assert_eq!(log_count(&cl.b.peer), 0, "decided but not yet applied");
    assert_eq!(log_count(&cl.c.peer), 1);

    // Restart replays Decision(Committed) without Applied: recovery
    // finishes the job straight from the log — exactly once.
    let report = restart(&cl.net, &mut cl.b, B_URI);
    assert_eq!(report.reapplied, 1);
    assert_eq!(report.restored_prepared, 0);
    assert_eq!(log_count(&cl.b.peer), 1);
    cl.b.peer.resolve_in_doubt().unwrap();
    assert_eq!(log_count(&cl.b.peer), 1, "resolution must not re-apply");
    assert!(cl.b.peer.twopc_metrics.snapshot().recoveries >= 1);
    assert_eq!(cl.b.peer.wal().unwrap().open_transactions(), 0);
}

#[test]
fn sweeper_resolves_in_doubt_participant_in_background() {
    let mut cl = cluster("sweeper");
    cl.b.switch.arm(crash_points::AFTER_PREPARE_ACK);
    assert!(cl.a.peer.execute(UPDATE_BOTH).is_err());

    let report = restart(&cl.net, &mut cl.b, B_URI);
    assert_eq!(report.restored_prepared, 1);
    // no explicit resolve: the background sweeper re-inquires prepared
    // transactions older than min_age on its own
    let handle = cl.b.peer.start_recovery_sweeper(SweeperConfig {
        interval: Duration::from_millis(20),
        min_age: Duration::ZERO,
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    while log_count(&cl.b.peer) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.stop();
    assert_eq!(log_count(&cl.b.peer), 1, "sweeper converged b to commit");
    assert_eq!(log_count(&cl.c.peer), 1);
}

// ---------------------------------------------------------------------
// Coordinator crash points
// ---------------------------------------------------------------------

#[test]
fn coordinator_crash_before_commit_log_presumes_abort() {
    let mut cl = cluster("coord-before-commit");
    cl.a.switch.arm(crash_points::COORD_BEFORE_COMMIT_LOG);

    // Unanimous prepare, then the coordinator dies before forcing its
    // commit record: no decision exists anywhere.
    let err = cl.a.peer.execute(UPDATE_BOTH).unwrap_err();
    assert!(err.message.contains("simulated crash"), "{err}");
    assert_eq!(log_count(&cl.b.peer), 0);
    assert_eq!(log_count(&cl.c.peer), 0);

    // Restart the coordinator: its log holds no commit record, so it
    // answers inquiries with the presumed abort. Both participants
    // release their prepared state cleanly.
    restart(&cl.net, &mut cl.a, A_URI);
    let rb = cl.b.peer.resolve_in_doubt().unwrap();
    let rc = cl.c.peer.resolve_in_doubt().unwrap();
    assert_eq!(rb.resolved_aborted, 1);
    assert_eq!(rc.resolved_aborted, 1);
    assert_eq!(log_count(&cl.b.peer), 0);
    assert_eq!(log_count(&cl.c.peer), 0);
    assert_eq!(cl.a.peer.twopc_metrics.snapshot().inquiries, 2);
    assert_eq!(
        cl.b.peer.snapshots.prepared_undecided(Duration::ZERO).len(),
        0
    );
    assert_eq!(
        cl.c.peer.snapshots.prepared_undecided(Duration::ZERO).len(),
        0
    );
}

#[test]
fn coordinator_crash_after_commit_log_redelivers_on_restart() {
    let mut cl = cluster("coord-after-commit");
    cl.a.switch.arm(crash_points::COORD_AFTER_COMMIT_LOG);

    // The commit record is forced, then the coordinator dies before any
    // delivery: the decision is commit, but nobody has heard it.
    let err = cl.a.peer.execute(UPDATE_BOTH).unwrap_err();
    assert!(err.message.contains("simulated crash"), "{err}");
    assert_eq!(log_count(&cl.b.peer), 0);
    assert_eq!(log_count(&cl.c.peer), 0);

    // Restart: WAL replay finds CoordinatorCommit without CoordinatorEnd
    // and redelivers Commit to every participant.
    restart(&cl.net, &mut cl.a, A_URI);
    let report = cl.a.peer.resolve_in_doubt().unwrap();
    assert_eq!(report.redelivered, 1);
    assert_eq!(log_count(&cl.b.peer), 1);
    assert_eq!(log_count(&cl.c.peer), 1);
    assert_eq!(cl.b.peer.twopc_metrics.snapshot().commits, 1);
    assert_eq!(cl.c.peer.twopc_metrics.snapshot().commits, 1);
    // the end record closes the coordinator's obligation: log checkpoints
    assert_eq!(cl.a.peer.wal().unwrap().open_transactions(), 0);
}

/// The originator is a participant of its own query: its local ∆ is
/// promised in its own log before the commit point, so a coordinator that
/// dies right after that point owes three commits — two by redelivery, one
/// to itself by asking its own table — and pays each exactly once.
#[test]
fn coordinator_crash_after_commit_log_settles_its_own_delta_exactly_once() {
    let mut cl = cluster("coord-own-delta");
    cl.a.peer.add_document("log.xml", "<log/>").unwrap();
    cl.a.switch.arm(crash_points::COORD_AFTER_COMMIT_LOG);

    let err =
        cl.a.peer
            .execute(
                r#"declare option xrpc:isolation "repeatable";
               import module namespace t = "test";
               (insert node <e>x</e> into doc("log.xml")/log,
                execute at {"xrpc://b.example.org"} {t:addEntry("x")},
                execute at {"xrpc://c.example.org"} {t:addEntry("x")})"#,
            )
            .unwrap_err();
    assert!(err.message.contains("simulated crash"), "{err}");
    for n in [&cl.a, &cl.b, &cl.c] {
        assert_eq!(log_count(&n.peer), 0, "decided, nobody told");
    }

    let report = restart(&cl.net, &mut cl.a, A_URI);
    assert_eq!(report.restored_prepared, 1, "its own promise: {report:?}");
    let resolved = cl.a.peer.resolve_in_doubt().unwrap();
    assert_eq!(resolved.resolved_committed, 1, "{resolved:?}");
    assert_eq!(resolved.redelivered, 1, "{resolved:?}");
    assert_eq!(
        cl.a.peer.twopc_metrics.snapshot().inquiries,
        0,
        "the originator asks itself by function call"
    );
    let again = cl.a.peer.resolve_in_doubt().unwrap();
    assert_eq!(
        (again.resolved_committed, again.redelivered, again.lsn_skips),
        (0, 0, 0),
        "{again:?}"
    );
    for n in [&cl.a, &cl.b, &cl.c] {
        assert_eq!(log_count(&n.peer), 1, "exactly once");
        assert_eq!(n.peer.snapshots.active_count(), 0);
        assert_eq!(n.peer.wal().unwrap().open_transactions(), 0);
    }
}

// ---------------------------------------------------------------------
// One-phase commit: b holds the only ∆ and decides alone, in one edge
// ---------------------------------------------------------------------

/// Arm `point` at b, run the one-writer update, restart b from its log and
/// let everyone resolve: the ∆ lands exactly `applied` times and nothing is
/// left in doubt or open. b died without answering, so the coordinator
/// could only report the outcome unknown — never an abort.
fn one_phase_crash(point: &str, applied: usize) -> xrpc_peer::RecoveryReport {
    let mut cl = cluster("one-phase");
    cl.b.switch.arm(point);
    let err = cl.a.peer.execute(UPDATE_B).unwrap_err();
    assert_eq!(err.code, "XRPC0006", "{point}: {err}");
    assert!(cl.b.switch.is_down(), "{point} fired");
    let report = restart(&cl.net, &mut cl.b, B_URI);
    for n in [&cl.a, &cl.b] {
        n.peer.resolve_in_doubt().unwrap();
    }
    assert_eq!(log_count(&cl.b.peer), applied, "{point}: {report:?}");
    assert_eq!(log_count(&cl.c.peer), 0);
    assert_eq!(cl.b.peer.snapshots.active_count(), 0, "{point}");
    assert_eq!(cl.b.peer.wal().unwrap().open_transactions(), 0, "{point}");
    assert_eq!(cl.a.peer.coord.committed_entries(), 0);
    report
}

#[test]
fn one_phase_crash_before_the_log_leaves_nothing() {
    // nothing durable, no answer: the coordinator cannot tell this from a
    // lost acknowledgement, so it says "unknown", never "aborted"
    let report = one_phase_crash(crash_points::BEFORE_PREPARE_LOG, 0);
    assert_eq!(report, xrpc_peer::RecoveryReport::default());
}

#[test]
fn one_phase_crash_after_the_forced_decision_reapplies_once() {
    let report = one_phase_crash(crash_points::AFTER_DECISION_LOG, 1);
    assert_eq!((report.reapplied, report.lsn_skips), (1, 0), "{report:?}");
}

#[test]
fn one_phase_crash_between_apply_and_marker_is_stopped_by_the_mark() {
    let report = one_phase_crash(crash_points::AFTER_APPLY_BEFORE_MARKER, 1);
    assert_eq!((report.reapplied, report.lsn_skips), (1, 1), "{report:?}");
}

#[test]
fn one_phase_commit_whose_answer_is_lost_is_unknown_and_committed() {
    let report = one_phase_crash(crash_points::AFTER_ONE_PHASE_COMMIT, 1);
    assert_eq!(report.reapplied, 0, "closed before the crash: {report:?}");
}

/// The coordinator dies with its one-phase commit in flight — the call
/// that commits on its reply, or the `CommitOnePhase` after a call that was
/// not the query's tail: the restart finds the begin record and nothing
/// after it, and the re-abort sweep tells b to abort — which a b that
/// committed acknowledges, a b that holds the ∆ takes, and a b that never
/// heard of the query acknowledges too.
#[test]
fn coordinator_crash_with_one_phase_in_flight_is_settled_by_the_reabort_sweep() {
    use xrpc_net::SimFault::{DropRequest as Lost, LatencySpike};
    // the call goes through; every attempt of the commit after it (two
    // deliveries of two transport tries each) is lost on the way out
    let commit_lost = [LatencySpike(Duration::ZERO), Lost, Lost, Lost, Lost];
    // (query, faults on b's link, b committed, b took the abort)
    let cases: [(&str, &[_], bool, bool); 4] = [
        (UPDATE_B, &[], true, false),
        (UPDATE_B, &[Lost], false, false),
        (UPDATE_B_THEN_DONE, &[], true, false),
        (UPDATE_B_THEN_DONE, &commit_lost, false, true),
    ];
    for (query, faults, committed, took_abort) in cases {
        let case = format!("{query} after {faults:?}");
        let mut cl = cluster("one-phase-coord");
        cl.a.switch.arm(crash_points::COORD_ONE_PHASE_IN_FLIGHT);
        cl.net.inject_fault_script(B_URI, faults.iter().copied());
        let err = cl.a.peer.execute(query).unwrap_err();
        assert!(err.message.contains("simulated crash"), "{case}: {err}");
        assert_eq!(log_count(&cl.b.peer), usize::from(committed), "{case}");

        restart(&cl.net, &mut cl.a, A_URI);
        let resolved = cl.a.peer.resolve_in_doubt().unwrap();
        assert_eq!(resolved.reaborted, 1, "{case}: {resolved:?}");
        let b = cl.b.peer.twopc_metrics.snapshot();
        let want = (u64::from(committed), u64::from(took_abort));
        assert_eq!((b.commits, b.aborts), want, "{case}");
        assert_eq!(log_count(&cl.b.peer), usize::from(committed), "untouched");
        assert_eq!(cl.b.peer.snapshots.active_count(), 0);
        assert_eq!(cl.a.peer.wal().unwrap().open_transactions(), 0);
    }
}

// ---------------------------------------------------------------------
// Trace-based post-mortem: the exported spans alone reconstruct the
// timeline of a crashed-and-recovered transaction
// ---------------------------------------------------------------------

/// Crash the coordinator after its forced commit record, recover, and
/// reconstruct the transaction's full timeline — prepare, WAL forces,
/// the crash point, the in-doubt inquiry (against a dead then a revived
/// coordinator), and the decision redelivery — purely from the JSON
/// span exports of every tracer involved, stitched by one shared trace
/// id. The trace id is a deterministic function of the queryId, so the
/// pre-crash coordinator, the restarted coordinator (a brand-new peer
/// object), and both participants agree on it without coordination.
#[test]
fn exported_spans_reconstruct_crashed_transaction_timeline() {
    let mut cl = cluster("trace-timeline");
    cl.a.switch.arm(crash_points::COORD_AFTER_COMMIT_LOG);

    // the pre-crash coordinator's tracer dies with the peer object on
    // restart: keep a handle, as an external span collector would
    let a_pre = cl.a.peer.tracer.clone();
    let err = cl.a.peer.execute(UPDATE_BOTH).unwrap_err();
    assert!(err.message.contains("simulated crash"), "{err}");

    // while the coordinator is down, the in-doubt participant's inquiry
    // goes nowhere — recorded as an unreachable-outcome recovery span
    let r = cl.b.peer.resolve_in_doubt().unwrap();
    assert_eq!(r.still_in_doubt, 1);

    restart(&cl.net, &mut cl.a, A_URI);
    // b resolves by inquiry; c is converged by the coordinator's
    // redelivery pass
    let rb = cl.b.peer.resolve_in_doubt().unwrap();
    assert_eq!(rb.resolved_committed, 1);
    let ra = cl.a.peer.resolve_in_doubt().unwrap();
    assert_eq!(ra.redelivered, 1);
    assert_eq!(log_count(&cl.b.peer), 1);
    assert_eq!(log_count(&cl.c.peer), 1);

    // ---- reconstruction, from exported spans alone ----
    let root = a_pre
        .finished()
        .into_iter()
        .find(|s| s.name == "execute")
        .expect("pre-crash coordinator recorded the execute root");
    let hex = format!("{:032x}", root.trace_id);
    let exported = [
        a_pre.export_json(),
        cl.a.peer.tracer.export_json(),
        cl.b.peer.tracer.export_json(),
        cl.c.peer.tracer.export_json(),
    ]
    .concat();
    let trace_lines: Vec<&str> = exported.lines().filter(|l| l.contains(&hex)).collect();

    let has = |name: &str, frag: &str| {
        trace_lines
            .iter()
            .any(|l| l.contains(&format!("\"name\":\"{name}\"")) && l.contains(frag))
    };
    // prepare phase: both participants promised, each forcing a
    // Prepared record
    assert!(has("2pc:prepare", "\"peer\":\"xrpc://b.example.org\""));
    assert!(has("2pc:prepare", "\"peer\":\"xrpc://c.example.org\""));
    assert!(has("wal:force", "\"record\":\"prepared\""));
    assert!(has(
        "2pc:prepare-phase",
        "\"peer\":\"xrpc://a.example.org\""
    ));
    // commit point: the coordinator forced its commit record...
    assert!(has("wal:force", "\"record\":\"coordinator-commit\""));
    // ...then died at the instrumented point, visible on the span
    assert!(has(
        "2pc:decision-phase",
        "\"crash_point\":\"coordinator:after-commit-log-before-delivery\""
    ));
    // in-doubt resolution: one inquiry against the dead coordinator,
    // one against the revived coordinator that answers Committed
    assert!(has("recovery:inquire", "\"outcome\":\"unreachable\""));
    assert!(has("recovery:inquire", "\"outcome\":\"Committed\""));
    assert!(has("2pc:inquire", "\"outcome\":\"Committed\""));
    // redelivery: the restarted coordinator re-told every participant,
    // and the laggard applied the commit
    assert!(has("recovery:redeliver", "\"delivered\":\"all\""));
    assert!(has("2pc:commit", "\"peer\":\"xrpc://c.example.org\""));

    // the exports order the timeline: the prepare promise precedes the
    // post-restart redelivery in wall-clock start order
    let start_of = |name: &str| -> u64 {
        trace_lines
            .iter()
            .filter(|l| l.contains(&format!("\"name\":\"{name}\"")))
            .map(|l| {
                let i = l.find("\"start_micros\":").unwrap() + "\"start_micros\":".len();
                l[i..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect::<String>()
            })
            .map(|d| d.parse::<u64>().unwrap())
            .min()
            .unwrap()
    };
    assert!(start_of("2pc:prepare") <= start_of("recovery:redeliver"));
}

// ---------------------------------------------------------------------
// WAL self-verification at the integration level
// ---------------------------------------------------------------------

#[test]
fn torn_wal_tail_is_detected_and_recovery_uses_last_intact_record() {
    let mut cl = cluster("torn-tail");
    cl.b.switch.arm(crash_points::AFTER_PREPARE_ACK);
    assert!(cl.a.peer.execute(UPDATE_BOTH).is_err());

    // Simulate a torn write: garbage bytes at the tail of b's log, after
    // the intact Prepared record.
    {
        use std::io::{Seek, SeekFrom, Write};
        let log = cl.b.wal_path.join("log");
        // a torn write lands at the write head — the end of the frame
        // chain — not at the physical end of the file, which under
        // group commit extends further with preallocated zeros
        let buf = std::fs::read(&log).unwrap();
        let mut pos = 8; // past the log's magic
        while let Some(h) = buf.get(pos..pos + 8) {
            let len = u32::from_le_bytes(h[0..4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(h[4..8].try_into().unwrap());
            if len == 0 && crc == 0 {
                break;
            }
            pos += 8 + len;
        }
        let mut f = std::fs::OpenOptions::new().write(true).open(log).unwrap();
        f.seek(SeekFrom::Start(pos as u64)).unwrap();
        f.write_all(&[0x13, 0x37, 0xde, 0xad, 0xbe]).unwrap();
    }
    let report = restart(&cl.net, &mut cl.b, B_URI);
    assert!(report.tail_damaged, "CRC must flag the torn tail");
    assert_eq!(
        report.restored_prepared, 1,
        "records before the tear replay normally"
    );
    let resolved = cl.b.peer.resolve_in_doubt().unwrap();
    assert_eq!(resolved.resolved_committed, 1);
    assert_eq!(log_count(&cl.b.peer), 1);
}

// ---------------------------------------------------------------------
// LSN-idempotent apply, compaction, group commit and the re-abort
// sweep, each at its dedicated crash point
// ---------------------------------------------------------------------

/// The crash window the applied-LSN mark exists for: b applies ∆_q and
/// dies *before* forcing the `Applied` marker. The restarted peer's log
/// says "committed, not yet applied" — without the mark, recovery would
/// apply ∆_q a second time.
#[test]
fn crash_between_apply_and_marker_skips_reapply_by_lsn() {
    let mut cl = cluster("apply-no-marker");
    cl.b.switch.arm(crash_points::AFTER_APPLY_BEFORE_MARKER);

    let err = cl.a.peer.execute(UPDATE_BOTH).unwrap_err();
    assert!(err.message.contains("commit undeliverable"), "{err}");
    assert_eq!(
        log_count(&cl.b.peer),
        1,
        "∆ was applied before the crash, marker never written"
    );
    assert_eq!(log_count(&cl.c.peer), 1);

    // Replay sees Prepared + Commit but no Applied marker; the durable
    // applied-LSN mark on the store is what stops the second apply.
    let report = restart(&cl.net, &mut cl.b, B_URI);
    assert_eq!(report.reapplied, 1, "recovery walked the reapply path");
    assert_eq!(
        report.lsn_skips, 1,
        "…but the applied-LSN mark suppressed the duplicate ∆"
    );
    assert_eq!(log_count(&cl.b.peer), 1, "exactly once, not twice");
    cl.b.peer.resolve_in_doubt().unwrap();
    assert_eq!(log_count(&cl.b.peer), 1);
    assert_eq!(cl.b.peer.wal().unwrap().open_transactions(), 0);
}

/// Coordinator crash after `CoordinatorBegin` but before the commit
/// record: presumed abort already keeps the data safe, but the restarted
/// coordinator's re-abort sweep must *proactively* tell both prepared
/// participants, releasing their locks without waiting for each one's
/// own inquiry timeout.
#[test]
fn reabort_sweep_releases_participants_after_coordinator_crash() {
    let mut cl = cluster("reabort-sweep");
    cl.a.switch.arm(crash_points::COORD_BEFORE_COMMIT_LOG);

    let err = cl.a.peer.execute(UPDATE_BOTH).unwrap_err();
    assert!(err.message.contains("simulated crash"), "{err}");
    assert_eq!(
        cl.b.peer.snapshots.prepared_undecided(Duration::ZERO).len(),
        1,
        "b is parked in doubt"
    );

    // Only the coordinator acts: no participant-side resolve_in_doubt.
    let report = restart(&cl.net, &mut cl.a, A_URI);
    assert_eq!(report.restored_prepared, 0);
    let resolved = cl.a.peer.resolve_in_doubt().unwrap();
    assert_eq!(resolved.reaborted, 1, "sweep re-aborted the coordination");
    assert_eq!(cl.a.peer.twopc_metrics.snapshot().reaborts, 1);
    for n in [&cl.b, &cl.c] {
        assert_eq!(
            n.peer.snapshots.prepared_undecided(Duration::ZERO).len(),
            0,
            "sweep released the participant without an inquiry"
        );
        assert_eq!(log_count(&n.peer), 0);
        assert_eq!(n.peer.twopc_metrics.snapshot().aborts, 1);
    }
    // the advisory CoordinatorEnd closed the obligation: log quiesces
    assert_eq!(cl.a.peer.wal().unwrap().open_transactions(), 0);

    // a second sweep is a no-op — the entry was consumed
    let again = cl.a.peer.resolve_in_doubt().unwrap();
    assert_eq!(again.reaborted, 0);
}

/// A long-lived prepared transaction must not let the log grow without
/// bound: compaction copies the still-open transaction's records forward
/// and drops everything else, keeping bytes bounded while dozens of
/// later transactions come and go.
#[test]
fn rotation_bounds_log_growth_with_long_lived_prepared_txn() {
    let mut cl = cluster("rotation-bounds");
    // Pin a prepared-undecided transaction at b and c by killing the
    // coordinator before its commit record…
    cl.a.switch.arm(crash_points::COORD_BEFORE_COMMIT_LOG);
    assert!(cl.a.peer.execute(UPDATE_BOTH).is_err());
    // …then restart the coordinator but *never* resolve, so b's Prepared
    // record must survive every subsequent rotation.
    restart(&cl.net, &mut cl.a, A_URI);

    for _ in 0..30 {
        cl.a.peer.execute(UPDATE_BOTH).unwrap();
    }

    let wal = cl.b.peer.wal().unwrap();
    let stats = wal.stats();
    assert!(
        stats.rotations >= 3,
        "2 KiB threshold must rotate under 30 updates: {stats:?}"
    );
    assert!(
        stats.copy_forward_records >= stats.rotations,
        "the pinned txn is copied forward on every rotation: {stats:?}"
    );
    assert!(
        stats.log_bytes < 8192,
        "log stays bounded near the rotate threshold: {stats:?}"
    );

    // The copied-forward Prepared record still recovers, with its ∆
    // intact, after all that churn.
    let report = restart(&cl.net, &mut cl.b, B_URI);
    assert_eq!(report.restored_prepared, 1);
    assert_eq!(log_count(&cl.b.peer), 30);
    let resolved = cl.b.peer.resolve_in_doubt().unwrap();
    assert_eq!(resolved.resolved_aborted, 1, "presumed abort still answers");
    assert_eq!(log_count(&cl.b.peer), 30, "the pinned txn's ∆ never lands");
    assert_eq!(log_count(&cl.c.peer), 30, "c's pinned ∆ never lands either");
}

/// Crash in the middle of a compaction: `log.next` is forced but was
/// never renamed over `log`, so the restart removes it and replays the
/// old log whole — every surviving record exactly once.
#[test]
fn crash_mid_compaction_replays_the_old_log_exactly_once() {
    let mut cl = cluster("mid-compaction");
    // Pin an open transaction at b so a compaction always copies forward.
    cl.a.switch.arm(crash_points::COORD_BEFORE_COMMIT_LOG);
    assert!(cl.a.peer.execute(UPDATE_BOTH).is_err());
    restart(&cl.net, &mut cl.a, A_URI);

    // Pump updates until b dies at the armed mid-compaction point.
    cl.b.switch.arm(crash_points::WAL_MID_ROTATION);
    let mut crashed = false;
    for _ in 0..60 {
        if cl.a.peer.execute(UPDATE_BOTH).is_err() {
            crashed = true;
            break;
        }
    }
    assert!(
        crashed,
        "2 KiB threshold must trigger a compaction within 60 txns"
    );
    assert!(cl.b.switch.is_down());
    assert!(cl.b.wal_path.join("log.next").exists());

    let before = log_count(&cl.b.peer);
    let report = restart(&cl.net, &mut cl.b, B_URI);
    assert!(
        report.restored_prepared >= 1,
        "the pinned txn survives the torn compaction: {report:?}"
    );
    assert!(!cl.b.wal_path.join("log.next").exists());
    assert!(
        log_count(&cl.b.peer) <= before + 1,
        "replay of the old log applies nothing twice \
         (before={before}, after={})",
        log_count(&cl.b.peer)
    );

    // Drive everyone to quiescence and check convergence: every
    // committed ∆ lands exactly once, the pinned aborted txn at neither.
    for _ in 0..4 {
        let _ = cl.a.peer.resolve_in_doubt();
        let _ = cl.b.peer.resolve_in_doubt();
        let _ = cl.c.peer.resolve_in_doubt();
    }
    assert_eq!(
        cl.b.peer.snapshots.prepared_undecided(Duration::ZERO).len(),
        0
    );
    assert_eq!(
        cl.c.peer.snapshots.prepared_undecided(Duration::ZERO).len(),
        0
    );
    let nb = log_count(&cl.b.peer);
    let nc = log_count(&cl.c.peer);
    assert_eq!(nb, nc, "recovery converged both participants");
}

/// Group commit must not weaken durability: a follower whose record is
/// written but whose batch leader never fsynced (crash at the
/// instrumented point) recovers to a consistent outcome — the record
/// either survived (prepared, resolvable) or tore off (presumed abort).
/// Only meaningful under `CHAOS_FSYNC=always`, where group commit is
/// actually forcing.
#[test]
fn group_commit_crash_before_fsync_recovers_consistently() {
    if !matches!(chaos_fsync(), FsyncPolicy::Always) {
        return; // covered by the recovery-chaos-fsync CI job
    }
    let mut cl = cluster("group-fsync");
    cl.b.switch.arm(crash_points::WAL_GROUP_FSYNC);

    let err = cl.a.peer.execute(UPDATE_BOTH).unwrap_err();
    assert!(err.message.contains("aborted"), "{err}");

    let report = restart(&cl.net, &mut cl.b, B_URI);
    // The record may or may not have reached disk; both ends are safe.
    assert!(report.restored_prepared <= 1);
    let _ = cl.b.peer.resolve_in_doubt();
    assert_eq!(log_count(&cl.b.peer), 0);
    assert_eq!(log_count(&cl.c.peer), 0);
    assert_eq!(
        cl.b.peer.snapshots.prepared_undecided(Duration::ZERO).len(),
        0
    );
}

// ---------------------------------------------------------------------
// Crash-restart over the real wire: the epoll-reactor HTTP server
// instead of SimNetwork. Runs under every CHAOS_SEED of the CI matrix.
// ---------------------------------------------------------------------

/// The WAL recovery invariant must survive the event-driven network
/// core, not only the simulated transport: a participant served by the
/// reactor [`HttpServer`] dies after forcing its Commit decision record
/// (decided, not yet applied), the server socket goes away with the
/// process, and the restarted peer — rebinding the *same* port via the
/// reactor's `SO_REUSEADDR` listener — finishes the transaction from
/// the log exactly once, then serves fresh traffic on the same address.
fn http_wal_path() -> std::path::PathBuf {
    let run = RUN_ID.fetch_add(1, Ordering::Relaxed);
    let wal_path = std::env::temp_dir().join(format!(
        "xrpc-recovery-http-{}-{run}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&wal_path);
    wal_path
}

/// Participant b over real HTTP, logging to `wal_path`.
fn http_participant(wal_path: &std::path::Path) -> (Arc<Peer>, Arc<CrashSwitch>, HttpServer) {
    let b = Peer::new("placeholder-b", EngineKind::Tree);
    b.register_module(CHAOS_MODULE).unwrap();
    b.add_document("log.xml", "<log/>").unwrap();
    b.attach_wal_with(wal_path, chaos_wal_config()).unwrap();
    let b_switch = CrashSwitch::new();
    b.set_crash_switch(b_switch.clone());
    b.set_twopc_config(fast_twopc());
    // a down crash switch means the process is dead: refuse everything,
    // including the coordinator's decision redelivery — otherwise the
    // retry would legitimately finish the transaction with no restart
    let server = HttpServer::bind("127.0.0.1:0", {
        let h = b.soap_handler();
        let sw = b_switch.clone();
        Arc::new(move |_path: &str, body: &[u8]| {
            if sw.is_down() {
                return (503, b"peer crashed".to_vec());
            }
            (200, h(body))
        })
    })
    .unwrap();
    b.set_name(server.url());
    (b, b_switch, server)
}

/// Coordinator a over the real HTTP client stack, and the one-writer
/// update it sends b.
fn http_coordinator(b_url: &str) -> (Arc<Peer>, String) {
    let a = Peer::new("xrpc://http-chaos-coordinator", EngineKind::Tree);
    a.register_module(CHAOS_MODULE).unwrap();
    a.set_twopc_config(fast_twopc());
    a.set_transport_raw(ResilientTransport::with_policy(
        Arc::new(HttpTransport::new()),
        fast_policy(),
        BreakerConfig::default(),
    ));
    let update = format!(
        r#"declare option xrpc:isolation "repeatable";
           import module namespace t = "test";
           execute at {{"{b_url}"}} {{t:addEntry("over-http")}}"#
    );
    (a, update)
}

#[test]
fn http_reactor_crash_restart_recovers_exactly_once() {
    let wal_path = http_wal_path();
    let (b, b_switch, mut server) = http_participant(&wal_path);
    let port = server.port();
    let (a, update) = http_coordinator(&server.url());

    // one clean distributed update over the reactor before any fault
    a.execute(&update).unwrap();
    assert_eq!(log_count(&b), 1);

    // b holds the only ∆ and commits in one phase: it dies after forcing
    // Decision(Commit), before applying ∆_q. Over HTTP the armed crash
    // surfaces as a SOAP fault on the CommitOnePhase (unlike SimNetwork,
    // which suppresses the response) — raised past the guard, so an
    // outcome-unknown one: the coordinator retries into the dead peer and
    // reports the outcome unknown, never an abort
    b_switch.arm(crash_points::AFTER_DECISION_LOG);
    let err = a.execute(&update).unwrap_err();
    assert_eq!(err.code, "XRPC0006", "{err}");
    assert_eq!(log_count(&b), 1, "decided but not yet applied");

    // the process dies: the listener goes with it
    server.shutdown_graceful(Duration::from_secs(5));
    drop(server);

    // restart: same document store, same WAL, same port
    let b2 = Peer::new_with_docs("placeholder-b", EngineKind::Tree, b.docs.clone());
    b2.register_module(CHAOS_MODULE).unwrap();
    b_switch.revive();
    b2.set_crash_switch(b_switch.clone());
    b2.set_twopc_config(fast_twopc());
    let report = b2.attach_wal_with(&wal_path, chaos_wal_config()).unwrap();
    assert_eq!(
        report.reapplied, 1,
        "replay finishes the decided transaction from the log: {report:?}"
    );
    assert_eq!(log_count(&b2), 2, "exactly once, not twice");

    let server2 = HttpServer::bind(&format!("127.0.0.1:{port}"), {
        let h = b2.soap_handler();
        Arc::new(move |_path: &str, body: &[u8]| (200, h(body)))
    })
    .expect("SO_REUSEADDR listener must rebind the crashed server's port");
    assert_eq!(server2.port(), port);
    b2.set_name(server2.url());
    b2.resolve_in_doubt().unwrap();
    assert_eq!(b2.wal().unwrap().open_transactions(), 0);

    // fresh traffic flows on the same address, exactly-once intact
    a.execute(&update).unwrap();
    assert_eq!(log_count(&b2), 3);

    drop(server2);
    let _ = std::fs::remove_dir_all(&wal_path);
}

/// Every participant crash point of the one-phase edge, over HTTP, where
/// the crash answers with the SOAP fault its handler returned: only a
/// fault raised before anything is logged reads as an abort; from the
/// forced decision on, the coordinator hears outcome-unknown, retries into
/// the dead peer and reports the outcome unknown. Restarted from its log,
/// b agrees with what the client was told: ∆ applied exactly when the
/// commit was logged, nothing left open.
#[test]
fn http_one_phase_faults_after_the_decision_are_never_aborts() {
    for (point, logged) in [
        (crash_points::BEFORE_PREPARE_LOG, false),
        (crash_points::AFTER_DECISION_LOG, true),
        (crash_points::AFTER_APPLY_BEFORE_MARKER, true),
        (crash_points::AFTER_ONE_PHASE_COMMIT, true),
    ] {
        let wal_path = http_wal_path();
        let (b, b_switch, mut server) = http_participant(&wal_path);
        let (a, update) = http_coordinator(&server.url());
        b_switch.arm(point);
        let err = a.execute(&update).unwrap_err();
        if logged {
            assert_eq!(err.code, "XRPC0006", "{point}: {err}");
        } else {
            assert!(
                err.message.contains("transaction aborted"),
                "{point}: {err}"
            );
        }
        server.shutdown_graceful(Duration::from_secs(5));
        drop(server);

        let b2 = Peer::new_with_docs("placeholder-b", EngineKind::Tree, b.docs.clone());
        b2.attach_wal_with(&wal_path, chaos_wal_config()).unwrap();
        assert_eq!(log_count(&b2), usize::from(logged), "{point}");
        assert_eq!(b2.wal().unwrap().open_transactions(), 0, "{point}");
        let _ = std::fs::remove_dir_all(&wal_path);
    }
}

// ---------------------------------------------------------------------
// Property-style invariant checker: seeded fault schedules, every prefix
// replayed, failures shrunk to the shortest failing schedule.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Target {
    A,
    B,
    C,
}

type Op = (Target, &'static str);

/// Not a crash point: the next reply from b is lost on the way back — for
/// [`UPDATE_B`] the reply of the call that committed.
const DROP_REPLY: &str = "net:drop-next-reply";

/// The full fault universe: every instrumented crash point on the peer
/// that can reach it in a `b + c` update coordinated by `a` (2PC) or a
/// `b`-only one (one-phase commit), and a lost reply. A point the round's
/// protocol never passes stays armed and harmless.
const UNIVERSE: &[Op] = &[
    (Target::B, DROP_REPLY),
    (Target::B, crash_points::BEFORE_PREPARE_LOG),
    (Target::B, crash_points::AFTER_PREPARE_ACK),
    (Target::B, crash_points::AFTER_DECISION_LOG),
    (Target::C, crash_points::BEFORE_PREPARE_LOG),
    (Target::C, crash_points::AFTER_PREPARE_ACK),
    (Target::C, crash_points::AFTER_DECISION_LOG),
    (Target::A, crash_points::COORD_BEFORE_COMMIT_LOG),
    (Target::A, crash_points::COORD_AFTER_COMMIT_LOG),
    (Target::B, crash_points::AFTER_APPLY_BEFORE_MARKER),
    (Target::C, crash_points::AFTER_APPLY_BEFORE_MARKER),
    (Target::B, crash_points::WAL_MID_ROTATION),
    (Target::B, crash_points::AFTER_ONE_PHASE_COMMIT),
    (Target::A, crash_points::COORD_ONE_PHASE_IN_FLIGHT),
];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn gen_schedule(rng: &mut u64) -> Vec<Op> {
    let len = 1 + (splitmix64(rng) % 3) as usize;
    (0..len)
        .map(|_| UNIVERSE[(splitmix64(rng) % UNIVERSE.len() as u64) as usize])
        .collect()
}

/// The updates every schedule runs under: 2PC at b and c, and a lone
/// writer at b committing on its call's reply or with a `CommitOnePhase`.
const SHAPES: [&str; 3] = [UPDATE_BOTH, UPDATE_B, UPDATE_B_THEN_DONE];

/// Run one schedule against a fresh cluster: arm every fault, fire the
/// distributed update `shape`, then drive restart + recovery rounds until
/// the cluster quiesces. Returns a violation description, or None.
fn run_schedule(schedule: &[Op], shape: &str) -> Option<String> {
    let mut cl = cluster("prop");
    for (t, point) in schedule {
        if *point == DROP_REPLY {
            cl.net.inject_fault(B_URI, xrpc_net::SimFault::DropResponse);
            continue;
        }
        let sw = match t {
            Target::A => &cl.a.switch,
            Target::B => &cl.b.switch,
            Target::C => &cl.c.switch,
        };
        sw.arm(point);
    }
    let outcome = cl.a.peer.execute(shape);

    // Recovery rounds: restart whoever is down, then let everyone
    // resolve. Armed points can fire *again* during recovery (a schedule
    // may kill the same peer at a later point too), hence the loop.
    for _ in 0..6 {
        if cl.a.switch.is_down() {
            restart(&cl.net, &mut cl.a, A_URI);
        }
        if cl.b.switch.is_down() {
            restart(&cl.net, &mut cl.b, B_URI);
        }
        if cl.c.switch.is_down() {
            restart(&cl.net, &mut cl.c, C_URI);
        }
        let _ = cl.a.peer.resolve_in_doubt();
        let _ = cl.b.peer.resolve_in_doubt();
        let _ = cl.c.peer.resolve_in_doubt();
        let quiescent = !cl.a.switch.is_down()
            && !cl.b.switch.is_down()
            && !cl.c.switch.is_down()
            && cl
                .b
                .peer
                .snapshots
                .prepared_undecided(Duration::ZERO)
                .is_empty()
            && cl
                .c
                .peer
                .snapshots
                .prepared_undecided(Duration::ZERO)
                .is_empty();
        if quiescent {
            break;
        }
    }

    let nb = log_count(&cl.b.peer);
    let nc = log_count(&cl.c.peer);
    if nb != nc && !(shape != UPDATE_BOTH && nc == 0) {
        return Some(format!("mixed outcome: b={nb} entries, c={nc} entries"));
    }
    if nb > 1 {
        return Some(format!("double-applied ∆: {nb} entries at b"));
    }
    if outcome.is_ok() && nb != 1 {
        return Some(format!("reported commit but {nb} entries applied"));
    }
    if let Err(e) = &outcome {
        if e.message.contains("transaction aborted") && nb != 0 {
            return Some(format!("reported abort but {nb} entries applied: {e}"));
        }
    }
    if !cl
        .b
        .peer
        .snapshots
        .prepared_undecided(Duration::ZERO)
        .is_empty()
        || !cl
            .c
            .peer
            .snapshots
            .prepared_undecided(Duration::ZERO)
            .is_empty()
    {
        return Some("prepared transaction still in doubt after recovery".into());
    }
    None
}

/// Shrink a failing schedule by greedy element removal until no single
/// removal still fails.
fn shrink(mut schedule: Vec<Op>, shape: &str) -> Vec<Op> {
    loop {
        let mut reduced = false;
        for i in 0..schedule.len() {
            let mut candidate = schedule.clone();
            candidate.remove(i);
            if run_schedule(&candidate, shape).is_some() {
                schedule = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return schedule;
        }
    }
}

#[test]
fn prefix_replay_invariant_checker() {
    let seed: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let mut rng = seed;
    for round in 0..5 {
        let schedule = gen_schedule(&mut rng);
        // replay every prefix: an invariant must hold not only for the
        // full schedule but at every point along the way — under every
        // protocol
        for (cut, shape) in (0..=schedule.len()).flat_map(|c| SHAPES.map(|s| (c, s))) {
            let prefix = &schedule[..cut];
            if let Some(violation) = run_schedule(prefix, shape) {
                let minimal = shrink(prefix.to_vec(), shape);
                panic!(
                    "invariant violated (seed={seed}, round={round}, shape={shape}): \
                     {violation}\n\
                     failing prefix: {prefix:?}\n\
                     shrunk to shortest failing schedule: {minimal:?}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Deadline chaos: queries whose budget expires mid-flight must obey the
// same exactly-once-or-not-at-all invariant as crash schedules — the
// abort fans a Cancel out, participants drop their merged ∆s, and
// nothing is ever left prepared-undecided. Runs under every CHAOS_SEED
// of the CI matrix.
// ---------------------------------------------------------------------

#[test]
fn deadline_expiry_chaos_never_yields_mixed_outcomes() {
    let seed: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let mut rng = seed ^ 0xdead11e5;
    for round in 0..3 {
        let cl = cluster("deadline");
        let tight = splitmix64(&mut rng).is_multiple_of(2);
        let outcome = if tight {
            // the ∆s land at b and c first, then the budget burns out in
            // a local spin: the query must abort with XRPC0004 and undo
            // its footprint everywhere
            cl.a.peer.execute(
                r#"declare option xrpc:isolation "repeatable";
                   declare option xrpc:timeout "1";
                   import module namespace t = "test";
                   (execute at {"xrpc://b.example.org"} {t:addEntry("x")},
                    execute at {"xrpc://c.example.org"} {t:addEntry("x")},
                    count(for $i in (1 to 1000000)
                          for $j in (1 to 1000000)
                          where $i + $j lt 0 return 1))"#,
            )
        } else {
            cl.a.peer.execute(UPDATE_BOTH)
        };

        let nb = log_count(&cl.b.peer);
        let nc = log_count(&cl.c.peer);
        assert_eq!(
            nb, nc,
            "mixed outcome under deadline chaos (seed={seed}, round={round}, tight={tight})"
        );
        if tight {
            let err = outcome.expect_err("tight budget must abort");
            assert_eq!(err.code, "XRPC0004", "seed={seed} round={round}: {err}");
            assert_eq!(nb, 0, "cancelled ∆ must not apply (seed={seed})");
            // the Cancel fan-out released the participants' snapshots
            assert_eq!(cl.b.peer.snapshots.active_count(), 0);
            assert_eq!(cl.c.peer.snapshots.active_count(), 0);
        } else {
            outcome.unwrap_or_else(|e| panic!("roomy budget must commit (seed={seed}): {e}"));
            assert_eq!(nb, 1, "committed ∆ must apply once (seed={seed})");
        }
        assert!(
            cl.b.peer
                .snapshots
                .prepared_undecided(Duration::ZERO)
                .is_empty()
                && cl
                    .c
                    .peer
                    .snapshots
                    .prepared_undecided(Duration::ZERO)
                    .is_empty(),
            "deadline expiry must never leave prepared-undecided state"
        );
    }
}
