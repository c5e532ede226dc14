//! The XRPC peer runtime — the integration layer that turns the substrate
//! crates into the distributed system of the paper:
//!
//! * [`peer::Peer`]: document store + module registry + engine choice
//!   (tree-walking or loop-lifted) + the XRPC request handler;
//! * [`client::XrpcClient`]: the outgoing SOAP XRPC dispatcher (the "stub
//!   code" of §3), propagating queryIDs and collecting the piggybacked
//!   participating-peer lists;
//! * [`store::SnapshotManager`]: repeatable-read isolation — per-queryID
//!   pinned snapshots with relative timeouts and expired-ID rejection
//!   (§2.2);
//! * [`twopc`]: the WS-AtomicTransaction-style Prepare/Commit/Abort
//!   protocol for atomic distributed updates (§2.3), and [`txn`]: the one
//!   state machine a transaction's life at a peer is — both roles, live
//!   and replayed;
//! * [`wrapper::XrpcWrapper`]: the §4 wrapper that lets a plain XQuery
//!   engine service Bulk XRPC by *generating an XQuery query* per request
//!   (Figure 3), with per-phase timings for Table 3.

pub mod admin;
pub mod client;
pub mod modweb;
pub mod peer;
pub mod recovery;
pub mod remote_docs;
mod serve;
pub mod store;
pub mod twopc;
pub mod txn;
pub mod wal;
pub mod wrapper;

pub use admin::{admin_handler, bind_admin, render_healthz, render_metrics, ServerMetricsSlot};
pub use client::XrpcClient;
pub use modweb::ModuleWeb;
pub use peer::{
    EngineKind, ExecOutcome, IsolationLevel, Peer, PeerStats, PreparedQuery, QueryPlan,
};
pub use recovery::{RecoveryReport, SweeperConfig, SweeperHandle};
pub use remote_docs::RemoteDocResolver;
pub use store::{Decision, SnapshotManager, TxnState};
pub use twopc::{run_two_phase_commit, CommitOutcome, TwoPcConfig, TwoPcMetrics, TwoPcSnapshot};
pub use wal::{FsyncPolicy, SequencedRecord, Wal, WalConfig, WalRecord, WalStats};
pub use wrapper::{WrapperPhases, XrpcWrapper};

/// Wall-clock milliseconds since the Unix epoch (the queryID timestamp).
pub fn now_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}
