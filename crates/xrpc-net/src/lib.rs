//! Network substrate for XRPC: a minimal HTTP/1.1 implementation over
//! `std::net` TCP (the paper's peers speak SOAP over HTTP, served by an
//! "ultra-light HTTP daemon", §3) plus a *simulated* transport with a
//! configurable latency/bandwidth model, and a resilience layer
//! ([`ResilientTransport`]) adding typed errors, deadline/retry/backoff
//! and a per-destination circuit breaker on top of either transport.
//!
//! The simulated transport exists because the reproduction has no two
//! Athlon64 boxes on 1 Gb/s Ethernet: it makes the latency-amortization
//! shapes of Tables 2–4 deterministic, and lets the ablation benches sweep
//! LAN→WAN profiles (see DESIGN.md, substitution table). Its fault
//! injection (drop-request / drop-response / corrupt / latency spike /
//! crash-restart, all deterministic) is what the chaos tests drive.

pub mod breaker;
pub mod bufpool;
pub mod cancel;
pub mod http;
pub mod metrics;
pub mod poll;
pub mod pool;
pub mod reactor;
pub mod retry;
pub mod sim;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use bufpool::{BufferPool, PoolStats};
pub use cancel::{
    ambient_deadline, current_job, defer, deferred, offer_next, on_reactor, set_ambient_deadline,
    set_current_job, INLINE_BUDGET, INLINE_BYTES,
};
pub use http::{http_post, HttpConfig, HttpServer, HttpTransport};
pub use metrics::NetMetrics;
pub use pool::{ConnectionPool, PooledConn};
pub use retry::{full_jitter, DestStats, ResilientTransport, RetryPolicy};
pub use sim::{crash_points, CrashSwitch, NetProfile, SimFault, SimNetwork, SoapHandler};

use std::fmt;

/// What went wrong at the transport level — the typed refinement of the
/// paper's blanket "any error will cause a run-time error at the site
/// that originated the query" (§2.1). The kind decides retryability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetErrorKind {
    /// The connection could not be established: no byte of the request
    /// was written, so the callee never saw it (send-side, unambiguous).
    ConnectionRefused,
    /// No response within the deadline. The request may or may not have
    /// been executed (response-side, ambiguous).
    Timeout,
    /// The connection dropped mid-exchange. Ambiguous like [`Timeout`](Self::Timeout).
    ConnectionReset,
    /// The response arrived but failed framing/integrity checks. The
    /// request *was* executed (response-side, ambiguous).
    Corrupt,
    /// The message exceeds a configured size bound; retrying the same
    /// payload cannot succeed.
    TooLarge,
    /// Anything else (bad URL, protocol violation, unknown peer, …);
    /// assumed non-transient.
    Other,
}

impl NetErrorKind {
    /// Whether a failure of this kind can ever be worth retrying
    /// (transient). Whether a *given call* may actually be retried also
    /// depends on its idempotency — see [`CallHint`] and
    /// [`retry::ResilientTransport`].
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            NetErrorKind::ConnectionRefused
                | NetErrorKind::Timeout
                | NetErrorKind::ConnectionReset
                | NetErrorKind::Corrupt
        )
    }

    /// Whether the request provably never reached the callee (so a retry
    /// can never double-execute anything).
    pub fn send_side(&self) -> bool {
        matches!(self, NetErrorKind::ConnectionRefused)
    }
}

impl fmt::Display for NetErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NetErrorKind::ConnectionRefused => "connection refused",
            NetErrorKind::Timeout => "timeout",
            NetErrorKind::ConnectionReset => "connection reset",
            NetErrorKind::Corrupt => "corrupt message",
            NetErrorKind::TooLarge => "message too large",
            NetErrorKind::Other => "error",
        };
        f.write_str(s)
    }
}

/// Transport-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetError {
    pub kind: NetErrorKind,
    pub message: String,
}

impl NetError {
    /// An untyped error ([`NetErrorKind::Other`], never retried).
    pub fn new(message: impl Into<String>) -> Self {
        NetError::with_kind(NetErrorKind::Other, message)
    }

    pub fn with_kind(kind: NetErrorKind, message: impl Into<String>) -> Self {
        NetError {
            kind,
            message: message.into(),
        }
    }

    pub fn retryable(&self) -> bool {
        self.kind.retryable()
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "network error ({}): {}", self.kind, self.message)
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind as Io;
        let kind = match e.kind() {
            Io::ConnectionRefused => NetErrorKind::ConnectionRefused,
            // a read on a socket with SO_RCVTIMEO reports WouldBlock on
            // Unix and TimedOut on Windows
            Io::TimedOut | Io::WouldBlock => NetErrorKind::Timeout,
            Io::ConnectionReset | Io::ConnectionAborted | Io::BrokenPipe | Io::UnexpectedEof => {
                NetErrorKind::ConnectionReset
            }
            _ => NetErrorKind::Other,
        };
        NetError::with_kind(kind, e.to_string())
    }
}

/// Per-call idempotency hint consulted by [`ResilientTransport`]: what a
/// redelivered request would do at the callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallHint {
    /// Read-only XRPC request — redelivery is always safe.
    ReadOnly,
    /// Updating request applied immediately at the callee (rule RFu):
    /// redelivery after an *ambiguous* failure could double-apply the
    /// update, so only provably send-side failures may be retried.
    Update,
    /// Updating request whose ∆_q is deferred to 2PC commit (rule R'Fu):
    /// redelivery before Prepare merely rebuilds the same pending update
    /// list in the same snapshot, so it is safe.
    DeferredUpdate,
}

impl CallHint {
    /// May a call with this hint be resent after failing with `err`?
    pub fn may_retry(&self, err: &NetError) -> bool {
        match self {
            CallHint::ReadOnly | CallHint::DeferredUpdate => err.retryable(),
            CallHint::Update => err.kind.send_side(),
        }
    }
}

/// A request/response transport: POST `body` to `dest`, get the response
/// body back. Implementations: [`sim::SimNetwork`] (in-process),
/// [`http::HttpTransport`] (real TCP loopback) and
/// [`retry::ResilientTransport`] (decorator adding retry/backoff and
/// circuit breaking to any of the former).
pub trait Transport: Send + Sync {
    fn roundtrip(&self, dest: &str, body: &[u8]) -> Result<Vec<u8>, NetError>;

    /// Like [`roundtrip`](Self::roundtrip) but carrying the caller's
    /// idempotency hint. Base transports ignore the hint; decorators
    /// (retry layers) consult it. The default conservatively forwards to
    /// `roundtrip`.
    fn roundtrip_hinted(
        &self,
        dest: &str,
        body: &[u8],
        hint: CallHint,
    ) -> Result<Vec<u8>, NetError> {
        let _ = hint;
        self.roundtrip(dest, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_error_kinds_map() {
        let cases = [
            (
                std::io::ErrorKind::ConnectionRefused,
                NetErrorKind::ConnectionRefused,
            ),
            (std::io::ErrorKind::TimedOut, NetErrorKind::Timeout),
            (std::io::ErrorKind::WouldBlock, NetErrorKind::Timeout),
            (
                std::io::ErrorKind::ConnectionReset,
                NetErrorKind::ConnectionReset,
            ),
            (
                std::io::ErrorKind::BrokenPipe,
                NetErrorKind::ConnectionReset,
            ),
            (
                std::io::ErrorKind::UnexpectedEof,
                NetErrorKind::ConnectionReset,
            ),
            (std::io::ErrorKind::NotFound, NetErrorKind::Other),
        ];
        for (io, net) in cases {
            let e: NetError = std::io::Error::new(io, "x").into();
            assert_eq!(e.kind, net, "{io:?}");
        }
    }

    #[test]
    fn retryability_matrix() {
        use NetErrorKind::*;
        for (kind, retryable, send_side) in [
            (ConnectionRefused, true, true),
            (Timeout, true, false),
            (ConnectionReset, true, false),
            (Corrupt, true, false),
            (TooLarge, false, false),
            (Other, false, false),
        ] {
            assert_eq!(kind.retryable(), retryable, "{kind:?}");
            assert_eq!(kind.send_side(), send_side, "{kind:?}");
        }
    }

    #[test]
    fn hint_gates_ambiguous_retries() {
        let refused = NetError::with_kind(NetErrorKind::ConnectionRefused, "x");
        let timeout = NetError::with_kind(NetErrorKind::Timeout, "x");
        let other = NetError::new("x");
        // read-only and deferred updates retry any transient failure
        for h in [CallHint::ReadOnly, CallHint::DeferredUpdate] {
            assert!(h.may_retry(&refused));
            assert!(h.may_retry(&timeout));
            assert!(!h.may_retry(&other));
        }
        // immediate updates retry only send-side failures
        assert!(CallHint::Update.may_retry(&refused));
        assert!(!CallHint::Update.may_retry(&timeout));
        assert!(!CallHint::Update.may_retry(&other));
    }

    #[test]
    fn untyped_error_is_other() {
        let e = NetError::new("legacy");
        assert_eq!(e.kind, NetErrorKind::Other);
        assert!(!e.retryable());
        assert!(e.to_string().contains("legacy"));
    }
}
