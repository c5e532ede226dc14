//! The SOAP XRPC message format (paper §2.1, §2.2, §3.2).
//!
//! One crate, three concerns:
//! * [`marshal`] — the `s2n()` / `n2s()` functions that turn XDM sequences
//!   into `<xrpc:sequence>` wire fragments and back, enforcing by-value
//!   semantics (fresh fragments, empty upward axes at the receiver);
//! * [`message`] — the envelopes: requests (with Bulk RPC: several
//!   `<xrpc:call>`s per request), responses (with the piggybacked
//!   participating-peer list of §2.3) and SOAP Faults, and their writers;
//! * [`decode`] — the way back: one pass over the bytes of a message.

pub mod control;
pub mod decode;
pub mod marshal;
pub mod message;

pub use control::{
    TxOutcome, Vote, METHOD_ABORT, METHOD_COMMIT, METHOD_COMMIT_ONE_PHASE, METHOD_INQUIRE,
    METHOD_PREPARE, WSAT_MODULE,
};
pub use marshal::n2s;
pub use message::{
    parse_message, FaultCode, ProfileRequest, QueryId, TraceContext, UpdCall, XrpcFault,
    XrpcMessage, XrpcRequest, XrpcResponse,
};
