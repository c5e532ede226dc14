//! XQuery error values (`err:XPST0003` and friends), shared by every layer:
//! parser, evaluators, protocol handlers. An XRPC SOAP Fault carries one of
//! these across the wire (paper §2.1, "XRPC Error Message").

use std::fmt;

/// An XQuery error: a W3C error code plus a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XdmError {
    pub code: String,
    pub message: String,
}

pub type XdmResult<T> = Result<T, XdmError>;

impl XdmError {
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        XdmError {
            code: code.to_string(),
            message: message.into(),
        }
    }

    // Frequently used codes, named for grep-ability.

    /// XPST0003: grammar / static syntax error.
    pub fn syntax(message: impl Into<String>) -> Self {
        Self::new("XPST0003", message)
    }

    /// XPTY0004: type error.
    pub fn type_error(message: impl Into<String>) -> Self {
        Self::new("XPTY0004", message)
    }

    /// XPST0017: unknown function (name/arity).
    pub fn unknown_function(message: impl Into<String>) -> Self {
        Self::new("XPST0017", message)
    }

    /// XPST0008: undefined variable / name.
    pub fn undefined(message: impl Into<String>) -> Self {
        Self::new("XPST0008", message)
    }

    /// FORG0001: invalid value for cast.
    pub fn invalid_cast(message: impl Into<String>) -> Self {
        Self::new("FORG0001", message)
    }

    /// FOAR0001: division by zero.
    pub fn div_by_zero() -> Self {
        Self::new("FOAR0001", "division by zero")
    }

    /// FODC0002: error retrieving resource (fn:doc).
    pub fn doc_error(message: impl Into<String>) -> Self {
        Self::new("FODC0002", message)
    }

    /// FORG0006: invalid argument (e.g. EBV of a bad sequence).
    pub fn invalid_arg(message: impl Into<String>) -> Self {
        Self::new("FORG0006", message)
    }

    /// XUDY0023-ish bucket for update-related dynamic errors.
    pub fn update_error(message: impl Into<String>) -> Self {
        Self::new("XUDY0027", message)
    }

    /// XRPC-specific dynamic errors (network, marshaling, remote fault).
    /// The paper does not assign W3C codes; we use a vendor code.
    pub fn xrpc(message: impl Into<String>) -> Self {
        Self::new("XRPC0001", message)
    }

    /// XRPC isolation violation: queryID expired or unknown (paper §2.2).
    pub fn xrpc_expired(message: impl Into<String>) -> Self {
        Self::new("XRPC0002", message)
    }

    /// XRPC durability fault: the write-ahead log can no longer promise
    /// stable storage (append/fsync failure, poisoned log). Distinct from
    /// XRPC0001 so callers can fail prepares fast instead of retrying.
    pub fn xrpc_durability(message: impl Into<String>) -> Self {
        Self::new("XRPC0003", message)
    }

    /// XRPC deadline exceeded: the query's wall-clock budget (derived from
    /// `xrpc:timeout`) ran out. Every layer that enforces the budget —
    /// evaluator checkpoints, arrival checks, retry caps — raises this
    /// code so the originator can tell a timeout from a remote crash.
    pub fn xrpc_deadline(message: impl Into<String>) -> Self {
        Self::new("XRPC0004", message)
    }

    /// XRPC cooperative cancellation: the query was explicitly cancelled
    /// (client connection died, originator fan-out, admin action) rather
    /// than timing out. Never retried.
    pub fn xrpc_cancelled(message: impl Into<String>) -> Self {
        Self::new("XRPC0005", message)
    }

    /// XRPC outcome unknown: a one-phase commit's participant could not be
    /// reached to the end of the retry budget and may have committed.
    /// Never to be read as an abort.
    pub fn xrpc_outcome_unknown(message: impl Into<String>) -> Self {
        Self::new("XRPC0006", message)
    }

    /// XRPC deferred: a request answered on the server's reactor thread
    /// tried to send a message, which that thread never waits on. The
    /// request goes to a worker thread instead, so the code never reaches
    /// a caller; never retried.
    pub fn xrpc_deferred(message: impl Into<String>) -> Self {
        Self::new("XRPC0007", message)
    }
}

impl fmt::Display for XdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for XdmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code() {
        let e = XdmError::type_error("boom");
        assert_eq!(e.to_string(), "[XPTY0004] boom");
    }

    #[test]
    fn constructors_set_expected_codes() {
        assert_eq!(XdmError::syntax("x").code, "XPST0003");
        assert_eq!(XdmError::div_by_zero().code, "FOAR0001");
        assert_eq!(XdmError::xrpc("x").code, "XRPC0001");
        assert_eq!(XdmError::xrpc_expired("x").code, "XRPC0002");
        assert_eq!(XdmError::xrpc_durability("x").code, "XRPC0003");
        assert_eq!(XdmError::xrpc_deadline("x").code, "XRPC0004");
        assert_eq!(XdmError::xrpc_cancelled("x").code, "XRPC0005");
        assert_eq!(XdmError::xrpc_outcome_unknown("x").code, "XRPC0006");
        assert_eq!(XdmError::xrpc_deferred("x").code, "XRPC0007");
    }
}
