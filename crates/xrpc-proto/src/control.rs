//! WS-AtomicTransaction control vocabulary (paper §2.3).
//!
//! Coordination messages are ordinary XRPC requests against the reserved
//! module namespace [`WSAT_MODULE`] — "XRPC systems must implement support
//! for these web service interfaces ... over the same HTTP SOAP server
//! that runs XRPC". This module owns the method names and the encoding of
//! the [`Prepare`](METHOD_PREPARE) and [`Inquire`](METHOD_INQUIRE) replies
//! so every crate (peer runtime, recovery manager, chaos harnesses) speaks
//! the same vocabulary.

use crate::message::XrpcResponse;
use xdm::{Item, Sequence};

/// Reserved module namespace for coordination messages.
pub const WSAT_MODULE: &str = "urn:ws-atomictransaction";

/// The reply carries a [`Vote`].
pub const METHOD_PREPARE: &str = "Prepare";
pub const METHOD_COMMIT: &str = "Commit";
/// The one participant holding a ∆ decides alone: it logs and applies ∆_q
/// and acknowledges (committed), refuses before logging anything
/// (aborted), or faults outcome-unknown (`XRPC0006`) after. An extension,
/// like `Inquire` and `Cancel`: a peer without it refuses, and the
/// transaction aborts.
pub const METHOD_COMMIT_ONE_PHASE: &str = "CommitOnePhase";
pub const METHOD_ABORT: &str = "Abort";
/// Outcome inquiry: a restarted participant holding a prepared ∆_q asks
/// the recorded coordinator what was decided. The reply carries a
/// [`TxOutcome`] as a string item in the first result sequence.
pub const METHOD_INQUIRE: &str = "Inquire";
/// Best-effort cancellation fan-out: the originator of a timed-out or
/// abandoned query tells destination peers to stop evaluating it and
/// release its isolated state. Participants that already acknowledged a
/// `Prepare` ignore the release — past that point of no return only the
/// decision protocol ([`METHOD_COMMIT`]/[`METHOD_ABORT`]/inquiry) may
/// settle the transaction. Idempotent; losing one is harmless (the
/// receiver's own deadline sweep catches up).
pub const METHOD_CANCEL: &str = "Cancel";

/// Every control method.
pub const METHODS: [&str; 6] = [
    METHOD_PREPARE,
    METHOD_COMMIT,
    METHOD_COMMIT_ONE_PHASE,
    METHOD_ABORT,
    METHOD_INQUIRE,
    METHOD_CANCEL,
];

/// A participant's answer to `Prepare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vote {
    /// ∆_q is logged and held for the decision: an empty result sequence,
    /// the reply every Prepare had before there were votes.
    Prepared,
    /// The ∆ was empty: nothing promised, nothing held, and no decision
    /// needed — the coordinator leaves this participant out of phase 2.
    ReadOnly,
}

impl Vote {
    const READ_ONLY: &'static str = "read-only";

    /// Encode this vote as the reply to a `Prepare` request.
    pub fn into_response(self) -> XrpcResponse {
        let mut resp = XrpcResponse::new(WSAT_MODULE, METHOD_PREPARE);
        resp.results.push(match self {
            Vote::Prepared => Sequence::empty(),
            Vote::ReadOnly => Sequence::one(Item::string(Self::READ_ONLY)),
        });
        resp
    }

    /// Decode a vote from a `Prepare` reply.
    pub fn from_response(resp: &XrpcResponse) -> Vote {
        let item = resp.results.first().and_then(|seq| seq.items().first());
        match item {
            Some(item) if item.string_value() == Self::READ_ONLY => Vote::ReadOnly,
            _ => Vote::Prepared,
        }
    }
}

/// What a coordinator answers to an `Inquire` — the durable truth about
/// one transaction under the presumed-abort discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// The coordinator's forced commit record exists: commit.
    Committed,
    /// The coordinator knows the transaction aborted — or has no record
    /// of it at all, which under presumed abort means the same thing.
    Aborted,
    /// The transaction is still being coordinated (prepare or decision
    /// delivery in flight): the inquirer must stay prepared and ask
    /// again later.
    InDoubt,
}

impl TxOutcome {
    pub fn as_str(&self) -> &'static str {
        match self {
            TxOutcome::Committed => "committed",
            TxOutcome::Aborted => "aborted",
            TxOutcome::InDoubt => "in-doubt",
        }
    }

    pub fn parse(s: &str) -> Option<TxOutcome> {
        match s {
            "committed" => Some(TxOutcome::Committed),
            "aborted" => Some(TxOutcome::Aborted),
            "in-doubt" => Some(TxOutcome::InDoubt),
            _ => None,
        }
    }

    /// Encode this outcome as the reply to an `Inquire` request.
    pub fn into_response(self) -> XrpcResponse {
        let mut resp = XrpcResponse::new(WSAT_MODULE, METHOD_INQUIRE);
        resp.results
            .push(Sequence::one(Item::string(self.as_str())));
        resp
    }

    /// Decode an outcome from an `Inquire` reply.
    pub fn from_response(resp: &XrpcResponse) -> Option<TxOutcome> {
        let seq = resp.results.first()?;
        let item = seq.items().first()?;
        TxOutcome::parse(&item.string_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{parse_message, XrpcMessage};

    #[test]
    fn outcome_string_roundtrip() {
        for o in [TxOutcome::Committed, TxOutcome::Aborted, TxOutcome::InDoubt] {
            assert_eq!(TxOutcome::parse(o.as_str()), Some(o));
        }
        assert_eq!(TxOutcome::parse("???"), None);
    }

    #[test]
    fn outcome_survives_the_wire() {
        for o in [TxOutcome::Committed, TxOutcome::Aborted, TxOutcome::InDoubt] {
            let xml = o.into_response().to_xml().unwrap();
            let msg = parse_message(&xml).unwrap();
            let XrpcMessage::Response(resp) = msg else {
                panic!("expected a response")
            };
            assert_eq!(resp.module, WSAT_MODULE);
            assert_eq!(resp.method, METHOD_INQUIRE);
            assert_eq!(TxOutcome::from_response(&resp), Some(o));
        }
    }

    #[test]
    fn a_vote_survives_the_wire_and_prepared_is_the_plain_reply() {
        for v in [Vote::Prepared, Vote::ReadOnly] {
            let xml = v.into_response().to_xml().unwrap();
            let XrpcMessage::Response(resp) = parse_message(&xml).unwrap() else {
                panic!("expected a response")
            };
            assert_eq!(Vote::from_response(&resp), v);
        }
        let mut plain = XrpcResponse::new(WSAT_MODULE, METHOD_PREPARE);
        plain.results.push(Sequence::empty());
        assert_eq!(
            Vote::Prepared.into_response().to_xml().unwrap(),
            plain.to_xml().unwrap()
        );
    }

    #[test]
    fn garbage_response_yields_none() {
        let resp = XrpcResponse::new(WSAT_MODULE, METHOD_INQUIRE);
        assert_eq!(TxOutcome::from_response(&resp), None);
    }
}
