//! Job-scoped plumbing between the reactor and the handler stack.
//!
//! The reactor and its worker threads run an opaque
//! [`Handler`](crate::http::Handler); the peer runtime deep inside it needs
//! what the function signature does not carry:
//!
//! * the **kill flag** of the job's connection, which the reactor sets when
//!   the connection closes ([`current_job`]), bridged into the evaluator's
//!   `CancelToken` so cooperative checkpoints observe it;
//! * an **ambient deadline** the retry layer can consult so backoff sleeps
//!   never outlive the caller's remaining budget; and
//! * the **inline handshake**: whether the handler runs on the reactor
//!   thread itself ([`on_reactor`]), its way to give such a request back to
//!   the workers ([`defer`]), and its offer to have the connection's next
//!   request answered inline ([`offer_next`]).
//!
//! The first two travel through thread-locals scoped by RAII guards: the
//! worker installs the job's flag around the handler call, and the peer
//! client installs the query deadline around each transport round-trip.
//! Guards restore the previous value on drop, so nested scopes (a handler
//! that itself issues outbound calls) compose.
//!
//! The handshake is off until the handler asks for it. Before each handler
//! call the reactor or worker clears the offer; afterwards it keeps what
//! the handler set for the connection. The reactor runs the next request on
//! its own thread only when that offer is set and the body is at most
//! [`INLINE_BYTES`]; everything else goes to the workers as before. A
//! handler that offers promises a request it keeps on the reactor is small
//! and quick — it sends nothing, waits on nothing, and gives it back with
//! [`defer`] once it has run [`INLINE_BUDGET`] or would answer more than
//! [`INLINE_BYTES`]. A deferred request is then handed to a worker
//! unchanged, so the handler may run it again there.

use std::cell::{Cell, RefCell};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest request body the reactor answers on its own thread, and the
/// largest response a handler may answer there.
pub const INLINE_BYTES: usize = 16 * 1024;
/// Longest a handler may evaluate on the reactor thread before it defers.
pub const INLINE_BUDGET: Duration = Duration::from_millis(1);

thread_local! {
    static CURRENT_JOB: RefCell<Option<Arc<AtomicBool>>> = const { RefCell::new(None) };
    static AMBIENT_DEADLINE: RefCell<Option<Instant>> = const { RefCell::new(None) };
    static HANDSHAKE: Cell<Handshake> = const { Cell::new(Handshake::NONE) };
}

/// One handler call's side of the inline handshake.
#[derive(Clone, Copy)]
struct Handshake {
    on_reactor: bool,
    deferred: bool,
    offer: bool,
}

impl Handshake {
    const NONE: Handshake = Handshake {
        on_reactor: false,
        deferred: false,
        offer: false,
    };
}

/// Is this handler call running on the reactor thread? Then it must not
/// block: not on the network, not on a lock held across one.
pub fn on_reactor() -> bool {
    HANDSHAKE.with(|h| h.get().on_reactor)
}

/// Give the request being handled on the reactor back to the workers: the
/// reactor drops this call's answer and dispatches the request unchanged.
/// No effect on a worker.
pub fn defer() {
    HANDSHAKE.with(|h| {
        let mut s = h.get();
        s.deferred = s.on_reactor;
        h.set(s);
    });
}

/// Has this handler call called [`defer`]?
pub fn deferred() -> bool {
    HANDSHAKE.with(|h| h.get().deferred)
}

/// Ask that the connection's next request be answered on the reactor, or
/// withdraw the ask. Cleared before every handler call: a handler that
/// never calls it is never run inline.
pub fn offer_next(offer: bool) {
    HANDSHAKE.with(|h| {
        let mut s = h.get();
        s.offer = offer;
        h.set(s);
    });
}

/// Start a handler call: nothing deferred, nothing offered.
pub(crate) fn begin_handler(on_reactor: bool) {
    HANDSHAKE.with(|h| {
        h.set(Handshake {
            on_reactor,
            ..Handshake::NONE
        })
    });
}

/// End a handler call: whether it offered the next request and whether it
/// deferred this one.
pub(crate) fn end_handler() -> (bool, bool) {
    let s = HANDSHAKE.with(|h| h.replace(Handshake::NONE));
    (s.offer, s.deferred)
}

/// Install `kill` as the thread's current job flag for the guard's
/// lifetime. The query's deadline is not published here: the evaluator's
/// `CancelToken` enforces it at every checkpoint.
pub fn set_current_job(kill: Arc<AtomicBool>) -> CurrentJobGuard {
    let prev = CURRENT_JOB.with(|c| c.replace(Some(kill)));
    CurrentJobGuard { prev }
}

/// The kill flag installed by the innermost [`set_current_job`] guard, if
/// any: set once the job's connection has closed.
pub fn current_job() -> Option<Arc<AtomicBool>> {
    CURRENT_JOB.with(|c| c.borrow().clone())
}

pub struct CurrentJobGuard {
    prev: Option<Arc<AtomicBool>>,
}

impl Drop for CurrentJobGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT_JOB.with(|c| *c.borrow_mut() = prev);
    }
}

/// Install a deadline the retry layer must not sleep past. `None` clears
/// any inherited deadline for the guard's scope.
pub fn set_ambient_deadline(deadline: Option<Instant>) -> AmbientDeadlineGuard {
    let prev = AMBIENT_DEADLINE.with(|c| c.replace(deadline));
    AmbientDeadlineGuard { prev }
}

/// The deadline installed by the innermost [`set_ambient_deadline`] guard.
pub fn ambient_deadline() -> Option<Instant> {
    AMBIENT_DEADLINE.with(|c| *c.borrow())
}

pub struct AmbientDeadlineGuard {
    prev: Option<Instant>,
}

impl Drop for AmbientDeadlineGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        AMBIENT_DEADLINE.with(|c| *c.borrow_mut() = prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn current_job_guard_scopes_and_restores() {
        assert!(current_job().is_none());
        let outer = Arc::new(AtomicBool::new(false));
        {
            let _g = set_current_job(Arc::clone(&outer));
            assert!(Arc::ptr_eq(&current_job().unwrap(), &outer));
            let inner = Arc::new(AtomicBool::new(false));
            {
                let _g2 = set_current_job(Arc::clone(&inner));
                assert!(Arc::ptr_eq(&current_job().unwrap(), &inner));
            }
            assert!(Arc::ptr_eq(&current_job().unwrap(), &outer));
        }
        assert!(current_job().is_none());
    }

    #[test]
    fn the_handshake_is_per_call_and_defer_only_counts_on_the_reactor() {
        begin_handler(false);
        defer();
        offer_next(true);
        assert!(!on_reactor() && !deferred());
        assert_eq!(end_handler(), (true, false));
        begin_handler(true);
        assert!(on_reactor());
        defer();
        assert_eq!(end_handler(), (false, true));
        assert!(!on_reactor() && !deferred());
    }

    #[test]
    fn ambient_deadline_guard_scopes_and_restores() {
        assert!(ambient_deadline().is_none());
        let d1 = Instant::now() + Duration::from_secs(5);
        let d2 = Instant::now() + Duration::from_secs(1);
        {
            let _g = set_ambient_deadline(Some(d1));
            assert_eq!(ambient_deadline(), Some(d1));
            {
                let _g2 = set_ambient_deadline(Some(d2));
                assert_eq!(ambient_deadline(), Some(d2));
            }
            assert_eq!(ambient_deadline(), Some(d1));
            {
                let _g3 = set_ambient_deadline(None);
                assert!(ambient_deadline().is_none());
            }
            assert_eq!(ambient_deadline(), Some(d1));
        }
        assert!(ambient_deadline().is_none());
    }
}
