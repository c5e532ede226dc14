//! Job-scoped cancellation plumbing between the reactor and the handler
//! stack.
//!
//! The reactor's worker threads run opaque `JobHandler` closures; the peer
//! runtime deep inside those closures needs two things the function
//! signature does not carry:
//!
//! * the **kill flag** of the job's connection, which the reactor sets when
//!   the connection closes ([`current_job`]), bridged into the evaluator's
//!   `CancelToken` so cooperative checkpoints observe it; and
//! * an **ambient deadline** the retry layer can consult so backoff sleeps
//!   never outlive the caller's remaining budget.
//!
//! Both travel through thread-locals scoped by RAII guards: the worker
//! installs the job's flag around the handler call, and the peer client
//! installs the query deadline around each transport round-trip. Guards
//! restore the previous value on drop, so nested scopes (a handler that
//! itself issues outbound calls) compose.

use std::cell::RefCell;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    static CURRENT_JOB: RefCell<Option<Arc<AtomicBool>>> = const { RefCell::new(None) };
    static AMBIENT_DEADLINE: RefCell<Option<Instant>> = const { RefCell::new(None) };
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
