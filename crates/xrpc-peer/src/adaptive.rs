//! Feedback-driven adaptive bulk sizing.
//!
//! The paper's experiments (§4, Table 3) fix the bulk evaluation strategy
//! per run; here a small controller *measures* per-call cost and chooses,
//! per batch,
//! how many worker threads to evaluate one incoming read-only Bulk RPC
//! request with ([`AdaptiveBulk::eval_threads`]): the request's call table
//! is cut into that many contiguous slices, each evaluated set-at-a-time.
//! The rule: one extra thread per [`TARGET_MICROS_PER_THREAD`] of estimated
//! batch work (per-call EWMA × batch size), capped by the machine's
//! parallelism and the batch size. A cold controller (no observations yet)
//! keeps the request in one piece.
//!
//! There is no client-side counterpart: a dispatch is always one message.
//! The callee spreads one request over its own workers, and every extra
//! message would pay again the per-message costs — decode, index fetch,
//! one join — that a bulk request exists to share.
//!
//! Convergence: the estimate is an EWMA with α = 1/8, so the controller
//! settles within a few dozen batches and tracks drift (e.g. a document
//! growing) within a few hundred calls.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Estimated batch work (µs) that justifies one evaluation worker thread.
/// Spawning a scoped thread + cache-cold evaluation state costs on the
/// order of tens of µs; a 500 µs share keeps the spawn overhead under a
/// few percent.
pub const TARGET_MICROS_PER_THREAD: u64 = 500;

/// Hard cap on server-side evaluation workers, whatever the machine says.
const MAX_EVAL_THREADS: usize = 16;

/// EWMA update with α = 1/8 over a µs×16 fixed-point cell (the ×16 keeps
/// sub-µs per-call costs from rounding to zero and freezing the EWMA).
fn ewma_update(cell: &AtomicU64, sample_x16: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = if cur == 0 {
            sample_x16.max(1)
        } else {
            (cur - cur / 8 + sample_x16 / 8).max(1)
        };
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(now) => cur = now,
        }
    }
}

/// A point-in-time view of the controller (for `/metrics` and tests).
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveSnapshot {
    /// Per-call service-time estimate, µs (0 = cold).
    pub ewma_call_micros: u64,
    /// What `eval_threads` chose last.
    pub last_threads: usize,
    /// Total `eval_threads` decisions taken.
    pub decisions: u64,
    /// Decisions that chose > 1 worker.
    pub parallel_decisions: u64,
    /// Batches / individual calls fed back through `observe`.
    pub observed_batches: u64,
    pub observed_calls: u64,
}

/// The per-peer bulk-sizing controller. Cheap enough to consult on every
/// request: a handful of relaxed atomic reads.
pub struct AdaptiveBulk {
    /// Per-call *service time* EWMA (µs ×16): wall time × workers ÷ calls,
    /// fed by [`observe`](Self::observe) after each evaluated batch.
    ewma_call_micros_x16: AtomicU64,
    last_threads: AtomicUsize,
    pub decisions: AtomicU64,
    pub parallel_decisions: AtomicU64,
    pub observed_batches: AtomicU64,
    pub observed_calls: AtomicU64,
    /// min(available cores, [`MAX_EVAL_THREADS`]) — resolved once.
    max_threads: usize,
}

impl AdaptiveBulk {
    pub fn new() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        AdaptiveBulk {
            ewma_call_micros_x16: AtomicU64::new(0),
            last_threads: AtomicUsize::new(1),
            decisions: AtomicU64::new(0),
            parallel_decisions: AtomicU64::new(0),
            observed_batches: AtomicU64::new(0),
            observed_calls: AtomicU64::new(0),
            max_threads: cores.min(MAX_EVAL_THREADS),
        }
    }

    /// Per-call service-time estimate in µs (0 until the first batch).
    pub fn ewma_call_micros(&self) -> u64 {
        self.ewma_call_micros_x16.load(Ordering::Relaxed) / 16
    }

    /// How many worker threads to evaluate an incoming read-only bulk
    /// batch of `ncalls` with. Sequential (1) when the controller is cold
    /// or when the estimated batch work doesn't cover a thread's
    /// [`TARGET_MICROS_PER_THREAD`] share.
    pub fn eval_threads(&self, ncalls: usize) -> usize {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        let batch_micros = self.ewma_call_micros().saturating_mul(ncalls as u64);
        let chosen = ((batch_micros / TARGET_MICROS_PER_THREAD) as usize)
            .min(self.max_threads)
            .min(ncalls)
            .max(1);
        self.last_threads.store(chosen, Ordering::Relaxed);
        if chosen > 1 {
            self.parallel_decisions.fetch_add(1, Ordering::Relaxed);
        }
        chosen
    }

    /// Feed back one evaluated batch: `calls` calls took `elapsed` wall
    /// time on `threads` workers. The per-call *service* time is
    /// `elapsed × threads ÷ calls` — wall time alone would make a
    /// parallel batch look cheaper than it is and ratchet the thread
    /// count up without bound.
    pub fn observe(&self, calls: usize, elapsed: Duration, threads: usize) {
        if calls == 0 {
            return;
        }
        self.observed_batches.fetch_add(1, Ordering::Relaxed);
        self.observed_calls
            .fetch_add(calls as u64, Ordering::Relaxed);
        let per_call_x16 = (elapsed.as_micros() as u64)
            .saturating_mul(threads.max(1) as u64)
            .saturating_mul(16)
            / (calls as u64);
        ewma_update(&self.ewma_call_micros_x16, per_call_x16);
    }

    pub fn snapshot(&self) -> AdaptiveSnapshot {
        AdaptiveSnapshot {
            ewma_call_micros: self.ewma_call_micros(),
            last_threads: self.last_threads.load(Ordering::Relaxed),
            decisions: self.decisions.load(Ordering::Relaxed),
            parallel_decisions: self.parallel_decisions.load(Ordering::Relaxed),
            observed_batches: self.observed_batches.load(Ordering::Relaxed),
            observed_calls: self.observed_calls.load(Ordering::Relaxed),
        }
    }
}

impl Default for AdaptiveBulk {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_controller_stays_sequential() {
        let a = AdaptiveBulk::new();
        assert_eq!(a.eval_threads(1000), 1);
        assert_eq!(a.snapshot().parallel_decisions, 0);
    }

    #[test]
    fn warm_controller_scales_with_batch_work() {
        let a = AdaptiveBulk::new();
        // 100 calls in 100ms sequential → 1ms per call
        for _ in 0..32 {
            a.observe(100, Duration::from_millis(100), 1);
        }
        let ewma = a.ewma_call_micros();
        assert!((900..=1100).contains(&ewma), "ewma = {ewma}");
        let t = a.eval_threads(100);
        // 100ms of work / 500µs per thread = 200 → capped by the machine
        assert_eq!(
            t,
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(MAX_EVAL_THREADS)
                .min(100)
        );
        // a tiny batch stays sequential even when calls are expensive:
        // 1 call × 1ms = 2 threads' worth, but capped by ncalls
        assert_eq!(a.eval_threads(1), 1);
    }

    #[test]
    fn cheap_calls_never_fan_out() {
        let a = AdaptiveBulk::new();
        for _ in 0..32 {
            a.observe(1000, Duration::from_millis(1), 1); // 1µs per call
        }
        assert_eq!(a.eval_threads(100), 1); // 100µs of work < 500µs share
    }

    #[test]
    fn observe_normalizes_by_worker_count() {
        let a = AdaptiveBulk::new();
        // 100 calls, 25ms wall on 4 workers = 1ms service time per call
        for _ in 0..32 {
            a.observe(100, Duration::from_millis(25), 4);
        }
        let ewma = a.ewma_call_micros();
        assert!((900..=1100).contains(&ewma), "ewma = {ewma}");
    }

    #[test]
    fn ewma_tracks_drift() {
        let a = AdaptiveBulk::new();
        for _ in 0..64 {
            a.observe(10, Duration::from_millis(10), 1); // 1ms per call
        }
        for _ in 0..64 {
            a.observe(10, Duration::from_micros(100), 1); // now 10µs per call
        }
        assert!(a.ewma_call_micros() < 20, "ewma = {}", a.ewma_call_micros());
    }
}
