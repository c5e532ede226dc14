//! Retry with deadline and exponential backoff: [`RetryPolicy`] holds the
//! knobs, [`ResilientTransport`] is a [`Transport`] decorator that applies
//! them per call — consulting the caller's [`CallHint`] so that only
//! redelivery-safe requests are ever resent after an ambiguous failure —
//! and gates every destination behind a [`CircuitBreaker`].

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::metrics::NetMetrics;
use crate::{CallHint, NetError, NetErrorKind, Transport};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xrpc_obs::Histogram;

/// Retry/backoff/deadline knobs for one logical call.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: Duration,
    /// Wall-clock budget for the whole call including retries and
    /// backoffs; when the next backoff would overrun it, the call fails
    /// with [`NetErrorKind::Timeout`] instead of sleeping.
    pub call_deadline: Duration,
    /// Seed for the deterministic jitter applied to each backoff.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// Defaults conservative enough for production wiring: 3 attempts,
    /// 10 ms → 40 ms backoff, 30 s call budget.
    pub fn conservative() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            call_deadline: Duration::from_secs(30),
            jitter_seed: 0x5eed_cafe,
        }
    }

    /// Backoff before retry number `retry` (1-based): *full jitter* — a
    /// deterministic fraction in `[0, 1)` of the capped exponential
    /// target, derived from `jitter_seed` and `salt` (callers pass a
    /// destination hash so concurrent calls to different peers do not
    /// sleep in lockstep). Full jitter (vs. a 50% floor) is what breaks
    /// the retry *waves*: after a partition heals, N recovering callers
    /// with a floored backoff all land inside the same half-window and
    /// re-collide; spreading over the whole window decorrelates them.
    pub fn backoff_before_retry(&self, retry: u32, salt: u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << retry.saturating_sub(1).min(16));
        let capped = exp.min(self.max_backoff);
        full_jitter(
            capped,
            self.jitter_seed
                .wrapping_add(salt)
                .wrapping_add(retry as u64),
        )
    }
}

/// A deterministic *full jitter* draw: a fraction in `[0, 1)` of `cap`,
/// derived from `seed` via splitmix64. Shared by [`RetryPolicy`] and the
/// 2PC decision-redelivery backoff so every retrying component in the
/// system decorrelates the same way.
pub fn full_jitter(cap: Duration, seed: u64) -> Duration {
    let j = splitmix64(seed);
    let frac = (j >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    cap.mul_f64(frac)
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::conservative()
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-destination accounting for one [`ResilientTransport`]: a latency
/// histogram over *successful* calls (µs, including any retries and
/// backoff sleeps the call absorbed) plus the failure-path counters that
/// the aggregate [`NetMetrics`] could not attribute — which destination
/// was retried, which breaker fast-failed, which peer silently dropped
/// a request. Exposed as `dest="…"` labels on `/metrics`.
#[derive(Default)]
pub struct DestStats {
    pub latency: Histogram,
    pub retries: AtomicU64,
    pub failures: AtomicU64,
    pub fast_failures: AtomicU64,
    /// Individual bulk calls acknowledged by this destination (the
    /// caller reports batch sizes via [`DestStats::note_calls`]; the
    /// transport only sees opaque bodies).
    pub calls: AtomicU64,
}

impl DestStats {
    /// Report a completed bulk dispatch of `calls` individual calls.
    pub fn note_calls(&self, calls: u64) {
        self.calls.fetch_add(calls, Ordering::Relaxed);
    }
}

/// How many destinations are kept apart: each is a `dest="…"` label on
/// `/metrics`, and a query can compute any number of `execute at {$uri}`.
const MAX_DESTS: usize = 256;

/// The entry destinations share once [`MAX_DESTS`] are held and none can go.
const OTHER_DEST: &str = "other";

struct DestEntry {
    stats: Arc<DestStats>,
    breaker: CircuitBreaker,
    used: Instant,
}

/// A [`Transport`] decorator adding retry/backoff/deadline and a
/// per-destination circuit breaker to any inner transport.
///
/// Calls without a hint (plain [`Transport::roundtrip`]) are treated as
/// [`CallHint::Update`] — the conservative choice: they are only resent
/// after provably send-side failures.
pub struct ResilientTransport {
    inner: Arc<dyn Transport>,
    policy: RetryPolicy,
    breaker_cfg: BreakerConfig,
    /// At most [`MAX_DESTS`] destinations and [`OTHER_DEST`].
    dests: Mutex<HashMap<String, DestEntry>>,
    /// Retry/fast-fail/timeout accounting for this decorator (the inner
    /// transport keeps its own per-wire-attempt counters).
    pub metrics: Arc<NetMetrics>,
}

impl ResilientTransport {
    /// Wrap `inner` with [`RetryPolicy::conservative`] and default
    /// breaker settings.
    pub fn new(inner: Arc<dyn Transport>) -> Arc<Self> {
        Self::with_policy(inner, RetryPolicy::conservative(), BreakerConfig::default())
    }

    pub fn with_policy(
        inner: Arc<dyn Transport>,
        policy: RetryPolicy,
        breaker_cfg: BreakerConfig,
    ) -> Arc<Self> {
        Arc::new(ResilientTransport {
            inner,
            policy,
            breaker_cfg,
            dests: Mutex::new(HashMap::new()),
            metrics: Arc::new(NetMetrics::new()),
        })
    }

    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// The per-destination breakdown, destination-sorted.
    pub fn dest_stats(&self) -> Vec<(String, Arc<DestStats>)> {
        self.sorted(|e| e.stats.clone())
    }

    /// Every breaker's current state, destination-sorted (for `/healthz`).
    pub fn breaker_states(&self) -> Vec<(String, BreakerState)> {
        self.sorted(|e| e.breaker.state())
    }

    fn sorted<T>(&self, of: impl Fn(&DestEntry) -> T) -> Vec<(String, T)> {
        let mut out: Vec<_> = (self.dests.lock().iter())
            .map(|(k, e)| (k.clone(), of(e)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Run `f` on `dest`'s entry, made on first use. At the cap the
    /// least-recently-used destination whose breaker is closed makes room
    /// (an open breaker is state worth keeping; a closed one's stats are
    /// history); when none can go, `dest` shares the `other` entry.
    fn with_dest<R>(&self, mut dest: &str, f: impl FnOnce(&mut DestEntry) -> R) -> R {
        let mut dests = self.dests.lock();
        if !dests.contains_key(dest) {
            if dests.len() >= MAX_DESTS {
                let idle = (dests.iter())
                    .filter(|(k, e)| e.breaker.state() == BreakerState::Closed && *k != OTHER_DEST)
                    .min_by_key(|(_, e)| e.used)
                    .map(|(k, _)| k.clone());
                match idle {
                    Some(k) => drop(dests.remove(&k)),
                    None => dest = OTHER_DEST,
                }
            }
            dests.entry(dest.to_string()).or_insert_with(|| DestEntry {
                stats: Arc::default(),
                breaker: CircuitBreaker::new(self.breaker_cfg),
                used: Instant::now(),
            });
        }
        let entry = dests.get_mut(dest).expect("made above");
        entry.used = Instant::now();
        f(entry)
    }

    /// The stats handle for one destination (created on first use), for
    /// the XRPC client to report batch sizes via [`DestStats::note_calls`].
    pub fn dest_stats_for(&self, dest: &str) -> Arc<DestStats> {
        self.with_dest(dest, |e| e.stats.clone())
    }

    /// Observable breaker state for `dest` (Closed if never used).
    pub fn breaker_state(&self, dest: &str) -> BreakerState {
        (self.dests.lock().get(dest)).map_or(BreakerState::Closed, |e| e.breaker.state())
    }
}

impl Transport for ResilientTransport {
    fn roundtrip(&self, dest: &str, body: &[u8]) -> Result<Vec<u8>, NetError> {
        self.roundtrip_hinted(dest, body, CallHint::Update)
    }

    fn roundtrip_hinted(
        &self,
        dest: &str,
        body: &[u8],
        hint: CallHint,
    ) -> Result<Vec<u8>, NetError> {
        let start = Instant::now();
        let deadline = start + self.policy.call_deadline;
        // the per-destination jitter salt
        let salt = xrpc_obs::fnv1a64(dest.as_bytes());
        let stats = self.dest_stats_for(dest);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            if !self.with_dest(dest, |e| e.breaker.allow(Instant::now())) {
                self.metrics.record_fast_failure();
                stats.fast_failures.fetch_add(1, Ordering::Relaxed);
                return Err(NetError::with_kind(
                    NetErrorKind::Other,
                    format!("circuit breaker open for `{dest}` (failing fast)"),
                ));
            }
            let err = match self.inner.roundtrip_hinted(dest, body, hint) {
                Ok(resp) => {
                    self.with_dest(dest, |e| e.breaker.on_success());
                    self.metrics.record(body.len(), resp.len());
                    stats.latency.record_micros(start.elapsed());
                    return Ok(resp);
                }
                Err(e) => e,
            };
            if self.with_dest(dest, |e| e.breaker.on_failure(Instant::now())) {
                self.metrics.record_breaker_open();
            }
            self.metrics.record_failure();
            stats.failures.fetch_add(1, Ordering::Relaxed);
            if err.kind == NetErrorKind::Timeout {
                self.metrics.record_timeout();
            }
            if !hint.may_retry(&err) || attempt >= self.policy.max_attempts {
                return Err(err);
            }
            // Cancellation is never retryable: if the job this call serves
            // was cancelled (client gone), surface the
            // original failure instead of burning backoff sleeps.
            if crate::cancel::current_job().is_some_and(|j| j.load(Ordering::Relaxed)) {
                return Err(err);
            }
            let backoff = self.policy.backoff_before_retry(attempt, salt);
            // The caller's query budget caps cumulative retry time: when the
            // next sleep would overrun the remaining budget, stop retrying
            // and surface the ORIGINAL error (the budget overrun is the
            // caller's XRPC0004 to raise, not a transport timeout).
            if let Some(ambient) = crate::cancel::ambient_deadline() {
                if Instant::now() + backoff >= ambient {
                    self.metrics.record_timeout();
                    return Err(err);
                }
            }
            if Instant::now() + backoff >= deadline {
                self.metrics.record_timeout();
                return Err(NetError::with_kind(
                    NetErrorKind::Timeout,
                    format!(
                        "call deadline {:?} exceeded after {attempt} attempt(s) to `{dest}`; last error: {err}",
                        self.policy.call_deadline
                    ),
                ));
            }
            self.metrics.record_retry();
            stats.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(backoff);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{NetProfile, SimFault, SimNetwork};
    use std::sync::atomic::AtomicBool;

    fn fast_policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            call_deadline: Duration::from_secs(5),
            jitter_seed: 7,
        }
    }

    fn net_with_peer() -> Arc<SimNetwork> {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        net.register("xrpc://y", Arc::new(|_: &[u8]| b"ok".to_vec()));
        net
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = fast_policy(5);
        for retry in 1..=4 {
            let a = p.backoff_before_retry(retry, 1);
            let b = p.backoff_before_retry(retry, 1);
            assert_eq!(a, b, "same inputs, same jitter");
            // full jitter: anywhere in [0, capped exponential target)
            assert!(a <= p.max_backoff);
        }
        // different salts decorrelate
        assert_ne!(p.backoff_before_retry(1, 1), p.backoff_before_retry(1, 2));
        // full jitter spans the low half of the window too (a 50%-floored
        // scheme could never produce a draw below half the target)
        let below_half = (0..64)
            .any(|salt| p.backoff_before_retry(3, salt) < p.base_backoff.saturating_mul(4) / 2);
        assert!(below_half, "full jitter must reach below the 50% floor");
    }

    #[test]
    fn transient_faults_retried_until_success() {
        let net = net_with_peer();
        let t =
            ResilientTransport::with_policy(net.clone(), fast_policy(4), BreakerConfig::default());
        net.inject_fault("xrpc://y", SimFault::DropRequest);
        net.inject_fault("xrpc://y", SimFault::DropRequest);
        let r = t
            .roundtrip_hinted("xrpc://y", b"q", CallHint::ReadOnly)
            .unwrap();
        assert_eq!(r, b"ok");
        let s = t.metrics.snapshot();
        assert_eq!(s.retries, 2);
        assert_eq!(s.failures, 2);
        assert_eq!(s.roundtrips, 1);
    }

    #[test]
    fn attempts_exhausted_surfaces_last_error() {
        let net = net_with_peer();
        let t =
            ResilientTransport::with_policy(net.clone(), fast_policy(3), BreakerConfig::default());
        for _ in 0..5 {
            net.inject_fault("xrpc://y", SimFault::DropResponse);
        }
        let e = t
            .roundtrip_hinted("xrpc://y", b"q", CallHint::ReadOnly)
            .unwrap_err();
        assert_eq!(e.kind, NetErrorKind::Timeout);
        assert_eq!(t.metrics.snapshot().retries, 2, "3 attempts = 2 retries");
    }

    #[test]
    fn ambiguous_failure_not_retried_for_updates() {
        let net = net_with_peer();
        let t =
            ResilientTransport::with_policy(net.clone(), fast_policy(5), BreakerConfig::default());
        // drop-response: the handler ran, so an update must NOT be resent
        net.inject_fault("xrpc://y", SimFault::DropResponse);
        let e = t
            .roundtrip_hinted("xrpc://y", b"u", CallHint::Update)
            .unwrap_err();
        assert_eq!(e.kind, NetErrorKind::Timeout);
        assert_eq!(t.metrics.snapshot().retries, 0);
        assert_eq!(net.handled_count("xrpc://y"), 1, "handler ran exactly once");
    }

    #[test]
    fn send_side_failure_retried_even_for_updates() {
        let net = net_with_peer();
        let t =
            ResilientTransport::with_policy(net.clone(), fast_policy(3), BreakerConfig::default());
        net.inject_fault("xrpc://y", SimFault::Refuse);
        let r = t
            .roundtrip_hinted("xrpc://y", b"u", CallHint::Update)
            .unwrap();
        assert_eq!(r, b"ok");
        assert_eq!(t.metrics.snapshot().retries, 1);
        assert_eq!(
            net.handled_count("xrpc://y"),
            1,
            "update applied exactly once"
        );
    }

    #[test]
    fn deferred_update_retries_ambiguous_failures() {
        let net = net_with_peer();
        let t =
            ResilientTransport::with_policy(net.clone(), fast_policy(3), BreakerConfig::default());
        net.inject_fault("xrpc://y", SimFault::DropResponse);
        let r = t
            .roundtrip_hinted("xrpc://y", b"u", CallHint::DeferredUpdate)
            .unwrap();
        assert_eq!(r, b"ok");
        assert_eq!(
            net.handled_count("xrpc://y"),
            2,
            "redelivery is safe pre-Prepare"
        );
    }

    #[test]
    fn plain_roundtrip_is_conservative() {
        let net = net_with_peer();
        let t =
            ResilientTransport::with_policy(net.clone(), fast_policy(5), BreakerConfig::default());
        net.inject_fault("xrpc://y", SimFault::DropResponse);
        assert!(
            t.roundtrip("xrpc://y", b"x").is_err(),
            "no hint → treated as Update"
        );
    }

    #[test]
    fn breaker_opens_fails_fast_and_recovers_via_probe() {
        let net = net_with_peer();
        let t = ResilientTransport::with_policy(
            net.clone(),
            fast_policy(1),
            BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_millis(30),
            },
        );
        net.crash("xrpc://y");
        for _ in 0..3 {
            assert!(t
                .roundtrip_hinted("xrpc://y", b"q", CallHint::ReadOnly)
                .is_err());
        }
        assert_eq!(t.breaker_state("xrpc://y"), BreakerState::Open);
        let wire_failures = net.metrics.snapshot().failures;
        // open: fails fast without hitting the wire
        assert!(t
            .roundtrip_hinted("xrpc://y", b"q", CallHint::ReadOnly)
            .is_err());
        assert_eq!(
            net.metrics.snapshot().failures,
            wire_failures,
            "no wire traffic while open"
        );
        assert_eq!(t.metrics.snapshot().fast_failures, 1);
        assert_eq!(t.metrics.snapshot().breaker_opens, 1);
        // cooldown passes, peer restarts: half-open probe restores service
        net.restart("xrpc://y");
        std::thread::sleep(Duration::from_millis(40));
        let r = t
            .roundtrip_hinted("xrpc://y", b"q", CallHint::ReadOnly)
            .unwrap();
        assert_eq!(r, b"ok");
        assert_eq!(t.breaker_state("xrpc://y"), BreakerState::Closed);
    }

    #[test]
    fn deadline_bounds_total_retry_time() {
        let net = net_with_peer();
        let t = ResilientTransport::with_policy(
            net.clone(),
            RetryPolicy {
                max_attempts: 100,
                base_backoff: Duration::from_millis(20),
                max_backoff: Duration::from_millis(20),
                call_deadline: Duration::from_millis(50),
                jitter_seed: 1,
            },
            BreakerConfig {
                failure_threshold: 1000,
                cooldown: Duration::from_secs(1),
            },
        );
        for _ in 0..100 {
            net.inject_fault("xrpc://y", SimFault::DropRequest);
        }
        let t0 = Instant::now();
        let e = t
            .roundtrip_hinted("xrpc://y", b"q", CallHint::ReadOnly)
            .unwrap_err();
        assert_eq!(e.kind, NetErrorKind::Timeout);
        assert!(e.message.contains("deadline"), "{}", e.message);
        assert!(t0.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn ambient_deadline_caps_retries_and_surfaces_original_error() {
        let net = net_with_peer();
        let t = ResilientTransport::with_policy(
            net.clone(),
            RetryPolicy {
                max_attempts: 100,
                base_backoff: Duration::from_millis(20),
                max_backoff: Duration::from_millis(20),
                call_deadline: Duration::from_secs(30),
                jitter_seed: 1,
            },
            BreakerConfig {
                failure_threshold: 1000,
                cooldown: Duration::from_secs(1),
            },
        );
        for _ in 0..100 {
            net.inject_fault("xrpc://y", SimFault::Refuse);
        }
        // the caller's remaining budget is tiny: the first backoff sleep
        // would already overrun it, so no retry happens and the ORIGINAL
        // refused error comes back (not a synthesized deadline timeout)
        let _g =
            crate::cancel::set_ambient_deadline(Some(Instant::now() + Duration::from_millis(5)));
        let t0 = Instant::now();
        let e = t
            .roundtrip_hinted("xrpc://y", b"q", CallHint::ReadOnly)
            .unwrap_err();
        assert_eq!(e.kind, NetErrorKind::ConnectionRefused);
        assert!(
            !e.message.contains("call deadline"),
            "original error, not the policy-deadline wrapper: {}",
            e.message
        );
        assert_eq!(t.metrics.snapshot().retries, 0);
        assert!(t0.elapsed() < Duration::from_millis(200));
    }

    #[test]
    fn cancelled_job_is_never_retried() {
        let net = net_with_peer();
        let t =
            ResilientTransport::with_policy(net.clone(), fast_policy(5), BreakerConfig::default());
        net.inject_fault("xrpc://y", SimFault::Refuse);
        let _g = crate::cancel::set_current_job(Arc::new(AtomicBool::new(true)));
        let e = t
            .roundtrip_hinted("xrpc://y", b"q", CallHint::ReadOnly)
            .unwrap_err();
        assert_eq!(e.kind, NetErrorKind::ConnectionRefused, "original error");
        assert_eq!(t.metrics.snapshot().retries, 0, "no retry once cancelled");
    }

    #[test]
    fn live_job_and_roomy_ambient_deadline_do_not_block_retries() {
        let net = net_with_peer();
        let t =
            ResilientTransport::with_policy(net.clone(), fast_policy(4), BreakerConfig::default());
        net.inject_fault("xrpc://y", SimFault::Refuse);
        let _g =
            crate::cancel::set_ambient_deadline(Some(Instant::now() + Duration::from_secs(30)));
        let _g2 = crate::cancel::set_current_job(Arc::default());
        let r = t
            .roundtrip_hinted("xrpc://y", b"q", CallHint::ReadOnly)
            .unwrap();
        assert_eq!(r, b"ok");
        assert_eq!(t.metrics.snapshot().retries, 1);
    }

    #[test]
    fn per_destination_stats_attribute_retries_and_latency() {
        let net = net_with_peer();
        net.register("xrpc://z", Arc::new(|_: &[u8]| b"zz".to_vec()));
        let t =
            ResilientTransport::with_policy(net.clone(), fast_policy(4), BreakerConfig::default());
        // y absorbs two silent request drops before succeeding; z is clean
        net.inject_fault("xrpc://y", SimFault::DropRequest);
        net.inject_fault("xrpc://y", SimFault::DropRequest);
        t.roundtrip_hinted("xrpc://y", b"q", CallHint::ReadOnly)
            .unwrap();
        t.roundtrip_hinted("xrpc://z", b"q", CallHint::ReadOnly)
            .unwrap();
        let stats = t.dest_stats();
        assert_eq!(
            stats.iter().map(|(d, _)| d.as_str()).collect::<Vec<_>>(),
            vec!["xrpc://y", "xrpc://z"],
            "destination-sorted"
        );
        let y = &stats[0].1;
        let z = &stats[1].1;
        assert_eq!(y.retries.load(Ordering::Relaxed), 2);
        assert_eq!(y.failures.load(Ordering::Relaxed), 2);
        assert_eq!(y.latency.count(), 1, "one successful call recorded");
        assert_eq!(z.retries.load(Ordering::Relaxed), 0);
        assert_eq!(z.failures.load(Ordering::Relaxed), 0);
        assert_eq!(z.latency.count(), 1);
        // the blind spot this exists to fix: aggregate metrics alone
        // cannot say *which* destination ate the retries
        assert_eq!(t.metrics.snapshot().retries, 2);
    }

    #[test]
    fn per_destination_breakers_are_independent() {
        let net = net_with_peer();
        net.register("xrpc://z", Arc::new(|_: &[u8]| b"zz".to_vec()));
        let t = ResilientTransport::with_policy(
            net.clone(),
            fast_policy(1),
            BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_secs(10),
            },
        );
        net.crash("xrpc://y");
        assert!(t
            .roundtrip_hinted("xrpc://y", b"q", CallHint::ReadOnly)
            .is_err());
        assert_eq!(t.breaker_state("xrpc://y"), BreakerState::Open);
        assert_eq!(t.breaker_state("xrpc://z"), BreakerState::Closed);
        assert_eq!(
            t.roundtrip_hinted("xrpc://z", b"q", CallHint::ReadOnly)
                .unwrap(),
            b"zz"
        );
    }

    #[test]
    fn ten_thousand_destinations_leave_a_bounded_table() {
        let net = Arc::new(SimNetwork::new(NetProfile::instant()));
        let t = ResilientTransport::with_policy(
            net.clone(),
            fast_policy(1),
            BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_secs(60),
            },
        );
        // nobody listens anywhere: every breaker opens and none may go, so
        // past the cap the rest share one entry
        for i in 0..10_000 {
            let _ = t.roundtrip_hinted(&format!("xrpc://down-{i}"), b"q", CallHint::ReadOnly);
        }
        assert_eq!(t.dest_stats().len(), MAX_DESTS + 1);
        assert_eq!(t.breaker_state("xrpc://down-0"), BreakerState::Open);
        assert_eq!(t.breaker_state(OTHER_DEST), BreakerState::Open);
        let other = t.dest_stats_for("xrpc://down-9999");
        assert!(other.failures.load(Ordering::Relaxed) >= 1, "shared");

        // healthy destinations come and go: the least recently used leaves
        let t = ResilientTransport::new(net.clone());
        for i in 0..10_000 {
            let dest = format!("xrpc://up-{i}");
            net.register(&dest, Arc::new(|_: &[u8]| b"ok".to_vec()));
            t.roundtrip_hinted(&dest, b"q", CallHint::ReadOnly).unwrap();
        }
        let held = t.dest_stats();
        assert_eq!(held.len(), MAX_DESTS);
        assert!(held.iter().any(|(d, _)| d == "xrpc://up-9999"));
        assert!(!held.iter().any(|(d, _)| d == "xrpc://up-0"));
        assert_eq!(t.breaker_states().len(), MAX_DESTS);
    }
}
