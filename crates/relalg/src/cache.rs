//! Prepared-plan caches.
//!
//! [`PlanCache`] is the generic keyed plan cache: bounded capacity with
//! LRU eviction, hit/miss/eviction/invalidation counters, and a runtime
//! enable switch. The cached artifact lives behind an `Arc` so a plan
//! stays valid for executions already holding it even after eviction or
//! invalidation drops it from the map.
//!
//! [`FunctionCache`] (paper §3.3, "Function Cache") is the original
//! instantiation: parse-once query plans for module functions, keyed by
//! `(module namespace, function, arity)`. MonetDB/XQuery's cache avoids
//! re-translating the XQuery module on every XRPC request; here the
//! cached artifact is the prepared function the request handler would
//! otherwise rebuild (parse + static analysis). It remains a runtime
//! switch so Table 2 can be regenerated with it on and off. The peer's
//! *plan* cache (whole main-module queries keyed by normalized text +
//! static-context fingerprint) is another instantiation — see
//! `xrpc-peer`.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::Arc;

/// Key of the function cache: (module ns, method, arity).
pub type FnKey = (String, String, usize);

/// The §3.3 function cache is the plan cache keyed by function identity.
pub type FunctionCache<P> = PlanCache<FnKey, P>;

/// Default capacity: generous for function caches (a deployment has tens
/// of module functions) and a sane bound for whole-query plan caches.
pub const DEFAULT_CAPACITY: usize = 256;

struct Entry<P> {
    plan: Arc<P>,
    /// Recency stamp: the cache-wide tick at last touch. Eviction scans
    /// for the minimum — O(n), fine at the bounded sizes used here.
    touched: u64,
}

/// A generic keyed prepared-plan cache: bounded, LRU-evicting, with
/// hit/miss/eviction/invalidation counters.
pub struct PlanCache<K: Eq + Hash + Clone, P> {
    enabled: AtomicBool,
    capacity: AtomicUsize,
    tick: AtomicU64,
    plans: Mutex<HashMap<K, Entry<P>>>,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub evictions: AtomicU64,
    pub invalidations: AtomicU64,
}

/// Counter snapshot for metrics exposition.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
    pub len: usize,
    pub enabled: bool,
}

impl<K: Eq + Hash + Clone, P> PlanCache<K, P> {
    pub fn new(enabled: bool) -> Self {
        Self::with_capacity(enabled, DEFAULT_CAPACITY)
    }

    pub fn with_capacity(enabled: bool, capacity: usize) -> Self {
        PlanCache {
            enabled: AtomicBool::new(enabled),
            capacity: AtomicUsize::new(capacity.max(1)),
            tick: AtomicU64::new(0),
            plans: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, SeqCst);
        if !on {
            self.plans.lock().clear();
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(SeqCst)
    }

    /// Change the capacity bound; evicts LRU entries if the cache is
    /// already over the new bound.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity.max(1), SeqCst);
        let mut plans = self.plans.lock();
        self.evict_to_capacity(&mut plans);
    }

    pub fn capacity(&self) -> usize {
        self.capacity.load(SeqCst)
    }

    /// Fetch the prepared plan, building it with `prepare` on a miss (or
    /// always, when disabled — e.g. the "No Function Cache" column of
    /// Table 2, or the peer's compile-every-query fidelity mode).
    pub fn get_or_prepare<E>(
        &self,
        key: K,
        prepare: impl FnOnce() -> Result<P, E>,
    ) -> Result<Arc<P>, E> {
        if !self.is_enabled() {
            self.misses.fetch_add(1, Relaxed);
            return Ok(Arc::new(prepare()?));
        }
        if let Some(plan) = self.get(&key) {
            return Ok(plan);
        }
        self.misses.fetch_add(1, Relaxed);
        // Build outside the lock: preparation may be slow (a parse), and
        // two racing builders of the same key are harmless — last insert
        // wins, both callers hold a valid Arc.
        let plan = Arc::new(prepare()?);
        let mut plans = self.plans.lock();
        plans.insert(
            key,
            Entry {
                plan: plan.clone(),
                touched: self.tick.fetch_add(1, Relaxed) + 1,
            },
        );
        self.evict_to_capacity(&mut plans);
        Ok(plan)
    }

    /// The prepared plan if the cache holds it, counted as a hit; `None`
    /// builds nothing and counts nothing.
    pub fn get(&self, key: &K) -> Option<Arc<P>> {
        if !self.is_enabled() {
            return None;
        }
        let mut plans = self.plans.lock();
        let e = plans.get_mut(key)?;
        e.touched = self.tick.fetch_add(1, Relaxed) + 1;
        self.hits.fetch_add(1, Relaxed);
        Some(e.plan.clone())
    }

    /// Peek without counting or inserting (tests/diagnostics).
    pub fn peek(&self, key: &K) -> Option<Arc<P>> {
        self.plans.lock().get(key).map(|e| e.plan.clone())
    }

    fn evict_to_capacity(&self, plans: &mut HashMap<K, Entry<P>>) {
        let cap = self.capacity.load(SeqCst);
        while plans.len() > cap {
            let Some(victim) = plans
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            plans.remove(&victim);
            self.evictions.fetch_add(1, Relaxed);
        }
    }

    /// Explicit invalidation (e.g. on a module-registry change): drops
    /// every entry and counts one invalidation event.
    pub fn invalidate(&self) {
        self.invalidations.fetch_add(1, Relaxed);
        self.plans.lock().clear();
    }

    /// Drop all entries without counting an invalidation (harness reset).
    pub fn clear(&self) {
        self.plans.lock().clear();
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
            invalidations: self.invalidations.load(Relaxed),
            len: self.len(),
            enabled: self.is_enabled(),
        }
    }

    pub fn len(&self) -> usize {
        self.plans.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.plans.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn key(m: &str) -> FnKey {
        (m.to_string(), "f".to_string(), 1)
    }

    #[test]
    fn caches_when_enabled() {
        let c: FunctionCache<u32> = FunctionCache::new(true);
        let mut builds = 0;
        for _ in 0..3 {
            let v = c
                .get_or_prepare::<Infallible>(key("m"), || {
                    builds += 1;
                    Ok(42)
                })
                .unwrap();
            assert_eq!(*v, 42);
        }
        assert_eq!(builds, 1);
        assert_eq!(c.hits.load(Relaxed), 2);
        assert_eq!(c.misses.load(Relaxed), 1);
    }

    #[test]
    fn rebuilds_when_disabled() {
        let c: FunctionCache<u32> = FunctionCache::new(false);
        let mut builds = 0;
        for _ in 0..3 {
            c.get_or_prepare::<Infallible>(key("m"), || {
                builds += 1;
                Ok(1)
            })
            .unwrap();
        }
        assert_eq!(builds, 3);
        assert!(c.is_empty());
    }

    #[test]
    fn disabling_clears() {
        let c: FunctionCache<u32> = FunctionCache::new(true);
        c.get_or_prepare::<Infallible>(key("m"), || Ok(1)).unwrap();
        assert_eq!(c.len(), 1);
        c.set_enabled(false);
        assert!(c.is_empty());
    }

    #[test]
    fn distinct_keys_distinct_plans() {
        let c: FunctionCache<String> = FunctionCache::new(true);
        let a = c
            .get_or_prepare::<Infallible>(key("a"), || Ok("A".into()))
            .unwrap();
        let b = c
            .get_or_prepare::<Infallible>(key("b"), || Ok("B".into()))
            .unwrap();
        assert_ne!(*a, *b);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let c: PlanCache<u32, u32> = PlanCache::with_capacity(true, 3);
        for k in 0..3 {
            c.get_or_prepare::<Infallible>(k, || Ok(k)).unwrap();
        }
        // touch 0 so 1 becomes the LRU victim
        c.get_or_prepare::<Infallible>(0, || Ok(99)).unwrap();
        c.get_or_prepare::<Infallible>(3, || Ok(3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.evictions.load(Relaxed), 1);
        assert!(c.peek(&1).is_none(), "LRU entry evicted");
        assert!(c.peek(&0).is_some());
        assert!(c.peek(&2).is_some());
        assert!(c.peek(&3).is_some());
    }

    #[test]
    fn shrinking_capacity_evicts() {
        let c: PlanCache<u32, u32> = PlanCache::with_capacity(true, 8);
        for k in 0..8 {
            c.get_or_prepare::<Infallible>(k, || Ok(k)).unwrap();
        }
        c.set_capacity(2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions.load(Relaxed), 6);
        // the two most recently inserted survive
        assert!(c.peek(&6).is_some());
        assert!(c.peek(&7).is_some());
    }

    #[test]
    fn invalidate_clears_and_counts() {
        let c: PlanCache<u32, u32> = PlanCache::new(true);
        c.get_or_prepare::<Infallible>(1, || Ok(1)).unwrap();
        let held = c.get_or_prepare::<Infallible>(2, || Ok(2)).unwrap();
        c.invalidate();
        assert!(c.is_empty());
        assert_eq!(c.invalidations.load(Relaxed), 1);
        // plans already handed out stay usable
        assert_eq!(*held, 2);
        // re-fetch is a miss
        c.get_or_prepare::<Infallible>(2, || Ok(2)).unwrap();
        assert_eq!(c.stats().misses, 3);
    }

    #[test]
    fn hit_rate_snapshot() {
        let c: PlanCache<u32, u32> = PlanCache::new(true);
        assert_eq!((c.stats().hits, c.stats().misses), (0, 0));
        c.get_or_prepare::<Infallible>(1, || Ok(1)).unwrap();
        for _ in 0..9 {
            c.get_or_prepare::<Infallible>(1, || Ok(1)).unwrap();
        }
        let s = c.stats();
        assert_eq!(s.hits, 9);
        assert_eq!(s.misses, 1);
    }
}
