//! Log-linear atomic histogram, HDR-style: each power-of-two magnitude
//! is split into [`SUB_BUCKETS`] linear sub-buckets, so any recorded
//! value lands in a bucket whose width is at most `1/16` of its lower
//! bound (≤ 6.25 % relative error) while the whole table is a fixed
//! 1024 × `AtomicU64` ≈ 8 KiB regardless of range, allocated by the first
//! sample (a histogram nothing records into costs its five counters).
//! Recording is relaxed `fetch_add`s; snapshots and merges never block
//! recorders.
//!
//! Units are the caller's business: the same type records microseconds
//! (latencies), bytes (message sizes) and plain counts (batch sizes).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Linear sub-buckets per power-of-two magnitude.
pub const SUB_BUCKETS: usize = 16;
const SUB_BITS: u32 = 4; // log2(SUB_BUCKETS)
/// Total bucket count: indices 0..16 are exact (value == index), the
/// remaining magnitudes (4..=63) contribute 16 buckets each; 1024
/// rounds the 976 reachable slots up to a power of two.
pub const BUCKETS: usize = 1024;

/// Map a value to its bucket index. Values below 16 are exact; above,
/// the top `SUB_BITS` bits after the leading one select the
/// sub-bucket within the value's magnitude.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let m = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = (v >> (m - SUB_BITS)) & (SUB_BUCKETS as u64 - 1);
    ((m - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub as usize
}

/// Inclusive upper edge of bucket `i` — the value reported for any
/// sample that landed in it (so reported quantiles never under-state).
pub fn bucket_high(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let hi = (i / SUB_BUCKETS) as u32;
    let sub = (i % SUB_BUCKETS) as u64;
    let m = hi + SUB_BITS - 1;
    let width = 1u64 << (m - SUB_BITS);
    (1u64 << m) + sub * width + (width - 1)
}

/// Point-in-time view of a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

impl HistSnapshot {
    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The histogram itself. `min`/`max` are tracked exactly (not at
/// bucket granularity) via `fetch_min`/`fetch_max`.
pub struct Histogram {
    buckets: OnceLock<Box<[AtomicU64; BUCKETS]>>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: OnceLock::new(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn buckets(&self) -> &[AtomicU64; BUCKETS] {
        self.buckets
            .get_or_init(|| Box::new([const { AtomicU64::new(0) }; BUCKETS]))
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets()[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in whole microseconds.
    #[inline]
    pub fn record_micros(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Fold another histogram's buckets into this one. Snapshot-equal
    /// to having recorded both value streams into a single histogram.
    pub fn merge(&self, other: &Histogram) {
        let Some(theirs) = other.buckets.get() else {
            return;
        };
        for (mine, theirs) in self.buckets().iter().zip(theirs.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The value at quantile `q` (0 < q ≤ 1): the upper edge of the
    /// first bucket whose cumulative count reaches `ceil(q·count)`, so
    /// at least a `q` fraction of recorded samples are ≤ the result.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        let Some(buckets) = self.buckets.get().filter(|_| count > 0) else {
            return 0;
        };
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, n) in buckets.iter().enumerate() {
            seen += n.load(Ordering::Relaxed);
            if seen >= rank {
                // never report past the true maximum
                return bucket_high(i).min(self.max.load(Ordering::Relaxed));
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return HistSnapshot::default();
        }
        HistSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Lower edge of bucket `i`, computed independently of `bucket_high`
    /// so the tiling test below checks the two against each other.
    fn bucket_low(i: usize) -> u64 {
        if i < SUB_BUCKETS {
            return i as u64;
        }
        let hi = (i / SUB_BUCKETS) as u32;
        let sub = (i % SUB_BUCKETS) as u64;
        let m = hi + SUB_BITS - 1;
        (1u64 << m) + sub * (1u64 << (m - SUB_BITS))
    }

    #[test]
    fn small_values_are_exact_buckets() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize, "value {v}");
            assert_eq!(bucket_low(v as usize), v);
            assert_eq!(bucket_high(v as usize), v);
        }
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        // every value maps into a bucket whose [low, high] contains it,
        // and bucket edges tile the range without gaps or overlaps
        let mut prev_high = None;
        for i in 0..BUCKETS {
            let lo = bucket_low(i);
            let hi = bucket_high(i);
            assert!(lo <= hi, "bucket {i}: low {lo} > high {hi}");
            if let Some(p) = prev_high {
                if lo == 0 && i > 0 {
                    continue; // unreachable tail buckets past u64 range
                }
                assert_eq!(lo, p + 1, "gap before bucket {i}");
            }
            prev_high = Some(hi);
            if hi == u64::MAX {
                break;
            }
        }
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            65_535,
            65_536,
            1 << 30,
            (1 << 40) + 12345,
            u64::MAX / 2,
        ] {
            let i = bucket_index(v);
            assert!(
                bucket_low(i) <= v && v <= bucket_high(i),
                "value {v} outside bucket {i} [{}, {}]",
                bucket_low(i),
                bucket_high(i)
            );
        }
    }

    #[test]
    fn bucket_relative_error_bounded() {
        // bucket width / lower-bound ≤ 1/16 for all values ≥ 16
        for v in [16u64, 100, 999, 4096, 1 << 20, (1 << 33) + 7] {
            let i = bucket_index(v);
            let width = bucket_high(i) - bucket_low(i) + 1;
            assert!(
                (width as f64) / (bucket_low(i) as f64) <= 1.0 / 16.0 + 1e-9,
                "value {v}: width {width} low {}",
                bucket_low(i)
            );
        }
    }

    #[test]
    fn p99_of_known_distribution_within_bucket_error() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // true p99 = 990; the reported value is the containing bucket's
        // upper edge, within the 6.25 % log-linear error bound
        let true_p99 = 990.0;
        assert!(
            (s.p99 as f64 - true_p99).abs() / true_p99 <= 1.0 / 16.0,
            "p99 {} vs true {true_p99}",
            s.p99
        );
        assert!(s.p99 as f64 >= true_p99, "quantile must not under-state");
        // same for p50 (true 500)
        assert!(
            (s.p50 as f64 - 500.0).abs() / 500.0 <= 1.0 / 16.0,
            "p50 {}",
            s.p50
        );
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * per_thread + i);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, threads * per_thread);
        let expect_sum: u64 = (0..threads * per_thread).sum();
        assert_eq!(s.sum, expect_sum);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, threads * per_thread - 1);
    }

    #[test]
    fn merge_equals_single_histogram() {
        let a = Histogram::new();
        let b = Histogram::new();
        let one = Histogram::new();
        for v in [0u64, 1, 5, 16, 17, 99, 1_000, 123_456, 1 << 30] {
            a.record(v);
            one.record(v);
        }
        for v in [2u64, 3, 64, 65_536, 7_777_777, u64::MAX / 3] {
            b.record(v);
            one.record(v);
        }
        a.merge(&b);
        assert_eq!(a.snapshot(), one.snapshot());
    }

    #[test]
    fn an_unrecorded_histogram_merges_as_empty() {
        let (a, empty) = (Histogram::new(), Histogram::new());
        a.record(7);
        let before = a.snapshot();
        a.merge(&empty);
        assert_eq!(a.snapshot(), before);
        empty.merge(&a);
        assert_eq!(empty.snapshot(), before);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistSnapshot::default());
        assert_eq!(s.mean(), 0.0);
    }
}
