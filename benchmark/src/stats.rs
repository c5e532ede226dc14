//! The estimators every reported number goes through. Kept free of I/O so
//! they can be tested on hand-built inputs.

/// Linear-interpolated quantile (`q` in 0..=1) of an unsorted sample; 0 for
/// an empty one.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method) gives them — the driver's spread uses these.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // position k*(n+1)/4 in 1-based ranks, clamped to the sample
        let m = n + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles_exclusive(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Coefficient of variation (population standard deviation ÷ mean).
pub fn cv(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    var.sqrt() / mean
}

/// One measured operation on the round's clock, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpSpan {
    pub start: f64,
    pub end: f64,
}

/// Completed operations per second in each full 1 s window of a round that
/// measured for `span_s` seconds. An operation that straddles a window edge
/// counts in each window by the share of its duration spent there, so a
/// window of six 160 ms operations reads 6.25, not 6 or 7 — without this a
/// slow workload's window median jumps by a whole operation between runs.
pub struct Windows(Vec<f64>);

impl Windows {
    pub fn new(span_s: f64) -> Windows {
        Windows(vec![0.0; span_s.floor() as usize])
    }

    pub fn add(&mut self, op: OpSpan) {
        let dur = op.end - op.start;
        if dur <= 0.0 {
            if let Some(w) = self.0.get_mut(op.end.floor() as usize) {
                *w += 1.0;
            }
            return;
        }
        let first = op.start.floor().max(0.0) as usize;
        let last = (op.end.floor() as usize).min(self.0.len().saturating_sub(1));
        for (w, slot) in self.0.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = op.start.max(w as f64);
            let hi = op.end.min(w as f64 + 1.0);
            if hi > lo {
                *slot += (hi - lo) / dur;
            }
        }
    }

    pub fn rates(self) -> Vec<f64> {
        self.0
    }
}

#[cfg(test)]
fn window_rates(ops: &[OpSpan], span_s: f64) -> Vec<f64> {
    let mut w = Windows::new(span_s);
    for op in ops {
        w.add(*op);
    }
    w.rates()
}

/// How much worse `second` is than `first`, as a share of `first`; negative
/// when it got better. `higher_is_better` flips the direction.
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// The calibrate verdict for one (workload, metric): the two set medians,
/// the larger of the two directions of worsening, and whether it stays
/// within the bound. Identical code ran both sets, so either set may play
/// the parent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SetComparison {
    pub median_a: f64,
    pub median_b: f64,
    pub ratio: f64,
    pub worst: f64,
    pub within: bool,
}

pub fn compare_sets(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> SetComparison {
    let (ma, mb) = (median(a), median(b));
    let worst = worsening(ma, mb, higher_is_better).max(worsening(mb, ma, higher_is_better));
    SetComparison {
        median_a: ma,
        median_b: mb,
        ratio: if ma == 0.0 { 1.0 } else { mb / ma },
        worst,
        within: worst <= bound,
    }
}

/// Seeded generator for id and offset sequences (splitmix64).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// FNV-1a, for the recorded hash of the generated inputs.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_quantile_interpolates() {
        // two rounds pooled: the median of the pool, not of the medians
        let pooled = [1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0];
        assert_eq!(median(&pooled), 10.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.9), 3.7);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles_exclusive(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((q1, q3), (1.5, 12.0));
    }

    #[test]
    fn window_median_prorates_straddling_ops() {
        // 0.4 s operations back to back for 3 s: 2.5 per second exactly
        let ops: Vec<OpSpan> = (0..8)
            .map(|i| OpSpan {
                start: 0.4 * i as f64,
                end: 0.4 * (i + 1) as f64,
            })
            .collect();
        let w = window_rates(&ops, 3.0);
        assert_eq!(w.len(), 3);
        for r in &w {
            assert!((r - 2.5).abs() < 1e-9, "{w:?}");
        }
        assert!((median(&w) - 2.5).abs() < 1e-9);
        // a stall in the middle window shows as a slow window, not a fast one
        let stalled = [
            OpSpan {
                start: 0.0,
                end: 0.5,
            },
            OpSpan {
                start: 0.5,
                end: 1.0,
            },
            OpSpan {
                start: 1.0,
                end: 2.0,
            },
            OpSpan {
                start: 2.0,
                end: 2.5,
            },
            OpSpan {
                start: 2.5,
                end: 3.0,
            },
        ];
        assert_eq!(window_rates(&stalled, 3.0), vec![2.0, 1.0, 2.0]);
        // the partial last second is not a window
        assert_eq!(window_rates(&stalled, 2.9).len(), 2);
    }

    #[test]
    fn set_comparison_is_symmetric_and_directional() {
        let a = [100.0, 101.0, 99.0, 100.0, 102.0];
        let b = [108.0, 109.0, 107.0, 108.0, 110.0];
        let lower = compare_sets(&a, &b, false, 0.10);
        assert_eq!((lower.median_a, lower.median_b), (100.0, 108.0));
        assert!((lower.worst - 0.08).abs() < 1e-12 && lower.within);
        assert!(!compare_sets(&a, &b, false, 0.05).within);
        // swapping the sets cannot turn a failure into a pass
        assert!(!compare_sets(&b, &a, false, 0.05).within);
        // for a higher-is-better metric the drop from b to a is what counts
        let higher = compare_sets(&a, &b, true, 0.10);
        assert!((higher.worst - 8.0 / 108.0).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, true) > 0.0 && worsening(100.0, 90.0, false) < 0.0);
    }

    #[test]
    fn cv_and_seeded_sequence() {
        assert_eq!(cv(&[5.0, 5.0, 5.0]), 0.0);
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
        let (mut a, mut b) = (SplitMix(7), SplitMix(7));
        assert_eq!(a.next(), b.next());
        assert_ne!(SplitMix(7).next(), SplitMix(8).next());
    }
}
