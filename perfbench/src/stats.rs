//! Summary statistics and the accuracy metric.

use std::collections::{BTreeMap, HashMap};
use themis_core::{group_by_error, percent_difference};
use themis_query::QueryResult;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolation quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// How many of `n` samples lie beyond the `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    let at = ((q * n as f64) - 1e-9).ceil().max(0.0) as usize;
    n.saturating_sub(at)
}

/// A latency histogram of fixed size: exact below 512 ns, then 256
/// sub-buckets per power of two (0.4% resolution) up to ~35 minutes. Its
/// memory does not grow with the number of requests, so a faster program
/// never reads as a larger one in `peak_rss_mb`.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

const EXACT: u64 = 512;
const SUB_BITS: u32 = 8;
const MAX_EXP: u32 = 41;

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; EXACT as usize + ((MAX_EXP - 9) << SUB_BITS) as usize],
            n: 0,
        }
    }
}

impl Hist {
    fn index(ns: u64) -> usize {
        if ns < EXACT {
            return ns as usize;
        }
        let e = (63 - ns.leading_zeros()).min(MAX_EXP - 1);
        let sub = (ns >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        EXACT as usize + (((e - 9) << SUB_BITS) as u64 + sub) as usize
    }

    /// The middle of bucket `i`, in ns.
    fn value(i: usize) -> f64 {
        if (i as u64) < EXACT {
            return i as f64;
        }
        let k = i as u64 - EXACT;
        let e = 9 + (k >> SUB_BITS) as u32;
        let sub = k & ((1 << SUB_BITS) - 1);
        let width = 1u64 << (e - SUB_BITS);
        (((1 << SUB_BITS) + sub) * width) as f64 + width as f64 / 2.0
    }

    pub fn record(&mut self, d: std::time::Duration) {
        let i =
            Self::index(d.as_nanos().min(u128::from(u64::MAX)) as u64).min(self.counts.len() - 1);
        self.counts[i] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The `q` quantile in ms (the sample at rank `q·(n−1)`), or `None`
    /// when fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        if self.n == 0 || beyond(self.n as usize, q) < MIN_BEYOND {
            return None;
        }
        let rank = (q * (self.n - 1) as f64).round() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(Self::value(i) / 1e6);
            }
        }
        None
    }
}

/// Completions per second of a closed loop, counted in whole one-second
/// windows (fixed memory, like [`Hist`]).
#[derive(Debug, Clone)]
pub struct Windows {
    counts: Vec<f64>,
}

impl Windows {
    pub fn new(run_s: f64) -> Windows {
        Windows {
            counts: vec![0.0; run_s.ceil() as usize + 1],
        }
    }

    pub fn record(&mut self, since_start: std::time::Duration) {
        if let Some(c) = self.counts.get_mut(since_start.as_secs() as usize) {
            *c += 1.0;
        }
    }

    pub fn merge(&mut self, other: &Windows) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The median count over the whole windows of a `run_s` run, so one
    /// stalled second moves it less than a plain mean would; a plain rate
    /// for runs shorter than a window.
    pub fn rate(&self, run_s: f64) -> f64 {
        let whole = (run_s.floor() as usize).min(self.counts.len());
        if whole == 0 {
            return self.counts.iter().sum::<f64>() / run_s;
        }
        median(&self.counts[..whole])
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Percent difference of one answer against the population's true answer,
/// averaged over its aggregate columns. Scalars use
/// [`percent_difference`]; grouped answers use [`group_by_error`], where a
/// group missing from either side scores the maximum 200.
pub fn answer_error(truth: &QueryResult, estimate: &QueryResult) -> f64 {
    let aggregates = truth.columns.len().saturating_sub(truth.group_arity);
    if aggregates == 0 {
        return 0.0;
    }
    let t = truth.to_map();
    let e = estimate.to_map();
    if truth.group_arity == 0 {
        let (tv, ev) = (t.get(&Vec::new()), e.get(&Vec::new()));
        let per: Vec<f64> = (0..aggregates)
            .map(|c| {
                let at = |m: Option<&Vec<f64>>| m.and_then(|v| v.get(c)).copied().unwrap_or(0.0);
                percent_difference(at(tv), at(ev))
            })
            .collect();
        return mean(&per);
    }
    // group_by_error keys on encoded group ids; give each distinct label
    // tuple one id, in sorted order so the result never depends on hash
    // iteration order.
    let ids: BTreeMap<&Vec<String>, u32> = {
        let mut labels: Vec<&Vec<String>> = t.keys().chain(e.keys()).collect();
        labels.sort();
        labels.dedup();
        labels
            .into_iter()
            .enumerate()
            .map(|(i, l)| (l, i as u32))
            .collect()
    };
    let column = |m: &HashMap<Vec<String>, Vec<f64>>, c: usize| -> HashMap<Vec<u32>, f64> {
        m.iter().map(|(k, v)| (vec![ids[k]], v[c])).collect()
    };
    let per: Vec<f64> = (0..aggregates)
        .map(|c| group_by_error(&column(&t, c), &column(&e, c)))
        .collect();
    mean(&per)
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_query::Value;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        // The median needs only 20 samples.
        assert_eq!(beyond(19, 0.5), 9);
        assert_eq!(beyond(20, 0.5), 10);
    }

    #[test]
    fn rate_is_the_median_window() {
        use std::time::Duration;
        // 10 per second for 4 s, but a stall leaves second 2 with 1.
        let mut w = Windows::new(4.3);
        for i in (0..40).filter(|i| !(20..30).contains(i)) {
            w.record(Duration::from_millis(i * 100));
        }
        w.record(Duration::from_millis(2_500));
        assert_eq!(w.rate(4.3), 10.0);
        // Shorter than a window: a plain rate.
        let mut short = Windows::new(0.5);
        short.record(Duration::from_millis(100));
        short.record(Duration::from_millis(200));
        assert_eq!(short.rate(0.5), 4.0);
    }

    #[test]
    fn histogram_quantiles_within_resolution() {
        use std::time::Duration;
        let mut h = Hist::default();
        // 1..=1000 µs: p50 ≈ 500 µs, p99 ≈ 990 µs.
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.quantile_ms(0.5).expect("1000 samples support p50");
        let p99 = h.quantile_ms(0.99).expect("1000 samples support p99");
        assert!((p50 - 0.5005).abs() / 0.5005 < 0.005, "p50 {p50}");
        assert!((p99 - 0.990).abs() / 0.990 < 0.005, "p99 {p99}");
        // 999 samples cannot support a p99.
        let mut small = Hist::default();
        for us in 1..=999u64 {
            small.record(Duration::from_micros(us));
        }
        assert!(small.quantile_ms(0.99).is_none());
        // Exact below 512 ns; merging adds counts.
        let mut a = Hist::default();
        for _ in 0..20 {
            a.record(Duration::from_nanos(300));
        }
        assert_eq!(a.quantile_ms(0.5), Some(300.0 / 1e6));
        small.merge(&a);
        assert_eq!(small.len(), 1019);
        assert!(small.quantile_ms(0.99).is_some());
    }

    #[test]
    fn quantile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    fn grouped(rows: &[(&str, f64, f64)]) -> QueryResult {
        QueryResult {
            columns: vec!["g".into(), "n".into(), "a".into()],
            rows: rows
                .iter()
                .map(|(g, n, a)| vec![Value::Str(g.to_string()), Value::Num(*n), Value::Num(*a)])
                .collect(),
            group_arity: 1,
        }
    }

    #[test]
    fn err_pct_scalar_and_groups() {
        let scalar = |v| QueryResult {
            columns: vec!["COUNT(*)".into()],
            rows: vec![vec![Value::Num(v)]],
            group_arity: 0,
        };
        assert_eq!(answer_error(&scalar(100.0), &scalar(100.0)), 0.0);
        // 2·|100 − 50| / 150 = 66.67%.
        assert!((answer_error(&scalar(100.0), &scalar(50.0)) - 200.0 / 3.0).abs() < 1e-9);

        let truth = grouped(&[("a", 10.0, 1.0), ("b", 10.0, 2.0)]);
        // Exact answer: zero error in both aggregate columns.
        assert_eq!(answer_error(&truth, &truth), 0.0);
        // Group b missing (200) and a phantom c (200), a exact (0): each
        // column averages 400/3 over the union {a, b, c}.
        let est = grouped(&[("a", 10.0, 1.0), ("c", 5.0, 3.0)]);
        assert!((answer_error(&truth, &est) - 400.0 / 3.0).abs() < 1e-9);
        // Columns average: count column exact, AVG column off by 2·1/3.
        let est = grouped(&[("a", 10.0, 2.0), ("b", 10.0, 2.0)]);
        let avg_col = (percent_difference(1.0, 2.0) + 0.0) / 2.0;
        assert!((answer_error(&truth, &est) - avg_col / 2.0).abs() < 1e-9);
        // The mean over queries is a plain mean.
        assert_eq!(mean(&[0.0, 10.0, 20.0]), 10.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
