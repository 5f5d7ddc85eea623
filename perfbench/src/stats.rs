//! Small statistics helpers: exact sample quantiles, medians, and deltas
//! of the server's histogram snapshots.

use obs::{MetricSet, SpanStat};

/// Exact quantile of `xs` by the nearest-rank rule (`0 ≤ p ≤ 1`); 0 for
/// an empty sample.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64) * p).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when the base is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Counter and histogram differences between two `STATS` snapshots of
/// one server: what happened during the phase they bracket.
pub struct Delta<'a> {
    before: &'a MetricSet,
    after: &'a MetricSet,
}

impl<'a> Delta<'a> {
    /// The change from `before` to `after`.
    pub fn new(before: &'a MetricSet, after: &'a MetricSet) -> Self {
        Delta { before, after }
    }

    /// Growth of counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name))
    }

    /// Observations of span `name` made between the snapshots.
    pub fn span(&self, name: &str) -> SpanStat {
        let mut out = SpanStat::default();
        let Some(after) = self.after.span(name) else {
            return out;
        };
        let empty = SpanStat::default();
        let before = self.before.span(name).unwrap_or(&empty);
        for (i, (a, b)) in after.buckets.iter().zip(before.buckets.iter()).enumerate() {
            out.buckets[i] = a.saturating_sub(*b);
        }
        out.count = after.count.saturating_sub(before.count);
        out.total_ns = after.total_ns.saturating_sub(before.total_ns);
        out.min_ns = 0;
        out.max_ns = after.max_ns;
        out
    }

    /// Quantile `p` of span `name` within the phase, in microseconds
    /// (histogram upper bound, at most 6.25% above the exact value).
    pub fn span_quantile_us(&self, name: &str, p: f64) -> f64 {
        self.span(name).quantile_ns(p) as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn delta_subtracts_histograms() {
        let mut a = MetricSet::new();
        a.observe_ns("s", 1_000);
        a.add("c", 2);
        let mut b = a.clone();
        b.observe_ns("s", 1_000_000);
        b.add("c", 3);
        let d = Delta::new(&a, &b);
        assert_eq!(d.counter("c"), 3);
        let s = d.span("s");
        assert_eq!(s.count, 1);
        assert!(s.quantile_ns(0.5) >= 1_000_000);
    }
}
