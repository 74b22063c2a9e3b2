//! Streaming statistics used to summarise simulation output: Welford
//! mean/variance, log-bucketed histograms with percentile queries, and
//! fixed-bin time series (the building block for the paper's per-hour and
//! per-day figures).

use crate::time::{SimDuration, SimTime};

/// Welford's online algorithm for mean and variance; numerically stable and
/// O(1) per observation.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// New empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Count of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Minimum observation (+inf if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (-inf if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

/// A log-bucketed histogram over positive values with bounded relative error
/// on percentile queries (HdrHistogram-style, base-1.05 buckets ≈ 5% error).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `buckets[i]` counts values in `[min * base^i, min * base^(i+1))`.
    buckets: Vec<u64>,
    underflow: u64,
    count: u64,
    min_value: f64,
    log_base: f64,
    welford: Welford,
}

impl Histogram {
    /// Histogram spanning `[min_value, max_value]` with ~5% relative
    /// bucket width. Values below `min_value` land in an underflow bucket;
    /// values above `max_value` clamp into the top bucket.
    pub fn new(min_value: f64, max_value: f64) -> Self {
        assert!(min_value > 0.0 && max_value > min_value);
        let base: f64 = 1.05;
        let nbuckets = ((max_value / min_value).ln() / base.ln()).ceil() as usize + 1;
        Histogram {
            buckets: vec![0; nbuckets],
            underflow: 0,
            count: 0,
            min_value,
            log_base: base.ln(),
            welford: Welford::new(),
        }
    }

    /// Histogram suited to response-time measurements: 100 µs .. 600 s.
    pub fn for_latency() -> Self {
        Histogram::new(1e-4, 600.0)
    }

    /// Record one value.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.welford.push(x);
        if x < self.min_value {
            self.underflow += 1;
            return;
        }
        let idx = ((x / self.min_value).ln() / self.log_base) as usize;
        let idx = idx.min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of raw observations (exact, via Welford).
    pub fn mean(&self) -> f64 {
        self.welford.mean()
    }

    /// Exact maximum of raw observations.
    pub fn max(&self) -> f64 {
        self.welford.max()
    }

    /// Exact minimum of raw observations.
    pub fn min(&self) -> f64 {
        self.welford.min()
    }

    /// Percentile query, `q` in `[0, 100]`; returns the geometric midpoint of
    /// the bucket containing the q-th observation (≈5% relative error).
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 100.0);
        let target = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return self.min_value;
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let lo = self.min_value * (self.log_base * i as f64).exp();
                let hi = self.min_value * (self.log_base * (i + 1) as f64).exp();
                return (lo * hi).sqrt();
            }
        }
        self.welford.max()
    }

    /// Median shorthand.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Sum of raw observations (exact, via Welford).
    pub fn sum(&self) -> f64 {
        self.welford.sum()
    }

    /// Occupied buckets as `(upper_bound, cumulative_count)` pairs in
    /// ascending bound order — the shape a Prometheus histogram exporter
    /// needs (`le` labels). Underflow observations appear under a bound of
    /// `min_value`; empty buckets are skipped.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = self.underflow;
        if self.underflow > 0 {
            out.push((self.min_value, cum));
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                cum += c;
                let hi = self.min_value * (self.log_base * (i + 1) as f64).exp();
                out.push((hi, cum));
            }
        }
        out
    }

    /// Fraction of observations strictly above `x` (bucket-resolution:
    /// the bucket containing `x` counts as below).
    pub fn fraction_above(&self, x: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if x < self.min_value {
            return (self.count - self.underflow) as f64 / self.count as f64;
        }
        let idx = ((x / self.min_value).ln() / self.log_base) as usize;
        let above: u64 = self.buckets.iter().skip(idx + 1).sum();
        above as f64 / self.count as f64
    }

    /// Merge another histogram with identical configuration.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.buckets.len(), other.buckets.len());
        assert_eq!(self.min_value, other.min_value);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.count += other.count;
        self.welford.merge(&other.welford);
    }
}

/// A time series of counters with fixed-width bins, used for per-minute /
/// per-hour / per-day aggregation (Figures 18, 20, 21).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bin_width: SimDuration,
    bins: Vec<f64>,
}

impl TimeSeries {
    /// Series covering `[0, horizon)` split into `bin_width` bins.
    pub fn new(bin_width: SimDuration, horizon: SimDuration) -> Self {
        assert!(bin_width.as_micros() > 0);
        let n = horizon.as_micros().div_ceil(bin_width.as_micros()) as usize;
        TimeSeries {
            bin_width,
            bins: vec![0.0; n],
        }
    }

    /// Add `amount` at instant `t`. Out-of-horizon samples clamp into the
    /// last bin (the simulation may slightly overrun its horizon while
    /// draining in-flight work).
    pub fn add(&mut self, t: SimTime, amount: f64) {
        if self.bins.is_empty() {
            return;
        }
        let idx = (t.as_micros() / self.bin_width.as_micros()) as usize;
        let idx = idx.min(self.bins.len() - 1);
        self.bins[idx] += amount;
    }

    /// Increment the bin at `t` by one.
    pub fn incr(&mut self, t: SimTime) {
        self.add(t, 1.0);
    }

    /// The bin values.
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Bin width.
    pub fn bin_width(&self) -> SimDuration {
        self.bin_width
    }

    /// Sum over all bins.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Largest bin value and its index.
    pub fn peak(&self) -> (usize, f64) {
        self.bins.iter().copied().enumerate().fold(
            (0, 0.0),
            |best, (i, v)| if v > best.1 { (i, v) } else { best },
        )
    }

    /// Re-bin into wider bins, summing (e.g. minutes → hours).
    pub fn rebin(&self, factor: usize) -> TimeSeries {
        assert!(factor > 0);
        let bins = self
            .bins
            .chunks(factor)
            .map(|c| c.iter().sum())
            .collect::<Vec<f64>>();
        TimeSeries {
            bin_width: self.bin_width * factor as u64,
            bins,
        }
    }

    /// Merge a series with identical geometry.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(self.bin_width, other.bin_width);
        assert_eq!(self.bins.len(), other.bins.len());
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
    }
}

/// Render a simple ASCII bar chart for a labelled series — the `reproduce`
/// harness uses this to print Figure 18/20/21-style charts.
pub fn ascii_bars(labels: &[String], values: &[f64], width: usize) -> String {
    assert_eq!(labels.len(), values.len());
    let max = values.iter().cloned().fold(0.0_f64, f64::max).max(1e-12);
    let label_w = labels.iter().map(|l| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (l, v) in labels.iter().zip(values) {
        let n = ((v / max) * width as f64).round() as usize;
        out.push_str(&format!(
            "{l:>label_w$} | {bar:<width$} {v:.2}\n",
            bar = "#".repeat(n)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_basic_moments() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
        assert!((w.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        let before = a.mean();
        a.merge(&Welford::new());
        assert_eq!(a.mean(), before);
        let mut empty = Welford::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 1);
    }

    #[test]
    fn histogram_percentiles_within_tolerance() {
        let mut h = Histogram::new(0.001, 100.0);
        for i in 1..=10_000 {
            h.record(i as f64 / 100.0); // 0.01 .. 100, uniform
        }
        let p50 = h.percentile(50.0);
        assert!((p50 - 50.0).abs() / 50.0 < 0.06, "p50 {p50}");
        let p99 = h.percentile(99.0);
        assert!((p99 - 99.0).abs() / 99.0 < 0.06, "p99 {p99}");
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = Histogram::for_latency();
        for x in [0.1, 0.2, 0.3] {
            h.record(x);
        }
        assert!((h.mean() - 0.2).abs() < 1e-12);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn histogram_handles_out_of_range() {
        let mut h = Histogram::new(1.0, 10.0);
        h.record(0.5); // underflow
        h.record(100.0); // clamps high
        assert_eq!(h.count(), 2);
        assert!(h.percentile(10.0) <= 1.0 + 1e-9);
        assert!(h.percentile(99.0) >= 9.0);
    }

    #[test]
    fn fraction_above_counts_the_tail() {
        let mut h = Histogram::new(0.1, 100.0);
        for i in 1..=100 {
            h.record(i as f64);
        }
        let frac = h.fraction_above(30.0);
        assert!((frac - 0.70).abs() < 0.06, "frac {frac}");
        assert_eq!(h.fraction_above(1000.0), 0.0);
        assert_eq!(h.fraction_above(0.01), 1.0);
        assert_eq!(Histogram::new(1.0, 2.0).fraction_above(1.5), 0.0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(1.0, 100.0);
        let mut b = Histogram::new(1.0, 100.0);
        a.record(2.0);
        b.record(50.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.percentile(99.0) > 40.0);
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        let h = Histogram::for_latency();
        assert_eq!(h.percentile(50.0), 0.0);
        assert!(h.cumulative_buckets().is_empty());
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn cumulative_buckets_cover_all_observations() {
        let mut h = Histogram::new(1.0, 100.0);
        h.record(0.5); // underflow
        for i in 1..=50 {
            h.record(i as f64);
        }
        let buckets = h.cumulative_buckets();
        // Monotone bounds and counts, ending at the total.
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(buckets.last().unwrap().1, h.count());
        // Underflow is reported under the min bound.
        assert_eq!(buckets[0], (1.0, 1));
        assert!((h.sum() - (0.5 + (1..=50).sum::<u64>() as f64)).abs() < 1e-9);
    }

    #[test]
    fn timeseries_binning() {
        let mut ts = TimeSeries::new(SimDuration::from_hours(1), SimDuration::from_days(1));
        assert_eq!(ts.bins().len(), 24);
        ts.incr(SimTime::at(1, 5, 30));
        ts.incr(SimTime::at(1, 5, 59));
        ts.add(SimTime::at(1, 23, 59), 10.0);
        assert_eq!(ts.bins()[5], 2.0);
        assert_eq!(ts.bins()[23], 10.0);
        assert_eq!(ts.total(), 12.0);
        assert_eq!(ts.peak(), (23, 10.0));
    }

    #[test]
    fn timeseries_clamps_overrun() {
        let mut ts = TimeSeries::new(SimDuration::from_hours(1), SimDuration::from_hours(2));
        ts.incr(SimTime::from_hours(5)); // beyond horizon
        assert_eq!(ts.bins()[1], 1.0);
    }

    #[test]
    fn timeseries_rebin_preserves_total() {
        let mut ts = TimeSeries::new(SimDuration::from_mins(1), SimDuration::from_hours(2));
        for m in 0..120 {
            ts.add(SimTime::from_mins(m), m as f64);
        }
        let hourly = ts.rebin(60);
        assert_eq!(hourly.bins().len(), 2);
        assert!((hourly.total() - ts.total()).abs() < 1e-9);
        assert_eq!(hourly.bins()[0], (0..60).sum::<u64>() as f64);
    }

    #[test]
    fn ascii_bars_renders() {
        let labels = vec!["a".to_string(), "bb".to_string()];
        let chart = ascii_bars(&labels, &[1.0, 2.0], 10);
        assert!(chart.contains("##########"));
        assert!(chart.contains("#####"));
    }
}
