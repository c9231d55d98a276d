//! How a number is taken: raw samples, equal windows, medians.
//!
//! Every timed phase is cut into [`WINDOWS`] equal windows; a metric is
//! the median of its per-window values, so one scheduler hiccup moves one
//! window and not the reported number. A percentile is only trusted when
//! at least [`MIN_BEYOND`] samples lie beyond it.

/// Windows per timed phase.
pub const WINDOWS: usize = 10;
/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending slice
/// (0 for an empty slice).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Quantile `q` of `values`, in any order.
pub fn quantile_of(mut values: Vec<f64>, q: f64) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    quantile_sorted(&values, q)
}

/// Median of `values`, in any order.
pub fn median_of(values: Vec<f64>) -> f64 {
    quantile_of(values, 0.5)
}

/// Whether `n` samples support percentile `q`: at least [`MIN_BEYOND`]
/// of them must lie beyond it.
pub fn percentile_eligible(n: usize, q: f64) -> bool {
    // `1.0 - 0.9` is a hair under 0.1; the epsilon keeps 100 samples at p90.
    ((1.0 - q) * n as f64 + 1e-9).floor() as usize >= MIN_BEYOND
}

/// The highest percentile of a fixed ladder that `n` samples support, the
/// median when they support none: what a tail metric reports on a
/// workload that lands a fixed, small number of operations.
pub fn supported_tail(n: usize) -> f64 {
    [0.99, 0.95, 0.9, 0.8, 0.7, 0.6]
        .into_iter()
        .find(|&q| percentile_eligible(n, q))
        .unwrap_or(0.5)
}

/// A metric value with the evidence behind it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Median of the per-window values — the reported number.
    pub value: f64,
    /// First quartile of the per-window values.
    pub q1: f64,
    /// Third quartile of the per-window values.
    pub q3: f64,
    /// Samples behind the value, over all windows.
    pub samples: usize,
    /// Whether every window had enough samples for its percentile.
    pub eligible: bool,
}

impl Summary {
    /// A value taken once (a count, a size, a single timing).
    pub fn single(value: f64) -> Self {
        Summary {
            value,
            q1: value,
            q3: value,
            samples: 1,
            eligible: true,
        }
    }

    /// Median and quartiles of per-window `values`, `samples` in total.
    pub fn of_windows(mut values: Vec<f64>, samples: usize, eligible: bool) -> Self {
        values.sort_unstable_by(f64::total_cmp);
        Summary {
            value: quantile_sorted(&values, 0.5),
            q1: quantile_sorted(&values, 0.25),
            q3: quantile_sorted(&values, 0.75),
            samples,
            eligible,
        }
    }

    /// The same summary in another unit.
    pub fn scaled(self, factor: f64) -> Self {
        Summary {
            value: self.value * factor,
            q1: self.q1 * factor,
            q3: self.q3 * factor,
            ..self
        }
    }

    /// Median and quartiles over raw `values`, each its own sample.
    pub fn of_samples(values: Vec<f64>) -> Self {
        let n = values.len();
        Self::of_windows(values, n, n > 0)
    }
}

/// Timestamped samples of one phase: `(offset into the phase in ns,
/// value)`, cut into windows after the fact.
#[derive(Debug, Default)]
pub struct PhaseSamples {
    samples: Vec<(u64, f64)>,
}

impl PhaseSamples {
    /// An empty recorder with room for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        PhaseSamples {
            samples: Vec::with_capacity(capacity),
        }
    }

    /// Records `value` at `offset_ns` into the phase.
    pub fn push(&mut self, offset_ns: u64, value: f64) {
        self.samples.push((offset_ns, value));
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The recorded values, in recording order.
    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, v)| v).collect()
    }

    /// Splits the samples into [`WINDOWS`] equal windows over
    /// `[0, phase_ns)`; a sample at or past the end lands in the last.
    pub fn windows(&self, phase_ns: u64) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); WINDOWS];
        let width = (phase_ns / WINDOWS as u64).max(1);
        for &(at, v) in &self.samples {
            out[((at / width) as usize).min(WINDOWS - 1)].push(v);
        }
        out
    }

    /// Per-window quantiles, one summary per `q` of `qs`: each the median
    /// over windows of that window's quantile. Empty windows are left
    /// out; a summary is eligible only when every window had enough
    /// samples beyond its `q`. The samples are windowed and sorted once.
    pub fn window_quantiles(&self, phase_ns: u64, qs: &[f64]) -> Vec<Summary> {
        let mut windows = self.windows(phase_ns);
        for w in &mut windows {
            w.sort_unstable_by(f64::total_cmp);
        }
        qs.iter()
            .map(|&q| {
                let eligible = windows.iter().all(|w| percentile_eligible(w.len(), q));
                let values = windows
                    .iter()
                    .filter(|w| !w.is_empty())
                    .map(|w| quantile_sorted(w, q))
                    .collect();
                Summary::of_windows(values, self.len(), eligible)
            })
            .collect()
    }

    /// [`PhaseSamples::window_quantiles`] for a single `q`.
    pub fn window_quantile(&self, phase_ns: u64, q: f64) -> Summary {
        self.window_quantiles(phase_ns, &[q])[0]
    }

    /// Per-window completions per second, summarised over windows.
    pub fn window_rate(&self, phase_ns: u64) -> Summary {
        let width_s = phase_ns as f64 / WINDOWS as f64 / 1e9;
        let values = self
            .windows(phase_ns)
            .iter()
            .map(|w| w.len() as f64 / width_s)
            .collect();
        Summary::of_windows(values, self.len(), true)
    }
}

/// Interquartile range over the median — the relative spread the
/// acceptance rule compares with a metric's bound. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (exclusive method).
pub fn relative_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let exclusive = |p: f64| {
        let pos = p * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = quantile_sorted(&v, 0.5);
    if med == 0.0 {
        return 0.0;
    }
    ((exclusive(0.75) - exclusive(0.25)) / med).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 needs 1000 samples, p95 200, p90 100, p50 20.
        assert!(!percentile_eligible(999, 0.99));
        assert!(percentile_eligible(1000, 0.99));
        assert!(!percentile_eligible(199, 0.95));
        assert!(percentile_eligible(200, 0.95));
        assert!(percentile_eligible(100, 0.90));
        assert!(!percentile_eligible(19, 0.5));
        assert!(percentile_eligible(20, 0.5));
        // The deltas a run lands: 102 on `lifecycle-storm`, 60 by the
        // `mixed-churn` writer, 34 in a closing cycle.
        assert_eq!(supported_tail(102), 0.9);
        assert_eq!(supported_tail(60), 0.8);
        assert_eq!(supported_tail(34), 0.7);
        assert_eq!(supported_tail(18), 0.5);
    }

    #[test]
    fn window_median_ignores_one_bad_window() {
        let mut s = PhaseSamples::default();
        // 10 windows of 100 ns each; window 3 is 100× slower.
        for w in 0..10u64 {
            for i in 0..30u64 {
                let v = if w == 3 { 1000.0 } else { 10.0 };
                s.push(w * 100 + i, v);
            }
        }
        let p50 = s.window_quantile(1000, 0.5);
        assert_eq!(p50.value, 10.0);
        assert_eq!(p50.samples, 300);
        assert!(p50.eligible);
        // p99 of 30 samples per window is not supported.
        assert!(!s.window_quantile(1000, 0.99).eligible);
    }

    #[test]
    fn windows_are_equal_and_late_samples_land_in_the_last() {
        let mut s = PhaseSamples::default();
        s.push(0, 1.0);
        s.push(99, 2.0);
        s.push(100, 3.0);
        s.push(999, 4.0);
        s.push(5_000, 5.0);
        let w = s.windows(1000);
        assert_eq!(w.len(), WINDOWS);
        assert_eq!(w[0], vec![1.0, 2.0]);
        assert_eq!(w[1], vec![3.0]);
        assert_eq!(w[9], vec![4.0, 5.0]);
    }

    #[test]
    fn window_rate_counts_completions_per_second() {
        let mut s = PhaseSamples::default();
        // 1 s phase, 100 ms windows, 50 completions in each.
        for w in 0..10u64 {
            for i in 0..50u64 {
                s.push(w * 100_000_000 + i, 0.0);
            }
        }
        let r = s.window_rate(1_000_000_000);
        assert!((r.value - 500.0).abs() < 1e-9);
        assert_eq!(r.samples, 500);
    }

    #[test]
    fn relative_spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[3.0]), 0.0);
    }
}
