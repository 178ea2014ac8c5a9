//! Order statistics of latency samples.
//!
//! A tail percentile is reported only when at least [`MIN_BEYOND`]
//! samples lie beyond it; below that it is one or two unlucky samples,
//! not a property of the system.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` (0–100] in `n` sorted
/// samples: the smallest sample with at least `p`% of samples at or
/// below it.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // `ceil(p/100 · n)` computed in integers where p is a whole number of
    // hundredths, so 99% of 1000 is exactly rank 990, not 990.0000001.
    let hundredths = (p * 100.0).round() as usize;
    let k = (hundredths * n).div_ceil(10_000).max(1);
    k - 1
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank(n, p)
}

/// Percentile `p` of `sorted` (ascending), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it. The median needs no tail, so
/// `p = 50` is `Some` for any non-empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    if p > 50.0 && beyond(sorted.len(), p) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank(sorted.len(), p)])
}

/// Sorts `values` and returns their median (mean of the middle pair for
/// an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Mean of the middle half of `values` (sorted in place): as robust to
/// outliers as the median, but not stuck on one sample's value, so two
/// runs with whole-nanosecond spans do not report identical figures.
pub fn interquartile_mean(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    sort(values);
    let quarter = values.len() / 4;
    let middle = &values[quarter..values.len() - quarter];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Percentile `p` of each window (time slices of one run), then the
/// mean of the middle half of those: one burst of host noise moves one
/// window, not the result, and a host that switches between a fast and a
/// slow state moves the result in proportion to the time spent in each,
/// where a median would jump from one state's value to the other's.
/// `None` when any window fails [`percentile`]'s sample rule.
pub fn windowed(windows: &mut [Vec<f64>], p: f64) -> Option<f64> {
    let mut per_window = Vec::with_capacity(windows.len());
    for w in windows.iter_mut() {
        sort(w);
        per_window.push(percentile(w, p)?);
    }
    (!per_window.is_empty()).then(|| interquartile_mean(&mut per_window))
}

/// A fixed-size uniform sample of a stream (Algorithm R, driven by a
/// seeded splitmix64), so millions of latency samples cost constant
/// memory and do not inflate the process's own peak RSS. Kept values
/// are exact samples.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    rng: u64,
    items: Vec<f64>,
}

impl Reservoir {
    /// An empty reservoir keeping at most `cap` samples.
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            cap: cap.max(1),
            seen: 0,
            rng: seed,
            items: Vec::new(),
        }
    }

    /// Offers one sample.
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(v);
            return;
        }
        self.rng = counterlab::cpu::hash::splitmix64(self.rng);
        let slot = self.rng % self.seen;
        if let Some(item) = usize::try_from(slot)
            .ok()
            .and_then(|s| self.items.get_mut(s))
        {
            *item = v;
        }
    }

    /// Samples offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept samples (all of them while `seen <= cap`).
    pub fn into_samples(self) -> Vec<f64> {
        self.items
    }
}

/// Sorts `values` in place for [`percentile`].
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}
