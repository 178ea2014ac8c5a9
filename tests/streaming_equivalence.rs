//! The equivalence contract of the streaming statistics engine: for any
//! sample, the one-pass accumulators must be interchangeable with the
//! batch routines they replace — exactly where exactness is promised
//! (counts, extremes, in-window quantiles, error contracts), and within
//! the documented tolerances where the P² sketch takes over.
//!
//! Tolerances asserted here are the ones `counterlab::stats::stream`'s
//! module docs commit to:
//!
//! * moments (mean/variance): ≤ 1e-9 relative vs `descriptive::*`,
//!   regardless of shard count or merge order;
//! * quantiles within the exact window: bit-identical to
//!   `quantile_sorted`;
//! * P² beyond the window (n ≥ 50 guaranteed past the test window):
//!   ≤ 5 % of the sample range vs `quantile_sorted`.

use counterlab::stats::descriptive::{self, Summary};
use counterlab::stats::quantile::{quantile_sorted, QuantileMethod};
use counterlab::stats::stream::{P2Quantile, SummaryAccumulator, Welford};
use counterlab::stats::StatsError;
use proptest::prelude::*;

/// Splits `xs` round-robin into `shards` accumulators and merges them in
/// shard order (the engine's lowest-worker-first convention).
fn sharded_welford(xs: &[f64], shards: usize) -> Welford {
    let mut parts: Vec<Welford> = (0..shards).map(|_| Welford::new()).collect();
    for (i, &x) in xs.iter().enumerate() {
        parts[i % shards].push(x);
    }
    let mut merged = parts.remove(0);
    for p in parts {
        merged.merge(p);
    }
    merged
}

fn sharded_summary(xs: &[f64], shards: usize, window: usize) -> SummaryAccumulator {
    let mut parts: Vec<SummaryAccumulator> = (0..shards)
        .map(|_| SummaryAccumulator::new().with_exact_window(window))
        .collect();
    for (i, &x) in xs.iter().enumerate() {
        parts[i % shards].push(x);
    }
    let mut merged = parts.remove(0);
    for p in parts {
        merged.merge(p);
    }
    merged
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * b.abs().max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Welford vs `descriptive::mean`/`variance`: same numbers (1e-9
    /// relative) and the same min/max, for any sample.
    #[test]
    fn welford_matches_descriptive(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
    ) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        prop_assert_eq!(w.count() as usize, xs.len());
        prop_assert!(close(w.mean().unwrap(), descriptive::mean(&xs).unwrap(), 1e-9));
        prop_assert_eq!(w.min().unwrap(), descriptive::min(&xs).unwrap());
        prop_assert_eq!(w.max().unwrap(), descriptive::max(&xs).unwrap());
        if xs.len() >= 2 {
            let bv = descriptive::variance(&xs).unwrap();
            prop_assert!(close(w.variance().unwrap(), bv, 1e-9), "{} vs {}", w.variance().unwrap(), bv);
        } else {
            // The shared n = 1 contract: both paths reject with
            // InvalidParameter.
            prop_assert!(matches!(w.variance(), Err(StatsError::InvalidParameter(_))));
            prop_assert!(matches!(descriptive::variance(&xs), Err(StatsError::InvalidParameter(_))));
        }
    }

    /// Shard-merge invariance: 1, 2 and 4 shards agree on every Welford
    /// statistic to 1e-9 relative (counts and extremes exactly).
    #[test]
    fn welford_shard_count_does_not_matter(
        xs in prop::collection::vec(-1e5f64..1e5, 4..300),
    ) {
        let whole = sharded_welford(&xs, 1);
        for shards in [2usize, 4] {
            let merged = sharded_welford(&xs, shards);
            prop_assert_eq!(merged.count(), whole.count());
            prop_assert_eq!(merged.min().unwrap(), whole.min().unwrap());
            prop_assert_eq!(merged.max().unwrap(), whole.max().unwrap());
            prop_assert!(close(merged.mean().unwrap(), whole.mean().unwrap(), 1e-9));
            prop_assert!(close(merged.variance().unwrap(), whole.variance().unwrap(), 1e-9));
        }
    }

    /// SummaryAccumulator vs `Summary::from_slice` inside the exact
    /// window: quantiles bit-identical, moments to 1e-9 relative.
    #[test]
    fn summary_accumulator_matches_from_slice(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
    ) {
        let mut acc = SummaryAccumulator::new();
        for &x in &xs {
            acc.push(x);
        }
        let s = acc.finish().unwrap();
        let b = Summary::from_slice(&xs).unwrap();
        prop_assert_eq!(s.n(), b.n());
        prop_assert_eq!(s.min(), b.min());
        prop_assert_eq!(s.max(), b.max());
        prop_assert_eq!(s.q1(), b.q1());
        prop_assert_eq!(s.median(), b.median());
        prop_assert_eq!(s.q3(), b.q3());
        prop_assert!(close(s.mean(), b.mean(), 1e-9));
        prop_assert!(close(s.std_dev(), b.std_dev(), 1e-9));
    }

    /// Shard-merge order invariance for the composite accumulator: 1, 2
    /// and 4 shards produce the same `finish()` output (bit-identical
    /// order statistics while the union stays within a shard window;
    /// 1e-9-relative moments always).
    #[test]
    fn summary_shard_count_does_not_matter(
        xs in prop::collection::vec(-1e5f64..1e5, 4..200),
    ) {
        let whole = sharded_summary(&xs, 1, 512).finish().unwrap();
        for shards in [2usize, 4] {
            let merged = sharded_summary(&xs, shards, 512).finish().unwrap();
            prop_assert_eq!(merged.n(), whole.n());
            prop_assert_eq!(merged.q1(), whole.q1());
            prop_assert_eq!(merged.median(), whole.median());
            prop_assert_eq!(merged.q3(), whole.q3());
            prop_assert_eq!(merged.min(), whole.min());
            prop_assert_eq!(merged.max(), whole.max());
            prop_assert!(close(merged.mean(), whole.mean(), 1e-9));
            prop_assert!(close(merged.std_dev(), whole.std_dev(), 1e-9));
        }
    }

    /// P² at its default configuration vs the batch quantile: within the
    /// documented 5%-of-range tolerance for n ≥ 50 (samples above the
    /// 64-observation window exercise the sketch; smaller ones are exact
    /// by construction).
    #[test]
    fn p2_tracks_batch_quantile(
        xs in prop::collection::vec(-1e4f64..1e4, 50..400),
        p in 0.1f64..0.9,
    ) {
        let mut q = P2Quantile::new(p).unwrap();
        for &x in &xs {
            q.push(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let exact = quantile_sorted(&sorted, p, QuantileMethod::Linear).unwrap();
        let range = sorted[sorted.len() - 1] - sorted[0];
        let est = q.finish().unwrap();
        prop_assert!(
            (est - exact).abs() <= 0.05 * range.max(1e-12),
            "p={}: est {} exact {} range {}", p, est, exact, range
        );
    }

}

/// The shared empty-sample contract, spelled out once outside proptest:
/// every batch routine and every streaming accessor returns
/// `EmptyInput` for n = 0.
#[test]
fn empty_sample_contract_is_shared() {
    assert_eq!(descriptive::mean(&[]), Err(StatsError::EmptyInput));
    assert_eq!(descriptive::variance(&[]), Err(StatsError::EmptyInput));
    assert_eq!(Summary::from_slice(&[]).unwrap_err(), StatsError::EmptyInput);
    let w = Welford::new();
    assert_eq!(w.mean(), Err(StatsError::EmptyInput));
    assert_eq!(w.variance(), Err(StatsError::EmptyInput));
    assert_eq!(
        SummaryAccumulator::new().finish().unwrap_err(),
        StatsError::EmptyInput
    );
}

/// The shared non-finite contract: a NaN anywhere poisons both paths
/// identically.
#[test]
fn nonfinite_contract_is_shared() {
    let xs = [1.0, f64::NAN, 2.0];
    assert_eq!(descriptive::mean(&xs), Err(StatsError::NonFinite));
    assert_eq!(Summary::from_slice(&xs).unwrap_err(), StatsError::NonFinite);
    let mut w = Welford::new();
    let mut acc = SummaryAccumulator::new();
    for &x in &xs {
        w.push(x);
        acc.push(x);
    }
    assert_eq!(w.mean(), Err(StatsError::NonFinite));
    assert_eq!(acc.finish().unwrap_err(), StatsError::NonFinite);
}
