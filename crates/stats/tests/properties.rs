//! Property-based tests of the statistics substrate: invariants that must
//! hold for arbitrary data.

use counterlab_stats::prelude::*;
use counterlab_stats::quantile::{quantile, QuantileMethod};
use proptest::prelude::*;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e9..1e9f64, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quantiles_within_data_range(xs in finite_vec(200), p in 0.0..=1.0f64) {
        let q = quantile(&xs, p, QuantileMethod::Linear).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(q >= lo && q <= hi);
    }

    #[test]
    fn quantiles_monotone_in_p(xs in finite_vec(100), a in 0.0..=1.0f64, b in 0.0..=1.0f64) {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let qa = quantile(&xs, a, QuantileMethod::Linear).unwrap();
        let qb = quantile(&xs, b, QuantileMethod::Linear).unwrap();
        prop_assert!(qa <= qb);
    }

    #[test]
    fn boxplot_five_numbers_ordered(xs in finite_vec(300)) {
        let bp = BoxPlot::from_slice(&xs).unwrap();
        prop_assert!(bp.lower_whisker() <= bp.q1());
        prop_assert!(bp.q1() <= bp.median());
        prop_assert!(bp.median() <= bp.q3());
        prop_assert!(bp.q3() <= bp.upper_whisker());
    }

    #[test]
    fn boxplot_outliers_beyond_whiskers(xs in finite_vec(300)) {
        let bp = BoxPlot::from_slice(&xs).unwrap();
        for &o in bp.outliers() {
            prop_assert!(o < bp.lower_whisker() || o > bp.upper_whisker());
        }
        // Outliers plus in-fence data account for every point.
        prop_assert!(bp.outliers().len() <= xs.len());
    }

    #[test]
    fn summary_consistent_with_sorted_data(xs in finite_vec(200)) {
        let s = Summary::from_slice(&xs).unwrap();
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(s.min(), sorted[0]);
        prop_assert_eq!(s.max(), sorted[sorted.len() - 1]);
        prop_assert!(s.mean() >= s.min() - 1e-9 && s.mean() <= s.max() + 1e-9);
        prop_assert!(s.iqr() >= 0.0);
    }

    #[test]
    fn regression_recovers_exact_lines(
        slope in -1e3..1e3f64,
        intercept in -1e6..1e6f64,
        n in 3usize..50,
    ) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| intercept + slope * x).collect();
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        prop_assert!((fit.slope() - slope).abs() < 1e-6 * slope.abs().max(1.0));
        prop_assert!((fit.intercept() - intercept).abs() < 1e-5 * intercept.abs().max(1.0));
        prop_assert!(fit.r_squared() > 1.0 - 1e-9);
    }

    #[test]
    fn regression_residuals_orthogonal(xs_seed in 1u64..1000, n in 5usize..60) {
        // For any data, OLS residuals sum to ~0.
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..n)
            .map(|i| (((i as u64 + xs_seed) * 2654435761) % 1000) as f64)
            .collect();
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        let resid_sum: f64 = xs.iter().zip(&ys).map(|(x, y)| y - fit.predict(*x)).sum();
        prop_assert!(resid_sum.abs() < 1e-6 * n as f64, "sum = {resid_sum}");
    }

    #[test]
    fn kde_density_nonnegative(xs in finite_vec(60), at in -1e9..1e9f64) {
        let kde = Kde::from_slice(&xs).unwrap();
        prop_assert!(kde.density(at) >= 0.0);
        prop_assert!(kde.density(at).is_finite());
    }

    #[test]
    fn f_distribution_cdf_bounds(d1 in 1.0..50.0f64, d2 in 1.0..50.0f64, x in 0.0..100.0f64) {
        let f = FDistribution::new(d1, d2).unwrap();
        let c = f.cdf(x).unwrap();
        prop_assert!((0.0..=1.0).contains(&c));
        let s = f.sf(x).unwrap();
        prop_assert!((c + s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normal_cdf_monotone(mean in -100.0..100.0f64, sd in 0.1..50.0f64,
                           a in -500.0..500.0f64, b in -500.0..500.0f64) {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let n = NormalDistribution::new(mean, sd).unwrap();
        prop_assert!(n.cdf(a) <= n.cdf(b) + 1e-12);
    }

    #[test]
    fn anova_sums_of_squares_nonnegative(
        responses in prop::collection::vec(0.0..1000.0f64, 8..64),
    ) {
        use counterlab_stats::anova::{Anova, Factor};
        let mut a = Anova::new(vec![Factor::new("g", ["a", "b"])]);
        for (i, &y) in responses.iter().enumerate() {
            a.add(&[i % 2], y).unwrap();
        }
        let t = a.run().unwrap();
        let row = &t.rows()[0];
        prop_assert!(row.sum_sq >= -1e-9);
        prop_assert!(t.residual_sum_sq() >= 0.0);
        prop_assert!(row.p_value >= 0.0 && row.p_value <= 1.0);
        // Partition: SSB + SSE ≈ SST.
        let total = row.sum_sq + t.residual_sum_sq();
        prop_assert!((total - t.total_sum_sq()).abs() <= 1e-6 * t.total_sum_sq().max(1.0));
    }

    #[test]
    fn violin_mode_within_range(xs in finite_vec(80)) {
        let v = Violin::from_slice(&xs).unwrap();
        let mode = v.mode(128).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // The mode lies within the data range padded by 3 bandwidths.
        let pad = 3.0 * v.kde().bandwidth();
        prop_assert!(mode >= lo - pad && mode <= hi + pad);
    }
}
