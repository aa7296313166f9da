//! Model Accuracy Estimator (paper §3).
//!
//! Given a model trained on `n` of `N` examples and its statistics, the
//! estimator bounds the prediction difference `v(m_n)` against the
//! never-trained full model: it draws `k` parameter vectors from
//! `θ̂_N | θ_n ~ N(θ_n, α H⁻¹JH⁻¹)` with `α = 1/n − 1/N` (Corollary 1),
//! evaluates the prediction difference for each on the holdout set, and
//! returns the conservative Lemma-2 quantile so that
//! `Pr[v(m_n) ≤ ε] ≥ 1 − δ`.

use crate::diff_engine::{draw_pool, HoldoutScorer};
use crate::mcs::ModelClassSpec;
use crate::stats::ModelStatistics;
use blinkml_data::parallel::par_ranges_with;
use blinkml_data::{Dataset, FeatureVec};
use blinkml_prob::{conservative_level, empirical_quantile};

/// Chunk size for parallel loops over Monte Carlo draws: one draw scores
/// the whole holdout set, so each draw is its own unit of work. Draw
/// results are independent (no cross-draw reduction), so this affects
/// scheduling only, never values.
pub(crate) const DRAW_CHUNK: usize = 1;

/// The accuracy estimator; `num_samples` is the Monte Carlo draw count
/// `k` (paper default 100).
#[derive(Debug, Clone)]
pub struct ModelAccuracyEstimator {
    /// Number of parameter draws `k`.
    pub num_samples: usize,
}

impl Default for ModelAccuracyEstimator {
    fn default() -> Self {
        ModelAccuracyEstimator { num_samples: 100 }
    }
}

impl ModelAccuracyEstimator {
    /// Estimator with `k` Monte Carlo draws.
    pub fn new(num_samples: usize) -> Self {
        assert!(num_samples >= 2, "need at least two draws");
        ModelAccuracyEstimator { num_samples }
    }

    /// Estimate `ε` such that `Pr[v(m_n) ≤ ε] ≥ 1 − δ`, where `m_n` has
    /// parameters `theta_n` trained on `n` of `full_n` examples.
    #[allow(clippy::too_many_arguments)]
    pub fn estimate<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        &self,
        spec: &S,
        theta_n: &[f64],
        stats: &ModelStatistics,
        n: usize,
        full_n: usize,
        holdout: &Dataset<F>,
        delta: f64,
        seed: u64,
    ) -> f64 {
        let scorer = HoldoutScorer::new(spec, holdout, theta_n);
        self.estimate_scored(&scorer, stats, n, full_n, delta, seed)
    }

    /// [`ModelAccuracyEstimator::estimate`] against a pre-built
    /// [`HoldoutScorer`], so the base score matrix is shared with the
    /// sample-size search instead of being rebuilt (bit-identical
    /// result).
    pub fn estimate_scored<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        &self,
        scorer: &HoldoutScorer<'_, F, S>,
        stats: &ModelStatistics,
        n: usize,
        full_n: usize,
        delta: f64,
        seed: u64,
    ) -> f64 {
        let diffs = self.one_stage_diffs(scorer, stats, n, full_n, seed);
        self.epsilon_from_diffs(&diffs, delta)
    }

    /// The `k` one-stage holdout differences behind the estimate: the
    /// half of it that depends on neither `ε` nor `δ`, so a cached pilot
    /// can keep them and answer any `δ` with one quantile
    /// ([`Self::epsilon_from_diffs`]). Empty when `α = 0` (`n = N`).
    pub(crate) fn one_stage_diffs<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        &self,
        scorer: &HoldoutScorer<'_, F, S>,
        stats: &ModelStatistics,
        n: usize,
        full_n: usize,
        seed: u64,
    ) -> Vec<f64> {
        let alpha = sampling_alpha(n, full_n);
        if alpha == 0.0 {
            return Vec::new(); // n = N: the approximate model IS the full model.
        }
        let pool = draw_pool(stats, self.num_samples, seed);
        let engine = scorer.engine(&pool, &[]);
        let scale = alpha.sqrt();
        // Parallel over draws: each diff is independent, so the collected
        // vector is identical to the sequential loop for any thread count.
        par_ranges_with(self.num_samples, DRAW_CHUNK, |range| {
            range
                .map(|i| engine.diff_one_stage(i, scale))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// The conservative Lemma-2 quantile of [`Self::one_stage_diffs`]
    /// at `δ`; 0 for the empty set of the exact model.
    pub(crate) fn epsilon_from_diffs(&self, diffs: &[f64], delta: f64) -> f64 {
        if diffs.is_empty() {
            return 0.0;
        }
        empirical_quantile(diffs, conservative_level(delta, self.num_samples))
    }
}

/// `α = 1/n − 1/N`, clamped at zero (Theorem 1).
pub fn sampling_alpha(n: usize, full_n: usize) -> f64 {
    if n == 0 {
        return f64::INFINITY;
    }
    (1.0 / n as f64 - 1.0 / full_n.max(1) as f64).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::linreg::LinearRegressionSpec;
    use crate::models::logreg::LogisticRegressionSpec;
    use crate::stats::observed_fisher;
    use blinkml_data::generators::{synthetic_linear, synthetic_logistic};
    use blinkml_optim::OptimOptions;

    #[test]
    fn alpha_formula() {
        assert!((sampling_alpha(100, 1000) - 0.009).abs() < 1e-12);
        assert_eq!(sampling_alpha(1000, 1000), 0.0);
        assert_eq!(sampling_alpha(0, 10), f64::INFINITY);
    }

    #[test]
    fn estimate_is_zero_at_full_size() {
        let (data, _) = synthetic_linear(500, 3, 0.3, 1);
        let spec = LinearRegressionSpec::new(1e-3);
        let model = spec.train(&data, None, &OptimOptions::default()).unwrap();
        let stats = observed_fisher(&spec, model.parameters(), &data).unwrap();
        let est = ModelAccuracyEstimator::new(16);
        let eps = est.estimate(&spec, model.parameters(), &stats, 500, 500, &data, 0.05, 7);
        assert_eq!(eps, 0.0);
    }

    #[test]
    fn estimate_shrinks_as_n_grows() {
        let (data, _) = synthetic_logistic(4_000, 5, 2.0, 2);
        let split = data.split(500, 0, 3);
        let spec = LogisticRegressionSpec::new(1e-3);
        let sample = split.train.sample(800, 4);
        let model = spec.train(&sample, None, &OptimOptions::default()).unwrap();
        let stats = observed_fisher(&spec, model.parameters(), &sample).unwrap();
        let est = ModelAccuracyEstimator::new(64);
        let full_n = split.train.len();
        let eps_small = est.estimate(
            &spec,
            model.parameters(),
            &stats,
            200,
            full_n,
            &split.holdout,
            0.05,
            5,
        );
        let eps_big = est.estimate(
            &spec,
            model.parameters(),
            &stats,
            2_000,
            full_n,
            &split.holdout,
            0.05,
            5,
        );
        assert!(
            eps_big <= eps_small,
            "ε at n=2000 ({eps_big}) should not exceed ε at n=200 ({eps_small})"
        );
        assert!(eps_small > 0.0);
    }

    #[test]
    fn estimate_brackets_true_difference_against_trained_full_model() {
        // End-to-end statistical check: the ε reported at δ = 0.05 must
        // exceed the *actual* difference to the trained full model in the
        // vast majority of repetitions.
        let (full, _) = synthetic_logistic(6_000, 4, 1.5, 10);
        let split = full.split(800, 0, 1);
        let spec = LogisticRegressionSpec::new(1e-3);
        let opts = OptimOptions::default();
        let full_model = spec.train(&split.train, None, &opts).unwrap();

        let mut violations = 0;
        let reps = 10;
        for rep in 0..reps {
            let n = 600;
            let sample = split.train.sample(n, 100 + rep);
            let m = spec.train(&sample, None, &opts).unwrap();
            let stats = observed_fisher(&spec, m.parameters(), &sample).unwrap();
            let est = ModelAccuracyEstimator::new(100);
            let eps = est.estimate(
                &spec,
                m.parameters(),
                &stats,
                n,
                split.train.len(),
                &split.holdout,
                0.05,
                200 + rep,
            );
            let actual = spec.diff(m.parameters(), full_model.parameters(), &split.holdout);
            if actual > eps {
                violations += 1;
            }
        }
        // δ = 0.05 over 10 reps: allow at most 2 violations (binomial
        // slack for a small-sample statistical test).
        assert!(violations <= 2, "{violations}/{reps} violations");
    }
}
