//! The zero-copy sampling layer's exactness contract.
//!
//! Property tests asserting that coordinator outcomes — trained θ, the
//! ε₀ accuracy estimate, and the chosen sample size n — are **bit
//! identical** between [`SamplingMode::ZeroCopy`] (index-view samples
//! gathered from one pool-resident design matrix) and
//! [`SamplingMode::Materialize`] (the historical example-cloning path),
//! across all four iteratively trained model classes plus PPCA, dense
//! and sparse features, and thread budgets {1, 4}; plus Session checks
//! that repeated `train()` calls reproduce fresh coordinator runs.

use blinkml_core::models::{
    LinearRegressionSpec, LogisticRegressionSpec, MaxEntSpec, PoissonRegressionSpec, PpcaSpec,
};
use blinkml_core::{
    BlinkMlConfig, Coordinator, ExecConfig, ModelClassSpec, SamplingMode, Session, TrainingOutcome,
};
use blinkml_data::generators::{
    low_rank_gaussian, synthetic_linear, synthetic_logistic, synthetic_multiclass,
    synthetic_poisson, yelp_like,
};
use blinkml_data::parallel::set_max_threads;
use blinkml_data::{Dataset, FeatureVec};
use proptest::prelude::*;

fn config(epsilon: f64, n0: usize, threads: Option<usize>, mode: SamplingMode) -> BlinkMlConfig {
    BlinkMlConfig {
        epsilon,
        delta: 0.05,
        initial_sample_size: n0,
        holdout_size: 600,
        num_param_samples: 24,
        sampling: mode,
        exec: ExecConfig {
            max_threads: threads,
        },
        ..BlinkMlConfig::default()
    }
}

/// Run the coordinator in both sampling modes (same ε, seed, budget)
/// and assert the outcomes match bit for bit.
fn assert_modes_agree<F: FeatureVec, S: ModelClassSpec<F>>(
    spec: &S,
    data: &Dataset<F>,
    epsilon: f64,
    n0: usize,
    threads: Option<usize>,
    seed: u64,
) -> TrainingOutcome {
    let view = Coordinator::new(config(epsilon, n0, threads, SamplingMode::ZeroCopy))
        .train(spec, data, seed)
        .expect("zero-copy run");
    let mat = Coordinator::new(config(epsilon, n0, threads, SamplingMode::Materialize))
        .train(spec, data, seed)
        .expect("materialized run");
    set_max_threads(None);
    assert_eq!(view.sample_size, mat.sample_size, "chosen n");
    assert_eq!(view.full_data_size, mat.full_data_size);
    assert_eq!(view.initial_epsilon, mat.initial_epsilon, "ε₀");
    assert_eq!(view.estimated_epsilon, mat.estimated_epsilon, "ε̂");
    assert_eq!(view.used_initial_model, mat.used_initial_model);
    assert_eq!(view.search_probes, mat.search_probes);
    assert_eq!(view.model.parameters(), mat.model.parameters(), "θ");
    assert_eq!(view.model.iterations, mat.model.iterations);
    assert_eq!(view.model.objective_value, mat.model.objective_value);
    view
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn logistic_view_is_bitwise_materialized(seed in 1u64..200) {
        let (data, _) = synthetic_logistic(9_000, 5, 2.0, seed);
        let spec = LogisticRegressionSpec::new(1e-3);
        for threads in [Some(1), Some(4)] {
            // Tight ε forces the search + final training; loose ε stops
            // at the pilot. Both paths must agree.
            assert_modes_agree(&spec, &data, 0.02, 300, threads, seed);
            assert_modes_agree(&spec, &data, 0.40, 300, threads, seed);
        }
    }

    #[test]
    fn poisson_view_is_bitwise_materialized(seed in 1u64..200) {
        let (data, _) = synthetic_poisson(7_000, 4, seed);
        let spec = PoissonRegressionSpec::new(1e-3);
        for threads in [Some(1), Some(4)] {
            assert_modes_agree(&spec, &data, 0.05, 300, threads, seed);
        }
    }

    #[test]
    fn linreg_view_is_bitwise_materialized(seed in 1u64..200) {
        let (data, _) = synthetic_linear(8_000, 5, 0.5, seed);
        let spec = LinearRegressionSpec::new(1e-3);
        for threads in [Some(1), Some(4)] {
            assert_modes_agree(&spec, &data, 0.03, 300, threads, seed);
        }
    }

    #[test]
    fn maxent_dense_view_is_bitwise_materialized(seed in 1u64..200) {
        let data = synthetic_multiclass(6_000, 5, 3, seed);
        let spec = MaxEntSpec::new(1e-3, 3);
        for threads in [Some(1), Some(4)] {
            assert_modes_agree(&spec, &data, 0.05, 300, threads, seed);
        }
    }

    #[test]
    fn maxent_sparse_view_is_bitwise_materialized(seed in 1u64..200) {
        // Sparse features exercise the CSR pool matrix and gathered
        // CSR margins/gradients.
        let data = yelp_like(4_000, 120, seed);
        let spec = MaxEntSpec::new(1e-3, 5);
        for threads in [Some(1), Some(4)] {
            assert_modes_agree(&spec, &data, 0.10, 250, threads, seed);
        }
    }

    #[test]
    fn ppca_view_is_bitwise_materialized(seed in 1u64..200) {
        let data = low_rank_gaussian(5_000, 8, 3, 0.3, seed);
        let spec = PpcaSpec::new(3);
        for threads in [Some(1), Some(4)] {
            assert_modes_agree(&spec, &data, 0.02, 400, threads, seed);
        }
    }
}

#[test]
fn estimate_final_accuracy_agrees_across_modes() {
    // The optional closing statistics pass reuses the final sample's
    // gathered view; its fresh ε̂ must match the materialized path too.
    let (data, _) = synthetic_logistic(10_000, 4, 2.0, 31);
    let spec = LogisticRegressionSpec::new(1e-3);
    let mut view_cfg = config(0.02, 300, Some(2), SamplingMode::ZeroCopy);
    view_cfg.estimate_final_accuracy = true;
    let mut mat_cfg = config(0.02, 300, Some(2), SamplingMode::Materialize);
    mat_cfg.estimate_final_accuracy = true;
    let view = Coordinator::new(view_cfg).train(&spec, &data, 5).unwrap();
    let mat = Coordinator::new(mat_cfg).train(&spec, &data, 5).unwrap();
    set_max_threads(None);
    assert!(!view.used_initial_model);
    assert_eq!(view.estimated_epsilon, mat.estimated_epsilon);
    assert_eq!(view.model.parameters(), mat.model.parameters());
}

#[test]
fn session_sweep_is_bitwise_fresh_coordinators() {
    // One Session driving an ε sweep (the multi-query serving scenario)
    // must reproduce, bit for bit, what a fresh coordinator computes for
    // each contract — while training the pilot exactly once.
    let (data, _) = synthetic_logistic(12_000, 5, 2.0, 41);
    let split = data.split(900, 0, 42);
    let spec = LogisticRegressionSpec::new(1e-3);
    let base = config(0.05, 350, None, SamplingMode::ZeroCopy);
    let session = Session::new(base.clone(), &spec, &split.train, &split.holdout).unwrap();
    for epsilon in [0.30, 0.08, 0.03, 0.015] {
        let s = session.train(epsilon, 0.05, 9).unwrap();
        let mut cfg = base.clone();
        cfg.epsilon = epsilon;
        let c = Coordinator::new(cfg)
            .train_with_holdout(&spec, &split.train, &split.holdout, 9)
            .unwrap();
        assert_eq!(s.sample_size, c.sample_size, "ε={epsilon}");
        assert_eq!(s.initial_epsilon, c.initial_epsilon, "ε={epsilon}");
        assert_eq!(s.estimated_epsilon, c.estimated_epsilon, "ε={epsilon}");
        assert_eq!(s.model.parameters(), c.model.parameters(), "ε={epsilon}");
    }
    assert_eq!(session.cached_pilots(), 1, "one pilot serves the sweep");
}

#[test]
fn session_agrees_across_thread_budgets_and_modes() {
    let (data, _) = synthetic_logistic(8_000, 4, 2.0, 51);
    let split = data.split(700, 0, 52);
    let spec = LogisticRegressionSpec::new(1e-3);
    let mut outcomes = Vec::new();
    for threads in [Some(1), Some(4)] {
        for mode in [SamplingMode::ZeroCopy, SamplingMode::Materialize] {
            let cfg = config(0.03, 300, threads, mode);
            let session = Session::new(cfg, &spec, &split.train, &split.holdout).unwrap();
            outcomes.push(session.train(0.03, 0.05, 3).unwrap());
        }
    }
    set_max_threads(None);
    for o in &outcomes[1..] {
        assert_eq!(o.sample_size, outcomes[0].sample_size);
        assert_eq!(o.initial_epsilon, outcomes[0].initial_epsilon);
        assert_eq!(o.model.parameters(), outcomes[0].model.parameters());
    }
}

#[test]
fn sample_view_backs_the_same_sample_as_materialize() {
    // The index list behind sample_view is the one sample() clones.
    let (data, _) = synthetic_logistic(2_000, 3, 2.0, 61);
    let view = data.sample_view(500, 77);
    let owned = data.sample(500, 77);
    assert_eq!(view.len(), owned.len());
    for (k, e) in owned.iter().enumerate() {
        assert_eq!(view.get(k).x.as_slice(), e.x.as_slice());
        assert_eq!(view.get(k).y, e.y);
    }
}

#[test]
fn session_varying_delta_with_one_seed_is_bitwise_fresh_coordinators() {
    // One cached pilot answers every δ from its ε₀ memo: the draws are
    // δ-independent, only the quantile level moves. At k = 100, δ = 0.05
    // clamps the level to 1 while δ = 0.2 and 0.3 pick lower order
    // statistics.
    let (data, _) = synthetic_logistic(9_000, 4, 2.0, 71);
    let split = data.split(800, 0, 72);
    let spec = LogisticRegressionSpec::new(1e-3);
    let base = BlinkMlConfig {
        num_param_samples: 100,
        ..config(0.05, 300, Some(1), SamplingMode::ZeroCopy)
    };
    let session = Session::new(base.clone(), &spec, &split.train, &split.holdout).unwrap();
    let mut branches = [false; 2];
    for (epsilon, delta) in [
        (0.04, 0.05),
        (0.3, 0.3),
        (0.3, 0.05),
        (0.04, 0.3),
        (0.3, 0.2),
    ] {
        let s = session.train(epsilon, delta, 5).unwrap();
        let mut cfg = base.clone();
        cfg.epsilon = epsilon;
        cfg.delta = delta;
        let c = Coordinator::new(cfg)
            .train_with_holdout(&spec, &split.train, &split.holdout, 5)
            .unwrap();
        let context = format!("ε={epsilon} δ={delta}");
        assert_eq!(s.sample_size, c.sample_size, "{context}");
        assert_eq!(s.search_probes, c.search_probes, "{context}");
        assert_eq!(
            s.initial_epsilon.to_bits(),
            c.initial_epsilon.to_bits(),
            "{context}"
        );
        assert_eq!(
            s.estimated_epsilon.to_bits(),
            c.estimated_epsilon.to_bits(),
            "{context}"
        );
        assert_eq!(s.model.parameters(), c.model.parameters(), "{context}");
        branches[usize::from(c.used_initial_model)] = true;
    }
    set_max_threads(None);
    assert_eq!(branches, [true, true], "both decision branches covered");
    assert_eq!(session.cached_pilots(), 1, "one pilot serves every δ");
}
