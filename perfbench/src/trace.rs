//! The traced replay: the coordinator workflow re-run layer by layer
//! through the library's public calls, with a span around each call.
//!
//! The replay is accepted only when θ bits, ε₀, ε̂, n and probes are
//! bit-equal to `Coordinator::train_with_holdout` for the same inputs
//! ([`check_replay`]); its spans then split the coordinator's wall clock
//! across the layers.

use crate::metrics::{ms, OutcomeBits};
use blinkml_core::diff_engine::HoldoutScorer;
use blinkml_core::{
    compute_statistics_cached, BlinkMlConfig, ModelAccuracyEstimator, ModelClassSpec,
    SampleSizeEstimator, TrainedModel, TrainingOutcome,
};
use blinkml_data::{CaptureScratch, Dataset, DatasetMatrix, DenseVec};
use blinkml_prob::split_seed;
use std::time::{Duration, Instant};

/// Time spent in each layer by one replay, plus the layers' work counts.
#[derive(Debug, Clone, Default)]
pub struct LayerSpans {
    pub pool_build: Duration,
    pub capture: Duration,
    pub pilot_fit: Duration,
    pub final_fit: Duration,
    pub statistics: Duration,
    pub scorer: Duration,
    pub eps0: Duration,
    pub search: Duration,
    pub iterations: usize,
    pub probes: usize,
    pub rank: usize,
    /// Wall clock of the whole replay.
    pub wall: Duration,
}

impl LayerSpans {
    /// Sum of the layer spans.
    pub fn attributed(&self) -> Duration {
        self.pool_build
            + self.capture
            + self.pilot_fit
            + self.final_fit
            + self.statistics
            + self.scorer
            + self.eps0
            + self.search
    }

    /// Share of the replay's wall clock no layer span covers.
    pub fn unattributed_share(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            0.0
        } else {
            (wall - self.attributed().as_secs_f64()).max(0.0) / wall
        }
    }
}

/// What the replay produced, in the coordinator's terms.
#[derive(Debug, Clone)]
pub struct Replayed {
    pub theta: Vec<f64>,
    pub n: usize,
    pub eps0: f64,
    pub eps_hat: f64,
    pub probes: usize,
}

fn span<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed();
    out
}

/// Replay the default coordinator workflow (zero-copy sampling, no
/// closing accuracy pass) on `train`/`holdout` for `seed`.
pub fn replay<S: ModelClassSpec<DenseVec>>(
    config: &BlinkMlConfig,
    spec: &S,
    train: &Dataset<DenseVec>,
    holdout: &Dataset<DenseVec>,
    seed: u64,
) -> Result<(Replayed, LayerSpans), String> {
    let start = Instant::now();
    let mut sp = LayerSpans::default();
    config.exec.apply();
    let full_n = train.len();
    let n0 = config.initial_sample_size.min(full_n);
    let pool = span(&mut sp.pool_build, || DatasetMatrix::from_dataset(train));
    let mut scratch = CaptureScratch::new();

    // Pilot: sample (sub-seed 0), fit, statistics on the same capture.
    let sample = train.sample_view(n0, split_seed(seed, 0));
    let capture = span(&mut sp.capture, || {
        pool.capture_sample_with(sample.indices(), &mut scratch)
    });
    let view = capture.view();
    let m0: TrainedModel = span(&mut sp.pilot_fit, || {
        spec.train_with_matrix(train, Some(&view), None, &config.optim)
    })
    .map_err(|e| format!("pilot fit: {e}"))?;
    sp.iterations += m0.iterations;
    if n0 == full_n {
        sp.wall = start.elapsed();
        let theta = m0.into_parameters();
        return Ok((
            Replayed {
                theta,
                n: n0,
                eps0: 0.0,
                eps_hat: 0.0,
                probes: 0,
            },
            sp,
        ));
    }
    let stats = span(&mut sp.statistics, || {
        compute_statistics_cached(
            config.statistics_method,
            config.spectral,
            spec,
            m0.parameters(),
            train,
            Some(&view),
        )
    })
    .map_err(|e| format!("statistics: {e}"))?;
    sp.rank = stats.rank();
    capture.recycle(&mut scratch);

    // Decision stage: ε₀ (sub-seed 1), then the sample-size search
    // (sub-seed 2), both against one holdout scorer.
    let scorer = span(&mut sp.scorer, || {
        HoldoutScorer::new(spec, holdout, m0.parameters())
    });
    let eps0 = span(&mut sp.eps0, || {
        ModelAccuracyEstimator::new(config.num_param_samples).estimate_scored(
            &scorer,
            &stats,
            n0,
            full_n,
            config.delta,
            split_seed(seed, 1),
        )
    });
    if eps0 <= config.epsilon {
        sp.wall = start.elapsed();
        return Ok((
            Replayed {
                theta: m0.parameters().to_vec(),
                n: n0,
                eps0,
                eps_hat: eps0,
                probes: 0,
            },
            sp,
        ));
    }
    let est = span(&mut sp.search, || {
        SampleSizeEstimator::new(config.num_param_samples).estimate_scored(
            &scorer,
            &stats,
            n0,
            full_n,
            config.epsilon,
            config.delta,
            split_seed(seed, 2),
        )
    });
    sp.probes = est.probes;

    // Final fit on a fresh sample (sub-seed 3), warm-started from θ₀.
    let sample = train.sample_view(est.n, split_seed(seed, 3));
    let capture = span(&mut sp.capture, || {
        pool.capture_sample_with(sample.indices(), &mut scratch)
    });
    let view = capture.view();
    let model = span(&mut sp.final_fit, || {
        spec.train_with_matrix(train, Some(&view), Some(m0.parameters()), &config.optim)
    })
    .map_err(|e| format!("final fit: {e}"))?;
    sp.iterations += model.iterations;
    let eps_hat = if est.n >= full_n { 0.0 } else { config.epsilon };
    sp.wall = start.elapsed();
    Ok((
        Replayed {
            theta: model.into_parameters(),
            n: est.n,
            eps0,
            eps_hat,
            probes: est.probes,
        },
        sp,
    ))
}

/// Compare a replay with the coordinator's outcome bit for bit.
pub fn check_replay(replayed: &Replayed, outcome: &TrainingOutcome) -> Result<(), String> {
    let theta = outcome.model.parameters();
    let same_theta = replayed.theta.len() == theta.len()
        && replayed
            .theta
            .iter()
            .zip(theta)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let mut diffs = Vec::new();
    if !same_theta {
        diffs.push("theta".to_string());
    }
    if replayed.n != outcome.sample_size {
        diffs.push(format!("n {} vs {}", replayed.n, outcome.sample_size));
    }
    if replayed.eps0.to_bits() != outcome.initial_epsilon.to_bits() {
        diffs.push(format!(
            "eps0 {} vs {}",
            replayed.eps0, outcome.initial_epsilon
        ));
    }
    if replayed.eps_hat.to_bits() != outcome.estimated_epsilon.to_bits() {
        diffs.push(format!(
            "eps_hat {} vs {}",
            replayed.eps_hat, outcome.estimated_epsilon
        ));
    }
    if replayed.probes != outcome.search_probes {
        diffs.push(format!(
            "probes {} vs {}",
            replayed.probes, outcome.search_probes
        ));
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!("traced replay differs: {}", diffs.join(", ")))
    }
}

/// The bit-level fields of a coordinator outcome.
pub fn outcome_bits(outcome: &TrainingOutcome, rung: u8, epoch: u64) -> OutcomeBits {
    OutcomeBits {
        theta: outcome
            .model
            .parameters()
            .iter()
            .map(|t| t.to_bits())
            .collect(),
        n: outcome.sample_size,
        eps0: outcome.initial_epsilon.to_bits(),
        eps_hat: outcome.estimated_epsilon.to_bits(),
        rung,
        epoch,
    }
}

/// Per-layer medians over many replays, in milliseconds (counts as-is),
/// written into the traced report.
#[derive(Debug, Default)]
pub struct LayerLog {
    spans: Vec<LayerSpans>,
    /// Traced replay wall over the untraced coordinator wall, per pair.
    overhead: Vec<f64>,
    /// `(wall − TrainingPhaseTimes::total) / wall` per coordinator call.
    coordinator_untimed: Vec<f64>,
}

impl LayerLog {
    /// Record one coordinator call and its replay.
    pub fn push(
        &mut self,
        coordinator_wall: Duration,
        outcome: &TrainingOutcome,
        spans: LayerSpans,
    ) {
        let wall = coordinator_wall.as_secs_f64();
        if wall > 0.0 {
            self.overhead.push(spans.wall.as_secs_f64() / wall);
            self.coordinator_untimed
                .push((wall - outcome.phases.total().as_secs_f64()).max(0.0) / wall);
        }
        self.spans.push(spans);
    }

    pub fn write(&self, report: &mut crate::metrics::Report) {
        use crate::metrics::median;
        let col = |f: &dyn Fn(&LayerSpans) -> f64| -> f64 {
            median(&self.spans.iter().map(f).collect::<Vec<_>>())
        };
        report.set("matrix.pool_build_ms", col(&|s| ms(s.pool_build)));
        report.set("matrix.capture_ms", col(&|s| ms(s.capture)));
        report.set("optim.pilot_fit_ms", col(&|s| ms(s.pilot_fit)));
        report.set("optim.final_fit_ms", col(&|s| ms(s.final_fit)));
        report.set("optim.iterations", col(&|s| s.iterations as f64));
        report.set("stats.statistics_ms", col(&|s| ms(s.statistics)));
        report.set("stats.rank", col(&|s| s.rank as f64));
        report.set("diff_engine.scorer_ms", col(&|s| ms(s.scorer)));
        report.set("accuracy.eps0_ms", col(&|s| ms(s.eps0)));
        report.set("sample_size.search_ms", col(&|s| ms(s.search)));
        report.set("sample_size.probes", col(&|s| s.probes as f64));
        let per_probe: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.probes > 0)
            .map(|s| ms(s.search) / s.probes as f64)
            .collect();
        report.set("sample_size.ms_per_probe", median(&per_probe));
        report.set("trace.unattributed_share", col(&|s| s.unattributed_share()));
        report.set("trace.overhead", median(&self.overhead));
        report.set(
            "coordinator.untimed_share",
            median(&self.coordinator_untimed),
        );
    }
}
