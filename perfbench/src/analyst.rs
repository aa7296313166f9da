//! `analyst-tall` and `analyst-wide`: one analyst, closed loop, cold
//! `Coordinator::train_with_holdout` calls over distinct seeds.

use crate::higgs_rows;
use crate::metrics::{mean, median, ms, tail, tail_or_max, Digest, OutcomeBits, Report};
use crate::trace::{check_replay, outcome_bits, replay, LayerLog};
use crate::{timed_setups, Run};
use blinkml_core::models::LogisticRegressionSpec;
use blinkml_core::{BlinkMlConfig, Coordinator, ModelClassSpec};
use blinkml_data::{Dataset, DenseVec};
use blinkml_prob::split_seed;
use std::time::{Duration, Instant};

/// The data shape and contract cycle of one analyst workload.
pub struct Shape {
    /// Generator seed of the HIGGS-like problem (feature covariance and
    /// true weights); the run seed only draws its rows.
    pub problem: u64,
    pub rows: usize,
    pub dim: usize,
    pub n0: usize,
    pub epsilons: &'static [f64],
    /// Trainings every run completes, whatever `--seconds` says; the
    /// digest covers exactly these, so it compares across commits.
    pub min_trainings: usize,
}

/// higgs_like 200k × 28, default n₀ = 10k, ε cycling 0.02, 0.02, 0.01.
/// The two contracts take clearly different times; weighting the cycle
/// 2:1 keeps the median inside one mode instead of in the gap between
/// them, where it would jump from run to run.
pub const TALL: Shape = Shape {
    problem: 0x7a11,
    rows: 200_000,
    dim: 28,
    n0: 10_000,
    epsilons: &[0.02, 0.02, 0.01],
    min_trainings: 12,
};

/// higgs_like 40k × 600, n₀ = 5000, ε = 0.05.
pub const WIDE: Shape = Shape {
    problem: 0x1de,
    rows: 40_000,
    dim: 600,
    n0: 5_000,
    epsilons: &[0.05],
    min_trainings: 6,
};

const HOLDOUT: usize = 2_000;
const TEST: usize = 2_000;
const BETA: f64 = 1e-3;

struct Inputs {
    train: Dataset<DenseVec>,
    holdout: Dataset<DenseVec>,
    test: Dataset<DenseVec>,
    /// The full model m_N, trained once on the whole pool. Only the
    /// traced run reports `guarantee_violation_share`, so only it pays
    /// for this oracle.
    theta_full: Option<Vec<f64>>,
}

fn setup(shape: &Shape, run: &Run, spec: &LogisticRegressionSpec) -> Inputs {
    let mut rows = higgs_rows(
        shape.rows + HOLDOUT + TEST,
        shape.dim,
        shape.problem,
        run.seed,
    );
    // Rows are i.i.d., so contiguous slices are independent splits.
    let test = rows.split_off(shape.rows + HOLDOUT);
    let holdout = rows.split_off(shape.rows);
    let train = Dataset::new("train", shape.dim, rows);
    let theta_full = run.trace.then(|| {
        spec.train(&train, None, &BlinkMlConfig::default().optim)
            .expect("full model trains")
            .into_parameters()
    });
    Inputs {
        train,
        holdout: Dataset::new("holdout", shape.dim, holdout),
        test: Dataset::new("test", shape.dim, test),
        theta_full,
    }
}

pub fn run(shape: &Shape, run: &Run) -> Report {
    let spec = LogisticRegressionSpec::new(BETA);
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let (inputs, setup_s) = timed_setups(|| setup(shape, run, &spec));
    report.set("setup_s", median(&setup_s));

    let coordinators: Vec<Coordinator> = shape
        .epsilons
        .iter()
        .map(|&epsilon| {
            Coordinator::new(BlinkMlConfig {
                epsilon,
                initial_sample_size: shape.n0,
                ..BlinkMlConfig::default()
            })
        })
        .collect();
    let full_n = inputs.train.len() as f64;
    let mut latencies = Vec::new();
    let mut fractions = Vec::new();
    let mut outcomes: Vec<OutcomeBits> = Vec::new();
    let mut violations = 0usize;
    let mut lag = Vec::new();
    let mut layers = LayerLog::default();
    let window = Duration::from_secs_f64(run.seconds);
    let start = Instant::now();
    let mut last_done = start;
    let mut i = 0usize;
    while start.elapsed() < window || i < shape.min_trainings {
        let coordinator = &coordinators[i % coordinators.len()];
        let epsilon = coordinator.config().epsilon;
        let seed = split_seed(run.seed, 1_000 + i as u64);
        report.attempted += 1;
        // Closed loop: the next training is due when the previous ends.
        let t = Instant::now();
        lag.push(ms(t - last_done));
        let result = coordinator.train_with_holdout(&spec, &inputs.train, &inputs.holdout, seed);
        let wall = t.elapsed();
        last_done = Instant::now();
        let mut replay_time = Duration::ZERO;
        i += 1;
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                report.failed += 1;
                report.note(format!("training {i} failed: {e}"));
                continue;
            }
        };
        latencies.push(ms(wall));
        fractions.push(outcome.sample_size as f64 / full_n);
        if let Some(theta_full) = &inputs.theta_full {
            if spec.diff(outcome.model.parameters(), theta_full, &inputs.test) > epsilon {
                violations += 1;
            }
        }
        outcomes.push(outcome_bits(&outcome, 0, 0));
        if run.trace {
            let t = Instant::now();
            let replayed = replay(
                coordinator.config(),
                &spec,
                &inputs.train,
                &inputs.holdout,
                seed,
            );
            replay_time = t.elapsed();
            match replayed {
                Ok((replayed, spans)) => {
                    if let Err(e) = check_replay(&replayed, &outcome) {
                        report.fail(format!("training {i}: {e}"));
                    }
                    layers.push(wall, &outcome, spans);
                }
                Err(e) => report.fail(format!("training {i}: replay failed: {e}")),
            }
        }
        // The traced replay is not generator lateness.
        last_done += replay_time;
    }
    let elapsed = start.elapsed().as_secs_f64();

    let completed = latencies.len();
    report.note(format!(
        "trainings={completed} failed={} elapsed_s={elapsed:.3}",
        report.failed
    ));
    report.note(format!(
        "digest(first {})={} digest(all {})={}",
        shape.min_trainings.min(outcomes.len()),
        Digest::of(&outcomes[..shape.min_trainings.min(outcomes.len())]).hex(),
        outcomes.len(),
        Digest::of(&outcomes).hex()
    ));
    report.set("latency_p50_ms", median(&latencies));
    // The wide shape's trainings take seconds, too few for a percentile
    // with ten samples beyond it above the median: its tail is the max.
    let (tail_ms, which) = tail_or_max(&latencies);
    report.set("latency_tail_ms", tail_ms);
    report.note(format!("latency tail = {which}"));
    report.set("throughput", completed as f64 / elapsed);
    report.set("sample_fraction", mean(&fractions));
    let checked = completed.max(1) as f64;
    report.set("guarantee_violation_share", violations as f64 / checked);
    report.set(
        "failed_share",
        report.failed as f64 / report.attempted as f64,
    );
    report.set("loadgen.lag_ms", tail(&lag).map_or(0.0, |t| t.0));
    layers.write(&mut report);
    report.set("peak_rss_mb", crate::metrics::peak_rss_mb());
    report
}
