//! `serve-zipf`: multi-tenant serving over two epoch-0 `StreamShard`s,
//! an open loop at a ladder of fixed rates, archetypes drawn from
//! a seeded Zipf mix.

use crate::loadgen::{
    backlog_growth_ms, latency_from_due, max_rate, pace, schedule, Rung, ZipfMix,
};
use crate::metrics::{mean, median, ms, tail, tail_or_max, Digest, OutcomeBits, Report};
use crate::trace::{check_replay, outcome_bits, replay, LayerLog};
use crate::{higgs_rows, timed_setups, Run};
use blinkml_core::models::LogisticRegressionSpec;
use blinkml_core::serve::{Query, ResponseHandle, ServedResponse, Server, StreamShard};
use blinkml_core::{
    BlinkMlConfig, Coordinator, DegradationRung, ExecConfig, ModelClassSpec, ServeConfig,
    ServerStats,
};
use blinkml_data::{Dataset, DenseVec, IngestPolicy, LabelDomain, StreamingPool};
use blinkml_prob::split_seed;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Problem seed of dataset 0 (dataset d uses `PROBLEM + d`).
const PROBLEM: u64 = 0x5e7e;
const ROWS: usize = 100_000;
const DIM: usize = 28;
const HOLDOUT: usize = 2_000;
const TEST: usize = 2_000;
const N0: usize = 2_000;
const DELTA: f64 = 0.05;
const BETA: f64 = 1e-3;
const DATASETS: u64 = 2;
const EPSILONS: [f64; 3] = [0.1, 0.05, 0.03];
const SEEDS: u64 = 4;
/// Zipf exponent of the archetype mix.
const ZIPF: f64 = 1.1;
/// The hottest archetypes, queried once before timing.
const WARM: usize = 6;
/// The nominal rate (requests per second): the ladder's first rung.
const NOMINAL_RATE: f64 = 20.0;
/// Share of the run's window spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.55;
/// The rungs above the nominal one: `LADDER_START · LADDER_STEP^i`, up
/// to about 220/s. With 10 % steps, a host a little faster or slower
/// moves `max_rate` by about one step, not by a jump to the next coarse
/// rung.
const LADDER_START: f64 = 36.0;
const LADDER_STEP: f64 = 1.1;
const LADDER_RUNGS: i32 = 20;
/// Share of the run's window each rung above the nominal one runs for.
const RUNG_SHARE: f64 = 0.08;
/// The ladder stops once this many rungs in a row miss the limit.
const MISSES_TO_STOP: usize = 2;
/// The fixed latency limit on the tail percentile.
const LIMIT_MS: f64 = 250.0;
/// The limit on a rung's backlog growth ([`backlog_growth_ms`]). At
/// 1.04 s per rung it flags a rate about 7 % over what the server
/// sustains, where the tail of so short a rung would not yet show it.
const GROWTH_LIMIT_MS: f64 = 50.0;

/// The worker count and per-worker kernel threads for this host, so
/// that `workers × threads ≤ nproc`.
pub fn thread_split(workers: usize) -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = workers.min(nproc).max(1);
    (workers, (nproc / workers).max(1))
}

/// The library's base configuration for served queries.
pub fn base_config(threads: usize) -> BlinkMlConfig {
    BlinkMlConfig {
        delta: DELTA,
        initial_sample_size: N0,
        exec: ExecConfig {
            max_threads: Some(threads),
        },
        ..BlinkMlConfig::default()
    }
}

pub fn rung_code(rung: DegradationRung) -> u8 {
    match rung {
        DegradationRung::Full => 0,
        DegradationRung::RelaxedFinal => 1,
        DegradationRung::Pilot => 2,
        DegradationRung::StalePilot => 3,
    }
}

pub fn response_bits(r: &ServedResponse) -> OutcomeBits {
    outcome_bits(&r.outcome, rung_code(r.rung), r.epoch)
}

/// Serve-side phase split of a set of responses: mean untimed, pilot,
/// decision and final-fit milliseconds (they sum to the mean latency),
/// and the rung counts.
pub fn write_serve_phases(report: &mut Report, responses: &[&ServedResponse]) {
    let col = |f: &dyn Fn(&ServedResponse) -> Duration| {
        mean(&responses.iter().map(|r| ms(f(r))).collect::<Vec<_>>())
    };
    report.set(
        "serve.untimed_ms",
        col(&|r| r.latency.saturating_sub(r.outcome.phases.total())),
    );
    report.set(
        "serve.pilot_ms",
        col(&|r| r.outcome.phases.initial_training + r.outcome.phases.statistics),
    );
    report.set(
        "serve.decision_ms",
        col(&|r| r.outcome.phases.sample_size_search),
    );
    report.set(
        "serve.final_fit_ms",
        col(&|r| r.outcome.phases.final_training),
    );
    let count = |rung| responses.iter().filter(|r| r.rung == rung).count() as f64;
    report.set("serve.rung.full", count(DegradationRung::Full));
    report.set("serve.rung.relaxed", count(DegradationRung::RelaxedFinal));
    report.set("serve.rung.pilot", count(DegradationRung::Pilot));
    report.set("serve.rung.stale", count(DegradationRung::StalePilot));
}

/// Cache counters between two stats snapshots.
pub fn write_cache_deltas(report: &mut Report, before: &ServerStats, after: &ServerStats) {
    let queries = (after.submitted - before.submitted).max(1) as f64;
    let reused =
        (after.cache_hits - before.cache_hits) + (after.coalesced_waits - before.coalesced_waits);
    report.set("serve.cache.hit_ratio", reused as f64 / queries);
    report.set(
        "serve.cache.pilot_trains",
        (after.pilot_trains - before.pilot_trains) as f64,
    );
    report.set(
        "serve.cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    report.set(
        "serve.cache.pilots_retired",
        (after.pilots_retired - before.pilots_retired) as f64,
    );
    report.set(
        "serve.drift.fresh",
        (after.drift_fresh - before.drift_fresh) as f64,
    );
    report.set(
        "serve.drift.stale",
        (after.drift_stale_served - before.drift_stale_served) as f64,
    );
    report.set(
        "serve.drift.retrain",
        (after.drift_retrains - before.drift_retrains) as f64,
    );
}

/// Median time of `snapshot().train_dataset()` + `holdout_dataset()`.
pub fn materialize_ms(pool: &StreamingPool<DenseVec>) -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let snap = pool.snapshot();
            let train = snap.train_dataset();
            let holdout = snap.holdout_dataset();
            let elapsed = ms(t.elapsed());
            drop((train, holdout));
            elapsed
        })
        .collect();
    median(&times)
}

/// One query archetype: dataset, contract, seed.
#[derive(Debug, Clone, Copy)]
struct Archetype {
    dataset: u64,
    epsilon: f64,
    seed: u64,
}

impl Archetype {
    fn query(&self) -> Query {
        Query::new(self.dataset, self.epsilon, DELTA, self.seed)
    }
}

struct Inputs {
    pools: Vec<Arc<StreamingPool<DenseVec>>>,
    tests: Vec<Dataset<DenseVec>>,
    /// Each dataset's full model m_N, for `guarantee_violation_share`;
    /// empty in untraced runs, which do not report it.
    thetas_full: Vec<Vec<f64>>,
    server: Server,
    spawn: Duration,
    archetypes: Vec<Archetype>,
    /// Per rung, nominal first: the rate, the due offsets and the
    /// archetype of each request.
    ladder: Vec<(f64, Vec<Duration>, Vec<usize>)>,
}

fn setup(run: &Run, spec: &LogisticRegressionSpec, workers: usize, threads: usize) -> Inputs {
    let mut pools = Vec::new();
    let mut tests = Vec::new();
    let mut thetas_full = Vec::new();
    for d in 0..DATASETS {
        let mut rows = higgs_rows(
            ROWS + HOLDOUT + TEST,
            DIM,
            PROBLEM + d,
            split_seed(run.seed, d),
        );
        let test = rows.split_off(ROWS + HOLDOUT);
        let holdout = Dataset::new("holdout", DIM, rows.split_off(ROWS));
        let train = Dataset::new("train", DIM, rows);
        let pool = StreamingPool::from_datasets(
            &train,
            &holdout,
            LabelDomain::Binary01,
            IngestPolicy::Reject,
        )
        .expect("generated rows pass the ingest gate");
        if run.trace {
            thetas_full.push(
                spec.train(&train, None, &BlinkMlConfig::default().optim)
                    .expect("full model trains")
                    .into_parameters(),
            );
        }
        pools.push(Arc::new(pool));
        tests.push(Dataset::new("test", DIM, test));
    }
    let streams = pools
        .iter()
        .enumerate()
        .map(|(d, pool)| StreamShard::from_arc(d as u64, pool.clone()))
        .collect();
    let t = Instant::now();
    let server = Server::spawn_with_streams(
        base_config(threads),
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
        spec.clone(),
        Vec::new(),
        streams,
    )
    .expect("server spawns");
    let spawn = t.elapsed();
    // Popularity order: loose contracts first (ε varies slowest), then
    // seed, then dataset. Most traffic takes the cheap path; the tighter
    // contracts and their cold pilots form the tail.
    let mut archetypes = Vec::new();
    for &epsilon in &EPSILONS {
        for s in 0..SEEDS {
            for dataset in 0..DATASETS {
                archetypes.push(Archetype {
                    dataset,
                    epsilon,
                    seed: split_seed(run.seed, 100 + s),
                });
            }
        }
    }
    let mix = ZipfMix::new(archetypes.len(), ZIPF);
    for a in &archetypes[..WARM] {
        server.query(a.query()).expect("warm-up query");
    }
    let rungs = std::iter::once((NOMINAL_RATE, NOMINAL_SHARE))
        .chain((0..LADDER_RUNGS).map(|i| (LADDER_START * LADDER_STEP.powi(i), RUNG_SHARE)));
    let ladder = rungs
        .enumerate()
        .map(|(i, (rate, share))| {
            let due = schedule(rate, Duration::from_secs_f64(run.seconds * share));
            let picks = mix.draws(due.len(), split_seed(run.seed, 30 + i as u64));
            (rate, due, picks)
        })
        .collect();
    Inputs {
        pools,
        tests,
        thetas_full,
        server,
        spawn,
        archetypes,
        ladder,
    }
}

/// One request's record.
struct Served {
    archetype: usize,
    lateness: Duration,
    result: Result<ServedResponse, String>,
}

impl Served {
    /// Latency from the due time; a failure misses every limit.
    fn latency_ms(&self) -> f64 {
        match &self.result {
            Ok(r) => ms(latency_from_due(self.lateness, r.latency)),
            Err(_) => f64::INFINITY,
        }
    }
}

fn run_rung(inputs: &Inputs, due: &[Duration], picks: &[usize]) -> Vec<Served> {
    let mut handles: Vec<Result<ResponseHandle, String>> = Vec::with_capacity(due.len());
    let lateness = pace(Instant::now(), due, |i| {
        let query = inputs.archetypes[picks[i]].query();
        handles.push(inputs.server.submit(query).map_err(|e| e.to_string()));
    });
    handles
        .into_iter()
        .zip(lateness)
        .zip(picks)
        .map(|((handle, lateness), &archetype)| Served {
            archetype,
            lateness,
            result: handle.and_then(|h| h.wait().map_err(|e| e.to_string())),
        })
        .collect()
}

pub fn run(run: &Run) -> Report {
    let spec = LogisticRegressionSpec::new(BETA);
    let (workers, threads) = thread_split(2);
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let (inputs, setup_s) = timed_setups(|| setup(run, &spec, workers, threads));
    report.set("setup_s", median(&setup_s));
    report.note(format!("workers={workers} threads_per_worker={threads}"));

    let before = inputs.server.stats();
    let mut rungs = Vec::new();
    let mut served: Vec<Served> = Vec::new();
    let mut nominal: Vec<f64> = Vec::new();
    let mut nominal_lag: Vec<f64> = Vec::new();
    let mut nominal_at = 0..0;
    let mut misses = 0;
    for (i, (rate, due, picks)) in inputs.ladder.iter().enumerate() {
        if misses == MISSES_TO_STOP {
            break;
        }
        let results = run_rung(&inputs, due, picks);
        let latencies: Vec<f64> = results.iter().map(Served::latency_ms).collect();
        let (tail_ms, which) = tail_or_max(&latencies);
        let growth_ms = backlog_growth_ms(&latencies);
        let load = if latencies.iter().all(|l| l.is_finite()) {
            (tail_ms / LIMIT_MS).max(growth_ms / GROWTH_LIMIT_MS)
        } else {
            f64::INFINITY
        };
        let rung = Rung { rate: *rate, load };
        report.note(format!(
            "rung {:.1}/s: requests={} p50_ms={:.2} tail_ms={:.2} ({which}) growth_ms={:.2} load={:.3}",
            rung.rate,
            latencies.len(),
            median(&latencies),
            tail_ms,
            growth_ms,
            load
        ));
        misses = if rung.meets() { 0 } else { misses + 1 };
        if i == 0 {
            nominal = latencies;
            nominal_lag = results.iter().map(|s| ms(s.lateness)).collect();
            nominal_at = served.len()..served.len() + results.len();
        }
        rungs.push(rung);
        served.extend(results);
    }
    // Peak memory of set-up and serving, before the checks below
    // materialize their own copies of the snapshots.
    report.set("peak_rss_mb", crate::metrics::peak_rss_mb());
    // Every handle has resolved, so the counters must reconcile.
    let after = inputs.server.stats();
    if after.submitted != after.completed + after.failed {
        report.fail(format!(
            "submitted {} != completed {} + failed {}",
            after.submitted, after.completed, after.failed
        ));
    }

    report.attempted = served.len() as u64;
    report.failed = served.iter().filter(|s| s.result.is_err()).count() as u64;
    for s in served.iter().filter_map(|s| s.result.as_ref().err()) {
        report.note(format!("request failed: {s}"));
    }
    report.set("latency_p50_ms", median(&nominal));
    report.set("latency_tail_ms", tail_or_max(&nominal).0);
    report.set("loadgen.lag_ms", tail(&nominal_lag).map_or(0.0, |t| t.0));
    report.set("throughput", max_rate(&rungs));

    let ok: Vec<(usize, &ServedResponse)> = served
        .iter()
        .filter_map(|s| s.result.as_ref().ok().map(|r| (s.archetype, r)))
        .collect();
    let responses: Vec<&ServedResponse> = ok.iter().map(|(_, r)| *r).collect();
    let mut fractions = Vec::new();
    let mut violations = 0usize;
    for (a, r) in &ok {
        let arch = inputs.archetypes[*a];
        let d = arch.dataset as usize;
        fractions.push(r.outcome.sample_size as f64 / r.outcome.full_data_size as f64);
        if run.trace {
            let v = spec.diff(
                r.outcome.model.parameters(),
                &inputs.thetas_full[d],
                &inputs.tests[d],
            );
            if v > arch.epsilon.max(r.outcome.estimated_epsilon) {
                violations += 1;
            }
        }
    }
    let checked = ok.len().max(1) as f64;
    report.set("sample_fraction", mean(&fractions));
    report.set("guarantee_violation_share", violations as f64 / checked);
    report.set(
        "failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    // The serve-side split at the nominal rate, where queue wait is small.
    let nominal_responses: Vec<&ServedResponse> = served[nominal_at]
        .iter()
        .filter_map(|s| s.result.as_ref().ok())
        .collect();
    write_serve_phases(&mut report, &nominal_responses);
    report.set("serve.spawn_ms", ms(inputs.spawn));
    write_cache_deltas(&mut report, &before, &after);

    // Output checks: every response of an archetype is identical, and
    // one per archetype is bit-equal to a cold coordinator (traced:
    // also to the layer-by-layer replay) on its snapshot.
    // Only the nominal rung's schedule is fixed: how far the ladder
    // climbs depends on the host's speed.
    let nominal_bits: Vec<OutcomeBits> =
        nominal_responses.iter().map(|r| response_bits(r)).collect();
    report.note(format!(
        "digest(nominal {})={}",
        nominal_bits.len(),
        Digest::of(&nominal_bits).hex()
    ));
    let all_bits: Vec<OutcomeBits> = responses.iter().map(|r| response_bits(r)).collect();
    let mut first: BTreeMap<usize, (&ServedResponse, OutcomeBits)> = BTreeMap::new();
    for ((a, r), bits) in ok.iter().zip(&all_bits) {
        match first.get(a) {
            Some((_, b)) if b != bits => {
                report.fail(format!("archetype {a}: responses differ across requests"))
            }
            Some(_) => {}
            None => {
                first.insert(*a, (r, bits.clone()));
            }
        }
    }
    let mut layers = LayerLog::default();
    let mut snapshots: BTreeMap<(u64, u64), (Dataset<DenseVec>, Dataset<DenseVec>)> =
        BTreeMap::new();
    for (a, (r, bits)) in &first {
        let arch = inputs.archetypes[*a];
        let (train, holdout) = snapshots.entry((arch.dataset, r.epoch)).or_insert_with(|| {
            let snap = inputs.pools[arch.dataset as usize]
                .snapshot_at(r.epoch)
                .expect("served epoch exists");
            (snap.train_dataset(), snap.holdout_dataset())
        });
        let config = BlinkMlConfig {
            epsilon: arch.epsilon,
            ..base_config(threads)
        };
        let t = Instant::now();
        let cold =
            Coordinator::new(config.clone()).train_with_holdout(&spec, train, holdout, arch.seed);
        let wall = t.elapsed();
        let cold = match cold {
            Ok(cold) => cold,
            Err(e) => {
                report.fail(format!("archetype {a}: cold coordinator failed: {e}"));
                continue;
            }
        };
        if outcome_bits(&cold, 0, r.epoch) != *bits {
            report.fail(format!(
                "archetype {a}: response differs from a cold coordinator"
            ));
        }
        if run.trace {
            match replay(&config, &spec, train, holdout, arch.seed) {
                Ok((replayed, spans)) => {
                    if let Err(e) = check_replay(&replayed, &cold) {
                        report.fail(format!("archetype {a}: {e}"));
                    }
                    layers.push(wall, &cold, spans);
                }
                Err(e) => report.fail(format!("archetype {a}: replay failed: {e}")),
            }
        }
    }
    report.note(format!(
        "archetypes checked against a cold coordinator: {}",
        first.len()
    ));
    layers.write(&mut report);
    if run.trace {
        report.set("stream.materialize_ms", materialize_ms(&inputs.pools[0]));
    }
    inputs.server.shutdown_drain();
    report
}
