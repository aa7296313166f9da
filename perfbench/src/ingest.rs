//! `ingest-drift`: CSV blocks parsed with `read_csv`, appended 95 %
//! train / 5 % holdout into a durable `StreamingPool` behind a
//! streaming `Server`, with queries after every epoch advance, then a
//! shutdown, `StreamingPool::open`, re-spawn and one answer.
//!
//! One cycle of that sequence is one unit of work; a run repeats whole
//! cycles for `--seconds`, each in a fresh pool directory. Every cycle
//! sees the same inputs, so every cycle must produce the same outcomes.

use crate::metrics::{mean, median, ms, tail, tail_or_max, Digest, OutcomeBits, Report};
use crate::serve::{
    base_config, materialize_ms, response_bits, rung_code, thread_split, write_cache_deltas,
    write_serve_phases,
};
use crate::trace::{check_replay, outcome_bits, replay, LayerLog};
use crate::{higgs_rows, timed_setups, Run};
use blinkml_core::models::LogisticRegressionSpec;
use blinkml_core::serve::{Query, ServedResponse, Server, StreamShard};
use blinkml_core::{
    BlinkMlConfig, Coordinator, DegradationRung, ModelClassSpec, ServeConfig, ServerStats,
};
use blinkml_data::io::{read_csv, write_csv};
use blinkml_data::{
    Dataset, DenseVec, DurableOptions, EpochMark, Example, IngestPolicy, LabelDomain, StreamingPool,
};
use blinkml_prob::split_seed;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Problem seed of generator 0 (generator g uses `PROBLEM + g`).
const PROBLEM: u64 = 0x16e5;
const DIM: usize = 28;
const SEED_TRAIN: usize = 60_000;
const SEED_HOLDOUT: usize = 3_000;
const BLOCKS: usize = 9;
const BLOCK_ROWS: usize = 20_000;
/// Every block's last 5 % goes to the holdout side.
const HOLDOUT_ROWS: usize = BLOCK_ROWS / 20;
/// The generator of each block. The pilots are retrained at blocks 0,
/// 3 and 6 (see [`MAX_STALE_EPOCHS`]), and generators 2 and 3 start
/// there, so only blocks 1 and 2 drift away from a cached pilot and may
/// be served stale. How many are depends on the seed. Those blocks'
/// answers are the cheapest (stale, or over the smallest pool), so that
/// count does not move the median query, which falls among blocks 3–5.
const GENERATOR: [u64; BLOCKS] = [0, 1, 1, 2, 2, 2, 3, 3, 3];
/// Feature offset added per generator, so later blocks also move the
/// served pilots' predictions (the drift ladder's score).
const SHIFT: f64 = 0.5;
/// One row in this many carries an out-of-domain label for the ingest
/// gate to quarantine.
const BAD_ROW_EVERY: usize = 997;
const BETA: f64 = 1e-3;
const DATASET: u64 = 7;
/// Queries after every epoch advance: `(ε, seed index)`.
const QUERIES: [(f64, u64); 6] = [
    (0.05, 0),
    (0.03, 1),
    (0.05, 2),
    (0.03, 3),
    (0.05, 4),
    (0.03, 5),
];
/// Cycles every run completes; query latencies are taken from these.
const TIMED_CYCLES: usize = 2;
/// Pilots more than this many epochs behind are retired on advance.
const MAX_STALE_EPOCHS: u64 = 4;

struct Inputs {
    seed_train: Vec<Example<DenseVec>>,
    seed_holdout: Vec<Example<DenseVec>>,
    /// CSV text of each block, label first.
    blocks: Vec<Vec<u8>>,
}

fn setup(seed: u64) -> Inputs {
    let mut blocks = Vec::new();
    let mut seed_train = Vec::new();
    let mut seed_holdout = Vec::new();
    let generators = GENERATOR[BLOCKS - 1] + 1;
    for g in 0..generators {
        let first_block = GENERATOR
            .iter()
            .position(|&x| x == g)
            .expect("every generator has a block");
        let count = GENERATOR.iter().filter(|&&x| x == g).count();
        // Generator 0 also supplies the epoch-0 rows.
        let extra = if g == 0 { SEED_TRAIN + SEED_HOLDOUT } else { 0 };
        let mut rows = higgs_rows(
            count * BLOCK_ROWS + extra,
            DIM,
            PROBLEM + g,
            split_seed(seed, g),
        );
        if g == 0 {
            seed_holdout = rows.split_off(rows.len() - SEED_HOLDOUT);
            seed_train = rows.split_off(rows.len() - SEED_TRAIN);
        }
        for (b, chunk) in rows.chunks(BLOCK_ROWS).enumerate() {
            let mut chunk = chunk.to_vec();
            let first = (first_block + b) * BLOCK_ROWS;
            for (i, row) in chunk.iter_mut().enumerate() {
                // Covariate shift on top of the new problem's weights.
                for x in row.x.0.iter_mut() {
                    *x += SHIFT * g as f64;
                }
                if (first + i) % BAD_ROW_EVERY == BAD_ROW_EVERY - 1 {
                    row.y = 2.0;
                }
            }
            let mut csv = Vec::new();
            write_csv(&Dataset::new("block", DIM, chunk), &mut csv).expect("CSV to memory");
            blocks.push(csv);
        }
    }
    Inputs {
        seed_train,
        seed_holdout,
        blocks,
    }
}

fn queries(seed: u64) -> Vec<Query> {
    QUERIES
        .iter()
        .map(|&(eps, s)| Query::new(DATASET, eps, 0.05, split_seed(seed, 200 + s)))
        .collect()
}

/// What one cycle measured.
#[derive(Default)]
struct Cycle {
    parse: Vec<Duration>,
    append: Vec<Duration>,
    twin_append: Vec<Duration>,
    advance: Vec<Duration>,
    block_rows: Vec<usize>,
    rows_rejected: usize,
    wal_bytes: u64,
    latencies: Vec<f64>,
    /// Each answered query with its response, in the order sent.
    responses: Vec<(Query, ServedResponse)>,
    lag: Vec<f64>,
    open: Duration,
    spawn: Duration,
    recovery: Duration,
    rows_replayed: usize,
    warm_pilots: u64,
    stats: ServerStats,
    /// The reopened pool, kept for the output checks.
    reopened: Option<Arc<StreamingPool<DenseVec>>>,
}

fn server_for(
    pool: &Arc<StreamingPool<DenseVec>>,
    dir: &Path,
    spec: &LogisticRegressionSpec,
    threads: usize,
) -> Server {
    Server::spawn_with_streams(
        base_config(threads),
        ServeConfig {
            workers: 1,
            max_stale_epochs: MAX_STALE_EPOCHS,
            pilot_sidecar: Some(dir.join("pilots.bin")),
            ..ServeConfig::default()
        },
        spec.clone(),
        Vec::new(),
        vec![StreamShard::from_arc(DATASET, pool.clone())],
    )
    .expect("server spawns")
}

fn cycle(
    inputs: &Inputs,
    dir: &Path,
    run: &Run,
    spec: &LogisticRegressionSpec,
    threads: usize,
    report: &mut Report,
) -> Cycle {
    let mut c = Cycle::default();
    let pool = Arc::new(
        StreamingPool::create_durable(
            dir,
            "ingest",
            DIM,
            inputs.seed_train.clone(),
            inputs.seed_holdout.clone(),
            LabelDomain::Binary01,
            IngestPolicy::Quarantine,
            DurableOptions::default(),
        )
        .expect("durable pool created"),
    );
    // The in-memory twin isolates the WAL's share of append time.
    let twin = run.trace.then(|| {
        StreamingPool::new(
            "twin",
            DIM,
            inputs.seed_train.clone(),
            inputs.seed_holdout.clone(),
            LabelDomain::Binary01,
            IngestPolicy::Quarantine,
        )
        .expect("twin pool created")
    });
    let server = server_for(&pool, dir, spec, threads);
    let queries = queries(run.seed);
    let mut last_done;
    for csv in &inputs.blocks {
        let t = Instant::now();
        let parsed = read_csv(&csv[..], 0).expect("generated CSV parses");
        c.parse.push(t.elapsed());
        c.block_rows.push(parsed.len());
        let mut train = parsed.into_examples();
        let holdout = train.split_off(train.len() - HOLDOUT_ROWS);
        let twin_rows = twin.as_ref().map(|_| (train.clone(), holdout.clone()));
        let t = Instant::now();
        let receipts = [pool.append(train), pool.append_holdout(holdout)];
        c.append.push(t.elapsed());
        for receipt in receipts {
            match receipt {
                Ok(r) => c.rows_rejected += r.quarantined.len(),
                Err(e) => report.fail(format!("append failed: {e}")),
            }
        }
        if let (Some(twin), Some((train, holdout))) = (&twin, twin_rows) {
            let t = Instant::now();
            let _ = (twin.append(train), twin.append_holdout(holdout));
            c.twin_append.push(t.elapsed());
        }
        let t = Instant::now();
        if let Err(e) = server.advance_epoch(DATASET) {
            report.fail(format!("advance_epoch failed: {e}"));
        }
        c.advance.push(t.elapsed());
        // Closed loop: each query is due when the previous step ends.
        last_done = Instant::now();
        for query in &queries {
            report.attempted += 1;
            let t = Instant::now();
            c.lag.push(ms(t - last_done));
            let result = server.query(*query);
            c.latencies.push(ms(t.elapsed()));
            last_done = Instant::now();
            match result {
                Ok(r) => c.responses.push((*query, r)),
                Err(e) => {
                    report.failed += 1;
                    report.note(format!("query failed: {e}"));
                }
            }
        }
    }
    c.wal_bytes = pool.wal_len();
    c.stats = server.stats();
    if c.stats.submitted != c.stats.completed + c.stats.failed {
        report.fail(format!(
            "submitted {} != completed {} + failed {}",
            c.stats.submitted, c.stats.completed, c.stats.failed
        ));
    }

    // Restart: drain with the pilot sidecar, reopen the log, re-spawn,
    // and answer the last query again.
    let before_epoch = pool.epoch();
    let before_marks: Vec<EpochMark> = pool.marks();
    let reference = c.responses.last().map(|(_, r)| response_bits(r));
    server.shutdown_drain();
    drop(pool);
    let t = Instant::now();
    let reopened = match StreamingPool::open(dir, DurableOptions::default()) {
        Ok(pool) => Arc::new(pool),
        Err(e) => {
            report.fail(format!("reopen failed: {e}"));
            return c;
        }
    };
    c.open = t.elapsed();
    let t_spawn = Instant::now();
    let server = server_for(&reopened, dir, spec, threads);
    c.spawn = t_spawn.elapsed();
    let answer = server.query(queries[queries.len() - 1]);
    c.recovery = t.elapsed();
    c.warm_pilots = server.stats().warm_pilots;
    server.shutdown();

    if reopened.epoch() != before_epoch || reopened.marks() != before_marks {
        report.fail("reopened pool's epoch or marks differ from before shutdown");
    }
    let last = reopened.marks().last().copied();
    let first = reopened.marks().first().copied();
    if let (Some(last), Some(first)) = (last, first) {
        c.rows_replayed = last.train_len + last.holdout_len - first.train_len - first.holdout_len;
    }
    match (answer, reference) {
        (Ok(a), Some(reference)) if response_bits(&a) == reference => {}
        (Ok(_), _) => report.fail("post-restart answer differs from the one before shutdown"),
        (Err(e), _) => report.fail(format!("post-restart query failed: {e}")),
    }
    if c.warm_pilots == 0 {
        report.fail("restarted server restored no warm pilots");
    }
    c.reopened = Some(reopened);
    c
}

/// One served epoch's materialized snapshot and, in the traced run
/// (the only one that reports `guarantee_violation_share`), its full
/// model m_N.
struct EpochOracle {
    train: Dataset<DenseVec>,
    holdout: Dataset<DenseVec>,
    theta_full: Option<Vec<f64>>,
}

pub fn run(run: &Run) -> Report {
    let spec = LogisticRegressionSpec::new(BETA);
    let (_, threads) = thread_split(1);
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let (inputs, setup_s) = timed_setups(|| setup(run.seed));
    report.set("setup_s", median(&setup_s));
    let work = PathBuf::from(".perfbench_work").join(format!("ingest-{}", std::process::id()));

    let window = Duration::from_secs_f64(run.seconds);
    let start = Instant::now();
    let mut cycles: Vec<Cycle> = Vec::new();
    while cycles.len() < TIMED_CYCLES || start.elapsed() < window {
        let dir = work.join(format!("cycle-{}", cycles.len()));
        let c = cycle(&inputs, &dir, run, &spec, threads, &mut report);
        let _ = std::fs::remove_dir_all(&dir);
        // Only the newest reopened pool is kept for the checks, so peak
        // memory does not grow with the number of cycles.
        if let Some(previous) = cycles.last_mut() {
            previous.reopened = None;
        }
        cycles.push(c);
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    // Peak memory of set-up and the cycles, before the checks below
    // materialize every served epoch with its full model.
    report.set("peak_rss_mb", crate::metrics::peak_rss_mb());

    // Latencies of the first cycles only: every run completes them, so
    // the tail always sits at the same rank of the same query mix.
    let latencies: Vec<f64> = cycles[..TIMED_CYCLES]
        .iter()
        .flat_map(|c| c.latencies.iter().copied())
        .collect();
    report.note(format!(
        "cycles={} queries={} elapsed_s={:.3}",
        cycles.len(),
        latencies.len(),
        start.elapsed().as_secs_f64()
    ));
    report.set("latency_p50_ms", median(&latencies));
    let (tail_ms, which) = tail_or_max(&latencies);
    report.set("latency_tail_ms", tail_ms);
    report.note(format!("latency tail = {which}"));
    // Ingest rate through parse → gate → WAL: the median over blocks,
    // so a short stall of the host does not swing the figure.
    let rates: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.parse.iter().zip(&c.append).zip(&c.block_rows))
        .map(|((parse, append), &rows)| rows as f64 / (*parse + *append).as_secs_f64())
        .collect();
    report.set("throughput", median(&rates));
    let rows: usize = cycles.iter().flat_map(|c| &c.block_rows).sum();

    // Every cycle replays the same inputs: outcomes must agree.
    let digests: Vec<String> = cycles
        .iter()
        .map(|c| {
            let bits: Vec<OutcomeBits> =
                c.responses.iter().map(|(_, r)| response_bits(r)).collect();
            Digest::of(&bits).hex()
        })
        .collect();
    report.note(format!("digest(cycle 0)={}", digests[0]));
    if digests.iter().any(|d| *d != digests[0]) {
        report.fail(format!("cycles produced different outcomes: {digests:?}"));
    }

    // Guarantee and layer checks on the first cycle, against the full
    // model of each served epoch. The data drifts, so the difference is
    // measured on that epoch's own holdout rows: the only rows drawn
    // from the same generator mixture as its training pool.
    let first = &cycles[0];
    let mut fractions = Vec::new();
    let mut violations = 0usize;
    let mut layers = LayerLog::default();
    if let Some(pool) = cycles.iter().rev().find_map(|c| c.reopened.clone()) {
        let mut epochs: BTreeMap<u64, EpochOracle> = BTreeMap::new();
        for (query, r) in &first.responses {
            let EpochOracle {
                train,
                holdout,
                theta_full,
            } = epochs.entry(r.epoch).or_insert_with(|| {
                let snap = pool.snapshot_at(r.epoch).expect("served epoch exists");
                let train = snap.train_dataset();
                let theta_full = run.trace.then(|| {
                    spec.train(&train, None, &BlinkMlConfig::default().optim)
                        .expect("full model trains")
                        .into_parameters()
                });
                EpochOracle {
                    train,
                    holdout: snap.holdout_dataset(),
                    theta_full,
                }
            });
            // A stale pilot is a degradation, not a sample-size choice.
            if r.rung == DegradationRung::Full {
                fractions.push(r.outcome.sample_size as f64 / r.outcome.full_data_size as f64);
            }
            if let Some(theta_full) = theta_full {
                let v = spec.diff(r.outcome.model.parameters(), theta_full, holdout);
                if v > query.epsilon.max(r.outcome.estimated_epsilon) {
                    violations += 1;
                }
            }
            let config = BlinkMlConfig {
                epsilon: query.epsilon,
                ..base_config(threads)
            };
            let coordinator = Coordinator::new(config.clone());
            match r.rung {
                // A stale pilot reports the honest curve ε at n₀ on its
                // own snapshot.
                DegradationRung::StalePilot => {
                    let n0 = config.initial_sample_size.min(train.len());
                    match coordinator.curve_epsilon_at(&spec, train, holdout, query.seed, n0) {
                        Ok(eps) if eps.to_bits() == r.outcome.estimated_epsilon.to_bits() => {}
                        Ok(eps) => report.fail(format!(
                            "epoch {}: stale ε {} is not the curve ε {eps}",
                            r.epoch, r.outcome.estimated_epsilon
                        )),
                        Err(e) => report.fail(format!("curve_epsilon_at failed: {e}")),
                    }
                }
                // Traced: a full-rung response replays layer by layer on
                // its snapshot and must match both the response and a
                // cold coordinator bit for bit.
                DegradationRung::Full if run.trace => {
                    let t = Instant::now();
                    let cold = coordinator.train_with_holdout(&spec, train, holdout, query.seed);
                    let wall = t.elapsed();
                    match (cold, replay(&config, &spec, train, holdout, query.seed)) {
                        (Ok(cold), Ok((replayed, spans))) => {
                            if let Err(e) = check_replay(&replayed, &cold) {
                                report.fail(format!("epoch {}: {e}", r.epoch));
                            }
                            if outcome_bits(&cold, rung_code(r.rung), r.epoch) != response_bits(r) {
                                report.fail(format!(
                                    "epoch {}: response differs from a cold coordinator",
                                    r.epoch
                                ));
                            }
                            layers.push(wall, &cold, spans);
                        }
                        (Err(e), _) => report.fail(format!("cold coordinator failed: {e}")),
                        (_, Err(e)) => report.fail(format!("replay failed: {e}")),
                    }
                }
                _ => {}
            }
        }
        if run.trace {
            report.set("stream.materialize_ms", materialize_ms(&pool));
        }
    }
    let checked = first.responses.len().max(1) as f64;
    report.set("sample_fraction", mean(&fractions));
    report.set("guarantee_violation_share", violations as f64 / checked);
    report.set(
        "failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );

    // Per-layer figures.
    let responses: Vec<&ServedResponse> = first.responses.iter().map(|(_, r)| r).collect();
    write_serve_phases(&mut report, &responses);
    write_cache_deltas(&mut report, &ServerStats::default(), &first.stats);
    let per_block = |f: &dyn Fn(&Cycle) -> &Vec<Duration>| -> f64 {
        median(
            &cycles
                .iter()
                .flat_map(|c| f(c).iter().map(|d| ms(*d)))
                .collect::<Vec<_>>(),
        )
    };
    let parse_ms: f64 = cycles.iter().flat_map(|c| &c.parse).map(|d| ms(*d)).sum();
    report.set("io.parse_ms_per_krow", parse_ms / (rows as f64 / 1e3));
    report.set("stream.append_ms", per_block(&|c| &c.append));
    report.set("stream.rows_rejected", first.rows_rejected as f64);
    report.set("serve.advance_epoch_ms", per_block(&|c| &c.advance));
    let parsed: usize = first.block_rows.iter().sum();
    let admitted = (parsed - first.rows_rejected).max(1) as f64;
    report.set("wal.bytes_per_row", first.wal_bytes as f64 / admitted);
    if run.trace {
        let durable: f64 = cycles.iter().flat_map(|c| &c.append).map(|d| ms(*d)).sum();
        let twin: f64 = cycles
            .iter()
            .flat_map(|c| &c.twin_append)
            .map(|d| ms(*d))
            .sum();
        report.set("wal.share", 1.0 - twin / durable);
    }
    let each = |f: &dyn Fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    report.set("wal.open_ms", each(&|c| ms(c.open)));
    report.set("serve.spawn_ms", each(&|c| ms(c.spawn)));
    report.set("recovery_s", each(&|c| c.recovery.as_secs_f64()));
    report.set("wal.rows_replayed", first.rows_replayed as f64);
    report.set("serve.sidecar.warm_pilots", first.warm_pilots as f64);
    let lag: Vec<f64> = cycles.iter().flat_map(|c| c.lag.iter().copied()).collect();
    report.set("loadgen.lag_ms", tail(&lag).map_or(0.0, |t| t.0));
    layers.write(&mut report);
    report
}
