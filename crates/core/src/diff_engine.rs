//! Fast evaluation of prediction differences across many parameter draws.
//!
//! Both estimators evaluate `v(m(θ_a), m(θ_b))` for `k` parameter draws
//! at every probe. For margin-based models (all GLMs and max-entropy)
//! the holdout scores are **linear** in `θ`, so the engine precomputes
//! the score matrices of the base parameter and of each pooled draw
//! once; a probe at any sample size then costs `O(holdout · outputs)`
//! scalar work instead of `O(holdout · D)` dot products. This is the
//! practical companion of the paper's sampling-by-scaling optimization
//! (§4.3): the same unscaled pool serves every `n`.
//!
//! Construction itself is batched: when the spec exposes
//! [`ModelClassSpec::margin_weights`], score matrices are built with
//! fused GEMMs — the holdout design matrix times stacked weight blocks —
//! streamed in parallel chunks of holdout rows instead of separate
//! per-example scoring passes. Each chunk computes a cache-sized tile of
//! interleaved score rows and transposes it straight into the
//! preallocated per-draw score vectors, so no chunk-sized block and no
//! concatenation copy exist. This is exact: every score is one
//! row-kernel accumulation from zero in feature order, which no tile
//! size, stack width or thread count changes. Specs with margins but no
//! weight matrix keep the per-example path; models without margins
//! (PPCA) fall back to materializing parameter vectors and calling the
//! spec's own `diff`.
//!
//! The probe kernel walks the base and draw score vectors with zipped
//! iterators: a single-output model hands each margin to
//! [`ModelClassSpec::predict_from_margins`] as a one-element slice, a
//! `K`-output model gathers a row into two scratch vectors allocated
//! once per scan. The spec stays the only source of prediction
//! semantics. The sample-size search asks the engine only whether a
//! draw's difference is within `ε`, and the engine stops scanning the
//! holdout once that is settled: past the largest disagreement count
//! `c` with `c / h <= ε`, or once the partial RMS sum already gives
//! `sqrt(partial / h) > ε`. Both statistics only grow row by row, and
//! the integer threshold is derived from the very f64 comparison the
//! full scan would make, so every verdict is the full scan's.
//!
//! The **base** score matrix (of `θ_base`) depends on neither the draw
//! pools nor the contract, so a [`HoldoutScorer`] computes it **once
//! per coordinator run** and shares it (reference-counted) between the
//! accuracy estimator's engine and the sample-size estimator's engine.
//! A cached pilot goes one step further: it keeps the ε₀ estimate's `k`
//! differences themselves (see `coordinator::Eps0Memo`), so a query
//! whose contract ε₀ already meets builds no scorer at all.

use crate::mcs::ModelClassSpec;
use crate::stats::ModelStatistics;
use blinkml_data::parallel::{par_ranges, CHUNK_SIZE};
use blinkml_data::{Dataset, FeatureVec};
use blinkml_linalg::Matrix;
use blinkml_prob::{rng_from_seed, MvnSampler};
use std::sync::{Arc, Mutex};

/// Precomputed state for repeated difference evaluations over pooled
/// parameter draws.
pub struct DiffEngine<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> {
    spec: &'a S,
    holdout: &'a Dataset<F>,
    mode: Mode<'a>,
}

enum Mode<'a> {
    /// Margin fast path: flattened `holdout_len × outputs` score
    /// matrices. The base scores are shared with (and by) the
    /// [`HoldoutScorer`] that built them.
    Margins {
        outputs: usize,
        rms: bool,
        base: Arc<Vec<f64>>,
        pool_u: Vec<Vec<f64>>,
        pool_w: Vec<Vec<f64>>,
    },
    /// Generic fallback over raw parameter vectors.
    Generic {
        base: &'a [f64],
        pool_u: &'a [Vec<f64>],
        pool_w: &'a [Vec<f64>],
    },
}

/// The holdout scores of one base parameter vector, computed once and
/// shared by every [`DiffEngine`] derived from the scorer.
struct BaseScores {
    outputs: usize,
    rms: bool,
    /// Whether the spec exposes `margin_weights` (GEMM scoring); pools
    /// must be scored the same way as the base so diffs compare
    /// identically-derived score matrices.
    use_weights: bool,
    scores: Arc<Vec<f64>>,
}

/// Per-run holdout scoring state: spec + holdout + base parameters with
/// the base score matrix built **once**. Both estimators derive their
/// [`DiffEngine`]s from one scorer ([`HoldoutScorer::engine`]), so the
/// ε₀ estimate and the sample-size search share the θ₀ scores instead
/// of each rebuilding them.
pub struct HoldoutScorer<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> {
    spec: &'a S,
    holdout: &'a Dataset<F>,
    theta_base: &'a [f64],
    base: Option<BaseScores>,
}

impl<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> HoldoutScorer<'a, F, S> {
    /// Score `theta_base` over the holdout set (one fused GEMM for
    /// margin-weight specs, one per-example pass for margin-only specs,
    /// nothing for generic specs).
    pub fn new(spec: &'a S, holdout: &'a Dataset<F>, theta_base: &'a [f64]) -> Self {
        let base = spec.num_margin_outputs(holdout.dim()).map(|outputs| {
            let rms = spec.diff_is_rms();
            match spec.margin_weights(theta_base, holdout.dim()) {
                Some(wb) => BaseScores {
                    outputs,
                    rms,
                    use_weights: true,
                    scores: Arc::new(
                        batched_scores(holdout, &wb, outputs)
                            .pop()
                            .expect("one stacked block"),
                    ),
                },
                None => BaseScores {
                    outputs,
                    rms,
                    use_weights: false,
                    scores: Arc::new(score_per_example(spec, holdout, theta_base, outputs)),
                },
            }
        });
        HoldoutScorer {
            spec,
            holdout,
            theta_base,
            base,
        }
    }

    /// Score a whole grid of `(spec, θ_base)` pairs over one holdout set
    /// with **one** fused GEMM: the weight blocks of every pair are
    /// stacked horizontally and streamed through `batched_scores`
    /// together, so a λ-sweep's K base score matrices cost one pass over
    /// the holdout design matrix instead of K.
    ///
    /// Bit-exactness: `batched_scores` computes each output column
    /// independently of how many blocks are stacked beside it, so every
    /// returned scorer is **bit-identical** to `HoldoutScorer::new(spec,
    /// holdout, theta)` for its pair. Pairs whose specs expose no weight
    /// matrix (or disagree on the output count) fall back to per-pair
    /// construction — identical results, just without the fusion.
    pub fn new_many(holdout: &'a Dataset<F>, entries: &[(&'a S, &'a [f64])]) -> Vec<Self> {
        let dim = holdout.dim();
        let mut blocks: Vec<Matrix> = Vec::with_capacity(entries.len());
        let mut outputs0 = None;
        let mut fused = !entries.is_empty();
        for (spec, theta) in entries {
            let (Some(outputs), Some(wb)) = (
                spec.num_margin_outputs(dim),
                spec.margin_weights(theta, dim),
            ) else {
                fused = false;
                break;
            };
            match outputs0 {
                None => outputs0 = Some(outputs),
                Some(o) if o == outputs => {}
                Some(_) => {
                    fused = false;
                    break;
                }
            }
            blocks.push(wb);
        }
        if !fused {
            return entries
                .iter()
                .map(|(spec, theta)| HoldoutScorer::new(*spec, holdout, theta))
                .collect();
        }
        let outputs = outputs0.expect("non-empty fused stack");
        let scores = batched_scores(holdout, &Matrix::hstack(&blocks), outputs);
        entries
            .iter()
            .zip(scores)
            .map(|((spec, theta), s)| HoldoutScorer {
                spec: *spec,
                holdout,
                theta_base: theta,
                base: Some(BaseScores {
                    outputs,
                    rms: spec.diff_is_rms(),
                    use_weights: true,
                    scores: Arc::new(s),
                }),
            })
            .collect()
    }

    /// Number of linear-score outputs (None for generic specs).
    pub fn outputs(&self) -> Option<usize> {
        self.base.as_ref().map(|b| b.outputs)
    }

    /// Derive an engine for the given perturbation pools, reusing the
    /// base scores. Pools are scored exactly as [`DiffEngine::new`]
    /// scores them (same GEMM kernels, same chunking), so engines built
    /// here are bit-identical to standalone engines.
    pub fn engine<'b>(&self, pool_u: &'b [Vec<f64>], pool_w: &'b [Vec<f64>]) -> DiffEngine<'b, F, S>
    where
        'a: 'b,
    {
        let mode = match &self.base {
            Some(b) => {
                let dim = self.holdout.dim();
                let stacked: Vec<&[f64]> = pool_u
                    .iter()
                    .chain(pool_w.iter())
                    .map(Vec::as_slice)
                    .collect();
                let weights: Option<Vec<Matrix>> = if b.use_weights {
                    stacked
                        .iter()
                        .map(|t| self.spec.margin_weights(t, dim))
                        .collect()
                } else {
                    None
                };
                // `margin_weights` is θ-independent for every built-in
                // spec, so the base's Some/None decision carries over to
                // the pools. Should a custom spec ever return mixed
                // answers, degrade uniformly: score the pools AND the
                // base per-example (exactly what the pre-scorer engine
                // did for a mixed stack), never compare GEMM-scored
                // bases against per-example-scored pools.
                let per_example_all = b.use_weights && !stacked.is_empty() && weights.is_none();
                debug_assert!(
                    !per_example_all,
                    "margin_weights must be uniform across parameter vectors"
                );
                let mut scores = match weights {
                    Some(blocks) if !blocks.is_empty() => {
                        batched_scores(self.holdout, &Matrix::hstack(&blocks), b.outputs)
                            .into_iter()
                    }
                    _ => stacked
                        .iter()
                        .map(|t| score_per_example(self.spec, self.holdout, t, b.outputs))
                        .collect::<Vec<_>>()
                        .into_iter(),
                };
                let pool_u_scores: Vec<Vec<f64>> = scores.by_ref().take(pool_u.len()).collect();
                let pool_w_scores: Vec<Vec<f64>> = scores.collect();
                let base = if per_example_all {
                    Arc::new(score_per_example(
                        self.spec,
                        self.holdout,
                        self.theta_base,
                        b.outputs,
                    ))
                } else {
                    Arc::clone(&b.scores)
                };
                Mode::Margins {
                    outputs: b.outputs,
                    rms: b.rms,
                    base,
                    pool_u: pool_u_scores,
                    pool_w: pool_w_scores,
                }
            }
            None => Mode::Generic {
                base: self.theta_base,
                pool_u,
                pool_w,
            },
        };
        DiffEngine {
            spec: self.spec,
            holdout: self.holdout,
            mode,
        }
    }
}

/// Per-example margin scoring of one parameter vector (the fallback for
/// margin specs without a weight matrix).
fn score_per_example<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
    spec: &S,
    holdout: &Dataset<F>,
    theta: &[f64],
    outputs: usize,
) -> Vec<f64> {
    let mut m = vec![0.0; holdout.len() * outputs];
    for (i, e) in holdout.iter().enumerate() {
        spec.margins(theta, &e.x, &mut m[i * outputs..(i + 1) * outputs]);
    }
    m
}

/// Bytes of interleaved score rows per tile in [`batched_scores`]: the
/// GEMM row kernel fills a cache-resident tile of rows, which is then
/// transposed straight into the per-parameter score vectors.
const SCORE_TILE_BYTES: usize = 64 * 1024;

/// One fused GEMM over the holdout set: compute `S = X · W_all` (`X` the
/// `h × d` holdout design matrix, `W_all` the horizontally stacked
/// `d × (P·outputs)` weight blocks of `P` parameter vectors) in parallel
/// chunks of holdout rows, and return the `P` flattened
/// `h × outputs` score matrices.
///
/// The design matrix is never materialized: each chunk streams its
/// examples through [`FeatureVec::add_scaled_rows_into`], which is the
/// GEMM row kernel for dense rows and the sparse-times-dense product for
/// sparse ones, one cache-sized tile of rows at a time, and transposes
/// each tile straight into its slice of the preallocated per-parameter
/// vectors — no chunk-sized intermediate, no concatenation copy. Every
/// score is still one row-kernel accumulation from zero in feature
/// order, whatever the tile or stack width. Chunk boundaries are fixed
/// (see `blinkml_data::parallel`) and each output row is written by
/// exactly one chunk, so results are bit-identical for any thread
/// count.
fn batched_scores<F: FeatureVec>(
    holdout: &Dataset<F>,
    w_all: &Matrix,
    outputs: usize,
) -> Vec<Vec<f64>> {
    let h = holdout.len();
    let cols = w_all.cols();
    let num_params = cols / outputs;
    let table = w_all.as_slice();
    let mut scores: Vec<Vec<f64>> = (0..num_params).map(|_| vec![0.0; h * outputs]).collect();
    // Hand every row chunk its slice of each score vector; a chunk locks
    // only its own slices, so the locks are never contended.
    let mut parts: Vec<Vec<&mut [f64]>> = (0..h.div_ceil(CHUNK_SIZE))
        .map(|_| Vec::with_capacity(num_params))
        .collect();
    for score in &mut scores {
        for (part, slice) in parts.iter_mut().zip(score.chunks_mut(CHUNK_SIZE * outputs)) {
            part.push(slice);
        }
    }
    let parts: Vec<Mutex<Vec<&mut [f64]>>> = parts.into_iter().map(Mutex::new).collect();
    let tile_rows = (SCORE_TILE_BYTES / (8 * cols.max(1))).max(1);
    par_ranges(h, |range| {
        let mut dst = parts[range.start / CHUNK_SIZE]
            .lock()
            .expect("a chunk's score slices are locked by that chunk alone");
        let mut tile = vec![0.0; tile_rows.min(range.len()) * cols];
        let mut row = range.start;
        while row < range.end {
            let len = tile_rows.min(range.end - row);
            let block = &mut tile[..len * cols];
            block.fill(0.0);
            for (local, srow) in block.chunks_exact_mut(cols).enumerate() {
                holdout
                    .get(row + local)
                    .x
                    .add_scaled_rows_into(table, cols, srow);
            }
            let at = (row - range.start) * outputs;
            for (p, out) in dst.iter_mut().enumerate() {
                let out = &mut out[at..at + len * outputs];
                if outputs == 1 {
                    for (o, srow) in out.iter_mut().zip(block.chunks_exact(cols)) {
                        *o = srow[p];
                    }
                } else {
                    for (o, srow) in out.chunks_exact_mut(outputs).zip(block.chunks_exact(cols)) {
                        o.copy_from_slice(&srow[p * outputs..(p + 1) * outputs]);
                    }
                }
            }
            row += len;
        }
    });
    drop(parts);
    scores
}

/// Draw a pool of `count` centered parameter-perturbation vectors from
/// the model statistics (unscaled: covariance `H⁻¹JH⁻¹`).
pub fn draw_pool(stats: &ModelStatistics, count: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut sampler = MvnSampler::new(stats);
    let mut rng = rng_from_seed(seed);
    sampler.sample_pool(&mut rng, count)
}

impl<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> DiffEngine<'a, F, S> {
    /// Build an engine for `theta_base` and the given perturbation
    /// pools. `pool_w` may be empty when only one-stage differences are
    /// needed (accuracy estimation).
    ///
    /// Equivalent to `HoldoutScorer::new(..).engine(pool_u, pool_w)`;
    /// use a [`HoldoutScorer`] directly when several engines share one
    /// base parameter vector, so its scores are computed once.
    pub fn new(
        spec: &'a S,
        holdout: &'a Dataset<F>,
        theta_base: &'a [f64],
        pool_u: &'a [Vec<f64>],
        pool_w: &'a [Vec<f64>],
    ) -> Self {
        HoldoutScorer::new(spec, holdout, theta_base).engine(pool_u, pool_w)
    }

    /// Number of pooled draws available.
    pub fn pool_size(&self) -> usize {
        match &self.mode {
            Mode::Margins { pool_u, .. } => pool_u.len(),
            Mode::Generic { pool_u, .. } => pool_u.len(),
        }
    }

    /// `v(m(θ_base), m(θ_base + scale·u_i))` — the accuracy-estimator
    /// form (Corollary 1: `θ̂_N | θ_n`).
    pub fn diff_one_stage(&self, i: usize, scale: f64) -> f64 {
        match &self.mode {
            Mode::Margins {
                outputs,
                rms,
                base,
                pool_u,
                ..
            } => {
                let pairs = base
                    .iter()
                    .zip(&pool_u[i])
                    .map(|(&s, &u)| (s, s + scale * u));
                self.margin_diff(*outputs, *rms, pairs)
            }
            Mode::Generic { base, pool_u, .. } => {
                let u = &pool_u[i];
                let other: Vec<f64> = base.iter().zip(u).map(|(b, ui)| b + scale * ui).collect();
                self.spec.diff(base, &other, self.holdout)
            }
        }
    }

    /// `v(m(θ_n,i), m(θ_N,i))` with `θ_n,i = θ_base + scale1·u_i` and
    /// `θ_N,i = θ_n,i + scale2·w_i` — the sample-size-estimator form
    /// (two-stage sampling, paper §4.1).
    pub fn diff_two_stage(&self, i: usize, scale1: f64, scale2: f64) -> f64 {
        match &self.mode {
            Mode::Margins {
                outputs,
                rms,
                base,
                pool_u,
                pool_w,
            } => self.margin_diff(
                *outputs,
                *rms,
                two_stage_pairs(base, &pool_u[i], &pool_w[i], scale1, scale2),
            ),
            Mode::Generic {
                base,
                pool_u,
                pool_w,
            } => {
                let u = &pool_u[i];
                let w = &pool_w[i];
                let theta_n: Vec<f64> = base.iter().zip(u).map(|(b, ui)| b + scale1 * ui).collect();
                let theta_big: Vec<f64> = theta_n
                    .iter()
                    .zip(w)
                    .map(|(t, wi)| t + scale2 * wi)
                    .collect();
                self.spec.diff(&theta_n, &theta_big, self.holdout)
            }
        }
    }

    /// Exactly `self.diff_two_stage(i, scale1, scale2) <= epsilon`, but
    /// the margin path stops scanning the holdout once the verdict is
    /// settled: a disagreement count past the largest `c` with
    /// `c / h <= ε` (or one that can no longer get there), or a partial
    /// RMS sum whose `sqrt(partial / h)` already exceeds `ε`. Both
    /// statistics only grow row by row (the RMS sum adds non-negative
    /// squares, and f64 rounding is monotone), so no later row can
    /// change a settled verdict.
    pub(crate) fn two_stage_within(
        &self,
        i: usize,
        scale1: f64,
        scale2: f64,
        epsilon: f64,
    ) -> bool {
        match &self.mode {
            Mode::Margins {
                outputs,
                rms,
                base,
                pool_u,
                pool_w,
            } => {
                let pairs = two_stage_pairs(base, &pool_u[i], &pool_w[i], scale1, scale2);
                self.margin_within(*outputs, *rms, epsilon, pairs)
            }
            Mode::Generic { .. } => self.diff_two_stage(i, scale1, scale2) <= epsilon,
        }
    }

    /// Shared margin-difference loop over the two score vectors' margin
    /// pairs, in flat `j · outputs + t` order.
    fn margin_diff(
        &self,
        outputs: usize,
        rms: bool,
        pairs: impl Iterator<Item = (f64, f64)>,
    ) -> f64 {
        let h = self.holdout.len();
        if h == 0 {
            return 0.0;
        }
        let preds = RowPredictions::new(self.spec, outputs, pairs);
        if rms {
            let mut sum_sq = 0.0;
            for (pa, pb) in preds {
                sum_sq += (pa - pb) * (pa - pb);
            }
            (sum_sq / h as f64).sqrt()
        } else {
            let disagree = preds.filter(|(pa, pb)| pa != pb).count();
            disagree as f64 / h as f64
        }
    }

    /// [`Self::margin_diff`]` <= epsilon` with the exact early exits of
    /// [`Self::two_stage_within`].
    fn margin_within(
        &self,
        outputs: usize,
        rms: bool,
        epsilon: f64,
        pairs: impl Iterator<Item = (f64, f64)>,
    ) -> bool {
        let h = self.holdout.len();
        if h == 0 {
            return 0.0 <= epsilon;
        }
        let preds = RowPredictions::new(self.spec, outputs, pairs);
        if rms {
            let rms_of = |sum_sq: f64| (sum_sq / h as f64).sqrt();
            let mut sum_sq = 0.0;
            for (j, (pa, pb)) in preds.enumerate() {
                sum_sq += (pa - pb) * (pa - pb);
                if j % RMS_CHECK_ROWS == RMS_CHECK_ROWS - 1 && rms_of(sum_sq) > epsilon {
                    return false;
                }
            }
            rms_of(sum_sq) <= epsilon
        } else {
            let Some(c_max) = max_disagreements(h, epsilon) else {
                return false;
            };
            // Rows that may still disagree before the draw misses; once
            // no more rows remain than that, the draw is a hit.
            let mut slack = c_max;
            for (j, (pa, pb)) in preds.enumerate() {
                if h - j <= slack {
                    return true;
                }
                if pa != pb {
                    if slack == 0 {
                        return false;
                    }
                    slack -= 1;
                }
            }
            true
        }
    }
}

/// The two-stage margin pairs `(s_n, s_n + scale2·w)` with
/// `s_n = base + scale1·u`, in flat score order.
fn two_stage_pairs<'v>(
    base: &'v [f64],
    u: &'v [f64],
    w: &'v [f64],
    scale1: f64,
    scale2: f64,
) -> impl Iterator<Item = (f64, f64)> + 'v {
    base.iter().zip(u).zip(w).map(move |((&s, &u), &w)| {
        let sn = s + scale1 * u;
        (sn, sn + scale2 * w)
    })
}

/// Rows between the early-miss checks of an RMS scan (each check is one
/// division and one square root).
const RMS_CHECK_ROWS: usize = 64;

/// The largest disagreement count `c ≤ h` with `c as f64 / h as f64 <=
/// epsilon` — the integer form of the disagreement-rate comparison —
/// or `None` when not even `c = 0` passes (a negative or NaN `ε`). The
/// rate is non-decreasing in `c`, so the passing counts are a prefix.
fn max_disagreements(h: usize, epsilon: f64) -> Option<usize> {
    let passes = |c: usize| c as f64 / h as f64 <= epsilon;
    if !passes(0) {
        return None;
    }
    let mut c = ((epsilon * h as f64).floor() as usize).min(h);
    while c > 0 && !passes(c) {
        c -= 1;
    }
    while c < h && passes(c + 1) {
        c += 1;
    }
    Some(c)
}

/// Both predictions per holdout row, from the margin pairs of two score
/// vectors. A single-output model hands each margin to
/// [`ModelClassSpec::predict_from_margins`] as a one-element slice; a
/// `K`-output model gathers a row's `K` pairs into two scratch vectors
/// allocated once per scan.
struct RowPredictions<'s, F: FeatureVec, S: ModelClassSpec<F> + ?Sized, I> {
    spec: &'s S,
    pairs: I,
    a: Vec<f64>,
    b: Vec<f64>,
    _features: std::marker::PhantomData<F>,
}

impl<'s, F: FeatureVec, S: ModelClassSpec<F> + ?Sized, I> RowPredictions<'s, F, S, I> {
    fn new(spec: &'s S, outputs: usize, pairs: I) -> Self {
        let scratch = if outputs == 1 { 0 } else { outputs };
        RowPredictions {
            spec,
            pairs,
            a: vec![0.0; scratch],
            b: vec![0.0; scratch],
            _features: std::marker::PhantomData,
        }
    }
}

impl<F: FeatureVec, S: ModelClassSpec<F> + ?Sized, I: Iterator<Item = (f64, f64)>> Iterator
    for RowPredictions<'_, F, S, I>
{
    type Item = (f64, f64);

    #[inline]
    fn next(&mut self) -> Option<(f64, f64)> {
        if self.a.is_empty() {
            let (a, b) = self.pairs.next()?;
            return Some((
                self.spec.predict_from_margins(std::slice::from_ref(&a)),
                self.spec.predict_from_margins(std::slice::from_ref(&b)),
            ));
        }
        for (a, b) in self.a.iter_mut().zip(&mut self.b) {
            (*a, *b) = self.pairs.next()?;
        }
        Some((
            self.spec.predict_from_margins(&self.a),
            self.spec.predict_from_margins(&self.b),
        ))
    }
}

/// The engine as it stood before in-place pool scoring and the
/// tightened probe kernel, kept verbatim as the exactness oracle: the
/// construction (`batched_scores`, per-example fallback, generic mode)
/// and the closure-filled `margin_diff` with its two-vectors-per-draw
/// scratch. Every optimized path must reproduce these values to the
/// bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::score_per_example;
    use crate::mcs::ModelClassSpec;
    use blinkml_data::parallel::par_ranges;
    use blinkml_data::{Dataset, FeatureVec};
    use blinkml_linalg::Matrix;

    /// Verbatim copy of the chunked GEMM-then-concatenate scorer.
    pub(crate) fn batched_scores<F: FeatureVec>(
        holdout: &Dataset<F>,
        w_all: &Matrix,
        outputs: usize,
    ) -> Vec<Vec<f64>> {
        let h = holdout.len();
        let cols = w_all.cols();
        let num_params = cols / outputs;
        let table = w_all.as_slice();
        let chunked: Vec<Vec<Vec<f64>>> = par_ranges(h, |range| {
            let len = range.len();
            let mut block = vec![0.0; len * cols];
            for (local, j) in range.enumerate() {
                holdout.get(j).x.add_scaled_rows_into(
                    table,
                    cols,
                    &mut block[local * cols..(local + 1) * cols],
                );
            }
            let mut segments: Vec<Vec<f64>> = (0..num_params)
                .map(|_| Vec::with_capacity(len * outputs))
                .collect();
            for srow in block.chunks_exact(cols) {
                for (p, segment) in segments.iter_mut().enumerate() {
                    segment.extend_from_slice(&srow[p * outputs..(p + 1) * outputs]);
                }
            }
            segments
        });
        let mut scores: Vec<Vec<f64>> = (0..num_params)
            .map(|_| Vec::with_capacity(h * outputs))
            .collect();
        for segments in chunked {
            for (score, segment) in scores.iter_mut().zip(segments) {
                score.extend_from_slice(&segment);
            }
        }
        scores
    }

    enum Mode<'a> {
        Margins {
            outputs: usize,
            rms: bool,
            base: Vec<f64>,
            pool_u: Vec<Vec<f64>>,
            pool_w: Vec<Vec<f64>>,
        },
        Generic {
            base: &'a [f64],
            pool_u: &'a [Vec<f64>],
            pool_w: &'a [Vec<f64>],
        },
    }

    /// The reference engine: base and pools scored the way the original
    /// `HoldoutScorer::new(..).engine(..)` scored them.
    pub(crate) struct RefEngine<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> {
        spec: &'a S,
        holdout: &'a Dataset<F>,
        mode: Mode<'a>,
    }

    impl<'a, F: FeatureVec, S: ModelClassSpec<F> + ?Sized> RefEngine<'a, F, S> {
        pub(crate) fn new(
            spec: &'a S,
            holdout: &'a Dataset<F>,
            theta_base: &'a [f64],
            pool_u: &'a [Vec<f64>],
            pool_w: &'a [Vec<f64>],
        ) -> Self {
            let dim = holdout.dim();
            let mode = match spec.num_margin_outputs(dim) {
                Some(outputs) => {
                    // The base alone, then both pools stacked into one
                    // GEMM, exactly as the original scorer and engine
                    // built them.
                    let stacked: Vec<&[f64]> = pool_u
                        .iter()
                        .chain(pool_w.iter())
                        .map(Vec::as_slice)
                        .collect();
                    let (base, mut scores) = match spec.margin_weights(theta_base, dim) {
                        Some(wb) => {
                            let base = batched_scores(holdout, &wb, outputs)
                                .pop()
                                .expect("one stacked block");
                            let blocks: Vec<Matrix> = stacked
                                .iter()
                                .map(|t| spec.margin_weights(t, dim).expect("uniform weights"))
                                .collect();
                            let scores = if blocks.is_empty() {
                                Vec::new()
                            } else {
                                batched_scores(holdout, &Matrix::hstack(&blocks), outputs)
                            };
                            (base, scores)
                        }
                        None => (
                            score_per_example(spec, holdout, theta_base, outputs),
                            stacked
                                .iter()
                                .map(|t| score_per_example(spec, holdout, t, outputs))
                                .collect(),
                        ),
                    };
                    let pool_w_scores = scores.split_off(pool_u.len());
                    Mode::Margins {
                        outputs,
                        rms: spec.diff_is_rms(),
                        base,
                        pool_u: scores,
                        pool_w: pool_w_scores,
                    }
                }
                None => Mode::Generic {
                    base: theta_base,
                    pool_u,
                    pool_w,
                },
            };
            RefEngine {
                spec,
                holdout,
                mode,
            }
        }

        pub(crate) fn diff_one_stage(&self, i: usize, scale: f64) -> f64 {
            match &self.mode {
                Mode::Margins {
                    outputs,
                    rms,
                    base,
                    pool_u,
                    ..
                } => {
                    let u = &pool_u[i];
                    self.margin_diff(*outputs, *rms, |j, a, b| {
                        for t in 0..*outputs {
                            let s = base[j * outputs + t];
                            a[t] = s;
                            b[t] = s + scale * u[j * outputs + t];
                        }
                    })
                }
                Mode::Generic { base, pool_u, .. } => {
                    let u = &pool_u[i];
                    let other: Vec<f64> =
                        base.iter().zip(u).map(|(b, ui)| b + scale * ui).collect();
                    self.spec.diff(base, &other, self.holdout)
                }
            }
        }

        pub(crate) fn diff_two_stage(&self, i: usize, scale1: f64, scale2: f64) -> f64 {
            match &self.mode {
                Mode::Margins {
                    outputs,
                    rms,
                    base,
                    pool_u,
                    pool_w,
                } => {
                    let u = &pool_u[i];
                    let w = &pool_w[i];
                    self.margin_diff(*outputs, *rms, |j, a, b| {
                        for t in 0..*outputs {
                            let sn = base[j * outputs + t] + scale1 * u[j * outputs + t];
                            a[t] = sn;
                            b[t] = sn + scale2 * w[j * outputs + t];
                        }
                    })
                }
                Mode::Generic {
                    base,
                    pool_u,
                    pool_w,
                } => {
                    let u = &pool_u[i];
                    let w = &pool_w[i];
                    let theta_n: Vec<f64> =
                        base.iter().zip(u).map(|(b, ui)| b + scale1 * ui).collect();
                    let theta_big: Vec<f64> = theta_n
                        .iter()
                        .zip(w)
                        .map(|(t, wi)| t + scale2 * wi)
                        .collect();
                    self.spec.diff(&theta_n, &theta_big, self.holdout)
                }
            }
        }

        /// Verbatim copy of the closure-filled margin-difference loop.
        fn margin_diff(
            &self,
            outputs: usize,
            rms: bool,
            fill: impl Fn(usize, &mut [f64], &mut [f64]),
        ) -> f64 {
            let h = self.holdout.len();
            if h == 0 {
                return 0.0;
            }
            let mut a = vec![0.0; outputs];
            let mut b = vec![0.0; outputs];
            if rms {
                let mut sum_sq = 0.0;
                for j in 0..h {
                    fill(j, &mut a, &mut b);
                    let pa = self.spec.predict_from_margins(&a);
                    let pb = self.spec.predict_from_margins(&b);
                    sum_sq += (pa - pb) * (pa - pb);
                }
                (sum_sq / h as f64).sqrt()
            } else {
                let mut disagree = 0usize;
                for j in 0..h {
                    fill(j, &mut a, &mut b);
                    if self.spec.predict_from_margins(&a) != self.spec.predict_from_margins(&b) {
                        disagree += 1;
                    }
                }
                disagree as f64 / h as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::linreg::LinearRegressionSpec;
    use crate::models::logreg::LogisticRegressionSpec;
    use crate::models::ppca::PpcaSpec;
    use blinkml_data::generators::{low_rank_gaussian, synthetic_linear, synthetic_logistic};
    use proptest::prelude::*;

    #[test]
    fn margin_path_matches_spec_diff_linear() {
        let (holdout, _) = synthetic_linear(300, 4, 0.1, 1);
        let spec = LinearRegressionSpec::new(1e-3);
        // d = 4 features + the trailing ln σ² parameter.
        let base = vec![0.5, -0.2, 0.3, 0.1, 0.0];
        let pool: Vec<Vec<f64>> = vec![
            vec![0.1, 0.0, -0.1, 0.2, 0.05],
            vec![-0.3, 0.2, 0.0, 0.05, -0.1],
        ];
        let engine = DiffEngine::new(&spec, &holdout, &base, &pool, &pool);
        for (i, pool_i) in pool.iter().enumerate() {
            for scale in [0.0, 0.1, 1.0] {
                let fast = engine.diff_one_stage(i, scale);
                let other: Vec<f64> = base
                    .iter()
                    .zip(pool_i)
                    .map(|(b, u)| b + scale * u)
                    .collect();
                let slow = spec.diff(&base, &other, &holdout);
                assert!(
                    (fast - slow).abs() < 1e-12,
                    "one-stage i={i} scale={scale}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn margin_path_matches_spec_diff_two_stage_logistic() {
        let (holdout, _) = synthetic_logistic(400, 3, 2.0, 2);
        let spec = LogisticRegressionSpec::new(1e-3);
        let base = vec![0.8, -0.5, 0.2];
        let pool_u = vec![vec![0.2, 0.1, -0.3], vec![0.0, -0.2, 0.1]];
        let pool_w = vec![vec![-0.1, 0.3, 0.2], vec![0.15, 0.0, -0.25]];
        let engine = DiffEngine::new(&spec, &holdout, &base, &pool_u, &pool_w);
        for i in 0..2 {
            let (s1, s2) = (0.7, 0.3);
            let fast = engine.diff_two_stage(i, s1, s2);
            let theta_n: Vec<f64> = base
                .iter()
                .zip(&pool_u[i])
                .map(|(b, u)| b + s1 * u)
                .collect();
            let theta_big: Vec<f64> = theta_n
                .iter()
                .zip(&pool_w[i])
                .map(|(t, w)| t + s2 * w)
                .collect();
            let slow = spec.diff(&theta_n, &theta_big, &holdout);
            assert!((fast - slow).abs() < 1e-12, "i={i}: {fast} vs {slow}");
        }
    }

    #[test]
    fn generic_path_serves_ppca() {
        let holdout = low_rank_gaussian(50, 4, 2, 0.2, 3);
        let spec = PpcaSpec::new(2);
        let base: Vec<f64> = (0..9).map(|i| 0.3 + 0.1 * i as f64).collect();
        let pool = vec![vec![0.05; 9], vec![-0.02; 9]];
        let engine = DiffEngine::new(&spec, &holdout, &base, &pool, &pool);
        let v = engine.diff_one_stage(0, 1.0);
        let other: Vec<f64> = base.iter().zip(&pool[0]).map(|(b, u)| b + u).collect();
        let expect = spec.diff(&base, &other, &holdout);
        assert!((v - expect).abs() < 1e-12);
    }

    #[test]
    fn zero_scale_means_zero_difference() {
        let (holdout, _) = synthetic_logistic(200, 3, 2.0, 4);
        let spec = LogisticRegressionSpec::new(1e-3);
        let base = vec![0.4, 0.4, -0.2];
        let pool = vec![vec![1.0, 1.0, 1.0]];
        let engine = DiffEngine::new(&spec, &holdout, &base, &pool, &pool);
        assert_eq!(engine.diff_one_stage(0, 0.0), 0.0);
        assert_eq!(engine.diff_two_stage(0, 0.5, 0.0), 0.0);
    }

    #[test]
    fn difference_grows_with_scale() {
        let (holdout, _) = synthetic_linear(300, 3, 0.1, 5);
        let spec = LinearRegressionSpec::new(0.0);
        let base = vec![1.0, 1.0, 1.0, 0.0];
        let pool = vec![vec![0.5, -0.5, 0.2, 0.1]];
        let engine = DiffEngine::new(&spec, &holdout, &base, &pool, &pool);
        let v1 = engine.diff_one_stage(0, 0.1);
        let v2 = engine.diff_one_stage(0, 1.0);
        assert!(v2 > v1, "{v2} vs {v1}");
    }

    #[test]
    fn scorer_engines_match_standalone_engines_bitwise() {
        // One scorer serving two engines (the accuracy pool and the
        // sample-size pools) must produce exactly the diffs of two
        // independently built engines — the shared-base refactor cannot
        // move a bit.
        let (holdout, _) = synthetic_logistic(300, 4, 2.0, 9);
        let spec = LogisticRegressionSpec::new(1e-3);
        let base = vec![0.6, -0.3, 0.2, 0.1];
        let pool_a: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..4).map(|j| ((i * 4 + j) as f64 * 0.23).sin()).collect())
            .collect();
        let pool_b: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..4).map(|j| ((i * 4 + j) as f64 * 0.41).cos()).collect())
            .collect();
        let scorer = HoldoutScorer::new(&spec, &holdout, &base);
        let shared_one = scorer.engine(&pool_a, &[]);
        let shared_two = scorer.engine(&pool_a, &pool_b);
        let standalone_one = DiffEngine::new(&spec, &holdout, &base, &pool_a, &[]);
        let standalone_two = DiffEngine::new(&spec, &holdout, &base, &pool_a, &pool_b);
        for i in 0..3 {
            for scale in [0.0, 0.3, 1.0] {
                assert_eq!(
                    shared_one.diff_one_stage(i, scale),
                    standalone_one.diff_one_stage(i, scale),
                    "one-stage i={i} scale={scale}"
                );
                assert_eq!(
                    shared_two.diff_two_stage(i, scale, 0.5),
                    standalone_two.diff_two_stage(i, scale, 0.5),
                    "two-stage i={i} scale={scale}"
                );
            }
        }

        // Generic mode (PPCA): the scorer precomputes nothing but the
        // sharing must still be transparent.
        let g_holdout = low_rank_gaussian(40, 4, 2, 0.2, 5);
        let g_spec = PpcaSpec::new(2);
        let g_base: Vec<f64> = (0..9).map(|i| 0.2 + 0.1 * i as f64).collect();
        let g_pool = vec![vec![0.05; 9], vec![-0.02; 9]];
        let g_scorer = HoldoutScorer::new(&g_spec, &g_holdout, &g_base);
        assert!(g_scorer.outputs().is_none());
        let g_shared = g_scorer.engine(&g_pool, &g_pool);
        let g_standalone = DiffEngine::new(&g_spec, &g_holdout, &g_base, &g_pool, &g_pool);
        for i in 0..2 {
            assert_eq!(
                g_shared.diff_one_stage(i, 0.7),
                g_standalone.diff_one_stage(i, 0.7)
            );
        }
    }

    /// One stacked GEMM serving a grid of `(spec, θ₀)` pairs must yield
    /// scorers bit-identical to independently built ones — the sweep
    /// engine's shared-scorer construction cannot move a bit.
    #[test]
    fn new_many_matches_individual_scorers_bitwise() {
        let (holdout, _) = synthetic_logistic(350, 4, 2.0, 21);
        let specs: Vec<LogisticRegressionSpec> = [0.0, 1e-3, 0.5]
            .iter()
            .map(|&b| LogisticRegressionSpec::new(b))
            .collect();
        let thetas: Vec<Vec<f64>> = (0..3)
            .map(|k| (0..4).map(|j| ((k * 4 + j) as f64 * 0.31).sin()).collect())
            .collect();
        let pool_u: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..4).map(|j| ((i * 4 + j) as f64 * 0.17).cos()).collect())
            .collect();
        let pool_w: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..4).map(|j| ((i * 4 + j) as f64 * 0.53).sin()).collect())
            .collect();
        let entries: Vec<(&LogisticRegressionSpec, &[f64])> = specs
            .iter()
            .zip(&thetas)
            .map(|(s, t)| (s, t.as_slice()))
            .collect();
        let many = HoldoutScorer::new_many(&holdout, &entries);
        assert_eq!(many.len(), 3);
        for ((scorer, spec), theta) in many.iter().zip(&specs).zip(&thetas) {
            let solo = HoldoutScorer::new(spec, &holdout, theta);
            let fast = scorer.engine(&pool_u, &pool_w);
            let slow = solo.engine(&pool_u, &pool_w);
            for i in 0..3 {
                for scale in [0.0, 0.4, 1.0] {
                    assert_eq!(
                        fast.diff_one_stage(i, scale).to_bits(),
                        slow.diff_one_stage(i, scale).to_bits()
                    );
                    assert_eq!(
                        fast.diff_two_stage(i, scale, 0.6).to_bits(),
                        slow.diff_two_stage(i, scale, 0.6).to_bits()
                    );
                }
            }
        }

        // Generic specs (no margin weights) fall back per pair.
        let g_holdout = low_rank_gaussian(40, 4, 2, 0.2, 7);
        let g_spec = PpcaSpec::new(2);
        let g_theta: Vec<f64> = (0..9).map(|i| 0.2 + 0.1 * i as f64).collect();
        let g_entries: Vec<(&PpcaSpec, &[f64])> = vec![(&g_spec, &g_theta), (&g_spec, &g_theta)];
        let g_many = HoldoutScorer::new_many(&g_holdout, &g_entries);
        assert_eq!(g_many.len(), 2);
        assert!(g_many[0].outputs().is_none());
    }

    #[test]
    fn pool_size_reports() {
        let (holdout, _) = synthetic_linear(10, 2, 0.1, 6);
        let spec = LinearRegressionSpec::new(0.0);
        let base = vec![0.0, 0.0, 0.0];
        let pool = vec![vec![1.0, 0.0, 0.0]; 7];
        let engine = DiffEngine::new(&spec, &holdout, &base, &pool, &[]);
        assert_eq!(engine.pool_size(), 7);
    }

    /// Deterministic pseudo-random vectors for the oracle tests.
    fn xorshift_vecs(count: usize, dim: usize, seed: u64, spread: f64) -> Vec<Vec<f64>> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2.0 * spread
        };
        (0..count)
            .map(|_| (0..dim).map(|_| next()).collect())
            .collect()
    }

    /// Every engine value — per-draw pool scores, one- and two-stage
    /// diffs, and the early-exit verdicts — against the verbatim
    /// reference engine, by bits.
    #[allow(clippy::too_many_arguments)]
    fn assert_engine_matches_reference<F: FeatureVec, S: ModelClassSpec<F> + ?Sized>(
        label: &str,
        spec: &S,
        holdout: &Dataset<F>,
        seed: u64,
        k: usize,
        scales: (f64, f64),
        epsilon: f64,
    ) -> Result<(), String> {
        let dim = spec.param_dim(holdout.dim());
        let theta = xorshift_vecs(1, dim, seed, 1.0).pop().unwrap();
        let pool_u = xorshift_vecs(k, dim, seed ^ 0x55, 0.5);
        let pool_w = xorshift_vecs(k, dim, seed ^ 0xAA, 0.5);
        if let (Some(outputs), Some(_)) = (
            spec.num_margin_outputs(holdout.dim()),
            spec.margin_weights(&theta, holdout.dim()),
        ) {
            let blocks: Vec<Matrix> = pool_u
                .iter()
                .map(|t| spec.margin_weights(t, holdout.dim()).unwrap())
                .collect();
            let w_all = Matrix::hstack(&blocks);
            let fast = batched_scores(holdout, &w_all, outputs);
            let slow = reference::batched_scores(holdout, &w_all, outputs);
            prop_assert_eq!(fast.len(), slow.len(), "{}: pool count", label);
            for (p, (a, b)) in fast.iter().zip(&slow).enumerate() {
                let a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(a, b, "{}: scores of draw {}", label, p);
            }
        }
        let engine = HoldoutScorer::new(spec, holdout, &theta).engine(&pool_u, &pool_w);
        let oracle = reference::RefEngine::new(spec, holdout, &theta, &pool_u, &pool_w);
        let (s1, s2) = scales;
        for i in 0..k {
            let one = oracle.diff_one_stage(i, s1);
            let two = oracle.diff_two_stage(i, s1, s2);
            prop_assert_eq!(
                engine.diff_one_stage(i, s1).to_bits(),
                one.to_bits(),
                "{}: one-stage draw {}",
                label,
                i
            );
            prop_assert_eq!(
                engine.diff_two_stage(i, s1, s2).to_bits(),
                two.to_bits(),
                "{}: two-stage draw {}",
                label,
                i
            );
            // The early-exit verdict at a random ε, exactly at the
            // draw's own diff, and one ulp either side of it.
            let below = if two > 0.0 {
                f64::from_bits(two.to_bits() - 1)
            } else {
                -f64::from_bits(1)
            };
            let above = f64::from_bits(two.to_bits() + 1);
            for eps in [epsilon, two, below, above] {
                prop_assert_eq!(
                    engine.two_stage_within(i, s1, s2, eps),
                    two <= eps,
                    "{}: verdict of draw {} at ε = {}",
                    label,
                    i,
                    eps
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn oracle_engine_matches_reference_engine(
            seed in 1u64..100_000,
            k in 1usize..9,
            h in 1usize..300,
            s1 in 0.0f64..1.5,
            s2 in 0.0f64..1.5,
            epsilon in 0.0f64..0.6,
        ) {
            let scales = (s1, s2);
            let (dense, _) = synthetic_logistic(h, 4, 2.0, seed);
            assert_engine_matches_reference(
                "logistic", &LogisticRegressionSpec::new(1e-3), &dense, seed, k, scales, epsilon,
            )?;
            assert_engine_matches_reference(
                "poisson", &crate::models::PoissonRegressionSpec::new(1e-3), &dense, seed, k,
                scales, epsilon,
            )?;
            assert_engine_matches_reference(
                "linreg", &LinearRegressionSpec::new(1e-3), &dense, seed, k, scales, epsilon,
            )?;
            assert_engine_matches_reference(
                "per-example logistic",
                &crate::testing::NoBatch(LogisticRegressionSpec::new(1e-3)),
                &dense, seed, k, scales, epsilon,
            )?;
            let multi = blinkml_data::generators::synthetic_multiclass(h, 4, 3, seed);
            assert_engine_matches_reference(
                "maxent", &crate::models::MaxEntSpec::new(1e-3, 3), &multi, seed, k, scales,
                epsilon,
            )?;
            let sparse = blinkml_data::generators::criteo_like(h, 40, seed);
            assert_engine_matches_reference(
                "sparse logistic", &LogisticRegressionSpec::new(1e-3), &sparse, seed, k, scales,
                epsilon,
            )?;
            let sparse_multi = blinkml_data::generators::yelp_like(h, 60, seed);
            assert_engine_matches_reference(
                "sparse maxent", &crate::models::MaxEntSpec::new(1e-3, 5), &sparse_multi, seed,
                k, scales, epsilon,
            )?;
            let low_rank = low_rank_gaussian(h.min(60), 4, 2, 0.2, seed);
            assert_engine_matches_reference(
                "ppca", &PpcaSpec::new(2), &low_rank, seed, k, scales, epsilon,
            )?;
        }
    }
}
