//! Summaries, the metric tables, the outcome digest, and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput", "1/s"),
    ("sample_fraction", "share"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("matrix.pool_build_ms", "ms"),
    ("matrix.capture_ms", "ms"),
    ("optim.pilot_fit_ms", "ms"),
    ("optim.final_fit_ms", "ms"),
    ("optim.iterations", "count"),
    ("stats.statistics_ms", "ms"),
    ("stats.rank", "count"),
    ("diff_engine.scorer_ms", "ms"),
    ("accuracy.eps0_ms", "ms"),
    ("sample_size.search_ms", "ms"),
    ("sample_size.probes", "count"),
    ("sample_size.ms_per_probe", "ms"),
    ("coordinator.untimed_share", "share"),
    ("serve.untimed_ms", "ms"),
    ("serve.pilot_ms", "ms"),
    ("serve.decision_ms", "ms"),
    ("serve.final_fit_ms", "ms"),
    ("serve.cache.hit_ratio", "share"),
    ("serve.cache.pilot_trains", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.rung.full", "count"),
    ("serve.rung.relaxed", "count"),
    ("serve.rung.pilot", "count"),
    ("serve.rung.stale", "count"),
    ("serve.drift.fresh", "count"),
    ("serve.drift.stale", "count"),
    ("serve.drift.retrain", "count"),
    ("serve.cache.pilots_retired", "count"),
    ("serve.advance_epoch_ms", "ms"),
    ("serve.sidecar.warm_pilots", "count"),
    ("serve.spawn_ms", "ms"),
    ("stream.materialize_ms", "ms"),
    ("stream.append_ms", "ms"),
    ("stream.rows_rejected", "count"),
    ("io.parse_ms_per_krow", "ms"),
    ("wal.bytes_per_row", "B"),
    ("wal.share", "share"),
    ("wal.open_ms", "ms"),
    ("wal.rows_replayed", "count"),
    ("recovery_s", "s"),
    ("failed_share", "share"),
    ("guarantee_violation_share", "share"),
    ("loadgen.lag_ms", "ms"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead", "ratio"),
];

/// Whether `name` uses only the metric-name charset `[A-Za-z0-9_.-]`,
/// starts with a letter or digit, and fits in 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    let starts_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `values` (mean of the middle two for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `values` with at least [`TAIL_BEYOND`]
/// samples strictly beyond it, as `(value, percentile)`. Sorted
/// ascending, that is the element at index `len − 1 − TAIL_BEYOND`.
/// `None` when there are too few samples for any such percentile.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = v.len() - 1 - TAIL_BEYOND;
    Some((v[idx], 100.0 * (idx + 1) as f64 / v.len() as f64))
}

/// The tail of `values` as `(value, description)`: [`tail`] when that
/// percentile lies above the median (at least `2·TAIL_BEYOND + 1`
/// samples), otherwise the slowest sample. 0 for an empty slice.
pub fn tail_or_max(values: &[f64]) -> (f64, String) {
    match tail(values) {
        Some((value, pct)) if values.len() > 2 * TAIL_BEYOND => {
            (value, format!("p{pct:.1} of {} samples", values.len()))
        }
        _ => (
            values.iter().copied().fold(0.0, f64::max),
            format!("max of {} samples", values.len()),
        ),
    }
}

/// Mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One training result, reduced to the fields that must reproduce bit
/// for bit: θ, chosen n, ε₀, ε̂, the degradation rung and the epoch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OutcomeBits {
    pub theta: Vec<u64>,
    pub n: usize,
    pub eps0: u64,
    pub eps_hat: u64,
    pub rung: u8,
    pub epoch: u64,
}

/// FNV-1a over a stream of 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn outcome(&mut self, o: &OutcomeBits) {
        self.word(o.theta.len() as u64);
        for &t in &o.theta {
            self.word(t);
        }
        for w in [o.n as u64, o.eps0, o.eps_hat, u64::from(o.rung), o.epoch] {
            self.word(w);
        }
    }

    pub fn of(outcomes: &[OutcomeBits]) -> Digest {
        let mut d = Digest::default();
        for o in outcomes {
            d.outcome(o);
        }
        d
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The benchmark's result: the correctness verdict, operation counts,
/// metrics in table order, and diagnostic notes printed before the
/// result line.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Fail the correctness verdict with a reason.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {}", reason.into()));
    }

    /// Fail the verdict for any metric of `table` that is not a finite
    /// number (a latency over failed requests, say), which the result
    /// line cannot carry.
    pub fn check_finite(&mut self, table: &[(&str, &str)]) {
        let bad: Vec<&str> = self
            .metrics
            .iter()
            .filter(|(name, value)| !value.is_finite() && table.iter().any(|(n, _)| n == name))
            .map(|(name, _)| *name)
            .collect();
        for name in bad {
            self.fail(format!("{name} is not a finite number"));
        }
    }

    /// The result line: exactly the metrics of `table`, each with its
    /// unit, in table order. Metrics the workload did not set read 0,
    /// and so do non-finite ones (see [`Report::check_finite`]).
    pub fn json(&self, table: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            debug_assert!(valid_metric_name(name), "bad metric name {name}");
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, pct) = tail(&values).unwrap();
        assert_eq!(v, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(values.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let values: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(tail(&values).is_none());
        let eleven: Vec<f64> = (0..11).rev().map(f64::from).collect();
        assert_eq!(tail(&eleven), Some((0.0, 100.0 / 11.0)));
    }

    #[test]
    fn tail_is_order_independent() {
        let a: Vec<f64> = (0..37).map(|i| f64::from((i * 17) % 37)).collect();
        let mut b = a.clone();
        b.sort_by(f64::total_cmp);
        assert_eq!(tail(&a), tail(&b));
        assert_eq!(tail(&a).unwrap().0, 26.0);
    }

    #[test]
    fn tail_or_max_falls_back_below_the_median() {
        let many: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail_or_max(&many).0, 11.0);
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_or_max(&few), (20.0, "max of 20 samples".to_string()));
        assert_eq!(tail_or_max(&[]).0, 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_use_the_charset() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "bad metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
        }
        assert!(!valid_metric_name("latency ms"));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("rate/s"));
        assert!(valid_metric_name("serve.rung.full"));
    }

    #[test]
    fn metric_names_are_unique_and_match_benchmark_json() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate metric name");
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(manifest).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_has_every_table_metric() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.5);
        r.set("setup_s", 0.25);
        let line = r.json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
    }

    #[test]
    fn non_finite_metrics_fail_the_verdict() {
        let mut r = Report {
            correct: true,
            ..Report::default()
        };
        r.set("latency_tail_ms", f64::INFINITY);
        r.set("trace.overhead", f64::NAN);
        r.check_finite(END_TO_END);
        assert!(!r.correct);
        assert_eq!(r.notes.len(), 1, "only metrics of the printed table count");
        assert!(r
            .json(END_TO_END)
            .contains("\"latency_tail_ms\": {\"value\": 0.0,"));
    }

    #[test]
    fn digest_depends_on_every_field() {
        let base = OutcomeBits {
            theta: vec![1, 2],
            n: 10,
            eps0: 3,
            eps_hat: 4,
            rung: 0,
            epoch: 0,
        };
        let d0 = Digest::of(std::slice::from_ref(&base)).hex();
        let mut changed = base.clone();
        changed.epoch = 1;
        assert_ne!(Digest::of(&[changed]).hex(), d0);
        let mut changed = base.clone();
        changed.theta[1] = 5;
        assert_ne!(Digest::of(&[changed]).hex(), d0);
        assert_eq!(Digest::of(&[base]).hex(), d0);
    }
}
