//! Dependency-free runtime metrics: counters, gauges, log-bucketed
//! histograms, a mergeable [`MetricsRegistry`] with JSON snapshot export,
//! and the [`HistogramSink`] adapter that turns the [`crate::trace`]
//! event stream into latency/size distributions.
//!
//! The paper's evaluation (and the survey literature on uncertain FIM)
//! compares algorithms on wall-clock *and* memory; averages alone hide
//! the tails that dominate those comparisons. This module makes the
//! tails first-class:
//!
//! * [`Histogram`] — a log-bucketed histogram over non-negative `f64`
//!   values (seconds, sample counts, probabilities). Buckets grow
//!   geometrically by `2^(1/8)` per bucket, so any reported quantile is
//!   within a relative factor of `2^(1/8) ≈ 1.09` of the exact
//!   sorted-sample quantile (the property tests assert this bound).
//!   Histograms merge exactly (bucket-wise addition), so per-run
//!   distributions aggregate across sweeps without storing samples.
//! * [`MetricsRegistry`] — named counters, gauges and histograms with a
//!   deterministic JSON snapshot ([`MetricsRegistry::to_json`]).
//! * [`HistogramSink`] — a [`MinerSink`] recording per-node latency,
//!   per-phase evaluation cost, `ApproxFCP` samples per call and FCP
//!   bound widths as distributions; composable with
//!   [`crate::trace::Tee`] so it stacks with the JSONL/progress sinks.
//!
//! Nothing here touches the miners: when no sink is attached the usual
//! [`crate::trace::NullSink`] monomorphization applies and the metrics
//! layer costs nothing (the observability tests assert no perturbation).

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use utdb::Item;

use crate::config::MinerConfig;
use crate::result::MiningOutcome;
use crate::stats::{KernelStats, MinerStats};
use crate::trace::{
    CountingSink, DpDecision, FcpEvalKind, MinerSink, Phase, PruneKind, ShardableSink,
};

/// Sub-buckets per power of two: bucket boundaries grow by `2^(1/8)`.
const SUB_BUCKETS: i64 = 8;
/// Smallest tracked positive value is `2^MIN_EXP` (≈ 0.93 ns as seconds).
const MIN_EXP: i64 = -30;
/// Largest bucket boundary is `2^MAX_EXP` (≈ 1.7e10); larger values clamp
/// into the final bucket (their exact `max` is still tracked).
const MAX_EXP: i64 = 34;
/// Total bucket count.
const NUM_BUCKETS: usize = ((MAX_EXP - MIN_EXP) * SUB_BUCKETS) as usize;

/// The worst-case multiplicative error of a [`Histogram`] quantile
/// against the exact sorted-sample quantile, for values inside the
/// tracked range: one full bucket width, `2^(1/8)`.
pub const QUANTILE_RELATIVE_ERROR: f64 = 1.090_507_732_665_257_7; // 2^(1/8)

/// A mergeable log-bucketed histogram over non-negative `f64` values.
///
/// Records exact `count`/`sum`/`min`/`max`; quantiles come from
/// geometric buckets (`2^(1/8)` growth), so [`Histogram::quantile`] is
/// within a factor [`QUANTILE_RELATIVE_ERROR`] of the exact quantile.
/// Values `≤ 0` land in a dedicated zero bucket; non-finite values are
/// ignored. Values outside `[2^-30, 2^34]` clamp to the end buckets.
#[derive(Clone, PartialEq)]
pub struct Histogram {
    buckets: Box<[u64; NUM_BUCKETS]>,
    zero: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Box::new([0; NUM_BUCKETS]),
            zero: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(value: f64) -> usize {
        debug_assert!(value > 0.0);
        let pos = (value.log2() - MIN_EXP as f64) * SUB_BUCKETS as f64;
        (pos.floor() as i64).clamp(0, NUM_BUCKETS as i64 - 1) as usize
    }

    /// Geometric midpoint of bucket `i` — the value quantiles report.
    fn bucket_value(i: usize) -> f64 {
        2f64.powf(MIN_EXP as f64 + (i as f64 + 0.5) / SUB_BUCKETS as f64)
    }

    /// Record one value. Non-finite values are ignored.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value <= 0.0 {
            self.zero += 1;
        } else {
            self.buckets[Self::bucket_index(value)] += 1;
        }
    }

    /// Record a [`Duration`] in seconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_secs_f64());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact minimum recorded value (`0.0` when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value (`0.0` when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Mean of recorded values (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`, nearest-rank on the bucketed
    /// distribution), within a factor [`QUANTILE_RELATIVE_ERROR`] of the
    /// exact sorted-sample quantile. Returns `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).round() as u64;
        if rank < self.zero {
            return 0.0;
        }
        let mut cumulative = self.zero;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative > rank {
                // The exact value at this rank lies in this bucket, so
                // clamping the representative to the observed range can
                // only improve the estimate.
                return Self::bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one (exact: bucket-wise sums).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Snapshot the standard summary statistics.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            sum: self.sum,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max())
            .field("mean", &self.mean())
            .finish()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.summary().fmt(f)
    }
}

/// The fixed summary statistics of one [`Histogram`] — what JSON
/// snapshots carry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Exact minimum.
    pub min: f64,
    /// Exact maximum.
    pub max: f64,
    /// Exact mean.
    pub mean: f64,
    /// Exact sum.
    pub sum: f64,
    /// Median (bucketed).
    pub p50: f64,
    /// 90th percentile (bucketed).
    pub p90: f64,
    /// 95th percentile (bucketed).
    pub p95: f64,
    /// 99th percentile (bucketed).
    pub p99: f64,
}

impl HistogramSummary {
    /// Serialize as one flat JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{},\"sum\":{},\
             \"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{}}}",
            self.count,
            json_f64(self.min),
            json_f64(self.max),
            json_f64(self.mean),
            json_f64(self.sum),
            json_f64(self.p50),
            json_f64(self.p90),
            json_f64(self.p95),
            json_f64(self.p99),
        )
    }
}

impl fmt::Display for HistogramSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "count={} min={:.3e} p50={:.3e} p90={:.3e} p95={:.3e} p99={:.3e} max={:.3e} mean={:.3e}",
            self.count, self.min, self.p50, self.p90, self.p95, self.p99, self.max, self.mean
        )
    }
}

/// Render an `f64` as a JSON number (non-finite values become `0`, which
/// never occurs for values produced by [`Histogram`]).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

/// Minimal JSON string escaping for metric names (which are
/// code-controlled, but defensively escaped anyway).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A named, mergeable collection of counters, gauges and histograms with
/// a deterministic (sorted-key) JSON snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Set the gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// The histogram `name`, created empty on first use.
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        self.histograms.entry(name.to_owned()).or_default()
    }

    /// Current value of counter `name`, if it exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Current value of gauge `name`, if it exists.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The histogram `name`, if it exists.
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate the counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate the gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate the histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merge another registry into this one: counters add, gauges take
    /// the other's value (last write wins), histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, &v) in &other.counters {
            self.add(name, v);
        }
        for (name, &v) in &other.gauges {
            self.set_gauge(name, v);
        }
        for (name, h) in &other.histograms {
            self.histogram(name).merge(h);
        }
    }

    /// Serialize the whole registry as one JSON object:
    ///
    /// ```json
    /// {"counters":{"nodes_visited":42},
    ///  "gauges":{"elapsed_s":0.5},
    ///  "histograms":{"node_latency_s":{"count":41,"min":...,"p99":...}}}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{v}", json_escape(name));
        }
        out.push_str("},\"gauges\":{");
        first = true;
        for (name, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{}", json_escape(name), json_f64(*v));
        }
        out.push_str("},\"histograms\":{");
        first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{}", json_escape(name), h.summary().to_json());
        }
        out.push_str("}}");
        out
    }

    /// Serialize the registry in the Prometheus text exposition format
    /// (version 0.0.4): counters and gauges as single samples, histograms
    /// as `summary` metrics (p50/p90/p99 `quantile` samples plus `_sum`
    /// and `_count`). Every metric name is prefixed with `prefix` and
    /// sanitized to the Prometheus name charset; the output passes
    /// [`lint_prometheus`].
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let name = prom_name(prefix, name);
            let _ = writeln!(out, "# HELP {name} Event counter {name}.");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let name = prom_name(prefix, name);
            let _ = writeln!(out, "# HELP {name} Gauge {name}.");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", prom_f64(*v));
        }
        for (name, h) in &self.histograms {
            let name = prom_name(prefix, name);
            let s = h.summary();
            let _ = writeln!(out, "# HELP {name} Distribution {name}.");
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
                let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {}", prom_f64(v));
            }
            let _ = writeln!(out, "{name}_sum {}", prom_f64(s.sum));
            let _ = writeln!(out, "{name}_count {}", s.count);
        }
        out
    }
}

/// `prefix_name`, restricted to the Prometheus metric-name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`); anything else becomes `_`.
fn prom_name(prefix: &str, name: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + name.len() + 1);
    for (i, c) in format!("{prefix}_{name}").chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => out.push(c),
            '0'..='9' if i > 0 => out.push(c),
            _ => out.push('_'),
        }
    }
    out
}

/// Render an `f64` as a Prometheus sample value.
fn prom_f64(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_owned()
    } else if x == f64::INFINITY {
        "+Inf".to_owned()
    } else if x == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{x}")
    }
}

fn valid_prom_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            matches!(c, 'a'..='z' | 'A'..='Z' | '_' | ':') || (i > 0 && c.is_ascii_digit())
        })
}

fn parse_prom_value(v: &str) -> bool {
    matches!(v, "NaN" | "+Inf" | "-Inf") || v.parse::<f64>().is_ok()
}

/// A minimal linter for the Prometheus text exposition format — enough
/// to catch malformed metric names, bad sample values, broken label
/// syntax, and samples that stray from their most recent `# TYPE`
/// family. Returns the first offense as `Err("line N: …")`.
pub fn lint_prometheus(text: &str) -> Result<(), String> {
    let fail = |n: usize, what: &str, line: &str| Err(format!("line {n}: {what}: {line:?}"));
    let mut family: Option<(String, String)> = None; // (name, type)
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                        return fail(n, "incomplete TYPE line", line);
                    };
                    if !valid_prom_name(name) {
                        return fail(n, "bad metric name in TYPE", line);
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return fail(n, "unknown metric type", line);
                    }
                    family = Some((name.to_owned(), kind.to_owned()));
                }
                Some("HELP") => {
                    let Some(name) = parts.next() else {
                        return fail(n, "incomplete HELP line", line);
                    };
                    if !valid_prom_name(name) {
                        return fail(n, "bad metric name in HELP", line);
                    }
                }
                _ => {} // free-form comment
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, rest) = match line.find('{') {
            Some(open) => {
                let Some(close) = line[open..].find('}') else {
                    return fail(n, "unterminated label block", line);
                };
                let labels = &line[open + 1..open + close];
                for pair in labels.split(',').filter(|p| !p.is_empty()) {
                    let Some((k, v)) = pair.split_once('=') else {
                        return fail(n, "label without '='", line);
                    };
                    if !valid_prom_name(k) {
                        return fail(n, "bad label name", line);
                    }
                    if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
                        return fail(n, "unquoted label value", line);
                    }
                }
                (&line[..open], &line[open + close + 1..])
            }
            None => match line.split_once(' ') {
                Some((name, rest)) => (name, rest),
                None => return fail(n, "sample without value", line),
            },
        };
        if !valid_prom_name(name_part) {
            return fail(n, "bad metric name", line);
        }
        let value = rest.trim();
        // An optional timestamp may follow the value.
        let value = value.split_whitespace().next().unwrap_or("");
        if !parse_prom_value(value) {
            return fail(n, "unparseable sample value", line);
        }
        if let Some((fam, kind)) = &family {
            let member = name_part == fam
                || (matches!(kind.as_str(), "summary" | "histogram")
                    && (name_part == format!("{fam}_sum")
                        || name_part == format!("{fam}_count")
                        || (kind == "histogram" && name_part == format!("{fam}_bucket"))));
            if !member {
                return fail(
                    n,
                    "sample does not belong to the preceding TYPE family",
                    line,
                );
            }
        }
    }
    Ok(())
}

/// A [`MinerSink`] recording cost distributions of a mining run:
///
/// | histogram | source |
/// |---|---|
/// | `node_latency_s` | wall-clock between consecutive `node_entered` events |
/// | `node_depth` | itemset size at each enumeration node |
/// | `phase_<name>_s` | per-call duration of each [`Phase`] (`phase_end`) |
/// | `approx_fcp_samples` | samples drawn per sampled FCP evaluation |
/// | `fcp_bound_width` | `upper − lower` of each Lemma 4.4 bound pair |
/// | `freq_prob` | the exact `Pr_F` values the DP returned |
/// | `dp_refusal_magnitude` | magnitude of each refused `TailDp` removal (`dp_decision`) |
///
/// It also embeds a [`CountingSink`], so the counter side of the
/// snapshot reconciles exactly with the run's [`MinerStats`]. Compose it
/// with other sinks via [`crate::trace::Tee`]; extract the result with
/// [`HistogramSink::snapshot`] (or the accessors) after the run.
#[derive(Debug, Clone, Default)]
pub struct HistogramSink {
    /// Event counters re-derived from the stream, [`CountingSink`]-style.
    pub counts: CountingSink,
    /// Kernel-level counters (incremental DP, bound cache, bitmap words),
    /// captured from each finished run's [`MiningOutcome::kernel`] — they
    /// have no per-event trace, so they arrive wholesale at `run_finished`.
    pub kernel: KernelStats,
    last_node: Option<Instant>,
    node_latency: Histogram,
    node_depth: Histogram,
    phase: [Histogram; Phase::COUNT],
    approx_fcp_samples: Histogram,
    fcp_bound_width: Histogram,
    freq_prob: Histogram,
    dp_refusal_magnitude: Histogram,
    pool_span_s: [Histogram; 3],
    pool_workers: [crate::par::WorkerGauges; crate::par::MAX_TRACKED_WORKERS],
    pool_workers_seen: usize,
    event_cache_capacity: u64,
    elapsed: Duration,
    runs: u64,
}

impl HistogramSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distribution of wall-clock gaps between consecutive enumeration
    /// nodes (seconds).
    pub fn node_latency(&self) -> &Histogram {
        &self.node_latency
    }

    /// Distribution of per-call durations of `phase` (seconds).
    pub fn phase_latency(&self, phase: Phase) -> &Histogram {
        &self.phase[phase.index()]
    }

    /// Distribution of Monte-Carlo samples drawn per `ApproxFCP` call.
    pub fn approx_fcp_samples(&self) -> &Histogram {
        &self.approx_fcp_samples
    }

    /// Distribution of FCP bound widths (`upper − lower`, Lemma 4.4).
    pub fn fcp_bound_width(&self) -> &Histogram {
        &self.fcp_bound_width
    }

    /// Distribution of refusal magnitudes across refused `TailDp`
    /// removals (amp-limit decades, row-validation violations).
    pub fn dp_refusal_magnitude(&self) -> &Histogram {
        &self.dp_refusal_magnitude
    }

    /// Distribution of pool span durations of `kind` (seconds), fed by
    /// the post-join [`MinerSink::pool_span`] replay.
    pub fn pool_span_latency(&self, kind: crate::par::PoolSpanKind) -> &Histogram {
        &self.pool_span_s[Self::span_slot(kind)]
    }

    /// Per-worker pool counters (tasks run, steals, idle parks)
    /// accumulated from the span replay; workers past
    /// [`crate::par::MAX_TRACKED_WORKERS`] fold into the last slot.
    pub fn pool_workers(&self) -> &[crate::par::WorkerGauges] {
        &self.pool_workers[..self.pool_workers_seen]
    }

    fn span_slot(kind: crate::par::PoolSpanKind) -> usize {
        match kind {
            crate::par::PoolSpanKind::Task => 0,
            crate::par::PoolSpanKind::Steal => 1,
            crate::par::PoolSpanKind::Idle => 2,
        }
    }

    /// Total wall-clock time of the observed runs.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Number of completed runs observed.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Export everything as a [`MetricsRegistry`]: the counter side
    /// mirrors [`MinerStats`] field-for-field, the histogram side carries
    /// the distributions listed in the type docs.
    pub fn snapshot(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let s: &MinerStats = &self.counts.stats;
        for (name, v) in [
            ("nodes_visited", s.nodes_visited),
            ("superset_pruned", s.superset_pruned),
            ("subset_pruned", s.subset_pruned),
            ("ch_pruned", s.ch_pruned),
            ("freq_pruned", s.freq_pruned),
            ("bound_rejected", s.bound_rejected),
            ("bound_decided", s.bound_decided),
            ("fcp_exact", s.fcp_exact),
            ("fcp_sampled", s.fcp_sampled),
            ("samples_drawn", s.samples_drawn),
            ("freq_prob_evals", s.freq_prob_evals),
            ("results", self.counts.results_emitted),
            ("runs", self.runs),
        ] {
            reg.add(name, v);
        }
        for (name, v) in self.kernel.named() {
            reg.add(name, v);
        }
        for (name, v) in self.counts.audit.named() {
            reg.add(&format!("audit_{name}"), v);
        }
        reg.set_gauge("elapsed_s", self.elapsed.as_secs_f64());
        // Cache health: capacity is configuration (gauge); the hit rate
        // only exists once the bound cache saw at least one lookup.
        reg.set_gauge("event_cache_capacity", self.event_cache_capacity as f64);
        let lookups = self.kernel.bound_cache_hits + self.kernel.bound_cache_misses;
        if lookups > 0 {
            reg.set_gauge(
                "bound_cache_hit_rate",
                self.kernel.bound_cache_hits as f64 / lookups as f64,
            );
        }
        // Pool health from the span replay: per-worker counters plus
        // whole-pool sums, so `--prom` shows scheduler behaviour too.
        let workers = &self.pool_workers[..self.pool_workers_seen];
        if !workers.is_empty() {
            reg.add("pool_tasks", workers.iter().map(|w| w.tasks).sum::<u64>());
            reg.add("pool_steals", workers.iter().map(|w| w.steals).sum::<u64>());
            reg.add("pool_idles", workers.iter().map(|w| w.idles).sum::<u64>());
            reg.set_gauge("pool_workers", workers.len() as f64);
            for (i, w) in workers.iter().enumerate() {
                reg.set_gauge(&format!("pool_worker{i}_tasks"), w.tasks as f64);
                reg.set_gauge(&format!("pool_worker{i}_steals"), w.steals as f64);
                reg.set_gauge(&format!("pool_worker{i}_idles"), w.idles as f64);
            }
        }
        let mut put = |name: &str, h: &Histogram| {
            if !h.is_empty() {
                reg.histogram(name).merge(h);
            }
        };
        put("node_latency_s", &self.node_latency);
        put("node_depth", &self.node_depth);
        for p in Phase::ALL {
            put(&format!("phase_{}_s", p.name()), &self.phase[p.index()]);
        }
        put("approx_fcp_samples", &self.approx_fcp_samples);
        put("fcp_bound_width", &self.fcp_bound_width);
        put("freq_prob", &self.freq_prob);
        put("dp_refusal_magnitude", &self.dp_refusal_magnitude);
        for kind in [
            crate::par::PoolSpanKind::Task,
            crate::par::PoolSpanKind::Steal,
            crate::par::PoolSpanKind::Idle,
        ] {
            put(
                &format!("pool_{}_s", kind.name()),
                &self.pool_span_s[Self::span_slot(kind)],
            );
        }
        reg
    }
}

impl HistogramSink {
    /// Merge another sink's observations into this one: counters via
    /// [`CountingSink::merge`], every distribution bucket-wise via
    /// [`Histogram::merge`] (both exact, associative and commutative),
    /// plus `elapsed`/`runs`. The in-flight `last_node` instant stays
    /// local — cross-shard node gaps are not node latencies.
    pub fn merge(&mut self, other: &HistogramSink) {
        self.counts.merge(&other.counts);
        self.kernel.absorb(&other.kernel);
        self.node_latency.merge(&other.node_latency);
        self.node_depth.merge(&other.node_depth);
        for (mine, theirs) in self.phase.iter_mut().zip(other.phase.iter()) {
            mine.merge(theirs);
        }
        self.approx_fcp_samples.merge(&other.approx_fcp_samples);
        self.fcp_bound_width.merge(&other.fcp_bound_width);
        self.freq_prob.merge(&other.freq_prob);
        self.dp_refusal_magnitude.merge(&other.dp_refusal_magnitude);
        for (mine, theirs) in self.pool_span_s.iter_mut().zip(other.pool_span_s.iter()) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.pool_workers.iter_mut().zip(other.pool_workers.iter()) {
            mine.tasks += theirs.tasks;
            mine.steals += theirs.steals;
            mine.idles += theirs.idles;
        }
        self.pool_workers_seen = self.pool_workers_seen.max(other.pool_workers_seen);
        self.event_cache_capacity = self.event_cache_capacity.max(other.event_cache_capacity);
        self.elapsed += other.elapsed;
        self.runs += other.runs;
    }
}

impl ShardableSink for HistogramSink {
    type Shard = HistogramSink;
    fn make_shard(&self) -> HistogramSink {
        HistogramSink::new()
    }
    fn absorb_shard(&mut self, shard: HistogramSink) {
        self.merge(&shard);
    }
}

impl MinerSink for HistogramSink {
    fn run_started(&mut self, _algo: &str, config: &MinerConfig) {
        // Gaps across run boundaries are not node latencies.
        self.last_node = None;
        self.event_cache_capacity = config.event_cache_capacity as u64;
    }
    fn pool_span(&mut self, span: &crate::par::PoolSpan) {
        let slot = Self::span_slot(span.kind);
        self.pool_span_s[slot].record_duration(span.dur);
        let w = (span.worker as usize).min(crate::par::MAX_TRACKED_WORKERS - 1);
        self.pool_workers_seen = self.pool_workers_seen.max(w + 1);
        let counters = &mut self.pool_workers[w];
        match span.kind {
            crate::par::PoolSpanKind::Task => counters.tasks += 1,
            crate::par::PoolSpanKind::Steal => counters.steals += 1,
            crate::par::PoolSpanKind::Idle => counters.idles += 1,
        }
    }
    fn node_entered(&mut self, depth: usize) {
        self.counts.node_entered(depth);
        self.node_depth.record(depth as f64);
        let now = Instant::now();
        if let Some(prev) = self.last_node.replace(now) {
            self.node_latency.record_duration(now.duration_since(prev));
        }
    }
    fn prune_fired(&mut self, kind: PruneKind) {
        self.counts.prune_fired(kind);
    }
    fn freq_prob_evaluated(&mut self, pr_f: f64) {
        self.counts.freq_prob_evaluated(pr_f);
        self.freq_prob.record(pr_f);
    }
    fn dp_decision(&mut self, decision: DpDecision) {
        self.counts.dp_decision(decision);
        if let Some(magnitude) = decision.magnitude() {
            self.dp_refusal_magnitude.record(magnitude);
        }
    }
    fn fcp_bounds(&mut self, lower: f64, upper: f64) {
        self.fcp_bound_width.record((upper - lower).max(0.0));
    }
    fn fcp_evaluated(&mut self, method: FcpEvalKind, samples: u64) {
        self.counts.fcp_evaluated(method, samples);
        if method == FcpEvalKind::Sampled {
            self.approx_fcp_samples.record(samples as f64);
        }
    }
    fn result_emitted(&mut self, items: &[Item], fcp: f64) {
        self.counts.result_emitted(items, fcp);
    }
    fn phase_end(&mut self, phase: Phase, elapsed: Duration) {
        self.counts.phase_end(phase, elapsed);
        self.phase[phase.index()].record_duration(elapsed);
    }
    fn run_finished(&mut self, outcome: &MiningOutcome) {
        self.kernel.absorb(&outcome.kernel);
        self.elapsed += outcome.elapsed;
        self.runs += 1;
        self.last_node = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn filled(values: &[f64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    /// The rank rule [`Histogram::quantile`] uses, applied to the exact
    /// sorted samples.
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank]
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert!(s.to_json().contains("\"count\":0"));
    }

    #[test]
    fn exact_stats_are_exact() {
        let h = filled(&[1.0, 2.0, 4.0, 8.0]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 8.0);
        assert_eq!(h.sum(), 15.0);
        assert_eq!(h.mean(), 3.75);
    }

    #[test]
    fn zero_and_nonfinite_values() {
        let mut h = filled(&[0.0, 0.0, 5.0]);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 5.0);
    }

    #[test]
    fn quantiles_of_identical_values_hit_the_value() {
        let h = filled(&[0.125; 100]);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let est = h.quantile(q);
            assert!(
                (est / 0.125 - 1.0).abs() < QUANTILE_RELATIVE_ERROR - 1.0 + 1e-9,
                "q={q}: {est}"
            );
        }
    }

    #[test]
    fn out_of_range_values_clamp_but_track_extremes() {
        let h = filled(&[1e-12, 1e12]);
        assert_eq!(h.min(), 1e-12);
        assert_eq!(h.max(), 1e12);
        // Quantiles clamp to the end buckets but never exceed min/max.
        assert!(h.quantile(0.0) >= 1e-12);
        assert!(h.quantile(1.0) <= 1e12);
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        // Dyadic values: float sums are exact regardless of merge order.
        let a_vals = [0.125, 0.5, 3.0, 42.0];
        let b_vals = [0.25, 0.25, 7.0];
        let mut merged = filled(&a_vals);
        merged.merge(&filled(&b_vals));
        let mut all: Vec<f64> = a_vals.iter().chain(&b_vals).copied().collect();
        let combined = filled(&all);
        assert_eq!(merged, combined);
        all.sort_by(f64::total_cmp);
        for q in [0.1, 0.5, 0.9] {
            assert_eq!(merged.quantile(q), combined.quantile(q));
        }
    }

    #[test]
    fn registry_basics_and_json_shape() {
        let mut reg = MetricsRegistry::new();
        assert!(reg.is_empty());
        reg.add("nodes", 2);
        reg.add("nodes", 3);
        reg.set_gauge("elapsed_s", 1.5);
        reg.histogram("lat_s").record(0.25);
        assert_eq!(reg.counter("nodes"), Some(5));
        assert_eq!(reg.gauge("elapsed_s"), Some(1.5));
        assert_eq!(reg.get_histogram("lat_s").unwrap().count(), 1);
        let json = reg.to_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"nodes\":5"));
        assert!(json.contains("\"elapsed_s\":1.5"));
        assert!(json.contains("\"lat_s\":{\"count\":1"));
    }

    #[test]
    fn registry_merge_semantics() {
        let mut a = MetricsRegistry::new();
        a.add("n", 1);
        a.set_gauge("g", 1.0);
        a.histogram("h").record(1.0);
        let mut b = MetricsRegistry::new();
        b.add("n", 2);
        b.add("m", 7);
        b.set_gauge("g", 9.0);
        b.histogram("h").record(4.0);
        a.merge(&b);
        assert_eq!(a.counter("n"), Some(3));
        assert_eq!(a.counter("m"), Some(7));
        assert_eq!(a.gauge("g"), Some(9.0));
        assert_eq!(a.get_histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(json_escape("plain_name"), "plain_name");
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn histogram_sink_snapshot_mirrors_counting_sink() {
        let mut sink = HistogramSink::new();
        sink.node_entered(1);
        sink.node_entered(2);
        sink.prune_fired(PruneKind::Superset);
        sink.freq_prob_evaluated(0.75);
        sink.fcp_bounds(0.5, 0.9);
        sink.fcp_evaluated(FcpEvalKind::Sampled, 1234);
        sink.phase_end(Phase::FreqDp, Duration::from_micros(10));
        let reg = sink.snapshot();
        assert_eq!(reg.counter("nodes_visited"), Some(2));
        assert_eq!(reg.counter("superset_pruned"), Some(1));
        assert_eq!(reg.counter("freq_prob_evals"), Some(1));
        assert_eq!(reg.counter("samples_drawn"), Some(1234));
        assert_eq!(reg.get_histogram("node_latency_s").unwrap().count(), 1);
        assert_eq!(reg.get_histogram("node_depth").unwrap().count(), 2);
        assert_eq!(reg.get_histogram("phase_freq_dp_s").unwrap().count(), 1);
        assert_eq!(reg.get_histogram("approx_fcp_samples").unwrap().count(), 1);
        let width = reg.get_histogram("fcp_bound_width").unwrap();
        assert!((width.max() - 0.4).abs() < 1e-12);
        // Empty distributions are omitted from the snapshot.
        assert!(reg.get_histogram("phase_fcp_exact_s").is_none());
    }

    #[test]
    fn pool_spans_surface_as_metrics() {
        use crate::par::{PoolSpan, PoolSpanKind};
        let mut sink = HistogramSink::new();
        // Before any span replay: no pool families at all.
        assert!(sink.snapshot().counter("pool_tasks").is_none());
        let span = |worker, kind| PoolSpan {
            worker,
            task: 0,
            kind,
            start: Instant::now(),
            dur: Duration::from_micros(50),
        };
        sink.pool_span(&span(0, PoolSpanKind::Task));
        sink.pool_span(&span(0, PoolSpanKind::Task));
        sink.pool_span(&span(1, PoolSpanKind::Task));
        sink.pool_span(&span(1, PoolSpanKind::Steal));
        sink.pool_span(&span(1, PoolSpanKind::Idle));
        let reg = sink.snapshot();
        assert_eq!(reg.counter("pool_tasks"), Some(3));
        assert_eq!(reg.counter("pool_steals"), Some(1));
        assert_eq!(reg.counter("pool_idles"), Some(1));
        assert_eq!(reg.gauge("pool_workers"), Some(2.0));
        assert_eq!(reg.gauge("pool_worker0_tasks"), Some(2.0));
        assert_eq!(reg.gauge("pool_worker1_steals"), Some(1.0));
        assert_eq!(reg.get_histogram("pool_task_s").unwrap().count(), 3);
        assert_eq!(reg.get_histogram("pool_steal_s").unwrap().count(), 1);
        // The whole document still lints.
        lint_prometheus(&reg.to_prometheus("pfcim")).unwrap();
        // Merging two sinks adds counters per worker slot.
        let mut other = HistogramSink::new();
        other.pool_span(&span(1, PoolSpanKind::Task));
        sink.merge(&other);
        let reg = sink.snapshot();
        assert_eq!(reg.counter("pool_tasks"), Some(4));
        assert_eq!(reg.gauge("pool_worker1_tasks"), Some(2.0));
    }

    #[test]
    fn cache_gauges_surface_capacity_and_hit_rate() {
        let mut sink = HistogramSink::new();
        sink.run_started("mpfci", &MinerConfig::new(2, 0.8));
        // No lookups yet: capacity is exported, the rate is not.
        let reg = sink.snapshot();
        assert_eq!(reg.gauge("event_cache_capacity"), Some(32.0));
        assert!(reg.gauge("bound_cache_hit_rate").is_none());
        sink.kernel.bound_cache_hits = 3;
        sink.kernel.bound_cache_misses = 1;
        let reg = sink.snapshot();
        assert_eq!(reg.gauge("bound_cache_hit_rate"), Some(0.75));
        lint_prometheus(&reg.to_prometheus("pfcim")).unwrap();
    }

    #[test]
    fn prometheus_export_passes_the_linter() {
        let mut sink = HistogramSink::new();
        sink.node_entered(1);
        sink.node_entered(2);
        sink.prune_fired(PruneKind::Superset);
        sink.freq_prob_evaluated(0.75);
        sink.dp_decision(DpDecision::Incremental);
        sink.dp_decision(DpDecision::ErrTol { measured: 5.5e-8 });
        sink.fcp_evaluated(FcpEvalKind::Sampled, 1234);
        sink.phase_end(Phase::FreqDp, Duration::from_micros(10));
        let text = sink.snapshot().to_prometheus("pfcim");
        lint_prometheus(&text).expect("exporter output must lint clean");
        // Counters carry HELP/TYPE headers and the sample value.
        assert!(text.contains("# TYPE pfcim_nodes_visited counter"));
        assert!(text.contains("pfcim_nodes_visited 2"));
        // The audit counters ride along.
        assert!(text.contains("pfcim_audit_incremental 1"));
        assert!(text.contains("pfcim_audit_err_tol 1"));
        // Histograms export as summaries with quantile labels.
        assert!(text.contains("# TYPE pfcim_node_depth summary"));
        assert!(text.contains("pfcim_node_depth{quantile=\"0.5\"}"));
        assert!(text.contains("pfcim_node_depth_count 2"));
        assert!(text.contains("pfcim_dp_refusal_magnitude_count 1"));
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prom_name("pfcim", "node_latency_s"), "pfcim_node_latency_s");
        assert_eq!(
            prom_name("pfcim", "phase fcp-exact"),
            "pfcim_phase_fcp_exact"
        );
        assert!(valid_prom_name(&prom_name("pfcim", "9lives")));
        let mut reg = MetricsRegistry::new();
        reg.add("weird name!", 1);
        reg.set_gauge("inf gauge", f64::INFINITY);
        let text = reg.to_prometheus("pfcim");
        lint_prometheus(&text).expect("sanitized names must lint clean");
        assert!(text.contains("pfcim_weird_name_ 1"));
        assert!(text.contains("pfcim_inf_gauge +Inf"));
    }

    #[test]
    fn prometheus_linter_rejects_malformed_documents() {
        // Unknown type.
        assert!(lint_prometheus("# TYPE foo enum\nfoo 1\n").is_err());
        // Bad metric name in a sample.
        assert!(lint_prometheus("9foo 1\n").is_err());
        // Non-numeric value.
        assert!(lint_prometheus("foo one\n").is_err());
        // Sample outside the declared family.
        assert!(lint_prometheus("# TYPE foo counter\nbar 1\n").is_err());
        // Unclosed label block.
        assert!(lint_prometheus("foo{a=\"b\" 1\n").is_err());
        // _sum/_count only belong to summaries and histograms.
        assert!(lint_prometheus("# TYPE foo counter\nfoo_sum 1\n").is_err());
        assert!(lint_prometheus(
            "# TYPE foo summary\nfoo{quantile=\"0.5\"} 2\nfoo_sum 3\nfoo_count 1\n"
        )
        .is_ok());
        // Errors carry the offending line number.
        let err = lint_prometheus("ok 1\nbad value\n").unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
    }

    #[test]
    fn histogram_sink_shards_reconcile_to_single_sink_counters() {
        // Drive the same event stream through one sink and through two
        // shards; everything except wall-clock-derived node latencies
        // must match exactly.
        let drive = |sink: &mut HistogramSink, base: u64| {
            sink.node_entered(base as usize % 4 + 1);
            sink.prune_fired(PruneKind::ALL[base as usize % 5]);
            sink.freq_prob_evaluated(0.5);
            sink.fcp_bounds(0.2, 0.8);
            sink.fcp_evaluated(FcpEvalKind::Sampled, 100 + base);
            sink.phase_end(Phase::FreqDp, Duration::from_nanos(10 + base));
        };
        let mut single = HistogramSink::new();
        drive(&mut single, 0);
        drive(&mut single, 1);

        let mut sharded = HistogramSink::new();
        let mut a = sharded.make_shard();
        let mut b = sharded.make_shard();
        drive(&mut a, 0);
        drive(&mut b, 1);
        sharded.absorb_shard(a);
        sharded.absorb_shard(b);

        assert_eq!(single.counts.stats, sharded.counts.stats);
        assert_eq!(single.counts.timers, sharded.counts.timers);
        assert_eq!(single.node_depth, sharded.node_depth);
        assert_eq!(single.approx_fcp_samples, sharded.approx_fcp_samples);
        assert_eq!(single.fcp_bound_width, sharded.fcp_bound_width);
        assert_eq!(single.freq_prob, sharded.freq_prob);
        for p in Phase::ALL {
            assert_eq!(single.phase[p.index()], sharded.phase[p.index()]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Bucketed quantiles stay within the documented relative error
        /// of the exact sorted-sample quantile, for in-range values.
        #[test]
        fn quantiles_track_exact_samples(
            values in proptest::collection::vec(1e-6f64..1e6, 1..200),
            q in 0.0f64..=1.0,
        ) {
            let h = filled(&values);
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let exact = exact_quantile(&sorted, q);
            let est = h.quantile(q);
            let ratio = est / exact;
            prop_assert!(
                (1.0 / QUANTILE_RELATIVE_ERROR * (1.0 - 1e-9)
                    ..=QUANTILE_RELATIVE_ERROR * (1.0 + 1e-9))
                    .contains(&ratio),
                "q={} exact={} est={} ratio={}", q, exact, est, ratio
            );
        }

        /// Histogram merge is associative and commutative (bucket counts
        /// are exact; sums may differ only by float rounding).
        #[test]
        fn merge_is_associative(
            a in proptest::collection::vec(1e-6f64..1e6, 0..40),
            b in proptest::collection::vec(1e-6f64..1e6, 0..40),
            c in proptest::collection::vec(1e-6f64..1e6, 0..40),
        ) {
            let (ha, hb, hc) = (filled(&a), filled(&b), filled(&c));
            // (a ∪ b) ∪ c
            let mut left = ha.clone();
            left.merge(&hb);
            left.merge(&hc);
            // a ∪ (b ∪ c)
            let mut bc = hb.clone();
            bc.merge(&hc);
            let mut right = ha.clone();
            right.merge(&bc);
            prop_assert_eq!(left.count(), right.count());
            prop_assert_eq!(left.min(), right.min());
            prop_assert_eq!(left.max(), right.max());
            prop_assert!((left.sum() - right.sum()).abs() <= left.sum().abs() * 1e-12 + 1e-12);
            for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                prop_assert_eq!(left.quantile(q), right.quantile(q));
            }
        }
    }
}
