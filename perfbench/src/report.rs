//! Metric names, summary statistics and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, in output order: `(name, unit)`. Every workload
/// reports all of them (see the README for how each reads on each
/// workload). None of them can read 0; the error rate, which should,
/// is the result line's `failed / attempted` and the per-layer
/// `error_rate`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("mine_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("stream_tx_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("step_p99_ms", "ms"),
];

/// The instrumented layers, named after the repository's modules.
pub const LAYERS: [&str; 10] = [
    "utdb.io",
    "utdb.bitset",
    "utdb.window",
    "prob.poisson_binomial",
    "core.fcp",
    "core.events",
    "core.miner",
    "core.cache",
    "core.serve",
    "core.stream",
];

/// Per-layer metrics measured by the traced run: `(name, unit)`.
/// `self.<layer>` and `overhead.<metric>` are appended after these.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("error_rate", "ratio"),
    ("fcp.draws", "count"),
    ("fcp.sampled_evals", "count"),
    ("fcp.exact_evals", "count"),
    ("fcp.bound_decided", "count"),
    ("fcp.sample_s", "s"),
    ("fcp.ns_per_draw", "ns"),
    ("events.build_s", "s"),
    ("events.entries", "count"),
    ("events.ns_per_entry", "ns"),
    ("events.bound_eval_s", "s"),
    ("bitset.words", "count"),
    ("bitset.ns_per_word", "ns"),
    ("dp.freq_s", "s"),
    ("dp.rows_fresh", "count"),
    ("dp.rows_incremental", "count"),
    ("dp.ns_per_cell", "ns"),
    ("dp.downdate_ns", "ns"),
    ("cache.hit_rate", "ratio"),
    ("cache.contended", "count"),
    ("serve.server_ms_p50", "ms"),
    ("serve.server_ms_p90", "ms"),
    ("serve.transport_ms_p50", "ms"),
    ("serve.client_rtt_ms", "ms"),
    ("serve.carved_share", "ratio"),
    ("stream.refresh_ms_p50", "ms"),
    ("stream.mine_share", "ratio"),
    ("stream.roots_affected_per_step", "count"),
    ("stream.roots_mined_per_step", "count"),
    ("stream.roots_skipped_share", "ratio"),
    ("stream.row_downdates", "count"),
    ("stream.row_rebuilds", "count"),
    ("stream.rebuild_elements", "count"),
    ("window.push_pop_ns", "ns"),
    ("io.parse_s", "s"),
    ("io.bytes", "bytes"),
];

/// Every per-layer metric name with its unit, in output order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(LAYERS.iter().map(|l| (format!("self.{l}"), "s")));
    out.extend(
        END_TO_END
            .iter()
            .map(|&(n, u)| (format!("overhead.{n}"), u)),
    );
    out
}

/// The value at quantile `q` (nearest rank) of `samples`; `0` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The highest quantile, at most `nominal`, that leaves at least ten
/// samples beyond it; the median when there are too few samples for
/// any higher one.
pub fn supported_quantile(n: usize, nominal: f64) -> f64 {
    if n < 20 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, nominal)
}

/// `samples` at the highest supported quantile up to `nominal`.
pub fn tail(samples: &[f64], nominal: f64) -> f64 {
    let q = supported_quantile(samples.len(), nominal);
    if q == 0.5 {
        median(samples)
    } else {
        quantile(samples, q)
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}, …}}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn tail_falls_back_to_what_the_sample_count_supports() {
        assert_eq!(supported_quantile(10, 0.9), 0.5);
        assert_eq!(supported_quantile(50, 0.9), 0.8);
        assert_eq!(supported_quantile(1000, 0.99), 0.99);
        assert_eq!(supported_quantile(500, 0.99), 0.98);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_line(true, 3, 0, &[("mine_s".into(), 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"mine_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
