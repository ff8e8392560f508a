//! The pfcim benchmark: four workloads driven through the public API,
//! each reporting end-to-end metrics, with a traced run that adds
//! per-layer metrics (see `README.md`).

pub mod gen;
pub mod layers;
pub mod mine;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stream;
pub mod wire;

use std::collections::BTreeMap;
use std::time::Instant;

use report::{per_layer_metrics, END_TO_END, LAYERS};
use spans::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["mine-sampled", "mine-dense", "serve-mixed", "stream-window"];

/// How one pass of a workload runs.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (set-up, correctness gates and replays come on
    /// top).
    pub seconds: f64,
    /// Reduced input sizes, for the self-test.
    pub small: bool,
}

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (filled by traced passes).
    pub layer: BTreeMap<String, f64>,
    /// Operations attempted (mines, queries, stream steps, gate checks).
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// One line per failed correctness check.
    pub mismatches: Vec<String>,
    /// Phase shares of the workload's own mines, for the human summary.
    pub phases: String,
}

impl Pass {
    /// Record a correctness check; a failed one counts as a failed
    /// operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches.push(what());
        }
    }
}

/// Run one pass of `workload`; `tracer` decides whether spans and
/// per-layer metrics are recorded.
pub fn run_pass(workload: &str, opts: &Opts, tracer: &mut Tracer) -> Option<Pass> {
    Some(match workload {
        "mine-sampled" => mine::run(&mine::SAMPLED, opts, tracer),
        "mine-dense" => mine::run(&mine::DENSE, opts, tracer),
        "serve-mixed" => serve::run(opts, tracer),
        "stream-window" => stream::run(opts, tracer),
        _ => return None,
    })
}

/// One benchmark invocation: the metrics of the result line, the passes
/// behind them and the recorded spans.
#[derive(Debug)]
pub struct Run {
    /// `(name, value, unit)` in output order: every end-to-end metric
    /// untraced, every per-layer metric traced.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Operations failed, refused or answered wrongly over all passes.
    pub failed: u64,
    /// The passes run, labelled `untraced` or `traced`.
    pub passes: Vec<(&'static str, Pass)>,
    /// Spans of the traced pass (empty when untraced).
    pub tracer: Tracer,
}

/// Run `workload`. Untraced, one pass measures the end-to-end metrics.
/// Traced, an untraced and a traced pass of half the seconds each run
/// back to back: the traced one gives the per-layer metrics, and the
/// difference of their end-to-end metrics is the tracing overhead.
pub fn run(workload: &str, opts: &Opts, trace: bool) -> Option<Run> {
    let origin = Instant::now();
    if !trace {
        let mut tracer = Tracer::new(false, origin);
        let pass = run_pass(workload, opts, &mut tracer)?;
        let metrics = END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), pass.e2e[name], unit))
            .collect();
        return Some(Run {
            metrics,
            attempted: pass.attempted,
            failed: pass.failed,
            passes: vec![("untraced", pass)],
            tracer,
        });
    }
    let half = Opts {
        seconds: opts.seconds / 2.0,
        ..*opts
    };
    let plain = run_pass(workload, &half, &mut Tracer::new(false, origin))?;
    let mut tracer = Tracer::new(true, origin);
    let traced = run_pass(workload, &half, &mut tracer)?;
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    let mut layer = traced.layer.clone();
    layer.insert("error_rate".into(), failed as f64 / attempted.max(1) as f64);
    for l in LAYERS {
        layer.insert(format!("self.{l}"), tracer.self_seconds(l));
    }
    for (name, _) in END_TO_END {
        layer.insert(
            format!("overhead.{name}"),
            traced.e2e[name] - plain.e2e[name],
        );
    }
    let metrics = per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let value = *layer
                .get(&name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            (name, value, unit)
        })
        .collect();
    Some(Run {
        metrics,
        attempted,
        failed,
        passes: vec![("untraced", plain), ("traced", traced)],
        tracer,
    })
}

/// Shuffle `.dat` lines with a seeded Fisher–Yates permutation.
pub fn permute_lines(text: &str, seed: u64) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let mut rng = gen::Rng64::new(seed, 0x5eed);
    for i in (1..lines.len()).rev() {
        lines.swap(i, rng.below(i + 1));
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}
