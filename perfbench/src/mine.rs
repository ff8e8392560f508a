//! The batch workloads, `mine-sampled` and `mine-dense`: repeated
//! single-threaded `Miner::run`s over one generated database.

use std::collections::BTreeMap;
use std::time::Instant;

use pfcim_core::config::DEFAULT_DP_ERROR_TOL;
use pfcim_core::{
    exact_fcp_inclusion_exclusion, Algorithm, FcpMethod, Miner, MiningOutcome, Phase,
};
use utdb::UncertainDatabase;

use crate::gen::{Feed, ProbModel, QuestSpec, Rng64};
use crate::report::{median, peak_rss_mb, tail};
use crate::spans::Tracer;
use crate::{layers, permute_lines, serve, stream, Opts, Pass};

/// How a batch workload's result is checked.
#[derive(Debug, Clone, Copy)]
pub enum Gate {
    /// The sampled result set must equal an `ExactOnly` mine, except for
    /// itemsets whose exact FCP lies within `ε·Pr_F` of `pfct`.
    ExactSet,
    /// The depth-first result must hold the same itemsets as
    /// `Algorithm::Bfs`, with probabilities equal to within the DP's
    /// error tolerance: depth-first mining downdates DP rows (accepting
    /// at most `dp_error_tol` of measured error) where BFS rebuilds them,
    /// so the two agree bit for bit only where no downdate fires. FCPs
    /// are compared only when neither search sampled one.
    Bfs,
}

/// A batch workload.
#[derive(Debug, Clone, Copy)]
pub struct MineSpec {
    /// Generator shape.
    pub spec: QuestSpec,
    /// Seed of the workload's fixed base rows (see the README: the run
    /// seed permutes the rows and seeds the sampler; it does not redraw
    /// them).
    pub base_seed: u64,
    /// Rows at full size and at self-test size.
    pub rows: (usize, usize),
    /// Minimum support as a share of the rows (at least 1 row).
    pub min_sup_rel: f64,
    /// Probabilistic frequent closed threshold.
    pub pfct: f64,
    /// Correctness gate.
    pub gate: Gate,
    /// Whether the serve and stream replays may use `ExactOnly` (its
    /// inclusion–exclusion is capped in the number of events).
    pub exact_ok: bool,
    /// Minimum support of the stream replay, as a share of its window.
    pub stream_min_sup_rel: f64,
}

/// `mine-sampled`: a sparse base where Karp–Luby sampling dominates.
pub const SAMPLED: MineSpec = MineSpec {
    spec: QuestSpec::sparse(ProbModel::Uniform(0.6, 0.9)),
    base_seed: 44,
    rows: (300, 120),
    min_sup_rel: 0.01,
    pfct: 0.8,
    gate: Gate::ExactSet,
    exact_ok: true,
    stream_min_sup_rel: 0.125,
};

/// `mine-dense`: T20I10 rows where event-table building and the
/// frequentness DP dominate and nothing is sampled.
pub const DENSE: MineSpec = MineSpec {
    spec: QuestSpec::t20i10p40(ProbModel::Gaussian(0.8, 0.1)),
    base_seed: 41,
    rows: (600, 150),
    min_sup_rel: 0.2,
    pfct: 0.8,
    gate: Gate::Bfs,
    exact_ok: false,
    stream_min_sup_rel: 0.2,
};

/// `ApproxFCP` tolerance of the sampled mines (the paper's defaults).
const EPSILON: f64 = 0.1;
const DELTA: f64 = 0.1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 51;
/// Window of the stream replay (at most half the rows).
const STREAM_REPLAY_WINDOW: usize = 128;
/// Mines per run at least, whatever `--seconds` says.
const MIN_MINES: usize = 3;

/// The workload's input as `.dat` text: the fixed base rows in a
/// seed-dependent order.
fn input(w: &MineSpec, opts: &Opts) -> String {
    let rows = if opts.small { w.rows.1 } else { w.rows.0 };
    let base = Feed::new(w.spec, Rng64::new(w.base_seed, 1)).dat(rows);
    permute_lines(&base, opts.seed)
}

/// Absolute minimum support for `rows` rows.
fn min_sup(w: &MineSpec, rows: usize) -> usize {
    ((w.min_sup_rel * rows as f64).round() as usize).max(1)
}

fn miner<'a>(w: &MineSpec, db: &'a UncertainDatabase, opts: &Opts) -> Miner<'a> {
    Miner::new(db)
        .min_sup(min_sup(w, db.len()))
        .pfct(w.pfct)
        .approximation(EPSILON, DELTA)
        .seed(opts.seed)
        .threads(1)
}

/// Time `SETUPS` parses (parse plus vertical index); returns the last
/// database and the parse times.
fn setup(text: &str, tracer: &mut Tracer) -> (UncertainDatabase, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut db = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let parsed = tracer.span("utdb.io", i as u64, || utdb::io::parse_dat(text));
        times.push(t.elapsed().as_secs_f64());
        db = Some(parsed.expect("generated input parses"));
    }
    (db.expect("at least one set-up"), times)
}

/// Phase shares of one outcome, for the human summary.
pub fn phase_shares(o: &MiningOutcome) -> String {
    let total = o.elapsed.as_secs_f64().max(1e-12);
    Phase::ALL
        .iter()
        .map(|&p| {
            format!(
                "{}={:.1}%",
                p.name(),
                100.0 * o.timers.total(p).as_secs_f64() / total
            )
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Per-operation counters of one outcome (`fcp.*`, `bitset.words`,
/// `dp.rows_*`, `cache.*`).
pub fn outcome_counters(o: &MiningOutcome, out: &mut BTreeMap<String, f64>) {
    let k = &o.kernel;
    let lookups = (k.bound_cache_hits + k.bound_cache_misses).max(1);
    for (name, value) in [
        ("fcp.draws", o.stats.samples_drawn as f64),
        ("fcp.sampled_evals", o.stats.fcp_sampled as f64),
        ("fcp.exact_evals", o.stats.fcp_exact as f64),
        ("fcp.bound_decided", o.stats.bound_decided as f64),
        ("bitset.words", k.bitmap_words as f64),
        ("dp.rows_fresh", k.dp_recomputed as f64),
        ("dp.rows_incremental", k.dp_incremental as f64),
        ("cache.hit_rate", k.bound_cache_hits as f64 / lookups as f64),
    ] {
        out.insert(name.to_string(), value);
    }
}

/// Check `mined` against the workload's reference mine; one line per
/// disagreement.
fn gate(w: &MineSpec, db: &UncertainDatabase, opts: &Opts, mined: &MiningOutcome) -> Vec<String> {
    let ms = min_sup(w, db.len());
    let mut problems = Vec::new();
    match w.gate {
        Gate::Bfs => {
            let bfs = miner(w, db, opts).algorithm(Algorithm::Bfs).run();
            if bfs.itemsets() != mined.itemsets() {
                problems.push(format!(
                    "DFS and BFS find different itemsets: {} vs {}",
                    mined.results.len(),
                    bfs.results.len()
                ));
            }
            // A sampled FCP depends on the order nodes draw from the RNG,
            // which differs between the two searches.
            let sampled = mined.stats.fcp_sampled + bfs.stats.fcp_sampled > 0;
            let close = |a: f64, b: f64| (a - b).abs() <= DEFAULT_DP_ERROR_TOL;
            for (d, b) in mined.results.iter().zip(&bfs.results) {
                if !close(d.frequent_probability, b.frequent_probability)
                    || !(sampled || close(d.fcp, b.fcp))
                {
                    problems.push(format!("{:?}: DFS {d:?} vs BFS {b:?}", d.items));
                }
            }
        }
        Gate::ExactSet => {
            let exact = miner(w, db, opts).fcp_method(FcpMethod::ExactOnly).run();
            let near = |fcp: f64, pr_f: f64| (fcp - w.pfct).abs() <= EPSILON * pr_f;
            for p in &mined.results {
                match exact.results.iter().find(|e| e.items == p.items) {
                    Some(e) if e.frequent_probability != p.frequent_probability => {
                        problems.push(format!("{:?}: Pr_F differs from the exact mine", p.items));
                    }
                    Some(_) => {}
                    None => {
                        let fcp = exact_fcp_inclusion_exclusion(db, &p.items, ms);
                        if !fcp.is_some_and(|f| near(f, p.frequent_probability)) {
                            problems.push(format!("{:?} sampled in, exact FCP {fcp:?}", p.items));
                        }
                    }
                }
            }
            for e in &exact.results {
                if mined.fcp_of(&e.items).is_none() && !near(e.fcp, e.frequent_probability) {
                    problems.push(format!("{:?} missed, exact FCP {}", e.items, e.fcp));
                }
            }
        }
    }
    problems
}

/// Run one pass of a batch workload.
pub fn run(w: &MineSpec, opts: &Opts, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let text = input(w, opts);
    let (db, setups) = setup(&text, tracer);

    let mut walls = Vec::new();
    let mut first: Option<MiningOutcome> = None;
    let start = Instant::now();
    while walls.len() < MIN_MINES || start.elapsed().as_secs_f64() < opts.seconds {
        let req = walls.len() as u64;
        let t = Instant::now();
        let outcome = tracer.span("core.miner", req, || miner(w, &db, opts).run());
        walls.push(t.elapsed().as_secs_f64());
        let same = first.as_ref().is_none_or(|f| f.results == outcome.results);
        pass.check(same, || {
            format!("mine {req} differs from the first mine of the same input")
        });
        first.get_or_insert(outcome);
    }
    let mined = first.expect("at least one mine");
    let problems = gate(w, &db, opts, &mined);
    pass.check(problems.is_empty(), || problems.join("; "));

    let e2e = &mut pass.e2e;
    e2e.insert("mine_s", median(&walls));
    e2e.insert("setup_s", median(&setups));
    e2e.insert("peak_rss_mb", peak_rss_mb());
    e2e.insert("query_p50_ms", 1e3 * median(&walls));
    e2e.insert("query_p90_ms", 1e3 * tail(&walls, 0.9));
    // Throughput as the reciprocal of the median mine, so a burst of
    // host noise moves it no more than it moves `mine_s`.
    e2e.insert("queries_per_s", 1.0 / median(&walls));
    e2e.insert("stream_tx_per_s", db.len() as f64 / median(&walls));
    e2e.insert("step_p50_ms", 1e3 * median(&walls));
    e2e.insert("step_p99_ms", 1e3 * tail(&walls, 0.99));
    pass.phases = phase_shares(&mined);

    if tracer.enabled() {
        let layer = &mut pass.layer;
        outcome_counters(&mined, layer);
        layer.insert("cache.contended".into(), 0.0);
        layer.insert("io.parse_s".into(), median(&setups));
        layer.insert("io.bytes".into(), text.len() as f64);
        let ms = min_sup(w, db.len());
        let itemsets = layers::pick(&db, &mined.itemsets());
        layers::replay(&db, &itemsets, ms, w.pfct, opts.seed, tracer, layer);
        serve::replay(&db, ms, w.pfct, w.exact_ok, tracer, layer);
        let window = (db.len() / 2).min(STREAM_REPLAY_WINDOW);
        let stream_min_sup = (w.stream_min_sup_rel * window as f64).round() as usize;
        stream::replay(
            &db,
            window,
            stream_min_sup,
            w.pfct,
            w.exact_ok,
            tracer,
            layer,
        );
    }
    pass
}
