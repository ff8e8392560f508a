//! `stream-window`: a closed-loop replay of a seeded, non-repeating feed
//! through `StreamMiner::advance`, plus the stream-layer replay the
//! other workloads run in their traced pass.

use std::collections::BTreeMap;
use std::time::Instant;

use pfcim_core::{
    FcpMethod, Miner, MinerConfig, NullSink, StreamConfig, StreamMiner, StreamStats, StreamStep,
};
use utdb::{Item, ItemDictionary, UncertainDatabase, UncertainTransaction};

use crate::gen::{Feed, ProbModel, QuestSpec, Rng64};
use crate::mine::outcome_counters;
use crate::report::{median, peak_rss_mb, tail};
use crate::spans::Tracer;
use crate::{layers, permute_lines, serve, Opts, Pass};

const SPEC: QuestSpec = QuestSpec::sparse(ProbModel::Uniform(0.6, 0.9));
/// Seed of the feed's fixed pattern pool; the run seed draws the rows.
const POOL_SEED: u64 = 42;
/// Window capacity and minimum support at full and self-test size.
const WINDOW: (usize, usize) = (256, 64);
const MIN_SUP: (usize, usize) = (32, 8);
const PFCT: f64 = 0.6;
/// Set-ups per run (parse the first window, fill it); `setup_s` is
/// their median.
const SETUPS: usize = 9;
/// Steps between checkpoints against a batch mine of the window.
const CHECK_EVERY: (usize, usize) = (500, 50);
/// Steps per throughput chunk.
const THROUGHPUT_CHUNK: usize = 500;
/// Steps of the replay the other workloads run, and its time cap.
const REPLAY_STEPS: usize = 32;
const REPLAY_SECONDS: f64 = 2.0;

fn stream_config(window: usize, min_sup: usize, pfct: f64, exact: bool) -> StreamConfig {
    let method = if exact {
        FcpMethod::ExactOnly
    } else {
        FcpMethod::default()
    };
    StreamConfig::new(
        window,
        MinerConfig::new(min_sup, pfct)
            .with_fcp_method(method)
            .with_threads(1),
    )
}

/// A dictionary interning ids `0..n` as themselves, so the window's
/// item universe is fixed from the first step.
fn dictionary(n: usize) -> ItemDictionary {
    let mut dict = ItemDictionary::new();
    for i in 0..n {
        dict.intern(&i.to_string());
    }
    dict
}

fn transaction((items, p): (Vec<u32>, f64)) -> UncertainTransaction {
    UncertainTransaction::new(items.into_iter().map(Item).collect(), p)
}

/// Per-step means of the stream counters between `before` and `after`,
/// with the refresh latencies of the steps taken.
fn stream_metrics(
    before: &StreamStats,
    after: &StreamStats,
    steps: &[StreamStep],
    latencies: &[f64],
    out: &mut BTreeMap<String, f64>,
) {
    let n = (after.steps - before.steps).max(1) as f64;
    let affected = after.roots_affected - before.roots_affected;
    let skipped = (after.roots_skipped_count - before.roots_skipped_count)
        + (after.roots_skipped_certificate - before.roots_skipped_certificate);
    let refresh: Vec<f64> = steps.iter().map(|s| s.elapsed.as_secs_f64()).collect();
    let mined: f64 = steps
        .iter()
        .filter_map(|s| s.mined.as_ref())
        .map(|o| o.elapsed.as_secs_f64())
        .sum();
    for (name, value) in [
        ("stream.refresh_ms_p50", 1e3 * median(&refresh)),
        (
            "stream.mine_share",
            mined / latencies.iter().sum::<f64>().max(1e-12),
        ),
        ("stream.roots_affected_per_step", affected as f64 / n),
        (
            "stream.roots_mined_per_step",
            (after.roots_mined - before.roots_mined) as f64 / n,
        ),
        (
            "stream.roots_skipped_share",
            skipped as f64 / affected.max(1) as f64,
        ),
        (
            "stream.row_downdates",
            (after.row_downdates - before.row_downdates) as f64 / n,
        ),
        (
            "stream.row_rebuilds",
            (after.row_rebuilds - before.row_rebuilds) as f64 / n,
        ),
        (
            "stream.rebuild_elements",
            (after.row_rebuild_elements - before.row_rebuild_elements) as f64 / n,
        ),
    ] {
        out.insert(name.to_string(), value);
    }
}

/// Run one pass of `stream-window`.
pub fn run(opts: &Opts, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let pick = |pair: (usize, usize)| if opts.small { pair.1 } else { pair.0 };
    let (window, min_sup, check_every) = (pick(WINDOW), pick(MIN_SUP), pick(CHECK_EVERY));
    let config = stream_config(window, min_sup, PFCT, true);
    // The first window is a fixed set of rows in a seeded order, so the
    // set-up cost does not depend on the seed; the rows streamed after it
    // are drawn from the seed and never repeat.
    let mut base = Feed::new(SPEC, Rng64::new(POOL_SEED, 1));
    let text = permute_lines(&base.dat(window), opts.seed);
    let mut feed = base.with_rows_from(Rng64::new(opts.seed, 2));

    // Set-up: parse the first window and fill the stream with it.
    let (mut setups, mut parses) = (Vec::new(), Vec::new());
    let mut miner = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let db = tracer
            .span("utdb.io", i as u64, || utdb::io::parse_dat(&text))
            .expect("generated input parses");
        parses.push(t.elapsed().as_secs_f64());
        let mut sm = StreamMiner::new(dictionary(SPEC.items), config.clone());
        tracer.span("core.stream", i as u64, || {
            for tx in db.transactions() {
                sm.advance(tx.clone(), &mut NullSink);
            }
        });
        setups.push(t.elapsed().as_secs_f64());
        miner = Some(sm);
    }
    let mut sm = miner.expect("at least one set-up");

    let before = *sm.stats();
    let mut latencies = Vec::new();
    let mut steps = Vec::new();
    let mut mine_times = Vec::new();
    let start = Instant::now();
    loop {
        let tx = transaction(feed.next_tx());
        let req = latencies.len() as u64;
        let t = Instant::now();
        let step = tracer.span("core.stream", req, || sm.advance(tx, &mut NullSink));
        latencies.push(t.elapsed().as_secs_f64());
        pass.attempted += 1;
        if tracer.enabled() {
            steps.push(step);
        }
        let done = start.elapsed().as_secs_f64() >= opts.seconds;
        if latencies.len() % check_every == 0 || done {
            checkpoint(&sm, &config, &mut mine_times, tracer, &mut pass);
        }
        if done {
            break;
        }
    }

    // Throughput per chunk of steps, median over chunks: a burst of host
    // noise is confined to the chunks it hits.
    let rates: Vec<f64> = latencies
        .chunks(THROUGHPUT_CHUNK)
        .filter(|c| c.len() == THROUGHPUT_CHUNK)
        .map(|c| c.len() as f64 / c.iter().sum::<f64>())
        .collect();
    let rate = if rates.is_empty() {
        latencies.len() as f64 / latencies.iter().sum::<f64>()
    } else {
        median(&rates)
    };
    let e2e = &mut pass.e2e;
    e2e.insert("mine_s", median(&mine_times));
    e2e.insert("setup_s", median(&setups));
    e2e.insert("peak_rss_mb", peak_rss_mb());
    e2e.insert("query_p50_ms", 1e3 * median(&latencies));
    e2e.insert("query_p90_ms", 1e3 * tail(&latencies, 0.9));
    e2e.insert("queries_per_s", rate);
    e2e.insert("stream_tx_per_s", rate);
    e2e.insert("step_p50_ms", 1e3 * median(&latencies));
    e2e.insert("step_p99_ms", 1e3 * tail(&latencies, 0.99));
    let stats = sm.stats();
    pass.phases = format!(
        "{:.2} roots mined of {:.2} affected per step",
        (stats.roots_mined - before.roots_mined) as f64 / latencies.len() as f64,
        (stats.roots_affected - before.roots_affected) as f64 / latencies.len() as f64,
    );

    if tracer.enabled() {
        let layer = &mut pass.layer;
        stream_metrics(&before, sm.stats(), &steps, &latencies, layer);
        mined_counters(&steps, layer);
        layer.insert("cache.contended".into(), 0.0);
        layer.insert("io.parse_s".into(), median(&parses));
        layer.insert("io.bytes".into(), text.len() as f64);
        let db = sm.window().dense_db();
        let mined: Vec<Vec<Item>> = sm.results().iter().map(|p| p.items.clone()).collect();
        layers::replay(
            &db,
            &layers::pick(&db, &mined),
            min_sup,
            PFCT,
            opts.seed,
            tracer,
            layer,
        );
        serve::replay(&db, min_sup, PFCT, true, tracer, layer);
    }
    pass
}

/// The maintained set must equal a batch mine of the live window.
fn checkpoint(
    sm: &StreamMiner,
    config: &StreamConfig,
    times: &mut Vec<f64>,
    tracer: &mut Tracer,
    pass: &mut Pass,
) {
    let db = sm.window().dense_db();
    let t = Instant::now();
    let batch = tracer.span("core.miner", 0, || {
        Miner::new(&db).config(config.miner.clone()).run()
    });
    times.push(t.elapsed().as_secs_f64());
    pass.check(batch.results == sm.results(), || {
        format!(
            "window of {} rows: stream holds {} patterns, batch mine {}",
            db.len(),
            sm.results().len(),
            batch.results.len()
        )
    });
}

/// Per-step means of the focused mines' counters.
fn mined_counters(steps: &[StreamStep], out: &mut BTreeMap<String, f64>) {
    let mut sum = BTreeMap::new();
    for o in steps.iter().filter_map(|s| s.mined.as_ref()) {
        let mut one = BTreeMap::new();
        outcome_counters(o, &mut one);
        for (k, v) in one {
            *sum.entry(k).or_insert(0.0) += v;
        }
    }
    let hits: u64 = steps
        .iter()
        .filter_map(|s| s.mined.as_ref())
        .map(|o| o.kernel.bound_cache_hits)
        .sum();
    let lookups: u64 = steps
        .iter()
        .filter_map(|s| s.mined.as_ref())
        .map(|o| o.kernel.bound_cache_hits + o.kernel.bound_cache_misses)
        .sum();
    let n = steps.len().max(1) as f64;
    for (k, v) in sum {
        out.insert(k, v / n);
    }
    out.insert("cache.hit_rate".into(), hits as f64 / lookups.max(1) as f64);
}

/// The stream-layer replay of the workloads that have no stream: the
/// workload's rows, cycled, through a window of `window` rows at
/// `min_sup` — one fill, then up to [`REPLAY_STEPS`] steps.
pub fn replay(
    db: &UncertainDatabase,
    window: usize,
    min_sup: usize,
    pfct: f64,
    exact: bool,
    tracer: &mut Tracer,
    out: &mut BTreeMap<String, f64>,
) {
    let rows = db.transactions();
    let window = window.clamp(1, rows.len());
    let mut sm = StreamMiner::new(
        dictionary(db.num_items()),
        stream_config(window, min_sup.max(1), pfct, exact),
    );
    tracer.enter("bench", 0);
    tracer.span("core.stream", 0, || {
        for tx in &rows[..window] {
            sm.insert(tx.clone());
        }
        sm.refresh(&mut NullSink)
    });
    let before = *sm.stats();
    let (mut steps, mut latencies) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while steps.len() < REPLAY_STEPS
        && (steps.len() < 4 || start.elapsed().as_secs_f64() < REPLAY_SECONDS)
    {
        let tx = rows[(window + steps.len()) % rows.len()].clone();
        let t = Instant::now();
        let step = tracer.span("core.stream", steps.len() as u64 + 1, || {
            sm.advance(tx, &mut NullSink)
        });
        latencies.push(t.elapsed().as_secs_f64());
        steps.push(step);
    }
    tracer.exit();
    stream_metrics(&before, sm.stats(), &steps, &latencies, out);
}
