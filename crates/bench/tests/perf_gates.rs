//! Wall-clock gates: a live telemetry session may cost at most 5% of a
//! mine, and the stream miner's incremental walk must beat both
//! re-mining every step and forced row rebuilds.
//!
//! Timings only mean something in an optimised build with nothing else
//! running, so every test here is ignored in debug builds. Run them as
//!
//! ```text
//! cargo test --release -q -p pfcim-bench --test perf_gates -- --test-threads=1
//! ```
//!
//! (`scripts/ci.sh` does), so no gate times another's threads.

use std::time::{Duration, Instant};

use pfcim_bench::datasets::{abs_min_sup, BenchDataset, Scale};
use pfcim_core::{
    FcpMethod, Miner, MinerConfig, NullSink, ShardableSink, StreamConfig, StreamMiner, Telemetry,
};
use utdb::{ItemDictionary, SlidingWindow, UncertainTransaction};

/// Miner workers every gate runs with, so the sharded sink and pool
/// paths are part of what is timed.
const THREADS: usize = 2;

/// The background sampler plus sink may cost at most this share of
/// wall-clock on the probe mine.
const TELEMETRY_OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Below this bare median the mine is too short for a percentage to mean
/// anything (timer noise and thread start-up dominate), so the gate
/// reports the numbers without failing.
const TELEMETRY_NOISE_FLOOR_S: f64 = 0.05;

fn median3(mut xs: [f64; 3]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[1]
}

fn mine_s<S: ShardableSink>(db: &utdb::UncertainDatabase, cfg: &MinerConfig, sink: &mut S) -> f64 {
    Miner::new(db)
        .config(cfg.clone())
        .sink(sink)
        .run()
        .elapsed
        .as_secs_f64()
}

/// One pass: three bare and three instrumented mines, interleaved (bare,
/// instrumented, bare, ...) so slow load drift biases both sides
/// equally. Returns the two medians.
fn telemetry_pass(db: &utdb::UncertainDatabase, cfg: &MinerConfig) -> (f64, f64) {
    let mut bare = [0.0; 3];
    let mut instrumented = [0.0; 3];
    for i in 0..3 {
        bare[i] = mine_s(db, cfg, &mut NullSink);
        let telemetry = Telemetry::start();
        instrumented[i] = mine_s(db, cfg, &mut telemetry.sink());
        telemetry.shutdown();
    }
    (median3(bare), median3(instrumented))
}

/// HighProb MPFCI at tiny scale, with `ApproxFCP`-only checking, mined
/// bare and under a live [`Telemetry`] session (sampler, flight recorder
/// and sink at the default sample interval). A pass over budget is
/// retried once and the better pass kept: a real overhead regression
/// shows in both passes, a transient load spike does not.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock gate; scripts/ci.sh runs it in release"
)]
fn live_telemetry_costs_at_most_five_percent() {
    let dataset = BenchDataset::HighProb;
    let db = dataset.uncertain(Scale::Tiny, 42);
    let cfg = MinerConfig::new(abs_min_sup(&db, dataset.default_min_sup_rel()), 0.8)
        .with_fcp_method(FcpMethod::ApproxOnly)
        .with_time_budget(Duration::from_secs(5))
        .with_threads(THREADS);
    let overhead_pct = |(bare, instrumented): (f64, f64)| (instrumented - bare) / bare * 100.0;
    let mut best = telemetry_pass(&db, &cfg);
    if overhead_pct(best) > TELEMETRY_OVERHEAD_BUDGET_PCT {
        let retry = telemetry_pass(&db, &cfg);
        if overhead_pct(retry) < overhead_pct(best) {
            best = retry;
        }
    }
    let (bare, instrumented) = best;
    let pct = overhead_pct(best);
    eprintln!(
        "telemetry overhead: {bare:.3} s bare, {instrumented:.3} s instrumented ({pct:+.1}%)"
    );
    assert!(
        bare < TELEMETRY_NOISE_FLOOR_S || pct <= TELEMETRY_OVERHEAD_BUDGET_PCT,
        "telemetry overhead {pct:+.1}% exceeds the {TELEMETRY_OVERHEAD_BUDGET_PCT}% budget \
         ({bare:.3} s bare, {instrumented:.3} s instrumented)"
    );
}

/// Fill `miner`'s window (untimed), then advance `steps` more rows of
/// `rows` (cycling) and return the steady-state wall-clock, where every
/// step is one arrival and one expiry.
fn walk(miner: &mut StreamMiner, rows: &[UncertainTransaction], steps: usize) -> Duration {
    let window = miner.config().window;
    for i in 0..window {
        miner.advance(rows[i % rows.len()].clone(), &mut NullSink);
    }
    let start = Instant::now();
    for i in 0..steps {
        miner.advance(rows[(window + i) % rows.len()].clone(), &mut NullSink);
    }
    start.elapsed()
}

/// A 64-row window over the HighProb feed, 200 timed steps: the stream
/// miner must be faster than a batch mine of the window at every step.
/// Its final state must equal a batch mine of its final window first, or
/// the clock would be timing a different computation.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock gate; scripts/ci.sh runs it in release"
)]
fn incremental_stream_beats_re_mining_every_step() {
    const WINDOW: usize = 64;
    const STEPS: usize = 200;
    let db = BenchDataset::HighProb.uncertain(Scale::Tiny, 42);
    let rows = db.transactions();
    // Stream mode pins the exact FCP kernel.
    let cfg = MinerConfig::new(WINDOW / 8, 0.6)
        .with_fcp_method(FcpMethod::ExactOnly)
        .with_threads(THREADS);

    let mut stream = StreamMiner::new(
        db.dictionary().clone(),
        StreamConfig::new(WINDOW, cfg.clone()),
    );
    let incremental = walk(&mut stream, rows, STEPS);
    let final_db = stream.window().dense_db();
    let batch = Miner::new(&final_db).config(cfg.clone()).run();
    assert_eq!(stream.results(), batch.results.as_slice());

    let mut window = SlidingWindow::new(db.dictionary().clone(), 2 * WINDOW);
    for row in rows.iter().cycle().take(WINDOW) {
        window.push(row.clone());
    }
    let start = Instant::now();
    for i in 0..STEPS {
        window.push(rows[(WINDOW + i) % rows.len()].clone());
        window.pop();
        let fresh = window.dense_db();
        Miner::new(&fresh)
            .config(cfg.clone())
            .sink(&mut NullSink)
            .run();
    }
    let re_mine = start.elapsed();

    let speedup = re_mine.as_secs_f64() / incremental.as_secs_f64();
    eprintln!("stream: {incremental:?} incremental, {re_mine:?} re-mining ({speedup:.1}x)");
    assert!(
        speedup > 1.0,
        "the incremental walk ({incremental:?}) is not faster than re-mining every step ({re_mine:?})"
    );
}

/// The downdate-dominated cell: a 256-row window of the same eight items
/// at low probability, with `min_sup` far above the expected support, so
/// every root passes the count check but is certificate-skipped. Nothing
/// is mined and the walk times row maintenance alone: incremental
/// downdates against forced `rebuild_rows`, over 150 steps.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock gate; scripts/ci.sh runs it in release"
)]
fn incremental_downdates_beat_row_rebuilds() {
    const WINDOW: usize = 256;
    const STEPS: usize = 150;
    let mut dict = ItemDictionary::new();
    let items: Vec<utdb::Item> = (0..8).map(|i| dict.intern(&format!("s{i}"))).collect();
    let rows: Vec<UncertainTransaction> = (0..WINDOW + STEPS)
        .map(|i| UncertainTransaction::new(items.clone(), 0.25 + 0.01 * ((i % 5) as f64)))
        .collect();
    let cfg = MinerConfig::new(WINDOW / 2, 0.5)
        .with_fcp_method(FcpMethod::ExactOnly)
        .with_threads(THREADS);

    let mut incremental = StreamMiner::new(dict.clone(), StreamConfig::new(WINDOW, cfg.clone()));
    let incremental_t = walk(&mut incremental, &rows, STEPS);
    let mut rebuild =
        StreamMiner::new(dict, StreamConfig::new(WINDOW, cfg).with_rebuild_rows(true));
    let rebuild_t = walk(&mut rebuild, &rows, STEPS);
    assert_eq!(incremental.results(), rebuild.results());
    assert!(incremental.stats().row_downdates > 0, "no downdate fired");
    assert!(rebuild.stats().row_rebuilds > 0, "no rebuild was forced");

    let speedup = rebuild_t.as_secs_f64() / incremental_t.as_secs_f64();
    eprintln!("downdates: {incremental_t:?} incremental, {rebuild_t:?} rebuilding ({speedup:.1}x)");
    assert!(
        speedup > 1.0,
        "incremental downdates ({incremental_t:?}) lost to row rebuilds ({rebuild_t:?})"
    );
}
