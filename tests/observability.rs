//! End-to-end checks of the tracing layer through the public facade:
//! observation must not perturb mining, and a run's trace, recorded or
//! round-tripped through a real JSONL file, must replay into the run's
//! own counters.

mod common;

use common::TempPath;
use pfcim::core::{
    parse_jsonl, Algorithm, HistogramSink, JsonlSink, KernelStats, Miner, MinerConfig,
    MiningOutcome, NullSink, Phase, RecordingSink, RunLedger, SearchStrategy, ShardableSink,
    TraceEvent,
};
use pfcim::utdb::UncertainDatabase;

fn mine_with<S: ShardableSink + ?Sized>(
    algorithm: Algorithm,
    db: &UncertainDatabase,
    cfg: &MinerConfig,
    sink: &mut S,
) -> MiningOutcome {
    Miner::new(db)
        .config(cfg.clone())
        .algorithm(algorithm)
        .sink(sink)
        .run()
}

fn table2() -> UncertainDatabase {
    UncertainDatabase::parse_symbolic(&[
        ("a b c d", 0.9),
        ("a b c", 0.6),
        ("a b c", 0.7),
        ("a b c d", 0.9),
    ])
}

fn config() -> MinerConfig {
    MinerConfig::new(2, 0.8)
}

fn bfs_config() -> MinerConfig {
    let mut cfg = config();
    cfg.search = SearchStrategy::Bfs;
    cfg.pruning.superset = false;
    cfg.pruning.subset = false;
    cfg
}

fn all_miners() -> [(&'static str, Algorithm, MinerConfig); 3] {
    [
        ("dfs", Algorithm::Dfs, config()),
        ("bfs", Algorithm::Bfs, bfs_config()),
        ("naive", Algorithm::Naive, config()),
    ]
}

/// The part of a run's ledger its events carry: everything but the
/// kernel's cache and bitmap counters, which have no event.
fn event_counters(ledger: RunLedger) -> RunLedger {
    RunLedger {
        kernel: KernelStats::default(),
        ..ledger
    }
}

#[test]
fn observation_does_not_perturb_mining() {
    // A fully-instrumented run must produce byte-identical results and
    // counters to the NullSink fast path.
    let db = table2();
    for (name, algorithm, cfg) in all_miners() {
        let baseline = mine_with(algorithm, &db, &cfg, &mut NullSink);
        let observed = mine_with(algorithm, &db, &cfg, &mut RunLedger::default());
        assert_eq!(
            baseline.results, observed.results,
            "{name}: observation changed the mined results"
        );
        assert_eq!(
            baseline.stats, observed.stats,
            "{name}: observation changed the miner's counters"
        );
        assert_eq!(baseline.timed_out, observed.timed_out);
    }
}

#[test]
fn histogram_sink_does_not_perturb_and_reconciles() {
    // Recording full latency/size distributions must not change what is
    // mined, and each distribution holds one sample per observed call.
    let db = table2();
    for (name, algorithm, cfg) in all_miners() {
        let baseline = mine_with(algorithm, &db, &cfg, &mut NullSink);
        let mut sink = HistogramSink::new();
        let observed = mine_with(algorithm, &db, &cfg, &mut sink);
        assert_eq!(baseline.results, observed.results, "{name}: results moved");
        assert_eq!(baseline.stats, observed.stats, "{name}: counters moved");

        let reg = sink.snapshot();
        assert_eq!(reg.counter("runs"), Some(1), "{name}");
        assert_eq!(
            reg.get_histogram("node_depth").map_or(0, |h| h.count()),
            observed.stats.nodes_visited,
            "{name}: one depth sample per node"
        );
        // Each phase histogram carries one sample per timed phase call.
        for phase in Phase::ALL {
            let hist = reg.get_histogram(&format!("phase_{}_s", phase.name()));
            assert_eq!(
                hist.map_or(0, |h| h.count()),
                observed.timers.count(phase),
                "{name}: {} call count",
                phase.name()
            );
        }
        let elapsed = reg.gauge("elapsed_s").unwrap();
        assert!(
            (elapsed - observed.elapsed.as_secs_f64()).abs() < 1e-9,
            "{name}"
        );
    }
}

#[test]
fn recording_sink_replays_into_the_same_aggregates() {
    // The event stream alone (as a RecordingSink captured it) carries
    // enough information to rebuild the run's statistics.
    let db = table2();
    let mut recorder = RecordingSink::default();
    let outcome = mine_with(Algorithm::Dfs, &db, &config(), &mut recorder);
    assert!(matches!(
        recorder.events.first(),
        Some(TraceEvent::RunStart { .. })
    ));
    assert!(matches!(
        recorder.events.last(),
        Some(TraceEvent::RunEnd { .. })
    ));
    let mut replayed = RunLedger::default();
    for event in &recorder.events {
        replayed.absorb_event(event);
    }
    assert_eq!(replayed, event_counters(outcome.ledger()));
}

#[test]
fn jsonl_trace_round_trips_through_a_file() {
    // Stream DFS, BFS and Naive runs at one and four threads into one
    // JSONL file, read it back, and replay it into a ledger: it must
    // equal the runs' own ledgers summed, so the trace is complete.
    let db = table2();
    let path = TempPath::new("observability_trace", "jsonl");
    let mut sink = JsonlSink::create(&path).expect("create trace file");
    let mut live = RunLedger::default();
    let mut mined = Vec::new();
    for threads in [1, 4] {
        for (name, algorithm, cfg) in all_miners() {
            let outcome = mine_with(algorithm, &db, &cfg.with_threads(threads), &mut sink);
            live.absorb(&outcome.ledger());
            mined.push(name);
        }
    }
    sink.finish().expect("flush trace file");

    let text = std::fs::read_to_string(&path).expect("re-read trace file");
    let events = parse_jsonl(&text).expect("parse trace file");
    assert_eq!(events.len(), text.lines().count());

    let mut replayed = RunLedger::default();
    for event in &events {
        replayed.absorb_event(event);
    }
    assert_eq!(replayed, event_counters(live));
    assert!(live.audit.total() > 0 && live.stats.fcp_sampled > 0);

    // The runs are delimited by their run_start algo tags.
    let algos: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RunStart { algo, .. } => Some(algo.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(algos, mined);
}
