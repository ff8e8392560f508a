//! End-to-end checks of the tracing layer through the public facade:
//! trace events must reconcile exactly with the miner's own counters,
//! observation must not perturb mining, and JSONL traces must survive a
//! round trip through a real file.

mod common;

use common::TempPath;
use pfcim::core::{
    parse_jsonl, Algorithm, CountingSink, HistogramSink, JsonlSink, Miner, MinerConfig,
    MiningOutcome, NullSink, Phase, RecordingSink, SearchStrategy, ShardableSink, TraceEvent,
};
use pfcim::utdb::UncertainDatabase;

fn mine_dfs_with<S: ShardableSink + ?Sized>(
    db: &UncertainDatabase,
    cfg: &MinerConfig,
    sink: &mut S,
) -> MiningOutcome {
    Miner::new(db)
        .config(cfg.clone())
        .algorithm(Algorithm::Dfs)
        .sink(sink)
        .run()
}

fn mine_bfs_with<S: ShardableSink + ?Sized>(
    db: &UncertainDatabase,
    cfg: &MinerConfig,
    sink: &mut S,
) -> MiningOutcome {
    Miner::new(db)
        .config(cfg.clone())
        .algorithm(Algorithm::Bfs)
        .sink(sink)
        .run()
}

fn mine_naive_with<S: ShardableSink + ?Sized>(
    db: &UncertainDatabase,
    cfg: &MinerConfig,
    sink: &mut S,
) -> MiningOutcome {
    Miner::new(db)
        .config(cfg.clone())
        .algorithm(Algorithm::Naive)
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

type Runner = fn(&UncertainDatabase, &MinerConfig, &mut CountingSink) -> MiningOutcome;

fn all_miners() -> [(&'static str, MinerConfig, Runner); 3] {
    [
        ("dfs", config(), |db, cfg, sink| {
            mine_dfs_with(db, cfg, sink)
        }),
        ("bfs", bfs_config(), |db, cfg, sink| {
            mine_bfs_with(db, cfg, sink)
        }),
        ("naive", config(), |db, cfg, sink| {
            mine_naive_with(db, cfg, sink)
        }),
    ]
}

#[test]
fn counting_sink_reconciles_with_miner_stats() {
    // Every counter the miner reports must correspond one-to-one with
    // events delivered to the sink, for each search strategy.
    let db = table2();
    for (name, cfg, run) in all_miners() {
        let mut sink = CountingSink::default();
        let outcome = run(&db, &cfg, &mut sink);
        assert_eq!(
            sink.stats, outcome.stats,
            "{name}: sink-counted stats diverge from MinerStats"
        );
        assert_eq!(
            sink.results_emitted,
            outcome.results.len() as u64,
            "{name}: result_emitted events diverge from result count"
        );
        assert_eq!(
            sink.timers, outcome.timers,
            "{name}: phase_end events diverge from PhaseTimers"
        );
    }
}

#[test]
fn dp_decision_audit_reconciles_with_kernel_counters() {
    // Every frequentness-DP row decision carries exactly one recorded
    // reason: downdates match the kernel's incremental counter, and the
    // per-reason rebuild counters (including the refusal reasons) sum
    // exactly to the kernel's recompute counter — for every strategy,
    // both via the sink's copy and the outcome's.
    let db = table2();
    for (name, cfg, run) in all_miners() {
        let mut sink = CountingSink::default();
        let outcome = run(&db, &cfg, &mut sink);
        assert_eq!(
            sink.audit, outcome.audit,
            "{name}: sink-audited decisions diverge from the outcome audit"
        );
        assert_eq!(
            outcome.audit.incremental, outcome.kernel.dp_incremental,
            "{name}: incremental decisions vs kernel counter"
        );
        assert_eq!(
            outcome.audit.recomputed(),
            outcome.kernel.dp_recomputed,
            "{name}: per-reason rebuilds must sum to dp_recomputed"
        );
        assert!(
            outcome.audit.refusals() <= outcome.audit.recomputed(),
            "{name}: refusals are a subset of rebuilds"
        );
        if name == "naive" {
            // The Naive baseline runs its DPs in the PFI stage, outside
            // the audited evaluator: the audit stays empty rather than
            // inventing unattributable decisions.
            assert_eq!(outcome.audit.total(), 0, "naive audit stays empty");
        } else {
            assert_eq!(
                outcome.audit.total(),
                outcome.kernel.dp_rows(),
                "{name}: one decision per DP row"
            );
        }
    }
}

#[test]
fn observation_does_not_perturb_mining() {
    // A fully-instrumented run must produce byte-identical results and
    // counters to the NullSink fast path.
    let db = table2();
    for (name, cfg, run) in all_miners() {
        let baseline = match name {
            "dfs" => mine_dfs_with(&db, &cfg, &mut NullSink),
            "bfs" => mine_bfs_with(&db, &cfg, &mut NullSink),
            _ => mine_naive_with(&db, &cfg, &mut NullSink),
        };
        let observed = run(&db, &cfg, &mut CountingSink::default());
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
    // mined, and the snapshot's counters must mirror the run's stats.
    let db = table2();
    for (name, cfg, _) in all_miners() {
        let baseline = match name {
            "dfs" => mine_dfs_with(&db, &cfg, &mut NullSink),
            "bfs" => mine_bfs_with(&db, &cfg, &mut NullSink),
            _ => mine_naive_with(&db, &cfg, &mut NullSink),
        };
        let mut sink = HistogramSink::new();
        let observed = match name {
            "dfs" => mine_dfs_with(&db, &cfg, &mut sink),
            "bfs" => mine_bfs_with(&db, &cfg, &mut sink),
            _ => mine_naive_with(&db, &cfg, &mut sink),
        };
        assert_eq!(baseline.results, observed.results, "{name}: results moved");
        assert_eq!(baseline.stats, observed.stats, "{name}: counters moved");

        let reg = sink.snapshot();
        assert_eq!(
            reg.counter("nodes_visited"),
            Some(observed.stats.nodes_visited),
            "{name}"
        );
        assert_eq!(
            reg.counter("results"),
            Some(observed.results.len() as u64),
            "{name}"
        );
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
    let outcome = mine_dfs_with(&db, &config(), &mut recorder);
    assert!(matches!(
        recorder.events.first(),
        Some(TraceEvent::RunStart { .. })
    ));
    assert!(matches!(
        recorder.events.last(),
        Some(TraceEvent::RunEnd { .. })
    ));
    let mut counted = CountingSink::default();
    for event in &recorder.events {
        counted.absorb_event(event);
    }
    assert_eq!(counted.stats, outcome.stats);
    assert_eq!(counted.timers, outcome.timers);
    assert_eq!(counted.results_emitted, outcome.results.len() as u64);
}

#[test]
fn jsonl_trace_round_trips_through_a_file() {
    // Stream DFS and BFS runs into one JSONL file, read it back, and
    // check the parsed events reconcile with both runs' summed stats.
    let db = table2();
    let path = TempPath::new("observability_trace", "jsonl");
    let mut sink = JsonlSink::create(&path).expect("create trace file");
    let dfs = mine_dfs_with(&db, &config(), &mut sink);
    let bfs = mine_bfs_with(&db, &bfs_config(), &mut sink);
    sink.finish().expect("flush trace file");

    let text = std::fs::read_to_string(&path).expect("re-read trace file");
    let events = parse_jsonl(&text).expect("parse trace file");
    assert_eq!(events.len(), text.lines().count());

    let mut counted = CountingSink::default();
    for event in &events {
        counted.absorb_event(event);
    }
    let mut expected = dfs.stats;
    expected.absorb(&bfs.stats);
    assert_eq!(counted.stats, expected);
    assert_eq!(
        counted.results_emitted,
        (dfs.results.len() + bfs.results.len()) as u64
    );

    // The two runs are delimited by their run_start algo tags.
    let algos: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RunStart { algo, .. } => Some(algo.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(algos, ["dfs", "bfs"]);
}
