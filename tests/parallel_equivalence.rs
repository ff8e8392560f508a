//! Parallel-vs-sequential differential suite: the work-stealing miner
//! must be *indistinguishable* from the sequential one wherever the
//! algorithm is deterministic, and reproducible wherever it samples.
//!
//! * Exact mode (`FcpMethod::ExactOnly`): result sets, every probability
//!   (bitwise), and all pruning counters are identical to the `threads =
//!   1` run for every miner variant, on the paper's Table II/Table IV
//!   examples and on generated Gaussian databases.
//! * Sampled mode (`ApproxOnly`): output is a pure function of
//!   `(seed, threads)` — repeat runs are bitwise identical — and the
//!   parallel DFS is even thread-count independent (each root subtree
//!   owns a seed-derived RNG stream).
//! * JSONL tracing through the sharded-sink path reproduces the
//!   sequential event stream byte-for-byte and keeps latched-error
//!   semantics when the writer fails mid-run.
//!
//! The thread counts under test come from `PFCIM_TEST_THREADS`
//! (comma-separated, e.g. `PFCIM_TEST_THREADS=1,4` in `scripts/ci.sh`),
//! defaulting to `1,2,4,7`.

use std::io::{self, Write};

use pfcim::core::{
    parse_jsonl, Algorithm, CountingSink, FcpMethod, JsonlSink, Miner, MinerConfig, MiningOutcome,
    NullSink, ShardableSink, TraceEvent, Variant,
};
use pfcim::utdb::gen::{MushroomConfig, QuestConfig};
use pfcim::utdb::{assign_gaussian_probabilities, UncertainDatabase};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn mine_with<S: ShardableSink + ?Sized>(
    db: &UncertainDatabase,
    cfg: &MinerConfig,
    sink: &mut S,
) -> MiningOutcome {
    Miner::new(db).config(cfg.clone()).sink(sink).run()
}

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

fn thread_counts() -> Vec<usize> {
    match std::env::var("PFCIM_TEST_THREADS") {
        Ok(v) => v
            .split(',')
            .map(|s| s.trim().parse().expect("PFCIM_TEST_THREADS: bad count"))
            .collect(),
        Err(_) => vec![1, 2, 4, 7],
    }
}

fn table2() -> UncertainDatabase {
    UncertainDatabase::parse_symbolic(&[
        ("a b c d", 0.9),
        ("a b c", 0.6),
        ("a b c", 0.7),
        ("a b c d", 0.9),
    ])
}

fn table4() -> UncertainDatabase {
    UncertainDatabase::parse_symbolic(&[
        ("a b c d", 0.9),
        ("a b c", 0.6),
        ("a b c", 0.7),
        ("a b c d", 0.9),
        ("a b", 0.4),
        ("a", 0.4),
    ])
}

/// Small generated Gaussian-probability databases: one sparse (Quest),
/// one dense (Mushroom-like). Sized so exact-mode checking stays fast.
fn generated() -> Vec<(UncertainDatabase, usize)> {
    // min_sup is kept high so every non-closure family's support lattice
    // stays within the 2^24-term inclusion–exclusion cap (the test forces
    // ExactOnly).
    let mut rng = SmallRng::seed_from_u64(11);
    let quest = QuestConfig::t20i10_p40(80).generate(&mut rng);
    let quest = assign_gaussian_probabilities(&quest, 0.8, 0.1, &mut rng);
    let quest_ms = quest.len() / 2;
    let mut rng = SmallRng::seed_from_u64(12);
    let mush = MushroomConfig::new(60).generate(&mut rng);
    let mush = assign_gaussian_probabilities(&mush, 0.7, 0.2, &mut rng);
    let mush_ms = mush.len() / 2;
    vec![(quest, quest_ms), (mush, mush_ms)]
}

fn exact_cfg(min_sup: usize, variant: Variant, threads: usize) -> MinerConfig {
    MinerConfig::new(min_sup, 0.8)
        .with_variant(variant)
        .with_fcp_method(FcpMethod::ExactOnly)
        .with_threads(threads)
}

/// Everything that must be bitwise-equal between two deterministic runs.
fn assert_outcomes_identical(label: &str, a: &MiningOutcome, b: &MiningOutcome) {
    assert_eq!(a.itemsets(), b.itemsets(), "{label}: result sets differ");
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(
            x.fcp.to_bits(),
            y.fcp.to_bits(),
            "{label}: fcp differs for {:?}",
            x.items
        );
        assert_eq!(
            x.frequent_probability.to_bits(),
            y.frequent_probability.to_bits(),
            "{label}: Pr_F differs for {:?}",
            x.items
        );
    }
    assert_eq!(a.stats, b.stats, "{label}: pruning/eval counters differ");
    assert_eq!(a.timed_out, b.timed_out, "{label}: timeout flags differ");
}

#[test]
fn exact_mode_is_bit_identical_across_thread_counts_on_paper_examples() {
    for (name, db) in [("table2", table2()), ("table4", table4())] {
        for variant in Variant::ALL {
            let sequential = mine_with(&db, &exact_cfg(2, variant, 1), &mut NullSink);
            for &threads in &thread_counts() {
                let mut sink = CountingSink::default();
                let parallel = mine_with(&db, &exact_cfg(2, variant, threads), &mut sink);
                let label = format!("{name}/{}/threads={threads}", variant.name());
                assert_outcomes_identical(&label, &sequential, &parallel);
                // The reconciled sink saw exactly the sequential event
                // stream's worth of callbacks.
                assert_eq!(sink.stats, sequential.stats, "{label}: sink counters");
                assert_eq!(
                    sink.results_emitted,
                    sequential.results.len() as u64,
                    "{label}: sink result events"
                );
            }
        }
    }
}

#[test]
fn exact_mode_is_bit_identical_on_generated_gaussian_databases() {
    for (i, (db, min_sup)) in generated().into_iter().enumerate() {
        // MPFCI and the no-bound variant cover both checking paths; the
        // full six-variant sweep runs on the paper examples above.
        for variant in [Variant::Mpfci, Variant::NoBound] {
            let sequential = mine_with(&db, &exact_cfg(min_sup, variant, 1), &mut NullSink);
            assert!(
                !sequential.results.is_empty(),
                "generated[{i}]: workload sanity"
            );
            for &threads in &thread_counts() {
                let parallel = mine_with(&db, &exact_cfg(min_sup, variant, threads), &mut NullSink);
                let label = format!("generated[{i}]/{}/threads={threads}", variant.name());
                assert_outcomes_identical(&label, &sequential, &parallel);
            }
        }
    }
}

#[test]
fn sampled_mode_is_reproducible_for_fixed_seed_and_thread_count() {
    let db = table4();
    let sampled = |threads: usize, seed: u64| {
        MinerConfig::new(2, 0.8)
            .with_fcp_method(FcpMethod::ApproxOnly)
            .with_seed(seed)
            .with_threads(threads)
    };
    for &threads in &thread_counts() {
        let cfg = sampled(threads, 0xabcd);
        let a = mine_with(&db, &cfg, &mut NullSink);
        let b = mine_with(&db, &cfg, &mut NullSink);
        let label = format!("dfs/threads={threads}");
        assert_outcomes_identical(&label, &a, &b);

        // The naive baseline chunks its sampling over the same pool.
        let a = mine_naive_with(&db, &cfg, &mut NullSink);
        let b = mine_naive_with(&db, &cfg, &mut NullSink);
        assert_outcomes_identical(&format!("naive/threads={threads}"), &a, &b);
    }
}

#[test]
fn sampled_parallel_dfs_is_thread_count_independent() {
    // Each DFS root derives its RNG stream from (seed, root id), so any
    // worker count >= 2 produces the same sampled probabilities.
    let db = table4();
    let cfg = |threads: usize| {
        MinerConfig::new(2, 0.8)
            .with_fcp_method(FcpMethod::ApproxOnly)
            .with_seed(7)
            .with_threads(threads)
    };
    let counts: Vec<usize> = thread_counts().into_iter().filter(|&t| t >= 2).collect();
    if counts.len() < 2 {
        return; // PFCIM_TEST_THREADS pinned a single parallel count
    }
    let base = mine_dfs_with(&db, &cfg(counts[0]), &mut NullSink);
    for &threads in &counts[1..] {
        let other = mine_dfs_with(&db, &cfg(threads), &mut NullSink);
        assert_outcomes_identical(
            &format!("threads={} vs {}", counts[0], threads),
            &base,
            &other,
        );
    }
}

#[test]
fn parallel_jsonl_trace_replays_the_sequential_event_stream() {
    let db = table4();
    // Wall-clock payloads (phase durations, the run_end trailer)
    // legitimately differ between runs; everything else — event kinds,
    // order, itemsets, probabilities — must be identical.
    let trace = |threads: usize| -> Vec<TraceEvent> {
        let mut sink = JsonlSink::new(Vec::new());
        mine_with(&db, &exact_cfg(2, Variant::Mpfci, threads), &mut sink);
        let bytes = sink.finish().expect("in-memory writer cannot fail");
        parse_jsonl(std::str::from_utf8(&bytes).unwrap())
            .expect("trace parses back")
            .into_iter()
            .map(|ev| match ev {
                TraceEvent::PhaseEnd { phase, .. } => TraceEvent::PhaseEnd { phase, nanos: 0 },
                TraceEvent::RunEnd {
                    results, timed_out, ..
                } => TraceEvent::RunEnd {
                    elapsed_nanos: 0,
                    results,
                    timed_out,
                },
                other => other,
            })
            .collect()
    };
    let sequential = trace(1);
    assert!(sequential.len() > 10, "trace sanity");
    for &threads in &thread_counts() {
        let parallel = trace(threads);
        assert_eq!(parallel, sequential, "threads={threads}: traces diverge");
    }
}

/// A writer that accepts a fixed number of writes, then fails forever.
#[derive(Debug)]
struct FailAfter {
    ok_writes: usize,
}

impl Write for FailAfter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.ok_writes == 0 {
            return Err(io::Error::other("disk full"));
        }
        self.ok_writes -= 1;
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn jsonl_sink_latches_writer_errors_through_the_parallel_path() {
    let db = table4();
    let mut sink = JsonlSink::new(FailAfter { ok_writes: 3 });
    let outcome = mine_with(&db, &exact_cfg(2, Variant::Mpfci, 4), &mut sink);
    // Mining itself is unaffected by the sick writer...
    assert!(!outcome.results.is_empty());
    // ...but the first failure is latched, later events are dropped, and
    // the error surfaces on finish exactly like on the sequential path.
    assert!(sink.has_error(), "write failure must latch");
    let written = sink.lines_written();
    assert!(written >= 1, "some events made it out before the failure");
    let err = sink.finish().expect_err("latched error surfaces on finish");
    assert_eq!(err.to_string(), "disk full");
}

#[test]
#[ignore = "stress test: run with --ignored"]
fn oversubscribed_stress_run_terminates_and_reconciles() {
    // 64 workers on a small machine: massively oversubscribed, must
    // still terminate (the pool's task set is static — no worker ever
    // blocks) and reconcile stats exactly. Bounded well under a minute.
    let mut rng = SmallRng::seed_from_u64(99);
    let quest = QuestConfig::t20i10_p40(400).generate(&mut rng);
    let db = assign_gaussian_probabilities(&quest, 0.8, 0.1, &mut rng);
    let min_sup = db.len() / 4;
    let start = std::time::Instant::now();
    let cfg = MinerConfig::new(min_sup, 0.8).with_threads(64);
    let mut sink = CountingSink::default();
    let stressed = mine_dfs_with(&db, &cfg, &mut sink);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(60),
        "stress run exceeded its budget: {:?}",
        start.elapsed()
    );
    assert_eq!(sink.stats, stressed.stats, "sharded stats reconcile");
    // Any parallel worker count yields identical output (per-root RNG
    // streams), so a cheap 2-worker run cross-checks the 64-worker one.
    let reference = mine_dfs_with(&db, &cfg.clone().with_threads(2), &mut NullSink);
    assert_outcomes_identical("stress vs 2 workers", &stressed, &reference);
}
