//! End-to-end checks of the profiling exporters on real benchmark
//! datasets: the Chrome trace-event JSON must round-trip through an
//! actual JSON parser with strictly nested per-thread spans, the
//! Prometheus text output must pass its own linter, and attaching the
//! profiler must not change what is mined.

#[path = "common/json.rs"]
mod json;

use json::JsonValue;
use pfcim_bench::datasets::{abs_min_sup, BenchDataset, Scale};
use pfcim_core::{lint_prometheus, HistogramSink, Miner, MinerConfig, NullSink, SpanProfiler, Tee};

fn dataset() -> (pfcim_bench::datasets::BenchDataset, utdb::UncertainDatabase) {
    let dataset = BenchDataset::HighProb;
    let db = dataset.uncertain(Scale::Tiny, 42);
    (dataset, db)
}

fn config(db: &utdb::UncertainDatabase, dataset: BenchDataset) -> MinerConfig {
    MinerConfig::new(abs_min_sup(db, dataset.default_min_sup_rel()), 0.8)
}

#[test]
fn chrome_trace_round_trips_and_spans_nest_per_thread() {
    let (dataset, db) = dataset();
    let cfg = config(&db, dataset);
    let mut profiler = SpanProfiler::new();
    let outcome = Miner::new(&db).config(cfg).sink(&mut profiler).run();
    assert!(outcome.stats.nodes_visited > 0, "the run must do work");

    let text = profiler.chrome_trace_json();
    let doc = JsonValue::parse(&text).expect("chrome trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("top-level traceEvents array");
    assert!(!events.is_empty());

    // Split into metadata ("M") and complete ("X") events; collect the
    // per-thread complete spans as (ts, ts+dur) microsecond intervals.
    let mut names = Vec::new();
    let mut by_tid: std::collections::BTreeMap<u64, Vec<(f64, f64)>> = Default::default();
    let mut node_spans = 0u64;
    for ev in events {
        let ph = ev.get("ph").and_then(JsonValue::as_str).expect("ph");
        let name = ev.get("name").and_then(JsonValue::as_str).expect("name");
        let tid = ev.get("tid").and_then(JsonValue::as_u64).expect("tid");
        assert_eq!(ev.get("pid").and_then(JsonValue::as_u64), Some(1));
        match ph {
            "M" => {
                assert_eq!(name, "thread_name");
                names.push(tid);
            }
            "X" => {
                let ts = ev.get("ts").and_then(JsonValue::as_f64).expect("ts");
                let dur = ev.get("dur").and_then(JsonValue::as_f64).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0, "{name}: ts={ts} dur={dur}");
                if name == "node" {
                    node_spans += 1;
                    assert!(
                        ev.get("args").and_then(|a| a.get("depth")).is_some(),
                        "node spans carry their depth"
                    );
                }
                by_tid.entry(tid).or_default().push((ts, ts + dur));
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    // One thread_name metadata record per track that carries spans.
    for tid in by_tid.keys() {
        assert!(names.contains(tid), "track {tid} has no thread_name");
    }
    // Unsampled profiling records every DFS node.
    assert_eq!(node_spans, outcome.stats.nodes_visited);

    // Per thread, spans must strictly nest: sorted by start, each span
    // either contains the next or ends before it starts. Ends are
    // reconstructed as `ts + dur`, and that f64 addition can round a
    // child's end past its parent's by one ULP at µs magnitudes — so
    // containment is checked to half a nanosecond (the exporter's
    // underlying clock is integer ns; a real violation is ≥ 1 ns).
    const HALF_NS_US: f64 = 0.0005;
    for (tid, spans) in &mut by_tid {
        // Parents first: start ascending, end descending.
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1).reverse()));
        let mut stack: Vec<(f64, f64)> = Vec::new();
        for &(start, end) in spans.iter() {
            while let Some(&(_, open_end)) = stack.last() {
                if open_end <= start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(open_start, open_end)) = stack.last() {
                assert!(
                    open_start <= start && end <= open_end + HALF_NS_US,
                    "track {tid}: span [{start}, {end}] straddles [{open_start}, {open_end}]"
                );
            }
            stack.push((start, end));
        }
    }
}

#[test]
fn parallel_profile_produces_worker_tracks() {
    let (dataset, db) = dataset();
    let cfg = config(&db, dataset).with_threads(4);
    let mut profiler = SpanProfiler::new();
    Miner::new(&db).config(cfg).sink(&mut profiler).run();
    let text = profiler.chrome_trace_json();
    let doc = JsonValue::parse(&text).expect("valid JSON");
    let events = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
    let worker_named = events.iter().any(|ev| {
        ev.get("ph").and_then(JsonValue::as_str) == Some("M")
            && ev
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(JsonValue::as_str)
                .is_some_and(|n| n.starts_with("worker-"))
    });
    assert!(worker_named, "pool spans must land on named worker tracks");
    let pool_kinds: std::collections::BTreeSet<&str> = events
        .iter()
        .filter_map(|ev| ev.get("name").and_then(JsonValue::as_str))
        .filter(|n| matches!(*n, "task" | "steal" | "idle"))
        .collect();
    assert!(
        pool_kinds.contains("task"),
        "worker tracks carry pool task spans (got {pool_kinds:?})"
    );
}

#[test]
fn prometheus_export_of_a_real_run_lints_clean() {
    let (dataset, db) = dataset();
    let cfg = config(&db, dataset);
    let mut sink = HistogramSink::new();
    let outcome = Miner::new(&db).config(cfg).sink(&mut sink).run();
    let text = sink.snapshot().to_prometheus("pfcim");
    lint_prometheus(&text).expect("exporter output must pass the linter");
    assert!(text.contains(&format!(
        "pfcim_nodes_visited {}",
        outcome.stats.nodes_visited
    )));
    // The DP decision audit rides along as counters; on this dataset
    // the incremental path must actually fire.
    assert!(text.contains("# TYPE pfcim_audit_incremental counter"));
    assert_eq!(
        outcome.audit.incremental, outcome.kernel.dp_incremental,
        "audit reconciles with the kernel counter"
    );
    assert!(
        outcome.kernel.dp_incremental > 0,
        "the high-probability dataset must exercise the downdate path"
    );
}

#[test]
fn profiling_does_not_perturb_mining() {
    let (dataset, db) = dataset();
    let cfg = config(&db, dataset);
    let baseline = Miner::new(&db)
        .config(cfg.clone())
        .sink(&mut NullSink)
        .run();
    // Full-rate profiling plus histograms, as `pfcim profile` attaches.
    let mut sink = Tee(SpanProfiler::new(), HistogramSink::new());
    let profiled = Miner::new(&db).config(cfg).sink(&mut sink).run();
    assert_eq!(baseline.results, profiled.results);
    assert_eq!(baseline.stats, profiled.stats);
    assert_eq!(baseline.kernel, profiled.kernel);
    assert_eq!(baseline.audit, profiled.audit);
}
