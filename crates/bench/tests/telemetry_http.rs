//! End-to-end check of the live telemetry scrape endpoint: a real
//! MPFCI run on a benchmark dataset is slowed down just enough to be
//! observable, the HTTP server is scraped *mid-run* for `/metrics`
//! (which must pass the Prometheus linter) and `/healthz` (which must
//! be valid JSON reporting live progress), and after the run the
//! `/flight` recorder dump must be line-by-line parseable.

use std::time::{Duration, Instant};

#[path = "common/json.rs"]
mod json;

use json::JsonValue;
use pfcim_bench::datasets::{abs_min_sup, BenchDataset, Scale};
use pfcim_core::{http_get, lint_prometheus, Miner, MinerConfig, MinerSink, ShardableSink, Tee};
use pfcim_core::{Telemetry, TelemetryConfig};

/// Sleeps on every enumeration-tree node so the run stays alive long
/// enough for the scraper to catch it in flight.
#[derive(Clone)]
struct SlowNode(Duration);

impl MinerSink for SlowNode {
    fn node_entered(&mut self, _depth: usize) {
        std::thread::sleep(self.0);
    }
}

impl ShardableSink for SlowNode {
    type Shard = SlowNode;
    fn make_shard(&self) -> SlowNode {
        self.clone()
    }
    fn absorb_shard(&mut self, _shard: SlowNode) {}
}

const HTTP_TIMEOUT: Duration = Duration::from_secs(5);

fn get_ok(addr: &str, path: &str) -> String {
    let (status, body) =
        http_get(addr, path, HTTP_TIMEOUT).unwrap_or_else(|e| panic!("GET {path} failed: {e}"));
    assert_eq!(status, 200, "GET {path} returned {status}: {body}");
    body
}

#[test]
fn metrics_and_healthz_scrape_cleanly_during_a_live_run() {
    let dataset = BenchDataset::HighProb;
    let db = dataset.uncertain(Scale::Tiny, 42);
    let cfg = MinerConfig::new(abs_min_sup(&db, dataset.default_min_sup_rel()), 0.8);

    let mut telemetry = Telemetry::with_config(TelemetryConfig {
        sample_interval: Duration::from_millis(5),
        ..TelemetryConfig::default()
    });
    let addr = telemetry
        .serve("127.0.0.1:0")
        .expect("bind scrape endpoint")
        .to_string();
    let addr = addr.as_str();
    let tel_sink = telemetry.sink();

    let miner = std::thread::spawn(move || {
        let mut sink = Tee(tel_sink, SlowNode(Duration::from_millis(2)));
        Miner::new(&db).config(cfg).sink(&mut sink).run()
    });

    // Wait until the run is demonstrably in flight: /healthz must report
    // visited nodes while `finished` is still false.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut live_health = None;
    while Instant::now() < deadline {
        let body = get_ok(addr, "/healthz");
        let doc = JsonValue::parse(&body).expect("healthz must be valid JSON");
        let nodes = doc.get("nodes").and_then(JsonValue::as_u64).unwrap_or(0);
        let finished = doc.get("finished").and_then(JsonValue::as_bool);
        if nodes > 0 && finished == Some(false) {
            live_health = Some(doc);
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let health = live_health.expect("never observed the run in flight via /healthz");
    assert_eq!(
        health.get("status").and_then(JsonValue::as_str),
        Some("ok"),
        "mid-run healthz: {health:?}"
    );
    assert!(health.get("elapsed_s").and_then(JsonValue::as_f64).unwrap() > 0.0);

    // The mid-run metrics scrape must lint cleanly and carry the core
    // mining counters.
    let metrics = get_ok(addr, "/metrics");
    lint_prometheus(&metrics).unwrap_or_else(|e| panic!("mid-run /metrics fails lint: {e}"));
    for required in [
        "pfcim_nodes_visited",
        "pfcim_elapsed_s",
        "pfcim_event_cache_capacity",
    ] {
        assert!(metrics.contains(required), "missing {required}:\n{metrics}");
    }

    let outcome = miner.join().expect("miner thread panicked");
    assert!(outcome.stats.nodes_visited > 0);

    // After the run: /healthz flips to finished and the flight recorder
    // replays as one valid JSON record per line.
    let body = get_ok(addr, "/healthz");
    let doc = JsonValue::parse(&body).expect("post-run healthz must be valid JSON");
    assert_eq!(doc.get("finished").and_then(JsonValue::as_bool), Some(true));

    let flight = get_ok(addr, "/flight");
    let mut samples = 0usize;
    for line in flight.lines() {
        let rec = JsonValue::parse(line)
            .unwrap_or_else(|e| panic!("unparseable flight record {line:?}: {e}"));
        match rec.get("record").and_then(JsonValue::as_str) {
            Some("sample") => {
                samples += 1;
                assert!(rec.get("nodes").and_then(JsonValue::as_u64).is_some());
            }
            Some("event") => {
                assert!(rec.get("kind").and_then(JsonValue::as_str).is_some());
            }
            other => panic!("flight record with unknown type {other:?}: {line}"),
        }
    }
    assert!(
        samples > 0,
        "flight recorder retained no samples:\n{flight}"
    );

    // The final sample's node count reconciles with the miner's own
    // statistics (run_finished pushes one last sample).
    let last_sample = flight
        .lines()
        .filter_map(|l| JsonValue::parse(l).ok())
        .rfind(|r| r.get("record").and_then(JsonValue::as_str) == Some("sample"))
        .unwrap();
    assert_eq!(
        last_sample.get("nodes").and_then(JsonValue::as_u64),
        Some(outcome.stats.nodes_visited)
    );

    telemetry.shutdown();
}
