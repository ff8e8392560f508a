//! The benchmark's self-test: every workload at reduced size on two
//! seeds, untraced and traced. Every metric must be emitted with its
//! unit, every correctness gate must pass, and `BENCHMARK.json` must
//! name exactly the workloads and metrics the benchmark emits.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use perfbench::report::{per_layer_metrics, END_TO_END};
use perfbench::{run, Opts, WORKLOADS};

fn expected(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_gates() {
    for workload in WORKLOADS {
        for seed in [1, 2] {
            let opts = Opts {
                seed,
                seconds: 0.4,
                small: true,
            };
            for trace in [false, true] {
                let run = run(workload, &opts, trace).expect("known workload");
                let mismatches: Vec<&String> =
                    run.passes.iter().flat_map(|(_, p)| &p.mismatches).collect();
                assert_eq!(
                    run.failed, 0,
                    "{workload} seed {seed} trace {trace}: {mismatches:?}"
                );
                assert!(run.attempted > 0, "{workload}: nothing attempted");
                let emitted: Vec<(String, &str)> = run
                    .metrics
                    .iter()
                    .map(|(n, _, u)| (n.clone(), *u))
                    .collect();
                assert_eq!(emitted, expected(trace), "{workload} trace {trace}");
                for (name, value, _) in &run.metrics {
                    assert!(value.is_finite(), "{workload}: {name} = {value}");
                    if !trace {
                        assert!(*value > 0.0, "{workload}: end-to-end {name} reads {value}");
                    }
                }
                assert_eq!(
                    trace,
                    !run.tracer.spans().is_empty(),
                    "{workload}: spans iff traced"
                );
            }
        }
    }
}

#[test]
fn benchmark_json_names_exactly_what_is_emitted() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut names = 0;
    for workload in WORKLOADS {
        assert!(
            text.contains(&format!("\"name\": \"{workload}\"")),
            "{workload} missing"
        );
        names += 1;
    }
    for trace in [false, true] {
        for (name, unit) in expected(trace) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry} missing");
            names += 1;
        }
    }
    assert_eq!(
        text.matches("\"name\":").count(),
        names,
        "BENCHMARK.json names something not emitted"
    );
}
