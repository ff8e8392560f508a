//! End-to-end tests of the `pfcim` command-line binary.

mod common;

use std::io::Write;
use std::process::Command;

use common::TempPath;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pfcim"))
}

fn write_running_example() -> TempPath {
    let path = TempPath::new("running_example", "dat");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "1 2 3 4 : 0.9").unwrap();
    writeln!(f, "1 2 3 : 0.6").unwrap();
    writeln!(f, "1 2 3 : 0.7").unwrap();
    writeln!(f, "1 2 3 4 : 0.9").unwrap();
    path
}

#[test]
fn mines_the_running_example() {
    let path = write_running_example();
    let out = bin()
        .args([path.arg(), "--min-sup", "2", "--pfct", "0.8"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].starts_with("1 2 3 :"), "{stdout}");
    assert!(lines[1].starts_with("1 2 3 4 :"), "{stdout}");
}

#[test]
fn percentage_min_sup_and_variants_agree() {
    let path = write_running_example();
    let mut outputs = Vec::new();
    for variant in ["mpfci", "bfs", "naive"] {
        let out = bin()
            .args([
                path.arg(),
                "--min-sup",
                "50%",
                "--variant",
                variant,
                "--epsilon",
                "0.05",
                "--delta",
                "0.05",
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{variant}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let itemsets: Vec<String> = stdout
            .lines()
            .map(|l| l.split(':').next().unwrap().trim().to_owned())
            .collect();
        outputs.push(itemsets);
    }
    assert_eq!(outputs[0], outputs[1], "bfs disagrees with mpfci");
    assert_eq!(outputs[0], outputs[2], "naive disagrees with mpfci");
}

#[test]
fn stats_flag_reports_counters() {
    let path = write_running_example();
    let out = bin()
        .args([path.arg(), "--min-sup", "2", "--stats"])
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("nodes="), "{stderr}");
}

#[test]
fn metrics_flag_writes_registry_snapshot() {
    let path = write_running_example();
    let metrics = TempPath::new("metrics", "json");
    let out = bin()
        .args([
            path.arg(),
            "--min-sup",
            "2",
            "--stats",
            "--metrics",
            metrics.arg(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    // --stats now includes the histogram summaries...
    assert!(stderr.contains("metrics written to"), "{stderr}");
    assert!(stderr.contains("# node_depth:"), "{stderr}");
    // ...and --metrics wrote the full registry snapshot as JSON.
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.starts_with("{\"counters\":{"), "{json}");
    assert!(json.contains("\"nodes_visited\":"), "{json}");
    assert!(json.contains("\"node_depth\":{\"count\":"), "{json}");
    // Gauges are sorted alphabetically, so the cache-capacity gauge
    // added alongside the hit rate now leads the object.
    assert!(json.contains("\"elapsed_s\":"), "{json}");
    assert!(json.contains("\"event_cache_capacity\":"), "{json}");
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = bin().output().unwrap(); // no args
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args(["/nonexistent.dat", "--min-sup", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let path = write_running_example();
    let out = bin()
        .args([path.arg(), "--min-sup", "150%"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args([path.arg(), "--min-sup", "2", "--variant", "quantum"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
