//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric untraced, every per-layer metric traced. A traced run also
//! writes its spans to `perfbench/out/`. Exits non-zero, after the
//! result line, when a correctness check fails.

use perfbench::report::result_line;
use perfbench::{run, Opts, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    opts: Opts,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".into());
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed: seed.ok_or("missing --seed")?,
            seconds,
            small: false,
        },
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = run(&args.workload, &args.opts, args.trace).expect("workload validated above");
    for (label, pass) in &run.passes {
        eprintln!(
            "perfbench {} {label}: {} ops, {} failed; {}",
            args.workload, pass.attempted, pass.failed, pass.phases
        );
        for m in &pass.mismatches {
            eprintln!("perfbench MISMATCH: {m}");
        }
    }
    if args.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-seed{}.jsonl", args.workload, args.opts.seed);
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, run.tracer.to_jsonl()))
        {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {path}",
                run.tracer.spans().len()
            ),
            Err(e) => eprintln!("perfbench: spans not written: {e}"),
        }
    }
    println!(
        "{}",
        result_line(run.failed == 0, run.attempted, run.failed, &run.metrics)
    );
    if run.failed > 0 {
        std::process::exit(1);
    }
}
