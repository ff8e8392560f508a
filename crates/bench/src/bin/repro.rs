//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [EXPERIMENTS...] [--scale tiny|laptop|paper] [--budget SECONDS]
//!       [--out DIR] [--threads N] [--trace FILE.jsonl]
//!       [--progress] [--metrics FILE.json]
//!
//! EXPERIMENTS: all (default), fig5, fig6, fig7, fig8, fig9, fig10,
//!              fig11, fig12, table7, table8
//! ```
//!
//! `--threads` and `--telemetry` are the shared flags of
//! [`pfcim_core::args`] and parse identically in `pfcim` and `repro`;
//! the environment fallback `PFCIM_THREADS` is documented there. The
//! experiment drivers build their configs internally, so `--threads` is
//! forwarded through that variable; without an explicit `--threads` (or a pre-set
//! `PFCIM_THREADS`), `repro` pins the sequential miner for run-to-run
//! reproducibility. `--telemetry ADDR` serves live `/metrics`,
//! `/healthz` and `/flight` for the whole regeneration, fed by every
//! mediated run.
//!
//! Results are printed as aligned tables and archived as CSV under the
//! output directory (default `results/`). `--trace` streams every mining
//! event of every run to a JSONL file and, on exit, parses the file back
//! and reconciles its per-event aggregates against the live
//! [`MinerStats`](pfcim_core::MinerStats) totals printed at the end.
//! `--progress` prints a throttled heartbeat to stderr while mining.
//! `--metrics` accumulates every mediated run into one
//! [`HistogramSink`](pfcim_core::HistogramSink) and writes the registry
//! snapshot as a JSON object on exit.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pfcim_bench::experiments::{self, DEFAULT_CELL_BUDGET};
use pfcim_bench::report::Table;
use pfcim_bench::{Observe, Scale};

struct Args {
    experiments: Vec<String>,
    scale: Scale,
    budget: Duration,
    out: PathBuf,
    trace: Option<PathBuf>,
    progress: bool,
    metrics: Option<PathBuf>,
    common: pfcim_core::CommonArgs,
}

const ALL_EXPERIMENTS: [&str; 10] = [
    "table7", "table8", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
];

fn parse_args() -> Result<Args, String> {
    let mut experiments = Vec::new();
    let mut scale = Scale::Laptop;
    let mut budget = DEFAULT_CELL_BUDGET;
    let mut out = PathBuf::from("results");
    let mut trace = None;
    let mut progress = false;
    let mut metrics = None;
    let mut common = pfcim_core::CommonArgs::default();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        // --threads / --telemetry parse identically
        // in pfcim and repro (pfcim_core::args).
        if common.accept(&arg, || argv.next())? {
            continue;
        }
        match arg.as_str() {
            "--scale" => {
                let v = argv.next().ok_or("--scale needs a value")?;
                scale = Scale::parse(&v).ok_or(format!("unknown scale {v:?}"))?;
            }
            "--budget" => {
                let v = argv.next().ok_or("--budget needs a value")?;
                let s: u64 = v.parse().map_err(|_| format!("bad budget {v:?}"))?;
                budget = Duration::from_secs(s);
            }
            "--out" => {
                out = PathBuf::from(argv.next().ok_or("--out needs a value")?);
            }
            "--trace" => {
                trace = Some(PathBuf::from(argv.next().ok_or("--trace needs a value")?));
            }
            "--progress" => progress = true,
            "--metrics" => {
                metrics = Some(PathBuf::from(argv.next().ok_or("--metrics needs a value")?));
            }
            "--help" | "-h" => return Err(String::new()),
            "all" => experiments.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            name if ALL_EXPERIMENTS.contains(&name) => experiments.push(name.to_owned()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if experiments.is_empty() {
        experiments.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string()));
    }
    // The experiment drivers construct their MinerConfigs internally
    // with the auto default, so the shared flags travel through the
    // documented environment overrides (see pfcim_core::args). Without
    // an explicit --threads (or a pre-set PFCIM_THREADS), pin the
    // sequential miner so the regenerated tables stay run-to-run
    // reproducible.
    common.export_env();
    if common.threads.is_none() && std::env::var_os("PFCIM_THREADS").is_none() {
        std::env::set_var("PFCIM_THREADS", "1");
    }
    Ok(Args {
        experiments,
        scale,
        budget,
        out,
        trace,
        progress,
        metrics,
        common,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!(
                "usage: repro [EXPERIMENTS...] [--scale tiny|laptop|paper] \
                 [--budget SECONDS] [--out DIR] {} \
                 [--trace FILE.jsonl] [--progress] [--metrics FILE.json]\n\
                 EXPERIMENTS: all {}",
                pfcim_core::CommonArgs::USAGE,
                ALL_EXPERIMENTS.join(" ")
            );
            return ExitCode::from(2);
        }
    };

    let mut obs = Observe::none();
    if let Some(path) = &args.trace {
        obs = match obs.with_trace(path) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: cannot open trace file {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
    }
    if args.progress {
        obs = obs.with_progress();
    }
    if let Some(path) = &args.metrics {
        obs = obs.with_metrics(path);
    }
    // --telemetry: the session (sampler + scrape endpoint) lives for the
    // whole regeneration; every mediated run feeds its sink.
    let telemetry = match args.common.start_telemetry() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = &telemetry {
        obs = obs.with_telemetry(t.sink());
    }

    println!(
        "# pfcim repro — scale={:?}, per-cell budget={}s, out={}",
        args.scale,
        args.budget.as_secs(),
        args.out.display()
    );

    for name in &args.experiments {
        let start = Instant::now();
        let tables: Vec<Table> = match name.as_str() {
            "table7" => vec![experiments::table7()],
            "table8" => vec![experiments::table8(args.scale)],
            "fig5" => experiments::fig5(args.scale, args.budget, &mut obs),
            "fig6" => experiments::fig6(args.scale, args.budget, &mut obs),
            "fig7" => experiments::fig7(args.scale, args.budget, &mut obs),
            "fig8" => experiments::fig8(args.scale, args.budget, &mut obs),
            "fig9" => experiments::fig9(args.scale, args.budget, &mut obs),
            "fig10" => experiments::fig10(args.scale, args.budget, &mut obs),
            "fig11" => experiments::fig11(args.scale, args.budget, &mut obs),
            "fig12" => experiments::fig12(args.scale, args.budget, &mut obs),
            _ => unreachable!("validated in parse_args"),
        };
        for (i, table) in tables.iter().enumerate() {
            println!("\n{}", table.to_text());
            let slug = if tables.len() == 1 {
                name.clone()
            } else {
                format!("{name}_{}", (b'a' + i as u8) as char)
            };
            if let Err(e) = table.write_csv(&args.out, &slug) {
                eprintln!("warning: could not write {slug}.csv: {e}");
            }
        }
        println!("[{name} finished in {:.1}s]", start.elapsed().as_secs_f64());
    }

    if obs.runs > 0 {
        println!(
            "\n# aggregate over {} mining runs: {}",
            obs.runs, obs.ledger.stats
        );
        if !obs.ledger.timers.is_empty() {
            println!("# phases: {}", obs.ledger.timers);
        }
    }
    match obs.finish() {
        Ok(Some(summary)) => println!("# {summary}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
