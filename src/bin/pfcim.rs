//! `pfcim` — command-line miner for uncertain transaction data.
//!
//! ```text
//! pfcim <FILE.dat> --min-sup <N|R%> [--pfct P] [--epsilon E] [--delta D]
//!       [--variant mpfci|bfs|naive] [--threads N] [--event-cache N] [--stats]
//!       [--trace FILE.jsonl] [--metrics FILE.json] [--prom FILE.prom]
//!       [--telemetry ADDR] [--flight-dump FILE.jsonl]
//! pfcim profile <FILE.dat> --min-sup <N|R%> [--out trace.json] [--sample N]
//!       [...same mining options...]
//! pfcim top <ADDR> [--interval MS] [--iterations N]
//! pfcim serve <ADDR> <FILE.dat>... [--max-concurrent N] [--deadline-ms N]
//!       [--cache-capacity N]
//! pfcim query <ADDR> --snapshot NAME --min-sup N --pfct P [--pfct P...]
//!       [--epsilon E] [--delta D] [--algorithm dfs|bfs|naive]
//!       [--fcp-method auto|exact|approx|adaptive] [--threads N] [--seed N]
//!       [--deadline-ms N] [--concurrent] [--json]
//! pfcim stream <FILE.jsonl|-> --window N --min-sup N [--pfct P]
//!       [--threads N] [--deltas] [--dump-final FILE.dat] [--stats]
//! ```
//!
//! `stream` replays a transaction stream (one JSON object per line, e.g.
//! `{"items": [1, 2, 3], "p": 0.9}`; `-` reads stdin) through a
//! sliding-window [`StreamMiner`]: each line is inserted, the window is
//! trimmed to `--window` transactions, and the maintained PFCI set is
//! repaired incrementally. `--deltas` prints each `Added`/`Removed`/
//! `Updated` pattern delta to stderr as it is emitted (`+`/`-`/`~`
//! lines); the *final* window's pattern set goes to stdout in exactly
//! the batch output format, and `--dump-final` writes the final window
//! contents as a `.dat` file — so `pfcim stream … --dump-final w.dat`
//! followed by `pfcim w.dat --min-sup N --pfct P` must byte-diff clean
//! (FCP evaluation is pinned to exact mode for this determinism; the CI
//! stream smoke asserts it).
//!
//! `serve` loads each `FILE.dat` as an immutable snapshot (named after
//! the file stem) and answers concurrent queries over the length-prefixed
//! JSONL protocol of [`pfcim::core::serve`]; the same listener serves the
//! telemetry HTTP routes (`/metrics`, `/healthz`, `/flight`). Port 0
//! picks a free port; the bound address is printed to stderr as
//! `pfcim serve listening on …`. `query` sends one request per `--pfct`
//! (over one connection in order, or one connection per threshold with
//! `--concurrent`) and prints each result set in exactly the batch-mode
//! output format, so service answers can be diffed against `pfcim
//! FILE.dat` runs; `--json` prints the raw response objects instead.
//! Exit code 3 means a query hit its deadline.
//!
//! `--threads N` fans the DFS miner and `ApproxFCP` sampling out over an
//! in-process work-stealing pool. `N = 0` — the default — picks the
//! machine's available parallelism (overridable via the `PFCIM_THREADS`
//! environment variable); `N = 1` is the sequential miner. Exact-mode
//! output is identical for every thread count. `--event-cache N` sets the
//! evaluator's bound-input cache capacity (default 32, overridable via
//! `PFCIM_EVENT_CACHE`; 0 disables memoization).
//!
//! `--metrics` records the run through a [`HistogramSink`] and writes
//! the resulting registry snapshot (counters mirroring the miner stats,
//! plus latency/size histogram summaries) as one JSON object. `--stats`
//! prints the same distributions to stderr alongside the counters.
//! `--prom` writes the same snapshot in the Prometheus text exposition
//! format (counters, gauges and `summary` quantiles, all prefixed
//! `pfcim_`), self-checked through [`lint_prometheus`] before writing.
//!
//! `--telemetry ADDR` attaches a live telemetry session: a background
//! sampler snapshots the run every 100 ms into a lock-free flight
//! recorder, and a std-only HTTP thread on `ADDR` (port 0 picks a free
//! port; the bound address is printed to stderr as
//! `telemetry listening on http://…`) serves `GET /metrics` (linted
//! Prometheus text), `GET /healthz` (status, ETA, last-progress
//! watchdog) and `GET /flight` (the recorder as JSONL) *while the run is
//! alive*. A panic hook dumps the recorder to `--flight-dump` (default
//! `flight.jsonl`) so a dying run leaves a post-mortem; successful runs
//! write the same file on exit. `pfcim top ADDR` renders a refreshing
//! terminal dashboard from any such endpoint.
//!
//! The `profile` subcommand attaches a [`SpanProfiler`] and writes a
//! Chrome trace-event JSON (load it at <https://ui.perfetto.dev>) with
//! one track per miner worker: DFS node spans, per-phase spans beneath
//! them, and the work-stealing pool's task/steal/idle spans. `--sample N`
//! records every Nth node span (default 1 = all); the per-reason DP
//! decision audit is printed to stderr after the run.
//!
//! The input format is one transaction per line: whitespace-separated
//! integer item ids, optionally followed by `: probability` (lines
//! without one are certain transactions). Example:
//!
//! ```text
//! 1 2 3 : 0.9
//! 2 3 : 0.45
//! 1 2 3
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pfcim::core::{
    http_get, lint_prometheus, Algorithm, Client, CommonArgs, HistogramSink, JsonlSink, Miner,
    MinerConfig, MinerSink, SearchStrategy, ServeConfig, Server, ShardableSink, Snapshot,
    SpanProfiler, Tee,
};
use pfcim::utdb::io;

struct Args {
    file: PathBuf,
    min_sup_raw: String,
    pfct: f64,
    epsilon: f64,
    delta: f64,
    variant: String,
    common: CommonArgs,
    stats: bool,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    prom: Option<PathBuf>,
    flight_dump: Option<PathBuf>,
    profile: bool,
    out: PathBuf,
    sample: u32,
}

fn parse_args() -> Result<Args, String> {
    let mut file = None;
    let mut min_sup_raw = None;
    let mut pfct = 0.8;
    let mut epsilon = 0.1;
    let mut delta = 0.1;
    let mut variant = "mpfci".to_owned();
    let mut common = CommonArgs::default();
    let mut stats = false;
    let mut trace = None;
    let mut metrics = None;
    let mut prom = None;
    let mut flight_dump = None;
    let mut profile = false;
    let mut out = PathBuf::from("trace.json");
    let mut sample = 1u32;
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("profile") {
        profile = true;
        argv.next();
    }
    while let Some(arg) = argv.next() {
        // --threads / --event-cache / --telemetry parse identically
        // in pfcim and repro (pfcim_core::args).
        if common.accept(&arg, || argv.next())? {
            continue;
        }
        let mut value = |name: &str| -> Result<String, String> {
            argv.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--min-sup" => min_sup_raw = Some(value("--min-sup")?),
            "--pfct" => pfct = value("--pfct")?.parse().map_err(|e| format!("pfct: {e}"))?,
            "--epsilon" => {
                epsilon = value("--epsilon")?
                    .parse()
                    .map_err(|e| format!("epsilon: {e}"))?
            }
            "--delta" => {
                delta = value("--delta")?
                    .parse()
                    .map_err(|e| format!("delta: {e}"))?
            }
            "--variant" => variant = value("--variant")?,
            "--stats" => stats = true,
            "--trace" => trace = Some(PathBuf::from(value("--trace")?)),
            "--metrics" => metrics = Some(PathBuf::from(value("--metrics")?)),
            "--prom" => prom = Some(PathBuf::from(value("--prom")?)),
            "--flight-dump" => flight_dump = Some(PathBuf::from(value("--flight-dump")?)),
            "--out" if profile => out = PathBuf::from(value("--out")?),
            "--sample" if profile => {
                sample = value("--sample")?
                    .parse()
                    .map_err(|e| format!("sample: {e}"))?;
                if sample == 0 {
                    return Err("--sample must be at least 1".into());
                }
            }
            "--help" | "-h" => return Err(String::new()),
            other if file.is_none() && !other.starts_with('-') => file = Some(PathBuf::from(other)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        file: file.ok_or("missing input file")?,
        min_sup_raw: min_sup_raw.ok_or("missing --min-sup")?,
        pfct,
        epsilon,
        delta,
        variant,
        common,
        stats,
        trace,
        metrics,
        prom,
        flight_dump,
        profile,
        out,
        sample,
    })
}

// --- test-injection sinks ---------------------------------------------
//
// The CI telemetry smoke needs two things a healthy miner never does on
// purpose: run slowly enough to be scraped mid-flight, and die with a
// panic so the flight-recorder dump can be verified. Both are injected
// through environment variables so no public flag grows test semantics:
// `PFCIM_TELEMETRY_TEST_SLOW_NODE_US` sleeps that many microseconds per
// enumeration node; `PFCIM_INJECT_PANIC=N` panics at the Nth node.

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

#[derive(Clone)]
struct PanicAfter {
    limit: u64,
    seen: Arc<AtomicU64>,
}

impl MinerSink for PanicAfter {
    fn node_entered(&mut self, _depth: usize) {
        if self.seen.fetch_add(1, Ordering::Relaxed) + 1 == self.limit {
            panic!("injected panic at node {} (PFCIM_INJECT_PANIC)", self.limit);
        }
    }
}

impl ShardableSink for PanicAfter {
    type Shard = PanicAfter;
    fn make_shard(&self) -> PanicAfter {
        // Clones share the counter, so the Nth node panics regardless of
        // which worker reaches it.
        self.clone()
    }
    fn absorb_shard(&mut self, _shard: PanicAfter) {}
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("top") => return run_top(),
        Some("serve") => return run_serve(),
        Some("query") => return run_query(),
        Some("stream") => return run_stream(),
        _ => {}
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!(
                "usage: pfcim <FILE.dat> --min-sup <N|R%> [--pfct P] \
                 [--epsilon E] [--delta D] [--variant mpfci|bfs|naive] {} \
                 [--stats] [--trace FILE.jsonl] [--metrics FILE.json] \
                 [--prom FILE.prom] [--flight-dump FILE.jsonl]\n\
                 \x20      pfcim profile <FILE.dat> --min-sup <N|R%> [--out trace.json] \
                 [--sample N] [...same mining options...]\n\
                 \x20      pfcim top <ADDR> [--interval MS] [--iterations N]\n\
                 \x20      pfcim serve <ADDR> <FILE.dat>... [--max-concurrent N] \
                 [--deadline-ms N] [--cache-capacity N]\n\
                 \x20      pfcim query <ADDR> --snapshot NAME --min-sup N --pfct P \
                 [--pfct P...] [--deadline-ms N] [--concurrent] [--json]\n\
                 \x20      pfcim stream <FILE.jsonl|-> --window N --min-sup N [--pfct P] \
                 [--threads N] [--deltas] [--dump-final FILE.dat] [--stats]",
                CommonArgs::USAGE
            );
            return ExitCode::from(2);
        }
    };

    let db = match io::read_dat(&args.file) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("error reading {}: {e}", args.file.display());
            return ExitCode::FAILURE;
        }
    };
    eprintln!("loaded {}: {}", args.file.display(), db.stats());

    // --min-sup accepts an absolute count or a percentage like "30%".
    let min_sup = if let Some(pct) = args.min_sup_raw.strip_suffix('%') {
        match pct.parse::<f64>() {
            Ok(r) if r > 0.0 && r <= 100.0 => {
                ((r / 100.0 * db.len() as f64).round() as usize).max(1)
            }
            _ => {
                eprintln!("error: bad percentage {:?}", args.min_sup_raw);
                return ExitCode::from(2);
            }
        }
    } else {
        match args.min_sup_raw.parse() {
            Ok(n) => n,
            Err(e) => {
                eprintln!("error: bad --min-sup: {e}");
                return ExitCode::from(2);
            }
        }
    };

    // Unset shared flags keep the config defaults (auto threads, default
    // cache capacity — both overridable via PFCIM_THREADS /
    // PFCIM_EVENT_CACHE; see pfcim_core::args).
    let config = args
        .common
        .apply(MinerConfig::new(min_sup, args.pfct).with_approximation(args.epsilon, args.delta));
    let mut config = config;
    match args.variant.as_str() {
        "mpfci" => {}
        "bfs" => {
            config.search = SearchStrategy::Bfs;
            config.pruning.superset = false;
            config.pruning.subset = false;
        }
        "naive" => {}
        other => {
            eprintln!("error: unknown variant {other:?}");
            return ExitCode::from(2);
        }
    }

    let mut trace_sink = match &args.trace {
        Some(path) => match JsonlSink::create(path) {
            Ok(sink) => Some((path, sink)),
            Err(e) => {
                eprintln!("error: cannot open trace file {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // --metrics, --stats and --prom all record the run's cost
    // distributions; `profile` attaches the hierarchical span recorder.
    let mut hist =
        (args.stats || args.metrics.is_some() || args.prom.is_some()).then(HistogramSink::new);
    let mut profiler = args
        .profile
        .then(|| SpanProfiler::new().with_sampling(args.sample));

    // --telemetry: sampler + flight recorder + scrape endpoint + panic
    // dump, all alive for the duration of the run.
    let flight_path = args
        .flight_dump
        .clone()
        .unwrap_or_else(|| PathBuf::from("flight.jsonl"));
    let telemetry = match args.common.start_telemetry() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = &telemetry {
        t.install_panic_dump(&flight_path);
    }
    let mut tel_sink = telemetry.as_ref().map(|t| t.sink());

    let mut slow =
        env_u64("PFCIM_TELEMETRY_TEST_SLOW_NODE_US").map(|us| SlowNode(Duration::from_micros(us)));
    let mut inject_panic = env_u64("PFCIM_INJECT_PANIC")
        .filter(|&n| n > 0)
        .map(|n| PanicAfter {
            limit: n,
            seen: Arc::new(AtomicU64::new(0)),
        });

    let outcome = {
        let mut sink = Tee(
            tel_sink.as_mut(),
            Tee(
                profiler.as_mut(),
                Tee(
                    trace_sink.as_mut().map(|(_, s)| s),
                    Tee(hist.as_mut(), Tee(slow.as_mut(), inject_panic.as_mut())),
                ),
            ),
        );
        let algorithm = match args.variant.as_str() {
            "naive" => Algorithm::Naive,
            "bfs" => Algorithm::Bfs,
            _ => Algorithm::Dfs,
        };
        Miner::new(&db)
            .config(config.clone())
            .algorithm(algorithm)
            .sink(&mut sink)
            .run()
    };
    if let Some(telemetry) = &telemetry {
        // The same dump a panic would have produced, minus the dying.
        if let Err(e) = std::fs::write(&flight_path, telemetry.flight_jsonl()) {
            eprintln!(
                "error: cannot write flight recorder {}: {e}",
                flight_path.display()
            );
            return ExitCode::FAILURE;
        }
        eprintln!("flight recorder written to {}", flight_path.display());
    }
    if let Some((path, sink)) = trace_sink {
        // A write failure anywhere mid-run is latched in the sink and
        // surfaces on finish; report how much trace survived and fail.
        let written = sink.lines_written();
        match sink.finish() {
            Ok(_) => eprintln!("trace written to {} ({written} events)", path.display()),
            Err(e) => {
                eprintln!(
                    "error: trace {} failed after {written} events: {e}",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(hist) = &hist {
        if let Some(path) = &args.metrics {
            let json = hist.snapshot().to_json();
            if let Err(e) = std::fs::write(path, json + "\n") {
                eprintln!("error: cannot write metrics {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("metrics written to {}", path.display());
        }
        if let Some(path) = &args.prom {
            let text = hist.snapshot().to_prometheus("pfcim");
            if let Err(e) = lint_prometheus(&text) {
                eprintln!("error: generated Prometheus output fails its own linter: {e}");
                return ExitCode::FAILURE;
            }
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("prometheus metrics written to {}", path.display());
        }
    }
    if let Some(profiler) = &profiler {
        if let Err(e) = std::fs::write(&args.out, profiler.chrome_trace_json()) {
            eprintln!("error: cannot write trace {}: {e}", args.out.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "chrome trace written to {} ({} spans, sample 1/{}; load at https://ui.perfetto.dev)",
            args.out.display(),
            profiler.spans().len(),
            args.sample,
        );
        // The decision audit: one recorded reason per frequentness-DP
        // row — downdates taken, and why each refused row was rebuilt.
        eprintln!("# dp audit: {}", outcome.audit);
    }

    for pfci in &outcome.results {
        let ids: Vec<String> = pfci.items.iter().map(|i| i.0.to_string()).collect();
        println!("{} : {:.6}", ids.join(" "), pfci.fcp);
    }
    eprintln!(
        "{} probabilistic frequent closed itemsets (min_sup={min_sup}, pfct={}) in {:?}",
        outcome.results.len(),
        args.pfct,
        outcome.elapsed
    );
    if args.stats {
        eprintln!("{}", outcome.timed_stats());
        eprintln!("# kernel: {}", outcome.kernel);
        // The raw hit/miss counters above are hard to eyeball; print the
        // derived rate and the capacity that produced it.
        let (hits, misses) = (
            outcome.kernel.bound_cache_hits,
            outcome.kernel.bound_cache_misses,
        );
        let lookups = hits + misses;
        let rate = if lookups == 0 {
            "-".to_owned()
        } else {
            format!("{:.1}%", 100.0 * hits as f64 / lookups as f64)
        };
        eprintln!(
            "# bound_cache: hit rate {rate} ({hits}/{lookups} lookups), \
             event_cache_capacity={}",
            config.event_cache_capacity
        );
        eprintln!("# dp audit: {}", outcome.audit);
        if let Some(hist) = &hist {
            for (name, h) in hist.snapshot().histograms() {
                eprintln!("# {name}: {}", h.summary());
            }
        }
    }
    ExitCode::SUCCESS
}

// --- pfcim serve ------------------------------------------------------

fn run_serve() -> ExitCode {
    let mut addr = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut cfg = ServeConfig::default();
    let mut cache_capacity = None;
    let mut argv = std::env::args().skip(2);
    let usage = "usage: pfcim serve <ADDR> <FILE.dat>... [--max-concurrent N] \
                 [--deadline-ms N] [--cache-capacity N]";
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--max-concurrent" => match argv.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.max_concurrent = n,
                None => {
                    eprintln!("error: --max-concurrent needs a count");
                    return ExitCode::from(2);
                }
            },
            "--deadline-ms" => match argv.next().and_then(|v| v.parse().ok()) {
                Some(ms) => cfg.default_deadline = Some(Duration::from_millis(ms)),
                None => {
                    eprintln!("error: --deadline-ms needs a millisecond value");
                    return ExitCode::from(2);
                }
            },
            "--cache-capacity" => match argv.next().and_then(|v| v.parse().ok()) {
                Some(n) => cache_capacity = Some(n),
                None => {
                    eprintln!("error: --cache-capacity needs a count");
                    return ExitCode::from(2);
                }
            },
            other if addr.is_none() && !other.starts_with('-') => addr = Some(other.to_owned()),
            other if !other.starts_with('-') => files.push(PathBuf::from(other)),
            other => {
                eprintln!("error: unknown argument {other:?}\n{usage}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    if files.is_empty() {
        eprintln!("error: no snapshot files given\n{usage}");
        return ExitCode::from(2);
    }
    let mut snapshots = Vec::new();
    for file in &files {
        let db = match io::read_dat(file) {
            Ok(db) => db,
            Err(e) => {
                eprintln!("error reading {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        };
        let name = file
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| file.display().to_string());
        if snapshots.iter().any(|s: &Snapshot| s.name() == name) {
            eprintln!("error: duplicate snapshot name {name:?} (file stems must be unique)");
            return ExitCode::from(2);
        }
        eprintln!("snapshot {name}: {}", db.stats());
        snapshots.push(match cache_capacity {
            Some(n) => Snapshot::with_cache_capacity(name, db, n),
            None => Snapshot::new(name, db),
        });
    }
    let mut server = match Server::bind(&addr, snapshots, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("pfcim serve listening on {}", server.local_addr());
    server.wait();
    ExitCode::SUCCESS
}

// --- pfcim stream -----------------------------------------------------

/// Parse one JSONL stream line: `{"items": [1, 2, 3], "p": 0.9}` (`p`
/// optional, default 1.0). Blank lines and `#` comments yield `None`.
fn parse_stream_line(line: &str) -> Result<Option<(Vec<u32>, f64)>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("expected a JSON object")?;
    let items_at = inner.find("\"items\"").ok_or("missing \"items\"")?;
    let after = &inner[items_at..];
    let open = after.find('[').ok_or("\"items\" is not an array")?;
    let close = after.find(']').ok_or("unterminated \"items\" array")?;
    if close < open {
        return Err("unterminated \"items\" array".into());
    }
    let mut items = Vec::new();
    for token in after[open + 1..close].split(',') {
        let token = token.trim();
        if token.is_empty() {
            continue;
        }
        items.push(
            token
                .parse::<u32>()
                .map_err(|_| format!("invalid item id {token:?}"))?,
        );
    }
    if items.is_empty() {
        return Err("empty itemset".into());
    }
    items.sort_unstable();
    items.dedup();
    // "p" can only occur as a key outside the items array (the array body
    // is digits and commas), so a plain find after the quote is safe.
    let p = match inner.find("\"p\"") {
        Some(at) => {
            let rest = &inner[at + 3..];
            let colon = rest.find(':').ok_or("\"p\" without a value")?;
            let value = rest[colon + 1..].trim_start();
            let end = value
                .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
                .unwrap_or(value.len());
            value[..end]
                .parse::<f64>()
                .map_err(|_| format!("invalid probability {:?}", &value[..end]))?
        }
        None => 1.0,
    };
    if !(p > 0.0 && p <= 1.0) {
        return Err(format!("probability {p} outside (0, 1]"));
    }
    Ok(Some((items, p)))
}

fn run_stream() -> ExitCode {
    use pfcim::core::{FcpMethod, NullSink, PatternDelta, StreamConfig, StreamMiner};
    use pfcim::utdb::{Item, ItemDictionary, UncertainTransaction};

    let usage = "usage: pfcim stream <FILE.jsonl|-> --window N --min-sup N [--pfct P] \
                 [--threads N] [--deltas] [--dump-final FILE.dat] [--stats]";
    let mut source: Option<String> = None;
    let mut window = None;
    let mut min_sup = None;
    let mut pfct = 0.8f64;
    let mut threads = 1usize;
    let mut deltas = false;
    let mut dump_final: Option<PathBuf> = None;
    let mut stats = false;
    let mut argv = std::env::args().skip(2);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| -> Result<String, String> {
            argv.next().ok_or(format!("{name} needs a value"))
        };
        let result: Result<(), String> = (|| {
            match arg.as_str() {
                "--window" => {
                    window = Some(
                        value("--window")?
                            .parse::<usize>()
                            .map_err(|e| format!("window: {e}"))?,
                    )
                }
                "--min-sup" => {
                    min_sup = Some(
                        value("--min-sup")?
                            .parse::<usize>()
                            .map_err(|e| format!("min-sup: {e}"))?,
                    )
                }
                "--pfct" => pfct = value("--pfct")?.parse().map_err(|e| format!("pfct: {e}"))?,
                "--threads" => {
                    threads = value("--threads")?
                        .parse()
                        .map_err(|e| format!("threads: {e}"))?
                }
                "--deltas" => deltas = true,
                "--dump-final" => dump_final = Some(PathBuf::from(value("--dump-final")?)),
                "--stats" => stats = true,
                other if source.is_none() && (other == "-" || !other.starts_with('-')) => {
                    source = Some(other.to_owned())
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
            Ok(())
        })();
        if let Err(msg) = result {
            eprintln!("error: {msg}\n{usage}");
            return ExitCode::from(2);
        }
    }
    let (Some(source), Some(window), Some(min_sup)) = (source, window, min_sup) else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    if window == 0 || min_sup == 0 {
        eprintln!("error: --window and --min-sup must be at least 1");
        return ExitCode::from(2);
    }
    if !(pfct > 0.0 && pfct < 1.0) {
        eprintln!("error: --pfct must lie in (0, 1)");
        return ExitCode::from(2);
    }

    let mut reader: Box<dyn std::io::BufRead> = if source == "-" {
        Box::new(std::io::BufReader::new(std::io::stdin()))
    } else {
        match std::fs::File::open(&source) {
            Ok(f) => Box::new(std::io::BufReader::new(f)),
            Err(e) => {
                eprintln!("error reading {source}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    // Exact FCP evaluation keeps the maintained set bit-identical to a
    // batch re-mine of the final window — the property the CI smoke
    // byte-diffs (sampled FCP consumes RNG in node-visit order, which a
    // focused run changes).
    let config = StreamConfig::new(
        window,
        MinerConfig::new(min_sup, pfct)
            .with_fcp_method(FcpMethod::ExactOnly)
            .with_threads(threads),
    );
    let mut sm = StreamMiner::new(ItemDictionary::new(), config);
    // Raw integer ids are interned densely in numeric order, so interned
    // ids coincide with stream ids and `--dump-final` output feeds the
    // batch miner unchanged.
    let mut next_item = 0u32;
    let start = std::time::Instant::now();
    let mut line = String::new();
    let mut line_no = 0usize;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("error reading {source}: {e}");
                return ExitCode::FAILURE;
            }
        }
        line_no += 1;
        let (items, p) = match parse_stream_line(&line) {
            Ok(Some(tx)) => tx,
            Ok(None) => continue,
            Err(msg) => {
                eprintln!("error: line {line_no}: {msg}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(&max) = items.last() {
            while next_item <= max {
                sm.dictionary_mut().intern(&next_item.to_string());
                next_item += 1;
            }
        }
        let tx = UncertainTransaction::new(items.into_iter().map(Item).collect(), p);
        let step = sm.advance(tx, &mut NullSink);
        if deltas {
            for delta in &step.deltas {
                let (tag, pfci) = match delta {
                    PatternDelta::Added(p) => ('+', p),
                    PatternDelta::Removed(p) => ('-', p),
                    PatternDelta::Updated { new, .. } => ('~', new),
                };
                let ids: Vec<String> = pfci.items.iter().map(|i| i.0.to_string()).collect();
                eprintln!("{tag} {} : {:.6}", ids.join(" "), pfci.fcp);
            }
        }
    }
    let elapsed = start.elapsed();

    for pfci in sm.results() {
        let ids: Vec<String> = pfci.items.iter().map(|i| i.0.to_string()).collect();
        println!("{} : {:.6}", ids.join(" "), pfci.fcp);
    }
    if let Some(path) = &dump_final {
        let dense = sm.window().dense_db();
        if let Err(e) = io::write_dat(&dense, path) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "final window ({} transactions) written to {}",
            dense.len(),
            path.display()
        );
    }
    let s = *sm.stats();
    let rate = if elapsed.as_secs_f64() > 0.0 {
        s.steps as f64 / elapsed.as_secs_f64()
    } else {
        f64::INFINITY
    };
    eprintln!(
        "{} patterns live after {} steps ({} arrivals, {} expiries) in {:?} ({rate:.0} tx/s)",
        sm.results().len(),
        s.steps,
        s.arrivals,
        s.expiries,
        elapsed,
    );
    eprintln!(
        "deltas observed: {} added, {} removed, {} updated",
        s.deltas_added, s.deltas_removed, s.deltas_updated
    );
    if stats {
        eprintln!(
            "# rows: {} pushes, {} downdates, {} rebuilds ({} elements convolved)",
            s.row_pushes, s.row_downdates, s.row_rebuilds, s.row_rebuild_elements
        );
        eprintln!(
            "# roots: {} affected, {} mined, {} skipped by support, {} skipped by DP certificate; \
             {} patterns carried",
            s.roots_affected,
            s.roots_mined,
            s.roots_skipped_count,
            s.roots_skipped_certificate,
            s.patterns_carried
        );
        eprintln!("# dp audit: {}", sm.audit());
    }
    ExitCode::SUCCESS
}

// --- pfcim query ------------------------------------------------------

struct QueryArgs {
    addr: String,
    snapshot: String,
    min_sup: usize,
    pfcts: Vec<f64>,
    epsilon: Option<f64>,
    delta: Option<f64>,
    algorithm: Option<String>,
    fcp_method: Option<String>,
    threads: Option<usize>,
    seed: Option<u64>,
    deadline_ms: Option<u64>,
    concurrent: bool,
    json: bool,
}

fn parse_query_args() -> Result<QueryArgs, String> {
    let mut addr = None;
    let mut snapshot = None;
    let mut min_sup = None;
    let mut pfcts = Vec::new();
    let mut epsilon = None;
    let mut delta = None;
    let mut algorithm = None;
    let mut fcp_method = None;
    let mut threads = None;
    let mut seed = None;
    let mut deadline_ms = None;
    let mut concurrent = false;
    let mut json = false;
    let mut argv = std::env::args().skip(2);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| -> Result<String, String> {
            argv.next().ok_or(format!("{name} needs a value"))
        };
        let parse = |name: &str, v: String| -> Result<f64, String> {
            v.parse().map_err(|e| format!("{name}: {e}"))
        };
        match arg.as_str() {
            "--snapshot" => snapshot = Some(value("--snapshot")?),
            "--min-sup" => {
                min_sup = Some(
                    value("--min-sup")?
                        .parse()
                        .map_err(|e| format!("min-sup: {e}"))?,
                )
            }
            "--pfct" => pfcts.push(parse("pfct", value("--pfct")?)?),
            "--epsilon" => epsilon = Some(parse("epsilon", value("--epsilon")?)?),
            "--delta" => delta = Some(parse("delta", value("--delta")?)?),
            "--algorithm" => algorithm = Some(value("--algorithm")?),
            "--fcp-method" => fcp_method = Some(value("--fcp-method")?),
            "--threads" => {
                threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("threads: {e}"))?,
                )
            }
            "--seed" => seed = Some(value("--seed")?.parse().map_err(|e| format!("seed: {e}"))?),
            "--deadline-ms" => {
                deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("deadline-ms: {e}"))?,
                )
            }
            "--concurrent" => concurrent = true,
            "--json" => json = true,
            other if addr.is_none() && !other.starts_with('-') => addr = Some(other.to_owned()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if pfcts.is_empty() {
        return Err("at least one --pfct is required".into());
    }
    Ok(QueryArgs {
        addr: addr.ok_or("missing server address")?,
        snapshot: snapshot.ok_or("missing --snapshot")?,
        min_sup: min_sup.ok_or("missing --min-sup")?,
        pfcts,
        epsilon,
        delta,
        algorithm,
        fcp_method,
        threads,
        seed,
        deadline_ms,
        concurrent,
        json,
    })
}

fn query_body(args: &QueryArgs, pfct: f64) -> String {
    let mut body = format!(
        "{{\"snapshot\":\"{}\",\"min_sup\":{},\"pfct\":{}",
        args.snapshot, args.min_sup, pfct
    );
    if let Some(e) = args.epsilon {
        body.push_str(&format!(",\"epsilon\":{e}"));
    }
    if let Some(d) = args.delta {
        body.push_str(&format!(",\"delta\":{d}"));
    }
    if let Some(a) = &args.algorithm {
        body.push_str(&format!(",\"algorithm\":\"{a}\""));
    }
    if let Some(m) = &args.fcp_method {
        body.push_str(&format!(",\"fcp_method\":\"{m}\""));
    }
    if let Some(t) = args.threads {
        body.push_str(&format!(",\"threads\":{t}"));
    }
    if let Some(s) = args.seed {
        body.push_str(&format!(",\"seed\":{s}"));
    }
    if let Some(d) = args.deadline_ms {
        body.push_str(&format!(",\"deadline_ms\":{d}"));
    }
    body.push('}');
    body
}

/// Print a response's result set in exactly the batch-mode output format
/// (`ids... : fcp`), so service answers diff cleanly against `pfcim
/// FILE.dat` runs. Returns the number of lines printed.
fn print_result_lines(resp: &str) -> usize {
    let mut printed = 0;
    let mut rest = resp;
    while let Some(at) = rest.find("\"items\":[") {
        rest = &rest[at + 9..];
        let Some(close) = rest.find(']') else { break };
        let ids = rest[..close].replace(',', " ");
        let Some(fcp_at) = rest.find("\"fcp\":") else {
            break;
        };
        let tail = &rest[fcp_at + 6..];
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        println!("{ids} : {}", &tail[..end]);
        printed += 1;
    }
    printed
}

fn run_query() -> ExitCode {
    let args = match parse_query_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: pfcim query <ADDR> --snapshot NAME --min-sup N --pfct P \
                 [--pfct P...] [--epsilon E] [--delta D] [--algorithm dfs|bfs|naive] \
                 [--fcp-method auto|exact|approx|adaptive] [--threads N] [--seed N] \
                 [--deadline-ms N] [--concurrent] [--json]"
            );
            return ExitCode::from(2);
        }
    };
    let timeout = Duration::from_secs(10);
    let responses: Vec<(f64, std::io::Result<String>)> = if args.concurrent {
        // One connection per threshold, all in flight at once.
        std::thread::scope(|scope| {
            let handles: Vec<_> = args
                .pfcts
                .iter()
                .map(|&pfct| {
                    let args = &args;
                    scope.spawn(move || {
                        (
                            pfct,
                            pfcim::core::serve::query_once(
                                &args.addr,
                                &query_body(args, pfct),
                                timeout,
                            ),
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    } else {
        // One connection, requests in order — successive thresholds can
        // be carved server-side from the first answer.
        match Client::connect(&args.addr, timeout) {
            Ok(mut client) => args
                .pfcts
                .iter()
                .map(|&pfct| (pfct, client.request(&query_body(&args, pfct))))
                .collect(),
            Err(e) => {
                eprintln!("error: cannot connect to {}: {e}", args.addr);
                return ExitCode::FAILURE;
            }
        }
    };
    let mut exit = ExitCode::SUCCESS;
    for (pfct, resp) in &responses {
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: query pfct={pfct}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let status = json_str(resp, "status").unwrap_or_else(|| "?".into());
        if args.json {
            println!("{resp}");
        } else {
            let lines = print_result_lines(resp);
            eprintln!(
                "# pfct={pfct} status={status} carved={} {} results in {:.3}s",
                json_str(resp, "carved")
                    .or_else(|| resp.contains("\"carved\":true").then(|| "true".into()))
                    .unwrap_or_else(|| "false".into()),
                lines,
                json_num(resp, "elapsed_s").unwrap_or(0.0),
            );
        }
        match status.as_str() {
            "ok" => {}
            "deadline_exceeded" => {
                eprintln!("# pfct={pfct}: deadline exceeded");
                exit = ExitCode::from(3);
            }
            _ => {
                eprintln!(
                    "error: pfct={pfct}: {}",
                    json_str(resp, "error").unwrap_or_else(|| resp.clone())
                );
                return ExitCode::FAILURE;
            }
        }
    }
    exit
}

// --- pfcim top --------------------------------------------------------

/// Pull a string field out of a flat JSON object without a parser: the
/// telemetry `/healthz` body is machine-generated with known keys, so a
/// substring scan is reliable enough for a dashboard.
fn json_str(body: &str, key: &str) -> Option<String> {
    let tail = &body[body.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let tail = tail.strip_prefix('"')?;
    Some(tail[..tail.find('"')?].to_owned())
}

/// Like [`json_str`] but for a bare number (returns `None` for `null`).
fn json_num(body: &str, key: &str) -> Option<f64> {
    let tail = &body[body.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = tail.find([',', '}']).unwrap_or(tail.len());
    tail[..end].trim().parse().ok()
}

/// Parse the plain samples out of a Prometheus text body into
/// `(name, value)` pairs (labelled samples like quantiles are skipped —
/// the dashboard only needs the scalar families).
fn prom_samples(body: &str) -> Vec<(String, f64)> {
    body.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_owned(), value.trim().parse().ok()?))
        })
        .collect()
}

fn run_top() -> ExitCode {
    let mut addr = None;
    let mut interval_ms = 500u64;
    let mut iterations = 0u64; // 0 = until the run finishes (or forever)
    let mut argv = std::env::args().skip(2);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--interval" => match argv.next().and_then(|v| v.parse().ok()) {
                Some(ms) => interval_ms = ms,
                None => {
                    eprintln!("error: --interval needs a millisecond value");
                    return ExitCode::from(2);
                }
            },
            "--iterations" => match argv.next().and_then(|v| v.parse().ok()) {
                Some(n) => iterations = n,
                None => {
                    eprintln!("error: --iterations needs a count");
                    return ExitCode::from(2);
                }
            },
            other if addr.is_none() && !other.starts_with('-') => addr = Some(other.to_owned()),
            other => {
                eprintln!("error: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("usage: pfcim top <ADDR> [--interval MS] [--iterations N]");
        return ExitCode::from(2);
    };
    let timeout = Duration::from_secs(2);
    let mut prev: Option<(f64, f64)> = None; // (elapsed_s, nodes)
    let mut tick = 0u64;
    loop {
        tick += 1;
        let health = match http_get(&addr, "/healthz", timeout) {
            Ok((200, body)) => body,
            Ok((status, _)) => {
                eprintln!("error: {addr}/healthz returned HTTP {status}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: cannot reach {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let metrics = match http_get(&addr, "/metrics", timeout) {
            Ok((200, body)) => prom_samples(&body),
            _ => Vec::new(),
        };
        let metric = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0.0)
        };
        let status = json_str(&health, "status").unwrap_or_else(|| "?".into());
        let algo = json_str(&health, "algo").unwrap_or_default();
        let elapsed = json_num(&health, "elapsed_s").unwrap_or(0.0);
        let nodes = json_num(&health, "nodes").unwrap_or(0.0);
        let results = json_num(&health, "results").unwrap_or(0.0);
        let rate = match prev.replace((elapsed, nodes)) {
            Some((t0, n0)) if elapsed > t0 => (nodes - n0) / (elapsed - t0),
            _ => 0.0,
        };
        let eta = json_num(&health, "eta_s")
            .map(|e| format!("{e:.1}s"))
            .unwrap_or_else(|| "-".into());
        // ANSI clear + home; plain enough for any terminal or a log file.
        print!("\x1b[2J\x1b[H");
        println!("pfcim top — {addr}  (tick {tick}, every {interval_ms}ms)");
        println!();
        println!(
            "  {} {:10} elapsed {elapsed:8.1}s   eta {eta}",
            match status.as_str() {
                "ok" => "RUNNING ",
                "finished" => "FINISHED",
                "stalled" => "STALLED ",
                _ => "UNKNOWN ",
            },
            algo,
        );
        println!(
            "  nodes {nodes:>12.0}  ({rate:>10.0}/s)   results {results:>8.0}   prunes {:>10.0}",
            metric("pfcim_prunes"),
        );
        println!(
            "  pool  {:>6.0}/{:<6.0} tasks   {:.0} workers   queue {:>6.0}   steals {:>6.0}",
            json_num(&health, "pool")
                .or_else(|| json_num(&health, "completed"))
                .unwrap_or(metric("pfcim_pool_completed")),
            metric("pfcim_pool_total"),
            metric("pfcim_pool_workers"),
            metric("pfcim_pool_queued"),
            metric("pfcim_pool_steals"),
        );
        println!(
            "  dp    {:>10.0} incremental   {:>10.0} rebuilt   freq evals {:>10.0}",
            metric("pfcim_dp_incremental"),
            metric("pfcim_dp_rebuilt"),
            metric("pfcim_freq_prob_evals"),
        );
        println!(
            "  fcp   {:>10.0} exact   {:>10.0} sampled   {:>12.0} samples drawn",
            metric("pfcim_fcp_exact"),
            metric("pfcim_fcp_sampled"),
            metric("pfcim_samples_drawn"),
        );
        println!(
            "  last progress {:>6.1}s ago   runs finished {:>4.0}",
            json_num(&health, "last_progress_age_s").unwrap_or(0.0),
            metric("pfcim_runs_finished"),
        );
        if status == "finished" || (iterations > 0 && tick >= iterations) {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}
