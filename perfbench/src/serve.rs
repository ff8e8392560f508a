//! `serve-mixed`: a closed loop of framed queries from a fixed number of
//! connections to an in-process `Server`, plus the serve-layer replay
//! the other workloads run in their traced pass.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use pfcim_core::{Client, FcpMethod, Miner, ServeConfig, Server, Snapshot};
use utdb::UncertainDatabase;

use crate::gen::{Feed, ProbModel, QuestSpec, Rng64};
use crate::mine::phase_shares;
use crate::report::{median, peak_rss_mb, tail};
use crate::spans::Tracer;
use crate::wire::{self, Conn};
use crate::{layers, permute_lines, stream, Opts, Pass};

const SPEC: QuestSpec = QuestSpec::sparse(ProbModel::Gaussian(0.5, 0.5));
const BASE_SEED: u64 = 45;
const ROWS: (usize, usize) = (300, 120);
const SNAPSHOT: &str = "base";
/// Set-ups per run (parse, snapshot, bind); `setup_s` is their median.
const SETUPS: usize = 51;
/// Connections of the closed loop (capped at the machine's cores).
const CONNECTIONS: usize = 2;
/// Stricter follow-ups timed through the in-repo `Client`.
const CLIENT_PROBES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// A stricter-`pfct` repeat of the connection's last fresh query.
    Carve,
    /// An exact mine whose seed makes it miss the server's result cache.
    Fresh,
    /// A sampled mine at `min_sup` 3.
    Sampled,
}

#[derive(Debug, Clone)]
struct Query {
    kind: Kind,
    min_sup: usize,
    pfct: f64,
    exact: bool,
    seed: u64,
}

impl Query {
    fn body(&self, snapshot: &str) -> String {
        format!(
            "{{\"snapshot\":\"{snapshot}\",\"min_sup\":{},\"pfct\":{:?},\"fcp_method\":\"{}\",\
             \"threads\":1,\"seed\":{}}}",
            self.min_sup,
            self.pfct,
            if self.exact { "exact" } else { "auto" },
            self.seed
        )
    }

    /// The same query as a direct in-process mine.
    fn miner<'a>(&self, db: &'a UncertainDatabase) -> Miner<'a> {
        let method = if self.exact {
            FcpMethod::ExactOnly
        } else {
            FcpMethod::default()
        };
        Miner::new(db)
            .min_sup(self.min_sup)
            .pfct(self.pfct)
            .seed(self.seed)
            .threads(1)
            .fcp_method(method)
    }

    /// Identity of the direct reference mine (exact answers do not
    /// depend on the seed).
    fn key(&self) -> (usize, u64, bool, u64) {
        let seed = if self.exact { 0 } else { self.seed };
        (self.min_sup, self.pfct.to_bits(), self.exact, seed)
    }

    /// A stricter follow-up at the share `u` of the way from this
    /// query's `pfct` to `ceiling`, the carve ceiling its answer
    /// reported: below the ceiling, the server may answer by carving.
    fn stricter(&self, ceiling: f64, u: f64) -> Query {
        let top = ceiling.min(MAX_PFCT);
        Query {
            kind: Kind::Carve,
            pfct: if top > self.pfct {
                self.pfct + u * (top - self.pfct)
            } else {
                self.pfct
            },
            ..self.clone()
        }
    }
}

/// Parameters of the fresh exact mines.
const FRESH_MIN_SUP: [usize; 10] = [6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
const FRESH_PFCT: [f64; 3] = [0.5, 0.6, 0.7];
/// Passes over the fresh-query grid before and after the load.
const GRID_PASSES: usize = 3;
/// Highest threshold a follow-up asks for.
const MAX_PFCT: f64 = 0.99;
/// Threshold of the sampled mines (at `min_sup` 3).
const SAMPLED_PFCT: f64 = 0.8;

/// The kinds of one cycle of queries: ½ stricter follow-ups, ⅓ fresh
/// exact mines, ⅙ sampled mines. Each cycle is shuffled, so the mix is
/// exact over every six queries and the order is seeded.
const CYCLE: [Kind; 6] = [
    Kind::Carve,
    Kind::Carve,
    Kind::Carve,
    Kind::Fresh,
    Kind::Fresh,
    Kind::Sampled,
];

/// One connection's seeded query sequence.
struct Plan {
    rng: Rng64,
    cycle: Vec<Kind>,
    sampled_seed: u64,
    next_seed: u64,
    /// The last fresh query and the carve ceiling of its answer.
    last_fresh: Option<(Query, f64)>,
}

impl Plan {
    fn new(seed: u64, conn: usize) -> Self {
        Plan {
            rng: Rng64::new(seed, 100 + conn as u64),
            cycle: Vec::new(),
            sampled_seed: seed & ((1 << 52) - 1),
            next_seed: 1_000_000 * (conn as u64 + 1),
            last_fresh: None,
        }
    }

    /// Note the carve ceiling of a fresh query's answer.
    fn observe(&mut self, query: &Query, response: &str) {
        if let Some((last, ceiling)) = self.last_fresh.as_mut() {
            if query.kind == Kind::Fresh && last.seed == query.seed {
                *ceiling = wire::number(response, "carve_ceiling");
            }
        }
    }

    fn next(&mut self) -> Query {
        if self.cycle.is_empty() {
            self.cycle = CYCLE.to_vec();
            for i in (1..self.cycle.len()).rev() {
                let j = self.rng.below(i + 1);
                self.cycle.swap(i, j);
            }
        }
        let kind = self.cycle.pop().expect("refilled above");
        match (kind, &self.last_fresh) {
            (Kind::Carve, Some((base, ceiling))) => {
                let u = 0.05 + 0.9 * self.rng.unit();
                base.stricter(*ceiling, u)
            }
            (Kind::Sampled, _) => Query {
                kind: Kind::Sampled,
                min_sup: 3,
                pfct: SAMPLED_PFCT,
                exact: false,
                seed: self.sampled_seed,
            },
            // A follow-up before any fresh query becomes a fresh query.
            (Kind::Fresh | Kind::Carve, _) => {
                self.next_seed += 1;
                let q = Query {
                    kind: Kind::Fresh,
                    min_sup: FRESH_MIN_SUP[self.rng.below(FRESH_MIN_SUP.len())],
                    pfct: FRESH_PFCT[self.rng.below(FRESH_PFCT.len())],
                    exact: true,
                    seed: self.next_seed,
                };
                self.last_fresh = Some((q.clone(), q.pfct));
                q
            }
        }
    }
}

struct Record {
    /// Connection and position in its sequence.
    conn: usize,
    index: usize,
    query: Query,
    latency: f64,
    response: String,
}

fn bind(db: UncertainDatabase, name: &str, connections: usize) -> (Snapshot, Server) {
    let snapshot = Snapshot::new(name, db);
    let cfg = ServeConfig {
        max_concurrent: connections,
        default_deadline: None,
    };
    let server = Server::bind("127.0.0.1:0", vec![snapshot.clone()], cfg).expect("bind loopback");
    (snapshot, server)
}

fn connections() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    CONNECTIONS.min(cores).max(1)
}

/// One connection's closed loop until `deadline`.
fn client_loop(
    addr: SocketAddr,
    conn: usize,
    seed: u64,
    deadline: Instant,
    mut tracer: Tracer,
) -> (Vec<Record>, Tracer) {
    let mut records = Vec::new();
    let mut plan = Plan::new(seed, conn);
    let mut link = Conn::connect(addr);
    let mut i = 0u64;
    while Instant::now() < deadline {
        let query = plan.next();
        let body = query.body(SNAPSHOT);
        let t = Instant::now();
        tracer.enter("core.serve", ((conn as u64) << 32) | i);
        let response = match link.as_mut() {
            Ok(link) => link.request(&body),
            Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
        };
        tracer.exit();
        let latency = t.elapsed().as_secs_f64();
        let failed = response.is_err();
        if let Ok(r) = &response {
            plan.observe(&query, r);
        }
        records.push(Record {
            conn,
            index: i as usize,
            query,
            latency,
            response: response
                .unwrap_or_else(|e| format!("{{\"status\":\"io_error\",\"error\":\"{e}\"}}")),
        });
        if failed {
            break;
        }
        i += 1;
    }
    (records, tracer)
}

/// Run one pass of `serve-mixed`.
pub fn run(opts: &Opts, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let rows = if opts.small { ROWS.1 } else { ROWS.0 };
    let text = permute_lines(
        &Feed::new(SPEC, Rng64::new(BASE_SEED, 1)).dat(rows),
        opts.seed,
    );
    let conns = connections();

    let (mut setups, mut parses) = (Vec::new(), Vec::new());
    let mut live: Option<(Snapshot, Server)> = None;
    for i in 0..SETUPS {
        if let Some((_, previous)) = live.take() {
            previous.shutdown();
        }
        let t = Instant::now();
        let db = tracer
            .span("utdb.io", i as u64, || utdb::io::parse_dat(&text))
            .expect("generated input parses");
        parses.push(t.elapsed().as_secs_f64());
        live = Some(tracer.span("core.serve", i as u64, || bind(db, SNAPSHOT, conns)));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (snapshot, server) = live.expect("at least one set-up");
    let db = snapshot.database().clone();
    let addr = server.local_addr();

    // mine_s: direct mines over the whole fresh-query grid, half before
    // and half after the load, so the figure neither depends on which
    // queries the sequence drew nor on whether a server-side mine
    // overlapped a sampled one. They also seed the gate's references.
    let mut reference: HashMap<(usize, u64, bool, u64), String> = HashMap::new();
    let mut mine_times = Vec::new();
    grid_mines(&db, tracer, &mut reference, &mut mine_times);

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let runs: Vec<(Vec<Record>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let t = tracer.fork();
                s.spawn(move || client_loop(addr, c, opts.seed, deadline, t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut records = Vec::new();
    for (recs, t) in runs {
        records.extend(recs);
        tracer.absorb(t);
    }

    grid_mines(&db, tracer, &mut reference, &mut mine_times);

    // Correctness: every `ok` answer equals a direct mine with the same
    // parameters; anything else is a failed operation.
    let mut sampled_mine = None;
    for r in &records {
        pass.attempted += 1;
        let status = wire::field(&r.response, "status").unwrap_or("");
        if status != "ok" {
            pass.failed += 1;
            pass.mismatches.push(format!(
                "{:?} query answered {status}: {}",
                r.query.kind, r.response
            ));
            continue;
        }
        let expected = reference.entry(r.query.key()).or_insert_with(|| {
            let outcome = tracer.span("core.miner", 0, || r.query.miner(&db).run());
            if !r.query.exact && sampled_mine.is_none() {
                sampled_mine = Some(outcome.clone());
            }
            wire::render(&outcome.results)
        });
        if wire::results(&r.response) != Some(expected.as_str()) {
            pass.failed += 1;
            pass.mismatches.push(format!(
                "{:?} answer differs from a direct mine: {}",
                r.query.kind,
                r.query.body(SNAPSHOT)
            ));
        }
    }

    let latencies: Vec<f64> = records.iter().map(|r| r.latency).collect();
    let e2e = &mut pass.e2e;
    e2e.insert("mine_s", median(&mine_times));
    e2e.insert("setup_s", median(&setups));
    e2e.insert("peak_rss_mb", peak_rss_mb());
    e2e.insert("query_p50_ms", 1e3 * median(&latencies));
    e2e.insert("query_p90_ms", 1e3 * tail(&latencies, 0.9));
    let cycles = cycle_seconds(&records);
    let qps = conns as f64 * CYCLE.len() as f64 / median(&cycles);
    e2e.insert("queries_per_s", qps);
    e2e.insert("stream_tx_per_s", rows as f64 * qps);
    e2e.insert("step_p50_ms", 1e3 * median(&cycles));
    e2e.insert("step_p99_ms", 1e3 * tail(&cycles, 0.99));
    let server_s: f64 = records
        .iter()
        .map(|r| wire::number(&r.response, "elapsed_s"))
        .sum();
    pass.phases = format!(
        "in-server {:.1}% of client latency; sampled reference mine: {}",
        100.0 * server_s / latencies.iter().sum::<f64>().max(1e-12),
        sampled_mine.as_ref().map_or("none".into(), phase_shares)
    );

    if tracer.enabled() {
        let layer = &mut pass.layer;
        latency_metrics(&records, layer);
        response_counters(&records, layer);
        let cache = snapshot.cache();
        let lookups = (cache.hits() + cache.misses()).max(1);
        layer.insert(
            "cache.hit_rate".into(),
            cache.hits() as f64 / lookups as f64,
        );
        layer.insert("cache.contended".into(), cache.contended() as f64);
        let rtt = client_rtt(addr, SNAPSHOT, &PROBE, tracer);
        layer.insert("serve.client_rtt_ms".into(), rtt);
        layer.insert("io.parse_s".into(), median(&parses));
        layer.insert("io.bytes".into(), text.len() as f64);
        let mined = sampled_mine.map(|o| o.itemsets()).unwrap_or_default();
        layers::replay(
            &db,
            &layers::pick(&db, &mined),
            3,
            0.8,
            opts.seed,
            tracer,
            layer,
        );
        stream::replay(&db, rows / 2, rows / 16, 0.6, true, tracer, layer);
    }
    server.shutdown();
    pass
}

/// Time direct mines over the whole fresh-query grid, `GRID_PASSES`
/// times, recording their answers as references for the gate.
fn grid_mines(
    db: &UncertainDatabase,
    tracer: &mut Tracer,
    reference: &mut HashMap<(usize, u64, bool, u64), String>,
    times: &mut Vec<f64>,
) {
    for _ in 0..GRID_PASSES {
        for min_sup in FRESH_MIN_SUP {
            for pfct in FRESH_PFCT {
                let q = Query {
                    kind: Kind::Fresh,
                    min_sup,
                    pfct,
                    exact: true,
                    seed: 0,
                };
                let t = Instant::now();
                let outcome = tracer.span("core.miner", 0, || q.miner(db).run());
                times.push(t.elapsed().as_secs_f64());
                reference.insert(q.key(), wire::render(&outcome.results));
            }
        }
    }
}

/// Durations of every complete cycle of every connection's sequence.
/// Every cycle holds the same mix of queries, so cycles are the
/// workload's steps: their median rate, times the connections, is the
/// closed loop's throughput, with a burst of host noise confined to the
/// cycles it hits.
fn cycle_seconds(records: &[Record]) -> Vec<f64> {
    let mut cycles: BTreeMap<(usize, usize), (usize, f64)> = BTreeMap::new();
    for r in records {
        let c = cycles
            .entry((r.conn, r.index / CYCLE.len()))
            .or_insert((0, 0.0));
        c.0 += 1;
        c.1 += r.latency;
    }
    cycles
        .values()
        .filter(|(n, _)| *n == CYCLE.len())
        .map(|&(_, t)| t)
        .collect()
}

/// The base of the in-repo `Client` probe: a fresh exact query whose
/// stricter follow-ups carve.
const PROBE: Query = Query {
    kind: Kind::Fresh,
    min_sup: 10,
    pfct: 0.6,
    exact: true,
    seed: 1,
};

/// `serve.server_ms_p50`, `serve.server_ms_p90`,
/// `serve.transport_ms_p50` and `serve.carved_share` over `records`.
fn latency_metrics(records: &[Record], out: &mut BTreeMap<String, f64>) {
    let ok: Vec<&Record> = records
        .iter()
        .filter(|r| wire::field(&r.response, "status") == Some("ok"))
        .collect();
    let server: Vec<f64> = ok
        .iter()
        .map(|r| wire::number(&r.response, "elapsed_s"))
        .collect();
    let transport: Vec<f64> = ok
        .iter()
        .map(|r| r.latency - wire::number(&r.response, "elapsed_s"))
        .collect();
    let carved = ok
        .iter()
        .filter(|r| wire::field(&r.response, "carved") == Some("true"))
        .count();
    for (name, value) in [
        ("serve.server_ms_p50", 1e3 * median(&server)),
        ("serve.server_ms_p90", 1e3 * tail(&server, 0.9)),
        ("serve.transport_ms_p50", 1e3 * median(&transport)),
        ("serve.carved_share", carved as f64 / ok.len().max(1) as f64),
    ] {
        out.insert(name.to_string(), value);
    }
}

/// Mean per mined (not carved) query of the counters each response
/// carries.
fn response_counters(records: &[Record], out: &mut BTreeMap<String, f64>) {
    let mined: Vec<&str> = records
        .iter()
        .map(|r| r.response.as_str())
        .filter(|r| {
            wire::field(r, "status") == Some("ok") && wire::field(r, "carved") == Some("false")
        })
        .collect();
    let n = mined.len().max(1) as f64;
    for (name, key) in [
        ("fcp.draws", "samples_drawn"),
        ("fcp.sampled_evals", "fcp_sampled"),
        ("fcp.exact_evals", "fcp_exact"),
        ("fcp.bound_decided", "bound_decided"),
        ("bitset.words", "bitmap_words"),
        ("dp.rows_fresh", "dp_recomputed"),
        ("dp.rows_incremental", "dp_incremental"),
    ] {
        let total: f64 = mined.iter().map(|r| wire::number(r, key)).sum();
        out.insert(name.to_string(), total / n);
    }
}

/// Median round trip, in ms, of stricter follow-ups to `base` sent
/// through the in-repo `Client`.
fn client_rtt(addr: SocketAddr, snapshot: &str, base: &Query, tracer: &mut Tracer) -> f64 {
    let Ok(mut client) = Client::connect(&addr.to_string(), Duration::from_secs(5)) else {
        return 0.0;
    };
    let ceiling = client
        .request(&base.body(snapshot))
        .map_or(base.pfct, |r| wire::number(&r, "carve_ceiling"));
    let mut rtts = Vec::with_capacity(CLIENT_PROBES);
    for i in 1..=CLIENT_PROBES {
        let body = base
            .stricter(ceiling, i as f64 / (CLIENT_PROBES + 1) as f64)
            .body(snapshot);
        let t = Instant::now();
        tracer.enter("core.serve", i as u64);
        let _ = client.request(&body);
        tracer.exit();
        rtts.push(t.elapsed().as_secs_f64());
    }
    1e3 * median(&rtts)
}

/// The serve-layer replay of the workloads that have no service: a
/// server over the workload's database answers one query with the
/// workload's parameters, then stricter follow-ups that carve, through
/// the load generator's client and through the in-repo `Client`.
pub fn replay(
    db: &UncertainDatabase,
    min_sup: usize,
    pfct: f64,
    exact: bool,
    tracer: &mut Tracer,
    out: &mut BTreeMap<String, f64>,
) {
    const NAME: &str = "replay";
    tracer.enter("bench", 0);
    let (_snapshot, server) = tracer.span("core.serve", 0, || bind(db.clone(), NAME, 1));
    let base = Query {
        kind: Kind::Fresh,
        min_sup,
        pfct,
        exact,
        seed: 1,
    };
    let mut records = Vec::new();
    if let Ok(mut link) = Conn::connect(server.local_addr()) {
        let mut ceiling = base.pfct;
        for i in 0..=CLIENT_PROBES {
            let query = if i == 0 {
                base.clone()
            } else {
                base.stricter(ceiling, i as f64 / (CLIENT_PROBES + 1) as f64)
            };
            let t = Instant::now();
            let response = tracer.span("core.serve", i as u64, || link.request(&query.body(NAME)));
            let latency = t.elapsed().as_secs_f64();
            let response = response
                .unwrap_or_else(|e| format!("{{\"status\":\"io_error\",\"error\":\"{e}\"}}"));
            if i == 0 {
                ceiling = wire::number(&response, "carve_ceiling");
            }
            records.push(Record {
                conn: 0,
                index: i,
                query,
                latency,
                response,
            });
        }
    }
    latency_metrics(&records, out);
    let rtt = client_rtt(server.local_addr(), NAME, &base, tracer);
    out.insert("serve.client_rtt_ms".into(), rtt);
    server.shutdown();
    tracer.exit();
}
