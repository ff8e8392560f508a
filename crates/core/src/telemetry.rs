//! Live run telemetry: a background sampler, a lock-free flight
//! recorder, and an in-run HTTP scrape endpoint.
//!
//! Everything else in the observability stack ([`crate::trace`],
//! [`crate::metrics`], [`crate::profile`]) is post-hoc: you learn what a
//! run did after it finishes. This module closes the loop for *live*
//! runs:
//!
//! * [`TelemetrySink`] — a [`MinerSink`] whose callbacks update shared
//!   atomic counters ([`TelemetryState`]); cloned shards share the same
//!   state, so the parallel miner feeds it without locks. It also hands
//!   the parallel fan-out a live [`PoolGauges`] via
//!   [`MinerSink::pool_gauges`].
//! * a **sampler thread** (spawned by [`Telemetry::start`]) snapshots
//!   the state every [`TelemetryConfig::sample_interval`] into a
//!   versioned [`TelemetrySample`] and pushes it into the flight
//!   recorder's ring.
//! * [`FlightRecorder`] — two fixed-capacity lock-free rings
//!   ([`WordRing`], a seqlock over atomic words) holding the last N
//!   samples and the most recent coarse miner events; [`Telemetry::
//!   install_panic_dump`] chains a panic hook that dumps both as JSONL
//!   for post-mortem triage.
//! * an **HTTP endpoint** ([`Telemetry::serve`], std-only, one thread)
//!   serving `GET /metrics` (Prometheus text, self-checked through
//!   [`crate::metrics::lint_prometheus`]), `GET /healthz` (phase
//!   progress, ETA, a last-progress watchdog) and `GET /flight` (the
//!   ring dump) while the run is alive. Binding port `0` picks a free port; the bound
//!   address is returned.
//!
//! The sampler reads ~40 relaxed atomics per tick, so the overhead at
//! the default 100 ms interval is far below the 5 % budget that
//! `crates/bench/tests/perf_gates.rs` enforces.
//!
//! ```
//! use pfcim_core::prelude::*;
//! use pfcim_core::telemetry::Telemetry;
//!
//! let db = UncertainDatabase::parse_symbolic(&[
//!     ("a b c d", 0.9),
//!     ("a b c", 0.6),
//!     ("a b c", 0.7),
//!     ("a b c d", 0.9),
//! ]);
//! let mut telemetry = Telemetry::start();
//! let mut sink = telemetry.sink();
//! let outcome = Miner::new(&db).min_sup(2).pfct(0.8).sink(&mut sink).run();
//! assert_eq!(outcome.results.len(), 2);
//! // /metrics body, identical to what the HTTP endpoint would serve:
//! pfcim_core::lint_prometheus(&telemetry.metrics_text()).unwrap();
//! telemetry.shutdown();
//! ```

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::config::MinerConfig;
use crate::http;
use crate::metrics::MetricsRegistry;
use crate::par::PoolGauges;
use crate::result::MiningOutcome;
use crate::trace::{DpDecision, FcpEvalKind, MinerSink, Phase, ShardableSink};
use utdb::Item;

// ---------------------------------------------------------------------
// Lock-free word ring (seqlock)
// ---------------------------------------------------------------------

/// A fixed-capacity lock-free ring buffer of fixed-width `u64` records,
/// safe for concurrent writers and readers.
///
/// Implementation: a seqlock per slot. A writer claims a global index
/// `i` with one `fetch_add` on the head, then writes slot `i % capacity`
/// under the protocol *store `2·i + 1` (writing) → store the words →
/// store `2·i + 2` (stable)*. A reader accepts a record only when the
/// slot's sequence reads `2·i + 2` both before and after copying the
/// words — torn reads and records overwritten mid-copy are detected and
/// skipped, never returned. All accesses are `SeqCst` atomics on `u64`
/// words, so there is no `unsafe` and no undefined behaviour; the cost
/// is one ordered atomic op per word, which is noise at telemetry rates.
#[derive(Debug)]
pub struct WordRing {
    capacity: usize,
    record_words: usize,
    head: AtomicU64,
    seqs: Vec<AtomicU64>,
    words: Vec<AtomicU64>,
}

impl WordRing {
    /// A ring holding the last `capacity` records of `record_words`
    /// words each. Both must be nonzero.
    pub fn new(capacity: usize, record_words: usize) -> Self {
        assert!(capacity > 0 && record_words > 0);
        Self {
            capacity,
            record_words,
            head: AtomicU64::new(0),
            seqs: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            words: (0..capacity * record_words)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Number of records the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total records ever pushed (not capped at the capacity).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::SeqCst)
    }

    /// Append a record; the oldest record is overwritten once the ring
    /// is full. `record` longer than the ring's width is truncated,
    /// shorter is zero-padded. Safe to call from any thread.
    pub fn push(&self, record: &[u64]) {
        let i = self.head.fetch_add(1, Ordering::SeqCst);
        let slot = (i % self.capacity as u64) as usize;
        let base = slot * self.record_words;
        self.seqs[slot].store(2 * i + 1, Ordering::SeqCst);
        for w in 0..self.record_words {
            let v = record.get(w).copied().unwrap_or(0);
            self.words[base + w].store(v, Ordering::SeqCst);
        }
        self.seqs[slot].store(2 * i + 2, Ordering::SeqCst);
    }

    /// Try to read the record with global index `i`; `None` when it was
    /// never written, has been overwritten, or is being written right
    /// now.
    fn read(&self, i: u64) -> Option<Vec<u64>> {
        let slot = (i % self.capacity as u64) as usize;
        let base = slot * self.record_words;
        let want = 2 * i + 2;
        if self.seqs[slot].load(Ordering::SeqCst) != want {
            return None;
        }
        let out: Vec<u64> = (0..self.record_words)
            .map(|w| self.words[base + w].load(Ordering::SeqCst))
            .collect();
        (self.seqs[slot].load(Ordering::SeqCst) == want).then_some(out)
    }

    /// A consistent copy of the retained records, oldest first, each
    /// paired with its global index. Records that a concurrent writer is
    /// touching are skipped rather than returned torn.
    pub fn snapshot(&self) -> Vec<(u64, Vec<u64>)> {
        let head = self.head.load(Ordering::SeqCst);
        let first = head.saturating_sub(self.capacity as u64);
        (first..head)
            .filter_map(|i| Some((i, self.read(i)?)))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Samples and events
// ---------------------------------------------------------------------

/// Version stamped into every [`TelemetrySample`]; bump when the word
/// layout changes.
pub const SAMPLE_VERSION: u64 = 1;

/// Fixed width of a serialized [`TelemetrySample`] in `u64` words.
pub const SAMPLE_WORDS: usize = 19 + 2 * Phase::COUNT;

/// Fixed width of a serialized [`TelemetryEvent`] in `u64` words.
pub const EVENT_WORDS: usize = 4;

/// One periodic snapshot of a live run, taken by the sampler thread (or
/// pushed at `run_finished` so even sub-interval runs leave one sample).
///
/// The counters are cumulative since [`Telemetry`] creation; rates come
/// from differencing consecutive samples. Serialization to/from the
/// flight-recorder ring is a fixed [`SAMPLE_WORDS`]-word layout
/// (`f64`-free: durations are integer microseconds/nanoseconds).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySample {
    /// Layout version ([`SAMPLE_VERSION`]).
    pub version: u64,
    /// Sample index (the flight ring's global index at push time).
    pub seq: u64,
    /// Microseconds since the telemetry session started.
    pub elapsed_us: u64,
    /// Enumeration nodes visited.
    pub nodes: u64,
    /// Result itemsets emitted.
    pub results: u64,
    /// Candidates eliminated by any pruning rule.
    pub prunes: u64,
    /// Frequentness-DP evaluations.
    pub freq_prob_evals: u64,
    /// DP rows produced by incremental downdate.
    pub dp_incremental: u64,
    /// DP rows rebuilt from scratch (any audit reason).
    pub dp_rebuilt: u64,
    /// Exact FCP evaluations.
    pub fcp_exact: u64,
    /// Sampled (`ApproxFCP`) evaluations.
    pub fcp_sampled: u64,
    /// Monte-Carlo samples drawn in total.
    pub samples_drawn: u64,
    /// Pool: tasks submitted across all fan-outs.
    pub pool_total: u64,
    /// Pool: tasks completed (`pool_total − pool_completed` = queued or
    /// in flight).
    pub pool_completed: u64,
    /// Pool: largest worker count seen.
    pub pool_workers: u64,
    /// Pool: task executions summed over workers.
    pub pool_tasks: u64,
    /// Pool: successful steal sweeps summed over workers.
    pub pool_steals: u64,
    /// Pool: terminal idle sweeps summed over workers.
    pub pool_idles: u64,
    /// Microseconds (since session start) of the last progress event —
    /// the watchdog input.
    pub last_progress_us: u64,
    /// Per-phase completed timing calls, indexed by [`Phase::index`].
    pub phase_calls: [u64; Phase::COUNT],
    /// Per-phase cumulative nanoseconds, indexed by [`Phase::index`].
    pub phase_ns: [u64; Phase::COUNT],
}

impl TelemetrySample {
    /// Serialize into the fixed ring layout.
    pub fn to_words(&self) -> [u64; SAMPLE_WORDS] {
        let mut w = [0u64; SAMPLE_WORDS];
        w[0] = self.version;
        w[1] = self.seq;
        w[2] = self.elapsed_us;
        w[3] = self.nodes;
        w[4] = self.results;
        w[5] = self.prunes;
        w[6] = self.freq_prob_evals;
        w[7] = self.dp_incremental;
        w[8] = self.dp_rebuilt;
        w[9] = self.fcp_exact;
        w[10] = self.fcp_sampled;
        w[11] = self.samples_drawn;
        w[12] = self.pool_total;
        w[13] = self.pool_completed;
        w[14] = self.pool_workers;
        w[15] = self.pool_tasks;
        w[16] = self.pool_steals;
        w[17] = self.pool_idles;
        w[18] = self.last_progress_us;
        for p in 0..Phase::COUNT {
            w[19 + p] = self.phase_calls[p];
            w[19 + Phase::COUNT + p] = self.phase_ns[p];
        }
        w
    }

    /// Deserialize from the ring layout; `None` on a short record or an
    /// unknown version.
    pub fn from_words(words: &[u64]) -> Option<Self> {
        if words.len() < SAMPLE_WORDS || words[0] != SAMPLE_VERSION {
            return None;
        }
        let mut phase_calls = [0u64; Phase::COUNT];
        let mut phase_ns = [0u64; Phase::COUNT];
        for p in 0..Phase::COUNT {
            phase_calls[p] = words[19 + p];
            phase_ns[p] = words[19 + Phase::COUNT + p];
        }
        Some(Self {
            version: words[0],
            seq: words[1],
            elapsed_us: words[2],
            nodes: words[3],
            results: words[4],
            prunes: words[5],
            freq_prob_evals: words[6],
            dp_incremental: words[7],
            dp_rebuilt: words[8],
            fcp_exact: words[9],
            fcp_sampled: words[10],
            samples_drawn: words[11],
            pool_total: words[12],
            pool_completed: words[13],
            pool_workers: words[14],
            pool_tasks: words[15],
            pool_steals: words[16],
            pool_idles: words[17],
            last_progress_us: words[18],
            phase_calls,
            phase_ns,
        })
    }

    /// One JSON object (single line, JSONL-ready).
    pub fn to_json(&self) -> String {
        let phases = |vals: &[u64; Phase::COUNT]| {
            let body: Vec<String> = Phase::ALL
                .iter()
                .map(|p| format!("\"{}\":{}", p.name(), vals[p.index()]))
                .collect();
            format!("{{{}}}", body.join(","))
        };
        format!(
            "{{\"record\":\"sample\",\"version\":{},\"seq\":{},\"elapsed_us\":{},\
             \"nodes\":{},\"results\":{},\"prunes\":{},\"freq_prob_evals\":{},\
             \"dp_incremental\":{},\"dp_rebuilt\":{},\"fcp_exact\":{},\"fcp_sampled\":{},\
             \"samples_drawn\":{},\"pool\":{{\"total\":{},\"completed\":{},\"workers\":{},\
             \"tasks\":{},\"steals\":{},\"idles\":{}}},\"last_progress_us\":{},\
             \"phase_calls\":{},\"phase_ns\":{}}}",
            self.version,
            self.seq,
            self.elapsed_us,
            self.nodes,
            self.results,
            self.prunes,
            self.freq_prob_evals,
            self.dp_incremental,
            self.dp_rebuilt,
            self.fcp_exact,
            self.fcp_sampled,
            self.samples_drawn,
            self.pool_total,
            self.pool_completed,
            self.pool_workers,
            self.pool_tasks,
            self.pool_steals,
            self.pool_idles,
            self.last_progress_us,
            phases(&self.phase_calls),
            phases(&self.phase_ns),
        )
    }
}

/// Kind of a coarse [`TelemetryEvent`] in the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryEventKind {
    /// A mining run started (`a` = `min_sup`).
    RunStarted,
    /// A mining run finished (`a` = result count, `b` = elapsed µs).
    RunFinished,
    /// A result itemset was emitted (`a` = itemset size, `b` = FCP bits).
    Result,
    /// Every [`TelemetryConfig::node_event_every`]-th enumeration node
    /// (`a` = cumulative node count).
    NodeMilestone,
}

impl TelemetryEventKind {
    /// Stable snake_case name used in the JSONL dump.
    pub fn name(self) -> &'static str {
        match self {
            TelemetryEventKind::RunStarted => "run_started",
            TelemetryEventKind::RunFinished => "run_finished",
            TelemetryEventKind::Result => "result",
            TelemetryEventKind::NodeMilestone => "node_milestone",
        }
    }

    fn code(self) -> u64 {
        match self {
            TelemetryEventKind::RunStarted => 0,
            TelemetryEventKind::RunFinished => 1,
            TelemetryEventKind::Result => 2,
            TelemetryEventKind::NodeMilestone => 3,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        Some(match code {
            0 => TelemetryEventKind::RunStarted,
            1 => TelemetryEventKind::RunFinished,
            2 => TelemetryEventKind::Result,
            3 => TelemetryEventKind::NodeMilestone,
            _ => return None,
        })
    }
}

/// One coarse miner event retained by the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryEvent {
    /// What happened.
    pub kind: TelemetryEventKind,
    /// Microseconds since the telemetry session started.
    pub elapsed_us: u64,
    /// Kind-specific payload (see [`TelemetryEventKind`]).
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
}

impl TelemetryEvent {
    /// Serialize into the fixed ring layout.
    pub fn to_words(&self) -> [u64; EVENT_WORDS] {
        [self.kind.code(), self.elapsed_us, self.a, self.b]
    }

    /// Deserialize from the ring layout.
    pub fn from_words(words: &[u64]) -> Option<Self> {
        if words.len() < EVENT_WORDS {
            return None;
        }
        Some(Self {
            kind: TelemetryEventKind::from_code(words[0])?,
            elapsed_us: words[1],
            a: words[2],
            b: words[3],
        })
    }

    /// One JSON object (single line, JSONL-ready).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"record\":\"event\",\"kind\":\"{}\",\"elapsed_us\":{},\"a\":{},\"b\":{}}}",
            self.kind.name(),
            self.elapsed_us,
            self.a,
            self.b
        )
    }
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

/// The flight recorder: the last N [`TelemetrySample`]s and the most
/// recent coarse [`TelemetryEvent`]s in two lock-free [`WordRing`]s,
/// dumpable as JSONL at any moment — including from a panic hook while
/// the miner threads are mid-flight.
#[derive(Debug)]
pub struct FlightRecorder {
    samples: WordRing,
    events: WordRing,
}

impl FlightRecorder {
    /// A recorder retaining `sample_capacity` samples and
    /// `event_capacity` events.
    pub fn new(sample_capacity: usize, event_capacity: usize) -> Self {
        Self {
            samples: WordRing::new(sample_capacity, SAMPLE_WORDS),
            events: WordRing::new(event_capacity, EVENT_WORDS),
        }
    }

    /// Append a sample.
    pub fn record_sample(&self, sample: &TelemetrySample) {
        self.samples.push(&sample.to_words());
    }

    /// Append an event.
    pub fn record_event(&self, event: &TelemetryEvent) {
        self.events.push(&event.to_words());
    }

    /// Total samples ever recorded.
    pub fn samples_pushed(&self) -> u64 {
        self.samples.pushed()
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> Vec<TelemetrySample> {
        self.samples
            .snapshot()
            .iter()
            .filter_map(|(_, w)| TelemetrySample::from_words(w))
            .collect()
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.events
            .snapshot()
            .iter()
            .filter_map(|(_, w)| TelemetryEvent::from_words(w))
            .collect()
    }

    /// The whole recorder as JSONL: one `{"record":"sample",…}` line per
    /// retained sample (oldest first), then one `{"record":"event",…}`
    /// line per retained event.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.samples() {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        for e in self.events() {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------
// Live state + sink
// ---------------------------------------------------------------------

/// The shared live-counter block every [`TelemetrySink`] clone updates
/// and the sampler/HTTP threads read. All counters are relaxed atomics;
/// a reader sees a near-instantaneous view.
#[derive(Debug)]
pub struct TelemetryState {
    start: Instant,
    nodes: AtomicU64,
    results: AtomicU64,
    prunes: AtomicU64,
    freq_prob_evals: AtomicU64,
    dp_incremental: AtomicU64,
    dp_rebuilt: AtomicU64,
    fcp_exact: AtomicU64,
    fcp_sampled: AtomicU64,
    samples_drawn: AtomicU64,
    phase_calls: [AtomicU64; Phase::COUNT],
    phase_ns: [AtomicU64; Phase::COUNT],
    last_progress_us: AtomicU64,
    finished: AtomicBool,
    runs_finished: AtomicU64,
    min_sup: AtomicU64,
    threads: AtomicU64,
    // KernelStats have no per-event trace; they arrive wholesale at
    // run_finished, so these stay zero during the run.
    bound_cache_hits: AtomicU64,
    bound_cache_misses: AtomicU64,
    bitmap_words: AtomicU64,
    families_screened: AtomicU64,
    algo: Mutex<String>,
    pool: Arc<PoolGauges>,
}

impl TelemetryState {
    fn new() -> Self {
        let zeros = || std::array::from_fn(|_| AtomicU64::new(0));
        Self {
            start: Instant::now(),
            nodes: AtomicU64::new(0),
            results: AtomicU64::new(0),
            prunes: AtomicU64::new(0),
            freq_prob_evals: AtomicU64::new(0),
            dp_incremental: AtomicU64::new(0),
            dp_rebuilt: AtomicU64::new(0),
            fcp_exact: AtomicU64::new(0),
            fcp_sampled: AtomicU64::new(0),
            samples_drawn: AtomicU64::new(0),
            phase_calls: zeros(),
            phase_ns: zeros(),
            last_progress_us: AtomicU64::new(0),
            finished: AtomicBool::new(false),
            runs_finished: AtomicU64::new(0),
            min_sup: AtomicU64::new(0),
            threads: AtomicU64::new(0),
            bound_cache_hits: AtomicU64::new(0),
            bound_cache_misses: AtomicU64::new(0),
            bitmap_words: AtomicU64::new(0),
            families_screened: AtomicU64::new(0),
            algo: Mutex::new(String::new()),
            pool: Arc::new(PoolGauges::new()),
        }
    }

    /// Microseconds since the telemetry session started.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn touch_progress(&self) {
        self.last_progress_us
            .store(self.elapsed_us(), Ordering::Relaxed);
    }

    /// Whether a `run_finished` event has been observed.
    pub fn finished(&self) -> bool {
        self.finished.load(Ordering::Relaxed)
    }

    /// The live pool gauges (shared with the parallel fan-out).
    pub fn pool(&self) -> &Arc<PoolGauges> {
        &self.pool
    }

    /// Snapshot every counter into a [`TelemetrySample`] stamped with
    /// sequence number `seq`.
    pub fn sample(&self, seq: u64) -> TelemetrySample {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let pool = self.pool.snapshot();
        let mut phase_calls = [0u64; Phase::COUNT];
        let mut phase_ns = [0u64; Phase::COUNT];
        for p in 0..Phase::COUNT {
            phase_calls[p] = load(&self.phase_calls[p]);
            phase_ns[p] = load(&self.phase_ns[p]);
        }
        TelemetrySample {
            version: SAMPLE_VERSION,
            seq,
            elapsed_us: self.elapsed_us(),
            nodes: load(&self.nodes),
            results: load(&self.results),
            prunes: load(&self.prunes),
            freq_prob_evals: load(&self.freq_prob_evals),
            dp_incremental: load(&self.dp_incremental),
            dp_rebuilt: load(&self.dp_rebuilt),
            fcp_exact: load(&self.fcp_exact),
            fcp_sampled: load(&self.fcp_sampled),
            samples_drawn: load(&self.samples_drawn),
            pool_total: pool.total,
            pool_completed: pool.completed,
            pool_workers: pool.workers,
            pool_tasks: pool.tasks(),
            pool_steals: pool.steals(),
            pool_idles: pool.idles(),
            last_progress_us: load(&self.last_progress_us),
            phase_calls,
            phase_ns,
        }
    }

    /// Render the live state as a [`MetricsRegistry`] (counters for the
    /// cumulative event counts, gauges for progress, pool health and
    /// cache configuration) — the substrate of the `/metrics` endpoint.
    pub fn registry(&self) -> MetricsRegistry {
        let s = self.sample(0);
        let mut reg = MetricsRegistry::new();
        for (name, v) in [
            ("nodes_visited", s.nodes),
            ("results", s.results),
            ("prunes", s.prunes),
            ("freq_prob_evals", s.freq_prob_evals),
            ("dp_incremental", s.dp_incremental),
            ("dp_rebuilt", s.dp_rebuilt),
            ("fcp_exact", s.fcp_exact),
            ("fcp_sampled", s.fcp_sampled),
            ("samples_drawn", s.samples_drawn),
            ("pool_tasks", s.pool_tasks),
            ("pool_steals", s.pool_steals),
            ("pool_idles", s.pool_idles),
            ("runs_finished", self.runs_finished.load(Ordering::Relaxed)),
        ] {
            reg.add(name, v);
        }
        reg.set_gauge("elapsed_s", s.elapsed_us as f64 / 1e6);
        reg.set_gauge(
            "last_progress_age_s",
            s.elapsed_us.saturating_sub(s.last_progress_us) as f64 / 1e6,
        );
        reg.set_gauge("finished", if self.finished() { 1.0 } else { 0.0 });
        reg.set_gauge("pool_total", s.pool_total as f64);
        reg.set_gauge("pool_completed", s.pool_completed as f64);
        reg.set_gauge(
            "pool_queued",
            s.pool_total.saturating_sub(s.pool_completed) as f64,
        );
        reg.set_gauge("pool_workers", s.pool_workers as f64);
        reg.set_gauge("min_sup", self.min_sup.load(Ordering::Relaxed) as f64);
        reg.set_gauge("threads", self.threads.load(Ordering::Relaxed) as f64);
        // Kernel counters arrive wholesale at run_finished; the hit-rate
        // gauge only exists once there is something to divide.
        let (hits, misses) = (
            self.bound_cache_hits.load(Ordering::Relaxed),
            self.bound_cache_misses.load(Ordering::Relaxed),
        );
        if hits + misses > 0 {
            reg.set_gauge("bound_cache_hit_rate", hits as f64 / (hits + misses) as f64);
            reg.add("bound_cache_hits", hits);
            reg.add("bound_cache_misses", misses);
            reg.add("bitmap_words", self.bitmap_words.load(Ordering::Relaxed));
        }
        // Most families a dense batch run decides are screened, with no
        // cache lookup: shown from the first finished run on.
        if self.runs_finished.load(Ordering::Relaxed) > 0 {
            let screened = self.families_screened.load(Ordering::Relaxed);
            reg.add("families_screened", screened);
        }
        for (w, g) in self.pool.snapshot().per_worker.iter().enumerate() {
            reg.set_gauge(&format!("pool_worker{w}_tasks"), g.tasks as f64);
            reg.set_gauge(&format!("pool_worker{w}_steals"), g.steals as f64);
            reg.set_gauge(&format!("pool_worker{w}_idles"), g.idles as f64);
        }
        for p in Phase::ALL {
            reg.add(
                &format!("phase_{}_calls", p.name()),
                s.phase_calls[p.index()],
            );
            reg.set_gauge(
                &format!("phase_{}_s", p.name()),
                s.phase_ns[p.index()] as f64 / 1e9,
            );
        }
        reg
    }

    /// The `/healthz` JSON body: status (`ok` / `stalled` / `finished`),
    /// algorithm, progress, ETA and the last-progress watchdog.
    ///
    /// The ETA extrapolates pool progress (`elapsed · remaining/done`
    /// over the first-level root fan-out) and is `null` until at least
    /// one task completed or once the run finished.
    pub fn healthz_json(&self, stall_threshold: Duration) -> String {
        let s = self.sample(0);
        let finished = self.finished();
        let progress_age_s = s.elapsed_us.saturating_sub(s.last_progress_us) as f64 / 1e6;
        let stalled = !finished && s.nodes > 0 && progress_age_s > stall_threshold.as_secs_f64();
        let status = if finished {
            "finished"
        } else if stalled {
            "stalled"
        } else {
            "ok"
        };
        let elapsed_s = s.elapsed_us as f64 / 1e6;
        let (progress, eta_s) = if finished {
            ("1".to_owned(), "0".to_owned())
        } else if s.pool_total > 0 && s.pool_completed > 0 {
            let frac = s.pool_completed as f64 / s.pool_total as f64;
            let eta = elapsed_s * (1.0 - frac) / frac;
            (format!("{frac}"), format!("{eta}"))
        } else {
            ("null".to_owned(), "null".to_owned())
        };
        let algo = self.algo.lock().map(|a| a.clone()).unwrap_or_default();
        format!(
            "{{\"status\":\"{status}\",\"algo\":\"{algo}\",\"min_sup\":{},\
             \"elapsed_s\":{elapsed_s},\"nodes\":{},\"results\":{},\
             \"pool\":{{\"completed\":{},\"total\":{},\"workers\":{}}},\
             \"progress\":{progress},\"eta_s\":{eta_s},\
             \"last_progress_age_s\":{progress_age_s},\
             \"stall_threshold_s\":{},\"finished\":{finished}}}",
            self.min_sup.load(Ordering::Relaxed),
            s.nodes,
            s.results,
            s.pool_completed,
            s.pool_total,
            s.pool_workers,
            stall_threshold.as_secs_f64(),
        )
    }
}

/// The [`MinerSink`] feeding a telemetry session. Cheap to clone (two
/// `Arc`s); clones — including the shards the parallel miner creates —
/// all update the same [`TelemetryState`], so live readers see the
/// whole run regardless of worker count.
#[derive(Debug, Clone)]
pub struct TelemetrySink {
    state: Arc<TelemetryState>,
    flight: Arc<FlightRecorder>,
    node_event_every: u64,
}

impl TelemetrySink {
    fn event(&self, kind: TelemetryEventKind, a: u64, b: u64) {
        self.flight.record_event(&TelemetryEvent {
            kind,
            elapsed_us: self.state.elapsed_us(),
            a,
            b,
        });
    }
}

impl MinerSink for TelemetrySink {
    fn run_started(&mut self, algo: &str, config: &MinerConfig) {
        if let Ok(mut slot) = self.state.algo.lock() {
            *slot = algo.to_owned();
        }
        self.state
            .min_sup
            .store(config.min_sup as u64, Ordering::Relaxed);
        self.state
            .threads
            .store(config.effective_threads() as u64, Ordering::Relaxed);
        self.state.finished.store(false, Ordering::Relaxed);
        self.state.touch_progress();
        self.event(TelemetryEventKind::RunStarted, config.min_sup as u64, 0);
    }
    fn node_entered(&mut self, _depth: usize) {
        let n = self.state.nodes.fetch_add(1, Ordering::Relaxed) + 1;
        self.state.touch_progress();
        if self.node_event_every > 0 && n.is_multiple_of(self.node_event_every) {
            self.event(TelemetryEventKind::NodeMilestone, n, 0);
        }
    }
    fn prune_fired(&mut self, _kind: crate::trace::PruneKind) {
        self.state.prunes.fetch_add(1, Ordering::Relaxed);
    }
    fn freq_prob_evaluated(&mut self, _pr_f: f64) {
        self.state.freq_prob_evals.fetch_add(1, Ordering::Relaxed);
    }
    fn dp_decision(&mut self, decision: DpDecision) {
        let slot = if matches!(decision, DpDecision::Incremental) {
            &self.state.dp_incremental
        } else {
            &self.state.dp_rebuilt
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }
    fn pool_gauges(&self) -> Option<Arc<PoolGauges>> {
        Some(Arc::clone(&self.state.pool))
    }
    fn fcp_evaluated(&mut self, method: FcpEvalKind, samples: u64) {
        match method {
            FcpEvalKind::Exact => {
                self.state.fcp_exact.fetch_add(1, Ordering::Relaxed);
            }
            FcpEvalKind::Sampled => {
                self.state.fcp_sampled.fetch_add(1, Ordering::Relaxed);
            }
            // Bound-decided evaluations draw no samples and are already
            // visible through the prune counters.
            FcpEvalKind::BoundDecided => {}
        }
        self.state
            .samples_drawn
            .fetch_add(samples, Ordering::Relaxed);
    }
    fn result_emitted(&mut self, items: &[Item], fcp: f64) {
        self.state.results.fetch_add(1, Ordering::Relaxed);
        self.state.touch_progress();
        self.event(
            TelemetryEventKind::Result,
            items.len() as u64,
            fcp.to_bits(),
        );
    }
    fn phase_end(&mut self, phase: Phase, elapsed: Duration) {
        let i = phase.index();
        self.state.phase_calls[i].fetch_add(1, Ordering::Relaxed);
        self.state.phase_ns[i].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }
    fn run_finished(&mut self, outcome: &MiningOutcome) {
        self.state
            .bound_cache_hits
            .store(outcome.kernel.bound_cache_hits, Ordering::Relaxed);
        self.state
            .bound_cache_misses
            .store(outcome.kernel.bound_cache_misses, Ordering::Relaxed);
        self.state
            .bitmap_words
            .store(outcome.kernel.bitmap_words, Ordering::Relaxed);
        self.state
            .families_screened
            .store(outcome.kernel.families_screened, Ordering::Relaxed);
        self.state.finished.store(true, Ordering::Relaxed);
        self.state.runs_finished.fetch_add(1, Ordering::Relaxed);
        self.state.touch_progress();
        self.event(
            TelemetryEventKind::RunFinished,
            outcome.results.len() as u64,
            outcome.elapsed.as_micros() as u64,
        );
        // Guarantee at least one sample exists even when the whole run
        // fits inside a single sampler interval.
        self.flight
            .record_sample(&self.state.sample(self.flight.samples_pushed()));
    }
}

impl ShardableSink for TelemetrySink {
    type Shard = TelemetrySink;
    fn make_shard(&self) -> TelemetrySink {
        self.clone()
    }
    fn absorb_shard(&mut self, _shard: TelemetrySink) {
        // Shards share the state; everything is already absorbed.
    }
}

// ---------------------------------------------------------------------
// The telemetry session
// ---------------------------------------------------------------------

/// Tunables of a [`Telemetry`] session.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Sampler period (default 100 ms).
    pub sample_interval: Duration,
    /// Flight-recorder sample-ring capacity (default 256).
    pub sample_capacity: usize,
    /// Flight-recorder event-ring capacity (default 256).
    pub event_capacity: usize,
    /// `/healthz` reports `stalled` when no progress event arrived for
    /// this long (default 10 s).
    pub stall_threshold: Duration,
    /// Record a `node_milestone` event every this many nodes (default
    /// 1024; `0` disables milestones).
    pub node_event_every: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            sample_interval: Duration::from_millis(100),
            sample_capacity: 256,
            event_capacity: 256,
            stall_threshold: Duration::from_secs(10),
            node_event_every: 1024,
        }
    }
}

/// A live telemetry session: shared state, flight recorder, the
/// background sampler thread, and (after [`Telemetry::serve`]) the HTTP
/// scrape endpoint. Dropping the session stops and joins both threads;
/// the rings stay alive as long as any panic hook still references them.
#[derive(Debug)]
pub struct Telemetry {
    state: Arc<TelemetryState>,
    flight: Arc<FlightRecorder>,
    config: TelemetryConfig,
    stop: Arc<AtomicBool>,
    sampler: Option<std::thread::JoinHandle<()>>,
    server: Option<std::thread::JoinHandle<()>>,
}

impl Telemetry {
    /// Start a session with default [`TelemetryConfig`] (spawns the
    /// sampler thread).
    pub fn start() -> Self {
        Self::with_config(TelemetryConfig::default())
    }

    /// Start a session with an explicit configuration.
    pub fn with_config(config: TelemetryConfig) -> Self {
        let state = Arc::new(TelemetryState::new());
        let flight = Arc::new(FlightRecorder::new(
            config.sample_capacity,
            config.event_capacity,
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let state = Arc::clone(&state);
            let flight = Arc::clone(&flight);
            let stop = Arc::clone(&stop);
            let interval = config.sample_interval;
            std::thread::Builder::new()
                .name("pfcim-telemetry-sampler".into())
                .spawn(move || sampler_loop(&state, &flight, &stop, interval))
                .expect("spawning the telemetry sampler thread")
        };
        Self {
            state,
            flight,
            config,
            stop,
            sampler: Some(sampler),
            server: None,
        }
    }

    /// The shared live state (for custom exporters).
    pub fn state(&self) -> Arc<TelemetryState> {
        Arc::clone(&self.state)
    }

    /// The flight recorder.
    pub fn flight(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.flight)
    }

    /// A sink feeding this session; attach it (or any number of clones)
    /// to a [`crate::Miner`] via [`crate::Miner::sink`].
    pub fn sink(&self) -> TelemetrySink {
        TelemetrySink {
            state: Arc::clone(&self.state),
            flight: Arc::clone(&self.flight),
            node_event_every: self.config.node_event_every,
        }
    }

    /// Bind `addr` (e.g. `127.0.0.1:0` — port 0 picks a free port) and
    /// serve `GET /metrics`, `GET /healthz` and `GET /flight` from a
    /// dedicated thread until the session shuts down. Returns the bound
    /// address.
    pub fn serve(&mut self, addr: &str) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let state = Arc::clone(&self.state);
        let flight = Arc::clone(&self.flight);
        let stop = Arc::clone(&self.stop);
        let stall = self.config.stall_threshold;
        self.server = Some(
            std::thread::Builder::new()
                .name("pfcim-telemetry-http".into())
                .spawn(move || serve_loop(&listener, &state, &flight, &stop, stall))
                .expect("spawning the telemetry HTTP thread"),
        );
        Ok(local)
    }

    /// Chain a panic hook that records one final sample and writes the
    /// flight-recorder JSONL to `path` before the previous hook runs, so
    /// a dying run leaves a post-mortem. The hook holds its own `Arc`s
    /// and therefore outlives the session.
    pub fn install_panic_dump(&self, path: impl Into<PathBuf>) {
        let path = path.into();
        let state = Arc::clone(&self.state);
        let flight = Arc::clone(&self.flight);
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            flight.record_sample(&state.sample(flight.samples_pushed()));
            let _ = std::fs::write(&path, flight.to_jsonl());
            previous(info);
        }));
    }

    /// The `/metrics` body: the live registry in Prometheus text format
    /// (prefix `pfcim`), as served by the HTTP endpoint.
    pub fn metrics_text(&self) -> String {
        self.state.registry().to_prometheus("pfcim")
    }

    /// The `/healthz` body.
    pub fn healthz_json(&self) -> String {
        self.state.healthz_json(self.config.stall_threshold)
    }

    /// The `/flight` body (the recorder as JSONL).
    pub fn flight_jsonl(&self) -> String {
        self.flight.to_jsonl()
    }

    /// Stop and join the sampler and HTTP threads. Also runs on drop;
    /// calling it explicitly just makes shutdown visible in the code.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.sampler.take() {
            let _ = h.join();
        }
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

fn sampler_loop(
    state: &TelemetryState,
    flight: &FlightRecorder,
    stop: &AtomicBool,
    interval: Duration,
) {
    // Sleep in short slices so shutdown never waits a full interval.
    let slice = interval
        .min(Duration::from_millis(20))
        .max(Duration::from_millis(1));
    let mut next = Instant::now() + interval;
    while !stop.load(Ordering::SeqCst) {
        if Instant::now() >= next {
            flight.record_sample(&state.sample(flight.samples_pushed()));
            next = Instant::now() + interval;
        }
        std::thread::sleep(slice);
    }
}

// ---------------------------------------------------------------------
// HTTP endpoint (std-only, single-threaded)
// ---------------------------------------------------------------------

fn serve_loop(
    listener: &TcpListener,
    state: &TelemetryState,
    flight: &FlightRecorder,
    stop: &AtomicBool,
    stall_threshold: Duration,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = handle_connection(&mut stream, state, flight, stall_threshold);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn handle_connection(
    stream: &mut TcpStream,
    state: &TelemetryState,
    flight: &FlightRecorder,
    stall_threshold: Duration,
) -> std::io::Result<()> {
    http::serve_connection(stream, |path| match path {
        "/metrics" => http::prometheus(state.registry().to_prometheus("pfcim")),
        "/healthz" => (200, "application/json", state.healthz_json(stall_threshold)),
        "/flight" => (200, "application/x-ndjson", flight.to_jsonl()),
        "/" => (
            200,
            "text/plain",
            "pfcim telemetry: /metrics /healthz /flight\n".to_owned(),
        ),
        _ => http::not_found(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::http_get;
    use crate::metrics::lint_prometheus;
    use proptest::prelude::*;

    fn sample_with(seq: u64, nodes: u64) -> TelemetrySample {
        TelemetrySample {
            version: SAMPLE_VERSION,
            seq,
            nodes,
            elapsed_us: seq * 1000,
            ..TelemetrySample::default()
        }
    }

    #[test]
    fn sample_words_round_trip() {
        let mut s = sample_with(7, 42);
        s.phase_calls[2] = 9;
        s.phase_ns[5] = 123_456;
        s.pool_steals = 3;
        s.last_progress_us = 99;
        let words = s.to_words();
        assert_eq!(TelemetrySample::from_words(&words), Some(s));
        // Unknown versions and short records are rejected, not mangled.
        let mut bad = words;
        bad[0] = SAMPLE_VERSION + 1;
        assert_eq!(TelemetrySample::from_words(&bad), None);
        assert_eq!(TelemetrySample::from_words(&words[..5]), None);
    }

    #[test]
    fn event_words_round_trip() {
        for kind in [
            TelemetryEventKind::RunStarted,
            TelemetryEventKind::RunFinished,
            TelemetryEventKind::Result,
            TelemetryEventKind::NodeMilestone,
        ] {
            let e = TelemetryEvent {
                kind,
                elapsed_us: 10,
                a: 2,
                b: 3,
            };
            assert_eq!(TelemetryEvent::from_words(&e.to_words()), Some(e));
        }
        assert_eq!(TelemetryEvent::from_words(&[99, 0, 0, 0]), None);
    }

    #[test]
    fn ring_returns_pushed_records_in_order() {
        let ring = WordRing::new(8, 3);
        for i in 0..5u64 {
            ring.push(&[i, i * 2, i * 3]);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 5);
        for (expect, (idx, words)) in snap.iter().enumerate() {
            assert_eq!(*idx, expect as u64);
            assert_eq!(
                words,
                &vec![expect as u64, expect as u64 * 2, expect as u64 * 3]
            );
        }
    }

    #[test]
    fn ring_wraparound_keeps_the_newest_records() {
        let cap = 4;
        let ring = WordRing::new(cap, 2);
        for i in 0..19u64 {
            ring.push(&[i, !i]);
        }
        assert_eq!(ring.pushed(), 19);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), cap);
        // Exactly the last `cap` records, oldest first, none torn.
        for (k, (idx, words)) in snap.iter().enumerate() {
            let expect = 19 - cap as u64 + k as u64;
            assert_eq!(*idx, expect);
            assert_eq!(words, &vec![expect, !expect]);
        }
    }

    #[test]
    fn ring_pads_and_truncates_records() {
        let ring = WordRing::new(2, 3);
        ring.push(&[1]);
        ring.push(&[1, 2, 3, 4, 5]);
        let snap = ring.snapshot();
        assert_eq!(snap[0].1, vec![1, 0, 0]);
        assert_eq!(snap[1].1, vec![1, 2, 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Concurrent writers and a racing reader: every record the
        /// snapshot returns must be internally consistent (never torn),
        /// and the final snapshot holds exactly the newest records.
        #[test]
        fn ring_is_consistent_under_concurrency(
            cap in 1usize..16,
            per_writer in 1u64..200,
            writers in 1usize..4,
        ) {
            let ring = WordRing::new(cap, 3);
            let torn = std::sync::atomic::AtomicU64::new(0);
            std::thread::scope(|scope| {
                for w in 0..writers {
                    let ring = &ring;
                    scope.spawn(move || {
                        for i in 0..per_writer {
                            let tag = (w as u64) << 32 | i;
                            // Word derivation a reader can verify.
                            ring.push(&[tag, tag.wrapping_mul(3), tag ^ 0xABCD]);
                        }
                    });
                }
                // Reader races the writers, checking internal consistency.
                let ring = &ring;
                let torn = &torn;
                scope.spawn(move || {
                    for _ in 0..50 {
                        for (_, words) in ring.snapshot() {
                            let tag = words[0];
                            if words[1] != tag.wrapping_mul(3) || words[2] != (tag ^ 0xABCD) {
                                torn.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            });
            prop_assert_eq!(torn.load(Ordering::Relaxed), 0, "torn records observed");
            // At rest: full, consistent, exactly the newest records.
            let total = per_writer * writers as u64;
            prop_assert_eq!(ring.pushed(), total);
            let snap = ring.snapshot();
            prop_assert_eq!(snap.len(), cap.min(total as usize));
            for (idx, words) in &snap {
                prop_assert!(*idx >= total.saturating_sub(cap as u64));
                let tag = words[0];
                prop_assert_eq!(words[1], tag.wrapping_mul(3));
                prop_assert_eq!(words[2], tag ^ 0xABCD);
            }
        }
    }

    fn paper_db() -> utdb::UncertainDatabase {
        utdb::UncertainDatabase::parse_symbolic(&[
            ("a b c d", 0.9),
            ("a b c", 0.6),
            ("a b c", 0.7),
            ("a b c d", 0.9),
        ])
    }

    #[test]
    fn sink_counts_match_the_outcome() {
        let db = paper_db();
        let telemetry = Telemetry::start();
        let mut sink = telemetry.sink();
        let outcome = crate::Miner::new(&db)
            .min_sup(2)
            .pfct(0.8)
            .sink(&mut sink)
            .run();
        let state = telemetry.state();
        let sample = state.sample(0);
        assert_eq!(sample.nodes, outcome.stats.nodes_visited);
        assert_eq!(sample.results, outcome.results.len() as u64);
        assert_eq!(
            sample.dp_incremental + sample.dp_rebuilt,
            outcome.audit.total()
        );
        assert!(state.finished());
        // run_finished records a final sample even without the sampler
        // ever ticking.
        assert!(telemetry.flight().samples_pushed() >= 1);
        let kinds: Vec<_> = telemetry.flight().events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&TelemetryEventKind::RunStarted));
        assert!(kinds.contains(&TelemetryEventKind::RunFinished));
        telemetry.shutdown();
    }

    #[test]
    fn metrics_text_passes_the_linter() {
        // Through a snapshot, whose table cache gives the hit-rate gauge
        // lookups to divide.
        let snapshot = crate::Snapshot::new("t", paper_db());
        let telemetry = Telemetry::start();
        let mut sink = telemetry.sink();
        snapshot.miner().min_sup(2).pfct(0.8).sink(&mut sink).run();
        let text = telemetry.metrics_text();
        lint_prometheus(&text).unwrap();
        assert!(text.contains("pfcim_nodes_visited"));
        assert!(text.contains("pfcim_bound_cache_hit_rate"));
        assert!(text.contains("pfcim_families_screened "));
        let health = telemetry.healthz_json();
        assert!(health.contains("\"status\":\"finished\""));
        assert!(health.contains("\"eta_s\":0"));
    }

    #[test]
    fn flight_jsonl_is_line_parseable() {
        let db = paper_db();
        let telemetry = Telemetry::start();
        let mut sink = telemetry.sink();
        crate::Miner::new(&db)
            .min_sup(2)
            .pfct(0.8)
            .sink(&mut sink)
            .run();
        let dump = telemetry.flight_jsonl();
        assert!(dump.lines().count() >= 2);
        for line in dump.lines() {
            assert!(
                line.starts_with("{\"record\":\"") && line.ends_with('}'),
                "{line}"
            );
        }
        assert!(dump.contains("\"record\":\"sample\""));
        assert!(dump.contains("\"kind\":\"run_finished\""));
    }

    #[test]
    fn http_endpoint_serves_all_routes() {
        let db = paper_db();
        let mut telemetry = Telemetry::start();
        let addr = telemetry
            .serve("127.0.0.1:0")
            .expect("binding an ephemeral loopback port");
        let addr = addr.to_string();
        let mut sink = telemetry.sink();
        crate::Miner::new(&db)
            .min_sup(2)
            .pfct(0.8)
            .sink(&mut sink)
            .run();
        let timeout = Duration::from_secs(5);
        let (status, body) = http_get(&addr, "/metrics", timeout).unwrap();
        assert_eq!(status, 200);
        lint_prometheus(&body).unwrap();
        let (status, body) = http_get(&addr, "/healthz", timeout).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"status\""));
        let (status, body) = http_get(&addr, "/flight", timeout).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"record\":\"sample\""));
        let (status, _) = http_get(&addr, "/nope", timeout).unwrap();
        assert_eq!(status, 404);
        let (status, body) = http_get(&addr, "/", timeout).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("/metrics"));
        telemetry.shutdown();
    }

    #[test]
    fn sampler_records_periodic_samples() {
        let telemetry = Telemetry::with_config(TelemetryConfig {
            sample_interval: Duration::from_millis(5),
            ..TelemetryConfig::default()
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while telemetry.flight().samples_pushed() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            telemetry.flight().samples_pushed() >= 3,
            "sampler produced no samples"
        );
        let samples = telemetry.flight().samples();
        for pair in samples.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
            assert!(pair[0].elapsed_us <= pair[1].elapsed_us);
        }
        telemetry.shutdown();
    }
}
