//! Hierarchical span profiling for mining runs.
//!
//! [`SpanProfiler`] is a [`MinerSink`] that reconstructs a tree of timed
//! *spans* from the event stream: one `run` span per mining run, one
//! `node` span per enumeration-tree node (nested by itemset depth, so a
//! DFS path shows up as a stack), one leaf span per timed phase
//! ([`Phase`]) and — when the parallel miner hands pool observations over
//! via [`MinerSink::pool_span`] — `task`/`steal`/`idle` spans on
//! per-worker tracks.
//!
//! Spans live on *tracks* (one per thread of activity): track `0` is the
//! caller thread, each parallel shard allocates the next track id from a
//! shared counter, and pool workers map onto a dedicated track range.
//! Within a track spans strictly nest — a span's interval always lies
//! inside its parent's — which is exactly the shape the Chrome
//! trace-event viewer (Perfetto, `chrome://tracing`) expects from
//! [`SpanProfiler::chrome_trace_json`].
//!
//! Timestamps are only taken while profiling is enabled; the
//! [`SpanProfiler::disabled`] constructor reports
//! [`MinerSink::is_enabled`]` == false` and records nothing, so an
//! optionally-attached profiler costs one branch per callback. A
//! sampling rate ([`SpanProfiler::with_sampling`]) bounds overhead on
//! large runs by recording only every N-th node span (phases inside a
//! sampled-out node are skipped with it).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::config::MinerConfig;
use crate::par::{PoolSpan, PoolSpanKind};
use crate::result::MiningOutcome;
use crate::trace::{MinerSink, Phase, ShardableSink};

/// Track id of the caller thread.
const MAIN_TRACK: u32 = 0;

/// Pool workers are mapped to `WORKER_TRACK_BASE + worker_index` —
/// far above any shard track id the run could allocate.
const WORKER_TRACK_BASE: u32 = 1_000_000;

/// What a recorded span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole mining run (`run_started` … `run_finished`).
    Run,
    /// One enumeration-tree node; its `arg` is the itemset depth.
    Node,
    /// One timed phase (see [`Phase`]).
    Phase(Phase),
    /// A work-stealing-pool observation on a worker track; its `arg` is
    /// the task index for [`PoolSpanKind::Task`].
    Pool(PoolSpanKind),
}

impl SpanKind {
    /// Stable snake_case name used in exported traces.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Node => "node",
            SpanKind::Phase(p) => p.name(),
            SpanKind::Pool(k) => k.name(),
        }
    }
}

/// Handle to an open span returned by [`SpanProfiler::enter`]; closing it
/// with [`SpanProfiler::exit`] stamps the duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The profiler is disabled (or the span was otherwise not
    /// recorded); [`SpanProfiler::exit`] ignores it.
    pub const NONE: SpanId = SpanId(usize::MAX);
    /// The span fell inside a sampled-out node; nothing was recorded.
    pub const SUPPRESSED: SpanId = SpanId(usize::MAX - 1);
}

/// One closed span: a `[start, start + dur]` interval on a track,
/// relative to the profiler's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was measured.
    pub kind: SpanKind,
    /// Kind-specific argument (node depth or pool task index).
    pub arg: u64,
    /// Which track (thread of activity) the span lies on.
    pub track: u32,
    /// Start offset from the profiler's epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl Span {
    /// End offset from the epoch, in nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// A [`MinerSink`] that records hierarchical timing spans (see the
/// module docs) and exports them as a Chrome trace-event JSON file.
#[derive(Debug)]
pub struct SpanProfiler {
    enabled: bool,
    epoch: Instant,
    /// Record every `sample_every`-th node span (1 = all).
    sample_every: u32,
    track: u32,
    next_track: Arc<AtomicU32>,
    spans: Vec<Span>,
    /// Indices of open spans, innermost last (strict stack discipline).
    stack: Vec<usize>,
    /// Open node spans as `(stack position's span index, depth)`.
    open_nodes: Vec<(usize, u64)>,
    nodes_seen: u64,
    /// True while inside a sampled-out node: phases are skipped too.
    suppressing: bool,
}

impl Default for SpanProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanProfiler {
    /// A profiler recording every span, with its epoch at `now`.
    pub fn new() -> Self {
        Self {
            enabled: true,
            epoch: Instant::now(),
            sample_every: 1,
            track: MAIN_TRACK,
            next_track: Arc::new(AtomicU32::new(MAIN_TRACK + 1)),
            spans: Vec::new(),
            stack: Vec::new(),
            open_nodes: Vec::new(),
            nodes_seen: 0,
            suppressing: false,
        }
    }

    /// A profiler that records nothing and reports
    /// [`MinerSink::is_enabled`]` == false` — for proving profiling off
    /// is free.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Record only every `n`-th node span (and the phases inside it);
    /// `0` is treated as `1` (record everything). Run spans and pool
    /// spans are never sampled out.
    pub fn with_sampling(mut self, n: u32) -> Self {
        self.sample_every = n.max(1);
        self
    }

    /// The recorded (closed) spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nodes observed (before sampling).
    pub fn nodes_seen(&self) -> u64 {
        self.nodes_seen
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span of `kind` now. Returns [`SpanId::NONE`] when disabled
    /// and [`SpanId::SUPPRESSED`] inside a sampled-out node.
    pub fn enter(&mut self, kind: SpanKind, arg: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        if self.suppressing && matches!(kind, SpanKind::Phase(_)) {
            return SpanId::SUPPRESSED;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            kind,
            arg,
            track: self.track,
            start_ns: self.now_ns(),
            dur_ns: 0,
        });
        self.stack.push(idx);
        SpanId(idx)
    }

    /// Close the span `id` (and any still-open spans nested inside it),
    /// stamping durations at `now`. Sentinel ids are ignored.
    pub fn exit(&mut self, id: SpanId) {
        if id == SpanId::NONE || id == SpanId::SUPPRESSED {
            return;
        }
        let end = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.open_nodes.retain(|(idx, _)| *idx != top);
            self.spans[top].dur_ns = end.saturating_sub(self.spans[top].start_ns);
            if top == id.0 {
                break;
            }
        }
    }

    /// Close every open span. The main profiler closes at `now` (run
    /// end); absorbed shards close at their own last recorded end so the
    /// post-subtree wait at the join barrier is not billed to them.
    fn close_open(&mut self, at_ns: u64) {
        while let Some(top) = self.stack.pop() {
            self.spans[top].dur_ns = at_ns.saturating_sub(self.spans[top].start_ns);
        }
        self.open_nodes.clear();
        self.suppressing = false;
    }

    /// End offset of the last recorded span (0 when empty).
    fn last_end_ns(&self) -> u64 {
        self.spans.iter().map(Span::end_ns).max().unwrap_or(0)
    }

    /// Human-readable name of a track, for trace metadata.
    fn track_name(track: u32) -> String {
        if track == MAIN_TRACK {
            "main".to_owned()
        } else if track >= WORKER_TRACK_BASE {
            format!("worker-{}", track - WORKER_TRACK_BASE)
        } else {
            format!("shard-{track}")
        }
    }

    /// Export every recorded span as Chrome trace-event JSON — an object
    /// with a `traceEvents` array of complete (`"ph":"X"`) events plus
    /// one `thread_name` metadata event per track, loadable in Perfetto
    /// or `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
        let mut tracks: Vec<u32> = self.spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for track in &tracks {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{track},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                Self::track_name(*track)
            );
        }
        for s in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let arg_key = match s.kind {
                SpanKind::Node => "depth",
                SpanKind::Pool(PoolSpanKind::Task) => "task",
                _ => "arg",
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"mpfci\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"{arg_key}\":{}}}}}",
                s.kind.name(),
                us(s.start_ns),
                us(s.dur_ns),
                s.track,
                s.arg,
            );
        }
        out.push_str("]}");
        out
    }
}

impl MinerSink for SpanProfiler {
    fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn run_started(&mut self, _algo: &str, _config: &MinerConfig) {
        let id = self.enter(SpanKind::Run, 0);
        let _ = id; // stays open until run_finished closes the stack
    }

    fn node_entered(&mut self, depth: usize) {
        if !self.enabled {
            return;
        }
        let depth = depth as u64;
        // Close open node spans at or below this depth: the DFS has
        // backtracked out of them (BFS depths never decrease, so levels
        // degrade to sibling spans).
        while let Some(&(idx, d)) = self.open_nodes.last() {
            if d < depth {
                break;
            }
            self.exit(SpanId(idx));
        }
        self.nodes_seen += 1;
        if !self.nodes_seen.is_multiple_of(u64::from(self.sample_every)) {
            self.suppressing = true;
            return;
        }
        self.suppressing = false;
        let id = self.enter(SpanKind::Node, depth);
        if id != SpanId::NONE {
            self.open_nodes.push((id.0, depth));
        }
    }

    fn phase_start(&mut self, phase: Phase) {
        // Phases come in strict immediate pairs (the `timed` helper runs
        // a closure), so the matching `phase_end` closes the stack top.
        self.enter(SpanKind::Phase(phase), 0);
    }

    fn phase_end(&mut self, phase: Phase, _elapsed: Duration) {
        if !self.enabled || self.suppressing {
            return;
        }
        if let Some(&top) = self.stack.last() {
            if self.spans[top].kind == SpanKind::Phase(phase) {
                self.exit(SpanId(top));
            }
        }
    }

    fn pool_span(&mut self, span: &PoolSpan) {
        if !self.enabled {
            return;
        }
        let start_ns = span.start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            kind: SpanKind::Pool(span.kind),
            arg: span.task as u64,
            track: WORKER_TRACK_BASE + span.worker,
            start_ns,
            dur_ns: span.dur.as_nanos() as u64,
        });
    }

    fn run_finished(&mut self, _outcome: &MiningOutcome) {
        if self.enabled {
            let now = self.now_ns();
            self.close_open(now);
        }
    }
}

/// Shards share the parent's epoch and track counter; each records onto
/// its own track, so absorbing in canonical root-id order yields a
/// deterministic track assignment and span order.
impl ShardableSink for SpanProfiler {
    type Shard = SpanProfiler;

    fn make_shard(&self) -> SpanProfiler {
        SpanProfiler {
            enabled: self.enabled,
            epoch: self.epoch,
            sample_every: self.sample_every,
            track: self.next_track.fetch_add(1, Ordering::Relaxed),
            next_track: Arc::clone(&self.next_track),
            spans: Vec::new(),
            stack: Vec::new(),
            open_nodes: Vec::new(),
            nodes_seen: 0,
            suppressing: false,
        }
    }

    fn absorb_shard(&mut self, mut shard: SpanProfiler) {
        let last = shard.last_end_ns();
        shard.close_open(last);
        self.spans.extend(shard.spans);
        self.nodes_seen += shard.nodes_seen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::{Algorithm, Miner};
    use crate::trace::NullSink;
    use utdb::UncertainDatabase;

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

    /// Spans on the same track must strictly nest: any two either are
    /// disjoint or one contains the other.
    fn assert_nested(spans: &[Span]) {
        for (i, a) in spans.iter().enumerate() {
            for b in &spans[i + 1..] {
                if a.track != b.track {
                    continue;
                }
                let disjoint = a.end_ns() <= b.start_ns || b.end_ns() <= a.start_ns;
                let a_in_b = b.start_ns <= a.start_ns && a.end_ns() <= b.end_ns();
                let b_in_a = a.start_ns <= b.start_ns && b.end_ns() <= a.end_ns();
                assert!(
                    disjoint || a_in_b || b_in_a,
                    "overlapping spans on track {}: {a:?} vs {b:?}",
                    a.track
                );
            }
        }
    }

    #[test]
    fn profiler_records_run_node_and_phase_spans() {
        let db = table4();
        let mut prof = SpanProfiler::new();
        let out = Miner::new(&db).min_sup(2).pfct(0.8).sink(&mut prof).run();
        assert!(!out.results.is_empty());
        let runs = prof.spans().iter().filter(|s| s.kind == SpanKind::Run);
        assert_eq!(runs.count(), 1);
        let nodes = prof
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Node)
            .count() as u64;
        assert_eq!(nodes, out.stats.nodes_visited);
        assert_eq!(prof.nodes_seen(), out.stats.nodes_visited);
        assert!(prof
            .spans()
            .iter()
            .any(|s| matches!(s.kind, SpanKind::Phase(_))));
        // Everything is closed and nests.
        assert!(prof.stack.is_empty());
        assert_nested(prof.spans());
    }

    #[test]
    fn node_spans_nest_by_depth() {
        let db = table4();
        let mut prof = SpanProfiler::new();
        Miner::new(&db).min_sup(2).pfct(0.8).sink(&mut prof).run();
        // A depth-2 node span must lie inside some depth-1 node span.
        let nodes: Vec<&Span> = prof
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Node)
            .collect();
        for deep in nodes.iter().filter(|s| s.arg == 2) {
            assert!(
                nodes.iter().any(|outer| outer.arg == 1
                    && outer.start_ns <= deep.start_ns
                    && deep.end_ns() <= outer.end_ns()),
                "depth-2 span not nested in a depth-1 span"
            );
        }
    }

    #[test]
    fn sampling_records_a_subset_of_nodes() {
        // One worker: each parallel shard samples its own every-N-th node,
        // so the exact `nodes / N` count below holds for a single shard.
        let db = table4();
        let mut full = SpanProfiler::new();
        let out_full = Miner::new(&db)
            .min_sup(2)
            .pfct(0.8)
            .threads(1)
            .sink(&mut full)
            .run();
        let mut sampled = SpanProfiler::new().with_sampling(4);
        let out_sampled = Miner::new(&db)
            .min_sup(2)
            .pfct(0.8)
            .threads(1)
            .sink(&mut sampled)
            .run();
        assert_eq!(out_full.itemsets(), out_sampled.itemsets());
        let count = |p: &SpanProfiler| {
            p.spans()
                .iter()
                .filter(|s| s.kind == SpanKind::Node)
                .count() as u64
        };
        assert_eq!(count(&full), out_full.stats.nodes_visited);
        assert_eq!(count(&sampled), out_sampled.stats.nodes_visited / 4);
        assert_nested(sampled.spans());
    }

    #[test]
    fn disabled_profiler_records_nothing_and_perturbs_nothing() {
        let db = table4();
        let mut prof = SpanProfiler::disabled();
        let with = Miner::new(&db).min_sup(2).pfct(0.8).sink(&mut prof).run();
        let without = Miner::new(&db).min_sup(2).pfct(0.8).run();
        assert!(!prof.is_enabled());
        assert!(prof.spans().is_empty());
        assert_eq!(with.itemsets(), without.itemsets());
        assert_eq!(with.stats, without.stats);
        assert_eq!(with.kernel, without.kernel);
        assert_eq!(with.audit, without.audit);
        for (a, b) in with.results.iter().zip(&without.results) {
            assert!((a.fcp - b.fcp).abs() < 1e-15);
        }
    }

    #[test]
    fn parallel_run_places_shards_on_distinct_tracks() {
        let db = table4();
        let mut prof = SpanProfiler::new();
        let par = Miner::new(&db)
            .min_sup(2)
            .pfct(0.8)
            .threads(4)
            .sink(&mut prof)
            .run();
        let seq = Miner::new(&db)
            .min_sup(2)
            .pfct(0.8)
            .sink(&mut NullSink)
            .run();
        assert_eq!(par.itemsets(), seq.itemsets());
        let mut tracks: Vec<u32> = prof.spans().iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        // Main track plus at least one shard track.
        assert!(tracks.contains(&MAIN_TRACK));
        assert!(
            tracks.iter().any(|t| *t > MAIN_TRACK),
            "no shard tracks: {tracks:?}"
        );
        // Pool observations land on worker tracks.
        assert!(
            prof.spans()
                .iter()
                .any(|s| matches!(s.kind, SpanKind::Pool(_)) && s.track >= WORKER_TRACK_BASE),
            "no pool spans on worker tracks"
        );
        assert_nested(prof.spans());
    }

    #[test]
    fn bfs_and_naive_runs_profile_cleanly() {
        let db = table4();
        for algorithm in [Algorithm::Bfs, Algorithm::Naive] {
            let mut prof = SpanProfiler::new();
            let out = Miner::new(&db)
                .min_sup(2)
                .pfct(0.8)
                .algorithm(algorithm)
                .sink(&mut prof)
                .run();
            let nodes = prof
                .spans()
                .iter()
                .filter(|s| s.kind == SpanKind::Node)
                .count() as u64;
            assert_eq!(nodes, out.stats.nodes_visited, "{algorithm:?}");
            assert!(prof.stack.is_empty());
            assert_nested(prof.spans());
        }
    }

    #[test]
    fn chrome_trace_has_events_and_thread_names() {
        let db = table4();
        let mut prof = SpanProfiler::new();
        Miner::new(&db).min_sup(2).pfct(0.8).sink(&mut prof).run();
        let json = prof.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"main\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"node\""));
    }

    #[test]
    fn enter_exit_sentinels_are_inert() {
        let mut prof = SpanProfiler::disabled();
        let id = prof.enter(SpanKind::Run, 0);
        assert_eq!(id, SpanId::NONE);
        prof.exit(id);
        prof.exit(SpanId::SUPPRESSED);
        assert!(prof.spans().is_empty());
    }
}
