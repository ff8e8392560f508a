//! Pluggable observability for mining runs: event sinks, JSONL traces,
//! and phase timing.
//!
//! Every miner accepts a [`MinerSink`] via
//! [`crate::Miner::sink`] — an observer that receives a callback for each
//! significant step of the Bounding–Pruning–Checking framework:
//! enumeration-tree nodes, pruning decisions, frequent-probability DP
//! evaluations, FCP bound computations, exact/sampled FCP evaluations and
//! emitted results. The miners are generic over the sink type, so the
//! no-op [`NullSink`] monomorphizes to nothing: unobserved runs pay
//! no callback cost and produce byte-identical results.
//!
//! Provided sinks:
//!
//! * [`NullSink`] — discards everything (the default).
//! * [`RunLedger`] — the counter ledger: every event bumps exactly one
//!   counter. Each run keeps one internally and forwards every event it
//!   records to the user's sink, so the outcome's counters and the event
//!   stream cannot disagree; attached as a sink, or fed a parsed trace
//!   through [`RunLedger::absorb_event`], it rebuilds those counters.
//! * [`RecordingSink`] — buffers every event as a [`TraceEvent`].
//! * [`JsonlSink`] — streams events as JSON Lines (schema below).
//! * [`ProgressSink`] — throttled stderr heartbeat (nodes/sec, pruning
//!   mix, elapsed versus the configured time budget).
//! * [`Tee`] — fans events out to two sinks.
//!
//! # JSONL schema
//!
//! One JSON object per line, discriminated by the `"ev"` key. All values
//! are flat scalars except `result.items` (an array of item ids):
//!
//! ```text
//! {"ev":"run_start","algo":"dfs","min_sup":2,"pfct":0.8,"epsilon":0.1,"delta":0.1}
//! {"ev":"node","depth":1}
//! {"ev":"prune","kind":"superset"}
//! {"ev":"freq_prob","pr_f":0.9985}
//! {"ev":"dp_decision","reason":"err_tol","magnitude":5.2e-8}
//! {"ev":"fcp_bounds","lower":0.85,"upper":0.92}
//! {"ev":"fcp_eval","method":"sampled","samples":59915}
//! {"ev":"result","items":[0,1,2],"fcp":0.8754}
//! {"ev":"delta","kind":"added","items":[0,1,2],"fcp":0.8754}
//! {"ev":"phase_start","phase":"freq_dp"}
//! {"ev":"phase_end","phase":"freq_dp","nanos":123456}
//! {"ev":"run_end","elapsed_nanos":1234567,"results":2,"timed_out":false}
//! ```
//!
//! `prune.kind` ∈ {`chernoff_hoeffding`, `freq_prob`, `superset`,
//! `subset`, `bound_reject`}; `fcp_eval.method` ∈ {`exact`, `sampled`,
//! `bound_decided`}; `phase` ∈ {`freq_dp`, `ch_bound`, `event_build`,
//! `bound_eval`, `fcp_exact`, `fcp_sample`}; `dp_decision.reason` ∈
//! {`incremental`, `fresh_root`, `fresh_level`, `cost_skip`,
//! `downdate_cap`, `err_tol`, `row_validation`, `degenerate`}, with
//! `magnitude` present only for the two refusal reasons that carry one
//! (see [`DpDecision`]); `delta.kind` ∈ {`added`, `removed`, `updated`}
//! (stream-mode pattern deltas, see
//! [`MinerSink::pattern_delta`]). Floats use Rust's shortest
//! round-trip rendering, so parsing a trace back recovers the exact
//! values ([`parse_jsonl`]).

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use utdb::Item;

use crate::config::MinerConfig;
use crate::result::{MiningOutcome, PatternDelta};
use crate::stats::RunLedger;

/// The instrumented phases of a mining run, in the order they typically
/// occur per candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Exact frequent-probability dynamic program (`Pr_F` tail).
    FreqDp,
    /// Chernoff–Hoeffding refutation test (Lemma 4.1).
    ChBound,
    /// Construction of the non-closure event family.
    EventBuild,
    /// FCP lower/upper bound evaluation (Lemma 4.4).
    BoundEval,
    /// Exact FCP by inclusion–exclusion over the event family's support
    /// lattice. Also holds the walks the `Auto` planner abandons at its
    /// work budget before it samples the family instead.
    FcpExact,
    /// Sampled FCP via the Karp–Luby `ApproxFCP` FPRAS.
    FcpSample,
}

impl Phase {
    /// Number of phases (array dimension of [`PhaseTimers`](crate::stats::PhaseTimers)).
    pub const COUNT: usize = 6;

    /// Every phase, in canonical order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::FreqDp,
        Phase::ChBound,
        Phase::EventBuild,
        Phase::BoundEval,
        Phase::FcpExact,
        Phase::FcpSample,
    ];

    /// Stable snake_case name used in traces and CSV columns.
    pub fn name(self) -> &'static str {
        match self {
            Phase::FreqDp => "freq_dp",
            Phase::ChBound => "ch_bound",
            Phase::EventBuild => "event_build",
            Phase::BoundEval => "bound_eval",
            Phase::FcpExact => "fcp_exact",
            Phase::FcpSample => "fcp_sample",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Dense index in `0..Phase::COUNT`.
    pub fn index(self) -> usize {
        match self {
            Phase::FreqDp => 0,
            Phase::ChBound => 1,
            Phase::EventBuild => 2,
            Phase::BoundEval => 3,
            Phase::FcpExact => 4,
            Phase::FcpSample => 5,
        }
    }
}

/// Which pruning fired (the counters of [`MinerStats`](crate::stats::MinerStats), as events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneKind {
    /// Chernoff–Hoeffding refutation (Lemma 4.1) — `ch_pruned`.
    ChernoffHoeffding,
    /// Exact `Pr_F ≤ pfct` (anti-monotone subtree cut) — `freq_pruned`.
    FreqProb,
    /// Superset pruning (Lemma 4.2) — `superset_pruned`.
    Superset,
    /// Subset pruning (Lemma 4.3) — `subset_pruned`.
    Subset,
    /// FCP upper bound at or below `pfct` (Lemma 4.4) — `bound_rejected`.
    BoundReject,
}

impl PruneKind {
    /// Every kind, in [`MinerStats`](crate::stats::MinerStats) field order.
    pub const ALL: [PruneKind; 5] = [
        PruneKind::ChernoffHoeffding,
        PruneKind::FreqProb,
        PruneKind::Superset,
        PruneKind::Subset,
        PruneKind::BoundReject,
    ];

    /// Stable snake_case name used in traces.
    pub fn name(self) -> &'static str {
        match self {
            PruneKind::ChernoffHoeffding => "chernoff_hoeffding",
            PruneKind::FreqProb => "freq_prob",
            PruneKind::Superset => "superset",
            PruneKind::Subset => "subset",
            PruneKind::BoundReject => "bound_reject",
        }
    }

    /// Inverse of [`PruneKind::name`].
    pub fn from_name(name: &str) -> Option<PruneKind> {
        PruneKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The outcome of one frequentness-DP row qualification: either the
/// incremental downdate fast path, or one of the structured reasons the
/// miner rebuilt the row from scratch instead (the decision-audit
/// channel behind [`crate::stats::DpAudit`]).
///
/// Exactly one `dp_decision` event fires per DP row the miner produces,
/// so per-reason counts reconcile with
/// [`crate::stats::KernelStats::dp_rows`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DpDecision {
    /// The parent row was downdated successfully (`dp_incremental`).
    Incremental,
    /// A subtree root has no parent row — built from scratch.
    FreshRoot,
    /// The level-wise BFS miner never downdates — built from scratch.
    FreshLevel,
    /// The downdate would touch at least as many transactions as a
    /// rebuild, so rebuilding was cheaper.
    CostSkip,
    /// The parent row had accumulated the maximum number of downdates.
    DowndateCap,
    /// A removal was refused because the *measured* error bound of the
    /// downdated row exceeded the configured `dp_error_tol`, or the
    /// miner certified before trying that it would
    /// ([`prob::TailDp::refusal_certificate`]); `measured` is the bound,
    /// so a histogram of measured errors shows how far past the tolerance
    /// refused removals land.
    ErrTol {
        /// Projected absolute error of the refused downdate's row, or the
        /// certificate's lower bound on it.
        measured: f64,
    },
    /// A removal was refused because a divided-out DP row left `[0, 1]`;
    /// `violation` is how far outside the range it landed.
    RowValidation {
        /// Distance outside the valid probability range.
        violation: f64,
    },
    /// A removal was refused on degenerate input (empty row or `p = 1`).
    Degenerate,
}

impl DpDecision {
    /// Stable snake_case name used in traces, metrics and reports.
    pub fn name(self) -> &'static str {
        match self {
            DpDecision::Incremental => "incremental",
            DpDecision::FreshRoot => "fresh_root",
            DpDecision::FreshLevel => "fresh_level",
            DpDecision::CostSkip => "cost_skip",
            DpDecision::DowndateCap => "downdate_cap",
            DpDecision::ErrTol { .. } => "err_tol",
            DpDecision::RowValidation { .. } => "row_validation",
            DpDecision::Degenerate => "degenerate",
        }
    }

    /// The refusal magnitude, for the reasons that carry one.
    pub fn magnitude(self) -> Option<f64> {
        match self {
            DpDecision::ErrTol { measured } => Some(measured),
            DpDecision::RowValidation { violation } => Some(violation),
            _ => None,
        }
    }

    /// Rebuild a decision from its trace form (inverse of
    /// [`DpDecision::name`] plus the optional magnitude). Reasons that
    /// carry a magnitude default it to `0` when absent.
    pub fn from_parts(name: &str, magnitude: Option<f64>) -> Option<DpDecision> {
        Some(match name {
            "incremental" => DpDecision::Incremental,
            "fresh_root" => DpDecision::FreshRoot,
            "fresh_level" => DpDecision::FreshLevel,
            "cost_skip" => DpDecision::CostSkip,
            "downdate_cap" => DpDecision::DowndateCap,
            "err_tol" => DpDecision::ErrTol {
                measured: magnitude.unwrap_or(0.0),
            },
            "row_validation" => DpDecision::RowValidation {
                violation: magnitude.unwrap_or(0.0),
            },
            "degenerate" => DpDecision::Degenerate,
            _ => return None,
        })
    }
}

/// The direction of a stream-mode pattern delta (the discriminant of
/// [`PatternDelta`], in trace form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaKind {
    /// The pattern entered the PFCI set.
    Added,
    /// The pattern left the PFCI set.
    Removed,
    /// The pattern stayed but its probabilities changed.
    Updated,
}

impl DeltaKind {
    /// Stable snake_case name used in traces.
    pub fn name(self) -> &'static str {
        match self {
            DeltaKind::Added => "added",
            DeltaKind::Removed => "removed",
            DeltaKind::Updated => "updated",
        }
    }

    /// Inverse of [`DeltaKind::name`].
    pub fn from_name(name: &str) -> Option<DeltaKind> {
        [DeltaKind::Added, DeltaKind::Removed, DeltaKind::Updated]
            .into_iter()
            .find(|k| k.name() == name)
    }

    /// The trace discriminant of an owned delta.
    pub fn of(delta: &PatternDelta) -> DeltaKind {
        match delta {
            PatternDelta::Added(_) => DeltaKind::Added,
            PatternDelta::Removed(_) => DeltaKind::Removed,
            PatternDelta::Updated { .. } => DeltaKind::Updated,
        }
    }
}

/// How an itemset's FCP was settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FcpEvalKind {
    /// Exact inclusion–exclusion — `fcp_exact`.
    Exact,
    /// Karp–Luby sampling — `fcp_sampled` (with the samples drawn).
    Sampled,
    /// Upper and lower bounds coincided — `bound_decided`, no FCP pass.
    BoundDecided,
}

impl FcpEvalKind {
    /// Stable snake_case name used in traces.
    pub fn name(self) -> &'static str {
        match self {
            FcpEvalKind::Exact => "exact",
            FcpEvalKind::Sampled => "sampled",
            FcpEvalKind::BoundDecided => "bound_decided",
        }
    }

    /// Inverse of [`FcpEvalKind::name`].
    pub fn from_name(name: &str) -> Option<FcpEvalKind> {
        [
            FcpEvalKind::Exact,
            FcpEvalKind::Sampled,
            FcpEvalKind::BoundDecided,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }
}

/// Observer of a mining run.
///
/// Every callback has a no-op default, so a sink implements only what it
/// cares about. The miners are generic over `S: MinerSink + ?Sized` —
/// concrete sinks are monomorphized (a [`NullSink`] disappears
/// entirely), and `&mut dyn MinerSink` works where dynamic dispatch is
/// preferred.
///
/// Every [`MinerStats`](crate::stats::MinerStats) counter is one event (see [`RunLedger`] for the
/// mapping): the run's own counters are its events, recorded in its
/// ledger on their way to this sink.
#[allow(unused_variables)]
pub trait MinerSink {
    /// False for sinks that discard everything; lets callers skip
    /// building expensive payloads. The miners themselves never branch on
    /// it — their callbacks compile out for [`NullSink`].
    fn is_enabled(&self) -> bool {
        true
    }

    /// A run begins. `algo` is `"dfs"`, `"bfs"` or `"naive"`.
    fn run_started(&mut self, algo: &str, config: &MinerConfig) {}

    /// An enumeration-tree node (candidate itemset of size `depth`) is
    /// being processed.
    fn node_entered(&mut self, depth: usize) {}

    /// A pruning rule eliminated a candidate or subtree.
    fn prune_fired(&mut self, kind: PruneKind) {}

    /// The exact frequent-probability DP ran and returned `pr_f`.
    fn freq_prob_evaluated(&mut self, pr_f: f64) {}

    /// One frequentness-DP row was produced and the build-vs-downdate
    /// choice settled with `decision` — the decision-audit channel.
    /// Fires exactly once per DP row, immediately after the row exists.
    fn dp_decision(&mut self, decision: DpDecision) {}

    /// A work-stealing-pool span (task execution, successful steal, or
    /// terminal idle sweep) observed during a parallel fan-out. Pool
    /// spans are buffered by the workers and replayed on the caller
    /// thread after the join barrier, in worker order.
    fn pool_span(&mut self, span: &crate::par::PoolSpan) {}

    /// Live work-stealing-pool gauges this sink wants the parallel
    /// fan-out to feed *while workers run* (queue depth, per-worker
    /// task/steal/idle counts). `None` — the default — means the sink
    /// only needs the post-join [`MinerSink::pool_span`] replay. The
    /// parallel driver asks once per fan-out; combinators forward the
    /// first `Some` they find.
    fn pool_gauges(&self) -> Option<std::sync::Arc<crate::par::PoolGauges>> {
        None
    }

    /// FCP bounds (Lemma 4.4) were computed for a candidate.
    fn fcp_bounds(&mut self, lower: f64, upper: f64) {}

    /// A candidate's FCP was settled; `samples` is nonzero only for
    /// [`FcpEvalKind::Sampled`].
    fn fcp_evaluated(&mut self, method: FcpEvalKind, samples: u64) {}

    /// A probabilistic frequent closed itemset was accepted.
    fn result_emitted(&mut self, items: &[Item], fcp: f64) {}

    /// A sliding-window step changed the maintained PFCI set — fired by
    /// [`crate::stream::StreamMiner`] once per added / removed / updated
    /// pattern, after the step's repair mine finished. Batch runs never
    /// fire this.
    fn pattern_delta(&mut self, delta: &PatternDelta) {}

    /// A timed phase begins.
    fn phase_start(&mut self, phase: Phase) {}

    /// A timed phase ended after `elapsed`.
    fn phase_end(&mut self, phase: Phase, elapsed: Duration) {}

    /// The run finished; `outcome` is the final, sorted result.
    fn run_finished(&mut self, outcome: &MiningOutcome) {}
}

/// A [`MinerSink`] that can hand out private per-worker *shards* and
/// reconcile them back — the bridge between the single-threaded sink API
/// and the parallel miner.
///
/// The parallel DFS fan-out creates one shard per unit of work on the
/// caller thread ([`ShardableSink::make_shard`]), moves each shard into
/// its worker, and at the join barrier absorbs them back **in canonical
/// (submission) order** via [`ShardableSink::absorb_shard`]. A shard is
/// a plain owned sink, so workers record without locks; because
/// absorption is ordered, aggregate sinks (counting, histograms, JSONL
/// replay) end up exactly as if one sink had observed a sequential run
/// in that canonical order.
///
/// Implementations must make `absorb_shard(make_shard() + events)`
/// equivalent to observing those events directly, so that sharded
/// recording reconciles with single-sink recording (enforced by
/// proptests in this module and `tests/parallel_equivalence.rs`).
pub trait ShardableSink: MinerSink {
    /// The private per-worker sink type.
    type Shard: MinerSink + Send;

    /// Create an empty shard to hand to one worker.
    fn make_shard(&self) -> Self::Shard;

    /// Merge a finished shard's observations back into this sink.
    fn absorb_shard(&mut self, shard: Self::Shard);
}

macro_rules! forward_sink {
    ($ty:ty) => {
        impl<S: MinerSink + ?Sized> MinerSink for $ty {
            fn is_enabled(&self) -> bool {
                (**self).is_enabled()
            }
            fn run_started(&mut self, algo: &str, config: &MinerConfig) {
                (**self).run_started(algo, config)
            }
            fn node_entered(&mut self, depth: usize) {
                (**self).node_entered(depth)
            }
            fn prune_fired(&mut self, kind: PruneKind) {
                (**self).prune_fired(kind)
            }
            fn freq_prob_evaluated(&mut self, pr_f: f64) {
                (**self).freq_prob_evaluated(pr_f)
            }
            fn dp_decision(&mut self, decision: DpDecision) {
                (**self).dp_decision(decision)
            }
            fn pool_span(&mut self, span: &crate::par::PoolSpan) {
                (**self).pool_span(span)
            }
            fn pool_gauges(&self) -> Option<std::sync::Arc<crate::par::PoolGauges>> {
                (**self).pool_gauges()
            }
            fn fcp_bounds(&mut self, lower: f64, upper: f64) {
                (**self).fcp_bounds(lower, upper)
            }
            fn fcp_evaluated(&mut self, method: FcpEvalKind, samples: u64) {
                (**self).fcp_evaluated(method, samples)
            }
            fn result_emitted(&mut self, items: &[Item], fcp: f64) {
                (**self).result_emitted(items, fcp)
            }
            fn pattern_delta(&mut self, delta: &PatternDelta) {
                (**self).pattern_delta(delta)
            }
            fn phase_start(&mut self, phase: Phase) {
                (**self).phase_start(phase)
            }
            fn phase_end(&mut self, phase: Phase, elapsed: Duration) {
                (**self).phase_end(phase, elapsed)
            }
            fn run_finished(&mut self, outcome: &MiningOutcome) {
                (**self).run_finished(outcome)
            }
        }
    };
}

forward_sink!(&mut S);
forward_sink!(Box<S>);

impl<S: ShardableSink + ?Sized> ShardableSink for &mut S {
    type Shard = S::Shard;
    fn make_shard(&self) -> S::Shard {
        (**self).make_shard()
    }
    fn absorb_shard(&mut self, shard: S::Shard) {
        (**self).absorb_shard(shard);
    }
}

impl<S: ShardableSink + ?Sized> ShardableSink for Box<S> {
    type Shard = S::Shard;
    fn make_shard(&self) -> S::Shard {
        (**self).make_shard()
    }
    fn absorb_shard(&mut self, shard: S::Shard) {
        (**self).absorb_shard(shard);
    }
}

impl<S: ShardableSink> ShardableSink for Option<S> {
    type Shard = Option<S::Shard>;
    fn make_shard(&self) -> Option<S::Shard> {
        self.as_ref().map(ShardableSink::make_shard)
    }
    fn absorb_shard(&mut self, shard: Option<S::Shard>) {
        if let (Some(s), Some(shard)) = (self.as_mut(), shard) {
            s.absorb_shard(shard);
        }
    }
}

/// `Option<S>` is a sink that forwards when `Some` and discards when
/// `None` — the natural shape for optionally-attached observers
/// (`--trace`, `--progress`, `--metrics` flags) without a combinatorial
/// dispatch over which ones are present.
impl<S: MinerSink> MinerSink for Option<S> {
    fn is_enabled(&self) -> bool {
        self.as_ref().is_some_and(MinerSink::is_enabled)
    }
    fn run_started(&mut self, algo: &str, config: &MinerConfig) {
        if let Some(s) = self {
            s.run_started(algo, config);
        }
    }
    fn node_entered(&mut self, depth: usize) {
        if let Some(s) = self {
            s.node_entered(depth);
        }
    }
    fn prune_fired(&mut self, kind: PruneKind) {
        if let Some(s) = self {
            s.prune_fired(kind);
        }
    }
    fn freq_prob_evaluated(&mut self, pr_f: f64) {
        if let Some(s) = self {
            s.freq_prob_evaluated(pr_f);
        }
    }
    fn dp_decision(&mut self, decision: DpDecision) {
        if let Some(s) = self {
            s.dp_decision(decision);
        }
    }
    fn pool_span(&mut self, span: &crate::par::PoolSpan) {
        if let Some(s) = self {
            s.pool_span(span);
        }
    }
    fn pool_gauges(&self) -> Option<std::sync::Arc<crate::par::PoolGauges>> {
        self.as_ref().and_then(MinerSink::pool_gauges)
    }
    fn fcp_bounds(&mut self, lower: f64, upper: f64) {
        if let Some(s) = self {
            s.fcp_bounds(lower, upper);
        }
    }
    fn fcp_evaluated(&mut self, method: FcpEvalKind, samples: u64) {
        if let Some(s) = self {
            s.fcp_evaluated(method, samples);
        }
    }
    fn result_emitted(&mut self, items: &[Item], fcp: f64) {
        if let Some(s) = self {
            s.result_emitted(items, fcp);
        }
    }
    fn pattern_delta(&mut self, delta: &PatternDelta) {
        if let Some(s) = self {
            s.pattern_delta(delta);
        }
    }
    fn phase_start(&mut self, phase: Phase) {
        if let Some(s) = self {
            s.phase_start(phase);
        }
    }
    fn phase_end(&mut self, phase: Phase, elapsed: Duration) {
        if let Some(s) = self {
            s.phase_end(phase, elapsed);
        }
    }
    fn run_finished(&mut self, outcome: &MiningOutcome) {
        if let Some(s) = self {
            s.run_finished(outcome);
        }
    }
}

/// The do-nothing sink: every callback is an empty inline default, so
/// miners instantiated with it compile to exactly the uninstrumented
/// code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl MinerSink for NullSink {
    fn is_enabled(&self) -> bool {
        false
    }
}

impl ShardableSink for NullSink {
    type Shard = NullSink;
    fn make_shard(&self) -> NullSink {
        NullSink
    }
    fn absorb_shard(&mut self, _shard: NullSink) {}
}

/// Fans every event out to two sinks (nest for more).
#[derive(Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: MinerSink, B: MinerSink> MinerSink for Tee<A, B> {
    fn is_enabled(&self) -> bool {
        self.0.is_enabled() || self.1.is_enabled()
    }
    fn run_started(&mut self, algo: &str, config: &MinerConfig) {
        self.0.run_started(algo, config);
        self.1.run_started(algo, config);
    }
    fn node_entered(&mut self, depth: usize) {
        self.0.node_entered(depth);
        self.1.node_entered(depth);
    }
    fn prune_fired(&mut self, kind: PruneKind) {
        self.0.prune_fired(kind);
        self.1.prune_fired(kind);
    }
    fn freq_prob_evaluated(&mut self, pr_f: f64) {
        self.0.freq_prob_evaluated(pr_f);
        self.1.freq_prob_evaluated(pr_f);
    }
    fn dp_decision(&mut self, decision: DpDecision) {
        self.0.dp_decision(decision);
        self.1.dp_decision(decision);
    }
    fn pool_span(&mut self, span: &crate::par::PoolSpan) {
        self.0.pool_span(span);
        self.1.pool_span(span);
    }
    fn pool_gauges(&self) -> Option<std::sync::Arc<crate::par::PoolGauges>> {
        self.0.pool_gauges().or_else(|| self.1.pool_gauges())
    }
    fn fcp_bounds(&mut self, lower: f64, upper: f64) {
        self.0.fcp_bounds(lower, upper);
        self.1.fcp_bounds(lower, upper);
    }
    fn fcp_evaluated(&mut self, method: FcpEvalKind, samples: u64) {
        self.0.fcp_evaluated(method, samples);
        self.1.fcp_evaluated(method, samples);
    }
    fn result_emitted(&mut self, items: &[Item], fcp: f64) {
        self.0.result_emitted(items, fcp);
        self.1.result_emitted(items, fcp);
    }
    fn pattern_delta(&mut self, delta: &PatternDelta) {
        self.0.pattern_delta(delta);
        self.1.pattern_delta(delta);
    }
    fn phase_start(&mut self, phase: Phase) {
        self.0.phase_start(phase);
        self.1.phase_start(phase);
    }
    fn phase_end(&mut self, phase: Phase, elapsed: Duration) {
        self.0.phase_end(phase, elapsed);
        self.1.phase_end(phase, elapsed);
    }
    fn run_finished(&mut self, outcome: &MiningOutcome) {
        self.0.run_finished(outcome);
        self.1.run_finished(outcome);
    }
}

impl<A: ShardableSink, B: ShardableSink> ShardableSink for Tee<A, B> {
    type Shard = Tee<A::Shard, B::Shard>;
    fn make_shard(&self) -> Tee<A::Shard, B::Shard> {
        Tee(self.0.make_shard(), self.1.make_shard())
    }
    fn absorb_shard(&mut self, shard: Tee<A::Shard, B::Shard>) {
        self.0.absorb_shard(shard.0);
        self.1.absorb_shard(shard.1);
    }
}

/// Run a closure as a timed phase, bracketed with
/// [`MinerSink::phase_start`]/[`MinerSink::phase_end`] (a [`RunLedger`]
/// adds the `phase_end` duration to its timers).
pub fn timed<S: MinerSink + ?Sized, T>(phase: Phase, sink: &mut S, f: impl FnOnce() -> T) -> T {
    sink.phase_start(phase);
    let t0 = Instant::now();
    let out = f();
    sink.phase_end(phase, t0.elapsed());
    out
}

// ---------------------------------------------------------------------------
// Trace events and their JSONL form
// ---------------------------------------------------------------------------

/// One observed event, in owned form — what [`RecordingSink`] buffers and
/// [`JsonlSink`] serializes (see the module docs for the schema).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// `{"ev":"run_start",...}` — run delimiter with the key thresholds.
    RunStart {
        /// `"dfs"`, `"bfs"` or `"naive"`.
        algo: String,
        /// Minimum support.
        min_sup: u64,
        /// Frequent-closed probability threshold.
        pfct: f64,
        /// Approximation accuracy parameter.
        epsilon: f64,
        /// Approximation confidence parameter.
        delta: f64,
    },
    /// `{"ev":"node",...}` — an enumeration node entered.
    Node {
        /// Itemset size at this node.
        depth: u64,
    },
    /// `{"ev":"prune",...}` — a pruning fired.
    Prune {
        /// Which pruning.
        kind: PruneKind,
    },
    /// `{"ev":"freq_prob",...}` — exact frequent probability computed.
    FreqProb {
        /// The DP's result.
        pr_f: f64,
    },
    /// `{"ev":"dp_decision",...}` — one frequentness-DP row settled.
    DpDecision {
        /// How (and, for refusals, why) the row was produced.
        decision: DpDecision,
    },
    /// `{"ev":"fcp_bounds",...}` — Lemma 4.4 bounds computed.
    FcpBounds {
        /// Lower bound on the FCP.
        lower: f64,
        /// Upper bound on the FCP.
        upper: f64,
    },
    /// `{"ev":"fcp_eval",...}` — an FCP settled.
    FcpEval {
        /// How it was settled.
        method: FcpEvalKind,
        /// Monte-Carlo samples drawn (zero unless sampled).
        samples: u64,
    },
    /// `{"ev":"result",...}` — a PFCI accepted.
    Result {
        /// Item ids of the accepted itemset.
        items: Vec<u32>,
        /// Its frequent closed probability.
        fcp: f64,
    },
    /// `{"ev":"delta",...}` — a stream step changed the PFCI set.
    Delta {
        /// Added, removed or updated.
        kind: DeltaKind,
        /// Item ids of the affected itemset.
        items: Vec<u32>,
        /// Its (new, for updates) frequent closed probability.
        fcp: f64,
    },
    /// `{"ev":"phase_start",...}` — a timed phase began.
    PhaseStart {
        /// Which phase.
        phase: Phase,
    },
    /// `{"ev":"phase_end",...}` — a timed phase ended.
    PhaseEnd {
        /// Which phase.
        phase: Phase,
        /// Its duration in nanoseconds.
        nanos: u64,
    },
    /// `{"ev":"run_end",...}` — run delimiter with summary figures.
    RunEnd {
        /// Wall-clock duration in nanoseconds.
        elapsed_nanos: u64,
        /// Number of PFCIs found.
        results: u64,
        /// Whether the time budget aborted the run.
        timed_out: bool,
    },
}

impl TraceEvent {
    /// Serialize as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            TraceEvent::RunStart {
                algo,
                min_sup,
                pfct,
                epsilon,
                delta,
            } => format!(
                "{{\"ev\":\"run_start\",\"algo\":\"{algo}\",\"min_sup\":{min_sup},\
                 \"pfct\":{pfct},\"epsilon\":{epsilon},\"delta\":{delta}}}"
            ),
            TraceEvent::Node { depth } => format!("{{\"ev\":\"node\",\"depth\":{depth}}}"),
            TraceEvent::Prune { kind } => {
                format!("{{\"ev\":\"prune\",\"kind\":\"{}\"}}", kind.name())
            }
            TraceEvent::FreqProb { pr_f } => format!("{{\"ev\":\"freq_prob\",\"pr_f\":{pr_f}}}"),
            TraceEvent::DpDecision { decision } => match decision.magnitude() {
                Some(m) => format!(
                    "{{\"ev\":\"dp_decision\",\"reason\":\"{}\",\"magnitude\":{m}}}",
                    decision.name()
                ),
                None => format!(
                    "{{\"ev\":\"dp_decision\",\"reason\":\"{}\"}}",
                    decision.name()
                ),
            },
            TraceEvent::FcpBounds { lower, upper } => {
                format!("{{\"ev\":\"fcp_bounds\",\"lower\":{lower},\"upper\":{upper}}}")
            }
            TraceEvent::FcpEval { method, samples } => format!(
                "{{\"ev\":\"fcp_eval\",\"method\":\"{}\",\"samples\":{samples}}}",
                method.name()
            ),
            TraceEvent::Result { items, fcp } => {
                let ids: Vec<String> = items.iter().map(|i| i.to_string()).collect();
                format!(
                    "{{\"ev\":\"result\",\"items\":[{}],\"fcp\":{fcp}}}",
                    ids.join(",")
                )
            }
            TraceEvent::Delta { kind, items, fcp } => {
                let ids: Vec<String> = items.iter().map(|i| i.to_string()).collect();
                format!(
                    "{{\"ev\":\"delta\",\"kind\":\"{}\",\"items\":[{}],\"fcp\":{fcp}}}",
                    kind.name(),
                    ids.join(",")
                )
            }
            TraceEvent::PhaseStart { phase } => {
                format!("{{\"ev\":\"phase_start\",\"phase\":\"{}\"}}", phase.name())
            }
            TraceEvent::PhaseEnd { phase, nanos } => format!(
                "{{\"ev\":\"phase_end\",\"phase\":\"{}\",\"nanos\":{nanos}}}",
                phase.name()
            ),
            TraceEvent::RunEnd {
                elapsed_nanos,
                results,
                timed_out,
            } => format!(
                "{{\"ev\":\"run_end\",\"elapsed_nanos\":{elapsed_nanos},\
                 \"results\":{results},\"timed_out\":{timed_out}}}"
            ),
        }
    }

    /// Parse one JSONL line produced by [`TraceEvent::to_json`].
    pub fn parse(line: &str) -> Result<TraceEvent, TraceParseError> {
        let err = |what: &str| TraceParseError {
            line: line.to_string(),
            what: what.to_string(),
        };
        let ev = str_field(line, "ev").ok_or_else(|| err("missing \"ev\""))?;
        match ev {
            "run_start" => Ok(TraceEvent::RunStart {
                algo: str_field(line, "algo")
                    .ok_or_else(|| err("algo"))?
                    .to_string(),
                min_sup: num_field(line, "min_sup").ok_or_else(|| err("min_sup"))?,
                pfct: num_field(line, "pfct").ok_or_else(|| err("pfct"))?,
                epsilon: num_field(line, "epsilon").ok_or_else(|| err("epsilon"))?,
                delta: num_field(line, "delta").ok_or_else(|| err("delta"))?,
            }),
            "node" => Ok(TraceEvent::Node {
                depth: num_field(line, "depth").ok_or_else(|| err("depth"))?,
            }),
            "prune" => Ok(TraceEvent::Prune {
                kind: str_field(line, "kind")
                    .and_then(PruneKind::from_name)
                    .ok_or_else(|| err("kind"))?,
            }),
            "freq_prob" => Ok(TraceEvent::FreqProb {
                pr_f: num_field(line, "pr_f").ok_or_else(|| err("pr_f"))?,
            }),
            "dp_decision" => Ok(TraceEvent::DpDecision {
                decision: str_field(line, "reason")
                    .and_then(|r| DpDecision::from_parts(r, num_field(line, "magnitude")))
                    .ok_or_else(|| err("reason"))?,
            }),
            "fcp_bounds" => Ok(TraceEvent::FcpBounds {
                lower: num_field(line, "lower").ok_or_else(|| err("lower"))?,
                upper: num_field(line, "upper").ok_or_else(|| err("upper"))?,
            }),
            "fcp_eval" => Ok(TraceEvent::FcpEval {
                method: str_field(line, "method")
                    .and_then(FcpEvalKind::from_name)
                    .ok_or_else(|| err("method"))?,
                samples: num_field(line, "samples").ok_or_else(|| err("samples"))?,
            }),
            "result" => Ok(TraceEvent::Result {
                items: items_field(line).ok_or_else(|| err("items"))?,
                fcp: num_field(line, "fcp").ok_or_else(|| err("fcp"))?,
            }),
            "delta" => Ok(TraceEvent::Delta {
                kind: str_field(line, "kind")
                    .and_then(DeltaKind::from_name)
                    .ok_or_else(|| err("kind"))?,
                items: items_field(line).ok_or_else(|| err("items"))?,
                fcp: num_field(line, "fcp").ok_or_else(|| err("fcp"))?,
            }),
            "phase_start" => Ok(TraceEvent::PhaseStart {
                phase: str_field(line, "phase")
                    .and_then(Phase::from_name)
                    .ok_or_else(|| err("phase"))?,
            }),
            "phase_end" => Ok(TraceEvent::PhaseEnd {
                phase: str_field(line, "phase")
                    .and_then(Phase::from_name)
                    .ok_or_else(|| err("phase"))?,
                nanos: num_field(line, "nanos").ok_or_else(|| err("nanos"))?,
            }),
            "run_end" => Ok(TraceEvent::RunEnd {
                elapsed_nanos: num_field(line, "elapsed_nanos")
                    .ok_or_else(|| err("elapsed_nanos"))?,
                results: num_field(line, "results").ok_or_else(|| err("results"))?,
                timed_out: match raw_field(line, "timed_out") {
                    Some("true") => true,
                    Some("false") => false,
                    _ => return Err(err("timed_out")),
                },
            }),
            other => Err(err(&format!("unknown ev {other:?}"))),
        }
    }
}

/// A line [`parse_jsonl`] could not decode, with what was missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// The offending line.
    pub line: String,
    /// Which field or token failed.
    pub what: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad trace line (field {}): {}", self.what, self.line)
    }
}

impl std::error::Error for TraceParseError {}

/// Parse a whole JSONL trace (blank lines are skipped).
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, TraceParseError> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(TraceEvent::parse)
        .collect()
}

/// Raw value slice of `"key":<value>` in a flat JSON object — enough for
/// the trace schema (no nested objects; the only array is `items`, and
/// the only strings are schema-controlled names without escapes).
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = if let Some(r) = rest.strip_prefix('[') {
        r.find(']')? + 2
    } else if let Some(r) = rest.strip_prefix('"') {
        r.find('"')? + 2
    } else {
        rest.find([',', '}'])?
    };
    Some(&rest[..end])
}

fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let raw = raw_field(line, key)?;
    raw.strip_prefix('"')?.strip_suffix('"')
}

fn num_field<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    raw_field(line, key)?.parse().ok()
}

fn items_field(line: &str) -> Option<Vec<u32>> {
    let raw = raw_field(line, "items")?;
    let inner = raw.strip_prefix('[')?.strip_suffix(']')?;
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner.split(',').map(|s| s.trim().parse().ok()).collect()
}

// ---------------------------------------------------------------------------
// Concrete sinks
// ---------------------------------------------------------------------------

/// Buffers every event as an owned [`TraceEvent`], in order.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    /// The recorded events.
    pub events: Vec<TraceEvent>,
}

impl RecordingSink {
    /// Append another recording's events after this one's (the sharded
    /// reconciliation: shards absorbed in canonical order reproduce the
    /// sequential event stream).
    pub fn merge(&mut self, other: RecordingSink) {
        self.events.extend(other.events);
    }
}

impl ShardableSink for RecordingSink {
    type Shard = RecordingSink;
    fn make_shard(&self) -> RecordingSink {
        RecordingSink::default()
    }
    fn absorb_shard(&mut self, shard: RecordingSink) {
        self.merge(shard);
    }
}

impl MinerSink for RecordingSink {
    fn run_started(&mut self, algo: &str, config: &MinerConfig) {
        self.events.push(TraceEvent::RunStart {
            algo: algo.to_string(),
            min_sup: config.min_sup as u64,
            pfct: config.pfct,
            epsilon: config.epsilon,
            delta: config.delta,
        });
    }
    fn node_entered(&mut self, depth: usize) {
        self.events.push(TraceEvent::Node {
            depth: depth as u64,
        });
    }
    fn prune_fired(&mut self, kind: PruneKind) {
        self.events.push(TraceEvent::Prune { kind });
    }
    fn freq_prob_evaluated(&mut self, pr_f: f64) {
        self.events.push(TraceEvent::FreqProb { pr_f });
    }
    fn dp_decision(&mut self, decision: DpDecision) {
        self.events.push(TraceEvent::DpDecision { decision });
    }
    fn fcp_bounds(&mut self, lower: f64, upper: f64) {
        self.events.push(TraceEvent::FcpBounds { lower, upper });
    }
    fn fcp_evaluated(&mut self, method: FcpEvalKind, samples: u64) {
        self.events.push(TraceEvent::FcpEval { method, samples });
    }
    fn result_emitted(&mut self, items: &[Item], fcp: f64) {
        self.events.push(TraceEvent::Result {
            items: items.iter().map(|i| i.0).collect(),
            fcp,
        });
    }
    fn pattern_delta(&mut self, delta: &PatternDelta) {
        self.events.push(TraceEvent::Delta {
            kind: DeltaKind::of(delta),
            items: delta.pfci().items.iter().map(|i| i.0).collect(),
            fcp: delta.pfci().fcp,
        });
    }
    fn phase_start(&mut self, phase: Phase) {
        self.events.push(TraceEvent::PhaseStart { phase });
    }
    fn phase_end(&mut self, phase: Phase, elapsed: Duration) {
        self.events.push(TraceEvent::PhaseEnd {
            phase,
            nanos: elapsed.as_nanos() as u64,
        });
    }
    fn run_finished(&mut self, outcome: &MiningOutcome) {
        self.events.push(TraceEvent::RunEnd {
            elapsed_nanos: outcome.elapsed.as_nanos() as u64,
            results: outcome.results.len() as u64,
            timed_out: outcome.timed_out,
        });
    }
}

/// Streams every event to a writer as JSON Lines (schema in the module
/// docs). I/O errors are latched: the first error stops further writes
/// and is surfaced by [`JsonlSink::finish`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    error: Option<io::Error>,
    written: u64,
}

impl JsonlSink<BufWriter<File>> {
    /// Create (truncate) `path` and stream the trace into it, buffered.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Stream the trace into `out`.
    pub fn new(out: W) -> Self {
        Self {
            out,
            error: None,
            written: 0,
        }
    }

    /// Lines successfully written so far.
    pub fn lines_written(&self) -> u64 {
        self.written
    }

    /// True once a write has failed. Further events are discarded, so a
    /// trace file with a latched error is silently truncated — callers
    /// that keep mining should check this between runs and report it
    /// rather than trust the file.
    pub fn has_error(&self) -> bool {
        self.error.is_some()
    }

    /// Take the latched I/O error, if any, leaving the sink error-free
    /// (subsequent events will be written again). [`JsonlSink::finish`]
    /// returns the error instead if it is still latched.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Append one event as a JSONL line.
    pub fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        match writeln!(self.out, "{}", event.to_json()) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }

    /// Flush and return the writer, or the first I/O error hit.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> MinerSink for JsonlSink<W> {
    fn run_started(&mut self, algo: &str, config: &MinerConfig) {
        self.record(&TraceEvent::RunStart {
            algo: algo.to_string(),
            min_sup: config.min_sup as u64,
            pfct: config.pfct,
            epsilon: config.epsilon,
            delta: config.delta,
        });
    }
    fn node_entered(&mut self, depth: usize) {
        self.record(&TraceEvent::Node {
            depth: depth as u64,
        });
    }
    fn prune_fired(&mut self, kind: PruneKind) {
        self.record(&TraceEvent::Prune { kind });
    }
    fn freq_prob_evaluated(&mut self, pr_f: f64) {
        self.record(&TraceEvent::FreqProb { pr_f });
    }
    fn dp_decision(&mut self, decision: DpDecision) {
        self.record(&TraceEvent::DpDecision { decision });
    }
    fn fcp_bounds(&mut self, lower: f64, upper: f64) {
        self.record(&TraceEvent::FcpBounds { lower, upper });
    }
    fn fcp_evaluated(&mut self, method: FcpEvalKind, samples: u64) {
        self.record(&TraceEvent::FcpEval { method, samples });
    }
    fn result_emitted(&mut self, items: &[Item], fcp: f64) {
        self.record(&TraceEvent::Result {
            items: items.iter().map(|i| i.0).collect(),
            fcp,
        });
    }
    fn pattern_delta(&mut self, delta: &PatternDelta) {
        self.record(&TraceEvent::Delta {
            kind: DeltaKind::of(delta),
            items: delta.pfci().items.iter().map(|i| i.0).collect(),
            fcp: delta.pfci().fcp,
        });
    }
    fn phase_start(&mut self, phase: Phase) {
        self.record(&TraceEvent::PhaseStart { phase });
    }
    fn phase_end(&mut self, phase: Phase, elapsed: Duration) {
        self.record(&TraceEvent::PhaseEnd {
            phase,
            nanos: elapsed.as_nanos() as u64,
        });
    }
    fn run_finished(&mut self, outcome: &MiningOutcome) {
        self.record(&TraceEvent::RunEnd {
            elapsed_nanos: outcome.elapsed.as_nanos() as u64,
            results: outcome.results.len() as u64,
            timed_out: outcome.timed_out,
        });
    }
}

/// Workers buffer their events as a [`RecordingSink`]; absorbing a shard
/// replays the buffer through [`JsonlSink::record`] on the owner thread,
/// which naturally preserves the latched-error semantics: once a write
/// fails, later replays (from this or any later shard) are discarded and
/// the error stays latched for [`JsonlSink::has_error`] /
/// [`JsonlSink::take_error`] / [`JsonlSink::finish`].
impl<W: Write> ShardableSink for JsonlSink<W> {
    type Shard = RecordingSink;
    fn make_shard(&self) -> RecordingSink {
        RecordingSink::default()
    }
    fn absorb_shard(&mut self, shard: RecordingSink) {
        for event in &shard.events {
            self.record(event);
        }
    }
}

/// Throttled stderr heartbeat: every `interval` (default 500 ms, checked
/// on node entry) it prints one line with elapsed time versus the
/// configured budget, node throughput, the pruning mix and the running
/// result count; a final summary line prints when the run finishes.
#[derive(Debug)]
pub struct ProgressSink {
    interval: Duration,
    algo: String,
    budget: Option<Duration>,
    started: Instant,
    last_report: Instant,
    ledger: RunLedger,
}

impl Default for ProgressSink {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgressSink {
    /// A heartbeat reporting at most every 500 ms.
    pub fn new() -> Self {
        let now = Instant::now();
        Self {
            interval: Duration::from_millis(500),
            algo: String::new(),
            budget: None,
            started: now,
            last_report: now,
            ledger: RunLedger::default(),
        }
    }

    /// Override the reporting interval.
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    fn heartbeat(&self, elapsed: Duration) -> String {
        let budget = match self.budget {
            Some(b) => format!("/{:.0?}", b),
            None => String::new(),
        };
        let s = &self.ledger.stats;
        let rate = s.nodes_visited as f64 / elapsed.as_secs_f64().max(1e-9);
        format!(
            "[{}] {:.1?}{budget} | {} nodes ({rate:.0}/s) | pruned ch={} freq={} \
             super={} sub={} bound={} | {} samples | {} results",
            self.algo,
            elapsed,
            s.nodes_visited,
            s.ch_pruned,
            s.freq_pruned,
            s.superset_pruned,
            s.subset_pruned,
            s.bound_rejected,
            s.samples_drawn,
            self.ledger.results_emitted,
        )
    }

    /// Print a heartbeat if the interval has passed since the last one.
    fn throttle(&mut self) {
        let now = Instant::now();
        if now.duration_since(self.last_report) >= self.interval {
            self.last_report = now;
            eprintln!("{}", self.heartbeat(now.duration_since(self.started)));
        }
    }
}

impl MinerSink for ProgressSink {
    fn run_started(&mut self, algo: &str, config: &MinerConfig) {
        self.algo = algo.to_string();
        self.budget = config.time_budget;
        self.started = Instant::now();
        self.last_report = self.started;
        self.ledger = RunLedger::default();
    }
    fn node_entered(&mut self, depth: usize) {
        self.ledger.node_entered(depth);
        self.throttle();
    }
    fn prune_fired(&mut self, kind: PruneKind) {
        self.ledger.prune_fired(kind);
    }
    fn fcp_evaluated(&mut self, method: FcpEvalKind, samples: u64) {
        self.ledger.fcp_evaluated(method, samples);
    }
    fn result_emitted(&mut self, items: &[Item], fcp: f64) {
        self.ledger.result_emitted(items, fcp);
    }
    fn run_finished(&mut self, outcome: &MiningOutcome) {
        eprintln!("{} (done)", self.heartbeat(outcome.elapsed));
    }
}

/// Workers count into a private [`RunLedger`]; absorbing folds it in and
/// gives the throttle a chance to emit a heartbeat at the reconciliation
/// points.
impl ShardableSink for ProgressSink {
    type Shard = RunLedger;
    fn make_shard(&self) -> RunLedger {
        RunLedger::default()
    }
    fn absorb_shard(&mut self, shard: RunLedger) {
        self.ledger.absorb(&shard);
        self.throttle();
    }
}

/// Thin adapter over a [`ShardableSink`] used by the parallel miner: it
/// holds the user's sink for the duration of the fan-out, hands out one
/// private shard per task, and absorbs finished shards **in canonical
/// order** at the join barrier.
#[derive(Debug)]
pub struct ShardedSink<'a, S: ShardableSink + ?Sized> {
    parent: &'a mut S,
}

impl<'a, S: ShardableSink + ?Sized> ShardedSink<'a, S> {
    /// Wrap the user's sink for a fan-out.
    pub fn new(parent: &'a mut S) -> Self {
        Self { parent }
    }

    /// Create an empty private shard for one task.
    pub fn shard(&self) -> S::Shard {
        self.parent.make_shard()
    }

    /// Reconcile one finished shard. Call in canonical task order.
    pub fn absorb(&mut self, shard: S::Shard) {
        self.parent.absorb_shard(shard);
    }

    /// Access the underlying sink (for run-level events that fire once,
    /// outside any shard).
    pub fn parent(&mut self) -> &mut S {
        self.parent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStart {
                algo: "dfs".into(),
                min_sup: 2,
                pfct: 0.8,
                epsilon: 0.1,
                delta: 0.1,
            },
            TraceEvent::Node { depth: 1 },
            TraceEvent::PhaseStart {
                phase: Phase::FreqDp,
            },
            TraceEvent::PhaseEnd {
                phase: Phase::FreqDp,
                nanos: 12345,
            },
            TraceEvent::FreqProb { pr_f: 0.9985 },
            TraceEvent::DpDecision {
                decision: DpDecision::Incremental,
            },
            TraceEvent::DpDecision {
                decision: DpDecision::ErrTol { measured: 5.25e-8 },
            },
            TraceEvent::DpDecision {
                decision: DpDecision::RowValidation { violation: 0.125 },
            },
            TraceEvent::Prune {
                kind: PruneKind::Superset,
            },
            TraceEvent::FcpBounds {
                lower: 0.85,
                upper: 0.925,
            },
            TraceEvent::FcpEval {
                method: FcpEvalKind::Sampled,
                samples: 59915,
            },
            TraceEvent::Result {
                items: vec![0, 1, 2],
                fcp: 0.8754,
            },
            TraceEvent::Result {
                items: vec![],
                fcp: 0.5,
            },
            TraceEvent::Delta {
                kind: DeltaKind::Added,
                items: vec![0, 2],
                fcp: 0.91,
            },
            TraceEvent::RunEnd {
                elapsed_nanos: 987654321,
                results: 2,
                timed_out: false,
            },
        ]
    }

    #[test]
    fn jsonl_round_trip_is_lossless() {
        let events = sample_events();
        let text: String = events
            .iter()
            .map(|e| format!("{}\n", e.to_json()))
            .collect();
        let parsed = parse_jsonl(&text).expect("well-formed trace");
        assert_eq!(parsed, events);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        for e in sample_events() {
            sink.record(&e);
        }
        assert_eq!(sink.lines_written(), sample_events().len() as u64);
        let buf = sink.finish().expect("no io errors on Vec");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(parse_jsonl(&text).expect("parse"), sample_events());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(TraceEvent::parse("{\"ev\":\"node\"}").is_err());
        assert!(TraceEvent::parse("{\"ev\":\"wat\",\"x\":1}").is_err());
        assert!(TraceEvent::parse("not json").is_err());
        assert!(TraceEvent::parse("{\"ev\":\"prune\",\"kind\":\"bogus\"}").is_err());
    }

    #[test]
    fn names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        for k in PruneKind::ALL {
            assert_eq!(PruneKind::from_name(k.name()), Some(k));
        }
        for m in [
            FcpEvalKind::Exact,
            FcpEvalKind::Sampled,
            FcpEvalKind::BoundDecided,
        ] {
            assert_eq!(FcpEvalKind::from_name(m.name()), Some(m));
        }
        for d in [
            DpDecision::Incremental,
            DpDecision::FreshRoot,
            DpDecision::FreshLevel,
            DpDecision::CostSkip,
            DpDecision::DowndateCap,
            DpDecision::ErrTol { measured: 2.5e-8 },
            DpDecision::RowValidation { violation: 0.75 },
            DpDecision::Degenerate,
        ] {
            assert_eq!(DpDecision::from_parts(d.name(), d.magnitude()), Some(d));
        }
        assert_eq!(DpDecision::from_parts("bogus", None), None);
    }

    #[test]
    fn ledger_replays_events_identically() {
        let events = sample_events();
        let mut live = RunLedger::default();
        // Drive the live callbacks directly...
        live.node_entered(1);
        live.freq_prob_evaluated(0.9985);
        live.dp_decision(DpDecision::Incremental);
        live.dp_decision(DpDecision::ErrTol { measured: 5.25e-8 });
        live.dp_decision(DpDecision::RowValidation { violation: 0.125 });
        live.prune_fired(PruneKind::Superset);
        live.fcp_bounds(0.85, 0.925);
        live.fcp_evaluated(FcpEvalKind::Sampled, 59915);
        live.phase_end(Phase::FreqDp, Duration::from_nanos(12345));
        live.results_emitted += 2;
        live.pattern_delta(&PatternDelta::Added(crate::result::Pfci {
            items: vec![Item(0), Item(2)],
            fcp: 0.91,
            frequent_probability: 0.95,
        }));
        // ...and replay the recorded form of the same run.
        let mut replayed = RunLedger::default();
        for e in &events {
            replayed.absorb_event(e);
        }
        assert_eq!(live, replayed);
        assert_eq!(replayed.pattern_deltas, 1);
        assert_eq!(replayed.audit.incremental, 1);
        assert_eq!(replayed.audit.refusals(), 2);
        assert_eq!(replayed.stats.samples_drawn, 59915);
        assert_eq!(
            replayed.timers.total(Phase::FreqDp),
            Duration::from_nanos(12345)
        );
    }

    /// A writer that fails every write after the first `ok_writes`.
    #[derive(Debug)]
    struct FailAfter {
        ok_writes: usize,
        sunk: Vec<u8>,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.ok_writes == 0 {
                return Err(io::Error::other("disk full"));
            }
            self.ok_writes -= 1;
            self.sunk.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_latches_write_errors() {
        // Three raw write calls succeed, then the "disk" fills. One
        // writeln! may issue several write calls, so assert the shape —
        // a truncated prefix plus a latched error — not exact counts.
        let mut sink = JsonlSink::new(FailAfter {
            ok_writes: 3,
            sunk: Vec::new(),
        });
        let events = sample_events();
        assert!(!sink.has_error());
        for e in &events {
            sink.record(e);
        }
        assert!(sink.has_error());
        assert!(sink.lines_written() < events.len() as u64);
        let err = sink.finish().expect_err("latched error must surface");
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn take_error_unlatches() {
        let mut sink = JsonlSink::new(FailAfter {
            ok_writes: 0,
            sunk: Vec::new(),
        });
        let events = sample_events();
        sink.record(&events[0]);
        sink.record(&events[1]);
        assert_eq!(sink.lines_written(), 0);
        assert!(sink.has_error());
        let err = sink.take_error().expect("error was latched");
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert!(!sink.has_error());
        assert!(sink.take_error().is_none());
    }

    #[test]
    fn option_sink_forwards_some_and_discards_none() {
        let mut some: Option<RunLedger> = Some(RunLedger::default());
        some.node_entered(1);
        some.prune_fired(PruneKind::FreqProb);
        assert!(some.is_enabled());
        assert_eq!(some.as_ref().unwrap().stats.nodes_visited, 1);
        assert_eq!(some.as_ref().unwrap().stats.freq_pruned, 1);

        let mut none: Option<RunLedger> = None;
        none.node_entered(1);
        assert!(!none.is_enabled());
        assert!(none.is_none());
    }

    #[test]
    fn tee_forwards_to_both() {
        let mut tee = Tee(RunLedger::default(), RecordingSink::default());
        tee.node_entered(1);
        tee.prune_fired(PruneKind::Subset);
        assert_eq!(tee.0.stats.nodes_visited, 1);
        assert_eq!(tee.0.stats.subset_pruned, 1);
        assert_eq!(tee.1.events.len(), 2);
        assert!(tee.is_enabled());
        assert!(!NullSink.is_enabled());
    }

    /// Map a code to a miner event, exercised against live sinks.
    fn fire(code: u8, sink: &mut impl MinerSink) {
        match code % 9 {
            0 => sink.node_entered(usize::from(code) % 5 + 1),
            1 => sink.prune_fired(PruneKind::ALL[usize::from(code) % PruneKind::ALL.len()]),
            2 => sink.freq_prob_evaluated(f64::from(code) / 255.0),
            3 => sink.fcp_bounds(0.1, 0.9),
            4 => sink.fcp_evaluated(FcpEvalKind::Exact, 0),
            5 => sink.fcp_evaluated(FcpEvalKind::Sampled, u64::from(code) * 10),
            6 => sink.result_emitted(&[Item(u32::from(code))], 0.5),
            7 => sink.dp_decision(match code % 3 {
                0 => DpDecision::Incremental,
                1 => DpDecision::ErrTol {
                    measured: f64::from(code) / 16.0,
                },
                _ => DpDecision::DowndateCap,
            }),
            _ => sink.phase_end(
                Phase::ALL[usize::from(code) % Phase::COUNT],
                Duration::from_nanos(u64::from(code)),
            ),
        }
    }

    #[test]
    fn sharded_jsonl_replays_in_order_and_keeps_latched_errors() {
        // Happy path: two shards absorbed in order reproduce the exact
        // byte stream of direct recording.
        let mut direct = JsonlSink::new(Vec::new());
        let mut sharded = JsonlSink::new(Vec::new());
        let mut shard_a = sharded.make_shard();
        let mut shard_b = sharded.make_shard();
        for code in 0u8..10 {
            fire(code, &mut direct);
            fire(code, &mut shard_a);
        }
        for code in 10u8..20 {
            fire(code, &mut direct);
            fire(code, &mut shard_b);
        }
        sharded.absorb_shard(shard_a);
        sharded.absorb_shard(shard_b);
        assert_eq!(direct.lines_written(), sharded.lines_written());
        let a = direct.finish().expect("vec writes");
        let b = sharded.finish().expect("vec writes");
        assert_eq!(a, b);

        // Failing writer: the error latches mid-replay and later shards
        // are discarded, not written out of order.
        let mut failing = JsonlSink::new(FailAfter {
            ok_writes: 2,
            sunk: Vec::new(),
        });
        let mut shard = failing.make_shard();
        for code in 0u8..10 {
            fire(code, &mut shard);
        }
        failing.absorb_shard(shard);
        assert!(failing.has_error());
        let written_after_first = failing.lines_written();
        let mut late = failing.make_shard();
        fire(0, &mut late);
        failing.absorb_shard(late);
        assert_eq!(failing.lines_written(), written_after_first);
        let err = failing.finish().expect_err("latched error must surface");
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn sharded_sink_adapter_round_trips() {
        let mut ledger = RunLedger::default();
        {
            let mut sharded = ShardedSink::new(&mut ledger);
            let mut a = sharded.shard();
            let mut b = sharded.shard();
            a.node_entered(1);
            b.node_entered(2);
            b.prune_fired(PruneKind::FreqProb);
            sharded.absorb(a);
            sharded.absorb(b);
            sharded.parent().node_entered(3);
        }
        assert_eq!(ledger.stats.nodes_visited, 3);
        assert_eq!(ledger.stats.freq_pruned, 1);
    }

    #[test]
    fn option_and_tee_shards_compose() {
        let mut sink = Tee(Some(RunLedger::default()), RecordingSink::default());
        let mut shard = sink.make_shard();
        shard.node_entered(1);
        shard.prune_fired(PruneKind::Superset);
        sink.absorb_shard(shard);
        assert_eq!(sink.0.as_ref().unwrap().stats.nodes_visited, 1);
        assert_eq!(sink.0.as_ref().unwrap().stats.superset_pruned, 1);
        assert_eq!(sink.1.events.len(), 2);

        let mut none: Option<RunLedger> = None;
        let shard = none.make_shard();
        assert!(shard.is_none());
        none.absorb_shard(shard);
        assert!(none.is_none());
    }

    mod merge_props {
        use super::*;
        use proptest::prelude::*;

        fn ledger_from(codes: &[u8]) -> RunLedger {
            let mut s = RunLedger::default();
            for &c in codes {
                fire(c, &mut s);
            }
            s
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// `RunLedger::absorb` is commutative and associative, so
            /// any shard reconciliation order yields the single-sink
            /// totals.
            #[test]
            fn ledger_absorb_is_commutative_and_associative(
                a in proptest::collection::vec(0u8..=255, 0..40),
                b in proptest::collection::vec(0u8..=255, 0..40),
                c in proptest::collection::vec(0u8..=255, 0..40),
            ) {
                let (sa, sb, sc) = (ledger_from(&a), ledger_from(&b), ledger_from(&c));
                // Commutativity.
                let mut ab = sa;
                ab.absorb(&sb);
                let mut ba = sb;
                ba.absorb(&sa);
                prop_assert_eq!(ab, ba);
                // Associativity.
                let mut ab_c = ab;
                ab_c.absorb(&sc);
                let mut bc = sb;
                bc.absorb(&sc);
                let mut a_bc = sa;
                a_bc.absorb(&bc);
                prop_assert_eq!(ab_c, a_bc);
            }

            /// Splitting an event stream into shards at an arbitrary
            /// point and reconciling equals observing it with one sink —
            /// for counters (any order) and recordings (split order).
            #[test]
            fn sharded_reconciliation_equals_single_sink(
                codes in proptest::collection::vec(0u8..=255, 0..80),
                split_at in 0usize..81,
            ) {
                let split = split_at.min(codes.len());
                let single = ledger_from(&codes);
                let mut sharded = RunLedger::default();
                sharded.absorb_shard(ledger_from(&codes[..split]));
                sharded.absorb_shard(ledger_from(&codes[split..]));
                prop_assert_eq!(single, sharded);

                let mut rec_single = RecordingSink::default();
                for &c in &codes {
                    fire(c, &mut rec_single);
                }
                let mut rec_sharded = RecordingSink::default();
                let (mut sh_a, mut sh_b) = (rec_sharded.make_shard(), rec_sharded.make_shard());
                for &c in &codes[..split] {
                    fire(c, &mut sh_a);
                }
                for &c in &codes[split..] {
                    fire(c, &mut sh_b);
                }
                rec_sharded.absorb_shard(sh_a);
                rec_sharded.absorb_shard(sh_b);
                prop_assert_eq!(rec_single.events, rec_sharded.events);
            }
        }
    }

    #[test]
    fn timed_accumulates_and_notifies() {
        let mut sink = Tee(RunLedger::default(), RecordingSink::default());
        let out = timed(Phase::EventBuild, &mut sink, || 41 + 1);
        assert_eq!(out, 42);
        assert_eq!(sink.0.timers.count(Phase::EventBuild), 1);
        let events = &sink.1.events;
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0],
            TraceEvent::PhaseStart {
                phase: Phase::EventBuild
            }
        ));
        assert!(matches!(
            events[1],
            TraceEvent::PhaseEnd {
                phase: Phase::EventBuild,
                ..
            }
        ));
    }
}
