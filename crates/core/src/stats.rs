//! Per-run instrumentation: how hard did each pruning work?
//!
//! The paper's Section V measures the *effectiveness of pruning
//! strategies* indirectly through runtime; these counters expose it
//! directly and back the ablation benches. [`PhaseTimers`] adds the
//! wall-clock dimension: where each run's time actually went, phase by
//! phase (see [`crate::trace::Phase`]). [`RunLedger`] holds all of them
//! for one run and is the only place an event becomes a count.

use std::fmt;
use std::time::Duration;

use utdb::Item;

use crate::result::{MiningOutcome, PatternDelta, Pfci};
use crate::trace::{
    DpDecision, FcpEvalKind, MinerSink, Phase, PruneKind, ShardableSink, TraceEvent,
};

/// Counters accumulated over one mining run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinerStats {
    /// Enumeration-tree nodes visited (itemsets considered).
    pub nodes_visited: u64,
    /// Subtrees cut by superset pruning (Lemma 4.2).
    pub superset_pruned: u64,
    /// Sibling groups cut by subset pruning (Lemma 4.3).
    pub subset_pruned: u64,
    /// Candidates refuted by the Chernoff–Hoeffding bound (Lemma 4.1)
    /// without running the exact DP.
    pub ch_pruned: u64,
    /// Candidates whose exact frequent probability fell at or below
    /// `pfct` (subtree pruned by anti-monotonicity).
    pub freq_pruned: u64,
    /// Itemsets rejected because the FCP upper bound (Lemma 4.4) fell at
    /// or below `pfct`.
    pub bound_rejected: u64,
    /// Itemsets decided because upper and lower FCP bounds coincided.
    pub bound_decided: u64,
    /// Itemsets whose FCP was computed exactly (inclusion–exclusion).
    pub fcp_exact: u64,
    /// Itemsets whose FCP was estimated by `ApproxFCP`.
    pub fcp_sampled: u64,
    /// Total Monte-Carlo samples drawn across all `ApproxFCP` calls.
    pub samples_drawn: u64,
    /// Exact frequent-probability DP evaluations.
    pub freq_prob_evals: u64,
}

impl MinerStats {
    /// Total itemsets whose FCP was evaluated (exactly or by sampling).
    pub fn fcp_evaluations(&self) -> u64 {
        self.fcp_exact + self.fcp_sampled
    }

    /// The `(name, value)` pairs in stable order — the single source for
    /// the metrics snapshot and the service's response body.
    pub fn named(&self) -> [(&'static str, u64); 11] {
        [
            ("nodes_visited", self.nodes_visited),
            ("superset_pruned", self.superset_pruned),
            ("subset_pruned", self.subset_pruned),
            ("ch_pruned", self.ch_pruned),
            ("freq_pruned", self.freq_pruned),
            ("bound_rejected", self.bound_rejected),
            ("bound_decided", self.bound_decided),
            ("fcp_exact", self.fcp_exact),
            ("fcp_sampled", self.fcp_sampled),
            ("samples_drawn", self.samples_drawn),
            ("freq_prob_evals", self.freq_prob_evals),
        ]
    }
}

impl fmt::Display for MinerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nodes={} super={} sub={} ch={} freq={} freq_prob_evals={} bound_rej={} \
             bound_dec={} fcp_exact={} fcp_sampled={} samples={}",
            self.nodes_visited,
            self.superset_pruned,
            self.subset_pruned,
            self.ch_pruned,
            self.freq_pruned,
            self.freq_prob_evals,
            self.bound_rejected,
            self.bound_decided,
            self.fcp_exact,
            self.fcp_sampled,
            self.samples_drawn,
        )
    }
}

/// Counters for the bitmap/DP kernel layer beneath the miner: how the
/// incremental Poisson-binomial downdate and the bound-input memoization
/// actually behaved on a run.
///
/// Kept separate from [`MinerStats`] on purpose: every `MinerStats`
/// counter is one trace event, while the cache and bitmap counters here
/// are substrate-level measurements with no per-event representation.
/// The two DP counters are not kept at all during a run: they are read
/// off the [`DpAudit`] when the outcome is built. They travel on
/// [`crate::MiningOutcome::kernel`] and surface through the
/// [`crate::metrics::HistogramSink`] snapshot, `--stats` and `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Frequentness DP rows derived by downdating the parent row
    /// (dropped transactions divided out) instead of recomputing.
    pub dp_incremental: u64,
    /// Frequentness DP rows rebuilt from scratch — fresh roots, cases
    /// where the downdate would cost more than a rebuild, and
    /// numerical-stability fallbacks.
    pub dp_recomputed: u64,
    /// Evaluator bound-input (event-table) cache hits, verified by full
    /// tid-set equality.
    pub bound_cache_hits: u64,
    /// Evaluator bound-input cache misses (tables built).
    pub bound_cache_misses: u64,
    /// Event families the absence screen decided without building them:
    /// every event's absence factor summed stays within a quarter float
    /// gap of `Pr_F`, so the bounds were `(Pr_F, Pr_F)` whatever the
    /// tails.
    pub families_screened: u64,
    /// 64-bit words streamed through the tid-bitmap kernels on the
    /// miner's hot paths (intersections, difference scans).
    pub bitmap_words: u64,
}

impl KernelStats {
    /// Total frequentness DP rows produced either way.
    pub fn dp_rows(&self) -> u64 {
        self.dp_incremental + self.dp_recomputed
    }

    /// The `(name, value)` pairs in stable order — the single source for
    /// the metrics snapshot and the benchmark report schema.
    pub fn named(&self) -> [(&'static str, u64); 6] {
        [
            ("dp_incremental", self.dp_incremental),
            ("dp_recomputed", self.dp_recomputed),
            ("bound_cache_hits", self.bound_cache_hits),
            ("bound_cache_misses", self.bound_cache_misses),
            ("families_screened", self.families_screened),
            ("bitmap_words", self.bitmap_words),
        ]
    }
}

impl fmt::Display for KernelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dp_inc={} dp_full={} cache_hit={} cache_miss={} screened={} words={}",
            self.dp_incremental,
            self.dp_recomputed,
            self.bound_cache_hits,
            self.bound_cache_misses,
            self.families_screened,
            self.bitmap_words,
        )
    }
}

/// Per-reason audit of every frequentness-DP row decision the miner
/// took: one [`DpDecision`] is recorded per DP-row qualification, and
/// [`KernelStats`]'s `dp_incremental` and `dp_recomputed` are read off
/// [`DpAudit::incremental`] and [`DpAudit::recomputed`] when the
/// outcome is built. This is the machine-readable answer to "why is
/// `dp_incremental` 0 on this dataset": the refusal mix says whether the
/// measured error-tolerance guard, a row-validation failure, the
/// downdate cap or plain cost accounting forced each rebuild.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpAudit {
    /// Rows derived by downdating the parent row (the fast path).
    pub incremental: u64,
    /// Rows built from scratch at subtree roots (no parent to downdate).
    pub fresh_root: u64,
    /// Rows built from scratch by the level-wise BFS miner (which never
    /// downdates — see `crate::bfs`).
    pub fresh_level: u64,
    /// Rebuilds because the downdate would touch at least as many
    /// transactions as a rebuild (`dropped ≥ |T(X∪e)|`).
    pub cost_skip: u64,
    /// Rebuilds because the parent row had accumulated `MAX_DOWNDATES`
    /// removals.
    pub downdate_cap: u64,
    /// Downdates refused because the measured error bound of the
    /// downdated row exceeded `dp_error_tol`.
    pub err_tol: u64,
    /// Downdates refused because a divided-out row left the valid
    /// probability range.
    pub row_validation: u64,
    /// Downdates refused on degenerate inputs (empty row or `p = 1`).
    pub degenerate: u64,
}

impl DpAudit {
    /// Rows rebuilt from scratch, summed over every rebuild reason — the
    /// source of [`KernelStats::dp_recomputed`].
    pub fn recomputed(&self) -> u64 {
        self.fresh_root
            + self.fresh_level
            + self.cost_skip
            + self.downdate_cap
            + self.err_tol
            + self.row_validation
            + self.degenerate
    }

    /// Rebuilds caused by a *refused* downdate (as opposed to roots or
    /// cost/cap accounting).
    pub fn refusals(&self) -> u64 {
        self.err_tol + self.row_validation + self.degenerate
    }

    /// Total decisions recorded, one per DP row.
    pub fn total(&self) -> u64 {
        self.incremental + self.recomputed()
    }

    /// The `(name, value)` pairs in stable order — the single source for
    /// the metrics snapshot, the Prometheus exporter and the benchmark
    /// report schema (v4). Names match [`DpDecision::name`].
    pub fn named(&self) -> [(&'static str, u64); 8] {
        [
            ("incremental", self.incremental),
            ("fresh_root", self.fresh_root),
            ("fresh_level", self.fresh_level),
            ("cost_skip", self.cost_skip),
            ("downdate_cap", self.downdate_cap),
            ("err_tol", self.err_tol),
            ("row_validation", self.row_validation),
            ("degenerate", self.degenerate),
        ]
    }
}

impl fmt::Display for DpAudit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "inc={} root={} level={} cost={} cap={} err={} row={} degen={}",
            self.incremental,
            self.fresh_root,
            self.fresh_level,
            self.cost_skip,
            self.downdate_cap,
            self.err_tol,
            self.row_validation,
            self.degenerate,
        )
    }
}

/// Wall-clock totals per instrumented phase ([`Phase`]), with call
/// counts.
///
/// Accumulated by the shared evaluator via [`crate::trace::timed`] and
/// returned in every [`crate::MiningOutcome`]; indexed by
/// [`Phase::index`]. `Eq` compares exact nanosecond totals — meaningful
/// only for replayed or absorbed timers, not across live runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimers {
    totals: [Duration; Phase::COUNT],
    counts: [u64; Phase::COUNT],
}

impl PhaseTimers {
    /// Record one span of `phase`.
    pub fn add(&mut self, phase: Phase, elapsed: Duration) {
        self.totals[phase.index()] += elapsed;
        self.counts[phase.index()] += 1;
    }

    /// Total time spent in `phase`.
    pub fn total(&self, phase: Phase) -> Duration {
        self.totals[phase.index()]
    }

    /// Number of spans recorded for `phase`.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase.index()]
    }

    /// Sum over all phases.
    pub fn grand_total(&self) -> Duration {
        self.totals.iter().sum()
    }

    /// True when no span was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Merge another run's timers into this one (used by sweeps).
    pub fn absorb(&mut self, other: &PhaseTimers) {
        for i in 0..Phase::COUNT {
            self.totals[i] += other.totals[i];
            self.counts[i] += other.counts[i];
        }
    }
}

impl fmt::Display for PhaseTimers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for phase in Phase::ALL {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(
                f,
                "{}={:.1?}/{}",
                phase.name(),
                self.total(phase),
                self.count(phase)
            )?;
        }
        Ok(())
    }
}

/// The run's counter ledger: [`MinerStats`], [`KernelStats`],
/// [`DpAudit`], [`PhaseTimers`] and the result count, kept once.
///
/// Its [`MinerSink`] impl is the only code that turns an event into a
/// counter bump — each event maps to exactly one counter:
///
/// | event                        | counter           |
/// |------------------------------|-------------------|
/// | `node_entered`               | `nodes_visited`   |
/// | `prune_fired(ChernoffHoeffding)` | `ch_pruned`   |
/// | `prune_fired(FreqProb)`      | `freq_pruned`     |
/// | `prune_fired(Superset)`      | `superset_pruned` |
/// | `prune_fired(Subset)`        | `subset_pruned`   |
/// | `prune_fired(BoundReject)`   | `bound_rejected`  |
/// | `freq_prob_evaluated`        | `freq_prob_evals` |
/// | `fcp_evaluated(Exact)`       | `fcp_exact`       |
/// | `fcp_evaluated(Sampled, n)`  | `fcp_sampled`, `samples_drawn += n` |
/// | `fcp_evaluated(BoundDecided)`| `bound_decided`   |
/// | `dp_decision(d)`             | the `audit` field named by `d` |
/// | `phase_end(p, t)`            | `timers.add(p, t)` |
/// | `result_emitted`             | `results_emitted` |
/// | `pattern_delta`              | `pattern_deltas`  |
///
/// The miners record every event here and forward it to the user's
/// sink, so a ledger attached as that sink, or rebuilt from a JSONL
/// trace with [`RunLedger::absorb_event`], ends equal to the run's own
/// (the kernel's cache and bitmap counters aside: they have no event).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunLedger {
    /// Pruning and evaluation counters.
    pub stats: MinerStats,
    /// Substrate counters. The DP pair stays zero here: the outcome's
    /// is read off `audit`.
    pub kernel: KernelStats,
    /// One decision per frequentness-DP row.
    pub audit: DpAudit,
    /// Wall-clock totals per phase.
    pub timers: PhaseTimers,
    /// Results seen via `result_emitted`.
    pub results_emitted: u64,
    /// Stream-mode pattern deltas seen via `pattern_delta`.
    pub pattern_deltas: u64,
}

impl RunLedger {
    /// Merge another ledger into this one. Plain componentwise addition,
    /// so the merge is associative and commutative — sharded
    /// reconciliation equals single-ledger recording regardless of how
    /// the events were split (proptested in [`crate::trace`]).
    pub fn absorb(&mut self, other: &RunLedger) {
        let (s, o) = (&mut self.stats, &other.stats);
        s.nodes_visited += o.nodes_visited;
        s.superset_pruned += o.superset_pruned;
        s.subset_pruned += o.subset_pruned;
        s.ch_pruned += o.ch_pruned;
        s.freq_pruned += o.freq_pruned;
        s.bound_rejected += o.bound_rejected;
        s.bound_decided += o.bound_decided;
        s.fcp_exact += o.fcp_exact;
        s.fcp_sampled += o.fcp_sampled;
        s.samples_drawn += o.samples_drawn;
        s.freq_prob_evals += o.freq_prob_evals;
        let (a, o) = (&mut self.audit, &other.audit);
        a.incremental += o.incremental;
        a.fresh_root += o.fresh_root;
        a.fresh_level += o.fresh_level;
        a.cost_skip += o.cost_skip;
        a.downdate_cap += o.downdate_cap;
        a.err_tol += o.err_tol;
        a.row_validation += o.row_validation;
        a.degenerate += o.degenerate;
        let (k, o) = (&mut self.kernel, &other.kernel);
        k.bound_cache_hits += o.bound_cache_hits;
        k.bound_cache_misses += o.bound_cache_misses;
        k.families_screened += o.families_screened;
        k.bitmap_words += o.bitmap_words;
        self.timers.absorb(&other.timers);
        self.results_emitted += other.results_emitted;
        self.pattern_deltas += other.pattern_deltas;
    }

    /// Apply one owned event (e.g. parsed back from a JSONL trace),
    /// exactly as the live callback would.
    pub fn absorb_event(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Node { .. } => self.node_entered(0),
            TraceEvent::Prune { kind } => self.prune_fired(*kind),
            TraceEvent::FreqProb { pr_f } => self.freq_prob_evaluated(*pr_f),
            TraceEvent::DpDecision { decision } => self.dp_decision(*decision),
            TraceEvent::FcpEval { method, samples } => self.fcp_evaluated(*method, *samples),
            TraceEvent::Result { .. } => self.results_emitted += 1,
            TraceEvent::Delta { .. } => self.pattern_deltas += 1,
            TraceEvent::PhaseEnd { phase, nanos } => {
                self.phase_end(*phase, Duration::from_nanos(*nanos));
            }
            TraceEvent::RunStart { .. }
            | TraceEvent::FcpBounds { .. }
            | TraceEvent::PhaseStart { .. }
            | TraceEvent::RunEnd { .. } => {}
        }
    }

    /// The kernel counters, with the DP pair read off the audit.
    pub(crate) fn kernel_stats(&self) -> KernelStats {
        KernelStats {
            dp_incremental: self.audit.incremental,
            dp_recomputed: self.audit.recomputed(),
            ..self.kernel
        }
    }

    /// Close the ledger into a run's outcome, results in canonical order.
    pub(crate) fn into_outcome(
        self,
        mut results: Vec<Pfci>,
        elapsed: Duration,
        timed_out: bool,
        carve_ceiling: f64,
    ) -> MiningOutcome {
        results.sort_by(|a, b| a.items.cmp(&b.items));
        MiningOutcome {
            results,
            stats: self.stats,
            kernel: self.kernel_stats(),
            timers: self.timers,
            audit: self.audit,
            elapsed,
            timed_out,
            carve_ceiling,
        }
    }
}

impl MinerSink for RunLedger {
    fn node_entered(&mut self, _depth: usize) {
        self.stats.nodes_visited += 1;
    }
    fn prune_fired(&mut self, kind: PruneKind) {
        match kind {
            PruneKind::ChernoffHoeffding => self.stats.ch_pruned += 1,
            PruneKind::FreqProb => self.stats.freq_pruned += 1,
            PruneKind::Superset => self.stats.superset_pruned += 1,
            PruneKind::Subset => self.stats.subset_pruned += 1,
            PruneKind::BoundReject => self.stats.bound_rejected += 1,
        }
    }
    fn freq_prob_evaluated(&mut self, _pr_f: f64) {
        self.stats.freq_prob_evals += 1;
    }
    fn dp_decision(&mut self, decision: DpDecision) {
        let a = &mut self.audit;
        match decision {
            DpDecision::Incremental => a.incremental += 1,
            DpDecision::FreshRoot => a.fresh_root += 1,
            DpDecision::FreshLevel => a.fresh_level += 1,
            DpDecision::CostSkip => a.cost_skip += 1,
            DpDecision::DowndateCap => a.downdate_cap += 1,
            DpDecision::ErrTol { .. } => a.err_tol += 1,
            DpDecision::RowValidation { .. } => a.row_validation += 1,
            DpDecision::Degenerate => a.degenerate += 1,
        }
    }
    fn fcp_evaluated(&mut self, method: FcpEvalKind, samples: u64) {
        match method {
            FcpEvalKind::Exact => self.stats.fcp_exact += 1,
            FcpEvalKind::Sampled => {
                self.stats.fcp_sampled += 1;
                self.stats.samples_drawn += samples;
            }
            FcpEvalKind::BoundDecided => self.stats.bound_decided += 1,
        }
    }
    fn result_emitted(&mut self, _items: &[Item], _fcp: f64) {
        self.results_emitted += 1;
    }
    fn pattern_delta(&mut self, _delta: &PatternDelta) {
        self.pattern_deltas += 1;
    }
    fn phase_end(&mut self, phase: Phase, elapsed: Duration) {
        self.timers.add(phase, elapsed);
    }
}

impl ShardableSink for RunLedger {
    type Shard = RunLedger;
    fn make_shard(&self) -> RunLedger {
        RunLedger::default()
    }
    fn absorb_shard(&mut self, shard: RunLedger) {
        self.absorb(&shard);
    }
}

/// A stats bundle together with wall-clock time, as reported by sweeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimedStats {
    /// The counters.
    pub stats: MinerStats,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Where the time went, phase by phase.
    pub timers: PhaseTimers,
}

impl fmt::Display for TimedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "elapsed={:.1?} | {} | phases: {}",
            self.elapsed, self.stats, self.timers
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_fields() {
        let mut a = RunLedger::default();
        a.node_entered(1);
        a.node_entered(2);
        a.fcp_evaluated(FcpEvalKind::Sampled, 100);
        let mut b = RunLedger::default();
        b.node_entered(1);
        b.fcp_evaluated(FcpEvalKind::Exact, 0);
        b.fcp_evaluated(FcpEvalKind::Sampled, 50);
        a.absorb(&b);
        assert_eq!(a.stats.nodes_visited, 3);
        assert_eq!(a.stats.fcp_evaluations(), 3);
        assert_eq!(a.stats.samples_drawn, 150);
    }

    #[test]
    fn display_is_compact() {
        let s = MinerStats::default().to_string();
        assert!(s.starts_with("nodes=0"));
        assert!(s.contains("samples=0"));
        assert!(s.contains("freq_prob_evals=0"));
    }

    #[test]
    fn dp_audit_records_every_reason() {
        let mut ledger = RunLedger::default();
        for decision in [
            DpDecision::Incremental,
            DpDecision::FreshRoot,
            DpDecision::FreshLevel,
            DpDecision::CostSkip,
            DpDecision::DowndateCap,
            DpDecision::ErrTol { measured: 3.2e-8 },
            DpDecision::RowValidation { violation: 0.1 },
            DpDecision::Degenerate,
        ] {
            ledger.dp_decision(decision);
        }
        let audit = ledger.audit;
        assert_eq!(audit.incremental, 1);
        assert_eq!(audit.recomputed(), 7);
        assert_eq!(audit.refusals(), 3);
        assert_eq!(audit.total(), 8);
        assert!(audit.named().iter().all(|&(_, v)| v == 1));
        let s = audit.to_string();
        assert!(s.contains("err=1"), "{s}");

        // The outcome's kernel DP counters are read off the audit.
        let kernel = ledger
            .into_outcome(Vec::new(), Duration::ZERO, false, 1.0)
            .kernel;
        assert_eq!((kernel.dp_incremental, kernel.dp_recomputed), (1, 7));
    }

    #[test]
    fn phase_timers_accumulate_and_absorb() {
        let mut t = PhaseTimers::default();
        assert!(t.is_empty());
        t.add(Phase::FreqDp, Duration::from_micros(10));
        t.add(Phase::FreqDp, Duration::from_micros(5));
        t.add(Phase::FcpSample, Duration::from_micros(100));
        assert_eq!(t.total(Phase::FreqDp), Duration::from_micros(15));
        assert_eq!(t.count(Phase::FreqDp), 2);
        assert_eq!(t.grand_total(), Duration::from_micros(115));

        let mut sum = PhaseTimers::default();
        sum.absorb(&t);
        sum.absorb(&t);
        assert_eq!(sum.total(Phase::FcpSample), Duration::from_micros(200));
        assert_eq!(sum.count(Phase::FreqDp), 4);
    }

    #[test]
    fn timed_stats_display_mentions_every_phase() {
        let s = TimedStats::default().to_string();
        assert!(s.starts_with("elapsed="));
        for phase in Phase::ALL {
            assert!(s.contains(phase.name()), "{s}");
        }
    }
}
