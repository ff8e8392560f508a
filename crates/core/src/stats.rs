//! Per-run instrumentation: how hard did each pruning work?
//!
//! The paper's Section V measures the *effectiveness of pruning
//! strategies* indirectly through runtime; these counters expose it
//! directly and back the ablation benches. [`PhaseTimers`] adds the
//! wall-clock dimension: where each run's time actually went, phase by
//! phase (see [`crate::trace::Phase`]).

use std::fmt;
use std::time::Duration;

use crate::trace::{DpDecision, Phase};

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
    /// Merge another run's counters into this one (used by sweeps).
    pub fn absorb(&mut self, other: &MinerStats) {
        self.nodes_visited += other.nodes_visited;
        self.superset_pruned += other.superset_pruned;
        self.subset_pruned += other.subset_pruned;
        self.ch_pruned += other.ch_pruned;
        self.freq_pruned += other.freq_pruned;
        self.bound_rejected += other.bound_rejected;
        self.bound_decided += other.bound_decided;
        self.fcp_exact += other.fcp_exact;
        self.fcp_sampled += other.fcp_sampled;
        self.samples_drawn += other.samples_drawn;
        self.freq_prob_evals += other.freq_prob_evals;
    }

    /// Total itemsets whose FCP was evaluated (exactly or by sampling).
    pub fn fcp_evaluations(&self) -> u64 {
        self.fcp_exact + self.fcp_sampled
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
/// Kept separate from [`MinerStats`] on purpose: `MinerStats` counters
/// are each reconcilable one-to-one from the trace-event stream (the
/// observability tests assert it), while these are substrate-level
/// measurements with no per-event representation. They travel on
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
    /// 64-bit words streamed through the tid-bitmap kernels on the
    /// miner's hot paths (intersections, difference scans).
    pub bitmap_words: u64,
}

impl KernelStats {
    /// Merge another run's counters into this one.
    pub fn absorb(&mut self, other: &KernelStats) {
        self.dp_incremental += other.dp_incremental;
        self.dp_recomputed += other.dp_recomputed;
        self.bound_cache_hits += other.bound_cache_hits;
        self.bound_cache_misses += other.bound_cache_misses;
        self.bitmap_words += other.bitmap_words;
    }

    /// Total frequentness DP rows produced either way.
    pub fn dp_rows(&self) -> u64 {
        self.dp_incremental + self.dp_recomputed
    }

    /// The `(name, value)` pairs in stable order — the single source for
    /// the metrics snapshot and the benchmark report schema.
    pub fn named(&self) -> [(&'static str, u64); 5] {
        [
            ("dp_incremental", self.dp_incremental),
            ("dp_recomputed", self.dp_recomputed),
            ("bound_cache_hits", self.bound_cache_hits),
            ("bound_cache_misses", self.bound_cache_misses),
            ("bitmap_words", self.bitmap_words),
        ]
    }
}

impl fmt::Display for KernelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dp_inc={} dp_full={} cache_hit={} cache_miss={} words={}",
            self.dp_incremental,
            self.dp_recomputed,
            self.bound_cache_hits,
            self.bound_cache_misses,
            self.bitmap_words,
        )
    }
}

/// Per-reason audit of every frequentness-DP row decision the miner
/// took: one [`DpDecision`] is recorded per DP-row qualification, so the
/// reason counters reconcile *exactly* with [`KernelStats`] —
/// [`DpAudit::incremental`] equals `dp_incremental` and
/// [`DpAudit::recomputed`] equals `dp_recomputed` (the differential
/// tests assert both). This is the machine-readable answer to "why is
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
    /// Record one decision (the single mutation point, shared by the
    /// miners and by [`crate::trace::CountingSink`] replay).
    pub fn record(&mut self, decision: DpDecision) {
        match decision {
            DpDecision::Incremental => self.incremental += 1,
            DpDecision::FreshRoot => self.fresh_root += 1,
            DpDecision::FreshLevel => self.fresh_level += 1,
            DpDecision::CostSkip => self.cost_skip += 1,
            DpDecision::DowndateCap => self.downdate_cap += 1,
            DpDecision::ErrTol { .. } => self.err_tol += 1,
            DpDecision::RowValidation { .. } => self.row_validation += 1,
            DpDecision::Degenerate => self.degenerate += 1,
        }
    }

    /// Rows rebuilt from scratch, summed over every rebuild reason —
    /// reconciles exactly with [`KernelStats::dp_recomputed`].
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

    /// Total decisions recorded — reconciles with
    /// [`KernelStats::dp_rows`].
    pub fn total(&self) -> u64 {
        self.incremental + self.recomputed()
    }

    /// Merge another run's audit into this one.
    pub fn absorb(&mut self, other: &DpAudit) {
        self.incremental += other.incremental;
        self.fresh_root += other.fresh_root;
        self.fresh_level += other.fresh_level;
        self.cost_skip += other.cost_skip;
        self.downdate_cap += other.downdate_cap;
        self.err_tol += other.err_tol;
        self.row_validation += other.row_validation;
        self.degenerate += other.degenerate;
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
        let mut a = MinerStats {
            nodes_visited: 2,
            fcp_sampled: 1,
            samples_drawn: 100,
            ..Default::default()
        };
        let b = MinerStats {
            nodes_visited: 3,
            fcp_exact: 4,
            samples_drawn: 50,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.nodes_visited, 5);
        assert_eq!(a.fcp_evaluations(), 5);
        assert_eq!(a.samples_drawn, 150);
    }

    #[test]
    fn display_is_compact() {
        let s = MinerStats::default().to_string();
        assert!(s.starts_with("nodes=0"));
        assert!(s.contains("samples=0"));
        assert!(s.contains("freq_prob_evals=0"));
    }

    #[test]
    fn dp_audit_records_and_reconciles() {
        let mut audit = DpAudit::default();
        audit.record(DpDecision::Incremental);
        audit.record(DpDecision::FreshRoot);
        audit.record(DpDecision::FreshLevel);
        audit.record(DpDecision::CostSkip);
        audit.record(DpDecision::DowndateCap);
        audit.record(DpDecision::ErrTol { measured: 3.2e-8 });
        audit.record(DpDecision::RowValidation { violation: 0.1 });
        audit.record(DpDecision::Degenerate);
        assert_eq!(audit.incremental, 1);
        assert_eq!(audit.recomputed(), 7);
        assert_eq!(audit.refusals(), 3);
        assert_eq!(audit.total(), 8);
        let named = audit.named();
        assert_eq!(named.len(), 8);
        assert!(named.iter().all(|&(_, v)| v == 1));
        assert_eq!(named.iter().map(|&(_, v)| v).sum::<u64>(), audit.total());

        let mut sum = DpAudit::default();
        sum.absorb(&audit);
        sum.absorb(&audit);
        assert_eq!(sum.total(), 16);
        assert_eq!(sum.refusals(), 6);
        let s = audit.to_string();
        assert!(s.contains("err=1"), "{s}");
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
