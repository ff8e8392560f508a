//! Result types of a mining run.

use std::time::Duration;

use utdb::{Item, UncertainDatabase};

use crate::stats::{DpAudit, KernelStats, MinerStats, PhaseTimers, RunLedger};

/// One probabilistic frequent closed itemset (Definition 3.8).
#[derive(Debug, Clone, PartialEq)]
pub struct Pfci {
    /// The itemset, sorted ascending.
    pub items: Vec<Item>,
    /// Its (possibly approximate) frequent closed probability.
    pub fcp: f64,
    /// Its frequent probability `Pr_F` — an upper bound on `fcp`, always
    /// exact (computed by the polynomial DP).
    pub frequent_probability: f64,
}

impl Pfci {
    /// Render as `{a, b, c}: 0.875` with the database's dictionary.
    pub fn render(&self, db: &UncertainDatabase) -> String {
        format!("{}: {:.4}", db.render(&self.items), self.fcp)
    }
}

/// One change to the maintained PFCI set after a sliding-window step —
/// what [`crate::stream::StreamMiner`] emits through
/// [`crate::trace::MinerSink::pattern_delta`].
#[derive(Debug, Clone, PartialEq)]
pub enum PatternDelta {
    /// The pattern entered the PFCI set.
    Added(Pfci),
    /// The pattern left the PFCI set (carrying its last mined values).
    Removed(Pfci),
    /// The pattern stayed in the set but its probabilities changed.
    Updated {
        /// The newly mined values.
        new: Pfci,
        /// The previous FCP, so consumers can show drift.
        old_fcp: f64,
    },
}

impl PatternDelta {
    /// Stable snake_case name used in traces (`added` / `removed` /
    /// `updated`).
    pub fn kind(&self) -> &'static str {
        match self {
            PatternDelta::Added(_) => "added",
            PatternDelta::Removed(_) => "removed",
            PatternDelta::Updated { .. } => "updated",
        }
    }

    /// The pattern the delta is about (the new values for `Updated`).
    pub fn pfci(&self) -> &Pfci {
        match self {
            PatternDelta::Added(p) | PatternDelta::Removed(p) => p,
            PatternDelta::Updated { new, .. } => new,
        }
    }
}

/// Everything a mining run returns.
#[derive(Debug, Clone)]
pub struct MiningOutcome {
    /// The probabilistic frequent closed itemsets, in canonical
    /// (lexicographic itemset) order.
    pub results: Vec<Pfci>,
    /// Work counters.
    pub stats: MinerStats,
    /// Substrate counters for the bitmap/DP kernels (incremental-DP
    /// hit rates, bound-input cache behaviour, words scanned).
    pub kernel: KernelStats,
    /// Wall-clock totals per instrumented phase (freq-dp, ch-bound,
    /// event-build, bound-eval, fcp-exact, fcp-sample).
    pub timers: PhaseTimers,
    /// Decision audit of every frequentness-DP row: incremental
    /// downdates versus each structured reason a row was rebuilt
    /// (`audit.incremental == kernel.dp_incremental`,
    /// `audit.recomputed() == kernel.dp_recomputed`).
    pub audit: DpAudit,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// True when the run hit its configured time budget and aborted
    /// early; `results` is then a (sound but possibly incomplete) subset.
    pub timed_out: bool,
    /// Largest threshold below which this run's result set is provably
    /// independent of the `pfct` it ran at: every emitted probability and
    /// every threshold-dependent bound decision is identical for any
    /// `pfct'` in `[pfct, carve_ceiling)`. `1.0` means the answer is
    /// fully threshold-independent above its own `pfct`. The basis of
    /// the service's monotonicity carve — see [`MiningOutcome::carve`].
    pub carve_ceiling: f64,
}

impl MiningOutcome {
    /// Sort results canonically (done by the miners before returning; a
    /// public helper so baselines can normalize too).
    pub fn sort_canonical(&mut self) {
        self.results.sort_by(|a, b| a.items.cmp(&b.items));
    }

    /// The itemsets alone, canonical order — the shape result-set
    /// equality tests compare.
    pub fn itemsets(&self) -> Vec<Vec<Item>> {
        self.results.iter().map(|p| p.items.clone()).collect()
    }

    /// The run's counters as one [`RunLedger`], for consumers that sum
    /// over runs. The kernel's DP pair stays zero in it, as in every
    /// ledger: it is the audit's.
    pub fn ledger(&self) -> RunLedger {
        RunLedger {
            stats: self.stats,
            kernel: KernelStats {
                dp_incremental: 0,
                dp_recomputed: 0,
                ..self.kernel
            },
            audit: self.audit,
            timers: self.timers,
            results_emitted: self.results.len() as u64,
            pattern_deltas: 0,
        }
    }

    /// Counters, timers and wall-clock time as one [`TimedStats`](crate::stats::TimedStats) bundle
    /// (the shape sweeps aggregate).
    pub fn timed_stats(&self) -> crate::stats::TimedStats {
        crate::stats::TimedStats {
            stats: self.stats,
            elapsed: self.elapsed,
            timers: self.timers,
        }
    }

    /// Look up the FCP of an itemset, if present.
    pub fn fcp_of(&self, items: &[Item]) -> Option<f64> {
        self.results
            .iter()
            .find(|p| p.items == items)
            .map(|p| p.fcp)
    }

    /// The monotonicity carve: derive the answer for a *stricter*
    /// threshold `pfct` from this outcome (mined at `cached_pfct`, with
    /// an otherwise identical configuration) by filtering the result set,
    /// without re-mining.
    ///
    /// Sound only when every probability in `results` is deterministic
    /// and threshold-independent over `[cached_pfct, pfct]`:
    ///
    /// - `cached_pfct ≤ pfct < carve_ceiling` — prunes are monotone in
    ///   the threshold and no bound decision flips below the ceiling;
    /// - no sampled FCP (`stats.fcp_sampled == 0`) — sampled values vary
    ///   run to run, so a carved answer would not be bit-identical to a
    ///   direct one;
    /// - the run completed (`!timed_out`) — a truncated result set is
    ///   not a superset of the stricter answer.
    ///
    /// Returns `None` when any condition fails.
    pub fn carve(&self, cached_pfct: f64, pfct: f64) -> Option<Vec<Pfci>> {
        let eligible = cached_pfct <= pfct
            && pfct < self.carve_ceiling
            && self.stats.fcp_sampled == 0
            && !self.timed_out;
        eligible.then(|| {
            self.results
                .iter()
                .filter(|p| p.fcp > pfct)
                .cloned()
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_uses_dictionary() {
        let db = UncertainDatabase::parse_symbolic(&[("x y", 0.5)]);
        let p = Pfci {
            items: vec![Item(0), Item(1)],
            fcp: 0.875,
            frequent_probability: 0.9,
        };
        assert_eq!(p.render(&db), "{x, y}: 0.8750");
    }

    #[test]
    fn outcome_helpers() {
        let mut o = MiningOutcome {
            results: vec![
                Pfci {
                    items: vec![Item(1)],
                    fcp: 0.5,
                    frequent_probability: 0.6,
                },
                Pfci {
                    items: vec![Item(0)],
                    fcp: 0.7,
                    frequent_probability: 0.8,
                },
            ],
            stats: MinerStats::default(),
            kernel: KernelStats::default(),
            timers: PhaseTimers::default(),
            audit: DpAudit::default(),
            elapsed: Duration::ZERO,
            timed_out: false,
            carve_ceiling: 1.0,
        };
        o.sort_canonical();
        assert_eq!(o.itemsets(), vec![vec![Item(0)], vec![Item(1)]]);
        assert_eq!(o.fcp_of(&[Item(1)]), Some(0.5));
        assert_eq!(o.fcp_of(&[Item(2)]), None);
    }

    #[test]
    fn carve_filters_only_when_eligible() {
        let base = MiningOutcome {
            results: vec![
                Pfci {
                    items: vec![Item(0)],
                    fcp: 0.7,
                    frequent_probability: 0.8,
                },
                Pfci {
                    items: vec![Item(1)],
                    fcp: 0.95,
                    frequent_probability: 0.99,
                },
            ],
            stats: MinerStats::default(),
            kernel: KernelStats::default(),
            timers: PhaseTimers::default(),
            audit: DpAudit::default(),
            elapsed: Duration::ZERO,
            timed_out: false,
            carve_ceiling: 0.9,
        };
        // Stricter threshold inside the ceiling: filtered answer.
        let carved = base.carve(0.6, 0.8).expect("eligible");
        assert_eq!(carved.len(), 1);
        assert_eq!(carved[0].items, vec![Item(1)]);
        // Same threshold: identity.
        assert_eq!(base.carve(0.6, 0.6).expect("identity").len(), 2);
        // Looser threshold, at/above the ceiling, sampled, or truncated:
        // refused.
        assert!(base.carve(0.6, 0.5).is_none());
        assert!(base.carve(0.6, 0.9).is_none());
        let mut sampled = base.clone();
        sampled.stats.fcp_sampled = 1;
        assert!(sampled.carve(0.6, 0.8).is_none());
        let mut truncated = base.clone();
        truncated.timed_out = true;
        assert!(truncated.carve(0.6, 0.8).is_none());
    }
}
