//! Shared per-itemset evaluation: bounds, then exact or sampled FCP.
//!
//! Both search frameworks (DFS and BFS) and the Naive baseline funnel
//! surviving itemsets through this checking phase — the "Bounding" and
//! "Checking" stages of the paper's Bounding–Pruning–Checking framework.
//!
//! The evaluator owns the run's observability state: its [`RunLedger`]
//! and the [`MinerSink`] the run was started with. Every event goes
//! through [`Evaluator::observe`], which counts it once in the ledger
//! and forwards it to the sink. It is generic over the sink type, so runs
//! with the default [`crate::trace::NullSink`] monomorphize the
//! forwarding away.
//!
//! It also owns the run's bound-input memoization handle: a
//! [`SharedEventCache`] of [`EventTable`]s keyed by tid-set fingerprint.
//! Two itemsets with equal supporting tuples need identical non-closure
//! event inputs (they differ only in which items are excluded), so the
//! cache turns the repeated `O(k·m)` event construction into an `O(m)`
//! projection. By default each evaluator owns a private cache (the
//! legacy per-run MRU); a [`crate::snapshot::Snapshot`] hands every
//! query the same `Arc`, so concurrent queries reuse each other's
//! tables.
//!
//! Below the table cache sits a private [`TailMemo`]: a table build for a
//! new tid-set still shares every frequentness tail `Pr{sup(X∪e) ≥
//! min_sup}` an earlier build of the run computed for the same `T(X∪e)`.
//! The memo is per evaluator (one per parallel worker, so lock-free) and
//! dies with the run, since `min_sup` and the database change between
//! serve queries and stream steps. The depth-first miner also offers it
//! the tail of every DP row it builds from scratch
//! ([`Evaluator::offer_tail`]), so the parent's table build finds the
//! child's tail instead of recomputing it. Capacity `0` turns both off.

use std::sync::Arc;
use std::time::Duration;

use prob::dnf::required_samples;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use utdb::{Item, TidBitmap, UncertainDatabase};

use crate::cache::SharedEventCache;
use crate::config::{FcpMethod, MinerConfig};
use crate::events::{BoundTier, EventTable, MemoSlot, NonClosureEvents, TailMemo, MAX_EXACT_TERMS};
use crate::fcp::{approx_fcp_adaptive_traced, approx_fcp_chunked_traced, approx_fcp_traced};
use crate::result::{MiningOutcome, Pfci};
use crate::stats::RunLedger;
use crate::trace::{timed, FcpEvalKind, MinerSink, Phase, PruneKind, Tee};

/// Bounds intervals narrower than this are treated as decided without a
/// full FCP computation (the paper's "upper bound equals lower bound").
const DECIDED_WIDTH: f64 = 1e-6;

/// An `Auto` family past `exact_cap` is exact when its lattice walk
/// needs at most `1 / SAMPLING_PER_WALK` of the work of the `N` Karp–Luby
/// draws it would replace, both counted in the position steps of
/// [`NonClosureEvents::lattice_union`] and
/// [`NonClosureEvents::draw_work`]. A walk step measured 0.02–1.2× the
/// time of a draw step, on a sparse Quest base at min_sup 2–10 and a
/// dense T20I10 base at min_sup 40–320 (DESIGN §17), so a walk that
/// finishes within the budget, or is abandoned at it, costs at most
/// about 8% of that sampling.
const SAMPLING_PER_WALK: f64 = 16.0;

/// The work budget of an `Auto` family's lattice walk past `exact_cap`.
fn auto_walk_budget(events: &NonClosureEvents, epsilon: f64, delta: f64) -> u64 {
    let draws = required_samples(events.considered_items(), epsilon, delta);
    (draws as f64 * events.draw_work() / SAMPLING_PER_WALK) as u64
}

pub(crate) struct Evaluator<'a, S: MinerSink + ?Sized> {
    pub db: &'a UncertainDatabase,
    pub cfg: &'a MinerConfig,
    pub rng: SmallRng,
    /// The run's counters; filled through [`Evaluator::observe`], except
    /// the kernel's cache and bitmap counters, which have no event.
    pub ledger: RunLedger,
    pub sink: &'a mut S,
    /// Largest threshold below which this run's emitted probabilities
    /// are provably independent of `cfg.pfct` — the per-evaluator piece
    /// of [`crate::result::MiningOutcome::carve_ceiling`]. Starts at
    /// `1.0` and ratchets down at every threshold-dependent bound
    /// decision.
    pub carve_ceiling: f64,
    /// Resolved worker count for chunked `ApproxFCP`. `1` keeps every
    /// sampled path byte-identical to the legacy shared-RNG code.
    threads: usize,
    cache: Arc<SharedEventCache>,
    tail_memo: TailMemo,
}

impl<'a, S: MinerSink + ?Sized> Evaluator<'a, S> {
    /// `cache = None` gives the evaluator a private cache sized by
    /// `cfg.event_cache_capacity` (the legacy per-run behaviour, and —
    /// one instance per worker — the legacy per-worker behaviour of the
    /// parallel miner). `Some` shares a snapshot-scoped cache instead.
    pub fn new(
        db: &'a UncertainDatabase,
        cfg: &'a MinerConfig,
        sink: &'a mut S,
        cache: Option<Arc<SharedEventCache>>,
    ) -> Self {
        Self {
            db,
            cfg,
            rng: SmallRng::seed_from_u64(cfg.seed),
            ledger: RunLedger::default(),
            sink,
            carve_ceiling: 1.0,
            threads: cfg.effective_threads(),
            cache: cache
                .unwrap_or_else(|| Arc::new(SharedEventCache::new(cfg.event_cache_capacity))),
            tail_memo: TailMemo::new(db, cfg.min_sup),
        }
    }

    /// The sink every event of the run goes to: the ledger counts it,
    /// then the user's sink sees it.
    pub fn observe(&mut self) -> Tee<&mut RunLedger, &mut S> {
        Tee(&mut self.ledger, &mut *self.sink)
    }

    /// Close the run: its outcome from the ledger, announced to the sink.
    pub fn finish(self, results: Vec<Pfci>, elapsed: Duration, timed_out: bool) -> MiningOutcome {
        let outcome = self
            .ledger
            .into_outcome(results, elapsed, timed_out, self.carve_ceiling);
        self.sink.run_finished(&outcome);
        outcome
    }

    /// Build the non-closure event family of `items` over every other item
    /// in the database, through the event-table cache when enabled.
    ///
    /// Cached projection and direct construction produce bitwise-identical
    /// families (the events module tests prove it), so toggling the cache
    /// never changes mined probabilities.
    pub fn events_for(&mut self, items: &[Item], tids: &TidBitmap) -> NonClosureEvents {
        let db = self.db;
        let min_sup = self.cfg.min_sup;
        let num_items = db.num_items() as u32;
        let cache = &self.cache;
        let tail_memo = &mut self.tail_memo;
        let mut sink = Tee(&mut self.ledger, &mut *self.sink);
        let (events, hit) = timed(Phase::EventBuild, &mut sink, || {
            if cache.capacity() == 0 {
                let ext = (0..num_items)
                    .map(Item)
                    .filter(|i| items.binary_search(i).is_err());
                return (NonClosureEvents::build(db, tids, ext, min_sup), None);
            }
            let fingerprint = tids.fingerprint();
            if let Some(table) = cache.get(fingerprint, tids, min_sup) {
                return (table.family_excluding(items), Some(true));
            }
            let table = Arc::new(EventTable::build_memoized(db, tids, tail_memo));
            cache.insert(fingerprint, Arc::clone(&table));
            (table.family_excluding(items), Some(false))
        });
        match hit {
            Some(true) => self.ledger.kernel.bound_cache_hits += 1,
            Some(false) => self.ledger.kernel.bound_cache_misses += 1,
            None => {}
        }
        events
    }

    /// Hand the run's tail memo `tail = Pr{sup(X∪e) ≥ min_sup}` over
    /// `xe_tids = x_tids ∧ T(item)`, computed by pushing the ascending-tid
    /// probabilities of `xe_tids` (a fresh DP row's
    /// [`prob::TailDp::fresh_tail`]). `x_slot` is where `x_tids` sits in
    /// the memo, registered on first use. Nothing is stored when the
    /// event cache is off, since the builds then do not read the memo.
    pub fn offer_tail(
        &mut self,
        x_tids: &TidBitmap,
        x_slot: &mut MemoSlot,
        item: Item,
        xe_tids: &TidBitmap,
        tail: f64,
    ) {
        if self.cache.capacity() != 0 {
            self.tail_memo.offer(x_tids, x_slot, item, xe_tids, tail);
        }
    }

    /// Full checking phase for an itemset that survived all prunings:
    /// returns `Some(Pfci)` when its frequent closed probability exceeds
    /// `pfct`.
    pub fn evaluate(&mut self, items: &[Item], tids: &TidBitmap, pr_f: f64) -> Option<Pfci> {
        let events = self.events_for(items, tids);
        let (lo, hi) = if self.cfg.pruning.probability_bounds {
            let max_pairwise = self.cfg.max_pairwise_events;
            let pfct = self.cfg.pfct;
            let (lo, hi, tier) = timed(Phase::BoundEval, &mut self.observe(), || {
                events.fcp_bounds_explained(pr_f, max_pairwise, Some(pfct))
            });
            self.observe().fcp_bounds(lo, hi);
            if hi <= pfct {
                // Rejections are monotone in the threshold: no ceiling
                // constraint needed for the carve.
                self.observe().prune_fired(PruneKind::BoundReject);
                return None;
            }
            if lo > pfct && hi - lo < DECIDED_WIDTH {
                // The emitted midpoint depends on which tier decided;
                // above `lo` a re-run could take a different path, so a
                // carved answer is only valid below it. An empty family
                // is `(pr_f, pr_f)` at any threshold — no constraint.
                if tier != BoundTier::EmptyFamily {
                    self.carve_ceiling = self.carve_ceiling.min(lo);
                }
                self.observe().fcp_evaluated(FcpEvalKind::BoundDecided, 0);
                return Some(self.emit(items, (lo + hi) / 2.0, pr_f));
            }
            if tier == BoundTier::CheapEarly {
                // The full FCP below will be clamped to the *cheap*
                // sandwich (the early return fired on `lo > pfct`); at
                // thresholds above `lo` the refinement would run and
                // clamp differently.
                self.carve_ceiling = self.carve_ceiling.min(lo);
            }
            (lo, hi)
        } else {
            (0.0, pr_f)
        };
        let fcp = self.compute_fcp(&events, pr_f).clamp(lo, hi);
        (fcp > self.cfg.pfct).then(|| self.emit(items, fcp, pr_f))
    }

    /// Naive checking (the paper's "Naive" baseline): always run
    /// `ApproxFCP`, no bounds.
    pub fn evaluate_naive(&mut self, items: &[Item], tids: &TidBitmap, pr_f: f64) -> Option<Pfci> {
        let events = self.events_for(items, tids);
        let fcp = self.sample_fcp(&events, pr_f, false);
        (fcp > self.cfg.pfct).then(|| self.emit(items, fcp, pr_f))
    }

    /// The checking phase's planner: the exact lattice union within a
    /// work budget, `ApproxFCP` past it (see [`FcpMethod`]). A walk
    /// abandoned at its budget is timed under [`Phase::FcpExact`] although
    /// the family then counts as sampled; the budget keeps it under about
    /// 8% of the sampling that follows.
    fn compute_fcp(&mut self, events: &NonClosureEvents, pr_f: f64) -> f64 {
        let max_work = match self.cfg.fcp_method {
            FcpMethod::ExactOnly => Some(u64::MAX),
            FcpMethod::ApproxOnly | FcpMethod::ApproxAdaptive => None,
            FcpMethod::Auto { exact_cap } if events.len() <= exact_cap => Some(u64::MAX),
            FcpMethod::Auto { .. } => {
                Some(auto_walk_budget(events, self.cfg.epsilon, self.cfg.delta))
            }
        };
        let union = max_work.and_then(|max_work| {
            timed(Phase::FcpExact, &mut self.observe(), || {
                events.lattice_union(MAX_EXACT_TERMS, max_work)
            })
        });
        if let Some(union) = union {
            self.observe().fcp_evaluated(FcpEvalKind::Exact, 0);
            (pr_f - union).clamp(0.0, pr_f)
        } else {
            assert!(
                self.cfg.fcp_method != FcpMethod::ExactOnly,
                "exact inclusion-exclusion over {} events exceeds {MAX_EXACT_TERMS} non-zero terms",
                events.len()
            );
            let adaptive = matches!(self.cfg.fcp_method, FcpMethod::ApproxAdaptive);
            self.sample_fcp(events, pr_f, adaptive)
        }
    }

    /// `ApproxFCP`: the stopping rule when `adaptive` (inherently
    /// sequential — each draw decides whether to continue — so it never
    /// chunks), otherwise the fixed budget, chunked over the run's
    /// threads when it has more than one.
    fn sample_fcp(&mut self, events: &NonClosureEvents, pr_f: f64, adaptive: bool) -> f64 {
        let (epsilon, delta, threads) = (self.cfg.epsilon, self.cfg.delta, self.threads);
        let rng = &mut self.rng;
        let sink = &mut Tee(&mut self.ledger, &mut *self.sink);
        let r = if adaptive {
            approx_fcp_adaptive_traced(events, pr_f, epsilon, delta, rng, sink)
        } else if threads > 1 {
            let call_seed = rng.next_u64();
            approx_fcp_chunked_traced(events, pr_f, epsilon, delta, threads, call_seed, sink)
        } else {
            approx_fcp_traced(events, pr_f, epsilon, delta, rng, sink)
        };
        r.fcp
    }

    /// Build the accepted result and notify the sink — the single point
    /// every success path funnels through, so `result_emitted` events are
    /// one-to-one with returned results.
    fn emit(&mut self, items: &[Item], fcp: f64, pr_f: f64) -> Pfci {
        self.observe().result_emitted(items, fcp);
        Pfci {
            items: items.to_vec(),
            fcp,
            frequent_probability: pr_f,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::tests::{full_lattice, synthetic_family, wide_sparse_family};
    use crate::fcp::{approx_fcp, approx_fcp_chunked};
    use crate::trace::NullSink;

    const PR_F: f64 = 0.95;

    /// The planner's FCP for `events` under `cfg`, and the run's counters.
    fn plan(cfg: &MinerConfig, events: &NonClosureEvents) -> (f64, crate::stats::MinerStats) {
        let db = UncertainDatabase::parse_symbolic(&[("a", 0.5)]);
        let mut sink = NullSink;
        let mut evaluator = Evaluator::new(&db, cfg, &mut sink, None);
        let fcp = evaluator.compute_fcp(events, PR_F);
        (fcp, evaluator.ledger.stats)
    }

    #[test]
    fn a_family_over_the_budget_samples_exactly_as_approx_fcp() {
        let events = full_lattice();
        let budget = auto_walk_budget(&events, 0.1, 0.1);
        assert!(events.lattice_union(MAX_EXACT_TERMS, budget).is_none());
        for threads in [1, 2] {
            let cfg = MinerConfig::new(5, 0.5)
                .with_seed(11)
                .with_threads(threads)
                .with_fcp_method(FcpMethod::Auto { exact_cap: 8 });
            let (fcp, stats) = plan(&cfg, &events);
            let mut rng = SmallRng::seed_from_u64(11);
            let expected = if threads == 1 {
                approx_fcp(&events, PR_F, 0.1, 0.1, &mut rng)
            } else {
                approx_fcp_chunked(&events, PR_F, 0.1, 0.1, threads, rng.next_u64())
            };
            assert_eq!(fcp.to_bits(), expected.fcp.to_bits(), "threads={threads}");
            assert_eq!(
                (stats.fcp_exact, stats.fcp_sampled, stats.samples_drawn),
                (0, 1, expected.samples as u64)
            );
        }
    }

    #[test]
    fn a_wide_family_with_a_small_lattice_is_exact() {
        let events = wide_sparse_family();
        assert!(events.len() > prob::inclusion_exclusion::MAX_EXACT_EVENTS);
        let union = events.lattice_union(MAX_EXACT_TERMS, u64::MAX).unwrap();
        for method in [FcpMethod::Auto { exact_cap: 8 }, FcpMethod::ExactOnly] {
            let (fcp, stats) = plan(&MinerConfig::new(2, 0.5).with_fcp_method(method), &events);
            assert_eq!(fcp.to_bits(), (PR_F - union).clamp(0.0, PR_F).to_bits());
            assert_eq!((stats.fcp_exact, stats.fcp_sampled), (1, 0), "{method:?}");
        }
    }

    #[test]
    fn a_family_of_few_but_costly_terms_samples() {
        // Four events over the same 400 positions at min_sup 200: only 15
        // terms, but each scans 400 positions and runs a 400 × 200 tail
        // DP, far more work than 1/16 of N draws over 400 positions.
        let events = synthetic_family(vec![0.9; 400], &vec![(0..400).collect(); 4], 200);
        assert!(events.lattice_union(15, u64::MAX).is_some());
        let cfg = MinerConfig::new(200, 0.5)
            .with_seed(3)
            .with_fcp_method(FcpMethod::Auto { exact_cap: 2 });
        let draws = required_samples(events.considered_items(), cfg.epsilon, cfg.delta);
        assert!(15 < draws / 16, "a term budget would keep it exact");
        let (_, stats) = plan(&cfg, &events);
        assert_eq!((stats.fcp_exact, stats.fcp_sampled), (0, 1));
    }

    #[test]
    fn a_family_within_exact_cap_is_exact_at_any_lattice_size() {
        let events = full_lattice();
        let dense = prob::exact_union_probability(events.len(), |s| events.joint(s));
        let cfg = MinerConfig::new(5, 0.5).with_fcp_method(FcpMethod::Auto { exact_cap: 16 });
        let (fcp, stats) = plan(&cfg, &events);
        assert_eq!(fcp.to_bits(), (PR_F - dense).clamp(0.0, PR_F).to_bits());
        assert_eq!((stats.fcp_exact, stats.fcp_sampled), (1, 0));
    }
}
