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
//! It also owns the run's [`TailMemo`]: every event family it builds
//! shares each frequentness tail `Pr{sup(X∪e) ≥ min_sup}` an earlier
//! build of the run computed for the same `T(X∪e)`, which is where an
//! event build spends its time. The memo is per evaluator (one per
//! parallel worker, so lock-free) and dies with the run, since `min_sup`
//! and the database change between serve queries and stream steps. The
//! depth-first miner also offers it the tail of every DP row it builds
//! from scratch ([`TailMemo::offer`]), so the parent's build finds
//! the child's tail instead of recomputing it.
//!
//! A run started from a [`crate::snapshot::Snapshot`] additionally goes
//! through the snapshot's [`SharedEventCache`] of [`EventTable`]s, keyed
//! by tid-set fingerprint: two itemsets with equal supporting tuples
//! need the same events (they differ only in which items are excluded),
//! so concurrent and successive queries project each other's tables.
//! Other runs build each family directly: within one mine a tid-set's
//! table is almost never asked for twice, and the memo already holds
//! every tail a table would save.

use std::sync::Arc;
use std::time::Duration;

use prob::dnf::required_samples;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use utdb::{Item, TidBitmap, UncertainDatabase};

use crate::cache::SharedEventCache;
use crate::config::{FcpMethod, MinerConfig};
use crate::events::{
    AbsenceScan, BoundTier, EventTable, NonClosureEvents, TailMemo, MAX_EXACT_TERMS,
};
use crate::fcp::{approx_fcp, approx_fcp_adaptive, approx_fcp_chunked};
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
    /// The snapshot's shared table cache; `None` outside snapshot runs.
    cache: Option<Arc<SharedEventCache>>,
    /// The run's frequentness tails; the depth-first miner
    /// [offers](TailMemo::offer) it the tail of every fresh DP row.
    pub tail_memo: TailMemo,
}

impl<'a, S: MinerSink + ?Sized> Evaluator<'a, S> {
    /// `cache` is a snapshot's shared event-table cache, `None` for a
    /// run that builds every family through its tail memo alone.
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
            cache,
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
    /// in the database: directly through the tail memo, or through the
    /// snapshot's table cache.
    ///
    /// With `screen_at = Some(pr_f)` the [`AbsenceScan`] runs first, and
    /// a family it decides is not built at all: the result carries the
    /// tier its bounds would have reported (see [`AbsenceScan::decides`]).
    /// The screen runs before the table cache, so snapshot queries skip
    /// the lookup too; a private run builds from the scan it already has.
    ///
    /// Cached projection and direct construction produce bitwise-identical
    /// families (the events module tests prove it), so the two paths
    /// never disagree on a mined probability.
    pub fn events_for(
        &mut self,
        items: &[Item],
        tids: &TidBitmap,
        screen_at: Option<f64>,
    ) -> Result<NonClosureEvents, BoundTier> {
        let db = self.db;
        let min_sup = self.cfg.min_sup;
        let cache = self.cache.as_deref();
        let tail_memo = &mut self.tail_memo;
        let mut sink = Tee(&mut self.ledger, &mut *self.sink);
        let (events, hit) = timed(Phase::EventBuild, &mut sink, || {
            let ext = (0..db.num_items() as u32)
                .map(Item)
                .filter(|i| items.binary_search(i).is_err());
            let scan = match (cache, screen_at) {
                (Some(_), None) => None,
                _ => {
                    let mut scan = AbsenceScan::new(db, tids, ext, tail_memo);
                    if let Some(tier) = screen_at.and_then(|pr_f| scan.decides(db, tids, pr_f)) {
                        return (Err(tier), None);
                    }
                    Some(scan)
                }
            };
            let Some(cache) = cache else {
                let scan = scan.expect("private runs always scan");
                return (
                    Ok(NonClosureEvents::from_scan(db, tids, scan, tail_memo)),
                    None,
                );
            };
            let fingerprint = tids.fingerprint();
            if let Some(table) = cache.get(fingerprint, tids, min_sup) {
                return (Ok(table.family_excluding(items)), Some(true));
            }
            let table = Arc::new(EventTable::build_memoized(db, tids, tail_memo));
            cache.insert(fingerprint, Arc::clone(&table));
            (Ok(table.family_excluding(items)), Some(false))
        });
        match (&events, hit) {
            (Err(_), _) => self.ledger.kernel.families_screened += 1,
            (_, Some(true)) => self.ledger.kernel.bound_cache_hits += 1,
            (_, Some(false)) => self.ledger.kernel.bound_cache_misses += 1,
            (_, None) => {}
        }
        events
    }

    /// Full checking phase for an itemset that survived all prunings:
    /// returns `Some(Pfci)` when its frequent closed probability exceeds
    /// `pfct`.
    ///
    /// With the probability bounds on and `pr_f > pfct`, the absence
    /// screen may decide the family before it is built; the decision is
    /// the one the bounds below would take on the built family, with the
    /// same events, carve ceiling and emitted probability.
    pub fn evaluate(&mut self, items: &[Item], tids: &TidBitmap, pr_f: f64) -> Option<Pfci> {
        let bounds = self.cfg.pruning.probability_bounds;
        let pfct = self.cfg.pfct;
        let screen_at = (bounds && pr_f > pfct).then_some(pr_f);
        let events = match self.events_for(items, tids, screen_at) {
            Ok(events) => events,
            Err(tier) => {
                self.observe().fcp_bounds(pr_f, pr_f);
                return Some(self.bound_decided(items, (pr_f, pr_f), tier, pr_f));
            }
        };
        let (lo, hi) = if bounds {
            let max_pairwise = self.cfg.max_pairwise_events;
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
                return Some(self.bound_decided(items, (lo, hi), tier, pr_f));
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

    /// Accept an itemset whose sandwich `(lo, hi)` from `tier` is above
    /// `pfct` and narrower than [`DECIDED_WIDTH`]: emit the midpoint.
    fn bound_decided(
        &mut self,
        items: &[Item],
        (lo, hi): (f64, f64),
        tier: BoundTier,
        pr_f: f64,
    ) -> Pfci {
        // The emitted midpoint depends on which tier decided; above `lo`
        // a re-run could take a different path, so a carved answer is
        // only valid below it. An empty family is `(pr_f, pr_f)` at any
        // threshold — no constraint.
        if tier != BoundTier::EmptyFamily {
            self.carve_ceiling = self.carve_ceiling.min(lo);
        }
        self.observe().fcp_evaluated(FcpEvalKind::BoundDecided, 0);
        self.emit(items, (lo + hi) / 2.0, pr_f)
    }

    /// Naive checking (the paper's "Naive" baseline): always run
    /// `ApproxFCP`, no bounds.
    pub fn evaluate_naive(&mut self, items: &[Item], tids: &TidBitmap, pr_f: f64) -> Option<Pfci> {
        let events = self
            .events_for(items, tids, None)
            .expect("only a screened build returns a tier");
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

    /// `ApproxFCP` as one [`Phase::FcpSample`] with one
    /// [`FcpEvalKind::Sampled`] event carrying its draws: the stopping
    /// rule when `adaptive` (inherently sequential — each draw decides
    /// whether to continue — so it never chunks), otherwise the fixed
    /// budget, chunked over the run's threads when it has more than one.
    fn sample_fcp(&mut self, events: &NonClosureEvents, pr_f: f64, adaptive: bool) -> f64 {
        let (epsilon, delta, threads) = (self.cfg.epsilon, self.cfg.delta, self.threads);
        let rng = &mut self.rng;
        let mut sink = Tee(&mut self.ledger, &mut *self.sink);
        let r = timed(Phase::FcpSample, &mut sink, || {
            match (adaptive, threads > 1) {
                (true, _) => approx_fcp_adaptive(events, pr_f, epsilon, delta, rng),
                (false, true) => {
                    approx_fcp_chunked(events, pr_f, epsilon, delta, threads, rng.next_u64())
                }
                (false, false) => approx_fcp(events, pr_f, epsilon, delta, rng),
            }
        });
        sink.fcp_evaluated(FcpEvalKind::Sampled, r.samples as u64);
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
    use crate::stats::RunLedger;
    use crate::trace::{NullSink, RecordingSink, TraceEvent};

    const PR_F: f64 = 0.95;

    /// The planner's FCP for `events` under `cfg`, and the run's ledger.
    fn plan_into<S: MinerSink>(
        cfg: &MinerConfig,
        events: &NonClosureEvents,
        sink: &mut S,
    ) -> (f64, RunLedger) {
        let db = UncertainDatabase::parse_symbolic(&[("a", 0.5)]);
        let mut evaluator = Evaluator::new(&db, cfg, sink, None);
        let fcp = evaluator.compute_fcp(events, PR_F);
        (fcp, evaluator.ledger)
    }

    fn plan(cfg: &MinerConfig, events: &NonClosureEvents) -> (f64, crate::stats::MinerStats) {
        let (fcp, ledger) = plan_into(cfg, events, &mut NullSink);
        (fcp, ledger.stats)
    }

    /// 60 rows of `a` at 0.5, 30 rows of `a b` at `p_ab` and 5 rows of
    /// `a c` at 0.5: at min_sup 30, `c` fails the count screen and `b`'s
    /// event has the absence factor `2^-65` (the 65 rows without `b`),
    /// far under a quarter of the float gap below `Pr_F({a}) ≈ 0.77`.
    fn screen_db(p_ab: f64) -> UncertainDatabase {
        let mut rows = vec![("a", 0.5); 60];
        rows.extend(vec![("a b", p_ab); 30]);
        rows.extend(vec![("a c", 0.5); 5]);
        UncertainDatabase::parse_symbolic(&rows)
    }

    /// Evaluate `{a}` of `db` at min_sup 30 and `pfct`: the result, the
    /// run's carve ceiling and its ledger.
    fn evaluate_a(db: &UncertainDatabase, pfct: f64) -> (Option<Pfci>, f64, f64, RunLedger) {
        let cfg = MinerConfig::new(30, pfct);
        let a = [db.dictionary().get("a").unwrap()];
        let pr_f = pfim::frequent_probability(db, &a, 30);
        let tids = db.bitmap_of(a[0]).clone();
        let mut sink = NullSink;
        let mut evaluator = Evaluator::new(db, &cfg, &mut sink, None);
        let pfci = evaluator.evaluate(&a, &tids, pr_f);
        (pfci, pr_f, evaluator.carve_ceiling, evaluator.ledger)
    }

    #[test]
    fn the_screen_decides_as_the_bounds_would() {
        // b's tail is 2^-900 and its event 2^-965: positive, so the
        // family is `CheapEarly` and caps the ceiling at pr_f.
        let (pfci, pr_f, ceiling, ledger) = evaluate_a(&screen_db(2f64.powi(-30)), 0.5);
        assert!(pr_f > 0.7 && pr_f < 0.8, "{pr_f}");
        assert_eq!(pfci.unwrap().fcp.to_bits(), pr_f.to_bits());
        assert_eq!(ceiling, pr_f);
        assert_eq!(ledger.kernel.families_screened, 1);
        assert_eq!(ledger.stats.bound_decided, 1);
        assert_eq!(ledger.timers.count(Phase::BoundEval), 0);
    }

    #[test]
    fn a_family_whose_events_all_underflow_sets_no_ceiling() {
        // b's tail is 2^-1020 and 2^-65 · 2^-1020 rounds to 0: the built
        // family is empty. The screen cannot certify a positive event, so
        // it builds, and the empty family leaves the ceiling alone.
        let db = screen_db(2f64.powi(-34));
        let (pfci, pr_f, ceiling, ledger) = evaluate_a(&db, 0.5);
        assert_eq!(pfci.unwrap().fcp.to_bits(), pr_f.to_bits());
        assert_eq!(ceiling, 1.0);
        assert_eq!(ledger.kernel.families_screened, 0);
        assert_eq!(ledger.stats.bound_decided, 1);
        let a = [db.dictionary().get("a").unwrap()];
        let tids = db.bitmap_of(a[0]);
        let b_and_c = (1..db.num_items() as u32).map(Item);
        let memo = TailMemo::new(&db, 30);
        let mut scan = AbsenceScan::new(&db, tids, b_and_c.clone(), &memo);
        assert_eq!(scan.mass_bound(), 2f64.powi(-65));
        assert_eq!(scan.decides(&db, tids, pr_f), None);
        assert!(NonClosureEvents::build(&db, tids, b_and_c, 30).is_empty());
    }

    #[test]
    fn a_family_without_mass_is_screened_empty() {
        // Without `b` only `c` extends `{a}`, and it fails the count
        // screen: M = 0, screened as the empty family it is.
        let mut rows = vec![("a", 0.5); 60];
        rows.extend(vec![("a c", 0.5); 5]);
        let db = UncertainDatabase::parse_symbolic(&rows);
        let (pfci, pr_f, ceiling, ledger) = evaluate_a(&db, 0.4);
        assert_eq!(pfci.unwrap().fcp.to_bits(), pr_f.to_bits());
        assert_eq!(ceiling, 1.0);
        assert_eq!(ledger.kernel.families_screened, 1);
        assert_eq!(ledger.timers.count(Phase::BoundEval), 0);
    }

    #[test]
    fn pr_f_at_or_below_pfct_is_not_screened() {
        let (pfci, pr_f, ceiling, ledger) = evaluate_a(&screen_db(2f64.powi(-30)), 0.8);
        assert!(pr_f <= 0.8);
        assert!(pfci.is_none());
        assert_eq!(ceiling, 1.0);
        assert_eq!(ledger.kernel.families_screened, 0);
        assert_eq!(ledger.stats.bound_rejected, 1);
        assert_eq!(ledger.timers.count(Phase::BoundEval), 1);
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
            let mut recorded = RecordingSink::default();
            let (fcp, ledger) = plan_into(&cfg, &events, &mut recorded);
            let stats = ledger.stats;
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
            // One sampling phase and one sampled evaluation per family.
            assert_eq!(
                ledger.timers.count(Phase::FcpSample),
                1,
                "threads={threads}"
            );
            let sampled: Vec<u64> = recorded
                .events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::FcpEval {
                        method: FcpEvalKind::Sampled,
                        samples,
                    } => Some(*samples),
                    _ => None,
                })
                .collect();
            assert_eq!(sampled, [expected.samples as u64], "threads={threads}");
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
