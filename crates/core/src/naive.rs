//! The "Naive" baseline of the paper's Fig. 5.
//!
//! Mine the complete probabilistic frequent itemset set with the existing
//! PFI machinery (the TODIS result set), then *directly* run the
//! `ApproxFCP` approximation on every PFI, one by one — no bounds, no
//! structural prunings. The paper shows this blows past one hour as soon
//! as `min_sup` drops, because the number of PFIs (and therefore of
//! #P-hard checks) explodes.

use std::sync::Arc;
use std::time::Instant;

use utdb::UncertainDatabase;

use crate::cache::SharedEventCache;
use crate::config::MinerConfig;
use crate::evaluator::Evaluator;
use crate::result::MiningOutcome;
use crate::trace::MinerSink;

/// The exhaustive PFI-checking baseline proper — the engine behind the
/// [`crate::miner::Miner`] builder.
///
/// The PFI stage uses `pft = pfct`: any itemset with `Pr_F(X) ≤ pfct`
/// has `Pr_FC(X) ≤ pfct` too, so the restriction loses nothing.
/// `cache = None` gives the run a private event-table cache (see
/// [`Evaluator::new`]).
pub(crate) fn run_naive<S: MinerSink + ?Sized>(
    db: &UncertainDatabase,
    config: &MinerConfig,
    sink: &mut S,
    cache: Option<Arc<SharedEventCache>>,
) -> MiningOutcome {
    config.validate();
    sink.run_started("naive", config);
    let start = Instant::now();
    let deadline = config.time_budget.map(|b| start + b);
    let mut timed_out = false;
    let mut evaluator = Evaluator::new(db, config, sink, cache);

    let pfis = pfim::probabilistic_frequent_itemsets(db, config.min_sup, config.pfct);
    let mut results = Vec::new();
    for pfi in &pfis {
        if let Some(d) = deadline {
            if std::time::Instant::now() >= d {
                timed_out = true;
                break;
            }
        }
        evaluator.observe().node_entered(pfi.items.len());
        let tids = db.tidset_of_itemset(&pfi.items).into_bitmap();
        if let Some(pfci) = evaluator.evaluate_naive(&pfi.items, &tids, pfi.frequent_probability) {
            results.push(pfci);
        }
    }

    // The PFI stage runs its own DPs outside the evaluator, so the naive
    // baseline's audit stays empty (it never produces TailDp rows here).
    evaluator.finish(results, start.elapsed(), timed_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FcpMethod;
    use crate::mpfci::run_dfs;
    use crate::trace::NullSink;

    fn naive(db: &UncertainDatabase, cfg: &MinerConfig) -> MiningOutcome {
        run_naive(db, cfg, &mut NullSink, None)
    }

    fn dfs(db: &UncertainDatabase, cfg: &MinerConfig) -> MiningOutcome {
        run_dfs(db, cfg, &mut NullSink, None)
    }

    fn table2() -> UncertainDatabase {
        UncertainDatabase::parse_symbolic(&[
            ("a b c d", 0.9),
            ("a b c", 0.6),
            ("a b c", 0.7),
            ("a b c d", 0.9),
        ])
    }

    #[test]
    fn naive_matches_mpfci_result_set() {
        let db = table2();
        let cfg = MinerConfig::new(2, 0.8).with_approximation(0.05, 0.05);
        let naive = naive(&db, &cfg);
        let dfs = dfs(&db, &cfg.clone().with_fcp_method(FcpMethod::ExactOnly));
        assert_eq!(naive.itemsets(), dfs.itemsets());
    }

    #[test]
    fn naive_checks_every_pfi() {
        // 15 PFIs exist in the running example; naive must check them all
        // while MPFCI checks far fewer.
        let db = table2();
        let cfg = MinerConfig::new(2, 0.8);
        let naive = naive(&db, &cfg);
        assert_eq!(naive.stats.nodes_visited, 15);
        assert_eq!(naive.stats.fcp_sampled, 15);
        // Its DPs run in the PFI stage, outside the audited evaluator.
        assert_eq!(naive.audit.total(), 0);
        let dfs = dfs(&db, &cfg);
        assert!(dfs.stats.fcp_evaluations() < naive.stats.fcp_evaluations());
    }

    #[test]
    fn naive_fcp_values_are_close_to_exact() {
        let db = table2();
        let cfg = MinerConfig::new(2, 0.8).with_approximation(0.05, 0.05);
        let naive = naive(&db, &cfg);
        for p in &naive.results {
            let exact = crate::exact::exact_fcp_by_worlds(&db, &p.items, 2);
            assert!((p.fcp - exact).abs() < 0.02, "{:?}", p.items);
        }
    }
}
