//! The breadth-first variant `MPFCI-BFS` (Section V.D of the paper).
//!
//! Level-wise Apriori-style enumeration of probabilistic frequent
//! itemsets, each surviving itemset then passing through the same
//! bounding/checking phase as the DFS miner. The superset and subset
//! prunings do not apply — they hinge on prefix relationships that the
//! level-wise order never materializes ("they won't show up in BFS's
//! enumeration") — which is precisely why the paper finds DFS faster.
//!
//! BFS always rebuilds the frequentness DP row (counted as
//! `dp_recomputed`): carrying a live [`TailDp`] row per stored level
//! entry would multiply the already level-sized memory footprint, and the
//! join step's parents are not generally supersets anyway.

use std::sync::Arc;
use std::time::Instant;

use prob::hoeffding::hoeffding_infrequent;
use prob::TailDp;
use utdb::{Item, TidBitmap, UncertainDatabase};

use crate::cache::SharedEventCache;
use crate::config::MinerConfig;
use crate::evaluator::Evaluator;
use crate::result::MiningOutcome;
use crate::trace::{timed, DpDecision, MinerSink, Phase, PruneKind};

/// The level-wise miner proper — the engine behind the
/// [`crate::miner::Miner`] builder. `cache = None` gives the run a
/// private event-table cache (see [`Evaluator::new`]).
pub(crate) fn run_bfs<S: MinerSink + ?Sized>(
    db: &UncertainDatabase,
    config: &MinerConfig,
    sink: &mut S,
    cache: Option<Arc<SharedEventCache>>,
) -> MiningOutcome {
    config.validate();
    sink.run_started("bfs", config);
    let start = Instant::now();
    let deadline = config.time_budget.map(|b| start + b);
    let mut timed_out = false;
    let mut evaluator = Evaluator::new(db, config, sink, cache);
    let mut results = Vec::new();

    // Level 1: probabilistic frequent single items.
    let mut level: Vec<(Vec<Item>, TidBitmap, f64)> = Vec::new();
    for id in 0..db.num_items() as u32 {
        let item = Item(id);
        let tids = db.bitmap_of(item).clone();
        if let Some(pr_f) = qualify(db, config, &tids, &mut evaluator) {
            level.push((vec![item], tids, pr_f));
        }
    }

    'levels: while !level.is_empty() {
        // Checking phase for every itemset of this level.
        for (items, tids, pr_f) in &level {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    timed_out = true;
                    break 'levels;
                }
            }
            evaluator.observe().node_entered(items.len());
            if let Some(pfci) = evaluator.evaluate(items, tids, *pr_f) {
                results.push(pfci);
            }
        }
        // Join step: pairs sharing a (k-1)-prefix.
        let mut next: Vec<(Vec<Item>, TidBitmap, f64)> = Vec::new();
        for (i, (a_items, a_tids, _)) in level.iter().enumerate() {
            for (b_items, b_tids, _) in &level[i + 1..] {
                let k = a_items.len();
                if a_items[..k - 1] != b_items[..k - 1] {
                    continue;
                }
                let last = b_items[k - 1];
                if last <= a_items[k - 1] {
                    continue;
                }
                evaluator.ledger.kernel.bitmap_words += a_tids.word_len() as u64;
                let joint = a_tids.and(b_tids);
                if let Some(pr_f) = qualify(db, config, &joint, &mut evaluator) {
                    let mut items = a_items.clone();
                    items.push(last);
                    next.push((items, joint, pr_f));
                }
            }
        }
        level = next;
    }

    evaluator.finish(results, start.elapsed(), timed_out)
}

/// Probabilistic-frequency qualification shared with the DFS miner's
/// logic: count, optional Chernoff–Hoeffding refutation, exact DP
/// (always rebuilt — see the module docs).
fn qualify<S: MinerSink + ?Sized>(
    db: &UncertainDatabase,
    cfg: &MinerConfig,
    tids: &TidBitmap,
    evaluator: &mut Evaluator<'_, S>,
) -> Option<f64> {
    let count = tids.count();
    if count < cfg.min_sup {
        return None;
    }
    if cfg.pruning.chernoff_hoeffding {
        let refuted = timed(Phase::ChBound, &mut evaluator.observe(), || {
            let esup: f64 = tids.iter().map(|tid| db.probability(tid)).sum();
            hoeffding_infrequent(esup, count, cfg.min_sup, cfg.pfct)
        });
        if refuted {
            evaluator
                .observe()
                .prune_fired(PruneKind::ChernoffHoeffding);
            return None;
        }
    }
    let mut sink = evaluator.observe();
    let pr_f = timed(Phase::FreqDp, &mut sink, || {
        let mut dp = TailDp::new(cfg.min_sup);
        for tid in tids.iter() {
            dp.push(db.probability(tid));
        }
        dp.tail()
    });
    sink.dp_decision(DpDecision::FreshLevel);
    sink.freq_prob_evaluated(pr_f);
    if pr_f <= cfg.pfct {
        sink.prune_fired(PruneKind::FreqProb);
        return None;
    }
    Some(pr_f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FcpMethod, Variant};
    use crate::mpfci::run_dfs;
    use crate::trace::NullSink;

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

    #[test]
    fn bfs_equals_dfs_result_set() {
        let db = table4();
        for (min_sup, pfct) in [(1, 0.5), (2, 0.8), (2, 0.6), (3, 0.3)] {
            let cfg = MinerConfig::new(min_sup, pfct).with_fcp_method(FcpMethod::ExactOnly);
            let dfs = run_dfs(&db, &cfg, &mut NullSink, None);
            let bfs = run_bfs(
                &db,
                &cfg.clone().with_variant(Variant::Bfs),
                &mut NullSink,
                None,
            );
            assert_eq!(
                bfs.itemsets(),
                dfs.itemsets(),
                "min_sup={min_sup} pfct={pfct}"
            );
            for (b, d) in bfs.results.iter().zip(&dfs.results) {
                assert!((b.fcp - d.fcp).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn bfs_visits_more_nodes_than_dfs() {
        // Without the structural prunings, BFS must enumerate at least as
        // many itemsets as DFS — the effect the paper's Fig. 12 measures.
        let db = table4();
        let cfg = MinerConfig::new(2, 0.8);
        let dfs = run_dfs(&db, &cfg, &mut NullSink, None);
        let bfs = run_bfs(
            &db,
            &cfg.clone().with_variant(Variant::Bfs),
            &mut NullSink,
            None,
        );
        assert!(
            bfs.stats.nodes_visited >= dfs.stats.nodes_visited,
            "bfs {} < dfs {}",
            bfs.stats.nodes_visited,
            dfs.stats.nodes_visited
        );
    }

    #[test]
    fn bfs_only_recomputes_its_dp_rows() {
        let db = table4();
        let cfg = MinerConfig::new(2, 0.8).with_variant(Variant::Bfs);
        let out = run_bfs(&db, &cfg, &mut NullSink, None);
        assert_eq!(out.kernel.dp_incremental, 0);
        assert_eq!(out.kernel.dp_recomputed, out.stats.freq_prob_evals);
    }

    #[test]
    fn bfs_empty_result_cases() {
        let db = table4();
        assert!(
            run_bfs(&db, &MinerConfig::new(10, 0.5), &mut NullSink, None)
                .results
                .is_empty()
        );
        assert!(
            run_bfs(&db, &MinerConfig::new(2, 0.999), &mut NullSink, None)
                .results
                .is_empty()
        );
    }
}
