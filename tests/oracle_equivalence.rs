//! The central correctness battery: on randomly generated small uncertain
//! databases, every mining configuration must reproduce the result set of
//! the brute-force possible-world oracle exactly.

use pfcim::core::{
    exact_pfci_set, Algorithm, FcpMethod, Miner, MinerConfig, MiningOutcome, Variant,
};
use pfcim::utdb::{Item, ItemDictionary, UncertainDatabase, UncertainTransaction};

fn mine(db: &UncertainDatabase, cfg: &MinerConfig) -> MiningOutcome {
    Miner::new(db).config(cfg.clone()).run()
}

fn mine_naive(db: &UncertainDatabase, cfg: &MinerConfig) -> MiningOutcome {
    Miner::new(db)
        .config(cfg.clone())
        .algorithm(Algorithm::Naive)
        .run()
}
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Random uncertain database small enough for exhaustive world + itemset
/// enumeration.
fn random_utdb(seed: u64, n: usize, num_items: u32, density: f64) -> UncertainDatabase {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    while rows.len() < n {
        let items: Vec<Item> = (0..num_items)
            .filter(|_| rng.random::<f64>() < density)
            .map(Item)
            .collect();
        if items.is_empty() {
            continue;
        }
        // Probabilities over the full range, including near-certain.
        let p = 0.05 + 0.95 * rng.random::<f64>();
        rows.push(UncertainTransaction::new(items, p));
    }
    UncertainDatabase::new(rows, ItemDictionary::new())
}

fn exact_cfg(min_sup: usize, pfct: f64) -> MinerConfig {
    MinerConfig::new(min_sup, pfct).with_fcp_method(FcpMethod::ExactOnly)
}

#[test]
fn dfs_matches_oracle_on_random_databases() {
    for seed in 0..20 {
        let db = random_utdb(seed, 8, 6, 0.5);
        for (min_sup, pfct) in [(1, 0.5), (2, 0.3), (2, 0.7), (3, 0.5), (4, 0.2)] {
            let oracle: Vec<Vec<Item>> = exact_pfci_set(&db, min_sup, pfct)
                .into_iter()
                .map(|p| p.items)
                .collect();
            let got = mine(&db, &exact_cfg(min_sup, pfct)).itemsets();
            assert_eq!(got, oracle, "seed={seed} min_sup={min_sup} pfct={pfct}");
        }
    }
}

#[test]
fn fcp_values_match_oracle_exactly() {
    for seed in 20..30 {
        let db = random_utdb(seed, 8, 5, 0.55);
        let oracle = exact_pfci_set(&db, 2, 0.4);
        let got = mine(&db, &exact_cfg(2, 0.4));
        assert_eq!(got.results.len(), oracle.len(), "seed={seed}");
        for (g, o) in got.results.iter().zip(&oracle) {
            assert_eq!(g.items, o.items);
            assert!(
                (g.fcp - o.fcp).abs() < 1e-9,
                "seed={seed} {:?}: {} vs {}",
                g.items,
                g.fcp,
                o.fcp
            );
        }
    }
}

#[test]
fn every_variant_matches_the_oracle() {
    for seed in 30..38 {
        let db = random_utdb(seed, 9, 5, 0.5);
        let oracle: Vec<Vec<Item>> = exact_pfci_set(&db, 2, 0.5)
            .into_iter()
            .map(|p| p.items)
            .collect();
        for variant in Variant::ALL {
            let cfg = exact_cfg(2, 0.5).with_variant(variant);
            let got = mine(&db, &cfg).itemsets();
            assert_eq!(got, oracle, "seed={seed} variant={}", variant.name());
        }
    }
}

#[test]
fn naive_matches_the_oracle_set() {
    // Naive uses sampling; its membership decisions may flip only for
    // itemsets whose FCP is very close to the threshold. Using a pfct far
    // from any attainable FCP ties the comparison down deterministically.
    for seed in 38..44 {
        let db = random_utdb(seed, 7, 5, 0.6);
        let oracle = exact_pfci_set(&db, 2, 0.5);
        // Only keep cases where no FCP is within 0.08 of the threshold.
        let safe = oracle.iter().all(|p| (p.fcp - 0.5).abs() > 0.08);
        if !safe {
            continue;
        }
        let cfg = MinerConfig::new(2, 0.5).with_approximation(0.05, 0.02);
        let got = mine_naive(&db, &cfg);
        assert_eq!(
            got.itemsets(),
            oracle.iter().map(|p| p.items.clone()).collect::<Vec<_>>(),
            "seed={seed}"
        );
    }
}

#[test]
fn auto_method_matches_exact_method() {
    // Auto switches between inclusion-exclusion and sampling; on small
    // fan-outs it must be bit-identical to ExactOnly.
    for seed in 44..52 {
        let db = random_utdb(seed, 8, 5, 0.5);
        let exact = mine(&db, &exact_cfg(2, 0.4));
        let auto = mine(
            &db,
            &MinerConfig::new(2, 0.4).with_fcp_method(FcpMethod::Auto { exact_cap: 24 }),
        );
        assert_eq!(exact.itemsets(), auto.itemsets(), "seed={seed}");
    }
}

/// A sparse Quest base (300 rows, 60 items, ~4 per row, p ~ U[0.6, 0.9]):
/// at min_sup 3 many checked itemsets have wider families than the
/// default `exact_cap`, but their support lattices are small.
fn sparse_quest_base() -> UncertainDatabase {
    let quest = pfcim::utdb::gen::QuestConfig {
        num_transactions: 300,
        avg_transaction_len: 4.0,
        avg_pattern_len: 2.0,
        num_items: 60,
        num_patterns: 20,
        ..pfcim::utdb::gen::QuestConfig::t20i10_p40(300)
    };
    let mut rng = SmallRng::seed_from_u64(44);
    pfcim::utdb::assign_uniform_probabilities(&quest.generate(&mut rng), 0.6, 0.9, &mut rng)
}

#[test]
fn auto_is_exact_on_a_sparse_base_with_wide_families() {
    let db = sparse_quest_base();
    let exact = mine(&db, &exact_cfg(3, 0.8));
    // The base is a real test of the planner: some emitted itemset has
    // more events than the default exact_cap.
    let widest = exact
        .results
        .iter()
        .map(|p| {
            let tids = db.tidset_of_itemset(&p.items).into_bitmap();
            let ext = (0..db.num_items() as u32)
                .map(Item)
                .filter(|i| !p.items.contains(i));
            pfcim::core::NonClosureEvents::build(&db, &tids, ext, 3).len()
        })
        .max()
        .unwrap_or(0);
    assert!(widest > 8, "widest emitted family has {widest} events");
    for exact_cap in [8, 0] {
        let cfg = MinerConfig::new(3, 0.8).with_fcp_method(FcpMethod::Auto { exact_cap });
        let auto = mine(&db, &cfg);
        assert_eq!(auto.stats.fcp_sampled, 0, "exact_cap={exact_cap}");
        assert_eq!(auto.stats.samples_drawn, 0);
        assert_eq!(auto.stats.fcp_exact, exact.stats.fcp_exact);
        assert_eq!(auto.results.len(), exact.results.len());
        for (a, e) in auto.results.iter().zip(&exact.results) {
            assert_eq!(a.items, e.items, "exact_cap={exact_cap}");
            assert_eq!(a.fcp.to_bits(), e.fcp.to_bits(), "{:?}", a.items);
            assert_eq!(
                a.frequent_probability.to_bits(),
                e.frequent_probability.to_bits()
            );
        }
    }
}

#[test]
fn results_never_include_subthreshold_itemsets() {
    // Soundness half that holds for every configuration, sampled or not:
    // reported FCP values dominate pfct and never exceed Pr_F.
    for seed in 52..60 {
        let db = random_utdb(seed, 10, 6, 0.45);
        let out = mine(&db, &MinerConfig::new(2, 0.6));
        for p in &out.results {
            assert!(p.fcp > 0.6, "{:?} fcp={}", p.items, p.fcp);
            assert!(
                p.fcp <= p.frequent_probability + 1e-9,
                "FCP must not exceed the frequent probability"
            );
        }
    }
}

/// Brute-force possible-world probability that at least `k` of the
/// transactions containing `x` exist, enumerating all `2^n` worlds of
/// the *whole* database (not just the containing rows) so the oracle is
/// independent of the Poisson-binomial factorisation the DP relies on.
fn world_enumeration_tail(db: &UncertainDatabase, x: Item, k: usize) -> f64 {
    let rows = db.transactions();
    let n = rows.len();
    assert!(n <= 12, "world enumeration is 2^n");
    let mut total = 0.0;
    for world in 0u32..(1 << n) {
        let mut prob = 1.0;
        let mut sup = 0usize;
        for (t, row) in rows.iter().enumerate() {
            if world & (1 << t) != 0 {
                prob *= row.probability();
                if row.items().contains(&x) {
                    sup += 1;
                }
            } else {
                prob *= 1.0 - row.probability();
            }
        }
        if sup >= k {
            total += prob;
        }
    }
    total
}

#[test]
fn tail_dp_matches_possible_world_enumeration() {
    // Differential oracle for the frequentness DP itself: on databases
    // small enough for exhaustive world enumeration, both a freshly
    // rebuilt `TailDp` row and a row *downdated* from a superset must
    // agree with the 2^n oracle to within the advertised tolerance.
    use pfcim::prob::TailDp;

    let tol = 1e-9;
    let mut downdates_accepted = 0u32;
    for seed in 200..212 {
        let db = random_utdb(seed, 10, 5, 0.5);
        let all_probs: Vec<f64> = (0..db.len()).map(|t| db.probability(t)).collect();
        for item in 0..5u32 {
            let x = Item(item);
            let containing: Vec<f64> = db
                .transactions()
                .iter()
                .filter(|row| row.items().contains(&x))
                .map(|row| row.probability())
                .collect();
            for k in 1..=4usize {
                let oracle = world_enumeration_tail(&db, x, k);

                // Rebuilt row.
                let rebuilt = TailDp::from_probs(k, containing.iter().copied());
                assert!(
                    (rebuilt.tail() - oracle).abs() <= 1e-9,
                    "seed={seed} item={item} k={k}: rebuilt {} vs oracle {oracle}",
                    rebuilt.tail()
                );

                // Downdated row: start from the superset row over ALL
                // transactions and remove the ones not containing `x` —
                // exactly what the miner's child-node downdate does.
                let mut dp = TailDp::from_probs(k, all_probs.iter().copied());
                let mut ok = true;
                for row in db.transactions() {
                    if !row.items().contains(&x) && !dp.try_remove(row.probability(), tol) {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    downdates_accepted += 1;
                    assert!(
                        (dp.tail() - oracle).abs() <= tol,
                        "seed={seed} item={item} k={k}: downdated {} vs oracle {oracle} \
                         (measured err bound {})",
                        dp.tail(),
                        dp.error_bound()
                    );
                }
            }
        }
    }
    // The battery is pointless if the downdate path never fires.
    assert!(
        downdates_accepted > 100,
        "only {downdates_accepted} downdate chains accepted at tol={tol}"
    );
}

#[test]
fn timed_out_runs_return_sound_subsets() {
    let db = random_utdb(99, 12, 8, 0.5);
    let full = mine(&db, &exact_cfg(2, 0.3));
    assert!(!full.timed_out);
    // A zero budget must abort immediately but cleanly.
    let cfg = exact_cfg(2, 0.3).with_time_budget(std::time::Duration::ZERO);
    let aborted = mine(&db, &cfg);
    assert!(aborted.timed_out);
    for items in aborted.itemsets() {
        assert!(full.itemsets().contains(&items), "subset of the full run");
    }
}
