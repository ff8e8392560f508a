//! Probabilistic frequent itemset mining — the prior work the paper
//! builds on and compares against.
//!
//! The **probabilistic frequent model** (Bernecker et al. KDD'09; Sun et
//! al. "TODIS" KDD'10): an itemset is *probabilistically frequent* when
//! `Pr{ sup(X) ≥ min_sup } > pft`. [`freq_prob`] computes the frequent
//! probability by the `O(n · min_sup)` dynamic program; [`todis`] mines
//! the complete result set (the input to the paper's "Naive" baseline
//! and the PFI counts of Fig. 10), and also exposes the *probabilistic
//! support* notion used by the related-work comparison in §II.B.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod freq_prob;
pub mod todis;

pub use freq_prob::{frequent_probability, frequent_probability_of_tids, FreqProbScratch};
pub use todis::{probabilistic_frequent_itemsets, probabilistic_support, ProbabilisticItemset};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use utdb::{Item, ItemDictionary, PossibleWorlds, UncertainDatabase, UncertainTransaction};

    fn arb_udb() -> impl Strategy<Value = UncertainDatabase> {
        let tx = (1u32..64, 0.05f64..1.0);
        proptest::collection::vec(tx, 1..10).prop_map(|rows| {
            let transactions: Vec<UncertainTransaction> = rows
                .into_iter()
                .map(|(mask, p)| {
                    let items: Vec<Item> =
                        (0..6).filter(|i| mask >> i & 1 == 1).map(Item).collect();
                    UncertainTransaction::new(items, p)
                })
                .collect();
            UncertainDatabase::new(transactions, ItemDictionary::new())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The DP frequent probability equals the possible-world measure.
        #[test]
        fn freq_prob_matches_world_oracle(db in arb_udb(), min_sup in 0usize..4) {
            let m = db.num_items() as u32;
            for mask in 1u32..(1 << m.min(6)) {
                let x: Vec<Item> =
                    (0..m).filter(|i| mask >> i & 1 == 1).map(Item).collect();
                let dp = frequent_probability(&db, &x, min_sup);
                let oracle: f64 = PossibleWorlds::new(&db)
                    .filter(|&(w, _)| {
                        PossibleWorlds::support_in_world(&db, w, &x) >= min_sup
                    })
                    .map(|(_, p)| p)
                    .sum();
                prop_assert!((dp - oracle).abs() < 1e-9, "X={x:?}: {dp} vs {oracle}");
            }
        }

        /// Frequent probability is anti-monotone under itemset extension.
        #[test]
        fn freq_prob_is_anti_monotone(db in arb_udb(), min_sup in 1usize..3) {
            let m = db.num_items() as u32;
            for mask in 1u32..(1 << m.min(6)) {
                let x: Vec<Item> =
                    (0..m).filter(|i| mask >> i & 1 == 1).map(Item).collect();
                let px = frequent_probability(&db, &x, min_sup);
                for e in 0..m {
                    if mask >> e & 1 == 1 {
                        continue;
                    }
                    let mut xe = x.clone();
                    xe.push(Item(e));
                    xe.sort_unstable();
                    let pxe = frequent_probability(&db, &xe, min_sup);
                    prop_assert!(pxe <= px + 1e-12);
                }
            }
        }

        /// The PFI miner returns exactly the itemsets clearing the
        /// threshold, each with its correct probability.
        #[test]
        fn pfi_miner_is_exact(db in arb_udb(), pft in 0.05f64..0.95) {
            let min_sup = 2;
            let got = probabilistic_frequent_itemsets(&db, min_sup, pft);
            for p in &got {
                prop_assert!(p.frequent_probability > pft);
                let direct = frequent_probability(&db, &p.items, min_sup);
                prop_assert!((p.frequent_probability - direct).abs() < 1e-12);
            }
            // Completeness over singletons and pairs.
            let m = db.num_items() as u32;
            let got_sets: Vec<&[Item]> =
                got.iter().map(|p| p.items.as_slice()).collect();
            for mask in 1u32..(1 << m.min(6)) {
                if mask.count_ones() > 2 {
                    continue;
                }
                let x: Vec<Item> =
                    (0..m).filter(|i| mask >> i & 1 == 1).map(Item).collect();
                let should = frequent_probability(&db, &x, min_sup) > pft;
                prop_assert_eq!(got_sets.contains(&x.as_slice()), should, "X={:?}", x);
            }
        }

        /// Probabilistic support is the largest level whose tail clears
        /// the threshold.
        #[test]
        fn probabilistic_support_is_maximal(db in arb_udb(), pft in 0.1f64..0.9) {
            let m = db.num_items() as u32;
            for id in 0..m {
                let x = vec![Item(id)];
                if db.count_of_itemset(&x) == 0 {
                    continue;
                }
                let ps = probabilistic_support(&db, &x, pft);
                if ps > 0 {
                    prop_assert!(frequent_probability(&db, &x, ps) >= pft);
                }
                prop_assert!(frequent_probability(&db, &x, ps + 1) < pft);
            }
        }
    }
}
