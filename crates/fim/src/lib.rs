//! Exact (deterministic) frequent itemset mining.
//!
//! These are the classical algorithms the paper's compression experiment
//! (Fig. 10) measures against — FP-growth for frequent itemsets and a
//! closed-itemset miner standing in for CLOSET+ — plus Apriori and Eclat
//! as cross-validation baselines. They operate on an
//! [`utdb::UncertainDatabase`] *ignoring probabilities* (every transaction
//! counts), which also makes them directly usable inside possible-world
//! enumeration where each world is an exact database.
//!
//! All miners return the same [`MinedItemset`] records and agree exactly
//! with one another; the test suites cross-validate them on random
//! databases.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod apriori;
pub mod closed;
pub mod eclat;
pub mod fpgrowth;
pub mod fptree;

pub use apriori::frequent_itemsets_apriori;
pub use closed::{closed_by_filtering, frequent_closed_itemsets};
pub use eclat::frequent_itemsets_eclat;
pub use fpgrowth::frequent_itemsets_fpgrowth;

use utdb::Item;

/// A mined itemset with its (deterministic) support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinedItemset {
    /// The itemset, sorted ascending.
    pub items: Vec<Item>,
    /// Number of transactions containing the itemset.
    pub support: usize,
}

impl MinedItemset {
    /// Construct, asserting sortedness in debug builds.
    pub fn new(items: Vec<Item>, support: usize) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "unsorted itemset");
        Self { items, support }
    }
}

/// Canonical ordering for result comparison: by itemset lexicographically.
pub fn sort_canonical(results: &mut [MinedItemset]) {
    results.sort_by(|a, b| a.items.cmp(&b.items));
}

#[cfg(test)]
pub(crate) mod testutil {
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    use utdb::{Item, ItemDictionary, UncertainDatabase, UncertainTransaction};

    /// A random exact database for cross-validation tests.
    pub fn random_db(seed: u64, n: usize, num_items: u32, density: f64) -> UncertainDatabase {
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
            rows.push(UncertainTransaction::new(items, 1.0));
        }
        UncertainDatabase::new(rows, ItemDictionary::new())
    }

    /// Brute-force frequent itemsets by enumerating every subset of the
    /// item universe (tiny universes only).
    pub fn brute_force_frequent(
        db: &UncertainDatabase,
        min_sup: usize,
    ) -> Vec<crate::MinedItemset> {
        let m = db.num_items();
        assert!(m <= 16);
        let mut out = Vec::new();
        for mask in 1u32..(1 << m) {
            let items: Vec<Item> = (0..m as u32)
                .filter(|i| mask >> i & 1 == 1)
                .map(Item)
                .collect();
            let support = db.count_of_itemset(&items);
            if support >= min_sup {
                out.push(crate::MinedItemset::new(items, support));
            }
        }
        crate::sort_canonical(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_validate_all_miners_on_random_databases() {
        for seed in 0..8 {
            let db = testutil::random_db(seed, 40, 10, 0.4);
            for min_sup in [1, 2, 5, 10, 20] {
                let brute = testutil::brute_force_frequent(&db, min_sup);
                let mut ap = frequent_itemsets_apriori(&db, min_sup);
                let mut ec = frequent_itemsets_eclat(&db, min_sup);
                let mut fp = frequent_itemsets_fpgrowth(&db, min_sup);
                sort_canonical(&mut ap);
                sort_canonical(&mut ec);
                sort_canonical(&mut fp);
                assert_eq!(ap, brute, "apriori seed={seed} min_sup={min_sup}");
                assert_eq!(ec, brute, "eclat seed={seed} min_sup={min_sup}");
                assert_eq!(fp, brute, "fpgrowth seed={seed} min_sup={min_sup}");
            }
        }
    }

    #[test]
    fn closed_miners_agree_with_filter_reference() {
        for seed in 10..16 {
            let db = testutil::random_db(seed, 30, 9, 0.45);
            for min_sup in [1, 3, 8] {
                let fis = frequent_itemsets_fpgrowth(&db, min_sup);
                let mut by_filter = closed_by_filtering(&fis);
                let mut direct = frequent_closed_itemsets(&db, min_sup);
                sort_canonical(&mut by_filter);
                sort_canonical(&mut direct);
                assert_eq!(direct, by_filter, "seed={seed} min_sup={min_sup}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use utdb::{Item, ItemDictionary, UncertainDatabase, UncertainTransaction};

    fn arb_db() -> impl Strategy<Value = UncertainDatabase> {
        proptest::collection::vec(1u32..256, 1..20).prop_map(|masks| {
            let rows: Vec<UncertainTransaction> = masks
                .into_iter()
                .map(|mask| {
                    let items: Vec<Item> =
                        (0..8).filter(|i| mask >> i & 1 == 1).map(Item).collect();
                    UncertainTransaction::new(items, 1.0)
                })
                .collect();
            UncertainDatabase::new(rows, ItemDictionary::new())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// All three frequent-itemset miners agree on arbitrary inputs.
        #[test]
        fn miners_agree(db in arb_db(), min_sup in 1usize..6) {
            let mut ap = frequent_itemsets_apriori(&db, min_sup);
            let mut ec = frequent_itemsets_eclat(&db, min_sup);
            let mut fp = frequent_itemsets_fpgrowth(&db, min_sup);
            sort_canonical(&mut ap);
            sort_canonical(&mut ec);
            sort_canonical(&mut fp);
            prop_assert_eq!(&ap, &ec);
            prop_assert_eq!(&ap, &fp);
        }

        /// The direct closed miner equals filtering the frequent set.
        #[test]
        fn closed_miner_equals_filter(db in arb_db(), min_sup in 1usize..5) {
            let fis = frequent_itemsets_fpgrowth(&db, min_sup);
            let mut direct = frequent_closed_itemsets(&db, min_sup);
            let mut filtered = closed_by_filtering(&fis);
            sort_canonical(&mut direct);
            sort_canonical(&mut filtered);
            prop_assert_eq!(direct, filtered);
        }

        /// Reported supports are correct and at least min_sup.
        #[test]
        fn supports_are_exact(db in arb_db(), min_sup in 1usize..5) {
            for m in frequent_itemsets_fpgrowth(&db, min_sup) {
                prop_assert!(m.support >= min_sup);
                prop_assert_eq!(m.support, db.count_of_itemset(&m.items));
            }
        }

        /// Downward closure: every non-empty subset of a frequent itemset
        /// is frequent (appears in the result set).
        #[test]
        fn downward_closure(db in arb_db(), min_sup in 1usize..5) {
            let mut fis = frequent_itemsets_fpgrowth(&db, min_sup);
            sort_canonical(&mut fis);
            let sets: Vec<&[Item]> = fis.iter().map(|m| m.items.as_slice()).collect();
            for m in &fis {
                if m.items.len() < 2 {
                    continue;
                }
                for skip in 0..m.items.len() {
                    let sub: Vec<Item> = m
                        .items
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != skip)
                        .map(|(_, &it)| it)
                        .collect();
                    prop_assert!(sets.binary_search(&sub.as_slice()).is_ok());
                }
            }
        }
    }
}
