//! Golden bit-identity test for dense mines.
//!
//! Pins every emitted itemset, `fcp.to_bits()` and
//! `frequent_probability.to_bits()` of a depth-first mine of a
//! fixed-seed T20I10 base with Gaussian(0.8, 0.1) existential
//! probabilities, at two supports and on one and two threads, together
//! with the number of DP rows the miner derived by downdating and the
//! number it rebuilt. The dense mine spends its time in the frequentness
//! DP and the event-table build, so any change to either kernel that
//! moves a single bit of output, or changes which rows are downdated,
//! fails here. The lower support samples two families, and chunked
//! sampling on two workers draws differently from one, so each thread
//! count has its own digest.

use pfcim::core::{Miner, MiningOutcome};
use pfcim::utdb::gen::QuestConfig;
use pfcim::utdb::{assign_gaussian_probabilities, UncertainDatabase};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// 200 T20I10 rows over 40 items, probabilities Gaussian(0.8, 0.1).
fn dense_base() -> UncertainDatabase {
    let mut rng = SmallRng::seed_from_u64(2012);
    let quest = QuestConfig::t20i10_p40(200).generate(&mut rng);
    assign_gaussian_probabilities(&quest, 0.8, 0.1, &mut rng)
}

/// FNV-1a over every result's item ids, `fcp` bits and
/// `frequent_probability` bits, in output order.
fn digest(outcome: &MiningOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for pfci in &outcome.results {
        eat(pfci.items.len() as u64);
        for item in &pfci.items {
            eat(u64::from(item.0));
        }
        eat(pfci.fcp.to_bits());
        eat(pfci.frequent_probability.to_bits());
    }
    h
}

/// `(min_sup, threads, result count, digest, incremental rows, rebuilt
/// rows)`.
const GOLDEN: [(usize, usize, usize, u64, u64, u64); 4] = [
    (60, 1, 306, 0x54c2_225c_ec91_397e, 3, 505),
    (60, 2, 306, 0x54c2_225c_ec91_397e, 3, 505),
    (50, 1, 778, 0x3ee9_46d0_9a99_79b9, 14, 1321),
    (50, 2, 778, 0x6027_2c53_0f0b_4078, 14, 1321),
];

#[test]
fn dense_mines_are_bit_identical() {
    let db = dense_base();
    for (min_sup, threads, count, want, incremental, rebuilt) in GOLDEN {
        let outcome = Miner::new(&db)
            .min_sup(min_sup)
            .pfct(0.8)
            .threads(threads)
            .run();
        let got = (
            outcome.results.len(),
            digest(&outcome),
            outcome.audit.incremental,
            outcome.audit.recomputed(),
        );
        assert_eq!(
            got,
            (count, want, incremental, rebuilt),
            "min_sup={min_sup} threads={threads}: digest {:#x}",
            got.1
        );
    }
}
