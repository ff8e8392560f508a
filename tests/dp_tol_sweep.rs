//! Tolerance-sweep regression gate: the mined result set must be
//! invariant across the whole `dp_error_tol` range (strict `0.0` through
//! loose `1e-5`). The tolerance only decides *how* a node's frequentness
//! row is obtained (downdate vs rebuild), never *what* is mined — any
//! divergence means downdate error leaked into a pruning or acceptance
//! decision.
//!
//! `scripts/ci.sh` runs this with `PFCIM_SWEEP_ROWS` raised so the sweep
//! also covers a database large enough for deep downdate chains.

use pfcim::core::{FcpMethod, Miner, MinerConfig, MiningOutcome};
use pfcim::utdb::{Item, ItemDictionary, UncertainDatabase, UncertainTransaction};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Paper-style synthetic: random transactions over a small item universe
/// with existential probabilities from a clamped Gaussian(mean, sd) —
/// the same uncertainty model the paper's Mushroom/Quest cells use.
fn gaussian_utdb(seed: u64, n: usize, num_items: u32, mean: f64, sd: f64) -> UncertainDatabase {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    while rows.len() < n {
        // Density 0.7 keeps a child's tid-set larger than the rows it
        // drops from its parent (≈0.7·parent vs ≈0.3·parent), so the
        // downdate is cheaper than a rebuild at every DFS level and every
        // sweep size — lower densities make cost-skip win on average.
        let items: Vec<Item> = (0..num_items)
            .filter(|_| rng.random::<f64>() < 0.7)
            .map(Item)
            .collect();
        if items.is_empty() {
            continue;
        }
        // Irwin–Hall sum of 12 uniforms ~ N(0, 1). The upper clamp
        // mirrors `utdb`'s `MAX_ASSIGNED_PROBABILITY`: p = 1.0 rows are
        // structurally non-deconvolvable (q = 0) and would turn every
        // chain through them into a rebuild regardless of tolerance.
        let z: f64 = (0..12).map(|_| rng.random::<f64>()).sum::<f64>() - 6.0;
        let p = (mean + sd * z).clamp(0.001, 0.999);
        rows.push(UncertainTransaction::new(items, p));
    }
    UncertainDatabase::new(rows, ItemDictionary::new())
}

fn sweep_rows() -> usize {
    std::env::var("PFCIM_SWEEP_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

fn mine(db: &UncertainDatabase, cfg: MinerConfig) -> MiningOutcome {
    Miner::new(db).config(cfg).run()
}

fn assert_same_results(reference: &MiningOutcome, got: &MiningOutcome, tol: f64, leg: &str) {
    assert_eq!(
        got.itemsets(),
        reference.itemsets(),
        "{leg}: mined itemset set diverged from the strict reference"
    );
    for (r, g) in reference.results.iter().zip(&got.results) {
        assert!(
            (r.fcp - g.fcp).abs() <= tol,
            "{leg}: FCP drifted beyond {tol}: {} vs {} for {:?}",
            g.fcp,
            r.fcp,
            r.items
        );
        assert!(
            (r.frequent_probability - g.frequent_probability).abs() <= tol,
            "{leg}: Pr_F drifted beyond {tol}: {} vs {} for {:?}",
            g.frequent_probability,
            r.frequent_probability,
            r.items
        );
    }
}

#[test]
fn result_set_is_invariant_across_the_tolerance_sweep() {
    let n = sweep_rows();
    // The (0.5, 0.5) cell is the Mushroom-style regime where the
    // measured-error downdate must fire; the (0.8, 0.1) Quest-style cell
    // is kept for the invariance gate only — its children drop most of
    // their parent's rows (cost-skip) and its clamped p = 1.0 rows are
    // genuinely non-deconvolvable, so the fast path is optional there.
    for (seed, mean, sd, expect_incremental) in [(7u64, 0.5, 0.5, true), (11, 0.8, 0.1, false)] {
        let db = gaussian_utdb(seed, n, 8, mean, sd);
        // Item density 0.7 puts expected k-itemset support near
        // 0.5·0.7^k·n, so a min_sup of n/20 keeps several DFS levels
        // decisively frequent at every sweep size — shallow levels have
        // deeply underflowed heads (exact downdates) and the deepest
        // levels approach the support boundary (measured-error refusals),
        // exercising both regimes. (At n/5 the 200-row CI leg pruned
        // every child on raw count before a single removal was attempted.)
        let min_sup = (n / 20).max(2);
        let base = MinerConfig::new(min_sup, 0.4).with_fcp_method(FcpMethod::ExactOnly);

        // Strict reference: tol 0.0 accepts only bit-exact downdates, so
        // every row is numerically identical to a fresh rebuild.
        let reference = mine(&db, base.clone().with_dp_error_tol(0.0));
        assert!(
            !reference.results.is_empty(),
            "sweep dataset (seed {seed}) mined nothing — gate is vacuous"
        );

        // Default leg must also prove the downdate path fires on
        // Gaussian data — that is the whole point of the measured bound.
        let default_leg = mine(&db, base.clone());
        if expect_incremental {
            assert!(
                default_leg.kernel.dp_incremental > 0,
                "seed {seed}: no incremental downdates on Gaussian data at the \
                 default tolerance (audit: {})",
                default_leg.audit
            );
        }
        assert_same_results(&reference, &default_leg, 1e-9, "default");

        let loose = mine(&db, base.clone().with_dp_error_tol(1e-5));
        assert_same_results(&reference, &loose, 1e-5, "loose tol=1e-5");

        let strict = mine(&db, base.clone().with_dp_error_tol(1e-11));
        assert_same_results(&reference, &strict, 1e-9, "strict tol=1e-11");
    }
}
