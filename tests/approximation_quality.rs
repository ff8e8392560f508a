//! Quality of the `ApproxFCP` estimator against exact values (the test
//! counterpart of the paper's Fig. 11), on databases small enough for
//! exact ground truth but rich enough to exercise real event families.

use pfcim::core::{approx_fcp, exact_fcp_by_worlds, NonClosureEvents};
use pfcim::utdb::{Item, ItemDictionary, UncertainDatabase, UncertainTransaction};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

fn random_utdb(seed: u64, n: usize, num_items: u32) -> UncertainDatabase {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    while rows.len() < n {
        let items: Vec<Item> = (0..num_items)
            .filter(|_| rng.random::<f64>() < 0.6)
            .map(Item)
            .collect();
        if items.is_empty() {
            continue;
        }
        rows.push(UncertainTransaction::new(
            items,
            0.2 + 0.75 * rng.random::<f64>(),
        ));
    }
    UncertainDatabase::new(rows, ItemDictionary::new())
}

fn family(db: &UncertainDatabase, x: &[Item], min_sup: usize) -> NonClosureEvents {
    let ext = (0..db.num_items() as u32)
        .map(Item)
        .filter(|i| x.binary_search(i).is_err());
    NonClosureEvents::build(db, &db.tidset_of_itemset(x).into_bitmap(), ext, min_sup)
}

#[test]
fn approx_fcp_tracks_exact_values_across_itemsets() {
    let mut worst: f64 = 0.0;
    let mut measured = 0usize;
    for seed in 0..12 {
        let db = random_utdb(seed, 9, 5);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xabc);
        let m = db.num_items() as u32;
        for mask in 1u32..(1 << m) {
            let x: Vec<Item> = (0..m).filter(|i| mask >> i & 1 == 1).map(Item).collect();
            let min_sup = 2;
            let pr_f = pfcim::pfim::frequent_probability(&db, &x, min_sup);
            if pr_f < 0.05 {
                continue;
            }
            let exact = exact_fcp_by_worlds(&db, &x, min_sup);
            let events = family(&db, &x, min_sup);
            let r = approx_fcp(&events, pr_f, 0.05, 0.05, &mut rng);
            worst = worst.max((r.fcp - exact).abs());
            measured += 1;
        }
    }
    assert!(measured > 100, "need a meaningful sample: {measured}");
    // The FPRAS bounds the union term to a (1±ε) factor w.h.p.; across
    // hundreds of itemsets the worst absolute FCP error stays small.
    assert!(worst < 0.05, "worst absolute error {worst}");
}

#[test]
fn error_shrinks_with_epsilon() {
    let db = random_utdb(77, 10, 5);
    let m = db.num_items() as u32;
    let min_sup = 2;
    let mut err_loose = 0.0f64;
    let mut err_tight = 0.0f64;
    // Average over itemsets and repeated runs so the comparison is
    // statistically stable under fixed seeds.
    for round in 0..10u64 {
        for mask in 1u32..(1 << m) {
            let x: Vec<Item> = (0..m).filter(|i| mask >> i & 1 == 1).map(Item).collect();
            let pr_f = pfcim::pfim::frequent_probability(&db, &x, min_sup);
            if pr_f < 0.2 {
                continue;
            }
            let exact = exact_fcp_by_worlds(&db, &x, min_sup);
            let events = family(&db, &x, min_sup);
            if events.is_empty() {
                continue;
            }
            let mut rng1 = SmallRng::seed_from_u64(round * 31 + 1);
            let mut rng2 = SmallRng::seed_from_u64(round * 31 + 2);
            let loose = approx_fcp(&events, pr_f, 0.5, 0.2, &mut rng1);
            let tight = approx_fcp(&events, pr_f, 0.05, 0.2, &mut rng2);
            err_loose += (loose.fcp - exact).abs();
            err_tight += (tight.fcp - exact).abs();
        }
    }
    assert!(
        err_tight < err_loose,
        "tight ε should track truth better: {err_tight} vs {err_loose}"
    );
}

#[test]
fn estimator_is_deterministic_under_seed() {
    let db = random_utdb(5, 8, 5);
    let x: Vec<Item> = vec![Item(0)];
    let events = family(&db, &x, 2);
    let pr_f = pfcim::pfim::frequent_probability(&db, &x, 2);
    let a = approx_fcp(&events, pr_f, 0.1, 0.1, &mut SmallRng::seed_from_u64(9));
    let b = approx_fcp(&events, pr_f, 0.1, 0.1, &mut SmallRng::seed_from_u64(9));
    assert_eq!(a.fcp, b.fcp);
    assert_eq!(a.samples, b.samples);
}

#[test]
fn empty_families_short_circuit() {
    // An itemset containing every item has no extensions.
    let db = UncertainDatabase::parse_symbolic(&[("a b", 0.5), ("a b", 0.5)]);
    let x: Vec<Item> = vec![Item(0), Item(1)];
    let events = family(&db, &x, 1);
    assert!(events.is_empty());
    let r = approx_fcp(&events, 0.75, 0.1, 0.1, &mut SmallRng::seed_from_u64(1));
    assert_eq!(r.fcp, 0.75);
    assert_eq!(r.samples, 0);
}

/// The `(ε, δ)` contract of sampled mode (the paper's FPRAS guarantee):
/// at `N = ⌈4k·ln(2/δ)/ε²⌉` draws, each estimator misses the exact union
/// by more than `ε` relative at most a `δ` share of the time. Checked over
/// many seeds on small families, with the lattice union as ground truth,
/// against `δ` plus a three-sigma binomial margin.
#[test]
fn sampled_estimators_keep_the_epsilon_delta_contract() {
    use pfcim::core::events::MAX_EXACT_TERMS;
    use pfcim::core::{approx_fcp_adaptive, approx_fcp_chunked};
    use pfcim::prob::karp_luby_union_with_samples;
    const EPSILON: f64 = 0.2;
    const DELTA: f64 = 0.2;
    const SEEDS: u64 = 100;
    let min_sup = 2;
    // Small families with overlapping events and a union worth
    // estimating, each checked against the possible-world oracle.
    let mut families = Vec::new();
    for db_seed in 0..40 {
        let db = random_utdb(db_seed, 10, 5);
        for x in [vec![Item(0)], vec![Item(1)], vec![Item(0), Item(2)]] {
            let events = family(&db, &x, min_sup);
            let union = events
                .lattice_union(MAX_EXACT_TERMS, u64::MAX)
                .expect("small family");
            if events.len() < 2 || union < 0.05 {
                continue;
            }
            let pr_f = pfcim::pfim::frequent_probability(&db, &x, min_sup);
            let by_worlds = exact_fcp_by_worlds(&db, &x, min_sup);
            assert!(((pr_f - union).max(0.0) - by_worlds).abs() < 1e-9);
            families.push((events, pr_f, union));
        }
        if families.len() >= 6 {
            break;
        }
    }
    assert!(families.len() >= 6, "not enough overlapping families");
    let trials = families.len() as f64 * SEEDS as f64;
    let allowed = DELTA * trials + 3.0 * (trials * DELTA * (1.0 - DELTA)).sqrt();
    let misses = |estimate: &dyn Fn(&NonClosureEvents, f64, u64) -> f64| {
        let mut misses = 0usize;
        for (events, pr_f, union) in &families {
            for seed in 0..SEEDS {
                let fnc = estimate(events, *pr_f, seed);
                misses += ((fnc - union).abs() > EPSILON * union) as usize;
            }
        }
        misses as f64
    };
    let fixed = misses(&|events, pr_f, seed| {
        approx_fcp(
            events,
            pr_f,
            EPSILON,
            DELTA,
            &mut SmallRng::seed_from_u64(seed),
        )
        .fnc
    });
    let chunked =
        misses(&|events, pr_f, seed| approx_fcp_chunked(events, pr_f, EPSILON, DELTA, 3, seed).fnc);
    let adaptive = misses(&|events, pr_f, seed| {
        approx_fcp_adaptive(
            events,
            pr_f,
            EPSILON,
            DELTA,
            &mut SmallRng::seed_from_u64(seed),
        )
        .fnc
    });
    for (name, m) in [
        ("fixed", fixed),
        ("chunked", chunked),
        ("adaptive", adaptive),
    ] {
        assert!(
            m <= allowed,
            "{name}: {m} misses in {trials} trials, allowed {allowed:.1}"
        );
    }
    // The check has power: eight draws per estimate miss far more often.
    let starved = misses(&|events, _, seed| {
        karp_luby_union_with_samples(events, 8, &mut SmallRng::seed_from_u64(seed)).estimate
    });
    assert!(
        starved > allowed,
        "8 draws: {starved} misses, allowed {allowed:.1}"
    );
}
