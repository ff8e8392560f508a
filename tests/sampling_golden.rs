//! Golden bit-identity test for the Karp–Luby `ApproxFCP` estimators.
//!
//! Pins the exact `fcp.to_bits()` and sample count of every sampling
//! entry point (fixed-N, stopping rule, chunked at 1/2/4 threads) under
//! fixed seeds, on the paper's Table II families and on a 100-position
//! family whose worlds span two words and whose events use both the
//! rejection and the suffix-DP conditional sampler. Any change to the
//! draw kernel must consume the RNG stream exactly as before, so these
//! values never move unless the estimator itself is meant to change.

use pfcim::core::{approx_fcp, approx_fcp_adaptive, approx_fcp_chunked, NonClosureEvents};
use pfcim::utdb::{Item, UncertainDatabase};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn table2() -> UncertainDatabase {
    UncertainDatabase::parse_symbolic(&[
        ("a b c d", 0.9),
        ("a b c", 0.6),
        ("a b c", 0.7),
        ("a b c d", 0.9),
    ])
}

/// 100 rows: `a` in every row, `b`/`c`/`d` each missing from a few rows
/// on both sides of the 64-bit word boundary. For `X = {a}` every
/// event's mask has more than 64 positions.
fn wide() -> UncertainDatabase {
    let rows: Vec<(String, f64)> = (0..100usize)
        .map(|i| {
            let mut items = vec!["a"];
            if i != 3 && i != 70 {
                items.push("b");
            }
            if i != 10 && i != 64 && i != 65 {
                items.push("c");
            }
            if i >= 5 {
                items.push("d");
            }
            let p = 0.3 + 0.4 * ((i * 37) % 11) as f64 / 10.0;
            (items.join(" "), p)
        })
        .collect();
    let refs: Vec<(&str, f64)> = rows.iter().map(|(s, p)| (s.as_str(), *p)).collect();
    UncertainDatabase::parse_symbolic(&refs)
}

fn family(db: &UncertainDatabase, symbols: &str, min_sup: usize) -> (NonClosureEvents, f64) {
    let x: Vec<Item> = symbols
        .split_whitespace()
        .map(|s| db.dictionary().get(s).unwrap())
        .collect();
    let tids = db.tidset_of_itemset(&x).into_bitmap();
    let ext = (0..db.num_items() as u32)
        .map(Item)
        .filter(|i| !x.contains(i));
    let events = NonClosureEvents::build(db, &tids, ext, min_sup);
    let pr_f = pfcim::pfim::frequent_probability(db, &x, min_sup);
    (events, pr_f)
}

/// `(label, fcp bits, union-estimate bits, samples)`.
type Golden<'a> = (&'a str, u64, u64, usize);

/// Every estimator on one family. The union estimate `fnc` is pinned
/// next to `fcp` because the clamp into `[0, pr_f]` can hide a changed
/// estimate.
fn run_all(label: &str, events: &NonClosureEvents, pr_f: f64) -> Vec<(String, u64, u64, usize)> {
    let mut runs = vec![
        (
            "fixed".to_owned(),
            approx_fcp(events, pr_f, 0.1, 0.1, &mut SmallRng::seed_from_u64(7)),
        ),
        (
            "adaptive".to_owned(),
            approx_fcp_adaptive(events, pr_f, 0.1, 0.1, &mut SmallRng::seed_from_u64(11)),
        ),
    ];
    for threads in [1, 2, 4] {
        runs.push((
            format!("chunked{threads}"),
            approx_fcp_chunked(events, pr_f, 0.1, 0.1, threads, 0x5eed),
        ));
    }
    runs.into_iter()
        .map(|(kind, r)| {
            let label = format!("{label}/{kind}");
            (label, r.fcp.to_bits(), r.fnc.to_bits(), r.samples)
        })
        .collect()
}

fn check(actual: Vec<(String, u64, u64, usize)>, expected: &[Golden]) {
    let table: String = actual
        .iter()
        .map(|(l, f, u, s)| format!("(\"{l}\", 0x{f:016x}, 0x{u:016x}, {s}),\n"))
        .collect();
    assert_eq!(actual.len(), expected.len(), "actual:\n{table}");
    for ((label, fcp, fnc, samples), &(e_label, e_fcp, e_fnc, e_samples)) in
        actual.iter().zip(expected)
    {
        assert_eq!(label, e_label, "actual:\n{table}");
        assert_eq!(
            (*fcp, *fnc, *samples),
            (e_fcp, e_fnc, e_samples),
            "{label}: fcp {} vs pinned {}; actual:\n{table}",
            f64::from_bits(*fcp),
            f64::from_bits(e_fcp)
        );
    }
}

#[test]
fn table2_families_are_bit_identical() {
    let db = table2();
    let mut actual = Vec::new();
    for (x, min_sup) in [("a b c", 2), ("a", 2), ("a b", 2), ("d", 1), ("c", 3)] {
        let (events, pr_f) = family(&db, x, min_sup);
        assert!(!events.is_empty(), "{x}");
        actual.extend(run_all(&format!("{x}@{min_sup}"), &events, pr_f));
    }
    check(
        actual,
        &[
            (
                "a b c@2/fixed",
                0x3fec0346dc5d6389,
                0x3fb8e219652bd3c5,
                1199,
            ),
            (
                "a b c@2/adaptive",
                0x3fec0375790f96b3,
                0x3fb8e0a47f9a3a7a,
                948,
            ),
            (
                "a b c@2/chunked1",
                0x3fec0346dc5d6389,
                0x3fb8e219652bd3c5,
                1199,
            ),
            (
                "a b c@2/chunked2",
                0x3fec0346dc5d6389,
                0x3fb8e219652bd3c5,
                1199,
            ),
            (
                "a b c@2/chunked4",
                0x3fec0346dc5d6389,
                0x3fb8e219652bd3c5,
                1199,
            ),
            ("a@2/fixed", 0x0000000000000000, 0x3fef94198fee51a8, 3595),
            ("a@2/adaptive", 0x3fa664928d4bed30, 0x3fedb940e02e1f2f, 2084),
            ("a@2/chunked1", 0x0000000000000000, 0x3ff0000000000000, 3595),
            ("a@2/chunked2", 0x0000000000000000, 0x3feff2bfb05d7740, 3595),
            ("a@2/chunked4", 0x3f9312e8655f7ba0, 0x3fee86f2c5d7e225, 3595),
            ("a b@2/fixed", 0x0000000000000000, 0x3fef4e4a3cd10e96, 2397),
            (
                "a b@2/adaptive",
                0x0000000000000000,
                0x3fef594c767b3862,
                1035,
            ),
            (
                "a b@2/chunked1",
                0x3f7653979caaa780,
                0x3feef2e2d9c988b3,
                2397,
            ),
            (
                "a b@2/chunked2",
                0x3f87f5b5d481abc0,
                0x3feebfb331b0d753,
                2397,
            ),
            (
                "a b@2/chunked4",
                0x3f5ecec2e8bb5600,
                0x3fef1022a78e8057,
                2397,
            ),
            ("d@1/fixed", 0x0000000000000000, 0x3ff0000000000000, 3595),
            ("d@1/adaptive", 0x3f84ecb86c916880, 0x3fef5a61992f020c, 2873),
            ("d@1/chunked1", 0x3f868f306897e080, 0x3fef53d7b93ee82c, 3595),
            ("d@1/chunked2", 0x3f756e6dfcf6af00, 0x3fef83379ee75a50, 3595),
            ("d@1/chunked4", 0x3f6637afacd3a200, 0x3fef97dccb34740c, 3595),
            ("c@3/fixed", 0x3f9d6b1bed4e0f40, 0x3fe84f39c39ae2ac, 3595),
            ("c@3/adaptive", 0x0000000000000000, 0x3fe943543d0f85e4, 1893),
            ("c@3/chunked1", 0x0000000000000000, 0x3fe996324e07add6, 3595),
            ("c@3/chunked2", 0x0000000000000000, 0x3fe999ca228a47fc, 3595),
            ("c@3/chunked4", 0x3f6e8a8e561e3b00, 0x3fe91c0814af34eb, 3595),
        ],
    );
}

#[test]
fn wide_multiword_families_are_bit_identical() {
    let db = wide();
    let probs: Vec<f64> = (0..db.len()).map(|t| db.probability(t)).collect();
    // At min_sup 56 every event's floor is a rare tail even over all 100
    // positions (suffix-DP sampler); at min_sup 45 it is likely even over
    // `d`'s 95 positions (rejection sampler, at or above its 0.2 threshold).
    let tail = pfcim::prob::poisson_binomial::tail_at_least;
    assert!(tail(&probs, 56) < 0.2);
    assert!(tail(&probs[5..], 45) >= 0.2);
    let mut actual = Vec::new();
    for min_sup in [56, 45] {
        let (events, pr_f) = family(&db, "a", min_sup);
        assert_eq!(events.num_positions(), 100);
        assert_eq!(events.len(), 3, "b, c and d can each tie a");
        actual.extend(run_all(&format!("a@{min_sup}"), &events, pr_f));
    }
    check(
        actual,
        &[
            ("a@56/fixed", 0x3fb59ac39095b360, 0x3fa1c272b6180a08, 3595),
            (
                "a@56/adaptive",
                0x3fb5b8369b025b6c,
                0x3fa1878ca13eb9f1,
                1021,
            ),
            (
                "a@56/chunked1",
                0x3fb5ad96fceed7fd,
                0x3fa19ccbdd65c0ce,
                3595,
            ),
            (
                "a@56/chunked2",
                0x3fb5aae67fbd899e,
                0x3fa1a22cd7c85d8d,
                3595,
            ),
            (
                "a@56/chunked4",
                0x3fb5a631a4a74076,
                0x3fa1ab968df4efdc,
                3595,
            ),
            ("a@45/fixed", 0x3fe0915155237994, 0x3fd622f5e3fb29e4, 3595),
            (
                "a@45/adaptive",
                0x3fe07a8ed584e5f6,
                0x3fd6507ae3385120,
                1053,
            ),
            (
                "a@45/chunked1",
                0x3fe0a134d54c9cde,
                0x3fd6032ee3a8e351,
                3595,
            ),
            (
                "a@45/chunked2",
                0x3fe0a59eb1c9d156,
                0x3fd5fa5b2aae7a60,
                3595,
            ),
            (
                "a@45/chunked4",
                0x3fe0aa088e4705ce,
                0x3fd5f18771b41170,
                3595,
            ),
        ],
    );
}
