//! Exact union probabilities via the inclusion–exclusion principle.
//!
//! `Pr(∪A_i) = Σ_∅≠S⊆[m] (−1)^{|S|+1} Pr(∩_{i∈S} A_i)` — `2^m − 1` terms,
//! usable when the event family is small. This dense loop is the
//! reference: a caller that knows which joints are zero can skip them
//! and, visiting the rest in the same ascending-bitmask order, reproduce
//! its sum bit for bit (the miner's support-lattice enumeration does).

/// Maximum family size accepted by [`exact_union_probability`]; beyond this
/// the `2^m` term count is impractical and callers should fall back to the
/// Karp–Luby estimator in [`crate::dnf`].
pub const MAX_EXACT_EVENTS: usize = 24;

/// Exact `Pr(A_1 ∪ … ∪ A_m)` given a callback returning the joint
/// probability `Pr(∩_{i∈S} A_i)` for any non-empty index subset `S`
/// (presented as a sorted slice of indices).
///
/// # Panics
///
/// Panics if `m > MAX_EXACT_EVENTS`.
///
/// # Examples
///
/// ```
/// use prob::exact_union_probability;
/// // Two independent events of probability 1/2.
/// let p = exact_union_probability(2, |s| 0.5f64.powi(s.len() as i32));
/// assert!((p - 0.75).abs() < 1e-12);
/// ```
pub fn exact_union_probability<F>(m: usize, mut joint: F) -> f64
where
    F: FnMut(&[usize]) -> f64,
{
    assert!(
        m <= MAX_EXACT_EVENTS,
        "inclusion-exclusion over {m} events exceeds the {MAX_EXACT_EVENTS}-event cap"
    );
    if m == 0 {
        return 0.0;
    }
    let mut subset = Vec::with_capacity(m);
    let mut total = 0.0f64;
    for mask in 1u32..(1u32 << m) {
        subset.clear();
        for i in 0..m {
            if mask >> i & 1 == 1 {
                subset.push(i);
            }
        }
        let term = joint(&subset);
        if subset.len() % 2 == 1 {
            total += term;
        } else {
            total -= term;
        }
    }
    crate::clamp_prob(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt as _, SeedableRng};

    #[test]
    fn empty_family_has_zero_union() {
        assert_eq!(exact_union_probability(0, |_| unreachable!()), 0.0);
    }

    #[test]
    fn single_event_is_identity() {
        let p = exact_union_probability(1, |s| {
            assert_eq!(s, &[0]);
            0.37
        });
        assert!((p - 0.37).abs() < 1e-12);
    }

    #[test]
    fn independent_events_match_complement_product() {
        // Pr(∪) = 1 - Π (1 - p_i) for independent events.
        let probs = [0.3, 0.5, 0.2, 0.7];
        let p = exact_union_probability(probs.len(), |s| s.iter().map(|&i| probs[i]).product());
        let expected = 1.0 - probs.iter().map(|p| 1.0 - p).product::<f64>();
        assert!((p - expected).abs() < 1e-12);
    }

    #[test]
    fn matches_direct_world_enumeration() {
        // Random events over a discrete world space; inclusion-exclusion
        // must agree with direct measurement of the union.
        let mut rng = SmallRng::seed_from_u64(13);
        for _ in 0..50 {
            let worlds = 20;
            let m = 5;
            let mut wp: Vec<f64> = (0..worlds).map(|_| rng.random::<f64>()).collect();
            let tot: f64 = wp.iter().sum();
            wp.iter_mut().for_each(|p| *p /= tot);
            let masks: Vec<Vec<bool>> = (0..m)
                .map(|_| (0..worlds).map(|_| rng.random::<f64>() < 0.4).collect())
                .collect();
            let by_ie = exact_union_probability(m, |s| {
                (0..worlds)
                    .filter(|&w| s.iter().all(|&i| masks[i][w]))
                    .map(|w| wp[w])
                    .sum()
            });
            let direct: f64 = (0..worlds)
                .filter(|&w| masks.iter().any(|mk| mk[w]))
                .map(|w| wp[w])
                .sum();
            assert!((by_ie - direct).abs() < 1e-9, "{by_ie} vs {direct}");
        }
    }

    #[test]
    fn result_dominates_pairwise_bounds() {
        use crate::union_bounds::PairwiseUnionBounds;
        let mut rng = SmallRng::seed_from_u64(29);
        for _ in 0..50 {
            let worlds = 16;
            let m = 4;
            let mut wp: Vec<f64> = (0..worlds).map(|_| rng.random::<f64>()).collect();
            let tot: f64 = wp.iter().sum();
            wp.iter_mut().for_each(|p| *p /= tot);
            let masks: Vec<Vec<bool>> = (0..m)
                .map(|_| (0..worlds).map(|_| rng.random::<f64>() < 0.35).collect())
                .collect();
            let joint = |s: &[usize]| -> f64 {
                (0..worlds)
                    .filter(|&w| s.iter().all(|&i| masks[i][w]))
                    .map(|w| wp[w])
                    .sum()
            };
            let exact = exact_union_probability(m, joint);
            let mut b = PairwiseUnionBounds::new((0..m).map(|i| joint(&[i])).collect::<Vec<_>>());
            for i in 0..m {
                for j in i + 1..m {
                    b.set_pair(i, j, joint(&[i, j]));
                }
            }
            assert!(b.lower() <= exact + 1e-9);
            assert!(exact <= b.upper() + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "cap")]
    fn rejects_oversized_families() {
        exact_union_probability(MAX_EXACT_EVENTS + 1, |_| 0.0);
    }
}
