//! The Karp–Luby–Madras coverage estimator for union (DNF) probabilities.
//!
//! Computing `Pr(A_1 ∪ … ∪ A_m)` exactly is #P-hard in general (it
//! subsumes DNF counting), but the coverage algorithm of Karp, Luby &
//! Madras is a *fully polynomial randomized approximation scheme* (FPRAS):
//! with `N = ⌈4m · ln(2/δ) / ε²⌉` samples it returns an estimate within a
//! `(1 ± ε)` factor of the truth with probability at least `1 − δ`.
//!
//! The paper's `ApproxFCP` procedure (Fig. 2) is this estimator applied to
//! the family of frequent-non-closure events `C_i`; the abstraction here is
//! the generic [`UnionEventSystem`] so the algorithm can be tested against
//! synthetic event families independently of the miner.

use rand::{Rng, RngExt};

/// A family of probability events supporting the three oracles the
/// coverage algorithm needs: exact singleton probabilities, sampling a
/// world *conditioned* on one event, and membership checks of a world in
/// any event.
pub trait UnionEventSystem {
    /// Opaque representation of a sampled world.
    type World;

    /// Number of events in the family.
    fn num_events(&self) -> usize;

    /// Exact `Pr(A_i)`.
    fn event_prob(&self, i: usize) -> f64;

    /// A world buffer for [`UnionEventSystem::sample_world_given`] to
    /// fill. The estimators allocate one per call and reuse it for every
    /// draw.
    fn new_world(&self) -> Self::World;

    /// Overwrite `world` with a sample of law `Pr(· | A_i)`.
    fn sample_world_given<R: Rng + ?Sized>(&self, i: usize, rng: &mut R, world: &mut Self::World);

    /// Does `world`, as filled by
    /// [`UnionEventSystem::sample_world_given`], satisfy event `j`?
    fn world_satisfies(&self, world: &Self::World, j: usize) -> bool;
}

/// Outcome of a coverage-estimator run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KarpLubyEstimate {
    /// Estimated `Pr(∪ A_i)`.
    pub estimate: f64,
    /// Number of samples drawn.
    pub samples: usize,
    /// Total singleton mass `Z = Σ Pr(A_i)` (the normalizing constant).
    pub total_mass: f64,
}

/// Number of coverage samples required for an `(ε, δ)` relative-error
/// guarantee over `m` events: `⌈4m · ln(2/δ) / ε²⌉`.
///
/// # Panics
///
/// Panics unless `0 < ε` and `0 < δ < 1`.
pub fn required_samples(m: usize, epsilon: f64, delta: f64) -> usize {
    assert!(epsilon > 0.0, "epsilon must be positive");
    assert!((0.0..1.0).contains(&delta) && delta > 0.0, "delta in (0,1)");
    let n = 4.0 * m as f64 * (2.0 / delta).ln() / (epsilon * epsilon);
    n.ceil() as usize
}

/// Estimate `Pr(A_1 ∪ … ∪ A_m)` with the coverage algorithm at the
/// `(ε, δ)` sample size.
pub fn karp_luby_union<S, R>(system: &S, epsilon: f64, delta: f64, rng: &mut R) -> KarpLubyEstimate
where
    S: UnionEventSystem,
    R: Rng,
{
    let n = required_samples(system.num_events(), epsilon, delta);
    karp_luby_union_with_samples(system, n, rng)
}

/// Coverage algorithm with an explicit sample budget.
///
/// Each sample draws an event index `i` with probability `Pr(A_i)/Z`, then
/// a world `ω ~ Pr(· | A_i)`, and scores 1 iff `i` is the *first* event
/// containing `ω`. The expectation of the score is `Pr(∪A)/Z`, because the
/// pairs `(i, ω)` with `ω ∈ A_i` and `i = min{j : ω ∈ A_j}` partition the
/// union.
pub fn karp_luby_union_with_samples<S, R>(
    system: &S,
    samples: usize,
    rng: &mut R,
) -> KarpLubyEstimate
where
    S: UnionEventSystem,
    R: Rng,
{
    let (cumulative, z) = cumulative_mass(system);
    if z <= 0.0 {
        return KarpLubyEstimate {
            estimate: 0.0,
            samples: 0,
            total_mass: 0.0,
        };
    }
    let mut world = system.new_world();
    let mut hits = 0usize;
    for _ in 0..samples {
        hits += coverage_draw(system, &cumulative, z, &mut world, rng) as usize;
    }
    let estimate = crate::clamp_prob(z * hits as f64 / samples.max(1) as f64).min(z);
    KarpLubyEstimate {
        estimate,
        samples,
        total_mass: z,
    }
}

/// Running singleton masses `Pr(A_0) + … + Pr(A_i)` for the event pick,
/// and their total `Z` (zero for an empty family).
fn cumulative_mass<S: UnionEventSystem>(system: &S) -> (Vec<f64>, f64) {
    let mut z = 0.0f64;
    let cumulative = (0..system.num_events())
        .map(|i| {
            let p = system.event_prob(i);
            debug_assert!((0.0..=1.0 + crate::PROB_EPS).contains(&p));
            z += p;
            z
        })
        .collect();
    (cumulative, z)
}

/// One coverage draw, shared by the fixed-budget and stopping-rule loops:
/// pick event `i` with probability `Pr(A_i)/Z`, fill `world` with
/// `ω ~ Pr(· | A_i)`, and score `true` iff `i` is the *first* event
/// containing `ω`. A pick that lands on a zero-probability event (the
/// search can, on ties of the cumulative mass) scores `false` without
/// drawing a world.
fn coverage_draw<S, R>(
    system: &S,
    cumulative: &[f64],
    z: f64,
    world: &mut S::World,
    rng: &mut R,
) -> bool
where
    S: UnionEventSystem,
    R: Rng + ?Sized,
{
    let u = rng.random::<f64>() * z;
    let i = match cumulative.binary_search_by(|c| c.total_cmp(&u)) {
        Ok(idx) => idx + 1,
        Err(idx) => idx,
    }
    .min(cumulative.len() - 1);
    if system.event_prob(i) == 0.0 {
        return false;
    }
    system.sample_world_given(i, rng, world);
    debug_assert!(
        system.world_satisfies(world, i),
        "conditional sample must satisfy its own event"
    );
    (0..i).all(|j| !system.world_satisfies(world, j))
}

/// Outcome of the adaptive (stopping-rule) estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveEstimate {
    /// Estimated `Pr(∪ A_i)`.
    pub estimate: f64,
    /// Samples actually drawn.
    pub samples: usize,
    /// Total singleton mass `Z`.
    pub total_mass: f64,
    /// False when the sample cap was hit before the stopping rule fired
    /// (the estimate is then the plain mean over the drawn samples and
    /// the `(ε, δ)` guarantee does not apply).
    pub converged: bool,
}

/// Adaptive coverage estimation via the **stopping-rule algorithm** of
/// Dagum, Karp, Luby & Ross ("An optimal algorithm for Monte Carlo
/// estimation"): draw coverage samples until the number of successes
/// reaches `Υ = 1 + 4(e−2)(1+ε)·ln(2/δ)/ε²`, then estimate
/// `Z · Υ / N`. The expected sample count is `O(Υ · Z / Pr(∪A))` — it
/// *adapts* to the unknown value instead of paying the fixed
/// `4m·ln(2/δ)/ε²` worst case of [`karp_luby_union_with_samples`], which
/// is a large saving exactly when the union is not small relative to `Z`
/// (the common case for the miner's non-closure families).
///
/// `max_samples` caps the loop for unions that are tiny relative to `Z`;
/// when hit, the plain sample mean is returned with `converged = false`.
pub fn karp_luby_union_adaptive<S, R>(
    system: &S,
    epsilon: f64,
    delta: f64,
    max_samples: usize,
    rng: &mut R,
) -> AdaptiveEstimate
where
    S: UnionEventSystem,
    R: Rng,
{
    assert!(epsilon > 0.0, "epsilon must be positive");
    assert!((0.0..1.0).contains(&delta) && delta > 0.0, "delta in (0,1)");
    let (cumulative, z) = cumulative_mass(system);
    if z <= 0.0 {
        return AdaptiveEstimate {
            estimate: 0.0,
            samples: 0,
            total_mass: 0.0,
            converged: true,
        };
    }
    let upsilon = 1.0
        + 4.0 * (std::f64::consts::E - 2.0) * (1.0 + epsilon) * (2.0 / delta).ln()
            / (epsilon * epsilon);
    let mut world = system.new_world();
    let mut hits = 0usize;
    let mut drawn = 0usize;
    while (hits as f64) < upsilon && drawn < max_samples {
        drawn += 1;
        hits += coverage_draw(system, &cumulative, z, &mut world, rng) as usize;
    }
    let converged = (hits as f64) >= upsilon;
    let ratio = if converged {
        upsilon / drawn as f64
    } else {
        hits as f64 / drawn.max(1) as f64
    };
    AdaptiveEstimate {
        estimate: crate::clamp_prob(z * ratio).min(z),
        samples: drawn,
        total_mass: z,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Test system: worlds are bit-vectors of independent Bernoulli
    /// variables; event i = "bit i is set".
    struct IndependentBits {
        probs: Vec<f64>,
    }

    impl UnionEventSystem for IndependentBits {
        type World = Vec<bool>;

        fn num_events(&self) -> usize {
            self.probs.len()
        }

        fn event_prob(&self, i: usize) -> f64 {
            self.probs[i]
        }

        fn new_world(&self) -> Vec<bool> {
            vec![false; self.probs.len()]
        }

        fn sample_world_given<R: Rng + ?Sized>(
            &self,
            i: usize,
            rng: &mut R,
            world: &mut Vec<bool>,
        ) {
            for (j, (w, &p)) in world.iter_mut().zip(&self.probs).enumerate() {
                *w = j == i || rng.random::<f64>() < p;
            }
        }

        fn world_satisfies(&self, world: &Vec<bool>, j: usize) -> bool {
            world[j]
        }
    }

    /// Test system with perfectly correlated events: one latent Bernoulli
    /// bit, every event is that same bit. Union = p regardless of m.
    struct FullyCorrelated {
        p: f64,
        m: usize,
    }

    impl UnionEventSystem for FullyCorrelated {
        type World = bool;

        fn num_events(&self) -> usize {
            self.m
        }

        fn event_prob(&self, _i: usize) -> f64 {
            self.p
        }

        fn new_world(&self) -> bool {
            false
        }

        fn sample_world_given<R: Rng + ?Sized>(&self, _i: usize, _rng: &mut R, world: &mut bool) {
            *world = true;
        }

        fn world_satisfies(&self, world: &bool, _j: usize) -> bool {
            *world
        }
    }

    #[test]
    fn independent_events_estimate_matches_closed_form() {
        let sys = IndependentBits {
            probs: vec![0.3, 0.4, 0.2, 0.1],
        };
        let exact = 1.0 - 0.7 * 0.6 * 0.8 * 0.9;
        let mut rng = SmallRng::seed_from_u64(101);
        let est = karp_luby_union(&sys, 0.05, 0.05, &mut rng);
        assert!(
            (est.estimate - exact).abs() <= 0.05 * exact + 0.01,
            "estimate {} vs exact {exact}",
            est.estimate
        );
    }

    #[test]
    fn correlated_events_do_not_overcount() {
        // The naive union bound would give m*p; the coverage estimator must
        // return ~p.
        let sys = FullyCorrelated { p: 0.4, m: 10 };
        let mut rng = SmallRng::seed_from_u64(7);
        let est = karp_luby_union(&sys, 0.05, 0.05, &mut rng);
        assert!((est.estimate - 0.4).abs() < 0.03, "{}", est.estimate);
        assert!((est.total_mass - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_family_yields_zero() {
        let sys = IndependentBits { probs: vec![] };
        let mut rng = SmallRng::seed_from_u64(1);
        let est = karp_luby_union(&sys, 0.1, 0.1, &mut rng);
        assert_eq!(est.estimate, 0.0);
        assert_eq!(est.total_mass, 0.0);
    }

    #[test]
    fn zero_probability_events_are_harmless() {
        let sys = IndependentBits {
            probs: vec![0.0, 0.5, 0.0],
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let est = karp_luby_union(&sys, 0.05, 0.05, &mut rng);
        assert!((est.estimate - 0.5).abs() < 0.03, "{}", est.estimate);
    }

    #[test]
    fn certain_event_dominates() {
        let sys = IndependentBits {
            probs: vec![1.0, 0.2, 0.3],
        };
        let mut rng = SmallRng::seed_from_u64(4);
        let est = karp_luby_union(&sys, 0.05, 0.05, &mut rng);
        assert!((est.estimate - 1.0).abs() < 0.02, "{}", est.estimate);
    }

    #[test]
    fn adaptive_matches_closed_form_and_converges() {
        let sys = IndependentBits {
            probs: vec![0.3, 0.4, 0.2, 0.1],
        };
        let exact = 1.0 - 0.7 * 0.6 * 0.8 * 0.9;
        let mut rng = SmallRng::seed_from_u64(55);
        let est = karp_luby_union_adaptive(&sys, 0.05, 0.05, usize::MAX, &mut rng);
        assert!(est.converged);
        assert!(
            (est.estimate - exact).abs() <= 0.05 * exact + 0.01,
            "{} vs {exact}",
            est.estimate
        );
    }

    #[test]
    fn adaptive_needs_fewer_samples_when_union_is_large() {
        // One dominant event plus many negligible ones: Z ≈ Pr(∪), so
        // the stopping rule fires after ~Υ samples regardless of m — far
        // below the fixed-N worst case of 4m·ln(2/δ)/ε².
        let mut probs = vec![0.9];
        probs.extend(std::iter::repeat_n(1e-3, 11));
        let sys = IndependentBits { probs };
        let mut rng = SmallRng::seed_from_u64(66);
        let adaptive = karp_luby_union_adaptive(&sys, 0.1, 0.1, usize::MAX, &mut rng);
        let fixed_n = required_samples(12, 0.1, 0.1);
        assert!(adaptive.converged);
        assert!(
            adaptive.samples * 2 < fixed_n,
            "adaptive {} vs fixed {fixed_n}",
            adaptive.samples
        );
    }

    #[test]
    fn adaptive_cap_is_respected() {
        // A tiny union forces the cap; the fallback estimate is the plain
        // mean and converged is false.
        let sys = IndependentBits {
            probs: vec![1e-9, 1e-9],
        };
        let mut rng = SmallRng::seed_from_u64(77);
        let est = karp_luby_union_adaptive(&sys, 0.1, 0.1, 500, &mut rng);
        assert!(!est.converged || est.samples <= 500);
        assert!(est.samples <= 500);
        assert!(est.estimate <= est.total_mass);
    }

    #[test]
    fn adaptive_empty_family() {
        let sys = IndependentBits { probs: vec![] };
        let mut rng = SmallRng::seed_from_u64(1);
        let est = karp_luby_union_adaptive(&sys, 0.1, 0.1, 100, &mut rng);
        assert_eq!(est.estimate, 0.0);
        assert!(est.converged);
    }

    #[test]
    fn sample_size_formula() {
        // 4 * 10 * ln(20) / 0.01 = 11982.9...
        assert_eq!(required_samples(10, 0.1, 0.1), 11983);
        assert_eq!(required_samples(0, 0.1, 0.1), 0);
        // Tighter epsilon quadratically increases samples.
        assert!(required_samples(10, 0.05, 0.1) > 4 * required_samples(10, 0.1, 0.1) - 4);
    }

    #[test]
    fn estimate_never_exceeds_total_mass_or_one() {
        let sys = IndependentBits {
            probs: vec![0.9, 0.9, 0.9],
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let est = karp_luby_union_with_samples(&sys, 2_000, &mut rng);
        assert!(est.estimate <= 1.0);
        assert!(est.estimate <= est.total_mass);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_nonpositive_epsilon() {
        required_samples(3, 0.0, 0.1);
    }
}
