//! Probability toolkit underpinning probabilistic frequent (closed) itemset
//! mining.
//!
//! This crate is a self-contained substrate with no knowledge of itemsets or
//! transactions. It provides:
//!
//! * [`poisson_binomial`] — the distribution of a sum of independent,
//!   non-identical Bernoulli variables (the distribution of an itemset's
//!   support under tuple-uncertainty), with an `O(n·k)` tail DP.
//! * [`cond_sample`] — sampling Bernoulli vectors *conditioned* on at least
//!   `k` successes, needed by the Karp–Luby sampler.
//! * [`hoeffding`] — Chernoff–Hoeffding tail bounds (Lemma 4.1 of the paper).
//! * [`union_bounds`] — de Caen / Kwerel–Hunter style bounds on the
//!   probability of a union from singleton and pairwise probabilities
//!   (Lemma 4.4 of the paper).
//! * [`inclusion_exclusion`] — exact union probability by
//!   inclusion–exclusion over subset joints.
//! * [`dnf`] — the Karp–Luby–Madras coverage FPRAS for union probabilities
//!   (the engine behind `ApproxFCP`, Fig. 2 of the paper).
//! * [`gauss`] — Box–Muller standard-normal sampling (used to assign
//!   Gaussian existential probabilities to datasets).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cond_sample;
pub mod dnf;
pub mod gauss;
pub mod hoeffding;
pub mod inclusion_exclusion;
pub mod poisson_binomial;
pub mod union_bounds;

pub use cond_sample::ConditionalBernoulliSampler;
pub use dnf::{
    karp_luby_union, karp_luby_union_adaptive, karp_luby_union_with_samples, AdaptiveEstimate,
    KarpLubyEstimate, UnionEventSystem,
};
pub use gauss::{clamped_gaussian, standard_normal};
pub use hoeffding::{hoeffding_infrequent, hoeffding_tail_upper};
pub use inclusion_exclusion::exact_union_probability;
pub use poisson_binomial::{RemovalRefusal, SupportDistribution, TailDp};
pub use union_bounds::PairwiseUnionBounds;

/// Numerical tolerance used across the crate when comparing probabilities.
///
/// Dynamic programs over thousands of `f64` multiplications accumulate
/// rounding on the order of `n · ulp`; comparisons against thresholds use
/// this slack so that prunings never become unsound due to rounding.
pub const PROB_EPS: f64 = 1e-9;

/// Clamp a floating-point value into the closed interval `[0, 1]`.
///
/// Dynamic programs can produce values like `1.0 + 1e-16`; clamping keeps
/// every quantity a valid probability.
#[inline]
pub fn clamp_prob(p: f64) -> f64 {
    p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_prob_clamps_both_ends() {
        assert_eq!(clamp_prob(-0.25), 0.0);
        assert_eq!(clamp_prob(1.25), 1.0);
        assert_eq!(clamp_prob(0.5), 0.5);
    }

    #[test]
    fn clamp_prob_is_identity_on_unit_interval() {
        for i in 0..=100 {
            let p = i as f64 / 100.0;
            assert_eq!(clamp_prob(p), p);
        }
    }
}
