//! `ApproxFCP` (Fig. 2 of the paper): the Monte-Carlo FPRAS for the
//! frequent closed probability.
//!
//! The frequent non-closed probability is the probability of a union of
//! non-closure events — a DNF probability — estimated by the Karp–Luby
//! coverage algorithm with `N = ⌈4m · ln(2/δ) / ε²⌉` samples; subtracting
//! it from the exact frequent probability gives the FCP estimate
//! `P̂r_FC(X)` with `Pr(|P̂r_FC − Pr_FC| ≤ ε·err) ≥ 1 − δ` in the sense of
//! the underlying FPRAS guarantee on the union term.

use prob::dnf::{
    karp_luby_union_adaptive, karp_luby_union_with_samples, required_samples, KarpLubyEstimate,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::events::NonClosureEvents;
use crate::par;
use crate::stats::PhaseTimers;
use crate::trace::{timed, FcpEvalKind, MinerSink, Phase};

/// Result of one `ApproxFCP` run.
#[derive(Debug, Clone, Copy)]
pub struct ApproxFcpResult {
    /// Estimated frequent closed probability.
    pub fcp: f64,
    /// Estimated frequent non-closed probability (the union term).
    pub fnc: f64,
    /// Monte-Carlo samples drawn.
    pub samples: usize,
}

/// Estimate `Pr_FC(X)` given the itemset's exact frequent probability and
/// its non-closure event family.
///
/// `epsilon`/`delta` follow the paper's parameterization (defaults 0.1);
/// the estimate is clamped into `[0, pr_f]` — the FCP can never exceed the
/// frequent probability.
pub fn approx_fcp<R: Rng>(
    events: &NonClosureEvents,
    pr_f: f64,
    epsilon: f64,
    delta: f64,
    rng: &mut R,
) -> ApproxFcpResult {
    if events.is_empty() {
        // No superset can ever tie the support: frequent ⇒ closed.
        return ApproxFcpResult {
            fcp: pr_f,
            fnc: 0.0,
            samples: 0,
        };
    }
    // The paper sizes the sample budget by k = m − |X|, the number of
    // extension items — not by the (often far smaller) number of events
    // that survive the exact-zero filter.
    let n = required_samples(events.considered_items(), epsilon, delta);
    let KarpLubyEstimate {
        estimate, samples, ..
    } = karp_luby_union_with_samples(events, n, rng);
    ApproxFcpResult {
        fcp: (pr_f - estimate).clamp(0.0, pr_f),
        fnc: estimate,
        samples,
    }
}

/// `ApproxFCP` with the adaptive stopping rule (see
/// [`crate::config::FcpMethod::ApproxAdaptive`]): identical estimand and
/// guarantee, but the sample count adapts to the union probability. The
/// fixed-`N` budget of [`approx_fcp`] doubles as the cap.
pub fn approx_fcp_adaptive<R: Rng>(
    events: &NonClosureEvents,
    pr_f: f64,
    epsilon: f64,
    delta: f64,
    rng: &mut R,
) -> ApproxFcpResult {
    if events.is_empty() {
        return ApproxFcpResult {
            fcp: pr_f,
            fnc: 0.0,
            samples: 0,
        };
    }
    let cap = required_samples(events.considered_items(), epsilon, delta);
    let est = karp_luby_union_adaptive(events, epsilon, delta, cap, rng);
    ApproxFcpResult {
        fcp: (pr_f - est.estimate).clamp(0.0, pr_f),
        fnc: est.estimate,
        samples: est.samples,
    }
}

/// [`approx_fcp`] with its `N` samples split across up to `threads`
/// workers (chunked Karp–Luby).
///
/// Each chunk gets its own `SmallRng` whose seed is drawn sequentially
/// from a stream seeded with `call_seed`, so the estimate depends only on
/// `(call_seed, threads)` — never on scheduling — and is reproducible.
/// Every chunk shares the total event mass `Z`, so the chunk estimates
/// `Z·hits_i/n_i` combine exactly via their sample-weighted mean: the
/// FPRAS guarantee of the single-pass estimator carries over unchanged.
/// With `threads ≤ 1` this is the same estimator as [`approx_fcp`]
/// modulo the RNG stream (the sequential miner keeps its legacy shared
/// RNG and never calls this).
pub fn approx_fcp_chunked(
    events: &NonClosureEvents,
    pr_f: f64,
    epsilon: f64,
    delta: f64,
    threads: usize,
    call_seed: u64,
) -> ApproxFcpResult {
    if events.is_empty() {
        return ApproxFcpResult {
            fcp: pr_f,
            fnc: 0.0,
            samples: 0,
        };
    }
    let n = required_samples(events.considered_items(), epsilon, delta);
    let chunks = par::chunk_sizes(n, threads.max(1));
    let mut seed_rng = SmallRng::seed_from_u64(call_seed);
    let tasks: Vec<(usize, u64)> = chunks
        .into_iter()
        .map(|c| (c, seed_rng.next_u64()))
        .collect();
    let estimates = par::scatter(threads, tasks, |_, (chunk, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        karp_luby_union_with_samples(events, chunk, &mut rng)
    });
    let total: usize = estimates.iter().map(|e| e.samples).sum();
    let weighted: f64 = estimates
        .iter()
        .map(|e| e.estimate * e.samples as f64)
        .sum();
    let estimate = if total > 0 {
        weighted / total as f64
    } else {
        0.0
    };
    ApproxFcpResult {
        fcp: (pr_f - estimate).clamp(0.0, pr_f),
        fnc: estimate,
        samples: total,
    }
}

/// [`approx_fcp_chunked`] as an instrumented phase; see
/// [`approx_fcp_traced`].
#[allow(clippy::too_many_arguments)] // mirrors approx_fcp_traced + (threads, call_seed)
pub fn approx_fcp_chunked_traced<S: MinerSink + ?Sized>(
    events: &NonClosureEvents,
    pr_f: f64,
    epsilon: f64,
    delta: f64,
    threads: usize,
    call_seed: u64,
    timers: &mut PhaseTimers,
    sink: &mut S,
) -> ApproxFcpResult {
    let r = timed(Phase::FcpSample, timers, &mut *sink, || {
        approx_fcp_chunked(events, pr_f, epsilon, delta, threads, call_seed)
    });
    sink.fcp_evaluated(FcpEvalKind::Sampled, r.samples as u64);
    r
}

/// [`approx_fcp`] as an instrumented phase: the sampling pass is timed
/// into `timers` under [`Phase::FcpSample`] and the sink receives the
/// phase bracket plus one [`FcpEvalKind::Sampled`] event carrying the
/// samples drawn.
pub fn approx_fcp_traced<R: Rng, S: MinerSink + ?Sized>(
    events: &NonClosureEvents,
    pr_f: f64,
    epsilon: f64,
    delta: f64,
    rng: &mut R,
    timers: &mut PhaseTimers,
    sink: &mut S,
) -> ApproxFcpResult {
    let r = timed(Phase::FcpSample, timers, &mut *sink, || {
        approx_fcp(events, pr_f, epsilon, delta, rng)
    });
    sink.fcp_evaluated(FcpEvalKind::Sampled, r.samples as u64);
    r
}

/// [`approx_fcp_adaptive`] as an instrumented phase; see
/// [`approx_fcp_traced`].
pub fn approx_fcp_adaptive_traced<R: Rng, S: MinerSink + ?Sized>(
    events: &NonClosureEvents,
    pr_f: f64,
    epsilon: f64,
    delta: f64,
    rng: &mut R,
    timers: &mut PhaseTimers,
    sink: &mut S,
) -> ApproxFcpResult {
    let r = timed(Phase::FcpSample, timers, &mut *sink, || {
        approx_fcp_adaptive(events, pr_f, epsilon, delta, rng)
    });
    sink.fcp_evaluated(FcpEvalKind::Sampled, r.samples as u64);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use utdb::{Item, UncertainDatabase};

    fn table2() -> UncertainDatabase {
        UncertainDatabase::parse_symbolic(&[
            ("a b c d", 0.9),
            ("a b c", 0.6),
            ("a b c", 0.7),
            ("a b c d", 0.9),
        ])
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
        let pr_f = pfim::frequent_probability(db, &x, min_sup);
        (events, pr_f)
    }

    #[test]
    fn paper_value_for_abc() {
        // Pr_FC({a,b,c}) = 0.8754 at min_sup 2 (Example 1.2 / 4.3).
        let db = table2();
        let (events, pr_f) = family(&db, "a b c", 2);
        let mut rng = SmallRng::seed_from_u64(99);
        let r = approx_fcp(&events, pr_f, 0.05, 0.05, &mut rng);
        assert!((r.fcp - 0.8754).abs() < 0.01, "{}", r.fcp);
        assert!(r.samples > 0);
    }

    #[test]
    fn paper_value_for_abcd() {
        // {a,b,c,d} is maximal: FCP = Pr_F = 0.81, no sampling needed.
        let db = table2();
        let (events, pr_f) = family(&db, "a b c d", 2);
        let r = approx_fcp(&events, pr_f, 0.1, 0.1, &mut SmallRng::seed_from_u64(1));
        assert_eq!(r.fcp, 0.81);
        assert_eq!(r.samples, 0);
    }

    #[test]
    fn never_closed_itemsets_estimate_near_zero() {
        // {a,b} is covered by c in every world: Pr_FC = 0.
        let db = table2();
        let (events, pr_f) = family(&db, "a b", 2);
        let r = approx_fcp(&events, pr_f, 0.05, 0.05, &mut SmallRng::seed_from_u64(2));
        assert!(r.fcp < 0.02, "{}", r.fcp);
    }

    #[test]
    fn estimate_is_clamped_to_frequent_probability() {
        let db = table2();
        let (events, pr_f) = family(&db, "d", 1);
        let r = approx_fcp(&events, pr_f, 0.2, 0.2, &mut SmallRng::seed_from_u64(3));
        assert!(r.fcp >= 0.0 && r.fcp <= pr_f);
    }

    #[test]
    fn adaptive_variant_matches_fixed_budget_variant() {
        let db = table2();
        let (events, pr_f) = family(&db, "a b c", 2);
        let fixed = approx_fcp(&events, pr_f, 0.05, 0.05, &mut SmallRng::seed_from_u64(8));
        let adaptive =
            approx_fcp_adaptive(&events, pr_f, 0.05, 0.05, &mut SmallRng::seed_from_u64(9));
        assert!((fixed.fcp - adaptive.fcp).abs() < 0.02);
        // The union here is sizeable relative to Z, so adaptivity saves
        // samples.
        assert!(adaptive.samples <= fixed.samples);
    }

    #[test]
    fn traced_wrapper_matches_untraced_and_reports() {
        let db = table2();
        let (events, pr_f) = family(&db, "a b c", 2);
        let plain = approx_fcp(&events, pr_f, 0.05, 0.05, &mut SmallRng::seed_from_u64(7));
        let mut timers = PhaseTimers::default();
        let mut rec = crate::trace::RecordingSink::default();
        let traced = approx_fcp_traced(
            &events,
            pr_f,
            0.05,
            0.05,
            &mut SmallRng::seed_from_u64(7),
            &mut timers,
            &mut rec,
        );
        assert_eq!(plain.fcp, traced.fcp);
        assert_eq!(plain.samples, traced.samples);
        assert_eq!(timers.count(Phase::FcpSample), 1);
        assert!(rec.events.iter().any(|e| matches!(
            e,
            crate::trace::TraceEvent::FcpEval {
                method: FcpEvalKind::Sampled,
                ..
            }
        )));
    }

    #[test]
    fn chunked_estimate_is_reproducible_per_seed_and_thread_count() {
        let db = table2();
        let (events, pr_f) = family(&db, "a b c", 2);
        for threads in [1, 2, 4, 7] {
            let a = approx_fcp_chunked(&events, pr_f, 0.1, 0.1, threads, 0xfeed);
            let b = approx_fcp_chunked(&events, pr_f, 0.1, 0.1, threads, 0xfeed);
            assert_eq!(a.fcp.to_bits(), b.fcp.to_bits(), "threads={threads}");
            assert_eq!(a.samples, b.samples);
        }
        // Different seeds diverge (the estimator really is sampling).
        // The {a} family has three non-closure events, so the hit rate is
        // genuinely stochastic ({a,b,c}'s single-event family is not: its
        // estimate is exactly `z` for every seed).
        let (events, pr_f) = family(&db, "a", 2);
        let base = approx_fcp_chunked(&events, pr_f, 0.1, 0.1, 4, 0xfeed)
            .fcp
            .to_bits();
        let diverged = (0..4u64).any(|k| {
            approx_fcp_chunked(&events, pr_f, 0.1, 0.1, 4, 0xbeef + k)
                .fcp
                .to_bits()
                != base
        });
        assert!(diverged, "sampling estimator never diverged across seeds");
    }

    #[test]
    fn chunked_estimate_tracks_exact_value() {
        // Pr_FC({a,b,c}) = 0.8754 (Example 1.2 / 4.3), for every chunking.
        let db = table2();
        let (events, pr_f) = family(&db, "a b c", 2);
        for threads in [1, 2, 4, 7] {
            let r = approx_fcp_chunked(&events, pr_f, 0.05, 0.05, threads, 42);
            assert!(
                (r.fcp - 0.8754).abs() < 0.01,
                "threads={threads}: {}",
                r.fcp
            );
            // All chunks together still draw the full fixed-N budget.
            let n = approx_fcp(&events, pr_f, 0.05, 0.05, &mut SmallRng::seed_from_u64(5)).samples;
            assert_eq!(r.samples, n);
        }
    }

    #[test]
    fn chunked_empty_family_short_circuits() {
        let db = table2();
        let (events, pr_f) = family(&db, "a b c d", 2);
        let r = approx_fcp_chunked(&events, pr_f, 0.1, 0.1, 4, 7);
        assert_eq!(r.fcp, 0.81);
        assert_eq!(r.samples, 0);
    }

    #[test]
    fn chunked_traced_matches_untraced_and_reports() {
        let db = table2();
        let (events, pr_f) = family(&db, "a b c", 2);
        let plain = approx_fcp_chunked(&events, pr_f, 0.1, 0.1, 3, 77);
        let mut timers = PhaseTimers::default();
        let mut rec = crate::trace::RecordingSink::default();
        let traced =
            approx_fcp_chunked_traced(&events, pr_f, 0.1, 0.1, 3, 77, &mut timers, &mut rec);
        assert_eq!(plain.fcp.to_bits(), traced.fcp.to_bits());
        assert_eq!(plain.samples, traced.samples);
        assert_eq!(timers.count(Phase::FcpSample), 1);
        assert!(rec.events.iter().any(|e| matches!(
            e,
            crate::trace::TraceEvent::FcpEval {
                method: FcpEvalKind::Sampled,
                ..
            }
        )));
    }

    #[test]
    fn tighter_epsilon_draws_more_samples() {
        let db = table2();
        let (events, pr_f) = family(&db, "a", 2);
        let loose = approx_fcp(&events, pr_f, 0.2, 0.1, &mut SmallRng::seed_from_u64(4));
        let tight = approx_fcp(&events, pr_f, 0.05, 0.1, &mut SmallRng::seed_from_u64(4));
        assert!(tight.samples > loose.samples * 10);
    }
}
