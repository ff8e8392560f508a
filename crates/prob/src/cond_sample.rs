//! Sampling Bernoulli vectors conditioned on a minimum number of successes.
//!
//! The Karp–Luby estimator for the frequent non-closed probability must
//! draw possible worlds *conditioned on* an event of the form "all tuples
//! of a set are absent AND at least `min_sup` of the tuples of another set
//! are present". Absence is trivial; presence-with-a-floor is a Poisson–
//! binomial sum conditioned on `S ≥ k`, sampled here exactly.
//!
//! Two strategies, chosen automatically:
//!
//! * **Rejection**: draw unconditioned vectors until one has `≥ k`
//!   successes. Exact, `O(n)` memory, expected `1 / Pr{S ≥ k}` attempts —
//!   used when the conditioning event is likely.
//! * **Suffix-DP**: precompute `R[i][j] = Pr{ ≥ j successes among trials
//!   i..n }` and walk the trials, drawing each with its exact conditional
//!   probability `p_i · R[i+1][j−1] / R[i][j]`. `O(n·k)` memory, `O(n)` per
//!   sample — used when the event is rare and rejection would thrash.
//!
//! [`ConditionalBernoulliSampler::sample_into`] returns the draw as a
//! `Vec<bool>`; [`ConditionalBernoulliSampler::sample_scatter`] makes the
//! same draw from the same uniforms but writes each success straight into
//! a caller-owned bit world at a precomputed position, comparing raw
//! uniform bits against integer thresholds. The Karp–Luby draw uses the
//! latter; the former stays as the reference the tests compare against.

use rand::{Rng, RngExt};

use crate::poisson_binomial::tail_at_least;

/// Rejection is preferred while the acceptance probability is at least this.
const REJECTION_THRESHOLD: f64 = 0.2;

enum Strategy {
    Rejection,
    SuffixDp {
        /// Flattened `(n+1) × (k+1)` suffix table `R[i][j]`.
        table: Vec<f64>,
        /// `threshold(Pr(trial i succeeds | ≥ j successes in i..n))`,
        /// flattened `n × (k+1)`: the scatter draw's copy of the ratios
        /// [`ConditionalBernoulliSampler::sample_into`] divides out per
        /// trial.
        thresholds: Vec<u64>,
    },
}

/// `2⁵³`: a uniform `f64` draw is `m / 2⁵³` with `m = next_u64() >> 11`.
const TWO_POW_53: f64 = (1u64 << 53) as f64;

/// The integer form of the test `u < x` on a uniform draw `u = m / 2⁵³`
/// (the `random::<f64>()` of the `rand` shim): for every `m < 2⁵³`,
/// `m < threshold(x)` exactly when `u < x`, because `x · 2⁵³` is exact
/// and `m` is an integer. A NaN `x` maps to 0, which no `m` is below —
/// the float test is false then too.
fn threshold(x: f64) -> u64 {
    (x * TWO_POW_53).ceil() as u64
}

/// The `m` of one uniform `f64` draw (see [`threshold`]).
#[inline]
fn uniform_bits<R: Rng + ?Sized>(rng: &mut R) -> u64 {
    rng.next_u64() >> 11
}

/// Exact sampler for independent Bernoulli trials conditioned on at least
/// `k` successes.
///
/// # Examples
///
/// ```
/// use prob::ConditionalBernoulliSampler;
/// use rand::{rngs::SmallRng, SeedableRng};
/// let s = ConditionalBernoulliSampler::new(vec![0.3, 0.5, 0.2], 2);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mut world = Vec::new();
/// s.sample_into(&mut rng, &mut world);
/// assert!(world.iter().filter(|&&b| b).count() >= 2);
/// ```
pub struct ConditionalBernoulliSampler {
    probs: Vec<f64>,
    /// `threshold(p)` per trial.
    thresholds: Vec<u64>,
    k: usize,
    tail: f64,
    strategy: Strategy,
}

impl ConditionalBernoulliSampler {
    /// Build a sampler for the given success probabilities and floor `k`.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]` or the conditioning
    /// event `S ≥ k` has probability zero.
    pub fn new(probs: Vec<f64>, k: usize) -> Self {
        for &p in &probs {
            assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
        }
        let tail = tail_at_least(&probs, k);
        assert!(
            tail > 0.0,
            "conditioning event `at least {k} of {}` has probability zero",
            probs.len()
        );
        let strategy = if k == 0 || tail >= REJECTION_THRESHOLD {
            Strategy::Rejection
        } else {
            let table = build_suffix_table(&probs, k);
            let thresholds = conditional_thresholds(&probs, k, &table);
            Strategy::SuffixDp { table, thresholds }
        };
        Self {
            thresholds: probs.iter().map(|&p| threshold(p)).collect(),
            probs,
            k,
            tail,
            strategy,
        }
    }

    /// `Pr{ S ≥ k }` — the probability of the conditioning event.
    pub fn conditioning_probability(&self) -> f64 {
        self.tail
    }

    /// Number of trials.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True when there are no trials (then necessarily `k == 0`).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Draw one vector into `out` (cleared first), distributed exactly as
    /// the unconditioned product law restricted to `{ S ≥ k }`.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<bool>) {
        out.clear();
        match &self.strategy {
            Strategy::Rejection => loop {
                out.clear();
                let mut successes = 0usize;
                for &p in &self.probs {
                    let b = rng.random::<f64>() < p;
                    successes += b as usize;
                    out.push(b);
                }
                if successes >= self.k {
                    return;
                }
            },
            Strategy::SuffixDp { table, .. } => {
                let k = self.k;
                let stride = k + 1;
                let mut need = k;
                for (i, &p) in self.probs.iter().enumerate() {
                    let b = if need == 0 {
                        rng.random::<f64>() < p
                    } else {
                        // Pr(trial i succeeds | ≥ need successes in i..n)
                        let num = p * table[(i + 1) * stride + (need - 1)];
                        let den = table[i * stride + need];
                        debug_assert!(den > 0.0, "entered an impossible DP state");
                        rng.random::<f64>() < num / den
                    };
                    if b && need > 0 {
                        need -= 1;
                    }
                    out.push(b);
                }
                debug_assert_eq!(need, 0, "sampler failed to meet the floor");
            }
        }
    }

    /// Draw one vector exactly as [`Self::sample_into`] would — the same
    /// uniforms in the same order, hence the same outcome — but write it
    /// as bits: a success of trial `t` sets bit `positions[t] % 64` of
    /// `words[positions[t] / 64]`. `words` is zeroed first, so every bit
    /// not named by `positions` ends clear. Nothing is allocated.
    ///
    /// `positions` must be ascending.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is shorter than the trial list or names a
    /// bit beyond `words`.
    pub fn sample_scatter<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        positions: &[u32],
        words: &mut [u64],
    ) {
        let positions = positions[..self.probs.len()].iter().copied();
        match &self.strategy {
            Strategy::Rejection => loop {
                let mut successes = 0usize;
                scatter_trials(words, positions.clone().zip(&self.thresholds), |&t| {
                    let b = uniform_bits(rng) < t;
                    successes += b as usize;
                    b
                });
                if successes >= self.k {
                    return;
                }
            },
            Strategy::SuffixDp { thresholds, .. } => {
                let mut need = self.k;
                let rows = thresholds.chunks_exact(self.k + 1);
                scatter_trials(words, positions.zip(rows), |row| {
                    let b = uniform_bits(rng) < row[need];
                    need -= (b && need > 0) as usize;
                    b
                });
                debug_assert_eq!(need, 0, "sampler failed to meet the floor");
            }
        }
    }
}

/// Zero `words`, then run `draw` on each trial in order and set the bit
/// of every success at its (ascending) position. The bits of one word
/// collect in a register and are stored once, so consecutive trials
/// carry no store-to-load dependency through memory.
#[inline]
fn scatter_trials<T>(
    words: &mut [u64],
    trials: impl Iterator<Item = (u32, T)>,
    mut draw: impl FnMut(T) -> bool,
) {
    words.fill(0);
    let (mut word, mut acc) = (0usize, 0u64);
    for (pos, trial) in trials {
        let w = (pos / 64) as usize;
        debug_assert!(w >= word, "positions must be ascending");
        if w != word {
            words[word] = acc;
            (word, acc) = (w, 0);
        }
        acc |= (draw(trial) as u64) << (pos % 64);
    }
    if let Some(last) = words.get_mut(word) {
        *last = acc;
    }
}

/// `threshold` of the per-trial success probability the suffix-DP walk
/// of [`ConditionalBernoulliSampler::sample_into`] uses in state `(i,
/// need)`, computed with the same float operations: `p_i` when
/// `need = 0`, else `p_i · R[i+1][need−1] / R[i][need]`.
fn conditional_thresholds(probs: &[f64], k: usize, table: &[f64]) -> Vec<u64> {
    let stride = k + 1;
    let mut out = Vec::with_capacity(probs.len() * stride);
    for (i, &p) in probs.iter().enumerate() {
        out.push(threshold(p));
        for need in 1..=k {
            let num = p * table[(i + 1) * stride + (need - 1)];
            let den = table[i * stride + need];
            out.push(threshold(num / den));
        }
    }
    out
}

/// `R[i][j] = Pr{ at least j successes among trials i..n }`, flattened
/// row-major with stride `k + 1`.
fn build_suffix_table(probs: &[f64], k: usize) -> Vec<f64> {
    let n = probs.len();
    let stride = k + 1;
    let mut table = vec![0.0f64; (n + 1) * stride];
    table[n * stride] = 1.0; // R[n][0] = 1
    for i in (0..n).rev() {
        let p = probs[i];
        table[i * stride] = 1.0; // R[i][0] = 1
        for j in 1..=k {
            let succeed = table[(i + 1) * stride + (j - 1)];
            let fail = table[(i + 1) * stride + j];
            table[i * stride + j] = p * succeed + (1.0 - p) * fail;
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn empirical_law(probs: &[f64], k: usize, samples: usize, seed: u64) -> HashMap<u32, f64> {
        let sampler = ConditionalBernoulliSampler::new(probs.to_vec(), k);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut counts: HashMap<u32, usize> = HashMap::new();
        let mut world = Vec::new();
        for _ in 0..samples {
            sampler.sample_into(&mut rng, &mut world);
            let mask = world
                .iter()
                .enumerate()
                .fold(0u32, |m, (i, &b)| m | ((b as u32) << i));
            *counts.entry(mask).or_default() += 1;
        }
        counts
            .into_iter()
            .map(|(mask, c)| (mask, c as f64 / samples as f64))
            .collect()
    }

    fn exact_conditional_law(probs: &[f64], k: usize) -> HashMap<u32, f64> {
        let n = probs.len();
        let mut law = HashMap::new();
        let mut total = 0.0;
        for mask in 0u32..(1 << n) {
            let successes = mask.count_ones() as usize;
            if successes < k {
                continue;
            }
            let mut p = 1.0;
            for (i, &pi) in probs.iter().enumerate() {
                p *= if mask >> i & 1 == 1 { pi } else { 1.0 - pi };
            }
            law.insert(mask, p);
            total += p;
        }
        law.values_mut().for_each(|p| *p /= total);
        law
    }

    fn assert_laws_close(probs: &[f64], k: usize, seed: u64) {
        let exact = exact_conditional_law(probs, k);
        let emp = empirical_law(probs, k, 120_000, seed);
        for (mask, &pe) in &exact {
            let po = emp.get(mask).copied().unwrap_or(0.0);
            assert!(
                (pe - po).abs() < 0.02,
                "mask {mask:b}: exact {pe} vs empirical {po}"
            );
        }
        // No mass outside the conditioning event.
        for mask in emp.keys() {
            assert!(
                mask.count_ones() as usize >= k,
                "sampled world violates the floor"
            );
        }
    }

    #[test]
    fn rejection_mode_matches_exact_law() {
        // High tail => rejection strategy.
        assert_laws_close(&[0.6, 0.7, 0.5], 1, 17);
    }

    #[test]
    fn suffix_dp_mode_matches_exact_law() {
        // Low tail => suffix-DP strategy.
        let probs = [0.1, 0.15, 0.2, 0.1];
        let sampler = ConditionalBernoulliSampler::new(probs.to_vec(), 3);
        assert!(matches!(sampler.strategy, Strategy::SuffixDp { .. }));
        assert_laws_close(&probs, 3, 23);
    }

    #[test]
    fn floor_zero_is_unconditioned() {
        assert_laws_close(&[0.3, 0.8], 0, 31);
    }

    #[test]
    fn all_trials_forced_when_k_equals_n() {
        let sampler = ConditionalBernoulliSampler::new(vec![0.2, 0.3, 0.4], 3);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut world = Vec::new();
        for _ in 0..100 {
            sampler.sample_into(&mut rng, &mut world);
            assert!(world.iter().all(|&b| b));
        }
    }

    #[test]
    fn conditioning_probability_matches_tail() {
        let probs = [0.25, 0.5, 0.75];
        let sampler = ConditionalBernoulliSampler::new(probs.to_vec(), 2);
        assert!((sampler.conditioning_probability() - tail_at_least(&probs, 2)).abs() < 1e-15);
    }

    #[test]
    fn deterministic_trials_are_respected() {
        // p = 1 trials are always present, p = 0 never.
        let sampler = ConditionalBernoulliSampler::new(vec![1.0, 0.0, 0.5], 1);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut world = Vec::new();
        for _ in 0..200 {
            sampler.sample_into(&mut rng, &mut world);
            assert!(world[0]);
            assert!(!world[1]);
        }
    }

    #[test]
    fn suffix_table_head_is_the_tail_probability() {
        let probs = [0.1, 0.2, 0.3, 0.4];
        let k = 2;
        let table = build_suffix_table(&probs, k);
        assert!((table[k] - tail_at_least(&probs, k)).abs() < 1e-12);
    }

    /// Bits `sample_into` + the position mapping would set.
    fn scattered_reference(
        sampler: &ConditionalBernoulliSampler,
        rng: &mut SmallRng,
        positions: &[u32],
        words: usize,
    ) -> Vec<u64> {
        let mut draws = Vec::new();
        sampler.sample_into(rng, &mut draws);
        let mut out = vec![0u64; words];
        for (&b, &pos) in draws.iter().zip(positions) {
            if b {
                out[(pos / 64) as usize] |= 1 << (pos % 64);
            }
        }
        out
    }

    #[test]
    fn scatter_matches_sample_into_under_equal_rng_state() {
        // Non-contiguous positions crossing the 64-bit word boundary; one
        // floor per strategy.
        let positions: Vec<u32> = vec![1, 5, 17, 40, 62, 63, 64, 66, 90, 127, 128, 150];
        let probs: Vec<f64> = (0..positions.len())
            .map(|i| 0.15 + 0.05 * (i % 5) as f64)
            .collect();
        for (k, rejection) in [(2, true), (8, false)] {
            let sampler = ConditionalBernoulliSampler::new(probs.clone(), k);
            assert_eq!(matches!(sampler.strategy, Strategy::Rejection), rejection);
            let mut rng_ref = SmallRng::seed_from_u64(13);
            let mut rng = SmallRng::seed_from_u64(13);
            // Dirty buffer: the scatter draw must clear what it does not set.
            let mut words = vec![u64::MAX; 3];
            for _ in 0..2_000 {
                let expected = scattered_reference(&sampler, &mut rng_ref, &positions, 3);
                sampler.sample_scatter(&mut rng, &positions, &mut words);
                assert_eq!(words, expected, "k={k}");
                let set: u32 = words.iter().map(|w| w.count_ones()).sum();
                assert!(set as usize >= k);
            }
            // Both streams consumed exactly the same uniforms.
            assert_eq!(rng, rng_ref, "k={k}");
        }
    }

    #[test]
    fn integer_threshold_matches_the_float_comparison() {
        let xs = [
            0.0,
            1e-300,
            1.0 / TWO_POW_53,
            0.1,
            0.5,
            0.7,
            1.0 - f64::EPSILON,
            1.0,
            1.0 + f64::EPSILON,
        ];
        for x in xs {
            let t = threshold(x);
            for m in t.saturating_sub(2)..=(t + 1).min((1 << 53) - 1) {
                // The shim's `random::<f64>()` from the same bits.
                let u = m as f64 * (1.0 / TWO_POW_53);
                assert_eq!(m < t, u < x, "x={x} m={m}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "probability zero")]
    fn rejects_impossible_conditioning() {
        ConditionalBernoulliSampler::new(vec![0.5, 0.5], 3);
    }
}
