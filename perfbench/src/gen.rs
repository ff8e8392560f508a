//! Seeded input generation, independent of the program under test.
//!
//! The benchmark draws every input from its own generator so that a
//! change to the repository's generators or RNG shim can never change
//! what is measured. The shape follows the IBM Quest generator that
//! produced the paper's `T20I10D30KP40`: a pool of potential patterns,
//! each transaction a union of corrupted patterns, and an existential
//! probability per transaction.

use std::fmt::Write as _;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng64(u64);

impl Rng64 {
    /// A generator for `seed`, with `stream` selecting an independent
    /// sequence (so one workload seed can feed several inputs).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng64(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    fn poisson(&mut self, mean: f64) -> usize {
        let limit = (-mean).exp();
        let mut k = 0;
        let mut product = self.unit();
        while product > limit {
            k += 1;
            product *= self.unit();
        }
        k
    }

    fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// How each transaction's existential probability is drawn.
#[derive(Debug, Clone, Copy)]
pub enum ProbModel {
    /// Uniform in `[lo, hi]`.
    Uniform(f64, f64),
    /// `N(mean, variance)` clamped into `[0.001, 0.999]`, the paper's
    /// protocol.
    Gaussian(f64, f64),
}

/// Parameters of the Quest-style generator.
#[derive(Debug, Clone, Copy)]
pub struct QuestSpec {
    /// Distinct items `N`.
    pub items: usize,
    /// Mean transaction length `|T|`.
    pub avg_tx_len: f64,
    /// Mean potential-pattern length `|I|`.
    pub avg_pattern_len: f64,
    /// Size of the potential-pattern pool `|L|`.
    pub patterns: usize,
    /// Probability model.
    pub prob: ProbModel,
}

impl QuestSpec {
    /// The sparse base: 60 items, about four items per transaction.
    pub const fn sparse(prob: ProbModel) -> Self {
        QuestSpec {
            items: 60,
            avg_tx_len: 4.0,
            avg_pattern_len: 2.0,
            patterns: 20,
            prob,
        }
    }

    /// The paper's `T20I10D..KP40` shape.
    pub const fn t20i10p40(prob: ProbModel) -> Self {
        QuestSpec {
            items: 40,
            avg_tx_len: 20.0,
            avg_pattern_len: 10.0,
            patterns: 50,
            prob,
        }
    }
}

/// An endless seeded stream of uncertain transactions.
#[derive(Debug, Clone)]
pub struct Feed {
    spec: QuestSpec,
    patterns: Vec<Vec<u32>>,
    cumulative: Vec<f64>,
    corruption: Vec<f64>,
    rng: Rng64,
}

impl Feed {
    /// Draw the pattern pool for `spec` from `rng`.
    pub fn new(spec: QuestSpec, mut rng: Rng64) -> Self {
        let mut patterns: Vec<Vec<u32>> = Vec::with_capacity(spec.patterns);
        let mut weights = Vec::with_capacity(spec.patterns);
        let mut corruption = Vec::with_capacity(spec.patterns);
        for p in 0..spec.patterns {
            let size = rng.poisson(spec.avg_pattern_len).clamp(1, spec.items);
            let mut items: Vec<u32> = Vec::with_capacity(size);
            if p > 0 {
                let frac = rng.exponential(0.5).min(1.0);
                let mut prev = patterns[p - 1].clone();
                let inherit = ((size as f64 * frac).round() as usize).min(prev.len());
                for _ in 0..inherit {
                    items.push(prev.swap_remove(rng.below(prev.len())));
                }
            }
            while items.len() < size {
                let candidate = rng.below(spec.items) as u32;
                if !items.contains(&candidate) {
                    items.push(candidate);
                }
            }
            patterns.push(items);
            weights.push(rng.exponential(1.0));
            corruption.push((0.5 + 0.1 * rng.normal()).clamp(0.0, 1.0));
        }
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Feed {
            spec,
            patterns,
            cumulative,
            corruption,
            rng,
        }
    }

    /// Draw the rows from `rng` instead of continuing the pool's
    /// generator: the same pool with different rows.
    pub fn with_rows_from(mut self, rng: Rng64) -> Self {
        self.rng = rng;
        self
    }

    /// The next transaction: sorted distinct item ids and a probability.
    pub fn next_tx(&mut self) -> (Vec<u32>, f64) {
        let rng = &mut self.rng;
        let target = rng.poisson(self.spec.avg_tx_len).clamp(1, self.spec.items);
        let mut items: Vec<u32> = Vec::with_capacity(target);
        let mut guard = 0;
        while items.len() < target && guard < 64 {
            guard += 1;
            let u = rng.unit();
            let pi = self
                .cumulative
                .iter()
                .position(|&c| u <= c)
                .unwrap_or(self.patterns.len() - 1);
            let mut chosen = self.patterns[pi].clone();
            while chosen.len() > 1 && rng.unit() > self.corruption[pi] {
                chosen.swap_remove(rng.below(chosen.len()));
            }
            for item in chosen {
                if !items.contains(&item) {
                    items.push(item);
                }
            }
        }
        items.truncate(target.max(1));
        items.sort_unstable();
        let p = match self.spec.prob {
            ProbModel::Uniform(lo, hi) => lo + (hi - lo) * rng.unit(),
            ProbModel::Gaussian(mean, variance) => {
                (mean + variance.sqrt() * rng.normal()).clamp(1e-3, 1.0 - 1e-3)
            }
        };
        (items, p)
    }

    /// `rows` transactions as `.dat` text (`1 4 7 : 0.8312…` per line),
    /// probabilities printed exactly so parsing restores the same bits.
    pub fn dat(&mut self, rows: usize) -> String {
        let mut out = String::with_capacity(rows * 48);
        for _ in 0..rows {
            let (items, p) = self.next_tx();
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                let _ = write!(out, "{item}");
            }
            let _ = writeln!(out, " : {p:?}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_text_and_exact_probabilities() {
        let spec = QuestSpec::sparse(ProbModel::Gaussian(0.5, 0.5));
        let a = Feed::new(spec, Rng64::new(7, 1)).dat(50);
        let b = Feed::new(spec, Rng64::new(7, 1)).dat(50);
        let c = Feed::new(spec, Rng64::new(8, 1)).dat(50);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let db = utdb::io::parse_dat(&a).expect("generated text parses");
        assert_eq!(db.len(), 50);
        let (_, p) = Feed::new(spec, Rng64::new(7, 1)).next_tx();
        assert_eq!(db.probability(0), p);
    }
}
