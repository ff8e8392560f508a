//! The two evaluation datasets of the paper, at configurable scale.
//!
//! * **Mushroom** — the dense categorical dataset (8124 rows, 119 items
//!   in the real data), with Gaussian existential probabilities of mean
//!   0.5 / variance 0.5 by default (the paper's "high uncertainty"
//!   scenario), or mean 0.8 / variance 0.1 for the compression study.
//! * **T20I10D30KP40** — the IBM Quest synthetic dataset (30K rows, 40
//!   items), Gaussian mean 0.8 / variance 0.1 ("low uncertainty").
//!
//! Scaled-down row counts keep the full reproduction suite in laptop
//! territory; `Scale::Paper` uses the original sizes.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use utdb::gen::{MushroomConfig, QuestConfig};
use utdb::{assign_gaussian_probabilities, assign_uniform_probabilities, UncertainDatabase};

/// Dataset sizes for a reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minimal sizes for smoke tests and Criterion micro-runs.
    Tiny,
    /// Default: minutes for the full suite on a laptop.
    Laptop,
    /// The paper's original row counts (8124 / 30 000).
    Paper,
}

impl Scale {
    /// Mushroom row count at this scale.
    pub fn mushroom_rows(self) -> usize {
        match self {
            Scale::Tiny => 300,
            Scale::Laptop => 1200,
            Scale::Paper => 8124,
        }
    }

    /// Quest row count at this scale.
    pub fn quest_rows(self) -> usize {
        match self {
            Scale::Tiny => 800,
            Scale::Laptop => 3000,
            Scale::Paper => 30_000,
        }
    }

    /// Parse a CLI token.
    pub fn parse(token: &str) -> Option<Scale> {
        match token {
            "tiny" => Some(Scale::Tiny),
            "laptop" => Some(Scale::Laptop),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Which evaluation dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// The Mushroom-like dense categorical dataset.
    Mushroom,
    /// The Quest synthetic `T20I10D30KP40` dataset.
    Quest,
}

impl DatasetKind {
    /// Both datasets, paper order.
    pub const ALL: [DatasetKind; 2] = [DatasetKind::Mushroom, DatasetKind::Quest];

    /// Display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Mushroom => "Mushroom",
            DatasetKind::Quest => "T20I10D30KP40",
        }
    }

    /// The paper's default Gaussian `(mean, variance)` for the dataset.
    pub fn default_gaussian(self) -> (f64, f64) {
        match self {
            DatasetKind::Mushroom => (0.5, 0.5),
            DatasetKind::Quest => (0.8, 0.1),
        }
    }

    /// The paper's default *relative* minimum support for the dataset
    /// (the median of its `min_sup` sweeps).
    pub fn default_min_sup_rel(self) -> f64 {
        match self {
            DatasetKind::Mushroom => 0.4,
            DatasetKind::Quest => 0.3,
        }
    }

    /// The paper's `min_sup` sweep grid for the dataset.
    pub fn min_sup_grid(self) -> [f64; 5] {
        match self {
            DatasetKind::Mushroom => [0.2, 0.3, 0.4, 0.5, 0.6],
            DatasetKind::Quest => [0.1, 0.2, 0.3, 0.4, 0.5],
        }
    }

    /// Generate the *certain* base dataset at `scale`.
    pub fn certain(self, scale: Scale, seed: u64) -> UncertainDatabase {
        let mut rng = SmallRng::seed_from_u64(seed);
        match self {
            DatasetKind::Mushroom => MushroomConfig::new(scale.mushroom_rows()).generate(&mut rng),
            DatasetKind::Quest => QuestConfig::t20i10_p40(scale.quest_rows()).generate(&mut rng),
        }
    }

    /// Generate the uncertain dataset with the paper-default Gaussian.
    pub fn uncertain(self, scale: Scale, seed: u64) -> UncertainDatabase {
        let (mean, var) = self.default_gaussian();
        self.uncertain_with(scale, seed, mean, var)
    }

    /// Generate the uncertain dataset with an explicit Gaussian.
    pub fn uncertain_with(
        self,
        scale: Scale,
        seed: u64,
        mean: f64,
        variance: f64,
    ) -> UncertainDatabase {
        let base = self.certain(scale, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
        assign_gaussian_probabilities(&base, mean, variance, &mut rng)
    }
}

/// A benchmark dataset: one of the paper's evaluation pair, or the
/// high-probability configuration that exercises the incremental
/// frequentness-DP downdate path.
///
/// The figure drivers keep using [`DatasetKind::ALL`] — the paper plots
/// only its own two datasets — while the exporter tests, the wall-clock
/// gates and the CI smoke data use [`BenchDataset::HighProb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchDataset {
    /// One of the paper's evaluation datasets under its default Gaussian.
    Paper(DatasetKind),
    /// A sparse Quest-style base (60 items, average transaction length 4)
    /// with existential probabilities drawn uniformly from `[0.6, 0.9]`.
    HighProb,
}

/// Row count of the [`BenchDataset::HighProb`] dataset. Fixed across
/// [`Scale`]s so its relative `min_sup` of [`HIGHPROB_MIN_SUP_REL`]
/// always resolves to the same tiny absolute support of 3, keeping the
/// cell's behaviour comparable across scales.
pub const HIGHPROB_ROWS: usize = 300;

/// Relative minimum support of the `HighProb` benchmark cells:
/// `0.01 × 300 rows = 3` absolute.
pub const HIGHPROB_MIN_SUP_REL: f64 = 0.01;

impl BenchDataset {
    /// Default relative minimum support for benchmark cells.
    pub fn default_min_sup_rel(self) -> f64 {
        match self {
            BenchDataset::Paper(kind) => kind.default_min_sup_rel(),
            BenchDataset::HighProb => HIGHPROB_MIN_SUP_REL,
        }
    }

    /// Generate the uncertain benchmark dataset.
    pub fn uncertain(self, scale: Scale, seed: u64) -> UncertainDatabase {
        match self {
            BenchDataset::Paper(kind) => kind.uncertain(scale, seed),
            BenchDataset::HighProb => {
                let cfg = QuestConfig {
                    num_transactions: HIGHPROB_ROWS,
                    avg_transaction_len: 4.0,
                    avg_pattern_len: 2.0,
                    num_items: 60,
                    num_patterns: 20,
                    correlation: 0.5,
                    corruption_mean: 0.5,
                    corruption_dev: 0.1,
                };
                let base = cfg.generate(&mut SmallRng::seed_from_u64(seed));
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
                assign_uniform_probabilities(&base, 0.6, 0.9, &mut rng)
            }
        }
    }
}

/// Turn a relative minimum support into an absolute count (at least 1).
pub fn abs_min_sup(db: &UncertainDatabase, rel: f64) -> usize {
    ((rel * db.len() as f64).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Tiny.mushroom_rows() < Scale::Laptop.mushroom_rows());
        assert!(Scale::Laptop.quest_rows() < Scale::Paper.quest_rows());
        assert_eq!(Scale::Paper.mushroom_rows(), 8124);
        assert_eq!(Scale::Paper.quest_rows(), 30_000);
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("laptop"), Some(Scale::Laptop));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn datasets_generate_deterministically() {
        for kind in DatasetKind::ALL {
            let a = kind.uncertain(Scale::Tiny, 7);
            let b = kind.uncertain(Scale::Tiny, 7);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.transactions().iter().zip(b.transactions()) {
                assert_eq!(x.items(), y.items());
                assert_eq!(x.probability(), y.probability());
            }
        }
    }

    #[test]
    fn gaussian_defaults_match_paper() {
        assert_eq!(DatasetKind::Mushroom.default_gaussian(), (0.5, 0.5));
        assert_eq!(DatasetKind::Quest.default_gaussian(), (0.8, 0.1));
    }

    #[test]
    fn high_prob_dataset_sits_in_the_downdate_safe_regime() {
        let db = BenchDataset::HighProb.uncertain(Scale::Laptop, 42);
        assert_eq!(db.len(), HIGHPROB_ROWS);
        // Probabilities stay in the uniform band.
        assert!(db
            .transactions()
            .iter()
            .all(|t| (0.6..=0.9).contains(&t.probability())));
        // The default relative support resolves to the amp-guard bound.
        assert_eq!(
            abs_min_sup(&db, BenchDataset::HighProb.default_min_sup_rel()),
            3
        );
        // Scale does not change the rows (the bound depends on it).
        assert_eq!(
            BenchDataset::HighProb.uncertain(Scale::Tiny, 42).len(),
            HIGHPROB_ROWS
        );
        // Deterministic under seed.
        let again = BenchDataset::HighProb.uncertain(Scale::Laptop, 42);
        for (a, b) in db.transactions().iter().zip(again.transactions()) {
            assert_eq!(a.items(), b.items());
            assert_eq!(a.probability(), b.probability());
        }
    }

    #[test]
    fn abs_min_sup_rounds_and_floors() {
        let db = DatasetKind::Quest.uncertain(Scale::Tiny, 1);
        assert_eq!(abs_min_sup(&db, 0.5), db.len() / 2);
        assert_eq!(abs_min_sup(&db, 0.0), 1);
    }
}
