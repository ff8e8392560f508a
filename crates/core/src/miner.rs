//! The unified entry point: a fluent [`Miner`] builder over every mining
//! algorithm and option.
//!
//! Historically each algorithm exposed a `mine*`/`mine*_with` free
//! function pair, and configuration went through [`MinerConfig`]'s
//! `with_*` methods — a call-site matrix that grew with every axis. The
//! builder collapses it:
//!
//! ```
//! use pfcim_core::prelude::*;
//! use utdb::UncertainDatabase;
//!
//! let db = UncertainDatabase::parse_symbolic(&[
//!     ("a b c d", 0.9),
//!     ("a b c", 0.6),
//!     ("a b c", 0.7),
//!     ("a b c d", 0.9),
//! ]);
//! let outcome = Miner::new(&db)
//!     .min_sup(2)
//!     .pfct(0.8)
//!     .algorithm(Algorithm::Dfs)
//!     .threads(1)
//!     .run();
//! assert_eq!(outcome.results.len(), 2);
//! ```
//!
//! Attach any [`crate::trace::MinerSink`] with [`Miner::sink`]:
//!
//! ```
//! # use pfcim_core::prelude::*;
//! # use pfcim_core::RunLedger;
//! # use utdb::UncertainDatabase;
//! # let db = UncertainDatabase::parse_symbolic(&[("a b", 0.9), ("a b", 0.8)]);
//! let mut ledger = RunLedger::default();
//! let outcome = Miner::new(&db).min_sup(1).pfct(0.5).sink(&mut ledger).run();
//! assert_eq!(ledger.stats, outcome.stats);
//! ```
//!
//! `Miner::new(&db)` gives each run a private, run-scoped bound-input
//! cache; [`crate::snapshot::Snapshot::miner`] hands out the *same*
//! builder wired to a snapshot-shared cache instead — batch CLI,
//! bench harness and the mining service all drive this one code path.

use std::sync::Arc;
use std::time::Duration;

use utdb::UncertainDatabase;

use crate::cache::SharedEventCache;
use crate::config::{FcpMethod, MinerConfig, PruningConfig, SearchStrategy, Variant};
use crate::result::MiningOutcome;
use crate::trace::{NullSink, ShardableSink};

/// Which mining algorithm a [`Miner`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Depth-first `ProbFC` (the paper's Fig. 3) — the default.
    #[default]
    Dfs,
    /// Breadth-first level-wise search (`MPFCI-BFS`, Section V.D).
    Bfs,
    /// The exhaustive PFI-checking baseline (the paper's "Naive").
    Naive,
}

/// Fluent builder over database, configuration, algorithm and sink — the
/// single public entry point for mining (see the [module docs](self)).
///
/// Construction is infallible; threshold validation happens at
/// [`Miner::run`], exactly as the free functions validated at entry.
#[derive(Debug, Clone)]
pub struct Miner<'a> {
    db: &'a UncertainDatabase,
    config: MinerConfig,
    algorithm: Option<Algorithm>,
    cache: Option<Arc<SharedEventCache>>,
}

impl<'a> Miner<'a> {
    /// Start building a run over `db` with the paper's default
    /// configuration (`min_sup = 1`, `pfct = 0.5`, `ε = δ = 0.1`, all
    /// prunings, depth-first search) and a private run-scoped
    /// bound-input cache.
    pub fn new(db: &'a UncertainDatabase) -> Self {
        Self {
            db,
            config: MinerConfig::new(1, 0.5),
            algorithm: None,
            cache: None,
        }
    }

    /// Share a [`SharedEventCache`] across runs instead of the private
    /// run-scoped one — how [`crate::snapshot::Snapshot::miner`] lets
    /// concurrent and successive queries reuse each other's event
    /// tables. The results are bit-identical either way (cached
    /// projection equals direct construction); only the hit/miss
    /// counters change.
    pub fn with_shared_cache(mut self, cache: Arc<SharedEventCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Replace the whole configuration (escape hatch for presets and
    /// sweeps that already carry a [`MinerConfig`]).
    pub fn config(mut self, config: MinerConfig) -> Self {
        self.config = config;
        self
    }

    /// A copy of the configuration the run would use.
    pub fn to_config(&self) -> MinerConfig {
        self.config.clone()
    }

    /// Minimum support threshold (absolute count, ≥ 1).
    pub fn min_sup(mut self, min_sup: usize) -> Self {
        self.config.min_sup = min_sup.max(1);
        self
    }

    /// Probabilistic frequent closed threshold in `[0, 1)`.
    pub fn pfct(mut self, pfct: f64) -> Self {
        self.config.pfct = pfct;
        self
    }

    /// `ApproxFCP` relative tolerance `ε` and confidence parameter `δ`.
    pub fn approximation(mut self, epsilon: f64, delta: f64) -> Self {
        self.config.epsilon = epsilon;
        self.config.delta = delta;
        self
    }

    /// Seed of the deterministic RNG driving `ApproxFCP`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Worker threads (`0` = auto; see [`MinerConfig::threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Wall-clock budget after which the run aborts with
    /// [`MiningOutcome::timed_out`] set.
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.config.time_budget = Some(budget);
        self
    }

    /// Probability-computation policy for surviving itemsets.
    pub fn fcp_method(mut self, method: FcpMethod) -> Self {
        self.config.fcp_method = method;
        self
    }

    /// Replace the pruning toggles wholesale.
    pub fn pruning(mut self, pruning: PruningConfig) -> Self {
        self.config.pruning = pruning;
        self
    }

    /// Apply one of the paper's Table VII variants (may flip the search
    /// strategy; an explicit [`Miner::algorithm`] still wins).
    pub fn variant(mut self, variant: Variant) -> Self {
        self.config = self.config.with_variant(variant);
        self
    }

    /// Measured-error tolerance for incremental DP downdates (see
    /// [`MinerConfig::dp_error_tol`]). `0.0` accepts only exact downdates.
    pub fn dp_error_tol(mut self, dp_error_tol: f64) -> Self {
        self.config.dp_error_tol = dp_error_tol;
        self
    }

    /// Capacity of the evaluator's bound-input cache (`0` disables; see
    /// [`MinerConfig::event_cache_capacity`]).
    pub fn event_cache_capacity(mut self, capacity: usize) -> Self {
        self.config.event_cache_capacity = capacity;
        self
    }

    /// Select the algorithm explicitly. Without this, the configured
    /// [`MinerConfig::search`] strategy decides (DFS by default).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Attach an observing sink; finish with [`SinkedMiner::run`].
    pub fn sink<'s, S: ShardableSink + ?Sized>(self, sink: &'s mut S) -> SinkedMiner<'a, 's, S> {
        SinkedMiner { miner: self, sink }
    }

    /// Run unobserved.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range thresholds ([`MinerConfig::validate`]).
    pub fn run(self) -> MiningOutcome {
        self.run_on(&mut NullSink)
    }

    fn run_on<S: ShardableSink + ?Sized>(mut self, sink: &mut S) -> MiningOutcome {
        let algorithm = self.algorithm.unwrap_or(match self.config.search {
            SearchStrategy::Dfs => Algorithm::Dfs,
            SearchStrategy::Bfs => Algorithm::Bfs,
        });
        let cache = self.cache.take();
        match algorithm {
            Algorithm::Dfs => self.config.search = SearchStrategy::Dfs,
            Algorithm::Bfs => self.config.search = SearchStrategy::Bfs,
            Algorithm::Naive => return crate::naive::run_naive(self.db, &self.config, sink, cache),
        }
        crate::mpfci::run_search(self.db, &self.config, sink, cache)
    }
}

/// A [`Miner`] with a sink attached — call [`SinkedMiner::run`].
#[derive(Debug)]
pub struct SinkedMiner<'a, 's, S: ShardableSink + ?Sized> {
    miner: Miner<'a>,
    sink: &'s mut S,
}

impl<S: ShardableSink + ?Sized> SinkedMiner<'_, '_, S> {
    /// Run the configured algorithm, reporting every trace event to the
    /// attached sink.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range thresholds ([`MinerConfig::validate`]).
    pub fn run(self) -> MiningOutcome {
        self.miner.run_on(self.sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunLedger;
    use crate::trace::NullSink;

    fn table2() -> UncertainDatabase {
        UncertainDatabase::parse_symbolic(&[
            ("a b c d", 0.9),
            ("a b c", 0.6),
            ("a b c", 0.7),
            ("a b c d", 0.9),
        ])
    }

    #[test]
    fn builder_matches_free_function_defaults() {
        let db = table2();
        let built = Miner::new(&db).min_sup(2).pfct(0.8).run();
        let direct = crate::mpfci::run_dfs(&db, &MinerConfig::new(2, 0.8), &mut NullSink, None);
        assert_eq!(built.results, direct.results);
        assert_eq!(built.stats, direct.stats);
        assert_eq!(built.kernel, direct.kernel);
    }

    #[test]
    fn builder_selects_every_algorithm() {
        let db = table2();
        let cfg = MinerConfig::new(2, 0.8);
        let dfs = Miner::new(&db)
            .config(cfg.clone())
            .algorithm(Algorithm::Dfs)
            .run();
        let bfs = Miner::new(&db)
            .config(cfg.clone())
            .algorithm(Algorithm::Bfs)
            .run();
        let naive = Miner::new(&db)
            .config(cfg)
            .algorithm(Algorithm::Naive)
            .run();
        assert_eq!(dfs.itemsets(), bfs.itemsets());
        assert_eq!(dfs.itemsets(), naive.itemsets());
    }

    #[test]
    fn variant_sets_search_strategy_unless_overridden() {
        let db = table2();
        let via_variant = Miner::new(&db)
            .min_sup(2)
            .pfct(0.8)
            .variant(Variant::Bfs)
            .run();
        let explicit_bfs = Miner::new(&db)
            .min_sup(2)
            .pfct(0.8)
            .variant(Variant::Bfs)
            .algorithm(Algorithm::Bfs)
            .run();
        assert_eq!(via_variant.results, explicit_bfs.results);
        // An explicit algorithm choice beats the variant's strategy.
        let overridden = Miner::new(&db)
            .min_sup(2)
            .pfct(0.8)
            .variant(Variant::Bfs)
            .algorithm(Algorithm::Dfs)
            .run();
        assert_eq!(overridden.itemsets(), via_variant.itemsets());
    }

    #[test]
    fn sink_observes_the_run() {
        let db = table2();
        let mut ledger = RunLedger::default();
        let outcome = Miner::new(&db)
            .min_sup(2)
            .pfct(0.8)
            .threads(1)
            .sink(&mut ledger)
            .run();
        assert_eq!(ledger.stats, outcome.stats);
        assert_eq!(ledger.results_emitted, outcome.results.len() as u64);
    }

    #[test]
    fn builder_knobs_land_in_the_config() {
        let db = table2();
        let cfg = Miner::new(&db)
            .min_sup(3)
            .pfct(0.7)
            .approximation(0.05, 0.02)
            .seed(42)
            .threads(2)
            .time_budget(Duration::from_secs(9))
            .fcp_method(FcpMethod::ExactOnly)
            .dp_error_tol(1e-7)
            .event_cache_capacity(7)
            .to_config();
        assert_eq!(cfg.min_sup, 3);
        assert_eq!(cfg.pfct, 0.7);
        assert_eq!((cfg.epsilon, cfg.delta), (0.05, 0.02));
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.time_budget, Some(Duration::from_secs(9)));
        assert_eq!(cfg.fcp_method, FcpMethod::ExactOnly);
        assert_eq!(cfg.dp_error_tol, 1e-7);
        assert_eq!(cfg.event_cache_capacity, 7);
    }

    #[test]
    #[should_panic(expected = "pfct")]
    fn run_validates_thresholds() {
        let db = table2();
        let _ = Miner::new(&db).min_sup(2).pfct(1.5).run();
    }
}
