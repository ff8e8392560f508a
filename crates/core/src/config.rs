//! Miner configuration and the algorithm variants of the paper's
//! experimental study (Table VII).

/// Which prunings are active — toggling these produces the ablation
/// variants `MPFCI-NoCH`, `MPFCI-NoSuper`, `MPFCI-NoSub`, `MPFCI-NoBound`.
///
/// Every pruning is *sound*: switching any of them off never changes the
/// mined result set, only the amount of work (the integration tests
/// enforce this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruningConfig {
    /// Chernoff–Hoeffding bound pruning of probabilistically infrequent
    /// candidates (Lemma 4.1).
    pub chernoff_hoeffding: bool,
    /// Superset pruning on pre-item tid-set containment (Lemma 4.2).
    pub superset: bool,
    /// Subset pruning on count-equal extensions (Lemma 4.3).
    pub subset: bool,
    /// Frequent-closed-probability bound pruning (Lemma 4.4).
    pub probability_bounds: bool,
}

impl Default for PruningConfig {
    fn default() -> Self {
        Self {
            chernoff_hoeffding: true,
            superset: true,
            subset: true,
            probability_bounds: true,
        }
    }
}

/// Search strategy of the enumeration framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategy {
    /// Depth-first search (the paper's `ProbFC`, Fig. 3).
    #[default]
    Dfs,
    /// Breadth-first (level-wise) search — `MPFCI-BFS` in Section V.D.
    /// Superset/subset prunings do not apply level-wise and are ignored.
    Bfs,
}

/// How the frequent closed probability of a surviving itemset is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FcpMethod {
    /// Exact inclusion–exclusion whenever it is cheap, Monte-Carlo
    /// `ApproxFCP` otherwise. A family of at most `exact_cap` events is
    /// always exact. A larger family is exact when walking its support
    /// lattice (the event subsets whose masks still share `min_sup`
    /// tuples, the only non-zero inclusion–exclusion terms) takes at most
    /// 1/16 of the work of the `N = ⌈4k·ln(2/δ)/ε²⌉` draws Karp–Luby
    /// would take, both counted in position steps; the walk stops at that
    /// budget and the family samples instead. Exact unions are
    /// bit-identical to [`FcpMethod::ExactOnly`]'s.
    Auto {
        /// Fan-out up to which a family is exact however many terms its
        /// lattice holds (at most
        /// [`MAX_EXACT_TERMS`](crate::events::MAX_EXACT_TERMS)).
        exact_cap: usize,
    },
    /// Always sample (`ApproxFCP`, Fig. 2) — used by the approximation-
    /// quality experiment (Fig. 11).
    ApproxOnly,
    /// Always sample, but with the Dagum–Karp–Luby–Ross *stopping rule*:
    /// the sample count adapts to the unknown union probability instead
    /// of paying the fixed `4k·ln(2/δ)/ε²` worst case. Same `(ε, δ)`
    /// guarantee whenever the estimator converges within the fixed-`N`
    /// budget (which also serves as its cap).
    ApproxAdaptive,
    /// Always inclusion–exclusion over the family's support lattice;
    /// panics past [`MAX_EXACT_TERMS`](crate::events::MAX_EXACT_TERMS)
    /// non-zero terms, however many events the family has. The
    /// deterministic mode of tests, ground truth and `pfcim stream`.
    ExactOnly,
}

impl Default for FcpMethod {
    fn default() -> Self {
        FcpMethod::Auto { exact_cap: 8 }
    }
}

/// Full miner configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MinerConfig {
    /// Minimum support threshold (absolute count, ≥ 1).
    pub min_sup: usize,
    /// Probabilistic frequent closed threshold in `[0, 1)`.
    pub pfct: f64,
    /// Relative tolerance of `ApproxFCP` (paper default 0.1).
    pub epsilon: f64,
    /// Confidence parameter of `ApproxFCP` (paper default 0.1, i.e.
    /// confidence `1 − δ = 0.9`).
    pub delta: f64,
    /// Active prunings.
    pub pruning: PruningConfig,
    /// Enumeration order.
    pub search: SearchStrategy,
    /// Probability-computation policy.
    pub fcp_method: FcpMethod,
    /// At most this many (highest-probability) non-closure events enter
    /// the `O(m²)` pairwise bound computation; the rest contribute their
    /// total mass to the upper bound soundly.
    pub max_pairwise_events: usize,
    /// Seed of the deterministic RNG driving `ApproxFCP`.
    pub seed: u64,
    /// Optional wall-clock budget; when exceeded the miner stops early
    /// and flags the outcome as timed out (used by the benchmark harness
    /// to reproduce the paper's "longer than one hour" cells).
    pub time_budget: Option<std::time::Duration>,
    /// Worker threads for the parallel phases (first-level DFS fan-out
    /// and chunked `ApproxFCP` sampling). `0` means *auto*: the
    /// `PFCIM_THREADS` environment variable when set to a positive
    /// integer, otherwise the machine's available parallelism.
    /// `threads = 1` runs the legacy sequential path byte-identically.
    pub threads: usize,
    /// Maximum tolerated *measured* absolute error of an incrementally
    /// downdated frequentness-DP row (summed per-element bounds, tracked
    /// through compensated/log-domain deconvolution). A downdate whose
    /// projected error exceeds this refuses, and the row is rebuilt from
    /// scratch. `0.0` accepts only provably exact downdates. Must be
    /// finite and non-negative; defaults to
    /// [`DEFAULT_DP_ERROR_TOL`] (`1e-9`), matching the differential
    /// proptest's downdate-vs-rebuild agreement bound.
    ///
    /// This is the *only* DP-refusal knob.
    pub dp_error_tol: f64,
}

/// Default of [`MinerConfig::dp_error_tol`]: the incremental downdate is
/// accepted when its measured error bound stays within `1e-9` — the same
/// agreement threshold the downdate-vs-rebuild property test enforces.
pub const DEFAULT_DP_ERROR_TOL: f64 = 1e-9;

impl MinerConfig {
    /// The paper's default parameterization: `ε = δ = 0.1`, all prunings
    /// on, depth-first search.
    pub fn new(min_sup: usize, pfct: f64) -> Self {
        Self {
            min_sup: min_sup.max(1),
            pfct,
            epsilon: 0.1,
            delta: 0.1,
            pruning: PruningConfig::default(),
            search: SearchStrategy::Dfs,
            fcp_method: FcpMethod::default(),
            max_pairwise_events: 48,
            seed: 0x05ee_dfc1,
            time_budget: None,
            threads: 0,
            dp_error_tol: DEFAULT_DP_ERROR_TOL,
        }
    }

    /// Set `ε` and `δ`.
    pub fn with_approximation(mut self, epsilon: f64, delta: f64) -> Self {
        self.epsilon = epsilon;
        self.delta = delta;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the probability-computation policy.
    pub fn with_fcp_method(mut self, method: FcpMethod) -> Self {
        self.fcp_method = method;
        self
    }

    /// Set a wall-clock budget after which the miner aborts (the outcome
    /// is then marked [`crate::MiningOutcome::timed_out`]).
    pub fn with_time_budget(mut self, budget: std::time::Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Set the worker-thread count (`0` = auto, see
    /// [`MinerConfig::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the measured-error tolerance of the incremental DP downdate
    /// (see [`MinerConfig::dp_error_tol`]). `0.0` accepts only provably
    /// exact downdates.
    pub fn with_dp_error_tol(mut self, dp_error_tol: f64) -> Self {
        self.dp_error_tol = dp_error_tol;
        self
    }

    /// Resolve [`MinerConfig::threads`] to a concrete worker count:
    /// an explicit positive setting wins, else the `PFCIM_THREADS`
    /// environment variable (positive integer), else the machine's
    /// available parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Ok(v) = std::env::var("PFCIM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        crate::par::available_parallelism()
    }

    /// Apply an experimental variant (Table VII).
    pub fn with_variant(mut self, variant: Variant) -> Self {
        match variant {
            Variant::Mpfci => {}
            Variant::NoCh => self.pruning.chernoff_hoeffding = false,
            Variant::NoSuper => self.pruning.superset = false,
            Variant::NoSub => self.pruning.subset = false,
            Variant::NoBound => self.pruning.probability_bounds = false,
            Variant::Bfs => {
                self.search = SearchStrategy::Bfs;
                self.pruning.superset = false;
                self.pruning.subset = false;
            }
        }
        self
    }

    /// Validate invariants; called by the miners at entry.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range thresholds.
    pub fn validate(&self) {
        assert!(self.min_sup >= 1, "min_sup must be at least 1");
        assert!((0.0..1.0).contains(&self.pfct), "pfct must lie in [0, 1)");
        assert!(self.epsilon > 0.0, "epsilon must be positive");
        assert!(
            self.delta > 0.0 && self.delta < 1.0,
            "delta must lie in (0, 1)"
        );
        assert!(
            self.dp_error_tol >= 0.0 && self.dp_error_tol.is_finite(),
            "dp_error_tol must be finite and non-negative"
        );
    }
}

/// The six algorithm variants compared in the paper's Table VII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// All prunings, depth-first search.
    Mpfci,
    /// Without Chernoff–Hoeffding pruning.
    NoCh,
    /// Without superset pruning.
    NoSuper,
    /// Without subset pruning.
    NoSub,
    /// Without probability-bound pruning.
    NoBound,
    /// Breadth-first framework (CH + probability bounds only).
    Bfs,
}

impl Variant {
    /// All variants in the paper's table order.
    pub const ALL: [Variant; 6] = [
        Variant::Mpfci,
        Variant::NoCh,
        Variant::NoSuper,
        Variant::NoSub,
        Variant::NoBound,
        Variant::Bfs,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Mpfci => "MPFCI",
            Variant::NoCh => "MPFCI-NoCH",
            Variant::NoSuper => "MPFCI-NoSuper",
            Variant::NoSub => "MPFCI-NoSub",
            Variant::NoBound => "MPFCI-NoBound",
            Variant::Bfs => "MPFCI-BFS",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_defaults() {
        let c = MinerConfig::new(2, 0.8);
        assert_eq!(c.epsilon, 0.1);
        assert_eq!(c.delta, 0.1);
        assert_eq!(c.search, SearchStrategy::Dfs);
        assert!(c.pruning.chernoff_hoeffding);
        assert!(c.pruning.superset);
        assert!(c.pruning.subset);
        assert!(c.pruning.probability_bounds);
        assert_eq!(c.dp_error_tol, DEFAULT_DP_ERROR_TOL);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "dp_error_tol")]
    fn validate_rejects_negative_dp_error_tol() {
        MinerConfig::new(2, 0.8).with_dp_error_tol(-1e-9).validate();
    }

    #[test]
    fn variants_toggle_the_right_flags() {
        let base = MinerConfig::new(2, 0.8);
        assert!(
            !base
                .clone()
                .with_variant(Variant::NoCh)
                .pruning
                .chernoff_hoeffding
        );
        assert!(!base.clone().with_variant(Variant::NoSuper).pruning.superset);
        assert!(!base.clone().with_variant(Variant::NoSub).pruning.subset);
        assert!(
            !base
                .clone()
                .with_variant(Variant::NoBound)
                .pruning
                .probability_bounds
        );
        let bfs = base.with_variant(Variant::Bfs);
        assert_eq!(bfs.search, SearchStrategy::Bfs);
        assert!(!bfs.pruning.superset && !bfs.pruning.subset);
        assert!(bfs.pruning.chernoff_hoeffding && bfs.pruning.probability_bounds);
    }

    #[test]
    fn min_sup_zero_is_lifted_to_one() {
        assert_eq!(MinerConfig::new(0, 0.5).min_sup, 1);
    }

    #[test]
    fn variant_names_match_table_vii() {
        let names: Vec<&str> = Variant::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(
            names,
            [
                "MPFCI",
                "MPFCI-NoCH",
                "MPFCI-NoSuper",
                "MPFCI-NoSub",
                "MPFCI-NoBound",
                "MPFCI-BFS"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "pfct")]
    fn validate_rejects_pfct_one() {
        MinerConfig::new(2, 1.0).validate();
    }

    #[test]
    fn threads_default_to_auto_and_builder_overrides() {
        let c = MinerConfig::new(2, 0.8);
        assert_eq!(c.threads, 0);
        assert!(c.effective_threads() >= 1);
        let c = c.with_threads(3);
        assert_eq!(c.threads, 3);
        assert_eq!(c.effective_threads(), 3);
    }
}
