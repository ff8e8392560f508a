//! The Poisson–binomial distribution: the law of the number of successes in
//! independent, non-identically distributed Bernoulli trials.
//!
//! Under the tuple-uncertainty model, the support of an itemset `X` is
//! exactly Poisson–binomially distributed over the existence probabilities
//! of the transactions containing `X`. The *frequent probability*
//! `Pr_F(X) = Pr{ sup(X) ≥ min_sup }` is a tail of this distribution, and
//! the classic dynamic program of Bernecker et al. / Sun et al. computes it
//! in `O(n · min_sup)` time.

/// The exact distribution of a sum of independent Bernoulli variables.
///
/// Stores the full probability mass function, which costs `O(n²)` to build.
/// For the tail alone use [`tail_at_least`], which caps the DP at the
/// threshold and runs in `O(n · k)`.
///
/// # Examples
///
/// ```
/// use prob::SupportDistribution;
/// // Two fair coins: Pr{sum = 1} = 1/2, Pr{sum >= 1} = 3/4.
/// let d = SupportDistribution::new(&[0.5, 0.5]);
/// assert!((d.pmf(1) - 0.5).abs() < 1e-12);
/// assert!((d.tail(1) - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SupportDistribution {
    pmf: Vec<f64>,
}

impl SupportDistribution {
    /// Build the full PMF from per-trial success probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any probability lies outside `[0, 1]`.
    pub fn new(probs: &[f64]) -> Self {
        for &p in probs {
            assert!(
                (0.0..=1.0).contains(&p),
                "Bernoulli probability {p} outside [0, 1]"
            );
        }
        let mut pmf = vec![0.0f64; probs.len() + 1];
        pmf[0] = 1.0;
        for (i, &p) in probs.iter().enumerate() {
            // Process counts descending so each trial is used exactly once.
            for j in (0..=i).rev() {
                pmf[j + 1] += pmf[j] * p;
                pmf[j] *= 1.0 - p;
            }
        }
        Self { pmf }
    }

    /// Number of trials `n`.
    pub fn trials(&self) -> usize {
        self.pmf.len() - 1
    }

    /// `Pr{ S = j }`; zero for `j > n`.
    pub fn pmf(&self, j: usize) -> f64 {
        self.pmf.get(j).copied().unwrap_or(0.0)
    }

    /// `Pr{ S ≥ j }`; one for `j = 0`, zero for `j > n`.
    pub fn tail(&self, j: usize) -> f64 {
        if j == 0 {
            return 1.0;
        }
        crate::clamp_prob(self.pmf.iter().skip(j).sum())
    }

    /// `Pr{ S ≤ j }`.
    pub fn cdf(&self, j: usize) -> f64 {
        crate::clamp_prob(self.pmf.iter().take(j + 1).sum())
    }

    /// The mean `Σ p_i` recovered from the PMF.
    pub fn mean(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(j, &p)| j as f64 * p)
            .sum()
    }

    /// Full PMF as a slice, indexed by success count.
    pub fn as_slice(&self) -> &[f64] {
        &self.pmf
    }

    /// Incorporate one more Bernoulli trial in `O(n)` — incremental
    /// support-distribution maintenance as an itemset's tid-set grows.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies outside `[0, 1]`.
    pub fn push(&mut self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "Bernoulli probability {p} outside [0, 1]"
        );
        let n = self.pmf.len();
        self.pmf.push(0.0);
        for j in (0..n).rev() {
            self.pmf[j + 1] += self.pmf[j] * p;
            self.pmf[j] *= 1.0 - p;
        }
    }
}

/// `Pr{ S ≥ k }` for `S` the sum of independent Bernoulli trials with the
/// given success probabilities, via the threshold-capped dynamic program.
///
/// Runs in `O(n · min(k, n))` time and `O(min(k, n))` space. This is the
/// polynomial-time frequent-probability routine the paper builds on
/// (Definition 3.4); state `k` of the DP is absorbing ("already ≥ k").
///
/// # Examples
///
/// ```
/// use prob::poisson_binomial::tail_at_least;
/// // Paper running example, itemset {a,b,c,d} ⊆ T1, T4 with probs .9, .9:
/// // Pr{sup ≥ 2} = 0.81.
/// assert!((tail_at_least(&[0.9, 0.9], 2) - 0.81).abs() < 1e-12);
/// ```
pub fn tail_at_least(probs: &[f64], k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if k > probs.len() {
        return 0.0;
    }
    let mut buf = vec![0.0f64; k + 1];
    tail_at_least_with(probs, k, &mut buf)
}

/// As [`tail_at_least`], but reusing a caller-provided scratch buffer of
/// length at least `k + 1` to avoid per-call allocation in hot loops.
pub fn tail_at_least_with(probs: &[f64], k: usize, scratch: &mut [f64]) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if k > probs.len() {
        return 0.0;
    }
    let f = &mut scratch[..=k];
    f.fill(0.0);
    f[0] = 1.0;
    // Highest non-absorbing state occupied before the current trial; caps
    // the inner loop while fewer than `k` trials have been processed.
    let mut hi = 0usize;
    for &p in probs {
        let q = 1.0 - p;
        if hi >= k - 1 {
            // Absorbing transition into "support already ≥ k".
            f[k] += f[k - 1] * p;
        }
        let top = (hi + 1).min(k - 1);
        for j in (1..=top).rev() {
            f[j] = f[j] * q + f[j - 1] * p;
        }
        f[0] *= q;
        if hi < k {
            hi += 1;
        }
    }
    crate::clamp_prob(f[k])
}

/// Expected value `Σ p_i` of the Poisson–binomial sum — the *expected
/// support* of the itemset in the expected-support model of Chui et al.
pub fn expected_value(probs: &[f64]) -> f64 {
    probs.iter().sum()
}

/// Entries this far below zero are treated as rounding noise and clamped;
/// anything lower fails a [`TailDp::try_remove`] downdate.
const DOWNDATE_NEG_TOL: f64 = 1e-9;

/// Why a [`TailDp::try_remove`] downdate was refused.
///
/// Each variant names the guard that fired, in the order the guards are
/// checked; the magnitude-carrying variants record *how far* past the
/// guard the request was, so callers can histogram near-misses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RemovalRefusal {
    /// The row has zero trials absorbed; there is nothing to remove.
    Empty,
    /// `q = 1 − p` is below machine epsilon: the deconvolution would
    /// divide by (effectively) zero.
    Degenerate,
    /// The *measured* error bound of the downdated row exceeds the
    /// caller's tolerance, even after the log-domain fallback — a
    /// per-element accounting of rounding at the magnitudes actually
    /// encountered, not an a-priori `(p/q)^(k−1)` worst case.
    ErrTol {
        /// The projected absolute error of the downdated tail (the
        /// per-element bounds summed); compare against the `tol` the
        /// caller passed to [`TailDp::try_remove`]. When the fallback
        /// bails out early — the partial sum alone already exceeds the
        /// tolerance — this is a lower bound on the full total (still
        /// strictly above `tol`, which is all a refusal asserts).
        measured: f64,
    },
    /// A recovered head entry fell outside `[0, 1]` beyond rounding
    /// tolerance plus its tracked error bound, or the recovered head
    /// mass exceeded one.
    RowValidation {
        /// How far outside the valid range the worst entry (or the head
        /// sum) landed; always positive.
        violation: f64,
    },
}

impl RemovalRefusal {
    /// Stable machine-readable name of the refusal class.
    pub fn reason(&self) -> &'static str {
        match self {
            RemovalRefusal::Empty => "empty",
            RemovalRefusal::Degenerate => "degenerate",
            RemovalRefusal::ErrTol { .. } => "err_tol",
            RemovalRefusal::RowValidation { .. } => "row_validation",
        }
    }

    /// The refusal's magnitude, when the class carries one: the measured
    /// error bound for [`RemovalRefusal::ErrTol`], range excess for
    /// [`RemovalRefusal::RowValidation`].
    pub fn magnitude(&self) -> Option<f64> {
        match self {
            RemovalRefusal::ErrTol { measured } => Some(*measured),
            RemovalRefusal::RowValidation { violation } => Some(*violation),
            RemovalRefusal::Empty | RemovalRefusal::Degenerate => None,
        }
    }
}

/// An incrementally maintainable threshold DP for
/// `Pr{ S ≥ k }`: the *truncated head* `Pr{ S = j }` for `j < k` of a
/// Poisson–binomial sum, with the tail recovered as `1 − Σ head`.
///
/// Unlike the absorbing-state DP of [`tail_at_least`], this
/// representation is *invertible*: a Bernoulli trial can be divided back
/// out ([`TailDp::try_remove`]) because no mass was collapsed into an
/// absorbing "already ≥ k" state. That is what lets a depth-first miner
/// derive a child node's frequentness DP from its parent's in
/// `O(d · k)` for `d` dropped transactions instead of `O(n · k)` from
/// scratch.
///
/// # Numerical stability
///
/// Removal runs the forward deconvolution `f[j] = (g[j] − f[j−1]·p) / q`
/// with `q = 1 − p`, whose rounding error is amplified by up to
/// `(p/q)^(k−1)` across the row *in the worst case*. Rather than refuse
/// on that a-priori bound, the row tracks a per-element error bound
/// (maintained through [`TailDp::push`] and every accepted removal) at
/// the magnitudes actually encountered. The removal is computed with
/// compensated (Neumaier) accumulation into a staging buffer; when the
/// projected error still exceeds the caller's `tol` and `p > q`, the
/// risky elements are recomputed by log-domain deconvolution (the
/// explicit alternating series, max-rescaled and Kahan-summed), which
/// survives amplification factors far beyond `f64` range and measures
/// the true term magnitudes. Only if the measured bound *still* exceeds
/// `tol` is the removal refused. On a refused removal the row is
/// untouched (commit-on-success); the caller may keep using it or
/// rebuild.
///
/// # Examples
///
/// ```
/// use prob::poisson_binomial::TailDp;
/// let mut dp = TailDp::new(2);
/// for p in [0.9, 0.6, 0.7, 0.9] {
///     dp.push(p);
/// }
/// assert!((dp.tail() - 0.9726).abs() < 1e-12);
/// // Divide the 0.6 trial back out: Pr{sup ≥ 2} of {0.9, 0.7, 0.9}.
/// assert!(dp.try_remove(0.6, 1e-9));
/// let direct = prob::poisson_binomial::tail_at_least(&[0.9, 0.7, 0.9], 2);
/// assert!((dp.tail() - direct).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct TailDp {
    /// `head[j] = Pr{ S = j }` for `j < k`.
    head: Vec<f64>,
    /// Per-element upper bound on `|head[j] − exact|`. Maintained
    /// explicitly only once a removal has touched the row
    /// (`err_tracked`); pure push chains carry the closed-form relative
    /// bound `2·(trials+1)·ε·head[j]` implicitly instead, so the hot
    /// build path pays nothing for error accounting.
    err: Vec<f64>,
    /// Whether `err` is explicitly maintained. `false` means the row is
    /// a pure push chain and `err` is all zeros; the implicit bound is
    /// materialized by the first removal attempt.
    err_tracked: bool,
    k: usize,
    trials: usize,
    removals: u32,
    /// The absorbing "already ≥ k" state of [`tail_at_least_with`],
    /// accumulated by the same operations while the row is a pure push
    /// chain (`removals == 0`); see [`TailDp::fresh_tail`].
    absorbed: f64,
    /// Staging buffers for the commit-on-success downdate; contents are
    /// meaningless between calls and excluded from `Clone`/`PartialEq`.
    scratch: Vec<f64>,
    scratch_err: Vec<f64>,
    /// Per-removal cache of `ln(head[i]) − ln(q)` (NaN for zero entries),
    /// shared by every risky element the log-domain fallback recomputes.
    scratch_ln: Vec<f64>,
}

impl Clone for TailDp {
    fn clone(&self) -> Self {
        Self {
            head: self.head.clone(),
            err: self.err.clone(),
            err_tracked: self.err_tracked,
            k: self.k,
            trials: self.trials,
            removals: self.removals,
            absorbed: self.absorbed,
            // Staging state is per-call scratch; clones start cold.
            scratch: Vec::new(),
            scratch_err: Vec::new(),
            scratch_ln: Vec::new(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.head.clone_from(&source.head);
        self.err.clone_from(&source.err);
        self.err_tracked = source.err_tracked;
        self.k = source.k;
        self.trials = source.trials;
        self.removals = source.removals;
        self.absorbed = source.absorbed;
    }
}

impl PartialEq for TailDp {
    /// Semantic equality: the distribution row and its bookkeeping; error
    /// bounds and staging buffers are excluded.
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k
            && self.trials == other.trials
            && self.removals == other.removals
            && self.head == other.head
    }
}

impl TailDp {
    /// An empty row (zero trials) for threshold `k`.
    pub fn new(k: usize) -> Self {
        let mut head = vec![0.0; k];
        if let Some(first) = head.first_mut() {
            *first = 1.0;
        }
        Self {
            head,
            err: vec![0.0; k],
            err_tracked: false,
            k,
            trials: 0,
            removals: 0,
            absorbed: 0.0,
            scratch: Vec::new(),
            scratch_err: Vec::new(),
            scratch_ln: Vec::new(),
        }
    }

    /// Build the row from per-trial probabilities.
    pub fn from_probs<I: IntoIterator<Item = f64>>(k: usize, probs: I) -> Self {
        let mut dp = Self::new(k);
        for p in probs {
            dp.push(p);
        }
        dp
    }

    /// Reset to zero trials and re-absorb `probs` — the full-recompute
    /// fallback, reusing the allocation.
    pub fn rebuild<I: IntoIterator<Item = f64>>(&mut self, probs: I) {
        self.head.fill(0.0);
        if let Some(first) = self.head.first_mut() {
            *first = 1.0;
        }
        self.err.fill(0.0);
        self.err_tracked = false;
        self.trials = 0;
        self.removals = 0;
        self.absorbed = 0.0;
        for p in probs {
            self.push(p);
        }
    }

    /// The threshold `k` this row was built for.
    pub fn threshold(&self) -> usize {
        self.k
    }

    /// Number of Bernoulli trials currently absorbed.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Downdates applied since the last rebuild — callers bound this to
    /// keep accumulated rounding drift negligible.
    pub fn removals(&self) -> u32 {
        self.removals
    }

    /// The truncated head `Pr{ S = j }` for `j < k`.
    pub fn head(&self) -> &[f64] {
        &self.head
    }

    /// Upper bound on the absolute error of [`TailDp::tail`] accumulated
    /// by pushes and accepted downdates — the measured quantity that
    /// [`TailDp::try_remove`]'s `tol` is compared against.
    pub fn error_bound(&self) -> f64 {
        if self.err_tracked {
            self.err.iter().sum()
        } else {
            self.implicit_err_scale() * self.head.iter().map(|h| h.abs()).sum::<f64>()
        }
    }

    /// Per-element error bounds on `|head[j] − exact|`, aligned with
    /// [`TailDp::head`]. Materializes the closed-form push-chain bound
    /// if no removal has touched the row yet.
    pub fn element_errors(&mut self) -> &[f64] {
        self.materialize_err();
        &self.err
    }

    /// Absorb one more Bernoulli trial in `O(min(trials, k))`.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies outside `[0, 1]`.
    pub fn push(&mut self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "Bernoulli probability {p} outside [0, 1]"
        );
        if self.k > 0 {
            let q = 1.0 - p;
            if self.removals == 0 && self.trials + 1 >= self.k {
                // The absorbing transition of `tail_at_least_with`, read
                // before this trial updates `head[k−1]`.
                self.absorbed += self.head[self.k - 1] * p;
            }
            // Occupancy before this trial is min(trials, k-1); one trial
            // can raise it by one.
            let top = (self.trials + 1).min(self.k - 1);
            if self.err_tracked {
                // A removal has touched the row: maintain the explicit
                // bounds. The convex combination mixes the inherited
                // bounds the same way, plus ~2 ulps of rounding at the
                // result's own magnitude (so exactly-zero entries stay
                // exactly zero).
                for j in (1..=top).rev() {
                    let h = self.head[j] * q + self.head[j - 1] * p;
                    self.err[j] = self.err[j] * q + self.err[j - 1] * p + 2.0 * f64::EPSILON * h;
                    self.head[j] = h;
                }
                self.head[0] *= q;
                self.err[0] = self.err[0] * q + f64::EPSILON * self.head[0];
            } else {
                // Pure push chain: the error is bounded in closed form by
                // `2·(trials+1)·ε·head[j]` (each push adds ≤ 2 ulps at the
                // element's own magnitude and mixes bounds convexly), so
                // the hot build path skips explicit accounting entirely —
                // [`TailDp::implicit_err_scale`] recovers the bound when a
                // removal first needs it.
                for j in (1..=top).rev() {
                    self.head[j] = self.head[j] * q + self.head[j - 1] * p;
                }
                self.head[0] *= q;
            }
        }
        self.trials += 1;
    }

    /// Per-element relative error factor of a pure push chain: each of
    /// the `trials` convolution steps contributes at most 2 ulps at the
    /// element's own magnitude, mixed convexly (the `+1` absorbs the
    /// O(ε²) cross terms conservatively). Only meaningful while
    /// `err_tracked` is `false`.
    fn implicit_err_scale(&self) -> f64 {
        2.0 * (self.trials as f64 + 1.0) * f64::EPSILON
    }

    /// Switch the row from the implicit closed-form bound to explicit
    /// per-element tracking (idempotent; called by the first removal).
    fn materialize_err(&mut self) {
        if self.err_tracked {
            return;
        }
        let scale = self.implicit_err_scale();
        for (e, h) in self.err.iter_mut().zip(&self.head) {
            *e = scale * h.abs();
        }
        self.err_tracked = true;
    }

    /// Divide one Bernoulli trial back out of the row in `O(k)` (plus an
    /// `O(k²)` log-domain pass for elements the plain sweep cannot
    /// certify within `tol`).
    ///
    /// Returns `false` — leaving the row *untouched* — when the measured
    /// error bound of the downdated row would exceed `tol`, when
    /// `q = 1 − p` is degenerate, or when the recovered row fails
    /// validation (an entry outside `[0, 1]` beyond rounding tolerance).
    /// The trial must be one that was previously absorbed; removing
    /// anything else yields a row for "some" trial multiset only if
    /// validation happens to pass.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies outside `[0, 1]`.
    pub fn try_remove(&mut self, p: f64, tol: f64) -> bool {
        self.try_remove_explained(p, tol).is_ok()
    }

    /// As [`TailDp::try_remove`], but a refusal reports *which* guard
    /// fired (and by how much) as a [`RemovalRefusal`]. On `Err` the row
    /// is untouched — the downdate is staged in scratch buffers and only
    /// committed on success.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies outside `[0, 1]`.
    pub fn try_remove_explained(&mut self, p: f64, tol: f64) -> Result<(), RemovalRefusal> {
        assert!(
            (0.0..=1.0).contains(&p),
            "Bernoulli probability {p} outside [0, 1]"
        );
        if self.trials == 0 {
            return Err(RemovalRefusal::Empty);
        }
        if self.k == 0 {
            self.trials -= 1;
            self.removals += 1;
            return Ok(());
        }
        let q = 1.0 - p;
        if q < f64::EPSILON {
            return Err(RemovalRefusal::Degenerate);
        }
        // From here on the row needs per-element bounds: convert the
        // implicit push-chain bound into the explicit vector (a no-op on
        // rows a removal has already touched; semantically neutral even
        // if this attempt ends up refused).
        self.materialize_err();
        let inv_q = 1.0 / q;
        let eps = f64::EPSILON;

        // Stage the candidate row in the scratch buffers; `head`/`err`
        // stay authoritative until the whole downdate is accepted.
        self.scratch.resize(self.k, 0.0);
        self.scratch_err.resize(self.k, 0.0);

        // Plain pass — compensated forward deconvolution. `g = push(f, p)`
        // inverts to `f[j] = (g[j] − f[j−1]·p) / q`, ascending. A Neumaier
        // two-sum keeps the residual of the cancellation-prone subtraction
        // and carries it (scaled) into the next step, while `scratch_err`
        // accumulates an upper bound on each element's absolute error from
        // the operand magnitudes actually encountered.
        let mut prev = 0.0f64; // f[j−1]
        let mut carry = 0.0f64; // compensation on prev
        let mut prev_err = 0.0f64;
        for j in 0..self.k {
            let g = self.head[j];
            let t = p * prev;
            let tc = p * carry;
            // Two-sum: s + e == g − t exactly.
            let s = g - t;
            let e = if g.abs() >= t.abs() {
                (g - s) - t
            } else {
                (-t - s) + g
            };
            let c2 = e - tc;
            let num = s + c2;
            let r2 = if s.abs() >= c2.abs() {
                (s - num) + c2
            } else {
                (c2 - num) + s
            };
            let f = num * inv_q;
            carry = r2 * inv_q;
            // Inherited error amplified by the recurrence, plus local
            // rounding at the actual magnitudes (conservative: the
            // compensation above typically does better).
            let err_j =
                (self.err[j] + p * prev_err) * inv_q + eps * (t.abs() * inv_q + 2.0 * f.abs());
            self.scratch[j] = f;
            self.scratch_err[j] = err_j;
            prev = f;
            prev_err = err_j;
        }

        let ratio = p * inv_q;
        let mut total_err: f64 = self.scratch_err.iter().sum();
        if !total_err.is_finite() {
            // Overflow/NaN from extreme amplification must read as "error
            // too large", never as "fits".
            total_err = f64::MAX;
        }
        if total_err > tol && ratio > 1.0 {
            // Log-domain fallback for the risky tail. The plain sweep's
            // bound compounds through its own intermediates; the explicit
            // alternating series
            //   f[j] = Σ_{i≤j} (−1)^{j−i} · r^{j−i} · g[i] / q
            // computes each element directly from the (clean) head, in
            // log space so amplification factors beyond f64 range neither
            // overflow nor hide the true term magnitudes. Elements the
            // plain pass already certified within their share of `tol`
            // keep their values ("stable head"); only the risky ones are
            // recomputed.
            let budget = tol / self.k as f64;
            let ln_r = ratio.ln();
            let ln_q = q.ln();
            // Log-head cache shared by every risky element this removal
            // recomputes: `ln(head[i]) − ln(q)` for positive entries, NaN
            // for zeros (which contribute nothing to the series). `lo` is
            // the first nonzero entry, bounding every inner sweep.
            self.scratch_ln.resize(self.k, f64::NAN);
            let mut lo = self.k;
            for i in 0..self.k {
                let g = self.head[i];
                self.scratch_ln[i] = if g > 0.0 {
                    if lo == self.k {
                        lo = i;
                    }
                    g.ln() - ln_q
                } else {
                    f64::NAN
                };
            }
            // `committed` is the partial sum of *final* per-element bounds
            // in ascending `j` (kept-stable elements keep the plain pass's
            // bound, risky ones their recomputed bound). Every bound is
            // nonnegative, so the moment it exceeds `tol` no completion of
            // the remaining elements can rescue the removal — refuse with
            // the partial sum as the (lower-bound) measurement instead of
            // paying the O(k) series for every remaining risky element.
            let mut committed = 0.0f64;
            for j in 0..self.k {
                if self.scratch_err[j] > budget {
                    // Each g[i] feeds f[j] with weight r^(j−i)/q, so the
                    // row's tracked input errors amplify with the same
                    // weights. Sweep `i` descending with an incrementally
                    // maintained weight (no `powi` per term); the partial
                    // sum is monotone, so crossing `tol` mid-loop already
                    // decides refusal, and zero entries are skipped so an
                    // overflowed weight never manufactures a NaN.
                    let mut inherited = 0.0f64;
                    let mut weight = inv_q;
                    for i in (0..=j).rev() {
                        let e = self.err[i];
                        if e > 0.0 {
                            inherited += e * weight;
                            if inherited > tol {
                                break;
                            }
                        }
                        weight *= ratio;
                    }
                    if inherited > tol {
                        return Err(RemovalRefusal::ErrTol {
                            measured: committed + inherited,
                        });
                    }
                    // `lo..=j` is empty when every entry up to `j` is zero.
                    let mut m = f64::NEG_INFINITY;
                    for i in lo..=j {
                        let l = (j - i) as f64 * ln_r + self.scratch_ln[i];
                        // NaN (zero head entry) compares false and skips.
                        if l > m {
                            m = l;
                        }
                    }
                    let (f, local) = if m == f64::NEG_INFINITY {
                        // Every contributing head entry is exactly zero, so
                        // the recovered element is exactly zero too.
                        (0.0, 0.0)
                    } else if m > 700.0 {
                        // The largest term exceeds ~1e304 while the result is
                        // a probability: cancellation beyond measurement.
                        (0.0, f64::MAX)
                    } else {
                        // Max-rescaled, Kahan-summed evaluation; the measured
                        // bound charges each term its log-space rounding at
                        // the term's actual magnitude.
                        let scale = m.exp();
                        let mut sum = 0.0f64;
                        let mut comp = 0.0f64;
                        let mut weighted = 0.0f64;
                        for i in lo..=j {
                            let lg = self.scratch_ln[i];
                            if lg.is_nan() {
                                continue;
                            }
                            let l = (j - i) as f64 * ln_r + lg;
                            let mag = (l - m).exp();
                            let term = if (j - i) % 2 == 0 { mag } else { -mag };
                            let t2 = sum + term;
                            comp += if sum.abs() >= term.abs() {
                                (sum - t2) + term
                            } else {
                                (term - t2) + sum
                            };
                            sum = t2;
                            weighted += mag * (l.abs() + 4.0);
                        }
                        ((sum + comp) * scale, eps * weighted * scale)
                    };
                    self.scratch[j] = f;
                    self.scratch_err[j] = inherited + local;
                }
                committed += self.scratch_err[j];
                if committed > tol {
                    return Err(RemovalRefusal::ErrTol {
                        measured: committed,
                    });
                }
            }
            // The loop summed every final element bound, so the committed
            // partial sum *is* the total (a NaN anywhere poisons it and
            // must read as "error too large", never as "fits").
            total_err = committed;
            if !total_err.is_finite() {
                total_err = f64::MAX;
            }
        }

        if total_err > tol {
            return Err(RemovalRefusal::ErrTol {
                measured: total_err,
            });
        }

        // Validate and clamp the staged row, then commit it atomically.
        let mut sum = 0.0f64;
        for j in 0..self.k {
            let f = self.scratch[j];
            let slack = DOWNDATE_NEG_TOL + self.scratch_err[j];
            if !(-slack..=1.0 + slack).contains(&f) {
                return Err(RemovalRefusal::RowValidation {
                    violation: (-f).max(f - 1.0).max(0.0),
                });
            }
            let f = f.clamp(0.0, 1.0);
            self.scratch[j] = f;
            sum += f;
        }
        if sum > 1.0 + DOWNDATE_NEG_TOL + total_err {
            return Err(RemovalRefusal::RowValidation {
                violation: sum - 1.0,
            });
        }
        std::mem::swap(&mut self.head, &mut self.scratch);
        std::mem::swap(&mut self.err, &mut self.scratch_err);
        self.trials -= 1;
        self.removals += 1;
        Ok(())
    }

    /// What [`tail_at_least_with`] returns for the absorbed trials, in
    /// the order they were pushed, bit for bit; `None` once a removal has
    /// touched the row (until [`TailDp::rebuild`]). The two DPs share the
    /// head recurrence operation for operation, and the row keeps the
    /// absorbing state alongside it, so a caller that needs both the row
    /// and the absorbing-state tail builds the row once.
    pub fn fresh_tail(&self) -> Option<f64> {
        if self.removals > 0 {
            return None;
        }
        Some(if self.k == 0 {
            1.0
        } else {
            crate::clamp_prob(self.absorbed)
        })
    }

    /// A certificate that dividing `dropped` out of the row, in order,
    /// would be refused: `Some(bound)` when a lower bound on the error
    /// [`TailDp::try_remove_explained`] would measure at some removal of
    /// the chain exceeds `tol`, so that removal or an earlier one fails.
    /// `None` promises nothing. `scratch` holds the bound vector.
    ///
    /// The bound starts from the row's per-element error bounds (the
    /// explicit ones, or the implicit push-chain bound) and propagates only
    /// the inherited term of the plain pass through each removal,
    /// `E_j ← (E_j + p·E_{j−1}) / q` for ascending `j`. The plain pass adds
    /// nonnegative local rounding to exactly this term, and the log-domain
    /// fallback's inherited sum is the same quantity in closed form, so
    /// every element bound the removal can measure is at least `E_j`, up
    /// to the rounding of the two evaluation orders; a relative margin of
    /// `(8k + 16)·ε` per removal covers that. The sum exits as soon as it
    /// fires. A degenerate or empty step ends the chain uncertified,
    /// leaving its refusal to the real downdate.
    pub fn refusal_certificate(
        &self,
        dropped: &[f64],
        tol: f64,
        scratch: &mut Vec<f64>,
    ) -> Option<f64> {
        if self.k == 0 {
            return None;
        }
        scratch.clear();
        if self.err_tracked {
            scratch.extend_from_slice(&self.err);
        } else {
            let scale = self.implicit_err_scale();
            scratch.extend(self.head.iter().map(|h| scale * h.abs()));
        }
        let margin_step = (8.0 * self.k as f64 + 16.0) * f64::EPSILON;
        for (step, &p) in dropped.iter().take(self.trials).enumerate() {
            let q = 1.0 - p;
            if q < f64::EPSILON {
                return None;
            }
            let inv_q = 1.0 / q;
            let slack = 1.0 - (step + 1) as f64 * margin_step;
            let mut prev = 0.0f64;
            let mut sum = 0.0f64;
            for e in scratch.iter_mut() {
                // The plain pass's inherited term, operation for operation.
                let inherited = (*e + p * prev) * inv_q;
                *e = inherited;
                prev = inherited;
                sum += inherited;
                if sum * slack > tol {
                    return Some(sum * slack);
                }
            }
        }
        None
    }

    /// `Pr{ S ≥ k }` for the currently absorbed trials.
    pub fn tail(&self) -> f64 {
        if self.k == 0 {
            return 1.0;
        }
        if self.trials < self.k {
            return 0.0;
        }
        crate::clamp_prob(1.0 - self.head.iter().sum::<f64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force tail by enumerating all 2^n outcomes.
    fn brute_tail(probs: &[f64], k: usize) -> f64 {
        let n = probs.len();
        let mut total = 0.0;
        for mask in 0u32..(1 << n) {
            let mut p = 1.0;
            let mut successes = 0usize;
            for (i, &pi) in probs.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    p *= pi;
                    successes += 1;
                } else {
                    p *= 1.0 - pi;
                }
            }
            if successes >= k {
                total += p;
            }
        }
        total
    }

    #[test]
    fn pmf_matches_binomial_for_identical_probs() {
        let d = SupportDistribution::new(&[0.5; 4]);
        let expected = [1.0, 4.0, 6.0, 4.0, 1.0].map(|c| c / 16.0);
        for (j, &e) in expected.iter().enumerate() {
            assert!((d.pmf(j) - e).abs() < 1e-12, "pmf({j})");
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let d = SupportDistribution::new(&[0.9, 0.6, 0.7, 0.9, 0.4, 0.4]);
        let sum: f64 = d.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_equals_sum_of_probs() {
        let probs = [0.9, 0.6, 0.7, 0.9];
        let d = SupportDistribution::new(&probs);
        assert!((d.mean() - 3.1).abs() < 1e-12);
    }

    #[test]
    fn tail_agrees_with_pmf_sums() {
        let probs = [0.9, 0.6, 0.7, 0.9];
        let d = SupportDistribution::new(&probs);
        for k in 0..=5 {
            assert!(
                (d.tail(k) - tail_at_least(&probs, k)).abs() < 1e-12,
                "k={k}"
            );
        }
    }

    #[test]
    fn tail_matches_brute_force() {
        let probs = [0.9, 0.6, 0.7, 0.9, 0.15, 0.33, 0.5];
        for k in 0..=8 {
            let fast = tail_at_least(&probs, k);
            let brute = brute_tail(&probs, k);
            assert!((fast - brute).abs() < 1e-10, "k={k}: {fast} vs {brute}");
        }
    }

    #[test]
    fn paper_running_example_abcd() {
        // {abcd} is contained in T1 (0.9) and T4 (0.9); Pr{sup >= 2} = 0.81.
        assert!((tail_at_least(&[0.9, 0.9], 2) - 0.81).abs() < 1e-12);
    }

    #[test]
    fn paper_running_example_abc() {
        // {abc} is contained in T1..T4 with probs .9 .6 .7 .9;
        // Pr{sup >= 2} = 1 - Pr{0} - Pr{1} = 0.9726 (hand computation in
        // the paper's Example 1.2 working).
        let t = tail_at_least(&[0.9, 0.6, 0.7, 0.9], 2);
        assert!((t - 0.9726).abs() < 1e-12, "{t}");
    }

    #[test]
    fn tail_edge_cases() {
        assert_eq!(tail_at_least(&[], 0), 1.0);
        assert_eq!(tail_at_least(&[], 1), 0.0);
        assert_eq!(tail_at_least(&[0.4], 2), 0.0);
        assert_eq!(tail_at_least(&[0.0, 0.0], 1), 0.0);
        assert_eq!(tail_at_least(&[1.0, 1.0], 2), 1.0);
    }

    #[test]
    fn tail_is_monotone_in_k() {
        let probs = [0.2, 0.8, 0.55, 0.31, 0.99];
        let mut prev = 1.0;
        for k in 0..=6 {
            let t = tail_at_least(&probs, k);
            assert!(t <= prev + 1e-12, "tail must not increase with k");
            prev = t;
        }
    }

    #[test]
    fn scratch_variant_matches() {
        let probs = [0.2, 0.8, 0.55, 0.31, 0.99, 0.42];
        let mut scratch = vec![0.0; 8];
        for k in 1..=6 {
            let a = tail_at_least(&probs, k);
            let b = tail_at_least_with(&probs, k, &mut scratch);
            assert!((a - b).abs() < 1e-15, "k={k}");
        }
    }

    #[test]
    fn push_matches_batch_construction() {
        let probs = [0.9, 0.6, 0.7, 0.9, 0.2];
        let mut incremental = SupportDistribution::new(&[]);
        for &p in &probs {
            incremental.push(p);
        }
        let batch = SupportDistribution::new(&probs);
        assert_eq!(incremental.trials(), batch.trials());
        for (a, b) in incremental.as_slice().iter().zip(batch.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn push_keeps_pmf_normalized() {
        let mut d = SupportDistribution::new(&[0.5]);
        d.push(0.25);
        d.push(1.0);
        let sum: f64 = d.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // The certain trial shifts all mass up by one.
        assert_eq!(d.pmf(0), 0.0);
    }

    #[test]
    fn tail_dp_matches_capped_dp_as_trials_accrue() {
        let probs = [0.9, 0.6, 0.7, 0.9, 0.15, 0.33, 0.5];
        for k in 0..=5 {
            let mut dp = TailDp::new(k);
            for (i, &p) in probs.iter().enumerate() {
                dp.push(p);
                let direct = tail_at_least(&probs[..=i], k);
                assert!(
                    (dp.tail() - direct).abs() < 1e-12,
                    "k={k} n={}: {} vs {direct}",
                    i + 1,
                    dp.tail()
                );
            }
            assert_eq!(dp.trials(), probs.len());
        }
    }

    #[test]
    fn tail_dp_remove_inverts_push() {
        let probs = [0.4, 0.25, 0.5, 0.1, 0.45];
        for k in 1..=4 {
            let mut dp = TailDp::from_probs(k, probs.iter().copied());
            // Remove in a different order than insertion.
            assert!(dp.try_remove(0.5, 1e-9));
            assert!(dp.try_remove(0.4, 1e-9));
            let direct = tail_at_least(&[0.25, 0.1, 0.45], k);
            assert!(
                (dp.tail() - direct).abs() < 1e-10,
                "k={k}: {} vs {direct}",
                dp.tail()
            );
            assert_eq!(dp.trials(), 3);
            assert_eq!(dp.removals(), 2);
        }
    }

    #[test]
    fn tail_dp_measured_tolerance_gates_removals() {
        // q below machine epsilon is degenerate no matter the tolerance.
        let mut dp = TailDp::from_probs(2, [1.0, 0.5, 0.5]);
        assert!(!dp.try_remove(1.0, 1.0));
        // The old a-priori cutoff refused this downdate outright
        // ((p/q)^(k−1) = 9^19 amplification); the measured bound sees the
        // head mass decay outpaces the amplification and accepts it.
        let probs = vec![0.9; 30];
        let mut wide = TailDp::from_probs(20, probs.iter().copied());
        assert!(wide.try_remove(0.9, 1e-9), "measured error fits 1e-9");
        let direct = tail_at_least(&[0.9; 29], 20);
        assert!(
            (wide.tail() - direct).abs() < 1e-9,
            "{} vs {direct}",
            wide.tail()
        );
        // Zero tolerance refuses anything with a nonzero error bound.
        let mut strict = TailDp::from_probs(20, probs.iter().copied());
        assert!(!strict.try_remove(0.9, 0.0));
        let mut narrow = TailDp::from_probs(2, probs.iter().copied());
        assert!(narrow.try_remove(0.9, 1e-9));
    }

    #[test]
    fn tail_dp_refusal_leaves_row_untouched() {
        // Commit-on-success: a refused removal must not perturb the row.
        let mut dp = TailDp::from_probs(20, vec![0.9; 30]);
        let before_head = dp.head().to_vec();
        let before_tail = dp.tail();
        assert!(!dp.try_remove(0.9, 0.0));
        assert_eq!(dp.head(), &before_head[..]);
        assert_eq!(dp.tail().to_bits(), before_tail.to_bits());
        assert_eq!(dp.trials(), 30);
        assert_eq!(dp.removals(), 0);
        // The row still works afterwards.
        assert!(dp.try_remove(0.9, 1e-9));
        assert_eq!(dp.trials(), 29);
    }

    #[test]
    fn tail_dp_zero_head_rows_downdate_exactly() {
        // High-probability rows underflow the truncated head to exact
        // zeros; the downdate is then exact and accepted even at tol = 0.
        // (This is the regime the old amplification guard refused
        // wholesale despite the arithmetic being error-free.)
        let mut dp = TailDp::from_probs(10, std::iter::repeat_n(0.999, 400));
        assert_eq!(dp.tail(), 1.0);
        assert_eq!(dp.error_bound(), 0.0);
        assert!(dp.try_remove(0.999, 0.0), "zero-head downdate is exact");
        assert_eq!(dp.trials(), 399);
        assert_eq!(dp.tail(), 1.0);
    }

    #[test]
    fn tail_dp_refusals_are_explained() {
        // Empty row.
        let mut dp = TailDp::new(2);
        assert_eq!(
            dp.try_remove_explained(0.5, 1e-9),
            Err(RemovalRefusal::Empty)
        );
        // Degenerate q.
        let mut dp = TailDp::from_probs(2, [1.0, 0.5, 0.5]);
        assert_eq!(
            dp.try_remove_explained(1.0, 1e-9),
            Err(RemovalRefusal::Degenerate)
        );
        // Error-tolerance guard: at tol = 0 any nonzero measured bound
        // refuses, and the bound itself is reported (small here — the
        // default 1e-9 tolerance accepts this same removal).
        let mut wide = TailDp::from_probs(20, vec![0.9; 30]);
        match wide.try_remove_explained(0.9, 0.0) {
            Err(RemovalRefusal::ErrTol { measured }) => {
                assert!(measured > 0.0, "{measured}");
                assert!(measured < 1e-9, "{measured}");
            }
            other => panic!("expected err-tol refusal, got {other:?}"),
        }
        // Removing a trial that was never absorbed trips row validation.
        let mut dp = TailDp::from_probs(3, [0.1, 0.1, 0.1, 0.1]);
        match dp.try_remove_explained(0.45, 1e-9) {
            Err(RemovalRefusal::RowValidation { violation }) => assert!(violation > 0.0),
            other => panic!("expected row-validation refusal, got {other:?}"),
        }
        // The names and magnitudes survive the accessors.
        assert_eq!(RemovalRefusal::Empty.reason(), "empty");
        assert_eq!(RemovalRefusal::Degenerate.reason(), "degenerate");
        assert_eq!(
            RemovalRefusal::ErrTol { measured: 2e-8 }.reason(),
            "err_tol"
        );
        assert_eq!(
            RemovalRefusal::ErrTol { measured: 2e-8 }.magnitude(),
            Some(2e-8)
        );
        assert_eq!(
            RemovalRefusal::RowValidation { violation: 0.5 }.magnitude(),
            Some(0.5)
        );
        assert_eq!(RemovalRefusal::Empty.magnitude(), None);
    }

    #[test]
    fn tail_dp_empty_and_zero_threshold() {
        let mut dp = TailDp::new(0);
        assert_eq!(dp.tail(), 1.0);
        dp.push(0.3);
        assert_eq!(dp.tail(), 1.0);
        assert!(dp.try_remove(0.3, 1e-9));
        assert!(!dp.try_remove(0.3, 1e-9), "no trials left");

        let dp = TailDp::new(3);
        assert_eq!(dp.tail(), 0.0, "fewer trials than threshold");
    }

    #[test]
    fn tail_dp_rebuild_resets_removal_count() {
        let mut dp = TailDp::from_probs(2, [0.3, 0.4]);
        assert!(dp.try_remove(0.3, 1e-9));
        dp.rebuild([0.3, 0.4, 0.5]);
        assert_eq!(dp.removals(), 0);
        assert_eq!(dp.trials(), 3);
        let direct = tail_at_least(&[0.3, 0.4, 0.5], 2);
        assert!((dp.tail() - direct).abs() < 1e-12);
    }

    #[test]
    fn fresh_tail_lasts_until_the_first_removal() {
        let probs = [0.9, 0.6, 0.7, 0.9];
        let mut dp = TailDp::from_probs(2, probs);
        let direct = tail_at_least(&probs, 2);
        assert_eq!(dp.fresh_tail().map(f64::to_bits), Some(direct.to_bits()));
        assert_eq!(TailDp::new(0).fresh_tail(), Some(1.0));
        assert!(dp.try_remove(0.6, 1e-9));
        assert_eq!(
            dp.fresh_tail(),
            None,
            "a downdated row has no absorbing state"
        );
        dp.rebuild(probs);
        assert_eq!(dp.fresh_tail().map(f64::to_bits), Some(direct.to_bits()));
        let mut copy = TailDp::new(2);
        copy.clone_from(&dp);
        assert_eq!(copy.fresh_tail(), dp.fresh_tail());
    }

    #[test]
    fn refusal_certificate_fires_only_on_refused_chains() {
        let mut scratch = Vec::new();
        // Zero tolerance: the implicit push-chain bound alone refuses.
        let wide = TailDp::from_probs(20, vec![0.9; 30]);
        let bound = wide
            .refusal_certificate(&[0.9], 0.0, &mut scratch)
            .expect("any nonzero bound exceeds tol = 0");
        assert!(bound > 0.0);
        assert!(!wide.clone().try_remove(0.9, 0.0));
        // The default tolerance accepts that removal: no certificate.
        assert_eq!(wide.refusal_certificate(&[0.9], 1e-9, &mut scratch), None);
        // Exact rows (underflowed heads) certify nothing, even at tol = 0.
        let exact = TailDp::from_probs(10, std::iter::repeat_n(0.999, 400));
        assert_eq!(exact.refusal_certificate(&[0.999], 0.0, &mut scratch), None);
        // Degenerate and empty chains are left to the real downdate.
        let ones = TailDp::from_probs(2, [1.0, 0.5, 0.5]);
        assert_eq!(ones.refusal_certificate(&[1.0], 0.0, &mut scratch), None);
        assert_eq!(
            TailDp::new(3).refusal_certificate(&[0.5], 0.0, &mut scratch),
            None
        );
        // Gaussian(0.8, 0.1)-like rows of 200 trials at k = 80, twenty
        // removals: most chains are refused, and the certificate catches
        // refused chains only.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut unit = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut fired = 0;
        for _ in 0..20 {
            let probs: Vec<f64> = (0..200)
                .map(|_| {
                    let z = (0..12).map(|_| unit()).sum::<f64>() - 6.0;
                    (0.8 + 0.1 * z).clamp(0.001, 0.999)
                })
                .collect();
            let row = TailDp::from_probs(80, probs.iter().copied());
            let dropped = &probs[..20];
            if let Some(bound) = row.refusal_certificate(dropped, 1e-9, &mut scratch) {
                fired += 1;
                assert!(bound > 1e-9);
                let mut chain = row.clone();
                assert!(!dropped.iter().all(|&p| chain.try_remove(p, 1e-9)));
            }
        }
        assert!(fired > 0, "the certificate never fired");
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_invalid_probability() {
        SupportDistribution::new(&[1.5]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn push_rejects_invalid_probability() {
        SupportDistribution::new(&[0.5]).push(-0.1);
    }
}

/// The incremental-downdate contract the miner relies on: for arbitrary
/// probability vectors and removal subsets, either [`TailDp::try_remove`]
/// succeeds and the downdated row's tail matches a full recompute over
/// the survivors within the tolerance, or it refuses — leaving the row
/// untouched — and a rebuild restores the same answer. Probability mixes
/// cover quantized-uniform, Gaussian-like, p→1.0 clusters and alternating
/// tiny/huge entries, with thresholds up to `k = 64`.
#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// (probabilities, threshold k, indices to remove). A regime
    /// discriminant selects one of four probability mixes; values stay
    /// quantized so failures print reproducibly.
    fn dp_case() -> impl Strategy<Value = (Vec<f64>, usize, Vec<usize>)> {
        (
            0u32..4,
            proptest::collection::vec(0u32..=1000, 1..40),
            0usize..65,
            proptest::collection::vec(0usize..64, 0..12),
        )
            .prop_map(|(regime, raw, k, picks)| {
                let probs: Vec<f64> = raw
                    .iter()
                    .enumerate()
                    .map(|(i, &u)| {
                        let x = f64::from(u) / 1000.0;
                        match regime {
                            // Quantized uniform over [0, 1].
                            0 => x,
                            // Gaussian-like hump around 0.5 (Irwin–Hall:
                            // mean of four co-prime-quantized uniforms).
                            1 => {
                                let y = f64::from(u % 701) / 700.0
                                    + f64::from(u % 311) / 310.0
                                    + f64::from(u % 97) / 96.0
                                    + x;
                                (y / 4.0).clamp(0.0, 1.0)
                            }
                            // p → 1.0 cluster (includes exactly 1.0).
                            2 => 0.95 + x / 20.0,
                            // Alternating tiny / huge.
                            _ => {
                                if i % 2 == 0 {
                                    x / 1000.0
                                } else {
                                    0.999 + x / 1000.0
                                }
                            }
                        }
                    })
                    .collect();
                let mut drop: Vec<usize> = picks.iter().map(|&i| i % probs.len()).collect();
                drop.sort_unstable();
                drop.dedup();
                (probs, k, drop)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn downdate_matches_full_recompute(case in dp_case()) {
            let (probs, k, drop) = case;
            let parent = TailDp::from_probs(k, probs.iter().copied());
            let survivors: Vec<f64> = probs
                .iter()
                .enumerate()
                .filter(|(i, _)| !drop.contains(i))
                .map(|(_, &p)| p)
                .collect();
            let full = tail_at_least(&survivors, k);

            // The miner's default error tolerance (dp_error_tol = 1e-9).
            let tol = 1e-9;
            let mut dp = parent.clone();
            if drop.iter().all(|&i| dp.try_remove(probs[i], tol)) {
                prop_assert!(
                    (dp.tail() - full).abs() <= 1e-9 * full.abs().max(1.0),
                    "downdate {} vs recompute {} (k={}, dropped {} of {})",
                    dp.tail(), full, k, drop.len(), probs.len()
                );
                prop_assert_eq!(dp.trials(), survivors.len());
                prop_assert_eq!(dp.removals(), drop.len() as u32);
                // An accepted chain keeps its own bound within tolerance.
                prop_assert!(dp.error_bound() <= tol * 1.0000001);
            } else {
                // Refusal path: the fallback rebuild must reproduce the
                // exact answer (the clone shields the parent row).
                let mut rebuilt = parent.clone();
                rebuilt.rebuild(survivors.iter().copied());
                prop_assert!((rebuilt.tail() - full).abs() < 1e-12);
                prop_assert_eq!(rebuilt.removals(), 0);
            }
            // The parent row is untouched either way.
            prop_assert_eq!(parent.tail().to_bits(),
                TailDp::from_probs(k, probs.iter().copied()).tail().to_bits());
        }

        /// A push chain's absorbing state is `tail_at_least_with`'s, bit
        /// for bit, at every threshold up to one past the trial count.
        #[test]
        fn fresh_tail_is_the_capped_dp_bit_for_bit(
            raw in proptest::collection::vec(0u32..=1002, 1..60),
        ) {
            // 1001 and 1002 stand for certain and impossible trials.
            let probs: Vec<f64> = raw
                .iter()
                .map(|&u| match u {
                    1001 => 1.0,
                    1002 => 0.0,
                    _ => f64::from(u) / 1000.0,
                })
                .collect();
            for k in 1..=probs.len() + 1 {
                let row = TailDp::from_probs(k, probs.iter().copied());
                prop_assert_eq!(
                    row.fresh_tail().map(f64::to_bits),
                    Some(tail_at_least(&probs, k).to_bits()),
                    "k={}", k
                );
            }
        }

        /// Whenever the certificate fires, the real downdate chain is
        /// refused at some removal, from a pure push chain and from a row
        /// an accepted downdate has already touched.
        #[test]
        fn refusal_certificate_is_sound(case in dp_case()) {
            let (probs, k, drop) = case;
            let mut scratch = Vec::new();
            let split = drop.len() / 3;
            let mut touched = TailDp::from_probs(k, probs.iter().copied());
            let touched_ok = drop[..split]
                .iter()
                .all(|&i| touched.try_remove(probs[i], 1e-9));
            let fresh = TailDp::from_probs(k, probs.iter().copied());
            let mut rows = vec![(fresh, &drop[..])];
            if touched_ok {
                rows.push((touched, &drop[split..]));
            }
            for (row, chain) in rows {
                let dropped: Vec<f64> = chain.iter().map(|&i| probs[i]).collect();
                for tol in [0.0, 1e-12, 1e-9, 1e-6] {
                    if let Some(bound) = row.refusal_certificate(&dropped, tol, &mut scratch) {
                        prop_assert!(bound > tol);
                        let mut real = row.clone();
                        let refused = dropped
                            .iter()
                            .any(|&p| real.try_remove_explained(p, tol).is_err());
                        prop_assert!(refused, "certified at {} (tol {}) but accepted", bound, tol);
                    }
                }
            }
        }

        #[test]
        fn remove_then_readd_round_trips(case in dp_case()) {
            let (probs, k, drop) = case;
            let parent = TailDp::from_probs(k, probs.iter().copied());
            let mut dp = parent.clone();
            if !drop.iter().all(|&i| dp.try_remove(probs[i], 1e-9)) {
                return Ok(());
            }
            for &i in &drop {
                dp.push(probs[i]);
            }
            prop_assert_eq!(dp.trials(), probs.len());
            prop_assert!(
                (dp.tail() - parent.tail()).abs() <= 1e-9 * parent.tail().abs().max(1.0),
                "readd {} vs parent {} (k={}, {} removed)",
                dp.tail(), parent.tail(), k, drop.len()
            );
        }

        #[test]
        fn zero_tolerance_accepts_only_exact_downdates(case in dp_case()) {
            let (probs, k, drop) = case;
            if drop.is_empty() {
                return Ok(());
            }
            let survivors: Vec<f64> = probs
                .iter()
                .enumerate()
                .filter(|(i, _)| !drop.contains(i))
                .map(|(_, &p)| p)
                .collect();
            let mut dp = TailDp::from_probs(k, probs.iter().copied());
            if drop.iter().all(|&i| dp.try_remove(probs[i], 0.0)) {
                // tol = 0 admits only downdates whose tracked error is
                // exactly zero — the result must match a rebuild to
                // machine precision.
                let full = tail_at_least(&survivors, k);
                prop_assert!(
                    (dp.tail() - full).abs() < 1e-12,
                    "{} vs {full} (k={k})",
                    dp.tail()
                );
            }
        }
    }
}
