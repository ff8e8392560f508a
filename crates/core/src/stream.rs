//! Sliding-window PFCI mining over an uncertain transaction stream.
//!
//! [`StreamMiner`] maintains the probabilistic frequent closed itemset
//! set of the most recent transactions without re-mining the window from
//! scratch on every step. The machinery, bottom to top:
//!
//! * the window itself is a [`SlidingWindow`] — arrivals append to the
//!   vertical index, expiries clear bits in place, and a retired prefix
//!   is compacted periodically (all mining-invariant, see
//!   [`utdb::window`]);
//! * a per-root frequentness-DP row ([`TailDp`] at threshold `min_sup`)
//!   is maintained *incrementally* across steps: an arrival convolves the
//!   new transaction's probability in ([`TailDp::push`]), an expiry
//!   divides it back out ([`TailDp::try_remove_explained`]), and the row
//!   is rebuilt from the window only when the downdate refuses on its
//!   measured error bound, the `MAX_DOWNDATES` cap fires, or the root
//!   is touched for the first time;
//! * those rows power a **certified pre-filter**: an affected root `r`
//!   is skipped without mining when its window support count is below
//!   `min_sup`, or when `tail() + error_bound() ≤ pfct`. Both are sound
//!   certificates that a fresh run would prune the root — and, because
//!   the frequent probability is anti-monotone and dominates the FCP,
//!   that *no* pattern containing `r` qualifies in the new window;
//! * the surviving roots are mined by the depth-first miner restricted
//!   to the **affected root subtrees** of the change
//!   (`mpfci::Focus`): a root `r` is affected iff some changed
//!   (arrived or expired) transaction contains `r`. The granularity is
//!   the root, not the node, deliberately — each DFS node's DP row is
//!   *downdated from its parent's*, so the bits of an emitted
//!   probability depend on every prefix tid-set along the root-to-node
//!   chain, and any finer-grained skip would splice values computed
//!   under a stale parent chain into a fresh run (equal mathematically,
//!   not to the last ULP);
//! * every previous pattern under an *unaffected* root re-mines
//!   bit-identically (its whole prefix chain contains that root, so no
//!   chain tid-set changed), and is **carried over** verbatim instead;
//!   the maintained set is the union of carried patterns and focused
//!   emissions, and the diff against the previous set is emitted as
//!   [`PatternDelta`]s through [`MinerSink::pattern_delta`].
//!
//! # Determinism
//!
//! After every [`StreamMiner::refresh`], the maintained set is
//! bit-identical to a fresh [`crate::Miner`] run over the live window
//! contents, **provided FCP evaluation is deterministic** — use
//! [`FcpMethod::ExactOnly`](crate::FcpMethod::ExactOnly) (the `pfcim
//! stream` default) or an `Auto` configuration in which no node samples.
//! Sampled FCP consumes RNG in node-visit order, and a focused run
//! visits fewer nodes than a full one, so sampled values would drift
//! from the re-mine-from-scratch reference even though both remain
//! within the `(ε, δ)` guarantee. The differential test suite walks
//! hundreds of window steps asserting the exact-mode equality across
//! thread counts.
//!
//! # Example
//!
//! ```
//! use pfcim_core::stream::{StreamConfig, StreamMiner};
//! use pfcim_core::{FcpMethod, MinerConfig, NullSink};
//! use utdb::{ItemDictionary, UncertainTransaction};
//!
//! let miner_cfg = MinerConfig::new(2, 0.5).with_fcp_method(FcpMethod::ExactOnly);
//! let mut dict = ItemDictionary::new();
//! let (a, b) = (dict.intern("a"), dict.intern("b"));
//! let mut sm = StreamMiner::new(dict, StreamConfig::new(3, miner_cfg));
//! for _ in 0..5 {
//!     let step = sm.advance(
//!         UncertainTransaction::new(vec![a, b], 0.9),
//!         &mut NullSink,
//!     );
//!     assert!(step.deltas.len() <= sm.results().len() + 1);
//! }
//! assert!(sm.results().iter().any(|p| p.items == vec![a, b]));
//! ```

use std::collections::BTreeSet;
use std::time::Instant;

use prob::{RemovalRefusal, TailDp};
use utdb::{Item, ItemDictionary, SlidingWindow, UncertainTransaction};

use crate::config::MinerConfig;
use crate::mpfci::{run_dfs_focused, Focus, MAX_DOWNDATES};
use crate::result::{MiningOutcome, PatternDelta, Pfci};
use crate::snapshot::Snapshot;
use crate::stats::{DpAudit, RunLedger};
use crate::trace::{DpDecision, MinerSink, ShardableSink, Tee};

/// Configuration of a [`StreamMiner`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Window capacity: [`StreamMiner::advance`] expires the oldest
    /// transactions until at most this many remain (clamped to ≥ 1).
    pub window: usize,
    /// The mining configuration applied to every window state. For
    /// bit-identity with re-mining from scratch, use a deterministic
    /// [`FcpMethod`](crate::FcpMethod) (see the [module docs](self)).
    pub miner: MinerConfig,
    /// Ablation switch: when `true`, the per-root DP rows are never
    /// downdated or pushed incrementally — every touched row is rebuilt
    /// from the window. Results are identical either way (the rows only
    /// feed sound certificates); the benchmark harness uses this to
    /// measure what the incremental maintenance is worth.
    pub rebuild_rows: bool,
}

impl StreamConfig {
    /// A window of `window` transactions mined with `miner`.
    pub fn new(window: usize, miner: MinerConfig) -> Self {
        Self {
            window: window.max(1),
            miner,
            rebuild_rows: false,
        }
    }

    /// Toggle the rebuild-only ablation (see
    /// [`StreamConfig::rebuild_rows`]).
    pub fn with_rebuild_rows(mut self, rebuild_rows: bool) -> Self {
        self.rebuild_rows = rebuild_rows;
        self
    }
}

/// Cumulative work counters of a [`StreamMiner`] — what the window
/// repair actually did, across all steps so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Calls to [`StreamMiner::refresh`] (including no-op refreshes).
    pub steps: u64,
    /// Transactions inserted.
    pub arrivals: u64,
    /// Transactions expired.
    pub expiries: u64,
    /// Per-root row updates taken incrementally: arrival convolutions…
    pub row_pushes: u64,
    /// …and successful expiry downdates.
    pub row_downdates: u64,
    /// Rows rebuilt from the window (first touch, refusal, cap, or the
    /// [`StreamConfig::rebuild_rows`] ablation).
    pub row_rebuilds: u64,
    /// Transactions convolved during those rebuilds — the work a rebuild
    /// costs, comparable against one `O(min_sup)` downdate per expiry.
    pub row_rebuild_elements: u64,
    /// Roots touched by at least one changed transaction.
    pub roots_affected: u64,
    /// Affected roots skipped because the window support count fell
    /// below `min_sup`.
    pub roots_skipped_count: u64,
    /// Affected roots skipped on the DP certificate
    /// (`tail + error_bound ≤ pfct`).
    pub roots_skipped_certificate: u64,
    /// Affected roots handed to the focused miner.
    pub roots_mined: u64,
    /// Previous patterns carried over unaffected (summed over steps).
    pub patterns_carried: u64,
    /// Deltas emitted, by kind.
    pub deltas_added: u64,
    /// Patterns that left the maintained set.
    pub deltas_removed: u64,
    /// Patterns whose probabilities changed.
    pub deltas_updated: u64,
}

/// What one [`StreamMiner::refresh`] did.
#[derive(Debug, Clone)]
pub struct StreamStep {
    /// The changes to the maintained pattern set, in canonical itemset
    /// order (also emitted through [`MinerSink::pattern_delta`]).
    pub deltas: Vec<PatternDelta>,
    /// The focused run's outcome — `None` when every affected root was
    /// certified away (or nothing changed) and no mining ran.
    pub mined: Option<MiningOutcome>,
    /// Roots touched by the step's changed transactions.
    pub roots_affected: usize,
    /// Roots the focused run actually enumerated.
    pub roots_mined: usize,
    /// Previous patterns carried over without re-mining.
    pub carried: usize,
    /// Wall-clock time of the whole refresh.
    pub elapsed: std::time::Duration,
}

/// A change recorded between refreshes, in arrival order.
#[derive(Debug, Clone)]
enum Change {
    Arrived(UncertainTransaction),
    Expired(UncertainTransaction),
}

impl Change {
    fn transaction(&self) -> &UncertainTransaction {
        match self {
            Change::Arrived(t) | Change::Expired(t) => t,
        }
    }
}

/// Maintains the PFCI set over a sliding window of an uncertain
/// transaction stream (see the [module docs](self)).
#[derive(Debug)]
pub struct StreamMiner {
    window: SlidingWindow,
    config: StreamConfig,
    /// The maintained pattern set, canonical (itemset) order.
    results: Vec<Pfci>,
    /// Per-item frequentness-DP rows at threshold `min_sup`; `None`
    /// until the root is first evaluated (or after a refused downdate).
    rows: Vec<Option<TailDp>>,
    /// Changes since the last refresh, in order.
    pending: Vec<Change>,
    stats: StreamStats,
    /// Cumulative row-maintenance decisions, in the same taxonomy the
    /// batch miner audits ([`DpAudit`]); only the ledger's `audit` fills.
    rows_ledger: RunLedger,
    /// Last snapshot handed out by [`StreamMiner::snapshot`]; successors
    /// derive from it so the generation lineage survives republishing.
    published: Option<Snapshot>,
}

impl StreamMiner {
    /// An empty window over `dictionary`'s item universe. Symbols
    /// arriving later are interned through
    /// [`StreamMiner::dictionary_mut`]. Panics on an out-of-range
    /// [`MinerConfig`] (same validation as [`crate::Miner::run`]).
    pub fn new(dictionary: ItemDictionary, config: StreamConfig) -> Self {
        config.miner.validate();
        Self {
            // Compact once the retired prefix reaches a window's worth
            // of rows: amortized O(1) per expiry, memory ≤ 2 windows.
            window: SlidingWindow::new(dictionary, config.window),
            config,
            results: Vec::new(),
            rows: Vec::new(),
            pending: Vec::new(),
            stats: StreamStats::default(),
            rows_ledger: RunLedger::default(),
            published: None,
        }
    }

    /// The live window.
    pub fn window(&self) -> &SlidingWindow {
        &self.window
    }

    /// The configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The maintained PFCI set, canonical order — bit-identical to a
    /// fresh deterministic run over [`SlidingWindow::dense_db`] after
    /// every refresh.
    pub fn results(&self) -> &[Pfci] {
        &self.results
    }

    /// Cumulative work counters.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Cumulative row-maintenance decision audit.
    pub fn audit(&self) -> &DpAudit {
        &self.rows_ledger.audit
    }

    /// Intern streamed symbols before building transactions.
    pub fn dictionary_mut(&mut self) -> &mut ItemDictionary {
        self.window.dictionary_mut()
    }

    /// Publish the current window as a named [`Snapshot`] — the bridge
    /// to `pfcim serve`. The first call starts a generation lineage;
    /// each later call derives its successor via
    /// [`Snapshot::replace_database`], so installing the result with
    /// `Server::install` invalidates every carve-cache entry mined
    /// against the previous window state.
    pub fn snapshot(&mut self, name: &str) -> Snapshot {
        let db = self.window.dense_db();
        let next = match &self.published {
            Some(prev) if prev.name() == name => prev.replace_database(db),
            _ => Snapshot::new(name, db),
        };
        self.published = Some(next.clone());
        next
    }

    /// Record the arrival of the newest transaction. The maintained set
    /// is stale until the next [`StreamMiner::refresh`].
    pub fn insert(&mut self, tx: UncertainTransaction) {
        self.window.push(tx.clone());
        self.pending.push(Change::Arrived(tx));
        self.stats.arrivals += 1;
    }

    /// Expire the oldest live transaction, if any. The maintained set is
    /// stale until the next [`StreamMiner::refresh`].
    pub fn expire(&mut self) -> Option<UncertainTransaction> {
        let tx = self.window.pop()?;
        self.pending.push(Change::Expired(tx.clone()));
        self.stats.expiries += 1;
        Some(tx)
    }

    /// One stream step: insert `tx`, expire down to the configured
    /// window capacity, and [`refresh`](StreamMiner::refresh).
    pub fn advance<S: ShardableSink + ?Sized>(
        &mut self,
        tx: UncertainTransaction,
        sink: &mut S,
    ) -> StreamStep {
        self.insert(tx);
        while self.window.len() > self.config.window {
            self.expire();
        }
        self.refresh(sink)
    }

    /// Bring the maintained pattern set up to date with the window,
    /// emitting the diff as [`PatternDelta`]s (returned, and forwarded
    /// to `sink.pattern_delta`). The focused run's trace events flow
    /// through `sink` too, with a fresh per-step event cache so no
    /// bound-input memoization crosses window states.
    pub fn refresh<S: ShardableSink + ?Sized>(&mut self, sink: &mut S) -> StreamStep {
        let start = Instant::now();
        self.stats.steps += 1;
        let changes = std::mem::take(&mut self.pending);

        // 1. Maintain the per-root DP rows through the changes, in
        // order, and collect the affected roots.
        let num_items = self.window.db().num_items();
        if self.rows.len() < num_items {
            self.rows.resize_with(num_items, || None);
        }
        let mut affected: BTreeSet<u32> = BTreeSet::new();
        let tol = self.config.miner.dp_error_tol;
        for change in &changes {
            for &item in change.transaction().items() {
                affected.insert(item.0);
            }
            if self.config.rebuild_rows {
                // Ablation: drop every touched row; step 2 rebuilds it.
                for &item in change.transaction().items() {
                    self.rows[item.index()] = None;
                }
                continue;
            }
            match change {
                Change::Arrived(tx) => {
                    for &item in tx.items() {
                        if let Some(row) = self.rows[item.index()].as_mut() {
                            row.push(tx.probability());
                            self.stats.row_pushes += 1;
                        }
                    }
                }
                Change::Expired(tx) => {
                    for &item in tx.items() {
                        // `None` on success; `Some(reason)` drops the row.
                        let refusal = {
                            let Some(row) = self.rows[item.index()].as_mut() else {
                                continue;
                            };
                            if row.removals() >= MAX_DOWNDATES {
                                Some(DpDecision::DowndateCap)
                            } else {
                                match row.try_remove_explained(tx.probability(), tol) {
                                    Ok(()) => None,
                                    Err(refusal) => Some(decision_of(&refusal)),
                                }
                            }
                        };
                        match refusal {
                            None => {
                                self.stats.row_downdates += 1;
                                self.record(sink, DpDecision::Incremental);
                            }
                            Some(decision) => {
                                self.record(sink, decision);
                                self.rows[item.index()] = None;
                            }
                        }
                    }
                }
            }
        }

        // 2. Certified pre-filter: keep only affected roots a fresh run
        // could possibly emit patterns under.
        self.stats.roots_affected += affected.len() as u64;
        let min_sup = self.config.miner.min_sup;
        let pfct = self.config.miner.pfct;
        let mut roots: Vec<u32> = Vec::new();
        for &r in &affected {
            let tids = self.window.db().tidset_of(Item(r));
            let count = tids.count();
            if count < min_sup {
                // Certificate 1: sup(X) ≤ sup({r}) < min_sup for every
                // X ∋ r, so Pr_F ≡ 0 ≤ pfct under this root.
                self.stats.roots_skipped_count += 1;
                continue;
            }
            if self.rows[r as usize].is_none() {
                let mut fresh = TailDp::new(min_sup);
                {
                    let db = self.window.db();
                    fresh.rebuild(db.tidset_of(Item(r)).iter().map(|tid| db.probability(tid)));
                }
                self.rows[r as usize] = Some(fresh);
                self.stats.row_rebuilds += 1;
                self.stats.row_rebuild_elements += count as u64;
                self.record(sink, DpDecision::FreshRoot);
            }
            let row = self.rows[r as usize].as_ref().expect("row just ensured");
            // Certificate 2: the row's tail approximates Pr_F({r}) to
            // within error_bound(), so tail + bound ≤ pfct proves the
            // true Pr_F({r}) ≤ pfct — and by anti-monotonicity
            // Pr_FC(X) ≤ Pr_F(X) ≤ Pr_F({r}) ≤ pfct for every X ∋ r.
            if row.tail() + row.error_bound() <= pfct {
                self.stats.roots_skipped_certificate += 1;
                continue;
            }
            roots.push(r);
        }
        self.stats.roots_mined += roots.len() as u64;

        // 3. Mine the full subtrees of the surviving roots.
        let focus = Focus::new(roots);
        let roots_mined = focus.roots().len();
        let mined = if roots_mined == 0 {
            None
        } else {
            Some(run_dfs_focused(
                self.window.db(),
                &self.config.miner,
                sink,
                None,
                &focus,
            ))
        };

        // 4. Merge: previous patterns under unaffected roots carry over
        // verbatim (their entire root-to-node mining chain is untouched
        // by the change), the focused run contributes every affected
        // root's subtree. A pattern's root is its minimum item, so the
        // two sources are disjoint by construction.
        let prev = std::mem::take(&mut self.results);
        let mut merged: Vec<Pfci> = prev
            .iter()
            .filter(|p| !affected.contains(&p.items[0].0))
            .cloned()
            .collect();
        let carried = merged.len();
        self.stats.patterns_carried += carried as u64;
        if let Some(outcome) = &mined {
            merged.extend(outcome.results.iter().cloned());
        }
        merged.sort_by(|a, b| a.items.cmp(&b.items));

        // 5. Diff previous → new into deltas (both sides sorted).
        let deltas = diff_patterns(&prev, &merged);
        for delta in &deltas {
            match delta {
                PatternDelta::Added(_) => self.stats.deltas_added += 1,
                PatternDelta::Removed(_) => self.stats.deltas_removed += 1,
                PatternDelta::Updated { .. } => self.stats.deltas_updated += 1,
            }
            sink.pattern_delta(delta);
        }
        self.results = merged;

        StreamStep {
            deltas,
            mined,
            roots_affected: affected.len(),
            roots_mined,
            carried,
            elapsed: start.elapsed(),
        }
    }

    fn record<S: MinerSink + ?Sized>(&mut self, sink: &mut S, decision: DpDecision) {
        Tee(&mut self.rows_ledger, sink).dp_decision(decision);
    }
}

/// Map a downdate refusal onto the miner's decision taxonomy.
fn decision_of(refusal: &RemovalRefusal) -> DpDecision {
    match refusal {
        RemovalRefusal::Empty | RemovalRefusal::Degenerate => DpDecision::Degenerate,
        RemovalRefusal::ErrTol { measured } => DpDecision::ErrTol {
            measured: *measured,
        },
        RemovalRefusal::RowValidation { violation } => DpDecision::RowValidation {
            violation: *violation,
        },
    }
}

/// Diff two canonically sorted pattern sets into deltas, in canonical
/// order of the pattern each delta is about.
fn diff_patterns(prev: &[Pfci], next: &[Pfci]) -> Vec<PatternDelta> {
    let mut deltas = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < prev.len() || j < next.len() {
        let order = match (prev.get(i), next.get(j)) {
            (Some(a), Some(b)) => a.items.cmp(&b.items),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => unreachable!(),
        };
        match order {
            std::cmp::Ordering::Less => {
                deltas.push(PatternDelta::Removed(prev[i].clone()));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                deltas.push(PatternDelta::Added(next[j].clone()));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if prev[i] != next[j] {
                    deltas.push(PatternDelta::Updated {
                        new: next[j].clone(),
                        old_fcp: prev[i].fcp,
                    });
                }
                i += 1;
                j += 1;
            }
        }
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FcpMethod;
    use crate::miner::Miner;
    use crate::stats::RunLedger;
    use crate::trace::NullSink;

    fn exact_config(window: usize, min_sup: usize, pfct: f64) -> StreamConfig {
        StreamConfig::new(
            window,
            MinerConfig::new(min_sup, pfct)
                .with_fcp_method(FcpMethod::ExactOnly)
                .with_threads(1),
        )
    }

    fn dict(n: u32) -> ItemDictionary {
        let mut d = ItemDictionary::new();
        for i in 0..n {
            d.intern(&format!("i{i}"));
        }
        d
    }

    fn tx(items: &[u32], p: f64) -> UncertainTransaction {
        UncertainTransaction::new(items.iter().map(|&i| Item(i)).collect(), p)
    }

    /// The re-mine-from-scratch reference.
    fn fresh(sm: &StreamMiner) -> Vec<Pfci> {
        let dense = sm.window().dense_db();
        Miner::new(&dense)
            .config(sm.config().miner.clone())
            .run()
            .results
    }

    #[test]
    fn maintained_set_matches_fresh_run_on_a_short_walk() {
        let mut sm = StreamMiner::new(dict(4), exact_config(4, 2, 0.5));
        let stream = [
            tx(&[0, 1, 2], 0.9),
            tx(&[0, 1], 0.8),
            tx(&[1, 2, 3], 0.7),
            tx(&[0, 1, 2], 0.95),
            tx(&[2, 3], 0.6),
            tx(&[0, 1], 0.85),
            tx(&[1, 2], 0.75),
        ];
        for t in stream {
            sm.advance(t, &mut NullSink);
            assert_eq!(sm.results(), fresh(&sm).as_slice());
        }
        assert!(sm.stats().steps == 7 && sm.stats().arrivals == 7);
        assert_eq!(sm.stats().expiries, 3);
    }

    #[test]
    fn exact_mode_mines_a_window_with_a_wide_sparse_family() {
        // The hub's family has thirty events, more than the dense 2^m
        // loop accepted; its support lattice is small, so ExactOnly
        // evaluates it.
        let db = crate::exact::tests::wide_sparse_db();
        let pfct = 0.1;
        let hub = [Item(0)];
        let tids = db.tidset_of_itemset(&hub).into_bitmap();
        let events = crate::events::NonClosureEvents::build(&db, &tids, (1..31).map(Item), 2);
        let pr_f = pfim::frequent_probability(&db, &hub, 2);
        let (lo, hi) = events.fcp_bounds(pr_f, 48, Some(pfct));
        assert!(
            events.len() > 24 && hi > pfct && hi - lo > 1e-6,
            "bounds decide {{h}}"
        );
        let mut sm = StreamMiner::new(db.dictionary().clone(), exact_config(14, 2, pfct));
        for t in db.transactions() {
            sm.advance(t.clone(), &mut NullSink);
        }
        assert_eq!(sm.results(), fresh(&sm).as_slice());
        assert!(sm.results().iter().any(|p| p.items == hub));
    }

    #[test]
    fn rebuild_ablation_mines_identically() {
        let stream: Vec<UncertainTransaction> = (0u32..12)
            .map(|s| tx(&[s % 3, (s * 2 + 1) % 3], f64::from(s % 9 + 1) / 10.0))
            .collect();
        let mut incremental = StreamMiner::new(dict(3), exact_config(5, 2, 0.4));
        let mut rebuilt =
            StreamMiner::new(dict(3), exact_config(5, 2, 0.4).with_rebuild_rows(true));
        for t in stream {
            incremental.advance(t.clone(), &mut NullSink);
            rebuilt.advance(t, &mut NullSink);
            assert_eq!(incremental.results(), rebuilt.results());
        }
        assert!(
            incremental.stats().row_downdates > 0,
            "incremental path used"
        );
        assert_eq!(rebuilt.stats().row_downdates, 0, "ablation never downdates");
        assert!(rebuilt.stats().row_rebuilds > incremental.stats().row_rebuilds);
    }

    #[test]
    fn published_snapshots_share_one_generation_lineage() {
        let mut sm = StreamMiner::new(dict(3), exact_config(3, 2, 0.4));
        sm.advance(tx(&[0, 1], 0.9), &mut NullSink);
        let first = sm.snapshot("live");
        assert_eq!(first.generation(), 0);
        sm.advance(tx(&[1, 2], 0.8), &mut NullSink);
        let second = sm.snapshot("live");
        assert_eq!(second.generation(), 1, "republishing advances the lineage");
        assert_eq!(first.generation(), 1, "the old handle observes the bump");
        // The published database is the live window, mineable as usual.
        let outcome = second.miner().config(sm.config().miner.clone()).run();
        assert_eq!(outcome.results, sm.results());
        // A different name starts a fresh lineage.
        let other = sm.snapshot("other");
        assert_eq!(other.generation(), 0);
    }

    #[test]
    fn deltas_replay_the_previous_set_into_the_new_one() {
        let mut sm = StreamMiner::new(dict(4), exact_config(3, 2, 0.3));
        let mut shadow: Vec<Pfci> = Vec::new();
        let mut ledger = RunLedger::default();
        let mut total_deltas = 0u64;
        for s in 0u32..15 {
            let items = [s % 4, (s * 3 + 1) % 4];
            let t = tx(
                if items[0] == items[1] {
                    &items[..1]
                } else {
                    &items[..]
                },
                f64::from(s % 9 + 1) / 10.0,
            );
            let step = sm.advance(t, &mut ledger);
            total_deltas += step.deltas.len() as u64;
            // Apply the deltas to the shadow copy.
            for delta in &step.deltas {
                match delta {
                    PatternDelta::Added(p) => {
                        let at = shadow
                            .binary_search_by(|q| q.items.cmp(&p.items))
                            .unwrap_err();
                        shadow.insert(at, p.clone());
                    }
                    PatternDelta::Removed(p) => {
                        let at = shadow.binary_search_by(|q| q.items.cmp(&p.items)).unwrap();
                        assert_eq!(&shadow.remove(at), p);
                    }
                    PatternDelta::Updated { new, old_fcp } => {
                        let at = shadow
                            .binary_search_by(|q| q.items.cmp(&new.items))
                            .unwrap();
                        assert_eq!(shadow[at].fcp, *old_fcp);
                        shadow[at] = new.clone();
                    }
                }
            }
            assert_eq!(shadow.as_slice(), sm.results());
        }
        assert_eq!(ledger.pattern_deltas, total_deltas);
        assert_eq!(
            total_deltas,
            sm.stats().deltas_added + sm.stats().deltas_removed + sm.stats().deltas_updated
        );
        assert!(total_deltas > 0, "the walk must exercise the delta path");
    }

    #[test]
    fn infrequent_roots_are_certified_away_without_mining() {
        // min_sup = 3 over a window of 2: no root can ever reach the
        // support floor, so no step mines anything.
        let mut sm = StreamMiner::new(dict(2), exact_config(2, 3, 0.5));
        for s in 0u32..6 {
            let step = sm.advance(tx(&[s % 2], 0.9), &mut NullSink);
            assert!(step.mined.is_none());
            assert!(step.deltas.is_empty());
        }
        assert!(sm.results().is_empty());
        assert_eq!(sm.stats().roots_mined, 0);
        assert!(sm.stats().roots_skipped_count > 0);
    }

    #[test]
    fn improbable_roots_are_certified_away_by_the_dp_row() {
        // Supports are plentiful but probabilities are tiny: the tail
        // certificate (not the count floor) must fire.
        let mut sm = StreamMiner::new(dict(1), exact_config(4, 2, 0.9));
        for _ in 0..8 {
            sm.advance(tx(&[0], 0.01), &mut NullSink);
        }
        assert!(sm.results().is_empty());
        assert!(sm.stats().roots_skipped_certificate > 0);
        assert_eq!(sm.results(), fresh(&sm).as_slice());
    }

    #[test]
    fn audit_tracks_row_maintenance() {
        let mut sm = StreamMiner::new(dict(3), exact_config(4, 2, 0.3));
        for s in 0u32..20 {
            sm.advance(tx(&[s % 3, (s + 1) % 3], 0.8), &mut NullSink);
        }
        let audit = sm.audit();
        assert_eq!(audit.incremental, sm.stats().row_downdates);
        assert_eq!(
            audit.fresh_root,
            sm.stats().row_rebuilds,
            "every rebuild is audited as a fresh root"
        );
        assert!(audit.incremental > 0);
    }

    #[test]
    fn refresh_without_changes_is_a_no_op() {
        let mut sm = StreamMiner::new(dict(2), exact_config(3, 1, 0.2));
        sm.advance(tx(&[0, 1], 0.9), &mut NullSink);
        let before = sm.results().to_vec();
        let step = sm.refresh(&mut NullSink);
        assert!(step.deltas.is_empty() && step.mined.is_none());
        assert_eq!(step.roots_affected, 0);
        assert_eq!(step.carried, before.len());
        assert_eq!(sm.results(), before.as_slice());
    }

    #[test]
    fn diff_patterns_covers_all_three_kinds() {
        let p = |id: u32, fcp: f64| Pfci {
            items: vec![Item(id)],
            fcp,
            frequent_probability: fcp,
        };
        let prev = vec![p(0, 0.5), p(1, 0.6), p(2, 0.7)];
        let next = vec![p(1, 0.65), p(2, 0.7), p(3, 0.8)];
        let deltas = diff_patterns(&prev, &next);
        assert_eq!(deltas.len(), 3);
        assert!(matches!(&deltas[0], PatternDelta::Removed(q) if q.items == vec![Item(0)]));
        assert!(
            matches!(&deltas[1], PatternDelta::Updated { new, old_fcp } if new.items == vec![Item(1)] && *old_fcp == 0.6)
        );
        assert!(matches!(&deltas[2], PatternDelta::Added(q) if q.items == vec![Item(3)]));
    }
}
