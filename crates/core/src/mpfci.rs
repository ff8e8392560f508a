//! The `ProbFC` depth-first miner (Fig. 3 of the paper).
//!
//! Depth-first enumeration over the prefix tree of itemsets in item
//! ("alphabetic") order, with the four prunings of Section IV:
//!
//! 1. **Chernoff–Hoeffding pruning** (Lemma 4.1): a cheap tail bound
//!    refutes probabilistic frequency before the exact DP runs. Together
//!    with the exact `Pr_F ≤ pfct` test it cuts whole subtrees, because
//!    the frequent probability is anti-monotone and dominates the FCP.
//! 2. **Superset pruning** (Lemma 4.2): if a *pre-item* (an item ordered
//!    before some item of `X`, hence outside `X`'s prefix subtree) occurs
//!    in every transaction of `T(X)`, then `X` and its entire prefix
//!    subtree are non-closed in every world — `Pr_FC ≡ 0`.
//! 3. **Subset pruning** (Lemma 4.3): if an extension `X∪e` has the same
//!    count as `X`, then `X` is never closed, and every sibling subtree
//!    after `e` (none of which can contain `e`) is non-closed too; only
//!    the `X∪e` branch continues.
//! 4. **Probability-bound pruning** (Lemma 4.4) and the final checking
//!    phase, shared with the BFS framework via the internal evaluator.
//!
//! # Incremental support DP
//!
//! A DFS child differs from its parent by the transactions dropped at the
//! extension step: `T(X∪e) ⊆ T(X)`. The frequentness DP row is a product
//! of per-transaction factors, so instead of rebuilding it over `T(X∪e)`
//! from scratch, the miner *downdates* the parent's [`TailDp`] row by
//! dividing out each dropped transaction's probability — `O(dropped ·
//! min_sup)` instead of `O(|T(X∪e)| · min_sup)`. Each row carries a
//! measured per-element error bound maintained through compensated
//! deconvolution (with a log-domain fallback for high-amplification
//! factors — see [`TailDp::try_remove`]); a removal is refused (and the
//! row rebuilt) only when that bound exceeds the configured tolerance
//! ([`MinerConfig::dp_error_tol`]) or after `MAX_DOWNDATES`
//! accumulated removals. Before it clones the parent row to try, the
//! miner asks the row for a refusal certificate
//! ([`TailDp::refusal_certificate`]): a lower bound on the error the
//! removals would measure. When that already exceeds the tolerance the
//! downdate is certain to be refused, and the child is rebuilt without
//! the attempt. A rebuilt row's absorbing-state tail is the event build's
//! frequentness tail of the same transactions, so the miner offers it to
//! the evaluator's tail memo, keyed by the child's tid-set, for the
//! parent's post-order table build. The [`crate::stats::KernelStats`] counters
//! report which path each node took. Both paths are deterministic
//! functions of the node alone, so parallel fan-out stays bit-identical
//! across thread counts. Per-node state (tid-bitmaps, DP rows) lives in
//! a free-list arena reset per subtree root, so steady-state enumeration
//! allocates nothing.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use prob::hoeffding::hoeffding_infrequent;
use prob::{RemovalRefusal, TailDp};
use utdb::{Item, TidBitmap, UncertainDatabase};

use crate::cache::SharedEventCache;
use crate::config::{MinerConfig, SearchStrategy};
use crate::evaluator::Evaluator;
use crate::events::MemoSlot;
use crate::par;
use crate::result::{MiningOutcome, Pfci};
use crate::stats::RunLedger;
use crate::trace::{timed, DpDecision, MinerSink, Phase, PruneKind, ShardableSink, ShardedSink};

/// Hard cap on downdates accumulated in one [`TailDp`] row before the
/// miner forces a rebuild. The row's own measured error bound already
/// gates every removal against [`MinerConfig::dp_error_tol`], so this is
/// a belt-and-suspenders limit on how long a chain the audit has to
/// reason about, not the primary stability control.
pub(crate) const MAX_DOWNDATES: u32 = 256;

/// Restriction of a depth-first run to the root subtrees affected by a
/// set of changed (arrived or expired) transactions — the window-repair
/// mode of [`crate::stream::StreamMiner`].
///
/// A root item `r` is *affected* iff some changed transaction contains
/// `r`. Every pattern whose minimum item is an unaffected root mines
/// **bit-identically** to the previous window: its whole root-to-node
/// prefix chain contains `r`, so none of the chain's tid-sets change,
/// and the chain is what the computed bits depend on (each node's DP row
/// is *downdated from its parent's*, so the emitted `Pr_F`/FCP bits are
/// a function of every prefix tid-set, not of `T(X)` alone — which is
/// also why the focus is root-grained: skipping recursion below an
/// affected root would splice values computed under a stale parent chain
/// into a fresh run, identical mathematically but not to the last ULP).
/// The stream miner therefore carries unaffected-root patterns over
/// verbatim and re-mines affected roots in full.
pub(crate) struct Focus {
    /// Affected roots still worth mining, ascending item id.
    roots: Vec<u32>,
}

impl Focus {
    /// Build from the affected roots that survived the stream miner's
    /// certified pre-filter (ascending item id).
    pub(crate) fn new(roots: Vec<u32>) -> Self {
        Self { roots }
    }

    /// The affected roots to enumerate, ascending item id.
    pub(crate) fn roots(&self) -> &[u32] {
        &self.roots
    }
}

/// Dispatch on the configured search strategy — the engine behind the
/// [`crate::miner::Miner`] builder.
pub(crate) fn run_search<S: ShardableSink + ?Sized>(
    db: &UncertainDatabase,
    config: &MinerConfig,
    sink: &mut S,
    cache: Option<Arc<SharedEventCache>>,
) -> MiningOutcome {
    match config.search {
        SearchStrategy::Dfs => run_dfs(db, config, sink, cache),
        SearchStrategy::Bfs => crate::bfs::run_bfs(db, config, sink, cache),
    }
}

/// The depth-first miner proper.
///
/// With [`MinerConfig::effective_threads`] > 1, the first-level subtree
/// roots fan out over a work-stealing pool ([`crate::par`]); results,
/// run ledgers and sink shards are merged deterministically in
/// canonical item order at the join barrier. Exact-mode output is
/// bit-identical to the sequential run for every thread count;
/// sampled-mode output is a pure function of `(seed, threads)` (and in
/// fact of `seed` alone for any `threads ≥ 2`, since each root owns a
/// seed-derived RNG stream). `threads = 1` runs the legacy sequential
/// code byte-identically.
pub(crate) fn run_dfs<S: ShardableSink + ?Sized>(
    db: &UncertainDatabase,
    config: &MinerConfig,
    sink: &mut S,
    cache: Option<Arc<SharedEventCache>>,
) -> MiningOutcome {
    config.validate();
    let threads = config.effective_threads();
    if threads <= 1 {
        return mine_dfs_sequential(db, config, sink, cache, None);
    }
    mine_dfs_parallel(db, config, sink, threads, cache, None)
}

/// The depth-first miner restricted to the affected root subtrees of a
/// window change (see [`Focus`]). Mirrors [`run_dfs`] — including the
/// parallel fan-out, where each root keeps its *global* item id for seed
/// derivation so per-root RNG streams match a full run — but enumerates
/// only `focus.roots()`, each mined in full.
pub(crate) fn run_dfs_focused<S: ShardableSink + ?Sized>(
    db: &UncertainDatabase,
    config: &MinerConfig,
    sink: &mut S,
    cache: Option<Arc<SharedEventCache>>,
    focus: &Focus,
) -> MiningOutcome {
    config.validate();
    let threads = config.effective_threads();
    if threads <= 1 {
        return mine_dfs_sequential(db, config, sink, cache, Some(focus));
    }
    mine_dfs_parallel(db, config, sink, threads, cache, Some(focus))
}

/// The pre-parallelism single-threaded miner, byte-for-byte.
fn mine_dfs_sequential<S: MinerSink + ?Sized>(
    db: &UncertainDatabase,
    config: &MinerConfig,
    sink: &mut S,
    cache: Option<Arc<SharedEventCache>>,
    focus: Option<&Focus>,
) -> MiningOutcome {
    sink.run_started("dfs", config);
    let start = Instant::now();
    let deadline = config.time_budget.map(|b| start + b);
    let mut miner = DfsMiner {
        evaluator: Evaluator::new(db, config, sink, cache),
        dropped: Vec::new(),
        certificate: Vec::new(),
        arena: NodeArena::default(),
        items: Vec::new(),
        results: Vec::new(),
        deadline,
        timed_out: false,
    };

    // Phase 1 (Fig. 1): candidate set of probabilistic frequent single
    // items; each then roots a depth-first enumeration. A focused run
    // restricts phase 1 to the affected roots.
    match focus {
        Some(f) => {
            for &id in f.roots() {
                miner.mine_root(Item(id));
            }
        }
        None => {
            for id in 0..db.num_items() as u32 {
                miner.mine_root(Item(id));
            }
        }
    }

    let DfsMiner {
        evaluator,
        results,
        timed_out,
        ..
    } = miner;
    evaluator.finish(results, start.elapsed(), timed_out)
}

/// First-level fan-out: each root item's subtree is one task on the
/// work-stealing pool, observed through a private sink shard. The
/// barrier then reconciles shards/results/ledgers in root-id order,
/// so aggregate sinks see exactly the sequential event stream (in exact
/// mode) and the result set is sorted identically to the sequential
/// path.
fn mine_dfs_parallel<S: ShardableSink + ?Sized>(
    db: &UncertainDatabase,
    config: &MinerConfig,
    sink: &mut S,
    threads: usize,
    cache: Option<Arc<SharedEventCache>>,
    focus: Option<&Focus>,
) -> MiningOutcome {
    sink.run_started("dfs", config);
    let start = Instant::now();
    let deadline = config.time_budget.map(|b| start + b);
    // Workers run the sequential evaluator (no nested fan-out); each
    // root derives its own RNG stream from the run seed, making sampled
    // estimates independent of scheduling and of the worker count.
    let worker_cfg = config.clone().with_threads(1);

    let mut sharded = ShardedSink::new(sink);
    let root_ids: Vec<u32> = match focus {
        Some(f) => f.roots().to_vec(),
        None => (0..db.num_items() as u32).collect(),
    };
    let roots: Vec<(u32, S::Shard)> = root_ids
        .into_iter()
        .map(|id| (id, sharded.shard()))
        .collect();

    // Pool spans (task/steal/idle per worker) are only worth their
    // timestamps when some sink will consume them.
    let pool = sharded.parent().is_enabled().then(par::PoolTrace::new);
    // Live pool gauges (queue depth, per-worker counters) for sinks that
    // watch the run from another thread — e.g. the telemetry sampler.
    let gauges = sharded.parent().pool_gauges();

    let worker_cfg = &worker_cfg;
    let cache = &cache;
    let per_root = par::scatter_instrumented(
        threads,
        roots,
        |_, (id, mut shard)| {
            let mut cfg = worker_cfg.clone();
            cfg.seed = par::mix_seed(worker_cfg.seed, u64::from(id));
            let mut miner = DfsMiner {
                // A snapshot's table cache is shared by all roots (and
                // all concurrent queries); each root's tail memo is its
                // own.
                evaluator: Evaluator::new(db, &cfg, &mut shard, cache.clone()),
                dropped: Vec::new(),
                certificate: Vec::new(),
                arena: NodeArena::default(),
                items: Vec::new(),
                results: Vec::new(),
                deadline,
                timed_out: false,
            };
            miner.mine_root(Item(id));
            let DfsMiner {
                evaluator,
                results,
                timed_out,
                ..
            } = miner;
            let Evaluator {
                ledger,
                carve_ceiling,
                ..
            } = evaluator;
            (shard, results, ledger, timed_out, carve_ceiling)
        },
        pool.as_ref(),
        gauges.as_deref(),
    );

    let mut ledger = RunLedger::default();
    let mut results = Vec::new();
    let mut timed_out = false;
    let mut carve_ceiling = 1.0f64;
    for (shard, root_results, root_ledger, root_timed_out, root_ceiling) in per_root {
        sharded.absorb(shard);
        ledger.absorb(&root_ledger);
        results.extend(root_results);
        timed_out |= root_timed_out;
        carve_ceiling = carve_ceiling.min(root_ceiling);
    }
    if let Some(pool) = pool {
        for span in pool.into_spans() {
            sharded.parent().pool_span(&span);
        }
    }
    let outcome = ledger.into_outcome(results, start.elapsed(), timed_out, carve_ceiling);
    sharded.parent().run_finished(&outcome);
    outcome
}

/// Everything the DFS carries per enumeration node: the tid-set bitmap,
/// the live frequentness DP row over its transactions, the expected
/// support, and the exact frequent probability — the state children
/// derive from incrementally — plus where the tid-set sits in the tail
/// memo once a child has offered a tail under it.
struct NodeCtx {
    tids: TidBitmap,
    dp: TailDp,
    esup: f64,
    pr_f: f64,
    memo_slot: Cell<MemoSlot>,
}

/// Free-list arena for per-node DFS state: tid-bitmaps and DP rows are
/// recycled as the enumeration backtracks instead of being reallocated
/// at every node, and the whole pool is reset at each subtree root. The
/// recycling kernels ([`TidBitmap::and_into`], [`TailDp::clone_from`])
/// overwrite every word/element of a reused buffer, so recycled state
/// never leaks into a node's result — the parallel determinism contract
/// (bit-identical output across thread counts) is preserved.
#[derive(Default)]
struct NodeArena {
    bitmaps: Vec<TidBitmap>,
    rows: Vec<TailDp>,
}

impl NodeArena {
    /// A bitmap buffer for `and_into` to (re)shape and fill.
    fn take_bitmap(&mut self) -> TidBitmap {
        self.bitmaps.pop().unwrap_or_else(|| TidBitmap::new(0))
    }

    /// A DP row with threshold `k`, ready for `clone_from` or `rebuild`.
    fn take_dp(&mut self, k: usize) -> TailDp {
        match self.rows.pop() {
            Some(dp) if dp.threshold() == k => dp,
            _ => TailDp::new(k),
        }
    }

    /// Return a finished node's buffers to the pool.
    fn recycle(&mut self, ctx: NodeCtx) {
        self.bitmaps.push(ctx.tids);
        self.rows.push(ctx.dp);
    }

    /// Return loose buffers to the pool.
    fn recycle_parts(&mut self, tids: TidBitmap, dp: TailDp) {
        self.bitmaps.push(tids);
        self.rows.push(dp);
    }

    /// Drop everything — called at each subtree root so pool size stays
    /// bounded by one subtree's depth.
    fn reset(&mut self) {
        self.bitmaps.clear();
        self.rows.clear();
    }
}

struct DfsMiner<'a, S: MinerSink + ?Sized> {
    evaluator: Evaluator<'a, S>,
    /// Scratch for the dropped transactions' probabilities at each
    /// extension step (reused across nodes, no per-node allocation).
    dropped: Vec<f64>,
    /// Scratch of [`TailDp::refusal_certificate`].
    certificate: Vec<f64>,
    /// Recycled per-node tid-bitmaps and DP rows (reset per root).
    arena: NodeArena,
    /// The current itemset prefix (reused across roots).
    items: Vec<Item>,
    results: Vec<Pfci>,
    deadline: Option<Instant>,
    timed_out: bool,
}

impl<S: MinerSink + ?Sized> DfsMiner<'_, S> {
    /// Qualify `item` as a subtree root and, when it survives, mine its
    /// whole depth-first subtree. One call per database item; both the
    /// sequential and the parallel driver funnel through here so the two
    /// paths perform identical per-root work.
    fn mine_root(&mut self, item: Item) {
        self.arena.reset();
        let tids = self.evaluator.db.bitmap_of(item).clone();
        if let Some(ctx) = self.qualify_root(item, tids) {
            let mut items = std::mem::take(&mut self.items);
            items.clear();
            items.push(item);
            self.process_node(&mut items, &ctx);
            self.items = items;
            self.arena.recycle(ctx);
        }
    }

    /// Is the root itemset `{item}` with tid-set `tids` a probabilistic
    /// frequent itemset? Builds the DP row from scratch (roots have no
    /// parent to downdate from) and offers its tail to the memo under
    /// `T(item) = T(item) ∧ T(item)`. Applies the Chernoff–Hoeffding
    /// refutation first when enabled.
    fn qualify_root(&mut self, item: Item, tids: TidBitmap) -> Option<NodeCtx> {
        let db = self.evaluator.db;
        let cfg = self.evaluator.cfg;
        let count = tids.count();
        if count < cfg.min_sup {
            return None;
        }
        let esup: f64 = tids.iter().map(|tid| db.probability(tid)).sum();
        if !self.check_chernoff(esup, count) {
            return None;
        }
        let mut sink = self.evaluator.observe();
        let dp = timed(Phase::FreqDp, &mut sink, || {
            let mut dp = TailDp::new(cfg.min_sup);
            for tid in tids.iter() {
                dp.push(db.probability(tid));
            }
            dp
        });
        sink.dp_decision(DpDecision::FreshRoot);
        let mut slot = MemoSlot::default();
        if let Some(tail) = dp.fresh_tail() {
            self.evaluator
                .tail_memo
                .offer(&tids, &mut slot, item, &tids, tail);
        }
        self.finish_qualify(tids, dp, esup, slot)
    }

    /// Qualify the DFS child `X∪ext` against its parent's node context.
    /// The dropped transactions `T(X) \ T(X∪e)` are streamed word-level
    /// from the two bitmaps; the DP row is downdated from the parent's
    /// when that is both cheaper than a rebuild and not certified to be
    /// refused, and kept when every removal fits the tolerance. A rebuilt
    /// row's tail goes to the memo under the parent's tid-set and `ext`.
    fn qualify_child(&mut self, parent: &NodeCtx, ext: Item, tids: TidBitmap) -> Option<NodeCtx> {
        let db = self.evaluator.db;
        let cfg = self.evaluator.cfg;
        let count = tids.count();
        if count < cfg.min_sup {
            self.arena.bitmaps.push(tids);
            return None;
        }
        self.dropped.clear();
        for tid in parent.tids.diff_iter(&tids) {
            self.dropped.push(db.probability(tid));
        }
        self.evaluator.ledger.kernel.bitmap_words += parent.tids.word_len() as u64;
        let mut esup = (parent.esup - self.dropped.iter().sum::<f64>()).max(0.0);
        if !self.check_chernoff(esup, count) {
            self.arena.bitmaps.push(tids);
            return None;
        }
        let tol = cfg.dp_error_tol;
        let dropped = &self.dropped;
        let certificate = &mut self.certificate;
        let mut pooled = self.arena.take_dp(cfg.min_sup);
        let mut sink = self.evaluator.observe();
        let (dp, decision) = timed(Phase::FreqDp, &mut sink, || {
            // Downdate when it is cheaper than a rebuild and every
            // removal's measured error bound fits the tolerance;
            // otherwise rebuild, recording the structured reason for the
            // audit channel. A certified refusal skips the attempt.
            let removals = dropped.len() as u32;
            let decision = if dropped.len() >= count {
                DpDecision::CostSkip
            } else if parent.dp.removals() + removals > MAX_DOWNDATES {
                DpDecision::DowndateCap
            } else if let Some(bound) = parent.dp.refusal_certificate(dropped, tol, certificate) {
                DpDecision::ErrTol { measured: bound }
            } else {
                pooled.clone_from(&parent.dp);
                let mut refusal = None;
                for &p in dropped.iter() {
                    if let Err(r) = pooled.try_remove_explained(p, tol) {
                        refusal = Some(r);
                        break;
                    }
                }
                match refusal {
                    None => return (pooled, DpDecision::Incremental),
                    Some(RemovalRefusal::ErrTol { measured }) => DpDecision::ErrTol { measured },
                    Some(RemovalRefusal::RowValidation { violation }) => {
                        DpDecision::RowValidation { violation }
                    }
                    Some(RemovalRefusal::Empty | RemovalRefusal::Degenerate) => {
                        DpDecision::Degenerate
                    }
                }
            };
            pooled.rebuild(std::iter::empty());
            let mut fresh_esup = 0.0;
            for tid in tids.iter() {
                let p = db.probability(tid);
                fresh_esup += p;
                pooled.push(p);
            }
            // The rebuild touches every remaining probability anyway:
            // refresh the expected support to stop incremental drift.
            esup = fresh_esup;
            (pooled, decision)
        });
        sink.dp_decision(decision);
        if let Some(tail) = dp.fresh_tail() {
            let mut slot = parent.memo_slot.get();
            self.evaluator
                .tail_memo
                .offer(&parent.tids, &mut slot, ext, &tids, tail);
            parent.memo_slot.set(slot);
        }
        self.finish_qualify(tids, dp, esup, MemoSlot::default())
    }

    /// Chernoff–Hoeffding refutation (Lemma 4.1); `true` means "survives".
    fn check_chernoff(&mut self, esup: f64, count: usize) -> bool {
        let cfg = self.evaluator.cfg;
        if !cfg.pruning.chernoff_hoeffding {
            return true;
        }
        let mut sink = self.evaluator.observe();
        let refuted = timed(Phase::ChBound, &mut sink, || {
            hoeffding_infrequent(esup, count, cfg.min_sup, cfg.pfct)
        });
        if refuted {
            sink.prune_fired(PruneKind::ChernoffHoeffding);
            return false;
        }
        true
    }

    /// Shared tail of qualification: read the frequent probability off the
    /// DP row and apply the exact `Pr_F ≤ pfct` pruning.
    fn finish_qualify(
        &mut self,
        tids: TidBitmap,
        dp: TailDp,
        esup: f64,
        memo_slot: MemoSlot,
    ) -> Option<NodeCtx> {
        let cfg = self.evaluator.cfg;
        let pr_f = dp.tail();
        let mut sink = self.evaluator.observe();
        sink.freq_prob_evaluated(pr_f);
        if pr_f <= cfg.pfct {
            sink.prune_fired(PruneKind::FreqProb);
            self.arena.recycle_parts(tids, dp);
            return None;
        }
        Some(NodeCtx {
            tids,
            dp,
            esup,
            pr_f,
            memo_slot: Cell::new(memo_slot),
        })
    }

    /// Process the enumeration node for itemset `items` (which is known to
    /// be a probabilistic frequent itemset with node context `ctx`):
    /// apply superset pruning, grow extensions with subset pruning, then
    /// run the checking phase on `items` itself.
    fn process_node(&mut self, items: &mut Vec<Item>, ctx: &NodeCtx) {
        if self.timed_out {
            return;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.timed_out = true;
                return;
            }
        }
        let db = self.evaluator.db;
        let cfg = self.evaluator.cfg;
        self.evaluator.observe().node_entered(items.len());
        let words = ctx.tids.word_len() as u64;

        // --- Superset pruning (Lemma 4.2) --------------------------------
        if cfg.pruning.superset {
            let last = items.last().expect("nodes carry non-empty itemsets").0;
            for pre_id in 0..last {
                let pre = Item(pre_id);
                if items.binary_search(&pre).is_ok() {
                    continue;
                }
                self.evaluator.ledger.kernel.bitmap_words += words;
                if ctx.tids.is_subset(db.bitmap_of(pre)) {
                    // X and every superset with X as prefix appear only
                    // together with `pre`: the whole subtree is dead.
                    self.evaluator.observe().prune_fired(PruneKind::Superset);
                    return;
                }
            }
        }

        // --- Extension loop with subset pruning (Lemma 4.3) ---------------
        let mut x_closed = true;
        let count = ctx.tids.count();
        let last = items.last().expect("non-empty").0;
        for ext_id in last + 1..db.num_items() as u32 {
            let ext = Item(ext_id);
            self.evaluator.ledger.kernel.bitmap_words += words;
            let child_count = ctx.tids.and_count(db.bitmap_of(ext));
            if child_count == 0 {
                continue;
            }
            let carries_support = cfg.pruning.subset && child_count == count;
            if !carries_support && child_count < cfg.min_sup {
                continue; // qualification would reject it without a DP
            }
            self.evaluator.ledger.kernel.bitmap_words += words;
            let mut child_tids = self.arena.take_bitmap();
            ctx.tids.and_into(db.bitmap_of(ext), &mut child_tids);
            if carries_support {
                // X∪ext always accompanies X: X is never closed, and the
                // remaining sibling subtrees (which cannot contain `ext`)
                // are never closed either — only this branch survives.
                self.evaluator.observe().prune_fired(PruneKind::Subset);
                x_closed = false;
                // T(X∪ext) = T(X): tid-set, DP row, expected support
                // and frequent probability all carry over unchanged.
                let mut dp = self.arena.take_dp(cfg.min_sup);
                dp.clone_from(&ctx.dp);
                let child_ctx = NodeCtx {
                    tids: child_tids,
                    dp,
                    esup: ctx.esup,
                    pr_f: ctx.pr_f,
                    memo_slot: Cell::new(ctx.memo_slot.get()),
                };
                items.push(ext);
                self.process_node(items, &child_ctx);
                items.pop();
                self.arena.recycle(child_ctx);
                break;
            }
            if let Some(child_ctx) = self.qualify_child(ctx, ext, child_tids) {
                items.push(ext);
                self.process_node(items, &child_ctx);
                items.pop();
                self.arena.recycle(child_ctx);
            }
        }

        // --- Checking phase for X itself -----------------------------------
        if !x_closed {
            return;
        }
        if let Some(pfci) = self.evaluator.evaluate(items, &ctx.tids, ctx.pr_f) {
            self.results.push(pfci);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::exact::exact_pfci_set;
    use crate::trace::NullSink;

    fn table2() -> UncertainDatabase {
        UncertainDatabase::parse_symbolic(&[
            ("a b c d", 0.9),
            ("a b c", 0.6),
            ("a b c", 0.7),
            ("a b c d", 0.9),
        ])
    }

    fn table4() -> UncertainDatabase {
        UncertainDatabase::parse_symbolic(&[
            ("a b c d", 0.9),
            ("a b c", 0.6),
            ("a b c", 0.7),
            ("a b c d", 0.9),
            ("a b", 0.4),
            ("a", 0.4),
        ])
    }

    fn dfs(db: &UncertainDatabase, cfg: &MinerConfig) -> MiningOutcome {
        run_dfs(db, cfg, &mut NullSink, None)
    }

    #[test]
    fn running_example_result_set_and_values() {
        let db = table2();
        let out = dfs(&db, &MinerConfig::new(2, 0.8));
        let rendered: Vec<String> = out.results.iter().map(|p| p.render(&db)).collect();
        assert_eq!(rendered.len(), 2, "{rendered:?}");
        assert!(rendered[0].starts_with("{a, b, c}:"));
        assert!(rendered[1].starts_with("{a, b, c, d}:"));
        assert!((out.fcp_of(&out.results[0].items).unwrap() - 0.8754).abs() < 0.01);
        assert!((out.fcp_of(&out.results[1].items).unwrap() - 0.81).abs() < 0.01);
    }

    #[test]
    fn matches_exact_oracle_on_small_databases() {
        for (db, min_sup, pfct) in [
            (table2(), 2, 0.8),
            (table2(), 2, 0.5),
            (table2(), 1, 0.8),
            (table2(), 3, 0.3),
            (table4(), 2, 0.8),
            (table4(), 2, 0.6),
            (table4(), 1, 0.9),
        ] {
            let oracle = exact_pfci_set(&db, min_sup, pfct);
            let cfg = MinerConfig::new(min_sup, pfct)
                .with_fcp_method(crate::config::FcpMethod::ExactOnly);
            let out = dfs(&db, &cfg);
            assert_eq!(
                out.itemsets(),
                oracle.iter().map(|p| p.items.clone()).collect::<Vec<_>>(),
                "min_sup={min_sup} pfct={pfct}"
            );
            for (got, want) in out.results.iter().zip(&oracle) {
                assert!(
                    (got.fcp - want.fcp).abs() < 1e-6,
                    "{:?}: {} vs {}",
                    got.items,
                    got.fcp,
                    want.fcp
                );
            }
        }
    }

    #[test]
    fn all_variants_agree_on_the_result_set() {
        let db = table4();
        let base = MinerConfig::new(2, 0.8).with_fcp_method(crate::config::FcpMethod::ExactOnly);
        let reference = run_search(&db, &base, &mut NullSink, None).itemsets();
        for variant in Variant::ALL {
            let cfg = base.clone().with_variant(variant);
            let out = run_search(&db, &cfg, &mut NullSink, None);
            assert_eq!(out.itemsets(), reference, "{}", variant.name());
        }
    }

    #[test]
    fn pruning_counters_fire_on_the_running_example() {
        let db = table2();
        let out = dfs(&db, &MinerConfig::new(2, 0.8));
        // Example 4.3: subset pruning stops {ab}'s siblings, superset
        // pruning stops {b}, {c}, {d} roots.
        assert!(out.stats.subset_pruned > 0);
        assert!(out.stats.superset_pruned > 0);
        assert!(out.stats.nodes_visited >= 4);
    }

    #[test]
    fn kernel_counters_fire_on_the_running_example() {
        let db = table4();
        let out = dfs(&db, &MinerConfig::new(2, 0.8));
        // Every root that reaches the DP rebuilds; children downdate.
        assert!(out.kernel.dp_recomputed > 0, "{}", out.kernel);
        assert!(out.kernel.dp_incremental > 0, "{}", out.kernel);
        assert!(out.kernel.bitmap_words > 0, "{}", out.kernel);
        assert_eq!(out.kernel.dp_rows(), out.stats.freq_prob_evals);
    }

    #[test]
    fn incremental_dp_matches_forced_recompute_exactly() {
        // dp_error_tol = 0 accepts only provably exact downdates, forcing
        // rebuilds everywhere else; the default 1e-9 accepts most. The
        // mined probabilities must agree to well under the suite's 1e-9
        // tolerance either way.
        let db = table4();
        let base = MinerConfig::new(2, 0.6).with_fcp_method(crate::config::FcpMethod::ExactOnly);
        let incremental = dfs(&db, &base);
        let rebuilt = dfs(&db, &base.clone().with_dp_error_tol(0.0));
        assert!(incremental.kernel.dp_incremental > 0);
        assert!(rebuilt.kernel.dp_recomputed >= incremental.kernel.dp_recomputed);
        assert!(
            rebuilt.audit.err_tol > 0,
            "zero tolerance must refuse inexact downdates: {}",
            rebuilt.audit
        );
        assert_eq!(incremental.itemsets(), rebuilt.itemsets());
        for (a, b) in incremental.results.iter().zip(&rebuilt.results) {
            assert!((a.frequent_probability - b.frequent_probability).abs() < 1e-12);
            assert!((a.fcp - b.fcp).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_database_and_high_thresholds() {
        let empty = UncertainDatabase::new(vec![], utdb::ItemDictionary::new());
        assert!(dfs(&empty, &MinerConfig::new(1, 0.5)).results.is_empty());

        let db = table2();
        assert!(dfs(&db, &MinerConfig::new(5, 0.5)).results.is_empty());
        assert!(dfs(&db, &MinerConfig::new(2, 0.999)).results.is_empty());
    }

    #[test]
    fn adaptive_sampling_method_agrees_with_exact() {
        let db = table4();
        let exact = dfs(
            &db,
            &MinerConfig::new(2, 0.8).with_fcp_method(crate::config::FcpMethod::ExactOnly),
        );
        let adaptive = dfs(
            &db,
            &MinerConfig::new(2, 0.8)
                .with_fcp_method(crate::config::FcpMethod::ApproxAdaptive)
                .with_approximation(0.05, 0.05),
        );
        assert_eq!(adaptive.itemsets(), exact.itemsets());
    }

    #[test]
    fn deterministic_across_runs() {
        let db = table4();
        let cfg = MinerConfig::new(2, 0.8);
        let a = dfs(&db, &cfg);
        let b = dfs(&db, &cfg);
        assert_eq!(a.results, b.results);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.kernel, b.kernel);
    }

    #[test]
    fn shared_cache_matches_private_cache_bitwise() {
        // A private run builds every family through its tail memo alone; a
        // snapshot run projects tables from the shared cache (at capacity
        // 0 it stores none). Neither may move a single bit of output — the
        // invariant the concurrent service relies on. The dense base is
        // where the memo serves most tails, and where the absence screen
        // decides families before either path builds them (most of all
        // at 96).
        let dense = crate::events::tests::dense_db();
        let cases = [
            (&table4(), 2, 0.6),
            (&dense, 48, 0.8),
            (&dense, 64, 0.8),
            (&dense, 96, 0.8),
        ];
        for (db, min_sup, pfct) in cases {
            for threads in [1, 2, 4] {
                let cfg = MinerConfig::new(min_sup, pfct)
                    .with_fcp_method(crate::config::FcpMethod::ExactOnly)
                    .with_threads(threads);
                let private = dfs(db, &cfg);
                let what = format!("min_sup={min_sup} threads={threads}");
                assert!(!private.results.is_empty(), "{what}");
                let k = &private.kernel;
                assert_eq!((k.bound_cache_hits, k.bound_cache_misses), (0, 0));
                assert!(k.families_screened > 0, "{what}");
                for capacity in [0, 1024] {
                    let shared = Arc::new(SharedEventCache::new(capacity));
                    for _ in 0..2 {
                        let out = run_dfs(db, &cfg, &mut NullSink, Some(Arc::clone(&shared)));
                        assert_eq!(out.stats, private.stats, "{what}");
                        assert_eq!(out.carve_ceiling, private.carve_ceiling, "{what}");
                        assert_eq!(out.kernel.families_screened, k.families_screened, "{what}");
                        assert_eq!(out.results.len(), private.results.len(), "{what}");
                        for (a, b) in out.results.iter().zip(&private.results) {
                            assert_eq!(a.items, b.items, "{what}");
                            assert_eq!(a.fcp.to_bits(), b.fcp.to_bits(), "{:?}", a.items);
                            assert_eq!(
                                a.frequent_probability.to_bits(),
                                b.frequent_probability.to_bits(),
                                "{:?}",
                                a.items
                            );
                        }
                    }
                    // The second run found tables the first one inserted.
                    assert_eq!(
                        shared.hits() > 0,
                        capacity > 0,
                        "{what} capacity={capacity}"
                    );
                }
            }
        }
    }

    #[test]
    fn focused_run_equals_full_run_restricted_to_its_roots() {
        // The contract the stream miner's carry logic rests on: a
        // focused run over roots R emits exactly the full run's patterns
        // whose minimum item lies in R — same values to the last bit —
        // for both the sequential and the parallel driver.
        let db = table4();
        for threads in [1, 3] {
            let cfg = MinerConfig::new(2, 0.6)
                .with_fcp_method(crate::config::FcpMethod::ExactOnly)
                .with_threads(threads);
            let full = run_dfs(&db, &cfg, &mut NullSink, None);
            for roots in [vec![0u32], vec![1, 3], vec![0, 1, 2, 3], vec![]] {
                let focus = Focus::new(roots.clone());
                let focused = run_dfs_focused(&db, &cfg, &mut NullSink, None, &focus);
                let expected: Vec<Pfci> = full
                    .results
                    .iter()
                    .filter(|p| roots.contains(&p.items[0].0))
                    .cloned()
                    .collect();
                assert_eq!(
                    focused.results, expected,
                    "threads={threads} roots={roots:?}"
                );
            }
        }
    }
}
