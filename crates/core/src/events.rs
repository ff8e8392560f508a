//! The family of *frequent non-closure events* of an itemset.
//!
//! For an itemset `X` with supporting tuples `T(X)` and a co-occurring
//! item `e ∉ X`, the event (Definition 4.1)
//!
//! ```text
//! C_e  =  "every tuple of T(X) \ T(X∪e) is absent"  ∧
//!         "at least min_sup tuples of T(X∪e) are present"
//! ```
//!
//! says that `X` is frequent but its support is matched by the superset
//! `X∪e`. The frequent non-closed probability is `Pr(∪_e C_e)` and
//!
//! ```text
//! Pr_FC(X) = Pr_F(X) − Pr(∪_e C_e).
//! ```
//!
//! Because the two conjuncts of `C_e` touch disjoint tuples,
//!
//! ```text
//! Pr(∧_{e∈S} C_e) = Π_{t ∈ T(X)\T(X∪S)} (1 − p_t) · Pr{ sup(X∪S) ≥ min_sup },
//! ```
//!
//! which yields singleton/pairwise probabilities for the Lemma 4.4 bounds,
//! arbitrary joints for exact inclusion–exclusion, and conditional world
//! samplers for the Karp–Luby `ApproxFCP` estimator. Only the tuples of
//! `T(X)` matter — every event is measurable with respect to them — so all
//! computation happens over `k = |T(X)|` *positions*, not the whole
//! database.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::OnceLock;

use prob::cond_sample::ConditionalBernoulliSampler;
use prob::dnf::UnionEventSystem;
use prob::poisson_binomial::tail_at_least_with;
use prob::union_bounds::PairwiseUnionBounds;
use rand::{Rng, RngExt};
use utdb::{Item, TidBitmap, UncertainDatabase};

/// One non-closure event `C_e`.
#[derive(Debug, Clone)]
struct NcEvent {
    /// The extension item.
    item: Item,
    /// Positions of `T(X∪e)` within `T(X)` (universe `k`).
    mask: TidBitmap,
    /// `Pr(C_e)`: the absence factor `Π_{p ∉ mask} (1 − probs[p])`
    /// times `Pr{ sup(X∪e) ≥ min_sup }`.
    prob: f64,
}

/// The conditional sampler of one event plus where its trials land: trial
/// `t` of the sampler is position `positions[t]` of the world.
struct EventSampler {
    sampler: ConditionalBernoulliSampler,
    /// The event's mask positions, ascending.
    positions: Vec<u32>,
}

/// The complete family of non-closure events of one itemset.
///
/// The family is `Sync`: its only interior mutability is the write-once
/// sampler cache, so chunked `ApproxFCP` shares one `&NonClosureEvents`
/// across its workers.
pub struct NonClosureEvents {
    /// Existential probabilities of `T(X)`, position-indexed.
    probs: Vec<f64>,
    min_sup: usize,
    /// Events with strictly positive probability (zero-probability events
    /// contribute nothing to any union, joint, bound or sample).
    events: Vec<NcEvent>,
    /// Total `Pr(C_e)` mass of the events (kept for diagnostics).
    total_mass: f64,
    /// Extension items examined at construction — the paper's
    /// `k = m − |X|`, which sizes the `ApproxFCP` sample budget.
    considered: usize,
    /// Conditional samplers, one per event, each built on its event's
    /// first draw: most families are decided by bounds or exactly and
    /// never sample.
    samplers: Vec<OnceLock<EventSampler>>,
}

#[derive(Default)]
struct JointScratch {
    /// Existential probabilities inside the current intersection.
    probs: Vec<f64>,
    dp: Vec<f64>,
    /// Depth-indexed running intersections: `levels[d]` is the mask
    /// intersection of the `d + 1` events on the current lattice path
    /// (`levels[0]` alone serves [`NonClosureEvents::joint`]).
    levels: Vec<TidBitmap>,
    /// The lattice walk's stack: per depth, the next candidate event and
    /// the exclusive end of the candidates.
    frames: Vec<(usize, usize)>,
}

/// `levels[depth]`, growing the stack on first use of a depth.
fn level(levels: &mut Vec<TidBitmap>, depth: usize) -> &mut TidBitmap {
    if levels.len() <= depth {
        levels.resize_with(depth + 1, || TidBitmap::new(0));
    }
    &mut levels[depth]
}

thread_local! {
    /// Per-thread scratch of [`NonClosureEvents::joint`] and
    /// [`NonClosureEvents::lattice_union`], kept out of the family so the
    /// family stays `Sync`.
    static JOINT_SCRATCH: RefCell<JointScratch> = RefCell::new(JointScratch::default());
}

/// Most non-zero inclusion–exclusion terms an exact evaluation
/// ([`FcpMethod::ExactOnly`](crate::FcpMethod::ExactOnly),
/// [`crate::exact::exact_fcp_inclusion_exclusion`], or an `Auto` family
/// within its `exact_cap`) may enumerate: `2^24`, the term count of the
/// largest family the dense `2^m` loop accepted.
pub const MAX_EXACT_TERMS: usize = 1 << 24;

/// Scratch of [`event_for_item`], reused across the items of one build.
struct BuildScratch {
    /// `T(X∪e) = T(X) ∧ T(e)` of the current item, over the database's
    /// tids: the screen's popcount and the tail memo's key.
    xe_tids: TidBitmap,
    /// Every position of `T(X)`: the mask's zero bits are its
    /// difference with this.
    all: TidBitmap,
    /// Existential probabilities at the current item's mask positions.
    mask_probs: Vec<f64>,
    /// Tail-DP row.
    dp: Vec<f64>,
    /// Where this build's `T(X)` sits in the memo's arena, once an entry
    /// computed under it has been stored.
    x_slot: MemoSlot,
}

impl BuildScratch {
    fn new(min_sup: usize, positions: usize) -> Self {
        Self {
            xe_tids: TidBitmap::new(0),
            all: TidBitmap::full(positions),
            mask_probs: Vec::new(),
            dp: vec![0.0; min_sup + 1],
            x_slot: MemoSlot::default(),
        }
    }
}

/// A memo of frequentness tails `Pr{sup(X∪e) ≥ min_sup}`, keyed by the
/// tid-set `T(X∪e)`.
///
/// The tail factor of `Pr(C_e)` depends on nothing but the tuples of
/// `T(X∪e)` and `min_sup`, and the same tid-set recurs across the nodes
/// of one mine (every node listing `e` over the same supporting tuples)
/// and across the items of one build (every item covering `T(X)`
/// entirely, the items of `X` among them). The memo computes each tail
/// once. It is valid for one database and one `min_sup`, so it lives no
/// longer than the run that owns it.
///
/// Keys are stored compactly: a fingerprint of `T(X∪e)` maps to the slot
/// of `T(X)` in a flat word arena (one slot per build, or per DFS node
/// that offered a tail), the item `e` and the tail. Every fingerprint
/// match is verified by recomputing `T(X) ∧ T(e)` word-wise against the
/// key; a collision falls back to a fresh DP and is not stored. A hit
/// returns the very float the DP returned for the same ascending-tid
/// probability slice, so memoized and fresh tails are bit-identical.
///
/// Besides the builds, the depth-first miner [offers](TailMemo::offer)
/// the tail of every DP row it builds from scratch: a fresh row over
/// `T(X∪e)` carries the absorbing-state tail of the same pushes
/// ([`prob::TailDp::fresh_tail`]), which is the float a build of `X`'s
/// table would compute for `e`.
pub(crate) struct TailMemo {
    min_sup: usize,
    /// Words of one tid-set (fixed by the database).
    words_per_set: usize,
    /// The `T(X)` of every build that stored an entry, back to back.
    arena: Vec<u64>,
    index: HashMap<u64, TailEntry>,
    /// Footprint past which the memo starts over.
    max_bytes: usize,
    /// Bumped at every start-over, so slots registered before it read as
    /// unregistered.
    generation: u32,
}

/// Where a tid-set sits in a [`TailMemo`]'s arena, if it was registered
/// since the memo last started over.
#[derive(Clone, Copy, Default)]
pub(crate) struct MemoSlot(Option<(u32, u32)>);

#[derive(Clone, Copy)]
struct TailEntry {
    /// Slot of `T(X)` in the arena.
    slot: u32,
    /// With `T(X)`, rebuilds the key `T(X) ∧ T(item)`.
    item: Item,
    tail: f64,
}

/// Memo footprint (arena words plus index entries, in bytes) past which
/// the memo starts over, so a long run on a large database stays bounded.
const TAIL_MEMO_MAX_BYTES: usize = 64 << 20;

impl TailMemo {
    /// An empty memo for tails at `min_sup` over the tids of `db`.
    pub(crate) fn new(db: &UncertainDatabase, min_sup: usize) -> Self {
        Self {
            min_sup: min_sup.max(1),
            words_per_set: db.len().div_ceil(64),
            arena: Vec::new(),
            index: HashMap::new(),
            max_bytes: TAIL_MEMO_MAX_BYTES,
            generation: 0,
        }
    }

    fn bytes(&self) -> usize {
        self.arena.len() * size_of::<u64>() + self.index.len() * size_of::<(u64, TailEntry)>()
    }

    /// Is `xe_tids` the key `entry` was stored under?
    fn verify(&self, db: &UncertainDatabase, entry: &TailEntry, xe_tids: &TidBitmap) -> bool {
        let start = entry.slot as usize * self.words_per_set;
        let x_words = &self.arena[start..start + self.words_per_set];
        let e_words = db.bitmap_of(entry.item).words();
        x_words
            .iter()
            .zip(e_words)
            .zip(xe_tids.words())
            .all(|((x, e), xe)| x & e == *xe)
    }

    /// The tail for `xe_tids = T(X) ∧ T(item)`: memoized, or computed by
    /// `fresh` and stored under `x_tids`'s slot (registered on first use
    /// through `x_slot`).
    fn tail(
        &mut self,
        db: &UncertainDatabase,
        x_tids: &TidBitmap,
        x_slot: &mut MemoSlot,
        item: Item,
        xe_tids: &TidBitmap,
        fresh: impl FnOnce() -> f64,
    ) -> f64 {
        debug_assert_eq!(xe_tids.word_len(), self.words_per_set);
        let fingerprint = xe_tids.fingerprint();
        if let Some(entry) = self.index.get(&fingerprint) {
            return if self.verify(db, entry, xe_tids) {
                entry.tail
            } else {
                fresh()
            };
        }
        let tail = fresh();
        self.store(x_tids, x_slot, fingerprint, item, tail);
        tail
    }

    /// Store `tail`, the frequentness tail over `xe_tids = x_tids ∧
    /// T(item)` in ascending tid order, unless the key's fingerprint is
    /// taken: by the same key, or by a collision, which is not stored.
    pub(crate) fn offer(
        &mut self,
        x_tids: &TidBitmap,
        x_slot: &mut MemoSlot,
        item: Item,
        xe_tids: &TidBitmap,
        tail: f64,
    ) {
        debug_assert_eq!(xe_tids.word_len(), self.words_per_set);
        let fingerprint = xe_tids.fingerprint();
        if !self.index.contains_key(&fingerprint) {
            self.store(x_tids, x_slot, fingerprint, item, tail);
        }
    }

    fn store(
        &mut self,
        x_tids: &TidBitmap,
        x_slot: &mut MemoSlot,
        fingerprint: u64,
        item: Item,
        tail: f64,
    ) {
        let growth = self.words_per_set * size_of::<u64>() + size_of::<(u64, TailEntry)>();
        if self.bytes() + growth > self.max_bytes {
            self.arena.clear();
            self.index.clear();
            self.generation = self.generation.wrapping_add(1);
        }
        let slot = match x_slot.0 {
            Some((generation, slot)) if generation == self.generation => slot,
            _ => {
                self.arena.extend_from_slice(x_tids.words());
                let slot = (self.arena.len() / self.words_per_set - 1) as u32;
                *x_slot = MemoSlot(Some((self.generation, slot)));
                slot
            }
        };
        self.index
            .insert(fingerprint, TailEntry { slot, item, tail });
    }
}

/// Shared event constructor: the mask / absence-factor / tail computation
/// both [`NonClosureEvents::build`] and [`EventTable::build`] run per
/// item. `probs` are the existential probabilities of `T(X)`,
/// position-indexed. Returns `None` when `Pr(C_e) = 0`.
///
/// A word-level screen comes first: `|T(X) ∧ T(e)| < min_sup` makes the
/// tail 0, so such items never reach the mask. The mask compacts
/// `T(X) ∧ T(e)` into `T(X)`'s positions a word at a time, and the
/// absence factor multiplies over its zero bits in ascending order, the
/// multiplications of a per-position scan in the same order. The mask's
/// probabilities are gathered only when the memo has no tail.
fn event_for_item(
    db: &UncertainDatabase,
    x_tids: &TidBitmap,
    probs: &[f64],
    item: Item,
    scratch: &mut BuildScratch,
    memo: &mut TailMemo,
) -> Option<NcEvent> {
    let min_sup = memo.min_sup;
    let BuildScratch {
        xe_tids,
        all,
        mask_probs,
        dp,
        x_slot,
    } = scratch;
    x_tids.and_into(db.bitmap_of(item), xe_tids);
    if xe_tids.count() < min_sup {
        return None; // Pr{sup(X∪e) ≥ min_sup} = 0
    }
    let mask = x_tids.positions_of(xe_tids);
    let mut absent_factor = 1.0f64;
    for pos in all.diff_iter(&mask) {
        absent_factor *= 1.0 - probs[pos];
    }
    if absent_factor == 0.0 {
        return None; // Pr(C_e) = 0
    }
    let tail = memo.tail(db, x_tids, x_slot, item, xe_tids, || {
        mask_probs.clear();
        mask_probs.extend(mask.iter().map(|pos| probs[pos]));
        tail_at_least_with(mask_probs, min_sup, dp)
    });
    let prob = absent_factor * tail;
    if prob <= 0.0 {
        return None;
    }
    Some(NcEvent { item, mask, prob })
}

impl NonClosureEvents {
    /// Build the event family for the itemset with supporting tuples
    /// `x_tids`, considering `extension_items` (every item `e ∉ X`; items
    /// not co-occurring with `X` are skipped automatically since their
    /// event has probability 0 for `min_sup ≥ 1`).
    pub fn build(
        db: &UncertainDatabase,
        x_tids: &TidBitmap,
        extension_items: impl IntoIterator<Item = Item>,
        min_sup: usize,
    ) -> Self {
        let mut memo = TailMemo::new(db, min_sup);
        let min_sup = memo.min_sup;
        let probs: Vec<f64> = x_tids.iter().map(|tid| db.probability(tid)).collect();
        let mut scratch = BuildScratch::new(min_sup, probs.len());
        let mut events = Vec::new();
        let mut considered = 0usize;
        for item in extension_items {
            considered += 1;
            if let Some(event) = event_for_item(db, x_tids, &probs, item, &mut scratch, &mut memo) {
                events.push(event);
            }
        }
        Self::from_parts(probs, min_sup, events, considered)
    }

    /// Assemble a family from already-built events (shared by
    /// [`NonClosureEvents::build`] and [`EventTable::family_excluding`]).
    /// The total mass is summed in event order, so families with equal
    /// event lists are bitwise identical however they were produced.
    fn from_parts(
        probs: Vec<f64>,
        min_sup: usize,
        events: Vec<NcEvent>,
        considered: usize,
    ) -> Self {
        let total_mass = events.iter().map(|e| e.prob).sum();
        let samplers = events.iter().map(|_| OnceLock::new()).collect();
        Self {
            probs,
            min_sup,
            events,
            total_mass,
            considered,
            samplers,
        }
    }

    /// Number of extension items examined at construction (the paper's
    /// `k = m − |X|`); at least the number of retained events.
    pub fn considered_items(&self) -> usize {
        self.considered
    }

    /// Number of retained (positive-probability) events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no extension can ever tie `X`'s support — then
    /// `Pr_FC(X) = Pr_F(X)` exactly.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of positions (`k = |T(X)|`).
    pub fn num_positions(&self) -> usize {
        self.probs.len()
    }

    /// Total singleton mass `Σ Pr(C_e)`.
    pub fn total_mass(&self) -> f64 {
        self.total_mass
    }

    /// The extension item of event `i`.
    pub fn item(&self, i: usize) -> Item {
        self.events[i].item
    }

    /// `Pr(∧_{i∈subset} C_i)` for a sorted index subset.
    ///
    /// The conjunction forces every position outside the mask intersection
    /// absent and at least `min_sup` present inside it.
    pub fn joint(&self, subset: &[usize]) -> f64 {
        match subset {
            [] => 1.0,
            [i] => self.events[*i].prob,
            [first, rest @ ..] => JOINT_SCRATCH.with_borrow_mut(|scratch| {
                let JointScratch {
                    probs, dp, levels, ..
                } = scratch;
                let mask = level(levels, 0);
                mask.clone_from(&self.events[*first].mask);
                for &i in rest {
                    mask.and_assign(&self.events[i].mask);
                }
                self.intersection_term(mask, probs, dp).unwrap_or(0.0)
            }),
        }
    }

    /// The joint of the events whose mask intersection is `mask`, or
    /// `None` when it is exactly zero for this subset *and every superset
    /// of it*: fewer than `min_sup` positions remain, or the absence
    /// factor is zero (a superset's factor multiplies, in the same
    /// position order, a superset of these factors, each at most 1, so
    /// rounding keeps it at zero).
    fn intersection_term(
        &self,
        mask: &TidBitmap,
        probs: &mut Vec<f64>,
        dp: &mut Vec<f64>,
    ) -> Option<f64> {
        probs.clear();
        let mut absent_factor = 1.0f64;
        for (pos, &p) in self.probs.iter().enumerate() {
            if mask.contains(pos) {
                probs.push(p);
            } else {
                absent_factor *= 1.0 - p;
            }
        }
        if probs.len() < self.min_sup || absent_factor == 0.0 {
            return None;
        }
        if dp.len() < self.min_sup + 1 {
            dp.resize(self.min_sup + 1, 0.0);
        }
        Some(absent_factor * tail_at_least_with(probs, self.min_sup, dp))
    }

    /// `Pr(∪ C_i)` by inclusion–exclusion over the family's *support
    /// lattice*, or `None` as soon as the walk has enumerated more than
    /// `max_terms` non-zero terms or spent more than `max_work` work
    /// units.
    ///
    /// `Pr(∧_{i∈S} C_i)` is exactly zero whenever the masks of `S`
    /// intersect in fewer than `min_sup` positions, and so is the joint
    /// of every superset of `S`. The walk therefore descends from a
    /// subset only while its running intersection holds at least
    /// `min_sup` positions; its cost follows the number of non-zero
    /// terms, not `2^m`. Each term uses [`NonClosureEvents::joint`]'s
    /// arithmetic on the running intersection (AND is exact, so the
    /// intersection is the one `joint` builds).
    ///
    /// The walk is a pre-order DFS in which the children of `S` are
    /// `S ∪ {i}` for every `i < min S`, ascending, so subsets are visited
    /// in ascending bitmask order — the order of the dense `2^m` loop of
    /// [`prob::exact_union_probability`]. Skipped subsets contribute
    /// exactly `0.0` there, so for every family the dense loop accepts
    /// the two sums are bit-identical.
    ///
    /// Work is counted in position steps, the unit of
    /// [`NonClosureEvents::draw_work`]: every subset the walk looks at
    /// costs the words of its mask AND and popcount, and every non-zero
    /// term also its scan of the `k` positions of `T(X)` and its tail
    /// dynamic program over the `n ≥ min_sup` positions left in the
    /// intersection, `k + n·min_sup`.
    pub fn lattice_union(&self, max_terms: usize, max_work: u64) -> Option<f64> {
        let k = self.probs.len() as u64;
        let words = self.probs.len().div_ceil(64) as u64;
        JOINT_SCRATCH.with_borrow_mut(|scratch| {
            let JointScratch {
                probs,
                dp,
                levels,
                frames,
            } = scratch;
            let mut total = 0.0f64;
            let (mut terms, mut work) = (0usize, 0u64);
            for (top, event) in self.events.iter().enumerate() {
                terms += 1;
                work += words;
                if terms > max_terms || work > max_work {
                    return None;
                }
                total += event.prob;
                level(levels, 0).clone_from(&event.mask);
                frames.clear();
                frames.push((0, top));
                while let Some(frame) = frames.last_mut() {
                    let (i, end) = *frame;
                    if i == end {
                        frames.pop();
                        continue;
                    }
                    frame.0 += 1;
                    // The child `S ∪ {i}` has `depth + 1` events.
                    let depth = frames.len();
                    level(levels, depth);
                    let (parents, children) = levels.split_at_mut(depth);
                    let child = &mut children[0];
                    parents[depth - 1].and_into(&self.events[i].mask, child);
                    let n = child.count();
                    work += words;
                    if n >= self.min_sup {
                        terms += 1;
                        work += k + (n * self.min_sup) as u64;
                    }
                    if terms > max_terms || work > max_work {
                        return None;
                    }
                    if n < self.min_sup {
                        continue;
                    }
                    let Some(term) = self.intersection_term(child, probs, dp) else {
                        continue;
                    };
                    if depth % 2 == 0 {
                        total += term;
                    } else {
                        total -= term;
                    }
                    frames.push((0, i));
                }
            }
            Some(prob::clamp_prob(total))
        })
    }

    /// Expected work of one Karp–Luby draw, in the position steps of
    /// [`NonClosureEvents::lattice_union`]: a draw picks event `i` with
    /// probability `Pr(C_i)/Z` and scatters one conditional trial over
    /// each position of its mask, so it costs the mass-weighted mean mask
    /// size `Σ Pr(C_i)·|mask_i| / Z`. Zero for an empty family.
    pub fn draw_work(&self) -> f64 {
        if self.total_mass <= 0.0 {
            return 0.0;
        }
        let weighted: f64 = self
            .events
            .iter()
            .map(|e| e.prob * e.mask.count() as f64)
            .sum();
        weighted / self.total_mass
    }

    /// Lemma 4.4 bounds on `Pr_FC(X) = pr_f − Pr(∪ C_e)` as
    /// `(lower, upper)`.
    ///
    /// Tiered for cost: the union bound `Σ Pr(C_e)` and the max-singleton
    /// bound need no pairwise joints; when they cannot already decide
    /// against `decision_threshold` (pass `pfct`; pass `None` to force the
    /// full computation), the de Caen / Kwerel bounds are evaluated over
    /// the `max_pairwise` highest-probability events with the dropped
    /// mass folded soundly into the upper union bound.
    pub fn fcp_bounds(
        &self,
        pr_f: f64,
        max_pairwise: usize,
        decision_threshold: Option<f64>,
    ) -> (f64, f64) {
        let (lo, hi, _) = self.fcp_bounds_explained(pr_f, max_pairwise, decision_threshold);
        (lo, hi)
    }

    /// [`NonClosureEvents::fcp_bounds`], additionally reporting which
    /// tier produced the sandwich ([`BoundTier`]). The `pfct`
    /// monotonicity carve needs the tier: a [`BoundTier::CheapEarly`]
    /// decision depends on the threshold the bounds were asked against,
    /// so a cached result set is only reusable below that decision's
    /// lower bound, while [`BoundTier::Refined`] and
    /// [`BoundTier::EmptyFamily`] sandwiches are threshold-independent.
    pub fn fcp_bounds_explained(
        &self,
        pr_f: f64,
        max_pairwise: usize,
        decision_threshold: Option<f64>,
    ) -> (f64, f64, BoundTier) {
        if self.events.is_empty() {
            return (pr_f, pr_f, BoundTier::EmptyFamily);
        }
        let s1 = self.total_mass;
        let max_single = self.events.iter().map(|e| e.prob).fold(0.0f64, f64::max);
        // Cheap sandwich: max_single ≤ Pr(∪) ≤ min(S1, 1).
        let mut lower_fc = (pr_f - s1.min(1.0)).max(0.0);
        let mut upper_fc = (pr_f - max_single).max(0.0);
        if let Some(threshold) = decision_threshold {
            if upper_fc <= threshold || lower_fc > threshold {
                return (lower_fc, upper_fc, BoundTier::CheapEarly);
            }
        }
        // Pairwise refinement over the heaviest events.
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by(|&a, &b| self.events[b].prob.total_cmp(&self.events[a].prob));
        order.truncate(max_pairwise.max(1));
        let dropped: f64 = s1 - order.iter().map(|&i| self.events[i].prob).sum::<f64>();
        let mut bounds =
            PairwiseUnionBounds::new(order.iter().map(|&i| self.events[i].prob).collect())
                .with_dropped_mass(dropped.max(0.0));
        for (a, &i) in order.iter().enumerate() {
            for (b, &j) in order.iter().enumerate().skip(a + 1) {
                let joint = if i < j {
                    self.joint(&[i, j])
                } else {
                    self.joint(&[j, i])
                };
                // Guard against DP rounding pushing the joint a hair above
                // a marginal.
                let cap = self.events[i].prob.min(self.events[j].prob);
                bounds.set_pair(a, b, joint.min(cap));
            }
        }
        lower_fc = lower_fc.max((pr_f - bounds.upper()).max(0.0));
        upper_fc = upper_fc.min((pr_f - bounds.lower()).max(0.0));
        (lower_fc, upper_fc, BoundTier::Refined)
    }

    fn sampler(&self, i: usize) -> &EventSampler {
        self.samplers[i].get_or_init(|| {
            let mask = &self.events[i].mask;
            let mask_probs = mask.iter().map(|pos| self.probs[pos]).collect();
            EventSampler {
                sampler: ConditionalBernoulliSampler::new(mask_probs, self.min_sup),
                positions: mask.iter().map(|pos| pos as u32).collect(),
            }
        })
    }
}

/// Is the world `present` (the words of a set of positions) a subset of
/// `mask`? Word-wise, stopping at the first word that differs.
fn within(present: &[u64], mask: &TidBitmap) -> bool {
    present.iter().zip(mask.words()).all(|(w, m)| w & !m == 0)
}

/// Number of present positions in a world.
fn present_count(world: &[u64]) -> usize {
    world.iter().map(|w| w.count_ones() as usize).sum()
}

/// Which tier of [`NonClosureEvents::fcp_bounds_explained`] produced
/// the returned sandwich (see that method's docs for why callers care).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundTier {
    /// No non-closure events: `(pr_f, pr_f)` exactly, independent of any
    /// decision threshold.
    EmptyFamily,
    /// The cheap `(S1, max-singleton)` sandwich already decided against
    /// the supplied threshold, so the pairwise refinement was skipped.
    /// The bounds returned from this tier are a function of the
    /// threshold (a different threshold may trigger the refinement).
    CheapEarly,
    /// The full de Caen / Kwerel pairwise refinement ran; the bounds are
    /// threshold-independent.
    Refined,
}

/// Outcome of the naive world-sampling estimator.
#[derive(Debug, Clone, Copy)]
pub struct NaiveSampleEstimate {
    /// Estimated `Pr{X is frequent closed}` (NOT the union term).
    pub fcp: f64,
    /// Worlds sampled.
    pub samples: usize,
}

impl NonClosureEvents {
    /// The paper's *naive sampling method* (Section IV.B.4): sample `n`
    /// unconditioned possible worlds (restricted to `T(X)`, which is all
    /// that matters) and return the fraction in which `X` is a frequent
    /// closed itemset.
    ///
    /// Unlike [`crate::fcp::approx_fcp`] this estimates the FCP directly
    /// rather than the non-closure union, so its *relative* accuracy on
    /// rare events is poor and — the paper's criticism — "we cannot know
    /// the exact number of samplings that we need to run before all
    /// samplings end": there is no a-priori `n` giving an `(ε, δ)`
    /// relative-error guarantee. Kept as the baseline the coverage
    /// algorithm is measured against.
    pub fn naive_sampling_fcp<R: Rng + ?Sized>(
        &self,
        samples: usize,
        rng: &mut R,
    ) -> NaiveSampleEstimate {
        let mut present = self.new_world();
        let mut hits = 0usize;
        for _ in 0..samples {
            // Draw the world restricted to T(X).
            present.fill(0);
            let mut count = 0usize;
            for (pos, &p) in self.probs.iter().enumerate() {
                let b = rng.random::<f64>() < p;
                count += b as usize;
                present[pos / 64] |= (b as u64) << (pos % 64);
            }
            if count < self.min_sup {
                continue;
            }
            // X is closed in the world iff no extension covers every
            // present supporting transaction.
            let tied = self
                .events
                .iter()
                .any(|event| within(&present, &event.mask));
            hits += !tied as usize;
        }
        NaiveSampleEstimate {
            fcp: hits as f64 / samples.max(1) as f64,
            samples,
        }
    }
}

impl UnionEventSystem for NonClosureEvents {
    /// A sampled world, restricted to the positions of `T(X)`: the words
    /// of the set of *present* positions (position `p` at bit `p % 64` of
    /// word `p / 64`).
    type World = Vec<u64>;

    fn num_events(&self) -> usize {
        self.events.len()
    }

    fn event_prob(&self, i: usize) -> f64 {
        self.events[i].prob
    }

    fn new_world(&self) -> Vec<u64> {
        vec![0; self.probs.len().div_ceil(64)]
    }

    fn sample_world_given<R: Rng + ?Sized>(&self, i: usize, rng: &mut R, world: &mut Vec<u64>) {
        // Positions outside the mask are forced absent by C_i; the
        // conditional draws land straight on the mask positions.
        let EventSampler { sampler, positions } = self.sampler(i);
        sampler.sample_scatter(rng, positions, world);
        debug_assert!(
            present_count(world) >= self.min_sup,
            "a world drawn given C_i holds at least min_sup present positions"
        );
    }

    /// A world drawn given some `C_i` already holds at least `min_sup`
    /// present positions, so `C_j` reduces to "every present position
    /// lies in `T(X∪e_j)`".
    fn world_satisfies(&self, world: &Vec<u64>, j: usize) -> bool {
        debug_assert!(
            present_count(world) >= self.min_sup,
            "world_satisfies needs a world drawn by sample_world_given"
        );
        within(world, &self.events[j].mask)
    }
}

/// A memoizable *superset* of a non-closure event family: one entry per
/// database item (positive-probability events only), built once for a
/// tid-set `T` and reusable for **every** itemset `X` with `T(X) = T`.
///
/// The per-event computation depends only on `(T, e, min_sup)` — never on
/// `X` itself — so two itemsets with identical supporting tuples (exactly
/// the situation subset pruning exploits) share all of it. The evaluator
/// keys a small LRU of these tables by tid-set fingerprint;
/// [`EventTable::family_excluding`] then projects the table onto a
/// concrete `X` by dropping `X`'s own items, reproducing
/// [`NonClosureEvents::build`] bit-for-bit.
pub struct EventTable {
    /// The supporting tuples the table was built for.
    tids: TidBitmap,
    /// Existential probabilities of `tids`, position-indexed.
    probs: Vec<f64>,
    min_sup: usize,
    /// Positive-probability events for ALL items, ascending item order.
    entries: Vec<NcEvent>,
    /// Items examined (= the database's item-id range).
    considered: usize,
}

impl EventTable {
    /// Build the all-items event table for the supporting tuples `tids`.
    pub fn build(db: &UncertainDatabase, tids: &TidBitmap, min_sup: usize) -> Self {
        Self::build_memoized(db, tids, &mut TailMemo::new(db, min_sup))
    }

    /// [`EventTable::build`] at the memo's `min_sup`, taking each tail from
    /// the run's [`TailMemo`] when an earlier build already computed it.
    pub(crate) fn build_memoized(
        db: &UncertainDatabase,
        tids: &TidBitmap,
        memo: &mut TailMemo,
    ) -> Self {
        let min_sup = memo.min_sup;
        let probs: Vec<f64> = tids.iter().map(|tid| db.probability(tid)).collect();
        let mut scratch = BuildScratch::new(min_sup, probs.len());
        let considered = db.num_items();
        let entries = (0..considered as u32)
            .filter_map(|id| event_for_item(db, tids, &probs, Item(id), &mut scratch, memo))
            .collect();
        Self {
            tids: tids.clone(),
            probs,
            min_sup,
            entries,
            considered,
        }
    }

    /// The tid-set the table was built for — callers verify full equality
    /// on fingerprint-keyed cache hits.
    pub fn tids(&self) -> &TidBitmap {
        &self.tids
    }

    /// The support threshold the table was built for.
    pub fn min_sup(&self) -> usize {
        self.min_sup
    }

    /// Project the table onto the itemset whose items are `exclude`
    /// (sorted or not): the family of every *other* item's event.
    ///
    /// Produces exactly what `NonClosureEvents::build(db, tids, all items
    /// except exclude, min_sup)` would — same events, same order, same
    /// floats — because every entry was computed by the same shared
    /// constructor and item order is preserved.
    pub fn family_excluding(&self, exclude: &[Item]) -> NonClosureEvents {
        let events: Vec<NcEvent> = self
            .entries
            .iter()
            .filter(|e| !exclude.contains(&e.item))
            .cloned()
            .collect();
        NonClosureEvents::from_parts(
            self.probs.clone(),
            self.min_sup,
            events,
            self.considered - exclude.len(),
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use utdb::PossibleWorlds;

    /// A dense generated database: 240 Quest rows, ~8 of 16 items each,
    /// Gaussian probabilities around 0.8. Tid-sets of `X ∪ e` repeat
    /// across itemsets, which is what the tail memo exploits.
    pub(crate) fn dense_db() -> UncertainDatabase {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let quest = utdb::gen::QuestConfig {
            avg_transaction_len: 8.0,
            avg_pattern_len: 4.0,
            num_items: 16,
            num_patterns: 20,
            ..utdb::gen::QuestConfig::t20i10_p40(240)
        };
        let mut rng = SmallRng::seed_from_u64(41);
        utdb::assign_gaussian_probabilities(&quest.generate(&mut rng), 0.8, 0.1, &mut rng)
    }

    /// Every itemset of 1 to 3 items, in lexicographic order.
    fn small_itemsets(num_items: u32) -> Vec<Vec<Item>> {
        let mut out = Vec::new();
        for a in 0..num_items {
            out.push(vec![Item(a)]);
            for b in a + 1..num_items {
                out.push(vec![Item(a), Item(b)]);
                for c in b + 1..num_items {
                    out.push(vec![Item(a), Item(b), Item(c)]);
                }
            }
        }
        out
    }

    /// Same items, masks and `Pr(C_e)` bits, event for event.
    fn assert_same_events(a: &NonClosureEvents, b: &NonClosureEvents, what: &str) {
        assert_eq!(a.considered_items(), b.considered_items(), "{what}");
        assert_eq!(a.len(), b.len(), "{what}");
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.item, y.item, "{what}");
            assert_eq!(x.mask, y.mask, "{what} item {}", x.item);
            assert_eq!(x.prob.to_bits(), y.prob.to_bits(), "{what} item {}", x.item);
        }
        assert_eq!(a.total_mass().to_bits(), b.total_mass().to_bits(), "{what}");
    }

    fn table2() -> UncertainDatabase {
        UncertainDatabase::parse_symbolic(&[
            ("a b c d", 0.9),
            ("a b c", 0.6),
            ("a b c", 0.7),
            ("a b c d", 0.9),
        ])
    }

    fn items(db: &UncertainDatabase, s: &str) -> Vec<Item> {
        s.split_whitespace()
            .map(|x| db.dictionary().get(x).unwrap())
            .collect()
    }

    fn family_for(db: &UncertainDatabase, x: &[Item], min_sup: usize) -> NonClosureEvents {
        let tids = db.tidset_of_itemset(x).into_bitmap();
        let ext = (0..db.num_items() as u32)
            .map(Item)
            .filter(|i| !x.contains(i));
        NonClosureEvents::build(db, &tids, ext, min_sup)
    }

    /// Oracle: Pr(C_e) measured by world enumeration.
    fn brute_event_prob(db: &UncertainDatabase, x: &[Item], e: Item, min_sup: usize) -> f64 {
        let mut xe = x.to_vec();
        xe.push(e);
        xe.sort_unstable();
        let x_tids = db.tidset_of_itemset(x);
        let xe_tids = db.tidset_of_itemset(&xe);
        PossibleWorlds::new(db)
            .filter(|&(mask, _)| {
                let diff_absent = x_tids
                    .difference(&xe_tids)
                    .iter()
                    .all(|tid| mask >> tid & 1 == 0);
                let sup_xe = xe_tids.iter().filter(|&t| mask >> t & 1 == 1).count();
                diff_absent && sup_xe >= min_sup
            })
            .map(|(_, p)| p)
            .sum()
    }

    #[test]
    fn singleton_probabilities_match_world_oracle() {
        let db = table2();
        for x_s in ["a b c", "a b c d", "d"] {
            let x = items(&db, x_s);
            for min_sup in 1..=3 {
                let fam = family_for(&db, &x, min_sup);
                for i in 0..fam.len() {
                    let e = fam.item(i);
                    let oracle = brute_event_prob(&db, &x, e, min_sup);
                    assert!(
                        (fam.event_prob(i) - oracle).abs() < 1e-10,
                        "X={x_s} e={e} ms={min_sup}: {} vs {oracle}",
                        fam.event_prob(i)
                    );
                }
            }
        }
    }

    #[test]
    fn abc_family_is_the_single_d_event() {
        // For X = {a,b,c} at min_sup 2 the only co-occurring extension is
        // d: Pr(C_d) = (1-0.6)(1-0.7) * Pr{sup(abcd) >= 2} = .12 * .81.
        let db = table2();
        let fam = family_for(&db, &items(&db, "a b c"), 2);
        assert_eq!(fam.len(), 1);
        assert!((fam.event_prob(0) - 0.12 * 0.81).abs() < 1e-12);
        // Pr_FC(abc) = Pr_F - Pr(C_d) = 0.9726 - 0.0972 = 0.8754.
        let (lo, hi) = fam.fcp_bounds(0.9726, 16, None);
        assert!(lo <= 0.8754 + 1e-9 && 0.8754 <= hi + 1e-9);
        assert!((hi - lo) < 1e-9, "single event: bounds are tight");
    }

    #[test]
    fn maximal_itemset_has_empty_family() {
        let db = table2();
        let fam = family_for(&db, &items(&db, "a b c d"), 2);
        assert!(fam.is_empty());
        let (lo, hi) = fam.fcp_bounds(0.81, 16, None);
        assert_eq!((lo, hi), (0.81, 0.81));
    }

    #[test]
    fn joints_match_world_oracle() {
        // For X = {d}: extensions a, b, c all cover T(d) fully; their
        // joints must match direct enumeration.
        let db = table2();
        let x = items(&db, "d");
        let min_sup = 1;
        let fam = family_for(&db, &x, min_sup);
        assert!(fam.len() >= 2);
        let x_tids = db.tidset_of_itemset(&x);
        for i in 0..fam.len() {
            for j in (i + 1)..fam.len() {
                let (ei, ej) = (fam.item(i), fam.item(j));
                let oracle: f64 = PossibleWorlds::new(&db)
                    .filter(|&(mask, _)| {
                        let mut sup = 0usize;
                        let mut ok = true;
                        for tid in x_tids.iter() {
                            let present = mask >> tid & 1 == 1;
                            let has_both =
                                db.tidset_of(ei).contains(tid) && db.tidset_of(ej).contains(tid);
                            if present && !has_both {
                                ok = false;
                                break;
                            }
                            sup += (present && has_both) as usize;
                        }
                        ok && sup >= min_sup
                    })
                    .map(|(_, p)| p)
                    .sum();
                let joint = fam.joint(&[i, j]);
                assert!(
                    (joint - oracle).abs() < 1e-10,
                    "C_{ei} ∧ C_{ej}: {joint} vs {oracle}"
                );
            }
        }
    }

    #[test]
    fn joint_of_empty_subset_is_one_and_singleton_is_event_prob() {
        let db = table2();
        let fam = family_for(&db, &items(&db, "d"), 1);
        assert_eq!(fam.joint(&[]), 1.0);
        for i in 0..fam.len() {
            assert_eq!(fam.joint(&[i]), fam.event_prob(i));
        }
    }

    #[test]
    fn bounds_sandwich_exact_union() {
        let db = table2();
        for (x_s, ms) in [("d", 1), ("a", 2), ("a b", 2), ("c", 3)] {
            let x = items(&db, x_s);
            let fam = family_for(&db, &x, ms);
            if fam.is_empty() {
                continue;
            }
            let exact_union = prob::exact_union_probability(fam.len(), |s| fam.joint(s));
            let pr_f = pfim::frequent_probability(&db, &x, ms);
            let exact_fc = (pr_f - exact_union).max(0.0);
            let (lo, hi) = fam.fcp_bounds(pr_f, 16, None);
            assert!(
                lo <= exact_fc + 1e-9 && exact_fc <= hi + 1e-9,
                "X={x_s} ms={ms}: [{lo}, {hi}] vs {exact_fc}"
            );
        }
    }

    #[test]
    fn bounds_with_event_cap_remain_sound() {
        let db = table2();
        let x = items(&db, "d");
        let fam = family_for(&db, &x, 1);
        let pr_f = pfim::frequent_probability(&db, &x, 1);
        let exact_union = prob::exact_union_probability(fam.len(), |s| fam.joint(s));
        let exact_fc = (pr_f - exact_union).max(0.0);
        for cap in 1..=fam.len() {
            let (lo, hi) = fam.fcp_bounds(pr_f, cap, None);
            assert!(
                lo <= exact_fc + 1e-9 && exact_fc <= hi + 1e-9,
                "cap={cap}: [{lo}, {hi}] vs {exact_fc}"
            );
        }
    }

    #[test]
    fn early_decision_skips_pairwise() {
        // With a decision threshold far below the cheap lower bound, the
        // tiered computation must return the cheap sandwich unchanged.
        let db = table2();
        let x = items(&db, "a b c");
        let fam = family_for(&db, &x, 2);
        let (lo, hi) = fam.fcp_bounds(0.9726, 16, Some(0.0));
        assert!(lo > 0.0, "cheap lower bound decides: {lo} {hi}");
    }

    #[test]
    fn sampled_worlds_satisfy_their_event() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let db = table2();
        let fam = family_for(&db, &items(&db, "d"), 1);
        let mut rng = SmallRng::seed_from_u64(17);
        let mut w = fam.new_world();
        for i in 0..fam.len() {
            for _ in 0..200 {
                fam.sample_world_given(i, &mut rng, &mut w);
                assert!(fam.world_satisfies(&w, i));
            }
        }
    }

    #[test]
    fn naive_sampling_tracks_exact_fcp() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let db = table2();
        for (x_s, ms) in [("a b c", 2), ("a", 2), ("d", 1)] {
            let x = items(&db, x_s);
            let fam = family_for(&db, &x, ms);
            let exact = crate::exact::exact_fcp_by_worlds(&db, &x, ms);
            let mut rng = SmallRng::seed_from_u64(41);
            let est = fam.naive_sampling_fcp(200_000, &mut rng);
            assert!(
                (est.fcp - exact).abs() < 0.01,
                "X={x_s}: naive {} vs exact {exact}",
                est.fcp
            );
        }
    }

    #[test]
    fn family_is_sync_and_draws_identically_from_every_thread() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        fn assert_sync<T: Sync>(_: &T) {}
        let db = table2();
        let fam = family_for(&db, &items(&db, "d"), 1);
        assert_sync(&fam);
        // Equal RNG state ⇒ bit-identical Karp–Luby estimates, whichever
        // thread built the lazy samplers.
        let estimate = |f: &NonClosureEvents| {
            prob::karp_luby_union_with_samples(f, 5_000, &mut SmallRng::seed_from_u64(99))
        };
        let there = std::thread::scope(|s| s.spawn(|| estimate(&fam)).join().unwrap());
        let here = estimate(&fam);
        let fresh = estimate(&family_for(&db, &items(&db, "d"), 1));
        for other in [here, fresh] {
            assert_eq!(there.estimate.to_bits(), other.estimate.to_bits());
            assert_eq!(there.samples, other.samples);
        }
    }

    #[test]
    fn event_table_projection_is_bitwise_identical_to_direct_build() {
        let db = table2();
        for (x_s, ms) in [("a b c", 2), ("d", 1), ("a", 2), ("a b", 2), ("c", 3)] {
            let x = items(&db, x_s);
            let direct = family_for(&db, &x, ms);
            let tids = db.tidset_of_itemset(&x).into_bitmap();
            let table = EventTable::build(&db, &tids, ms);
            assert_eq!(table.tids(), &tids);
            assert_eq!(table.min_sup(), ms);
            let projected = table.family_excluding(&x);
            assert_eq!(projected.considered_items(), direct.considered_items());
            assert_eq!(projected.len(), direct.len());
            assert_eq!(
                projected.total_mass().to_bits(),
                direct.total_mass().to_bits(),
                "X={x_s}"
            );
            for i in 0..direct.len() {
                assert_eq!(projected.item(i), direct.item(i));
                assert_eq!(
                    projected.event_prob(i).to_bits(),
                    direct.event_prob(i).to_bits(),
                    "X={x_s} event {i}"
                );
            }
            // Joints and bounds go through masks and mask probabilities —
            // exercise them too.
            if direct.len() >= 2 {
                assert_eq!(
                    projected.joint(&[0, 1]).to_bits(),
                    direct.joint(&[0, 1]).to_bits()
                );
            }
            let (lo_a, hi_a) = direct.fcp_bounds(0.9, 16, None);
            let (lo_b, hi_b) = projected.fcp_bounds(0.9, 16, None);
            assert_eq!(
                (lo_a.to_bits(), hi_a.to_bits()),
                (lo_b.to_bits(), hi_b.to_bits())
            );
        }
    }

    #[test]
    fn event_table_covers_x_items_with_full_masks() {
        // Items of X always have T(X∪e) = T(X): their table entry is the
        // full-mask event whose tail is the plain frequentness tail.
        let db = table2();
        let x = items(&db, "a b c");
        let tids = db.tidset_of_itemset(&x).into_bitmap();
        let table = EventTable::build(&db, &tids, 2);
        // All four items co-occur with abc on its full tid-set or a
        // subset; a, b, c entries must carry prob == Pr{sup(abc) >= 2}.
        let pr_f = pfim::frequent_probability(&db, &x, 2);
        let fam_all = table.family_excluding(&[]);
        for i in 0..fam_all.len() {
            if x.contains(&fam_all.item(i)) {
                assert!((fam_all.event_prob(i) - pr_f).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn karp_luby_on_family_matches_inclusion_exclusion() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let db = table2();
        for (x_s, ms) in [("d", 1), ("a", 2), ("a b", 2)] {
            let x = items(&db, x_s);
            let fam = family_for(&db, &x, ms);
            if fam.is_empty() {
                continue;
            }
            let exact = prob::exact_union_probability(fam.len(), |s| fam.joint(s));
            let mut rng = SmallRng::seed_from_u64(23);
            let est = prob::karp_luby_union(&fam, 0.05, 0.05, &mut rng);
            assert!(
                (est.estimate - exact).abs() <= 0.05 * exact + 0.01,
                "X={x_s} ms={ms}: {} vs {exact}",
                est.estimate
            );
        }
    }

    /// A family over positions of existential probabilities `probs`, one
    /// event per mask (a list of positions), each `Pr(C_e)` computed with
    /// the joint arithmetic; zero-probability events are dropped, as a
    /// build drops them.
    pub(crate) fn synthetic_family(
        probs: Vec<f64>,
        masks: &[Vec<usize>],
        min_sup: usize,
    ) -> NonClosureEvents {
        let k = probs.len();
        let shell = NonClosureEvents::from_parts(probs.clone(), min_sup, Vec::new(), 0);
        let (mut scratch_probs, mut dp) = (Vec::new(), Vec::new());
        let events = masks
            .iter()
            .enumerate()
            .filter_map(|(id, positions)| {
                let mask = TidBitmap::from_tids(k, positions.iter().copied());
                let prob = shell.intersection_term(&mask, &mut scratch_probs, &mut dp)?;
                (prob > 0.0).then_some(NcEvent {
                    item: Item(id as u32),
                    mask,
                    prob,
                })
            })
            .collect();
        NonClosureEvents::from_parts(probs, min_sup, events, masks.len())
    }

    /// A random family: `m` events over `k` positions, each position in
    /// each mask with probability `density`, `min_sup` at most half the
    /// positions. One position in thirty is certain (`p = 1`), so
    /// absence factors of exactly zero occur.
    fn random_family(m: usize, k: usize, density: f64, seed: u64) -> NonClosureEvents {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let probs: Vec<f64> = (0..k)
            .map(|_| {
                if rng.random::<f64>() < 1.0 / 30.0 {
                    1.0
                } else {
                    0.05 + 0.9 * rng.random::<f64>()
                }
            })
            .collect();
        let masks: Vec<Vec<usize>> = (0..m)
            .map(|_| (0..k).filter(|_| rng.random::<f64>() < density).collect())
            .collect();
        let min_sup = rng.random_range(1..=k.div_ceil(2));
        synthetic_family(probs, &masks, min_sup)
    }

    fn dense_union(fam: &NonClosureEvents) -> f64 {
        prob::exact_union_probability(fam.len(), |s| fam.joint(s))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The lattice walk reproduces the dense `2^m` loop bit for bit.
        #[test]
        fn lattice_union_is_bit_identical_to_the_dense_loop(
            m in 1usize..=16,
            k in 1usize..=40,
            density in 0.4f64..1.0,
            seed in 0u64..u64::MAX,
        ) {
            let fam = random_family(m, k, density, seed);
            let lattice = fam.lattice_union(MAX_EXACT_TERMS, u64::MAX).expect("within the cap");
            proptest::prop_assert_eq!(lattice.to_bits(), dense_union(&fam).to_bits());
        }
    }

    /// Sixteen events that all cover all forty positions: every one of
    /// the `2^16 − 1` intersections clears min_sup, nothing is pruned.
    pub(crate) fn full_lattice() -> NonClosureEvents {
        let probs: Vec<f64> = (0..40).map(|p| 0.5 + p as f64 / 100.0).collect();
        synthetic_family(probs, &vec![(0..40).collect::<Vec<_>>(); 16], 5)
    }

    /// Forty events on disjoint pairs of positions at min_sup 2: no two
    /// events share two positions, so the lattice is the forty
    /// singletons. The events are mutually exclusive.
    pub(crate) fn wide_sparse_family() -> NonClosureEvents {
        let probs: Vec<f64> = (0..80).map(|p| 0.6 + (p % 7) as f64 / 20.0).collect();
        let masks: Vec<Vec<usize>> = (0..40).map(|i| vec![2 * i, 2 * i + 1]).collect();
        synthetic_family(probs, &masks, 2)
    }

    #[test]
    fn lattice_union_enumerates_every_term_of_a_full_lattice() {
        let fam = full_lattice();
        assert_eq!(fam.len(), 16);
        let all = (1 << 16) - 1;
        let union = fam
            .lattice_union(all, u64::MAX)
            .expect("exactly 2^16 - 1 terms");
        assert_eq!(union.to_bits(), dense_union(&fam).to_bits());
        assert_eq!(
            fam.lattice_union(all - 1, u64::MAX),
            None,
            "one term over budget"
        );
    }

    #[test]
    fn lattice_union_of_a_wide_sparse_family_stays_cheap() {
        // Forty singleton terms; the union of mutually exclusive events is
        // their summed mass.
        let fam = wide_sparse_family();
        assert_eq!(fam.len(), 40);
        assert_eq!(fam.lattice_union(39, u64::MAX), None);
        let union = fam
            .lattice_union(40, u64::MAX)
            .expect("forty singleton terms");
        assert_eq!(union.to_bits(), fam.total_mass().to_bits());
    }

    #[test]
    fn lattice_union_charges_every_subset_it_looks_at() {
        // Eighty positions are two words. The forty singletons cost their
        // mask copy, 40 · 2; each of the 40·39/2 pairs is looked at once,
        // an AND and a popcount of 2 words, and pruned (no two masks
        // share a position).
        let fam = wide_sparse_family();
        let work = 40 * 2 + 780 * 2;
        let union = fam
            .lattice_union(40, work)
            .expect("exactly the walk's work");
        assert_eq!(union.to_bits(), fam.total_mass().to_bits());
        assert_eq!(
            fam.lattice_union(40, work - 1),
            None,
            "one unit over budget"
        );
        // A full lattice also charges each term's scan and tail DP:
        // 2^16 − 1 − 16 terms of 40 positions, min_sup 5, one word.
        let fam = full_lattice();
        let pairs_and_up = (1u64 << 16) - 1 - 16;
        let work = 16 + pairs_and_up * (1 + 40 + 40 * 5);
        assert!(fam.lattice_union(MAX_EXACT_TERMS, work).is_some());
        assert_eq!(fam.lattice_union(MAX_EXACT_TERMS, work - 1), None);
    }

    #[test]
    fn draw_work_is_the_mass_weighted_mask_size() {
        assert_eq!(wide_sparse_family().draw_work(), 2.0);
        assert_eq!(full_lattice().draw_work(), 40.0);
        let empty = NonClosureEvents::from_parts(vec![0.5; 3], 2, Vec::new(), 4);
        assert_eq!(empty.draw_work(), 0.0);
    }

    #[test]
    fn tail_memo_is_bit_identical_to_direct_builds_in_any_order() {
        let db = dense_db();
        let min_sup = 48; // 20% of the rows
        let itemsets = small_itemsets(db.num_items() as u32);
        // Forward, reverse, and forward through a memo small enough to
        // start over many times.
        for (reverse, max_bytes) in [(false, None), (true, None), (false, Some(4096))] {
            let mut memo = TailMemo::new(&db, min_sup);
            if let Some(max_bytes) = max_bytes {
                memo.max_bytes = max_bytes;
            }
            let mut events = 0usize;
            let order: Box<dyn Iterator<Item = &Vec<Item>>> = if reverse {
                Box::new(itemsets.iter().rev())
            } else {
                Box::new(itemsets.iter())
            };
            for x in order {
                let tids = db.tidset_of_itemset(x).into_bitmap();
                let table = EventTable::build_memoized(&db, &tids, &mut memo);
                let memoized = table.family_excluding(x);
                let direct = family_for(&db, x, min_sup);
                assert_same_events(
                    &memoized,
                    &direct,
                    &format!("X={x:?} reverse={reverse} max_bytes={max_bytes:?}"),
                );
                events += table.entries.len();
            }
            assert!(events > 1000, "the database is dense: {events} events");
            if max_bytes.is_some() {
                assert!(memo.bytes() <= memo.max_bytes);
            } else {
                // Most tails are repeats: the memo holds far fewer
                // entries than the tables hold events.
                assert!(
                    memo.index.len() * 3 < events,
                    "{} memo entries for {events} events",
                    memo.index.len()
                );
            }
        }
    }

    #[test]
    fn tail_memo_collision_falls_back_to_a_fresh_tail() {
        let db = dense_db();
        let min_sup = 48;
        let n = db.num_items() as u32;
        let (x, e) = (0..n)
            .flat_map(|a| (0..n).map(move |e| (Item(a), Item(e))))
            .find(|&(a, e)| a != e && db.bitmap_of(a).and_count(db.bitmap_of(e)) >= min_sup)
            .expect("the dense base has a frequent pair");
        let x = [x];
        let x_tids = db.bitmap_of(x[0]).clone();
        let key = x_tids.and(db.bitmap_of(e));
        // A different T(X') ∧ T(e') planted under the key's fingerprint,
        // with a tail no DP would return.
        let (other, other_item) = (db.bitmap_of(Item(0)).clone(), Item(n - 1));
        assert_ne!(other.and(db.bitmap_of(other_item)), key);
        let mut memo = TailMemo::new(&db, min_sup);
        memo.arena.extend_from_slice(other.words());
        let planted = TailEntry {
            slot: 0,
            item: other_item,
            tail: 0.5,
        };
        memo.index.insert(key.fingerprint(), planted);

        let table = EventTable::build_memoized(&db, &x_tids, &mut memo);
        assert_same_events(
            &table.family_excluding(&x),
            &family_for(&db, &x, min_sup),
            "collided key",
        );
        let kept = memo.index[&key.fingerprint()];
        assert_eq!(
            (kept.slot, kept.item, kept.tail.to_bits()),
            (0, other_item, 0.5f64.to_bits()),
            "a collision is not stored"
        );
    }

    #[test]
    fn offered_row_tails_serve_builds_across_start_overs() {
        let db = dense_db();
        let min_sup = 48;
        let n = db.num_items() as u32;
        // A memo small enough to start over every few dozen entries: a
        // node's slot must then read as unregistered, not point into the
        // cleared arena.
        for max_bytes in [None, Some(4096)] {
            let mut memo = TailMemo::new(&db, min_sup);
            if let Some(max_bytes) = max_bytes {
                memo.max_bytes = max_bytes;
            }
            let mut starts = 0;
            for x in small_itemsets(n).iter().filter(|x| x.len() <= 2) {
                let x_tids = db.tidset_of_itemset(x).into_bitmap();
                let mut slot = MemoSlot::default();
                for e in (0..n).map(Item) {
                    let xe_tids = x_tids.and(db.bitmap_of(e));
                    if xe_tids.count() < min_sup {
                        continue;
                    }
                    let probs: Vec<f64> = xe_tids.iter().map(|t| db.probability(t)).collect();
                    let row = prob::TailDp::from_probs(min_sup, probs.iter().copied());
                    let generation = memo.generation;
                    memo.offer(&x_tids, &mut slot, e, &xe_tids, row.fresh_tail().unwrap());
                    starts += usize::from(memo.generation != generation);
                    let entry = memo.index[&xe_tids.fingerprint()];
                    assert!(memo.verify(&db, &entry, &xe_tids), "X={x:?} e={e}");
                    assert_eq!(
                        entry.tail.to_bits(),
                        prob::poisson_binomial::tail_at_least(&probs, min_sup).to_bits()
                    );
                }
                let table = EventTable::build_memoized(&db, &x_tids, &mut memo);
                assert_same_events(
                    &table.family_excluding(x),
                    &family_for(&db, x, min_sup),
                    &format!("X={x:?} max_bytes={max_bytes:?}"),
                );
            }
            assert_eq!(starts > 0, max_bytes.is_some(), "{starts} start-overs");
        }
    }
}
