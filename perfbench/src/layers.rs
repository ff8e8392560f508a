//! Layer replays: the traced run calls each kernel layer's public
//! functions on the itemsets a workload mined, and times every call.
//!
//! The replayed calls are the ones the miner makes for each itemset —
//! tid-set intersection, the frequentness DP and its downdate, the event
//! table, the Lemma 4.4 bounds, one `approx_fcp`, a cache round trip —
//! so a change to a kernel shows in its unit cost (ns per word, per DP
//! cell, per event entry, per draw) whether or not the workload's own
//! mines reach it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pfcim_core::{approx_fcp, EventTable, SharedEventCache};
use prob::TailDp;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use utdb::{Item, SlidingWindow, TidBitmap, UncertainDatabase, UncertainTransaction};

use crate::spans::Tracer;

/// At most this many mined itemsets are replayed, evenly spaced over the
/// canonical result order.
pub const REPLAY_ITEMSETS: usize = 24;

/// `approx_fcp` tolerance of the replay: looser than the paper's 0.1 so
/// the replay stays short on dense families; the cost per draw does not
/// depend on it.
const REPLAY_EPSILON: f64 = 0.5;
const REPLAY_DELTA: f64 = 0.1;
/// Repetitions of the sub-microsecond calls, so each timing is well
/// above the clock's resolution.
const BITSET_REPS: usize = 256;
const DP_REPS: usize = 8;
const DOWNDATES: usize = 16;
/// Push/expire pairs timed by the window replay.
const WINDOW_TX: usize = 20_000;
const WINDOW_CAPACITY: usize = 256;

/// Up to [`REPLAY_ITEMSETS`] itemsets, evenly spaced; the single items
/// of the database when nothing was mined.
pub fn pick(db: &UncertainDatabase, mined: &[Vec<Item>]) -> Vec<Vec<Item>> {
    let pool: Vec<Vec<Item>> = if mined.is_empty() {
        (0..db.num_items() as u32)
            .map(|i| vec![Item(i)])
            .filter(|x| db.count_of_itemset(x) > 0)
            .collect()
    } else {
        mined.to_vec()
    };
    let step = pool.len().div_ceil(REPLAY_ITEMSETS).max(1);
    pool.into_iter().step_by(step).collect()
}

/// Replay the kernel layers on `itemsets` and add their metrics to
/// `out`: `bitset.ns_per_word`, `dp.freq_s`, `dp.ns_per_cell`,
/// `dp.downdate_ns`, `events.build_s`, `events.entries`,
/// `events.ns_per_entry`, `events.bound_eval_s`, `fcp.sample_s`,
/// `fcp.ns_per_draw` and `window.push_pop_ns`.
pub fn replay(
    db: &UncertainDatabase,
    itemsets: &[Vec<Item>],
    min_sup: usize,
    pfct: f64,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut BTreeMap<String, f64>,
) {
    let (mut bitset_t, mut words) = (Duration::ZERO, 0u64);
    let (mut dp_t, mut cells) = (Duration::ZERO, 0u64);
    let (mut downdate_t, mut downdates) = (Duration::ZERO, 0u64);
    let (mut build_t, mut entries) = (Duration::ZERO, 0u64);
    let mut bound_t = Duration::ZERO;
    let (mut sample_t, mut draws) = (Duration::ZERO, 0u64);
    let cache = SharedEventCache::new(REPLAY_ITEMSETS);
    let mut rng = SmallRng::seed_from_u64(seed);

    tracer.enter("bench", 0);
    for (req, x) in itemsets.iter().enumerate() {
        let req = req as u64 + 1;
        let first = db.bitmap_of(x[0]);

        tracer.enter("utdb.bitset", req);
        let mut scratch = first.clone();
        let t = Instant::now();
        for _ in 0..BITSET_REPS {
            for item in x {
                first.and_into(db.bitmap_of(*item), &mut scratch);
                black_box(&scratch);
            }
        }
        bitset_t += t.elapsed();
        words += (BITSET_REPS * x.len() * first.word_len()) as u64;
        let mut tids: TidBitmap = first.clone();
        for item in &x[1..] {
            tids.and_assign(db.bitmap_of(*item));
        }
        tracer.exit();

        let probs: Vec<f64> = tids.iter().map(|tid| db.probability(tid)).collect();
        tracer.enter("prob.poisson_binomial", req);
        let t = Instant::now();
        let mut row = TailDp::new(min_sup);
        for _ in 0..DP_REPS {
            row = black_box(TailDp::from_probs(min_sup, probs.iter().copied()));
        }
        dp_t += t.elapsed();
        cells += (DP_REPS * probs.len() * min_sup) as u64;
        for &p in probs.iter().take(DOWNDATES) {
            let mut copy = row.clone();
            let t = Instant::now();
            black_box(copy.try_remove(p, 1e-9));
            downdate_t += t.elapsed();
            downdates += 1;
        }
        tracer.exit();
        let pr_f = row.tail();

        tracer.enter("core.events", req);
        let t = Instant::now();
        let table = Arc::new(EventTable::build(db, &tids, min_sup));
        build_t += t.elapsed();
        entries += (db.num_items() * probs.len()) as u64;
        tracer.exit();

        tracer.enter("core.cache", req);
        cache.insert(tids.fingerprint(), Arc::clone(&table));
        let table = cache
            .get(tids.fingerprint(), &tids, min_sup)
            .expect("a table just inserted is resident");
        tracer.exit();

        tracer.enter("core.events", req);
        let family = table.family_excluding(x);
        let t = Instant::now();
        black_box(family.fcp_bounds(pr_f, 48, Some(pfct)));
        bound_t += t.elapsed();
        tracer.exit();

        tracer.enter("core.fcp", req);
        let t = Instant::now();
        let est = approx_fcp(&family, pr_f, REPLAY_EPSILON, REPLAY_DELTA, &mut rng);
        sample_t += t.elapsed();
        draws += est.samples as u64;
        tracer.exit();
    }

    tracer.enter("utdb.window", 0);
    let rows = db.transactions();
    let feed: Vec<UncertainTransaction> = (0..WINDOW_TX)
        .map(|i| rows[i % rows.len()].clone())
        .collect();
    let mut window = SlidingWindow::new(db.dictionary().clone(), WINDOW_CAPACITY);
    let t = Instant::now();
    for tx in feed {
        window.push(tx);
        if window.len() > WINDOW_CAPACITY {
            black_box(window.pop());
        }
    }
    let window_t = t.elapsed();
    tracer.exit();
    tracer.exit();

    let per = |d: Duration, n: u64| {
        if n == 0 {
            0.0
        } else {
            d.as_nanos() as f64 / n as f64
        }
    };
    for (name, value) in [
        ("bitset.ns_per_word", per(bitset_t, words)),
        ("dp.freq_s", dp_t.as_secs_f64()),
        ("dp.ns_per_cell", per(dp_t, cells)),
        ("dp.downdate_ns", per(downdate_t, downdates)),
        ("events.build_s", build_t.as_secs_f64()),
        ("events.entries", entries as f64),
        ("events.ns_per_entry", per(build_t, entries)),
        ("events.bound_eval_s", bound_t.as_secs_f64()),
        ("fcp.sample_s", sample_t.as_secs_f64()),
        ("fcp.ns_per_draw", per(sample_t, draws)),
        ("window.push_pop_ns", per(window_t, WINDOW_TX as u64)),
    ] {
        out.insert(name.to_string(), value);
    }
}
