//! Ablation of the checking phase design choices DESIGN.md calls out:
//! how much do (a) the cheap S1/max-singleton bounds, (b) the pairwise
//! de Caen/Kwerel refinement, and (c) the exact inclusion–exclusion
//! fallback save relative to raw sampling?

mod common;

use common::mine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pfcim_core::{FcpMethod, MinerConfig, Variant};
use std::hint::black_box;

fn bench_checking_strategies(c: &mut Criterion) {
    let db = common::mushroom();
    let rel = 0.3;
    let mut group = c.benchmark_group("ablation/checking");
    common::tune(&mut group);
    let configs: [(&str, MinerConfig); 4] = [
        (
            "bounds+exact_auto",
            common::paper_cfg(&db, rel, 0.8).with_fcp_method(FcpMethod::Auto { exact_cap: 8 }),
        ),
        (
            "bounds+sampling",
            common::paper_cfg(&db, rel, 0.8).with_fcp_method(FcpMethod::ApproxOnly),
        ),
        (
            "nobounds+exact_auto",
            common::paper_cfg(&db, rel, 0.8)
                .with_variant(Variant::NoBound)
                .with_fcp_method(FcpMethod::Auto { exact_cap: 8 }),
        ),
        (
            "nobounds+sampling",
            common::paper_cfg(&db, rel, 0.8)
                .with_variant(Variant::NoBound)
                .with_fcp_method(FcpMethod::ApproxOnly)
                .with_approximation(0.3, 0.1),
        ),
    ];
    for (label, cfg) in configs {
        group.bench_function(label, |b| b.iter(|| black_box(mine(&db, &cfg))));
    }
    group.finish();
}

fn bench_pairwise_budget(c: &mut Criterion) {
    // The max_pairwise_events knob: more events in the O(m²) bound
    // computation buys tighter bounds at quadratic cost.
    let db = common::quest();
    let rel = 0.3;
    let mut group = c.benchmark_group("ablation/pairwise_budget");
    common::tune(&mut group);
    for cap in [4usize, 16, 48] {
        let mut cfg = common::paper_cfg(&db, rel, 0.8);
        cfg.max_pairwise_events = cap;
        group.bench_with_input(BenchmarkId::new("cap", cap), &cap, |b, _| {
            b.iter(|| black_box(mine(&db, &cfg)))
        });
    }
    group.finish();
}

fn bench_estimators(c: &mut Criterion) {
    // Head-to-head of the three FCP estimators on one representative
    // event family: fixed-N Karp–Luby (the paper's ApproxFCP), the
    // adaptive stopping-rule variant, and the naive world sampler at the
    // same sample budget.
    use pfcim_core::{approx_fcp, approx_fcp_adaptive, NonClosureEvents};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use utdb::Item;

    let db = common::quest();
    let x = vec![Item(0), Item(1)];
    let tids = db.tidset_of_itemset(&x).into_bitmap();
    let min_sup = db.len() / 5;
    let ext = (0..db.num_items() as u32)
        .map(Item)
        .filter(|i| !x.contains(i));
    let events = NonClosureEvents::build(&db, &tids, ext, min_sup);
    let pr_f = pfim::frequent_probability(&db, &x, min_sup);

    let mut group = c.benchmark_group("ablation/estimators");
    common::tune(&mut group);
    group.bench_function("approx_fcp_fixed_n", |b| {
        let mut rng = SmallRng::seed_from_u64(11);
        b.iter(|| black_box(approx_fcp(&events, pr_f, 0.2, 0.1, &mut rng)))
    });
    group.bench_function("approx_fcp_adaptive", |b| {
        let mut rng = SmallRng::seed_from_u64(11);
        b.iter(|| black_box(approx_fcp_adaptive(&events, pr_f, 0.2, 0.1, &mut rng)))
    });
    group.bench_function("naive_world_sampling", |b| {
        let mut rng = SmallRng::seed_from_u64(11);
        b.iter(|| black_box(events.naive_sampling_fcp(10_000, &mut rng)))
    });
    group.finish();
}

fn report_time_per_pruning(_c: &mut Criterion) {
    // Not a timing loop: one full-ablation pass that prices each pruning
    // rule as (extra elapsed time without it) / (times it fired in the
    // baseline run), plus the baseline's per-phase breakdown. Skipped
    // when Criterion is only enumerating benches.
    if std::env::args().any(|a| a == "--list") {
        return;
    }
    let db = common::mushroom();
    let rel = 0.3;
    let baseline = mine(&db, &common::paper_cfg(&db, rel, 0.8));
    println!("\nablation/time_per_pruning (mushroom, rel_sup={rel})");
    println!(
        "  {:<8} elapsed={:>9.3?}  phases: {}",
        "MPFCI", baseline.elapsed, baseline.timers
    );
    let ablations: [(Variant, u64); 4] = [
        (Variant::NoCh, baseline.stats.ch_pruned),
        (Variant::NoSuper, baseline.stats.superset_pruned),
        (Variant::NoSub, baseline.stats.subset_pruned),
        (
            Variant::NoBound,
            baseline.stats.bound_rejected + baseline.stats.bound_decided,
        ),
    ];
    for (variant, firings) in ablations {
        let cfg = common::paper_cfg(&db, rel, 0.8).with_variant(variant);
        let outcome = mine(&db, &cfg);
        let delta = outcome.elapsed.as_secs_f64() - baseline.elapsed.as_secs_f64();
        let per_firing = if firings > 0 {
            format!("{:.1}us/firing", delta * 1e6 / firings as f64)
        } else {
            "n/a (never fired)".to_owned()
        };
        println!(
            "  {:<14} elapsed={:>9.3?}  delta={:>+8.3}s over {:>6} firings -> {}",
            variant.name(),
            outcome.elapsed,
            delta,
            firings,
            per_firing
        );
    }
}

criterion_group!(
    benches,
    bench_checking_strategies,
    bench_pairwise_budget,
    bench_estimators,
    report_time_per_pruning
);
criterion_main!(benches);
