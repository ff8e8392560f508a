//! Micro-benchmarks of the substrate hot paths: the Poisson–binomial
//! tail DP, tid-set algebra, the conditional sampler, the Karp–Luby
//! estimator, and the exact miners.

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prob::cond_sample::ConditionalBernoulliSampler;
use prob::poisson_binomial::{tail_at_least, tail_at_least_with};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use utdb::TidSet;

fn probs(n: usize) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(3);
    (0..n).map(|_| 0.05 + 0.9 * rng.random::<f64>()).collect()
}

fn bench_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/poisson_binomial_tail");
    common::tune(&mut group);
    for n in [256usize, 1024, 4096] {
        let p = probs(n);
        let k = n / 3;
        group.bench_with_input(BenchmarkId::new("alloc", n), &n, |b, _| {
            b.iter(|| black_box(tail_at_least(&p, k)))
        });
        group.bench_with_input(BenchmarkId::new("scratch", n), &n, |b, _| {
            let mut scratch = vec![0.0; k + 1];
            b.iter(|| black_box(tail_at_least_with(&p, k, &mut scratch)))
        });
    }
    group.finish();
}

fn bench_tidset(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/tidset");
    common::tune(&mut group);
    let n = 30_000;
    let mut rng = SmallRng::seed_from_u64(4);
    let a = TidSet::from_tids(n, (0..n).filter(|_| rng.random::<f64>() < 0.4));
    let b_set = TidSet::from_tids(n, (0..n).filter(|_| rng.random::<f64>() < 0.4));
    group.bench_function("intersection_count", |b| {
        b.iter(|| black_box(a.intersection_count(&b_set)))
    });
    group.bench_function("is_subset", |b| b.iter(|| black_box(a.is_subset(&b_set))));
    group.bench_function("intersection_alloc", |b| {
        b.iter(|| black_box(a.intersection(&b_set)))
    });
    group.bench_function("iterate", |b| b.iter(|| black_box(a.iter().sum::<usize>())));
    group.finish();
}

fn bench_cond_sampler(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/conditional_sampler");
    common::tune(&mut group);
    let p = probs(512);
    // The scatter draw writes into a 1024-position world at every other
    // position, as the Karp–Luby draw does for an event's mask.
    let positions: Vec<u32> = (0..512).map(|t| 2 * t).collect();
    // Likely event -> rejection strategy; rare event -> suffix DP.
    for (label, k) in [("rejection", 150usize), ("suffix_dp", 350)] {
        let sampler = ConditionalBernoulliSampler::new(p.clone(), k);
        group.bench_function(label, |b| {
            let mut rng = SmallRng::seed_from_u64(5);
            let mut out = Vec::new();
            b.iter(|| {
                sampler.sample_into(&mut rng, &mut out);
                black_box(out.len())
            })
        });
        group.bench_function(format!("{label}_scatter"), |b| {
            let mut rng = SmallRng::seed_from_u64(5);
            let mut words = vec![0u64; 1024 / 64];
            b.iter(|| {
                sampler.sample_scatter(&mut rng, &positions, &mut words);
                black_box(words[0])
            })
        });
    }
    group.finish();
}

fn bench_exact_miners(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/exact_miners");
    common::tune(&mut group);
    let db = pfcim_bench::datasets::DatasetKind::Mushroom
        .certain(pfcim_bench::datasets::Scale::Tiny, 42);
    let ms = db.len() / 4;
    group.bench_function("fpgrowth", |b| {
        b.iter(|| black_box(fim::frequent_itemsets_fpgrowth(&db, ms)))
    });
    group.bench_function("closed", |b| {
        b.iter(|| black_box(fim::frequent_closed_itemsets(&db, ms)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dp,
    bench_tidset,
    bench_cond_sampler,
    bench_exact_miners
);
criterion_main!(benches);
