//! Criterion bench: permutation primitives (generation, composition,
//! inversion, lrm, d-lrm) — the hot paths of the contention machinery —
//! and the p = t = 4096 random schedule list PaDet builds per replicate.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use doall_perms::{d_lrm, lrm, Permutation, Schedules};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_perm_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("perm_ops");
    for n in [64usize, 1024, 4096] {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Permutation::random(n, &mut rng);
        let b = Permutation::random(n, &mut rng);

        group.bench_function(format!("random/n={n}"), |bench| {
            let mut rng = StdRng::seed_from_u64(2);
            bench.iter(|| black_box(Permutation::random(n, &mut rng)));
        });
        group.bench_function(format!("compose/n={n}"), |bench| {
            bench.iter(|| black_box(a.compose(&b)));
        });
        group.bench_function(format!("inverse/n={n}"), |bench| {
            bench.iter(|| black_box(a.inverse()));
        });
        group.bench_function(format!("lrm/n={n}"), |bench| {
            bench.iter(|| black_box(lrm(&a)));
        });
        group.bench_function(format!("d_lrm/n={n}/d=8"), |bench| {
            bench.iter(|| black_box(d_lrm(&a, 8)));
        });
    }
    group.finish();
}

fn bench_schedule_list(c: &mut Criterion) {
    let mut group = c.benchmark_group("perm_ops");
    group.sample_size(10);
    let mut seed = 0;
    group.bench_function("schedules_random/p=4096/n=4096", |bench| {
        bench.iter(|| {
            seed += 1;
            black_box(Schedules::random(4096, 4096, seed))
        });
    });
    group.finish();
}

fn bench_enumeration(c: &mut Criterion) {
    c.bench_function("enumerate_s6", |bench| {
        bench.iter_batched(
            || (),
            |()| black_box(Permutation::all(6).count()),
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_perm_ops,
    bench_schedule_list,
    bench_enumeration
);
criterion_main!(benches);
