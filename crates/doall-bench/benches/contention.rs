//! Criterion bench: exact and estimated contention evaluation — the cost
//! of certifying a schedule list. The exact cases run the `2ⁿ·n·p` subset
//! DP up to its `n = 12` cap.

use criterion::{criterion_group, criterion_main, Criterion};
use doall_perms::{contention_exact, d_contention_estimate, d_contention_exact, Schedules};
use std::hint::black_box;

fn bench_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("contention_exact");
    group.sample_size(20);
    for q in [4usize, 5, 6, 8, 12] {
        let sched = Schedules::random(q, q, 0);
        group.bench_function(format!("q={q}"), |bench| {
            bench.iter(|| black_box(contention_exact(sched.as_slice())));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("d_contention_exact");
    group.sample_size(20);
    for n in [8usize, 12] {
        let sched = Schedules::random(n, n, 0);
        group.bench_function(format!("n={n}/d=2"), |bench| {
            bench.iter(|| black_box(d_contention_exact(sched.as_slice(), 2)));
        });
    }
    group.finish();
}

fn bench_estimate(c: &mut Criterion) {
    let mut group = c.benchmark_group("d_contention_estimate");
    group.sample_size(10);
    for (p, n) in [(8usize, 64usize), (16, 256)] {
        let sched = Schedules::random(p, n, 0);
        group.bench_function(format!("p={p}/n={n}/d=8"), |bench| {
            bench.iter(|| black_box(d_contention_estimate(sched.as_slice(), 8, 16, 0)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exact, bench_estimate);
criterion_main!(benches);
