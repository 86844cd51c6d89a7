//! S1 — multi-tenant serving sweep (the HPCWaaS-as-a-service layer).
//!
//! Measures the serving stack end to end: per-tenant admission control,
//! weighted fair-share dispatch onto the bounded executor pool, request
//! coalescing and the shared cross-tenant cube cache. A seeded open-loop
//! generator offers the same request schedule every run; criterion times
//! one full sweep point while the `[serve] stage=sweep ...` lines (one
//! per arrival rate, printed once up front) carry the service metrics —
//! p50/p99 queue-to-finish latency, goodput, rejection rate and cache
//! hit rate. (The recorded serving numbers are `serve_open_loop` of
//! `benchmark/run.sh`, checked with its `compare`.)

use climate_workflows::servebench::{self, ServeBenchConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn sweep_config() -> ServeBenchConfig {
    ServeBenchConfig {
        tenants: 4,
        rates_hz: vec![100.0, 400.0, 1600.0],
        duration_ms: 250,
        workers: 4,
        queue_capacity: 64,
        max_in_flight: 12,
        distinct_cubes: 3,
        work_spin_us: 150,
        load_spin_us: 2_000,
        ..ServeBenchConfig::default()
    }
}

fn bench_serve_sweep(c: &mut Criterion) {
    // One full sweep up front for the recorded service metrics.
    let report = servebench::run(&sweep_config()).expect("serve sweep");
    for line in report.summary_lines() {
        println!("{line}");
    }

    let mut g = c.benchmark_group("s1_serve_sweep");
    g.sample_size(10);
    // Timed: one mid-rate point, the whole serving stack included
    // (deploy, admission, fair-share dispatch, drain).
    let point = ServeBenchConfig { rates_hz: vec![400.0], ..sweep_config() };
    g.bench_function("sweep_point_400hz", |b| {
        b.iter(|| servebench::run(&point).expect("serve point"))
    });
    g.finish();
}

criterion_group!(benches, bench_serve_sweep);
criterion_main!(benches);
