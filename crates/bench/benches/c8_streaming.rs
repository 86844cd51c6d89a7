//! C8 — streaming data plane vs staged file round-trip.
//!
//! The tentpole claim of the streaming rebuild: handing completed years
//! to analytics as in-memory [`DayBlock`]s removes the
//! encode→write→poll→read→decode→transpose tax from the hot path. Three
//! measurements:
//!
//! * `plane_*` — the analytics data plane at the C4 workload (96×144
//!   grid, 4 steps/day): from "year available" to heat-wave indices.
//!   The staged path starts from the daily files on disk (per-day open
//!   → decode → transpose → reduce → concat); the streaming path starts
//!   from the same days as `Arc<[f32]>` blocks (one fused fold). Both
//!   end in the identical fused index pipeline, and the daily files are
//!   written in both modes upstream (the simulation's durable output),
//!   so the delta is exactly the file round-trip.
//! * `real_*` — the full workflow both ways (`run_sequential` vs
//!   `run_pipelined` with `streaming`: one driver, `CaseStudy::run`,
//!   differing in submission order and year source), shared pre-trained
//!   model.
//! * the CNN batch sweep — the batched inference service at
//!   `max_batch ∈ {1, 2, 4, 8, 16}` over a fixed request set, reporting
//!   throughput, mean batch occupancy and queue wait per point.
//!
//! Machine-readable `[c8_stream]` lines go to stdout; the recorded
//! staged-vs-streaming numbers are `wf_staged`/`wf_streaming` of
//! `benchmark/run.sh`, checked with its `compare`. `plane_staged`'s
//! `ops::reduce` runs on the fused engine like every public operator.

use climate_workflows::{run_pipelined, run_sequential, WorkflowParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datacube::exec::ExecConfig;
use datacube::model::{Cube, Dimension, SharedData};
use datacube::ops::{self, ReduceOp};
use esm::output::DayBlock;
use extremes::heatwave::{compute_indices, WaveParams};
use extremes::tc::serve::{BatchPolicy, CnnService};
use gridded::Grid;
use ncformat::Reader;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const NLAT: usize = 96;
const NLON: usize = 144;
const SPD: usize = 4;
const NFRAG: usize = 16;

static RUN_ID: AtomicU64 = AtomicU64::new(0);

/// Synthesizes one day of model output as an in-memory block: the four
/// TC-analysis variables, deterministic values, time-major stacks —
/// exactly what `esm::output` hands the streaming plane.
fn day_block(grid: &Grid, day: usize) -> DayBlock {
    let n = grid.len();
    let mk = |base: f32, amp: f32, seed: u64| -> Arc<[f32]> {
        (0..SPD * n)
            .map(|i| {
                let h = ((i as u64 + day as u64) << 7).wrapping_mul(seed | 1) >> 17;
                base + amp * ((h % 1000) as f32 / 1000.0 - 0.5)
            })
            .collect()
    };
    DayBlock {
        year: 2030,
        day,
        grid: grid.clone(),
        steps_per_day: SPD,
        vars: vec![
            ("psl".into(), mk(101_300.0, 2_000.0, 3)),
            ("sfcWind".into(), mk(9.0, 10.0, 5)),
            ("tas".into(), mk(299.0, 18.0, 7)),
            ("vort".into(), mk(0.0, 1.0e-4, 9)),
        ],
    }
}

/// Staged ingest: the daily files back into a `(lat, lon | day)` maximum
/// cube through the reader — per-day open → decode → transpose → reduce
/// → stack, the exact shape of the workflow's file-keyed import task.
fn ingest_from_files(files: &[PathBuf], cfg: ExecConfig) -> Cube {
    let mut day_cubes = Vec::with_capacity(files.len());
    for (d, f) in files.iter().enumerate() {
        let rd = Reader::open(f).unwrap();
        let cube = ops::import_transposed(&rd, "tas", "time", "lat", "lon", NFRAG, cfg).unwrap();
        let daily = ops::reduce(&cube, ReduceOp::Max, "time", cfg).unwrap();
        day_cubes.push(ops::add_singleton_implicit(&daily, "day", d as f64).unwrap());
    }
    let refs: Vec<&Cube> = day_cubes.iter().collect();
    ops::concat_implicit(&refs, "day").unwrap()
}

/// Streaming ingest: the same cube folded straight out of the in-memory
/// blocks — one pass, no decode, no transpose staging.
fn ingest_from_blocks(days: &[DayBlock]) -> Cube {
    let grid = &days[0].grid;
    let n = grid.len();
    let nday = days.len();
    let data = SharedData::from_fn(n * nday, |data| {
        for (d, block) in days.iter().enumerate() {
            let stack = block.var("tas").unwrap();
            for idx in 0..n {
                let mut acc = f32::NEG_INFINITY;
                for t in 0..SPD {
                    acc = acc.max(stack[t * n + idx]);
                }
                data[idx * nday + d] = acc;
            }
        }
    });
    Cube::from_shared(
        "tas",
        vec![
            Dimension::explicit("lat", grid.lats()),
            Dimension::explicit("lon", grid.lons()),
            Dimension::implicit("day", (0..nday).map(|d| d as f64).collect::<Vec<_>>()),
        ],
        data,
        NFRAG,
        NFRAG,
    )
    .unwrap()
}

/// Full-workflow parameters with a shared pre-trained model (training
/// cost outside the measured loop), mirroring the C1 bench.
fn wf_params(tag: &str, years: usize, streaming: bool) -> WorkflowParams {
    let run = RUN_ID.fetch_add(1, Ordering::Relaxed);
    let out = std::env::temp_dir().join(format!("bench-c8-{tag}-{run}"));
    std::fs::remove_dir_all(&out).ok();
    let mut p = WorkflowParams::test_scale(out);
    p.years = years;
    p.days_per_year = 10;
    p.workers = 4;
    p.streaming = streaming;
    let model_dir = std::env::temp_dir().join("bench-c8-model");
    std::fs::create_dir_all(&model_dir).ok();
    p.model_path = Some(model_dir.join("model.tml"));
    p.train_samples = 100;
    p.train_epochs = 5;
    p.finetune_days = 5;
    p.finetune_epochs = 3;
    p
}

fn bench(c: &mut Criterion) {
    let cfg = ExecConfig::with_servers(4);
    let grid = Grid::global(NLAT, NLON);
    let baseline = bench::baseline_cube(NLAT, NLON, NFRAG);
    let wave = WaveParams::default();

    // One simulated year, both representations. The durable daily files
    // are written once here — the simulation writes them in both modes,
    // so neither measured path includes the write.
    let days: Vec<DayBlock> = (0..120).map(|d| day_block(&grid, d)).collect();
    let dir = std::env::temp_dir().join("bench-c8-plane");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let files: Vec<PathBuf> = days.iter().map(|b| b.write(&dir).unwrap()).collect();

    // The two ingest routes must agree bitwise before being compared on
    // speed (the tentpole's "pure performance change" contract).
    assert_eq!(
        ingest_from_files(&files, cfg).to_dense(),
        ingest_from_blocks(&days).to_dense(),
        "staged and streaming ingest diverge"
    );

    let mut g = c.benchmark_group("c8_streaming");
    g.sample_size(10);

    for ndays in [30usize, 120] {
        let window = &days[..ndays];
        let wfiles = &files[..ndays];
        g.bench_with_input(BenchmarkId::new("plane_staged", ndays), &ndays, |b, _| {
            b.iter(|| {
                let year = ingest_from_files(wfiles, cfg);
                compute_indices(&year, &baseline, wave, false, cfg).unwrap()
            });
        });
        g.bench_with_input(BenchmarkId::new("plane_stream", ndays), &ndays, |b, _| {
            b.iter(|| {
                let year = ingest_from_blocks(window);
                compute_indices(&year, &baseline, wave, false, cfg).unwrap()
            });
        });
    }

    // One timed pass of each route for the exact recorded ratio.
    let ndays = 120usize;
    let t0 = Instant::now();
    let year = ingest_from_files(&files[..ndays], cfg);
    compute_indices(&year, &baseline, wave, false, cfg).unwrap();
    let staged_ns = t0.elapsed().as_nanos();
    let t0 = Instant::now();
    let year = ingest_from_blocks(&days[..ndays]);
    compute_indices(&year, &baseline, wave, false, cfg).unwrap();
    let stream_ns = t0.elapsed().as_nanos();
    println!(
        "[c8_stream] stage=plane days={ndays} staged_ns={staged_ns} stream_ns={stream_ns} \
         speedup={:.2}",
        staged_ns as f64 / stream_ns as f64
    );

    // Full workflow, both orchestrations (training shared, outside loop).
    drop(run_pipelined(wf_params("warmup", 1, false)).unwrap());
    let years = 2usize;
    g.bench_with_input(BenchmarkId::new("real_staged", years), &years, |b, &y| {
        b.iter(|| run_sequential(wf_params("seq", y, false)).unwrap());
    });
    g.bench_with_input(BenchmarkId::new("real_streaming", years), &years, |b, &y| {
        b.iter(|| run_pipelined(wf_params("stream", y, true)).unwrap());
    });

    // One streaming run's report for the channel/service counters.
    let report = run_pipelined(wf_params("probe", 2, true)).unwrap();
    let st = report.stream.expect("streaming section");
    println!(
        "[c8_stream] stage=e2e years=2 streamed={} fallback={} stall_us={} cnn_batches={} \
         cnn_items={} mean_batch={:.2}",
        st.years_streamed,
        st.fallback_years,
        st.stall_us,
        st.cnn_batches,
        st.cnn_items,
        st.cnn_mean_batch
    );

    // CNN batch sweep: fixed request set against the shared-model
    // service, one point per max_batch. Requests are submitted up front
    // (the workflow submits a replica's whole year the same way), so the
    // dispatcher can actually fill batches.
    let model_path = {
        drop(bench::trained_cnn());
        std::env::temp_dir().join("bench-cnn").join("bench-cnn.tml")
    };
    let analysis = extremes::tc::cnn::analysis_grid(
        esm::atmos::tc_radius_deg(&bench::sample_fieldset(0).psl.grid),
        16,
    );
    const REQS: usize = 64;
    for max_batch in [1usize, 2, 4, 8, 16] {
        let svc = CnnService::new(
            16,
            model_path.clone(),
            BatchPolicy { max_batch, ..BatchPolicy::default() },
        );
        let t0 = Instant::now();
        let tickets: Vec<_> = (0..REQS)
            .map(|i| svc.submit(bench::sample_fieldset(i % SPD), analysis.clone()))
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let wall_us = t0.elapsed().as_micros();
        let stats = svc.stats();
        println!(
            "[c8_stream] stage=batch_sweep max_batch={max_batch} reqs={REQS} wall_us={wall_us} \
             batches={} mean_batch={:.2} wait_us={} throughput_rps={:.1}",
            stats.batches,
            stats.mean_occupancy(),
            stats.wait_us,
            REQS as f64 / (wall_us as f64 / 1e6)
        );
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
