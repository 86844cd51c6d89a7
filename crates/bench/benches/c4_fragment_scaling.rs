//! C4 — Ophidia-style analytics scaling over I/O servers.
//!
//! Section 4.2.2: "the number of Ophidia computing components can be
//! scaled up ... over multiple nodes of the infrastructure to address
//! more intensive data analytics workloads." The operator pipeline of the
//! heat-wave indices (intercube → apply → map_series) runs over a
//! 96×144×365 cube fragmented 16 ways, with 1–8 I/O server threads.
//!
//! Besides the operator-scaling groups, `pipeline_e2e` measures the full
//! data plane — NetCDF ingest → operators → NetCDF export — and reports
//! allocations/bytes per stage (one `[c4-alloc]` line each, meaningful
//! when built with `--features count-alloc`). `index_pipeline` runs the
//! chain as three one-node passes of the engine, `fused_pipeline` as one;
//! end-to-end records are taken with `benchmark/run.sh` (`cube_analytics`)
//! and checked with its `compare`.

use bench::{alloc, baseline_cube, year_cube};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datacube::exec::ExecConfig;
use datacube::expr::Expr;
use datacube::fuse::Pipeline;
use datacube::model::Cube;
use datacube::ops::{
    apply, exportnc, import_transposed, intercube, map_series, reduce, InterOp, ReduceOp,
};
use ncformat::Reader;
use std::path::{Path, PathBuf};

const NLAT: usize = 96;
const NLON: usize = 144;
const DAYS: usize = 365;
const NFRAG: usize = 16;

/// Writes the `(day, lat, lon)` ingest file once per process.
fn ingest_file() -> PathBuf {
    let dir = std::env::temp_dir().join("bench-c4");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("year.ncx");
    if !path.exists() {
        let cube = year_cube(NLAT, NLON, DAYS, NFRAG, 9);
        let dense = cube.to_dense();
        let mut tyx = vec![0.0f32; dense.len()];
        for row in 0..NLAT * NLON {
            for d in 0..DAYS {
                tyx[d * NLAT * NLON + row] = dense[row * DAYS + d];
            }
        }
        let mut ds = ncformat::Dataset::new();
        ds.add_dimension("day", DAYS).unwrap();
        ds.add_dimension("lat", NLAT).unwrap();
        ds.add_dimension("lon", NLON).unwrap();
        ds.add_variable_f32("tasmax", &["day", "lat", "lon"], tyx).unwrap();
        ds.write_to_path(&path).unwrap();
    }
    path
}

/// Builds the fused anomaly→mask→index chain: one kernel per fragment
/// touches every day exactly once, with a tap materializing the anomaly
/// cube (the pipeline's export boundary) in the same pass.
fn fused_chain(baseline: &Cube, mask_expr: &Expr) -> Pipeline<'static> {
    Pipeline::new().intercube(baseline, InterOp::Sub).tap().apply(mask_expr.clone()).map_series(
        "hwd",
        1,
        |row, out| {
            out[0] = extremes::heatwave::longest_wave(row, 6) as f32;
        },
    )
}

/// The measured e2e data plane: ingest → fused(anomaly ⊕ mask ⊕ index)
/// → export. The anomaly cube — the pipeline's materialization boundary —
/// comes out of the fused pass as a tap and is exported alongside the
/// index map, mirroring the paper's per-year outputs.
fn pipeline_e2e(
    src: &Path,
    baseline: &Cube,
    mask_expr: &Expr,
    out_path: &Path,
    cfg: ExecConfig,
) -> f32 {
    let rd = Reader::open(src).unwrap();
    let cube = import_transposed(&rd, "tasmax", "day", "lat", "lon", NFRAG, cfg).unwrap();
    let fused = fused_chain(baseline, mask_expr).run(&cube, cfg).unwrap();
    let anom = fused.tapped.expect("tap requested");
    exportnc(&anom, out_path).unwrap();
    fused.cube.to_dense()[0]
}

/// One-shot per-stage allocation audit of the e2e pipeline, printed as
/// `[c4-alloc] stage=<name> allocs=<n> bytes=<n>` lines.
fn report_stage_allocs(src: &Path, baseline: &Cube, mask_expr: &Expr, out_path: &Path) {
    let cfg = ExecConfig::with_servers(4);
    let mut lines: Vec<(&str, alloc::AllocStats)> = Vec::new();

    let rd = Reader::open(src).unwrap();
    let (cube, st) =
        alloc::measured(|| import_transposed(&rd, "tasmax", "day", "lat", "lon", NFRAG, cfg));
    let cube = cube.unwrap();
    lines.push(("ingest", st));

    let (anom, st) = alloc::measured(|| intercube(&cube, baseline, InterOp::Sub, cfg));
    let anom = anom.unwrap();
    lines.push(("anomaly", st));

    let (mask, st) = alloc::measured(|| apply(&anom, mask_expr, cfg));
    let mask = mask.unwrap();
    lines.push(("mask", st));

    let (runs, st) =
        alloc::measured(|| {
            map_series(&mask, "hwd", 1, cfg, |row| {
                vec![extremes::heatwave::longest_wave(row, 6) as f32]
            })
        });
    let runs = runs.unwrap();
    std::hint::black_box(runs.to_dense()[0]);
    lines.push(("index", st));

    let (_, st) = alloc::measured(|| exportnc(&anom, out_path).unwrap());
    lines.push(("export", st));

    // The fused equivalent of anomaly+mask+index in one traversal.
    let (fused, st) = alloc::measured(|| fused_chain(baseline, mask_expr).run(&cube, cfg));
    std::hint::black_box(fused.unwrap().cube.to_dense()[0]);
    lines.push(("fused_chain", st));

    let total: alloc::AllocStats =
        lines.iter().fold(alloc::AllocStats::default(), |acc, (_, s)| alloc::AllocStats {
            allocs: acc.allocs + s.allocs,
            bytes: acc.bytes + s.bytes,
        });
    lines.push(("total", total));

    if !alloc::counting_enabled() {
        println!("[c4-alloc] counting allocator disabled; rebuild with --features count-alloc");
    }
    for (stage, st) in lines {
        println!("[c4-alloc] stage={stage} allocs={} bytes={}", st.allocs, st.bytes);
    }
}

fn bench(c: &mut Criterion) {
    let cube = year_cube(NLAT, NLON, DAYS, NFRAG, 9);
    let baseline = baseline_cube(NLAT, NLON, NFRAG);
    let mask_expr = Expr::from_oph_predicate("x", ">5", "1", "0").unwrap();
    let src = ingest_file();
    let out_path = std::env::temp_dir().join("bench-c4").join("anom-out.ncx");

    report_stage_allocs(&src, &baseline, &mask_expr, &out_path);

    let mut g = c.benchmark_group("c4_fragment_scaling");
    g.sample_size(20);
    for servers in [1usize, 2, 4, 8] {
        let cfg = ExecConfig::with_servers(servers);
        g.bench_with_input(BenchmarkId::new("index_pipeline", servers), &servers, |b, _| {
            b.iter(|| {
                let anom = intercube(&cube, &baseline, InterOp::Sub, cfg).unwrap();
                let mask = apply(&anom, &mask_expr, cfg).unwrap();
                let runs = map_series(&mask, "hwd", 1, cfg, |row| {
                    vec![extremes::heatwave::longest_wave(row, 6) as f32]
                })
                .unwrap();
                std::hint::black_box(runs.to_dense()[0]);
            });
        });
        g.bench_with_input(BenchmarkId::new("fused_pipeline", servers), &servers, |b, _| {
            let p = fused_chain(&baseline, &mask_expr);
            b.iter(|| {
                let out = p.run(&cube, cfg).unwrap();
                std::hint::black_box(out.cube.to_dense()[0]);
            });
        });
        g.bench_with_input(BenchmarkId::new("reduce_max", servers), &servers, |b, _| {
            b.iter(|| {
                let r = reduce(&cube, ReduceOp::Max, "day", cfg).unwrap();
                std::hint::black_box(r.to_dense()[0]);
            });
        });
    }
    let cfg = ExecConfig::with_servers(4);
    g.sample_size(10);
    g.bench_function("pipeline_e2e/4", |b| {
        b.iter(|| std::hint::black_box(pipeline_e2e(&src, &baseline, &mask_expr, &out_path, cfg)));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
