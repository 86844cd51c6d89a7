//! C4 — Ophidia-style analytics scaling over I/O servers.
//!
//! Section 4.2.2: "the number of Ophidia computing components can be
//! scaled up ... over multiple nodes of the infrastructure to address
//! more intensive data analytics workloads." The operator pipeline of the
//! heat-wave indices (intercube → apply → map_series) runs over a
//! 96×144×365 cube fragmented 16 ways, with 1–8 I/O server threads:
//! `index_pipeline` as three one-node passes of the engine,
//! `fused_pipeline` as one, `reduce_max` as the in-place terminal. The
//! claim is the *scaling*; the kernels' absolute cost is wfbench's
//! `datacube.fused_chain_ms` / `datacube.reduce_max_ms`, and the whole
//! data plane (ingest → operators → export) is its `cube_analytics`
//! workload.
//!
//! Built with `--features count-alloc` the record also carries the
//! allocations and bytes of each data-plane stage (`alloc/<stage>/…`).

use bench::{alloc, baseline_cube, year_cube, Record};
use datacube::exec::ExecConfig;
use datacube::expr::Expr;
use datacube::fuse::Pipeline;
use datacube::model::Cube;
use datacube::ops::{
    apply, exportnc, import_transposed, intercube, map_series, reduce, InterOp, ReduceOp,
};
use ncformat::Reader;
use std::path::PathBuf;

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
        let mut w = ncformat::Writer::create(&path).unwrap();
        w.add_dimension("day", DAYS).unwrap();
        w.add_dimension("lat", NLAT).unwrap();
        w.add_dimension("lon", NLON).unwrap();
        w.add_variable_f32("tasmax", &["day", "lat", "lon"], &tyx, vec![]).unwrap();
        w.finish().unwrap();
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

/// One-shot per-stage allocation audit of the data plane (NCX ingest →
/// operators → NCX export), recorded as `alloc/<stage>/{allocs,bytes}`.
fn record_stage_allocs(rec: &mut Record, baseline: &Cube, mask_expr: &Expr) {
    let cfg = ExecConfig::with_servers(4);
    let src = ingest_file();
    let out_path = src.with_file_name("anom-out.ncx");
    let mut stage = |stage: &str, st: alloc::AllocStats| {
        rec.value(format!("alloc/{stage}/allocs"), "count", [st.allocs as f64]);
        rec.value(format!("alloc/{stage}/bytes"), "bytes", [st.bytes as f64]);
    };

    let rd = Reader::open(&src).unwrap();
    let (cube, st) =
        alloc::measured(|| import_transposed(&rd, "tasmax", "day", "lat", "lon", NFRAG, cfg));
    let cube = cube.unwrap();
    stage("ingest", st);

    let (anom, st) = alloc::measured(|| intercube(&cube, baseline, InterOp::Sub, cfg));
    let anom = anom.unwrap();
    stage("anomaly", st);

    let (mask, st) = alloc::measured(|| apply(&anom, mask_expr, cfg));
    let mask = mask.unwrap();
    stage("mask", st);

    let (runs, st) =
        alloc::measured(|| {
            map_series(&mask, "hwd", 1, cfg, |row| {
                vec![extremes::heatwave::longest_wave(row, 6) as f32]
            })
        });
    let runs = runs.unwrap();
    std::hint::black_box(runs.to_dense()[0]);
    stage("index", st);

    let (_, st) = alloc::measured(|| exportnc(&anom, &out_path).unwrap());
    stage("export", st);

    // The fused equivalent of anomaly+mask+index in one traversal.
    let (fused, st) = alloc::measured(|| fused_chain(baseline, mask_expr).run(&cube, cfg));
    std::hint::black_box(fused.unwrap().cube.to_dense()[0]);
    stage("fused_chain", st);
}

fn main() {
    let cube = year_cube(NLAT, NLON, DAYS, NFRAG, 9);
    let baseline = baseline_cube(NLAT, NLON, NFRAG);
    let mask_expr = Expr::from_oph_predicate("x", ">5", "1", "0").unwrap();

    let mut rec = Record::new("c4_fragment_scaling");
    if alloc::counting_enabled() {
        record_stage_allocs(&mut rec, &baseline, &mask_expr);
    }
    for servers in [1usize, 2, 4, 8] {
        let cfg = ExecConfig::with_servers(servers);
        rec.time(format!("index_pipeline/{servers}"), 20, || {
            let anom = intercube(&cube, &baseline, InterOp::Sub, cfg).unwrap();
            let mask = apply(&anom, &mask_expr, cfg).unwrap();
            let runs = map_series(&mask, "hwd", 1, cfg, |row| {
                vec![extremes::heatwave::longest_wave(row, 6) as f32]
            })
            .unwrap();
            runs.to_dense()[0]
        });
        let fused = fused_chain(&baseline, &mask_expr);
        rec.time(format!("fused_pipeline/{servers}"), 20, || {
            fused.run(&cube, cfg).unwrap().cube.to_dense()[0]
        });
        rec.time(format!("reduce_max/{servers}"), 20, || {
            reduce(&cube, ReduceOp::Max, "day", cfg).unwrap().to_dense()[0]
        });
    }
    rec.finish();
}
