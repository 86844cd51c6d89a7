//! C2 — in-memory baseline reuse (Section 5.3).
//!
//! "Since Ophidia can store the datasets in memory between different
//! operators' execution, the baseline values with the long-term historical
//! averages can be loaded only once and used throughout the workflows
//! ... reducing the number of read operations from storage."
//!
//! The baseline is the per-cell mean over a multi-year historical
//! reference archive stored on disk. Two strategies over N analysis years:
//!
//! * `reuse`  — the archive is read and averaged **once**; the resulting
//!   baseline cube stays in the store for every year's indices;
//! * `reload` — every analysis year re-reads the reference archive and
//!   recomputes the averages (the pre-integration practice, where the
//!   analytics stage has no memory between invocations).

use bench::{year_cube, Record};
use datacube::exec::ExecConfig;
use datacube::model::Cube;
use datacube::ops::{exportnc, import_transposed};
use extremes::baseline::compute_baseline;
use extremes::heatwave::{compute_indices, WaveParams};
use ncformat::Reader;
use std::path::PathBuf;

const NLAT: usize = 96;
const NLON: usize = 144;
const DAYS: usize = 120;
const NFRAG: usize = 8;
const REFERENCE_YEARS: usize = 5;

/// Writes the historical reference archive (one `(day, lat, lon)` file per
/// reference year) once per process.
fn reference_archive() -> Vec<PathBuf> {
    let dir = std::env::temp_dir().join("bench-c2-archive");
    std::fs::create_dir_all(&dir).unwrap();
    (0..REFERENCE_YEARS)
        .map(|y| {
            let path = dir.join(format!("reference-{y}.ncx"));
            if !path.exists() {
                // exportnc writes (lat, lon, day); transpose layout for the
                // (time-major) file the import path expects.
                let cube = year_cube(NLAT, NLON, DAYS, NFRAG, 100 + y as u64);
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
        })
        .collect()
}

/// Reads the archive and computes the per-cell multi-year mean baseline.
fn load_and_average(archive: &[PathBuf], cfg: ExecConfig) -> Cube {
    let cubes: Vec<Cube> = archive
        .iter()
        .map(|p| {
            let rd = Reader::open(p).unwrap();
            import_transposed(&rd, "tasmax", "day", "lat", "lon", NFRAG, cfg).unwrap()
        })
        .collect();
    let refs: Vec<&Cube> = cubes.iter().collect();
    compute_baseline(&refs, cfg).unwrap()
}

fn main() {
    let cfg = ExecConfig::with_servers(4);
    let archive = reference_archive();
    let years: Vec<Cube> = (0..4).map(|y| year_cube(NLAT, NLON, DAYS, NFRAG, y + 1)).collect();

    // Sanity: the exported/reimported baseline matches direct computation.
    let direct = load_and_average(&archive, cfg);
    let dir = std::env::temp_dir().join("bench-c2-archive");
    exportnc(&direct, &dir.join("baseline-check.ncx")).unwrap();

    let mut rec = Record::new("c2_baseline_reuse");
    let indices = |year: &Cube, baseline: &Cube| {
        let idx = compute_indices(year, baseline, WaveParams::default(), false, cfg).unwrap();
        std::hint::black_box(idx.number.to_dense()[0]);
    };
    for n in [1usize, 2, 4] {
        rec.time(format!("reuse/{n}"), 10, || {
            // Archive read + averaged once; baseline kept in memory.
            let baseline = load_and_average(&archive, cfg);
            years[..n].iter().for_each(|y| indices(y, &baseline));
        });
        rec.time(format!("reload/{n}"), 10, || {
            // Re-read and re-average the whole archive per year.
            years[..n].iter().for_each(|y| indices(y, &load_and_average(&archive, cfg)));
        });
    }
    rec.finish();
}
