//! Pool dispatch of the ingest paths, counted rather than timed: the
//! global pool's own job count (`par::global().jobs_run()`, which includes
//! jobs a helping caller runs) moves only by the jobs the measured call
//! submits, so this file runs in a process of its own and its tests take
//! turns on one lock.

use datacube::exec::ExecConfig;
use datacube::model::{Cube, Dimension};
use datacube::{ops, Client, ReduceOp};
use ncformat::{Reader, Writer};
use std::path::PathBuf;
use std::sync::Mutex;

const NFRAG: usize = 8;

/// Held for a whole test, so no other test's jobs land in its count.
static ALONE: Mutex<()> = Mutex::new(());

fn pool_jobs() -> u64 {
    par::global().jobs_run()
}

/// Writes a `(time, lat, lon)` day file of `tas` and returns its path.
fn day_file(nt: usize, ny: usize, nx: usize) -> PathBuf {
    let name = format!("datacube-ingest-cost-{}-{ny}x{nx}.ncx", std::process::id());
    let path = std::env::temp_dir().join(name);
    let mut w = Writer::create(&path).unwrap();
    w.add_dimension("time", nt).unwrap();
    w.add_dimension("lat", ny).unwrap();
    w.add_dimension("lon", nx).unwrap();
    w.add_variable_f32("tas", &["time", "lat", "lon"], &vec![280.0; nt * ny * nx], vec![]).unwrap();
    w.finish().unwrap();
    path
}

/// One 96×144 day of four timesteps is below the transpose's grain, so
/// ingesting it submits no pool job; stacking 90 day maps submits at most
/// one job per output fragment.
#[test]
fn day_ingest_and_year_stack_submit_few_pool_jobs() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let (nt, ny, nx) = (4, 96, 144);
    let path = day_file(nt, ny, nx);
    let rd = Reader::open(&path).unwrap();
    let cfg = ExecConfig::with_servers(2);

    let before = pool_jobs();
    let day = ops::import_transposed(&rd, "tas", "time", "lat", "lon", NFRAG, cfg).unwrap();
    assert_eq!(pool_jobs() - before, 0, "a day file's transpose went to the pool");
    assert_eq!(day.implicit_len(), nt);
    std::fs::remove_file(&path).ok();

    let days: Vec<Cube> = (0..90)
        .map(|d| {
            let dims = vec![
                Dimension::explicit("lat", (0..ny).map(|y| y as f64).collect::<Vec<_>>()),
                Dimension::explicit("lon", (0..nx).map(|x| x as f64).collect::<Vec<_>>()),
                Dimension::implicit("day", vec![d as f64]),
            ];
            Cube::from_dense("tasmax", dims, vec![d as f32; ny * nx], NFRAG, 2).unwrap()
        })
        .collect();
    let refs: Vec<&Cube> = days.iter().collect();
    let before = pool_jobs();
    let year = ops::concat_implicit(&refs, "day").unwrap();
    let jobs = pool_jobs() - before;
    assert!(jobs <= NFRAG as u64, "a 90-cube concat submitted {jobs} pool jobs");
    assert_eq!(year.implicit_len(), 90);
}

/// The workflow's year import — `importnc_reduced` over a 60-day year of
/// four-step days, at 48×72 and at 96×144 — submits no pool job at all, so
/// the import tasks never wait behind another task's pool work.
#[test]
fn importnc_reduced_submits_no_pool_job() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let client = Client::connect(2);
    for (ny, nx) in [(48, 72), (96, 144)] {
        let path = day_file(4, ny, nx);
        let year = vec![path.clone(); 60];
        for op in [ReduceOp::Max, ReduceOp::Min] {
            let before = pool_jobs();
            let cube = client.importnc_reduced(&year, "tas", op, "tasmax", NFRAG).unwrap();
            assert_eq!(pool_jobs() - before, 0, "{ny}x{nx} {op:?} import went to the pool");
            assert_eq!(cube.cube().unwrap().implicit_len(), 60);
        }
        std::fs::remove_file(&path).ok();
    }
}
