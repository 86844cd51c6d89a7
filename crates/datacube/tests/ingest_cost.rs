//! Pool dispatch of the ingest chain, counted rather than timed: the
//! process-global `par_tasks_total{pool="global"}` counter moves only by
//! the jobs the measured call submits, so this file holds one test and
//! runs in a process of its own.

use datacube::exec::ExecConfig;
use datacube::model::{Cube, Dimension};
use datacube::ops;
use ncformat::{Dataset, Reader};

const NFRAG: usize = 8;

fn pool_jobs() -> u64 {
    obs::registry().counter("par_tasks_total", &[("pool", "global")]).get()
}

/// One 96×144 day of four timesteps is below the transpose's grain, so
/// ingesting it submits no pool job; stacking 90 day maps submits at most
/// one job per output fragment.
#[test]
fn day_ingest_and_year_stack_submit_few_pool_jobs() {
    let (nt, ny, nx) = (4, 96, 144);
    let mut ds = Dataset::new();
    ds.add_dimension("time", nt).unwrap();
    ds.add_dimension("lat", ny).unwrap();
    ds.add_dimension("lon", nx).unwrap();
    ds.add_variable_f32("tas", &["time", "lat", "lon"], vec![280.0; nt * ny * nx]).unwrap();
    let path =
        std::env::temp_dir().join(format!("datacube-ingest-cost-{}.ncx", std::process::id()));
    ds.write_to_path(&path).unwrap();
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
