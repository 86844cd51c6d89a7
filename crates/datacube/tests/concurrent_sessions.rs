//! Concurrency tests over the server façade: the paper's workflow runs
//! several per-year Ophidia pipelines at once against one deployment
//! (Section 6: "PyOphidia can run climate analytics in parallel on each
//! set of files"), so the client/store must tolerate concurrent operator
//! chains, deletes and reads of a shared cube.

use datacube::model::{Cube, Dimension};
use datacube::ops::ReduceOp;
use datacube::Client;
use std::sync::Arc;

fn year_cube(seed: u64, rows: usize, days: usize) -> Cube {
    let dims = vec![
        Dimension::explicit("cell", (0..rows).map(|i| i as f64).collect::<Vec<_>>()),
        Dimension::implicit("day", (0..days).map(|d| d as f64).collect::<Vec<_>>()),
    ];
    let data: Vec<f32> = (0..rows * days)
        .map(|i| 280.0 + (((i as u64).wrapping_mul(seed | 1)) % 400) as f32 / 10.0)
        .collect();
    Cube::from_dense("tas", dims, data, 4, 2).unwrap()
}

#[test]
fn concurrent_listing1_pipelines_share_one_server() {
    let client = Client::connect(2);
    let threads = 6;
    let mut joins = Vec::new();
    for t in 0..threads {
        let client = client.clone();
        joins.push(std::thread::spawn(move || {
            // One "year" per thread: the Listing-1 pipeline.
            let duration = client.adopt(year_cube(t as u64 + 1, 32, 30));
            let mask = duration.apply("predicate(x > 300, 1, 0)").unwrap();
            let count = mask.reduce(ReduceOp::Sum, "day").unwrap();
            mask.delete().unwrap();
            let max = duration.reduce(ReduceOp::Max, "day").unwrap();
            duration.delete().unwrap();
            // Results must be internally consistent.
            let counts = count.cube().unwrap().to_dense();
            assert!(counts.iter().all(|&c| (0.0..=30.0).contains(&c)));
            let maxima = max.cube().unwrap().to_dense();
            assert!(maxima.iter().all(|&m| (280.0..321.0).contains(&m)));
            (count.id(), max.id())
        }));
    }
    let ids: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    // Every thread got distinct cube ids; survivors = 2 per thread.
    let mut all: Vec<u64> = ids.iter().flat_map(|(a, b)| [a.0, b.0]).collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), threads * 2);
    assert_eq!(client.resident_cubes(), threads * 2);

    // The audit trail saw every operator from every thread.
    let audit = client.audit();
    let count = |op: &str| audit.iter().filter(|r| r.operator == op).count();
    assert_eq!(count("apply"), threads);
    assert_eq!(count("reduce"), threads * 2);
    assert_eq!(count("delete"), threads * 2);
}

#[test]
fn concurrent_reads_of_one_handle() {
    let client = Client::connect(2);
    let h = Arc::new(client.adopt(year_cube(7, 16, 10)));
    let mut joins = Vec::new();
    for _ in 0..8 {
        let h = Arc::clone(&h);
        joins.push(std::thread::spawn(move || {
            for _ in 0..20 {
                let c = h.cube().unwrap();
                assert_eq!(c.rows(), 16);
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    assert_eq!(client.resident_cubes(), 1, "reads neither copy nor drop the cube");
}
