//! A3 (extension) — multi-site federated execution vs single-site.
//!
//! The paper's future work: run the ESM on a large HPC system, the Big
//! Data analytics on a data-oriented/cloud site and the ML inference on a
//! GPU partition, with the Data Logistics Service moving each year's
//! output between them. The experiment sweeps the per-year data volume
//! and reports the crossover: class-affinity placement wins while the
//! specialized-site speedups (2.5x analytics, 6x inference) outweigh the
//! WAN transfers; single-site wins once shipping dominates.

use bench::Record;
use hpcwaas::{Federation, Placement, Workload};

fn workload(bytes_per_year: u64) -> Workload {
    Workload::case_study(3, 20_000, 6_000, 6, 9_000, bytes_per_year)
}

fn main() {
    // Virtual makespans (the federation's cost model) and the crossover.
    let mut rec = Record::new("a3_distributed");
    for gb in [0.05f64, 0.5, 1.0, 5.0, 20.0, 80.0] {
        let bytes = (gb * 1e9) as u64;
        let single = Federation::testbed().evaluate(&workload(bytes), Placement::SingleSite);
        let affinity = Federation::testbed().evaluate(&workload(bytes), Placement::ClassAffinity);
        let affinity = affinity.unwrap();
        rec.value(
            format!("single_site/{gb}GB"),
            "virtual_ms",
            [single.unwrap().makespan_ms as f64],
        );
        rec.value(format!("class_affinity/{gb}GB"), "virtual_ms", [affinity.makespan_ms as f64]);
        rec.value(
            format!("class_affinity/{gb}GB/transfer"),
            "virtual_ms",
            [affinity.transfer_ms as f64],
        );
    }
    rec.finish();
}
