//! A2 (ablation) — Data Logistics Service: deploy-time vs run-time staging.
//!
//! Section 4.1: the DLS "executes the required data pipelines either at
//! deployment or execution time". For the case study's baseline archive
//! (one 4 GB dataset used by every year), staging once at deployment beats
//! re-staging per run — unless only one year ever runs. Both virtual-time
//! totals (the DLS's own link model) are recorded per campaign length.

use bench::Record;
use hpcwaas::dls::{DataLogistics, Link, PipelineSpec};

const BASELINE_BYTES: u64 = 4_000_000_000;
const PER_YEAR_SUBSET: u64 = 400_000_000;

fn wan() -> DataLogistics {
    let mut dls = DataLogistics::new();
    dls.set_link("archive", "zeus", Link { bandwidth_mbps: 250.0, latency_ms: 80 });
    dls.set_link("archive", "cloud", Link { bandwidth_mbps: 800.0, latency_ms: 30 });
    dls.set_link("cloud", "zeus", Link { bandwidth_mbps: 400.0, latency_ms: 20 });
    dls
}

/// Deploy-time: the whole baseline once; every run finds it resident.
fn deploy_time() -> u64 {
    let stage_in = PipelineSpec::new().stage("baseline", "archive", "zeus", BASELINE_BYTES);
    wan().execute(&stage_in).total_ms
}

/// Run-time: each year stages the subset it needs.
fn run_time(years: usize) -> u64 {
    let mut dls = wan();
    let mut total = 0;
    for y in 0..years {
        let p =
            PipelineSpec::new().stage(&format!("subset-{y}"), "archive", "zeus", PER_YEAR_SUBSET);
        total += dls.execute(&p).total_ms;
    }
    total
}

fn main() {
    let mut rec = Record::new("a2_dls_staging");
    for years in [1usize, 5, 10, 35] {
        rec.value(format!("deploy_time/{years}y"), "virtual_ms", [deploy_time() as f64]);
        rec.value(format!("run_time/{years}y"), "virtual_ms", [run_time(years) as f64]);
    }
    rec.finish();
}
