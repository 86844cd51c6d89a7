//! Dropped DLS transfer stages retry, then degrade.
//!
//! These tests arm the process-wide chaos hook at `hpcwaas.dls.transfer`,
//! which every DLS pipeline in the process consults, the orchestrator's
//! deploy-time staging included. They therefore live in a test binary of
//! their own: beside the crate's unit tests, a concurrent clean-path
//! pipeline could take a drop meant for these.

use hpcwaas::dls::{DataLogistics, PipelineSpec};
use obs::chaos::Fault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn dropped_transfers_retry_then_deliver() {
    // Drop the first two attempts; the third delivers.
    let n = Arc::new(AtomicU64::new(0));
    let n2 = Arc::clone(&n);
    let _guard = obs::chaos::install(Arc::new(move |site: &str| {
        (site == "hpcwaas.dls.transfer" && n2.fetch_add(1, Ordering::SeqCst) < 2)
            .then_some((Fault::Drop, 0))
    }));
    let mut dls = DataLogistics::new();
    let r = dls.execute(&PipelineSpec::new().stage("x", 100_000_000));
    assert_eq!(r.stages[0].attempts, 3);
    assert_eq!(r.retries, 2);
    assert!(!r.degraded);
    // Each dropped attempt paid the full stage cost (1050 ms).
    assert_eq!(r.total_ms, 3 * 1050);
}

#[test]
fn exhausted_transfer_degrades_but_pipeline_continues() {
    let _guard = obs::chaos::install(Arc::new(|site: &str| {
        (site == "hpcwaas.dls.transfer").then_some((Fault::Drop, 0))
    }));
    let mut dls = DataLogistics::new();
    let p = PipelineSpec::new().stage("x", 100_000_000).stage("y", 100_000_000);
    let r = dls.execute(&p);
    assert!(r.degraded, "exhausted stage must flag degraded mode");
    assert_eq!(r.stages.len(), 2, "loss of one stage must not stop the pipeline");
    // Three attempts per stage, the service's cap.
    assert_eq!(r.stages[0].attempts, 3);
    assert_eq!(r.retries, 4, "two extra attempts per stage");
}
