//! An injected panic at the `dataflow.task` site drives the retry policy.
//!
//! This test arms the process-wide chaos hook, which fires at the first
//! `dataflow.task` consultation of *any* runtime in the process. It
//! therefore lives in a test binary of its own: beside other runtime
//! tests, a concurrent test's task could take the panic meant for this one.

use dataflow::prelude::*;
use obs::chaos::Fault;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

#[test]
fn chaos_injected_panic_drives_retry_policy() {
    // Fire a panic at the first dataflow.task consultation only.
    let hits = Arc::new(AtomicU32::new(0));
    let h2 = Arc::clone(&hits);
    let _guard = obs::chaos::install(Arc::new(move |site: &str| {
        (site == dataflow::inject::SITE_TASK && h2.fetch_add(1, Ordering::SeqCst) == 0)
            .then_some((Fault::Panic, 0))
    }));
    let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(1));
    let h = rt
        .task("victim")
        .writes(&["x"])
        .on_failure(FailurePolicy::RetryBackoff { max_retries: 1, base_ms: 0, cap_ms: 0 })
        .run(|_| Ok(vec![Bytes::from_u64(5)]))
        .unwrap();
    assert_eq!(rt.fetch(&h.outputs[0]).unwrap().as_u64(), Some(5));
    rt.barrier().unwrap();
    assert_eq!(rt.metrics().retries, 1);
    assert!(hits.load(Ordering::SeqCst) >= 2, "site consulted once per attempt");
}
