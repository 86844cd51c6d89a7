//! The idle-bus promise: with no subscriber, `emit_with` is one relaxed
//! atomic load and a never-taken branch, and the event is not even
//! constructed. What the bus costs a whole traced run is wfbench's
//! `obs.emit_ns` / `obs.trace_overhead_frac`.

use obs::{Bus, EventKind};
use std::time::Instant;

/// Median cost an inactive-bus `emit_with` may reach before it is a
/// regression. Recorded medians on a 2-core host sit at 0.7–1.6 ns.
const INACTIVE_EMIT_BUDGET_NS: f64 = 25.0;

/// Gate (`scripts/check.sh`, release): the median over 50 samples of the
/// mean cost of 2·10⁶ back-to-back `emit_with` calls on a bus nobody
/// subscribed to stays within [`INACTIVE_EMIT_BUDGET_NS`] (a single call is
/// far below the clock's resolution).
#[test]
#[ignore = "timing gate: run in release by scripts/check.sh"]
fn inactive_bus_emit_stays_within_budget() {
    const OPS: u64 = 2_000_000;
    // A private bus keeps the measurement independent of the global one.
    let idle = Bus::new();
    let mut samples: Vec<f64> = (0..50)
        .map(|_| {
            let start = Instant::now();
            for i in 0..OPS {
                idle.emit_with(|| EventKind::QueueDepth {
                    ready: std::hint::black_box(i as usize),
                    running: std::hint::black_box(2),
                });
            }
            start.elapsed().as_nanos() as f64 / OPS as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    println!("inactive-bus emit_with: {median:.2} ns/op (budget {INACTIVE_EMIT_BUDGET_NS} ns)");
    assert!(
        median <= INACTIVE_EMIT_BUDGET_NS,
        "inactive-bus emit_with costs {median:.2} ns/op, over the {INACTIVE_EMIT_BUDGET_NS} ns budget"
    );
}
