//! Observability overhead — the substrate's core promise.
//!
//! With no subscriber, every `emit_with` on a bus is one relaxed atomic
//! load and a never-taken branch; the event payload is not even
//! constructed. With a subscriber, the cost is stamping plus a bounded
//! queue push. This bench measures both sides, so regressions in the
//! "observability is free when off" property show up as numbers. (What the bus costs a whole traced run is
//! wfbench's `obs.emit_ns` / `obs.trace_overhead_frac`.)
//!
//! With `OBS_OVERHEAD_BUDGET_NS` set (as `scripts/check.sh` does) it is
//! also a hard gate: the run aborts if the median inactive-bus `emit_with`
//! exceeds the budget.

use bench::{quartiles, Record};
use obs::{Bus, EventKind};
use std::time::Instant;

/// `n` samples of the cost of one `op` in ns, each the mean over `ops`
/// back-to-back calls (a single call is far below the clock's resolution).
fn per_op_ns(n: usize, ops: u64, mut op: impl FnMut(u64)) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let start = Instant::now();
            (0..ops).for_each(&mut op);
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect()
}

fn main() {
    let mut rec = Record::new("obs_overhead");
    let n = rec.samples(50);
    let queue_depth = |i: u64| EventKind::QueueDepth {
        ready: std::hint::black_box(i as usize),
        running: std::hint::black_box(2),
    };

    // Private buses keep the measurement independent of the global one.
    let idle = Bus::new();
    let inactive = per_op_ns(n, 2_000_000, |i| idle.emit_with(|| queue_depth(i)));
    if let Ok(budget) = std::env::var("OBS_OVERHEAD_BUDGET_NS") {
        let budget_ns: f64 = budget.parse().expect("OBS_OVERHEAD_BUDGET_NS must be a number");
        let (_, per, _) = quartiles(&inactive);
        assert!(
            per <= budget_ns,
            "inactive-bus emit_with costs {per:.2}ns/op, over the {budget_ns}ns budget"
        );
    }
    rec.value("emit_with_no_subscriber", "ns", inactive);

    let active = Bus::new();
    let rx = active.subscribe_with_capacity(1 << 16);
    let subscribed = per_op_ns(n, 100_000, |i| {
        active.emit_with(|| queue_depth(i));
        if rx.len() > 32_000 {
            rx.drain();
        }
    });
    rec.value("emit_with_one_subscriber", "ns", subscribed);

    rec.finish();
}
