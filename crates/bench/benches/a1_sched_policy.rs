//! A1 (ablation) — the scheduler portfolio head-to-head.
//!
//! Section 3 argues an integrated WMS "can allow for better optimization
//! in terms of data movement and access". The three policies (FIFO,
//! data-locality, HEFT upward-rank) run the same three DAG shapes and
//! are compared on makespan and bytes moved:
//!
//! * `chain`    — 8 independent producer→transform→transform→transform
//!   chains with 1 MB intermediates. Locality should keep each chain on
//!   the worker that holds its data (moved bytes ≈ 0).
//! * `fanout`   — one 1 MB producer feeding 16 independent consumers.
//!   No policy can avoid movement here; placement barely matters.
//! * `workflow` — 12 short analysis tasks submitted *before* a deep
//!   6-deep simulation chain, the shape of the paper's mixed workload.
//!   FIFO drains the fan-out first and only then starts the chain that
//!   dominates the critical path; HEFT's upward rank starts the chain
//!   immediately, overlapping it with the fan-out.
//!
//! Per shape × policy the record carries the makespan (`<shape>/<policy>`)
//! and the bytes moved between workers (`<shape>/<policy>/moved`) of the
//! same runs.

use bench::Record;
use dataflow::prelude::*;
use std::time::{Duration, Instant};

const BLOB: usize = 1 << 20;

fn runtime(policy: Policy) -> Runtime<Bytes> {
    let config = RuntimeConfig {
        workers: vec![WorkerProfile::cpu(4); 4],
        policy,
        ..RuntimeConfig::with_cpu_workers(1)
    };
    Runtime::new(config)
}

/// 8 independent 4-stage chains with 1 MB intermediates.
fn shape_chain(rt: &Runtime<Bytes>) {
    let mut frontier = Vec::new();
    for k in 0..8 {
        let h = rt
            .task("produce")
            .writes(&[format!("blob{k}").as_str()])
            .run(|_| {
                std::thread::sleep(Duration::from_millis(2));
                Ok(vec![Bytes(vec![7u8; BLOB])])
            })
            .unwrap();
        frontier.push(h.outputs[0].clone());
    }
    for stage in 0..3 {
        let mut next = Vec::new();
        for (k, input) in frontier.iter().enumerate() {
            let h = rt
                .task("transform")
                .reads(std::slice::from_ref(input))
                .writes(&[format!("t{stage}-{k}").as_str()])
                .run(|inp| {
                    std::thread::sleep(Duration::from_millis(2));
                    Ok(vec![Bytes(inp[0].0.clone())])
                })
                .unwrap();
            next.push(h.outputs[0].clone());
        }
        frontier = next;
    }
}

/// One 1 MB producer feeding 16 independent consumers.
fn shape_fanout(rt: &Runtime<Bytes>) {
    let src = rt
        .task("produce")
        .writes(&["src"])
        .run(|_| {
            std::thread::sleep(Duration::from_millis(2));
            Ok(vec![Bytes(vec![7u8; BLOB])])
        })
        .unwrap();
    for k in 0..16 {
        rt.task("consume")
            .reads(&[src.outputs[0].clone()])
            .writes(&[format!("c{k}").as_str()])
            .run(|inp| {
                std::thread::sleep(Duration::from_millis(2));
                Ok(vec![Bytes::from_u64(inp[0].0.len() as u64)])
            })
            .unwrap();
    }
}

/// 12 short tasks submitted before a deep 6-task chain: the critical path
/// is the chain, but submission order hides that from FIFO.
fn shape_workflow(rt: &Runtime<Bytes>) {
    for k in 0..12 {
        rt.task("analysis")
            .writes(&[format!("a{k}").as_str()])
            .run(|_| {
                std::thread::sleep(Duration::from_millis(3));
                Ok(vec![Bytes::from_u64(1)])
            })
            .unwrap();
    }
    let mut prev: Option<dataflow::DataRef> = None;
    for step in 0..6 {
        let mut t = rt.task("simulate");
        if let Some(p) = &prev {
            t = t.reads(std::slice::from_ref(p));
        }
        let h = t
            .writes(&[format!("sim{step}").as_str()])
            .run(|_| {
                std::thread::sleep(Duration::from_millis(6));
                Ok(vec![Bytes::from_u64(0)])
            })
            .unwrap();
        prev = Some(h.outputs[0].clone());
    }
}

type ShapeFn = fn(&Runtime<Bytes>);

const SHAPES: [(&str, ShapeFn); 3] =
    [("chain", shape_chain), ("fanout", shape_fanout), ("workflow", shape_workflow)];

/// Runs one shape under one policy; returns (makespan, bytes moved).
fn run(policy: Policy, build: ShapeFn) -> (Duration, u64) {
    let rt = runtime(policy);
    let start = Instant::now();
    build(&rt);
    rt.barrier().unwrap();
    let makespan = start.elapsed();
    let moved = rt.ledger().bytes_moved;
    rt.shutdown();
    (makespan, moved)
}

fn main() {
    let mut rec = Record::new("a1_sched_policy");
    for (shape, build) in SHAPES {
        for policy in Policy::ALL {
            let runs: Vec<_> = (0..rec.samples(10)).map(|_| run(policy, build)).collect();
            let spans = runs.iter().map(|(span, _)| span.as_secs_f64() * 1e3);
            let moved = runs.iter().map(|(_, bytes)| *bytes as f64 / (1 << 20) as f64);
            rec.value(format!("{shape}/{policy}"), "ms", spans);
            rec.value(format!("{shape}/{policy}/moved"), "MB", moved);
        }
    }
    rec.finish();
}
