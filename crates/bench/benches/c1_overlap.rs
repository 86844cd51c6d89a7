//! C1 — concurrent ESM + analytics vs sequential post-processing.
//!
//! The paper's core efficiency claim (Sections 3, 5.1): integrating
//! simulation and analysis "can help in reducing the overall execution
//! time as different tasks of the workflow can be executed concurrently".
//! This bench isolates the orchestration effect: the case-study shape with
//! *simulated* task durations, submitted sim-first vs as-years-arrive.
//! Expect pipelined ≈ sequential for 1 year and a gap that widens with the
//! year count (analysis of year N overlaps simulation of year N+1). What
//! the overlap is worth on the real workflow is wfbench's
//! `core.overlap_gain` (`benchmark/run.sh`, workloads `wf_staged` /
//! `wf_streaming`), not timed here.

use bench::Record;

/// Each "year" is an ESM task (sleep 40 ms) followed by an analysis chain
/// (stage 2 ms -> 6 x index 5 ms in parallel -> export 2 ms). Sleeps, so
/// the measurement does not depend on the host's core count.
fn simulated_run(years: usize, pipelined: bool) {
    use dataflow::prelude::*;
    use std::time::Duration;
    let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(4));
    let sleep_task = |ms: u64| {
        move |_: &[std::sync::Arc<Bytes>]| {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(vec![Bytes::empty()])
        }
    };
    let mut esm_prev: Option<DataRef> = None;
    let mut year_tokens = Vec::new();
    for y in 0..years {
        let mut b = rt.task("esm").writes(&[format!("esm-{y}").as_str()]);
        if let Some(p) = &esm_prev {
            b = b.reads(std::slice::from_ref(p));
        }
        let h = b.run(sleep_task(40)).unwrap();
        esm_prev = Some(h.outputs[0].clone());
        year_tokens.push(h.outputs[0].clone());
    }
    if !pipelined {
        // Sequential baseline: wait for the entire simulation first.
        rt.barrier().unwrap();
    }
    for (y, token) in year_tokens.iter().enumerate() {
        let stage = rt
            .task("stage")
            .reads(std::slice::from_ref(token))
            .writes(&[format!("stage-{y}").as_str()])
            .run(sleep_task(2))
            .unwrap();
        let mut outs = Vec::new();
        for i in 0..6 {
            let h = rt
                .task("index")
                .reads(&[stage.outputs[0].clone()])
                .writes(&[format!("idx{i}-{y}").as_str()])
                .run(sleep_task(5))
                .unwrap();
            outs.push(h.outputs[0].clone());
        }
        rt.task("export")
            .reads(&outs)
            .writes(&[format!("exp-{y}").as_str()])
            .run(sleep_task(2))
            .unwrap();
    }
    rt.barrier().unwrap();
    rt.shutdown();
}

fn main() {
    let mut rec = Record::new("c1_overlap");
    for years in [1usize, 3, 6] {
        rec.time(format!("sim_sequential/{years}"), 10, || simulated_run(years, false));
        rec.time(format!("sim_pipelined/{years}"), 10, || simulated_run(years, true));
    }
    rec.finish();
}
