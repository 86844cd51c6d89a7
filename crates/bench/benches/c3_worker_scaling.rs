//! C3 — task-graph parallelism: makespan vs worker count.
//!
//! Section 4.2.1: the COMPSs runtime "is able to exploit the potential
//! parallelism of the task graph by scheduling those tasks that do not
//! have data dependencies between them". A year of the case study fans
//! out into six independent index tasks plus two TC pipelines; this bench
//! runs a case-study-shaped DAG on 1–8 workers.
//!
//! Task durations are *simulated* (sleeps): this isolates the runtime's
//! ability to overlap independent tasks from the host's core count, which
//! matters because the reproduction environment may have a single core
//! while the paper's testbed had 12,528. With simulated durations the
//! expected shape is near-linear gains until the graph's width (≈6 at the
//! index stage) is exhausted.

use bench::Record;
use dataflow::prelude::*;
use std::time::Duration;

/// One "year" of the case-study shape: stage -> {2 imports} -> {6 indices}
/// -> validate -> export, plus tc_pre -> {cnn, track}. Every task simulates
/// `task_us` of execution.
fn submit_year(rt: &Runtime<Bytes>, year: usize, task_us: u64) -> DataRef {
    let work = move |_: &[std::sync::Arc<Bytes>]| {
        std::thread::sleep(Duration::from_micros(task_us));
        Ok(vec![Bytes::empty()])
    };
    let y = year.to_string();
    let stage = rt.task("stage").writes(&[format!("s-{y}").as_str()]).run(work).unwrap();
    let tmax = rt
        .task("import_tmax")
        .reads(&[stage.outputs[0].clone()])
        .writes(&[format!("tx-{y}").as_str()])
        .run(work)
        .unwrap();
    let tmin = rt
        .task("import_tmin")
        .reads(&[stage.outputs[0].clone()])
        .writes(&[format!("tn-{y}").as_str()])
        .run(work)
        .unwrap();
    let mut index_outs = Vec::new();
    for (i, src) in [&tmax, &tmax, &tmax, &tmin, &tmin, &tmin].iter().enumerate() {
        let h = rt
            .task("index")
            .reads(&[src.outputs[0].clone()])
            .writes(&[format!("i{i}-{y}").as_str()])
            .run(work)
            .unwrap();
        index_outs.push(h.outputs[0].clone());
    }
    let validate = rt
        .task("validate")
        .reads(&index_outs)
        .writes(&[format!("v-{y}").as_str()])
        .run(work)
        .unwrap();
    let tc_pre = rt
        .task("tc_pre")
        .reads(&[stage.outputs[0].clone()])
        .writes(&[format!("tp-{y}").as_str()])
        .run(work)
        .unwrap();
    rt.task("tc_cnn")
        .reads(&[tc_pre.outputs[0].clone()])
        .writes(&[format!("tc-{y}").as_str()])
        .run(work)
        .unwrap();
    rt.task("tc_track")
        .reads(&[tc_pre.outputs[0].clone()])
        .writes(&[format!("tt-{y}").as_str()])
        .run(work)
        .unwrap();
    validate.outputs[0].clone()
}

fn run_dag(workers: usize, years: usize, task_us: u64) {
    let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(workers));
    for y in 0..years {
        submit_year(&rt, y, task_us);
    }
    rt.barrier().unwrap();
    rt.shutdown();
}

fn main() {
    let mut rec = Record::new("c3_worker_scaling");
    for workers in [1usize, 2, 4, 8] {
        rec.time(format!("case_study_dag/{workers}"), 20, || run_dag(workers, 3, 3_000));
    }
    rec.finish();
}
