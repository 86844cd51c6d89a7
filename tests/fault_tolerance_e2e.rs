//! C6: fault tolerance and checkpoint recovery exercised with the
//! workflow's own payload type over workflow-shaped graphs.

use climate_workflows::WfData;
use dataflow::prelude::*;
use dataflow::Error;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("root-ft").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A year-shaped fragment: esm -> stage -> {index_a, index_b} -> export,
/// with the chosen task failing `fail_times` times before succeeding.
fn run_year_graph(
    ckpt: Option<PathBuf>,
    flaky_task: &str,
    fail_times: u32,
    executions: Arc<AtomicU32>,
) -> Result<String, Error> {
    let mut config = RuntimeConfig::with_cpu_workers(2);
    if let Some(p) = ckpt {
        config = config.with_checkpoint(p);
    }
    let rt: Runtime<WfData> = Runtime::new(config);

    let flaky = |name: &str| -> FailurePolicy {
        if name == flaky_task {
            FailurePolicy::RetryBackoff { max_retries: fail_times + 1, base_ms: 0, cap_ms: 0 }
        } else {
            FailurePolicy::FailFast
        }
    };
    let attempts = Arc::new(AtomicU32::new(0));

    let make = |rt: &Runtime<WfData>,
                name: &'static str,
                key: String,
                reads: Vec<DataRef>,
                payload: WfData|
     -> TaskHandle {
        let execs = Arc::clone(&executions);
        let attempts = Arc::clone(&attempts);
        let is_flaky = name == flaky_task;
        rt.task(name)
            .key(&key)
            .reads(&reads)
            .writes(&[name])
            .on_failure(flaky(name))
            .run(move |_inp| {
                execs.fetch_add(1, Ordering::SeqCst);
                if is_flaky && attempts.fetch_add(1, Ordering::SeqCst) < fail_times {
                    return Err("injected fault".into());
                }
                Ok(vec![payload.clone()])
            })
            .unwrap()
    };

    let esm = make(&rt, "esm", "k-esm".into(), vec![], WfData::Num(2030.0));
    let stage = make(
        &rt,
        "stage",
        "k-stage".into(),
        vec![esm.outputs[0].clone()],
        WfData::Paths(vec![PathBuf::from("/day1"), PathBuf::from("/day2")]),
    );
    let ia =
        make(&rt, "index_a", "k-ia".into(), vec![stage.outputs[0].clone()], WfData::CubeRef(1));
    let ib =
        make(&rt, "index_b", "k-ib".into(), vec![stage.outputs[0].clone()], WfData::CubeRef(2));
    let export = make(
        &rt,
        "export",
        "k-export".into(),
        vec![ia.outputs[0].clone(), ib.outputs[0].clone()],
        WfData::Text("exported".into()),
    );

    let out = rt.fetch(&export.outputs[0]).map(|v| match &*v {
        WfData::Text(t) => t.clone(),
        _ => String::new(),
    });
    rt.barrier()?;
    rt.shutdown();
    out
}

#[test]
fn retries_recover_from_transient_faults() {
    let execs = Arc::new(AtomicU32::new(0));
    let out = run_year_graph(None, "index_a", 2, Arc::clone(&execs)).unwrap();
    assert_eq!(out, "exported");
    // 5 tasks + 2 extra attempts of the flaky one.
    assert_eq!(execs.load(Ordering::SeqCst), 7);
}

#[test]
fn checkpoint_resume_skips_finished_workflow_prefix() {
    let dir = tmp("resume");
    let ckpt = dir.join("wf.ckpt");

    // First run: completes fully and checkpoints everything.
    let execs1 = Arc::new(AtomicU32::new(0));
    run_year_graph(Some(ckpt.clone()), "none", 0, Arc::clone(&execs1)).unwrap();
    assert_eq!(execs1.load(Ordering::SeqCst), 5);

    // Re-run: everything replays from the log, nothing executes.
    let execs2 = Arc::new(AtomicU32::new(0));
    let out = run_year_graph(Some(ckpt), "none", 0, Arc::clone(&execs2)).unwrap();
    assert_eq!(out, "exported");
    assert_eq!(execs2.load(Ordering::SeqCst), 0, "all tasks restored from checkpoint");
}

#[test]
fn checkpoint_preserves_workflow_payload_values() {
    let dir = tmp("payloads");
    let ckpt = dir.join("wf.ckpt");

    let rt: Runtime<WfData> =
        Runtime::new(RuntimeConfig::with_cpu_workers(2).with_checkpoint(ckpt.clone()));
    let h = rt
        .task("producer")
        .key("payload-key")
        .writes(&["blob"])
        .run(|_| {
            Ok(vec![WfData::Paths(vec![PathBuf::from("/a/b.ncx"), PathBuf::from("/c d/e.ncx")])])
        })
        .unwrap();
    rt.fetch(&h.outputs[0]).unwrap();
    rt.barrier().unwrap();
    rt.shutdown();

    // Restore in a fresh runtime: the decoded payload must be identical.
    let rt: Runtime<WfData> =
        Runtime::new(RuntimeConfig::with_cpu_workers(2).with_checkpoint(ckpt));
    let h = rt
        .task("producer")
        .key("payload-key")
        .writes(&["blob"])
        .run(|_| panic!("must not execute: checkpointed"))
        .unwrap();
    let v = rt.fetch(&h.outputs[0]).unwrap();
    assert_eq!(*v, WfData::Paths(vec![PathBuf::from("/a/b.ncx"), PathBuf::from("/c d/e.ncx")]));
    rt.shutdown();
}

#[test]
fn ignored_failure_cancels_only_its_subtree() {
    let rt: Runtime<WfData> = Runtime::new(RuntimeConfig::with_cpu_workers(2));
    // Year A's import fails with ignore policy; year B proceeds.
    let import_a = rt
        .task("import_a")
        .writes(&["cube_a"])
        .on_failure(FailurePolicy::IgnoreCancelSuccessors)
        .run(|_| Err("corrupt year".into()))
        .unwrap();
    let index_a = rt
        .task("index_a")
        .reads(&[import_a.outputs[0].clone()])
        .writes(&["idx_a"])
        .run(|_| Ok(vec![WfData::Unit]))
        .unwrap();
    let import_b =
        rt.task("import_b").writes(&["cube_b"]).run(|_| Ok(vec![WfData::CubeRef(9)])).unwrap();
    let index_b = rt
        .task("index_b")
        .reads(&[import_b.outputs[0].clone()])
        .writes(&["idx_b"])
        .run(|i| Ok(vec![i[0].as_ref().clone()]))
        .unwrap();

    rt.barrier().unwrap();
    assert_eq!(rt.task_state(index_a.id), Some(TaskState::Cancelled));
    assert_eq!(rt.task_state(index_b.id), Some(TaskState::Completed));
    assert_eq!(*rt.fetch(&index_b.outputs[0]).unwrap(), WfData::CubeRef(9));
    rt.shutdown();
}
