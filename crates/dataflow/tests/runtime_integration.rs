//! Cross-module integration tests for the dataflow runtime: checkpoint
//! resume, constrained placement, and the streaming master loop that
//! powers the climate workflow.

use dataflow::prelude::*;
use dataflow::stream::{DirWatcher, YearlyRule};
use dataflow::Error;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dataflow-int").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A three-task pipeline with checkpoint keys; counts executions so we can
/// prove the second run replays instead of re-executing.
fn run_pipeline(
    ckpt: &std::path::Path,
    executions: Arc<AtomicU32>,
    fail_at_c: bool,
) -> Result<u64, Error> {
    let rt: Runtime<Bytes> =
        Runtime::new(RuntimeConfig::with_cpu_workers(2).with_checkpoint(ckpt.to_path_buf()));
    let ex = Arc::clone(&executions);
    let a = rt
        .task("a")
        .key("pipeline-a")
        .writes(&["a"])
        .run(move |_| {
            ex.fetch_add(1, Ordering::SeqCst);
            Ok(vec![Bytes::from_u64(10)])
        })
        .unwrap();
    let ex = Arc::clone(&executions);
    let b = rt
        .task("b")
        .key("pipeline-b")
        .reads(&[a.outputs[0].clone()])
        .writes(&["b"])
        .run(move |i| {
            ex.fetch_add(1, Ordering::SeqCst);
            Ok(vec![Bytes::from_u64(i[0].as_u64().unwrap() * 2)])
        })
        .unwrap();
    let ex = Arc::clone(&executions);
    let c = rt
        .task("c")
        .key("pipeline-c")
        .reads(&[b.outputs[0].clone()])
        .writes(&["c"])
        .run(move |i| {
            ex.fetch_add(1, Ordering::SeqCst);
            if fail_at_c {
                Err("injected failure in task c".into())
            } else {
                Ok(vec![Bytes::from_u64(i[0].as_u64().unwrap() + 1)])
            }
        })
        .unwrap();
    let result = rt.fetch(&c.outputs[0]).map(|v| v.as_u64().unwrap());
    let _ = rt.barrier();
    rt.shutdown();
    result
}

#[test]
fn checkpoint_resume_skips_completed_tasks() {
    let dir = tmpdir("ckpt-resume");
    let ckpt = dir.join("wf.ckpt");

    // First run: c fails after a and b completed (and were checkpointed).
    let execs = Arc::new(AtomicU32::new(0));
    let r = run_pipeline(&ckpt, Arc::clone(&execs), true);
    assert!(r.is_err());
    assert_eq!(execs.load(Ordering::SeqCst), 3, "a, b executed; c attempted");

    // Second run: a and b replay from the log; only c executes.
    let execs2 = Arc::new(AtomicU32::new(0));
    let r = run_pipeline(&ckpt, Arc::clone(&execs2), false);
    assert_eq!(r.unwrap(), 21);
    assert_eq!(execs2.load(Ordering::SeqCst), 1, "only c should execute on resume");

    // Third run: everything replays.
    let execs3 = Arc::new(AtomicU32::new(0));
    let r = run_pipeline(&ckpt, Arc::clone(&execs3), false);
    assert_eq!(r.unwrap(), 21);
    assert_eq!(execs3.load(Ordering::SeqCst), 0);
}

#[test]
fn streaming_master_loop_processes_years_as_they_appear() {
    // Simulates the paper's pattern: a "simulation" thread produces daily
    // files; the master polls the watcher and submits per-year analysis
    // tasks while production continues.
    let dir = tmpdir("stream-master");
    let out = dir.join("esm-out");
    std::fs::create_dir_all(&out).unwrap();

    let days = 5usize;
    let years = 3usize;
    let producer_dir = out.clone();
    let producer = std::thread::spawn(move || {
        for y in 0..years {
            for d in 1..=days {
                std::fs::write(
                    producer_dir.join(format!("esm-{}-{d:03}.ncx", 2030 + y)),
                    vec![y as u8; 128],
                )
                .unwrap();
                std::thread::sleep(Duration::from_millis(3));
            }
        }
    });

    let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(2));
    let mut watcher =
        DirWatcher::new(&out, YearlyRule { prefix: "esm".into(), days_per_year: days });
    let mut analysis_outputs = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while analysis_outputs.len() < years && std::time::Instant::now() < deadline {
        for group in watcher.poll().unwrap() {
            let n_files = group.files.len() as u64;
            let h = rt
                .task("analyze_year")
                .writes(&[format!("indices-{}", group.key).as_str()])
                .run(move |_| Ok(vec![Bytes::from_u64(n_files)]))
                .unwrap();
            analysis_outputs.push(h.outputs[0].clone());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    producer.join().unwrap();

    assert_eq!(analysis_outputs.len(), years, "one analysis task per completed year");
    for out in &analysis_outputs {
        assert_eq!(rt.fetch(out).unwrap().as_u64(), Some(days as u64));
    }
    rt.barrier().unwrap();
    rt.shutdown();
}

#[test]
fn wide_fanout_completes_under_constrained_pool() {
    // 64 tasks, some CPU-only, some GPU-only, on a mixed pool.
    let config = RuntimeConfig {
        workers: vec![WorkerProfile::cpu(8), WorkerProfile::cpu(8), WorkerProfile::gpu(4)],
        ..RuntimeConfig::with_cpu_workers(1)
    };
    let rt: Runtime<Bytes> = Runtime::new(config);
    let mut outs = Vec::new();
    for i in 0..64u64 {
        let c = if i % 4 == 0 { Constraint::gpu() } else { Constraint::cpu() };
        let h = rt
            .task(if i % 4 == 0 { "ml_infer" } else { "analytics" })
            .constraint(c)
            .writes(&["r"])
            .run(move |_| Ok(vec![Bytes::from_u64(i)]))
            .unwrap();
        outs.push((i, h));
    }
    rt.barrier().unwrap();
    for (i, h) in outs {
        assert_eq!(rt.fetch(&h.outputs[0]).unwrap().as_u64(), Some(i));
    }
    let m = rt.metrics();
    assert_eq!(m.completed, 64);
    assert_eq!(m.tasks_per_worker[2], 16, "all GPU tasks on the GPU worker");
    rt.shutdown();
}
