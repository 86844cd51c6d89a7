//! Cross-module integration tests for the dataflow runtime: checkpoint
//! resume, constrained placement, the streaming master loop that powers
//! the climate workflow, and the paper's orchestration claims (C1, C3, C6)
//! as ratio tests on sleep-shaped DAGs. Sleeps make those ratios
//! independent of the host's core count; each bound is at most half the
//! effect recorded in EXPERIMENTS.md, which leaves room for a noisy host.

use dataflow::prelude::*;
use dataflow::stream::{DirWatcher, YearlyRule};
use dataflow::Error;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
        workers: vec![WorkerProfile::cpu(), WorkerProfile::cpu(), WorkerProfile::gpu()],
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

/// A task body that sleeps `us` and outputs an empty payload.
fn sleep_task(us: u64) -> impl Fn(&[Arc<Bytes>]) -> Result<Vec<Bytes>, String> + Copy {
    move |_| {
        std::thread::sleep(Duration::from_micros(us));
        Ok(vec![Bytes(Vec::new())])
    }
}

/// Median wall time in ms of `a` and of `b` over `reps` runs each, taken
/// in alternation so that host drift hits both sides alike.
fn paired_median_ms(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64() * 1e3
    };
    let (mut ta, mut tb): (Vec<f64>, Vec<f64>) =
        (0..reps).map(|_| (time(&mut a), time(&mut b))).unzip();
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(&mut ta), median(&mut tb))
}

/// Three years of the case-study shape, every task a 3 ms sleep: stage ->
/// {import_tmax, import_tmin} -> 6 indices -> validate, plus tc_pre ->
/// {tc_cnn, tc_track}.
fn case_study_dag(workers: usize) {
    let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(workers));
    let work = sleep_task(3_000);
    for y in 0..3 {
        let task = |name: &str, reads: &[&TaskHandle]| {
            let reads: Vec<DataRef> = reads.iter().map(|h| h.outputs[0].clone()).collect();
            rt.task(name).reads(&reads).writes(&[format!("{name}-{y}").as_str()]).run(work).unwrap()
        };
        let stage = task("stage", &[]);
        let tmax = task("import_tmax", &[&stage]);
        let tmin = task("import_tmin", &[&stage]);
        let indices: Vec<TaskHandle> = ["hwd", "hwn", "hwf", "cwd", "cwn", "cwf"]
            .iter()
            .enumerate()
            .map(|(i, name)| task(name, &[if i < 3 { &tmax } else { &tmin }]))
            .collect();
        task("validate", &indices.iter().collect::<Vec<_>>());
        let tc_pre = task("tc_pre", &[&stage]);
        task("tc_cnn", &[&tc_pre]);
        task("tc_track", &[&tc_pre]);
    }
    rt.barrier().unwrap();
    rt.shutdown();
}

/// C3 (Section 4.2.1): the runtime runs independent tasks side by side.
/// 6.29x is recorded at 8 workers; the DAG's width allows about 8.
#[test]
fn c3_case_study_dag_is_three_times_faster_on_eight_workers() {
    let (one, eight) = paired_median_ms(5, || case_study_dag(1), || case_study_dag(8));
    let speedup = one / eight;
    println!("C3: 1 worker {one:.1} ms, 8 workers {eight:.1} ms, {speedup:.2}x");
    assert!(speedup >= 3.0, "8 workers are only {speedup:.2}x faster than 1");
}

/// `years` of ESM (a 40 ms sleep, chained) each followed by an analysis
/// chain (stage 2 ms -> 6 x index 5 ms -> export 2 ms) on 4 workers. Sim-
/// first waits for the whole simulation before submitting any analysis;
/// as-years-arrive submits every year's analysis behind its ESM task.
fn esm_then_analysis(years: usize, sim_first: bool) {
    let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(4));
    let mut esm: Vec<DataRef> = Vec::new();
    for y in 0..years {
        let h = rt
            .task("esm")
            .reads(&esm[esm.len().saturating_sub(1)..])
            .writes(&[format!("esm-{y}").as_str()])
            .run(sleep_task(40_000))
            .unwrap();
        esm.push(h.outputs[0].clone());
    }
    if sim_first {
        rt.barrier().unwrap();
    }
    for (y, year) in esm.iter().enumerate() {
        let stage = rt
            .task("stage")
            .reads(std::slice::from_ref(year))
            .writes(&[format!("stage-{y}").as_str()])
            .run(sleep_task(2_000))
            .unwrap();
        let indices: Vec<DataRef> = (0..6)
            .map(|i| {
                let h = rt
                    .task("index")
                    .reads(&stage.outputs)
                    .writes(&[format!("idx{i}-{y}").as_str()])
                    .run(sleep_task(5_000))
                    .unwrap();
                h.outputs[0].clone()
            })
            .collect();
        rt.task("export")
            .reads(&indices)
            .writes(&[format!("export-{y}").as_str()])
            .run(sleep_task(2_000))
            .unwrap();
    }
    rt.barrier().unwrap();
    rt.shutdown();
}

/// C1 (Sections 3, 5.1): analysing each year as it arrives overlaps the
/// analysis with the rest of the simulation. 13% is recorded at 6 years.
#[test]
fn c1_as_years_arrive_saves_six_percent_over_sim_first() {
    let (sim_first, arrive) =
        paired_median_ms(5, || esm_then_analysis(6, true), || esm_then_analysis(6, false));
    let saved = 1.0 - arrive / sim_first;
    println!("C1: sim-first {sim_first:.1} ms, as-years-arrive {arrive:.1} ms, saved {saved:.3}");
    assert!(saved >= 0.06, "as-years-arrive saves only {:.1}%", saved * 100.0);
}

/// A chain of 24 keyed 2 ms sleep tasks on 2 workers, logged to `ckpt` if
/// given. Returns how many task bodies ran.
fn checkpointed_chain(ckpt: Option<&std::path::Path>) -> u32 {
    let mut config = RuntimeConfig::with_cpu_workers(2);
    if let Some(path) = ckpt {
        config = config.with_checkpoint(path.to_path_buf());
    }
    let rt: Runtime<Bytes> = Runtime::new(config);
    let bodies = Arc::new(AtomicU32::new(0));
    let mut prev: Vec<DataRef> = Vec::new();
    for i in 0..24 {
        let ran = Arc::clone(&bodies);
        let h = rt
            .task("step")
            .key(&format!("step-{i}"))
            .reads(&prev)
            .writes(&["state"])
            .run(move |inputs| {
                ran.fetch_add(1, Ordering::SeqCst);
                sleep_task(2_000)(inputs)
            })
            .unwrap();
        prev = h.outputs;
    }
    rt.barrier().unwrap();
    rt.shutdown();
    bodies.load(Ordering::SeqCst)
}

/// C6 (Section 4.2.1): task-level checkpointing costs little while the
/// run is healthy and skips every finished task on restart. +0.5% logging
/// overhead and a body-free resume are recorded.
#[test]
fn c6_checkpoint_logging_is_cheap_and_a_complete_log_resumes_without_work() {
    let dir = tmpdir("c6-chain");
    let complete = dir.join("complete.ckpt");
    assert_eq!(checkpointed_chain(Some(&complete)), 24);
    assert_eq!(checkpointed_chain(Some(&complete)), 0, "a complete log leaves nothing to run");

    let mut runs = 0;
    let (plain, logged) = paired_median_ms(
        15,
        || assert_eq!(checkpointed_chain(None), 24),
        || {
            runs += 1;
            assert_eq!(checkpointed_chain(Some(&dir.join(format!("fresh-{runs}.ckpt")))), 24);
        },
    );
    let ratio = logged / plain;
    println!("C6: unlogged {plain:.1} ms, logged {logged:.1} ms, {ratio:.3}x");
    assert!(ratio <= 1.25, "checkpoint logging costs {ratio:.3}x the unlogged chain");
}
