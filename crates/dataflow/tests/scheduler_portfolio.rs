//! The one placement rule: an idle worker takes the oldest ready task
//! whose constraint its profile satisfies. Every task runs exactly once,
//! constraints hold, an incompatible head of the ready list never stalls
//! a worker that could run something behind it, and each pick is joined
//! with the measured duration of its attempt.

use dataflow::prelude::*;
use obs::EventKind;
use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Two CPU workers and one GPU worker (index 2).
fn mixed_pool() -> Runtime<Bytes> {
    let config = RuntimeConfig {
        workers: vec![WorkerProfile::cpu(), WorkerProfile::cpu(), WorkerProfile::gpu()],
        ..RuntimeConfig::with_cpu_workers(1)
    };
    Runtime::new(config)
}

/// Size of the `load` task's output.
const RAW_BYTES: usize = 64 << 10;

/// Builds a small diamond workflow with one GPU-constrained stage and
/// returns the final output ref. Shape:
///
/// ```text
///   load ──┬── analyze(cpu) ──┐
///          ├── analyze(cpu) ──┼── reduce
///          └── infer(gpu)  ───┘
/// ```
fn diamond(rt: &Runtime<Bytes>) -> DataRef {
    let load =
        rt.task("load").writes(&["raw"]).run(|_| Ok(vec![Bytes(vec![7u8; RAW_BYTES])])).unwrap();
    let mut reads = Vec::new();
    for i in 0..2u64 {
        let h = rt
            .task("analyze")
            .constraint(Constraint::cpu())
            .reads(&[load.outputs[0].clone()])
            .writes(&[format!("mid{i}").as_str()])
            .run(move |inp: &[Arc<Bytes>]| Ok(vec![Bytes::from_u64(inp[0].0.len() as u64 + i)]))
            .unwrap();
        reads.push(h.outputs[0].clone());
    }
    let infer = rt
        .task("infer")
        .constraint(Constraint::gpu())
        .reads(&[load.outputs[0].clone()])
        .writes(&["pred"])
        .run(|inp: &[Arc<Bytes>]| Ok(vec![Bytes::from_u64(inp[0].0.len() as u64 * 2)]))
        .unwrap();
    reads.push(infer.outputs[0].clone());
    let reduce = rt
        .task("reduce")
        .reads(&reads)
        .writes(&["out"])
        .run(|inp: &[Arc<Bytes>]| {
            Ok(vec![Bytes::from_u64(inp.iter().map(|b| b.as_u64().unwrap()).sum())])
        })
        .unwrap();
    reduce.outputs[0].clone()
}

#[test]
fn each_task_runs_exactly_once_and_respects_constraints() {
    let rt = mixed_pool();
    let rx = rt.subscribe();
    let out = diamond(&rt);
    let got = rt.fetch(&out).unwrap().as_u64().unwrap();
    rt.barrier().unwrap();

    // (raw + 0) + (raw + 1) + 2 * raw.
    assert_eq!(got, 4 * RAW_BYTES as u64 + 1);

    // Exactly one start per task, no retries.
    let mut starts: HashMap<u64, u32> = HashMap::new();
    for e in rx.drain() {
        if let EventKind::TaskStarted { task, .. } = e.kind {
            *starts.entry(task).or_default() += 1;
        }
    }
    assert_eq!(starts.len(), 5, "5 tasks should start");
    for (task, n) in &starts {
        assert_eq!(*n, 1, "task {task} started {n} times");
    }

    // Constraints respected: the GPU task landed on the GPU worker
    // (index 2), CPU-constrained tasks never did.
    for d in rt.scheduler_decisions() {
        match &*d.name {
            "infer" => assert_eq!(d.worker, 2, "infer must run on gpu"),
            "analyze" => assert_ne!(d.worker, 2, "analyze is cpu-only"),
            _ => {}
        }
        assert!(d.actual_us.is_some(), "completed tasks carry measured durations");
    }
    rt.shutdown();
}

/// One worker and a gate task make the ready-set evolution deterministic:
/// the twelve tasks behind the gate become ready at once, in submission
/// order, and must be placed in exactly that order — and again on a
/// second run with the same seed.
#[test]
fn same_seed_reproduces_identical_placements() {
    fn placements(seed: u64) -> Vec<(u64, usize)> {
        let config = RuntimeConfig {
            workers: vec![WorkerProfile::cpu()],
            seed,
            ..RuntimeConfig::with_cpu_workers(1)
        };
        let rt: Runtime<Bytes> = Runtime::new(config);
        let gate = rt
            .task("gate")
            .writes(&["g"])
            .run(|_| {
                std::thread::sleep(Duration::from_millis(10));
                Ok(vec![Bytes::from_u64(0)])
            })
            .unwrap();
        // Everything below becomes ready at once when the gate opens.
        for i in 0..12u64 {
            rt.task("work")
                .reads(&[gate.outputs[0].clone()])
                .writes(&[format!("w{i}").as_str()])
                .run(move |_| Ok(vec![Bytes::from_u64(i)]))
                .unwrap();
        }
        rt.barrier().unwrap();
        let log: Vec<(u64, usize)> =
            rt.scheduler_decisions().iter().map(|d| (d.task.0, d.worker)).collect();
        rt.shutdown();
        log
    }

    let a = placements(7);
    let submission_order: Vec<(u64, usize)> = (1..=13).map(|t| (t, 0)).collect();
    assert_eq!(a, submission_order, "13 placements on worker 0, in submission order");
    assert_eq!(a, placements(7), "same seed, same placement log");
}

/// With the only GPU worker busy, a GPU-only task at the head of the ready
/// list must not stop the CPU worker from starting the CPU task behind it.
#[test]
fn incompatible_head_does_not_block_a_compatible_task_behind_it() {
    let config = RuntimeConfig {
        workers: vec![WorkerProfile::cpu(), WorkerProfile::gpu()],
        ..RuntimeConfig::with_cpu_workers(1)
    };
    let rt: Runtime<Bytes> = Runtime::new(config);
    let patience = Duration::from_secs(5);

    // Occupy the GPU worker until the CPU task has run. It gives up after
    // far longer than the test waits, so a CPU task that could start only
    // once the GPU frees never counts as started in time.
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let hold = rt
        .task("hold")
        .constraint(Constraint::gpu())
        .writes(&["h"])
        .run(move |_| {
            held_tx.send(()).ok();
            let release = release_rx.lock().expect("one holder");
            release.recv_timeout(Duration::from_secs(60)).ok();
            Ok(vec![Bytes(Vec::new())])
        })
        .unwrap();
    held_rx.recv_timeout(patience).expect("the GPU worker picked up the holding task");

    // Head of the ready list: runnable only on the busy GPU worker.
    let infer = rt
        .task("infer")
        .constraint(Constraint::gpu())
        .writes(&["p"])
        .run(|_| Ok(vec![Bytes(Vec::new())]))
        .unwrap();
    // Behind it: a CPU task the idle CPU worker can start now.
    let (ran_tx, ran_rx) = mpsc::channel();
    let analyze = rt
        .task("analyze")
        .constraint(Constraint::cpu())
        .writes(&["a"])
        .run(move |_| {
            ran_tx.send(()).ok();
            Ok(vec![Bytes(Vec::new())])
        })
        .unwrap();
    let ran_while_gpu_busy = ran_rx.recv_timeout(patience).is_ok();
    release_tx.send(()).ok();
    rt.barrier().unwrap();

    assert!(ran_while_gpu_busy, "the CPU task waited behind an incompatible head");
    let worker_of: HashMap<u64, usize> =
        rt.scheduler_decisions().iter().map(|d| (d.task.0, d.worker)).collect();
    assert_eq!(worker_of[&hold.id.0], 1);
    assert_eq!(worker_of[&infer.id.0], 1, "the GPU-only head ran on the GPU worker");
    assert_eq!(worker_of[&analyze.id.0], 0);
    rt.shutdown();
}
