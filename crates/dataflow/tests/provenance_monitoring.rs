//! Integration tests for the provenance and monitoring surfaces of the
//! runtime.

use dataflow::prelude::*;
use dataflow::TaskState;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn provenance_records_full_lineage_of_a_pipeline() {
    let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(2));
    let a = rt.task("esm").writes(&["year"]).run(|_| Ok(vec![Bytes::from_u64(1)])).unwrap();
    let b = rt
        .task("import")
        .reads(&[a.outputs[0].clone()])
        .writes(&["cube"])
        .run(|i| Ok(vec![Bytes::from_u64(i[0].as_u64().unwrap() * 2)]))
        .unwrap();
    let c = rt
        .task("index")
        .reads(&[b.outputs[0].clone()])
        .writes(&["hwn"])
        .run(|i| Ok(vec![Bytes::from_u64(i[0].as_u64().unwrap() + 1)]))
        .unwrap();
    rt.barrier().unwrap();

    let prov = rt.provenance();
    assert_eq!(prov.records().len(), 3);

    // Lineage of the final product covers the whole chain.
    let lineage = prov.lineage(&c.outputs[0]);
    assert_eq!(lineage.len(), 3);
    assert_eq!(lineage[0], c.id);
    assert!(lineage.contains(&a.id));

    // Records carry worker and timing.
    let rec = prov.task(b.id).unwrap();
    assert_eq!(rec.name, "import");
    assert!(rec.worker.is_some());
    assert!(rec.duration.is_some());
    assert_eq!(rec.final_state, TaskState::Completed);
    assert_eq!(rec.used, vec![a.outputs[0].clone()]);
    assert_eq!(rec.generated, vec![b.outputs[0].clone()]);

    // PROV text export mentions every relation.
    let doc = prov.to_prov_text();
    assert!(doc.contains("used(task:3, data:cube@v1)"));
    assert!(doc.contains("wasGeneratedBy(data:hwn@v1, task:3)"));
    rt.shutdown();
}

#[test]
fn provenance_captures_failures_and_cancellations() {
    let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(2));
    let bad = rt
        .task("bad")
        .writes(&["x"])
        .on_failure(FailurePolicy::IgnoreCancelSuccessors)
        .run(|_| Err("boom".into()))
        .unwrap();
    let child = rt
        .task("child")
        .reads(&[bad.outputs[0].clone()])
        .writes(&["y"])
        .run(|_| Ok(vec![Bytes(Vec::new())]))
        .unwrap();
    rt.barrier().unwrap();

    let prov = rt.provenance();
    assert_eq!(prov.task(bad.id).unwrap().final_state, TaskState::Failed);
    assert_eq!(prov.task(child.id).unwrap().final_state, TaskState::Cancelled);
    rt.shutdown();
}

#[test]
fn status_snapshot_tracks_progress() {
    let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(2));
    let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
    for i in 0..4 {
        let gate = Arc::clone(&gate);
        rt.task("slow")
            .writes(&[format!("o{i}").as_str()])
            .run(move |_| {
                while !gate.load(std::sync::atomic::Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(vec![Bytes(Vec::new())])
            })
            .unwrap();
    }
    // While blocked: 2 running (2 workers), 2 queued.
    std::thread::sleep(Duration::from_millis(30));
    let snap = rt.status();
    assert_eq!(snap.total(), 4);
    assert_eq!(snap.running, 2);
    assert_eq!(snap.ready + snap.pending, 2);
    assert_ne!((snap.pending, snap.ready, snap.running), (0, 0, 0));
    assert_eq!(snap.running_tasks.len(), 2);
    assert!(snap.running_tasks.iter().all(|t| t.name == "slow"));
    assert!(snap.running_tasks.iter().all(|t| t.elapsed >= Duration::from_millis(10)));

    gate.store(true, std::sync::atomic::Ordering::SeqCst);
    rt.barrier().unwrap();
    let snap = rt.status();
    assert_eq!(snap.completed, 4);
    assert_eq!((snap.pending, snap.ready, snap.running), (0, 0, 0));
    rt.shutdown();
}

#[test]
fn checkpoint_restored_tasks_appear_in_provenance() {
    let dir = std::env::temp_dir().join("dataflow-prov-ckpt");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("log.ckpt");

    {
        let rt: Runtime<Bytes> =
            Runtime::new(RuntimeConfig::with_cpu_workers(1).with_checkpoint(ckpt.clone()));
        rt.task("a").key("a").writes(&["x"]).run(|_| Ok(vec![Bytes::from_u64(5)])).unwrap();
        rt.barrier().unwrap();
        rt.shutdown();
    }
    let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(1).with_checkpoint(ckpt));
    let h = rt.task("a").key("a").writes(&["x"]).run(|_| panic!("restored")).unwrap();
    rt.barrier().unwrap();
    let prov = rt.provenance();
    let rec = prov.task(h.id).unwrap();
    assert_eq!(rec.final_state, TaskState::Completed);
    assert_eq!(rec.worker, None, "restored tasks have no executing worker");
    rt.shutdown();
}

/// A task that fails `failures` times before succeeding, `body` long each
/// attempt.
fn flaky(
    failures: u32,
    body: Duration,
) -> impl Fn(&[Arc<Bytes>]) -> Result<Vec<Bytes>, String> + Send + Sync + 'static {
    let tries = std::sync::atomic::AtomicU32::new(0);
    move |_| {
        std::thread::sleep(body);
        if tries.fetch_add(1, std::sync::atomic::Ordering::SeqCst) < failures {
            Err("transient".into())
        } else {
            Ok(vec![Bytes(Vec::new())])
        }
    }
}

#[test]
fn provenance_attempts_count_every_started_attempt() {
    let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(2));
    let rx = rt.subscribe();
    let h = rt
        .task("flaky")
        .writes(&["x"])
        .on_failure(FailurePolicy::RetryBackoff { max_retries: 3, base_ms: 0, cap_ms: 0 })
        .run(flaky(1, Duration::ZERO))
        .unwrap();
    rt.barrier().unwrap();
    let last_started = rx.drain().iter().rev().find_map(|e| match e.kind {
        obs::EventKind::TaskStarted { task, attempt, .. } if task == h.id.0 => Some(attempt),
        _ => None,
    });
    assert_eq!(last_started, Some(2));
    assert_eq!(rt.provenance().task(h.id).unwrap().attempts, 2, "failed once, then completed");

    // Exhausting `max_retries = 2` takes three attempts.
    let doomed = rt
        .task("doomed")
        .writes(&["y"])
        .on_failure(FailurePolicy::RetryBackoff { max_retries: 2, base_ms: 0, cap_ms: 0 })
        .run(flaky(u32::MAX, Duration::ZERO))
        .unwrap();
    assert!(rt.barrier().is_err());
    let rec = rt.provenance().task(doomed.id).cloned().unwrap();
    assert_eq!((rec.final_state, rec.attempts), (TaskState::Failed, 3));
    rt.shutdown();
}

#[test]
fn provenance_started_is_the_start_of_the_final_attempt() {
    let body = Duration::from_millis(100);
    let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(2));
    let h = rt
        .task("slow-flaky")
        .writes(&["x"])
        .on_failure(FailurePolicy::RetryBackoff { max_retries: 1, base_ms: 0, cap_ms: 0 })
        .run(flaky(1, body))
        .unwrap();
    rt.barrier().unwrap();
    let done = std::time::SystemTime::now();
    let rec = rt.provenance().task(h.id).cloned().unwrap();
    let (started, duration) = (rec.started.unwrap(), rec.duration.unwrap());
    assert!(duration >= body && duration < 2 * body, "final attempt only: {duration:?}");
    assert!(started <= done - body, "started is stamped at the start, not at the end");
    // `started + duration` is when the final attempt ended — the instant
    // the barrier was released — not the first attempt's end.
    let end = started + duration;
    let gap = done.duration_since(end).or_else(|_| end.duration_since(done)).unwrap();
    assert!(gap < Duration::from_millis(50), "started + duration is {gap:?} off the barrier");
    rt.shutdown();
}
