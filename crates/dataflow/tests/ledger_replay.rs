//! The one-writer contract of the run ledger: every report the runtime
//! serves is a read of one fold of its event stream, so replaying a
//! subscriber's drained events through the public
//! [`StatusFold::apply_event`] must reproduce each of them. A report fact
//! written anywhere but at an event emission makes this fail.

use dataflow::graph::{Node, TaskGraph};
use dataflow::monitor::StatusFold;
use dataflow::prelude::*;
use dataflow::timing::analyze;
use obs::{EventKind, TaskOutcome};
use std::collections::HashMap;
use std::slice::from_ref;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn replayed_event_stream_reproduces_every_report() {
    let dir = std::env::temp_dir().join(format!("dataflow-ledger-replay-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let config = || RuntimeConfig::with_cpu_workers(2).with_checkpoint(dir.join("log.ckpt"));
    let seed = |rt: &Runtime<Bytes>| {
        rt.task("seed").key("seed").writes(&["s"]).run(|_| Ok(vec![Bytes::from_u64(1)])).unwrap()
    };
    {
        let first: Runtime<Bytes> = Runtime::new(config());
        seed(&first);
        first.barrier().unwrap();
        first.shutdown();
    }

    let rt: Runtime<Bytes> = Runtime::new(config());
    let rx = rt.subscribe();
    // The same graph the runtime builds, for the reads that join it.
    let mut graph = TaskGraph::new();
    let mut track = |name: &str, reads: &[DataRef], h: TaskHandle| {
        let (reads, writes) = (reads.to_vec(), h.outputs.clone());
        graph.add_node(Node { id: h.id, name: name.into(), reads, writes });
        h.outputs[0].clone()
    };
    let sleepy = |ms: u64| {
        move |_: &[Arc<Bytes>]| {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(vec![Bytes(Vec::new())])
        }
    };

    // Restored from the first runtime's checkpoint; never executes.
    let s = track("seed", &[], seed(&rt));
    // Fails once, then completes; heads a two-task chain.
    let tries = AtomicU32::new(0);
    let flaky = rt
        .task("flaky")
        .reads(from_ref(&s))
        .writes(&["f"])
        .on_failure(FailurePolicy::RetryBackoff { max_retries: 2, base_ms: 0, cap_ms: 0 })
        .run(move |_| match tries.fetch_add(1, Ordering::SeqCst) {
            0 => Err("transient".into()),
            _ => sleepy(5)(&[]),
        })
        .unwrap();
    let f = track("flaky", from_ref(&s), flaky);
    let tail = rt.task("tail").reads(from_ref(&f)).writes(&["t"]).run(sleepy(5)).unwrap();
    track("tail", from_ref(&f), tail);
    // An ignored failure with two cancelled successors.
    let bad = rt
        .task("bad")
        .writes(&["b"])
        .on_failure(FailurePolicy::IgnoreCancelSuccessors)
        .run(|_| Err("boom".into()))
        .unwrap();
    let b = track("bad", &[], bad);
    for _ in 0..2 {
        let c = rt.task("child").reads(from_ref(&b)).writes(&["c"]).run(sleepy(0)).unwrap();
        track("child", from_ref(&b), c);
    }
    rt.barrier().unwrap();

    let events = rx.drain();
    assert_eq!(rx.dropped(), 0);
    let mut replay = StatusFold::new();
    events.iter().for_each(|e| replay.apply_event(e));

    // Metrics: every counter, per-worker attempts, durations as a multiset.
    let (mut live, mut replayed) = (rt.metrics(), replay.metrics().clone());
    assert_eq!(
        (live.completed, live.restored, live.retries, live.failed, live.cancelled),
        (3, 1, 1, 1, 2)
    );
    replayed.tasks_per_worker.resize(live.tasks_per_worker.len(), 0);
    live.task_durations.sort();
    replayed.task_durations.sort();
    assert_eq!(live, replayed);

    // Placements: (task, worker, actual_us) and the rest.
    let decisions = rt.scheduler_decisions();
    assert_eq!(decisions.len(), 4, "flaky twice, tail, bad");
    assert_eq!(decisions, replay.placements());

    // The placement log is the stream's `TaskStarted`s in order, retries
    // included, and only an attempt that completed carries an actual: its
    // task's `TaskFinished.micros`.
    let started: Vec<(TaskId, usize)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TaskStarted { task, worker, .. } => Some((TaskId(task), worker)),
            _ => None,
        })
        .collect();
    assert_eq!(decisions.iter().map(|d| (d.task, d.worker)).collect::<Vec<_>>(), started);
    let completed: HashMap<TaskId, u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TaskFinished { task, outcome: TaskOutcome::Completed, micros, .. } => {
                Some((TaskId(task), micros))
            }
            _ => None,
        })
        .collect();
    for (i, d) in decisions.iter().enumerate() {
        let last_attempt = decisions[i + 1..].iter().all(|later| later.task != d.task);
        let want = if last_attempt { completed.get(&d.task).copied() } else { None };
        assert_eq!(d.actual_us, want, "attempt {i}, task {} ({})", d.task, d.name);
        assert_eq!(d.est_us, 0, "the runtime makes no estimate");
    }
    assert_eq!(decisions.iter().filter(|d| d.actual_us.is_some()).count(), 2, "flaky, tail");

    // Per task: final state, worker, attempts, duration.
    let (live, replayed) = (rt.provenance(), replay.provenance(graph.nodes()));
    assert_eq!(live.records().len(), 6);
    for n in graph.nodes() {
        let (a, b) = (live.task(n.id).unwrap(), replayed.task(n.id).unwrap());
        assert_eq!(
            (a.final_state, a.worker, a.attempts, a.duration),
            (b.final_state, b.worker, b.attempts, b.duration),
            "task {} ({})",
            n.id,
            n.name
        );
    }

    // The critical-path task sequence.
    let path = |t: dataflow::timing::TimedPath| t.path.iter().map(|s| s.task).collect::<Vec<_>>();
    let live = path(rt.timing_report().unwrap());
    assert_eq!(live.len(), 2, "flaky -> tail");
    assert_eq!(live, path(analyze(&graph.edges(), &replay.spans()).unwrap()));
    rt.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
