//! Serving-layer behaviour through the public Execution API: admission
//! gates, fair-share dispatch, request coalescing, and ledger/condvar
//! correctness under concurrent hammering.

use hpcwaas::tosca::climate_case_study;
use hpcwaas::{
    Error, ExecutionApi, ExecutionStatus, Rejection, ServeConfig, TenantQuota, DEFAULT_TENANT,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A gate the test opens to let blocked entrypoints finish.
#[derive(Clone, Default)]
struct Gate(Arc<AtomicBool>);

impl Gate {
    fn open(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    fn wait_open(&self) {
        while !self.0.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

fn inputs(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
    pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
}

fn quota(max_in_flight: usize, burst: u32, rate: f64, weight: u32) -> TenantQuota {
    TenantQuota { max_in_flight, submit_burst: burst, submit_rate_per_sec: rate, weight }
}

#[test]
fn concurrent_hammer_submit_status_wait() {
    let api = Arc::new(ExecutionApi::with_config(ServeConfig {
        workers: 4,
        queue_capacity: 1024,
        default_quota: TenantQuota::default(),
    }));
    api.register(climate_case_study(), |inputs| {
        Ok(format!("req {}", inputs.get("req").cloned().unwrap_or_default()))
    });
    let dep = api.deploy("climate-extremes").unwrap();

    let threads = 8;
    let per_thread = 25;
    let mut joins = Vec::new();
    for t in 0..threads {
        let api = Arc::clone(&api);
        joins.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                // Distinct inputs per request so nothing coalesces here.
                let req = format!("{t}-{i}");
                let handle =
                    api.submit_as(&format!("tenant-{t}"), dep, &inputs(&[("req", &req)])).unwrap();
                // Race the ledger view against the handle view while the
                // execution is anywhere in queued/running/terminal.
                let via_ledger = api.status(handle.id()).unwrap();
                assert!(matches!(
                    via_ledger,
                    ExecutionStatus::Queued
                        | ExecutionStatus::Running
                        | ExecutionStatus::Completed { .. }
                ));
                let status = handle.wait();
                let ExecutionStatus::Completed { result } = status else {
                    panic!("request {req} did not complete: {status:?}");
                };
                assert_eq!(result, format!("req {req}"));
                // Terminal status is stable and visible through the ledger.
                assert_eq!(api.status(handle.id()).unwrap(), handle.status());
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let stats = api.serve_stats();
    assert_eq!(stats.admitted, (threads * per_thread) as u64);
    assert_eq!(stats.rejected(), 0);
    assert_eq!(stats.coalesced, 0);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.running, 0);
    let dispatched: u64 = stats.dispatched.values().sum();
    assert_eq!(dispatched, (threads * per_thread) as u64);
}

/// A waiter woken by a terminal status must find the execution's slot
/// already released: the worker retires it (`running`, the tenant's
/// in-flight count, the coalescing key) before it publishes the status.
#[test]
fn wait_returns_after_the_slot_is_released() {
    let api = ExecutionApi::with_config(ServeConfig {
        workers: 2,
        queue_capacity: 16,
        default_quota: quota(4, 2000, 1e9, 1),
    });
    api.register(climate_case_study(), |inputs| {
        Ok(format!("req {}", inputs.get("req").cloned().unwrap_or_default()))
    });
    let dep = api.deploy("climate-extremes").unwrap();
    for i in 0..1000 {
        let req = i.to_string();
        let handle = api.submit(dep, &inputs(&[("req", &req)])).unwrap();
        assert!(matches!(handle.wait(), ExecutionStatus::Completed { .. }));
        let stats = api.serve_stats();
        assert_eq!(stats.running, 0, "submit {i}: a finished execution still counts as running");
        assert_eq!(stats.queue_depth, 0, "submit {i}: queue not empty after wait");
    }
}

#[test]
fn in_flight_quota_enforced_and_released() {
    let api = ExecutionApi::with_config(ServeConfig {
        workers: 4,
        queue_capacity: 64,
        default_quota: TenantQuota::default(),
    });
    let gate = Gate::default();
    {
        let gate = gate.clone();
        api.register(climate_case_study(), move |_| {
            gate.wait_open();
            Ok("done".into())
        });
    }
    api.set_quota("acme", quota(2, 0, 0.0, 1));
    let dep = api.deploy("climate-extremes").unwrap();

    let a = api.submit_as("acme", dep, &inputs(&[("req", "a")])).unwrap();
    let b = api.submit_as("acme", dep, &inputs(&[("req", "b")])).unwrap();
    let third = api.submit_as("acme", dep, &inputs(&[("req", "c")]));
    match third {
        Err(Error::Rejected(Rejection::QuotaExceeded { tenant, in_flight, max_in_flight })) => {
            assert_eq!(tenant, "acme");
            assert_eq!((in_flight, max_in_flight), (2, 2));
        }
        other => panic!("expected quota rejection, got {other:?}"),
    }
    // Another tenant is unaffected by acme's quota.
    let other = api.submit_as("zen", dep, &inputs(&[("req", "z")])).unwrap();

    gate.open();
    assert!(a.wait().is_terminal());
    assert!(b.wait().is_terminal());
    assert!(other.wait().is_terminal());
    // Slots released on completion: acme may submit again.
    let again = api.submit_as("acme", dep, &inputs(&[("req", "d")])).unwrap();
    assert!(again.wait().is_terminal());
    assert_eq!(api.serve_stats().rejected_quota, 1);
}

#[test]
fn token_bucket_rate_limits_submissions() {
    let api = ExecutionApi::default();
    api.register(climate_case_study(), |_| Ok("ok".into()));
    // Hard budget: burst of 3, zero refill.
    api.set_quota("bursty", quota(1024, 3, 0.0, 1));
    let dep = api.deploy("climate-extremes").unwrap();

    for i in 0..3 {
        let h = api.submit_as("bursty", dep, &inputs(&[("req", &i.to_string())])).unwrap();
        assert!(h.wait().is_terminal());
    }
    // Even with everything drained, the empty bucket rejects the fourth.
    match api.submit_as("bursty", dep, &inputs(&[("req", "4")])) {
        Err(Error::Rejected(Rejection::RateLimited { tenant })) => assert_eq!(tenant, "bursty"),
        other => panic!("expected rate rejection, got {other:?}"),
    }
    assert_eq!(api.serve_stats().rejected_rate, 1);
}

#[test]
fn bounded_queue_rejects_when_full() {
    let api = ExecutionApi::with_config(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        default_quota: TenantQuota::default(),
    });
    let gate = Gate::default();
    {
        let gate = gate.clone();
        api.register(climate_case_study(), move |_| {
            gate.wait_open();
            Ok("done".into())
        });
    }
    let dep = api.deploy("climate-extremes").unwrap();

    let running = api.submit_as("a", dep, &inputs(&[("req", "running")])).unwrap();
    // Wait until the single worker has dequeued it, freeing the queue slot.
    while running.status() == ExecutionStatus::Queued {
        std::thread::sleep(Duration::from_millis(1));
    }
    let queued = api.submit_as("b", dep, &inputs(&[("req", "queued")])).unwrap();
    match api.submit_as("c", dep, &inputs(&[("req", "overflow")])) {
        Err(Error::Rejected(Rejection::QueueFull { depth, capacity })) => {
            assert_eq!((depth, capacity), (1, 1));
        }
        other => panic!("expected queue-full rejection, got {other:?}"),
    }
    gate.open();
    assert!(running.wait().is_terminal());
    assert!(queued.wait().is_terminal());
    assert_eq!(api.serve_stats().rejected_queue_full, 1);
}

#[test]
fn fair_share_interleaves_and_never_starves() {
    // One worker so dispatch order is a pure scheduler decision.
    let api = ExecutionApi::with_config(ServeConfig {
        workers: 1,
        queue_capacity: 256,
        default_quota: TenantQuota::default(),
    });
    let gate = Gate::default();
    {
        let gate = gate.clone();
        api.register(climate_case_study(), move |inputs| {
            if inputs.get("warmup").is_some() {
                gate.wait_open();
            }
            Ok("ok".into())
        });
    }
    api.set_quota("heavy", quota(256, 0, 0.0, 3));
    api.set_quota("light", quota(256, 0, 0.0, 1));
    let dep = api.deploy("climate-extremes").unwrap();

    // Block the only worker so both backlogs build before any dispatch.
    let warmup = api.submit_as("warmup", dep, &inputs(&[("warmup", "1")])).unwrap();
    while warmup.status() == ExecutionStatus::Queued {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut handles = Vec::new();
    for i in 0..12 {
        handles.push(api.submit_as("heavy", dep, &inputs(&[("req", &format!("h{i}"))])).unwrap());
    }
    for i in 0..4 {
        handles.push(api.submit_as("light", dep, &inputs(&[("req", &format!("l{i}"))])).unwrap());
    }
    gate.open();
    for h in &handles {
        assert!(h.wait().is_terminal());
    }

    let order: Vec<String> = api
        .serve_stats()
        .dispatch_order
        .into_iter()
        .filter(|t| t == "heavy" || t == "light")
        .collect();
    assert_eq!(order.len(), 16);
    // Weighted share: heavy (weight 3) gets ~3 of every 4 dispatches
    // while light still has work, so light's last job leaves well before
    // heavy's backlog is done — starvation-freedom, not FIFO.
    let light_done = order.iter().rposition(|t| t == "light").unwrap();
    assert!(light_done < order.len() - 1, "light must finish before the queue drains: {order:?}");
    let heavy_in_first_8 = order[..8].iter().filter(|t| *t == "heavy").count();
    assert!(
        (5..=7).contains(&heavy_in_first_8),
        "heavy should get ~6 of the first 8 dispatches: {order:?}"
    );
    // Light appears early despite submitting after heavy's full backlog.
    let first_light = order.iter().position(|t| t == "light").unwrap();
    assert!(first_light <= 4, "light's first dispatch came too late: {order:?}");
}

#[test]
fn identical_concurrent_requests_coalesce_to_one_execution() {
    let api = Arc::new(ExecutionApi::with_config(ServeConfig {
        workers: 2,
        queue_capacity: 64,
        default_quota: TenantQuota::default(),
    }));
    let gate = Gate::default();
    let executions = Arc::new(AtomicU64::new(0));
    {
        let gate = gate.clone();
        let executions = Arc::clone(&executions);
        api.register(climate_case_study(), move |_| {
            let n = executions.fetch_add(1, Ordering::SeqCst) + 1;
            gate.wait_open();
            Ok(format!("execution #{n}"))
        });
    }
    let dep = api.deploy("climate-extremes").unwrap();
    let same = inputs(&[("years", "3"), ("seed", "11")]);

    // N identical requests from N threads while the first is in flight.
    let n = 6;
    let (tx, rx) = mpsc::channel();
    let mut joins = Vec::new();
    for _ in 0..n {
        let api = Arc::clone(&api);
        let same = same.clone();
        let tx = tx.clone();
        joins.push(std::thread::spawn(move || {
            let handle = api.submit(dep, &same).unwrap();
            tx.send(handle.id()).unwrap();
            handle.wait()
        }));
    }
    drop(tx);
    // All N submissions are in (ids collected) before the gate opens.
    // recv exactly n: the senders stay alive inside wait(), so draining
    // the channel by iterator-until-close would deadlock against them.
    let ids: Vec<_> = (0..n).map(|_| rx.recv().unwrap()).collect();
    gate.open();

    let results: Vec<ExecutionStatus> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    // Exactly one underlying execution ran...
    assert_eq!(executions.load(Ordering::SeqCst), 1);
    // ...and every waiter received its (identical) result.
    for status in &results {
        assert_eq!(status, &ExecutionStatus::Completed { result: "execution #1".into() });
    }
    // Every submitter got its own valid ledger id, all resolving terminal.
    let mut unique = ids.clone();
    unique.sort_by_key(|id| id.to_string());
    unique.dedup();
    assert_eq!(unique.len(), n);
    for id in &ids {
        assert!(api.status(*id).unwrap().is_terminal());
    }
    let stats = api.serve_stats();
    assert_eq!(stats.coalesced, (n - 1) as u64);
    assert_eq!(stats.admitted, 1);

    // A later identical request, after the shared one finished, runs fresh.
    let later = api.submit(dep, &same).unwrap();
    assert_eq!(later.wait(), ExecutionStatus::Completed { result: "execution #2".into() });
    assert_eq!(executions.load(Ordering::SeqCst), 2);
}

#[test]
fn coalesced_waiters_see_shared_event_log() {
    let api = ExecutionApi::default();
    let gate = Gate::default();
    {
        let gate = gate.clone();
        api.register(climate_case_study(), move |_| {
            gate.wait_open();
            Ok("shared".into())
        });
    }
    let dep = api.deploy("climate-extremes").unwrap();
    let same = inputs(&[("req", "same")]);
    let first = api.submit_as("alice", dep, &same).unwrap();
    let second = api.submit_as("bob", dep, &same).unwrap();
    gate.open();
    first.wait();
    second.wait();
    // Both handles observe the one execution's record, including the
    // coalesce mark naming bob as the joiner.
    assert_eq!(first.events().len(), second.events().len());
    assert!(second.events().iter().any(|e| matches!(
        &e.kind,
        obs::EventKind::ExecutionCoalesced { tenant, .. } if &**tenant == "bob"
    )));
    // The shared execution is charged to its primary submitter.
    assert_eq!(second.tenant(), "alice");
    assert_eq!(api.serve_stats().coalesced, 1);
}

#[test]
fn default_tenant_is_used_for_plain_submit() {
    let api = ExecutionApi::default();
    api.register(climate_case_study(), |_| Ok("ok".into()));
    let dep = api.deploy("climate-extremes").unwrap();
    let h = api.submit(dep, &BTreeMap::new()).unwrap();
    h.wait();
    assert_eq!(h.tenant(), DEFAULT_TENANT);
    assert_eq!(api.serve_stats().dispatched.get(DEFAULT_TENANT), Some(&1));
}
