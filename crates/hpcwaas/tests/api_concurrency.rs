//! Execution-API concurrency: multiple end users deploying and running
//! against one HPCWaaS service (the paper's HPCWaaS serves a community,
//! not one scientist).

use hpcwaas::tosca::climate_case_study;
use hpcwaas::{ExecutionApi, ExecutionStatus};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

#[test]
fn many_users_deploy_and_run_concurrently() {
    let api = Arc::new(ExecutionApi::default());
    let executions = Arc::new(AtomicU32::new(0));
    {
        let executions = Arc::clone(&executions);
        api.register(climate_case_study(), move |inputs| {
            executions.fetch_add(1, Ordering::SeqCst);
            Ok(format!("user {} ok", inputs.get("user").cloned().unwrap_or_default()))
        });
    }

    let mut joins = Vec::new();
    for u in 0..8 {
        let api = Arc::clone(&api);
        joins.push(std::thread::spawn(move || {
            let dep = api.deploy("climate-extremes").unwrap();
            let mut inputs = BTreeMap::new();
            inputs.insert("user".to_string(), u.to_string());
            let handle = api.submit(dep, &inputs).unwrap();
            let status = handle.wait();
            assert!(matches!(
                status,
                ExecutionStatus::Completed { ref result } if result.contains(&format!("user {u}"))
            ));
            api.undeploy(dep).unwrap();
            dep
        }));
    }
    let deps: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    assert_eq!(executions.load(Ordering::SeqCst), 8);
    // Deployment ids are distinct (opaque ids: compare Display names).
    let mut ids: Vec<_> = deps.iter().map(|d| d.to_string()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 8);
    // Everything is undeployed: further runs rejected.
    for d in deps {
        assert!(api.submit(d, &BTreeMap::new()).is_err());
    }
}

#[test]
fn shared_image_cache_benefits_all_users() {
    let api = ExecutionApi::default();
    api.register(climate_case_study(), |_| Ok("ok".into()));
    let first = api.deploy("climate-extremes").unwrap();
    let cold = api.deployment_cost_ms(first).unwrap();
    // Later users deploy against the warm layer cache.
    let mut joins = Vec::new();
    let api = Arc::new(api);
    for _ in 0..4 {
        let api = Arc::clone(&api);
        joins.push(std::thread::spawn(move || {
            let dep = api.deploy("climate-extremes").unwrap();
            api.deployment_cost_ms(dep).unwrap()
        }));
    }
    for j in joins {
        let warm = j.join().unwrap();
        assert!(warm < cold, "warm deploy {warm} should beat cold {cold}");
    }
}
