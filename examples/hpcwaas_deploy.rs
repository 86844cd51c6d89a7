//! HPCWaaS end-to-end: the Figure-1/Figure-2 lifecycle.
//!
//! Plays both roles of the paper's Section 4.1 methodology:
//!
//! * the **workflow developer** registers the climate-extremes TOSCA
//!   topology and its entrypoint with the Execution API;
//! * the **end user** deploys it (watching the orchestrator derive the
//!   plan, build container images and run the deploy-time data pipeline),
//!   invokes it with input overrides, reads the report, and undeploys —
//!   then deploys a second instance to show the container layer cache
//!   making redeployment cheap.
//!
//! ```text
//! cargo run --release --example hpcwaas_deploy
//! ```

use climate_workflows::register_with_hpcwaas;
use hpcwaas::orchestrator::{DeploymentPlan, Orchestrator};
use hpcwaas::tosca::climate_case_study;
use hpcwaas::{ExecutionApi, ExecutionStatus};
use std::collections::BTreeMap;

fn main() {
    let work_root = std::env::temp_dir().join("eflows-hpcwaas-deploy");
    std::fs::remove_dir_all(&work_root).ok();

    // -- Developer view: the topology and the plan Yorc would derive.
    let topology = climate_case_study();
    println!("TOSCA topology '{}' ({} node templates):", topology.name, topology.templates.len());
    for t in &topology.templates {
        let reqs: Vec<String> = t.requirements.iter().map(|r| format!("{r:?}")).collect();
        println!("  {:<16} {:<22} {}", t.name, t.type_name, reqs.join(", "));
    }
    let plan = DeploymentPlan::derive(&topology).expect("plan derivation failed");
    println!("\nDerived deployment order: {}", plan.order.join(" -> "));

    // Inspect one deployment in detail with a raw orchestrator.
    let mut orch = Orchestrator::new();
    let record = orch.deploy(&topology).expect("deploy failed");
    println!("\nLifecycle steps ({} total, {} virtual ms):", record.steps.len(), record.total_ms);
    for s in &record.steps {
        println!("  {:<16} {:<10} {:>6} ms", s.template, s.operation, s.cost_ms);
    }
    let warm = orch.deploy(&topology).expect("redeploy failed");
    println!(
        "\nContainer layer cache: cold deploy {} ms -> warm redeploy {} ms ({}x cheaper)",
        record.total_ms,
        warm.total_ms,
        record.total_ms / warm.total_ms.max(1)
    );

    // -- End-user view: the Execution API.
    println!("\n=== HPCWaaS Execution API ===");
    let api = ExecutionApi::default();
    register_with_hpcwaas(&api, work_root);

    let dep = api.deploy("climate-extremes").expect("deploy failed");
    println!("deployed (cost {} virtual ms)", api.deployment_cost_ms(dep).unwrap());

    let mut inputs = BTreeMap::new();
    inputs.insert("years".to_string(), "1".to_string());
    inputs.insert("days_per_year".to_string(), "30".to_string());
    inputs.insert("scenario".to_string(), "ssp585".to_string());
    println!("running with inputs {inputs:?} ...");
    let handle = api.submit(dep, &inputs).expect("submit failed");
    match handle.wait() {
        ExecutionStatus::Completed { result } => {
            println!("\n--- workflow report (returned through the API) ---");
            print!("{result}");
        }
        other => println!("unexpected status: {other:?}"),
    }

    api.undeploy(dep).expect("undeploy failed");
    println!("\nundeployed. Done.");
}
