//! The orchestrator (Yorc role): derive a deployment plan from a TOSCA
//! topology and execute component lifecycles against the stack services.
//!
//! Plan derivation is a deterministic topological sort over the
//! requirement edges (a template starts after everything it is hosted on,
//! uses or depends on). Execution walks the plan running
//! `create → configure → start` per component — building container images
//! through the [`BuildService`] and running deploy-time data pipelines
//! through the [`DataLogistics`] service. Undeploying is the API's state
//! flip ([`crate::api::ExecutionApi::undeploy`]); no teardown is priced.
//! Pipeline stages are priced by the
//! workspace's one byte price, [`dataflow::cost::LinkCost`].

use crate::containers::{BuildService, ImageSpec};
use crate::dls::{DataLogistics, PipelineSpec};
use crate::error::{Error, Result};
use crate::tosca::Topology;
use std::collections::{BTreeMap, HashMap};

/// The ordered plan: template names in start order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentPlan {
    pub order: Vec<String>,
}

impl DeploymentPlan {
    /// Derives the plan from a validated topology (Kahn's algorithm,
    /// stable with respect to document order).
    pub fn derive(topology: &Topology) -> Result<DeploymentPlan> {
        topology.validate()?;
        let names: Vec<&str> = topology.templates.iter().map(|t| t.name.as_str()).collect();
        let index: HashMap<&str, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let n = names.len();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, t) in topology.templates.iter().enumerate() {
            for r in &t.requirements {
                let dep = index[r.target()];
                indegree[i] += 1;
                dependents[dep].push(i);
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(&next) = ready.iter().min() {
            ready.retain(|&i| i != next);
            order.push(names[next].to_string());
            for &d in &dependents[next] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    ready.push(d);
                }
            }
        }
        if order.len() != n {
            let stuck: Vec<&str> = (0..n).filter(|&i| indegree[i] > 0).map(|i| names[i]).collect();
            return Err(Error::CyclicTopology(format!("unresolved: {stuck:?}")));
        }
        Ok(DeploymentPlan { order })
    }
}

/// One executed lifecycle step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    pub template: String,
    pub operation: &'static str,
    /// Virtual cost of the step, ms.
    pub cost_ms: u64,
}

/// A deployed topology instance.
#[derive(Debug, Clone)]
pub struct DeploymentRecord {
    pub topology_name: String,
    pub plan: DeploymentPlan,
    pub steps: Vec<StepRecord>,
    /// Total virtual deployment cost, ms.
    pub total_ms: u64,
    /// Inputs captured at deployment.
    pub inputs: BTreeMap<String, String>,
}

/// The orchestrator with its attached services.
pub struct Orchestrator {
    pub images: BuildService,
    pub dls: DataLogistics,
}

/// Virtual cost of generic create/configure/start steps, ms.
const GENERIC_STEP_MS: u64 = 40;

impl Orchestrator {
    /// Creates an orchestrator with fresh services.
    pub fn new() -> Self {
        Orchestrator { images: BuildService::new(), dls: DataLogistics::new() }
    }

    /// Deploys a topology: derives the plan and runs every component's
    /// lifecycle in order.
    pub fn deploy(&mut self, topology: &Topology) -> Result<DeploymentRecord> {
        let plan = DeploymentPlan::derive(topology)?;
        let mut steps = Vec::new();
        let mut total_ms = 0u64;
        for name in &plan.order {
            let template = topology.template(name).expect("plan names come from topology");
            // `create` is where type-specific work happens.
            let create_cost = match template.type_name.as_str() {
                "container.Image" => {
                    let spec = ImageSpec::from_properties(name, &template.properties);
                    self.images.build(&spec).cost_ms
                }
                "data.Pipeline" => {
                    let bytes: u64 =
                        template.properties.get("bytes").and_then(|b| b.parse().ok()).unwrap_or(0);
                    let p = PipelineSpec::new().stage(name, bytes);
                    self.dls.execute(&p).total_ms
                }
                _ => GENERIC_STEP_MS,
            };
            for (op, cost) in [
                ("create", create_cost),
                ("configure", GENERIC_STEP_MS),
                ("start", GENERIC_STEP_MS),
            ] {
                total_ms += cost;
                steps.push(StepRecord { template: name.clone(), operation: op, cost_ms: cost });
            }
        }
        Ok(DeploymentRecord {
            topology_name: topology.name.clone(),
            plan,
            steps,
            total_ms,
            inputs: topology.inputs.clone(),
        })
    }
}

impl Default for Orchestrator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tosca::{climate_case_study, Topology};

    #[test]
    fn plan_respects_dependencies() {
        let topo = climate_case_study();
        let plan = DeploymentPlan::derive(&topo).unwrap();
        let pos = |n: &str| plan.order.iter().position(|x| x == n).unwrap();
        assert!(pos("zeus") < pos("pycompss"));
        assert!(pos("pycompss") < pos("workflow"));
        assert!(pos("esm_image") < pos("workflow"));
        assert!(pos("baseline_data") < pos("workflow"));
        assert_eq!(plan.order.len(), 7);
        assert_eq!(plan.order.last().unwrap(), "workflow");
    }

    #[test]
    fn plan_is_deterministic() {
        let topo = climate_case_study();
        let a = DeploymentPlan::derive(&topo).unwrap();
        let b = DeploymentPlan::derive(&topo).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cycle_is_detected() {
        let src = "topology: t\nnode_templates:\n  a:\n    type: x\n    requirements:\n      - depends_on: b\n  b:\n    type: x\n    requirements:\n      - depends_on: a\n";
        let topo = Topology::parse(src).unwrap();
        assert!(matches!(DeploymentPlan::derive(&topo), Err(Error::CyclicTopology(_))));
    }

    #[test]
    fn deploy_runs_full_lifecycles() {
        let mut orch = Orchestrator::new();
        let record = orch.deploy(&climate_case_study()).unwrap();
        // 7 templates x 3 operations.
        assert_eq!(record.steps.len(), 21);
        assert!(record.total_ms > 0);
        // First steps belong to the cluster, last to the workflow app.
        assert_eq!(record.steps[0].template, "zeus");
        assert_eq!(record.steps.last().unwrap().template, "workflow");
        assert_eq!(record.inputs["years"], "1");
        // Image builds went through the build service.
        assert_eq!(orch.images.builds(), 3);
        assert!(orch.images.cached_layers() > 0);
        // The data pipeline went through the DLS.
        assert_eq!(orch.dls.history().len(), 1);
    }

    #[test]
    fn second_deploy_is_cheaper_thanks_to_layer_cache() {
        let mut orch = Orchestrator::new();
        let topo = climate_case_study();
        let first = orch.deploy(&topo).unwrap();
        let second = orch.deploy(&topo).unwrap();
        assert!(
            second.total_ms < first.total_ms,
            "cached redeploy {} ms should beat cold {} ms",
            second.total_ms,
            first.total_ms
        );
    }
}
