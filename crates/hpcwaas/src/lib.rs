//! # hpcwaas — the eFlows4HPC software-stack substrate
//!
//! Section 4 of the paper describes the stack that deploys and runs the
//! climate workflow: Alien4Cloud TOSCA topologies, the Yorc orchestrator,
//! the Container Image Creation service, the Data Logistics Service and
//! the HPCWaaS Execution API, all targeting an LSF-scheduled cluster
//! (Zeus). This crate implements working equivalents of each but the
//! cluster, which stays a node template of the topology (`hpc.Cluster`):
//!
//! * [`tosca`] — a topology document model (node types, templates,
//!   properties, `hosted_on`/`uses`/`depends_on` requirements) plus a
//!   parser for a small YAML-like syntax;
//! * [`orchestrator`] — plan derivation (topological sort over
//!   requirements) and lifecycle execution (create → configure → start),
//!   the Yorc role;
//! * [`containers`] — the Container Image Creation service: build specs
//!   resolve to layered manifests with a content-addressed layer cache, so
//!   redeploying a workflow is cheap (claim C5);
//! * [`dls`] — declarative stage-in/stage-out pipelines over a
//!   bandwidth/latency transfer model (claim A2);
//! * [`api`] — the HPCWaaS Execution API: a workflow registry plus the
//!   deploy / submit / status / undeploy lifecycle the end user sees;
//! * [`serve`] — the multi-tenant serving layer underneath the API:
//!   per-tenant admission control (in-flight quotas, token-bucket rates),
//!   weighted fair-share dispatch onto a bounded executor pool, and
//!   typed rejections instead of unbounded thread spawns.

pub mod api;
pub mod containers;
pub mod dls;
pub mod error;
pub mod orchestrator;
pub mod serve;
pub mod tosca;

pub use api::{DeploymentId, ExecutionApi, ExecutionHandle, ExecutionId, ExecutionStatus};
pub use containers::{BuildService, ImageSpec};
pub use dls::{DataLogistics, PipelineSpec};
pub use error::{Error, Result};
pub use orchestrator::{DeploymentPlan, Orchestrator};
pub use serve::{Rejection, ServeConfig, ServeStats, TenantQuota, DEFAULT_TENANT};
pub use tosca::Topology;
