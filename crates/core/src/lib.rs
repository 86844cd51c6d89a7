//! # climate-workflows — the end-to-end climate-extremes case study
//!
//! This crate is the paper's primary contribution, reassembled on the Rust
//! substrates of this workspace: a single end-to-end workflow that
//! integrates
//!
//! 1. the **ESM simulation** (`esm`: the CMCC-CM3 surrogate writing one
//!    file per simulated day),
//! 2. **Big-Data analytics** (`datacube`: the Ophidia-style engine
//!    computing heat/cold-wave indices per year), and
//! 3. **Machine Learning** (`tinyml` + `extremes::tc`: a pre-trained CNN
//!    localizing tropical cyclones, next to a deterministic tracker),
//!
//! orchestrated by the task-based runtime (`dataflow`, the PyCOMPSs role):
//! the simulation task streams daily files; as soon as a full year is
//! available (the streaming interface) the per-year analytics and ML tasks
//! are submitted and run **concurrently with the continuing simulation**;
//! results are validated, exported as NCX files, and rendered as maps.
//! Deployment and invocation go through `hpcwaas` (Section 4's stack).
//!
//! Modules:
//!
//! * [`params`] — workflow parameters (also parseable from HPCWaaS inputs);
//! * [`casestudy`] — the task definitions (18 distinct task functions,
//!   matching the paper's Figure 3 coloring) and the one workflow driver,
//!   `CaseStudy::run`, over a per-year `YearSource` (files | in-memory);
//! * [`endtoend`] — the driver's two submission orders as entry points
//!   (sequential vs pipelined, experiment C1) and the HPCWaaS-registered
//!   entrypoint;
//! * [`reporting`] — run reports (what the scientist gets back);
//! * [`error`] — typed workflow-outcome errors naming the failing stage.
//!
//! The crate ships no benchmark: every timing of the workflow and of the
//! serving layer is taken by `benchmark/run.sh` (wfbench) from outside.

pub mod casestudy;
pub mod endtoend;
pub mod error;
pub mod params;
pub mod reporting;

pub use casestudy::{pretrain_cnn, CaseStudy, RunOrder, WfData};
pub use endtoend::{register_with_hpcwaas, run_pipelined, run_sequential};
pub use error::{WorkflowError, WorkflowStage};
pub use params::WorkflowParams;
pub use reporting::{RunReport, YearReport};
