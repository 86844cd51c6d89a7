//! # dataflow — a task-based workflow runtime in the PyCOMPSs mould
//!
//! The paper's workflow is a Python application whose functions are
//! annotated with PyCOMPSs `@task` decorators; the COMPSs runtime turns the
//! sequential script into a parallel task graph by tracking the declared
//! data directionality (IN / OUT / INOUT) of every invocation, then executes
//! the graph master–worker style, moving data between nodes on demand
//! (Section 4.2.1). This crate reimplements that runtime model in Rust:
//!
//! * **Automatic dependency detection** — tasks read [`DataRef`]s and write
//!   named data; each write creates a new *version* of the name (the
//!   renaming semantics COMPSs uses to avoid anti-dependencies), and the
//!   resulting read-after-write edges form the task graph.
//! * **Asynchronous master–worker execution** — a pool of worker threads
//!   (each with a [`resources::WorkerProfile`]) executes ready tasks as
//!   their predecessors finish; the main program only blocks on
//!   [`runtime::Runtime::fetch`] (synchronization, like PyCOMPSs
//!   `compss_wait_on`) or [`runtime::Runtime::barrier`].
//! * **Constraints** — a task can require a worker kind, CPU or GPU
//!   (`@constraint` decorator), and is only placed on workers of that
//!   kind; the GPU kind stands for the accelerator partition.
//! * **One placement rule** — an idle worker takes the oldest ready task
//!   whose constraint its profile satisfies. The runtime makes no duration
//!   estimate: each pick is reported by the attempt's `TaskStarted`, and
//!   its cost by the measured `TaskFinished`.
//! * **Fault tolerance** — per-task failure policies (fail-fast the whole
//!   workflow, retry N times, or ignore-and-cancel-successors), mirroring
//!   the task-level failure management of Ejarque et al.
//! * **Task-level checkpointing** — completed tasks append their encoded
//!   outputs to a log; resubmitting the same workflow replays completed
//!   tasks from the log instead of executing them.
//! * **Streaming** — [`stream::DirWatcher`] monitors a directory for the
//!   file groups a long-running simulation produces (the paper's "detect
//!   when a full new year of data is available" interface).
//! * **One ledger** — what happened in a run is its stream of
//!   task-lifecycle events, and the runtime keeps exactly one record of
//!   it: [`monitor::StatusFold`], written only where an event is emitted.
//!   Execution metrics, placement decisions with measured durations, the
//!   timed critical path, point-in-time [`monitor::StatusSnapshot`]s
//!   (Section 2's monitoring capability) and provenance
//!   ([`provenance::ProvenanceLog`]: what every terminal task used and
//!   generated, lineage-queryable, exportable as a PROV-style document)
//!   are reads of that fold; replaying a subscriber's drained stream
//!   yields the same reads.
//! * **Task-graph export** — DOT rendering with one color per task
//!   function, reproducing Figure 3.
//!
//! ```
//! use dataflow::prelude::*;
//! use std::sync::Arc;
//!
//! let rt = Runtime::new(RuntimeConfig::with_cpu_workers(2));
//! let a = rt.task("produce").writes(&["x"]).run(|_in| Ok(vec![Bytes::from_u64(21)])).unwrap();
//! let b = rt
//!     .task("double")
//!     .reads(&[a.outputs[0].clone()])
//!     .writes(&["y"])
//!     .run(|inp: &[Arc<Bytes>]| Ok(vec![Bytes::from_u64(inp[0].as_u64().unwrap() * 2)]))
//!     .unwrap();
//! let y = rt.fetch(&b.outputs[0]).unwrap();
//! assert_eq!(y.as_u64(), Some(42));
//! rt.shutdown();
//! ```

pub mod checkpoint;
pub mod cost;
pub mod error;
pub mod graph;
pub mod inject;
pub mod monitor;
pub mod payload;
pub mod provenance;
pub mod resources;
pub mod runtime;
pub mod stream;
pub mod task;
pub mod timing;

pub use cost::LinkCost;
pub use error::{Error, Result};
pub use monitor::{Metrics, PlacementDecision};
pub use payload::{Bytes, Payload};
pub use provenance::ProvenanceLog;
pub use resources::{Constraint, WorkerKind, WorkerProfile};
pub use runtime::{Runtime, RuntimeConfig, TaskHandle};
pub use task::{DataRef, FailurePolicy, TaskId, TaskState};

/// Convenience prelude for workflow code.
pub mod prelude {
    pub use crate::payload::{Bytes, Payload};
    pub use crate::resources::{Constraint, WorkerKind, WorkerProfile};
    pub use crate::runtime::{Runtime, RuntimeConfig, TaskHandle};
    pub use crate::task::{DataRef, FailurePolicy, TaskId, TaskState};
}
