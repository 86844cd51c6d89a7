//! Task and data identities, states and failure policies.

use std::fmt;

/// Unique task identity within one runtime (submission order, starting
/// at 1 — matching the paper's Figure 3 task numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Unique identity of one *version* of a named datum. Every task write
/// creates a fresh `DataRef` (COMPSs-style renaming: readers bind to the
/// version that existed at submission time, so there are never
/// anti-dependencies in the graph).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DataRef {
    /// Globally unique version id.
    pub id: u64,
    /// Human-readable datum name (shared across versions).
    pub name: String,
    /// Version number of this name (1 = first write).
    pub version: u32,
}

impl fmt::Display for DataRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@v{}", self.name, self.version)
    }
}

/// Parameter directionality, mirroring PyCOMPSs `@task` clauses. The
/// builder API expresses these as `reads` (IN), `writes` (OUT) and
/// `updates` (INOUT = read current version + write a new one); `Direction`
/// is retained in the graph for introspection and DOT labelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    In,
    Out,
    InOut,
}

/// What the runtime should do when a task's closure returns an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Abort the whole workflow (default, like an unhandled exception).
    #[default]
    FailFast,
    /// Re-execute up to `max_retries` additional times with exponential
    /// backoff between attempts (`base_ms * 2^(attempt-1)` capped at
    /// `cap_ms`, plus deterministic jitter derived from the runtime seed;
    /// see [`crate::inject::backoff_delay_ms`]), then fail fast. The delay
    /// never blocks a worker: the task parks in a delayed queue. With
    /// `base_ms: 0, cap_ms: 0` the delay is 0 and the retry is immediate.
    RetryBackoff { max_retries: u32, base_ms: u64, cap_ms: u64 },
    /// Mark the task failed, cancel its transitive successors, and let the
    /// rest of the workflow continue.
    IgnoreCancelSuccessors,
}

/// Lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Waiting on unfinished predecessors.
    Pending,
    /// All predecessors done; eligible for a worker.
    Ready,
    /// Executing on a worker.
    Running,
    /// Finished successfully (possibly restored from a checkpoint).
    Completed,
    /// Failed permanently.
    Failed,
    /// Never ran: a predecessor failed under `IgnoreCancelSuccessors`, or
    /// the workflow aborted.
    Cancelled,
}

impl TaskState {
    /// True for states from which the task will never produce outputs.
    pub fn is_terminal_failure(self) -> bool {
        matches!(self, TaskState::Failed | TaskState::Cancelled)
    }

    /// True when the task is finished one way or another.
    pub fn is_terminal(self) -> bool {
        matches!(self, TaskState::Completed | TaskState::Failed | TaskState::Cancelled)
    }
}

/// The state a task's terminal event leaves it in.
impl From<obs::TaskOutcome> for TaskState {
    fn from(outcome: obs::TaskOutcome) -> Self {
        match outcome {
            obs::TaskOutcome::Completed => TaskState::Completed,
            obs::TaskOutcome::Failed => TaskState::Failed,
            obs::TaskOutcome::Cancelled => TaskState::Cancelled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(TaskId(4).to_string(), "#4");
        let d = DataRef { id: 9, name: "year".into(), version: 2 };
        assert_eq!(d.to_string(), "year@v2");
    }

    #[test]
    fn default_policy_is_fail_fast() {
        assert_eq!(FailurePolicy::default(), FailurePolicy::FailFast);
    }

    #[test]
    fn terminal_state_classification() {
        assert!(TaskState::Failed.is_terminal_failure());
        assert!(TaskState::Cancelled.is_terminal_failure());
        assert!(!TaskState::Completed.is_terminal_failure());
        assert!(TaskState::Completed.is_terminal());
        assert!(!TaskState::Running.is_terminal());
        assert!(!TaskState::Ready.is_terminal());
        assert!(!TaskState::Pending.is_terminal());
    }
}
