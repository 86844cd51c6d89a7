//! Typed events emitted by the workspace's instrumented hot paths.
//!
//! One enum covers every subsystem on purpose: a subscriber watching a
//! whole-workflow run (the `climate-wf run --trace` tracer, a dashboard, a
//! test asserting trace well-formedness) needs a single stream in which a
//! task span, a datacube kernel and a DLS transfer stage are
//! ordered against each other. Names that repeat across many events are
//! `Arc<str>` so constructing an event is an allocation-free handful of
//! word copies.

use std::sync::Arc;

/// Terminal outcome of a dataflow task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskOutcome {
    Completed,
    Failed,
    Cancelled,
}

impl TaskOutcome {
    /// Stable lowercase label (JSONL / Prometheus value).
    pub fn label(self) -> &'static str {
        match self {
            TaskOutcome::Completed => "completed",
            TaskOutcome::Failed => "failed",
            TaskOutcome::Cancelled => "cancelled",
        }
    }
}

/// Everything the workspace can tell an observer.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    // --- dataflow: task lifecycle -------------------------------------
    /// A task entered the graph (state `Pending`, or straight to a
    /// terminal state for checkpoint-restored / doomed submissions).
    TaskSubmitted { task: u64, name: Arc<str> },
    /// All predecessors finished; the task is eligible for a worker.
    TaskReady { task: u64 },
    /// A worker began executing the task.
    TaskStarted { task: u64, name: Arc<str>, worker: usize, attempt: u32 },
    /// A failed attempt was re-queued under the retry policy, after an
    /// exponential-backoff delay (deterministic jitter; `delay_ms` is the
    /// exact wait applied, 0 for an immediate retry).
    TaskRetryBackoff { task: u64, name: Arc<str>, attempt: u32, delay_ms: u64 },
    /// A completed task's encoded outputs landed in the checkpoint log.
    CheckpointWritten { key: Arc<str>, bytes: u64 },
    /// A task was restored from the checkpoint log without executing
    /// (resume-from-last-frontier after a killed run).
    ResumedFrom { task: u64, key: Arc<str> },
    /// The task reached a terminal state. `micros` is the wall time of the
    /// final attempt (0 for cancelled / checkpoint-restored tasks);
    /// `worker` is `None` when no worker ran the final transition.
    TaskFinished {
        task: u64,
        name: Arc<str>,
        worker: Option<usize>,
        outcome: TaskOutcome,
        micros: u64,
    },
    /// Scheduler queue depth after a transition (gauge-style sample).
    QueueDepth { ready: usize, running: usize },
    /// One placement decision, emitted at pick time — just before the
    /// attempt's `TaskStarted` — with the task's estimated duration
    /// (`est_us`). The measured duration is the `micros` of the task's
    /// `TaskFinished`; a fold joins the two (estimate error).
    SchedulerDecision { task: u64, name: Arc<str>, worker: usize, est_us: u64 },

    // --- datacube: fragment kernels -----------------------------------
    /// One fragment went through an operator kernel on an I/O server.
    KernelDone { op: &'static str, server: usize, rows: usize, micros: u64 },
    /// A whole operator (all fragments) completed.
    OperatorDone { op: &'static str, fragments: usize, micros: u64 },

    // --- esm: simulation stepping and output --------------------------
    /// One simulated day was stepped and its file written.
    StepCompleted { year: i32, day: usize, micros: u64 },
    /// A daily output file landed on disk.
    FileWritten { path: Arc<str>, bytes: u64, micros: u64 },

    // --- hpcwaas: DLS / containers / execution API --------------------
    /// The Data Logistics Service executed one transfer stage.
    TransferStaged { label: Arc<str>, bytes: u64, virtual_ms: u64 },
    /// The Container Image Creation service finished a build.
    ImageBuilt { image: Arc<str>, built: usize, cache_hits: usize, cost_ms: u64 },
    /// An Execution-API run started.
    ExecutionStarted { execution: u64, workflow: Arc<str> },
    /// An Execution-API run reached a terminal status.
    ExecutionFinished { execution: u64, workflow: Arc<str>, ok: bool, micros: u64 },
    /// A submission passed admission control and entered the fair-share
    /// queue (serve layer; `execution` is the primary ledger sequence).
    ExecutionQueued { execution: u64, workflow: Arc<str>, tenant: Arc<str> },
    /// A submission was refused by admission control. `reason` is one of
    /// `quota`, `rate`, `queue_full`.
    ExecutionRejected { workflow: Arc<str>, tenant: Arc<str>, reason: &'static str },
    /// An identical in-flight request was joined instead of re-executed;
    /// `execution` names the primary execution the waiter attached to.
    ExecutionCoalesced { execution: u64, workflow: Arc<str>, tenant: Arc<str> },

    // --- trace: hierarchical causal spans -----------------------------
    /// A hierarchical span opened (see [`crate::trace`]). `parent` is 0
    /// for trace roots.
    SpanStarted { name: Arc<str>, trace: u64, span: u64, parent: u64 },
    /// A hierarchical span closed; `micros` is its wall-clock duration.
    SpanEnded { name: Arc<str>, trace: u64, span: u64, parent: u64, micros: u64 },

    // --- chaos: fault injection ---------------------------------------
    /// A seeded fault fired at a named injection site (`occurrence` is
    /// the per-site occurrence index it hit; see [`crate::chaos`]).
    FaultInjected { site: Arc<str>, fault: &'static str, occurrence: u64 },

    // --- streaming data plane -----------------------------------------
    /// A simulated year was handed to analytics in memory over a stream
    /// channel (no file round-trip on the hot path).
    YearStreamed { year: i32, days: usize, bytes: u64 },
    /// A stream sender blocked on a full channel until the consumer
    /// caught up; `waited_us` is the stall duration.
    BackpressureStall { channel: Arc<str>, waited_us: u64 },
    /// The batched CNN inference service flushed one batch. `batch` is
    /// the number of requests served, `capacity` the policy's maximum,
    /// and `wait_us` how long the oldest request sat queued.
    InferBatchFlushed { batch: usize, capacity: usize, wait_us: u64 },
}

impl EventKind {
    /// Stable snake_case tag used by the JSONL exporter.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::TaskSubmitted { .. } => "task_submitted",
            EventKind::TaskReady { .. } => "task_ready",
            EventKind::TaskStarted { .. } => "task_started",
            EventKind::TaskRetryBackoff { .. } => "task_retry_backoff",
            EventKind::CheckpointWritten { .. } => "checkpoint_written",
            EventKind::ResumedFrom { .. } => "resumed_from",
            EventKind::TaskFinished { .. } => "task_finished",
            EventKind::QueueDepth { .. } => "queue_depth",
            EventKind::SchedulerDecision { .. } => "scheduler_decision",
            EventKind::KernelDone { .. } => "kernel_done",
            EventKind::OperatorDone { .. } => "operator_done",
            EventKind::StepCompleted { .. } => "step_completed",
            EventKind::FileWritten { .. } => "file_written",
            EventKind::TransferStaged { .. } => "transfer_staged",
            EventKind::ImageBuilt { .. } => "image_built",
            EventKind::ExecutionStarted { .. } => "execution_started",
            EventKind::ExecutionFinished { .. } => "execution_finished",
            EventKind::ExecutionQueued { .. } => "execution_queued",
            EventKind::ExecutionRejected { .. } => "execution_rejected",
            EventKind::ExecutionCoalesced { .. } => "execution_coalesced",
            EventKind::SpanStarted { .. } => "span_started",
            EventKind::SpanEnded { .. } => "span_ended",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::YearStreamed { .. } => "year_streamed",
            EventKind::BackpressureStall { .. } => "backpressure_stall",
            EventKind::InferBatchFlushed { .. } => "infer_batch_flushed",
        }
    }

    /// Duration carried by the event, when it describes a completed span.
    pub fn micros(&self) -> Option<u64> {
        match self {
            EventKind::TaskFinished { micros, .. }
            | EventKind::KernelDone { micros, .. }
            | EventKind::OperatorDone { micros, .. }
            | EventKind::StepCompleted { micros, .. }
            | EventKind::FileWritten { micros, .. }
            | EventKind::ExecutionFinished { micros, .. }
            | EventKind::SpanEnded { micros, .. } => Some(*micros),
            _ => None,
        }
    }
}

/// A stamped event: what happened, when, and on which thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic sequence number within the emitting bus.
    pub seq: u64,
    /// Microseconds since the bus epoch (bus creation).
    pub ts_micros: u64,
    /// Small dense per-process thread ordinal (not the OS thread id).
    pub thread: u64,
    /// Id of the span current on the emitting thread (0 = none); ties
    /// flat events to the causal span tree (see [`crate::trace`]).
    pub span: u64,
    pub kind: EventKind,
}

/// Dense thread ordinal: the first thread that emits gets 0, the next 1…
/// Chrome-trace `tid`s stay small and stable for the life of the thread.
pub fn thread_ordinal() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_stable() {
        let e = EventKind::TaskReady { task: 1 };
        assert_eq!(e.tag(), "task_ready");
        assert_eq!(TaskOutcome::Failed.label(), "failed");
    }

    #[test]
    fn micros_only_for_span_like_events() {
        assert_eq!(
            EventKind::FileWritten { path: "x".into(), bytes: 1, micros: 7 }.micros(),
            Some(7)
        );
        assert_eq!(EventKind::TaskReady { task: 1 }.micros(), None);
    }

    #[test]
    fn thread_ordinals_are_distinct() {
        let here = thread_ordinal();
        assert_eq!(here, thread_ordinal(), "stable within a thread");
        let other = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(here, other);
    }
}
