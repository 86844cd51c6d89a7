//! Workflow monitoring as a fold over the runtime's event stream.
//!
//! Section 2 lists monitoring among the key WMS capabilities; the paper's
//! Section 3 argues the WMS "can control the status of all the tasks,
//! thus supporting error management in a uniform manner". The primary
//! monitoring surface is [`Runtime::subscribe`](crate::Runtime::subscribe)
//! — a typed event stream — and this module is the compatibility adapter
//! on top of it: [`StatusFold`] folds task-lifecycle events into the
//! classic [`StatusSnapshot`] poll view, both for the runtime's own
//! [`status()`](crate::Runtime::status) and for any external subscriber
//! that wants progress-bar counts rather than raw events.

use crate::task::{TaskId, TaskState};
use obs::{EventKind, TaskOutcome};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Point-in-time view of one in-flight task.
#[derive(Debug, Clone)]
pub struct RunningTask {
    pub task: TaskId,
    pub name: String,
    pub elapsed: Duration,
    pub attempts: u32,
}

/// Point-in-time view of the whole workflow.
#[derive(Debug, Clone, Default)]
pub struct StatusSnapshot {
    pub pending: usize,
    pub ready: usize,
    pub running: usize,
    pub completed: usize,
    pub failed: usize,
    pub cancelled: usize,
    /// Tasks that exceeded their per-task deadline.
    pub timed_out: usize,
    /// Currently executing tasks with elapsed wall time.
    pub running_tasks: Vec<RunningTask>,
}

impl StatusSnapshot {
    /// Total tasks submitted so far.
    pub fn total(&self) -> usize {
        self.pending
            + self.ready
            + self.running
            + self.completed
            + self.failed
            + self.cancelled
            + self.timed_out
    }

    /// Fraction of tasks in a terminal state (NaN when none submitted).
    pub fn progress(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return f64::NAN;
        }
        (self.completed + self.failed + self.cancelled + self.timed_out) as f64 / total as f64
    }

    /// True when no task can make further progress.
    pub fn is_quiescent(&self) -> bool {
        self.pending == 0 && self.ready == 0 && self.running == 0
    }

    /// One-line human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "{}/{} done ({} running, {} ready, {} pending, {} failed, {} cancelled, {} timed out)",
            self.completed + self.failed + self.cancelled + self.timed_out,
            self.total(),
            self.running,
            self.ready,
            self.pending,
            self.failed,
            self.cancelled,
            self.timed_out
        )
    }
}

/// Per-task cell tracked by the fold.
struct TaskCell {
    state: TaskState,
    name: Arc<str>,
    attempts: u32,
    started: Option<Instant>,
}

/// Folds task-lifecycle events into a [`StatusSnapshot`].
///
/// Feed it every event from a [`Runtime::subscribe`](crate::Runtime::subscribe)
/// stream (non-task events are ignored) and call [`StatusFold::snapshot`]
/// whenever a poll view is needed. The runtime keeps one of these
/// internally, updated at the emission points, so `Runtime::status()` is
/// exactly this fold applied to the full event history.
#[derive(Default)]
pub struct StatusFold {
    tasks: HashMap<u64, TaskCell>,
}

impl StatusFold {
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one event. Events that do not concern task lifecycle are
    /// ignored, so a fold can consume a mixed stream unfiltered.
    ///
    /// Name-carrying events for tasks the fold has never seen create
    /// their cell on the spot, so a subscriber that attaches mid-run
    /// still tracks everything from that point on. In particular a task
    /// observed only via `TaskStarted` is correctly *removed* from the
    /// running view when its cancel event arrives — it must not linger
    /// in `running_tasks` after `TaskFinished { Cancelled }`.
    pub fn apply(&mut self, kind: &EventKind) {
        match kind {
            EventKind::TaskSubmitted { task, name } => {
                self.tasks.insert(
                    *task,
                    TaskCell {
                        state: TaskState::Pending,
                        name: Arc::clone(name),
                        attempts: 0,
                        started: None,
                    },
                );
            }
            EventKind::TaskReady { task } => {
                // No name on this event; an unknown task stays unknown
                // until a name-carrying event arrives.
                if let Some(c) = self.tasks.get_mut(task) {
                    c.state = TaskState::Ready;
                }
            }
            EventKind::TaskStarted { task, name, attempt, .. } => {
                let c = self.cell(*task, name);
                c.state = TaskState::Running;
                c.attempts = *attempt;
                c.started = Some(Instant::now());
            }
            EventKind::TaskRetried { task, name, attempt }
            | EventKind::TaskRetryBackoff { task, name, attempt, .. } => {
                let c = self.cell(*task, name);
                c.state = TaskState::Ready;
                c.attempts = *attempt;
                c.started = None;
            }
            EventKind::TaskFinished { task, name, outcome, .. } => {
                let c = self.cell(*task, name);
                c.state = match outcome {
                    TaskOutcome::Completed => TaskState::Completed,
                    TaskOutcome::Failed => TaskState::Failed,
                    TaskOutcome::Cancelled => TaskState::Cancelled,
                    TaskOutcome::TimedOut => TaskState::TimedOut,
                };
                c.started = None;
            }
            _ => {}
        }
    }

    /// The cell for `task`, created from `name` if this is the first
    /// event the fold sees for it (mid-stream subscription).
    fn cell(&mut self, task: u64, name: &Arc<str>) -> &mut TaskCell {
        self.tasks.entry(task).or_insert_with(|| TaskCell {
            state: TaskState::Pending,
            name: Arc::clone(name),
            attempts: 0,
            started: None,
        })
    }

    /// Applies a stamped event (convenience for subscriber loops).
    pub fn apply_event(&mut self, event: &obs::Event) {
        self.apply(&event.kind);
    }

    /// The current poll view.
    pub fn snapshot(&self) -> StatusSnapshot {
        let mut snap = StatusSnapshot::default();
        for (id, c) in &self.tasks {
            match c.state {
                TaskState::Pending => snap.pending += 1,
                TaskState::Ready => snap.ready += 1,
                TaskState::Running => snap.running += 1,
                TaskState::Completed => snap.completed += 1,
                TaskState::Failed => snap.failed += 1,
                TaskState::Cancelled => snap.cancelled += 1,
                TaskState::TimedOut => snap.timed_out += 1,
            }
            if c.state == TaskState::Running {
                snap.running_tasks.push(RunningTask {
                    task: TaskId(*id),
                    name: c.name.to_string(),
                    elapsed: c.started.map(|s| s.elapsed()).unwrap_or_default(),
                    attempts: c.attempts,
                });
            }
        }
        snap
    }

    /// Tasks tracked so far (any state).
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name() -> Arc<str> {
        Arc::from("t")
    }

    #[test]
    fn fold_tracks_lifecycle() {
        let mut f = StatusFold::new();
        f.apply(&EventKind::TaskSubmitted { task: 1, name: name() });
        f.apply(&EventKind::TaskSubmitted { task: 2, name: name() });
        f.apply(&EventKind::TaskReady { task: 1 });
        f.apply(&EventKind::TaskStarted { task: 1, name: name(), worker: 0, attempt: 1 });
        let s = f.snapshot();
        assert_eq!((s.pending, s.running), (1, 1));
        assert_eq!(s.running_tasks.len(), 1);
        assert_eq!(s.running_tasks[0].attempts, 1);
        assert!(!s.is_quiescent());

        f.apply(&EventKind::TaskFinished {
            task: 1,
            name: name(),
            worker: Some(0),
            outcome: TaskOutcome::Completed,
            micros: 10,
        });
        f.apply(&EventKind::TaskFinished {
            task: 2,
            name: name(),
            worker: None,
            outcome: TaskOutcome::Cancelled,
            micros: 0,
        });
        let s = f.snapshot();
        assert_eq!((s.completed, s.cancelled), (1, 1));
        assert!(s.is_quiescent());
        assert!((s.progress() - 1.0).abs() < 1e-12);
        assert!(s.render().contains("2/2 done"));
    }

    #[test]
    fn retry_returns_task_to_ready() {
        let mut f = StatusFold::new();
        f.apply(&EventKind::TaskSubmitted { task: 7, name: name() });
        f.apply(&EventKind::TaskStarted { task: 7, name: name(), worker: 0, attempt: 1 });
        f.apply(&EventKind::TaskRetried { task: 7, name: name(), attempt: 1 });
        let s = f.snapshot();
        assert_eq!(s.ready, 1);
        assert_eq!(s.running, 0);
    }

    #[test]
    fn backoff_retry_and_timeout_fold_like_their_plain_kin() {
        let mut f = StatusFold::new();
        f.apply(&EventKind::TaskSubmitted { task: 4, name: name() });
        f.apply(&EventKind::TaskStarted { task: 4, name: name(), worker: 0, attempt: 1 });
        f.apply(&EventKind::TaskRetryBackoff { task: 4, name: name(), attempt: 1, delay_ms: 9 });
        let s = f.snapshot();
        assert_eq!((s.ready, s.running), (1, 0));
        f.apply(&EventKind::TaskStarted { task: 4, name: name(), worker: 0, attempt: 2 });
        f.apply(&EventKind::TaskFinished {
            task: 4,
            name: name(),
            worker: None,
            outcome: TaskOutcome::TimedOut,
            micros: 100,
        });
        let s = f.snapshot();
        assert_eq!(s.timed_out, 1);
        assert_eq!(s.total(), 1);
        assert!(s.is_quiescent());
        assert!((s.progress() - 1.0).abs() < 1e-12);
        assert!(s.render().contains("1 timed out"));
    }

    #[test]
    fn cancel_mid_flight_clears_running_view() {
        // A fold attached mid-run first learns about the task from its
        // start event; the cancel event must still remove it from the
        // running view rather than leaking a running_tasks entry.
        let mut f = StatusFold::new();
        f.apply(&EventKind::TaskStarted { task: 3, name: name(), worker: 1, attempt: 1 });
        assert_eq!(f.snapshot().running_tasks.len(), 1);
        f.apply(&EventKind::TaskFinished {
            task: 3,
            name: name(),
            worker: None,
            outcome: TaskOutcome::Cancelled,
            micros: 0,
        });
        let s = f.snapshot();
        assert!(s.running_tasks.is_empty(), "cancelled task leaked into running view");
        assert_eq!((s.running, s.cancelled), (0, 1));
        assert!(s.is_quiescent());
    }

    #[test]
    fn mid_stream_fold_tracks_unseen_tasks() {
        // Subscribing after submission: Started/Retried/Finished create
        // cells on first sight so counts stay consistent from then on.
        let mut f = StatusFold::new();
        f.apply(&EventKind::TaskRetried { task: 8, name: name(), attempt: 2 });
        f.apply(&EventKind::TaskFinished {
            task: 9,
            name: name(),
            worker: Some(0),
            outcome: TaskOutcome::Completed,
            micros: 4,
        });
        let s = f.snapshot();
        assert_eq!((s.ready, s.completed), (1, 1));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn non_task_events_are_ignored() {
        let mut f = StatusFold::new();
        f.apply(&EventKind::QueueDepth { ready: 5, running: 5 });
        f.apply(&EventKind::BackpressureStall { channel: "x".into(), waited_us: 1 });
        assert!(f.is_empty());
        assert_eq!(f.snapshot().total(), 0);
    }

    #[test]
    fn empty_snapshot() {
        let s = StatusSnapshot::default();
        assert_eq!(s.total(), 0);
        assert!(s.progress().is_nan());
        assert!(s.is_quiescent());
    }
}
