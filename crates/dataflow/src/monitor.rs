//! The run's one ledger: every report is a fold of the event stream.
//!
//! Section 2 lists monitoring and provenance among the key WMS
//! capabilities; the paper's Section 3 argues the WMS "can control the
//! status of all the tasks, thus supporting error management in a uniform
//! manner". What happened in a run *is* its stream of stamped
//! task-lifecycle events ([`Runtime::subscribe`](crate::Runtime::subscribe)),
//! and [`StatusFold`] is the single record kept of it: execution
//! [`Metrics`], the [`StatusSnapshot`] poll view, placement decisions with
//! estimate vs. actual, measured [`TaskSpan`]s, per-function
//! [`TimingStats`] and provenance are all reads of one fold.
//!
//! The runtime keeps one fold, always on, written only where it emits an
//! event; the scheduler-facing *control* state (graph, queues, data) lives
//! beside it and never duplicates a report fact. Because the fold consumes
//! nothing but events, a subscriber that replays the drained stream
//! through [`StatusFold::apply_event`] arrives at the same reads as the
//! live runtime — the one-writer contract `tests/ledger_replay.rs` pins.

use crate::graph::Node;
use crate::provenance::{ProvenanceLog, TaskRecord};
use crate::task::{TaskId, TaskState};
use crate::timing::{TaskSpan, TimingStats};
use obs::{EventKind, TaskOutcome};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, SystemTime};

/// Execution statistics, cheap to clone.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics {
    /// Completed task count (including checkpoint-restored).
    pub completed: usize,
    /// Permanently failed task count.
    pub failed: usize,
    /// Cancelled task count.
    pub cancelled: usize,
    /// Always 0: tasks have no deadline. Kept only for wfbench's reader
    /// (ROADMAP 1(a2)).
    pub timed_out: usize,
    /// Tasks restored from the checkpoint log without executing.
    pub restored: usize,
    /// Total retry attempts performed.
    pub retries: usize,
    /// Wall-clock execution time per completed task (final attempt).
    pub task_durations: Vec<(TaskId, String, Duration)>,
    /// Attempts *started* per worker index — retried attempts included, so
    /// the sum equals the sum over tasks of their attempts, not
    /// `completed`.
    pub tasks_per_worker: Vec<u64>,
}

/// One placement decision and its measured outcome, so reports can score
/// the duration estimate after the fact.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementDecision {
    pub task: TaskId,
    pub name: Arc<str>,
    pub worker: usize,
    /// Estimated duration of the task at decision time, microseconds.
    pub est_us: u64,
    /// Measured duration of the completed attempt; `None` while running
    /// or when the attempt never completed.
    pub actual_us: Option<u64>,
}

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
    /// Currently executing tasks with elapsed wall time.
    pub running_tasks: Vec<RunningTask>,
}

impl StatusSnapshot {
    /// Total tasks submitted so far.
    pub fn total(&self) -> usize {
        self.pending + self.ready + self.running + self.completed + self.failed + self.cancelled
    }
}

/// Per-task cell tracked by the fold.
struct TaskCell {
    state: TaskState,
    name: Arc<str>,
    /// Number of the last attempt started (`TaskStarted.attempt`).
    attempts: u32,
    /// Bus-clock start of the current attempt; a retry clears it, so on a
    /// terminal task it is the start of the *final* attempt.
    start_us: Option<u64>,
    /// `TaskFinished.micros`: wall time of the final attempt.
    micros: u64,
    /// `TaskFinished.worker`.
    worker: Option<usize>,
    /// Index into `placements` of the in-flight attempt's decision.
    placement: Option<usize>,
}

/// Folds stamped task-lifecycle events into every report of a run.
///
/// Feed it every event from a [`Runtime::subscribe`](crate::Runtime::subscribe)
/// stream (non-task events are ignored) and read whichever view is
/// needed. The runtime keeps one of these internally, updated at the
/// emission points, so `Runtime::{status, metrics, scheduler_decisions,
/// provenance, timing_report}` are exactly this fold applied to the full
/// event history.
#[derive(Default)]
pub struct StatusFold {
    tasks: HashMap<u64, TaskCell>,
    /// Wall-clock instant of bus time 0, anchored at the first event.
    epoch: Option<SystemTime>,
    metrics: Metrics,
    placements: Vec<PlacementDecision>,
    stats: TimingStats,
}

impl StatusFold {
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one event stamped `ts_us` on the emitting bus's clock.
    /// Events that do not concern task lifecycle are ignored, so a fold
    /// can consume a mixed stream unfiltered.
    ///
    /// Name-carrying events for tasks the fold has never seen create
    /// their cell on the spot, so a subscriber that attaches mid-run
    /// still tracks everything from that point on. In particular a task
    /// observed only via `TaskStarted` is correctly *removed* from the
    /// running view when its cancel event arrives — it must not linger
    /// in `running_tasks` after `TaskFinished { Cancelled }`.
    pub(crate) fn apply(&mut self, ts_us: u64, kind: &EventKind) {
        self.epoch.get_or_insert_with(|| SystemTime::now() - Duration::from_micros(ts_us));
        match kind {
            EventKind::TaskSubmitted { task, name } => {
                self.cell(*task, name);
            }
            EventKind::TaskReady { task } => {
                // No name on this event; an unknown task stays unknown
                // until a name-carrying event arrives.
                if let Some(c) = self.tasks.get_mut(task) {
                    c.state = TaskState::Ready;
                }
            }
            EventKind::SchedulerDecision { task, name, worker, est_us } => {
                let idx = self.placements.len();
                self.cell(*task, name).placement = Some(idx);
                self.placements.push(PlacementDecision {
                    task: TaskId(*task),
                    name: Arc::clone(name),
                    worker: *worker,
                    est_us: *est_us,
                    actual_us: None,
                });
            }
            EventKind::TaskStarted { task, name, worker, attempt } => {
                let c = self.cell(*task, name);
                c.state = TaskState::Running;
                c.attempts = *attempt;
                c.start_us = Some(ts_us);
                let per_worker = &mut self.metrics.tasks_per_worker;
                if per_worker.len() <= *worker {
                    per_worker.resize(*worker + 1, 0);
                }
                per_worker[*worker] += 1;
            }
            EventKind::TaskRetryBackoff { task, name, attempt, .. } => {
                let c = self.cell(*task, name);
                c.state = TaskState::Ready;
                c.attempts = *attempt;
                c.start_us = None;
                // The failed attempt's decision never completes; the next
                // pick records a fresh one.
                c.placement = None;
                self.metrics.retries += 1;
            }
            EventKind::ResumedFrom { .. } => self.metrics.restored += 1,
            EventKind::TaskFinished { task, name, worker, outcome, micros } => {
                let c = self.cell(*task, name);
                c.state = TaskState::from(*outcome);
                c.micros = *micros;
                c.worker = *worker;
                let (placement, executed) = (c.placement.take(), c.start_us.is_some());
                let m = &mut self.metrics;
                match outcome {
                    TaskOutcome::Completed => m.completed += 1,
                    TaskOutcome::Failed => m.failed += 1,
                    TaskOutcome::Cancelled => m.cancelled += 1,
                }
                // A restored task completes without ever starting: it
                // carries no duration sample and no placement.
                if *outcome == TaskOutcome::Completed && executed {
                    let d = Duration::from_micros(*micros);
                    m.task_durations.push((TaskId(*task), name.to_string(), d));
                    self.stats.record(name, *micros);
                    if let Some(i) = placement {
                        self.placements[i].actual_us = Some(*micros);
                    }
                }
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
            start_us: None,
            micros: 0,
            worker: None,
            placement: None,
        })
    }

    /// Applies a stamped event: the replay entry point for subscribers.
    pub fn apply_event(&mut self, event: &obs::Event) {
        self.apply(event.ts_micros, &event.kind);
    }

    /// Wall-clock instant of bus time `us`.
    fn wall(&self, us: u64) -> SystemTime {
        self.epoch.unwrap_or(SystemTime::UNIX_EPOCH) + Duration::from_micros(us)
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
            }
            if c.state == TaskState::Running {
                let started = self.wall(c.start_us.unwrap_or(0));
                snap.running_tasks.push(RunningTask {
                    task: TaskId(*id),
                    name: c.name.to_string(),
                    elapsed: started.elapsed().unwrap_or_default(),
                    attempts: c.attempts,
                });
            }
        }
        snap
    }

    /// Execution counters, per-task durations and per-worker attempts.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Every placement decision in decision order, its actual joined from
    /// the task's `TaskFinished`.
    pub fn placements(&self) -> &[PlacementDecision] {
        &self.placements
    }

    /// Measured per-function duration statistics (what each placement's
    /// `est_us` is read from).
    pub fn stats(&self) -> &TimingStats {
        &self.stats
    }

    /// Number of the last attempt of `task` that started (0 = none yet).
    pub(crate) fn attempts(&self, task: TaskId) -> u32 {
        self.tasks.get(&task.0).map_or(0, |c| c.attempts)
    }

    /// Measured execution interval of every completed task that ran
    /// (restored tasks carry no span): input to [`crate::timing::analyze`].
    pub fn spans(&self) -> Vec<TaskSpan> {
        let executed = |(id, c): (&u64, &TaskCell)| match (c.state, c.start_us) {
            (TaskState::Completed, Some(start_us)) => Some(TaskSpan {
                task: TaskId(*id),
                name: Arc::clone(&c.name),
                start_us,
                end_us: start_us + c.micros,
            }),
            _ => None,
        };
        self.tasks.iter().filter_map(executed).collect()
    }

    /// Provenance of every terminal task among `nodes`: the fold's
    /// lifecycle facts joined with the data refs each graph node holds.
    pub fn provenance<'a>(&self, nodes: impl IntoIterator<Item = &'a Node>) -> ProvenanceLog {
        let record = |n: &Node| {
            let c = self.tasks.get(&n.id.0).filter(|c| c.state.is_terminal())?;
            Some(TaskRecord {
                task: n.id,
                name: n.name.clone(),
                used: n.reads.clone(),
                generated: n.writes.clone(),
                worker: c.worker,
                started: c.start_us.map(|us| self.wall(us)),
                duration: c.start_us.map(|_| Duration::from_micros(c.micros)),
                attempts: c.attempts.max(1),
                final_state: c.state,
            })
        };
        ProvenanceLog::from_records(nodes.into_iter().filter_map(record).collect())
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
        f.apply(0, &EventKind::TaskSubmitted { task: 1, name: name() });
        f.apply(0, &EventKind::TaskSubmitted { task: 2, name: name() });
        f.apply(0, &EventKind::TaskReady { task: 1 });
        f.apply(0, &EventKind::TaskStarted { task: 1, name: name(), worker: 0, attempt: 1 });
        let s = f.snapshot();
        assert_eq!((s.pending, s.running), (1, 1));
        assert_eq!(s.running_tasks.len(), 1);
        assert_eq!(s.running_tasks[0].attempts, 1);
        assert_ne!((s.pending, s.ready, s.running), (0, 0, 0));

        f.apply(
            0,
            &EventKind::TaskFinished {
                task: 1,
                name: name(),
                worker: Some(0),
                outcome: TaskOutcome::Completed,
                micros: 10,
            },
        );
        f.apply(
            0,
            &EventKind::TaskFinished {
                task: 2,
                name: name(),
                worker: None,
                outcome: TaskOutcome::Cancelled,
                micros: 0,
            },
        );
        let s = f.snapshot();
        assert_eq!((s.completed, s.cancelled), (1, 1));
        assert_eq!((s.pending, s.ready, s.running), (0, 0, 0));
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn retry_returns_task_to_ready() {
        let mut f = StatusFold::new();
        f.apply(0, &EventKind::TaskSubmitted { task: 7, name: name() });
        f.apply(0, &EventKind::TaskStarted { task: 7, name: name(), worker: 0, attempt: 1 });
        f.apply(0, &EventKind::TaskRetryBackoff { task: 7, name: name(), attempt: 1, delay_ms: 0 });
        let s = f.snapshot();
        assert_eq!(s.ready, 1);
        assert_eq!(s.running, 0);
    }

    #[test]
    fn backoff_retry_folds_like_a_plain_retry() {
        let mut f = StatusFold::new();
        f.apply(0, &EventKind::TaskSubmitted { task: 4, name: name() });
        f.apply(0, &EventKind::TaskStarted { task: 4, name: name(), worker: 0, attempt: 1 });
        f.apply(0, &EventKind::TaskRetryBackoff { task: 4, name: name(), attempt: 1, delay_ms: 9 });
        let s = f.snapshot();
        assert_eq!((s.ready, s.running), (1, 0));
        f.apply(0, &EventKind::TaskStarted { task: 4, name: name(), worker: 0, attempt: 2 });
        f.apply(
            0,
            &EventKind::TaskFinished {
                task: 4,
                name: name(),
                worker: None,
                outcome: TaskOutcome::Failed,
                micros: 100,
            },
        );
        let s = f.snapshot();
        assert_eq!(s.failed, 1);
        assert_eq!(s.total(), 1);
        assert_eq!((s.pending, s.ready, s.running), (0, 0, 0));
    }

    #[test]
    fn cancel_mid_flight_clears_running_view() {
        // A fold attached mid-run first learns about the task from its
        // start event; the cancel event must still remove it from the
        // running view rather than leaking a running_tasks entry.
        let mut f = StatusFold::new();
        f.apply(0, &EventKind::TaskStarted { task: 3, name: name(), worker: 1, attempt: 1 });
        assert_eq!(f.snapshot().running_tasks.len(), 1);
        f.apply(
            0,
            &EventKind::TaskFinished {
                task: 3,
                name: name(),
                worker: None,
                outcome: TaskOutcome::Cancelled,
                micros: 0,
            },
        );
        let s = f.snapshot();
        assert!(s.running_tasks.is_empty(), "cancelled task leaked into running view");
        assert_eq!((s.running, s.cancelled), (0, 1));
        assert_eq!((s.pending, s.ready, s.running), (0, 0, 0));
    }

    #[test]
    fn mid_stream_fold_tracks_unseen_tasks() {
        // Subscribing after submission: Started/Retried/Finished create
        // cells on first sight so counts stay consistent from then on.
        let mut f = StatusFold::new();
        f.apply(0, &EventKind::TaskRetryBackoff { task: 8, name: name(), attempt: 2, delay_ms: 0 });
        f.apply(
            0,
            &EventKind::TaskFinished {
                task: 9,
                name: name(),
                worker: Some(0),
                outcome: TaskOutcome::Completed,
                micros: 4,
            },
        );
        let s = f.snapshot();
        assert_eq!((s.ready, s.completed), (1, 1));
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn non_task_events_are_ignored() {
        let mut f = StatusFold::new();
        f.apply(0, &EventKind::QueueDepth { ready: 5, running: 5 });
        f.apply(0, &EventKind::BackpressureStall { channel: "x".into(), waited_us: 1 });
        assert_eq!(f.snapshot().total(), 0);
    }

    #[test]
    fn empty_snapshot() {
        let s = StatusSnapshot::default();
        assert_eq!(s.total(), 0);
        assert_eq!((s.pending, s.ready, s.running), (0, 0, 0));
    }
}
