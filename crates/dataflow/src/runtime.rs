//! The master–worker execution engine.
//!
//! A [`Runtime`] owns a pool of worker threads. The main program (the
//! "master", in COMPSs terms) submits tasks through the builder returned by
//! [`Runtime::task`]; the runtime derives dependencies from the data
//! versions each task reads and writes, runs each ready task on an idle
//! worker whose profile satisfies its constraint — the oldest such task
//! first — and lets the main program synchronize with [`Runtime::fetch`] (PyCOMPSs `compss_wait_on`)
//! or [`Runtime::barrier`] (`compss_barrier`).
//!
//! The state under the runtime lock is split in two. *Control state* is
//! what the placement and retry paths read: the graph, the task
//! entries, data, the ready/delayed queues, the checkpoint log. *Report
//! state* is one [`StatusFold`] of the task-lifecycle events, written only
//! by `observe` as each event is emitted; metrics, placements, spans,
//! provenance and status are reads of it (see [`crate::monitor`]).

use crate::checkpoint::CheckpointLog;
use crate::error::{Error, Result};
use crate::graph::{Node, TaskGraph};
use crate::monitor::{Metrics, PlacementDecision, StatusFold, StatusSnapshot};
use crate::payload::Payload;
use crate::provenance::ProvenanceLog;
use crate::resources::{Constraint, WorkerProfile};
use crate::task::{DataRef, FailurePolicy, TaskId, TaskState};
use obs::{EventKind, TaskOutcome};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runtime configuration.
#[derive(Clone)]
pub struct RuntimeConfig {
    /// Worker pool profiles (one thread per entry).
    pub workers: Vec<WorkerProfile>,
    /// Optional checkpoint log path; completed tasks with a key are logged
    /// and replayed on the next run.
    pub checkpoint_path: Option<PathBuf>,
    /// Seed of the retry-backoff jitter (see
    /// [`crate::inject::backoff_delay_ms`]), the one thing the runtime
    /// randomizes.
    pub seed: u64,
}

impl RuntimeConfig {
    /// `n` CPU workers, no checkpointing.
    pub fn with_cpu_workers(n: usize) -> Self {
        RuntimeConfig {
            workers: vec![WorkerProfile::cpu(); n.max(1)],
            checkpoint_path: None,
            seed: 0,
        }
    }

    /// Sets the determinism seed (retry-backoff jitter).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables checkpointing to `path`.
    pub fn with_checkpoint<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }
}

/// Handle returned by task submission: the task id plus the data versions
/// it will produce (`updates` first, then `writes`, each in call order).
#[derive(Debug, Clone)]
pub struct TaskHandle {
    pub id: TaskId,
    pub outputs: Vec<DataRef>,
}

type TaskFn<P> = dyn Fn(&[Arc<P>]) -> std::result::Result<Vec<P>, String> + Send + Sync;

/// Control state of one task. Lifecycle *facts* (attempts, start stamps,
/// durations) are not kept here: they are in the event fold.
struct TaskEntry<P: Payload> {
    name: Arc<str>,
    key: Option<String>,
    closure: Option<Arc<TaskFn<P>>>,
    state: TaskState,
    reads: Vec<DataRef>,
    writes: Vec<DataRef>,
    constraint: Constraint,
    policy: FailurePolicy,
    remaining_deps: usize,
    dependents: Vec<TaskId>,
}

struct DataEntry<P: Payload> {
    value: Option<Arc<P>>,
    failed: bool,
    /// [`Payload::approx_size`] of the value: the cold-start input of a
    /// consumer's duration estimate.
    size: u64,
}

struct Inner<P: Payload> {
    graph: TaskGraph,
    tasks: HashMap<TaskId, TaskEntry<P>>,
    data: HashMap<u64, DataEntry<P>>,
    name_versions: HashMap<String, u32>,
    next_task: u64,
    next_data: u64,
    ready: Vec<TaskId>,
    /// Backoff-delayed retries: `(due, task)`. The task stays
    /// `TaskState::Ready` (so `barrier`/status stay consistent) but is
    /// invisible to placement until a worker promotes it after `due`.
    delayed: Vec<(Instant, TaskId)>,
    running: usize,
    aborted: Option<Error>,
    shutdown: bool,
    checkpoint: Option<CheckpointLog>,
    /// The report state: the one record of what happened in this run, a
    /// fold of every event `observe` emitted. It lives under the state
    /// lock so the poll API and the event stream can never disagree.
    fold: StatusFold,
}

struct Shared<P: Payload> {
    state: Mutex<Inner<P>>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Determinism seed (retry-backoff jitter).
    seed: u64,
    /// Worker profiles, one per worker thread.
    profiles: Vec<WorkerProfile>,
    /// This runtime's event bus ([`Runtime::subscribe`]). Every lifecycle
    /// transition is also mirrored to `obs::global()` for whole-process
    /// tracers; both emits are a single atomic load when nobody listens.
    bus: obs::Bus,
}

/// The one writer of the report state: stamps the event on the bus clock,
/// folds it into the runtime's ledger, then fans it out to the runtime's
/// own bus and the process-global bus. The clone happens only when *both*
/// have subscribers.
fn observe<P: Payload>(shared: &Shared<P>, st: &mut Inner<P>, kind: EventKind) {
    st.fold.apply(shared.bus.now_micros(), &kind);
    let global = obs::global();
    match (shared.bus.is_active(), global.is_active()) {
        (true, true) => {
            shared.bus.emit(kind.clone());
            global.emit(kind);
        }
        (true, false) => shared.bus.emit(kind),
        (false, _) => global.emit(kind),
    }
}

/// Publishes the scheduler queue depth.
fn queue_depth<P: Payload>(shared: &Shared<P>, st: &mut Inner<P>) {
    let (ready, running) = (st.ready.len(), st.running);
    observe(shared, st, EventKind::QueueDepth { ready, running });
}

/// The task-based workflow runtime. See the crate docs for the model.
pub struct Runtime<P: Payload> {
    shared: Arc<Shared<P>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl<P: Payload> Runtime<P> {
    /// Starts the runtime and its worker threads.
    pub fn new(config: RuntimeConfig) -> Self {
        let checkpoint = config
            .checkpoint_path
            .as_ref()
            .map(|p| CheckpointLog::open(p).expect("cannot open checkpoint log"));
        let inner = Inner {
            graph: TaskGraph::new(),
            tasks: HashMap::new(),
            data: HashMap::new(),
            name_versions: HashMap::new(),
            next_task: 1,
            next_data: 1,
            ready: Vec::new(),
            delayed: Vec::new(),
            running: 0,
            aborted: None,
            shutdown: false,
            checkpoint,
            fold: StatusFold::new(),
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(inner),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            seed: config.seed,
            profiles: config.workers.clone(),
            bus: obs::Bus::new(),
        });
        let mut handles = Vec::new();
        for idx in 0..config.workers.len() {
            let sh = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("dataflow-worker-{idx}"))
                    .spawn(move || worker_loop(sh, idx))
                    .expect("cannot spawn worker thread"),
            );
        }
        Runtime { shared, handles: Mutex::new(handles) }
    }

    /// Starts building a task named `name` (the function name that colors
    /// the Figure-3 graph).
    pub fn task(&self, name: &str) -> TaskBuilder<'_, P> {
        TaskBuilder {
            rt: self,
            name: name.to_string(),
            key: None,
            reads: Vec::new(),
            updates: Vec::new(),
            writes: Vec::new(),
            constraint: Constraint::any(),
            policy: FailurePolicy::default(),
        }
    }

    /// Blocks until the datum is available and returns it.
    pub fn fetch(&self, data: &DataRef) -> Result<Arc<P>> {
        let mut st = self.shared.state.lock();
        loop {
            let entry = st
                .data
                .get(&data.id)
                .ok_or_else(|| Error::DataUnavailable { name: data.to_string() })?;
            if let Some(v) = &entry.value {
                return Ok(Arc::clone(v));
            }
            if entry.failed {
                return Err(Error::DataUnavailable { name: data.to_string() });
            }
            if let Some(e) = &st.aborted {
                return Err(e.clone());
            }
            if st.shutdown {
                return Err(Error::ShutDown);
            }
            self.shared.done_cv.wait(&mut st);
        }
    }

    /// Blocks until every submitted task reached a terminal state. Returns
    /// the abort error if a fail-fast failure stopped the workflow;
    /// ignored-policy failures do *not* fail the barrier.
    pub fn barrier(&self) -> Result<()> {
        let mut st = self.shared.state.lock();
        loop {
            let pending = st.tasks.values().any(|t| !t.state.is_terminal());
            if !pending {
                return match &st.aborted {
                    Some(e) => Err(e.clone()),
                    None => Ok(()),
                };
            }
            if st.shutdown {
                return Err(Error::ShutDown);
            }
            self.shared.done_cv.wait(&mut st);
        }
    }

    /// Current state of a task.
    pub fn task_state(&self, id: TaskId) -> Option<TaskState> {
        self.shared.state.lock().tasks.get(&id).map(|t| t.state)
    }

    /// The abort error, if a fail-fast failure has stopped the workflow.
    /// Lets long-polling drivers (e.g. a directory watcher waiting on
    /// workflow products) notice the abort without calling [`Runtime::barrier`].
    pub fn aborted(&self) -> Option<Error> {
        self.shared.state.lock().aborted.clone()
    }

    /// Snapshot of execution metrics (a read of the event fold).
    pub fn metrics(&self) -> Metrics {
        let mut m = self.shared.state.lock().fold.metrics().clone();
        // The fold learns of a worker at its first start; idle ones count 0.
        m.tasks_per_worker.resize(self.shared.profiles.len(), 0);
        m
    }

    /// Every placement decision made so far, in decision order, with the
    /// estimate at pick time and the measured duration once the task
    /// completed (a read of the event fold). The (task, worker) sequence
    /// doubles as the placement log the determinism tests compare.
    pub fn scheduler_decisions(&self) -> Vec<PlacementDecision> {
        self.shared.state.lock().fold.placements().to_vec()
    }

    /// Provenance of every terminal task, in submission order: the event
    /// fold joined with the data refs the graph holds.
    pub fn provenance(&self) -> ProvenanceLog {
        let st = self.shared.state.lock();
        st.fold.provenance(st.graph.nodes())
    }

    /// Point-in-time status of the whole workflow (monitoring).
    ///
    /// This is exactly the fold of the runtime's event stream (see
    /// [`StatusFold`]): the poll view and [`Runtime::subscribe`] can never
    /// disagree about a task's state.
    pub fn status(&self) -> StatusSnapshot {
        self.shared.state.lock().fold.snapshot()
    }

    /// Attaches a typed event receiver to this runtime's bus with the
    /// default bounded capacity ([`obs::DEFAULT_CAPACITY`]; oldest events
    /// are dropped — and counted — on overflow). The receiver sees every
    /// task-lifecycle transition and queue-depth sample from the moment of
    /// subscription; drop it to detach and restore the runtime's
    /// no-subscriber fast path.
    pub fn subscribe(&self) -> obs::EventReceiver {
        self.shared.bus.subscribe_with_capacity(obs::DEFAULT_CAPACITY)
    }

    /// DOT rendering of the task graph (Figure 3).
    pub fn graph_dot(&self) -> String {
        self.shared.state.lock().graph.to_dot()
    }

    /// Structure stats of the graph: `(tasks, edges, critical path len)`.
    pub fn graph_stats(&self) -> (usize, usize, usize) {
        let st = self.shared.state.lock();
        (st.graph.len(), st.graph.edges().len(), st.graph.critical_path_len())
    }

    /// The timed critical path of everything executed so far: the
    /// measured longest dependency chain, per-task slack, and what-if
    /// speedups (see [`crate::timing`]). `None` until a task completes.
    pub fn timing_report(&self) -> Option<crate::timing::TimedPath> {
        let st = self.shared.state.lock();
        crate::timing::analyze(&st.graph.edges(), &st.fold.spans())
    }

    /// Per-function task counts (legend of Figure 3).
    pub fn function_counts(&self) -> std::collections::BTreeMap<String, usize> {
        self.shared.state.lock().graph.function_counts()
    }

    /// Stops the workers and joins them. Pending tasks are cancelled.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            cancel_unstarted(&self.shared, &mut st);
            self.shared.work_cv.notify_all();
            self.shared.done_cv.notify_all();
        }
        let mut handles = self.handles.lock();
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl<P: Payload> Drop for Runtime<P> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Builder for one task submission. See [`Runtime::task`].
pub struct TaskBuilder<'rt, P: Payload> {
    rt: &'rt Runtime<P>,
    name: String,
    key: Option<String>,
    reads: Vec<DataRef>,
    updates: Vec<DataRef>,
    writes: Vec<String>,
    constraint: Constraint,
    policy: FailurePolicy,
}

impl<'rt, P: Payload> TaskBuilder<'rt, P> {
    /// Stable checkpoint key. Tasks without a key are never checkpointed.
    pub fn key(mut self, key: &str) -> Self {
        self.key = Some(key.to_string());
        self
    }

    /// IN parameters: data versions this task consumes.
    pub fn reads(mut self, refs: &[DataRef]) -> Self {
        self.reads.extend(refs.iter().cloned());
        self
    }

    /// INOUT parameters: consumed *and* re-produced as a new version of the
    /// same name. The closure receives the current value as an input (after
    /// all `reads`) and must return the new value (before all `writes`).
    pub fn updates(mut self, refs: &[DataRef]) -> Self {
        self.updates.extend(refs.iter().cloned());
        self
    }

    /// OUT parameters: names of data this task produces (new versions).
    pub fn writes(mut self, names: &[&str]) -> Self {
        self.writes.extend(names.iter().map(|s| s.to_string()));
        self
    }

    /// Placement constraint (`@constraint` decorator).
    pub fn constraint(mut self, c: Constraint) -> Self {
        self.constraint = c;
        self
    }

    /// Failure policy (`on_failure` clause).
    pub fn on_failure(mut self, p: FailurePolicy) -> Self {
        self.policy = p;
        self
    }

    /// Submits the task with its body. Inputs arrive as
    /// `[reads..., updates...]`; outputs must be returned as
    /// `[updates' new values..., writes' values...]`.
    pub fn run<F>(self, f: F) -> Result<TaskHandle>
    where
        F: Fn(&[Arc<P>]) -> std::result::Result<Vec<P>, String> + Send + Sync + 'static,
    {
        self.submit(Arc::new(f))
    }

    fn submit(self, f: Arc<TaskFn<P>>) -> Result<TaskHandle> {
        let shared = &self.rt.shared;
        // Reject constraints no worker can ever satisfy.
        if !shared.profiles.iter().any(|p| p.satisfies(&self.constraint)) {
            return Err(Error::UnsatisfiableConstraint { task_name: self.name });
        }

        let mut st = shared.state.lock();
        if st.shutdown {
            return Err(Error::ShutDown);
        }
        let id = TaskId(st.next_task);
        st.next_task += 1;

        // Allocate new versions for updates (same name) and writes.
        let mut outputs = Vec::with_capacity(self.updates.len() + self.writes.len());
        let alloc = |st: &mut Inner<P>, name: &str| -> DataRef {
            let ver = st.name_versions.entry(name.to_string()).or_insert(0);
            *ver += 1;
            let r = DataRef { id: st.next_data, name: name.to_string(), version: *ver };
            st.next_data += 1;
            st.data.insert(r.id, DataEntry { value: None, failed: false, size: 0 });
            r
        };
        for u in &self.updates {
            outputs.push(alloc(&mut st, &u.name));
        }
        for w in &self.writes {
            outputs.push(alloc(&mut st, w));
        }

        // All inputs: reads then updates' current versions.
        let mut all_reads = self.reads.clone();
        all_reads.extend(self.updates.iter().cloned());

        let preds = st.graph.add_node(Node {
            id,
            name: self.name.clone(),
            reads: all_reads.clone(),
            writes: outputs.clone(),
        });

        // Count unfinished predecessors; detect already-failed ones.
        let mut remaining = 0usize;
        let mut doomed = false;
        for p in &preds {
            match st.tasks.get(p).map(|t| t.state) {
                Some(s) if s.is_terminal_failure() => doomed = true,
                Some(TaskState::Completed) => {}
                Some(_) => remaining += 1,
                None => {}
            }
        }

        let task_name: Arc<str> = Arc::from(self.name.as_str());
        let entry = TaskEntry {
            name: Arc::clone(&task_name),
            key: self.key.clone(),
            closure: Some(f),
            state: TaskState::Pending,
            reads: all_reads,
            writes: outputs.clone(),
            constraint: self.constraint,
            policy: self.policy,
            remaining_deps: remaining,
            dependents: Vec::new(),
        };
        st.tasks.insert(id, entry);
        for p in &preds {
            if let Some(t) = st.tasks.get_mut(p) {
                if !t.state.is_terminal() {
                    t.dependents.push(id);
                }
            }
        }
        observe(shared, &mut st, EventKind::TaskSubmitted { task: id.0, name: task_name });

        if doomed {
            terminate(shared, &mut st, id, TaskOutcome::Cancelled, 0);
            shared.done_cv.notify_all();
            return Ok(TaskHandle { id, outputs });
        }

        // Checkpoint replay: restore outputs without executing. A
        // malformed or arity-mismatched record falls through and executes.
        let restored = self.key.as_deref().and_then(|key| {
            let blobs = st.checkpoint.as_ref()?.lookup(key)?;
            let values: Vec<P> = blobs.iter().map(|b| P::decode(b)).collect::<Option<_>>()?;
            (values.len() == outputs.len()).then_some((key, values))
        });
        if let Some((key, values)) = restored {
            observe(shared, &mut st, EventKind::ResumedFrom { task: id.0, key: Arc::from(key) });
            complete(shared, &mut st, id, None, 0, values);
            return Ok(TaskHandle { id, outputs });
        }

        if remaining == 0 {
            if let Some(t) = st.tasks.get_mut(&id) {
                t.state = TaskState::Ready;
            }
            st.ready.push(id);
            observe(shared, &mut st, EventKind::TaskReady { task: id.0 });
            queue_depth(shared, &mut st);
            shared.work_cv.notify_all();
        }
        Ok(TaskHandle { id, outputs })
    }
}

/// The one terminal transition for a task that will never produce its
/// outputs: `root` ends as `outcome` (`Failed` after an attempt of
/// `micros`, or `Cancelled`) and every transitive dependent is
/// `Cancelled`. Per task: state flip, closure drop, removal from the
/// ready and delayed queues, one `TaskFinished`, output poisoning.
/// Already-terminal tasks are skipped.
fn terminate<P: Payload>(
    shared: &Shared<P>,
    st: &mut Inner<P>,
    root: TaskId,
    outcome: TaskOutcome,
    micros: u64,
) {
    let mut stack = vec![(root, outcome, micros)];
    while let Some((id, outcome, micros)) = stack.pop() {
        let Some(t) = st.tasks.get_mut(&id).filter(|t| !t.state.is_terminal()) else { continue };
        t.state = TaskState::from(outcome);
        t.closure = None;
        let name = Arc::clone(&t.name);
        stack.extend(t.dependents.iter().map(|d| (*d, TaskOutcome::Cancelled, 0)));
        for w in &t.writes {
            if let Some(d) = st.data.get_mut(&w.id) {
                d.failed = true;
            }
        }
        st.ready.retain(|r| *r != id);
        st.delayed.retain(|(_, d)| *d != id);
        observe(
            shared,
            st,
            EventKind::TaskFinished {
                task: id.0,
                name: Arc::clone(&name),
                worker: None,
                outcome,
                micros,
            },
        );
        if outcome != TaskOutcome::Cancelled {
            // The black box: persist the last events leading up to this
            // failure or timeout (no-op unless flight recording is on and
            // a dump path is set).
            obs::flight::dump(&format!("task_{}: {name} (#{})", outcome.label(), id.0));
        }
    }
}

/// Cancels every task no worker has started (shutdown, fail-fast abort).
fn cancel_unstarted<P: Payload>(shared: &Shared<P>, st: &mut Inner<P>) {
    let unstarted = |(id, t): (&TaskId, &TaskEntry<P>)| {
        (!t.state.is_terminal() && t.state != TaskState::Running).then_some(*id)
    };
    let ids: Vec<TaskId> = st.tasks.iter().filter_map(unstarted).collect();
    for id in ids {
        terminate(shared, st, id, TaskOutcome::Cancelled, 0);
    }
}

/// The successful terminal transition: publishes `outs` as the task's
/// outputs (computed on `worker`; `None` = restored from the checkpoint
/// log), emits its `TaskFinished` and readies dependents.
fn complete<P: Payload>(
    shared: &Shared<P>,
    st: &mut Inner<P>,
    id: TaskId,
    worker: Option<usize>,
    micros: u64,
    outs: Vec<P>,
) {
    let t = st.tasks.get_mut(&id).expect("completed task missing");
    t.state = TaskState::Completed;
    t.closure = None;
    let (name, dependents) = (Arc::clone(&t.name), std::mem::take(&mut t.dependents));
    for (w, v) in t.writes.iter().zip(outs) {
        if let Some(d) = st.data.get_mut(&w.id) {
            d.size = v.approx_size();
            d.value = Some(Arc::new(v));
        }
    }
    observe(
        shared,
        st,
        EventKind::TaskFinished {
            task: id.0,
            name,
            worker,
            outcome: TaskOutcome::Completed,
            micros,
        },
    );
    for dep in dependents {
        let Some(t) = st.tasks.get_mut(&dep).filter(|t| t.state == TaskState::Pending) else {
            continue;
        };
        t.remaining_deps = t.remaining_deps.saturating_sub(1);
        if t.remaining_deps == 0 {
            t.state = TaskState::Ready;
            st.ready.push(dep);
            observe(shared, st, EventKind::TaskReady { task: dep.0 });
        }
    }
    queue_depth(shared, st);
    shared.work_cv.notify_all();
    shared.done_cv.notify_all();
}

/// Runs one task attempt under the chaos hook and a panic barrier.
/// Injected faults at [`crate::inject::SITE_TASK`] apply here — *inside*
/// the barrier, so an injected panic exercises the same recovery path an
/// organic one would. Panics become task failures, which means the
/// task's [`FailurePolicy`] (not a dead worker thread) decides what
/// happens next.
fn run_attempt<P: Payload>(
    closure: &Arc<TaskFn<P>>,
    inputs: &[Arc<P>],
) -> std::result::Result<Vec<P>, String> {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        use obs::chaos::Fault;
        match obs::chaos::fire(crate::inject::SITE_TASK) {
            Some(Fault::Panic) => panic!("chaos: injected panic at {}", crate::inject::SITE_TASK),
            Some(Fault::Stall { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                closure(inputs)
            }
            Some(Fault::Error) => {
                Err(format!("chaos: injected error at {}", crate::inject::SITE_TASK))
            }
            Some(Fault::Poison) => {
                Err(format!("chaos: poisoned payload at {}", crate::inject::SITE_TASK))
            }
            _ => closure(inputs),
        }
    }));
    caught.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string());
        Err(format!("panic: {msg}"))
    })
}

fn worker_loop<P: Payload>(shared: Arc<Shared<P>>, worker_idx: usize) {
    let mut st = shared.state.lock();
    loop {
        if st.shutdown {
            return;
        }

        // Promote backoff-delayed retries whose due time has passed.
        let now = Instant::now();
        let mut i = 0;
        let mut promoted = false;
        while i < st.delayed.len() {
            if st.delayed[i].0 <= now {
                let (_, id) = st.delayed.swap_remove(i);
                // The task may have been cancelled while parked.
                if st.tasks.get(&id).map(|t| t.state == TaskState::Ready).unwrap_or(false) {
                    st.ready.push(id);
                    promoted = true;
                }
            } else {
                i += 1;
            }
        }
        if promoted {
            shared.work_cv.notify_all();
        }

        // The one placement rule: the oldest ready task whose constraint
        // this worker's profile satisfies.
        let profile = &shared.profiles[worker_idx];
        let picked = st.ready.iter().position(|id| profile.satisfies(&st.tasks[id].constraint));
        let Some(ready_idx) = picked else {
            if let Some(due) = st.delayed.iter().map(|(due, _)| *due).min() {
                // Parked retries exist and nothing may ever notify the cv
                // again: sleep only until the earliest one comes due.
                let wait = due.saturating_duration_since(Instant::now());
                shared.work_cv.wait_for(&mut st, wait.min(Duration::from_millis(50)));
            } else {
                shared.work_cv.wait(&mut st);
            }
            continue;
        };

        let id = st.ready.remove(ready_idx);
        // The estimate at pick time, reported next to the attempt's
        // measured `micros` (placement does not read it).
        let t = &st.tasks[&id];
        let name = Arc::clone(&t.name);
        let bytes: u64 = t.reads.iter().map(|r| st.data[&r.id].size).sum();
        let est_us = st.fold.stats().estimate_us(&name, bytes);
        let decision = EventKind::SchedulerDecision {
            task: id.0,
            name: Arc::clone(&name),
            worker: worker_idx,
            est_us,
        };
        observe(&shared, &mut st, decision);

        let attempt = st.fold.attempts(id) + 1;
        let (closure, inputs) = {
            let inner = &mut *st;
            let t = inner.tasks.get_mut(&id).expect("ready task missing");
            t.state = TaskState::Running;
            let closure = Arc::clone(t.closure.as_ref().expect("running task without closure"));
            let input = |r: &DataRef| {
                let value = inner.data[&r.id].value.as_ref();
                Arc::clone(value.expect("ready task with unmaterialized input"))
            };
            (closure, t.reads.iter().map(input).collect::<Vec<Arc<P>>>())
        };
        st.running += 1;
        let started = EventKind::TaskStarted {
            task: id.0,
            name: Arc::clone(&name),
            worker: worker_idx,
            attempt,
        };
        observe(&shared, &mut st, started);
        queue_depth(&shared, &mut st);
        drop(st);

        let start = Instant::now();
        let result = {
            // The task's causal span: everything the closure does — par
            // pool jobs, datacube kernels, file writes — nests under it
            // (pool spawns carry the context across threads).
            let _span = obs::global_active().then(|| obs::trace::span(name));
            run_attempt(&closure, &inputs)
        };
        let micros = start.elapsed().as_micros() as u64;

        st = shared.state.lock();
        st.running -= 1;
        finish_task(&shared, &mut st, id, worker_idx, micros, result);
    }
}

/// Terminal handling of one attempt that took `micros`: publish outputs /
/// apply the failure policy, wake dependents and waiters.
fn finish_task<P: Payload>(
    shared: &Shared<P>,
    st: &mut Inner<P>,
    id: TaskId,
    worker_idx: usize,
    micros: u64,
    result: std::result::Result<Vec<P>, String>,
) {
    let t = &st.tasks[&id];
    let (policy, name, declared_outputs) = (t.policy, Arc::clone(&t.name), t.writes.len());
    let message = match result {
        Ok(outs) if outs.len() == declared_outputs => {
            // Checkpoint before publishing (a crash after publishing
            // but before logging only costs a re-execution).
            if let Some(k) = t.key.clone() {
                let blobs: Vec<Vec<u8>> = outs.iter().map(|o| o.encode()).collect();
                if st.checkpoint.as_mut().is_some_and(|log| log.append(&k, &blobs).is_ok()) {
                    let bytes: u64 = blobs.iter().map(|b| b.len() as u64).sum();
                    observe(shared, st, EventKind::CheckpointWritten { key: Arc::from(k), bytes });
                }
            }
            return complete(shared, st, id, Some(worker_idx), micros, outs);
        }
        Ok(outs) => {
            format!("output arity mismatch: declared {declared_outputs}, produced {}", outs.len())
        }
        Err(m) => m,
    };
    // The number of the attempt that just failed.
    let attempt = st.fold.attempts(id);
    if let FailurePolicy::RetryBackoff { max_retries, base_ms, cap_ms } = policy {
        if attempt <= max_retries {
            st.tasks.get_mut(&id).expect("retried task missing").state = TaskState::Ready;
            let delay_ms =
                crate::inject::backoff_delay_ms(shared.seed, id.0, attempt, base_ms, cap_ms);
            st.delayed.push((Instant::now() + Duration::from_millis(delay_ms), id));
            observe(
                shared,
                st,
                EventKind::TaskRetryBackoff { task: id.0, name, attempt, delay_ms },
            );
            queue_depth(shared, st);
            shared.work_cv.notify_all();
            return;
        }
    }
    terminate(shared, st, id, TaskOutcome::Failed, micros);
    if policy != FailurePolicy::IgnoreCancelSuccessors {
        // Fail fast: cancel everything no worker has started.
        st.aborted = Some(Error::TaskFailed { task: id, name: name.to_string(), message });
        cancel_unstarted(shared, st);
    }
    queue_depth(shared, st);
    shared.work_cv.notify_all();
    shared.done_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Bytes;
    use std::sync::atomic::{AtomicU32, Ordering};

    impl<P: Payload> Runtime<P> {
        /// Measured execution interval of every completed task so far, on
        /// the runtime bus clock (see [`obs::Bus::now_micros`]).
        fn task_spans(&self) -> Vec<crate::timing::TaskSpan> {
            self.shared.state.lock().fold.spans()
        }
    }

    fn rt(n: usize) -> Runtime<Bytes> {
        Runtime::new(RuntimeConfig::with_cpu_workers(n))
    }

    #[test]
    fn single_task_runs() {
        let rt = rt(2);
        let h = rt.task("answer").writes(&["x"]).run(|_| Ok(vec![Bytes::from_u64(42)])).unwrap();
        assert_eq!(rt.fetch(&h.outputs[0]).unwrap().as_u64(), Some(42));
        rt.barrier().unwrap();
        assert_eq!(rt.task_state(h.id), Some(TaskState::Completed));
    }

    #[test]
    fn chain_dependencies_resolve_in_order() {
        let rt = rt(4);
        let a = rt.task("a").writes(&["v"]).run(|_| Ok(vec![Bytes::from_u64(1)])).unwrap();
        let mut last = a.outputs[0].clone();
        for _ in 0..10 {
            let h = rt
                .task("inc")
                .reads(&[last.clone()])
                .writes(&["v"])
                .run(|inp| Ok(vec![Bytes::from_u64(inp[0].as_u64().unwrap() + 1)]))
                .unwrap();
            last = h.outputs[0].clone();
        }
        assert_eq!(rt.fetch(&last).unwrap().as_u64(), Some(11));
        assert_eq!(last.version, 11);
    }

    #[test]
    fn independent_tasks_run_concurrently() {
        let rt = rt(4);
        let live = Arc::new(AtomicU32::new(0));
        let peak = Arc::new(AtomicU32::new(0));
        for _ in 0..8 {
            let live = Arc::clone(&live);
            let peak = Arc::clone(&peak);
            rt.task("sleepy")
                .writes(&["out"])
                .run(move |_| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    live.fetch_sub(1, Ordering::SeqCst);
                    Ok(vec![Bytes(Vec::new())])
                })
                .unwrap();
        }
        rt.barrier().unwrap();
        assert!(
            peak.load(Ordering::SeqCst) >= 3,
            "expected >=3 concurrent tasks, saw {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn updates_create_new_versions_and_pass_value() {
        let rt = rt(2);
        let init =
            rt.task("init").writes(&["state"]).run(|_| Ok(vec![Bytes::from_u64(5)])).unwrap();
        let step = rt
            .task("step")
            .updates(&[init.outputs[0].clone()])
            .run(|inp| Ok(vec![Bytes::from_u64(inp[0].as_u64().unwrap() * 3)]))
            .unwrap();
        let out = &step.outputs[0];
        assert_eq!(out.name, "state");
        assert_eq!(out.version, 2);
        assert_eq!(rt.fetch(out).unwrap().as_u64(), Some(15));
    }

    #[test]
    fn fail_fast_aborts_workflow_and_cancels_successors() {
        let rt = rt(2);
        let bad = rt.task("bad").writes(&["x"]).run(|_| Err("kaboom".to_string())).unwrap();
        let dep = rt
            .task("dep")
            .reads(&[bad.outputs[0].clone()])
            .writes(&["y"])
            .run(|_| Ok(vec![Bytes(Vec::new())]))
            .unwrap();
        let err = rt.barrier().unwrap_err();
        assert!(matches!(err, Error::TaskFailed { .. }));
        assert_eq!(rt.task_state(bad.id), Some(TaskState::Failed));
        assert_eq!(rt.task_state(dep.id), Some(TaskState::Cancelled));
        assert!(rt.fetch(&dep.outputs[0]).is_err());
    }

    #[test]
    fn retry_policy_eventually_succeeds() {
        let rt = rt(2);
        let tries = Arc::new(AtomicU32::new(0));
        let t2 = Arc::clone(&tries);
        let h = rt
            .task("flaky")
            .writes(&["x"])
            .on_failure(FailurePolicy::RetryBackoff { max_retries: 3, base_ms: 0, cap_ms: 0 })
            .run(move |_| {
                if t2.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err("transient".into())
                } else {
                    Ok(vec![Bytes::from_u64(9)])
                }
            })
            .unwrap();
        assert_eq!(rt.fetch(&h.outputs[0]).unwrap().as_u64(), Some(9));
        rt.barrier().unwrap();
        assert_eq!(tries.load(Ordering::SeqCst), 3);
        assert_eq!(rt.metrics().retries, 2);
    }

    #[test]
    fn retry_exhaustion_fails_fast() {
        let rt = rt(2);
        rt.task("always-bad")
            .writes(&["x"])
            .on_failure(FailurePolicy::RetryBackoff { max_retries: 2, base_ms: 0, cap_ms: 0 })
            .run(|_| Err("permanent".into()))
            .unwrap();
        assert!(rt.barrier().is_err());
    }

    #[test]
    fn ignore_policy_cancels_subtree_but_workflow_continues() {
        let rt = rt(2);
        let bad = rt
            .task("bad")
            .writes(&["poisoned"])
            .on_failure(FailurePolicy::IgnoreCancelSuccessors)
            .run(|_| Err("nope".into()))
            .unwrap();
        let child = rt
            .task("child")
            .reads(&[bad.outputs[0].clone()])
            .writes(&["c"])
            .run(|_| Ok(vec![Bytes(Vec::new())]))
            .unwrap();
        let ok =
            rt.task("independent").writes(&["ok"]).run(|_| Ok(vec![Bytes::from_u64(1)])).unwrap();
        rt.barrier().unwrap(); // no abort
        assert_eq!(rt.task_state(bad.id), Some(TaskState::Failed));
        assert_eq!(rt.task_state(child.id), Some(TaskState::Cancelled));
        assert_eq!(rt.task_state(ok.id), Some(TaskState::Completed));
        assert_eq!(rt.fetch(&ok.outputs[0]).unwrap().as_u64(), Some(1));
    }

    #[test]
    fn submitting_after_ignored_failure_cancels_immediately() {
        let rt = rt(2);
        let bad = rt
            .task("bad")
            .writes(&["p"])
            .on_failure(FailurePolicy::IgnoreCancelSuccessors)
            .run(|_| Err("nope".into()))
            .unwrap();
        rt.barrier().unwrap();
        // Submitted *after* the failure: must be cancelled at submission.
        let late = rt
            .task("late")
            .reads(&[bad.outputs[0].clone()])
            .writes(&["l"])
            .run(|_| Ok(vec![Bytes(Vec::new())]))
            .unwrap();
        rt.barrier().unwrap();
        assert_eq!(rt.task_state(late.id), Some(TaskState::Cancelled));
    }

    #[test]
    fn unsatisfiable_constraint_rejected_at_submission() {
        let rt = rt(2); // CPU-only pool
        let err = rt
            .task("needs-gpu")
            .constraint(Constraint::gpu())
            .writes(&["x"])
            .run(|_| Ok(vec![Bytes(Vec::new())]))
            .unwrap_err();
        assert!(matches!(err, Error::UnsatisfiableConstraint { .. }));
    }

    #[test]
    fn gpu_task_lands_on_gpu_worker() {
        let config = RuntimeConfig {
            workers: vec![WorkerProfile::cpu(), WorkerProfile::gpu()],
            ..RuntimeConfig::with_cpu_workers(1)
        };
        let rt: Runtime<Bytes> = Runtime::new(config);
        for _ in 0..4 {
            rt.task("infer")
                .constraint(Constraint::gpu())
                .writes(&["pred"])
                .run(|_| Ok(vec![Bytes(Vec::new())]))
                .unwrap();
        }
        rt.barrier().unwrap();
        let m = rt.metrics();
        assert_eq!(m.tasks_per_worker[0], 0, "CPU worker must not run GPU tasks");
        assert_eq!(m.tasks_per_worker[1], 4);
    }

    #[test]
    fn graph_reflects_diamond() {
        let rt = rt(2);
        let a = rt.task("src").writes(&["a"]).run(|_| Ok(vec![Bytes::from_u64(1)])).unwrap();
        let b = rt
            .task("left")
            .reads(&[a.outputs[0].clone()])
            .writes(&["b"])
            .run(|i| Ok(vec![Bytes::from_u64(i[0].as_u64().unwrap() + 1)]))
            .unwrap();
        let c = rt
            .task("right")
            .reads(&[a.outputs[0].clone()])
            .writes(&["c"])
            .run(|i| Ok(vec![Bytes::from_u64(i[0].as_u64().unwrap() + 2)]))
            .unwrap();
        let d = rt
            .task("sink")
            .reads(&[b.outputs[0].clone(), c.outputs[0].clone()])
            .writes(&["d"])
            .run(|i| Ok(vec![Bytes::from_u64(i[0].as_u64().unwrap() + i[1].as_u64().unwrap())]))
            .unwrap();
        assert_eq!(rt.fetch(&d.outputs[0]).unwrap().as_u64(), Some(5));
        let (tasks, edges, cp) = rt.graph_stats();
        assert_eq!((tasks, edges, cp), (4, 4, 3));
        let dot = rt.graph_dot();
        assert!(dot.contains("t1 -> t2;"));
    }

    #[test]
    fn fetch_on_missing_datum_errors() {
        let rt = rt(1);
        let ghost = DataRef { id: 999, name: "ghost".into(), version: 1 };
        assert!(matches!(rt.fetch(&ghost), Err(Error::DataUnavailable { .. })));
    }

    #[test]
    fn metrics_record_durations_and_worker_spread() {
        let rt = rt(2);
        for _ in 0..6 {
            rt.task("t")
                .writes(&["x"])
                .run(|_| {
                    std::thread::sleep(Duration::from_millis(5));
                    Ok(vec![Bytes(Vec::new())])
                })
                .unwrap();
        }
        let tries = Arc::new(AtomicU32::new(0));
        rt.task("flaky")
            .writes(&["y"])
            .on_failure(FailurePolicy::RetryBackoff { max_retries: 1, base_ms: 0, cap_ms: 0 })
            .run(move |_| match tries.fetch_add(1, Ordering::SeqCst) {
                0 => Err("transient".into()),
                _ => Ok(vec![Bytes(Vec::new())]),
            })
            .unwrap();
        rt.barrier().unwrap();
        let m = rt.metrics();
        assert_eq!(m.completed, 7);
        assert_eq!(m.task_durations.len(), 7);
        assert!(m
            .task_durations
            .iter()
            .all(|(_, name, d)| name == "flaky" || *d >= Duration::from_millis(4)));
        // Per-worker counts are attempts *started*: the sum over tasks of
        // their attempts (8 here), not the completed count.
        let attempts: u64 = rt.provenance().records().iter().map(|r| u64::from(r.attempts)).sum();
        assert_eq!(attempts, 8);
        assert_eq!(m.tasks_per_worker.iter().sum::<u64>(), attempts);
    }

    #[test]
    fn subscribers_see_full_task_lifecycle() {
        let rt = rt(2);
        let rx = rt.subscribe();
        let h = rt.task("observed").writes(&["x"]).run(|_| Ok(vec![Bytes::from_u64(1)])).unwrap();
        rt.barrier().unwrap();
        let events = rx.drain();
        assert_eq!(rx.dropped(), 0);
        let tags: Vec<&str> = events
            .iter()
            .filter(|e| !matches!(e.kind, EventKind::QueueDepth { .. }))
            .map(|e| e.kind.tag())
            .collect();
        assert_eq!(
            tags,
            vec![
                "task_submitted",
                "task_ready",
                "scheduler_decision",
                "task_started",
                "task_finished"
            ]
        );
        let finished = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::TaskFinished { task, name, outcome, worker, .. } => {
                    Some((*task, name.clone(), *outcome, *worker))
                }
                _ => None,
            })
            .expect("finish event present");
        assert_eq!(finished.0, h.id.0);
        assert_eq!(&*finished.1, "observed");
        assert_eq!(finished.2, TaskOutcome::Completed);
        assert!(finished.3.is_some());
    }

    #[test]
    fn retry_and_failure_events_are_emitted() {
        let rt = rt(2);
        let rx = rt.subscribe();
        rt.task("flaky-fail")
            .writes(&["x"])
            .on_failure(FailurePolicy::RetryBackoff { max_retries: 1, base_ms: 0, cap_ms: 0 })
            .run(|_| Err("always".into()))
            .unwrap();
        assert!(rt.barrier().is_err());
        let events = rx.drain();
        let retried =
            events.iter().filter(|e| matches!(e.kind, EventKind::TaskRetryBackoff { .. })).count();
        assert_eq!(retried, 1);
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::TaskFinished { outcome: TaskOutcome::Failed, .. }
        )));
    }

    #[test]
    fn no_subscriber_bus_stays_inactive() {
        let rt = rt(1);
        rt.task("quiet").writes(&["x"]).run(|_| Ok(vec![Bytes(Vec::new())])).unwrap();
        rt.barrier().unwrap();
        // No receiver was ever attached: the emit fast path must have kept
        // the bus completely idle (no events stamped).
        assert!(!rt.shared.bus.is_active());
        let next = rt.shared.bus.stamp(EventKind::TaskReady { task: 0 });
        assert_eq!(next.seq, 0, "an event was stamped with no subscriber");
    }

    #[test]
    fn backoff_retry_parks_then_succeeds() {
        let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(2).with_seed(42));
        let rx = rt.subscribe();
        let tries = Arc::new(AtomicU32::new(0));
        let t2 = Arc::clone(&tries);
        let h = rt
            .task("flaky")
            .writes(&["x"])
            .on_failure(FailurePolicy::RetryBackoff { max_retries: 3, base_ms: 5, cap_ms: 50 })
            .run(move |_| {
                if t2.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err("transient".into())
                } else {
                    Ok(vec![Bytes::from_u64(7)])
                }
            })
            .unwrap();
        assert_eq!(rt.fetch(&h.outputs[0]).unwrap().as_u64(), Some(7));
        rt.barrier().unwrap();
        assert_eq!(rt.metrics().retries, 2);
        // The backoff delays on the wire are exactly the deterministic
        // jitter for (seed=42, task, attempt).
        let delays: Vec<(u32, u64)> = rx
            .drain()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::TaskRetryBackoff { attempt, delay_ms, .. } => {
                    Some((*attempt, *delay_ms))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            delays,
            vec![
                (1, crate::inject::backoff_delay_ms(42, h.id.0, 1, 5, 50)),
                (2, crate::inject::backoff_delay_ms(42, h.id.0, 2, 5, 50)),
            ]
        );
    }

    #[test]
    fn backoff_exhaustion_fails_fast() {
        let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(2).with_seed(1));
        rt.task("always-bad")
            .writes(&["x"])
            .on_failure(FailurePolicy::RetryBackoff { max_retries: 2, base_ms: 1, cap_ms: 4 })
            .run(|_| Err("permanent".into()))
            .unwrap();
        assert!(rt.barrier().is_err());
        assert_eq!(rt.metrics().retries, 2);
    }

    #[test]
    fn retry_resets_attempt_timing() {
        // Regression: the retry path used to leave `started_us` from the
        // failed attempt in place, so the completed task's span covered
        // attempt 1 + attempt 2, skewing timing_report(). Each attempt
        // must re-stamp.
        let rt = rt(2);
        let tries = Arc::new(AtomicU32::new(0));
        let t2 = Arc::clone(&tries);
        let h = rt
            .task("slow-then-fast")
            .writes(&["x"])
            .on_failure(FailurePolicy::RetryBackoff { max_retries: 1, base_ms: 0, cap_ms: 0 })
            .run(move |_| {
                if t2.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(50));
                    Err("first attempt is slow and fails".into())
                } else {
                    Ok(vec![Bytes::from_u64(1)])
                }
            })
            .unwrap();
        rt.barrier().unwrap();
        let spans = rt.task_spans();
        let span = spans.iter().find(|s| s.task == h.id).expect("span recorded");
        let micros = span.end_us - span.start_us;
        assert!(
            micros < 40_000,
            "span must cover only the final attempt, got {micros}us (>= the 50ms first attempt)"
        );
        let m = rt.metrics();
        let (_, _, d) = m.task_durations.iter().find(|(id, _, _)| *id == h.id).unwrap();
        assert!(*d < Duration::from_millis(40), "duration skewed by failed attempt: {d:?}");
    }

    #[test]
    fn panics_are_contained_and_retried() {
        let rt = rt(2);
        let tries = Arc::new(AtomicU32::new(0));
        let t2 = Arc::clone(&tries);
        let h = rt
            .task("panicky")
            .writes(&["x"])
            .on_failure(FailurePolicy::RetryBackoff { max_retries: 2, base_ms: 0, cap_ms: 0 })
            .run(move |_| {
                if t2.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("organic panic");
                }
                Ok(vec![Bytes::from_u64(11)])
            })
            .unwrap();
        assert_eq!(rt.fetch(&h.outputs[0]).unwrap().as_u64(), Some(11));
        rt.barrier().unwrap();
        assert_eq!(rt.metrics().retries, 1);
    }

    #[test]
    fn shutdown_cancels_pending_work() {
        let rt = rt(1);
        // One long task occupying the single worker, plus queued work.
        rt.task("long")
            .writes(&["a"])
            .run(|_| {
                std::thread::sleep(Duration::from_millis(50));
                Ok(vec![Bytes(Vec::new())])
            })
            .unwrap();
        for _ in 0..5 {
            rt.task("queued").writes(&["b"]).run(|_| Ok(vec![Bytes(Vec::new())])).unwrap();
        }
        rt.shutdown();
        let m = rt.metrics();
        assert!(m.completed <= 2, "most queued tasks should have been cancelled");
    }
}
