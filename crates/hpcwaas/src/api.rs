//! The HPCWaaS Execution API.
//!
//! "Once the workflow is deployed, it is published to the HPCWaaS
//! Execution API which allows final users to run the deployed workflow as
//! a simple REST invocation" (Section 4.1). This module is that API as a
//! typed, in-process service: workflow developers register a topology and
//! an entrypoint; end users deploy, submit executions, watch or wait on
//! them through an [`ExecutionHandle`], and undeploy — never touching the
//! infrastructure underneath.
//!
//! Submission is a *served* operation, not a thread spawn: every
//! [`ExecutionApi::submit`] (or [`ExecutionApi::submit_as`] for an
//! explicit tenant) passes the admission gates of [`crate::serve`] —
//! per-tenant in-flight quota, token-bucket rate, global queue bound —
//! and, if admitted, waits in a weighted fair-share queue for one of a
//! bounded pool of executor threads. Rejections come back as
//! [`Error::Rejected`] with the typed reason. Identical concurrent
//! requests (same deployment, same merged inputs) are coalesced: one
//! execution runs and every submitter's handle resolves from it.
//!
//! [`DeploymentId`] and [`ExecutionId`] are opaque and unforgeable: each
//! carries a per-API token derived from a process nonce and (for
//! executions) the submitting tenant, so a tenant cannot poll another
//! tenant's execution — or another API instance's — by guessing a ledger
//! index.

use crate::error::{Error, Result};
use crate::orchestrator::{DeploymentRecord, Orchestrator};
use crate::serve::{FairQueue, Rejection, ServeConfig, ServeStats, TenantId, TenantQuota};
use crate::tosca::Topology;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Lifecycle of one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutionStatus {
    /// Admitted and waiting for an executor slot.
    Queued,
    Running,
    Completed {
        result: String,
    },
    Failed {
        message: String,
    },
}

impl ExecutionStatus {
    /// True once the execution reached `Completed` or `Failed`.
    pub fn is_terminal(&self) -> bool {
        matches!(self, ExecutionStatus::Completed { .. } | ExecutionStatus::Failed { .. })
    }
}

/// Entry point a workflow developer registers: receives the merged inputs,
/// returns a result summary or an error message. Shared so executions can
/// run it off-thread.
pub type Entrypoint =
    Arc<dyn Fn(&BTreeMap<String, String>) -> std::result::Result<String, String> + Send + Sync>;

struct RegisteredWorkflow {
    topology: Topology,
    entry: Entrypoint,
}

struct Deployment {
    workflow: String,
    record: DeploymentRecord,
    token: u64,
    active: bool,
}

/// Shared state of one execution: the status cell the executor pool
/// resolves, plus the execution's own event log. Coalesced submissions
/// share one cell under distinct ledger ids.
struct ExecCell {
    /// Primary ledger sequence (the one that actually executes).
    seq: u64,
    tenant: TenantId,
    workflow: Arc<str>,
    status: Mutex<ExecutionStatus>,
    cv: Condvar,
    events: Mutex<Vec<obs::Event>>,
}

impl ExecCell {
    fn record(&self, kind: obs::EventKind) {
        let bus = obs::global();
        self.events.lock().unwrap().push(bus.stamp(kind.clone()));
        bus.emit(kind);
    }
}

/// Identity of a request for coalescing: same deployment + same merged
/// inputs ⇒ same underlying execution while one is in flight.
type CoalesceKey = (usize, String);

fn coalesce_key(dep_index: usize, inputs: &BTreeMap<String, String>) -> CoalesceKey {
    let mut enc = String::new();
    for (k, v) in inputs {
        enc.push_str(k);
        enc.push('\u{1}');
        enc.push_str(v);
        enc.push('\u{2}');
    }
    (dep_index, enc)
}

/// A job admitted into the fair-share queue, waiting for an executor.
struct QueuedJob {
    cell: Arc<ExecCell>,
    entry: Entrypoint,
    inputs: BTreeMap<String, String>,
    key: CoalesceKey,
    /// Submitter's span context: the execution's span is causally linked
    /// to whatever submitted it, across the pool handoff.
    trace_ctx: Option<obs::SpanContext>,
}

struct SchedState {
    queue: FairQueue<QueuedJob>,
    /// In-flight (queued or running) executions by request identity.
    inflight_keys: HashMap<CoalesceKey, Arc<ExecCell>>,
    stats: ServeStats,
    running: usize,
    shutdown: bool,
}

struct Scheduler {
    cfg: ServeConfig,
    state: Mutex<SchedState>,
    work_cv: Condvar,
}

/// Fairness tests read dispatch interleaving from `ServeStats`; the log
/// is capped so long-lived services do not grow it without bound.
const DISPATCH_ORDER_CAP: usize = 65_536;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-API-instance nonce: id tokens from one `ExecutionApi` never
/// validate against another.
fn fresh_nonce() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    splitmix64(t ^ COUNTER.fetch_add(0x9e37_79b9, Ordering::Relaxed).rotate_left(32))
}

/// Opaque deployment handle. Carries an unforgeable token checked on
/// every use; `Display` names it without exposing the token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeploymentId {
    index: usize,
    token: u64,
}

impl std::fmt::Display for DeploymentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dep-{}", self.index)
    }
}

/// Opaque, tenant-scoped execution identifier.
///
/// The token is derived from the API nonce, the ledger sequence and the
/// submitting tenant, so neither another tenant nor another API instance
/// can mint a valid id by guessing sequence numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecutionId {
    seq: u64,
    token: u64,
}

impl std::fmt::Display for ExecutionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exec-{}", self.seq)
    }
}

/// One row of the execution ledger. Coalesced submissions get their own
/// row (own id, own tenant) pointing at the shared cell.
struct LedgerEntry {
    token: u64,
    cell: Arc<ExecCell>,
}

/// Live handle onto a submitted execution.
///
/// Cloneable and detachable: dropping the handle does not cancel the
/// execution, and [`ExecutionApi::status`] keeps answering for its
/// [`ExecutionId`] after every handle is gone.
#[derive(Clone)]
pub struct ExecutionHandle {
    id: ExecutionId,
    cell: Arc<ExecCell>,
}

impl ExecutionHandle {
    /// The ledger id, usable with [`ExecutionApi::status`].
    pub fn id(&self) -> ExecutionId {
        self.id
    }

    /// Name of the workflow this execution runs.
    fn workflow(&self) -> &str {
        &self.cell.workflow
    }

    /// Tenant the underlying execution is charged to.
    pub fn tenant(&self) -> &str {
        self.cell.tenant.as_str()
    }

    /// Non-blocking status poll.
    pub fn status(&self) -> ExecutionStatus {
        self.cell.status.lock().unwrap().clone()
    }

    /// Blocks until the execution reaches a terminal status and returns it.
    pub fn wait(&self) -> ExecutionStatus {
        let mut st = self.cell.status.lock().unwrap();
        while !st.is_terminal() {
            st = self.cell.cv.wait(st).unwrap();
        }
        st.clone()
    }

    /// Blocks up to `timeout`; returns `None` if not terminal by then.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ExecutionStatus> {
        let deadline = Instant::now() + timeout;
        let mut st = self.cell.status.lock().unwrap();
        while !st.is_terminal() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, res) = self.cell.cv.wait_timeout(st, deadline - now).unwrap();
            st = next;
            if res.timed_out() && !st.is_terminal() {
                return None;
            }
        }
        Some(st.clone())
    }

    /// The execution's observability record so far: `ExecutionQueued` on
    /// admission, `ExecutionStarted` at dispatch, `ExecutionFinished`
    /// once terminal, plus an `ExecutionCoalesced` per joined submitter.
    pub fn events(&self) -> Vec<obs::Event> {
        self.cell.events.lock().unwrap().clone()
    }
}

impl std::fmt::Debug for ExecutionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionHandle")
            .field("id", &self.id)
            .field("workflow", &self.workflow())
            .field("tenant", &self.tenant())
            .field("status", &self.status())
            .finish()
    }
}

/// The Execution API service.
pub struct ExecutionApi {
    orchestrator: Mutex<Orchestrator>,
    registry: Mutex<BTreeMap<String, RegisteredWorkflow>>,
    deployments: Mutex<Vec<Deployment>>,
    ledger: Mutex<BTreeMap<u64, LedgerEntry>>,
    next_seq: AtomicU64,
    nonce: u64,
    sched: Arc<Scheduler>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ExecutionApi {
    /// Creates the service with explicit serving limits.
    pub fn with_config(cfg: ServeConfig) -> Self {
        let queue = FairQueue::new(cfg.default_quota, cfg.queue_capacity);
        ExecutionApi {
            orchestrator: Mutex::new(Orchestrator::new()),
            registry: Mutex::new(BTreeMap::new()),
            deployments: Mutex::new(Vec::new()),
            ledger: Mutex::new(BTreeMap::new()),
            next_seq: AtomicU64::new(0),
            nonce: fresh_nonce(),
            sched: Arc::new(Scheduler {
                cfg,
                state: Mutex::new(SchedState {
                    queue,
                    inflight_keys: HashMap::new(),
                    stats: ServeStats::default(),
                    running: 0,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
            }),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Sets (or replaces) one tenant's admission policy.
    pub fn set_quota(&self, tenant: &str, quota: TenantQuota) {
        let mut st = self.sched.state.lock().unwrap();
        st.queue.set_quota(TenantId::new(tenant), quota, Instant::now());
    }

    /// Snapshot of the serving-layer counters.
    pub fn serve_stats(&self) -> ServeStats {
        let st = self.sched.state.lock().unwrap();
        let mut stats = st.stats.clone();
        stats.queue_depth = st.queue.len();
        stats.running = st.running;
        stats
    }

    /// Developer interface: registers (or replaces) a workflow by name.
    pub fn register<F>(&self, topology: Topology, entry: F)
    where
        F: Fn(&BTreeMap<String, String>) -> std::result::Result<String, String>
            + Send
            + Sync
            + 'static,
    {
        self.registry
            .lock()
            .unwrap()
            .insert(topology.name.clone(), RegisteredWorkflow { topology, entry: Arc::new(entry) });
    }

    /// End-user interface: deploys a registered workflow onto the (simulated)
    /// infrastructure. Returns the deployment handle.
    pub fn deploy(&self, workflow: &str) -> Result<DeploymentId> {
        let registry = self.registry.lock().unwrap();
        let wf = registry
            .get(workflow)
            .ok_or_else(|| Error::NotFound(format!("workflow '{workflow}'")))?;
        let record = self.orchestrator.lock().unwrap().deploy(&wf.topology)?;
        let mut deployments = self.deployments.lock().unwrap();
        let index = deployments.len();
        let token = splitmix64(self.nonce ^ index as u64);
        deployments.push(Deployment {
            workflow: workflow.to_string(),
            record,
            token,
            active: true,
        });
        Ok(DeploymentId { index, token })
    }

    fn with_deployment<T>(&self, id: DeploymentId, f: impl FnOnce(&Deployment) -> T) -> Result<T> {
        let deployments = self.deployments.lock().unwrap();
        deployments
            .get(id.index)
            .filter(|d| d.token == id.token)
            .map(f)
            .ok_or_else(|| Error::NotFound(format!("deployment {id}")))
    }

    /// Deployment cost report (virtual ms).
    pub fn deployment_cost_ms(&self, id: DeploymentId) -> Result<u64> {
        self.with_deployment(id, |d| d.record.total_ms)
    }

    fn mint_execution_id(&self, tenant: &TenantId) -> ExecutionId {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let token = splitmix64(seq ^ self.nonce ^ fnv1a(tenant.as_str()));
        ExecutionId { seq, token }
    }

    fn spawn_workers_if_needed(&self) {
        let mut workers = self.workers.lock().unwrap();
        if !workers.is_empty() {
            return;
        }
        for i in 0..self.sched.cfg.workers.max(1) {
            let sched = Arc::clone(&self.sched);
            let handle = std::thread::Builder::new()
                .name(format!("hpcwaas-exec-{i}"))
                .spawn(move || worker_loop(&sched))
                .expect("spawn executor thread");
            workers.push(handle);
        }
    }

    /// End-user interface: submits an execution of a deployed workflow as
    /// the default tenant. See [`ExecutionApi::submit_as`].
    pub fn submit(
        &self,
        id: DeploymentId,
        overrides: &BTreeMap<String, String>,
    ) -> Result<ExecutionHandle> {
        self.submit_as(crate::serve::DEFAULT_TENANT, id, overrides)
    }

    /// Submits an execution on behalf of `tenant`, overriding topology
    /// inputs with `overrides` ("Input arguments can be specified to
    /// configure the workflow").
    ///
    /// The submission passes admission control (per-tenant in-flight
    /// quota, token-bucket rate, global queue bound) and on success waits
    /// in the weighted fair-share queue for the executor pool; the
    /// returned handle polls, waits, or replays the execution's events.
    /// A refusal is [`Error::Rejected`] with the typed [`Rejection`].
    /// If an identical request (same deployment, same merged inputs) is
    /// already in flight, the submission coalesces onto it: no new
    /// execution runs, and the handle resolves when the shared one does.
    pub fn submit_as(
        &self,
        tenant: &str,
        id: DeploymentId,
        overrides: &BTreeMap<String, String>,
    ) -> Result<ExecutionHandle> {
        let (workflow, mut inputs) = self.with_deployment(id, |d| {
            if d.active {
                Ok((d.workflow.clone(), d.record.inputs.clone()))
            } else {
                Err(Error::BadState {
                    entity: format!("deployment {id}"),
                    state: "undeployed".into(),
                    operation: "submit".into(),
                })
            }
        })??;
        for (k, v) in overrides {
            inputs.insert(k.clone(), v.clone());
        }
        let entry = {
            let registry = self.registry.lock().unwrap();
            let wf = registry
                .get(&workflow)
                .ok_or_else(|| Error::NotFound(format!("workflow '{workflow}'")))?;
            Arc::clone(&wf.entry)
        };

        self.spawn_workers_if_needed();

        let tenant = TenantId::new(tenant);
        let workflow: Arc<str> = workflow.into();
        let key = coalesce_key(id.index, &inputs);

        let mut st = self.sched.state.lock().unwrap();
        if let Some(cell) = st.inflight_keys.get(&key) {
            if !cell.status.lock().unwrap().is_terminal() {
                let cell = Arc::clone(cell);
                st.stats.coalesced += 1;
                drop(st);
                let exec_id = self.mint_execution_id(&tenant);
                self.ledger.lock().unwrap().insert(
                    exec_id.seq,
                    LedgerEntry { token: exec_id.token, cell: Arc::clone(&cell) },
                );
                cell.record(obs::EventKind::ExecutionCoalesced {
                    execution: cell.seq,
                    workflow: Arc::clone(&cell.workflow),
                    tenant: tenant.arc(),
                });
                return Ok(ExecutionHandle { id: exec_id, cell });
            }
        }

        let exec_id = self.mint_execution_id(&tenant);
        let cell = Arc::new(ExecCell {
            seq: exec_id.seq,
            tenant: tenant.clone(),
            workflow: Arc::clone(&workflow),
            status: Mutex::new(ExecutionStatus::Queued),
            cv: Condvar::new(),
            events: Mutex::new(Vec::new()),
        });
        let job = QueuedJob {
            cell: Arc::clone(&cell),
            entry,
            inputs,
            key: key.clone(),
            trace_ctx: obs::trace::current(),
        };
        match st.queue.try_enqueue(&tenant, job, Instant::now()) {
            Ok(()) => {
                st.inflight_keys.insert(key, Arc::clone(&cell));
                st.stats.admitted += 1;
                // Logged while the scheduler lock still hides the job from
                // the workers: `Queued` precedes `Started` in every log.
                cell.record(obs::EventKind::ExecutionQueued {
                    execution: exec_id.seq,
                    workflow,
                    tenant: tenant.arc(),
                });
                drop(st);
                self.sched.work_cv.notify_one();
                self.ledger.lock().unwrap().insert(
                    exec_id.seq,
                    LedgerEntry { token: exec_id.token, cell: Arc::clone(&cell) },
                );
                Ok(ExecutionHandle { id: exec_id, cell })
            }
            Err(rejection) => {
                match &rejection {
                    Rejection::QuotaExceeded { .. } => st.stats.rejected_quota += 1,
                    Rejection::RateLimited { .. } => st.stats.rejected_rate += 1,
                    Rejection::QueueFull { .. } => st.stats.rejected_queue_full += 1,
                }
                drop(st);
                obs::global().emit(obs::EventKind::ExecutionRejected {
                    workflow,
                    tenant: tenant.arc(),
                    reason: rejection.label(),
                });
                Err(Error::Rejected(rejection))
            }
        }
    }

    /// Polls an execution's status by ledger id (handle-free view; the
    /// REST-ish surface a remote client would get). The id's embedded
    /// token is verified, so only the holder of the original id — not a
    /// tenant guessing sequence numbers — can observe the execution.
    pub fn status(&self, id: ExecutionId) -> Result<ExecutionStatus> {
        self.ledger
            .lock()
            .unwrap()
            .get(&id.seq)
            .filter(|e| e.token == id.token)
            .map(|e| e.cell.status.lock().unwrap().clone())
            .ok_or_else(|| Error::NotFound(format!("execution {id}")))
    }

    /// End-user interface: undeploys.
    pub fn undeploy(&self, id: DeploymentId) -> Result<()> {
        let mut deployments = self.deployments.lock().unwrap();
        let d = deployments
            .get_mut(id.index)
            .filter(|d| d.token == id.token)
            .ok_or_else(|| Error::NotFound(format!("deployment {id}")))?;
        if !d.active {
            return Err(Error::BadState {
                entity: format!("deployment {id}"),
                state: "undeployed".into(),
                operation: "undeploy".into(),
            });
        }
        d.active = false;
        Ok(())
    }
}

/// Executor-pool worker: dispatch from the fair queue, run the
/// entrypoint, resolve the cell, release the tenant's in-flight slot.
fn worker_loop(sched: &Scheduler) {
    loop {
        let (tenant, job) = {
            let mut st = sched.state.lock().unwrap();
            loop {
                if st.shutdown {
                    // Graceful drain: fail whatever never got a worker so
                    // waiters wake instead of hanging.
                    while let Some((t, job)) = st.queue.pop() {
                        st.queue.complete(&t);
                        st.inflight_keys.remove(&job.key);
                        *job.cell.status.lock().unwrap() = ExecutionStatus::Failed {
                            message: "service shut down before execution".into(),
                        };
                        job.cell.cv.notify_all();
                    }
                    return;
                }
                if let Some((t, job)) = st.queue.pop() {
                    st.running += 1;
                    *st.stats.dispatched.entry(t.to_string()).or_insert(0) += 1;
                    if st.stats.dispatch_order.len() < DISPATCH_ORDER_CAP {
                        st.stats.dispatch_order.push(t.to_string());
                    }
                    break (t, job);
                }
                st = sched.work_cv.wait(st).unwrap();
            }
        };

        let cell = Arc::clone(&job.cell);
        *cell.status.lock().unwrap() = ExecutionStatus::Running;
        cell.record(obs::EventKind::ExecutionStarted {
            execution: cell.seq,
            workflow: Arc::clone(&cell.workflow),
        });

        let (status, ok, micros) = {
            let _ctx = job.trace_ctx.map(obs::SpanContext::attach);
            let _span = obs::global_active().then(|| obs::trace::span(Arc::clone(&cell.workflow)));
            let t0 = Instant::now();
            let outcome = (job.entry)(&job.inputs);
            let micros = t0.elapsed().as_micros() as u64;
            match outcome {
                Ok(result) => (ExecutionStatus::Completed { result }, true, micros),
                Err(message) => (ExecutionStatus::Failed { message }, false, micros),
            }
        };
        // Event before the status flip: anyone who observes a terminal
        // status (even via a spurious wakeup) sees the Finished record.
        cell.record(obs::EventKind::ExecutionFinished {
            execution: cell.seq,
            workflow: Arc::clone(&cell.workflow),
            ok,
            micros,
        });
        // Slot release and status flip in one scheduler-lock section, the
        // release first: a waiter woken by the terminal status finds the
        // execution out of `running` and its tenant's in-flight count, and
        // a submit of the same key either coalesces onto a still-running
        // cell or finds the key retired (lock order scheduler → status, as
        // in `submit`).
        let mut st = sched.state.lock().unwrap();
        st.running -= 1;
        st.queue.complete(&tenant);
        if st.inflight_keys.get(&job.key).is_some_and(|c| Arc::ptr_eq(c, &cell)) {
            st.inflight_keys.remove(&job.key);
        }
        *cell.status.lock().unwrap() = status;
        cell.cv.notify_all();
        drop(st);
    }
}

impl Drop for ExecutionApi {
    /// Graceful shutdown: running executions finish, queued ones fail
    /// with a shutdown message, and the pool joins.
    fn drop(&mut self) {
        {
            let mut st = self.sched.state.lock().unwrap();
            st.shutdown = true;
        }
        self.sched.work_cv.notify_all();
        for handle in self.workers.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

/// The service with default serving limits.
impl Default for ExecutionApi {
    fn default() -> Self {
        Self::with_config(ServeConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tosca::climate_case_study;

    fn api_with_echo() -> ExecutionApi {
        let api = ExecutionApi::default();
        api.register(climate_case_study(), |inputs| {
            if inputs.get("fail").map(|v| v == "yes").unwrap_or(false) {
                Err("requested failure".into())
            } else {
                Ok(format!("ran {} years on {} grid", inputs["years"], inputs["grid"]))
            }
        });
        api
    }

    #[test]
    fn full_lifecycle() {
        let api = api_with_echo();
        let dep = api.deploy("climate-extremes").unwrap();
        assert!(api.deployment_cost_ms(dep).unwrap() > 0);
        let handle = api.submit(dep, &BTreeMap::new()).unwrap();
        match handle.wait() {
            ExecutionStatus::Completed { result } => {
                assert_eq!(result, "ran 1 years on test_small grid");
            }
            other => panic!("unexpected status {other:?}"),
        }
        // The ledger view agrees with the handle view.
        assert_eq!(api.status(handle.id()).unwrap(), handle.status());
        assert_eq!(handle.tenant(), crate::serve::DEFAULT_TENANT);
        api.undeploy(dep).unwrap();
    }

    #[test]
    fn input_overrides_reach_the_entrypoint() {
        let api = api_with_echo();
        let dep = api.deploy("climate-extremes").unwrap();
        let mut over = BTreeMap::new();
        over.insert("years".to_string(), "5".to_string());
        let handle = api.submit(dep, &over).unwrap();
        match handle.wait() {
            ExecutionStatus::Completed { result } => assert!(result.starts_with("ran 5 years")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn failed_entrypoint_reports_failed_status() {
        let api = api_with_echo();
        let dep = api.deploy("climate-extremes").unwrap();
        let mut over = BTreeMap::new();
        over.insert("fail".to_string(), "yes".to_string());
        let handle = api.submit(dep, &over).unwrap();
        assert!(matches!(handle.wait(), ExecutionStatus::Failed { .. }));
        assert!(matches!(api.status(handle.id()).unwrap(), ExecutionStatus::Failed { .. }));
    }

    #[test]
    fn foreign_ids_rejected() {
        let api = api_with_echo();
        assert!(matches!(api.deploy("ghost"), Err(Error::NotFound(_))));
        // Ids minted by a *different* API instance carry the wrong token:
        // same ledger positions, still NotFound here.
        let other = api_with_echo();
        let other_dep = other.deploy("climate-extremes").unwrap();
        let other_exec = other.submit(other_dep, &BTreeMap::new()).unwrap();
        other_exec.wait();
        let own_dep = api.deploy("climate-extremes").unwrap();
        let own_exec = api.submit(own_dep, &BTreeMap::new()).unwrap();
        own_exec.wait();
        assert!(matches!(api.status(other_exec.id()), Err(Error::NotFound(_))));
        assert!(matches!(api.undeploy(other_dep), Err(Error::NotFound(_))));
        assert!(matches!(api.deployment_cost_ms(other_dep), Err(Error::NotFound(_))));
        // The rightful owners still resolve.
        assert!(api.status(own_exec.id()).unwrap().is_terminal());
        api.undeploy(own_dep).unwrap();
    }

    #[test]
    fn ids_are_tenant_scoped() {
        let api = api_with_echo();
        let dep = api.deploy("climate-extremes").unwrap();
        let mut a_inputs = BTreeMap::new();
        a_inputs.insert("years".to_string(), "2".to_string());
        let a = api.submit_as("alice", dep, &a_inputs).unwrap();
        let mut b_inputs = BTreeMap::new();
        b_inputs.insert("years".to_string(), "3".to_string());
        let b = api.submit_as("bob", dep, &b_inputs).unwrap();
        a.wait();
        b.wait();
        assert_eq!(a.tenant(), "alice");
        assert_eq!(b.tenant(), "bob");
        assert_ne!(a.id(), b.id());
        // Each token only opens its own execution; a token recombined
        // with the other's sequence is rejected.
        let forged = ExecutionId { seq: b.id().seq, token: a.id().token };
        assert!(matches!(api.status(forged), Err(Error::NotFound(_))));
        assert!(api.status(a.id()).unwrap().is_terminal());
    }

    #[test]
    fn display_names_ids_without_tokens() {
        let api = api_with_echo();
        let dep = api.deploy("climate-extremes").unwrap();
        assert_eq!(dep.to_string(), "dep-0");
        let handle = api.submit(dep, &BTreeMap::new()).unwrap();
        assert!(handle.id().to_string().starts_with("exec-"));
        handle.wait();
    }

    #[test]
    fn run_after_undeploy_rejected() {
        let api = api_with_echo();
        let dep = api.deploy("climate-extremes").unwrap();
        api.undeploy(dep).unwrap();
        assert!(matches!(api.submit(dep, &BTreeMap::new()), Err(Error::BadState { .. })));
        assert!(matches!(api.undeploy(dep), Err(Error::BadState { .. })));
    }

    #[test]
    fn multiple_deployments_coexist() {
        let api = api_with_echo();
        let a = api.deploy("climate-extremes").unwrap();
        let b = api.deploy("climate-extremes").unwrap();
        assert_ne!(a, b);
        // Second deployment benefits from the shared image layer cache.
        assert!(api.deployment_cost_ms(b).unwrap() < api.deployment_cost_ms(a).unwrap());
        api.undeploy(a).unwrap();
        // b still runnable.
        assert!(api.submit(b, &BTreeMap::new()).unwrap().wait().is_terminal());
    }

    #[test]
    fn handle_records_execution_events() {
        let api = api_with_echo();
        let dep = api.deploy("climate-extremes").unwrap();
        let handle = api.submit(dep, &BTreeMap::new()).unwrap();
        handle.wait();
        let events = handle.events();
        assert_eq!(events.len(), 3, "queued, started, finished");
        assert!(matches!(
            &events[0].kind,
            obs::EventKind::ExecutionQueued { workflow, tenant, .. }
                if &**workflow == "climate-extremes" && &**tenant == "default"
        ));
        assert!(matches!(
            &events[1].kind,
            obs::EventKind::ExecutionStarted { workflow, .. }
                if &**workflow == "climate-extremes"
        ));
        assert!(matches!(&events[2].kind, obs::EventKind::ExecutionFinished { ok: true, .. }));
    }

    /// `ExecutionQueued` is logged before any worker can see the job, so a
    /// worker that is already awake (spinning submitters keep the pool hot)
    /// can never log `ExecutionStarted` ahead of it.
    #[test]
    fn queued_is_recorded_before_a_waiting_worker_starts() {
        let api = api_with_echo();
        let dep = api.deploy("climate-extremes").unwrap();
        std::thread::scope(|s| {
            for t in 0..2 {
                let api = &api;
                s.spawn(move || {
                    for i in 0..100 {
                        // Distinct inputs: nothing coalesces, every submit runs.
                        let inputs = BTreeMap::from([("req".to_string(), format!("{t}-{i}"))]);
                        let handle = api.submit(dep, &inputs).unwrap();
                        while !handle.status().is_terminal() {
                            std::hint::spin_loop();
                        }
                        let events = handle.events();
                        assert!(
                            matches!(events[0].kind, obs::EventKind::ExecutionQueued { .. })
                                && matches!(
                                    events[1].kind,
                                    obs::EventKind::ExecutionStarted { .. }
                                ),
                            "submit {t}-{i} logged {:?} then {:?}",
                            events[0].kind,
                            events[1].kind
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn wait_timeout_expires_while_running() {
        let api = ExecutionApi::default();
        api.register(climate_case_study(), |_| {
            std::thread::sleep(Duration::from_millis(200));
            Ok("slow".into())
        });
        let dep = api.deploy("climate-extremes").unwrap();
        let handle = api.submit(dep, &BTreeMap::new()).unwrap();
        assert!(handle.wait_timeout(Duration::from_millis(1)).is_none());
        assert_eq!(handle.wait(), ExecutionStatus::Completed { result: "slow".into() });
        assert!(handle.wait_timeout(Duration::from_millis(1)).is_some());
    }

    #[test]
    fn serve_stats_count_admissions() {
        let api = api_with_echo();
        let dep = api.deploy("climate-extremes").unwrap();
        let mut handles = Vec::new();
        for i in 0..4 {
            let mut over = BTreeMap::new();
            over.insert("years".to_string(), i.to_string());
            handles.push(api.submit(dep, &over).unwrap());
        }
        for h in &handles {
            assert!(h.wait().is_terminal());
        }
        let stats = api.serve_stats();
        assert_eq!(stats.admitted, 4);
        assert_eq!(stats.rejected(), 0);
        assert_eq!(stats.dispatched.get("default"), Some(&4));
        assert_eq!(stats.queue_depth, 0);
    }
}
