//! The persistent pool and its scoped task API.
//!
//! Design: one FIFO of `(scope id, job)` entries. A pool worker takes the
//! oldest job of any scope. A thread waiting in [`Pool::scope`] takes only
//! the jobs of the scope it waits on, so a task body blocked on its own
//! fan-out never runs another caller's job. Queues are short — jobs are
//! coarse-grained kernels, not micro-ops — so a plain `Mutex<VecDeque>`,
//! scanned by waiters for their own jobs, does not show up in profiles;
//! wfbench's `par.task_overhead_ns` keeps that claim honest.
//!
//! Deadlock freedom: every job of a scope is spawned before its waiter
//! starts waiting, and the waiter blocks only once none of them is queued,
//! so every queued job can be run by its own scope's waiter. A running
//! job's nested scopes are waited on, and so drained, by that job's own
//! thread. A scope whose jobs open no scopes therefore finishes, and by
//! induction on nesting depth so does every scope, however far the jobs
//! oversubscribe the workers.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// A lifetime-erased unit of work. Scopes guarantee every job completes
/// before the borrows it captures go out of scope.
type Job = Box<dyn FnOnce() + Send>;

thread_local! {
    /// (pool identity, worker index) when the current thread is a pool
    /// worker; `None` on every other thread.
    static WORKER: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// Per-worker profiling cells (see [`Pool::worker_stats`]). Busy time is
/// accumulated as each job finishes; idle is derived at snapshot time as
/// pool-lifetime minus busy, so parked workers need no bookkeeping.
#[derive(Default)]
struct WorkerStat {
    busy_us: AtomicU64,
    tasks: AtomicU64,
}

/// Snapshot of one worker's profile since pool creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index within the pool.
    pub worker: usize,
    /// Time spent executing jobs, in microseconds.
    pub busy_us: u64,
    /// Time not executing jobs (queue scans, parked), µs.
    pub idle_us: u64,
    /// Always 0: the pool has one queue and nothing to steal from. Kept
    /// only because wfbench's `par.steals` layer metric reads it.
    pub steals: u64,
    /// Jobs this worker executed.
    pub tasks: u64,
}

impl WorkerStats {
    /// Fraction of the pool's lifetime this worker spent executing jobs.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_us + self.idle_us;
        if total == 0 {
            0.0
        } else {
            self.busy_us as f64 / total as f64
        }
    }
}

struct Shared {
    /// Queued (not yet started) jobs, oldest first, each tagged with the
    /// id of the scope that spawned it.
    queue: Mutex<VecDeque<(u64, Job)>>,
    /// Signalled on every push and on shutdown; idle workers park on it.
    work_cv: Condvar,
    shutdown: AtomicBool,
    /// Source of scope ids.
    next_scope: AtomicU64,
    /// Jobs executed so far, by workers and waiting callers alike.
    jobs: AtomicU64,
    /// One profiling cell per worker.
    stats: Vec<WorkerStat>,
    /// Pool creation time; the denominator for idle derivation.
    epoch: Instant,
}

impl Shared {
    /// Identity used to match `WORKER` entries to this pool.
    fn id(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    fn queue(&self) -> MutexGuard<'_, VecDeque<(u64, Job)>> {
        self.queue.lock().expect("pool queue poisoned, yet no job runs under its lock")
    }

    fn push(&self, scope: u64, job: Job) {
        self.queue().push_back((scope, job));
        self.work_cv.notify_one();
    }

    /// The oldest queued job of `scope`, if any.
    fn take_own(&self, scope: u64) -> Option<Job> {
        let mut queue = self.queue();
        let i = queue.iter().position(|(s, _)| *s == scope)?;
        queue.remove(i).map(|(_, job)| job)
    }

    /// Execute one job, attributing its time to `worker` when the
    /// executing thread is one of this pool's workers (waiting caller
    /// threads count in [`Pool::jobs_run`] but not in a worker's profile).
    fn run_job(&self, job: Job, worker: Option<usize>) {
        // Chaos site "par.worker": a stalled (slow) pool worker. Only the
        // Stall fault applies here — pool jobs have no error channel, so
        // harder faults belong to the dataflow task layer above.
        if let Some(obs::chaos::Fault::Stall { millis }) = obs::chaos::fire("par.worker") {
            std::thread::sleep(std::time::Duration::from_millis(millis));
        }
        let t0 = Instant::now();
        job();
        let us = t0.elapsed().as_micros() as u64;
        self.jobs.fetch_add(1, Ordering::Relaxed);
        if let Some(i) = worker {
            self.stats[i].busy_us.fetch_add(us, Ordering::Relaxed);
            self.stats[i].tasks.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn worker_loop(self: Arc<Self>, idx: usize) {
        WORKER.with(|w| w.set(Some((self.id(), idx))));
        let mut queue = self.queue();
        loop {
            if let Some((_, job)) = queue.pop_front() {
                drop(queue);
                self.run_job(job, Some(idx));
                queue = self.queue();
            } else if self.shutdown.load(Ordering::SeqCst) {
                return;
            } else {
                // Woken by a push or by shutdown; the loop re-checks both.
                queue = self.work_cv.wait(queue).expect("pool queue poisoned");
            }
        }
    }
}

/// A persistent pool of worker threads executing scoped tasks from one
/// FIFO. Calling threads are not passive: a thread blocked on a [`Scope`]
/// runs that scope's queued tasks itself, so parallel width is
/// effectively `threads() + concurrent callers`.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// A pool with `threads` workers (clamped to at least 1) named `name`
    /// (their threads are `par-{name}-{i}`).
    pub fn with_name(threads: usize, name: &'static str) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_scope: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            stats: (0..threads).map(|_| WorkerStat::default()).collect(),
            epoch: Instant::now(),
        });
        let handles = (0..threads)
            .map(|i| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("par-{name}-{i}"))
                    .spawn(move || s.worker_loop(i))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.stats.len()
    }

    /// The calling thread's worker index, if it is one of this pool's
    /// workers. Kernels use this for execution-lane attribution.
    pub(crate) fn current_worker(&self) -> Option<usize> {
        match WORKER.with(|w| w.get()) {
            Some((pool, idx)) if pool == self.shared.id() => Some(idx),
            _ => None,
        }
    }

    /// Per-worker busy/idle profile since pool creation. Idle is
    /// derived (lifetime − busy), so a snapshot taken mid-job undercounts
    /// busy by the in-flight job's elapsed time.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        let lifetime_us = self.shared.epoch.elapsed().as_micros() as u64;
        self.shared
            .stats
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let busy_us = s.busy_us.load(Ordering::Relaxed);
                WorkerStats {
                    worker: i,
                    busy_us,
                    idle_us: lifetime_us.saturating_sub(busy_us),
                    steals: 0,
                    tasks: s.tasks.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Jobs executed since pool creation — by its workers and by callers
    /// running their own scope's jobs while they wait, which
    /// [`Pool::worker_stats`] leaves out.
    pub fn jobs_run(&self) -> u64 {
        self.shared.jobs.load(Ordering::Relaxed)
    }

    /// Runs `op` with a [`Scope`] on which tasks borrowing the caller's
    /// stack can be spawned; returns only after every spawned task has
    /// finished. Panics from `op` or any task are propagated (the first
    /// task panic wins over later ones).
    pub fn scope<'scope, OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce(&Scope<'scope>) -> R,
    {
        let state = Arc::new(ScopeState {
            id: self.shared.next_scope.fetch_add(1, Ordering::Relaxed),
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done_mx: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let scope = Scope {
            shared: Arc::clone(&self.shared),
            state: Arc::clone(&state),
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| op(&scope)));
        // Always drain before returning: spawned tasks borrow the
        // caller's stack, so unwinding past them would be unsound.
        self.help_until_done(&state);
        match result {
            Err(p) => resume_unwind(p),
            Ok(r) => {
                if let Some(p) = state.panic.lock().unwrap().take() {
                    resume_unwind(p);
                }
                r
            }
        }
    }

    /// Runs `state`'s queued jobs, then sleeps until the ones running
    /// elsewhere finish. Jobs of other scopes are left to the workers.
    fn help_until_done(&self, state: &ScopeState) {
        let me = self.current_worker();
        while state.pending.load(Ordering::SeqCst) != 0 {
            let Some(job) = self.shared.take_own(state.id) else { break };
            self.shared.run_job(job, me);
        }
        // Every job of the scope was spawned before the wait began, so none
        // is queued any more; the last one to finish notifies.
        let mut g = state.done_mx.lock().expect("scope latch poisoned");
        while state.pending.load(Ordering::SeqCst) != 0 {
            g = state.done_cv.wait(g).expect("scope latch poisoned");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            // Under the queue lock, so a worker between its empty-queue
            // check and its wait cannot miss the wakeup.
            let _q = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

struct ScopeState {
    /// Tags this scope's entries in the pool's queue.
    id: u64,
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done_mx: Mutex<()>,
    done_cv: Condvar,
}

/// Handle for spawning tasks that may borrow data living at least as
/// long as `'scope`. Obtained from [`Pool::scope`], which blocks until
/// all spawned tasks complete.
pub struct Scope<'scope> {
    shared: Arc<Shared>,
    state: Arc<ScopeState>,
    /// Invariant over `'scope` (mirrors `std::thread::Scope`).
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Queues `f` on the pool. The closure may borrow anything that
    /// outlives `'scope`; the surrounding [`Pool::scope`] call will not
    /// return until it has run.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        // Capture the spawning thread's span context so causality
        // survives the hop onto a pool worker: the job re-attaches it
        // and (when someone is tracing) runs under a child span.
        let ctx = obs::trace::current();
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = {
                let _ctx = ctx.map(obs::SpanContext::attach);
                let _span = match ctx {
                    Some(_) if obs::global_active() => Some(obs::trace::span(par_task_name())),
                    _ => None,
                };
                catch_unwind(AssertUnwindSafe(f))
            };
            if let Err(p) = result {
                let mut slot = state.panic.lock().unwrap();
                slot.get_or_insert(p);
            }
            if state.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                let _g = state.done_mx.lock().unwrap();
                state.done_cv.notify_all();
            }
        });
        // SAFETY: `Pool::scope` blocks until `pending` is
        // zero before the borrows captured in `job` can expire, even if
        // the scope closure or another task panics. Erasing the
        // lifetime is therefore sound; this is the same latch argument
        // rayon's scope makes.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        self.shared.push(self.state.id, job);
    }
}

/// Shared name for pool-task spans (avoids an allocation per spawn).
fn par_task_name() -> Arc<str> {
    static NAME: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(NAME.get_or_init(|| Arc::from("par_task")))
}
