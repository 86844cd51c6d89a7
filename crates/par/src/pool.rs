//! The persistent work-stealing pool and its scoped task API.
//!
//! Design: each worker owns a deque (own end popped LIFO for locality,
//! victims stolen FIFO) plus one shared injector queue for tasks
//! submitted from outside the pool. Queues are short — tasks are
//! coarse-grained kernels, not micro-ops — so plain `Mutex<VecDeque>`
//! queues beat a lock-free deque on simplicity without showing up in
//! profiles; wfbench's `par.task_overhead_ns` keeps that claim honest.
//!
//! Deadlock freedom: a thread waiting for a [`Scope`] to drain never
//! parks unconditionally — it *helps*, executing queued tasks (its own
//! or stolen) until the scope's pending count reaches zero. That is what
//! makes nested `scope` calls from inside pool workers safe even
//! when tasks heavily oversubscribe the workers.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

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
    steals: AtomicU64,
    tasks: AtomicU64,
}

/// Snapshot of one worker's profile since pool creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index within the pool.
    pub worker: usize,
    /// Time spent executing jobs, in microseconds.
    pub busy_us: u64,
    /// Time not executing jobs (queue scans, stealing, parked), µs.
    pub idle_us: u64,
    /// Jobs this worker took from a sibling's deque.
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
    /// One local deque per worker.
    locals: Vec<Mutex<VecDeque<Job>>>,
    /// Submission queue for tasks arriving from non-worker threads.
    injector: Mutex<VecDeque<Job>>,
    /// Total queued (not yet started) jobs across all queues; lets
    /// workers park without racing a concurrent push.
    queued: AtomicUsize,
    shutdown: AtomicBool,
    sleep_mx: Mutex<()>,
    sleep_cv: Condvar,
    /// Jobs executed so far, by workers and helping callers alike.
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

    fn push(self: &Arc<Self>, job: Job) {
        let me = WORKER.with(|w| w.get());
        let queue = match me {
            // Nested spawns from a worker of *this* pool stay local.
            Some((pool, idx)) if pool == self.id() => &self.locals[idx],
            _ => &self.injector,
        };
        queue.lock().unwrap().push_back(job);
        self.queued.fetch_add(1, Ordering::SeqCst);
        // Notify under the sleep lock so a worker that just checked
        // `queued` and is about to wait cannot miss the wakeup.
        let _g = self.sleep_mx.lock().unwrap();
        self.sleep_cv.notify_one();
    }

    fn take(&self, queue: &Mutex<VecDeque<Job>>, lifo: bool) -> Option<Job> {
        let mut q = queue.lock().unwrap();
        let job = if lifo { q.pop_back() } else { q.pop_front() };
        if job.is_some() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
        }
        job
    }

    /// Next job for worker `idx`: own deque first (LIFO), then the
    /// injector, then steal from siblings (FIFO), rotating the start
    /// point so victims are spread evenly.
    fn find_job(&self, idx: Option<usize>) -> Option<Job> {
        if self.queued.load(Ordering::SeqCst) == 0 {
            return None;
        }
        if let Some(i) = idx {
            if let Some(j) = self.take(&self.locals[i], true) {
                return Some(j);
            }
        }
        if let Some(j) = self.take(&self.injector, false) {
            return Some(j);
        }
        let n = self.locals.len();
        let start = idx.map(|i| i + 1).unwrap_or(0);
        for k in 0..n {
            let v = (start + k) % n;
            if Some(v) == idx {
                continue;
            }
            if let Some(j) = self.take(&self.locals[v], false) {
                if let Some(i) = idx {
                    self.stats[i].steals.fetch_add(1, Ordering::Relaxed);
                }
                return Some(j);
            }
        }
        None
    }

    /// Execute one job, attributing its time to `worker` when the
    /// executing thread is one of this pool's workers (helping caller
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
        loop {
            if let Some(job) = self.find_job(Some(idx)) {
                self.run_job(job, Some(idx));
                continue;
            }
            let g = self.sleep_mx.lock().unwrap();
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if self.queued.load(Ordering::SeqCst) == 0 {
                // Woken by a push or by shutdown; loop re-checks both.
                drop(self.sleep_cv.wait(g).unwrap());
            }
        }
    }
}

/// A persistent pool of worker threads executing scoped tasks with
/// work stealing. Calling threads are not passive: any thread blocked
/// on a [`Scope`] helps execute queued tasks, so parallel width is
/// effectively `threads() + concurrent callers`.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// A pool with `threads` workers (clamped to at least 1), named
    /// `adhoc`.
    pub fn new(threads: usize) -> Self {
        Self::with_name(threads, "adhoc")
    }

    /// A pool with `threads` workers named `name` (their threads are
    /// `par-{name}-{i}`).
    pub fn with_name(threads: usize, name: &'static str) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            queued: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            sleep_mx: Mutex::new(()),
            sleep_cv: Condvar::new(),
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
        self.shared.locals.len()
    }

    /// The calling thread's worker index, if it is one of this pool's
    /// workers. Kernels use this for execution-lane attribution.
    pub(crate) fn current_worker(&self) -> Option<usize> {
        match WORKER.with(|w| w.get()) {
            Some((pool, idx)) if pool == self.shared.id() => Some(idx),
            _ => None,
        }
    }

    /// Per-worker busy/idle/steal profile since pool creation. Idle is
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
                    steals: s.steals.load(Ordering::Relaxed),
                    tasks: s.tasks.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Jobs executed since pool creation — by its workers and by callers
    /// helping while they wait on a scope, which [`Pool::worker_stats`]
    /// leaves out.
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

    /// Executes queued work until `state.pending` drains to zero.
    fn help_until_done(&self, state: &ScopeState) {
        let me = self.current_worker();
        while state.pending.load(Ordering::SeqCst) != 0 {
            if let Some(job) = self.shared.find_job(me) {
                self.shared.run_job(job, me);
                continue;
            }
            // Nothing stealable right now (tasks are in flight on other
            // workers): sleep briefly on the scope's own condvar, which
            // the final decrement notifies.
            let g = state.done_mx.lock().unwrap();
            if state.pending.load(Ordering::SeqCst) != 0 {
                let _ = state.done_cv.wait_timeout(g, Duration::from_micros(200)).unwrap();
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _g = self.shared.sleep_mx.lock().unwrap();
            self.shared.sleep_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

struct ScopeState {
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
        // SAFETY: `Pool::scope` blocks (helping) until `pending` is
        // zero before the borrows captured in `job` can expire, even if
        // the scope closure or another task panics. Erasing the
        // lifetime is therefore sound; this is the same latch argument
        // rayon's scope makes.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        self.shared.push(job);
    }
}

/// Shared name for pool-task spans (avoids an allocation per spawn).
fn par_task_name() -> Arc<str> {
    static NAME: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(NAME.get_or_init(|| Arc::from("par_task")))
}
