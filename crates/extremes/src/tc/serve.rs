//! Batched CNN inference service: a queue in front of
//! [`TcCnn::localize_set`].
//!
//! Requests (one timestep's native fields plus the analysis grid) queue
//! for a dispatcher that assembles batches under a size/deadline policy
//! (flush at `max_batch` requests or when the oldest request has waited
//! `max_wait`) and fans each batch out on the [`par`] pool against the one
//! model loaded at start-up — inference is `&self`, so the lanes share it.
//! Every timestep runs the same regrid→tile→standardize→infer float path
//! as a direct call, so results are bitwise-identical to it and batch
//! size trades only latency against throughput.
//!
//! The workflow does not route through this service (`climate-wf run`
//! calls the model directly, day-parallel); it is kept for wfbench's
//! `extremes.cnn_service_*` probes.

use super::cnn::{CnnDetection, FieldSet, TcCnn};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// When a batch is flushed: at `max_batch` queued requests, or when the
/// oldest queued request has waited `max_wait`, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    pub max_batch: usize,
    pub max_wait: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_batch: 8, max_wait: Duration::from_millis(2) }
    }
}

/// Occupancy/latency accounting for the batch-size-vs-latency tradeoff.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Batches flushed.
    pub batches: u64,
    /// Requests served.
    pub items: u64,
    /// Total µs the oldest request of each batch sat queued.
    pub wait_us: u64,
}

impl BatchStats {
    /// Mean requests per flushed batch.
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.items as f64 / self.batches as f64
        }
    }
}

type JobResult = Result<Vec<CnnDetection>, String>;

/// One-shot result slot the submitting thread waits on.
struct Slot {
    result: Mutex<Option<JobResult>>,
    ready: Condvar,
}

struct Job {
    /// Native-grid fields; the service regrids onto `grid`.
    set: FieldSet,
    grid: gridded::Grid,
    enqueued: Instant,
    slot: Arc<Slot>,
}

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Inner {
    queue: Mutex<Queue>,
    arrived: Condvar,
    policy: BatchPolicy,
    /// The shared model, or why it could not be loaded (handed to every
    /// request's ticket).
    model: Result<TcCnn, String>,
    batches: AtomicU64,
    items: AtomicU64,
    wait_us: AtomicU64,
}

impl Inner {
    fn process_batch(&self, batch: Vec<Job>) {
        let n = batch.len();
        let wait_us = batch[0].enqueued.elapsed().as_micros() as u64;
        let results: Vec<JobResult> = par::par_map(&batch, |job| {
            let model = self.model.as_ref().map_err(String::clone)?;
            Ok(model.localize_set(&job.set.regrid(&job.grid)))
        });
        // Account before delivering: a waiter may call `stats()` the
        // instant its slot resolves, and must see its own batch counted.
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(n as u64, Ordering::Relaxed);
        self.wait_us.fetch_add(wait_us, Ordering::Relaxed);
        obs::emit(obs::EventKind::InferBatchFlushed {
            batch: n,
            capacity: self.policy.max_batch,
            wait_us,
        });
        for (job, result) in batch.iter().zip(results) {
            *job.slot.result.lock().unwrap() = Some(result);
            job.slot.ready.notify_all();
        }
    }

    fn dispatch_loop(&self) {
        loop {
            let mut q = self.queue.lock().unwrap();
            while q.jobs.is_empty() && !q.shutdown {
                q = self.arrived.wait(q).unwrap();
            }
            if q.jobs.is_empty() {
                return; // shutdown with an empty queue
            }
            // Batch assembly: wait for more arrivals until the size cap
            // or the oldest request's deadline, whichever first. On
            // shutdown, flush immediately — queued requests still finish.
            let deadline = q.jobs[0].enqueued + self.policy.max_wait;
            while q.jobs.len() < self.policy.max_batch && !q.shutdown {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = self.arrived.wait_timeout(q, deadline - now).unwrap();
                q = guard;
            }
            let take = q.jobs.len().min(self.policy.max_batch);
            let batch: Vec<Job> = q.jobs.drain(..take).collect();
            drop(q);
            self.process_batch(batch);
        }
    }
}

/// Pending result of a [`CnnService::submit`].
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the batch containing this request is flushed.
    pub fn wait(self) -> JobResult {
        let mut guard = self.slot.result.lock().unwrap();
        loop {
            if let Some(r) = guard.take() {
                return r;
            }
            guard = self.slot.ready.wait(guard).unwrap();
        }
    }
}

/// Shared batched-inference front end over one trained model file.
pub struct CnnService {
    inner: Arc<Inner>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl CnnService {
    /// Loads the model saved at `model_path` and starts the dispatcher.
    pub fn new(patch: usize, model_path: PathBuf, policy: BatchPolicy) -> Self {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), shutdown: false }),
            arrived: Condvar::new(),
            policy: BatchPolicy { max_batch: policy.max_batch.max(1), ..policy },
            model: TcCnn::load(patch, &model_path)
                .map_err(|e| format!("cnn service: load {model_path:?}: {e:?}")),
            batches: AtomicU64::new(0),
            items: AtomicU64::new(0),
            wait_us: AtomicU64::new(0),
        });
        let worker = Arc::clone(&inner);
        let dispatcher = std::thread::Builder::new()
            .name("cnn-batcher".into())
            .spawn(move || worker.dispatch_loop())
            .expect("spawn cnn dispatcher");
        CnnService { inner, dispatcher: Some(dispatcher) }
    }

    /// Queues one timestep (native fields + target analysis grid) and
    /// returns a ticket for its detections.
    pub fn submit(&self, set: FieldSet, grid: gridded::Grid) -> Ticket {
        let slot = Arc::new(Slot { result: Mutex::new(None), ready: Condvar::new() });
        self.inner.queue.lock().unwrap().jobs.push_back(Job {
            set,
            grid,
            enqueued: Instant::now(),
            slot: Arc::clone(&slot),
        });
        self.inner.arrived.notify_all();
        Ticket { slot }
    }

    /// Accounting so far.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            batches: self.inner.batches.load(Ordering::Relaxed),
            items: self.inner.items.load(Ordering::Relaxed),
            wait_us: self.inner.wait_us.load(Ordering::Relaxed),
        }
    }
}

impl Drop for CnnService {
    fn drop(&mut self) {
        self.inner.queue.lock().unwrap().shutdown = true;
        self.inner.arrived.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridded::{Field2, Grid};

    fn model_file() -> (usize, PathBuf) {
        let dir = std::env::temp_dir().join("extremes-serve");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tc-serve.tml");
        if !path.exists() {
            let mut m = TcCnn::new(16, 7);
            m.train_synthetic(120, 6, 100);
            m.save(&path).unwrap();
        }
        (16, path)
    }

    /// Deterministic pseudo-random fields on a native grid.
    fn field_set(seed: u64, grid: &Grid) -> FieldSet {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut noise = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32 - 0.5
        };
        let mut mk = |scale: f32| {
            let mut f = Field2::constant(grid.clone(), 0.0);
            for v in &mut f.data {
                *v = noise() * scale;
            }
            f
        };
        FieldSet { psl: mk(100.0), wind: mk(10.0), tas: mk(5.0), vort: mk(1.0) }
    }

    #[test]
    fn batched_results_match_direct_inference() {
        let (patch, path) = model_file();
        let native = Grid::global(24, 36);
        let analysis = super::super::cnn::analysis_grid(5.0, patch);
        let service = CnnService::new(
            patch,
            path.clone(),
            BatchPolicy { max_batch: 4, max_wait: Duration::from_millis(50) },
        );
        let sets: Vec<FieldSet> = (0..6).map(|s| field_set(s, &native)).collect();
        // All submits must land before the first wait so the dispatcher can
        // assemble multi-item batches; fusing the iterators would serialize
        // submit/wait pairs and every batch would hold one item.
        #[allow(clippy::needless_collect)]
        let tickets: Vec<Ticket> =
            sets.iter().map(|s| service.submit(s.clone(), analysis.clone())).collect();
        let batched: Vec<Vec<CnnDetection>> =
            tickets.into_iter().map(|t| t.wait().unwrap()).collect();

        let direct_model = TcCnn::load(patch, &path).unwrap();
        for (set, got) in sets.iter().zip(&batched) {
            let want = direct_model.localize_set(&set.regrid(&analysis));
            assert_eq!(want.len(), got.len());
            for (w, g) in want.iter().zip(got) {
                assert_eq!(
                    (w.lat, w.lon, w.confidence, w.tile),
                    (g.lat, g.lon, g.confidence, g.tile)
                );
            }
        }
        let stats = service.stats();
        assert_eq!(stats.items, 6);
        assert!(stats.batches >= 2, "6 items under max_batch=4 need ≥2 batches");
        assert!(stats.mean_occupancy() <= 4.0);
    }

    #[test]
    fn deadline_flushes_a_lone_request() {
        let (patch, path) = model_file();
        let native = Grid::global(24, 36);
        let analysis = super::super::cnn::analysis_grid(5.0, patch);
        let service = CnnService::new(
            patch,
            path,
            BatchPolicy { max_batch: 64, max_wait: Duration::from_millis(5) },
        );
        let t0 = Instant::now();
        let out = service.submit(field_set(9, &native), analysis).wait();
        assert!(out.is_ok());
        assert!(t0.elapsed() < Duration::from_secs(5), "deadline policy must flush");
        let stats = service.stats();
        assert_eq!((stats.batches, stats.items), (1, 1));
    }

    #[test]
    fn missing_model_file_surfaces_as_error() {
        let service =
            CnnService::new(16, PathBuf::from("/nonexistent/model.tml"), BatchPolicy::default());
        let native = Grid::global(24, 36);
        let analysis = super::super::cnn::analysis_grid(5.0, 16);
        let err = service.submit(field_set(1, &native), analysis).wait();
        assert!(err.is_err());
    }
}
