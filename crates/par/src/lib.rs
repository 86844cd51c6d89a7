//! Unified compute pool — the one parallel substrate for every compute
//! crate in the workspace.
//!
//! The paper's performance story is parallelism at every layer: Ophidia
//! fans analytics out over I/O servers (§4.2.2) while PyCOMPSs overlaps
//! simulation and analysis (§5.1). Before this crate each layer brought
//! its own threading idiom (per-call `thread::scope` in the datacube,
//! nothing at all in the CNN / regridding / index kernels). `par` gives
//! them one persistent substrate:
//!
//! - a process-global pool ([`global`]) sized from
//!   `available_parallelism`, overridable with `PAR_THREADS`;
//! - chunked primitives — [`par_map`] and [`par_chunks_mut`] — with
//!   **deterministic output ordering** whichever thread runs a chunk
//!   (slot `i` always holds `f(items[i])`);
//! - [`Pool::par_map_lanes`]: a width-bounded, dynamically
//!   self-scheduling map modelling the paper's I/O-server lanes — at most
//!   `width` lane tasks, each claiming the next unprocessed item, so one
//!   slow item never idles a statically dealt stripe;
//! - [`scope`] / [`Pool::scope`] for fork/join with borrows, safe to
//!   nest from inside pool workers (a blocked thread runs its own
//!   scope's queued jobs, never another scope's);
//! - a per-worker busy/idle profile ([`Pool::worker_stats`]) and
//!   a pool-wide job count ([`Pool::jobs_run`]), kept as plain atomics.
//!
//! Layering is strict: `obs` → `par` → everything else.

mod pool;

pub use pool::{Pool, Scope, WorkerStats};

use std::mem::{ManuallyDrop, MaybeUninit};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Environment variable overriding the global pool's worker count.
pub const THREADS_ENV: &str = "PAR_THREADS";

/// The process-global pool, created on first use with
/// `available_parallelism` workers (or `PAR_THREADS` when set to a
/// positive integer). Shared by every compute crate so the process has
/// one set of worker threads, not one per subsystem.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
        Pool::with_name(threads, "global")
    })
}

/// `f` over every item, on the global pool. Output order matches input
/// order. See [`Pool::par_map`].
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    global().par_map(items, f)
}

/// `f(chunk_index, chunk)` over disjoint mutable `chunk`-sized pieces
/// of `data`, on the global pool.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    global().par_chunks_mut(data, chunk, f)
}

/// Scoped spawning on the global pool.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R,
{
    global().scope(op)
}

/// A raw pointer into a result buffer that many tasks write disjoint
/// slots of. `Copy` so every spawned closure can capture it by value.
struct Slots<R>(*mut MaybeUninit<R>);

impl<R> Clone for Slots<R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R> Copy for Slots<R> {}

// SAFETY: the pointer is only ever used to write slot `i` from the one
// task that owns index `i`; the owning Vec outlives the scope.
unsafe impl<R: Send> Send for Slots<R> {}
unsafe impl<R: Send> Sync for Slots<R> {}

impl<R> Slots<R> {
    /// # Safety
    /// Each index must be written by exactly one task, and all writes
    /// must complete (scope drained) before the buffer is assumed
    /// initialized.
    unsafe fn write(self, i: usize, v: R) {
        self.0.add(i).write(MaybeUninit::new(v));
    }
}

/// Assumes all `n` slots were initialized and converts the buffer.
///
/// # Safety
/// Every element of `buf` must have been written.
unsafe fn assume_init_vec<R>(buf: Vec<MaybeUninit<R>>) -> Vec<R> {
    let mut buf = ManuallyDrop::new(buf);
    let (ptr, len, cap) = (buf.as_mut_ptr(), buf.len(), buf.capacity());
    Vec::from_raw_parts(ptr as *mut R, len, cap)
}

fn uninit_buf<R>(n: usize) -> Vec<MaybeUninit<R>> {
    let mut buf = Vec::with_capacity(n);
    buf.resize_with(n, MaybeUninit::uninit);
    buf
}

impl Pool {
    /// `f` over every item; the result at index `i` is `f(&items[i])`
    /// no matter which worker computed it. Items are dealt to tasks in
    /// contiguous chunks sized for ~4 tasks per worker, so a worker that
    /// finishes early takes another chunk without drowning in per-item
    /// dispatch.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        if n <= 1 || self.threads() == 1 {
            return items.iter().map(f).collect();
        }
        let chunk = n.div_ceil(self.threads() * 4).max(1);
        let mut out = uninit_buf::<R>(n);
        let slots = Slots(out.as_mut_ptr());
        let f = &f;
        self.scope(|s| {
            let mut start = 0;
            while start < n {
                let end = (start + chunk).min(n);
                s.spawn(move || {
                    for (k, item) in items[start..end].iter().enumerate() {
                        let i = start + k;
                        // SAFETY: this task owns exactly [start, end).
                        unsafe { slots.write(i, f(item)) };
                    }
                });
                start = end;
            }
        });
        // SAFETY: the chunks above cover 0..n exactly once and the
        // scope has drained.
        unsafe { assume_init_vec(out) }
    }

    /// Width-bounded, dynamically self-scheduling map: at most `width`
    /// lane tasks run, each repeatedly claiming the next unclaimed item
    /// — so a slow item stalls only its own lane while the remaining
    /// lanes drain the rest. `f(lane, index, item)`; output order
    /// matches input order. This models the paper's Ophidia I/O-server
    /// fan-out (§4.2.2): `width` is the configured server count, the
    /// lane is the logical server that actually executed the fragment.
    pub fn par_map_lanes<T, R, F>(&self, width: usize, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, usize, &T) -> R + Sync,
    {
        let n = items.len();
        let width = width.min(n).max(1);
        if n == 0 {
            return Vec::new();
        }
        if width == 1 {
            return items.iter().enumerate().map(|(i, t)| f(0, i, t)).collect();
        }
        let next = AtomicUsize::new(0);
        let mut out = uninit_buf::<R>(n);
        let slots = Slots(out.as_mut_ptr());
        let (f, next) = (&f, &next);
        self.scope(|s| {
            for lane in 0..width {
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // SAFETY: fetch_add hands out each index once.
                    unsafe { slots.write(i, f(lane, i, &items[i])) };
                });
            }
        });
        // SAFETY: indices 0..n each claimed exactly once; scope drained.
        unsafe { assume_init_vec(out) }
    }

    /// `f(chunk_index, chunk)` over disjoint mutable `chunk`-sized
    /// pieces of `data`. Disjointness comes from `chunks_mut`, so no
    /// locking and no unsafe at the call site.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk = chunk.max(1);
        if data.len() <= chunk || self.threads() == 1 {
            for (i, c) in data.chunks_mut(chunk).enumerate() {
                f(i, c);
            }
            return;
        }
        let f = &f;
        self.scope(|s| {
            for (i, c) in data.chunks_mut(chunk).enumerate() {
                s.spawn(move || f(i, c));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn par_map_preserves_order() {
        let pool = Pool::with_name(4, "adhoc");
        let items: Vec<u64> = (0..1000).collect();
        let out = pool.par_map(&items, |&x| x * 2 + 1);
        assert_eq!(out, items.iter().map(|&x| x * 2 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_on_one_thread_matches_serial() {
        let pool = Pool::with_name(1, "adhoc");
        let items: Vec<i32> = (-50..50).collect();
        assert_eq!(
            pool.par_map(&items, |&x| x * x),
            items.iter().map(|&x| x * x).collect::<Vec<_>>()
        );
    }

    #[test]
    fn par_map_empty_and_singleton() {
        let pool = Pool::with_name(3, "adhoc");
        assert_eq!(pool.par_map(&[] as &[u8], |&b| b), Vec::<u8>::new());
        assert_eq!(pool.par_map(&[7u8], |&b| b + 1), vec![8]);
    }

    #[test]
    fn par_map_lanes_order_independent_of_lane_timing() {
        let pool = Pool::with_name(4, "adhoc");
        let items: Vec<usize> = (0..64).collect();
        let out = pool.par_map_lanes(4, &items, |lane, i, &x| {
            if x % 7 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            assert!(lane < 4);
            (i, x * 10)
        });
        for (i, &(idx, v)) in out.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(v, i * 10);
        }
    }

    #[test]
    fn par_map_lanes_width_clamps() {
        let pool = Pool::with_name(2, "adhoc");
        let items = vec![1u32, 2, 3];
        // Width larger than item count and zero width both behave.
        assert_eq!(pool.par_map_lanes(100, &items, |_, _, &x| x + 1), vec![2, 3, 4]);
        assert_eq!(pool.par_map_lanes(0, &items, |_, _, &x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_pieces() {
        let pool = Pool::with_name(4, "adhoc");
        let mut data = vec![0u64; 103];
        pool.par_chunks_mut(&mut data, 10, |ci, c| {
            for (k, v) in c.iter_mut().enumerate() {
                *v = (ci * 10 + k) as u64;
            }
        });
        assert_eq!(data, (0..103).collect::<Vec<u64>>());
    }

    #[test]
    fn nested_scopes_from_workers_make_progress() {
        // Recursive fork/join fanning far past the worker count: each
        // level spawns one half and runs the other on its own thread.
        fn sum(pool: &Pool, lo: u64, hi: u64) -> u64 {
            if hi - lo <= 8 {
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let mut b = 0;
            let a = pool.scope(|s| {
                s.spawn(|| b = sum(pool, mid, hi));
                sum(pool, lo, mid)
            });
            a + b
        }
        let pool = Pool::with_name(2, "adhoc");
        assert_eq!(sum(&pool, 0, 1000), 499_500);
    }

    #[test]
    fn scope_runs_every_spawn() {
        let pool = Pool::with_name(3, "adhoc");
        let hits = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn task_panic_propagates_after_drain() {
        let pool = Pool::with_name(2, "adhoc");
        let ran = AtomicU64::new(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
                for _ in 0..9 {
                    s.spawn(|| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(r.is_err());
        // Every non-panicking sibling still ran to completion.
        assert_eq!(ran.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let p1 = global() as *const Pool;
        let p2 = global() as *const Pool;
        assert_eq!(p1, p2);
        assert!(global().threads() >= 1);
    }

    #[test]
    fn current_worker_is_none_off_pool_and_some_on_pool() {
        let pool = Pool::with_name(2, "adhoc");
        assert!(pool.current_worker().is_none());
        let seen = pool.par_map_lanes(2, &[0u8; 16], |_, _, _| pool.current_worker());
        // Tasks may also run on the waiting caller thread (None), but
        // any Some(w) must be a valid worker index.
        for w in seen.into_iter().flatten() {
            assert!(w < 2);
        }
    }
}
