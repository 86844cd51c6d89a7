//! Counting-allocator harness for allocation benchmarking.
//!
//! With the `count-alloc` feature enabled, a `#[global_allocator]` wrapper
//! around the system allocator counts every allocation (and realloc) and the
//! bytes requested, process-wide — pool worker threads included. The counters
//! are two relaxed atomics per allocation, cheap enough that wall-clock
//! numbers from counted runs stay comparable. Without the feature the system
//! allocator is untouched and [`stats`] reports zeros.
//!
//! `c4_fragment_scaling` prints the per-stage deltas when built with the
//! feature on; peak memory of a whole run is `peak_rss_mb` of
//! `benchmark/run.sh`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// System-allocator wrapper that counts allocations and requested bytes.
pub struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the counters do
// not affect allocator behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing realloc requests `new_size` fresh bytes in the worst
        // case; counting the full new size makes incremental Vec growth
        // visible instead of free.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(feature = "count-alloc")]
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Whether the counting allocator is compiled in.
pub fn counting_enabled() -> bool {
    cfg!(feature = "count-alloc")
}

/// Cumulative allocation counters since process start (zeros when the
/// `count-alloc` feature is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    pub allocs: u64,
    pub bytes: u64,
}

impl std::ops::Sub for AllocStats {
    type Output = AllocStats;
    fn sub(self, rhs: AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs.saturating_sub(rhs.allocs),
            bytes: self.bytes.saturating_sub(rhs.bytes),
        }
    }
}

/// Current counter snapshot.
pub fn stats() -> AllocStats {
    AllocStats { allocs: ALLOCS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
}

/// Runs `f` and returns its result together with the allocation delta it
/// caused (process-wide, so run measured sections without concurrent noise).
pub fn measured<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    let before = stats();
    let out = f();
    (out, stats() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_reports_vec_allocation() {
        let (v, delta) = measured(|| vec![0u8; 1 << 16]);
        assert_eq!(v.len(), 1 << 16);
        if counting_enabled() {
            assert!(delta.allocs >= 1);
            assert!(delta.bytes >= 1 << 16, "counted {} bytes", delta.bytes);
        } else {
            assert_eq!(delta, AllocStats::default());
        }
    }

    #[test]
    fn stats_are_monotonic() {
        let a = stats();
        std::hint::black_box(vec![1u64; 512]);
        let b = stats();
        assert!(b.allocs >= a.allocs && b.bytes >= a.bytes);
    }
}
