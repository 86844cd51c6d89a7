//! Shared cross-tenant cube cache: "load the baseline once, reuse it all
//! workflow long" — extended across *users*.
//!
//! A [`CubeCache`] keys immutable [`Cube`]s (the zero-copy `SharedData`
//! plane makes clones shallow) by a deterministic string describing what
//! produced them. [`CubeCache::get_or_load`] is single-flight: the first
//! caller for a key runs the loader while concurrent callers for the
//! same key block and share the result, so N tenants asking for the same
//! baseline pay one materialisation.
//!
//! Entries are ref-counted `Arc<Cube>`s under an LRU byte budget. An
//! entry whose `Arc` is still held outside the cache is *pinned* —
//! eviction skips it, because dropping the map entry would not free the
//! bytes anyway, just destroy reuse. Only entries nobody else holds are
//! evicted, oldest-use first, until the budget is met.

use crate::error::{Error, Result};
use crate::model::Cube;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Byte budget of the process-wide cache, in MB.
const GLOBAL_BUDGET_MB: usize = 512;

/// One cache slot.
enum Slot {
    /// A loader is materialising this key; joiners wait on the condvar.
    Pending,
    /// Materialised and resident.
    Ready { cube: Arc<Cube>, bytes: usize, last_used: u64 },
    /// The last load failed; kept so joiners can read the message, and
    /// treated as absent (retried) by the next fresh lookup.
    Failed(String),
}

#[derive(Default)]
struct CacheState {
    slots: HashMap<String, Slot>,
    /// Monotonic use counter; `Ready.last_used` orders LRU eviction.
    tick: u64,
    resident_bytes: usize,
    stats: CacheStats,
}

/// Snapshot of cache counters (see [`CubeCache::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a resident entry.
    pub hits: u64,
    /// Lookups that joined an in-flight load by another caller.
    pub joins: u64,
    /// Lookups that ran the loader.
    pub misses: u64,
    /// Entries evicted to fit the byte budget.
    pub evictions: u64,
    /// Loader invocations that returned an error.
    pub load_failures: u64,
    /// Resident entries right now.
    pub entries: usize,
    /// Bytes resident right now.
    pub resident_bytes: usize,
    /// Configured byte budget.
    pub budget_bytes: usize,
}

impl CacheStats {
    /// All lookups, however they were answered.
    pub fn lookups(&self) -> u64 {
        self.hits + self.joins + self.misses
    }
}

/// Ref-counted, byte-budgeted, single-flight cube cache.
pub struct CubeCache {
    state: Mutex<CacheState>,
    cv: Condvar,
    budget_bytes: usize,
}

impl CubeCache {
    /// Creates a cache that evicts LRU entries beyond `budget_bytes`.
    pub fn new(budget_bytes: usize) -> Self {
        CubeCache { state: Mutex::new(CacheState::default()), cv: Condvar::new(), budget_bytes }
    }

    /// The process-wide cache shared by every workflow in this process,
    /// with a fixed 512 MB budget.
    pub fn global() -> &'static CubeCache {
        static GLOBAL: OnceLock<CubeCache> = OnceLock::new();
        GLOBAL.get_or_init(|| CubeCache::new(GLOBAL_BUDGET_MB << 20))
    }

    /// Returns the cube for `key`, running `load` only if no resident or
    /// in-flight entry exists. Concurrent callers for the same key block
    /// and share one load. A loader error propagates to the running
    /// caller as-is and to joiners as [`Error::CacheLoad`]; failures are
    /// not cached — the next lookup retries.
    pub fn get_or_load<F>(&self, key: &str, load: F) -> Result<Arc<Cube>>
    where
        F: FnOnce() -> Result<Cube>,
    {
        enum Action {
            Hit(Arc<Cube>),
            Wait,
            JoinedFailure(String),
            StartLoad,
        }
        let mut st = self.state.lock().unwrap();
        let mut joined = false;
        loop {
            let action = match st.slots.get(key) {
                Some(Slot::Ready { cube, .. }) => Action::Hit(Arc::clone(cube)),
                Some(Slot::Pending) => Action::Wait,
                Some(Slot::Failed(message)) if joined => Action::JoinedFailure(message.clone()),
                // Stale failure from an earlier attempt: retry.
                Some(Slot::Failed(_)) | None => Action::StartLoad,
            };
            match action {
                Action::Hit(cube) => {
                    st.tick += 1;
                    let tick = st.tick;
                    if let Some(Slot::Ready { last_used, .. }) = st.slots.get_mut(key) {
                        *last_used = tick;
                    }
                    if joined {
                        st.stats.joins += 1;
                    } else {
                        st.stats.hits += 1;
                    }
                    return Ok(cube);
                }
                Action::Wait => {
                    joined = true;
                    st = self.cv.wait(st).unwrap();
                }
                Action::JoinedFailure(message) => {
                    // The load we were waiting on failed.
                    st.stats.joins += 1;
                    return Err(Error::CacheLoad { key: key.into(), message });
                }
                Action::StartLoad => {
                    st.slots.insert(key.to_string(), Slot::Pending);
                    break;
                }
            }
        }
        drop(st);

        let loaded = load();

        let mut st = self.state.lock().unwrap();
        let out = match loaded {
            Ok(cube) => {
                let bytes = cube.bytes();
                let cube = Arc::new(cube);
                st.tick += 1;
                let last_used = st.tick;
                st.slots.insert(
                    key.to_string(),
                    Slot::Ready { cube: Arc::clone(&cube), bytes, last_used },
                );
                st.resident_bytes += bytes;
                st.stats.misses += 1;
                Self::evict_to_budget(&mut st, self.budget_bytes, key);
                Ok(cube)
            }
            Err(e) => {
                st.slots.insert(key.to_string(), Slot::Failed(e.to_string()));
                st.stats.misses += 1;
                st.stats.load_failures += 1;
                Err(e)
            }
        };
        self.cv.notify_all();
        out
    }

    /// Evicts unpinned entries, oldest use first, until resident bytes
    /// fit the budget. `protect` (the just-inserted key) is never the
    /// victim, so a single over-budget cube still caches. Entries whose
    /// `Arc` is held outside the cache are pinned and skipped.
    fn evict_to_budget(st: &mut CacheState, budget: usize, protect: &str) {
        while st.resident_bytes > budget {
            let victim = st
                .slots
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready { cube, last_used, .. }
                        if k != protect && Arc::strong_count(cube) == 1 =>
                    {
                        Some((*last_used, k.clone()))
                    }
                    _ => None,
                })
                .min_by_key(|(last_used, _)| *last_used)
                .map(|(_, k)| k);
            let Some(k) = victim else { break };
            if let Some(Slot::Ready { bytes, .. }) = st.slots.remove(&k) {
                st.resident_bytes -= bytes;
                st.stats.evictions += 1;
            }
        }
    }

    /// Counter snapshot, with residency filled in.
    pub fn stats(&self) -> CacheStats {
        let st = self.state.lock().unwrap();
        let mut stats = st.stats.clone();
        stats.entries = st.slots.values().filter(|s| matches!(s, Slot::Ready { .. })).count();
        stats.resident_bytes = st.resident_bytes;
        stats.budget_bytes = self.budget_bytes;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Dimension;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// A dense rows×4 cube of `rows * 4 * 4` payload bytes.
    fn cube(rows: usize, fill: f32) -> Cube {
        let lat = Dimension::explicit("lat", (0..rows).map(|i| i as f64).collect::<Vec<_>>());
        let time = Dimension::implicit("time", vec![0.0, 1.0, 2.0, 3.0]);
        Cube::from_dense("t", vec![lat, time], vec![fill; rows * 4], 1, 1).unwrap()
    }

    #[test]
    fn hit_after_miss_and_stats() {
        let cache = CubeCache::new(1 << 20);
        let a = cache.get_or_load("k", || Ok(cube(8, 1.0))).unwrap();
        let b = cache.get_or_load("k", || panic!("must not reload")).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.joins), (1, 1, 0));
        assert_eq!(stats.entries, 1);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn concurrent_identical_loads_are_single_flight() {
        let cache = Arc::new(CubeCache::new(1 << 20));
        let loads = Arc::new(AtomicU64::new(0));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let loads = Arc::clone(&loads);
            joins.push(std::thread::spawn(move || {
                cache
                    .get_or_load("baseline", || {
                        loads.fetch_add(1, Ordering::SeqCst);
                        // Long enough that the other threads arrive
                        // while the load is in flight.
                        std::thread::sleep(Duration::from_millis(50));
                        Ok(cube(8, 2.0))
                    })
                    .unwrap()
            }));
        }
        let cubes: Vec<Arc<Cube>> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        assert_eq!(loads.load(Ordering::SeqCst), 1, "one materialisation for 4 callers");
        for c in &cubes[1..] {
            assert!(Arc::ptr_eq(&cubes[0], c));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.joins, 3);
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let one = cube(8, 0.0).bytes();
        // Budget fits two cubes, not three.
        let cache = CubeCache::new(2 * one + one / 2);
        cache.get_or_load("a", || Ok(cube(8, 1.0))).unwrap();
        cache.get_or_load("b", || Ok(cube(8, 2.0))).unwrap();
        // Touch "a" so "b" is the least recently used.
        cache.get_or_load("a", || panic!("resident")).unwrap();
        cache.get_or_load("c", || Ok(cube(8, 3.0))).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.resident_bytes <= 2 * one + one / 2);
        // "b" was evicted; "a" survived.
        let mut reloaded = false;
        cache
            .get_or_load("a", || {
                reloaded = true;
                Ok(cube(8, 1.0))
            })
            .unwrap();
        assert!(!reloaded, "recently-used entry must survive eviction");
    }

    #[test]
    fn pinned_entries_are_not_evicted() {
        let one = cube(8, 0.0).bytes();
        let cache = CubeCache::new(one + one / 2);
        // Hold the Arc: the entry is pinned.
        let pinned = cache.get_or_load("pinned", || Ok(cube(8, 1.0))).unwrap();
        cache.get_or_load("other", || Ok(cube(8, 2.0))).unwrap();
        let stats = cache.stats();
        // Over budget, but the only eviction candidate was "other"'s
        // protection or "pinned"'s refcount — "pinned" must remain.
        let again = cache.get_or_load("pinned", || panic!("pinned entry evicted")).unwrap();
        assert!(Arc::ptr_eq(&pinned, &again));
        assert!(stats.resident_bytes >= one);
    }

    #[test]
    fn failed_loads_propagate_and_are_retried() {
        let cache = CubeCache::new(1 << 20);
        let err =
            cache.get_or_load("bad", || Err(Error::BadImport("no such field".into()))).unwrap_err();
        assert!(matches!(err, Error::BadImport(_)));
        // The failure is not cached: the next lookup retries and succeeds.
        let ok = cache.get_or_load("bad", || Ok(cube(4, 1.0))).unwrap();
        assert_eq!(ok.rows(), 4);
        let stats = cache.stats();
        assert_eq!(stats.load_failures, 1);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn global_cache_is_shared_and_env_tunable() {
        let g1 = CubeCache::global();
        let g2 = CubeCache::global();
        assert!(std::ptr::eq(g1, g2));
        assert!(g1.stats().budget_bytes > 0);
    }
}
