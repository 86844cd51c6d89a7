//! Oversubscription: far more tasks than workers, nested fork/join from
//! inside pool tasks, and scopes opened concurrently from many external
//! threads. None of it may deadlock — a blocked thread must run its own
//! scope's queued jobs — and no waiting thread may run another scope's
//! job. The whole file runs under a hard watchdog so a scheduling bug
//! fails fast instead of hanging CI.

use par::Pool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fails the test if `f` does not finish within `secs`.
fn watchdog<F: FnOnce() + Send + 'static>(secs: u64, f: F) {
    let (tx, rx) = std::sync::mpsc::channel();
    let h = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(secs)).expect("deadlock: pool did not make progress");
    h.join().unwrap();
}

#[test]
fn many_more_tasks_than_workers() {
    watchdog(30, || {
        let pool = Pool::with_name(2, "adhoc");
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..5_000 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 5_000);
    });
}

#[test]
fn deeply_nested_join_on_tiny_pool() {
    watchdog(30, || {
        // 1 worker + waiting callers: every nested scope blocks a thread
        // that must keep executing its own queued tasks for the recursion
        // to finish. Each level spawns one half and runs the other inline.
        fn fib(pool: &Pool, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let mut b = 0;
            let a = pool.scope(|s| {
                s.spawn(|| b = fib(pool, n - 2));
                fib(pool, n - 1)
            });
            a + b
        }
        let pool = Pool::with_name(1, "adhoc");
        assert_eq!(fib(&pool, 16), 987);
    });
}

#[test]
fn nested_scopes_inside_tasks() {
    watchdog(30, || {
        let pool = Pool::with_name(2, "adhoc");
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..16 {
                outer.spawn(|| {
                    // Each task opens its own scope on the same pool.
                    pool.scope(|inner| {
                        for _ in 0..32 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16 * 32);
    });
}

#[test]
fn concurrent_external_callers_share_the_pool() {
    watchdog(30, || {
        let pool = std::sync::Arc::new(Pool::with_name(2, "adhoc"));
        let mut handles = Vec::new();
        for t in 0..6 {
            let pool = std::sync::Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let items: Vec<u64> = (0..500).collect();
                let out = pool.par_map(&items, |&x| x + t);
                assert_eq!(out, items.iter().map(|&x| x + t).collect::<Vec<_>>());
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
}

#[test]
fn slow_and_fast_tasks_interleave_without_starvation() {
    watchdog(30, || {
        let pool = Pool::with_name(4, "adhoc");
        let t0 = Instant::now();
        // One 200ms straggler among 63 fast tasks: total wall time must
        // be far below the serial sum, i.e. the straggler does not gate
        // the other workers.
        let items: Vec<usize> = (0..64).collect();
        let out = pool.par_map(&items, |&i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(200));
            }
            i * 2
        });
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        assert!(t0.elapsed() < Duration::from_secs(10));
    });
}

#[test]
fn a_waiting_scope_runs_only_its_own_jobs() {
    watchdog(30, || {
        // One worker. Thread X's scope has three 200 ms jobs: the worker
        // and X's own wait take one each and the third stays queued. A
        // scope opened behind it with one trivial job must run that job
        // at once, not X's queued one first.
        let pool = Arc::new(Pool::with_name(1, "adhoc"));
        let started = Arc::new(AtomicUsize::new(0));
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let x = {
            let (pool, started, ran_on) = (pool.clone(), started.clone(), ran_on.clone());
            std::thread::spawn(move || {
                pool.scope(|s| {
                    for _ in 0..3 {
                        s.spawn(|| {
                            started.fetch_add(1, Ordering::SeqCst);
                            ran_on.lock().unwrap().push(std::thread::current().id());
                            std::thread::sleep(Duration::from_millis(200));
                        });
                    }
                });
            })
        };
        // Both threads that may run X's jobs are busy with one each, so
        // the third is queued ahead of the scope opened next.
        while started.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        pool.scope(|s| s.spawn(|| {}));
        let waited = t0.elapsed();
        x.join().unwrap();
        let me = std::thread::current().id();
        let ran_on = ran_on.lock().unwrap();
        assert_eq!(ran_on.len(), 3);
        assert!(!ran_on.contains(&me), "a job of thread X's scope ran on the main thread");
        assert!(waited < Duration::from_millis(50), "the main scope took {waited:?}");
    });
}
