//! C6 — checkpointing: logging overhead and restart savings.
//!
//! The COMPSs task-level checkpointing the runtime reimplements (Vergés
//! et al.) trades per-task log appends for restart-from-last-task
//! recovery. Measured on a 24-task chain of 2 ms tasks:
//!   * `no_checkpoint`   — plain execution (baseline);
//!   * `with_checkpoint` — same run, every task logged (the overhead);
//!   * `resume_full_log` — re-running against a complete log (the payoff:
//!     no task executes).

use bench::{spin_for_micros, Record};
use dataflow::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const TASKS: usize = 24;
const TASK_US: u64 = 2_000;

static RUN: AtomicU64 = AtomicU64::new(0);

fn run_chain(ckpt: Option<PathBuf>) {
    let mut config = RuntimeConfig::with_cpu_workers(2);
    if let Some(p) = ckpt {
        config = config.with_checkpoint(p);
    }
    let rt: Runtime<Bytes> = Runtime::new(config);
    let mut prev: Option<DataRef> = None;
    for i in 0..TASKS {
        let mut b = rt.task("step").key(&format!("step-{i}"));
        if let Some(p) = &prev {
            b = b.reads(std::slice::from_ref(p));
        }
        let h = b
            .writes(&["state"])
            .run(|_| {
                spin_for_micros(TASK_US);
                Ok(vec![Bytes::from_u64(1)])
            })
            .unwrap();
        prev = Some(h.outputs[0].clone());
    }
    rt.barrier().unwrap();
    rt.shutdown();
}

fn fresh_log() -> PathBuf {
    let dir = std::env::temp_dir().join("bench-c6");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("log-{}.ckpt", RUN.fetch_add(1, Ordering::Relaxed)));
    std::fs::remove_file(&p).ok();
    p
}

fn main() {
    let mut rec = Record::new("c6_checkpoint");
    rec.time("no_checkpoint", 20, || run_chain(None));
    rec.time_batched("with_checkpoint", 20, fresh_log, |p| run_chain(Some(p)));
    let complete_log = || {
        let p = fresh_log();
        run_chain(Some(p.clone()));
        p
    };
    rec.time_batched("resume_full_log", 20, complete_log, |p| run_chain(Some(p)));
    rec.finish();
}
