//! A4 (extension) — container impact on workflow execution.
//!
//! The paper's future work asks for "the assessment of [containers']
//! impact on the climate simulation and processing performance". The
//! dominant mechanism is per-task start-up: the first task of an image on
//! a worker pays a cold start; later tasks reuse the warm container.
//! A case-study-shaped DAG (simulated task durations) runs bare-metal,
//! containerized with warm reuse, and containerized with eviction after
//! every task (the pathological no-reuse case).

use bench::Record;
use dataflow::prelude::*;
use hpcwaas::containers::{ContainerRuntime, LayerId};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    BareMetal,
    Containers,
    ContainersNoReuse,
}

/// Three years of the case-study shape; every task sleeps its simulated
/// duration plus (when containerized) the start-up overhead of its image
/// on the executing worker. The worker index is approximated by thread id
/// hash (stable per worker thread).
fn run(mode: Mode, years: usize) {
    let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(4));
    let containers = Arc::new(Mutex::new(ContainerRuntime::new(150, 3)));

    let task = |image: u64, work_ms: u64| {
        let containers = Arc::clone(&containers);
        move |_: &[std::sync::Arc<Bytes>]| {
            if mode != Mode::BareMetal {
                let worker = {
                    use std::hash::{Hash, Hasher};
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    std::thread::current().id().hash(&mut h);
                    (h.finish() % 64) as usize
                };
                let mut c = containers.lock();
                let overhead = c.task_overhead_ms(worker, LayerId(image));
                if mode == Mode::ContainersNoReuse {
                    c.evict_all();
                }
                drop(c);
                std::thread::sleep(Duration::from_millis(overhead / 10)); // scaled down
            }
            std::thread::sleep(Duration::from_millis(work_ms));
            Ok(vec![Bytes::empty()])
        }
    };

    const ESM_IMG: u64 = 1;
    const ANALYTICS_IMG: u64 = 2;
    const ML_IMG: u64 = 3;

    let mut prev: Option<DataRef> = None;
    for y in 0..years {
        let mut b = rt.task("esm").writes(&[format!("esm-{y}").as_str()]);
        if let Some(p) = &prev {
            b = b.reads(std::slice::from_ref(p));
        }
        let esm = b.run(task(ESM_IMG, 10)).unwrap();
        prev = Some(esm.outputs[0].clone());
        for i in 0..6 {
            rt.task("analytics")
                .reads(&[esm.outputs[0].clone()])
                .writes(&[format!("a{i}-{y}").as_str()])
                .run(task(ANALYTICS_IMG, 4))
                .unwrap();
        }
        rt.task("ml")
            .reads(&[esm.outputs[0].clone()])
            .writes(&[format!("ml-{y}").as_str()])
            .run(task(ML_IMG, 4))
            .unwrap();
    }
    rt.barrier().unwrap();
    rt.shutdown();
}

fn main() {
    let mut rec = Record::new("a4_container_overhead");
    for (name, mode) in [
        ("bare_metal", Mode::BareMetal),
        ("containers_warm_reuse", Mode::Containers),
        ("containers_no_reuse", Mode::ContainersNoReuse),
    ] {
        rec.time(format!("{name}/3"), 15, || run(mode, 3));
    }
    rec.finish();
}
