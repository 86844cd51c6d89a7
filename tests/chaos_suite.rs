//! Chaos suite: the full workflow and workflow-shaped task graphs run
//! under seeded fault plans ([`dataflow::inject::FaultPlan`]) and must
//! come out the other side with every task in a terminal state, the
//! status fold quiescent, and — when a run is killed outright — a
//! checkpoint resume that reproduces the unfailed run byte for byte.
//!
//! Every test holds `SUITE_LOCK` for its whole body: chaos hooks are
//! process-wide, so an armed plan from one test must never bleed into
//! another test's (deliberately fault-free) resume or reference run.

use climate_workflows::{run_pipelined, WorkflowParams};
use dataflow::inject::{self, Fault, FaultPlan};
use dataflow::monitor::StatusFold;
use dataflow::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

static SUITE_LOCK: Mutex<()> = Mutex::new(());

fn suite_lock() -> MutexGuard<'static, ()> {
    SUITE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("chaos-suite").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Faults a dataflow-graph chaos run may draw: everything the task site
/// honors, with a short stall so tests stay fast.
const TASK_FAULTS: &[Fault] =
    &[Fault::Panic, Fault::Error, Fault::Poison, Fault::Stall { millis: 5 }];

/// Runs a year-shaped task graph (chained simulation, staging fan-out,
/// index fan-in, gated export) under the seeded plan and asserts the
/// run terminates with every task terminal and the status fold drained.
fn run_graph_under_chaos(seed: u64) {
    let _suite = suite_lock();
    let plan = FaultPlan::for_sites(seed, 4, &[(inject::SITE_TASK, TASK_FAULTS)]);
    let armed = plan.arm();

    let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(3).with_seed(seed));
    let rx = rt.subscribe();
    let retry = FailurePolicy::RetryBackoff { max_retries: 3, base_ms: 1, cap_ms: 8 };
    let leaf = |v: u64| move |_: &[Arc<Bytes>]| Ok(vec![Bytes::from_u64(v)]);
    let sum = |inp: &[Arc<Bytes>]| {
        Ok(vec![Bytes::from_u64(1 + inp.iter().filter_map(|b| b.as_u64()).sum::<u64>())])
    };

    let esm0 = rt.task("esm").writes(&["y0"]).on_failure(retry).run(leaf(1)).unwrap();
    let esm1 = rt
        .task("esm")
        .reads(&[esm0.outputs[0].clone()])
        .writes(&["y1"])
        .on_failure(retry)
        .run(sum)
        .unwrap();
    let stage = rt
        .task("stage")
        .reads(&[esm1.outputs[0].clone()])
        .writes(&["staged"])
        .on_failure(retry)
        .run(sum)
        .unwrap();
    let indices: Vec<TaskHandle> = (0..4)
        .map(|i| {
            rt.task("index")
                .reads(&[stage.outputs[0].clone()])
                .writes(&[format!("idx{i}").as_str()])
                .on_failure(retry)
                .run(sum)
                .unwrap()
        })
        .collect();
    let idx_refs: Vec<DataRef> = indices.iter().map(|h| h.outputs[0].clone()).collect();
    let validate = rt
        .task("validate")
        .reads(&idx_refs)
        .writes(&["valid"])
        .on_failure(FailurePolicy::IgnoreCancelSuccessors)
        .run(sum)
        .unwrap();
    let mut export_reads = idx_refs.clone();
    export_reads.push(validate.outputs[0].clone());
    rt.task("export").reads(&export_reads).writes(&["out"]).on_failure(retry).run(sum).unwrap();
    rt.task("maps")
        .reads(&[idx_refs[0].clone(), idx_refs[1].clone()])
        .writes(&["maps"])
        .on_failure(retry)
        .run(sum)
        .unwrap();

    // Either outcome is legal under chaos (retries may be exhausted); a
    // hang here IS the deadlock the suite exists to catch.
    let _ = rt.barrier();

    assert!(armed.consultations(inject::SITE_TASK) > 0, "task site never consulted");
    let mut fold = StatusFold::new();
    for ev in rx.drain() {
        fold.apply_event(&ev);
    }
    let snap = fold.snapshot();
    assert_eq!(
        (snap.pending, snap.ready, snap.running),
        (0, 0, 0),
        "seed {seed}: fold not drained: {snap:?}"
    );
    assert_eq!(snap.total(), 10, "seed {seed}: lost tasks: {snap:?}");
    assert_eq!(
        snap.completed + snap.failed + snap.cancelled,
        10,
        "seed {seed}: non-terminal tasks: {snap:?}"
    );
    rt.shutdown();
}

macro_rules! chaos_graph_tests {
    ($($name:ident: $seed:expr,)*) => {
        $(
            #[test]
            fn $name() {
                run_graph_under_chaos($seed);
            }
        )*
    };
}

chaos_graph_tests! {
    chaos_graph_seed_201: 201,
    chaos_graph_seed_202: 202,
    chaos_graph_seed_203: 203,
    chaos_graph_seed_204: 204,
    chaos_graph_seed_205: 205,
    chaos_graph_seed_206: 206,
    chaos_graph_seed_207: 207,
    chaos_graph_seed_208: 208,
    chaos_graph_seed_209: 209,
    chaos_graph_seed_210: 210,
    chaos_graph_seed_211: 211,
    chaos_graph_seed_212: 212,
    chaos_graph_seed_213: 213,
    chaos_graph_seed_214: 214,
}

/// Tiny checkpointed workflow parameters for a chaos run.
fn chaos_params(dir: &std::path::Path, seed: u64, years: usize) -> WorkflowParams {
    WorkflowParams {
        years,
        days_per_year: 4,
        seed,
        workers: 2,
        train_samples: 30,
        train_epochs: 2,
        finetune_days: 0,
        checkpoint: Some(dir.join("wf.ckpt")),
        task_retries: 2,
        retry_base_ms: 2,
        ..WorkflowParams::test_scale(dir.to_path_buf())
    }
}

/// Runs the full climate workflow under a seeded plan (task, pool and
/// ESM-year sites). If the armed run dies, resumes disarmed from the
/// checkpoint; the final report must cover every year cleanly.
fn run_workflow_under_chaos(seed: u64) {
    let _suite = suite_lock();
    let dir = tmp(&format!("wf-{seed}"));
    let plan = FaultPlan::for_sites(
        seed,
        3,
        &[
            (inject::SITE_TASK, TASK_FAULTS),
            (inject::SITE_POOL, &[Fault::Stall { millis: 5 }]),
            (inject::SITE_ESM, &[Fault::Stall { millis: 5 }, Fault::Error]),
        ],
    );
    let first = {
        let _armed = plan.arm();
        run_pipelined(chaos_params(&dir, seed, 1))
    };
    let report = match first {
        Ok(r) if r.years.iter().all(|y| !y.failed) => r,
        _ => run_pipelined(chaos_params(&dir, seed, 1)).expect("disarmed resume must succeed"),
    };
    assert_eq!(report.years.len(), 1, "seed {seed}");
    assert!(report.years.iter().all(|y| !y.failed && y.validated), "seed {seed}");
    assert_eq!(report.metrics.failed, 0, "seed {seed}: {:?}", report.metrics);
}

macro_rules! chaos_workflow_tests {
    ($($name:ident: $seed:expr,)*) => {
        $(
            #[test]
            fn $name() {
                run_workflow_under_chaos($seed);
            }
        )*
    };
}

chaos_workflow_tests! {
    chaos_workflow_seed_11: 11,
    chaos_workflow_seed_12: 12,
    chaos_workflow_seed_13: 13,
    chaos_workflow_seed_14: 14,
}

/// Acceptance: a workflow killed mid-run (injected ESM failure in year
/// 2 with no retries) resumes from its checkpoint to final products
/// byte-identical to an unfailed run, with `ResumedFrom` in the trace.
#[test]
fn chaos_kill_mid_run_resume_is_byte_identical() {
    let _suite = suite_lock();
    let seed = 7u64;

    // Reference: unfailed 2-year run.
    let clean_dir = tmp("kill-clean");
    let mut clean_params = chaos_params(&clean_dir, seed, 2);
    clean_params.task_retries = 0;
    run_pipelined(clean_params).expect("clean run");

    // Victim: same parameters, killed at the second simulated year.
    let dir = tmp("kill-victim");
    let mut params = chaos_params(&dir, seed, 2);
    params.task_retries = 0;
    {
        // Year 1 must complete (so the checkpoint is worth resuming), so
        // the fault targets the SECOND consult of the ESM-year site.
        let consults = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let c2 = Arc::clone(&consults);
        let _armed = obs::chaos::install(Arc::new(move |site: &str| {
            (site == inject::SITE_ESM && c2.fetch_add(1, Ordering::SeqCst) == 1)
                .then_some((Fault::Error, 1))
        }));
        let err = run_pipelined(params).expect_err("year-2 fault must kill the run");
        assert!(err.to_string().contains("chaos"), "unexpected failure: {err}");
    }

    // Resume: disarmed, same checkpoint; watch the trace for ResumedFrom.
    let rx = obs::global().subscribe_with_capacity(1 << 18);
    let mut params = chaos_params(&dir, seed, 2);
    params.task_retries = 0;
    run_pipelined(params).expect("resume run");
    let events = rx.drain();
    let resumed =
        events.iter().filter(|e| matches!(&e.kind, obs::EventKind::ResumedFrom { .. })).count();
    assert!(resumed > 0, "no ResumedFrom events in the resume trace");

    // Every final product must be byte-identical to the unfailed run.
    let list = |d: &std::path::Path| -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        v.sort();
        v
    };
    for sub in ["products", "esm-out"] {
        let a = clean_dir.join(sub);
        let b = dir.join(sub);
        assert_eq!(list(&a), list(&b), "{sub} listings differ");
        for name in list(&a) {
            let x = std::fs::read(a.join(&name)).unwrap();
            let y = std::fs::read(b.join(&name)).unwrap();
            assert_eq!(x, y, "{sub}/{name} differs after resume");
        }
    }
}

/// The root tasks retry like every other task: a poisoned first attempt
/// of `load_baseline`, `load_model` and the first `esm_simulation` year
/// costs one retry each, not the run, and the products are the clean
/// run's. These three are ready from the start and everything else waits
/// on one of them, so their first attempts make the first three consults
/// of the task site, in whatever order the workers take them; a retry is
/// parked for at least half of `retry_base_ms`.
#[test]
fn root_task_faults_are_retried() {
    let _suite = suite_lock();
    let params = |dir: &std::path::Path| WorkflowParams {
        task_retries: 1,
        retry_base_ms: 200,
        ..chaos_params(dir, 7, 1)
    };
    let clean_dir = tmp("root-clean");
    run_pipelined(params(&clean_dir)).expect("clean run");

    let dir = tmp("root-faulted");
    let rx = obs::global().subscribe_with_capacity(1 << 18);
    let report = {
        let consults = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let _armed = obs::chaos::install(Arc::new(move |site: &str| {
            let n = consults.fetch_add(u64::from(site == inject::SITE_TASK), Ordering::SeqCst);
            (site == inject::SITE_TASK && n < 3).then_some((Fault::Poison, n))
        }));
        run_pipelined(params(&dir)).expect("a retried root-task fault must not kill the run")
    };
    let retried: Vec<String> = rx
        .drain()
        .into_iter()
        .filter_map(|e| match e.kind {
            obs::EventKind::TaskRetryBackoff { name, .. } => Some(name.to_string()),
            _ => None,
        })
        .collect();
    for task in ["load_baseline", "load_model", "esm_simulation"] {
        assert!(retried.iter().any(|n| n == task), "{task} was not retried: {retried:?}");
    }
    assert!(report.metrics.retries >= 1, "{:?}", report.metrics);
    assert!(report.years.iter().all(|y| !y.failed && y.validated));
    let products = |d: &std::path::Path| -> Vec<(String, Vec<u8>)> {
        let mut v: Vec<_> = std::fs::read_dir(d.join("products"))
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        v.sort();
        v
    };
    let (clean, faulted) = (products(&clean_dir), products(&dir));
    assert!(!clean.is_empty());
    assert_eq!(
        clean.iter().map(|p| &p.0).collect::<Vec<_>>(),
        faulted.iter().map(|p| &p.0).collect::<Vec<_>>()
    );
    for ((name, a), (_, b)) in clean.iter().zip(&faulted) {
        assert!(a == b, "products/{name} differs from the clean run's");
    }
}

/// Recovery-overhead measurement backing the EXPERIMENTS.md entry; run
/// with `cargo test --test chaos_suite chaos_recovery_overhead --
/// --ignored --nocapture`.
#[test]
#[ignore = "measurement, not a check; see EXPERIMENTS.md"]
fn chaos_recovery_overhead_measurement() {
    let _suite = suite_lock();
    let seed = 7u64;
    let time = |label: &str, f: &mut dyn FnMut()| {
        let t0 = std::time::Instant::now();
        f();
        let dt = t0.elapsed();
        println!("{label}: {:.2}s", dt.as_secs_f64());
        dt
    };

    let clean_dir = tmp("overhead-clean");
    let mut p = chaos_params(&clean_dir, seed, 2);
    p.task_retries = 0;
    let clean = time("clean 2-year run", &mut || {
        run_pipelined(p.clone()).expect("clean");
    });

    let dir = tmp("overhead-victim");
    let mut p = chaos_params(&dir, seed, 2);
    p.task_retries = 0;
    let consults = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let c2 = Arc::clone(&consults);
    let armed = obs::chaos::install(Arc::new(move |site: &str| {
        (site == inject::SITE_ESM && c2.fetch_add(1, Ordering::SeqCst) == 1)
            .then_some((Fault::Error, 1))
    }));
    let p2 = p.clone();
    let killed = time("killed run (dies at year 2)", &mut || {
        run_pipelined(p2.clone()).expect_err("must die");
    });
    drop(armed);
    let resume = time("resume from checkpoint", &mut || {
        run_pipelined(p.clone()).expect("resume");
    });
    println!(
        "recovery total = {:.2}s vs clean {:.2}s (overhead {:+.0}%)",
        (killed + resume).as_secs_f64(),
        clean.as_secs_f64(),
        ((killed + resume).as_secs_f64() / clean.as_secs_f64() - 1.0) * 100.0
    );
}

/// A random DAG: task i reads a subset of tasks 0..i.
#[derive(Debug, Clone)]
struct DagSpec {
    reads: Vec<Vec<usize>>,
}

fn dag_strategy(max_tasks: usize) -> impl Strategy<Value = DagSpec> {
    (3..max_tasks)
        .prop_flat_map(|n| {
            let masks: Vec<_> =
                (0..n).map(|i| proptest::collection::vec(any::<bool>(), i)).collect();
            masks.prop_map(|masks| DagSpec {
                reads: masks
                    .into_iter()
                    .map(|m| m.iter().enumerate().filter(|(_, &t)| t).map(|(j, _)| j).collect())
                    .collect(),
            })
        })
        .prop_filter("at least one edge", |d| d.reads.iter().any(|r| !r.is_empty()))
}

/// Submits the DAG; `kill` makes that task fail (fail-fast) on its first
/// run. Returns each task's value plus the provenance invariants (name,
/// inputs, outputs, final state — not timings or worker placement).
fn run_dag(
    spec: &DagSpec,
    ckpt: Option<&std::path::Path>,
    kill: Option<usize>,
) -> (Result<Vec<u64>, ()>, Vec<String>) {
    let mut config = RuntimeConfig::with_cpu_workers(2);
    if let Some(p) = ckpt {
        config = config.with_checkpoint(p);
    }
    let rt: Runtime<Bytes> = Runtime::new(config);
    let mut outputs: Vec<DataRef> = Vec::new();
    for (i, reads) in spec.reads.iter().enumerate() {
        let read_refs: Vec<DataRef> = reads.iter().map(|&j| outputs[j].clone()).collect();
        let die = kill == Some(i);
        let h = rt
            .task("node")
            .key(&format!("k{i}"))
            .reads(&read_refs)
            .writes(&[format!("v{i}").as_str()])
            .run(move |inp: &[Arc<Bytes>]| {
                if die {
                    return Err("killed here".into());
                }
                let v = 1 + inp.iter().map(|b| b.as_u64().unwrap()).sum::<u64>();
                Ok(vec![Bytes::from_u64(v)])
            })
            .unwrap();
        outputs.push(h.outputs[0].clone());
    }
    let result = match rt.barrier() {
        Ok(()) => {
            Ok(outputs.iter().map(|o| rt.fetch(o).unwrap().as_u64().unwrap()).collect::<Vec<u64>>())
        }
        Err(_) => Err(()),
    };
    let mut prov: Vec<(u64, String)> = rt
        .provenance()
        .records()
        .iter()
        .map(|r| {
            (
                r.task.0,
                format!(
                    "{} used={:?} gen={:?} state={:?}",
                    r.name, r.used, r.generated, r.final_state
                ),
            )
        })
        .collect();
    prov.sort();
    rt.shutdown();
    (result, prov.into_iter().map(|(_, s)| s).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite #2: for random graphs and random kill points, a killed
    /// run resumed from its checkpoint yields the same outputs and the
    /// same provenance invariants as a run that never failed.
    #[test]
    fn chaos_checkpoint_resume_equivalence(
        spec in dag_strategy(12),
        kill_pick in any::<u64>(),
    ) {
        let _suite = suite_lock();
        let n = spec.reads.len();
        let kill = (kill_pick % n as u64) as usize;
        let dir = tmp(&format!("equiv-{n}-{kill}"));

        // Unfailed reference.
        let (clean, clean_prov) = run_dag(&spec, Some(&dir.join("clean.ckpt")), None);
        let clean = clean.expect("clean run");

        // Killed run: same checkpoint file, task `kill` dies (fail-fast).
        let ckpt = dir.join("resume.ckpt");
        let (killed, _) = run_dag(&spec, Some(&ckpt), Some(kill));
        prop_assert!(killed.is_err(), "kill at {kill} did not fail the run");

        // Resume from the frontier the killed run left behind.
        let (resumed, resumed_prov) = run_dag(&spec, Some(&ckpt), None);
        let resumed = resumed.expect("resumed run");
        prop_assert_eq!(&resumed, &clean, "outputs diverge after resume");
        prop_assert_eq!(&resumed_prov, &clean_prov, "provenance diverges after resume");
    }
}

/// One armed [`dataflow::inject`] seed through a *fused* datacube
/// pipeline: the armed run dies mid-graph, and the disarmed resume from
/// the same checkpoint must deliver the export task fused-kernel output
/// byte-identical to a never-faulted reference run — f32 bit patterns
/// (including a NaN payload that rides through the whole chain) and all.
/// The fused kernel's bitwise determinism contract is what makes this
/// byte-identity hold across a kill/resume boundary.
#[test]
fn chaos_fused_pipeline_resume_is_byte_identical() {
    let _suite = suite_lock();

    /// Runs an intercube → apply → reduce chain as ONE fused
    /// kernel and serializes the result's exact bit patterns.
    fn fused_index_bytes(seed: u64) -> Vec<u8> {
        use datacube::exec::ExecConfig;
        use datacube::expr::Expr;
        use datacube::fuse::Pipeline;
        use datacube::model::{Cube, Dimension};
        use datacube::ops::{InterOp, ReduceOp};

        let (rows, nt) = (24usize, 45usize); // 45: ragged 8-lane tail
        let dims = vec![
            Dimension::explicit("cell", (0..rows).map(|i| i as f64).collect::<Vec<_>>()),
            Dimension::implicit("time", (0..nt).map(|i| i as f64).collect::<Vec<_>>()),
        ];
        let mut data: Vec<f32> = (0..rows * nt)
            .map(|i| ((i as u64).wrapping_mul(seed | 1) % 600) as f32 / 10.0 - 30.0)
            .collect();
        data[7 * nt + 3] = f32::from_bits(0x7fc0_1234); // NaN payload cell
        let src = Cube::from_dense("t", dims, data, 5, 3).unwrap();
        let bdims =
            vec![Dimension::explicit("cell", (0..rows).map(|i| i as f64).collect::<Vec<_>>())];
        let baseline =
            Cube::from_dense("b", bdims, (0..rows).map(|i| i as f32 / 4.0).collect(), 3, 2)
                .unwrap();
        let out = Pipeline::new()
            .intercube(&baseline, InterOp::Sub)
            .apply(Expr::parse("x * 2 + 1").unwrap())
            .reduce(ReduceOp::Sum, "time")
            .run(&src, ExecConfig::with_servers(3))
            .expect("fused chain");
        out.cube.to_dense().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect()
    }

    /// ingest → fused-index → export, checkpointed and keyed so a resume
    /// replays only the missing frontier.
    fn run_graph(ckpt: &std::path::Path) -> Result<Vec<u8>, ()> {
        let rt: Runtime<Bytes> =
            Runtime::new(RuntimeConfig::with_cpu_workers(1).with_checkpoint(ckpt));
        let ingest = rt
            .task("ingest")
            .key("ingest")
            .writes(&["seed"])
            .run(|_: &[Arc<Bytes>]| Ok(vec![Bytes::from_u64(42)]))
            .unwrap();
        let fused = rt
            .task("fused-index")
            .key("fused-index")
            .reads(&[ingest.outputs[0].clone()])
            .writes(&["index"])
            .run(|inp: &[Arc<Bytes>]| Ok(vec![Bytes(fused_index_bytes(inp[0].as_u64().unwrap()))]))
            .unwrap();
        let export = rt
            .task("export")
            .key("export")
            .reads(&[fused.outputs[0].clone()])
            .writes(&["out"])
            .run(|inp: &[Arc<Bytes>]| Ok(vec![Bytes(inp[0].0.clone())]))
            .unwrap();
        let res = match rt.barrier() {
            Ok(()) => Ok(rt.fetch(&export.outputs[0]).unwrap().0.clone()),
            Err(_) => Err(()),
        };
        rt.shutdown();
        res
    }

    let dir = tmp("fused-chaos");
    let clean = run_graph(&dir.join("clean.ckpt")).expect("clean run");
    assert!(!clean.is_empty());

    // Armed run: a seeded task-site fault plan kills the graph fail-fast.
    let ckpt = dir.join("victim.ckpt");
    let killed = {
        let plan = FaultPlan::for_sites(909, 2, &[(inject::SITE_TASK, &[Fault::Error])]);
        let _armed = plan.arm();
        run_graph(&ckpt)
    };
    assert!(killed.is_err(), "armed seed 909 must kill the fused graph");

    // Disarmed resume from the same checkpoint.
    let resumed = run_graph(&ckpt).expect("disarmed resume must succeed");
    assert_eq!(resumed, clean, "fused output bytes diverge after checkpoint resume");
}
