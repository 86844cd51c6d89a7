//! Whole-workflow entry points and the HPCWaaS registration.
//!
//! There is one driver, [`CaseStudy::run`]; the two functions here are
//! its two submission orders, which experiment C1 compares:
//!
//! * [`run_sequential`] ([`RunOrder::SimFirst`]) — the pre-integration
//!   practice the paper's introduction describes: run the full multi-year
//!   simulation to completion, *then* post-process everything "in a
//!   second stage";
//! * [`run_pipelined`] ([`RunOrder::AsYearsArrive`]) — the paper's
//!   contribution: simulation and analytics in one task graph, per-year
//!   analysis starting as soon as a year exists, all overlapped by the
//!   runtime.
//!
//! Orthogonally, `params.streaming` (experiment C8) decides whether a
//! year may reach analytics in memory rather than through its daily
//! files; the tasks and their products are the same either way.
//!
//! [`register_with_hpcwaas`] publishes the workflow behind the HPCWaaS
//! Execution API so an end user can deploy/run/undeploy it without
//! touching any of the infrastructure (Section 6).

use crate::casestudy::{CaseStudy, RunOrder};
use crate::error::WorkflowError;
use crate::params::WorkflowParams;
use crate::reporting::RunReport;
use hpcwaas::tosca::climate_case_study;
use hpcwaas::ExecutionApi;

/// Builds the case study, runs it in `order`, and stops its runtime.
fn run_in_order(params: WorkflowParams, order: RunOrder) -> Result<RunReport, WorkflowError> {
    let cs = CaseStudy::new(params)?;
    let report = cs.run(order);
    cs.rt.shutdown();
    report
}

/// Runs the pipelined (paper) configuration.
pub fn run_pipelined(params: WorkflowParams) -> Result<RunReport, WorkflowError> {
    run_in_order(params, RunOrder::AsYearsArrive)
}

/// Runs the sequential baseline: the ESM completes all years first, then
/// the per-year analyses are submitted. Same tasks, no overlap with the
/// simulation.
pub fn run_sequential(params: WorkflowParams) -> Result<RunReport, WorkflowError> {
    run_in_order(params, RunOrder::SimFirst)
}

/// Registers the case study with an HPCWaaS Execution API instance under
/// its TOSCA topology name (`climate-extremes`). The entrypoint parses
/// invocation inputs into [`WorkflowParams`], runs the pipelined workflow
/// in a scratch directory beneath `work_root`, and returns the rendered
/// report.
pub fn register_with_hpcwaas(api: &ExecutionApi, work_root: std::path::PathBuf) {
    let counter = std::sync::atomic::AtomicU64::new(0);
    api.register(climate_case_study(), move |inputs| {
        let n = counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let out_dir = work_root.join(format!("run-{n}"));
        let params = WorkflowParams::test_scale(out_dir).apply_inputs(inputs)?;
        let report = run_pipelined(params)?;
        Ok(report.render())
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("e2e-tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// A struct built by field assignment is validated before the run
    /// creates a directory or trains a model: a patch that is not a
    /// multiple of 4 is a setup error, not a panic inside the CNN.
    #[test]
    fn invalid_params_fail_at_setup_before_touching_disk() {
        let out = tmp("invalid");
        let params = WorkflowParams { patch: 10, ..WorkflowParams::test_scale(out.clone()) };
        let err = run_pipelined(params).expect_err("patch 10 must be rejected");
        assert!(err.to_string().starts_with("setup:"), "{err}");
        assert!(err.to_string().contains("patch"), "{err}");
        assert!(!out.exists(), "an invalid run created {}", out.display());
    }

    /// The full end-to-end pipelined workflow on a tiny configuration.
    #[test]
    fn pipelined_end_to_end_produces_products() {
        let out = tmp("pipelined");
        let mut params = WorkflowParams::test_scale(out.clone());
        params.years = 1;
        params.days_per_year = 20;
        params.train_samples = 160;
        params.train_epochs = 8;
        let report = run_pipelined(params).unwrap();

        assert_eq!(report.years.len(), 1);
        let y = &report.years[0];
        assert_eq!(y.year, 2030);
        assert_eq!(y.files, 20);
        assert!(y.validated, "index validation must pass");
        assert_eq!(y.export_paths.len(), 6, "six index exports");
        for p in &y.export_paths {
            assert!(p.exists(), "missing export {p:?}");
        }
        assert_eq!(y.map_paths.len(), 4, "ppm+txt for hwn and cwn");
        for p in &y.map_paths {
            assert!(p.exists(), "missing map {p:?}");
        }
        // Figure-3 structure: all 18 task functions present.
        assert_eq!(report.function_counts.len(), 18, "{:?}", report.function_counts);
        assert!(report.dot_path.exists());
        let dot = std::fs::read_to_string(&report.dot_path).unwrap();
        assert!(dot.contains("digraph workflow"));
        // No failures or cancellations.
        assert_eq!(report.metrics.failed, 0);
        assert_eq!(report.metrics.cancelled, 0);
        // Every executed task is counted once on the worker that ran it.
        let m = &report.metrics;
        assert_eq!(
            m.tasks_per_worker.iter().sum::<u64>() as usize,
            m.completed + m.failed + m.cancelled,
            "{m:?}"
        );
        // The CNN product lists detections in timestep order.
        let csv = std::fs::read_to_string(out.join("products/tc-cnn-2030.csv")).unwrap();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("day,step,lat,lon,confidence"));
        let keys: Vec<(usize, usize)> = lines
            .map(|l| {
                let mut it = l.split(',').map(|v| v.parse().unwrap());
                (it.next().unwrap(), it.next().unwrap())
            })
            .collect();
        assert!(!keys.is_empty(), "the year should yield CNN detections");
        assert!(keys.is_sorted(), "rows must ascend in (day, step): {keys:?}");
    }

    #[test]
    fn sequential_and_pipelined_agree_on_science() {
        let mk = |name: &str| {
            let mut p = WorkflowParams::test_scale(tmp(name));
            p.years = 1;
            p.days_per_year = 15;
            p.train_samples = 120;
            p.train_epochs = 6;
            p
        };
        let a = run_pipelined(mk("agree-pipe")).unwrap();
        let b = run_sequential(mk("agree-seq")).unwrap();
        // Same seeds, same model physics: identical index statistics.
        assert_eq!(a.years[0].heatwave_cells, b.years[0].heatwave_cells);
        assert_eq!(a.years[0].coldspell_cells, b.years[0].coldspell_cells);
        assert_eq!(a.years[0].truth_tcs, b.years[0].truth_tcs);
    }

    /// Streaming smoke: a `--streaming` run produces the same product set,
    /// populates the streaming report section, and adds the record-to-date
    /// task + exports on top of the 18 staged functions.
    #[test]
    fn streaming_end_to_end_produces_products() {
        let mut params = WorkflowParams::test_scale(tmp("streaming"));
        params.years = 2;
        params.days_per_year = 12;
        params.train_samples = 120;
        params.train_epochs = 6;
        params.streaming = true;
        let report = run_pipelined(params).unwrap();

        assert_eq!(report.years.len(), 2);
        for y in &report.years {
            assert!(y.validated, "index validation must pass");
            assert_eq!(y.export_paths.len(), 6);
            for p in &y.export_paths {
                assert!(p.exists(), "missing export {p:?}");
            }
        }
        let st = report.stream.as_ref().expect("streaming section");
        assert_eq!(st.record_years, 2, "record state folded both years");
        assert_eq!(st.record_paths.len(), 7, "6 wave maps + etccdi");
        for p in &st.record_paths {
            assert!(p.exists(), "missing record product {p:?}");
        }
        // The 18 staged functions plus the stream_record fold.
        assert_eq!(report.function_counts.len(), 19, "{:?}", report.function_counts);
        assert_eq!(report.metrics.failed, 0);
        assert_eq!(report.metrics.cancelled, 0);
    }

    /// Sim-first × streaming is a setting of the one driver: the record
    /// products and the CNN products are the as-years-arrive run's.
    #[test]
    fn sim_first_streaming_exports_the_same_record_products() {
        let mk = |dir: &std::path::Path| {
            let mut p = WorkflowParams::test_scale(dir.to_path_buf());
            p.years = 2;
            p.days_per_year = 10;
            p.train_samples = 120;
            p.train_epochs = 6;
            p.streaming = true;
            p
        };
        let (seq_dir, pipe_dir) = (tmp("record-seq"), tmp("record-pipe"));
        let seq = run_sequential(mk(&seq_dir)).unwrap();
        let pipe = run_pipelined(mk(&pipe_dir)).unwrap();

        let st = seq.stream.as_ref().expect("streaming section");
        assert_eq!(st.record_years, 2);
        for y in &seq.years {
            let csv = |dir: &std::path::Path| {
                std::fs::read(dir.join(format!("products/tc-cnn-{}.csv", y.year))).unwrap()
            };
            assert!(csv(&seq_dir).starts_with(b"day,step,lat,lon,confidence\n"));
            assert_eq!(csv(&seq_dir), csv(&pipe_dir), "tc-cnn-{} differs", y.year);
        }
        let pipe_paths = &pipe.stream.as_ref().expect("streaming section").record_paths;
        assert_eq!(st.record_paths.len(), 7, "6 wave maps + etccdi");
        for (a, b) in st.record_paths.iter().zip(pipe_paths) {
            assert_eq!(a.file_name(), b.file_name());
            assert_eq!(
                std::fs::read(a).unwrap(),
                std::fs::read(b).unwrap(),
                "{a:?} differs between submission orders"
            );
        }
    }

    #[test]
    fn hpcwaas_roundtrip_runs_the_workflow() {
        let api = ExecutionApi::default();
        register_with_hpcwaas(&api, tmp("hpcwaas"));
        let dep = api.deploy("climate-extremes").unwrap();
        let mut overrides = std::collections::BTreeMap::new();
        overrides.insert("years".to_string(), "1".to_string());
        overrides.insert("days_per_year".to_string(), "12".to_string());
        let handle = api.submit(dep, &overrides).unwrap();
        match handle.wait() {
            hpcwaas::ExecutionStatus::Completed { result } => {
                assert!(result.contains("Climate-extremes workflow report"));
                assert!(result.contains("year 2030"));
            }
            other => panic!("unexpected status: {other:?}"),
        }
        api.undeploy(dep).unwrap();
    }
}
