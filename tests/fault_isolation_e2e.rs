//! Workflow-level fault isolation: a corrupt year of model output must
//! fail *that year's* analysis subtree and nothing else — the paper's
//! per-task failure management ("ignore the failure of the task and
//! continue") applied to a multi-year campaign.

use climate_workflows::{run_pipelined, WorkflowParams};
use obs::chaos::Fault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("root-fault-iso").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn params(name: &str) -> WorkflowParams {
    WorkflowParams {
        years: 2,
        days_per_year: 8,
        train_samples: 60,
        train_epochs: 3,
        finetune_days: 0,
        ..WorkflowParams::test_scale(tmp(name))
    }
}

#[test]
fn corrupt_year_fails_alone_campaign_survives() {
    // Tear day 3 of the first year at the ESM's daily write: years are
    // simulated in order and days in order within a year, so it is the
    // third write of the run.
    let writes = AtomicU64::new(0);
    let _chaos = obs::chaos::install(Arc::new(move |site: &str| {
        if site != "esm.write_day" {
            return None;
        }
        let n = writes.fetch_add(1, Ordering::SeqCst);
        (n == 2).then_some((Fault::Poison, n))
    }));
    let report = run_pipelined(params("corrupt-y0")).unwrap();

    assert_eq!(report.years.len(), 2);
    let y0 = report.years.iter().find(|y| y.year == 2030).unwrap();
    let y1 = report.years.iter().find(|y| y.year == 2031).unwrap();

    assert!(y0.failed, "corrupt year must be reported failed");
    assert!(!y0.validated);
    assert!(y0.export_paths.is_empty());

    assert!(!y1.failed, "healthy year must complete");
    assert!(y1.validated);
    assert_eq!(y1.export_paths.len(), 6);
    for path in &y1.export_paths {
        assert!(path.exists());
    }

    // Failure management did its job: some tasks failed/cancelled, none
    // aborted the workflow.
    assert!(report.metrics.failed >= 1, "import tasks should have failed");
    assert!(report.metrics.cancelled >= 5, "the year's subtree should be cancelled");
    assert!(report.render().contains("ANALYSIS FAILED"));
}

#[test]
fn clean_run_reports_no_failed_years() {
    // Hold the process-wide chaos gate with a hook that never fires, so
    // the poisoning hook above cannot reach this run's writes.
    let _chaos = obs::chaos::install(Arc::new(|_: &str| None));
    let report = run_pipelined(params("clean")).unwrap();
    assert!(report.years.iter().all(|y| !y.failed && y.validated));
    assert_eq!(report.metrics.failed, 0);
    assert_eq!(report.metrics.cancelled, 0);
}
