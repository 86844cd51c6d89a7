//! Cross-crate observability: one subscription on the global bus watches
//! a whole pipelined run — dataflow task lifecycle, ESM steps and files,
//! datacube kernels — and the resulting Chrome trace and Prometheus dump,
//! both folds of that one stream, agree with the run's own report.

use climate_workflows::{run_pipelined, WorkflowParams};
use obs::{EventKind, TaskOutcome};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("obs-trace-e2e").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn pipelined_run_trace_agrees_with_report() {
    let days = 8usize;
    let params = WorkflowParams {
        years: 1,
        days_per_year: days,
        train_samples: 60,
        train_epochs: 3,
        finetune_days: 0,
        ..WorkflowParams::test_scale(tmp("agree"))
    };

    let rx = obs::global().subscribe_with_capacity(1 << 20);
    let report = run_pipelined(params).unwrap();
    let events = rx.drain();
    assert_eq!(rx.dropped(), 0, "capacity should cover a test-scale run");
    assert!(!events.is_empty());

    // Sequence numbers are strictly increasing: one interleaved stream.
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq, "events out of order: {} then {}", w[0].seq, w[1].seq);
    }

    // Dataflow lifecycle counts match the report's task graph.
    let submitted =
        events.iter().filter(|e| matches!(e.kind, EventKind::TaskSubmitted { .. })).count();
    let completed = events
        .iter()
        .filter(|e| {
            matches!(e.kind, EventKind::TaskFinished { outcome: TaskOutcome::Completed, .. })
        })
        .count();
    assert_eq!(submitted, report.tasks, "every graph task is announced on the bus");
    assert_eq!(completed, report.tasks, "every graph task completes exactly once");
    assert!(!events.iter().any(|e| {
        matches!(
            e.kind,
            EventKind::TaskFinished { outcome: TaskOutcome::Failed | TaskOutcome::Cancelled, .. }
        )
    }));

    // ESM telemetry: one step and one file per simulated day.
    let steps = events.iter().filter(|e| matches!(e.kind, EventKind::StepCompleted { .. })).count();
    let files = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::FileWritten { bytes, .. } => Some(*bytes),
            _ => None,
        })
        .collect::<Vec<_>>();
    assert_eq!(steps, days);
    assert_eq!(files.len(), days);
    assert!(files.iter().all(|&b| b > 0));

    // Datacube kernels ran under at least the thermal-index operators.
    let kernel_rows: usize = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::KernelDone { rows, .. } => Some(rows),
            _ => None,
        })
        .sum();
    assert!(kernel_rows > 0, "index computation should run cube kernels");

    // The Chrome trace renders, is structurally sound, and carries one
    // complete slice per finished task.
    let trace = obs::chrome_trace(&events);
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.trim_end().ends_with("]}"));
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for c in trace.chars() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0);
    }
    assert_eq!(depth, 0, "trace JSON is balanced");
    assert!(!in_str);
    let task_slices = trace.matches("task_finished").count();
    assert_eq!(task_slices, report.tasks);

    // The Prometheus dump is a fold of the same stream, so it must agree
    // with the run itself.
    let prom = obs::prometheus(&events, rx.dropped());
    assert_eq!(
        series_sum(&prom, "dataflow_tasks_total{outcome=\"completed\"}"),
        report.metrics.completed as u64
    );
    assert_eq!(series_sum(&prom, "esm_files_written_total"), days as u64, "1 year x {days} days");
    let kernels = events.iter().filter(|e| matches!(e.kind, EventKind::KernelDone { .. })).count();
    assert_eq!(series_sum(&prom, "datacube_kernel_us_count"), kernels as u64);
    assert_eq!(series_sum(&prom, "obs_bus_dropped_total"), rx.dropped());
}

/// Sum of every sample in a Prometheus text dump whose series is `name`
/// (exactly, or `name{labels}` when `name` carries no labels itself).
fn series_sum(prom: &str, name: &str) -> u64 {
    let samples: Vec<u64> = prom
        .lines()
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(series, _)| {
            *series == name || (!name.contains('{') && series.starts_with(&format!("{name}{{")))
        })
        .map(|(_, v)| v.parse().unwrap())
        .collect();
    assert!(!samples.is_empty(), "{name} missing from metrics dump:\n{prom}");
    samples.iter().sum()
}
