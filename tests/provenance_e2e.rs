//! End-to-end provenance: the workflow must leave a complete, queryable
//! record of what produced what — the FAIR/reproducibility capability
//! Section 2 of the paper attributes to workflow systems.

use climate_workflows::{CaseStudy, RunOrder, WorkflowParams};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("root-prov").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn workflow_provenance_is_complete_and_linked() {
    let mut params = WorkflowParams::test_scale(tmp("complete"));
    params.years = 1;
    params.days_per_year = 8;
    params.train_samples = 60;
    params.train_epochs = 3;
    params.finetune_days = 0;

    let cs = CaseStudy::new(params).unwrap();
    let report = cs.run(RunOrder::AsYearsArrive).unwrap();

    // Every task appears in the provenance log as a completed activity.
    let prov = cs.rt.provenance();
    assert_eq!(prov.records().len(), report.tasks, "one record per task");
    assert!(prov.records().iter().all(|r| r.final_state == dataflow::TaskState::Completed));

    // The exported-products datum must trace back to the simulation, the
    // baseline, the imports and the index tasks.
    let exports =
        prov.records().iter().find(|r| r.name == "export_indices").expect("export task recorded");
    let lineage = prov.lineage(&exports.generated[0]);
    let names: Vec<&str> =
        lineage.iter().filter_map(|id| prov.task(*id).map(|r| r.name.as_str())).collect();
    for expected in [
        "export_indices",
        "validate_indices",
        "hw_number",
        "cw_number",
        "import_tmax",
        "import_tmin",
        "stage_year",
        "load_baseline",
    ] {
        assert!(names.contains(&expected), "lineage missing {expected}: {names:?}");
    }

    // The PROV document was exported and holds every relation type.
    let doc = std::fs::read_to_string(&report.prov_path).unwrap();
    assert!(doc.starts_with("document"));
    assert_eq!(doc.matches("activity(").count(), report.tasks);
    assert!(doc.contains("wasGeneratedBy("));
    assert!(doc.contains("used("));

    // Per-task workers and durations were captured for executed tasks.
    let with_worker = prov.records().iter().filter(|r| r.worker.is_some()).count();
    assert!(with_worker >= report.tasks - 1, "executed tasks must record a worker");

    cs.rt.shutdown();
}

#[test]
fn monitoring_reaches_quiescence_with_full_progress() {
    let mut params = WorkflowParams::test_scale(tmp("monitor"));
    params.years = 1;
    params.days_per_year = 6;
    params.train_samples = 60;
    params.train_epochs = 3;
    params.finetune_days = 0;

    let cs = CaseStudy::new(params).unwrap();
    cs.run(RunOrder::AsYearsArrive).unwrap();
    let snap = cs.rt.status();
    assert_eq!((snap.pending, snap.ready, snap.running), (0, 0, 0));
    assert_eq!(snap.completed, snap.total());
    assert_eq!(snap.failed, 0);
    cs.rt.shutdown();
}
