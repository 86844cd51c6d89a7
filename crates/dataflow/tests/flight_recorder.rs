//! A failing task must trigger a flight-recorder dump: the most recent
//! bus events land as JSONL next to the run, even with no subscriber
//! attached (the ring records independently of subscription).

use dataflow::prelude::*;

#[test]
fn task_failure_dumps_flight_jsonl() {
    let dir = std::env::temp_dir().join("dataflow-flight-e2e");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("flight.jsonl");
    obs::flight::set_dump_path(&dump);
    obs::flight::enable();

    let rt = Runtime::new(RuntimeConfig::with_cpu_workers(2));
    let ok = rt.task("healthy").writes(&["a"]).run(|_| Ok(vec![Bytes::from_u64(1)])).unwrap();
    let boom = rt
        .task("boom")
        .reads(&[ok.outputs[0].clone()])
        .writes(&["b"])
        .on_failure(FailurePolicy::IgnoreCancelSuccessors)
        .run(|_| Err("injected failure".to_string()))
        .unwrap();
    assert!(rt.fetch(&boom.outputs[0]).is_err(), "task was built to fail");
    rt.shutdown();

    let text = std::fs::read_to_string(&dump).expect("failure should have dumped the recorder");
    let mut lines = text.lines();
    let header = lines.next().expect("dump starts with a header line");
    assert!(header.contains("\"flight_dump\""), "header: {header}");
    assert!(header.contains("task_failed"), "reason names the failed task: {header}");
    assert!(header.contains("boom"));
    // Body lines are the ring contents, one JSON event each; the failing
    // task's lifecycle must be in the recent window.
    let body: Vec<&str> = lines.collect();
    assert!(!body.is_empty());
    assert!(body.iter().any(|l| l.contains("task_finished") && l.contains("boom")));
}
