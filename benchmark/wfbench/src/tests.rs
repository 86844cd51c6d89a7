//! Whole-benchmark tests: the quick in-process smoke and the agreement
//! between the binary's metric tables and `BENCHMARK.json`.

use super::*;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).expect("entry has a name").to_string())
        .collect()
}

#[test]
fn benchmark_json_matches_the_binary() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    assert_eq!(names(&doc, "workloads"), Workload::ALL.map(|w| w.name().to_string()));
    assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));

    let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, m) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit), "{}", m.name);
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound), "{}", m.name);
        let better = if m.higher_is_better { "higher" } else { "lower" };
        assert_eq!(entry.get("better").and_then(Json::as_str), Some(better), "{}", m.name);
    }
    let layer = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    assert_eq!(layer.len(), PER_LAYER.len());
    for (entry, (name, unit)) in layer.iter().zip(PER_LAYER) {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(name));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit), "{name}");
        assert!(matches!(entry.get("better").and_then(Json::as_str), Some("higher" | "lower")));
    }
}

/// `--quick` smoke, in process: every workload, untraced and traced, at
/// seconds-scale sizes (1 year x 12 days, 1 rep, 0.5 s serve phases);
/// each run must be correct and print exactly the metrics
/// `BENCHMARK.json` names, and `compare` must accept a set against itself.
#[test]
fn quick_smoke_produces_a_valid_result() {
    let bench = benchmark_json();
    let mut docs = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let work = WorkDir::create(&format!(
                "test-{}-{trace}-{}",
                workload.name(),
                std::process::id()
            ))
            .unwrap();
            let ctx =
                Ctx { workload, seed: 7, seconds: 1.0, trace, quick: true, work: work.0.clone() };
            let run = run_one(&ctx, measure)
                .unwrap_or_else(|e| panic!("{} trace {trace}: {e}", workload.name()));
            assert!(run.correct, "{} trace {trace}: {}", workload.name(), run.doc.pretty());

            let line = Json::parse(&result_line(&run.doc)).unwrap();
            let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            let printed: Vec<String> = line
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(printed, names(&bench, if trace { "per_layer" } else { "end_to_end" }));
            for (name, m) in line.get("metrics").and_then(Json::as_obj).unwrap() {
                let v = m.get("value").and_then(Json::as_f64).unwrap();
                assert!(v.is_finite() && (trace || v > 0.0), "{name} = {v}");
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(common::unit_of(name)));
            }
            assert_eq!(run.trace.is_some(), trace, "a traced run carries its probe spans");
            docs.push(run.doc);
        }
    }
    let result = Json::obj([
        ("header", host::header(7, Path::new("."), true, 1.0)),
        ("runs", Json::Arr(docs)),
    ]);
    let set = compare::load(&Json::parse(&result.pretty()).unwrap()).unwrap();
    assert_eq!(set.metrics.len(), Workload::ALL.len());
    let (text, regressed) = compare::compare(&set, &set);
    assert!(!regressed, "{text}");
}
