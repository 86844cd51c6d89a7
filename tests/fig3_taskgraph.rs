//! FIG3: the runtime-produced task graph must reproduce the structure the
//! paper shows — one node per task invocation, one color per function,
//! per-year repetition of the analysis sub-graph while the ESM chain and
//! the one-off loads appear once.

use climate_workflows::{run_pipelined, WorkflowParams};

/// Dependency edges of one year's analysis sub-graph.
const YEAR_EDGES: usize = 34;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("root-fig3").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn small_params(name: &str, years: usize) -> WorkflowParams {
    WorkflowParams {
        years,
        days_per_year: 8,
        train_samples: 80,
        train_epochs: 4,
        finetune_days: 5,
        finetune_epochs: 4,
        ..WorkflowParams::test_scale(tmp(name))
    }
}

#[test]
fn one_year_graph_matches_paper_structure() {
    let report = run_pipelined(small_params("one-year", 1)).unwrap();
    // 18 distinct task functions, each submitted once for a single year.
    assert_eq!(report.function_counts.len(), 18);
    for (name, count) in &report.function_counts {
        assert_eq!(*count, 1, "function {name} should appear once for one year");
    }
    assert_eq!(report.tasks, 18);
    // The paper's figure is "quite complex" even for one year. Its edges:
    // stage -> 2 imports (2); each of 6 indices <- its import + the
    // baseline (12); validate <- 6 indices (6); export <- 6 indices +
    // validate (7); stage -> tc_preprocess (1); tc_cnn <- preprocess +
    // model (2); tc_track <- preprocess (1); render_maps <- HWN, CWN and
    // validate (3).
    assert_eq!(report.edges, YEAR_EDGES);
    // Critical path in tasks: stage -> import -> index -> validate ->
    // export (the ESM task hands its year over through files, not an edge).
    assert_eq!(report.critical_path, 5);
}

#[test]
fn multi_year_graph_repeats_analysis_but_not_loads() {
    let years = 3;
    let report = run_pipelined(small_params("multi-year", years)).unwrap();
    let count = |n: &str| *report.function_counts.get(n).unwrap_or(&0);
    // The paper: "in case of multiple years, the number of tasks would be
    // repeated with the exception of the first ones related to ESM run and
    // preliminary data loading".
    assert_eq!(count("load_baseline"), 1, "baseline loaded once");
    assert_eq!(count("load_model"), 1, "model loaded once");
    assert_eq!(count("esm_simulation"), years, "one ESM task per year, chained");
    for per_year in [
        "stage_year",
        "import_tmax",
        "import_tmin",
        "hw_duration_max",
        "hw_number",
        "hw_frequency",
        "cw_duration_max",
        "cw_number",
        "cw_frequency",
        "validate_indices",
        "export_indices",
        "tc_preprocess",
        "tc_cnn_localize",
        "tc_track_deterministic",
        "render_maps",
    ] {
        assert_eq!(count(per_year), years, "{per_year} should repeat per year");
    }
    assert_eq!(report.tasks, 2 + years * 16);
    // Each year's analysis sub-graph again, plus the ESM chain linking
    // consecutive years; the longest path stays one year's.
    assert_eq!(report.edges, years * YEAR_EDGES + (years - 1));
    assert_eq!(report.critical_path, 5);
}

#[test]
fn dot_rendering_is_wellformed_and_colored_per_function() {
    let report = run_pipelined(small_params("dot", 1)).unwrap();
    let dot = std::fs::read_to_string(&report.dot_path).unwrap();
    assert!(dot.starts_with("digraph workflow {"));
    assert!(dot.trim_end().ends_with('}'));
    // One node line per task, with a fill color and a tooltip naming the
    // function (the legend of Figure 3).
    let nodes = dot.lines().filter(|l| l.contains("label=\"#")).count();
    assert_eq!(nodes, report.tasks);
    let edges = dot.lines().filter(|l| l.contains("->")).count();
    assert_eq!(edges, report.edges);
    for func in ["esm_simulation", "hw_number", "tc_cnn_localize"] {
        assert!(dot.contains(&format!("tooltip=\"{func}\"")), "missing {func} in DOT");
    }
}
