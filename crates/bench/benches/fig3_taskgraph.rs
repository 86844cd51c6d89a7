//! FIG3 — task-graph construction and rendering at projection scale.
//!
//! The paper's Figure 3 shows the runtime-built graph for one year and
//! notes a full projection repeats the per-year sub-graph for 30–35 years.
//! This bench builds case-study-shaped graphs for 1–35 years through the
//! real dependency-detection path and renders them to DOT, measuring the
//! bookkeeping cost a long projection imposes on the runtime.

use bench::Record;
use dataflow::graph::{Node, TaskGraph};
use dataflow::{DataRef, TaskId};

/// Builds the case-study graph shape for `years` years (16 tasks/year +
/// 2 one-off loads + chained ESM tasks), mirroring the workflow's real
/// submission pattern.
fn build_graph(years: usize) -> TaskGraph {
    let mut g = TaskGraph::new();
    let mut next_task = 1u64;
    let mut next_data = 1u64;
    let mut task = |g: &mut TaskGraph, name: &str, reads: Vec<DataRef>, writes: usize| {
        let id = TaskId(next_task);
        next_task += 1;
        let outs: Vec<DataRef> = (0..writes)
            .map(|k| {
                let d = DataRef { id: next_data, name: format!("{name}-{k}"), version: 1 };
                next_data += 1;
                d
            })
            .collect();
        g.add_node(Node { id, name: name.into(), reads, writes: outs.clone() });
        outs
    };

    let baseline = task(&mut g, "load_baseline", vec![], 2);
    let model = task(&mut g, "load_model", vec![], 1);
    let mut esm_prev: Option<DataRef> = None;
    for _ in 0..years {
        let esm = task(&mut g, "esm_simulation", esm_prev.iter().cloned().collect(), 1);
        esm_prev = Some(esm[0].clone());

        let stage = task(&mut g, "stage_year", vec![], 1);
        let tmax = task(&mut g, "import_tmax", vec![stage[0].clone()], 1);
        let tmin = task(&mut g, "import_tmin", vec![stage[0].clone()], 1);
        let mut indices = Vec::new();
        for (name, src, base) in [
            ("hw_duration_max", &tmax, &baseline[0]),
            ("hw_number", &tmax, &baseline[0]),
            ("hw_frequency", &tmax, &baseline[0]),
            ("cw_duration_max", &tmin, &baseline[1]),
            ("cw_number", &tmin, &baseline[1]),
            ("cw_frequency", &tmin, &baseline[1]),
        ] {
            let idx = task(&mut g, name, vec![src[0].clone(), base.clone()], 1);
            indices.push(idx[0].clone());
        }
        let validate = task(&mut g, "validate_indices", indices.clone(), 1);
        let mut exp_reads = indices.clone();
        exp_reads.push(validate[0].clone());
        task(&mut g, "export_indices", exp_reads, 1);
        let tcp = task(&mut g, "tc_preprocess", vec![stage[0].clone()], 1);
        task(&mut g, "tc_cnn_localize", vec![tcp[0].clone(), model[0].clone()], 1);
        task(&mut g, "tc_track_deterministic", vec![tcp[0].clone()], 1);
        task(
            &mut g,
            "render_maps",
            vec![indices[1].clone(), indices[4].clone(), validate[0].clone()],
            1,
        );
    }
    g
}

fn main() {
    let mut rec = Record::new("fig3_taskgraph");
    for years in [1usize, 10, 35] {
        let graph = build_graph(years);
        rec.value(format!("tasks/{years}"), "count", [graph.len() as f64]);
        rec.value(format!("edges/{years}"), "count", [graph.edges().len() as f64]);
        rec.value(format!("critical_path/{years}"), "count", [graph.critical_path_len() as f64]);
        rec.time(format!("build/{years}"), 10, || build_graph(years).len());
        rec.time(format!("to_dot/{years}"), 10, || graph.to_dot().len());
        rec.time(format!("critical_path_walk/{years}"), 10, || graph.critical_path_len());
    }
    rec.finish();
}
