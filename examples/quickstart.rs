//! Quickstart: the whole paper in one binary.
//!
//! Runs the end-to-end climate-extremes workflow (ESM surrogate → datacube
//! heat/cold-wave indices → CNN + deterministic tropical-cyclone analysis)
//! on a laptop-sized configuration, printing the run report, the Figure-3
//! task-graph statistics and a Figure-4-style ASCII heat-wave map.
//!
//! ```text
//! cargo run --release --example quickstart [-- <years> <days_per_year>] [--graph]
//! ```

use climate_workflows::{run_pipelined, WorkflowParams};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let print_graph = args.iter().any(|a| a == "--graph");
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let years: usize = positional.first().and_then(|a| a.parse().ok()).unwrap_or(1);
    let days: usize = positional.get(1).and_then(|a| a.parse().ok()).unwrap_or(60);

    let out_dir = std::env::temp_dir().join("eflows-quickstart");
    std::fs::remove_dir_all(&out_dir).ok();

    let params = WorkflowParams {
        years,
        days_per_year: days,
        ..WorkflowParams::test_scale(out_dir.clone())
    };

    println!(
        "Running the climate-extremes workflow: {years} year(s) x {days} days on a {}x{} grid",
        params.grid.nlat, params.grid.nlon
    );
    println!("(output under {})\n", out_dir.display());

    let report = run_pipelined(params).expect("workflow failed");
    print!("{}", report.render());

    // Figure 4: the Heat Wave Number map of the first year, as ASCII art.
    if let Some(year) = report.years.first() {
        if let Some(map_txt) = year.map_paths.iter().find(|p| {
            p.file_name().map(|n| n.to_string_lossy().starts_with("hwn-map")).unwrap_or(false)
                && p.extension().map(|e| e == "txt").unwrap_or(false)
        }) {
            println!("\nHeat-Wave-Number map, year {} (Figure 4 equivalent):", year.year);
            println!("{}", std::fs::read_to_string(map_txt).unwrap_or_default());
        }
    }

    if print_graph {
        println!("\nTask graph (Figure 3 equivalent, Graphviz DOT):");
        println!("{}", std::fs::read_to_string(&report.dot_path).unwrap_or_default());
    } else {
        println!("\n(task graph DOT at {}; pass --graph to print it)", report.dot_path.display());
    }
}
