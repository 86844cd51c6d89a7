//! Heat-wave atlas: multi-year index maps and a warming trend.
//!
//! Reproduces the Figure-4 product family across several simulated years:
//! for each year the workflow computes the three heat-wave indices, renders
//! the Heat-Wave-Number map (PPM + ASCII), and at the end prints the
//! multi-year trend — more heat-wave cells as greenhouse forcing grows,
//! the motivation of the paper's Section 5.
//!
//! ```text
//! cargo run --release --example heatwave_atlas [-- <years> <days_per_year> <scenario>]
//! ```

use climate_workflows::{run_pipelined, WorkflowParams};
use esm::Scenario;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let years: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(3);
    let days: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(90);
    let scenario = match args.get(2).map(|s| s.as_str()) {
        Some("historical") => Scenario::Historical,
        Some("ssp585") => Scenario::Ssp585,
        _ => Scenario::Ssp245,
    };

    let out_dir = std::env::temp_dir().join("eflows-heatwave-atlas");
    std::fs::remove_dir_all(&out_dir).ok();

    let params = WorkflowParams {
        years,
        days_per_year: days,
        scenario,
        // The atlas only needs the thermal indices; keep ML training light.
        train_samples: 120,
        train_epochs: 6,
        finetune_days: 10,
        finetune_epochs: 10,
        ..WorkflowParams::test_scale(out_dir.clone())
    };

    println!(
        "Heat-wave atlas: {years} year(s) x {days} days, scenario {scenario:?}, grid {}x{}",
        params.grid.nlat, params.grid.nlon
    );

    let report = run_pipelined(params).expect("workflow failed");

    println!("\n=== Yearly heat/cold wave summary ===");
    println!(
        "{:<6} {:>9} {:>9} {:>14} {:>8}",
        "year", "HW cells", "CW cells", "thermal truth", "valid"
    );
    for y in &report.years {
        println!(
            "{:<6} {:>9} {:>9} {:>14} {:>8}",
            y.year, y.heatwave_cells, y.coldspell_cells, y.truth_thermal_events, y.validated
        );
    }

    // Render each year's HWN map.
    for y in &report.years {
        if let Some(txt) = y.map_paths.iter().find(|p| {
            p.file_name().map(|n| n.to_string_lossy().starts_with("hwn-map")).unwrap_or(false)
                && p.extension().map(|e| e == "txt").unwrap_or(false)
        }) {
            println!("\nHeat-Wave-Number map, {} (files: {}):", y.year, txt.display());
            print!("{}", std::fs::read_to_string(txt).unwrap_or_default());
        }
    }

    // Bonus: the wider ETCCDI index family on the final year's output.
    etccdi_summary(&out_dir, days);

    println!("\nProducts written under {}", out_dir.join("products").display());
    println!(
        "Task graph: {} tasks / {} edges (dot: {})",
        report.tasks,
        report.edges,
        report.dot_path.display()
    );
}

/// Computes a handful of ETCCDI indices from the last simulated year's
/// daily files and prints global summaries.
fn etccdi_summary(out_dir: &std::path::Path, days: usize) {
    use datacube::exec::ExecConfig;
    use datacube::model::Cube;
    use datacube::ops::{self, ReduceOp};
    use extremes::etccdi;

    let cfg = ExecConfig::with_servers(2);
    let esm_dir = out_dir.join("esm-out");
    let mut files: Vec<_> =
        std::fs::read_dir(&esm_dir).unwrap().filter_map(|e| e.ok().map(|e| e.path())).collect();
    files.sort();
    let last_year: Vec<_> = files.iter().rev().take(days).rev().cloned().collect();

    let daily = |op: ReduceOp| -> Cube {
        let mut day_cubes = Vec::new();
        for (d, f) in last_year.iter().enumerate() {
            let rd = ncformat::Reader::open(f).unwrap();
            let c = ops::import_transposed(&rd, "tas", "time", "lat", "lon", 8, cfg).unwrap();
            let r = ops::reduce(&c, op, "time", cfg).unwrap();
            day_cubes.push(ops::add_singleton_implicit(&r, "day", d as f64).unwrap());
        }
        let refs: Vec<&Cube> = day_cubes.iter().collect();
        ops::concat_implicit(&refs, "day").unwrap()
    };
    let tmax = daily(ReduceOp::Max);
    let tmin = daily(ReduceOp::Min);

    let mean_of = |c: &Cube| {
        let d = c.to_dense();
        d.iter().map(|&v| v as f64).sum::<f64>() / d.len() as f64
    };
    println!("\n=== ETCCDI indices, final simulated year (global means) ===");
    println!(
        "  frost days      {:>7.1} d   summer days    {:>7.1} d",
        mean_of(&etccdi::frost_days(&tmin, cfg).unwrap()),
        mean_of(&etccdi::summer_days(&tmax, cfg).unwrap())
    );
    println!(
        "  icing days      {:>7.1} d   tropical nights{:>7.1} d",
        mean_of(&etccdi::icing_days(&tmax, cfg).unwrap()),
        mean_of(&etccdi::tropical_nights(&tmin, cfg).unwrap())
    );
    println!(
        "  TXx             {:>7.1} K   TNn            {:>7.1} K",
        mean_of(&etccdi::txx(&tmax, cfg).unwrap()),
        mean_of(&etccdi::tnn(&tmin, cfg).unwrap())
    );
}
