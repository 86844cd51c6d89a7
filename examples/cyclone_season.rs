//! Cyclone season: the Section-5.4 pipelines head to head.
//!
//! Runs one simulated season, then analyses it with both tropical-cyclone
//! approaches the paper integrates — the pre-trained CNN localization and
//! the deterministic detect-and-track scheme — and verifies each against
//! the simulator's ground-truth tracks (something the real workflow cannot
//! do, and the reason this repository injects events with known truth).
//!
//! ```text
//! cargo run --release --example cyclone_season [-- <days>]
//! ```

use climate_workflows::{pretrain_cnn, WorkflowParams};
use esm::{EsmConfig, Simulation};
use extremes::tc::cnn::{analysis_grid, FieldSet};
use extremes::tc::detect::{detect_timestep, DetectorParams};
use extremes::tc::metrics::verify;
use extremes::tc::track::{stitch_tracks, TrackParams};
use gridded::Field2;
use ncformat::Reader;

fn main() {
    let days: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(60);
    let out_dir = std::env::temp_dir().join("eflows-cyclone-season");
    std::fs::remove_dir_all(&out_dir).ok();

    // A cyclone-active season on the test grid.
    let mut cfg = EsmConfig::test_small().with_days_per_year(days).with_seed(777);
    cfg.tc_per_year = 18.0;
    let spd = cfg.timesteps_per_day;

    println!("Simulating a {days}-day season on a {}x{} grid...", cfg.grid.nlat, cfg.grid.nlon);
    let mut sim = Simulation::new(cfg.clone(), &out_dir).expect("cannot create simulation");
    let summary = sim.run_years(1, |_, _, _| {}).expect("simulation failed");
    let truth = &summary.truth[0];
    println!(
        "  {} files written ({:.1} MB), ground truth: {} cyclones",
        summary.files_written,
        summary.bytes_written as f64 / 1e6,
        truth.tcs.len()
    );
    for tc in &truth.tcs {
        let p0 = &tc.points[0];
        println!(
            "    TC#{:<2} genesis day {:>3} at ({:>6.1}, {:>6.1}), {} samples",
            tc.id,
            p0.day,
            p0.lat,
            p0.lon,
            tc.points.len()
        );
    }

    // Pre-train the CNN exactly as the workflow's load_model task does:
    // synthetic warm-up + fine-tuning on a labelled historical reference
    // run of the same model.
    println!(
        "\nPre-training the localization CNN (synthetic warm-up + reference-run fine-tuning)..."
    );
    let train_params = WorkflowParams {
        days_per_year: days,
        train_samples: 300,
        train_epochs: 14,
        finetune_days: 30,
        finetune_epochs: 12,
        ..WorkflowParams::test_scale(std::env::temp_dir().join("eflows-cyclone-train"))
    };
    train_params.validate().expect("invalid parameters");
    let cnn = pretrain_cnn(&train_params);
    println!("  {} parameters", cnn.param_count());

    // Analyse every timestep with both pipelines.
    let analysis = analysis_grid(esm::atmos::tc_radius_deg(&cfg.grid), cnn.patch);
    println!(
        "  CNN analysis grid {}x{} ({} tiles/timestep)\n",
        analysis.nlat,
        analysis.nlon,
        (analysis.nlat / cnn.patch) * (analysis.nlon / cnn.patch)
    );

    let mut per_step_detections = Vec::new();
    let mut cnn_centers = Vec::new();
    let params = DetectorParams::default();
    let mut files: Vec<_> = std::fs::read_dir(&out_dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().map(|e| e == "ncx").unwrap_or(false))
        .collect();
    files.sort();

    for (d, file) in files.iter().enumerate() {
        let rd = Reader::open(file).expect("cannot read day file");
        let nlat = rd.dimension("lat").unwrap().size;
        let nlon = rd.dimension("lon").unwrap().size;
        let grid = gridded::Grid::global(nlat, nlon);
        for s in 0..spd {
            let read = |var: &str| {
                let data = rd.read_slab_f32(var, &[s, 0, 0], &[1, nlat, nlon]).unwrap();
                Field2::from_vec(grid.clone(), data)
            };
            let set = FieldSet {
                psl: read("psl"),
                wind: read("sfcWind"),
                tas: read("tas"),
                vort: read("vort"),
            };
            per_step_detections
                .push(detect_timestep(&set.psl, &set.wind, &set.tas, &set.vort, &params));
            let regridded = set.regrid(&analysis);
            for det in cnn.localize_set(&regridded) {
                cnn_centers.push((d * spd + s, det.lat, det.lon));
            }
        }
    }

    let tracks = stitch_tracks(&per_step_detections, &TrackParams::default());
    println!("Deterministic pipeline: {} tracks", tracks.len());
    for (i, t) in tracks.iter().enumerate() {
        let max_wind = t.points.iter().map(|(_, d)| d.max_wind_ms).fold(0.0, f32::max);
        let (start, end) = (t.points[0].0, t.points[t.points.len() - 1].0);
        println!("  track {i}: steps {start}..{end}, max wind {max_wind:.1} m/s");
    }

    // Verification vs truth.
    let truth_centers: Vec<(usize, f64, f64)> = truth
        .tcs
        .iter()
        .flat_map(|t| t.points.iter().map(|p| (p.day * spd + p.step, p.lat, p.lon)))
        .collect();
    let det_centers: Vec<(usize, f64, f64)> = per_step_detections
        .iter()
        .enumerate()
        .flat_map(|(s, dets)| dets.iter().map(move |d| (s, d.lat, d.lon)))
        .collect();

    let det_scores = verify(&truth_centers, &det_centers, 1200.0);
    let cnn_scores = verify(&truth_centers, &cnn_centers, 1200.0);
    println!("\n=== Verification against ground truth (radius 1200 km) ===");
    println!(
        "  deterministic: POD {:.2}  FAR {:.2}  mean error {:>5.0} km  ({} hits / {} misses / {} false alarms)",
        det_scores.pod, det_scores.far, det_scores.mean_error_km,
        det_scores.hits, det_scores.misses, det_scores.false_alarms
    );
    println!(
        "  CNN:           POD {:.2}  FAR {:.2}  mean error {:>5.0} km  ({} hits / {} misses / {} false alarms)",
        cnn_scores.pod, cnn_scores.far, cnn_scores.mean_error_km,
        cnn_scores.hits, cnn_scores.misses, cnn_scores.false_alarms
    );
}
