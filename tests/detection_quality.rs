//! C7 quality gates: the extreme-event pipelines must actually *find* the
//! events the simulator injected — not merely run. Thresholds are
//! deliberately below the typically observed scores (deterministic POD
//! ~0.7, CNN POD ~0.7-0.8 after fine-tuning) to keep the gates stable
//! across seeds while still catching real regressions.

use climate_workflows::{run_pipelined, WorkflowParams};
use esm::ThermalKind;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("root-quality").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn pipelines_detect_injected_events() {
    let params = WorkflowParams {
        years: 1,
        days_per_year: 60, // enough room for full events + TC seasons
        seed: 42,
        ..WorkflowParams::test_scale(tmp("quality"))
    };
    let report = run_pipelined(params).unwrap();
    let y = &report.years[0];

    // Ground truth exists for this seed (fixed, deterministic).
    assert!(y.truth_tcs >= 3, "seed should inject several cyclones, got {}", y.truth_tcs);
    assert!(y.truth_thermal_events >= 5, "thermal events expected, got {}", y.truth_thermal_events);

    // Heat/cold waves leave footprints in the index maps.
    assert!(y.heatwave_cells > 0, "no heat-wave cells found");
    assert!(y.coldspell_cells > 0, "no cold-spell cells found");
    assert!(y.validated);

    // Deterministic tracker: high precision, decent recall.
    let det = y.deterministic_scores.as_ref().expect("truth comparison available");
    assert!(det.pod >= 0.5, "deterministic POD {} too low", det.pod);
    assert!(det.far <= 0.10, "deterministic FAR {} too high", det.far);
    assert!(det.mean_error_km < 420.0, "center error {} km", det.mean_error_km);

    // CNN localization: viable recall with bounded false alarms.
    let cnn = y.cnn_scores.as_ref().expect("truth comparison available");
    assert!(cnn.pod >= 0.45, "CNN POD {} too low", cnn.pod);
    assert!(cnn.far <= 0.35, "CNN FAR {} too high", cnn.far);
    assert!(cnn.mean_error_km < 800.0, "CNN center error {} km", cnn.mean_error_km);
}

#[test]
fn strong_heatwave_is_localized_in_the_index_map() {
    // A fully-controlled single event: disable everything else and check
    // the HWN map lights up where (and only roughly where) the event was.
    use datacube::exec::ExecConfig;
    use extremes::heatwave::{compute_indices, WaveParams};

    let mut cfg = esm::EsmConfig::test_small().with_days_per_year(40).with_seed(5);
    cfg.tc_per_year = 0.0;
    cfg.heatwaves_per_year = 0.0;
    cfg.coldspells_per_year = 0.0;
    let warming = cfg.scenario.warming_k(cfg.start_year);

    // Build daily tmax (expected + one strong synthetic event) and the
    // matching baseline, then run the real index pipeline.
    let mut daily = Vec::new();
    let mut baseline_days = Vec::new();
    let event = esm::ThermalEvent {
        kind: ThermalKind::HeatWave,
        start_day: 10,
        duration: 9,
        center_lat: 45.0,
        center_lon: 100.0,
        radius_deg: 14.0,
        amplitude_k: 9.0,
    };
    for day in 0..cfg.days_per_year {
        let (tmax, _) = esm::model::expected_daily_extremes(&cfg, day, warming);
        let mut with_event = tmax.clone();
        let footprint = event.footprint(day);
        for i in 0..cfg.grid.nlat {
            for j in 0..cfg.grid.nlon {
                let a = footprint.as_ref().map_or(0.0, |f| f.at(cfg.grid.lat(i), cfg.grid.lon(j)));
                with_event.data[cfg.grid.index(i, j)] += a as f32;
            }
        }
        daily.push(with_event);
        baseline_days.push(tmax);
    }

    let to_cube = |days: &[gridded::Field2]| {
        let g = &cfg.grid;
        let nday = days.len();
        let mut data = vec![0.0f32; g.len() * nday];
        for (d, f) in days.iter().enumerate() {
            for idx in 0..f.data.len() {
                data[idx * nday + d] = f.data[idx];
            }
        }
        datacube::model::Cube::from_dense(
            "t",
            vec![
                datacube::model::Dimension::explicit("lat", g.lats()),
                datacube::model::Dimension::explicit("lon", g.lons()),
                datacube::model::Dimension::implicit(
                    "day",
                    (0..nday).map(|d| d as f64).collect::<Vec<_>>(),
                ),
            ],
            data,
            4,
            2,
        )
        .unwrap()
    };
    let daily_cube = to_cube(&daily);
    let baseline_cube = to_cube(&baseline_days);

    let idx = compute_indices(
        &daily_cube,
        &baseline_cube,
        WaveParams::default(),
        false,
        ExecConfig::with_servers(2),
    )
    .unwrap();

    let hwn = idx.number.to_dense();
    let g = &cfg.grid;
    let center_idx = g.index(g.lat_index(45.0), g.lon_index(100.0));
    assert!(hwn[center_idx] >= 1.0, "event center must register a wave");
    // Duration at the center matches the injected event (±1 for ramps).
    let hwd = idx.duration_max.to_dense();
    assert!(
        (7.0..=9.0).contains(&hwd[center_idx]),
        "duration {} at center, injected 9",
        hwd[center_idx]
    );
    // The antipode stays quiet.
    let far_idx = g.index(g.lat_index(-45.0), g.lon_index(280.0));
    assert_eq!(hwn[far_idx], 0.0, "false positive far from the event");
}
