//! FIG2 / Section 4.1: the full HPCWaaS lifecycle around the real workflow
//! — registry, TOSCA deployment through the orchestrator (container builds,
//! deploy-time data pipeline), REST-style invocation, status, undeploy.

use climate_workflows::register_with_hpcwaas;
use datacube::model::{Cube, Dimension};
use datacube::CubeCache;
use hpcwaas::containers::{Arch, BuildService, ImageSpec};
use hpcwaas::dls::{DataLogistics, PipelineSpec};
use hpcwaas::orchestrator::{DeploymentPlan, Orchestrator};
use hpcwaas::tosca::climate_case_study;
use hpcwaas::{Error, ExecutionApi, ExecutionStatus, ServeConfig, TenantQuota};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("root-e2e").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn deployment_plan_reflects_figure_2_structure() {
    let topo = climate_case_study();
    let plan = DeploymentPlan::derive(&topo).unwrap();
    // Infrastructure first, application last.
    assert_eq!(plan.order.first().unwrap(), "zeus");
    assert_eq!(plan.order.last().unwrap(), "workflow");
    // The middleware and every image precede the workflow app.
    let pos = |n: &str| plan.order.iter().position(|x| x == n).unwrap();
    for dep in ["pycompss", "esm_image", "analytics_image", "ml_image", "baseline_data"] {
        assert!(pos(dep) < pos("workflow"), "{dep} must start before the workflow");
    }
}

#[test]
fn orchestrator_builds_images_and_stages_data() {
    let mut orch = Orchestrator::new();
    let record = orch.deploy(&climate_case_study()).unwrap();
    // Three container images, each with base + package layers.
    assert_eq!(orch.images.builds(), 3);
    // The baseline stage-in ran through the DLS.
    assert_eq!(orch.dls.history().len(), 1);
    assert_eq!(orch.dls.history()[0].total_bytes, 4_000_000);
    // Lifecycle: every template got create/configure/start.
    let creates = record.steps.iter().filter(|s| s.operation == "create").count();
    assert_eq!(creates, 7);
}

#[test]
fn full_user_journey_deploy_run_undeploy() {
    let api = ExecutionApi::default();
    register_with_hpcwaas(&api, tmp("journey"));

    // Deploy.
    let dep = api.deploy("climate-extremes").unwrap();
    let cold_cost = api.deployment_cost_ms(dep).unwrap();
    assert!(cold_cost > 0);

    // Run with overrides, exactly like the paper's configurable invocation.
    let mut inputs = BTreeMap::new();
    inputs.insert("years".into(), "1".into());
    inputs.insert("days_per_year".into(), "10".into());
    inputs.insert("seed".into(), "11".into());
    let handle = api.submit(dep, &inputs).unwrap();
    let ExecutionStatus::Completed { result } = handle.wait() else {
        panic!("workflow should complete");
    };
    assert!(result.contains("year 2030"));
    assert!(result.contains("task graph: 18 tasks"));

    // A second deployment shares the image layer cache (C5's effect
    // observed through the public API).
    let dep2 = api.deploy("climate-extremes").unwrap();
    assert!(api.deployment_cost_ms(dep2).unwrap() < cold_cost);

    // Undeploy both; further runs must be rejected.
    api.undeploy(dep).unwrap();
    api.undeploy(dep2).unwrap();
    assert!(api.submit(dep, &inputs).is_err());
}

/// C5 (Section 4.1): the image service's layer cache. Building the case
/// study's three images cold builds one base and six package layers (the
/// images share base, mpi and netcdf); rebuilding them is free; a sibling
/// workflow sharing that prefix pays for its one new layer.
#[test]
fn c5_layer_cache_makes_rebuilds_free() {
    let image = |name: &str, packages: &[&str]| ImageSpec {
        name: name.into(),
        base: "rockylinux9".into(),
        packages: packages.iter().map(|p| p.to_string()).collect(),
        arch: Arch::X86_64,
    };
    let case_study = [
        image("esm_image", &["mpi", "netcdf", "esm-surrogate"]),
        image("analytics_image", &["mpi", "netcdf", "ophidia-engine"]),
        image("ml_image", &["mpi", "netcdf", "tinyml", "tc-cnn-weights"]),
    ];
    let mut svc = BuildService::new();
    let mut build_all = || case_study.iter().map(|s| svc.build(s).cost_ms).sum::<u64>();
    assert_eq!(build_all(), 2_600, "cold: 1 base (800) + 6 distinct package layers (300 each)");
    assert_eq!(build_all(), 0, "warm: every layer cached");
    let sibling = svc.build(&image("other_wf", &["mpi", "netcdf", "other-app"]));
    assert_eq!((sibling.cost_ms, sibling.built), (300, 1));
}

/// A2 (Section 4.1): the DLS stages data at deployment or at execution
/// time. Over its one link (100 MB/s, 50 ms) the 4 GB baseline staged once
/// at deployment costs 40 050 virtual ms; staging a 400 MB subset per year
/// at run time costs 4 050 ms a year. Run-time staging is cheaper up to 9
/// years (36 450 ms), deploy-time from 10 (40 500 ms).
#[test]
fn a2_deploy_time_staging_wins_from_ten_years() {
    let stage = |label: &str, bytes| PipelineSpec::new().stage(label, bytes);
    let deploy_time = DataLogistics::new().execute(&stage("baseline", 4_000_000_000)).total_ms;
    assert_eq!(deploy_time, 40_050);
    let run_time = |years: usize| {
        let mut dls = DataLogistics::new();
        (0..years).map(|y| dls.execute(&stage(&format!("subset-{y}"), 400_000_000)).total_ms).sum()
    };
    let (nine, ten): (u64, u64) = (run_time(9), run_time(10));
    assert_eq!((nine, ten), (36_450, 40_500));
    assert!(nine < deploy_time && deploy_time < ten);
}

/// Section 6 as a service: four tenants send one fixed, overlapping request
/// list (three shared cubes; every fourth round carries no per-request tag,
/// so identical requests exist) while the entrypoints are held at a gate,
/// which makes every admission decision independent of timing. Every
/// offered request is admitted, coalesced onto an admitted one, or refused
/// with a typed rejection — nothing is lost or counted twice — and the one
/// `CubeCache` behind the API serves the tenants' overlap.
#[test]
fn four_tenants_conserve_requests_and_share_the_cube_cache() {
    const TENANTS: usize = 4;
    const CUBES: usize = 3;
    const IN_FLIGHT_CAP: usize = 8;
    let api = ExecutionApi::with_config(ServeConfig {
        workers: 2,
        queue_capacity: 128,
        default_quota: TenantQuota::default(),
    });
    let cache = Arc::new(CubeCache::new(64 << 20));
    let gate = Arc::new(AtomicBool::new(false));
    {
        let (cache, gate) = (Arc::clone(&cache), Arc::clone(&gate));
        api.register(climate_case_study(), move |inputs| {
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let key = &inputs["cube"];
            let cube = cache
                .get_or_load(key, || {
                    let phase = key.len() as f32 + key.bytes().map(f32::from).sum::<f32>();
                    let axis = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
                    Cube::from_dense(
                        "probe",
                        vec![
                            Dimension::explicit("lat", axis(24)),
                            Dimension::explicit("lon", axis(24)),
                            Dimension::implicit("day", axis(16)),
                        ],
                        (0..24 * 24 * 16).map(|i| (i as f32 * 0.001 + phase).sin()).collect(),
                        4,
                        2,
                    )
                })
                .map_err(|e| e.to_string())?;
            Ok(format!("{key} sum={:.3}", cube.to_dense().iter().map(|v| *v as f64).sum::<f64>()))
        });
    }
    let dep = api.deploy("climate-extremes").unwrap();
    for t in 0..TENANTS {
        // The heavy/light mix of a shared service: even tenants weigh double.
        let weight = if t % 2 == 0 { 2 } else { 1 };
        let quota = TenantQuota { max_in_flight: IN_FLIGHT_CAP, weight, ..TenantQuota::default() };
        api.set_quota(&format!("tenant-{t}"), quota);
    }

    let (mut offered, mut rejected) = (0u64, 0u64);
    let mut handles = Vec::new();
    for i in 0..64usize {
        let (tenant, round) = (i % TENANTS, i / TENANTS);
        let mut inputs =
            BTreeMap::from([("cube".to_string(), format!("cube-{}", (i * 7) % CUBES))]);
        if round % 4 != 0 {
            inputs.insert("req".to_string(), i.to_string());
        }
        offered += 1;
        match api.submit_as(&format!("tenant-{tenant}"), dep, &inputs) {
            Ok(handle) => handles.push(handle),
            Err(Error::Rejected(_)) => rejected += 1,
            Err(e) => panic!("untyped refusal: {e}"),
        }
    }

    // Nothing has finished yet, so the counts are exact: the untagged
    // rounds collapse onto one execution per cube, and each tenant is
    // refused everything past its in-flight cap.
    let stats = api.serve_stats();
    assert_eq!(stats.rejected(), rejected);
    assert_eq!(offered, stats.admitted + stats.coalesced + stats.rejected(), "{stats:?}");
    assert_eq!(stats.coalesced, 16 - CUBES as u64, "{stats:?}");
    assert!(stats.rejected_quota > 0 && stats.rejected_quota == stats.rejected(), "{stats:?}");
    assert!(stats.admitted as usize <= TENANTS * IN_FLIGHT_CAP, "{stats:?}");

    gate.store(true, Ordering::SeqCst);
    for handle in &handles {
        assert!(matches!(handle.wait(), ExecutionStatus::Completed { .. }));
    }
    let cached = cache.stats();
    assert_eq!(
        cached.lookups(),
        stats.admitted,
        "one lookup per execution, none per coalesced join"
    );
    assert_eq!(cached.misses, CUBES as u64, "each shared cube is built once for all tenants");
    // Every lookup but a miss avoided the loader: a hit rate above 0.5.
    assert!(2 * cached.misses < cached.lookups(), "cross-tenant hit rate <= 0.5: {cached:?}");
}
