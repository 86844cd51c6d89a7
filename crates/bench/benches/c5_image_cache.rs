//! C5 — Container Image Creation: cold builds vs layer-cached rebuilds.
//!
//! Section 4.1's image service compiles workflow software per target
//! platform; the measurable property the paper's redeployment story rests
//! on is that a warm layer cache makes subsequent builds nearly free.
//! Recorded (virtual build cost, the service's own cost model): building
//! the case study's three images cold, rebuilding them warm, and building
//! a sibling workflow that shares the software prefix.

use bench::Record;
use hpcwaas::containers::{Arch, BuildService, ImageSpec};

fn specs() -> Vec<ImageSpec> {
    let mk = |name: &str, packages: &[&str]| ImageSpec {
        name: name.into(),
        base: "rockylinux9".into(),
        packages: packages.iter().map(|s| s.to_string()).collect(),
        arch: Arch::X86_64,
    };
    vec![
        mk("esm_image", &["mpi", "netcdf", "esm-surrogate"]),
        mk("analytics_image", &["mpi", "netcdf", "ophidia-engine"]),
        mk("ml_image", &["mpi", "netcdf", "tinyml", "tc-cnn-weights"]),
    ]
}

fn main() {
    let mut svc = BuildService::new();
    let mut build_all = || specs().iter().map(|s| svc.build(s).cost_ms).sum::<u64>() as f64;
    let (cold, warm) = (build_all(), build_all());
    let sibling = ImageSpec {
        name: "other_wf".into(),
        base: "rockylinux9".into(),
        packages: vec!["mpi".into(), "netcdf".into(), "other-app".into()],
        arch: Arch::X86_64,
    };
    let shared_prefix = svc.build(&sibling).cost_ms as f64;

    let mut rec = Record::new("c5_image_cache");
    rec.value("cold_build_3_images", "virtual_ms", [cold]);
    rec.value("warm_rebuild_3_images", "virtual_ms", [warm]);
    rec.value("sibling_workflow_shared_prefix", "virtual_ms", [shared_prefix]);
    rec.finish();
}
