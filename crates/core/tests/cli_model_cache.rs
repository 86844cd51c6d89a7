//! `climate-wf run` reuses the CNN it pre-trained into `--out`: a second
//! run with the same training inputs loads it, a run with other inputs
//! (here another `--seed`) trains and caches its own. The model it
//! pre-trains is the same file, byte for byte, at every pool width.

use std::path::Path;
use std::process::Command;

/// Runs `climate-wf run` at the smallest scale into `out`, on a pool of
/// `threads` lanes (the machine's width when `None`), and returns the
/// report's `setup:` line.
fn run_setup(out: &Path, seed: &str, threads: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_climate-wf"));
    cmd.args(["run", "--years", "1", "--days", "2", "--seed", seed, "--out"]).arg(out);
    if let Some(t) = threads {
        cmd.env("PAR_THREADS", t);
    }
    let output = cmd.output().expect("climate-wf runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "climate-wf failed:\n{stdout}");
    stdout
        .lines()
        .find(|l| l.starts_with("setup: CNN"))
        .unwrap_or_else(|| panic!("no setup line in:\n{stdout}"))
        .to_string()
}

/// The cached model files (`tc_cnn-<digest>.tml`) in `out`.
fn cached_models(out: &Path) -> Vec<std::path::PathBuf> {
    let mut models: Vec<_> = std::fs::read_dir(out)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("tc_cnn-"))
        .collect();
    models.sort();
    models
}

#[test]
fn second_run_loads_the_cached_model_and_a_new_seed_retrains() {
    let out = std::env::temp_dir().join(format!("climate-wf-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&out).ok();

    let first = run_setup(&out, "42", None);
    assert!(first.contains("pre-trained"), "first run: {first}");
    let second = run_setup(&out, "42", None);
    assert!(second.contains("loaded"), "same inputs must reuse the model: {second}");
    // The run's own outputs were rebuilt, not left over.
    assert!(out.join("products").is_dir() && out.join("esm-out").is_dir());
    let reseeded = run_setup(&out, "7", None);
    assert!(reseeded.contains("pre-trained"), "a new seed must retrain: {reseeded}");
    assert_eq!(cached_models(&out).len(), 2, "one cached model per set of training inputs");
    std::fs::remove_dir_all(&out).ok();
}

/// FNV-1a 64 of the model file this smallest-scale run (seed 42) caches,
/// as the serial per-sample trainer wrote it.
const MODEL_FNV1A: u64 = 0xefaa_c293_7bd6_c970;

/// Pre-training splits every minibatch over the pool's lanes, and every
/// gradient keeps its serial add order: the cached model is the same file
/// at 1, 2 and 4 lanes, and the same as the serial trainer's.
#[test]
fn pretrained_model_bytes_do_not_depend_on_pool_width() {
    for threads in ["1", "2", "4"] {
        let out =
            std::env::temp_dir().join(format!("climate-wf-width-{}-{threads}", std::process::id()));
        std::fs::remove_dir_all(&out).ok();
        let setup = run_setup(&out, "42", Some(threads));
        assert!(setup.contains("pre-trained"), "PAR_THREADS={threads}: {setup}");
        let models = cached_models(&out);
        assert_eq!(models.len(), 1, "PAR_THREADS={threads}: {models:?}");
        let bytes = std::fs::read(&models[0]).unwrap();
        let fnv = bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3));
        assert_eq!(fnv, MODEL_FNV1A, "PAR_THREADS={threads}: model bytes moved");
        std::fs::remove_dir_all(&out).ok();
    }
}
