//! `climate-wf run` reuses the CNN it pre-trained into `--out`: a second
//! run with the same training inputs loads it, a run with other inputs
//! (here another `--seed`) trains and caches its own.

use std::path::Path;
use std::process::Command;

/// Runs `climate-wf run` at the smallest scale into `out` and returns the
/// report's `setup:` line.
fn setup_line(out: &Path, seed: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_climate-wf"))
        .args(["run", "--years", "1", "--days", "2", "--seed", seed, "--out"])
        .arg(out)
        .output()
        .expect("climate-wf runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "climate-wf failed:\n{stdout}");
    stdout
        .lines()
        .find(|l| l.starts_with("setup: CNN"))
        .unwrap_or_else(|| panic!("no setup line in:\n{stdout}"))
        .to_string()
}

#[test]
fn second_run_loads_the_cached_model_and_a_new_seed_retrains() {
    let out = std::env::temp_dir().join(format!("climate-wf-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&out).ok();

    let first = setup_line(&out, "42");
    assert!(first.contains("pre-trained"), "first run: {first}");
    let second = setup_line(&out, "42");
    assert!(second.contains("loaded"), "same inputs must reuse the model: {second}");
    // The run's own outputs were rebuilt, not left over.
    assert!(out.join("products").is_dir() && out.join("esm-out").is_dir());
    let reseeded = setup_line(&out, "7");
    assert!(reseeded.contains("pre-trained"), "a new seed must retrain: {reseeded}");
    let cached = std::fs::read_dir(&out)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with("tc_cnn-"))
        .count();
    assert_eq!(cached, 2, "one cached model per set of training inputs");
    std::fs::remove_dir_all(&out).ok();
}
