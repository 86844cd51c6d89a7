//! `climate-wf run` reuses the CNN it pre-trained into `--out`: a second
//! run with the same training inputs loads it, a run with other inputs
//! (here another `--seed`) trains and caches its own. The model it
//! pre-trains is the same file, byte for byte, at every pool width. Under
//! its `setup:` line, `report` splits the process's wall clock into set-up,
//! workflow and the rest.

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

/// `"1.234s"` → 1234 (milliseconds).
fn millis(secs: &str) -> u64 {
    let (whole, frac) = secs.strip_suffix('s').and_then(|s| s.split_once('.')).expect("N.NNNs");
    assert_eq!(frac.len(), 3, "{secs}");
    whole.parse::<u64>().unwrap() * 1000 + frac.parse::<u64>().unwrap()
}

/// `climate-wf report` prints, right under `setup:`, `process wall: X =
/// setup Y + workflow Z + other W`, timed from the start of `main`: the
/// parts sum to X, Y is the set-up just reported and Z the workflow's
/// `wall time`, to the millisecond.
#[test]
fn report_splits_the_process_wall_under_setup() {
    let out = std::env::temp_dir().join(format!("climate-wf-wall-{}", std::process::id()));
    std::fs::remove_dir_all(&out).ok();
    let output = Command::new(env!("CARGO_BIN_EXE_climate-wf"))
        .args(["report", "--years", "1", "--days", "2", "--out"])
        .arg(&out)
        .output()
        .expect("climate-wf runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "climate-wf failed:\n{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    let at = lines.iter().position(|l| l.starts_with("setup: CNN")).expect("a setup line");
    let wall = lines[at + 1];
    let rest = wall.strip_prefix("process wall: ").unwrap_or_else(|| panic!("got:\n{stdout}"));
    let parts: Vec<&str> = rest.split(' ').collect();
    let [x, "=", "setup", y, "+", "workflow", z, "+", "other", w] = parts[..] else {
        panic!("malformed: {wall}")
    };
    let [x, y, z, w] = [x, y, z, w].map(millis);
    assert_eq!(y + z + w, x, "{wall}");
    // The first value after `prefix` on its line, a `{:.2?}` Duration, in s.
    let secs = |prefix: &str| -> f64 {
        let line = lines.iter().find(|l| l.starts_with(prefix)).expect(prefix);
        let v = line[prefix.len()..].split_whitespace().next().unwrap();
        let unit_at = v.find(|c: char| c.is_alphabetic() || c == '\u{b5}').unwrap();
        let scale = match &v[unit_at..] {
            "s" => 1.0,
            "ms" => 1e-3,
            _ => 1e-6,
        };
        v[..unit_at].parse::<f64>().unwrap() * scale
    };
    // `wall time: 1.23s` and `setup: CNN pre-trained in 0.89s` round to
    // two decimals; the process wall truncates to the millisecond.
    let close = |ms: u64, s: f64| (ms as f64 / 1e3 - s).abs() <= 0.006 + s * 0.01;
    assert!(close(z, secs("wall time: ")), "{wall} vs the wall time line");
    assert!(close(y, secs("setup: CNN pre-trained in ")), "{wall} vs the setup line");
    std::fs::remove_dir_all(&out).ok();
}
