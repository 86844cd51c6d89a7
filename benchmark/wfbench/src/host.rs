//! Host and commit stamp carried by every `result.json`, so two result
//! files can be compared without guessing where they came from.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn header(seed: u64, out_dir: &Path, quick: bool, seconds: f64) -> Json {
    let commit = stdout_of("git", &["rev-parse", "HEAD"]);
    let dirty = stdout_of("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let text = |v: Option<String>| v.map_or(Json::Null, Json::Str);
    Json::obj([
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64))),
        ("par_threads_env", text(std::env::var(par::THREADS_ENV).ok())),
        ("par_threads", Json::Num(par::global().threads() as f64)),
        // Outside a git checkout (the driver's copy) the commit is unknown.
        ("git_commit", text(commit)),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        ("rustc", text(stdout_of("rustc", &["-V"]))),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        ("out_dir", Json::Str(out_dir.display().to_string())),
        (
            "unix_time",
            Json::Num(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0.0, |d| d.as_secs() as f64),
            ),
        ),
    ])
}
