//! `wfbench`: the end-to-end benchmark of the climate-extremes workflow.
//!
//! ```text
//! wfbench --workload W --seed N --seconds S --trace 0|1   one run (the contract form)
//! wfbench all [--workload W] [--seed N] [--runs K] [--out DIR] [--quick]
//! wfbench compare A.json B.json
//! ```
//!
//! One run = set-up in this process, then the measured work in a fresh
//! child process (fresh `par` pool, `obs` bus and cube cache; its peak
//! RSS excludes set-up). It prints every metric as
//! `workload metric value unit` and, last, one JSON object with the keys
//! `correct`, `attempted`, `failed`, `metrics`. The program under test is
//! reached only through its crates' public APIs; see `benchmark/README.md`.

mod check;
mod common;
mod compare;
mod cube;
mod host;
mod json;
mod probes;
mod schedule;
mod serve;
mod spans;
mod stats;
mod wf;

use common::{ChildReport, Ctx, Res, Workload, END_TO_END, PER_LAYER};
use json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Scratch root, inside the checkout the benchmark was started from.
const WORK_ROOT: &str = ".wfbench_work";
const DEFAULT_OUT: &str = ".wfbench_out";
const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;
/// A child that has not finished by then is killed: the whole run must
/// end within the contract's 180 s.
const CHILD_DEADLINE: Duration = Duration::from_secs(165);
/// Untraced reps of the single-lane (`PAR_THREADS=1`) baseline child.
const ONE_LANE_REPS: usize = 3;

/// Set-ups per run; `setup_s` is their median. CNN pre-training is five
/// seconds of one CPU-bound loop and runs once; the one-second set-ups
/// (staging a year of files, building the served cubes) run three times.
fn setup_reps(workload: Workload, quick: bool) -> usize {
    match workload {
        Workload::CubeAnalytics | Workload::ServeOpenLoop if !quick => 3,
        _ => 1,
    }
}

/// `--key value` pairs and bare words of a command line.
struct Args {
    flags: BTreeMap<String, String>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Res<Args> {
        let mut args = Args { flags: BTreeMap::new(), words: Vec::new() };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key @ ("quick" | "one-lane")) => {
                    args.flags.insert(key.to_string(), "1".to_string());
                }
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    args.flags.insert(key.to_string(), value.clone());
                }
                None => args.words.push(a.clone()),
            }
        }
        Ok(args)
    }

    fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Res<T> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} '{v}'")),
        }
    }

    fn ctx(&self, work: PathBuf) -> Res<Ctx> {
        let workload =
            Workload::parse(self.flags.get("workload").ok_or("--workload is required")?)?;
        let seconds: f64 = self.num("seconds", DEFAULT_SECONDS)?;
        if !(1.0..=60.0).contains(&seconds) {
            return Err(format!("--seconds {seconds} outside 1..=60"));
        }
        let trace = match self.flags.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("bad --trace '{other}' (0 or 1)")),
        };
        Ok(Ctx {
            workload,
            seed: self.num("seed", DEFAULT_SEED)?,
            seconds,
            trace,
            quick: self.has("quick"),
            work,
        })
    }
}

/// A scratch tree removed when the run ends, however it ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(name: &str) -> Res<WorkDir> {
        let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
        let dir = cwd.join(WORK_ROOT).join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // The root goes too once the last concurrent run has left it.
        if let Some(root) = self.0.parent() {
            std::fs::remove_dir(root).ok();
        }
    }
}

fn setup(ctx: &Ctx) -> Res<()> {
    match ctx.workload {
        Workload::WfStaged | Workload::WfStreaming => wf::setup(ctx),
        Workload::CubeAnalytics => cube::setup(ctx),
        Workload::ServeOpenLoop => serve::setup(ctx),
    }
}

/// Runs the measured child and reads its report back. With `one_lane`
/// the child gets `PAR_THREADS=1` and only times a few plain reps.
fn spawn_child(ctx: &Ctx, one_lane: bool) -> Res<ChildReport> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let report = ctx.path(if one_lane { "child-one-lane.json" } else { "child.json" });
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", ctx.workload.name()])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .args(["--trace", if ctx.trace { "1" } else { "0" }])
        .arg("--work")
        .arg(&ctx.work)
        .arg("--out")
        .arg(&report)
        .stdout(Stdio::null());
    if ctx.quick {
        cmd.arg("--quick");
    }
    if one_lane {
        cmd.arg("--one-lane").env(par::THREADS_ENV, "1");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn child: {e}"))?;
    let started = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait for child: {e}"))? {
            Some(status) => break status,
            None if started.elapsed() > CHILD_DEADLINE => {
                child.kill().ok();
                child.wait().ok();
                return Err(format!("child exceeded {CHILD_DEADLINE:?} and was killed"));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    if !status.success() {
        return Err(format!("measured child failed ({status})"));
    }
    let text = std::fs::read_to_string(&report).map_err(|e| format!("read child report: {e}"))?;
    ChildReport::from_json(&Json::parse(&text)?)
}

/// What the measured child does: the workload's reps and checks, or,
/// as the single-lane baseline, just a few plain timed reps.
fn measure(ctx: &Ctx, one_lane: bool) -> Res<ChildReport> {
    if one_lane {
        let mut r = ChildReport::default();
        let walls = match ctx.workload {
            Workload::WfStaged | Workload::WfStreaming => wf::plain_walls(ctx, ONE_LANE_REPS)?,
            Workload::CubeAnalytics => cube::plain_walls(ctx, ONE_LANE_REPS)?,
            Workload::ServeOpenLoop => Vec::new(),
        };
        r.samples.insert("wall_s".into(), walls);
        return Ok(r);
    }
    match ctx.workload {
        Workload::WfStaged | Workload::WfStreaming => wf::child(ctx),
        Workload::CubeAnalytics => cube::child(ctx),
        Workload::ServeOpenLoop => serve::child(ctx),
    }
}

/// The measured child (`wfbench child ...`, internal).
fn cmd_child(args: &Args) -> Res<()> {
    let work = PathBuf::from(args.flags.get("work").ok_or("child needs --work")?);
    let ctx = args.ctx(work)?;
    let out = PathBuf::from(args.flags.get("out").ok_or("child needs --out")?);
    let report = measure(&ctx, args.has("one-lane"))?;
    std::fs::write(&out, report.to_json().compact()).map_err(|e| format!("write child report: {e}"))
}

/// Everything one run produced, as written to `--report` and collected
/// into `result.json`.
struct RunDoc {
    doc: Json,
    correct: bool,
    trace: Option<Json>,
}

/// One run of one workload: timed set-up here, then the measured work
/// through `run_child` ([`spawn_child`] in production, so it runs in a fresh
/// process; [`measure`] in the in-process smoke test).
fn run_one(ctx: &Ctx, run_child: impl Fn(&Ctx, bool) -> Res<ChildReport>) -> Res<RunDoc> {
    let mut setup_samples = Vec::new();
    for _ in 0..setup_reps(ctx.workload, ctx.quick) {
        let t = Instant::now();
        setup(ctx)?;
        setup_samples.push(t.elapsed().as_secs_f64());
    }
    let mut child = run_child(ctx, false)?;

    let mut metrics: Vec<(String, f64)> = Vec::new();
    if ctx.trace {
        if ctx.workload != Workload::ServeOpenLoop {
            // The plain single-lane baseline of the same problem.
            let walls = run_child(ctx, true)?.samples.remove("wall_s").unwrap_or_default();
            if let Some(wall) = child.e2e.get("wall_s") {
                child.layer.insert("par.speedup_vs_1lane".into(), stats::median(&walls) / wall);
            }
            child.samples.insert("one_lane_wall_s".into(), walls);
        }
        for (name, _) in PER_LAYER {
            let v = child.layer.get(name).copied().unwrap_or(0.0);
            metrics.push((name.to_string(), if v.is_finite() { v } else { 0.0 }));
        }
    } else {
        child.e2e.insert("setup_s".into(), stats::median(&setup_samples));
        for m in &END_TO_END {
            match child.e2e.get(m.name) {
                Some(v) if v.is_finite() && *v > 0.0 => metrics.push((m.name.to_string(), *v)),
                other => child.fail(format!(
                    "{}: end-to-end metric {} is {other:?}, expected a positive number",
                    ctx.workload.name(),
                    m.name
                )),
            }
        }
    }
    let correct = child.errors.is_empty();

    for (name, value) in &metrics {
        println!("{} {name} {value} {}", ctx.workload.name(), common::unit_of(name));
    }
    println!("{} ops_attempted {} count", ctx.workload.name(), child.attempted);
    println!("{} ops_failed {} count", ctx.workload.name(), child.failed);
    for e in &child.errors {
        eprintln!("wfbench: CHECK FAILED: {e}");
    }

    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|(name, value)| {
                let unit = Json::Str(common::unit_of(name).to_string());
                (name.clone(), Json::obj([("value", Json::Num(*value)), ("unit", unit)]))
            })
            .collect(),
    );
    let child_json = child.to_json();
    let doc = Json::obj([
        ("workload", Json::Str(ctx.workload.name().into())),
        ("seed", Json::Num(ctx.seed as f64)),
        ("seconds", Json::Num(ctx.seconds)),
        ("trace", Json::Bool(ctx.trace)),
        ("quick", Json::Bool(ctx.quick)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(child.attempted.max(1) as f64)),
        ("failed", Json::Num(child.failed as f64)),
        ("errors", child_json.get("errors").cloned().unwrap_or(Json::Null)),
        ("metrics", metrics_json),
        ("setup_samples_s", Json::nums(&setup_samples)),
        ("samples", child_json.get("samples").cloned().unwrap_or(Json::Null)),
        (
            "sample_counts",
            Json::Obj(
                child.samples.iter().map(|(k, v)| (k.clone(), Json::Num(v.len() as f64))).collect(),
            ),
        ),
        ("info", child_json.get("info").cloned().unwrap_or(Json::Null)),
    ]);
    Ok(RunDoc { doc, correct, trace: child.trace })
}

/// The contract's last line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(doc: &Json) -> String {
    Json::Obj(
        ["correct", "attempted", "failed", "metrics"]
            .iter()
            .map(|k| (k.to_string(), doc.get(k).cloned().unwrap_or(Json::Null)))
            .collect(),
    )
    .compact()
}

/// `wfbench --workload W --seed N --seconds S --trace T`: one run.
fn cmd_run(args: &Args) -> Res<bool> {
    let name = format!(
        "{}-{}",
        args.flags.get("workload").map_or("run", String::as_str),
        std::process::id()
    );
    let work = WorkDir::create(&name)?;
    let ctx = args.ctx(work.0.clone())?;
    let run = run_one(&ctx, spawn_child)?;
    if let Some(path) = args.flags.get("report") {
        std::fs::write(path, run.doc.pretty()).map_err(|e| format!("write {path}: {e}"))?;
    }
    if let (Some(path), Some(trace)) = (args.flags.get("trace-out"), &run.trace) {
        std::fs::write(path, trace.compact()).map_err(|e| format!("write {path}: {e}"))?;
    }
    drop(work);
    println!("{}", result_line(&run.doc));
    Ok(run.correct)
}

/// `wfbench all`: every workload untraced (each run a fresh process),
/// then a separate traced pass; writes `result.json` and `trace.json`.
fn cmd_all(args: &Args) -> Res<bool> {
    let out_dir = PathBuf::from(args.flags.get("out").map_or(DEFAULT_OUT, String::as_str));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let seed: u64 = args.num("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.num("seconds", DEFAULT_SECONDS)?;
    let runs: u64 = args.num("runs", 1)?;
    let quick = args.has("quick");
    let workloads: Vec<Workload> = match args.flags.get("workload") {
        Some(w) => vec![Workload::parse(w)?],
        None => Workload::ALL.to_vec(),
    };
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;

    let mut docs: Vec<Json> = Vec::new();
    let mut traces: Vec<Json> = Vec::new();
    let mut all_correct = true;
    let mut one = |wl: Workload, seed: u64, trace: bool, docs: &mut Vec<Json>| -> Res<()> {
        let report = out_dir.join(format!("run-{}-{seed}-t{}.json", wl.name(), u8::from(trace)));
        let trace_out = out_dir.join(format!("trace-{}.json", wl.name()));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", wl.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--report")
            .arg(&report)
            .arg("--trace-out")
            .arg(&trace_out);
        if quick {
            cmd.arg("--quick");
        }
        let status = cmd.status().map_err(|e| format!("spawn run: {e}"))?;
        let text = std::fs::read_to_string(&report)
            .map_err(|e| format!("{} (trace {trace}) left no report ({status}): {e}", wl.name()))?;
        let doc = Json::parse(&text)?;
        all_correct &= status.success() && doc.get("correct").and_then(Json::as_bool) == Some(true);
        docs.push(doc);
        std::fs::remove_file(&report).ok();
        if trace {
            if let Ok(t) = std::fs::read_to_string(&trace_out) {
                traces.push(Json::parse(&t)?);
            }
            std::fs::remove_file(&trace_out).ok();
        }
        Ok(())
    };
    for wl in &workloads {
        for r in 0..runs {
            one(*wl, seed + r, false, &mut docs)?;
        }
    }
    for wl in &workloads {
        one(*wl, seed, true, &mut docs)?;
    }

    let result = Json::obj([
        ("header", host::header(seed, &out_dir, quick, seconds)),
        ("runs", Json::Arr(docs)),
    ]);
    write_file(&out_dir.join("result.json"), &result.pretty())?;
    // One Chrome trace: each workload's probe chain as its own process.
    let mut events = Vec::new();
    for (pid, trace) in traces.iter().enumerate() {
        for e in trace.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]) {
            let mut e = e.clone();
            if let Json::Obj(pairs) = &mut e {
                if let Some((_, v)) = pairs.iter_mut().find(|(k, _)| k == "pid") {
                    *v = Json::Num(pid as f64 + 1.0);
                }
            }
            events.push(e);
        }
    }
    let trace = Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ]);
    write_file(&out_dir.join("trace.json"), &trace.compact())?;
    eprintln!(
        "wfbench: wrote {} and {} ({})",
        out_dir.join("result.json").display(),
        out_dir.join("trace.json").display(),
        if all_correct { "all checks passed" } else { "CHECKS FAILED" }
    );
    Ok(all_correct)
}

fn write_file(path: &Path, text: &str) -> Res<()> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn cmd_compare(args: &Args) -> Res<bool> {
    let [_, a, b] = args.words.as_slice() else {
        return Err("usage: wfbench compare A.json B.json".into());
    };
    let load = |path: &String| -> Res<compare::RunSet> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        compare::load(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
    };
    let (text, regressed) = compare::compare(&load(a)?, &load(b)?);
    print!("{text}");
    Ok(!regressed)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Args::parse(&raw).and_then(|args| match args.words.first().map(String::as_str) {
        Some("child") => cmd_child(&args).map(|()| true),
        Some("compare") => cmd_compare(&args),
        Some("all") => cmd_all(&args),
        // A bare `--workload W --trace T` is the contract's single run;
        // without `--trace` it is the two-pass record of that workload.
        None if args.has("trace") => cmd_run(&args),
        None => cmd_all(&args),
        Some(other) => Err(format!("unknown command '{other}' (all, compare)")),
    });
    match outcome {
        Ok(true) => {}
        // A result was printed, but a check failed (or B regressed).
        Ok(false) => std::process::exit(3),
        Err(e) => {
            eprintln!("wfbench: error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests;
