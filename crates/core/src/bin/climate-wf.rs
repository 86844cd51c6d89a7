//! `climate-wf` — command-line front end for the end-to-end workflow.
//!
//! ```text
//! climate-wf run [--years N] [--days N]
//!                [--grid test_small|demo|cmcc_cm3|LATxLON]
//!                [--scenario historical|ssp245|ssp585] [--seed N]
//!                [--workers N] [--out DIR] [--sequential]
//!                [--streaming] [--stream-depth N]
//!                [--trace out.json] [--metrics out.prom]
//!                                      (trace and metrics are folds of
//!                                      the run's event stream)
//! climate-wf report [run options]      `run` plus a profile: pool
//!                                      utilization, latency percentiles,
//!                                      crash flight recorder armed
//! climate-wf chaos [--seed N] [--faults N] [--out DIR]
//!                                      seeded fault-injection smoke run with
//!                                      checkpoint-resume recovery
//! climate-wf graph [--years N]         print the Figure-3 DOT graph
//! climate-wf topology                  print the case study's TOSCA document
//! climate-wf ncdump FILE.ncx           inspect an NCX file header
//! climate-wf info                      paper-scale data arithmetic (Sec. 5.2)
//! ```
//!
//! A flag the subcommand does not list is rejected with the usage text.

use climate_workflows::{run_pipelined, run_sequential, WorkflowParams};
use std::collections::BTreeMap;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: climate-wf <run|report|chaos|graph|topology|ncdump|info> [options]\n\
         \n\
         run      [--years N] [--days N] [--grid test_small|demo|cmcc_cm3|LATxLON]\n\
         \x20        [--scenario historical|ssp245|ssp585] [--seed N] [--workers N]\n\
         \x20        [--out DIR] [--sequential]\n\
         \x20        [--trace out.json] [--metrics out.prom] Chrome trace and\n\
         \x20        Prometheus dump, both folds of the run's event stream\n\
         \x20        [--streaming] [--stream-depth N] in-memory year handoff\n\
         \x20        with incremental record indices\n\
         report   [run options] `run` plus a profile: pool utilization and latency\n\
         \x20        percentile tables after the workflow report; arms the crash\n\
         \x20        flight recorder (dumps JSONL on failure)\n\
         chaos    [--seed N] [--faults N] [--out DIR] run a tiny checkpointed\n\
         \x20        workflow under a seeded fault plan; on failure, resume from\n\
         \x20        the checkpoint (always dumps the flight recorder as JSONL)\n\
         graph    [--years N]   print the task graph in Graphviz DOT\n\
         topology               print the TOSCA topology document\n\
         ncdump FILE            inspect an NCX file\n\
         info                   paper-scale data characteristics"
    );
    std::process::exit(2)
}

/// The flags `run` and `report` accept.
const RUN_FLAGS: &[&str] = &[
    "years",
    "days",
    "grid",
    "scenario",
    "seed",
    "workers",
    "out",
    "sequential",
    "streaming",
    "stream-depth",
    "trace",
    "metrics",
];

/// Every subcommand with the flags it accepts. `main` rejects any other
/// flag with the usage text rather than ignoring it, so a typo (`--day 5`,
/// `graph --yaers 3`) cannot silently run the defaults.
const SUBCOMMANDS: &[(&str, &[&str])] = &[
    ("run", RUN_FLAGS),
    ("report", RUN_FLAGS),
    ("chaos", &["seed", "faults", "out"]),
    ("graph", &["years"]),
    ("topology", &[]),
    ("ncdump", &[]),
    ("info", &[]),
];

/// The first flag `cmd` does not accept, if any; `None` for an unknown
/// subcommand too (`main` rejects that on its own).
fn unknown_flag<'a>(cmd: &str, flags: &'a BTreeMap<String, String>) -> Option<&'a str> {
    let accepted = SUBCOMMANDS.iter().find(|(name, _)| *name == cmd)?.1;
    flags.keys().map(String::as_str).find(|k| !accepted.contains(k))
}

/// Parses `--key value` pairs and bare flags from an argument list.
/// Returns `(flags, positional)`.
fn parse_args(args: &[String]) -> (BTreeMap<String, String>, Vec<String>) {
    let mut flags = BTreeMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let takes_value = !matches!(key, "sequential" | "streaming");
            if takes_value && i + 1 < args.len() {
                flags.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(key.to_string(), "true".to_string());
                i += 1;
            }
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    (flags, positional)
}

/// Builds workflow parameters from parsed flags (reusing the HPCWaaS input
/// mapping so the CLI and the Execution API accept the same keys).
fn params_from_flags(flags: &BTreeMap<String, String>) -> Result<WorkflowParams, String> {
    let out_dir = flags
        .get("out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("climate-wf-run"));
    let mut inputs = BTreeMap::new();
    for (k, v) in flags {
        let key = match k.as_str() {
            "years" => "years",
            "days" => "days_per_year",
            "grid" => "grid",
            "scenario" => "scenario",
            "seed" => "seed",
            "workers" => "workers",
            "streaming" => "streaming",
            "stream-depth" => "stream_depth",
            _ => continue,
        };
        inputs.insert(key.to_string(), v.clone());
    }
    WorkflowParams::test_scale(out_dir).apply_inputs(&inputs)
}

/// Removes what an earlier run left under `--out`: the ESM's daily files,
/// the products, the task graph, the provenance record and the flight
/// dump. The CNN cached there is kept, so the next run with the same
/// training inputs loads it instead of pre-training again.
fn clear_run_outputs(params: &WorkflowParams) {
    for dir in [params.esm_dir(), params.products_dir()] {
        std::fs::remove_dir_all(dir).ok();
    }
    for file in ["taskgraph.dot", "provenance.prov.txt", "flight.jsonl"] {
        std::fs::remove_file(params.out_dir.join(file)).ok();
    }
}

/// `climate-wf run` and `climate-wf report`: one body. The workflow report
/// already carries the timed critical path, slack and what-if speedups;
/// `profile` (the `report` subcommand) additionally arms the crash flight
/// recorder for the whole run — a task failure or panic dumps the most
/// recent events as JSONL next to the workflow outputs — and appends the
/// compute-pool utilization and latency percentile tables. `started` is
/// when the process's `main` began, the origin of the report's
/// `process wall:` line.
fn cmd_run(
    flags: &BTreeMap<String, String>,
    profile: bool,
    started: Instant,
) -> Result<(), String> {
    let params = params_from_flags(flags)?;
    clear_run_outputs(&params);
    let sequential = flags.contains_key("sequential");
    println!(
        "running the climate-extremes workflow ({}): {} year(s) x {} days on {}x{}",
        if sequential {
            "sequential"
        } else if params.streaming {
            "streaming"
        } else {
            "pipelined"
        },
        params.years,
        params.days_per_year,
        params.grid.nlat,
        params.grid.nlon
    );

    let flight_path = params.out_dir.join("flight.jsonl");
    if profile {
        std::fs::create_dir_all(&params.out_dir).map_err(|e| e.to_string())?;
        obs::flight::set_dump_path(&flight_path);
        obs::flight::install_panic_hook();
        obs::flight::enable();
    }

    // One observability tap serves --trace, --metrics and the profile:
    // each is a fold of the run's event stream. Subscribing before the run
    // activates the global bus; with none of them the workflow never pays
    // more than an atomic load per would-be event.
    let trace_path = flags.get("trace");
    let metrics_path = flags.get("metrics");
    let tap = (trace_path.is_some() || metrics_path.is_some() || profile)
        .then(|| obs::global().subscribe_with_capacity(1 << 21));

    let mut report = if sequential { run_sequential(params) } else { run_pipelined(params) }?;
    report.process_wall = Some(started.elapsed());
    print!("{}", report.render());
    println!("provenance: {}", report.prov_path.display());
    let Some(rx) = tap else { return Ok(()) };
    let events = rx.drain();
    if profile {
        print_profile(&events);
        if report.metrics.failed > 0 {
            println!("flight recorder: {} (dumped on task failure)", flight_path.display());
        }
    }
    if let Some(path) = trace_path {
        std::fs::write(path, obs::chrome_trace(&events)).map_err(|e| e.to_string())?;
        println!(
            "trace: {path} ({} events{})",
            events.len(),
            if rx.dropped() > 0 { format!(", {} dropped", rx.dropped()) } else { String::new() }
        );
    }
    if let Some(path) = metrics_path {
        std::fs::write(path, obs::prometheus(&events, rx.dropped())).map_err(|e| e.to_string())?;
        println!("metrics: {path}");
    }
    Ok(())
}

/// The profile tables of `climate-wf report`: the global pool's
/// per-worker profile, and latency percentiles folded from the run's
/// events.
fn print_profile(events: &[obs::Event]) {
    println!("pool utilization:");
    for w in par::global().worker_stats() {
        println!(
            "  worker {:>2}: {:>5.1}% busy ({} tasks, {}ms busy / {}ms idle)",
            w.worker,
            w.utilization() * 100.0,
            w.tasks,
            w.busy_us / 1000,
            w.idle_us / 1000
        );
    }

    println!("latency percentiles (\u{b5}s):");
    println!("  {:<40} {:>8} {:>8} {:>8} {:>8}", "histogram", "count", "p50", "p95", "p99");
    for (name, h) in obs::histograms(events) {
        if !name.contains("_us") || h.count() == 0 {
            continue;
        }
        println!(
            "  {:<40} {:>8} {:>8.0} {:>8.0} {:>8.0}",
            name,
            h.count(),
            h.percentile(0.50),
            h.percentile(0.95),
            h.percentile(0.99)
        );
    }
}

/// `climate-wf chaos`: run a tiny checkpointed workflow under a seeded
/// fault plan. The plan is printed up front (same seed → same plan →
/// same faults), tasks retry with deterministic backoff, and if the
/// armed run still dies the command disarms chaos and resumes from the
/// checkpoint log — demonstrating the full fault-injection / recovery
/// loop. The flight recorder is armed throughout and always dumped as
/// JSONL so post-mortem tooling can be validated against it.
fn cmd_chaos(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let get_u64 = |key: &str, default: u64| -> Result<u64, String> {
        flags.get(key).map_or(Ok(default), |v| v.parse().map_err(|_| format!("bad {key} '{v}'")))
    };
    let seed = get_u64("seed", 7)?;
    let faults = get_u64("faults", 3)? as usize;
    let out_dir = flags
        .get("out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("climate-wf-chaos"));
    std::fs::remove_dir_all(&out_dir).ok();
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;

    let flight_path = out_dir.join("chaos-flight.jsonl");
    obs::flight::set_dump_path(&flight_path);
    obs::flight::install_panic_hook();
    obs::flight::enable();

    let plan = dataflow::inject::FaultPlan::from_seed(seed, faults);
    println!("{plan}");

    let params = || WorkflowParams {
        years: 1,
        days_per_year: 6,
        seed,
        workers: 2,
        train_samples: 40,
        train_epochs: 2,
        finetune_days: 0,
        checkpoint: Some(out_dir.join("chaos.ckpt")),
        task_retries: 2,
        retry_base_ms: 5,
        ..WorkflowParams::test_scale(out_dir.clone())
    };

    let (first, fired) = {
        let armed = plan.arm();

        // Exercise the DLS degradation path while the plan is live:
        // staging transfers may drop (bounded retries, degraded mode).
        let mut dls = hpcwaas::dls::DataLogistics::new();
        let staging = hpcwaas::dls::PipelineSpec::new()
            .stage("forcing-in", 50_000_000)
            .stage("products-out", 20_000_000);
        let transfer = dls.execute(&staging);
        println!(
            "staging: {} stages, {} retries{}",
            transfer.stages.len(),
            transfer.retries,
            if transfer.degraded { ", DEGRADED" } else { "" }
        );
        let first = run_pipelined(params());
        (first, armed.fired())
    };
    println!("faults fired: {}", fired.len());
    for f in &fired {
        println!("  {f}");
    }

    let report = match first {
        Ok(r) => r,
        Err(e) => {
            println!("armed run failed ({e}); disarmed, resuming from checkpoint");
            run_pipelined(params())?
        }
    };
    println!(
        "recovered: {} tasks completed ({} restored from checkpoint, {} retries)",
        report.metrics.completed, report.metrics.restored, report.metrics.retries
    );

    match obs::flight::dump("chaos: run complete") {
        Some(p) => println!("flight recorder: {}", p.display()),
        None => return Err("flight recorder produced no dump".into()),
    }
    Ok(())
}

fn cmd_graph(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let mut params = params_from_flags(flags)?;
    params.days_per_year = params.days_per_year.min(8);
    params.train_samples = 60;
    params.train_epochs = 3;
    params.finetune_days = 0;
    params.out_dir = std::env::temp_dir().join("climate-wf-graph");
    std::fs::remove_dir_all(&params.out_dir).ok();
    let report = run_pipelined(params)?;
    let dot = std::fs::read_to_string(&report.dot_path).map_err(|e| e.to_string())?;
    print!("{dot}");
    Ok(())
}

fn cmd_ncdump(path: &str) -> Result<(), String> {
    let rd = ncformat::Reader::open(path).map_err(|e| e.to_string())?;
    println!("ncx {path} {{");
    println!("dimensions:");
    for d in rd.dimensions() {
        println!("    {} = {} ;", d.name, d.size);
    }
    println!("variables:");
    for v in rd.variables() {
        let dims: Vec<String> = v.dims.iter().map(|&i| rd.dimensions()[i].name.clone()).collect();
        println!("    {} {}({}) ;", v.dtype.name(), v.name, dims.join(", "));
        for a in &v.attributes {
            println!("        {}:{} = {:?} ;", v.name, a.name, a.value);
        }
    }
    println!("}}");
    Ok(())
}

fn cmd_info() {
    println!("Section 5.2 data characteristics at paper resolution (768x1152, 4 steps, 20 vars):");
    println!("  daily file:        {:>8.1} MB   (paper: 271 MB)", esm::output::paper_daily_mb());
    println!("  one year:          {:>8.1} GB   (paper: ~100 GB)", esm::output::paper_yearly_gb());
    println!("  33-year projection:{:>8.2} TB", esm::output::paper_yearly_gb() * 33.0 / 1024.0);
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let (flags, positional) = parse_args(&args[1..]);
    if let Some(flag) = unknown_flag(cmd, &flags) {
        eprintln!("unknown flag --{flag} for `climate-wf {cmd}`");
        usage()
    }
    let result = match cmd.as_str() {
        "run" | "report" => cmd_run(&flags, cmd == "report", started),
        "chaos" => cmd_chaos(&flags),
        "graph" => cmd_graph(&flags),
        "topology" => {
            print!("{}", hpcwaas::tosca::climate_case_study().to_source());
            Ok(())
        }
        "ncdump" => match positional.first() {
            Some(p) => cmd_ncdump(p),
            None => usage(),
        },
        "info" => {
            cmd_info();
            Ok(())
        }
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags_and_positionals() {
        let args: Vec<String> = ["--years", "3", "file.ncx", "--sequential", "--grid", "demo"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (flags, pos) = parse_args(&args);
        assert_eq!(flags["years"], "3");
        assert_eq!(flags["grid"], "demo");
        assert_eq!(flags["sequential"], "true");
        assert_eq!(pos, vec!["file.ncx"]);
    }

    #[test]
    fn params_from_flags_maps_keys() {
        let mut flags = BTreeMap::new();
        flags.insert("years".to_string(), "2".to_string());
        flags.insert("days".to_string(), "15".to_string());
        flags.insert("grid".to_string(), "24x36".to_string());
        flags.insert("out".to_string(), "/tmp/x".to_string());
        flags.insert("sequential".to_string(), "true".to_string());
        let p = params_from_flags(&flags).unwrap();
        assert_eq!(p.years, 2);
        assert_eq!(p.days_per_year, 15);
        assert_eq!((p.grid.nlat, p.grid.nlon), (24, 36));
        assert_eq!(p.out_dir, std::path::PathBuf::from("/tmp/x"));
    }

    #[test]
    fn unknown_run_flags_are_named() {
        let flags = |keys: &[&str]| -> BTreeMap<String, String> {
            keys.iter().map(|k| (k.to_string(), "5".to_string())).collect()
        };
        for cmd in ["run", "report"] {
            assert_eq!(unknown_flag(cmd, &flags(&["years", "days", "workers", "out"])), None);
            assert_eq!(unknown_flag(cmd, &flags(&["years", "day"])), Some("day"));
        }
        assert_eq!(unknown_flag("graph", &flags(&["years"])), None);
        assert_eq!(unknown_flag("graph", &flags(&["yaers"])), Some("yaers"));
        assert_eq!(unknown_flag("graph", &flags(&["days"])), Some("days"));
        assert_eq!(unknown_flag("chaos", &flags(&["seed", "faults", "out"])), None);
        assert_eq!(unknown_flag("chaos", &flags(&["seed", "fault"])), Some("fault"));
        assert_eq!(unknown_flag("chaos", &flags(&["years"])), Some("years"));
        assert_eq!(unknown_flag("info", &flags(&["years"])), Some("years"));
    }

    #[test]
    fn bad_flag_values_error() {
        let mut flags = BTreeMap::new();
        flags.insert("years".to_string(), "three".to_string());
        assert!(params_from_flags(&flags).is_err());
    }
}
