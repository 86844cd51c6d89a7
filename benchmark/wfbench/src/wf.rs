//! `wf_staged` / `wf_streaming`: the whole `climate-wf run` workflow.
//!
//! Why these two: `run_pipelined` is the paper's workflow end to end —
//! the CNN (`tc_cnn_localize`) and the ESM do most of the work, the NCX
//! file round-trip is on the path and `hpcwaas` does nothing. The two
//! workloads push the same `core`/`extremes`/`datacube` layers through
//! the two drivers (file-keyed vs in-memory `DayBlock` handoff with the
//! batched CNN service), so a gain for one that costs the other shows.
//! Closed loop: one run at a time, the next starts when the last ends.

use crate::check::{self, Skill};
use crate::common::{
    ctx_err, peak_rss_mb, reset_peak_rss, secs_between, ChildReport, Ctx, Res, Workload,
};
use crate::stats;
use climate_workflows::{pretrain_cnn, run_pipelined, RunReport, WorkflowParams};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Instant, SystemTime};

/// Fewest timed reps of an untraced run, whatever `--seconds` says.
const MIN_REPS: usize = 5;
/// Untraced reps of a traced run (the baseline its overhead is taken
/// against, and the source of the run-report layer numbers).
const TRACED_BASE_REPS: usize = 3;
/// Quality floors against the ESM's ground truth, pooled over the years
/// of a run (see the README for how they were chosen).
const TRACKER_POD_MIN: f64 = 0.5;
const TRACKER_FAR_MAX: f64 = 0.10;
const CNN_POD_MIN: f64 = 0.45;
const CNN_FAR_MAX: f64 = 0.50;

/// `(years, days per year)` of the measured run.
pub fn size(ctx: &Ctx) -> (usize, usize) {
    if ctx.quick {
        (1, 12)
    } else {
        (3, 60)
    }
}

/// CLI defaults (`test_small` 48x72 grid, workers 4, io_servers 2,
/// nfrag 8, fifo, stream_depth 2, cnn_batch 8) at the given size, with the
/// model pre-trained by [`setup`].
pub fn params(ctx: &Ctx, out: &Path, streaming: bool, years: usize, days: usize) -> WorkflowParams {
    let mut p = WorkflowParams::test_scale(out.to_path_buf());
    p.years = years;
    p.days_per_year = days;
    p.seed = ctx.seed;
    p.streaming = streaming;
    p.model_path = Some(ctx.path("tc_cnn.tml"));
    p
}

/// Seed the CNN is pre-trained with, whatever `--seed` says (the CLI's
/// default seed). The model is a fixed input artifact, like a dataset:
/// `--seed` varies the simulated weather the model is applied to, not the
/// model, so set-up time and detection skill do not swing with how well
/// one particular initialisation happens to train.
const MODEL_SEED: u64 = 42;

/// Set-up: pre-train the TC-localization CNN exactly as a model-less
/// `climate-wf run --seed 42` would, and save it where the measured runs
/// load it.
pub fn setup(ctx: &Ctx) -> Res<()> {
    let (years, days) = size(ctx);
    let mut p = params(ctx, &ctx.path("out"), false, years, days);
    p.seed = MODEL_SEED;
    let model = pretrain_cnn(&p);
    model.save(&ctx.path("tc_cnn.tml")).map_err(ctx_err("save pre-trained CNN"))
}

/// One measured run and everything read back from it.
pub struct Rep {
    pub wall_s: f64,
    /// Run start until the newest of year 0's index exports
    /// (`RunReport.years[0].export_paths`) is on disk.
    pub first_exports_s: f64,
    /// Per simulated year: run start until the last of that year's
    /// products (indices, maps, tracks, CNN detections) is on disk.
    pub year_done_s: Vec<f64>,
    /// Peak RSS of this rep alone (the high-water mark is reset first).
    pub rss_mb: f64,
    /// Sorted `(name, digest)` of `products/*` minus staging bundles.
    pub listing: Vec<(String, u64)>,
    pub report: RunReport,
    /// `(tasks, busy_us, steals)` the global `par` pool added during the run.
    pub par_delta: (u64, u64, u64),
}

/// `(tasks, busy_us, steals)` of the global `par` pool since it started.
pub fn par_totals() -> (u64, u64, u64) {
    par::global()
        .worker_stats()
        .iter()
        .fold((0, 0, 0), |a, w| (a.0 + w.tasks, a.1 + w.busy_us, a.2 + w.steals))
}

/// Wipes the out-dir (untimed), runs the workflow (timed), then reads the
/// product tree back (untimed).
pub fn run_rep(p: &WorkflowParams) -> Res<Rep> {
    std::fs::remove_dir_all(&p.out_dir).ok();
    reset_peak_rss();
    let par_before = par_totals();
    let started = SystemTime::now();
    let t0 = Instant::now();
    let report = run_pipelined(p.clone()).map_err(ctx_err("run_pipelined"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let rss_mb = peak_rss_mb();
    let par_after = par_totals();

    let mtime = |path: &Path| -> Res<SystemTime> {
        std::fs::metadata(path).and_then(|m| m.modified()).map_err(ctx_err("stat product"))
    };
    let first = report.years.first().ok_or("run reported no years")?;
    let mut first_exports_s = 0.0f64;
    for path in &first.export_paths {
        first_exports_s = first_exports_s.max(secs_between(started, mtime(path)?));
    }
    let products = p.products_dir();
    let listing = check::digest_files(&products, check::is_product)
        .map_err(ctx_err("digest product tree"))?;
    let mut year_done_s = vec![0.0f64; report.years.len()];
    for (name, _) in &listing {
        let lat_s = secs_between(started, mtime(&products.join(name))?).max(0.0);
        for (y, done) in report.years.iter().zip(&mut year_done_s) {
            if check::is_per_year_product(name) && name.contains(&format!("-{}.", y.year)) {
                *done = done.max(lat_s);
            }
        }
    }
    Ok(Rep {
        wall_s,
        first_exports_s,
        year_done_s,
        rss_mb,
        listing,
        report,
        par_delta: (
            par_after.0 - par_before.0,
            par_after.1 - par_before.1,
            par_after.2 - par_before.2,
        ),
    })
}

/// `(operations attempted, operations failed)` of one run: dataflow tasks
/// plus year analyses.
fn ops(report: &RunReport) -> (u64, u64) {
    let m = &report.metrics;
    let bad_years = report.years.iter().filter(|y| y.failed || !y.validated).count();
    (
        (report.tasks + report.years.len()) as u64,
        (m.failed + m.cancelled + m.timed_out + bad_years) as u64,
    )
}

/// Per-rep checks: every year validated, no task failed, and the product
/// tree byte-identical to the first rep's.
fn check_rep(out: &mut ChildReport, wl: &str, rep_no: usize, rep: &Rep, first: &[(String, u64)]) {
    let m = &rep.report.metrics;
    for y in &rep.report.years {
        if y.failed || !y.validated {
            out.fail(format!(
                "{wl} rep {rep_no}: year {} failed={} validated={}",
                y.year, y.failed, y.validated
            ));
        }
    }
    if m.failed + m.cancelled + m.timed_out > 0 {
        out.fail(format!(
            "{wl} rep {rep_no}: {} failed, {} cancelled, {} timed-out tasks",
            m.failed, m.cancelled, m.timed_out
        ));
    }
    if let Some(diff) = check::first_difference(first, &rep.listing) {
        out.fail(format!("{wl} rep {rep_no}: product tree differs from rep 0 at {diff}"));
    }
}

/// Tracker and CNN skill against the ESM's injected cyclones, pooled
/// over the run's years.
fn check_skill(out: &mut ChildReport, wl: &str, report: &RunReport) {
    let (mut tracker, mut cnn) = (Skill::default(), Skill::default());
    for y in &report.years {
        if let Some(s) = &y.deterministic_scores {
            tracker.add(s.hits, s.misses, s.false_alarms);
        }
        if let Some(s) = &y.cnn_scores {
            cnn.add(s.hits, s.misses, s.false_alarms);
        }
    }
    out.info.insert("tracker_pod_far".into(), format!("{:.3} {:.3}", tracker.pod(), tracker.far()));
    out.info.insert("cnn_pod_far".into(), format!("{:.3} {:.3}", cnn.pod(), cnn.far()));
    if tracker.hits + tracker.misses == 0 {
        // A seed whose years hold no cyclone has nothing to verify.
        return;
    }
    if tracker.pod() < TRACKER_POD_MIN || tracker.far() > TRACKER_FAR_MAX {
        out.fail(format!(
            "{wl}: tracker POD {:.2} FAR {:.2} outside [{TRACKER_POD_MIN}, {TRACKER_FAR_MAX}]",
            tracker.pod(),
            tracker.far()
        ));
    }
    if cnn.pod() < CNN_POD_MIN || cnn.far() > CNN_FAR_MAX {
        out.fail(format!(
            "{wl}: CNN POD {:.2} FAR {:.2} outside [{CNN_POD_MIN}, {CNN_FAR_MAX}]",
            cnn.pod(),
            cnn.far()
        ));
    }
}

/// Both drivers must deliver byte-identical per-year products. Runs the
/// other driver over the first `ref_years` years (year y's products do
/// not depend on how many years follow) and compares file by file.
fn check_other_driver(
    out: &mut ChildReport,
    ctx: &Ctx,
    ours: &Rep,
    ref_years: usize,
    days: usize,
) -> Res<()> {
    let streaming = ctx.workload == Workload::WfStreaming;
    let p = params(ctx, &ctx.path("out-ref"), !streaming, ref_years, days);
    let other = run_rep(&p)?;
    let year_tags: Vec<String> =
        other.report.years.iter().map(|y| format!("-{}.", y.year)).collect();
    let per_year = |l: &[(String, u64)]| -> Vec<(String, u64)> {
        l.iter()
            .filter(|(n, _)| {
                check::is_per_year_product(n) && year_tags.iter().any(|t| n.contains(t))
            })
            .cloned()
            .collect()
    };
    let (a, b) = (per_year(&ours.listing), per_year(&other.listing));
    if a.is_empty() {
        out.fail(format!("{}: no per-year products to compare", ctx.workload.name()));
    }
    if let Some(diff) = check::first_difference(&a, &b) {
        out.fail(format!(
            "{}: per-year products differ from the {} driver at {diff}",
            ctx.workload.name(),
            if streaming { "staged" } else { "streaming" }
        ));
    }
    out.info.insert("per_year_digest".into(), format!("{:016x}", check::digest_tree(&a)));
    out.info.insert("other_driver_years_compared".into(), ref_years.to_string());
    std::fs::remove_dir_all(&p.out_dir).ok();
    Ok(())
}

/// Task time per core metric name, milliseconds, from one run report.
fn task_time_ms(report: &RunReport) -> BTreeMap<&'static str, f64> {
    let mut by_metric: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (_, name, d) in &report.metrics.task_durations {
        let metric = match name.as_str() {
            "esm_simulation" => "core.esm_simulation_ms",
            "import_tmax" | "import_tmin" => "core.import_ms",
            "hw_duration_max" | "hw_number" | "hw_frequency" | "cw_duration_max" | "cw_number"
            | "cw_frequency" => "core.indices_ms",
            "tc_preprocess" => "core.tc_preprocess_ms",
            "tc_cnn_localize" => "core.tc_cnn_localize_ms",
            "tc_track_deterministic" => "core.tc_track_ms",
            "export_indices" => "core.export_ms",
            "load_baseline" => "core.load_baseline_ms",
            "stream_record" => "core.stream_record_ms",
            _ => "",
        };
        let ms = d.as_secs_f64() * 1e3;
        if !metric.is_empty() {
            *by_metric.entry(metric).or_default() += ms;
        }
        *by_metric.entry("core.task_time_ms").or_default() += ms;
    }
    by_metric
}

/// Layer numbers read from public return values of untraced reps
/// (source R): medians over the reps.
fn report_metrics(out: &mut ChildReport, reps: &[Rep], workers: usize) {
    let med = |f: &dyn Fn(&Rep) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    let task_times: Vec<_> = reps.iter().map(|r| task_time_ms(&r.report)).collect();
    let names: std::collections::BTreeSet<&str> =
        task_times.iter().flat_map(|t| t.keys().copied()).collect();
    for name in names {
        let per_rep: Vec<f64> =
            task_times.iter().map(|t| t.get(name).copied().unwrap_or(0.0)).collect();
        out.layer.insert(name.into(), stats::median(&per_rep));
    }
    let stream = |f: &dyn Fn(&climate_workflows::reporting::StreamSummary) -> f64| {
        med(&|r| r.report.stream.as_ref().map_or(0.0, f))
    };
    out.layer.insert("core.stream_stall_ms".into(), stream(&|s| s.stall_us as f64 / 1e3));
    out.layer.insert("core.years_streamed".into(), stream(&|s| s.years_streamed as f64));
    out.layer.insert("core.fallback_years".into(), stream(&|s| s.fallback_years as f64));

    out.layer.insert("dataflow.tasks".into(), med(&|r| r.report.metrics.completed as f64));
    out.layer.insert(
        "dataflow.failed".into(),
        med(&|r| {
            let m = &r.report.metrics;
            (m.failed + m.cancelled + m.timed_out) as f64
        }),
    );
    out.layer.insert("dataflow.retries".into(), med(&|r| r.report.metrics.retries as f64));
    out.layer.insert(
        "dataflow.worker_busy_frac".into(),
        med(&|r| {
            let busy: f64 = r.report.metrics.task_durations.iter().map(|t| t.2.as_secs_f64()).sum();
            busy / (r.wall_s * workers as f64)
        }),
    );
    out.layer.insert(
        "dataflow.critical_path_frac".into(),
        med(&|r| r.report.timed.as_ref().map_or(0.0, |t| t.path_fraction())),
    );
    out.layer.insert(
        "dataflow.est_err_ms".into(),
        med(&|r| {
            let errs: Vec<f64> = r
                .report
                .placements
                .iter()
                .filter_map(|d| d.actual_us.map(|a| (d.est_us as f64 - a as f64).abs() / 1e3))
                .collect();
            if errs.is_empty() {
                0.0
            } else {
                errs.iter().sum::<f64>() / errs.len() as f64
            }
        }),
    );
    let lanes = par::global().threads() as f64;
    out.layer.insert("par.tasks_per_run".into(), med(&|r| r.par_delta.0 as f64));
    out.layer
        .insert("par.busy_frac".into(), med(&|r| r.par_delta.1 as f64 / 1e6 / (r.wall_s * lanes)));
    out.layer.insert("par.steals".into(), med(&|r| r.par_delta.2 as f64));
}

/// The measured child: warm-up, timed reps, checks; on a traced run also
/// one rep with a bus subscriber and the probe chain.
pub fn child(ctx: &Ctx) -> Res<ChildReport> {
    let wl = ctx.workload.name();
    let streaming = ctx.workload == Workload::WfStreaming;
    let (years, days) = size(ctx);
    let p = params(ctx, &ctx.path("out"), streaming, years, days);
    let mut out = ChildReport::default();

    // Warm-up: a small run of the same driver spins up the pool and the
    // allocator. Untimed. Deliberately not full-size: every full-size
    // streaming run leaves the process ~190 MB heavier, and a sixth one
    // slows the timed reps by 10-25% (see the README).
    if !ctx.quick {
        run_rep(&params(ctx, &ctx.path("out-warm"), streaming, 1, 12))?;
        std::fs::remove_dir_all(ctx.path("out-warm")).ok();
    }

    let min_reps = match (ctx.quick, ctx.trace) {
        (true, _) => 1,
        (false, true) => TRACED_BASE_REPS,
        (false, false) => MIN_REPS,
    };
    let budget = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < min_reps || (!ctx.trace && budget.elapsed().as_secs_f64() < ctx.seconds) {
        reps.push(run_rep(&p)?);
    }
    // The first full-size run's peak is what one `climate-wf run` process
    // needs; later reps inherit a heap grown by a varying amount.
    let rss = reps[0].rss_mb;

    for (i, rep) in reps.iter().enumerate() {
        let (attempted, failed) = ops(&rep.report);
        out.attempted += attempted;
        out.failed += failed;
        check_rep(&mut out, wl, i, rep, &reps[0].listing);
    }
    check_skill(&mut out, wl, &reps[0].report);
    if streaming {
        let s = reps[0].report.stream.as_ref().ok_or("streaming run has no stream summary")?;
        out.info.insert("years_streamed".into(), s.years_streamed.to_string());
    }
    out.info
        .insert("product_digest".into(), format!("{:016x}", check::digest_tree(&reps[0].listing)));
    out.info.insert("product_files".into(), reps[0].listing.len().to_string());
    out.info.insert(
        "params".into(),
        format!(
            "grid {}x{} years {years} days {days} workers {} io_servers {} nfrag {} policy fifo streaming {streaming} stream_depth {} cnn_batch {}",
            p.grid.nlat, p.grid.nlon, p.workers, p.io_servers, p.nfrag, p.stream_depth, p.cnn_batch
        ),
    );

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let firsts: Vec<f64> = reps.iter().map(|r| r.year_done_s[0]).collect();
    let first_exports: Vec<f64> = reps.iter().map(|r| r.first_exports_s).collect();
    let lats = stats::sorted(
        &reps.iter().flat_map(|r| r.year_done_s.iter().map(|s| s * 1e3)).collect::<Vec<_>>(),
    );
    let wall = stats::median(&walls);
    out.e2e.insert("wall_s".into(), wall);
    out.e2e.insert("first_products_s".into(), stats::median(&firsts));
    out.e2e.insert("peak_rss_mb".into(), rss);
    out.e2e.insert("lat_p50_ms".into(), stats::percentile(&lats, 50.0));
    out.e2e.insert("lat_p90_ms".into(), stats::percentile(&lats, 90.0));
    out.e2e.insert("goodput_per_s".into(), (years * days) as f64 / wall);
    out.layer.insert("bench.lat_samples".into(), lats.len() as f64);
    out.layer.insert("bench.wall_spread_frac".into(), stats::spread_frac(&walls));
    out.samples.insert("wall_s".into(), walls);
    out.layer.insert("core.first_exports_s".into(), stats::median(&first_exports));
    out.samples.insert("first_products_s".into(), firsts);
    out.samples.insert("first_exports_s".into(), first_exports);
    out.samples.insert("year_done_ms".into(), lats);
    out.samples.insert("rep_rss_mb".into(), reps.iter().map(|r| r.rss_mb).collect());
    // The other driver over year 0 on every run; over every year on the
    // (rarer, longer) traced runs.
    check_other_driver(&mut out, ctx, &reps[0], if ctx.trace { years } else { 1 }, days)?;

    if ctx.trace {
        report_metrics(&mut out, &reps, p.workers);
        traced_rep(&mut out, &p, wall)?;
        crate::probes::wf_chain(&mut out, ctx, &p, wall)?;
    }
    Ok(out)
}

/// One rep with a subscriber on the global bus: how many events the run
/// emits, how many the queue dropped, and what observing costs.
fn traced_rep(out: &mut ChildReport, p: &WorkflowParams, untraced_wall_s: f64) -> Res<()> {
    let rx = obs::global().subscribe_with_capacity(1 << 21);
    let rep = run_rep(p)?;
    let events = rx.drain();
    let dropped = rx.dropped();
    drop(rx);
    // Order-free fold: count by kind, never by position in the stream
    // (delivery order across threads is not the stamped `seq` order).
    let finished = events
        .iter()
        .filter(|e| {
            matches!(
                &e.kind,
                obs::EventKind::TaskFinished { outcome: obs::TaskOutcome::Completed, .. }
            )
        })
        .count();
    let (attempted, failed) = ops(&rep.report);
    out.attempted += attempted;
    out.failed += failed;
    if dropped == 0 && finished < rep.report.metrics.completed {
        out.fail(format!(
            "traced rep: {finished} task_finished events for {} completed tasks with no drops",
            rep.report.metrics.completed
        ));
    }
    out.layer.insert("obs.events".into(), events.len() as f64);
    out.layer.insert("obs.dropped".into(), dropped as f64);
    out.layer.insert("obs.trace_overhead_frac".into(), rep.wall_s / untraced_wall_s - 1.0);
    out.samples.insert("traced_wall_s".into(), vec![rep.wall_s]);
    Ok(())
}

/// Wall times of `reps` plain runs after a warm-up: what the single-lane
/// (`PAR_THREADS=1`) baseline child measures.
pub fn plain_walls(ctx: &Ctx, reps: usize) -> Res<Vec<f64>> {
    let streaming = ctx.workload == Workload::WfStreaming;
    let (years, days) = size(ctx);
    if !ctx.quick {
        run_rep(&params(ctx, &ctx.path("out-warm"), streaming, 1, 12))?;
    }
    let p = params(ctx, &ctx.path("out"), streaming, years, days);
    (0..if ctx.quick { 1 } else { reps }).map(|_| run_rep(&p).map(|r| r.wall_s)).collect()
}
