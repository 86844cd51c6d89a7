//! `cube_analytics`: one year of analytics through the `datacube::Client`
//! façade, no simulation, no CNN, no scheduler.
//!
//! Why: `ncformat` lazy reads, ingest/transpose, the fused kernels and
//! export do all the work here while `esm`, `tinyml` and `dataflow` do
//! none — the bypass workload for any CNN/ESM/scheduler optimisation and
//! the target for a cube-engine change. Reads (import) and writes
//! (export) of the same layers sit side by side. Closed loop: one year
//! analysis at a time over the same staged, page-cache-warm input.

use crate::check;
use crate::common::{ctx_err, dir_bytes, peak_rss_mb, ChildReport, Ctx, Res};
use crate::spans::{self, Probe, Tracer};
use crate::stats;
use datacube::model::{Cube, Dimension, SharedData};
use datacube::ops::{self, InterOp, ReduceOp};
use datacube::{Client, CubeHandle, ExecConfig};
use extremes::etccdi;
use extremes::heatwave::{compute_indices, HeatwaveIndices, WaveParams};
use extremes::validate::validate_indices;
use gridded::{Field2, Grid};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const IO_SERVERS: usize = 2;
pub const NFRAG: usize = 8;
const WARM_REPS: usize = 3;
/// Fewest timed reps of an untraced run, whatever `--seconds` says.
const MIN_REPS: usize = 30;
const TRACED_BASE_REPS: usize = 10;

/// `(grid, days)` of the staged year.
pub fn size(ctx: &Ctx) -> (Grid, usize) {
    if ctx.quick {
        (Grid::test_small(), 12)
    } else {
        (Grid::global(96, 144), 90)
    }
}

pub fn esm_config(ctx: &Ctx) -> esm::EsmConfig {
    let (grid, days) = size(ctx);
    esm::EsmConfig::test_small().with_grid(grid).with_days_per_year(days).with_seed(ctx.seed)
}

fn esm_dir(ctx: &Ctx) -> PathBuf {
    ctx.path("esm-year")
}

/// Set-up: the ESM writes one year of daily 20-variable NCX files (about
/// 400 MB at full size); the measured reps only read them.
pub fn setup(ctx: &Ctx) -> Res<()> {
    let dir = esm_dir(ctx);
    std::fs::remove_dir_all(&dir).ok();
    let mut sim = esm::Simulation::new(esm_config(ctx), &dir).map_err(ctx_err("create ESM"))?;
    sim.run_years(1, |_, _, _| {}).map_err(ctx_err("stage ESM year"))?;
    Ok(())
}

/// The year's daily files, in day order.
pub fn staged_files(ctx: &Ctx) -> Res<Vec<PathBuf>> {
    let cfg = esm_config(ctx);
    let files: Vec<PathBuf> = (0..cfg.days_per_year)
        .map(|d| esm_dir(ctx).join(esm::output::file_name(cfg.start_year, d)))
        .collect();
    match files.iter().find(|f| !f.exists()) {
        Some(missing) => Err(format!("staged input missing: {}", missing.display())),
        None => Ok(files),
    }
}

/// Stacks per-day fields into a `(lat, lon | day)` cube.
pub fn year_cube(days: &[Field2], measure: &str, nfrag: usize, io_servers: usize) -> Res<Cube> {
    let grid = &days[0].grid;
    let (cells, nday) = (grid.len(), days.len());
    let data = SharedData::from_fn(cells * nday, |out| {
        for (d, f) in days.iter().enumerate() {
            for (cell, &v) in f.data.iter().enumerate() {
                out[cell * nday + d] = v;
            }
        }
    });
    let dims = vec![
        Dimension::explicit("lat", grid.lats()),
        Dimension::explicit("lon", grid.lons()),
        Dimension::implicit("day", (0..nday).map(|d| d as f64).collect::<Vec<_>>()),
    ];
    Cube::from_shared(measure, dims, data, nfrag, io_servers).map_err(ctx_err("build year cube"))
}

/// Day-of-year baseline climatology `(tmax, tmin)` as per-day fields: the
/// model's noise-free expectation at the historical reference warming,
/// the same definition the workflow's `load_baseline` task uses.
pub fn baseline_fields(cfg: &esm::EsmConfig) -> (Vec<Field2>, Vec<Field2>) {
    let ref_warming = esm::Scenario::Historical.warming_k(2014);
    (0..cfg.days_per_year)
        .map(|day| esm::model::expected_daily_extremes(cfg, day, ref_warming))
        .unzip()
}

pub struct Baseline {
    pub tmax: Cube,
    pub tmin: Cube,
}

pub fn baseline(cfg: &esm::EsmConfig) -> Res<Baseline> {
    let (tmax, tmin) = baseline_fields(cfg);
    Ok(Baseline {
        tmax: year_cube(&tmax, "tasmax_baseline", NFRAG, IO_SERVERS)?,
        tmin: year_cube(&tmin, "tasmin_baseline", NFRAG, IO_SERVERS)?,
    })
}

/// What one year analysis hands back.
pub struct YearOut {
    pub wall_s: f64,
    /// Seconds from rep start to each exported file, in export order.
    pub export_s: Vec<f64>,
    /// Façade operators the rep issued.
    pub facade_ops: usize,
    pub resident_mb: f64,
    pub validated: bool,
}

/// Imports `tas` from every daily file and builds the daily-maximum and
/// daily-minimum year cubes.
fn import_year(client: &Client, files: &[PathBuf], probe: Probe) -> Res<(CubeHandle, CubeHandle)> {
    let mut day_max = Vec::with_capacity(files.len());
    let mut day_min = Vec::with_capacity(files.len());
    for (d, file) in files.iter().enumerate() {
        let day = probe
            .span("datacube.import", |_| {
                client.importnc_transposed(file, "tas", "time", "lat", "lon", NFRAG)
            })
            .map_err(ctx_err("importnc"))?;
        for (op, into) in [(ReduceOp::Max, &mut day_max), (ReduceOp::Min, &mut day_min)] {
            let reduced = probe
                .span("datacube.reduce", |_| day.reduce(op, "time"))
                .map_err(ctx_err("reduce"))?;
            let cube = reduced.cube().map_err(ctx_err("reduced cube"))?;
            let stackable = ops::add_singleton_implicit(&cube, "day", d as f64)
                .map_err(ctx_err("singleton"))?;
            into.push(client.adopt(stackable));
            reduced.delete().map_err(ctx_err("delete"))?;
        }
        day.delete().map_err(ctx_err("delete"))?;
    }
    let stack = |days: Vec<CubeHandle>| -> Res<CubeHandle> {
        let refs: Vec<&CubeHandle> = days.iter().collect();
        let year = probe
            .span("datacube.concat", |_| datacube::server::concat(&refs, "day"))
            .map_err(ctx_err("concat"))?;
        for h in days {
            h.delete().map_err(ctx_err("delete"))?;
        }
        Ok(year)
    };
    Ok((stack(day_max)?, stack(day_min)?))
}

/// One whole year analysis: import `tas` -> daily max/min year cubes,
/// baseline anomaly, the six heat/cold-wave indices, the ETCCDI family,
/// validation, and NCX export of the indices and the anomaly cube.
pub fn analyse_year(
    files: &[PathBuf],
    base: &Baseline,
    out_dir: &Path,
    probe: Probe,
) -> Res<YearOut> {
    std::fs::remove_dir_all(out_dir).ok();
    std::fs::create_dir_all(out_dir).map_err(ctx_err("create export dir"))?;
    let cfg = ExecConfig::with_servers(IO_SERVERS);
    let t0 = Instant::now();
    probe.span("bench.cube_year", |probe| {
        let client = Client::connect(IO_SERVERS);
        let (tmax, tmin) = import_year(&client, files, probe)?;
        let tmax_cube = tmax.cube().map_err(ctx_err("tmax cube"))?;
        let tmin_cube = tmin.cube().map_err(ctx_err("tmin cube"))?;

        let base_h = client.adopt(base.tmax.clone());
        let anomaly = probe
            .span("datacube.intercube", |_| tmax.intercube(&base_h, InterOp::Sub))
            .map_err(ctx_err("anomaly"))?;

        let indices = |daily: &Cube, baseline: &Cube, cold: bool| -> Res<HeatwaveIndices> {
            probe
                .span("extremes.indices", |_| {
                    compute_indices(daily, baseline, WaveParams::default(), cold, cfg)
                })
                .map_err(ctx_err("compute_indices"))
        };
        let heat = indices(&tmax_cube, &base.tmax, false)?;
        let cold = indices(&tmin_cube, &base.tmin, true)?;

        let family = probe
            .span("extremes.etccdi", |_| -> datacube::Result<Vec<(&str, Cube)>> {
                Ok(vec![
                    ("fd", etccdi::frost_days(&tmin_cube, cfg)?),
                    ("id", etccdi::icing_days(&tmax_cube, cfg)?),
                    ("su", etccdi::summer_days(&tmax_cube, cfg)?),
                    ("tr", etccdi::tropical_nights(&tmin_cube, cfg)?),
                    ("txx", etccdi::txx(&tmax_cube, cfg)?),
                    ("tnn", etccdi::tnn(&tmin_cube, cfg)?),
                ])
            })
            .map_err(ctx_err("etccdi"))?;

        let days = tmax_cube.implicit_len();
        let validated = probe.span("extremes.validate", |_| {
            validate_indices(&heat, WaveParams::default(), days).passed()
                && validate_indices(&cold, WaveParams::default(), days).passed()
        });

        let mut export_s = Vec::new();
        let mut export = |name: &str, handle: &CubeHandle| -> Res<()> {
            probe
                .span("datacube.export", |_| handle.exportnc(&out_dir.join(format!("{name}.ncx"))))
                .map_err(ctx_err("exportnc"))?;
            export_s.push(t0.elapsed().as_secs_f64());
            Ok(())
        };
        for (name, cube) in [
            ("hwd", heat.duration_max),
            ("hwn", heat.number),
            ("hwf", heat.frequency),
            ("cwd", cold.duration_max),
            ("cwn", cold.number),
            ("cwf", cold.frequency),
        ]
        .into_iter()
        .chain(family)
        {
            export(name, &client.adopt(cube))?;
        }
        export("tasmax-anomaly", &anomaly)?;

        Ok(YearOut {
            wall_s: t0.elapsed().as_secs_f64(),
            export_s,
            facade_ops: client.audit().len(),
            resident_mb: client.resident_bytes() as f64 / (1 << 20) as f64,
            validated,
        })
    })
}

/// Exported HWD/HWN/HWF must equal, as exact integers, what the scalar
/// oracle derives from an independent read of the daily files.
fn check_against_oracle(
    out: &mut ChildReport,
    files: &[PathBuf],
    cfg: &esm::EsmConfig,
    export_dir: &Path,
) -> Res<()> {
    let cells = cfg.grid.len();
    let ndays = files.len();
    let mut series = vec![0.0f32; cells * ndays];
    for (d, file) in files.iter().enumerate() {
        let rd = ncformat::Reader::open(file).map_err(ctx_err("oracle open"))?;
        let tas = rd.read_all_f32("tas").map_err(ctx_err("oracle read tas"))?;
        for cell in 0..cells {
            let day_max =
                tas.iter().skip(cell).step_by(cells).copied().fold(f32::NEG_INFINITY, f32::max);
            series[cell * ndays + d] = day_max;
        }
    }
    let (base_days, _) = baseline_fields(cfg);
    let read = |name: &str| -> Res<Vec<f32>> {
        let path = export_dir.join(format!("{name}.ncx"));
        let rd = ncformat::Reader::open(&path).map_err(ctx_err("open export"))?;
        let v = rd.read_all_f32("tas").map_err(ctx_err("read export"))?;
        if v.len() == cells {
            Ok(v)
        } else {
            Err(format!("{}: {} values for {cells} cells", path.display(), v.len()))
        }
    };
    let (hwd, hwn, hwf) = (read("hwd")?, read("hwn")?, read("hwf")?);
    let params = WaveParams::default();
    let mut base = vec![0.0f32; ndays];
    let mut waves = 0u64;
    for cell in 0..cells {
        for (d, b) in base.iter_mut().enumerate() {
            *b = base_days[d].data[cell];
        }
        let want = check::wave_oracle(
            &series[cell * ndays..(cell + 1) * ndays],
            &base,
            params.threshold_k,
            params.min_duration,
        );
        let got = (
            hwd[cell] as u32,
            hwn[cell] as u32,
            (f64::from(hwf[cell]) * ndays as f64).round() as u32,
        );
        waves += u64::from(want.1);
        if got != want {
            out.fail(format!(
                "cube_analytics: hwd/hwn/hwf.ncx cell {cell}: exported (HWD, HWN, HWF*days) {got:?}, oracle {want:?}"
            ));
            break;
        }
    }
    out.info.insert("oracle_cells".into(), cells.to_string());
    out.info.insert("oracle_waves".into(), waves.to_string());
    Ok(())
}

pub fn child(ctx: &Ctx) -> Res<ChildReport> {
    let cfg = esm_config(ctx);
    let files = staged_files(ctx)?;
    let base = baseline(&cfg)?;
    let export_dir = ctx.path("exports");
    let mut out = ChildReport::default();

    // Warm-up: page cache, pool, allocator. Untimed.
    for _ in 0..if ctx.quick { 1 } else { WARM_REPS } {
        analyse_year(&files, &base, &export_dir, Probe::off())?;
    }
    let min_reps = match (ctx.quick, ctx.trace) {
        (true, _) => 2,
        (false, true) => TRACED_BASE_REPS,
        (false, false) => MIN_REPS,
    };
    let budget = Instant::now();
    let mut reps: Vec<YearOut> = Vec::new();
    let mut first_listing: Vec<(String, u64)> = Vec::new();
    while reps.len() < min_reps || (!ctx.trace && budget.elapsed().as_secs_f64() < ctx.seconds) {
        let rep = analyse_year(&files, &base, &export_dir, Probe::off())?;
        // Operations: every façade operator plus the ten extremes calls.
        out.attempted += rep.facade_ops as u64 + 10;
        if !rep.validated {
            out.failed += 1;
            out.fail(format!("cube_analytics rep {}: validate_indices failed", reps.len()));
        }
        let listing =
            check::digest_files(&export_dir, |_| true).map_err(ctx_err("digest exports"))?;
        if reps.is_empty() {
            first_listing = listing;
        } else if let Some(diff) = check::first_difference(&first_listing, &listing) {
            out.fail(format!(
                "cube_analytics rep {}: exports differ from rep 0 at {diff}",
                reps.len()
            ));
        }
        reps.push(rep);
    }
    let rss = peak_rss_mb();
    check_against_oracle(&mut out, &files, &cfg, &export_dir)?;

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let firsts: Vec<f64> = reps.iter().map(|r| r.export_s[0]).collect();
    let lats = stats::sorted(
        &reps.iter().flat_map(|r| r.export_s.iter().map(|s| s * 1e3)).collect::<Vec<_>>(),
    );
    let wall = stats::median(&walls);
    out.e2e.insert("wall_s".into(), wall);
    out.e2e.insert("first_products_s".into(), stats::median(&firsts));
    out.e2e.insert("peak_rss_mb".into(), rss);
    out.e2e.insert("lat_p50_ms".into(), stats::percentile(&lats, 50.0));
    out.e2e.insert("lat_p90_ms".into(), stats::percentile(&lats, 90.0));
    out.e2e.insert("goodput_per_s".into(), files.len() as f64 / wall);
    out.layer.insert("bench.lat_samples".into(), lats.len() as f64);
    out.layer.insert("bench.wall_spread_frac".into(), stats::spread_frac(&walls));
    out.info.insert("export_digest".into(), format!("{:016x}", check::digest_tree(&first_listing)));
    out.info.insert(
        "params".into(),
        format!(
            "grid {}x{} days {} vars {} io_servers {IO_SERVERS} nfrag {NFRAG} input_mb {:.0}",
            cfg.grid.nlat,
            cfg.grid.nlon,
            files.len(),
            esm::model::OUTPUT_VARIABLES.len(),
            dir_bytes(&esm_dir(ctx)) as f64 / (1 << 20) as f64
        ),
    );

    if ctx.trace {
        let last = reps.last().expect("at least one rep");
        out.layer.insert("datacube.ops_per_year".into(), last.facade_ops as f64);
        out.layer.insert("datacube.resident_mb".into(), last.resident_mb);
        traced_year(&mut out, ctx, &files, &base, &export_dir, wall)?;
        crate::probes::cube_layers(&mut out, ctx, &files, &base)?;
    }
    out.samples.insert("wall_s".into(), walls);
    out.samples.insert("first_products_s".into(), firsts);
    out.samples.insert("product_lat_ms".into(), lats);
    Ok(out)
}

/// The probe chain: one more year analysis, serially, with a span around
/// every call into a layer, and a bus subscriber for the event counts.
fn traced_year(
    out: &mut ChildReport,
    ctx: &Ctx,
    files: &[PathBuf],
    base: &Baseline,
    export_dir: &Path,
    untraced_wall_s: f64,
) -> Res<()> {
    let tracer = Tracer::new(ctx.workload.name());
    let rx = obs::global().subscribe_with_capacity(1 << 21);
    let par_before = crate::wf::par_totals();
    let traced = analyse_year(files, base, export_dir, Probe::root(&tracer))?;
    let par_after = crate::wf::par_totals();
    let events = rx.drain();
    out.layer.insert("obs.events".into(), events.len() as f64);
    out.layer.insert("obs.dropped".into(), rx.dropped() as f64);
    out.layer.insert("obs.trace_overhead_frac".into(), traced.wall_s / untraced_wall_s - 1.0);
    drop(rx);

    let all = tracer.spans();
    let total = |name: &str| spans::total_ms(&all, name);
    let import_ms = total("datacube.import") + total("datacube.reduce") + total("datacube.concat");
    let tas_mb = files.len() as f64 * (esm_config(ctx).grid.len() * 4 * 4) as f64 / 1e6;
    out.layer.insert("datacube.import_year_ms".into(), import_ms);
    out.layer.insert("datacube.import_MBps".into(), tas_mb / (import_ms / 1e3));
    out.layer.insert("datacube.export_ms".into(), total("datacube.export"));
    out.layer.insert("extremes.indices_ms".into(), total("extremes.indices"));
    out.layer.insert("extremes.etccdi_ms".into(), total("extremes.etccdi"));
    out.layer.insert("extremes.validate_ms".into(), total("extremes.validate"));
    // The layers this workload is meant to isolate, as a share of a rep.
    let in_layers: f64 = spans::layer_self_ms(&all)
        .iter()
        .filter(|(l, _)| matches!(l.as_str(), "datacube" | "ncformat" | "extremes"))
        .map(|(_, ms)| ms)
        .sum();
    out.layer.insert("bench.probe_layers_frac".into(), in_layers / 1e3 / traced.wall_s);
    let lanes = par::global().threads() as f64;
    out.layer.insert("par.tasks_per_run".into(), (par_after.0 - par_before.0) as f64);
    out.layer.insert(
        "par.busy_frac".into(),
        (par_after.1 - par_before.1) as f64 / 1e6 / (traced.wall_s * lanes),
    );
    out.layer.insert("par.steals".into(), (par_after.2 - par_before.2) as f64);
    out.samples.insert("traced_wall_s".into(), vec![traced.wall_s]);
    out.trace = Some(tracer.chrome_trace());
    Ok(())
}

/// Wall times of `reps` plain year analyses after a warm-up: what the
/// single-lane (`PAR_THREADS=1`) baseline child measures.
pub fn plain_walls(ctx: &Ctx, reps: usize) -> Res<Vec<f64>> {
    let files = staged_files(ctx)?;
    let base = baseline(&esm_config(ctx))?;
    let dir = ctx.path("exports-one-lane");
    analyse_year(&files, &base, &dir, Probe::off())?;
    (0..reps).map(|_| analyse_year(&files, &base, &dir, Probe::off()).map(|r| r.wall_s)).collect()
}
