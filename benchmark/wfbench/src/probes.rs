//! Per-layer probes of the traced pass (source P).
//!
//! Two kinds. The *chain* replays one workload-sized year serially,
//! calling each layer's public functions directly with a span around
//! every call; a layer's self time is its span minus its children. The
//! *micro* probes time one layer operation in isolation (dispatch
//! overheads, one kernel, one file round-trip). Both live outside the
//! program: nothing here is called by, or changes, the code under test.
//! A workload only probes the layers it enters; the rest report 0.

use crate::common::{ctx_err, ChildReport, Ctx, Res, Workload};
use crate::cube::{self, Baseline, IO_SERVERS, NFRAG};
use crate::spans::{self, Probe, Tracer};
use crate::stats;
use climate_workflows::WorkflowParams;
use datacube::fuse::Pipeline;
use datacube::model::{Cube, Dimension};
use datacube::ops::{self, InterOp, ReduceOp};
use datacube::{Client, ExecConfig, Expr};
use extremes::heatwave::{compute_indices, wave_stats, WaveParams};
use extremes::tc::cnn::{analysis_grid, FieldSet};
use extremes::{BatchPolicy, CnnService, DetectorParams, TcCnn};
use gridded::{Field2, TileSpec, Tiling};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Median seconds of `reps` timed calls of `f`; the first error ends it.
fn try_median_secs<E: std::fmt::Display>(
    reps: usize,
    mut f: impl FnMut() -> Result<(), E>,
) -> Res<f64> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f().map_err(|e| format!("probe: {e}"))?;
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(stats::median(&samples))
}

/// [`try_median_secs`] for a call that cannot fail.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    try_median_secs(reps, || -> Result<(), String> {
        f();
        Ok(())
    })
    .expect("infallible probe")
}

fn cfg() -> ExecConfig {
    ExecConfig::with_servers(IO_SERVERS)
}

// ---------------------------------------------------------------- micro

/// `par`: cost of one trivial task through the global pool (spawn,
/// queue, run, completion count), 100k of them in one scope.
fn par_task_overhead_ns() -> f64 {
    const N: usize = 100_000;
    let done = std::sync::atomic::AtomicUsize::new(0);
    median_secs(5, || {
        par::scope(|s| {
            for _ in 0..N {
                s.spawn(|| {
                    done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
    }) * 1e9
        / N as f64
}

/// `obs`: cost of one emit with one subscriber attached.
fn obs_emit_ns() -> f64 {
    const N: usize = 100_000;
    let rx = obs::global().subscribe_with_capacity(1 << 12);
    let secs = median_secs(5, || {
        for i in 0..N {
            obs::emit(obs::EventKind::QueueDepth { ready: i, running: 1 });
        }
    });
    drop(rx);
    secs * 1e9 / N as f64
}

/// `dataflow`: submit-to-finish cost of a no-op task, 2000 of them.
fn dataflow_task_overhead_us() -> Res<f64> {
    const N: usize = 2000;
    let rt: dataflow::Runtime<dataflow::Bytes> =
        dataflow::Runtime::new(dataflow::RuntimeConfig::with_cpu_workers(4));
    let t = Instant::now();
    for _ in 0..N {
        rt.task("noop").run(|_| Ok(vec![])).map_err(ctx_err("submit no-op task"))?;
    }
    rt.barrier().map_err(ctx_err("no-op barrier"))?;
    let secs = t.elapsed().as_secs_f64();
    rt.shutdown();
    Ok(secs * 1e6 / N as f64)
}

/// `dataflow`: one item through the bounded year channel, producer and
/// consumer on different threads.
fn dataflow_stream_handoff_us() -> f64 {
    const N: u64 = 20_000;
    let (tx, rx) = dataflow::stream::bounded::<u64>("probe", 2);
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..N {
                if tx.send(i).is_err() {
                    break;
                }
            }
        });
        let mut got = 0;
        while got < N {
            if let dataflow::stream::RecvTimeout::Item(_) = rx.recv_timeout(Duration::from_secs(5))
            {
                got += 1;
            } else {
                break;
            }
        }
    });
    t.elapsed().as_secs_f64() * 1e6 / N as f64
}

/// `datacube`: `reduce(Max)` over a 20 MB cube — the kernel the roadmap
/// records regressing from 2.1 to 12.3 ms single-lane.
fn datacube_reduce_max_ms() -> Res<f64> {
    let (rows, ilen) = (13_824usize, 362usize);
    let data: Vec<f32> = (0..rows * ilen).map(|i| ((i % 977) as f32).sin()).collect();
    let dims = vec![
        Dimension::explicit("cell", (0..rows).map(|i| i as f64).collect::<Vec<_>>()),
        Dimension::implicit("t", (0..ilen).map(|i| i as f64).collect::<Vec<_>>()),
    ];
    let cube =
        Cube::from_dense("v", dims, data, NFRAG, IO_SERVERS).map_err(ctx_err("probe cube"))?;
    let secs =
        try_median_secs(7, || ops::reduce(black_box(&cube), ReduceOp::Max, "t", cfg()).map(drop))?;
    Ok(secs * 1e3)
}

/// `datacube`: the fused anomaly -> mask -> run-length chain over a year
/// cube. Returns `(ms, GB/s)`; the bytes are *computed* (cube plus
/// baseline, each read once), not measured memory traffic.
fn datacube_fused_chain(daily: &Cube, base: &Cube) -> Res<(f64, f64)> {
    let params = WaveParams::default();
    let predicate = Expr::from_oph_predicate("x", &format!(">{}", params.threshold_k), "1", "0")
        .map_err(ctx_err("predicate"))?;
    let chain = Pipeline::new().intercube(base, InterOp::Sub).apply(predicate).map_series(
        "stat",
        3,
        move |row, out| {
            let (longest, count, days) = wave_stats(row, params.min_duration);
            out.copy_from_slice(&[longest as f32, count as f32, days as f32]);
        },
    );
    let secs = try_median_secs(9, || chain.run(black_box(daily), cfg()).map(drop))?;
    let gb = (daily.bytes() + base.bytes()) as f64 / 1e9;
    Ok((secs * 1e3, gb / secs))
}

/// `ncformat`: open a 20-variable daily file and lazily read `tas`
/// (`(ms per file, MB/s)`), then write all of a day's variables back out
/// through the streaming writer (`MB/s`).
fn ncformat_round_trip(files: &[PathBuf], scratch: &Path) -> Res<(f64, f64, f64)> {
    let sample: Vec<&PathBuf> = files.iter().take(30).collect();
    let mut bytes = 0usize;
    let read_secs = try_median_secs(5, || -> ncformat::Result<()> {
        bytes = 0;
        for f in &sample {
            bytes += black_box(ncformat::Reader::open(f)?.read_shared_f32("tas")?).len() * 4;
        }
        Ok(())
    })?;

    let rd = ncformat::Reader::open(&files[0]).map_err(ctx_err("open daily file"))?;
    let shape = rd.shape("tas").map_err(ctx_err("tas shape"))?;
    let mut vars = Vec::new();
    for name in esm::model::OUTPUT_VARIABLES {
        vars.push((name, rd.read_all_f32(name).map_err(ctx_err("read variable"))?));
    }
    let out = scratch.join("ncformat-probe.ncx");
    let payload: usize = vars.iter().map(|(_, v)| v.len() * 4).sum();
    let write = || -> ncformat::Result<()> {
        let mut w = ncformat::Writer::create(&out)?;
        for (dim, size) in ["time", "lat", "lon"].iter().zip(&shape) {
            w.add_dimension(dim, *size)?;
        }
        w.reserve(payload as u64)?;
        for (name, data) in &vars {
            w.add_variable_f32(name, &["time", "lat", "lon"], data, vec![])?;
        }
        w.finish()
    };
    let write_secs = try_median_secs(5, write);
    std::fs::remove_file(&out).ok();
    let write_secs = write_secs?;
    Ok((
        read_secs * 1e3 / sample.len() as f64,
        bytes as f64 / 1e6 / read_secs,
        payload as f64 / 1e6 / write_secs,
    ))
}

/// Multiply-adds of one forward pass of the TC CNN on a `patch`-cell
/// patch, counted from its architecture (conv 4->8 and 8->16, 3x3, same
/// padding, each followed by a 2x2 pool; dense to 48, dense to 3), two
/// FLOPs each. Activations and pools are not counted.
fn cnn_flop_per_patch(patch: usize) -> f64 {
    let conv = |cin: usize, cout: usize, side: usize| 2 * cin * 9 * cout * side * side;
    let dense = |i: usize, o: usize| 2 * i * o;
    let flat = 16 * (patch / 4) * (patch / 4);
    (conv(4, 8, patch) + conv(8, 16, patch / 2) + dense(flat, 48) + dense(48, 3)) as f64
}

/// `tinyml`: one standardized patch through the trained network.
fn tinyml_infer_patch_us(model: &mut TcCnn) -> f64 {
    let gen = tinyml::data::PatchGenConfig { size: model.patch, ..Default::default() };
    let mut patches = tinyml::data::generate_patches(&gen, 256, 7);
    for (x, _) in &mut patches {
        TcCnn::standardize(x);
    }
    median_secs(5, || {
        for (x, _) in &patches {
            black_box(model.infer_patch(black_box(x)));
        }
    }) * 1e6
        / patches.len() as f64
}

/// `extremes`: the batched CNN service under 64 queued timesteps at the
/// workflow's `cnn_batch`. Returns `(req/s, mean wait ms of a batch's
/// oldest request, mean requests per batch)`.
fn cnn_service(p: &WorkflowParams, sets: &[FieldSet]) -> Res<(f64, f64, f64)> {
    let model_path = p.model_path.clone().ok_or("probe needs a pre-trained model")?;
    let service = CnnService::new(
        p.patch,
        model_path,
        BatchPolicy { max_batch: p.cnn_batch, ..BatchPolicy::default() },
    );
    let grid = analysis_grid(esm::atmos::tc_radius_deg(&p.grid), p.patch);
    let t = Instant::now();
    let tickets: Vec<_> =
        (0..64).map(|i| service.submit(sets[i % sets.len()].clone(), grid.clone())).collect();
    for ticket in tickets {
        ticket.wait().map_err(ctx_err("cnn service"))?;
    }
    let secs = t.elapsed().as_secs_f64();
    let stats = service.stats();
    Ok((
        64.0 / secs,
        stats.wait_us as f64 / 1e3 / stats.batches.max(1) as f64,
        stats.mean_occupancy(),
    ))
}

/// `hpcwaas`: submit-to-answer cost of a no-op entrypoint for one
/// closed-loop client (each submit waits for the previous answer).
fn hpcwaas_submit_us() -> Res<f64> {
    const N: usize = 2000;
    let api = hpcwaas::ExecutionApi::with_config(hpcwaas::ServeConfig {
        workers: crate::serve::WORKERS,
        ..hpcwaas::ServeConfig::default()
    });
    api.register(
        hpcwaas::Topology {
            name: "noop".into(),
            inputs: Default::default(),
            templates: vec![hpcwaas::tosca::NodeTemplate {
                name: "noop".into(),
                type_name: "bench.Noop".into(),
                properties: Default::default(),
                requirements: Vec::new(),
            }],
        },
        |_| Ok(String::new()),
    );
    let dep = api.deploy("noop").map_err(ctx_err("deploy no-op"))?;
    let inputs = Default::default();
    let t = Instant::now();
    for _ in 0..N {
        let handle = api.submit(dep, &inputs).map_err(ctx_err("submit no-op"))?;
        if !matches!(handle.wait(), hpcwaas::ExecutionStatus::Completed { .. }) {
            return Err("no-op execution did not complete".into());
        }
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / N as f64)
}

// ---------------------------------------------------------------- chains

/// The four CNN input fields of timestep `s` of a day.
fn native_fields(fields: &esm::DailyFields, s: usize) -> Res<FieldSet> {
    let level = |name: &str| -> Res<Field2> {
        Ok(fields.get(name).ok_or_else(|| format!("ESM output lacks {name}"))?.level(s))
    };
    Ok(FieldSet {
        psl: level("psl")?,
        wind: level("sfcWind")?,
        tas: level("tas")?,
        vort: level("vort")?,
    })
}

/// Builds the daily-extreme year cube from daily files with the public
/// operators (import -> reduce over sub-daily steps -> stack), the same
/// operator sequence the workflow's import tasks issue.
fn import_extreme_from_files(files: &[PathBuf], op: ReduceOp, nfrag: usize) -> Res<Cube> {
    let mut days = Vec::with_capacity(files.len());
    for (d, f) in files.iter().enumerate() {
        let rd = ncformat::Reader::open(f).map_err(ctx_err("open daily file"))?;
        let cube = ops::import_transposed(&rd, "tas", "time", "lat", "lon", nfrag, cfg())
            .map_err(ctx_err("import_transposed"))?;
        let daily = ops::reduce(&cube, op, "time", cfg()).map_err(ctx_err("reduce"))?;
        days.push(
            ops::add_singleton_implicit(&daily, "day", d as f64).map_err(ctx_err("singleton"))?,
        );
    }
    let refs: Vec<&Cube> = days.iter().collect();
    ops::concat_implicit(&refs, "day").map_err(ctx_err("concat"))
}

/// Bundles `(psl, sfcWind, tas, vort)` of every timestep of the year into
/// one NCX file with a `step` axis, the shape `tc_preprocess` produces.
fn bundle_tc_input(files: &[PathBuf], out: &Path) -> ncformat::Result<()> {
    let first = ncformat::Reader::open(&files[0])?;
    let (nlat, nlon) = (first.dimension("lat")?.size, first.dimension("lon")?.size);
    let spd = first.dimension("time")?.size;
    let mut w = ncformat::Writer::create(out)?;
    w.add_dimension("step", files.len() * spd)?;
    w.add_dimension("lat", nlat)?;
    w.add_dimension("lon", nlon)?;
    for var in ["psl", "sfcWind", "tas", "vort"] {
        let mut stack = Vec::with_capacity(files.len() * spd * nlat * nlon);
        for f in files {
            stack.extend(ncformat::Reader::open(f)?.read_all_f32(var)?);
        }
        w.add_variable_f32(var, &["step", "lat", "lon"], &stack, vec![])?;
    }
    w.finish()
}

/// Probe chain of the `wf_*` workloads: one workflow-sized year, every
/// stage called directly and serially, plus the micro probes of the
/// layers the workflow enters.
pub fn wf_chain(out: &mut ChildReport, ctx: &Ctx, p: &WorkflowParams, wall_s: f64) -> Res<()> {
    let streaming = ctx.workload == Workload::WfStreaming;
    let esm_cfg = p.esm_config();
    let dir = ctx.path("probe-year");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(ctx_err("create probe dir"))?;
    let model_path = p.model_path.clone().ok_or("probe needs a pre-trained model")?;
    let mut model = TcCnn::load(p.patch, &model_path).map_err(ctx_err("load CNN"))?;
    let analysis = analysis_grid(esm::atmos::tc_radius_deg(&p.grid), p.patch);
    let wave = WaveParams::default();
    let tracer = Tracer::new(ctx.workload.name());
    let mut sample_sets: Vec<FieldSet> = Vec::new();
    let mut written_bytes = 0u64;

    Probe::root(&tracer).span("core.serial_year", |year| -> Res<()> {
        // Simulation: step, encode + write, and (streaming) capture.
        let mut sim = esm::CoupledModel::new(esm_cfg.clone());
        let mut files = Vec::new();
        for _ in 0..esm_cfg.days_per_year {
            let fields = year.span("esm.step", |_| sim.step_day());
            let path = year
                .span("esm.write", |_| esm::output::write_daily(&dir, &fields))
                .map_err(ctx_err("write_daily"))?;
            written_bytes += esm::output::predicted_payload(&fields);
            if streaming {
                black_box(year.span("esm.block", |_| esm::output::DayBlock::from_fields(&fields)));
            }
            if sample_sets.len() < 8 {
                sample_sets.push(native_fields(&fields, 0)?);
            }
            files.push(path);
        }

        // Analytics: baseline, import, indices, validation, export, maps.
        let base = year.span("esm.baseline", |_| cube::baseline(&esm_cfg))?;
        let tmax = year.span("datacube.import_year", |_| {
            import_extreme_from_files(&files, ReduceOp::Max, p.nfrag)
        })?;
        let tmin = year.span("datacube.import_year", |_| {
            import_extreme_from_files(&files, ReduceOp::Min, p.nfrag)
        })?;
        let heat = year
            .span("extremes.indices", |_| compute_indices(&tmax, &base.tmax, wave, false, cfg()))
            .map_err(ctx_err("heat indices"))?;
        let cold = year
            .span("extremes.indices", |_| compute_indices(&tmin, &base.tmin, wave, true, cfg()))
            .map_err(ctx_err("cold indices"))?;
        let days = esm_cfg.days_per_year;
        let valid = year.span("extremes.validate", |_| {
            extremes::validate::validate_indices(&heat, wave, days).passed()
                && extremes::validate::validate_indices(&cold, wave, days).passed()
        });
        if !valid {
            out.fail(format!("{} probe chain: validate_indices failed", ctx.workload.name()));
        }
        if streaming {
            year.span("extremes.incremental_fold", |_| -> datacube::Result<()> {
                let mut hot =
                    extremes::WaveState::new(&base.tmax, wave, false, p.nfrag, p.io_servers);
                let mut chill =
                    extremes::WaveState::new(&base.tmin, wave, true, p.nfrag, p.io_servers);
                let mut counters = extremes::EtccdiState::new(tmax.rows());
                hot.update(&tmax)?;
                chill.update(&tmin)?;
                counters.update(&tmax, &tmin)
            })
            .map_err(ctx_err("incremental fold"))?;
        }
        let client = Client::connect(p.io_servers);
        let maps_of = [heat.number.clone(), cold.number.clone()];
        for (name, index) in [
            ("hwd", heat.duration_max),
            ("hwn", heat.number),
            ("hwf", heat.frequency),
            ("cwd", cold.duration_max),
            ("cwn", cold.number),
            ("cwf", cold.frequency),
        ] {
            let handle = client.adopt(index);
            year.span("datacube.export", |_| handle.exportnc(&dir.join(format!("{name}.ncx"))))
                .map_err(ctx_err("exportnc"))?;
        }
        year.span("extremes.maps", |_| -> datacube::Result<()> {
            for (i, index) in maps_of.iter().enumerate() {
                extremes::maps::write_ppm(index, &dir.join(format!("map-{i}.ppm")))?;
                black_box(extremes::maps::ascii_map(index, 24, 72)?);
            }
            Ok(())
        })
        .map_err(ctx_err("maps"))?;

        // Cyclones: bundle, then per timestep read, detect, regrid, CNN.
        let bundle = dir.join("tcinput.ncx");
        year.span("ncformat.bundle", |_| bundle_tc_input(&files, &bundle))
            .map_err(ctx_err("bundle tc input"))?;
        let rd = ncformat::Reader::open(&bundle).map_err(ctx_err("open tc input"))?;
        let (nlat, nlon) = (p.grid.nlat, p.grid.nlon);
        let steps = rd.dimension("step").map_err(ctx_err("step dimension"))?.size;
        let detector = DetectorParams::default();
        let mut per_step = Vec::with_capacity(steps);
        for s in 0..steps {
            let native = year
                .span("ncformat.read_slab", |_| -> ncformat::Result<FieldSet> {
                    let read = |var: &str| -> ncformat::Result<Field2> {
                        let data = rd.read_slab_f32(var, &[s, 0, 0], &[1, nlat, nlon])?;
                        Ok(Field2::from_vec(p.grid.clone(), data))
                    };
                    Ok(FieldSet {
                        psl: read("psl")?,
                        wind: read("sfcWind")?,
                        tas: read("tas")?,
                        vort: read("vort")?,
                    })
                })
                .map_err(ctx_err("read timestep"))?;
            per_step.push(year.span("extremes.detect_step", |_| {
                extremes::detect_timestep(
                    &native.psl,
                    &native.wind,
                    &native.tas,
                    &native.vort,
                    &detector,
                )
            }));
            let regridded = year.span("gridded.regrid", |_| FieldSet {
                psl: gridded::regrid_bilinear(&native.psl, &analysis),
                wind: gridded::regrid_bilinear(&native.wind, &analysis),
                tas: gridded::regrid_bilinear(&native.tas, &analysis),
                vort: gridded::regrid_bilinear(&native.vort, &analysis),
            });
            black_box(year.span("extremes.cnn_step", |_| model.localize_set(&regridded)));
        }
        black_box(year.span("extremes.track", |_| {
            extremes::stitch_tracks(&per_step, &extremes::tc::track::TrackParams::default())
        }));
        Ok(())
    })?;

    let all = tracer.spans();
    let mean = |name: &str| spans::total_ms(&all, name) / spans::count(&all, name).max(1) as f64;
    let tas_mb =
        2.0 * (esm_cfg.days_per_year * p.grid.len() * esm_cfg.timesteps_per_day * 4) as f64 / 1e6;
    out.layer.insert("esm.step_ms".into(), mean("esm.step"));
    out.layer.insert("esm.write_ms".into(), mean("esm.write"));
    out.layer.insert(
        "esm.write_MBps".into(),
        written_bytes as f64 / 1e6 / (spans::total_ms(&all, "esm.write") / 1e3),
    );
    out.layer.insert("esm.block_ms".into(), mean("esm.block"));
    out.layer
        .insert("datacube.import_year_ms".into(), spans::total_ms(&all, "datacube.import_year"));
    out.layer.insert(
        "datacube.import_MBps".into(),
        tas_mb / (spans::total_ms(&all, "datacube.import_year") / 1e3),
    );
    out.layer.insert("datacube.export_ms".into(), spans::total_ms(&all, "datacube.export"));
    out.layer.insert("extremes.indices_ms".into(), spans::total_ms(&all, "extremes.indices"));
    out.layer.insert("extremes.validate_ms".into(), spans::total_ms(&all, "extremes.validate"));
    out.layer.insert(
        "extremes.incremental_fold_ms".into(),
        spans::total_ms(&all, "extremes.incremental_fold"),
    );
    out.layer.insert("extremes.detect_step_ms".into(), mean("extremes.detect_step"));
    out.layer.insert("extremes.track_ms".into(), spans::total_ms(&all, "extremes.track"));
    out.layer.insert("extremes.cnn_step_ms".into(), mean("extremes.cnn_step"));
    out.layer.insert("gridded.regrid_ms".into(), mean("gridded.regrid"));
    let serial_year_s = spans::total_ms(&all, "core.serial_year") / 1e3;
    out.layer.insert("core.serial_year_s".into(), serial_year_s);
    out.layer.insert("core.overlap_gain".into(), p.years as f64 * serial_year_s / wall_s);

    // Micro probes of the layers the workflow enters.
    let files: Vec<PathBuf> = (0..esm_cfg.days_per_year)
        .map(|d| dir.join(esm::output::file_name(esm_cfg.start_year, d)))
        .collect();
    let (read_ms, read_mbps, write_mbps) = ncformat_round_trip(&files, &dir)?;
    out.layer.insert("ncformat.read_var_ms".into(), read_ms);
    out.layer.insert("ncformat.read_MBps".into(), read_mbps);
    out.layer.insert("ncformat.write_MBps".into(), write_mbps);
    let base = cube::baseline(&esm_cfg)?;
    let tmax = import_extreme_from_files(&files, ReduceOp::Max, p.nfrag)?;
    let (fused_ms, fused_gbps) = datacube_fused_chain(&tmax, &base.tmax)?;
    out.layer.insert("datacube.fused_chain_ms".into(), fused_ms);
    out.layer.insert("datacube.fused_GBps_computed".into(), fused_gbps);
    out.layer.insert("datacube.reduce_max_ms".into(), datacube_reduce_max_ms()?);
    out.layer.insert("tinyml.infer_patch_us".into(), tinyml_infer_patch_us(&mut model));
    out.layer.insert("tinyml.fwd_flop_per_patch".into(), cnn_flop_per_patch(p.patch));
    let regridded = sample_sets[0].regrid(&analysis);
    let tiling = Tiling::plan(analysis.clone(), TileSpec { patch: p.patch });
    out.layer.insert(
        "gridded.tile_ms".into(),
        median_secs(9, || {
            for f in [&regridded.psl, &regridded.wind, &regridded.tas, &regridded.vort] {
                black_box(tiling.extract_all(black_box(f)));
            }
        }) * 1e3,
    );
    if streaming {
        let (rps, wait_ms, mean_batch) = cnn_service(p, &sample_sets)?;
        out.layer.insert("extremes.cnn_service_rps".into(), rps);
        out.layer.insert("extremes.cnn_service_wait_ms".into(), wait_ms);
        out.layer.insert("extremes.cnn_mean_batch".into(), mean_batch);
        out.layer.insert("dataflow.stream_handoff_us".into(), dataflow_stream_handoff_us());
    }
    out.layer.insert("dataflow.task_overhead_us".into(), dataflow_task_overhead_us()?);
    out.layer.insert("par.task_overhead_ns".into(), par_task_overhead_ns());
    out.layer.insert("obs.emit_ns".into(), obs_emit_ns());
    out.trace = Some(tracer.chrome_trace());
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// Micro probes of the layers `cube_analytics` enters (its chain is the
/// traced year analysis in `cube.rs`).
pub fn cube_layers(
    out: &mut ChildReport,
    ctx: &Ctx,
    files: &[PathBuf],
    base: &Baseline,
) -> Res<()> {
    let (read_ms, read_mbps, write_mbps) = ncformat_round_trip(files, &ctx.work)?;
    out.layer.insert("ncformat.read_var_ms".into(), read_ms);
    out.layer.insert("ncformat.read_MBps".into(), read_mbps);
    out.layer.insert("ncformat.write_MBps".into(), write_mbps);
    let tmax = import_extreme_from_files(files, ReduceOp::Max, NFRAG)?;
    let (fused_ms, fused_gbps) = datacube_fused_chain(&tmax, &base.tmax)?;
    out.layer.insert("datacube.fused_chain_ms".into(), fused_ms);
    out.layer.insert("datacube.fused_GBps_computed".into(), fused_gbps);
    out.layer.insert("datacube.reduce_max_ms".into(), datacube_reduce_max_ms()?);
    out.layer.insert("par.task_overhead_ns".into(), par_task_overhead_ns());
    out.layer.insert("obs.emit_ns".into(), obs_emit_ns());
    Ok(())
}

/// Micro probes of the layers `serve_open_loop` enters.
pub fn serve_layers(out: &mut ChildReport, ctx: &Ctx, base: &Baseline, answers: &[u64]) -> Res<()> {
    out.layer.insert("hpcwaas.submit_us".into(), hpcwaas_submit_us()?);
    out.layer.insert("par.task_overhead_ns".into(), par_task_overhead_ns());
    out.layer.insert("obs.emit_ns".into(), obs_emit_ns());
    // The query's kernel at serving size, outside the service.
    let handle = Client::connect(IO_SERVERS)
        .importnc(&ctx.path("cube-0.ncx"), "tasmax", &["lat", "lon"], &["day"], NFRAG)
        .map_err(ctx_err("import cube-0"))?;
    let cube = handle.cube().map_err(ctx_err("cube-0"))?;
    if crate::serve::query(&cube, base, 0)? != answers[0] {
        out.fail("serve_open_loop probe: cube-0 answer differs from the set-up table".to_string());
    }
    let (fused_ms, fused_gbps) = datacube_fused_chain(&cube, &base.tmax)?;
    out.layer.insert("datacube.fused_chain_ms".into(), fused_ms);
    out.layer.insert("datacube.fused_GBps_computed".into(), fused_gbps);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_count_is_the_architecture_sum() {
        // 16-cell patch: conv1 2*4*9*8*256, conv2 2*8*9*16*64, dense
        // 2*256*48 and 2*48*3.
        assert_eq!(cnn_flop_per_patch(16), (147_456 + 147_456 + 24_576 + 288) as f64);
    }
}
