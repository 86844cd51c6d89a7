//! The case-study task definitions and the workflow driver.
//!
//! Mirrors Section 5 of the paper. Each stage is a distinct task function
//! submitted to the dataflow runtime (one color each in the Figure-3
//! graph):
//!
//! | # | task | role |
//! |---|------|------|
//! | 1 | `esm_simulation`       | one simulated year of CMCC-CM3-surrogate output (chained INOUT state, runs iteratively) |
//! | 2 | `load_baseline`        | day-of-year baseline climatology cubes (loaded once, reused all run — Sec. 5.3) |
//! | 3 | `load_model`           | the pre-trained TC-localization CNN |
//! | 4 | `stage_year`           | streaming detection of a complete year of daily files (Sec. 5.2) |
//! | 5 | `import_tmax`          | daily-maximum temperature year cube via the datacube `importnc_reduced` operator |
//! | 6 | `import_tmin`          | daily-minimum temperature year cube |
//! | 7–9 | `hw_duration_max` / `hw_number` / `hw_frequency` | heat-wave indices (Sec. 5.3) |
//! | 10–12 | `cw_duration_max` / `cw_number` / `cw_frequency` | cold-spell indices |
//! | 13 | `validate_indices`    | result validation (workflow step 5) |
//! | 14 | `export_indices`      | NCX export of the six index maps |
//! | 15 | `tc_preprocess`       | per-year TC input bundle (regrid-ready fields; Sec. 5.4 step i) |
//! | 16 | `tc_cnn_localize`     | CNN inference + geo-referencing (steps ii–iii) |
//! | 17 | `tc_track_deterministic` | criteria detector + trajectory stitcher |
//! | 18 | `render_maps`         | yearly map products (workflow step 6, Figure 4) |
//!
//! Tasks exchange lightweight references ([`WfData`]): file paths for
//! everything that crosses the simulation/analytics boundary, and cube ids
//! into the shared datacube store for in-memory analytics handoff (the
//! paper's "data could be kept in memory ... as the workflow progresses").
//!
//! There is one driver, [`CaseStudy::run`], with two settings. The
//! [`RunOrder`] says when analysis is submitted (after the whole
//! simulation, or per year as years arrive). Tasks #5/#6 import the day
//! files `stage_year` lists with the datacube engine's `importnc_reduced`
//! in either setting; #15 reads the year through a [`YearSource`] — its
//! daily files, or the in-memory blocks the ESM task sent over the
//! channel — decided when the year is submitted, and bundles it into one
//! file that #16 and #17 read.

use crate::error::{WorkflowError, WorkflowStage};
use crate::params::WorkflowParams;
use crate::reporting::{process_cpu, ModelSetup, RunReport, StreamSummary, YearReport};
use datacube::ops::ReduceOp;
use datacube::{Client, CubeCache, CubeHandle, CubeId};
use dataflow::prelude::*;
use dataflow::stream::{bounded, DirWatcher, RecvTimeout, StreamSender, YearlyRule};
use dataflow::Error;
use esm::output::DayBlock;
use esm::{Simulation, YearEvents};
use extremes::heatwave::{self, WaveParams};
use extremes::incremental::{EtccdiState, WaveState};
use extremes::tc::cnn::TcCnn;
use extremes::tc::detect::{detect_timestep, DetectorParams};
use extremes::tc::track::{stitch_tracks, TrackParams};
use extremes::validate::validate_indices;
use gridded::Field2;
use ncformat::Reader;
use parking_lot::Mutex;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Payload exchanged between workflow tasks.
#[derive(Debug, Clone, PartialEq)]
pub enum WfData {
    /// Pure control token.
    Unit,
    /// Small textual result (reports, CSV blobs).
    Text(String),
    /// One file path.
    Path(PathBuf),
    /// Several file paths (a year of daily files, export bundles).
    Paths(Vec<PathBuf>),
    /// A number (year, count...).
    Num(f64),
    /// Reference to a cube in the shared datacube store.
    CubeRef(u64),
}

impl WfData {
    /// The cube id, when this is a [`WfData::CubeRef`].
    fn cube_id(&self) -> Option<CubeId> {
        match self {
            WfData::CubeRef(id) => Some(CubeId(*id)),
            _ => None,
        }
    }

    /// The paths, when this is a [`WfData::Paths`].
    fn paths(&self) -> Option<&[PathBuf]> {
        match self {
            WfData::Paths(p) => Some(p),
            _ => None,
        }
    }

    /// The text, when this is a [`WfData::Text`].
    fn text(&self) -> Option<&str> {
        match self {
            WfData::Text(t) => Some(t),
            _ => None,
        }
    }
}

impl Payload for WfData {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WfData::Unit => out.push(0),
            WfData::Text(s) => {
                out.push(1);
                out.extend_from_slice(s.as_bytes());
            }
            WfData::Path(p) => {
                out.push(2);
                out.extend_from_slice(p.to_string_lossy().as_bytes());
            }
            WfData::Paths(ps) => {
                out.push(3);
                let joined: Vec<String> =
                    ps.iter().map(|p| p.to_string_lossy().into_owned()).collect();
                out.extend_from_slice(joined.join("\n").as_bytes());
            }
            WfData::Num(v) => {
                out.push(4);
                out.extend_from_slice(&v.to_le_bytes());
            }
            WfData::CubeRef(id) => {
                out.push(5);
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        out
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let (&tag, rest) = bytes.split_first()?;
        Some(match tag {
            0 => WfData::Unit,
            1 => WfData::Text(String::from_utf8(rest.to_vec()).ok()?),
            2 => WfData::Path(PathBuf::from(String::from_utf8(rest.to_vec()).ok()?)),
            3 => {
                let s = String::from_utf8(rest.to_vec()).ok()?;
                WfData::Paths(if s.is_empty() {
                    Vec::new()
                } else {
                    s.lines().map(PathBuf::from).collect()
                })
            }
            4 => WfData::Num(f64::from_le_bytes(rest.try_into().ok()?)),
            5 => WfData::CubeRef(u64::from_le_bytes(rest.try_into().ok()?)),
            _ => return None,
        })
    }

    fn approx_size(&self) -> u64 {
        self.encode().len() as u64
    }
}

/// The variables task #15 bundles from a year's daily fields for #16 and
/// #17. An in-memory year carries only these; its daily files carry
/// every one.
const TC_VARS: [&str; 4] = ["psl", "sfcWind", "tas", "vort"];

/// A day's [`TC_VARS`] as the in-memory block a streamed year carries.
fn tc_block(fields: &esm::DailyFields) -> DayBlock {
    let mut block = DayBlock::from_fields(fields);
    block.vars.retain(|(name, _)| TC_VARS.contains(&name.as_str()));
    block
}

/// One simulated year as the ESM task hands it over in memory: the daily
/// fields #15 reads ([`TC_VARS`]) as shared blocks, plus the daily files
/// the same year was durably written to.
pub(crate) struct StreamedYear {
    year: i32,
    files: Vec<PathBuf>,
    days: Vec<DayBlock>,
}

/// When [`CaseStudy::run`] submits the per-year analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOrder {
    /// The pre-integration practice: the whole simulation runs to
    /// completion, then every year is analysed "in a second stage".
    SimFirst,
    /// The paper's contribution: each year is analysed as soon as it is
    /// complete, overlapped with the continuing simulation.
    AsYearsArrive,
}

/// Where task #15 reads one year's daily fields from. Decided when the
/// year's analysis is submitted — a channel arrival is `Mem`; a watcher
/// group (staged runs, checkpoint-restored years, a year the watcher saw
/// first) is `Files` — and owned by #15's closure only, so an in-memory
/// year is freed as soon as #15 finishes. #16 reads #15's output file,
/// not the year: the CNN runs on the one GPU worker, slower than the
/// ESM makes years, so a year it held would stay resident while later
/// years queue behind it.
///
/// Decode contract: for either variant, [`YearSource::stack`] of variable
/// `v` in [`TC_VARS`] on day `d` is the `(time, lat, lon)` time-major f32
/// stack that
/// `esm::output` serialized into that day's file — the same values
/// whether they are read back through `ncformat` or were never written
/// out of memory — on the grid [`YearSource::shape`] reports. #15 reads
/// its year only through these, which is what makes products
/// byte-identical across sources.
pub(crate) enum YearSource {
    Files(Vec<PathBuf>),
    Mem(Arc<StreamedYear>),
}

impl YearSource {
    /// The year's daily files, day-ascending (one per day for either
    /// variant: a streamed year was also written durably).
    fn files(&self) -> &[PathBuf] {
        match self {
            YearSource::Files(files) => files,
            YearSource::Mem(year) => &year.files,
        }
    }

    /// Grid and sub-daily step count of the year's fields. Daily files
    /// carry the global regular grid of their `lat`/`lon` sizes.
    fn shape(&self) -> ncformat::Result<(gridded::Grid, usize)> {
        let empty = || std::io::Error::other("year has no days");
        match self {
            YearSource::Files(files) => {
                let rd = Reader::open(files.first().ok_or_else(empty)?)?;
                let size = |dim: &str| rd.dimension(dim).map(|d| d.size);
                Ok((gridded::Grid::global(size("lat")?, size("lon")?), size("time")?))
            }
            YearSource::Mem(year) => {
                let first = year.days.first().ok_or_else(empty)?;
                Ok((first.grid.clone(), first.steps_per_day))
            }
        }
    }

    /// The time-major `(time, lat, lon)` stack of variable `var` on
    /// 0-based day `day`, checked to hold `len` values: one variable read
    /// of one daily file, or a clone of the block's shared buffer.
    fn stack(&self, var: &str, day: usize, len: usize) -> ncformat::Result<Arc<[f32]>> {
        let stack = match self {
            YearSource::Files(files) => Reader::open(&files[day])?.read_shared_f32(var)?,
            YearSource::Mem(year) => Arc::clone(
                year.days[day]
                    .var(var)
                    .ok_or_else(|| ncformat::Error::UnknownVariable(var.to_string()))?,
            ),
        };
        if stack.len() != len {
            return Err(ncformat::Error::ShapeMismatch { expected: len, actual: stack.len() });
        }
        Ok(stack)
    }
}

/// Record-to-date incremental index accumulators (streaming runs): the
/// heat/cold run-length machines and ETCCDI counters carried across year
/// boundaries by the chained `stream_record` tasks.
struct RecordState {
    heat: Option<WaveState>,
    cold: Option<WaveState>,
    etccdi: Option<EtccdiState>,
    /// Years folded in, ascending.
    years: Vec<i32>,
}

impl RecordState {
    fn empty() -> Self {
        RecordState { heat: None, cold: None, etccdi: None, years: Vec::new() }
    }

    fn init_if_needed(
        &mut self,
        base_tmax: &datacube::model::Cube,
        base_tmin: &datacube::model::Cube,
        nfrag: usize,
        io_servers: usize,
    ) {
        if self.heat.is_none() {
            self.heat =
                Some(WaveState::new(base_tmax, WaveParams::default(), false, nfrag, io_servers));
            self.cold =
                Some(WaveState::new(base_tmin, WaveParams::default(), true, nfrag, io_servers));
            self.etccdi = Some(EtccdiState::new(base_tmax.rows()));
        }
    }

    fn fold(
        &mut self,
        year: i32,
        tmax: &datacube::model::Cube,
        tmin: &datacube::model::Cube,
    ) -> datacube::Result<()> {
        self.heat.as_mut().expect("initialized").update(tmax)?;
        self.cold.as_mut().expect("initialized").update(tmin)?;
        self.etccdi.as_mut().expect("initialized").update(tmax, tmin)?;
        self.years.push(year);
        Ok(())
    }

    /// The next year the record expects (folding must stay ascending so
    /// spells crossing year boundaries concatenate in calendar order).
    fn next_year(&self, start_year: i32) -> i32 {
        self.years.last().map_or(start_year, |y| y + 1)
    }
}

/// Folds `years` (ascending) into the record from their daily files —
/// the catch-up path for years whose `stream_record` task was restored
/// from a checkpoint and therefore never executed in this process.
fn fold_years_from_files(
    st: &mut RecordState,
    years: std::ops::Range<i32>,
    params: &WorkflowParams,
    client: &Client,
) -> Result<(), String> {
    for year in years {
        let files: Vec<PathBuf> = (0..params.days_per_year)
            .map(|d| params.esm_dir().join(esm::output::file_name(year, d)))
            .collect();
        let import = |op, measure| {
            client
                .importnc_reduced(&files, "tas", op, measure, params.nfrag)
                .and_then(|h| h.cube())
                .map_err(|e| e.to_string())
        };
        let (tmax, tmin) = (import(ReduceOp::Max, "tasmax")?, import(ReduceOp::Min, "tasmin")?);
        st.fold(year, &tmax, &tmin).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Handles to the shared (non-task) resources of the workflow — the same
/// role the `client` object plays in the paper's Listing 1.
pub struct CaseStudy {
    pub params: WorkflowParams,
    pub rt: Runtime<WfData>,
    pub client: Client,
    /// The pre-trained CNN, loaded once (from `model_path`, or the model
    /// cached under the output directory for these training inputs, see
    /// [`cached_model_file`]) and shared by every year's task #16:
    /// inference takes `&self`.
    pub cnn: Arc<TcCnn>,
    /// How `cnn` was obtained, and what that took.
    model_setup: ModelSetup,
    sim: Arc<Mutex<Simulation>>,
    truth: Arc<Mutex<Vec<YearEvents>>>,
    /// Record-to-date incremental index state (streaming runs only).
    record: Arc<Mutex<RecordState>>,
}

impl CaseStudy {
    /// Prepares the workflow: output directories, datacube client, the
    /// pre-trained CNN (loaded from `model_path` or trained on synthetic
    /// patches and cached), the ESM simulation and the dataflow runtime.
    /// Invalid parameters are rejected before any of that happens.
    pub fn new(params: WorkflowParams) -> Result<Self, WorkflowError> {
        params.validate().map_err(|message| WorkflowError::Params { message })?;
        let esm_dir = params.esm_dir();
        let products_dir = params.products_dir();
        std::fs::create_dir_all(&esm_dir)
            .map_err(WorkflowError::io(WorkflowStage::Setup, &esm_dir))?;
        std::fs::create_dir_all(&products_dir)
            .map_err(WorkflowError::io(WorkflowStage::Setup, &products_dir))?;

        let model_file = params.model_path.clone().unwrap_or_else(|| cached_model_file(&params));
        let setup_start = Instant::now();
        let cpu_start = process_cpu();
        let pretrained = !model_file.exists();
        let cnn = if pretrained {
            let m = pretrain_cnn(&params);
            m.save(&model_file).map_err(|e| WorkflowError::Model { message: e.to_string() })?;
            m
        } else {
            TcCnn::load(params.patch, &model_file)
                .map_err(|e| WorkflowError::Model { message: e.to_string() })?
        };
        let time = setup_start.elapsed();
        let cpu = match (pretrained, cpu_start, process_cpu()) {
            (true, Some(start), Some(end)) => Some(end.saturating_sub(start)),
            _ => None,
        };
        let model_setup = ModelSetup { pretrained, time, cpu };

        let sim = Simulation::new(params.esm_config(), &params.esm_dir())
            .map_err(|e| WorkflowError::Simulation { message: e.to_string() })?;

        let mut config =
            RuntimeConfig::with_cpu_workers(params.workers.max(2)).with_seed(params.seed);
        // One worker stands for the GPU partition the paper sends ML
        // inference to: the years' CNN tasks (#16) queue for it and take
        // turns on the shared pool instead of time-slicing it, so year N's
        // products are complete before year N+1's.
        config.workers[0] = WorkerProfile::gpu();
        if let Some(ckpt) = &params.checkpoint {
            config = config.with_checkpoint(ckpt);
        }
        let rt = Runtime::new(config);
        Ok(CaseStudy {
            client: Client::connect(params.io_servers),
            cnn: Arc::new(cnn),
            model_setup,
            sim: Arc::new(Mutex::new(sim)),
            truth: Arc::new(Mutex::new(Vec::new())),
            record: Arc::new(Mutex::new(RecordState::empty())),
            rt,
            params,
        })
    }

    /// Ground truth collected so far (one entry per completed year).
    fn truth(&self) -> Vec<YearEvents> {
        self.truth.lock().clone()
    }

    /// Failure policy of ordinary tasks: fail-fast historically, retry
    /// with seeded-jitter exponential backoff when a retry budget is set.
    fn recovery_policy(&self) -> FailurePolicy {
        if self.params.task_retries > 0 {
            FailurePolicy::RetryBackoff {
                max_retries: self.params.task_retries,
                base_ms: self.params.retry_base_ms,
                cap_ms: self.params.retry_base_ms.saturating_mul(64).max(1000),
            }
        } else {
            FailurePolicy::FailFast
        }
    }

    /// Submits task #1 for one simulated year, chained on the previous
    /// year's state token (the ESM "runs iteratively"). With `stream`,
    /// the completed year is also handed to analytics in memory: the
    /// send blocks while the channel is full (backpressure on the
    /// simulation), and a failed send is simply ignored — the daily
    /// files are already on disk for the watcher fallback.
    fn submit_esm_year(
        &self,
        year_index: usize,
        prev: Option<&DataRef>,
        stream: Option<StreamSender<Arc<StreamedYear>>>,
    ) -> Result<TaskHandle, Error> {
        let sim = Arc::clone(&self.sim);
        let truth = Arc::clone(&self.truth);
        let builder = self
            .rt
            .task("esm_simulation")
            .key(&format!("esm-year-{year_index}"))
            .on_failure(self.recovery_policy());
        let builder = match prev {
            Some(p) => builder.updates(std::slice::from_ref(p)),
            None => builder.writes(&["esm_state"]),
        };
        builder.run(move |_| {
            let mut sim = sim.lock();
            // Checkpoint resume: earlier years restored from the log never
            // executed in this process, so fast-forward the model through
            // them (their daily files already exist from the previous run)
            // to keep this and all later years bit-identical.
            while sim.years_completed() < year_index {
                let skipped = sim.skip_years(1);
                truth.lock().extend(skipped);
            }
            let (mut files, mut days) = (Vec::new(), Vec::new());
            let summary = sim
                .run_years(1, |path, fields, _| {
                    if stream.is_some() {
                        files.push(path.to_path_buf());
                        days.push(tc_block(fields));
                    }
                })
                .map_err(|e| e.to_string())?;
            if let Some(tx) = &stream {
                let (year, n) = (summary.years[0], days.len());
                let bytes: u64 = days.iter().map(DayBlock::payload_bytes).sum();
                if tx.send(Arc::new(StreamedYear { year, files, days })).is_ok() {
                    obs::emit_with(|| obs::EventKind::YearStreamed { year, days: n, bytes });
                }
            }
            truth.lock().extend(summary.truth);
            Ok(vec![WfData::Num(summary.years[0] as f64)])
        })
    }

    /// Submits task #2: the day-of-year baseline climatology (tmax and
    /// tmin cubes, kept in memory for the whole run).
    fn submit_load_baseline(&self) -> Result<TaskHandle, Error> {
        let client = self.client.clone();
        let params = self.params.clone();
        let task = self.rt.task("load_baseline").on_failure(self.recovery_policy());
        task.writes(&["baseline_tmax", "baseline_tmin"]).run(move |_| {
            let cfg = params.esm_config();
            // Reference warming: the historical end-of-record level, so
            // projection years carry their climate-change signal in the
            // anomalies (as the paper's future-vs-historical setup does).
            let ref_warming = esm::Scenario::Historical.warming_k(2014);
            // The climatology is a pure function of the grid, year length
            // and fragmentation (`expected_daily_extremes` has no RNG and
            // the reference warming is pinned), so concurrent tenants with
            // overlapping configurations share one copy — and one build —
            // through the process-wide cube cache.
            let key_of = |measure: &str| {
                format!(
                    "baseline:{measure}:{}x{}:{}d:f{}:s{}",
                    params.grid.nlat,
                    params.grid.nlon,
                    params.days_per_year,
                    params.nfrag,
                    params.io_servers
                )
            };
            // Each day's `(tmax, tmin)` pair is computed once, and only
            // when a cache miss needs it: a hit on both keys builds nothing.
            let year = std::cell::OnceCell::new();
            let days = || -> &(Vec<Field2>, Vec<Field2>) {
                year.get_or_init(|| {
                    (0..cfg.days_per_year)
                        .map(|day| esm::model::expected_daily_extremes(&cfg, day, ref_warming))
                        .unzip()
                })
            };
            let cache = CubeCache::global();
            let tmax = cache
                .get_or_load(&key_of("tasmax"), || {
                    fields_to_year_cube(&days().0, "tasmax_baseline", &params)
                })
                .map_err(|e| e.to_string())?;
            let tmin = cache
                .get_or_load(&key_of("tasmin"), || {
                    fields_to_year_cube(&days().1, "tasmin_baseline", &params)
                })
                .map_err(|e| e.to_string())?;
            // Shallow clones: fragments share their payload buffers, so
            // adopting into this run's store copies no data.
            let h1 = client.adopt((*tmax).clone());
            let h2 = client.adopt((*tmin).clone());
            Ok(vec![WfData::CubeRef(h1.id().0), WfData::CubeRef(h2.id().0)])
        })
    }

    /// Submits task #3: publish the pre-trained CNN (a readiness token —
    /// the one loaded model already lives in shared memory, as PyCOMPSs
    /// workers share the mounted model file).
    fn submit_load_model(&self) -> Result<TaskHandle, Error> {
        let cnn = Arc::clone(&self.cnn);
        self.rt
            .task("load_model")
            .on_failure(self.recovery_policy())
            .writes(&["tc_model"])
            .run(move |_| Ok(vec![WfData::Num(cnn.param_count() as f64)]))
    }

    /// Submits the full per-year analysis chain (tasks #4–#18, plus #19
    /// `stream_record` on the streaming plane) for one complete year.
    /// The one task that reads the year through `source` (#15) owns it
    /// through its closure; the runtime drops a closure when its task
    /// turns terminal, which is what releases an in-memory year.
    fn submit_year_analysis(
        &self,
        year_key: &str,
        source: YearSource,
        baseline_tmax: &DataRef,
        baseline_tmin: &DataRef,
        model_token: &DataRef,
        record_prev: Option<&DataRef>,
    ) -> Result<YearTaskRefs, Error> {
        let params = self.params.clone();
        let client = self.client.clone();
        let source = Arc::new(source);

        // #4 stage_year — the streaming hand-off node.
        let files = source.files().to_vec();
        let n_files = files.len();
        let stage = self
            .rt
            .task("stage_year")
            .key(&format!("stage-{year_key}"))
            .on_failure(self.recovery_policy())
            .writes(&[format!("year-{year_key}").as_str()])
            .run(move |_| Ok(vec![WfData::Paths(files.clone())]))?;

        // #5/#6 import daily extreme cubes from the files stage_year lists.
        let import = |task: &str, reduce: ReduceOp, measure: &'static str| {
            let client = client.clone();
            let nfrag = params.nfrag;
            self.rt
                .task(task)
                .reads(&[stage.outputs[0].clone()])
                .on_failure(FailurePolicy::IgnoreCancelSuccessors)
                .writes(&[format!("{task}-{year_key}").as_str()])
                .run(move |inp: &[Arc<WfData>]| {
                    let files = inp[0].paths().ok_or("expected the year's day files")?;
                    let cube = client
                        .importnc_reduced(files, "tas", reduce, measure, nfrag)
                        .map_err(|e| e.to_string())?;
                    Ok(vec![WfData::CubeRef(cube.id().0)])
                })
        };
        let tmax = import("import_tmax", ReduceOp::Max, "tasmax")?;
        let tmin = import("import_tmin", ReduceOp::Min, "tasmin")?;

        // #7..#12 the six index tasks (each independent, like the paper's
        // separate colored tasks).
        let index_task =
            |name: &'static str,
             daily: &TaskHandle,
             base: &DataRef,
             cold: bool,
             pick: fn(heatwave::HeatwaveIndices) -> datacube::model::Cube| {
                let client = client.clone();
                let params = params.clone();
                self.rt
                    .task(name)
                    .reads(&[daily.outputs[0].clone(), base.clone()])
                    .on_failure(self.recovery_policy())
                    .writes(&[format!("{name}-{year_key}").as_str()])
                    .run(move |inp: &[Arc<WfData>]| {
                        let idx = heatwave::compute_indices(
                            open_cube(&client, &inp[0])?.as_ref(),
                            open_cube(&client, &inp[1])?.as_ref(),
                            WaveParams::default(),
                            cold,
                            datacube::ExecConfig::with_servers(params.io_servers),
                        )
                        .map_err(|e| e.to_string())?;
                        let out = client.adopt(pick(idx));
                        Ok(vec![WfData::CubeRef(out.id().0)])
                    })
            };
        let hwd = index_task("hw_duration_max", &tmax, baseline_tmax, false, |i| i.duration_max)?;
        let hwn = index_task("hw_number", &tmax, baseline_tmax, false, |i| i.number)?;
        let hwf = index_task("hw_frequency", &tmax, baseline_tmax, false, |i| i.frequency)?;
        let cwd = index_task("cw_duration_max", &tmin, baseline_tmin, true, |i| i.duration_max)?;
        let cwn = index_task("cw_number", &tmin, baseline_tmin, true, |i| i.number)?;
        let cwf = index_task("cw_frequency", &tmin, baseline_tmin, true, |i| i.frequency)?;

        let index_refs = [&hwd, &hwn, &hwf, &cwd, &cwn, &cwf].map(|h| h.outputs[0].clone());

        // #13 validation over the heat and cold index triples.
        let validation = {
            let client = client.clone();
            let days = self.params.days_per_year;
            self.rt
                .task("validate_indices")
                .on_failure(FailurePolicy::IgnoreCancelSuccessors)
                .key(&format!("validate-{year_key}"))
                .reads(&index_refs)
                .writes(&[format!("validation-{year_key}").as_str()])
                .run(move |inp: &[Arc<WfData>]| {
                    let cube = |d: &Arc<WfData>| open_cube(&client, d);
                    let heat = heatwave::HeatwaveIndices {
                        duration_max: (*cube(&inp[0])?).clone(),
                        number: (*cube(&inp[1])?).clone(),
                        frequency: (*cube(&inp[2])?).clone(),
                    };
                    let cold = heatwave::HeatwaveIndices {
                        duration_max: (*cube(&inp[3])?).clone(),
                        number: (*cube(&inp[4])?).clone(),
                        frequency: (*cube(&inp[5])?).clone(),
                    };
                    let rh = validate_indices(&heat, WaveParams::default(), days);
                    let rc = validate_indices(&cold, WaveParams::default(), days);
                    if rh.passed() && rc.passed() {
                        Ok(vec![WfData::Text("ok".into())])
                    } else {
                        Err(format!(
                            "validation failed: heat {:?} cold {:?}",
                            rh.findings, rc.findings
                        ))
                    }
                })?
        };

        // #14 export the six index maps as NCX files (gated on validation).
        let export = {
            let client = client.clone();
            let dir = self.params.products_dir();
            let paths: Vec<PathBuf> = ["hwd", "hwn", "hwf", "cwd", "cwn", "cwf"]
                .iter()
                .map(|name| dir.join(format!("{name}-{year_key}.ncx")))
                .collect();
            self.rt
                .task("export_indices")
                .key(&format!("export-{year_key}"))
                .on_failure(self.recovery_policy())
                .reads(&[&index_refs[..], &validation.outputs[..1]].concat())
                .writes(&[format!("exports-{year_key}").as_str()])
                .run(move |inp: &[Arc<WfData>]| {
                    for (d, path) in inp.iter().zip(&paths) {
                        open_ref(&client, d)?.exportnc(path).map_err(|e| e.to_string())?;
                    }
                    Ok(vec![WfData::Paths(paths.clone())])
                })?
        };

        // #15 TC preprocessing: bundle the four needed fields per timestep
        // into one analysis-ready file.
        let tc_input = {
            let out = self.params.products_dir().join(format!("tcinput-{year_key}.ncx"));
            let source = Arc::clone(&source);
            self.rt
                .task("tc_preprocess")
                .on_failure(FailurePolicy::IgnoreCancelSuccessors)
                .key(&format!("tcpre-{year_key}"))
                .reads(&[stage.outputs[0].clone()])
                .writes(&[format!("tcinput-{year_key}").as_str()])
                .run(move |_| {
                    build_tc_input(&source, &out).map_err(|e| e.to_string())?;
                    Ok(vec![WfData::Path(out.clone())])
                })?
        };

        // #16 CNN localization (+ geo-referencing) over every timestep of
        // #15's bundle, on the GPU-partition worker; the task body fans the
        // days onto the shared pool itself.
        let cnn_out = {
            let out = self.params.products_dir().join(format!("tc-cnn-{year_key}.csv"));
            let model = Arc::clone(&self.cnn);
            self.rt
                .task("tc_cnn_localize")
                .key(&format!("tccnn-{year_key}"))
                .reads(&[tc_input.outputs[0].clone(), model_token.clone()])
                .constraint(Constraint::gpu())
                .writes(&[format!("tc-cnn-{year_key}").as_str()])
                .run(move |inp: &[Arc<WfData>]| {
                    let WfData::Path(input) = &*inp[0] else {
                        return Err("expected tc input path".into());
                    };
                    let mut csv = String::from("day,step,lat,lon,confidence\n");
                    csv.push_str(&cnn_localize_steps(input, &model)?);
                    std::fs::write(&out, &csv).map_err(|e| e.to_string())?;
                    Ok(vec![WfData::Text(csv)])
                })?
        };

        // #17 deterministic detection + tracking.
        let tracks_out = {
            let out = self.params.products_dir().join(format!("tc-tracks-{year_key}.csv"));
            self.rt
                .task("tc_track_deterministic")
                .key(&format!("tctracks-{year_key}"))
                .on_failure(self.recovery_policy())
                .reads(&[tc_input.outputs[0].clone()])
                .writes(&[format!("tc-tracks-{year_key}").as_str()])
                .run(move |inp: &[Arc<WfData>]| {
                    let path = match &*inp[0] {
                        WfData::Path(p) => p.clone(),
                        _ => return Err("expected tc input path".into()),
                    };
                    let csv = track_year(&path).map_err(|e| e.to_string())?;
                    std::fs::write(&out, &csv).map_err(|e| e.to_string())?;
                    Ok(vec![WfData::Text(csv)])
                })?
        };

        // #18 map products (Figure 4: the Heat Wave Number map, plus the
        // cold equivalent).
        let maps = {
            let client = client.clone();
            let dir = self.params.products_dir();
            let year_key_owned = year_key.to_string();
            self.rt
                .task("render_maps")
                .key(&format!("maps-{year_key}"))
                .on_failure(self.recovery_policy())
                .reads(&[
                    hwn.outputs[0].clone(),
                    cwn.outputs[0].clone(),
                    validation.outputs[0].clone(),
                ])
                .writes(&[format!("maps-{year_key}").as_str()])
                .run(move |inp: &[Arc<WfData>]| {
                    let mut paths = Vec::new();
                    for (d, name) in inp.iter().take(2).zip(["hwn", "cwn"]) {
                        let cube = open_cube(&client, d)?;
                        let ppm = dir.join(format!("{name}-map-{year_key_owned}.ppm"));
                        extremes::maps::write_ppm(&cube, &ppm).map_err(|e| e.to_string())?;
                        let txt = dir.join(format!("{name}-map-{year_key_owned}.txt"));
                        let art =
                            extremes::maps::ascii_map(&cube, 24, 72).map_err(|e| e.to_string())?;
                        std::fs::write(&txt, art).map_err(|e| e.to_string())?;
                        paths.push(ppm);
                        paths.push(txt);
                    }
                    Ok(vec![WfData::Paths(paths)])
                })?
        };

        // #19 (streaming plane only) stream_record: fold this year into
        // the record-to-date incremental indices. Chained through the
        // previous year's record token so years fold in calendar order —
        // the run-length machines carry open spells across the boundary.
        let record = if self.params.streaming {
            let client = client.clone();
            let params = params.clone();
            let state = Arc::clone(&self.record);
            let year_key_owned = year_key.to_string();
            let mut reads = vec![
                tmax.outputs[0].clone(),
                tmin.outputs[0].clone(),
                baseline_tmax.clone(),
                baseline_tmin.clone(),
            ];
            if let Some(p) = record_prev {
                reads.push(p.clone());
            }
            let h = self
                .rt
                .task("stream_record")
                .key(&format!("record-{year_key}"))
                .on_failure(FailurePolicy::IgnoreCancelSuccessors)
                .reads(&reads)
                .writes(&[format!("record-{year_key}").as_str()])
                .run(move |inp: &[Arc<WfData>]| {
                    let cube = |d: &Arc<WfData>| open_cube(&client, d);
                    let tmax = cube(&inp[0])?;
                    let tmin = cube(&inp[1])?;
                    let base_tmax = cube(&inp[2])?;
                    let base_tmin = cube(&inp[3])?;
                    let year: i32 =
                        year_key_owned.parse().map_err(|_| "bad year key".to_string())?;
                    let mut st = state.lock();
                    st.init_if_needed(&base_tmax, &base_tmin, params.nfrag, params.io_servers);
                    // Checkpoint-restored years never ran their record
                    // task in this process; fold them from their daily
                    // files first so the record stays calendar-ordered.
                    let next = st.next_year(params.esm_config().start_year);
                    if next < year {
                        fold_years_from_files(&mut st, next..year, &params, &client)?;
                    }
                    if !st.years.contains(&year) {
                        st.fold(year, &tmax, &tmin).map_err(|e| e.to_string())?;
                    }
                    Ok(vec![WfData::Num(st.years.len() as f64)])
                })?;
            Some(h.outputs[0].clone())
        } else {
            None
        };

        Ok(YearTaskRefs {
            year_key: year_key.to_string(),
            n_files,
            hwn: hwn.outputs[0].clone(),
            cwn: cwn.outputs[0].clone(),
            validation: validation.outputs[0].clone(),
            exports: export.outputs[0].clone(),
            cnn_csv: cnn_out.outputs[0].clone(),
            tracks_csv: tracks_out.outputs[0].clone(),
            maps: maps.outputs[0].clone(),
            record,
        })
    }

    /// Runs the workflow: simulation years chained, the per-year analysis
    /// chain submitted once per year — after the whole simulation
    /// ([`RunOrder::SimFirst`]) or as each year completes, concurrently
    /// with the rest of the simulation ([`RunOrder::AsYearsArrive`]).
    ///
    /// With `params.streaming` and as-years-arrive order, the ESM task
    /// also hands each finished year over in memory through a bounded
    /// channel (it blocks when analytics lags — backpressure); the
    /// directory watcher is the durable route every other year takes
    /// (staged runs, checkpoint restores, lost sends). Sim-first never
    /// attaches the channel: nothing would drain it before the barrier.
    pub fn run(&self, order: RunOrder) -> Result<RunReport, WorkflowError> {
        let start = Instant::now();
        let cpu_start = process_cpu();
        let baseline = self
            .submit_load_baseline()
            .map_err(WorkflowError::dataflow(WorkflowStage::Baseline))?;
        let model =
            self.submit_load_model().map_err(WorkflowError::dataflow(WorkflowStage::ModelLoad))?;

        // Chain the simulation years (#1 runs iteratively).
        let (tx, rx) = (self.params.streaming && order == RunOrder::AsYearsArrive)
            .then(|| bounded::<Arc<StreamedYear>>("esm-years", self.params.stream_depth))
            .unzip();
        let mut prev: Option<DataRef> = None;
        let start_year = self.params.esm_config().start_year;
        // Year key (as the watcher groups it) → that year's ESM task.
        let mut esm_tasks: BTreeMap<String, TaskId> = BTreeMap::new();
        for y in 0..self.params.years {
            let h = self
                .submit_esm_year(y, prev.as_ref(), tx.clone())
                .map_err(WorkflowError::dataflow(WorkflowStage::Simulation))?;
            prev = Some(h.outputs[0].clone());
            esm_tasks.insert((start_year + y as i32).to_string(), h.id);
        }
        drop(tx);
        if order == RunOrder::SimFirst {
            self.rt.barrier().map_err(WorkflowError::dataflow(WorkflowStage::Barrier))?;
        }

        // Master loop: submit per-year analysis as complete years surface.
        let esm_dir = self.params.esm_dir();
        let mut watcher = DirWatcher::new(
            esm_dir.clone(),
            YearlyRule { prefix: "esm".into(), days_per_year: self.params.days_per_year },
        );
        let mut year_refs: Vec<YearTaskRefs> = Vec::new();
        let mut submitted: BTreeSet<String> = BTreeSet::new();
        // Complete file groups not yet taken (see `settled` below).
        let mut on_disk: BTreeMap<String, Vec<PathBuf>> = BTreeMap::new();
        let mut record_prev: Option<DataRef> = None;
        let mut streamed = 0usize;
        const WAIT_SECS: u64 = 3600;
        let deadline = Instant::now() + Duration::from_secs(WAIT_SECS);
        while year_refs.len() < self.params.years {
            if Instant::now() > deadline {
                return Err(WorkflowError::Timeout {
                    stage: WorkflowStage::Streaming,
                    waited_secs: WAIT_SECS,
                });
            }
            // A fail-fast abort (e.g. an injected fault exhausting its
            // retries) means the years this loop is waiting for will never
            // land; surface the abort instead of spinning to the deadline.
            if let Some(err) = self.rt.aborted() {
                let stage = abort_stage(&err, baseline.id, model.id, &esm_tasks);
                return Err(WorkflowError::Aborted { stage, source: err });
            }
            // In-memory arrivals first; the bounded wait (or the sleep,
            // without a channel) is the loop's pacing.
            let mut arrived: BTreeMap<String, YearSource> = BTreeMap::new();
            // The ESM task writes a year's last file before it sends the
            // year, so a complete file group may still have its copy on
            // the way. A year whose task was terminal before the channel
            // is emptied below has sent already: missing from the channel
            // then, it comes from its files. Restored years are terminal
            // from submission on.
            let settled: BTreeSet<&String> = esm_tasks
                .iter()
                .filter(|&(key, &id)| {
                    rx.is_some()
                        && !submitted.contains(key)
                        && self.rt.task_state(id).is_some_and(TaskState::is_terminal)
                })
                .map(|(key, _)| key)
                .collect();
            match &rx {
                Some(rx) => {
                    let mut wait = Duration::from_millis(20);
                    while let RecvTimeout::Item(year) = rx.recv_timeout(wait) {
                        arrived.insert(year.year.to_string(), YearSource::Mem(year));
                        wait = Duration::ZERO;
                    }
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
            for group in
                watcher.poll().map_err(WorkflowError::io(WorkflowStage::Streaming, &esm_dir))?
            {
                on_disk.insert(group.key, group.files);
            }
            on_disk.retain(|key, files| {
                if rx.is_some() && !settled.contains(key) {
                    return true;
                }
                arrived
                    .entry(key.clone())
                    .or_insert_with(|| YearSource::Files(std::mem::take(files)));
                false
            });
            // BTreeMap order keeps record-task chaining calendar-ascending
            // even when a restored year surfaces via its files while a
            // later year streams in.
            for (key, source) in arrived {
                if !submitted.insert(key.clone()) {
                    continue;
                }
                streamed += usize::from(matches!(source, YearSource::Mem(_)));
                let refs = self
                    .submit_year_analysis(
                        &key,
                        source,
                        &baseline.outputs[0],
                        &baseline.outputs[1],
                        &model.outputs[0],
                        record_prev.as_ref(),
                    )
                    .map_err(WorkflowError::dataflow(WorkflowStage::Analysis))?;
                record_prev = refs.record.clone();
                year_refs.push(refs);
            }
        }

        self.rt.barrier().map_err(WorkflowError::dataflow(WorkflowStage::Barrier))?;
        let record_paths =
            self.params.streaming.then(|| self.export_record_products(&baseline)).transpose()?;
        let cpu = cpu_start.zip(process_cpu()).map(|(a, b)| b.saturating_sub(a));
        let mut report = self.collect_report(start.elapsed(), cpu, &year_refs)?;
        if let Some(record_paths) = record_paths {
            report.stream = Some(StreamSummary {
                years_streamed: streamed,
                fallback_years: year_refs.len() - streamed,
                stall_us: rx.map_or(0, |rx| rx.stall_micros()),
                record_years: self.record.lock().years.len(),
                record_paths,
            });
        }
        Ok(report)
    }

    /// Exports the record-to-date (cross-year) index products accumulated
    /// by the `stream_record` chain: the six heat/cold maps as NCX plus
    /// one NCX of the ETCCDI counters. A resume run whose record tasks
    /// were all restored from the checkpoint folds the missing years from
    /// their daily files first.
    fn export_record_products(&self, baseline: &TaskHandle) -> Result<Vec<PathBuf>, WorkflowError> {
        let malformed =
            |message: String| WorkflowError::Malformed { stage: WorkflowStage::Report, message };
        let base_tmax = self.fetch_cube(&baseline.outputs[0], "baseline")?;
        let base_tmin = self.fetch_cube(&baseline.outputs[1], "baseline")?;
        let mut st = self.record.lock();
        st.init_if_needed(&base_tmax, &base_tmin, self.params.nfrag, self.params.io_servers);
        let start_year = self.params.esm_config().start_year;
        let end_year = start_year + self.params.years as i32;
        let next = st.next_year(start_year);
        if next < end_year {
            fold_years_from_files(&mut st, next..end_year, &self.params, &self.client)
                .map_err(malformed)?;
        }

        let dir = self.params.products_dir();
        let indices = |waves: &Option<WaveState>| {
            let waves = waves.as_ref().expect("initialized");
            waves.indices().map_err(WorkflowError::cube(WorkflowStage::Report))
        };
        let (heat, cold) = (indices(&st.heat)?, indices(&st.cold)?);
        let mut paths = Vec::new();
        for (cube, name) in [
            (heat.duration_max, "record-hwd"),
            (heat.number, "record-hwn"),
            (heat.frequency, "record-hwf"),
            (cold.duration_max, "record-cwd"),
            (cold.number, "record-cwn"),
            (cold.frequency, "record-cwf"),
        ] {
            let path = dir.join(format!("{name}.ncx"));
            self.client
                .adopt(cube)
                .exportnc(&path)
                .map_err(WorkflowError::cube(WorkflowStage::Report))?;
            paths.push(path);
        }

        let et = st.etccdi.as_ref().expect("initialized");
        let (frost, summer, txx, tnn) = et.values();
        let grid = &self.params.grid;
        let path = dir.join("record-etccdi.ncx");
        let write = || -> ncformat::Result<()> {
            let mut w = ncformat::Writer::create(&path)?;
            w.set_attribute("days", ncformat::Value::from(et.days() as i64));
            w.add_dimension("lat", grid.nlat)?;
            w.add_dimension("lon", grid.nlon)?;
            w.add_variable_f64("lat", &["lat"], &grid.lats(), vec![])?;
            w.add_variable_f64("lon", &["lon"], &grid.lons(), vec![])?;
            for (name, data) in
                [("frost_days", frost), ("summer_days", summer), ("txx", txx), ("tnn", tnn)]
            {
                w.add_variable_f32(name, &["lat", "lon"], data, vec![])?;
            }
            w.finish()
        };
        write().map_err(|e| malformed(e.to_string()))?;
        paths.push(path);
        Ok(paths)
    }

    /// The cube a finished task's output `r` refers to.
    fn fetch_cube(
        &self,
        r: &DataRef,
        what: &str,
    ) -> Result<Arc<datacube::model::Cube>, WorkflowError> {
        let data = self.rt.fetch(r).map_err(WorkflowError::dataflow(WorkflowStage::Report))?;
        let id = data.cube_id().ok_or_else(|| WorkflowError::Malformed {
            stage: WorkflowStage::Report,
            message: format!("{what} output is not a cube reference"),
        })?;
        self.client
            .open(id)
            .and_then(|h| h.cube())
            .map_err(WorkflowError::cube(WorkflowStage::Report))
    }

    /// Assembles the run report by fetching task outputs and comparing the
    /// TC products against the ground truth.
    fn collect_report(
        &self,
        wall: Duration,
        cpu: Option<Duration>,
        year_refs: &[YearTaskRefs],
    ) -> Result<RunReport, WorkflowError> {
        let truth = self.truth();
        let mut years = Vec::new();
        for refs in year_refs {
            let year: i32 = refs.year_key.parse().map_err(|_| WorkflowError::Malformed {
                stage: WorkflowStage::Report,
                message: format!("bad year key '{}'", refs.year_key),
            })?;
            // A failed/cancelled analysis subtree (per-task failure
            // management, Section 4.2.1) leaves the year marked failed in
            // the report while the rest of the campaign stands.
            if self.rt.fetch(&refs.validation).is_err() {
                years.push(YearReport {
                    year,
                    failed: true,
                    files: refs.n_files,
                    validated: false,
                    heatwave_cells: 0,
                    coldspell_cells: 0,
                    cnn_detections: 0,
                    deterministic_track_points: 0,
                    truth_tcs: 0,
                    truth_thermal_events: 0,
                    export_paths: Vec::new(),
                    map_paths: Vec::new(),
                    cnn_scores: None,
                    deterministic_scores: None,
                });
                continue;
            }
            let fetch = |r: &DataRef| {
                self.rt.fetch(r).map_err(WorkflowError::dataflow(WorkflowStage::Report))
            };
            let positive_cells = |r: &DataRef, what: &str| {
                let cube = self.fetch_cube(r, what)?;
                Ok::<_, WorkflowError>(cube.to_dense().iter().filter(|v| **v > 0.0).count())
            };
            let hw_cells = positive_cells(&refs.hwn, "hwn")?;
            let cw_cells = positive_cells(&refs.cwn, "cwn")?;

            let cnn_csv = fetch(&refs.cnn_csv)?.text().unwrap_or_default().to_string();
            let tracks_csv = fetch(&refs.tracks_csv)?.text().unwrap_or_default().to_string();
            let exports = fetch(&refs.exports)?.paths().unwrap_or_default().to_vec();
            let maps = fetch(&refs.maps)?.paths().unwrap_or_default().to_vec();
            let validated = fetch(&refs.validation)?.text() == Some("ok");
            let year_truth = truth.iter().find(|t| t.year == year);
            let (cnn_scores, det_scores) = match year_truth {
                Some(t) => {
                    let truth_centers = truth_centers(t);
                    (
                        Some(extremes::tc::metrics::verify(
                            &truth_centers,
                            &parse_centers_cnn(&cnn_csv),
                            1200.0,
                        )),
                        Some(extremes::tc::metrics::verify(
                            &truth_centers,
                            &parse_centers_tracks(&tracks_csv),
                            1200.0,
                        )),
                    )
                }
                None => (None, None),
            };

            years.push(YearReport {
                year,
                failed: false,
                files: refs.n_files,
                validated,
                heatwave_cells: hw_cells,
                coldspell_cells: cw_cells,
                cnn_detections: cnn_csv.lines().count().saturating_sub(1),
                deterministic_track_points: tracks_csv.lines().count().saturating_sub(1),
                truth_tcs: year_truth.map(|t| t.tcs.len()).unwrap_or(0),
                truth_thermal_events: year_truth.map(|t| t.thermal.len()).unwrap_or(0),
                export_paths: exports,
                map_paths: maps,
                cnn_scores,
                deterministic_scores: det_scores,
            });
        }

        let (tasks, edges, critical_path) = self.rt.graph_stats();
        let dot = self.rt.graph_dot();
        let dot_path = self.params.out_dir.join("taskgraph.dot");
        std::fs::write(&dot_path, &dot)
            .map_err(WorkflowError::io(WorkflowStage::Report, &dot_path))?;

        // Provenance export (Section 2's provenance capability): the full
        // used/wasGeneratedBy record of the run, in PROV-style text.
        let prov_path = self.params.out_dir.join("provenance.prov.txt");
        std::fs::write(&prov_path, self.rt.provenance().to_prov_text())
            .map_err(WorkflowError::io(WorkflowStage::Report, &prov_path))?;

        Ok(RunReport {
            wall_time: wall,
            cpu,
            lanes: par::global().threads(),
            setup: self.model_setup,
            years,
            tasks,
            edges,
            critical_path,
            function_counts: self.rt.function_counts(),
            dot_path,
            prov_path,
            metrics: self.rt.metrics(),
            timed: self.rt.timing_report(),
            placements: self.rt.scheduler_decisions(),
            stream: None,
            process_wall: None,
        })
    }
}

/// Per-year output references used by the report collector.
struct YearTaskRefs {
    year_key: String,
    n_files: usize,
    hwn: DataRef,
    cwn: DataRef,
    validation: DataRef,
    exports: DataRef,
    cnn_csv: DataRef,
    tracks_csv: DataRef,
    maps: DataRef,
    /// Record token of the `stream_record` task (streaming plane only);
    /// the next year's record task chains on it.
    record: Option<DataRef>,
}

/// The stage a fail-fast abort is reported under: that of the task whose
/// failure aborted the run (`esm` holds the ESM year tasks), or the
/// streaming loop that noticed it when no task failure is named.
fn abort_stage(
    err: &Error,
    baseline: TaskId,
    model: TaskId,
    esm: &BTreeMap<String, TaskId>,
) -> WorkflowStage {
    match err {
        Error::TaskFailed { task, .. } if *task == baseline => WorkflowStage::Baseline,
        Error::TaskFailed { task, .. } if *task == model => WorkflowStage::ModelLoad,
        Error::TaskFailed { task, .. } if esm.values().any(|id| id == task) => {
            WorkflowStage::Simulation
        }
        Error::TaskFailed { .. } => WorkflowStage::Analysis,
        _ => WorkflowStage::Streaming,
    }
}

/// Where [`CaseStudy::new`] caches the CNN it pre-trains when no
/// `model_path` is given: `tc_cnn-<digest>.tml` under the output directory,
/// the digest taken over every input [`pretrain_cnn`] reads (the reference
/// run's grid and year length included). A run with other training inputs
/// trains and caches its own model instead of loading a stale one.
fn cached_model_file(params: &WorkflowParams) -> PathBuf {
    let inputs = format!(
        "{:?}",
        (
            params.seed,
            params.patch,
            params.train_samples,
            params.train_epochs,
            params.finetune_days,
            params.finetune_epochs,
            &params.grid,
            params.days_per_year,
        )
    );
    let digest = inputs
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3));
    params.out_dir.join(format!("tc_cnn-{digest:016x}.tml"))
}

/// Pre-trains the TC-localization CNN the way the workflow's `load_model`
/// task expects it: a synthetic-vortex warm-up followed by fine-tuning on
/// labelled output of a historical reference run of the same model — the
/// reproduction's stand-in for "a CNN previously trained on historical
/// data" (Section 5.4).
pub fn pretrain_cnn(params: &WorkflowParams) -> TcCnn {
    let mut m = TcCnn::new(params.patch, params.seed);
    m.train_synthetic(params.train_samples, params.train_epochs, params.seed ^ 0xC0_FFEE);
    if params.finetune_days > 0 {
        let steps = reference_training_steps(params);
        let mut data = extremes::tc::cnn::extract_labeled_patches(
            &steps,
            params.patch,
            3,
            params.seed ^ 0xF17E,
        );
        // The boosted reference season yields thousands of patches; cap the
        // set (deterministic stride subsample) so pre-training stays a
        // seconds-scale step, matching `train_samples`'s budget intent.
        let cap = (params.train_samples * 3).max(300);
        if data.len() > cap {
            let stride = data.len().div_ceil(cap);
            data = data.into_iter().step_by(stride).collect();
        }
        // Rehearsal: mix synthetic patches back in so fine-tuning cannot
        // collapse onto the (imbalanced, correlated) reference batch.
        let rehearsal = tinyml::data::generate_patches(
            &tinyml::data::PatchGenConfig { size: params.patch, ..Default::default() },
            data.len().max(32) / 2,
            params.seed ^ 0xBEEF,
        );
        data.extend(rehearsal);
        m.train_on(data, params.finetune_epochs, 0.02);
    }
    m
}

/// Generates the CNN fine-tuning dataset: a historical reference run of
/// the same model (distinct seed, boosted cyclone activity so positives
/// are plentiful) stepped day by day, with per-timestep truth centers.
fn reference_training_steps(
    params: &WorkflowParams,
) -> Vec<(extremes::tc::cnn::FieldSet, Vec<(f64, f64)>)> {
    use extremes::tc::cnn::FieldSet;
    let mut cfg = params.esm_config();
    cfg.scenario = esm::Scenario::Historical;
    cfg.start_year = 1995;
    cfg.seed ^= 0x05EE_D0FF;
    cfg.tc_per_year *= 4.0;
    cfg.days_per_year = cfg.days_per_year.max(params.finetune_days);
    let mut model = esm::CoupledModel::new(cfg.clone());
    let events = model.year_events().clone();
    let analysis =
        extremes::tc::cnn::analysis_grid(esm::atmos::tc_radius_deg(&cfg.grid), params.patch);
    let mut steps = Vec::new();
    for _ in 0..params.finetune_days.min(cfg.days_per_year) {
        let fields = model.step_day();
        for s in 0..cfg.timesteps_per_day {
            let level = |name: &str| fields.get(name).expect("model output variable").level(s);
            let centers: Vec<(f64, f64)> = events
                .tcs
                .iter()
                .filter_map(|t| t.at(fields.day, s))
                .map(|p| (p.lat, p.lon))
                .collect();
            let native = FieldSet {
                psl: level("psl"),
                wind: level("sfcWind"),
                tas: level("tas"),
                vort: level("vort"),
            };
            steps.push((native.regrid(&analysis), centers));
        }
    }
    steps
}

/// Opens the cube a task input refers to.
fn open_ref(client: &Client, data: &WfData) -> Result<CubeHandle, String> {
    client.open(data.cube_id().ok_or("expected cube ref")?).map_err(|e| e.to_string())
}

/// The cube a task input refers to.
fn open_cube(client: &Client, data: &WfData) -> Result<Arc<datacube::model::Cube>, String> {
    open_ref(client, data)?.cube().map_err(|e| e.to_string())
}

/// Stacks per-day fields into a `(lat, lon | day)` cube (the baseline).
fn fields_to_year_cube(
    days: &[Field2],
    measure: &str,
    params: &WorkflowParams,
) -> datacube::Result<datacube::model::Cube> {
    use datacube::model::{Cube, Dimension, SharedData};
    let (grid, nday) = (&days[0].grid, days.len());
    // Built straight into the shared payload the fragments will window
    // into — no staging vector.
    let data = SharedData::from_fn(grid.len() * nday, |data| {
        for (d, f) in days.iter().enumerate() {
            for (idx, &v) in f.data.iter().enumerate() {
                data[idx * nday + d] = v;
            }
        }
    });
    let dims = vec![
        Dimension::explicit("lat", grid.lats()),
        Dimension::explicit("lon", grid.lons()),
        Dimension::implicit("day", (0..nday).map(|d| d as f64).collect::<Vec<_>>()),
    ];
    Cube::from_shared(measure, dims, data, params.nfrag, params.io_servers)
}

/// Task #15 body: bundle `(psl, sfcWind, tas, vort)` for every timestep of
/// the year into one analysis-ready NCX file with a `step` axis. Each
/// variable is streamed into the file one day stack at a time, in day
/// order, so no year-long buffer is ever held.
fn build_tc_input(source: &YearSource, out: &Path) -> ncformat::Result<()> {
    let (grid, spd) = source.shape()?;
    let ndays = source.files().len();
    let per_day = spd * grid.len();

    let mut w = ncformat::Writer::create(out)?;
    w.add_dimension("step", ndays * spd)?;
    w.add_dimension("lat", grid.nlat)?;
    w.add_dimension("lon", grid.nlon)?;
    w.add_variable_f64("lat", &["lat"], &grid.lats(), vec![])?;
    w.add_variable_f64("lon", &["lon"], &grid.lons(), vec![])?;
    for var in TC_VARS {
        w.begin_variable_f32(var, &["step", "lat", "lon"], vec![])?;
        for d in 0..ndays {
            w.write_chunk_f32(&source.stack(var, d, per_day)?)?;
        }
        w.end_variable()?;
    }
    w.set_attribute("steps_per_day", ncformat::Value::from(spd as i64));
    w.finish()
}

/// Opens a task #15 bundle: the reader, its grid, its step count and
/// its steps per day.
fn open_tc_input(input: &Path) -> ncformat::Result<(Reader, gridded::Grid, usize, usize)> {
    let rd = Reader::open(input)?;
    let (nlat, nlon) = (rd.dimension("lat")?.size, rd.dimension("lon")?.size);
    let steps = rd.dimension("step")?.size;
    let spd = rd.attribute("steps_per_day").and_then(|v| v.as_f64()).unwrap_or(4.0) as usize;
    Ok((rd, gridded::Grid::global(nlat, nlon), steps, spd))
}

/// Task #16 body: CNN localization over every timestep of the #15 bundle
/// at `input`; returns header-less CSV rows
/// `day,step,lat,lon,confidence`, step-ascending.
///
/// Days run in parallel on the shared [`par`] pool against the one shared
/// `model`; a day reads its four `(step, lat, lon)` slabs once, then
/// regrids and localizes its steps one after the other, eight tiles of a
/// step to a forward pass (see `TcCnn::localize`). A
/// step's rows do not depend on which lane scored it, and the days' rows
/// concatenate in day order.
fn cnn_localize_steps(input: &Path, model: &TcCnn) -> Result<String, String> {
    use extremes::tc::cnn::FieldSet;
    let (rd, grid, steps, spd) = open_tc_input(input).map_err(|e| e.to_string())?;
    let n = grid.len();
    let analysis = extremes::tc::cnn::analysis_grid(esm::atmos::tc_radius_deg(&grid), model.patch);
    let days: Vec<usize> = (0..steps / spd).collect();
    let parts: Vec<Result<String, String>> = par::par_map(&days, |&day| {
        let stack = |var: &str| {
            rd.read_slab_f32(var, &[day * spd, 0, 0], &[spd, grid.nlat, grid.nlon])
                .map_err(|e| e.to_string())
        };
        let (psl, wind, tas, vort) =
            (stack("psl")?, stack("sfcWind")?, stack("tas")?, stack("vort")?);
        let mut rows = String::new();
        for step in 0..spd {
            let plane =
                |stack: &[f32]| Field2::from_vec(grid.clone(), stack[step * n..][..n].to_vec());
            let native = FieldSet {
                psl: plane(&psl),
                wind: plane(&wind),
                tas: plane(&tas),
                vort: plane(&vort),
            };
            for det in model.localize_set(&native.regrid(&analysis)) {
                rows.push_str(&format!(
                    "{day},{step},{:.3},{:.3},{:.3}\n",
                    det.lat, det.lon, det.confidence
                ));
            }
        }
        Ok(rows)
    });
    parts.into_iter().collect()
}

/// Task #17 body: deterministic detection per timestep + trajectory
/// stitching; CSV output `track,day,step,lat,lon,psl_pa,wind_ms`.
fn track_year(input: &Path) -> ncformat::Result<String> {
    let (rd, grid, steps, spd) = open_tc_input(input)?;
    let (nlat, nlon) = (grid.nlat, grid.nlon);
    let params = DetectorParams::default();
    let mut per_step = Vec::with_capacity(steps);
    for s in 0..steps {
        let read = |var: &str| -> ncformat::Result<Field2> {
            let data = rd.read_slab_f32(var, &[s, 0, 0], &[1, nlat, nlon])?;
            Ok(Field2::from_vec(grid.clone(), data))
        };
        let psl = read("psl")?;
        let wind = read("sfcWind")?;
        let tas = read("tas")?;
        let vort = read("vort")?;
        per_step.push(detect_timestep(&psl, &wind, &tas, &vort, &params));
    }
    let tracks = stitch_tracks(&per_step, &TrackParams::default());
    let mut csv = String::from("track,day,step,lat,lon,psl_pa,wind_ms\n");
    for (ti, tr) in tracks.iter().enumerate() {
        for (s, d) in &tr.points {
            csv.push_str(&format!(
                "{ti},{},{},{:.3},{:.3},{:.1},{:.1}\n",
                s / spd,
                s % spd,
                d.lat,
                d.lon,
                d.min_psl_pa,
                d.max_wind_ms
            ));
        }
    }
    Ok(csv)
}

/// Ground-truth TC centers as `(global timestep, lat, lon)` tuples.
fn truth_centers(events: &YearEvents) -> Vec<(usize, f64, f64)> {
    let mut out = Vec::new();
    for tc in &events.tcs {
        for p in &tc.points {
            // Global step index within the year (4 steps per day).
            out.push((p.day * 4 + p.step, p.lat, p.lon));
        }
    }
    out
}

/// Parses the CNN CSV back into `(timestep, lat, lon)` centers.
fn parse_centers_cnn(csv: &str) -> Vec<(usize, f64, f64)> {
    csv.lines()
        .skip(1)
        .filter_map(|l| {
            let mut it = l.split(',');
            let day: usize = it.next()?.parse().ok()?;
            let step: usize = it.next()?.parse().ok()?;
            let lat: f64 = it.next()?.parse().ok()?;
            let lon: f64 = it.next()?.parse().ok()?;
            Some((day * 4 + step, lat, lon))
        })
        .collect()
}

/// Parses the deterministic-track CSV back into `(timestep, lat, lon)`.
fn parse_centers_tracks(csv: &str) -> Vec<(usize, f64, f64)> {
    csv.lines()
        .skip(1)
        .filter_map(|l| {
            let mut it = l.split(',');
            let _track: usize = it.next()?.parse().ok()?;
            let day: usize = it.next()?.parse().ok()?;
            let step: usize = it.next()?.parse().ok()?;
            let lat: f64 = it.next()?.parse().ok()?;
            let lon: f64 = it.next()?.parse().ok()?;
            Some((day * 4 + step, lat, lon))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wfdata_roundtrips() {
        for v in [
            WfData::Unit,
            WfData::Text("hello".into()),
            WfData::Path(PathBuf::from("/a/b.ncx")),
            WfData::Paths(vec![PathBuf::from("/a"), PathBuf::from("/b")]),
            WfData::Paths(vec![]),
            WfData::Num(3.5),
            WfData::CubeRef(42),
        ] {
            let enc = v.encode();
            assert_eq!(WfData::decode(&enc), Some(v));
        }
        assert_eq!(WfData::decode(&[]), None);
        assert_eq!(WfData::decode(&[99]), None);
    }

    #[test]
    fn accessor_helpers() {
        assert_eq!(WfData::CubeRef(7).cube_id(), Some(CubeId(7)));
        assert_eq!(WfData::Unit.cube_id(), None);
        assert_eq!(WfData::Text("x".into()).text(), Some("x"));
        assert!(WfData::Paths(vec![]).paths().unwrap().is_empty());
    }

    #[test]
    fn csv_parsers_roundtrip() {
        let csv = "day,step,lat,lon,confidence\n3,2,15.500,140.250,0.93\n";
        let centers = parse_centers_cnn(csv);
        assert_eq!(centers, vec![(14, 15.5, 140.25)]);

        let csv = "track,day,step,lat,lon,psl_pa,wind_ms\n0,3,2,15.5,140.25,98000.0,33.0\n";
        let centers = parse_centers_tracks(csv);
        assert_eq!(centers, vec![(14, 15.5, 140.25)]);

        assert!(parse_centers_cnn("header only\n").is_empty());
        assert!(parse_centers_tracks("h\ngarbage,line\n").is_empty());
    }

    /// A streaming-configured case study over a small, quickly trained
    /// model, and one year simulated once (files on disk + blocks).
    fn case_with_year(name: &str) -> (CaseStudy, Arc<StreamedYear>) {
        let dir = std::env::temp_dir().join("casestudy-tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        let params = WorkflowParams {
            years: 1,
            days_per_year: 6,
            train_samples: 60,
            train_epochs: 3,
            finetune_days: 0,
            streaming: true,
            ..WorkflowParams::test_scale(dir)
        };
        let cs = CaseStudy::new(params).unwrap();
        let (mut files, mut days) = (Vec::new(), Vec::new());
        let summary = cs
            .sim
            .lock()
            .run_years(1, |path, fields, _| {
                files.push(path.to_path_buf());
                days.push(tc_block(fields));
            })
            .unwrap();
        (cs, Arc::new(StreamedYear { year: summary.years[0], files, days }))
    }

    /// The equivalence proof, reduced to source invariance: the one task
    /// body that reads a [`YearSource`] (#15) gives the same bits over a
    /// year's files and over its blocks, and #16, which reads #15's
    /// bundle, gives the rows the CNN gives over the daily files.
    #[test]
    fn task_bodies_are_source_invariant() {
        let (cs, year) = case_with_year("source-invariance");
        let files = YearSource::Files(year.files.clone());
        let mem = YearSource::Mem(Arc::clone(&year));

        // #15
        let dir = cs.params.products_dir();
        let tc_input = |source: &YearSource, name: &str| {
            let out = dir.join(name);
            build_tc_input(source, &out).unwrap();
            std::fs::read(out).unwrap()
        };
        assert_eq!(tc_input(&files, "tcinput-files.ncx"), tc_input(&mem, "tcinput-mem.ncx"));

        // #16, against the CNN run step by step over the daily files.
        let mut reference = String::new();
        for (day, file) in year.files.iter().enumerate() {
            let rd = Reader::open(file).unwrap();
            let var = |name: &str| rd.read_shared_f32(name).unwrap();
            let (psl, wind, tas, vort) = (var("psl"), var("sfcWind"), var("tas"), var("vort"));
            let grid = gridded::Grid::global(
                rd.dimension("lat").unwrap().size,
                rd.dimension("lon").unwrap().size,
            );
            let (n, spd) = (grid.len(), rd.dimension("time").unwrap().size);
            let radius = esm::atmos::tc_radius_deg(&grid);
            let analysis = extremes::tc::cnn::analysis_grid(radius, cs.cnn.patch);
            for step in 0..spd {
                let plane = |s: &[f32]| Field2::from_vec(grid.clone(), s[step * n..][..n].to_vec());
                let set = extremes::tc::cnn::FieldSet {
                    psl: plane(&psl),
                    wind: plane(&wind),
                    tas: plane(&tas),
                    vort: plane(&vort),
                };
                for det in cs.cnn.localize_set(&set.regrid(&analysis)) {
                    reference.push_str(&format!(
                        "{day},{step},{:.3},{:.3},{:.3}\n",
                        det.lat, det.lon, det.confidence
                    ));
                }
            }
        }
        assert!(!reference.is_empty(), "the year should yield CNN detections to compare");
        let rows = cnn_localize_steps(&dir.join("tcinput-mem.ncx"), &cs.cnn).unwrap();
        assert_eq!(rows, reference, "CNN rows over the bundle differ from the daily files'");
        cs.rt.shutdown();
    }

    #[test]
    fn an_abort_is_reported_under_the_failed_task_stage() {
        let failed = |id: u64, name: &str| Error::TaskFailed {
            task: TaskId(id),
            name: name.into(),
            message: "chaos: poisoned payload at dataflow.task".into(),
        };
        let esm =
            BTreeMap::from([("2030".to_string(), TaskId(3)), ("2031".to_string(), TaskId(9))]);
        let stage = |err: &Error| abort_stage(err, TaskId(1), TaskId(2), &esm);
        assert_eq!(stage(&failed(1, "load_baseline")), WorkflowStage::Baseline);
        assert_eq!(stage(&failed(2, "load_model")), WorkflowStage::ModelLoad);
        assert_eq!(stage(&failed(9, "esm_simulation")), WorkflowStage::Simulation);
        assert_eq!(stage(&failed(12, "tc_track_deterministic")), WorkflowStage::Analysis);
        let other = Error::Aborted { message: "stopped".into() };
        assert_eq!(stage(&other), WorkflowStage::Streaming);
        let err = failed(1, "load_baseline");
        assert_eq!(
            WorkflowError::Aborted { stage: stage(&err), source: err }.to_string(),
            "baseline: task #1 'load_baseline' failed: chaos: poisoned payload at dataflow.task"
        );
    }

    /// An in-memory year is owned by its tasks' closures only, so it is
    /// freed once the year's last task is terminal — not at run end.
    #[test]
    fn mem_year_is_released_when_its_tasks_finish() {
        let (cs, year) = case_with_year("mem-release");
        let baseline = cs.submit_load_baseline().unwrap();
        let model = cs.submit_load_model().unwrap();
        cs.submit_year_analysis(
            &year.year.to_string(),
            YearSource::Mem(Arc::clone(&year)),
            &baseline.outputs[0],
            &baseline.outputs[1],
            &model.outputs[0],
            None,
        )
        .unwrap();
        cs.rt.barrier().unwrap();
        assert_eq!(cs.rt.metrics().failed, 0);
        assert_eq!(Arc::strong_count(&year), 1, "a finished year must not stay resident");
        cs.rt.shutdown();
    }

    #[test]
    fn fields_to_year_cube_layout() {
        let params = WorkflowParams::test_scale(std::env::temp_dir().join("cs-layout"));
        let g = gridded::Grid::global(4, 6);
        let days: Vec<Field2> = (0..3).map(|d| Field2::constant(g.clone(), d as f32)).collect();
        let cube = fields_to_year_cube(&days, "t", &params).unwrap();
        assert_eq!(cube.rows(), 24);
        assert_eq!(cube.implicit_len(), 3);
        assert_eq!(cube.to_dense()[5 * 3..6 * 3], [0.0, 1.0, 2.0]);
    }
}
