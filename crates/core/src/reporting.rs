//! Run reports: what the workflow returns to the scientist.

use dataflow::Metrics;
use extremes::tc::metrics::Scores;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Per-year products and verification.
#[derive(Debug, Clone)]
pub struct YearReport {
    pub year: i32,
    /// True when this year's analysis subtree failed (e.g. corrupt input);
    /// all science fields below are zero/empty in that case.
    pub failed: bool,
    /// Daily files consumed.
    pub files: usize,
    /// Whether the validation task passed.
    pub validated: bool,
    /// Cells with at least one heat wave.
    pub heatwave_cells: usize,
    /// Cells with at least one cold spell.
    pub coldspell_cells: usize,
    /// CNN detections over the year (timestep-level).
    pub cnn_detections: usize,
    /// Deterministic track points over the year.
    pub deterministic_track_points: usize,
    /// Ground truth: injected cyclone count.
    pub truth_tcs: usize,
    /// Ground truth: injected thermal event count.
    pub truth_thermal_events: usize,
    pub export_paths: Vec<PathBuf>,
    pub map_paths: Vec<PathBuf>,
    /// CNN verification vs truth (None when truth is unavailable).
    pub cnn_scores: Option<Scores>,
    /// Deterministic-tracker verification vs truth.
    pub deterministic_scores: Option<Scores>,
}

/// What a `--streaming` run's record-to-date indices hold.
#[derive(Debug, Clone, Default)]
pub struct StreamSummary {
    /// Always 0: every year reaches analytics through its daily files.
    /// Kept, with `fallback_years` and `stall_us`, only because wfbench
    /// reads them.
    pub years_streamed: usize,
    /// Years read from their daily files: every year analysed.
    pub fallback_years: usize,
    /// Always 0; see `years_streamed`.
    pub stall_us: u64,
    /// Years folded into the record-to-date incremental indices.
    pub record_years: usize,
    /// Record-to-date index exports (cross-year products).
    pub record_paths: Vec<PathBuf>,
}

/// How a run obtained its pre-trained CNN, and what that took. It happens
/// before the workflow starts, so `wall_time` does not include it.
#[derive(Debug, Clone, Copy)]
pub struct ModelSetup {
    /// True when the model was pre-trained (and cached) for this run,
    /// false when an existing model file was loaded.
    pub pretrained: bool,
    pub time: Duration,
    /// Process CPU time (user + system, every thread) spent over `time`
    /// when the model was pre-trained; `None` when it was loaded or the
    /// platform does not report it.
    pub cpu: Option<Duration>,
}

/// This process's CPU time so far, user plus system over all its threads:
/// fields 14 and 15 of `/proc/self/stat`, in clock ticks of 1/100 s (the
/// `USER_HZ` Linux reports them in). `None` where that file is missing.
pub(crate) fn process_cpu() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) is in parentheses and may hold spaces.
    let mut fields = stat[stat.rfind(')')? + 1..].split_whitespace().skip(11);
    let mut ticks = || fields.next()?.parse::<u64>().ok();
    Some(Duration::from_millis((ticks()? + ticks()?) * 10))
}

/// Whole-run report.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub wall_time: Duration,
    /// Process CPU time (user + system, every thread) spent over
    /// `wall_time`; `None` where the platform does not report it.
    pub cpu: Option<Duration>,
    /// Lanes of the global `par` pool the run computed on.
    pub lanes: usize,
    /// The CNN's set-up before the workflow ran.
    pub setup: ModelSetup,
    pub years: Vec<YearReport>,
    /// Task-graph statistics (the Figure-3 reproduction).
    pub tasks: usize,
    pub edges: usize,
    pub critical_path: usize,
    pub function_counts: BTreeMap<String, usize>,
    /// Where the DOT rendering was written.
    pub dot_path: PathBuf,
    /// Where the PROV-style provenance document was written.
    pub prov_path: PathBuf,
    /// Runtime execution metrics.
    pub metrics: Metrics,
    /// Timed critical-path analysis over measured task durations
    /// (None when no task completed).
    pub timed: Option<dataflow::timing::TimedPath>,
    /// Every placement decision the runtime made (estimated duration
    /// at pick time, measured duration at completion).
    pub placements: Vec<dataflow::PlacementDecision>,
    /// Streaming data-plane summary (None for staged, file-based runs).
    pub stream: Option<StreamSummary>,
    /// The process's wall clock from its start to this report, which the
    /// `climate-wf` binary sets; `None` from the library.
    pub process_wall: Option<Duration>,
}

/// `1234567` µs → `"1.23s"`, `4321` µs → `"4.3ms"`.
fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}\u{b5}s")
    }
}

impl RunReport {
    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== Climate-extremes workflow report ==");
        let _ = writeln!(s, "wall time: {:.2?}", self.wall_time);
        let _ = write!(s, "parallelism: {} par lanes", self.lanes);
        if let Some(cpu) = self.cpu {
            let busy = cpu.as_secs_f64() / self.wall_time.as_secs_f64().max(1e-9);
            let _ = write!(s, ", CPU {cpu:.2?}, {busy:.2} CPU/wall");
        }
        let _ = writeln!(s);
        let setup = &self.setup;
        let _ = write!(
            s,
            "setup: CNN {} in {:.2?}",
            if setup.pretrained { "pre-trained" } else { "loaded" },
            setup.time
        );
        if let Some(cpu) = setup.cpu {
            let lanes = cpu.as_secs_f64() / setup.time.as_secs_f64().max(1e-9);
            let _ = write!(s, " (CPU {cpu:.2?}, {lanes:.2} lanes busy)");
        }
        let _ = writeln!(s);
        if let Some(process) = self.process_wall {
            // Whole milliseconds, truncated: the parts then sum to the
            // total exactly, and `other` is never negative.
            let ms = |d: Duration| d.as_millis() as u64;
            let (total, setup, workflow) = (ms(process), ms(setup.time), ms(self.wall_time));
            let other = total.saturating_sub(setup + workflow);
            let secs = |ms: u64| format!("{}.{:03}s", ms / 1000, ms % 1000);
            let _ = writeln!(
                s,
                "process wall: {} = setup {} + workflow {} + other {}",
                secs(total),
                secs(setup),
                secs(workflow),
                secs(other)
            );
        }
        let _ = writeln!(
            s,
            "task graph: {} tasks, {} edges, critical path {} (dot: {})",
            self.tasks,
            self.edges,
            self.critical_path,
            self.dot_path.display()
        );
        let _ = writeln!(s, "task functions:");
        for (name, count) in &self.function_counts {
            let _ = writeln!(s, "  {name:<24} x{count}");
        }
        for y in &self.years {
            if y.failed {
                let _ = writeln!(
                    s,
                    "year {}: ANALYSIS FAILED (subtree cancelled; simulation continued)",
                    y.year
                );
                continue;
            }
            let _ = writeln!(
                s,
                "year {}: {} files, validated={}, HW cells {}, CW cells {}, \
                 truth events: {} thermal / {} TCs",
                y.year,
                y.files,
                y.validated,
                y.heatwave_cells,
                y.coldspell_cells,
                y.truth_thermal_events,
                y.truth_tcs
            );
            if let Some(sc) = &y.deterministic_scores {
                let _ = writeln!(
                    s,
                    "  deterministic tracker: POD {:.2}, FAR {:.2}, err {:.0} km ({} hits)",
                    sc.pod, sc.far, sc.mean_error_km, sc.hits
                );
            }
            if let Some(sc) = &y.cnn_scores {
                let _ = writeln!(
                    s,
                    "  CNN localization:      POD {:.2}, FAR {:.2}, err {:.0} km ({} hits)",
                    sc.pod, sc.far, sc.mean_error_km, sc.hits
                );
            }
        }
        let _ = writeln!(
            s,
            "runtime: {} completed, {} failed, {} cancelled, {} retries",
            self.metrics.completed,
            self.metrics.failed,
            self.metrics.cancelled,
            self.metrics.retries
        );
        if let Some(st) = &self.stream {
            let _ = writeln!(
                s,
                "streaming: record-to-date indices over {} year(s), {} record product(s)",
                st.record_years,
                st.record_paths.len()
            );
        }
        if let Some(t) = &self.timed {
            s.push_str(&self.render_timed(t));
        }
        let _ = writeln!(s, "scheduling: {} placements", self.placements.len());
        s
    }

    /// The timed critical-path section: the measured path with per-step
    /// durations, one what-if speedup per task function on the path, slack
    /// summary and a self-time top list.
    fn render_timed(&self, t: &dataflow::timing::TimedPath) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "timed critical path: {} over {} tasks ({:.0}% of {} wall)",
            fmt_us(t.path_us),
            t.path.len(),
            t.path_fraction() * 100.0,
            fmt_us(t.wall_us)
        );
        for step in &t.path {
            let _ = writeln!(
                s,
                "  {:<28} {:>9}  (start +{})",
                step.name,
                fmt_us(step.duration_us),
                fmt_us(step.start_us)
            );
        }
        for w in &t.what_if {
            let _ = writeln!(
                s,
                "  what-if {} were free: path {} ({:.2}x whole-run ceiling)",
                w.name,
                fmt_us(w.path_us),
                w.speedup
            );
        }
        let off_path: Vec<&(dataflow::TaskId, u64)> =
            t.slack_us.iter().filter(|(_, sl)| *sl > 0).collect();
        if !off_path.is_empty() {
            let max = off_path.iter().map(|(_, sl)| *sl).max().unwrap_or(0);
            let _ = writeln!(
                s,
                "slack: {} off-path task(s), max slack {}",
                off_path.len(),
                fmt_us(max)
            );
        }
        let _ = writeln!(s, "self-time by task function:");
        for (name, us, count) in t.self_time.iter().take(8) {
            let _ = writeln!(s, "  {name:<28} {:>9}  x{count}", fmt_us(*us));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            wall_time: Duration::from_millis(1234),
            cpu: Some(Duration::from_millis(2100)),
            lanes: 2,
            setup: ModelSetup {
                pretrained: true,
                time: Duration::from_millis(2500),
                cpu: Some(Duration::from_millis(4420)),
            },
            years: vec![YearReport {
                year: 2030,
                failed: false,
                files: 30,
                validated: true,
                heatwave_cells: 12,
                coldspell_cells: 4,
                cnn_detections: 20,
                deterministic_track_points: 35,
                truth_tcs: 2,
                truth_thermal_events: 3,
                export_paths: vec![PathBuf::from("/p/hwn-2030.ncx")],
                map_paths: vec![PathBuf::from("/p/hwn-map-2030.ppm")],
                cnn_scores: None,
                deterministic_scores: None,
            }],
            tasks: 18,
            edges: 25,
            critical_path: 6,
            function_counts: BTreeMap::from([("esm_simulation".to_string(), 1)]),
            dot_path: PathBuf::from("/p/taskgraph.dot"),
            prov_path: PathBuf::from("/p/provenance.prov.txt"),
            metrics: Metrics::default(),
            timed: None,
            placements: Vec::new(),
            stream: None,
            process_wall: None,
        }
    }

    #[test]
    fn render_contains_key_facts() {
        let r = sample().render();
        assert!(r.contains("2030"));
        assert!(r.contains("18 tasks"));
        assert!(r.contains("esm_simulation"));
        assert!(r.contains("HW cells 12"));
        assert!(r.contains("validated=true"));
        assert!(
            r.contains(
                "wall time: 1.23s\nparallelism: 2 par lanes, CPU 2.10s, 1.70 CPU/wall\n\
                 setup: CNN pre-trained in 2.50s (CPU 4.42s, 1.77 lanes busy)\n"
            ),
            "got:\n{r}"
        );
        let mut timed = sample();
        timed.process_wall = Some(Duration::from_micros(3_801_999));
        let r = timed.render();
        assert!(
            r.contains(
                "1.77 lanes busy)\n\
                 process wall: 3.801s = setup 2.500s + workflow 1.234s + other 0.067s\n"
            ),
            "got:\n{r}"
        );
        let mut loaded = sample();
        loaded.cpu = None;
        loaded.setup =
            ModelSetup { pretrained: false, time: Duration::from_micros(1500), cpu: None };
        let r = loaded.render();
        assert!(r.contains("parallelism: 2 par lanes\nsetup: CNN loaded in 1.50ms\n"), "got:\n{r}");
    }

    /// A spinning thread moves the process's CPU clock.
    #[test]
    fn process_cpu_counts_this_process() {
        let Some(before) = process_cpu() else { return }; // no /proc here
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while process_cpu().unwrap() < before + Duration::from_millis(30) {
            for _ in 0..100_000 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
            assert!(t.elapsed() < Duration::from_secs(20), "the CPU clock never moved");
        }
    }

    #[test]
    fn render_includes_timed_path_section() {
        use dataflow::timing::{analyze, TaskSpan};
        use dataflow::TaskId;
        use std::sync::Arc;
        let spans = [
            TaskSpan { task: TaskId(1), name: Arc::from("sim"), start_us: 0, end_us: 2_000_000 },
            TaskSpan { task: TaskId(2), name: Arc::from("analyze"), start_us: 0, end_us: 500 },
        ];
        let mut report = sample();
        report.timed = analyze(&[], &spans);
        let r = report.render();
        assert!(r.contains("timed critical path: 2.00s"), "got:\n{r}");
        assert!(r.contains("self-time by task function"));
        assert!(r.contains("sim"));
    }

    #[test]
    fn render_counts_placements_and_prints_no_estimate() {
        use dataflow::{PlacementDecision, TaskId};
        use std::sync::Arc;
        let mut report = sample();
        report.placements = [(1, "sim", 0, 3_000), (2, "analyze", 1, 2_000)]
            .map(|(task, name, worker, actual)| PlacementDecision {
                task: TaskId(task),
                name: Arc::from(name),
                worker,
                est_us: 0,
                actual_us: Some(actual),
            })
            .to_vec();
        let r = report.render();
        assert!(r.contains("scheduling: 2 placements"), "got:\n{r}");
        assert!(!r.contains("estimate"), "got:\n{r}");
    }

    #[test]
    fn render_includes_streaming_section() {
        let mut report = sample();
        report.stream = Some(StreamSummary {
            fallback_years: 3,
            record_years: 3,
            record_paths: vec![PathBuf::from("/p/record-hwn.ncx")],
            ..StreamSummary::default()
        });
        let r = report.render();
        assert!(
            r.contains("streaming: record-to-date indices over 3 year(s), 1 record product(s)"),
            "got:\n{r}"
        );
        assert!(!sample().render().contains("streaming:"), "staged runs have no section");
    }

    #[test]
    fn fmt_us_picks_sane_units() {
        assert_eq!(fmt_us(750), "750\u{b5}s");
        assert_eq!(fmt_us(4_321), "4.3ms");
        assert_eq!(fmt_us(1_234_567), "1.23s");
    }
}
