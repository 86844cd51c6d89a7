//! Multi-year simulation driver.
//!
//! Wraps the coupled model into the shape the workflow's ESM task needs:
//! run N years, write one file per day into an output directory, hand
//! each day's fields to a callback after its file lands (the streaming
//! driver keeps them as in-memory blocks), and collect the ground-truth
//! events per year for later verification.

use crate::config::EsmConfig;
use crate::events::YearEvents;
use crate::model::CoupledModel;
use crate::output;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Steps one day and writes its file, reporting to the global
/// observability bus: a step span, the step's duration and the file
/// landing with its size.
fn step_and_write(
    model: &mut CoupledModel,
    out_dir: &Path,
) -> ncformat::Result<(PathBuf, crate::model::DailyFields, u64)> {
    // One span per simulated day: model step + file write, nested under
    // the workflow task driving the simulation.
    let _span = if obs::global_active() { Some(obs::trace::span("esm_day")) } else { None };
    let t0 = Instant::now();
    let fields = model.step_day();
    let step_us = t0.elapsed().as_micros() as u64;

    let w0 = Instant::now();
    let path = output::write_daily(out_dir, &fields)?;
    let write_us = w0.elapsed().as_micros() as u64;
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let bus = obs::global();
    bus.emit_with(|| obs::EventKind::StepCompleted {
        year: fields.year,
        day: fields.day,
        micros: step_us,
    });
    bus.emit_with(|| obs::EventKind::FileWritten {
        path: path.to_string_lossy().as_ref().into(),
        bytes,
        micros: write_us,
    });
    Ok((path, fields, bytes))
}

/// Summary of a completed (partial) run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    pub files_written: usize,
    pub bytes_written: u64,
    pub years: Vec<i32>,
    /// Ground truth per simulated year.
    pub truth: Vec<YearEvents>,
}

/// A multi-year simulation bound to an output directory.
pub struct Simulation {
    model: CoupledModel,
    out_dir: PathBuf,
    years_completed: usize,
}

impl Simulation {
    /// Creates the simulation, ensuring the output directory exists.
    pub fn new(cfg: EsmConfig, out_dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(out_dir)?;
        Ok(Simulation {
            model: CoupledModel::new(cfg),
            out_dir: out_dir.to_path_buf(),
            years_completed: 0,
        })
    }

    /// Full simulated years completed (or skipped) so far.
    pub fn years_completed(&self) -> usize {
        self.years_completed
    }

    /// Runs `years` simulated years, calling `on_day(path, fields, bytes)`
    /// after each daily file lands, with the day's fields and the file's
    /// size. Returns the run summary with ground truth for every simulated
    /// year.
    pub fn run_years<F>(&mut self, years: usize, mut on_day: F) -> ncformat::Result<RunSummary>
    where
        F: FnMut(&Path, &crate::model::DailyFields, u64),
    {
        let mut summary =
            RunSummary { files_written: 0, bytes_written: 0, years: Vec::new(), truth: Vec::new() };
        for _ in 0..years {
            // Chaos site "esm.year": a year of simulation can stall (slow
            // queue / node) or error out (crashed job) at its boundary.
            obs::chaos::point("esm.year").map_err(std::io::Error::other)?;
            let (year, _) = self.model.date();
            summary.years.push(year);
            summary.truth.push(self.model.year_events().clone());
            for _ in 0..self.model.cfg.days_per_year {
                let (path, fields, bytes) = step_and_write(&mut self.model, &self.out_dir)?;
                summary.files_written += 1;
                summary.bytes_written += bytes;
                on_day(&path, &fields, bytes);
            }
            self.years_completed += 1;
        }
        Ok(summary)
    }

    /// Fast-forwards `n` simulated years WITHOUT writing any files,
    /// returning their ground truth. Checkpoint resume needs this: the
    /// coupled model's state evolves day by day and cannot be
    /// reconstructed from `(config, year)` alone, so a year restored
    /// from a checkpoint must still advance the model to keep every
    /// later year bit-identical to an unfailed run.
    pub fn skip_years(&mut self, n: usize) -> Vec<YearEvents> {
        let mut truth = Vec::with_capacity(n);
        for _ in 0..n {
            truth.push(self.model.year_events().clone());
            for _ in 0..self.model.cfg.days_per_year {
                let _ = self.model.step_day();
            }
            self.years_completed += 1;
        }
        truth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("esm-run").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn small_cfg() -> EsmConfig {
        EsmConfig::test_small().with_days_per_year(3)
    }

    #[test]
    fn run_writes_expected_files_and_calls_back() {
        let dir = tmpdir("files");
        let mut sim = Simulation::new(small_cfg(), &dir).unwrap();
        let calls = AtomicUsize::new(0);
        let summary = sim
            .run_years(2, |path, fields, bytes| {
                calls.fetch_add(1, Ordering::SeqCst);
                assert_eq!(std::fs::metadata(path).unwrap().len(), bytes);
                assert!(fields.year == 2030 || fields.year == 2031);
                assert!(fields.day < 3);
            })
            .unwrap();
        assert_eq!(summary.files_written, 6);
        assert_eq!(calls.load(Ordering::SeqCst), 6);
        assert_eq!(summary.years, vec![2030, 2031]);
        assert_eq!(summary.truth.len(), 2);
        assert!(summary.bytes_written > 0);

        let names: Vec<String> = {
            let mut v: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            v.sort();
            v
        };
        assert_eq!(
            names,
            vec![
                "esm-2030-001.ncx",
                "esm-2030-002.ncx",
                "esm-2030-003.ncx",
                "esm-2031-001.ncx",
                "esm-2031-002.ncx",
                "esm-2031-003.ncx",
            ]
        );
    }

    #[test]
    fn each_day_hands_over_the_fields_its_file_holds() {
        let dir = tmpdir("day-fields");
        let mut sim = Simulation::new(small_cfg().with_seed(9), &dir).unwrap();
        let mut days = 0;
        sim.run_years(1, |path, fields, _| {
            // An in-memory block of the day equals what a reader gets back.
            let block = output::DayBlock::from_fields(fields);
            let rd = ncformat::Reader::open(path).unwrap();
            for var in ["tas", "psl"] {
                assert_eq!(rd.read_all_f32(var).unwrap(), block.var(var).unwrap().as_ref());
            }
            days += 1;
        })
        .unwrap();
        assert_eq!(days, 3);
    }

    #[test]
    fn skip_years_fast_forward_matches_straight_run() {
        // Straight run of 2 years vs. skip year 0 then run year 1: the
        // second year's files must be byte-identical, and the skipped
        // year's truth must match what the straight run recorded.
        let cfg = small_cfg().with_seed(5);

        let full_dir = tmpdir("skip-full");
        let mut full = Simulation::new(cfg.clone(), &full_dir).unwrap();
        let full_summary = full.run_years(2, |_, _, _| {}).unwrap();
        assert_eq!(full.years_completed(), 2);

        let skip_dir = tmpdir("skip-part");
        let mut part = Simulation::new(cfg, &skip_dir).unwrap();
        let skipped_truth = part.skip_years(1);
        assert_eq!(part.years_completed(), 1);
        assert_eq!(part.model.date(), (2031, 0));
        let part_summary = part.run_years(1, |_, _, _| {}).unwrap();
        assert_eq!(part.years_completed(), 2);

        assert_eq!(skipped_truth.len(), 1);
        assert_eq!(skipped_truth[0].tcs.len(), full_summary.truth[0].tcs.len());
        assert_eq!(part_summary.years, vec![2031]);

        // No year-0 files in the skip directory; year-1 files identical.
        for day in 1..=3 {
            assert!(!skip_dir.join(format!("esm-2030-{day:03}.ncx")).exists());
            let name = format!("esm-2031-{day:03}.ncx");
            let a = std::fs::read(full_dir.join(&name)).unwrap();
            let b = std::fs::read(skip_dir.join(&name)).unwrap();
            assert_eq!(a, b, "{name} differs after fast-forward");
        }
    }

    #[test]
    fn truth_matches_generated_events() {
        let dir = tmpdir("truth");
        let cfg = small_cfg().with_seed(77);
        let mut sim = Simulation::new(cfg.clone(), &dir).unwrap();
        let expected = YearEvents::generate(&cfg, 2030);
        let summary = sim.run_years(1, |_, _, _| {}).unwrap();
        assert_eq!(summary.truth[0].tcs.len(), expected.tcs.len());
        assert_eq!(summary.truth[0].thermal.len(), expected.thermal.len());
    }
}
