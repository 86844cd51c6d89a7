//! Workflow parameters.
//!
//! One struct drives the whole case study. It is set one way: start from
//! [`WorkflowParams::test_scale`] and assign fields, or apply the string
//! inputs an HPCWaaS invocation or the CLI carries
//! ([`WorkflowParams::apply_inputs`]; "Input arguments can be specified to
//! configure the workflow", Section 6). `CaseStudy::new` runs
//! [`WorkflowParams::validate`] before it touches the disk, so a struct
//! built by field assignment is checked as strictly as parsed inputs.

use esm::{EsmConfig, Scenario};
use gridded::Grid;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Parameters of one case-study run.
#[derive(Debug, Clone)]
pub struct WorkflowParams {
    /// Simulated years to run and analyse.
    pub years: usize,
    /// Days per simulated year (365 in production, small in tests).
    pub days_per_year: usize,
    /// Model grid.
    pub grid: Grid,
    /// Forcing scenario.
    pub scenario: Scenario,
    /// Master seed.
    pub seed: u64,
    /// Dataflow worker threads (one of them stands for the GPU partition
    /// and is the only one that runs CNN inference tasks).
    pub workers: usize,
    /// Simulated Ophidia I/O servers.
    pub io_servers: usize,
    /// Fragments per imported cube.
    pub nfrag: usize,
    /// CNN patch size (cells; divisible by 4).
    pub patch: usize,
    /// Output directory (model output, indices, maps, reports).
    pub out_dir: PathBuf,
    /// Optional pre-trained CNN weights; trained on the fly when absent.
    pub model_path: Option<PathBuf>,
    /// CNN training effort when training on the fly.
    pub train_samples: usize,
    pub train_epochs: usize,
    /// Reference-run fine-tuning: days of labelled historical-surrogate
    /// output to train on (0 disables fine-tuning).
    pub finetune_days: usize,
    pub finetune_epochs: usize,
    /// Checkpoint log path; a re-run with the same path resumes from the
    /// last completed frontier instead of starting over.
    pub checkpoint: Option<PathBuf>,
    /// Retries per failed task (0 = fail fast, the historical behavior).
    pub task_retries: u32,
    /// Base delay of the exponential retry backoff.
    pub retry_base_ms: u64,
    /// Streaming data plane: hand completed years to analytics through an
    /// in-memory channel (files still written as the durable fallback).
    pub streaming: bool,
    /// Capacity of the simulation→analytics year channel; a full channel
    /// blocks the simulation (backpressure) until analytics catches up.
    pub stream_depth: usize,
    /// Read only by wfbench's CNN-service probe (its `max_batch`);
    /// `climate-wf run` ignores it. No input or flag sets it.
    pub cnn_batch: usize,
}

impl WorkflowParams {
    /// Checks every field and the invariants spanning several of them
    /// (patch vs. grid, training effort vs. a pre-trained model).
    pub fn validate(&self) -> Result<(), String> {
        fn positive(name: &str, v: usize) -> Result<(), String> {
            if v == 0 {
                Err(format!("{name} must be at least 1"))
            } else {
                Ok(())
            }
        }
        positive("years", self.years)?;
        positive("days_per_year", self.days_per_year)?;
        positive("workers", self.workers)?;
        positive("io_servers", self.io_servers)?;
        positive("nfrag", self.nfrag)?;
        if self.patch == 0 || !self.patch.is_multiple_of(4) {
            return Err(format!("patch must be a positive multiple of 4, got {}", self.patch));
        }
        if self.patch > self.grid.nlat || self.patch > self.grid.nlon {
            return Err(format!(
                "patch {} does not fit the {}x{} grid",
                self.patch, self.grid.nlat, self.grid.nlon
            ));
        }
        if self.model_path.is_none() {
            positive("train_samples", self.train_samples)?;
            positive("train_epochs", self.train_epochs)?;
        }
        if self.finetune_days > 0 {
            positive("finetune_epochs", self.finetune_epochs)?;
        }
        positive("stream_depth", self.stream_depth)?;
        Ok(())
    }

    /// Small test-scale defaults (48 × 72 grid, 30-day years).
    pub fn test_scale(out_dir: PathBuf) -> Self {
        WorkflowParams {
            years: 1,
            days_per_year: 30,
            grid: Grid::test_small(),
            scenario: Scenario::Ssp245,
            seed: 42,
            workers: 4,
            io_servers: 2,
            nfrag: 8,
            patch: 16,
            out_dir,
            model_path: None,
            train_samples: 240,
            train_epochs: 12,
            finetune_days: 25,
            finetune_epochs: 10,
            checkpoint: None,
            task_retries: 0,
            retry_base_ms: 20,
            streaming: false,
            stream_depth: 2,
            cnn_batch: 8,
        }
    }

    /// Applies HPCWaaS string inputs on top of the current values.
    /// Recognized keys: `years`, `days_per_year`, `grid`
    /// (`test_small` | `demo` | `cmcc_cm3` | `NLATxNLON`), `scenario`
    /// (`historical` | `ssp245` | `ssp585`), `seed`, `workers`,
    /// `io_servers`, `nfrag`, `checkpoint`, `task_retries`,
    /// `retry_base_ms`, `streaming` (`true` | `false`), `stream_depth`.
    /// Any other key is a deployment-level concern and is ignored.
    pub fn apply_inputs(mut self, inputs: &BTreeMap<String, String>) -> Result<Self, String> {
        for (k, v) in inputs {
            match k.as_str() {
                "years" => self.years = v.parse().map_err(|_| format!("bad years '{v}'"))?,
                "days_per_year" => {
                    self.days_per_year =
                        v.parse().map_err(|_| format!("bad days_per_year '{v}'"))?
                }
                "grid" => {
                    self.grid = match v.as_str() {
                        "test_small" => Grid::test_small(),
                        "demo" => Grid::global(96, 144),
                        "cmcc_cm3" => Grid::cmcc_cm3(),
                        other => {
                            let (a, b) = other
                                .split_once('x')
                                .ok_or_else(|| format!("bad grid '{other}'"))?;
                            Grid::global(
                                a.parse().map_err(|_| format!("bad grid '{other}'"))?,
                                b.parse().map_err(|_| format!("bad grid '{other}'"))?,
                            )
                        }
                    }
                }
                "scenario" => {
                    self.scenario = match v.as_str() {
                        "historical" => Scenario::Historical,
                        "ssp245" => Scenario::Ssp245,
                        "ssp585" => Scenario::Ssp585,
                        other => return Err(format!("unknown scenario '{other}'")),
                    }
                }
                "seed" => self.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?,
                "workers" => self.workers = v.parse().map_err(|_| format!("bad workers '{v}'"))?,
                "io_servers" => {
                    self.io_servers = v.parse().map_err(|_| format!("bad io_servers '{v}'"))?
                }
                "nfrag" => self.nfrag = v.parse().map_err(|_| format!("bad nfrag '{v}'"))?,
                "checkpoint" => self.checkpoint = Some(PathBuf::from(v)),
                "task_retries" => {
                    self.task_retries = v.parse().map_err(|_| format!("bad task_retries '{v}'"))?
                }
                "retry_base_ms" => {
                    self.retry_base_ms =
                        v.parse().map_err(|_| format!("bad retry_base_ms '{v}'"))?
                }
                "streaming" => {
                    self.streaming = v.parse().map_err(|_| format!("bad streaming '{v}'"))?
                }
                "stream_depth" => {
                    self.stream_depth = v.parse().map_err(|_| format!("bad stream_depth '{v}'"))?
                }
                // Unrecognized inputs are deployment-level concerns
                // (image names etc.); ignore them.
                _ => {}
            }
        }
        self.validate()?;
        Ok(self)
    }

    /// The ESM configuration implied by these parameters.
    pub fn esm_config(&self) -> EsmConfig {
        EsmConfig::test_small()
            .with_grid(self.grid.clone())
            .with_days_per_year(self.days_per_year)
            .with_seed(self.seed)
            .with_scenario(self.scenario)
    }

    /// Directory for the ESM's daily files.
    pub fn esm_dir(&self) -> PathBuf {
        self.out_dir.join("esm-out")
    }

    /// Directory for exported indices, tracks and maps.
    pub fn products_dir(&self) -> PathBuf {
        self.out_dir.join("products")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> WorkflowParams {
        WorkflowParams::test_scale(std::env::temp_dir().join("wfp"))
    }

    #[test]
    fn inputs_override_fields() {
        let mut inputs = BTreeMap::new();
        inputs.insert("years".to_string(), "3".to_string());
        inputs.insert("grid".to_string(), "24x36".to_string());
        inputs.insert("scenario".to_string(), "ssp585".to_string());
        inputs.insert("seed".to_string(), "7".to_string());
        inputs.insert("whatever".to_string(), "ignored".to_string());
        let p = base().apply_inputs(&inputs).unwrap();
        assert_eq!(p.years, 3);
        assert_eq!((p.grid.nlat, p.grid.nlon), (24, 36));
        assert_eq!(p.scenario, Scenario::Ssp585);
        assert_eq!(p.seed, 7);
    }

    #[test]
    fn recovery_inputs_parse() {
        let mut inputs = BTreeMap::new();
        inputs.insert("checkpoint".to_string(), "/tmp/wf.ckpt".to_string());
        inputs.insert("task_retries".to_string(), "2".to_string());
        inputs.insert("retry_base_ms".to_string(), "5".to_string());
        let p = base().apply_inputs(&inputs).unwrap();
        assert_eq!(p.checkpoint, Some(PathBuf::from("/tmp/wf.ckpt")));
        assert_eq!(p.task_retries, 2);
        assert_eq!(p.retry_base_ms, 5);

        let mut inputs = BTreeMap::new();
        inputs.insert("task_retries".to_string(), "lots".to_string());
        assert!(base().apply_inputs(&inputs).is_err());
    }

    #[test]
    fn streaming_inputs_parse() {
        let mut inputs = BTreeMap::new();
        inputs.insert("streaming".to_string(), "true".to_string());
        inputs.insert("stream_depth".to_string(), "3".to_string());
        let p = base().apply_inputs(&inputs).unwrap();
        assert!(p.streaming);
        assert_eq!(p.stream_depth, 3);

        let mut inputs = BTreeMap::new();
        inputs.insert("streaming".to_string(), "maybe".to_string());
        assert!(base().apply_inputs(&inputs).is_err());
        let mut inputs = BTreeMap::new();
        inputs.insert("stream_depth".to_string(), "0".to_string());
        assert!(base().apply_inputs(&inputs).is_err(), "zero-depth channel rejected");
        assert!(!base().streaming, "streaming is opt-in");
    }

    #[test]
    fn named_grids() {
        let mut inputs = BTreeMap::new();
        inputs.insert("grid".to_string(), "demo".to_string());
        let p = base().apply_inputs(&inputs).unwrap();
        assert_eq!((p.grid.nlat, p.grid.nlon), (96, 144));
        let mut inputs = BTreeMap::new();
        inputs.insert("grid".to_string(), "cmcc_cm3".to_string());
        let p = base().apply_inputs(&inputs).unwrap();
        assert_eq!((p.grid.nlat, p.grid.nlon), (768, 1152));
    }

    #[test]
    fn bad_inputs_reported() {
        let mut inputs = BTreeMap::new();
        inputs.insert("years".to_string(), "many".to_string());
        assert!(base().apply_inputs(&inputs).is_err());
        let mut inputs = BTreeMap::new();
        inputs.insert("scenario".to_string(), "rcp85".to_string());
        assert!(base().apply_inputs(&inputs).is_err());
        let mut inputs = BTreeMap::new();
        inputs.insert("grid".to_string(), "weird".to_string());
        assert!(base().apply_inputs(&inputs).is_err());
    }

    #[test]
    fn esm_config_reflects_params() {
        let p = base();
        let cfg = p.esm_config();
        assert_eq!(cfg.days_per_year, 30);
        assert_eq!(cfg.grid, p.grid);
        assert_eq!(cfg.seed, 42);
    }

    #[test]
    fn directories_are_distinct() {
        let p = base();
        assert_ne!(p.esm_dir(), p.products_dir());
        assert!(p.esm_dir().starts_with(&p.out_dir));
    }

    #[test]
    fn validate_rejects_invalid_combinations() {
        assert!(base().validate().is_ok());
        assert!(WorkflowParams { years: 0, ..base() }.validate().is_err());
        assert!(WorkflowParams { patch: 10, ..base() }.validate().is_err(), "not a multiple of 4");
        assert!(
            WorkflowParams { grid: Grid::global(8, 8), ..base() }.validate().is_err(),
            "patch larger than grid"
        );
        let untrained = WorkflowParams { train_samples: 0, train_epochs: 0, ..base() };
        assert!(untrained.validate().is_err(), "no model and no training");
        // A model path excuses zero training effort.
        let loaded = WorkflowParams { model_path: Some("/tmp/model.bin".into()), ..untrained };
        assert!(loaded.validate().is_ok());
    }

    #[test]
    fn apply_inputs_validates_the_result() {
        let mut inputs = BTreeMap::new();
        inputs.insert("years".to_string(), "0".to_string());
        assert!(base().apply_inputs(&inputs).is_err());
        let mut inputs = BTreeMap::new();
        inputs.insert("grid".to_string(), "8x8".to_string());
        assert!(base().apply_inputs(&inputs).is_err(), "patch no longer fits");
    }
}
