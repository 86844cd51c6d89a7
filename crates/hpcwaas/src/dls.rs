//! The Data Logistics Service.
//!
//! Section 4.1: "the management of the required data is done by the Data
//! Logistics Service which executes the required data pipelines either at
//! deployment or execution time". A pipeline is a declarative list of
//! labelled transfer stages (archive to HPC site, cloud bucket...);
//! execution runs the stages over one bandwidth/latency link and reports
//! per-stage and total costs, so deploy-time vs run-time staging
//! strategies can be compared quantitatively (claim A2, pinned in
//! `tests/e2e_hpcwaas.rs`).

use dataflow::cost::LinkCost;

/// One transfer stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    pub bytes: u64,
    pub label: String,
}

/// A declarative pipeline: ordered transfer stages.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineSpec {
    pub stages: Vec<Stage>,
}

impl PipelineSpec {
    /// Empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage (builder style).
    pub fn stage(mut self, label: &str, bytes: u64) -> Self {
        self.stages.push(Stage { bytes, label: label.to_string() });
        self
    }

    /// Total bytes moved by the pipeline.
    fn total_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.bytes).sum()
    }
}

/// Per-stage execution record.
#[derive(Debug, Clone)]
pub struct StageReport {
    pub label: String,
    pub bytes: u64,
    /// Virtual cost of ALL attempts of this stage (each dropped attempt
    /// pays the full transfer cost before the retry).
    pub virtual_ms: u64,
    /// Attempts used (1 = clean transfer).
    pub attempts: u32,
}

/// Whole-pipeline execution record.
#[derive(Debug, Clone)]
pub struct TransferReport {
    pub stages: Vec<StageReport>,
    pub total_ms: u64,
    pub total_bytes: u64,
    /// Extra attempts across all stages (0 = no drops).
    pub retries: u32,
    /// True when some stage exhausted its attempts and the pipeline
    /// finished without that data (degraded mode, not a hard failure).
    pub degraded: bool,
}

/// The network model: every stage, whatever its endpoints, crosses one
/// WAN-ish link of 100 MB/s and 50 ms latency.
const LINK: LinkCost = LinkCost::new(100.0, 50_000);

/// The Data Logistics Service.
pub struct DataLogistics {
    executed: Vec<TransferReport>,
}

/// Attempts per stage before giving up on it.
const MAX_STAGE_ATTEMPTS: u32 = 3;

impl DataLogistics {
    /// Creates a service with an empty transfer history.
    pub fn new() -> Self {
        DataLogistics { executed: Vec::new() }
    }

    /// Predicted virtual duration of one stage, priced through the shared
    /// [`LinkCost`] model (no contention: DLS pipelines run their stages
    /// sequentially).
    fn predict_stage_ms(&self, s: &Stage) -> u64 {
        LINK.transfer_us(s.bytes, 1).div_ceil(1000)
    }

    /// Executes a pipeline, returning (and recording) the report.
    ///
    /// Each stage is attempted up to the configured cap; the chaos site
    /// `hpcwaas.dls.transfer` (consulted once per attempt) may drop an
    /// attempt, which still costs its full virtual duration before the
    /// retry. A stage that exhausts its attempts marks the report
    /// `degraded` and the pipeline carries on — transfer loss degrades a
    /// run, it does not kill it. The no-fault path is byte-for-byte the
    /// old behavior (one attempt per stage, identical costs).
    pub fn execute(&mut self, spec: &PipelineSpec) -> TransferReport {
        let mut stages = Vec::with_capacity(spec.stages.len());
        let mut total_ms = 0;
        let mut retries = 0u32;
        let mut degraded = false;
        let bus = obs::global();
        for s in &spec.stages {
            let ms = self.predict_stage_ms(s);
            let mut attempts = 0u32;
            let mut stage_cost = 0u64;
            let delivered = loop {
                attempts += 1;
                stage_cost += ms;
                bus.emit_with(|| obs::EventKind::TransferStaged {
                    label: s.label.as_str().into(),
                    bytes: s.bytes,
                    virtual_ms: ms,
                });
                let dropped = matches!(
                    obs::chaos::fire("hpcwaas.dls.transfer"),
                    Some(obs::chaos::Fault::Drop)
                );
                if !dropped {
                    break true;
                }
                if attempts >= MAX_STAGE_ATTEMPTS {
                    break false;
                }
            };
            retries += attempts - 1;
            degraded |= !delivered;
            total_ms += stage_cost;
            stages.push(StageReport {
                label: s.label.clone(),
                bytes: s.bytes,
                virtual_ms: stage_cost,
                attempts,
            });
        }
        let report =
            TransferReport { stages, total_ms, total_bytes: spec.total_bytes(), retries, degraded };
        self.executed.push(report.clone());
        report
    }

    /// All reports so far.
    pub fn history(&self) -> &[TransferReport] {
        &self.executed
    }
}

impl Default for DataLogistics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_cost_is_latency_plus_transfer() {
        let mut dls = DataLogistics::new();
        let p = PipelineSpec::new().stage("baseline", 2_000_000_000);
        let r = dls.execute(&p);
        // 2 GB at 100 MB/s = 20 000 ms + 50 ms latency.
        assert_eq!(r.total_ms, 20_050);
        assert_eq!(r.total_bytes, 2_000_000_000);
        assert_eq!(r.stages[0].attempts, 1, "clean path is single-attempt");
        assert_eq!(r.retries, 0);
        assert!(!r.degraded);
    }

    #[test]
    fn multi_stage_pipeline_sums() {
        let mut dls = DataLogistics::new();
        let p = PipelineSpec::new().stage("in", 100_000_000).stage("out", 200_000_000);
        let r = dls.execute(&p);
        assert_eq!(r.stages.len(), 2);
        assert_eq!(r.total_ms, (50 + 1000) + (50 + 2000));
        assert_eq!(dls.history().len(), 1);
    }

    #[test]
    fn empty_pipeline_is_free() {
        let mut dls = DataLogistics::new();
        let r = dls.execute(&PipelineSpec::new());
        assert_eq!(r.total_ms, 0);
        assert_eq!(r.total_bytes, 0);
    }
}
