//! Typed workflow-outcome errors.
//!
//! The workflow driver (`CaseStudy::run`, and `run_pipelined` /
//! `run_sequential`, its two submission orders) reports failures as a [`WorkflowError`] that names the [`WorkflowStage`]
//! in which the run died and wraps the underlying substrate error —
//! `dataflow` runtime failures, `datacube` engine errors, filesystem
//! problems and HPCWaaS serving-layer rejections — instead of a flattened
//! `String`. Callers that only want text (the CLI, the HPCWaaS entrypoint)
//! get it via `Display`/`From<WorkflowError> for String`.

use std::fmt;
use std::path::PathBuf;

/// Where in the end-to-end workflow a failure occurred. The stages mirror
/// the drivers' structure: setup, the three root tasks, the streaming
/// master loop, the per-year analysis chains, the final barrier and the
/// report collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkflowStage {
    /// Output directories, CNN weights, ESM construction.
    Setup,
    /// Task #2, the day-of-year baseline climatology.
    Baseline,
    /// Task #3, publishing the pre-trained CNN.
    ModelLoad,
    /// Task #1 chain, the iterative ESM years.
    Simulation,
    /// The master streaming loop watching for complete years.
    Streaming,
    /// The per-year analysis chains (tasks #4–#18).
    Analysis,
    /// The final runtime barrier.
    Barrier,
    /// Report collection: fetching outputs, provenance, graph export.
    Report,
}

impl WorkflowStage {
    /// Stable lowercase stage name (used in logs and error text).
    fn name(self) -> &'static str {
        match self {
            WorkflowStage::Setup => "setup",
            WorkflowStage::Baseline => "baseline",
            WorkflowStage::ModelLoad => "model-load",
            WorkflowStage::Simulation => "simulation",
            WorkflowStage::Streaming => "streaming",
            WorkflowStage::Analysis => "analysis",
            WorkflowStage::Barrier => "barrier",
            WorkflowStage::Report => "report",
        }
    }
}

impl fmt::Display for WorkflowStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A workflow-level failure: the stage that died plus the wrapped cause.
#[derive(Debug)]
pub enum WorkflowError {
    /// The parameters failed [`WorkflowParams::validate`]; nothing was
    /// created on disk.
    ///
    /// [`WorkflowParams::validate`]: crate::WorkflowParams::validate
    Params { message: String },
    /// Filesystem failure (directory creation, watcher polling, report
    /// artifact writes).
    Io { stage: WorkflowStage, path: PathBuf, source: std::io::Error },
    /// CNN weights could not be loaded, trained or saved.
    Model { message: String },
    /// The ESM surrogate failed to initialize.
    Simulation { message: String },
    /// A dataflow-runtime failure: task submission, barrier, fetch.
    Dataflow { stage: WorkflowStage, source: dataflow::Error },
    /// A datacube-engine failure while assembling the report.
    Cube { stage: WorkflowStage, source: datacube::Error },
    /// The streaming loop gave up waiting for simulation output.
    Timeout { stage: WorkflowStage, waited_secs: u64 },
    /// The runtime aborted fail-fast; the run is dead. `stage` is that of
    /// the task whose failure aborted it.
    Aborted { stage: WorkflowStage, source: dataflow::Error },
    /// An intermediate datum had the wrong shape (bad year key, a task
    /// output that should have been a cube reference but was not).
    Malformed { stage: WorkflowStage, message: String },
}

impl WorkflowError {
    /// Curried constructor for `map_err` on dataflow results.
    pub(crate) fn dataflow(stage: WorkflowStage) -> impl Fn(dataflow::Error) -> WorkflowError {
        move |source| WorkflowError::Dataflow { stage, source }
    }

    /// Curried constructor for `map_err` on datacube results.
    pub(crate) fn cube(stage: WorkflowStage) -> impl Fn(datacube::Error) -> WorkflowError {
        move |source| WorkflowError::Cube { stage, source }
    }

    /// Curried constructor for `map_err` on filesystem results.
    pub(crate) fn io(
        stage: WorkflowStage,
        path: &std::path::Path,
    ) -> impl Fn(std::io::Error) -> WorkflowError + '_ {
        move |source| WorkflowError::Io { stage, path: path.to_path_buf(), source }
    }
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::Io { stage, path, source } => {
                write!(f, "{stage}: io error on {}: {source}", path.display())
            }
            WorkflowError::Params { message } => write!(f, "setup: invalid parameters: {message}"),
            WorkflowError::Model { message } => write!(f, "setup: model: {message}"),
            WorkflowError::Simulation { message } => write!(f, "setup: simulation: {message}"),
            WorkflowError::Dataflow { stage, source }
            | WorkflowError::Aborted { stage, source } => write!(f, "{stage}: {source}"),
            WorkflowError::Cube { stage, source } => write!(f, "{stage}: {source}"),
            WorkflowError::Timeout { stage, waited_secs } => {
                write!(f, "{stage}: timed out after {waited_secs}s waiting for simulation output")
            }
            WorkflowError::Malformed { stage, message } => write!(f, "{stage}: {message}"),
        }
    }
}

impl std::error::Error for WorkflowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkflowError::Io { source, .. } => Some(source),
            WorkflowError::Dataflow { source, .. } | WorkflowError::Aborted { source, .. } => {
                Some(source)
            }
            WorkflowError::Cube { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Boundary compatibility: the CLI and the HPCWaaS entrypoint closure
/// carry `String` errors; `?` flattens a typed error into its rendering.
impl From<WorkflowError> for String {
    fn from(e: WorkflowError) -> Self {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failing_stage() {
        let e = WorkflowError::Dataflow {
            stage: WorkflowStage::Analysis,
            source: dataflow::Error::DataUnavailable { name: "hwn-2030".into() },
        };
        let s = e.to_string();
        assert!(s.starts_with("analysis:"), "{s}");
        assert!(s.contains("hwn-2030"), "{s}");
    }

    #[test]
    fn io_errors_carry_the_path() {
        let e = WorkflowError::Io {
            stage: WorkflowStage::Setup,
            path: PathBuf::from("/nope/esm-out"),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        };
        assert!(e.to_string().contains("/nope/esm-out"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn aborted_preserves_the_runtime_message() {
        let e = WorkflowError::Aborted {
            stage: WorkflowStage::Streaming,
            source: dataflow::Error::Aborted { message: "chaos: injected".into() },
        };
        assert!(e.to_string().contains("chaos"));
    }

    #[test]
    fn flattens_into_string_at_the_boundary() {
        let e = WorkflowError::Timeout { stage: WorkflowStage::Streaming, waited_secs: 3600 };
        let s: String = e.into();
        assert!(s.contains("streaming") && s.contains("3600"));
    }
}
