//! Error type for the HPCWaaS stack.

use std::fmt;

/// Errors across the TOSCA parser, orchestrator, services and API.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// TOSCA document syntax error with line number.
    Parse { line: usize, message: String },
    /// A requirement references an undeclared node template.
    UnknownTarget { template: String, target: String },
    /// The requirement graph contains a cycle.
    CyclicTopology(String),
    /// Unknown workflow / deployment / execution id in the API.
    NotFound(String),
    /// Operation invalid in the current lifecycle state.
    BadState { entity: String, state: String, operation: String },
    /// Workflow body failed during execution.
    ExecutionFailed(String),
    /// Admission control refused the submission (quota, rate limit, or
    /// queue bound); the typed reason says which gate and why.
    Rejected(crate::serve::Rejection),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            Error::UnknownTarget { template, target } => {
                write!(f, "template '{template}' requires unknown target '{target}'")
            }
            Error::CyclicTopology(m) => write!(f, "cyclic topology: {m}"),
            Error::NotFound(what) => write!(f, "not found: {what}"),
            Error::BadState { entity, state, operation } => {
                write!(f, "cannot {operation} {entity} in state {state}")
            }
            Error::ExecutionFailed(m) => write!(f, "execution failed: {m}"),
            Error::Rejected(r) => write!(f, "admission rejected: {r}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_specific() {
        let e = Error::Parse { line: 12, message: "bad indent".into() };
        assert!(e.to_string().contains("12"));
        let e = Error::UnknownTarget { template: "wf".into(), target: "ghost".into() };
        assert!(e.to_string().contains("ghost"));
        let e = Error::BadState {
            entity: "deployment d1".into(),
            state: "Undeployed".into(),
            operation: "run".into(),
        };
        assert!(e.to_string().contains("Undeployed"));
    }
}
