//! Error type for datacube operations.

use std::fmt;

/// Errors produced by cube construction, operators and the server façade.
#[derive(Debug)]
pub enum Error {
    /// Underlying NCX file error.
    Nc(ncformat::Error),
    /// Requested dimension does not exist in the cube.
    UnknownDimension(String),
    /// Operator applied to an incompatible dimension kind (e.g. implicit
    /// reduce over an explicit dimension).
    WrongDimensionKind { dim: String, need: &'static str },
    /// Two cubes passed to a binary operator have incompatible schemas.
    SchemaMismatch(String),
    /// Expression parse or evaluation error.
    Expr(String),
    /// Unknown cube id in the store.
    NoSuchCube(u64),
    /// A series transform returned the wrong output length.
    SeriesLength { expected: usize, actual: usize },
    /// Import found no usable variable/shape.
    BadImport(String),
    /// A shared-cache load failed; waiters that joined the in-flight
    /// load receive the loader's error message under the cache key.
    CacheLoad { key: String, message: String },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Nc(e) => write!(f, "ncformat: {e}"),
            Error::UnknownDimension(d) => write!(f, "unknown dimension '{d}'"),
            Error::WrongDimensionKind { dim, need } => {
                write!(f, "dimension '{dim}' must be {need} for this operator")
            }
            Error::SchemaMismatch(m) => write!(f, "cube schema mismatch: {m}"),
            Error::Expr(m) => write!(f, "expression error: {m}"),
            Error::NoSuchCube(id) => write!(f, "no cube with id {id}"),
            Error::SeriesLength { expected, actual } => {
                write!(f, "series transform returned {actual} values, expected {expected}")
            }
            Error::BadImport(m) => write!(f, "import error: {m}"),
            Error::CacheLoad { key, message } => {
                write!(f, "cache load for '{key}' failed: {message}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Nc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ncformat::Error> for Error {
    fn from(e: ncformat::Error) -> Self {
        Error::Nc(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_context() {
        assert!(Error::UnknownDimension("lat".into()).to_string().contains("lat"));
        assert!(Error::NoSuchCube(9).to_string().contains('9'));
        assert!(Error::WrongDimensionKind { dim: "time".into(), need: "implicit" }
            .to_string()
            .contains("implicit"));
    }
}
