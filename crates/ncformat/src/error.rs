//! Error type shared by the reader and writer.

use std::fmt;

/// Errors produced while building, writing or reading NCX containers.
#[derive(Debug)]
pub enum Error {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the NCX magic bytes.
    BadMagic,
    /// The file declares a format version this build cannot read.
    UnsupportedVersion(u8),
    /// A dimension with this name already exists in the dataset.
    DuplicateDimension(String),
    /// A variable with this name already exists in the dataset.
    DuplicateVariable(String),
    /// A referenced dimension name is not declared.
    UnknownDimension(String),
    /// A referenced variable name is not present.
    UnknownVariable(String),
    /// The supplied data length does not match the product of the variable's
    /// dimension sizes. Holds `(expected, actual)`.
    ShapeMismatch { expected: usize, actual: usize },
    /// A hyperslab request falls outside the variable's extent, or its rank
    /// does not match the variable's rank.
    BadSlab(String),
    /// The variable exists but holds a different element type.
    TypeMismatch { want: &'static str, have: &'static str },
    /// Header bytes could not be decoded (truncated or corrupt file).
    Corrupt(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::BadMagic => write!(f, "not an NCX file (bad magic)"),
            Error::UnsupportedVersion(v) => write!(f, "unsupported NCX version {v}"),
            Error::DuplicateDimension(n) => write!(f, "dimension '{n}' already defined"),
            Error::DuplicateVariable(n) => write!(f, "variable '{n}' already defined"),
            Error::UnknownDimension(n) => write!(f, "unknown dimension '{n}'"),
            Error::UnknownVariable(n) => write!(f, "unknown variable '{n}'"),
            Error::ShapeMismatch { expected, actual } => {
                write!(f, "data length {actual} does not match shape product {expected}")
            }
            Error::BadSlab(msg) => write!(f, "invalid hyperslab: {msg}"),
            Error::TypeMismatch { want, have } => {
                write!(f, "type mismatch: requested {want}, stored {have}")
            }
            Error::Corrupt(msg) => write!(f, "corrupt NCX file: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::ShapeMismatch { expected: 12, actual: 7 };
        assert!(e.to_string().contains("12"));
        assert!(e.to_string().contains("7"));
        assert!(Error::BadMagic.to_string().contains("magic"));
        assert!(Error::UnknownVariable("tas".into()).to_string().contains("tas"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
