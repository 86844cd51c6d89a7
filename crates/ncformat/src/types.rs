//! Core metadata types: dimensions, variables, attributes and element types.

use crate::error::{Error, Result};

/// Element type of a variable's payload.
///
/// The ESM writes single-precision fields (as CMCC-CM3 does); coordinate
/// variables and derived indices sometimes use wider types, and masks use
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    F32,
    F64,
    I32,
    I64,
    U8,
}

impl DataType {
    /// Size in bytes of one element of this type.
    pub fn size(self) -> usize {
        match self {
            DataType::F32 | DataType::I32 => 4,
            DataType::F64 | DataType::I64 => 8,
            DataType::U8 => 1,
        }
    }

    /// Stable single-byte tag used in the on-disk header.
    pub fn tag(self) -> u8 {
        match self {
            DataType::F32 => 0,
            DataType::F64 => 1,
            DataType::I32 => 2,
            DataType::I64 => 3,
            DataType::U8 => 4,
        }
    }

    /// Inverse of [`DataType::tag`].
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => DataType::F32,
            1 => DataType::F64,
            2 => DataType::I32,
            3 => DataType::I64,
            4 => DataType::U8,
            other => return Err(Error::Corrupt(format!("unknown dtype tag {other}"))),
        })
    }

    /// Human-readable name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            DataType::F32 => "f32",
            DataType::F64 => "f64",
            DataType::I32 => "i32",
            DataType::I64 => "i64",
            DataType::U8 => "u8",
        }
    }
}

/// A named axis shared by variables (e.g. `lat`, `lon`, `time`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dimension {
    pub name: String,
    pub size: usize,
}

/// Attribute value: a scalar string, number, or numeric list.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Text(String),
    F64(f64),
    I64(i64),
    F64List(Vec<f64>),
}

impl Value {
    /// Returns a numeric view of scalar values (`F64` or `I64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::F64List(v)
    }
}

/// A named attribute at file or variable scope.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    pub name: String,
    pub value: Value,
}

/// Metadata describing one variable: its element type, the dimensions it is
/// laid out over (row-major, outermost first), and its attributes.
#[derive(Debug, Clone)]
pub struct Variable {
    pub name: String,
    pub dtype: DataType,
    /// Indices into the dataset's dimension table, outermost axis first.
    pub dims: Vec<usize>,
    pub attributes: Vec<Attribute>,
    /// Byte offset of this variable's payload within the data section.
    pub(crate) data_offset: u64,
}

impl Variable {
    /// Number of elements (product of dimension sizes), given the dataset's
    /// dimension table.
    pub fn len(&self, dims: &[Dimension]) -> usize {
        self.dims.iter().map(|&d| dims[d].size).product()
    }

    /// True when the variable has zero elements.
    pub fn is_empty(&self, dims: &[Dimension]) -> bool {
        self.len(dims) == 0
    }

    /// Shape of the variable as a size-per-axis vector.
    pub fn shape(&self, dims: &[Dimension]) -> Vec<usize> {
        self.dims.iter().map(|&d| dims[d].size).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_tags_roundtrip() {
        for dt in [DataType::F32, DataType::F64, DataType::I32, DataType::I64, DataType::U8] {
            assert_eq!(DataType::from_tag(dt.tag()).unwrap(), dt);
        }
        assert!(DataType::from_tag(99).is_err());
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DataType::F32.size(), 4);
        assert_eq!(DataType::F64.size(), 8);
        assert_eq!(DataType::U8.size(), 1);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from(3i64).as_f64(), Some(3.0));
        assert_eq!(Value::from("x").as_f64(), None);
    }

    #[test]
    fn variable_shape_math() {
        let dims =
            vec![Dimension { name: "t".into(), size: 4 }, Dimension { name: "y".into(), size: 3 }];
        let v = Variable {
            name: "v".into(),
            dtype: DataType::F32,
            dims: vec![0, 1],
            attributes: vec![],
            data_offset: 0,
        };
        assert_eq!(v.len(&dims), 12);
        assert_eq!(v.shape(&dims), vec![4, 3]);
        assert!(!v.is_empty(&dims));
    }
}
