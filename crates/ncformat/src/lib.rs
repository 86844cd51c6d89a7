//! # ncformat — a self-describing multidimensional array container
//!
//! The paper's workflow exchanges data between the Earth-System-Model
//! simulation, the datacube analytics engine and the ML pipeline as NetCDF
//! files (one ~271 MB file per simulated day). This crate provides the
//! equivalent substrate for the Rust reproduction: a compact, self-describing
//! binary format ("NCX") holding named dimensions, typed variables laid out
//! row-major over those dimensions, and string/numeric attributes at both
//! file and variable scope.
//!
//! Design goals mirror the subset of NetCDF the workflow relies on:
//!
//! * **Self-description** — a reader needs no side channel to interpret a
//!   file: dimension names/sizes, variable shapes, units and other metadata
//!   all live in the header.
//! * **Streaming writes** — the ESM emits one variable at a time without
//!   buffering the whole file (important at 768×1152×4×20 variables/day).
//! * **Lazy, subsetting reads** — the analytics engine frequently wants a
//!   hyperslab (e.g. one variable, one timestep, a lat/lon window) and must
//!   not pay for the rest of the file.
//!
//! ```
//! use ncformat::{Value, Writer};
//!
//! let dir = std::env::temp_dir().join("ncformat-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("doc.ncx");
//!
//! let mut w = Writer::create(&path).unwrap();
//! w.add_dimension("time", 4).unwrap();
//! w.add_dimension("lat", 3).unwrap();
//! w.set_attribute("title", Value::from("demo"));
//! let tas: Vec<f32> = (0..12).map(|i| i as f32).collect();
//! w.add_variable_f32("tas", &["time", "lat"], &tas, vec![]).unwrap();
//! w.finish().unwrap();
//!
//! let rd = ncformat::Reader::open(&path).unwrap();
//! let sub = rd.read_slab_f32("tas", &[1, 0], &[2, 3]).unwrap();
//! assert_eq!(sub, vec![3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
//! ```

pub mod codec;
pub mod error;
pub mod read;
pub mod types;
pub mod write;

pub use error::{Error, Result};
pub use read::Reader;
pub use types::{Attribute, DataType, Dimension, Value, Variable};
pub use write::{payload_size, Writer};

/// File magic bytes identifying the NCX container, followed in the file by a
/// format version byte. Bump the version on incompatible layout changes.
pub const MAGIC: &[u8; 4] = b"NCX1";

/// Current on-disk format version.
pub const VERSION: u8 = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_is_four_bytes() {
        assert_eq!(MAGIC.len(), 4);
    }

    #[test]
    fn end_to_end_roundtrip() {
        let dir = std::env::temp_dir().join("ncformat-e2e");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.ncx");

        let mut w = Writer::create(&path).unwrap();
        w.add_dimension("x", 2).unwrap();
        w.add_variable_f64("v", &["x"], &[1.5, -2.5], vec![]).unwrap();
        w.finish().unwrap();

        let rd = Reader::open(&path).unwrap();
        assert_eq!(rd.read_all_f64("v").unwrap(), vec![1.5, -2.5]);
    }
}
