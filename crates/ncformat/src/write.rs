//! Writing NCX containers.
//!
//! One entry point, the streaming [`Writer`]: variable payloads are
//! appended to the file as they are produced, and the header is written
//! last (the fixed-size prelude stores a pointer to it). The ESM output
//! path uses it, so a day's ~20 large fields never need to coexist in
//! memory; small files (index exports, tests) go through the same calls.
//! A variable whose payload arrives in pieces (a cube's fragments, or the
//! TC bundle's four variables filled day by day) reserves its extent and
//! is written in place.
//!
//! On-disk layout:
//!
//! ```text
//! [magic 4B][version 1B][header_offset u64]  <- prelude (13 bytes)
//! [variable payloads, in declaration order]
//! [header: global attrs, dims, variables]    <- at header_offset
//! ```

use crate::codec;
use crate::error::{Error, Result};
use crate::types::{Attribute, DataType, Dimension, Value, Variable};
use crate::{MAGIC, VERSION};
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

/// Size in bytes of the fixed prelude preceding the data section.
pub(crate) const PRELUDE_LEN: u64 = 4 + 1 + 8;

/// Size of the reused little-endian encode buffer: big enough to amortize
/// write syscalls, small enough to stay cache-resident. Payloads of any
/// size stream through it, so encoding a variable never allocates
/// proportionally to its length.
const ENCODE_CHUNK_BYTES: usize = 256 * 1024;

/// A variable declared with [`Writer::reserve_variable_f32`]: its index
/// in `vars`, its element count and the elements written so far.
struct Placed {
    var: usize,
    expected: usize,
    written: usize,
}

/// Streaming writer: append variable payloads as they become available.
pub struct Writer {
    file: BufWriter<File>,
    dims: Vec<Dimension>,
    vars: Vec<Variable>,
    attrs: Vec<Attribute>,
    cursor: u64,
    finished: bool,
    /// Reused encode buffer; capacity persists across variables.
    scratch: Vec<u8>,
    placed: Vec<Placed>,
    reserved: bool,
}

impl Writer {
    /// Creates the file and writes the prelude with a zero header pointer
    /// (patched by [`Writer::finish`]).
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        let mut file = BufWriter::new(File::create(path)?);
        file.write_all(MAGIC)?;
        codec::put_u8(&mut file, VERSION)?;
        codec::put_u64(&mut file, 0)?;
        Ok(Writer {
            file,
            dims: Vec::new(),
            vars: Vec::new(),
            attrs: Vec::new(),
            cursor: PRELUDE_LEN,
            finished: false,
            scratch: Vec::new(),
            placed: Vec::new(),
            reserved: false,
        })
    }

    /// Preallocates the on-disk extent for `payload_bytes` of variable
    /// payload (plus the prelude) in one call, so large streaming writes do
    /// not grow the file incrementally. [`Writer::finish`] truncates any
    /// unused tail back to the real end of file.
    pub fn reserve(&mut self, payload_bytes: u64) -> Result<()> {
        self.file.get_ref().set_len(PRELUDE_LEN + payload_bytes)?;
        self.reserved = true;
        Ok(())
    }

    /// Sets (or replaces) a global attribute.
    pub fn set_attribute(&mut self, name: &str, value: Value) {
        if let Some(a) = self.attrs.iter_mut().find(|a| a.name == name) {
            a.value = value;
        } else {
            self.attrs.push(Attribute { name: name.into(), value });
        }
    }

    /// Declares a dimension. Dimensions must be declared before any variable
    /// that uses them.
    pub fn add_dimension(&mut self, name: &str, size: usize) -> Result<()> {
        if self.dims.iter().any(|d| d.name == name) {
            return Err(Error::DuplicateDimension(name.into()));
        }
        self.dims.push(Dimension { name: name.into(), size });
        Ok(())
    }

    fn dim_indices(&self, dims: &[&str]) -> Result<Vec<usize>> {
        dims.iter()
            .map(|n| {
                self.dims
                    .iter()
                    .position(|d| d.name == *n)
                    .ok_or_else(|| Error::UnknownDimension((*n).into()))
            })
            .collect()
    }

    /// Declares a variable whose payload starts at the cursor and returns
    /// its element count.
    fn declare(
        &mut self,
        name: &str,
        dims: &[&str],
        dtype: DataType,
        attributes: Vec<Attribute>,
    ) -> Result<usize> {
        if self.vars.iter().any(|v| v.name == name) {
            return Err(Error::DuplicateVariable(name.into()));
        }
        let dims = self.dim_indices(dims)?;
        let expected = dims.iter().map(|&d| self.dims[d].size).product();
        let data_offset = self.cursor;
        self.vars.push(Variable { name: name.into(), dtype, dims, attributes, data_offset });
        Ok(expected)
    }

    /// Declares a variable of `len` elements, or, when its shape holds a
    /// different count, declares nothing.
    fn declare_len(
        &mut self,
        name: &str,
        dims: &[&str],
        dtype: DataType,
        attrs: Vec<Attribute>,
        len: usize,
    ) -> Result<()> {
        let expected = self.declare(name, dims, dtype, attrs)?;
        if expected != len {
            self.vars.pop();
            return Err(Error::ShapeMismatch { expected, actual: len });
        }
        Ok(())
    }

    /// Streams `data` little-endian at the file's current position. On
    /// little-endian hosts the in-memory layout already matches the
    /// on-disk layout, so the payload goes to the writer directly;
    /// otherwise it is byte-swapped through the reused scratch buffer.
    fn write_f32_le(&mut self, data: &[f32]) -> Result<()> {
        if cfg!(target_endian = "little") {
            // SAFETY: viewing `data` as raw bytes is sound — the pointer
            // is valid for `data.len() * 4` bytes and `u8` has no
            // alignment requirement (mirrors the read path).
            let bytes =
                unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), data.len() * 4) };
            self.file.write_all(bytes)?;
        } else {
            for chunk in data.chunks(ENCODE_CHUNK_BYTES / 4) {
                self.scratch.clear();
                for v in chunk {
                    self.scratch.extend_from_slice(&v.to_le_bytes());
                }
                self.file.write_all(&self.scratch)?;
            }
        }
        Ok(())
    }

    /// Streams `data` little-endian through the reused scratch buffer.
    fn write_f64_le(&mut self, data: &[f64]) -> Result<()> {
        for chunk in data.chunks(ENCODE_CHUNK_BYTES / 8) {
            self.scratch.clear();
            for v in chunk {
                self.scratch.extend_from_slice(&v.to_le_bytes());
            }
            self.file.write_all(&self.scratch)?;
        }
        self.cursor += data.len() as u64 * 8;
        Ok(())
    }

    /// Declares an `f32` variable and reserves its whole payload extent at
    /// the end of the data section, for [`Writer::write_at_f32`] to fill
    /// in any order — e.g. the variables of a `(step, lat, lon)` bundle
    /// day by day, each source day read once. [`Writer::finish`] checks
    /// that every element was written.
    pub fn reserve_variable_f32(
        &mut self,
        name: &str,
        dims: &[&str],
        attrs: Vec<Attribute>,
    ) -> Result<()> {
        let expected = self.declare(name, dims, DataType::F32, attrs)?;
        self.placed.push(Placed { var: self.vars.len() - 1, expected, written: 0 });
        self.cursor += expected as u64 * 4;
        // Later appends (and the header) go after the reserved extent.
        self.file.seek(SeekFrom::Start(self.cursor))?;
        Ok(())
    }

    /// Writes `data` into the variable `name` reserved by
    /// [`Writer::reserve_variable_f32`], from its linear element `start`
    /// on. Each element is to be written once: more elements than the
    /// variable holds, or a range past its end, is a shape mismatch.
    pub fn write_at_f32(&mut self, name: &str, start: usize, data: &[f32]) -> Result<()> {
        let vars = &self.vars;
        let p = self
            .placed
            .iter()
            .position(|p| vars[p.var].name == name)
            .ok_or_else(|| Error::UnknownVariable(name.into()))?;
        let Placed { var, expected, written } = self.placed[p];
        let end = (start + data.len()).max(written + data.len());
        if end > expected {
            return Err(Error::ShapeMismatch { expected, actual: end });
        }
        self.file.seek(SeekFrom::Start(self.vars[var].data_offset + start as u64 * 4))?;
        self.write_f32_le(data)?;
        self.file.seek(SeekFrom::Start(self.cursor))?;
        self.placed[p].written += data.len();
        Ok(())
    }

    /// Appends an `f32` variable with optional attributes.
    pub fn add_variable_f32(
        &mut self,
        name: &str,
        dims: &[&str],
        data: &[f32],
        attrs: Vec<Attribute>,
    ) -> Result<()> {
        self.declare_len(name, dims, DataType::F32, attrs, data.len())?;
        self.write_f32_le(data)?;
        self.cursor += data.len() as u64 * 4;
        Ok(())
    }

    /// Appends an `f64` variable with optional attributes.
    pub fn add_variable_f64(
        &mut self,
        name: &str,
        dims: &[&str],
        data: &[f64],
        attrs: Vec<Attribute>,
    ) -> Result<()> {
        self.declare_len(name, dims, DataType::F64, attrs, data.len())?;
        self.write_f64_le(data)
    }

    /// Writes the header, patches the prelude pointer and flushes. Must be
    /// called exactly once; dropping an unfinished writer leaves an invalid
    /// file by design (truncated output should not parse).
    pub fn finish(mut self) -> Result<()> {
        if let Some(p) = self.placed.iter().find(|p| p.written != p.expected) {
            return Err(Error::ShapeMismatch { expected: p.expected, actual: p.written });
        }
        let header_offset = self.cursor;

        codec::put_attributes(&mut self.file, &self.attrs)?;

        codec::put_u32(&mut self.file, self.dims.len() as u32)?;
        for d in &self.dims {
            codec::put_str(&mut self.file, &d.name)?;
            codec::put_u64(&mut self.file, d.size as u64)?;
        }

        codec::put_u32(&mut self.file, self.vars.len() as u32)?;
        for v in &self.vars {
            codec::put_str(&mut self.file, &v.name)?;
            codec::put_u8(&mut self.file, v.dtype.tag())?;
            codec::put_u32(&mut self.file, v.dims.len() as u32)?;
            for &d in &v.dims {
                codec::put_u32(&mut self.file, d as u32)?;
            }
            codec::put_attributes(&mut self.file, &v.attributes)?;
            codec::put_u64(&mut self.file, v.data_offset)?;
        }

        self.file.flush()?;
        let file = self.file.get_mut();
        if self.reserved {
            // Trim any tail left over from an over-estimating reserve().
            let end = file.stream_position()?;
            file.set_len(end)?;
        }
        file.seek(SeekFrom::Start(5))?;
        file.write_all(&header_offset.to_le_bytes())?;
        file.flush()?;
        self.finished = true;
        Ok(())
    }
}

/// Predicted on-disk size in bytes for a file with the given variable
/// shapes, counting payload only (headers are O(metadata)). Used by the
/// ESM to reproduce the paper's "271 MB per daily file" arithmetic
/// without writing a full-resolution file.
pub fn payload_size(var_elems: &[(DataType, usize)]) -> u64 {
    var_elems.iter().map(|(dt, n)| (dt.size() * n) as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::Reader;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ncx-write-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn duplicate_dimension_rejected() {
        let mut w = Writer::create(tmp("dup-dim.ncx")).unwrap();
        w.add_dimension("x", 2).unwrap();
        assert!(matches!(w.add_dimension("x", 3), Err(Error::DuplicateDimension(_))));
    }

    #[test]
    fn duplicate_variable_rejected() {
        let mut w = Writer::create(tmp("dup-var.ncx")).unwrap();
        w.add_dimension("x", 1).unwrap();
        w.add_variable_f32("v", &["x"], &[1.0], vec![]).unwrap();
        assert!(matches!(
            w.add_variable_f32("v", &["x"], &[1.0], vec![]),
            Err(Error::DuplicateVariable(_))
        ));
    }

    #[test]
    fn unknown_dimension_rejected() {
        let mut w = Writer::create(tmp("unknown-dim.ncx")).unwrap();
        assert!(matches!(
            w.add_variable_f32("v", &["nope"], &[], vec![]),
            Err(Error::UnknownDimension(_))
        ));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut w = Writer::create(tmp("shape.ncx")).unwrap();
        w.add_dimension("x", 3).unwrap();
        let err = w.add_variable_f32("v", &["x"], &[1.0], vec![]).unwrap_err();
        assert!(matches!(err, Error::ShapeMismatch { expected: 3, actual: 1 }));
    }

    #[test]
    fn streaming_writer_tracks_payload_bytes() {
        let path = tmp("stream.ncx");
        let mut w = Writer::create(&path).unwrap();
        w.add_dimension("x", 4).unwrap();
        w.add_variable_f32("a", &["x"], &[1.0, 2.0, 3.0, 4.0], vec![]).unwrap();
        assert_eq!(w.cursor - PRELUDE_LEN, 16);
        w.add_variable_f64("b", &["x"], &[1.0, 2.0, 3.0, 4.0], vec![]).unwrap();
        assert_eq!(w.cursor - PRELUDE_LEN, 48);
        w.finish().unwrap();
        let rd = Reader::open(&path).unwrap();
        assert_eq!(rd.read_all_f32("a").unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn variable_attributes_roundtrip() {
        let path = tmp("attrs.ncx");
        let mut w = Writer::create(&path).unwrap();
        w.add_dimension("x", 1).unwrap();
        let units = Attribute { name: "units".into(), value: Value::from("K") };
        w.add_variable_f32("t", &["x"], &[273.15], vec![units]).unwrap();
        w.set_attribute("model", Value::from("CMCC-CM3-surrogate"));
        w.finish().unwrap();

        let rd = Reader::open(&path).unwrap();
        let v = rd.variable("t").unwrap();
        assert_eq!(
            (v.attributes[0].name.as_str(), &v.attributes[0].value),
            ("units", &Value::from("K"))
        );
        assert_eq!(rd.attribute("model"), Some(&Value::from("CMCC-CM3-surrogate")));
    }

    #[test]
    fn payload_size_math() {
        // The paper's daily file: 768 x 1152 x 4 timesteps x 20 f32 vars.
        let elems = 768 * 1152 * 4;
        let vars: Vec<(DataType, usize)> = (0..20).map(|_| (DataType::F32, elems)).collect();
        let bytes = payload_size(&vars);
        let mb = bytes as f64 / (1024.0 * 1024.0);
        assert!((mb - 270.0).abs() < 1.0, "expected ~270 MB, got {mb}");
    }

    #[test]
    fn reserved_variables_fill_in_any_order_to_the_appended_bytes() {
        let write = |path: &std::path::Path, placed: bool| {
            let mut w = Writer::create(path).unwrap();
            w.add_dimension("day", 3).unwrap();
            w.add_dimension("x", 2).unwrap();
            w.add_variable_f64("x", &["x"], &[0.5, 1.5], vec![]).unwrap();
            let day = |v: usize, d: usize| [(10 * v + d) as f32, -((10 * v + d) as f32)];
            if placed {
                for v in 0..2 {
                    w.reserve_variable_f32(&format!("v{v}"), &["day", "x"], vec![]).unwrap();
                }
                for d in [2, 0, 1] {
                    for v in [1, 0] {
                        w.write_at_f32(&format!("v{v}"), 2 * d, &day(v, d)).unwrap();
                    }
                }
            } else {
                for v in 0..2 {
                    let days: Vec<f32> = (0..3).flat_map(|d| day(v, d)).collect();
                    w.add_variable_f32(&format!("v{v}"), &["day", "x"], &days, vec![]).unwrap();
                }
            }
            w.add_variable_f32("tail", &["x"], &[7.0, 8.0], vec![]).unwrap();
            w.finish().unwrap();
            std::fs::read(path).unwrap()
        };
        let placed = write(&tmp("placed.ncx"), true);
        assert_eq!(placed, write(&tmp("appended.ncx"), false));
        let rd = Reader::open(tmp("placed.ncx")).unwrap();
        assert_eq!(rd.read_all_f32("v1").unwrap(), [10.0, -10.0, 11.0, -11.0, 12.0, -12.0]);
        assert_eq!(rd.read_all_f32("tail").unwrap(), [7.0, 8.0]);
    }

    #[test]
    fn reserved_variable_must_be_filled_within_its_extent() {
        let mut w = Writer::create(tmp("placed-arity.ncx")).unwrap();
        w.add_dimension("x", 3).unwrap();
        w.reserve_variable_f32("v", &["x"], vec![]).unwrap();
        assert!(matches!(w.write_at_f32("w", 0, &[1.0]), Err(Error::UnknownVariable(_))));
        assert!(matches!(
            w.write_at_f32("v", 2, &[1.0, 2.0]),
            Err(Error::ShapeMismatch { expected: 3, actual: 4 })
        ));
        w.write_at_f32("v", 1, &[1.0, 2.0]).unwrap();
        assert!(matches!(w.finish(), Err(Error::ShapeMismatch { expected: 3, actual: 2 })));
    }

    #[test]
    fn reserve_preallocates_and_finish_trims() {
        let path = tmp("reserve.ncx");
        let mut w = Writer::create(&path).unwrap();
        w.add_dimension("x", 4).unwrap();
        // Over-reserve far beyond the real payload.
        w.reserve(1 << 20).unwrap();
        w.add_variable_f32("a", &["x"], &[1.0, 2.0, 3.0, 4.0], vec![]).unwrap();
        w.finish().unwrap();
        // The tail must be trimmed: the file ends right after the header.
        let len = std::fs::metadata(&path).unwrap().len();
        assert!(len < 1024, "reserved tail not trimmed: {len} bytes");
        let rd = Reader::open(&path).unwrap();
        assert_eq!(rd.read_all_f32("a").unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn zero_sized_variable_allowed() {
        let path = tmp("empty.ncx");
        let mut w = Writer::create(&path).unwrap();
        w.add_dimension("x", 0).unwrap();
        w.add_variable_f32("v", &["x"], &[], vec![]).unwrap();
        w.finish().unwrap();
        let rd = Reader::open(&path).unwrap();
        assert!(rd.read_all_f32("v").unwrap().is_empty());
    }

    #[test]
    fn scalar_variable_with_no_dims() {
        let path = tmp("scalar.ncx");
        let mut w = Writer::create(&path).unwrap();
        w.add_variable_f64("pi", &[], &[std::f64::consts::PI], vec![]).unwrap();
        w.finish().unwrap();
        let rd = Reader::open(&path).unwrap();
        assert_eq!(rd.read_all_f64("pi").unwrap(), vec![std::f64::consts::PI]);
    }
}
