//! Reading NCX containers: header parsing, whole-variable reads and
//! hyperslab (start/count) subset reads.

use crate::codec;
use crate::error::{Error, Result};
use crate::types::{Attribute, DataType, Dimension, Value, Variable};
use crate::{MAGIC, VERSION};
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Lazy reader over an NCX file. The header is parsed eagerly; variable
/// payloads are read on demand. `Reader` is `Send + Sync`; concurrent slab
/// reads serialize on an internal handle lock (each read is seek+read).
pub struct Reader {
    file: Mutex<BufReader<File>>,
    dims: Vec<Dimension>,
    vars: Vec<Variable>,
    attrs: Vec<Attribute>,
}

impl Reader {
    /// Opens `path` and parses the header.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let mut file = BufReader::new(File::open(path)?);

        let mut magic = [0u8; 4];
        file.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(Error::BadMagic);
        }
        let version = codec::get_u8(&mut file)?;
        if version != VERSION {
            return Err(Error::UnsupportedVersion(version));
        }
        let header_offset = codec::get_u64(&mut file)?;
        if header_offset == 0 {
            return Err(Error::Corrupt("unfinished file (header pointer is zero)".into()));
        }
        file.seek(SeekFrom::Start(header_offset))?;

        let attrs = codec::get_attributes(&mut file)?;

        let ndims = codec::get_u32(&mut file)? as usize;
        let mut dims = Vec::with_capacity(ndims);
        for _ in 0..ndims {
            let name = codec::get_str(&mut file)?;
            let size = codec::get_u64(&mut file)? as usize;
            dims.push(Dimension { name, size });
        }

        let nvars = codec::get_u32(&mut file)? as usize;
        let mut vars = Vec::with_capacity(nvars);
        for _ in 0..nvars {
            let name = codec::get_str(&mut file)?;
            let dtype = DataType::from_tag(codec::get_u8(&mut file)?)?;
            let rank = codec::get_u32(&mut file)? as usize;
            let mut vdims = Vec::with_capacity(rank);
            for _ in 0..rank {
                let d = codec::get_u32(&mut file)? as usize;
                if d >= dims.len() {
                    return Err(Error::Corrupt(format!("dimension index {d} out of range")));
                }
                vdims.push(d);
            }
            let attributes = codec::get_attributes(&mut file)?;
            let data_offset = codec::get_u64(&mut file)?;
            vars.push(Variable { name, dtype, dims: vdims, attributes, data_offset });
        }

        Ok(Reader { file: Mutex::new(file), dims, vars, attrs })
    }

    /// Declared dimensions.
    pub fn dimensions(&self) -> &[Dimension] {
        &self.dims
    }

    /// Declared variables (metadata only).
    pub fn variables(&self) -> &[Variable] {
        &self.vars
    }

    /// Global attribute lookup.
    pub fn attribute(&self, name: &str) -> Option<&Value> {
        self.attrs.iter().find(|a| a.name == name).map(|a| &a.value)
    }

    /// Variable metadata lookup.
    pub fn variable(&self, name: &str) -> Result<&Variable> {
        self.vars.iter().find(|v| v.name == name).ok_or_else(|| Error::UnknownVariable(name.into()))
    }

    /// Dimension lookup by name.
    pub fn dimension(&self, name: &str) -> Result<&Dimension> {
        self.dims
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| Error::UnknownDimension(name.into()))
    }

    /// Shape (size per axis) of a variable.
    pub fn shape(&self, name: &str) -> Result<Vec<usize>> {
        Ok(self.variable(name)?.shape(&self.dims))
    }

    fn read_raw(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        let mut file = self.file.lock().expect("reader handle poisoned");
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn whole(&self, name: &str, want: DataType) -> Result<Vec<u8>> {
        let v = self.variable(name)?;
        if v.dtype != want {
            return Err(Error::TypeMismatch { want: want.name(), have: v.dtype.name() });
        }
        let len = v.len(&self.dims) * v.dtype.size();
        self.read_raw(v.data_offset, len)
    }

    /// Reads an entire `f32` variable.
    pub fn read_all_f32(&self, name: &str) -> Result<Vec<f32>> {
        Ok(codec::bytes_f32(&self.whole(name, DataType::F32)?))
    }

    /// Reads an entire `f64` variable.
    pub fn read_all_f64(&self, name: &str) -> Result<Vec<f64>> {
        Ok(codec::bytes_f64(&self.whole(name, DataType::F64)?))
    }

    /// Reads a contiguous element range of an `f32` variable directly into
    /// `out` — no intermediate byte buffer. `start` is the linear element
    /// index of the first value; `out.len()` elements are read. Ingest
    /// paths call this in a loop with one reused buffer to stream a large
    /// variable through constant memory.
    pub fn read_f32_into(&self, name: &str, start: usize, out: &mut [f32]) -> Result<()> {
        let v = self.variable(name)?;
        self.var_f32_into(v, start, out)
    }

    /// Reads an entire `f32` variable into one shared, immutable buffer
    /// (a single allocation). Datacube ingest slices fragments out of the
    /// returned buffer without further copies.
    pub fn read_shared_f32(&self, name: &str) -> Result<Arc<[f32]>> {
        let v = self.variable(name)?;
        self.var_shared_f32(v)
    }

    fn var_f32_into(&self, v: &Variable, start: usize, out: &mut [f32]) -> Result<()> {
        if v.dtype != DataType::F32 {
            return Err(Error::TypeMismatch { want: "f32", have: v.dtype.name() });
        }
        let total = v.len(&self.dims);
        if start + out.len() > total {
            return Err(Error::BadSlab(format!(
                "element range {start}..{} exceeds variable length {total}",
                start + out.len()
            )));
        }
        if out.is_empty() {
            return Ok(());
        }
        self.read_f32_at(v.data_offset + (start * 4) as u64, out)
    }

    /// Reads `out.len()` stored `f32`s starting at byte `offset` straight
    /// into `out`: one seek, one read, no intermediate byte buffer.
    fn read_f32_at(&self, offset: u64, out: &mut [f32]) -> Result<()> {
        {
            let mut file = self.file.lock().expect("reader handle poisoned");
            file.seek(SeekFrom::Start(offset))?;
            // SAFETY: viewing `out` as raw bytes is sound — the pointer is
            // valid for `out.len() * 4` bytes, `u8` has no alignment
            // requirement, and every 4-byte pattern is a valid f32.
            let bytes = unsafe {
                std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<u8>(), out.len() * 4)
            };
            file.read_exact(bytes)?;
        }
        // Payload is little-endian on disk; fix up on big-endian hosts.
        if cfg!(target_endian = "big") {
            for x in out.iter_mut() {
                *x = f32::from_bits(x.to_bits().swap_bytes());
            }
        }
        Ok(())
    }

    fn var_shared_f32(&self, v: &Variable) -> Result<Arc<[f32]>> {
        if v.dtype != DataType::F32 {
            return Err(Error::TypeMismatch { want: "f32", have: v.dtype.name() });
        }
        let n = v.len(&self.dims);
        let mut buf: Arc<[f32]> = std::iter::repeat_n(0.0f32, n).collect();
        if n > 0 {
            let dst = Arc::get_mut(&mut buf).expect("freshly collected Arc is unique");
            self.var_f32_into(v, 0, dst)?;
        }
        Ok(buf)
    }

    /// Validates a hyperslab request against a variable's shape and returns
    /// the byte-level read plan: a list of `(file_offset, elems)` contiguous
    /// runs in output order. A run that starts where the previous one ends
    /// is merged into it, so a slab covering whole inner axes (a `[1, nlat,
    /// nlon]` step of a `[t, lat, lon]` variable) is a single read.
    fn slab_plan(
        &self,
        name: &str,
        start: &[usize],
        count: &[usize],
        want: DataType,
    ) -> Result<Vec<(u64, usize)>> {
        let v = self.variable(name)?;
        if v.dtype != want {
            return Err(Error::TypeMismatch { want: want.name(), have: v.dtype.name() });
        }
        let shape = v.shape(&self.dims);
        if start.len() != shape.len() || count.len() != shape.len() {
            return Err(Error::BadSlab(format!(
                "rank mismatch: variable rank {}, start rank {}, count rank {}",
                shape.len(),
                start.len(),
                count.len()
            )));
        }
        for (axis, ((&s, &c), &n)) in start.iter().zip(count).zip(&shape).enumerate() {
            if s + c > n {
                return Err(Error::BadSlab(format!(
                    "axis {axis}: start {s} + count {c} exceeds size {n}"
                )));
            }
        }

        let esize = v.dtype.size() as u64;
        // Strides (in elements) of each axis in the stored layout.
        let rank = shape.len();
        let mut strides = vec![1usize; rank];
        for i in (0..rank.saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * shape[i + 1];
        }

        if rank == 0 {
            return Ok(vec![(v.data_offset, 1)]);
        }
        let total: usize = count.iter().product();
        if total == 0 {
            return Ok(Vec::new());
        }

        // Iterate over all outer-index combinations; each yields a contiguous
        // run of `count[rank-1]` elements, coalesced with its predecessor
        // when the two are adjacent on disk.
        let run = count[rank - 1];
        let outer_total: usize = count[..rank - 1].iter().product();
        let mut plan: Vec<(u64, usize)> = Vec::new();
        let mut idx = vec![0usize; rank.saturating_sub(1)];
        for _ in 0..outer_total.max(1) {
            let mut elem_off = start[rank - 1] * strides[rank - 1];
            for (axis, &i) in idx.iter().enumerate() {
                elem_off += (start[axis] + i) * strides[axis];
            }
            let off = v.data_offset + elem_off as u64 * esize;
            match plan.last_mut() {
                Some((prev, n)) if *prev + *n as u64 * esize == off => *n += run,
                _ => plan.push((off, run)),
            }
            // Odometer increment over the outer axes.
            for axis in (0..idx.len()).rev() {
                idx[axis] += 1;
                if idx[axis] < count[axis] {
                    break;
                }
                idx[axis] = 0;
            }
        }
        Ok(plan)
    }

    /// Reads a hyperslab of an `f32` variable. `start[i]` is the first index
    /// along axis `i`, `count[i]` the number of indices to read. The result
    /// is row-major over `count`.
    pub fn read_slab_f32(&self, name: &str, start: &[usize], count: &[usize]) -> Result<Vec<f32>> {
        let plan = self.slab_plan(name, start, count, DataType::F32)?;
        let mut out = vec![0.0f32; plan.iter().map(|&(_, n)| n).sum()];
        let mut rest = &mut out[..];
        for (off, n) in plan {
            let (run, tail) = rest.split_at_mut(n);
            self.read_f32_at(off, run)?;
            rest = tail;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::Writer;
    use std::io::Write;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ncx-read-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample(path: &Path) {
        // 2 x 3 x 4 cube with values 0..24.
        let mut w = Writer::create(path).unwrap();
        w.add_dimension("t", 2).unwrap();
        w.add_dimension("y", 3).unwrap();
        w.add_dimension("x", 4).unwrap();
        w.add_variable_f32(
            "v",
            &["t", "y", "x"],
            &(0..24).map(|i| i as f32).collect::<Vec<_>>(),
            vec![],
        )
        .unwrap();
        w.finish().unwrap();
    }

    #[test]
    fn rejects_wrong_magic() {
        let path = tmp("badmagic.ncx");
        std::fs::File::create(&path).unwrap().write_all(b"NOPE123456789").unwrap();
        assert!(matches!(Reader::open(&path), Err(Error::BadMagic)));
    }

    #[test]
    fn rejects_unfinished_file() {
        let path = tmp("unfinished.ncx");
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(crate::MAGIC).unwrap();
        f.write_all(&[crate::VERSION]).unwrap();
        f.write_all(&0u64.to_le_bytes()).unwrap();
        assert!(matches!(Reader::open(&path), Err(Error::Corrupt(_))));
    }

    #[test]
    fn rejects_future_version() {
        let path = tmp("future.ncx");
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(crate::MAGIC).unwrap();
        f.write_all(&[99]).unwrap();
        f.write_all(&13u64.to_le_bytes()).unwrap();
        assert!(matches!(Reader::open(&path), Err(Error::UnsupportedVersion(99))));
    }

    #[test]
    fn full_slab_equals_read_all() {
        let path = tmp("full.ncx");
        sample(&path);
        let rd = Reader::open(&path).unwrap();
        let all = rd.read_all_f32("v").unwrap();
        let slab = rd.read_slab_f32("v", &[0, 0, 0], &[2, 3, 4]).unwrap();
        assert_eq!(all, slab);
    }

    #[test]
    fn inner_slab_values() {
        let path = tmp("inner.ncx");
        sample(&path);
        let rd = Reader::open(&path).unwrap();
        // t=1, y=1..3, x=2..4 -> linear offsets 12 + y*4 + x
        let slab = rd.read_slab_f32("v", &[1, 1, 2], &[1, 2, 2]).unwrap();
        assert_eq!(slab, vec![18.0, 19.0, 22.0, 23.0]);
    }

    #[test]
    fn slab_plan_coalesces_adjacent_runs() {
        let path = tmp("plan.ncx");
        sample(&path);
        let rd = Reader::open(&path).unwrap();
        let base = rd.variable("v").unwrap().data_offset;
        let plan = |start: &[usize], count: &[usize]| {
            rd.slab_plan("v", start, count, DataType::F32).unwrap()
        };
        // One whole `[y, x]` plane of the `[t, y, x]` variable: one run.
        assert_eq!(plan(&[1, 0, 0], &[1, 3, 4]), vec![(base + 12 * 4, 12)]);
        // Partial rows are not adjacent on disk: one run per row, count[1] runs.
        assert_eq!(plan(&[1, 1, 2], &[1, 2, 2]), vec![(base + 18 * 4, 2), (base + 22 * 4, 2)]);
        // Whole rows of one plane merge; so do whole planes.
        assert_eq!(plan(&[0, 1, 0], &[1, 2, 4]), vec![(base + 4 * 4, 8)]);
        assert_eq!(plan(&[0, 0, 0], &[2, 3, 4]), vec![(base, 24)]);
        // The same row of two planes: two runs, a plane apart.
        assert_eq!(plan(&[0, 2, 0], &[2, 1, 4]), vec![(base + 8 * 4, 4), (base + 20 * 4, 4)]);
    }

    #[test]
    fn out_of_range_slab_rejected() {
        let path = tmp("oob.ncx");
        sample(&path);
        let rd = Reader::open(&path).unwrap();
        assert!(matches!(rd.read_slab_f32("v", &[0, 0, 3], &[1, 1, 2]), Err(Error::BadSlab(_))));
        assert!(matches!(rd.read_slab_f32("v", &[0, 0], &[1, 1]), Err(Error::BadSlab(_))));
    }

    #[test]
    fn empty_slab_is_empty() {
        let path = tmp("emptyslab.ncx");
        sample(&path);
        let rd = Reader::open(&path).unwrap();
        assert!(rd.read_slab_f32("v", &[0, 0, 0], &[0, 3, 4]).unwrap().is_empty());
    }

    #[test]
    fn type_mismatch_reported() {
        let path = tmp("tmismatch.ncx");
        sample(&path);
        let rd = Reader::open(&path).unwrap();
        assert!(matches!(rd.read_all_f64("v"), Err(Error::TypeMismatch { .. })));
    }

    #[test]
    fn shared_read_equals_read_all() {
        let path = tmp("shared.ncx");
        sample(&path);
        let rd = Reader::open(&path).unwrap();
        let shared = rd.read_shared_f32("v").unwrap();
        assert_eq!(&shared[..], &rd.read_all_f32("v").unwrap()[..]);
    }

    #[test]
    fn read_into_ranges_and_bounds() {
        let path = tmp("into.ncx");
        sample(&path);
        let rd = Reader::open(&path).unwrap();
        let mut buf = [0.0f32; 4];
        rd.read_f32_into("v", 12, &mut buf).unwrap();
        assert_eq!(buf, [12.0, 13.0, 14.0, 15.0]);
        // Reused buffer, different window.
        rd.read_f32_into("v", 20, &mut buf).unwrap();
        assert_eq!(buf, [20.0, 21.0, 22.0, 23.0]);
        assert!(matches!(rd.read_f32_into("v", 21, &mut buf), Err(Error::BadSlab(_))));
        rd.read_f32_into("v", 24, &mut []).unwrap();
    }

    #[test]
    fn metadata_queries() {
        let path = tmp("meta.ncx");
        sample(&path);
        let rd = Reader::open(&path).unwrap();
        assert_eq!(rd.dimensions().len(), 3);
        assert_eq!(rd.dimension("y").unwrap().size, 3);
        assert_eq!(rd.shape("v").unwrap(), vec![2, 3, 4]);
        assert!(rd.variable("nope").is_err());
        assert!(rd.dimension("nope").is_err());
    }
}
