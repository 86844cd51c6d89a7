//! The datacube model: dimensions, fragments, and the cube container.
//!
//! Following Ophidia's storage model, a cube's dimensions are split into
//! **explicit** dimensions — the distributed index space; every combination
//! of explicit indices is one *row*, and rows are range-partitioned into
//! fragments homed on I/O servers — and **implicit** dimensions, stored
//! inside each row as a contiguous array (typically `time`). A cube of
//! `(lat, lon | time)` with 96×144 cells and 365 days is thus 13 824 rows
//! of 365-element arrays, sliced into `nfrag` fragments.
//!
//! # Ownership model
//!
//! Fragment payloads are windows into shared, immutable `Arc<[f32]>`
//! buffers ([`SharedData`]), and dimension coordinates are `Arc<[f64]>`.
//! Cloning a fragment, re-slicing a cube, or re-fragmenting along existing
//! boundaries is O(1) reference-count traffic — no payload copy. Payloads
//! are never mutated: operators that produce new values build
//! their output buffers exactly once via [`SharedData::from_fn`] or
//! `collect()`; `to_dense()` survives only at export boundaries.

use crate::error::{Error, Result};
use std::sync::Arc;

/// A shared, immutable `f32` payload: a `[off, off+len)` window into an
/// `Arc<[f32]>` buffer. Cheap to clone and to re-slice; dereferences to
/// `&[f32]` for reading. Equality compares contents, not identity.
#[derive(Clone)]
pub struct SharedData {
    buf: Arc<[f32]>,
    off: usize,
    len: usize,
}

impl SharedData {
    /// An empty payload. Allocation-free: every call shares one static
    /// zero-length buffer, so operators that produce empty outputs (e.g. a
    /// zero-length `map_series`) cost one refcount bump instead of an
    /// `Arc` allocation each.
    pub fn empty() -> Self {
        static EMPTY: std::sync::OnceLock<Arc<[f32]>> = std::sync::OnceLock::new();
        let buf = Arc::clone(EMPTY.get_or_init(|| Arc::from([])));
        SharedData { buf, off: 0, len: 0 }
    }

    /// Allocates a `len`-element buffer exactly once, lets `fill` write it,
    /// and returns it as an immutable shared payload. This is how operator
    /// kernels build outputs without an intermediate `Vec` → `Arc` copy.
    pub fn from_fn(len: usize, fill: impl FnOnce(&mut [f32])) -> Self {
        if len == 0 {
            return Self::empty();
        }
        let mut buf: Arc<[f32]> = std::iter::repeat_n(0.0f32, len).collect();
        fill(Arc::get_mut(&mut buf).expect("freshly allocated buffer is unique"));
        SharedData { buf, off: 0, len }
    }

    /// Builds from an exact-length iterator in a single pass (single
    /// allocation regardless of the iterator's `TrustedLen`-ness).
    pub fn from_iter_len(len: usize, it: impl IntoIterator<Item = f32>) -> Self {
        let mut it = it.into_iter();
        let out = Self::from_fn(len, |dst| {
            for slot in dst.iter_mut() {
                *slot = it.next().expect("iterator shorter than declared length");
            }
        });
        debug_assert!(it.next().is_none(), "iterator longer than declared length");
        out
    }

    /// O(1) sub-window `[lo, hi)` of this payload (shares the buffer).
    fn slice(&self, lo: usize, hi: usize) -> Self {
        assert!(lo <= hi && hi <= self.len, "slice {lo}..{hi} out of window len {}", self.len);
        SharedData { buf: Arc::clone(&self.buf), off: self.off + lo, len: hi - lo }
    }

    /// The window as a slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.buf[self.off..self.off + self.len]
    }

    /// True when `self` and `other` are windows into the same underlying
    /// allocation (used by tests asserting zero-copy behaviour).
    pub fn same_buffer(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }
}

impl std::ops::Deref for SharedData {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl From<Vec<f32>> for SharedData {
    /// Adopts a dense vector (one copy into the shared buffer; prefer
    /// [`SharedData::from_fn`] on hot paths).
    fn from(v: Vec<f32>) -> Self {
        let len = v.len();
        SharedData { buf: Arc::from(v), off: 0, len }
    }
}

impl From<Arc<[f32]>> for SharedData {
    /// Adopts an already-shared buffer, zero-copy.
    fn from(buf: Arc<[f32]>) -> Self {
        let len = buf.len();
        SharedData { buf, off: 0, len }
    }
}

impl FromIterator<f32> for SharedData {
    fn from_iter<I: IntoIterator<Item = f32>>(it: I) -> Self {
        // Arc's FromIterator allocates once for exact-size iterators (the
        // kernel map/zip chains), falling back to a Vec pass otherwise.
        let buf: Arc<[f32]> = it.into_iter().collect();
        SharedData::from(buf)
    }
}

impl PartialEq for SharedData {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for SharedData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedData({:?})", self.as_slice())
    }
}

/// Whether a dimension indexes rows (explicit) or in-row arrays (implicit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimKind {
    Explicit,
    Implicit,
}

/// One cube dimension with its coordinate values.
#[derive(Debug, Clone, PartialEq)]
pub struct Dimension {
    pub name: String,
    pub kind: DimKind,
    /// Coordinate value of each index (e.g. latitude degrees, day number).
    /// Shared: cloning a dimension (every operator does) is O(1).
    pub coords: Arc<[f64]>,
}

impl Dimension {
    /// Creates an explicit dimension.
    pub fn explicit(name: &str, coords: impl Into<Arc<[f64]>>) -> Self {
        Dimension { name: name.into(), kind: DimKind::Explicit, coords: coords.into() }
    }

    /// Creates an implicit dimension.
    pub fn implicit(name: &str, coords: impl Into<Arc<[f64]>>) -> Self {
        Dimension { name: name.into(), kind: DimKind::Implicit, coords: coords.into() }
    }

    /// Number of indices along this dimension.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True when the dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }
}

/// One range-partition of a cube's rows. `data` is row-major:
/// `row_count × implicit_len` values, a window into a shared buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    /// Global index of the first row in this fragment.
    pub row_start: usize,
    /// Rows held.
    pub row_count: usize,
    /// Home I/O server of this fragment.
    pub server: usize,
    /// Payload (`row_count * implicit_len` f32 values).
    pub data: SharedData,
}

/// An in-memory datacube.
#[derive(Debug, Clone, PartialEq)]
pub struct Cube {
    /// Measured variable name (e.g. `tasmax`).
    pub measure: String,
    /// Dimensions, explicit first then implicit, each in storage order.
    pub dims: Vec<Dimension>,
    /// Row partitions.
    pub frags: Vec<Fragment>,
    /// Free-text provenance (operator that produced this cube).
    pub description: String,
}

impl Cube {
    /// Builds a cube from dense data. `dims` must list explicit dimensions
    /// first; `data` is row-major over `(explicit..., implicit...)`.
    /// The data is split into `nfrag` row-range fragments assigned
    /// round-robin to `io_servers` servers.
    pub fn from_dense(
        measure: &str,
        dims: Vec<Dimension>,
        data: Vec<f32>,
        nfrag: usize,
        io_servers: usize,
    ) -> Result<Self> {
        Self::from_shared(measure, dims, SharedData::from(data), nfrag, io_servers)
    }

    /// [`Cube::from_dense`] over an already-shared payload: fragments are
    /// O(1) windows into `data` — no per-fragment copies.
    pub fn from_shared(
        measure: &str,
        dims: Vec<Dimension>,
        data: SharedData,
        nfrag: usize,
        io_servers: usize,
    ) -> Result<Self> {
        // Explicit dims must precede implicit ones.
        let first_implicit = dims.iter().position(|d| d.kind == DimKind::Implicit);
        if let Some(fi) = first_implicit {
            if dims[fi..].iter().any(|d| d.kind == DimKind::Explicit) {
                return Err(Error::SchemaMismatch(
                    "explicit dimensions must precede implicit ones".into(),
                ));
            }
        }
        let rows: usize =
            dims.iter().filter(|d| d.kind == DimKind::Explicit).map(|d| d.len()).product();
        let ilen: usize =
            dims.iter().filter(|d| d.kind == DimKind::Implicit).map(|d| d.len()).product();
        if rows * ilen != data.len() {
            return Err(Error::SchemaMismatch(format!(
                "data length {} != rows {rows} x implicit {ilen}",
                data.len()
            )));
        }
        let nfrag = nfrag.clamp(1, rows.max(1));
        let io_servers = io_servers.max(1);
        let mut frags = Vec::with_capacity(nfrag);
        let base = rows / nfrag;
        let extra = rows % nfrag;
        let mut row = 0usize;
        for f in 0..nfrag {
            let count = base + usize::from(f < extra);
            frags.push(Fragment {
                row_start: row,
                row_count: count,
                server: f % io_servers,
                data: data.slice(row * ilen, (row + count) * ilen),
            });
            row += count;
        }
        Ok(Cube { measure: measure.into(), dims, frags, description: String::from("from_dense") })
    }

    /// Explicit dimensions in order.
    pub fn explicit_dims(&self) -> Vec<&Dimension> {
        self.dims.iter().filter(|d| d.kind == DimKind::Explicit).collect()
    }

    /// Implicit dimensions in order.
    pub fn implicit_dims(&self) -> Vec<&Dimension> {
        self.dims.iter().filter(|d| d.kind == DimKind::Implicit).collect()
    }

    /// Number of rows (product of explicit dimension sizes).
    pub fn rows(&self) -> usize {
        self.explicit_dims().iter().map(|d| d.len()).product()
    }

    /// In-row array length (product of implicit dimension sizes; 1 when the
    /// cube has no implicit dimension).
    pub fn implicit_len(&self) -> usize {
        self.implicit_dims().iter().map(|d| d.len()).product()
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.rows() * self.implicit_len()
    }

    /// True when the cube holds no data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical payload size in bytes (what `to_dense` would materialize;
    /// windows sharing one buffer count each time they appear).
    pub fn bytes(&self) -> usize {
        self.frags.iter().map(|f| f.data.len() * 4).sum()
    }

    /// Looks up a dimension by name.
    pub fn dim(&self, name: &str) -> Result<&Dimension> {
        self.dims
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| Error::UnknownDimension(name.into()))
    }

    /// Reassembles the dense row-major array (export boundary / tests).
    pub fn to_dense(&self) -> Vec<f32> {
        let ilen = self.implicit_len();
        let mut out = vec![0.0f32; self.rows() * ilen];
        for f in &self.frags {
            let lo = f.row_start * ilen;
            out[lo..lo + f.data.len()].copy_from_slice(&f.data);
        }
        out
    }

    /// Iterates all values in global row-major order without materializing
    /// the dense array (read-only counting/scan boundary).
    pub fn values(&self) -> impl Iterator<Item = f32> + '_ {
        self.frags_in_row_order().into_iter().flat_map(|f| f.data.as_slice().iter().copied())
    }

    /// Fragments sorted by `row_start` (borrowed; fragments tile the row
    /// space, so this is global row order).
    pub fn frags_in_row_order(&self) -> Vec<&Fragment> {
        let mut order: Vec<&Fragment> = self.frags.iter().collect();
        order.sort_by_key(|f| f.row_start);
        order
    }

    /// Validates internal consistency (fragments tile the row space, sizes
    /// match). Used by property tests and after operator construction.
    pub fn validate(&self) -> Result<()> {
        let ilen = self.implicit_len();
        let mut covered = 0usize;
        let mut next = 0usize;
        let mut frags: Vec<&Fragment> = self.frags.iter().collect();
        frags.sort_by_key(|f| f.row_start);
        for f in frags {
            if f.row_start != next {
                return Err(Error::SchemaMismatch(format!(
                    "fragment gap/overlap at row {next} (fragment starts at {})",
                    f.row_start
                )));
            }
            if f.data.len() != f.row_count * ilen {
                return Err(Error::SchemaMismatch(format!(
                    "fragment at {} holds {} values, expected {}",
                    f.row_start,
                    f.data.len(),
                    f.row_count * ilen
                )));
            }
            next += f.row_count;
            covered += f.row_count;
        }
        if covered != self.rows() {
            return Err(Error::SchemaMismatch(format!(
                "fragments cover {covered} rows, cube has {}",
                self.rows()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Cube {
        /// The in-row series of one global row (borrowed).
        pub(crate) fn row_series(&self, row: usize) -> Option<&[f32]> {
            let ilen = self.implicit_len();
            for f in &self.frags {
                if row >= f.row_start && row < f.row_start + f.row_count {
                    let lo = (row - f.row_start) * ilen;
                    return Some(&f.data.as_slice()[lo..lo + ilen]);
                }
            }
            None
        }
    }

    fn cube_2x3_t4(nfrag: usize) -> Cube {
        let dims = vec![
            Dimension::explicit("lat", vec![-45.0, 45.0]),
            Dimension::explicit("lon", vec![0.0, 120.0, 240.0]),
            Dimension::implicit("time", (0..4).map(|t| t as f64).collect::<Vec<_>>()),
        ];
        let data: Vec<f32> = (0..24).map(|i| i as f32).collect();
        Cube::from_dense("v", dims, data, nfrag, 2).unwrap()
    }

    #[test]
    fn construction_and_shape_queries() {
        let c = cube_2x3_t4(3);
        assert_eq!(c.rows(), 6);
        assert_eq!(c.implicit_len(), 4);
        assert_eq!(c.len(), 24);
        assert_eq!(c.frags.len(), 3);
        assert_eq!(c.bytes(), 96);
        c.validate().unwrap();
    }

    #[test]
    fn fragmentation_round_trips_dense() {
        for nfrag in [1, 2, 3, 5, 6, 100] {
            let c = cube_2x3_t4(nfrag);
            assert_eq!(c.to_dense(), (0..24).map(|i| i as f32).collect::<Vec<_>>());
            c.validate().unwrap();
        }
    }

    #[test]
    fn fragments_share_one_buffer() {
        // from_dense fragments are O(1) windows into a single allocation.
        let c = cube_2x3_t4(3);
        assert!(c.frags[1].data.same_buffer(&c.frags[0].data));
        assert!(c.frags[2].data.same_buffer(&c.frags[0].data));
        // Cloning a cube shares everything.
        let c2 = c.clone();
        assert!(c2.frags[0].data.same_buffer(&c.frags[0].data));
    }

    #[test]
    fn shared_data_slice_shares_the_buffer() {
        let d = SharedData::from(vec![1.0, 2.0, 3.0, 4.0]);
        let view = d.slice(1, 3);
        assert_eq!(&view[..], &[2.0, 3.0]);
        assert!(view.same_buffer(&d));
    }

    #[test]
    fn shared_data_from_fn_single_buffer() {
        let d = SharedData::from_fn(4, |out| {
            for (i, v) in out.iter_mut().enumerate() {
                *v = i as f32;
            }
        });
        assert_eq!(&d[..], &[0.0, 1.0, 2.0, 3.0]);
        let e = SharedData::from_iter_len(3, [5.0, 6.0, 7.0]);
        assert_eq!(&e[..], &[5.0, 6.0, 7.0]);
        assert!(SharedData::empty().is_empty());
        assert!(SharedData::from_fn(0, |_| {}).is_empty());
    }

    #[test]
    fn empty_payloads_share_one_static_buffer() {
        let a = SharedData::empty();
        let b = SharedData::empty();
        let c = SharedData::from_fn(0, |_| unreachable!("fill must not run for len 0"));
        assert!(a.same_buffer(&b), "empty() must not allocate per call");
        assert!(a.same_buffer(&c), "from_fn(0, _) must reuse the static empty buffer");
    }

    #[test]
    fn uneven_fragmentation_distributes_remainder() {
        let c = cube_2x3_t4(4); // 6 rows over 4 frags: 2,2,1,1
        let counts: Vec<usize> = c.frags.iter().map(|f| f.row_count).collect();
        assert_eq!(counts.iter().sum::<usize>(), 6);
        assert_eq!(counts, vec![2, 2, 1, 1]);
        // Round-robin server assignment over 2 servers.
        let servers: Vec<usize> = c.frags.iter().map(|f| f.server).collect();
        assert_eq!(servers, vec![0, 1, 0, 1]);
    }

    #[test]
    fn row_series_reads_the_right_slice() {
        let c = cube_2x3_t4(3);
        assert_eq!(c.row_series(0).unwrap(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(c.row_series(5).unwrap(), &[20.0, 21.0, 22.0, 23.0]);
        assert!(c.row_series(6).is_none());
    }

    #[test]
    fn values_iterate_in_row_order() {
        let c = cube_2x3_t4(4);
        let vals: Vec<f32> = c.values().collect();
        assert_eq!(vals, c.to_dense());
    }

    #[test]
    fn explicit_after_implicit_rejected() {
        let dims =
            vec![Dimension::implicit("time", vec![0.0]), Dimension::explicit("lat", vec![0.0])];
        assert!(Cube::from_dense("v", dims, vec![0.0], 1, 1).is_err());
    }

    #[test]
    fn length_mismatch_rejected() {
        let dims = vec![Dimension::explicit("x", vec![0.0, 1.0])];
        assert!(Cube::from_dense("v", dims, vec![0.0; 3], 1, 1).is_err());
    }

    #[test]
    fn cube_without_implicit_dims() {
        let dims = vec![Dimension::explicit("x", vec![0.0, 1.0, 2.0])];
        let c = Cube::from_dense("v", dims, vec![5.0, 6.0, 7.0], 2, 1).unwrap();
        assert_eq!(c.implicit_len(), 1);
        assert_eq!(c.row_series(1).unwrap(), &[6.0]);
        c.validate().unwrap();
    }

    #[test]
    fn validate_detects_corruption() {
        let mut c = cube_2x3_t4(2);
        c.frags[1].row_start += 1;
        assert!(c.validate().is_err());
        let mut c = cube_2x3_t4(2);
        let shortened = c.frags[0].data.slice(0, c.frags[0].data.len() - 1);
        c.frags[0].data = shortened;
        assert!(c.validate().is_err());
    }

    #[test]
    fn dim_lookup() {
        let c = cube_2x3_t4(1);
        assert_eq!(c.dim("time").unwrap().kind, DimKind::Implicit);
        assert!(c.dim("depth").is_err());
    }
}
