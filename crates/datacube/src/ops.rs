//! The operator set.
//!
//! Each operator is a pure function `(&Cube, …) -> Cube`. The set covers
//! what the paper's heat/cold-wave and TC pipelines use: NetCDF
//! import/export, time reduction, element-wise `apply` with the
//! expression language, cube–cube arithmetic (with per-row broadcasting
//! for baseline climatologies) and implicit-dimension concatenation
//! (stacking days into a year).
//!
//! **One engine, scalar oracle.** The operators that traverse fragment
//! payloads — [`reduce`], [`apply`], [`intercube`] — are one-node chains
//! on [`crate::fuse::Pipeline`], the only code that runs them in
//! production (a per-row series transform is a `Pipeline::map_series`
//! terminal);
//! the operator-by-operator kernels they used to be live in [`scalar`] as
//! the conformance suite's oracle. The other operators re-window or
//! stream buffers and have a single implementation here.
//!
//! No operator materializes a dense array: kernels read fragment windows in
//! place and build each output payload exactly once ([`SharedData::from_fn`]
//! or an O(1) view of the input buffer). `to_dense()` survives only at
//! explicit export boundaries ([`exportnc`], [`to_grid_values`]).

pub mod scalar;

use crate::error::{Error, Result};
use crate::exec::ExecConfig;
use crate::expr::Expr;
use crate::fuse::Pipeline;
use crate::model::{Cube, DimKind, Dimension, Fragment, SharedData};
use ncformat::{Reader, Value, Writer};
use std::path::Path;

/// Reduction kernels over an implicit dimension.
///
/// # Ordering contract
///
/// Every reduction in this crate — the engine's terminal in [`crate::fuse`]
/// and the oracle kernel [`scalar::reduce`] (fast and general paths) —
/// accumulates **strictly sequentially in ascending series-index order**,
/// one element at a time, through [`ReduceOp::begin`] / [`ReduceOp::step`]
/// / [`ReduceOp::finish`]. f32 addition is not associative, so this order
/// *is* the result: no implementation may re-associate the accumulation
/// into per-lane partial sums (or any other tree), regardless of lane
/// width or thread count. This is what makes fused == unfused bitwise and
/// keeps results independent of `PAR_THREADS` / `io_servers`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Max,
    Min,
    Sum,
    Avg,
    /// Count of elements strictly greater than zero (Ophidia pipelines
    /// build masks with `oph_predicate` then count them; see Listing 1).
    CountPositive,
}

/// In-flight state of one sequential reduction (see the ordering contract
/// on [`ReduceOp`]). `Count` reductions count in `u64` and convert to f32
/// exactly once at [`ReduceOp::finish`], so the count itself never loses
/// precision mid-stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReduceAcc {
    /// Running extremum (Max/Min) or running sum (Sum/Avg).
    Value(f32),
    /// Running element count (CountPositive).
    Count(u64),
}

impl ReduceOp {
    /// The accumulator's identity state.
    pub fn begin(self) -> ReduceAcc {
        match self {
            ReduceOp::Max => ReduceAcc::Value(f32::NEG_INFINITY),
            ReduceOp::Min => ReduceAcc::Value(f32::INFINITY),
            ReduceOp::Sum | ReduceOp::Avg => ReduceAcc::Value(0.0),
            ReduceOp::CountPositive => ReduceAcc::Count(0),
        }
    }

    /// Folds the next series element into the accumulator. Callers must
    /// feed elements in ascending series-index order. Max/Min take only a
    /// strictly greater (smaller) element: a NaN never enters and of tied
    /// ±0 the first stays — what `f32::max`/`min` give from `begin` on
    /// x86-64, as a branch taken only at a new extremum.
    #[inline]
    pub fn step(self, acc: &mut ReduceAcc, v: f32) {
        match (self, acc) {
            (ReduceOp::Max, ReduceAcc::Value(a)) if v > *a => {
                std::hint::cold_path();
                *a = v
            }
            (ReduceOp::Min, ReduceAcc::Value(a)) if v < *a => {
                std::hint::cold_path();
                *a = v
            }
            (ReduceOp::Max | ReduceOp::Min, ReduceAcc::Value(_)) => {}
            (ReduceOp::Sum | ReduceOp::Avg, ReduceAcc::Value(a)) => *a += v,
            (ReduceOp::CountPositive, ReduceAcc::Count(n)) => *n += u64::from(v > 0.0),
            _ => unreachable!("accumulator kind mismatches op"),
        }
    }

    /// Finalizes the reduction over a series of `n` elements. `Avg` of an
    /// empty series is the canonical quiet [`f32::NAN`] (never computed as
    /// `0.0 / 0.0`, whose bit pattern is platform-dependent).
    pub fn finish(self, acc: ReduceAcc, n: usize) -> f32 {
        match (self, acc) {
            (ReduceOp::Avg, ReduceAcc::Value(a)) => {
                if n == 0 {
                    f32::NAN
                } else {
                    a / n as f32
                }
            }
            (_, ReduceAcc::Value(a)) => a,
            (_, ReduceAcc::Count(c)) => c as f32,
        }
    }

    /// Reduces a whole series: begin/step/finish in index order.
    pub fn apply(self, series: &[f32]) -> f32 {
        let mut acc = self.begin();
        for &v in series {
            self.step(&mut acc, v);
        }
        self.finish(acc, series.len())
    }
}

/// Binary element-wise operators between cubes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl InterOp {
    /// Applies the operator to one element pair (shared by the oracle
    /// kernel [`scalar::intercube`] and the engine in [`crate::fuse`]).
    #[inline]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            InterOp::Add => a + b,
            InterOp::Sub => a - b,
            InterOp::Mul => a * b,
            InterOp::Div => a / b,
        }
    }
}

/// Imports a variable from an NCX file into a cube.
///
/// `explicit` and `implicit` name the variable's dimensions in storage
/// order (explicit axes must come first in the variable layout, which is
/// how the ESM writes `(time, lat, lon)` files — callers importing such a
/// file as `(lat, lon | time)` should use [`import_transposed`]).
/// Coordinates are read as [`import_transposed`] reads them. The payload is
/// read into one shared buffer that the fragments window into — ingest
/// costs a single allocation.
pub fn importnc(
    reader: &Reader,
    var: &str,
    explicit: &[&str],
    implicit: &[&str],
    nfrag: usize,
    cfg: ExecConfig,
) -> Result<Cube> {
    let want: Vec<&str> = explicit.iter().chain(implicit).copied().collect();
    let shape = shape_as(reader, var, &want)?;
    let mut dims = Vec::new();
    for (i, (name, &n)) in want.iter().zip(&shape).enumerate() {
        let coords = coord_values(reader, name, n)?;
        let kind = if i < explicit.len() { DimKind::Explicit } else { DimKind::Implicit };
        dims.push(Dimension { name: name.to_string(), kind, coords: coords.into() });
    }
    let data = reader.read_shared_f32(var)?;
    let mut cube = Cube::from_shared(var, dims, SharedData::from(data), nfrag, cfg.io_servers)?;
    cube.description = format!("importnc({var})");
    Ok(cube)
}

/// Imports a `(time, lat, lon)` variable as a `(lat, lon | time)` cube —
/// the transposition the heat-wave pipeline needs so that each grid cell's
/// daily series is one in-row array.
///
/// The source streams through one reused buffer of `T_CHUNK` time planes,
/// each chunk transposed in L1-sized tiles of `ROW_BLOCK` rows. Grain
/// rule: below `TRANSPOSE_PAR_MIN_VALUES` values (a day file) the caller's
/// thread does it all; above, the pool gets one row range per lane.
/// Coordinates are the variables named like the dimensions, `0..n` where
/// there is none; an unreadable or wrong-length ([`Error::BadImport`]) one,
/// like a failed payload read, is an error and no cube is returned.
pub fn import_transposed(
    reader: &Reader,
    var: &str,
    time_dim: &str,
    lat_dim: &str,
    lon_dim: &str,
    nfrag: usize,
    cfg: ExecConfig,
) -> Result<Cube> {
    let shape = shape_as(reader, var, &[time_dim, lat_dim, lon_dim])?;
    let (nt, nlat, nlon) = (shape[0], shape[1], shape[2]);
    let dims = vec![
        Dimension::explicit(lat_dim, coord_values(reader, lat_dim, nlat)?),
        Dimension::explicit(lon_dim, coord_values(reader, lon_dim, nlon)?),
        Dimension::implicit(time_dim, coord_values(reader, time_dim, nt)?),
    ];
    const T_CHUNK: usize = 64;
    const ROW_BLOCK: usize = 64;
    let plane = nlat * nlon;
    let lanes = if nt * plane < TRANSPOSE_PAR_MIN_VALUES { 1 } else { par::global().threads() };
    let lane_rows = plane.div_ceil(lanes).max(1);
    let mut read_err: Option<ncformat::Error> = None;
    let mut buf = vec![0.0f32; T_CHUNK.min(nt.max(1)) * plane];
    let data = SharedData::from_fn(nt * plane, |dst| {
        let mut t0 = 0usize;
        while t0 < nt {
            let tc = T_CHUNK.min(nt - t0);
            if let Err(e) = reader.read_f32_into(var, t0 * plane, &mut buf[..tc * plane]) {
                read_err = Some(e);
                return;
            }
            let src = &buf[..tc * plane];
            par::par_chunks_mut(dst, lane_rows * nt, |lane, rows| {
                for (b, tile) in rows.chunks_mut(ROW_BLOCK * nt).enumerate() {
                    let row0 = lane * lane_rows + b * ROW_BLOCK;
                    for dt in 0..tc {
                        let plane_rows = &src[dt * plane + row0..][..tile.len() / nt];
                        for (lr, &v) in plane_rows.iter().enumerate() {
                            tile[lr * nt + t0 + dt] = v;
                        }
                    }
                }
            });
            t0 += tc;
        }
    });
    if let Some(e) = read_err {
        return Err(e.into());
    }
    let mut cube = Cube::from_shared(var, dims, data, nfrag, cfg.io_servers)?;
    cube.description = format!("import_transposed({var})");
    Ok(cube)
}

/// Grain of [`import_transposed`]. On a 2-core host the serial transpose
/// wins at 55 Ki values (46 vs 51 µs) and two lanes win from 83 Ki.
const TRANSPOSE_PAR_MIN_VALUES: usize = 1 << 16;

/// The shape of `var`, whose dimensions must be `want` in storage order.
fn shape_as(reader: &Reader, var: &str, want: &[&str]) -> Result<Vec<usize>> {
    let dims = reader.dimensions();
    let actual: Vec<&str> =
        reader.variable(var)?.dims.iter().map(|&i| dims[i].name.as_str()).collect();
    if actual != want {
        let msg = format!("variable '{var}' has dims {actual:?}, requested {want:?}");
        return Err(Error::BadImport(msg));
    }
    Ok(reader.shape(var)?)
}

/// Coordinates of dimension `name`: the variable of that name, or
/// `0..size` only when the file has no such variable.
fn coord_values(reader: &Reader, name: &str, size: usize) -> Result<Vec<f64>> {
    match reader.read_all_f64(name) {
        Ok(v) if v.len() == size => Ok(v),
        Ok(v) => Err(Error::BadImport(format!("'{name}' has {} coordinates, not {size}", v.len()))),
        Err(ncformat::Error::UnknownVariable(_)) => Ok((0..size).map(|i| i as f64).collect()),
        Err(e) => Err(e.into()),
    }
}

/// Reduces one implicit dimension away. With a single implicit dimension
/// the whole in-row array collapses to one value per row, in a row loop of
/// its own per `op` (a Max/Min row costs about what a Sum row costs).
///
/// Honors the [`ReduceOp`] ordering contract: each output value
/// accumulates its source elements strictly in ascending `dim`-index
/// order, so results are bitwise independent of fragmentation and lanes.
pub fn reduce(cube: &Cube, op: ReduceOp, dim: &str, cfg: ExecConfig) -> Result<Cube> {
    Ok(Pipeline::new().reduce(op, dim).run(cube, cfg)?.cube)
}

/// Applies an element-wise expression to every value.
pub fn apply(cube: &Cube, expr: &Expr, cfg: ExecConfig) -> Result<Cube> {
    Ok(Pipeline::new().apply(expr.clone()).run(cube, cfg)?.cube)
}

/// Element-wise arithmetic between two cubes with the same explicit space.
/// `b` must have either the same implicit length as `a` or implicit length
/// 1, in which case its per-row scalar broadcasts over `a`'s series — the
/// baseline-climatology pattern of the heat-wave pipeline.
pub fn intercube(a: &Cube, b: &Cube, op: InterOp, cfg: ExecConfig) -> Result<Cube> {
    Ok(Pipeline::new().intercube(b, op).run(a, cfg)?.cube)
}

/// Concatenates cubes along an implicit dimension (stacking days into a
/// year series). All cubes must share explicit dimensions; each must have
/// exactly one implicit dimension named `dim`. The output has the first
/// cube's measure and fragment layout (`row_start`, `row_count`, `server`).
/// Its fragments are filled on the pool in L1-sized blocks of rows, each
/// cube copied in turn as a strided column run through a cursor over its
/// own fragments, so any input fragmentation costs no per-row lookup.
pub fn concat_implicit(cubes: &[&Cube], dim: &str) -> Result<Cube> {
    let first = cubes.first().ok_or_else(|| Error::SchemaMismatch("no cubes to concat".into()))?;
    let mut coords = Vec::new();
    // Per cube with values: first output column, row length, fragments.
    let mut cols = Vec::with_capacity(cubes.len());
    let mut width = 0usize;
    for c in cubes {
        let d = c.dim(dim)?;
        if d.kind != DimKind::Implicit {
            return Err(Error::WrongDimensionKind { dim: dim.into(), need: "implicit" });
        }
        if c.implicit_dims().len() != 1 {
            return Err(Error::SchemaMismatch(
                "concat_implicit requires exactly one implicit dimension".into(),
            ));
        }
        if c.explicit_dims() != first.explicit_dims() {
            return Err(Error::SchemaMismatch("explicit dimensions differ".into()));
        }
        coords.extend(d.coords.iter().copied());
        if !d.is_empty() {
            cols.push((width, d.len(), c.frags_in_row_order()));
            width += d.len();
        }
    }
    let mut dims: Vec<Dimension> = first.explicit_dims().into_iter().cloned().collect();
    dims.push(Dimension::implicit(dim, coords));
    let block_rows = (CONCAT_BLOCK_VALUES / width.max(1)).max(1);
    let frags = par::global().par_map(&first.frags, |proto| {
        let data = SharedData::from_fn(proto.row_count * width, |out| {
            let mut cursors = vec![0usize; cols.len()];
            for (b, block) in out.chunks_mut(block_rows * width).enumerate() {
                let lo = proto.row_start + b * block_rows;
                let hi = lo + block.len() / width;
                for ((col, ilen, src), fi) in cols.iter().zip(&mut cursors) {
                    let mut r = lo;
                    while r < hi {
                        while src[*fi].row_start + src[*fi].row_count <= r {
                            *fi += 1;
                        }
                        let f = src[*fi];
                        let n = (f.row_start + f.row_count).min(hi) - r;
                        let run = &f.data[(r - f.row_start) * ilen..][..n * ilen];
                        for j in 0..*ilen {
                            let dst = block[(r - lo) * width + col + j..].iter_mut();
                            for (d, s) in dst.step_by(width).zip(run.chunks_exact(*ilen)) {
                                *d = s[j];
                            }
                        }
                        r += n;
                    }
                }
            }
        });
        Fragment { data, ..proto.clone() }
    });
    let out = Cube {
        measure: first.measure.clone(),
        dims,
        frags,
        description: format!("concat_implicit({dim}, {} cubes)", cubes.len()),
    };
    out.validate()?;
    Ok(out)
}

/// Values in one row block of [`concat_implicit`]'s output (16 KiB).
const CONCAT_BLOCK_VALUES: usize = 4096;

/// Reinterprets a cube with no implicit dimension as having a singleton
/// implicit dimension (`dim`, coordinate `coord`). This is how per-day
/// reductions (daily tmax maps) become stackable into a year series with
/// [`concat_implicit`]. Payloads are shared with the input.
pub fn add_singleton_implicit(cube: &Cube, dim: &str, coord: f64) -> Result<Cube> {
    if cube.implicit_len() != 1 || !cube.implicit_dims().is_empty() {
        return Err(Error::SchemaMismatch(
            "add_singleton_implicit requires a cube with no implicit dimension".into(),
        ));
    }
    let mut dims = cube.dims.clone();
    dims.push(Dimension::implicit(dim, vec![coord]));
    let out = Cube {
        measure: cube.measure.clone(),
        dims,
        frags: cube.frags.clone(),
        description: format!("{} + singleton {dim}", cube.description),
    };
    out.validate()?;
    Ok(out)
}

/// Exports a cube to an NCX file, with coordinate variables and provenance
/// attributes.
///
/// This is a materialization boundary, but even here the dense array is
/// never built: the output file is sized up front from the payload bytes,
/// coordinates are written from borrowed slices, and the measure's extent
/// is reserved and filled fragment by fragment, in row order, each at its
/// first row's offset.
pub fn exportnc(cube: &Cube, path: &Path) -> Result<()> {
    let mut w = Writer::create(path)?;
    for d in &cube.dims {
        w.add_dimension(&d.name, d.len())?;
    }
    let payload: u64 =
        cube.dims.iter().map(|d| d.len() as u64 * 8).sum::<u64>() + cube.len() as u64 * 4;
    w.reserve(payload)?;
    for d in &cube.dims {
        w.add_variable_f64(&d.name, &[d.name.as_str()], &d.coords, vec![])?;
    }
    let dim_names: Vec<&str> = cube.dims.iter().map(|d| d.name.as_str()).collect();
    w.reserve_variable_f32(&cube.measure, &dim_names, vec![])?;
    let row_len = cube.implicit_len();
    for f in cube.frags_in_row_order() {
        w.write_at_f32(&cube.measure, f.row_start * row_len, &f.data)?;
    }
    w.set_attribute("description", Value::from(cube.description.clone()));
    w.set_attribute("source", Value::from("datacube::exportnc"));
    w.finish()?;
    Ok(())
}

/// Views a `(lat, lon)` cube with no implicit dimension as a gridded field
/// `(nlat, nlon, row-major data)` for map rendering. An explicit dense
/// accessor — the one place outside [`exportnc`] where a caller asks for
/// the materialized array.
pub fn to_grid_values(cube: &Cube) -> Result<(usize, usize, Vec<f32>)> {
    let e = cube.explicit_dims();
    if e.len() != 2 || cube.implicit_len() != 1 {
        return Err(Error::SchemaMismatch(format!(
            "expected 2 explicit dims and no implicit data, have {} explicit, implicit_len {}",
            e.len(),
            cube.implicit_len()
        )));
    }
    Ok((e[0].len(), e[1].len(), cube.to_dense()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncformat::Writer;

    fn cfg() -> ExecConfig {
        ExecConfig::with_servers(2)
    }

    /// 2x2 grid, 4 timesteps: row r has series [r, r+10, r+20, r+30].
    fn sample() -> Cube {
        let dims = vec![
            Dimension::explicit("lat", vec![-45.0, 45.0]),
            Dimension::explicit("lon", vec![0.0, 180.0]),
            Dimension::implicit("time", vec![0.0, 1.0, 2.0, 3.0]),
        ];
        let mut data = Vec::new();
        for r in 0..4 {
            for t in 0..4 {
                data.push((r + t * 10) as f32);
            }
        }
        Cube::from_dense("v", dims, data, 3, 2).unwrap()
    }

    #[test]
    fn reduce_max_min_sum_avg() {
        let c = sample();
        let max = reduce(&c, ReduceOp::Max, "time", cfg()).unwrap();
        assert_eq!(max.to_dense(), vec![30.0, 31.0, 32.0, 33.0]);
        assert_eq!(max.implicit_len(), 1);
        assert!(max.dim("time").is_err());

        let min = reduce(&c, ReduceOp::Min, "time", cfg()).unwrap();
        assert_eq!(min.to_dense(), vec![0.0, 1.0, 2.0, 3.0]);

        let sum = reduce(&c, ReduceOp::Sum, "time", cfg()).unwrap();
        assert_eq!(sum.to_dense(), vec![60.0, 64.0, 68.0, 72.0]);

        let avg = reduce(&c, ReduceOp::Avg, "time", cfg()).unwrap();
        assert_eq!(avg.to_dense(), vec![15.0, 16.0, 17.0, 18.0]);
    }

    #[test]
    fn reduce_requires_implicit_dim() {
        let c = sample();
        assert!(matches!(
            reduce(&c, ReduceOp::Max, "lat", cfg()),
            Err(Error::WrongDimensionKind { .. })
        ));
        assert!(reduce(&c, ReduceOp::Max, "ghost", cfg()).is_err());
    }

    #[test]
    fn count_positive_counts() {
        let dims = vec![
            Dimension::explicit("x", vec![0.0]),
            Dimension::implicit("t", vec![0.0, 1.0, 2.0, 3.0]),
        ];
        let c = Cube::from_dense("m", dims, vec![-1.0, 0.0, 2.0, 5.0], 1, 1).unwrap();
        let n = reduce(&c, ReduceOp::CountPositive, "t", cfg()).unwrap();
        assert_eq!(n.to_dense(), vec![2.0]);
    }

    #[test]
    fn apply_threshold_mask() {
        let c = sample();
        let mask_expr = Expr::from_oph_predicate("x", ">15", "1", "0").unwrap();
        let m = apply(&c, &mask_expr, cfg()).unwrap();
        let dense = m.to_dense();
        let want: Vec<f32> =
            c.to_dense().iter().map(|&v| if v > 15.0 { 1.0 } else { 0.0 }).collect();
        assert_eq!(dense, want);
    }

    #[test]
    fn intercube_same_shape_and_broadcast() {
        let c = sample();
        let diff = intercube(&c, &c, InterOp::Sub, cfg()).unwrap();
        assert!(diff.to_dense().iter().all(|&v| v == 0.0));

        // Broadcast: subtract a per-row baseline (implicit_len = 1).
        let base = reduce(&c, ReduceOp::Min, "time", cfg()).unwrap();
        let anom = intercube(&c, &base, InterOp::Sub, cfg()).unwrap();
        // Every row's series minus its min: [0, 10, 20, 30].
        for r in 0..4 {
            assert_eq!(anom.row_series(r).unwrap(), &[0.0, 10.0, 20.0, 30.0]);
        }
    }

    #[test]
    fn intercube_handles_mismatched_fragmentation() {
        let c = sample(); // 3 fragments
        let b = Cube::from_dense("v", c.dims.clone(), c.to_dense(), 2, 1).unwrap(); // different layout, same content
        let diff = intercube(&c, &b, InterOp::Sub, cfg()).unwrap();
        assert!(diff.to_dense().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn intercube_rejects_mismatched_shapes() {
        let c = sample();
        let dims = vec![Dimension::explicit("x", vec![0.0])];
        let other = Cube::from_dense("w", dims, vec![1.0], 1, 1).unwrap();
        assert!(intercube(&c, &other, InterOp::Add, cfg()).is_err());
    }

    #[test]
    fn concat_implicit_stacks_days() {
        let a = sample();
        let b = sample();
        let y = concat_implicit(&[&a, &b], "time").unwrap();
        assert_eq!(y.implicit_len(), 8);
        assert_eq!(y.row_series(2).unwrap(), &[2.0, 12.0, 22.0, 32.0, 2.0, 12.0, 22.0, 32.0]);
        assert_eq!(y.dim("time").unwrap().len(), 8);
    }

    #[test]
    fn concat_with_mismatched_fragmentation() {
        let a = sample(); // 3 fragments
        let dims = a.dims.clone();
        let b = Cube::from_dense("v", dims, a.to_dense(), 2, 1).unwrap(); // 2 fragments
        let y = concat_implicit(&[&a, &b], "time").unwrap();
        assert_eq!(y.implicit_len(), 8);
        assert_eq!(y.row_series(0).unwrap()[..4], a.to_dense()[..4]);
        y.validate().unwrap();
    }

    #[test]
    fn singleton_implicit_enables_day_stacking() {
        let day0 = reduce(&sample(), ReduceOp::Max, "time", cfg()).unwrap();
        let day1 = reduce(&sample(), ReduceOp::Min, "time", cfg()).unwrap();
        let d0 = add_singleton_implicit(&day0, "day", 0.0).unwrap();
        let d1 = add_singleton_implicit(&day1, "day", 1.0).unwrap();
        let year = concat_implicit(&[&d0, &d1], "day").unwrap();
        assert_eq!(year.implicit_len(), 2);
        assert_eq!(year.row_series(0).unwrap(), &[30.0, 0.0]);
        assert_eq!(year.dim("day").unwrap().coords.to_vec(), vec![0.0, 1.0]);
        // Cubes that still have a time axis are rejected.
        assert!(add_singleton_implicit(&sample(), "day", 0.0).is_err());
    }

    #[test]
    fn export_reimport_roundtrip() {
        let dir = std::env::temp_dir().join("datacube-ops");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("export.ncx");
        let c = reduce(&sample(), ReduceOp::Max, "time", cfg()).unwrap();
        exportnc(&c, &path).unwrap();

        let rd = Reader::open(&path).unwrap();
        assert_eq!(rd.read_all_f32("v").unwrap(), c.to_dense());
        assert_eq!(rd.read_all_f64("lat").unwrap(), vec![-45.0, 45.0]);
        let back = importnc(&rd, "v", &["lat", "lon"], &[], 2, cfg()).unwrap();
        assert_eq!(back.to_dense(), c.to_dense());
        assert_eq!(back.dim("lon").unwrap().coords.to_vec(), vec![0.0, 180.0]);
    }

    #[test]
    fn export_streams_fragments_in_row_order() {
        // A cube whose fragment vector is deliberately out of row order.
        let mut c = sample();
        c.frags.reverse();
        c.validate().unwrap();
        let dir = std::env::temp_dir().join("datacube-ops");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("export-rev.ncx");
        exportnc(&c, &path).unwrap();
        let rd = Reader::open(&path).unwrap();
        assert_eq!(rd.read_all_f32("v").unwrap(), c.to_dense());
    }

    #[test]
    fn importnc_validates_dim_names() {
        let dir = std::env::temp_dir().join("datacube-ops");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dims.ncx");
        exportnc(&sample(), &path).unwrap();
        let rd = Reader::open(&path).unwrap();
        assert!(importnc(&rd, "v", &["lon", "lat"], &["time"], 1, cfg()).is_err());
        assert!(importnc(&rd, "nope", &["lat"], &[], 1, cfg()).is_err());
    }

    #[test]
    fn importnc_fragments_share_one_buffer() {
        let dir = std::env::temp_dir().join("datacube-ops");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared-import.ncx");
        exportnc(&sample(), &path).unwrap();
        let rd = Reader::open(&path).unwrap();
        let c = importnc(&rd, "v", &["lat", "lon"], &["time"], 3, cfg()).unwrap();
        assert!(c.frags.len() > 1);
        for f in &c.frags[1..] {
            assert!(f.data.same_buffer(&c.frags[0].data), "ingest must be single-allocation");
        }
    }

    #[test]
    fn import_transposed_gives_per_cell_series() {
        // Build a (time, lat, lon) file like the ESM writes.
        let dir = std::env::temp_dir().join("datacube-ops");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tyx.ncx");
        let (nt, ny, nx) = (3, 2, 2);
        let mut w = Writer::create(&path).unwrap();
        w.add_dimension("time", nt).unwrap();
        w.add_dimension("lat", ny).unwrap();
        w.add_dimension("lon", nx).unwrap();
        let data: Vec<f32> = (0..nt * ny * nx).map(|i| i as f32).collect();
        w.add_variable_f32("tas", &["time", "lat", "lon"], &data, vec![]).unwrap();
        w.finish().unwrap();

        let rd = Reader::open(&path).unwrap();
        let cube = import_transposed(&rd, "tas", "time", "lat", "lon", 2, cfg()).unwrap();
        // Cell (0,0) series = values at linear offsets 0, 4, 8.
        assert_eq!(cube.row_series(0).unwrap(), &[0.0, 4.0, 8.0]);
        // Cell (1,1) = offsets 3, 7, 11.
        assert_eq!(cube.row_series(3).unwrap(), &[3.0, 7.0, 11.0]);
    }

    #[test]
    fn to_grid_values_shape_guard() {
        let c = reduce(&sample(), ReduceOp::Max, "time", cfg()).unwrap();
        let (nlat, nlon, vals) = to_grid_values(&c).unwrap();
        assert_eq!((nlat, nlon), (2, 2));
        assert_eq!(vals.len(), 4);
        assert!(to_grid_values(&sample()).is_err());
    }
}
