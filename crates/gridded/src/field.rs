//! Field containers: a 2-D field is one variable on one grid at one time;
//! a 3-D field stacks a time axis on top (time-major storage, matching the
//! `(time, lat, lon)` layout of the NetCDF-like files).

use crate::grid::Grid;

/// A single-level, single-time field on a [`Grid`]. Row-major `(lat, lon)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Field2 {
    pub grid: Grid,
    pub data: Vec<f32>,
}

impl Field2 {
    /// A field filled with a constant.
    pub fn constant(grid: Grid, value: f32) -> Self {
        let n = grid.len();
        Field2 { grid, data: vec![value; n] }
    }

    /// Wraps existing data; panics if the length does not match the grid.
    pub fn from_vec(grid: Grid, data: Vec<f32>) -> Self {
        assert_eq!(grid.len(), data.len(), "data length must match grid size");
        Field2 { grid, data }
    }

    /// Value at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[self.grid.index(i, j)]
    }

    /// Sets the value at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        let idx = self.grid.index(i, j);
        self.data[idx] = v;
    }

    /// Unweighted arithmetic mean.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return f64::NAN;
        }
        self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64
    }

    /// Area-weighted global mean (cos-latitude weights).
    pub fn area_mean(&self) -> f64 {
        let w = self.grid.area_weights();
        self.data.iter().zip(&w).map(|(&v, &wi)| v as f64 * wi).sum()
    }
}

/// A time-stacked field: `ntime` levels of `(lat, lon)` planes, time-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Field3 {
    pub grid: Grid,
    pub ntime: usize,
    pub data: Vec<f32>,
}

impl Field3 {
    /// Wraps existing data; panics on length mismatch.
    pub fn from_vec(grid: Grid, ntime: usize, data: Vec<f32>) -> Self {
        assert_eq!(grid.len() * ntime, data.len(), "data length must be ntime * grid");
        Field3 { grid, ntime, data }
    }

    /// Borrowed view of time level `t`.
    fn slice(&self, t: usize) -> &[f32] {
        let n = self.grid.len();
        &self.data[t * n..(t + 1) * n]
    }

    /// Owned copy of time level `t` as a [`Field2`].
    pub fn level(&self, t: usize) -> Field2 {
        Field2::from_vec(self.grid.clone(), self.slice(t).to_vec())
    }

    /// Per-cell reduction over the time axis with `f` (e.g. running max).
    fn reduce_time<F: Fn(f32, f32) -> f32>(&self, init: f32, f: F) -> Field2 {
        let n = self.grid.len();
        let mut out = vec![init; n];
        for t in 0..self.ntime {
            let lvl = self.slice(t);
            for (o, &v) in out.iter_mut().zip(lvl) {
                *o = f(*o, v);
            }
        }
        Field2::from_vec(self.grid.clone(), out)
    }

    /// Per-cell time maximum.
    pub fn time_max(&self) -> Field2 {
        self.reduce_time(f32::NEG_INFINITY, f32::max)
    }

    /// Per-cell time minimum.
    pub fn time_min(&self) -> Field2 {
        self.reduce_time(f32::INFINITY, f32::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Grid {
        Grid::global(4, 6)
    }

    #[test]
    fn constant_and_zeros() {
        let f = Field2::constant(small(), 3.0);
        assert_eq!(f.data.len(), 24);
        assert!(f.data.iter().all(|&v| v == 3.0));
        assert_eq!(Field2::constant(small(), 0.0).mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_length_checked() {
        Field2::from_vec(small(), vec![0.0; 5]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut f = Field2::constant(small(), 0.0);
        f.set(2, 3, 7.5);
        assert_eq!(f.get(2, 3), 7.5);
        assert_eq!(f.get(2, 2), 0.0);
    }

    #[test]
    fn area_mean_of_constant_is_constant() {
        let f = Field2::constant(small(), 4.0);
        assert!((f.area_mean() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn field3_slicing_and_reductions() {
        let g = small();
        let n = g.len();
        let mut data = Vec::new();
        for t in 0..3 {
            data.extend(std::iter::repeat_n(t as f32, n));
        }
        let f3 = Field3::from_vec(g, 3, data);
        assert_eq!(f3.slice(1), &vec![1.0; n][..]);
        assert_eq!(f3.level(2).data, vec![2.0; n]);
        assert_eq!(f3.time_max().data, vec![2.0; n]);
        assert_eq!(f3.time_min().data, vec![0.0; n]);
    }
}
