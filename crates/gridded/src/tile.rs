//! Non-overlapping patch tiling with inverse geo-referencing.
//!
//! Section 5.4 of the paper: the TC-localization pipeline tiles each
//! regridded field into non-overlapping patches, runs the CNN per patch, and
//! geo-references the predicted cyclone-center pixel back onto the global
//! map. [`Tiling`] owns both directions of that mapping.

use crate::field::Field2;
use crate::grid::Grid;

/// Total cell count at which [`Tiling::extract_all`] fans tiles out onto
/// the shared pool; smaller tilings copy faster than they dispatch.
const TILE_PAR_MIN_CELLS: usize = 1 << 14;

/// Size specification for a tiling: square patches of `patch` cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSpec {
    pub patch: usize,
}

/// A concrete tiling of a grid into non-overlapping `patch × patch` tiles.
/// Edge cells that do not fill a whole tile are dropped (the paper's
/// pipeline regrids to a resolution divisible by its patch size; we keep the
/// truncating behaviour explicit and tested).
#[derive(Debug, Clone)]
pub struct Tiling {
    pub grid: Grid,
    pub patch: usize,
    /// Number of tile rows.
    pub rows: usize,
    /// Number of tile columns.
    pub cols: usize,
}

impl Tiling {
    /// Plans a tiling of `grid` into `spec.patch`-sized tiles.
    pub fn plan(grid: Grid, spec: TileSpec) -> Self {
        assert!(spec.patch > 0, "patch size must be positive");
        let rows = grid.nlat / spec.patch;
        let cols = grid.nlon / spec.patch;
        Tiling { grid, patch: spec.patch, rows, cols }
    }

    /// Total number of tiles.
    fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True when the grid is too small for a single tile.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extracts tile `(r, c)` from a field as a row-major `patch × patch`
    /// buffer.
    pub fn extract(&self, field: &Field2, r: usize, c: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.patch * self.patch];
        self.extract_into(field, r, c, &mut out);
        out
    }

    /// [`Tiling::extract`] into a caller-owned `patch × patch` buffer.
    pub fn extract_into(&self, field: &Field2, r: usize, c: usize, out: &mut [f32]) {
        assert_eq!(field.grid, self.grid, "field grid must match tiling grid");
        assert!(r < self.rows && c < self.cols, "tile index out of range");
        let p = self.patch;
        assert_eq!(out.len(), p * p, "tile buffer must hold patch × patch cells");
        for (di, row) in out.chunks_mut(p).enumerate() {
            let base = self.grid.index(r * p + di, c * p);
            row.copy_from_slice(&field.data[base..base + p]);
        }
    }

    /// Extracts every tile in row-major tile order. Tiles are independent
    /// reads, so extraction fans out over the shared [`par`] pool when
    /// there is enough work to amortize dispatch; ordering is preserved
    /// either way.
    pub fn extract_all(&self, field: &Field2) -> Vec<Vec<f32>> {
        let n = self.len();
        if n * self.patch * self.patch >= TILE_PAR_MIN_CELLS {
            let ids: Vec<usize> = (0..n).collect();
            par::par_map(&ids, |&idx| self.extract(field, idx / self.cols, idx % self.cols))
        } else {
            let mut out = Vec::with_capacity(n);
            for r in 0..self.rows {
                for c in 0..self.cols {
                    out.push(self.extract(field, r, c));
                }
            }
            out
        }
    }

    /// Grid coordinates `(i, j)` of pixel `(pi, pj)` inside tile `(r, c)`.
    fn to_grid(&self, r: usize, c: usize, pi: usize, pj: usize) -> (usize, usize) {
        assert!(pi < self.patch && pj < self.patch, "pixel outside patch");
        (r * self.patch + pi, c * self.patch + pj)
    }

    /// Geographic coordinates (lat, lon in degrees) of pixel `(pi, pj)`
    /// inside tile `(r, c)` — the geo-referencing step of the TC pipeline.
    pub fn to_latlon(&self, r: usize, c: usize, pi: usize, pj: usize) -> (f64, f64) {
        let (i, j) = self.to_grid(r, c, pi, pj);
        (self.grid.lat(i), self.grid.lon(j))
    }

    /// Which tile and in-tile pixel covers
    /// grid cell `(i, j)`; `None` when the cell lies in the truncated edge.
    pub fn locate(&self, i: usize, j: usize) -> Option<(usize, usize, usize, usize)> {
        let r = i / self.patch;
        let c = j / self.patch;
        if r >= self.rows || c >= self.cols {
            return None;
        }
        Some((r, c, i % self.patch, j % self.patch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::global(12, 16)
    }

    #[test]
    fn plan_counts_whole_tiles_only() {
        let t = Tiling::plan(grid(), TileSpec { patch: 4 });
        assert_eq!((t.rows, t.cols), (3, 4));
        let t = Tiling::plan(grid(), TileSpec { patch: 5 });
        assert_eq!((t.rows, t.cols), (2, 3)); // 12/5=2, 16/5=3
        let t = Tiling::plan(grid(), TileSpec { patch: 20 });
        assert!(t.is_empty());
    }

    #[test]
    fn extract_reads_the_right_cells() {
        let g = grid();
        let f = Field2::from_vec(g.clone(), (0..g.len()).map(|i| i as f32).collect());
        let t = Tiling::plan(g, TileSpec { patch: 4 });
        let tile = t.extract(&f, 1, 2);
        // Tile (1,2) starts at grid (4, 8); first row should be 4*16+8 ..
        assert_eq!(tile[0], (4 * 16 + 8) as f32);
        assert_eq!(tile[3], (4 * 16 + 11) as f32);
        assert_eq!(tile[4], (5 * 16 + 8) as f32);
        assert_eq!(tile.len(), 16);
    }

    #[test]
    fn extract_all_covers_whole_region_once() {
        let g = grid();
        let f = Field2::from_vec(g.clone(), (0..g.len()).map(|i| i as f32).collect());
        let t = Tiling::plan(g, TileSpec { patch: 4 });
        let tiles = t.extract_all(&f);
        assert_eq!(tiles.len(), 12);
        let mut seen: Vec<f32> = tiles.into_iter().flatten().collect();
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        seen.dedup();
        assert_eq!(seen.len(), 12 * 16); // every covered cell exactly once
    }

    #[test]
    fn tiling_roundtrip_locate_to_grid() {
        let t = Tiling::plan(grid(), TileSpec { patch: 4 });
        for i in 0..12 {
            for j in 0..16 {
                let (r, c, pi, pj) = t.locate(i, j).unwrap();
                assert_eq!(t.to_grid(r, c, pi, pj), (i, j));
            }
        }
    }

    #[test]
    fn locate_is_none_on_truncated_edge() {
        let t = Tiling::plan(grid(), TileSpec { patch: 5 });
        assert!(t.locate(11, 0).is_none()); // row 11 beyond 2*5
        assert!(t.locate(0, 15).is_none()); // col 15 beyond 3*5
        assert!(t.locate(9, 14).is_some());
    }

    #[test]
    fn to_latlon_matches_grid_centers() {
        let g = grid();
        let t = Tiling::plan(g.clone(), TileSpec { patch: 4 });
        let (lat, lon) = t.to_latlon(2, 3, 1, 2);
        assert_eq!(lat, g.lat(9));
        assert_eq!(lon, g.lon(14));
    }

    #[test]
    #[should_panic(expected = "pixel outside patch")]
    fn to_grid_checks_pixel_bounds() {
        let t = Tiling::plan(grid(), TileSpec { patch: 4 });
        t.to_grid(0, 0, 4, 0);
    }
}
