//! Regular latitude/longitude grids.
//!
//! Grids are cell-centered and global by default: latitude runs from south
//! to north, longitude eastward from 0°. Row-major storage convention
//! everywhere in the workspace: index `i * nlon + j` with `i` the latitude
//! row and `j` the longitude column.

/// A regular (equal-angle) latitude/longitude grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// Number of latitude rows.
    pub nlat: usize,
    /// Number of longitude columns.
    pub nlon: usize,
    /// Southern edge of the domain in degrees (inclusive of the first cell).
    pub lat_south: f64,
    /// Northern edge of the domain in degrees.
    pub lat_north: f64,
    /// Western edge of the domain in degrees.
    pub lon_west: f64,
    /// Eastern edge of the domain in degrees.
    pub lon_east: f64,
}

impl Grid {
    /// A global grid with the given cell counts, spanning 90°S–90°N and
    /// 0–360°E.
    pub fn global(nlat: usize, nlon: usize) -> Self {
        Grid { nlat, nlon, lat_south: -90.0, lat_north: 90.0, lon_west: 0.0, lon_east: 360.0 }
    }

    /// The paper's CMCC-CM3 atmosphere/ocean grid: 0.25°, 768 × 1152
    /// (25 km × 25 km spacing).
    pub fn cmcc_cm3() -> Self {
        Grid::global(768, 1152)
    }

    /// A small global grid for fast tests (same aspect ratio as CMCC-CM3:
    /// 2 lon cells per 1.5 lat cell).
    pub fn test_small() -> Self {
        Grid::global(48, 72)
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.nlat * self.nlon
    }

    /// True when the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Latitude extent of one cell in degrees.
    pub fn dlat(&self) -> f64 {
        (self.lat_north - self.lat_south) / self.nlat as f64
    }

    /// Longitude extent of one cell in degrees.
    pub fn dlon(&self) -> f64 {
        (self.lon_east - self.lon_west) / self.nlon as f64
    }

    /// Center latitude of row `i` (0 = southernmost).
    pub fn lat(&self, i: usize) -> f64 {
        self.lat_south + (i as f64 + 0.5) * self.dlat()
    }

    /// Center longitude of column `j` (0 = westernmost).
    pub fn lon(&self, j: usize) -> f64 {
        self.lon_west + (j as f64 + 0.5) * self.dlon()
    }

    /// All row-center latitudes, south to north.
    pub fn lats(&self) -> Vec<f64> {
        (0..self.nlat).map(|i| self.lat(i)).collect()
    }

    /// All column-center longitudes, west to east.
    pub fn lons(&self) -> Vec<f64> {
        (0..self.nlon).map(|j| self.lon(j)).collect()
    }

    /// Linear index of cell `(i, j)`.
    pub fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.nlat && j < self.nlon);
        i * self.nlon + j
    }

    /// Row index whose cell contains latitude `lat` (clamped to the domain).
    pub fn lat_index(&self, lat: f64) -> usize {
        let f = (lat - self.lat_south) / self.dlat();
        (f.floor().max(0.0) as usize).min(self.nlat - 1)
    }

    /// Column index whose cell contains longitude `lon`. Longitudes wrap
    /// into the domain for global grids.
    pub fn lon_index(&self, lon: f64) -> usize {
        let width = self.lon_east - self.lon_west;
        let mut l = lon;
        if self.is_global_lon() {
            l = (lon - self.lon_west).rem_euclid(width) + self.lon_west;
        }
        let f = (l - self.lon_west) / self.dlon();
        (f.floor().max(0.0) as usize).min(self.nlon - 1)
    }

    /// True when the grid spans the full 360° of longitude (wrap-around
    /// neighbours are meaningful).
    pub fn is_global_lon(&self) -> bool {
        (self.lon_east - self.lon_west - 360.0).abs() < 1e-9
    }

    /// Area weight of row `i`: cos(latitude), the standard equal-angle
    /// quadrature weight. Normalized weights sum to 1 over the full grid.
    fn row_weight(&self, i: usize) -> f64 {
        self.lat(i).to_radians().cos().max(0.0)
    }

    /// Per-cell normalized area weights (sum over all cells = 1).
    pub fn area_weights(&self) -> Vec<f64> {
        let mut w = Vec::with_capacity(self.len());
        for i in 0..self.nlat {
            let rw = self.row_weight(i);
            for _ in 0..self.nlon {
                w.push(rw);
            }
        }
        let sum: f64 = w.iter().sum();
        if sum > 0.0 {
            for v in &mut w {
                *v /= sum;
            }
        }
        w
    }

    /// Great-circle distance between two points in kilometres (haversine,
    /// spherical Earth of radius 6371 km). Used by the TC tracker's
    /// max-speed gating and by localization error metrics.
    pub fn distance_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
        const R: f64 = 6371.0;
        let (p1, p2) = (lat1.to_radians(), lat2.to_radians());
        let dp = (lat2 - lat1).to_radians();
        let dl = (lon2 - lon1).to_radians();
        let a = (dp / 2.0).sin().powi(2) + p1.cos() * p2.cos() * (dl / 2.0).sin().powi(2);
        2.0 * R * a.sqrt().asin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmcc_cm3_matches_paper_geometry() {
        let g = Grid::cmcc_cm3();
        assert_eq!(g.nlat, 768);
        assert_eq!(g.nlon, 1152);
        // 0.25 degree spacing in both directions.
        assert!((g.dlat() - 180.0 / 768.0).abs() < 1e-12);
        assert!((g.dlon() - 0.3125).abs() < 1e-12);
        assert!(g.is_global_lon());
    }

    #[test]
    fn index_is_row_major() {
        let g = Grid::global(10, 20);
        for (i, j, idx) in [(0, 0, 0), (0, 5, 5), (0, 19, 19), (1, 0, 20), (9, 19, 199)] {
            assert_eq!(g.index(i, j), idx);
        }
    }

    #[test]
    fn lat_lon_centers_are_inside_cells() {
        let g = Grid::global(4, 8);
        assert!((g.lat(0) - (-67.5)).abs() < 1e-9);
        assert!((g.lat(3) - 67.5).abs() < 1e-9);
        assert!((g.lon(0) - 22.5).abs() < 1e-9);
    }

    #[test]
    fn lat_index_inverts_lat() {
        let g = Grid::global(48, 72);
        for i in 0..g.nlat {
            assert_eq!(g.lat_index(g.lat(i)), i);
        }
        assert_eq!(g.lat_index(-1000.0), 0);
        assert_eq!(g.lat_index(1000.0), g.nlat - 1);
    }

    #[test]
    fn lon_index_wraps_global() {
        let g = Grid::global(4, 8);
        for j in 0..g.nlon {
            assert_eq!(g.lon_index(g.lon(j)), j);
            assert_eq!(g.lon_index(g.lon(j) + 360.0), j);
            assert_eq!(g.lon_index(g.lon(j) - 720.0), j);
        }
    }

    #[test]
    fn area_weights_sum_to_one_and_peak_at_equator() {
        let g = Grid::global(48, 72);
        let w = g.area_weights();
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let eq_row = g.nlat / 2;
        assert!(w[g.index(eq_row, 0)] > w[g.index(0, 0)]);
        assert!(w[g.index(eq_row, 0)] > w[g.index(g.nlat - 1, 0)]);
    }

    #[test]
    fn haversine_known_values() {
        // Equatorial degree of longitude is ~111.19 km.
        let d = Grid::distance_km(0.0, 0.0, 0.0, 1.0);
        assert!((d - 111.19).abs() < 0.5, "got {d}");
        // Same point -> 0.
        assert_eq!(Grid::distance_km(45.0, 100.0, 45.0, 100.0), 0.0);
        // Symmetric.
        let a = Grid::distance_km(10.0, 20.0, -30.0, 150.0);
        let b = Grid::distance_km(-30.0, 150.0, 10.0, 20.0);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn regional_grid_is_not_global() {
        let g = Grid {
            nlat: 10,
            nlon: 10,
            lat_south: 20.0,
            lat_north: 50.0,
            lon_west: -30.0,
            lon_east: 40.0,
        };
        assert!(!g.is_global_lon());
        assert_eq!(g.lat_index(20.0 + 1e-9), 0);
    }
}
