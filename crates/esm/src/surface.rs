//! Land–sea mask and orography.
//!
//! CMCC-CM3 couples an atmosphere to an ocean *and* a land surface; the
//! pieces of that which matter to this workflow's fields are (i) where the
//! SST coupling applies (over water only), (ii) the larger diurnal
//! temperature range over land, and (iii) lapse-rate cooling over high
//! terrain. The surface here is procedural but deterministic and
//! resolution-independent: idealized continents as smooth blobs at roughly
//! Earth-like positions, with three major mountain ridges.

use gridded::{Field2, Grid};

/// An idealized continent: an ellipse in (lat, lon) with soft edges.
struct Blob {
    lat: f64,
    lon: f64,
    /// Semi-axes in degrees.
    a_lat: f64,
    a_lon: f64,
}

/// Rough Earth-like continent layout (deterministic, resolution-free).
const CONTINENTS: [Blob; 7] = [
    Blob { lat: 55.0, lon: 60.0, a_lat: 28.0, a_lon: 75.0 }, // Eurasia
    Blob { lat: 8.0, lon: 22.0, a_lat: 28.0, a_lon: 26.0 },  // Africa
    Blob { lat: 48.0, lon: 260.0, a_lat: 22.0, a_lon: 40.0 }, // North America
    Blob { lat: -15.0, lon: 300.0, a_lat: 25.0, a_lon: 18.0 }, // South America
    Blob { lat: -25.0, lon: 134.0, a_lat: 12.0, a_lon: 18.0 }, // Australia
    Blob { lat: -83.0, lon: 180.0, a_lat: 14.0, a_lon: 180.0 }, // Antarctica
    Blob { lat: 74.0, lon: 320.0, a_lat: 10.0, a_lon: 18.0 }, // Greenland
];

/// Mountain ridge: a gaussian ridge along a lat/lon segment.
struct Ridge {
    lat: f64,
    lon: f64,
    a_lat: f64,
    a_lon: f64,
    /// Peak elevation in metres.
    peak_m: f64,
}

const RIDGES: [Ridge; 3] = [
    Ridge { lat: 32.0, lon: 85.0, a_lat: 7.0, a_lon: 18.0, peak_m: 4500.0 }, // Tibet/Himalaya
    Ridge { lat: -20.0, lon: 292.0, a_lat: 22.0, a_lon: 4.0, peak_m: 3500.0 }, // Andes
    Ridge { lat: 45.0, lon: 248.0, a_lat: 14.0, a_lon: 6.0, peak_m: 2200.0 }, // Rockies
];

fn wrapped_dlon(lon: f64, center: f64) -> f64 {
    let mut d = (lon - center).rem_euclid(360.0);
    if d > 180.0 {
        d -= 360.0;
    }
    d
}

/// The static surface description on a grid.
pub struct Surface {
    /// Land fraction per cell in `[0, 1]` (1 = land).
    pub land: Field2,
    /// Surface elevation per cell in metres (0 over ocean).
    pub elevation: Field2,
}

impl Surface {
    /// Builds the surface for a grid.
    pub fn new(grid: &Grid) -> Surface {
        let mut land = Field2::constant(grid.clone(), 0.0);
        let mut elevation = Field2::constant(grid.clone(), 0.0);
        for i in 0..grid.nlat {
            let lat = grid.lat(i);
            for j in 0..grid.nlon {
                let lon = grid.lon(j);
                // Land fraction: soft max over continent blobs.
                let mut f: f64 = 0.0;
                for b in &CONTINENTS {
                    let dy = (lat - b.lat) / b.a_lat;
                    let dx = wrapped_dlon(lon, b.lon) / b.a_lon;
                    let r2 = dy * dy + dx * dx;
                    // ~1 inside, smooth falloff at the coast.
                    let v = 1.0 / (1.0 + ((r2 - 0.8) * 6.0).exp());
                    f = f.max(v);
                }
                land.set(i, j, f as f32);

                let mut elev: f64 = 0.0;
                for r in &RIDGES {
                    let dy = (lat - r.lat) / r.a_lat;
                    let dx = wrapped_dlon(lon, r.lon) / r.a_lon;
                    elev += r.peak_m * (-(dy * dy + dx * dx)).exp();
                }
                // Mountains only exist over land; soft (sqrt) weighting so
                // ranges near a coastline keep realistic heights.
                elevation.set(i, j, (elev * f.sqrt()) as f32);
            }
        }
        Surface { land, elevation }
    }

    /// Land fraction at a cell.
    #[inline]
    pub fn land_at(&self, idx: usize) -> f32 {
        self.land.data[idx]
    }

    /// Elevation (m) at a cell.
    #[inline]
    pub fn elevation_at(&self, idx: usize) -> f32 {
        self.elevation.data[idx]
    }
}

/// Standard atmosphere lapse rate, K per metre.
pub const LAPSE_K_PER_M: f64 = 0.0065;

#[cfg(test)]
mod tests {
    use super::*;

    fn surface() -> Surface {
        Surface::new(&Grid::test_small())
    }

    #[test]
    fn land_fraction_is_earth_like() {
        let s = surface();
        let f = s.land.area_mean();
        assert!((0.18..0.45).contains(&f), "global land fraction {f} (Earth ~0.29)");
        // All fractions in [0, 1].
        assert!(s.land.data.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn known_places() {
        let s = surface();
        let g = Grid::test_small();
        let at = |lat: f64, lon: f64| s.land_at(g.index(g.lat_index(lat), g.lon_index(lon)));
        assert!(at(50.0, 60.0) > 0.8, "central Eurasia is land");
        assert!(at(5.0, 20.0) > 0.8, "central Africa is land");
        assert!(at(0.0, 180.0) < 0.2, "central Pacific is ocean");
        assert!(at(-40.0, 340.0) < 0.2, "South Atlantic is ocean");
        assert!(at(-85.0, 90.0) > 0.5, "Antarctica is land");
    }

    #[test]
    fn orography_peaks_at_ridges() {
        let s = surface();
        let g = Grid::test_small();
        let at = |lat: f64, lon: f64| s.elevation_at(g.index(g.lat_index(lat), g.lon_index(lon)));
        assert!(at(32.0, 85.0) > 2500.0, "Tibet is high: {}", at(32.0, 85.0));
        assert!(at(0.0, 180.0) < 50.0, "ocean is at sea level");
        assert!(s.elevation.data.iter().all(|&v| (0.0..5000.0).contains(&v)));
    }

    #[test]
    fn surface_is_deterministic_and_resolution_consistent() {
        let a = Surface::new(&Grid::test_small());
        let b = Surface::new(&Grid::test_small());
        assert_eq!(a.land.data, b.land.data);
        // Same geography at double resolution: global fraction stable.
        let fine = Surface::new(&Grid::global(96, 144));
        assert!(
            (a.land.area_mean() - fine.land.area_mean()).abs() < 0.03,
            "land fraction drifts with resolution"
        );
    }
}
