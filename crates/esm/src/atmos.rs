//! The atmospheric component (CAM6 surrogate).
//!
//! An energy-balance atmosphere on the shared grid: zonal temperature
//! climatology with seasonal and diurnal cycles, a zonal-jet wind
//! climatology, an ITCZ/storm-track precipitation pattern, AR(1) coherent
//! weather noise on every field, polar-amplified greenhouse warming, SST
//! coupling, and the injected extreme events — thermal anomalies added to
//! the temperature field and Holland-profile vortices carved into
//! pressure, wind, temperature and precipitation.

use crate::config::EsmConfig;
use crate::events::{TcTrackPoint, YearEvents};
use crate::noise::WeatherNoise;
use crate::surface::{Surface, LAPSE_K_PER_M};
use gridded::{Field2, Grid};

/// Peak of the NH summer as a fraction of the year.
const NH_SUMMER_PHASE: f64 = 0.54;

/// e-folding radius (degrees) of injected cyclone vortices for a given
/// grid: at least 3° (real-storm scale, resolved at the paper's 0.25°),
/// widened on coarse grids so a vortex always spans ~3 cells and stays
/// representable.
pub fn tc_radius_deg(grid: &Grid) -> f64 {
    (2.8 * grid.dlat()).max(3.0)
}

/// Prognostic atmospheric state at one output timestep.
pub struct Atmosphere {
    pub grid: Grid,
    /// Surface air temperature, K.
    pub tas: Field2,
    /// Sea-level pressure, Pa.
    pub psl: Field2,
    /// Eastward 10 m wind, m/s.
    pub u10: Field2,
    /// Northward 10 m wind, m/s.
    pub v10: Field2,
    /// Precipitation rate, mm/day.
    pub pr: Field2,
    temp_noise: WeatherNoise,
    pres_noise: WeatherNoise,
    wind_noise: WeatherNoise,
    /// Static land/orography description.
    pub surface: Surface,
}

impl Atmosphere {
    /// Initializes the component with seeded noise processes.
    pub fn new(cfg: &EsmConfig) -> Self {
        let g = cfg.grid.clone();
        Atmosphere {
            tas: Field2::constant(g.clone(), 0.0),
            psl: Field2::constant(g.clone(), 0.0),
            u10: Field2::constant(g.clone(), 0.0),
            v10: Field2::constant(g.clone(), 0.0),
            pr: Field2::constant(g.clone(), 0.0),
            temp_noise: WeatherNoise::new(g.clone(), 6, 0.85, 2.2, cfg.seed.wrapping_add(1)),
            pres_noise: WeatherNoise::new(g.clone(), 8, 0.80, 350.0, cfg.seed.wrapping_add(2)),
            wind_noise: WeatherNoise::new(g.clone(), 6, 0.75, 2.0, cfg.seed.wrapping_add(3)),
            surface: Surface::new(&g),
            grid: g,
        }
    }

    /// Zonal-mean temperature climatology at a latitude (K), before
    /// seasonal/diurnal modulation.
    pub fn clim_tas(lat: f64) -> f64 {
        300.0 - 55.0 * lat.to_radians().sin().powi(2)
    }

    /// Seasonal temperature excursion at (lat, phase) in K.
    pub fn seasonal_tas(lat: f64, phase: f64) -> f64 {
        let hemisphere = lat.to_radians().sin(); // -1..1, sign = hemisphere
        let seasonal_amp = 16.0 * hemisphere; // mirrored between hemispheres
        seasonal_amp * (2.0 * std::f64::consts::PI * (phase - NH_SUMMER_PHASE)).cos()
    }

    /// Zonal-mean sea-level pressure climatology (hPa): equatorial trough,
    /// subtropical highs, subpolar lows.
    fn clim_psl_hpa(lat: f64) -> f64 {
        let a = lat.abs();
        1012.0 + 8.0 * (-((a - 32.0) / 12.0).powi(2)).exp()
            - 7.0 * (-((a - 58.0) / 10.0).powi(2)).exp()
            - 4.0 * (-(lat / 8.0).powi(2)).exp()
    }

    /// Zonal-mean eastward wind climatology (m/s): westerly jets at ±45°,
    /// easterly trades in the tropics.
    fn clim_u10(lat: f64) -> f64 {
        let a = lat.abs();
        9.0 * (-((a - 45.0) / 14.0).powi(2)).exp() - 6.0 * (-(lat / 14.0).powi(2)).exp()
    }

    /// Precipitation climatology (mm/day): ITCZ plus mid-latitude storm
    /// tracks.
    fn clim_pr(lat: f64) -> f64 {
        let a = lat.abs();
        8.0 * (-(lat / 9.0).powi(2)).exp() + 3.0 * (-((a - 50.0) / 12.0).powi(2)).exp() + 0.5
    }

    /// Polar-amplification factor for greenhouse warming.
    pub fn amplification(lat: f64) -> f64 {
        1.0 + 0.9 * lat.to_radians().sin().powi(2)
    }

    /// Advances one output timestep.
    ///
    /// * `day`, `step` — calendar position within the year;
    /// * `warming_k` — global-mean greenhouse offset for the current year;
    /// * `sst` — the ocean state received through the coupler;
    /// * `events` — the year's injected extremes.
    pub fn step(
        &mut self,
        cfg: &EsmConfig,
        day: usize,
        step: usize,
        warming_k: f64,
        sst: &Field2,
        events: &YearEvents,
    ) {
        let phase = cfg.season_phase(day);
        let diurnal_phase = step as f64 / cfg.timesteps_per_day as f64;
        let tn = self.temp_noise.step();
        let pn = self.pres_noise.step();
        let wn = self.wind_noise.step();

        // Active thermal events and cyclones this timestep, each with its
        // per-step terms computed once: a thermal event's footprint, and a
        // cyclone's longitude metric factor `cos(lat)` floored at 0.2.
        let active_thermal: Vec<_> =
            events.thermal.iter().filter_map(|e| e.footprint(day)).collect();
        let active_tcs: Vec<(TcTrackPoint, f64)> = events
            .tcs
            .iter()
            .filter_map(|t| t.at(day, step))
            .map(|tc| (*tc, tc.lat.to_radians().cos().max(0.2)))
            .collect();
        let vortex_radius = tc_radius_deg(&self.grid);

        let g = self.grid.clone();
        for i in 0..g.nlat {
            let lat = g.lat(i);
            let base_t = Self::clim_tas(lat)
                + Self::seasonal_tas(lat, phase)
                + warming_k * Self::amplification(lat);
            let base_p = Self::clim_psl_hpa(lat) * 100.0;
            let base_u = Self::clim_u10(lat);
            let base_pr = Self::clim_pr(lat);
            // Diurnal cycle peaks mid-afternoon (step offset 0.6); its
            // amplitude is much larger over land than over the mixed-layer
            // ocean.
            let diurnal_shape = -(2.0 * std::f64::consts::PI * (diurnal_phase - 0.6)).cos();

            for j in 0..g.nlon {
                let lon = g.lon(j);
                let idx = g.index(i, j);
                let landf = self.surface.land_at(idx) as f64;
                let diurnal = (1.5 + 5.0 * landf) * diurnal_shape;

                let mut t = base_t + diurnal + tn.data[idx] as f64;
                let mut p = base_p + pn.data[idx] as f64;
                let mut u = base_u + wn.data[idx] as f64;
                let mut v = 0.4 * wn.data[idx] as f64;
                let mut pr = (base_pr + 1.5 * tn.data[idx] as f64).max(0.0);

                // Lapse-rate cooling over high terrain.
                t -= LAPSE_K_PER_M * self.surface.elevation_at(idx) as f64;

                // SST coupling: air relaxes toward SST over open water only.
                let sst_here = sst.data[idx] as f64;
                if sst_here > 200.0 {
                    let w = 0.28 * (1.0 - landf);
                    t = (1.0 - w) * t + w * sst_here;
                }

                // Injected thermal events.
                for e in &active_thermal {
                    t += e.at(lat, lon);
                }

                // Injected cyclones: Holland-like vortex.
                for (tc, lon_scale) in &active_tcs {
                    let dlat = lat - tc.lat;
                    let mut dlon = (lon - tc.lon).rem_euclid(360.0);
                    if dlon > 180.0 {
                        dlon -= 360.0;
                    }
                    let dlon_scaled = dlon * lon_scale;
                    let r = (dlat * dlat + dlon_scaled * dlon_scaled).sqrt();
                    let rn = (r / vortex_radius).max(1e-3);
                    if rn > 5.0 {
                        continue;
                    }
                    let deficit_pa = (1010.0 - tc.center_pressure_hpa) * 100.0;
                    // Pressure: smooth exponential depression.
                    p -= deficit_pa * (-rn.powf(1.5)).exp();
                    // Tangential wind: Rankine-like, calm eye, max at r≈R.
                    let speed = tc.max_wind_ms * rn * (1.0 - rn).exp();
                    // Cyclonic rotation: CCW in NH, CW in SH.
                    let sign = if tc.lat >= 0.0 { 1.0 } else { -1.0 };
                    let norm = r.max(1e-6);
                    u += speed * (-dlat / norm) * sign;
                    v += speed * (dlon_scaled / norm) * sign;
                    // Warm core and eyewall rain.
                    t += 2.5 * (-rn * rn).exp();
                    pr += 40.0 * (-rn * rn).exp();
                }

                self.tas.data[idx] = t as f32;
                self.psl.data[idx] = p as f32;
                self.u10.data[idx] = u as f32;
                self.v10.data[idx] = v as f32;
                self.pr.data[idx] = pr as f32;
            }
        }
    }

    /// Relative vorticity of the current wind field (s⁻¹ ×10⁵ scale is not
    /// applied; raw finite-difference units per degree are adequate for
    /// detection thresholds). Positive = cyclonic in the NH.
    pub fn vorticity(&self) -> Field2 {
        let g = &self.grid;
        let mut out = Field2::constant(g.clone(), 0.0);
        for i in 0..g.nlat {
            for j in 0..g.nlon {
                let jm = (j + g.nlon - 1) % g.nlon;
                let jp = (j + 1) % g.nlon;
                let im = i.saturating_sub(1);
                let ip = (i + 1).min(g.nlat - 1);
                let dvdx = (self.v10.get(i, jp) - self.v10.get(i, jm)) / 2.0;
                let dudy = (self.u10.get(ip, j) - self.u10.get(im, j)) / (ip - im).max(1) as f32;
                // Sign convention: cyclonic positive in NH, so flip in SH.
                let zeta = dvdx - dudy;
                let sign = if g.lat(i) >= 0.0 { 1.0 } else { -1.0 };
                out.set(i, j, zeta * sign);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{TcTrack, ThermalEvent, ThermalKind};
    use crate::forcing::Scenario;

    fn cfg() -> EsmConfig {
        EsmConfig::test_small()
    }

    fn no_events() -> YearEvents {
        YearEvents { year: 2030, thermal: vec![], tcs: vec![] }
    }

    fn cold_sst(grid: &Grid) -> Field2 {
        // Below the 200 K coupling threshold => treated as "no ocean".
        Field2::constant(grid.clone(), 0.0)
    }

    #[test]
    fn climatology_is_warm_at_equator_cold_at_poles() {
        assert!(Atmosphere::clim_tas(0.0) > Atmosphere::clim_tas(60.0));
        assert!(Atmosphere::clim_tas(60.0) > Atmosphere::clim_tas(89.0));
        assert!((Atmosphere::clim_tas(45.0) - Atmosphere::clim_tas(-45.0)).abs() < 1e-9);
    }

    #[test]
    fn seasonal_cycle_is_antisymmetric() {
        // NH summer = SH winter.
        let nh = Atmosphere::seasonal_tas(45.0, NH_SUMMER_PHASE);
        let sh = Atmosphere::seasonal_tas(-45.0, NH_SUMMER_PHASE);
        assert!(nh > 5.0, "NH summer should be warm: {nh}");
        assert!((nh + sh).abs() < 1e-9, "hemispheres must mirror");
        // Equator has no seasonal cycle.
        assert!(Atmosphere::seasonal_tas(0.0, 0.2).abs() < 1e-9);
    }

    #[test]
    fn step_produces_physical_fields() {
        let c = cfg();
        let mut a = Atmosphere::new(&c);
        let sst = cold_sst(&c.grid);
        a.step(&c, 10, 2, Scenario::Ssp245.warming_k(2030), &sst, &no_events());
        for &t in &a.tas.data {
            assert!((180.0..340.0).contains(&t), "tas {t} K out of range");
        }
        for &p in &a.psl.data {
            assert!((92_000.0..107_000.0).contains(&p), "psl {p} Pa out of range");
        }
        for &pr in &a.pr.data {
            assert!(pr >= 0.0, "negative precipitation");
        }
    }

    #[test]
    fn warming_raises_global_temperature() {
        let c = cfg();
        let sst = cold_sst(&c.grid);
        let mut cold = Atmosphere::new(&c);
        cold.step(&c, 10, 0, 0.0, &sst, &no_events());
        let mut warm = Atmosphere::new(&c);
        warm.step(&c, 10, 0, 3.0, &sst, &no_events());
        let dt = warm.tas.area_mean() - cold.tas.area_mean();
        assert!((2.5..5.0).contains(&dt), "warming response {dt}, expected ~3-4 K (amplified)");
    }

    #[test]
    fn sst_coupling_pulls_air_temperature() {
        let c = cfg();
        let mut free = Atmosphere::new(&c);
        free.step(&c, 0, 0, 0.0, &cold_sst(&c.grid), &no_events());
        let mut coupled = Atmosphere::new(&c);
        let hot_ocean = Field2::constant(c.grid.clone(), 310.0);
        coupled.step(&c, 0, 0, 0.0, &hot_ocean, &no_events());
        assert!(coupled.tas.area_mean() > free.tas.area_mean() + 1.0);
    }

    #[test]
    fn heat_wave_event_shows_up_in_tas() {
        let c = cfg();
        let ev = YearEvents {
            year: 2030,
            thermal: vec![ThermalEvent {
                kind: ThermalKind::HeatWave,
                start_day: 5,
                duration: 10,
                center_lat: 45.0,
                center_lon: 100.0,
                radius_deg: 15.0,
                amplitude_k: 10.0,
            }],
            tcs: vec![],
        };
        let sst = cold_sst(&c.grid);
        let mut base = Atmosphere::new(&c);
        base.step(&c, 8, 0, 0.0, &sst, &no_events());
        let mut with = Atmosphere::new(&c);
        with.step(&c, 8, 0, 0.0, &sst, &ev);
        let i = c.grid.lat_index(45.0);
        let j = c.grid.lon_index(100.0);
        let delta = with.tas.get(i, j) - base.tas.get(i, j);
        assert!(delta > 6.0, "heat wave anomaly {delta} too weak");
        // Far away: negligible.
        let jfar = c.grid.lon_index(280.0);
        let far = (with.tas.get(i, jfar) - base.tas.get(i, jfar)).abs();
        assert!(far < 1.0, "anomaly leaked {far} K to the far field");
    }

    #[test]
    fn cyclone_carves_pressure_minimum_and_wind_ring() {
        // Finer grid (1.875 x 2.5 deg) with the cyclone exactly on a cell
        // center, so the calm eye and the wind ring are resolvable.
        let mut c = cfg().with_grid(Grid::global(96, 144));
        c.seed = 3;
        let ci0 = c.grid.lat_index(15.0);
        let cj0 = c.grid.lon_index(140.0);
        let (tc_lat, tc_lon) = (c.grid.lat(ci0), c.grid.lon(cj0));
        let tc_point = TcTrackPoint {
            day: 3,
            step: 1,
            lat: tc_lat,
            lon: tc_lon,
            center_pressure_hpa: 940.0,
            max_wind_ms: 52.0,
        };
        let ev = YearEvents {
            year: 2030,
            thermal: vec![],
            tcs: vec![TcTrack { id: 0, points: vec![tc_point] }],
        };
        let sst = cold_sst(&c.grid);
        let mut a = Atmosphere::new(&c);
        a.step(&c, 3, 1, 0.0, &sst, &ev);

        // Pressure minimum near the center.
        let lowest = a.psl.data.iter().enumerate().min_by(|x, y| x.1.total_cmp(y.1)).unwrap().0;
        let (pi, pj) = (lowest / c.grid.nlon, lowest % c.grid.nlon);
        let (plat, plon) = (c.grid.lat(pi), c.grid.lon(pj));
        let dist = Grid::distance_km(plat, plon, tc_lat, tc_lon);
        assert!(dist < 600.0, "pressure minimum {dist} km from TC center");

        // Wind speed peaks in a ring, not in the eye.
        let eye_wind = (a.u10.get(ci0, cj0).powi(2) + a.v10.get(ci0, cj0).powi(2)).sqrt();
        let ring_j = c.grid.lon_index(tc_lon + tc_radius_deg(&c.grid));
        let ring_wind = (a.u10.get(ci0, ring_j).powi(2) + a.v10.get(ci0, ring_j).powi(2)).sqrt();
        assert!(
            ring_wind > eye_wind + 5.0,
            "ring wind {ring_wind} should exceed eye wind {eye_wind}"
        );

        // Cyclone shows up as a positive (cyclonic) vorticity blob.
        let vort = a.vorticity();
        let v_here = vort.get(ci0, cj0).max(vort.get(ci0, ring_j));
        assert!(v_here > 0.0, "cyclonic vorticity expected, got {v_here}");
    }

    #[test]
    fn noise_makes_steps_differ() {
        let c = cfg();
        let sst = cold_sst(&c.grid);
        let mut a = Atmosphere::new(&c);
        a.step(&c, 0, 0, 0.0, &sst, &no_events());
        let first = a.tas.data.clone();
        a.step(&c, 0, 1, 0.0, &sst, &no_events());
        assert_ne!(first, a.tas.data);
    }
}
