//! The ocean component (NEMO surrogate): a slab mixed layer with an SST
//! climatology, a lagged seasonal cycle, relaxation dynamics, heat uptake
//! from the coupler, and a diagnostic sea-ice fraction.

use crate::config::EsmConfig;
use gridded::{Field2, Grid};

/// Seasonal lag of the ocean behind the atmosphere (fraction of a year):
/// the mixed layer peaks ~1 month after the solstice.
const SEASON_LAG: f64 = 0.08;

/// Prognostic ocean state.
pub struct Ocean {
    pub grid: Grid,
    /// Sea surface temperature, K.
    pub sst: Field2,
    /// Sea-ice area fraction in `[0, 1]`.
    pub ice: Field2,
}

impl Ocean {
    /// Initializes SST at climatology for day 0.
    pub fn new(cfg: &EsmConfig) -> Self {
        let g = cfg.grid.clone();
        let mut o = Ocean {
            sst: Field2::constant(g.clone(), 0.0),
            ice: Field2::constant(g.clone(), 0.0),
            grid: g,
        };
        let clim = o.climatology(cfg, 0, 0.0);
        o.sst = clim;
        o.update_ice();
        o
    }

    /// SST climatology for a day of year (K), including warming offset
    /// (ocean takes up ~80% of the surface warming signal).
    pub fn climatology(&self, cfg: &EsmConfig, day: usize, warming_k: f64) -> Field2 {
        let phase = cfg.season_phase(day);
        let mut f = Field2::constant(self.grid.clone(), 0.0);
        for i in 0..self.grid.nlat {
            let lat = self.grid.lat(i);
            let base = 271.3 + 31.0 * lat.to_radians().cos().powi(2);
            let hemi = lat.to_radians().sin();
            let seasonal =
                8.0 * hemi * (2.0 * std::f64::consts::PI * (phase - 0.54 - SEASON_LAG)).cos();
            let v = base + seasonal + 0.8 * warming_k;
            for j in 0..self.grid.nlon {
                f.set(i, j, v as f32);
            }
        }
        f
    }

    /// One daily relaxation step toward climatology (mixed-layer inertia:
    /// ~25-day e-folding). Heat-flux uptake is applied separately by the
    /// coupler between output steps.
    pub fn relax_toward(&mut self, clim: &Field2) {
        const ALPHA: f32 = 1.0 / 25.0;
        for (s, c) in self.sst.data.iter_mut().zip(&clim.data) {
            *s += ALPHA * (c - *s);
        }
        self.update_ice();
    }

    /// Adds coupler heat flux (K per exchange, already scaled).
    pub fn absorb_flux(&mut self, delta: &Field2) {
        for (s, d) in self.sst.data.iter_mut().zip(&delta.data) {
            *s += d;
        }
    }

    /// Recomputes the diagnostic sea-ice fraction: a smooth ramp around
    /// the freezing point of sea water (271.35 K).
    pub fn update_ice(&mut self) {
        for (ice, &sst) in self.ice.data.iter_mut().zip(&self.sst.data) {
            let x = (271.35 - sst) / 2.0;
            *ice = (1.0 / (1.0 + (-x).exp())).clamp(0.0, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> EsmConfig {
        EsmConfig::test_small()
    }

    #[test]
    fn initial_sst_is_physical() {
        let o = Ocean::new(&cfg());
        for &s in &o.sst.data {
            assert!((260.0..310.0).contains(&s), "sst {s}");
        }
        // Warm equator, cold poles.
        let g = &o.grid;
        let eq = o.sst.get(g.nlat / 2, 0);
        let pole = o.sst.get(0, 0);
        assert!(eq > pole + 15.0);
    }

    #[test]
    fn ice_forms_only_in_cold_water() {
        let o = Ocean::new(&cfg());
        let g = &o.grid;
        let eq_ice = o.ice.get(g.nlat / 2, 0);
        let pole_ice = o.ice.get(0, 0).max(o.ice.get(g.nlat - 1, 0));
        assert!(eq_ice < 0.01, "tropical ice {eq_ice}");
        assert!(pole_ice > 0.3, "polar ice {pole_ice}");
    }

    #[test]
    fn relaxation_converges_to_climatology() {
        let c = cfg();
        let mut o = Ocean::new(&c);
        // Perturb strongly, then relax for 150 days toward a fixed target.
        for v in &mut o.sst.data {
            *v += 10.0;
        }
        let target = o.climatology(&c, 0, 0.0);
        for _ in 0..150 {
            o.relax_toward(&target);
        }
        let err: f32 =
            o.sst.data.iter().zip(&target.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max);
        assert!(err < 0.2, "max deviation {err} after relaxation");
    }

    #[test]
    fn seasonal_cycle_lags_and_mirrors() {
        let c = cfg().with_days_per_year(360);
        let o = Ocean::new(&c);
        // NH mid-latitude SST should be warmer after NH summer peak than
        // before it (lag).
        let i_nh = o.grid.lat_index(40.0);
        let just_after = o.climatology(&c, (0.62 * 360.0) as usize, 0.0).get(i_nh, 0);
        let winter = o.climatology(&c, (0.1 * 360.0) as usize, 0.0).get(i_nh, 0);
        assert!(just_after > winter + 3.0);
    }

    #[test]
    fn warming_shifts_sst_up() {
        let c = cfg();
        let o = Ocean::new(&c);
        let cold = o.climatology(&c, 10, 0.0);
        let warm = o.climatology(&c, 10, 2.0);
        let d = warm.area_mean() - cold.area_mean();
        assert!((1.5..1.7).contains(&d), "ocean uptake {d}, expected 1.6");
    }

    #[test]
    fn absorb_flux_changes_sst() {
        let c = cfg();
        let mut o = Ocean::new(&c);
        let before = o.sst.area_mean();
        let delta = Field2::constant(c.grid, 0.5);
        o.absorb_flux(&delta);
        assert!((o.sst.area_mean() - before - 0.5).abs() < 1e-3);
    }
}
